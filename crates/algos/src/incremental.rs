//! Incremental (warm-start) engines over a delta overlay.
//!
//! Static engines answer every query from scratch; these engines instead
//! warm-start from a prior converged [`RunResult`] and repair only the part
//! of the solution a mutation batch invalidated. All of them run over a
//! placed [`OverlayTopo`] — merged adjacency reads are charged through the
//! bulk accessors, so simulated `PhaseCosts` show the true (slightly
//! higher per-edge) price of reading through the overlay, and the win over
//! a from-scratch run comes entirely from touching fewer vertices/edges.
//!
//! Three repair strategies (see `docs/INCREMENTAL.md` for the proofs):
//!
//! * **Monotone path repair** (BFS levels, SSSP distances): values form the
//!   unique minimum fixpoint of `curr[v] = min over in-edges (u,v,w) of
//!   relax(curr[u], w)` with the source pinned at zero. A deleted or
//!   weight-increased edge can only *invalidate* vertices whose old value
//!   was supported through it: the `inc/seed` phase tests every removed
//!   edge `(u, v, w_old)` for `curr[v] == relax(curr[u], w_old)`, the
//!   `inc/cascade` rounds close that suspect set over still-live support
//!   edges, and one fused `inc/reset` phase lifts suspects back to the
//!   identity while *pulling* each suspect's best offer from its
//!   still-trusted (non-suspect, finite) in-neighbours. The `inc/graft`
//!   phase then lands those pulled repairs plus one relaxation per
//!   inserted edge (a converged source can only improve targets through
//!   its *new* edges), and the improved targets seed the `inc/push`
//!   fixpoint (atomic `fetch_min` over merged out-streams), which
//!   re-converges to the exact fixpoint — bit-identical to a from-scratch
//!   run. Positive weights are required (zero-weight inserts are rejected
//!   at [`polymer_graph::DeltaBatch::validate`]): a zero-weight cycle
//!   could hide a removed support edge behind an equal-cost chain.
//! * **Component repair** (connected components over the symmetrized
//!   graph): an insert-only batch merges components without recomputing
//!   anything — a host union-find over the *prior labels* of the batch
//!   endpoints (labels are component minima, so union-by-min preserves the
//!   invariant) followed by one charged `inc/relabel` sweep; zero repair
//!   iterations. A batch with structural deletes is answered **cold**: a
//!   delete may split a component, label propagation can only find that out
//!   by resetting the whole component, and on a graph with one giant
//!   component that is a cold run plus a restore sweep (the retired path
//!   measured 1.1× against cold; numbers in `docs/INCREMENTAL.md`).
//! * **Residual PageRank**: scores solve the linear system
//!   `x = (1-d)/n + d·Aᵀ D⁻¹ x`. The batch changes a few matrix entries;
//!   `inc/recompute` re-pulls the equation for every vertex whose in-edges
//!   or in-neighbour degrees changed and records the resulting residual
//!   `delta = new − old`, and the `inc/push`/`inc/apply` rounds propagate
//!   residuals (`d·delta/deg` along live out-edges, atomic adds) until all
//!   are below `tol`. This converges to the same fixpoint as a
//!   from-scratch residual run to ε, not bit-identically — float summation
//!   order differs, as with the static engines.
//!
//! Every repair here is the charged copy: the model. It is the only path
//! that produces the simulated cost of reading through an overlay
//! (`bench_incremental`'s `sim_*` columns; its wall columns time these very
//! calls, simulator included). `polymer-serve` does not execute it: a served
//! warm BFS / SSSP is [`crate::warm_repair`], the same monotone path repair
//! as a sequential host kernel over the `MutableGraph` — the product —
//! pinned to [`bfs_overlay`] / [`sssp_overlay`] value for value and
//! iteration for iteration by the proptest in `repair.rs`. Model and
//! product, as the four engines and the real-thread executor already are;
//! no option selects between them. The min-fixpoint repairs are
//! written against [`Program`] — [`Bfs`], [`Sssp`], [`ConnectedComponents`]
//! as the static engines run them: `relax` above is [`Program::scatter`],
//! the identity [`Program::next_identity`] — and [`bfs_overlay`] and
//! friends are shorthands that name the program. Residual PageRank is a
//! different fixpoint iteration from [`crate::PageRank`]'s fixed-round
//! power method and stays a stand-alone body.
//!
//! Accounting honesty: restored prior values are charged (a `"restore"`
//! sweep), every adjacency read goes through charged overlay streams, every
//! value read/write through charged array accessors. Only *work planning*
//! is host-side and free — frontier vectors, the suspect bitmap, the batch
//! edge lists, the union-find over a handful of labels — matching how the
//! static engines treat their frontiers and chunk plans.

use std::collections::HashMap;

use polymer_api::{
    catch_engine_faults, charged_values_restore, even_chunks, validate_run_config,
    validate_sim_threads, weight_balanced_chunks, FrontierInit, IterationDriver, OverlayTopo,
    PolymerResult, Program, RunResult,
};
use polymer_graph::{AppliedBatch, Edge, VId};
use polymer_numa::{AllocPolicy, BarrierKind, Machine, NumaAtomicArray};

use crate::{Bfs, ConnectedComponents, Sssp};

/// Default residual tolerance for incremental PageRank: residual mass per
/// vertex below this is considered converged.
pub const DEFAULT_PR_TOL: f64 = 1e-12;

/// A prior converged result plus the mutations applied since it was
/// computed — everything a warm-started engine needs. When several batches
/// landed since the prior run, compose them first
/// ([`AppliedBatch::merged_with`]).
#[derive(Clone, Copy)]
pub struct WarmStart<'a, V> {
    /// Per-vertex values of the prior run (must be converged).
    pub values: &'a [V],
    /// Iterations the prior run spent; repair rounds stamp after these in
    /// the same global iteration space.
    pub iterations: usize,
    /// The effective mutations applied since the prior run.
    pub batch: &'a AppliedBatch,
}

impl<'a, V> WarmStart<'a, V> {
    /// Warm-start from a prior [`RunResult`].
    pub fn from_result(prior: &'a RunResult<V>, batch: &'a AppliedBatch) -> Self {
        WarmStart {
            values: &prior.values,
            iterations: prior.iterations,
            batch,
        }
    }
}

/// Incremental BFS over a placed overlay: cold run when `warm` is `None`,
/// frontier-restricted repair otherwise. Values are bit-identical to a
/// from-scratch run either way (unique min fixpoint).
pub fn bfs_overlay(
    machine: &Machine,
    threads: usize,
    topo: &OverlayTopo,
    source: VId,
    warm: Option<WarmStart<'_, u32>>,
    traced: bool,
) -> PolymerResult<RunResult<u32>> {
    min_overlay(machine, threads, topo, &Bfs::new(source), warm, traced)
}

/// Incremental SSSP (weighted Bellman–Ford fixpoint) over a placed
/// overlay. The overlay must be built `with_weights`; weights are strictly
/// positive by batch validation.
pub fn sssp_overlay(
    machine: &Machine,
    threads: usize,
    topo: &OverlayTopo,
    source: VId,
    warm: Option<WarmStart<'_, u64>>,
    traced: bool,
) -> PolymerResult<RunResult<u64>> {
    min_overlay(machine, threads, topo, &Sssp::new(source), warm, traced)
}

/// Incremental connected components over a placed overlay of the
/// *symmetrized* graph; a warm batch must be symmetrized too (every insert
/// and delete queued in both directions). Insert-only batches take
/// the union-find fast path (one relabel sweep, zero repair iterations); a
/// batch with structural deletes is answered by the cold run.
pub fn cc_overlay(
    machine: &Machine,
    threads: usize,
    topo: &OverlayTopo,
    warm: Option<WarmStart<'_, u32>>,
    traced: bool,
) -> PolymerResult<RunResult<u32>> {
    // Weight changes don't touch connectivity (they appear only in
    // `reweighted` and `inserts`); a structural delete may split a
    // component, which no bounded repair here can tell.
    let Some(w) = warm.filter(|w| w.batch.deletes.is_empty()) else {
        return min_overlay(machine, threads, topo, &ConnectedComponents, None, traced);
    };
    validate_sim_threads(machine, threads)?;
    catch_engine_faults(|| {
        let n = topo.num_vertices();
        assert_eq!(w.values.len(), n, "warm-start value count mismatch");
        let mut driver = IterationDriver::new(machine, threads, BarrierKind::SenseNuma, traced, n);
        let curr =
            machine.alloc_atomic_with::<u32>("data/curr", n, AllocPolicy::Interleaved, |v| {
                ConnectedComponents.init(v as VId)
            });
        charged_values_restore(driver.sim(), threads, &curr, w.values);
        driver.resume_from_state(w.iterations);
        // Host union-find over the prior labels of the insert endpoints, then
        // one charged relabel sweep: zero repair iterations.
        let resolved = resolve_labels(&w.batch.inserts, w.values);
        if !resolved.is_empty() {
            let chunks = even_chunks(n, threads);
            driver.sim().run_phase_split(
                "inc/relabel",
                |tid, ctx| {
                    let r = chunks[tid].clone();
                    let vals: Vec<u32> = curr.iter_seq(ctx, r.clone()).collect();
                    curr.store_seq(ctx, r.clone(), |i| {
                        let l = vals[i - r.start];
                        resolved.get(&l).copied().unwrap_or(l)
                    });
                },
                |_, _, ()| {},
            );
            driver.sim().charge_barrier();
        }
        Ok(driver.finish(curr.snapshot()))
    })
}

/// A min-combine [`Program`] over a placed overlay: cold from its own
/// `init` / `initial_frontier`, or repaired from `warm`. The front door is
/// the one an [`polymer_api::Engine`] run goes through: a thread count the
/// machine cannot bind or an out-of-range source is a typed `invalid-config`
/// error, and a panic escaping the body (a warm-start value count mismatch,
/// an injected fault) is converted instead of unwinding into the caller.
/// `next_identity` is the "no value yet" sentinel, never relaxed from.
fn min_overlay<P: Program<Val: PartialOrd>>(
    machine: &Machine,
    threads: usize,
    topo: &OverlayTopo,
    prog: &P,
    warm: Option<WarmStart<'_, P::Val>>,
    traced: bool,
) -> PolymerResult<RunResult<P::Val>> {
    let n = topo.num_vertices();
    validate_sim_threads(machine, threads)?;
    validate_run_config(threads, n, prog)?;
    catch_engine_faults(|| {
        let mut driver = IterationDriver::new(machine, threads, BarrierKind::SenseNuma, traced, n);
        let curr =
            machine.alloc_atomic_with::<P::Val>("data/curr", n, AllocPolicy::Interleaved, |v| {
                prog.init(v as VId)
            });
        let mut frontier = match warm {
            None => match prog.initial_frontier() {
                FrontierInit::Single(s) => vec![s],
                FrontierInit::All => (0..n as VId).collect(),
            },
            Some(w) => {
                assert_eq!(w.values.len(), n, "warm-start value count mismatch");
                charged_values_restore(driver.sim(), threads, &curr, w.values);
                driver.resume_from_state(w.iterations);
                path_repair_seed(&mut driver, threads, topo, prog, &curr, w.batch)
            }
        };
        min_push_fixpoint(&mut driver, threads, topo, prog, &curr, &mut frontier)?;
        Ok(driver.finish(curr.snapshot()))
    })
}

/// Seed phases of monotone path repair: suspect detection over removed
/// support edges, alternative-support refinement, reset, boundary
/// collection. Returns the initial push frontier.
///
/// A vertex is condemned (reset to the identity) only when **no**
/// still-trusted in-neighbour supports its value at a live weight — the
/// affected-set refinement of the incremental-SSSP literature. Without the
/// requalification check, one deleted tree edge near the root condemns
/// everything downstream and repair degenerates to a from-scratch run;
/// with it, deletes off the shortest-path DAG (the common case in graphs
/// with path diversity) condemn nothing at all. Soundness leans on
/// [`Program::scatter`] being strictly increasing in the source value (BFS
/// adds 1, SSSP adds a validated non-zero weight), which rules out support
/// cycles.
fn path_repair_seed<P: Program<Val: PartialOrd>>(
    driver: &mut IterationDriver,
    threads: usize,
    topo: &OverlayTopo,
    prog: &P,
    curr: &NumaAtomicArray<P::Val>,
    batch: &AppliedBatch,
) -> Vec<VId> {
    let n = topo.num_vertices();
    let FrontierInit::Single(root) = prog.initial_frontier() else {
        panic!("path repair needs a pinned root");
    };
    let identity = prog.next_identity();
    // The offer along a live out-edge of `src`; every call site tests
    // `src_val` against the identity first. The degree is the live one, read
    // unaccounted: no program with a monotone repair depends on it.
    let deg = |v: VId| topo.raw_live_out_degree(v as usize) as u32;
    let relax = |src: VId, src_val: P::Val, w: u32| prog.scatter(src, src_val, w, deg(src));
    // Old weights of reweighted pairs, for support tests against pre-batch
    // values (the live stream yields the *new* weight).
    let old_weight = |e: &Edge| ((e.src, e.dst), e.weight);
    let rw: HashMap<(VId, VId), u32> = batch.reweighted.iter().map(old_weight).collect();

    // Removed support candidates: structural deletes plus reweighted pairs
    // (each carrying the weight the old value was computed with).
    let removed: Vec<Edge> = batch
        .deletes
        .iter()
        .chain(batch.reweighted.iter())
        .copied()
        .collect();
    let mut candidates: Vec<VId> = Vec::new();
    if !removed.is_empty() {
        let chunks = even_chunks(removed.len(), threads);
        driver.sim().run_phase_split(
            "inc/seed",
            |tid, ctx| {
                let mut found = Vec::new();
                for e in &removed[chunks[tid].clone()] {
                    if e.dst == root {
                        continue;
                    }
                    let uv = curr.load(ctx, e.src as usize);
                    if uv == identity {
                        continue;
                    }
                    if curr.load(ctx, e.dst as usize) == relax(e.src, uv, e.weight) {
                        found.push(e.dst);
                    }
                }
                found
            },
            |_, _, found| candidates.extend(found),
        );
        driver.sim().charge_barrier();
    }

    // Refinement waves: requalify candidates against the wave-start
    // suspect set, condemn the unsupported, and re-candidate the
    // out-neighbours the newly condemned were supporting (old *or* live
    // weight — a vertex kept on a supporter that later falls must be
    // re-examined). Each wave condemns at least one vertex, so this
    // terminates.
    let mut suspect = vec![false; n];
    let mut suspects: Vec<VId> = Vec::new();
    while !candidates.is_empty() {
        candidates.sort_unstable();
        candidates.dedup();
        candidates.retain(|&v| v != root && !suspect[v as usize]);
        if candidates.is_empty() {
            break;
        }
        let segs = topo.plan_in_segments(&candidates, SEG_GRAIN);
        let chunks = weight_balanced_chunks(&segs, |s| s.weight as usize, threads);
        let mut verdicts: HashMap<VId, bool> = HashMap::with_capacity(candidates.len());
        driver.sim().run_phase_split(
            "inc/requalify",
            |tid, ctx| {
                let mut out: Vec<(VId, bool)> = Vec::new();
                for &seg in &segs[chunks[tid].clone()] {
                    let t = seg.v;
                    let tv = curr.load(ctx, t as usize);
                    if tv == identity {
                        // Unreached values are the identity (the maximum):
                        // never wrong in the dangerous direction.
                        out.push((t, true));
                        continue;
                    }
                    let mut kept = false;
                    for (s2, w2) in topo.in_stream_segment(ctx, seg) {
                        if !suspect[s2 as usize] {
                            let sv2 = curr.load(ctx, s2 as usize);
                            if sv2 != identity && relax(s2, sv2, w2) == tv {
                                kept = true;
                                break;
                            }
                        }
                    }
                    out.push((t, kept));
                }
                out
            },
            |_, _, out| {
                for (t, kept) in out {
                    *verdicts.entry(t).or_insert(false) |= kept;
                }
            },
        );
        driver.sim().charge_barrier();
        // `candidates` is sorted and deduplicated, so the filtered
        // condemned list is too.
        let condemned: Vec<VId> = candidates
            .iter()
            .copied()
            .filter(|t| !verdicts.get(t).copied().unwrap_or(false))
            .collect();
        if condemned.is_empty() {
            break;
        }
        for &v in &condemned {
            suspect[v as usize] = true;
        }
        let segs = topo.plan_out_segments(&condemned, SEG_GRAIN);
        let chunks = weight_balanced_chunks(&segs, |s| s.weight as usize, threads);
        let mut next: Vec<VId> = Vec::new();
        driver.sim().run_phase_split(
            "inc/cascade",
            |tid, ctx| {
                let mut out = Vec::new();
                for &seg in &segs[chunks[tid].clone()] {
                    let s = seg.v;
                    let sv = curr.load(ctx, s as usize);
                    if sv == identity {
                        continue;
                    }
                    for (t, w) in topo.out_stream_segment(ctx, seg) {
                        // Old support used the old weight where the pair
                        // was reweighted.
                        let w_old = rw.get(&(s, t)).copied().unwrap_or(w);
                        let tv = curr.load(ctx, t as usize);
                        if tv == relax(s, sv, w_old) || tv == relax(s, sv, w) {
                            out.push(t);
                        }
                    }
                }
                out
            },
            |_, _, f| next.extend(f),
        );
        driver.sim().charge_barrier();
        suspects.extend_from_slice(&condemned);
        candidates = next;
    }

    // One fused phase cuts the reset region out and re-pulls it: the
    // compute half walks each suspect's in-segments computing the best
    // offer from still-trusted (non-suspect, finite) in-neighbours, the
    // publish half resets the suspects themselves to the identity. The
    // reads touch only non-suspect values and the writes only suspect
    // slots, so the split contract holds. Pulling (suspects × in-degree
    // reads) replaces the boundary-push alternative (boundary sources ×
    // their full out-degree), which re-scans every list adjacent to the
    // region; the pulled minima are applied as offers in the graft phase
    // below, after the resets land.
    let mut pulled: Vec<(VId, P::Val)> = Vec::new();
    if !suspects.is_empty() {
        let segs = topo.plan_in_segments(&suspects, SEG_GRAIN);
        let chunks = weight_balanced_chunks(&segs, |s| s.weight as usize, threads);
        let reset_chunks = even_chunks(suspects.len(), threads);
        driver.sim().run_phase_split(
            "inc/reset",
            |tid, ctx| {
                let mut out: Vec<(VId, P::Val)> = Vec::new();
                for &seg in &segs[chunks[tid].clone()] {
                    let mut best = identity;
                    for (s, w) in topo.in_stream_segment(ctx, seg) {
                        if !suspect[s as usize] {
                            let sv = curr.load(ctx, s as usize);
                            if sv != identity {
                                let c = relax(s, sv, w);
                                if c < best {
                                    best = c;
                                }
                            }
                        }
                    }
                    if best != identity {
                        out.push((seg.v, best));
                    }
                }
                out
            },
            |tid, ctx, out| {
                pulled.extend(out);
                for &v in &suspects[reset_chunks[tid].clone()] {
                    curr.store(ctx, v as usize, identity);
                }
            },
        );
        driver.sim().charge_barrier();
    }

    // Graft: inserted edges (including reweight-decreases, which surface in
    // `inserts` at their new weight) relax exactly once, and the pulled
    // repair offers land on the freshly reset region. A non-suspect source
    // is converged, so its only possibly-improving offers run along its NEW
    // edges — scanning its whole adjacency would be wasted charge.
    // Identity-valued (suspect or unreached) sources skip; their offers
    // arrive through the ordinary push rounds once their value recovers.
    let mut frontier: Vec<VId> = Vec::new();
    if !batch.inserts.is_empty() || !pulled.is_empty() {
        let chunks = even_chunks(batch.inserts.len(), threads);
        let pull_chunks = even_chunks(pulled.len(), threads);
        driver.sim().run_phase_split(
            "inc/graft",
            |tid, ctx| {
                let mut out: Vec<(VId, P::Val)> = Vec::new();
                for e in &batch.inserts[chunks[tid].clone()] {
                    let sv = curr.load(ctx, e.src as usize);
                    if sv == identity {
                        continue;
                    }
                    out.push((e.dst, relax(e.src, sv, e.weight)));
                }
                out
            },
            |tid, ctx, out| {
                for (t, c) in out
                    .into_iter()
                    .chain(pulled[pull_chunks[tid].clone()].iter().copied())
                {
                    let old = curr.fetch_min(ctx, t as usize, c);
                    if c < old {
                        frontier.push(t);
                    }
                }
            },
        );
        driver.sim().charge_barrier();
    }
    frontier.sort_unstable();
    frontier.dedup();
    frontier
}

/// Union-find over the prior labels of the insert endpoints, by-min (labels
/// are component minima, so the merged label stays the component minimum).
/// Returns the non-identity mappings `old label -> merged label`.
fn resolve_labels(inserts: &[Edge], labels: &[u32]) -> HashMap<u32, u32> {
    fn find(parent: &mut HashMap<u32, u32>, mut x: u32) -> u32 {
        while let Some(&p) = parent.get(&x) {
            if p == x {
                break;
            }
            let gp = parent.get(&p).copied().unwrap_or(p);
            parent.insert(x, gp);
            x = gp;
        }
        x
    }
    let mut parent: HashMap<u32, u32> = HashMap::new();
    for e in inserts {
        let a = find(&mut parent, labels[e.src as usize]);
        let b = find(&mut parent, labels[e.dst as usize]);
        if a != b {
            let (lo, hi) = (a.min(b), a.max(b));
            parent.insert(hi, lo);
        }
    }
    let touched: Vec<u32> = inserts
        .iter()
        .flat_map(|e| [labels[e.src as usize], labels[e.dst as usize]])
        .collect();
    let mut resolved = HashMap::new();
    for l in touched {
        let r = find(&mut parent, l);
        if r != l {
            resolved.insert(l, r);
        }
    }
    resolved
}

/// Base-edge grain for splitting one vertex's out-adjacency across threads
/// ([`OverlayTopo::plan_out_segments`]). Warm frontiers are tiny and
/// hub-biased (batches sample live edges, so endpoints skew to high-degree
/// vertices); without splitting, a single hub scan serializes a whole
/// scatter round behind one thread.
const SEG_GRAIN: usize = 128;

/// The monotone push fixpoint: active vertices offer `scatter(curr, w)` along
/// merged out-streams, targets take the min atomically, improved targets
/// form the next frontier. Runs until the frontier drains. Scatter work is
/// segment-balanced: heavy vertices split across threads at [`SEG_GRAIN`]
/// base edges (the source value is re-read per segment — charged).
fn min_push_fixpoint<P: Program<Val: PartialOrd>>(
    driver: &mut IterationDriver,
    threads: usize,
    topo: &OverlayTopo,
    prog: &P,
    curr: &NumaAtomicArray<P::Val>,
    frontier: &mut Vec<VId>,
) -> PolymerResult<()> {
    let (sc, identity) = (prog.scatter_cycles(), prog.next_identity());
    driver.run_synchronous(
        usize::MAX,
        frontier,
        |f| !f.is_empty(),
        |sim, _i, f| {
            let items = std::mem::take(f);
            let segs = topo.plan_out_segments(&items, SEG_GRAIN);
            let chunks = weight_balanced_chunks(&segs, |s| s.weight as usize, threads);
            let mut improved: Vec<VId> = Vec::new();
            sim.run_phase_split(
                "inc/push",
                |tid, ctx| {
                    let mut log: Vec<(VId, P::Val)> = Vec::new();
                    for &seg in &segs[chunks[tid].clone()] {
                        let sv = curr.load(ctx, seg.v as usize);
                        if sv == identity {
                            continue;
                        }
                        let deg = topo.raw_live_out_degree(seg.v as usize) as u32;
                        for (t, w) in topo.out_stream_segment(ctx, seg) {
                            log.push((t, prog.scatter(seg.v, sv, w, deg)));
                            ctx.charge_cycles(sc);
                        }
                    }
                    log
                },
                |_tid, ctx, log| {
                    for (t, c) in log {
                        let old = curr.fetch_min(ctx, t as usize, c);
                        if c < old {
                            improved.push(t);
                        }
                    }
                },
            );
            sim.charge_barrier();
            improved.sort_unstable();
            improved.dedup();
            *f = improved;
            Ok(())
        },
    )
}

/// Incremental PageRank over a placed overlay: cold residual run when
/// `warm` is `None`, recompute-and-propagate repair otherwise. Converges to
/// the damped PageRank fixpoint to within `tol` residual mass per vertex
/// (ε-close to a from-scratch run, not bit-identical — float order).
pub fn pagerank_overlay(
    machine: &Machine,
    threads: usize,
    topo: &OverlayTopo,
    damping: f64,
    tol: f64,
    warm: Option<WarmStart<'_, f64>>,
    traced: bool,
) -> PolymerResult<RunResult<f64>> {
    validate_sim_threads(machine, threads)?;
    catch_engine_faults(|| {
        let n = topo.num_vertices();
        let base_score = (1.0 - damping) / n as f64;
        let p = PrParams {
            damping,
            tol,
            base_score,
        };
        // Residual rounds scale with log(1/tol)/log(1/damping), independent
        // of |V|; give small graphs a cap that still fits the geometric tail.
        let mut driver =
            IterationDriver::new(machine, threads, BarrierKind::SenseNuma, traced, n.max(512));
        let alloc = |name, init| {
            machine.alloc_atomic_with::<f64>(name, n, AllocPolicy::Interleaved, move |_| init)
        };
        let (curr, next) = (alloc("data/curr", base_score), alloc("data/next", 0.0));
        let mut delta: Vec<f64> = vec![0.0; n];
        let mut active: Vec<VId> = match warm {
            None => {
                // Every vertex still owes its initial mass downstream.
                delta.fill(base_score);
                (0..n as VId).collect()
            }
            Some(w) => {
                assert_eq!(w.values.len(), n, "warm-start value count mismatch");
                charged_values_restore(driver.sim(), threads, &curr, w.values);
                driver.resume_from_state(w.iterations);
                pr_recompute(&mut driver, threads, topo, &curr, &mut delta, w.batch, p)
            }
        };
        pr_residual_fixpoint(
            &mut driver,
            threads,
            topo,
            &curr,
            &next,
            &mut delta,
            &mut active,
            p,
        )?;
        Ok(driver.finish(curr.snapshot()))
    })
}

#[derive(Clone, Copy)]
struct PrParams {
    damping: f64,
    tol: f64,
    base_score: f64,
}

/// Recompute the PageRank equation for every vertex whose in-edge set or
/// in-neighbour degrees the batch changed; record residuals and return the
/// over-tolerance seeds.
fn pr_recompute(
    driver: &mut IterationDriver,
    threads: usize,
    topo: &OverlayTopo,
    curr: &NumaAtomicArray<f64>,
    delta: &mut [f64],
    batch: &AppliedBatch,
    p: PrParams,
) -> Vec<VId> {
    // Direct in-edge changes: every batch destination. Degree changes:
    // sources of structural inserts/deletes divide their pushed mass by a
    // new live degree, so each of their out-neighbours re-pulls too.
    let mut seeds: Vec<VId> = batch
        .inserts
        .iter()
        .chain(batch.deletes.iter())
        .map(|e| e.dst)
        .collect();
    let mut deg_changed: Vec<VId> = batch
        .inserts
        .iter()
        .chain(batch.deletes.iter())
        .map(|e| e.src)
        .collect();
    deg_changed.sort_unstable();
    deg_changed.dedup();
    if !deg_changed.is_empty() {
        let segs = topo.plan_out_segments(&deg_changed, SEG_GRAIN);
        let chunks = weight_balanced_chunks(&segs, |s| s.weight as usize, threads);
        driver.sim().run_phase_split(
            "inc/seed",
            |tid, ctx| {
                let mut out = Vec::new();
                for &seg in &segs[chunks[tid].clone()] {
                    for (t, _w) in topo.out_stream_segment(ctx, seg) {
                        out.push(t);
                    }
                }
                out
            },
            |_, _, out| seeds.extend(out),
        );
        driver.sim().charge_barrier();
    }
    seeds.sort_unstable();
    seeds.dedup();
    if seeds.is_empty() {
        return seeds;
    }
    let mut residuals: Vec<(VId, f64)> = Vec::with_capacity(seeds.len());
    {
        let chunks = even_chunks(seeds.len(), threads);
        driver.sim().run_phase_split(
            "inc/recompute",
            |tid, ctx| {
                let mut out = Vec::new();
                for &v in &seeds[chunks[tid].clone()] {
                    let mut sum = 0.0;
                    for (u, _w) in topo.in_stream(ctx, v as usize) {
                        let du = topo.live_out_deg.get(ctx, u as usize);
                        if du > 0 {
                            sum += curr.load(ctx, u as usize) / du as f64;
                        }
                    }
                    let new = p.base_score + p.damping * sum;
                    let old = curr.load(ctx, v as usize);
                    out.push((v, new, new - old));
                }
                out
            },
            |_, ctx, out| {
                for (v, new, d) in out {
                    curr.store(ctx, v as usize, new);
                    residuals.push((v, d));
                }
            },
        );
        driver.sim().charge_barrier();
    }
    let mut frontier = Vec::new();
    for (v, d) in residuals {
        delta[v as usize] = d;
        if d.abs() > p.tol {
            frontier.push(v);
        }
    }
    frontier.sort_unstable();
    frontier
}

/// Residual propagation rounds: each active vertex pushes
/// `damping·delta/live_deg` along its merged out-stream (atomic adds into
/// `next`); touched targets fold the received mass into their score, adopt
/// it as their new residual, and stay active while above `tol`.
#[allow(clippy::too_many_arguments)]
fn pr_residual_fixpoint(
    driver: &mut IterationDriver,
    threads: usize,
    topo: &OverlayTopo,
    curr: &NumaAtomicArray<f64>,
    next: &NumaAtomicArray<f64>,
    delta: &mut [f64],
    frontier: &mut Vec<VId>,
    p: PrParams,
) -> PolymerResult<()> {
    driver.run_synchronous(
        usize::MAX,
        frontier,
        |f| !f.is_empty(),
        |sim, _i, f| {
            let items = std::mem::take(f);
            let segs = topo.plan_out_segments(&items, SEG_GRAIN);
            let chunks = weight_balanced_chunks(&segs, |s| s.weight as usize, threads);
            let mut touched: Vec<VId> = Vec::new();
            {
                let delta_r: &[f64] = delta;
                sim.run_phase_split(
                    "inc/push",
                    |tid, ctx| {
                        let mut log: Vec<(VId, f64)> = Vec::new();
                        for &seg in &segs[chunks[tid].clone()] {
                            let u = seg.v;
                            let du = topo.live_out_deg.get(ctx, u as usize);
                            if du == 0 {
                                continue;
                            }
                            let c = p.damping * delta_r[u as usize] / du as f64;
                            for (t, _w) in topo.out_stream_segment(ctx, seg) {
                                log.push((t, c));
                                ctx.charge_cycles(6.0);
                            }
                        }
                        log
                    },
                    |_tid, ctx, log| {
                        for (t, c) in log {
                            next.fetch_add(ctx, t as usize, c);
                            touched.push(t);
                        }
                    },
                );
            }
            sim.charge_barrier();
            touched.sort_unstable();
            touched.dedup();
            let chunks = even_chunks(touched.len(), threads);
            let mut alive: Vec<VId> = Vec::new();
            sim.run_phase_split(
                "inc/apply",
                |tid, ctx| {
                    let mut out = Vec::new();
                    for &t in &touched[chunks[tid].clone()] {
                        let acc = next.load(ctx, t as usize);
                        next.store(ctx, t as usize, 0.0);
                        let x = curr.load(ctx, t as usize);
                        curr.store(ctx, t as usize, x + acc);
                        out.push((t, acc));
                    }
                    out
                },
                |_, _, out| {
                    for (t, acc) in out {
                        delta[t as usize] = acc;
                        if acc.abs() > p.tol {
                            alive.push(t);
                        }
                    }
                },
            );
            sim.charge_barrier();
            *f = alive;
            Ok(())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::max_rel_error;
    use polymer_graph::{gen, DeltaBatch, EdgeList, MutableGraph};
    use polymer_numa::MachineSpec;

    const THREADS: usize = 4;

    fn build_topo(machine: &Machine, mg: &MutableGraph, with_weights: bool) -> OverlayTopo {
        OverlayTopo::build(machine, mg, with_weights, |_| AllocPolicy::Interleaved)
    }

    #[test]
    fn cold_bfs_matches_reference() {
        let el = gen::uniform(200, 1200, 7);
        let mg = MutableGraph::from_edge_list(el).with_compaction_fraction(f64::INFINITY);
        let machine = Machine::new(MachineSpec::test2());
        let topo = build_topo(&machine, &mg, false);
        let run = bfs_overlay(&machine, THREADS, &topo, 0, None, false).unwrap();
        let (oracle, _) = crate::run_reference(&mg, &crate::Bfs { source: 0 });
        assert_eq!(run.values, oracle);
    }

    #[test]
    fn warm_bfs_and_sssp_match_scratch_after_batch() {
        let el = gen::uniform(300, 2000, 11);
        let mut mg = MutableGraph::from_edge_list(el).with_compaction_fraction(f64::INFINITY);
        let machine = Machine::new(MachineSpec::test2());

        let topo = build_topo(&machine, &mg, true);
        let prior_bfs = bfs_overlay(&machine, THREADS, &topo, 0, None, false).unwrap();
        let prior_sssp = sssp_overlay(&machine, THREADS, &topo, 0, None, false).unwrap();

        let applied = mg.apply(&gen::mixed_batch(&mg, 3, 24, false)).unwrap();
        let topo = build_topo(&machine, &mg, true);

        let warm = WarmStart::from_result(&prior_bfs, &applied);
        let run = bfs_overlay(&machine, THREADS, &topo, 0, Some(warm), false).unwrap();
        let (oracle, _) = crate::run_reference(&mg, &crate::Bfs { source: 0 });
        assert_eq!(run.values, oracle, "incremental BFS must be oracle-exact");
        assert!(run.iterations >= prior_bfs.iterations);

        let warm = WarmStart::from_result(&prior_sssp, &applied);
        let run = sssp_overlay(&machine, THREADS, &topo, 0, Some(warm), false).unwrap();
        let (oracle, _) = crate::run_reference(&mg, &crate::Sssp::new(0));
        assert_eq!(run.values, oracle, "incremental SSSP must be oracle-exact");
    }

    #[test]
    fn warm_cc_insert_only_takes_union_find_fast_path() {
        // Two chains, symmetrized; an insert bridges them.
        let mut el = EdgeList::new(8);
        for (s, d) in [(0u32, 1u32), (1, 2), (4, 5), (5, 6), (6, 7)] {
            el.edges.push(polymer_graph::Edge::weighted(s, d, 1));
            el.edges.push(polymer_graph::Edge::weighted(d, s, 1));
        }
        let mut mg = MutableGraph::from_edge_list(el).with_compaction_fraction(f64::INFINITY);
        let machine = Machine::new(MachineSpec::test2());
        let topo = build_topo(&machine, &mg, false);
        let prior = cc_overlay(&machine, THREADS, &topo, None, false).unwrap();

        let mut b = DeltaBatch::new();
        b.insert(2, 4, 1).insert(4, 2, 1);
        let applied = mg.apply(&b).unwrap();
        let topo = build_topo(&machine, &mg, false);
        let warm = WarmStart::from_result(&prior, &applied);
        let run = cc_overlay(&machine, THREADS, &topo, Some(warm), false).unwrap();
        let (oracle, _) = crate::run_reference(&mg, &crate::ConnectedComponents);
        assert_eq!(run.values, oracle);
        // Union-find fast path: relabel only, zero repair iterations.
        assert_eq!(run.iterations, prior.iterations);
    }

    #[test]
    fn warm_cc_with_deletes_answers_cold() {
        let mut el = gen::uniform(150, 500, 13);
        // Symmetrize the base for CC.
        let rev: Vec<polymer_graph::Edge> = el.edges.iter().map(|e| e.reversed()).collect();
        el.edges.extend(rev);
        let mut mg = MutableGraph::from_edge_list(el).with_compaction_fraction(f64::INFINITY);
        let machine = Machine::new(MachineSpec::test2());
        let topo = build_topo(&machine, &mg, false);
        let prior = cc_overlay(&machine, THREADS, &topo, None, false).unwrap();

        // Delete a handful of live symmetric pairs, insert one bridge.
        let el = mg.snapshot_edge_list();
        let mut b = DeltaBatch::new();
        for e in el.edges.iter().step_by(37).take(6) {
            b.delete(e.src, e.dst).delete(e.dst, e.src);
        }
        b.insert(3, 120, 1);
        b.insert(120, 3, 1);
        let applied = mg.apply(&b).unwrap();
        let topo = build_topo(&machine, &mg, false);
        let warm = WarmStart::from_result(&prior, &applied);
        let run = cc_overlay(&machine, THREADS, &topo, Some(warm), false).unwrap();
        let (oracle, _) = crate::run_reference(&mg, &crate::ConnectedComponents);
        assert_eq!(run.values, oracle);
        // A structural delete may split a component: no repair, the cold run.
        let cold = cc_overlay(&machine, THREADS, &topo, None, false).unwrap();
        assert_eq!(run.iterations, cold.iterations);
        assert_eq!(run.seconds(), cold.seconds());
    }

    #[test]
    fn warm_pagerank_is_close_to_scratch() {
        let el = gen::uniform(200, 1500, 17);
        let mut mg = MutableGraph::from_edge_list(el).with_compaction_fraction(f64::INFINITY);
        let machine = Machine::new(MachineSpec::test2());
        let topo = build_topo(&machine, &mg, false);
        let prior =
            pagerank_overlay(&machine, THREADS, &topo, 0.85, DEFAULT_PR_TOL, None, false).unwrap();

        let applied = mg.apply(&gen::mixed_batch(&mg, 5, 18, false)).unwrap();
        let topo = build_topo(&machine, &mg, false);
        let warm = WarmStart::from_result(&prior, &applied);
        let inc = pagerank_overlay(
            &machine,
            THREADS,
            &topo,
            0.85,
            DEFAULT_PR_TOL,
            Some(warm),
            false,
        )
        .unwrap();
        let scratch =
            pagerank_overlay(&machine, THREADS, &topo, 0.85, DEFAULT_PR_TOL, None, false).unwrap();
        assert!(
            max_rel_error(&inc.values, &scratch.values) < 1e-6,
            "incremental PageRank diverged from scratch: {}",
            max_rel_error(&inc.values, &scratch.values)
        );
    }

    #[test]
    fn small_batch_repair_is_cheaper_than_scratch() {
        let el = gen::rmat(11, 16_000, (0.57, 0.19, 0.19), 42);
        let mut mg = MutableGraph::from_edge_list(el).with_compaction_fraction(f64::INFINITY);
        let machine = Machine::new(MachineSpec::test2());
        let topo = build_topo(&machine, &mg, false);
        let prior = bfs_overlay(&machine, THREADS, &topo, 0, None, false).unwrap();

        let mut b = DeltaBatch::new();
        b.insert(1, 2, 5).insert(100, 200, 3);
        let applied = mg.apply(&b).unwrap();
        let topo = build_topo(&machine, &mg, false);
        let warm = WarmStart::from_result(&prior, &applied);
        let inc = bfs_overlay(&machine, THREADS, &topo, 0, Some(warm), false).unwrap();
        let scratch = bfs_overlay(&machine, THREADS, &topo, 0, None, false).unwrap();
        assert_eq!(inc.values, scratch.values);
        assert!(
            inc.clock.elapsed_us() < scratch.clock.elapsed_us() / 2.0,
            "tiny-batch repair ({:.1}µs) should be far cheaper than scratch ({:.1}µs)",
            inc.clock.elapsed_us(),
            scratch.clock.elapsed_us()
        );
    }

    #[test]
    fn empty_batch_repair_is_a_cheap_noop() {
        let el = gen::uniform(100, 600, 23);
        let mut mg = MutableGraph::from_edge_list(el).with_compaction_fraction(f64::INFINITY);
        let machine = Machine::new(MachineSpec::test2());
        let topo = build_topo(&machine, &mg, true);
        let prior = sssp_overlay(&machine, THREADS, &topo, 0, None, false).unwrap();
        let applied = mg.apply(&DeltaBatch::new()).unwrap();
        assert!([&applied.inserts, &applied.deletes, &applied.reweighted]
            .iter()
            .all(|l| l.is_empty()));
        let warm = WarmStart::from_result(&prior, &applied);
        let run = sssp_overlay(&machine, THREADS, &topo, 0, Some(warm), false).unwrap();
        assert_eq!(run.values, prior.values);
        assert_eq!(run.iterations, prior.iterations, "no repair rounds");
    }
}
