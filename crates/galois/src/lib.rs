//! # polymer-galois — the Galois-like asynchronous baseline
//!
//! A reimplementation of the Galois strategy (Nguyen, Lenharth & Pingali,
//! SOSP'13) the paper compares against, over the simulated NUMA machine:
//!
//! * **Asynchronous data-driven scheduling** for monotone (min-combining)
//!   programs — BFS, SSSP, label propagation: a chunked, priority-ordered
//!   worklist (OBIM-style; SSSP supplies delta-stepping bucket priorities
//!   via [`polymer_api::Program::priority_of`]) relaxes vertices against the
//!   single `curr` array with no per-iteration barrier. Monotone fixed
//!   points are execution-order independent, so results equal the
//!   synchronous engines'.
//! * **Union-find connected components** (the paper's Table 3 marks Galois
//!   CC as a different, topology-driven algorithm, its ref. 39): union-by-minimum
//!   with path compression over an interleaved parent array; near-linear
//!   work regardless of diameter — the source of Galois's 50× CC win on
//!   roadUS.
//! * **Synchronous pull-based execution** for accumulating programs (PR,
//!   SpMV, BP), as the paper notes Galois chooses pull-based PageRank "to
//!   reduce synchronization overhead".
//! * **NUMA-oblivious layout**: everything interleaved; Galois's optimized
//!   runtime is modelled by its leaner access sequence (no atomic
//!   scatter-writes in pull mode, no per-iteration state reallocation), not
//!   by tweaking the cost model.

#![deny(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::OnceLock;

use polymer_api::Combine;
use polymer_api::{
    charged_values_restore, charged_values_snapshot, check_divergence, even_chunks, init_values,
    Checkpoint, Engine, FrontierInit, IterationDriver, Program, RecoverySession, RunResult,
    TopoArrays,
};
use polymer_faults::PolymerResult;
use polymer_graph::{Graph, VId};
use polymer_numa::{AccessCtx, AllocPolicy, BarrierKind, Capture, Machine};
use polymer_sync::{DenseBitmap, FrontierSnapshot, ThreadQueues};

/// Work chunk size per thread per scheduling round (Galois's chunked
/// worklists default to similar magnitudes).
const CHUNK: usize = 64;

/// The Galois-like engine.
#[derive(Clone, Debug, Default)]
pub struct GaloisEngine;

impl GaloisEngine {
    /// A new engine.
    pub fn new() -> Self {
        GaloisEngine
    }
}

impl Engine for GaloisEngine {
    fn run_simulated<P: Program>(
        &self,
        machine: &Machine,
        threads: usize,
        g: &Graph,
        prog: &P,
        traced: bool,
        recovery: &RecoverySession<P::Val>,
    ) -> PolymerResult<RunResult<P::Val>> {
        if prog.name() == "CC" {
            return run_union_find(machine, threads, g, prog, traced, recovery);
        }
        match prog.combine() {
            Combine::Min => run_async(machine, threads, g, prog, traced, recovery),
            Combine::Add => run_sync_pull(machine, threads, g, prog, traced, recovery),
        }
    }
}

/// Asynchronous priority-ordered relaxation for monotone programs.
fn run_async<P: Program>(
    machine: &Machine,
    threads: usize,
    g: &Graph,
    prog: &P,
    traced: bool,
    recovery: &RecoverySession<P::Val>,
) -> PolymerResult<RunResult<P::Val>> {
    let sc = prog.scatter_cycles();
    let topo = TopoArrays::build(machine, g, prog.uses_weights(), |_| {
        AllocPolicy::Interleaved
    });
    let (curr, _next) = init_values(
        machine,
        g,
        prog,
        AllocPolicy::Interleaved,
        AllocPolicy::Interleaved,
    );
    let mut driver = IterationDriver::new(machine, threads, BarrierKind::Hierarchical, traced, 0);

    // OBIM-style bucketed worklist, deterministic: each round drains a chunk
    // per thread from the lowest-priority bucket.
    let mut buckets: BTreeMap<u64, Vec<VId>> = BTreeMap::new();
    match recovery.resume() {
        Some(ck) => {
            // Restore the checkpointed vertex state through a charged
            // "restore" sweep, then rebuild the worklist from the
            // snapshot's (vertex, priority) pairs — insertion order within
            // a bucket reproduces the checkpointed drain order.
            charged_values_restore(driver.sim(), threads, &curr, &ck.values);
            driver.resume_at(ck.iteration);
            match &ck.frontier.tags {
                Some(tags) => {
                    for (&v, &p) in ck.frontier.vertices.iter().zip(tags.iter()) {
                        buckets.entry(p).or_default().push(v);
                    }
                }
                None => {
                    for &v in &ck.frontier.vertices {
                        buckets.entry(0).or_default().push(v);
                    }
                }
            }
        }
        None => match prog.initial_frontier() {
            FrontierInit::All => {
                buckets.insert(0, (0..g.num_vertices() as VId).collect());
            }
            // The source is validated by `validate_run_config`.
            FrontierInit::Single(s) => {
                buckets.insert(0, vec![s]);
            }
        },
    }
    let queues = ThreadQueues::new(machine, threads);

    while let Some((&prio, _)) = buckets.iter().next() {
        let mut items = buckets.remove(&prio).unwrap();
        // Drain the bucket chunk-by-chunk.
        while !items.is_empty() {
            let take = (threads * CHUNK).min(items.len());
            let batch: Vec<VId> = items.drain(..take).collect();
            let chunks = even_chunks(batch.len(), threads);
            driver.sim().run_phase("async-relax", |tid, ctx| {
                for &s in &batch[chunks[tid].clone()] {
                    let si = s as usize;
                    // Vertex-indexed source value and offset pair are random
                    // for a worklist batch — scalar path.
                    let sv = curr.load(ctx, si);
                    let lo = topo.out_off.get(ctx, si) as usize;
                    let hi = topo.out_off.get(ctx, si + 1) as usize;
                    let deg = (hi - lo) as u32;
                    // Every out-edge of a relaxed vertex is consumed, so the
                    // edge-aligned arrays stream in bulk.
                    let dst_it = topo.out_dst.iter_seq(ctx, lo..hi);
                    let mut w_it = topo.out_w.as_ref().map(|ws| ws.iter_seq(ctx, lo..hi));
                    for t in dst_it {
                        let w = match &mut w_it {
                            Some(it) => it.next().expect("weight stream aligned"),
                            None => 1,
                        };
                        let t = t as usize;
                        let cand = prog.scatter(s, sv, w, deg);
                        ctx.charge_cycles(sc);
                        // Destination-indexed relaxation — random, scalar.
                        let old = curr.load(ctx, t);
                        let (val, alive) = prog.apply(t as VId, cand, old);
                        if alive {
                            curr.store(ctx, t, val);
                            queues.push(ctx, t as VId);
                        }
                    }
                }
            });
            // Route newly activated vertices into their priority buckets.
            for t in queues.drain_merged() {
                let p = prog.priority_of(curr.raw_load(t as usize));
                buckets.entry(p).or_default().push(t);
            }
            driver.advance_round();
        }
        // Checkpoint at bucket-drain boundaries only: there the pending
        // state is exactly `buckets`, so a resume reconstructs the worklist
        // (and every subsequent chunk boundary) bit-exactly; a mid-bucket
        // snapshot could not keep the partially-drained bucket separate
        // from same-priority re-insertions.
        if recovery.should_checkpoint(driver.iterations()) && !buckets.is_empty() {
            let values = charged_values_snapshot(driver.sim(), threads, &curr);
            let mut verts: Vec<VId> = Vec::new();
            let mut tags: Vec<u64> = Vec::new();
            for (&p, vs) in buckets.iter() {
                for &v in vs {
                    verts.push(v);
                    tags.push(p);
                }
            }
            let degree = verts.iter().map(|&v| g.out_degree(v) as u64).sum();
            recovery.record(Checkpoint {
                iteration: driver.iterations(),
                values,
                frontier: FrontierSnapshot::sparse(verts, degree).with_tags(tags),
            });
        }
    }

    Ok(driver.finish(curr.snapshot()))
}

/// Synchronous pull-based execution for accumulating programs (PR/SpMV/BP).
fn run_sync_pull<P: Program>(
    machine: &Machine,
    threads: usize,
    g: &Graph,
    prog: &P,
    traced: bool,
    recovery: &RecoverySession<P::Val>,
) -> PolymerResult<RunResult<P::Val>> {
    let n = g.num_vertices();
    let identity = prog.next_identity();
    let sc = prog.scatter_cycles();
    let topo = TopoArrays::build(machine, g, prog.uses_weights(), |_| {
        AllocPolicy::Interleaved
    });
    let (curr, next) = init_values(
        machine,
        g,
        prog,
        AllocPolicy::Interleaved,
        AllocPolicy::Interleaved,
    );
    let mut driver = IterationDriver::new(machine, threads, BarrierKind::Hierarchical, traced, n);

    // Persistent state bitmaps (Galois reuses memory between iterations).
    let state = DenseBitmap::new(machine, "stat/curr", n, AllocPolicy::Interleaved);
    let next_state = DenseBitmap::new(machine, "stat/next", n, AllocPolicy::Interleaved);
    let mut active = match recovery.resume() {
        Some(ck) => {
            // Restore the checkpointed vertex state through a charged
            // "restore" sweep and rebuild the active-state bitmap.
            charged_values_restore(driver.sim(), threads, &curr, &ck.values);
            driver.resume_at(ck.iteration);
            for &v in &ck.frontier.vertices {
                state.set_unaccounted(v as usize);
            }
            ck.frontier.vertices.len() as u64
        }
        None => {
            match prog.initial_frontier() {
                FrontierInit::All => {
                    for v in 0..n {
                        state.set_unaccounted(v);
                    }
                }
                FrontierInit::Single(s) => state.set_unaccounted(s as usize),
            }
            match prog.initial_frontier() {
                FrontierInit::All => n as u64,
                FrontierInit::Single(_) => 1,
            }
        }
    };

    // Chunk vertices with balanced in-edge counts — Galois's work-stealing
    // scheduler equalizes edge work, which even vertex chunks would not on
    // skewed graphs.
    let in_degrees: Vec<u32> = (0..n).map(|v| g.in_degree(v as VId) as u32).collect();
    let chunks = polymer_graph::edge_balanced_ranges(&in_degrees, threads);
    let apply_chunks = even_chunks(n, threads);
    // Host-side per-iteration "received an update" flags. Atomic so shard
    // threads can share the vector; per-thread chunks are disjoint vertex
    // ranges, so the relaxed stores never actually contend. The flags are
    // host bookkeeping — never charged — so the switch from plain bools has
    // zero accounting effect.
    let updated_host: Vec<std::sync::atomic::AtomicBool> = (0..n)
        .map(|_| std::sync::atomic::AtomicBool::new(false))
        .collect();
    let updated_host = &updated_host;
    // Each tid's capture of its first gated pull's topology walk.
    let pull_memo: Vec<OnceLock<Capture>> = (0..threads).map(|_| OnceLock::new()).collect();
    use std::sync::atomic::Ordering::Relaxed;
    driver.run_recoverable(
        prog.max_iters(),
        &mut active,
        recovery,
        |a| *a > 0,
        |sim, iters, active| {
            let mut alive_count = vec![0u64; threads];
            // Topology-driven shortcut: when every vertex is active, per-edge
            // state checks are semantically no-ops and Galois skips them.
            let all_active = *active == n as u64;
            // Pull targets are chunk-owned and reads (`curr`, the state
            // bitmap, topology) see only pre-phase state — shard-pure.
            sim.run_phase_split(
                "pull",
                |tid, ctx| {
                    if !all_active {
                        // State-gated: the topology's walk is the same in
                        // every gated pull, so it is charged once per run and
                        // replayed after.
                        let roles = [
                            topo.in_off.alloc_ref(),
                            topo.in_src.alloc_ref(),
                            state.alloc_ref(),
                        ];
                        let ts = chunks[tid].clone();
                        let hit = |ctx: &mut AccessCtx, t, acc| {
                            next.store(ctx, t, acc);
                            updated_host[t].store(true, Relaxed);
                        };
                        ctx.replay_walk(&pull_memo[tid], &roles, |ctx, charged| {
                            if charged {
                                topo.gated_pull::<true, P>(ctx, prog, &state, &curr, ts, hit);
                            } else {
                                topo.gated_pull::<false, P>(ctx, prog, &state, &curr, ts, hit);
                            }
                        });
                        return;
                    }
                    for t in chunks[tid].clone() {
                        // Offset pairs re-read the previous vertex's end — they
                        // stay on the scalar path to keep that access pattern.
                        let lo = topo.in_off.get(ctx, t) as usize;
                        let hi = topo.in_off.get(ctx, t + 1) as usize;
                        // Dense sweep: every in-edge is consumed, so the
                        // edge-aligned arrays stream in bulk.
                        let src_it = topo.in_src.iter_seq(ctx, lo..hi);
                        let deg_it = topo.in_src_deg.iter_seq(ctx, lo..hi);
                        let mut w_it = topo.in_w.as_ref().map(|ws| ws.iter_seq(ctx, lo..hi));
                        let mut acc = identity;
                        let mut any = false;
                        for (s, deg) in src_it.zip(deg_it) {
                            let w = match &mut w_it {
                                Some(it) => it.next().expect("weight stream aligned"),
                                None => 1,
                            };
                            // Source values are vertex-indexed — random,
                            // scalar path.
                            let sv = curr.load(ctx, s as usize);
                            acc = prog.combine().fold(acc, prog.scatter(s, sv, w, deg));
                            ctx.charge_cycles(sc);
                            any = true;
                        }
                        if any {
                            next.store(ctx, t, acc);
                            updated_host[t].store(true, Relaxed);
                        }
                    }
                },
                |_tid, _ctx, ()| {},
            );
            sim.charge_barrier();

            {
                let alive_count = &mut alive_count;
                // Apply chunks are disjoint vertex ranges; `next_state.set`
                // may share a bitmap word across shards but the word update
                // is atomic and order-independent — shard-pure. It stays a
                // host `fetch_or` (not `set_unshared`) because a chunk
                // boundary can split a word between two writers.
                sim.run_phase_split(
                    "apply",
                    |tid, ctx| {
                        let mut cnt = 0u64;
                        for t in apply_chunks[tid].clone() {
                            if !updated_host[t].load(Relaxed) {
                                continue;
                            }
                            updated_host[t].store(false, Relaxed);
                            let acc = next.load(ctx, t);
                            let cv = curr.load(ctx, t);
                            let (val, alive) = prog.apply(t as VId, acc, cv);
                            curr.store(ctx, t, val);
                            next.store(ctx, t, identity);
                            if alive {
                                next_state.set(ctx, t);
                                cnt += 1;
                            }
                        }
                        cnt
                    },
                    |tid, _ctx, cnt| alive_count[tid] = cnt,
                );
            }
            sim.charge_barrier();

            *active = alive_count.iter().sum();
            // Swap/clear states (buffer reuse, unaccounted maintenance).
            for w in 0..state.num_words() {
                state.raw_store_word(w, next_state.raw_word(w));
                next_state.raw_store_word(w, 0);
            }
            check_divergence(&curr, iters)?;
            Ok(())
        },
        |sim, _active| {
            let values = charged_values_snapshot(sim, threads, &curr);
            // The persistent state bitmap is the engine's whole frontier;
            // snapshot it as a dense vertex list (ascending scan order).
            let verts: Vec<VId> = state.iter_set().map(|v| v as VId).collect();
            let degree = verts.iter().map(|&v| g.out_degree(v) as u64).sum();
            (values, FrontierSnapshot::dense(verts, degree))
        },
    )?;

    Ok(driver.finish(curr.snapshot()))
}

/// Union-find connected components (Galois's topology-driven algorithm).
/// Union-by-minimum keeps every root the smallest id of its set, so the
/// final labels equal label propagation's fixed point exactly. Each vertex
/// is emitted as `prog.init(root)`: CC's initial label of a vertex is its
/// own id, so that is the root's label.
fn run_union_find<P: Program>(
    machine: &Machine,
    threads: usize,
    g: &Graph,
    prog: &P,
    traced: bool,
    recovery: &RecoverySession<P::Val>,
) -> PolymerResult<RunResult<P::Val>> {
    let n = g.num_vertices();
    // Union-find is a single indivisible round: a checkpoint exists only
    // once the answer does, so a resume replays nothing and returns the
    // checkpointed labels directly.
    if let Some(ck) = recovery.resume() {
        let mut driver =
            IterationDriver::new(machine, threads, BarrierKind::Hierarchical, traced, 0);
        driver.resume_at(ck.iteration);
        return Ok(driver.finish(ck.values.clone()));
    }
    let parent =
        machine.alloc_atomic_with::<u32>("data/parent", n, AllocPolicy::Interleaved, |v| v as u32);
    // Edge arrays, interleaved (Galois reads the CSR directly).
    let dst = machine.alloc_array_with(
        "topo/out_dst",
        g.num_edges(),
        AllocPolicy::Interleaved,
        |i| g.out_targets()[i],
    );
    let off = machine.alloc_array_with("topo/out_off", n + 1, AllocPolicy::Interleaved, |i| {
        g.out_offsets()[i] as u64
    });

    let mut driver = IterationDriver::new(machine, threads, BarrierKind::Hierarchical, traced, 0);

    // Accounted find with path compression. Executed sequentially by the
    // simulator, so plain load/store is race-free; a real deployment would
    // use the standard CAS loop.
    fn find(
        parent: &polymer_numa::NumaAtomicArray<u32>,
        ctx: &mut polymer_numa::AccessCtx,
        mut x: u32,
    ) -> u32 {
        loop {
            let p = parent.load(ctx, x as usize);
            if p == x {
                return x;
            }
            let gp = parent.load(ctx, p as usize);
            if gp != p {
                // Path halving.
                parent.store(ctx, x as usize, gp);
            }
            x = gp;
        }
    }

    let chunks = even_chunks(n, threads);
    driver.sim().run_phase("union-find", |tid, ctx| {
        for v in chunks[tid].clone() {
            // Offset pairs re-read the previous vertex's end — scalar path.
            let lo = off.get(ctx, v) as usize;
            let hi = off.get(ctx, v + 1) as usize;
            // The CSR targets are scanned unconditionally — bulk stream.
            // The `find` chains below walk the parent array by id (random),
            // so they stay scalar.
            for t in dst.iter_seq(ctx, lo..hi) {
                // Union by minimum root.
                let mut a = find(&parent, ctx, v as u32);
                let mut b = find(&parent, ctx, t);
                while a != b {
                    if a > b {
                        std::mem::swap(&mut a, &mut b);
                    }
                    // Attach the larger root below the smaller.
                    parent.store(ctx, b as usize, a);
                    a = find(&parent, ctx, a);
                    b = find(&parent, ctx, b);
                }
            }
        }
    });
    driver.sim().charge_barrier();

    // Flatten: every vertex's label is its root.
    let mut labels = vec![0u32; n];
    {
        let labels = &mut labels;
        driver.sim().run_phase("flatten", |tid, ctx| {
            for v in chunks[tid].clone() {
                labels[v] = find(&parent, ctx, v as u32);
            }
        });
    }
    driver.advance_round();

    let values: Vec<P::Val> = labels.into_iter().map(|l| prog.init(l)).collect();
    if recovery.should_checkpoint(driver.iterations()) {
        // Charge the checkpoint sweep against the engine's resident state
        // (the parent array); the recorded values are the final labels.
        let _ = charged_values_snapshot(driver.sim(), threads, &parent);
        recovery.record(Checkpoint {
            iteration: driver.iterations(),
            values: values.clone(),
            frontier: FrontierSnapshot::default(),
        });
    }
    Ok(driver.finish(values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymer_algos::{run_reference, Bfs, ConnectedComponents, PageRank, SpMV, Sssp};
    use polymer_graph::gen;
    use polymer_numa::MachineSpec;

    fn check_exact<P: Program>(g: &Graph, prog: &P)
    where
        P::Val: Eq,
    {
        let m = Machine::new(MachineSpec::test2());
        let got = GaloisEngine::new().run(&m, 4, g, prog);
        let (want, _) = run_reference(g, prog);
        assert_eq!(got.values, want);
    }

    #[test]
    fn bfs_matches_reference_async() {
        let el = gen::rmat(10, 8_000, gen::RMAT_GRAPH500, 11);
        let g = Graph::from_edges(&el);
        check_exact(&g, &Bfs::new(0));
    }

    #[test]
    fn sssp_matches_reference_with_delta_stepping() {
        let el = gen::road_grid(16, 16, 0.6, 3);
        let g = Graph::from_edges(&el);
        check_exact(&g, &Sssp::new(0));
    }

    #[test]
    fn cc_union_find_matches_reference() {
        let mut el = gen::uniform(300, 500, 7);
        el.symmetrize();
        let g = Graph::from_edges(&el);
        check_exact(&g, &ConnectedComponents::new());
    }

    #[test]
    fn pagerank_close_to_reference() {
        let el = gen::rmat(9, 4_000, gen::RMAT_GRAPH500, 5);
        let g = Graph::from_edges(&el);
        let prog = PageRank::new(g.num_vertices());
        let m = Machine::new(MachineSpec::test2());
        let got = GaloisEngine::new().run(&m, 4, &g, &prog);
        let (want, _) = run_reference(&g, &prog);
        let err = polymer_algos::reference::max_rel_error(&got.values, &want);
        assert!(err < 1e-9, "max rel error {err}");
    }

    #[test]
    fn spmv_close_to_reference() {
        let el = gen::uniform(200, 2_000, 9);
        let g = Graph::from_edges(&el);
        let prog = SpMV::new();
        let m = Machine::new(MachineSpec::test2());
        let got = GaloisEngine::new().run(&m, 2, &g, &prog);
        let (want, _) = run_reference(&g, &prog);
        let err = polymer_algos::reference::max_rel_error(&got.values, &want);
        assert!(err < 1e-9, "max rel error {err}");
    }

    #[test]
    fn union_find_cc_work_is_near_linear() {
        // Union-find's cost must be O(m·α) — a small constant number of
        // accesses per edge — independent of the graph's diameter. (The
        // paper's Table 3 contrast is against the *synchronous* label
        // propagation of Polymer/Ligra/X-Stream, which pays a full pass per
        // diameter level; the harness reproduces that comparison.)
        let mut el = gen::road_grid(32, 32, 0.6, 1);
        el.symmetrize();
        let g = Graph::from_edges(&el);
        let prog = ConnectedComponents::new();
        let m1 = Machine::new(MachineSpec::test2());
        let uf = GaloisEngine::new().run(&m1, 4, &g, &prog);
        let total = uf.total_cost().count_local + uf.total_cost().count_remote;
        assert!(
            (total as usize) < 12 * g.num_edges() + 8 * g.num_vertices(),
            "union-find used {total} accesses for {} edges",
            g.num_edges()
        );
        assert_eq!(uf.iterations, 1);
    }
}
