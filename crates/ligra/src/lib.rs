//! # polymer-ligra — the Ligra-like vertex-centric baseline
//!
//! A faithful reimplementation of Ligra's engine strategy (Shun & Blelloch,
//! PPoPP'13) over the simulated NUMA machine, reproducing exactly the
//! execution flow the paper's Figure 2 analyzes:
//!
//! * **Hybrid direction switching** (Beamer): sparse frontiers run *push*
//!   mode (iterate active vertices, atomically scatter along out-edges);
//!   dense frontiers run *pull* mode (iterate all vertices, gather from
//!   active in-neighbors). The switch uses Ligra's `|active| + Σdeg >
//!   |E|/20` rule.
//! * **Adaptive frontier representation**: sparse vertex queues ↔ dense
//!   bitmaps, switched with the same threshold.
//! * **NUMA-oblivious layout**: topology and application data end up
//!   *interleaved* across nodes (the first-touch mismatch of the paper's
//!   Section 3.1) and per-iteration runtime states are *centrally*
//!   allocated by the main thread — so push mode issues random global
//!   writes (`RAND|W|G`) and pull mode random global reads (`RAND|R|G`),
//!   precisely the patterns Polymer eliminates.

#![deny(unsafe_code)]

use polymer_api::{
    charged_values_restore, charged_values_snapshot, check_divergence, degree_balanced_chunks,
    even_chunks, init_values, serial_combine, Engine, FrontierInit, IterationDriver, Program,
    RecoverySession, RunResult, TopoArrays,
};
use std::cell::OnceCell;
use std::ops::Range;
use std::sync::OnceLock;

use polymer_faults::PolymerResult;
use polymer_graph::{Graph, VId};
use polymer_numa::{AccessCtx, AllocPolicy, BarrierKind, Capture, Machine};
use polymer_sync::{should_densify, DenseBitmap, Frontier, ThreadQueues};

/// The Ligra-like engine. Construct with [`LigraEngine::new`].
#[derive(Clone, Debug, Default)]
pub struct LigraEngine {
    /// Force push mode (disable the hybrid switch); for ablations. Simulated
    /// runs only: [`polymer_api::Backend::RealThreads`] pushes on every
    /// iteration whatever this says.
    pub force_push: bool,
}

impl LigraEngine {
    /// An engine with the standard hybrid push/pull switching.
    pub fn new() -> Self {
        LigraEngine { force_push: false }
    }
}

impl Engine for LigraEngine {
    fn run_simulated<P: Program>(
        &self,
        machine: &Machine,
        threads: usize,
        g: &Graph,
        prog: &P,
        traced: bool,
        recovery: &RecoverySession<P::Val>,
    ) -> PolymerResult<RunResult<P::Val>> {
        let n = g.num_vertices();
        let m = g.num_edges();
        let identity = prog.next_identity();
        let sc = prog.scatter_cycles();

        // Construction stage: interleaved layout everywhere (the paper's
        // observed outcome of first-touch with parallel constructors).
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

        let mut driver =
            IterationDriver::new(machine, threads, BarrierKind::Hierarchical, traced, n);
        let mut frontier = match recovery.resume() {
            Some(ck) => {
                // Restore the checkpointed vertex state through a charged
                // "restore" sweep and continue the global iteration count.
                charged_values_restore(driver.sim(), threads, &curr, &ck.values);
                driver.resume_at(ck.iteration);
                Frontier::from_snapshot(
                    machine,
                    "stat/frontier",
                    n,
                    AllocPolicy::Centralized,
                    &ck.frontier,
                )
            }
            None => match prog.initial_frontier() {
                FrontierInit::All => Frontier::all(
                    machine,
                    "stat/frontier",
                    n,
                    AllocPolicy::Centralized,
                    m as u64,
                ),
                FrontierInit::Single(s) => Frontier::sparse(vec![s]),
            },
        };

        let queues = ThreadQueues::new(machine, threads);
        // Per-iteration runtime states are *centrally* allocated by the main
        // thread (Section 3.1); so is the dense frontier store.
        let make_dense = |items: &[u32]| {
            let bits = DenseBitmap::new(machine, "stat/frontier", n, AllocPolicy::Centralized);
            for &v in items {
                bits.set_unaccounted(v as usize);
            }
            bits
        };
        // Pull chunks are balanced by in-edge counts (Ligra's cilk_for load
        // balancing), not raw vertex counts. They depend only on the graph,
        // so they are computed by the first pull iteration, if there is one.
        let pull_chunks: OnceCell<Vec<Range<usize>>> = OnceCell::new();
        // Each tid's capture of its first gated pull's topology walk.
        let pull_memo: Vec<OnceLock<Capture>> = (0..threads).map(|_| OnceLock::new()).collect();
        driver.run_recoverable(
            prog.max_iters(),
            &mut frontier,
            recovery,
            |f| !f.is_empty(),
            |sim, iters, frontier| {
                // Choose direction: dense frontiers pull, sparse ones push.
                // The frontier knows its exact total out-degree.
                let frontier_degree = frontier.out_degree(|v| g.out_degree(v) as u64);
                let use_pull = !self.force_push
                    && !prog.prefer_push()
                    && should_densify(frontier.len() as u64, frontier_degree, m as u64);
                // `frontier` is consumed below and rebuilt after apply; keep
                // the converted representation alive through the scatter
                // phase.
                let taken = std::mem::replace(frontier, Frontier::sparse(Vec::new()));

                // Per-iteration runtime state, centrally allocated.
                let updated =
                    DenseBitmap::new(machine, "stat/updated", n, AllocPolicy::Centralized);

                let _converted;
                if use_pull {
                    let fr = taken.into_dense(
                        machine,
                        "stat/frontier",
                        n,
                        AllocPolicy::Centralized,
                        frontier_degree,
                    );
                    let bits = fr.as_dense().expect("dense after conversion");
                    let all_active = fr.len() == n;
                    let chunks = pull_chunks.get_or_init(|| {
                        let in_degrees: Vec<u32> =
                            (0..n).map(|v| g.in_degree(v as VId) as u32).collect();
                        polymer_graph::edge_balanced_ranges(&in_degrees, threads)
                    });
                    // Pull targets are chunk-owned: every accounted write
                    // (`next`, `updated`) lands on the thread's own targets,
                    // and reads see only pre-phase state — so the whole task
                    // is shard-safe compute with nothing to publish.
                    sim.run_phase_split(
                        "gather-pull",
                        |tid, ctx| {
                            if !all_active {
                                // Frontier-gated: the topology's walk is the
                                // same in every gated pull, so it is charged
                                // once per run and replayed after.
                                let roles = [
                                    topo.in_off.alloc_ref(),
                                    topo.in_src.alloc_ref(),
                                    bits.alloc_ref(),
                                ];
                                let ts = chunks[tid].clone();
                                let hit = |ctx: &mut AccessCtx, t, acc| {
                                    next.store(ctx, t, acc);
                                    // Atomic: an edge-balanced chunk
                                    // boundary can split a bitmap word
                                    // across shards.
                                    updated.set(ctx, t);
                                };
                                ctx.replay_walk(&pull_memo[tid], &roles, |ctx, charged| {
                                    if charged {
                                        topo.gated_pull::<true, P>(ctx, prog, bits, &curr, ts, hit);
                                    } else {
                                        topo.gated_pull::<false, P>(
                                            ctx, prog, bits, &curr, ts, hit,
                                        );
                                    }
                                });
                                return;
                            }
                            for t in chunks[tid].clone() {
                                // Offset pairs re-read the previous vertex's
                                // end — the bulk path charges ranges once, so
                                // they stay on the scalar path to keep that
                                // access pattern.
                                let lo = topo.in_off.get(ctx, t) as usize;
                                let hi = topo.in_off.get(ctx, t + 1) as usize;
                                // Dense sweep: every in-edge is consumed, so
                                // the edge-aligned arrays stream in bulk.
                                let src_it = topo.in_src.iter_seq(ctx, lo..hi);
                                let deg_it = topo.in_src_deg.iter_seq(ctx, lo..hi);
                                let mut w_it =
                                    topo.in_w.as_ref().map(|ws| ws.iter_seq(ctx, lo..hi));
                                let mut acc = identity;
                                let mut any = false;
                                for (s, deg) in src_it.zip(deg_it) {
                                    let w = match &mut w_it {
                                        Some(it) => it.next().expect("weight stream aligned"),
                                        None => 1,
                                    };
                                    // Source values are indexed by vertex id —
                                    // random, scalar path.
                                    let sv = curr.load(ctx, s as usize);
                                    acc = prog.combine().fold(acc, prog.scatter(s, sv, w, deg));
                                    ctx.charge_cycles(sc);
                                    any = true;
                                }
                                if any {
                                    next.store(ctx, t, acc);
                                    updated.set(ctx, t);
                                }
                            }
                        },
                        |_, _, ()| {},
                    );
                    _converted = fr;
                } else {
                    let fr = taken.into_sparse();
                    let items: Vec<VId> = fr.as_sparse().expect("sparse after conversion").to_vec();
                    let chunks = degree_balanced_chunks(&items, |v| g.out_degree(v), threads);
                    // Push targets are arbitrary: combines into `next` and
                    // the `updated` test-and-set that gates queue pushes
                    // observe other threads' same-phase writes, so they move
                    // to the serially replayed publish half. Compute streams
                    // the topology and logs (target, contribution) pairs.
                    // Where each one's `next` write and `updated` word write
                    // land is known here, so compute charges them (same
                    // per-allocation order as the replay would), and publish
                    // keeps only what depends on lower tids: the folded
                    // values, the first setter of each bit, and that
                    // setter's queue push. A context that keeps access order
                    // charges everything in publish, in program order.
                    sim.run_phase_split(
                        "scatter-push",
                        |tid, ctx| {
                            let defer = !ctx.keeps_access_order();
                            let mut log: Vec<(VId, P::Val)> = Vec::new();
                            for &s in &items[chunks[tid].clone()] {
                                let si = s as usize;
                                // Offset pair + source value are indexed by
                                // vertex id (random for a sparse frontier) —
                                // scalar path.
                                let lo = topo.out_off.get(ctx, si) as usize;
                                let hi = topo.out_off.get(ctx, si + 1) as usize;
                                let sv = curr.load(ctx, si);
                                let deg = (hi - lo) as u32;
                                // Every out-edge of an active source is
                                // consumed, so the edge-aligned arrays stream
                                // in bulk.
                                let dst_it = topo.out_dst.iter_seq(ctx, lo..hi);
                                let mut w_it =
                                    topo.out_w.as_ref().map(|ws| ws.iter_seq(ctx, lo..hi));
                                for t in dst_it {
                                    let w = match &mut w_it {
                                        Some(it) => it.next().expect("weight stream aligned"),
                                        None => 1,
                                    };
                                    log.push((t, prog.scatter(s, sv, w, deg)));
                                    ctx.charge_cycles(sc);
                                    if defer {
                                        // Combine target / updated bit are
                                        // destination-indexed (random) —
                                        // scalar path.
                                        next.charge_store(ctx, t as usize);
                                        updated.charge_set(ctx, t as usize);
                                    }
                                }
                            }
                            log
                        },
                        |_tid, ctx, log| {
                            if ctx.keeps_access_order() {
                                for (t, c) in log {
                                    let t = t as usize;
                                    serial_combine(prog, &next, ctx, t, c);
                                    if updated.set_unshared(ctx, t) {
                                        queues.push(ctx, t as VId);
                                    }
                                }
                                return;
                            }
                            for (t, c) in log {
                                let t = t as usize;
                                next.raw_store(t, prog.combine().fold(next.raw_load(t), c));
                                if !updated.test_unaccounted(t) {
                                    updated.set_unaccounted(t);
                                    queues.push(ctx, t as VId);
                                }
                            }
                        },
                    );
                    _converted = fr;
                }
                sim.charge_barrier();

                // Apply phase over the updated set; collect the new frontier.
                // Apply items are unique (chunk-owned targets in pull mode,
                // first-setter winners in push mode), so the whole task is
                // shard-safe compute; the per-thread alive tallies ride back
                // as the compute payload.
                let mut alive_count = vec![0u64; threads];
                let mut alive_degree = vec![0u64; threads];
                if use_pull {
                    let chunks = even_chunks(n, threads);
                    sim.run_phase_split(
                        "apply",
                        |tid, ctx| {
                            let (mut cnt, mut deg) = (0u64, 0u64);
                            for t in chunks[tid].clone() {
                                if !updated.test(ctx, t) {
                                    continue;
                                }
                                let acc = next.load(ctx, t);
                                let cv = curr.load(ctx, t);
                                let (val, alive) = prog.apply(t as VId, acc, cv);
                                curr.store(ctx, t, val);
                                next.store(ctx, t, identity);
                                if alive {
                                    queues.push(ctx, t as VId);
                                    cnt += 1;
                                    deg += topo.out_deg.get(ctx, t) as u64;
                                }
                            }
                            (cnt, deg)
                        },
                        |tid, _ctx, (cnt, deg)| {
                            alive_count[tid] = cnt;
                            alive_degree[tid] = deg;
                        },
                    );
                } else {
                    let items = queues.drain_merged();
                    let chunks = even_chunks(items.len(), threads);
                    sim.run_phase_split(
                        "apply",
                        |tid, ctx| {
                            let (mut cnt, mut deg) = (0u64, 0u64);
                            for &t in &items[chunks[tid].clone()] {
                                let ti = t as usize;
                                let acc = next.load(ctx, ti);
                                let cv = curr.load(ctx, ti);
                                let (val, alive) = prog.apply(t, acc, cv);
                                curr.store(ctx, ti, val);
                                next.store(ctx, ti, identity);
                                if alive {
                                    queues.push(ctx, t);
                                    cnt += 1;
                                    deg += topo.out_deg.get(ctx, ti) as u64;
                                }
                            }
                            (cnt, deg)
                        },
                        |tid, _ctx, (cnt, deg)| {
                            alive_count[tid] = cnt;
                            alive_degree[tid] = deg;
                        },
                    );
                }
                sim.charge_barrier();

                // Build the next frontier and pick its representation.
                let alive: u64 = alive_count.iter().sum();
                let degree: u64 = alive_degree.iter().sum();
                let items = queues.drain_merged();
                debug_assert_eq!(items.len() as u64, alive);
                *frontier =
                    Frontier::rebuild(items, degree, m as u64, true, !self.force_push, make_dense);
                check_divergence(&curr, iters)?;
                Ok(())
            },
            |sim, frontier| {
                (
                    charged_values_snapshot(sim, threads, &curr),
                    frontier.to_snapshot(|v| g.out_degree(v) as u64),
                )
            },
        )?;

        Ok(driver.finish(curr.snapshot()))
    }
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
        let got = LigraEngine::new().run(&m, 4, g, prog);
        let (want, _) = run_reference(g, prog);
        assert_eq!(got.values, want);
    }

    #[test]
    fn bfs_matches_reference_on_rmat() {
        let el = gen::rmat(10, 8_000, gen::RMAT_GRAPH500, 11);
        let g = Graph::from_edges(&el);
        check_exact(&g, &Bfs::new(0));
    }

    #[test]
    fn sssp_matches_reference_on_road() {
        let el = gen::road_grid(16, 16, 0.6, 3);
        let g = Graph::from_edges(&el);
        check_exact(&g, &Sssp::new(0));
    }

    #[test]
    fn cc_matches_reference() {
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
        let got = LigraEngine::new().run(&m, 4, &g, &prog);
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
        let got = LigraEngine::new().run(&m, 2, &g, &prog);
        let (want, _) = run_reference(&g, &prog);
        let err = polymer_algos::reference::max_rel_error(&got.values, &want);
        assert!(err < 1e-9, "max rel error {err}");
    }

    #[test]
    fn push_only_matches_hybrid_results() {
        let el = gen::rmat(9, 4_000, gen::RMAT_GRAPH500, 13);
        let g = Graph::from_edges(&el);
        let prog = Bfs::new(1);
        let m1 = Machine::new(MachineSpec::test2());
        let hybrid = LigraEngine::new().run(&m1, 4, &g, &prog);
        let m2 = Machine::new(MachineSpec::test2());
        let push = LigraEngine { force_push: true }.run(&m2, 4, &g, &prog);
        assert_eq!(hybrid.values, push.values);
    }

    /// Everything a run charges and leaves behind, bit for bit: values,
    /// iterations, simulated seconds, the total cost and the trace (every
    /// phase's time, per-thread times and per-socket counters).
    fn observe<P: Program>(spec: &MachineSpec, threads: usize, g: &Graph, prog: &P) -> String
    where
        P::Val: std::fmt::Debug,
    {
        let m = Machine::new(spec.clone());
        let r = LigraEngine { force_push: true }.run_traced(&m, threads, g, prog);
        let mut by_phase: Vec<_> = r.clock.by_phase.iter().collect();
        by_phase.sort_by_key(|(name, _)| **name);
        format!(
            "{:?} {} {} {:?} {:?} {:?}",
            r.values,
            r.iterations,
            r.seconds().to_bits(),
            by_phase,
            r.total_cost(),
            r.trace()
        )
    }

    #[test]
    fn deferred_push_charges_match_the_literal_publish() {
        // Every vertex also points at one hub, so in every dense iteration
        // several tids push the hub and which of them sets its `updated`
        // bit first (and queues it) depends on tid order.
        let hub = 101;
        let mut el = gen::uniform(203, 600, 17);
        for v in (0..203).filter(|&v| v != hub) {
            el.edges
                .push(polymer_graph::Edge::weighted(v, hub, 1 + v % 7));
        }
        let g = Graph::from_edges(&el);
        let pr = PageRank::new(g.num_vertices());
        // Bulk accounting on defers the `next` / `updated` charges to the
        // compute half; off, publish replays them literally.
        let deferred = MachineSpec::intel80();
        let literal = deferred.clone().with_bulk_accounting(false);
        for t in [1, 3, 7, 80] {
            let what = format!("{t} threads");
            assert_eq!(
                observe(&literal, t, &g, &pr),
                observe(&deferred, t, &g, &pr),
                "PageRank, {what}"
            );
            for src in [0, hub] {
                let bfs = Bfs::new(src);
                assert_eq!(
                    observe(&literal, t, &g, &bfs),
                    observe(&deferred, t, &g, &bfs),
                    "BFS from {src}, {what}"
                );
                let sssp = Sssp::new(src);
                assert_eq!(
                    observe(&literal, t, &g, &sssp),
                    observe(&deferred, t, &g, &sssp),
                    "SSSP from {src}, {what}"
                );
            }
        }
    }

    #[test]
    fn clock_advances_and_memory_reported() {
        let el = gen::rmat(10, 8_000, gen::RMAT_GRAPH500, 2);
        let g = Graph::from_edges(&el);
        let prog = PageRank::new(g.num_vertices());
        let m = Machine::new(MachineSpec::intel80());
        let r = LigraEngine::new().run(&m, 80, &g, &prog);
        assert!(r.seconds() > 0.0);
        assert!(r.memory.peak_bytes > 0);
        assert_eq!(r.iterations, 5);
        assert!(
            r.total_cost().count_remote > 0,
            "interleaved layout must touch remote nodes"
        );
        assert_eq!(r.sockets, 8);
    }
}
