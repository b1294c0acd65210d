//! The Polymer execution engine (paper Sections 4.3 and 5).

use polymer_api::{
    charged_values_restore, charged_values_snapshot, check_divergence, even_chunks, serial_combine,
    Engine, FrontierInit, IterationDriver, Program, RecoverySession, RunResult,
};
use polymer_faults::PolymerResult;
use polymer_graph::{Graph, VId};
use std::ops::Range;
use std::sync::OnceLock;

use polymer_numa::{AccessCtx, BarrierKind, Capture, Machine, NumaAtomicArray};
use polymer_sync::{
    should_densify, DenseBitmap, FrontierRepr, FrontierSnapshot, LookupTable, ThreadQueues,
};

use crate::layout::{NodeLayout, PolymerLayout};

/// Engine configuration: the paper's three Section 5 optimizations, each
/// independently toggleable for the ablation experiments.
#[derive(Clone, Copy, Debug)]
pub struct PolymerConfig {
    /// Edge-oriented balanced partitioning (Table 6(b), Figure 11).
    pub balanced_partitioning: bool,
    /// Adaptive runtime states — sparse queues when the frontier is small
    /// (Table 6(a)). When off, states are always dense bitmaps. Simulated
    /// runs only: [`polymer_api::Backend::RealThreads`] runs the same push
    /// executor whatever this says.
    pub adaptive_states: bool,
    /// Barrier family (Figure 10: `SenseNuma` is the NUMA-aware barrier;
    /// `Pthread` is the w/o-optimization baseline).
    pub barrier: BarrierKind,
    /// NUMA-aware data placement. When off, partitioning and agents remain
    /// (computation is still factored) but every allocation is interleaved
    /// and runtime states centralized — isolating the placement
    /// contribution (extension ablation beyond the paper's Table 6).
    pub numa_aware_placement: bool,
}

impl Default for PolymerConfig {
    fn default() -> Self {
        PolymerConfig {
            balanced_partitioning: true,
            adaptive_states: true,
            barrier: BarrierKind::SenseNuma,
            numa_aware_placement: true,
        }
    }
}

/// The Polymer engine.
#[derive(Clone, Debug, Default)]
pub struct PolymerEngine {
    /// Configuration (defaults enable every optimization).
    pub config: PolymerConfig,
}

impl PolymerEngine {
    /// An engine with every optimization enabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Engine with explicit configuration.
    pub fn with_config(config: PolymerConfig) -> Self {
        PolymerEngine { config }
    }

    /// Disable adaptive runtime states (always-dense bitmaps).
    pub fn without_adaptive_states(mut self) -> Self {
        self.config.adaptive_states = false;
        self
    }
}

/// Polymer's distributed frontier: the shared [`FrontierRepr`] switcher
/// with per-node dense bitmaps linked through the lock-less lookup table as
/// its dense store.
type PFrontier = FrontierRepr<LookupTable<DenseBitmap>>;

/// Build the dense representation from items (distributed allocation, one
/// partition per node via the lookup table).
fn densify_distributed(
    machine: &Machine,
    layout: &PolymerLayout,
    items: &[VId],
) -> LookupTable<DenseBitmap> {
    let table = LookupTable::new(layout.num_nodes());
    for (node, nl) in layout.nodes.iter().enumerate() {
        table.install(
            node,
            DenseBitmap::new(
                machine,
                "stat/frontier",
                nl.range.len(),
                layout.state_policy(node),
            ),
        );
    }
    for &v in items {
        let owner = layout.owner(v as usize);
        table
            .get(owner)
            .unwrap()
            .set_unaccounted(v as usize - layout.nodes[owner].range.start);
    }
    table
}

/// Accounted membership test against the distributed dense frontier.
#[inline]
fn test_dense(
    table: &LookupTable<DenseBitmap>,
    layout: &PolymerLayout,
    ctx: &mut AccessCtx,
    v: usize,
) -> bool {
    let owner = layout.owner(v);
    let bits = table.get(owner).expect("frontier partition installed");
    bits.test(ctx, v - layout.nodes[owner].range.start)
}

/// One tid's pull over its agent slice `my` of `nl`, in rolling order: per
/// agent the target id, the offset pair and the endpoint run, then one test
/// of the node's frontier `bits` per in-edge — the topology's walk, charged
/// when `CHARGED` and read unaccounted in a replayed pull
/// ([`AccessCtx::replay_walk`]). The weight, value and degree of each active
/// source are charged either way, with one cycle charge per agent. Returns
/// the `(target, contribution)` log.
fn pull_agents<const CHARGED: bool, P: Program>(
    ctx: &mut AccessCtx,
    prog: &P,
    layout: &PolymerLayout,
    nl: &NodeLayout,
    bits: &DenseBitmap,
    curr: &NumaAtomicArray<P::Val>,
    my: Range<usize>,
) -> Vec<(usize, P::Val)> {
    let dir = nl.pull.as_ref().expect("pull layout built");
    let sc = prog.scatter_cycles();
    // `sc * hits` is `hits` adds of an integral `sc` below 2^53.
    debug_assert_eq!(sc.fract(), 0.0, "scatter cycles must be integral");
    let (ids, off, eps) = (dir.agent_id.raw(), dir.agent_off.raw(), dir.endpoint.raw());
    // Rolling order: start at the first agent the node owns.
    let pivot = ids
        .partition_point(|&t| (t as usize) < nl.range.start)
        .clamp(my.start, my.end)
        - my.start;
    let mut log = Vec::new();
    for a in rolling(my.len(), pivot).map(|k| my.start + k) {
        // Agent id / offset pair reads stay scalar: the offsets re-read the
        // previous agent's end, and the rolling order wraps once mid-scan.
        // The endpoints stream in bulk.
        let (t, lo, hi) = if CHARGED {
            let t = dir.agent_id.get(ctx, a);
            (t, dir.agent_off.get(ctx, a), dir.agent_off.get(ctx, a + 1))
        } else {
            (ids[a], off[a], off[a + 1])
        };
        let (lo, hi) = (lo as usize, hi as usize);
        let srcs = if CHARGED {
            dir.endpoint.load_range(ctx, lo..hi)
        } else {
            &eps[lo..hi]
        };
        let mut acc = prog.next_identity();
        let mut hits = 0u32;
        for (e, &s) in (lo..hi).zip(srcs) {
            // Sources are local to this node by layout. Everything behind
            // the frontier test is gated or vertex-indexed (random) and
            // stays scalar.
            let s = s as usize;
            let active = if CHARGED {
                bits.test(ctx, s - nl.range.start)
            } else {
                bits.test_unaccounted(s - nl.range.start)
            };
            if active {
                let w = match &dir.weight {
                    Some(ws) => ws.get(ctx, e),
                    None => 1,
                };
                let sv = curr.load(ctx, s);
                let deg = layout.out_deg.get(ctx, s);
                acc = prog.combine().fold(acc, prog.scatter(s as VId, sv, w, deg));
                hits += 1;
            }
        }
        if hits > 0 {
            ctx.charge_cycles(sc * f64::from(hits));
            log.push((t as usize, acc));
        }
    }
    log
}

/// Iterate `0..len` starting at `pivot` and wrapping (the paper's *rolling
/// order*: each node starts with its own vertices to spread cross-node
/// traffic).
fn rolling(len: usize, pivot: usize) -> impl Iterator<Item = usize> {
    (pivot..len).chain(0..pivot)
}

impl Engine for PolymerEngine {
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

        let mut driver = IterationDriver::new(machine, threads, self.config.barrier, traced, n);
        let spanned = driver.sim().num_sockets();
        let tpn: Vec<usize> = (0..spanned)
            .map(|node| driver.sim().threads_on_node(node).len())
            .collect();
        // Thread index within its node (threads are bound node-major).
        let tin: Vec<usize> = (0..threads)
            .map(|t| {
                let sim = driver.sim();
                t - sim.threads_on_node(sim.node_of_thread(t))[0]
            })
            .collect();

        // Both edge directions are always materialized (the real system
        // keeps them for runtime mode switching; Table 5's memory accounting
        // includes both). `prefer_push` only pins the execution mode.
        let with_pull = true;
        let use_pull_allowed = !prog.prefer_push();
        let layout = PolymerLayout::build_with_placement(
            machine,
            g,
            &tpn,
            self.config.balanced_partitioning,
            with_pull,
            prog.uses_weights(),
            self.config.numa_aware_placement,
        );

        // Application data: contiguous virtual, physically chunked by owner.
        let curr =
            machine.alloc_atomic_with::<P::Val>("data/curr", n, layout.chunked_policy(), |v| {
                prog.init(v as VId)
            });
        let next =
            machine
                .alloc_atomic_with::<P::Val>("data/next", n, layout.chunked_policy(), |_| identity);

        let mut frontier = match recovery.resume() {
            Some(ck) => {
                // Restore the checkpointed vertex state through a charged
                // "restore" sweep and continue the global iteration count.
                charged_values_restore(driver.sim(), threads, &curr, &ck.values);
                driver.resume_at(ck.iteration);
                if ck.frontier.dense {
                    PFrontier::dense(
                        densify_distributed(machine, &layout, &ck.frontier.vertices),
                        ck.frontier.vertices.len(),
                        ck.frontier.out_degree,
                    )
                } else {
                    PFrontier::sparse(ck.frontier.vertices.clone())
                }
            }
            None => match prog.initial_frontier() {
                FrontierInit::All => {
                    let items: Vec<VId> = (0..n as VId).collect();
                    PFrontier::dense(densify_distributed(machine, &layout, &items), n, m as u64)
                }
                // The source is validated by `validate_run_config`.
                FrontierInit::Single(s) => {
                    if self.config.adaptive_states {
                        PFrontier::sparse(vec![s])
                    } else {
                        PFrontier::dense(
                            densify_distributed(machine, &layout, &[s]),
                            1,
                            g.out_degree(s) as u64,
                        )
                    }
                }
            },
        };

        let queues = ThreadQueues::new(machine, threads);
        // Each tid's capture of its first pull's topology walk.
        let pull_memo: Vec<OnceLock<Capture>> = (0..threads).map(|_| OnceLock::new()).collect();
        driver.run_recoverable(
            prog.max_iters(),
            &mut frontier,
            recovery,
            |f| !f.is_empty(),
            |sim, iters, frontier| {
                // The frontier knows its exact total out-degree.
                let frontier_degree = frontier.out_degree(|v| g.out_degree(v) as u64);
                let use_pull = use_pull_allowed
                    && should_densify(frontier.len() as u64, frontier_degree, m as u64);

                // Per-iteration runtime states: distributed allocation, linked
                // through the lock-less lookup table (Section 4.2).
                let updated: LookupTable<DenseBitmap> = LookupTable::new(spanned);
                for (node, nl) in layout.nodes.iter().enumerate() {
                    updated.install(
                        node,
                        DenseBitmap::new(
                            machine,
                            "stat/updated",
                            nl.range.len(),
                            layout.state_policy(node),
                        ),
                    );
                }

                // --- Scatter / gather phase -------------------------------
                if use_pull {
                    // Pull: each node reads its local sources and writes the
                    // global next array sequentially by target.
                    let taken = std::mem::replace(frontier, PFrontier::sparse(Vec::new()));
                    let fr = match taken {
                        f @ FrontierRepr::Dense { .. } => f,
                        FrontierRepr::Sparse(items) => {
                            let count = items.len();
                            PFrontier::dense(
                                densify_distributed(machine, &layout, &items),
                                count,
                                frontier_degree,
                            )
                        }
                    };
                    let table = fr.as_dense().expect("dense after conversion");
                    // Pull agents fold over *local* sources but target vertices
                    // owned by any node, so the combine and updated-bit writes
                    // cross shard boundaries: log them in the compute half and
                    // replay serially in the publish half.
                    sim.run_phase_split(
                        "gather-pull",
                        |tid, ctx| {
                            let node = ctx.node();
                            let nl = &layout.nodes[node];
                            let dir = nl.pull.as_ref().expect("pull layout built");
                            let my = dir.slices[tin[tid]].clone();
                            if my.is_empty() {
                                return Vec::new();
                            }
                            // The topology's walk repeats in every pull: it
                            // is charged once per run and replayed after.
                            let bits = table.get(node).unwrap();
                            let roles = [
                                dir.agent_id.alloc_ref(),
                                dir.agent_off.alloc_ref(),
                                dir.endpoint.alloc_ref(),
                                bits.alloc_ref(),
                            ];
                            ctx.replay_walk(&pull_memo[tid], &roles, |ctx, charged| {
                                if charged {
                                    pull_agents::<true, P>(ctx, prog, &layout, nl, bits, &curr, my)
                                } else {
                                    pull_agents::<false, P>(ctx, prog, &layout, nl, bits, &curr, my)
                                }
                            })
                        },
                        |_tid, ctx, log| {
                            for (t, acc) in log {
                                serial_combine(prog, &next, ctx, t, acc);
                                let owner = layout.owner(t);
                                updated
                                    .get(owner)
                                    .unwrap()
                                    .set_unshared(ctx, t - layout.nodes[owner].range.start);
                            }
                        },
                    );
                    drop(fr);
                } else {
                    match &*frontier {
                        FrontierRepr::Dense { repr: table, .. } => {
                            // Dense push: every node scans its agents, testing
                            // the (distributed) frontier bitmap per source.
                            // Push targets are node-local by construction and
                            // queue pushes go to the running thread's own
                            // queue, so the whole phase body is shard-pure:
                            // nothing it writes is visible outside its shard
                            // during the phase. The node's shard is the only
                            // writer of its `next` cells and `updated` words,
                            // one tid at a time, so the combine and the bit
                            // set are plain read-modify-writes.
                            sim.run_phase_split(
                                "scatter-push",
                                |tid, ctx| {
                                    let node = ctx.node();
                                    let nl = &layout.nodes[node];
                                    let dir = &nl.push;
                                    let my = &dir.slices[tin[tid]];
                                    // Agent ids are scanned unconditionally in
                                    // slice order — bulk stream. Everything
                                    // below the frontier test only happens for
                                    // active agents and stays scalar.
                                    let id_it = dir.agent_id.iter_seq(ctx, my.clone());
                                    for (a, sid) in my.clone().zip(id_it) {
                                        let s = sid as usize;
                                        if !test_dense(table, &layout, ctx, s) {
                                            continue;
                                        }
                                        let deg = dir.agent_deg.get(ctx, a);
                                        // Source value is vertex-indexed —
                                        // scalar.
                                        let sv = curr.load(ctx, s);
                                        // Every out-edge of an active agent is
                                        // consumed — the edge-aligned arrays
                                        // stream in bulk. Combine targets /
                                        // updated bits / queue pushes are
                                        // destination-indexed (random) and stay
                                        // scalar.
                                        let (dst_it, mut w_it) = dir.agent_edges(ctx, a);
                                        for t in dst_it {
                                            let w = match &mut w_it {
                                                Some(it) => {
                                                    it.next().expect("weight stream aligned")
                                                }
                                                None => 1,
                                            };
                                            let t = t as usize;
                                            serial_combine(
                                                prog,
                                                &next,
                                                ctx,
                                                t,
                                                prog.scatter(s as VId, sv, w, deg),
                                            );
                                            ctx.charge_cycles(sc);
                                            if updated
                                                .get(node)
                                                .unwrap()
                                                .set_unshared(ctx, t - nl.range.start)
                                            {
                                                queues.push(ctx, t as VId);
                                            }
                                        }
                                    }
                                },
                                |_tid, _ctx, ()| {},
                            );
                        }
                        FrontierRepr::Sparse(items) => {
                            // Sparse push: every node routes each active vertex
                            // through its local agent index.
                            let per_node_chunks: Vec<Vec<std::ops::Range<usize>>> = (0..spanned)
                                .map(|node| even_chunks(items.len(), tpn[node]))
                                .collect();
                            // Shard-pure, with plain read-modify-writes, for
                            // the same reason as the dense variant: push
                            // targets are node-local, queue pushes are
                            // own-thread.
                            sim.run_phase_split(
                                "scatter-push-sparse",
                                |tid, ctx| {
                                    let node = ctx.node();
                                    let nl = &layout.nodes[node];
                                    let dir = &nl.push;
                                    let my = per_node_chunks[node][tin[tid]].clone();
                                    for &s in &items[my] {
                                        let slot = dir.agent_idx.get(ctx, s as usize);
                                        if slot == 0 {
                                            continue;
                                        }
                                        let a = (slot - 1) as usize;
                                        let deg = dir.agent_deg.get(ctx, a);
                                        // Source value is vertex-indexed —
                                        // scalar.
                                        let sv = curr.load(ctx, s as usize);
                                        // Every out-edge of an active agent is
                                        // consumed — the edge-aligned arrays
                                        // stream in bulk; destination-indexed
                                        // accesses stay scalar.
                                        let (dst_it, mut w_it) = dir.agent_edges(ctx, a);
                                        for t in dst_it {
                                            let w = match &mut w_it {
                                                Some(it) => {
                                                    it.next().expect("weight stream aligned")
                                                }
                                                None => 1,
                                            };
                                            let t = t as usize;
                                            serial_combine(
                                                prog,
                                                &next,
                                                ctx,
                                                t,
                                                prog.scatter(s, sv, w, deg),
                                            );
                                            ctx.charge_cycles(sc);
                                            if updated
                                                .get(node)
                                                .unwrap()
                                                .set_unshared(ctx, t - nl.range.start)
                                            {
                                                queues.push(ctx, t as VId);
                                            }
                                        }
                                    }
                                },
                                |_tid, _ctx, ()| {},
                            );
                        }
                    }
                }
                sim.charge_barrier();

                // --- Apply phase ------------------------------------------
                let mut alive_count = vec![0u64; threads];
                let mut alive_degree = vec![0u64; threads];
                if use_pull {
                    // Scan each node's own updated bitmap. Every access is
                    // node-local (the bitmap, and `curr`/`next`/`out_deg` at
                    // owned vertices), so the body is shard-pure; only the
                    // host-side alive tallies travel through the payload.
                    let alive_count = &mut alive_count;
                    let alive_degree = &mut alive_degree;
                    sim.run_phase_split(
                        "apply",
                        |tid, ctx| {
                            let node = ctx.node();
                            let nl = &layout.nodes[node];
                            let bits = updated.get(node).unwrap();
                            let words = even_chunks(bits.num_words(), tpn[node]);
                            let wr = words[tin[tid]].clone();
                            let (mut cnt, mut deg) = (0u64, 0u64);
                            // The updated bitmap's words are scanned
                            // sequentially — bulk stream. The per-bit value
                            // accesses below are vertex-indexed within the
                            // word and stay scalar.
                            let word_stream = bits.words_seq(ctx, wr.clone());
                            for (w, mut word) in wr.clone().zip(word_stream) {
                                while word != 0 {
                                    let b = word.trailing_zeros() as usize;
                                    word &= word - 1;
                                    let t = nl.range.start + w * 64 + b;
                                    let acc = next.load(ctx, t);
                                    let cv = curr.load(ctx, t);
                                    let (val, alive) = prog.apply(t as VId, acc, cv);
                                    curr.store(ctx, t, val);
                                    next.store(ctx, t, identity);
                                    if alive {
                                        queues.push(ctx, t as VId);
                                        cnt += 1;
                                        deg += layout.out_deg.get(ctx, t) as u64;
                                    }
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
                    // Queue-based apply: each node's threads produced exactly the
                    // targets it owns (push processes local targets).
                    let mut per_node_items: Vec<Vec<VId>> = vec![Vec::new(); spanned];
                    for t in 0..threads {
                        per_node_items[sim.node_of_thread(t)].extend(queues.drain_thread(t));
                    }
                    let per_node_chunks: Vec<Vec<std::ops::Range<usize>>> = (0..spanned)
                        .map(|node| even_chunks(per_node_items[node].len(), tpn[node]))
                        .collect();
                    let alive_count = &mut alive_count;
                    let alive_degree = &mut alive_degree;
                    // Queue apply touches only node-owned vertices (push
                    // produced local targets) — shard-pure like the pull
                    // variant.
                    sim.run_phase_split(
                        "apply",
                        |tid, ctx| {
                            let node = ctx.node();
                            let my = per_node_chunks[node][tin[tid]].clone();
                            let (mut cnt, mut deg) = (0u64, 0u64);
                            for &t in &per_node_items[node][my] {
                                let ti = t as usize;
                                let acc = next.load(ctx, ti);
                                let cv = curr.load(ctx, ti);
                                let (val, alive) = prog.apply(t, acc, cv);
                                curr.store(ctx, ti, val);
                                next.store(ctx, ti, identity);
                                if alive {
                                    queues.push(ctx, t);
                                    cnt += 1;
                                    deg += layout.out_deg.get(ctx, ti) as u64;
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

                // --- Next frontier ----------------------------------------
                let alive: u64 = alive_count.iter().sum();
                let degree: u64 = alive_degree.iter().sum();
                let items = queues.drain_merged();
                debug_assert_eq!(items.len() as u64, alive);
                *frontier = PFrontier::rebuild(
                    items,
                    degree,
                    m as u64,
                    self.config.adaptive_states,
                    true,
                    |items| densify_distributed(machine, &layout, items),
                );
                check_divergence(&curr, iters)?;
                Ok(())
            },
            |sim, frontier| {
                let values = charged_values_snapshot(sim, threads, &curr);
                // The distributed dense store snapshots as a global
                // ascending vertex list (node partitions are contiguous
                // ranges, scanned in node order); sparse frontiers keep
                // their live member order, which scatter order depends on.
                let snap = match frontier {
                    FrontierRepr::Dense { repr, degree, .. } => {
                        let mut items: Vec<VId> = Vec::new();
                        for (node, nl) in layout.nodes.iter().enumerate() {
                            if let Some(bits) = repr.get(node) {
                                items.extend(bits.iter_set().map(|b| (nl.range.start + b) as VId));
                            }
                        }
                        FrontierSnapshot::dense(items, *degree)
                    }
                    FrontierRepr::Sparse(items) => {
                        let degree = items.iter().map(|&v| g.out_degree(v) as u64).sum();
                        FrontierSnapshot::sparse(items.clone(), degree)
                    }
                };
                (values, snap)
            },
        )?;

        Ok(driver.finish(curr.snapshot()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymer_algos::{run_reference, Bfs, ConnectedComponents, PageRank, SpMV, Sssp};
    use polymer_api::Backend::Simulated;
    use polymer_graph::gen;
    use polymer_numa::MachineSpec;

    fn check_exact<P: Program>(g: &Graph, prog: &P, engine: &PolymerEngine)
    where
        P::Val: Eq,
    {
        let m = Machine::new(MachineSpec::test2());
        let got = engine.run(&m, 4, g, prog);
        let (want, _) = run_reference(g, prog);
        assert_eq!(got.values, want);
    }

    #[test]
    fn bfs_matches_reference() {
        let el = gen::rmat(10, 8_000, gen::RMAT_GRAPH500, 11);
        let g = Graph::from_edges(&el);
        check_exact(&g, &Bfs::new(0), &PolymerEngine::new());
    }

    #[test]
    fn bfs_matches_without_optimizations() {
        let el = gen::rmat(9, 4_000, gen::RMAT_GRAPH500, 21);
        let g = Graph::from_edges(&el);
        check_exact(
            &g,
            &Bfs::new(0),
            &PolymerEngine::with_config(PolymerConfig {
                adaptive_states: false,
                balanced_partitioning: false,
                barrier: BarrierKind::Pthread,
                ..Default::default()
            }),
        );
    }

    #[test]
    fn sssp_matches_reference_on_road() {
        let el = gen::road_grid(16, 16, 0.6, 3);
        let g = Graph::from_edges(&el);
        check_exact(&g, &Sssp::new(0), &PolymerEngine::new());
    }

    #[test]
    fn cc_matches_reference() {
        let mut el = gen::uniform(300, 500, 7);
        el.symmetrize();
        let g = Graph::from_edges(&el);
        check_exact(&g, &ConnectedComponents::new(), &PolymerEngine::new());
    }

    #[test]
    fn pagerank_close_to_reference() {
        let el = gen::rmat(9, 4_000, gen::RMAT_GRAPH500, 5);
        let g = Graph::from_edges(&el);
        let prog = PageRank::new(g.num_vertices());
        let m = Machine::new(MachineSpec::test2());
        let got = PolymerEngine::new().run(&m, 4, &g, &prog);
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
        let got = PolymerEngine::new().run(&m, 2, &g, &prog);
        let (want, _) = run_reference(&g, &prog);
        let err = polymer_algos::reference::max_rel_error(&got.values, &want);
        assert!(err < 1e-9, "max rel error {err}");
    }

    #[test]
    fn agents_show_up_in_memory_report() {
        let el = gen::rmat(10, 8_000, gen::RMAT_GRAPH500, 2);
        let g = Graph::from_edges(&el);
        let prog = PageRank::new(g.num_vertices());
        let m = Machine::new(MachineSpec::intel80());
        let r = PolymerEngine::new().run(&m, 80, &g, &prog);
        assert!(r.memory.tag_peak("agents") > 0);
        assert_eq!(r.iterations, 5);
        assert_eq!(r.sockets, 8);
    }

    #[test]
    fn placement_ablation_preserves_results_and_costs_locality() {
        let el = gen::rmat(11, 32_000, gen::RMAT_GRAPH500, 17);
        let g = Graph::from_edges(&el);
        let prog = PageRank::new(g.num_vertices());
        let m1 = Machine::new(MachineSpec::intel80());
        let aware = PolymerEngine::new().run(&m1, 80, &g, &prog);
        let m2 = Machine::new(MachineSpec::intel80());
        let oblivious = PolymerEngine::with_config(PolymerConfig {
            numa_aware_placement: false,
            ..Default::default()
        })
        .run(&m2, 80, &g, &prog);
        let err = polymer_algos::reference::max_rel_error(&aware.values, &oblivious.values);
        assert!(err < 1e-9, "placement must not change results: {err}");
        assert!(
            oblivious.remote_report().access_rate_remote
                > 2.0 * aware.remote_report().access_rate_remote,
            "oblivious placement must raise the remote rate ({} vs {})",
            oblivious.remote_report().access_rate_remote,
            aware.remote_report().access_rate_remote
        );
    }

    #[test]
    fn invalid_config_is_a_typed_error_not_a_panic() {
        let el = gen::uniform(50, 100, 3);
        let g = Graph::from_edges(&el);
        let m = Machine::new(MachineSpec::test2());
        let engine = PolymerEngine::new();
        let err = engine
            .try_run_on(&Simulated, &m, 0, &g, &Bfs::new(0))
            .map(|r| r.iterations)
            .unwrap_err();
        assert!(matches!(err, polymer_numa::PolymerError::InvalidConfig(_)));
        let err = engine
            .try_run_on(&Simulated, &m, 4, &g, &Bfs::new(999))
            .map(|r| r.iterations)
            .unwrap_err();
        assert!(matches!(err, polymer_numa::PolymerError::InvalidConfig(_)));
        // More threads than the machine has cores is the same kind of
        // mistake: typed and fatal before the body's assertion can trip.
        let err = engine
            .try_run_on(&Simulated, &m, 5, &g, &Bfs::new(0))
            .map(|r| r.iterations)
            .unwrap_err();
        assert!(matches!(err, polymer_numa::PolymerError::InvalidConfig(_)));
    }

    #[test]
    fn remote_rate_lower_than_ligra() {
        // Table 4's core claim: co-location + factored computation cuts the
        // remote access rate well below the NUMA-oblivious baseline.
        let el = gen::rmat(11, 32_000, gen::RMAT_GRAPH500, 6);
        let g = Graph::from_edges(&el);
        let prog = PageRank::new(g.num_vertices());
        let m1 = Machine::new(MachineSpec::intel80());
        let poly = PolymerEngine::new().run(&m1, 80, &g, &prog);
        let m2 = Machine::new(MachineSpec::intel80());
        let ligra = polymer_ligra::LigraEngine::new().run(&m2, 80, &g, &prog);
        let pr = poly.remote_report().access_rate_remote;
        let lr = ligra.remote_report().access_rate_remote;
        assert!(pr < 0.75 * lr, "polymer {pr:.3} vs ligra {lr:.3}");
        // And the simulated runtime should be lower too.
        assert!(
            poly.seconds() < ligra.seconds(),
            "polymer {} vs ligra {}",
            poly.seconds(),
            ligra.seconds()
        );
    }

    /// A traced, checkpointed real-thread run through `try_run_with`,
    /// resumed from its middle checkpoint through `try_run_with` again,
    /// finishes bit for bit where the uninterrupted run did: same values,
    /// same iterations, the same checkpoints from the resume point on, and
    /// the same worker spans over those iterations.
    #[test]
    fn real_thread_resume_through_try_run_with_matches_the_checkpointed_run() {
        use polymer_api::{Backend, CheckpointPolicy, CheckpointStore, RunOptions};
        use polymer_numa::SharedTracer;

        let g = Graph::from_edges(&gen::rmat(9, 5_000, gen::RMAT_GRAPH500, 9));
        let prog = PageRank::new(g.num_vertices());
        let engine = PolymerEngine::new();
        let m = Machine::new(MachineSpec::test2());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // The sorted names of the worker spans stamped `from` or later.
        let span_names = |t: SharedTracer, from: usize| {
            let buf = t.into_buffer();
            let mut names: Vec<_> = (buf.worker_spans.iter())
                .filter(|s| s.iteration.is_some_and(|i| i >= from as u64))
                .map(|s| s.name)
                .collect();
            names.sort_unstable();
            names
        };
        let run = |recovery: RecoverySession<f64>, tracer: &SharedTracer| {
            let opts = RunOptions {
                backend: Backend::real_threads(),
                recovery,
                tracer: Some(tracer),
                ..RunOptions::default()
            };
            engine.try_run_with(&m, 3, &g, &prog, &opts).unwrap()
        };
        let every = |store: &CheckpointStore<f64>| {
            RecoverySession::new(CheckpointPolicy::EveryN(1), store.clone())
        };

        let (store, t_base) = (CheckpointStore::with_history(), SharedTracer::new(1, 3));
        let base = run(every(&store), &t_base);
        let history = store.history();
        assert_eq!(history.len(), base.iterations);
        let half = base.iterations / 2;
        let from = history[half].iteration;

        let (again, t_resumed) = (CheckpointStore::with_history(), SharedTracer::new(1, 3));
        let resumed = run(
            every(&again).with_resume(Some(history[half].clone())),
            &t_resumed,
        );
        assert_eq!(bits(&resumed.values), bits(&base.values));
        assert_eq!(resumed.iterations, base.iterations);
        let (later, again) = (&history[half + 1..], again.history());
        assert_eq!(again.len(), later.len());
        for (a, b) in later.iter().zip(&again) {
            assert_eq!(a.iteration, b.iteration);
            assert_eq!(bits(&a.values), bits(&b.values));
            assert_eq!(a.frontier.vertices, b.frontier.vertices);
        }

        let spans = span_names(t_resumed, from);
        assert!(spans.contains(&"iteration") && spans.contains(&"barrier-wait"));
        assert_eq!(spans, span_names(t_base, from));
    }
}
