//! # polymer-xstream — the X-Stream-like edge-centric baseline
//!
//! A reimplementation of X-Stream's engine strategy (Roy, Mihailovic &
//! Zwaenepoel, SOSP'13) over the simulated NUMA machine, with the execution
//! flow of the paper's Figure 2:
//!
//! * **Streaming partitions**: the vertex space is split into one partition
//!   per thread; each partition holds its edges (grouped by source), its
//!   slice of the application data, and preallocated `Uout`/`Uin` update
//!   buffers. Partition data is local to its processing thread's node
//!   ("tiling"), so scatter and gather are local; only the shuffle crosses
//!   nodes (`SEQ|W|G`).
//! * **Scatter → shuffle → gather**: scatter streams *all* edges of the
//!   partition sequentially, checks the source's state bit per edge, and
//!   appends `(target, contribution)` updates to `Uout`; shuffle routes
//!   updates to the target partition's `Uin`; gather folds them into `next`
//!   and applies.
//! * **No sparse frontier**: runtime states are always dense bitmaps, so
//!   every iteration pays a full edge scan — the source of X-Stream's
//!   pathological traversal times on high-diameter graphs (paper Table 3:
//!   557 s for BFS on roadUS) and of its extra memory for stream buffers
//!   (Table 5).
//!
//! The *model* charges that scan per edge: every edge record, and a state
//! test per edge, plus the source's value and degree per edge of an active
//! source. The *host* does not walk it per edge: the scatter reads the state
//! bitmap a word at a time, charges each word once for every edge whose
//! source lies in it, skips a zero word's edges outright, and charges an
//! active source's value and degree once for its whole out-degree
//! (`AccessCtx::record_repeat` behind `DenseBitmap::word_repeat`,
//! `NumaAtomicArray::load_repeat` and `NumaArray::get_repeat`). Every
//! allocation sees the same access sequence either way, so every phase
//! cost is the same.

#![deny(unsafe_code)]

use std::ops::Range;

use polymer_api::{Engine, FrontierInit, IterationDriver, Program, RecoverySession, RunResult};
use polymer_faults::{PolymerError, PolymerResult};
use polymer_graph::DeltaDecoder;
use polymer_graph::{Graph, VId};
use polymer_numa::{
    AccessCtx, AllocPolicy, Atom, BarrierKind, CompressedLists, Machine, NumaArray, NumaAtomicArray,
};
use polymer_sync::{DenseBitmap, FrontierSnapshot};

/// One partition's edge storage. Raw mode keeps X-Stream's literal edge
/// records — parallel `(source, target)` arrays streamed obliviously. On a
/// machine whose spec sets
/// [`compressed_topology`](polymer_numa::MachineSpec::compressed_topology)
/// (and only for unweighted programs, whose edges carry no payload
/// that would still need edge indexing), the records collapse into
/// delta/varint-encoded per-vertex neighbour lists: the source id becomes
/// implicit in the grouping and targets cost ~1–2 encoded bytes instead of
/// 8 raw bytes per edge. The scatter then gates on the source's state bit
/// once per vertex rather than once per edge, skipping inactive vertices'
/// encoded bytes entirely — the same update sequence, far fewer simulated
/// bytes.
enum PartEdges {
    /// Literal edge records, grouped by source (CSR order).
    Raw {
        /// Edge sources.
        e_src: NumaArray<u32>,
        /// Edge targets.
        e_dst: NumaArray<u32>,
        /// Host-side CSR offsets: local vertex `li`'s edges are
        /// `first[li]..first[li + 1]`. Unaccounted and not placed on the
        /// machine — the modelled system has no such index; the host uses
        /// it to walk the state bitmap a word at a time.
        first: Vec<usize>,
    },
    /// One encoded neighbour list per partition-local vertex.
    Compressed(CompressedLists),
}

/// One streaming partition's data.
struct Part<V: polymer_numa::Atom> {
    range: Range<usize>,
    /// Edges with source in `range`, grouped by source.
    edges: PartEdges,
    e_w: Option<NumaArray<u32>>,
    /// Out-degrees of the partition's vertices (local indexing).
    deg: NumaArray<u32>,
    /// Application data slices (local indexing).
    curr: NumaAtomicArray<V>,
    next: NumaAtomicArray<V>,
    /// Active-state bitmaps over the partition (local indexing).
    state: DenseBitmap,
    next_state: DenseBitmap,
    updated: DenseBitmap,
    /// Outgoing update buffer (capacity = partition's edge count).
    uout_dst: NumaAtomicArray<u32>,
    uout_val: NumaAtomicArray<V>,
    /// Incoming update buffer (capacity = partition's in-edge count).
    uin_dst: NumaAtomicArray<u32>,
    uin_val: NumaAtomicArray<V>,
}

/// Calls `visit(ctx, li, units)` for every active source `li` of one
/// partition, in ascending order, and charges the state tests the modelled
/// system makes: one load of `li`'s state word per unit in
/// `unit(li)..unit(li + 1)` (`li`'s edge records in the raw layout, `li`
/// itself in the compressed one), active or not.
///
/// The host charges each word once for all the units of its 64 sources
/// ([`DenseBitmap::word_repeat`]) and skips a zero word in O(1). Each
/// allocation still sees the access sequence of a per-unit test, and that
/// is all its statistics depend on, so phase costs are bit-identical. A
/// context that keeps access order ([`AccessCtx::keeps_access_order`]) gets
/// the per-unit interleaving itself: one state test per unit, then `visit`
/// with that one unit.
fn walk_active_sources(
    state: &DenseBitmap,
    ctx: &mut AccessCtx,
    unit: impl Fn(usize) -> usize,
    mut visit: impl FnMut(&mut AccessCtx, usize, Range<usize>),
) {
    let len = state.len();
    if ctx.keeps_access_order() {
        for li in 0..len {
            for u in unit(li)..unit(li + 1) {
                if state.word_repeat(ctx, li / 64, 1) & (1u64 << (li % 64)) != 0 {
                    visit(ctx, li, u..u + 1);
                }
            }
        }
        return;
    }
    for w in 0..state.num_words() {
        let lo = w * 64;
        let hi = (lo + 64).min(len);
        let k = unit(hi) - unit(lo);
        if k == 0 {
            continue;
        }
        let mut bits = state.word_repeat(ctx, w, k);
        while bits != 0 {
            let li = lo + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            visit(ctx, li, unit(li)..unit(li + 1));
        }
    }
}

/// The X-Stream-like engine.
#[derive(Clone, Debug, Default)]
pub struct XStreamEngine;

impl XStreamEngine {
    /// A new engine.
    pub fn new() -> Self {
        XStreamEngine
    }
}

impl Engine for XStreamEngine {
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
        let identity = prog.next_identity();
        let sc = prog.scatter_cycles();
        let topo = machine.topology();

        // Construction: one streaming partition per thread, all of its data
        // bound to the processing thread's node (the tiling strategy).
        let ranges = polymer_graph::vertex_balanced_ranges(n, threads);
        let mut parts: Vec<Part<P::Val>> = Vec::with_capacity(threads);
        for (p, range) in ranges.iter().enumerate() {
            let node = topo.node_of_core(p);
            let pol = || AllocPolicy::OnNode(node);
            let len = range.len();
            // Edges with source in this partition, in CSR order.
            let mut src = Vec::new();
            let mut dst = Vec::new();
            let mut wts = Vec::new();
            let mut first = Vec::with_capacity(len + 1);
            for v in range.clone() {
                first.push(src.len());
                for (&t, &w) in g
                    .out_neighbors(v as VId)
                    .iter()
                    .zip(g.out_weights(v as VId))
                {
                    src.push(v as u32);
                    dst.push(t);
                    wts.push(w);
                }
            }
            first.push(src.len());
            let in_edges: usize = range.clone().map(|v| g.in_degree(v as VId)).sum();
            let ecount = src.len();
            let edges = if machine.spec().compressed_topology && !prog.uses_weights() {
                let mut coffs = vec![0u64];
                let mut bytes = Vec::new();
                for v in range.clone() {
                    polymer_graph::encode_list(v as u32, g.out_neighbors(v as VId), &mut bytes);
                    coffs.push(bytes.len() as u64);
                }
                PartEdges::Compressed(CompressedLists::from_encoded(
                    machine,
                    "topo/edges",
                    coffs,
                    bytes,
                    pol(),
                    pol(),
                ))
            } else {
                PartEdges::Raw {
                    e_src: machine.alloc_array_with("topo/e_src", ecount, pol(), |i| src[i]),
                    e_dst: machine.alloc_array_with("topo/e_dst", ecount, pol(), |i| dst[i]),
                    first,
                }
            };
            parts.push(Part {
                range: range.clone(),
                edges,
                e_w: if prog.uses_weights() {
                    Some(machine.alloc_array_with("topo/e_w", ecount, pol(), |i| wts[i]))
                } else {
                    None
                },
                deg: machine.alloc_array_with("topo/deg", len, pol(), |i| {
                    g.out_degree((range.start + i) as VId) as u32
                }),
                curr: machine.alloc_atomic_with("data/curr", len, pol(), |i| {
                    prog.init((range.start + i) as VId)
                }),
                next: machine.alloc_atomic_with("data/next", len, pol(), |_| identity),
                state: DenseBitmap::new(machine, "stat/curr", len, pol()),
                next_state: DenseBitmap::new(machine, "stat/next", len, pol()),
                updated: DenseBitmap::new(machine, "stat/updated", len, pol()),
                uout_dst: machine.alloc_atomic::<u32>("buf/uout_dst", ecount, pol()),
                uout_val: machine.alloc_atomic::<P::Val>("buf/uout_val", ecount, pol()),
                uin_dst: machine.alloc_atomic::<u32>("buf/uin_dst", in_edges, pol()),
                uin_val: machine.alloc_atomic::<P::Val>("buf/uin_val", in_edges, pol()),
            });
        }
        let part_of = |v: usize| -> usize {
            // Balanced ranges are uniform; derive the partition arithmetically
            // and fix up boundary rounding.
            let mut p = (v * threads / n.max(1)).min(threads - 1);
            while v < ranges[p].start {
                p -= 1;
            }
            while v >= ranges[p].end {
                p += 1;
            }
            p
        };

        let parts = parts;
        // Initial states.
        if recovery.resume().is_none() {
            match prog.initial_frontier() {
                FrontierInit::All => {
                    for part in &parts {
                        for i in 0..part.range.len() {
                            part.state.set_unaccounted(i);
                        }
                    }
                }
                FrontierInit::Single(s) => {
                    let p = part_of(s as usize);
                    parts[p]
                        .state
                        .set_unaccounted(s as usize - parts[p].range.start);
                }
            }
        }
        let mut active: u64 = parts.iter().map(|p| p.state.count_ones() as u64).sum();

        let mut driver =
            IterationDriver::new(machine, threads, BarrierKind::Hierarchical, traced, n);

        if let Some(ck) = recovery.resume() {
            // Rebuild the per-partition state bitmaps and restore each
            // partition's value slice through a charged "restore" sweep
            // (each thread rewrites its own partition locally).
            for &v in &ck.frontier.vertices {
                let p = part_of(v as usize);
                parts[p]
                    .state
                    .set_unaccounted(v as usize - parts[p].range.start);
            }
            active = ck.frontier.vertices.len() as u64;
            // Each thread rewrites only its own partition — shard-pure.
            driver.sim().run_phase_split(
                "restore",
                |tid, ctx| {
                    let part = &parts[tid];
                    part.curr.store_seq(ctx, 0..part.range.len(), |i| {
                        ck.values[part.range.start + i]
                    });
                },
                |_tid, _ctx, ()| {},
            );
            driver.resume_at(ck.iteration);
        }

        // Host-side per-iteration bookkeeping.
        let mut uout_len = vec![0usize; threads];
        let mut uin_len = vec![0usize; threads];

        driver.run_recoverable(
            prog.max_iters(),
            &mut active,
            recovery,
            |a| *a > 0,
            |sim, iters, active| {
                // Scatter: stream ALL edges of each partition; active sources
                // append updates to Uout.
                let mut histograms = vec![vec![0usize; threads]; threads];
                {
                    let histograms = &mut histograms;
                    let uout_len = &mut uout_len;
                    // Scatter touches only the partition's own data and its
                    // own Uout buffer — shard-pure; the routing histogram and
                    // cursor travel through the payload.
                    sim.run_phase_split(
                        "scatter",
                        |tid, ctx| {
                            let part = &parts[tid];
                            let mut row = vec![0usize; threads];
                            // Updates append to Uout at a run-coalesced cursor.
                            let mut uout_d = part.uout_dst.seq_writer(0);
                            let mut uout_v = part.uout_val.seq_writer(0);
                            match &part.edges {
                                PartEdges::Raw {
                                    e_src,
                                    e_dst,
                                    first,
                                } => {
                                    let ecount = e_src.len();
                                    // X-Stream streams whole edge *records* —
                                    // source, target and weight are read for
                                    // every edge regardless of the source's
                                    // state (the stream is oblivious to the
                                    // frontier; that obliviousness is exactly
                                    // what makes sparse-frontier iterations
                                    // pathological). The unconditional
                                    // full-range sweeps go through the bulk
                                    // accounting path.
                                    let srcs = e_src.load_range(ctx, 0..ecount);
                                    let dsts = e_dst.load_range(ctx, 0..ecount);
                                    let wts =
                                        part.e_w.as_ref().map(|ws| ws.load_range(ctx, 0..ecount));
                                    // X-Stream's edge list is unordered (it
                                    // never sorts or groups edges — that is the
                                    // system's core design trade-off), so the
                                    // modelled system tests the source's state
                                    // and, for an active source, loads its
                                    // value and degree once per edge record:
                                    // nothing is register-cached across edges.
                                    // The model charges exactly that; the host
                                    // charges it a state word at a time.
                                    walk_active_sources(
                                        &part.state,
                                        ctx,
                                        |li| first[li],
                                        |ctx, li, edges| {
                                            let s = (part.range.start + li) as u32;
                                            let sv = part.curr.load_repeat(ctx, li, edges.len());
                                            let deg = part.deg.get_repeat(ctx, li, edges.len());
                                            for e in edges {
                                                debug_assert_eq!(srcs[e], s);
                                                let t = dsts[e];
                                                let w = wts.map_or(1, |ws| ws[e]);
                                                let c = prog.scatter(s as VId, sv, w, deg);
                                                ctx.charge_cycles(sc);
                                                uout_d.push(ctx, t);
                                                uout_v.push(ctx, c);
                                                row[part_of(t as usize)] += 1;
                                            }
                                        },
                                    );
                                }
                                PartEdges::Compressed(lists) => {
                                    // Grouped lists gate on the state bit once
                                    // per vertex and skip inactive vertices'
                                    // encoded bytes entirely; active lists are
                                    // billed by encoded size. Update order is
                                    // unchanged (CSR order), so values are
                                    // bit-identical to raw mode.
                                    walk_active_sources(
                                        &part.state,
                                        ctx,
                                        |li| li,
                                        |ctx, li, _| {
                                            let s = (part.range.start + li) as u32;
                                            let sv = part.curr.load(ctx, li);
                                            let deg = part.deg.get(ctx, li);
                                            for t in DeltaDecoder::new(s, lists.list(ctx, li)) {
                                                let c = prog.scatter(s as VId, sv, 1, deg);
                                                ctx.charge_cycles(sc);
                                                uout_d.push(ctx, t);
                                                uout_v.push(ctx, c);
                                                row[part_of(t as usize)] += 1;
                                            }
                                        },
                                    );
                                }
                            }
                            uout_d.flush(ctx);
                            uout_v.flush(ctx);
                            let len = uout_d.pos();
                            (row, len)
                        },
                        |tid, _ctx, (row, len)| {
                            histograms[tid] = row;
                            uout_len[tid] = len;
                        },
                    );
                }
                sim.charge_barrier();

                // Shuffle: route Uout entries to the target partition's Uin.
                // Reserved offset ranges come from the scatter histograms, so
                // each (source, target) stream writes sequentially.
                let mut cursors = vec![vec![0usize; threads]; threads]; // [src][dst]
                for q in 0..threads {
                    let mut off = 0usize;
                    for (p, hist) in histograms.iter().enumerate() {
                        cursors[p][q] = off;
                        off += hist[q];
                    }
                    uin_len[q] = off;
                }
                {
                    // The compute half reads the reserved start offsets; the
                    // publish half overwrites them with the final cursor
                    // positions — snapshot the starts so the borrows don't
                    // overlap.
                    let starts = cursors.clone();
                    let starts = &starts;
                    let cursors = &mut cursors;
                    // Shuffle writes other partitions' Uin buffers, but at
                    // offset ranges reserved by the scatter histograms —
                    // disjoint across threads, and nothing reads Uin until
                    // the gather. Shard-pure; final cursor positions travel
                    // through the payload.
                    sim.run_phase_split(
                        "shuffle",
                        |tid, ctx| {
                            let part = &parts[tid];
                            // Uout drains front to back — a bulk sequential
                            // read.
                            let t_it = part.uout_dst.iter_seq(ctx, 0..uout_len[tid]);
                            let v_it = part.uout_val.iter_seq(ctx, 0..uout_len[tid]);
                            // Each (source, target-partition) stream writes its
                            // reserved Uin slots sequentially: one coalesced
                            // append cursor per target.
                            let mut uin_d: Vec<_> = (0..threads)
                                .map(|q| parts[q].uin_dst.seq_writer(starts[tid][q]))
                                .collect();
                            let mut uin_v: Vec<_> = (0..threads)
                                .map(|q| parts[q].uin_val.seq_writer(starts[tid][q]))
                                .collect();
                            for (t, v) in t_it.zip(v_it) {
                                let q = part_of(t as usize);
                                uin_d[q].push(ctx, t);
                                uin_v[q].push(ctx, v);
                            }
                            let mut ends = vec![0usize; threads];
                            for q in 0..threads {
                                uin_d[q].flush(ctx);
                                uin_v[q].flush(ctx);
                                ends[q] = uin_d[q].pos();
                            }
                            ends
                        },
                        |tid, _ctx, ends| cursors[tid] = ends,
                    );
                }
                sim.charge_barrier();

                // Gather: fold Uin into next, then apply updated vertices.
                let mut alive_count = vec![0u64; threads];
                {
                    let alive_count = &mut alive_count;
                    // Gather folds only the partition's own Uin into its own
                    // `next` slice — shard-pure. The partition's tid is the
                    // only writer of its `next`, `updated` and `next_state`
                    // allocations, so every update is a plain
                    // read-modify-write.
                    sim.run_phase_split(
                        "gather",
                        |tid, ctx| {
                            let part = &parts[tid];
                            // Uin drains front to back — a bulk sequential read.
                            let t_it = part.uin_dst.iter_seq(ctx, 0..uin_len[tid]);
                            let v_it = part.uin_val.iter_seq(ctx, 0..uin_len[tid]);
                            for (t, v) in t_it.zip(v_it) {
                                let li = t as usize - part.range.start;
                                // Combine/state targets arrive in update order, not
                                // sequentially — scalar path.
                                polymer_api::serial_combine(prog, &part.next, ctx, li, v);
                                part.updated.set_unshared(ctx, li);
                            }
                            // Apply pass: the word scan is a dense sequential sweep
                            // (bulk); the per-bit value accesses depend on which
                            // bits are set — scalar.
                            let mut alive = 0u64;
                            let nwords = part.updated.num_words();
                            for (w, word) in part.updated.words_seq(ctx, 0..nwords).enumerate() {
                                let mut word = word;
                                while word != 0 {
                                    let b = word.trailing_zeros() as usize;
                                    word &= word - 1;
                                    let li = w * 64 + b;
                                    let acc = part.next.load(ctx, li);
                                    let cv = part.curr.load(ctx, li);
                                    let (val, live) =
                                        prog.apply((part.range.start + li) as VId, acc, cv);
                                    part.curr.store(ctx, li, val);
                                    part.next.store(ctx, li, identity);
                                    if live {
                                        part.next_state.set_unshared(ctx, li);
                                        alive += 1;
                                    }
                                }
                            }
                            alive
                        },
                        |tid, _ctx, alive| alive_count[tid] = alive,
                    );
                }
                sim.charge_barrier();

                // Roll state bitmaps forward word-by-word (buffer reuse,
                // unaccounted maintenance; interior mutation keeps `parts`
                // shared with the checkpoint closure).
                for part in &parts {
                    for w in 0..part.state.num_words() {
                        part.state.raw_store_word(w, part.next_state.raw_word(w));
                        part.next_state.raw_store_word(w, 0);
                    }
                    part.updated.clear_unaccounted();
                }
                *active = alive_count.iter().sum();
                // Divergence scan over the partitioned value arrays.
                if P::Val::CHECK_FINITE {
                    for part in &parts {
                        for i in 0..part.range.len() {
                            if !part.curr.raw_load(i).finite() {
                                return Err(PolymerError::Divergence {
                                    vertex: part.range.start + i,
                                    iteration: iters,
                                });
                            }
                        }
                    }
                }
                Ok(())
            },
            |sim, _active| {
                // Charged checkpoint sweep: each thread streams its own
                // partition's value slice (local, coalesced), concatenated
                // in partition order = global vertex order.
                let mut slices: Vec<Vec<P::Val>> = vec![Vec::new(); threads];
                {
                    let slices = &mut slices;
                    // Each thread reads only its own partition — shard-pure.
                    sim.run_phase_split(
                        "checkpoint",
                        |tid, ctx| {
                            let part = &parts[tid];
                            part.curr
                                .iter_seq(ctx, 0..part.range.len())
                                .collect::<Vec<P::Val>>()
                        },
                        |tid, _ctx, vals| slices[tid] = vals,
                    );
                }
                let mut verts: Vec<VId> = Vec::new();
                for part in &parts {
                    verts.extend(part.state.iter_set().map(|i| (part.range.start + i) as VId));
                }
                let degree = verts.iter().map(|&v| g.out_degree(v) as u64).sum();
                (slices.concat(), FrontierSnapshot::dense(verts, degree))
            },
        )?;

        // Snapshot values in global order.
        let mut values = Vec::with_capacity(n);
        for part in &parts {
            for i in 0..part.range.len() {
                values.push(part.curr.raw_load(i));
            }
        }

        Ok(driver.finish(values))
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
        let got = XStreamEngine::new().run(&m, 4, g, prog);
        let (want, _) = run_reference(g, prog);
        assert_eq!(got.values, want);
    }

    #[test]
    fn bfs_matches_reference() {
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
        let got = XStreamEngine::new().run(&m, 4, &g, &prog);
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
        let got = XStreamEngine::new().run(&m, 2, &g, &prog);
        let (want, _) = run_reference(&g, &prog);
        let err = polymer_algos::reference::max_rel_error(&got.values, &want);
        assert!(err < 1e-9, "max rel error {err}");
    }

    #[test]
    fn uses_more_memory_than_graph_alone() {
        // The stream buffers should dominate: Uout + Uin ≈ 2 extra copies of
        // the edge data (paper Table 5: X-Stream consumes the most).
        let el = gen::rmat(10, 16_000, gen::RMAT_GRAPH500, 2);
        let g = Graph::from_edges(&el);
        let prog = PageRank::new(g.num_vertices());
        let m = Machine::new(MachineSpec::test2());
        let r = XStreamEngine::new().run(&m, 4, &g, &prog);
        let bufs = r.memory.tag_peak("buf");
        assert!(bufs > 0);
        let topo = r.memory.tag_peak("topo");
        assert!(bufs as f64 > 0.8 * topo as f64, "bufs {bufs} topo {topo}");
    }

    #[test]
    fn single_vertex_frontier_still_scans_all_edges() {
        // The roadUS pathology: per-iteration cost is edge-bound even with
        // one active vertex.
        let el = gen::road_grid(24, 24, 0.6, 1);
        let g = Graph::from_edges(&el);
        let m = Machine::new(MachineSpec::test2());
        let r = XStreamEngine::new().run(&m, 4, &g, &Bfs::new(0));
        // Accesses must be at least edges × iterations (source-state checks).
        let total = r.total_cost().count_local + r.total_cost().count_remote;
        assert!(
            total as usize > g.num_edges() * r.iterations / 2,
            "total {total}, edges {} iters {}",
            g.num_edges(),
            r.iterations
        );
    }

    /// Values and everything the simulated clock shows of one traced run:
    /// iterations, simulated seconds, the total phase cost and every
    /// phase's per-socket counters.
    fn observe<P: Program>(spec: &MachineSpec, threads: usize, g: &Graph, prog: &P) -> String
    where
        P::Val: std::fmt::Debug,
    {
        let m = Machine::new(spec.clone());
        let r = XStreamEngine::new().run_traced(&m, threads, g, prog);
        format!(
            "{:?} {} {} {:?} {:?}",
            r.values,
            r.iterations,
            r.seconds().to_bits(),
            r.total_cost(),
            r.trace()
        )
    }

    /// With bulk accounting off the scatter charges in the literal per-edge
    /// order (a state test per edge record, value and degree per edge of an
    /// active source); with it on, a state word at a time. Both must give
    /// the same phase costs, trace and values.
    fn assert_word_walk_matches_per_edge_walk<P: Program>(
        what: &str,
        g: &Graph,
        prog: &P,
        threads: &[usize],
    ) where
        P::Val: std::fmt::Debug,
    {
        for compressed in [false, true] {
            let spec = MachineSpec::intel80().with_compressed_topology(compressed);
            for &t in threads {
                let per_edge = observe(&spec.clone().with_bulk_accounting(false), t, g, prog);
                let by_word = observe(&spec, t, g, prog);
                assert_eq!(
                    per_edge, by_word,
                    "{what}, {t} threads, compressed={compressed}"
                );
            }
        }
    }

    #[test]
    fn word_walk_charges_what_the_per_edge_walk_charges() {
        // 203 vertices: no thread count here splits them into multiples of
        // 64; 300 edges leave many sinks, so active sources of out-degree 0
        // and all-zero state words are common on BFS and SSSP.
        let g = Graph::from_edges(&gen::uniform(203, 300, 17));
        let sink = (0..203u32).find(|&v| g.out_degree(v) == 0).expect("a sink");
        let hub = (0..203u32).max_by_key(|&v| g.out_degree(v)).unwrap();
        let threads = [1, 3, 7];
        assert_word_walk_matches_per_edge_walk("BFS", &g, &Bfs::new(hub), &threads);
        // A lone active vertex of out-degree 0: one iteration, no updates.
        assert_word_walk_matches_per_edge_walk("BFS from a sink", &g, &Bfs::new(sink), &threads);
        assert_word_walk_matches_per_edge_walk("SSSP", &g, &Sssp::new(hub), &threads);
        let pr = PageRank::new(g.num_vertices());
        assert_word_walk_matches_per_edge_walk("PageRank", &g, &pr, &threads);
        let mut sym = gen::uniform(203, 300, 5);
        sym.symmetrize();
        let sym = Graph::from_edges(&sym);
        let cc = ConnectedComponents::new();
        assert_word_walk_matches_per_edge_walk("CC", &sym, &cc, &threads);
        // A high-diameter grid: long runs of near-empty frontiers.
        let road = Graph::from_edges(&gen::road_grid(20, 13, 0.6, 2));
        assert_word_walk_matches_per_edge_walk("road BFS", &road, &Bfs::new(0), &threads);
        assert_word_walk_matches_per_edge_walk("road SSSP", &road, &Sssp::new(0), &threads);
        // More threads than vertices: empty partitions.
        let tiny = Graph::from_edges(&gen::uniform(5, 9, 3));
        assert_word_walk_matches_per_edge_walk("tiny BFS", &tiny, &Bfs::new(0), &[7]);
        assert_word_walk_matches_per_edge_walk("tiny SSSP", &tiny, &Sssp::new(0), &[7]);
    }
}
