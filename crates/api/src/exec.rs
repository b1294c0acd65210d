//! Shared engine-execution helpers: value-array setup, combine dispatch,
//! and work chunking. Engines differ in layout and access strategy; the
//! mechanics below are common.

use std::ops::Range;

use polymer_faults::{PolymerError, PolymerResult};
use polymer_graph::{CompressedAdjacency, DeltaDecoder, Graph, VId};
use polymer_numa::{
    AccessCtx, AllocPolicy, Atom, CompressedLists, Machine, NumaArray, NumaAtomicArray,
};

use crate::program::Program;

/// Per-iteration divergence scan: a no-op for integer value types, and for
/// float types ([`Atom::CHECK_FINITE`]) an unaccounted sweep of `curr` that
/// turns the first NaN/±inf into [`PolymerError::Divergence`] instead of
/// letting a diverging computation iterate to its cap. `iteration` only
/// labels the error.
pub fn check_divergence<T: Atom>(curr: &NumaAtomicArray<T>, iteration: usize) -> PolymerResult<()> {
    if !T::CHECK_FINITE {
        return Ok(());
    }
    for v in 0..curr.len() {
        if !curr.raw_load(v).finite() {
            return Err(PolymerError::Divergence {
                vertex: v,
                iteration,
            });
        }
    }
    Ok(())
}

/// One adjacency array (CSR targets or CSC sources): either the raw `u32`
/// neighbour array or its delta/varint-compressed form, chosen at build time
/// by the machine spec's `compressed_topology`.
pub(crate) enum Adj {
    Raw(NumaArray<u32>),
    Compressed(CompressedLists),
}

/// Accounted neighbour-id stream yielded by [`TopoArrays::out_dst_stream`] /
/// [`TopoArrays::in_src_stream`]: the raw path iterates an already-charged
/// `u32` slice, the compressed path decodes an already-charged encoded byte
/// run on the fly. Either way the ids come out in identical order.
pub enum NeighborStream<'a> {
    /// Borrowed slice of the raw neighbour array.
    Raw(std::iter::Copied<std::slice::Iter<'a, u32>>),
    /// Streaming decoder over the encoded payload.
    Compressed(DeltaDecoder<'a>),
}

impl Iterator for NeighborStream<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match self {
            NeighborStream::Raw(it) => it.next(),
            NeighborStream::Compressed(it) => it.next(),
        }
    }
}

impl Adj {
    /// Accounted stream of list `v`'s neighbour ids, edge range `lo..hi`.
    /// Raw: one coalesced `u32` read run. Compressed: one offset-pair read
    /// plus one coalesced run over the *encoded* bytes.
    #[inline]
    pub(crate) fn stream<'s>(
        &'s self,
        ctx: &mut AccessCtx,
        v: usize,
        lo: usize,
        hi: usize,
    ) -> NeighborStream<'s> {
        match self {
            Adj::Raw(arr) => NeighborStream::Raw(arr.load_range(ctx, lo..hi).iter().copied()),
            Adj::Compressed(cl) => {
                NeighborStream::Compressed(DeltaDecoder::new(v as VId, cl.list(ctx, v)))
            }
        }
    }

    /// Simulated bytes one full sweep of this adjacency moves.
    fn sweep_bytes(&self) -> usize {
        match self {
            Adj::Raw(arr) => arr.len() * std::mem::size_of::<u32>(),
            Adj::Compressed(cl) => cl.encoded_bytes(),
        }
    }
}

/// The flat CSR/CSC topology arrays of Figure 1, placed by a per-array
/// policy. Used by the NUMA-oblivious baselines; the Polymer engine builds
/// its own per-node partitioned topology instead. The neighbour arrays are
/// stored raw or delta/varint-compressed depending on the machine spec's
/// `compressed_topology` at build time; engines traverse them
/// through [`TopoArrays::out_dst_stream`] / [`TopoArrays::in_src_stream`],
/// which charge whichever representation is resident.
pub struct TopoArrays {
    /// CSR offsets (`n + 1` entries).
    pub out_off: NumaArray<u64>,
    /// CSR edge targets (raw or compressed).
    pub(crate) out_adj: Adj,
    /// CSR edge weights (present when the program uses weights).
    pub out_w: Option<NumaArray<u32>>,
    /// CSC offsets (`n + 1` entries).
    pub in_off: NumaArray<u64>,
    /// CSC edge sources (raw or compressed).
    pub(crate) in_adj: Adj,
    /// Out-degree of each in-edge's source, aligned with the CSC edge order —
    /// pull loops read it sequentially with the edge instead of randomly from
    /// the vertex metadata (the real systems pack adjacency metadata this
    /// way).
    pub in_src_deg: NumaArray<u32>,
    /// CSC edge weights.
    pub in_w: Option<NumaArray<u32>>,
    /// Out-degrees (vertex metadata).
    pub out_deg: NumaArray<u32>,
}

impl TopoArrays {
    /// Copy a host graph into placed arrays. `policy(name)` chooses the
    /// placement per array (the baselines pass interleaved for everything).
    pub fn build(
        machine: &Machine,
        g: &Graph,
        with_weights: bool,
        policy: impl Fn(&str) -> AllocPolicy,
    ) -> Self {
        let n = g.num_vertices();
        let out_off =
            machine.alloc_array_with("topo/out_off", n + 1, policy("topo/out_off"), |i| {
                g.out_offsets()[i] as u64
            });
        let in_off = machine.alloc_array_with("topo/in_off", n + 1, policy("topo/in_off"), |i| {
            g.in_offsets()[i] as u64
        });
        let (out_adj, in_adj) = if machine.spec().compressed_topology {
            let out_c = CompressedAdjacency::out_edges(g);
            let in_c = CompressedAdjacency::in_edges(g);
            (
                Adj::Compressed(CompressedLists::from_encoded(
                    machine,
                    "topo/out_dst",
                    out_c.offs,
                    out_c.bytes,
                    policy("topo/out_off"),
                    policy("topo/out_dst"),
                )),
                Adj::Compressed(CompressedLists::from_encoded(
                    machine,
                    "topo/in_src",
                    in_c.offs,
                    in_c.bytes,
                    policy("topo/in_off"),
                    policy("topo/in_src"),
                )),
            )
        } else {
            (
                Adj::Raw(machine.alloc_array_with(
                    "topo/out_dst",
                    g.num_edges(),
                    policy("topo/out_dst"),
                    |i| g.out_targets()[i],
                )),
                Adj::Raw(machine.alloc_array_with(
                    "topo/in_src",
                    g.num_edges(),
                    policy("topo/in_src"),
                    |i| g.in_sources()[i],
                )),
            )
        };
        let in_src_deg = machine.alloc_array_with(
            "topo/in_src_deg",
            g.num_edges(),
            policy("topo/in_src_deg"),
            |i| g.out_degree(g.in_sources()[i]) as u32,
        );
        let out_deg = machine.alloc_array_with("topo/degrees", n, policy("topo/degrees"), |v| {
            g.out_degree(v as VId) as u32
        });
        let (out_w, in_w) = if with_weights {
            (
                Some(machine.alloc_array_with(
                    "topo/out_w",
                    g.num_edges(),
                    policy("topo/out_w"),
                    |i| g.out_edge_weights()[i],
                )),
                Some(machine.alloc_array_with(
                    "topo/in_w",
                    g.num_edges(),
                    policy("topo/in_w"),
                    |i| g.in_edge_weights()[i],
                )),
            )
        } else {
            (None, None)
        };
        TopoArrays {
            out_off,
            out_adj,
            out_w,
            in_off,
            in_adj,
            in_src_deg,
            in_w,
            out_deg,
        }
    }

    /// Accounted stream of vertex `v`'s out-neighbour targets, edge range
    /// `lo..hi` (from `out_off`), charged at the resident representation's
    /// size.
    #[inline]
    pub fn out_dst_stream<'s>(
        &'s self,
        ctx: &mut AccessCtx,
        v: usize,
        lo: usize,
        hi: usize,
    ) -> NeighborStream<'s> {
        self.out_adj.stream(ctx, v, lo, hi)
    }

    /// Accounted stream of vertex `v`'s in-neighbour sources, edge range
    /// `lo..hi` (from `in_off`), charged at the resident representation's
    /// size.
    #[inline]
    pub fn in_src_stream<'s>(
        &'s self,
        ctx: &mut AccessCtx,
        v: usize,
        lo: usize,
        hi: usize,
    ) -> NeighborStream<'s> {
        self.in_adj.stream(ctx, v, lo, hi)
    }

    /// Simulated bytes one full out-edge plus in-edge sweep moves through
    /// the neighbour arrays (raw `u32`s or encoded payload), for reporting.
    pub fn neighbor_sweep_bytes(&self) -> usize {
        self.out_adj.sweep_bytes() + self.in_adj.sweep_bytes()
    }
}

/// Allocate and initialize the `curr` and `next` application-data arrays
/// with the given placements. Initialization models the construction stage
/// (unaccounted), as the paper's timings exclude it.
pub fn init_values<P: Program>(
    machine: &Machine,
    g: &Graph,
    prog: &P,
    curr_policy: AllocPolicy,
    next_policy: AllocPolicy,
) -> (NumaAtomicArray<P::Val>, NumaAtomicArray<P::Val>) {
    let n = g.num_vertices();
    let curr =
        machine.alloc_atomic_with::<P::Val>("data/curr", n, curr_policy, |v| prog.init(v as VId));
    let identity = prog.next_identity();
    let next = machine.alloc_atomic_with::<P::Val>("data/next", n, next_policy, |_| identity);
    (curr, next)
}

/// Fold contribution `c` into `arr[i]` with the program's combine operator,
/// accounted, for code that is the only writer of `arr[i]` while it runs: a
/// shard's own cells in the compute half of
/// [`SimExecutor::run_phase_split`](polymer_numa::SimExecutor::run_phase_split)
/// (`docs/SIMULATOR.md` §7), or any cell in the serial `publish` half.
/// Records the single write transaction an atomic read-modify-write
/// records and leaves the same value behind
/// ([`Combine::fold`](crate::Combine::fold) is the host form of the same
/// operator), without the compare-exchange loop an `f64` combine costs.
#[inline]
pub fn serial_combine<P: Program>(
    prog: &P,
    arr: &NumaAtomicArray<P::Val>,
    ctx: &mut AccessCtx,
    i: usize,
    c: P::Val,
) {
    arr.store(ctx, i, prog.combine().fold(arr.raw_load(i), c));
}

/// Charged checkpoint sweep: every simulated thread streams its even chunk
/// of `arr` through the bulk accessor (one coalesced read run per thread),
/// so the snapshot's cost appears in `PhaseCosts` as a `"checkpoint"` phase.
/// Returns the full value vector in index order.
pub fn charged_values_snapshot<T: Atom>(
    sim: &mut polymer_numa::SimExecutor,
    threads: usize,
    arr: &NumaAtomicArray<T>,
) -> Vec<T> {
    let chunks = even_chunks(arr.len(), threads.max(1));
    let mut parts: Vec<Vec<T>> = Vec::with_capacity(chunks.len());
    sim.run_phase_split(
        "checkpoint",
        |tid, ctx| arr.iter_seq(ctx, chunks[tid].clone()).collect::<Vec<T>>(),
        |_tid, _ctx, part| parts.push(part),
    );
    parts.concat()
}

/// Charged restore sweep, the inverse of [`charged_values_snapshot`]:
/// every simulated thread writes its even chunk of `values` into `arr`
/// (one coalesced write run per thread), charged as a `"restore"` phase.
pub fn charged_values_restore<T: Atom>(
    sim: &mut polymer_numa::SimExecutor,
    threads: usize,
    arr: &NumaAtomicArray<T>,
    values: &[T],
) {
    assert_eq!(values.len(), arr.len(), "restore value count mismatch");
    let chunks = even_chunks(arr.len(), threads.max(1));
    sim.run_phase_split(
        "restore",
        |tid, ctx| arr.store_seq(ctx, chunks[tid].clone(), |i| values[i]),
        |_, _, ()| {},
    );
}

/// Split `0..n` into `parts` equal chunks (vertex-oblivious work division).
pub fn even_chunks(n: usize, parts: usize) -> Vec<Range<usize>> {
    (0..parts)
        .map(|p| (p * n / parts)..((p + 1) * n / parts))
        .collect()
}

/// Split a sparse item list into `parts` contiguous chunks balanced by the
/// items' degrees (Ligra parallelizes edge work, not just vertex counts).
/// Returns index ranges into `items`.
pub fn degree_balanced_chunks(
    items: &[VId],
    degree_of: impl Fn(VId) -> usize,
    parts: usize,
) -> Vec<Range<usize>> {
    weight_balanced_chunks(items, |&v| degree_of(v), parts)
}

/// Generalization of [`degree_balanced_chunks`] to any item type with a
/// per-item weight (e.g. adjacency segments weighted by their edge span).
pub fn weight_balanced_chunks<T>(
    items: &[T],
    weight_of: impl Fn(&T) -> usize,
    parts: usize,
) -> Vec<Range<usize>> {
    let total: usize = items.iter().map(|it| weight_of(it) + 1).sum();
    let mut cuts = Vec::with_capacity(parts + 1);
    cuts.push(0usize);
    let mut acc = 0usize;
    let mut i = 0usize;
    for p in 1..parts {
        let target = p * total / parts;
        while i < items.len() && acc < target {
            acc += weight_of(&items[i]) + 1;
            i += 1;
        }
        cuts.push(i);
    }
    cuts.push(items.len());
    (0..parts).map(|p| cuts[p]..cuts[p + 1]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Combine;

    /// A program that is nothing but its combine operator over `T`.
    struct Folder<T>(Combine, std::marker::PhantomData<T>);

    impl<T: Atom + PartialEq + std::fmt::Debug> Program for Folder<T> {
        type Val = T;
        fn name(&self) -> &'static str {
            "fold"
        }
        fn combine(&self) -> Combine {
            self.0
        }
        fn next_identity(&self) -> T {
            T::zero()
        }
        fn init(&self, _: VId) -> T {
            T::zero()
        }
        fn scatter(&self, _: VId, v: T, _: polymer_graph::Weight, _: u32) -> T {
            v
        }
        fn apply(&self, _: VId, acc: T, _: T) -> (T, bool) {
            (acc, false)
        }
        fn initial_frontier(&self) -> crate::FrontierInit {
            crate::FrontierInit::All
        }
        fn max_iters(&self) -> usize {
            1
        }
    }

    /// Replay `script` (slot, contribution) through `combine` on a fresh
    /// machine; return the final cells and the classified access statistics.
    fn replay<P: Program>(
        prog: &P,
        start: &[P::Val],
        script: &[(usize, P::Val)],
        combine: impl Fn(&P, &NumaAtomicArray<P::Val>, &mut AccessCtx, usize, P::Val),
    ) -> (Vec<P::Val>, polymer_numa::AccessStats) {
        let m = Machine::new(polymer_numa::MachineSpec::test2());
        let arr = m.alloc_atomic_with("cells", start.len(), AllocPolicy::Interleaved, |i| start[i]);
        let mut ctx = AccessCtx::new(&m, 0);
        for &(i, c) in script {
            combine(prog, &arr, &mut ctx, i, c);
        }
        (arr.snapshot(), ctx.take_stats())
    }

    /// The host atomic `serial_combine` stands in for: the combine
    /// operator's accounted `fetch_*` on the cell.
    fn fetch_combine<P: Program>(
        prog: &P,
        arr: &NumaAtomicArray<P::Val>,
        ctx: &mut AccessCtx,
        i: usize,
        c: P::Val,
    ) {
        match prog.combine() {
            Combine::Add => arr.fetch_add(ctx, i, c),
            Combine::Min => arr.fetch_min(ctx, i, c),
        };
    }

    #[test]
    fn serial_combine_matches_atomic_combine() {
        // 1024 cells span both nodes of `test2` (interleaved pages); the
        // script revisits cells, walks forward and jumps, so every
        // pattern × destination bucket is exercised.
        let slots: Vec<usize> = (0..400).map(|k| (k * 37 + (k % 5) * 211) % 1024).collect();
        for op in [Combine::Add, Combine::Min] {
            let f = Folder::<f64>(op, Default::default());
            let start: Vec<f64> = (0..1024).map(|i| 1.0 + i as f64 / 7.0).collect();
            let script: Vec<(usize, f64)> = slots
                .iter()
                .enumerate()
                .map(|(k, &i)| (i, 0.25 + (k % 13) as f64 / 3.0))
                .collect();
            let serial = replay(&f, &start, &script, serial_combine);
            let atomic = replay(&f, &start, &script, fetch_combine);
            assert_eq!(
                serial.0.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                atomic.0.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "f64 {op:?}"
            );
            assert_eq!(serial.1, atomic.1, "f64 {op:?} stats");

            let f = Folder::<u32>(op, Default::default());
            let start: Vec<u32> = (0..1024).map(|i| 0x4000_0000 + i as u32 * 9_001).collect();
            let script: Vec<(usize, u32)> = slots
                .iter()
                .enumerate()
                .map(|(k, &i)| (i, 0x7fff_0000u32.wrapping_mul(k as u32 + 3)))
                .collect();
            assert_eq!(
                replay(&f, &start, &script, serial_combine),
                replay(&f, &start, &script, fetch_combine),
                "u32 {op:?}"
            );

            let f = Folder::<u64>(op, Default::default());
            let start: Vec<u64> = (0..1024).map(|i| u64::MAX / 3 + i as u64 * 77).collect();
            let script: Vec<(usize, u64)> = slots
                .iter()
                .enumerate()
                .map(|(k, &i)| (i, (u64::MAX / 5).wrapping_mul(k as u64 + 2)))
                .collect();
            assert_eq!(
                replay(&f, &start, &script, serial_combine),
                replay(&f, &start, &script, fetch_combine),
                "u64 {op:?}"
            );
        }

        // Where `f64::min` and `<` part ways: a NaN cell offered 0.5, and
        // signed zeros offered each other (`f64::min` leaves their order
        // unspecified). The atomic keeps the cell in all three cases.
        let f = Folder::<f64>(Combine::Min, Default::default());
        let start = [f64::NAN, 0.0, 2.0, -0.0];
        let script = [(0, 0.5), (1, -0.0), (2, f64::NAN), (2, 1.0), (3, 0.0)];
        let serial = replay(&f, &start, &script, serial_combine);
        let atomic = replay(&f, &start, &script, fetch_combine);
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&serial.0), bits(&atomic.0), "f64 Min edge cells");
        assert_eq!(bits(&atomic.0), bits(&[f64::NAN, 0.0, 1.0, -0.0]));
    }

    #[test]
    fn even_chunks_cover() {
        let c = even_chunks(10, 3);
        assert_eq!(c, vec![0..3, 3..6, 6..10]);
        assert_eq!(even_chunks(2, 4).iter().map(|r| r.len()).sum::<usize>(), 2);
    }

    #[test]
    fn degree_chunks_balance_heavy_head() {
        // First item has degree 90, the rest degree 0.
        let items: Vec<VId> = (0..10).collect();
        let chunks = degree_balanced_chunks(&items, |v| if v == 0 { 90 } else { 0 }, 2);
        // The hub alone is (about) half the work.
        assert_eq!(chunks.len(), 2);
        assert!(chunks[0].len() <= 2, "head chunk {:?}", chunks[0]);
        assert_eq!(chunks[0].end, chunks[1].start);
        assert_eq!(chunks[1].end, 10);
    }

    #[test]
    fn degree_chunks_empty_input() {
        let chunks = degree_balanced_chunks(&[], |_| 1, 3);
        assert!(chunks.iter().all(|r| r.is_empty()));
    }
}
