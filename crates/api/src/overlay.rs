//! Placed delta-overlay topology: the base [`TopoArrays`] plus the
//! mutation overlay of a [`MutableGraph`], with merged adjacency iteration
//! charged faithfully through the bulk accessors.
//!
//! The base CSR/CSC keeps the exact representation the static engines use —
//! raw `u32` neighbour arrays or delta/varint-compressed lists, per the
//! machine's [`polymer_numa::MachineSpec::compressed_topology`]. The overlay
//! adds:
//!
//! * a small **delta CSR/CSC** (offsets + endpoints + weights) holding the
//!   overlay inserts, always raw — varint compression needs a whole-list
//!   re-encode, which is exactly what compaction does;
//! * per-base-edge **tombstone masks** (one byte per base edge) plus a
//!   per-vertex flag byte, allocated only when the overlay actually holds
//!   tombstones; the mask run is charged only for flagged vertices;
//! * a **live out-degree** array (base degree − tombstones + inserts),
//!   because scatter contributions divide by the *live* degree.
//!
//! [`OverlayTopo::out_stream`] / [`OverlayTopo::in_stream`] merge the three
//! sources in sorted neighbour order, charging every constituent read: the
//! base offset pair and neighbour run (at the resident representation's
//! size), the per-vertex flag byte and — when flagged — the mask run, and
//! the delta offset pair plus delta endpoint/weight runs. Simulated
//! `PhaseCosts` therefore show the true price of reading through an
//! overlay: slightly more traffic per sweep than the static path, which is
//! the bandwidth argument for threshold compaction.
//!
//! Staleness: the overlay snapshots the mutable graph's `epoch` and
//! `generation`. [`OverlayTopo::is_stale`] tells a resident holder (the
//! serve layer) when its placed copy no longer matches — in particular,
//! after a compaction (`generation` bump) the *base* arrays themselves are
//! stale, and rebuilding re-encodes the [`polymer_numa::CompressedLists`]
//! and re-creates every page→node placement map; serving from the old
//! encoding is the staleness bug the regression suite pins.

use polymer_graph::{MutableGraph, VId};
use polymer_numa::{AccessCtx, AllocPolicy, Machine, NumaArray};

use crate::exec::{NeighborStream, TopoArrays};

/// Placed base topology plus placed mutation overlay. See the module docs.
pub struct OverlayTopo {
    /// The placed base topology (shared representation with the static
    /// engines, including compression when enabled).
    pub base: TopoArrays,
    d_out_off: NumaArray<u64>,
    d_out_dst: NumaArray<u32>,
    d_out_w: Option<NumaArray<u32>>,
    d_in_off: NumaArray<u64>,
    d_in_src: NumaArray<u32>,
    d_in_w: Option<NumaArray<u32>>,
    tomb: Option<TombArrays>,
    /// Live out-degree of every vertex (base − tombstoned + inserted).
    pub live_out_deg: NumaArray<u32>,
    epoch: u64,
    generation: u64,
    n: usize,
    live_edges: usize,
}

/// Tombstone masks aligned with the base edge arrays, plus per-vertex
/// "has tombstones" flags so unaffected vertices pay one flag byte, not a
/// mask run.
struct TombArrays {
    flag_out: NumaArray<u8>,
    mask_out: NumaArray<u8>,
    flag_in: NumaArray<u8>,
    mask_in: NumaArray<u8>,
}

impl OverlayTopo {
    /// Place `mg`'s base and overlay into instrumented memory.
    /// Construction models the (unaccounted) build stage, like
    /// [`TopoArrays::build`]; `policy(name)` chooses per-array placement.
    pub fn build(
        machine: &Machine,
        mg: &MutableGraph,
        with_weights: bool,
        policy: impl Fn(&str) -> AllocPolicy,
    ) -> Self {
        let g = mg.base();
        let n = g.num_vertices();
        let base = TopoArrays::build(machine, g, with_weights, &policy);
        let log = mg.log();

        // Delta CSR (overlay inserts, out direction).
        let mut doff = vec![0u64; n + 1];
        for v in 0..n {
            doff[v + 1] = doff[v] + log.inserts_out(v as VId).len() as u64;
        }
        let d_edges = doff[n] as usize;
        let mut ddst = Vec::with_capacity(d_edges);
        let mut dw = Vec::with_capacity(d_edges);
        for v in 0..n {
            for &(d, w) in log.inserts_out(v as VId) {
                ddst.push(d);
                dw.push(w);
            }
        }
        let d_out_off = machine.alloc_array_with(
            "topo/delta_out_off",
            n + 1,
            policy("topo/delta_out_off"),
            |i| doff[i],
        );
        let d_out_dst = machine.alloc_array_with(
            "topo/delta_out_dst",
            d_edges.max(1),
            policy("topo/delta_out_dst"),
            |i| *ddst.get(i).unwrap_or(&0),
        );
        let d_out_w = with_weights.then(|| {
            machine.alloc_array_with(
                "topo/delta_out_w",
                d_edges.max(1),
                policy("topo/delta_out_w"),
                |i| *dw.get(i).unwrap_or(&0),
            )
        });

        // Delta CSC (overlay inserts, in direction).
        let mut dioff = vec![0u64; n + 1];
        for v in 0..n {
            dioff[v + 1] = dioff[v] + log.inserts_in(v as VId).len() as u64;
        }
        let mut dsrc = Vec::with_capacity(d_edges);
        let mut diw = Vec::with_capacity(d_edges);
        for v in 0..n {
            for &(s, w) in log.inserts_in(v as VId) {
                dsrc.push(s);
                diw.push(w);
            }
        }
        let d_in_off = machine.alloc_array_with(
            "topo/delta_in_off",
            n + 1,
            policy("topo/delta_in_off"),
            |i| dioff[i],
        );
        let d_in_src = machine.alloc_array_with(
            "topo/delta_in_src",
            d_edges.max(1),
            policy("topo/delta_in_src"),
            |i| *dsrc.get(i).unwrap_or(&0),
        );
        let d_in_w = with_weights.then(|| {
            machine.alloc_array_with(
                "topo/delta_in_w",
                d_edges.max(1),
                policy("topo/delta_in_w"),
                |i| *diw.get(i).unwrap_or(&0),
            )
        });

        // Tombstone masks, aligned with the base edge arrays.
        let tomb = (log.num_tombstones() > 0).then(|| {
            let m = g.num_edges();
            let mut mask_out = vec![0u8; m];
            let mut flag_out = vec![0u8; n];
            let mut mask_in = vec![0u8; m];
            let mut flag_in = vec![0u8; n];
            for v in 0..n as VId {
                let lo = g.out_offsets()[v as usize];
                for &dead in log.tombstones_out(v) {
                    let k = g
                        .out_neighbors(v)
                        .binary_search(&dead)
                        .expect("tombstone names a base edge");
                    mask_out[lo + k] = 1;
                    flag_out[v as usize] = 1;
                }
                let lo = g.in_offsets()[v as usize];
                for &dead in log.tombstones_in(v) {
                    let k = g
                        .in_neighbors(v)
                        .binary_search(&dead)
                        .expect("tombstone names a base edge");
                    mask_in[lo + k] = 1;
                    flag_in[v as usize] = 1;
                }
            }
            TombArrays {
                flag_out: machine.alloc_array_with(
                    "topo/tomb_flag_out",
                    n,
                    policy("topo/tomb_flag_out"),
                    |i| flag_out[i],
                ),
                mask_out: machine.alloc_array_with(
                    "topo/tomb_out",
                    m.max(1),
                    policy("topo/tomb_out"),
                    |i| *mask_out.get(i).unwrap_or(&0),
                ),
                flag_in: machine.alloc_array_with(
                    "topo/tomb_flag_in",
                    n,
                    policy("topo/tomb_flag_in"),
                    |i| flag_in[i],
                ),
                mask_in: machine.alloc_array_with(
                    "topo/tomb_in",
                    m.max(1),
                    policy("topo/tomb_in"),
                    |i| *mask_in.get(i).unwrap_or(&0),
                ),
            }
        });

        let live_out_deg =
            machine.alloc_array_with("topo/live_deg", n, policy("topo/live_deg"), |v| {
                mg.live_out_degree(v as VId) as u32
            });

        OverlayTopo {
            base,
            d_out_off,
            d_out_dst,
            d_out_w,
            d_in_off,
            d_in_src,
            d_in_w,
            tomb,
            live_out_deg,
            epoch: mg.epoch(),
            generation: mg.generation(),
            n,
            live_edges: mg.num_live_edges(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of live (merged) edges.
    pub fn num_live_edges(&self) -> usize {
        self.live_edges
    }

    /// Epoch of the [`MutableGraph`] this overlay was placed from.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Generation (compaction counter) this overlay was placed from.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether the placed copy no longer matches `mg`: any newer batch
    /// (epoch) means the delta arrays are stale; a newer generation means
    /// the *base* arrays — including any compressed encoding and every
    /// page→node placement map — are stale and must be rebuilt.
    pub fn is_stale(&self, mg: &MutableGraph) -> bool {
        self.epoch != mg.epoch() || self.generation != mg.generation()
    }

    /// Accounted merged stream of `v`'s live out-edges as
    /// `(dst, weight)` in increasing `dst` order (weight 1 when built
    /// without weights). Charges: base offset pair + neighbour run (+
    /// weight run), tombstone flag byte (+ mask run when flagged), delta
    /// offset pair (+ endpoint/weight runs when non-empty).
    pub fn out_stream<'s>(&'s self, ctx: &mut AccessCtx, v: usize) -> MergedTopoStream<'s> {
        let pair = self.base.out_off.load_range(ctx, v..v + 2);
        let (lo, hi) = (pair[0] as usize, pair[1] as usize);
        let base = self.base.out_dst_stream(ctx, v, lo, hi);
        let base_w = self.base.out_w.as_ref().map(|w| w.load_range(ctx, lo..hi));
        let mask = match &self.tomb {
            Some(t) if t.flag_out.load_range(ctx, v..v + 1)[0] != 0 => {
                Some(t.mask_out.load_range(ctx, lo..hi))
            }
            _ => None,
        };
        let dpair = self.d_out_off.load_range(ctx, v..v + 2);
        let (dlo, dhi) = (dpair[0] as usize, dpair[1] as usize);
        let (ins, ins_w) = if dlo < dhi {
            (
                self.d_out_dst.load_range(ctx, dlo..dhi),
                self.d_out_w.as_ref().map(|w| w.load_range(ctx, dlo..dhi)),
            )
        } else {
            (&[][..], None)
        };
        MergedTopoStream::new(base, base_w, mask, ins, ins_w)
    }

    /// Accounted merged stream of `v`'s live in-edges as `(src, weight)`
    /// in increasing `src` order. Mirror of [`OverlayTopo::out_stream`].
    pub fn in_stream<'s>(&'s self, ctx: &mut AccessCtx, v: usize) -> MergedTopoStream<'s> {
        let pair = self.base.in_off.load_range(ctx, v..v + 2);
        let (lo, hi) = (pair[0] as usize, pair[1] as usize);
        let base = self.base.in_src_stream(ctx, v, lo, hi);
        let base_w = self.base.in_w.as_ref().map(|w| w.load_range(ctx, lo..hi));
        let mask = match &self.tomb {
            Some(t) if t.flag_in.load_range(ctx, v..v + 1)[0] != 0 => {
                Some(t.mask_in.load_range(ctx, lo..hi))
            }
            _ => None,
        };
        let dpair = self.d_in_off.load_range(ctx, v..v + 2);
        let (dlo, dhi) = (dpair[0] as usize, dpair[1] as usize);
        let (ins, ins_w) = if dlo < dhi {
            (
                self.d_in_src.load_range(ctx, dlo..dhi),
                self.d_in_w.as_ref().map(|w| w.load_range(ctx, dlo..dhi)),
            )
        } else {
            (&[][..], None)
        };
        MergedTopoStream::new(base, base_w, mask, ins, ins_w)
    }

    /// Live out-degree of `v`, unaccounted (work planning).
    pub fn raw_live_out_degree(&self, v: usize) -> usize {
        self.live_out_deg.raw()[v] as usize
    }

    /// Unaccounted (work planning): split the merged out-adjacencies of
    /// `items` into segments of at most `grain` base entries, so one
    /// high-degree vertex can spread across many threads instead of
    /// serializing a whole scatter round behind a single hub scan. The
    /// first segment of each vertex also carries its delta-insert run.
    ///
    /// With the compressed base representation a neighbour stream cannot
    /// start mid-list (delta decoding is cumulative), so every vertex stays
    /// one whole segment there — same behaviour as vertex-level chunking.
    pub fn plan_out_segments(&self, items: &[VId], grain: usize) -> Vec<OutSegment> {
        let grain = grain.max(1);
        let off = self.base.out_off.raw();
        let doff = self.d_out_off.raw();
        let whole = self.base.is_compressed();
        let mut segs = Vec::with_capacity(items.len());
        for &v in items {
            let (lo, hi) = (off[v as usize] as u32, off[v as usize + 1] as u32);
            let dwidth = (doff[v as usize + 1] - doff[v as usize]) as u32;
            if whole || (hi - lo) as usize <= grain {
                segs.push(OutSegment {
                    v,
                    lo,
                    hi,
                    delta: true,
                    weight: hi - lo + dwidth,
                });
                continue;
            }
            let mut s = lo;
            while s < hi {
                let e = hi.min(s + grain as u32);
                segs.push(OutSegment {
                    v,
                    lo: s,
                    hi: e,
                    delta: s == lo,
                    weight: e - s + if s == lo { dwidth } else { 0 },
                });
                s = e;
            }
        }
        segs
    }

    /// Unaccounted (work planning): the in-side mirror of
    /// [`OverlayTopo::plan_out_segments`].
    pub fn plan_in_segments(&self, items: &[VId], grain: usize) -> Vec<OutSegment> {
        let grain = grain.max(1);
        let off = self.base.in_off.raw();
        let doff = self.d_in_off.raw();
        let whole = self.base.is_compressed();
        let mut segs = Vec::with_capacity(items.len());
        for &v in items {
            let (lo, hi) = (off[v as usize] as u32, off[v as usize + 1] as u32);
            let dwidth = (doff[v as usize + 1] - doff[v as usize]) as u32;
            if whole || (hi - lo) as usize <= grain {
                segs.push(OutSegment {
                    v,
                    lo,
                    hi,
                    delta: true,
                    weight: hi - lo + dwidth,
                });
                continue;
            }
            let mut s = lo;
            while s < hi {
                let e = hi.min(s + grain as u32);
                segs.push(OutSegment {
                    v,
                    lo: s,
                    hi: e,
                    delta: s == lo,
                    weight: e - s + if s == lo { dwidth } else { 0 },
                });
                s = e;
            }
        }
        segs
    }

    /// Accounted merged stream over one planned segment of `v`'s live
    /// in-edges ([`OverlayTopo::plan_in_segments`]); the in-side mirror of
    /// [`OverlayTopo::out_stream_segment`].
    pub fn in_stream_segment<'s>(
        &'s self,
        ctx: &mut AccessCtx,
        seg: OutSegment,
    ) -> MergedTopoStream<'s> {
        let v = seg.v as usize;
        if self.base.is_compressed() {
            // Plan guarantees whole-vertex segments here.
            return self.in_stream(ctx, v);
        }
        self.base.in_off.load_range(ctx, v..v + 2);
        let (lo, hi) = (seg.lo as usize, seg.hi as usize);
        let base = self.base.in_src_stream(ctx, v, lo, hi);
        let base_w = self.base.in_w.as_ref().map(|w| w.load_range(ctx, lo..hi));
        let mask = match &self.tomb {
            Some(t) if t.flag_in.load_range(ctx, v..v + 1)[0] != 0 => {
                Some(t.mask_in.load_range(ctx, lo..hi))
            }
            _ => None,
        };
        let (ins, ins_w) = if seg.delta {
            let dpair = self.d_in_off.load_range(ctx, v..v + 2);
            let (dlo, dhi) = (dpair[0] as usize, dpair[1] as usize);
            if dlo < dhi {
                (
                    self.d_in_src.load_range(ctx, dlo..dhi),
                    self.d_in_w.as_ref().map(|w| w.load_range(ctx, dlo..dhi)),
                )
            } else {
                (&[][..], None)
            }
        } else {
            (&[][..], None)
        };
        MergedTopoStream::new(base, base_w, mask, ins, ins_w)
    }

    /// Accounted merged stream over one planned segment of `v`'s live
    /// out-edges ([`OverlayTopo::plan_out_segments`]). Charges mirror
    /// [`OverlayTopo::out_stream`] restricted to the segment: the offset
    /// pair, the base neighbour/weight sub-runs, the tombstone flag byte
    /// (+ mask sub-run when flagged), and — only for the delta-carrying
    /// segment — the delta offset pair and endpoint/weight runs.
    pub fn out_stream_segment<'s>(
        &'s self,
        ctx: &mut AccessCtx,
        seg: OutSegment,
    ) -> MergedTopoStream<'s> {
        let v = seg.v as usize;
        if self.base.is_compressed() {
            // Plan guarantees whole-vertex segments here.
            return self.out_stream(ctx, v);
        }
        self.base.out_off.load_range(ctx, v..v + 2);
        let (lo, hi) = (seg.lo as usize, seg.hi as usize);
        let base = self.base.out_dst_stream(ctx, v, lo, hi);
        let base_w = self.base.out_w.as_ref().map(|w| w.load_range(ctx, lo..hi));
        let mask = match &self.tomb {
            Some(t) if t.flag_out.load_range(ctx, v..v + 1)[0] != 0 => {
                Some(t.mask_out.load_range(ctx, lo..hi))
            }
            _ => None,
        };
        let (ins, ins_w) = if seg.delta {
            let dpair = self.d_out_off.load_range(ctx, v..v + 2);
            let (dlo, dhi) = (dpair[0] as usize, dpair[1] as usize);
            if dlo < dhi {
                (
                    self.d_out_dst.load_range(ctx, dlo..dhi),
                    self.d_out_w.as_ref().map(|w| w.load_range(ctx, dlo..dhi)),
                )
            } else {
                (&[][..], None)
            }
        } else {
            (&[][..], None)
        };
        MergedTopoStream::new(base, base_w, mask, ins, ins_w)
    }

    /// Simulated bytes one full out+in sweep moves through the merged
    /// neighbour storage (base representation + delta endpoints), for
    /// reporting.
    pub fn neighbor_sweep_bytes(&self) -> usize {
        let delta = 2 * (self.d_out_dst.len() + self.d_in_src.len()) * std::mem::size_of::<u32>();
        self.base.neighbor_sweep_bytes() + delta
    }
}

/// One planned slice of a vertex's merged out-adjacency
/// ([`OverlayTopo::plan_out_segments`]): base edge positions `lo..hi`,
/// plus the vertex's whole delta-insert run when `delta` is set (exactly
/// one segment per vertex carries it).
#[derive(Clone, Copy, Debug)]
pub struct OutSegment {
    /// The vertex whose adjacency this segment slices.
    pub v: VId,
    /// Base edge-array start position (absolute, from the CSR offsets).
    pub lo: u32,
    /// Base edge-array end position (exclusive).
    pub hi: u32,
    /// Whether this segment also yields the vertex's delta inserts.
    pub delta: bool,
    /// Planning weight: base width plus delta width when carried.
    pub weight: u32,
}

/// Sorted merge of one vertex's live adjacency: base entries (minus
/// tombstones) interleaved with overlay inserts, yielding
/// `(neighbor, weight)`. All constituent reads were charged by the
/// [`OverlayTopo`] accessor that built this stream.
pub struct MergedTopoStream<'a> {
    base: NeighborStream<'a>,
    base_w: Option<&'a [u32]>,
    mask: Option<&'a [u8]>,
    /// Entries pulled from `base` so far (index for weights/mask).
    pulled: usize,
    peek: Option<(u32, u32)>,
    ins: &'a [u32],
    ins_w: Option<&'a [u32]>,
    ii: usize,
}

impl<'a> MergedTopoStream<'a> {
    fn new(
        base: NeighborStream<'a>,
        base_w: Option<&'a [u32]>,
        mask: Option<&'a [u8]>,
        ins: &'a [u32],
        ins_w: Option<&'a [u32]>,
    ) -> Self {
        MergedTopoStream {
            base,
            base_w,
            mask,
            pulled: 0,
            peek: None,
            ins,
            ins_w,
            ii: 0,
        }
    }

    fn pull_base(&mut self) {
        while self.peek.is_none() {
            match self.base.next() {
                None => return,
                Some(id) => {
                    let k = self.pulled;
                    self.pulled += 1;
                    if self.mask.is_some_and(|m| m[k] != 0) {
                        continue;
                    }
                    let w = self.base_w.map_or(1, |w| w[k]);
                    self.peek = Some((id, w));
                }
            }
        }
    }
}

impl Iterator for MergedTopoStream<'_> {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        self.pull_base();
        let ins = (self.ii < self.ins.len())
            .then(|| (self.ins[self.ii], self.ins_w.map_or(1, |w| w[self.ii])));
        match (self.peek, ins) {
            (None, None) => None,
            (Some(b), None) => {
                self.peek = None;
                Some(b)
            }
            (None, Some(i)) => {
                self.ii += 1;
                Some(i)
            }
            (Some(b), Some(i)) => {
                if b.0 < i.0 {
                    self.peek = None;
                    Some(b)
                } else {
                    // Equal ids cannot occur (a live base entry is never
                    // shadowed by an overlay insert); consume both
                    // defensively if they ever did.
                    self.ii += 1;
                    if b.0 == i.0 {
                        self.peek = None;
                    }
                    Some(i)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymer_graph::{DeltaBatch, Edge, EdgeList};
    use polymer_numa::MachineSpec;

    fn mutated() -> MutableGraph {
        // 0->1 (w 1), 0->2 (w 2), 1->2 (w 12), 2->3 (w 23); then delete
        // (0,2), insert (0,3) w 3 and (2,0) w 20, reweight (1,2) to 99.
        let mut el = EdgeList::new(4);
        el.push(Edge::weighted(0, 1, 1));
        el.push(Edge::weighted(0, 2, 2));
        el.push(Edge::weighted(1, 2, 12));
        el.push(Edge::weighted(2, 3, 23));
        let mut mg = MutableGraph::from_edge_list(el).with_compaction_fraction(f64::INFINITY);
        let mut b = DeltaBatch::new();
        b.delete(0, 2)
            .insert(0, 3, 3)
            .insert(2, 0, 20)
            .insert(1, 2, 99);
        mg.apply(&b).unwrap();
        mg
    }

    #[test]
    fn merged_streams_match_host_view() {
        let mg = mutated();
        let machine = Machine::new(MachineSpec::test2());
        let topo = OverlayTopo::build(&machine, &mg, true, |_| AllocPolicy::Interleaved);
        let mut ctx = AccessCtx::new(&machine, 0);
        for v in 0..mg.num_vertices() {
            let sim: Vec<(u32, u32)> = topo.out_stream(&mut ctx, v).collect();
            let host: Vec<(u32, u32)> = mg.out_edges(v as VId).collect();
            assert_eq!(sim, host, "out-edges of {v}");
            let sim: Vec<(u32, u32)> = topo.in_stream(&mut ctx, v).collect();
            let host: Vec<(u32, u32)> = mg.in_edges(v as VId).collect();
            assert_eq!(sim, host, "in-edges of {v}");
        }
        assert_eq!(topo.num_live_edges(), mg.num_live_edges());
        assert_eq!(topo.raw_live_out_degree(0), 2); // ->1, ->3
        assert!(!topo.is_stale(&mg));
    }

    #[test]
    fn unweighted_streams_yield_unit_weights() {
        let mg = mutated();
        let machine = Machine::new(MachineSpec::test2());
        let topo = OverlayTopo::build(&machine, &mg, false, |_| AllocPolicy::Interleaved);
        let mut ctx = AccessCtx::new(&machine, 0);
        let out0: Vec<(u32, u32)> = topo.out_stream(&mut ctx, 0).collect();
        assert_eq!(out0, vec![(1, 1), (3, 1)]);
    }

    #[test]
    fn overlay_reads_are_charged() {
        let mg = mutated();
        let machine = Machine::new(MachineSpec::test2());
        let topo = OverlayTopo::build(&machine, &mg, false, |_| AllocPolicy::Interleaved);
        let mut ctx = AccessCtx::new(&machine, 0);
        // Vertex 0 has a tombstone: offset pairs (base + delta, 2×16B),
        // base run (2×4B), flag (1B), mask run (2B... aligned with base
        // edges of v0 = 2 entries), delta run (1×4B).
        topo.out_stream(&mut ctx, 0).for_each(drop);
        let s = ctx.take_stats();
        assert_eq!(s.total_bytes(), 16 + 16 + 8 + 1 + 2 + 4);
    }

    #[test]
    fn staleness_tracks_epoch_and_generation() {
        let mut mg = mutated();
        let machine = Machine::new(MachineSpec::test2());
        let topo = OverlayTopo::build(&machine, &mg, false, |_| AllocPolicy::Interleaved);
        assert!(!topo.is_stale(&mg));
        let mut b = DeltaBatch::new();
        b.insert(3, 0, 1);
        mg.apply(&b).unwrap();
        assert!(topo.is_stale(&mg));
        let topo = OverlayTopo::build(&machine, &mg, false, |_| AllocPolicy::Interleaved);
        assert!(!topo.is_stale(&mg));
        mg.compact();
        assert!(topo.is_stale(&mg), "compaction must invalidate the overlay");
    }
}
