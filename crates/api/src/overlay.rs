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
//! [`OverlayTopo::in_stream`] and the segment streams merge the three
//! sources in sorted neighbour order, charging every constituent read: the
//! base offset pair and neighbour run (at the resident representation's
//! size), the per-vertex flag byte and — when flagged — the mask run, and
//! the delta offset pair plus delta endpoint/weight runs. Simulated
//! `PhaseCosts` therefore show the true price of reading through an
//! overlay: slightly more traffic per sweep than the static path, which is
//! the bandwidth argument for threshold compaction. The out and in sides
//! share one body per accessor (whole-vertex and segment streams are the
//! same one: a whole vertex is the segment `lo..hi` carrying the delta run)
//! over a private per-direction view; the public names only pick the side.
//!
//! An overlay is a placed copy of one state of the graph: after any batch
//! it no longer matches, and after a compaction its *base* arrays — the
//! [`polymer_numa::CompressedLists`] encoding and every page→node
//! placement map — describe a CSR that no longer exists. Rebuild it with
//! [`OverlayTopo::build`].

use polymer_graph::{MutableGraph, VId, Weight};
use polymer_numa::{AccessCtx, AllocPolicy, Machine, NumaArray};

use crate::exec::{Adj, NeighborStream, TopoArrays};

/// Placed base topology plus placed mutation overlay. See the module docs.
pub struct OverlayTopo {
    /// The placed base topology (shared representation with the static
    /// engines, including compression when enabled).
    pub base: TopoArrays,
    out: DirOverlay,
    inc: DirOverlay,
    /// Live out-degree of every vertex (base − tombstoned + inserted).
    pub live_out_deg: NumaArray<u32>,
    n: usize,
}

/// One direction of the overlay: the delta CSR (out) or CSC (in) holding the
/// overlay inserts, and the tombstones over that direction's base edge array.
struct DirOverlay {
    off: NumaArray<u64>,
    adj: NumaArray<u32>,
    w: Option<NumaArray<u32>>,
    /// Per-vertex "has tombstones" flag bytes and the mask aligned with the
    /// base edge array, so unaffected vertices pay one flag byte, not a mask
    /// run. `None` while the overlay holds no tombstone.
    tomb: Option<(NumaArray<u8>, NumaArray<u8>)>,
}

fn place<T: Copy>(
    machine: &Machine,
    policy: &impl Fn(&str) -> AllocPolicy,
    name: &str,
    len: usize,
    init: impl FnMut(usize) -> T,
) -> NumaArray<T> {
    machine.alloc_array_with(name, len, policy(name), init)
}

impl DirOverlay {
    /// Place one direction's insert lists as `topo/delta_{dir}_off`,
    /// `topo/delta_{dir}_{end}` and, with weights, `topo/delta_{dir}_w`.
    fn place_inserts<'l>(
        machine: &Machine,
        policy: &impl Fn(&str) -> AllocPolicy,
        [dir, end]: [&str; 2],
        n: usize,
        with_weights: bool,
        inserts: impl Fn(VId) -> &'l [(VId, Weight)],
    ) -> Self {
        let mut off = vec![0u64; n + 1];
        let (mut adj, mut w) = (Vec::new(), Vec::new());
        for v in 0..n {
            for &(x, wt) in inserts(v as VId) {
                adj.push(x);
                w.push(wt);
            }
            off[v + 1] = adj.len() as u64;
        }
        let name = |part: &str| format!("topo/delta_{dir}_{part}");
        let edges = adj.len().max(1);
        DirOverlay {
            off: place(machine, policy, &name("off"), n + 1, |i| off[i]),
            adj: place(machine, policy, &name(end), edges, |i| {
                *adj.get(i).unwrap_or(&0)
            }),
            w: with_weights.then(|| {
                place(machine, policy, &name("w"), edges, |i| {
                    *w.get(i).unwrap_or(&0)
                })
            }),
            tomb: None,
        }
    }

    /// Place this direction's tombstones as `topo/tomb_flag_{dir}` and
    /// `topo/tomb_{dir}`: `offsets` and `adj` are the base CSR (or CSC),
    /// `dead(v)` the tombstoned neighbours of `v`.
    fn place_tombstones<'l>(
        &mut self,
        machine: &Machine,
        policy: &impl Fn(&str) -> AllocPolicy,
        dir: &str,
        (offsets, adj): (&[usize], &[VId]),
        dead: impl Fn(VId) -> &'l [VId],
    ) {
        let n = offsets.len() - 1;
        let mut flag = vec![0u8; n];
        let mut mask = vec![0u8; adj.len()];
        for v in 0..n {
            let (lo, hi) = (offsets[v], offsets[v + 1]);
            for d in dead(v as VId) {
                let k = adj[lo..hi]
                    .binary_search(d)
                    .expect("tombstone names a base edge");
                mask[lo + k] = 1;
                flag[v] = 1;
            }
        }
        let (flag_name, mask_name) = (format!("topo/tomb_flag_{dir}"), format!("topo/tomb_{dir}"));
        self.tomb = Some((
            place(machine, policy, &flag_name, n, |i| flag[i]),
            place(machine, policy, &mask_name, mask.len().max(1), |i| {
                *mask.get(i).unwrap_or(&0)
            }),
        ));
    }
}

/// Everything a merged stream of one direction reads: that direction's base
/// arrays and its overlay. Every out/in accessor pair of [`OverlayTopo`] is
/// one method here, over [`OverlayTopo::out_dir`] or [`OverlayTopo::in_dir`].
#[derive(Clone, Copy)]
struct Dir<'s> {
    off: &'s NumaArray<u64>,
    adj: &'s Adj,
    w: Option<&'s NumaArray<u32>>,
    ov: &'s DirOverlay,
}

impl<'s> Dir<'s> {
    /// Accounted merged stream of `v`'s live edges: the planned segment
    /// `seg`, or the whole vertex (base positions from the offset pair, delta
    /// run included) when `None`. Charges, in this order: base offset pair,
    /// base neighbour sub-run (+ weight sub-run), tombstone flag byte (+ mask
    /// sub-run when flagged) and — for a delta-carrying segment — the delta
    /// offset pair (+ endpoint/weight runs when non-empty).
    #[inline]
    fn stream(
        self,
        ctx: &mut AccessCtx,
        v: usize,
        seg: Option<OutSegment>,
    ) -> MergedTopoStream<'s> {
        let pair = self.off.load_range(ctx, v..v + 2);
        let (lo, hi, delta) = match seg {
            Some(s) => (s.lo as usize, s.hi as usize, s.delta),
            None => (pair[0] as usize, pair[1] as usize, true),
        };
        let base = self.adj.stream(ctx, v, lo, hi);
        let base_w = self.w.map(|w| w.load_range(ctx, lo..hi));
        let mask = match &self.ov.tomb {
            Some((flag, mask)) if flag.load_range(ctx, v..v + 1)[0] != 0 => {
                Some(mask.load_range(ctx, lo..hi))
            }
            _ => None,
        };
        let (mut ins, mut ins_w): (&[u32], _) = (&[], None);
        if delta {
            let dpair = self.ov.off.load_range(ctx, v..v + 2);
            let (dlo, dhi) = (dpair[0] as usize, dpair[1] as usize);
            if dlo < dhi {
                ins = self.ov.adj.load_range(ctx, dlo..dhi);
                ins_w = self.ov.w.as_ref().map(|w| w.load_range(ctx, dlo..dhi));
            }
        }
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

    /// Split the merged adjacencies of `items` into segments of at most
    /// `grain` base entries; the first segment of each vertex also carries
    /// its delta-insert run. A compressed neighbour stream cannot start
    /// mid-list (delta decoding is cumulative), so every vertex stays one
    /// whole segment there — same behaviour as vertex-level chunking.
    fn plan(self, items: &[VId], grain: usize) -> Vec<OutSegment> {
        let grain = u32::try_from(grain.max(1)).unwrap_or(u32::MAX);
        let (off, doff) = (self.off.raw(), self.ov.off.raw());
        let step = match self.adj {
            Adj::Raw(_) => grain,
            Adj::Compressed(_) => u32::MAX,
        };
        let mut segs = Vec::with_capacity(items.len());
        for &v in items {
            let (lo, hi) = (off[v as usize] as u32, off[v as usize + 1] as u32);
            let dwidth = (doff[v as usize + 1] - doff[v as usize]) as u32;
            let mut s = lo;
            loop {
                let e = hi.min(s.saturating_add(step));
                let delta = s == lo;
                segs.push(OutSegment {
                    v,
                    lo: s,
                    hi: e,
                    delta,
                    weight: e - s + if delta { dwidth } else { 0 },
                });
                s = e;
                if s >= hi {
                    break;
                }
            }
        }
        segs
    }
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
        let (m, p) = (machine, &policy);
        let mut out = DirOverlay::place_inserts(m, p, ["out", "dst"], n, with_weights, |v| {
            log.inserts_out(v)
        });
        let mut inc =
            DirOverlay::place_inserts(m, p, ["in", "src"], n, with_weights, |v| log.inserts_in(v));
        if log.num_tombstones() > 0 {
            let (csr, csc) = (
                (g.out_offsets(), g.out_targets()),
                (g.in_offsets(), g.in_sources()),
            );
            out.place_tombstones(m, p, "out", csr, |v| log.tombstones_out(v));
            inc.place_tombstones(m, p, "in", csc, |v| log.tombstones_in(v));
        }
        let live_out_deg = place(m, p, "topo/live_deg", n, |v| {
            mg.live_out_degree(v as VId) as u32
        });
        OverlayTopo {
            base,
            out,
            inc,
            live_out_deg,
            n,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    fn out_dir(&self) -> Dir<'_> {
        Dir {
            off: &self.base.out_off,
            adj: &self.base.out_adj,
            w: self.base.out_w.as_ref(),
            ov: &self.out,
        }
    }

    fn in_dir(&self) -> Dir<'_> {
        Dir {
            off: &self.base.in_off,
            adj: &self.base.in_adj,
            w: self.base.in_w.as_ref(),
            ov: &self.inc,
        }
    }

    /// Accounted merged stream of `v`'s live in-edges as `(src, weight)`
    /// in increasing `src` order (weight 1 when built without weights).
    /// Charges: base offset pair + neighbour run (+ weight run), tombstone
    /// flag byte (+ mask run when flagged), delta offset pair (+
    /// endpoint/weight runs when non-empty).
    pub fn in_stream(&self, ctx: &mut AccessCtx, v: usize) -> MergedTopoStream<'_> {
        self.in_dir().stream(ctx, v, None)
    }

    /// Live out-degree of `v`, unaccounted (work planning).
    pub fn raw_live_out_degree(&self, v: usize) -> usize {
        self.live_out_deg.raw()[v] as usize
    }

    /// Unaccounted (work planning): split the merged out-adjacencies of
    /// `items` into segments of at most `grain` base entries, so one
    /// high-degree vertex can spread across many threads instead of
    /// serializing a whole scatter round behind a single hub scan. The
    /// first segment of each vertex also carries its delta-insert run;
    /// over a compressed base every vertex stays one whole segment.
    pub fn plan_out_segments(&self, items: &[VId], grain: usize) -> Vec<OutSegment> {
        self.out_dir().plan(items, grain)
    }

    /// Unaccounted (work planning): the in-side mirror of
    /// [`OverlayTopo::plan_out_segments`].
    pub fn plan_in_segments(&self, items: &[VId], grain: usize) -> Vec<OutSegment> {
        self.in_dir().plan(items, grain)
    }

    /// Accounted merged stream over one planned segment of `v`'s live
    /// out-edges ([`OverlayTopo::plan_out_segments`]). Charges mirror
    /// [`OverlayTopo::in_stream`]'s, restricted to the segment: the offset
    /// pair, the base neighbour/weight sub-runs, the tombstone flag byte
    /// (+ mask sub-run when flagged), and — only for the delta-carrying
    /// segment — the delta offset pair and endpoint/weight runs.
    pub fn out_stream_segment(&self, ctx: &mut AccessCtx, seg: OutSegment) -> MergedTopoStream<'_> {
        self.out_dir().stream(ctx, seg.v as usize, Some(seg))
    }

    /// Accounted merged stream over one planned segment of `v`'s live
    /// in-edges ([`OverlayTopo::plan_in_segments`]); the in-side mirror of
    /// [`OverlayTopo::out_stream_segment`].
    pub fn in_stream_segment(&self, ctx: &mut AccessCtx, seg: OutSegment) -> MergedTopoStream<'_> {
        self.in_dir().stream(ctx, seg.v as usize, Some(seg))
    }

    /// Simulated bytes one full out+in sweep moves through the merged
    /// neighbour storage (base representation + delta endpoints), for
    /// reporting.
    pub fn neighbor_sweep_bytes(&self) -> usize {
        let delta = 2 * (self.out.adj.len() + self.inc.adj.len()) * std::mem::size_of::<u32>();
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

impl MergedTopoStream<'_> {
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

    /// Vertex 0 is an out-hub (five base edges, one deleted, one reweighted,
    /// two inserted) and an in-hub (four base edges, one deleted, one
    /// inserted); 5 is untouched; 6 and 7 have overlay entries only.
    fn hub_graph() -> MutableGraph {
        let mut el = EdgeList::new(8);
        for v in 1..=5 {
            el.edges.push(Edge::weighted(0, v, 10 + v));
        }
        for v in 1..=4 {
            el.edges.push(Edge::weighted(v, 0, 20 + v));
        }
        el.edges.push(Edge::weighted(5, 4, 54));
        let mut mg = MutableGraph::from_edge_list(el).with_compaction_fraction(f64::INFINITY);
        let mut b = DeltaBatch::new();
        b.delete(0, 2).delete(3, 0).insert(0, 4, 99);
        b.insert(0, 6, 6).insert(0, 7, 7).insert(6, 0, 60);
        mg.apply(&b).unwrap();
        mg
    }

    #[test]
    fn merged_streams_match_host_view() {
        let mg = hub_graph();
        let machine = Machine::new(MachineSpec::test2());
        let topo = OverlayTopo::build(&machine, &mg, true, |_| AllocPolicy::Interleaved);
        let mut ctx = AccessCtx::new(&machine, 0);
        for v in 0..mg.num_vertices() {
            let host = mg.out_edges(v as VId);
            assert!(
                topo.out_dir().stream(&mut ctx, v, None).eq(host),
                "out-edges of {v}"
            );
            let host = mg.in_edges(v as VId);
            assert!(topo.in_stream(&mut ctx, v).eq(host), "in-edges of {v}");
        }
        assert_eq!(topo.raw_live_out_degree(0), 6);
    }

    /// One line per accessor call over every vertex of [`hub_graph`]: the
    /// pairs the stream yields and what it charged to each allocation.
    fn accessor_trace(spec: MachineSpec) -> String {
        use std::fmt::Write;
        let machine = Machine::new(spec);
        let topo = OverlayTopo::build(&machine, &hub_graph(), true, |_| AllocPolicy::Interleaved);
        let mut ctx = AccessCtx::new(&machine, 0);
        let mut trace = String::new();
        let mut note = |call: String, stream: MergedTopoStream<'_>, ctx: &mut AccessCtx| {
            write!(trace, "{call} -> {:?}", stream.collect::<Vec<_>>()).unwrap();
            for (id, lines) in ctx.take_stats().iter_arrays() {
                let tallies = || lines.iter().flat_map(|(_, l)| l.0.iter().flatten());
                let bytes: u64 = tallies().map(|t| t.bytes).sum();
                let count: u64 = tallies().map(|t| t.count).sum();
                write!(trace, " {}:{bytes}B/{count}", machine.alloc_name(id)).unwrap();
            }
            trace.push('\n');
        };
        for v in 0..8 {
            note(
                format!("out {v}"),
                topo.out_dir().stream(&mut ctx, v, None),
                &mut ctx,
            );
            note(format!("in {v}"), topo.in_stream(&mut ctx, v), &mut ctx);
            for seg in topo.plan_out_segments(&[v as VId], 2) {
                let stream = topo.out_stream_segment(&mut ctx, seg);
                note(format!("out {seg:?}"), stream, &mut ctx);
            }
            for seg in topo.plan_in_segments(&[v as VId], 2) {
                let stream = topo.in_stream_segment(&mut ctx, seg);
                note(format!("in {seg:?}"), stream, &mut ctx);
            }
        }
        trace
    }

    #[test]
    fn overlay_reads_are_charged() {
        let machine = Machine::new(MachineSpec::test2());
        let topo = OverlayTopo::build(&machine, &hub_graph(), false, |_| AllocPolicy::Interleaved);
        let mut ctx = AccessCtx::new(&machine, 0);
        // Built without weights, every edge yields weight 1 and no weight
        // run is read. Vertex 0 has tombstones: offset pairs (base + delta,
        // 2×16B), base run (5×4B), flag (1B), mask run (5B, aligned with the
        // base run), delta run (3×4B).
        let out0: Vec<(u32, u32)> = topo.out_dir().stream(&mut ctx, 0, None).collect();
        assert_eq!(out0, [1, 3, 4, 5, 6, 7].map(|d| (d, 1)));
        assert_eq!(ctx.take_stats().total_bytes(), 16 + 16 + 20 + 1 + 5 + 12);

        // Every accessor, both directions, raw and compressed base: FNV-1a of
        // the trace, recorded from the six hand-mirrored accessor bodies this
        // file had before they were written once.
        let compressed = MachineSpec::test2().with_compressed_topology(true);
        for (spec, want) in [
            (MachineSpec::test2(), 16_047_947_188_442_098_061u64),
            (compressed, 3_681_014_020_461_813_587u64),
        ] {
            let trace = accessor_trace(spec);
            let hash = trace.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            });
            assert_eq!(hash, want, "accessor yields or charges moved:\n{trace}");
        }
    }
}
