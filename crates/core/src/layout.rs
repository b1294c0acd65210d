//! Polymer's NUMA-aware graph layout (paper Section 4.2).
//!
//! For a machine with `N` nodes the vertex space is split into `N`
//! contiguous ranges (edge-balanced by default). Per node and direction:
//!
//! * **push**: the node holds every edge whose *target* it owns, grouped by
//!   source vertex. Each distinct source is represented by an *agent* — an
//!   immutable replica holding just the source's id, out-degree, and the
//!   offset of its local edge group ("the start of neighboring edges and
//!   the degree of the vertex"). Agents ascend by source id, so reading the
//!   global `curr` array while scanning them is sequential.
//! * **pull**: symmetrically, the node holds every edge whose *source* it
//!   owns, grouped by target; pull agents ascend by target id, so writes to
//!   the global `next` array are sequential.
//!
//! All topology and agent arrays are discrete node-local allocations
//! (`AllocPolicy::OnNode`); the application-data arrays are contiguous
//! virtual ranges with chunked physical placement (built by the engine).

use std::ops::{Range, RangeFrom};

use polymer_graph::{edge_balanced_ranges, vertex_balanced_ranges, DeltaDecoder, Graph, VId};
use polymer_numa::{AccessCtx, AllocPolicy, CompressedLists, Machine, NumaArray};

/// Storage for one direction's grouped edge endpoints: a raw `u32` array, or
/// delta/varint-encoded per-agent lists when the machine's spec sets
/// [`compressed_topology`](polymer_numa::MachineSpec::compressed_topology).
/// Compressed lists are anchored at the agent's own vertex id
/// and billed by *encoded* bytes through the charged accessors, so the
/// compression shows up as simulated bytes saved.
pub enum EndpointStore {
    /// One `u32` per edge, grouped by agent.
    Raw(NumaArray<u32>),
    /// Delta/varint-encoded lists (one per agent) plus the total edge count,
    /// which the encoding no longer stores explicitly.
    Compressed {
        /// The encoded lists with their byte offsets.
        lists: CompressedLists,
        /// Number of edges across all lists.
        edges: usize,
    },
}

impl EndpointStore {
    /// Number of edges stored (all agents together).
    pub fn len(&self) -> usize {
        match self {
            EndpointStore::Raw(arr) => arr.len(),
            EndpointStore::Compressed { edges, .. } => *edges,
        }
    }

    /// Whether the store holds no edges.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the endpoints are delta/varint-encoded.
    pub fn is_compressed(&self) -> bool {
        matches!(self, EndpointStore::Compressed { .. })
    }
}

/// Accounted stream over one agent's endpoints (no edge indices).
pub enum EndpointIter<'a> {
    /// Raw slice walk.
    Raw(std::iter::Copied<std::slice::Iter<'a, u32>>),
    /// Varint decode of an encoded list (decode itself is free; the encoded
    /// bytes were already charged when the list was fetched).
    Compressed(DeltaDecoder<'a>),
}

impl Iterator for EndpointIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match self {
            EndpointIter::Raw(it) => it.next(),
            EndpointIter::Compressed(it) => it.next(),
        }
    }
}

/// Accounted stream over one agent's endpoints as `(edge_index, endpoint)`
/// pairs. The edge index is exact in raw mode and in compressed mode with
/// weights (where it indexes the weight array); in compressed mode without
/// weights nothing consumes it and it starts at zero.
pub enum IndexedEndpointIter<'a> {
    /// Raw slice walk zipped with its edge range.
    Raw(std::iter::Zip<Range<usize>, std::iter::Copied<std::slice::Iter<'a, u32>>>),
    /// Varint decode zipped with edge indices from the agent's start offset.
    Compressed(std::iter::Zip<RangeFrom<usize>, DeltaDecoder<'a>>),
}

impl Iterator for IndexedEndpointIter<'_> {
    type Item = (usize, u32);

    #[inline]
    fn next(&mut self) -> Option<(usize, u32)> {
        match self {
            IndexedEndpointIter::Raw(it) => it.next(),
            IndexedEndpointIter::Compressed(it) => it.next(),
        }
    }
}

/// One direction's per-node edge structure: agents plus grouped edges.
pub struct DirLayout {
    /// Agent vertex ids, ascending (sources in push, targets in pull).
    pub agent_id: NumaArray<u32>,
    /// Agent out-degrees (the full graph out-degree, needed by `scatter`).
    pub agent_deg: NumaArray<u32>,
    /// Offsets into the edge arrays (`agents + 1` entries).
    pub agent_off: NumaArray<u32>,
    /// Dense map from vertex id to agent slot + 1 (0 = no local edges);
    /// used by sparse-frontier processing.
    pub agent_idx: NumaArray<u32>,
    /// Edge endpoints (targets in push, sources in pull), local to the node.
    pub endpoint: EndpointStore,
    /// Edge weights, when the program uses them.
    pub weight: Option<NumaArray<u32>>,
    /// Per-thread agent slices, balanced by edge count.
    pub slices: Vec<Range<usize>>,
}

impl DirLayout {
    /// Accounted stream of agent `a`'s endpoints plus, when the layout
    /// carries weights, the aligned bulk weight stream. `anchor` is the
    /// agent's vertex id (already read by the caller), which anchors the
    /// delta decode. Raw mode charges the `agent_off` pair, the endpoint run
    /// and the weight run — exactly what the engines charged when they read
    /// the arrays directly. Compressed mode charges the encoded offsets and
    /// bytes instead, and touches `agent_off` only if the weight array (raw,
    /// edge-indexed) still needs the edge range.
    pub fn agent_edges<'s>(
        &'s self,
        ctx: &mut AccessCtx,
        a: usize,
        anchor: VId,
    ) -> (
        EndpointIter<'s>,
        Option<std::iter::Copied<std::slice::Iter<'s, u32>>>,
    ) {
        match &self.endpoint {
            EndpointStore::Raw(arr) => {
                let lo = self.agent_off.get(ctx, a) as usize;
                let hi = self.agent_off.get(ctx, a + 1) as usize;
                let eps = EndpointIter::Raw(arr.load_range(ctx, lo..hi).iter().copied());
                let w = self
                    .weight
                    .as_ref()
                    .map(|ws| ws.load_range(ctx, lo..hi).iter().copied());
                (eps, w)
            }
            EndpointStore::Compressed { lists, .. } => {
                let w = self.weight.as_ref().map(|ws| {
                    let lo = self.agent_off.get(ctx, a) as usize;
                    let hi = self.agent_off.get(ctx, a + 1) as usize;
                    ws.load_range(ctx, lo..hi).iter().copied()
                });
                let eps = EndpointIter::Compressed(DeltaDecoder::new(anchor, lists.list(ctx, a)));
                (eps, w)
            }
        }
    }

    /// Accounted stream of agent `a`'s endpoints as `(edge_index, endpoint)`
    /// pairs, for callers that gate per-edge scalar accesses (pull). Charges
    /// like [`DirLayout::agent_edges`] but never streams weights in bulk.
    pub fn agent_edges_indexed<'s>(
        &'s self,
        ctx: &mut AccessCtx,
        a: usize,
        anchor: VId,
    ) -> IndexedEndpointIter<'s> {
        match &self.endpoint {
            EndpointStore::Raw(arr) => {
                let lo = self.agent_off.get(ctx, a) as usize;
                let hi = self.agent_off.get(ctx, a + 1) as usize;
                IndexedEndpointIter::Raw((lo..hi).zip(arr.load_range(ctx, lo..hi).iter().copied()))
            }
            EndpointStore::Compressed { lists, .. } => {
                let lo = if self.weight.is_some() {
                    self.agent_off.get(ctx, a) as usize
                } else {
                    0
                };
                IndexedEndpointIter::Compressed(
                    (lo..).zip(DeltaDecoder::new(anchor, lists.list(ctx, a))),
                )
            }
        }
    }

    /// Unaccounted copy of every endpoint in edge order (tests,
    /// verification).
    pub fn endpoint_values(&self) -> Vec<u32> {
        match &self.endpoint {
            EndpointStore::Raw(arr) => arr.raw().to_vec(),
            EndpointStore::Compressed { lists, edges } => {
                let mut out = Vec::with_capacity(*edges);
                for (slot, &v) in self.agent_id.raw().iter().enumerate() {
                    out.extend(DeltaDecoder::new(v, lists.raw_list(slot)));
                }
                out
            }
        }
    }
}

/// Everything one node owns.
pub struct NodeLayout {
    /// The contiguous vertex range this node owns.
    pub range: Range<usize>,
    /// Push-direction structure (edges targeting this node).
    pub push: DirLayout,
    /// Pull-direction structure (edges sourced from this node), when built.
    pub pull: Option<DirLayout>,
}

/// The full partitioned layout.
pub struct PolymerLayout {
    /// Per-node layouts, indexed by node id.
    pub nodes: Vec<NodeLayout>,
    /// Global out-degrees, contiguous-virtual with chunked placement.
    pub out_deg: NumaArray<u32>,
    /// Cached copy of the range boundaries for owner lookup.
    bounds: Vec<usize>,
    /// Whether placement is NUMA-aware (false = everything interleaved).
    numa_aware: bool,
}

impl PolymerLayout {
    /// Build the layout for `g` on `machine`. `threads_per_node[i]` is the
    /// number of worker threads bound to node `i` (the partition count is
    /// its length — only nodes that actually have threads own a partition).
    /// `balanced` selects edge-oriented balanced partitioning (Section 5);
    /// `with_pull` builds the pull-direction structures (skipped for
    /// push-only programs, saving agent memory); `with_weights` copies edge
    /// weights.
    pub fn build(
        machine: &Machine,
        g: &Graph,
        threads_per_node: &[usize],
        balanced: bool,
        with_pull: bool,
        with_weights: bool,
    ) -> Self {
        Self::build_with_placement(
            machine,
            g,
            threads_per_node,
            balanced,
            with_pull,
            with_weights,
            true,
        )
    }

    /// Like [`PolymerLayout::build`], with NUMA-aware placement optionally
    /// disabled: partitioning and agents stay (the computation is still
    /// factored), but every allocation is interleaved — isolating how much
    /// of Polymer's win comes from placement vs. from the algorithm
    /// structure (an extension ablation beyond the paper's Table 6).
    #[allow(clippy::too_many_arguments)]
    pub fn build_with_placement(
        machine: &Machine,
        g: &Graph,
        threads_per_node: &[usize],
        balanced: bool,
        with_pull: bool,
        with_weights: bool,
        numa_aware: bool,
    ) -> Self {
        let n = g.num_vertices();
        let nnodes = threads_per_node.len();
        assert!(nnodes >= 1, "need at least one partition");
        let mut ranges = if balanced {
            // Balance the direction-relevant work: in-degrees drive push
            // (edges live with their targets) and out-degrees drive pull;
            // their sum balances both within one vertex split.
            let work: Vec<u32> = (0..n)
                .map(|v| {
                    let v = v as VId;
                    (g.in_degree(v) + if with_pull { g.out_degree(v) } else { 0 }) as u32
                })
                .collect();
            edge_balanced_ranges(&work, nnodes)
        } else {
            vertex_balanced_ranges(n, nnodes)
        };
        // Polymer maps each partition's physical pages onto its node, so
        // partition boundaries are page-aligned in the real system; round
        // cut points to a 4 KiB multiple of every element width used by the
        // contiguous-virtual arrays (1024 vertices covers u32 and u64).
        // Tiny graphs (tests) skip alignment to keep partitions non-empty.
        const ALIGN: usize = 1024;
        if n >= nnodes * 4 * ALIGN {
            // Round every cut to the nearest aligned position, keeping the
            // sequence monotone (a partition may end up empty on extremely
            // skewed inputs, which the engine handles).
            let mut prev_end = 0usize;
            for range in ranges.iter_mut().take(nnodes - 1) {
                let cut = range.end;
                let rounded = ((cut + ALIGN / 2) / ALIGN * ALIGN).clamp(prev_end, n);
                range.start = prev_end;
                range.end = rounded;
                prev_end = rounded;
            }
            ranges[nnodes - 1].start = prev_end;
            ranges[nnodes - 1].end = n;
        }

        let mut nodes = Vec::with_capacity(nnodes);
        for (node, range) in ranges.iter().enumerate() {
            let push = Self::build_dir(
                machine,
                g,
                node,
                range,
                true,
                threads_per_node[node],
                with_weights,
                numa_aware,
            );
            let pull = with_pull.then(|| {
                Self::build_dir(
                    machine,
                    g,
                    node,
                    range,
                    false,
                    threads_per_node[node],
                    with_weights,
                    numa_aware,
                )
            });
            nodes.push(NodeLayout {
                range: range.clone(),
                push,
                pull,
            });
        }

        // Application-adjacent metadata: global out-degrees, contiguous
        // virtual, physically chunked by owner (like `curr`/`next`).
        let deg_policy = if numa_aware {
            AllocPolicy::ChunkedElems(
                ranges
                    .iter()
                    .enumerate()
                    .map(|(i, r)| (r.len(), i))
                    .collect(),
            )
        } else {
            AllocPolicy::Interleaved
        };
        let out_deg = machine.alloc_array_with("topo/degrees", n, deg_policy, |v| {
            g.out_degree(v as VId) as u32
        });

        PolymerLayout {
            bounds: ranges.iter().map(|r| r.end).collect(),
            nodes,
            out_deg,
            numa_aware,
        }
    }

    /// Build one direction for one node. `push = true` collects edges whose
    /// target is owned (grouped by source); `push = false` collects edges
    /// whose source is owned (grouped by target).
    #[allow(clippy::too_many_arguments)]
    fn build_dir(
        machine: &Machine,
        g: &Graph,
        node: usize,
        range: &Range<usize>,
        push: bool,
        threads_per_node: usize,
        with_weights: bool,
        numa_aware: bool,
    ) -> DirLayout {
        let n = g.num_vertices();
        // Gather (group_key, endpoint, weight) triples: in push mode the
        // group key is the edge's source and the endpoint its (owned)
        // target; in pull mode the key is the target and the endpoint the
        // (owned) source. CSC/CSR iteration order already yields ascending
        // group keys.
        let mut ids = Vec::new();
        let mut degs = Vec::new();
        let mut offs = vec![0u32];
        let mut endpoints = Vec::new();
        let mut weights = Vec::new();

        if push {
            // Iterate sources ascending; collect their edges into the range.
            for s in 0..n as VId {
                let mut count = 0u32;
                for (&t, &w) in g.out_neighbors(s).iter().zip(g.out_weights(s)) {
                    if range.contains(&(t as usize)) {
                        endpoints.push(t);
                        weights.push(w);
                        count += 1;
                    }
                }
                if count > 0 {
                    ids.push(s);
                    degs.push(g.out_degree(s) as u32);
                    offs.push(endpoints.len() as u32);
                }
            }
        } else {
            // Iterate targets ascending; collect their in-edges from the
            // range.
            for t in 0..n as VId {
                let mut count = 0u32;
                for (&s, &w) in g.in_neighbors(t).iter().zip(g.in_weights(t)) {
                    if range.contains(&(s as usize)) {
                        endpoints.push(s);
                        weights.push(w);
                        count += 1;
                    }
                }
                if count > 0 {
                    ids.push(t);
                    degs.push(g.out_degree(t) as u32);
                    offs.push(endpoints.len() as u32);
                }
            }
        }

        let dir = if push { "push" } else { "pull" };
        let pol = || {
            if numa_aware {
                AllocPolicy::OnNode(node)
            } else {
                AllocPolicy::Interleaved
            }
        };
        let agent_idx = {
            let mut idx = vec![0u32; n];
            for (slot, &v) in ids.iter().enumerate() {
                idx[v as usize] = slot as u32 + 1;
            }
            machine.alloc_array_with(&format!("agents/{dir}_idx"), n, pol(), |i| idx[i])
        };
        // Allocation order matters for bit-identical costs: the cost model
        // folds per-thread times in allocation-id order, so the arrays must
        // be allocated in the same sequence the pre-sharding layout used
        // (id, deg, off, endpoints, weights).
        let agent_id =
            machine.alloc_array_with(&format!("agents/{dir}_id"), ids.len(), pol(), |i| ids[i]);
        let agent_deg =
            machine.alloc_array_with(&format!("agents/{dir}_deg"), degs.len(), pol(), |i| degs[i]);
        let agent_off =
            machine.alloc_array_with(&format!("agents/{dir}_off"), offs.len(), pol(), |i| offs[i]);
        let endpoint = if machine.spec().compressed_topology {
            // Delta/varint-encode each agent's list, anchored at the agent's
            // own vertex id (lists are in grouped input order, so deltas are
            // small for locality-friendly ids).
            let mut coffs = vec![0u64];
            let mut bytes = Vec::new();
            for (slot, &v) in ids.iter().enumerate() {
                let lo = offs[slot] as usize;
                let hi = offs[slot + 1] as usize;
                polymer_graph::encode_list(v, &endpoints[lo..hi], &mut bytes);
                coffs.push(bytes.len() as u64);
            }
            EndpointStore::Compressed {
                lists: CompressedLists::from_encoded(
                    machine,
                    &format!("topo/{dir}_edges"),
                    coffs,
                    bytes,
                    pol(),
                    pol(),
                ),
                edges: endpoints.len(),
            }
        } else {
            EndpointStore::Raw(machine.alloc_array_with(
                &format!("topo/{dir}_edges"),
                endpoints.len(),
                pol(),
                |i| endpoints[i],
            ))
        };
        let slices = slice_by_edges(&offs, threads_per_node);
        DirLayout {
            agent_id,
            agent_deg,
            agent_off,
            agent_idx,
            endpoint,
            weight: with_weights.then(|| {
                machine.alloc_array_with(&format!("topo/{dir}_w"), weights.len(), pol(), |i| {
                    weights[i]
                })
            }),
            slices,
        }
    }

    /// Number of nodes in the layout.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node owning vertex `v`.
    #[inline]
    pub fn owner(&self, v: usize) -> usize {
        // Ranges are few (≤ 16); partition_point is a handful of compares.
        self.bounds.partition_point(|&end| end <= v)
    }

    /// The vertex ranges, for building chunked placements.
    pub fn ranges(&self) -> Vec<Range<usize>> {
        self.nodes.iter().map(|nl| nl.range.clone()).collect()
    }

    /// `ChunkedElems` placement matching the vertex ranges (for the
    /// contiguous-virtual application data), or interleaved when placement
    /// awareness is disabled.
    pub fn chunked_policy(&self) -> AllocPolicy {
        if !self.numa_aware {
            return AllocPolicy::Interleaved;
        }
        AllocPolicy::ChunkedElems(
            self.nodes
                .iter()
                .enumerate()
                .map(|(i, nl)| (nl.range.len(), i))
                .collect(),
        )
    }

    /// Placement for a per-node runtime-state partition.
    pub fn state_policy(&self, node: usize) -> AllocPolicy {
        if self.numa_aware {
            AllocPolicy::OnNode(node)
        } else {
            AllocPolicy::Centralized
        }
    }
}

/// Split `0..agents` into per-thread slices with (nearly) equal edge counts,
/// using the agent offset array.
fn slice_by_edges(offs: &[u32], parts: usize) -> Vec<Range<usize>> {
    let agents = offs.len() - 1;
    let total = *offs.last().unwrap() as usize;
    let mut cuts = vec![0usize];
    let mut a = 0usize;
    for p in 1..parts {
        let target = p * total / parts;
        while a < agents && (offs[a] as usize) < target {
            a += 1;
        }
        cuts.push(a);
    }
    cuts.push(agents);
    (0..parts).map(|p| cuts[p]..cuts[p + 1]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymer_graph::{gen, EdgeList};
    use polymer_numa::MachineSpec;

    fn build(g: &Graph, balanced: bool, with_pull: bool) -> (Machine, PolymerLayout) {
        let m = Machine::new(MachineSpec::test2());
        let l = PolymerLayout::build(&m, g, &[2, 2], balanced, with_pull, false);
        (m, l)
    }

    #[test]
    fn every_edge_lands_exactly_once_per_direction() {
        let el = gen::rmat(8, 2_000, gen::RMAT_GRAPH500, 3);
        let g = Graph::from_edges(&el);
        let (_m, l) = build(&g, true, true);
        let push_edges: usize = l.nodes.iter().map(|nl| nl.push.endpoint.len()).sum();
        let pull_edges: usize = l
            .nodes
            .iter()
            .map(|nl| nl.pull.as_ref().unwrap().endpoint.len())
            .sum();
        assert_eq!(push_edges, g.num_edges());
        assert_eq!(pull_edges, g.num_edges());
    }

    #[test]
    fn push_endpoints_are_owned_by_their_node() {
        let el = gen::uniform(200, 1_000, 5);
        let g = Graph::from_edges(&el);
        let (_m, l) = build(&g, false, false);
        for nl in &l.nodes {
            for t in nl.push.endpoint_values() {
                assert!(nl.range.contains(&(t as usize)));
            }
        }
    }

    #[test]
    fn pull_endpoints_are_owned_by_their_node() {
        let el = gen::uniform(200, 1_000, 5);
        let g = Graph::from_edges(&el);
        let (_m, l) = build(&g, false, true);
        for nl in &l.nodes {
            for s in nl.pull.as_ref().unwrap().endpoint_values() {
                assert!(nl.range.contains(&(s as usize)));
            }
        }
    }

    #[test]
    fn agents_ascend_and_index_back() {
        let el = gen::rmat(8, 2_000, gen::RMAT_GRAPH500, 4);
        let g = Graph::from_edges(&el);
        let (_m, l) = build(&g, true, false);
        for nl in &l.nodes {
            let ids = nl.push.agent_id.raw();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "agents must ascend");
            for (slot, &v) in ids.iter().enumerate() {
                assert_eq!(nl.push.agent_idx.raw()[v as usize], slot as u32 + 1);
            }
        }
    }

    #[test]
    fn agent_degrees_match_graph() {
        let el = gen::uniform(100, 600, 9);
        let g = Graph::from_edges(&el);
        let (_m, l) = build(&g, false, false);
        for nl in &l.nodes {
            for (slot, &s) in nl.push.agent_id.raw().iter().enumerate() {
                assert_eq!(nl.push.agent_deg.raw()[slot] as usize, g.out_degree(s));
            }
        }
    }

    #[test]
    fn owner_lookup_matches_ranges() {
        let el = gen::uniform(100, 400, 2);
        let g = Graph::from_edges(&el);
        let (_m, l) = build(&g, true, false);
        for (node, nl) in l.nodes.iter().enumerate() {
            for v in nl.range.clone() {
                assert_eq!(l.owner(v), node);
            }
        }
    }

    #[test]
    fn balanced_partitioning_evens_edges() {
        // Skewed graph: a few hubs hold most edges.
        let el = gen::powerlaw_zipf(2_000, 2.0, 8.0, 1);
        let g = Graph::from_edges(&el);
        let (_m, bal) = build(&g, true, false);
        let (_m2, unbal) = build(&g, false, false);
        let spread = |l: &PolymerLayout| {
            let counts: Vec<usize> = l.nodes.iter().map(|nl| nl.push.endpoint.len()).collect();
            let max = *counts.iter().max().unwrap() as f64;
            let min = *counts.iter().min().unwrap() as f64;
            max / min.max(1.0)
        };
        assert!(spread(&bal) < spread(&unbal) + 1e-9);
    }

    #[test]
    fn agents_are_tagged_for_memory_accounting() {
        let el = gen::uniform(100, 400, 2);
        let g = Graph::from_edges(&el);
        let (m, _l) = build(&g, true, true);
        assert!(m.tag_usage("agents").live > 0);
        assert!(m.tag_usage("topo").live > 0);
    }

    #[test]
    fn slices_cover_agents() {
        let offs = vec![0u32, 10, 10, 40, 45, 100];
        let slices = slice_by_edges(&offs, 2);
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].start, 0);
        assert_eq!(slices[1].end, 5);
        assert_eq!(slices[0].end, slices[1].start);
    }

    #[test]
    fn large_graph_partition_cuts_are_page_aligned() {
        let el = gen::powerlaw_zipf(20_000, 2.0, 6.0, 9);
        let g = Graph::from_edges(&el);
        let m = Machine::new(MachineSpec::test2());
        let l = PolymerLayout::build(&m, &g, &[1, 1], true, false, false);
        for nl in &l.nodes[..l.nodes.len() - 1] {
            assert_eq!(nl.range.end % 1024, 0, "cut {} not aligned", nl.range.end);
        }
        // Cover exactly despite rounding.
        assert_eq!(l.nodes.last().unwrap().range.end, 20_000);
        assert_eq!(l.nodes[0].range.start, 0);
    }

    #[test]
    fn oblivious_placement_interleaves_everything() {
        let el = gen::uniform(200, 800, 4);
        let g = Graph::from_edges(&el);
        let m = Machine::new(MachineSpec::test2());
        let l = PolymerLayout::build_with_placement(&m, &g, &[2, 2], true, false, false, false);
        assert!(matches!(l.chunked_policy(), AllocPolicy::Interleaved));
        assert!(matches!(l.state_policy(1), AllocPolicy::Centralized));
        let aware = PolymerLayout::build(&m, &g, &[2, 2], true, false, false);
        assert!(matches!(aware.state_policy(1), AllocPolicy::OnNode(1)));
    }

    #[test]
    fn isolated_vertices_have_no_agents() {
        let g = Graph::from_edges(&EdgeList::from_pairs(10, [(0, 1)]));
        let (_m, l) = build(&g, false, true);
        let total_agents: usize = l.nodes.iter().map(|nl| nl.push.agent_id.len()).sum();
        assert_eq!(total_agents, 1);
        assert_eq!(l.out_deg.raw()[0], 1);
        assert_eq!(l.out_deg.raw()[1], 0);
    }
}
