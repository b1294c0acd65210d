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

use std::ops::Range;

use polymer_graph::{edge_balanced_ranges, vertex_balanced_ranges, Graph, VId};
use polymer_numa::{AccessCtx, AllocPolicy, Machine, NumaArray};

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
    pub endpoint: NumaArray<u32>,
    /// Edge weights, when the program uses them.
    pub weight: Option<NumaArray<u32>>,
    /// Per-thread agent slices, balanced by edge count.
    pub slices: Vec<Range<usize>>,
}

impl DirLayout {
    /// Accounted stream of agent `a`'s endpoints plus, when the layout
    /// carries weights, the aligned bulk weight stream. Charges the
    /// `agent_off` pair, the endpoint run and the weight run.
    pub fn agent_edges<'s>(
        &'s self,
        ctx: &mut AccessCtx,
        a: usize,
    ) -> (
        impl Iterator<Item = u32> + 's,
        Option<impl Iterator<Item = u32> + 's>,
    ) {
        let lo = self.agent_off.get(ctx, a) as usize;
        let hi = self.agent_off.get(ctx, a + 1) as usize;
        let eps = self.endpoint.iter_seq(ctx, lo..hi);
        let w = self.weight.as_ref().map(|ws| ws.iter_seq(ctx, lo..hi));
        (eps, w)
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

        let bounds: Vec<usize> = ranges.iter().map(|r| r.end).collect();

        // One pass over the CSR (push) and one over the CSC (pull) route
        // every edge to its owner's buffers — on two host threads when the
        // host has them, since the directions share nothing but the graph.
        let collect = |push: bool| collect_dir(g, &bounds, push, with_weights);
        let two_cores = std::thread::available_parallelism().is_ok_and(|c| c.get() > 1);
        let (push_bufs, pull_bufs) = if with_pull && two_cores {
            std::thread::scope(|scope| {
                let pull = scope.spawn(|| collect(false));
                let push = collect(true);
                (
                    push,
                    Some(pull.join().unwrap_or_else(|p| std::panic::resume_unwind(p))),
                )
            })
        } else {
            (collect(true), with_pull.then(|| collect(false)))
        };

        // Placement is serial and node-major (push then pull within a node):
        // allocation ids, and with them the cost model's fold order, depend
        // on this sequence.
        let mut pull_bufs = pull_bufs.map(Vec::into_iter);
        let mut nodes = Vec::with_capacity(nnodes);
        for (node, (range, push_buf)) in ranges.iter().zip(push_bufs).enumerate() {
            let place = |push: bool, buf: DirBuf| {
                Self::place_dir(
                    machine,
                    node,
                    push,
                    buf,
                    n,
                    threads_per_node[node],
                    with_weights,
                    numa_aware,
                )
            };
            let push = place(true, push_buf);
            let pull = pull_bufs
                .as_mut()
                .map(|bufs| place(false, bufs.next().expect("one pull buffer per node")));
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
            bounds,
            nodes,
            out_deg,
            numa_aware,
        }
    }

    /// Copy one node's share of one direction into node-local allocations.
    #[allow(clippy::too_many_arguments)]
    fn place_dir(
        machine: &Machine,
        node: usize,
        push: bool,
        buf: DirBuf,
        n: usize,
        threads_per_node: usize,
        with_weights: bool,
        numa_aware: bool,
    ) -> DirLayout {
        let DirBuf {
            ids,
            degs,
            offs,
            endpoints,
            weights,
        } = buf;
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
        let endpoint =
            machine.alloc_array_with(&format!("topo/{dir}_edges"), endpoints.len(), pol(), |i| {
                endpoints[i]
            });
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
        owner_of(&self.bounds, v)
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

/// The partition owning vertex `v`, given the partitions' end boundaries.
#[inline]
fn owner_of(bounds: &[usize], v: usize) -> usize {
    // Ranges are few (≤ 16); partition_point is a handful of compares.
    bounds.partition_point(|&end| end <= v)
}

/// One node's share of one direction as plain vectors: what the pass over
/// the graph collects and [`PolymerLayout::place_dir`] copies into
/// node-local allocations.
struct DirBuf {
    /// Agent vertex ids, ascending.
    ids: Vec<u32>,
    /// Agent out-degrees (the full graph out-degree).
    degs: Vec<u32>,
    /// Offsets into `endpoints` (`ids.len() + 1` entries).
    offs: Vec<u32>,
    /// Edge endpoints owned by the node, grouped by agent.
    endpoints: Vec<u32>,
    /// Edge weights aligned with `endpoints`; empty unless requested.
    weights: Vec<u32>,
}

/// Route every edge of one direction to its owner in a single pass over the
/// graph. `push = true` walks the CSR: an edge goes to the node owning its
/// *target*, grouped by source. `push = false` walks the CSC: an edge goes
/// to the node owning its *source*, grouped by target. A vertex becomes an
/// agent on every node that received at least one of its edges; CSR/CSC
/// order yields ascending agent ids per node.
fn collect_dir(g: &Graph, bounds: &[usize], push: bool, with_weights: bool) -> Vec<DirBuf> {
    let mut bufs: Vec<DirBuf> = bounds
        .iter()
        .map(|_| DirBuf {
            ids: Vec::new(),
            degs: Vec::new(),
            offs: vec![0],
            endpoints: Vec::new(),
            weights: Vec::new(),
        })
        .collect();
    for v in 0..g.num_vertices() as VId {
        let (nbrs, ws) = if push {
            (g.out_neighbors(v), g.out_weights(v))
        } else {
            (g.in_neighbors(v), g.in_weights(v))
        };
        if nbrs.is_empty() {
            continue;
        }
        for (&u, &w) in nbrs.iter().zip(ws) {
            let b = &mut bufs[owner_of(bounds, u as usize)];
            b.endpoints.push(u);
            if with_weights {
                b.weights.push(w);
            }
        }
        let deg = g.out_degree(v) as u32;
        for b in &mut bufs {
            let end = b.endpoints.len() as u32;
            if end != b.offs[b.offs.len() - 1] {
                b.ids.push(v);
                b.degs.push(deg);
                b.offs.push(end);
            }
        }
    }
    bufs
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

    /// Unaccounted copy of every endpoint of `dir`, in edge order.
    fn endpoint_values(dir: &DirLayout) -> Vec<u32> {
        dir.endpoint.raw().to_vec()
    }

    fn build(g: &Graph, balanced: bool, with_pull: bool) -> (Machine, PolymerLayout) {
        let m = Machine::new(MachineSpec::test2());
        let l = PolymerLayout::build(&m, g, &[2, 2], balanced, with_pull, false);
        (m, l)
    }

    /// The oracle for the one-pass build: one node's share of one direction
    /// by filtering a full scan of the graph on the node's range, as
    /// `(ids, degs, offs, endpoints, weights)`.
    type NaiveDir = (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>);

    fn naive_dir(g: &Graph, range: &Range<usize>, push: bool) -> NaiveDir {
        let (mut ids, mut degs, mut offs) = (Vec::new(), Vec::new(), vec![0u32]);
        let (mut endpoints, mut weights) = (Vec::new(), Vec::new());
        for v in 0..g.num_vertices() as VId {
            let (nbrs, ws) = if push {
                (g.out_neighbors(v), g.out_weights(v))
            } else {
                (g.in_neighbors(v), g.in_weights(v))
            };
            let before = endpoints.len();
            for (&u, &w) in nbrs.iter().zip(ws) {
                if range.contains(&(u as usize)) {
                    endpoints.push(u);
                    weights.push(w);
                }
            }
            if endpoints.len() > before {
                ids.push(v);
                degs.push(g.out_degree(v) as u32);
                offs.push(endpoints.len() as u32);
            }
        }
        (ids, degs, offs, endpoints, weights)
    }

    /// Every array of `dir` against the oracle's vectors, plus the names the
    /// direction's allocations must carry, in allocation order.
    fn assert_dir_matches(
        g: &Graph,
        dir: &DirLayout,
        (ids, degs, offs, endpoints, weights): NaiveDir,
        name: &str,
        parts: usize,
        with_weights: bool,
        names: &mut Vec<String>,
    ) {
        let mut idx = vec![0u32; g.num_vertices()];
        for (slot, &v) in ids.iter().enumerate() {
            idx[v as usize] = slot as u32 + 1;
        }
        assert_eq!(dir.agent_idx.raw(), &idx[..]);
        assert_eq!(dir.agent_id.raw(), &ids[..]);
        assert_eq!(dir.agent_deg.raw(), &degs[..]);
        assert_eq!(dir.agent_off.raw(), &offs[..]);
        assert_eq!(endpoint_values(dir), endpoints);
        assert_eq!(dir.slices, slice_by_edges(&offs, parts));
        for part in ["idx", "id", "deg", "off"] {
            names.push(format!("agents/{name}_{part}"));
        }
        names.push(format!("topo/{name}_edges"));
        match &dir.weight {
            Some(ws) => {
                assert!(with_weights);
                assert_eq!(ws.raw(), &weights[..]);
                names.push(format!("topo/{name}_w"));
            }
            None => assert!(!with_weights),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        // The one-pass build against the per-(node, direction) filter it
        // replaced: same contents in every array, same per-thread slices,
        // same allocations in the same order.
        #[test]
        fn one_pass_build_matches_naive_per_node_filter(
            n in 1usize..48,
            raw_edges in proptest::collection::vec((0usize..48, 0usize..48, 1u32..9), 0..160),
            tpn in proptest::collection::vec(1usize..4, 1..9),
            flags in (0u8..2, 0u8..2, 0u8..2),
        ) {
            let (balanced, with_pull, with_weights) = (flags.0 == 1, flags.1 == 1, flags.2 == 1);
            let mut el = EdgeList::new(n);
            for (s, t, w) in raw_edges {
                el.edges.push(polymer_graph::Edge::weighted((s % n) as VId, (t % n) as VId, w));
            }
            let g = Graph::from_edges(&el);
            let m = Machine::new(MachineSpec::intel80());
            let l = PolymerLayout::build(&m, &g, &tpn, balanced, with_pull, with_weights);

            proptest::prop_assert_eq!(l.num_nodes(), tpn.len());
            let mut names = Vec::new();
            let mut covered = 0usize;
            for (node, nl) in l.nodes.iter().enumerate() {
                proptest::prop_assert_eq!(nl.range.start, covered);
                covered = nl.range.end;
                let push = naive_dir(&g, &nl.range, true);
                assert_dir_matches(&g, &nl.push, push, "push", tpn[node], with_weights, &mut names);
                proptest::prop_assert_eq!(nl.pull.is_some(), with_pull);
                if let Some(pull) = &nl.pull {
                    let want = naive_dir(&g, &nl.range, false);
                    assert_dir_matches(&g, pull, want, "pull", tpn[node], with_weights, &mut names);
                }
            }
            proptest::prop_assert_eq!(covered, n);
            names.push("topo/degrees".to_string());
            let placed: Vec<String> = (0..m.num_allocs() as u32).map(|id| m.alloc_name(id)).collect();
            proptest::prop_assert_eq!(placed, names);
        }
    }

    #[test]
    fn every_edge_lands_exactly_once_per_direction() {
        let el = gen::rmat(8, 2_000, gen::RMAT_GRAPH500, 3);
        let g = Graph::from_edges(&el);
        let (_m, l) = build(&g, true, true);
        let push_edges: usize = l
            .nodes
            .iter()
            .map(|nl| endpoint_values(&nl.push).len())
            .sum();
        let pull_edges: usize = l
            .nodes
            .iter()
            .map(|nl| endpoint_values(nl.pull.as_ref().unwrap()).len())
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
            for t in endpoint_values(&nl.push) {
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
            for s in endpoint_values(nl.pull.as_ref().unwrap()) {
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
            let counts: Vec<usize> = l
                .nodes
                .iter()
                .map(|nl| endpoint_values(&nl.push).len())
                .collect();
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
