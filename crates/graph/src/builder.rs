//! The single shared graph-construction pipeline: canonicalization, degree
//! counting, and CSR/CSC assembly.
//!
//! Before this module existed the repo had two construction paths that could
//! drift: [`crate::Graph::from_edges`] (counting-sort assembly used by every
//! loader) and [`crate::EdgeList::dedup`] (canonicalization used by
//! `symmetrize`). Extracting them here surfaced one real inconsistency:
//! `dedup` sorted with `sort_unstable_by_key` while documenting that the
//! *first* weight among duplicate `(src, dst)` pairs survives — an unstable
//! sort makes the survivor arbitrary. [`GraphBuilder::canonicalize`] uses a
//! stable sort so the documented first-in-input weight genuinely wins, and
//! both the initial loaders and the [`crate::MutableGraph`] compaction
//! rebuild go through the same code, so they can never disagree again.

use crate::csr::Graph;
use crate::edgelist::EdgeList;
use crate::types::{Edge, VId, Weight};

/// Shared construction pipeline for every path that turns edges into a
/// [`Graph`]: initial loaders ([`Graph::from_edges`]), symmetrization
/// ([`EdgeList::dedup`] / [`EdgeList::symmetrize`]), and the
/// [`crate::MutableGraph`] compaction rebuild.
pub struct GraphBuilder;

impl GraphBuilder {
    /// Canonicalize an edge list in place: drop self-loops, sort by
    /// `(src, dst)`, and collapse duplicate pairs keeping the first-in-input
    /// weight. The sort is stable, so "first" means genuinely first in the
    /// original order — the former `sort_unstable_by_key` in
    /// `EdgeList::dedup` left the surviving weight arbitrary among
    /// duplicates.
    pub fn canonicalize(edges: &mut Vec<Edge>) {
        edges.retain(|e| e.src != e.dst);
        edges.sort_by_key(|e| ((e.src as u64) << 32) | e.dst as u64);
        edges.dedup_by_key(|e| (e.src, e.dst));
    }

    /// Whether `el` is in canonical form: no self-loops, strictly increasing
    /// `(src, dst)` keys (sorted and duplicate-free).
    pub fn is_canonical(el: &EdgeList) -> bool {
        el.edges.iter().all(|e| e.src != e.dst)
            && el.edges.windows(2).all(|w| key(&w[0]) < key(&w[1]))
    }

    /// Counting-sort CSR+CSC assembly: O(V + E), deterministic, preserving
    /// input edge order within each adjacency list. This is the body that
    /// used to live in `Graph::from_edges`; that constructor now delegates
    /// here, as does the compaction rebuild. The two directions share
    /// nothing but the input, so a large graph sorts them on two threads
    /// when the host has two cores.
    pub fn assemble(el: &EdgeList) -> Graph {
        let two_cores = std::thread::available_parallelism().is_ok_and(|c| c.get() > 1);
        Self::assemble_on(el, two_cores && el.edges.len() >= TWO_THREAD_MIN_EDGES)
    }

    /// [`GraphBuilder::assemble`], the CSC sorted on a scoped helper thread
    /// when `two_threads`. Every array is allocated here, on the calling
    /// thread; the helper only fills slices.
    fn assemble_on(el: &EdgeList, two_threads: bool) -> Graph {
        let n = el.num_vertices;
        let m = el.edges.len();
        let edges = &el.edges;
        let (mut out_off, mut out_dst, mut out_w) = (vec![0; n + 1], vec![0; m], vec![0; m]);
        let (mut in_off, mut in_src, mut in_w) = (vec![0; n + 1], vec![0; m], vec![0; m]);
        let mut csr = || counting_sort(edges, by_source, &mut out_off, &mut out_dst, &mut out_w);
        let mut csc = || counting_sort(edges, by_target, &mut in_off, &mut in_src, &mut in_w);
        if two_threads {
            std::thread::scope(|scope| {
                let helper = scope.spawn(csc);
                csr();
                helper
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p));
            });
        } else {
            csr();
            csc();
        }
        Graph::from_parts(n, m, out_off, out_dst, out_w, in_off, in_src, in_w)
    }

    /// Canonicalize a copy of `el` and assemble. This is the reference
    /// "build from scratch" a compaction rebuild must match bit-for-bit
    /// (the `incremental` proptest suite asserts exactly that).
    pub fn build_canonical(mut el: EdgeList) -> Graph {
        Self::canonicalize(&mut el.edges);
        Self::assemble(&el)
    }
}

#[inline]
fn key(e: &Edge) -> u64 {
    ((e.src as u64) << 32) | e.dst as u64
}

/// Fewest edges for which [`GraphBuilder::assemble`] starts a second thread;
/// below it the spawn costs about what it saves.
const TWO_THREAD_MIN_EDGES: usize = 1 << 15;

fn by_source(e: &Edge) -> (VId, VId) {
    (e.src, e.dst)
}

fn by_target(e: &Edge) -> (VId, VId) {
    (e.dst, e.src)
}

/// One direction of the assembly. `key(e)` is `(vertex, neighbour)`; `off`
/// (zeroed, `n + 1` long) becomes the offsets by vertex, and `adj` / `w`
/// (`m` long) the neighbours and weights, in input order within a vertex.
fn counting_sort(
    edges: &[Edge],
    key: impl Fn(&Edge) -> (VId, VId),
    off: &mut [usize],
    adj: &mut [VId],
    w: &mut [Weight],
) {
    for e in edges {
        off[key(e).0 as usize + 1] += 1;
    }
    // Shifted exclusive prefix sum: `off[v + 1]` becomes `v`'s first slot
    // and serves as its cursor, which the placement leaves at `v`'s end —
    // `v + 1`'s start. No cursor array.
    let mut start = 0;
    for slot in &mut off[1..] {
        let deg = *slot;
        *slot = start;
        start += deg;
    }
    for e in edges {
        let (v, u) = key(e);
        let cursor = &mut off[v as usize + 1];
        adj[*cursor] = u;
        w[*cursor] = e.weight;
        *cursor += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One direction the slow way: a stable sort of the edges by `vertex`,
    /// giving `(offsets, neighbours, weights)`.
    fn naive(
        el: &EdgeList,
        vertex: fn(&Edge) -> VId,
        neighbour: fn(&Edge) -> VId,
    ) -> (Vec<usize>, Vec<VId>, Vec<Weight>) {
        let mut sorted = el.edges.clone();
        sorted.sort_by_key(vertex);
        let mut off = vec![0; el.num_vertices + 1];
        for e in &sorted {
            off[vertex(e) as usize + 1] += 1;
        }
        for v in 0..el.num_vertices {
            off[v + 1] += off[v];
        }
        let adj = sorted.iter().map(neighbour).collect();
        (off, adj, sorted.iter().map(|e| e.weight).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn assemble_equals_a_stable_sort_per_direction(
            n in (0usize..4, 2usize..48).prop_map(|(k, n)| [0, 1, n, n][k]),
            raw in proptest::collection::vec((0u32..1000, 0u32..1000, 1u32..4), 0..300),
        ) {
            let mut el = EdgeList::new(n);
            if n > 0 {
                let n = n as VId;
                el.edges = raw.iter().map(|&(s, d, w)| Edge::weighted(s % n, d % n, w)).collect();
            }
            let (out_off, out_dst, out_w) = naive(&el, |e| e.src, |e| e.dst);
            let (in_off, in_src, in_w) = naive(&el, |e| e.dst, |e| e.src);
            for two_threads in [false, true] {
                let g = GraphBuilder::assemble_on(&el, two_threads);
                prop_assert_eq!(g.num_vertices(), n);
                prop_assert_eq!(g.num_edges(), el.edges.len());
                prop_assert_eq!(g.out_offsets(), &out_off[..]);
                prop_assert_eq!(g.out_targets(), &out_dst[..]);
                prop_assert_eq!(g.out_edge_weights(), &out_w[..]);
                prop_assert_eq!(g.in_offsets(), &in_off[..]);
                prop_assert_eq!(g.in_sources(), &in_src[..]);
                prop_assert_eq!(g.in_edge_weights(), &in_w[..]);
            }
            prop_assert_eq!(GraphBuilder::assemble(&el), GraphBuilder::assemble_on(&el, false));
        }
    }

    #[test]
    fn canonicalize_keeps_first_in_input_weight() {
        // Many duplicates of the same pair with distinct weights: the
        // stable sort must keep weight 7 (the first one pushed), no matter
        // how many decoys surround it.
        let mut edges = Vec::new();
        edges.push(Edge::weighted(0, 1, 7));
        for w in 0..64 {
            edges.push(Edge::weighted(0, 1, 100 + w));
            edges.push(Edge::weighted(1, 2, w));
        }
        GraphBuilder::canonicalize(&mut edges);
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0], Edge::weighted(0, 1, 7));
        assert_eq!(edges[1], Edge::weighted(1, 2, 0));
    }

    #[test]
    fn canonical_form_detected() {
        let mut el = EdgeList::from_pairs(4, [(2, 0), (0, 1), (1, 1), (0, 1)]);
        assert!(!GraphBuilder::is_canonical(&el));
        GraphBuilder::canonicalize(&mut el.edges);
        assert!(GraphBuilder::is_canonical(&el));
        assert_eq!(el.num_edges(), 2);
    }

    #[test]
    fn assemble_matches_from_edges() {
        let el = EdgeList::from_pairs(5, [(0, 2), (3, 1), (0, 4), (2, 2), (4, 0)]);
        assert_eq!(GraphBuilder::assemble(&el), Graph::from_edges(&el));
    }

    #[test]
    fn build_canonical_is_idempotent() {
        let el = EdgeList::from_pairs(4, [(1, 0), (0, 1), (1, 0), (2, 2)]);
        let once = GraphBuilder::build_canonical(el.clone());
        let mut canon = el;
        GraphBuilder::canonicalize(&mut canon.edges);
        let twice = GraphBuilder::build_canonical(canon);
        assert_eq!(once, twice);
    }
}
