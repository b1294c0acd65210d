//! The immutable compressed-sparse-row graph: CSR over out-edges plus CSC
//! over in-edges, with per-vertex degrees — the topology layout of the
//! paper's Figure 1 ("vertices", "out-edges", "in-edges" arrays).

use crate::builder::GraphBuilder;
use crate::edgelist::EdgeList;
use crate::types::{VId, Weight};

/// An immutable directed graph in CSR+CSC form. Offsets are `usize` indexes
/// into the target/source arrays; weights are stored alongside both
/// directions so engines can traverse either with weights.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    m: usize,
    out_off: Vec<usize>,
    out_dst: Vec<VId>,
    out_w: Vec<Weight>,
    in_off: Vec<usize>,
    in_src: Vec<VId>,
    in_w: Vec<Weight>,
}

impl Graph {
    /// Build the CSR/CSC representation from an edge list. Edge order within
    /// a vertex's adjacency list follows the input order (counting sort by
    /// endpoint), so construction is O(V + E) and deterministic. Delegates to
    /// [`GraphBuilder::assemble`], the single assembly path shared with the
    /// compaction rebuild.
    pub fn from_edges(el: &EdgeList) -> Self {
        GraphBuilder::assemble(el)
    }

    /// Assemble a graph from pre-built CSR/CSC arrays. Only
    /// [`GraphBuilder::assemble`] constructs these; keeping the fields
    /// private preserves the representation invariants (offsets are prefix
    /// sums, targets/weights aligned).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        n: usize,
        m: usize,
        out_off: Vec<usize>,
        out_dst: Vec<VId>,
        out_w: Vec<Weight>,
        in_off: Vec<usize>,
        in_src: Vec<VId>,
        in_w: Vec<Weight>,
    ) -> Self {
        Graph {
            n,
            m,
            out_off,
            out_dst,
            out_w,
            in_off,
            in_src,
            in_w,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VId) -> usize {
        let v = v as usize;
        self.out_off[v + 1] - self.out_off[v]
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VId) -> usize {
        let v = v as usize;
        self.in_off[v + 1] - self.in_off[v]
    }

    /// Out-neighbors of `v` (edge targets).
    #[inline]
    pub fn out_neighbors(&self, v: VId) -> &[VId] {
        let v = v as usize;
        &self.out_dst[self.out_off[v]..self.out_off[v + 1]]
    }

    /// Weights aligned with [`Graph::out_neighbors`].
    #[inline]
    pub fn out_weights(&self, v: VId) -> &[Weight] {
        let v = v as usize;
        &self.out_w[self.out_off[v]..self.out_off[v + 1]]
    }

    /// In-neighbors of `v` (edge sources).
    #[inline]
    pub fn in_neighbors(&self, v: VId) -> &[VId] {
        let v = v as usize;
        &self.in_src[self.in_off[v]..self.in_off[v + 1]]
    }

    /// Weights aligned with [`Graph::in_neighbors`].
    #[inline]
    pub fn in_weights(&self, v: VId) -> &[Weight] {
        let v = v as usize;
        &self.in_w[self.in_off[v]..self.in_off[v + 1]]
    }

    /// The CSR offset array (`n + 1` entries).
    #[inline]
    pub fn out_offsets(&self) -> &[usize] {
        &self.out_off
    }

    /// The CSC offset array (`n + 1` entries).
    #[inline]
    pub fn in_offsets(&self) -> &[usize] {
        &self.in_off
    }

    /// Flat out-edge target array.
    #[inline]
    pub fn out_targets(&self) -> &[VId] {
        &self.out_dst
    }

    /// Flat out-edge weight array.
    #[inline]
    pub fn out_edge_weights(&self) -> &[Weight] {
        &self.out_w
    }

    /// Flat in-edge source array.
    #[inline]
    pub fn in_sources(&self) -> &[VId] {
        &self.in_src
    }

    /// Flat in-edge weight array.
    #[inline]
    pub fn in_edge_weights(&self) -> &[Weight] {
        &self.in_w
    }

    /// Iterate all edges as `(src, dst, weight)` in CSR order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (VId, VId, Weight)> + '_ {
        (0..self.n as VId).flat_map(move |v| {
            self.out_neighbors(v)
                .iter()
                .zip(self.out_weights(v))
                .map(move |(&d, &w)| (v, d, w))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Edge;

    fn sample() -> Graph {
        // The paper's Figure 1 sample graph (6 vertices).
        let el = EdgeList::from_pairs(
            7,
            [
                (1, 2),
                (1, 3),
                (2, 3),
                (2, 5),
                (3, 2),
                (3, 5),
                (3, 6),
                (4, 1),
                (4, 3),
                (4, 5),
                (5, 1),
                (5, 2),
                (5, 3),
                (5, 6),
                (6, 2),
            ],
        );
        Graph::from_edges(&el)
    }

    #[test]
    fn figure1_shape() {
        let g = sample();
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 15);
        // Figure 1: vertex 3's in-edges come from 1, 2, 4, 5.
        assert_eq!(g.in_neighbors(3), &[1, 2, 4, 5]);
        // And its out-edges go to 2, 5, 6.
        assert_eq!(g.out_neighbors(3), &[2, 5, 6]);
        assert_eq!(g.out_degree(3), 3);
        assert_eq!(g.in_degree(3), 4);
        assert_eq!(g.out_degree(0), 0);
        assert_eq!(g.in_degree(0), 0);
    }

    #[test]
    fn csr_csc_agree_on_edge_multiset() {
        let g = sample();
        let mut from_csr: Vec<(VId, VId)> = g.iter_edges().map(|(s, d, _)| (s, d)).collect();
        let mut from_csc: Vec<(VId, VId)> = (0..g.num_vertices() as VId)
            .flat_map(|v| g.in_neighbors(v).iter().map(move |&s| (s, v)))
            .collect();
        from_csr.sort_unstable();
        from_csc.sort_unstable();
        assert_eq!(from_csr, from_csc);
    }

    #[test]
    fn weights_follow_edges_in_both_directions() {
        let mut el = EdgeList::new(3);
        el.edges.push(Edge::weighted(0, 2, 7));
        el.edges.push(Edge::weighted(1, 2, 9));
        let g = Graph::from_edges(&el);
        assert_eq!(g.out_weights(0), &[7]);
        assert_eq!(g.in_neighbors(2), &[0, 1]);
        assert_eq!(g.in_weights(2), &[7, 9]);
    }

    #[test]
    fn offsets_are_prefix_sums() {
        let g = sample();
        assert_eq!(g.out_offsets().len(), 8);
        assert_eq!(*g.out_offsets().last().unwrap(), 15);
        assert_eq!(*g.in_offsets().last().unwrap(), 15);
        for v in 0..7 {
            assert!(g.out_offsets()[v] <= g.out_offsets()[v + 1]);
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(&EdgeList::new(0));
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.iter_edges().count(), 0);
    }
}
