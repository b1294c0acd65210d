//! The construction-stage edge-list representation.

use crate::types::{Edge, VId};

/// A list of directed edges plus the vertex-count bound. Generators and I/O
/// produce this; [`crate::Graph::from_edges`] consumes it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeList {
    /// Number of vertices; all edge endpoints are `< num_vertices`.
    pub num_vertices: usize,
    /// The edges.
    pub edges: Vec<Edge>,
}

impl EdgeList {
    /// An empty edge list over `n` vertices.
    pub fn new(n: usize) -> Self {
        EdgeList {
            num_vertices: n,
            edges: Vec::new(),
        }
    }

    /// Build from raw `(src, dst)` pairs with weight 1.
    pub fn from_pairs(n: usize, pairs: impl IntoIterator<Item = (VId, VId)>) -> Self {
        let edges = pairs.into_iter().map(|(s, d)| Edge::new(s, d)).collect();
        let el = EdgeList {
            num_vertices: n,
            edges,
        };
        el.validate();
        el
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Panic if any endpoint is out of range (used after deserialization).
    pub fn validate(&self) {
        for e in &self.edges {
            assert!(
                (e.src as usize) < self.num_vertices && (e.dst as usize) < self.num_vertices,
                "edge ({}, {}) out of range for {} vertices",
                e.src,
                e.dst,
                self.num_vertices
            );
        }
    }

    /// Remove duplicate `(src, dst)` pairs (keeping the first weight) and
    /// self-loops. Sorts the list as a side effect. Delegates to
    /// [`crate::GraphBuilder::canonicalize`], whose stable sort makes
    /// "first weight" genuinely mean first in input order.
    pub fn dedup(&mut self) {
        crate::GraphBuilder::canonicalize(&mut self.edges);
    }

    /// Make the graph undirected by adding the reverse of every edge (the
    /// paper represents an undirected edge as a pair of directed ones), then
    /// dedup.
    pub fn symmetrize(&mut self) {
        let rev: Vec<Edge> = self.edges.iter().map(|e| e.reversed()).collect();
        self.edges.extend(rev);
        self.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_and_degrees() {
        let el = EdgeList::from_pairs(4, [(0, 1), (0, 2), (3, 0)]);
        assert_eq!(el.num_edges(), 3);
        let g = crate::csr::Graph::from_edges(&el);
        let degrees: Vec<usize> = (0..4).map(|v| g.out_degree(v)).collect();
        assert_eq!(degrees, vec![2, 0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        EdgeList::from_pairs(2, [(0, 5)]);
    }

    #[test]
    fn dedup_removes_loops_and_dupes() {
        let mut el = EdgeList::from_pairs(3, [(0, 1), (1, 1), (0, 1), (2, 0)]);
        el.dedup();
        assert_eq!(el.num_edges(), 2);
        assert_eq!(el.edges[0], Edge::new(0, 1));
        assert_eq!(el.edges[1], Edge::new(2, 0));
    }

    #[test]
    fn symmetrize_doubles_unique_edges() {
        let mut el = EdgeList::from_pairs(3, [(0, 1), (1, 2)]);
        el.symmetrize();
        assert_eq!(el.num_edges(), 4);
        assert!(el.edges.contains(&Edge::new(1, 0)));
        assert!(el.edges.contains(&Edge::new(2, 1)));
    }
}
