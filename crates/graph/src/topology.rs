//! [`Topology`]: the read-only adjacency view host kernels are written
//! against — the static CSR and the mutated graph alike.

use crate::csr::Graph;
use crate::mutable::MutableGraph;
use crate::types::{VId, Weight};

/// A directed weighted graph a host kernel can traverse. Adjacency order is
/// part of the contract: a [`MutableGraph`] yields a vertex's live edges in
/// the order the [`Graph`] built from [`MutableGraph::snapshot_edge_list`]
/// stores them, so order-sensitive (floating-point) folds agree.
pub trait Topology {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;
    /// Number of (live) directed edges.
    fn num_edges(&self) -> usize;
    /// Out-degree of `v`.
    fn out_degree(&self, v: VId) -> usize;
    /// In-degree of `v`.
    fn in_degree(&self, v: VId) -> usize;
    /// Out-edges of `v` as `(dst, weight)`.
    fn out_edges(&self, v: VId) -> impl Iterator<Item = (VId, Weight)> + '_;
    /// In-edges of `v` as `(src, weight)`.
    fn in_edges(&self, v: VId) -> impl Iterator<Item = (VId, Weight)> + '_;
}

impl Topology for Graph {
    #[inline]
    fn num_vertices(&self) -> usize {
        Graph::num_vertices(self)
    }
    #[inline]
    fn num_edges(&self) -> usize {
        Graph::num_edges(self)
    }
    #[inline]
    fn out_degree(&self, v: VId) -> usize {
        Graph::out_degree(self, v)
    }
    #[inline]
    fn in_degree(&self, v: VId) -> usize {
        Graph::in_degree(self, v)
    }
    #[inline]
    fn out_edges(&self, v: VId) -> impl Iterator<Item = (VId, Weight)> + '_ {
        (self.out_neighbors(v).iter().copied()).zip(self.out_weights(v).iter().copied())
    }
    #[inline]
    fn in_edges(&self, v: VId) -> impl Iterator<Item = (VId, Weight)> + '_ {
        (self.in_neighbors(v).iter().copied()).zip(self.in_weights(v).iter().copied())
    }
}

impl Topology for MutableGraph {
    fn num_vertices(&self) -> usize {
        MutableGraph::num_vertices(self)
    }
    fn num_edges(&self) -> usize {
        self.num_live_edges()
    }
    fn out_degree(&self, v: VId) -> usize {
        self.live_out_degree(v)
    }
    fn in_degree(&self, v: VId) -> usize {
        self.live_in_degree(v)
    }
    fn out_edges(&self, v: VId) -> impl Iterator<Item = (VId, Weight)> + '_ {
        MutableGraph::out_edges(self, v)
    }
    fn in_edges(&self, v: VId) -> impl Iterator<Item = (VId, Weight)> + '_ {
        MutableGraph::in_edges(self, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use proptest::prelude::*;

    type Adjacency = Vec<(VId, Weight)>;

    /// Everything the trait exposes, through the trait: the edge count and,
    /// per vertex, out-edges, in-edges and both degrees.
    fn view<T: Topology>(t: &T) -> (usize, Vec<(Adjacency, Adjacency, usize, usize)>) {
        let per_vertex = |v| {
            let (outs, ins) = (t.out_edges(v).collect(), t.in_edges(v).collect());
            (outs, ins, t.out_degree(v), t.in_degree(v))
        };
        let vertices = 0..t.num_vertices() as VId;
        (t.num_edges(), vertices.map(per_vertex).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // A window of batches that crosses a compaction: three rounds grow
        // the overlay (the first op of a batch deletes a live base edge, and
        // tombstones only go away by compaction, so it is never empty), the
        // rebuild is checked on its own, and three more rounds lay a fresh
        // overlay over the rebuilt base.
        #[test]
        fn mutable_graph_view_equals_its_snapshot_graph(
            seed in 0u64..10_000,
            n in 8usize..120,
            ops in 1usize..40,
        ) {
            let mut mg = MutableGraph::from_edge_list(gen::uniform(n, 4 * n, seed))
                .with_compaction_fraction(f64::INFINITY);
            for round in 0..6 {
                if round == 3 {
                    mg.compact();
                    prop_assert_eq!(mg.generation(), 1);
                    let snapshot = Graph::from_edges(&mg.snapshot_edge_list());
                    prop_assert_eq!(view(&mg), view(&snapshot), "after the rebuild");
                }
                mg.apply(&gen::mixed_batch(&mg, seed + round, ops, false)).unwrap();
                prop_assert!(!mg.log().is_empty());
                let snapshot = Graph::from_edges(&mg.snapshot_edge_list());
                prop_assert_eq!(view(&mg), view(&snapshot), "round {}", round);
            }
        }
    }
}
