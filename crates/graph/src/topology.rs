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

/// A vertex's live edges in one direction read as the base CSR's own slices
/// wherever the overlay has not touched the vertex in that direction (no
/// tombstone, no insert), exactly as [`Graph`] yields them, and through the
/// three-way [`crate::MergedEdges`] merge everywhere else. With nothing to
/// merge the merge yields the base slices in order, so both arms give the
/// same sequence.
impl Topology for MutableGraph {
    fn num_vertices(&self) -> usize {
        MutableGraph::num_vertices(self)
    }
    fn num_edges(&self) -> usize {
        self.num_live_edges()
    }
    // The live degrees spelled out, so a kernel inlines them: it reads one
    // per frontier vertex, and `live_*_degree` are not `#[inline]`.
    #[inline]
    fn out_degree(&self, v: VId) -> usize {
        let log = self.log();
        self.base().out_degree(v) - log.tombstones_out(v).len() + log.inserts_out(v).len()
    }
    #[inline]
    fn in_degree(&self, v: VId) -> usize {
        let log = self.log();
        self.base().in_degree(v) - log.tombstones_in(v).len() + log.inserts_in(v).len()
    }
    #[inline]
    fn out_edges(&self, v: VId) -> impl Iterator<Item = (VId, Weight)> + '_ {
        let log = self.log();
        if log.tombstones_out(v).is_empty() && log.inserts_out(v).is_empty() {
            Adjacency::Slice(Topology::out_edges(self.base(), v))
        } else {
            Adjacency::Merged(MutableGraph::out_edges(self, v))
        }
    }
    #[inline]
    fn in_edges(&self, v: VId) -> impl Iterator<Item = (VId, Weight)> + '_ {
        let log = self.log();
        if log.tombstones_in(v).is_empty() && log.inserts_in(v).is_empty() {
            Adjacency::Slice(Topology::in_edges(self.base(), v))
        } else {
            Adjacency::Merged(MutableGraph::in_edges(self, v))
        }
    }
}

/// One vertex's adjacency in a [`MutableGraph`]: the base CSR's slices, or
/// the merge with the overlay.
enum Adjacency<S, M> {
    Slice(S),
    Merged(M),
}

impl<S: Iterator, M: Iterator<Item = S::Item>> Iterator for Adjacency<S, M> {
    type Item = S::Item;

    #[inline]
    fn next(&mut self) -> Option<S::Item> {
        match self {
            Adjacency::Slice(edges) => edges.next(),
            Adjacency::Merged(edges) => edges.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, DeltaBatch};
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

        // A window of batches that crosses a compaction: five rounds grow
        // the overlay (the first op of a batch deletes a live base edge, and
        // tombstones only go away by compaction, so it is never empty), the
        // rebuild is checked on its own, and five more rounds lay a fresh
        // overlay over the rebuilt base. Each half opens with two one-op
        // batches — that delete, then one insert — so nearly every vertex
        // reads as the base slices, and a touched one is touched in one
        // direction only: an op lands in the out-lists of its source and the
        // in-lists of its target.
        #[test]
        fn mutable_graph_view_equals_its_snapshot_graph(
            seed in 0u64..10_000,
            n in 8usize..120,
            ops in 1usize..40,
        ) {
            let mut mg = MutableGraph::from_edge_list(gen::uniform(n, 4 * n, seed))
                .with_compaction_fraction(f64::INFINITY);
            for round in 0..10 {
                if round == 5 {
                    mg.compact();
                    prop_assert_eq!(mg.compactions(), 1);
                    let snapshot = Graph::from_edges(&mg.snapshot_edge_list());
                    prop_assert_eq!(view(&mg), view(&snapshot), "after the rebuild");
                }
                let batch = match round % 5 {
                    0 => gen::mixed_batch(&mg, seed + round, 1, false),
                    1 => {
                        let src = ((seed + round) % n as u64) as VId;
                        let hop = 1 + (seed / n as u64) % (n as u64 - 1);
                        let mut one = DeltaBatch::new();
                        one.insert(src, ((src as u64 + hop) % n as u64) as VId, 7);
                        one
                    }
                    _ => gen::mixed_batch(&mg, seed + round, ops, false),
                };
                mg.apply(&batch).unwrap();
                prop_assert!(!mg.log().is_empty());
                let snapshot = Graph::from_edges(&mg.snapshot_edge_list());
                prop_assert_eq!(view(&mg), view(&snapshot), "round {}", round);
            }
        }
    }
}
