//! A mutable view over the resident CSR: base [`Graph`] plus a
//! [`DeltaLog`] overlay, with threshold-triggered compaction.
//!
//! The base graph stays immutable (engines keep NUMA-placed copies of it);
//! mutations accumulate in per-vertex overlay lists — sorted inserts and
//! sorted tombstones over base edges — so merged adjacency iteration is an
//! O(degree) three-way merge. When the overlay grows past a configurable
//! fraction of the base edge count, [`MutableGraph::apply`] compacts:
//! the live edge set is materialized (already in canonical order) and
//! reassembled through [`GraphBuilder::assemble`], the same code path the
//! initial loaders use, so a compacted graph is bit-identical to one built
//! from scratch — the `incremental` proptest suite pins this.
//!
//! The struct tracks two monotone counters consumers key caches on:
//! `epoch` bumps on every applied batch; `compactions` bumps whenever the
//! base CSR itself is replaced and any placed copy of it is
//! stale.

use crate::builder::GraphBuilder;
use crate::csr::Graph;
use crate::delta::{AppliedBatch, BatchStats, DeltaBatch, DeltaError, DeltaLog};
use crate::edgelist::EdgeList;
use crate::types::{Edge, VId, Weight};

/// Default compaction threshold: compact when overlay mutations exceed this
/// fraction of the base edge count.
pub const DEFAULT_COMPACTION_FRACTION: f64 = 0.125;

/// A base CSR plus a delta overlay, presenting the merged live graph.
#[derive(Clone, Debug)]
pub struct MutableGraph {
    base: Graph,
    log: DeltaLog,
    epoch: u64,
    compaction_fraction: f64,
    compactions: usize,
}

/// Outcome of inserting one edge; `Updated` carries the replaced weight.
enum Inserted {
    New,
    Updated(Weight),
    Unchanged,
}

impl MutableGraph {
    /// Build from an edge list, canonicalizing it first (the live graph is
    /// a set of canonical edges; see `docs/INCREMENTAL.md`).
    pub fn from_edge_list(el: EdgeList) -> Self {
        let base = GraphBuilder::build_canonical(el);
        let n = base.num_vertices();
        MutableGraph {
            base,
            log: DeltaLog::new(n),
            epoch: 0,
            compaction_fraction: DEFAULT_COMPACTION_FRACTION,
            compactions: 0,
        }
    }

    /// Build from an existing graph. If the graph is already canonical its
    /// CSR is adopted unchanged (bit-identical base); otherwise the edge
    /// set is canonicalized and reassembled, which drops self-loops and
    /// collapses duplicate pairs.
    pub fn from_graph(g: &Graph) -> Self {
        let base = if graph_is_canonical(g) {
            g.clone()
        } else {
            let mut el = EdgeList::new(g.num_vertices());
            el.edges = g
                .iter_edges()
                .map(|(s, d, w)| Edge::weighted(s, d, w))
                .collect();
            GraphBuilder::build_canonical(el)
        };
        let n = base.num_vertices();
        MutableGraph {
            base,
            log: DeltaLog::new(n),
            epoch: 0,
            compaction_fraction: DEFAULT_COMPACTION_FRACTION,
            compactions: 0,
        }
    }

    /// Override the compaction threshold fraction (`f64::INFINITY` disables
    /// auto-compaction; tests use small fractions to force it).
    pub fn with_compaction_fraction(mut self, fraction: f64) -> Self {
        self.compaction_fraction = fraction;
        self
    }

    /// The immutable base CSR the overlay applies to.
    pub fn base(&self) -> &Graph {
        &self.base
    }

    /// The current overlay.
    pub fn log(&self) -> &DeltaLog {
        &self.log
    }

    /// Monotone batch counter: bumps on every [`MutableGraph::apply`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of compactions performed: bumps whenever the base CSR is
    /// replaced, invalidating placed copies of it.
    pub fn compactions(&self) -> usize {
        self.compactions
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// Number of live edges (base minus tombstones plus overlay inserts).
    pub fn num_live_edges(&self) -> usize {
        self.base.num_edges() - self.log.tombstones + self.log.inserts
    }

    /// Live out-degree of `v`.
    pub fn live_out_degree(&self, v: VId) -> usize {
        self.base.out_degree(v) - self.log.tombstones_out(v).len() + self.log.inserts_out(v).len()
    }

    /// Weight of the live edge `(src, dst)`, or `None` if not live.
    pub fn weight(&self, src: VId, dst: VId) -> Option<Weight> {
        if let Ok(i) = self
            .log
            .inserts_out(src)
            .binary_search_by_key(&dst, |p| p.0)
        {
            return Some(self.log.inserts_out(src)[i].1);
        }
        let w = self.base_weight(src, dst)?;
        match self.log.tombstones_out(src).binary_search(&dst) {
            Ok(_) => None,
            Err(_) => Some(w),
        }
    }

    /// Merged live out-edges of `v` as `(dst, weight)`, sorted by `dst`.
    pub fn out_edges(&self, v: VId) -> MergedEdges<'_> {
        MergedEdges::new(
            self.base.out_neighbors(v),
            self.base.out_weights(v),
            self.log.tombstones_out(v),
            self.log.inserts_out(v),
        )
    }

    /// Merged live in-edges of `v` as `(src, weight)`, sorted by `src`.
    pub fn in_edges(&self, v: VId) -> MergedEdges<'_> {
        MergedEdges::new(
            self.base.in_neighbors(v),
            self.base.in_weights(v),
            self.log.tombstones_in(v),
            self.log.inserts_in(v),
        )
    }

    /// The live edge set as a canonical [`EdgeList`] (sorted, no
    /// duplicates, no self-loops) — what a from-scratch build would load.
    pub fn snapshot_edge_list(&self) -> EdgeList {
        let mut el = EdgeList::new(self.num_vertices());
        el.edges.reserve(self.num_live_edges());
        for v in 0..self.num_vertices() as VId {
            for (d, w) in self.out_edges(v) {
                el.edges.push(Edge::weighted(v, d, w));
            }
        }
        el
    }

    /// Validate and apply one batch: deletes first, then inserts, with
    /// within-batch duplicates collapsed ([`DeltaBatch::normalize`]). On
    /// success returns the effective mutations (repair engines seed from
    /// them) and bumps the epoch; if the overlay crossed the compaction
    /// threshold the base is rebuilt and the compaction count bumps too.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<AppliedBatch, DeltaError> {
        batch.validate(self.num_vertices())?;
        let mut b = batch.clone();
        b.normalize();
        self.epoch += 1;
        let mut stats = BatchStats::default();
        let mut deletes = Vec::new();
        for &(s, d) in &b.deletes {
            match self.remove_live(s, d) {
                Some(w) => {
                    stats.deleted += 1;
                    deletes.push(Edge::weighted(s, d, w));
                }
                None => stats.missing += 1,
            }
        }
        let mut inserts = Vec::with_capacity(b.inserts.len());
        let mut reweighted = Vec::new();
        for e in &b.inserts {
            match self.insert_live(e.src, e.dst, e.weight) {
                Inserted::New => {
                    stats.inserted += 1;
                    inserts.push(*e);
                }
                Inserted::Updated(old) => {
                    stats.updated += 1;
                    inserts.push(*e);
                    reweighted.push(Edge::weighted(e.src, e.dst, old));
                }
                Inserted::Unchanged => stats.updated += 1,
            }
        }
        stats.compacted = self.maybe_compact();
        Ok(AppliedBatch {
            epoch: self.epoch,
            inserts,
            deletes,
            reweighted,
            stats,
        })
    }

    /// Rebuild the base CSR from the live edge set through the shared
    /// [`GraphBuilder`] path, clear the overlay, and bump the compaction count.
    /// No-op when the overlay is empty.
    pub fn compact(&mut self) {
        if self.log.is_empty() {
            return;
        }
        let el = self.snapshot_edge_list();
        debug_assert!(GraphBuilder::is_canonical(&el));
        self.base = GraphBuilder::assemble(&el);
        self.log = DeltaLog::new(self.base.num_vertices());
        self.compactions += 1;
    }

    fn maybe_compact(&mut self) -> bool {
        let pending = self.log.inserts + self.log.tombstones;
        if pending == 0 {
            return false;
        }
        let threshold = (self.base.num_edges() as f64 * self.compaction_fraction).max(1.0);
        if (pending as f64) > threshold {
            self.compact();
            true
        } else {
            false
        }
    }

    fn base_weight(&self, src: VId, dst: VId) -> Option<Weight> {
        let i = self.base.out_neighbors(src).binary_search(&dst).ok()?;
        Some(self.base.out_weights(src)[i])
    }

    fn remove_live(&mut self, s: VId, d: VId) -> Option<Weight> {
        if let Ok(i) = self.log.ins_out[s as usize].binary_search_by_key(&d, |p| p.0) {
            let w = self.log.ins_out[s as usize][i].1;
            self.log.ins_out[s as usize].remove(i);
            let j = self.log.ins_in[d as usize]
                .binary_search_by_key(&s, |p| p.0)
                .expect("overlay in/out mirrors desynced");
            self.log.ins_in[d as usize].remove(j);
            self.log.inserts -= 1;
            return Some(w);
        }
        let w = self.base_weight(s, d)?;
        match self.log.del_out[s as usize].binary_search(&d) {
            Ok(_) => None, // already tombstoned: not live
            Err(pos) => {
                self.log.del_out[s as usize].insert(pos, d);
                let p = self.log.del_in[d as usize]
                    .binary_search(&s)
                    .expect_err("tombstone in/out mirrors desynced");
                self.log.del_in[d as usize].insert(p, s);
                self.log.tombstones += 1;
                Some(w)
            }
        }
    }

    fn insert_live(&mut self, s: VId, d: VId, w: Weight) -> Inserted {
        if let Ok(i) = self.log.ins_out[s as usize].binary_search_by_key(&d, |p| p.0) {
            let old = self.log.ins_out[s as usize][i].1;
            if old == w {
                return Inserted::Unchanged;
            }
            self.log.ins_out[s as usize][i].1 = w;
            let j = self.log.ins_in[d as usize]
                .binary_search_by_key(&s, |p| p.0)
                .expect("overlay in/out mirrors desynced");
            self.log.ins_in[d as usize][j].1 = w;
            return Inserted::Updated(old);
        }
        match self.base_weight(s, d) {
            Some(bw) => match self.log.del_out[s as usize].binary_search(&d) {
                // Tombstoned base edge re-inserted: the pair was dead, so
                // this is a fresh overlay insert (the tombstone stays —
                // the base slot remains masked).
                Ok(_) => {
                    self.add_overlay(s, d, w);
                    Inserted::New
                }
                Err(pos) => {
                    if bw == w {
                        // Idempotent upsert: already live with this weight.
                        return Inserted::Unchanged;
                    }
                    // Live base edge re-weighted: tombstone the base slot
                    // and carry the new weight in the overlay, so weight
                    // updates and fresh inserts look identical downstream.
                    self.log.del_out[s as usize].insert(pos, d);
                    let p = self.log.del_in[d as usize]
                        .binary_search(&s)
                        .expect_err("tombstone in/out mirrors desynced");
                    self.log.del_in[d as usize].insert(p, s);
                    self.log.tombstones += 1;
                    self.add_overlay(s, d, w);
                    Inserted::Updated(bw)
                }
            },
            None => {
                self.add_overlay(s, d, w);
                Inserted::New
            }
        }
    }

    fn add_overlay(&mut self, s: VId, d: VId, w: Weight) {
        let pos = self.log.ins_out[s as usize]
            .binary_search_by_key(&d, |p| p.0)
            .expect_err("overlay insert already present");
        self.log.ins_out[s as usize].insert(pos, (d, w));
        let p = self.log.ins_in[d as usize]
            .binary_search_by_key(&s, |p| p.0)
            .expect_err("overlay insert already present");
        self.log.ins_in[d as usize].insert(p, (s, w));
        self.log.inserts += 1;
    }
}

/// Whether every adjacency list of `g` is strictly increasing with no
/// self-loops — i.e. `g` was built from a canonical edge list.
fn graph_is_canonical(g: &Graph) -> bool {
    (0..g.num_vertices() as VId).all(|v| {
        let ns = g.out_neighbors(v);
        ns.iter().all(|&d| d != v) && ns.windows(2).all(|w| w[0] < w[1])
    })
}

/// Sorted three-way merge over one vertex's adjacency: base entries minus
/// tombstones, interleaved with overlay inserts. Yields `(neighbor,
/// weight)` in strictly increasing neighbor order.
pub struct MergedEdges<'a> {
    base_ids: &'a [VId],
    base_ws: &'a [Weight],
    dead: &'a [VId],
    ins: &'a [(VId, Weight)],
    bi: usize,
    di: usize,
    ii: usize,
}

impl<'a> MergedEdges<'a> {
    fn new(
        base_ids: &'a [VId],
        base_ws: &'a [Weight],
        dead: &'a [VId],
        ins: &'a [(VId, Weight)],
    ) -> Self {
        MergedEdges {
            base_ids,
            base_ws,
            dead,
            ins,
            bi: 0,
            di: 0,
            ii: 0,
        }
    }
}

impl Iterator for MergedEdges<'_> {
    type Item = (VId, Weight);

    fn next(&mut self) -> Option<(VId, Weight)> {
        // Skip tombstoned base entries (both lists sorted; every tombstone
        // names an existing base entry).
        while self.bi < self.base_ids.len()
            && self.di < self.dead.len()
            && self.base_ids[self.bi] >= self.dead[self.di]
        {
            if self.base_ids[self.bi] == self.dead[self.di] {
                self.bi += 1;
            }
            self.di += 1;
        }
        let b = (self.bi < self.base_ids.len()).then(|| self.base_ids[self.bi]);
        let i = (self.ii < self.ins.len()).then(|| self.ins[self.ii].0);
        match (b, i) {
            (None, None) => None,
            (Some(_), None) => {
                let out = (self.base_ids[self.bi], self.base_ws[self.bi]);
                self.bi += 1;
                Some(out)
            }
            (None, Some(_)) => {
                let out = self.ins[self.ii];
                self.ii += 1;
                Some(out)
            }
            (Some(bv), Some(iv)) => {
                if bv < iv {
                    let out = (self.base_ids[self.bi], self.base_ws[self.bi]);
                    self.bi += 1;
                    Some(out)
                } else {
                    // Equal cannot happen (a live base entry is never
                    // shadowed by an overlay insert); prefer the overlay
                    // defensively.
                    let out = self.ins[self.ii];
                    self.ii += 1;
                    if bv == iv {
                        self.bi += 1;
                    }
                    Some(out)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MutableGraph {
        // 0 -> 1 -> 2 -> 3, 0 -> 2 (weights = 10*src + dst)
        let mut el = EdgeList::new(5);
        for (s, d) in [(0, 1), (1, 2), (2, 3), (0, 2)] {
            el.edges.push(Edge::weighted(s, d, 10 * s + d));
        }
        MutableGraph::from_edge_list(el).with_compaction_fraction(f64::INFINITY)
    }

    #[test]
    fn insert_delete_update_roundtrip() {
        let mut g = small();
        assert_eq!(g.num_live_edges(), 4);
        let mut b = DeltaBatch::new();
        b.insert(3, 4, 34)
            .delete(0, 2)
            .insert(1, 2, 99)
            .delete(4, 0);
        let applied = g.apply(&b).unwrap();
        assert_eq!(applied.stats.inserted, 1); // (3,4)
        assert_eq!(applied.stats.updated, 1); // (1,2) reweighted
        assert_eq!(applied.stats.deleted, 1); // (0,2)
        assert_eq!(applied.stats.missing, 1); // (4,0) never existed
        assert_eq!(applied.reweighted, vec![Edge::weighted(1, 2, 12)]);
        assert_eq!(g.num_live_edges(), 4);
        assert_eq!(g.weight(1, 2), Some(99));
        assert_eq!(g.weight(0, 2), None);
        assert_eq!(g.weight(3, 4), Some(34));
        let out0: Vec<_> = g.out_edges(0).collect();
        assert_eq!(out0, vec![(1, 1)]);
        let in2: Vec<_> = g.in_edges(2).collect();
        assert_eq!(in2, vec![(1, 99)]);
        assert_eq!(g.live_out_degree(0), 1);
        assert_eq!(g.in_edges(2).count(), 1);
        assert_eq!(g.epoch(), 1);
        assert_eq!(g.compactions(), 0);
    }

    #[test]
    fn delete_then_reinsert_is_new() {
        let mut g = small();
        let mut b = DeltaBatch::new();
        b.delete(0, 1);
        g.apply(&b).unwrap();
        assert_eq!(g.weight(0, 1), None);
        let mut b = DeltaBatch::new();
        b.insert(0, 1, 77);
        let applied = g.apply(&b).unwrap();
        assert_eq!(applied.stats.inserted, 1);
        assert_eq!(g.weight(0, 1), Some(77));
        let out0: Vec<_> = g.out_edges(0).collect();
        assert_eq!(out0, vec![(1, 77), (2, 2)]);
    }

    #[test]
    fn idempotent_upsert_leaves_log_empty() {
        let mut g = small();
        let mut b = DeltaBatch::new();
        b.insert(0, 1, 1); // weight already 1
        let applied = g.apply(&b).unwrap();
        assert_eq!(applied.stats.updated, 1);
        assert!(
            [&applied.inserts, &applied.deletes, &applied.reweighted]
                .iter()
                .all(|l| l.is_empty()),
            "idempotent upsert changes nothing"
        );
        assert!(g.log().is_empty());
    }

    #[test]
    fn compaction_matches_scratch_build() {
        let mut g = small();
        let mut b = DeltaBatch::new();
        b.insert(4, 0, 40).delete(1, 2).insert(0, 3, 3);
        g.apply(&b).unwrap();
        let snapshot = g.snapshot_edge_list();
        g.compact();
        assert_eq!(g.compactions(), 1);
        assert!(g.log().is_empty());
        assert_eq!(*g.base(), GraphBuilder::build_canonical(snapshot));
        // Live view unchanged by compaction.
        assert_eq!(g.weight(4, 0), Some(40));
        assert_eq!(g.weight(1, 2), None);
    }

    #[test]
    fn threshold_triggers_auto_compaction() {
        let mut el = EdgeList::new(8);
        for v in 0..7 {
            el.edges.push(Edge::new(v, v + 1));
        }
        let mut g = MutableGraph::from_edge_list(el).with_compaction_fraction(0.25);
        let mut b = DeltaBatch::new();
        b.insert(7, 0, 1).insert(0, 7, 1).insert(2, 0, 1);
        let applied = g.apply(&b).unwrap();
        // 3 overlay edges > 0.25 * 7 → compacted.
        assert!(applied.stats.compacted);
        assert_eq!(g.compactions(), 1);
        assert_eq!(g.num_live_edges(), 10);
    }

    #[test]
    fn from_graph_adopts_canonical_base() {
        let el = EdgeList::from_pairs(4, [(0, 1), (0, 2), (2, 3)]);
        let g = Graph::from_edges(&el);
        let mg = MutableGraph::from_graph(&g);
        assert_eq!(*mg.base(), g);
        // Non-canonical input (duplicate + self-loop) gets canonicalized.
        let el2 = EdgeList::from_pairs(4, [(0, 1), (1, 1), (0, 1), (2, 3)]);
        let g2 = Graph::from_edges(&el2);
        let mg2 = MutableGraph::from_graph(&g2);
        assert_eq!(mg2.num_live_edges(), 2);
    }

    #[test]
    fn empty_batch_bumps_epoch_only() {
        let mut g = small();
        let applied = g.apply(&DeltaBatch::new()).unwrap();
        assert!([&applied.inserts, &applied.deletes, &applied.reweighted]
            .iter()
            .all(|l| l.is_empty()));
        assert_eq!(g.epoch(), 1);
        assert_eq!(g.num_live_edges(), 4);
    }
}
