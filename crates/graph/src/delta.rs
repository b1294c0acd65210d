//! Batched, validated edge mutations and the delta log that overlays them
//! on a resident CSR.
//!
//! A [`DeltaBatch`] is the unit of ingest: a set of edge inserts and deletes
//! built by a caller, validated against the target graph's vertex range,
//! then applied atomically by [`crate::MutableGraph::apply`]. The applied
//! state accumulates in a [`DeltaLog`]: per-vertex sorted insert lists plus
//! per-vertex sorted tombstone lists over the base CSR, mirrored for both
//! edge directions so merged out- and in-adjacency iteration stays O(degree).
//!
//! Semantics (documented in `docs/INCREMENTAL.md`):
//!
//! * The live graph is a *set* of canonical edges — no self-loops, one
//!   weight per `(src, dst)` pair. Inserting an edge that is already live
//!   updates its weight; deleting an absent edge is counted, not an error.
//! * Within one batch, deletes are applied before inserts and duplicates
//!   collapse (inserts keep the last weight — latest write wins; deletes
//!   dedup). A pair both deleted and inserted in one batch therefore ends
//!   up live with the inserted weight.
//! * Self-loop inserts and out-of-range endpoints are rejected up front
//!   ([`DeltaError`]); the batch is then all-or-nothing.

use std::fmt;

use crate::types::{Edge, VId, Weight};

/// Validation failure for a [`DeltaBatch`]; the batch is rejected as a whole
/// and the target graph is left untouched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// An endpoint is `>= num_vertices` of the target graph.
    EndpointOutOfRange {
        /// Edge source.
        src: VId,
        /// Edge destination.
        dst: VId,
        /// Vertex count of the target graph.
        num_vertices: usize,
    },
    /// A self-loop insert; the canonical edge set excludes self-loops.
    SelfLoopInsert {
        /// The offending vertex.
        vertex: VId,
    },
    /// A zero-weight insert. Live weights are strictly positive (the
    /// generators draw from `(0, 100]`), and the incremental SSSP repair
    /// proof relies on it: a zero-weight cycle would let a deleted
    /// shortest-path edge hide behind an equal-cost support chain that
    /// never terminates the suspect cascade.
    ZeroWeightInsert {
        /// Edge source.
        src: VId,
        /// Edge destination.
        dst: VId,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::EndpointOutOfRange {
                src,
                dst,
                num_vertices,
            } => write!(
                f,
                "edge ({src}, {dst}) out of range for {num_vertices} vertices"
            ),
            DeltaError::SelfLoopInsert { vertex } => {
                write!(f, "self-loop insert ({vertex}, {vertex}) rejected")
            }
            DeltaError::ZeroWeightInsert { src, dst } => {
                write!(f, "zero-weight insert ({src}, {dst}) rejected")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// A batch of edge mutations awaiting application to a
/// [`crate::MutableGraph`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaBatch {
    /// Edges to insert (or re-weight, when the pair is already live).
    pub inserts: Vec<Edge>,
    /// `(src, dst)` pairs to delete.
    pub deletes: Vec<(VId, VId)>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> Self {
        DeltaBatch::default()
    }

    /// Queue an insert of `(src, dst)` with weight `w`.
    pub fn insert(&mut self, src: VId, dst: VId, w: Weight) -> &mut Self {
        self.inserts.push(Edge::weighted(src, dst, w));
        self
    }

    /// Queue a delete of `(src, dst)`.
    pub fn delete(&mut self, src: VId, dst: VId) -> &mut Self {
        self.deletes.push((src, dst));
        self
    }

    /// Total queued mutations.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Whether the batch queues nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Validate every mutation against an `n`-vertex graph: endpoints in
    /// range, no self-loop inserts, strictly positive insert weights.
    pub fn validate(&self, n: usize) -> Result<(), DeltaError> {
        for e in &self.inserts {
            if e.src == e.dst {
                return Err(DeltaError::SelfLoopInsert { vertex: e.src });
            }
            if e.weight == 0 {
                return Err(DeltaError::ZeroWeightInsert {
                    src: e.src,
                    dst: e.dst,
                });
            }
            if e.src as usize >= n || e.dst as usize >= n {
                return Err(DeltaError::EndpointOutOfRange {
                    src: e.src,
                    dst: e.dst,
                    num_vertices: n,
                });
            }
        }
        for &(s, d) in &self.deletes {
            if s as usize >= n || d as usize >= n {
                return Err(DeltaError::EndpointOutOfRange {
                    src: s,
                    dst: d,
                    num_vertices: n,
                });
            }
        }
        Ok(())
    }

    /// Collapse duplicates: deletes dedup by pair; inserts dedup by pair
    /// keeping the *last* weight (latest write wins within a batch — the
    /// opposite of load-time canonicalization, where the first of a
    /// duplicated input edge wins; a batch is a sequence of commands, not a
    /// multiset of edges). Both lists come out sorted by `(src, dst)`.
    pub fn normalize(&mut self) {
        self.deletes.sort_unstable();
        self.deletes.dedup();
        // Stable sort + keep-last: reverse first so dedup's keep-first
        // retains the final queued weight for each pair.
        self.inserts.reverse();
        self.inserts
            .sort_by_key(|e| ((e.src as u64) << 32) | e.dst as u64);
        self.inserts.dedup_by_key(|e| (e.src, e.dst));
    }
}

/// The accumulated overlay of applied batches on top of a base CSR:
/// per-vertex sorted insert lists and tombstone lists, mirrored for the out
/// (CSR) and in (CSC) directions.
#[derive(Clone, Debug, Default)]
pub struct DeltaLog {
    /// Overlay inserts per source vertex, sorted by destination.
    pub(crate) ins_out: Vec<Vec<(VId, Weight)>>,
    /// Overlay inserts per destination vertex, sorted by source.
    pub(crate) ins_in: Vec<Vec<(VId, Weight)>>,
    /// Tombstoned base out-edges per source vertex, sorted by destination.
    pub(crate) del_out: Vec<Vec<VId>>,
    /// Tombstoned base in-edges per destination vertex, sorted by source.
    pub(crate) del_in: Vec<Vec<VId>>,
    /// Total overlay-insert edges.
    pub(crate) inserts: usize,
    /// Total tombstoned base edges.
    pub(crate) tombstones: usize,
}

impl DeltaLog {
    /// An empty log over `n` vertices.
    pub(crate) fn new(n: usize) -> Self {
        DeltaLog {
            ins_out: vec![Vec::new(); n],
            ins_in: vec![Vec::new(); n],
            del_out: vec![Vec::new(); n],
            del_in: vec![Vec::new(); n],
            inserts: 0,
            tombstones: 0,
        }
    }

    /// Overlay inserts out of `v`, sorted by destination.
    pub fn inserts_out(&self, v: VId) -> &[(VId, Weight)] {
        &self.ins_out[v as usize]
    }

    /// Overlay inserts into `v`, sorted by source.
    pub fn inserts_in(&self, v: VId) -> &[(VId, Weight)] {
        &self.ins_in[v as usize]
    }

    /// Tombstoned base out-edge destinations of `v`, sorted.
    pub fn tombstones_out(&self, v: VId) -> &[VId] {
        &self.del_out[v as usize]
    }

    /// Tombstoned base in-edge sources of `v`, sorted.
    pub fn tombstones_in(&self, v: VId) -> &[VId] {
        &self.del_in[v as usize]
    }

    /// Total overlay-insert edges.
    pub fn num_inserts(&self) -> usize {
        self.inserts
    }

    /// Total tombstoned base edges.
    pub fn num_tombstones(&self) -> usize {
        self.tombstones
    }

    /// Whether the log holds no mutations.
    pub fn is_empty(&self) -> bool {
        self.inserts == 0 && self.tombstones == 0
    }
}

/// Counters for one applied batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Edges newly inserted (pair was not live).
    pub inserted: usize,
    /// Edges whose weight was updated (pair was already live).
    pub updated: usize,
    /// Edges deleted (pair was live).
    pub deleted: usize,
    /// Deletes of pairs that were not live (counted, not an error).
    pub missing: usize,
    /// Whether this application crossed the compaction threshold and
    /// rebuilt the base CSR.
    pub compacted: bool,
}

/// The effective outcome of one applied batch: exactly what changed, in
/// canonical `(src, dst)` order. Incremental engines seed their repair
/// frontiers from these lists.
#[derive(Clone, Debug)]
pub struct AppliedBatch {
    /// Epoch assigned to this batch (monotone per [`crate::MutableGraph`]).
    pub epoch: u64,
    /// Edges that became live or changed weight, with their new weight.
    /// Idempotent same-weight upserts are excluded (they changed nothing).
    pub inserts: Vec<Edge>,
    /// Edges that ceased to be live, with the weight they had.
    pub deletes: Vec<Edge>,
    /// Live pairs whose weight changed, carrying the *old* weight (the new
    /// one is in [`AppliedBatch::inserts`] for the same pair). Monotone
    /// repair engines seed from these like deletes: a weight increase can
    /// invalidate a shortest-path value exactly as a removal can.
    pub reweighted: Vec<Edge>,
    /// Counters for the application.
    pub stats: BatchStats,
}

impl AppliedBatch {
    /// Compose this batch with one *that happened after it* into the single
    /// batch that takes the graph from before `self` to after `later`. Used
    /// when a query warm-starts from a result older than the latest epoch.
    /// Per pair, the weight in force before the earlier batch composes with
    /// the weight live after the later one:
    ///
    /// | before | after | merged |
    /// |---|---|---|
    /// | `w0` | absent | `deletes (w0)` |
    /// | absent | `w` | `inserts (w)` |
    /// | `w0` | `w1 ≠ w0` | `reweighted (w0)` + `inserts (w1)` |
    /// | `w0` | `w0` | nothing |
    /// | absent | absent | nothing |
    ///
    /// The composition has to be exact: the repair engines relax along
    /// `inserts` without consulting the live adjacency, and test removed
    /// support against the weight the *prior* values were computed with, so
    /// a stale insert or an intermediate old weight yields a wrong answer,
    /// not extra work.
    pub fn merged_with(&self, later: &AppliedBatch) -> AppliedBatch {
        // Every listing of a pair as (pair, weight before, weight after),
        // `None` = not live, in time order: within a batch `deletes` and
        // `reweighted` say what was, `inserts` what is.
        fn listings(
            b: &AppliedBatch,
        ) -> impl Iterator<Item = ((VId, VId), Option<Weight>, Option<Weight>)> + '_ {
            let was = b.deletes.iter().chain(&b.reweighted);
            was.map(|e| ((e.src, e.dst), Some(e.weight), None)).chain(
                b.inserts
                    .iter()
                    .map(|e| ((e.src, e.dst), None, Some(e.weight))),
            )
        }
        let mut pairs: Vec<_> = listings(self).chain(listings(later)).collect();
        // Stable, so a pair's listings stay in time order (and cheap: the
        // lists are each in canonical order already). A pair's transition is
        // then its first listing's `before` and its last listing's `after`.
        pairs.sort_by_key(|&(pair, ..)| pair);
        pairs.dedup_by(|next, first| {
            let same = first.0 == next.0;
            if same {
                first.2 = next.2;
            }
            same
        });
        let mut merged = AppliedBatch {
            epoch: later.epoch.max(self.epoch),
            inserts: Vec::new(),
            deletes: Vec::new(),
            reweighted: Vec::new(),
            stats: BatchStats::default(),
        };
        for ((s, d), before, after) in pairs {
            match (before, after) {
                (Some(w0), None) => merged.deletes.push(Edge::weighted(s, d, w0)),
                (None, Some(w)) => merged.inserts.push(Edge::weighted(s, d, w)),
                (Some(w0), Some(w1)) if w0 != w1 => {
                    merged.reweighted.push(Edge::weighted(s, d, w0));
                    merged.inserts.push(Edge::weighted(s, d, w1));
                }
                _ => {}
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_batches() {
        let mut b = DeltaBatch::new();
        b.insert(0, 9, 1);
        assert!(matches!(
            b.validate(4),
            Err(DeltaError::EndpointOutOfRange { .. })
        ));
        let mut b = DeltaBatch::new();
        b.insert(2, 2, 1);
        assert_eq!(b.validate(4), Err(DeltaError::SelfLoopInsert { vertex: 2 }));
        let mut b = DeltaBatch::new();
        b.delete(0, 9);
        assert!(b.validate(4).is_err());
        let mut b = DeltaBatch::new();
        b.insert(0, 1, 0);
        assert_eq!(
            b.validate(4),
            Err(DeltaError::ZeroWeightInsert { src: 0, dst: 1 })
        );
        let mut ok = DeltaBatch::new();
        ok.insert(0, 1, 5).delete(1, 0);
        assert_eq!(ok.validate(4), Ok(()));
    }

    #[test]
    fn normalize_keeps_last_insert_weight() {
        let mut b = DeltaBatch::new();
        b.insert(0, 1, 5).insert(2, 3, 9).insert(0, 1, 8);
        b.delete(4, 5).delete(4, 5);
        b.normalize();
        assert_eq!(b.inserts.len(), 2);
        assert_eq!(b.inserts[0], Edge::weighted(0, 1, 8));
        assert_eq!(b.deletes, vec![(4, 5)]);
    }

    #[test]
    fn merged_batches_compose_per_pair() {
        /// A batch touching pair `(s, s + 1)` only; weights as
        /// `[inserts, deletes, reweighted]`, 0 = not listed.
        fn batch(epoch: u64, s: VId, [ins, del, rew]: [Weight; 3]) -> AppliedBatch {
            let list = |w: Weight| Vec::from_iter((w != 0).then(|| Edge::weighted(s, s + 1, w)));
            AppliedBatch {
                epoch,
                inserts: list(ins),
                deletes: list(del),
                reweighted: list(rew),
                stats: BatchStats::default(),
            }
        }
        let lists = |b: AppliedBatch| (b.inserts, b.deletes, b.reweighted);
        let table = [
            ("insert, delete", [5, 0, 0], [0, 5, 0], [0, 0, 0]),
            ("delete, insert back", [0, 5, 0], [5, 0, 0], [0, 0, 0]),
            ("delete, insert other", [0, 5, 0], [8, 0, 0], [8, 0, 5]),
            ("reweight, reweight", [7, 0, 5], [20, 0, 7], [20, 0, 5]),
            ("reweight, reweight back", [7, 0, 5], [5, 0, 7], [0, 0, 0]),
            ("reweight, delete", [7, 0, 5], [0, 7, 0], [0, 5, 0]),
            ("insert, reweight", [5, 0, 0], [9, 0, 5], [9, 0, 0]),
            ("delete, untouched", [0, 5, 0], [0, 0, 0], [0, 5, 0]),
            ("untouched, replace", [0, 0, 0], [9, 5, 0], [9, 0, 5]),
            ("replace at equal weight", [5, 5, 0], [0, 0, 0], [0, 0, 0]),
        ];
        for (case, first, second, want) in table {
            let m = batch(1, 0, first).merged_with(&batch(2, 0, second));
            assert_eq!(m.epoch, 2);
            assert_eq!(lists(m), lists(batch(2, 0, want)), "{case}");
        }
        // Pairs compose independently and come out in canonical order.
        let mut first = batch(1, 4, [5, 0, 0]);
        first.inserts.push(Edge::weighted(2, 9, 3));
        let m = first.merged_with(&batch(2, 4, [0, 5, 0]));
        assert_eq!(lists(m), (vec![Edge::weighted(2, 9, 3)], vec![], vec![]));
    }
}
