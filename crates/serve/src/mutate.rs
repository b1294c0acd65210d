//! Mutated-mode state: the resident [`MutableGraph`], the result cache and
//! the retained batch window. Nothing here is placed on a simulated machine:
//! every answer this state computes or hands out the means for is computed
//! on host memory.
//!
//! The first [`crate::RequestKind::Ingest`] canonicalizes the resident edge
//! set into a [`MutableGraph`] (self-loops dropped, duplicate pairs
//! collapsed — exactly what the loaders do) and the service switches to
//! mutated mode permanently:
//!
//! * Ingests apply under the graph's own validation and threshold
//!   compaction; each returns its [`polymer_graph::BatchStats`].
//! * Every computed answer is cached per lane (algorithm × parameters ×
//!   source) with the epoch it was computed at. A repeat query at the same
//!   epoch is a pure cache hit ([`MutState::cached`]).
//! * A BFS / SSSP query after further ingests warm-starts from its cached
//!   values ([`MutState::repair`]): [`polymer_algos::warm_repair`], a
//!   sequential host kernel over the resident graph, given the intervening
//!   [`AppliedBatch`]es — the one batch itself when the prior is one epoch
//!   old, their [`AppliedBatch::merged_with`] composition otherwise. Its
//!   cost is proportional to what the batches invalidated.
//! * A lane whose prior fell out of the batch window can neither hit nor
//!   warm-start; [`MutState::ingest`] drops it when the window moves on.
//! * Everything else the service computes over [`MutState::graph`] under
//!   the mutation mutex — a sweep of the traversals with no usable prior, a
//!   PageRank run — and caches through [`MutState::store`], so the next
//!   epoch repairs a traversal. A PageRank is never repaired: a later epoch
//!   runs it again.

use std::collections::HashMap;

use polymer_algos::{warm_repair, WarmStart};
use polymer_api::PolymerResult;
use polymer_graph::{AppliedBatch, BatchStats, DeltaBatch, DeltaError, Graph, MutableGraph};

use crate::request::{with_traversal, Answer, Class, RequestKind};

/// Applied batches retained for warm-start merging; cached results older
/// than this window are recomputed cold.
const BATCH_WINDOW: usize = 32;

/// Mutation-mode state: the live graph, the retained batch window (epochs
/// consecutive, ascending), and the result cache (one [`Answer`] per
/// [`RequestKind::lane`]).
pub(crate) struct MutState {
    mg: MutableGraph,
    batches: Vec<AppliedBatch>,
    cache: HashMap<(Class, usize), Answer>,
}

impl MutState {
    /// Enter mutated mode over the resident graph (canonicalizing its edge
    /// set), with an optional compaction-fraction override.
    pub(crate) fn new(g: &Graph, compaction_fraction: Option<f64>) -> MutState {
        let mut mg = MutableGraph::from_graph(g);
        if let Some(f) = compaction_fraction {
            mg = mg.with_compaction_fraction(f);
        }
        MutState {
            mg,
            batches: Vec::new(),
            cache: HashMap::new(),
        }
    }

    /// Apply one mutation batch. Returns its stats (which include whether
    /// the application crossed the compaction threshold) and the epoch it
    /// produced. When the batch window drops its oldest batches, the cache
    /// lanes only they could bridge to the present go with them.
    pub(crate) fn ingest(&mut self, batch: &DeltaBatch) -> Result<(BatchStats, u64), DeltaError> {
        let applied = self.mg.apply(batch)?;
        let outcome = (applied.stats, applied.epoch);
        self.batches.push(applied);
        if self.batches.len() > BATCH_WINDOW {
            let drop = self.batches.len() - BATCH_WINDOW;
            self.batches.drain(..drop);
            let oldest = self.batches[0].epoch;
            self.cache.retain(|_, lane| lane.epoch + 1 >= oldest);
        }
        Ok(outcome)
    }

    /// The live graph (what a cold sweep and a PageRank run read).
    pub(crate) fn graph(&self) -> &MutableGraph {
        &self.mg
    }

    /// The answer to `kind` computed at the current epoch, if there is one.
    pub(crate) fn cached(&self, kind: &RequestKind) -> Option<Answer> {
        let hit = self.cache.get(&kind.lane()?)?;
        (hit.epoch == self.mg.epoch()).then(|| hit.clone())
    }

    /// Cache `answer` to `kind`, unless the graph has moved on since the
    /// epoch it was computed at. A hit runs nothing, so the lane count of the
    /// run stays with the response that ran.
    pub(crate) fn store(&mut self, kind: &RequestKind, answer: &Answer) {
        if let Some(lane) = kind.lane().filter(|_| answer.epoch == self.mg.epoch()) {
            let cached = Answer::new(answer.values.clone(), answer.epoch, answer.iterations);
            self.cache.insert(lane, cached);
        }
    }

    /// Repair the cached answer to the traversal `kind` up to the current
    /// epoch, on host memory. `None` for a PageRank, and when there is no
    /// usable prior: one is usable when every batch since it is retained —
    /// epochs advance by one per apply, so the window's tail must span
    /// `(prior.epoch, epoch]` exactly.
    pub(crate) fn repair(&self, kind: &RequestKind) -> PolymerResult<Option<Answer>> {
        let epoch = self.mg.epoch();
        let traversal = kind.lane().filter(|(class, _)| *class != Class::PageRank);
        let Some(prior) = traversal.and_then(|lane| self.cache.get(&lane)) else {
            return Ok(None);
        };
        let since = &self.batches[self.batches.partition_point(|b| b.epoch <= prior.epoch)..];
        if since.len() as u64 != epoch - prior.epoch {
            return Ok(None);
        }
        // A prior one epoch old (the common case) borrows its batch.
        let merged;
        let batch = match since {
            [] => return Ok(None),
            [only] => only,
            [first, second, later @ ..] => {
                let window = first.merged_with(second);
                merged = later.iter().fold(window, |acc, b| acc.merged_with(b));
                &merged
            }
        };
        let (values, iterations) = with_traversal!(kind, |prog, wrap, lane| {
            let warm = WarmStart {
                values: lane(&prior.values).expect("a cache lane holds its own kind of values"),
                iterations: prior.iterations,
                batch,
            };
            let (values, iterations) = warm_repair(&self.mg, &prog, warm)?;
            (wrap(values), iterations)
        });
        Ok(Some(Answer::new(values, epoch, iterations)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ResponseValues;
    use polymer_algos::{run_multi_source, run_reference, Bfs, MultiSource, PageRank, Sssp};
    use polymer_graph::gen;
    use polymer_numa::{Machine, MachineSpec};

    /// What the service does with a traversal the cache cannot answer:
    /// repair it warm, else sweep the live graph cold; store either. Returns
    /// the answer and whether it was repaired.
    fn answer(ms: &mut MutState, kind: &RequestKind) -> (Answer, bool) {
        let warm = ms.repair(kind).unwrap();
        let repaired = warm.is_some();
        let answer = warm.unwrap_or_else(|| {
            let machine = Machine::new(MachineSpec::test2());
            let (values, iterations) = with_traversal!(kind, |prog, wrap, _lane| {
                let batch = MultiSource::new(vec![prog]).unwrap();
                let res = run_multi_source(&machine, 2, ms.graph(), &batch).unwrap();
                (wrap(res.values), res.iterations)
            });
            Answer::new(values, ms.graph().epoch(), iterations)
        });
        ms.store(kind, &answer);
        (answer, repaired)
    }

    /// Which state answers what: a first-time traversal has no prior to
    /// repair, the next epoch repairs its cached result, and a PageRank
    /// needs the cache and the graph only — it is never repaired.
    #[test]
    fn cold_traversals_place_nothing_and_seed_the_warm_repair() {
        let g = Graph::from_edges(&gen::rmat(7, 1 << 10, gen::RMAT_GRAPH500, 5));
        let mut ms = MutState::new(&g, Some(f64::INFINITY));
        let bfs = RequestKind::Bfs { source: 3 };
        let sssp = RequestKind::Sssp {
            source: 3,
            delta: 100,
        };
        for epoch in 1..=2u64 {
            let batch = gen::mixed_batch(&ms.mg, epoch, 12, false);
            ms.ingest(&batch).unwrap();
            assert!(ms.cached(&bfs).is_none(), "the graph moved past the cache");
            let (got, repaired) = answer(&mut ms, &bfs);
            assert_eq!((got.epoch, repaired), (epoch, epoch == 2));
            assert_eq!(
                got.values.levels().unwrap(),
                run_reference(&ms.mg, &Bfs::new(3)).0
            );
            let (got, repaired) = answer(&mut ms, &sssp);
            let oracle = run_reference(&ms.mg, &Sssp::new(3)).0;
            assert_eq!(got.values.distances().unwrap(), oracle);
            assert_eq!(repaired, epoch == 2);
            assert_eq!(ms.cached(&bfs).unwrap().epoch, epoch);
        }

        let pr = RequestKind::PageRank { iters: 3 };
        assert!(ms.cached(&pr).is_none());
        let prog = PageRank::new(ms.mg.num_vertices()).with_iters(3);
        let (ranks, iterations) = run_reference(&ms.mg, &prog);
        let fresh = Answer::new(ResponseValues::Ranks(ranks), ms.mg.epoch(), iterations);
        ms.store(&pr, &fresh);
        assert_eq!(ms.cached(&pr).unwrap().values, fresh.values);
        assert!(ms.cached(&RequestKind::PageRank { iters: 4 }).is_none());
        // A cached PageRank is a hit at its epoch and never warm after it,
        // and an answer computed at an epoch the graph has moved past is not
        // cached.
        ms.ingest(&DeltaBatch::new()).unwrap();
        assert!(ms.cached(&pr).is_none());
        assert!(ms.repair(&pr).unwrap().is_none(), "never warm");
        ms.store(&RequestKind::PageRank { iters: 4 }, &fresh);
        assert!(ms.cached(&RequestKind::PageRank { iters: 4 }).is_none());
    }

    /// A lane the batch window can no longer bridge to the present is dead
    /// weight — it can neither hit nor warm-start — and goes when the window
    /// moves past it; a lane refreshed inside the window stays.
    #[test]
    fn lanes_the_batch_window_moved_past_are_dropped() {
        let g = Graph::from_edges(&gen::rmat(7, 1 << 10, gen::RMAT_GRAPH500, 5));
        let mut ms = MutState::new(&g, Some(f64::INFINITY));
        let (stale, kept) = (
            RequestKind::Bfs { source: 3 },
            RequestKind::Bfs { source: 9 },
        );
        ms.ingest(&DeltaBatch::new()).unwrap();
        assert!(!answer(&mut ms, &stale).1 && !answer(&mut ms, &kept).1);
        for i in 0..40u64 {
            let batch = match i % 8 {
                0 => gen::mixed_batch(&ms.mg, i, 3, false),
                _ => DeltaBatch::new(),
            };
            ms.ingest(&batch).unwrap();
            let bridged = i < BATCH_WINDOW as u64;
            assert_eq!(ms.cache.contains_key(&stale.lane().unwrap()), bridged);
            if i == 20 {
                assert!(answer(&mut ms, &kept).1, "twenty-one batches merge");
            }
        }
        assert_eq!(ms.cache.len(), 1, "the refreshed lane only");
        let (got, repaired) = answer(&mut ms, &kept);
        assert!(repaired);
        assert_eq!(
            got.values.levels().unwrap(),
            run_reference(&ms.mg, &Bfs::new(9)).0
        );
        let (got, repaired) = answer(&mut ms, &stale);
        assert!(!repaired, "nothing left to repair: a cold sweep");
        assert_eq!(got.epoch, ms.mg.epoch());
        assert_eq!(
            got.values.levels().unwrap(),
            run_reference(&ms.mg, &Bfs::new(3)).0
        );
    }
}
