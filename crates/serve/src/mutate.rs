//! Mutated-mode state: the resident [`MutableGraph`], the result cache,
//! the retained batch window, and the placed delta-overlay topology warm
//! repairs run on.
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
//!   values with the intervening [`AppliedBatch`]es merged via
//!   [`AppliedBatch::merged_with`] ([`MutState::repair`]), on a resident
//!   [`OverlayTopo`] placed on a persistent simulated [`Machine`]. The pair
//!   is placed when a repair first needs it and rebuilt only when
//!   [`OverlayTopo::is_stale`] says the graph moved past it (any ingest, or
//!   a compaction's generation bump, which also re-encodes the base when
//!   compressed topology is enabled).
//! * Everything else the service computes from what this state hands out —
//!   a traversal with no usable prior sweeps [`MutState::graph`] on host
//!   memory, a PageRank runs the static engine path over
//!   [`MutState::snapshot`] with the mutation mutex released — and caches
//!   through [`MutState::store`], so the next epoch repairs it.

use std::collections::HashMap;

use polymer_algos::{SingleSource, WarmStart};
use polymer_api::{OverlayTopo, PolymerResult};
use polymer_graph::{AppliedBatch, BatchStats, DeltaBatch, DeltaError, Graph, MutableGraph, VId};
use polymer_numa::{AllocPolicy, Machine, MachineSpec};

use crate::request::{with_traversal, Answer, Class, RequestKind};

/// Applied batches retained for warm-start merging; cached results older
/// than this window are recomputed cold.
const BATCH_WINDOW: usize = 32;

/// The resident placed topology: a persistent simulated machine plus the
/// overlay CSR/CSC placed into it, kept until the graph moves past them.
struct Resident {
    machine: Machine,
    topo: OverlayTopo,
}

/// Mutation-mode state: the live graph, its placed topology, the retained
/// batch window, and the result cache (one [`Answer`] per
/// [`RequestKind::lane`]).
pub(crate) struct MutState {
    mg: MutableGraph,
    resident: Option<Resident>,
    batches: Vec<AppliedBatch>,
    cache: HashMap<(Class, Option<VId>), Answer>,
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
            resident: None,
            batches: Vec::new(),
            cache: HashMap::new(),
        }
    }

    /// Apply one mutation batch. Returns its stats (which include whether
    /// the application crossed the compaction threshold) and the epoch it
    /// produced.
    pub(crate) fn ingest(&mut self, batch: &DeltaBatch) -> Result<(BatchStats, u64), DeltaError> {
        let applied = self.mg.apply(batch)?;
        let outcome = (applied.stats, applied.epoch);
        self.batches.push(applied);
        if self.batches.len() > BATCH_WINDOW {
            let drop = self.batches.len() - BATCH_WINDOW;
            self.batches.drain(..drop);
        }
        Ok(outcome)
    }

    /// The live graph (what a cold traversal sweeps).
    pub(crate) fn graph(&self) -> &MutableGraph {
        &self.mg
    }

    /// The live graph as a CSR of its own, with the epoch it is a snapshot
    /// of: what an engine run reads once the mutation mutex is released.
    pub(crate) fn snapshot(&self) -> (Graph, u64) {
        let snapshot = Graph::from_edges(&self.mg.snapshot_edge_list());
        (snapshot, self.mg.epoch())
    }

    /// The answer to `kind` computed at the current epoch, if there is one.
    pub(crate) fn cached(&self, kind: &RequestKind) -> Option<Answer> {
        let hit = self.cache.get(&kind.lane()?)?;
        (hit.epoch == self.mg.epoch()).then(|| hit.clone())
    }

    /// Cache `answer` to `kind`, unless the graph has moved on since the
    /// epoch it was computed at. A hit runs nothing, so the supervisor's
    /// report stays with the response that ran.
    pub(crate) fn store(&mut self, kind: &RequestKind, answer: &Answer) {
        if let Some(lane) = kind.lane().filter(|_| answer.epoch == self.mg.epoch()) {
            let mut cached = answer.clone();
            cached.recovery = None;
            self.cache.insert(lane, cached);
        }
    }

    /// Repair the cached answer to the traversal `kind` up to the current
    /// epoch on the placed overlay. `None` when there is no usable prior:
    /// one is usable when every batch since it is retained — epochs advance
    /// by one per apply, so the composed window must span
    /// `(prior.epoch, epoch]` exactly.
    pub(crate) fn repair(
        &mut self,
        kind: &RequestKind,
        spec: &MachineSpec,
        threads: usize,
    ) -> PolymerResult<Option<Answer>> {
        let epoch = self.mg.epoch();
        let Some(prior) = kind.lane().and_then(|lane| self.cache.get(&lane)) else {
            return Ok(None);
        };
        let since: Vec<&AppliedBatch> =
            (self.batches.iter().filter(|b| b.epoch > prior.epoch)).collect();
        if since.is_empty() || since.len() as u64 != epoch - prior.epoch {
            return Ok(None);
        }
        let batch = (since[1..].iter()).fold(since[0].clone(), |acc, b| acc.merged_with(b));
        // The placed overlay, (re)placed if the graph moved past it.
        self.resident.take_if(|r| r.topo.is_stale(&self.mg));
        let Resident { machine, topo } = self.resident.get_or_insert_with(|| {
            let machine = Machine::new(spec.clone());
            let topo = OverlayTopo::build(&machine, &self.mg, true, |_| AllocPolicy::Interleaved);
            Resident { machine, topo }
        });
        let (values, iterations) = with_traversal!(kind, |prog, wrap, lane, repair| {
            let warm = WarmStart {
                values: lane(&prior.values).expect("a cache lane holds its own kind of values"),
                iterations: prior.iterations,
                batch: &batch,
            };
            let run = repair(machine, threads, topo, prog.source(), Some(warm), false)?;
            (wrap(run.values), run.iterations)
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

    /// What the service does with a traversal the cache cannot answer:
    /// repair it warm, else sweep the live graph cold; store either.
    fn answer(ms: &mut MutState, kind: &RequestKind, spec: &MachineSpec) -> Answer {
        let answer = ms.repair(kind, spec, 2).unwrap().unwrap_or_else(|| {
            let machine = Machine::new(spec.clone());
            let (values, iterations) = with_traversal!(kind, |prog, wrap, _lane, _repair| {
                let batch = MultiSource::new(vec![prog]).unwrap();
                let run = run_multi_source(&machine, 2, ms.graph(), &batch)
                    .unwrap()
                    .run;
                (wrap(run.values), run.iterations)
            });
            Answer::new(values, ms.graph().epoch(), iterations)
        });
        ms.store(kind, &answer);
        answer
    }

    /// Which state answers what: a first-time traversal has no prior to
    /// repair and places nothing, the next epoch repairs its cached result
    /// on a freshly placed overlay, and a PageRank needs the cache and a
    /// snapshot only — it never places the overlay.
    #[test]
    fn cold_traversals_place_nothing_and_seed_the_warm_repair() {
        let g = Graph::from_edges(&gen::rmat(7, 1 << 10, gen::RMAT_GRAPH500, 5));
        let spec = MachineSpec::test2();
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
            let got = answer(&mut ms, &bfs, &spec);
            assert_eq!(got.epoch, epoch);
            assert_eq!(
                got.values.levels().unwrap(),
                run_reference(&ms.mg, &Bfs::new(3)).0
            );
            assert_eq!(ms.resident.is_some(), epoch == 2, "placed by a repair only");
            ms.resident = None;
            let got = answer(&mut ms, &sssp, &spec);
            let oracle = run_reference(&ms.mg, &Sssp::new(3)).0;
            assert_eq!(got.values.distances().unwrap(), oracle);
            assert_eq!(ms.resident.is_some(), epoch == 2, "placed by a repair only");
            assert_eq!(ms.cached(&bfs).unwrap().epoch, epoch);
        }

        let pr = RequestKind::PageRank { iters: 3 };
        assert!(ms.cached(&pr).is_none());
        assert!(ms.repair(&pr, &spec, 2).unwrap().is_none(), "never warm");
        ms.resident = None;
        let (snapshot, epoch) = ms.snapshot();
        let prog = PageRank::new(snapshot.num_vertices()).with_iters(3);
        let (ranks, iterations) = run_reference(&snapshot, &prog);
        assert_eq!(
            ranks,
            run_reference(&ms.mg, &prog).0,
            "the snapshot is the graph"
        );
        let fresh = Answer::new(ResponseValues::Ranks(ranks), epoch, iterations);
        ms.store(&pr, &fresh);
        assert_eq!(ms.cached(&pr).unwrap().values, fresh.values);
        assert!(ms.cached(&RequestKind::PageRank { iters: 4 }).is_none());
        assert!(
            ms.resident.is_none(),
            "PageRank reads a snapshot, not the overlay"
        );
        // An answer computed on a snapshot the graph has moved past is not cached.
        ms.ingest(&DeltaBatch::new()).unwrap();
        ms.store(&RequestKind::PageRank { iters: 4 }, &fresh);
        assert!(ms.cached(&RequestKind::PageRank { iters: 4 }).is_none());
    }
}
