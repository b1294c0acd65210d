//! Mutated-mode serving: the resident [`MutableGraph`], its placed
//! delta-overlay topology, and the converged-result cache that warm-starts
//! incremental queries.
//!
//! The service starts in *static mode*, answering queries against the
//! immutable resident [`polymer_graph::Graph`]. The first
//! [`crate::RequestKind::Ingest`] canonicalizes the resident edge set into
//! a [`MutableGraph`] (self-loops dropped, duplicate pairs collapsed —
//! exactly what the loaders do) and the service switches to mutated mode
//! permanently:
//!
//! * Ingests apply under the graph's own validation and threshold
//!   compaction; each returns its [`polymer_graph::BatchStats`].
//! * Each query's converged values are cached per lane (algorithm ×
//!   source × parameters) with the epoch they were computed at. A repeat
//!   query at the same epoch is a pure cache hit.
//! * A query after further ingests warm-starts from the cached values with
//!   the intervening [`AppliedBatch`]es merged via
//!   [`AppliedBatch::merged_with`]: the incremental overlay engines
//!   ([`polymer_algos::bfs_overlay`] and friends) repair the prior on a
//!   resident [`OverlayTopo`] placed on a persistent simulated [`Machine`].
//!   The pair is placed when a repair or a PageRank first needs it and
//!   rebuilt only when [`OverlayTopo::is_stale`] says the graph moved past
//!   it (any ingest, or a compaction's generation bump, which also
//!   re-encodes the base when compressed topology is enabled).
//! * A BFS / SSSP query with no usable prior (never asked, or older than
//!   the retained batch window) is answered cold by the kernel static mode
//!   coalesces into: one lane of [`polymer_algos::run_multi_source`] over
//!   the [`MutableGraph`] itself, on host memory. Its result is cached, so
//!   the next epoch repairs it. PageRank has no host kernel over a mutated
//!   graph and runs the residual overlay engine cold as well as warm.
//!
//! Everything here is called with the service's mutation mutex held, so
//! mutated-mode requests serialize on the resident overlay — the price of
//! answering against a single coherent graph version.

use std::collections::HashMap;

use polymer_algos::{
    bfs_overlay, pagerank_overlay, run_multi_source, sssp_overlay, Bfs, MultiSource, SingleSource,
    Sssp, WarmStart, DEFAULT_PR_TOL,
};
use polymer_api::{OverlayTopo, PolymerResult, RunResult};
use polymer_graph::{AppliedBatch, BatchStats, DeltaBatch, DeltaError, Graph, MutableGraph, VId};
use polymer_numa::{AllocPolicy, Machine, MachineSpec};

use crate::request::{RequestKind, ResponseValues};

/// Damping factor of served PageRank (the paper's 0.85).
const PR_DAMPING: f64 = 0.85;

/// Applied batches retained for warm-start merging; cached results older
/// than this window are recomputed cold.
const BATCH_WINDOW: usize = 32;

/// How a mutated-mode query was answered (drives the service counters).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AnswerPath {
    /// Served straight from the cache (no mutation since that run).
    CacheHit,
    /// Incremental overlay run, warm-started from a cached prior.
    Warm,
    /// From scratch (no usable prior): a host sweep over the live graph
    /// for BFS / SSSP, the residual overlay engine for PageRank.
    Cold,
}

/// One converged result per serving lane.
struct CacheEntry {
    /// `MutableGraph::epoch` when this result was computed.
    epoch: u64,
    /// Iteration counter of the run (warm-starts resume after it).
    iterations: usize,
    values: ResponseValues,
}

/// The cache lane of a query request.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
enum CacheKey {
    Bfs { source: VId },
    Sssp { source: VId, delta: u64 },
    PageRank,
}

impl CacheKey {
    fn of(kind: &RequestKind) -> Option<CacheKey> {
        match *kind {
            RequestKind::Bfs { source } => Some(CacheKey::Bfs { source }),
            RequestKind::Sssp { source, delta } => Some(CacheKey::Sssp { source, delta }),
            RequestKind::PageRank { .. } => Some(CacheKey::PageRank),
            RequestKind::Ingest { .. } => None,
        }
    }
}

/// The resident placed topology: a persistent simulated machine plus the
/// overlay CSR/CSC placed into it, kept until the graph moves past them.
struct Resident {
    machine: Machine,
    topo: OverlayTopo,
}

/// Mutation-mode state: the live graph, its placed topology, the retained
/// batch window, and the converged-result cache.
pub(crate) struct MutState {
    mg: MutableGraph,
    resident: Option<Resident>,
    batches: Vec<AppliedBatch>,
    cache: HashMap<CacheKey, CacheEntry>,
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

    /// Answer one query incrementally. Returns the values, the run's
    /// iteration count, the graph epoch answered at, and which path served
    /// it.
    pub(crate) fn answer(
        &mut self,
        kind: &RequestKind,
        spec: &MachineSpec,
        threads: usize,
    ) -> PolymerResult<(ResponseValues, usize, u64, AnswerPath)> {
        let key = CacheKey::of(kind).expect("ingests are not answered here");
        let epoch = self.mg.epoch();

        if let Some(e) = self.cache.get(&key) {
            if e.epoch == epoch {
                return Ok((e.values.clone(), e.iterations, epoch, AnswerPath::CacheHit));
            }
        }

        // A cached prior is usable when every batch since it is retained:
        // epochs advance by one per apply, so the composed window must span
        // (prior.epoch, epoch] exactly.
        let prior = self.cache.get(&key).and_then(|e| {
            let since: Vec<&AppliedBatch> =
                self.batches.iter().filter(|b| b.epoch > e.epoch).collect();
            if since.len() as u64 != epoch - e.epoch {
                return None;
            }
            let mut it = since.into_iter();
            let first = it.next()?.clone();
            Some((e, it.fold(first, |acc, b| acc.merged_with(b))))
        });
        let path = if prior.is_some() {
            AnswerPath::Warm
        } else {
            AnswerPath::Cold
        };
        let (mg, resident) = (&self.mg, &mut self.resident);
        let (values, iterations) = match key {
            CacheKey::Bfs { source } => {
                let run = match warm_start(&prior, ResponseValues::levels) {
                    None => cold_sweep(mg, spec, threads, Bfs::new(source))?,
                    warm => {
                        let r = placed(resident, mg, spec);
                        bfs_overlay(&r.machine, threads, &r.topo, source, warm, false)?
                    }
                };
                (ResponseValues::Levels(run.values), run.iterations)
            }
            CacheKey::Sssp { source, delta } => {
                let run = match warm_start(&prior, ResponseValues::distances) {
                    None => cold_sweep(mg, spec, threads, Sssp::new(source).with_delta(delta))?,
                    warm => {
                        let r = placed(resident, mg, spec);
                        sssp_overlay(&r.machine, threads, &r.topo, source, warm, false)?
                    }
                };
                (ResponseValues::Distances(run.values), run.iterations)
            }
            CacheKey::PageRank => {
                let r = placed(resident, mg, spec);
                let warm = warm_start(&prior, ResponseValues::ranks);
                let run = pagerank_overlay(
                    &r.machine,
                    threads,
                    &r.topo,
                    PR_DAMPING,
                    DEFAULT_PR_TOL,
                    warm,
                    false,
                )?;
                (ResponseValues::Ranks(run.values), run.iterations)
            }
        };
        self.cache.insert(
            key,
            CacheEntry {
                epoch,
                iterations,
                values: values.clone(),
            },
        );
        Ok((values, iterations, epoch, path))
    }
}

/// The placed topology for `mg`, (re)placed if the graph moved past it.
fn placed<'r>(
    resident: &'r mut Option<Resident>,
    mg: &MutableGraph,
    spec: &MachineSpec,
) -> &'r Resident {
    resident.take_if(|r| r.topo.is_stale(mg));
    resident.get_or_insert_with(|| {
        let machine = Machine::new(spec.clone());
        let topo = OverlayTopo::build(&machine, mg, true, |_| AllocPolicy::Interleaved);
        Resident { machine, topo }
    })
}

/// A cold BFS / SSSP answer: `prog` as one lane of [`run_multi_source`]
/// over the live graph, on the calling thread — the kernel, front door and
/// typed errors of a static-mode coalesced sweep — so `run.values` is the lane.
fn cold_sweep<P: SingleSource>(
    mg: &MutableGraph,
    spec: &MachineSpec,
    threads: usize,
    prog: P,
) -> PolymerResult<RunResult<P::Val>> {
    let machine = Machine::new(spec.clone());
    Ok(run_multi_source(&machine, threads, mg, &MultiSource::new(vec![prog])?)?.run)
}

/// The warm start over a cached prior and the composed batch window since
/// it; `values` picks the lane's kind out of the cached [`ResponseValues`].
fn warm_start<'a, V>(
    prior: &'a Option<(&CacheEntry, AppliedBatch)>,
    values: fn(&ResponseValues) -> Option<&[V]>,
) -> Option<WarmStart<'a, V>> {
    let (entry, batch) = prior.as_ref()?;
    Some(WarmStart {
        values: values(&entry.values).expect("a cache lane holds its own kind of values"),
        iterations: entry.iterations,
        batch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymer_algos::run_reference;
    use polymer_graph::gen;

    /// Which executor answers what: a first-time traversal is a host sweep
    /// that places nothing, the next epoch repairs its cached result on a
    /// freshly placed overlay, and PageRank places the overlay even cold.
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
            let want = if epoch == 1 {
                AnswerPath::Cold
            } else {
                AnswerPath::Warm
            };
            let (values, _, at, path) = ms.answer(&bfs, &spec, 2).unwrap();
            assert_eq!((at, path), (epoch, want));
            assert_eq!(
                values.levels().unwrap(),
                run_reference(&ms.mg, &Bfs::new(3)).0
            );
            let (values, _, _, path) = ms.answer(&sssp, &spec, 2).unwrap();
            assert_eq!(path, want);
            let oracle = run_reference(&ms.mg, &Sssp::new(3)).0;
            assert_eq!(values.distances().unwrap(), oracle);
            assert_eq!(ms.resident.is_some(), epoch == 2, "placed by a repair only");
            assert_eq!(ms.answer(&bfs, &spec, 2).unwrap().3, AnswerPath::CacheHit);
        }
        let mut fresh = MutState::new(&g, None);
        fresh.ingest(&DeltaBatch::new()).unwrap();
        let pr = RequestKind::PageRank { iters: 3 };
        assert_eq!(fresh.answer(&pr, &spec, 2).unwrap().3, AnswerPath::Cold);
        assert!(fresh.resident.is_some(), "PageRank runs on the overlay");
    }
}
