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
//! * Queries run the incremental overlay engines
//!   ([`polymer_algos::bfs_overlay`] and friends) against a resident
//!   [`OverlayTopo`] placed on a persistent simulated [`Machine`]. The
//!   pair is rebuilt only when [`OverlayTopo::is_stale`] says the graph
//!   moved past it (any ingest, or a compaction's generation bump, which
//!   also re-encodes the base when compressed topology is enabled).
//! * Each query's converged values are cached per lane (algorithm ×
//!   source × parameters) together with the epoch they were computed at.
//!   A repeat query at the same epoch is a pure cache hit; a query after
//!   further ingests warm-starts from the cached values with the
//!   intervening [`AppliedBatch`]es merged via
//!   [`AppliedBatch::merged_with`]. Entries older than the retained batch
//!   window fall back to a cold overlay run.
//!
//! Everything here is called with the service's mutation mutex held, so
//! mutated-mode requests serialize on the resident overlay — the price of
//! answering against a single coherent graph version.

use std::collections::HashMap;

use polymer_algos::{bfs_overlay, pagerank_overlay, sssp_overlay, WarmStart, DEFAULT_PR_TOL};
use polymer_api::{OverlayTopo, PolymerResult};
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
    /// Incremental overlay run from scratch (no usable prior).
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

        // (Re)place the topology if the graph moved past the resident one.
        let stale = match &self.resident {
            Some(r) => r.topo.is_stale(&self.mg),
            None => true,
        };
        if stale {
            let machine = Machine::new(spec.clone());
            let topo = OverlayTopo::build(&machine, &self.mg, true, |_| AllocPolicy::Interleaved);
            self.resident = Some(Resident { machine, topo });
        }
        let r = self.resident.as_ref().expect("freshly ensured");

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
        let (machine, topo) = (&r.machine, &r.topo);
        let (values, iterations) = match key {
            CacheKey::Bfs { source } => {
                let warm = warm_start(&prior, ResponseValues::levels);
                let run = bfs_overlay(machine, threads, topo, source, warm, false)?;
                (ResponseValues::Levels(run.values), run.iterations)
            }
            CacheKey::Sssp { source, .. } => {
                let warm = warm_start(&prior, ResponseValues::distances);
                let run = sssp_overlay(machine, threads, topo, source, warm, false)?;
                (ResponseValues::Distances(run.values), run.iterations)
            }
            CacheKey::PageRank => {
                let warm = warm_start(&prior, ResponseValues::ranks);
                let run = pagerank_overlay(
                    machine,
                    threads,
                    topo,
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
