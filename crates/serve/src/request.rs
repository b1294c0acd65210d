//! Request and response types of the serving layer.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use polymer_api::supervisor::RecoveryReport;
use polymer_api::PolymerResult;
use polymer_graph::{BatchStats, DeltaBatch, VId};

/// One request against the resident graph: an algorithm query or an edge
/// mutation batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// BFS hop levels from `source`.
    Bfs {
        /// The source vertex.
        source: VId,
    },
    /// Shortest-path distances from `source` with delta-stepping width
    /// `delta` (the scheduling hint of asynchronous engines).
    Sssp {
        /// The source vertex.
        source: VId,
        /// Delta-stepping bucket width; requests only coalesce with equal
        /// widths.
        delta: u64,
    },
    /// PageRank over the whole graph for `iters` iterations. Whole-graph
    /// requests never coalesce — there is no per-source lane to share.
    /// Once the graph has been mutated (see [`RequestKind::Ingest`]),
    /// PageRank is served as the tolerance-converged residual fixpoint and
    /// `iters` becomes a hint only.
    PageRank {
        /// Iteration cap (static-graph mode only).
        iters: usize,
    },
    /// Apply an edge mutation batch to the resident graph. The first
    /// ingest switches the service into *mutated mode*: the resident edge
    /// set is canonicalized into a [`polymer_graph::MutableGraph`] and
    /// every later query is answered from it: out of the converged-result
    /// cache, by an incremental repair of a cached result on the
    /// delta-overlay topology, or (a traversal with no usable prior) by a
    /// host sweep over the mutated graph. The batch is validated at admission
    /// (out-of-range endpoints, self-loops, and zero weights are rejected
    /// with [`polymer_api::PolymerError::InvalidConfig`]).
    Ingest {
        /// The mutation batch to apply.
        batch: DeltaBatch,
    },
}

impl RequestKind {
    /// The algorithm's display name.
    pub fn name(&self) -> &'static str {
        match self {
            RequestKind::Bfs { .. } => "BFS",
            RequestKind::Sssp { .. } => "SSSP",
            RequestKind::PageRank { .. } => "PageRank",
            RequestKind::Ingest { .. } => "Ingest",
        }
    }

    /// The coalescing class: requests with equal keys can share one
    /// multi-source sweep. `None` for whole-graph algorithms and for
    /// mutations.
    pub(crate) fn batch_key(&self) -> Option<BatchKey> {
        match self {
            RequestKind::Bfs { .. } => Some(BatchKey::Bfs),
            RequestKind::Sssp { delta, .. } => Some(BatchKey::Sssp { delta: *delta }),
            RequestKind::PageRank { .. } => None,
            RequestKind::Ingest { .. } => None,
        }
    }

    /// Admission-control estimate of the request's scratch footprint:
    /// two value lanes per vertex (`curr`/`next`) for queries, by value
    /// width, and the op list itself for ingests. The estimate is
    /// deliberately simple and deterministic — the budget bounds aggregate
    /// pressure, it does not meter allocations.
    pub(crate) fn scratch_bytes(&self, num_vertices: usize) -> u64 {
        let per_vertex: u64 = match self {
            RequestKind::Bfs { .. } => 2 * 4,
            RequestKind::Sssp { .. } => 2 * 8,
            RequestKind::PageRank { .. } => 2 * 8,
            RequestKind::Ingest { batch } => return 16 * batch.len() as u64,
        };
        per_vertex * num_vertices as u64
    }
}

/// The coalescing class of a request (see [`RequestKind::batch_key`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BatchKey {
    Bfs,
    Sssp { delta: u64 },
}

/// Final per-vertex values of a served request, by algorithm.
#[derive(Clone, Debug, PartialEq)]
pub enum ResponseValues {
    /// BFS hop levels ([`polymer_algos::UNVISITED`] where unreached).
    Levels(Vec<u32>),
    /// SSSP distances ([`polymer_algos::UNREACHED`] where unreached).
    Distances(Vec<u64>),
    /// PageRank mass per vertex.
    Ranks(Vec<f64>),
    /// Counters of an applied ingest batch (no per-vertex values).
    Ingested(BatchStats),
}

impl ResponseValues {
    /// BFS levels, if this is a BFS response.
    pub fn levels(&self) -> Option<&[u32]> {
        match self {
            ResponseValues::Levels(v) => Some(v),
            _ => None,
        }
    }

    /// SSSP distances, if this is an SSSP response.
    pub fn distances(&self) -> Option<&[u64]> {
        match self {
            ResponseValues::Distances(v) => Some(v),
            _ => None,
        }
    }

    /// PageRank values, if this is a PageRank response.
    pub fn ranks(&self) -> Option<&[f64]> {
        match self {
            ResponseValues::Ranks(v) => Some(v),
            _ => None,
        }
    }

    /// Applied-batch counters, if this is an ingest response.
    pub fn ingest_stats(&self) -> Option<&BatchStats> {
        match self {
            ResponseValues::Ingested(s) => Some(s),
            _ => None,
        }
    }

    /// Number of vertices covered (`0` for ingest responses).
    pub fn len(&self) -> usize {
        match self {
            ResponseValues::Levels(v) => v.len(),
            ResponseValues::Distances(v) => v.len(),
            ResponseValues::Ranks(v) => v.len(),
            ResponseValues::Ingested(_) => 0,
        }
    }

    /// True when no vertices are covered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A completed request: the answer plus everything a client or the bench
/// harness reports about how it was served.
#[derive(Clone, Debug)]
pub struct ServeResponse {
    /// The request's service-assigned id — the same tag stamped on the
    /// underlying [`polymer_api::RunResult`], so results fanned out of a
    /// coalesced batch stay attributable.
    pub id: u64,
    /// Algorithm name (`"BFS"`, `"SSSP"`, `"PageRank"`).
    pub algorithm: &'static str,
    /// Final per-vertex values.
    pub values: ResponseValues,
    /// The graph version that answered: `0` in static mode (the graph as
    /// loaded); in mutated mode the resident
    /// [`polymer_graph::MutableGraph::epoch`] the answer was computed at —
    /// for an ingest, the epoch its batch produced.
    pub epoch: u64,
    /// Iterations the serving sweep executed. For a coalesced batch this is
    /// the sweep's superstep count (the max over its lanes).
    pub iterations: usize,
    /// Lanes of the sweep that answered this request; `1` for a solo run.
    pub batched_lanes: usize,
    /// The request completed, but after its deadline had already passed.
    pub deadline_missed: bool,
    /// Submit-to-completion host latency (queue wait included).
    pub latency: Duration,
    /// The supervisor's recovery report, when the request ran solo under
    /// the [`polymer_api::supervisor::RunSupervisor`]; `None` for batched
    /// sweeps (their lightweight retry loop records nothing per lane).
    pub recovery: Option<RecoveryReport>,
}

/// The one-shot completion slot a worker fills and a [`Ticket`] waits on.
pub(crate) struct Slot {
    cell: Mutex<Option<PolymerResult<ServeResponse>>>,
    cv: Condvar,
}

impl Slot {
    pub(crate) fn new() -> Arc<Slot> {
        Arc::new(Slot {
            cell: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    /// Deliver the outcome (at most once; later deliveries are ignored).
    pub(crate) fn fulfill(&self, outcome: PolymerResult<ServeResponse>) {
        let mut cell = self.cell.lock().unwrap_or_else(|e| e.into_inner());
        if cell.is_none() {
            *cell = Some(outcome);
        }
        self.cv.notify_all();
    }

    fn take_blocking(&self) -> PolymerResult<ServeResponse> {
        let mut cell = self.cell.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(outcome) = cell.take() {
                return outcome;
            }
            cell = self.cv.wait(cell).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A handle to an admitted request. Dropping it abandons the answer (the
/// request still runs); [`Ticket::wait`] blocks until the worker pool
/// delivers the outcome.
pub struct Ticket {
    pub(crate) id: u64,
    pub(crate) slot: Arc<Slot>,
}

impl Ticket {
    /// The request's service-assigned id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the request completes (or fails with a typed error).
    pub fn wait(self) -> PolymerResult<ServeResponse> {
        self.slot.take_blocking()
    }
}

/// Service counters, cheap enough to snapshot on every request.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted past admission control.
    pub submitted: u64,
    /// Requests answered with values.
    pub completed: u64,
    /// Requests answered with a typed error after admission.
    pub failed: u64,
    /// Submissions rejected because the queue was at capacity.
    pub rejected_queue_full: u64,
    /// Submissions rejected by the aggregate memory budget.
    pub rejected_memory: u64,
    /// Admitted requests whose deadline expired while still queued.
    pub expired_in_queue: u64,
    /// Requests that completed after their deadline.
    pub deadline_missed: u64,
    /// Coalesced sweeps executed (two or more lanes).
    pub batches: u64,
    /// Requests answered by a coalesced sweep.
    pub batched_requests: u64,
    /// Largest lane count of any sweep so far.
    pub max_batch_lanes: u64,
    /// Mutation batches applied to the resident graph.
    pub ingests: u64,
    /// Threshold compactions triggered by ingests (base CSR rebuilds).
    pub compactions: u64,
    /// Mutated-mode queries computed rather than read from the cache: warm
    /// overlay repairs, cold residual PageRank runs, and cold BFS / SSSP
    /// host sweeps over the mutated graph.
    pub incremental_answers: u64,
    /// Queries answered straight from the converged-result cache without
    /// running anything (no mutation since the cached run).
    pub cache_hits: u64,
}
