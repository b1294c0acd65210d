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
        /// Delta-stepping bucket width, at least 1 (admission rejects 0);
        /// requests only coalesce with equal widths.
        delta: u64,
    },
    /// `iters` rounds of [`polymer_algos::PageRank`] over the whole graph —
    /// the resident one, or after an ingest a snapshot of the mutated one at
    /// the epoch the response carries — the service's one supervised engine
    /// run. Whole-graph requests never coalesce: there is no per-source lane.
    PageRank {
        /// Rounds of power iteration.
        iters: usize,
    },
    /// Apply an edge mutation batch to the resident graph. The first
    /// ingest switches the service into *mutated mode*: the resident edge
    /// set is canonicalized into a [`polymer_graph::MutableGraph`] and
    /// every later query is answered from it: out of the result cache, by
    /// a host kernel over the mutated graph — the warm repair of a cached
    /// traversal ([`polymer_algos::warm_repair`]), or a sweep when there is
    /// no usable prior — or by the supervised engine over a snapshot
    /// (PageRank). The batch is validated at admission
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

    /// A query's result-cache lane — its class and its source, `None` for
    /// an ingest. Equal lanes have equal answers at one epoch.
    pub(crate) fn lane(&self) -> Option<(Class, Option<VId>)> {
        match *self {
            RequestKind::Bfs { source } => Some((Class::Bfs, Some(source))),
            RequestKind::Sssp { source, delta } => Some((Class::Sssp { delta }, Some(source))),
            RequestKind::PageRank { iters } => Some((Class::PageRank { iters }, None)),
            RequestKind::Ingest { .. } => None,
        }
    }

    /// The coalescing class: requests with equal keys can share one
    /// multi-source sweep, one lane per source. `None` for whole-graph
    /// algorithms and for mutations.
    pub(crate) fn batch_key(&self) -> Option<Class> {
        let (class, source) = self.lane()?;
        source.map(|_| class)
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

/// A query without its source: the algorithm and its parameters.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
pub(crate) enum Class {
    Bfs,
    Sssp { delta: u64 },
    PageRank { iters: usize },
}

/// The program `PageRank { iters }` means over `n` vertices, in either mode.
/// With [`with_traversal!`], the crate's one mapping from a request to what
/// computes it.
pub(crate) fn pagerank_program(n: usize, iters: usize) -> polymer_algos::PageRank {
    polymer_algos::PageRank::new(n).with_iters(iters)
}

/// Bind `$prog` to the single-source program `$kind` names and `$wrap` and
/// `$lane` to the [`ResponseValues`] constructor and accessor of its value
/// type, then evaluate `$body`. `Program` is generic, so the choice cannot
/// be a value.
macro_rules! with_traversal {
    ($kind:expr, |$prog:ident, $wrap:ident, $lane:ident| $body:expr) => {
        match *$kind {
            $crate::RequestKind::Bfs { source } => {
                let $prog = polymer_algos::Bfs::new(source);
                let $wrap = $crate::ResponseValues::Levels;
                let $lane = $crate::ResponseValues::levels;
                $body
            }
            $crate::RequestKind::Sssp { source, delta } => {
                let $prog = polymer_algos::Sssp::new(source).with_delta(delta);
                let $wrap = $crate::ResponseValues::Distances;
                let $lane = $crate::ResponseValues::distances;
                $body
            }
            _ => unreachable!("only BFS and SSSP have a source lane"),
        }
    };
}
pub(crate) use with_traversal;

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
    /// The request's service-assigned id ([`Ticket::id`]), so results
    /// fanned out of a coalesced batch stay attributable.
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
    /// Lanes of the sweep that answered this request; `1` on any other path.
    pub batched_lanes: usize,
    /// The request completed, but after its deadline had already passed.
    pub deadline_missed: bool,
    /// Submit-to-completion host latency (queue wait included).
    pub latency: Duration,
    /// The supervisor's recovery report of a PageRank run, the one request
    /// the [`polymer_api::supervisor::RunSupervisor`] runs; `None` for every
    /// BFS / SSSP (host kernels: sweeps, warm repairs), cache hits and ingests.
    pub recovery: Option<RecoveryReport>,
}

/// What a dispatch path computed for one request: the part of a
/// [`ServeResponse`] the request itself does not determine. Also what the
/// mutated-mode result cache holds.
#[derive(Clone)]
pub(crate) struct Answer {
    pub(crate) values: ResponseValues,
    pub(crate) epoch: u64,
    pub(crate) iterations: usize,
    pub(crate) batched_lanes: usize,
    pub(crate) recovery: Option<RecoveryReport>,
}

impl Answer {
    /// An unsupervised one-lane answer.
    pub(crate) fn new(values: ResponseValues, epoch: u64, iterations: usize) -> Answer {
        Answer {
            values,
            epoch,
            iterations,
            batched_lanes: 1,
            recovery: None,
        }
    }
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
    /// Coalesced sweeps executed (two or more lanes), in either mode.
    pub batches: u64,
    /// Lanes of coalesced sweeps: the requests they answered, except that
    /// after an ingest a repeated source shares its twin's lane.
    pub batched_requests: u64,
    /// Largest lane count of any sweep so far.
    pub max_batch_lanes: u64,
    /// Mutation batches applied to the resident graph.
    pub ingests: u64,
    /// Threshold compactions triggered by ingests (base CSR rebuilds).
    pub compactions: u64,
    /// Mutated-mode queries computed rather than read from the cache: warm
    /// BFS / SSSP repairs and cold BFS / SSSP sweeps (both host kernels over
    /// the mutated graph), and PageRank runs over a snapshot of it.
    pub incremental_answers: u64,
    /// Mutated-mode queries answered without computing anything of their
    /// own: from the result cache (no mutation since the cached run), or by
    /// the sweep lane of an equal request in the same batch.
    pub cache_hits: u64,
}
