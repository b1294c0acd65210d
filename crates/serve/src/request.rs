//! Request and response types of the serving layer.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

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
    /// `iters` rounds of [`polymer_algos::PageRank`] over the whole graph at
    /// the epoch the response carries, computed by the sequential kernel
    /// [`polymer_algos::run_reference_rounds`]. Requests of any `iters`
    /// coalesce: one run to the largest answers every smaller one.
    PageRank {
        /// Rounds of power iteration, at most `2·|V| + 64` (admission
        /// rejects more, like the engines' iteration cap).
        iters: usize,
    },
    /// Apply an edge mutation batch to the resident graph. The first
    /// ingest switches the service into *mutated mode*: the resident edge
    /// set is canonicalized into a [`polymer_graph::MutableGraph`] and
    /// every later query is answered from it: out of the result cache, by
    /// a host kernel over the mutated graph: the warm repair of a cached
    /// traversal ([`polymer_algos::warm_repair`]), else a sweep or a
    /// PageRank run. The batch is validated at admission
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

    /// A query's result-cache lane — its class and the parameter the class
    /// leaves open: a traversal's source, a PageRank's rounds. `None` for an
    /// ingest. Equal lanes have equal answers at one epoch.
    pub(crate) fn lane(&self) -> Option<(Class, usize)> {
        match *self {
            RequestKind::Bfs { source } => Some((Class::Bfs, source as usize)),
            RequestKind::Sssp { source, delta } => Some((Class::Sssp { delta }, source as usize)),
            RequestKind::PageRank { iters } => Some((Class::PageRank, iters)),
            RequestKind::Ingest { .. } => None,
        }
    }

    /// The coalescing class: requests with equal keys share one run — a
    /// multi-source sweep with a lane per source, or a PageRank run to the
    /// largest `iters`. `None` for mutations.
    pub(crate) fn batch_key(&self) -> Option<Class> {
        self.lane().map(|(class, _)| class)
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

/// A query without its source or rounds: the algorithm and the parameters
/// every request of one run shares.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
pub(crate) enum Class {
    Bfs,
    Sssp { delta: u64 },
    PageRank,
}

/// The program every PageRank run over `n` vertices runs, in either mode:
/// uncapped, because the rounds asked cap the run. With
/// [`with_traversal!`], the crate's one mapping from a request to what
/// computes it.
pub(crate) fn pagerank_program(n: usize) -> polymer_algos::PageRank {
    polymer_algos::PageRank::new(n).with_iters(usize::MAX)
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
    /// Lanes of the run that answered this request: the sources of a
    /// multi-source sweep, the requests one PageRank run answered; `1` on
    /// any other path.
    pub batched_lanes: usize,
    /// The request completed, but after its deadline had already passed.
    pub deadline_missed: bool,
    /// Submit-to-completion host latency (queue wait included).
    pub latency: Duration,
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
}

impl Answer {
    /// A one-lane answer.
    pub(crate) fn new(values: ResponseValues, epoch: u64, iterations: usize) -> Answer {
        Answer {
            values,
            epoch,
            iterations,
            batched_lanes: 1,
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
    /// Coalesced runs executed (two or more lanes), in either mode:
    /// multi-source sweeps, and PageRank runs that answered several requests.
    pub batches: u64,
    /// Lanes of coalesced runs: the requests they answered, except that
    /// after an ingest a repeated source or `iters` shares its twin's lane.
    pub batched_requests: u64,
    /// Largest lane count of any run so far.
    pub max_batch_lanes: u64,
    /// Mutation batches applied to the resident graph.
    pub ingests: u64,
    /// Threshold compactions triggered by ingests (base CSR rebuilds).
    pub compactions: u64,
    /// Mutated-mode queries computed rather than read from the cache, each
    /// by a host kernel over the mutated graph: warm BFS / SSSP repairs, and
    /// the lanes of cold BFS / SSSP sweeps and of PageRank runs.
    pub incremental_answers: u64,
    /// Mutated-mode queries answered without computing anything of their
    /// own: from the result cache (no mutation since the cached run), or by
    /// the lane of an equal request in the same batch.
    pub cache_hits: u64,
}
