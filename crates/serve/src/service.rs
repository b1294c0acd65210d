//! The resident-graph service: admission, coalescing, and the worker pool.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use polymer_algos::{run_multi_source, run_reference_rounds, MultiSource, SingleSource, MAX_LANES};
use polymer_api::{catch_engine_faults, validate_run_config, Backend, Program};
use polymer_api::{PolymerError, PolymerResult};
use polymer_graph::{DeltaBatch, Graph, Topology, VId};
use polymer_numa::{Machine, MachineSpec};

use crate::mutate::MutState;
use crate::request::{pagerank_program, with_traversal, Answer};
use crate::request::{RequestKind, ResponseValues, ServeResponse, ServeStats, Slot, Ticket};

/// Everything a [`GraphService`] is configured with.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Admission bound on queued (not yet dispatched) requests.
    pub queue_capacity: usize,
    /// Worker threads dispatching requests; each runs one request or one
    /// coalesced batch at a time.
    pub workers: usize,
    /// Threads every sweep validates against the spec's cores; every answer
    /// runs on its worker's own thread whatever this is. Kept because the
    /// repository benchmark sets it, until the benchmark stops setting it.
    pub threads_per_request: usize,
    /// Aggregate scratch-byte budget across admitted, unfinished requests.
    /// Each request pledges a deterministic estimate of twice its value
    /// width per vertex (the `curr`/`next` lanes) until it completes.
    pub memory_budget_bytes: u64,
    /// Cap on lanes per coalesced sweep (clamped to
    /// [`polymer_algos::MAX_LANES`]).
    pub max_batch_lanes: usize,
    /// Read by nothing: every answer is a host kernel on its worker's own
    /// thread. Kept because the repository benchmark sets it, until the
    /// benchmark stops setting it.
    pub backend: Backend,
    /// The machine whose cores bound `threads_per_request`; nothing is
    /// placed on it. Kept, and goes, with `threads_per_request`.
    pub spec: MachineSpec,
    /// Compaction-threshold override for mutated mode (`None` keeps
    /// [`polymer_graph::DEFAULT_COMPACTION_FRACTION`]); pending overlay
    /// entries past this fraction of the base edge count trigger a base
    /// CSR rebuild on ingest.
    pub compaction_fraction: Option<f64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            workers: 2,
            threads_per_request: 4,
            memory_budget_bytes: 1 << 30,
            max_batch_lanes: MAX_LANES,
            backend: Backend::real_threads(),
            spec: MachineSpec::test2(),
            compaction_fraction: None,
        }
    }
}

/// An admitted request waiting in the service queue.
struct Pending {
    id: u64,
    kind: RequestKind,
    submitted: Instant,
    deadline: Option<Duration>,
    scratch: u64,
    slot: Arc<Slot>,
}

/// Mutable service state, behind one mutex.
struct State {
    queue: VecDeque<Pending>,
    stopped: bool,
    paused: bool,
    in_use_bytes: u64,
    next_id: u64,
    stats: ServeStats,
}

struct Inner {
    graph: Arc<Graph>,
    cfg: ServeConfig,
    state: Mutex<State>,
    /// Mutated-mode state (`None` until the first ingest). Every query
    /// dispatch peeks it to learn the mode. Ingests and mutated-mode query
    /// batches hold it for the whole apply / answer — a PageRank run
    /// included — and so serialize on a single coherent graph version.
    mut_state: Mutex<Option<MutState>>,
    cv: Condvar,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Lock the mutated-mode state. A worker that panicked holding it
    /// (caught in [`process`]) poisons the mutex, and recovering the guard
    /// is sound: a [`MutState`] call updates the graph, the batch window or
    /// the cache as its last step, so a call that unwound left them as the
    /// last successful call did.
    fn lock_mutated(&self) -> MutexGuard<'_, Option<MutState>> {
        self.mut_state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A long-lived graph-analytics service: the graph is loaded once, its CSR
/// and placement stay resident, and concurrent algorithm requests are
/// admitted into a bounded queue and dispatched by a worker pool. See the
/// crate docs for the full serving contract (admission, coalescing,
/// deadlines, shutdown).
pub struct GraphService {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl GraphService {
    /// Start a service over `graph`. Spawns `cfg.workers` dispatcher
    /// threads immediately; they idle until requests arrive.
    pub fn new(graph: Graph, mut cfg: ServeConfig) -> PolymerResult<GraphService> {
        if cfg.workers == 0 {
            return Err(PolymerError::InvalidConfig(
                "serve workers must be >= 1".to_string(),
            ));
        }
        if cfg.queue_capacity == 0 {
            return Err(PolymerError::InvalidConfig(
                "serve queue capacity must be >= 1".to_string(),
            ));
        }
        if cfg.threads_per_request == 0 {
            return Err(PolymerError::InvalidConfig(
                "serve threads per request must be >= 1".to_string(),
            ));
        }
        // Every multi-source sweep validates `threads_per_request` against
        // the spec's cores, as a simulated run binds them.
        let cores = cfg.spec.nodes * cfg.spec.cores_per_node;
        if cfg.threads_per_request > cores {
            return Err(PolymerError::InvalidConfig(format!(
                "serve threads per request ({}) exceed the machine spec's {cores} cores",
                cfg.threads_per_request
            )));
        }
        if cfg.max_batch_lanes == 0 {
            return Err(PolymerError::InvalidConfig(
                "serve max batch lanes must be >= 1".to_string(),
            ));
        }
        cfg.max_batch_lanes = cfg.max_batch_lanes.min(MAX_LANES);
        let inner = Arc::new(Inner {
            graph: Arc::new(graph),
            cfg,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                stopped: false,
                paused: false,
                in_use_bytes: 0,
                next_id: 0,
                stats: ServeStats::default(),
            }),
            mut_state: Mutex::new(None),
            cv: Condvar::new(),
        });
        let workers = (0..inner.cfg.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Ok(GraphService {
            inner,
            workers: Mutex::new(workers),
        })
    }

    /// Submit a request with no deadline.
    pub fn submit(&self, kind: RequestKind) -> PolymerResult<Ticket> {
        self.submit_with_deadline(kind, None)
    }

    /// Submit a request with an explicit deadline budget (measured from
    /// now: queue wait counts against it). Admission control runs here —
    /// the call returns a typed error without queueing when the service is
    /// stopped, the queue is full, the memory budget would be exceeded, or
    /// the request itself is invalid for the resident graph.
    pub fn submit_with_deadline(
        &self,
        kind: RequestKind,
        deadline: Option<Duration>,
    ) -> PolymerResult<Ticket> {
        let n = self.inner.graph.num_vertices();
        let threads = self.inner.cfg.threads_per_request;
        match &kind {
            RequestKind::Ingest { batch } => batch
                .validate(n)
                .map_err(|e| PolymerError::InvalidConfig(format!("ingest batch: {e}")))?,
            // Checked before the program is built: `Sssp::with_delta` asserts.
            RequestKind::Sssp { delta: 0, .. } => {
                return Err(PolymerError::InvalidConfig("SSSP delta must be > 0".into()));
            }
            // A whole-graph program has no source to range-check; its rounds
            // meet the engines' iteration cap, so no request outlives it.
            &RequestKind::PageRank { iters } if iters > 2 * n + 64 => {
                return Err(PolymerError::InvalidConfig(format!(
                    "PageRank iters ({iters}) exceed the iteration cap 2·|V| + 64 = {}",
                    2 * n + 64
                )));
            }
            RequestKind::PageRank { .. } => {}
            // The engines' own front-door check, run where the request
            // enters: mutation never changes the vertex count.
            traversal => with_traversal!(traversal, |prog, _wrap, _lane| {
                validate_run_config(threads, n, &prog)
            })?,
        }
        let scratch = kind.scratch_bytes(n);
        let mut st = self.inner.lock();
        if st.stopped {
            return Err(PolymerError::ServiceStopped);
        }
        if st.queue.len() >= self.inner.cfg.queue_capacity {
            st.stats.rejected_queue_full += 1;
            return Err(PolymerError::QueueFull {
                capacity: self.inner.cfg.queue_capacity,
            });
        }
        let budget = self.inner.cfg.memory_budget_bytes;
        if st.in_use_bytes.saturating_add(scratch) > budget {
            st.stats.rejected_memory += 1;
            return Err(PolymerError::MemoryBudgetExceeded {
                requested_bytes: scratch,
                in_use_bytes: st.in_use_bytes,
                budget_bytes: budget,
            });
        }
        st.in_use_bytes += scratch;
        let id = st.next_id;
        st.next_id += 1;
        st.stats.submitted += 1;
        let slot = Slot::new();
        st.queue.push_back(Pending {
            id,
            kind,
            submitted: Instant::now(),
            deadline,
            scratch,
            slot: Arc::clone(&slot),
        });
        drop(st);
        self.inner.cv.notify_one();
        Ok(Ticket { id, slot })
    }

    /// Hold dispatch: queued requests stay queued (admission still runs).
    /// Tests use this to fill the queue deterministically and to force
    /// coalescing; a paused service still accepts and rejects submissions.
    pub fn pause(&self) {
        self.inner.lock().paused = true;
    }

    /// Resume dispatch after [`GraphService::pause`].
    pub fn resume(&self) {
        self.inner.lock().paused = false;
        self.inner.cv.notify_all();
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServeStats {
        self.inner.lock().stats.clone()
    }

    /// Stop the service: requests still queued (and later submissions) get
    /// [`PolymerError::ServiceStopped`]; in-flight runs finish and deliver.
    /// Blocks until every worker has exited. Idempotent; also runs on drop.
    pub fn stop(&self) {
        {
            let mut st = self.inner.lock();
            st.stopped = true;
            st.paused = false;
        }
        self.inner.cv.notify_all();
        let handles = {
            let mut workers = self.workers.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *workers)
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for GraphService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One dispatcher thread: wait for work, take the head request plus every
/// queued request in the same coalescing class, run, deliver, repeat.
fn worker_loop(inner: &Inner) {
    loop {
        let batch = {
            let mut st = inner.lock();
            loop {
                if st.stopped {
                    let queued: Vec<Pending> = st.queue.drain(..).collect();
                    drop(st);
                    for p in &queued {
                        complete(inner, p, Err(PolymerError::ServiceStopped));
                    }
                    return;
                }
                if !st.paused && !st.queue.is_empty() {
                    break;
                }
                st = inner.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            take_batch(&mut st, inner.cfg.max_batch_lanes)
        };
        process(inner, batch);
    }
}

/// Pop the head request and coalesce every queued request with the same
/// [`RequestKind::batch_key`] behind it, up to `max_lanes`, in either mode.
/// An ingest (no key) dispatches alone. Which lanes of a mutated-mode batch
/// are cache hits, warm repairs or run lanes is decided under the mutation
/// lock ([`answer_mutated`]), so this never reads the cache. FIFO order is
/// preserved for everything left.
fn take_batch(st: &mut State, max_lanes: usize) -> Vec<Pending> {
    let head = st.queue.pop_front().expect("caller checked non-empty");
    let key = head.kind.batch_key();
    let mut batch = vec![head];
    if let Some(key) = key {
        let mut i = 0;
        while i < st.queue.len() && batch.len() < max_lanes {
            if st.queue[i].kind.batch_key() == Some(key) {
                batch.push(st.queue.remove(i).expect("index in bounds"));
            } else {
                i += 1;
            }
        }
    }
    batch
}

/// Dispatch one batch: expire dead requests, then answer the rest by
/// request kind — an ingest alone, or queries of one class, one or many.
/// The answer paths run under [`catch_engine_faults`], so a panic on any of
/// them (a broken cache lane, an ingest, a kernel) is the batch's typed
/// error, not a dead worker and tickets that never resolve.
fn process(inner: &Inner, batch: Vec<Pending>) {
    let mut live = Vec::with_capacity(batch.len());
    for p in batch {
        match p.deadline {
            Some(deadline) if p.submitted.elapsed() >= deadline => {
                complete(inner, &p, Err(PolymerError::DeadlineExceeded { deadline }));
            }
            _ => live.push(p),
        }
    }
    let Some(head) = live.first() else { return };
    let outcome = catch_engine_faults(|| match &head.kind {
        RequestKind::Ingest { batch } => Ok(vec![ingest(inner, batch)?]),
        _ => query(inner, &live),
    });
    deliver(inner, &live, outcome);
}

/// Fan a batch's outcome back out: each request gets its own answer, or a
/// clone of the common error.
fn deliver(inner: &Inner, batch: &[Pending], outcome: PolymerResult<Vec<Answer>>) {
    match outcome {
        Ok(answers) => {
            for (p, answer) in batch.iter().zip(answers) {
                complete(inner, p, Ok(answer));
            }
        }
        Err(e) => {
            for p in batch {
                complete(inner, p, Err(e.clone()));
            }
        }
    }
}

/// The one way an admitted request finishes: release its pledge, move the
/// ledger, fill its slot. Every counter moves before the slot fills: a
/// caller returning from `wait()` must already see them.
fn complete(inner: &Inner, p: &Pending, outcome: PolymerResult<Answer>) {
    // One clock read: the flag and the latency it is judged by agree.
    let latency = p.submitted.elapsed();
    let outcome = outcome.map(|answer| ServeResponse {
        id: p.id,
        algorithm: p.kind.name(),
        values: answer.values,
        epoch: answer.epoch,
        iterations: answer.iterations,
        batched_lanes: answer.batched_lanes,
        deadline_missed: p.deadline.is_some_and(|d| latency > d),
        latency,
    });
    {
        let mut st = inner.lock();
        st.in_use_bytes -= p.scratch;
        match &outcome {
            Ok(r) => {
                st.stats.completed += 1;
                st.stats.deadline_missed += u64::from(r.deadline_missed);
            }
            // Only the in-queue expiry answers `deadline-exceeded`: a run
            // that outlives its budget is delivered late.
            Err(e) => {
                st.stats.failed += 1;
                let expired = matches!(e, PolymerError::DeadlineExceeded { .. });
                st.stats.expired_in_queue += u64::from(expired);
            }
        }
    }
    p.slot.fulfill(outcome);
}

/// Answer same-class queries, one or many: until the first ingest, one
/// [`compute`] over the resident graph at epoch 0 with the mutation lock
/// released; after it, [`answer_mutated`] under that lock.
fn query(inner: &Inner, batch: &[Pending]) -> PolymerResult<Vec<Answer>> {
    if let Some(ms) = inner.lock_mutated().as_mut() {
        return answer_mutated(inner, ms, batch);
    }
    let kinds: Vec<&RequestKind> = batch.iter().map(|p| &p.kind).collect();
    compute(inner, &*inner.graph, 0, &kinds)
}

/// Answer same-class queries on the mutated graph under one hold of the
/// mutation lock, in FIFO order: a lane already answered at this epoch is a
/// cache hit, a traversal with a usable prior is repaired warm, and every
/// other lane joins one [`compute`] over the graph — a repeated lane shares
/// its twin's and counts as a hit. Every answer carries the current epoch,
/// every computed one is cached, and an error fails the whole dispatch.
fn answer_mutated(
    inner: &Inner,
    ms: &mut MutState,
    batch: &[Pending],
) -> PolymerResult<Vec<Answer>> {
    let mut warm = 0;
    let mut cold: Vec<&RequestKind> = Vec::new();
    // Per request: its answer, or the cold lane that computes it.
    let mut routes = Vec::with_capacity(batch.len());
    for p in batch {
        let route = if let Some(hit) = ms.cached(&p.kind) {
            Ok(hit)
        } else if let Some(lane) = cold.iter().position(|&kind| *kind == p.kind) {
            Err(lane)
        } else if let Some(answer) = ms.repair(&p.kind)? {
            ms.store(&p.kind, &answer);
            warm += 1;
            Ok(answer)
        } else {
            cold.push(&p.kind);
            Err(cold.len() - 1)
        };
        routes.push(route);
    }
    let computed = match cold[..] {
        [] => Vec::new(),
        _ => compute(inner, ms.graph(), ms.graph().epoch(), &cold)?,
    };
    for (kind, answer) in cold.iter().zip(&computed) {
        ms.store(kind, answer);
    }
    let answer = |route: Result<Answer, usize>| route.unwrap_or_else(|lane| computed[lane].clone());
    let answers: Vec<Answer> = routes.into_iter().map(answer).collect();
    // Every request is a hit, a warm repair or a cold lane's first asker.
    let mut st = inner.lock();
    st.stats.cache_hits += (batch.len() - warm - cold.len()) as u64;
    st.stats.incremental_answers += (warm + cold.len()) as u64;
    Ok(answers)
}

/// Apply an ingest batch to the mutated-mode state (created lazily from
/// the resident graph on the first ingest) and answer with its stats.
fn ingest(inner: &Inner, batch: &DeltaBatch) -> PolymerResult<Answer> {
    let mut guard = inner.lock_mutated();
    let ms =
        guard.get_or_insert_with(|| MutState::new(&inner.graph, inner.cfg.compaction_fraction));
    // Validation ran at admission; an error here means the graph changed
    // shape underneath the queue, which it cannot.
    let (stats, epoch) = ms
        .ingest(batch)
        .map_err(|e| PolymerError::InvalidConfig(format!("ingest batch: {e}")))?;
    let mut st = inner.lock();
    st.stats.ingests += 1;
    st.stats.compactions += u64::from(stats.compacted);
    Ok(Answer::new(ResponseValues::Ingested(stats), epoch, 0))
}

/// Answer the same-class queries `lanes` with one host kernel run over
/// `graph` (the resident CSR, or the mutated graph at `epoch`) on the
/// worker's own thread: a multi-source sweep with a lane per BFS / SSSP, or
/// one PageRank run to the largest `iters`. Two lanes and more count as a
/// coalesced run. The kernels are sequential and deterministic: an error
/// would recur on every attempt, so it is returned typed, at once.
fn compute<T: Topology>(
    inner: &Inner,
    graph: &T,
    epoch: u64,
    lanes: &[&RequestKind],
) -> PolymerResult<Vec<Answer>> {
    if lanes.len() > 1 {
        let (mut st, k) = (inner.lock(), lanes.len() as u64);
        st.stats.batches += 1;
        st.stats.batched_requests += k;
        st.stats.max_batch_lanes = st.stats.max_batch_lanes.max(k);
    }
    // Each lane's source, or its rounds.
    let params: Vec<usize> = lanes.iter().filter_map(|k| Some(k.lane()?.1)).collect();
    if let RequestKind::PageRank { .. } = lanes[0] {
        let prog = pagerank_program(graph.num_vertices());
        return Ok(pagerank_rounds(graph, epoch, &prog, &params));
    }
    let sources: Vec<VId> = params.iter().map(|&source| source as VId).collect();
    with_traversal!(lanes[0], |template, wrap, _lane| {
        sweep(inner, graph, epoch, &template, &sources, wrap)
    })
}

/// Answer PageRank requests for `asked` rounds each with one run of `prog`,
/// copied out at every round asked: each answer is bit-identical to a run
/// of its own.
fn pagerank_rounds<T: Topology, P: Program<Val = f64>>(
    graph: &T,
    epoch: u64,
    prog: &P,
    asked: &[usize],
) -> Vec<Answer> {
    let mut rounds = asked.to_vec();
    rounds.sort_unstable();
    rounds.dedup();
    let copies = run_reference_rounds(graph, prog, &rounds);
    let answer = |iters: &usize| {
        let copy = rounds.binary_search(iters).expect("a round per iters");
        let (ranks, iterations) = &copies[copy];
        Answer {
            batched_lanes: asked.len(),
            ..Answer::new(ResponseValues::Ranks(ranks.clone()), epoch, *iterations)
        }
    };
    asked.iter().map(answer).collect()
}

/// [`compute`]'s sweep, with the program and its [`ResponseValues`]
/// constructor named.
fn sweep<T: Topology, P: SingleSource>(
    inner: &Inner,
    graph: &T,
    epoch: u64,
    template: &P,
    sources: &[VId],
    wrap: impl Fn(Vec<P::Val>) -> ResponseValues,
) -> PolymerResult<Vec<Answer>> {
    let ms = MultiSource::from_sources(template, sources)?;
    let machine = Machine::new(inner.cfg.spec.clone());
    let res = run_multi_source(&machine, inner.cfg.threads_per_request, graph, &ms)?;
    let (iterations, batched_lanes) = (res.iterations, res.lanes);
    let answer = |lane| Answer {
        batched_lanes,
        ..Answer::new(wrap(lane), epoch, iterations)
    };
    Ok(res.into_lanes().into_iter().map(answer).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymer_algos::reference::max_rel_error;
    use polymer_algos::{run_reference, Bfs, PageRank, Sssp};
    use polymer_api::{Combine, FrontierInit};
    use polymer_graph::{gen, BatchStats, MutableGraph, Weight};

    fn graph() -> Graph {
        Graph::from_edges(&gen::rmat(7, 1 << 10, gen::RMAT_GRAPH500, 5))
    }

    /// The counters of an ingest response.
    fn ingest_stats(values: &ResponseValues) -> &BatchStats {
        match values {
            ResponseValues::Ingested(stats) => stats,
            other => panic!("not an ingest response: {other:?}"),
        }
    }

    fn quick_cfg() -> ServeConfig {
        ServeConfig {
            workers: 2,
            threads_per_request: 2,
            backend: Backend::Simulated,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serves_bfs_end_to_end() {
        let g = graph();
        let (want, _) = run_reference(&g, &Bfs::new(3));
        let svc = GraphService::new(g, quick_cfg()).unwrap();
        let t = svc.submit(RequestKind::Bfs { source: 3 }).unwrap();
        let r = t.wait().unwrap();
        assert_eq!(r.algorithm, "BFS");
        assert_eq!(r.values.levels().unwrap(), &want[..]);
        assert_eq!(svc.stats().completed, 1);
    }

    #[test]
    fn rejects_out_of_range_source_at_admission() {
        let svc = GraphService::new(graph(), quick_cfg()).unwrap();
        let err = svc
            .submit(RequestKind::Bfs { source: 1 << 20 })
            .map(|t| t.id())
            .unwrap_err();
        assert_eq!(err.code(), "invalid-config");
        assert_eq!(svc.stats().submitted, 0);
    }

    /// Regression: admission built `Sssp::with_delta(0)`, whose assert
    /// unwound the caller's thread out of `submit`.
    #[test]
    fn rejects_zero_delta_sssp_at_admission() {
        let svc = GraphService::new(graph(), quick_cfg()).unwrap();
        let zero = RequestKind::Sssp {
            source: 0,
            delta: 0,
        };
        let err = svc.submit(zero).map(|t| t.id()).unwrap_err();
        assert_eq!(err.code(), "invalid-config");
        assert_eq!(
            (svc.stats().submitted, svc.inner.lock().queue.len()),
            (0, 0)
        );
    }

    #[test]
    fn queue_full_is_typed_and_retryable() {
        let cfg = ServeConfig {
            queue_capacity: 2,
            ..quick_cfg()
        };
        let svc = GraphService::new(graph(), cfg).unwrap();
        svc.pause();
        let _t1 = svc.submit(RequestKind::Bfs { source: 0 }).unwrap();
        let _t2 = svc.submit(RequestKind::Bfs { source: 1 }).unwrap();
        let err = svc
            .submit(RequestKind::Bfs { source: 2 })
            .map(|t| t.id())
            .unwrap_err();
        assert_eq!(err, PolymerError::QueueFull { capacity: 2 });
        assert!(err.is_retryable());
        assert_eq!(svc.stats().rejected_queue_full, 1);
        svc.resume();
    }

    #[test]
    fn memory_budget_rejects_then_readmits_after_drain() {
        let g = graph();
        let n = g.num_vertices();
        let one_bfs = RequestKind::Bfs { source: 0 }.scratch_bytes(n);
        let cfg = ServeConfig {
            memory_budget_bytes: one_bfs,
            ..quick_cfg()
        };
        let svc = GraphService::new(g, cfg).unwrap();
        svc.pause();
        let t1 = svc.submit(RequestKind::Bfs { source: 0 }).unwrap();
        let err = svc
            .submit(RequestKind::Bfs { source: 1 })
            .map(|t| t.id())
            .unwrap_err();
        match err {
            PolymerError::MemoryBudgetExceeded {
                requested_bytes,
                in_use_bytes,
                budget_bytes,
            } => {
                assert_eq!(requested_bytes, one_bfs);
                assert_eq!(in_use_bytes, one_bfs);
                assert_eq!(budget_bytes, one_bfs);
            }
            other => panic!("unexpected: {other:?}"),
        }
        svc.resume();
        t1.wait().unwrap();
        // The pledge is released on completion; the same request fits again.
        svc.submit(RequestKind::Bfs { source: 1 })
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(svc.stats().rejected_memory, 1);
    }

    #[test]
    fn paused_queue_coalesces_same_algorithm_requests() {
        let g = graph();
        let sources = [0u32, 9, 17, 4];
        let oracle: Vec<Vec<u32>> = sources
            .iter()
            .map(|&s| run_reference(&g, &Bfs::new(s)).0)
            .collect();
        let svc = GraphService::new(g, quick_cfg()).unwrap();
        svc.pause();
        let tickets: Vec<Ticket> = sources
            .iter()
            .map(|&s| svc.submit(RequestKind::Bfs { source: s }).unwrap())
            .collect();
        assert_eq!(svc.inner.lock().queue.len(), sources.len());
        svc.resume();
        for (t, want) in tickets.into_iter().zip(&oracle) {
            let r = t.wait().unwrap();
            assert_eq!(r.batched_lanes, sources.len());
            assert_eq!(r.epoch, 0, "the graph as loaded");
            assert_eq!(r.values.levels().unwrap(), &want[..]);
        }
        let stats = svc.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batched_requests, sources.len() as u64);
        assert_eq!(stats.max_batch_lanes, sources.len() as u64);
    }

    #[test]
    fn mixed_kinds_do_not_coalesce_across_algorithms() {
        let g = graph();
        let svc = GraphService::new(g, quick_cfg()).unwrap();
        svc.pause();
        let tb = svc.submit(RequestKind::Bfs { source: 0 }).unwrap();
        let ts = svc
            .submit(RequestKind::Sssp {
                source: 0,
                delta: 100,
            })
            .unwrap();
        let tb2 = svc.submit(RequestKind::Bfs { source: 5 }).unwrap();
        svc.resume();
        let rb = tb.wait().unwrap();
        let rs = ts.wait().unwrap();
        let rb2 = tb2.wait().unwrap();
        // The two BFS requests coalesce around the SSSP; SSSP runs alone.
        assert_eq!(rb.batched_lanes, 2);
        assert_eq!(rb2.batched_lanes, 2);
        assert_eq!(rs.batched_lanes, 1);
        assert!(rs.values.distances().is_some());
    }

    #[test]
    fn expired_deadline_rejects_without_running() {
        let svc = GraphService::new(graph(), quick_cfg()).unwrap();
        svc.pause();
        let deadline = Duration::from_millis(20);
        let t = svc
            .submit_with_deadline(RequestKind::Bfs { source: 0 }, Some(deadline))
            .unwrap();
        std::thread::sleep(Duration::from_millis(40));
        svc.resume();
        let err = match t.wait() {
            Err(e) => e,
            Ok(_) => panic!("expired request must not produce values"),
        };
        assert_eq!(err, PolymerError::DeadlineExceeded { deadline });
        assert!(!err.is_retryable());
        let stats = svc.stats();
        assert_eq!(stats.expired_in_queue, 1);
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn stop_fails_queued_requests_and_later_submissions() {
        let svc = GraphService::new(graph(), quick_cfg()).unwrap();
        svc.pause();
        let t = svc.submit(RequestKind::Bfs { source: 0 }).unwrap();
        svc.stop();
        let err = match t.wait() {
            Err(e) => e,
            Ok(_) => panic!("queued request must not run after stop"),
        };
        assert_eq!(err, PolymerError::ServiceStopped);
        let err = svc
            .submit(RequestKind::Bfs { source: 0 })
            .map(|t| t.id())
            .unwrap_err();
        assert_eq!(err, PolymerError::ServiceStopped);
    }

    #[test]
    fn ingest_switches_to_incremental_with_cache_and_warm_start() {
        let g = graph();
        let n = g.num_vertices() as u32;
        let svc = GraphService::new(g.clone(), quick_cfg()).unwrap();

        // Static-mode query first, so the service has served both modes.
        let r = svc.submit(RequestKind::Bfs { source: 0 }).unwrap();
        assert_eq!(r.wait().unwrap().epoch, 0, "the graph as loaded");

        let mut b1 = DeltaBatch::new();
        b1.insert(1, n - 3, 7).insert(2, n - 2, 3).delete(0, 1);
        let r = svc
            .submit(RequestKind::Ingest { batch: b1.clone() })
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(r.algorithm, "Ingest");
        assert_eq!(r.epoch, 1, "an ingest reports the epoch it produced");
        let applied = ingest_stats(&r.values);
        assert_eq!(applied.inserted, 2);

        // Mirror the service's mutation to get the oracle graph.
        let mut mirror = MutableGraph::from_graph(&g);
        mirror.apply(&b1).unwrap();
        let (want, _) = run_reference(&mirror, &Bfs::new(0));

        // Cold incremental answer, then a pure cache hit.
        for _ in 0..2 {
            let r = svc.submit(RequestKind::Bfs { source: 0 }).unwrap();
            let r = r.wait().unwrap();
            assert_eq!(r.values.levels().unwrap(), &want[..]);
            assert_eq!(r.epoch, 1);
        }

        // Second ingest, then the same query warm-starts from the cache.
        let mut b2 = DeltaBatch::new();
        b2.insert(5, n - 1, 2).delete(1, n - 3);
        svc.submit(RequestKind::Ingest { batch: b2.clone() })
            .unwrap()
            .wait()
            .unwrap();
        mirror.apply(&b2).unwrap();
        let (want, _) = run_reference(&mirror, &Bfs::new(0));
        let r3 = svc.submit(RequestKind::Bfs { source: 0 }).unwrap();
        let r3 = r3.wait().unwrap();
        assert_eq!(r3.values.levels().unwrap(), &want[..]);
        assert_eq!(r3.epoch, 2);

        let stats = svc.stats();
        assert_eq!(stats.ingests, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.incremental_answers, 2, "cold + warm");
        assert_eq!(stats.compactions, 0);
    }

    #[test]
    fn sssp_and_pagerank_serve_incrementally_after_ingest() {
        let g = graph();
        let svc = GraphService::new(g.clone(), quick_cfg()).unwrap();
        let mut b = DeltaBatch::new();
        b.insert(3, 77, 4).insert(9, 50, 2).delete(0, 2);
        svc.submit(RequestKind::Ingest { batch: b.clone() })
            .unwrap()
            .wait()
            .unwrap();
        let mut mirror = MutableGraph::from_graph(&g);
        mirror.apply(&b).unwrap();

        let r = svc
            .submit(RequestKind::Sssp {
                source: 3,
                delta: 100,
            })
            .unwrap()
            .wait()
            .unwrap();
        let (want, _) = run_reference(&mirror, &Sssp::new(3));
        assert_eq!(r.values.distances().unwrap(), &want[..]);

        // One definition: `iters` rounds of the `PageRank` program, on the
        // graph at the epoch the response carries.
        let r = svc
            .submit(RequestKind::PageRank { iters: 5 })
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!((r.epoch, r.iterations), (1, 5));
        let prog = PageRank::new(g.num_vertices()).with_iters(5);
        let (want, _) = run_reference(&mirror, &prog);
        let err = max_rel_error(r.values.ranks().unwrap(), &want);
        assert!(err < 1e-9, "served PR off by {err}");
    }

    /// PageRank requests of any `iters` share one batch key: a paused queue
    /// of four is one dispatch and one run to the largest (every response
    /// names the run's lanes), and every answer is bit-identical to a run of
    /// its own. After an ingest the repeated `iters` shares its twin's lane
    /// as a cache hit.
    #[test]
    fn pagerank_requests_of_any_iters_share_one_run() {
        let g = graph();
        let n = g.num_vertices();
        let svc = GraphService::new(g.clone(), quick_cfg()).unwrap();
        let asked = [5, 1, 3, 3];
        let mut mirror = MutableGraph::from_graph(&g);
        let mut batch = DeltaBatch::new();
        batch.insert(3, 77, 4).delete(0, 2);
        for epoch in [0, 1] {
            let before = svc.stats();
            svc.pause();
            let tickets = asked.map(|iters| svc.submit(RequestKind::PageRank { iters }).unwrap());
            svc.resume();
            // Static mode makes a lane of every request, mutated mode of
            // every distinct `iters`.
            let run_lanes = if epoch == 0 { 4 } else { 3 };
            for (iters, t) in asked.into_iter().zip(tickets) {
                let r = t.wait().unwrap();
                let want = if epoch == 0 {
                    run_reference(&g, &PageRank::new(n).with_iters(iters))
                } else {
                    run_reference(&mirror, &PageRank::new(n).with_iters(iters))
                };
                assert_eq!(r.values.ranks().unwrap(), &want.0[..], "PageRank({iters})");
                assert_eq!((r.iterations, r.epoch), (want.1, epoch));
                assert_eq!(r.batched_lanes, run_lanes);
            }
            let stats = svc.stats();
            assert_eq!(stats.batches - before.batches, 1, "one run");
            assert_eq!(
                stats.batched_requests - before.batched_requests,
                run_lanes as u64
            );
            assert_eq!(stats.cache_hits - before.cache_hits, u64::from(epoch == 1));
            let computed = stats.incremental_answers - before.incremental_answers;
            assert_eq!(computed, if epoch == 0 { 0 } else { 3 });
            if epoch == 0 {
                let t = svc
                    .submit(RequestKind::Ingest {
                        batch: batch.clone(),
                    })
                    .unwrap();
                assert_eq!(t.wait().unwrap().epoch, 1);
                mirror.apply(&batch).unwrap();
            }
        }
        assert_eq!(svc.stats().failed, 0);
    }

    /// BFS whose `scatter` panics once it leaves the source (the `Probe`
    /// shape of `multi.rs`'s tests).
    #[derive(Clone)]
    struct Poisoned(Bfs);

    impl Program for Poisoned {
        type Val = u32;
        fn name(&self) -> &'static str {
            "poisoned"
        }
        fn combine(&self) -> Combine {
            self.0.combine()
        }
        fn next_identity(&self) -> u32 {
            self.0.next_identity()
        }
        fn init(&self, v: VId) -> u32 {
            self.0.init(v)
        }
        fn scatter(&self, _: VId, _: u32, _: Weight, _: u32) -> u32 {
            panic!("poisoned lane");
        }
        fn apply(&self, v: VId, acc: u32, curr: u32) -> (u32, bool) {
            self.0.apply(v, acc, curr)
        }
        fn initial_frontier(&self) -> FrontierInit {
            self.0.initial_frontier()
        }
        fn max_iters(&self) -> usize {
            self.0.max_iters()
        }
    }

    impl SingleSource for Poisoned {
        fn source(&self) -> VId {
            self.0.source
        }
        fn with_source(&self, source: VId) -> Self {
            Poisoned(Bfs::new(source))
        }
    }

    /// A sweep is a deterministic host kernel: its error is every lane's
    /// typed error at once. The retry ladder this replaced slept 1 + 2 + 4 s
    /// under a one-second backoff and then returned the same error.
    #[test]
    fn a_failed_sweep_fails_every_lane_once_without_backoff() {
        let svc = GraphService::new(graph(), quick_cfg()).unwrap();
        svc.pause();
        let sources = [0u32, 9, 17];
        let tickets = sources.map(|source| svc.submit(RequestKind::Bfs { source }).unwrap());
        let batch = take_batch(&mut svc.inner.lock(), MAX_LANES);
        assert_eq!(batch.len(), sources.len());

        let started = Instant::now();
        let (inner, template) = (&svc.inner, Poisoned(Bfs::new(0)));
        let wrap = ResponseValues::Levels;
        let outcome = sweep(inner, &*inner.graph, 0, &template, &sources, wrap);
        deliver(inner, &batch, outcome);
        for t in tickets {
            let err = t.wait().map(|r| r.id).unwrap_err();
            assert_eq!(err.code(), "engine-panicked", "{err}");
        }
        assert!(started.elapsed() < Duration::from_secs(1), "no backoff");
        let stats = svc.stats();
        assert_eq!((stats.failed, stats.completed), (3, 0));
        svc.resume();
    }

    /// PageRank whose `scatter` panics: the whole-graph twin of [`Poisoned`].
    struct PoisonedRanks(PageRank);

    impl Program for PoisonedRanks {
        type Val = f64;
        fn name(&self) -> &'static str {
            "poisoned-ranks"
        }
        fn combine(&self) -> Combine {
            self.0.combine()
        }
        fn next_identity(&self) -> f64 {
            self.0.next_identity()
        }
        fn init(&self, v: VId) -> f64 {
            self.0.init(v)
        }
        fn scatter(&self, _: VId, _: f64, _: Weight, _: u32) -> f64 {
            panic!("poisoned ranks");
        }
        fn apply(&self, v: VId, acc: f64, curr: f64) -> (f64, bool) {
            self.0.apply(v, acc, curr)
        }
        fn initial_frontier(&self) -> FrontierInit {
            self.0.initial_frontier()
        }
        fn max_iters(&self) -> usize {
            self.0.max_iters()
        }
    }

    /// A PageRank run that panics — here after an ingest, so under the
    /// mutation lock, as the dispatch runs it — fails every request of its
    /// dispatch `engine-panicked`, at once. The one worker then recovers
    /// the poisoned lock and answers the next PageRank exactly.
    #[test]
    fn a_panicking_pagerank_run_fails_its_dispatch_and_the_worker_lives() {
        let g = graph();
        let n = g.num_vertices();
        let cfg = ServeConfig {
            workers: 1,
            ..quick_cfg()
        };
        let svc = GraphService::new(g.clone(), cfg).unwrap();
        let t = svc.submit(RequestKind::Ingest {
            batch: DeltaBatch::new(),
        });
        assert_eq!(t.unwrap().wait().unwrap().epoch, 1);
        svc.pause();
        let asked = [4, 2];
        let tickets = asked.map(|iters| svc.submit(RequestKind::PageRank { iters }).unwrap());
        let batch = take_batch(&mut svc.inner.lock(), MAX_LANES);

        let inner = &svc.inner;
        let outcome = catch_engine_faults(|| {
            let guard = inner.lock_mutated();
            let graph = guard.as_ref().expect("mutated mode").graph();
            let poisoned = PoisonedRanks(pagerank_program(n));
            Ok(pagerank_rounds(graph, 1, &poisoned, &asked))
        });
        deliver(inner, &batch, outcome);
        for t in tickets {
            let err = t.wait().map(|r| r.id).unwrap_err();
            assert_eq!(err.code(), "engine-panicked", "{err}");
        }
        assert!(inner.mut_state.is_poisoned());
        svc.resume();

        let r = svc.submit(RequestKind::PageRank { iters: 4 }).unwrap();
        let r = r.wait().unwrap();
        let mirror = MutableGraph::from_graph(&g);
        let want = run_reference(&mirror, &PageRank::new(n).with_iters(4));
        assert_eq!(
            (r.values.ranks().unwrap(), r.iterations),
            (&want.0[..], want.1)
        );
        assert_eq!(r.epoch, 1);
        let stats = svc.stats();
        assert_eq!((stats.failed, stats.completed), (2, 2));
    }

    /// Regression: a panic on an answer path outside `catch_engine_faults`
    /// killed the worker — the ticket never resolved, the pledge was never
    /// released, and a one-worker service was wedged. The trigger here is a
    /// broken cache lane (a BFS lane holding distances), which the warm
    /// repair refuses with a panic while holding the mutation lock.
    #[test]
    fn a_broken_cache_lane_fails_its_ticket_and_the_worker_lives() {
        let g = graph();
        let n = g.num_vertices();
        let bfs = RequestKind::Bfs { source: 0 };
        let cfg = ServeConfig {
            workers: 1,
            // Exactly one BFS pledge: a leaked one would refuse the next request.
            memory_budget_bytes: bfs.scratch_bytes(n),
            ..quick_cfg()
        };
        let svc = GraphService::new(g.clone(), cfg).unwrap();
        let ingest = || {
            let batch = DeltaBatch::new();
            let t = svc.submit(RequestKind::Ingest { batch }).unwrap();
            t.wait().unwrap().epoch
        };
        assert_eq!(ingest(), 1);
        let broken = Answer::new(ResponseValues::Distances(vec![0; n]), 1, 0);
        let mut guard = svc.inner.lock_mutated();
        guard.as_mut().unwrap().store(&bfs, &broken);
        drop(guard);
        assert_eq!(ingest(), 2);

        let err = svc.submit(bfs).unwrap().wait().map(|r| r.id).unwrap_err();
        assert_eq!(err.code(), "engine-panicked", "{err}");
        let stats = svc.stats();
        assert_eq!((stats.failed, stats.completed), (1, 2));

        // The pledge was released, the poisoned mutation lock is recovered
        // and the one worker is alive: a cold BFS from another source is
        // admitted and answered.
        let r = svc.submit(RequestKind::Bfs { source: 5 }).unwrap();
        let r = r.wait().unwrap();
        assert_eq!(
            r.values.levels().unwrap(),
            run_reference(&g, &Bfs::new(5)).0
        );
        assert_eq!(r.epoch, 2);
    }

    #[test]
    fn ingest_batches_are_validated_at_admission() {
        let svc = GraphService::new(graph(), quick_cfg()).unwrap();
        let mut self_loop = DeltaBatch::new();
        self_loop.insert(4, 4, 1);
        let mut zero_w = DeltaBatch::new();
        zero_w.insert(0, 1, 0);
        let mut oob = DeltaBatch::new();
        oob.insert(0, 1 << 20, 1);
        for bad in [self_loop, zero_w, oob] {
            let err = svc
                .submit(RequestKind::Ingest { batch: bad })
                .map(|t| t.id())
                .unwrap_err();
            assert_eq!(err.code(), "invalid-config");
        }
        assert_eq!(svc.stats().submitted, 0);
        assert_eq!(svc.stats().ingests, 0);
    }

    #[test]
    fn threshold_compaction_is_counted_and_queries_survive_it() {
        let g = graph();
        let cfg = ServeConfig {
            compaction_fraction: Some(1e-4),
            ..quick_cfg()
        };
        let svc = GraphService::new(g.clone(), cfg).unwrap();
        let n = g.num_vertices() as u32;
        let mut b = DeltaBatch::new();
        for i in 0..8u32 {
            b.insert(i, n - 1 - i, 1 + i);
        }
        let r = svc
            .submit(RequestKind::Ingest { batch: b.clone() })
            .unwrap()
            .wait()
            .unwrap();
        assert!(ingest_stats(&r.values).compacted);
        assert_eq!(svc.stats().compactions, 1);

        let mut mirror = MutableGraph::from_graph(&g).with_compaction_fraction(1e-4);
        mirror.apply(&b).unwrap();
        let (want, _) = run_reference(&mirror, &Bfs::new(0));
        let r = svc.submit(RequestKind::Bfs { source: 0 }).unwrap();
        assert_eq!(r.wait().unwrap().values.levels().unwrap(), &want[..]);
    }

    /// One mutated-mode dispatch splits its lanes: the source answered an
    /// epoch ago is repaired warm, the two new sources share one sweep (and
    /// so does the repeat of one of them, as a cache hit), and the source
    /// answered at this epoch is a cache hit.
    #[test]
    fn cold_lanes_coalesce_after_an_ingest() {
        let g = graph();
        let n = g.num_vertices() as u32;
        let svc = GraphService::new(g.clone(), quick_cfg()).unwrap();
        let ask = |kind: RequestKind| svc.submit(kind).unwrap().wait().unwrap();
        let mut mirror = MutableGraph::from_graph(&g);
        let (warm, cached, new) = (0u32, 5u32, [9u32, 17]);
        let mut first = DeltaBatch::new();
        first.insert(0, n - 1, 1).delete(0, 1);
        let mut second = DeltaBatch::new();
        second.insert(n - 1, 9, 1).insert(3, 40, 2);
        for (epoch, batch, source) in [(1, first, warm), (2, second, cached)] {
            let ingested = ask(RequestKind::Ingest {
                batch: batch.clone(),
            });
            assert_eq!(ingested.epoch, epoch);
            mirror.apply(&batch).unwrap();
            assert_eq!(ask(RequestKind::Bfs { source }).epoch, epoch);
        }
        let before = svc.stats();

        svc.pause();
        let sources = [warm, new[0], new[1], new[0], cached];
        let tickets = sources.map(|source| svc.submit(RequestKind::Bfs { source }).unwrap());
        svc.resume();
        for (source, t) in sources.into_iter().zip(tickets) {
            let r = t.wait().unwrap();
            let want = run_reference(&mirror, &Bfs::new(source)).0;
            assert_eq!(r.values.levels().unwrap(), &want[..], "BFS {source}");
            assert_eq!(r.epoch, 2);
            let lanes = if new.contains(&source) { 2 } else { 1 };
            assert_eq!(r.batched_lanes, lanes, "BFS {source}");
        }
        let stats = svc.stats();
        assert_eq!(stats.batches - before.batches, 1);
        assert_eq!(stats.batched_requests - before.batched_requests, 2);
        assert_eq!(stats.cache_hits - before.cache_hits, 2);
        assert_eq!(stats.incremental_answers - before.incremental_answers, 3);
        assert_eq!(stats.failed, 0);
    }

    /// Regression: `complete` read the clock once for the flag and once for
    /// the latency, so a response could carry `latency > deadline` with
    /// `deadline_missed == false`. With the deadline at the median latency,
    /// about half the answers are late; each must say so exactly.
    #[test]
    fn a_late_answer_is_flagged_by_the_latency_it_reports() {
        let svc = GraphService::new(graph(), quick_cfg()).unwrap();
        let ask = |deadline| {
            let t = svc.submit_with_deadline(RequestKind::Bfs { source: 3 }, deadline);
            t.unwrap().wait()
        };
        let mut latencies: Vec<Duration> = (0..15).map(|_| ask(None).unwrap().latency).collect();
        latencies.sort();
        let deadline = latencies[latencies.len() / 2];
        for _ in 0..200 {
            // An answer that expired in the queue is not a response.
            if let Ok(r) = ask(Some(deadline)) {
                assert_eq!(r.deadline_missed, r.latency > deadline, "{r:?}");
            }
        }
    }

    #[test]
    fn responses_carry_request_ids_and_latency() {
        let svc = GraphService::new(graph(), quick_cfg()).unwrap();
        let t = svc.submit(RequestKind::PageRank { iters: 3 }).unwrap();
        let id = t.id();
        let r = t.wait().unwrap();
        assert_eq!(r.id, id);
        assert_eq!(r.algorithm, "PageRank");
        assert!(r.values.ranks().is_some());
        assert!(r.latency > Duration::ZERO);
        assert!(!r.deadline_missed);
    }
}
