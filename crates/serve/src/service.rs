//! The resident-graph service: admission, coalescing, and the worker pool.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use polymer_algos::{run_multi_source, Bfs, MultiSource, PageRank, SingleSource, Sssp, MAX_LANES};
use polymer_api::supervisor::{RunSupervisor, SupervisorConfig};
use polymer_api::{validate_run_config, Backend, PolymerError, PolymerResult, RunResult};
use polymer_core::PolymerEngine;
use polymer_graph::Graph;
use polymer_numa::{Machine, MachineSpec};

use crate::mutate::{AnswerPath, MutState};
use crate::request::{
    BatchKey, RequestKind, ResponseValues, ServeResponse, ServeStats, Slot, Ticket,
};

/// Everything a [`GraphService`] is configured with.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Admission bound on queued (not yet dispatched) requests.
    pub queue_capacity: usize,
    /// Worker threads dispatching requests; each runs one request or one
    /// coalesced batch at a time.
    pub workers: usize,
    /// Execution threads each dispatched engine run uses (solo runs, warm
    /// repairs, mutated-mode PageRank). A multi-source sweep — coalesced,
    /// or the one-lane cold answer of mutated mode — runs on its worker's
    /// own thread whatever this is.
    pub threads_per_request: usize,
    /// Aggregate scratch-byte budget across admitted, unfinished requests.
    /// Each request pledges a deterministic estimate of twice its value
    /// width per vertex (the `curr`/`next` lanes) until it completes.
    pub memory_budget_bytes: u64,
    /// Cap on lanes per coalesced sweep (clamped to
    /// [`polymer_algos::MAX_LANES`]).
    pub max_batch_lanes: usize,
    /// Backend solo static-mode requests run on. Multi-source sweeps
    /// always compute on host memory, like the real-thread backend;
    /// mutated-mode repairs and PageRank always run simulated.
    pub backend: Backend,
    /// Machine topology for every run.
    pub spec: MachineSpec,
    /// Supervision template: retry/backoff/degrade policy for solo runs;
    /// batched sweeps reuse its [`polymer_api::supervisor::RetryPolicy`].
    /// A request deadline tightens a clone of this per request via
    /// [`SupervisorConfig::with_deadline`].
    pub supervisor: SupervisorConfig,
    /// Deadline applied to requests submitted without one.
    pub default_deadline: Option<Duration>,
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
            supervisor: SupervisorConfig::default(),
            default_deadline: None,
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
    /// Set by the first successful ingest; from then on queries dispatch
    /// through [`crate::mutate`] one at a time. Nothing coalesces: the
    /// sweep can read the mutated graph, but a lane that has a cached prior
    /// is cheaper repaired than swept, so which requests to batch is a
    /// policy waiting on a workload that measures it.
    mutated: bool,
    in_use_bytes: u64,
    next_id: u64,
    stats: ServeStats,
}

struct Inner {
    graph: Arc<Graph>,
    cfg: ServeConfig,
    state: Mutex<State>,
    /// Mutated-mode state (`None` until the first ingest). Held across the
    /// whole apply/answer, so mutated-mode requests serialize on it.
    mut_state: Mutex<Option<MutState>>,
    cv: Condvar,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
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
        // Multi-source sweeps and every mutated-mode answer drive a
        // simulated `IterationDriver` whatever `cfg.backend` is, and that
        // binds one thread per simulated core.
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
                mutated: false,
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

    /// The resident graph.
    pub fn graph(&self) -> &Graph {
        &self.inner.graph
    }

    /// Submit a request under the configured default deadline.
    pub fn submit(&self, kind: RequestKind) -> PolymerResult<Ticket> {
        self.submit_with_deadline(kind, self.inner.cfg.default_deadline)
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
            // The engines' own front-door check, run where the request
            // enters: mutation never changes the vertex count.
            RequestKind::Bfs { source } => validate_run_config(threads, n, &Bfs::new(*source))?,
            RequestKind::Sssp { source, .. } => {
                validate_run_config(threads, n, &Sssp::new(*source))?
            }
            RequestKind::PageRank { .. } => {}
            RequestKind::Ingest { batch } => batch
                .validate(n)
                .map_err(|e| PolymerError::InvalidConfig(format!("ingest batch: {e}")))?,
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

    /// Requests currently queued (admitted, not yet dispatched).
    pub fn queue_len(&self) -> usize {
        self.inner.lock().queue.len()
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
                    while let Some(p) = st.queue.pop_front() {
                        st.in_use_bytes -= p.scratch;
                        st.stats.failed += 1;
                        p.slot.fulfill(Err(PolymerError::ServiceStopped));
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
/// [`BatchKey`] behind it, up to `max_lanes`. Whole-graph requests (no
/// key) dispatch alone, and once the graph has been mutated nothing
/// coalesces — every query goes through the cache-aware mutated-mode
/// path, one at a time. FIFO order is preserved for everything left.
fn take_batch(st: &mut State, max_lanes: usize) -> Vec<Pending> {
    let head = st.queue.pop_front().expect("caller checked non-empty");
    let key = if st.mutated {
        None
    } else {
        head.kind.batch_key()
    };
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

/// Dispatch one batch: expire dead requests, then run the rest — solo
/// under the full supervisor, or as one coalesced multi-source sweep.
fn process(inner: &Inner, batch: Vec<Pending>) {
    let mut live = Vec::with_capacity(batch.len());
    for p in batch {
        match p.deadline {
            Some(d) if p.submitted.elapsed() >= d => {
                // Every counter moves before the reply slot fills: a caller
                // returning from `wait()` must already see the expiry.
                {
                    let mut st = inner.lock();
                    st.in_use_bytes -= p.scratch;
                    st.stats.failed += 1;
                    st.stats.expired_in_queue += 1;
                }
                p.slot
                    .fulfill(Err(PolymerError::DeadlineExceeded { deadline: d }));
            }
            _ => live.push(p),
        }
    }
    match live.len() {
        0 => {}
        1 => dispatch_one(inner, live.into_iter().next().expect("len checked")),
        _ => run_batched(inner, live),
    }
}

/// Route a solo request: ingests mutate the resident state; queries run
/// incrementally once the graph has been mutated, and under the full
/// static-graph supervisor before that.
fn dispatch_one(inner: &Inner, p: Pending) {
    if matches!(p.kind, RequestKind::Ingest { .. }) {
        run_ingest(inner, p);
    } else if inner.lock().mutated {
        run_incremental(inner, p);
    } else {
        run_solo(inner, p);
    }
}

/// Apply an ingest batch to the mutated-mode state (created lazily from
/// the resident graph on the first ingest) and answer with its stats.
fn run_ingest(inner: &Inner, p: Pending) {
    let RequestKind::Ingest { batch } = &p.kind else {
        unreachable!("caller matched Ingest");
    };
    let mut guard = inner.mut_state.lock().unwrap_or_else(|e| e.into_inner());
    let ms =
        guard.get_or_insert_with(|| MutState::new(&inner.graph, inner.cfg.compaction_fraction));
    let outcome = match ms.ingest(batch) {
        Ok((stats, epoch)) => {
            {
                let mut st = inner.lock();
                st.mutated = true;
                st.stats.ingests += 1;
                if stats.compacted {
                    st.stats.compactions += 1;
                }
            }
            Ok(ServeResponse {
                id: p.id,
                algorithm: p.kind.name(),
                values: ResponseValues::Ingested(stats),
                epoch,
                iterations: 0,
                batched_lanes: 1,
                deadline_missed: missed(&p),
                latency: p.submitted.elapsed(),
                recovery: None,
            })
        }
        // Validation ran at admission; an error here means the graph
        // changed shape underneath the queue, which it cannot.
        Err(e) => Err(PolymerError::InvalidConfig(format!("ingest batch: {e}"))),
    };
    drop(guard);
    finish(inner, &p, outcome);
}

/// Answer a query in mutated mode: cache hit, warm-started incremental
/// repair, or cold run (see [`crate::mutate`]).
fn run_incremental(inner: &Inner, p: Pending) {
    let mut guard = inner.mut_state.lock().unwrap_or_else(|e| e.into_inner());
    let ms = guard.as_mut().expect("mutated flag implies state");
    let outcome = ms
        .answer(&p.kind, &inner.cfg.spec, inner.cfg.threads_per_request)
        .map(|(values, iterations, epoch, path)| {
            {
                let mut st = inner.lock();
                match path {
                    AnswerPath::CacheHit => st.stats.cache_hits += 1,
                    AnswerPath::Warm | AnswerPath::Cold => st.stats.incremental_answers += 1,
                }
            }
            ServeResponse {
                id: p.id,
                algorithm: p.kind.name(),
                values,
                epoch,
                iterations,
                batched_lanes: 1,
                deadline_missed: missed(&p),
                latency: p.submitted.elapsed(),
                recovery: None,
            }
        });
    drop(guard);
    finish(inner, &p, outcome);
}

/// Deliver `outcome` for `p` and release its admission pledge.
fn finish(inner: &Inner, p: &Pending, outcome: PolymerResult<ServeResponse>) {
    {
        let mut st = inner.lock();
        st.in_use_bytes -= p.scratch;
        match &outcome {
            Ok(r) => {
                st.stats.completed += 1;
                if r.deadline_missed {
                    st.stats.deadline_missed += 1;
                }
            }
            Err(_) => st.stats.failed += 1,
        }
    }
    p.slot.fulfill(outcome);
}

/// True when the request completed after its deadline had passed.
fn missed(p: &Pending) -> bool {
    p.deadline.is_some_and(|d| p.submitted.elapsed() > d)
}

/// Run one request under the full [`RunSupervisor`] (checkpoint-resume and
/// the degrade ladder included) on the configured backend.
fn run_solo(inner: &Inner, p: Pending) {
    let mut cfg = inner.cfg.supervisor.clone();
    if let Some(d) = p.deadline {
        // The queue already consumed part of the budget; the supervisor
        // gets only what remains (expiry at zero was handled upstream).
        cfg = cfg.with_deadline(d.saturating_sub(p.submitted.elapsed()));
    }
    let sup = RunSupervisor::new(cfg);
    let engine = PolymerEngine::new();
    let threads = inner.cfg.threads_per_request;
    let (backend, spec) = (&inner.cfg.backend, &inner.cfg.spec);
    let g = &inner.graph;
    let outcome = match p.kind {
        RequestKind::Bfs { source } => {
            let prog = Bfs::new(source);
            sup.run(&engine, backend, spec, threads, g, &prog)
                .map(|run| solo_response(&p, run.with_tag(p.id), ResponseValues::Levels))
        }
        RequestKind::Sssp { source, delta } => {
            let prog = Sssp::new(source).with_delta(delta);
            sup.run(&engine, backend, spec, threads, g, &prog)
                .map(|run| solo_response(&p, run.with_tag(p.id), ResponseValues::Distances))
        }
        RequestKind::PageRank { iters } => {
            let prog = PageRank::new(g.num_vertices()).with_iters(iters);
            sup.run(&engine, backend, spec, threads, g, &prog)
                .map(|run| solo_response(&p, run.with_tag(p.id), ResponseValues::Ranks))
        }
        RequestKind::Ingest { .. } => unreachable!("ingests dispatch through run_ingest"),
    };
    finish(inner, &p, outcome);
}

/// Package a supervised solo run for its request.
fn solo_response<V>(
    p: &Pending,
    run: RunResult<V>,
    wrap: impl FnOnce(Vec<V>) -> ResponseValues,
) -> ServeResponse {
    ServeResponse {
        id: p.id,
        algorithm: p.kind.name(),
        values: wrap(run.values),
        epoch: 0,
        iterations: run.iterations,
        batched_lanes: 1,
        deadline_missed: missed(p),
        latency: p.submitted.elapsed(),
        recovery: run.recovery,
    }
}

/// Run a coalesced batch (two or more same-class requests) as one
/// multi-source sweep, then fan the lanes back out to their requests.
///
/// The sweep computes on host memory and is immune to the simulated
/// machine's injected faults, so instead of the full engine supervisor it
/// runs under a lightweight retry loop that reuses the supervisor's
/// [`polymer_api::supervisor::RetryPolicy`] (attempt cap, backoff ladder)
/// and respects the tightest live deadline in the batch between attempts.
fn run_batched(inner: &Inner, batch: Vec<Pending>) {
    let sources: Vec<u32> = batch
        .iter()
        .map(|p| match p.kind {
            RequestKind::Bfs { source } => source,
            RequestKind::Sssp { source, .. } => source,
            RequestKind::PageRank { .. } | RequestKind::Ingest { .. } => {
                unreachable!("keyless requests never coalesce")
            }
        })
        .collect();
    {
        let mut st = inner.lock();
        st.stats.batches += 1;
        st.stats.batched_requests += batch.len() as u64;
        st.stats.max_batch_lanes = st.stats.max_batch_lanes.max(batch.len() as u64);
    }
    match batch[0]
        .kind
        .batch_key()
        .expect("batched requests have a key")
    {
        BatchKey::Bfs => {
            let sweep = sweep_with_retry(
                inner,
                &batch,
                &Bfs::new(0),
                &sources,
                ResponseValues::Levels,
            );
            deliver_lanes(inner, batch, sweep);
        }
        BatchKey::Sssp { delta } => {
            let template = Sssp::new(0).with_delta(delta);
            let sweep = sweep_with_retry(
                inner,
                &batch,
                &template,
                &sources,
                ResponseValues::Distances,
            );
            deliver_lanes(inner, batch, sweep);
        }
    }
}

/// Execute the sweep under the retry ladder; on success return each lane's
/// packaged values and the sweep's iteration count.
fn sweep_with_retry<P: SingleSource>(
    inner: &Inner,
    batch: &[Pending],
    template: &P,
    sources: &[u32],
    wrap: impl Fn(Vec<P::Val>) -> ResponseValues,
) -> PolymerResult<(Vec<ResponseValues>, usize)> {
    let ms = MultiSource::from_sources(template, sources)?;
    let retry = &inner.cfg.supervisor.retry;
    let deadline_left = |b: &[Pending]| -> Option<Duration> {
        b.iter()
            .filter_map(|p| p.deadline.map(|d| d.saturating_sub(p.submitted.elapsed())))
            .min()
    };
    let mut failures = 0usize;
    loop {
        let machine = Machine::new(inner.cfg.spec.clone());
        match run_multi_source(&machine, inner.cfg.threads_per_request, &*inner.graph, &ms) {
            Ok(res) => {
                let iterations = res.run.iterations;
                return Ok((
                    res.into_lanes().into_iter().map(&wrap).collect(),
                    iterations,
                ));
            }
            Err(e) if e.is_retryable() && failures + 1 < retry.max_attempts.max(1) => {
                failures += 1;
                let backoff = retry.backoff_after(failures);
                if let Some(left) = deadline_left(batch) {
                    if left <= backoff {
                        return Err(e);
                    }
                }
                if inner.cfg.supervisor.sleep_on_backoff && !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Fan a sweep's outcome back out: each request gets its own lane's values
/// (or a clone of the common error).
fn deliver_lanes(
    inner: &Inner,
    batch: Vec<Pending>,
    sweep: PolymerResult<(Vec<ResponseValues>, usize)>,
) {
    match sweep {
        Ok((lanes, iterations)) => {
            let k = batch.len();
            for (p, values) in batch.iter().zip(lanes) {
                let response = ServeResponse {
                    id: p.id,
                    algorithm: p.kind.name(),
                    values,
                    epoch: 0,
                    iterations,
                    batched_lanes: k,
                    deadline_missed: missed(p),
                    latency: p.submitted.elapsed(),
                    recovery: None,
                };
                finish(inner, p, Ok(response));
            }
        }
        Err(e) => {
            for p in &batch {
                finish(inner, p, Err(e.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymer_algos::run_reference;
    use polymer_graph::gen;
    use polymer_graph::{DeltaBatch, MutableGraph};

    fn graph() -> Graph {
        Graph::from_edges(&gen::rmat(7, 1 << 10, gen::RMAT_GRAPH500, 5))
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
        assert_eq!(svc.queue_len(), sources.len());
        svc.resume();
        for (t, want) in tickets.into_iter().zip(&oracle) {
            let r = t.wait().unwrap();
            assert_eq!(r.batched_lanes, sources.len());
            assert_eq!(r.epoch, 0, "coalescing is static-mode only");
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
        let applied = r.values.ingest_stats().unwrap();
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

        let r = svc
            .submit(RequestKind::PageRank { iters: 5 })
            .unwrap()
            .wait()
            .unwrap();
        // Oracle: the cold residual fixpoint on a fresh machine over the mirror.
        use polymer_numa::{AllocPolicy, Machine, MachineSpec};
        let machine = Machine::new(MachineSpec::test2());
        let topo =
            polymer_api::OverlayTopo::build(&machine, &mirror, false, |_| AllocPolicy::Interleaved);
        let tol = polymer_algos::DEFAULT_PR_TOL;
        let want = polymer_algos::pagerank_overlay(&machine, 4, &topo, 0.85, tol, None, false)
            .unwrap()
            .values;
        let err = polymer_algos::reference::max_rel_error(r.values.ranks().unwrap(), &want);
        assert!(err < 1e-6, "served PR off by {err}");
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
        assert!(r.values.ingest_stats().unwrap().compacted);
        assert_eq!(svc.stats().compactions, 1);

        let mut mirror = MutableGraph::from_graph(&g).with_compaction_fraction(1e-4);
        mirror.apply(&b).unwrap();
        let (want, _) = run_reference(&mirror, &Bfs::new(0));
        let r = svc.submit(RequestKind::Bfs { source: 0 }).unwrap();
        assert_eq!(r.wait().unwrap().values.levels().unwrap(), &want[..]);
    }

    #[test]
    fn coalescing_is_disabled_once_mutated() {
        let svc = GraphService::new(graph(), quick_cfg()).unwrap();
        let mut b = DeltaBatch::new();
        b.insert(0, 99, 1);
        svc.submit(RequestKind::Ingest { batch: b })
            .unwrap()
            .wait()
            .unwrap();
        svc.pause();
        let t1 = svc.submit(RequestKind::Bfs { source: 0 }).unwrap();
        let t2 = svc.submit(RequestKind::Bfs { source: 5 }).unwrap();
        svc.resume();
        assert_eq!(t1.wait().unwrap().batched_lanes, 1);
        assert_eq!(t2.wait().unwrap().batched_lanes, 1);
        let stats = svc.stats();
        assert_eq!(stats.batches, 0, "no coalesced sweep after mutation");
        assert_eq!(stats.incremental_answers, 2);
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
