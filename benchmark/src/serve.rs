//! The two serving workloads, `serve-read` and `serve-ingest`: a closed
//! loop of one client that submits a window of requests to a
//! `polymer_serve::GraphService`, waits for all of them, and goes on to the
//! next window. A *trial* is one segment — a fixed list of windows, the
//! same every time — so a window is a unit of work that repeats exactly,
//! and each keeps its own best time over the trials. Client and service
//! share one processor (see [`OneCpu`]).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use polymer_algos::reference::max_rel_error;
use polymer_algos::{run_reference, Bfs, PageRank, Sssp};
use polymer_api::Backend;
use polymer_graph::{BatchStats, DeltaBatch, Graph, MutableGraph, VId};
use polymer_serve::{
    GraphService, RequestKind, ResponseValues, ServeConfig, ServeResponse, ServeStats,
};

use crate::harness::{
    best, median, quantile_sorted, ratio, slowest_tenth_mean, sorted, spread, Metrics, Outcome,
    Recorder,
};
use crate::inputs::{self, Mix, SERVE_PR_ITERS, SSSP_DELTA};
use crate::Opts;

/// R-MAT 2^14 vertices × 8 edges per vertex.
const SCALE: u32 = 14;
const EDGE_FACTOR: usize = 8;

/// One serving workload's fixed parameters.
pub struct ServeSpec {
    /// Query sources: BFS requests go round all of them, SSSP requests
    /// round the first half.
    pool: usize,
    /// The queries of one cycle.
    mix: Mix,
    /// Cycles per trial (segment).
    cycles: usize,
    /// Queries the client keeps in flight: it submits this many, then waits
    /// for each of them. A cycle is cut into windows of at most this many.
    window: usize,
    /// Operations of the ingest batch that ends every cycle. With ingests,
    /// every trial starts a fresh service, and an ingest is a window of its
    /// own: the client has nothing else in flight beside it, so every query
    /// is answered on a known version of the graph and does the same work
    /// in every trial.
    ingest_ops: Option<usize>,
}

/// Static graph; twenty requests in flight — twelve BFS, six SSSP, two
/// PageRank — keep the queue deep enough for same-class requests to coalesce
/// into multi-source sweeps.
pub const SERVE_READ: ServeSpec = ServeSpec {
    pool: 48,
    mix: Mix {
        bfs: 12,
        sssp: 6,
        pagerank: 2,
    },
    cycles: 4,
    window: 20,
    ingest_ops: None,
};

/// Writes between reads: fifteen queries in two windows, then an ingest.
/// No PageRank: in mutated mode one residual PageRank holds the mutation
/// lock for hundreds of milliseconds and would set every percentile of
/// every other request (`serve.pr_mutated_ms` reports it on its own).
pub const SERVE_INGEST: ServeSpec = ServeSpec {
    pool: 16,
    mix: Mix {
        bfs: 10,
        sssp: 5,
        pagerank: 0,
    },
    cycles: 64,
    window: 8,
    ingest_ops: Some(256),
};

fn config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 64,
        workers: 2,
        threads_per_request: 1,
        backend: Backend::real_threads(),
        ..ServeConfig::default()
    }
}

/// Per-source answers on the static graph.
struct Oracle {
    bfs: HashMap<VId, Vec<u32>>,
    sssp: HashMap<VId, Vec<u64>>,
    ranks: Vec<f64>,
}

impl Oracle {
    fn build(g: &Graph, pool: &[VId]) -> Oracle {
        Oracle {
            bfs: pool
                .iter()
                .map(|&s| (s, run_reference(g, &Bfs::new(s)).0))
                .collect(),
            sssp: pool
                .iter()
                .map(|&s| (s, run_reference(g, &Sssp::new(s).with_delta(SSSP_DELTA)).0))
                .collect(),
            ranks: run_reference(
                g,
                &PageRank::new(g.num_vertices()).with_iters(SERVE_PR_ITERS),
            )
            .0,
        }
    }

    /// Exact for the integer programs; PageRank within the 1e-9 relative
    /// error the conformance suite allows across summation orders.
    fn matches(&self, kind: &RequestKind, values: &ResponseValues) -> bool {
        match (kind, values) {
            (RequestKind::Bfs { source }, ResponseValues::Levels(v)) => self.bfs[source] == *v,
            (RequestKind::Sssp { source, .. }, ResponseValues::Distances(v)) => {
                self.sssp[source] == *v
            }
            (RequestKind::PageRank { .. }, ResponseValues::Ranks(v)) => {
                v.len() == self.ranks.len() && max_rel_error(v, &self.ranks) < 1e-9
            }
            _ => false,
        }
    }
}

/// What the replay expects of one `serve-ingest` response.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Want {
    /// Hash of a traversal's levels or distances.
    Values(u64),
    Stats(BatchStats),
}

impl Want {
    fn of(values: &ResponseValues) -> Option<Want> {
        let mut h = DefaultHasher::new();
        match values {
            ResponseValues::Levels(v) => v.hash(&mut h),
            ResponseValues::Distances(v) => v.hash(&mut h),
            ResponseValues::Ingested(stats) => return Some(Want::Stats(*stats)),
            ResponseValues::Ranks(_) => return None,
        }
        Some(Want::Values(h.finish()))
    }
}

/// How a segment's answers are checked.
enum Check<'a> {
    /// Against per-source answers on the static graph.
    Static(&'a Oracle),
    /// Against the stand-alone replay, one entry per request.
    Replayed(&'a [Want]),
}

impl Check<'_> {
    /// `pos` is the request's position in the segment.
    fn passes(&self, pos: usize, kind: &RequestKind, values: &ResponseValues) -> bool {
        match self {
            Check::Static(oracle) => oracle.matches(kind, values),
            Check::Replayed(wants) => Want::of(values) == Some(wants[pos]),
        }
    }
}

/// What one segment brings back.
struct Segment {
    /// Wall-clock of each window: first `submit` call to last
    /// `Ticket::wait` return. Checking the answers comes after.
    window_s: Vec<f64>,
    /// Latency of each request, `submit` call to `Ticket::wait` return, in
    /// segment order.
    latency_ms: Vec<f64>,
    submit_us: Vec<f64>,
    wait_ms: Vec<f64>,
    failed: u64,
}

/// One segment: for each window, submit it, wait for it, then check it.
/// Nothing is printed or allocated per request inside a window's timing;
/// the vectors are sized up front.
fn run_segment(
    svc: &GraphService,
    windows: &[Vec<RequestKind>],
    check: &Check,
    rec: &mut Recorder,
    trial: u64,
) -> Segment {
    let requests: usize = windows.iter().map(Vec::len).sum();
    let widest = windows.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Segment {
        window_s: Vec::with_capacity(windows.len()),
        latency_ms: Vec::with_capacity(requests),
        submit_us: Vec::with_capacity(requests),
        wait_ms: Vec::with_capacity(requests),
        failed: 0,
    };
    let root = rec.start("segment", "bench", Recorder::root(), trial);
    let mut flight = Vec::with_capacity(widest);
    let mut answers = Vec::with_capacity(widest);
    let mut pos = 0;
    for window in windows {
        let first = pos;
        let t_window = Instant::now();
        for kind in window {
            let req = rec.start("request", "bench", root, pos as u64);
            let t0 = Instant::now();
            let ticket = rec.call("GraphService::submit", "serve", req, pos as u64, || {
                svc.submit(kind.clone())
            });
            out.submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
            flight.push((pos, t0, req, ticket));
            pos += 1;
        }
        for (pos, t0, req, ticket) in flight.drain(..) {
            let t1 = Instant::now();
            let resp = rec.call("Ticket::wait", "serve", req, pos as u64, || {
                ticket.and_then(|t| t.wait())
            });
            out.wait_ms.push(t1.elapsed().as_secs_f64() * 1e3);
            out.latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            rec.end(req);
            answers.push(resp);
        }
        out.window_s.push(t_window.elapsed().as_secs_f64());
        for (k, resp) in answers.drain(..).enumerate() {
            let ok = match resp {
                Ok(ServeResponse { values, .. }) => check.passes(first + k, &window[k], &values),
                Err(_) => false,
            };
            out.failed += u64::from(!ok);
        }
    }
    rec.end(root);
    out
}

/// Cut every cycle into windows, and end it with an ingest batch where
/// there are batches. An ingest is a window of its own.
fn windows(
    cycles: Vec<Vec<RequestKind>>,
    window: usize,
    batches: &[DeltaBatch],
) -> Vec<Vec<RequestKind>> {
    let mut out = Vec::new();
    for (c, cycle) in cycles.iter().enumerate() {
        out.extend(cycle.chunks(window).map(<[RequestKind]>::to_vec));
        if let Some(batch) = batches.get(c) {
            out.push(vec![RequestKind::Ingest {
                batch: batch.clone(),
            }]);
        }
    }
    out
}

/// Expected answers of a `serve-ingest` segment, from replaying it into a
/// stand-alone `MutableGraph`.
#[derive(Default)]
struct Replay {
    /// One entry per request of the segment, in order.
    wants: Vec<Want>,
    compactions: usize,
    overlay_entries_peak: usize,
    apply_us_per_op: f64,
    compact_ms: f64,
}

fn reference_answer(g: &Graph, kind: &RequestKind) -> ResponseValues {
    match *kind {
        RequestKind::Bfs { source } => {
            ResponseValues::Levels(run_reference(g, &Bfs::new(source)).0)
        }
        RequestKind::Sssp { source, delta } => {
            ResponseValues::Distances(run_reference(g, &Sssp::new(source).with_delta(delta)).0)
        }
        _ => panic!("only traversal queries are replayed"),
    }
}

fn replay(g: &Graph, windows: &[Vec<RequestKind>], rec: &mut Recorder) -> Replay {
    let mut mg = MutableGraph::from_graph(g);
    let mut out = Replay::default();
    let (mut apply_s, mut ops) = (0.0, 0usize);
    let mut compact_s = Vec::new();
    // The graph the service answers from: as loaded until the first ingest,
    // the mutable graph's current version after it.
    let mut snapshot = None;
    for kind in windows.iter().flatten() {
        match kind {
            RequestKind::Ingest { batch } => {
                let t = Instant::now();
                let applied = rec
                    .call("MutableGraph::apply", "graph", Recorder::root(), 0, || {
                        mg.apply(batch)
                    })
                    .expect("generated batches are valid");
                let dt = t.elapsed().as_secs_f64();
                if applied.stats.compacted {
                    // `apply` ran the compaction it triggered.
                    compact_s.push(dt);
                } else {
                    apply_s += dt;
                    ops += batch.len();
                }
                out.wants.push(Want::Stats(applied.stats));
                let log = mg.log();
                out.overlay_entries_peak = out
                    .overlay_entries_peak
                    .max(log.num_inserts() + log.num_tombstones());
                snapshot = None;
            }
            query => {
                let current = match (mg.epoch(), &mut snapshot) {
                    (0, _) => g,
                    (_, slot) => {
                        slot.get_or_insert_with(|| Graph::from_edges(&mg.snapshot_edge_list()))
                    }
                };
                let want = Want::of(&reference_answer(current, query));
                out.wants
                    .push(want.expect("traversals have hashable values"));
            }
        }
    }
    out.compactions = mg.compactions();
    out.apply_us_per_op = ratio(apply_s * 1e6, ops as f64);
    out.compact_ms = if compact_s.is_empty() {
        0.0
    } else {
        median(&compact_s) * 1e3
    };
    out
}

/// Keep in `best` the smaller of each pair: position by position, the best
/// time over the trials so far.
fn keep_best(best: &mut Vec<f64>, trial: &[f64]) {
    if best.is_empty() {
        best.extend_from_slice(trial);
    }
    for (b, &t) in best.iter_mut().zip(trial) {
        *b = b.min(t);
    }
}

/// While one of these lives, this thread and every thread started from it
/// stay on the processor it was running on. A served request is a chain of
/// hand-overs between sleeping threads, and on a shared host a wake-up that
/// has to reach another virtual processor takes as long as the host's
/// scheduler likes (see README, "Protocol").
struct OneCpu {
    /// The affinity mask to put back, 1024 processors wide.
    before: [u64; 16],
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

impl OneCpu {
    /// `None` where the system refuses.
    fn pin() -> Option<OneCpu> {
        let mut before = [0u64; 16];
        let mut one = [0u64; 16];
        // SAFETY: plain glibc calls on this thread (pid 0); each mask
        // outlives its call and its size is passed with it.
        unsafe {
            let cpu = usize::try_from(sched_getcpu()).ok()?;
            *one.get_mut(cpu / 64)? = 1 << (cpu % 64);
            let size = std::mem::size_of_val(&before);
            (sched_getaffinity(0, size, before.as_mut_ptr()) == 0
                && sched_setaffinity(0, size, one.as_ptr()) == 0)
                .then_some(OneCpu { before })
        }
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        // SAFETY: as in `pin`.
        unsafe {
            sched_setaffinity(0, std::mem::size_of_val(&self.before), self.before.as_ptr());
        }
    }
}

/// Add what a service's counters gained between two snapshots to `total`
/// (the counters the report uses).
fn accumulate(total: &mut ServeStats, before: &ServeStats, after: &ServeStats) {
    total.completed += after.completed - before.completed;
    total.failed += after.failed - before.failed;
    total.rejected_queue_full += after.rejected_queue_full - before.rejected_queue_full;
    total.rejected_memory += after.rejected_memory - before.rejected_memory;
    total.batches += after.batches - before.batches;
    total.batched_requests += after.batched_requests - before.batched_requests;
    total.max_batch_lanes = total.max_batch_lanes.max(after.max_batch_lanes);
    total.ingests += after.ingests - before.ingests;
    total.compactions += after.compactions - before.compactions;
    total.incremental_answers += after.incremental_answers - before.incremental_answers;
    total.cache_hits += after.cache_hits - before.cache_hits;
}

/// Run one serving workload.
pub fn run(spec: &ServeSpec, opts: &Opts) -> Outcome {
    let origin = Instant::now();
    let mut rec = Recorder::new(opts.traced, origin, 1 << 16);
    let mut m = Metrics::default();
    let scale = if opts.quick { 10 } else { SCALE };
    let cycles = if opts.quick {
        (spec.cycles / 8).max(1)
    } else {
        spec.cycles
    };
    // Before anything starts a thread; put back when `run` returns, by
    // which time every service has been stopped.
    let one_cpu = OneCpu::pin();
    if one_cpu.is_none() {
        eprintln!("note: cannot pin to one processor, running unpinned");
    }

    // Set-up: generator + `Graph::from_edges` + `GraphService::new`.
    let (mut gen_s, mut build_s, mut start_s, mut stop_s) = (vec![], vec![], vec![], vec![]);
    let mut graph = None;
    let setup = Instant::now();
    while opts.more_setup(gen_s.len(), setup.elapsed().as_secs_f64()) {
        let round = gen_s.len() as u64;
        let root = rec.start("setup", "bench", Recorder::root(), round);
        let t = Instant::now();
        let el = rec.call("generate", "graph", root, round, || {
            inputs::rmat(inputs::RMAT24_SEED, scale, EDGE_FACTOR, 0)
        });
        gen_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let g = rec.call("Graph::from_edges", "graph", root, round, || {
            Graph::from_edges(&el)
        });
        build_s.push(t.elapsed().as_secs_f64());
        // The service takes the graph by value; the copy kept for the
        // oracle is not part of what a user pays.
        let keep = g.clone();
        let t = Instant::now();
        let svc = rec
            .call("GraphService::new", "serve", root, round, || {
                GraphService::new(g, config())
            })
            .expect("valid serve config");
        start_s.push(t.elapsed().as_secs_f64());
        rec.end(root);
        let t = Instant::now();
        rec.call(
            "GraphService::stop",
            "serve",
            Recorder::root(),
            round,
            || svc.stop(),
        );
        stop_s.push(t.elapsed().as_secs_f64());
        graph = Some(keep);
    }
    let graph = graph.expect("at least one set-up round");
    let setup_s: Vec<f64> = (0..gen_s.len())
        .map(|i| gen_s[i] + build_s[i] + start_s[i])
        .collect();

    // Inputs and oracles, outside set-up and outside every trial.
    let pool = inputs::source_pool(&graph, spec.pool);
    let queries = inputs::query_cycles(&pool, spec.mix, cycles, opts.seed);
    let batches = match spec.ingest_ops {
        Some(ops) => inputs::ingest_batches(&graph, cycles, ops),
        None => Vec::new(),
    };
    let windows = windows(queries, spec.window, &batches);
    let is_ingest: Vec<bool> = windows
        .iter()
        .flatten()
        .map(|k| matches!(k, RequestKind::Ingest { .. }))
        .collect();
    let per_segment = is_ingest.len() as u64;
    let oracle = spec.ingest_ops.is_none().then(|| {
        rec.call("oracle", "algos", Recorder::root(), 0, || {
            Oracle::build(&graph, &pool)
        })
    });
    let replayed = spec
        .ingest_ops
        .is_some()
        .then(|| replay(&graph, &windows, &mut rec));
    let check = match (&oracle, &replayed) {
        (Some(oracle), _) => Check::Static(oracle),
        (None, Some(replayed)) => Check::Replayed(&replayed.wants),
        (None, None) => unreachable!("one of the two was built"),
    };

    // A fresh service per trial when the trial mutates the graph; one
    // resident service otherwise.
    let start = || GraphService::new(graph.clone(), config()).expect("valid serve config");
    let resident = spec.ingest_ops.is_none().then(start);
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Warm-up, discarded: the first half of a segment.
    {
        let half = &windows[..windows.len() / 2];
        let fresh = resident.is_none().then(start);
        let svc = fresh
            .as_ref()
            .or(resident.as_ref())
            .expect("one of the two");
        rec.set_on(false);
        let seg = run_segment(svc, half, &check, &mut rec, 0);
        attempted += half.iter().map(|w| w.len() as u64).sum::<u64>();
        failed += seg.failed;
        if let Some(svc) = fresh {
            svc.stop();
        }
    }

    let mut wall_s = Vec::with_capacity(256);
    let mut traced_flags = Vec::with_capacity(256);
    let (mut best_window_s, mut best_latency_ms) = (Vec::new(), Vec::new());
    let (mut submit_us, mut wait_ms) = (vec![], vec![]);
    let mut stats = ServeStats::default();
    let measure = Instant::now();
    while opts.more_trials(
        wall_s.len(),
        measure.elapsed().as_secs_f64(),
        wall_s.last().copied().unwrap_or(0.0),
    ) {
        let trial = wall_s.len() as u64;
        let traced = opts.traced && trial.is_multiple_of(2);
        rec.set_on(opts.traced);
        let fresh = resident
            .is_none()
            .then(|| rec.call("GraphService::new", "serve", Recorder::root(), trial, start));
        let svc = fresh
            .as_ref()
            .or(resident.as_ref())
            .expect("one of the two");
        let before = svc.stats();
        rec.set_on(traced);
        let seg = run_segment(svc, &windows, &check, &mut rec, trial);
        rec.set_on(opts.traced);
        accumulate(&mut stats, &before, &svc.stats());
        attempted += per_segment;
        failed += seg.failed;
        if let Some(svc) = fresh {
            let t = Instant::now();
            rec.call(
                "GraphService::stop",
                "serve",
                Recorder::root(),
                trial,
                || svc.stop(),
            );
            stop_s.push(t.elapsed().as_secs_f64());
        }

        keep_best(&mut best_window_s, &seg.window_s);
        keep_best(&mut best_latency_ms, &seg.latency_ms);
        if traced {
            submit_us.push(median(&seg.submit_us));
            // Mean, not median: most waits of a window return at once,
            // the first one having outlasted them.
            wait_ms.push(seg.wait_ms.iter().sum::<f64>() / seg.wait_ms.len() as f64);
        }
        wall_s.push(seg.window_s.iter().sum());
        traced_flags.push(traced);
    }

    // What a mutated-mode PageRank costs on its own, on a service of its
    // own: each run an ingest after the last, so the second is a warm
    // residual run rather than a cache hit.
    let mut pr_mutated_ms = 0.0;
    if opts.traced && spec.ingest_ops.is_some() {
        let svc = start();
        let mut ms = Vec::new();
        for batch in batches.iter().take(2) {
            let ingested = svc
                .submit(RequestKind::Ingest {
                    batch: batch.clone(),
                })
                .and_then(|t| t.wait());
            let t = Instant::now();
            let ranked = svc
                .submit(RequestKind::PageRank {
                    iters: SERVE_PR_ITERS,
                })
                .and_then(|t| t.wait());
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            attempted += 2;
            failed += u64::from(ingested.is_err()) + u64::from(ranked.is_err());
        }
        pr_mutated_ms = median(&ms);
        svc.stop();
    }
    if let Some(svc) = &resident {
        let t = Instant::now();
        rec.call("GraphService::stop", "serve", Recorder::root(), 0, || {
            svc.stop()
        });
        stop_s.push(t.elapsed().as_secs_f64());
    }

    // Best of N (see `harness::best`), per window and per request: the
    // segment is the same list every trial, so each position keeps its own
    // fastest repetition, as each operation of a batch workload does.
    let host_s: f64 = best_window_s.iter().sum();
    let pick_latency = |ingest: bool| -> Vec<f64> {
        let picked = best_latency_ms.iter().zip(&is_ingest);
        sorted(
            &picked
                .filter(|(_, &i)| i == ingest)
                .map(|(&ms, _)| ms)
                .collect::<Vec<_>>(),
        )
    };
    let query_ms = pick_latency(false);
    let ingest_ms = pick_latency(true);
    // What the client waits for is a window. Its time is the sum of what its
    // requests cost, whatever their order; a request's own latency also
    // depends on how many dearer ones the draw put ahead of it.
    let query_window_ms: Vec<f64> = best_window_s
        .iter()
        .zip(&windows)
        .filter(|(_, w)| !matches!(w[0], RequestKind::Ingest { .. }))
        .map(|(&s, _)| s * 1e3)
        .collect();

    eprintln!("trials_s {wall_s:.3?}");
    if !opts.traced {
        m.push("setup_s", median(&setup_s), "s");
        m.push("host_s", host_s, "s");
        m.push(
            "tail10_ms",
            slowest_tenth_mean(&sorted(&query_window_ms)),
            "ms",
        );
    } else {
        let pick = |traced: bool| -> Vec<f64> {
            wall_s
                .iter()
                .zip(&traced_flags)
                .filter(|(_, &t)| t == traced)
                .map(|(&s, _)| s)
                .collect()
        };
        let traced_trials = pick(true);
        let untraced = pick(false);
        let share = |num: u64, den: u64| ratio(num as f64, den as f64);
        let queries = stats.completed - stats.ingests;
        m.push("graph.gen_s", median(&gen_s), "s");
        m.push("graph.build_s", median(&build_s), "s");
        m.push(
            "graph.build_medges_per_s",
            graph.num_edges() as f64 / 1e6 / median(&build_s),
            "1/s",
        );
        if let Some(r) = &replayed {
            m.push("graph.apply_us_per_op", r.apply_us_per_op, "us");
            m.push("graph.compact_ms", r.compact_ms, "ms");
            m.push("graph.compactions", r.compactions as f64, "count");
            m.push(
                "graph.overlay_entries_peak",
                r.overlay_entries_peak as f64,
                "count",
            );
        }
        m.push("serve.start_ms", median(&start_s) * 1e3, "ms");
        m.push("serve.stop_ms", median(&stop_s) * 1e3, "ms");
        m.push("serve.submit_us", median(&submit_us), "us");
        m.push("serve.wait_ms", median(&wait_ms), "ms");
        m.push("serve.req_per_s", per_segment as f64 / host_s, "1/s");
        m.push("serve.batches", stats.batches as f64, "count");
        m.push(
            "serve.batched_share",
            share(stats.batched_requests, queries),
            "ratio",
        );
        m.push(
            "serve.mean_lanes",
            share(stats.batched_requests, stats.batches),
            "count",
        );
        m.push("serve.max_lanes", stats.max_batch_lanes as f64, "count");
        m.push(
            "serve.cache_hit_share",
            share(stats.cache_hits, queries),
            "ratio",
        );
        m.push(
            "serve.incremental_answers",
            stats.incremental_answers as f64,
            "count",
        );
        m.push("serve.compactions", stats.compactions as f64, "count");
        m.push(
            "serve.rejected",
            (stats.rejected_queue_full + stats.rejected_memory) as f64,
            "count",
        );
        m.push("serve.failed", stats.failed as f64, "count");
        m.push("serve.query_p50_ms", quantile_sorted(&query_ms, 0.50), "ms");
        m.push("serve.p95_ms", quantile_sorted(&query_ms, 0.95), "ms");
        m.push("serve.p99_ms", quantile_sorted(&query_ms, 0.99), "ms");
        if !ingest_ms.is_empty() {
            m.push(
                "serve.ingest_p50_ms",
                quantile_sorted(&ingest_ms, 0.50),
                "ms",
            );
            m.push(
                "serve.ingest_p95_ms",
                quantile_sorted(&ingest_ms, 0.95),
                "ms",
            );
        }
        m.push("serve.pr_mutated_ms", pr_mutated_ms, "ms");
        m.push("bench.ops", per_segment as f64, "count");
        m.push("bench.trials", wall_s.len() as f64, "count");
        m.push("bench.trial_spread", spread(&wall_s), "ratio");
        m.push(
            "bench.trace_overhead_ratio",
            if untraced.is_empty() {
                1.0
            } else {
                best(&traced_trials) / best(&untraced)
            },
            "ratio",
        );
    }

    Outcome {
        attempted,
        failed,
        metrics: m,
        rec,
    }
}
