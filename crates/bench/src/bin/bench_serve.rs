//! Serving benchmark: the resident-graph [`GraphService`] under load, as a
//! committed artifact.
//!
//! Two phases over one service instance (graph loaded once, CSR resident):
//!
//! 1. **unloaded** — a closed loop submits mixed requests one at a time
//!    under a generous deadline; with no queueing, p99 latency must stay
//!    within that deadline.
//! 2. **open-loop** — a submitter issues mixed requests on a fixed
//!    arrival schedule regardless of completions (an open-loop arrival
//!    process); the queue fills, admission control sheds load with typed
//!    rejections, and same-algorithm neighbors coalesce into multi-source
//!    sweeps. Reports sustained req/s and p50/p99 latency.
//!
//! Writes `results/BENCH_serve.json` and exits non-zero when an invariant
//! is violated: every admitted request must resolve (no admission
//! deadlock), rejections must be typed (`queue-full` /
//! `memory-budget-exceeded`), answers must match the sequential oracle,
//! and the unloaded p99 must honor the deadline. The CI `serve-smoke` job
//! runs this at a reduced scale.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use polymer_algos::{run_reference, Bfs, Sssp};
use polymer_api::Backend;
use polymer_bench::{write_json_with_meta, Args, BenchMeta, Table};
use polymer_graph::{gen, Graph};
use polymer_serve::{GraphService, PolymerError, RequestKind, ServeConfig, ServeResponse, Ticket};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Dispatcher threads of the service under test.
const WORKERS: usize = 3;
/// Execution threads per dispatched run.
const THREADS_PER_REQUEST: usize = 2;
/// Admission bound of the request queue.
const QUEUE_CAPACITY: usize = 32;
/// Generous per-request deadline of the unloaded phase.
const UNLOADED_DEADLINE: Duration = Duration::from_secs(30);
/// Sources are drawn from this small pool so every completed answer can be
/// checked against a precomputed oracle.
const SOURCE_POOL: usize = 8;

#[derive(Serialize)]
struct PhaseReport {
    phase: String,
    issued: u64,
    completed: u64,
    rejected_queue_full: u64,
    rejected_memory: u64,
    failed: u64,
    wall_sec: f64,
    req_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    max_ms: f64,
    deadline_ms: Option<f64>,
    deadline_missed: u64,
    batches: u64,
    batched_requests: u64,
    max_batch_lanes: u64,
}

#[derive(Serialize)]
struct ServeReport {
    graph: String,
    vertices: usize,
    edges: usize,
    workers: usize,
    threads_per_request: usize,
    queue_capacity: usize,
    phases: Vec<PhaseReport>,
    violations: Vec<String>,
}

/// Deterministic mixed workload: mostly BFS (the coalescing case), some
/// SSSP, an occasional whole-graph PageRank.
fn pick_request(rng: &mut StdRng, n: usize) -> RequestKind {
    let source = rng.gen_range(0..SOURCE_POOL.min(n)) as u32;
    match rng.gen_range(0..10u32) {
        0..=5 => RequestKind::Bfs { source },
        6..=8 => RequestKind::Sssp { source, delta: 100 },
        _ => RequestKind::PageRank { iters: 3 },
    }
}

/// Precomputed per-source oracles for answer checking.
struct Oracles {
    bfs: HashMap<u32, Vec<u32>>,
    sssp: HashMap<u32, Vec<u64>>,
}

impl Oracles {
    fn compute(g: &Graph) -> Oracles {
        let pool = SOURCE_POOL.min(g.num_vertices()) as u32;
        Oracles {
            bfs: (0..pool)
                .map(|s| (s, run_reference(g, &Bfs::new(s)).0))
                .collect(),
            sssp: (0..pool)
                .map(|s| (s, run_reference(g, &Sssp::new(s)).0))
                .collect(),
        }
    }

    /// Check a completed response against its oracle (PageRank responses
    /// only get a finiteness check; float summation order varies by path).
    fn check(&self, kind: &RequestKind, r: &ServeResponse) -> Result<(), String> {
        match kind {
            RequestKind::Bfs { source } => {
                let want = &self.bfs[source];
                if r.values.levels() != Some(&want[..]) {
                    return Err(format!(
                        "BFS answer for source {source} diverged from oracle"
                    ));
                }
            }
            RequestKind::Sssp { source, .. } => {
                let want = &self.sssp[source];
                if r.values.distances() != Some(&want[..]) {
                    return Err(format!(
                        "SSSP answer for source {source} diverged from oracle"
                    ));
                }
            }
            RequestKind::PageRank { .. } => {
                let ranks = r.values.ranks().unwrap_or(&[]);
                if ranks.is_empty() || ranks.iter().any(|x| !x.is_finite()) {
                    return Err("PageRank answer empty or non-finite".to_string());
                }
            }
            // This benchmark's workload never mutates the graph (the
            // incremental suite and `bench_incremental` cover that).
            RequestKind::Ingest { .. } => {
                return Err("unexpected ingest in the serving workload".to_string());
            }
        }
        Ok(())
    }
}

/// Latency percentile over a sorted sample (nearest-rank).
fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx]
}

/// Aggregate one phase's harvested outcomes into a report row.
#[allow(clippy::too_many_arguments)]
fn phase_report(
    phase: &str,
    issued: u64,
    rejected_queue_full: u64,
    rejected_memory: u64,
    outcomes: &[(RequestKind, Result<ServeResponse, PolymerError>)],
    wall: Duration,
    deadline: Option<Duration>,
    stats_delta: (u64, u64, u64, u64),
    oracles: &Oracles,
    violations: &mut Vec<String>,
) -> PhaseReport {
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut deadline_missed = 0u64;
    for (kind, outcome) in outcomes {
        match outcome {
            Ok(r) => {
                completed += 1;
                latencies_ms.push(r.latency.as_secs_f64() * 1e3);
                if r.deadline_missed {
                    deadline_missed += 1;
                }
                if let Err(v) = oracles.check(kind, r) {
                    violations.push(format!("{phase}: {v}"));
                }
            }
            Err(e) => {
                failed += 1;
                if !matches!(
                    e,
                    PolymerError::DeadlineExceeded { .. } | PolymerError::ServiceStopped
                ) {
                    violations.push(format!("{phase}: unexpected failure [{}] {e}", e.code()));
                }
            }
        }
    }
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let (batches, batched_requests, max_batch_lanes, _) = stats_delta;
    let wall_sec = wall.as_secs_f64().max(1e-9);
    PhaseReport {
        phase: phase.to_string(),
        issued,
        completed,
        rejected_queue_full,
        rejected_memory,
        failed,
        wall_sec,
        req_per_sec: completed as f64 / wall_sec,
        p50_ms: percentile(&latencies_ms, 0.50),
        p99_ms: percentile(&latencies_ms, 0.99),
        max_ms: latencies_ms.last().copied().unwrap_or(0.0),
        deadline_ms: deadline.map(|d| d.as_secs_f64() * 1e3),
        deadline_missed,
        batches,
        batched_requests,
        max_batch_lanes,
    }
}

fn main() {
    let args = Args::parse(0, "bench_serve");
    // 2^(9+scale) vertices: the subject is the serving machinery, not graph
    // throughput, so the graph stays small even at default scale.
    let vshift = (9 + args.scale).clamp(6, 18) as u32;
    let g = Graph::from_edges(&gen::rmat(
        vshift,
        (1usize << vshift) * 8,
        gen::RMAT_GRAPH500,
        23,
    ));
    let graph_name = format!("rmat-{vshift}");
    let (vertices, edges) = (g.num_vertices(), g.num_edges());
    let oracles = Oracles::compute(&g);

    let svc = GraphService::new(
        g,
        ServeConfig {
            queue_capacity: QUEUE_CAPACITY,
            workers: WORKERS,
            threads_per_request: THREADS_PER_REQUEST,
            backend: Backend::real_threads(),
            ..ServeConfig::default()
        },
    )
    .expect("service construction");

    println!(
        "Serving benchmark: {graph_name} ({vertices} vertices, {edges} edges), \
         {WORKERS} workers x {THREADS_PER_REQUEST} threads, queue {QUEUE_CAPACITY}\n"
    );
    let mut violations: Vec<String> = Vec::new();
    let mut phases: Vec<PhaseReport> = Vec::new();
    let mut rng = StdRng::seed_from_u64(41);

    // Phase 1: unloaded closed loop — every request has the service to
    // itself, so its p99 bounds the service's intrinsic latency.
    let unloaded_n = (8 << args.scale.clamp(0, 4)) as usize;
    let t0 = Instant::now();
    let mut outcomes: Vec<(RequestKind, Result<ServeResponse, PolymerError>)> = Vec::new();
    for _ in 0..unloaded_n {
        let kind = pick_request(&mut rng, vertices);
        let outcome = svc
            .submit_with_deadline(kind.clone(), Some(UNLOADED_DEADLINE))
            .and_then(Ticket::wait);
        outcomes.push((kind, outcome));
    }
    let unloaded_wall = t0.elapsed();
    let stats_after_unloaded = svc.stats();
    let report = phase_report(
        "unloaded",
        unloaded_n as u64,
        0,
        0,
        &outcomes,
        unloaded_wall,
        Some(UNLOADED_DEADLINE),
        (0, 0, 0, 0),
        &oracles,
        &mut violations,
    );
    if report.completed != unloaded_n as u64 {
        violations.push(format!(
            "unloaded: {}/{unloaded_n} requests completed",
            report.completed
        ));
    }
    if report.p99_ms > UNLOADED_DEADLINE.as_secs_f64() * 1e3 {
        violations.push(format!(
            "unloaded: p99 {:.1}ms exceeds the {:?} deadline",
            report.p99_ms, UNLOADED_DEADLINE
        ));
    }
    phases.push(report);

    // Phase 2: open-loop arrivals — submissions follow the schedule no
    // matter how the service keeps up; overload surfaces as typed
    // rejections, never as a deadlock.
    let open_n = (128 << args.scale.clamp(0, 4)) as usize;
    let gap = Duration::from_micros(60);
    let mut rejected_queue_full = 0u64;
    let mut rejected_memory = 0u64;
    let mut tickets: Vec<(RequestKind, Ticket)> = Vec::new();
    let t0 = Instant::now();
    for i in 0..open_n {
        let due = gap * i as u32;
        if let Some(sleep) = due.checked_sub(t0.elapsed()) {
            std::thread::sleep(sleep);
        }
        let kind = pick_request(&mut rng, vertices);
        match svc.submit(kind.clone()) {
            Ok(t) => tickets.push((kind, t)),
            Err(PolymerError::QueueFull { .. }) => rejected_queue_full += 1,
            Err(PolymerError::MemoryBudgetExceeded { .. }) => rejected_memory += 1,
            Err(e) => violations.push(format!("open-loop: unexpected rejection [{}]", e.code())),
        }
    }
    let admitted = tickets.len() as u64;
    let outcomes: Vec<(RequestKind, Result<ServeResponse, PolymerError>)> = tickets
        .into_iter()
        .map(|(kind, t)| (kind, t.wait()))
        .collect();
    let open_wall = t0.elapsed();
    let stats_final = svc.stats();
    let report = phase_report(
        "open-loop",
        open_n as u64,
        rejected_queue_full,
        rejected_memory,
        &outcomes,
        open_wall,
        None,
        (
            stats_final.batches - stats_after_unloaded.batches,
            stats_final.batched_requests - stats_after_unloaded.batched_requests,
            stats_final.max_batch_lanes,
            0,
        ),
        &oracles,
        &mut violations,
    );
    // No admission deadlock: every admitted ticket resolved (the harvest
    // loop above returned), and the ledger balances.
    if report.completed + report.failed != admitted {
        violations.push(format!(
            "open-loop: {} completed + {} failed != {admitted} admitted",
            report.completed, report.failed
        ));
    }
    if admitted + rejected_queue_full + rejected_memory != open_n as u64 {
        violations.push("open-loop: admission ledger does not balance".to_string());
    }
    phases.push(report);
    svc.stop();

    let mut table = Table::new(&[
        "Phase", "Issued", "Done", "Rej", "Req/s", "p50(ms)", "p99(ms)", "Batches", "MaxLanes",
    ]);
    for p in &phases {
        table.row(vec![
            p.phase.clone(),
            p.issued.to_string(),
            p.completed.to_string(),
            (p.rejected_queue_full + p.rejected_memory).to_string(),
            format!("{:.1}", p.req_per_sec),
            format!("{:.2}", p.p50_ms),
            format!("{:.2}", p.p99_ms),
            p.batches.to_string(),
            p.max_batch_lanes.to_string(),
        ]);
    }
    table.print();

    let report = ServeReport {
        graph: graph_name,
        vertices,
        edges,
        workers: WORKERS,
        threads_per_request: THREADS_PER_REQUEST,
        queue_capacity: QUEUE_CAPACITY,
        phases,
        violations: violations.clone(),
    };
    write_json_with_meta(
        &args.out,
        "BENCH_serve",
        &BenchMeta::capture(args.scale, &ServeConfig::default().spec),
        &report,
    );

    if !violations.is_empty() {
        eprintln!("[serve] FAIL:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
    println!("\n[serve] all invariants held: no admission deadlock, typed rejections, oracle-exact answers");
}
