//! End-to-end contracts of the observability layer: tracing must be a pure
//! observer (bit-identical simulated clocks traced vs. untraced), the
//! Chrome-trace export must be well-formed JSON whose per-socket
//! `barrier-wait` lanes sum to the reported barrier cost, and an abnormal
//! end of run (poisoned barrier) must still flush a valid, truncated trace.

use polymer::api::{Engine, RealThreadsConfig};
use polymer::graph::gen;
use polymer::numa::{chrome_trace_json, phase_table, SharedTracer, SimExecutor};
use polymer::prelude::*;

fn workload() -> (Graph, u32) {
    let el = gen::rmat(10, 8_000, gen::RMAT_GRAPH500, 7);
    let g = Graph::from_edges(&el);
    let src = (0..g.num_vertices() as u32)
        .max_by_key(|&v| g.out_degree(v))
        .unwrap();
    (g, src)
}

fn run_both<E: Engine, P: Program>(
    engine: &E,
    prog: &P,
    g: &Graph,
) -> (
    polymer::api::RunResult<P::Val>,
    polymer::api::RunResult<P::Val>,
)
where
    P::Val: Clone + PartialEq + std::fmt::Debug,
{
    let machine = Machine::new(MachineSpec::intel80());
    let plain = engine.run(&machine, 16, g, prog);
    let machine = Machine::new(MachineSpec::intel80());
    let traced = engine.run_traced(&machine, 16, g, prog);
    (plain, traced)
}

fn assert_observer<E: Engine>(name: &str, engine: &E, g: &Graph, src: u32, want: &[u32]) {
    let (plain, traced) = run_both(engine, &Bfs::new(src), g);
    assert_eq!(
        plain.micros().to_bits(),
        traced.micros().to_bits(),
        "{name}: tracing changed the simulated clock ({} vs {})",
        plain.micros(),
        traced.micros()
    );
    assert_eq!(traced.values, want, "{name}: tracing changed the values");
    assert_eq!(plain.values, want, "{name}: untraced values diverged");
    let spans = traced.trace().map_or(0, |t| t.phases.len());
    assert!(spans > 0, "{name}: traced run recorded no phase spans");
}

/// Tracing is an observer: enabling it must not perturb the simulated clock
/// (bit-for-bit) or the computed values, on any engine.
#[test]
fn traced_runs_are_bit_identical_to_untraced() {
    let (g, src) = workload();
    let (want, _) = run_reference(&g, &Bfs::new(src));
    assert_observer("polymer", &PolymerEngine::new(), &g, src, &want);
    assert_observer("ligra", &LigraEngine::new(), &g, src, &want);
    assert_observer("xstream", &XStreamEngine::new(), &g, src, &want);
    assert_observer("galois", &GaloisEngine::new(), &g, src, &want);
}

/// Untraced runs carry no buffer at all.
#[test]
fn untraced_runs_have_no_trace() {
    let (g, src) = workload();
    let machine = Machine::new(MachineSpec::intel80());
    let r = PolymerEngine::new().run(&machine, 8, &g, &Bfs::new(src));
    assert!(r.trace().is_none());
}

/// The Chrome-trace export parses back as JSON, and within it every socket
/// lane's `barrier-wait` spans sum to the run's reported barrier cost (each
/// socket waits out the full synchronization, so the lanes agree).
#[test]
fn chrome_export_parses_and_barrier_waits_sum_to_barrier_cost() {
    let (g, _) = workload();
    let machine = Machine::new(MachineSpec::intel80());
    let prog = PageRank::new(g.num_vertices());
    let r = PolymerEngine::new().run_traced(&machine, 80, &g, &prog);
    let buf = r.trace().expect("traced run has a buffer");
    assert!(!buf.truncated);

    let json = chrome_trace_json(buf);
    let doc: serde_json::Value = serde_json::from_str(&json).expect("export is valid JSON");
    let obj = doc.as_object().expect("envelope is an object");
    assert_eq!(
        obj.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms")
    );
    let events = obj
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Sum the barrier-wait spans per socket lane (pid 2).
    let mut lane_us: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    for ev in events {
        let ev = ev.as_object().expect("event is an object");
        if ev.get("name").and_then(|v| v.as_str()) == Some("barrier-wait")
            && ev.get("pid").and_then(|v| v.as_u64()) == Some(2)
        {
            let tid = ev.get("tid").and_then(|v| v.as_u64()).unwrap();
            let dur = ev.get("dur").and_then(|v| v.as_f64()).unwrap();
            *lane_us.entry(tid).or_insert(0.0) += dur;
        }
    }
    assert_eq!(lane_us.len(), r.sockets, "one lane per spanned socket");
    let want = r.clock.barrier_us;
    assert!(want > 0.0);
    for (lane, us) in &lane_us {
        let rel = (us - want).abs() / want;
        assert!(
            rel < 1e-9,
            "socket lane {lane} waits {us}µs, run reports {want}µs barrier cost"
        );
    }

    // The in-memory sink agrees with the export.
    for us in buf.barrier_wait_per_socket() {
        assert!((us - want).abs() / want < 1e-12);
    }

    // The text sink renders every recorded phase plus the barrier row.
    let table = phase_table(buf);
    for row in buf.phase_rows() {
        assert!(table.contains(row.name), "table missing {}", row.name);
    }
}

/// A four-thread, two-group real-thread BFS under X-Stream's push-only
/// profile, recording worker spans into `tracer`.
fn traced_real_bfs(
    g: &Graph,
    src: u32,
    plan: FaultPlan,
    tracer: &SharedTracer,
) -> PolymerResult<polymer::api::RunResult<u32>> {
    let opts = RunOptions {
        backend: Backend::RealThreads(RealThreadsConfig { groups: 2, plan }),
        tracer: Some(tracer),
        ..RunOptions::default()
    };
    let machine = Machine::new(MachineSpec::test2());
    XStreamEngine::new().try_run_with(&machine, 4, g, &Bfs::new(src), &opts)
}

/// A worker panicking mid-run poisons the barrier for its siblings; the
/// run must still flush a *valid* Chrome trace, flagged truncated.
#[test]
fn poisoned_barrier_still_flushes_truncated_trace() {
    let (g, src) = workload();
    let plan = FaultPlan::new().panic_worker_at(1, 1);
    let tracer = SharedTracer::new(1, 4);
    let err = traced_real_bfs(&g, src, plan, &tracer)
        .map(|r| r.iterations)
        .expect_err("injected panic must surface");
    assert!(
        matches!(err, PolymerError::WorkerPanicked { .. }),
        "{err:?}"
    );

    let buf = tracer.into_buffer();
    assert!(buf.truncated, "abnormal end must mark the trace truncated");
    let json = chrome_trace_json(&buf);
    let doc: serde_json::Value =
        serde_json::from_str(&json).expect("truncated export is still valid JSON");
    assert_eq!(
        doc.as_object()
            .and_then(|o| o.get("truncated"))
            .and_then(|v| v.as_bool()),
        Some(true)
    );
}

/// Healthy real-thread runs record per-worker iteration and barrier-wait
/// spans into the shared tracer, and per iteration one edge-phase span
/// named after the path it took plus one `apply` span for the owner phase.
#[test]
fn parallel_runs_record_worker_spans() {
    let (g, src) = workload();
    let tracer = SharedTracer::new(1, 4);
    let values = traced_real_bfs(&g, src, FaultPlan::new(), &tracer)
        .expect("healthy run")
        .values;
    let (want, _) = run_reference(&g, &Bfs::new(src));
    assert_eq!(values, want);

    let buf = tracer.into_buffer();
    assert!(!buf.truncated);
    let iters: Vec<_> = buf
        .worker_spans
        .iter()
        .filter(|s| s.name == "iteration")
        .collect();
    let waits: Vec<_> = buf
        .worker_spans
        .iter()
        .filter(|s| s.name == "barrier-wait")
        .collect();
    assert!(!iters.is_empty(), "no iteration spans recorded");
    assert!(!waits.is_empty(), "no barrier-wait spans recorded");
    // Spans cover all four workers.
    let workers: std::collections::BTreeSet<_> =
        buf.worker_spans.iter().map(|s| s.worker).collect();
    assert_eq!(workers.len(), 4);
    // BFS from one source starts binned and goes dense once the frontier's
    // out-edges outweigh the partials; it never gathers.
    let count = |buf: &polymer::numa::TraceBuffer, name: &str| {
        buf.worker_spans.iter().filter(|s| s.name == name).count()
    };
    assert!(count(&buf, "push-bins") > 0, "no push-bins span");
    assert!(count(&buf, "push-dense") > 0, "no push-dense span");
    assert_eq!(count(&buf, "gather"), 0);
    assert_eq!(
        count(&buf, "push-bins") + count(&buf, "push-dense"),
        iters.len(),
        "one edge-phase span per worker and iteration"
    );
    assert_eq!(count(&buf, "apply"), iters.len());
    // And the export of a wall-clock trace is well-formed too.
    let doc: serde_json::Value =
        serde_json::from_str(&chrome_trace_json(&buf)).expect("valid JSON");
    assert!(doc.as_object().unwrap().get("traceEvents").is_some());

    // Polymer pushes an all-active PageRank densely on every iteration: no
    // engine gathers on real threads.
    let tracer = SharedTracer::new(1, 2);
    let opts = RunOptions {
        backend: Backend::real_threads(),
        tracer: Some(&tracer),
        ..RunOptions::default()
    };
    let machine = Machine::new(MachineSpec::test2());
    let pr = PolymerEngine::new()
        .try_run_with(&machine, 2, &g, &PageRank::new(g.num_vertices()), &opts)
        .expect("healthy run");
    let buf = tracer.into_buffer();
    assert_eq!(count(&buf, "push-dense"), 2 * pr.iterations);
    assert_eq!(count(&buf, "gather"), 0);
    assert_eq!(count(&buf, "apply"), 2 * pr.iterations);
}

/// Executor level: a disabled tracer records nothing and — more
/// importantly — changes no counters: the clock totals of a traced and an
/// untraced run of the same workload are identical.
#[test]
fn tracer_off_adds_zero_counters() {
    let machine = Machine::new(MachineSpec::intel80());
    let data = machine.alloc_atomic::<u64>("t/data", 4096, AllocPolicy::Interleaved);
    let work = |sim: &mut SimExecutor| {
        let c = sim.run_phase("work", |tid, ctx| {
            if tid == 0 {
                for v in data.iter_seq(ctx, 0..4096) {
                    std::hint::black_box(v);
                }
                for i in (0..4096).step_by(67) {
                    data.fetch_add(ctx, i, 1);
                }
            }
        });
        sim.charge_barrier();
        c
    };
    let mut untraced = SimExecutor::new(&machine, 4);
    let cost_off = work(&mut untraced);
    assert!(!untraced.clock().trace.is_enabled());
    assert!(untraced.clock().trace.buffer().is_none());
    let mut traced = SimExecutor::new(&machine, 4);
    traced.enable_trace();
    let cost_on = work(&mut traced);
    assert_eq!(format!("{cost_off:?}"), format!("{cost_on:?}"));
    assert_eq!(
        untraced.clock().elapsed_us(),
        traced.clock().elapsed_us(),
        "tracing must not perturb the simulated clock"
    );
    let buf = traced.clock().trace.buffer().expect("trace recorded");
    assert_eq!(buf.phases.len(), 1);
}
