//! End-to-end fault-injection scenarios: the acceptance criteria of the
//! robustness milestone. Every failure here used to be a panic, a deadlock,
//! or an OOM; each must now surface as a typed [`PolymerError`] (or, for
//! capacity pressure under a spill policy, as a completed run with the
//! degradation recorded in the run stats).

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use polymer::api::{Combine, FrontierInit, RealThreadsConfig};
use polymer::graph::{gen, io, VId, Weight};
use polymer::prelude::*;
use polymer::sync::FrontierSnapshot;
use polymer_bench::{with_engine, SystemId};

/// (a) A worker panicking mid-iteration must poison the barrier, wake its
/// siblings, and come back as `Err(WorkerPanicked)` — not hang the run.
/// The executor runs on a helper thread under a watchdog so that a
/// regression to the old deadlock behaviour fails the test instead of
/// wedging the suite.
#[test]
fn injected_worker_panic_is_a_typed_error_not_a_deadlock() {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let el = gen::rmat(8, 1_000, gen::RMAT_GRAPH500, 7);
        let g = Graph::from_edges(&el);
        let prog = PageRank::new(g.num_vertices());
        let plan = FaultPlan::new()
            .panic_worker_at(1, 2)
            .barrier_timeout(Duration::from_secs(10));
        // X-Stream's profile is the executor's push-only one.
        let backend = Backend::RealThreads(RealThreadsConfig { groups: 2, plan });
        let m = Machine::new(MachineSpec::test2());
        let r = XStreamEngine::new().try_run_on(&backend, &m, 4, &g, &prog);
        let _ = tx.send(r.map(|r| r.iterations));
    });
    let out = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("executor deadlocked after an injected worker panic");
    match out {
        Err(PolymerError::WorkerPanicked { worker, detail }) => {
            assert_eq!(worker, 1);
            assert!(detail.contains("injected"), "unexpected detail: {detail}");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
}

/// (b) Clamping per-node memory capacity: under `SpillPolicy::NearestRemote`
/// the run completes with the same answer and the overflow recorded as
/// spilled pages; under `SpillPolicy::Fail` the same clamp is a typed error.
///
/// The X-Stream engine with two threads on the 8-socket machine binds every
/// partition to node 0 (both cores live on socket 0), so a clamp below the
/// footprint is guaranteed to hit that node while its neighbours stay empty.
#[test]
fn capacity_clamp_spills_or_fails_by_policy() {
    let el = gen::rmat(9, 4_000, gen::RMAT_GRAPH500, 11);
    let g = Graph::from_edges(&el);
    let prog = PageRank::new(g.num_vertices());

    // Baseline: unclamped, to learn the footprint and the right answer.
    let m0 = Machine::new(MachineSpec::intel80());
    let base = XStreamEngine::new()
        .try_run_on(&Backend::Simulated, &m0, 2, &g, &prog)
        .unwrap_or_else(|e| panic!("baseline run failed: {e}"));
    assert_eq!(base.memory.spilled_pages, 0);

    // Clamp every node to 3/4 of the whole-run peak: node 0 must overflow.
    let clamp = base.memory.peak_bytes * 3 / 4;
    let plan = FaultPlan::new().clamp_node_capacity(clamp);

    let m1 = Machine::with_faults(
        MachineSpec::intel80(),
        SpillPolicy::NearestRemote,
        plan.clone(),
    );
    let spilled = XStreamEngine::new()
        .try_run_on(&Backend::Simulated, &m1, 2, &g, &prog)
        .unwrap_or_else(|e| panic!("NearestRemote run failed: {e}"));
    assert!(
        spilled.memory.spilled_pages > 0,
        "clamp to {clamp} bytes should have forced spills (peak {})",
        base.memory.peak_bytes
    );
    assert_eq!(spilled.iterations, base.iterations);
    for (a, b) in base.values.iter().zip(spilled.values.iter()) {
        assert!((a - b).abs() < 1e-9, "spilled run changed the answer");
    }

    let m2 = Machine::with_faults(MachineSpec::intel80(), SpillPolicy::Fail, plan);
    let err = XStreamEngine::new()
        .try_run_on(&Backend::Simulated, &m2, 2, &g, &prog)
        .map(|r| r.iterations)
        .unwrap_err();
    match err {
        PolymerError::NodeCapacityExceeded { node, .. } => assert_eq!(node, 0),
        other => panic!("expected NodeCapacityExceeded, got {other:?}"),
    }
}

/// (c) Corrupt binary graphs come back as typed I/O errors without huge
/// preallocations: bad magic, a forged header claiming 2^60 edges, and a
/// file truncated mid-edge-list.
#[test]
fn corrupted_binary_graphs_yield_typed_errors() {
    // A valid file to corrupt.
    let el = gen::uniform(64, 256, 3);
    let mut good = Vec::new();
    io::write_binary(&el, &mut good).unwrap();
    assert!(io::read_binary(&good[..]).is_ok());

    // Bad magic.
    let mut bad = good.clone();
    bad[0] ^= 0xFF;
    let err = io::read_binary(&bad[..]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // Forged edge count: claims 2^60 edges. Must reject (or cap its
    // preallocation and fail on the short read) rather than OOM.
    let mut forged = good.clone();
    forged[16..24].copy_from_slice(&(1u64 << 60).to_le_bytes());
    assert!(io::read_binary(&forged[..]).is_err());
    // With the byte length known up front the inconsistency is caught
    // before a single edge is read.
    let err = io::read_binary_sized(&forged[..], forged.len() as u64).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // Truncated mid-edge-list.
    let cut = good.len() - 7;
    let err = io::read_binary(&good[..cut]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    let err = io::read_binary_sized(&good[..cut], cut as u64).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // The typed error converts into the workspace hierarchy.
    let e = PolymerError::from(io::read_binary(&bad[..]).unwrap_err());
    assert!(matches!(e, PolymerError::Io { .. }));
}

/// A program whose scatter emits NaN: every engine iteration contaminates
/// the value array, which the divergence check must catch.
struct Explode;

impl Program for Explode {
    type Val = f64;

    fn name(&self) -> &'static str {
        "EXPLODE"
    }
    fn combine(&self) -> Combine {
        Combine::Add
    }
    fn next_identity(&self) -> f64 {
        0.0
    }
    fn init(&self, _v: VId) -> f64 {
        1.0
    }
    fn scatter(&self, _src: VId, _val: f64, _w: Weight, _deg: u32) -> f64 {
        f64::NAN
    }
    fn apply(&self, _v: VId, acc: f64, _curr: f64) -> (f64, bool) {
        (acc, true)
    }
    fn initial_frontier(&self) -> FrontierInit {
        FrontierInit::All
    }
    fn max_iters(&self) -> usize {
        8
    }
}

/// (d) Numerical divergence is detected at the iteration boundary and
/// reported with the offending vertex instead of silently propagating NaN
/// through the remaining iterations.
#[test]
fn nan_values_are_reported_as_divergence() {
    let el = gen::rmat(7, 600, gen::RMAT_GRAPH500, 5);
    let g = Graph::from_edges(&el);
    let m = Machine::new(MachineSpec::test2());
    let err = PolymerEngine::new()
        .try_run_on(&Backend::Simulated, &m, 2, &g, &Explode)
        .map(|r| r.iterations)
        .unwrap_err();
    match err {
        PolymerError::Divergence { iteration, .. } => assert_eq!(iteration, 0),
        other => panic!("expected Divergence, got {other:?}"),
    }
}

/// (e) One typed front door on both backends: a deterministic
/// misconfiguration — a resume checkpoint that does not describe the graph
/// (too few values, a frontier vertex out of range), or more simulated
/// threads than the machine has cores — is `invalid-config`, which is fatal,
/// on every engine. It used to surface on the simulated backend as the
/// retryable `engine-panicked`, so a supervisor spent its whole retry /
/// backoff / degrade ladder on a run that could never succeed.
#[test]
fn deterministic_misconfigurations_are_invalid_config_on_both_backends() {
    let g = Graph::from_edges(&gen::rmat(7, 600, gen::RMAT_GRAPH500, 5));
    let n = g.num_vertices();
    let prog = Bfs::new(0);
    let spec = MachineSpec::test2();
    let checkpoint = |values: usize, frontier: Vec<u32>| Checkpoint {
        iteration: 1,
        values: vec![0u32; values],
        frontier: FrontierSnapshot::sparse(frontier, 0),
    };
    let cases = [
        ("short values", 4, Some(checkpoint(n - 1, vec![0]))),
        (
            "frontier vertex >= n",
            4,
            Some(checkpoint(n, vec![n as u32])),
        ),
        ("threads > cores", 5, None),
    ];
    let backends = [
        ("simulated", Backend::Simulated),
        ("real-threads", Backend::real_threads()),
    ];
    for system in SystemId::ALL {
        for (bname, backend) in &backends {
            for (case, threads, resume) in &cases {
                // Real threads are OS threads: the machine's cores do not
                // bound them, so that case is the simulated backend's only.
                if resume.is_none() && *bname == "real-threads" {
                    continue;
                }
                let opts = RunOptions {
                    backend: backend.clone(),
                    recovery: RecoverySession::disabled().with_resume(resume.clone()),
                    ..RunOptions::default()
                };
                let machine = Machine::new(spec.clone());
                let err = with_engine!(system, Default::default(), |engine| {
                    engine.try_run_with(&machine, *threads, &g, &prog, &opts)
                })
                .map(|r| r.iterations)
                .expect_err("a misconfigured run cannot succeed");
                let cell = format!("{}/{bname}/{case}", system.name());
                assert_eq!(err.code(), "invalid-config", "{cell}: {err}");
                assert!(!err.is_retryable(), "{cell}");
            }
        }
        // Under supervision the fatal code ends the run at once.
        let sup = RunSupervisor::new(SupervisorConfig::default());
        let (result, report) = with_engine!(system, Default::default(), |engine| {
            sup.run_reported(engine, &Backend::Simulated, &spec, 5, &g, &prog, None)
        });
        let code = result.map(|r| r.iterations).unwrap_err().code();
        assert_eq!(code, "invalid-config", "{}", system.name());
        assert_eq!(report.attempts.len(), 1, "{}: {report:?}", system.name());
        assert_eq!(report.attempts[0].backoff, Duration::ZERO);
        assert!(!report.degraded && !report.recovered);
    }
}

/// A program whose `init` panics on vertex 3: the panic happens before any
/// worker exists, on the caller's thread.
struct PanicsInInit;

impl Program for PanicsInInit {
    type Val = u32;

    fn name(&self) -> &'static str {
        "PANICS-IN-INIT"
    }
    fn combine(&self) -> Combine {
        Combine::Min
    }
    fn next_identity(&self) -> u32 {
        u32::MAX
    }
    fn init(&self, v: VId) -> u32 {
        assert_ne!(v, 3, "init refuses vertex 3");
        v
    }
    fn scatter(&self, _src: VId, val: u32, _w: Weight, _deg: u32) -> u32 {
        val
    }
    fn apply(&self, _v: VId, acc: u32, curr: u32) -> (u32, bool) {
        (acc.min(curr), acc < curr)
    }
    fn initial_frontier(&self) -> FrontierInit {
        FrontierInit::All
    }
    fn max_iters(&self) -> usize {
        8
    }
}

/// (f) A panicking program is an `engine-panicked` on both backends, never
/// a panic out of `try_run_with`: set-up code on the real-thread backend
/// (`Program::init`, the executor's allocations) runs outside every worker.
#[test]
fn a_panicking_init_is_engine_panicked_on_both_backends() {
    let g = Graph::from_edges(&gen::rmat(7, 600, gen::RMAT_GRAPH500, 5));
    let backends = [
        ("simulated", Backend::Simulated),
        ("real-threads", Backend::real_threads()),
    ];
    for system in SystemId::ALL {
        for (bname, backend) in &backends {
            let machine = Machine::new(MachineSpec::test2());
            let err = with_engine!(system, Default::default(), |engine| {
                engine.try_run_on(backend, &machine, 2, &g, &PanicsInInit)
            })
            .map(|r| r.iterations)
            .expect_err("init panics");
            let cell = format!("{}/{bname}", system.name());
            assert_eq!(err.code(), "engine-panicked", "{cell}: {err}");
            assert!(err.to_string().contains("vertex 3"), "{cell}: {err}");
        }
    }
}
