//! Chaos-sweep harness: fault injections × programs × engines ×
//! backends, every cell driven through the [`RunSupervisor`].
//!
//! The invariant under test is the supervisor's contract: **every
//! supervised run terminates**, and it terminates either with the
//! bit-identical fault-free answer (exact for integer programs, ε-close
//! where float summation order legitimately differs) or with a typed
//! [`PolymerError`] — never a panic, never a hang, never a silently wrong
//! answer. On top of that the sweep asserts both recovery modes actually
//! fire somewhere in the matrix: at least one cell recovers by resuming
//! from a published checkpoint (`report.resumed`), and at least one by
//! degrading the substrate (`report.degraded`).
//!
//! Fault sites are placed where each backend consults the plan: worker
//! panics, stragglers, and barrier deadlines fire on the real-thread
//! executor; allocation failures and node-capacity clamps fire on the
//! simulated machine.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use polymer::algos::reference::max_rel_error;
use polymer::api::{
    CheckpointPolicy, DegradePolicy, RealThreadsConfig, RecoveryReport, RetryPolicy, RunSupervisor,
    SupervisorConfig,
};
use polymer::graph::gen;
use polymer::prelude::*;
use polymer_bench::{with_engine, SystemId};

fn chaos_graph() -> Graph {
    Graph::from_edges(&gen::rmat(8, 2_000, gen::RMAT_GRAPH500, 13))
}

/// A supervisor config for tests: checkpoints every iteration, records the
/// backoff schedule without sleeping it.
fn chaos_config(plan: FaultPlan) -> SupervisorConfig {
    SupervisorConfig {
        checkpoint: CheckpointPolicy::EveryN(1),
        plan,
        sleep_on_backoff: false,
        ..SupervisorConfig::default()
    }
}

/// Run one supervised BFS cell (4 threads) on a watchdog thread: a
/// regression to the old deadlock behaviour fails the sweep instead of
/// wedging the suite.
fn supervised_bfs<E: Engine + Clone + Send + 'static>(
    engine: &E,
    backend: Backend,
    cfg: SupervisorConfig,
    source: u32,
) -> (PolymerResult<RunResult<u32>>, RecoveryReport) {
    let engine = engine.clone();
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let g = chaos_graph();
        let prog = Bfs::new(source);
        let sup = RunSupervisor::new(cfg);
        let spec = MachineSpec::test2();
        let out = sup.run_reported(&engine, &backend, &spec, 4, &g, &prog, None);
        let _ = tx.send(out);
    });
    rx.recv_timeout(Duration::from_secs(120))
        .expect("supervised run deadlocked")
}

/// The fault-free answer every recovered cell must reproduce exactly.
fn bfs_oracle() -> Vec<u32> {
    let g = chaos_graph();
    let (want, _) = run_reference(&g, &Bfs::new(0));
    want
}

/// One-shot worker panic on the real-thread backend: the supervisor must
/// retry, resume from the checkpoint published before the crash, and finish
/// with the fault-free answer — the headline "recover via checkpoint
/// resume" scenario.
#[test]
fn one_shot_worker_panic_recovers_by_resuming_a_checkpoint() {
    let want = bfs_oracle();
    for system in SystemId::ALL {
        let ename = system.name();
        with_engine!(system, Default::default(), |engine| {
            let plan = FaultPlan::new()
                .panic_worker_at(1, 2)
                .barrier_timeout(Duration::from_secs(30));
            let (result, report) =
                supervised_bfs(engine, Backend::real_threads(), chaos_config(plan), 0);
            let run = result.unwrap_or_else(|e| panic!("{ename}: supervised run failed: {e}"));
            assert_eq!(run.values, want, "{ename}: recovered answer diverged");
            assert!(
                report.recovered,
                "{ename}: expected a recovery, got {report:?}"
            );
            assert!(
                report.resumed,
                "{ename}: recovery should have resumed from a checkpoint: {report:?}"
            );
            assert!(report.checkpoints > 0, "{ename}: no checkpoints published");
            assert_eq!(
                report.error_codes(),
                vec!["worker-panicked"],
                "{ename}: unexpected failure codes"
            );
            assert!(
                report.attempts.last().unwrap().resumed_from.is_some(),
                "{ename}: final attempt did not resume: {report:?}"
            );
        });
    }
}

/// A supervised run takes its faults from `SupervisorConfig::plan` alone, so
/// a panic planted in the real-thread backend's own plan is rejected as
/// `invalid-config` up front instead of the run silently going fault-free.
/// The same panic moved into the supervisor's plan fires and is recovered.
#[test]
fn a_fault_in_the_backends_own_plan_is_invalid_config_not_dropped() {
    let backend = |plan| Backend::RealThreads(RealThreadsConfig { groups: 2, plan });
    let planted = || FaultPlan::new().panic_worker_at(1, 1);
    let engine = LigraEngine::new();

    let (result, report) = supervised_bfs(
        &engine,
        backend(planted()),
        chaos_config(FaultPlan::new()),
        0,
    );
    match result {
        Err(PolymerError::InvalidConfig(msg)) => {
            assert!(msg.contains("SupervisorConfig::plan"), "{msg}")
        }
        Err(e) => panic!("expected invalid-config, got {e}"),
        Ok(_) => panic!("the planted panic was silently dropped"),
    }
    assert_eq!(report.error_codes(), vec!["invalid-config"]);
    assert_eq!(report.attempts.len(), 1);
    assert_eq!(report.total_backoff, Duration::ZERO);

    let (result, report) = supervised_bfs(
        &engine,
        backend(FaultPlan::new()),
        chaos_config(planted()),
        0,
    );
    let run = result.unwrap_or_else(|e| panic!("supervised run failed: {e}"));
    assert_eq!(run.values, bfs_oracle());
    assert_eq!(report.error_codes(), vec!["worker-panicked"]);
    assert!(report.recovered && report.resumed, "{report:?}");
}

/// A persistent straggler under a tight barrier deadline: plain retries
/// keep timing out, so the supervisor must walk the degradation ladder
/// (halve groups, then fall back to the simulated backend) and still
/// produce the fault-free answer — the headline "recover via degraded
/// mode" scenario.
#[test]
fn persistent_straggler_recovers_by_degrading_to_simulated() {
    let want = bfs_oracle();
    for system in SystemId::ALL {
        let ename = system.name();
        with_engine!(system, Default::default(), |engine| {
            // Stragglers on every iteration a BFS on this graph can reach, so
            // resuming past the first delay site never dodges the fault.
            let mut plan = FaultPlan::new().barrier_timeout(Duration::from_millis(5));
            for iter in 0..12 {
                plan = plan.delay_worker(1, iter, Duration::from_millis(40));
            }
            let (result, report) =
                supervised_bfs(engine, Backend::real_threads(), chaos_config(plan), 0);
            let run = result.unwrap_or_else(|e| panic!("{ename}: supervised run failed: {e}"));
            assert_eq!(run.values, want, "{ename}: degraded answer diverged");
            assert!(
                report.degraded,
                "{ename}: expected substrate degradation: {report:?}"
            );
            assert!(report.recovered, "{ename}: expected a recovery: {report:?}");
            let last = report.attempts.last().unwrap();
            assert_eq!(
                last.backend, "simulated",
                "{ename}: ladder should end on the simulated backend: {report:?}"
            );
            assert!(
                report
                    .error_codes()
                    .iter()
                    .all(|&c| c == "barrier-timeout" || c == "barrier-poisoned"),
                "{ename}: unexpected failure codes: {report:?}"
            );
        });
    }
}

/// A one-shot allocation failure on the simulated backend: the shared plan
/// state spends the fault on attempt one, so a plain retry succeeds.
#[test]
fn one_shot_alloc_failure_recovers_on_retry() {
    let want = bfs_oracle();
    for system in SystemId::ALL {
        let ename = system.name();
        with_engine!(system, Default::default(), |engine| {
            let plan = FaultPlan::new().fail_nth_alloc(2);
            let (result, report) =
                supervised_bfs(engine, Backend::Simulated, chaos_config(plan), 0);
            let run = result.unwrap_or_else(|e| panic!("{ename}: supervised run failed: {e}"));
            assert_eq!(run.values, want, "{ename}: recovered answer diverged");
            assert!(report.recovered, "{ename}: expected a recovery: {report:?}");
            assert_eq!(
                report.error_codes(),
                vec!["alloc-failed"],
                "{ename}: unexpected failure codes"
            );
        });
    }
}

/// The toggles ride on the spec, so the fresh machine the supervisor builds
/// for a retry inherits them: a small-cache run whose answer comes from
/// attempt 2 has exactly the simulated cost of a direct small-cache run, not
/// that of the default cache.
#[test]
fn retried_attempt_inherits_the_specs_toggles() {
    let g = chaos_graph();
    let prog = Bfs::new(0);
    let default_spec = MachineSpec::test2();
    let spec = MachineSpec {
        llc_scale: 1e-3,
        ..default_spec.clone()
    };
    let engine = LigraEngine::new();
    let default = engine.run(&Machine::new(default_spec), 4, &g, &prog);
    let direct = engine.run(&Machine::new(spec.clone()), 4, &g, &prog);
    assert_ne!(
        direct.clock.total, default.clock.total,
        "the small cache must show"
    );

    // No checkpoints: their charged sweeps would add bytes of their own.
    let sup = RunSupervisor::new(SupervisorConfig {
        checkpoint: CheckpointPolicy::Never,
        ..chaos_config(FaultPlan::new().fail_nth_alloc(2))
    });
    let (result, report) =
        sup.run_reported(&engine, &Backend::Simulated, &spec, 4, &g, &prog, None);
    let run = result.expect("attempt 2 succeeds");
    assert_eq!(report.attempts.len(), 2, "{report:?}");
    assert_eq!(run.values, direct.values);
    assert_eq!(run.clock.total, direct.clock.total);
}

/// A persistent capacity clamp under `SpillPolicy::Fail` can never
/// succeed: the supervisor must exhaust its retries and surface the typed
/// error (with the full attempt history in the report), not loop forever.
#[test]
fn persistent_capacity_clamp_exhausts_retries_with_a_typed_error() {
    for system in SystemId::ALL {
        let ename = system.name();
        with_engine!(system, Default::default(), |engine| {
            let plan = FaultPlan::new().clamp_node_capacity(512);
            let cfg = SupervisorConfig {
                spill: SpillPolicy::Fail,
                ..chaos_config(plan)
            };
            let (result, report) = supervised_bfs(engine, Backend::Simulated, cfg, 0);
            let err = match result {
                Err(e) => e,
                Ok(_) => panic!("{ename}: a 512-byte node clamp cannot fit the graph"),
            };
            assert_eq!(err.code(), "node-capacity-exceeded", "{ename}");
            assert!(err.is_retryable(), "{ename}: clamp errors are retryable");
            assert_eq!(
                report.attempts.len(),
                RetryPolicy::default().max_attempts,
                "{ename}: should have exhausted every attempt: {report:?}"
            );
            assert!(!report.recovered, "{ename}");
        });
    }
}

/// Fatal (non-retryable) errors abort on the first attempt — no retries,
/// no degradation, typed error out.
#[test]
fn fatal_config_errors_abort_without_retrying() {
    for system in SystemId::ALL {
        let ename = system.name();
        with_engine!(system, Default::default(), |engine| {
            let (result, report) = supervised_bfs(
                engine,
                Backend::Simulated,
                chaos_config(FaultPlan::new()),
                u32::MAX,
            );
            let err = match result {
                Err(e) => e,
                Ok(_) => panic!("{ename}: out-of-range source must fail"),
            };
            assert_eq!(err.code(), "invalid-config", "{ename}");
            assert!(!err.is_retryable(), "{ename}");
            assert_eq!(
                report.attempts.len(),
                1,
                "{ename}: fatal errors must not retry"
            );
            assert!(
                !report.recovered && !report.degraded && !report.resumed,
                "{ename}"
            );
        });
    }
}

/// The full sweep: fault scenarios × engines × backends on BFS,
/// plus a float row (PageRank) for summation-order coverage. Every cell
/// must terminate with the fault-free answer or a typed error, and the
/// matrix as a whole must exhibit both recovery modes.
#[test]
fn chaos_sweep_terminates_every_cell_and_exhibits_both_recovery_modes() {
    let want = bfs_oracle();
    let scenarios: Vec<(&str, Backend, FaultPlan, SpillPolicy)> = vec![
        (
            "clean/simulated",
            Backend::Simulated,
            FaultPlan::new(),
            SpillPolicy::NearestRemote,
        ),
        (
            "clean/real-threads",
            Backend::real_threads(),
            FaultPlan::new(),
            SpillPolicy::NearestRemote,
        ),
        (
            "worker-panic",
            Backend::real_threads(),
            FaultPlan::new()
                .panic_worker_at(2, 1)
                .panic_worker_at(1, 3)
                .barrier_timeout(Duration::from_secs(30)),
            SpillPolicy::NearestRemote,
        ),
        (
            "straggler-deadline",
            Backend::real_threads(),
            {
                let mut p = FaultPlan::new().barrier_timeout(Duration::from_millis(5));
                for iter in 0..12 {
                    p = p.delay_worker(0, iter, Duration::from_millis(40));
                }
                p
            },
            SpillPolicy::NearestRemote,
        ),
        (
            "alloc-fail",
            Backend::Simulated,
            FaultPlan::new().fail_nth_alloc(1),
            SpillPolicy::NearestRemote,
        ),
        (
            "capacity-clamp",
            Backend::Simulated,
            FaultPlan::new().clamp_node_capacity(512),
            SpillPolicy::Fail,
        ),
    ];

    let mut cells = 0usize;
    let mut resumed_recoveries = 0usize;
    let mut degraded_recoveries = 0usize;
    for (sname, backend, plan, spill) in &scenarios {
        for system in SystemId::ALL {
            let ename = system.name();
            with_engine!(system, Default::default(), |engine| {
                cells += 1;
                // fork_attempt: each cell gets fresh one-shot state over the
                // same fault sites, so earlier cells can't spend this cell's
                // faults.
                let cfg = SupervisorConfig {
                    spill: *spill,
                    ..chaos_config(plan.fork_attempt())
                };
                let (result, report) = supervised_bfs(engine, backend.clone(), cfg, 0);
                match result {
                    Ok(run) => {
                        assert_eq!(
                            run.values, want,
                            "{sname}/{ename}: supervised answer diverged from fault-free oracle"
                        );
                        if report.recovered && report.resumed {
                            resumed_recoveries += 1;
                        }
                        if report.degraded {
                            degraded_recoveries += 1;
                        }
                    }
                    Err(e) => {
                        // Termination with a *typed* error is a legal outcome;
                        // a panic or hang would have failed the watchdog.
                        assert!(
                            !e.code().is_empty(),
                            "{sname}/{ename}: untyped failure {e:?}"
                        );
                        assert_eq!(
                            e.code(),
                            "node-capacity-exceeded",
                            "{sname}/{ename}: only the persistent clamp may exhaust retries, got {e}"
                        );
                    }
                }
            });
        }
    }
    assert!(cells >= 24, "sweep shrank: only {cells} cells");
    assert!(
        resumed_recoveries > 0,
        "no cell recovered via checkpoint resume"
    );
    assert!(
        degraded_recoveries > 0,
        "no cell recovered via degraded-mode fallback"
    );
}

/// Float coverage: a supervised PageRank that recovers from a worker panic
/// must land ε-close to the fault-free reference (real-thread summation
/// order differs run to run, so bitwise equality is out of scope here).
#[test]
fn supervised_pagerank_recovery_stays_close_to_reference() {
    let g = chaos_graph();
    let prog = PageRank::new(g.num_vertices());
    let (want, _) = run_reference(&g, &prog);
    let plan = FaultPlan::new()
        .panic_worker_at(1, 2)
        .barrier_timeout(Duration::from_secs(30));
    let sup = RunSupervisor::new(chaos_config(plan));
    let (result, report) = sup.run_reported(
        &PolymerEngine::new(),
        &Backend::real_threads(),
        &MachineSpec::test2(),
        4,
        &g,
        &prog,
        None,
    );
    let run = result.unwrap_or_else(|e| panic!("supervised PR failed: {e}"));
    assert!(report.recovered, "expected a recovery: {report:?}");
    let err = max_rel_error(&run.values, &want);
    assert!(err < 1e-9, "recovered PR off by {err}");
}

/// The degradation thresholds are honoured exactly: with
/// `halve_groups_after` disabled the ladder goes straight from plain
/// retries to the simulated fallback.
#[test]
fn degrade_policy_thresholds_shape_the_ladder() {
    let mut plan = FaultPlan::new().barrier_timeout(Duration::from_millis(5));
    for iter in 0..12 {
        plan = plan.delay_worker(1, iter, Duration::from_millis(40));
    }
    let cfg = SupervisorConfig {
        degrade: DegradePolicy {
            halve_groups_after: None,
            fallback_to_simulated_after: Some(1),
        },
        retry: RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        },
        ..chaos_config(plan)
    };
    let g = chaos_graph();
    let prog = Bfs::new(0);
    let sup = RunSupervisor::new(cfg);
    let (result, report) = sup.run_reported(
        &LigraEngine::new(),
        &Backend::real_threads(),
        &MachineSpec::test2(),
        4,
        &g,
        &prog,
        None,
    );
    result.unwrap_or_else(|e| panic!("supervised run failed: {e}"));
    let backends: Vec<&str> = report.attempts.iter().map(|a| a.backend.as_str()).collect();
    assert_eq!(
        backends,
        vec!["real-threads(groups=2)", "simulated"],
        "fallback_to_simulated_after=1 should degrade immediately after the first failure"
    );
    assert!(report.degraded && report.recovered);
}
