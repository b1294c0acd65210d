//! `BENCH_chaos`: the supervised-recovery sweep.

use std::time::{Duration, Instant};

use polymer_api::supervisor::{RunSupervisor, SupervisorConfig};
use polymer_api::{Backend, CheckpointPolicy, FaultPlan, PolymerError};
use polymer_core::PolymerConfig;
use polymer_graph::{gen, Graph};
use polymer_numa::{MachineSpec, SpillPolicy};
use serde::Serialize;

use crate::{Report, Session, SystemId, Table};

/// OS threads for supervised real-thread attempts (fixed so committed
/// numbers are comparable across hosts).
const THREADS: usize = 4;

/// One supervised cell of the sweep.
#[derive(Serialize)]
struct ChaosRow {
    scenario: String,
    system: String,
    backend: String,
    /// `"ok"` or the final typed error code.
    outcome: String,
    attempts: usize,
    recovered: bool,
    resumed: bool,
    degraded: bool,
    checkpoints: usize,
    error_codes: Vec<String>,
    /// Host wall-clock of the whole supervised run (all attempts).
    wall_sec: f64,
    /// True when the final values matched the fault-free oracle exactly.
    answer_matches: Option<bool>,
}

/// A fault scenario: a plan plus the backend it targets.
struct Scenario {
    name: &'static str,
    backend: Backend,
    plan: FaultPlan,
    spill: SpillPolicy,
    /// The only scenario allowed to exhaust its retries.
    may_fail: bool,
}

fn scenarios() -> Vec<Scenario> {
    let mut straggle = FaultPlan::new().barrier_timeout(Duration::from_millis(5));
    for iter in 0..16 {
        straggle = straggle.delay_worker(1, iter, Duration::from_millis(40));
    }
    vec![
        Scenario {
            name: "clean/simulated",
            backend: Backend::Simulated,
            plan: FaultPlan::new(),
            spill: SpillPolicy::NearestRemote,
            may_fail: false,
        },
        Scenario {
            name: "clean/real-threads",
            backend: Backend::real_threads(),
            plan: FaultPlan::new(),
            spill: SpillPolicy::NearestRemote,
            may_fail: false,
        },
        Scenario {
            name: "worker-panic",
            backend: Backend::real_threads(),
            plan: FaultPlan::new()
                .panic_worker_at(1, 2)
                .barrier_timeout(Duration::from_secs(30)),
            spill: SpillPolicy::NearestRemote,
            may_fail: false,
        },
        Scenario {
            name: "straggler-deadline",
            backend: Backend::real_threads(),
            plan: straggle,
            spill: SpillPolicy::NearestRemote,
            may_fail: false,
        },
        Scenario {
            name: "alloc-fail",
            backend: Backend::Simulated,
            plan: FaultPlan::new().fail_nth_alloc(2),
            spill: SpillPolicy::NearestRemote,
            may_fail: false,
        },
        Scenario {
            name: "capacity-clamp",
            backend: Backend::Simulated,
            plan: FaultPlan::new().clamp_node_capacity(512),
            spill: SpillPolicy::Fail,
            may_fail: true,
        },
    ]
}

fn backend_name(b: &Backend) -> &'static str {
    match b {
        Backend::Simulated => "simulated",
        Backend::RealThreads(_) => "real-threads",
    }
}

/// Injected faults unwind as panics the supervisor catches and converts to
/// typed errors; silence those in the hook (they would spam every failing
/// attempt's backtrace onto stderr) while keeping the default hook for
/// anything unexpected, so real bugs stay loud.
fn quiet_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let p = info.payload();
        let expected = p.downcast_ref::<PolymerError>().is_some()
            || p.downcast_ref::<&str>()
                .is_some_and(|s| s.contains("injected"))
            || p.downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected"));
        if !expected {
            default_hook(info);
        }
    }));
}

/// Chaos-sweep benchmark: the recoverable-execution story as a committed
/// artifact. Fault scenarios × the four systems run BFS under the
/// [`RunSupervisor`], and every cell is checked against the fault-free
/// oracle: a supervised run must terminate with the bit-identical answer or
/// a typed error — and across the sweep both recovery modes (checkpoint
/// resume, degraded-mode fallback) must actually fire.
///
/// Writes `results/BENCH_chaos.json` (one row per scenario × system:
/// attempts, recovery flags, checkpoint count, error codes, host
/// wall-clock); any broken invariant is a violation, which the CI
/// `experiments` job relies on.
pub fn bench_chaos(s: &mut Session) -> Report {
    quiet_injected_panics();
    // 2^(10+scale) vertices: small by design — the subject is the recovery
    // machinery, not graph throughput.
    let vshift = (10 + s.scale).clamp(6, 20) as usize;
    let g = Graph::from_edges(&gen::rmat(
        vshift as u32,
        (1 << vshift) * 8,
        gen::RMAT_GRAPH500,
        13,
    ));
    let prog = polymer_algos::Bfs::new(0);
    let (oracle, _) = polymer_algos::run_reference(&g, &prog);
    let spec = MachineSpec::test2();

    println!(
        "Chaos sweep: supervised BFS on rmat-{vshift} ({} vertices), {THREADS} threads\n",
        g.num_vertices()
    );
    let mut table = Table::new(&[
        "Scenario", "System", "Backend", "Outcome", "Att", "Res", "Deg", "Ckpts", "Wall(s)",
    ]);
    let mut rows: Vec<ChaosRow> = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    let mut saw_resumed_recovery = false;
    let mut saw_degraded_recovery = false;

    for sc in scenarios() {
        for sys in SystemId::ALL {
            let sup = RunSupervisor::new(SupervisorConfig {
                checkpoint: CheckpointPolicy::EveryN(1),
                // Fresh one-shot state per cell over the same fault sites.
                plan: sc.plan.fork_attempt(),
                spill: sc.spill,
                sleep_on_backoff: false,
                ..SupervisorConfig::default()
            });
            let t = Instant::now();
            let (result, report) = crate::with_engine!(sys, PolymerConfig::default(), |engine| {
                sup.run_reported(engine, &sc.backend, &spec, THREADS, &g, &prog, None)
            });
            let wall = t.elapsed().as_secs_f64();
            let (outcome, answer_matches) = match &result {
                Ok(run) => {
                    let matches = run.values == oracle;
                    if !matches {
                        violations.push(format!(
                            "{}/{}: supervised answer diverged from oracle",
                            sc.name,
                            sys.name()
                        ));
                    }
                    ("ok".to_string(), Some(matches))
                }
                Err(e) => {
                    if !sc.may_fail {
                        violations.push(format!(
                            "{}/{}: unexpected failure [{}] {e}",
                            sc.name,
                            sys.name(),
                            e.code()
                        ));
                    }
                    (e.code().to_string(), None)
                }
            };
            if result.is_ok() && report.recovered && report.resumed {
                saw_resumed_recovery = true;
            }
            if result.is_ok() && report.degraded {
                saw_degraded_recovery = true;
            }
            table.row(vec![
                sc.name.to_string(),
                sys.name().to_string(),
                backend_name(&sc.backend).to_string(),
                outcome.clone(),
                report.attempts.len().to_string(),
                report.resumed.to_string(),
                report.degraded.to_string(),
                report.checkpoints.to_string(),
                format!("{wall:.3}"),
            ]);
            rows.push(ChaosRow {
                scenario: sc.name.to_string(),
                system: sys.name().to_string(),
                backend: backend_name(&sc.backend).to_string(),
                outcome,
                attempts: report.attempts.len(),
                recovered: report.recovered,
                resumed: report.resumed,
                degraded: report.degraded,
                checkpoints: report.checkpoints,
                error_codes: report
                    .error_codes()
                    .into_iter()
                    .map(|s| s.to_string())
                    .collect(),
                wall_sec: wall,
                answer_matches,
            });
        }
    }

    table.print();
    // Back to the default hook: later experiments of an `all` run keep
    // their panics loud.
    drop(std::panic::take_hook());

    if !saw_resumed_recovery {
        violations.push("no cell recovered via checkpoint resume".to_string());
    }
    if !saw_degraded_recovery {
        violations.push("no cell recovered via degraded-mode fallback".to_string());
    }
    if violations.is_empty() {
        println!("\n[chaos] all cells terminated correctly; both recovery modes observed");
    }
    let meta = s.meta(&spec);
    Report::bench("BENCH_chaos", meta, &rows, violations)
}
