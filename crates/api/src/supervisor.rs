//! Retry/resume supervision over [`Engine`] runs.
//!
//! The simulated machine and the real-thread executor both surface failures
//! as typed [`PolymerError`]s — injected worker panics, barrier timeouts,
//! allocation faults, capacity overruns. The [`RunSupervisor`] turns those
//! transient failures into completed runs:
//!
//! 1. **Retry with resume.** Every attempt runs under a
//!    [`RecoverySession`] sharing one [`CheckpointStore`]; when an attempt
//!    fails retryably ([`PolymerError::is_retryable`]), the next attempt
//!    resumes from the latest checkpoint instead of iteration 0, after a
//!    bounded exponential backoff ([`RetryPolicy`]).
//! 2. **Graceful degradation.** Environmental failures that keep recurring
//!    (straggler-driven barrier timeouts, thread starvation) are met by
//!    shrinking the real-thread configuration — halving barrier groups —
//!    and ultimately by falling back to the deterministic simulated backend
//!    ([`DegradePolicy`]), which is immune to scheduling hazards.
//! 3. **Accountability.** Every attempt is recorded in the
//!    [`RecoveryReport`] that [`RunSupervisor::run_reported`] returns and,
//!    when a tracer is supplied, as `"supervisor-attempt"` /
//!    `"supervisor-degrade"` spans on the shared timeline.
//!
//! Two entry points: [`RunSupervisor::run_reported`] is the full-control
//! one (the report is returned on success and failure alike, and it takes
//! the optional tracer); [`RunSupervisor::run`] is the same call keeping
//! only the result. Every attempt goes through [`Engine::try_run_with`]
//! under a [`RunOptions`] carrying the attempt's backend and recovery
//! session.
//!
//! The supervisor never reclassifies errors: a fatal error
//! (`InvalidConfig`, `Divergence`, …) aborts immediately and is returned
//! typed, exactly as an unsupervised run would return it.
//! It has no wall-clock budget: to bound attempts, set
//! [`FaultPlan::barrier_timeout`] in [`SupervisorConfig::plan`].
//!
//! ```
//! use polymer_api::{RunSupervisor, SupervisorConfig, Backend};
//! let sup = RunSupervisor::new(SupervisorConfig::default());
//! // sup.run(&engine, &Backend::Simulated, &spec, threads, &graph, &prog)
//! ```

use std::time::Duration;

use polymer_faults::{FaultPlan, PolymerError, PolymerResult};
use polymer_graph::Graph;
use polymer_numa::{Machine, MachineSpec, SharedTracer, SpillPolicy, WorkerSpan};

use crate::backend::{Backend, RealThreadsConfig};
use crate::driver::{CheckpointPolicy, CheckpointStore, RecoverySession};
use crate::engine::{Engine, RunOptions};
use crate::program::Program;
use crate::result::RunResult;

/// Backoff policy for supervised retries.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts, including the first (`1` means "no retries").
    pub max_attempts: usize,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Multiplier applied to the backoff after every further failure.
    pub backoff_factor: u32,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            backoff_factor: 2,
            max_backoff: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// Backoff after the `failures`-th consecutive failure (1-based):
    /// `base · factor^(failures-1)`, capped at [`RetryPolicy::max_backoff`].
    /// With no failures yet (`failures == 0`) there is nothing to back off
    /// from and the answer is [`Duration::ZERO`].
    pub fn backoff_after(&self, failures: usize) -> Duration {
        if failures == 0 {
            return Duration::ZERO;
        }
        let mut d = self.base_backoff;
        for _ in 1..failures {
            d = d.saturating_mul(self.backoff_factor.max(1));
            if d >= self.max_backoff {
                return self.max_backoff;
            }
        }
        d.min(self.max_backoff)
    }
}

/// When to shrink the execution substrate instead of retrying as-is.
///
/// Thresholds count *failed attempts so far*; `Some(2)` means "apply after
/// the second failure". The ladder is: plain retry (+resume) → halve
/// real-thread barrier groups → fall back to the simulated backend.
#[derive(Clone, Copy, Debug)]
pub struct DegradePolicy {
    /// Halve the real-thread barrier group count once this many attempts
    /// have failed (repeats on later failures until `groups == 1`).
    pub halve_groups_after: Option<usize>,
    /// Switch to [`Backend::Simulated`] once this many attempts have failed.
    pub fallback_to_simulated_after: Option<usize>,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy {
            halve_groups_after: Some(2),
            fallback_to_simulated_after: Some(3),
        }
    }
}

/// Full supervisor configuration.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Checkpoint cadence threaded into every attempt's
    /// [`RecoverySession`]. Defaults to `EveryN(1)` — a supervisor exists to
    /// recover, so it checkpoints by default; pass
    /// [`CheckpointPolicy::Never`] for retry-from-scratch semantics.
    pub checkpoint: CheckpointPolicy,
    /// Retry/backoff policy.
    pub retry: RetryPolicy,
    /// Degradation ladder.
    pub degrade: DegradePolicy,
    /// Fault-injection plan shared by every attempt. Sharing matters: the
    /// plan's one-shot state (spent worker panics, the allocation counter)
    /// carries across attempts, so transient faults stay spent on retry —
    /// use [`FaultPlan::fork_attempt`] upstream for faults that should
    /// re-fire per attempt.
    pub plan: FaultPlan,
    /// Spill policy for the per-attempt simulated machine.
    pub spill: SpillPolicy,
    /// Actually sleep during backoff. Tests disable this to keep chaos
    /// sweeps fast; the schedule is recorded in the report either way.
    pub sleep_on_backoff: bool,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            checkpoint: CheckpointPolicy::EveryN(1),
            retry: RetryPolicy::default(),
            degrade: DegradePolicy::default(),
            plan: FaultPlan::default(),
            spill: SpillPolicy::default(),
            sleep_on_backoff: true,
        }
    }
}

/// One supervised attempt, as recorded in the [`RecoveryReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttemptRecord {
    /// 1-based attempt number.
    pub attempt: usize,
    /// Backend the attempt ran on: `"simulated"` or
    /// `"real-threads(groups=G)"`.
    pub backend: String,
    /// Thread count of the attempt.
    pub threads: usize,
    /// Iteration the attempt resumed from, when it started from a
    /// checkpoint rather than iteration 0.
    pub resumed_from: Option<usize>,
    /// `None` on success; otherwise the stable [`PolymerError::code`] plus
    /// the error's display rendering.
    pub error: Option<(&'static str, String)>,
    /// Backoff scheduled after this attempt (zero on success, on a fatal
    /// error, and on the final attempt).
    pub backoff: Duration,
}

/// How a supervised run reached its outcome, returned by
/// [`RunSupervisor::run_reported`] alongside the result or the error, so
/// failed sweeps stay inspectable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Every attempt, in order.
    pub attempts: Vec<AttemptRecord>,
    /// The run succeeded after at least one failed attempt.
    pub recovered: bool,
    /// The supervisor shrank the substrate (halved groups or fell back to
    /// the simulated backend).
    pub degraded: bool,
    /// At least one attempt resumed from a checkpoint.
    pub resumed: bool,
    /// Checkpoints published across all attempts.
    pub checkpoints: usize,
    /// Total backoff scheduled (slept only when
    /// [`SupervisorConfig::sleep_on_backoff`]).
    pub total_backoff: Duration,
}

impl RecoveryReport {
    /// The failed attempts' stable error codes, in order — handy for
    /// asserting a chaos scenario exercised the fault it planted.
    pub fn error_codes(&self) -> Vec<&'static str> {
        self.attempts
            .iter()
            .filter_map(|a| a.error.as_ref().map(|(c, _)| *c))
            .collect()
    }
}

/// How an attempt's backend reads in an [`AttemptRecord`].
fn label(backend: &Backend) -> String {
    match backend {
        Backend::Simulated => "simulated".to_string(),
        Backend::RealThreads(rt) => format!("real-threads(groups={})", rt.groups),
    }
}

/// Supervises [`Engine`] runs: retries retryable failures, resumes from
/// iteration checkpoints, degrades the substrate when failures persist, and
/// reports every step. See the module docs for the full contract.
#[derive(Clone, Debug, Default)]
pub struct RunSupervisor {
    config: SupervisorConfig,
}

impl RunSupervisor {
    /// A supervisor with the given configuration.
    pub fn new(config: SupervisorConfig) -> Self {
        RunSupervisor { config }
    }

    /// Run `prog` under supervision. On a fatal error or retry exhaustion
    /// the last typed error is returned (use [`RunSupervisor::run_reported`]
    /// to keep the [`RecoveryReport`]).
    ///
    /// A fresh [`Machine`] is built per attempt from `spec` (machines
    /// accumulate allocations, so reuse would double-count memory), all
    /// sharing [`SupervisorConfig::plan`] — including its one-shot fault
    /// state, so a spent transient fault does not re-fire on retry. A
    /// real-thread `backend` with faults in its own plan is `InvalidConfig`.
    pub fn run<E: Engine, P: Program>(
        &self,
        engine: &E,
        backend: &Backend,
        spec: &MachineSpec,
        threads: usize,
        graph: &Graph,
        prog: &P,
    ) -> PolymerResult<RunResult<P::Val>> {
        self.run_reported(engine, backend, spec, threads, graph, prog, None)
            .0
    }

    /// The full-control entry point: [`RunSupervisor::run`], also returning
    /// the [`RecoveryReport`] whether or not the run succeeded, and
    /// optionally recording `"supervisor-attempt"` (one per attempt, stamped
    /// with the resume iteration) and `"supervisor-degrade"` spans on
    /// `tracer`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_reported<E: Engine, P: Program>(
        &self,
        engine: &E,
        backend: &Backend,
        spec: &MachineSpec,
        threads: usize,
        graph: &Graph,
        prog: &P,
        tracer: Option<&SharedTracer>,
    ) -> (PolymerResult<RunResult<P::Val>>, RecoveryReport) {
        let cfg = &self.config;
        let store: CheckpointStore<P::Val> = CheckpointStore::new();
        // Every attempt runs under `cfg.plan`, so a fault planted in the
        // backend's own plan would silently never fire: reject it.
        let foreign_faults = matches!(backend, Backend::RealThreads(rt)
            if rt.plan.has_worker_sites() || rt.plan.barrier_deadline().is_some());
        // Where the next attempt runs; the degradation ladder shrinks it.
        let mut substrate = match backend {
            Backend::Simulated => Backend::Simulated,
            Backend::RealThreads(rt) => Backend::RealThreads(RealThreadsConfig {
                groups: rt.groups.clamp(1, threads.max(1)),
                plan: cfg.plan.clone(),
            }),
        };
        let mut report = RecoveryReport::default();
        let mut last_err: Option<PolymerError> = None;

        let max_attempts = cfg.retry.max_attempts.max(1);
        for attempt in 1..=max_attempts {
            let resume = store.latest();
            let resumed_from = resume.as_ref().map(|c| c.iteration);
            report.resumed |= resumed_from.is_some();
            let session = RecoverySession::new(cfg.checkpoint, store.clone()).with_resume(resume);
            let machine = Machine::with_faults(spec.clone(), cfg.spill, cfg.plan.clone());
            let opts = RunOptions {
                backend: substrate.clone(),
                recovery: session,
                ..RunOptions::default()
            };
            let span_start = tracer.map(|t| t.now_us());
            let outcome = if foreign_faults {
                Err(PolymerError::InvalidConfig(
                    "supervisor: put the backend's faults in SupervisorConfig::plan".to_string(),
                ))
            } else {
                engine.try_run_with(&machine, threads, graph, prog, &opts)
            };
            if let (Some(t), Some(start_us)) = (tracer, span_start) {
                t.push_worker_span(WorkerSpan {
                    name: "supervisor-attempt",
                    worker: attempt - 1,
                    iteration: resumed_from.map(|i| i as u64),
                    start_us,
                    dur_us: t.now_us() - start_us,
                });
            }

            match outcome {
                Ok(result) => {
                    report.attempts.push(AttemptRecord {
                        attempt,
                        backend: label(&substrate),
                        threads,
                        resumed_from,
                        error: None,
                        backoff: Duration::ZERO,
                    });
                    report.recovered = attempt > 1;
                    report.checkpoints = store.taken();
                    return (Ok(result), report);
                }
                Err(err) => {
                    let will_retry = err.is_retryable() && attempt < max_attempts;
                    let backoff = if will_retry {
                        cfg.retry.backoff_after(attempt)
                    } else {
                        Duration::ZERO
                    };
                    report.attempts.push(AttemptRecord {
                        attempt,
                        backend: label(&substrate),
                        threads,
                        resumed_from,
                        error: Some((err.code(), err.to_string())),
                        backoff,
                    });
                    report.total_backoff += backoff;
                    last_err = Some(err);
                    if !will_retry {
                        break;
                    }
                    self.degrade(&mut substrate, attempt, &mut report, tracer);
                    if cfg.sleep_on_backoff && backoff > Duration::ZERO {
                        std::thread::sleep(backoff);
                    }
                }
            }
        }

        report.checkpoints = store.taken();
        let err = last_err.unwrap_or_else(|| {
            PolymerError::InvalidConfig("supervisor: no attempt executed".to_string())
        });
        (Err(err), report)
    }

    /// Apply the degradation ladder after `failures` failed attempts.
    fn degrade(
        &self,
        substrate: &mut Backend,
        failures: usize,
        report: &mut RecoveryReport,
        tracer: Option<&SharedTracer>,
    ) {
        let d = &self.config.degrade;
        let before = label(substrate);
        if let Backend::RealThreads(rt) = substrate {
            if d.fallback_to_simulated_after.is_some_and(|f| failures >= f) {
                *substrate = Backend::Simulated;
            } else if d.halve_groups_after.is_some_and(|h| failures >= h) && rt.groups > 1 {
                rt.groups /= 2;
            }
        }
        if label(substrate) != before {
            report.degraded = true;
            if let Some(t) = tracer {
                let now = t.now_us();
                t.push_worker_span(WorkerSpan {
                    name: "supervisor-degrade",
                    worker: failures,
                    iteration: None,
                    start_us: now,
                    dur_us: 0.0,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::atomic::{AtomicUsize, Ordering};

    use polymer_graph::{EdgeList, VId, Weight};
    use polymer_numa::RunClock;

    use crate::driver::{Checkpoint, RecoverySession};
    use crate::engine::EngineKind;
    use crate::program::{Combine, FrontierInit};
    use crate::result::RunResult;
    use polymer_numa::MemoryReport;
    use polymer_sync::FrontierSnapshot;

    // Minimal local program (mirrors parallel.rs's test program) to avoid a
    // circular dev-dependency on the engine crates.
    struct Levels;
    impl Program for Levels {
        type Val = u32;
        fn name(&self) -> &'static str {
            "levels"
        }
        fn combine(&self) -> Combine {
            Combine::Min
        }
        fn next_identity(&self) -> u32 {
            u32::MAX
        }
        fn init(&self, v: VId) -> u32 {
            if v == 0 {
                0
            } else {
                u32::MAX
            }
        }
        fn scatter(&self, _s: VId, sv: u32, _w: Weight, _d: u32) -> u32 {
            sv + 1
        }
        fn apply(&self, _v: VId, acc: u32, curr: u32) -> (u32, bool) {
            if acc < curr {
                (acc, true)
            } else {
                (curr, false)
            }
        }
        fn initial_frontier(&self) -> FrontierInit {
            FrontierInit::Single(0)
        }
        fn max_iters(&self) -> usize {
            usize::MAX
        }
        fn fold(&self, a: u32, b: u32) -> u32 {
            a.min(b)
        }
    }

    /// An engine that fails its first `fail_first` attempts with the given
    /// retryable error, publishing a checkpoint on every attempt so the
    /// supervisor has something to resume from.
    struct Flaky {
        fail_first: usize,
        calls: AtomicUsize,
        checkpoint_at: usize,
    }

    impl Flaky {
        fn new(fail_first: usize) -> Self {
            Flaky {
                fail_first,
                calls: AtomicUsize::new(0),
                checkpoint_at: 3,
            }
        }
    }

    impl Engine for Flaky {
        fn kind(&self) -> EngineKind {
            EngineKind::Polymer
        }

        fn run_simulated<P: Program>(
            &self,
            _machine: &Machine,
            threads: usize,
            _graph: &Graph,
            _prog: &P,
            _traced: bool,
            recovery: &RecoverySession<P::Val>,
        ) -> PolymerResult<RunResult<P::Val>> {
            let call = self.calls.fetch_add(1, Ordering::SeqCst);
            if recovery.should_checkpoint(self.checkpoint_at) {
                recovery.record(Checkpoint {
                    iteration: self.checkpoint_at,
                    values: Vec::new(),
                    frontier: FrontierSnapshot::default(),
                });
            }
            if call < self.fail_first {
                return Err(PolymerError::WorkerPanicked {
                    worker: 0,
                    detail: "injected".to_string(),
                });
            }
            Ok(RunResult {
                values: Vec::new(),
                iterations: recovery.resume().map_or(7, |c| 7 - c.iteration),
                clock: RunClock::default(),
                memory: MemoryReport::default(),
                threads,
                sockets: 1,
            })
        }

        // Route every backend through the mock body so the degradation
        // ladder is observable without a real faulty executor.
        fn try_run_with<P: Program>(
            &self,
            machine: &Machine,
            threads: usize,
            graph: &Graph,
            prog: &P,
            opts: &RunOptions<'_, P::Val>,
        ) -> PolymerResult<RunResult<P::Val>> {
            self.run_simulated(machine, threads, graph, prog, false, &opts.recovery)
        }
    }

    fn tiny_graph() -> Graph {
        Graph::from_edges(&EdgeList::from_pairs(
            4,
            (0..4u32).map(|v| (v, (v + 1) % 4)),
        ))
    }

    fn fast_config() -> SupervisorConfig {
        SupervisorConfig {
            sleep_on_backoff: false,
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn backoff_schedule_is_exponential_and_capped() {
        let r = RetryPolicy {
            base_backoff: Duration::from_millis(10),
            backoff_factor: 3,
            max_backoff: Duration::from_millis(70),
            ..RetryPolicy::default()
        };
        assert_eq!(r.backoff_after(1), Duration::from_millis(10));
        assert_eq!(r.backoff_after(2), Duration::from_millis(30));
        assert_eq!(r.backoff_after(3), Duration::from_millis(70));
        assert_eq!(r.backoff_after(9), Duration::from_millis(70));
    }

    #[test]
    fn backoff_before_any_failure_is_zero() {
        // Regression: the documented contract is 1-based, but
        // `backoff_after(0)` used to return `base_backoff` — a serve-layer
        // caller polling the schedule before any failure would sleep.
        let r = RetryPolicy::default();
        assert_eq!(r.backoff_after(0), Duration::ZERO);
        // Zero stays zero regardless of base/factor extremes.
        let r = RetryPolicy {
            base_backoff: Duration::from_secs(3600),
            backoff_factor: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(r.backoff_after(0), Duration::ZERO);
    }

    #[test]
    fn backoff_saturating_mul_hits_the_cap_without_overflow() {
        // base · factor^(failures-1) overflows Duration long before 40
        // doublings of ~292 years; saturating_mul must pin the ladder to
        // max_backoff instead of wrapping.
        let r = RetryPolicy {
            base_backoff: Duration::from_secs(u64::MAX / 4),
            backoff_factor: u32::MAX,
            max_backoff: Duration::from_secs(u64::MAX / 2),
            ..RetryPolicy::default()
        };
        assert_eq!(r.backoff_after(2), Duration::from_secs(u64::MAX / 2));
        assert_eq!(r.backoff_after(40), Duration::from_secs(u64::MAX / 2));
        // factor == 0 is clamped to 1: constant backoff at base.
        let r = RetryPolicy {
            base_backoff: Duration::from_millis(5),
            backoff_factor: 0,
            max_backoff: Duration::from_secs(1),
            ..RetryPolicy::default()
        };
        assert_eq!(r.backoff_after(1), Duration::from_millis(5));
        assert_eq!(r.backoff_after(7), Duration::from_millis(5));
    }

    #[test]
    fn degrade_thresholds_apply_after_the_nth_failure() {
        // `Some(n)` means "apply after the n-th failure": with
        // halve_groups_after = Some(1) the substrate halves after the very
        // first failure, and with fallback Some(2) the second failure
        // switches to the simulated backend.
        let sup = RunSupervisor::new(SupervisorConfig {
            degrade: DegradePolicy {
                halve_groups_after: Some(1),
                fallback_to_simulated_after: Some(2),
            },
            ..fast_config()
        });
        let g = tiny_graph();
        let (res, rep) = sup.run_reported(
            &Flaky::new(2),
            &Backend::RealThreads(RealThreadsConfig {
                groups: 4,
                plan: FaultPlan::default(),
            }),
            &MachineSpec::test2(),
            4,
            &g,
            &Levels,
            None,
        );
        res.expect("recovers");
        let backends: Vec<&str> = rep.attempts.iter().map(|a| a.backend.as_str()).collect();
        assert_eq!(
            backends,
            vec![
                "real-threads(groups=4)", // attempt 1, fails (failure #1)
                "real-threads(groups=2)", // halved after failure #1, fails (#2)
                "simulated",              // fallback after failure #2, succeeds
            ]
        );
    }

    #[test]
    fn degrade_disabled_thresholds_never_fire() {
        let sup = RunSupervisor::new(SupervisorConfig {
            degrade: DegradePolicy {
                halve_groups_after: None,
                fallback_to_simulated_after: None,
            },
            ..fast_config()
        });
        let g = tiny_graph();
        let (res, rep) = sup.run_reported(
            &Flaky::new(3),
            &Backend::RealThreads(RealThreadsConfig {
                groups: 4,
                plan: FaultPlan::default(),
            }),
            &MachineSpec::test2(),
            4,
            &g,
            &Levels,
            None,
        );
        res.expect("recovers by plain retry");
        assert!(!rep.degraded);
        assert!(rep
            .attempts
            .iter()
            .all(|a| a.backend == "real-threads(groups=4)"));
    }

    #[test]
    fn first_try_success_reports_clean_single_attempt() {
        let sup = RunSupervisor::new(fast_config());
        let g = tiny_graph();
        let (res, rep) = sup.run_reported(
            &Flaky::new(0),
            &Backend::Simulated,
            &MachineSpec::test2(),
            2,
            &g,
            &Levels,
            None,
        );
        res.expect("clean run");
        assert_eq!(rep.attempts.len(), 1);
        assert!(!rep.recovered && !rep.degraded && !rep.resumed);
        assert_eq!(rep.attempts[0].error, None);
        assert_eq!(rep.total_backoff, Duration::ZERO);
    }

    #[test]
    fn retry_resumes_from_the_published_checkpoint() {
        let sup = RunSupervisor::new(fast_config());
        let g = tiny_graph();
        let (res, rep) = sup.run_reported(
            &Flaky::new(2),
            &Backend::Simulated,
            &MachineSpec::test2(),
            2,
            &g,
            &Levels,
            None,
        );
        let res = res.expect("recovers within 4 attempts");
        assert_eq!(rep.attempts.len(), 3);
        assert!(rep.recovered && rep.resumed);
        assert_eq!(
            rep.error_codes(),
            vec!["worker-panicked", "worker-panicked"]
        );
        // Attempt 1 starts cold; attempts 2 and 3 resume from the
        // checkpoint the failed attempts published.
        assert_eq!(rep.attempts[0].resumed_from, None);
        assert_eq!(rep.attempts[1].resumed_from, Some(3));
        assert_eq!(rep.attempts[2].resumed_from, Some(3));
        // The successful attempt only re-ran the post-checkpoint tail.
        assert_eq!(res.iterations, 4);
        assert!(rep.checkpoints >= 1);
        assert_eq!(
            rep.total_backoff,
            Duration::from_millis(10) + Duration::from_millis(20)
        );
    }

    #[test]
    fn fatal_errors_abort_without_retry() {
        struct Fatal;
        impl Engine for Fatal {
            fn kind(&self) -> EngineKind {
                EngineKind::Polymer
            }
            fn run_simulated<P: Program>(
                &self,
                _machine: &Machine,
                _threads: usize,
                _graph: &Graph,
                _prog: &P,
                _traced: bool,
                _recovery: &RecoverySession<P::Val>,
            ) -> PolymerResult<RunResult<P::Val>> {
                Err(PolymerError::InvalidConfig("bad".to_string()))
            }
        }
        let sup = RunSupervisor::new(fast_config());
        let g = tiny_graph();
        let (res, rep) = sup.run_reported(
            &Fatal,
            &Backend::Simulated,
            &MachineSpec::test2(),
            2,
            &g,
            &Levels,
            None,
        );
        assert!(matches!(res, Err(PolymerError::InvalidConfig(_))));
        assert_eq!(rep.attempts.len(), 1);
        assert!(!rep.recovered);
    }

    #[test]
    fn exhausted_retries_return_the_last_error_with_full_report() {
        let sup = RunSupervisor::new(SupervisorConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::default()
            },
            ..fast_config()
        });
        let g = tiny_graph();
        let (res, rep) = sup.run_reported(
            &Flaky::new(usize::MAX),
            &Backend::Simulated,
            &MachineSpec::test2(),
            2,
            &g,
            &Levels,
            None,
        );
        assert!(matches!(res, Err(PolymerError::WorkerPanicked { .. })));
        assert_eq!(rep.attempts.len(), 3);
        // The final attempt schedules no backoff.
        assert_eq!(rep.attempts[2].backoff, Duration::ZERO);
    }

    #[test]
    fn degradation_ladder_halves_groups_then_falls_back_to_simulated() {
        let sup = RunSupervisor::new(fast_config());
        let g = tiny_graph();
        let (res, rep) = sup.run_reported(
            &Flaky::new(3),
            &Backend::RealThreads(RealThreadsConfig {
                groups: 4,
                plan: FaultPlan::default(),
            }),
            &MachineSpec::test2(),
            4,
            &g,
            &Levels,
            None,
        );
        res.expect("recovers on the simulated fallback");
        assert!(rep.degraded);
        let backends: Vec<&str> = rep.attempts.iter().map(|a| a.backend.as_str()).collect();
        assert_eq!(
            backends,
            vec![
                "real-threads(groups=4)",
                "real-threads(groups=4)",
                "real-threads(groups=2)",
                "simulated",
            ]
        );
    }

    #[test]
    fn supervisor_spans_land_on_the_shared_tracer() {
        let sup = RunSupervisor::new(fast_config());
        let g = tiny_graph();
        let tracer = SharedTracer::new(1, 4);
        let (res, rep) = sup.run_reported(
            &Flaky::new(1),
            &Backend::Simulated,
            &MachineSpec::test2(),
            2,
            &g,
            &Levels,
            Some(&tracer),
        );
        assert!(res.is_ok() && rep.recovered);
        let buf = tracer.into_buffer();
        let attempts = buf
            .worker_spans
            .iter()
            .filter(|s| s.name == "supervisor-attempt")
            .count();
        assert_eq!(attempts, 2);
    }
}
