//! The engine entry point shared by Polymer and the three baselines.
//!
//! One run API: a [`RunOptions`] value names everything that can differ
//! between two runs (backend, simulated timeline, recovery session,
//! wall-clock tracer) and [`Engine::try_run_with`] takes it. `run`,
//! `run_traced` and `try_run_on` are one-line shorthands over that call.

use polymer_faults::{panic_with, PolymerError, PolymerResult};
use polymer_graph::Graph;
use polymer_numa::{Machine, MemoryReport, RunClock, SharedTracer};

use crate::backend::Backend;
use crate::driver::{Checkpoint, RecoverySession};
use crate::program::Program;
use crate::result::RunResult;

/// Everything that varies between two runs of the same program on the same
/// engine, machine and thread count. [`Engine::try_run_with`] is the one
/// door a run goes through; the `Default` is the plain path (simulated,
/// untraced, no checkpointing, no wall-clock tracer), which must stay
/// charged-work-free so default runs replay the golden fixtures bit for bit.
pub struct RunOptions<'t, V> {
    /// Where the run executes.
    pub backend: Backend,
    /// Simulated backend only: record a span/counter timeline into the
    /// result's [`polymer_numa::Tracer`] (reachable through
    /// [`RunResult::trace`]) — one span per bulk-synchronous phase and
    /// barrier, stamped with the iteration, carrying per-socket counters.
    /// Tracing never changes simulated time; the test suite pins traced and
    /// untraced runs to bit-identical clocks. A real-thread run has no
    /// simulated timeline and ignores the flag.
    pub traced: bool,
    /// Checkpoint policy/store to publish into and an optional checkpoint
    /// to resume from, honoured by both backends. Resuming restores the
    /// checkpointed vertex values and frontier (through charged `"restore"`
    /// sweeps on the simulator) and continues stamping global iterations
    /// from [`crate::driver::Checkpoint::iteration`].
    pub recovery: RecoverySession<V>,
    /// Real-thread backend only: every worker records one `"iteration"`
    /// span per superstep, one edge-phase span named after its push path
    /// (`"push-bins"` or `"push-dense"`), one `"apply"` span for
    /// the owner phase and one `"barrier-wait"` span per barrier crossing
    /// (µs since the tracer's epoch). An abnormal end — injected panic,
    /// poisoned barrier, timeout — flushes the buffer *truncated* but valid.
    pub tracer: Option<&'t SharedTracer>,
}

impl<V> Default for RunOptions<'_, V> {
    fn default() -> Self {
        RunOptions {
            backend: Backend::Simulated,
            traced: false,
            recovery: RecoverySession::disabled(),
            tracer: None,
        }
    }
}

/// A graph-analytics engine: executes a [`Program`] over a graph on a
/// simulated machine with `threads` simulated threads (bound node-major),
/// or on real OS threads.
///
/// Engines are configured at construction (partitioning strategy, barrier
/// family, adaptive-states toggle, ...). That configuration shapes simulated
/// runs only: on [`Backend::RealThreads`] every engine runs the same
/// owner-computes push executor and returns the same bits. A run is
/// side-effect free with respect to the engine itself, so one engine value
/// can serve many runs.
/// An engine implements [`Engine::run_simulated`]; callers start every run
/// through [`Engine::try_run_with`] or one of its three shorthands.
pub trait Engine {
    /// The hook an engine implements: the simulated body — build the layout
    /// on `machine`, then execute `prog` to completion. Called only by
    /// [`Engine::try_run_with`], which has already checked the configuration
    /// ([`validate_run_config`], [`validate_sim_threads`], and
    /// [`validate_resume`] on a resume checkpoint) and converts a panic
    /// escaping the body into a typed error ([`catch_engine_faults`]), so no
    /// engine can forget the front door. Graph construction/loading time is excluded from the
    /// result's clock, as in the paper's methodology. `traced` and
    /// `recovery` are [`RunOptions::traced`] and [`RunOptions::recovery`].
    fn run_simulated<P: Program>(
        &self,
        machine: &Machine,
        threads: usize,
        graph: &Graph,
        prog: &P,
        traced: bool,
        recovery: &RecoverySession<P::Val>,
    ) -> PolymerResult<RunResult<P::Val>>;

    /// Run `prog` under `opts` — the only place the backend is dispatched.
    /// Every failure — invalid configuration, injected faults, divergence, a
    /// panicking engine body — comes back as a typed [`PolymerError`], never
    /// a panic. `Simulated` runs [`Engine::run_simulated`] on `machine`
    /// (deterministic, fully accounted); `RealThreads` runs the program on
    /// real OS threads, pushing on every iteration whatever the engine —
    /// values and iterations are real, while the simulated clock and memory
    /// report are empty (wall-clock time is the caller's to measure, and
    /// `sockets` reports the barrier group count).
    fn try_run_with<P: Program>(
        &self,
        machine: &Machine,
        threads: usize,
        graph: &Graph,
        prog: &P,
        opts: &RunOptions<'_, P::Val>,
    ) -> PolymerResult<RunResult<P::Val>> {
        match &opts.backend {
            Backend::Simulated => {
                validate_run_config(threads, graph.num_vertices(), prog)?;
                validate_sim_threads(machine, threads)?;
                if let Some(ck) = opts.recovery.resume() {
                    validate_resume(ck, graph.num_vertices())?;
                }
                catch_engine_faults(|| {
                    self.run_simulated(machine, threads, graph, prog, opts.traced, &opts.recovery)
                })
            }
            // Set-up before the workers exist (`Program::init`, the
            // executor's allocations) runs on this thread: a panic there is
            // an `engine-panicked`, as on the simulator.
            Backend::RealThreads(cfg) => catch_engine_faults(|| {
                let (values, iterations) = crate::parallel::try_run_threads_rec(
                    graph,
                    prog,
                    threads,
                    cfg,
                    opts.tracer,
                    &opts.recovery,
                )?;
                Ok(RunResult {
                    values,
                    iterations,
                    clock: RunClock::default(),
                    memory: MemoryReport::default(),
                    threads,
                    sockets: cfg.groups.clamp(1, threads.max(1)),
                })
            }),
        }
    }

    /// [`Engine::try_run_with`] under the default options, for bench
    /// binaries and examples: panics (with the typed error as payload, see
    /// [`polymer_faults::panic_with`]) on any failure.
    fn run<P: Program>(
        &self,
        machine: &Machine,
        threads: usize,
        graph: &Graph,
        prog: &P,
    ) -> RunResult<P::Val> {
        self.try_run_with(machine, threads, graph, prog, &RunOptions::default())
            .unwrap_or_else(|e| panic_with(e))
    }

    /// [`Engine::run`] with [`RunOptions::traced`] set, for harness code
    /// that wants the timeline without error plumbing.
    fn run_traced<P: Program>(
        &self,
        machine: &Machine,
        threads: usize,
        graph: &Graph,
        prog: &P,
    ) -> RunResult<P::Val> {
        let opts = RunOptions {
            traced: true,
            ..RunOptions::default()
        };
        self.try_run_with(machine, threads, graph, prog, &opts)
            .unwrap_or_else(|e| panic_with(e))
    }

    /// [`Engine::try_run_with`] on a chosen [`Backend`], every other option
    /// at its default.
    fn try_run_on<P: Program>(
        &self,
        backend: &Backend,
        machine: &Machine,
        threads: usize,
        graph: &Graph,
        prog: &P,
    ) -> PolymerResult<RunResult<P::Val>> {
        let opts = RunOptions {
            backend: backend.clone(),
            ..RunOptions::default()
        };
        self.try_run_with(machine, threads, graph, prog, &opts)
    }
}

/// Validate the configuration shared by every run: the thread count and
/// (for single-source programs) the source vertex against `n`, the vertex
/// count of whatever the run traverses — a CSR, a mutated graph, a placed
/// overlay. Every entry point (engines, real-thread executor, multi-source
/// sweep, overlay engines, the service's admission) calls this before
/// allocating anything, so a bad parameter is a typed
/// [`PolymerError::InvalidConfig`], not a panic, and the check exists once.
pub fn validate_run_config<P: Program>(threads: usize, n: usize, prog: &P) -> PolymerResult<()> {
    if threads == 0 {
        return Err(PolymerError::InvalidConfig(
            "threads must be >= 1".to_string(),
        ));
    }
    if let crate::program::FrontierInit::Single(s) = prog.initial_frontier() {
        if s as usize >= n {
            return Err(PolymerError::InvalidConfig(format!(
                "source vertex {s} out of range (graph has {n} vertices)"
            )));
        }
    }
    Ok(())
}

/// The simulated backend binds every thread to a core of `machine`: a count
/// the machine cannot bind is a typed [`PolymerError::InvalidConfig`]
/// (fatal, never retried), not the simulator's assert. Shared by
/// [`Engine::try_run_with`]'s `Simulated` arm, the sweep and the overlay engines.
pub fn validate_sim_threads(machine: &Machine, threads: usize) -> PolymerResult<()> {
    let cores = machine.topology().total_cores();
    if threads == 0 || threads > cores {
        return Err(PolymerError::InvalidConfig(format!(
            "threads must be in 1..={cores} (the machine's cores), got {threads}"
        )));
    }
    Ok(())
}

/// A resume checkpoint must describe the graph it resumes on: one value per
/// vertex and a frontier naming only vertices below `n`. Both backends check
/// this before touching the checkpoint, so a foreign or corrupted one is a
/// typed [`PolymerError::InvalidConfig`] instead of an index panic.
pub fn validate_resume<V>(ck: &Checkpoint<V>, n: usize) -> PolymerResult<()> {
    if ck.values.len() != n {
        return Err(PolymerError::InvalidConfig(format!(
            "resume checkpoint has {} values for a {n}-vertex graph",
            ck.values.len()
        )));
    }
    if let Some(v) = ck.frontier.vertices.iter().find(|&&v| v as usize >= n) {
        return Err(PolymerError::InvalidConfig(format!(
            "resume checkpoint's frontier names vertex {v} but the graph has {n} vertices"
        )));
    }
    Ok(())
}

/// Run an engine body, converting any panic that escapes it into a typed
/// [`PolymerError`] (an engine bug or an injected fault surfacing through
/// infallible code paths). [`Engine::try_run_with`] wraps the
/// [`Engine::run_simulated`] body in this, and the families beside the
/// engines (multi-source, overlay) wrap theirs, so every entry upholds the
/// no-panic contract even over legacy internals.
pub fn catch_engine_faults<T>(f: impl FnOnce() -> PolymerResult<T>) -> PolymerResult<T> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(PolymerError::from_panic(payload)),
    }
}
