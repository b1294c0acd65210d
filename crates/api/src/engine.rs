//! The engine entry point shared by Polymer and the three baselines.

use polymer_faults::{panic_with, PolymerError, PolymerResult};
use polymer_graph::Graph;
use polymer_numa::{Machine, MemoryReport, RunClock};

use crate::backend::{Backend, ExecProfile};
use crate::driver::RecoverySession;
use crate::program::Program;
use crate::result::RunResult;

/// Which system an engine models, for reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The paper's contribution (crate `polymer-core`).
    Polymer,
    /// Vertex-centric hybrid push/pull baseline (crate `polymer-ligra`).
    Ligra,
    /// Edge-centric scatter–shuffle–gather baseline (crate `polymer-xstream`).
    XStream,
    /// Asynchronous worklist baseline (crate `polymer-galois`).
    Galois,
}

impl EngineKind {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Polymer => "Polymer",
            EngineKind::Ligra => "Ligra",
            EngineKind::XStream => "X-Stream",
            EngineKind::Galois => "Galois",
        }
    }
}

/// A graph-analytics engine: executes a [`Program`] over a graph on a
/// simulated machine with `threads` simulated threads (bound node-major).
///
/// Engines are configured at construction (partitioning strategy, barrier
/// family, adaptive-states toggle, ...); `run` is side-effect free with
/// respect to the engine itself, so one engine value can serve many runs.
pub trait Engine {
    /// Which system this engine models.
    fn kind(&self) -> EngineKind;

    /// The engine's core entry point: execute `prog` to completion,
    /// surfacing every failure — invalid configuration, injected faults,
    /// divergence, a panicking engine body — as a typed [`PolymerError`]
    /// instead of a panic. Graph construction/loading time is excluded from
    /// the result's clock, as in the paper's methodology.
    ///
    /// With `traced == true` the engine records a span/counter timeline into
    /// the result's [`polymer_numa::Tracer`] (reachable through
    /// [`RunResult::trace`]): one span per bulk-synchronous phase and
    /// barrier, stamped with the iteration, carrying per-socket counters.
    /// Tracing must never change simulated time — the workspace test suite
    /// pins traced and untraced runs to bit-identical clocks.
    ///
    /// `recovery` supplies the run's checkpoint policy/store and an
    /// optional checkpoint to resume from
    /// ([`RecoverySession::disabled`] on every plain path — which must be
    /// charged-work-free, so disabled runs stay bit-identical to the golden
    /// fixtures). Resuming restores the checkpointed vertex values and
    /// frontier through charged `"restore"` sweeps and continues stamping
    /// global iterations from [`crate::driver::Checkpoint::iteration`].
    fn try_run_rec<P: Program>(
        &self,
        machine: &Machine,
        threads: usize,
        graph: &Graph,
        prog: &P,
        traced: bool,
        recovery: &RecoverySession<P::Val>,
    ) -> PolymerResult<RunResult<P::Val>>;

    /// [`Engine::try_run_rec`] without recovery — tracing only.
    fn try_run_traced<P: Program>(
        &self,
        machine: &Machine,
        threads: usize,
        graph: &Graph,
        prog: &P,
        traced: bool,
    ) -> PolymerResult<RunResult<P::Val>> {
        self.try_run_rec(
            machine,
            threads,
            graph,
            prog,
            traced,
            &RecoverySession::disabled(),
        )
    }

    /// [`Engine::try_run_traced`] with tracing off — the common, zero-cost
    /// path.
    fn try_run<P: Program>(
        &self,
        machine: &Machine,
        threads: usize,
        graph: &Graph,
        prog: &P,
    ) -> PolymerResult<RunResult<P::Val>> {
        self.try_run_traced(machine, threads, graph, prog, false)
    }

    /// Infallible convenience wrapper over [`Engine::try_run`] for bench
    /// binaries and examples: panics (with the typed error as payload, see
    /// [`polymer_faults::panic_with`]) on any failure.
    fn run<P: Program>(
        &self,
        machine: &Machine,
        threads: usize,
        graph: &Graph,
        prog: &P,
    ) -> RunResult<P::Val> {
        self.try_run(machine, threads, graph, prog)
            .unwrap_or_else(|e| panic_with(e))
    }

    /// Infallible wrapper over [`Engine::try_run_traced`], for harness code
    /// that wants the timeline without error plumbing.
    fn run_traced<P: Program>(
        &self,
        machine: &Machine,
        threads: usize,
        graph: &Graph,
        prog: &P,
    ) -> RunResult<P::Val> {
        self.try_run_traced(machine, threads, graph, prog, true)
            .unwrap_or_else(|e| panic_with(e))
    }

    /// How this engine's strategy maps onto the real-thread executor
    /// (direction policy, frontier adaptivity). The default is the full
    /// hybrid profile; engines with pinned strategies override it.
    fn exec_profile(&self) -> ExecProfile {
        ExecProfile::default()
    }

    /// Execute on a chosen [`Backend`]: `Simulated` dispatches to
    /// [`Engine::try_run`] on `machine` (deterministic, fully accounted);
    /// `RealThreads` runs the program with real OS threads under this
    /// engine's [`ExecProfile`] — values and iterations are real, while the
    /// simulated clock and memory report are empty (wall-clock time is the
    /// caller's to measure, and `sockets` reports the barrier group count).
    fn try_run_on<P: Program>(
        &self,
        backend: &Backend,
        machine: &Machine,
        threads: usize,
        graph: &Graph,
        prog: &P,
    ) -> PolymerResult<RunResult<P::Val>> {
        self.try_run_on_rec(
            backend,
            machine,
            threads,
            graph,
            prog,
            &RecoverySession::disabled(),
        )
    }

    /// [`Engine::try_run_on`] with a [`RecoverySession`]: both backends
    /// publish checkpoints to the session's store and honour its resume
    /// checkpoint. This is the entry point the
    /// [`crate::supervisor::RunSupervisor`] drives per attempt.
    fn try_run_on_rec<P: Program>(
        &self,
        backend: &Backend,
        machine: &Machine,
        threads: usize,
        graph: &Graph,
        prog: &P,
        recovery: &RecoverySession<P::Val>,
    ) -> PolymerResult<RunResult<P::Val>> {
        match backend {
            Backend::Simulated => self.try_run_rec(machine, threads, graph, prog, false, recovery),
            Backend::RealThreads(cfg) => {
                let (values, iterations) = crate::parallel::try_run_threads_rec(
                    graph,
                    prog,
                    threads,
                    cfg,
                    &self.exec_profile(),
                    None,
                    recovery,
                )?;
                Ok(RunResult {
                    values,
                    iterations,
                    clock: RunClock::default(),
                    memory: MemoryReport::default(),
                    threads,
                    sockets: cfg.groups.clamp(1, threads.max(1)),
                    recovery: None,
                    tag: None,
                })
            }
        }
    }
}

/// Validate the configuration shared by every engine: the thread count and
/// (for single-source programs) the source vertex. Engines call this before
/// allocating anything so a bad parameter is a typed
/// [`PolymerError::InvalidConfig`], not a panic.
pub fn validate_run_config<P: Program>(threads: usize, g: &Graph, prog: &P) -> PolymerResult<()> {
    if threads == 0 {
        return Err(PolymerError::InvalidConfig(
            "threads must be >= 1".to_string(),
        ));
    }
    if let crate::program::FrontierInit::Single(s) = prog.initial_frontier(g) {
        let n = g.num_vertices();
        if s as usize >= n {
            return Err(PolymerError::InvalidConfig(format!(
                "source vertex {s} out of range (graph has {n} vertices)"
            )));
        }
    }
    Ok(())
}

/// Run an engine body, converting any panic that escapes it into a typed
/// [`PolymerError`] (an engine bug or an injected fault surfacing through
/// infallible code paths). Engines wrap their `try_run` bodies in this so
/// `try_run` upholds its no-panic contract even over legacy internals.
pub fn catch_engine_faults<T>(f: impl FnOnce() -> PolymerResult<T>) -> PolymerResult<T> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(PolymerError::from_panic(payload)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_match_paper() {
        assert_eq!(EngineKind::Polymer.name(), "Polymer");
        assert_eq!(EngineKind::Ligra.name(), "Ligra");
        assert_eq!(EngineKind::XStream.name(), "X-Stream");
        assert_eq!(EngineKind::Galois.name(), "Galois");
    }
}
