//! Pluggable execution backends.
//!
//! The substrate separates *what an engine does per iteration* (its policy:
//! layout, direction switching, partitioning) from *where the work runs*:
//!
//! * [`Backend::Simulated`] — the deterministic simulated NUMA machine
//!   ([`polymer_numa::SimExecutor`] + `AccessCtx` accounting); the paper's
//!   harness, exactly reproducible.
//! * [`Backend::RealThreads`] — real OS threads over shared host memory (the
//!   owner-computes executor in [`crate::parallel`]), proving the programs
//!   and data structures are genuinely concurrent and providing wall-clock
//!   baselines. It pushes on every iteration and reads no engine setting,
//!   so every engine runs the same executor there.
//!
//! [`crate::Engine::try_run_with`] dispatches on
//! [`crate::RunOptions::backend`] and is the only way onto either backend.

use polymer_faults::FaultPlan;

/// Configuration of the real-thread backend.
#[derive(Clone, Debug)]
pub struct RealThreadsConfig {
    /// Barrier groups (modelling sockets); clamped to `1..=threads`.
    pub groups: usize,
    /// Fault-injection plan (stragglers, worker panics, barrier deadlines).
    pub plan: FaultPlan,
}

impl Default for RealThreadsConfig {
    fn default() -> Self {
        RealThreadsConfig {
            // Two groups mirror the dual-socket test machine.
            groups: 2,
            plan: FaultPlan::default(),
        }
    }
}

/// Where a run executes. See the module docs.
#[derive(Clone, Debug, Default)]
pub enum Backend {
    /// The deterministic simulated NUMA machine (the paper's harness).
    #[default]
    Simulated,
    /// Real OS threads over shared host memory.
    RealThreads(RealThreadsConfig),
}

impl Backend {
    /// The real-thread backend with default configuration.
    pub fn real_threads() -> Self {
        Backend::RealThreads(RealThreadsConfig::default())
    }
}
