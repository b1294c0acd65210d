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
//!   baselines.
//!
//! An engine describes how its strategy maps onto the real-thread executor
//! with an [`ExecProfile`] — hybrid or push-only, the one setting the
//! executor reads. [`crate::Engine::try_run_with`] dispatches on
//! [`crate::RunOptions::backend`] and is the only way onto either backend.

use polymer_faults::FaultPlan;

/// How an engine's strategy maps onto the real-thread executor. The profile
/// only chooses *which edge phase* an iteration runs; ownership of targets,
/// the barrier structure and the answers are the same under both.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecProfile {
    /// Beamer-style hybrid: after every iteration Ligra's density rule
    /// ([`polymer_sync::should_densify`]) is applied to the frontier's exact
    /// size and out-degree, and the next iteration gathers (each owner folds
    /// over the in-edges of its targets, gated by an active-source bitmap)
    /// when it fires and pushes otherwise. The choice follows frontier
    /// density alone; [`crate::Program::prefer_push`] is a simulator-model
    /// flag and is not consulted on this backend.
    #[default]
    Hybrid,
    /// Always push: every thread scatters along the out-edges of its slice
    /// of the frontier, into bins for the targets' owners or into its own
    /// partial array, as memory decides. X-Stream's scatter → shuffle →
    /// gather, Ligra's `force_push` ablation and Polymer without adaptive
    /// states map here.
    PushOnly,
}

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
