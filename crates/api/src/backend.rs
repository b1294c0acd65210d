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
//! with an [`ExecProfile`]; [`crate::Engine::try_run_with`] dispatches on
//! [`crate::RunOptions::backend`].

use polymer_faults::FaultPlan;

/// Edge-traversal direction policy for the real-thread executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirectionPolicy {
    /// Always push: every thread scatters along the out-edges of its slice
    /// of the frontier, folding contributions to targets it owns in place
    /// and binning the rest for their owners to drain after the barrier.
    /// X-Stream's scatter → shuffle → gather and Ligra's `force_push`
    /// ablation map here.
    PushOnly,
    /// Beamer-style hybrid: gather (each owner folds over the in-edges of
    /// its targets, gated by an active-source bitmap) when the frontier is
    /// dense, push otherwise.
    Hybrid,
}

/// How an engine's strategy maps onto the real-thread executor. Both fields
/// only choose *which edge phase* an iteration runs; ownership of targets,
/// the barrier structure and the answers are the same under every profile.
#[derive(Clone, Copy, Debug)]
pub struct ExecProfile {
    /// Direction policy. Under `Hybrid` the choice is made per iteration
    /// from the frontier's density alone; [`crate::Program::prefer_push`]
    /// is a simulator-model flag and is not consulted on this backend.
    pub direction: DirectionPolicy,
    /// Apply Ligra's density rule ([`polymer_sync::should_densify`]) to the
    /// frontier's exact size and out-degree after every iteration, and
    /// gather when it fires. When false a `Hybrid` profile never gathers —
    /// every iteration is a push over the sorted frontier list, exactly as
    /// under `PushOnly`.
    pub adaptive_frontier: bool,
}

impl Default for ExecProfile {
    fn default() -> Self {
        ExecProfile {
            direction: DirectionPolicy::Hybrid,
            adaptive_frontier: true,
        }
    }
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
