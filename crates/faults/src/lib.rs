//! # polymer-faults — typed errors and deterministic fault injection
//!
//! The rest of the workspace assumes a cooperative world: node memory is
//! infinite, barriers always release, graph inputs are well formed. This
//! crate supplies the two pieces that turn those assumptions into a *failure
//! model*:
//!
//! * [`PolymerError`] — the workspace-wide error taxonomy. Every fallible
//!   entry point (`Machine::try_alloc_*`, `HierBarrier::wait_checked`,
//!   `Engine::try_run_with`, `run_multi_source`) returns `Result<_, PolymerError>`
//!   instead of panicking. Deep call paths that still panic do so with a
//!   `PolymerError` payload via [`panic_with`], which [`PolymerError::from_panic`]
//!   recovers at the catch site — so a panic anywhere below an engine surfaces
//!   as a typed error, never as an abort.
//! * [`FaultPlan`] — a deterministic injection plan threaded through the
//!   simulated machine, the barriers, and the real executor.
//!   A plan can fail the nth allocation, clamp per-node memory capacity,
//!   delay one worker at a barrier (straggler), panic one worker at a given
//!   iteration, and bound every barrier wait. All trigger points are
//!   counted with shared atomic counters, so a cloned plan observes one
//!   global schedule and runs are reproducible.
//!
//! This crate deliberately has **no dependencies** (std only) so every other
//! crate in the workspace can depend on it without cycles.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod plan;

pub use error::{panic_with, PolymerError, PolymerResult};
pub use plan::FaultPlan;
