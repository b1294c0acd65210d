//! # polymer-api — the scatter–gather programming interface
//!
//! The paper's Polymer system inherits Ligra's `EdgeMap` / `VertexMap`
//! vertex-centric interface (Section 4.1). This crate captures that model as
//! a [`Program`] trait that all four engines (Polymer, Ligra-like,
//! X-Stream-like, Galois-like) execute, so each algorithm is written once
//! and the engines differ only in *data layout and access strategy* — which
//! is exactly the comparison the paper makes.
//!
//! One synchronous iteration of a program is:
//!
//! 1. **Scatter/EdgeMap** — for every edge `(s, t, w)` with `s` in the
//!    active set, compute `scatter(curr[s], w, outdeg(s))` and fold it into
//!    `next[t]` with the program's commutative [`Combine`] operator (on the
//!    simulator push mode uses atomic combines and pull mode folds over
//!    in-edges; on real threads only the owner of `t` ever folds into
//!    `next[t]`, see [`parallel`]). Targets that receive a contribution
//!    form the *updated set*.
//! 2. **Apply/VertexMap** — for every updated vertex `t`,
//!    `apply(t, next[t], curr[t])` yields the new `curr[t]` and whether `t`
//!    is active in the next iteration.
//! 3. `next` is re-initialized to the program's identity; iterate until the
//!    frontier is empty or `max_iters` is reached.
//!
//! The [`Engine`] trait is the common entry point — every run goes through
//! [`Engine::try_run_with`] under a [`RunOptions`] value; [`RunResult`]
//! carries the final vertex values plus everything the experiment harness
//! needs (simulated time, access profile, memory report).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod driver;
pub mod engine;
pub mod exec;
pub mod overlay;
pub mod parallel;
pub mod program;
pub mod result;
pub mod supervisor;

pub use backend::{Backend, RealThreadsConfig};
pub use driver::{Checkpoint, CheckpointPolicy, CheckpointStore, IterationDriver, RecoverySession};
pub use engine::{
    catch_engine_faults, validate_resume, validate_run_config, validate_sim_threads, Engine,
    RunOptions,
};
pub use exec::{
    charged_values_restore, charged_values_snapshot, check_divergence, degree_balanced_chunks,
    even_chunks, init_values, serial_combine, weight_balanced_chunks, TopoArrays,
};
pub use overlay::{MergedTopoStream, OutSegment, OverlayTopo};
pub use polymer_faults::{FaultPlan, PolymerError, PolymerResult};
pub use program::{Combine, FrontierInit, Program};
pub use result::RunResult;
pub use supervisor::{
    AttemptRecord, DegradePolicy, RecoveryReport, RetryPolicy, RunSupervisor, SupervisorConfig,
};
