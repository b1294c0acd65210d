//! # polymer-bench — the experiment harness
//!
//! One binary regenerates the paper's evaluation (Section 6) and the
//! `BENCH_*` series: `polymer-bench <experiment>`, `polymer-bench list`,
//! `polymer-bench all`. Every table, figure and bench is one row of
//! [`experiments::EXPERIMENTS`] whose `run` is a `fn(&mut Session) ->
//! Report`; see `DESIGN.md` for the experiment index and `EXPERIMENTS.md`
//! for recorded paper-vs-measured results.
//!
//! * [`Session`] owns what the rows share: the parsed [`cli::Args`], the
//!   prepared [`Workload`]s and a cache of simulated cells, so a cell two
//!   tables or figures report is simulated once per process.
//! * [`Report`] is what a row hands back — artifacts, provenance,
//!   violations — and [`Report::emit`] is the only writer.
//! * [`runner`] is the dispatch layer (any system × any algorithm × any
//!   dataset at any machine shape) and [`with_engine!`] the one place a
//!   [`SystemId`] becomes a concrete engine type.
//!
//! Flags (parsed by [`cli::Args`]): `--scale <shift>` — dataset scale shift
//! relative to the defaults in `polymer_graph::datasets` (negative =
//! smaller/faster; each experiment has its own default); `--out <dir>` —
//! where the JSON result files go (default `results/`); `--trace <path>` —
//! Chrome-trace JSON of one traced run (`fig10_barrier`, `bench_baseline`).

#![deny(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod golden;
pub mod report;
pub mod runner;
pub mod session;

pub use cli::Args;
pub use report::{BenchMeta, Report, Table};
pub use runner::{run, run_on, AlgoId, Metrics, SystemId, Workload};
pub use session::Session;

/// The engine types [`with_engine!`] names, re-exported so the macro
/// expands in crates that do not depend on the engine crates themselves.
#[doc(hidden)]
pub mod engines {
    pub use polymer_core::{PolymerConfig, PolymerEngine};
    pub use polymer_galois::GaloisEngine;
    pub use polymer_ligra::LigraEngine;
    pub use polymer_xstream::XStreamEngine;
}

/// Bind `$engine` to a reference to the concrete engine `$system` names and
/// evaluate `$body` with it. `Engine`'s methods are generic, so the choice
/// cannot be a `dyn` value; this macro is the workspace's one copy of the
/// four-way match. `$config` is the [`polymer_core::PolymerConfig`] of the
/// Polymer arm (the baselines take none).
///
/// ```
/// use polymer_bench::{with_engine, SystemId};
/// use polymer_api::Engine;
///
/// for system in SystemId::ALL {
///     let name = with_engine!(system, Default::default(), |e| e.kind().name());
///     assert_eq!(name, system.name());
/// }
/// ```
#[macro_export]
macro_rules! with_engine {
    ($system:expr, $config:expr, |$engine:ident| $body:expr) => {
        match $system {
            $crate::SystemId::Polymer => {
                let $engine = &$crate::engines::PolymerEngine::with_config($config);
                $body
            }
            $crate::SystemId::Ligra => {
                let $engine = &$crate::engines::LigraEngine::new();
                $body
            }
            $crate::SystemId::XStream => {
                let $engine = &$crate::engines::XStreamEngine::new();
                $body
            }
            $crate::SystemId::Galois => {
                let $engine = &$crate::engines::GaloisEngine::new();
                $body
            }
        }
    };
}
