//! Golden PhaseCost fixture: the fixed (engine × algorithm) matrix whose
//! accounting aggregates define "bit-identical simulated output" for the
//! execution-substrate regression suite.
//!
//! The committed `results/golden_phasecosts.json` was produced by this
//! matrix (the `golden_phasecosts` experiment) *before* the engines were
//! ported onto the shared [`polymer_api::IterationDriver`];
//! `tests/conformance.rs` re-runs [`golden_matrix`] and requires
//! field-for-field equality, so any refactor that changes a single charged
//! access, barrier, or iteration fails the suite. Regenerate only for an intentional fidelity change, recording the
//! rationale in EXPERIMENTS.md:
//!
//! ```text
//! cargo run --release -p polymer-bench -- golden_phasecosts --out results
//! ```

use polymer_algos::{Bfs, ConnectedComponents, PageRank, Sssp};
use polymer_api::{Engine, RunResult};
use polymer_core::PolymerConfig;
use polymer_graph::{gen, Graph};
use polymer_numa::{Machine, MachineSpec};
use serde::{Deserialize, Serialize};

use crate::runner::SystemId;

/// One (engine, algorithm) cell of the golden matrix: every field the
/// bit-identity contract covers. Times serialize at full f64 precision.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct GoldenRow {
    /// Engine display name.
    pub engine: String,
    /// Algorithm display name.
    pub algo: String,
    /// Iterations executed.
    pub iterations: usize,
    /// Accumulated simulated phase time, µs.
    pub time_us: f64,
    /// Accumulated simulated barrier time, µs.
    pub barrier_us: f64,
    /// Barriers charged.
    pub barriers: u64,
    /// Local transaction count.
    pub count_local: u64,
    /// Remote transaction count.
    pub count_remote: u64,
    /// Local bytes moved.
    pub bytes_local: u64,
    /// Remote bytes moved.
    pub bytes_remote: u64,
    /// LLC-miss bytes attributed to local accesses.
    pub miss_bytes_local: f64,
    /// LLC-miss bytes attributed to remote accesses.
    pub miss_bytes_remote: f64,
    /// Counts split `[pattern][is_remote]`.
    pub count_by_pattern: [[u64; 2]; 2],
}

fn row<V>(engine: &str, algo: &str, r: &RunResult<V>) -> GoldenRow {
    GoldenRow {
        engine: engine.to_string(),
        algo: algo.to_string(),
        iterations: r.iterations,
        time_us: r.clock.total.time_us,
        barrier_us: r.clock.barrier_us,
        barriers: r.clock.barriers,
        count_local: r.clock.total.count_local,
        count_remote: r.clock.total.count_remote,
        bytes_local: r.clock.total.bytes_local,
        bytes_remote: r.clock.total.bytes_remote,
        miss_bytes_local: r.clock.total.miss_bytes_local,
        miss_bytes_remote: r.clock.total.miss_bytes_remote,
        count_by_pattern: r.clock.total.count_by_pattern,
    }
}

/// The fixed graphs of the golden matrix: a deterministic R-MAT and its
/// symmetrization (for CC).
pub fn golden_graphs() -> (Graph, Graph) {
    let el = gen::rmat(10, 8_000, gen::RMAT_GRAPH500, 7);
    let g = Graph::from_edges(&el);
    let mut sel = el;
    sel.symmetrize();
    (g, Graph::from_edges(&sel))
}

/// Run the full golden matrix with 4 threads, each cell on a fresh machine
/// built from `spec`. The committed fixture is [`MachineSpec::test2`]; any
/// accounting-only toggle set on top of it must reproduce the same rows.
pub fn golden_matrix(spec: &MachineSpec) -> Vec<GoldenRow> {
    let (g, sym) = golden_graphs();
    let mut rows = Vec::new();
    macro_rules! engines {
        ($graph:expr, $prog:expr, $algo:expr) => {
            for sys in SystemId::ALL {
                let m = Machine::new(spec.clone());
                let r = crate::with_engine!(sys, PolymerConfig::default(), |engine| {
                    engine.run(&m, 4, $graph, &$prog)
                });
                rows.push(row(sys.name(), $algo, &r));
            }
        };
    }
    engines!(&g, PageRank::new(g.num_vertices()), "PR");
    engines!(&g, Bfs::new(0), "BFS");
    engines!(&g, Sssp::new(0), "SSSP");
    engines!(&sym, ConnectedComponents::new(), "CC");
    rows
}
