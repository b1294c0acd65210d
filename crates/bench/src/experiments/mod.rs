//! The experiment registry: every table, figure and `BENCH_*` artifact is
//! one [`Experiment`] row. Rows print their human-readable tables on stdout
//! as they go and return a [`Report`]; `main` does the rest.

use polymer_api::Backend;
use polymer_core::PolymerConfig;
use polymer_graph::DatasetId;
use polymer_numa::{chrome_trace_json, Machine, MachineSpec, TraceBuffer};

use crate::golden::golden_matrix;
use crate::runner::{run_with, AlgoId, Metrics, SystemId};
use crate::{Report, Session};

mod ablations;
mod chaos;
mod hotpath;
mod incremental;
mod machine;
mod matrix;
mod scaling;
mod tiering;

/// One row of the registry.
pub struct Experiment {
    /// The subcommand, and the stem of the artifact it writes.
    pub name: &'static str,
    /// Dataset scale shift when `--scale` is absent.
    pub default_scale: i32,
    /// One line for `polymer-bench list`.
    pub about: &'static str,
    /// The experiment itself.
    pub run: fn(&mut Session) -> Report,
}

/// Every experiment, in the paper's order; `polymer-bench all` runs them
/// top to bottom.
pub const EXPERIMENTS: [Experiment; 20] = [
    Experiment {
        name: "fig3_latency",
        default_scale: 0,
        about: "Fig 3(b): load/store latency by hop distance",
        run: machine::fig3_latency,
    },
    Experiment {
        name: "fig4_bandwidth",
        default_scale: 0,
        about: "Fig 4: sequential vs random bandwidth by distance",
        run: machine::fig4_bandwidth,
    },
    Experiment {
        name: "fig5_scaling",
        default_scale: 0,
        about: "Fig 5(a-d): core and socket scaling of the baselines",
        run: scaling::fig5_scaling,
    },
    Experiment {
        name: "table3_runtimes",
        default_scale: -2,
        about: "Table 3: 6 algorithms x 5 datasets x 4 systems, 80 threads",
        run: matrix::table3_runtimes,
    },
    Experiment {
        name: "fig7_pagerank_intel",
        default_scale: 0,
        about: "Fig 7: PageRank socket scaling, Intel",
        run: scaling::fig7_pagerank_intel,
    },
    Experiment {
        name: "fig8_pagerank_amd",
        default_scale: 0,
        about: "Fig 8: PageRank socket scaling, AMD",
        run: scaling::fig8_pagerank_amd,
    },
    Experiment {
        name: "fig9_bfs_intel",
        default_scale: 0,
        about: "Fig 9: BFS socket scaling, Intel",
        run: scaling::fig9_bfs_intel,
    },
    Experiment {
        name: "table4_remote_accesses",
        default_scale: -2,
        about: "Table 4: remote-access profile, PR and BFS on twitter",
        run: matrix::table4_remote_accesses,
    },
    Experiment {
        name: "table5_memory",
        default_scale: -2,
        about: "Table 5: peak memory for PageRank",
        run: matrix::table5_memory,
    },
    Experiment {
        name: "fig10_barrier",
        default_scale: -2,
        about: "Fig 10: barrier families; Polymer w/o vs w/ the NUMA barrier (--trace)",
        run: ablations::fig10_barrier,
    },
    Experiment {
        name: "table6_ablations",
        default_scale: -2,
        about: "Table 6: adaptive states and balanced partitioning",
        run: ablations::table6_ablations,
    },
    Experiment {
        name: "fig11_balance",
        default_scale: -2,
        about: "Fig 11: per-socket balance on the skewed twitter graph",
        run: ablations::fig11_balance,
    },
    Experiment {
        name: "layout_ablation",
        default_scale: 0,
        about: "extension: data placement vs factored computation",
        run: ablations::layout_ablation,
    },
    Experiment {
        name: "ext_hugepages",
        default_scale: 0,
        about: "extension: huge pages coarsen placement",
        run: ablations::ext_hugepages,
    },
    Experiment {
        name: "golden_phasecosts",
        default_scale: 0,
        about: "the golden PhaseCost fixture tests/conformance.rs replays",
        run: golden_phasecosts,
    },
    Experiment {
        name: "bench_baseline",
        default_scale: 0,
        about: "BENCH seed: PageRank x 4 systems with phase breakdowns (--trace)",
        run: hotpath::bench_baseline,
    },
    Experiment {
        name: "bench_hotpath",
        default_scale: 0,
        about: "simulator host time under scalar/bulk/sharded accounting; compressed bytes",
        run: hotpath::bench_hotpath,
    },
    Experiment {
        name: "bench_chaos",
        default_scale: 0,
        about: "supervised recovery: fault scenarios x 4 systems against the oracle",
        run: chaos::bench_chaos,
    },
    Experiment {
        name: "bench_incremental",
        default_scale: 0,
        about: "warm-start vs scratch over mutation batches, oracle-checked",
        run: incremental::bench_incremental,
    },
    Experiment {
        name: "bench_tiering",
        default_scale: 0,
        about: "tiered-memory ablation: fast-only / tiered policies / slow-only",
        run: tiering::bench_tiering,
    },
];

/// The golden PhaseCost fixture generator — see [`crate::golden`] for when
/// (not) to regenerate `golden_phasecosts.json`.
fn golden_phasecosts(_: &mut Session) -> Report {
    Report::paper("golden_phasecosts", &golden_matrix(&MachineSpec::test2()))
}

/// One cell of the Table 3 matrix — `algo` on `ds`, 80 threads, the full
/// Intel machine — which the ablations also report as their shipped half.
fn matrix_cell(s: &mut Session, sys: SystemId, algo: AlgoId, ds: DatasetId) -> Metrics {
    s.run(sys, algo, ds, &MachineSpec::intel80(), 80)
}

/// A traced Polymer run of `algo` on the full Intel machine under `config`,
/// with its timeline — the "without" half of every ablation (the "with"
/// half is a [`matrix_cell`]).
fn polymer_with(
    s: &mut Session,
    algo: AlgoId,
    ds: DatasetId,
    config: PolymerConfig,
) -> (Metrics, TraceBuffer) {
    let wl = s.workload(ds);
    let machine = Machine::new(wl.scaled_spec(&MachineSpec::intel80()));
    let (sys, sim) = (SystemId::Polymer, Backend::Simulated);
    run_with(sys, algo, &wl, &machine, 80, &sim, true, config, None)
}

/// `--trace <path>`: write the Chrome-trace timeline of one traced Polymer
/// PageRank run on `ds`, returning the run for callers that print from it.
fn trace_polymer_pagerank(s: &mut Session, ds: DatasetId) -> Option<(Metrics, TraceBuffer)> {
    let path = s.args.trace.clone()?;
    eprintln!("[trace] tracing Polymer PageRank for {}", path.display());
    let (m, buf) = polymer_with(s, AlgoId::PR, ds, PolymerConfig::default());
    std::fs::write(&path, chrome_trace_json(&buf)).expect("write trace file");
    Some((m, buf))
}
