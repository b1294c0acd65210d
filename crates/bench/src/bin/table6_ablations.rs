//! Table 6: Polymer's remaining two ablations.
//!
//! * (a) adaptive runtime states, on roadUS: traversal algorithms improve
//!   dramatically (the paper measures BFS 827 s → 1.16 s) because sparse
//!   frontiers stop paying full bitmap scans each of thousands of
//!   iterations; PR/SpMV/BP barely change (their frontiers stay dense).
//! * (b) edge-oriented balanced partitioning, on the skewed twitter graph:
//!   the paper measures 1.29×–3.67× across the six algorithms.

use polymer_api::Backend;
use polymer_bench::report::fmt_sec;
use polymer_bench::runner::{run, run_with};
use polymer_bench::{write_json, AlgoId, Args, SystemId, Table, Workload};
use polymer_core::PolymerConfig;
use polymer_graph::DatasetId;
use polymer_numa::{Machine, MachineSpec};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    experiment: &'static str,
    algo: AlgoId,
    without_sec: f64,
    with_sec: f64,
}

fn ablation(
    title: &str,
    experiment: &'static str,
    ds: DatasetId,
    scale: i32,
    without_cfg: PolymerConfig,
    rows: &mut Vec<Row>,
) {
    println!("{title}\n");
    let wl = Workload::prepare(ds, scale);
    let spec = MachineSpec::intel80();
    let mut table = Table::new(&["Algo", "w/o", "w/", "Speedup"]);
    for algo in AlgoId::ALL {
        eprintln!("[{experiment}] {} ...", algo.name());
        let machine = Machine::new(wl.scaled_spec(&spec));
        let (sys, sim) = (SystemId::Polymer, Backend::Simulated);
        let without = run_with(sys, algo, &wl, &machine, 80, &sim, true, without_cfg, None).0;
        let with = run(sys, algo, &wl, &spec, 80);
        table.row(vec![
            algo.name().to_string(),
            fmt_sec(without.seconds),
            fmt_sec(with.seconds),
            format!("{:.2}x", without.seconds / with.seconds),
        ]);
        rows.push(Row {
            experiment,
            algo,
            without_sec: without.seconds,
            with_sec: with.seconds,
        });
    }
    table.print();
    println!();
}

fn main() {
    let args = Args::parse(-2, "table6_ablations");
    let mut rows = Vec::new();

    ablation(
        &format!(
            "Table 6(a): adaptive runtime states, roadUS at scale {}",
            args.scale
        ),
        "adaptive_states",
        DatasetId::RoadUsS,
        args.scale,
        PolymerConfig {
            adaptive_states: false,
            ..PolymerConfig::default()
        },
        &mut rows,
    );
    println!(
        "Paper shape: ≤ 9% for PR/SpMV/BP; 713x / 15x / 5x class gains for\n\
         BFS / CC / SSSP (827→1.16, 868→57.5, 1720→341 seconds).\n"
    );

    ablation(
        &format!(
            "Table 6(b): edge-oriented balanced partitioning, twitter at scale {}",
            args.scale
        ),
        "balanced_partitioning",
        DatasetId::TwitterS,
        args.scale,
        PolymerConfig {
            balanced_partitioning: false,
            ..PolymerConfig::default()
        },
        &mut rows,
    );
    println!("Paper shape: 1.29x–3.67x across all six algorithms.");

    write_json(&args.out, "table6_ablations", &rows);
}
