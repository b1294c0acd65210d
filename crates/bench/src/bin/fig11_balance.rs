//! Figure 11: why balanced partitioning matters on the skewed twitter graph.
//!
//! * (a) normalized per-socket edge-count deviation under default
//!   (vertex-balanced) vs. edge-oriented balanced partitioning — the paper
//!   narrows the spread to [-0.5%, +0.8%];
//! * (b) per-socket busy time for PageRank with and without balancing —
//!   under synchronous scheduling the slowest socket sets the pace, and the
//!   paper's unbalanced per-socket times range 4.16–9.32 s vs 4.72–4.86 s
//!   balanced.

use polymer_api::Backend;
use polymer_bench::runner::{run, run_with};
use polymer_bench::{write_json, AlgoId, Args, SystemId, Table, Workload};
use polymer_core::PolymerConfig;
use polymer_graph::{edge_balanced_ranges, vertex_balanced_ranges, DatasetId, PartitionStats, VId};
use polymer_numa::{Machine, MachineSpec};
use serde::Serialize;

#[derive(Serialize)]
struct Output {
    deviation_unbalanced: Vec<f64>,
    deviation_balanced: Vec<f64>,
    per_socket_sec_unbalanced: Vec<f64>,
    per_socket_sec_balanced: Vec<f64>,
    total_sec_unbalanced: f64,
    total_sec_balanced: f64,
}

fn main() {
    let args = Args::parse(-2, "fig11_balance");
    let wl = Workload::prepare(DatasetId::TwitterS, args.scale);
    let g = &wl.graph;
    let sockets = 8;

    // (a) Partition balance. Polymer's push-primary PR layout places edges
    // with their targets, so in-degree is the per-vertex work measure.
    let work: Vec<u32> = (0..g.num_vertices())
        .map(|v| g.in_degree(v as VId) as u32)
        .collect();
    let vr = vertex_balanced_ranges(g.num_vertices(), sockets);
    let er = edge_balanced_ranges(&work, sockets);
    let vs = PartitionStats::compute(&work, &vr);
    let es = PartitionStats::compute(&work, &er);

    println!(
        "Figure 11(a): normalized edge deviation per socket, twitter at scale {}\n",
        args.scale
    );
    let mut table = Table::new(&["Socket", "w/o opt", "w/ opt"]);
    let dv = vs.normalized_deviation();
    let de = es.normalized_deviation();
    for s in 0..sockets {
        table.row(vec![
            s.to_string(),
            format!("{:+.2}%", dv[s] * 100.0),
            format!("{:+.3}%", de[s] * 100.0),
        ]);
    }
    table.print();
    println!(
        "\nmax |deviation|: w/o {:.1}%  w/ {:.2}%  (paper: w/ in [-0.5%, +0.8%])\n",
        vs.max_abs_deviation() * 100.0,
        es.max_abs_deviation() * 100.0
    );

    // (b) Per-socket busy times for PR.
    let spec = MachineSpec::intel80();
    eprintln!("[fig11b] running PR with and without balancing ...");
    let unbalanced = PolymerConfig {
        balanced_partitioning: false,
        ..PolymerConfig::default()
    };
    let machine = Machine::new(wl.scaled_spec(&spec));
    let (sys, pr, sim) = (SystemId::Polymer, AlgoId::PR, Backend::Simulated);
    let unbal = run_with(sys, pr, &wl, &machine, 80, &sim, true, unbalanced, None).0;
    let bal = run(sys, pr, &wl, &spec, 80);

    println!("Figure 11(b): per-socket busy time (s) for PageRank\n");
    let mut table = Table::new(&["Socket", "w/o opt", "w/ opt"]);
    for s in 0..sockets {
        table.row(vec![
            s.to_string(),
            format!("{:.4}", unbal.per_socket_sec.get(s).copied().unwrap_or(0.0)),
            format!("{:.4}", bal.per_socket_sec.get(s).copied().unwrap_or(0.0)),
        ]);
    }
    table.print();
    println!(
        "\nwhole-run time: w/o {:.3}s  w/ {:.3}s (paper: per-socket spread\n\
         4.16–9.32s unbalanced vs 4.72–4.86s balanced; whole run ~2x better)",
        unbal.seconds, bal.seconds
    );

    write_json(
        &args.out,
        "fig11_balance",
        &Output {
            deviation_unbalanced: dv,
            deviation_balanced: de,
            per_socket_sec_unbalanced: unbal.per_socket_sec.clone(),
            per_socket_sec_balanced: bal.per_socket_sec.clone(),
            total_sec_unbalanced: unbal.seconds,
            total_sec_balanced: bal.seconds,
        },
    );
}
