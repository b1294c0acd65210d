//! Figures 10 and 11, Table 6 and the two extension experiments: Polymer
//! with one design decision switched off against Polymer as shipped. The
//! shipped half of every pair is a `matrix_cell` — the very cells Table 3
//! reports.

use polymer_core::PolymerConfig;
use polymer_graph::{edge_balanced_ranges, vertex_balanced_ranges, DatasetId, PartitionStats, VId};
use polymer_numa::{phase_table, BarrierKind, MachineSpec};
use serde::Serialize;

use super::{matrix_cell, polymer_with, trace_polymer_pagerank};
use crate::report::fmt_sec;
use crate::{AlgoId, Metrics, Report, Session, SystemId, Table};

#[derive(Serialize)]
struct AblationRow {
    algo: AlgoId,
    without_sec: f64,
    with_sec: f64,
}

/// All six algorithms on `ds` without (`without_cfg`) and with the ablated
/// decision; prints the table under `header`.
fn ablation(
    s: &mut Session,
    tag: &str,
    header: &[&str],
    ds: DatasetId,
    without_cfg: PolymerConfig,
) -> Vec<AblationRow> {
    let mut table = Table::new(header);
    let mut rows = Vec::new();
    for algo in AlgoId::ALL {
        eprintln!("[{tag}] {} ...", algo.name());
        let without = polymer_with(s, algo, ds, without_cfg).0;
        let with = matrix_cell(s, SystemId::Polymer, algo, ds);
        table.row(vec![
            algo.name().to_string(),
            fmt_sec(without.seconds),
            fmt_sec(with.seconds),
            format!("{:.2}x", without.seconds / with.seconds),
        ]);
        rows.push(AblationRow {
            algo,
            without_sec: without.seconds,
            with_sec: with.seconds,
        });
    }
    table.print();
    rows
}

#[derive(Serialize)]
struct BarrierPoint {
    kind: String,
    sockets: usize,
    micros: f64,
}

/// Figure 10: (a) synchronization time of the three barrier families with
/// 1–8 sockets (10 threads per socket), and (b) Polymer's execution time
/// with and without the NUMA-aware barrier for all six algorithms on the
/// high-diameter roadUS graph — where thousands of iterations make barrier
/// cost dominant for traversals (the paper measures BFS improving 58.6×).
pub fn fig10_barrier(s: &mut Session) -> Report {
    // (a) Barrier cost by socket count (model calibrated to the paper's
    // measured endpoints; the real barrier implementations live in
    // polymer-sync and are stress-tested there).
    println!("Figure 10(a): synchronization time (µs) by socket count\n");
    let mut points = Vec::new();
    let mut table = Table::new(&["Sockets", "P-Barrier", "H-Barrier", "N-Barrier"]);
    for sockets in 1..=8 {
        let p = BarrierKind::Pthread.cost_us(sockets);
        let h = BarrierKind::Hierarchical.cost_us(sockets);
        let n = BarrierKind::SenseNuma.cost_us(sockets);
        table.row(vec![
            sockets.to_string(),
            format!("{p:.0}"),
            format!("{h:.0}"),
            format!("{n:.1}"),
        ]);
        for (kind, micros) in [("P-Barrier", p), ("H-Barrier", h), ("N-Barrier", n)] {
            points.push(BarrierPoint {
                kind: kind.to_string(),
                sockets,
                micros,
            });
        }
    }
    table.print();
    println!(
        "\nPaper endpoints: P 6182µs, H 612µs, N 8µs at eight sockets\n\
         (one order of magnitude per step).\n"
    );

    // (b) Polymer w/ and w/o the NUMA-aware barrier on roadUS.
    println!(
        "Figure 10(b): Polymer on roadUS (scale {}) w/o vs w/ NUMA-aware barrier\n",
        s.scale
    );
    let p_barrier = PolymerConfig {
        barrier: BarrierKind::Pthread,
        ..PolymerConfig::default()
    };
    let header = ["Algo", "w/o (P-Barrier)", "w/ (N-Barrier)", "Improvement"];
    let rows = ablation(s, "fig10b", &header, DatasetId::RoadUsS, p_barrier);
    println!(
        "\nPaper shape: ≤ 8% improvement for PR/SpMV/BP (few iterations) but\n\
         58.6x / 5.51x / 1.28x for BFS / CC / SSSP (thousands of barriers)."
    );

    // --trace <path>: export a Chrome-trace timeline of one traced Polymer
    // PageRank run on the same workload. The per-socket "barrier-wait" spans
    // in the `sockets` process sum (per lane) to the run's reported barrier
    // cost — the breakdown behind Figure 10(a); see docs/OBSERVABILITY.md.
    if let Some((m, buf)) = trace_polymer_pagerank(s, DatasetId::RoadUsS) {
        println!(
            "
Traced Polymer PageRank on {} (phase breakdown):
",
            DatasetId::RoadUsS.name()
        );
        print!("{}", phase_table(&buf));
        let per_socket = buf.barrier_wait_per_socket();
        println!(
            "
Reported barrier cost: {:.1}µs; each of the {} socket lanes waits {:.1}µs.
[trace written to {}]",
            m.barrier_sec * 1e6,
            per_socket.len(),
            per_socket.first().copied().unwrap_or(0.0),
            s.args.trace.as_ref().expect("traced").display()
        );
    }
    Report {
        rows: vec![
            ("fig10a_barrier_cost", points.to_value()),
            ("fig10b_barrier_ablation", rows.to_value()),
        ],
        meta: None,
        violations: Vec::new(),
    }
}

#[derive(Serialize)]
struct Table6Row {
    experiment: &'static str,
    algo: AlgoId,
    without_sec: f64,
    with_sec: f64,
}

/// Table 6: Polymer's remaining two ablations.
///
/// * (a) adaptive runtime states, on roadUS: traversal algorithms improve
///   dramatically (the paper measures BFS 827 s → 1.16 s) because sparse
///   frontiers stop paying full bitmap scans each of thousands of
///   iterations; PR/SpMV/BP barely change (their frontiers stay dense).
/// * (b) edge-oriented balanced partitioning, on the skewed twitter graph:
///   the paper measures 1.29×–3.67× across the six algorithms.
pub fn table6_ablations(s: &mut Session) -> Report {
    let header = ["Algo", "w/o", "w/", "Speedup"];
    let mut rows = Vec::new();
    let mut part = |s: &mut Session, experiment, ds, cfg| {
        let part = ablation(s, experiment, &header, ds, cfg);
        println!();
        rows.extend(part.into_iter().map(|r| Table6Row {
            experiment,
            algo: r.algo,
            without_sec: r.without_sec,
            with_sec: r.with_sec,
        }));
    };

    println!(
        "Table 6(a): adaptive runtime states, roadUS at scale {}\n",
        s.scale
    );
    let no_adaptive = PolymerConfig {
        adaptive_states: false,
        ..PolymerConfig::default()
    };
    part(s, "adaptive_states", DatasetId::RoadUsS, no_adaptive);
    println!(
        "Paper shape: ≤ 9% for PR/SpMV/BP; 713x / 15x / 5x class gains for\n\
         BFS / CC / SSSP (827→1.16, 868→57.5, 1720→341 seconds).\n"
    );

    println!(
        "Table 6(b): edge-oriented balanced partitioning, twitter at scale {}\n",
        s.scale
    );
    let unbalanced = PolymerConfig {
        balanced_partitioning: false,
        ..PolymerConfig::default()
    };
    part(s, "balanced_partitioning", DatasetId::TwitterS, unbalanced);
    println!("Paper shape: 1.29x–3.67x across all six algorithms.");
    Report::paper("table6_ablations", &rows)
}

#[derive(Serialize)]
struct BalanceOutput {
    deviation_unbalanced: Vec<f64>,
    deviation_balanced: Vec<f64>,
    per_socket_sec_unbalanced: Vec<f64>,
    per_socket_sec_balanced: Vec<f64>,
    total_sec_unbalanced: f64,
    total_sec_balanced: f64,
}

/// Figure 11: why balanced partitioning matters on the skewed twitter graph.
///
/// * (a) normalized per-socket edge-count deviation under default
///   (vertex-balanced) vs. edge-oriented balanced partitioning — the paper
///   narrows the spread to [-0.5%, +0.8%];
/// * (b) per-socket busy time for PageRank with and without balancing —
///   under synchronous scheduling the slowest socket sets the pace, and the
///   paper's unbalanced per-socket times range 4.16–9.32 s vs 4.72–4.86 s
///   balanced.
pub fn fig11_balance(s: &mut Session) -> Report {
    let wl = s.workload(DatasetId::TwitterS);
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
        s.scale
    );
    let mut table = Table::new(&["Socket", "w/o opt", "w/ opt"]);
    let dv = vs.normalized_deviation();
    let de = es.normalized_deviation();
    for socket in 0..sockets {
        table.row(vec![
            socket.to_string(),
            format!("{:+.2}%", dv[socket] * 100.0),
            format!("{:+.3}%", de[socket] * 100.0),
        ]);
    }
    table.print();
    println!(
        "\nmax |deviation|: w/o {:.1}%  w/ {:.2}%  (paper: w/ in [-0.5%, +0.8%])\n",
        vs.max_abs_deviation() * 100.0,
        es.max_abs_deviation() * 100.0
    );

    // (b) Per-socket busy times for PR.
    eprintln!("[fig11b] running PR with and without balancing ...");
    let unbalanced = PolymerConfig {
        balanced_partitioning: false,
        ..PolymerConfig::default()
    };
    let unbal = polymer_with(s, AlgoId::PR, DatasetId::TwitterS, unbalanced).0;
    let bal = matrix_cell(s, SystemId::Polymer, AlgoId::PR, DatasetId::TwitterS);

    println!("Figure 11(b): per-socket busy time (s) for PageRank\n");
    let mut table = Table::new(&["Socket", "w/o opt", "w/ opt"]);
    for socket in 0..sockets {
        let busy = |m: &Metrics| m.per_socket_sec.get(socket).copied().unwrap_or(0.0);
        table.row(vec![
            socket.to_string(),
            format!("{:.4}", busy(&unbal)),
            format!("{:.4}", busy(&bal)),
        ]);
    }
    table.print();
    println!(
        "\nwhole-run time: w/o {:.3}s  w/ {:.3}s (paper: per-socket spread\n\
         4.16–9.32s unbalanced vs 4.72–4.86s balanced; whole run ~2x better)",
        unbal.seconds, bal.seconds
    );
    Report::paper(
        "fig11_balance",
        &BalanceOutput {
            deviation_unbalanced: dv,
            deviation_balanced: de,
            per_socket_sec_unbalanced: unbal.per_socket_sec,
            per_socket_sec_balanced: bal.per_socket_sec,
            total_sec_unbalanced: unbal.seconds,
            total_sec_balanced: bal.seconds,
        },
    )
}

#[derive(Serialize)]
struct LayoutRow {
    config: &'static str,
    seconds: f64,
    remote_rate: f64,
}

/// Extension ablation (beyond the paper's Table 6): how much of Polymer's
/// win is *data placement* vs. *factored computation*?
///
/// Three configurations run PageRank on the twitter graph over 8 sockets:
///
/// 1. full Polymer (co-located placement + factored computation),
/// 2. factored computation with NUMA-oblivious placement (everything
///    interleaved, states centralized — Section 3.1's layout),
/// 3. the Ligra baseline for reference (neither).
///
/// The gap between (1) and (2) is the contribution of Table 1's
/// differential allocation alone.
pub fn layout_ablation(s: &mut Session) -> Report {
    let (pr, tw) = (AlgoId::PR, DatasetId::TwitterS);
    let no_placement = PolymerConfig {
        numa_aware_placement: false,
        ..PolymerConfig::default()
    };
    eprintln!("[layout_ablation] full polymer, factoring only, ligra baseline ...");
    let runs = [
        (
            "Polymer (placement + factoring)",
            matrix_cell(s, SystemId::Polymer, pr, tw),
        ),
        (
            "Polymer w/o NUMA placement",
            polymer_with(s, pr, tw, no_placement).0,
        ),
        ("Ligra (neither)", matrix_cell(s, SystemId::Ligra, pr, tw)),
    ];
    let mut rows = Vec::new();
    let mut table = Table::new(&["Configuration", "Time (s)", "Remote rate"]);
    for (config, m) in runs {
        table.row(vec![
            config.to_string(),
            format!("{:.4}", m.seconds),
            format!("{:.1}%", m.remote.access_rate_remote * 100.0),
        ]);
        rows.push(LayoutRow {
            config,
            seconds: m.seconds,
            remote_rate: m.remote.access_rate_remote,
        });
    }
    println!(
        "Layout ablation: PageRank, twitter at scale {}, 8 sockets x 10 cores\n",
        s.scale
    );
    table.print();
    println!(
        "\nExpected ordering: full Polymer fastest with the lowest remote\n\
         rate; removing placement forfeits most of the locality win even\n\
         with the computation still factored."
    );
    Report::paper("layout_ablation", &rows)
}

#[derive(Serialize)]
struct HugepageRow {
    page_kib: usize,
    seconds: f64,
    remote_rate: f64,
}

/// Extension experiment: "large pages may be harmful on NUMA systems"
/// (Gaud et al., USENIX ATC'14 — the paper's reference 21, cited in its
/// related-work discussion of placement).
///
/// Polymer's differential allocation places data at page granularity; with
/// 2 MiB transparent huge pages the placement becomes so coarse that
/// per-node partitions of the contiguous-virtual application data bleed
/// across nodes and small runtime states collapse onto single nodes —
/// recreating the hotspot/locality-loss effect the study measured, inside
/// our machine model.
pub fn ext_hugepages(s: &mut Session) -> Report {
    let mut rows = Vec::new();
    let mut table = Table::new(&["Page size", "Time (s)", "Remote rate"]);
    for page_bytes in [4 << 10, 64 << 10, 2 << 20] {
        let mut spec = MachineSpec::intel80();
        spec.page_bytes = page_bytes;
        eprintln!("[ext_hugepages] {} KiB pages ...", page_bytes >> 10);
        let m = s.run(
            SystemId::Polymer,
            AlgoId::PR,
            DatasetId::TwitterS,
            &spec,
            80,
        );
        table.row(vec![
            format!("{} KiB", page_bytes >> 10),
            format!("{:.4}", m.seconds),
            format!("{:.1}%", m.remote.access_rate_remote * 100.0),
        ]);
        rows.push(HugepageRow {
            page_kib: page_bytes >> 10,
            seconds: m.seconds,
            remote_rate: m.remote.access_rate_remote,
        });
    }
    println!(
        "Huge-page extension: Polymer PageRank, twitter at scale {}, 8 sockets\n",
        s.scale
    );
    table.print();
    println!(
        "\nExpected: larger pages coarsen placement, raising the remote rate\n\
         and runtime — the Gaud et al. effect, reproduced in the model."
    );
    Report::paper("ext_hugepages", &rows)
}
