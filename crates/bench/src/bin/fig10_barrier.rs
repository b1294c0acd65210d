//! Figure 10: (a) synchronization time of the three barrier families with
//! 1–8 sockets (10 threads per socket), and (b) Polymer's execution time
//! with and without the NUMA-aware barrier for all six algorithms on the
//! high-diameter roadUS graph — where thousands of iterations make barrier
//! cost dominant for traversals (the paper measures BFS improving 58.6×).

use polymer_api::Backend;
use polymer_bench::report::fmt_sec;
use polymer_bench::runner::{run, run_with};
use polymer_bench::{write_json, AlgoId, Args, SystemId, Table, Workload};
use polymer_core::PolymerConfig;
use polymer_graph::DatasetId;
use polymer_numa::{chrome_trace_json, phase_table, BarrierKind, Machine, MachineSpec};
use serde::Serialize;

#[derive(Serialize)]
struct BarrierPoint {
    kind: String,
    sockets: usize,
    micros: f64,
}

#[derive(Serialize)]
struct AblationRow {
    algo: AlgoId,
    without_sec: f64,
    with_sec: f64,
}

fn main() {
    let args = Args::parse(-2, "fig10_barrier");

    // (a) Barrier cost by socket count (model calibrated to the paper's
    // measured endpoints; the real barrier implementations live in
    // polymer-sync and are stress-tested there).
    println!("Figure 10(a): synchronization time (µs) by socket count\n");
    let mut points = Vec::new();
    let mut table = Table::new(&["Sockets", "P-Barrier", "H-Barrier", "N-Barrier"]);
    for s in 1..=8 {
        let p = BarrierKind::Pthread.cost_us(s);
        let h = BarrierKind::Hierarchical.cost_us(s);
        let n = BarrierKind::SenseNuma.cost_us(s);
        table.row(vec![
            s.to_string(),
            format!("{p:.0}"),
            format!("{h:.0}"),
            format!("{n:.1}"),
        ]);
        for (kind, us) in [("P-Barrier", p), ("H-Barrier", h), ("N-Barrier", n)] {
            points.push(BarrierPoint {
                kind: kind.to_string(),
                sockets: s,
                micros: us,
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
        args.scale
    );
    let wl = Workload::prepare(DatasetId::RoadUsS, args.scale);
    let spec = MachineSpec::intel80();
    let mut rows = Vec::new();
    let mut table = Table::new(&["Algo", "w/o (P-Barrier)", "w/ (N-Barrier)", "Improvement"]);
    for algo in AlgoId::ALL {
        eprintln!("[fig10b] {} ...", algo.name());
        let p_barrier = PolymerConfig {
            barrier: BarrierKind::Pthread,
            ..PolymerConfig::default()
        };
        let machine = Machine::new(wl.scaled_spec(&spec));
        let (sys, sim) = (SystemId::Polymer, Backend::Simulated);
        let without = run_with(sys, algo, &wl, &machine, 80, &sim, true, p_barrier, None).0;
        let with = run(sys, algo, &wl, &spec, 80);
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
    println!(
        "\nPaper shape: ≤ 8% improvement for PR/SpMV/BP (few iterations) but\n\
         58.6x / 5.51x / 1.28x for BFS / CC / SSSP (thousands of barriers)."
    );
    write_json(&args.out, "fig10a_barrier_cost", &points);
    write_json(&args.out, "fig10b_barrier_ablation", &rows);

    // --trace <path>: export a Chrome-trace timeline of one traced Polymer
    // PageRank run on the same workload. The per-socket "barrier-wait" spans
    // in the `sockets` process sum (per lane) to the run's reported barrier
    // cost — the breakdown behind Figure 10(a); see docs/OBSERVABILITY.md.
    if let Some(path) = &args.trace {
        eprintln!("[fig10] tracing Polymer PageRank for {}", path.display());
        let machine = Machine::new(wl.scaled_spec(&spec));
        let (sys, sim, cfg) = (
            SystemId::Polymer,
            Backend::Simulated,
            PolymerConfig::default(),
        );
        let (m, buf) = run_with(sys, AlgoId::PR, &wl, &machine, 80, &sim, true, cfg, None);
        std::fs::write(path, chrome_trace_json(&buf)).expect("write trace file");
        println!(
            "
Traced Polymer PageRank on {} (phase breakdown):
",
            wl.id.name()
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
            path.display()
        );
    }
}
