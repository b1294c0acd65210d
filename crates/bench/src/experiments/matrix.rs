//! Tables 3, 4 and 5: three projections of one matrix — every (algorithm,
//! dataset, system) cell with 80 threads on the 80-core Intel machine
//! model. Table 3 reports all 120 cells' runtimes, Table 4 the remote-access
//! profile of the PR and BFS cells on twitter, Table 5 the peak memory of
//! the PR cells; a cell two of them report is simulated once per process.

use polymer_graph::DatasetId;
use polymer_numa::MachineSpec;

use super::matrix_cell;
use crate::report::fmt_sec;
use crate::{AlgoId, Metrics, Report, Session, SystemId, Table};

/// The four systems' cells of one (algorithm, dataset) matrix row, in the
/// paper's column order.
fn matrix_row(s: &mut Session, algo: AlgoId, ds: DatasetId) -> Vec<Metrics> {
    SystemId::ALL
        .iter()
        .map(|&sys| matrix_cell(s, sys, algo, ds))
        .collect()
}

/// Table 3: runtimes (seconds) of the six algorithms over the five datasets
/// with 80 threads on the 80-core Intel machine model, for all four systems.
/// The best time per (algorithm, graph) row is marked with `*` (the paper
/// prints it red). Galois runs its own algorithm variants for CC
/// (union-find) and SSSP (delta-stepping), as the paper's footnote notes.
pub fn table3_runtimes(s: &mut Session) -> Report {
    let mut all: Vec<Metrics> = Vec::new();
    let mut table = Table::new(&["Algo", "Graph", "Polymer", "Ligra", "X-Stream", "Galois"]);
    for algo in AlgoId::ALL {
        for ds in DatasetId::ALL {
            eprintln!("[table3] {} / {} ...", algo.name(), ds.name());
            let row = matrix_row(s, algo, ds);
            let best = row.iter().map(|m| m.seconds).fold(f64::INFINITY, f64::min);
            let mut cells = vec![algo.name().to_string(), ds.name().to_string()];
            for m in &row {
                let mark = if m.seconds == best { "*" } else { "" };
                cells.push(format!("{}{}", fmt_sec(m.seconds), mark));
            }
            table.row(cells);
            all.extend(row);
        }
    }

    println!(
        "Table 3: runtimes (simulated seconds) with 80 threads on the\n\
         {} machine model, datasets at scale shift {} (* = best in row)\n",
        MachineSpec::intel80().name,
        s.scale
    );
    table.print();
    println!(
        "\nPaper shape to verify: Polymer best on nearly all PR/SpMV/BP rows;\n\
         Ligra close behind on traversals; X-Stream pathological on roadUS\n\
         traversals; Galois wins CC and SSSP on roadUS (different algorithms)."
    );
    Report::paper("table3_runtimes", &all)
}

/// Table 4: remote access rate, absolute remote access count, and the LLC
/// miss rate due to remote accesses, for PageRank and BFS on the twitter
/// graph across all four systems (full Intel machine). The paper's claim:
/// Polymer has by far the fewest remote accesses (co-location + factored
/// computation) and the lowest remote-attributed miss rate (its remaining
/// remote accesses are sequential).
pub fn table4_remote_accesses(s: &mut Session) -> Report {
    let mut all: Vec<Metrics> = Vec::new();
    println!(
        "Table 4: remote-access profile, twitter at scale {}, 80 threads\n",
        s.scale
    );
    for algo in [AlgoId::PR, AlgoId::BFS] {
        let mut table = Table::new(&["Metric", "Polymer", "Ligra", "X-Stream", "Galois"]);
        let row = matrix_row(s, algo, DatasetId::TwitterS);
        let mut metric = |name: &str, cell: &dyn Fn(&Metrics) -> String| {
            table.row(
                std::iter::once(name.to_string())
                    .chain(row.iter().map(cell))
                    .collect(),
            );
        };
        metric("Access Rate/R", &|m| {
            format!("{:.1}%", m.remote.access_rate_remote * 100.0)
        });
        metric("Num. Accesses/R", &|m| {
            format!("{:.1}M", m.remote.num_accesses_remote as f64 / 1e6)
        });
        metric("LLC Miss Rate/R", &|m| {
            format!("{:.2}%", m.remote.llc_miss_rate_remote * 100.0)
        });
        println!("({})", algo.name());
        table.print();
        println!();
        all.extend(row);
    }
    println!(
        "Paper reference (PR): rates 37.5/83.3/47.4/83.6%, counts\n\
         3090/6116/5016/7887M, miss rates 3.94/9.47/8.67/13.17%. Shape to\n\
         verify: Polymer lowest on every metric; Galois highest rate."
    );
    Report::paper("table4_remote_accesses", &all)
}

/// Table 5: peak memory usage for PageRank with 80 threads over the five
/// datasets, all four systems; Polymer's agent-replica share is shown in
/// brackets, as in the paper. Shape to verify: X-Stream consumes the most
/// (shuffle buffers); Polymer ≈ Ligra plus a bounded agent overhead (the
/// paper reports < 30% except roadUS at 38.3%, where the edge-to-vertex
/// ratio is lowest); Galois leanest.
pub fn table5_memory(s: &mut Session) -> Report {
    let mut all: Vec<Metrics> = Vec::new();
    println!(
        "Table 5: peak memory (GiB) for PageRank, datasets at scale {}\n",
        s.scale
    );
    let mut table = Table::new(&["Graph", "Polymer(agent)", "Ligra", "X-Stream", "Galois"]);
    for ds in DatasetId::ALL {
        eprintln!("[table5] {} ...", ds.name());
        let row = matrix_row(s, AlgoId::PR, ds);
        table.row(vec![
            ds.name().to_string(),
            format!("{:.3}({:.3})", row[0].peak_gib, row[0].agents_gib),
            format!("{:.3}", row[1].peak_gib),
            format!("{:.3}", row[2].peak_gib),
            format!("{:.3}", row[3].peak_gib),
        ]);
        all.extend(row);
    }
    table.print();
    println!(
        "\nPaper reference (twitter): Polymer 39.2(2.95), Ligra 37.0,\n\
         X-Stream 39.9, Galois 25.1 GB. Shape: X-Stream largest, Polymer\n\
         slightly above Ligra with the delta mostly from agents."
    );
    Report::paper("table5_memory", &all)
}
