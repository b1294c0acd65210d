//! Figures 5, 7, 8 and 9: one sweep — a list of machine shapes, every
//! system's runtime and speedup over the first shape — instantiated for
//! cores within a socket and for sockets on both machine models. Figure
//! 5's socket panels are the baseline columns of Figures 7 and 8, so in one
//! process those cells are simulated once.

use polymer_graph::DatasetId;
use polymer_numa::MachineSpec;
use serde::Serialize;

use crate::{AlgoId, Report, Session, SystemId, Table};

/// One machine shape of a sweep: (units on the x axis, spec, threads).
type Shape = (usize, MachineSpec, usize);

/// `spec` cut down to 1–8 sockets of `cores_per_socket` cores each.
fn socket_shapes(spec: &MachineSpec, cores_per_socket: usize) -> Vec<Shape> {
    (1..=8)
        .map(|s| (s, spec.subset(s, cores_per_socket), s * cores_per_socket))
        .collect()
}

/// Run `algo` on twitter for every system at every shape. Returns the
/// printed table (seconds to `decimals` places, speedup over the first
/// shape) and one `(system, units, seconds, speedup)` point per cell.
fn scaling_sweep(
    s: &mut Session,
    systems: &[SystemId],
    algo: AlgoId,
    unit: &str,
    shapes: &[Shape],
    decimals: usize,
) -> (Table, Vec<(SystemId, usize, f64, f64)>) {
    let header: Vec<&str> = std::iter::once(unit)
        .chain(systems.iter().map(|sys| sys.name()))
        .collect();
    let mut table = Table::new(&header);
    let mut points = Vec::new();
    let mut base = vec![0.0f64; systems.len()];
    for (i, (units, spec, threads)) in shapes.iter().enumerate() {
        let mut cells = vec![units.to_string()];
        for (k, &sys) in systems.iter().enumerate() {
            let m = s.run(sys, algo, DatasetId::TwitterS, spec, *threads);
            if i == 0 {
                base[k] = m.seconds;
            }
            let speedup = base[k] / m.seconds;
            cells.push(format!("{:.decimals$}s ({speedup:.2}x)", m.seconds));
            points.push((sys, *units, m.seconds, speedup));
        }
        table.row(cells);
    }
    (table, points)
}

#[derive(Serialize)]
struct PanelPoint {
    panel: &'static str,
    system: SystemId,
    units: usize,
    seconds: f64,
    speedup: f64,
}

/// Figure 5: scalability of the NUMA-oblivious baselines (Ligra, X-Stream,
/// Galois) running PageRank on the twitter-like graph:
///
/// * (a) speedup with 1–10 cores within one socket (Intel);
/// * (b)/(c) speedup and execution time with 1–8 sockets × 10 cores (Intel);
/// * (d) speedup with 1–8 sockets × 8 cores (AMD).
///
/// The paper's observation to reproduce: good core scaling inside a socket,
/// poor socket scaling (Galois ≈ 2.9× at 8 sockets); on AMD, X-Stream and
/// Galois degrade beyond 4 sockets where HyperTransport adds a second hop.
pub fn fig5_scaling(s: &mut Session) -> Report {
    const BASELINES: [SystemId; 3] = [SystemId::Ligra, SystemId::XStream, SystemId::Galois];
    println!(
        "Figure 5: baseline scalability, PageRank on twitter (scale {})\n",
        s.scale
    );
    let intel = MachineSpec::intel80();
    let panels: [(&'static str, Vec<Shape>); 3] = [
        (
            "(a) cores within one socket (Intel)",
            (1..=10).map(|c| (c, intel.subset(1, c), c)).collect(),
        ),
        (
            "(b,c) sockets x 10 cores (Intel)",
            socket_shapes(&intel, 10),
        ),
        (
            "(d) sockets x 8 cores (AMD)",
            socket_shapes(&MachineSpec::amd64(), 8),
        ),
    ];
    let mut rows = Vec::new();
    for (panel, shapes) in panels {
        let (table, points) = scaling_sweep(s, &BASELINES, AlgoId::PR, "Units", &shapes, 2);
        println!("{panel}:");
        table.print();
        println!();
        rows.extend(
            points
                .into_iter()
                .map(|(system, units, seconds, speedup)| PanelPoint {
                    panel,
                    system,
                    units,
                    seconds,
                    speedup,
                }),
        );
    }
    println!(
        "Paper shape: within-socket scaling up to ~6.9x at 8-10 cores; socket\n\
         scaling flattens (Galois 2.90x at 8 sockets); AMD degrades past 4."
    );
    Report::paper("fig5_scaling", &rows)
}

#[derive(Serialize)]
struct SocketPoint {
    system: SystemId,
    sockets: usize,
    seconds: f64,
    speedup: f64,
}

/// Figures 7–9 share a body: all four systems over 1–8 sockets of `spec`.
/// Prints `title` and the table, returns the points and Polymer's speedup
/// at eight sockets (the headline number of Figures 7 and 8).
fn socket_figure(
    s: &mut Session,
    title: &str,
    algo: AlgoId,
    spec: &MachineSpec,
    cores_per_socket: usize,
    decimals: usize,
) -> (Vec<SocketPoint>, f64) {
    println!("{title},\ntwitter at scale {}\n", s.scale);
    let shapes = socket_shapes(spec, cores_per_socket);
    let (table, points) = scaling_sweep(s, &SystemId::ALL, algo, "Sockets", &shapes, decimals);
    table.print();
    let rows: Vec<SocketPoint> = points
        .into_iter()
        .map(|(system, sockets, seconds, speedup)| SocketPoint {
            system,
            sockets,
            seconds,
            speedup,
        })
        .collect();
    let poly8 = rows
        .iter()
        .find(|p| p.system == SystemId::Polymer && p.sockets == 8)
        .map_or(0.0, |p| p.speedup);
    (rows, poly8)
}

/// Figure 7: PageRank execution time and normalized speedup with 1–8
/// sockets (full cores) on the Intel machine model, all four systems.
/// The headline to reproduce: Polymer scales super-linearly (the paper
/// measures 12.1× at 8 sockets — shrinking per-socket partitions fall into
/// the last-level caches) and beats Ligra/X-Stream/Galois at full scale.
pub fn fig7_pagerank_intel(s: &mut Session) -> Report {
    let title = "Figure 7: PageRank scaling with sockets (Intel, 10 cores each)";
    let (rows, poly8) = socket_figure(s, title, AlgoId::PR, &MachineSpec::intel80(), 10, 3);
    println!(
        "\nPolymer speedup at 8 sockets: {poly8:.2}x (paper: 12.1x, super-linear).\n\
         Paper full-scale margins: 2.84x over Ligra, 5.45x over X-Stream,\n\
         2.19x over Galois."
    );
    Report::paper("fig7_pagerank_intel", &rows)
}

/// Figure 8: PageRank execution time and normalized speedup with 1–8
/// sockets (8 cores each) on the AMD machine model, all four systems. The
/// paper measures Polymer at 6.01× on AMD — lower than on Intel due to the
/// smaller last-level cache (16 vs 24 MiB) and the HyperTransport topology
/// where multi-chip modules share bandwidth.
pub fn fig8_pagerank_amd(s: &mut Session) -> Report {
    let title = "Figure 8: PageRank scaling with sockets (AMD, 8 cores each)";
    let (rows, poly8) = socket_figure(s, title, AlgoId::PR, &MachineSpec::amd64(), 8, 3);
    println!(
        "\nPolymer speedup at 8 sockets: {poly8:.2}x (paper: 6.01x on AMD vs 12.1x on Intel)."
    );
    Report::paper("fig8_pagerank_amd", &rows)
}

/// Figure 9: BFS execution time and normalized speedup with 1–8 sockets
/// (full cores) on the Intel machine model, all four systems. BFS scales
/// poorly everywhere (few active vertices per iteration ⇒ few memory
/// accesses to parallelize), but Polymer still leads at 8 sockets; the
/// paper omits X-Stream's times from the execution-time panel because they
/// are off the chart (69.4 s → 28.7 s).
pub fn fig9_bfs_intel(s: &mut Session) -> Report {
    let title = "Figure 9: BFS scaling with sockets (Intel, 10 cores each)";
    let (rows, _) = socket_figure(s, title, AlgoId::BFS, &MachineSpec::intel80(), 10, 4);
    println!(
        "\nPaper shape: all systems scale modestly on BFS; Polymer best at 8\n\
         sockets; X-Stream an order of magnitude slower throughout."
    );
    Report::paper("fig9_bfs_intel", &rows)
}
