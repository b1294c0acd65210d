//! The two `BENCH_*` artifacts over PageRank on rmat24 with 80 simulated
//! threads on the Intel machine: the pinned per-phase baseline, and the
//! simulator's own host time under its execution strategies.

use std::time::Instant;

use polymer_api::Backend;
use polymer_graph::DatasetId;
use polymer_numa::{MachineSpec, SimShardMode};
use serde::Serialize;

use super::trace_polymer_pagerank;
use crate::report::fmt_sec;
use crate::runner::{run, run_on};
use crate::{AlgoId, BenchMeta, Report, Session, SystemId, Table};

/// Seed bench baseline: PageRank on all four systems with full per-phase
/// breakdowns, written to `BENCH_baseline_pagerank.json`.
///
/// This is the first entry of the `BENCH_*` series — a pinned end-to-end
/// run whose `phases` / `per_iteration_sec` fields future sessions diff
/// against to spot simulated-time or breakdown regressions, and the place
/// to read a per-phase profile of each engine when calibrating the cost
/// model. The committed copy in `results/` was produced with the defaults
/// (`--scale 0`, 80 threads on the Intel machine); see `results/README.md`
/// and `docs/OBSERVABILITY.md` for the field taxonomy.
pub fn bench_baseline(s: &mut Session) -> Report {
    let spec = MachineSpec::intel80();
    println!(
        "Bench baseline: PageRank on rmat24 (scale {}), 80 threads, Intel\n",
        s.scale
    );
    let mut table = Table::new(&["System", "Time(s)", "Barrier(s)", "Phases", "Iters"]);
    let mut rows = Vec::new();
    for sys in SystemId::ALL {
        eprintln!("[baseline] {} ...", sys.name());
        let m = s.run(sys, AlgoId::PR, DatasetId::Rmat24S, &spec, 80);
        table.row(vec![
            sys.name().to_string(),
            fmt_sec(m.seconds),
            fmt_sec(m.barrier_sec),
            m.phases.len().to_string(),
            m.iterations.to_string(),
        ]);
        rows.push(m);
    }
    table.print();
    trace_polymer_pagerank(s, DatasetId::Rmat24S);
    let meta = s.meta(&spec);
    Report::bench("BENCH_baseline_pagerank", meta, &rows, Vec::new())
}

/// OS threads for the `RealThreads` baseline column. Fixed (rather than
/// host-dependent) so committed numbers are comparable across machines with
/// different core counts.
const REAL_THREADS: usize = 8;

/// Wall-clock outcome of one system under every execution strategy.
#[derive(Serialize)]
struct HotpathRow {
    system: String,
    /// Best-of-N host seconds with per-element (scalar) accounting.
    wall_scalar_sec: f64,
    /// Best-of-N host seconds with run-coalesced (bulk) accounting.
    wall_bulk_sec: f64,
    /// `wall_scalar_sec / wall_bulk_sec`.
    speedup: f64,
    /// Best-of-N host seconds with bulk accounting and per-socket shards on
    /// real host threads.
    wall_sharded_sec: f64,
    /// `wall_bulk_sec / wall_sharded_sec` (> 1 means sharding won).
    shard_speedup: f64,
    /// True when serial and sharded simulated metrics matched bit-for-bit.
    sharded_identical: bool,
    /// Best-of-N host seconds on the `RealThreads` backend with
    /// [`REAL_THREADS`] OS threads (no simulation, no accounting).
    wall_real_threads_sec: f64,
    /// Simulated seconds (identical across all accounting strategies by
    /// construction).
    sim_seconds: f64,
    iterations: usize,
    /// True when every metric field matched bit-for-bit across scalar and
    /// bulk accounting modes.
    identical: bool,
    /// Simulated bytes moved with the raw (uncompressed) topology.
    bytes_raw: u64,
    /// Simulated bytes moved with the delta/varint-compressed topology.
    bytes_compressed: u64,
    /// `1 - bytes_compressed / bytes_raw` (fraction of traffic saved).
    bytes_reduction: f64,
    /// Simulated seconds with the compressed topology.
    sim_seconds_compressed: f64,
    /// Host cores available to this run (sharded wall-clock needs > 1).
    host_cores: usize,
}

/// Hot-path benchmark: wall-clock of the simulator itself under its three
/// execution strategies, plus the simulated effect of topology compression.
///
/// Unlike every other experiment, the `wall_*` columns measure *host*
/// wall-clock, not simulated seconds: the subject is the reproduction's own
/// hot loop (see `docs/PERFORMANCE.md`), so these runs bypass the session's
/// cell cache. Three strategies are compared per system:
///
/// 1. **scalar** — per-element accounting, serial phase execution;
/// 2. **bulk** — run-coalesced accounting (`MachineSpec::bulk_accounting`),
///    serial;
/// 3. **sharded** — bulk accounting with per-socket shards on real host
///    threads ([`SimShardMode::On`]).
///
/// All three must produce bit-identical simulated metrics — a difference in
/// any metric field is a violation (`identical` gates scalar-vs-bulk,
/// `sharded_identical` gates serial-vs-sharded), as is a sharded pass that
/// took no time.
///
/// A final pass re-runs each system with the delta/varint-compressed
/// topology (`MachineSpec::compressed_topology`): values still conform, but
/// the simulated cost *changes by design* — neighbour lists occupy fewer
/// bytes, so the machine moves less data. The row records raw vs compressed
/// simulated bytes and the resulting simulated seconds; compression that
/// moves no fewer bytes is a violation.
///
/// The committed `results/BENCH_hotpath.json` was produced with the
/// defaults (`--scale 0`: 2^17 vertices, 2^21 edges). Each row also carries
/// a `wall_real_threads_sec` column: the same program through the same
/// dispatch on the `RealThreads` backend ([`REAL_THREADS`] OS threads) — a
/// real-parallelism wall-clock baseline. Sharded wall-clock only beats
/// serial on multi-core hosts; `host_cores` records what this run had.
pub fn bench_hotpath(s: &mut Session) -> Report {
    let wl = s.workload(DatasetId::Rmat24S);
    // The bulk-accounting, serial-phase spec every non-matrix pass runs on.
    let spec = MachineSpec::intel80().with_shard_mode(SimShardMode::Off);
    const REPS: usize = 2;
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "Hot-path strategies: PageRank on rmat24 (scale {}), 80 threads, Intel, {host_cores} host cores\n",
        s.scale
    );
    let mut table = Table::new(&[
        "System",
        "Scalar(s)",
        "Bulk(s)",
        "Speedup",
        "Sharded(s)",
        "ShardSpd",
        "Real(s)",
        "Identical",
        "BytesSaved",
    ]);
    let mut rows = Vec::new();
    let mut violations = Vec::new();
    let real_backend = Backend::real_threads();
    for sys in SystemId::ALL {
        eprintln!("[hotpath] {} ...", sys.name());
        // [scalar serial, bulk serial, bulk sharded]
        let modes = [
            (false, SimShardMode::Off),
            (true, SimShardMode::Off),
            (true, SimShardMode::On),
        ];
        let mut wall = [f64::MAX; 3];
        let mut metrics: Vec<String> = Vec::new();
        let mut last = None;
        for (slot, (bulk, shard)) in modes.into_iter().enumerate() {
            let spec = spec
                .clone()
                .with_bulk_accounting(bulk)
                .with_shard_mode(shard);
            for _ in 0..REPS {
                let t = Instant::now();
                let m = run(sys, AlgoId::PR, &wl, &spec, 80);
                wall[slot] = wall[slot].min(t.elapsed().as_secs_f64());
                if metrics.len() == slot {
                    // Serialized metrics are wall-clock free: every field is
                    // simulated and deterministic, so string equality is a
                    // bit-identity check across execution strategies.
                    metrics.push(serde_json::to_string(&m).expect("serialize metrics"));
                }
                last = Some(m);
            }
        }
        let mut wall_real = f64::MAX;
        for _ in 0..REPS {
            let t = Instant::now();
            run_on(sys, AlgoId::PR, &wl, &spec, REAL_THREADS, &real_backend);
            wall_real = wall_real.min(t.elapsed().as_secs_f64());
        }
        // Compressed-topology pass: simulated cost legitimately differs, so
        // it stays outside the bit-identity comparison.
        let compressed = spec.clone().with_compressed_topology(true);
        let mc = run(sys, AlgoId::PR, &wl, &compressed, 80);
        let identical = metrics[0] == metrics[1];
        let sharded_identical = metrics[1] == metrics[2];
        let m = last.expect("at least one run");
        if !(identical && sharded_identical) {
            violations.push(format!(
                "{}: simulated metrics diverged across execution strategies",
                sys.name()
            ));
        }
        if mc.bytes_moved >= m.bytes_moved {
            violations.push(format!(
                "{}: compressed topology moved no fewer bytes ({} vs {} raw)",
                sys.name(),
                mc.bytes_moved,
                m.bytes_moved
            ));
        }
        if wall[2] <= 0.0 {
            violations.push(format!("{}: sharded pass took no host time", sys.name()));
        }
        let reduction = 1.0 - mc.bytes_moved as f64 / m.bytes_moved as f64;
        table.row(vec![
            sys.name().to_string(),
            format!("{:.3}", wall[0]),
            format!("{:.3}", wall[1]),
            format!("{:.2}x", wall[0] / wall[1]),
            format!("{:.3}", wall[2]),
            format!("{:.2}x", wall[1] / wall[2]),
            format!("{:.3}", wall_real),
            (identical && sharded_identical).to_string(),
            format!("{:.1}%", reduction * 100.0),
        ]);
        rows.push(HotpathRow {
            system: sys.name().to_string(),
            wall_scalar_sec: wall[0],
            wall_bulk_sec: wall[1],
            speedup: wall[0] / wall[1],
            wall_sharded_sec: wall[2],
            shard_speedup: wall[1] / wall[2],
            sharded_identical,
            wall_real_threads_sec: wall_real,
            sim_seconds: m.seconds,
            iterations: m.iterations,
            identical,
            bytes_raw: m.bytes_moved,
            bytes_compressed: mc.bytes_moved,
            bytes_reduction: reduction,
            sim_seconds_compressed: mc.seconds,
            host_cores,
        });
    }
    table.print();
    // The matrix runs both shard modes; the meta block says so instead of
    // reporting the base spec's `Off`.
    let meta = BenchMeta {
        shard_mode: "Off|On".to_string(),
        ..s.meta(&spec)
    };
    Report::bench("BENCH_hotpath", meta, &rows, violations)
}
