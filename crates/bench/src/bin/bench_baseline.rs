//! Seed bench baseline: PageRank on all four systems with full per-phase
//! breakdowns, written to `BENCH_baseline_pagerank.json`.
//!
//! This is the first entry of the `BENCH_*` series — a pinned end-to-end
//! run whose `phases` / `per_iteration_sec` fields future sessions diff
//! against to spot simulated-time or breakdown regressions. The committed
//! copy in `results/` was produced with the defaults (`--scale 0`,
//! 80 threads on the Intel machine); see `results/README.md` and
//! `docs/OBSERVABILITY.md` for the field taxonomy.

use polymer_api::Backend;
use polymer_bench::report::fmt_sec;
use polymer_bench::runner::run_with;
use polymer_bench::{write_json_with_meta, AlgoId, Args, BenchMeta, SystemId, Table, Workload};
use polymer_core::PolymerConfig;
use polymer_graph::DatasetId;
use polymer_numa::{chrome_trace_json, Machine, MachineSpec};

fn main() {
    let args = Args::parse(0, "bench_baseline");
    let wl = Workload::prepare(DatasetId::Rmat24S, args.scale);
    let spec = MachineSpec::intel80();

    println!(
        "Bench baseline: PageRank on rmat24 (scale {}), 80 threads, Intel\n",
        args.scale
    );
    let mut table = Table::new(&["System", "Time(s)", "Barrier(s)", "Phases", "Iters"]);
    let mut rows = Vec::new();
    for sys in SystemId::ALL {
        eprintln!("[baseline] {} ...", sys.name());
        let machine = Machine::new(wl.scaled_spec(&spec));
        let (sim, cfg) = (Backend::Simulated, PolymerConfig::default());
        let (m, buf) = run_with(sys, AlgoId::PR, &wl, &machine, 80, &sim, true, cfg, None);
        table.row(vec![
            sys.name().to_string(),
            fmt_sec(m.seconds),
            fmt_sec(m.barrier_sec),
            m.phases.len().to_string(),
            m.iterations.to_string(),
        ]);
        if sys == SystemId::Polymer {
            if let Some(path) = &args.trace {
                std::fs::write(path, chrome_trace_json(&buf)).expect("write trace file");
                eprintln!("[baseline] trace written to {}", path.display());
            }
        }
        rows.push(m);
    }
    table.print();
    write_json_with_meta(
        &args.out,
        "BENCH_baseline_pagerank",
        &BenchMeta::capture(args.scale, &spec),
        &rows,
    );
}
