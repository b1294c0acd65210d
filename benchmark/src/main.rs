//! The repository benchmark. See `README.md` beside this package for what
//! each workload is, why it was chosen, and what every metric means.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! Prints `workload metric value unit` per metric, then one JSON object as
//! the last line of standard output. Exit code 0 means every answer was
//! correct; 1 means at least one was not; 2 is a usage error.

mod batch;
mod harness;
mod inputs;
mod probes;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{chrome_trace_json, peak_rss_mb, Metric, Outcome};

/// Workload names, in the order `--all` runs them.
pub const WORKLOADS: [&str; 5] = [
    "sim-dense",
    "sim-sparse",
    "real-threads",
    "serve-read",
    "serve-ingest",
];

/// End-to-end metrics: printed by every workload when tracing is off.
pub const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("host_s", "s"), ("tail10_ms", "ms")];

/// Per-layer metrics: printed by every workload's traced run. One a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 86] = [
    ("graph.gen_s", "s"),
    ("graph.build_s", "s"),
    ("graph.build_medges_per_s", "1/s"),
    ("graph.apply_us_per_op", "us"),
    ("graph.compact_ms", "ms"),
    ("graph.compactions", "count"),
    ("graph.overlay_entries_peak", "count"),
    ("numa.machine_new_ms", "ms"),
    ("numa.phase_overhead_us", "us"),
    ("numa.shard_phase_us", "us"),
    ("numa.seq_ns_per_elem", "ns"),
    ("numa.rand_ns_per_access", "ns"),
    ("numa.sim_s", "s"),
    ("numa.host_ns_per_sim_byte", "ns"),
    ("numa.host_ns_per_sim_access", "ns"),
    ("numa.bytes_local", "count"),
    ("numa.bytes_remote", "count"),
    ("numa.remote_ratio", "ratio"),
    ("numa.llc_hit_rate", "ratio"),
    ("numa.barrier_sim_s", "s"),
    ("numa.peak_sim_gib", "GiB"),
    ("sync.barrier_ns", "ns"),
    ("sync.hier_barrier_ns", "ns"),
    ("sync.frontier_rebuild_ns_per_v", "ns"),
    ("api.iterations", "count"),
    ("api.driver_us_per_iter", "us"),
    ("api.real_fixed_ms", "ms"),
    ("api.real_medges_per_s", "1/s"),
    ("api.overlay_build_ms", "ms"),
    ("api.supervisor_overhead_us", "us"),
    ("core.host_s", "s"),
    ("core.sim_s", "s"),
    ("core.host_us_per_iter", "us"),
    ("core.host_ns_per_edge", "ns"),
    ("core.layout_build_ms", "ms"),
    ("core.agents_sim_gib", "GiB"),
    ("ligra.host_s", "s"),
    ("ligra.sim_s", "s"),
    ("ligra.host_us_per_iter", "us"),
    ("ligra.host_ns_per_edge", "ns"),
    ("xstream.host_s", "s"),
    ("xstream.sim_s", "s"),
    ("xstream.host_us_per_iter", "us"),
    ("xstream.host_ns_per_edge", "ns"),
    ("galois.host_s", "s"),
    ("galois.sim_s", "s"),
    ("galois.host_us_per_iter", "us"),
    ("galois.host_ns_per_edge", "ns"),
    ("algos.ref_pr_s", "s"),
    ("algos.ref_bfs_s", "s"),
    ("algos.ref_sssp_s", "s"),
    ("algos.real_vs_ref_speedup", "ratio"),
    ("algos.multi_sweep_ms", "ms"),
    ("algos.multi_speedup", "ratio"),
    ("algos.warm_vs_cold", "ratio"),
    ("algos.pr_overlay_ms", "ms"),
    ("serve.start_ms", "ms"),
    ("serve.stop_ms", "ms"),
    ("serve.submit_us", "us"),
    ("serve.wait_ms", "ms"),
    ("serve.solo_overhead_ms", "ms"),
    ("serve.req_per_s", "1/s"),
    ("serve.batches", "count"),
    ("serve.batched_share", "ratio"),
    ("serve.mean_lanes", "count"),
    ("serve.max_lanes", "count"),
    ("serve.cache_hit_share", "ratio"),
    ("serve.incremental_answers", "count"),
    ("serve.compactions", "count"),
    ("serve.rejected", "count"),
    ("serve.failed", "count"),
    ("serve.query_p50_ms", "ms"),
    ("serve.p95_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.ingest_p50_ms", "ms"),
    ("serve.ingest_p95_ms", "ms"),
    ("serve.pr_mutated_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans_per_run", "count"),
    ("bench.ops", "count"),
    ("bench.trials", "count"),
    ("bench.trial_spread", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.harness_self_ms", "ms"),
    ("bench.spans", "count"),
    ("bench.peak_rss_mb", "MB"),
];

/// Command-line options.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// One set-up round, one trial, an eighth of the requests, small
    /// graphs: only for the package's own test. Never a baseline.
    pub quick: bool,
    pub out: Option<PathBuf>,
}

impl Opts {
    /// Whether set-up should run once more: at least three rounds, then
    /// on until a second has gone into it, so that a set-up of a few
    /// milliseconds is a median of hundreds of samples, not of three.
    pub fn more_setup(&self, rounds: usize, spent_s: f64) -> bool {
        if self.quick {
            return rounds < 1;
        }
        rounds < 3 || (spent_s < 1.0 && rounds < 1001)
    }

    /// Whether another trial should start: a minimum count, then on until
    /// the measuring time is used up — judged at the half-way point of the
    /// coming trial, so that runs overshoot and undershoot alike.
    pub fn more_trials(&self, trials: usize, spent_s: f64, last_s: f64) -> bool {
        if self.quick {
            return trials < 1;
        }
        trials < 3 || spent_s + 0.5 * last_s < self.seconds
    }
}

const USAGE: &str = "usage: polymer-benchmark (--workload <name> | --all) [--seed N] \
[--seconds S] [--trace 0|1 | --traced] [--out DIR] [--quick]\n\
workloads: sim-dense sim-sparse real-threads serve-read serve-ingest";

fn parse(args: &[String]) -> Result<(Opts, bool), String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 15.0,
        traced: false,
        quick: false,
        out: None,
    };
    let mut all = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value("a name")?,
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                opts.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => opts.traced = true,
            "--quick" => opts.quick = true,
            "--all" => all = true,
            "--out" => opts.out = Some(PathBuf::from(value("a directory")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    if all != opts.workload.is_empty() {
        return Err("give exactly one of --workload and --all".to_string());
    }
    if !all && !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {}", opts.workload));
    }
    Ok((opts, all))
}

/// Run every workload in a process of its own, so each reports its own
/// peak resident set; a child is waited for before the next starts.
fn run_all(args: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let rest: Vec<&String> = args.iter().filter(|a| *a != "--all").collect();
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w])
            .args(&rest)
            .status()
            .expect("spawn workload");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Put the declared metrics in declared order, zero where the workload
/// measured nothing; a metric nobody declared is a bug in the benchmark.
fn declared(outcome: &Outcome, decl: &[(&'static str, &'static str)]) -> Vec<Metric> {
    for m in &outcome.metrics.0 {
        let d = decl.iter().find(|(n, _)| *n == m.name);
        assert!(
            d.is_some_and(|(_, u)| *u == m.unit),
            "metric {} [{}] is not declared",
            m.name,
            m.unit
        );
    }
    decl.iter()
        .map(|&(name, unit)| {
            let mut found = outcome.metrics.0.iter().filter(|m| m.name == name);
            let value = found.next().map_or(0.0, |m| m.value);
            assert!(found.next().is_none(), "metric {name} reported twice");
            assert!(value.is_finite(), "metric {name} is {value}");
            Metric {
                name: name.to_string(),
                value,
                unit,
            }
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, all) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if all {
        return run_all(&args);
    }

    let mut outcome = match opts.workload.as_str() {
        "sim-dense" => batch::run(&batch::SIM_DENSE, &opts),
        "sim-sparse" => batch::run(&batch::SIM_SPARSE, &opts),
        "real-threads" => batch::run(&batch::REAL_THREADS, &opts),
        "serve-read" => serve::run(&serve::SERVE_READ, &opts),
        "serve-ingest" => serve::run(&serve::SERVE_INGEST, &opts),
        _ => unreachable!("parse checked the name"),
    };
    let metrics = if opts.traced {
        probes::run(&opts, &mut outcome);
        probes::span_metrics(&mut outcome);
        outcome
            .metrics
            .push("bench.peak_rss_mb", peak_rss_mb(), "MB");
        declared(&outcome, &PER_LAYER)
    } else {
        declared(&outcome, &END_TO_END)
    };

    if let (true, Some(dir)) = (opts.traced, &opts.out) {
        let path = dir.join(format!("{}.trace.json", opts.workload));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, chrome_trace_json(outcome.rec.spans())));
        match written {
            Ok(()) => eprintln!(
                "trace: {} spans -> {}",
                outcome.rec.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
        }
    }

    for m in &metrics {
        println!("{} {} {} {}", opts.workload, m.name, m.value, m.unit);
    }
    let correct = outcome.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
