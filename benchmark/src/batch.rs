//! The three batch workloads — `sim-dense`, `sim-sparse`, `real-threads` —
//! which differ only in graph, backend and operation list. A *trial* is one
//! pass over the operation list through `polymer_bench::runner::run_on`.

use std::time::Instant;

use polymer_algos::reference::max_rel_error;
use polymer_algos::{run_reference, Bfs, PageRank, Sssp};
use polymer_api::{Backend, Engine, Program, RunResult};
use polymer_bench::runner::{run_on, AlgoId, SystemId, Workload};
use polymer_core::PolymerEngine;
use polymer_galois::GaloisEngine;
use polymer_graph::{DatasetId, EdgeList, Graph};
use polymer_ligra::LigraEngine;
use polymer_numa::{Machine, MachineSpec};
use polymer_xstream::XStreamEngine;

use crate::harness::{
    median, ratio, slowest_tenth_mean, sorted, spread, Metrics, Outcome, Recorder,
};
use crate::{inputs, Opts};

/// One batch workload's fixed parameters.
pub struct BatchSpec {
    /// Dataset identity handed to `Workload` (sets barrier and LLC scaling).
    id: DatasetId,
    make_edges: fn(u64, bool) -> EdgeList,
    backend: fn() -> Backend,
    threads: usize,
    systems: &'static [SystemId],
    algos: &'static [AlgoId],
    /// At seed 0 the workload's Polymer PageRank is the run
    /// `results/BENCH_hotpath.json` records.
    matches_hotpath_fixture: bool,
}

/// R-MAT 2^17 V / 2^21 E — the `Rmat24S` scale-0 parameters; every vertex
/// active, long sequential edge streams. `--quick` drops four scales.
pub const SIM_DENSE: BatchSpec = BatchSpec {
    id: DatasetId::Rmat24S,
    make_edges: |seed, quick| {
        inputs::rmat(inputs::RMAT24_SEED, if quick { 12 } else { 17 }, 16, seed)
    },
    backend: || Backend::Simulated,
    threads: 80,
    systems: &SystemId::ALL,
    algos: &[AlgoId::PR, AlgoId::BFS],
    matches_hotpath_fixture: true,
};

/// Road grid 128×128 (`RoadUsS` at scale −4): hundreds of near-empty phases
/// per traversal. Ten simulated threads sit on one socket, so the executor
/// runs a single shard. On any multi-socket thread count the default
/// `SimShardMode::Auto` spawns a host thread per socket per phase, which on
/// a two-core virtual machine is most of the workload (> 95 % at eighty
/// threads, 70 % at twenty) and swings by a factor of three from minute to
/// minute — nothing a benchmark can gate on. `numa.shard_phase_us` reports
/// that cost per layer instead.
pub const SIM_SPARSE: BatchSpec = BatchSpec {
    id: DatasetId::RoadUsS,
    make_edges: |_, quick| inputs::road(if quick { 24 } else { 128 }),
    backend: || Backend::Simulated,
    threads: 10,
    systems: &SystemId::ALL,
    algos: &[AlgoId::BFS, AlgoId::SSSP],
    matches_hotpath_fixture: false,
};

/// R-MAT 2^18 V / 2^22 E on two OS threads: CSR + CSC ≈ 70 MB, far beyond
/// the last-level cache. The four engines differ here only by
/// `ExecProfile`, so the hybrid (Polymer) and push-only (X-Stream)
/// profiles cover the backend.
pub const REAL_THREADS: BatchSpec = BatchSpec {
    id: DatasetId::Rmat27S,
    make_edges: |seed, quick| {
        inputs::rmat(inputs::RMAT27_SEED, if quick { 12 } else { 18 }, 16, seed)
    },
    backend: Backend::real_threads,
    threads: 2,
    systems: &[SystemId::Polymer, SystemId::XStream],
    algos: &[AlgoId::PR, AlgoId::BFS, AlgoId::SSSP],
    matches_hotpath_fixture: false,
};

/// Layer name of a system's engine crate.
pub fn layer_of(system: SystemId) -> &'static str {
    match system {
        SystemId::Polymer => "core",
        SystemId::Ligra => "ligra",
        SystemId::XStream => "xstream",
        SystemId::Galois => "galois",
    }
}

/// `run_reference` answers for the algorithms a workload uses (empty for
/// the others), and how long each took.
#[derive(Default)]
struct Oracle {
    pr: Vec<f64>,
    bfs: Vec<u32>,
    sssp: Vec<u64>,
    /// Seconds per reference run, in the order PR, BFS, SSSP.
    ref_s: [f64; 3],
}

/// What one verified operation is expected to repeat in every timed trial.
struct OpFacts {
    sim_s: f64,
    iterations: usize,
    accesses: u64,
    bytes_local: u64,
    bytes_remote: u64,
    miss_bytes: f64,
    barrier_sim_s: f64,
    peak_sim_gib: f64,
    agents_sim_gib: f64,
}

fn facts<V>(r: &RunResult<V>) -> OpFacts {
    let c = &r.clock.total;
    OpFacts {
        sim_s: r.seconds(),
        iterations: r.iterations,
        accesses: c.count_local + c.count_remote,
        bytes_local: c.bytes_local,
        bytes_remote: c.bytes_remote,
        miss_bytes: c.miss_bytes_local + c.miss_bytes_remote,
        barrier_sim_s: r.clock.barrier_us / 1e6,
        peak_sim_gib: r.memory.peak_gib(),
        agents_sim_gib: r.memory.tag_peak("agents") as f64 / (1u64 << 30) as f64,
    }
}

/// Run one operation through the engine's own entry point (the call
/// `run_on` makes) keeping the values, which `run_on` drops.
fn run_values<P: Program>(
    system: SystemId,
    backend: &Backend,
    machine: &Machine,
    threads: usize,
    g: &Graph,
    prog: &P,
) -> RunResult<P::Val> {
    let r = match system {
        SystemId::Polymer => PolymerEngine::new().try_run_on(backend, machine, threads, g, prog),
        SystemId::Ligra => LigraEngine::new().try_run_on(backend, machine, threads, g, prog),
        SystemId::XStream => XStreamEngine::new().try_run_on(backend, machine, threads, g, prog),
        SystemId::Galois => GaloisEngine::new().try_run_on(backend, machine, threads, g, prog),
    };
    r.unwrap_or_else(|e| panic!("{system:?} verification run failed [{}]: {e}", e.code()))
}

/// Run `(system, algo)` once keeping its values, and compare them with the
/// oracle: integers exactly, PageRank within the 1e-9 relative error the
/// conformance suite allows for a different summation order.
fn verify_op(
    system: SystemId,
    algo: AlgoId,
    wl: &Workload,
    spec: &MachineSpec,
    threads: usize,
    backend: &Backend,
    oracle: &Oracle,
) -> (OpFacts, bool) {
    let g = &wl.graph;
    let machine = Machine::new(wl.scaled_spec(spec));
    match algo {
        AlgoId::PR => {
            let r = run_values(
                system,
                backend,
                &machine,
                threads,
                g,
                &PageRank::new(g.num_vertices()),
            );
            (facts(&r), max_rel_error(&r.values, &oracle.pr) < 1e-9)
        }
        AlgoId::BFS => {
            let r = run_values(system, backend, &machine, threads, g, &Bfs::new(wl.source));
            (facts(&r), r.values == oracle.bfs)
        }
        AlgoId::SSSP => {
            let r = run_values(system, backend, &machine, threads, g, &Sssp::new(wl.source));
            (facts(&r), r.values == oracle.sssp)
        }
        other => panic!("batch workloads do not run {other:?}"),
    }
}

/// The repository's recorded hot-path run, relative to the checkout root.
const HOTPATH_FIXTURE: &str = "results/BENCH_hotpath.json";

/// `sim_seconds` of the fixture's Polymer row.
fn hotpath_fixture_sim_s() -> Option<f64> {
    let text = std::fs::read_to_string(HOTPATH_FIXTURE).ok()?;
    let row = &text[text.find("\"system\": \"Polymer\"")?..];
    let value = &row[row.find("\"sim_seconds\":")? + "\"sim_seconds\":".len()..];
    value[..value.find([',', '}'])?].trim().parse().ok()
}

/// Generator + `Graph::from_edges`, each under its own span.
fn build_graph(spec: &BatchSpec, opts: &Opts, rec: &mut Recorder, round: u64) -> (Graph, f64, f64) {
    let root = rec.start("setup", "bench", Recorder::root(), round);
    let t0 = Instant::now();
    let el = rec.call("generate", "graph", root, round, || {
        (spec.make_edges)(opts.seed, opts.quick)
    });
    let gen_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let graph = rec.call("Graph::from_edges", "graph", root, round, || {
        Graph::from_edges(&el)
    });
    let build_s = t1.elapsed().as_secs_f64();
    rec.end(root);
    (graph, gen_s, build_s)
}

/// Run one batch workload.
pub fn run(spec: &BatchSpec, opts: &Opts) -> Outcome {
    let origin = Instant::now();
    let mut rec = Recorder::new(opts.traced, origin, 4096);
    let mut m = Metrics::default();

    // Set-up, several times over: one build is a single sample of a number
    // later changes are gated on.
    let mut gen_s = Vec::new();
    let mut build_s = Vec::new();
    let mut graph = None;
    let setup = Instant::now();
    while opts.more_setup(gen_s.len(), setup.elapsed().as_secs_f64()) {
        drop(graph.take());
        let (g, gs, bs) = build_graph(spec, opts, &mut rec, gen_s.len() as u64);
        gen_s.push(gs);
        build_s.push(bs);
        graph = Some(g);
    }
    let graph = graph.expect("at least one set-up round");
    let setup_s: Vec<f64> = gen_s.iter().zip(&build_s).map(|(a, b)| a + b).collect();
    let source = inputs::max_degree_source(&graph);
    // None of the algorithms here reads the symmetrized graph (only CC
    // does), so it stays empty instead of doubling set-up time and memory.
    assert!(spec.algos.iter().all(|a| !a.needs_symmetric()));
    let sym = Graph::from_edges(&EdgeList::new(graph.num_vertices()));
    let wl = Workload {
        id: spec.id,
        graph,
        sym,
        source,
    };
    let g = &wl.graph;
    let machine_spec = MachineSpec::intel80();
    let backend = (spec.backend)();
    let ops: Vec<(SystemId, AlgoId)> = spec
        .systems
        .iter()
        .flat_map(|&s| spec.algos.iter().map(move |&a| (s, a)))
        .collect();

    // Oracle, outside set-up and outside every trial.
    let mut oracle = Oracle::default();
    for &algo in spec.algos {
        let open = rec.start("run_reference", "algos", Recorder::root(), 0);
        let t = Instant::now();
        let slot = match algo {
            AlgoId::PR => {
                oracle.pr = run_reference(g, &PageRank::new(g.num_vertices())).0;
                0
            }
            AlgoId::BFS => {
                oracle.bfs = run_reference(g, &Bfs::new(source)).0;
                1
            }
            AlgoId::SSSP => {
                oracle.sssp = run_reference(g, &Sssp::new(source)).0;
                2
            }
            other => panic!("batch workloads do not run {other:?}"),
        };
        oracle.ref_s[slot] = t.elapsed().as_secs_f64();
        rec.end(open);
    }

    // Warm-up trial, discarded from timing: every answer is checked here,
    // and its simulated clock is what each timed trial must repeat.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut expect = Vec::with_capacity(ops.len());
    for &(system, algo) in &ops {
        let (f, ok) = verify_op(
            system,
            algo,
            &wl,
            &machine_spec,
            spec.threads,
            &backend,
            &oracle,
        );
        attempted += 1;
        if !ok {
            failed += 1;
            eprintln!("MISMATCH: {system:?}/{algo:?} differs from run_reference");
        }
        expect.push(f);
    }

    // Accuracy against the committed reference: at the dataset's own seed
    // Polymer PageRank on `sim-dense` is the run `bench_hotpath` recorded.
    if spec.matches_hotpath_fixture && opts.seed == 0 && !opts.quick {
        let i = ops
            .iter()
            .position(|&op| op == (SystemId::Polymer, AlgoId::PR))
            .expect("sim-dense runs Polymer PageRank");
        match hotpath_fixture_sim_s() {
            Some(want) => {
                attempted += 1;
                if want.to_bits() != expect[i].sim_s.to_bits() {
                    failed += 1;
                    eprintln!(
                        "MISMATCH: Polymer PageRank simulates {} s, {HOTPATH_FIXTURE} says {want}",
                        expect[i].sim_s
                    );
                }
            }
            None => eprintln!("note: {HOTPATH_FIXTURE} not readable, reference check skipped"),
        }
    }

    // Timed trials: the same operations in the same order, until the
    // measuring time is used up. In a traced run every other trial records
    // spans, so the two kinds meet the same machine state.
    let mut trial_s: Vec<f64> = Vec::with_capacity(256);
    let mut trial_traced: Vec<bool> = Vec::with_capacity(256);
    let mut op_s: Vec<Vec<f64>> = vec![Vec::with_capacity(256); ops.len()];
    let measure = Instant::now();
    while opts.more_trials(
        trial_s.len(),
        measure.elapsed().as_secs_f64(),
        trial_s.last().copied().unwrap_or(0.0),
    ) {
        let trial = trial_s.len() as u64;
        let traced = opts.traced && trial.is_multiple_of(2);
        rec.set_on(traced);
        let root = rec.start("trial", "bench", Recorder::root(), trial);
        let t0 = Instant::now();
        for (i, &(system, algo)) in ops.iter().enumerate() {
            let open = rec.start(algo.name(), layer_of(system), root, trial);
            let t = Instant::now();
            let got = run_on(system, algo, &wl, &machine_spec, spec.threads, &backend);
            op_s[i].push(t.elapsed().as_secs_f64());
            rec.end(open);
            attempted += 1;
            if got.seconds.to_bits() != expect[i].sim_s.to_bits()
                || got.iterations != expect[i].iterations
            {
                failed += 1;
            }
        }
        trial_s.push(t0.elapsed().as_secs_f64());
        rec.end(root);
        trial_traced.push(traced);
    }
    rec.set_on(opts.traced);

    eprintln!("trials_s {trial_s:.3?}");
    // Best of N (see `harness::best`), per operation: a trial here is
    // independent runs, so each keeps its own fastest repetition. `only`
    // restricts the trials to the traced or the untraced ones.
    let best_op = |i: usize, only: Option<bool>| -> f64 {
        op_s[i]
            .iter()
            .zip(&trial_traced)
            .filter(|(_, &t)| only.is_none_or(|o| o == t))
            .map(|(&s, _)| s)
            .fold(f64::INFINITY, f64::min)
    };
    let best_trial = |only: Option<bool>| -> f64 { (0..ops.len()).map(|i| best_op(i, only)).sum() };

    if !opts.traced {
        m.push("setup_s", median(&setup_s), "s");
        m.push("host_s", best_trial(None), "s");
        // With six to eight operations in a trial the slowest tenth of
        // them is the slowest one.
        let op_ms: Vec<f64> = (0..ops.len()).map(|i| best_op(i, None) * 1e3).collect();
        m.push("tail10_ms", slowest_tenth_mean(&sorted(&op_ms)), "ms");
    } else {
        let edges = g.num_edges() as f64;
        let sum = |f: fn(&OpFacts) -> f64| -> f64 { expect.iter().map(f).sum() };
        let sim_s = sum(|f| f.sim_s);
        let bytes_local = sum(|f| f.bytes_local as f64);
        let bytes_remote = sum(|f| f.bytes_remote as f64);
        let sim_bytes = bytes_local + bytes_remote;
        let accesses = sum(|f| f.accesses as f64);
        let iterations = sum(|f| f.iterations as f64);
        let traced_host_s = best_trial(Some(true));

        m.push("graph.gen_s", median(&gen_s), "s");
        m.push("graph.build_s", median(&build_s), "s");
        m.push(
            "graph.build_medges_per_s",
            edges / 1e6 / median(&build_s),
            "1/s",
        );
        m.push("numa.sim_s", sim_s, "s");
        m.push("numa.bytes_local", bytes_local, "count");
        m.push("numa.bytes_remote", bytes_remote, "count");
        m.push("numa.remote_ratio", ratio(bytes_remote, sim_bytes), "ratio");
        m.push(
            "numa.llc_hit_rate",
            ratio(sim_bytes - sum(|f| f.miss_bytes), sim_bytes),
            "ratio",
        );
        m.push("numa.barrier_sim_s", sum(|f| f.barrier_sim_s), "s");
        m.push(
            "numa.peak_sim_gib",
            expect.iter().map(|f| f.peak_sim_gib).fold(0.0, f64::max),
            "GiB",
        );
        m.push(
            "numa.host_ns_per_sim_byte",
            ratio(traced_host_s * 1e9, sim_bytes),
            "ns",
        );
        m.push(
            "numa.host_ns_per_sim_access",
            ratio(traced_host_s * 1e9, accesses),
            "ns",
        );
        m.push("api.iterations", iterations, "count");
        m.push(
            "api.driver_us_per_iter",
            traced_host_s * 1e6 / iterations,
            "us",
        );
        for &system in &SystemId::ALL {
            let layer = layer_of(system);
            let mine: Vec<usize> = (0..ops.len()).filter(|&i| ops[i].0 == system).collect();
            let host: f64 = mine.iter().map(|&i| best_op(i, Some(true))).sum();
            let iters: f64 = mine.iter().map(|&i| expect[i].iterations as f64).sum();
            m.push(format!("{layer}.host_s"), host, "s");
            m.push(
                format!("{layer}.sim_s"),
                mine.iter().map(|&i| expect[i].sim_s).sum(),
                "s",
            );
            m.push(
                format!("{layer}.host_us_per_iter"),
                ratio(host * 1e6, iters),
                "us",
            );
            m.push(
                format!("{layer}.host_ns_per_edge"),
                ratio(host * 1e9, edges * mine.len() as f64),
                "ns",
            );
        }
        m.push(
            "core.agents_sim_gib",
            expect.iter().map(|f| f.agents_sim_gib).fold(0.0, f64::max),
            "GiB",
        );
        m.push("algos.ref_pr_s", oracle.ref_s[0], "s");
        m.push("algos.ref_bfs_s", oracle.ref_s[1], "s");
        m.push("algos.ref_sssp_s", oracle.ref_s[2], "s");
        m.push("bench.ops", ops.len() as f64, "count");
        m.push("bench.trials", trial_s.len() as f64, "count");
        m.push("bench.trial_spread", spread(&trial_s), "ratio");
        let untraced_host_s = best_trial(Some(false));
        m.push(
            "bench.trace_overhead_ratio",
            if untraced_host_s.is_finite() {
                traced_host_s / untraced_host_s
            } else {
                1.0
            },
            "ratio",
        );
    }

    Outcome {
        attempted,
        failed,
        metrics: m,
        rec,
    }
}
