//! Incremental-vs-scratch benchmark: the mutation subsystem as a committed
//! artifact.
//!
//! For each batch size (a fraction of the live edge set) the harness
//! converges every program cold on a symmetric rMat graph, applies one
//! mixed symmetric mutation batch (deletes, fresh inserts, reweights),
//! and then answers the post-batch query twice on the rebuilt overlay
//! topology: **incremental** (warm-started from the prior converged run
//! via [`WarmStart`]) and **scratch** (cold). The ratio of their simulated
//! seconds is the speedup the delta-overlay design exists to deliver; the
//! host sequential engines (`*_host`) provide a wall-clock twin.
//!
//! Every row is checked against the from-scratch oracle before it is
//! written: BFS/SSSP/CC must be **bit-identical** to
//! [`polymer_algos::run_reference`] on the post-batch edge list, PageRank
//! ε-close to the cold overlay fixpoint. Any violation exits non-zero —
//! the CI `incremental-smoke` job relies on this, and additionally asserts
//! that small batches (≤ 0.1% of |E|) are served faster than from scratch.
//!
//! Writes `results/BENCH_incremental.json` (shared [`BenchMeta`] block +
//! one row per program × batch fraction). The committed copy was produced
//! with the defaults (`--scale 0`: 2^13 vertices, ~2^17 symmetric edges,
//! 80 simulated threads on the Intel machine).

use std::time::Instant;

use polymer_algos::reference::max_rel_error;
use polymer_algos::{
    bfs_host, bfs_overlay, cc_host, cc_overlay, pagerank_host, pagerank_overlay, run_reference,
    sssp_host, sssp_overlay, Bfs, ConnectedComponents, Sssp, WarmStart, DEFAULT_PR_TOL,
};
use polymer_api::{OverlayTopo, RunResult};
use polymer_bench::{write_json_with_meta, Args, BenchMeta, Table};
use polymer_graph::{gen, DeltaBatch, Graph, MutableGraph};
use polymer_numa::{AllocPolicy, Machine, MachineSpec};
use serde::Serialize;

/// Simulated threads (the paper's Intel machine, like the BENCH series).
const THREADS: usize = 80;
/// Damping factor of the PageRank rows.
const PR_DAMPING: f64 = 0.85;
/// Host wall-clock repetitions (best-of).
const WALL_REPS: usize = 3;
/// Batch sizes as fractions of the live edge count. The two smallest are
/// the acceptance band: incremental must beat scratch there.
const FRACTIONS: [f64; 3] = [1e-4, 1e-3, 1e-2];

/// One program × batch-fraction cell.
#[derive(Serialize)]
struct IncRow {
    algo: String,
    /// Requested batch size as a fraction of the live edge count.
    batch_fraction: f64,
    /// Operations actually in the (normalized, symmetric) batch.
    batch_ops: usize,
    /// Live edges before the batch.
    base_edges: usize,
    /// Effective mutation counts of the applied batch.
    inserted: usize,
    deleted: usize,
    reweighted: usize,
    /// Simulated seconds of the cold post-batch run.
    sim_scratch_sec: f64,
    /// Simulated seconds of the warm-started post-batch run.
    sim_incremental_sec: f64,
    /// `sim_scratch_sec / sim_incremental_sec`.
    sim_speedup: f64,
    /// Rounds of the cold run / repair rounds of the warm run.
    rounds_scratch: usize,
    rounds_incremental: usize,
    /// Host wall-clock of the sequential engines, best-of-N.
    wall_scratch_sec: f64,
    wall_incremental_sec: f64,
    wall_speedup: f64,
    /// Warm values bit-identical to the from-scratch oracle (BFS/SSSP/CC;
    /// PageRank converges to a tolerance, so it reports `oracle_max_err`).
    oracle_exact: bool,
    /// Max relative error vs the cold fixpoint (PageRank; 0 when exact).
    oracle_max_err: f64,
    /// The row honored its oracle contract.
    oracle_ok: bool,
}

fn build_topo(machine: &Machine, mg: &MutableGraph) -> OverlayTopo {
    OverlayTopo::build(machine, mg, true, |_| AllocPolicy::Interleaved)
}

/// Deterministic symmetric mixed batch of ~`k` operations: deletes of live
/// pairs, fresh inserts, and reweights, each mirrored so the graph stays
/// symmetric (the CC contract).
fn symmetric_batch(mg: &MutableGraph, seed: u64, k: usize) -> DeltaBatch {
    let el = mg.snapshot_edge_list();
    let n = mg.num_vertices() as u64;
    let mut b = DeltaBatch::new();
    for i in 0..(k / 2).max(1) {
        let h = seed
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(i as u64)
            .wrapping_mul(0xbf58476d1ce4e5b9);
        let e = el.edges[(h % el.edges.len() as u64) as usize];
        match i % 3 {
            0 => {
                b.delete(e.src, e.dst).delete(e.dst, e.src);
            }
            1 => {
                let s = (h >> 8) % n;
                let d = (h >> 24) % n;
                if s != d {
                    let w = 1 + (h % 90) as u32;
                    b.insert(s as u32, d as u32, w)
                        .insert(d as u32, s as u32, w);
                }
            }
            _ => {
                let w = 1 + ((h >> 16) % 90) as u32;
                b.insert(e.src, e.dst, w).insert(e.dst, e.src, w);
            }
        }
    }
    b
}

/// Best-of-N host wall-clock of a closure.
fn wall_best<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..WALL_REPS {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

struct Cell {
    sim_scratch_sec: f64,
    sim_incremental_sec: f64,
    rounds_scratch: usize,
    rounds_incremental: usize,
    wall_scratch_sec: f64,
    wall_incremental_sec: f64,
    oracle_exact: bool,
    oracle_max_err: f64,
    oracle_ok: bool,
}

fn min_cell<V: Eq + Clone>(
    scratch: &RunResult<V>,
    warm: &RunResult<V>,
    oracle: &[V],
    wall_scratch_sec: f64,
    wall_incremental_sec: f64,
    host_warm: &[V],
) -> Cell {
    let exact = warm.values == oracle && host_warm == oracle;
    Cell {
        sim_scratch_sec: scratch.seconds(),
        sim_incremental_sec: warm.seconds(),
        rounds_scratch: scratch.iterations,
        rounds_incremental: warm.iterations,
        wall_scratch_sec,
        wall_incremental_sec,
        oracle_exact: exact,
        oracle_max_err: 0.0,
        oracle_ok: exact,
    }
}

fn main() {
    let args = Args::parse(0, "bench_incremental");
    let vshift = (18 + args.scale).clamp(8, 19) as u32;
    let mut el = gen::rmat(vshift, (1usize << vshift) * 32, gen::RMAT_GRAPH500, 59);
    el.symmetrize();

    let machine = Machine::new(MachineSpec::intel80());
    println!(
        "Incremental vs scratch: rmat-{vshift} symmetric (scale {}), {THREADS} threads, Intel\n",
        args.scale
    );
    let mut table = Table::new(&[
        "Algo",
        "Frac",
        "Ops",
        "SimCold(s)",
        "SimWarm(s)",
        "Speedup",
        "RndC",
        "RndW",
        "Oracle",
    ]);
    let mut rows: Vec<IncRow> = Vec::new();
    let mut violations: Vec<String> = Vec::new();

    for (fi, &fraction) in FRACTIONS.iter().enumerate() {
        // Fresh mutable graph per fraction so every batch mutates the same
        // base. Compaction is disabled: the subject is the overlay path
        // (`bench_hotpath` covers base-CSR traversal).
        let mut mg =
            MutableGraph::from_edge_list(el.clone()).with_compaction_fraction(f64::INFINITY);
        let base_edges = mg.num_live_edges();
        let k = ((base_edges as f64 * fraction).round() as usize).max(2);
        let batch = symmetric_batch(&mg, 59 + fi as u64, k);
        let batch_ops = batch.len();
        eprintln!("[incremental] fraction {fraction} ({batch_ops} ops on {base_edges} edges) ...");

        let topo = build_topo(&machine, &mg);
        let prior_bfs = bfs_overlay(&machine, THREADS, &topo, 0, None, false).unwrap();
        let prior_sssp = sssp_overlay(&machine, THREADS, &topo, 0, None, false).unwrap();
        let prior_cc = cc_overlay(&machine, THREADS, &topo, None, false).unwrap();
        let prior_pr = pagerank_overlay(
            &machine,
            THREADS,
            &topo,
            PR_DAMPING,
            DEFAULT_PR_TOL,
            None,
            false,
        )
        .unwrap();

        let applied = mg.apply(&batch).unwrap();
        let topo = build_topo(&machine, &mg);
        let g2 = Graph::from_edges(&mg.snapshot_edge_list());

        let mut push = |algo: &str, c: Cell| {
            table.row(vec![
                algo.to_string(),
                format!("{fraction:.2}%", fraction = fraction * 100.0),
                batch_ops.to_string(),
                format!("{:.4}", c.sim_scratch_sec),
                format!("{:.4}", c.sim_incremental_sec),
                format!("{:.1}x", c.sim_scratch_sec / c.sim_incremental_sec),
                c.rounds_scratch.to_string(),
                c.rounds_incremental.to_string(),
                if c.oracle_ok { "ok" } else { "FAIL" }.to_string(),
            ]);
            if !c.oracle_ok {
                violations.push(format!("{algo} @ {fraction}: diverged from oracle"));
            }
            rows.push(IncRow {
                algo: algo.to_string(),
                batch_fraction: fraction,
                batch_ops,
                base_edges,
                inserted: applied.stats.inserted,
                deleted: applied.stats.deleted,
                reweighted: applied.stats.updated,
                sim_speedup: c.sim_scratch_sec / c.sim_incremental_sec,
                wall_speedup: c.wall_scratch_sec / c.wall_incremental_sec,
                sim_scratch_sec: c.sim_scratch_sec,
                sim_incremental_sec: c.sim_incremental_sec,
                rounds_scratch: c.rounds_scratch,
                rounds_incremental: c.rounds_incremental,
                wall_scratch_sec: c.wall_scratch_sec,
                wall_incremental_sec: c.wall_incremental_sec,
                oracle_exact: c.oracle_exact,
                oracle_max_err: c.oracle_max_err,
                oracle_ok: c.oracle_ok,
            });
        };

        // BFS
        let warm = WarmStart::from_result(&prior_bfs, &applied);
        let scratch = bfs_overlay(&machine, THREADS, &topo, 0, None, false).unwrap();
        let inc = bfs_overlay(&machine, THREADS, &topo, 0, Some(warm), false).unwrap();
        let (oracle, _) = run_reference(&g2, &Bfs::new(0));
        let (host_warm, _) = bfs_host(&mg, 0, Some(warm));
        let wc = wall_best(|| bfs_host(&mg, 0, None));
        let ww = wall_best(|| bfs_host(&mg, 0, Some(warm)));
        push("BFS", min_cell(&scratch, &inc, &oracle, wc, ww, &host_warm));

        // SSSP
        let warm = WarmStart::from_result(&prior_sssp, &applied);
        let scratch = sssp_overlay(&machine, THREADS, &topo, 0, None, false).unwrap();
        let inc = sssp_overlay(&machine, THREADS, &topo, 0, Some(warm), false).unwrap();
        let (oracle, _) = run_reference(&g2, &Sssp::new(0));
        let (host_warm, _) = sssp_host(&mg, 0, Some(warm));
        let wc = wall_best(|| sssp_host(&mg, 0, None));
        let ww = wall_best(|| sssp_host(&mg, 0, Some(warm)));
        push(
            "SSSP",
            min_cell(&scratch, &inc, &oracle, wc, ww, &host_warm),
        );

        // CC
        let warm = WarmStart::from_result(&prior_cc, &applied);
        let scratch = cc_overlay(&machine, THREADS, &topo, None, false).unwrap();
        let inc = cc_overlay(&machine, THREADS, &topo, Some(warm), false).unwrap();
        let (oracle, _) = run_reference(&g2, &ConnectedComponents::new());
        let (host_warm, _) = cc_host(&mg, Some(warm));
        let wc = wall_best(|| cc_host(&mg, None));
        let ww = wall_best(|| cc_host(&mg, Some(warm)));
        push("CC", min_cell(&scratch, &inc, &oracle, wc, ww, &host_warm));

        // PageRank: ε-close to the cold fixpoint rather than bit-identical.
        let warm = WarmStart::from_result(&prior_pr, &applied);
        let scratch = pagerank_overlay(
            &machine,
            THREADS,
            &topo,
            PR_DAMPING,
            DEFAULT_PR_TOL,
            None,
            false,
        )
        .unwrap();
        let inc = pagerank_overlay(
            &machine,
            THREADS,
            &topo,
            PR_DAMPING,
            DEFAULT_PR_TOL,
            Some(warm),
            false,
        )
        .unwrap();
        let (host_warm, _) = pagerank_host(&mg, PR_DAMPING, DEFAULT_PR_TOL, Some(warm));
        let err = max_rel_error(&inc.values, &scratch.values)
            .max(max_rel_error(&host_warm, &scratch.values));
        // Convergence is per-vertex *absolute* residual mass below
        // `DEFAULT_PR_TOL`; the smallest possible score is the undamped
        // floor `(1-d)/n`, so the admissible relative error scales with it
        // (one order of margin for residual mass still in flight).
        let pr_rel_tol = DEFAULT_PR_TOL / ((1.0 - PR_DAMPING) / mg.num_vertices() as f64) * 10.0;
        let wc = wall_best(|| pagerank_host(&mg, PR_DAMPING, DEFAULT_PR_TOL, None));
        let ww = wall_best(|| pagerank_host(&mg, PR_DAMPING, DEFAULT_PR_TOL, Some(warm)));
        push(
            "PageRank",
            Cell {
                sim_scratch_sec: scratch.seconds(),
                sim_incremental_sec: inc.seconds(),
                rounds_scratch: scratch.iterations,
                rounds_incremental: inc.iterations,
                wall_scratch_sec: wc,
                wall_incremental_sec: ww,
                oracle_exact: false,
                oracle_max_err: err,
                oracle_ok: err < pr_rel_tol,
            },
        );
    }

    table.print();
    write_json_with_meta(
        &args.out,
        "BENCH_incremental",
        &BenchMeta::capture(args.scale, machine.spec()),
        &rows,
    );

    if !violations.is_empty() {
        eprintln!("[incremental] FAIL:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
    println!("\n[incremental] all rows oracle-exact (PageRank within tolerance)");
}
