//! `BENCH_incremental`: warm start against scratch over mutation batches.

use std::time::Instant;

use polymer_algos::reference::max_rel_error;
use polymer_algos::{
    bfs_overlay, cc_overlay, pagerank_overlay, run_reference, sssp_overlay, Bfs,
    ConnectedComponents, Sssp, WarmStart, DEFAULT_PR_TOL,
};
use polymer_api::{OverlayTopo, RunResult};
use polymer_graph::{gen, BatchStats, MutableGraph};
use polymer_numa::{AllocPolicy, Machine, MachineSpec};
use serde::Serialize;

use crate::{Report, Session, Table};

/// Simulated threads (the paper's Intel machine, like the BENCH series).
const THREADS: usize = 80;
/// Damping factor of the PageRank rows.
const PR_DAMPING: f64 = 0.85;
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
    /// Host wall-clock of the two overlay runs above (one shot each).
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

/// Run `f` once: its result and its host wall-clock seconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
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

/// One timed run: its result and its host wall-clock seconds.
type Timed<V> = (RunResult<V>, f64);

/// The measured half of a cell; the oracle verdict is left for the caller.
fn measured<V>((scratch, wall_scratch_sec): &Timed<V>, (warm, wall_warm_sec): &Timed<V>) -> Cell {
    Cell {
        sim_scratch_sec: scratch.seconds(),
        sim_incremental_sec: warm.seconds(),
        rounds_scratch: scratch.iterations,
        rounds_incremental: warm.iterations,
        wall_scratch_sec: *wall_scratch_sec,
        wall_incremental_sec: *wall_warm_sec,
        oracle_exact: false,
        oracle_max_err: 0.0,
        oracle_ok: false,
    }
}

/// A cell of a min-combining program: the warm values must equal the oracle.
fn min_cell<V: Eq>(scratch: &Timed<V>, warm: &Timed<V>, oracle: &[V]) -> Cell {
    let exact = warm.0.values == oracle;
    Cell {
        oracle_exact: exact,
        oracle_ok: exact,
        ..measured(scratch, warm)
    }
}

/// Incremental-vs-scratch benchmark: the mutation subsystem as a committed
/// artifact.
///
/// For each batch size (a fraction of the live edge set) the harness
/// converges every program cold on a symmetric rMat graph, applies one
/// mixed symmetric mutation batch (deletes, fresh inserts, reweights),
/// and then answers the post-batch query twice on the rebuilt overlay
/// topology: **incremental** (warm-started from the prior converged run
/// via [`WarmStart`]) and **scratch** (cold). The ratio of their simulated
/// seconds is the speedup the delta-overlay design exists to deliver; the
/// `wall_*` columns are the host wall-clock of those same two calls — the
/// code `polymer-serve` executes, simulator included.
///
/// The CC rows apply the batch *without its deletes* to a second copy of
/// the base: warm CC repairs insert-only batches (union-find over the prior
/// labels, one relabel sweep) and answers a batch with structural deletes
/// cold, which would make the row 1× by construction.
///
/// Every row is checked against the from-scratch oracle before it is
/// written: BFS/SSSP/CC must be **bit-identical** to
/// [`polymer_algos::run_reference`] on the post-batch graph, PageRank
/// ε-close to the cold overlay fixpoint. Further violations, which the CI
/// `experiments` job relies on: the smallest batch must be served no slower
/// warm than from scratch, and the CC rows must carry no delete and add no
/// repair iteration.
///
/// Writes `results/BENCH_incremental.json` (shared [`crate::BenchMeta`] block +
/// one row per program × batch fraction). The committed copy was produced
/// with the defaults (`--scale 0`: rmat-18 × 32 symmetrised — 2^18
/// vertices, 14.5 M live edges — 80 simulated threads on the Intel
/// machine).
pub fn bench_incremental(s: &mut Session) -> Report {
    let vshift = (18 + s.scale).clamp(8, 19) as u32;
    let mut el = gen::rmat(vshift, (1usize << vshift) * 32, gen::RMAT_GRAPH500, 59);
    el.symmetrize();

    let machine = Machine::new(MachineSpec::intel80());
    println!(
        "Incremental vs scratch: rmat-{vshift} symmetric (scale {}), {THREADS} threads, Intel\n",
        s.scale
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
        let batch = gen::mixed_batch(&mg, 59 + fi as u64, (k / 2).max(1), true);
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

        let mut push = |algo: &str, batch_ops: usize, stats: BatchStats, c: Cell| {
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
                inserted: stats.inserted,
                deleted: stats.deleted,
                reweighted: stats.updated,
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
        let scratch = timed(|| bfs_overlay(&machine, THREADS, &topo, 0, None, false).unwrap());
        let inc = timed(|| bfs_overlay(&machine, THREADS, &topo, 0, Some(warm), false).unwrap());
        let (oracle, _) = run_reference(&mg, &Bfs::new(0));
        let cell = min_cell(&scratch, &inc, &oracle);
        push("BFS", batch_ops, applied.stats, cell);

        // SSSP
        let warm = WarmStart::from_result(&prior_sssp, &applied);
        let scratch = timed(|| sssp_overlay(&machine, THREADS, &topo, 0, None, false).unwrap());
        let inc = timed(|| sssp_overlay(&machine, THREADS, &topo, 0, Some(warm), false).unwrap());
        let (oracle, _) = run_reference(&mg, &Sssp::new(0));
        let cell = min_cell(&scratch, &inc, &oracle);
        push("SSSP", batch_ops, applied.stats, cell);

        // PageRank: ε-close to the cold fixpoint rather than bit-identical.
        let pagerank = |warm| {
            timed(|| {
                pagerank_overlay(
                    &machine,
                    THREADS,
                    &topo,
                    PR_DAMPING,
                    DEFAULT_PR_TOL,
                    warm,
                    false,
                )
                .unwrap()
            })
        };
        let scratch = pagerank(None);
        let inc = pagerank(Some(WarmStart::from_result(&prior_pr, &applied)));
        let err = max_rel_error(&inc.0.values, &scratch.0.values);
        // Convergence is per-vertex *absolute* residual mass below
        // `DEFAULT_PR_TOL`; the smallest possible score is the undamped
        // floor `(1-d)/n`, so the admissible relative error scales with it
        // (one order of margin for residual mass still in flight).
        let pr_rel_tol = DEFAULT_PR_TOL / ((1.0 - PR_DAMPING) / mg.num_vertices() as f64) * 10.0;
        let cell = Cell {
            oracle_max_err: err,
            oracle_ok: err < pr_rel_tol,
            ..measured(&scratch, &inc)
        };
        push("PageRank", batch_ops, applied.stats, cell);

        // CC: the same batch minus its deletes, on a second copy of the base
        // (the first is dropped before the copy is placed).
        drop((topo, mg));
        let mut mg =
            MutableGraph::from_edge_list(el.clone()).with_compaction_fraction(f64::INFINITY);
        let mut batch = batch;
        batch.deletes.clear();
        let applied = mg.apply(&batch).unwrap();
        let topo = build_topo(&machine, &mg);
        let warm = WarmStart::from_result(&prior_cc, &applied);
        let scratch = timed(|| cc_overlay(&machine, THREADS, &topo, None, false).unwrap());
        let inc = timed(|| cc_overlay(&machine, THREADS, &topo, Some(warm), false).unwrap());
        let (oracle, _) = run_reference(&mg, &ConnectedComponents::new());
        let cell = min_cell(&scratch, &inc, &oracle);
        push("CC", batch.len(), applied.stats, cell);
        // Warm CC exists for insert-only batches: the row's batch must
        // carry no delete, and the union-find fast path adds no repair
        // iteration to the prior run's count.
        if applied.stats.deleted != 0 || inc.0.iterations != prior_cc.iterations {
            violations.push(format!(
                "CC @ {fraction}: {} deletes applied; warm run at {} rounds, prior at {}",
                applied.stats.deleted, inc.0.iterations, prior_cc.iterations
            ));
        }
    }

    table.print();
    // The smallest batch is what warm-starting exists for.
    for r in rows.iter().filter(|r| r.batch_fraction == FRACTIONS[0]) {
        if r.sim_speedup < 1.0 {
            violations.push(format!(
                "{} @ {}: warm start slower than scratch ({:.2}x)",
                r.algo, r.batch_fraction, r.sim_speedup
            ));
        }
    }
    if violations.is_empty() {
        println!("\n[incremental] all rows oracle-exact (PageRank within tolerance)");
    }
    let meta = s.meta(machine.spec());
    Report::bench("BENCH_incremental", meta, &rows, violations)
}
