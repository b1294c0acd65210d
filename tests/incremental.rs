//! The incremental-computation conformance suite.
//!
//! Three layers of guarantees over the mutation subsystem:
//!
//! 1. **Structural**: on random base graphs and random insert/delete/reweight
//!    batches, `apply` + `compact` produces a CSR **bit-identical** to
//!    building from scratch on the post-batch live edge set (proptest).
//! 2. **Conformance matrix**: every incremental program (BFS, SSSP, CC,
//!    PageRank) warm-started from a prior converged run agrees with the
//!    from-scratch sequential oracle — exactly for the min-combining
//!    programs, ε-close for PageRank. Includes delete-heavy batches, empty
//!    batches, chained batches, a batch that triggers threshold compaction
//!    mid-sequence, and windows of several batches composed with
//!    `AppliedBatch::merged_with` that hit the same pairs repeatedly.
//! 3. **Compaction**: an `OverlayTopo` rebuilt after a compaction places
//!    the new base, and warm-started queries stay oracle-exact.

use polymer::algos::reference::max_rel_error;
use polymer::algos::{
    bfs_overlay, cc_overlay, pagerank_overlay, sssp_overlay, WarmStart, DEFAULT_PR_TOL,
};
use polymer::api::OverlayTopo;
use polymer::graph::gen::{self, mixed_batch};
use polymer::graph::{AppliedBatch, DeltaBatch, Edge, MutableGraph};
use polymer::numa::AllocPolicy;
use polymer::prelude::*;

const THREADS: usize = 4;

fn machine() -> Machine {
    Machine::new(MachineSpec::test2())
}

fn build_topo(machine: &Machine, mg: &MutableGraph, with_weights: bool) -> OverlayTopo {
    OverlayTopo::build(machine, mg, with_weights, |_| AllocPolicy::Interleaved)
}

/// Run BFS and SSSP warm-started from priors and assert both are
/// oracle-exact on the post-batch graph.
fn assert_min_engines_oracle_exact(
    machine: &Machine,
    mg: &MutableGraph,
    prior_bfs: &RunResult<u32>,
    prior_sssp: &RunResult<u64>,
    applied: &AppliedBatch,
) -> (RunResult<u32>, RunResult<u64>) {
    let topo = build_topo(machine, mg, true);

    let warm = WarmStart::from_result(prior_bfs, applied);
    let inc_bfs = bfs_overlay(machine, THREADS, &topo, 0, Some(warm), false).unwrap();
    let (oracle, _) = run_reference(mg, &Bfs::new(0));
    assert_eq!(inc_bfs.values, oracle, "incremental BFS vs oracle");

    let warm = WarmStart::from_result(prior_sssp, applied);
    let inc_sssp = sssp_overlay(machine, THREADS, &topo, 0, Some(warm), false).unwrap();
    let (oracle, _) = run_reference(mg, &Sssp::new(0));
    assert_eq!(inc_sssp.values, oracle, "incremental SSSP vs oracle");

    (inc_bfs, inc_sssp)
}

#[test]
fn conformance_mixed_batch() {
    let el = gen::rmat(9, 4_000, gen::RMAT_GRAPH500, 29);
    let mut mg = MutableGraph::from_edge_list(el).with_compaction_fraction(f64::INFINITY);
    let machine = machine();
    let topo = build_topo(&machine, &mg, true);
    let prior_bfs = bfs_overlay(&machine, THREADS, &topo, 0, None, false).unwrap();
    let prior_sssp = sssp_overlay(&machine, THREADS, &topo, 0, None, false).unwrap();

    let applied = mg.apply(&mixed_batch(&mg, 41, 30, false)).unwrap();
    assert_min_engines_oracle_exact(&machine, &mg, &prior_bfs, &prior_sssp, &applied);
}

#[test]
fn conformance_delete_heavy_batch() {
    let el = gen::uniform(250, 1800, 31);
    let mut mg = MutableGraph::from_edge_list(el).with_compaction_fraction(f64::INFINITY);
    let machine = machine();
    let topo = build_topo(&machine, &mg, true);
    let prior_bfs = bfs_overlay(&machine, THREADS, &topo, 0, None, false).unwrap();
    let prior_sssp = sssp_overlay(&machine, THREADS, &topo, 0, None, false).unwrap();

    // Delete every 4th live edge — enough to disconnect whole regions —
    // and add two fresh edges so the repair also has insert work.
    let live = mg.snapshot_edge_list();
    let mut b = DeltaBatch::new();
    for e in live.edges.iter().step_by(4) {
        b.delete(e.src, e.dst);
    }
    b.insert(7, 90, 2).insert(90, 11, 3);
    let applied = mg.apply(&b).unwrap();
    assert!(applied.stats.deleted > 100, "batch must be delete-heavy");
    assert_min_engines_oracle_exact(&machine, &mg, &prior_bfs, &prior_sssp, &applied);
}

#[test]
fn conformance_chained_batches() {
    let el = gen::uniform(220, 1500, 37);
    let mut mg = MutableGraph::from_edge_list(el).with_compaction_fraction(f64::INFINITY);
    let machine = machine();
    let topo = build_topo(&machine, &mg, true);
    let mut prior_bfs = bfs_overlay(&machine, THREADS, &topo, 0, None, false).unwrap();
    let mut prior_sssp = sssp_overlay(&machine, THREADS, &topo, 0, None, false).unwrap();

    // Each round warm-starts from the previous *incremental* result, so
    // errors would compound if any round were not exactly the fixpoint.
    for round in 0..3u64 {
        let applied = mg.apply(&mixed_batch(&mg, 100 + round, 20, false)).unwrap();
        let (b, s) =
            assert_min_engines_oracle_exact(&machine, &mg, &prior_bfs, &prior_sssp, &applied);
        prior_bfs = b;
        prior_sssp = s;
    }
}

/// Apply `batches` in turn and compose them into one window.
fn apply_composed(mg: &mut MutableGraph, batches: &[DeltaBatch]) -> AppliedBatch {
    let applied = batches.iter().map(|b| mg.apply(b).unwrap());
    applied
        .reduce(|window, later| window.merged_with(&later))
        .expect("at least one batch")
}

/// A result warm-started across several batches sees their composition, not
/// their union: a pair inserted and deleted again is not relaxed along, and
/// a pair reweighted twice keeps the weight the prior was computed with.
#[test]
fn conformance_composed_batch_window() {
    let batch = |inserts: &[(u32, u32, u32)], deletes: &[(u32, u32)]| DeltaBatch {
        inserts: inserts
            .iter()
            .map(|&(s, d, w)| Edge::weighted(s, d, w))
            .collect(),
        deletes: deletes.to_vec(),
    };
    let chain: &[(u32, u32, u32)] = &[(0, 1, 10), (1, 2, 10), (2, 3, 10)];
    let detour: &[(u32, u32, u32)] = &[(0, 1, 5), (0, 2, 1), (2, 1, 10)];
    let cases = [
        (chain, [batch(&[(0, 2, 1)], &[]), batch(&[], &[(0, 2)])]),
        (
            detour,
            [batch(&[(0, 1, 7)], &[]), batch(&[(0, 1, 20)], &[])],
        ),
    ];
    for (edges, window) in cases {
        let mut el = EdgeList::new(4);
        for &(s, d, w) in edges {
            el.edges.push(Edge::weighted(s, d, w));
        }
        let mut mg = MutableGraph::from_edge_list(el).with_compaction_fraction(f64::INFINITY);
        let machine = machine();
        let topo = build_topo(&machine, &mg, true);
        let prior_bfs = bfs_overlay(&machine, THREADS, &topo, 0, None, false).unwrap();
        let prior_sssp = sssp_overlay(&machine, THREADS, &topo, 0, None, false).unwrap();
        let composed = apply_composed(&mut mg, &window);
        assert_min_engines_oracle_exact(&machine, &mg, &prior_bfs, &prior_sssp, &composed);
    }
}

#[test]
fn conformance_cc_and_pagerank() {
    let mut el = gen::uniform(180, 700, 43);
    el.symmetrize();
    let mut mg = MutableGraph::from_edge_list(el).with_compaction_fraction(f64::INFINITY);
    let machine = machine();
    let topo = build_topo(&machine, &mg, false);
    let prior_cc = cc_overlay(&machine, THREADS, &topo, None, false).unwrap();
    let prior_pr =
        pagerank_overlay(&machine, THREADS, &topo, 0.85, DEFAULT_PR_TOL, None, false).unwrap();

    // Symmetric batch (CC's contract): delete a few symmetric pairs,
    // bridge in a fresh one.
    let live = mg.snapshot_edge_list();
    let mut b = DeltaBatch::new();
    for e in live.edges.iter().step_by(41).take(5) {
        b.delete(e.src, e.dst).delete(e.dst, e.src);
    }
    b.insert(3, 177, 1).insert(177, 3, 1);
    let applied = mg.apply(&b).unwrap();
    let topo = build_topo(&machine, &mg, false);

    let warm = WarmStart::from_result(&prior_cc, &applied);
    let inc = cc_overlay(&machine, THREADS, &topo, Some(warm), false).unwrap();
    let (oracle, _) = run_reference(&mg, &ConnectedComponents::new());
    assert_eq!(inc.values, oracle, "incremental CC vs oracle");

    let warm = WarmStart::from_result(&prior_pr, &applied);
    let inc = pagerank_overlay(
        &machine,
        THREADS,
        &topo,
        0.85,
        DEFAULT_PR_TOL,
        Some(warm),
        false,
    )
    .unwrap();
    let scratch =
        pagerank_overlay(&machine, THREADS, &topo, 0.85, DEFAULT_PR_TOL, None, false).unwrap();
    let err = max_rel_error(&inc.values, &scratch.values);
    assert!(err < 1e-6, "incremental PR off by {err}");
}

#[test]
fn conformance_empty_batch_all_programs() {
    let el = gen::uniform(150, 900, 47);
    let mut mg = MutableGraph::from_edge_list(el).with_compaction_fraction(f64::INFINITY);
    let machine = machine();
    let topo = build_topo(&machine, &mg, true);
    let prior_bfs = bfs_overlay(&machine, THREADS, &topo, 0, None, false).unwrap();
    let prior_sssp = sssp_overlay(&machine, THREADS, &topo, 0, None, false).unwrap();
    let prior_cc = cc_overlay(&machine, THREADS, &topo, None, false).unwrap();
    let prior_pr =
        pagerank_overlay(&machine, THREADS, &topo, 0.85, DEFAULT_PR_TOL, None, false).unwrap();

    let applied = mg.apply(&DeltaBatch::new()).unwrap();
    assert!([&applied.inserts, &applied.deletes, &applied.reweighted]
        .iter()
        .all(|l| l.is_empty()));

    let run = bfs_overlay(
        &machine,
        THREADS,
        &topo,
        0,
        Some(WarmStart::from_result(&prior_bfs, &applied)),
        false,
    )
    .unwrap();
    assert_eq!(run.values, prior_bfs.values);
    assert_eq!(run.iterations, prior_bfs.iterations, "no repair rounds");

    let run = sssp_overlay(
        &machine,
        THREADS,
        &topo,
        0,
        Some(WarmStart::from_result(&prior_sssp, &applied)),
        false,
    )
    .unwrap();
    assert_eq!(run.values, prior_sssp.values);
    assert_eq!(run.iterations, prior_sssp.iterations);

    let run = cc_overlay(
        &machine,
        THREADS,
        &topo,
        Some(WarmStart::from_result(&prior_cc, &applied)),
        false,
    )
    .unwrap();
    assert_eq!(run.values, prior_cc.values);
    assert_eq!(run.iterations, prior_cc.iterations);

    let run = pagerank_overlay(
        &machine,
        THREADS,
        &topo,
        0.85,
        DEFAULT_PR_TOL,
        Some(WarmStart::from_result(&prior_pr, &applied)),
        false,
    )
    .unwrap();
    assert_eq!(run.values, prior_pr.values);
    assert_eq!(run.iterations, prior_pr.iterations);
}

/// A batch that pushes the overlay past the compaction threshold: `apply`
/// compacts internally (generation bump, empty log), and the warm-started
/// repair still lands exactly on the oracle because it reads only the
/// recorded batch plus the *current* topology.
#[test]
fn conformance_through_threshold_compaction() {
    let el = gen::uniform(200, 1200, 53);
    let mut mg = MutableGraph::from_edge_list(el).with_compaction_fraction(0.001);
    let machine = machine();
    let topo = build_topo(&machine, &mg, true);
    let prior_bfs = bfs_overlay(&machine, THREADS, &topo, 0, None, false).unwrap();
    let prior_sssp = sssp_overlay(&machine, THREADS, &topo, 0, None, false).unwrap();

    let compactions_before = mg.compactions();
    let applied = mg.apply(&mixed_batch(&mg, 59, 24, false)).unwrap();
    assert!(applied.stats.compacted, "batch must trigger compaction");
    assert_eq!(mg.compactions(), compactions_before + 1);
    assert!(mg.log().is_empty(), "compaction clears the overlay");

    assert_min_engines_oracle_exact(&machine, &mg, &prior_bfs, &prior_sssp, &applied);
}

mod structural {
    use super::*;
    use proptest::prelude::*;

    /// Random batch over a base graph: deletes of live edges, fresh
    /// inserts, reweights of live pairs, and deletes of (likely) missing
    /// pairs, one op per tuple.
    fn batch_from_ops(live: &EdgeList, n: u32, ops: &[(u32, u32, u32, u8)]) -> DeltaBatch {
        let mut b = DeltaBatch::new();
        for &(x, y, w, kind) in ops {
            match kind % 4 {
                0 if !live.edges.is_empty() => {
                    let e = live.edges[x as usize % live.edges.len()];
                    b.delete(e.src, e.dst);
                }
                1 => {
                    let (s, d) = (x % n, y % n);
                    if s != d {
                        b.insert(s, d, w);
                    }
                }
                2 if !live.edges.is_empty() => {
                    let e = live.edges[y as usize % live.edges.len()];
                    b.insert(e.src, e.dst, w);
                }
                _ => {
                    let (s, d) = (x % n, y % n);
                    if s != d {
                        b.delete(s, d);
                    }
                }
            }
        }
        b
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // apply + compact == build-from-scratch, bit-identical CSR/CSC.
        // Covers empty batches (ops can be empty) and delete-heavy ones
        // (kind skew makes deletes twice as likely as fresh inserts).
        #[test]
        fn apply_then_compact_matches_scratch_build(
            seed in 0u64..10_000,
            n in 8usize..100,
            edges_per_vertex in 1usize..6,
            ops in proptest::collection::vec(
                (0u32..=u32::MAX, 0u32..=u32::MAX, 1u32..=100, 0u8..4),
                0..60,
            ),
        ) {
            let el = gen::uniform(n, n * edges_per_vertex, seed);
            let mut mg =
                MutableGraph::from_edge_list(el).with_compaction_fraction(f64::INFINITY);
            let live = mg.snapshot_edge_list();
            let b = batch_from_ops(&live, n as u32, &ops);
            mg.apply(&b).unwrap();

            let scratch = Graph::from_edges(&mg.snapshot_edge_list());
            let had_overlay = !mg.log().is_empty();
            let compactions_before = mg.compactions();
            mg.compact();
            prop_assert_eq!(mg.base(), &scratch, "compacted CSR differs from scratch build");
            prop_assert!(mg.log().is_empty());
            prop_assert_eq!(
                mg.compactions(),
                compactions_before + usize::from(had_overlay),
                "compact counts a compaction exactly when the overlay was non-empty"
            );
            // The live edge view is unchanged by compaction.
            prop_assert_eq!(mg.num_live_edges(), scratch.num_edges());
        }

        // Warm-started min-engines stay oracle-exact on random batches.
        #[test]
        fn warm_min_engines_oracle_exact(
            seed in 0u64..10_000,
            ops in proptest::collection::vec(
                (0u32..=u32::MAX, 0u32..=u32::MAX, 1u32..=100, 0u8..4),
                1..24,
            ),
        ) {
            let el = gen::uniform(120, 700, seed);
            let mut mg =
                MutableGraph::from_edge_list(el).with_compaction_fraction(f64::INFINITY);
            let machine = machine();
            let topo = build_topo(&machine, &mg, true);
            let prior_bfs = bfs_overlay(&machine, THREADS, &topo, 0, None, false).unwrap();
            let prior_sssp = sssp_overlay(&machine, THREADS, &topo, 0, None, false).unwrap();

            let live = mg.snapshot_edge_list();
            let b = batch_from_ops(&live, 120, &ops);
            let applied = mg.apply(&b).unwrap();
            let topo = build_topo(&machine, &mg, true);

            let warm = WarmStart::from_result(&prior_bfs, &applied);
            let inc = bfs_overlay(&machine, THREADS, &topo, 0, Some(warm), false).unwrap();
            let (oracle, _) = run_reference(&mg, &Bfs::new(0));
            prop_assert_eq!(&inc.values, &oracle, "sim BFS diverged");

            let warm = WarmStart::from_result(&prior_sssp, &applied);
            let inc = sssp_overlay(&machine, THREADS, &topo, 0, Some(warm), false).unwrap();
            let (oracle, _) = run_reference(&mg, &Sssp::new(0));
            prop_assert_eq!(&inc.values, &oracle, "sim SSSP diverged");
        }

        // A window of 2–5 batches over a pool of six pairs, so the same pair
        // is inserted, reweighted and deleted repeatedly; every engine
        // warm-starts from the result *before the first batch* through the
        // composed window.
        #[test]
        fn warm_engines_oracle_exact_over_composed_windows(
            seed in 0u64..10_000,
            window in proptest::collection::vec(
                proptest::collection::vec((0usize..6, 1u32..=40, 0u8..3), 1..6),
                2..6,
            ),
        ) {
            let n = 40u32;
            let el = gen::uniform(n as usize, 160, seed);
            let mut mg =
                MutableGraph::from_edge_list(el).with_compaction_fraction(f64::INFINITY);
            // Three live edges (deletes and reweights bite at once) and three
            // arbitrary pairs; the first live edge leaves the query source.
            let live = mg.snapshot_edge_list().edges;
            let mut pool: Vec<(u32, u32)> =
                (0..3).map(|i| live[i * live.len() / 3]).map(|e| (e.src, e.dst)).collect();
            pool.extend((0..3).map(|i| {
                let s = (seed as u32 + 7 * i) % n;
                (s, (s + 1 + (seed as u32 / 3 + 11 * i) % (n - 1)) % n)
            }));
            let source = pool[0].0;

            let machine = machine();
            let topo = build_topo(&machine, &mg, true);
            let prior_bfs = bfs_overlay(&machine, THREADS, &topo, source, None, false).unwrap();
            let prior_sssp = sssp_overlay(&machine, THREADS, &topo, source, None, false).unwrap();
            let prior_pr =
                pagerank_overlay(&machine, THREADS, &topo, 0.85, DEFAULT_PR_TOL, None, false)
                    .unwrap();

            let batches: Vec<DeltaBatch> = window
                .iter()
                .map(|ops| {
                    let mut b = DeltaBatch::new();
                    for &(pair, w, kind) in ops {
                        let (s, d) = pool[pair];
                        if kind == 0 {
                            b.delete(s, d);
                        } else {
                            b.insert(s, d, w);
                        }
                    }
                    b
                })
                .collect();
            let composed = apply_composed(&mut mg, &batches);
            let topo = build_topo(&machine, &mg, true);

            let warm = WarmStart::from_result(&prior_bfs, &composed);
            let inc = bfs_overlay(&machine, THREADS, &topo, source, Some(warm), false).unwrap();
            let (oracle, _) = run_reference(&mg, &Bfs::new(source));
            prop_assert_eq!(&inc.values, &oracle, "BFS diverged over {:?}", &batches);

            let warm = WarmStart::from_result(&prior_sssp, &composed);
            let inc = sssp_overlay(&machine, THREADS, &topo, source, Some(warm), false).unwrap();
            let (oracle, _) = run_reference(&mg, &Sssp::new(source));
            prop_assert_eq!(&inc.values, &oracle, "SSSP diverged over {:?}", &batches);

            let warm = WarmStart::from_result(&prior_pr, &composed);
            let inc =
                pagerank_overlay(&machine, THREADS, &topo, 0.85, DEFAULT_PR_TOL, Some(warm), false)
                    .unwrap();
            let cold =
                pagerank_overlay(&machine, THREADS, &topo, 0.85, DEFAULT_PR_TOL, None, false)
                    .unwrap();
            let err = max_rel_error(&inc.values, &cold.values);
            prop_assert!(err < 1e-6, "PageRank off by {} over {:?}", err, &batches);
        }
    }

    /// Applying a batch, compacting, applying another, and compacting again
    /// equals one scratch build of the final live set (weights included).
    #[test]
    fn repeated_apply_compact_cycles_stay_canonical() {
        let el = gen::uniform(90, 500, 67);
        let mut mg = MutableGraph::from_edge_list(el).with_compaction_fraction(f64::INFINITY);
        for round in 0..4u64 {
            let b = mixed_batch(&mg, 200 + round, 15, false);
            mg.apply(&b).unwrap();
            mg.compact();
            let scratch = Graph::from_edges(&mg.snapshot_edge_list());
            assert_eq!(mg.base(), &scratch, "round {round} drifted");
        }
    }

    #[test]
    fn delete_everything_then_compact_is_empty() {
        let el = gen::uniform(40, 200, 71);
        let mut mg = MutableGraph::from_edge_list(el).with_compaction_fraction(f64::INFINITY);
        let live = mg.snapshot_edge_list();
        let mut b = DeltaBatch::new();
        for e in &live.edges {
            b.delete(e.src, e.dst);
        }
        mg.apply(&b).unwrap();
        assert_eq!(mg.num_live_edges(), 0);
        mg.compact();
        assert_eq!(mg.base().num_edges(), 0);
        assert_eq!(mg.base(), &Graph::from_edges(&EdgeList::new(40)));
        // A fresh insert after total deletion still round-trips.
        let mut b = DeltaBatch::new();
        b.insert(0, 1, 9);
        mg.apply(&b).unwrap();
        assert_eq!(mg.weight(0, 1), Some(9));
        assert_eq!(mg.num_live_edges(), 1);
    }

    #[test]
    fn reweight_is_recorded_with_old_weight() {
        let mut el = EdgeList::new(4);
        el.edges.push(Edge::weighted(0, 1, 5));
        el.edges.push(Edge::weighted(1, 2, 7));
        let mut mg = MutableGraph::from_edge_list(el).with_compaction_fraction(f64::INFINITY);
        let mut b = DeltaBatch::new();
        b.insert(0, 1, 11); // reweight 5 → 11
        b.insert(1, 2, 7); // idempotent upsert
        let applied = mg.apply(&b).unwrap();
        assert_eq!(applied.reweighted, vec![Edge::weighted(0, 1, 5)]);
        assert_eq!(applied.inserts, vec![Edge::weighted(0, 1, 11)]);
        assert_eq!(mg.weight(0, 1), Some(11));
        let scratch = Graph::from_edges(&mg.snapshot_edge_list());
        mg.compact();
        assert_eq!(mg.base(), &scratch);
    }
}
