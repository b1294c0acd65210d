//! The real-threads executor, reached as every real-thread run reaches it
//! (`Engine::try_run_with` on `Backend::RealThreads`), must agree with the
//! sequential reference under genuine concurrency: exactly for
//! min-combining programs, ε-close for floating-point accumulation. This is
//! the end-to-end check on the owner-computes executor: target ownership
//! (including owners of nothing), the binned-push and dense-push edge
//! phases, the hierarchical barrier, and the per-owner frontier machinery.
//! Every engine runs this one executor, and
//! `every_engine_runs_the_same_executor` pins that.

use std::sync::atomic::{AtomicU32, Ordering};

use polymer::algos::reference::max_rel_error;
use polymer::api::{Combine, FrontierInit};
use polymer::graph::{gen, VId, Weight};
use polymer::numa::{Atom, SharedTracer};
use polymer::prelude::*;

/// Final values and iteration count of `prog` on `threads` real threads.
fn run_threads<P: Program>(g: &Graph, prog: &P, threads: usize) -> (Vec<P::Val>, usize) {
    let backend = Backend::real_threads();
    let machine = Machine::new(MachineSpec::test2());
    let run = PolymerEngine::new()
        .try_run_on(&backend, &machine, threads, g, prog)
        .expect("healthy run");
    (run.values, run.iterations)
}

/// BFS, SSSP, CC (exact) and PageRank (≤ 1e-9) against `run_reference` on
/// `el`, on `threads` threads.
fn check_all_algorithms(el: &polymer::graph::EdgeList, threads: usize) {
    let label = format!(
        "n={} m={} threads={threads}",
        el.num_vertices,
        el.num_edges(),
    );
    let g = Graph::from_edges(el);
    let src = (0..g.num_vertices() as u32)
        .max_by_key(|&v| g.out_degree(v))
        .unwrap();

    let bfs = Bfs::new(src);
    assert_eq!(
        run_threads(&g, &bfs, threads).0,
        run_reference(&g, &bfs).0,
        "BFS {label}"
    );
    let sssp = Sssp::new(src);
    assert_eq!(
        run_threads(&g, &sssp, threads).0,
        run_reference(&g, &sssp).0,
        "SSSP {label}"
    );
    let pr = PageRank::new(g.num_vertices());
    let err = max_rel_error(&run_threads(&g, &pr, threads).0, &run_reference(&g, &pr).0);
    assert!(err <= 1e-9, "PR {label}: max rel error {err}");

    let mut sym = el.clone();
    sym.symmetrize();
    let g = Graph::from_edges(&sym);
    let cc = ConnectedComponents::new();
    assert_eq!(
        run_threads(&g, &cc, threads).0,
        run_reference(&g, &cc).0,
        "CC {label}"
    );
}

fn graphs() -> Vec<polymer::graph::EdgeList> {
    vec![
        gen::rmat(9, 4_000, gen::RMAT_GRAPH500, 3),
        gen::road_grid(12, 12, 0.6, 5),
        gen::uniform(400, 2_000, 8),
    ]
}

#[test]
fn parallel_bfs_matches_reference() {
    for el in graphs() {
        let g = Graph::from_edges(&el);
        let src = (0..g.num_vertices() as u32)
            .max_by_key(|&v| g.out_degree(v))
            .unwrap();
        let prog = Bfs::new(src);
        let (want, _) = run_reference(&g, &prog);
        for threads in [1, 3, 4] {
            let (got, _) = run_threads(&g, &prog, threads);
            assert_eq!(got, want, "{threads} threads diverged");
        }
    }
}

#[test]
fn parallel_sssp_matches_reference() {
    for el in graphs() {
        let g = Graph::from_edges(&el);
        let src = (0..g.num_vertices() as u32)
            .max_by_key(|&v| g.out_degree(v))
            .unwrap();
        let prog = Sssp::new(src);
        let (want, _) = run_reference(&g, &prog);
        let (got, _) = run_threads(&g, &prog, 4);
        assert_eq!(got, want);
    }
}

#[test]
fn parallel_cc_matches_reference() {
    for mut el in graphs() {
        el.symmetrize();
        let g = Graph::from_edges(&el);
        let prog = ConnectedComponents::new();
        let (want, _) = run_reference(&g, &prog);
        let (got, _) = run_threads(&g, &prog, 4);
        assert_eq!(got, want);
    }
}

#[test]
fn parallel_pagerank_close_to_reference() {
    for el in graphs() {
        let g = Graph::from_edges(&el);
        let prog = PageRank::new(g.num_vertices());
        let (want, _) = run_reference(&g, &prog);
        let (got, _) = run_threads(&g, &prog, 4);
        let err = max_rel_error(&got, &want);
        assert!(err < 1e-9, "max rel error {err}");
    }
}

#[test]
fn parallel_spmv_close_to_reference() {
    let g = Graph::from_edges(&gen::uniform(300, 1_500, 4));
    let prog = SpMV::new();
    let (want, _) = run_reference(&g, &prog);
    let (got, iters) = run_threads(&g, &prog, 3);
    assert_eq!(iters, 5);
    assert!(max_rel_error(&got, &want) < 1e-9);
}

#[test]
fn parallel_bp_close_to_reference() {
    let g = Graph::from_edges(&gen::rmat(8, 1_500, gen::RMAT_GRAPH500, 6));
    let prog = BeliefPropagation::new();
    let (want, _) = run_reference(&g, &prog);
    let (got, _) = run_threads(&g, &prog, 4);
    assert!(max_rel_error(&got, &want) < 1e-9);
}

/// Every engine, whatever its configuration, runs the one push executor on
/// real threads: the same values, bit for bit, and the same iteration
/// count. PageRank's bits depend on the fold order, so they would tell a
/// gather from a push.
#[test]
fn every_engine_runs_the_same_executor() {
    fn run<E: Engine, P: Program>(
        engine: &E,
        g: &Graph,
        prog: &P,
        threads: usize,
        bits: fn(P::Val) -> u64,
    ) -> (Vec<u64>, usize) {
        let (backend, machine) = (Backend::real_threads(), Machine::new(MachineSpec::test2()));
        let run = engine.try_run_on(&backend, &machine, threads, g, prog);
        let run = run.expect("healthy run");
        (run.values.into_iter().map(bits).collect(), run.iterations)
    }
    fn check<P: Program>(g: &Graph, prog: &P, bits: fn(P::Val) -> u64) {
        for threads in [2, 3] {
            let what = format!("{} at {threads} threads", prog.name());
            let want = run(&XStreamEngine::new(), g, prog, threads, bits);
            let others = [
                (
                    "Polymer",
                    run(&PolymerEngine::new(), g, prog, threads, bits),
                ),
                (
                    "Polymer without adaptive states",
                    run(
                        &PolymerEngine::new().without_adaptive_states(),
                        g,
                        prog,
                        threads,
                        bits,
                    ),
                ),
                ("Ligra", run(&LigraEngine::new(), g, prog, threads, bits)),
                (
                    "Ligra push-only",
                    run(&LigraEngine { force_push: true }, g, prog, threads, bits),
                ),
                ("Galois", run(&GaloisEngine::new(), g, prog, threads, bits)),
            ];
            for (engine, got) in others {
                assert!(got == want, "{engine}: {what}");
            }
        }
    }
    let g = Graph::from_edges(&gen::rmat(9, 5_000, gen::RMAT_GRAPH500, 3));
    check(&g, &Bfs::new(0), u64::from);
    check(&g, &Sssp::new(0), |d| d);
    check(&g, &PageRank::new(g.num_vertices()), f64::to_bits);
}

/// Ownership edge cases end to end: fewer 64-vertex bitmap words than
/// threads (owners of nothing), a last word that is only partly populated,
/// and one-vertex graphs — every algorithm.
#[test]
fn ownership_edge_cases_match_reference() {
    for n in [1usize, 2, 63, 64, 65, 129, 1000] {
        let el = gen::uniform(n, 4 * n, 11 + n as u64);
        for threads in [1, 2, 3, 8] {
            check_all_algorithms(&el, threads);
        }
    }
}

/// BFS and SSSP on a skewed graph take both push paths in one
/// run: the single-source start bins, the heavy middle iterations scatter
/// into per-producer partials, the thin tail bins again. Every thread count
/// must land on the reference exactly, which it cannot if a dense push
/// leaves a partial cell or touched bit behind for a later one.
#[test]
fn push_only_runs_switch_between_bins_and_partials_and_match_reference() {
    fn check<P: Program>(g: &Graph, prog: &P, threads: usize)
    where
        P::Val: PartialEq + std::fmt::Debug,
    {
        let tracer = SharedTracer::new(1, threads);
        let opts = RunOptions {
            backend: Backend::real_threads(),
            tracer: Some(&tracer),
            ..RunOptions::default()
        };
        let machine = Machine::new(MachineSpec::test2());
        let got = XStreamEngine::new()
            .try_run_with(&machine, threads, g, prog, &opts)
            .expect("healthy run");
        let label = format!("{} at {threads} threads", prog.name());
        assert_eq!(got.values, run_reference(g, prog).0, "{label}");
        let buf = tracer.into_buffer();
        for path in ["push-bins", "push-dense", "apply"] {
            assert!(
                buf.worker_spans.iter().any(|s| s.name == path),
                "{label}: no {path} span"
            );
        }
    }
    let g = Graph::from_edges(&gen::rmat(12, 16 << 12, gen::RMAT_GRAPH500, 29));
    let src = (0..g.num_vertices() as u32)
        .max_by_key(|&v| g.out_degree(v))
        .unwrap();
    for threads in [2, 3, 4, 7] {
        check(&g, &Bfs::new(src), threads);
        check(&g, &Sssp::new(src), threads);
    }
}

/// The executor may only load and store value cells: a `Val` whose every
/// atomic read-modify-write is `unreachable!()` must run to the reference
/// answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct LoadStoreOnly(u32);

impl Atom for LoadStoreOnly {
    type Repr = AtomicU32;
    fn zero() -> Self {
        LoadStoreOnly(0)
    }
    fn new_atomic(v: Self) -> AtomicU32 {
        AtomicU32::new(v.0)
    }
    fn atom_load(r: &AtomicU32) -> Self {
        LoadStoreOnly(r.load(Ordering::Relaxed))
    }
    fn atom_store(r: &AtomicU32, v: Self) {
        r.store(v.0, Ordering::Relaxed)
    }
    fn atom_add(_: &AtomicU32, _: Self) -> Self {
        unreachable!("the executor issued an atomic add")
    }
    fn atom_min(_: &AtomicU32, _: Self) -> Self {
        unreachable!("the executor issued an atomic min")
    }
    fn host_add(a: Self, b: Self) -> Self {
        LoadStoreOnly(a.0.wrapping_add(b.0))
    }
    fn host_min(a: Self, b: Self) -> Self {
        a.min(b)
    }
}

/// BFS levels over [`LoadStoreOnly`].
struct Levels(VId);

impl Program for Levels {
    type Val = LoadStoreOnly;
    fn name(&self) -> &'static str {
        "levels"
    }
    fn combine(&self) -> Combine {
        Combine::Min
    }
    fn next_identity(&self) -> LoadStoreOnly {
        LoadStoreOnly(u32::MAX)
    }
    fn init(&self, v: VId) -> LoadStoreOnly {
        LoadStoreOnly(if v == self.0 { 0 } else { u32::MAX })
    }
    fn scatter(&self, _s: VId, sv: LoadStoreOnly, _w: Weight, _d: u32) -> LoadStoreOnly {
        LoadStoreOnly(sv.0 + 1)
    }
    fn apply(&self, _v: VId, acc: LoadStoreOnly, curr: LoadStoreOnly) -> (LoadStoreOnly, bool) {
        (acc.min(curr), acc < curr)
    }
    fn initial_frontier(&self) -> FrontierInit {
        FrontierInit::Single(self.0)
    }
    fn max_iters(&self) -> usize {
        usize::MAX
    }
}

#[test]
fn executor_issues_only_loads_and_stores_on_values() {
    // A skewed graph: the frontier grows from one source to most of the
    // graph and shrinks again.
    let g = Graph::from_edges(&gen::rmat(9, 6_000, gen::RMAT_GRAPH500, 21));
    let src = (0..g.num_vertices() as u32)
        .max_by_key(|&v| g.out_degree(v))
        .unwrap();
    let prog = Levels(src);
    let (want, _) = run_reference(&g, &prog);
    for threads in [1, 2, 4] {
        assert_eq!(run_threads(&g, &prog, threads).0, want, "{threads} threads");
    }
}

mod random_graphs {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        // Random graphs and thread counts against the reference.
        #[test]
        fn executor_matches_reference(
            shape in (1usize..200, 0usize..4, 0u64..10_000),
            threads in 1usize..9
        ) {
            let (n, density, seed) = shape;
            let el = gen::uniform(n, (n << density) / 2 + 1, seed);
            check_all_algorithms(&el, threads);
        }
    }
}
