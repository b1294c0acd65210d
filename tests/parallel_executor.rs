//! The real-threads executor, reached as every real-thread run reaches it
//! (`Engine::try_run_with` on `Backend::RealThreads`), must agree with the
//! sequential reference under genuine concurrency: exactly for
//! min-combining programs, ε-close for floating-point accumulation. This is
//! the end-to-end check on the owner-computes executor: target ownership
//! (including owners of nothing), the gather, binned-push and dense-push
//! edge phases, the hierarchical barrier, and the per-owner frontier
//! machinery.

use std::sync::atomic::{AtomicU32, Ordering};

use polymer::algos::reference::max_rel_error;
use polymer::api::program::{fold_f64, fold_u32, fold_u64};
use polymer::api::{Combine, FrontierInit};
use polymer::graph::{gen, VId, Weight};
use polymer::numa::{Atom, SharedTracer};
use polymer::prelude::*;

/// The executor's two edge-phase profiles, reached through the engines
/// that carry them: Polymer's is hybrid and adaptive, X-Stream's pushes on
/// every iteration.
#[derive(Clone, Copy, Debug)]
enum Profile {
    Hybrid,
    PushOnly,
}
const PROFILES: [Profile; 2] = [Profile::Hybrid, Profile::PushOnly];

/// Final values and iteration count of `prog` under `profile`.
fn run_profile<P: Program>(
    g: &Graph,
    prog: &P,
    threads: usize,
    profile: Profile,
) -> (Vec<P::Val>, usize) {
    let backend = Backend::real_threads();
    let machine = Machine::new(MachineSpec::test2());
    let run = match profile {
        Profile::Hybrid => PolymerEngine::new().try_run_on(&backend, &machine, threads, g, prog),
        Profile::PushOnly => XStreamEngine::new().try_run_on(&backend, &machine, threads, g, prog),
    }
    .expect("healthy run");
    (run.values, run.iterations)
}

/// BFS, SSSP, CC (exact) and PageRank (≤ 1e-9) against `run_reference` on
/// `el`, under `profile` on `threads` threads.
fn check_all_algorithms(el: &polymer::graph::EdgeList, threads: usize, profile: Profile) {
    let label = format!(
        "n={} m={} threads={threads} {profile:?}",
        el.num_vertices,
        el.num_edges(),
    );
    let g = Graph::from_edges(el);
    let src = (0..g.num_vertices() as u32)
        .max_by_key(|&v| g.out_degree(v))
        .unwrap();

    let bfs = Bfs::new(src);
    assert_eq!(
        run_profile(&g, &bfs, threads, profile).0,
        run_reference(&g, &bfs).0,
        "BFS {label}"
    );
    let sssp = Sssp::new(src);
    assert_eq!(
        run_profile(&g, &sssp, threads, profile).0,
        run_reference(&g, &sssp).0,
        "SSSP {label}"
    );
    let pr = PageRank::new(g.num_vertices());
    let err = max_rel_error(
        &run_profile(&g, &pr, threads, profile).0,
        &run_reference(&g, &pr).0,
    );
    assert!(err <= 1e-9, "PR {label}: max rel error {err}");

    let mut sym = el.clone();
    sym.symmetrize();
    let g = Graph::from_edges(&sym);
    let cc = ConnectedComponents::new();
    assert_eq!(
        run_profile(&g, &cc, threads, profile).0,
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
            let (got, _) = run_profile(&g, &prog, threads, Profile::PushOnly);
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
        let (got, _) = run_profile(&g, &prog, 4, Profile::PushOnly);
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
        let (got, _) = run_profile(&g, &prog, 4, Profile::PushOnly);
        assert_eq!(got, want);
    }
}

#[test]
fn parallel_pagerank_close_to_reference() {
    for el in graphs() {
        let g = Graph::from_edges(&el);
        let prog = PageRank::new(g.num_vertices());
        let (want, _) = run_reference(&g, &prog);
        let (got, _) = run_profile(&g, &prog, 4, Profile::PushOnly);
        let err = max_rel_error(&got, &want);
        assert!(err < 1e-9, "max rel error {err}");
    }
}

#[test]
fn parallel_spmv_close_to_reference() {
    let g = Graph::from_edges(&gen::uniform(300, 1_500, 4));
    let prog = SpMV::new();
    let (want, _) = run_reference(&g, &prog);
    let (got, iters) = run_profile(&g, &prog, 3, Profile::PushOnly);
    assert_eq!(iters, 5);
    assert!(max_rel_error(&got, &want) < 1e-9);
}

#[test]
fn parallel_bp_close_to_reference() {
    let g = Graph::from_edges(&gen::rmat(8, 1_500, gen::RMAT_GRAPH500, 6));
    let prog = BeliefPropagation::new();
    let (want, _) = run_reference(&g, &prog);
    let (got, _) = run_profile(&g, &prog, 4, Profile::PushOnly);
    assert!(max_rel_error(&got, &want) < 1e-9);
}

/// Each engine's profile, end to end: Polymer without adaptive states and
/// Ligra's push-only ablation push on every iteration exactly as X-Stream
/// does, and Ligra's default is Polymer's hybrid. PageRank's fold order
/// differs between a gather and a push, so its bits tell the two apart.
#[test]
fn engine_profiles_map_onto_the_executor() {
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
            let push = run(&XStreamEngine::new(), g, prog, threads, bits);
            let polymer_push = PolymerEngine::new().without_adaptive_states();
            let polymer_push = run(&polymer_push, g, prog, threads, bits);
            assert!(
                polymer_push == push,
                "Polymer without adaptive states: {what}"
            );
            let ligra_push = run(&LigraEngine::new().push_only(), g, prog, threads, bits);
            assert!(ligra_push == push, "Ligra push-only: {what}");
            let hybrid = run(&PolymerEngine::new(), g, prog, threads, bits);
            let ligra = run(&LigraEngine::new(), g, prog, threads, bits);
            assert!(ligra == hybrid, "Ligra: {what}");
        }
    }
    let g = Graph::from_edges(&gen::rmat(9, 5_000, gen::RMAT_GRAPH500, 3));
    check(&g, &Bfs::new(0), u64::from);
    check(&g, &Sssp::new(0), |d| d);
    check(&g, &PageRank::new(g.num_vertices()), f64::to_bits);
}

/// Ownership edge cases end to end: fewer 64-vertex bitmap words than
/// threads (owners of nothing), a last word that is only partly populated,
/// and one-vertex graphs — every algorithm, both profiles.
#[test]
fn ownership_edge_cases_match_reference() {
    for n in [1usize, 2, 63, 64, 65, 129, 1000] {
        let el = gen::uniform(n, 4 * n, 11 + n as u64);
        for threads in [1, 2, 3, 8] {
            for profile in PROFILES {
                check_all_algorithms(&el, threads, profile);
            }
        }
    }
}

/// Push-only BFS and SSSP on a skewed graph take both push paths in one
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
        assert!(
            !buf.worker_spans.iter().any(|s| s.name == "gather"),
            "{label}"
        );
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
/// answer under both profiles.
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
    fn atom_max(_: &AtomicU32, _: Self) -> Self {
        unreachable!("the executor issued an atomic max")
    }
    fn atom_mul(_: &AtomicU32, _: Self) -> Self {
        unreachable!("the executor issued an atomic multiply")
    }
    fn atom_or(_: &AtomicU32, _: Self) -> Self {
        unreachable!("the executor issued an atomic or")
    }
    fn atom_cas(_: &AtomicU32, _: Self, _: Self) -> Result<Self, Self> {
        unreachable!("the executor issued a compare-and-swap")
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
    fn fold(&self, a: LoadStoreOnly, b: LoadStoreOnly) -> LoadStoreOnly {
        a.min(b)
    }
}

#[test]
fn executor_issues_only_loads_and_stores_on_values() {
    // Skewed enough that the hybrid profile both pushes and gathers.
    let g = Graph::from_edges(&gen::rmat(9, 6_000, gen::RMAT_GRAPH500, 21));
    let src = (0..g.num_vertices() as u32)
        .max_by_key(|&v| g.out_degree(v))
        .unwrap();
    let prog = Levels(src);
    let (want, _) = run_reference(&g, &prog);
    for profile in PROFILES {
        for threads in [1, 2, 4] {
            assert_eq!(
                run_profile(&g, &prog, threads, profile).0,
                want,
                "{profile:?}, {threads} threads"
            );
        }
    }
}

/// The executor folds through [`Program::fold`], the simulated engines
/// through a [`Program::combine`]-dispatched atomic: the two must be the
/// same operator for every shipped program.
#[test]
fn fold_agrees_with_combine_for_every_shipped_program() {
    fn pairs<T: Copy>(samples: &[T]) -> impl Iterator<Item = (T, T)> + '_ {
        samples
            .iter()
            .flat_map(move |&a| samples.iter().map(move |&b| (a, b)))
    }
    let f64s = [0.0, 1.0, -2.5, 0.15, 1e-12, 3.0e7];
    let u32s = [0, 1, 7, 1 << 20, u32::MAX - 1, u32::MAX];
    let u64s = [0, 1, 7, 1 << 40, u64::MAX - 1, u64::MAX];
    fn same_f64<P: Program<Val = f64>>(p: &P, samples: &[f64]) {
        for (a, b) in pairs(samples) {
            let (got, want) = (p.fold(a, b), fold_f64(p.combine(), a, b));
            assert_eq!(got.to_bits(), want.to_bits(), "{}: {a} ∘ {b}", p.name());
        }
    }
    fn same_u32<P: Program<Val = u32>>(p: &P, samples: &[u32]) {
        for (a, b) in pairs(samples) {
            assert_eq!(
                p.fold(a, b),
                fold_u32(p.combine(), a, b),
                "{}: {a} ∘ {b}",
                p.name()
            );
        }
    }
    same_f64(&PageRank::new(100), &f64s);
    same_f64(&SpMV::new(), &f64s);
    same_f64(&BeliefPropagation::new(), &f64s);
    same_u32(&Bfs::new(0), &u32s);
    same_u32(&ConnectedComponents::new(), &u32s);
    let sssp = Sssp::new(0);
    for (a, b) in pairs(&u64s) {
        assert_eq!(
            sssp.fold(a, b),
            fold_u64(sssp.combine(), a, b),
            "SSSP: {a} ∘ {b}"
        );
    }
}

mod random_graphs {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        // Random graphs, thread counts and profiles against the reference.
        #[test]
        fn executor_matches_reference(
            shape in (1usize..200, 0usize..4, 0u64..10_000),
            threads in 1usize..9,
            profile in 0usize..2
        ) {
            let (n, density, seed) = shape;
            let el = gen::uniform(n, (n << density) / 2 + 1, seed);
            check_all_algorithms(&el, threads, PROFILES[profile]);
        }
    }
}
