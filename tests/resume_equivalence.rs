//! Resume-equivalence suite: resuming a run from any mid-run checkpoint
//! must reproduce the uninterrupted run **bit-identically** — same values,
//! same final iteration count.
//!
//! The harness runs every program × engine × backend cell once with
//! `CheckpointPolicy::EveryN(1)` into a history-keeping store, then replays
//! the run from harvested checkpoints with a fresh machine and compares
//! against the baseline:
//!
//! - integer programs (BFS, SSSP, CC): exact equality on both backends;
//! - float programs (PR, SpMV, BP): exact equality on both backends too.
//!   On the simulator checkpoints preserve frontier representation and
//!   member order; on real threads the owner-computes executor fixes the
//!   summation order by construction (CSC order in a gather iteration; own
//!   frontier slice, then bins by producer, in a push iteration), and a
//!   resumed frontier yields the same direction, slices and bins;
//! - the resumed run must finish at the same iteration count, proving the
//!   checkpoint's iteration stamp threads through correctly.

use polymer::algos::reference::max_rel_error;
use polymer::api::{Checkpoint, CheckpointPolicy, CheckpointStore, RecoverySession};
use polymer::graph::gen;
use polymer::prelude::*;
use polymer_bench::{with_engine, SystemId};

fn machine() -> Machine {
    Machine::new(MachineSpec::test2())
}

fn small_graph() -> Graph {
    Graph::from_edges(&gen::rmat(8, 2_000, gen::RMAT_GRAPH500, 13))
}

fn small_graph_sym() -> Graph {
    let mut el = gen::rmat(8, 2_000, gen::RMAT_GRAPH500, 13);
    el.symmetrize();
    Graph::from_edges(&el)
}

fn backends() -> Vec<(&'static str, Backend)> {
    vec![
        ("simulated", Backend::Simulated),
        ("real-threads", Backend::real_threads()),
    ]
}

/// [`Engine::try_run_with`] on a fresh machine under `backend` and
/// `recovery`, every other option at its default.
fn run_rec<E: Engine, P: Program>(
    engine: &E,
    backend: &Backend,
    threads: usize,
    g: &Graph,
    prog: &P,
    recovery: RecoverySession<P::Val>,
) -> PolymerResult<RunResult<P::Val>> {
    let opts = RunOptions {
        backend: backend.clone(),
        recovery,
        ..RunOptions::default()
    };
    engine.try_run_with(&machine(), threads, g, prog, &opts)
}

/// Run once uninterrupted, checkpointing after every iteration, and return
/// the baseline result plus the harvested checkpoint history.
fn baseline_with_history<E: Engine, P: Program>(
    engine: &E,
    backend: &Backend,
    g: &Graph,
    prog: &P,
) -> (RunResult<P::Val>, Vec<Checkpoint<P::Val>>) {
    let store = CheckpointStore::with_history();
    let session = RecoverySession::new(CheckpointPolicy::EveryN(1), store.clone());
    let base = run_rec(engine, backend, 4, g, prog, session).expect("baseline run succeeds");
    (base, store.history())
}

/// Replay from `ckpt` on a fresh machine (checkpointing disabled, so the
/// replay itself is the plain fast path) and return the result.
fn resume_from<E: Engine, P: Program>(
    engine: &E,
    backend: &Backend,
    g: &Graph,
    prog: &P,
    ckpt: Checkpoint<P::Val>,
) -> RunResult<P::Val> {
    let session = RecoverySession::new(CheckpointPolicy::Never, CheckpointStore::new())
        .with_resume(Some(ckpt));
    run_rec(engine, backend, 4, g, prog, session).expect("resumed run succeeds")
}

/// Which checkpoints to replay: all of them on the simulated backend, a
/// first/middle/last sample on real threads (which spawn OS threads per
/// replay).
fn replay_indices(history_len: usize, backend_name: &str) -> Vec<usize> {
    if history_len == 0 {
        return vec![];
    }
    if backend_name == "simulated" {
        (0..history_len).collect()
    } else {
        let mut idx = vec![0, history_len / 2, history_len - 1];
        idx.dedup();
        idx
    }
}

fn check_resume_exact<P: Program>(g: &Graph, prog: &P, label: &str)
where
    P::Val: Eq + std::fmt::Debug,
{
    for (bname, backend) in backends() {
        for system in SystemId::ALL {
            let ename = system.name();
            with_engine!(system, Default::default(), |engine| {
                let (base, history) = baseline_with_history(engine, &backend, g, prog);
                assert!(
                    !history.is_empty(),
                    "{ename}/{bname}/{label}: EveryN(1) run produced no checkpoints"
                );
                for i in replay_indices(history.len(), bname) {
                    let ck_iter = history[i].iteration;
                    let resumed = resume_from(engine, &backend, g, prog, history[i].clone());
                    assert_eq!(
                        resumed.values, base.values,
                        "{ename}/{bname}/{label}: resume from iteration {ck_iter} diverged"
                    );
                    assert_eq!(
                        resumed.iterations, base.iterations,
                        "{ename}/{bname}/{label}: resume from iteration {ck_iter} changed the iteration count"
                    );
                }
            });
        }
    }
}

fn check_resume_float<P: Program<Val = f64>>(g: &Graph, prog: &P, label: &str) {
    for (bname, backend) in backends() {
        for system in SystemId::ALL {
            let ename = system.name();
            with_engine!(system, Default::default(), |engine| {
                let (base, history) = baseline_with_history(engine, &backend, g, prog);
                assert!(
                    !history.is_empty(),
                    "{ename}/{bname}/{label}: EveryN(1) run produced no checkpoints"
                );
                for i in replay_indices(history.len(), bname) {
                    let ck_iter = history[i].iteration;
                    let resumed = resume_from(engine, &backend, g, prog, history[i].clone());
                    // Summation order is reproduced exactly on both backends,
                    // so every bit of every float must match.
                    assert!(
                        same_bits(&resumed.values, &base.values),
                        "{ename}/{bname}/{label}: resume from iteration {ck_iter} \
                         drifted bitwise (max rel error {})",
                        max_rel_error(&resumed.values, &base.values)
                    );
                    assert_eq!(
                        resumed.iterations, base.iterations,
                        "{ename}/{bname}/{label}: resume from iteration {ck_iter} changed the iteration count"
                    );
                }
            });
        }
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn resume_equivalence_bfs() {
    let g = small_graph();
    check_resume_exact(&g, &Bfs::new(0), "BFS");
}

#[test]
fn resume_equivalence_sssp() {
    let g = Graph::from_edges(&gen::road_grid(16, 16, 0.6, 3));
    // Source 1 reaches most of the grid (vertex 0 is isolated under this
    // seed, which would end the run after one round with nothing to
    // checkpoint).
    check_resume_exact(&g, &Sssp::new(1), "SSSP");
}

#[test]
fn resume_equivalence_cc() {
    let g = small_graph_sym();
    check_resume_exact(&g, &ConnectedComponents::new(), "CC");
}

#[test]
fn resume_equivalence_pagerank() {
    let g = small_graph();
    check_resume_float(&g, &PageRank::new(g.num_vertices()), "PR");
}

#[test]
fn resume_equivalence_spmv() {
    let g = small_graph();
    check_resume_float(&g, &SpMV::new(), "SpMV");
}

#[test]
fn resume_equivalence_bp() {
    let g = small_graph();
    check_resume_float(&g, &BeliefPropagation::new(), "BP");
}

/// Real threads, both edge phases: PageRank under the hybrid profile
/// gathers on every iteration, under the push-only profile it scatters
/// through the (producer, owner) bins on every iteration. A run resumed from
/// a checkpoint taken after either kind of iteration must reproduce the
/// uninterrupted run bit for bit — as must a second uninterrupted run.
#[test]
fn real_threads_resume_is_bit_identical_after_gather_and_binned_push_iterations() {
    fn check<E: Engine>(name: &str, engine: &E) {
        let g = small_graph();
        let prog = PageRank::new(g.num_vertices());
        for threads in [2, 3] {
            let run = |session: RecoverySession<f64>| {
                run_rec(
                    engine,
                    &Backend::real_threads(),
                    threads,
                    &g,
                    &prog,
                    session,
                )
                .expect("healthy run")
            };
            let store = CheckpointStore::with_history();
            let base = run(RecoverySession::new(
                CheckpointPolicy::EveryN(1),
                store.clone(),
            ));
            let again = run(RecoverySession::disabled());
            assert!(
                same_bits(&again.values, &base.values),
                "{name}/{threads} threads: two uninterrupted runs differ"
            );
            let history = store.history();
            assert_eq!(
                history.len(),
                base.iterations,
                "{name}: one checkpoint per iteration"
            );
            for ck in history {
                let from = ck.iteration;
                let resumed = run(RecoverySession::new(
                    CheckpointPolicy::Never,
                    CheckpointStore::new(),
                )
                .with_resume(Some(ck)));
                assert!(
                    same_bits(&resumed.values, &base.values),
                    "{name}/{threads} threads: resume from iteration {from} drifted bitwise"
                );
                assert_eq!(
                    resumed.iterations, base.iterations,
                    "{name}: iteration count after resume"
                );
            }
        }
    }
    // Polymer's profile is hybrid-adaptive (all-active PageRank gathers),
    // X-Stream's is push-only.
    check("gather", &PolymerEngine::new());
    check("binned push", &XStreamEngine::new());
}

/// A disabled recovery session and a `Never` policy must both be the plain
/// fast path: bit-identical values *and accounting* versus the default options.
#[test]
fn never_policy_is_bit_identical_to_plain_runs() {
    let g = small_graph();
    let prog = Bfs::new(0);
    for system in SystemId::ALL {
        let ename = system.name();
        with_engine!(system, Default::default(), |engine| {
            let run = |session| run_rec(engine, &Backend::Simulated, 4, &g, &prog, session);
            let plain = run(RecoverySession::disabled()).expect("plain run succeeds");
            let never = run(RecoverySession::new(
                CheckpointPolicy::Never,
                CheckpointStore::new(),
            ))
            .expect("Never-policy run succeeds");
            assert_eq!(never.values, plain.values, "{ename}: values drifted");
            assert_eq!(
                never.seconds(),
                plain.seconds(),
                "{ename}: CheckpointPolicy::Never changed simulated time"
            );
            assert_eq!(
                never.total_cost(),
                plain.total_cost(),
                "{ename}: CheckpointPolicy::Never changed phase accounting"
            );
        });
    }
}

mod resume_proptest {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        // On random R-MAT graphs, resuming any engine from its middle
        // checkpoint reproduces the uninterrupted BFS run bit-for-bit.
        #[test]
        fn resume_matches_uninterrupted_on_random_graphs(seed in 0u64..10_000) {
            let el = gen::rmat(7, 1_000, gen::RMAT_GRAPH500, seed);
            let g = Graph::from_edges(&el);
            let prog = Bfs::new(0);
            for system in SystemId::ALL {
                let ename = system.name();
                with_engine!(system, Default::default(), |engine| {
                    let (base, history) =
                        baseline_with_history(engine, &Backend::Simulated, &g, &prog);
                    if history.is_empty() {
                        continue;
                    }
                    let mid = history[history.len() / 2].clone();
                    let from = mid.iteration;
                    let resumed = resume_from(engine, &Backend::Simulated, &g, &prog, mid);
                    assert_eq!(
                        resumed.values, base.values,
                        "{ename}: seed {seed}, resume from {from} diverged"
                    );
                    assert_eq!(resumed.iterations, base.iterations, "{ename}: seed {seed}");
                });
            }
        }
    }
}
