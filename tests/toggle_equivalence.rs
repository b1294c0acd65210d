//! Equivalence matrix of the two per-machine toggles on [`MachineSpec`]:
//! `bulk_accounting` and `shard_mode`.
//!
//! Both are accounting-only — they change how the host computes the
//! simulated result, never the result — so every combination must replay
//! `results/golden_phasecosts.json` field for field, and a random script of
//! scalar and bulk accesses must produce identical `AccessStats`,
//! `PhaseCost`s, clocks and Chrome traces either way. One exception stands:
//! on a tiered machine under `TierPolicy::Sampled`, bulk accounting changes
//! which pages the sampled heat promotes, so there only the values are
//! pinned (see the tiered case at the end of this file).
//!
//! The toggles travel with the machine a run is built on, so every case here
//! runs in-process, concurrently with the others, with no lock.

use std::sync::Barrier;

use proptest::prelude::*;

use polymer::numa::{
    chrome_trace_json, FaultPlan, PhaseCost, SimExecutor, SimShardMode, TierPolicy,
};
use polymer::prelude::*;
use polymer_bench::golden::{golden_graphs, golden_matrix, GoldenRow};

/// One step of a random access script, over a plain array (`arr`), an
/// atomic array (`atom`), and a writer-only array (`wo`).
#[derive(Clone, Debug)]
enum Op {
    /// Scalar read of `arr[i]`.
    Get(usize),
    /// Bulk read of an `arr` range.
    LoadRange(usize, usize),
    /// Scalar atomic load / store / fetch_add on `atom`.
    Load(usize),
    Store(usize),
    FetchAdd(usize),
    /// Bulk sweeps over an `atom` range.
    IterSeq(usize, usize),
    StoreSeq(usize, usize),
    /// `k` consecutive appends at `start` on `wo`, then flush.
    Writer(usize, usize),
}

/// The vendored proptest shim has no `prop_oneof`, so ops are drawn as
/// `(kind, start, len)` tuples and decoded here.
fn decode_op(n: usize, (kind, a, l): (u8, usize, usize)) -> Op {
    let s = a % n;
    let l = 1 + l % 16;
    match kind % 8 {
        0 => Op::Get(s),
        1 => Op::LoadRange(s, l),
        2 => Op::Load(s),
        3 => Op::Store(s),
        4 => Op::FetchAdd(s),
        5 => Op::IterSeq(s, l),
        6 => Op::StoreSeq(s, l),
        _ => Op::Writer(s, l),
    }
}

/// Placement policies, drawn as `(kind, cut)` and decoded over `n` elements.
fn decode_policy(n: usize, (kind, cut): (u8, usize)) -> AllocPolicy {
    match kind % 4 {
        0 => AllocPolicy::Centralized,
        1 => AllocPolicy::Interleaved,
        2 => AllocPolicy::OnNode(cut % 8),
        _ => {
            let cut = 1 + cut % (n - 1);
            AllocPolicy::ChunkedElems(vec![(cut, 3), (n - cut, 5)])
        }
    }
}

/// Run the script on a fresh machine and return everything observable:
/// per-phase costs, final array contents, and the Chrome trace.
fn run_script(
    bulk: bool,
    n: usize,
    threads: usize,
    ops: &[Op],
    pol: &[AllocPolicy; 3],
) -> (Vec<PhaseCost>, Vec<u64>, String) {
    let machine = Machine::new(MachineSpec::intel80().with_bulk_accounting(bulk));
    let arr = machine.alloc_array_with("eq/arr", n, pol[0].clone(), |i| i as u64);
    let atom = machine.alloc_atomic::<u64>("eq/atom", n, pol[1].clone());
    let wo = machine.alloc_atomic::<u64>("eq/wo", n + 16, pol[2].clone());
    let mut sim = SimExecutor::new(&machine, threads);
    sim.enable_trace();
    // Two phases so stream-tracker resets at phase boundaries are covered.
    let mut costs = Vec::new();
    let mid = ops.len() / 2;
    for (name, slice) in [("eq-a", &ops[..mid]), ("eq-b", &ops[mid..])] {
        let cost = sim.run_phase(name, |tid, ctx| {
            if tid != 0 {
                return;
            }
            let mut sink = 0u64;
            for op in slice {
                match *op {
                    Op::Get(i) => sink ^= arr.get(ctx, i),
                    Op::LoadRange(s, l) => {
                        let e = (s + l).min(n);
                        sink ^= arr.load_range(ctx, s..e).iter().sum::<u64>();
                    }
                    Op::Load(i) => sink ^= atom.load(ctx, i),
                    Op::Store(i) => atom.store(ctx, i, sink),
                    Op::FetchAdd(i) => {
                        atom.fetch_add(ctx, i, 1);
                    }
                    Op::IterSeq(s, l) => {
                        let e = (s + l).min(n);
                        sink ^= atom.iter_seq(ctx, s..e).sum::<u64>();
                    }
                    Op::StoreSeq(s, l) => {
                        let e = (s + l).min(n);
                        atom.store_seq(ctx, s..e, |i| i as u64 ^ sink);
                    }
                    Op::Writer(s, k) => {
                        let mut w = wo.seq_writer(s);
                        for j in 0..k {
                            w.push(ctx, (s + j) as u64);
                        }
                        w.flush(ctx);
                    }
                }
            }
            std::hint::black_box(sink);
        });
        sim.charge_barrier();
        costs.push(cost);
    }
    let mut values = atom.snapshot();
    values.extend(wo.snapshot());
    let trace = sim.clock().trace.buffer().expect("tracing enabled");
    (costs, values, chrome_trace_json(trace))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Random interleavings of scalar and bulk accesses over random
    // placements: the scalar oracle and the coalesced fast path must agree
    // bit-for-bit on every phase cost, every counter, the simulated clock,
    // and the exported trace.
    #[test]
    fn bulk_and_scalar_accounting_are_bit_identical(
        raw_ops in proptest::collection::vec((0u8..10, 0usize..192, 0usize..16), 1..60),
        raw_pol in ((0u8..4, 0usize..192), (0u8..4, 0usize..192), (0u8..4, 0usize..208)),
        threads in 1usize..5,
    ) {
        let ops: Vec<Op> = raw_ops.into_iter().map(|t| decode_op(192, t)).collect();
        let pol = [
            decode_policy(192, raw_pol.0),
            decode_policy(192, raw_pol.1),
            decode_policy(208, raw_pol.2),
        ];
        let (bulk_costs, bulk_vals, bulk_trace) = run_script(true, 192, threads, &ops, &pol);
        let (scalar_costs, scalar_vals, scalar_trace) = run_script(false, 192, threads, &ops, &pol);
        prop_assert_eq!(bulk_vals, scalar_vals);
        prop_assert_eq!(bulk_costs.len(), scalar_costs.len());
        for (b, s) in bulk_costs.iter().zip(&scalar_costs) {
            prop_assert_eq!(format!("{b:?}"), format!("{s:?}"));
        }
        prop_assert_eq!(bulk_trace, scalar_trace);
    }
}

/// The fixture was produced on the default `test2` spec; every
/// accounting-only toggle set must reproduce it field for field.
#[test]
fn golden_matrix_replays_under_every_accounting_toggle_set() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/golden_phasecosts.json"
    );
    let committed: Vec<GoldenRow> =
        serde_json::from_str(&std::fs::read_to_string(path).expect("golden fixture present"))
            .expect("golden fixture parses");
    for bulk in [true, false] {
        // `On` forces real host threads even on a single-core machine, so the
        // parallel path is exercised everywhere, including one-core CI hosts.
        for shard in [SimShardMode::Off, SimShardMode::On] {
            let spec = MachineSpec::test2()
                .with_bulk_accounting(bulk)
                .with_shard_mode(shard);
            let rows = golden_matrix(&spec);
            assert_eq!(rows.len(), committed.len());
            for (got, want) in rows.iter().zip(&committed) {
                assert_eq!(
                    got, want,
                    "{}/{} drifted from the fixture with bulk={bulk}, shard={shard:?}",
                    want.engine, want.algo
                );
            }
        }
    }
}

/// Everything a run exposes that the accounting-only toggles must not move:
/// values, simulated seconds, barrier count, aggregate phase cost.
type Fingerprint<V> = (Vec<V>, u64, u64, String);

fn fingerprint<V: Clone>(r: &RunResult<V>) -> Fingerprint<V> {
    (
        r.values.clone(),
        r.seconds().to_bits(),
        r.clock.barriers,
        format!("{:?}", r.total_cost()),
    )
}

/// All four engines on fresh machines of `spec`.
fn run_engines<P: Program>(
    spec: &MachineSpec,
    threads: usize,
    g: &Graph,
    prog: &P,
) -> Vec<Fingerprint<P::Val>> {
    let m = || Machine::new(spec.clone());
    vec![
        fingerprint(&PolymerEngine::new().run(&m(), threads, g, prog)),
        fingerprint(&LigraEngine::new().run(&m(), threads, g, prog)),
        fingerprint(&XStreamEngine::new().run(&m(), threads, g, prog)),
        fingerprint(&GaloisEngine::new().run(&m(), threads, g, prog)),
    ]
}

/// Full engine runs on the eight-socket machine agree across the
/// accounting-only toggles: scalar vs bulk accounting, serial vs one host
/// thread per socket.
fn assert_accounting_toggles_are_invisible<P: Program>(threads: usize, g: &Graph, prog: &P)
where
    P::Val: PartialEq + std::fmt::Debug,
{
    let base = MachineSpec::intel80().with_shard_mode(SimShardMode::Off);
    let want = run_engines(&base, threads, g, prog);
    for (what, spec) in [
        (
            "scalar accounting",
            base.clone().with_bulk_accounting(false),
        ),
        (
            "host sharding",
            base.clone().with_shard_mode(SimShardMode::On),
        ),
    ] {
        let got = run_engines(&spec, threads, g, prog);
        for (engine, (g, w)) in ["polymer", "ligra", "xstream", "galois"]
            .iter()
            .zip(got.iter().zip(&want))
        {
            assert_eq!(g, w, "{engine}: {what} changed the simulated result");
        }
    }
}

#[test]
fn engines_are_bit_identical_across_accounting_toggles() {
    let g = Graph::from_edges(&polymer::graph::gen::rmat(
        10,
        16_384,
        polymer::graph::gen::RMAT_GRAPH500,
        7,
    ));
    assert_accounting_toggles_are_invisible(80, &g, &PageRank::new(g.num_vertices()));
    // BFS exercises the frontier-gated (sparse) paths PageRank never reaches.
    // Vertex 300 reaches most of the grid (vertex 0 has no out-edge).
    let g = Graph::from_edges(&polymer::graph::gen::road_grid(24, 24, 0.6, 3));
    assert_accounting_toggles_are_invisible(40, &g, &Bfs::new(300));
    // SSSP pulls in several of its light iterations. From the second pull
    // on, the bulk runs replay the first pull's topology charges; the
    // scalar run walks every pull literally.
    let sssp = Sssp::new(300);
    assert_accounting_toggles_are_invisible(40, &g, &sssp);
    let m = || Machine::new(MachineSpec::intel80());
    let pulls = |r: RunResult<u64>| r.clock.by_phase.get("gather-pull").map_or(0, |p| p.1);
    let polymer = pulls(PolymerEngine::new().run(&m(), 40, &g, &sssp));
    let ligra = pulls(LigraEngine::new().run(&m(), 40, &g, &sssp));
    assert!(
        polymer >= 2 && ligra >= 2,
        "pulls: polymer {polymer}, ligra {ligra}"
    );
}

/// Two machines with opposite toggle sets running at the same time in one
/// process do not see each other's configuration: every concurrent result is
/// bit-equal to the same configuration run alone. The first machine also
/// has a smaller cache, so the two runs differ in their simulated clocks.
#[test]
fn concurrent_machines_with_opposite_toggles_do_not_interfere() {
    let (g, _) = golden_graphs();
    let prog = PageRank::new(g.num_vertices());
    let specs = [
        MachineSpec {
            llc_scale: 1e-3,
            ..MachineSpec::test2()
        }
        .with_bulk_accounting(false)
        .with_shard_mode(SimShardMode::Off),
        MachineSpec::test2()
            .with_bulk_accounting(true)
            .with_shard_mode(SimShardMode::On),
    ];
    let alone: Vec<_> = specs.iter().map(|s| run_engines(s, 4, &g, &prog)).collect();
    assert_ne!(
        alone[0], alone[1],
        "the two machines must be distinguishable (the small cache moves the clock)"
    );
    // Both threads enter each round together, so the runs overlap. Rounds
    // that diverge are reported after the join: a thread that stopped early
    // would leave the other waiting at the barrier.
    let start = Barrier::new(2);
    let diverged: Vec<Vec<usize>> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .zip(&alone)
            .map(|(spec, want)| {
                let (g, prog, start) = (&g, &prog, &start);
                scope.spawn(move || {
                    (0..20usize)
                        .filter(|_| {
                            start.wait();
                            &run_engines(spec, 4, g, prog) != want
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(diverged, [vec![], vec![]], "rounds unlike the solo run");
}

/// One engine run on a fresh tiered machine: everything starts in the slow
/// tier (`"*"` routed slow), the fast tier holds `fast_pages` pages per node,
/// and `policy` promotes. Returns the run's fingerprint and the promoted
/// page count.
fn tiered_run<P: Program, E: Engine>(
    engine: &E,
    spec: &MachineSpec,
    policy: TierPolicy,
    g: &Graph,
    prog: &P,
) -> (Fingerprint<P::Val>, u64) {
    let m = Machine::with_faults(spec.clone(), SpillPolicy::Demote, FaultPlan::default());
    m.route_tags_to_slow(&["*"]);
    m.set_tier_policy(Some(policy));
    let r = engine.run(&m, 4, g, prog);
    (fingerprint(&r), m.promoted_pages_by_node().iter().sum())
}

/// Tiered machines under every promotion policy, for all four engines, with
/// bulk accounting on and off and shard mode `Off` and `Auto`.
///
/// `FirstTouch` and `HotPageLru` count every access (full heat), so the two
/// accounting-only toggles must leave values, simulated seconds, barriers,
/// phase cost and promotions bit-identical. `Sampled` is the exception: its
/// one rolling sampling tick per context counts accesses across all
/// allocations, and a bulk run credits its samples to the run's first page,
/// so which pages promote depends on the accounting path (in this case
/// X-Stream promotes 67 pages with bulk on and 84 with bulk off). Until
/// sampled heat is made order-free, only its *values* are checked, which no
/// placement can change.
#[test]
fn tiered_machines_are_bit_identical_across_accounting_toggles_except_sampled_heat() {
    use polymer::numa::PAGE_SIZE;
    let g = Graph::from_edges(&polymer::graph::gen::rmat(
        9,
        4_096,
        polymer::graph::gen::RMAT_GRAPH500,
        7,
    ));
    let prog = PageRank::new(g.num_vertices()).with_iters(4);
    let base = MachineSpec::test2_tiered()
        .with_fast_capacity(16 * PAGE_SIZE as u64)
        .with_shard_mode(SimShardMode::Off);
    let toggled = [
        ("bulk off", base.clone().with_bulk_accounting(false)),
        (
            "shard auto",
            base.clone().with_shard_mode(SimShardMode::Auto),
        ),
        (
            "bulk off, shard auto",
            base.clone()
                .with_bulk_accounting(false)
                .with_shard_mode(SimShardMode::Auto),
        ),
    ];
    for policy in [
        TierPolicy::FirstTouch,
        TierPolicy::HotPageLru,
        TierPolicy::Sampled,
    ] {
        let runs = |spec: &MachineSpec| {
            vec![
                tiered_run(&PolymerEngine::new(), spec, policy, &g, &prog),
                tiered_run(&LigraEngine::new(), spec, policy, &g, &prog),
                tiered_run(&XStreamEngine::new(), spec, policy, &g, &prog),
                tiered_run(&GaloisEngine::new(), spec, policy, &g, &prog),
            ]
        };
        let want = runs(&base);
        assert!(
            want.iter().any(|(_, promoted)| *promoted > 0),
            "{policy:?}: nothing promoted, the case tests nothing"
        );
        for (what, spec) in &toggled {
            let got = runs(spec);
            for (engine, (g, w)) in ["polymer", "ligra", "xstream", "galois"]
                .iter()
                .zip(got.iter().zip(&want))
            {
                if policy == TierPolicy::Sampled {
                    assert_eq!(g.0 .0, w.0 .0, "{engine}/{policy:?}: {what} changed values");
                } else {
                    assert_eq!(
                        g, w,
                        "{engine}/{policy:?}: {what} changed the simulated result"
                    );
                }
            }
        }
    }
}
