//! Equivalence matrix of the three per-machine toggles on
//! [`MachineSpec`]: `bulk_accounting`, `shard_mode` and
//! `compressed_topology`.
//!
//! The first two are accounting-only — they change how the host computes the
//! simulated result, never the result — so every combination must replay
//! `results/golden_phasecosts.json` field for field, and a random script of
//! scalar and bulk accesses must produce identical `AccessStats`,
//! `PhaseCost`s, clocks and Chrome traces either way. Compressed topology
//! changes the simulated machine's traffic by design: values must stay
//! exactly what the raw layout produces while the unweighted sweep workloads
//! move strictly fewer simulated bytes.
//!
//! The toggles travel with the machine a run is built on, so every case here
//! runs in-process, concurrently with the others, with no lock.

use std::sync::Barrier;

use proptest::prelude::*;

use polymer::numa::{chrome_trace_json, PhaseCost, SimExecutor, SimShardMode};
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
    Fill(usize, usize),
    /// `k` consecutive appends at `start` on `wo`, then flush.
    Writer(usize, usize),
}

/// The vendored proptest shim has no `prop_oneof`, so ops are drawn as
/// `(kind, start, len)` tuples and decoded here.
fn decode_op(n: usize, (kind, a, l): (u8, usize, usize)) -> Op {
    let s = a % n;
    let l = 1 + l % 16;
    match kind % 9 {
        0 => Op::Get(s),
        1 => Op::LoadRange(s, l),
        2 => Op::Load(s),
        3 => Op::Store(s),
        4 => Op::FetchAdd(s),
        5 => Op::IterSeq(s, l),
        6 => Op::StoreSeq(s, l),
        7 => Op::Fill(s, l),
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
                    Op::Fill(s, l) => {
                        let e = (s + l).min(n);
                        atom.fill(ctx, s..e, sink);
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
    let g = Graph::from_edges(&polymer::graph::gen::road_grid(24, 24, 0.6, 3));
    assert_accounting_toggles_are_invisible(40, &g, &Bfs::new(0));
}

/// Values and total simulated bytes of one run on a fresh `test2` machine
/// with the given topology encoding.
fn run_bytes<P: Program, E: Engine>(
    engine: &E,
    compressed: bool,
    g: &Graph,
    prog: &P,
) -> (Vec<P::Val>, u64) {
    let m = Machine::new(MachineSpec::test2().with_compressed_topology(compressed));
    let r = engine.run(&m, 4, g, prog);
    let bytes = r.clock.total.bytes_local + r.clock.total.bytes_remote;
    (r.values, bytes)
}

/// Raw and compressed runs agree on values; with `fewer_bytes` the
/// compressed one must also move strictly fewer simulated bytes.
fn check_compressed<P: Program, E: Engine>(
    engine: E,
    name: &str,
    g: &Graph,
    prog: &P,
    algo: &str,
    fewer_bytes: bool,
) where
    P::Val: PartialEq + std::fmt::Debug,
{
    let (raw_vals, raw_bytes) = run_bytes(&engine, false, g, prog);
    let (c_vals, c_bytes) = run_bytes(&engine, true, g, prog);
    assert_eq!(raw_vals, c_vals, "{name}/{algo}: values diverged");
    assert!(
        !fewer_bytes || c_bytes < raw_bytes,
        "{name}/{algo}: compressed topology moved {c_bytes} bytes, raw moved {raw_bytes}"
    );
}

#[test]
fn compressed_topology_preserves_values_and_reduces_bytes() {
    let (g, sym) = golden_graphs();
    let pr = PageRank::new(g.num_vertices());
    check_compressed(PolymerEngine::new(), "Polymer", &g, &pr, "PR", true);
    check_compressed(LigraEngine::new(), "Ligra", &g, &pr, "PR", true);
    check_compressed(XStreamEngine::new(), "X-Stream", &g, &pr, "PR", true);
    check_compressed(GaloisEngine::new(), "Galois", &g, &pr, "PR", true);
    // Galois answers CC with its label-free union-find scan over private raw
    // CSR arrays — no neighbour-list streaming, so no byte reduction to
    // assert; the conformance half of the contract still applies.
    let cc = ConnectedComponents::new();
    check_compressed(PolymerEngine::new(), "Polymer", &sym, &cc, "CC", true);
    check_compressed(LigraEngine::new(), "Ligra", &sym, &cc, "CC", true);
    check_compressed(XStreamEngine::new(), "X-Stream", &sym, &cc, "CC", true);
    check_compressed(GaloisEngine::new(), "Galois", &sym, &cc, "CC", false);
    // Weighted programs keep their raw edge-aligned weight arrays; the
    // guarantee there is conformance, not a byte reduction.
    let sssp = Sssp::new(0);
    check_compressed(PolymerEngine::new(), "Polymer", &g, &sssp, "SSSP", false);
    check_compressed(LigraEngine::new(), "Ligra", &g, &sssp, "SSSP", false);
    check_compressed(XStreamEngine::new(), "X-Stream", &g, &sssp, "SSSP", false);
    check_compressed(GaloisEngine::new(), "Galois", &g, &sssp, "SSSP", false);
}

/// Two machines with opposite toggle sets running at the same time in one
/// process do not see each other's configuration: every concurrent result is
/// bit-equal to the same configuration run alone.
#[test]
fn concurrent_machines_with_opposite_toggles_do_not_interfere() {
    let (g, _) = golden_graphs();
    let prog = PageRank::new(g.num_vertices());
    let specs = [
        MachineSpec::test2()
            .with_bulk_accounting(false)
            .with_shard_mode(SimShardMode::Off)
            .with_compressed_topology(true),
        MachineSpec::test2()
            .with_bulk_accounting(true)
            .with_shard_mode(SimShardMode::On)
            .with_compressed_topology(false),
    ];
    let alone: Vec<_> = specs.iter().map(|s| run_engines(s, 4, &g, &prog)).collect();
    assert_ne!(
        alone[0], alone[1],
        "the two toggle sets must be distinguishable (compressed moves fewer bytes)"
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
