//! Batched multi-source traversals: one sweep, many sources.
//!
//! The serving layer (`polymer-serve`) coalesces queued same-algorithm
//! single-source requests — BFS levels, SSSP distances — into **one**
//! frontier sweep that carries a *lane* of per-source state per vertex
//! (the MS-BFS idiom): the adjacency is walked once per iteration and every
//! edge read is amortized across the lanes active at that vertex. Lane
//! state is plain values laid out vertex-major (`state[v·K + lane]`), lane
//! membership is a per-vertex `u64` bitmask (hence [`MAX_LANES`] = 64). The
//! superstep loop is the kernel's own: it stops at the batch's `max_iters`
//! and fails past the `2·|V| + 64` safety cap with the same typed error a
//! single-source engine run gives.
//!
//! The kernel is the paper's rule taken literally: **every cell has one
//! writer**, so no update is atomic. One thread sweeps all `K` lanes over
//! one joint frontier — that sharing is the amortisation; splitting the
//! lanes across threads would make each thread re-walk its own frontier
//! (see `docs/SERVING.md`, "Coalescing").
//!
//! Correctness does not depend on batching: these programs are integer-
//! valued min-combine fixed points, whose per-iteration accumulators and
//! final values are order-independent — a batched sweep is **bit-identical**
//! to running each source on its own (pinned by the proptest below and the
//! workspace conformance test).

use polymer_api::{
    catch_engine_faults, validate_run_config, validate_sim_threads, FrontierInit, PolymerError,
    PolymerResult, Program,
};
use polymer_graph::{Topology, VId};
use polymer_numa::{Atom, Machine};

/// Maximum lanes (sources) per sweep — one bit per lane in the per-vertex
/// active mask. Callers with bigger batches split them into several sweeps.
pub const MAX_LANES: usize = 64;

/// A single-source [`Program`] whose source can be re-targeted: the
/// batching layer builds one program per queued request from a shared
/// template. Everything except the source (and scheduling hints like the
/// SSSP Δ) must be identical across a batch.
pub trait SingleSource: Program + Clone {
    /// The program's source vertex.
    fn source(&self) -> VId;
    /// The same program re-targeted at `source`.
    fn with_source(&self, source: VId) -> Self;
}

impl SingleSource for crate::Bfs {
    fn source(&self) -> VId {
        self.source
    }
    fn with_source(&self, source: VId) -> Self {
        crate::Bfs::new(source)
    }
}

impl SingleSource for crate::Sssp {
    fn source(&self) -> VId {
        self.source
    }
    fn with_source(&self, source: VId) -> Self {
        let mut p = self.clone();
        p.source = source;
        p
    }
}

/// A validated batch of same-algorithm single-source programs, one lane
/// per program. Lanes are independent: duplicate sources are allowed.
pub struct MultiSource<P> {
    progs: Vec<P>,
}

impl<P: SingleSource> MultiSource<P> {
    /// A batch from per-request programs. Rejects empty batches, batches
    /// over [`MAX_LANES`], and mixed batches (differing name, combine or
    /// iteration cap — the sweep runs every lane under one cap).
    pub fn new(progs: Vec<P>) -> PolymerResult<Self> {
        if progs.is_empty() {
            return Err(PolymerError::InvalidConfig(
                "multi-source batch must contain at least one program".to_string(),
            ));
        }
        if progs.len() > MAX_LANES {
            return Err(PolymerError::InvalidConfig(format!(
                "multi-source batch of {} exceeds {MAX_LANES} lanes",
                progs.len()
            )));
        }
        let class = |p: &P| (p.name(), p.combine(), p.max_iters());
        if progs.iter().any(|p| class(p) != class(&progs[0])) {
            return Err(PolymerError::InvalidConfig(
                "multi-source batch mixes programs".to_string(),
            ));
        }
        Ok(MultiSource { progs })
    }

    /// A batch re-targeting `template` at each of `sources`.
    pub fn from_sources(template: &P, sources: &[VId]) -> PolymerResult<Self> {
        Self::new(sources.iter().map(|&s| template.with_source(s)).collect())
    }

    /// The per-lane programs.
    pub fn programs(&self) -> &[P] {
        &self.progs
    }
}

/// The outcome of a batched sweep: every lane's final values, vertex-major,
/// and the superstep count.
pub struct MultiRunResult<V> {
    /// All lanes' final values, `values[v·K + lane]`;
    /// `values.len() == num_vertices · lanes`.
    pub values: Vec<V>,
    /// Lane count of the batch.
    pub lanes: usize,
    /// Sweep supersteps executed (the max over lanes).
    pub iterations: usize,
}

impl<V: Copy> MultiRunResult<V> {
    /// Every lane's per-vertex values (the answer to one request each), in
    /// lane order, as one blocked transpose: a block of vertices is read
    /// while it is cache-hot instead of striding the whole state once per
    /// lane.
    pub fn into_lanes(self) -> Vec<Vec<V>> {
        const BLOCK_VERTICES: usize = 256;
        let k = self.lanes;
        let n = self.values.len() / k;
        let mut lanes: Vec<Vec<V>> = (0..k).map(|_| Vec::with_capacity(n)).collect();
        for block in self.values.chunks(BLOCK_VERTICES * k) {
            for (lane, out) in lanes.iter_mut().enumerate() {
                out.extend(block.iter().skip(lane).step_by(k));
            }
        }
        lanes
    }
}

/// Run a batched multi-source sweep over `graph` (the static CSR or a
/// `MutableGraph`) on the calling thread, in host memory. `machine` and
/// `threads` are validated as for an engine run ([`validate_sim_threads`])
/// and otherwise unused: nothing is placed or charged, and the result is
/// identical at every count.
///
/// Every failure surfaces as a typed [`PolymerError`]; panics escaping the
/// sweep body are caught and converted, as with the engines.
pub fn run_multi_source<T: Topology, P: SingleSource>(
    machine: &Machine,
    threads: usize,
    graph: &T,
    batch: &MultiSource<P>,
) -> PolymerResult<MultiRunResult<P::Val>> {
    validate_sim_threads(machine, threads)?;
    for prog in batch.programs() {
        if matches!(prog.initial_frontier(), FrontierInit::All) {
            return Err(PolymerError::InvalidConfig(
                "multi-source sweep requires single-source programs".to_string(),
            ));
        }
        validate_run_config(threads, graph.num_vertices(), prog)?;
    }
    catch_engine_faults(|| sweep(graph, batch.programs()))
}

/// Sweep every lane to its fixed point: at most `max_iters` supersteps, and
/// a [`PolymerError::IterationCapExceeded`] when the frontier is still
/// alive after `2·|V| + 64` of them.
fn sweep<T: Topology, P: SingleSource>(
    graph: &T,
    progs: &[P],
) -> PolymerResult<MultiRunResult<P::Val>> {
    let (n, k) = (graph.num_vertices(), progs.len());
    let mut state = LaneState {
        curr: Vec::with_capacity(n * k),
        next: vec![progs[0].next_identity(); n * k],
        active: vec![0; n],
        updated: vec![0; n],
        touched: Vec::new(),
        frontier: Vec::new(),
    };
    for v in 0..n as VId {
        state.curr.extend(progs.iter().map(|p| p.init(v)));
    }
    for (lane, prog) in progs.iter().enumerate() {
        let s = prog.source();
        if state.active[s as usize] == 0 {
            state.frontier.push(s);
        }
        state.active[s as usize] |= 1 << lane;
    }
    state.frontier.sort_unstable();

    let (max_iters, cap) = (progs[0].max_iters(), 2 * n + 64);
    let mut iterations = 0;
    while !state.frontier.is_empty() && iterations < max_iters {
        if iterations >= cap {
            return Err(PolymerError::IterationCapExceeded { cap });
        }
        state.step(graph, progs);
        iterations += 1;
    }
    Ok(MultiRunResult {
        values: state.curr,
        lanes: k,
        iterations,
    })
}

/// The single-writer kernel's state: plain values owned by the sweeping
/// thread, every buffer allocated once and reused.
struct LaneState<V> {
    /// Lane state, vertex-major: `curr/next[v·k + lane]`.
    curr: Vec<V>,
    next: Vec<V>,
    /// Per-vertex lane bitmasks: `active` is the current frontier's lane
    /// membership, `updated` collects the lanes that received contributions
    /// this iteration (its first setter records the vertex in `touched`).
    active: Vec<u64>,
    updated: Vec<u64>,
    touched: Vec<u32>,
    /// The vertices with a non-zero `active` mask, sorted.
    frontier: Vec<u32>,
}

impl<V: Atom> LaneState<V> {
    /// One superstep: scatter from the frontier, apply, rebuild the frontier.
    fn step<T: Topology, P: Program<Val = V>>(&mut self, graph: &T, progs: &[P]) {
        let (k, identity) = (progs.len(), progs[0].next_identity());
        // Local slices: their pointers stay in registers across the stores
        // below, which a `Vec` reached through `self` would not.
        let (curr, next) = (&mut self.curr[..], &mut self.next[..]);
        let (active, updated) = (&mut self.active[..], &mut self.updated[..]);
        let (touched, frontier) = (&mut self.touched, &mut self.frontier);

        // Scatter: one adjacency walk per frontier vertex serves every lane
        // active there — and only those: `scatter` must never see an
        // unreached lane's value (SSSP's `UNREACHED + w` overflows).
        for &v in frontier.iter() {
            let mask = std::mem::take(&mut active[v as usize]);
            let deg = graph.out_degree(v) as u32;
            let src = &curr[v as usize * k..][..k];
            for (t, w) in graph.out_edges(v) {
                let ti = t as usize;
                if updated[ti] == 0 {
                    touched.push(t);
                }
                updated[ti] |= mask;
                let acc = &mut next[ti * k..][..k];
                let mut m = mask;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let prog = &progs[lane];
                    acc[lane] = prog
                        .combine()
                        .fold(acc[lane], prog.scatter(v, src[lane], w, deg));
                }
            }
        }

        // Apply over `touched` in place: fold each updated lane into `curr`,
        // reset its accumulator, and keep the vertex — its surviving lanes
        // are its new `active` mask — when any lane is alive.
        touched.retain(|&t| {
            let ti = t as usize;
            let mut m = std::mem::take(&mut updated[ti]);
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                m &= m - 1;
                let cell = ti * k + lane;
                let (val, alive) = progs[lane].apply(t, next[cell], curr[cell]);
                curr[cell] = val;
                next[cell] = identity;
                active[ti] |= (alive as u64) << lane;
            }
            active[ti] != 0
        });
        touched.sort_unstable();
        std::mem::swap(frontier, touched);
        touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_reference, Bfs, Sssp};
    use polymer_api::Combine;
    use polymer_graph::{gen, EdgeList, Graph, MutableGraph, Weight};
    use polymer_numa::MachineSpec;
    use proptest::prelude::*;

    fn machine() -> Machine {
        Machine::new(MachineSpec::test2())
    }

    fn ring(n: u32) -> Graph {
        Graph::from_edges(&EdgeList::from_pairs(
            n as usize,
            (0..n).map(|v| (v, (v + 1) % n)),
        ))
    }

    #[test]
    fn batch_validation() {
        assert!(MultiSource::<Bfs>::new(vec![]).is_err());
        let too_many: Vec<Bfs> = (0..65).map(Bfs::new).collect();
        assert!(MultiSource::new(too_many).is_err());
        let ok = MultiSource::from_sources(&Bfs::new(0), &[0, 3, 3, 7]).unwrap();
        let sources: Vec<VId> = ok.programs().iter().map(|p| p.source()).collect();
        assert_eq!(sources, vec![0, 3, 3, 7]);
    }

    #[test]
    fn out_of_range_source_is_typed_error() {
        let g = ring(8);
        let m = machine();
        let batch = MultiSource::from_sources(&Bfs::new(0), &[0, 99]).unwrap();
        let err = match run_multi_source(&m, 1, &g, &batch) {
            Err(e) => e,
            Ok(_) => panic!("out-of-range source must be rejected"),
        };
        assert_eq!(err.code(), "invalid-config");
        // Regression: a thread count the machine cannot bind reached the
        // simulator's assert and came back as a retryable `engine-panicked`.
        let batch = MultiSource::from_sources(&Bfs::new(0), &[0, 3]).unwrap();
        for threads in [0, 5] {
            let err = match run_multi_source(&m, threads, &g, &batch) {
                Err(e) => e,
                Ok(_) => panic!("{threads} threads cannot bind to 4 cores"),
            };
            assert_eq!(err.code(), "invalid-config", "{threads} threads: {err}");
            assert!(!err.is_retryable());
        }
    }

    #[test]
    fn multi_bfs_matches_reference_per_lane() {
        let g = Graph::from_edges(&gen::rmat(8, 1 << 11, gen::RMAT_GRAPH500, 7));
        let m = machine();
        let sources = [0u32, 1, 5, 200, 5];
        let batch = MultiSource::from_sources(&Bfs::new(0), &sources).unwrap();
        let res = run_multi_source(&m, 2, &g, &batch).unwrap();
        assert_eq!(res.values.len(), g.num_vertices() * sources.len());
        for (lane, (got, &s)) in res.into_lanes().iter().zip(&sources).enumerate() {
            let (want, _) = run_reference(&g, &Bfs::new(s));
            assert_eq!(got, &want, "lane {lane} (source {s})");
        }
    }

    #[test]
    fn multi_sssp_matches_reference_per_lane() {
        let g = Graph::from_edges(&gen::rmat(7, 1 << 10, gen::RMAT_GRAPH500, 21));
        let m = machine();
        let sources = [3u32, 9, 31];
        let batch = MultiSource::from_sources(&Sssp::new(0), &sources).unwrap();
        let res = run_multi_source(&m, 3, &g, &batch).unwrap();
        for (lane, (got, &s)) in res.into_lanes().iter().zip(&sources).enumerate() {
            let (want, _) = run_reference(&g, &Sssp::new(s));
            assert_eq!(got, &want, "lane {lane} (source {s})");
        }
    }

    #[test]
    fn single_lane_iterations_match_reference() {
        let g = ring(16);
        let m = machine();
        let batch = MultiSource::from_sources(&Bfs::new(0), &[4]).unwrap();
        let res = run_multi_source(&m, 1, &g, &batch).unwrap();
        let (want, want_iters) = run_reference(&g, &Bfs::new(4));
        assert_eq!(res.iterations, want_iters);
        assert_eq!(res.into_lanes(), vec![want]);
    }

    /// BFS under an iteration cap, optionally with a `scatter` that raises
    /// a typed panic once it leaves the source.
    #[derive(Clone)]
    struct Probe {
        bfs: Bfs,
        cap: usize,
        poisoned: bool,
    }

    impl Program for Probe {
        type Val = u32;
        fn name(&self) -> &'static str {
            "probe"
        }
        fn combine(&self) -> Combine {
            self.bfs.combine()
        }
        fn next_identity(&self) -> u32 {
            self.bfs.next_identity()
        }
        fn init(&self, v: VId) -> u32 {
            self.bfs.init(v)
        }
        fn scatter(&self, src: VId, src_val: u32, w: Weight, deg: u32) -> u32 {
            if self.poisoned && src != self.bfs.source {
                // What `polymer_faults::panic_with` does.
                std::panic::panic_any(PolymerError::InvalidConfig("poisoned lane".to_string()));
            }
            self.bfs.scatter(src, src_val, w, deg)
        }
        fn apply(&self, v: VId, acc: u32, curr: u32) -> (u32, bool) {
            self.bfs.apply(v, acc, curr)
        }
        fn initial_frontier(&self) -> FrontierInit {
            self.bfs.initial_frontier()
        }
        fn max_iters(&self) -> usize {
            self.cap
        }
    }

    impl SingleSource for Probe {
        fn source(&self) -> VId {
            self.bfs.source
        }
        fn with_source(&self, source: VId) -> Self {
            Probe {
                bfs: Bfs::new(source),
                ..self.clone()
            }
        }
    }

    fn probe(source: VId, cap: usize, poisoned: bool) -> Probe {
        Probe {
            bfs: Bfs::new(source),
            cap,
            poisoned,
        }
    }

    /// Regression: the sweep ran every lane to the batch's largest cap, so
    /// a lane with a smaller one overran it. Caps are now part of the
    /// batch class, and the one cap binds every lane.
    #[test]
    fn lane_caps_must_agree_and_are_honoured() {
        let mixed = MultiSource::new(vec![probe(0, 2, false), probe(4, 5, false)]);
        assert_eq!(mixed.err().map(|e| e.code()), Some("invalid-config"));

        let g = ring(16);
        let batch = MultiSource::from_sources(&probe(0, 2, false), &[0, 4, 4]).unwrap();
        let res = run_multi_source(&machine(), 1, &g, &batch).unwrap();
        assert_eq!(res.iterations, 2);
        for (lane, prog) in res.into_lanes().iter().zip(batch.programs()) {
            assert_eq!(lane, &run_reference(&g, prog).0);
        }
    }

    /// The sweep's own loop stops at the programs' `max_iters`, as the
    /// reference does: a one-lane BFS capped at 3 on a 200-vertex path
    /// reaches exactly the first three hops.
    #[test]
    fn a_capped_sweep_stops_at_max_iters_with_the_reference_values() {
        let n = 200u32;
        let g = Graph::from_edges(&EdgeList::from_pairs(
            n as usize,
            (0..n - 1).map(|v| (v, v + 1)),
        ));
        let batch = MultiSource::new(vec![probe(0, 3, false)]).unwrap();
        let res = run_multi_source(&machine(), 1, &g, &batch).unwrap();
        assert_eq!(res.iterations, 3);
        let (want, want_iters) = run_reference(&g, &batch.programs()[0]);
        assert_eq!(want_iters, 3);
        assert_eq!(res.into_lanes(), vec![want]);
    }

    /// Regression: the chunk-parallel sweep re-raised a worker's panic as a
    /// fresh `expect` panic, so a typed payload surfaced as
    /// `engine-panicked`. The star's 600 spokes make the second frontier
    /// wide enough that the old sweep left the caller's thread at
    /// `threads = 2`; the sweep no longer spawns, so the payload reaches
    /// `catch_engine_faults` as raised.
    #[test]
    fn typed_panic_in_a_sweep_keeps_its_code() {
        let spokes = 600u32;
        let edges = (1..=spokes).flat_map(|v| [(0, v), (v, 0)]);
        let g = Graph::from_edges(&EdgeList::from_pairs(spokes as usize + 1, edges));
        let lanes = vec![probe(0, usize::MAX, false), probe(0, usize::MAX, true)];
        let batch = MultiSource::new(lanes).unwrap();
        let err = match run_multi_source(&machine(), 2, &g, &batch) {
            Err(e) => e,
            Ok(_) => panic!("the poisoned lane must fail the sweep"),
        };
        assert_eq!(err.code(), "invalid-config");
    }

    /// One batch, every thread count: each lane equals its own reference
    /// run, the sweep's iteration count is the slowest lane's, the fan-out
    /// transposes agree, and nothing depends on `threads`.
    fn check_batch<P: SingleSource>(m: &Machine, g: &Graph, template: &P, sources: &[u32]) {
        let batch = MultiSource::from_sources(template, sources).unwrap();
        let (want, want_iters): (Vec<_>, Vec<_>) = batch
            .programs()
            .iter()
            .map(|prog| run_reference(g, prog))
            .unzip();
        let n = g.num_vertices();
        let vertex_major: Vec<_> = (0..n)
            .flat_map(|v| want.iter().map(move |l| l[v]))
            .collect();
        for threads in [1, 2, 3, 8] {
            let res = run_multi_source(m, threads, g, &batch).unwrap();
            let what = format!(
                "{} x{} at {threads} threads",
                template.name(),
                sources.len()
            );
            assert_eq!(res.lanes, sources.len(), "{what}");
            assert_eq!(
                res.iterations,
                want_iters.iter().copied().max().unwrap(),
                "{what}"
            );
            assert_eq!(res.values, vertex_major, "{what}: values[v·K + lane]");
            assert_eq!(res.into_lanes(), want, "{what}: into_lanes");
        }
    }

    /// Every lane of a sweep over `mg` equals its reference run on `snapshot`.
    fn check_mutated<P: SingleSource>(
        m: &Machine,
        mg: &MutableGraph,
        snapshot: &Graph,
        template: &P,
        sources: &[u32],
    ) {
        let batch = MultiSource::from_sources(template, sources).unwrap();
        let lanes = run_multi_source(m, 1, mg, &batch).unwrap().into_lanes();
        for (lane, prog) in lanes.iter().zip(batch.programs()) {
            let what = format!("{} x{} from {}", prog.name(), sources.len(), prog.source());
            assert_eq!(lane, &run_reference(snapshot, prog).0, "{what}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        // K = 64 pins the `1 << 63` / full-mask path; the small source
        // range forces duplicate sources at every K > 1.
        #[test]
        fn every_lane_matches_its_reference_run_at_every_thread_count(
            seed in 0u64..10_000,
            n in 2usize..=300,
            picks in proptest::collection::vec(0u32..1 << 16, 64..65),
        ) {
            let m = Machine::new(MachineSpec::intel80());
            let scale = n.ilog2().max(1);
            for el in [gen::uniform(n, 4 * n, seed), gen::rmat(scale, 4 << scale, gen::RMAT_GRAPH500, seed)] {
                let g = Graph::from_edges(&el);
                let span = (g.num_vertices() as u32).min(40);
                let sources: Vec<u32> = picks.iter().map(|p| p % span).collect();
                for k in [1, 2, 7, 63, 64] {
                    check_batch(&m, &g, &Bfs::new(0), &sources[..k]);
                    check_batch(&m, &g, &Sssp::new(0), &sources[..k]);
                }
            }
        }

        // The sweep over a mutated graph — overlay inserts, tombstones and
        // reweights in place, then a rebuilt base — equals the reference run
        // on the graph a from-scratch build of its live edges gives.
        #[test]
        fn sweep_over_a_mutable_graph_matches_the_reference_on_its_snapshot(
            seed in 0u64..10_000,
            n in 8usize..=200,
            picks in proptest::collection::vec(0u32..1 << 16, 64..65),
        ) {
            let m = Machine::new(MachineSpec::intel80());
            let mut mg = MutableGraph::from_edge_list(gen::uniform(n, 4 * n, seed))
                .with_compaction_fraction(f64::INFINITY);
            let sources: Vec<u32> = picks.iter().map(|p| p % n.min(40) as u32).collect();
            for round in 0..3 {
                if round == 2 {
                    mg.compact();
                }
                mg.apply(&gen::mixed_batch(&mg, seed + round, 24, false)).unwrap();
                let snapshot = Graph::from_edges(&mg.snapshot_edge_list());
                for k in [1, 7, 64] {
                    check_mutated(&m, &mg, &snapshot, &Bfs::new(0), &sources[..k]);
                    check_mutated(&m, &mg, &snapshot, &Sssp::new(0), &sources[..k]);
                }
            }
        }
    }
}
