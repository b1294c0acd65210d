//! Batched multi-source traversals: one sweep, many sources.
//!
//! The serving layer (`polymer-serve`) coalesces queued same-algorithm
//! single-source requests — BFS levels, SSSP distances — into **one**
//! frontier sweep that carries a *lane* of per-source state per vertex
//! (the MS-BFS idiom): the graph's adjacency is walked once per iteration
//! and every edge read is amortized across all lanes whose source set is
//! active at that vertex. Lane state is laid out struct-of-arrays
//! (`state[v·K + lane]`), lane membership is a per-vertex `u64` bitmask
//! (hence [`MAX_LANES`] = 64 lanes per sweep), and the bulk-synchronous
//! loop runs under the shared [`IterationDriver`] skeleton so the safety
//! cap and iteration stamping behave exactly like a single-source run.
//!
//! Correctness does not depend on batching: the programs this applies to
//! are integer-valued min-combine fixed points (BFS, SSSP), whose per-
//! iteration accumulators and final values are order-independent — so a
//! batched sweep is **bit-identical** to running each source on its own.
//! The workspace conformance test pins this against both backends.
//!
//! Like the `RealThreads` backend, the sweep computes on host memory:
//! values and iteration counts are real, the simulated clock stays empty.

use std::sync::atomic::{AtomicU64, Ordering};

use polymer_api::{
    catch_engine_faults, validate_run_config, Combine, FrontierInit, IterationDriver, PolymerError,
    PolymerResult, Program, RunResult,
};
use polymer_graph::{Graph, VId};
use polymer_numa::{Atom, BarrierKind, Machine};

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
    /// over [`MAX_LANES`], and mixed batches (differing name or combine).
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
        let (name, combine) = (progs[0].name(), progs[0].combine());
        if progs
            .iter()
            .any(|p| p.name() != name || p.combine() != combine)
        {
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

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.progs.len()
    }

    /// The per-lane source vertices, in lane order.
    pub fn sources(&self) -> Vec<VId> {
        self.progs.iter().map(|p| p.source()).collect()
    }

    /// The per-lane programs.
    pub fn programs(&self) -> &[P] {
        &self.progs
    }
}

/// The outcome of a batched sweep: a [`RunResult`] whose `values` hold all
/// lanes vertex-major (`values[v·K + lane]`), plus the lane geometry to
/// fan results back out per request.
pub struct MultiRunResult<V> {
    /// The sweep's result; `values.len() == num_vertices · lanes`,
    /// `iterations` counts sweep supersteps (the max over lanes).
    pub run: RunResult<V>,
    /// Lane count of the batch.
    pub lanes: usize,
}

impl<V: Copy> MultiRunResult<V> {
    /// Extract one lane's per-vertex values (the answer to one request).
    pub fn lane_values(&self, lane: usize) -> Vec<V> {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        self.run
            .values
            .iter()
            .skip(lane)
            .step_by(self.lanes)
            .copied()
            .collect()
    }
}

/// Frontier size below which the sweep stays sequential: spawning scoped
/// threads costs more than relaxing a few hundred vertices.
const PARALLEL_THRESHOLD: usize = 512;

/// Run a batched multi-source sweep over `graph` with up to `threads`
/// host threads. `machine` supplies the [`IterationDriver`] skeleton
/// (iteration stamping, the `2|V|+64` safety cap, result assembly); the
/// sweep itself computes on host memory, so the simulated clock stays
/// empty — exactly the `RealThreads` backend's contract.
///
/// Every failure surfaces as a typed [`PolymerError`]; panics escaping the
/// sweep body are caught and converted, as with the engines.
pub fn run_multi_source<P: SingleSource>(
    machine: &Machine,
    threads: usize,
    graph: &Graph,
    batch: &MultiSource<P>,
) -> PolymerResult<MultiRunResult<P::Val>> {
    for prog in batch.programs() {
        if matches!(prog.initial_frontier(graph), FrontierInit::All) {
            return Err(PolymerError::InvalidConfig(
                "multi-source sweep requires single-source programs".to_string(),
            ));
        }
        validate_run_config(threads, graph, prog)?;
    }
    catch_engine_faults(|| sweep(machine, threads, graph, batch))
}

fn sweep<P: SingleSource>(
    machine: &Machine,
    threads: usize,
    graph: &Graph,
    batch: &MultiSource<P>,
) -> PolymerResult<MultiRunResult<P::Val>> {
    let n = graph.num_vertices();
    let k = batch.lanes();
    let progs = batch.programs();
    let identity = progs[0].next_identity();
    let combine = progs[0].combine();
    let max_iters = progs.iter().map(|p| p.max_iters()).max().unwrap_or(0);

    // SoA lane state, vertex-major: curr/next[v*k + lane]. Atomic cells so
    // the scatter phase can fold contributions race-free across threads.
    let curr: Vec<<P::Val as Atom>::Repr> = (0..n * k)
        .map(|i| Atom::new_atomic(progs[i % k].init((i / k) as VId, graph)))
        .collect();
    let next: Vec<<P::Val as Atom>::Repr> =
        (0..n * k).map(|_| Atom::new_atomic(identity)).collect();
    // Per-vertex lane bitmasks: `active` is the current frontier's lane
    // membership, `updated` collects the lanes that received contributions
    // this iteration (its first setter claims the vertex for `touched`).
    let active: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let updated: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();

    let mut frontier: Vec<u32> = Vec::new();
    for (lane, prog) in progs.iter().enumerate() {
        let s = prog.source() as usize;
        if active[s].fetch_or(1 << lane, Ordering::Relaxed) == 0 {
            frontier.push(s as u32);
        }
    }
    frontier.sort_unstable();

    let mut driver = IterationDriver::new(machine, threads, BarrierKind::Hierarchical, false, n);
    driver.run_synchronous(
        max_iters,
        &mut frontier,
        |f| !f.is_empty(),
        |_sim, _iter, frontier| {
            // Scatter: one adjacency walk per frontier vertex serves every
            // lane active there.
            let touched = {
                let scatter_chunk = |chunk: &[u32]| -> Vec<u32> {
                    let mut local_touched = Vec::new();
                    for &v in chunk {
                        let mask = active[v as usize].load(Ordering::Relaxed);
                        let deg = graph.out_degree(v) as u32;
                        for (&t, &w) in graph.out_neighbors(v).iter().zip(graph.out_weights(v)) {
                            let ti = t as usize;
                            let mut m = mask;
                            while m != 0 {
                                let lane = m.trailing_zeros() as usize;
                                m &= m - 1;
                                let sv = Atom::atom_load(&curr[v as usize * k + lane]);
                                let c = progs[lane].scatter(v, sv, w, deg);
                                let cell = &next[ti * k + lane];
                                match combine {
                                    Combine::Add => {
                                        Atom::atom_add(cell, c);
                                    }
                                    Combine::Min => {
                                        Atom::atom_min(cell, c);
                                    }
                                    Combine::Mul => {
                                        Atom::atom_mul(cell, c);
                                    }
                                }
                            }
                            if updated[ti].fetch_or(mask, Ordering::Relaxed) == 0 {
                                local_touched.push(t);
                            }
                        }
                    }
                    local_touched
                };
                run_chunked(frontier, threads, scatter_chunk)
            };

            // Apply: each touched vertex is claimed by exactly one thread
            // (the first `fetch_or` from zero), so per-vertex lane state has
            // a single writer here.
            let alive_masks = {
                let apply_chunk = |chunk: &[u32]| -> Vec<u64> {
                    let mut alive_out = Vec::with_capacity(chunk.len());
                    for &t in chunk {
                        let ti = t as usize;
                        let um = updated[ti].swap(0, Ordering::Relaxed);
                        let mut alive = 0u64;
                        let mut m = um;
                        while m != 0 {
                            let lane = m.trailing_zeros() as usize;
                            m &= m - 1;
                            let cell = ti * k + lane;
                            let acc = Atom::atom_load(&next[cell]);
                            let cur = Atom::atom_load(&curr[cell]);
                            let (val, is_alive) = progs[lane].apply(t, acc, cur);
                            Atom::atom_store(&curr[cell], val);
                            Atom::atom_store(&next[cell], identity);
                            if is_alive {
                                alive |= 1 << lane;
                            }
                        }
                        alive_out.push(alive);
                    }
                    alive_out
                };
                run_chunked(&touched, threads, apply_chunk)
            };

            // Rebuild the frontier: clear the old lane masks, then install
            // the surviving lanes of this iteration's touched set.
            for &v in frontier.iter() {
                active[v as usize].store(0, Ordering::Relaxed);
            }
            let mut new_frontier = Vec::new();
            for (&t, &alive) in touched.iter().zip(&alive_masks) {
                if alive != 0 {
                    active[t as usize].store(alive, Ordering::Relaxed);
                    new_frontier.push(t);
                }
            }
            new_frontier.sort_unstable();
            *frontier = new_frontier;
            Ok(())
        },
    )?;

    let values: Vec<P::Val> = curr.iter().map(Atom::atom_load).collect();
    let mut run = driver.finish(values);
    // Host sweep: wall-clock is the caller's to measure, like RealThreads.
    run.clock = Default::default();
    Ok(MultiRunResult { run, lanes: k })
}

/// Map `f` over contiguous chunks of `items`, in parallel when both the
/// thread budget and the item count warrant it, and concatenate the chunk
/// outputs in chunk order. `f` must be safe to run concurrently on
/// disjoint chunks (the sweep's phases are, via atomic lane state).
fn run_chunked<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&[T]) -> Vec<R> + Sync,
) -> Vec<R> {
    if threads <= 1 || items.len() < PARALLEL_THRESHOLD {
        return f(items);
    }
    let chunk = items.len().div_ceil(threads);
    let parts: Vec<Vec<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = items.chunks(chunk).map(|c| scope.spawn(|| f(c))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    parts.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_reference, Bfs, Sssp};
    use polymer_graph::{gen, EdgeList};
    use polymer_numa::MachineSpec;

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
        assert_eq!(ok.lanes(), 4);
        assert_eq!(ok.sources(), vec![0, 3, 3, 7]);
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
    }

    #[test]
    fn multi_bfs_matches_reference_per_lane() {
        let g = Graph::from_edges(&gen::rmat(8, 1 << 11, gen::RMAT_GRAPH500, 7));
        let m = machine();
        let sources = [0u32, 1, 5, 200, 5];
        let batch = MultiSource::from_sources(&Bfs::new(0), &sources).unwrap();
        let res = run_multi_source(&m, 2, &g, &batch).unwrap();
        assert_eq!(res.run.values.len(), g.num_vertices() * sources.len());
        for (lane, &s) in sources.iter().enumerate() {
            let (want, _) = run_reference(&g, &Bfs::new(s));
            assert_eq!(res.lane_values(lane), want, "lane {lane} (source {s})");
        }
    }

    #[test]
    fn multi_sssp_matches_reference_per_lane() {
        let g = Graph::from_edges(&gen::rmat(7, 1 << 10, gen::RMAT_GRAPH500, 21));
        let m = machine();
        let sources = [3u32, 9, 31];
        let batch = MultiSource::from_sources(&Sssp::new(0), &sources).unwrap();
        let res = run_multi_source(&m, 3, &g, &batch).unwrap();
        for (lane, &s) in sources.iter().enumerate() {
            let (want, _) = run_reference(&g, &Sssp::new(s));
            assert_eq!(res.lane_values(lane), want, "lane {lane} (source {s})");
        }
    }

    #[test]
    fn single_lane_iterations_match_reference() {
        let g = ring(16);
        let m = machine();
        let batch = MultiSource::from_sources(&Bfs::new(0), &[4]).unwrap();
        let res = run_multi_source(&m, 1, &g, &batch).unwrap();
        let (want, want_iters) = run_reference(&g, &Bfs::new(4));
        assert_eq!(res.lane_values(0), want);
        assert_eq!(res.run.iterations, want_iters);
    }
}
