//! Dispatch layer: run any (system, algorithm) pair on any workload and
//! machine shape, returning uniform metrics. [`run_with`] is the one
//! full-control call (machine, backend, tracing, Polymer configuration,
//! iteration override); [`run`] and [`run_on`] are its two shorthands.

use polymer_algos::{BeliefPropagation, Bfs, ConnectedComponents, PageRank, SpMV, Sssp};
use polymer_api::{Backend, Engine, RunOptions, RunResult};
use polymer_core::PolymerConfig;
use polymer_graph::{dataset, DatasetId, Graph, VId};
use polymer_numa::{Machine, MachineSpec, RemoteAccessReport, TraceBuffer};
use serde::Serialize;

/// The four systems of the paper's comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum SystemId {
    /// The paper's contribution.
    Polymer,
    /// Vertex-centric hybrid baseline.
    Ligra,
    /// Edge-centric baseline.
    XStream,
    /// Asynchronous worklist baseline.
    Galois,
}

impl SystemId {
    /// All systems in the paper's column order.
    pub const ALL: [SystemId; 4] = [
        SystemId::Polymer,
        SystemId::Ligra,
        SystemId::XStream,
        SystemId::Galois,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SystemId::Polymer => "Polymer",
            SystemId::Ligra => "Ligra",
            SystemId::XStream => "X-Stream",
            SystemId::Galois => "Galois",
        }
    }
}

/// The six algorithms of the paper's Table 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum AlgoId {
    /// PageRank (5 iterations).
    PR,
    /// Sparse matrix–vector multiplication (5 iterations).
    SpMV,
    /// Belief propagation (5 iterations).
    BP,
    /// Breadth-first search.
    BFS,
    /// Connected components.
    CC,
    /// Single-source shortest paths.
    SSSP,
}

impl AlgoId {
    /// All algorithms in the paper's row order.
    pub const ALL: [AlgoId; 6] = [
        AlgoId::PR,
        AlgoId::SpMV,
        AlgoId::BP,
        AlgoId::BFS,
        AlgoId::CC,
        AlgoId::SSSP,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AlgoId::PR => "PR",
            AlgoId::SpMV => "SpMV",
            AlgoId::BP => "BP",
            AlgoId::BFS => "BFS",
            AlgoId::CC => "CC",
            AlgoId::SSSP => "SSSP",
        }
    }

    /// True when the algorithm runs on the symmetrized graph.
    pub fn needs_symmetric(self) -> bool {
        matches!(self, AlgoId::CC)
    }
}

/// A prepared workload: the graph in both orientations plus a traversal
/// source. Building it once amortizes generation across systems.
pub struct Workload {
    /// Dataset identity (for reports).
    pub id: DatasetId,
    /// The directed graph.
    pub graph: Graph,
    /// The symmetrized graph (for CC).
    pub sym: Graph,
    /// Source vertex for BFS/SSSP: the maximum-out-degree vertex, which the
    /// traversal reaches most of the graph from.
    pub source: VId,
}

/// Paper edge counts of Table 2, for barrier scaling.
fn paper_edges(id: DatasetId) -> f64 {
    match id {
        DatasetId::TwitterS => 1.47e9,
        DatasetId::Rmat24S => 268e6,
        DatasetId::Rmat27S => 2.14e9,
        DatasetId::PowerlawS => 105e6,
        DatasetId::RoadUsS => 58e6,
    }
}

/// Paper vertex counts of Table 2, for LLC scaling.
fn paper_vertices(id: DatasetId) -> f64 {
    match id {
        DatasetId::TwitterS => 41.7e6,
        DatasetId::Rmat24S => 16.8e6,
        DatasetId::Rmat27S => 134.2e6,
        DatasetId::PowerlawS => 10e6,
        DatasetId::RoadUsS => 23.9e6,
    }
}

impl Workload {
    /// Generate a dataset at `scale_shift` and prepare both orientations.
    pub fn prepare(id: DatasetId, scale_shift: i32) -> Self {
        let el = dataset(id, scale_shift);
        let graph = Graph::from_edges(&el);
        let mut sel = el.clone();
        sel.symmetrize();
        let sym = Graph::from_edges(&sel);
        let source = (0..graph.num_vertices() as VId)
            .max_by_key(|&v| graph.out_degree(v))
            .unwrap_or(0);
        Workload {
            id,
            graph,
            sym,
            source,
        }
    }

    /// The graph an algorithm should run on.
    pub fn graph_for(&self, algo: AlgoId) -> &Graph {
        if algo.needs_symmetric() {
            &self.sym
        } else {
            &self.graph
        }
    }

    /// Barrier-cost scale for this workload: scaled edges over the paper's
    /// edge count, so fixed synchronization overheads keep the paper's
    /// proportion to per-iteration work (see `MachineSpec::barrier_scale`).
    pub fn barrier_scale(&self) -> f64 {
        self.graph.num_edges() as f64 / paper_edges(self.id)
    }

    /// LLC-capacity scale for this workload: scaled vertices over the
    /// paper's vertex count (see `MachineSpec::llc_scale`).
    pub fn llc_scale(&self) -> f64 {
        self.graph.num_vertices() as f64 / paper_vertices(self.id)
    }

    /// A machine spec with this workload's barrier and LLC scaling applied.
    pub fn scaled_spec(&self, spec: &MachineSpec) -> MachineSpec {
        let mut s = spec.clone();
        s.barrier_scale = self.barrier_scale();
        s.llc_scale = self.llc_scale();
        s
    }
}

/// One aggregated row of a run's per-phase breakdown, built from the
/// engine's trace ([`polymer_api::RunResult::trace`]). These are the
/// `phases` entries of every `BENCH_*`/figure/table JSON file — see
/// `docs/OBSERVABILITY.md` for the field taxonomy.
#[derive(Clone, Debug, Serialize)]
pub struct PhaseSummary {
    /// Phase name (`"scatter"`, `"gather"`, `"apply"`, `"barrier"`, ...).
    pub name: String,
    /// Number of spans aggregated under this name.
    pub calls: u64,
    /// Summed simulated time, seconds.
    pub seconds: f64,
    /// Bytes served from the issuing socket's own memory node.
    pub local_bytes: u64,
    /// Bytes served from other sockets' memory nodes.
    pub remote_bytes: u64,
    /// Byte-weighted last-level-cache hit fraction in `[0, 1]`.
    pub llc_hit_rate: f64,
    /// Pages spilled while these spans were open.
    pub spilled_pages: u64,
}

/// Uniform result metrics for the reports.
#[derive(Clone, Debug, Serialize)]
pub struct Metrics {
    /// System that ran.
    pub system: SystemId,
    /// Algorithm.
    pub algo: AlgoId,
    /// Dataset name.
    pub graph: String,
    /// Simulated runtime in seconds (the paper's Table 3 unit).
    pub seconds: f64,
    /// Iterations / scheduler rounds executed.
    pub iterations: usize,
    /// Simulated threads and sockets.
    pub threads: usize,
    /// Sockets spanned.
    pub sockets: usize,
    /// Remote-access profile (Table 4).
    pub remote: RemoteAccessReport,
    /// Total simulated bytes moved (local + remote), the unit the
    /// compressed-topology comparison in `bench_hotpath` reports.
    pub bytes_moved: u64,
    /// Peak memory in GiB (Table 5).
    pub peak_gib: f64,
    /// Peak agent-replica memory in GiB (Table 5 brackets; Polymer only).
    pub agents_gib: f64,
    /// Simulated barrier time, seconds (Figure 10).
    pub barrier_sec: f64,
    /// Per-socket busy time in seconds (Figure 11(b)).
    pub per_socket_sec: Vec<f64>,
    /// Per-phase breakdown from the run's trace (empty when untraced).
    pub phases: Vec<PhaseSummary>,
    /// Simulated seconds charged to each iteration, index-aligned with the
    /// iteration numbers the engine stamped (empty when untraced).
    pub per_iteration_sec: Vec<f64>,
    /// Pages that landed off their requested node per landing node
    /// (capacity spills; empty when nothing spilled).
    pub spilled_by_node: Vec<u64>,
    /// Pages demoted to each slow node — alloc-time overflow plus runtime
    /// fast→slow migrations (empty off tiered machines).
    pub demoted_by_node: Vec<u64>,
    /// Pages promoted to each fast node by runtime slow→fast migrations
    /// (empty off tiered machines).
    pub promoted_by_node: Vec<u64>,
}

/// Build the per-phase summaries from a recorded trace.
fn phase_summaries(buf: &TraceBuffer) -> Vec<PhaseSummary> {
    buf.phase_rows()
        .into_iter()
        .map(|r| PhaseSummary {
            name: r.name.to_string(),
            calls: r.calls,
            seconds: r.total_us / 1e6,
            local_bytes: r.local_bytes,
            remote_bytes: r.remote_bytes,
            llc_hit_rate: r.llc_hit_ratio,
            spilled_pages: r.spilled_pages,
        })
        .collect()
}

/// An all-zero per-node counter vector carries no information — drop it so
/// single-tier rows stay as small as before.
fn nonzero_counts(v: Vec<u64>) -> Vec<u64> {
    if v.iter().all(|&c| c == 0) {
        Vec::new()
    } else {
        v
    }
}

fn metrics<V>(
    system: SystemId,
    algo: AlgoId,
    graph: &str,
    spec: &MachineSpec,
    r: &RunResult<V>,
) -> Metrics {
    Metrics {
        system,
        algo,
        graph: graph.to_string(),
        seconds: r.seconds(),
        iterations: r.iterations,
        threads: r.threads,
        sockets: r.sockets,
        remote: r.remote_report(),
        bytes_moved: r.clock.total.bytes_local + r.clock.total.bytes_remote,
        peak_gib: r.memory.peak_gib(),
        agents_gib: r.memory.tag_peak("agents") as f64 / (1u64 << 30) as f64,
        barrier_sec: r.clock.barrier_us / 1e6,
        per_socket_sec: r
            .per_socket_us(spec.cores_per_node)
            .iter()
            .map(|us| us / 1e6)
            .collect(),
        phases: r.trace().map(phase_summaries).unwrap_or_default(),
        per_iteration_sec: r
            .trace()
            .map(|buf| buf.iteration_us().iter().map(|(_, us)| us / 1e6).collect())
            .unwrap_or_default(),
        spilled_by_node: nonzero_counts(r.memory.spilled_by_node.clone()),
        demoted_by_node: nonzero_counts(r.memory.demoted_by_node.clone()),
        promoted_by_node: nonzero_counts(r.memory.promoted_by_node.clone()),
    }
}

/// The full-control call — the one `SystemId × AlgoId` dispatch [`run`] and
/// [`run_on`] go through. It runs on a caller-built [`Machine`], the hook
/// for state that must be configured before the engine allocates: tier
/// routing (`Machine::route_tags_to_slow`), a promotion policy
/// (`Machine::set_tier_policy`), capacity clamps, a non-default spill
/// policy. The caller applies the workload's barrier/LLC scaling to the
/// spec (see [`Workload::scaled_spec`]).
///
/// `backend` and `traced` are the [`RunOptions`] fields of the same names;
/// `config` applies to the Polymer engine only (ablations); `iters`
/// overrides the iteration count of the fixed-iteration algorithms (PR,
/// SpMV, BP) — `None` keeps their 5-iteration default, and traversals (BFS,
/// CC, SSSP) run to their own convergence either way. The returned
/// [`TraceBuffer`] (for a Chrome-trace export or a
/// [`polymer_numa::phase_table`]) is empty unless `traced` on the simulated
/// backend.
#[allow(clippy::too_many_arguments)]
pub fn run_with(
    system: SystemId,
    algo: AlgoId,
    wl: &Workload,
    machine: &Machine,
    threads: usize,
    backend: &Backend,
    traced: bool,
    config: PolymerConfig,
    iters: Option<usize>,
) -> (Metrics, TraceBuffer) {
    let g = wl.graph_for(algo);
    macro_rules! dispatch_prog {
        ($prog:expr) => {{
            let prog = $prog;
            let opts = RunOptions {
                backend: backend.clone(),
                traced,
                ..RunOptions::default()
            };
            let r = crate::with_engine!(system, config, |engine| {
                engine.try_run_with(machine, threads, g, &prog, &opts)
            });
            let r =
                r.unwrap_or_else(|e| panic!("{system:?}/{algo:?} run failed [{}]: {e}", e.code()));
            (
                metrics(system, algo, wl.id.name(), machine.spec(), &r),
                r.trace().cloned().unwrap_or_default(),
            )
        }};
    }
    macro_rules! fixed_iters {
        ($prog:expr) => {
            match iters {
                Some(k) => $prog.with_iters(k),
                None => $prog,
            }
        };
    }
    match algo {
        AlgoId::PR => dispatch_prog!(fixed_iters!(PageRank::new(g.num_vertices()))),
        AlgoId::SpMV => dispatch_prog!(fixed_iters!(SpMV::new())),
        AlgoId::BP => dispatch_prog!(fixed_iters!(BeliefPropagation::new())),
        AlgoId::BFS => dispatch_prog!(Bfs::new(wl.source)),
        AlgoId::CC => dispatch_prog!(ConnectedComponents::new()),
        AlgoId::SSSP => dispatch_prog!(Sssp::new(wl.source)),
    }
}

/// Run one (system, algorithm) pair untraced on a chosen backend, with a
/// fresh machine of the given spec.
///
/// `Backend::Simulated` gives fully accounted simulated metrics;
/// the real-thread backend executes the program with real OS threads under
/// the engine's [`polymer_api::ExecProfile`] — values and iteration counts
/// are real while every simulated field (seconds, remote profile, memory)
/// reads zero, so callers measure wall-clock themselves.
pub fn run_on(
    system: SystemId,
    algo: AlgoId,
    wl: &Workload,
    spec: &MachineSpec,
    threads: usize,
    backend: &Backend,
) -> Metrics {
    let machine = Machine::new(wl.scaled_spec(spec));
    let config = PolymerConfig::default();
    run_with(
        system, algo, wl, &machine, threads, backend, false, config, None,
    )
    .0
}

/// Run one (system, algorithm) pair traced on the simulated backend, with a
/// fresh machine of the given spec and `threads` simulated threads — what
/// the figure and table binaries report (the per-phase breakdown rides in
/// [`Metrics::phases`]).
pub fn run(
    system: SystemId,
    algo: AlgoId,
    wl: &Workload,
    spec: &MachineSpec,
    threads: usize,
) -> Metrics {
    let machine = Machine::new(wl.scaled_spec(spec));
    let (backend, config) = (Backend::Simulated, PolymerConfig::default());
    run_with(
        system, algo, wl, &machine, threads, &backend, true, config, None,
    )
    .0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_prepares_both_orientations() {
        let wl = Workload::prepare(DatasetId::Rmat24S, -7);
        assert!(wl.sym.num_edges() >= wl.graph.num_edges());
        assert!(wl.graph.out_degree(wl.source) > 0);
        assert!(std::ptr::eq(wl.graph_for(AlgoId::CC), &wl.sym));
        assert!(std::ptr::eq(wl.graph_for(AlgoId::PR), &wl.graph));
    }

    #[test]
    fn run_every_system_on_small_workload() {
        let wl = Workload::prepare(DatasetId::RoadUsS, -8);
        let spec = MachineSpec::test2();
        for sys in SystemId::ALL {
            let m = run(sys, AlgoId::BFS, &wl, &spec, 4);
            assert!(m.seconds > 0.0, "{:?}", sys);
            assert!(m.iterations > 0);
            assert_eq!(m.threads, 4);
        }
    }

    #[test]
    fn results_agree_across_systems() {
        // The dispatcher must hand every system the same graph and source.
        let wl = Workload::prepare(DatasetId::Rmat24S, -8);
        let spec = MachineSpec::test2();
        let (want, _) = polymer_algos::run_reference(&wl.graph, &Bfs::new(wl.source));
        for sys in SystemId::ALL {
            let g = wl.graph_for(AlgoId::BFS);
            let machine = Machine::new(spec.clone());
            let prog = Bfs::new(wl.source);
            let values = crate::with_engine!(sys, PolymerConfig::default(), |engine| {
                engine.run(&machine, 4, g, &prog).values
            });
            assert_eq!(values, want, "{:?} diverged", sys);
        }
    }

    #[test]
    fn all_algorithms_run_on_all_systems() {
        let wl = Workload::prepare(DatasetId::PowerlawS, -9);
        let spec = MachineSpec::test2();
        for algo in AlgoId::ALL {
            for sys in SystemId::ALL {
                let m = run(sys, algo, &wl, &spec, 2);
                assert!(
                    m.seconds >= 0.0 && m.iterations > 0,
                    "{:?}/{:?} produced no work",
                    sys,
                    algo
                );
            }
        }
    }

    #[test]
    fn barrier_and_llc_scaling_follow_dataset() {
        let wl = Workload::prepare(DatasetId::TwitterS, -6);
        assert!(wl.barrier_scale() > 0.0 && wl.barrier_scale() < 1.0);
        assert!(wl.llc_scale() > 0.0 && wl.llc_scale() < 1.0);
        let spec = wl.scaled_spec(&MachineSpec::intel80());
        assert_eq!(spec.barrier_scale, wl.barrier_scale());
        assert_eq!(spec.llc_scale, wl.llc_scale());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(SystemId::Polymer.name(), "Polymer");
        assert_eq!(AlgoId::SSSP.name(), "SSSP");
        assert!(AlgoId::CC.needs_symmetric());
        assert!(!AlgoId::BFS.needs_symmetric());
    }
}
