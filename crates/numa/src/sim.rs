//! The deterministic bulk-synchronous executor.
//!
//! [`SimExecutor`] runs phases of per-simulated-thread tasks on the host,
//! integrates their classified access streams through the [`CostModel`], and
//! advances a simulated clock. Tasks run sequentially in thread-id order, so
//! every experiment is exactly reproducible; the data structures they operate
//! on are nonetheless real `Sync` types, so the same engine code is valid
//! under genuine multithreading.
//!
//! ## Tracing
//!
//! When [`SimExecutor::enable_trace`] is called, every phase and barrier is
//! also recorded into a [`polymer_trace::TraceBuffer`] carried by the
//! [`RunClock`] — spans on the simulated timeline, per-socket counters (from
//! [`PhaseCost::per_socket`](crate::cost::PhaseCost)), page-spill events, and
//! iteration stamps set through [`SimExecutor::set_iteration`]. Tracing never
//! changes simulated time: the cost integration is identical either way, and
//! an integration test pins traced and untraced runs to bit-identical clocks.
//!
//! ```
//! use polymer_numa::{Machine, MachineSpec, SimExecutor};
//!
//! let machine = Machine::new(MachineSpec::test2());
//! let mut sim = SimExecutor::new(&machine, 2);
//! sim.enable_trace();
//! sim.set_iteration(Some(0));
//! sim.run_phase("noop", |_, _| {});
//! sim.charge_barrier();
//! let trace = sim.clock().trace.buffer().unwrap();
//! assert_eq!(trace.phases.len(), 1);
//! assert_eq!(trace.barriers[0].iteration, Some(0));
//! ```

use std::collections::HashMap;

use polymer_trace::{PhaseSpan, SocketSample, Tracer};

use crate::cost::{BarrierKind, CostConfig, CostModel, PhaseCost, SocketCost};
use crate::ctx::{AccessCtx, AccessStats};
use crate::machine::{AllocId, Machine};
use crate::tier::TierRuntime;
use crate::topology::NodeId;

/// The simulated run clock: accumulated phase costs, barrier time, and a
/// per-phase-name time breakdown.
#[derive(Clone, Debug, Default)]
pub struct RunClock {
    /// Accumulated cost over every phase so far (times are sums).
    pub total: PhaseCost,
    /// Simulated time spent in barriers, µs.
    pub barrier_us: f64,
    /// Number of barriers charged.
    pub barriers: u64,
    /// Per-phase-name accumulated (time µs, invocation count).
    pub by_phase: HashMap<&'static str, (f64, u64)>,
    /// Timeline of phases, barriers, and per-socket counters, recorded when
    /// tracing is enabled ([`SimExecutor::enable_trace`]); [`Tracer::Off`]
    /// (and zero-cost) otherwise. Export with
    /// [`polymer_trace::chrome_trace_json`] or [`polymer_trace::phase_table`].
    pub trace: Tracer,
}

impl RunClock {
    /// Total simulated time including barriers, in µs.
    pub fn elapsed_us(&self) -> f64 {
        self.total.time_us + self.barrier_us
    }

    /// Total simulated time in seconds.
    pub fn elapsed_sec(&self) -> f64 {
        self.elapsed_us() / 1e6
    }
}

/// Convert the cost model's per-socket counters into trace samples (same
/// layout; the types differ only so `polymer-trace` stays dependency-free).
fn socket_samples(per_socket: &[SocketCost]) -> Vec<SocketSample> {
    per_socket
        .iter()
        .map(|c| SocketSample {
            loads: c.loads,
            stores: c.stores,
            count: c.count,
            bytes: c.bytes,
            llc_hit_bytes: c.llc_hit_bytes,
            llc_miss_bytes: c.llc_miss_bytes,
            busy_us: c.busy_us,
        })
        .collect()
}

/// Deterministic executor over `num_threads` simulated threads bound
/// node-major to the machine's cores.
pub struct SimExecutor {
    machine: Machine,
    model: CostModel,
    barrier_kind: BarrierKind,
    nodes: Vec<NodeId>,
    ctxs: Vec<AccessCtx>,
    /// Contiguous tid ranges sharing a home node — the host-parallel shards
    /// of [`SimExecutor::run_phase_split`].
    shards: Vec<std::ops::Range<usize>>,
    /// Host threads (the caller included) that share the shards in
    /// `run_phase_split`: the spec's [`crate::SimShardMode`] resolved once
    /// against the shard count and the host's core count. `1` is serial.
    participants: usize,
    clock: RunClock,
    /// Spill counter at the last trace checkpoint, for per-phase deltas.
    spilled_seen: u64,
    /// Tier promotion engine, run at every phase boundary when attached
    /// ([`SimExecutor::set_tiering`]). `None` on single-tier machines and on
    /// tiered machines running without promotion (static placement).
    tier: Option<TierRuntime>,
}

impl SimExecutor {
    /// An executor with the default cost model and the NUMA-aware barrier.
    pub fn new(machine: &Machine, num_threads: usize) -> Self {
        Self::with_config(
            machine,
            num_threads,
            CostConfig::default(),
            BarrierKind::SenseNuma,
        )
    }

    /// An executor with explicit cost-model constants and barrier family.
    pub fn with_config(
        machine: &Machine,
        num_threads: usize,
        config: CostConfig,
        barrier_kind: BarrierKind,
    ) -> Self {
        let topo = machine.topology();
        assert!(
            num_threads >= 1 && num_threads <= topo.total_cores(),
            "thread count {num_threads} exceeds machine cores {}",
            topo.total_cores()
        );
        let ctxs: Vec<AccessCtx> = (0..num_threads)
            .map(|t| AccessCtx::with_threads(machine, t, t, num_threads))
            .collect();
        let nodes: Vec<NodeId> = ctxs.iter().map(|c| c.node()).collect();
        let shards = crate::shard::shard_ranges(&nodes);
        let participants = machine.spec().shard_mode.participants(shards.len());
        let mut sim = SimExecutor {
            machine: machine.clone(),
            model: CostModel::new(machine, config),
            barrier_kind,
            nodes,
            ctxs,
            shards,
            participants,
            clock: RunClock::default(),
            spilled_seen: machine.spilled_pages(),
            tier: None,
        };
        // Machines carrying a tier policy hand every executor a fresh
        // promotion runtime — engines inherit tiering with no code of their
        // own (see `Machine::set_tier_policy`).
        if machine.is_tiered() {
            if let Some(policy) = machine.tier_policy() {
                sim.set_tiering(TierRuntime::new(policy));
            }
        }
        sim
    }

    /// Attach a tier promotion engine: at every phase boundary the runtime
    /// drains the page heat collected during the phase, migrates hot
    /// slow-tier pages to the fast tier (demoting least-recently-promoted
    /// pages when the fast tier is full), and the migrations are charged as
    /// a synthetic `tier-migrate` phase on the clock. Panics on single-tier
    /// machines — there is nothing to promote to.
    pub fn set_tiering(&mut self, runtime: TierRuntime) {
        assert!(
            self.machine.is_tiered(),
            "set_tiering requires a tiered machine spec"
        );
        let mode = runtime.policy().heat_mode();
        for ctx in &mut self.ctxs {
            ctx.set_heat_mode(mode);
        }
        self.tier = Some(runtime);
    }

    /// Record a phase/barrier timeline with per-socket counters into the
    /// clock's [`Tracer`] (export via [`polymer_trace::chrome_trace_json`] or
    /// query through [`polymer_trace::TraceBuffer`]). Tracing does not change
    /// simulated time.
    pub fn enable_trace(&mut self) {
        self.clock
            .trace
            .enable(self.num_sockets(), self.num_threads());
        self.spilled_seen = self.machine.spilled_pages();
    }

    /// Stamp subsequently recorded spans with an iteration/superstep number
    /// (no-op unless tracing is enabled).
    pub fn set_iteration(&mut self, iteration: Option<u64>) {
        self.clock.trace.set_iteration(iteration);
    }

    /// The machine this executor runs on.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Number of simulated threads.
    pub fn num_threads(&self) -> usize {
        self.ctxs.len()
    }

    /// Number of distinct sockets the threads span.
    pub fn num_sockets(&self) -> usize {
        let mut seen = [false; crate::topology::MAX_NODES];
        let mut n = 0;
        for &node in &self.nodes {
            if !seen[node] {
                seen[node] = true;
                n += 1;
            }
        }
        n
    }

    /// The home node of simulated thread `tid`.
    pub fn node_of_thread(&self, tid: usize) -> NodeId {
        self.nodes[tid]
    }

    /// Threads (tids) bound to cores of `node`.
    pub fn threads_on_node(&self, node: NodeId) -> Vec<usize> {
        (0..self.ctxs.len())
            .filter(|&t| self.nodes[t] == node)
            .collect()
    }

    /// Run one bulk-synchronous phase: `task(tid, ctx)` is invoked once per
    /// simulated thread; the phase's simulated time is the cost-model maximum
    /// over threads and congested resources. Returns the phase cost and
    /// advances the clock.
    pub fn run_phase(
        &mut self,
        name: &'static str,
        mut task: impl FnMut(usize, &mut AccessCtx),
    ) -> PhaseCost {
        for (tid, ctx) in self.ctxs.iter_mut().enumerate() {
            task(tid, ctx);
        }
        self.finish_phase(name)
    }

    /// Run one bulk-synchronous phase split into a side-effect-free compute
    /// half and a serially replayed publish half, allowing the compute half
    /// to run host-parallel (one host thread per *host* core, each claiming
    /// simulated-socket shards) under the machine spec's
    /// [`crate::SimShardMode`].
    ///
    /// `compute(tid, ctx)` is invoked once per simulated thread and returns a
    /// per-thread payload; when sharding is active, shards run concurrently
    /// but tids within a shard still run serially in ascending order.
    /// `publish(tid, ctx, payload)` then runs serially in tid order on the
    /// calling thread. Cost integration is identical to
    /// [`SimExecutor::run_phase`], and the result is **bit-identical**
    /// whether or not host threads are used, under two contract obligations
    /// on the caller:
    ///
    /// * compute must not observe values written by another tid's compute of
    ///   the same phase (reads of state frozen at the phase boundary, and
    ///   writes that are disjoint by construction — e.g. own-partition
    ///   targets or reserved ranges — are both fine);
    /// * any accounted access whose *value* or *order* depends on other
    ///   tids' same-phase writes must be deferred to `publish` (combine into
    ///   shared accumulators, shared-bitmap test-and-set, cross-thread
    ///   queue handoff).
    ///
    /// Both halves charge the same per-thread [`AccessCtx`]: statistics are
    /// additive per `(context, allocation)` and classification state is
    /// per-allocation, so moving an allocation's accesses between the two
    /// halves never changes that allocation's classified stream as long as
    /// its per-thread access order is preserved.
    pub fn run_phase_split<D: Send>(
        &mut self,
        name: &'static str,
        compute: impl Fn(usize, &mut AccessCtx) -> D + Sync,
        mut publish: impl FnMut(usize, &mut AccessCtx, D),
    ) -> PhaseCost {
        let payloads: Vec<D> = if self.participants > 1 {
            crate::shard::run_sharded(&mut self.ctxs, &self.shards, self.participants, &compute)
        } else {
            self.ctxs
                .iter_mut()
                .enumerate()
                .map(|(tid, ctx)| compute(tid, ctx))
                .collect()
        };
        for (tid, (ctx, payload)) in self.ctxs.iter_mut().zip(payloads).enumerate() {
            publish(tid, ctx, payload);
        }
        self.finish_phase(name)
    }

    /// The serial merge shared by [`SimExecutor::run_phase`] and
    /// [`SimExecutor::run_phase_split`]: integrate the phase, then give the
    /// tier runtime (if any) its boundary.
    fn finish_phase(&mut self, name: &'static str) -> PhaseCost {
        let spilled_now = self.machine.spilled_pages();
        let spilled_delta = spilled_now - self.spilled_seen;
        self.spilled_seen = spilled_now;
        let cost = self.integrate(name, spilled_delta);
        if self.tier.is_some() {
            self.run_tier_boundary();
        }
        cost
    }

    /// Collect per-thread statistics in tid order, fold them through the
    /// cost model, record the phase span and advance the clock.
    fn integrate(&mut self, name: &'static str, spilled_delta: u64) -> PhaseCost {
        let threads: Vec<(NodeId, AccessStats)> = self
            .ctxs
            .iter_mut()
            .enumerate()
            .map(|(t, ctx)| (self.nodes[t], ctx.take_stats()))
            .collect();
        let cost = self.model.phase_cost(&threads);
        let start_us = self.clock.elapsed_us();
        self.clock.trace.record(|buf| {
            // Threads bind node-major, so the issuing sockets are exactly the
            // first `buf.sockets` machine nodes — the buffer's lanes.
            let lanes = buf.sockets.min(cost.per_socket.len());
            buf.push_phase(PhaseSpan {
                name,
                iteration: buf.iteration(),
                start_us,
                dur_us: cost.time_us,
                per_thread_us: cost.per_thread_us.clone(),
                per_socket: socket_samples(&cost.per_socket[..lanes]),
                spilled_pages: spilled_delta,
            });
        });
        self.clock.total.accumulate(&cost);
        let e = self.clock.by_phase.entry(name).or_insert((0.0, 0));
        e.0 += cost.time_us;
        e.1 += 1;
        cost
    }

    /// Drain the phase's page heat, let the tier runtime migrate pages, and
    /// charge the migration traffic as a synthetic `tier-migrate` phase.
    /// Runs after the main phase's `take_stats`, so every context re-resolves
    /// page homes at its next access (tiered contexts drop their page caches
    /// at `take_stats`).
    fn run_tier_boundary(&mut self) {
        // Merge per-context heat into one per-(alloc, page) view.
        let mut heat: Vec<(AllocId, Vec<u32>)> = Vec::new();
        for ctx in &mut self.ctxs {
            for (alloc, pages) in ctx.take_heat() {
                match heat.iter_mut().find(|(a, _)| *a == alloc) {
                    Some((_, agg)) => {
                        if agg.len() < pages.len() {
                            agg.resize(pages.len(), 0);
                        }
                        for (slot, h) in agg.iter_mut().zip(pages.iter()) {
                            *slot = slot.saturating_add(*h);
                        }
                    }
                    None => heat.push((alloc, pages)),
                }
            }
        }
        heat.sort_by_key(|(a, _)| *a);
        let mut rt = self.tier.take().expect("tier runtime attached");
        let migrations = rt.run_boundary(&self.machine, &heat);
        self.tier = Some(rt);
        if migrations.is_empty() {
            return;
        }
        // Charge the copies on thread 0's context — migration is a serial
        // runtime service, like the kernel's migration daemon — and integrate
        // them as their own phase so the overhead is visible per se.
        for m in &migrations {
            self.ctxs[0].record_migration(m.alloc, m.bytes, m.from, m.to);
        }
        self.integrate("tier-migrate", 0);
    }

    /// Charge one global barrier at the configured family's cost, scaled by
    /// the machine spec's `barrier_scale` (see [`crate::MachineSpec`]).
    pub fn charge_barrier(&mut self) {
        let us = self.barrier_kind.cost_us(self.num_sockets()) * self.machine.spec().barrier_scale;
        let start_us = self.clock.elapsed_us();
        self.clock
            .trace
            .record(|buf| buf.push_barrier(start_us, us));
        self.clock.barrier_us += us;
        self.clock.barriers += 1;
    }

    /// The accumulated clock.
    pub fn clock(&self) -> &RunClock {
        &self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AllocPolicy;
    use crate::topology::MachineSpec;

    #[test]
    fn phases_advance_clock_and_aggregate() {
        let m = Machine::new(MachineSpec::test2());
        let a = m.alloc_array::<u64>("a", 1 << 16, AllocPolicy::Interleaved);
        let mut sim = SimExecutor::new(&m, 4);
        assert_eq!(sim.num_threads(), 4);
        assert_eq!(sim.num_sockets(), 2);
        let c1 = sim.run_phase("scan", |tid, ctx| {
            let per = a.len() / 4;
            for i in tid * per..(tid + 1) * per {
                a.get(ctx, i);
            }
        });
        assert!(c1.time_us > 0.0);
        sim.charge_barrier();
        let c2 = sim.run_phase("scan", |_, _| {});
        assert_eq!(c2.time_us, 0.0);
        let clock = sim.clock();
        assert_eq!(clock.barriers, 1);
        assert!(clock.barrier_us > 0.0);
        assert_eq!(clock.by_phase["scan"].1, 2);
        assert!((clock.elapsed_us() - (c1.time_us + clock.barrier_us)).abs() < 1e-9);
    }

    #[test]
    fn thread_to_node_binding_is_node_major() {
        let m = Machine::new(MachineSpec::intel80());
        let sim = SimExecutor::new(&m, 40);
        assert_eq!(sim.node_of_thread(0), 0);
        assert_eq!(sim.node_of_thread(10), 1);
        assert_eq!(sim.node_of_thread(39), 3);
        assert_eq!(sim.num_sockets(), 4);
        assert_eq!(sim.threads_on_node(2), (20..30).collect::<Vec<_>>());
    }

    #[test]
    fn barrier_kind_switch_changes_cost() {
        let m = Machine::new(MachineSpec::intel80());
        let cost = |kind| {
            let mut sim = SimExecutor::with_config(&m, 80, CostConfig::default(), kind);
            sim.charge_barrier();
            sim.clock().barrier_us
        };
        let cheap = cost(BarrierKind::SenseNuma);
        let expensive = cost(BarrierKind::Pthread);
        assert!(expensive > 100.0 * cheap);
    }

    #[test]
    fn trace_records_timeline_and_exports_json() {
        let m = Machine::new(MachineSpec::test2());
        let a = m.alloc_array::<u64>("a", 4096, AllocPolicy::Centralized);
        let mut sim = SimExecutor::new(&m, 2);
        sim.enable_trace();
        sim.set_iteration(Some(4));
        sim.run_phase("scan", |_, ctx| {
            for i in 0..100 {
                a.get(ctx, i);
            }
        });
        sim.charge_barrier();
        sim.run_phase("apply", |_, _| {});
        let clock = sim.clock();
        let buf = clock.trace.buffer().expect("tracing enabled");
        assert_eq!(buf.phases.len(), 2);
        assert_eq!(buf.barriers.len(), 1);
        assert_eq!(buf.phases[0].name, "scan");
        assert_eq!(buf.phases[0].iteration, Some(4));
        // Two threads bind node-major onto test2's first socket.
        assert_eq!(buf.sockets, 1);
        assert_eq!(buf.workers, 2);
        // Spans are contiguous on the simulated timeline.
        let end0 = buf.phases[0].start_us + buf.phases[0].dur_us;
        assert!((buf.barriers[0].start_us - end0).abs() < 1e-9);
        // The buffer's totals reproduce the clock's.
        assert!((buf.total_barrier_us() - clock.barrier_us).abs() < 1e-9);
        assert!((buf.total_phase_us() - clock.total.time_us).abs() < 1e-9);
        // Per-socket counters rode along from the cost model: node 0 issued
        // the accesses (thread 0 did all the work on a 2-thread test2 box).
        let sockets = buf.phases.iter().flat_map(|p| &p.per_socket);
        assert_eq!(
            sockets.flat_map(|s| s.count.iter().flatten()).sum::<u64>(),
            clock.total.count_local + clock.total.count_remote
        );
        let json = polymer_trace::chrome_trace_json(buf);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"scan\""));
        assert!(json.contains("\"barrier-wait\""));
        assert!(json.contains("\"ph\":\"C\""));
    }

    #[test]
    fn trace_disabled_by_default() {
        let m = Machine::new(MachineSpec::test2());
        let mut sim = SimExecutor::new(&m, 1);
        sim.run_phase("x", |_, _| {});
        assert!(!sim.clock().trace.is_enabled());
        assert!(sim.clock().trace.buffer().is_none());
    }

    #[test]
    #[should_panic(expected = "exceeds machine cores")]
    fn too_many_threads_rejected() {
        let m = Machine::new(MachineSpec::test2());
        SimExecutor::new(&m, 5);
    }

    #[test]
    #[should_panic(expected = "requires a tiered machine")]
    fn tiering_rejected_on_single_tier_machine() {
        let m = Machine::new(MachineSpec::test2());
        let mut sim = SimExecutor::new(&m, 2);
        sim.set_tiering(crate::tier::TierRuntime::new(
            crate::tier::TierPolicy::HotPageLru,
        ));
    }

    #[test]
    fn tiering_promotes_hot_pages_and_charges_migration_phase() {
        use crate::tier::{TierPolicy, TierRuntime};
        let m = Machine::new(MachineSpec::test2_tiered());
        // Hot data starts on the slow tier (node 2).
        let a = m.alloc_array_with("data/hot", 4096, AllocPolicy::OnNode(2), |i| i as u64);
        let mut sim = SimExecutor::new(&m, 2);
        sim.enable_trace();
        sim.set_tiering(TierRuntime::new(TierPolicy::HotPageLru));
        let scan = |_tid: usize, ctx: &mut AccessCtx| {
            for i in 0..a.len() {
                a.get(ctx, i);
            }
        };
        let cold = sim.run_phase("scan", scan);
        // The boundary promoted all touched pages to the fast tier...
        assert!(!m.spec().tier_of(a.node_of(0)).is_slow());
        // ...charging the copies on the clock as their own phase.
        let (migrate_us, n) = sim.clock().by_phase["tier-migrate"];
        assert!(migrate_us > 0.0 && n == 1);
        let buf = sim.clock().trace.buffer().unwrap();
        assert!(buf.phases.iter().any(|p| p.name == "tier-migrate"));
        // The same scan now runs faster from the fast tier.
        let warm = sim.run_phase("scan", scan);
        assert!(
            warm.time_us < cold.time_us,
            "post-promotion scan {} must beat slow-tier scan {}",
            warm.time_us,
            cold.time_us
        );
    }

    #[test]
    fn tiering_off_leaves_tiered_clock_untouched_by_heat() {
        use crate::tier::{TierPolicy, TierRuntime};
        // A tiered machine without an attached runtime must behave exactly
        // like static placement: no heat, no migrations, no extra phases.
        let run = |tiering: bool| -> (u64, f64) {
            let m = Machine::new(MachineSpec::test2_tiered());
            let a = m.alloc_array_with("a", 2048, AllocPolicy::OnNode(0), |i| i as u64);
            let mut sim = SimExecutor::new(&m, 2);
            if tiering {
                sim.set_tiering(TierRuntime::new(TierPolicy::FirstTouch));
            }
            sim.run_phase("scan", |_, ctx| {
                for i in 0..a.len() {
                    a.get(ctx, i);
                }
            });
            (
                sim.clock().elapsed_us().to_bits(),
                sim.clock()
                    .by_phase
                    .get("tier-migrate")
                    .map(|e| e.1)
                    .unwrap_or(0) as f64,
            )
        };
        let (plain, m0) = run(false);
        let (tiered, m1) = run(true);
        // Data already fast-resident: the runtime finds nothing to promote,
        // and the clock matches the static run bit-for-bit.
        assert_eq!(plain, tiered);
        assert_eq!(m0, 0.0);
        assert_eq!(m1, 0.0);
    }

    /// An executor whose `run_phase_split` shares its shards among exactly
    /// `participants` host threads, whatever the host's core count.
    fn sim_with_participants(m: &Machine, threads: usize, participants: usize) -> SimExecutor {
        let mut sim = SimExecutor::new(m, threads);
        sim.participants = participants;
        sim
    }

    /// One full compute/publish phase per run: every thread scans a slice of
    /// `a`, computes partial float sums, and the publish half combines them
    /// into a shared accumulator and flags `upd`. Returns the bit patterns
    /// that must match however the shards were scheduled.
    fn split_phase_fingerprint(sim: &mut SimExecutor) -> (u64, f64, f64, String) {
        let m = sim.machine().clone();
        let a = m.alloc_array_with("a", 1 << 14, AllocPolicy::Interleaved, |i| i as u64);
        let acc = m.alloc_atomic::<f64>("acc", 64, AllocPolicy::OnNode(0));
        let upd = m.alloc_atomic::<u64>("upd", 8, AllocPolicy::OnNode(0));
        let nt = sim.num_threads();
        let mut costs = Vec::new();
        for _ in 0..3 {
            let c = sim.run_phase_split(
                "split",
                |tid, ctx| {
                    let per = a.len() / nt;
                    let mut sum = 0.0f64;
                    for v in a.iter_seq(ctx, tid * per..(tid + 1) * per) {
                        sum += (v as f64).sqrt();
                    }
                    (sum, tid % 7)
                },
                |_tid, ctx, (sum, slot)| {
                    acc.fetch_add(ctx, slot, sum);
                    upd.fetch_or(ctx, slot % 8, 1 << slot);
                },
            );
            costs.push(c.time_us);
            sim.charge_barrier();
        }
        let accs: String = (0..64)
            .map(|i| format!("{:016x}", acc.raw_load(i).to_bits()))
            .collect();
        (sim.clock().elapsed_us().to_bits(), costs[0], costs[2], accs)
    }

    #[test]
    fn run_phase_split_is_bit_identical_across_shard_modes() {
        use crate::shard::SimShardMode;
        let run = |mode| {
            let m = Machine::new(MachineSpec::intel80().with_shard_mode(mode));
            split_phase_fingerprint(&mut SimExecutor::new(&m, 40))
        };
        // `On` forces real host threads even on a single-core host, so this
        // exercises the parallel path everywhere.
        let serial = run(SimShardMode::Off);
        assert_eq!(serial, run(SimShardMode::On));
        // Fewer participants than shards (claiming), as many, and more than
        // the four shards 40 threads span (clamped): same bits every time.
        for participants in [1, 2, 3, 8] {
            let m = Machine::new(MachineSpec::intel80());
            let mut sim = sim_with_participants(&m, 40, participants);
            assert_eq!(
                serial,
                split_phase_fingerprint(&mut sim),
                "{participants} participants"
            );
        }
    }

    #[test]
    fn on_mode_is_concurrent_even_on_a_one_core_host() {
        use crate::shard::SimShardMode;
        let m = Machine::new(MachineSpec::intel80().with_shard_mode(SimShardMode::On));
        assert!(SimExecutor::new(&m, 80).participants >= 2);
        // One socket is one shard: nothing to share, nothing spawned.
        assert_eq!(SimExecutor::new(&m, 10).participants, 1);
        let off = Machine::new(MachineSpec::intel80().with_shard_mode(SimShardMode::Off));
        assert_eq!(SimExecutor::new(&off, 80).participants, 1);
    }

    #[test]
    fn run_phase_split_matches_one_pass_run_phase() {
        // The same per-thread access streams issued through run_phase (all
        // inline) and run_phase_split (reads in compute, combines in
        // publish) must produce bit-identical costs: statistics are additive
        // per (context, allocation) and each allocation's per-thread access
        // order is preserved.
        let run = |split: bool| -> u64 {
            let m = Machine::new(MachineSpec::test2());
            let a = m.alloc_array_with("a", 4096, AllocPolicy::Interleaved, |i| i as u64);
            let acc = m.alloc_atomic::<f64>("acc", 4, AllocPolicy::OnNode(0));
            let mut sim = SimExecutor::new(&m, 4);
            if split {
                sim.run_phase_split(
                    "p",
                    |tid, ctx| {
                        let mut s = 0.0;
                        for v in a.iter_seq(ctx, tid * 1024..(tid + 1) * 1024) {
                            s += v as f64;
                        }
                        s
                    },
                    |tid, ctx, s| {
                        acc.fetch_add(ctx, tid % 4, s);
                    },
                );
            } else {
                sim.run_phase("p", |tid, ctx| {
                    let mut s = 0.0;
                    for v in a.iter_seq(ctx, tid * 1024..(tid + 1) * 1024) {
                        s += v as f64;
                    }
                    acc.fetch_add(ctx, tid % 4, s);
                });
            }
            sim.clock().elapsed_us().to_bits()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn run_phase_split_propagates_shard_panics() {
        use crate::shard::SimShardMode;
        let m = Machine::new(MachineSpec::intel80().with_shard_mode(SimShardMode::On));
        let mut sim = SimExecutor::new(&m, 40);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run_phase_split(
                "boom",
                |tid, _ctx| {
                    if tid == 25 {
                        panic!("shard task failed");
                    }
                },
                |_, _, _| {},
            );
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "shard task failed");
    }

    #[test]
    fn lowest_tid_panic_wins_when_two_shards_panic() {
        // tid 35 (shard 3) and tid 12 (shard 1) both panic; whichever host
        // thread got there first, the caller must see shard 1's payload, and
        // every other shard must still have run to completion.
        for participants in [2, 3, 8] {
            let m = Machine::new(MachineSpec::intel80());
            let mut sim = sim_with_participants(&m, 40, participants);
            let ran = std::sync::atomic::AtomicUsize::new(0);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.run_phase_split(
                    "boom",
                    |tid, _ctx| {
                        match tid {
                            12 => panic!("low shard failed"),
                            35 => panic!("high shard failed"),
                            _ => {}
                        }
                        ran.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    },
                    |_, _, _| {},
                );
            }));
            let payload = result.expect_err("panic must propagate");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(msg, "low shard failed", "{participants} participants");
            // Shards 0 and 2 ran all ten tids; shards 1 and 3 stopped at
            // their panicking tid (2 and 5 tids in).
            assert_eq!(ran.into_inner(), 10 + 2 + 10 + 5);
        }
    }
}
