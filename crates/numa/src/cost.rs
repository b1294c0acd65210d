//! The simulated-time cost model.
//!
//! Converts the classified access statistics of one bulk-synchronous phase
//! into simulated time. The model is deliberately simple and fully
//! documented, because its purpose is to reproduce the *shape* of the paper's
//! results from the mechanisms the paper identifies, not absolute numbers:
//!
//! 1. **Single-stream time.** Each thread's bytes are divided by the paper's
//!    measured bandwidth for their (pattern, distance) bucket (Figure 4) —
//!    this is where sequential-remote beating random-local (2.92×–6.85×)
//!    enters. A per-access CPU cost floor models instruction overhead.
//! 2. **Cache model.** Per (node, array), an analytic last-level-cache hit
//!    rate `min(max_hit, resident × reuse)` is applied: `resident` is the
//!    fraction of the node's touched footprint that fits in its LLC, and
//!    `reuse` is the fraction of accesses that revisit a line — 1 for arrays
//!    warm from an earlier phase, `1 − footprint/bytes` within a cold phase.
//!    Hits are charged at LLC bandwidth instead of DRAM. Smaller per-node
//!    partitions at higher socket counts thus stay warm across iterations —
//!    the source of Polymer's super-linear PageRank scaling (Section 6.3).
//! 3. **Congestion.** Total DRAM bytes served by each node and total bytes
//!    crossing each interconnect link are divided by aggregate capacities;
//!    the phase cannot finish faster than its most congested resource
//!    (paper Sections 3.1 and 6.8: centralized/interleaved allocation and
//!    imbalance both amplify through congestion).
//!
//! Phase time = max(slowest thread, most congested memory controller, most
//! congested link). Barrier costs between phases come from
//! [`BarrierKind::cost_us`], calibrated to the paper's Figure 10(a).
//!
//! Every integrated phase yields a [`PhaseCost`]: the simulated time, its
//! binding resource (thread / DRAM / link), and the full classified access
//! census — including [`PhaseCost::per_socket`], the per-issuing-socket
//! decomposition (pattern × hop distance) that the tracing layer turns into
//! per-socket counter lanes. The decomposition is lossless: socket sums
//! reproduce the aggregate fields exactly (pinned by a workspace property
//! test).
//!
//! ```
//! use polymer_numa::{BarrierKind, Machine, MachineSpec, SimExecutor};
//!
//! // Figure 10(a)'s calibration at eight sockets: each barrier family is
//! // roughly an order of magnitude apart.
//! let p = BarrierKind::Pthread.cost_us(8);
//! let h = BarrierKind::Hierarchical.cost_us(8);
//! let n = BarrierKind::SenseNuma.cost_us(8);
//! assert!(p > 10.0 * h && h > 10.0 * n);
//!
//! // A phase's cost decomposes per socket without loss.
//! let machine = Machine::new(MachineSpec::test2());
//! let data = machine.alloc_array::<u64>("doc/cost", 1 << 14,
//!     polymer_numa::AllocPolicy::Interleaved);
//! let mut sim = SimExecutor::new(&machine, 2);
//! let cost = sim.run_phase("scan", |_, ctx| {
//!     for i in 0..data.len() {
//!         data.get(ctx, i);
//!     }
//! });
//! let per_socket: u64 = cost
//!     .per_socket
//!     .iter()
//!     .map(|s| s.loads + s.stores)
//!     .sum();
//! assert_eq!(per_socket, cost.count_local + cost.count_remote);
//! ```

use serde::{Deserialize, Serialize};

use crate::ctx::{AccessStats, Tally};
use crate::machine::{AllocId, Machine};
use crate::topology::{NodeId, MAX_NODES};

/// Tunable constants of the cost model. Defaults are documented estimates for
/// the paper's Intel machine; only ratios matter for the reproduced shapes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CostConfig {
    /// Aggregate DRAM bandwidth of one node's memory controller, MB/s.
    /// Roughly 4× the single-stream sequential bandwidth — ten cores cannot
    /// each get the full single-stream rate.
    pub node_dram_mbs: f64,
    /// Aggregate bandwidth of one interconnect link (QPI/HT), MB/s.
    pub link_mbs: f64,
    /// Bandwidth of sequential accesses that hit in the LLC, MB/s.
    pub llc_seq_mbs: f64,
    /// Bandwidth of random accesses that hit in the LLC, MB/s.
    pub llc_rand_mbs: f64,
    /// Cap on the analytic LLC hit rate (cold misses always remain).
    pub max_hit_rate: f64,
    /// CPU cycles charged per access as an instruction-overhead floor.
    pub cpu_cycles_per_access: f64,
    /// Aggregate bandwidth of one *slow-tier* node's controller, MB/s.
    /// Follows the Optane calibration: the capacity tier's aggregate
    /// bandwidth is roughly the DRAM controller's divided by
    /// [`crate::SLOW_SEQ_BW_DIVISOR`]. Only consulted for slow nodes, so
    /// single-tier machines never read it.
    #[serde(default = "default_slow_node_dram_mbs")]
    pub slow_node_dram_mbs: f64,
}

fn default_slow_node_dram_mbs() -> f64 {
    4_900.0
}

impl Default for CostConfig {
    fn default() -> Self {
        CostConfig {
            node_dram_mbs: 12_800.0,
            link_mbs: 6_400.0,
            llc_seq_mbs: 20_000.0,
            llc_rand_mbs: 6_000.0,
            max_hit_rate: 0.95,
            cpu_cycles_per_access: 1.0,
            slow_node_dram_mbs: default_slow_node_dram_mbs(),
        }
    }
}

/// The integrated cost of one phase.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseCost {
    /// Simulated phase time in microseconds.
    pub time_us: f64,
    /// Time of the slowest thread (before congestion), µs.
    pub max_thread_us: f64,
    /// Time dictated by the most congested memory controller, µs.
    pub dram_bound_us: f64,
    /// Time dictated by the most congested interconnect link, µs.
    pub link_bound_us: f64,
    /// Per-thread compute+memory times, µs.
    pub per_thread_us: Vec<f64>,
    /// Local / remote transaction counts.
    pub count_local: u64,
    /// Remote transaction count.
    pub count_remote: u64,
    /// Local / remote bytes moved (before cache filtering).
    pub bytes_local: u64,
    /// Remote bytes moved.
    pub bytes_remote: u64,
    /// DRAM (LLC-miss) bytes attributed to local accesses.
    pub miss_bytes_local: f64,
    /// DRAM (LLC-miss) bytes attributed to remote accesses.
    pub miss_bytes_remote: f64,
    /// Estimated LLC-missing transactions attributed to local accesses.
    pub miss_count_local: f64,
    /// Estimated LLC-missing transactions attributed to remote accesses.
    pub miss_count_remote: f64,
    /// Transaction counts split `[Pattern::index()][is_remote as usize]` —
    /// verifies the paper's Figure 2/6 access-pattern labels directly
    /// (Polymer's remote traffic is sequential, Ligra's is random).
    pub count_by_pattern: [[u64; 2]; 2],
    /// Counters attributed to the *issuing* socket (the home node of the
    /// threads that performed the accesses), one entry per machine node.
    /// Socket sums reproduce the aggregate fields exactly: summing
    /// [`SocketCost::count`] over sockets with distance class 0 gives
    /// `count_local`, classes 1–3 give `count_remote`, and likewise for
    /// bytes and LLC-miss bytes (see the workspace property tests).
    #[serde(default)]
    pub per_socket: Vec<SocketCost>,
}

/// Per-socket slice of a [`PhaseCost`]: what one socket's threads did during
/// the phase, split by access pattern × hop distance. Indices follow
/// [`crate::Pattern::index`] (0 = sequential, 1 = random) and
/// [`crate::DistClass::index`] (0 = local … 3 = two hops).
#[derive(Clone, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct SocketCost {
    /// Load (read) transactions issued by this socket's threads.
    pub loads: u64,
    /// Store (write) transactions issued by this socket's threads.
    pub stores: u64,
    /// Transactions by `[pattern][hop distance]`.
    pub count: [[u64; 4]; 2],
    /// Bytes moved by `[pattern][hop distance]` (before cache filtering).
    pub bytes: [[u64; 4]; 2],
    /// Bytes served from this socket's LLC.
    pub llc_hit_bytes: f64,
    /// Bytes that missed the LLC and went to DRAM.
    pub llc_miss_bytes: f64,
    /// Busy time of the socket's slowest thread, µs (sums over phases when
    /// accumulated, like [`PhaseCost::time_us`]).
    pub busy_us: f64,
}

impl SocketCost {
    /// Fold another socket cost into this one (counters and times add).
    pub fn accumulate(&mut self, other: &SocketCost) {
        self.loads += other.loads;
        self.stores += other.stores;
        for p in 0..2 {
            for d in 0..4 {
                self.count[p][d] += other.count[p][d];
                self.bytes[p][d] += other.bytes[p][d];
            }
        }
        self.llc_hit_bytes += other.llc_hit_bytes;
        self.llc_miss_bytes += other.llc_miss_bytes;
        self.busy_us += other.busy_us;
    }
}

impl PhaseCost {
    /// Fold another phase's cost into an accumulating total. `time_us` and
    /// the bound fields become sums; counters add.
    pub fn accumulate(&mut self, other: &PhaseCost) {
        self.time_us += other.time_us;
        self.max_thread_us += other.max_thread_us;
        self.dram_bound_us += other.dram_bound_us;
        self.link_bound_us += other.link_bound_us;
        if self.per_thread_us.len() < other.per_thread_us.len() {
            self.per_thread_us.resize(other.per_thread_us.len(), 0.0);
        }
        for (a, b) in self.per_thread_us.iter_mut().zip(&other.per_thread_us) {
            *a += *b;
        }
        self.count_local += other.count_local;
        self.count_remote += other.count_remote;
        self.bytes_local += other.bytes_local;
        self.bytes_remote += other.bytes_remote;
        self.miss_bytes_local += other.miss_bytes_local;
        self.miss_bytes_remote += other.miss_bytes_remote;
        self.miss_count_local += other.miss_count_local;
        self.miss_count_remote += other.miss_count_remote;
        for pat in 0..2 {
            for loc in 0..2 {
                self.count_by_pattern[pat][loc] += other.count_by_pattern[pat][loc];
            }
        }
        if self.per_socket.len() < other.per_socket.len() {
            self.per_socket
                .resize_with(other.per_socket.len(), SocketCost::default);
        }
        for (a, b) in self.per_socket.iter_mut().zip(&other.per_socket) {
            a.accumulate(b);
        }
    }
}

/// Barrier families of the paper's Section 5 / Figure 10(a).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BarrierKind {
    /// `pthread_barrier`: flat, traps into the kernel.
    Pthread,
    /// Hierarchical barrier built from `pthread_barrier` per group.
    Hierarchical,
    /// Polymer's hierarchical sense-reversing user-level barrier.
    SenseNuma,
}

impl BarrierKind {
    /// Synchronization cost in µs for `sockets` participating sockets,
    /// calibrated to the paper's measured endpoints: pthread 30 µs intra /
    /// 570 µs at two sockets / 6182 µs at eight; hierarchical 612 µs at
    /// eight; sense-reversing 8 µs at eight.
    pub fn cost_us(self, sockets: usize) -> f64 {
        let s = sockets.max(1) as f64;
        match self {
            BarrierKind::Pthread => 30.0 + 483.5 * (s - 1.0) + 56.5 * (s - 1.0) * (s - 1.0),
            BarrierKind::Hierarchical => 30.0 + 83.14 * (s - 1.0),
            BarrierKind::SenseNuma => s,
        }
    }
}

/// The cost model bound to one machine. Stateful: it remembers which
/// (node, array) pairs are *warm* — touched in an earlier phase — so that
/// re-streamed data whose footprint fits in the LLC hits across iterations.
/// This cross-iteration reuse is what produces the paper's super-linear
/// PageRank scaling when per-node partitions shrink into cache.
///
/// It also keeps its per-(node, array) working state across phases, so that
/// integrating a phase costs what the phase touched: nothing here is
/// re-allocated, re-snapshotted or re-scanned per allocation the machine
/// has ever made.
pub struct CostModel {
    machine: Machine,
    config: CostConfig,
    /// Per-(array, node) state, indexed `alloc * nnodes + node` so that new
    /// allocations extend it at the end. Outside [`CostModel::phase_cost`]
    /// only `warm` is set; everything else is zero.
    pairs: Vec<PairState>,
    /// Size of every allocation seen so far (sizes never change).
    alloc_bytes: Vec<u64>,
    /// Per node, the arrays its threads touched in the phase being
    /// integrated; empty between phases.
    touched: Vec<Vec<AllocId>>,
}

/// What the model knows about one (array, node) pair.
#[derive(Clone, Default)]
struct PairState {
    /// The node's LLC has seen this array in an earlier phase.
    warm: bool,
    /// The pair is on this phase's `touched` list.
    seen: bool,
    /// Bytes the node's threads accessed this phase.
    acc_bytes: u64,
    /// The sequential share of `acc_bytes`.
    seq_bytes: u64,
    /// Random transactions this phase.
    rand_cnt: u64,
    /// Cache-line footprint this phase.
    footprint: u64,
    /// Analytic LLC hit rate this phase.
    hit_rate: f64,
}

impl CostModel {
    /// Build a model for a machine with the given constants.
    pub fn new(machine: &Machine, config: CostConfig) -> Self {
        CostModel {
            machine: machine.clone(),
            config,
            pairs: Vec::new(),
            alloc_bytes: Vec::new(),
            touched: vec![Vec::new(); machine.topology().num_nodes()],
        }
    }

    /// Integrate one phase: `threads` pairs each thread's home node with its
    /// access statistics for the phase.
    // Index loops here traverse several parallel arrays at once; iterator
    // chains would obscure the bucket arithmetic.
    #[allow(clippy::needless_range_loop)]
    pub fn phase_cost(&mut self, threads: &[(NodeId, AccessStats)]) -> PhaseCost {
        let machine = self.machine.clone();
        let topo = machine.topology();
        let spec = machine.spec();
        let nnodes = topo.num_nodes();
        let llc = topo.llc_bytes() as f64;
        let max_hit = self.config.max_hit_rate;

        // Make room for allocations made since the last phase.
        let nallocs = machine.num_allocs();
        for id in self.alloc_bytes.len()..nallocs {
            self.alloc_bytes.push(machine.alloc_bytes(id as AllocId));
        }
        self.pairs.resize(nallocs * nnodes, PairState::default());
        let cfg = &self.config;
        let pairs = &mut self.pairs;
        let alloc_bytes = &self.alloc_bytes;

        // Pass 1 — per (node, array): bytes accessed, cache-line footprint
        // (sequential streams occupy their byte span; each random access
        // occupies one 64-byte line), and from those an analytic hit rate:
        //   resident = min(1, LLC / node total footprint)
        //   reuse    = 1 if warm from an earlier phase, else the fraction of
        //              accesses that revisit a resident line (1 - fp/bytes)
        //   hit      = min(max_hit, resident * reuse)
        // Only the pairs some thread touched are visited; everything summed
        // in this pass is an integer, so the visiting order is free.
        for (node, stats) in threads {
            for (a, lines) in stats.iter_arrays() {
                let p = &mut pairs[a as usize * nnodes + *node];
                if !p.seen {
                    p.seen = true;
                    self.touched[*node].push(a);
                }
                for (_, line) in lines {
                    for [seq, rand] in &line.0 {
                        p.acc_bytes += seq.bytes + rand.bytes;
                        p.seq_bytes += seq.bytes;
                        p.rand_cnt += rand.count;
                    }
                }
            }
        }
        // LLC capacity is allocated greedily by access density (accesses
        // per footprint byte): hot small arrays — state bitmaps, value
        // arrays — stay resident ahead of huge cold edge streams, as an LRU
        // cache would keep them. Each array's resident fraction is the share
        // of its footprint that fits in what remains of the node's LLC.
        // `free` is a float running difference, so the order matters: a
        // stable sort by density over the arrays in ascending id.
        let mut order: Vec<AllocId> = Vec::new();
        for n in 0..nnodes {
            self.touched[n].sort_unstable();
            let mut node_fp = 0u64;
            order.clear();
            for &a in &self.touched[n] {
                let p = &mut pairs[a as usize * nnodes + n];
                if p.acc_bytes == 0 {
                    continue;
                }
                p.footprint = (p.seq_bytes + 64 * p.rand_cnt).min(alloc_bytes[a as usize]);
                node_fp += p.footprint;
                order.push(a);
            }
            if node_fp == 0 {
                continue;
            }
            let density = |a: AllocId| {
                let p = &pairs[a as usize * nnodes + n];
                p.acc_bytes as f64 / p.footprint.max(1) as f64
            };
            order.sort_by(|&a, &b| density(b).partial_cmp(&density(a)).unwrap());
            let mut free = llc;
            for &a in &order {
                let p = &mut pairs[a as usize * nnodes + n];
                let fp = p.footprint as f64;
                let resident = if fp <= free {
                    1.0
                } else {
                    (free / fp).max(0.0)
                };
                free = (free - fp).max(0.0);
                let reuse = if p.warm {
                    1.0
                } else {
                    (1.0 - fp / p.acc_bytes as f64).max(0.0)
                };
                p.hit_rate = (resident * reuse).min(max_hit);
            }
        }

        let cycles_to_us = 1.0 / (spec.ghz * 1000.0);
        let mut cost = PhaseCost {
            per_thread_us: vec![0.0; threads.len()],
            per_socket: vec![SocketCost::default(); nnodes],
            ..Default::default()
        };
        let mut dram_bytes = vec![0.0f64; nnodes];
        let mut link_bytes = vec![[0.0f64; MAX_NODES]; MAX_NODES];

        for (t, (node, stats)) in threads.iter().enumerate() {
            let node = *node;
            let mut time = stats.extra_cycles * cycles_to_us;
            for (a, lines) in stats.iter_arrays() {
                let hit = pairs[a as usize * nnodes + node].hit_rate;
                // The float sums below depend on the `(rw, pattern, dst)`
                // order. A destination without a line holds only zeros, which
                // the `b == 0.0` test would skip anyway.
                for rw in 0..2 {
                    for pat in 0..2 {
                        let seq = pat == 0;
                        for &(dst, ref line) in lines {
                            let Tally { bytes, count: c } = line.0[rw][pat];
                            let b = bytes as f64;
                            if b == 0.0 {
                                continue;
                            }
                            let dist = topo.dist(node, dst);
                            let miss_b = b * (1.0 - hit);
                            let hit_b = b * hit;
                            // The destination node's tier selects the table
                            // row; `bw_t(.., Fast)` is exactly `bw(..)`, so
                            // single-tier machines charge bit-identically.
                            let dram_bw = spec.bandwidth.bw_t(seq, dist, topo.tier_of(dst));
                            let llc_bw = if seq {
                                cfg.llc_seq_mbs
                            } else {
                                cfg.llc_rand_mbs
                            };
                            // 1 MB/s = 1 byte/µs.
                            time += miss_b / dram_bw + hit_b / llc_bw;
                            time += c as f64 * cfg.cpu_cycles_per_access * cycles_to_us;
                            dram_bytes[dst] += miss_b;
                            cost.count_by_pattern[pat][dist.is_remote() as usize] += c;
                            let sc = &mut cost.per_socket[node];
                            sc.count[pat][dist.index()] += c;
                            sc.bytes[pat][dist.index()] += b as u64;
                            sc.llc_hit_bytes += hit_b;
                            sc.llc_miss_bytes += miss_b;
                            if rw == 0 {
                                sc.loads += c;
                            } else {
                                sc.stores += c;
                            }
                            if dist.is_remote() {
                                let (lo, hi) = (node.min(dst), node.max(dst));
                                link_bytes[lo][hi] += miss_b;
                                cost.count_remote += c;
                                cost.bytes_remote += b as u64;
                                cost.miss_bytes_remote += miss_b;
                                cost.miss_count_remote += c as f64 * (1.0 - hit);
                            } else {
                                cost.count_local += c;
                                cost.bytes_local += b as u64;
                                cost.miss_bytes_local += miss_b;
                                cost.miss_count_local += c as f64 * (1.0 - hit);
                            }
                        }
                    }
                }
            }
            cost.per_thread_us[t] = time;
            let busy = &mut cost.per_socket[node].busy_us;
            *busy = busy.max(time);
        }

        // Arrays touched this phase are warm for the next one; how much of a
        // warm array actually survives in cache is the greedy residency
        // fraction computed above, so no explicit eviction pass is needed.
        // The phase's working state goes back to zero on the way.
        for n in 0..nnodes {
            for a in self.touched[n].drain(..) {
                let p = &mut pairs[a as usize * nnodes + n];
                *p = PairState {
                    warm: p.warm || p.acc_bytes > 0,
                    ..PairState::default()
                };
            }
        }

        // Debugging aid: POLYMER_COST_DEBUG=1 dumps per-array classified
        // transaction counts for this phase to stderr.
        if std::env::var_os("POLYMER_COST_DEBUG").is_some() {
            let mut per: std::collections::HashMap<String, [[u64; 2]; 2]> = Default::default();
            for (node, stats) in threads {
                for (a, lines) in stats.iter_arrays() {
                    let e = per.entry(machine.alloc_name(a)).or_default();
                    for &(dst, ref line) in lines {
                        let loc = topo.dist(*node, dst).is_remote() as usize;
                        for by_pat in &line.0 {
                            for pat in 0..2 {
                                e[pat][loc] += by_pat[pat].count;
                            }
                        }
                    }
                }
            }
            let mut rows: Vec<_> = per.into_iter().collect();
            rows.sort_by_key(|(_, c)| std::cmp::Reverse(c[1][1]));
            for (name, c) in rows {
                eprintln!(
                    "[cost] {name:24} seqL {:>9} seqR {:>9} randL {:>9} randR {:>9}",
                    c[0][0], c[0][1], c[1][0], c[1][1]
                );
            }
        }

        cost.max_thread_us = cost.per_thread_us.iter().cloned().fold(0.0, f64::max);
        // Congestion folds each node's miss bytes over its *own* controller
        // capacity: slow-tier controllers saturate earlier. For all-fast
        // machines every divisor is `node_dram_mbs`, as before.
        cost.dram_bound_us = dram_bytes
            .iter()
            .enumerate()
            .map(|(n, b)| {
                let mbs = if topo.tier_of(n).is_slow() {
                    cfg.slow_node_dram_mbs
                } else {
                    cfg.node_dram_mbs
                };
                b / mbs
            })
            .fold(0.0, f64::max);
        cost.link_bound_us = link_bytes
            .iter()
            .flatten()
            .map(|b| b / cfg.link_mbs)
            .fold(0.0, f64::max);
        cost.time_us = cost
            .max_thread_us
            .max(cost.dram_bound_us)
            .max(cost.link_bound_us);
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::AccessCtx;
    use crate::policy::AllocPolicy;
    use crate::topology::MachineSpec;

    fn stats_for(
        m: &Machine,
        core: usize,
        f: impl FnOnce(&mut AccessCtx),
    ) -> (NodeId, AccessStats) {
        let mut ctx = AccessCtx::new(m, core);
        f(&mut ctx);
        (ctx.node(), ctx.take_stats())
    }

    #[test]
    fn barrier_costs_match_paper_endpoints() {
        assert!((BarrierKind::Pthread.cost_us(1) - 30.0).abs() < 1.0);
        assert!((BarrierKind::Pthread.cost_us(2) - 570.0).abs() < 5.0);
        assert!((BarrierKind::Pthread.cost_us(8) - 6182.0).abs() < 20.0);
        assert!((BarrierKind::Hierarchical.cost_us(8) - 612.0).abs() < 5.0);
        assert!((BarrierKind::SenseNuma.cost_us(8) - 8.0).abs() < 0.5);
        // Ordering: N < H < P at every socket count above one.
        for s in 2..=8 {
            assert!(BarrierKind::SenseNuma.cost_us(s) < BarrierKind::Hierarchical.cost_us(s));
            assert!(BarrierKind::Hierarchical.cost_us(s) < BarrierKind::Pthread.cost_us(s));
        }
    }

    #[test]
    fn local_sequential_cheaper_than_remote_random() {
        let m = Machine::new(MachineSpec::test2());
        // Big arrays so the LLC hit rate stays low and DRAM dominates.
        let local = m.alloc_array::<u64>("l", 1 << 20, AllocPolicy::OnNode(0));
        let remote = m.alloc_array::<u64>("r", 1 << 20, AllocPolicy::OnNode(1));
        let mut model = CostModel::new(&m, CostConfig::default());

        let seq_local = stats_for(&m, 0, |ctx| {
            for i in 0..100_000 {
                local.get(ctx, i);
            }
        });
        let rand_remote = stats_for(&m, 0, |ctx| {
            let mut i = 1usize;
            for _ in 0..100_000 {
                i = (i.wrapping_mul(2862933555777941757).wrapping_add(3037000493)) % (1 << 20);
                remote.get(ctx, i);
            }
        });
        let c1 = model.phase_cost(&[seq_local]);
        let c2 = model.phase_cost(&[rand_remote]);
        assert!(c1.time_us > 0.0);
        // Same byte volume; random remote must be several times slower.
        assert!(
            c2.time_us > 3.0 * c1.time_us,
            "{} vs {}",
            c2.time_us,
            c1.time_us
        );
        assert!(c2.count_remote > 90_000);
        assert_eq!(c2.count_local, 0);
    }

    #[test]
    fn sequential_remote_beats_random_local() {
        // The paper's key insight, reproduced by the model end-to-end.
        let m = Machine::new(MachineSpec::test2());
        let local = m.alloc_array::<u64>("l", 1 << 21, AllocPolicy::OnNode(0));
        let remote = m.alloc_array::<u64>("r", 1 << 21, AllocPolicy::OnNode(1));
        let mut model = CostModel::new(&m, CostConfig::default());
        let n = 200_000;
        let seq_remote = stats_for(&m, 0, |ctx| {
            for i in 0..n {
                remote.get(ctx, i);
            }
        });
        let rand_local = stats_for(&m, 0, |ctx| {
            let mut i = 1usize;
            for _ in 0..n {
                i = (i.wrapping_mul(2862933555777941757).wrapping_add(3037000493)) % (1 << 21);
                local.get(ctx, i);
            }
        });
        let c_sr = model.phase_cost(&[seq_remote]);
        let c_rl = model.phase_cost(&[rand_local]);
        assert!(
            c_rl.time_us > 1.5 * c_sr.time_us,
            "random local {} should exceed sequential remote {}",
            c_rl.time_us,
            c_sr.time_us
        );
    }

    #[test]
    fn congestion_binds_when_all_threads_hammer_one_node() {
        let m = Machine::new(MachineSpec::intel80());
        let central = m.alloc_array::<u64>("c", 1 << 22, AllocPolicy::Centralized);
        let mut model = CostModel::new(&m, CostConfig::default());
        let mut threads = Vec::new();
        for core in 0..80 {
            threads.push(stats_for(&m, core, |ctx| {
                for i in 0..50_000 {
                    central.get(ctx, i);
                }
            }));
        }
        let c = model.phase_cost(&threads);
        // All traffic funnels into node 0's controller.
        assert!(c.dram_bound_us > c.max_thread_us);
        assert_eq!(c.time_us, c.dram_bound_us.max(c.link_bound_us));
    }

    #[test]
    fn small_working_set_hits_in_llc() {
        let m = Machine::new(MachineSpec::intel80());
        let tiny = m.alloc_array::<u64>("t", 1024, AllocPolicy::OnNode(0));
        let huge = m.alloc_array::<u64>("h", 1 << 24, AllocPolicy::OnNode(0));
        let mut model = CostModel::new(&m, CostConfig::default());
        let n = 100_000;
        let hot = stats_for(&m, 0, |ctx| {
            let mut i = 1usize;
            for _ in 0..n {
                i = (i * 31 + 7) % 1024;
                tiny.get(ctx, i);
            }
        });
        let cold = stats_for(&m, 0, |ctx| {
            let mut i = 1usize;
            for _ in 0..n {
                i = (i.wrapping_mul(2862933555777941757).wrapping_add(3037000493)) % (1 << 24);
                huge.get(ctx, i);
            }
        });
        let c_hot = model.phase_cost(&[hot]);
        let c_cold = model.phase_cost(&[cold]);
        assert!(c_cold.time_us > 2.0 * c_hot.time_us);
    }

    #[test]
    fn slow_tier_bytes_charge_slower() {
        // Same workload against a fast-homed and a slow-homed array on a
        // tiered machine: the slow copy must cost several times more for
        // random accesses (the Optane ÷8 row) and more for sequential too.
        let m = Machine::new(MachineSpec::test2_tiered());
        let fast = m.alloc_array::<u64>("f", 1 << 20, AllocPolicy::OnNode(1));
        let slow = m.alloc_array::<u64>("s", 1 << 20, AllocPolicy::OnNode(2));
        let mut model = CostModel::new(&m, CostConfig::default());
        let n = 100_000;
        let run = |arr: &crate::NumaArray<u64>, rand: bool| {
            stats_for(&m, 0, |ctx| {
                let mut i = 1usize;
                for k in 0..n {
                    let idx = if rand {
                        i = (i.wrapping_mul(2862933555777941757).wrapping_add(3037000493))
                            % (1 << 20);
                        i
                    } else {
                        k
                    };
                    arr.get(ctx, idx);
                }
            })
        };
        let seq_fast = model.phase_cost(&[run(&fast, false)]);
        let seq_slow = model.phase_cost(&[run(&slow, false)]);
        let mut model2 = CostModel::new(&m, CostConfig::default());
        let rand_fast = model2.phase_cost(&[run(&fast, true)]);
        let rand_slow = model2.phase_cost(&[run(&slow, true)]);
        assert!(
            seq_slow.time_us > 1.5 * seq_fast.time_us,
            "seq slow {} vs fast {}",
            seq_slow.time_us,
            seq_fast.time_us
        );
        assert!(
            rand_slow.time_us > 4.0 * rand_fast.time_us,
            "rand slow {} vs fast {}",
            rand_slow.time_us,
            rand_fast.time_us
        );
    }

    #[test]
    fn slow_controller_congests_earlier() {
        // Many threads hammering one node: congestion binds, and the bound
        // is deeper when the hammered node is a slow one.
        let spec = MachineSpec {
            nodes: 4,
            cores_per_node: 4,
            node_tiers: vec![
                crate::TierClass::Fast,
                crate::TierClass::Fast,
                crate::TierClass::Slow,
                crate::TierClass::Slow,
            ],
            ..MachineSpec::test2()
        };
        let m = Machine::new(spec);
        let on_fast = m.alloc_array::<u64>("f", 1 << 22, AllocPolicy::OnNode(1));
        let on_slow = m.alloc_array::<u64>("s", 1 << 22, AllocPolicy::OnNode(2));
        let run = |arr: &crate::NumaArray<u64>| {
            let mut model = CostModel::new(&m, CostConfig::default());
            let threads: Vec<_> = (0..8)
                .map(|core| {
                    stats_for(&m, core, |ctx| {
                        for i in 0..50_000 {
                            arr.get(ctx, i);
                        }
                    })
                })
                .collect();
            model.phase_cost(&threads)
        };
        let cf = run(&on_fast);
        let cs = run(&on_slow);
        assert!(cs.dram_bound_us > 2.0 * cf.dram_bound_us);
    }

    #[test]
    fn accumulate_sums() {
        let mut a = PhaseCost {
            time_us: 1.0,
            per_thread_us: vec![1.0],
            count_local: 5,
            ..Default::default()
        };
        let b = PhaseCost {
            time_us: 2.0,
            per_thread_us: vec![2.0, 3.0],
            count_remote: 7,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.time_us, 3.0);
        assert_eq!(a.per_thread_us, vec![3.0, 3.0]);
        assert_eq!(a.count_local, 5);
        assert_eq!(a.count_remote, 7);
    }
}
