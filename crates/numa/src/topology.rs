//! NUMA machine topologies.
//!
//! A topology describes the sockets (memory nodes), the cores attached to each
//! node, and the hop distance between every pair of nodes. Two presets model
//! the paper's evaluation machines:
//!
//! * [`MachineSpec::intel80`] — 8 sockets × 10 cores of Intel Xeon E7-8850
//!   connected by QPI in a *twisted hypercube*, which bounds the distance
//!   between any two sockets to two hops (paper Section 6).
//! * [`MachineSpec::amd64`] — 4 sockets × 2 dies × 8 cores of AMD Opteron
//!   connected by HyperTransport. Dies within a socket are one hop apart, and
//!   only "primary" dies have direct links to other sockets, so some die
//!   pairs are two hops apart (paper Sections 2.2 and 3.3).

use serde::{Deserialize, Serialize};

use crate::shard::SimShardMode;
use crate::tables::{BandwidthTable, DistClass, LatencyTable, TierClass};

/// Identifier of a NUMA memory node (socket or die with its own controller).
pub type NodeId = usize;

/// Simulated page size in bytes, matching the Linux default of 4 KiB that the
/// paper's first-touch discussion assumes.
pub const PAGE_SIZE: usize = 4096;

/// Upper bound on the number of memory nodes any topology may have: 8, the
/// node count of both of the paper's machines and of every spec in this
/// repository. Access statistics keep one fixed-size counter line per node
/// of this width inline in every (context, allocation) pair, so a wider
/// bound would cost every access and every harvest.
pub const MAX_NODES: usize = 8;

/// The interconnect family, which determines how hop distances are derived.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Interconnect {
    /// Intel QPI arranged as a twisted hypercube: distance is the Hamming
    /// distance between socket ids, clamped to two hops.
    TwistedHypercube,
    /// AMD HyperTransport with two dies per socket: intra-socket die pairs
    /// are one hop; inter-socket links join primary (even) dies, so a pair of
    /// nodes is one hop only if at least one endpoint is a primary die of its
    /// socket and the other is the primary die of another socket.
    HyperTransport,
    /// Fully symmetric: every remote node is exactly one hop away. Useful for
    /// unit tests and for modelling small SMP boxes.
    FullMesh,
}

/// A complete description of a simulated NUMA machine.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Human-readable machine name, e.g. `"intel80"`.
    pub name: String,
    /// Number of memory nodes (sockets, or dies on AMD): 1 to
    /// [`MAX_NODES`] = 8. Both of the paper's machines (80-core Intel,
    /// 64-core AMD) and every spec in this repository have at most 8, and
    /// the access counters are sized for exactly that many;
    /// [`NumaTopology::from_spec`] panics on more.
    pub nodes: usize,
    /// Cores attached to each memory node.
    pub cores_per_node: usize,
    /// Interconnect family, from which hop distances are derived.
    pub interconnect: Interconnect,
    /// CPU frequency in GHz; converts cycle latencies to time.
    pub ghz: f64,
    /// Last-level cache per memory node, in bytes (Intel: 24 MiB, AMD: 16 MiB
    /// per the paper's Section 6.3).
    pub llc_bytes: usize,
    /// Load/store latency per distance class (Figure 3(b); reported, not
    /// charged by the cost model).
    pub latency: LatencyTable,
    /// Sequential/random bandwidth per distance class.
    pub bandwidth: BandwidthTable,
    /// Multiplier on charged barrier costs. The experiment harness sets it
    /// to `scaled edges / paper edges` so that synchronization overhead —
    /// which does not shrink with the dataset — keeps the paper's
    /// work-to-synchronization ratio on the scaled-down graphs. Figure
    /// 10(a) reports the unscaled model.
    #[serde(default = "default_barrier_scale")]
    pub barrier_scale: f64,
    /// Multiplier on the effective LLC capacity. The experiment harness sets
    /// it to `scaled vertices / paper vertices`: a 24 MiB cache against a
    /// 334 MB vertex array behaves like a proportionally smaller cache
    /// against our scaled arrays, preserving the residency transitions that
    /// drive the paper's super-linear socket scaling (Section 6.3).
    #[serde(default = "default_barrier_scale")]
    pub llc_scale: f64,
    /// Page size in bytes (power of two). 4 KiB by default; set to 2 MiB to
    /// model transparent huge pages (the "large pages may be harmful on
    /// NUMA" study the paper cites).
    #[serde(default = "default_page_bytes")]
    pub page_bytes: usize,
    /// Usable memory per node in bytes, page-granular. `None` (the default)
    /// models unbounded node memory, which is what the paper's experiments
    /// assume. When set, allocations whose placement would overfill a node
    /// either spill to other nodes or fail, per the machine's
    /// [`crate::SpillPolicy`].
    #[serde(default)]
    pub node_capacity_bytes: Option<u64>,
    /// Memory tier of each node, indexed by [`NodeId`]. Empty (the default,
    /// and what every legacy spec deserializes to) means *all nodes are
    /// fast*, which reproduces the single-tier model bit-for-bit. When
    /// non-empty it must have exactly `nodes` entries and all fast nodes
    /// must precede all slow nodes in the id space — threads bind
    /// node-major, so this convention keeps compute on the fast tier
    /// whenever the thread count fits there.
    #[serde(default)]
    pub node_tiers: Vec<TierClass>,
    /// Usable memory per *fast-tier* node in bytes. Overrides
    /// `node_capacity_bytes` for fast nodes when set; this is the knob the
    /// tiering experiments turn to make the fast tier smaller than the
    /// graph.
    #[serde(default)]
    pub fast_capacity_bytes: Option<u64>,
    /// Usable memory per *slow-tier* node in bytes. Overrides
    /// `node_capacity_bytes` for slow nodes when set; `None` models an
    /// effectively unbounded capacity tier.
    #[serde(default)]
    pub slow_capacity_bytes: Option<u64>,
    /// Run-coalesced access accounting (default on): bulk accessors charge a
    /// whole page-run with one classification. Off, they record element by
    /// element — the scalar reference the equivalence tests and
    /// `bench_hotpath` compare against. Both produce bit-identical
    /// [`crate::AccessStats`]; only host wall-clock differs.
    #[serde(default = "default_true")]
    pub bulk_accounting: bool,
    /// How many host threads share the per-socket shards of
    /// [`crate::SimExecutor::run_phase_split`]: one (`Off`), one per host
    /// core (`Auto`), or at least two (`On`). Simulated results are
    /// bit-identical in every mode.
    #[serde(default)]
    pub shard_mode: SimShardMode,
}

fn default_true() -> bool {
    true
}

fn default_page_bytes() -> usize {
    PAGE_SIZE
}

fn default_barrier_scale() -> f64 {
    1.0
}

impl MachineSpec {
    /// The paper's 80-core Intel Xeon E7-8850 machine: 8 sockets × 10 cores,
    /// 2.0 GHz, QPI twisted hypercube (max 2 hops), 24 MiB LLC per socket.
    /// Latency and bandwidth values are the paper's Figure 3(b) and Figure 4
    /// measurements.
    pub fn intel80() -> Self {
        MachineSpec {
            name: "intel80".to_string(),
            nodes: 8,
            cores_per_node: 10,
            interconnect: Interconnect::TwistedHypercube,
            ghz: 2.0,
            llc_bytes: 24 << 20,
            latency: LatencyTable::intel80(),
            bandwidth: BandwidthTable::intel80(),
            barrier_scale: 1.0,
            llc_scale: 1.0,
            page_bytes: PAGE_SIZE,
            node_capacity_bytes: None,
            node_tiers: Vec::new(),
            fast_capacity_bytes: None,
            slow_capacity_bytes: None,
            bulk_accounting: true,
            shard_mode: SimShardMode::Auto,
        }
    }

    /// The paper's 64-core AMD Opteron machine: 4 sockets × 2 dies × 8 cores,
    /// 16 MiB LLC per die, HyperTransport interconnect. 8 memory nodes total.
    pub fn amd64() -> Self {
        MachineSpec {
            name: "amd64".to_string(),
            nodes: 8,
            cores_per_node: 8,
            interconnect: Interconnect::HyperTransport,
            ghz: 2.1,
            llc_bytes: 16 << 20,
            latency: LatencyTable::amd64(),
            bandwidth: BandwidthTable::amd64(),
            barrier_scale: 1.0,
            llc_scale: 1.0,
            page_bytes: PAGE_SIZE,
            node_capacity_bytes: None,
            node_tiers: Vec::new(),
            fast_capacity_bytes: None,
            slow_capacity_bytes: None,
            bulk_accounting: true,
            shard_mode: SimShardMode::Auto,
        }
    }

    /// A small 2-node machine useful for unit tests and doc examples.
    pub fn test2() -> Self {
        MachineSpec {
            name: "test2".to_string(),
            nodes: 2,
            cores_per_node: 2,
            interconnect: Interconnect::FullMesh,
            ghz: 2.0,
            llc_bytes: 1 << 20,
            latency: LatencyTable::intel80(),
            bandwidth: BandwidthTable::intel80(),
            barrier_scale: 1.0,
            llc_scale: 1.0,
            page_bytes: PAGE_SIZE,
            node_capacity_bytes: None,
            node_tiers: Vec::new(),
            fast_capacity_bytes: None,
            slow_capacity_bytes: None,
            bulk_accounting: true,
            shard_mode: SimShardMode::Auto,
        }
    }

    /// A small tiered sibling of [`MachineSpec::test2`]: 2 fast nodes (with
    /// cores, same tables as `test2`) in front of 2 slow capacity nodes,
    /// full-mesh. Thread counts up to 4 bind node-major onto the fast
    /// nodes only, so compute stays on the fast tier and the slow nodes act
    /// purely as memory — the shape the tier tests assume. Capacities are
    /// unbounded by default; tests cap the fast tier via
    /// [`MachineSpec::with_fast_capacity`].
    pub fn test2_tiered() -> Self {
        let mut s = MachineSpec::test2();
        s.name = "test2_tiered".to_string();
        s.nodes = 4;
        s.node_tiers = vec![
            TierClass::Fast,
            TierClass::Fast,
            TierClass::Slow,
            TierClass::Slow,
        ];
        s
    }

    /// A tiered sibling of [`MachineSpec::intel80`]: the same 8-node twisted
    /// hypercube, with nodes 4–7 reclassified as the slow capacity tier
    /// (Optane-calibrated bandwidth rows). Thread counts up to 40
    /// bind node-major onto the fast nodes 0–3 only, so the slow nodes act
    /// purely as far memory — the shape `bench_tiering` runs.
    pub fn intel80_tiered() -> Self {
        let mut s = MachineSpec::intel80();
        s.name = "intel80_tiered".to_string();
        s.node_tiers = (0..8)
            .map(|n| {
                if n < 4 {
                    TierClass::Fast
                } else {
                    TierClass::Slow
                }
            })
            .collect();
        s
    }

    /// The tier of a node: the `node_tiers` entry, or `Fast` when the spec
    /// is single-tier (empty `node_tiers`).
    #[inline]
    pub fn tier_of(&self, node: NodeId) -> TierClass {
        self.node_tiers
            .get(node)
            .copied()
            .unwrap_or(TierClass::Fast)
    }

    /// Ids of the fast-tier nodes (all nodes on a single-tier spec).
    pub fn fast_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes)
            .filter(|&n| !self.tier_of(n).is_slow())
            .collect()
    }

    /// Ids of the slow-tier nodes (empty on a single-tier spec).
    pub fn slow_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes)
            .filter(|&n| self.tier_of(n).is_slow())
            .collect()
    }

    /// Usable memory of one node in bytes: the per-tier capacity when set,
    /// else the legacy uniform `node_capacity_bytes`, else unbounded.
    pub fn capacity_of(&self, node: NodeId) -> Option<u64> {
        let tier_cap = match self.tier_of(node) {
            TierClass::Fast => self.fast_capacity_bytes,
            TierClass::Slow => self.slow_capacity_bytes,
        };
        tier_cap.or(self.node_capacity_bytes)
    }

    /// A copy of this spec with each fast-tier node's usable memory capped
    /// at `bytes`.
    pub fn with_fast_capacity(mut self, bytes: u64) -> Self {
        self.fast_capacity_bytes = Some(bytes);
        self
    }

    /// Panic unless the tier layout is well-formed: `node_tiers` is empty or
    /// exactly `nodes` long, fast nodes precede slow nodes, and at least one
    /// node is fast. Called by the topology and machine constructors.
    pub fn validate_tiers(&self) {
        if self.node_tiers.is_empty() {
            return;
        }
        assert_eq!(
            self.node_tiers.len(),
            self.nodes,
            "node_tiers length must match node count"
        );
        assert!(
            self.node_tiers.iter().any(|t| !t.is_slow()),
            "at least one node must be fast"
        );
        let first_slow = self
            .node_tiers
            .iter()
            .position(|t| t.is_slow())
            .unwrap_or(self.nodes);
        assert!(
            self.node_tiers[first_slow..].iter().all(|t| t.is_slow()),
            "fast nodes must precede slow nodes in the id space"
        );
    }

    /// A copy of this spec restricted to the first `nodes` memory nodes and
    /// `cores` cores per node, used by the socket-scaling experiments
    /// (Figures 5, 7, 8, 9). Sockets are chosen with minimized total distance
    /// exactly as the paper's footnote 5 describes — for the hypercube this is
    /// the natural prefix of the id space.
    pub fn subset(&self, nodes: usize, cores: usize) -> Self {
        assert!(
            nodes >= 1 && nodes <= self.nodes,
            "node subset out of range"
        );
        assert!(
            cores >= 1 && cores <= self.cores_per_node,
            "core subset out of range"
        );
        let mut s = self.clone();
        s.nodes = nodes;
        s.cores_per_node = cores;
        if !s.node_tiers.is_empty() {
            s.node_tiers.truncate(nodes);
        }
        s
    }

    /// A copy of this spec with run-coalesced accounting on or off.
    pub fn with_bulk_accounting(mut self, enabled: bool) -> Self {
        self.bulk_accounting = enabled;
        self
    }

    /// A copy of this spec with the given host-sharding mode.
    pub fn with_shard_mode(mut self, mode: SimShardMode) -> Self {
        self.shard_mode = mode;
        self
    }

    /// Build the concrete topology (hop matrix etc.) for this spec.
    pub fn topology(&self) -> NumaTopology {
        NumaTopology::from_spec(self)
    }
}

/// The concrete topology of a [`MachineSpec`]: core→node mapping and the
/// distance class between every pair of nodes.
#[derive(Clone, Debug)]
pub struct NumaTopology {
    nodes: usize,
    cores_per_node: usize,
    llc_bytes: usize,
    /// `dist[a * nodes + b]` — distance class between nodes `a` and `b`.
    dist: Vec<DistClass>,
    /// Tier of each node (all `Fast` for single-tier specs).
    tiers: Vec<TierClass>,
}

impl NumaTopology {
    /// Derive the topology from a machine spec.
    pub fn from_spec(spec: &MachineSpec) -> Self {
        assert!(
            spec.nodes >= 1 && spec.nodes <= MAX_NODES,
            "spec `{}` has {} memory nodes; the simulator supports 1 to {MAX_NODES} \
             (the node count of both paper machines)",
            spec.name,
            spec.nodes
        );
        assert!(spec.cores_per_node >= 1, "cores per node");
        spec.validate_tiers();
        let n = spec.nodes;
        let mut dist = vec![DistClass::Local; n * n];
        for a in 0..n {
            for b in 0..n {
                dist[a * n + b] = Self::class_for(spec.interconnect, a, b);
            }
        }
        NumaTopology {
            nodes: n,
            cores_per_node: spec.cores_per_node,
            llc_bytes: ((spec.llc_bytes as f64 * spec.llc_scale) as usize).max(1),
            dist,
            tiers: (0..n).map(|i| spec.tier_of(i)).collect(),
        }
    }

    fn class_for(kind: Interconnect, a: NodeId, b: NodeId) -> DistClass {
        if a == b {
            return DistClass::Local;
        }
        match kind {
            Interconnect::FullMesh => DistClass::OneHop,
            Interconnect::TwistedHypercube => {
                let h = (a ^ b).count_ones().min(2);
                if h <= 1 {
                    DistClass::OneHop
                } else {
                    DistClass::TwoHop
                }
            }
            Interconnect::HyperTransport => {
                let (sa, da) = (a / 2, a % 2);
                let (sb, db) = (b / 2, b % 2);
                if sa == sb {
                    // Two dies of the same multi-chip module.
                    DistClass::OneHopIntra
                } else if da == 0 && db == 0 {
                    // Primary dies have direct HT links to other sockets.
                    DistClass::OneHop
                } else {
                    // Route through at least one primary die.
                    DistClass::TwoHop
                }
            }
        }
    }

    /// Number of memory nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Cores attached to each node.
    pub fn cores_per_node(&self) -> usize {
        self.cores_per_node
    }

    /// Total core count of the machine.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }

    /// Last-level cache capacity of one node, in bytes.
    pub fn llc_bytes(&self) -> usize {
        self.llc_bytes
    }

    /// The memory node a core belongs to. Cores are numbered node-major:
    /// cores `[n * cores_per_node, (n + 1) * cores_per_node)` sit on node `n`.
    pub fn node_of_core(&self, core: usize) -> NodeId {
        assert!(core < self.total_cores(), "core id out of range");
        core / self.cores_per_node
    }

    /// Distance class between two memory nodes.
    pub fn dist(&self, a: NodeId, b: NodeId) -> DistClass {
        self.dist[a * self.nodes + b]
    }

    /// Memory tier of a node.
    #[inline]
    pub fn tier_of(&self, node: NodeId) -> TierClass {
        self.tiers[node]
    }

    /// True when any node sits in the slow tier.
    pub fn is_tiered(&self) -> bool {
        self.tiers.iter().any(|t| t.is_slow())
    }

    /// Hop count (0, 1 or 2) between two nodes, collapsing the AMD
    /// intra/inter one-hop distinction.
    pub fn hops(&self, a: NodeId, b: NodeId) -> usize {
        self.dist(a, b).hops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The largest hop count between any two nodes of `t`.
    fn max_hops(t: &NumaTopology) -> usize {
        let n = t.num_nodes();
        (0..n)
            .flat_map(|a| (0..n).map(move |b| t.hops(a, b)))
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn intel80_shape() {
        let t = MachineSpec::intel80().topology();
        assert_eq!(t.num_nodes(), 8);
        assert_eq!(t.cores_per_node(), 10);
        assert_eq!(t.total_cores(), 80);
        assert_eq!(max_hops(&t), 2);
    }

    #[test]
    fn intel80_twisted_hypercube_distances() {
        let t = MachineSpec::intel80().topology();
        assert_eq!(t.dist(0, 0), DistClass::Local);
        assert_eq!(t.dist(0, 1), DistClass::OneHop);
        assert_eq!(t.dist(0, 2), DistClass::OneHop);
        assert_eq!(t.dist(0, 3), DistClass::TwoHop);
        // The twist bounds 0b000 -> 0b111 to two hops.
        assert_eq!(t.dist(0, 7), DistClass::TwoHop);
        // Symmetry.
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(t.dist(a, b), t.dist(b, a));
            }
        }
    }

    #[test]
    fn amd64_shape_and_die_classes() {
        let t = MachineSpec::amd64().topology();
        assert_eq!(t.num_nodes(), 8);
        assert_eq!(t.total_cores(), 64);
        // Two dies of socket 0.
        assert_eq!(t.dist(0, 1), DistClass::OneHopIntra);
        // Primary die to primary die of another socket: direct HT link.
        assert_eq!(t.dist(0, 2), DistClass::OneHop);
        // Secondary die to secondary die of another socket: two hops.
        assert_eq!(t.dist(1, 3), DistClass::TwoHop);
        assert_eq!(max_hops(&t), 2);
    }

    #[test]
    fn core_to_node_mapping_is_node_major() {
        let t = MachineSpec::intel80().topology();
        assert_eq!(t.node_of_core(0), 0);
        assert_eq!(t.node_of_core(9), 0);
        assert_eq!(t.node_of_core(10), 1);
        assert_eq!(t.node_of_core(79), 7);
    }

    #[test]
    #[should_panic(expected = "core id out of range")]
    fn core_out_of_range_panics() {
        let t = MachineSpec::test2().topology();
        t.node_of_core(99);
    }

    #[test]
    fn subset_restricts_nodes_and_cores() {
        let s = MachineSpec::intel80().subset(4, 5);
        let t = s.topology();
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.total_cores(), 20);
        // Prefix sockets {0..3} of the hypercube stay within 2 hops.
        assert!(max_hops(&t) <= 2);
    }

    #[test]
    #[should_panic(expected = "spec `intel80` has 9 memory nodes; the simulator supports 1 to 8")]
    fn from_spec_rejects_a_ninth_node() {
        let mut spec = MachineSpec::intel80();
        spec.nodes = 9;
        NumaTopology::from_spec(&spec);
    }

    #[test]
    #[should_panic(expected = "node subset out of range")]
    fn subset_rejects_too_many_nodes() {
        MachineSpec::test2().subset(3, 1);
    }

    #[test]
    fn spec_serde_round_trip_with_defaults() {
        let spec = MachineSpec::intel80();
        let json = serde_json::to_string(&spec).unwrap();
        let back: MachineSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.nodes, 8);
        assert_eq!(back.page_bytes, PAGE_SIZE);
        assert_eq!(back.barrier_scale, 1.0);
        // Older specs without the scaling fields still deserialize.
        let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let obj = v.as_object_mut().unwrap();
        obj.remove("barrier_scale");
        obj.remove("llc_scale");
        obj.remove("page_bytes");
        obj.remove("node_capacity_bytes");
        obj.remove("bulk_accounting");
        obj.remove("shard_mode");
        // A retired field is ignored: a spec that still asks for compressed
        // topology parses, and every engine streams raw lists on it.
        obj.insert("compressed_topology", serde_json::Value::Bool(true));
        let legacy: MachineSpec = serde_json::from_value(v).unwrap();
        assert_eq!(legacy.llc_scale, 1.0);
        assert_eq!(legacy.page_bytes, PAGE_SIZE);
        assert_eq!(legacy.node_capacity_bytes, None);
        assert!(legacy.bulk_accounting);
        assert_eq!(legacy.shard_mode, SimShardMode::Auto);
    }

    #[test]
    fn llc_scale_shrinks_effective_cache() {
        let mut spec = MachineSpec::intel80();
        spec.llc_scale = 0.5;
        assert_eq!(spec.topology().llc_bytes(), 12 << 20);
        spec.llc_scale = 1e-9;
        assert!(spec.topology().llc_bytes() >= 1);
    }

    #[test]
    fn test2_tiered_shape() {
        let s = MachineSpec::test2_tiered();
        assert_eq!(s.nodes, 4);
        assert!(s.topology().is_tiered());
        assert_eq!(s.fast_nodes(), vec![0, 1]);
        assert_eq!(s.slow_nodes(), vec![2, 3]);
        let t = s.topology();
        assert_eq!(t.tier_of(0), TierClass::Fast);
        assert_eq!(t.tier_of(3), TierClass::Slow);
        assert!(t.is_tiered());
        // Threads bind node-major: 4 threads land on the two fast nodes.
        assert_eq!(t.node_of_core(3), 1);
    }

    #[test]
    fn single_tier_specs_report_all_fast() {
        let s = MachineSpec::test2();
        assert!(!s.topology().is_tiered());
        assert_eq!(s.fast_nodes(), vec![0, 1]);
        assert!(s.slow_nodes().is_empty());
        assert_eq!(s.tier_of(1), TierClass::Fast);
        assert!(!s.topology().is_tiered());
    }

    #[test]
    fn per_tier_capacity_resolution() {
        let s = MachineSpec {
            slow_capacity_bytes: Some(1 << 24),
            ..MachineSpec::test2_tiered().with_fast_capacity(1 << 16)
        };
        assert_eq!(s.capacity_of(0), Some(1 << 16));
        assert_eq!(s.capacity_of(2), Some(1 << 24));
        // Per-tier caps fall back to the legacy uniform cap when unset.
        let mut s = MachineSpec {
            node_capacity_bytes: Some(1 << 20),
            ..MachineSpec::test2_tiered()
        };
        assert_eq!(s.capacity_of(0), Some(1 << 20));
        assert_eq!(s.capacity_of(3), Some(1 << 20));
        s.fast_capacity_bytes = Some(1 << 12);
        assert_eq!(s.capacity_of(0), Some(1 << 12));
        assert_eq!(s.capacity_of(3), Some(1 << 20));
    }

    #[test]
    #[should_panic(expected = "fast nodes must precede slow nodes")]
    fn slow_before_fast_rejected() {
        let mut s = MachineSpec::test2();
        s.node_tiers = vec![TierClass::Slow, TierClass::Fast];
        s.topology();
    }

    #[test]
    #[should_panic(expected = "at least one node must be fast")]
    fn all_slow_rejected() {
        let mut s = MachineSpec::test2();
        s.node_tiers = vec![TierClass::Slow, TierClass::Slow];
        s.topology();
    }

    #[test]
    fn subset_truncates_tiers() {
        let s = MachineSpec::test2_tiered().subset(2, 2);
        assert!(!s.topology().is_tiered());
        assert_eq!(s.node_tiers.len(), 2);
        let s3 = MachineSpec::test2_tiered().subset(3, 1);
        assert_eq!(s3.slow_nodes(), vec![2]);
    }

    #[test]
    fn legacy_spec_json_defaults_to_single_tier() {
        let json = serde_json::to_string(&MachineSpec::test2()).unwrap();
        let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let obj = v.as_object_mut().unwrap();
        obj.remove("node_tiers");
        obj.remove("fast_capacity_bytes");
        obj.remove("slow_capacity_bytes");
        let legacy: MachineSpec = serde_json::from_value(v).unwrap();
        assert!(legacy.node_tiers.is_empty());
        assert!(!legacy.topology().is_tiered());
        assert_eq!(legacy.capacity_of(0), None);
    }

    #[test]
    fn full_mesh_all_one_hop() {
        let t = MachineSpec::test2().topology();
        assert_eq!(t.dist(0, 1), DistClass::OneHop);
        assert_eq!(max_hops(&t), 1);
    }
}
