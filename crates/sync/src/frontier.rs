//! Adaptive runtime states: dense bitmap ↔ sparse vertex queues.
//!
//! Most graph algorithms converge asymmetrically (paper Section 5, "Adaptive
//! Data Structures"): early iterations have many active vertices (a bitmap
//! is compact and contention-free to set), late iterations have few (bitmap
//! scans waste a full pass over `V/64` words — the paper measures 92 ms per
//! iteration for X-Stream's dense states on roadUS vs 0.032 ms for
//! Polymer's queues). [`FrontierRepr`] holds either representation over any
//! dense backing store (a flat [`DenseBitmap`] for Ligra, a per-node
//! partitioned table for Polymer); [`should_densify`] is Ligra's switching
//! rule (total active degree vs. `|E| / 20`); [`ThreadQueues`] are the
//! per-thread contention-free queues the sparse representation is built
//! from.
//!
//! Dense frontiers carry their **exact** total out-degree, recorded when the
//! representation is built: the engines feed the apply phase's per-thread
//! degree sums into [`FrontierRepr::rebuild`], so the next iteration's
//! direction choice uses real numbers instead of the "dense frontiers are
//! near-full" `|E|·count/|V|` estimate.

use parking_lot::Mutex;
use polymer_numa::{AccessCtx, AllocPolicy, Machine, NumaAtomicArray};

use crate::bitmap::DenseBitmap;

/// Ligra's density threshold denominator: switch to the dense representation
/// when `active + Σ out-degree(active) > |E| / DENSITY_DENOMINATOR`.
pub const DENSITY_DENOMINATOR: u64 = 20;

/// Ligra's representation-switching rule.
///
/// The threshold is clamped to ≥ 1: plain `num_edges / 20` is integer
/// division, so any graph with fewer than 20 edges would get a threshold of
/// 0 and *every* non-empty frontier would densify — the opposite of what
/// the rule intends for tiny active sets.
#[inline]
pub fn should_densify(active: u64, active_degree_sum: u64, num_edges: u64) -> bool {
    active + active_degree_sum > (num_edges / DENSITY_DENOMINATOR).max(1)
}

/// An active-vertex set in either dense or sparse representation, generic
/// over the dense backing store `D` (a flat bitmap, a partitioned bitmap
/// table, ...). The construction/densify plumbing the engines share lives
/// here; only the engine-specific dense store (and its membership test) stays
/// with the engine.
pub enum FrontierRepr<D> {
    /// Dense: engine-specific bit store; `count` caches the population
    /// count and `degree` the exact total out-degree of the members.
    Dense {
        /// The dense store (one bit per vertex, in engine-specific shape).
        repr: D,
        /// Number of active vertices.
        count: usize,
        /// Exact `Σ out-degree(active)`, recorded at construction.
        degree: u64,
    },
    /// Sparse: explicit vertex ids (unsorted, duplicate-free by
    /// construction).
    Sparse(Vec<u32>),
}

impl<D> FrontierRepr<D> {
    /// A sparse frontier from a vertex list.
    pub fn sparse(items: Vec<u32>) -> Self {
        FrontierRepr::Sparse(items)
    }

    /// A dense frontier from an existing store, its population count, and
    /// the members' exact total out-degree.
    pub fn dense(repr: D, count: usize, degree: u64) -> Self {
        FrontierRepr::Dense {
            repr,
            count,
            degree,
        }
    }

    /// Number of active vertices.
    pub fn len(&self) -> usize {
        match self {
            FrontierRepr::Dense { count, .. } => *count,
            FrontierRepr::Sparse(v) => v.len(),
        }
    }

    /// True when no vertex is active.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sparse vertex list, if sparse.
    pub fn as_sparse(&self) -> Option<&[u32]> {
        match self {
            FrontierRepr::Sparse(v) => Some(v),
            FrontierRepr::Dense { .. } => None,
        }
    }

    /// The dense store, if dense.
    pub fn as_dense(&self) -> Option<&D> {
        match self {
            FrontierRepr::Dense { repr, .. } => Some(repr),
            FrontierRepr::Sparse(_) => None,
        }
    }

    /// Exact total out-degree of the active set: the recorded sum for dense
    /// frontiers, a sum over `degree_of` for sparse ones. This is the input
    /// to the hybrid engines' direction switch.
    pub fn out_degree(&self, mut degree_of: impl FnMut(u32) -> u64) -> u64 {
        match self {
            FrontierRepr::Dense { degree, .. } => *degree,
            FrontierRepr::Sparse(items) => items.iter().map(|&v| degree_of(v)).sum(),
        }
    }

    /// Pick the next iteration's representation from the apply phase's
    /// output (`items` + their exact summed out-`degree`), applying Ligra's
    /// switching rule. `allow_sparse` is false for always-dense
    /// configurations (Polymer's w/o-adaptive-states ablation);
    /// `allow_dense` is false for push-pinned configurations (Ligra's
    /// `force_push`). `make_dense` builds the engine's dense store from the
    /// item list.
    pub fn rebuild(
        items: Vec<u32>,
        degree: u64,
        num_edges: u64,
        allow_sparse: bool,
        allow_dense: bool,
        make_dense: impl FnOnce(&[u32]) -> D,
    ) -> Self {
        let densify = should_densify(items.len() as u64, degree, num_edges);
        if allow_dense && (densify || !allow_sparse) {
            let count = items.len();
            FrontierRepr::Dense {
                repr: make_dense(&items),
                count,
                degree,
            }
        } else {
            FrontierRepr::Sparse(items)
        }
    }
}

/// A canonical, engine-neutral image of an active-vertex set, used by
/// iteration checkpoints (`Checkpoint<V>` in `polymer-api`).
///
/// The snapshot records enough to rebuild the frontier *exactly* — members,
/// recorded total out-degree, and which representation was live — because a
/// resumed run must replay the identical scatter order: for floating-point
/// programs the combine order is the summation order, so a frontier restored
/// with reordered members (or flipped dense↔sparse) would produce
/// bit-different values than the uninterrupted run.
///
/// `tags` carries optional per-member auxiliary state for engines whose
/// frontier is more than a vertex set (Galois stores its priority-bucket
/// keys here); set-shaped engines leave it `None`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrontierSnapshot {
    /// Active vertex ids, in the frontier's live order (ascending for dense
    /// representations, queue order for sparse ones). May contain
    /// duplicates for engines whose worklist is a multiset.
    pub vertices: Vec<u32>,
    /// Exact recorded `Σ out-degree(active)`.
    pub out_degree: u64,
    /// True when the frontier was in its dense representation.
    pub dense: bool,
    /// Optional per-member tags, aligned with `vertices` (e.g. Galois
    /// bucket priorities).
    pub tags: Option<Vec<u64>>,
}

impl FrontierSnapshot {
    /// A sparse-representation snapshot from a member list (live order).
    pub fn sparse(vertices: Vec<u32>, out_degree: u64) -> Self {
        FrontierSnapshot {
            vertices,
            out_degree,
            dense: false,
            tags: None,
        }
    }

    /// A dense-representation snapshot from an ascending member list.
    pub fn dense(vertices: Vec<u32>, out_degree: u64) -> Self {
        FrontierSnapshot {
            vertices,
            out_degree,
            dense: true,
            tags: None,
        }
    }

    /// Attach per-member tags (must align with `vertices`).
    pub fn with_tags(mut self, tags: Vec<u64>) -> Self {
        debug_assert_eq!(tags.len(), self.vertices.len());
        self.tags = Some(tags);
        self
    }
}

/// Checked dense-index → vertex-id conversion. Vertex ids are `u32`
/// workspace-wide; a dense-repr bit index past `u32::MAX` means the caller
/// built a bitmap over more than 2^32 vertices, and silently truncating the
/// id would corrupt the frontier. Engines wrap their bodies in
/// panic-catching guards (`catch_engine_faults` in `polymer-api`), so this
/// surfaces as a typed `EnginePanicked` error rather than silent wrong
/// answers.
#[inline]
fn checked_vid(v: usize) -> u32 {
    u32::try_from(v).expect("dense frontier index exceeds the u32 vertex-id space")
}

/// The flat-bitmap frontier of the NUMA-oblivious engines.
pub type Frontier = FrontierRepr<DenseBitmap>;

impl Frontier {
    /// A dense frontier with every vertex in `0..n` active. `total_degree`
    /// is the graph's edge count (`Σ out-degree(v) = |E|`).
    pub fn all(
        machine: &Machine,
        name: &str,
        n: usize,
        policy: AllocPolicy,
        total_degree: u64,
    ) -> Self {
        let bits = DenseBitmap::new(machine, name, n, policy);
        for v in 0..n {
            bits.set_unaccounted(v);
        }
        Frontier::dense(bits, n, total_degree)
    }

    /// Convert to the dense representation (no-op if already dense);
    /// `degree` is the frontier's exact total out-degree (the engines have
    /// it in hand from the direction switch). The conversion itself models
    /// the construction of the new state array and is unaccounted, as the
    /// paper's switch cost is dominated by the scan it avoids.
    pub fn into_dense(
        self,
        machine: &Machine,
        name: &str,
        n: usize,
        policy: AllocPolicy,
        degree: u64,
    ) -> Self {
        match self {
            f @ FrontierRepr::Dense { .. } => f,
            FrontierRepr::Sparse(items) => {
                let bits = DenseBitmap::new(machine, name, n, policy);
                for &v in &items {
                    bits.set_unaccounted(v as usize);
                }
                Frontier::dense(bits, items.len(), degree)
            }
        }
    }

    /// Convert to the sparse representation (no-op if already sparse).
    pub fn into_sparse(self) -> Self {
        match self {
            f @ FrontierRepr::Sparse(_) => f,
            FrontierRepr::Dense { repr, .. } => {
                FrontierRepr::Sparse(repr.iter_set().map(checked_vid).collect())
            }
        }
    }

    /// Capture this frontier as a [`FrontierSnapshot`], preserving the live
    /// representation and member order. `degree_of` supplies per-vertex
    /// out-degrees for sparse frontiers (dense ones carry their recorded
    /// sum). Unaccounted, like the other representation-maintenance
    /// operations (`into_sparse`, `drain_merged`); checkpoint *value* sweeps
    /// are what the engines charge.
    pub fn to_snapshot(&self, degree_of: impl FnMut(u32) -> u64) -> FrontierSnapshot {
        match self {
            FrontierRepr::Dense { repr, degree, .. } => {
                FrontierSnapshot::dense(repr.iter_set().map(checked_vid).collect(), *degree)
            }
            FrontierRepr::Sparse(items) => {
                let mut degree_of = degree_of;
                let degree = items.iter().map(|&v| degree_of(v)).sum();
                FrontierSnapshot::sparse(items.clone(), degree)
            }
        }
    }

    /// Rebuild a frontier from a snapshot, restoring the recorded
    /// representation exactly (see [`FrontierSnapshot`] on why the
    /// representation must round-trip).
    pub fn from_snapshot(
        machine: &Machine,
        name: &str,
        n: usize,
        policy: AllocPolicy,
        snap: &FrontierSnapshot,
    ) -> Self {
        if snap.dense {
            let bits = DenseBitmap::new(machine, name, n, policy);
            for &v in &snap.vertices {
                bits.set_unaccounted(v as usize);
            }
            Frontier::dense(bits, snap.vertices.len(), snap.out_degree)
        } else {
            Frontier::sparse(snap.vertices.clone())
        }
    }
}

/// Per-thread active-vertex queues: each simulated thread appends to its own
/// queue without contention (paper Section 5: "each thread on different
/// cores will allocate a private queue and append active vertex ID to it").
///
/// The queue payload lives on the host; each push additionally writes
/// through a small per-thread NUMA-placed scratch ring so the (sequential,
/// local) append traffic is charged by the machine model.
pub struct ThreadQueues {
    queues: Vec<Mutex<Vec<u32>>>,
    scratch: Vec<NumaAtomicArray<u32>>,
}

const SCRATCH_RING: usize = 64;

impl ThreadQueues {
    /// Queues for `threads` simulated threads bound node-major to the
    /// machine's cores (thread `t` on core `t`). Scratch rings are placed on
    /// each thread's home node.
    pub fn new(machine: &Machine, threads: usize) -> Self {
        let topo = machine.topology();
        ThreadQueues {
            queues: (0..threads).map(|_| Mutex::new(Vec::new())).collect(),
            scratch: (0..threads)
                .map(|t| {
                    machine.alloc_atomic::<u32>(
                        "stat/queue",
                        SCRATCH_RING,
                        AllocPolicy::OnNode(topo.node_of_core(t)),
                    )
                })
                .collect(),
        }
    }

    /// Append `v` to the calling thread's queue (thread id from `ctx`),
    /// charging one local sequential write.
    pub fn push(&self, ctx: &mut AccessCtx, v: u32) {
        let t = ctx.tid();
        let mut q = self.queues[t].lock();
        let pos = q.len() % SCRATCH_RING;
        q.push(v);
        drop(q);
        self.scratch[t].store(ctx, pos, v);
    }

    /// Total queued entries across threads.
    pub fn total_len(&self) -> usize {
        self.queues.iter().map(|q| q.lock().len()).sum()
    }

    /// Drain all queues into one list (thread-id order) and clear them.
    pub fn drain_merged(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.total_len());
        for q in &self.queues {
            out.append(&mut q.lock());
        }
        out
    }

    /// Drain one thread's queue.
    pub fn drain_thread(&self, tid: usize) -> Vec<u32> {
        std::mem::take(&mut self.queues[tid].lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymer_numa::MachineSpec;

    fn machine() -> Machine {
        Machine::new(MachineSpec::test2())
    }

    #[test]
    fn densify_threshold_matches_ligra() {
        // |E| = 2000 -> threshold 100.
        assert!(!should_densify(10, 80, 2000));
        assert!(should_densify(10, 95, 2000));
        assert!(should_densify(200, 0, 2000));
    }

    #[test]
    fn densify_threshold_clamped_on_tiny_graphs() {
        // Regression: |E| < 20 used to yield a threshold of 0 via integer
        // division, so any non-empty frontier densified. The clamped
        // threshold is 1: a lone degree-0 vertex stays sparse.
        assert!(!should_densify(1, 0, 10));
        assert!(!should_densify(0, 0, 0));
        // Boundary: |E| = 19 (threshold 1) vs |E| = 20 (threshold 1) vs
        // |E| = 40 (threshold 2).
        assert!(should_densify(1, 1, 19));
        assert!(should_densify(1, 1, 20));
        assert!(!should_densify(1, 1, 40));
        assert!(should_densify(2, 1, 40));
    }

    #[test]
    fn tiny_graph_rebuild_keeps_small_frontiers_sparse() {
        let m = machine();
        let mk = |items: &[u32]| {
            let bits = DenseBitmap::new(&m, "stat/f", 8, AllocPolicy::Interleaved);
            for &v in items {
                bits.set_unaccounted(v as usize);
            }
            bits
        };
        // 4-edge graph, single active vertex of degree 0: previously
        // densified (threshold 0), now stays sparse.
        let f = Frontier::rebuild(vec![2], 0, 4, true, true, mk);
        assert!(!matches!(f, Frontier::Dense { .. }));
    }

    #[test]
    fn frontier_conversions_preserve_members() {
        let m = machine();
        let f = Frontier::sparse(vec![3, 7, 100]);
        assert_eq!(f.len(), 3);
        assert!(!matches!(f, Frontier::Dense { .. }));
        let f = f.into_dense(&m, "stat/f", 128, AllocPolicy::Interleaved, 42);
        assert!(matches!(f, Frontier::Dense { .. }));
        assert_eq!(f.len(), 3);
        assert_eq!(
            f.out_degree(|_| unreachable!("dense degree is recorded")),
            42
        );
        let f = f.into_sparse();
        assert_eq!(f.as_sparse(), Some(&[3, 7, 100][..]));
    }

    #[test]
    fn frontier_all_is_full() {
        let m = machine();
        let f = Frontier::all(&m, "stat/all", 100, AllocPolicy::Centralized, 500);
        assert_eq!(f.len(), 100);
        assert!(matches!(f, Frontier::Dense { .. }));
        assert_eq!(f.out_degree(|_| 0), 500);
        assert_eq!(f.to_snapshot(|_| 0).vertices.len(), 100);
        assert!(!f.is_empty());
    }

    #[test]
    fn empty_frontier() {
        let f = Frontier::sparse(vec![]);
        assert!(f.is_empty());
        assert_eq!(f.as_sparse().unwrap().len(), 0);
        assert!(f.as_dense().is_none());
    }

    #[test]
    fn sparse_out_degree_sums_members() {
        let f = Frontier::sparse(vec![1, 2, 3]);
        assert_eq!(f.out_degree(|v| v as u64 * 10), 60);
    }

    #[test]
    fn rebuild_follows_switching_rule() {
        let m = machine();
        let mk = |items: &[u32]| {
            let bits = DenseBitmap::new(&m, "stat/f", 64, AllocPolicy::Interleaved);
            for &v in items {
                bits.set_unaccounted(v as usize);
            }
            bits
        };
        // Below threshold (|E|/20 = 50): stays sparse.
        let f = Frontier::rebuild(vec![1, 2], 10, 1000, true, true, mk);
        assert!(!matches!(f, Frontier::Dense { .. }));
        // Above threshold: densifies, recording the exact degree.
        let f = Frontier::rebuild(vec![1, 2], 90, 1000, true, true, mk);
        assert!(matches!(f, Frontier::Dense { .. }));
        assert_eq!(f.out_degree(|_| 0), 90);
        assert_eq!(f.len(), 2);
        // Sparse disallowed (always-dense ablation): densifies regardless.
        let f = Frontier::rebuild(vec![1], 0, 1000, false, true, mk);
        assert!(matches!(f, Frontier::Dense { .. }));
        // Dense disallowed (push-pinned): stays sparse regardless.
        let f = Frontier::rebuild(vec![1, 2], 900, 1000, true, false, mk);
        assert!(!matches!(f, Frontier::Dense { .. }));
    }

    #[test]
    fn snapshot_round_trips_both_representations() {
        let m = machine();
        // Sparse: member order (not sortedness) must survive the round trip,
        // because it is the resumed run's scatter order.
        let f = Frontier::sparse(vec![9, 3, 7]);
        let snap = f.to_snapshot(|v| v as u64);
        assert!(!snap.dense);
        assert_eq!(snap.vertices, vec![9, 3, 7]);
        assert_eq!(snap.out_degree, 19);
        let back = Frontier::from_snapshot(&m, "stat/f", 16, AllocPolicy::Interleaved, &snap);
        assert!(!matches!(back, Frontier::Dense { .. }));
        assert_eq!(back.as_sparse().unwrap(), &[9, 3, 7]);

        // Dense: members and the recorded degree survive; representation is
        // restored as dense.
        let f = f.into_dense(&m, "stat/f", 16, AllocPolicy::Interleaved, 42);
        let snap = f.to_snapshot(|_| unreachable!("dense degree is recorded"));
        assert!(snap.dense);
        assert_eq!(snap.vertices, vec![3, 7, 9]);
        assert_eq!(snap.out_degree, 42);
        let back = Frontier::from_snapshot(&m, "stat/f", 16, AllocPolicy::Interleaved, &snap);
        assert!(matches!(back, Frontier::Dense { .. }));
        assert_eq!(back.len(), 3);
        assert_eq!(back.out_degree(|_| 0), 42);
        assert_eq!(back.to_snapshot(|_| 0).vertices, vec![3, 7, 9]);
    }

    #[test]
    fn thread_queues_accumulate_and_account() {
        let m = machine();
        let tq = ThreadQueues::new(&m, 2);
        let mut ctx0 = AccessCtx::new(&m, 0);
        let mut ctx1 = AccessCtx::new(&m, 1);
        for v in 0..10 {
            tq.push(&mut ctx0, v);
        }
        tq.push(&mut ctx1, 99);
        assert_eq!(tq.total_len(), 11);
        // Pushes were charged to the machine model.
        assert_eq!(ctx0.take_stats().total_count(), 10);
        let merged = tq.drain_merged();
        assert_eq!(merged.len(), 11);
        assert_eq!(merged[10], 99);
        assert_eq!(tq.total_len(), 0);
    }

    #[test]
    fn thread_queue_pushes_are_sequential_local() {
        let m = machine();
        let tq = ThreadQueues::new(&m, 1);
        let mut ctx = AccessCtx::new(&m, 0);
        for v in 0..20 {
            tq.push(&mut ctx, v);
        }
        let stats = ctx.take_stats();
        // All writes live on node 0 (local to core 0).
        let remote: u64 = stats
            .iter_arrays()
            .flat_map(|(_, s)| s.count.iter().flatten())
            .map(|per_dst| per_dst[1..].iter().sum::<u64>())
            .sum();
        assert_eq!(remote, 0);
    }
}
