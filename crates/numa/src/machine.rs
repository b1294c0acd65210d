//! The simulated machine: topology + allocation registry + memory accounting.
//!
//! A [`Machine`] is a cheaply clonable handle (an `Arc` internally). Arrays
//! allocated from it register their size and placement, so the experiment
//! harness can report peak memory consumption per system and per tag exactly
//! as the paper's Table 5 does (total, with the agent-replica share shown
//! separately).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use polymer_faults::{panic_with, FaultPlan, PolymerError, PolymerResult};

use crate::array::{Atom, NumaArray, NumaAtomicArray};
use crate::policy::{AllocPolicy, PageMap, Placement};
use crate::tables::TierClass;
use crate::topology::{MachineSpec, NodeId, NumaTopology};

/// Identifier of one allocation within a machine; indexes per-array access
/// statistics.
pub type AllocId = u32;

/// What to do when a placement would overfill a capacity-limited node
/// (spec [`MachineSpec::node_capacity_bytes`] or a fault-plan clamp).
///
/// Real `numa_alloc_onnode` falls back to other nodes under pressure unless
/// strict binding is requested; these variants model that spectrum so
/// Table-5-style reports can show graceful degradation instead of an OOM.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpillPolicy {
    /// Strict binding: return [`PolymerError::NodeCapacityExceeded`] instead
    /// of placing any page off its requested node.
    Fail,
    /// Place overflowing pages on the nearest node (by hop distance, ties
    /// broken by node id) that still has room. Mirrors the kernel's zone
    /// fallback order.
    #[default]
    NearestRemote,
    /// Round-robin overflowing pages across all nodes with room, trading
    /// locality for balance.
    Interleave,
    /// Tiered machines: overflow from a full fast node *demotes* to the
    /// nearest slow node with room (ties broken by node id) instead of
    /// spilling sideways within the fast tier; when no slow node has room
    /// (or the machine is single-tier) it falls back to
    /// [`SpillPolicy::NearestRemote`] order. This is the default pressure
    /// valve of the tiered model.
    Demote,
}

/// Result of charging one allocation's pages against node capacities.
struct ChargeOutcome {
    placement: Placement,
    node_bytes: Vec<u64>,
    spilled: u64,
    spilled_by_node: Vec<u64>,
    demoted_by_node: Vec<u64>,
}

/// Live/peak byte counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemUsage {
    /// Bytes currently allocated.
    pub live: u64,
    /// High-water mark of `live` since the last reset.
    pub peak: u64,
}

#[derive(Debug)]
pub(crate) struct AllocInfo {
    pub name: String,
    pub bytes: u64,
    pub live: bool,
    /// Page-granular bytes charged to each node by this allocation, so a
    /// free returns exactly what was taken even after spilling — and, on
    /// tiered machines, even after page migrations.
    pub node_bytes: Vec<u64>,
    /// The shared mutable page→node map, present on tiered machines (every
    /// allocation is registered in the explicit paged form there so its
    /// pages can migrate between tiers) and on spilled allocations.
    pub page_map: Option<Arc<PageMap>>,
    /// Page size of the allocation's placement, in bytes.
    pub page_bytes: u64,
}

pub(crate) struct MachineInner {
    spec: MachineSpec,
    topology: NumaTopology,
    pub(crate) allocs: Mutex<Vec<AllocInfo>>,
    live_bytes: AtomicU64,
    peak_bytes: AtomicU64,
    /// Per-tag (live, peak) bytes; the tag is the allocation name's prefix up
    /// to the first `'/'`, so `"agents/out"` and `"agents/in"` share a tag.
    tags: Mutex<HashMap<String, MemUsage>>,
    /// Page-granular live bytes per node (index = NodeId).
    node_live: Mutex<Vec<u64>>,
    /// Pages that landed off their requested node due to capacity pressure.
    spilled_pages: AtomicU64,
    /// Effective per-node capacity: the spec's (per-tier) limit tightened by
    /// any fault-plan clamp. `None` = unbounded node.
    node_capacity: Vec<Option<u64>>,
    /// Pages that landed on node `n` while off their requested node
    /// (cumulative, alloc-time spills only).
    spilled_by_node: Mutex<Vec<u64>>,
    /// Pages demoted to slow node `n` (alloc-time `Demote` overflow plus
    /// runtime fast→slow migrations). Cumulative.
    demoted_by_node: Mutex<Vec<u64>>,
    /// Pages promoted to fast node `n` (runtime slow→fast migrations).
    /// Cumulative.
    promoted_by_node: Mutex<Vec<u64>>,
    /// Allocation-name tags (prefix before `'/'`) routed to the slow tier
    /// at allocation time — the out-of-core mode's edge-streaming hook.
    slow_tags: Mutex<Vec<String>>,
    /// Promotion policy every new executor on this machine attaches
    /// automatically ([`crate::SimExecutor`] reads it at construction), so
    /// engines inherit tiering without any per-engine logic.
    tier_policy: Mutex<Option<crate::tier::TierPolicy>>,
    spill_policy: SpillPolicy,
    plan: FaultPlan,
}

/// Handle to a simulated NUMA machine. Clones share all state.
#[derive(Clone)]
pub struct Machine {
    pub(crate) inner: Arc<MachineInner>,
}

impl Machine {
    /// Build a machine from a spec, with the default spill policy and no
    /// injected faults.
    pub fn new(spec: MachineSpec) -> Self {
        Self::with_faults(spec, SpillPolicy::default(), FaultPlan::default())
    }

    /// Build a machine with an explicit spill policy and fault-injection
    /// plan. The effective per-node capacity is the tighter of the spec's
    /// [`MachineSpec::node_capacity_bytes`] and the plan's capacity clamp.
    pub fn with_faults(spec: MachineSpec, spill_policy: SpillPolicy, plan: FaultPlan) -> Self {
        let topology = spec.topology();
        let clamp = plan.node_capacity_clamp();
        let node_capacity = (0..topology.num_nodes())
            .map(|n| match (spec.capacity_of(n), clamp) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            })
            .collect();
        let nodes = topology.num_nodes();
        Machine {
            inner: Arc::new(MachineInner {
                spec,
                topology,
                allocs: Mutex::new(Vec::new()),
                live_bytes: AtomicU64::new(0),
                peak_bytes: AtomicU64::new(0),
                tags: Mutex::new(HashMap::new()),
                node_live: Mutex::new(vec![0; nodes]),
                spilled_pages: AtomicU64::new(0),
                node_capacity,
                spilled_by_node: Mutex::new(vec![0; nodes]),
                demoted_by_node: Mutex::new(vec![0; nodes]),
                promoted_by_node: Mutex::new(vec![0; nodes]),
                slow_tags: Mutex::new(Vec::new()),
                tier_policy: Mutex::new(None),
                spill_policy,
                plan,
            }),
        }
    }

    /// The machine's topology.
    pub fn topology(&self) -> &NumaTopology {
        &self.inner.topology
    }

    /// The spec the machine was built from.
    pub fn spec(&self) -> &MachineSpec {
        &self.inner.spec
    }

    /// Effective capacity of one node in bytes, after per-tier resolution
    /// and any fault-plan clamp; `None` means unbounded.
    pub fn capacity_of_node(&self, node: NodeId) -> Option<u64> {
        self.inner.node_capacity[node]
    }

    /// Page-granular live bytes currently charged to each node.
    pub fn node_live_bytes(&self) -> Vec<u64> {
        self.inner.node_live.lock().clone()
    }

    /// Number of pages that landed off their requested node because of
    /// capacity pressure since the machine was built.
    pub fn spilled_pages(&self) -> u64 {
        self.inner.spilled_pages.load(Ordering::Relaxed)
    }

    /// Pages that landed on each node while off their requested node
    /// (cumulative alloc-time spills, indexed by landing node).
    pub fn spilled_pages_by_node(&self) -> Vec<u64> {
        self.inner.spilled_by_node.lock().clone()
    }

    /// Pages demoted to each slow node — alloc-time `Demote` overflow plus
    /// runtime fast→slow migrations. Cumulative, indexed by landing node.
    pub fn demoted_pages_by_node(&self) -> Vec<u64> {
        self.inner.demoted_by_node.lock().clone()
    }

    /// Pages promoted to each fast node by runtime slow→fast migrations.
    /// Cumulative, indexed by landing node.
    pub fn promoted_pages_by_node(&self) -> Vec<u64> {
        self.inner.promoted_by_node.lock().clone()
    }

    /// True when any node of this machine sits in the slow tier.
    pub fn is_tiered(&self) -> bool {
        self.inner.topology.is_tiered()
    }

    /// Route allocations whose tag (name prefix before `'/'`) is in `tags`
    /// to the slow tier, pages interleaved across the slow nodes. This is
    /// the out-of-core mode's hook: registering `"topo"` before loading a
    /// graph streams the edge arrays from the capacity tier while vertex
    /// state keeps the fast tier. The wildcard tag `"*"` routes every
    /// allocation (the slow-only ablation). No effect on single-tier
    /// machines. Affects only allocations made after the call.
    pub fn route_tags_to_slow(&self, tags: &[&str]) {
        let mut slow = self.inner.slow_tags.lock();
        for t in tags {
            if !slow.iter().any(|s| s == t) {
                slow.push(t.to_string());
            }
        }
    }

    /// Set the promotion policy every subsequently created executor on this
    /// machine attaches automatically (a fresh [`crate::TierRuntime`] each).
    /// `None` (the default) freezes placements — static tiering. Ignored by
    /// executors on single-tier machines.
    pub fn set_tier_policy(&self, policy: Option<crate::tier::TierPolicy>) {
        *self.inner.tier_policy.lock() = policy;
    }

    /// The promotion policy configured via [`Machine::set_tier_policy`].
    pub fn tier_policy(&self) -> Option<crate::tier::TierPolicy> {
        *self.inner.tier_policy.lock()
    }

    /// Allocate a zero-initialized plain (read-mostly) array. Panics on
    /// capacity exhaustion or injected faults; use
    /// [`Machine::try_alloc_array`] on fallible paths.
    pub fn alloc_array<T: Copy + Default>(
        &self,
        name: &str,
        len: usize,
        policy: AllocPolicy,
    ) -> NumaArray<T> {
        self.try_alloc_array(name, len, policy)
            .unwrap_or_else(|e| panic_with(e))
    }

    /// Allocate a plain array initialized element-by-element. Initialization
    /// models the construction stage and is not charged to simulated time.
    pub fn alloc_array_with<T: Copy>(
        &self,
        name: &str,
        len: usize,
        policy: AllocPolicy,
        init: impl FnMut(usize) -> T,
    ) -> NumaArray<T> {
        self.try_alloc_array_with(name, len, policy, init)
            .unwrap_or_else(|e| panic_with(e))
    }

    /// Allocate an atomic array (mutable shared data such as the `next`
    /// application-data array or runtime-state bitmaps), zero-initialized.
    pub fn alloc_atomic<T: Atom>(
        &self,
        name: &str,
        len: usize,
        policy: AllocPolicy,
    ) -> NumaAtomicArray<T> {
        self.try_alloc_atomic(name, len, policy)
            .unwrap_or_else(|e| panic_with(e))
    }

    /// Allocate an atomic array initialized element-by-element.
    pub fn alloc_atomic_with<T: Atom>(
        &self,
        name: &str,
        len: usize,
        policy: AllocPolicy,
        init: impl FnMut(usize) -> T,
    ) -> NumaAtomicArray<T> {
        self.try_alloc_atomic_with(name, len, policy, init)
            .unwrap_or_else(|e| panic_with(e))
    }

    /// Fallible counterpart of [`Machine::alloc_array`].
    pub fn try_alloc_array<T: Copy + Default>(
        &self,
        name: &str,
        len: usize,
        policy: AllocPolicy,
    ) -> PolymerResult<NumaArray<T>> {
        self.try_alloc_array_with(name, len, policy, |_| T::default())
    }

    /// Fallible counterpart of [`Machine::alloc_array_with`]. Returns
    /// [`PolymerError::AllocFailed`] when the fault plan fails this
    /// allocation, or [`PolymerError::NodeCapacityExceeded`] when capacity
    /// accounting cannot place every page.
    pub fn try_alloc_array_with<T: Copy>(
        &self,
        name: &str,
        len: usize,
        policy: AllocPolicy,
        mut init: impl FnMut(usize) -> T,
    ) -> PolymerResult<NumaArray<T>> {
        let (id, placement) = self.try_register::<T>(name, len, &policy)?;
        let data: Box<[T]> = (0..len).map(&mut init).collect();
        Ok(NumaArray::new(self.clone(), id, placement, data))
    }

    /// Fallible counterpart of [`Machine::alloc_atomic`].
    pub fn try_alloc_atomic<T: Atom>(
        &self,
        name: &str,
        len: usize,
        policy: AllocPolicy,
    ) -> PolymerResult<NumaAtomicArray<T>> {
        self.try_alloc_atomic_with(name, len, policy, |_| T::zero())
    }

    /// Fallible counterpart of [`Machine::alloc_atomic_with`].
    pub fn try_alloc_atomic_with<T: Atom>(
        &self,
        name: &str,
        len: usize,
        policy: AllocPolicy,
        mut init: impl FnMut(usize) -> T,
    ) -> PolymerResult<NumaAtomicArray<T>> {
        let (id, placement) = self.try_register::<T>(name, len, &policy)?;
        let data: Box<[T::Repr]> = (0..len).map(|i| T::new_atomic(init(i))).collect();
        Ok(NumaAtomicArray::new(self.clone(), id, placement, data))
    }

    fn try_register<T>(
        &self,
        name: &str,
        len: usize,
        policy: &AllocPolicy,
    ) -> PolymerResult<(AllocId, Placement)> {
        if self.inner.plan.should_fail_alloc() {
            return Err(PolymerError::AllocFailed {
                name: name.to_string(),
                index: self.inner.plan.failed_alloc_index(),
            });
        }
        let elem = std::mem::size_of::<T>();
        let mut placement = Placement::resolve_paged(
            policy,
            len,
            elem.max(1),
            self.topology().num_nodes(),
            self.inner.spec.page_bytes,
        );
        let bytes = (len * elem) as u64;
        let tiered = self.inner.topology.is_tiered();
        if tiered {
            // Out-of-core routing: slow-tagged allocations interleave their
            // pages across the slow nodes regardless of requested policy
            // (`"*"` routes every tag — the slow-only ablation).
            let tag = Self::tag_of(name);
            let routed_slow = self
                .inner
                .slow_tags
                .lock()
                .iter()
                .any(|t| t == "*" || *t == tag);
            if routed_slow {
                let slow: Vec<NodeId> = self.inner.spec.slow_nodes();
                if !slow.is_empty() {
                    let pages = placement.num_pages(bytes as usize);
                    let map: Vec<u8> = (0..pages).map(|p| slow[p % slow.len()] as u8).collect();
                    placement =
                        Placement::from_page_map(map, placement.page_bytes().trailing_zeros());
                }
            } else if matches!(policy, AllocPolicy::Interleaved) {
                // Tier preference: node-agnostic interleaving spreads across
                // the fast prefix only — the slow tier is reached through
                // tag routing, demotion spill, or an explicit node request.
                let fast = self.inner.spec.fast_nodes().len();
                placement = Placement::resolve_paged(
                    policy,
                    len,
                    elem.max(1),
                    fast,
                    self.inner.spec.page_bytes,
                );
            }
            // Tiered machines register everything in the explicit paged
            // form so the promotion/demotion layer can migrate pages later.
            placement = placement.to_paged(bytes as usize);
        }
        let outcome = self.charge_nodes(name, bytes, placement)?;
        let ChargeOutcome {
            placement,
            node_bytes,
            spilled,
            spilled_by_node,
            demoted_by_node,
        } = outcome;
        if spilled > 0 {
            self.inner
                .spilled_pages
                .fetch_add(spilled, Ordering::Relaxed);
            let mut by = self.inner.spilled_by_node.lock();
            for (n, c) in spilled_by_node.iter().enumerate() {
                by[n] += c;
            }
        }
        if demoted_by_node.iter().any(|&c| c > 0) {
            let mut by = self.inner.demoted_by_node.lock();
            for (n, c) in demoted_by_node.iter().enumerate() {
                by[n] += c;
            }
        }
        let page_map = placement.page_map().cloned();
        let mut allocs = self.inner.allocs.lock();
        let id = allocs.len() as AllocId;
        allocs.push(AllocInfo {
            name: name.to_string(),
            bytes,
            live: true,
            node_bytes,
            page_map,
            page_bytes: placement.page_bytes() as u64,
        });
        drop(allocs);
        self.on_alloc(name, bytes);
        Ok((id, placement))
    }

    /// Charge an allocation's pages against per-node capacity, spilling pages
    /// to other nodes per the spill policy when the requested node is full.
    /// All-or-nothing: on error, no page is charged.
    fn charge_nodes(
        &self,
        name: &str,
        bytes: u64,
        placement: Placement,
    ) -> PolymerResult<ChargeOutcome> {
        let nodes = self.topology().num_nodes();
        let page_bytes = placement.page_bytes() as u64;
        let wanted = placement.page_nodes(bytes as usize);
        let mut charged = vec![0u64; nodes];
        let mut node_live = self.inner.node_live.lock();

        let caps = &self.inner.node_capacity;
        if caps.iter().all(|c| c.is_none()) {
            for &n in &wanted {
                charged[n] += page_bytes;
                node_live[n] += page_bytes;
            }
            return Ok(ChargeOutcome {
                placement,
                node_bytes: charged,
                spilled: 0,
                spilled_by_node: vec![0; nodes],
                demoted_by_node: vec![0; nodes],
            });
        }

        // Place page by page against a working copy so a failure midway
        // leaves the shared accounting untouched.
        let mut work = node_live.clone();
        let mut map = Vec::with_capacity(wanted.len());
        let mut spilled = 0u64;
        let mut spilled_by_node = vec![0u64; nodes];
        let mut demoted_by_node = vec![0u64; nodes];
        let mut rr = 0usize;
        for &want in &wanted {
            let fits = |w: &[u64], n: NodeId| match caps[n] {
                Some(cap) => w[n] + page_bytes <= cap,
                None => true,
            };
            let chosen = if fits(&work, want) {
                Some(want)
            } else {
                match self.inner.spill_policy {
                    SpillPolicy::Fail => None,
                    SpillPolicy::NearestRemote => {
                        let mut cands: Vec<NodeId> = (0..nodes).filter(|&n| n != want).collect();
                        cands.sort_by_key(|&n| (self.topology().hops(want, n), n));
                        cands.into_iter().find(|&n| fits(&work, n))
                    }
                    SpillPolicy::Interleave => {
                        let mut found = None;
                        for k in 0..nodes {
                            let n = (rr + k) % nodes;
                            if fits(&work, n) {
                                rr = (n + 1) % nodes;
                                found = Some(n);
                                break;
                            }
                        }
                        found
                    }
                    SpillPolicy::Demote => {
                        // Prefer the nearest slow node with room; fall back
                        // to nearest-remote order over all nodes.
                        let topo = self.topology();
                        let mut slow: Vec<NodeId> = (0..nodes)
                            .filter(|&n| n != want && topo.tier_of(n).is_slow())
                            .collect();
                        slow.sort_by_key(|&n| (topo.hops(want, n), n));
                        slow.into_iter().find(|&n| fits(&work, n)).or_else(|| {
                            let mut cands: Vec<NodeId> =
                                (0..nodes).filter(|&n| n != want).collect();
                            cands.sort_by_key(|&n| (topo.hops(want, n), n));
                            cands.into_iter().find(|&n| fits(&work, n))
                        })
                    }
                }
            };
            let Some(n) = chosen else {
                return Err(PolymerError::NodeCapacityExceeded {
                    node: want,
                    requested_bytes: bytes,
                    capacity_bytes: caps[want].unwrap_or(u64::MAX),
                    name: name.to_string(),
                });
            };
            work[n] += page_bytes;
            charged[n] += page_bytes;
            if n != want {
                spilled += 1;
                spilled_by_node[n] += 1;
                let topo = self.topology();
                if topo.tier_of(n).is_slow() && !topo.tier_of(want).is_slow() {
                    demoted_by_node[n] += 1;
                }
            }
            map.push(n as u8);
        }
        *node_live = work;
        let placement = if spilled > 0 {
            Placement::from_page_map(map, page_bytes.trailing_zeros())
        } else {
            placement
        };
        Ok(ChargeOutcome {
            placement,
            node_bytes: charged,
            spilled,
            spilled_by_node,
            demoted_by_node,
        })
    }

    /// Move one page of a live allocation to a new home node, respecting the
    /// target node's capacity. Returns the page's previous home on success
    /// (`None` when the page already lives on `to`, the target is full, or
    /// the allocation is not migratable). Promotion (slow→fast) and demotion
    /// (fast→slow) counters are updated; the *caller* — the promotion policy
    /// layer in [`crate::tier`] — is responsible for charging the migration
    /// as memory traffic so tiering overhead stays visible in `PhaseCost`.
    ///
    /// Only called between phases: the shared page map must not change while
    /// a phase's accesses are being recorded.
    pub fn migrate_page(&self, id: AllocId, page: usize, to: NodeId) -> Option<NodeId> {
        let (map, page_bytes) = {
            let allocs = self.inner.allocs.lock();
            let info = allocs.get(id as usize)?;
            if !info.live {
                return None;
            }
            (info.page_map.clone()?, info.page_bytes)
        };
        if page >= map.len() || to >= self.topology().num_nodes() {
            return None;
        }
        let from = map.get(page);
        if from == to {
            return None;
        }
        {
            let mut node_live = self.inner.node_live.lock();
            if let Some(cap) = self.inner.node_capacity[to] {
                if node_live[to] + page_bytes > cap {
                    return None;
                }
            }
            node_live[from] = node_live[from].saturating_sub(page_bytes);
            node_live[to] += page_bytes;
        }
        map.set(page, to);
        {
            let mut allocs = self.inner.allocs.lock();
            let info = &mut allocs[id as usize];
            info.node_bytes[from] = info.node_bytes[from].saturating_sub(page_bytes);
            info.node_bytes[to] += page_bytes;
        }
        let topo = self.topology();
        let (ft, tt) = (topo.tier_of(from), topo.tier_of(to));
        if ft.is_slow() && tt == TierClass::Fast {
            self.inner.promoted_by_node.lock()[to] += 1;
        } else if ft == TierClass::Fast && tt.is_slow() {
            self.inner.demoted_by_node.lock()[to] += 1;
        }
        Some(from)
    }

    /// The shared page map and page size of a live allocation, when it is in
    /// the migratable explicit-paged form (always true on tiered machines).
    pub fn page_map_of(&self, id: AllocId) -> Option<(Arc<PageMap>, u64)> {
        let allocs = self.inner.allocs.lock();
        let info = allocs.get(id as usize)?;
        if !info.live {
            return None;
        }
        Some((info.page_map.clone()?, info.page_bytes))
    }

    pub(crate) fn on_alloc(&self, name: &str, bytes: u64) {
        let live = self.inner.live_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.inner.peak_bytes.fetch_max(live, Ordering::Relaxed);
        let tag = Self::tag_of(name);
        let mut tags = self.inner.tags.lock();
        let u = tags.entry(tag).or_default();
        u.live += bytes;
        u.peak = u.peak.max(u.live);
    }

    pub(crate) fn on_free(&self, id: AllocId, name: &str, bytes: u64) {
        self.inner.live_bytes.fetch_sub(bytes, Ordering::Relaxed);
        let mut freed_nodes = Vec::new();
        if let Some(info) = self.inner.allocs.lock().get_mut(id as usize) {
            info.live = false;
            freed_nodes = std::mem::take(&mut info.node_bytes);
        }
        if !freed_nodes.is_empty() {
            let mut node_live = self.inner.node_live.lock();
            for (n, c) in freed_nodes.into_iter().enumerate() {
                node_live[n] = node_live[n].saturating_sub(c);
            }
        }
        let tag = Self::tag_of(name);
        if let Some(u) = self.inner.tags.lock().get_mut(&tag) {
            u.live = u.live.saturating_sub(bytes);
        }
    }

    fn tag_of(name: &str) -> String {
        name.split('/').next().unwrap_or(name).to_string()
    }

    /// Total live and peak bytes across all allocations.
    pub fn mem_usage(&self) -> MemUsage {
        MemUsage {
            live: self.inner.live_bytes.load(Ordering::Relaxed),
            peak: self.inner.peak_bytes.load(Ordering::Relaxed),
        }
    }

    /// Live/peak bytes of one tag (allocation-name prefix before `'/'`).
    pub fn tag_usage(&self, tag: &str) -> MemUsage {
        self.inner.tags.lock().get(tag).copied().unwrap_or_default()
    }

    /// All tags with their usage, sorted by tag name.
    pub fn tag_usages(&self) -> Vec<(String, MemUsage)> {
        let mut v: Vec<_> = self
            .inner
            .tags
            .lock()
            .iter()
            .map(|(k, u)| (k.clone(), *u))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Number of allocations ever registered (live or freed).
    pub fn num_allocs(&self) -> usize {
        self.inner.allocs.lock().len()
    }

    /// Size in bytes of an allocation (live or freed).
    pub fn alloc_bytes(&self, id: AllocId) -> u64 {
        self.inner.allocs.lock()[id as usize].bytes
    }

    /// Name of an allocation.
    pub fn alloc_name(&self, id: AllocId) -> String {
        self.inner.allocs.lock()[id as usize].name.clone()
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("spec", &self.inner.spec.name)
            .field("nodes", &self.topology().num_nodes())
            .field("cores", &self.topology().total_cores())
            .field("mem", &self.mem_usage())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::MachineSpec;

    #[test]
    fn alloc_tracks_live_and_peak() {
        let m = Machine::new(MachineSpec::test2());
        let a = m.alloc_array::<u64>("a", 1000, AllocPolicy::Interleaved);
        assert_eq!(m.mem_usage().live, 8000);
        let b = m.alloc_array::<u32>("b", 1000, AllocPolicy::Centralized);
        assert_eq!(m.mem_usage().live, 12000);
        assert_eq!(m.mem_usage().peak, 12000);
        drop(a);
        assert_eq!(m.mem_usage().live, 4000);
        assert_eq!(m.mem_usage().peak, 12000);
        drop(b);
        assert_eq!(m.mem_usage().live, 0);
    }

    #[test]
    fn tag_accounting_groups_by_prefix() {
        let m = Machine::new(MachineSpec::test2());
        let _a = m.alloc_array::<u64>("agents/out", 100, AllocPolicy::OnNode(0));
        let _b = m.alloc_array::<u64>("agents/in", 100, AllocPolicy::OnNode(1));
        let _c = m.alloc_array::<u64>("topo/vertices", 100, AllocPolicy::OnNode(0));
        assert_eq!(m.tag_usage("agents").live, 1600);
        assert_eq!(m.tag_usage("topo").live, 800);
        assert_eq!(m.tag_usage("missing"), MemUsage::default());
    }

    #[test]
    fn alloc_with_initializer() {
        let m = Machine::new(MachineSpec::test2());
        let a = m.alloc_array_with("sq", 10, AllocPolicy::OnNode(0), |i| (i * i) as u64);
        assert_eq!(a.raw()[3], 9);
        assert_eq!(m.alloc_name(0), "sq");
        assert_eq!(m.alloc_bytes(0), 80);
    }

    use crate::topology::PAGE_SIZE;
    use polymer_faults::{FaultPlan, PolymerError};

    const PAGE: u64 = PAGE_SIZE as u64;

    fn capped(pages: u64, spill: SpillPolicy) -> Machine {
        Machine::with_faults(
            MachineSpec {
                node_capacity_bytes: Some(pages * PAGE),
                ..MachineSpec::test2()
            },
            spill,
            FaultPlan::default(),
        )
    }

    #[test]
    fn fail_policy_rejects_overfull_node() {
        let m = capped(2, SpillPolicy::Fail);
        // 3 pages requested on node 0 against a 2-page cap.
        let err = m
            .try_alloc_array::<u8>("big", 3 * PAGE as usize, AllocPolicy::OnNode(0))
            .unwrap_err();
        match err {
            PolymerError::NodeCapacityExceeded {
                node,
                capacity_bytes,
                ..
            } => {
                assert_eq!(node, 0);
                assert_eq!(capacity_bytes, 2 * PAGE);
            }
            other => panic!("unexpected error: {other:?}"),
        }
        // All-or-nothing: the failed allocation charged no node.
        assert_eq!(m.node_live_bytes(), vec![0, 0]);
        assert_eq!(m.spilled_pages(), 0);
    }

    #[test]
    fn nearest_remote_spills_and_uncharges_on_free() {
        let m = capped(2, SpillPolicy::NearestRemote);
        let a = m
            .try_alloc_array::<u8>("a", 4 * PAGE as usize, AllocPolicy::OnNode(0))
            .unwrap();
        // 2 pages fit on node 0; 2 spill to node 1.
        assert_eq!(m.spilled_pages(), 2);
        assert_eq!(m.node_live_bytes(), vec![2 * PAGE, 2 * PAGE]);
        assert_eq!(a.node_of(0), 0);
        assert_eq!(a.node_of((2 * PAGE) as usize), 1);
        assert_eq!(a.node_of((3 * PAGE) as usize), 1);
        drop(a);
        assert_eq!(m.node_live_bytes(), vec![0, 0]);
        // The spill counter is cumulative, not live.
        assert_eq!(m.spilled_pages(), 2);
    }

    #[test]
    fn spill_fails_when_no_node_has_room() {
        let m = capped(2, SpillPolicy::NearestRemote);
        // 5 pages cannot fit in 2 nodes × 2 pages.
        let err = m
            .try_alloc_array::<u8>("big", 5 * PAGE as usize, AllocPolicy::OnNode(0))
            .unwrap_err();
        assert!(matches!(err, PolymerError::NodeCapacityExceeded { .. }));
        assert_eq!(m.node_live_bytes(), vec![0, 0]);
    }

    #[test]
    fn interleave_spreads_spilled_pages() {
        let spec = MachineSpec {
            nodes: 4,
            cores_per_node: 1,
            node_capacity_bytes: Some(2 * PAGE),
            ..MachineSpec::test2()
        };
        let m = Machine::with_faults(spec, SpillPolicy::Interleave, FaultPlan::default());
        // 6 pages on node 0: 2 fit, 4 interleave over the other nodes.
        let a = m
            .try_alloc_array::<u8>("a", 6 * PAGE as usize, AllocPolicy::OnNode(0))
            .unwrap();
        assert_eq!(m.spilled_pages(), 4);
        let live = m.node_live_bytes();
        assert_eq!(live.iter().sum::<u64>(), 6 * PAGE);
        assert_eq!(live[0], 2 * PAGE);
        assert!(live[1..].iter().all(|&b| b <= 2 * PAGE));
        drop(a);
    }

    #[test]
    fn fault_plan_fails_nth_allocation() {
        let plan = FaultPlan::new().fail_nth_alloc(1);
        let m = Machine::with_faults(MachineSpec::test2(), SpillPolicy::default(), plan);
        let _a = m
            .try_alloc_array::<u64>("first", 16, AllocPolicy::Interleaved)
            .unwrap();
        let err = m
            .try_alloc_array::<u64>("second", 16, AllocPolicy::Interleaved)
            .unwrap_err();
        assert_eq!(
            err,
            PolymerError::AllocFailed {
                name: "second".to_string(),
                index: 1
            }
        );
        // Later allocations proceed normally.
        let _c = m
            .try_alloc_array::<u64>("third", 16, AllocPolicy::Interleaved)
            .unwrap();
    }

    #[test]
    fn capacity_clamp_comes_from_plan_or_spec() {
        let plan = FaultPlan::new().clamp_node_capacity(3 * PAGE);
        let spec = MachineSpec {
            node_capacity_bytes: Some(2 * PAGE),
            ..MachineSpec::test2()
        };
        let m = Machine::with_faults(spec, SpillPolicy::Fail, plan.clone());
        assert_eq!(m.capacity_of_node(0), Some(2 * PAGE));
        let m = Machine::with_faults(MachineSpec::test2(), SpillPolicy::Fail, plan);
        assert_eq!(m.capacity_of_node(0), Some(3 * PAGE));
        let m = Machine::new(MachineSpec::test2());
        assert_eq!(m.capacity_of_node(0), None);
    }

    #[test]
    fn demote_overflow_prefers_slow_nodes() {
        // test2_tiered: fast {0,1} capped at 2 pages, slow {2,3} unbounded.
        let spec = MachineSpec::test2_tiered().with_fast_capacity(2 * PAGE);
        let m = Machine::with_faults(spec, SpillPolicy::Demote, FaultPlan::default());
        let a = m
            .try_alloc_array::<u8>("a", 5 * PAGE as usize, AllocPolicy::OnNode(0))
            .unwrap();
        // 2 pages fit on fast node 0; 3 demote to slow node 2 (nearest slow,
        // full mesh ties broken by id) — never sideways to fast node 1.
        assert_eq!(m.node_live_bytes(), vec![2 * PAGE, 0, 3 * PAGE, 0]);
        assert_eq!(m.spilled_pages(), 3);
        assert_eq!(m.spilled_pages_by_node(), vec![0, 0, 3, 0]);
        assert_eq!(m.demoted_pages_by_node(), vec![0, 0, 3, 0]);
        assert_eq!(a.node_of((3 * PAGE) as usize), 2);
        drop(a);
        assert_eq!(m.node_live_bytes(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn demote_falls_back_to_nearest_remote_when_slow_full() {
        let spec = MachineSpec {
            slow_capacity_bytes: Some(PAGE),
            ..MachineSpec::test2_tiered().with_fast_capacity(2 * PAGE)
        };
        let m = Machine::with_faults(spec, SpillPolicy::Demote, FaultPlan::default());
        let _a = m
            .try_alloc_array::<u8>("a", 6 * PAGE as usize, AllocPolicy::OnNode(0))
            .unwrap();
        // 2 on node 0, slow nodes take 1 each, remaining 2 fall back to the
        // nearest node with room: fast node 1.
        assert_eq!(m.node_live_bytes(), vec![2 * PAGE, 2 * PAGE, PAGE, PAGE]);
        assert_eq!(m.demoted_pages_by_node(), vec![0, 0, 1, 1]);
    }

    #[test]
    fn demote_on_single_tier_machine_acts_like_nearest_remote() {
        let m = capped(2, SpillPolicy::Demote);
        let _a = m
            .try_alloc_array::<u8>("a", 4 * PAGE as usize, AllocPolicy::OnNode(0))
            .unwrap();
        assert_eq!(m.node_live_bytes(), vec![2 * PAGE, 2 * PAGE]);
        assert_eq!(m.demoted_pages_by_node(), vec![0, 0]);
    }

    #[test]
    fn tiered_machine_registers_migratable_placements() {
        let m = Machine::new(MachineSpec::test2_tiered());
        let a = m.alloc_array::<u8>("a", 4 * PAGE as usize, AllocPolicy::OnNode(0));
        let (map, pb) = m.page_map_of(0).expect("tiered alloc is paged");
        assert_eq!(map.len(), 4);
        assert_eq!(pb, PAGE);
        assert_eq!(a.node_of(0), 0);
        // Single-tier machines keep the compact placement forms.
        let m1 = Machine::new(MachineSpec::test2());
        let _b = m1.alloc_array::<u8>("b", 4 * PAGE as usize, AllocPolicy::OnNode(0));
        assert!(m1.page_map_of(0).is_none());
    }

    #[test]
    fn migrate_page_moves_accounting_and_is_visible_to_arrays() {
        let m = Machine::new(MachineSpec::test2_tiered());
        let a = m.alloc_array::<u8>("a", 4 * PAGE as usize, AllocPolicy::OnNode(2));
        assert_eq!(m.node_live_bytes(), vec![0, 0, 4 * PAGE, 0]);
        // Promote page 1 to fast node 0: the array clone sees the move.
        assert_eq!(m.migrate_page(0, 1, 0), Some(2));
        assert_eq!(a.node_of(PAGE as usize), 0);
        assert_eq!(a.node_of(0), 2);
        assert_eq!(m.node_live_bytes(), vec![PAGE, 0, 3 * PAGE, 0]);
        assert_eq!(m.promoted_pages_by_node(), vec![1, 0, 0, 0]);
        // Demote it back.
        assert_eq!(m.migrate_page(0, 1, 3), Some(0));
        assert_eq!(m.demoted_pages_by_node(), vec![0, 0, 0, 1]);
        // No-op and out-of-range moves are rejected.
        assert_eq!(m.migrate_page(0, 1, 3), None);
        assert_eq!(m.migrate_page(0, 99, 0), None);
        // Free returns exactly what is charged after the migrations.
        drop(a);
        assert_eq!(m.node_live_bytes(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn migrate_page_respects_target_capacity() {
        let spec = MachineSpec::test2_tiered().with_fast_capacity(PAGE);
        let m = Machine::new(spec);
        let _a = m.alloc_array::<u8>("a", 3 * PAGE as usize, AllocPolicy::OnNode(2));
        assert_eq!(m.migrate_page(0, 0, 0), Some(2));
        // Fast node 0 is now full: further promotion there is refused.
        assert_eq!(m.migrate_page(0, 1, 0), None);
        assert_eq!(m.node_live_bytes(), vec![PAGE, 0, 2 * PAGE, 0]);
    }

    #[test]
    fn slow_tag_routing_streams_allocation_to_slow_tier() {
        let m = Machine::new(MachineSpec::test2_tiered());
        m.route_tags_to_slow(&["topo"]);
        let _e = m.alloc_array::<u8>("topo/e_dst", 4 * PAGE as usize, AllocPolicy::OnNode(0));
        let _v = m.alloc_array::<u8>("data/curr", 2 * PAGE as usize, AllocPolicy::OnNode(0));
        // Edge pages interleave over slow nodes {2,3}; vertex data stays fast.
        assert_eq!(m.node_live_bytes(), vec![2 * PAGE, 0, 2 * PAGE, 2 * PAGE]);
        // No effect on single-tier machines.
        let m1 = Machine::new(MachineSpec::test2());
        m1.route_tags_to_slow(&["topo"]);
        let _e1 = m1.alloc_array::<u8>("topo/e_dst", 4 * PAGE as usize, AllocPolicy::OnNode(0));
        assert_eq!(m1.node_live_bytes(), vec![4 * PAGE, 0]);
    }

    #[test]
    fn spill_accounting_invariants_hold_over_random_schedules() {
        // Deterministic pseudo-random alloc/free schedule; checks after every
        // step that (a) no node exceeds its cap, (b) per-node live bytes sum
        // to the page footprint of the live allocations.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for policy in [SpillPolicy::NearestRemote, SpillPolicy::Interleave] {
            let cap_pages = 8u64;
            let m = capped(cap_pages, policy);
            let mut live: Vec<(crate::NumaArray<u8>, u64)> = Vec::new();
            let mut live_pages = 0u64;
            for step in 0..200 {
                let r = next();
                if r % 3 != 0 || live.is_empty() {
                    let pages = 1 + (r >> 8) % 4;
                    let node = ((r >> 16) % 2) as usize;
                    match m.try_alloc_array::<u8>(
                        &format!("s{step}"),
                        (pages * PAGE) as usize,
                        AllocPolicy::OnNode(node),
                    ) {
                        Ok(a) => {
                            live.push((a, pages));
                            live_pages += pages;
                        }
                        Err(PolymerError::NodeCapacityExceeded { .. }) => {}
                        Err(other) => panic!("unexpected error: {other:?}"),
                    }
                } else {
                    let i = (r >> 24) as usize % live.len();
                    let (a, pages) = live.swap_remove(i);
                    drop(a);
                    live_pages -= pages;
                }
                let by_node = m.node_live_bytes();
                assert!(by_node.iter().all(|&b| b <= cap_pages * PAGE));
                assert_eq!(by_node.iter().sum::<u64>(), live_pages * PAGE);
            }
        }
    }
}
