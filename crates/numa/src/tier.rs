//! Promotion/demotion policies for tiered (fast/slow) machines.
//!
//! On a tiered [`crate::MachineSpec`] the slow tier (modelled on Optane-class
//! persistent memory) holds data that does not fit the fast tier's DRAM.
//! Between phases, a [`TierRuntime`] attached to the executor
//! ([`crate::SimExecutor::set_tiering`]) inspects the per-page access heat
//! collected by the [`crate::AccessCtx`]s and migrates hot pages up to the
//! fast tier — and, when the fast tier is full, demotes the coldest
//! promoted pages back down to make room. Heat is tracked as an EWMA
//! across boundaries (each boundary halves the old counts before folding
//! the fresh ones in), promotions per boundary are capped by a budget, an
//! incoming page must be meaningfully hotter than the eviction victim
//! (2× hysteresis) before it may displace it, and promoted pages that go
//! untouched for several consecutive boundaries are demoted even without
//! capacity pressure, so the fast tier tracks the *current* hot set.
//!
//! Migration is not free: every moved page is charged as explicit memory
//! traffic (a sequential read from the source node plus a sequential write to
//! the destination) through a synthetic `tier-migrate` phase, so tiering
//! overhead shows up in [`crate::PhaseCost`], the run clock, and the
//! per-socket trace counters exactly like application traffic does.
//!
//! Three policies are modelled, spanning the design space real systems use:
//!
//! * [`TierPolicy::FirstTouch`] — promote any slow page touched in the
//!   phase just ended, in scan order. The baseline OS behaviour: eager and
//!   cheap to decide, but promotes cold streaming pages as readily as hot
//!   ones.
//! * [`TierPolicy::HotPageLru`] — count every access per page and promote
//!   the hottest pages first; when the fast tier fills, demote the coldest
//!   promoted page (ties broken least-recently-promoted first, the classic
//!   hot-page tiering of Nimble/Memtis-style systems), and only when the
//!   incoming page is strictly hotter than that victim — so a converged hot
//!   set stops migrating instead of churning against equally-warm streams.
//! * [`TierPolicy::Sampled`] — AutoNUMA-style: sample one access in N
//!   (default 32), promote pages whose sampled count clears a small
//!   threshold. Approximates `HotPageLru` at a fraction of the tracking
//!   cost; the sampling noise is modelled faithfully, so its decisions are
//!   coarser.

use std::collections::{BTreeMap, VecDeque};

use crate::ctx::HeatMode;
use crate::machine::{AllocId, Machine};
use crate::topology::NodeId;

/// Which promotion policy a [`TierRuntime`] applies at phase boundaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TierPolicy {
    /// Promote any slow page touched in the phase just ended, in scan
    /// order, without ranking by heat.
    FirstTouch,
    /// Promote hottest pages first (full per-page counting); demote the
    /// coldest promoted page (ties broken least-recently-promoted first)
    /// when the fast tier fills.
    HotPageLru,
    /// AutoNUMA-style sampled scanning: count one access in
    /// [`TierRuntime::SAMPLE_PERIOD`], promote pages clearing a small
    /// sampled-heat threshold.
    Sampled,
}

impl TierPolicy {
    /// Stable lower-case name (bench tables, JSON artifacts).
    pub fn name(self) -> &'static str {
        match self {
            TierPolicy::FirstTouch => "first-touch",
            TierPolicy::HotPageLru => "hot-page-lru",
            TierPolicy::Sampled => "sampled",
        }
    }

    /// The heat-sampling mode this policy needs from the access contexts.
    pub(crate) fn heat_mode(self) -> HeatMode {
        match self {
            TierPolicy::FirstTouch | TierPolicy::HotPageLru => HeatMode::Full,
            TierPolicy::Sampled => HeatMode::Sampled(TierRuntime::SAMPLE_PERIOD),
        }
    }

    /// Minimum recorded heat for a page to become a promotion candidate.
    fn min_heat(self) -> u32 {
        match self {
            // Any touch at all.
            TierPolicy::FirstTouch => 1,
            // Full counting: ask for evidence of reuse, not a lone touch.
            TierPolicy::HotPageLru => 2,
            // Sampled counting: one sample landing on a page is already a
            // strong signal at a 1-in-N sampling rate.
            TierPolicy::Sampled => 1,
        }
    }
}

/// One page migration performed at a phase boundary (promotion or demotion),
/// reported back so the executor can charge it as traffic.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Migration {
    /// The allocation whose page moved.
    pub alloc: AllocId,
    /// Bytes moved (one placement page).
    pub bytes: u64,
    /// Old home node.
    pub from: NodeId,
    /// New home node.
    pub to: NodeId,
}

/// The phase-boundary tiering engine: consumes drained page heat, decides
/// promotions (and capacity-forced demotions) under a per-phase page budget,
/// and executes them through [`Machine::migrate_page`].
pub struct TierRuntime {
    policy: TierPolicy,
    /// Maximum pages promoted per phase boundary (demotions forced by those
    /// promotions do not count against it).
    budget_pages: usize,
    /// Fast-resident pages in promotion order (front = least recently
    /// promoted). Eviction picks the entry with the lowest current-boundary
    /// heat, breaking ties towards the front — a cold-first LRU.
    promoted: VecDeque<(AllocId, usize)>,
    /// Exponentially-decayed per-page heat: halved at every boundary, then
    /// the boundary's drained heat is folded in. Promotion and eviction both
    /// read this accumulated value, so a page's standing reflects its recent
    /// history rather than whichever phase happened to run last — a stream
    /// that alternates edge and vertex phases would otherwise evict the hot
    /// set at every vertex boundary and re-promote it at the next edge one.
    ewma: BTreeMap<(AllocId, usize), u32>,
    /// Consecutive boundaries each promoted page has gone untouched, for
    /// idle reclaim. Reset to zero on any touch; missing means touched.
    idle: BTreeMap<(AllocId, usize), u32>,
}

impl TierRuntime {
    /// Sampling period of [`TierPolicy::Sampled`] (count one access in N),
    /// matching AutoNUMA's default scan granularity in spirit.
    pub const SAMPLE_PERIOD: u32 = 32;

    /// A promoted page untouched for this many consecutive boundaries is
    /// demoted even without capacity pressure (kswapd-style idle reclaim).
    /// A page promoted off one touch — graph-construction reads, say — must
    /// not squat in the fast tier for the rest of the run; three boundaries
    /// is long enough that phase alternation (an edge phase not touching
    /// vertex state, and vice versa) never looks like idleness.
    pub const IDLE_DEMOTE_BOUNDARIES: u32 = 3;

    /// A candidate must run this many times hotter than the coldest
    /// fast-resident page before it may evict it. Near-tie swaps move a page
    /// in each direction for at best a marginal placement improvement, so a
    /// working set whose pages jitter around the same heat would otherwise
    /// migrate forever; the factor-of-two deadband converges instead.
    pub const EVICTION_HYSTERESIS: u32 = 2;

    /// Default per-phase promotion budget, in pages (2 MiB at 4 KiB pages).
    /// Generous enough that a hot working set migrates within a few
    /// iterations, small enough that a single boundary never bulk-copies
    /// the whole graph — and that an eager policy promoting cold streaming
    /// pages cannot spend more on copies than the phase spent on work.
    pub const DEFAULT_BUDGET_PAGES: usize = 512;

    /// A runtime applying `policy` with the default budget.
    pub fn new(policy: TierPolicy) -> Self {
        TierRuntime {
            policy,
            budget_pages: Self::DEFAULT_BUDGET_PAGES,
            promoted: VecDeque::new(),
            ewma: BTreeMap::new(),
            idle: BTreeMap::new(),
        }
    }

    /// The policy this runtime applies.
    pub fn policy(&self) -> TierPolicy {
        self.policy
    }

    /// The fast node with the most free capacity (ties to the lowest id).
    /// `None` when every fast node is at capacity (or has unknown capacity —
    /// unlimited fast nodes always win with `u64::MAX` headroom).
    fn best_fast_target(machine: &Machine, live: &[u64]) -> Option<NodeId> {
        let spec = machine.spec();
        let mut best: Option<(u64, NodeId)> = None;
        for n in spec.fast_nodes() {
            let free = match machine.capacity_of_node(n) {
                Some(cap) => cap.saturating_sub(live[n]),
                None => u64::MAX,
            };
            if free == 0 {
                continue;
            }
            if best.map(|(bf, _)| free > bf).unwrap_or(true) {
                best = Some((free, n));
            }
        }
        best.map(|(_, n)| n)
    }

    /// The slow node with the most free capacity (ties to the lowest id),
    /// falling back to the first slow node when all are "full" (demotion must
    /// always find a home; the slow tier backs the whole footprint).
    fn best_slow_target(machine: &Machine, live: &[u64]) -> NodeId {
        let spec = machine.spec();
        let mut best: Option<(u64, NodeId)> = None;
        for n in spec.slow_nodes() {
            let free = match machine.capacity_of_node(n) {
                Some(cap) => cap.saturating_sub(live[n]),
                None => u64::MAX,
            };
            if best.map(|(bf, _)| free > bf).unwrap_or(true) {
                best = Some((free, n));
            }
        }
        best.map(|(_, n)| n).unwrap_or_else(|| {
            *spec
                .slow_nodes()
                .first()
                .expect("tiered spec has slow nodes")
        })
    }

    /// The heat of the coldest still-fast-resident promoted page this
    /// boundary, or `None` when nothing promoted remains resident. Entries
    /// that were freed or migrated away are pruned as a side effect.
    fn coldest_resident_heat(
        &mut self,
        machine: &Machine,
        heat_of: &BTreeMap<(AllocId, usize), u32>,
    ) -> Option<u32> {
        self.promoted.retain(|&(alloc, page)| {
            machine
                .page_map_of(alloc)
                .map(|(map, _)| {
                    page < map.len() && !machine.spec().tier_of(map.get(page)).is_slow()
                })
                .unwrap_or(false)
        });
        self.promoted
            .iter()
            .map(|key| heat_of.get(key).copied().unwrap_or(0))
            .min()
    }

    /// Demote the coldest promoted fast page (current-boundary heat, ties to
    /// the least recently promoted) to the slow tier, freeing one page of
    /// fast capacity. Returns the migration, or `None` when the queue holds
    /// no page that is still fast-resident.
    fn demote_one(
        &mut self,
        machine: &Machine,
        live: &mut [u64],
        heat_of: &BTreeMap<(AllocId, usize), u32>,
    ) -> Option<Migration> {
        self.coldest_resident_heat(machine, heat_of)?;
        let victim = self
            .promoted
            .iter()
            .enumerate()
            .min_by_key(|(i, key)| (heat_of.get(key).copied().unwrap_or(0), *i))
            .map(|(i, _)| i)?;
        let (alloc, page) = self.promoted.remove(victim)?;
        self.idle.remove(&(alloc, page));
        let page_bytes = machine.page_map_of(alloc).map(|(_, b)| b)?;
        let to = Self::best_slow_target(machine, live);
        let from = machine.migrate_page(alloc, page, to)?;
        live[from] = live[from].saturating_sub(page_bytes);
        live[to] += page_bytes;
        Some(Migration {
            alloc,
            bytes: page_bytes,
            from,
            to,
        })
    }

    /// Run one phase boundary: turn the drained heat into promotions (plus
    /// any capacity-forced demotions) and return the migrations performed,
    /// in execution order, for the executor to charge as traffic.
    pub(crate) fn run_boundary(
        &mut self,
        machine: &Machine,
        heat: &[(AllocId, Vec<u32>)],
    ) -> Vec<Migration> {
        let spec = machine.spec();
        let min_heat = self.policy.min_heat();

        // This boundary's raw touches, then decay the accumulated heat and
        // fold them in.
        let mut fresh: BTreeMap<(AllocId, usize), u32> = BTreeMap::new();
        for (alloc, pages) in heat {
            for (page, &h) in pages.iter().enumerate() {
                if h > 0 {
                    fresh.insert((*alloc, page), h);
                }
            }
        }
        self.ewma.retain(|_, h| {
            *h /= 2;
            *h > 0
        });
        for (&key, &h) in &fresh {
            let e = self.ewma.entry(key).or_insert(0);
            *e = e.saturating_add(h);
        }
        // Advance the idle clocks of the current residents (pages promoted
        // later this boundary start fresh).
        for key in &self.promoted {
            if fresh.contains_key(key) {
                self.idle.remove(key);
            } else {
                *self.idle.entry(*key).or_insert(0) += 1;
            }
        }

        // Candidate pages: slow-resident with enough accumulated heat, in
        // (alloc, page) scan order. FirstTouch promotes on touch — it only
        // ever considers pages accessed in the phase just ended, never pages
        // merely remembered by the decaying history (an init-only page must
        // not earn a promotion it can no longer repay).
        let mut cands: Vec<(u32, AllocId, usize)> = Vec::new();
        let source: &BTreeMap<(AllocId, usize), u32> = if self.policy == TierPolicy::FirstTouch {
            &fresh
        } else {
            &self.ewma
        };
        for (&(alloc, page), &h) in source {
            if h < min_heat {
                continue;
            }
            let map = match machine.page_map_of(alloc) {
                Some((map, _)) => map,
                None => continue,
            };
            if page < map.len() && spec.tier_of(map.get(page)).is_slow() {
                cands.push((h, alloc, page));
            }
        }
        // Hottest first for the counting policies; FirstTouch keeps scan
        // order (the order of first touch within the phase is not recorded,
        // so allocation/page order is the deterministic stand-in).
        if self.policy != TierPolicy::FirstTouch {
            cands.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        }

        // Accumulated heat snapshot, for picking eviction victims and for
        // the churn guard below.
        let heat_of = self.ewma.clone();

        let mut live = machine.node_live_bytes();
        let mut out = Vec::new();
        let mut promoted_now = 0usize;
        for (h, alloc, page) in cands {
            // The budget caps pages *promoted*, not candidates considered:
            // a scan-order policy must still reach the hot pages sitting
            // behind thousands of guard-skipped stream pages.
            if promoted_now >= self.budget_pages {
                break;
            }
            let page_bytes = match machine.page_map_of(alloc) {
                Some((_, b)) => b,
                None => continue,
            };
            let mut target = Self::best_fast_target(machine, &live);
            if target.is_none() {
                // Fast tier full. Evict the coldest promoted page — but only
                // for a candidate clearing the hysteresis deadband above it;
                // swapping similarly-warm pages is pure migration overhead
                // (a converged hot set, or a stream re-touching every page
                // each phase, must not churn).
                match self.coldest_resident_heat(machine, &heat_of) {
                    Some(coldest) if h > coldest.saturating_mul(Self::EVICTION_HYSTERESIS) => {
                        if let Some(m) = self.demote_one(machine, &mut live, &heat_of) {
                            out.push(m);
                            target = Self::best_fast_target(machine, &live);
                        }
                    }
                    Some(_) => {
                        if self.policy == TierPolicy::FirstTouch {
                            // Scan order is not heat order: a hotter page may
                            // still follow.
                            continue;
                        }
                        break; // sorted hottest-first: no later candidate wins
                    }
                    None => break, // fast tier full of unevictable pages
                }
            }
            let Some(to) = target else { break };
            if let Some(from) = machine.migrate_page(alloc, page, to) {
                live[from] = live[from].saturating_sub(page_bytes);
                live[to] += page_bytes;
                self.promoted.push_back((alloc, page));
                self.idle.remove(&(alloc, page));
                promoted_now += 1;
                out.push(Migration {
                    alloc,
                    bytes: page_bytes,
                    from,
                    to,
                });
            }
        }

        // Idle reclaim: a promoted page untouched for the last
        // IDLE_DEMOTE_BOUNDARIES boundaries goes back down even without
        // capacity pressure, so one-shot promotions (init-only reads) free
        // their fast capacity for pages still earning it.
        let dead: Vec<(AllocId, usize)> = self
            .promoted
            .iter()
            .filter(|key| self.idle.get(key).copied().unwrap_or(0) >= Self::IDLE_DEMOTE_BOUNDARIES)
            .copied()
            .collect();
        for (alloc, page) in dead {
            self.promoted.retain(|&k| k != (alloc, page));
            self.idle.remove(&(alloc, page));
            // Drop the stale history too: the page just proved idle, and a
            // lingering decayed count must not re-promote it next boundary.
            self.ewma.remove(&(alloc, page));
            let page_bytes = match machine.page_map_of(alloc) {
                Some((map, b)) if page < map.len() => {
                    if machine.spec().tier_of(map.get(page)).is_slow() {
                        continue; // already moved down by someone else
                    }
                    b
                }
                _ => continue, // freed allocation
            };
            let to = Self::best_slow_target(machine, &live);
            if let Some(from) = machine.migrate_page(alloc, page, to) {
                live[from] = live[from].saturating_sub(page_bytes);
                live[to] += page_bytes;
                out.push(Migration {
                    alloc,
                    bytes: page_bytes,
                    from,
                    to,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AllocPolicy;
    use crate::topology::{MachineSpec, PAGE_SIZE};

    fn tiered_machine() -> Machine {
        Machine::new(MachineSpec::test2_tiered())
    }

    /// Pages the machine has promoted to the fast tier so far.
    fn promoted(m: &Machine) -> u64 {
        m.promoted_pages_by_node().iter().sum()
    }

    /// Pages the machine has demoted to the slow tier so far.
    fn demoted(m: &Machine) -> u64 {
        m.demoted_pages_by_node().iter().sum()
    }

    /// Heat vector with `hot` at the given pages.
    fn heat_for(alloc: AllocId, pages: &[(usize, u32)]) -> Vec<(AllocId, Vec<u32>)> {
        let max = pages.iter().map(|&(p, _)| p).max().unwrap_or(0);
        let mut v = vec![0u32; max + 1];
        for &(p, h) in pages {
            v[p] = h;
        }
        vec![(alloc, v)]
    }

    #[test]
    fn hot_slow_pages_promote_to_fast() {
        let m = tiered_machine();
        // 4 pages on slow node 2.
        let a = m.alloc_array::<u64>("a", 4 * 512, AllocPolicy::OnNode(2));
        let mut rt = TierRuntime::new(TierPolicy::HotPageLru);
        let migs = rt.run_boundary(&m, &heat_for(a.alloc_id(), &[(0, 10), (2, 5)]));
        assert_eq!(migs.len(), 2);
        assert!(migs.iter().all(|m2| m2.from == 2));
        assert!(migs.iter().all(|m2| !m.spec().tier_of(m2.to).is_slow()));
        // Hottest page first.
        assert_eq!(promoted(&m), 2);
        assert_eq!(a.node_of(0), migs[0].to);
        assert_eq!(a.node_of(2 * 512), migs[1].to);
    }

    #[test]
    fn fast_resident_pages_are_not_candidates() {
        let m = tiered_machine();
        let a = m.alloc_array::<u64>("a", 512, AllocPolicy::OnNode(0));
        let mut rt = TierRuntime::new(TierPolicy::FirstTouch);
        let migs = rt.run_boundary(&m, &heat_for(a.alloc_id(), &[(0, 100)]));
        assert!(migs.is_empty());
        assert_eq!(promoted(&m), 0);
    }

    #[test]
    fn budget_caps_promotions_per_boundary() {
        let m = tiered_machine();
        let a = m.alloc_array::<u64>("a", 8 * 512, AllocPolicy::OnNode(3));
        let mut rt = TierRuntime {
            budget_pages: 3,
            ..TierRuntime::new(TierPolicy::FirstTouch)
        };
        let hot: Vec<(usize, u32)> = (0..8).map(|p| (p, 1)).collect();
        let migs = rt.run_boundary(&m, &heat_for(a.alloc_id(), &hot));
        assert_eq!(migs.len(), 3);
        // Later boundaries drain the rest, three pages at a time.
        let migs2 = rt.run_boundary(&m, &heat_for(a.alloc_id(), &hot));
        assert_eq!(migs2.len(), 3);
        let migs3 = rt.run_boundary(&m, &heat_for(a.alloc_id(), &hot));
        assert_eq!(migs3.len(), 2);
        assert_eq!(promoted(&m), 8);
    }

    #[test]
    fn full_fast_tier_forces_lru_demotion() {
        // Fast capacity of exactly 2 pages per fast node (4 pages total
        // fast), slow unlimited.
        let spec = MachineSpec::test2_tiered().with_fast_capacity(2 * PAGE_SIZE as u64);
        let m = Machine::new(spec);
        let a = m.alloc_array::<u64>("a", 8 * 512, AllocPolicy::OnNode(2));
        let mut rt = TierRuntime::new(TierPolicy::HotPageLru);
        // Promote pages 0..4 — exactly fills both fast nodes.
        let migs = rt.run_boundary(
            &m,
            &heat_for(a.alloc_id(), &[(0, 9), (1, 8), (2, 7), (3, 6)]),
        );
        assert_eq!(migs.len(), 4);
        assert_eq!(demoted(&m), 0);
        // Promoting two hotter pages must evict the two coldest residents.
        let migs2 = rt.run_boundary(&m, &heat_for(a.alloc_id(), &[(4, 9), (5, 8)]));
        let down = migs2
            .iter()
            .filter(|mg| m.spec().tier_of(mg.to).is_slow())
            .count();
        assert_eq!(down, 2);
        assert_eq!(demoted(&m), 2);
        assert_eq!(promoted(&m), 6);
        // Pages 2 and 3 — coldest after decay, untouched this boundary —
        // went back down; the still-warmer pages 0 and 1 stayed.
        assert!(m.spec().tier_of(a.node_of(2 * 512)).is_slow());
        assert!(m.spec().tier_of(a.node_of(3 * 512)).is_slow());
        assert!(!m.spec().tier_of(a.node_of(0)).is_slow());
        assert!(!m.spec().tier_of(a.node_of(4 * 512)).is_slow());
        assert!(!m.spec().tier_of(a.node_of(5 * 512)).is_slow());
        // Machine counters saw both directions.
        assert_eq!(m.promoted_pages_by_node().iter().sum::<u64>(), 6);
        assert_eq!(m.demoted_pages_by_node().iter().sum::<u64>(), 2);
    }

    #[test]
    fn equally_warm_pages_do_not_churn_a_full_fast_tier() {
        let spec = MachineSpec::test2_tiered().with_fast_capacity(2 * PAGE_SIZE as u64);
        let m = Machine::new(spec);
        let a = m.alloc_array::<u64>("a", 8 * 512, AllocPolicy::OnNode(2));
        let mut rt = TierRuntime::new(TierPolicy::HotPageLru);
        // Fill the fast tier with four hot pages.
        let migs = rt.run_boundary(
            &m,
            &heat_for(a.alloc_id(), &[(0, 9), (1, 9), (2, 9), (3, 9)]),
        );
        assert_eq!(migs.len(), 4);
        // A stream re-touching everything at the same heat must not displace
        // the resident set: no promotions, no demotions.
        let hot: Vec<(usize, u32)> = (0..8).map(|p| (p, 9)).collect();
        let migs2 = rt.run_boundary(&m, &heat_for(a.alloc_id(), &hot));
        assert!(migs2.is_empty(), "equal heat churned: {migs2:?}");
        // A page running strictly hotter than the residents' accumulated
        // heat does displace the coldest of them.
        let mut heats: Vec<(usize, u32)> = (0..4).map(|p| (p, 9)).collect();
        heats.push((7, 40));
        let migs3 = rt.run_boundary(&m, &heat_for(a.alloc_id(), &heats));
        assert_eq!(migs3.len(), 2); // one demotion + one promotion
        assert!(!m.spec().tier_of(a.node_of(7 * 512)).is_slow());
        assert_eq!(demoted(&m), 1);
    }

    #[test]
    fn eviction_picks_the_coldest_resident_not_the_oldest() {
        let spec = MachineSpec::test2_tiered().with_fast_capacity(2 * PAGE_SIZE as u64);
        let m = Machine::new(spec);
        let a = m.alloc_array::<u64>("a", 8 * 512, AllocPolicy::OnNode(2));
        let mut rt = TierRuntime::new(TierPolicy::HotPageLru);
        rt.run_boundary(
            &m,
            &heat_for(a.alloc_id(), &[(0, 9), (1, 8), (2, 7), (3, 6)]),
        );
        // Page 0 is the oldest promotion but stays hot; page 2 goes cold.
        // The incoming hotter page must evict page 2, not page 0.
        let migs = rt.run_boundary(
            &m,
            &heat_for(a.alloc_id(), &[(0, 9), (1, 9), (3, 9), (4, 12)]),
        );
        assert_eq!(migs.len(), 2);
        assert!(m.spec().tier_of(a.node_of(2 * 512)).is_slow());
        assert!(!m.spec().tier_of(a.node_of(0)).is_slow());
        assert!(!m.spec().tier_of(a.node_of(4 * 512)).is_slow());
    }

    #[test]
    fn min_heat_threshold_filters_cold_pages() {
        let m = tiered_machine();
        let a = m.alloc_array::<u64>("a", 4 * 512, AllocPolicy::OnNode(2));
        // HotPageLru wants heat >= 2; a single touch stays put.
        let mut rt = TierRuntime::new(TierPolicy::HotPageLru);
        let migs = rt.run_boundary(&m, &heat_for(a.alloc_id(), &[(0, 1), (1, 2)]));
        assert_eq!(migs.len(), 1);
        assert_eq!(a.node_of(0), 2);
        assert_ne!(a.node_of(512), 2);
    }

    #[test]
    fn idle_promoted_pages_are_reclaimed_without_pressure() {
        let m = tiered_machine(); // unlimited fast capacity: no eviction path
        let a = m.alloc_array::<u64>("a", 4 * 512, AllocPolicy::OnNode(2));
        let mut rt = TierRuntime::new(TierPolicy::HotPageLru);
        let migs = rt.run_boundary(&m, &heat_for(a.alloc_id(), &[(0, 50)]));
        assert_eq!(migs.len(), 1);
        // Untouched boundaries tick the idle clock; on the third the page
        // goes back down even though the fast tier has room to spare.
        for i in 0..TierRuntime::IDLE_DEMOTE_BOUNDARIES {
            assert!(
                !m.spec().tier_of(a.node_of(0)).is_slow(),
                "reclaimed after only {i} idle boundaries"
            );
            rt.run_boundary(&m, &[]);
        }
        assert!(m.spec().tier_of(a.node_of(0)).is_slow());
        assert_eq!(demoted(&m), 1);
        // A touch in between resets the clock.
        let migs = rt.run_boundary(&m, &heat_for(a.alloc_id(), &[(1, 50)]));
        assert_eq!(migs.len(), 1);
        rt.run_boundary(&m, &[]);
        rt.run_boundary(&m, &[]);
        rt.run_boundary(&m, &heat_for(a.alloc_id(), &[(1, 50)]));
        rt.run_boundary(&m, &[]);
        rt.run_boundary(&m, &[]);
        assert!(!m.spec().tier_of(a.node_of(512)).is_slow());
        rt.run_boundary(&m, &[]);
        assert!(m.spec().tier_of(a.node_of(512)).is_slow());
    }

    #[test]
    fn policy_names_and_modes() {
        assert_eq!(TierPolicy::FirstTouch.name(), "first-touch");
        assert_eq!(TierPolicy::HotPageLru.name(), "hot-page-lru");
        assert_eq!(TierPolicy::Sampled.name(), "sampled");
        assert_eq!(TierPolicy::Sampled.heat_mode(), HeatMode::Sampled(32));
        assert_eq!(TierPolicy::HotPageLru.heat_mode(), HeatMode::Full);
    }
}
