//! Per-simulated-thread access context and access statistics.
//!
//! Every instrumented array access is classified along the three dimensions
//! the paper's Figure 2 uses to label execution flows:
//!
//! * **pattern** — sequential ([`Pattern::Seq`]) when the access continues a
//!   forward stream on the same array (within two cache lines of the previous
//!   access's end), random ([`Pattern::Rand`]) otherwise;
//! * **direction** — read or write ([`Rw`]); read-modify-writes are charged
//!   as one write transaction;
//! * **destination node** — the home node of the touched page, from which
//!   local/remote and the hop distance follow.
//!
//! Statistics are kept per allocation so the cost model can apply its cache
//! model per array and the reports can attribute traffic to graph topology,
//! application data, and runtime state separately.

use crate::machine::{AllocId, Machine};
use crate::policy::Placement;
use crate::topology::{NodeId, MAX_NODES};

/// Access pattern: sequential stream vs. random.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Continues a forward stream on the same array.
    Seq,
    /// Anything else, including the first touch of an array in a phase.
    Rand,
}

impl Pattern {
    /// Index into per-pattern tables.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Pattern::Seq => 0,
            Pattern::Rand => 1,
        }
    }
}

/// Read or write.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rw {
    /// A load.
    Read,
    /// A store or read-modify-write.
    Write,
}

impl Rw {
    /// Index into per-direction tables.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Rw::Read => 0,
            Rw::Write => 1,
        }
    }
}

/// How far ahead of the previous access's end an access may land and still
/// count as sequential (two cache lines).
const SEQ_WINDOW_FWD: u64 = 128;
/// How far *behind* the previous end an access may start and still count as
/// sequential (re-touching the current cache line).
const SEQ_WINDOW_BACK: u64 = 64;

/// Access counters of one allocation: `bytes[rw][pattern][dst_node]` and the
/// matching transaction counts.
#[derive(Clone, Debug)]
pub struct ArrStat {
    /// Bytes moved, indexed by `[Rw::index()][Pattern::index()][dst node]`.
    pub bytes: [[[u64; MAX_NODES]; 2]; 2],
    /// Transactions, same indexing.
    pub count: [[[u64; MAX_NODES]; 2]; 2],
}

impl Default for ArrStat {
    fn default() -> Self {
        ArrStat {
            bytes: [[[0; MAX_NODES]; 2]; 2],
            count: [[[0; MAX_NODES]; 2]; 2],
        }
    }
}

/// Classified access statistics of one simulated thread (or a merge of
/// several), keyed by allocation. Only touched allocations are stored, in
/// ascending allocation-id order — the order every consumer folds in — so a
/// phase's statistics cost what the phase touched, not how many allocations
/// the machine has ever made.
#[derive(Clone, Debug, Default)]
pub struct AccessStats {
    per: Vec<(AllocId, Box<ArrStat>)>,
    /// Extra CPU cycles charged via [`AccessCtx::charge_cycles`]
    /// (per-edge arithmetic beyond the memory accesses).
    pub extra_cycles: f64,
}

impl AccessStats {
    /// Iterate over the allocations with any recorded accesses, in ascending
    /// allocation-id order.
    pub fn iter_arrays(&self) -> impl Iterator<Item = (AllocId, &ArrStat)> {
        self.per.iter().map(|(id, s)| (*id, &**s))
    }

    /// Total transactions.
    pub fn total_count(&self) -> u64 {
        let counts = self.iter_arrays().flat_map(|(_, s)| s.count.iter());
        counts.flatten().flatten().sum()
    }

    /// Total bytes.
    pub fn total_bytes(&self) -> u64 {
        let bytes = self.iter_arrays().flat_map(|(_, s)| s.bytes.iter());
        bytes.flatten().flatten().sum()
    }
}

/// Per-allocation scratch of one context: the sequential-stream tracker, a
/// one-entry page→home-node cache, and the allocation's counters — all in
/// one struct so the hot [`AccessCtx::record`] path resolves everything it
/// needs with a single indexed lookup. The page cache is safe to keep across
/// phases because allocation ids are never reused and placements are
/// immutable.
#[derive(Clone)]
struct AllocState {
    /// End offset of the previous access (`u64::MAX` = never touched).
    last_end: u64,
    /// Last resolved page (`u64::MAX` = nothing cached).
    page: u64,
    /// Home node of `page`.
    node: NodeId,
    /// Whether the allocation is on the context's touched list, i.e. any
    /// access landed since the last [`AccessCtx::take_stats`].
    touched: bool,
    /// The counters themselves, inline (no box, no option) so the hot path
    /// is lookup → classify → two adds.
    stat: ArrStat,
}

impl AllocState {
    fn cold() -> AllocState {
        AllocState {
            last_end: u64::MAX,
            page: u64::MAX,
            node: 0,
            touched: false,
            stat: ArrStat::default(),
        }
    }
}

/// How a context samples per-page access heat for the tier promotion
/// policies. `Off` (the default, and the only mode single-tier runs ever
/// see) adds no work to the access paths.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum HeatMode {
    /// No heat tracking.
    #[default]
    Off,
    /// Count every access per page (the hot-page LRU policy's input).
    Full,
    /// Count one access in `N` (AutoNUMA-style sampled scanning; the
    /// sampled promotion policy's input). Run-recorded accesses attribute
    /// their samples to the run's first page.
    Sampled(u32),
}

/// The execution context of one simulated thread: which core it is bound to,
/// and the classified statistics of everything it has touched since the last
/// [`AccessCtx::take_stats`].
pub struct AccessCtx {
    tid: usize,
    node: NodeId,
    num_threads: usize,
    /// Extra CPU cycles charged via [`AccessCtx::charge_cycles`].
    extra_cycles: f64,
    /// Per-allocation trackers + counters, indexed by [`AllocId`].
    per: Vec<AllocState>,
    /// Allocations touched since the last [`AccessCtx::take_stats`] — exactly
    /// the entries of `per` whose `touched` flag is set, in first-touch
    /// order — so harvesting a phase never walks the allocations it left
    /// alone.
    touched: Vec<AllocId>,
    /// True on tiered machines: page→node caches are dropped at phase
    /// boundaries because the promotion layer may migrate pages between
    /// phases. Single-tier machines keep the caches forever, as before.
    tiered: bool,
    /// Heat-sampling mode (set by the executor when a promotion policy
    /// needs it; [`HeatMode::Off`] otherwise).
    heat_mode: HeatMode,
    /// Per-allocation per-page access counts since the last
    /// [`AccessCtx::take_heat`]. Only populated when `heat_mode != Off`.
    heat: Vec<Vec<u32>>,
    /// Rolling access tick for [`HeatMode::Sampled`].
    heat_tick: u64,
    /// The machine spec's `bulk_accounting`, cached so the run accessors
    /// test a field on the hot path.
    bulk: bool,
}

impl AccessCtx {
    /// A context bound to `core` of `machine`, with thread id = core id.
    pub fn new(machine: &Machine, core: usize) -> Self {
        let topo = machine.topology();
        AccessCtx {
            tid: core,
            node: topo.node_of_core(core),
            num_threads: topo.total_cores(),
            extra_cycles: 0.0,
            per: Vec::new(),
            touched: Vec::new(),
            tiered: topo.is_tiered(),
            heat_mode: HeatMode::Off,
            heat: Vec::new(),
            heat_tick: 0,
            bulk: machine.spec().bulk_accounting,
        }
    }

    pub(crate) fn with_threads(machine: &Machine, tid: usize, core: usize, n: usize) -> Self {
        let mut c = Self::new(machine, core);
        c.tid = tid;
        c.num_threads = n;
        c
    }

    /// Simulated thread id within the executor.
    #[inline]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// The memory node of the bound core.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Whether run-coalesced accounting is on for this context's machine.
    #[inline]
    pub(crate) fn bulk(&self) -> bool {
        self.bulk
    }

    /// The combined tracker + counters of one allocation. The grow path is
    /// out-of-line: after the first touch of each allocation the hot path is
    /// one predictable bounds check.
    #[inline]
    fn alloc_state(&mut self, alloc: AllocId) -> &mut AllocState {
        let i = alloc as usize;
        if i >= self.per.len() {
            self.grow(i);
        }
        &mut self.per[i]
    }

    #[cold]
    #[inline(never)]
    fn grow(&mut self, i: usize) {
        self.per.resize_with(i + 1, AllocState::cold);
    }

    /// Enter `alloc` on the touched list unless it is there already.
    #[cold]
    #[inline(never)]
    fn note_touched(&mut self, alloc: AllocId) {
        let st = &mut self.per[alloc as usize];
        if !st.touched {
            st.touched = true;
            self.touched.push(alloc);
        }
    }

    /// The out-of-line tail of [`AccessCtx::record`]: first-touch
    /// bookkeeping and heat sampling, neither of which the common access
    /// needs.
    #[cold]
    #[inline(never)]
    fn record_rare(&mut self, alloc: AllocId, page: usize, first: bool) {
        if first {
            self.note_touched(alloc);
        }
        if self.heat_mode != HeatMode::Off {
            self.note_heat_scalar(alloc, page);
        }
    }

    /// Sequential-window classification against a stream's previous end.
    #[inline]
    fn classify(last: u64, off: u64) -> Pattern {
        if last != u64::MAX && off + SEQ_WINDOW_BACK >= last && off <= last + SEQ_WINDOW_FWD {
            Pattern::Seq
        } else {
            Pattern::Rand
        }
    }

    /// Record one classified access (called by the instrumented arrays).
    /// Destination-node resolution goes through the per-allocation page
    /// cache, so repeated touches of the same page skip the placement-table
    /// lookup entirely.
    #[inline]
    pub(crate) fn record(
        &mut self,
        alloc: AllocId,
        placement: &Placement,
        off: usize,
        len: usize,
        rw: Rw,
    ) {
        let off64 = off as u64;
        let page = (off >> placement.page_shift()) as u64;
        let st = self.alloc_state(alloc);
        let last = st.last_end;
        let pat = Self::classify(last, off64);
        st.last_end = off64 + len as u64;
        let dst = if st.page == page {
            st.node
        } else {
            let n = placement.node_of(off);
            st.page = page;
            st.node = n;
            n
        };
        st.stat.bytes[rw.index()][pat.index()][dst] += len as u64;
        st.stat.count[rw.index()][pat.index()][dst] += 1;
        // A reset tracker means no access since the last harvest: the
        // allocation goes on the touched list. The engines' inner loops
        // inline this function and are sensitive to every instruction in it,
        // so the test rides on a value classification loaded anyway and
        // shares its one out-of-line call with heat sampling.
        let first = last == u64::MAX;
        if first || self.heat_mode != HeatMode::Off {
            self.record_rare(alloc, page as usize, first);
        }
    }

    /// Record a contiguous forward run of `n` elements of `elem` bytes
    /// starting at byte offset `off` — the coalesced equivalent of calling
    /// [`AccessCtx::record`] once per element, charged with one
    /// classification per page-run instead.
    ///
    /// Bit-identical to the per-element path by construction: the first
    /// element is classified against the stream tracker exactly as the
    /// scalar path would, and every subsequent element of a contiguous
    /// forward run is sequential by the window rule (`off_next == last_end`
    /// always satisfies both window bounds). Destination nodes follow each
    /// element's start byte, so runs split precisely where the per-element
    /// walk would switch pages. On a machine whose spec turns
    /// `bulk_accounting` off this *is* the per-element loop, which is what
    /// the equivalence proptest exercises.
    #[inline]
    pub(crate) fn record_run(
        &mut self,
        alloc: AllocId,
        placement: &Placement,
        off: usize,
        elem: usize,
        n: usize,
        rw: Rw,
    ) {
        if n == 0 {
            return;
        }
        if !self.bulk {
            for k in 0..n {
                self.record(alloc, placement, off + k * elem, elem, rw);
            }
            return;
        }
        let off64 = off as u64;
        let elem64 = elem as u64;
        let last = self.alloc_state(alloc).last_end;
        if last == u64::MAX {
            self.note_touched(alloc);
        }
        let st = &mut self.per[alloc as usize];
        let first_pat = Self::classify(last, off64);
        st.last_end = off64 + elem64 * n as u64;
        // Leave the page cache where the scalar walk would have left it:
        // at the run's final element.
        let last_off = off + (n - 1) * elem;
        st.page = (last_off >> placement.page_shift()) as u64;
        st.node = placement.node_of(last_off);
        let s = &mut st.stat;
        let rwi = rw.index();
        let seqi = Pattern::Seq.index();
        let mut first = Some(first_pat.index());
        placement.for_each_elem_run(off, elem, n, |node, cnt| {
            let mut seq_cnt = cnt as u64;
            if let Some(pi) = first.take() {
                // The run's head keeps its stream-dependent classification.
                s.bytes[rwi][pi][node] += elem64;
                s.count[rwi][pi][node] += 1;
                seq_cnt -= 1;
            }
            if seq_cnt > 0 {
                s.bytes[rwi][seqi][node] += seq_cnt * elem64;
                s.count[rwi][seqi][node] += seq_cnt;
            }
        });
        if self.heat_mode != HeatMode::Off {
            self.note_heat_run(alloc, placement, off, elem, n);
        }
    }

    /// Record `k` accesses of `len` bytes at byte offset `off` — exactly `k`
    /// calls to [`AccessCtx::record`] at one offset, charged with one
    /// classification.
    ///
    /// Bit-identical to the scalar loop by construction: the first access is
    /// classified against the stream tracker as usual and leaves
    /// `last_end = off + len`; every later one starts at `off`, which
    /// satisfies the back window (`off + 64 ≥ off + len` while
    /// `len ≤ 64`) and the forward one, so it is sequential, and it lands on
    /// the page the first one left in the page cache. The literal loop runs
    /// instead when bulk accounting is off (the scalar oracle), when heat is
    /// sampled or counted (the heat paths stay per access) and when
    /// `len > 64`.
    #[inline]
    pub(crate) fn record_repeat(
        &mut self,
        alloc: AllocId,
        placement: &Placement,
        off: usize,
        len: usize,
        k: usize,
        rw: Rw,
    ) {
        if !self.bulk || self.heat_mode != HeatMode::Off || len as u64 > SEQ_WINDOW_BACK {
            for _ in 0..k {
                self.record(alloc, placement, off, len, rw);
            }
            return;
        }
        if k == 0 {
            return;
        }
        self.record(alloc, placement, off, len, rw);
        let rest = (k - 1) as u64;
        let st = &mut self.per[alloc as usize];
        let (rwi, seqi, dst) = (rw.index(), Pattern::Seq.index(), st.node);
        st.stat.bytes[rwi][seqi][dst] += rest * len as u64;
        st.stat.count[rwi][seqi][dst] += rest;
    }

    /// Whether this context wants accesses in program order, one at a
    /// time: with bulk accounting off (the scalar oracle) or while heat is
    /// sampled, where one sampling tick counts the accesses of every
    /// allocation and so the order *across* allocations shows in the
    /// sampled heat. Otherwise an allocation's statistics depend only on its
    /// own access order, and an engine may regroup its accesses by
    /// allocation (X-Stream's word-at-a-time scatter does).
    #[inline]
    pub fn keeps_access_order(&self) -> bool {
        !self.bulk || matches!(self.heat_mode, HeatMode::Sampled(_))
    }

    /// Record page heat for a coalesced run: in `Full` mode each page is
    /// credited with the elements that start on it; in `Sampled` mode the
    /// run advances the access tick and credits any samples it crosses to
    /// the run's first page (the coarse attribution AutoNUMA's periodic
    /// scan would make).
    fn note_heat_run(
        &mut self,
        alloc: AllocId,
        placement: &Placement,
        off: usize,
        elem: usize,
        n: usize,
    ) {
        match self.heat_mode {
            HeatMode::Off => {}
            HeatMode::Full => {
                let shift = placement.page_shift();
                let mut k = 0usize;
                while k < n {
                    let cur = off + k * elem;
                    let page = cur >> shift;
                    let boundary = (page + 1) << shift;
                    let cnt = (boundary - cur).div_ceil(elem.max(1)).min(n - k);
                    self.note_heat(alloc, page, cnt as u32);
                    k += cnt;
                }
            }
            HeatMode::Sampled(p) => {
                let p = u64::from(p.max(1));
                let crossed = (self.heat_tick + n as u64) / p - self.heat_tick / p;
                self.heat_tick += n as u64;
                if crossed > 0 {
                    self.note_heat(alloc, off >> placement.page_shift(), crossed as u32);
                }
            }
        }
    }

    /// Heat hook of the scalar [`AccessCtx::record`] path: full mode counts
    /// the access, sampled mode advances the tick and counts only when it
    /// lands on a sample boundary. Runs pre-aggregate instead (see
    /// [`AccessCtx::note_heat_run`]).
    fn note_heat_scalar(&mut self, alloc: AllocId, page: usize) {
        if let HeatMode::Sampled(p) = self.heat_mode {
            self.heat_tick += 1;
            if !self.heat_tick.is_multiple_of(u64::from(p.max(1))) {
                return;
            }
        }
        self.note_heat(alloc, page, 1);
    }

    /// Credit `by` accesses of heat to one page of one allocation
    /// (unconditional raw bump; sampling is the callers' concern).
    fn note_heat(&mut self, alloc: AllocId, page: usize, by: u32) {
        let i = alloc as usize;
        if i >= self.heat.len() {
            self.heat.resize_with(i + 1, Vec::new);
        }
        let v = &mut self.heat[i];
        if page >= v.len() {
            v.resize(page + 1, 0);
        }
        v[page] = v[page].saturating_add(by);
    }

    /// Set the heat-sampling mode (executor-controlled; only promotion
    /// policies that need heat turn it on).
    pub(crate) fn set_heat_mode(&mut self, mode: HeatMode) {
        self.heat_mode = mode;
    }

    /// Drain the accumulated page heat: `(alloc, per-page counts)` for every
    /// allocation with any recorded heat.
    pub(crate) fn take_heat(&mut self) -> Vec<(AllocId, Vec<u32>)> {
        let mut out = Vec::new();
        for (i, v) in self.heat.iter_mut().enumerate() {
            if v.iter().any(|&c| c > 0) {
                out.push((i as AllocId, std::mem::take(v)));
            }
        }
        out
    }

    /// Charge a page migration as explicit memory traffic: a sequential
    /// read of `bytes` from `from` plus a sequential write to `to`,
    /// attributed to the migrated allocation, counted in cache-line (64 B)
    /// transactions. The tier runtime calls this so promotion/demotion
    /// overhead flows through the ordinary [`crate::CostModel`] integration
    /// and stays visible in `PhaseCost` and the per-socket trace counters.
    pub(crate) fn record_migration(
        &mut self,
        alloc: AllocId,
        bytes: u64,
        from: NodeId,
        to: NodeId,
    ) {
        let lines = bytes.div_ceil(64);
        // Thread 0 may never have accessed the migrated allocation itself.
        self.alloc_state(alloc);
        self.note_touched(alloc);
        let st = &mut self.per[alloc as usize];
        let seqi = Pattern::Seq.index();
        st.stat.bytes[Rw::Read.index()][seqi][from] += bytes;
        st.stat.count[Rw::Read.index()][seqi][from] += lines;
        st.stat.bytes[Rw::Write.index()][seqi][to] += bytes;
        st.stat.count[Rw::Write.index()][seqi][to] += lines;
    }

    /// Charge extra CPU cycles (per-edge arithmetic) to this thread's
    /// current phase.
    #[inline]
    pub fn charge_cycles(&mut self, cycles: f64) {
        self.extra_cycles += cycles;
    }

    /// Take and reset the accumulated statistics; also resets the
    /// sequential-stream trackers (a new phase starts new streams). On
    /// single-tier machines the page→node caches survive: placements are
    /// immutable and allocation ids never reused, so cached resolutions stay
    /// valid across phases. On tiered machines the caches are dropped too,
    /// because the promotion layer migrates pages between phases.
    ///
    /// Only the allocations touched since the previous call are visited.
    /// That is a complete reset: a tracker or page cache changes only in an
    /// access, every access enters its allocation on the touched list, and
    /// an allocation not on the list is still in the state the previous
    /// harvest left it in.
    pub fn take_stats(&mut self) -> AccessStats {
        self.harvest().0
    }

    /// [`AccessCtx::take_stats`] plus the number of [`AllocState`]s it
    /// visited, which a test pins to the number touched.
    fn harvest(&mut self) -> (AccessStats, usize) {
        let mut out = AccessStats {
            per: Vec::with_capacity(self.touched.len()),
            extra_cycles: self.extra_cycles,
        };
        self.extra_cycles = 0.0;
        // Consumers fold in ascending allocation-id order.
        self.touched.sort_unstable();
        let mut visited = 0usize;
        for id in self.touched.drain(..) {
            let st = &mut self.per[id as usize];
            visited += 1;
            st.last_end = u64::MAX;
            if self.tiered {
                st.page = u64::MAX;
            }
            st.touched = false;
            out.per.push((id, Box::new(std::mem::take(&mut st.stat))));
        }
        (out, visited)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AllocPolicy;
    use crate::topology::MachineSpec;
    use proptest::prelude::*;

    /// The counters of allocation `id`, if `s` recorded any.
    fn arr(s: &AccessStats, id: AllocId) -> Option<&ArrStat> {
        s.iter_arrays().find(|&(a, _)| a == id).map(|(_, st)| st)
    }

    /// Transactions over all of one allocation's buckets.
    fn count(st: &ArrStat) -> u64 {
        st.count.iter().flatten().flatten().sum()
    }

    fn setup() -> (Machine, AccessCtx) {
        let m = Machine::new(MachineSpec::test2());
        let ctx = AccessCtx::new(&m, 0);
        (m, ctx)
    }

    #[test]
    fn streaming_is_sequential_after_first_touch() {
        let (m, mut ctx) = setup();
        let a = m.alloc_array_with("a", 4096, AllocPolicy::OnNode(0), |i| i as u64);
        for i in 0..100 {
            a.get(&mut ctx, i);
        }
        let s = ctx.take_stats();
        let st = arr(&s, a.alloc_id()).unwrap();
        // First access is cold (random); the rest stream sequentially.
        assert_eq!(st.count[Rw::Read.index()][Pattern::Rand.index()][0], 1);
        assert_eq!(st.count[Rw::Read.index()][Pattern::Seq.index()][0], 99);
    }

    #[test]
    fn strided_access_is_random() {
        let (m, mut ctx) = setup();
        let a = m.alloc_array_with("a", 4096, AllocPolicy::OnNode(0), |i| i as u64);
        for i in (0..4096).step_by(512) {
            a.get(&mut ctx, i);
        }
        let s = ctx.take_stats();
        let st = arr(&s, a.alloc_id()).unwrap();
        assert_eq!(st.count[0][Pattern::Rand.index()][0], 8);
        assert_eq!(st.count[0][Pattern::Seq.index()][0], 0);
    }

    #[test]
    fn small_forward_gaps_stay_sequential() {
        let (m, mut ctx) = setup();
        let a = m.alloc_array_with("a", 4096, AllocPolicy::OnNode(0), |i| i as u64);
        // Stride of 8 elements = 64 bytes: within the 128-byte window.
        for i in (0..1024).step_by(8) {
            a.get(&mut ctx, i);
        }
        let s = ctx.take_stats();
        let st = arr(&s, a.alloc_id()).unwrap();
        assert_eq!(st.count[0][Pattern::Seq.index()][0], 127);
    }

    #[test]
    fn destination_node_follows_pages() {
        let (m, mut ctx) = setup();
        // Interleaved: elements 0..511 on node 0, 512..1023 on node 1.
        let a = m.alloc_array::<u64>("a", 1024, AllocPolicy::Interleaved);
        a.get(&mut ctx, 0);
        a.get(&mut ctx, 600);
        let s = ctx.take_stats();
        let st = arr(&s, a.alloc_id()).unwrap();
        let total_node0: u64 = (0..2).map(|p| st.count[0][p][0]).sum();
        let total_node1: u64 = (0..2).map(|p| st.count[0][p][1]).sum();
        assert_eq!(total_node0, 1);
        assert_eq!(total_node1, 1);
    }

    #[test]
    fn take_stats_resets_streams() {
        let (m, mut ctx) = setup();
        let a = m.alloc_array::<u64>("a", 64, AllocPolicy::OnNode(0));
        a.get(&mut ctx, 0);
        a.get(&mut ctx, 1);
        let s1 = ctx.take_stats();
        assert_eq!(s1.total_count(), 2);
        // After reset the next access is cold again.
        a.get(&mut ctx, 2);
        let s2 = ctx.take_stats();
        let st = arr(&s2, a.alloc_id()).unwrap();
        assert_eq!(st.count[0][Pattern::Rand.index()][0], 1);
    }

    #[test]
    fn take_stats_visits_only_touched_allocations() {
        const LIVE: usize = 50_000;
        let (m, mut ctx) = setup();
        let arrays: Vec<_> = (0..LIVE)
            .map(|_| m.alloc_array::<u64>("a", 2, AllocPolicy::OnNode(0)))
            .collect();
        // A phase over every allocation: the context now tracks all of them.
        for a in &arrays {
            a.get(&mut ctx, 0);
        }
        let (all, visited) = ctx.harvest();
        assert_eq!(visited, LIVE);
        assert_eq!(all.total_count(), LIVE as u64);
        // A phase over one of them costs one entry, not fifty thousand.
        let hot = &arrays[31_337];
        hot.get(&mut ctx, 0);
        let (one, visited) = ctx.harvest();
        assert_eq!(visited, 1);
        assert_eq!(one.iter_arrays().count(), 1);
        assert_eq!(arr(&one, hot.alloc_id()).map(count), Some(1));
        // Skipping the others lost nothing: their stream trackers were reset
        // when they were harvested, so continuing a stream is cold again.
        arrays[7].get(&mut ctx, 1);
        let (next, visited) = ctx.harvest();
        assert_eq!(visited, 1);
        let st = arr(&next, arrays[7].alloc_id()).unwrap();
        assert_eq!(st.count[Rw::Read.index()][Pattern::Rand.index()][0], 1);
        // An idle phase visits nothing.
        assert_eq!(ctx.harvest().1, 0);
    }

    #[test]
    fn stats_are_keyed_in_ascending_allocation_order() {
        let (m, mut ctx) = setup();
        let arrays: Vec<_> = (0..5)
            .map(|_| m.alloc_array::<u64>("a", 8, AllocPolicy::OnNode(0)))
            .collect();
        // First-touch order is descending and interleaved; it must not show.
        for k in [4usize, 1, 3, 1, 0] {
            arrays[k].get(&mut ctx, 0);
        }
        let ids = |s: &AccessStats| s.iter_arrays().map(|(a, _)| a).collect::<Vec<_>>();
        let want: Vec<AllocId> = [0usize, 1, 3, 4]
            .iter()
            .map(|&k| arrays[k].alloc_id())
            .collect();
        let taken = ctx.take_stats();
        assert_eq!(ids(&taken), want);
        assert_eq!(arr(&taken, arrays[1].alloc_id()).map(count), Some(2));
        assert!(arr(&taken, arrays[2].alloc_id()).is_none());
    }

    #[test]
    fn ctx_accessors_reflect_binding() {
        let m = Machine::new(MachineSpec::test2());
        let ctx = AccessCtx::new(&m, 3);
        assert_eq!(ctx.node(), 1);
        assert_eq!(ctx.tid(), 3);
    }

    #[test]
    fn charge_cycles_accumulates_and_merges() {
        let m = Machine::new(MachineSpec::test2());
        let mut ctx = AccessCtx::new(&m, 0);
        ctx.charge_cycles(10.0);
        ctx.charge_cycles(5.5);
        let s1 = ctx.take_stats();
        assert_eq!(s1.extra_cycles, 15.5);
        ctx.charge_cycles(1.0);
        // Each take holds what was charged since the last one, so the
        // phases' stats merge (add up) to everything charged.
        let s2 = ctx.take_stats();
        assert_eq!(s1.extra_cycles + s2.extra_cycles, 16.5);
    }

    #[test]
    fn full_heat_counts_every_access_per_page() {
        let (m, mut ctx) = setup();
        ctx.set_heat_mode(HeatMode::Full);
        // 1024 u64 elements = 2 pages of 512 elements.
        let a = m.alloc_array_with("a", 1024, AllocPolicy::OnNode(0), |i| i as u64);
        for i in 0..600 {
            a.get(&mut ctx, i);
        }
        a.get(&mut ctx, 5); // one extra random touch of page 0
        let heat = ctx.take_heat();
        assert_eq!(heat.len(), 1);
        let (id, pages) = &heat[0];
        assert_eq!(*id, a.alloc_id());
        assert_eq!(pages[0], 513);
        assert_eq!(pages[1], 88);
        // Drained: a second take is empty.
        assert!(ctx.take_heat().is_empty());
    }

    #[test]
    fn bulk_and_scalar_full_heat_agree() {
        let (m, mut ctx) = setup();
        ctx.set_heat_mode(HeatMode::Full);
        let a = m.alloc_array_with("a", 2048, AllocPolicy::Interleaved, |i| i as u64);
        let mut sum = 0u64;
        for i in 100..1600 {
            sum += a.get(&mut ctx, i);
        }
        let scalar = ctx.take_heat();
        let mut ctx2 = AccessCtx::new(&m, 0);
        ctx2.set_heat_mode(HeatMode::Full);
        sum += a.iter_seq(&mut ctx2, 100..1600).sum::<u64>();
        let bulk = ctx2.take_heat();
        assert_eq!(scalar, bulk);
        assert!(sum > 0);
    }

    #[test]
    fn sampled_heat_counts_one_in_n() {
        let (m, mut ctx) = setup();
        ctx.set_heat_mode(HeatMode::Sampled(10));
        let a = m.alloc_array_with("a", 512, AllocPolicy::OnNode(0), |i| i as u64);
        for i in 0..100 {
            a.get(&mut ctx, i % 512);
        }
        let heat = ctx.take_heat();
        let total: u32 = heat.iter().flat_map(|(_, v)| v.iter()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn record_migration_charges_both_endpoints() {
        let (m, mut ctx) = setup();
        let a = m.alloc_array::<u64>("a", 512, AllocPolicy::OnNode(0));
        ctx.record_migration(a.alloc_id(), 4096, 1, 0);
        let s = ctx.take_stats();
        let st = arr(&s, a.alloc_id()).unwrap();
        let seqi = Pattern::Seq.index();
        assert_eq!(st.bytes[Rw::Read.index()][seqi][1], 4096);
        assert_eq!(st.count[Rw::Read.index()][seqi][1], 64);
        assert_eq!(st.bytes[Rw::Write.index()][seqi][0], 4096);
        assert_eq!(st.count[Rw::Write.index()][seqi][0], 64);
    }

    #[test]
    fn tiered_ctx_reresolves_pages_after_take_stats() {
        let m = Machine::new(MachineSpec::test2_tiered());
        let mut ctx = AccessCtx::new(&m, 0);
        let a = m.alloc_array_with("a", 512, AllocPolicy::OnNode(0), |i| i as u64);
        a.get(&mut ctx, 0);
        ctx.take_stats();
        // Migrate page 0 to the slow tier between phases.
        assert_eq!(m.migrate_page(a.alloc_id(), 0, 2), Some(0));
        a.get(&mut ctx, 1);
        let s = ctx.take_stats();
        let st = arr(&s, a.alloc_id()).unwrap();
        let hit_node2: u64 = (0..2).map(|p| st.count[0][p][2]).sum();
        assert_eq!(
            hit_node2, 1,
            "post-migration access must resolve the new home"
        );
    }

    /// Everything an access can leave behind in a context: every
    /// allocation's tracker, page cache, touched flag and counters, the
    /// touched list, the extra cycles and the heat.
    fn state_of(ctx: &AccessCtx) -> String {
        let per: Vec<String> = ctx
            .per
            .iter()
            .map(|st| {
                let s = &st.stat;
                format!(
                    "{} {} {} {} {:?} {:?}",
                    st.last_end, st.page, st.node, st.touched, s.bytes, s.count
                )
            })
            .collect();
        format!(
            "{per:?} {:?} {} {:?} {}",
            ctx.touched, ctx.extra_cycles, ctx.heat, ctx.heat_tick
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // `record_repeat(.., k, ..)` against `k` calls to `record` on a twin
        // context, over every placement shape, element size (96 B takes the
        // `len > 64` fallback), heat mode, tier layout, accounting mode,
        // `k` in {0, 1, 2, drawn}, a cold tracker and a tracker warmed by a
        // drawn prefix; compared after the repeat, after one more access and
        // after the harvest.
        #[test]
        fn record_repeat_is_k_scalar_records(
            offs in (0usize..4096, 0usize..4096, 0usize..4096),
            draws in (3usize..300, 1usize..6, 1u32..7, 0u8..2),
            cut in 1usize..4096,
        ) {
            let (at, warm_at, next_at) = offs;
            let (k_drawn, warm_len, period, rw_pick) = draws;
            let rw = if rw_pick == 0 { Rw::Read } else { Rw::Write };
            let n = 4096usize;
            let policies = [
                AllocPolicy::OnNode(1),
                AllocPolicy::Interleaved,
                AllocPolicy::ChunkedElems(vec![(cut, 1), (n - cut, 0)]),
            ];
            let heats = [HeatMode::Off, HeatMode::Full, HeatMode::Sampled(period)];
            for tiered in [false, true] {
                for bulk in [true, false] {
                    let spec = if tiered { MachineSpec::test2_tiered() } else { MachineSpec::test2() };
                    let m = Machine::new(spec.with_bulk_accounting(bulk));
                    for policy in &policies {
                        for elem in [4usize, 8, 96] {
                            let pl = Placement::resolve_paged(policy, n, elem, 2, 4096);
                            for heat in heats {
                                for k in [0usize, 1, 2, k_drawn] {
                                    for warm in [false, true] {
                                        let mut fast = AccessCtx::new(&m, 0);
                                        let mut slow = AccessCtx::new(&m, 0);
                                        let what = format!(
                                            "tiered={tiered} bulk={bulk} {policy:?} elem={elem} \
                                             {heat:?} k={k} warm={warm}"
                                        );
                                        for c in [&mut fast, &mut slow] {
                                            c.set_heat_mode(heat);
                                            // Another allocation first, so the
                                            // repeated one is not id 0 and the
                                            // heat tick is shared.
                                            c.record(0, &pl, 0, elem, Rw::Read);
                                            if warm {
                                                for j in 0..warm_len {
                                                    let off = (warm_at + j) % n * elem;
                                                    c.record(3, &pl, off, elem, Rw::Read);
                                                }
                                            }
                                        }
                                        fast.record_repeat(3, &pl, at * elem, elem, k, rw);
                                        for _ in 0..k {
                                            slow.record(3, &pl, at * elem, elem, rw);
                                        }
                                        prop_assert_eq!(state_of(&fast), state_of(&slow), "{}", what);
                                        for c in [&mut fast, &mut slow] {
                                            c.record(3, &pl, next_at * elem, elem, Rw::Read);
                                        }
                                        prop_assert_eq!(state_of(&fast), state_of(&slow), "{}", what);
                                        let (f, s) = (fast.take_stats(), slow.take_stats());
                                        prop_assert_eq!(format!("{f:?}"), format!("{s:?}"), "{}", what);
                                        prop_assert_eq!(fast.take_heat(), slow.take_heat(), "{}", what);
                                        prop_assert_eq!(state_of(&fast), state_of(&slow), "{}", what);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
