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

use std::sync::OnceLock;

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

/// Bytes moved and transactions of one `(rw, pattern)` bucket.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Bytes moved.
    pub bytes: u64,
    /// Transactions.
    pub count: u64,
}

/// Access counters of one allocation toward one destination node, indexed
/// `[Rw::index()][Pattern::index()]`: four tallies, one 64-byte cache line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DstStat(pub [[Tally; 2]; 2]);

const _: () = assert!(std::mem::size_of::<DstStat>() == 64);

impl DstStat {
    /// Whether any access landed in this line. A tally's bytes are nonzero
    /// only if its count is (every access counts one transaction, a
    /// migration one per cache line), so the counts decide.
    #[inline]
    fn is_empty(&self) -> bool {
        let [[rs, rr], [ws, wr]] = self.0;
        (rs.count | rr.count | ws.count | wr.count) == 0
    }

    /// Add another line's tallies into this one.
    fn add(&mut self, other: &DstStat) {
        for (mine, theirs) in self.0.iter_mut().flatten().zip(other.0.iter().flatten()) {
            mine.bytes += theirs.bytes;
            mine.count += theirs.count;
        }
    }
}

/// Access counters of one allocation in a context, destination-major: one
/// [`DstStat`] line per node, aligned so each line is one cache line. Only
/// the machine's first `num_nodes()` lines are ever written.
#[derive(Clone, Default)]
#[repr(align(64))]
struct ArrStat([DstStat; MAX_NODES]);

/// Classified access statistics of one simulated thread, keyed by
/// allocation. Only what the phase wrote is stored: the touched allocations
/// in ascending allocation-id order — the order every consumer folds in —
/// each with its destination lines that counted any access, in ascending
/// node order, all in one buffer. A phase's statistics therefore cost what
/// the phase wrote, not how many allocations the machine has ever made or
/// how many nodes it has.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AccessStats {
    /// Each allocation with the end of its run of `lines`, ascending id.
    arrays: Vec<(AllocId, usize)>,
    /// `(destination node, counters)` of every allocation in `arrays`,
    /// allocation-major.
    lines: Vec<(NodeId, DstStat)>,
    /// Extra CPU cycles charged via [`AccessCtx::charge_cycles`]
    /// (per-edge arithmetic beyond the memory accesses).
    pub extra_cycles: f64,
}

impl AccessStats {
    /// Iterate over the allocations with any recorded accesses, in ascending
    /// allocation-id order, each with its nonempty destination lines in
    /// ascending node order.
    pub fn iter_arrays(&self) -> impl Iterator<Item = (AllocId, &[(NodeId, DstStat)])> {
        let mut start = 0;
        self.arrays.iter().map(move |&(id, end)| {
            let lines = &self.lines[start..end];
            start = end;
            (id, lines)
        })
    }

    /// Every tally of every line.
    fn tallies(&self) -> impl Iterator<Item = &Tally> {
        self.lines.iter().flat_map(|(_, l)| l.0.iter().flatten())
    }

    /// Total transactions.
    pub fn total_count(&self) -> u64 {
        self.tallies().map(|t| t.count).sum()
    }

    /// Total bytes.
    pub fn total_bytes(&self) -> u64 {
        self.tallies().map(|t| t.bytes).sum()
    }
}

/// An allocation as [`AccessCtx::replay_walk`] names it: its id and its
/// placement (from `alloc_ref` on the instrumented arrays).
#[derive(Clone, Copy)]
pub struct AllocRef<'a> {
    pub(crate) id: AllocId,
    pub(crate) placement: &'a Placement,
}

/// The counter lines one context charged to a list of allocations, kept by
/// position in the list (the allocation's *role*) with the placement each
/// had. It holds no cycles: a walk whose charges are captured charges none.
#[derive(Clone, Debug, PartialEq)]
pub struct Capture {
    roles: Vec<(Placement, Vec<(NodeId, DstStat)>)>,
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
    /// is lookup → classify → two adds into one cache line.
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
    /// The machine's node count: how many lines of each [`ArrStat`] a
    /// harvest scans.
    nnodes: usize,
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
            nnodes: topo.num_nodes(),
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
        let t = &mut st.stat.0[dst].0[rw.index()][pat.index()];
        t.bytes += len as u64;
        t.count += 1;
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
            let line = &mut s.0[node].0[rwi];
            let mut seq_cnt = cnt as u64;
            if let Some(pi) = first.take() {
                // The run's head keeps its stream-dependent classification.
                line[pi].bytes += elem64;
                line[pi].count += 1;
                seq_cnt -= 1;
            }
            if seq_cnt > 0 {
                line[seqi].bytes += seq_cnt * elem64;
                line[seqi].count += seq_cnt;
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
        let t = &mut st.stat.0[st.node].0[rw.index()][Pattern::Seq.index()];
        t.bytes += rest * len as u64;
        t.count += rest;
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
        let st = &mut self.per[alloc as usize].stat;
        let seqi = Pattern::Seq.index();
        let read = &mut st.0[from].0[Rw::Read.index()][seqi];
        read.bytes += bytes;
        read.count += lines;
        let write = &mut st.0[to].0[Rw::Write.index()][seqi];
        write.bytes += bytes;
        write.count += lines;
    }

    /// Charge extra CPU cycles (per-edge arithmetic) to this thread's
    /// current phase.
    #[inline]
    pub fn charge_cycles(&mut self, cycles: f64) {
        self.extra_cycles += cycles;
    }

    /// Copy this context's counter lines for `allocs`, without resetting
    /// them.
    pub(crate) fn capture(&self, allocs: &[AllocRef<'_>]) -> Capture {
        let lines = |id: AllocId| match self.per.get(id as usize) {
            Some(st) => (st.stat.0[..self.nnodes].iter().enumerate())
                .filter(|(_, line)| !line.is_empty())
                .map(|(dst, line)| (dst, *line))
                .collect(),
            None => Vec::new(),
        };
        Capture {
            roles: (allocs.iter())
                .map(|a| (a.placement.clone(), lines(a.id)))
                .collect(),
        }
    }

    /// Add `cap`'s lines into `allocs`, role by role, and put `allocs` on
    /// the touched list — what the captured walk would charge them if it
    /// ran again from a harvested state (`docs/SIMULATOR.md` §4). Refuses, charging nothing, unless bulk
    /// accounting is on, the machine has one tier, heat is off and every
    /// allocation's placement equals the captured one.
    pub(crate) fn replay(&mut self, cap: &Capture, allocs: &[AllocRef<'_>]) -> bool {
        if !self.bulk
            || self.tiered
            || self.heat_mode != HeatMode::Off
            || cap.roles.len() != allocs.len()
            || (cap.roles.iter().zip(allocs)).any(|((pl, _), a)| pl != a.placement)
        {
            return false;
        }
        for ((_, lines), a) in cap.roles.iter().zip(allocs) {
            let st = self.alloc_state(a.id);
            debug_assert!(!st.touched, "a replayed allocation was charged first");
            for (dst, line) in lines {
                st.stat.0[*dst].add(line);
            }
            self.note_touched(a.id);
        }
        true
    }

    /// Run `walk` for a loop whose charges to `allocs` do not change from
    /// one run of the loop to the next. The first run is charged
    /// (`walk(ctx, true)`) and captured into `memo`; a later run replays
    /// the capture and walks with `charged == false`, reading `allocs`
    /// unaccounted, whenever `AccessCtx::replay` accepts it. Only the
    /// walk may touch `allocs` in the phase.
    pub fn replay_walk<R>(
        &mut self,
        memo: &OnceLock<Capture>,
        allocs: &[AllocRef<'_>],
        walk: impl FnOnce(&mut AccessCtx, bool) -> R,
    ) -> R {
        if let Some(cap) = memo.get() {
            if self.replay(cap, allocs) {
                let out = walk(self, false);
                debug_assert!(
                    self.capture(allocs) == *cap,
                    "a replayed allocation was charged outside the walk"
                );
                return out;
            }
        }
        let out = walk(self, true);
        memo.get_or_init(|| self.capture(allocs));
        out
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
    /// harvest left it in. Of each, only the machine's `num_nodes()` lines
    /// are scanned; the ones that counted an access are copied out and
    /// zeroed in place, so the counters are all zero again afterwards.
    pub fn take_stats(&mut self) -> AccessStats {
        self.harvest().0
    }

    /// [`AccessCtx::take_stats`] plus the number of [`AllocState`]s it
    /// visited, which a test pins to the number touched.
    fn harvest(&mut self) -> (AccessStats, usize) {
        let mut out = AccessStats {
            arrays: Vec::with_capacity(self.touched.len()),
            lines: Vec::with_capacity(self.touched.len()),
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
            let start = out.lines.len();
            for (dst, line) in st.stat.0[..self.nnodes].iter_mut().enumerate() {
                if !line.is_empty() {
                    out.lines.push((dst, std::mem::take(line)));
                }
            }
            if out.lines.len() > start {
                out.arrays.push((id, out.lines.len()));
            }
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

    /// The dense `[rw][pattern][dst]` counter shape the destination-major
    /// lines replaced, kept as the tests' view of one allocation's counters
    /// and as the oracle's tally.
    #[derive(Clone, Debug, Default, PartialEq)]
    struct DenseStat {
        bytes: [[[u64; MAX_NODES]; 2]; 2],
        count: [[[u64; MAX_NODES]; 2]; 2],
    }

    impl DenseStat {
        fn add(&mut self, rw: Rw, pat: Pattern, dst: NodeId, bytes: u64, count: u64) {
            self.bytes[rw.index()][pat.index()][dst] += bytes;
            self.count[rw.index()][pat.index()][dst] += count;
        }

        /// Spread harvested lines back into the dense shape.
        fn of(lines: &[(NodeId, DstStat)]) -> DenseStat {
            let mut d = DenseStat::default();
            for &(dst, ref line) in lines {
                for rw in 0..2 {
                    for pat in 0..2 {
                        d.bytes[rw][pat][dst] += line.0[rw][pat].bytes;
                        d.count[rw][pat][dst] += line.0[rw][pat].count;
                    }
                }
            }
            d
        }
    }

    /// The counters of allocation `id`, if `s` recorded any.
    fn arr(s: &AccessStats, id: AllocId) -> Option<DenseStat> {
        s.iter_arrays()
            .find(|&(a, _)| a == id)
            .map(|(_, lines)| DenseStat::of(lines))
    }

    /// Transactions over all of one allocation's buckets.
    fn count(st: DenseStat) -> u64 {
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

    #[test]
    fn a_replayed_walk_harvests_the_literal_charges() {
        let n = 4096usize;
        let pl = |policy: AllocPolicy| Placement::resolve_paged(&policy, n, 8, 2, 4096);
        let topo = pl(AllocPolicy::Interleaved);
        let chunked = pl(AllocPolicy::ChunkedElems(vec![(1000, 1), (n - 1000, 0)]));
        // Allocations 0 and 1 are topology, read as offset pairs and runs;
        // `bits` is a fresh allocation per walk, tested per element; 2 is
        // read only behind the test (never replayed).
        let walk = |ctx: &mut AccessCtx, bits: AllocId, charged: bool| {
            for k in 0..64usize {
                let at = k * 397 % (n - 80);
                if charged {
                    ctx.record(0, &topo, at * 8, 8, Rw::Read);
                    ctx.record(0, &topo, (at + 1) * 8, 8, Rw::Read);
                    ctx.record_run(1, &topo, at * 8, 8, 40, Rw::Read);
                }
                for j in 0..40 {
                    let v = (at * 31 + j * 13) % n;
                    if charged {
                        ctx.record(bits, &chunked, v * 8, 8, Rw::Read);
                    }
                    if v.is_multiple_of(7) {
                        ctx.record(2, &topo, v * 8, 8, Rw::Write);
                    }
                }
            }
        };
        fn roles<'a>(
            topo: &'a Placement,
            bits: AllocId,
            bits_pl: &'a Placement,
        ) -> [AllocRef<'a>; 3] {
            [(0, topo), (1, topo), (bits, bits_pl)]
                .map(|(id, placement)| AllocRef { id, placement })
        }
        let m = Machine::new(MachineSpec::test2());
        let memo = OnceLock::new();
        let mut ctx = AccessCtx::new(&m, 0);
        for bits in 3..6 {
            // The literal walk on a twin context is the reference.
            let mut literal = AccessCtx::new(&m, 0);
            walk(&mut literal, bits, true);
            let want = literal.take_stats();
            ctx.replay_walk(&memo, &roles(&topo, bits, &chunked), |ctx, charged| {
                assert_eq!(charged, bits == 3, "only the first walk is charged");
                walk(ctx, bits, charged);
            });
            assert_eq!(ctx.take_stats(), want, "walk over allocation {bits}");
            assert_eq!(want.extra_cycles, 0.0);
        }
        let cap = memo.get().expect("the first walk captured");
        let refused = |ctx: &mut AccessCtx, placement: &Placement| {
            !ctx.replay(cap, &roles(&topo, 6, placement))
                && ctx.take_stats() == AccessStats::default()
        };
        assert!(refused(&mut ctx, &topo), "a placement change");
        let tiered = Machine::new(MachineSpec::test2_tiered());
        assert!(refused(&mut AccessCtx::new(&tiered, 0), &chunked), "tiered");
        ctx.set_heat_mode(HeatMode::Full);
        assert!(refused(&mut ctx, &chunked), "heat on");
        let scalar = Machine::new(MachineSpec::test2().with_bulk_accounting(false));
        assert!(
            refused(&mut AccessCtx::new(&scalar, 0), &chunked),
            "bulk off"
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
                format!(
                    "{} {} {} {} {:?}",
                    st.last_end, st.page, st.node, st.touched, st.stat.0
                )
            })
            .collect();
        format!(
            "{per:?} {:?} {} {:?} {}",
            ctx.touched, ctx.extra_cycles, ctx.heat, ctx.heat_tick
        )
    }

    /// One step of a recording script, over allocation `alloc` of three.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Record {
            alloc: usize,
            at: usize,
            rw: Rw,
        },
        Run {
            alloc: usize,
            at: usize,
            n: usize,
            rw: Rw,
        },
        Repeat {
            alloc: usize,
            at: usize,
            k: usize,
            rw: Rw,
        },
        Migration {
            alloc: usize,
            bytes: u64,
            from: NodeId,
            to: NodeId,
        },
        Take,
    }

    /// The oracle: every access replayed as one scalar access, classified
    /// by the window rule and tallied into the dense shape.
    #[derive(Default)]
    struct Oracle {
        last_end: [u64; 3],
        tally: [DenseStat; 3],
    }

    impl Oracle {
        fn new() -> Oracle {
            Oracle {
                last_end: [u64::MAX; 3],
                ..Oracle::default()
            }
        }

        fn access(&mut self, alloc: usize, pl: &Placement, off: usize, len: usize, rw: Rw) {
            let (off64, last) = (off as u64, self.last_end[alloc]);
            let seq = last != u64::MAX && off64 + 64 >= last && off64 <= last + 128;
            let pat = if seq { Pattern::Seq } else { Pattern::Rand };
            self.tally[alloc].add(rw, pat, pl.node_of(off), len as u64, 1);
            self.last_end[alloc] = off64 + len as u64;
        }
    }

    /// A script drawn as `(kind and direction, alloc, position, amount)`
    /// tuples, on `nn` nodes and allocations of `n` elements.
    fn script(raw: &[(u8, usize, usize, usize)], nn: usize, n: usize) -> Vec<Op> {
        raw.iter()
            .map(|&(pick, alloc, at, amount)| {
                let rw = if pick % 2 == 0 { Rw::Read } else { Rw::Write };
                match pick / 2 {
                    0 => Op::Record { alloc, at, rw },
                    1 => Op::Run {
                        alloc,
                        at,
                        n: amount.min(n - at),
                        rw,
                    },
                    2 => Op::Repeat {
                        alloc,
                        at,
                        k: amount,
                        rw,
                    },
                    3 => Op::Migration {
                        alloc,
                        // One draw in ten migrates nothing and charges
                        // nothing, though it touches the allocation.
                        bytes: amount.saturating_sub(30) as u64 * 37,
                        from: at % nn,
                        to: (at / 7) % nn,
                    },
                    _ => Op::Take,
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // Random scripts of `record`, `record_run`, `record_repeat` and
        // `record_migration` over three allocations (on one node, interleaved
        // and chunked across every node), with harvests in between, on 1-,
        // 2-, 4- and 8-node machines with bulk accounting on and off. Every
        // harvest must equal the dense scalar oracle and carry only
        // destination lines that counted an access, in ascending allocation
        // and node order.
        #[test]
        fn harvested_lines_match_a_dense_tally(
            raw in proptest::collection::vec((0u8..10, 0usize..3, 0usize..4096, 0usize..300), 1..80),
            shape in (1usize..4096, 0usize..8, 0usize..3),
        ) {
            let (cut, rot, elem_pick) = shape;
            let n = 4096usize;
            for nn in [1usize, 2, 4, 8] {
                let on_node = AllocPolicy::OnNode(rot % nn);
                let mut chunks = vec![(cut, rot % nn)];
                for k in 0..nn {
                    let len = (n - cut) / nn + usize::from(k < (n - cut) % nn);
                    chunks.push((len, (rot + 1 + k) % nn));
                }
                let policies = [on_node, AllocPolicy::Interleaved, AllocPolicy::ChunkedElems(chunks)];
                // 96-byte elements take `record_repeat`'s scalar fallback.
                let elems = [[8usize, 4, 96], [4, 96, 8], [96, 8, 4]][elem_pick];
                let pls: Vec<Placement> = (0..3)
                    .map(|a| Placement::resolve_paged(&policies[a], n, elems[a], nn, 4096))
                    .collect();
                let ops = script(&raw, nn, n);
                for bulk in [true, false] {
                    let spec = MachineSpec::intel80().subset(nn, 1).with_bulk_accounting(bulk);
                    let m = Machine::new(spec);
                    let mut ctx = AccessCtx::new(&m, 0);
                    let mut oracle = Oracle::new();
                    let what = format!("nodes={nn} bulk={bulk} elems={elems:?}");
                    for op in ops.iter().copied().chain([Op::Take]) {
                        match op {
                            Op::Record { alloc, at, rw } => {
                                let off = at * elems[alloc];
                                ctx.record(alloc as AllocId, &pls[alloc], off, elems[alloc], rw);
                                oracle.access(alloc, &pls[alloc], off, elems[alloc], rw);
                            }
                            Op::Run { alloc, at, n, rw } => {
                                let (e, off) = (elems[alloc], at * elems[alloc]);
                                ctx.record_run(alloc as AllocId, &pls[alloc], off, e, n, rw);
                                for j in 0..n {
                                    oracle.access(alloc, &pls[alloc], off + j * e, e, rw);
                                }
                            }
                            Op::Repeat { alloc, at, k, rw } => {
                                let (e, off) = (elems[alloc], at * elems[alloc]);
                                ctx.record_repeat(alloc as AllocId, &pls[alloc], off, e, k, rw);
                                for _ in 0..k {
                                    oracle.access(alloc, &pls[alloc], off, e, rw);
                                }
                            }
                            Op::Migration { alloc, bytes, from, to } => {
                                ctx.record_migration(alloc as AllocId, bytes, from, to);
                                let lines = bytes.div_ceil(64);
                                let t = &mut oracle.tally[alloc];
                                t.add(Rw::Read, Pattern::Seq, from, bytes, lines);
                                t.add(Rw::Write, Pattern::Seq, to, bytes, lines);
                            }
                            Op::Take => {
                                let got = ctx.take_stats();
                                let ids: Vec<AllocId> = got.iter_arrays().map(|(a, _)| a).collect();
                                prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "{} {:?}", what, ids);
                                for (a, lines) in got.iter_arrays() {
                                    prop_assert!(!lines.is_empty(), "{} empty allocation {}", what, a);
                                    prop_assert!(lines.windows(2).all(|w| w[0].0 < w[1].0), "{}", what);
                                    for (dst, line) in lines {
                                        prop_assert!(*dst < nn && !line.is_empty(), "{} dst {}", what, dst);
                                    }
                                }
                                for a in 0..3 {
                                    let want = std::mem::take(&mut oracle.tally[a]);
                                    let have = arr(&got, a as AllocId).unwrap_or_default();
                                    prop_assert_eq!(have, want, "{} alloc {}", what, a);
                                }
                                oracle.last_end = [u64::MAX; 3];
                                // The lines were zeroed in place: an idle
                                // harvest carries nothing.
                                prop_assert_eq!(ctx.take_stats(), AccessStats::default(), "{}", what);
                            }
                        }
                    }
                }
            }
        }

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
                                        prop_assert_eq!(f, s, "{}", what);
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
