//! Deterministic fault-injection plans.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sentinel for "no allocation has failed yet" in [`PlanState`].
const NO_FAILED_ALLOC: u64 = u64::MAX;

/// A deterministic schedule of faults to inject into one run.
///
/// A plan is a cheap clone: the immutable *schedule* (which faults fire
/// where) and the mutable *trigger state* (allocation counters, one-shot
/// spent flags) live in two separate `Arc`s. The machine, the barriers and
/// the executor all hold clones of the same plan, so trigger state is global
/// to the run and the schedule is reproducible. A default plan injects
/// nothing and costs one relaxed atomic load per potential trigger point.
///
/// Two properties matter for retry/resume supervision:
///
/// - **One-shot faults stay spent across clones.** Worker panics and
///   nth-allocation failures model *transient* events: once fired, they do
///   not fire again on a clone of the same plan, so a supervised retry that
///   resumes past the trigger point genuinely recovers. Stragglers and
///   capacity clamps are *environmental* and stateless — they re-fire on
///   every attempt that crosses their trigger.
/// - **[`FaultPlan::fork_attempt`] resets the trigger state** (fresh
///   counters, nothing spent) while sharing the schedule, so a chaos harness
///   can make every attempt see the identical fault sequence.
///
/// Builder methods are copy-on-write: editing a cloned plan diverges its
/// schedule without touching the clone it was made from, while the trigger
/// state stays shared. Repeated calls to site builders *compose* — e.g. two
/// `panic_worker_at` calls register two independent panic sites.
///
/// ```
/// use polymer_faults::FaultPlan;
/// use std::time::Duration;
///
/// let plan = FaultPlan::new()
///     .fail_nth_alloc(3)
///     .panic_worker_at(1, 2)
///     .barrier_timeout(Duration::from_secs(5));
/// assert!(!plan.should_fail_alloc()); // allocation 0
/// assert!(!plan.should_fail_alloc()); // allocation 1
/// assert!(!plan.should_fail_alloc()); // allocation 2
/// assert!(plan.should_fail_alloc()); // allocation 3 fails
/// assert!(plan.should_panic_worker(1, 2));
/// assert!(!plan.should_panic_worker(1, 2)); // one-shot: spent
/// let retry = plan.fork_attempt();
/// assert!(retry.should_panic_worker(1, 2)); // fresh attempt re-fires
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    cfg: Arc<PlanCfg>,
    state: Arc<PlanState>,
}

/// The immutable schedule: which faults fire at which trigger points.
#[derive(Clone, Debug, Default)]
struct PlanCfg {
    /// Fail the allocations with these zero-based indices.
    fail_allocs: Vec<u64>,
    /// Clamp every node's memory capacity to this many bytes (overrides any
    /// larger spec capacity).
    node_capacity_clamp: Option<u64>,
    /// Delay worker `tid` by `delay` at the start of iteration `iteration`.
    stragglers: Vec<(usize, usize, Duration)>,
    /// Panic worker `tid` at the start of iteration `iteration`.
    panic_workers: Vec<(usize, usize)>,
    /// Deadline for every barrier wait of the run.
    barrier_timeout: Option<Duration>,
}

/// The mutable trigger state, shared by every clone of a plan (but *not* by
/// [`FaultPlan::fork_attempt`] forks).
#[derive(Debug)]
struct PlanState {
    alloc_counter: AtomicU64,
    /// Bitmask over `PlanCfg::panic_workers` indices: bit i set once site i
    /// has fired (one-shot semantics).
    panics_spent: AtomicU64,
    /// Index of the last allocation failed by this plan, or
    /// [`NO_FAILED_ALLOC`].
    last_failed_alloc: AtomicU64,
}

impl Default for PlanState {
    fn default() -> Self {
        PlanState {
            alloc_counter: AtomicU64::new(0),
            panics_spent: AtomicU64::new(0),
            last_failed_alloc: AtomicU64::new(NO_FAILED_ALLOC),
        }
    }
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    fn edit(mut self, f: impl FnOnce(&mut PlanCfg)) -> Self {
        // Copy-on-write: editing a shared plan clones the schedule (the
        // trigger state stays shared), so a derived variant never perturbs
        // the plan its caller holds.
        f(Arc::make_mut(&mut self.cfg));
        self
    }

    /// A plan with the same schedule but *fresh* trigger state: counters at
    /// zero, no one-shot site spent. Use when every retry attempt should see
    /// the identical fault sequence (deterministic chaos sweeps) rather than
    /// the default transient-fault semantics where spent one-shots stay
    /// spent.
    pub fn fork_attempt(&self) -> Self {
        FaultPlan {
            cfg: Arc::clone(&self.cfg),
            state: Arc::new(PlanState::default()),
        }
    }

    /// Fail the `n`th allocation registered on the machine (zero-based),
    /// modelling `mmap` returning `ENOMEM` mid-run. Composes: each call adds
    /// one more failing index.
    pub fn fail_nth_alloc(self, n: u64) -> Self {
        self.edit(|p| p.fail_allocs.push(n))
    }

    /// Clamp every node's memory capacity to `bytes`, forcing the machine's
    /// spill policy to engage (or fail) on node-bound allocations.
    pub fn clamp_node_capacity(self, bytes: u64) -> Self {
        self.edit(|p| p.node_capacity_clamp = Some(bytes))
    }

    /// Delay worker `tid` by `delay` at the start of iteration `iteration`
    /// (a barrier straggler). Composes: each call adds one more straggler
    /// site.
    pub fn delay_worker(self, tid: usize, iteration: usize, delay: Duration) -> Self {
        self.edit(|p| p.stragglers.push((tid, iteration, delay)))
    }

    /// Panic worker `tid` at the start of iteration `iteration`. One-shot:
    /// the site fires at most once per plan state (see
    /// [`FaultPlan::fork_attempt`]). Composes: each call adds one more panic
    /// site (at most 64 sites are tracked).
    pub fn panic_worker_at(self, tid: usize, iteration: usize) -> Self {
        self.edit(|p| p.panic_workers.push((tid, iteration)))
    }

    /// Bound every barrier wait of the run by `timeout`; an expired wait
    /// poisons the barrier and surfaces as a typed error.
    pub fn barrier_timeout(self, timeout: Duration) -> Self {
        self.edit(|p| p.barrier_timeout = Some(timeout))
    }

    // --- Trigger queries (called by the injected-into layers) -----------

    /// Count one allocation; true when this allocation must fail. Each
    /// failing index fires at most once per plan state: the counter is
    /// monotone, so a supervised retry (which keeps counting on the shared
    /// state) sails past already-spent indices.
    pub fn should_fail_alloc(&self) -> bool {
        if self.cfg.fail_allocs.is_empty() {
            return false;
        }
        let i = self.state.alloc_counter.fetch_add(1, Ordering::Relaxed);
        if self.cfg.fail_allocs.contains(&i) {
            self.state.last_failed_alloc.store(i, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Index of the allocation that failed (for error reporting). Only
    /// meaningful after [`FaultPlan::should_fail_alloc`] returned true, when
    /// it names the failed allocation.
    pub fn failed_alloc_index(&self) -> u64 {
        match self.state.last_failed_alloc.load(Ordering::Relaxed) {
            NO_FAILED_ALLOC => self.cfg.fail_allocs.first().copied().unwrap_or(0),
            i => i,
        }
    }

    /// The per-node capacity clamp, if any.
    pub fn node_capacity_clamp(&self) -> Option<u64> {
        self.cfg.node_capacity_clamp
    }

    /// The straggler delay for worker `tid` at `iteration`, if any.
    /// Stragglers are environmental (stateless): they re-fire on every
    /// attempt that crosses the site.
    pub fn straggle_delay(&self, tid: usize, iteration: usize) -> Option<Duration> {
        self.cfg
            .stragglers
            .iter()
            .find(|&&(t, i, _)| t == tid && i == iteration)
            .map(|&(_, _, d)| d)
    }

    /// True when worker `tid` must panic at the start of `iteration`.
    /// One-shot: a matching site fires only the first time it is queried
    /// (modelling a transient crash), then stays spent for every clone of
    /// this plan state.
    pub fn should_panic_worker(&self, tid: usize, iteration: usize) -> bool {
        let Some(site) = self
            .cfg
            .panic_workers
            .iter()
            .position(|&(t, i)| t == tid && i == iteration)
        else {
            return false;
        };
        let bit = 1u64 << (site as u64 & 63);
        // fetch_or returns the previous mask: we fired iff the bit was clear.
        self.state.panics_spent.fetch_or(bit, Ordering::Relaxed) & bit == 0
    }

    /// The configured barrier-wait deadline, if any.
    pub fn barrier_deadline(&self) -> Option<Duration> {
        self.cfg.barrier_timeout
    }

    /// True when the schedule contains any worker-level site (straggler or
    /// panic) — i.e. faults that only the real-threads executor can observe.
    pub fn has_worker_sites(&self) -> bool {
        !self.cfg.stragglers.is_empty() || !self.cfg.panic_workers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let p = FaultPlan::new();
        for _ in 0..100 {
            assert!(!p.should_fail_alloc());
        }
        assert_eq!(p.node_capacity_clamp(), None);
        assert_eq!(p.straggle_delay(0, 0), None);
        assert!(!p.should_panic_worker(0, 0));
        assert_eq!(p.barrier_deadline(), None);
        assert!(!p.has_worker_sites());
    }

    #[test]
    fn nth_alloc_counter_is_shared_across_clones() {
        let p = FaultPlan::new().fail_nth_alloc(2);
        let q = p.clone();
        assert!(!p.should_fail_alloc()); // 0
        assert!(!q.should_fail_alloc()); // 1
        assert!(p.should_fail_alloc()); // 2 — fails
        assert!(!q.should_fail_alloc()); // 3
        assert_eq!(p.failed_alloc_index(), 2);
    }

    #[test]
    fn straggler_and_panic_match_exact_points() {
        let p = FaultPlan::new()
            .delay_worker(2, 5, Duration::from_millis(10))
            .panic_worker_at(1, 3);
        assert_eq!(p.straggle_delay(2, 5), Some(Duration::from_millis(10)));
        assert_eq!(p.straggle_delay(2, 4), None);
        assert_eq!(p.straggle_delay(1, 5), None);
        assert!(p.should_panic_worker(1, 3));
        assert!(!p.should_panic_worker(1, 2));
    }

    #[test]
    fn panic_sites_are_one_shot_and_fork_attempt_rearms_them() {
        let p = FaultPlan::new().panic_worker_at(1, 3);
        let clone = p.clone();
        assert!(p.should_panic_worker(1, 3));
        // Spent — neither the plan nor its clone fires again.
        assert!(!p.should_panic_worker(1, 3));
        assert!(!clone.should_panic_worker(1, 3));
        // A forked attempt shares the schedule but re-arms the site.
        let fork = p.fork_attempt();
        assert!(fork.should_panic_worker(1, 3));
        assert!(!fork.should_panic_worker(1, 3));
        // The fork's state is independent of the original's.
        assert!(!p.should_panic_worker(1, 3));
    }

    #[test]
    fn fork_attempt_resets_the_alloc_counter() {
        let p = FaultPlan::new().fail_nth_alloc(1);
        assert!(!p.should_fail_alloc()); // 0
        assert!(p.should_fail_alloc()); // 1 — fails
        assert!(!p.should_fail_alloc()); // 2: spent, a retry sails past
        let fork = p.fork_attempt();
        assert!(!fork.should_fail_alloc()); // 0 again
        assert!(fork.should_fail_alloc()); // 1 — deterministic re-fire
        assert_eq!(fork.failed_alloc_index(), 1);
    }

    #[test]
    fn multi_site_builders_compose() {
        let p = FaultPlan::new()
            .delay_worker(0, 1, Duration::from_millis(1))
            .delay_worker(3, 2, Duration::from_millis(2))
            .panic_worker_at(1, 1)
            .panic_worker_at(2, 4)
            .fail_nth_alloc(0)
            .fail_nth_alloc(2);
        assert!(p.has_worker_sites());
        assert_eq!(p.straggle_delay(0, 1), Some(Duration::from_millis(1)));
        assert_eq!(p.straggle_delay(3, 2), Some(Duration::from_millis(2)));
        assert!(p.should_panic_worker(1, 1));
        assert!(p.should_panic_worker(2, 4));
        assert!(p.should_fail_alloc()); // 0 — fails
        assert!(!p.should_fail_alloc()); // 1
        assert!(p.should_fail_alloc()); // 2 — fails
        assert_eq!(p.failed_alloc_index(), 2);
    }

    #[test]
    fn builder_edits_on_a_shared_plan_are_copy_on_write() {
        let base = FaultPlan::new();
        let machine_copy = base.clone();
        // Deriving a variant must not perturb the copy other layers hold...
        let derived = base.barrier_timeout(Duration::from_millis(5));
        assert_eq!(machine_copy.barrier_deadline(), None);
        assert_eq!(derived.barrier_deadline(), Some(Duration::from_millis(5)));
        // ...while the trigger state stays shared: a one-shot spent via the
        // derived plan is spent for the original clone too.
        let armed = FaultPlan::new().panic_worker_at(0, 0);
        let shared = armed.clone();
        let tightened = armed.barrier_timeout(Duration::from_millis(5));
        assert!(tightened.should_panic_worker(0, 0));
        assert!(!shared.should_panic_worker(0, 0));
    }
}
