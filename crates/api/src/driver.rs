//! The engine-agnostic iteration driver for the simulated backend.
//!
//! All four engines execute the same bulk-synchronous skeleton — stamp the
//! iteration, run the engine's phases, check the safety cap, stop when the
//! active set drains or `max_iters` is reached, then package the clock and
//! memory report into a [`RunResult`]. [`IterationDriver`] owns that
//! skeleton (and the [`SimExecutor`] it drives) so each engine contributes
//! only its paper-differentiating policy: the per-iteration phase body.
//!
//! The driver is accounting-transparent: it issues exactly the
//! `set_iteration` / `run_phase` / `charge_barrier` sequence the engines
//! issued before the extraction, so simulated output (PhaseCosts, simulated
//! seconds, Chrome traces) is bit-identical — the conformance suite pins
//! this against pre-refactor golden fixtures.
//!
//! ## Iteration checkpoints
//!
//! The driver is also where **iteration-granular recovery** hooks in: a
//! [`CheckpointPolicy`] decides after which completed iterations the
//! engine's state is snapshotted into a [`Checkpoint`] (vertex values +
//! [`FrontierSnapshot`] + iteration stamp) and published to a shared
//! [`CheckpointStore`]; [`IterationDriver::resume_at`] fast-forwards the
//! iteration counter so a resumed run stamps *global* iterations —
//! fault-plan trigger points already crossed are not replayed. The engines
//! charge their snapshot sweeps through the bulk accessors (a `"checkpoint"`
//! phase), so checkpoint cost is visible in simulated `PhaseCosts`;
//! [`CheckpointPolicy::Never`] takes the exact pre-existing code path and
//! keeps runs bit-identical to the golden fixtures.

use std::sync::{Arc, Mutex};

use polymer_faults::{PolymerError, PolymerResult};
use polymer_numa::{BarrierKind, Machine, MemoryReport, SimExecutor};
use polymer_sync::FrontierSnapshot;

use crate::result::RunResult;

/// After which completed iterations a run snapshots its state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// Never checkpoint (the default): zero overhead, bit-identical to the
    /// pre-recovery engines.
    #[default]
    Never,
    /// Checkpoint after every `k`th completed iteration (`EveryN(1)` =
    /// every iteration). `EveryN(0)` is treated as `Never`.
    EveryN(usize),
}

impl CheckpointPolicy {
    /// True when a snapshot is due after `completed` iterations.
    pub fn due(&self, completed: usize) -> bool {
        match *self {
            CheckpointPolicy::Never => false,
            CheckpointPolicy::EveryN(0) => false,
            CheckpointPolicy::EveryN(k) => completed.is_multiple_of(k),
        }
    }
}

/// One recoverable image of a run: everything an engine needs to continue
/// from the end of iteration `iteration` as if never interrupted.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint<V> {
    /// Iterations completed when the snapshot was taken; a resumed run
    /// continues stamping from here (global iteration space).
    pub iteration: usize,
    /// Per-vertex `curr` values at the end of that iteration.
    pub values: Vec<V>,
    /// The live frontier, representation-exact (see [`FrontierSnapshot`]).
    pub frontier: FrontierSnapshot,
}

/// A shared slot for the latest [`Checkpoint`] of a run. Cheap to clone
/// (`Arc` internally): the supervisor and the running engine hold the same
/// store, so a checkpoint published mid-attempt survives that attempt's
/// failure. By default only the latest checkpoint is retained;
/// [`CheckpointStore::with_history`] keeps all of them (tests, analysis).
#[derive(Debug)]
pub struct CheckpointStore<V> {
    inner: Arc<Mutex<StoreSlot<V>>>,
}

#[derive(Debug)]
struct StoreSlot<V> {
    latest: Option<Checkpoint<V>>,
    history: Option<Vec<Checkpoint<V>>>,
    taken: usize,
}

impl<V> Clone for CheckpointStore<V> {
    fn clone(&self) -> Self {
        CheckpointStore {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<V> Default for CheckpointStore<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> CheckpointStore<V> {
    /// An empty store retaining only the latest checkpoint.
    pub fn new() -> Self {
        CheckpointStore {
            inner: Arc::new(Mutex::new(StoreSlot {
                latest: None,
                history: None,
                taken: 0,
            })),
        }
    }

    /// An empty store that additionally retains every published checkpoint.
    pub fn with_history() -> Self {
        let s = Self::new();
        s.inner.lock().unwrap().history = Some(Vec::new());
        s
    }

    /// Publish a checkpoint (becomes the latest).
    pub fn put(&self, ckpt: Checkpoint<V>)
    where
        V: Clone,
    {
        let mut slot = self.inner.lock().unwrap();
        slot.taken += 1;
        if let Some(h) = &mut slot.history {
            h.push(ckpt.clone());
        }
        slot.latest = Some(ckpt);
    }

    /// The latest checkpoint, if any.
    pub fn latest(&self) -> Option<Checkpoint<V>>
    where
        V: Clone,
    {
        self.inner.lock().unwrap().latest.clone()
    }

    /// Every checkpoint published so far (empty unless built
    /// [`CheckpointStore::with_history`]).
    pub fn history(&self) -> Vec<Checkpoint<V>>
    where
        V: Clone,
    {
        self.inner
            .lock()
            .unwrap()
            .history
            .clone()
            .unwrap_or_default()
    }

    /// Checkpoints published over the store's lifetime.
    pub fn taken(&self) -> usize {
        self.inner.lock().unwrap().taken
    }
}

/// What one engine attempt needs to know about recovery: the checkpoint
/// policy and store to publish into, and optionally a checkpoint to resume
/// from. [`RecoverySession::disabled`] (policy `Never`, no store) is the
/// default of [`crate::RunOptions`] — it adds no charged work.
pub struct RecoverySession<V> {
    policy: CheckpointPolicy,
    store: Option<CheckpointStore<V>>,
    resume: Option<Checkpoint<V>>,
}

impl<V> Default for RecoverySession<V> {
    fn default() -> Self {
        Self::disabled()
    }
}

impl<V> RecoverySession<V> {
    /// No checkpointing, no resume: the plain-run path.
    pub fn disabled() -> Self {
        RecoverySession {
            policy: CheckpointPolicy::Never,
            store: None,
            resume: None,
        }
    }

    /// A session that publishes checkpoints per `policy` into `store`.
    pub fn new(policy: CheckpointPolicy, store: CheckpointStore<V>) -> Self {
        RecoverySession {
            policy,
            store: Some(store),
            resume: None,
        }
    }

    /// Resume the attempt from `ckpt` instead of the program's initial
    /// state.
    pub fn with_resume(mut self, ckpt: Option<Checkpoint<V>>) -> Self {
        self.resume = ckpt;
        self
    }

    /// The checkpoint to resume from, if any.
    pub fn resume(&self) -> Option<&Checkpoint<V>> {
        self.resume.as_ref()
    }

    /// True when a snapshot is due after `completed` iterations.
    pub fn should_checkpoint(&self, completed: usize) -> bool {
        self.store.is_some() && self.policy.due(completed)
    }

    /// Publish a checkpoint to the session's store (no-op without one).
    pub fn record(&self, ckpt: Checkpoint<V>)
    where
        V: Clone,
    {
        if let Some(store) = &self.store {
            store.put(ckpt);
        }
    }
}

/// Owns the simulated executor and the iteration loop shared by every
/// engine. Synchronous engines call [`IterationDriver::run_synchronous`];
/// asynchronous ones (Galois's worklist) drive [`IterationDriver::sim`]
/// directly and count rounds with [`IterationDriver::advance_round`] —
/// worklist rounds are not traced supersteps, so the driver never stamps
/// them.
pub struct IterationDriver {
    sim: SimExecutor,
    threads: usize,
    iters: usize,
    /// Iteration the counter was re-based to by
    /// [`IterationDriver::resume_from_state`]; the safety cap bounds
    /// `iters - base` so a warm-started repair loop gets its own full
    /// budget. Zero for cold runs and checkpoint resumes.
    base: usize,
    iter_cap: usize,
}

impl IterationDriver {
    /// A driver over a fresh executor with the default cost model: `threads`
    /// simulated threads bound node-major, the engine's `barrier` family,
    /// tracing per `traced`. `num_vertices` sizes the iteration safety cap
    /// (`2·|V| + 64`): a converging synchronous program never needs more
    /// iterations than vertices (BFS/SSSP level counts are bounded by the
    /// diameter < |V|); a frontier still alive past the cap is oscillating,
    /// not converging.
    pub fn new(
        machine: &Machine,
        threads: usize,
        barrier: BarrierKind,
        traced: bool,
        num_vertices: usize,
    ) -> Self {
        let mut sim = SimExecutor::with_config(machine, threads, Default::default(), barrier);
        if traced {
            sim.enable_trace();
        }
        IterationDriver {
            sim,
            threads,
            iters: 0,
            base: 0,
            iter_cap: 2 * num_vertices + 64,
        }
    }

    /// The executor, for phase bodies and engine setup queries (socket
    /// count, thread-to-node binding).
    pub fn sim(&mut self) -> &mut SimExecutor {
        &mut self.sim
    }

    /// Iterations (or asynchronous rounds) executed so far.
    pub fn iterations(&self) -> usize {
        self.iters
    }

    /// Count one asynchronous scheduling round (no superstep stamp).
    pub fn advance_round(&mut self) {
        self.iters += 1;
    }

    /// Fast-forward the iteration counter to resume from a
    /// [`Checkpoint::iteration`]: the next executed iteration stamps
    /// `iteration`, so a resumed run lives in the same global iteration
    /// space as the uninterrupted one (`max_iters`, the safety cap, and
    /// fault-plan trigger points all keep their meaning).
    pub fn resume_at(&mut self, iteration: usize) {
        self.iters = iteration;
    }

    /// Warm-start hook for incremental recomputation: like
    /// [`IterationDriver::resume_at`], the counter fast-forwards so repair
    /// iterations stamp in the same global space as the prior run (a
    /// warm-started result reports `prior.iterations + repair rounds`), but
    /// the iteration safety cap is *re-based* here — the repair loop gets
    /// its own full `2·|V| + 64` budget regardless of how many iterations
    /// the prior result already spent. Checkpoint resume deliberately does
    /// not re-base: it continues the *same* logical run, so cap and
    /// fault-trigger points must keep their absolute meaning.
    pub fn resume_from_state(&mut self, iteration: usize) {
        self.iters = iteration;
        self.base = iteration;
    }

    /// The bulk-synchronous loop: while `is_active(state)` and under
    /// `max_iters`, stamp the iteration and run `body(sim, iter, state)`.
    /// `state` is the engine's loop-carried data (its frontier or active
    /// count): the body consumes and rebuilds it each iteration. Errors from
    /// the body (divergence, injected faults) and the safety cap surface as
    /// typed [`PolymerError`]s.
    pub fn run_synchronous<S>(
        &mut self,
        max_iters: usize,
        state: &mut S,
        is_active: impl FnMut(&S) -> bool,
        body: impl FnMut(&mut SimExecutor, usize, &mut S) -> PolymerResult<()>,
    ) -> PolymerResult<()> {
        self.run_recoverable(
            max_iters,
            state,
            &RecoverySession::<u32>::disabled(),
            is_active,
            body,
            |_, _| (Vec::new(), FrontierSnapshot::default()),
        )
    }

    /// [`IterationDriver::run_synchronous`] with checkpoint hooks: after an
    /// iteration completes and [`RecoverySession::should_checkpoint`] says a
    /// snapshot is due, `snapshot(sim, state)` captures the engine's
    /// `(values, frontier)` — charging its sweeps through the executor, so
    /// the cost lands in `PhaseCosts` — and the driver stamps and publishes
    /// the [`Checkpoint`]. With a disabled session (the
    /// [`IterationDriver::run_synchronous`] path) `snapshot` is never
    /// called and the loop is the exact pre-recovery sequence.
    pub fn run_recoverable<S, V>(
        &mut self,
        max_iters: usize,
        state: &mut S,
        session: &RecoverySession<V>,
        mut is_active: impl FnMut(&S) -> bool,
        mut body: impl FnMut(&mut SimExecutor, usize, &mut S) -> PolymerResult<()>,
        mut snapshot: impl FnMut(&mut SimExecutor, &S) -> (Vec<V>, FrontierSnapshot),
    ) -> PolymerResult<()>
    where
        V: Clone,
    {
        while is_active(state) && self.iters < max_iters {
            if self.iters - self.base >= self.iter_cap {
                return Err(PolymerError::IterationCapExceeded { cap: self.iter_cap });
            }
            self.sim.set_iteration(Some(self.iters as u64));
            body(&mut self.sim, self.iters, state)?;
            self.iters += 1;
            if session.should_checkpoint(self.iters) {
                let (values, frontier) = snapshot(&mut self.sim, state);
                session.record(Checkpoint {
                    iteration: self.iters,
                    values,
                    frontier,
                });
            }
        }
        Ok(())
    }

    /// Package the run: final values, iteration count, the accumulated
    /// clock, and the machine's memory report.
    pub fn finish<V>(self, values: Vec<V>) -> RunResult<V> {
        let memory = MemoryReport::from_machine(self.sim.machine());
        let sockets = self.sim.num_sockets();
        RunResult {
            values,
            iterations: self.iters,
            clock: self.sim.clock().clone(),
            memory,
            threads: self.threads,
            sockets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymer_numa::MachineSpec;

    #[test]
    fn synchronous_loop_stamps_and_counts() {
        let m = Machine::new(MachineSpec::test2());
        let mut d = IterationDriver::new(&m, 2, BarrierKind::Hierarchical, false, 100);
        let mut remaining = 3usize;
        d.run_synchronous(
            10,
            &mut remaining,
            |r| *r > 0,
            |sim, _i, r| {
                sim.run_phase("noop", |_tid, _ctx| {});
                sim.charge_barrier();
                *r -= 1;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(d.iterations(), 3);
        let r = d.finish(vec![0u32; 4]);
        assert_eq!(r.iterations, 3);
        assert_eq!(r.clock.barriers, 3);
        assert_eq!(r.threads, 2);
    }

    #[test]
    fn max_iters_bounds_the_loop() {
        let m = Machine::new(MachineSpec::test2());
        let mut d = IterationDriver::new(&m, 1, BarrierKind::Hierarchical, false, 100);
        let mut state = ();
        d.run_synchronous(5, &mut state, |_| true, |_, _, _| Ok(()))
            .unwrap();
        assert_eq!(d.iterations(), 5);
    }

    #[test]
    fn runaway_frontier_hits_the_safety_cap() {
        let m = Machine::new(MachineSpec::test2());
        // num_vertices = 0 -> cap 64.
        let mut d = IterationDriver::new(&m, 1, BarrierKind::Hierarchical, false, 0);
        let mut state = ();
        let err = d
            .run_synchronous(usize::MAX, &mut state, |_| true, |_, _, _| Ok(()))
            .unwrap_err();
        assert!(matches!(
            err,
            PolymerError::IterationCapExceeded { cap: 64 }
        ));
    }

    #[test]
    fn checkpoint_policy_cadence() {
        assert!(!CheckpointPolicy::Never.due(1));
        assert!(!CheckpointPolicy::EveryN(0).due(4));
        assert!(CheckpointPolicy::EveryN(1).due(1));
        assert!(CheckpointPolicy::EveryN(3).due(6));
        assert!(!CheckpointPolicy::EveryN(3).due(7));
    }

    #[test]
    fn recoverable_loop_publishes_and_resumes() {
        let m = Machine::new(MachineSpec::test2());
        let store = CheckpointStore::<u32>::with_history();
        let session = RecoverySession::new(CheckpointPolicy::EveryN(2), store.clone());
        let mut d = IterationDriver::new(&m, 1, BarrierKind::Hierarchical, false, 100);
        let mut remaining = 5u32;
        d.run_recoverable(
            10,
            &mut remaining,
            &session,
            |r| *r > 0,
            |_, _, r| {
                *r -= 1;
                Ok(())
            },
            |_, r| (vec![*r], FrontierSnapshot::sparse(vec![*r], 0)),
        )
        .unwrap();
        assert_eq!(d.iterations(), 5);
        // Checkpoints after iterations 2 and 4.
        assert_eq!(store.taken(), 2);
        let hist = store.history();
        assert_eq!(
            hist.iter().map(|c| c.iteration).collect::<Vec<_>>(),
            vec![2, 4]
        );
        assert_eq!(store.latest().unwrap().values, vec![1]);

        // Resume from the latest: the counter continues in global space.
        let ck = store.latest().unwrap();
        let mut d = IterationDriver::new(&m, 1, BarrierKind::Hierarchical, false, 100);
        d.resume_at(ck.iteration);
        let mut remaining = ck.values[0];
        d.run_synchronous(
            10,
            &mut remaining,
            |r| *r > 0,
            |_, _, r| {
                *r -= 1;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(d.iterations(), 5);
    }

    #[test]
    fn warm_start_stamps_globally_and_rebases_the_cap() {
        let m = Machine::new(MachineSpec::test2());
        // num_vertices = 0 -> cap 64. A prior run spent 60 iterations; a
        // warm-started repair of 10 more must not trip the cap.
        let mut d = IterationDriver::new(&m, 1, BarrierKind::Hierarchical, false, 0);
        d.resume_from_state(60);
        let mut remaining = 10usize;
        let mut stamps = Vec::new();
        d.run_synchronous(
            usize::MAX,
            &mut remaining,
            |r| *r > 0,
            |_, i, r| {
                stamps.push(i);
                *r -= 1;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(d.iterations(), 70);
        assert_eq!(stamps.first(), Some(&60));
        assert_eq!(stamps.last(), Some(&69));

        // The re-based cap still fires after a full fresh budget.
        let mut d = IterationDriver::new(&m, 1, BarrierKind::Hierarchical, false, 0);
        d.resume_from_state(60);
        let mut state = ();
        let err = d
            .run_synchronous(usize::MAX, &mut state, |_| true, |_, _, _| Ok(()))
            .unwrap_err();
        assert!(matches!(
            err,
            PolymerError::IterationCapExceeded { cap: 64 }
        ));
        assert_eq!(d.iterations(), 60 + 64);
    }

    #[test]
    fn disabled_session_never_snapshots() {
        let m = Machine::new(MachineSpec::test2());
        let mut d = IterationDriver::new(&m, 1, BarrierKind::Hierarchical, false, 100);
        let mut left = 3u32;
        d.run_recoverable(
            10,
            &mut left,
            &RecoverySession::<u32>::disabled(),
            |r| *r > 0,
            |_, _, r| {
                *r -= 1;
                Ok(())
            },
            |_, _| panic!("snapshot must not run without a store"),
        )
        .unwrap();
    }

    #[test]
    fn async_rounds_counted_without_stamping() {
        let m = Machine::new(MachineSpec::test2());
        let mut d = IterationDriver::new(&m, 1, BarrierKind::Hierarchical, false, 10);
        d.sim().run_phase("relax", |_tid, _ctx| {});
        d.advance_round();
        d.advance_round();
        assert_eq!(d.finish(Vec::<u32>::new()).iterations, 2);
    }
}
