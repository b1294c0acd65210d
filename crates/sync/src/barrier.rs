//! The two spin-barrier families of the paper's Figure 10(a). The third,
//! `pthread_barrier`, whose waiters trap into the kernel, exists only as the
//! simulated cost `BarrierKind::Pthread`: nothing runs it on real threads.
//!
//! * [`SenseBarrier`] — a centralized sense-reversing spin barrier built on
//!   atomic fetch-and-add (Mellor-Crummey & Scott, the paper's ref. 36); the
//!   sense is carried by a generation counter so no per-thread state is
//!   needed.
//! * [`HierBarrier`] — Polymer's NUMA-aware barrier: threads synchronize
//!   within their socket group on a per-group sense barrier; the last
//!   arriver of each group crosses a top-level sense barrier over group
//!   leaders, then releases its group. Cache-coherence traffic between
//!   sockets is thus one line per group instead of one per thread.
//!
//! Memory ordering: arrivals publish with `AcqRel` fetch-and-add, releases
//! publish the next generation with `Release`, and spinners acquire it, so
//! everything before a `wait` happens-before everything after the matching
//! release — the property the engines rely on between phases.
//!
//! # Failure model
//!
//! The spin barriers can be **poisoned**: when a participant dies (panics)
//! or a deadline expires, [`SenseBarrier::poison`] / [`HierBarrier::poison`]
//! makes every current and future waiter return
//! [`PolymerError::BarrierPoisoned`] instead of spinning forever on a
//! generation that will never advance. The `wait_checked` / `wait_deadline`
//! variants surface this as a `Result`; the plain `wait` methods keep their
//! original infallible signature and propagate the typed error as a panic
//! payload that executors can downcast (see [`polymer_faults`]).
//! A poisoned barrier stays poisoned: its counters are no longer consistent
//! once a waiter has bailed out, so it must not be reused.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use polymer_faults::{panic_with, PolymerError, PolymerResult};

/// A centralized sense-reversing spin barrier on fetch-and-add. The
/// "sense" is the generation word: a waiter records the generation at
/// arrival and spins until it changes.
pub struct SenseBarrier {
    n: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

impl SenseBarrier {
    /// A barrier for `n` participants.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "barrier needs at least one participant");
        SenseBarrier {
            n,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Mark the barrier failed. Every current and future waiter returns
    /// [`PolymerError::BarrierPoisoned`] (or panics with it, for plain
    /// [`SenseBarrier::wait`]) instead of spinning on a generation that can
    /// no longer advance.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// True once the barrier has been poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Spin until all `n` participants have arrived. Returns `true` for the
    /// last arriver of each round. Spins briefly, then yields to the OS so
    /// oversubscribed hosts (more threads than cores) make progress.
    /// Panics (with a typed payload) if the barrier is poisoned.
    pub fn wait(&self) -> bool {
        self.wait_checked().unwrap_or_else(|e| panic_with(e))
    }

    /// Like [`SenseBarrier::wait`], surfacing poisoning as a typed error
    /// instead of a panic.
    pub fn wait_checked(&self) -> PolymerResult<bool> {
        self.wait_inner(None)
    }

    /// Like [`SenseBarrier::wait_checked`] with a deadline: a waiter still
    /// spinning at `deadline` poisons the barrier and returns
    /// [`PolymerError::BarrierTimeout`], so its siblings error out rather
    /// than deadlock on the missing participant.
    pub fn wait_deadline(&self, deadline: Instant) -> PolymerResult<bool> {
        self.wait_inner(Some(deadline))
    }

    fn wait_inner(&self, deadline: Option<Instant>) -> PolymerResult<bool> {
        if self.is_poisoned() {
            return Err(PolymerError::BarrierPoisoned);
        }
        let start = Instant::now();
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
            Ok(true)
        } else {
            match spin_wait(
                || self.generation.load(Ordering::Acquire) != gen,
                &self.poisoned,
                deadline,
            ) {
                SpinOutcome::Done => Ok(false),
                SpinOutcome::Poisoned => Err(PolymerError::BarrierPoisoned),
                SpinOutcome::TimedOut => {
                    self.poison();
                    Err(PolymerError::BarrierTimeout {
                        waited: start.elapsed(),
                    })
                }
            }
        }
    }
}

enum SpinOutcome {
    Done,
    Poisoned,
    TimedOut,
}

/// Spin-then-yield wait loop shared by the spin barriers; bails out when the
/// poison flag rises or the optional deadline expires. The deadline is only
/// checked on the yield path — the first ~128 iterations are pure spins whose
/// elapsed time is negligible.
#[inline]
fn spin_wait(
    done: impl Fn() -> bool,
    poisoned: &AtomicBool,
    deadline: Option<Instant>,
) -> SpinOutcome {
    let mut spins = 0u32;
    loop {
        if done() {
            return SpinOutcome::Done;
        }
        if poisoned.load(Ordering::Acquire) {
            return SpinOutcome::Poisoned;
        }
        if spins < 128 {
            std::hint::spin_loop();
            spins += 1;
        } else {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return SpinOutcome::TimedOut;
                }
            }
            std::thread::yield_now();
        }
    }
}

struct Group {
    size: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    // Pad each group to its own cache line so spinning within one socket
    // group does not bounce lines of another.
    _pad: [u8; 40],
}

/// Polymer's hierarchical NUMA-aware barrier: per-group sense barriers plus
/// a top-level sense barrier across group leaders.
pub struct HierBarrier {
    groups: Vec<Group>,
    top: SenseBarrier,
    poisoned: AtomicBool,
}

impl HierBarrier {
    /// A barrier over groups of the given sizes (one group per NUMA node;
    /// sizes are the per-node thread counts). Empty groups are not allowed.
    pub fn new(group_sizes: &[usize]) -> Self {
        assert!(!group_sizes.is_empty(), "need at least one group");
        assert!(
            group_sizes.iter().all(|&s| s >= 1),
            "every group needs at least one participant"
        );
        HierBarrier {
            groups: group_sizes
                .iter()
                .map(|&size| Group {
                    size,
                    arrived: AtomicUsize::new(0),
                    generation: AtomicUsize::new(0),
                    _pad: [0; 40],
                })
                .collect(),
            top: SenseBarrier::new(group_sizes.len()),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Mark the whole barrier (all groups and the top level) failed; every
    /// current and future waiter errors out instead of deadlocking.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        self.top.poison();
    }

    /// True once the barrier has been poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Block (spin) until every participant of every group has arrived.
    /// `group` is the caller's group index. Returns `true` for exactly one
    /// participant overall per round. Panics (with a typed payload) if the
    /// barrier is poisoned.
    pub fn wait(&self, group: usize) -> bool {
        self.wait_checked(group).unwrap_or_else(|e| panic_with(e))
    }

    /// Like [`HierBarrier::wait`], surfacing poisoning as a typed error
    /// instead of a panic.
    pub fn wait_checked(&self, group: usize) -> PolymerResult<bool> {
        self.wait_inner(group, None)
    }

    /// Like [`HierBarrier::wait_checked`] with a deadline: a waiter still
    /// spinning at `deadline` poisons the whole barrier and returns
    /// [`PolymerError::BarrierTimeout`], so every sibling — in its own group
    /// or another — errors out rather than deadlocks.
    pub fn wait_deadline(&self, group: usize, deadline: Instant) -> PolymerResult<bool> {
        self.wait_inner(group, Some(deadline))
    }

    fn wait_inner(&self, group: usize, deadline: Option<Instant>) -> PolymerResult<bool> {
        if self.is_poisoned() {
            return Err(PolymerError::BarrierPoisoned);
        }
        let start = Instant::now();
        let g = &self.groups[group];
        let gen = g.generation.load(Ordering::Acquire);
        if g.arrived.fetch_add(1, Ordering::AcqRel) + 1 == g.size {
            // Last arriver of the group becomes its leader and synchronizes
            // with the other leaders before releasing its group.
            let serial = match deadline {
                Some(d) => self.top.wait_deadline(d),
                None => self.top.wait_checked(),
            };
            match serial {
                Ok(serial) => {
                    g.arrived.store(0, Ordering::Relaxed);
                    g.generation.fetch_add(1, Ordering::Release);
                    Ok(serial)
                }
                Err(e) => {
                    // The leader cannot release its group anymore; poison so
                    // the group's spinners escape too.
                    self.poison();
                    Err(e)
                }
            }
        } else {
            match spin_wait(
                || g.generation.load(Ordering::Acquire) != gen,
                &self.poisoned,
                deadline,
            ) {
                SpinOutcome::Done => Ok(false),
                SpinOutcome::Poisoned => Err(PolymerError::BarrierPoisoned),
                SpinOutcome::TimedOut => {
                    self.poison();
                    Err(PolymerError::BarrierTimeout {
                        waited: start.elapsed(),
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    /// Generic stress: `threads` threads cross the barrier `rounds` times,
    /// each incrementing a per-round counter before waiting; after the wait
    /// every thread must observe the full round's increments.
    fn stress(threads: usize, rounds: usize, wait: impl Fn(usize) -> bool + Sync) {
        let counters: Vec<AtomicU64> = (0..rounds).map(|_| AtomicU64::new(0)).collect();
        let serials = AtomicU64::new(0);
        crossbeam::scope(|s| {
            for t in 0..threads {
                let counters = &counters;
                let wait = &wait;
                let serials = &serials;
                s.spawn(move |_| {
                    for (r, counter) in counters.iter().enumerate() {
                        counter.fetch_add(1, Ordering::Relaxed);
                        if wait(t) {
                            serials.fetch_add(1, Ordering::Relaxed);
                        }
                        assert_eq!(
                            counters[r].load(Ordering::Relaxed),
                            threads as u64,
                            "round {r} released early"
                        );
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(serials.load(Ordering::Relaxed), rounds as u64);
    }

    #[test]
    fn sense_barrier_releases_all_rounds() {
        let b = SenseBarrier::new(4);
        stress(4, 50, |_| b.wait());
    }

    #[test]
    fn hier_barrier_releases_all_rounds() {
        // 2 groups of 2 (a 2-node machine with 2 cores per node).
        let b = HierBarrier::new(&[2, 2]);
        stress(4, 50, |t| b.wait(t / 2));
    }

    #[test]
    fn hier_barrier_uneven_groups() {
        let b = HierBarrier::new(&[1, 3]);
        stress(4, 30, |t| b.wait(if t == 0 { 0 } else { 1 }));
    }

    #[test]
    fn single_thread_barriers_pass_through() {
        assert!(SenseBarrier::new(1).wait());
        assert!(HierBarrier::new(&[1]).wait(0));
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_rejected() {
        SenseBarrier::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_group_rejected() {
        HierBarrier::new(&[2, 0]);
    }

    #[test]
    fn poisoned_sense_barrier_rejects_waiters() {
        let b = SenseBarrier::new(2);
        b.poison();
        assert!(b.is_poisoned());
        assert!(matches!(
            b.wait_checked(),
            Err(PolymerError::BarrierPoisoned)
        ));
    }

    #[test]
    fn poison_releases_a_spinning_waiter() {
        let b = SenseBarrier::new(2);
        crossbeam::scope(|s| {
            let spinner = s.spawn(|_| b.wait_checked());
            // Never arrive; poison instead, as an executor does when a
            // sibling worker dies.
            std::thread::sleep(Duration::from_millis(20));
            b.poison();
            let got = spinner.join().unwrap();
            assert!(matches!(got, Err(PolymerError::BarrierPoisoned)));
        })
        .unwrap();
    }

    #[test]
    fn sense_barrier_deadline_times_out_and_poisons() {
        let b = SenseBarrier::new(2);
        let deadline = Instant::now() + Duration::from_millis(20);
        // Only one of two participants arrives: it must time out, not hang.
        let got = b.wait_deadline(deadline);
        assert!(matches!(got, Err(PolymerError::BarrierTimeout { .. })));
        assert!(b.is_poisoned());
        assert!(matches!(
            b.wait_checked(),
            Err(PolymerError::BarrierPoisoned)
        ));
    }

    #[test]
    fn hier_barrier_deadline_poisons_all_groups() {
        // Two groups of one: both callers go straight to the top barrier.
        // One group never arrives, so the sole arriving leader times out and
        // the poison must be visible to every group.
        let b = HierBarrier::new(&[1, 1]);
        let deadline = Instant::now() + Duration::from_millis(20);
        let got = b.wait_deadline(0, deadline);
        assert!(matches!(got, Err(PolymerError::BarrierTimeout { .. })));
        assert!(b.is_poisoned());
        assert!(matches!(
            b.wait_checked(1),
            Err(PolymerError::BarrierPoisoned)
        ));
    }

    #[test]
    fn hier_barrier_poison_releases_group_spinner() {
        // Group 0 has two participants; one arrives and spins on the group
        // generation. Poisoning must release it even though it is not
        // waiting at the top barrier.
        let b = HierBarrier::new(&[2, 1]);
        crossbeam::scope(|s| {
            let spinner = s.spawn(|_| b.wait_checked(0));
            std::thread::sleep(Duration::from_millis(20));
            b.poison();
            let got = spinner.join().unwrap();
            assert!(matches!(got, Err(PolymerError::BarrierPoisoned)));
        })
        .unwrap();
    }

    #[test]
    fn hier_barrier_group_spinner_times_out_when_leader_never_comes() {
        let b = HierBarrier::new(&[2]);
        let deadline = Instant::now() + Duration::from_millis(20);
        let got = b.wait_deadline(0, deadline);
        assert!(matches!(got, Err(PolymerError::BarrierTimeout { .. })));
        assert!(b.is_poisoned());
    }

    #[test]
    fn plain_wait_panics_with_typed_payload_when_poisoned() {
        let b = SenseBarrier::new(2);
        b.poison();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.wait()))
            .expect_err("poisoned wait must panic");
        let err = PolymerError::from_panic(payload);
        assert!(matches!(err, PolymerError::BarrierPoisoned));
    }

    #[test]
    fn exactly_one_serial_thread_per_round() {
        let b = SenseBarrier::new(3);
        let serial_count = AtomicU64::new(0);
        crossbeam::scope(|s| {
            for _ in 0..3 {
                s.spawn(|_| {
                    for _ in 0..100 {
                        if b.wait() {
                            serial_count.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(serial_count.load(Ordering::Relaxed), 100);
    }
}
