//! Sharded simulation: host-parallel execution of per-thread phase tasks.
//!
//! The simulator owns one [`AccessCtx`] per simulated
//! thread, and all accounting a task performs lands in its own context —
//! classification windows, page caches, and counters are per-`(context,
//! allocation)` state with no cross-thread coupling. That makes the compute
//! half of a phase embarrassingly parallel *on the host*: contexts can be
//! split into disjoint shards (one per simulated socket, since threads bind
//! node-major) and driven by real host threads, then merged at the phase
//! boundary by the serial cost integration that already runs in
//! thread-id order.
//!
//! Shards are *scheduled*, not spawned: a phase runs on `participants` host
//! threads — the calling thread plus `participants - 1` scoped helpers —
//! sized by the **host** (its core count), never by the simulated machine.
//! Participants claim shard indices in ascending order from one shared
//! counter, so the heavy low-id shards of a skewed graph start first and an
//! 8-socket simulation on a 2-core host runs two threads, not eight.
//!
//! Determinism is the hard invariant, and it holds by construction rather
//! than by synchronization:
//!
//! * A task's access stream depends only on its own context and on values it
//!   reads, never on the host interleaving, **provided** phases are split
//!   into a side-effect-free compute half and a serially replayed publish
//!   half ([`SimExecutor::run_phase_split`](crate::SimExecutor::run_phase_split)).
//!   Which participant runs a shard is therefore unobservable: each shard's
//!   contexts are handed out exactly once, its tids run serially in
//!   ascending order, and its payloads are slotted by shard index.
//! * Statistics are keyed by allocation id
//!   ([`AccessStats`](crate::AccessStats) iterates in ascending id order, not
//!   insertion order), so first-touch order cannot leak into the merge.
//! * The merge itself ([`CostModel::phase_cost`](crate::CostModel)) walks
//!   shards in thread-id order on the calling thread, so floating-point
//!   accumulation order is fixed.
//!
//! [`MachineSpec::shard_mode`](crate::MachineSpec) selects how many
//! participants the compute half gets; the executor resolves it once, at
//! construction. The simulated result is bit-identical in every mode; the
//! mode only trades host wall-clock for thread-spawn overhead.
//!
//! **Decision record — no parked worker pool.** A pool that outlives the
//! phase would save the remaining `participants - 1` spawns per phase, but
//! its workers would have to run closures that borrow the phase's stack
//! (`compute`, the context slice) from threads that outlive that stack
//! frame, which needs a lifetime-erasing `unsafe` block. The workspace is
//! zero-`unsafe` (DESIGN.md), so the helpers stay scoped threads:
//! `std::thread::scope` is the safe API that proves the borrow ends before
//! the frame does.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::ctx::AccessCtx;
use crate::topology::NodeId;

/// Host-parallelism policy for the compute half of
/// [`SimExecutor::run_phase_split`](crate::SimExecutor::run_phase_split).
///
/// Simulated results are bit-identical under every mode; this only controls
/// how many host threads (*participants*) share a phase's shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimShardMode {
    /// One participant: the calling thread runs every shard serially in
    /// thread-id order and no host thread is ever spawned.
    Off,
    /// At least two participants whatever the host reports, so a one-core
    /// CI runner still exercises real concurrency; more when the host has
    /// more cores, never more than there are shards.
    On,
    /// One participant per host core, never more than there are shards:
    /// serial on a one-core host or a one-socket run. This is the default.
    #[default]
    Auto,
}

impl SimShardMode {
    /// Host threads (the caller included) that share the compute half of a
    /// phase with `num_shards` shards under this mode. `1` means serial.
    pub(crate) fn participants(self, num_shards: usize) -> usize {
        if self == SimShardMode::Off || num_shards <= 1 {
            return 1;
        }
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        let wanted = match self {
            SimShardMode::On => host.max(2),
            _ => host,
        };
        wanted.min(num_shards)
    }
}

/// Contiguous thread-id ranges with a common home node. Threads bind
/// node-major, so each simulated socket owns one contiguous tid range; those
/// ranges are the shards.
pub(crate) fn shard_ranges(nodes: &[NodeId]) -> Vec<Range<usize>> {
    let mut shards: Vec<Range<usize>> = Vec::new();
    for (t, &node) in nodes.iter().enumerate() {
        match shards.last_mut() {
            Some(r) if nodes[r.start] == node => r.end = t + 1,
            _ => shards.push(t..t + 1),
        }
    }
    shards
}

/// Run `compute` for every simulated thread on `participants` host threads:
/// the caller plus `participants - 1` scoped helpers, each claiming the next
/// unclaimed shard (ascending index) until none is left. Within a shard,
/// tids run serially in ascending order; results are returned in tid order
/// regardless of which participant ran what. Every shard runs even if an
/// earlier one panicked; the first panicking shard in tid order is then
/// re-raised on the caller with its original payload.
pub(crate) fn run_sharded<D: Send>(
    ctxs: &mut [AccessCtx],
    shards: &[Range<usize>],
    participants: usize,
    compute: &(impl Fn(usize, &mut AccessCtx) -> D + Sync),
) -> Vec<D> {
    let total = ctxs.len();
    // One disjoint `&mut` chunk per shard, each behind its own slot so that
    // whichever participant claims the shard can take it exactly once.
    let mut slots: Vec<Mutex<Option<&mut [AccessCtx]>>> = Vec::with_capacity(shards.len());
    let mut rest = ctxs;
    let mut consumed = 0usize;
    for r in shards {
        let (head, tail) = rest.split_at_mut(r.end - consumed);
        slots.push(Mutex::new(Some(head)));
        consumed = r.end;
        rest = tail;
    }
    // The counter only hands out indices; a shard's contexts are published
    // to its claimant by the slot's mutex, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let claim_and_run = || {
        // Per claimed shard: its payloads in tid order, or the payload of the
        // panic that stopped it.
        let mut done: Vec<(usize, std::thread::Result<Vec<D>>)> = Vec::new();
        loop {
            let s = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(s) else {
                return done;
            };
            let chunk = slot
                .lock()
                .expect("slot lock is never held across a shard body")
                .take()
                .expect("the counter hands out each shard index once");
            let start = shards[s].start;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                chunk
                    .iter_mut()
                    .enumerate()
                    .map(|(k, ctx)| compute(start + k, ctx))
                    .collect::<Vec<D>>()
            }));
            done.push((s, outcome));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..participants.min(shards.len()))
            .map(|_| scope.spawn(claim_and_run))
            .collect();
        let mut done = claim_and_run();
        for h in helpers {
            done.extend(
                h.join()
                    .expect("shard bodies are unwound inside the helper"),
            );
        }
        done
    });
    done.sort_unstable_by_key(|(s, _)| *s);
    let mut out: Vec<D> = Vec::with_capacity(total);
    for (_, outcome) in done {
        match outcome {
            Ok(part) => out.extend(part),
            Err(payload) => resume_unwind(payload),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_group_contiguous_nodes() {
        assert_eq!(shard_ranges(&[0, 0, 1, 1, 2]), vec![0..2, 2..4, 4..5]);
        assert_eq!(shard_ranges(&[0]), vec![0..1]);
        assert_eq!(shard_ranges(&[]), Vec::<Range<usize>>::new());
    }

    #[test]
    fn participants_follow_the_host_not_the_simulated_machine() {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        for shards in [1usize, 2, 8] {
            assert_eq!(SimShardMode::Off.participants(shards), 1);
            assert_eq!(SimShardMode::Auto.participants(shards), host.min(shards));
            // `On` is real concurrency even where the host reports one core,
            // but a single shard has nothing to share.
            assert_eq!(
                SimShardMode::On.participants(shards),
                host.max(2).min(shards)
            );
        }
    }
}
