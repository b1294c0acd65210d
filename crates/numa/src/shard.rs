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
//! Determinism is the hard invariant, and it holds by construction rather
//! than by synchronization:
//!
//! * A task's access stream depends only on its own context and on values it
//!   reads, never on the host interleaving, **provided** phases are split
//!   into a side-effect-free compute half and a serially replayed publish
//!   half ([`SimExecutor::run_phase_split`](crate::SimExecutor::run_phase_split)).
//! * Statistics are keyed by allocation id
//!   ([`AccessStats`](crate::AccessStats)`::per` is indexed, not
//!   insertion-ordered), so first-touch order cannot leak into the merge.
//! * The merge itself ([`CostModel::phase_cost`](crate::CostModel)) walks
//!   shards in thread-id order on the calling thread, so floating-point
//!   accumulation order is fixed.
//!
//! [`MachineSpec::shard_mode`](crate::MachineSpec) selects whether the
//! compute half actually spawns host threads; the executor reads it once, at
//! construction. The simulated result is bit-identical in every mode; the
//! mode only trades host wall-clock for thread-spawn overhead.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::ctx::AccessCtx;
use crate::topology::NodeId;

/// Host-parallelism policy for the compute half of
/// [`SimExecutor::run_phase_split`](crate::SimExecutor::run_phase_split).
///
/// Simulated results are bit-identical under every mode; this only controls
/// whether shards run on real host threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimShardMode {
    /// Never spawn host threads; shards run serially in thread-id order.
    Off,
    /// Always spawn one host thread per shard (even on single-core hosts —
    /// useful for exercising the parallel path deterministically in tests).
    On,
    /// Spawn host threads when the host has more than one core and the phase
    /// has more than one shard; serial otherwise. This is the default.
    #[default]
    Auto,
}

impl SimShardMode {
    /// Whether the compute half of a phase with `num_shards` shards spawns
    /// host threads under this mode.
    pub(crate) fn parallel(self, num_shards: usize) -> bool {
        match self {
            SimShardMode::Off => false,
            SimShardMode::On => num_shards > 1,
            SimShardMode::Auto => {
                num_shards > 1
                    && std::thread::available_parallelism()
                        .map(|n| n.get() > 1)
                        .unwrap_or(false)
            }
        }
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

/// Run `compute` for every simulated thread, one host thread per shard.
/// Within a shard, tids run serially in ascending order; results are
/// returned in tid order regardless of host scheduling. Panics from shard
/// threads are re-raised on the caller (first shard in tid order wins), with
/// the original payload preserved.
pub(crate) fn run_sharded<D: Send>(
    ctxs: &mut [AccessCtx],
    shards: &[Range<usize>],
    compute: &(impl Fn(usize, &mut AccessCtx) -> D + Sync),
) -> Vec<D> {
    let total = ctxs.len();
    // Split the contexts into one disjoint &mut chunk per shard.
    let mut chunks: Vec<(usize, &mut [AccessCtx])> = Vec::with_capacity(shards.len());
    let mut rest = ctxs;
    let mut consumed = 0usize;
    for r in shards {
        let (head, tail) = rest.split_at_mut(r.end - consumed);
        chunks.push((r.start, head));
        consumed = r.end;
        rest = tail;
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|(start, chunk)| {
                scope.spawn(move || {
                    chunk
                        .iter_mut()
                        .enumerate()
                        .map(|(k, ctx)| compute(start + k, ctx))
                        .collect::<Vec<D>>()
                })
            })
            .collect();
        let mut out: Vec<D> = Vec::with_capacity(total);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            match h.join() {
                Ok(part) => out.extend(part),
                Err(payload) => {
                    if panic.is_none() {
                        panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        out
    })
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
}
