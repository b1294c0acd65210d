//! # polymer-sync — synchronization substrate of the Polymer reproduction
//!
//! Real, thread-safe implementations of the synchronization machinery from
//! Section 5 of the paper:
//!
//! * [`barrier`] — the two spin-barrier families compared in Figure 10(a):
//!   a flat sense-reversing user-level barrier built on fetch-and-add
//!   (Mellor-Crummey & Scott), and Polymer's hierarchical NUMA-aware barrier
//!   that synchronizes within a socket group first and then across group
//!   leaders. The third family, `pthread_barrier`, is only a simulated cost
//!   (`polymer_numa::BarrierKind::Pthread`).
//! * [`lookup`] — the lock-less tree-structured lookup table (router array)
//!   Polymer uses to collect per-node runtime-state partitions without
//!   contention.
//! * [`bitmap`] — NUMA-placed atomic bitmaps for dense runtime states,
//!   accounted through the machine model.
//! * [`frontier`] — the adaptive runtime-state representation (dense bitmap
//!   ↔ sparse vertex queues) with Ligra's switching threshold.
//!
//! All types here are genuinely `Sync` and are stress-tested under real
//! multithreading (crossbeam scoped threads), independent of the simulator.

#![deny(unsafe_code)]

pub mod barrier;
pub mod bitmap;
pub mod frontier;
pub mod lookup;

pub use barrier::{HierBarrier, SenseBarrier};
pub use bitmap::DenseBitmap;
pub use frontier::{
    should_densify, Frontier, FrontierRepr, FrontierSnapshot, ThreadQueues, DENSITY_DENOMINATOR,
};
pub use lookup::LookupTable;
