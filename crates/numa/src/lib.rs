//! # polymer-numa — a simulated cc-NUMA machine for graph analytics
//!
//! This crate is the hardware substrate of the Polymer reproduction. The paper
//! ("NUMA-Aware Graph-Structured Analytics", PPoPP'15) evaluates on an 80-core
//! 8-socket Intel Xeon and a 64-core 8-node AMD Opteron machine; this crate
//! models those machines so that the graph engines built on top of it can be
//! compared under exactly the mechanisms the paper identifies:
//!
//! * **Topology** ([`NumaTopology`]): sockets, cores, and the hop distance
//!   between every pair of memory nodes (Intel twisted hypercube, AMD
//!   HyperTransport multi-chip modules).
//! * **Access cost tables** ([`LatencyTable`], [`BandwidthTable`]): load/store
//!   latency per hop and sequential/random bandwidth per hop, populated with
//!   the paper's measured values (Figures 3(b) and 4). The cost model charges
//!   the bandwidth rows; the latency rows are reported, not charged.
//! * **Placement** ([`AllocPolicy`], [`Machine`]): every allocation owns a
//!   page-granular map from virtual page to home node, supporting the
//!   first-touch, interleaved, centralized, bound, and chunked
//!   (contiguous-virtual / distributed-physical) policies of Sections 3.1
//!   and 4.2.
//! * **Instrumented arrays** ([`NumaArray`], [`NumaAtomicArray`]): real data,
//!   every access classified as sequential/random × local/remote × read/write
//!   through an [`AccessCtx`] bound to a simulated core.
//! * **Cost model** ([`CostModel`]): integrates classified access streams into
//!   simulated phase times, including per-node memory-controller and
//!   per-link interconnect congestion and an analytic last-level-cache model.
//! * **Executor** ([`SimExecutor`]): runs bulk-synchronous phases of
//!   per-thread tasks deterministically on the host while advancing a
//!   simulated clock.
//!
//! The arrays and float atomics are real `Sync` types — engine code written
//! against them is data-race free under genuine multithreading as well; the
//! simulator merely chooses to run tasks deterministically so that the
//! experiments in `polymer-bench` are reproducible.
//!
//! ```
//! use polymer_numa::{Machine, MachineSpec, AllocPolicy, SimExecutor};
//!
//! let machine = Machine::new(MachineSpec::intel80());
//! let data = machine.alloc_array::<u64>("demo", 1 << 16, AllocPolicy::Interleaved);
//! let threads = machine.topology().total_cores();
//! let mut sim = SimExecutor::new(&machine, threads);
//! let cost = sim.run_phase("touch", |tid, ctx| {
//!     let per = data.len() / threads;
//!     for i in tid * per..(tid + 1) * per {
//!         data.get(ctx, i);
//!     }
//! });
//! assert!(cost.time_us > 0.0);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod atomicf;
pub mod cost;
pub mod ctx;
pub mod machine;
pub mod policy;
pub mod report;
pub mod shard;
pub mod sim;
pub mod tables;
pub mod tier;
pub mod topology;

pub use array::{Atom, NumaArray, NumaAtomicArray, SeqWriter};
pub use atomicf::AtomicF64;
pub use cost::{BarrierKind, CostConfig, CostModel, PhaseCost, SocketCost};
pub use ctx::{AccessCtx, AccessStats, AllocRef, Capture, Pattern, Rw};
pub use machine::{AllocId, Machine, MemUsage, SpillPolicy};
pub use policy::AllocPolicy;
pub use polymer_faults::{FaultPlan, PolymerError, PolymerResult};
pub use polymer_trace::{
    chrome_trace_json, phase_table, BarrierSpan, PhaseSpan, SharedTracer, SocketSample,
    TraceBuffer, Tracer, WorkerSpan,
};
pub use report::{MemoryReport, RemoteAccessReport};
pub use shard::SimShardMode;
pub use sim::{RunClock, SimExecutor};
pub use tables::{
    BandwidthTable, DistClass, LatencyTable, TierClass, SLOW_RAND_BW_DIVISOR, SLOW_SEQ_BW_DIVISOR,
};
pub use tier::{TierPolicy, TierRuntime};
pub use topology::{MachineSpec, NodeId, NumaTopology, PAGE_SIZE};
