//! # polymer-graph — graph substrate for the Polymer reproduction
//!
//! Host-side graph data structures and tooling shared by every engine:
//!
//! * [`EdgeList`] — the construction-stage representation; generators and
//!   I/O produce it.
//! * [`Graph`] — immutable CSR (out-edges) + CSC (in-edges) with per-vertex
//!   degrees, exactly the topology layout of the paper's Figure 1. Engines
//!   copy it into their own NUMA placements.
//! * [`gen`] — workload generators reproducing the paper's Table 2 graph
//!   families: R-MAT (Graph500 parameters), Zipf power-law (PowerGraph's
//!   method, constant 2.0), a road-network grid (high diameter, avg degree
//!   ≈ 2.4), and uniform random graphs.
//! * [`partition`] — vertex-balanced and edge-oriented balanced partitioning
//!   (paper Section 5, "Balanced Partitioning").
//! * [`io`] — plain-text and binary edge-list readers/writers.
//! * [`datasets`] — the scaled-down named datasets used by the experiment
//!   harness, with the scale factors recorded in `EXPERIMENTS.md`.
//! * [`builder`] — the single canonicalization + CSR-assembly pipeline
//!   shared by loaders and the compaction rebuild.
//! * [`delta`] / [`mutable`] — batched edge mutations ([`DeltaBatch`]),
//!   the applied overlay ([`DeltaLog`]), and the merged live view
//!   ([`MutableGraph`]) with threshold-triggered compaction
//!   (`docs/INCREMENTAL.md`).
//! * [`Topology`] — the read-only adjacency view [`Graph`] and
//!   [`MutableGraph`] share; the host kernels are written against it.

#![deny(unsafe_code)]

pub mod builder;
pub mod compress;
pub mod csr;
pub mod datasets;
pub mod delta;
pub mod edgelist;
pub mod gen;
pub mod io;
pub mod mutable;
pub mod partition;
pub mod stats;
pub mod topology;
pub mod types;

pub use builder::GraphBuilder;
pub use compress::{encode_list, CompressedAdjacency, DeltaDecoder};
pub use csr::Graph;
pub use datasets::{dataset, DatasetId};
pub use delta::{AppliedBatch, BatchStats, DeltaBatch, DeltaError, DeltaLog};
pub use edgelist::EdgeList;
pub use mutable::{MergedEdges, MutableGraph, DEFAULT_COMPACTION_FRACTION};
pub use partition::{edge_balanced_ranges, vertex_balanced_ranges, PartitionStats};
pub use stats::GraphStats;
pub use topology::Topology;
pub use types::{Edge, VId, Weight};
