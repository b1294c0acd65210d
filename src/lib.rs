//! # polymer — NUMA-aware graph-structured analytics
//!
//! A Rust reproduction of *NUMA-Aware Graph-Structured Analytics* (Zhang,
//! Chen & Chen, PPoPP 2015): the **Polymer** engine, the three baseline
//! systems it is evaluated against (Ligra-, X-Stream- and Galois-like), the
//! six benchmark algorithms, and a simulated cc-NUMA machine substrate that
//! reproduces the paper's measured latency/bandwidth characteristics.
//!
//! ## Quickstart
//!
//! ```
//! use polymer::prelude::*;
//!
//! // A scaled-down twitter-like graph (deterministic).
//! let edges = polymer::graph::gen::rmat(12, 60_000, polymer::graph::gen::RMAT_GRAPH500, 42);
//! let graph = Graph::from_edges(&edges);
//!
//! // An 80-core, 8-socket machine like the paper's Intel testbed.
//! let machine = Machine::new(MachineSpec::intel80());
//!
//! // Run five PageRank iterations on the Polymer engine with 80 threads.
//! let prog = PageRank::new(graph.num_vertices());
//! let result = PolymerEngine::new().run(&machine, 80, &graph, &prog);
//! println!(
//!     "PR finished in {:.3} simulated seconds; remote access rate {:.1}%",
//!     result.seconds(),
//!     result.remote_report().access_rate_remote * 100.0
//! );
//! assert_eq!(result.iterations, 5);
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`numa`] | `polymer-numa` | simulated NUMA machine, placement, cost model |
//! | [`graph`] | `polymer-graph` | CSR/CSC, generators, partitioners, I/O |
//! | [`sync`] | `polymer-sync` | barriers, lookup table, adaptive frontiers |
//! | [`api`] | `polymer-api` | the scatter–gather `Program`/`Engine` interface |
//! | [`engine`] | `polymer-core` | the Polymer engine |
//! | [`baselines`] | `polymer-{ligra,xstream,galois}` | the three comparison systems |
//! | [`algos`] | `polymer-algos` | PR, SpMV, BP, BFS, CC, SSSP + reference oracle |
//! | [`serve`] | `polymer-serve` | resident-graph request serving with batching |

#![deny(unsafe_code)]

pub use polymer_algos as algos;
pub use polymer_api as api;
pub use polymer_core as engine;
pub use polymer_faults as faults;
pub use polymer_graph as graph;
pub use polymer_numa as numa;
pub use polymer_serve as serve;
pub use polymer_sync as sync;

/// The three baseline engines the paper compares Polymer against.
pub mod baselines {
    pub use polymer_galois::GaloisEngine;
    pub use polymer_ligra::LigraEngine;
    pub use polymer_xstream::XStreamEngine;
}

/// Everything needed to run an algorithm on an engine.
pub mod prelude {
    pub use polymer_algos::{
        run_reference, BeliefPropagation, Bfs, ConnectedComponents, PageRank, SpMV, Sssp,
    };
    pub use polymer_api::{
        Backend, Checkpoint, CheckpointPolicy, CheckpointStore, Engine, EngineKind, Program,
        RecoveryReport, RecoverySession, RunOptions, RunResult, RunSupervisor, SupervisorConfig,
    };
    pub use polymer_core::{PolymerConfig, PolymerEngine};
    pub use polymer_faults::{FaultPlan, PolymerError, PolymerResult};
    pub use polymer_galois::GaloisEngine;
    pub use polymer_graph::{dataset, DatasetId, EdgeList, Graph};
    pub use polymer_ligra::LigraEngine;
    pub use polymer_numa::{AllocPolicy, BarrierKind, Machine, MachineSpec, SpillPolicy};
    pub use polymer_serve::{GraphService, RequestKind, ServeConfig, ServeResponse};
    pub use polymer_xstream::XStreamEngine;
}
