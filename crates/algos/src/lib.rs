//! # polymer-algos — the paper's six benchmark algorithms
//!
//! Each algorithm from Section 6.1 is expressed once against the
//! [`polymer_api::Program`] scatter–gather interface and executed unchanged
//! by all four engines:
//!
//! * [`PageRank`] — synchronous push-based PageRank (paper Algorithm 4.1).
//! * [`SpMV`] — sparse matrix–(dense) vector multiplication, iterated.
//! * [`BeliefPropagation`] — loopy belief propagation on a binary pairwise
//!   MRF in the log-odds domain (linear-algebraically a weighted
//!   propagation; see the module docs for the exact message function).
//! * [`Bfs`] — breadth-first search computing a minimum parent per vertex.
//! * [`ConnectedComponents`] — label propagation over the symmetrized graph.
//! * [`Sssp`] — single-source shortest paths (Bellman–Ford with data-driven
//!   scheduling, as Polymer/Ligra/X-Stream use in the paper).
//!
//! [`mod@reference`] contains a sequential oracle executor with the exact
//! iteration semantics of the API; integration tests compare every engine
//! against it (exact for integer-valued programs, ε-close for floats whose
//! summation order differs).

#![deny(unsafe_code)]

pub mod bfs;
pub mod bp;
pub mod cc;
pub mod incremental;
pub mod multi;
pub mod pagerank;
pub mod reference;
pub mod repair;
pub mod spmv;
pub mod sssp;

pub use bfs::{Bfs, UNVISITED};
pub use bp::BeliefPropagation;
pub use cc::ConnectedComponents;
pub use incremental::{
    bfs_overlay, cc_overlay, pagerank_overlay, sssp_overlay, WarmStart, DEFAULT_PR_TOL,
};
pub use multi::{run_multi_source, MultiRunResult, MultiSource, SingleSource, MAX_LANES};
pub use pagerank::PageRank;
pub use reference::{run_reference, run_reference_rounds};
pub use repair::warm_repair;
pub use spmv::SpMV;
pub use sssp::{Sssp, UNREACHED};
