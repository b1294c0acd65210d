//! # polymer-serve — resident-graph request serving
//!
//! The batch benchmarks load a graph, run one algorithm, and exit. This
//! crate keeps the expensive part — the CSR and its NUMA placement —
//! **resident**: a [`GraphService`] loads the graph once and serves
//! concurrent algorithm requests from a bounded queue over a worker pool,
//! the serving analogue of the paper's repeated-analytics setting.
//!
//! The serving contract, end to end:
//!
//! * **Admission control.** [`GraphService::submit`] either admits a
//!   request or rejects it *now* with a typed error: queue at capacity →
//!   [`PolymerError::QueueFull`]; aggregate scratch estimate past the
//!   configured budget → [`PolymerError::MemoryBudgetExceeded`] (both
//!   retryable: back off and resubmit); invalid for the resident graph (a
//!   source out of range, an SSSP Δ of 0, a PageRank past `2·|V| + 64`
//!   rounds) → [`PolymerError::InvalidConfig`]; stopped service →
//!   [`PolymerError::ServiceStopped`]. Admitted requests pledge their
//!   scratch estimate until completion.
//!
//! * **Coalescing.** A dispatching worker takes the queue head plus every
//!   queued request in the same batching class (BFS with BFS, SSSP with
//!   equal Δ, PageRank with PageRank of any `iters`) and answers them with
//!   **one** host kernel run on its own thread. BFS / SSSP share a
//!   multi-source sweep ([`polymer_algos::run_multi_source`]): one
//!   adjacency walk per iteration, amortized across up to
//!   [`polymer_algos::MAX_LANES`] lanes, single-writer — plain lane state,
//!   no atomics. These programs are integer min-combine fixed points, so
//!   every lane is bit-identical to the request run alone. PageRank
//!   requests share one sequential run to the largest `iters`
//!   ([`polymer_algos::run_reference_rounds`]), copied out at every `iters`
//!   asked, each copy bit-identical to a run of its own. Batching changes
//!   latency, never answers; a request dispatched alone is a one-lane run
//!   of the same kernel. After an ingest a batch computes only the lanes
//!   nothing cheaper answers (below).
//!
//! * **Faults.** Every answer is a host kernel (a sweep, a PageRank run or
//!   a warm repair), deterministic, so an error from one is returned typed,
//!   at once: nothing retries, resumes from a checkpoint or degrades to
//!   another backend. A panic on any answer path is caught and fails the
//!   requests of that dispatch, never the worker.
//!
//! * **Deadlines.** A request may carry a budget measured from submission
//!   (queue wait counts), given to [`GraphService::submit_with_deadline`].
//!   Expired before dispatch → typed [`PolymerError::DeadlineExceeded`],
//!   never run. Still live at dispatch → it runs to the end: a budget
//!   never interrupts a run, PageRank included. Completed but late → the
//!   answer is delivered with
//!   [`ServeResponse::deadline_missed`] set, and counted in
//!   [`ServeStats::deadline_missed`].
//!
//! * **Continuous ingest.** [`RequestKind::Ingest`] applies an edge
//!   mutation batch to the resident graph through the same queue and
//!   admission machinery (batches are validated at admission). The first
//!   ingest canonicalizes the resident edge set into a
//!   [`polymer_graph::MutableGraph`] and switches the service to *mutated
//!   mode*, where answers are cached per lane with their epoch. A repeat
//!   query with no intervening mutation is a pure cache hit; a BFS / SSSP
//!   query after further ingests is repaired from its cached result by
//!   [`polymer_algos::warm_repair`], and the ones of a batch with no usable
//!   prior share one cold [`polymer_algos::run_multi_source`] sweep.
//!   [`RequestKind::PageRank`] means what it means in static mode: the
//!   distinct `iters` of a batch with no cached answer share one run. Every
//!   one of these is a sequential host kernel over the
//!   [`polymer_graph::MutableGraph`] itself, on the worker's thread, under
//!   one hold of the mutation mutex, so an ingest waits for a running
//!   PageRank; nothing is placed on a simulated machine to answer any of
//!   them. `docs/SERVING.md` tabulates who answers what;
//!   `docs/INCREMENTAL.md` covers the delta model and warm starts.
//!
//! * **Shutdown.** [`GraphService::stop`] (also on drop) fails queued
//!   requests with [`PolymerError::ServiceStopped`], lets in-flight runs
//!   deliver, and joins the pool.
//!
//! Every response is stamped with its request id, so results fanned out of
//! a coalesced sweep stay attributable, and with the graph version that
//! answered it ([`ServeResponse::epoch`]). `docs/SERVING.md` walks through the
//! design; the repository benchmark's `serve-read` / `serve-ingest`
//! workloads (`benchmark/`) measure throughput and latency percentiles, and
//! `tests/serve.rs` checks the admission ledger under multi-worker overload.
//!
//! ```
//! use polymer_graph::{gen, Graph};
//! use polymer_serve::{GraphService, RequestKind, ServeConfig};
//!
//! let g = Graph::from_edges(&gen::rmat(6, 512, gen::RMAT_GRAPH500, 1));
//! let svc = GraphService::new(g, ServeConfig::default()).unwrap();
//! let ticket = svc.submit(RequestKind::Bfs { source: 0 }).unwrap();
//! let response = ticket.wait().unwrap();
//! assert_eq!(response.values.levels().unwrap()[0], 0);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod mutate;
mod request;
mod service;

pub use polymer_faults::{PolymerError, PolymerResult};
pub use request::{RequestKind, ResponseValues, ServeResponse, ServeStats, Ticket};
pub use service::{GraphService, ServeConfig};
