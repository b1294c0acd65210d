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
//!   retryable: back off and resubmit); invalid for the resident graph →
//!   [`PolymerError::InvalidConfig`]; stopped service →
//!   [`PolymerError::ServiceStopped`]. Admitted requests pledge their
//!   scratch estimate until completion.
//!
//! * **Coalescing.** A dispatching worker takes the queue head plus every
//!   queued request in the same batching class (BFS with BFS, SSSP with
//!   equal Δ) and answers them with **one** multi-source sweep
//!   ([`polymer_algos::run_multi_source`]): one adjacency walk per
//!   iteration, amortized across up to [`polymer_algos::MAX_LANES`] lanes.
//!   The sweep is single-writer — plain lane state, no atomics — and runs
//!   on the dispatching worker's own thread.
//!   These programs are integer min-combine fixed points, so every lane is
//!   bit-identical to the request run alone — batching changes latency,
//!   never answers. A BFS / SSSP dispatched alone is a one-lane sweep of the
//!   same kernel. Whole-graph requests (PageRank) never coalesce. After an
//!   ingest a batch sweeps only the lanes nothing cheaper answers (below).
//!
//! * **Supervision.** PageRank, in either mode, is the one engine run: it
//!   goes through the full [`polymer_api::supervisor::RunSupervisor`] on
//!   [`ServeConfig::backend`]: checkpoint-resume, retry/backoff, and the
//!   RealThreads → halved-groups → Simulated degrade ladder. Every BFS /
//!   SSSP is a host kernel (a sweep or a warm repair), deterministic and
//!   blind to injected faults, so an error from one is returned typed, at
//!   once. A panic on any answer path is caught and fails the requests of
//!   that dispatch, never the worker.
//!
//! * **Deadlines.** A request may carry a budget measured from submission
//!   (queue wait counts). Expired before dispatch → typed
//!   [`PolymerError::DeadlineExceeded`], never run. Still live at dispatch
//!   → a PageRank's remaining budget tightens the supervisor via
//!   [`polymer_api::supervisor::SupervisorConfig::with_deadline`]; a
//!   traversal's tightens nothing, it only gated the dispatch.
//!   Completed but late → the answer is delivered with
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
//!   prior share one cold [`polymer_algos::run_multi_source`] sweep — two
//!   sequential host kernels over the [`polymer_graph::MutableGraph`]
//!   itself, on the worker's thread, under one hold of the mutation mutex;
//!   nothing is placed on a simulated machine to answer either.
//!   [`RequestKind::PageRank`] means what it means in static mode: the
//!   mutation mutex is held for the cache lookup and a CSR snapshot, then
//!   the same supervised engine run reads the snapshot. `docs/SERVING.md`
//!   tabulates who answers what; `docs/INCREMENTAL.md` covers the delta
//!   model and warm starts.
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
