//! # polymer-trace — the observability layer
//!
//! A lightweight, zero-dependency event/span layer that the executors emit
//! into: spans for phases, iterations and barrier crossings, plus per-socket
//! counters (transactions and bytes split by access pattern × hop distance,
//! LLC hit/miss bytes, busy time, spill events). Times are simulated
//! nanosecond-resolution microseconds when recorded by the deterministic
//! [`SimExecutor`](https://docs.rs/polymer-numa), and wall-clock
//! microseconds when recorded by the real-thread executor through
//! [`SharedTracer`].
//!
//! Three sinks consume a recorded [`TraceBuffer`]:
//!
//! * the buffer itself — queryable in-memory from tests and harness code
//!   ([`TraceBuffer::total_barrier_us`], [`TraceBuffer::phase_rows`],
//!   [`TraceBuffer::iteration_us`], …);
//! * [`chrome::chrome_trace_json`] — a `chrome://tracing` / Perfetto JSON
//!   exporter with one lane per simulated socket and one per worker;
//! * [`table::phase_table`] — a compact per-phase text table the
//!   `polymer-bench` binaries print and write alongside JSON results.
//!
//! Tracing is off by default and zero-cost when disabled: the recording
//! handle is the two-variant enum [`Tracer`] (no `dyn` in the hot path), and
//! every record call takes a closure that is never invoked — and whose
//! argument is never built — while the tracer is [`Tracer::Off`].
//!
//! ```
//! use polymer_trace::{PhaseSpan, SocketSample, Tracer};
//!
//! let mut tracer = Tracer::default();          // Off: record() is a no-op
//! tracer.record(|_| unreachable!("not called while disabled"));
//!
//! tracer.enable(2, 4);                         // 2 sockets, 4 workers
//! tracer.set_iteration(Some(0));
//! tracer.record(|buf| {
//!     buf.push_phase(PhaseSpan {
//!         name: "scatter",
//!         iteration: buf.iteration(),
//!         start_us: 0.0,
//!         dur_us: 125.0,
//!         per_thread_us: vec![125.0, 110.0, 90.0, 80.0],
//!         per_socket: vec![SocketSample::default(); 2],
//!         spilled_pages: 0,
//!     });
//!     buf.push_barrier(125.0, 8.0);
//! });
//! let buf = tracer.buffer().unwrap();
//! assert_eq!(buf.phases.len(), 1);
//! assert_eq!(buf.total_barrier_us(), 8.0);
//! // Every socket waits out the full barrier, so each lane sums to it.
//! assert_eq!(buf.barrier_wait_per_socket(), vec![8.0, 8.0]);
//! ```

#![deny(unsafe_code)]

pub mod chrome;
pub mod table;

pub use chrome::chrome_trace_json;
pub use table::phase_table;

/// Per-socket counters for one phase, attributed to the *issuing* socket
/// (the socket whose threads performed the accesses).
///
/// The 2×4 matrices are indexed `[pattern][distance]` with pattern
/// 0 = sequential, 1 = random, and distance the hop class
/// 0 = local, 1 = one hop intra-package, 2 = one hop, 3 = two hops —
/// matching `Pattern::index()` and `DistClass::index()` in `polymer-numa`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SocketSample {
    /// Load (read) transactions issued by this socket's threads.
    pub loads: u64,
    /// Store (write) transactions issued by this socket's threads.
    pub stores: u64,
    /// Transactions by `[pattern][hop distance]`.
    pub count: [[u64; 4]; 2],
    /// Bytes moved by `[pattern][hop distance]` (before cache filtering).
    pub bytes: [[u64; 4]; 2],
    /// Bytes served from the socket's LLC.
    pub llc_hit_bytes: f64,
    /// Bytes that missed the LLC and went to DRAM.
    pub llc_miss_bytes: f64,
    /// Busy time of the socket's slowest thread, µs.
    pub busy_us: f64,
}

impl SocketSample {
    /// Bytes whose home was this socket's own node (distance class 0).
    pub fn local_bytes(&self) -> u64 {
        self.bytes[0][0] + self.bytes[1][0]
    }

    /// Bytes homed on any other node (distance classes 1–3).
    pub fn remote_bytes(&self) -> u64 {
        self.bytes.iter().map(|p| p[1] + p[2] + p[3]).sum()
    }

    /// Fold another sample into this one (counters add; busy time adds,
    /// since per-phase busy times are disjoint on the timeline).
    pub fn merge(&mut self, other: &SocketSample) {
        self.loads += other.loads;
        self.stores += other.stores;
        for p in 0..2 {
            for d in 0..4 {
                self.count[p][d] += other.count[p][d];
                self.bytes[p][d] += other.bytes[p][d];
            }
        }
        self.llc_hit_bytes += other.llc_hit_bytes;
        self.llc_miss_bytes += other.llc_miss_bytes;
        self.busy_us += other.busy_us;
    }
}

/// One bulk-synchronous phase on the run timeline.
#[derive(Clone, Debug)]
pub struct PhaseSpan {
    /// Phase name (`"scatter-push"`, `"gather-pull"`, `"apply"`, …).
    pub name: &'static str,
    /// Iteration/superstep stamp, when the executor set one.
    pub iteration: Option<u64>,
    /// Start on the run timeline, µs.
    pub start_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
    /// Busy time per worker for this phase, µs.
    pub per_thread_us: Vec<f64>,
    /// Counters per socket (see [`SocketSample`]); may be empty when the
    /// recording executor has no cost model (real-thread runs).
    pub per_socket: Vec<SocketSample>,
    /// Pages that spilled off their requested node during this phase.
    pub spilled_pages: u64,
}

/// One barrier crossing on the run timeline.
#[derive(Clone, Copy, Debug)]
pub struct BarrierSpan {
    /// Iteration/superstep stamp, when the executor set one.
    pub iteration: Option<u64>,
    /// Start on the run timeline, µs.
    pub start_us: f64,
    /// Synchronization cost, µs. Every participating socket waits this out.
    pub dur_us: f64,
}

/// A span recorded by one real OS worker thread (wall-clock executors).
#[derive(Clone, Debug)]
pub struct WorkerSpan {
    /// Span name (`"iteration"`, `"barrier-wait"`, …).
    pub name: &'static str,
    /// Recording worker (lane).
    pub worker: usize,
    /// Iteration stamp.
    pub iteration: Option<u64>,
    /// Start relative to the tracer's epoch, µs.
    pub start_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
}

/// Aggregated per-phase-name statistics (one row of the compact table).
#[derive(Clone, Debug)]
pub struct PhaseRow {
    /// Phase name.
    pub name: &'static str,
    /// Number of recorded spans.
    pub calls: u64,
    /// Summed duration, µs.
    pub total_us: f64,
    /// Summed bytes homed on the issuing socket.
    pub local_bytes: u64,
    /// Summed bytes homed on other sockets.
    pub remote_bytes: u64,
    /// Byte-weighted LLC hit fraction.
    pub llc_hit_ratio: f64,
    /// Pages spilled during these spans.
    pub spilled_pages: u64,
}

/// The in-memory sink: everything recorded during one run, queryable
/// directly and exportable through [`chrome_trace_json`] / [`phase_table`].
#[derive(Clone, Debug, Default)]
pub struct TraceBuffer {
    /// Simulated sockets participating in the run.
    pub sockets: usize,
    /// Worker threads participating in the run.
    pub workers: usize,
    /// Recorded phases, in timeline order.
    pub phases: Vec<PhaseSpan>,
    /// Recorded barrier crossings, in timeline order.
    pub barriers: Vec<BarrierSpan>,
    /// Spans recorded by real worker threads (empty for simulated runs).
    pub worker_spans: Vec<WorkerSpan>,
    /// Set when the run ended abnormally (worker panic, poisoned barrier):
    /// the buffer is valid but covers only the completed prefix.
    pub truncated: bool,
    iteration: Option<u64>,
}

impl TraceBuffer {
    /// An empty buffer for a run spanning `sockets` sockets and `workers`
    /// worker threads.
    pub fn new(sockets: usize, workers: usize) -> Self {
        TraceBuffer {
            sockets,
            workers,
            ..Default::default()
        }
    }

    /// The current iteration stamp applied to newly recorded spans.
    pub fn iteration(&self) -> Option<u64> {
        self.iteration
    }

    /// Set (or clear) the iteration stamp for subsequent spans.
    pub fn set_iteration(&mut self, iteration: Option<u64>) {
        self.iteration = iteration;
    }

    /// Append a phase span.
    pub fn push_phase(&mut self, span: PhaseSpan) {
        self.phases.push(span);
    }

    /// Append a barrier crossing stamped with the current iteration.
    pub fn push_barrier(&mut self, start_us: f64, dur_us: f64) {
        self.barriers.push(BarrierSpan {
            iteration: self.iteration,
            start_us,
            dur_us,
        });
    }

    /// Append a worker-thread span (wall-clock executors).
    pub fn push_worker_span(&mut self, span: WorkerSpan) {
        self.worker_spans.push(span);
    }

    /// Mark the buffer as covering only a truncated prefix of the run.
    pub fn mark_truncated(&mut self) {
        self.truncated = true;
    }

    /// Total synchronization time over all recorded barriers, µs.
    pub fn total_barrier_us(&self) -> f64 {
        self.barriers.iter().map(|b| b.dur_us).sum()
    }

    /// Barrier wait time per socket, µs. A barrier releases no socket until
    /// the last one arrives, so every socket lane waits out each barrier's
    /// full cost: each entry equals [`TraceBuffer::total_barrier_us`].
    pub fn barrier_wait_per_socket(&self) -> Vec<f64> {
        vec![self.total_barrier_us(); self.sockets]
    }

    /// Sum of phase durations, µs.
    pub fn total_phase_us(&self) -> f64 {
        self.phases.iter().map(|p| p.dur_us).sum()
    }

    /// Per-phase-name aggregation in first-seen order, with a final
    /// `"barrier"` row when barriers were recorded.
    pub fn phase_rows(&self) -> Vec<PhaseRow> {
        let mut rows: Vec<PhaseRow> = Vec::new();
        for p in &self.phases {
            let row = match rows.iter_mut().find(|r| r.name == p.name) {
                Some(r) => r,
                None => {
                    rows.push(PhaseRow {
                        name: p.name,
                        calls: 0,
                        total_us: 0.0,
                        local_bytes: 0,
                        remote_bytes: 0,
                        llc_hit_ratio: 0.0,
                        spilled_pages: 0,
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.calls += 1;
            row.total_us += p.dur_us;
            row.spilled_pages += p.spilled_pages;
            for s in &p.per_socket {
                row.local_bytes += s.local_bytes();
                row.remote_bytes += s.remote_bytes();
                // Stash hit/miss byte sums in the ratio field; normalized
                // below once every span is folded in.
                row.llc_hit_ratio += s.llc_hit_bytes;
            }
        }
        for row in &mut rows {
            let all = (row.local_bytes + row.remote_bytes) as f64;
            row.llc_hit_ratio = if all == 0.0 {
                0.0
            } else {
                row.llc_hit_ratio / all
            };
        }
        if !self.barriers.is_empty() {
            rows.push(PhaseRow {
                name: "barrier",
                calls: self.barriers.len() as u64,
                total_us: self.total_barrier_us(),
                local_bytes: 0,
                remote_bytes: 0,
                llc_hit_ratio: 0.0,
                spilled_pages: 0,
            });
        }
        rows
    }

    /// Time per iteration stamp, µs: `(iteration, phase + barrier time)`
    /// for every stamp seen, in ascending iteration order. Spans recorded
    /// without a stamp (construction, init) are excluded.
    pub fn iteration_us(&self) -> Vec<(u64, f64)> {
        let mut acc: Vec<(u64, f64)> = Vec::new();
        let mut add = |it: Option<u64>, dur: f64| {
            let Some(it) = it else { return };
            match acc.binary_search_by_key(&it, |e| e.0) {
                Ok(i) => acc[i].1 += dur,
                Err(i) => acc.insert(i, (it, dur)),
            }
        };
        for p in &self.phases {
            add(p.iteration, p.dur_us);
        }
        for b in &self.barriers {
            add(b.iteration, b.dur_us);
        }
        acc
    }
}

/// The recording handle: a two-variant enum so that the disabled path is a
/// branch on a discriminant — no allocation, no virtual dispatch, and the
/// closure passed to [`Tracer::record`] is never run (nor its captured
/// argument built) while off.
#[derive(Clone, Debug, Default)]
pub enum Tracer {
    /// Recording disabled (the default); every operation is a no-op.
    #[default]
    Off,
    /// Recording into the boxed buffer.
    On(Box<TraceBuffer>),
}

impl Tracer {
    /// Whether spans are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        matches!(self, Tracer::On(_))
    }

    /// Start recording into a fresh buffer for `sockets` × `workers`.
    /// Replaces any previously recorded buffer.
    pub fn enable(&mut self, sockets: usize, workers: usize) {
        *self = Tracer::On(Box::new(TraceBuffer::new(sockets, workers)));
    }

    /// Run `f` against the buffer if recording is enabled; otherwise do
    /// nothing. This is the single hot-path entry: callers build spans
    /// *inside* the closure so the disabled path does no work at all.
    #[inline]
    pub fn record(&mut self, f: impl FnOnce(&mut TraceBuffer)) {
        if let Tracer::On(buf) = self {
            f(buf);
        }
    }

    /// Stamp subsequent spans with an iteration number (no-op when off).
    #[inline]
    pub fn set_iteration(&mut self, iteration: Option<u64>) {
        if let Tracer::On(buf) = self {
            buf.set_iteration(iteration);
        }
    }

    /// The recorded buffer, if enabled.
    pub fn buffer(&self) -> Option<&TraceBuffer> {
        match self {
            Tracer::Off => None,
            Tracer::On(buf) => Some(buf),
        }
    }
}

/// A thread-safe tracer for real-OS-thread executors: workers record
/// wall-clock spans relative to a common epoch through a shared reference.
/// The mutex sits outside any per-edge work (workers record once per phase
/// or barrier), so contention is negligible.
#[derive(Debug)]
pub struct SharedTracer {
    epoch: std::time::Instant,
    buf: std::sync::Mutex<TraceBuffer>,
}

impl SharedTracer {
    /// A tracer whose epoch (time zero) is now.
    pub fn new(sockets: usize, workers: usize) -> Self {
        SharedTracer {
            epoch: std::time::Instant::now(),
            buf: std::sync::Mutex::new(TraceBuffer::new(sockets, workers)),
        }
    }

    /// Microseconds elapsed since the epoch.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Record a worker span. Panic-tolerant: a poisoned mutex (a sibling
    /// panicked while recording) still records.
    pub fn push_worker_span(&self, span: WorkerSpan) {
        self.lock().push_worker_span(span);
    }

    /// Mark the eventual buffer truncated (abnormal end of run).
    pub fn mark_truncated(&self) {
        self.lock().mark_truncated();
    }

    /// Extract the buffer (consumes the tracer).
    pub fn into_buffer(self) -> TraceBuffer {
        self.buf
            .into_inner()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceBuffer> {
        self.buf.lock().unwrap_or_else(|poison| poison.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(bytes_local: u64, bytes_remote: u64) -> SocketSample {
        let mut s = SocketSample::default();
        s.bytes[0][0] = bytes_local;
        s.bytes[0][2] = bytes_remote;
        s.count[0][0] = bytes_local / 8;
        s.count[0][2] = bytes_remote / 8;
        s.loads = s.count.iter().flatten().sum();
        s.llc_hit_bytes = bytes_local as f64 / 2.0;
        s.llc_miss_bytes = bytes_local as f64 / 2.0 + bytes_remote as f64;
        s
    }

    fn demo_buffer() -> TraceBuffer {
        let mut buf = TraceBuffer::new(2, 4);
        buf.set_iteration(Some(0));
        buf.push_phase(PhaseSpan {
            name: "scatter",
            iteration: buf.iteration(),
            start_us: 0.0,
            dur_us: 100.0,
            per_thread_us: vec![100.0, 90.0, 60.0, 50.0],
            per_socket: vec![sample(800, 160), sample(400, 80)],
            spilled_pages: 0,
        });
        buf.push_barrier(100.0, 8.0);
        buf.set_iteration(Some(1));
        buf.push_phase(PhaseSpan {
            name: "scatter",
            iteration: buf.iteration(),
            start_us: 108.0,
            dur_us: 50.0,
            per_thread_us: vec![50.0, 40.0, 30.0, 20.0],
            per_socket: vec![sample(400, 80), sample(200, 40)],
            spilled_pages: 2,
        });
        buf.push_barrier(158.0, 8.0);
        buf
    }

    #[test]
    fn disabled_tracer_is_a_no_op() {
        let mut t = Tracer::default();
        assert!(!t.is_enabled());
        t.record(|_| panic!("must not run while off"));
        t.set_iteration(Some(3));
        assert!(t.buffer().is_none());
    }

    #[test]
    fn enabled_tracer_records_and_takes() {
        let mut t = Tracer::default();
        t.enable(2, 4);
        t.set_iteration(Some(7));
        t.record(|buf| buf.push_barrier(0.0, 5.0));
        assert!(t.is_enabled());
        let buf = t.buffer().expect("buffer present");
        assert_eq!(buf.barriers.len(), 1);
        assert_eq!(buf.barriers[0].iteration, Some(7));
    }

    #[test]
    fn barrier_wait_per_socket_sums_to_total() {
        let buf = demo_buffer();
        assert_eq!(buf.total_barrier_us(), 16.0);
        assert_eq!(buf.barrier_wait_per_socket(), vec![16.0, 16.0]);
    }

    #[test]
    fn phase_rows_aggregate_by_name() {
        let rows = demo_buffer().phase_rows();
        assert_eq!(rows.len(), 2, "scatter + barrier");
        assert_eq!(rows[0].name, "scatter");
        assert_eq!(rows[0].calls, 2);
        assert_eq!(rows[0].total_us, 150.0);
        assert_eq!(rows[0].local_bytes, 1800);
        assert_eq!(rows[0].remote_bytes, 360);
        assert_eq!(rows[0].spilled_pages, 2);
        assert!(rows[0].llc_hit_ratio > 0.0 && rows[0].llc_hit_ratio < 1.0);
        assert_eq!(rows[1].name, "barrier");
        assert_eq!(rows[1].calls, 2);
    }

    #[test]
    fn iteration_times_split_phases_and_barriers() {
        let per_iter = demo_buffer().iteration_us();
        assert_eq!(per_iter, vec![(0, 108.0), (1, 58.0)]);
    }

    #[test]
    fn socket_totals_merge_all_phases() {
        let buf = demo_buffer();
        let mut totals = vec![SocketSample::default(); buf.sockets];
        for p in &buf.phases {
            for (t, s) in totals.iter_mut().zip(&p.per_socket) {
                t.merge(s);
            }
        }
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].local_bytes(), 1200);
        assert_eq!(totals[0].remote_bytes(), 240);
        assert_eq!(totals[1].local_bytes(), 600);
    }

    #[test]
    fn shared_tracer_collects_worker_spans() {
        let tr = std::sync::Arc::new(SharedTracer::new(1, 2));
        let handles: Vec<_> = (0..2)
            .map(|w| {
                let tr = tr.clone();
                std::thread::spawn(move || {
                    tr.push_worker_span(WorkerSpan {
                        name: "iteration",
                        worker: w,
                        iteration: Some(0),
                        start_us: tr.now_us(),
                        dur_us: 1.0,
                    });
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        tr.mark_truncated();
        let buf = std::sync::Arc::try_unwrap(tr).unwrap().into_buffer();
        assert_eq!(buf.worker_spans.len(), 2);
        assert!(buf.truncated);
    }
}
