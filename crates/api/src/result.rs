//! Run results: final values plus everything the experiment harness reports.

use polymer_numa::{MemoryReport, PhaseCost, RemoteAccessReport, RunClock, TraceBuffer};

/// The outcome of running a [`crate::Program`] on an [`crate::Engine`].
pub struct RunResult<V> {
    /// Final `curr` value of every vertex.
    pub values: Vec<V>,
    /// Iterations executed.
    pub iterations: usize,
    /// The simulated clock of the computation stage (construction excluded,
    /// as the paper's timings exclude it).
    pub clock: RunClock,
    /// Peak memory at the end of the run.
    pub memory: MemoryReport,
    /// Simulated threads used.
    pub threads: usize,
    /// Sockets spanned.
    pub sockets: usize,
}

impl<V> RunResult<V> {
    /// Simulated wall time in seconds (Table 3's unit).
    pub fn seconds(&self) -> f64 {
        self.clock.elapsed_sec()
    }

    /// Simulated wall time in microseconds.
    pub fn micros(&self) -> f64 {
        self.clock.elapsed_us()
    }

    /// The accumulated access profile (Table 4's source).
    pub fn total_cost(&self) -> &PhaseCost {
        &self.clock.total
    }

    /// Remote-access report (Table 4 columns).
    pub fn remote_report(&self) -> RemoteAccessReport {
        RemoteAccessReport::from_cost(&self.clock.total)
    }

    /// The recorded span/counter timeline, when the run was traced
    /// ([`crate::RunOptions::traced`]); `None` otherwise. Export with
    /// [`polymer_numa::chrome_trace_json`] or [`polymer_numa::phase_table`].
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.clock.trace.buffer()
    }

    /// Per-socket busy time in µs: the maximum accumulated per-thread time
    /// over each socket's threads (Figure 11(b)'s per-socket bars).
    /// `threads_per_socket` is the executor's thread grouping width.
    pub fn per_socket_us(&self, threads_per_socket: usize) -> Vec<f64> {
        self.clock
            .total
            .per_thread_us
            .chunks(threads_per_socket.max(1))
            .map(|c| c.iter().cloned().fold(0.0, f64::max))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let mut clock = RunClock::default();
        clock.total.time_us = 1_500_000.0;
        clock.barrier_us = 500_000.0;
        clock.total.per_thread_us = vec![1.0, 5.0, 2.0, 4.0];
        clock.total.count_local = 3;
        clock.total.count_remote = 1;
        let r = RunResult {
            values: vec![0u32; 4],
            iterations: 7,
            clock,
            memory: MemoryReport {
                peak_bytes: 1 << 30,
                ..MemoryReport::default()
            },
            threads: 4,
            sockets: 2,
        };
        assert!((r.seconds() - 2.0).abs() < 1e-12);
        assert_eq!(r.per_socket_us(2), vec![5.0, 4.0]);
        assert!((r.remote_report().access_rate_remote - 0.25).abs() < 1e-12);
        assert!((r.memory.peak_gib() - 1.0).abs() < 1e-12);
    }
}
