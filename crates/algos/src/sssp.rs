//! Single-source shortest paths: Bellman–Ford with data-driven scheduling
//! (the paper's Polymer/Ligra/X-Stream implementation, its ref. 16); the Galois-like
//! engine executes the same program asynchronously with delta-stepping
//! priorities (ref. 37) via [`polymer_api::Program::priority_of`]. Both converge
//! to the exact shortest distances, so results agree across engines.

use polymer_api::{Combine, FrontierInit, Program};
use polymer_graph::{VId, Weight};

/// Distance of an unreached vertex.
pub const UNREACHED: u64 = u64::MAX;

/// The SSSP program. `Val` is the tentative distance.
#[derive(Clone, Debug)]
pub struct Sssp {
    /// The source vertex.
    pub source: VId,
    /// Delta-stepping bucket width used as the scheduling priority
    /// granularity by asynchronous engines.
    pub delta: u64,
}

impl Sssp {
    /// SSSP from `source` with the default bucket width (the paper's graphs
    /// have weights in `(0, 100]`; Δ = 100 buckets one average edge).
    pub fn new(source: VId) -> Self {
        Sssp { source, delta: 100 }
    }

    /// Override the delta-stepping bucket width.
    pub fn with_delta(mut self, delta: u64) -> Self {
        assert!(delta >= 1, "delta must be positive");
        self.delta = delta;
        self
    }
}

impl Program for Sssp {
    type Val = u64;

    fn name(&self) -> &'static str {
        "SSSP"
    }

    fn combine(&self) -> Combine {
        Combine::Min
    }

    fn next_identity(&self) -> u64 {
        UNREACHED
    }

    fn init(&self, v: VId) -> u64 {
        if v == self.source {
            0
        } else {
            UNREACHED
        }
    }

    #[inline]
    fn scatter(&self, _src: VId, src_val: u64, w: Weight, _src_out_degree: u32) -> u64 {
        debug_assert_ne!(src_val, UNREACHED, "unreached vertices must not scatter");
        src_val + w as u64
    }

    #[inline]
    fn apply(&self, _v: VId, acc: u64, curr: u64) -> (u64, bool) {
        if acc < curr {
            (acc, true)
        } else {
            (curr, false)
        }
    }

    fn initial_frontier(&self) -> FrontierInit {
        FrontierInit::Single(self.source)
    }

    fn max_iters(&self) -> usize {
        usize::MAX
    }

    fn uses_weights(&self) -> bool {
        true
    }

    #[inline]
    fn fold(&self, a: u64, b: u64) -> u64 {
        a.min(b)
    }

    fn val_from_u64(&self, raw: u64) -> u64 {
        raw
    }

    fn priority_of(&self, val: u64) -> u64 {
        val / self.delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_zero_at_source() {
        let s = Sssp::new(1);
        assert_eq!(s.init(1), 0);
        assert_eq!(s.init(0), UNREACHED);
        assert_eq!(s.initial_frontier(), FrontierInit::Single(1));
    }

    #[test]
    fn scatter_adds_weight_and_apply_relaxes() {
        let s = Sssp::new(0);
        assert_eq!(s.scatter(0, 10, 5, 1), 15);
        assert_eq!(s.apply(1, 15, UNREACHED), (15, true));
        assert_eq!(s.apply(1, 20, 15), (15, false));
        assert_eq!(s.apply(1, 12, 15), (12, true));
    }

    #[test]
    fn priority_buckets_by_delta() {
        let s = Sssp::new(0).with_delta(50);
        assert_eq!(s.priority_of(0), 0);
        assert_eq!(s.priority_of(49), 0);
        assert_eq!(s.priority_of(50), 1);
        assert_eq!(s.priority_of(500), 10);
    }

    #[test]
    #[should_panic(expected = "delta must be positive")]
    fn zero_delta_rejected() {
        Sssp::new(0).with_delta(0);
    }
}
