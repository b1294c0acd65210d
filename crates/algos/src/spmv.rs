//! Sparse matrix–vector multiplication: `x ← Aᵀx` iterated, where `A` is the
//! weighted adjacency matrix. Each iteration a vertex's new value is the
//! weighted sum of its in-neighbors' values, exactly the paper's SpMV
//! workload (five timed iterations over the weighted graph).

use polymer_api::{Combine, FrontierInit, Program};
use polymer_graph::{VId, Weight};

/// The SpMV program. Values are scaled by `1/100` per hop so five iterations
/// stay in a numerically tame range with the paper's `(0, 100]` weights.
#[derive(Clone, Debug)]
pub struct SpMV {
    /// Iteration count (the paper times five).
    pub max_iters: usize,
}

impl SpMV {
    /// Five iterations, as the paper reports.
    pub fn new() -> Self {
        SpMV { max_iters: 5 }
    }

    /// Override the iteration count.
    pub fn with_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }
}

impl Default for SpMV {
    fn default() -> Self {
        Self::new()
    }
}

impl Program for SpMV {
    type Val = f64;

    fn name(&self) -> &'static str {
        "SpMV"
    }

    #[inline]
    fn combine(&self) -> Combine {
        Combine::Add
    }

    fn next_identity(&self) -> f64 {
        0.0
    }

    fn init(&self, v: VId) -> f64 {
        // A deterministic non-uniform input vector.
        1.0 + (v % 7) as f64 * 0.125
    }

    #[inline]
    fn scatter(&self, _src: VId, src_val: f64, w: Weight, _src_out_degree: u32) -> f64 {
        src_val * (w as f64 / 100.0)
    }

    #[inline]
    fn apply(&self, _v: VId, acc: f64, _curr: f64) -> (f64, bool) {
        (acc, true)
    }

    fn initial_frontier(&self) -> FrontierInit {
        FrontierInit::All
    }

    fn max_iters(&self) -> usize {
        self.max_iters
    }

    fn uses_weights(&self) -> bool {
        true
    }

    fn prefer_push(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_scales_by_weight() {
        let s = SpMV::new();
        assert!((s.scatter(0, 2.0, 50, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn apply_replaces_and_stays_alive() {
        let s = SpMV::new();
        assert_eq!(s.apply(0, 3.5, 1.0), (3.5, true));
    }

    #[test]
    fn init_varies_by_vertex() {
        let s = SpMV::new();
        assert_ne!(s.init(0), s.init(1));
        assert!(s.uses_weights());
        assert_eq!(s.with_iters(2).max_iters(), 2);
    }
}
