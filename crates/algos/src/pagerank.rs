//! PageRank (paper Algorithm 4.1): synchronous, push-based.
//!
//! `Dnext[t] += Dcurr[s] / |Nout(s)|` along every active edge, then
//! `Dnext[v] ← 0.15/|V| + 0.85 × Dnext[v]`; a vertex stays alive while its
//! rank moved by more than ε. The paper times the first five iterations.

use polymer_api::{Combine, FrontierInit, Program};
use polymer_graph::{VId, Weight};

/// The PageRank program.
#[derive(Clone, Debug)]
pub struct PageRank {
    n: f64,
    /// Damping factor (0.85 in the paper).
    pub damping: f64,
    /// Convergence threshold ε.
    pub epsilon: f64,
    /// Iteration cap (the paper reports the first five iterations).
    pub max_iters: usize,
}

impl PageRank {
    /// PageRank over a graph with `n` vertices, with the paper's defaults
    /// (damping 0.85, five iterations).
    pub fn new(n: usize) -> Self {
        PageRank {
            n: n as f64,
            damping: 0.85,
            epsilon: 1e-9,
            max_iters: 5,
        }
    }

    /// Override the iteration cap.
    pub fn with_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }
}

impl Program for PageRank {
    type Val = f64;

    fn name(&self) -> &'static str {
        "PR"
    }

    #[inline]
    fn combine(&self) -> Combine {
        Combine::Add
    }

    fn next_identity(&self) -> f64 {
        0.0
    }

    fn init(&self, _v: VId) -> f64 {
        1.0 / self.n
    }

    #[inline]
    fn scatter(&self, _src: VId, src_val: f64, _w: Weight, src_out_degree: u32) -> f64 {
        src_val / src_out_degree as f64
    }

    #[inline]
    fn apply(&self, _v: VId, acc: f64, curr: f64) -> (f64, bool) {
        let new = (1.0 - self.damping) / self.n + self.damping * acc;
        (new, (new - curr).abs() > self.epsilon)
    }

    fn initial_frontier(&self) -> FrontierInit {
        FrontierInit::All
    }

    fn prefer_push(&self) -> bool {
        true
    }

    fn scatter_cycles(&self) -> f64 {
        // One division plus the add: ~6 cycles per edge.
        6.0
    }

    fn max_iters(&self) -> usize {
        self.max_iters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_divides_by_degree() {
        let pr = PageRank::new(10);
        assert!((pr.scatter(0, 0.5, 1, 5) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn apply_applies_damping() {
        let pr = PageRank::new(4);
        let (v, alive) = pr.apply(0, 1.0, 0.25);
        assert!((v - (0.15 / 4.0 + 0.85)).abs() < 1e-12);
        assert!(alive);
        // A converged vertex goes inactive.
        let (v2, alive2) = pr.apply(0, (v - 0.15 / 4.0) / 0.85, v);
        assert!((v2 - v).abs() < 1e-12);
        assert!(!alive2);
    }

    #[test]
    fn init_is_uniform() {
        let pr = PageRank::new(4);
        assert_eq!(pr.init(2), 0.25);
        assert_eq!(pr.initial_frontier(), FrontierInit::All);
        assert_eq!(pr.max_iters(), 5);
        assert_eq!(pr.with_iters(3).max_iters(), 3);
    }
}
