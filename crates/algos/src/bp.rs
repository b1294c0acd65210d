//! Loopy belief propagation on a binary pairwise MRF, log-odds domain.
//!
//! The paper's BP workload (Kang et al., the paper's ref. 25) estimates vertex probabilities
//! by iterative message passing along weighted edges. For binary states the
//! sum-product message from `s` to `t` under an Ising pairwise potential
//! with coupling `J` has the closed form
//!
//! ```text
//! m(s→t) = 2·atanh( tanh(J) · tanh(b(s)/2) )
//! ```
//!
//! where `b(s)` is `s`'s current log-odds belief; a vertex's belief is its
//! local field plus the sum of incoming messages. This implementation maps
//! the paper's `(0, 100]` edge weights to couplings `J = w/200 ∈ (0, 0.5]`
//! and damps the belief update for stability. Messages are *summed* (log
//! domain), so the access pattern is identical to PageRank's — which is why
//! the paper groups PR/SpMV/BP as "sparse matrix multiplication algorithms"
//! — while the per-edge `tanh`/`atanh` makes BP several times more
//! compute-heavy, as Table 3 shows.

use polymer_api::{Combine, FrontierInit, Program};
use polymer_graph::{VId, Weight};

/// The belief-propagation program.
#[derive(Clone, Debug)]
pub struct BeliefPropagation {
    /// Uniform local field (prior log-odds) of every vertex.
    pub local_field: f64,
    /// Damping factor applied to the belief update.
    pub damping: f64,
    /// Convergence threshold ε on the belief change.
    pub epsilon: f64,
    /// Iteration cap (the paper times five).
    pub max_iters: usize,
}

impl BeliefPropagation {
    /// Paper-style defaults: five timed iterations.
    pub fn new() -> Self {
        BeliefPropagation {
            local_field: 0.25,
            damping: 0.5,
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

impl Default for BeliefPropagation {
    fn default() -> Self {
        Self::new()
    }
}

impl Program for BeliefPropagation {
    type Val = f64;

    fn name(&self) -> &'static str {
        "BP"
    }

    fn combine(&self) -> Combine {
        Combine::Add
    }

    fn next_identity(&self) -> f64 {
        0.0
    }

    fn init(&self, _v: VId) -> f64 {
        self.local_field
    }

    #[inline]
    fn scatter(&self, _src: VId, src_val: f64, w: Weight, _src_out_degree: u32) -> f64 {
        let coupling = w as f64 / 200.0;
        2.0 * (coupling.tanh() * (src_val / 2.0).tanh()).atanh()
    }

    #[inline]
    fn apply(&self, _v: VId, acc: f64, curr: f64) -> (f64, bool) {
        let new = (1.0 - self.damping) * curr + self.damping * (self.local_field + acc);
        (new, (new - curr).abs() > self.epsilon)
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

    fn scatter_cycles(&self) -> f64 {
        // tanh + atanh + multiplies: roughly 80 cycles per message.
        80.0
    }

    #[inline]
    fn fold(&self, a: f64, b: f64) -> f64 {
        a + b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_is_bounded_by_coupling() {
        let bp = BeliefPropagation::new();
        // |m| ≤ 2·atanh(tanh(J)) = 2J, regardless of the source belief.
        for w in [1, 50, 100] {
            let j = w as f64 / 200.0;
            for b in [-10.0, -0.5, 0.0, 0.5, 10.0] {
                let m = bp.scatter(0, b, w, 1);
                assert!(m.abs() <= 2.0 * j + 1e-12, "w={w} b={b} m={m}");
                assert!(m.is_finite());
            }
        }
    }

    #[test]
    fn message_sign_follows_belief() {
        let bp = BeliefPropagation::new();
        assert!(bp.scatter(0, 1.0, 100, 1) > 0.0);
        assert!(bp.scatter(0, -1.0, 100, 1) < 0.0);
        assert_eq!(bp.scatter(0, 0.0, 100, 1), 0.0);
    }

    #[test]
    fn apply_damps_toward_field_plus_messages() {
        let bp = BeliefPropagation::new();
        let (new, alive) = bp.apply(0, 0.5, 0.25);
        // 0.5*0.25 + 0.5*(0.25 + 0.5) = 0.5.
        assert!((new - 0.5).abs() < 1e-12);
        assert!(alive);
        let (same, alive2) = bp.apply(0, new - bp.local_field, new);
        assert!((same - new).abs() < 1e-12);
        assert!(!alive2);
    }
}
