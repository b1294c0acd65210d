//! The [`Program`] trait: one algorithm, four engines.

use polymer_graph::{VId, Weight};
use polymer_numa::Atom;

/// The commutative, associative operator folding edge contributions into a
/// target's `next` cell. The simulated engines dispatch to the matching
/// atomic operation in push mode and to a plain fold in pull mode; the
/// real-thread executor always folds through [`Program::fold`], which must
/// be the same operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Combine {
    /// `next[t] += c` (PageRank, SpMV, log-domain BP).
    Add,
    /// `next[t] = min(next[t], c)` (BFS parents, CC labels, SSSP distances).
    Min,
    /// `next[t] *= c`.
    Mul,
}

/// The initial active set of a program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrontierInit {
    /// Every vertex starts active (PR, SpMV, BP, CC).
    All,
    /// A single source vertex starts active (BFS, SSSP).
    Single(VId),
}

/// A vertex-centric scatter–gather program (see the crate docs for the
/// iteration semantics). `Val` is the per-vertex application-defined value,
/// stored in the engines' `curr`/`next` arrays.
pub trait Program: Sync {
    /// Per-vertex value type.
    type Val: Atom + PartialEq + std::fmt::Debug;

    /// Short name for reports ("PR", "BFS", ...).
    fn name(&self) -> &'static str;

    /// The contribution-folding operator.
    fn combine(&self) -> Combine;

    /// Identity of [`Program::combine`]; `next` cells are reset to this at
    /// the start of every iteration.
    fn next_identity(&self) -> Self::Val;

    /// Initial `curr` value of vertex `v`.
    fn init(&self, v: VId) -> Self::Val;

    /// Contribution of the edge `(src, ·)` given the source's current value
    /// `src_val`, the edge weight `w`, and the source's out-degree
    /// (PageRank divides by it; BFS proposes `src` itself as the parent).
    fn scatter(&self, src: VId, src_val: Self::Val, w: Weight, src_out_degree: u32) -> Self::Val;

    /// Fold an updated vertex: given the accumulated contributions `acc` and
    /// the current value, return the new `curr` value and whether the vertex
    /// is active next iteration.
    fn apply(&self, v: VId, acc: Self::Val, curr: Self::Val) -> (Self::Val, bool);

    /// The initial active set.
    fn initial_frontier(&self) -> FrontierInit;

    /// Iteration cap; `usize::MAX` means "until the frontier empties".
    fn max_iters(&self) -> usize;

    /// True when the algorithm is defined over the undirected (symmetrized)
    /// graph — the harness symmetrizes before running (CC).
    fn needs_symmetric(&self) -> bool {
        false
    }

    /// True when edge weights are semantically meaningful (SpMV, SSSP, BP).
    fn uses_weights(&self) -> bool {
        false
    }

    /// True when the *simulated* engines should run push-mode scatter even
    /// on dense frontiers (the paper runs synchronous push-based PageRank on
    /// Polymer, Ligra and X-Stream "because it is relatively faster"). This
    /// is a statement about the paper's machines and is honoured by the
    /// simulator-backed engines only: on [`crate::Backend::RealThreads`] the
    /// direction follows frontier density alone (see
    /// [`crate::ExecProfile`]), because there a dense gather is a single
    /// owner-local store per target while a dense push bins and re-reads
    /// every remote contribution.
    fn prefer_push(&self) -> bool {
        false
    }

    /// CPU cycles of arithmetic per edge (beyond the memory accesses), which
    /// engines charge to the simulated clock. Belief propagation's
    /// `tanh`/`atanh` message function makes it an order of magnitude more
    /// compute-heavy than PageRank — the reason the paper's BP rows run
    /// several times longer than PR on the same graphs.
    fn scatter_cycles(&self) -> f64 {
        2.0
    }

    /// Fold two contributions on the host (pull mode, the real-thread
    /// executor in both directions, reference implementations). Must agree
    /// with [`Program::combine`].
    fn fold(&self, a: Self::Val, b: Self::Val) -> Self::Val;

    /// Reinterpret a raw integer as a `Val` — implemented by integer-valued
    /// programs so engines with algorithm specializations (e.g. the
    /// Galois-like engine's union-find connected components) can emit values
    /// directly. The default panics.
    fn val_from_u64(&self, _raw: u64) -> Self::Val {
        unimplemented!("this program has no integer value embedding")
    }

    /// Scheduling priority of a value for priority-ordered asynchronous
    /// engines (the Galois-like engine's delta-stepping uses the tentative
    /// distance). Lower runs first. Default: no ordering.
    fn priority_of(&self, _val: Self::Val) -> u64 {
        0
    }
}

/// Dispatch a combine op on host values — helper for implementing
/// [`Program::fold`] uniformly.
#[inline]
pub fn fold_f64(op: Combine, a: f64, b: f64) -> f64 {
    match op {
        Combine::Add => a + b,
        Combine::Min => a.min(b),
        Combine::Mul => a * b,
    }
}

/// Integer variant of [`fold_f64`].
#[inline]
pub fn fold_u64(op: Combine, a: u64, b: u64) -> u64 {
    match op {
        Combine::Add => a.wrapping_add(b),
        Combine::Min => a.min(b),
        Combine::Mul => a.wrapping_mul(b),
    }
}

/// `u32` variant of [`fold_f64`].
#[inline]
pub fn fold_u32(op: Combine, a: u32, b: u32) -> u32 {
    match op {
        Combine::Add => a.wrapping_add(b),
        Combine::Min => a.min(b),
        Combine::Mul => a.wrapping_mul(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_helpers() {
        assert_eq!(fold_f64(Combine::Add, 1.5, 2.0), 3.5);
        assert_eq!(fold_f64(Combine::Min, 1.5, 2.0), 1.5);
        assert_eq!(fold_f64(Combine::Mul, 1.5, 2.0), 3.0);
        assert_eq!(fold_u64(Combine::Min, 7, 3), 3);
        assert_eq!(fold_u64(Combine::Add, 7, 3), 10);
        assert_eq!(fold_u32(Combine::Min, 7, 3), 3);
        assert_eq!(fold_u32(Combine::Mul, 7, 3), 21);
    }
}
