//! The [`Program`] trait: one algorithm, four engines.

use polymer_graph::{VId, Weight};
use polymer_numa::Atom;

/// The commutative, associative operator folding edge contributions into a
/// target's `next` cell — the one place a program states it. The simulated
/// engines charge a push-mode combine as the matching atomic (one write
/// transaction) and perform it on the one host thread that writes the cell
/// ([`crate::exec::serial_combine`]). It, pull mode, the real-thread
/// executor and the host kernels all fold plain values with
/// [`Combine::fold`], which leaves the value the atomic would.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Combine {
    /// `next[t] += c` (PageRank, SpMV, log-domain BP).
    Add,
    /// `next[t] = min(next[t], c)` (BFS parents, CC labels, SSSP distances).
    Min,
}

impl Combine {
    /// Fold contribution `b` into the value `a` on the host: the value the
    /// matching atomic leaves in a cell holding `a`.
    #[inline]
    pub fn fold<V: Atom>(self, a: V, b: V) -> V {
        match self {
            Combine::Add => V::host_add(a, b),
            Combine::Min => V::host_min(a, b),
        }
    }
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

    /// True when edge weights are semantically meaningful (SpMV, SSSP, BP).
    fn uses_weights(&self) -> bool {
        false
    }

    /// True when the *simulated* engines should run push-mode scatter even
    /// on dense frontiers (the paper runs synchronous push-based PageRank on
    /// Polymer, Ligra and X-Stream "because it is relatively faster"). This
    /// is a statement about the paper's machines and is honoured by the
    /// simulator-backed engines only. [`crate::Backend::RealThreads`] pushes
    /// on every iteration whatever this says: its dense push already keeps
    /// every random write in a private partial array (what a pull buys on
    /// the paper's machines), and it walks only the frontier's out-edges
    /// where a gather walks every in-edge of every target; measured there, the
    /// push is the faster direction at every frontier density the benchmark
    /// input reaches (see [`crate::parallel`]).
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

    /// Scheduling priority of a value for priority-ordered asynchronous
    /// engines (the Galois-like engine's delta-stepping uses the tentative
    /// distance). Lower runs first. Default: no ordering.
    fn priority_of(&self, _val: Self::Val) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_fold() {
        assert_eq!(Combine::Add.fold(1.5, 2.0), 3.5);
        assert_eq!(Combine::Min.fold(1.5, 2.0), 1.5);
        assert_eq!(Combine::Min.fold(7u64, 3), 3);
        assert_eq!(Combine::Add.fold(7u64, 3), 10);
        assert_eq!(Combine::Add.fold(u32::MAX, 2), 1);
        assert_eq!(Combine::Min.fold(7u32, 3), 3);
    }
}
