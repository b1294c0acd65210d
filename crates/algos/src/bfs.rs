//! Breadth-first search computing hop distances (levels) from the source.
//!
//! Levels rather than parent pointers keep the fixed point independent of
//! execution order — min-combining `level(s) + 1` converges to the hop
//! distance under synchronous *and* asynchronous scheduling, so all four
//! engines (including the Galois-like asynchronous one) agree exactly.
//! Ligra's data-driven hybrid push/pull and adaptive frontier
//! representations apply unchanged.

use polymer_api::{Combine, FrontierInit, Program};
use polymer_graph::{VId, Weight};

/// Level of an unvisited vertex.
pub const UNVISITED: u32 = u32::MAX;

/// The BFS program. `Val` is the hop distance from the source
/// (`UNVISITED` before discovery; the source is at level 0).
#[derive(Clone, Debug)]
pub struct Bfs {
    /// The source vertex.
    pub source: VId,
}

impl Bfs {
    /// BFS from `source`.
    pub fn new(source: VId) -> Self {
        Bfs { source }
    }
}

impl Program for Bfs {
    type Val = u32;

    fn name(&self) -> &'static str {
        "BFS"
    }

    fn combine(&self) -> Combine {
        Combine::Min
    }

    fn next_identity(&self) -> u32 {
        UNVISITED
    }

    fn init(&self, v: VId) -> u32 {
        if v == self.source {
            0
        } else {
            UNVISITED
        }
    }

    #[inline]
    fn scatter(&self, _src: VId, src_val: u32, _w: Weight, _src_out_degree: u32) -> u32 {
        debug_assert_ne!(src_val, UNVISITED, "unvisited vertices must not scatter");
        src_val + 1
    }

    #[inline]
    fn apply(&self, _v: VId, acc: u32, curr: u32) -> (u32, bool) {
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

    #[inline]
    fn fold(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn val_from_u64(&self, raw: u64) -> u32 {
        raw as u32
    }

    fn priority_of(&self, val: u32) -> u64 {
        val as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_marks_only_source() {
        let b = Bfs::new(1);
        assert_eq!(b.init(1), 0);
        assert_eq!(b.init(0), UNVISITED);
        assert_eq!(b.initial_frontier(), FrontierInit::Single(1));
    }

    #[test]
    fn scatter_increments_level() {
        let b = Bfs::new(0);
        assert_eq!(b.scatter(0, 0, 1, 5), 1);
        assert_eq!(b.scatter(3, 7, 1, 5), 8);
    }

    #[test]
    fn apply_keeps_minimum_level() {
        let b = Bfs::new(0);
        assert_eq!(b.apply(5, 3, UNVISITED), (3, true));
        assert_eq!(b.apply(5, 4, 3), (3, false));
        assert_eq!(b.apply(5, 2, 3), (2, true));
    }

    #[test]
    fn priority_is_level() {
        let b = Bfs::new(0);
        assert_eq!(b.priority_of(7), 7);
        assert_eq!(b.val_from_u64(9), 9);
    }
}
