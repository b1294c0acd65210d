//! Connected components by label propagation (Zhu & Ghahramani, the paper's ref. 49, in the
//! paper): every vertex starts with its own id as label and repeatedly takes
//! the minimum label among itself and its neighbors. Run over the
//! symmetrized graph, the fixed point assigns every vertex the minimum
//! vertex id of its (weakly) connected component — the same fixed point the
//! Galois-like engine's union-find specialization produces, so all engines
//! agree exactly.

use polymer_api::{Combine, FrontierInit, Program};
use polymer_graph::{VId, Weight};

/// The connected-components program. `Val` is the current component label.
#[derive(Clone, Debug, Default)]
pub struct ConnectedComponents;

impl ConnectedComponents {
    /// A new CC program.
    pub fn new() -> Self {
        ConnectedComponents
    }
}

impl Program for ConnectedComponents {
    type Val = u32;

    fn name(&self) -> &'static str {
        "CC"
    }

    fn combine(&self) -> Combine {
        Combine::Min
    }

    fn next_identity(&self) -> u32 {
        u32::MAX
    }

    fn init(&self, v: VId) -> u32 {
        v
    }

    #[inline]
    fn scatter(&self, _src: VId, src_val: u32, _w: Weight, _src_out_degree: u32) -> u32 {
        src_val
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
        FrontierInit::All
    }

    fn max_iters(&self) -> usize {
        usize::MAX
    }

    fn needs_symmetric(&self) -> bool {
        true
    }

    #[inline]
    fn fold(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn val_from_u64(&self, raw: u64) -> u32 {
        raw as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_is_own_id() {
        let cc = ConnectedComponents::new();
        assert_eq!(cc.init(2), 2);
        assert!(cc.needs_symmetric());
    }

    #[test]
    fn apply_takes_smaller_label() {
        let cc = ConnectedComponents::new();
        assert_eq!(cc.apply(0, 1, 5), (1, true));
        assert_eq!(cc.apply(0, 7, 5), (5, false));
        assert_eq!(cc.apply(0, u32::MAX, 5), (5, false));
    }

    #[test]
    fn scatter_forwards_label() {
        let cc = ConnectedComponents::new();
        assert_eq!(cc.scatter(9, 3, 1, 2), 3);
        assert_eq!(cc.val_from_u64(7), 7);
    }
}
