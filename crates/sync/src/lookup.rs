//! The lock-less tree-structured lookup table (Section 4.2).
//!
//! Polymer re-allocates runtime states every iteration; building one
//! contiguous array each time would be costly and contended. Instead each
//! NUMA node allocates its partition locally and links it into an indirect
//! *router array* — this table. Installation is a single atomic publish per
//! node (no locks, no contention between nodes); readers index the router
//! and then the partition.

use std::sync::OnceLock;

/// A fixed-width router array of independently installed partitions.
pub struct LookupTable<T> {
    slots: Vec<OnceLock<T>>,
}

impl<T> LookupTable<T> {
    /// A table with `nodes` empty slots.
    pub fn new(nodes: usize) -> Self {
        LookupTable {
            slots: (0..nodes).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the table has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Install `value` into `slot`. Lock-free; panics if the slot was
    /// already installed (each node owns exactly one slot per iteration).
    pub fn install(&self, slot: usize, value: T) {
        if self.slots[slot].set(value).is_err() {
            panic!("lookup table slot {slot} installed twice");
        }
    }

    /// The partition installed at `slot`, if any.
    pub fn get(&self, slot: usize) -> Option<&T> {
        self.slots[slot].get()
    }

    /// Iterate installed partitions in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|s| s.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_and_get() {
        let t: LookupTable<Vec<u32>> = LookupTable::new(3);
        assert_eq!(t.len(), 3);
        assert!(t.iter().count() < t.len());
        t.install(1, vec![10, 20]);
        assert_eq!(t.get(1), Some(&vec![10, 20]));
        assert_eq!(t.get(0), None);
        t.install(0, vec![]);
        t.install(2, vec![1]);
        assert_eq!(t.iter().count(), t.len());
        assert_eq!(t.iter().count(), 3);
    }

    #[test]
    #[should_panic(expected = "installed twice")]
    fn double_install_panics() {
        let t: LookupTable<u32> = LookupTable::new(1);
        t.install(0, 1);
        t.install(0, 2);
    }

    #[test]
    fn concurrent_install_from_many_threads() {
        let t: LookupTable<Vec<u64>> = LookupTable::new(8);
        crossbeam::scope(|s| {
            for node in 0..8usize {
                let t = &t;
                s.spawn(move |_| {
                    t.install(node, vec![node as u64; 100]);
                });
            }
        })
        .unwrap();
        assert_eq!(t.iter().count(), t.len());
        for node in 0..8 {
            assert_eq!(t.get(node).unwrap()[0], node as u64);
        }
    }
}
