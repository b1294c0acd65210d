//! An atomic `f64` cell built from an integer atomic via bit casts.
//!
//! The paper's `PREdgeF` uses `AtomicAdd` on application-defined `f64` rank
//! data; Rust has no `AtomicF64`, so this wrapper implements atomic add and
//! min with compare-exchange loops over `AtomicU64`.
//! The reductions used by the engines are commutative and associative, so
//! `Relaxed` ordering suffices for the data itself; phase boundaries (the
//! barriers in `polymer-sync`) provide the cross-thread happens-before edges.
//!
//! No `unsafe` is needed: `f64::to_bits`/`from_bits` are safe transmutes.

use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic `f64` cell; see module docs for the memory-order contract.
#[derive(Debug, Default)]
pub struct AtomicF64 {
    bits: AtomicU64,
}

impl AtomicF64 {
    /// Create a cell holding `v`.
    #[inline]
    pub fn new(v: f64) -> Self {
        Self {
            bits: AtomicU64::new(v.to_bits()),
        }
    }

    /// Load the current value.
    #[inline]
    pub fn load(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Store a new value.
    #[inline]
    pub fn store(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Atomically add `v`, returning the previous value.
    #[inline]
    pub fn fetch_add(&self, v: f64) -> f64 {
        self.rmw(|cur| cur + v)
    }

    /// Atomically take the minimum with `v`, returning the previous value.
    /// `v` replaces the stored value only when `v < cur`, so a NaN on either
    /// side keeps the stored value, and so does `-0.0` against `0.0`.
    #[inline]
    pub fn fetch_min(&self, v: f64) -> f64 {
        self.rmw(|cur| if v < cur { v } else { cur })
    }

    #[inline]
    fn rmw(&self, f: impl Fn(f64) -> f64) -> f64 {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let old = f64::from_bits(cur);
            let new = f(old).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return old,
                Err(actual) => cur = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_min_max_mul() {
        let a = AtomicF64::new(1.5);
        assert_eq!(a.fetch_add(2.5), 1.5);
        assert_eq!(a.load(), 4.0);
        assert_eq!(a.fetch_min(3.0), 4.0);
        assert_eq!(a.load(), 3.0);
        assert_eq!(a.fetch_min(5.0), 3.0);
        assert_eq!(a.load(), 3.0);
    }

    #[test]
    fn concurrent_adds_sum_exactly() {
        // Powers of two so float addition is exact regardless of order.
        let a = std::sync::Arc::new(AtomicF64::new(0.0));
        let threads = 4;
        let per = 10_000;
        crossbeam::scope(|s| {
            for _ in 0..threads {
                let a = a.clone();
                s.spawn(move |_| {
                    for _ in 0..per {
                        a.fetch_add(0.25);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(a.load(), threads as f64 * per as f64 * 0.25);
    }

    #[test]
    fn concurrent_min_converges() {
        let a = std::sync::Arc::new(AtomicF64::new(f64::INFINITY));
        crossbeam::scope(|s| {
            for t in 0..4u64 {
                let a = a.clone();
                s.spawn(move |_| {
                    for i in 0..1000u64 {
                        a.fetch_min((t * 1000 + i) as f64);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(a.load(), 0.0);
    }
}
