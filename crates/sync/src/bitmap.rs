//! NUMA-placed atomic bitmaps for dense runtime states.
//!
//! One bit per vertex over `u64` words stored in a
//! [`polymer_numa::NumaAtomicArray`], so every state access is classified by
//! the machine model exactly like the `Stat/curr` / `Stat/next` arrays in
//! the paper's Figures 2 and 6.

use polymer_numa::{AccessCtx, AllocPolicy, AllocRef, Machine, NumaAtomicArray};

/// A dense atomic bitmap over `n` vertices.
pub struct DenseBitmap {
    n: usize,
    bits: NumaAtomicArray<u64>,
}

impl DenseBitmap {
    /// An all-zero bitmap named `name` with the given placement.
    pub fn new(machine: &Machine, name: &str, n: usize, policy: AllocPolicy) -> Self {
        let words = n.div_ceil(64).max(1);
        DenseBitmap {
            n,
            bits: machine.alloc_atomic::<u64>(name, words, policy),
        }
    }

    /// Number of vertices covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the bitmap covers no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of backing words.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.bits.len()
    }

    /// Atomically set bit `v`; returns `true` when the bit was newly set.
    /// Accounted as one write transaction.
    #[inline]
    pub fn set(&self, ctx: &mut AccessCtx, v: usize) -> bool {
        debug_assert!(v < self.n);
        let prev = self.bits.fetch_or(ctx, v / 64, 1u64 << (v % 64));
        prev & (1u64 << (v % 64)) == 0
    }

    /// [`DenseBitmap::set`] for a caller that is the only writer of `v`'s
    /// word for the phase: a plain load and one accounted store instead of
    /// a host `fetch_or`. Records the same single write transaction and
    /// returns the same answer.
    #[inline]
    pub fn set_unshared(&self, ctx: &mut AccessCtx, v: usize) -> bool {
        debug_assert!(v < self.n);
        let bit = 1u64 << (v % 64);
        let prev = self.bits.raw_load(v / 64);
        self.bits.store(ctx, v / 64, prev | bit);
        prev & bit == 0
    }

    /// Charge what [`DenseBitmap::set`] of bit `v` charges — one write of
    /// its word — without setting it; the caller sets it later, unaccounted.
    #[inline]
    pub fn charge_set(&self, ctx: &mut AccessCtx, v: usize) {
        debug_assert!(v < self.n);
        self.bits.charge_store(ctx, v / 64);
    }

    /// Accounted test of bit `v`.
    #[inline]
    pub fn test(&self, ctx: &mut AccessCtx, v: usize) -> bool {
        debug_assert!(v < self.n);
        self.bits.load(ctx, v / 64) & (1u64 << (v % 64)) != 0
    }

    /// Accounted read of backing word `w`, charged as `k` loads of it — what
    /// `k` [`DenseBitmap::test`]s of bits in that word cost, with one
    /// classification. `k = 0` charges nothing.
    #[inline]
    pub fn word_repeat(&self, ctx: &mut AccessCtx, w: usize, k: usize) -> u64 {
        self.bits.load_repeat(ctx, w, k)
    }

    /// Accounted sequential scan of the backing words `r`, charged through
    /// the run-coalesced bulk path — bit-identical statistics to one
    /// accounted load per word.
    #[inline]
    pub fn words_seq(
        &self,
        ctx: &mut AccessCtx,
        r: std::ops::Range<usize>,
    ) -> impl Iterator<Item = u64> + '_ {
        self.bits.iter_seq(ctx, r)
    }

    /// Unaccounted set, for initialization.
    #[inline]
    pub fn set_unaccounted(&self, v: usize) {
        debug_assert!(v < self.n);
        let w = self.bits.raw_load(v / 64);
        self.bits.raw_store(v / 64, w | (1u64 << (v % 64)));
    }

    /// The backing allocation as [`AccessCtx::replay_walk`] names it.
    #[inline]
    pub fn alloc_ref(&self) -> AllocRef<'_> {
        self.bits.alloc_ref()
    }

    /// Unaccounted test, for verification and for a replayed walk.
    #[inline]
    pub fn test_unaccounted(&self, v: usize) -> bool {
        self.bits.raw_load(v / 64) & (1u64 << (v % 64)) != 0
    }

    /// Unaccounted read of backing word `w` (maintenance between phases).
    #[inline]
    pub fn raw_word(&self, w: usize) -> u64 {
        self.bits.raw_load(w)
    }

    /// Unaccounted overwrite of backing word `w`.
    #[inline]
    pub fn raw_store_word(&self, w: usize, bits: u64) {
        self.bits.raw_store(w, bits);
    }

    /// Unaccounted clear of every bit (buffer reuse between iterations).
    pub fn clear_unaccounted(&self) {
        for w in 0..self.bits.len() {
            self.bits.raw_store(w, 0);
        }
    }

    /// Unaccounted population count.
    pub fn count_ones(&self) -> usize {
        (0..self.bits.len())
            .map(|w| self.bits.raw_load(w).count_ones() as usize)
            .sum()
    }

    /// Unaccounted iteration over set bits, ascending.
    pub fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.bits.len()).flat_map(move |w| {
            let mut word = self.bits.raw_load(w);
            // Mask out bits beyond n in the last word.
            if (w + 1) * 64 > self.n {
                let valid = self.n - w * 64;
                if valid < 64 {
                    word &= (1u64 << valid) - 1;
                }
            }
            std::iter::from_fn(move || {
                if word == 0 {
                    None
                } else {
                    let b = word.trailing_zeros() as usize;
                    word &= word - 1;
                    Some(w * 64 + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymer_numa::MachineSpec;

    fn setup(n: usize) -> (Machine, DenseBitmap) {
        let m = Machine::new(MachineSpec::test2());
        let b = DenseBitmap::new(&m, "stat/test", n, AllocPolicy::Interleaved);
        (m, b)
    }

    #[test]
    fn set_and_test() {
        let (m, b) = setup(200);
        let mut ctx = AccessCtx::new(&m, 0);
        assert!(b.set(&mut ctx, 5));
        assert!(!b.set(&mut ctx, 5));
        assert!(b.test(&mut ctx, 5));
        assert!(!b.test(&mut ctx, 6));
        assert!(b.set(&mut ctx, 199));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn unshared_and_deferred_sets_charge_what_set_charges() {
        // Fresh bits, their word neighbours, then every bit again, over both
        // nodes of `test2` (the words span several interleaved pages).
        let base: Vec<usize> = (0..150)
            .map(|k| (k * 4099 + (k % 3) * 64) % 70_000)
            .collect();
        let neighbours: Vec<usize> = base.iter().map(|v| v ^ 1).collect();
        let script = [&base[..], &neighbours, &base].concat();
        let run = |how: u8| {
            let (m, b) = setup(70_000);
            let mut ctx = AccessCtx::new(&m, 0);
            let won: Vec<bool> = script
                .iter()
                .map(|&v| match how {
                    0 => b.set(&mut ctx, v),
                    1 => b.set_unshared(&mut ctx, v),
                    _ => {
                        b.charge_set(&mut ctx, v);
                        let fresh = !b.test_unaccounted(v);
                        b.set_unaccounted(v);
                        fresh
                    }
                })
                .collect();
            let bits: Vec<usize> = b.iter_set().collect();
            (won, bits, ctx.take_stats())
        };
        let atomic = run(0);
        assert!(atomic.0.iter().any(|&w| !w), "the script revisits a bit");
        assert_eq!(run(1), atomic, "set_unshared");
        assert_eq!(run(2), atomic, "charge_set + unaccounted set");
    }

    #[test]
    fn iter_set_ascending_and_masked() {
        let (_m, b) = setup(70);
        for v in [0, 63, 64, 69] {
            b.set_unaccounted(v);
        }
        let got: Vec<usize> = b.iter_set().collect();
        assert_eq!(got, vec![0, 63, 64, 69]);
    }

    #[test]
    fn word_scan_reads_words() {
        let (m, b) = setup(128);
        b.set_unaccounted(1);
        b.set_unaccounted(64);
        let mut ctx = AccessCtx::new(&m, 0);
        let words: Vec<u64> = b.words_seq(&mut ctx, 0..2).collect();
        assert_eq!(words, vec![2, 1]);
        assert_eq!(b.num_words(), 2);
    }

    #[test]
    fn tiny_bitmap_has_one_word() {
        let (_m, b) = setup(3);
        b.set_unaccounted(2);
        assert_eq!(b.num_words(), 1);
        assert_eq!(b.iter_set().collect::<Vec<_>>(), vec![2]);
        assert!(b.test_unaccounted(2));
    }

    #[test]
    fn concurrent_sets_each_win_once() {
        let (m, b) = setup(64 * 64);
        // Every thread sets every bit; exactly one "newly set" per bit.
        let wins = std::sync::atomic::AtomicUsize::new(0);
        crossbeam::scope(|s| {
            for core in 0..4 {
                let b = &b;
                let m = &m;
                let wins = &wins;
                s.spawn(move |_| {
                    let mut ctx = AccessCtx::new(m, core);
                    for v in 0..64 * 64 {
                        if b.set(&mut ctx, v) {
                            wins.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(wins.load(std::sync::atomic::Ordering::Relaxed), 64 * 64);
        assert_eq!(b.count_ones(), 64 * 64);
    }
}
