//! Instrumented arrays: real data whose every access is classified by the
//! machine model.
//!
//! Two flavours mirror the paper's data-structure taxonomy (Section 2.1):
//!
//! * [`NumaArray<T>`] — read-mostly data (graph topology). Immutable after
//!   construction; reads go through [`AccessCtx`] for classification.
//! * [`NumaAtomicArray<T>`] — mutable shared data (application-defined
//!   `curr`/`next` arrays, runtime-state bitmaps). Element cells are real
//!   atomics, so the types are `Sync` and engine code written against them is
//!   data-race free even under genuine multithreading.
//!
//! Both carry a [`Placement`] resolved from the [`crate::AllocPolicy`] they
//! were allocated with; the destination node of each access is looked up from
//! the byte offset at page granularity.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::atomicf::AtomicF64;
use crate::ctx::{AccessCtx, AllocRef, Rw};
use crate::machine::{AllocId, Machine};
use crate::policy::Placement;

/// Scalar types that can live in a [`NumaAtomicArray`].
pub trait Atom: Copy + Send + Sync + 'static {
    /// The atomic cell type backing one element.
    type Repr: Send + Sync + 'static;
    /// True for types whose values can diverge to non-finite (floats);
    /// engines gate their per-iteration divergence scan on this so integer
    /// programs pay nothing.
    const CHECK_FINITE: bool = false;
    /// True when the value is finite. Always true for integers.
    #[inline]
    fn finite(self) -> bool {
        true
    }
    /// The zero value used for default initialization.
    fn zero() -> Self;
    /// Wrap a value in its atomic cell.
    fn new_atomic(v: Self) -> Self::Repr;
    /// Relaxed load.
    fn atom_load(r: &Self::Repr) -> Self;
    /// Relaxed store.
    fn atom_store(r: &Self::Repr, v: Self);
    /// Atomic add, returning the previous value.
    fn atom_add(r: &Self::Repr, v: Self) -> Self;
    /// Atomic min, returning the previous value.
    fn atom_min(r: &Self::Repr, v: Self) -> Self;
    /// `a + b` on plain values: the value [`Atom::atom_add`] leaves behind
    /// (integers wrap).
    fn host_add(a: Self, b: Self) -> Self;
    /// `min(a, b)` on plain values: the value [`Atom::atom_min`] leaves
    /// behind in a cell holding `a` (for floats, `b` wins only when `b < a`).
    fn host_min(a: Self, b: Self) -> Self;
}

macro_rules! int_atom {
    ($ty:ty, $atomic:ty) => {
        impl Atom for $ty {
            type Repr = $atomic;
            #[inline]
            fn zero() -> Self {
                0
            }
            #[inline]
            fn new_atomic(v: Self) -> Self::Repr {
                <$atomic>::new(v)
            }
            #[inline]
            fn atom_load(r: &Self::Repr) -> Self {
                r.load(Ordering::Relaxed)
            }
            #[inline]
            fn atom_store(r: &Self::Repr, v: Self) {
                r.store(v, Ordering::Relaxed)
            }
            #[inline]
            fn atom_add(r: &Self::Repr, v: Self) -> Self {
                r.fetch_add(v, Ordering::Relaxed)
            }
            #[inline]
            fn atom_min(r: &Self::Repr, v: Self) -> Self {
                r.fetch_min(v, Ordering::Relaxed)
            }
            #[inline]
            fn host_add(a: Self, b: Self) -> Self {
                a.wrapping_add(b)
            }
            #[inline]
            fn host_min(a: Self, b: Self) -> Self {
                a.min(b)
            }
        }
    };
}

int_atom!(u32, AtomicU32);
int_atom!(u64, AtomicU64);

impl Atom for f64 {
    type Repr = AtomicF64;
    const CHECK_FINITE: bool = true;
    #[inline]
    fn finite(self) -> bool {
        self.is_finite()
    }
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn new_atomic(v: Self) -> Self::Repr {
        AtomicF64::new(v)
    }
    #[inline]
    fn atom_load(r: &Self::Repr) -> Self {
        r.load()
    }
    #[inline]
    fn atom_store(r: &Self::Repr, v: Self) {
        r.store(v)
    }
    #[inline]
    fn atom_add(r: &Self::Repr, v: Self) -> Self {
        r.fetch_add(v)
    }
    #[inline]
    fn atom_min(r: &Self::Repr, v: Self) -> Self {
        r.fetch_min(v)
    }
    #[inline]
    fn host_add(a: Self, b: Self) -> Self {
        a + b
    }
    #[inline]
    fn host_min(a: Self, b: Self) -> Self {
        if b < a {
            b
        } else {
            a
        }
    }
}

/// Shared metadata of one instrumented allocation.
#[derive(Clone)]
pub(crate) struct ArrayMeta {
    pub id: AllocId,
    pub name: String,
    pub placement: Placement,
    pub elem: usize,
    pub machine: Machine,
}

impl ArrayMeta {
    #[inline]
    fn alloc_ref(&self) -> AllocRef<'_> {
        AllocRef {
            id: self.id,
            placement: &self.placement,
        }
    }

    #[inline]
    fn record(&self, ctx: &mut AccessCtx, idx: usize, rw: Rw) {
        ctx.record(self.id, &self.placement, idx * self.elem, self.elem, rw);
    }

    /// Charge `k` accesses of element `idx` in one step (see
    /// [`AccessCtx::record_repeat`]).
    #[inline]
    fn record_repeat(&self, ctx: &mut AccessCtx, idx: usize, k: usize, rw: Rw) {
        ctx.record_repeat(self.id, &self.placement, idx * self.elem, self.elem, k, rw);
    }

    /// Charge a contiguous element range `[start, start + n)` as one
    /// coalesced run (or per element when the fast path is disabled).
    #[inline]
    fn record_run(&self, ctx: &mut AccessCtx, start: usize, n: usize, rw: Rw) {
        ctx.record_run(
            self.id,
            &self.placement,
            start * self.elem,
            self.elem,
            n,
            rw,
        );
    }
}

/// A read-mostly instrumented array (graph topology data).
pub struct NumaArray<T> {
    data: Box<[T]>,
    meta: ArrayMeta,
}

impl<T: Copy> NumaArray<T> {
    pub(crate) fn new(machine: Machine, id: AllocId, placement: Placement, data: Box<[T]>) -> Self {
        let name = machine.alloc_name(id);
        NumaArray {
            data,
            meta: ArrayMeta {
                id,
                name,
                placement,
                elem: std::mem::size_of::<T>().max(1),
                machine,
            },
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the array has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Accounted read of element `i` by the simulated thread behind `ctx`.
    #[inline]
    pub fn get(&self, ctx: &mut AccessCtx, i: usize) -> T {
        self.meta.record(ctx, i, Rw::Read);
        self.data[i]
    }

    /// Accounted read of element `i`, charged as `k` reads of it —
    /// identical statistics to calling [`NumaArray::get`] `k` times, with
    /// one classification. `k = 0` charges nothing.
    #[inline]
    pub fn get_repeat(&self, ctx: &mut AccessCtx, i: usize, k: usize) -> T {
        self.meta.record_repeat(ctx, i, k, Rw::Read);
        self.data[i]
    }

    /// Accounted read of the element range `r`, charged as one coalesced
    /// sequential run (identical statistics to calling [`NumaArray::get`]
    /// once per element, classified once per page-run instead). Returns the
    /// backing slice, so the caller's data walk pays no per-element
    /// dispatch either.
    #[inline]
    pub fn load_range(&self, ctx: &mut AccessCtx, r: Range<usize>) -> &[T] {
        assert!(r.end <= self.data.len(), "load_range out of bounds");
        self.meta.record_run(ctx, r.start, r.len(), Rw::Read);
        // The assert above makes this slice operation check-free.
        &self.data[r]
    }

    /// Accounted sequential iteration over the element range `r`; equivalent
    /// to [`NumaArray::load_range`] but yielding elements by value.
    #[inline]
    pub fn iter_seq(&self, ctx: &mut AccessCtx, r: Range<usize>) -> impl Iterator<Item = T> + '_ {
        self.load_range(ctx, r).iter().copied()
    }

    /// Unaccounted view of the data (construction, verification, tests).
    #[inline]
    pub fn raw(&self) -> &[T] {
        &self.data
    }

    /// Home node of element `i`.
    #[inline]
    pub fn node_of(&self, i: usize) -> usize {
        self.meta.placement.node_of(i * self.meta.elem)
    }

    /// The allocation id, which keys per-array access statistics.
    #[inline]
    pub fn alloc_id(&self) -> AllocId {
        self.meta.id
    }

    /// The allocation as [`AccessCtx::replay_walk`] names it.
    #[inline]
    pub fn alloc_ref(&self) -> AllocRef<'_> {
        self.meta.alloc_ref()
    }
}

impl<T> std::fmt::Debug for NumaArray<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NumaArray")
            .field("name", &self.meta.name)
            .field("len", &self.data.len())
            .finish()
    }
}

impl<T> Drop for NumaArray<T> {
    fn drop(&mut self) {
        let bytes = (self.data.len() * self.meta.elem) as u64;
        self.meta
            .machine
            .on_free(self.meta.id, &self.meta.name, bytes);
    }
}

/// A mutable shared instrumented array (application data, runtime states).
pub struct NumaAtomicArray<T: Atom> {
    data: Box<[T::Repr]>,
    meta: ArrayMeta,
}

impl<T: Atom> NumaAtomicArray<T> {
    pub(crate) fn new(
        machine: Machine,
        id: AllocId,
        placement: Placement,
        data: Box<[T::Repr]>,
    ) -> Self {
        let name = machine.alloc_name(id);
        NumaAtomicArray {
            data,
            meta: ArrayMeta {
                id,
                name,
                placement,
                elem: std::mem::size_of::<T>().max(1),
                machine,
            },
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the array has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Accounted relaxed load.
    #[inline]
    pub fn load(&self, ctx: &mut AccessCtx, i: usize) -> T {
        self.meta.record(ctx, i, Rw::Read);
        T::atom_load(&self.data[i])
    }

    /// Accounted relaxed load of element `i`, charged as `k` loads of it —
    /// identical statistics to calling [`NumaAtomicArray::load`] `k` times,
    /// with one classification. `k = 0` charges nothing.
    #[inline]
    pub fn load_repeat(&self, ctx: &mut AccessCtx, i: usize, k: usize) -> T {
        self.meta.record_repeat(ctx, i, k, Rw::Read);
        T::atom_load(&self.data[i])
    }

    /// Accounted relaxed store.
    #[inline]
    pub fn store(&self, ctx: &mut AccessCtx, i: usize, v: T) {
        self.meta.record(ctx, i, Rw::Write);
        T::atom_store(&self.data[i], v);
    }

    /// Charge one [`NumaAtomicArray::store`] of element `i` without touching
    /// the cell: for a caller that charges a write where its offset is known
    /// and performs it later, unaccounted (see `docs/SIMULATOR.md` §7).
    #[inline]
    pub fn charge_store(&self, ctx: &mut AccessCtx, i: usize) {
        self.meta.record(ctx, i, Rw::Write);
    }

    /// Accounted atomic add; the read-modify-write is charged as one write
    /// transaction, matching how the paper counts accesses.
    #[inline]
    pub fn fetch_add(&self, ctx: &mut AccessCtx, i: usize, v: T) -> T {
        self.meta.record(ctx, i, Rw::Write);
        T::atom_add(&self.data[i], v)
    }

    /// Accounted atomic min.
    #[inline]
    pub fn fetch_min(&self, ctx: &mut AccessCtx, i: usize, v: T) -> T {
        self.meta.record(ctx, i, Rw::Write);
        T::atom_min(&self.data[i], v)
    }

    /// Accounted sequential iteration over the element range `r`, charged as
    /// one coalesced run — identical statistics to calling
    /// [`NumaAtomicArray::load`] once per element.
    #[inline]
    pub fn iter_seq(&self, ctx: &mut AccessCtx, r: Range<usize>) -> impl Iterator<Item = T> + '_ {
        assert!(r.end <= self.data.len(), "iter_seq out of bounds");
        self.meta.record_run(ctx, r.start, r.len(), Rw::Read);
        // The assert above makes this slice operation check-free.
        self.data[r].iter().map(T::atom_load)
    }

    /// Accounted sequential store sweep: `arr[i] = f(i)` for `i` in `r`,
    /// charged as one coalesced write run.
    #[inline]
    pub fn store_seq(&self, ctx: &mut AccessCtx, r: Range<usize>, mut f: impl FnMut(usize) -> T) {
        assert!(r.end <= self.data.len(), "store_seq out of bounds");
        self.meta.record_run(ctx, r.start, r.len(), Rw::Write);
        let start = r.start;
        for (k, cell) in self.data[r].iter().enumerate() {
            T::atom_store(cell, f(start + k));
        }
    }

    /// A sequential append cursor starting at `start`: consecutive
    /// [`SeqWriter::push`] calls store to consecutive slots, and the
    /// accounting is coalesced into page-runs when the writer is flushed.
    /// Call [`SeqWriter::flush`] before the phase ends — unflushed pushes
    /// are stored but not yet charged (with the fast path disabled, every
    /// push charges immediately and flush is a no-op).
    #[inline]
    pub fn seq_writer(&self, start: usize) -> SeqWriter<'_, T> {
        SeqWriter {
            arr: self,
            run_start: start,
            pos: start,
        }
    }

    /// Unaccounted load (construction, verification, tests).
    #[inline]
    pub fn raw_load(&self, i: usize) -> T {
        T::atom_load(&self.data[i])
    }

    /// Unaccounted store (construction stage).
    #[inline]
    pub fn raw_store(&self, i: usize, v: T) {
        T::atom_store(&self.data[i], v)
    }

    /// Copy out all values, unaccounted.
    pub fn snapshot(&self) -> Vec<T> {
        self.data.iter().map(T::atom_load).collect()
    }

    /// The allocation id, which keys per-array access statistics.
    #[inline]
    pub fn alloc_id(&self) -> AllocId {
        self.meta.id
    }

    /// The allocation as [`AccessCtx::replay_walk`] names it.
    #[inline]
    pub fn alloc_ref(&self) -> AllocRef<'_> {
        self.meta.alloc_ref()
    }
}

impl NumaAtomicArray<u64> {
    /// Accounted atomic bitwise OR, returning the previous word (bitmaps).
    #[inline]
    pub fn fetch_or(&self, ctx: &mut AccessCtx, i: usize, v: u64) -> u64 {
        self.meta.record(ctx, i, Rw::Write);
        self.data[i].fetch_or(v, Ordering::Relaxed)
    }
}

/// Sequential append cursor over a [`NumaAtomicArray`], for streams whose
/// length is not known up front (X-Stream's update buffers). Stores land
/// immediately; accounting for the contiguous run accumulates until
/// [`SeqWriter::flush`], which charges it as one coalesced write run —
/// bit-identical to per-push accounting because the slots are consecutive
/// and nothing else touches the array between pushes.
pub struct SeqWriter<'a, T: Atom> {
    arr: &'a NumaAtomicArray<T>,
    run_start: usize,
    pos: usize,
}

impl<T: Atom> SeqWriter<'_, T> {
    /// Store `v` at the cursor and advance.
    #[inline]
    pub fn push(&mut self, ctx: &mut AccessCtx, v: T) {
        if !ctx.bulk() {
            // Scalar oracle: charge each append individually.
            self.arr.meta.record(ctx, self.pos, Rw::Write);
            self.run_start = self.pos + 1;
        }
        T::atom_store(&self.arr.data[self.pos], v);
        self.pos += 1;
    }

    /// Charge the pending run of pushes as one coalesced write run.
    #[inline]
    pub fn flush(&mut self, ctx: &mut AccessCtx) {
        let n = self.pos - self.run_start;
        if n > 0 {
            self.arr.meta.record_run(ctx, self.run_start, n, Rw::Write);
        }
        self.run_start = self.pos;
    }

    /// The next slot to be written (= number of elements written when the
    /// cursor started at 0).
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }
}

impl<T: Atom> std::fmt::Debug for NumaAtomicArray<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NumaAtomicArray")
            .field("name", &self.meta.name)
            .field("len", &self.data.len())
            .finish()
    }
}

impl<T: Atom> Drop for NumaAtomicArray<T> {
    fn drop(&mut self) {
        let bytes = (self.data.len() * self.meta.elem) as u64;
        self.meta
            .machine
            .on_free(self.meta.id, &self.meta.name, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AllocPolicy;
    use crate::topology::MachineSpec;

    fn machine() -> Machine {
        Machine::new(MachineSpec::test2())
    }

    #[test]
    fn plain_array_reads_are_accounted() {
        let m = machine();
        let a = m.alloc_array_with("a", 1024, AllocPolicy::OnNode(0), |i| i as u64);
        let mut ctx = AccessCtx::new(&m, 0);
        assert_eq!(a.get(&mut ctx, 7), 7);
        assert_eq!(a.get(&mut ctx, 8), 8);
        let s = ctx.take_stats();
        assert_eq!(s.total_count(), 2);
        assert_eq!(s.total_bytes(), 16);
    }

    #[test]
    fn atomic_array_ops() {
        let m = machine();
        let a = m.alloc_atomic::<u64>("x", 8, AllocPolicy::Interleaved);
        let mut ctx = AccessCtx::new(&m, 0);
        a.store(&mut ctx, 0, 5);
        assert_eq!(a.fetch_add(&mut ctx, 0, 3), 5);
        assert_eq!(a.load(&mut ctx, 0), 8);
        assert_eq!(a.fetch_min(&mut ctx, 0, 2), 8);
        assert_eq!(a.fetch_or(&mut ctx, 0, 5), 2);
        assert_eq!(a.raw_load(0), 7);
    }

    #[test]
    fn float_atomic_array() {
        let m = machine();
        let a = m.alloc_atomic::<f64>("r", 4, AllocPolicy::OnNode(1));
        let mut ctx = AccessCtx::new(&m, 0);
        a.fetch_add(&mut ctx, 2, 1.5);
        a.fetch_add(&mut ctx, 2, 1.5);
        assert_eq!(a.load(&mut ctx, 2), 3.0);
        assert_eq!(a.fetch_min(&mut ctx, 2, 0.5), 3.0);
        assert_eq!(a.raw_load(2), 0.5);
    }

    #[test]
    fn node_of_follows_placement() {
        let m = machine();
        // 1024 u64 = 2 pages: page 0 -> node 0, page 1 -> node 1.
        let a = m.alloc_array::<u64>("p", 1024, AllocPolicy::Interleaved);
        assert_eq!(a.node_of(0), 0);
        assert_eq!(a.node_of(511), 0);
        assert_eq!(a.node_of(512), 1);
    }

    #[test]
    fn snapshot_copies_values() {
        let m = machine();
        let a = m.alloc_atomic_with::<u32>("s", 3, AllocPolicy::OnNode(0), |i| i as u32 * 10);
        assert_eq!(a.snapshot(), vec![0, 10, 20]);
    }

    #[test]
    fn load_range_matches_per_element_gets() {
        let m = machine();
        let a = m.alloc_array_with("lr", 2048, AllocPolicy::Interleaved, |i| i as u64);
        // Same walk through both paths on twin contexts.
        let mut c_bulk = AccessCtx::new(&m, 0);
        let mut c_scalar = AccessCtx::new(&m, 0);
        let slice = a.load_range(&mut c_bulk, 100..1500);
        assert_eq!(slice[0], 100);
        for i in 100..1500 {
            assert_eq!(a.get(&mut c_scalar, i), i as u64);
        }
        assert_eq!(c_bulk.take_stats(), c_scalar.take_stats());
    }

    #[test]
    fn store_seq_and_fill_store_values_and_account_like_scalar() {
        let m = machine();
        let a = m.alloc_atomic::<u64>("sw", 1024, AllocPolicy::Interleaved);
        let b = m.alloc_atomic::<u64>("sw2", 1024, AllocPolicy::Interleaved);
        let mut ca = AccessCtx::new(&m, 0);
        let mut cb = AccessCtx::new(&m, 0);
        a.store_seq(&mut ca, 10..600, |i| i as u64);
        // A fill is a constant sequential store.
        a.store_seq(&mut ca, 600..700, |_| 7);
        for i in 10..600 {
            b.store(&mut cb, i, i as u64);
        }
        for i in 600..700 {
            b.store(&mut cb, i, 7);
        }
        assert_eq!(a.snapshot(), b.snapshot());
        // Allocation ids differ, but the per-array counters must match.
        let (sa, sb) = (ca.take_stats(), cb.take_stats());
        assert_eq!(
            sa.iter_arrays().next().unwrap().1,
            sb.iter_arrays().next().unwrap().1
        );
    }

    #[test]
    fn seq_writer_defers_coalesced_accounting_until_flush() {
        let m = machine();
        let a = m.alloc_atomic::<u64>("w", 512, AllocPolicy::OnNode(0));
        let mut ctx = AccessCtx::new(&m, 0);
        let mut w = a.seq_writer(5);
        for k in 0..40u64 {
            w.push(&mut ctx, k);
        }
        // Stores land immediately; charges wait for the flush.
        assert_eq!(a.raw_load(5), 0);
        assert_eq!(a.raw_load(44), 39);
        assert_eq!(ctx.take_stats().total_count(), 0);
        w.flush(&mut ctx);
        assert_eq!(w.pos(), 45);
        let s = ctx.take_stats();
        assert_eq!(s.total_count(), 40);
        assert_eq!(s.total_bytes(), 320);
        // A second flush with nothing pending charges nothing.
        w.flush(&mut ctx);
        assert_eq!(ctx.take_stats().total_count(), 0);
    }

    #[test]
    fn atomic_iter_seq_reads_values_and_charges_reads() {
        let m = machine();
        let a = m.alloc_atomic_with::<u64>("it", 256, AllocPolicy::Interleaved, |i| i as u64 * 2);
        let mut ctx = AccessCtx::new(&m, 0);
        let got: Vec<u64> = a.iter_seq(&mut ctx, 8..16).collect();
        assert_eq!(got, (8..16).map(|i| i * 2).collect::<Vec<u64>>());
        let s = ctx.take_stats();
        let lines = s.iter_arrays().next().unwrap().1;
        let by_rw = |rw: crate::Rw| -> u64 {
            let tallies = lines.iter().flat_map(|(_, l)| &l.0[rw.index()]);
            tallies.map(|t| t.count).sum()
        };
        assert_eq!(by_rw(crate::Rw::Read), 8);
        assert_eq!(by_rw(crate::Rw::Write), 0);
    }

    #[test]
    fn atomic_array_is_sync_under_real_threads() {
        let m = machine();
        let a = m.alloc_atomic::<u64>("c", 1, AllocPolicy::OnNode(0));
        crossbeam::scope(|s| {
            for _ in 0..4 {
                s.spawn(|_| {
                    for _ in 0..1000 {
                        u64::atom_add(&a.data[0], 1);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(a.raw_load(0), 4000);
    }
}
