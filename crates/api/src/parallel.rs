//! A genuinely multithreaded executor — the `RealThreads` backend.
//!
//! The four engines run deterministically on the simulator so the paper's
//! experiments are exactly reproducible; this module proves the other half
//! of the design claim — that the data structures and program semantics are
//! *really* concurrent — and it does so the way the paper says a NUMA graph
//! engine has to: **owner computes**. Thread *k* owns a contiguous range of
//! *target* vertices, cut on bitmap-word (64-vertex) boundaries and balanced
//! by in-degree + 1, and only the owner ever writes the `next` accumulator,
//! the `updated` bit and the next `active` bit of a vertex in its range. No
//! cell is written by two threads in the same phase, so the value arrays
//! need nothing beyond the relaxed load/store every [`Atom`] has: no
//! compare-and-swap loop, no atomic read-modify-write on a bitmap word, no
//! lock around a value. Phases are
//! separated by Polymer's hierarchical sense-reversing barrier
//! ([`HierBarrier`]), whose acquire/release pairs order the plain accesses.
//!
//! One iteration is three barrier-separated phases:
//!
//! 1. **Edge phase.** A *gather* iteration folds, for every owned target,
//!    the contributions of its active in-neighbours (CSC order) straight
//!    into `next`; when every vertex is active the bitmap test is skipped.
//!    A *push* iteration gives each thread a contiguous slice of the sorted
//!    frontier carrying an equal share of out-edges, and takes one of two
//!    paths, chosen by memory alone (`dense_push_pays`):
//!    - a *binned* push folds a contribution to an owned target in place
//!      and appends one to a foreign target to the (producer, owner) *bin*
//!      — X-Stream's scatter → shuffle → gather;
//!    - a *dense* push scatters every contribution, whatever its target's
//!      owner, into the producer's own `|V|`-long *partial* array and marks
//!      the target in the producer's touched bitmap: no owner test, no bin,
//!      the flat CSR walked by edge index.
//!
//!    Either way the random writes stay private to their producer, which is
//!    Polymer's "random writes stay local" on this backend.
//! 2. **Owner phase.** After a binned push the owner drains the bins
//!    addressed to it in producer order; after a dense push it walks its own
//!    words of every producer's touched bitmap, producer by producer, folds
//!    each touched partial cell into `next` and resets the cell to the
//!    identity and the word to 0 — remote reads, but sequential ones. Then
//!    every owner scans its own `updated` words, applies each touched
//!    vertex, and in the same pass produces its slice of the next active
//!    bitmap, its part of the next frontier (already in ascending order) and
//!    that part's out-degree sum.
//! 3. **Swap.** One thread adds up the per-owner counts and degrees — O(threads)
//!    — and picks the next direction and push path. The per-owner lists are
//!    concatenated (owner order is vertex order, so nothing is sorted) only
//!    when the next iteration pushes or a checkpoint is due.
//!
//! An [`ExecProfile`] maps an engine's strategy onto the executor:
//! [`ExecProfile::Hybrid`] gathers when the frontier's exact out-degree
//! crosses Ligra's density threshold ([`should_densify`]) and pushes
//! otherwise; [`ExecProfile::PushOnly`] always pushes, binned or dense as
//! memory decides. On this backend the direction follows frontier density
//! alone — [`Program::prefer_push`] describes the paper's simulated machines
//! and is not consulted.
//!
//! Contributions are folded with [`Program::fold`] in an order fixed by the
//! graph, the frontier and the thread count: CSC order in a gather; own
//! slice first, then bins by producer, in a binned push; producer partials,
//! in producer order, in a dense push. Integer programs therefore match the
//! sequential reference exactly, and floating-point programs are ε-close to
//! it *and bit-identical from run to run* at a given thread count —
//! including across a checkpoint/resume.
//!
//! A push takes the smaller of two memory bounds. Bins hold at most
//! (threads − 1)/threads × the frontier's out-edges × (4 + `size_of::<Val>()`)
//! bytes; partials take threads × (|V| × `size_of::<Val>()` + ⌈|V|/8⌉) bytes,
//! and a push goes dense exactly when that is no more than the bins would
//! take. Both are allocated on first use and reused across the run's
//! iterations, so a run that never pushes densely allocates no partial.
//! Every owner scans all of its bitmap words each iteration, so an iteration
//! costs at least |V|/64 word loads however small the frontier.
//!
//! One door: [`crate::Engine::try_run_with`] under
//! [`crate::Backend::RealThreads`] is the only caller of the crate-private
//! `try_run_threads_rec`, passing the engine's profile, the backend's fault
//! plan and the run's tracer and recovery session.
//!
//! It is also the template for running this crate's programs on actual
//! hardware: place each owner's slice of `curr`/`next` and its in-edges with
//! `mbind` on the owner's node and pin the threads, and every random write
//! below is node-local.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use polymer_faults::{PolymerError, PolymerResult};
use polymer_graph::{Graph, VId, Weight};
use polymer_numa::{Atom, SharedTracer, WorkerSpan};
use polymer_sync::{should_densify, FrontierSnapshot, HierBarrier};

use crate::backend::{ExecProfile, RealThreadsConfig};
use crate::driver::{Checkpoint, RecoverySession};
use crate::engine::{validate_resume, validate_run_config};
use crate::exec::degree_balanced_chunks;
use crate::program::{FrontierInit, Program};

/// Default bound on a single barrier wait: generous enough that no healthy
/// run on an oversubscribed host ever hits it, small enough that a dead
/// sibling turns into an error rather than an eternal hang.
const DEFAULT_BARRIER_TIMEOUT: Duration = Duration::from_secs(60);

/// Record `err` as the run's failure unless a more informative error is
/// already recorded. `BarrierPoisoned` is the *consequence* of a sibling's
/// failure, so any other error replaces it; the first cause otherwise wins.
fn record_error(slot: &parking_lot::Mutex<Option<PolymerError>>, err: PolymerError) {
    let mut slot = slot.lock();
    let replace = match &*slot {
        None => true,
        Some(PolymerError::BarrierPoisoned) => !matches!(err, PolymerError::BarrierPoisoned),
        Some(_) => false,
    };
    if replace {
        *slot = Some(err);
    }
}

/// Word-aligned ownership of the target vertices: thread `k` owns bitmap
/// words `word_bounds[k]..word_bounds[k + 1]` and with them the vertices
/// `64 * word_bounds[k]..min(64 * word_bounds[k + 1], n)`. A thread whose two
/// bounds coincide owns nothing — no vertex and no bitmap word.
struct Ownership {
    word_bounds: Vec<usize>,
}

impl Ownership {
    /// Cut the `n.div_ceil(64)` bitmap words into `threads` contiguous
    /// ranges carrying equal shares of in-degree + 1 (a gather's work per
    /// target, and a push's work per drained contribution).
    fn balanced(in_off: &[usize], n: usize, threads: usize) -> Self {
        let words = n.div_ceil(64);
        let weight_before = |word: usize| {
            let v = (word * 64).min(n);
            in_off[v] + v
        };
        let total = weight_before(words);
        let mut word_bounds = Vec::with_capacity(threads + 1);
        word_bounds.push(0);
        for k in 1..threads {
            let target = k * total / threads;
            // First word boundary at or past the k-th share, never before
            // the previous bound.
            let (mut lo, mut hi) = (word_bounds[k - 1], words);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if weight_before(mid) < target {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            word_bounds.push(lo);
        }
        word_bounds.push(words);
        Ownership { word_bounds }
    }

    /// The bitmap words thread `tid` owns.
    fn words(&self, tid: usize) -> Range<usize> {
        self.word_bounds[tid]..self.word_bounds[tid + 1]
    }

    /// The thread owning vertex `t`.
    #[inline]
    fn owner_of(&self, t: VId) -> usize {
        let word = t as usize / 64;
        let interior = &self.word_bounds[1..self.word_bounds.len() - 1];
        interior.partition_point(|&b| b <= word)
    }
}

/// The vertices whose bits are set in bitmap word number `word`, ascending.
fn vertices_of(word: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let bit = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            word * 64 + bit
        })
    })
}

/// Contributions one producer thread addressed to one owner thread during a
/// binned push, in production order. Targets and values are kept apart so
/// an entry costs `4 + size_of::<V>()` bytes. Aligned to its own cache lines:
/// the bins sit side by side in one array and every append moves a length.
#[repr(align(128))]
struct Bin<V> {
    targets: Vec<VId>,
    vals: Vec<V>,
}

/// One producer's private scatter target for a dense push: an accumulator
/// per vertex, at the identity between iterations, and the bitmap of the
/// cells it touched. The producer writes it in the edge phase; every owner
/// folds and resets its own range of it in the owner phase.
struct Partial<V: Atom> {
    vals: Vec<V::Repr>,
    touched: Vec<AtomicU64>,
}

/// Whether a push over a frontier whose out-edges number `degree` scatters
/// into per-producer partials rather than bins: with at least two threads,
/// exactly when the partials, `threads · (n · val_bytes + ⌈n/8⌉)` bytes,
/// take no more memory than the bin entries they replace,
/// `(threads − 1) · degree · (4 + val_bytes) / threads` bytes. One thread
/// owns every target and never bins, so it never goes dense.
fn dense_push_pays(threads: usize, n: usize, val_bytes: usize, degree: u64) -> bool {
    if threads < 2 {
        return false;
    }
    let (t, n, vb) = (threads as u128, n as u128, val_bytes as u128);
    let partials = t * (n * vb + n.div_ceil(8));
    let bins = (t - 1) * u128::from(degree) * (4 + vb) / t;
    partials <= bins
}

/// What one owner's apply pass found in its range: the vertices active next
/// iteration (ascending) and the sum of their out-degrees. Cache-line aligned
/// for the same reason as [`Bin`].
#[derive(Default)]
#[repr(align(128))]
struct OwnerOut {
    alive: Vec<VId>,
    degree: u64,
}

/// How the coming iteration traverses edges.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Owners fold over the in-edges of their targets, gated by the active
    /// bitmap unless every vertex is active.
    Gather { all_active: bool },
    /// Threads scatter along the out-edges of their frontier slice,
    /// binning the contributions to foreign targets.
    PushBins,
    /// Threads scatter along the out-edges of their frontier slice into
    /// their own partial arrays.
    PushDense,
}

impl Mode {
    fn pushes(self) -> bool {
        matches!(self, Mode::PushBins | Mode::PushDense)
    }

    /// The name of this mode's edge-phase worker span.
    fn span_name(self) -> &'static str {
        match self {
            Mode::Gather { .. } => "gather",
            Mode::PushBins => "push-bins",
            Mode::PushDense => "push-dense",
        }
    }
}

/// The coming iteration's plan, rewritten by the serial thread at each swap.
struct Plan {
    mode: Mode,
    /// The frontier in ascending order. Current only when `mode` pushes or a
    /// checkpoint was just taken.
    items: Vec<VId>,
    /// One slice of `items` per thread, balanced by out-degree + 1.
    slices: Vec<Range<usize>>,
}

/// The state all workers share. Every cell of `next`, `updated` and
/// `active_bits` has one writer — the owner of its vertex (or word) — and
/// `curr` is written only in the apply pass, again by the owner; phases that
/// read what another thread wrote are separated by a barrier.
struct Exec<'a, P: Program> {
    g: &'a Graph,
    prog: &'a P,
    threads: usize,
    identity: P::Val,
    own: Ownership,
    /// Out-degree of every vertex: one load where the offset array takes two.
    degs: Vec<u32>,
    in_w: Option<&'a [Weight]>,
    out_w: Option<&'a [Weight]>,
    curr: Vec<<P::Val as Atom>::Repr>,
    next: Vec<<P::Val as Atom>::Repr>,
    /// Targets that received a contribution this iteration.
    updated: Vec<AtomicU64>,
    /// The frontier as a bitmap, rewritten word by word in every apply pass.
    active_bits: Vec<AtomicU64>,
    /// `bins[producer * threads + owner]`.
    bins: Vec<parking_lot::Mutex<Bin<P::Val>>>,
    /// `partials[producer]`, allocated by the producer on its first dense
    /// push.
    partials: Vec<OnceLock<Partial<P::Val>>>,
    outs: Vec<parking_lot::Mutex<OwnerOut>>,
}

impl<P: Program> Exec<'_, P> {
    /// Fold `c` into owned target `t` and mark it updated.
    #[inline]
    fn accumulate(&self, t: VId, c: P::Val) {
        let t = t as usize;
        let cell = &self.next[t];
        P::Val::atom_store(cell, self.prog.fold(P::Val::atom_load(cell), c));
        let word = &self.updated[t / 64];
        word.store(
            word.load(Ordering::Relaxed) | 1u64 << (t % 64),
            Ordering::Relaxed,
        );
    }

    /// Gather iteration: fold the contributions of active in-neighbours into
    /// every target `tid` owns.
    fn gather(&self, tid: usize, all_active: bool) {
        let n = self.curr.len();
        let in_off = self.g.in_offsets();
        let in_src = self.g.in_sources();
        for word in self.own.words(tid) {
            let base = word * 64;
            let mut touched = 0u64;
            for t in base..(base + 64).min(n) {
                let edges = in_off[t]..in_off[t + 1];
                let mut acc = self.identity;
                let mut any = false;
                for (i, &s) in in_src[edges.clone()].iter().enumerate() {
                    let si = s as usize;
                    if !all_active
                        && self.active_bits[si / 64].load(Ordering::Relaxed) >> (si % 64) & 1 == 0
                    {
                        continue;
                    }
                    let sv = P::Val::atom_load(&self.curr[si]);
                    let w = self.in_w.map_or(1, |ws| ws[edges.start + i]);
                    acc = self
                        .prog
                        .fold(acc, self.prog.scatter(s, sv, w, self.degs[si]));
                    any = true;
                }
                if any {
                    P::Val::atom_store(&self.next[t], acc);
                    touched |= 1u64 << (t - base);
                }
            }
            self.updated[word].store(touched, Ordering::Relaxed);
        }
    }

    /// Binned push: scatter along the out-edges of `sources`, folding
    /// contributions to owned targets in place and binning the rest for
    /// their owners.
    fn push(&self, tid: usize, sources: &[VId]) {
        let mut guards: Vec<_> = self.bins[tid * self.threads..(tid + 1) * self.threads]
            .iter()
            .map(|b| b.lock())
            .collect();
        let mut bins: Vec<&mut Bin<P::Val>> = guards.iter_mut().map(|g| &mut **g).collect();
        for &s in sources {
            let sv = P::Val::atom_load(&self.curr[s as usize]);
            let deg = self.degs[s as usize];
            for (&t, &w) in self.g.out_neighbors(s).iter().zip(self.g.out_weights(s)) {
                let c = self.prog.scatter(s, sv, w, deg);
                let owner = self.own.owner_of(t);
                if owner == tid {
                    self.accumulate(t, c);
                } else {
                    bins[owner].targets.push(t);
                    bins[owner].vals.push(c);
                }
            }
        }
    }

    /// Dense push: scatter along the out-edges of `sources` into this
    /// thread's own partial array, whatever the target's owner.
    fn push_dense(&self, tid: usize, sources: &[VId]) {
        let n = self.curr.len();
        let part = self.partials[tid].get_or_init(|| Partial {
            vals: (0..n).map(|_| P::Val::new_atomic(self.identity)).collect(),
            touched: (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
        });
        match self.out_w {
            Some(ws) => self.scatter_into(part, sources, |e| ws[e]),
            None => self.scatter_into(part, sources, |_| 1),
        }
    }

    /// The body of [`Exec::push_dense`], with the weight of out-edge `e`
    /// read by `weight` (a constant where the program ignores weights).
    #[inline]
    fn scatter_into(
        &self,
        part: &Partial<P::Val>,
        sources: &[VId],
        weight: impl Fn(usize) -> Weight,
    ) {
        let out_off = self.g.out_offsets();
        let out_dst = self.g.out_targets();
        for &s in sources {
            let si = s as usize;
            let sv = P::Val::atom_load(&self.curr[si]);
            let deg = self.degs[si];
            let edges = out_off[si]..out_off[si + 1];
            for (e, &t) in edges.clone().zip(&out_dst[edges]) {
                let t = t as usize;
                let c = self.prog.scatter(s, sv, weight(e), deg);
                let cell = &part.vals[t];
                P::Val::atom_store(cell, self.prog.fold(P::Val::atom_load(cell), c));
                let word = &part.touched[t / 64];
                word.store(
                    word.load(Ordering::Relaxed) | 1u64 << (t % 64),
                    Ordering::Relaxed,
                );
            }
        }
    }

    /// Fold every producer's partials for the targets `tid` owns into
    /// `next`, producer by producer, resetting each folded cell to the
    /// identity and each touched word to 0.
    fn fold_partials(&self, tid: usize) {
        for part in self.partials.iter().filter_map(OnceLock::get) {
            for word in self.own.words(tid) {
                let bits = part.touched[word].load(Ordering::Relaxed);
                if bits == 0 {
                    continue;
                }
                part.touched[word].store(0, Ordering::Relaxed);
                for t in vertices_of(word, bits) {
                    let cell = &part.vals[t];
                    let c = P::Val::atom_load(cell);
                    P::Val::atom_store(cell, self.identity);
                    self.accumulate(t as VId, c);
                }
            }
        }
    }

    /// Fold in what the other threads binned for `tid`, producer by
    /// producer, and hand the buffers back empty.
    fn drain(&self, tid: usize) {
        for producer in (0..self.threads).filter(|&p| p != tid) {
            let mut bin = self.bins[producer * self.threads + tid].lock();
            for (&t, &c) in bin.targets.iter().zip(&bin.vals) {
                self.accumulate(t, c);
            }
            bin.targets.clear();
            bin.vals.clear();
        }
    }

    /// Apply every updated vertex `tid` owns, in ascending order, leaving
    /// `next` and `updated` reset, the owned words of the active bitmap
    /// rewritten, and the survivors with their degree sum in `outs[tid]`.
    fn apply(&self, tid: usize) {
        let mut out = self.outs[tid].lock();
        out.alive.clear();
        out.degree = 0;
        for word in self.own.words(tid) {
            let bits = self.updated[word].load(Ordering::Relaxed);
            let mut alive_bits = 0u64;
            if bits != 0 {
                self.updated[word].store(0, Ordering::Relaxed);
            }
            for t in vertices_of(word, bits) {
                let acc = P::Val::atom_load(&self.next[t]);
                let cv = P::Val::atom_load(&self.curr[t]);
                let (val, alive) = self.prog.apply(t as VId, acc, cv);
                P::Val::atom_store(&self.curr[t], val);
                P::Val::atom_store(&self.next[t], self.identity);
                if alive {
                    alive_bits |= 1u64 << (t % 64);
                    out.alive.push(t as VId);
                    out.degree += u64::from(self.degs[t]);
                }
            }
            self.active_bits[word].store(alive_bits, Ordering::Relaxed);
        }
    }
}

/// The executor: run `prog` under an engine's [`ExecProfile`]
/// ([`crate::Engine::try_run_with`] dispatches here for
/// [`crate::Backend::RealThreads`], and nothing else enters). A hybrid
/// profile gathers on dense frontiers and pushes on sparse ones; a push-only
/// profile pushes on every iteration. Whether a push bins or scatters into
/// per-producer partials is decided per iteration by memory alone
/// (`dense_push_pays`).
///
/// Validates the configuration up front, honors `cfg.plan` (stragglers,
/// injected worker panics, barrier deadlines), and converts every worker
/// failure — a panic, a poisoned barrier, a timeout — into a typed
/// [`PolymerError`] with no thread left behind spinning. The first *causal*
/// error wins; the `BarrierPoisoned` cascade it triggers in sibling workers
/// is not reported over it.
///
/// When `tracer` is given, every worker records into the shared buffer, per
/// superstep, one `"iteration"` span, one edge-phase span named after its
/// path — `"gather"`, `"push-bins"` or `"push-dense"` — one `"apply"` span
/// for the owner phase, and one `"barrier-wait"` span per barrier crossing
/// (times are µs since the tracer's epoch). If the run ends
/// abnormally the buffer is flushed *truncated* but remains valid:
/// everything recorded before the failure stays exportable.
///
/// Recovery: the serial thread
/// publishes a [`Checkpoint`] (value sweep + the swapped-in frontier) to the
/// session's store whenever one is due, and a session carrying a resume
/// checkpoint starts from its values/frontier with the iteration counter —
/// and therefore the fault plan's `(tid, iteration)` trigger points — in
/// *global* iteration space, so injections already crossed are not replayed.
/// A resumed frontier is taken as a *set*: duplicates collapse and members
/// are visited in ascending order, as in the run that wrote the checkpoint.
pub(crate) fn try_run_threads_rec<P: Program>(
    g: &Graph,
    prog: &P,
    threads: usize,
    cfg: &RealThreadsConfig,
    profile: &ExecProfile,
    tracer: Option<&SharedTracer>,
    recovery: &RecoverySession<P::Val>,
) -> PolymerResult<(Vec<P::Val>, usize)> {
    validate_run_config(threads, g.num_vertices(), prog)?;
    let plan = &cfg.plan;
    let groups = cfg.groups.clamp(1, threads);
    let n = g.num_vertices();
    let m = g.num_edges() as u64;
    let identity = prog.next_identity();
    let barrier_timeout = plan.barrier_deadline().unwrap_or(DEFAULT_BARRIER_TIMEOUT);

    // The initial frontier as bitmap words: a set, whatever order (or
    // multiplicity) a resume checkpoint lists its members in.
    let words = n.div_ceil(64);
    let mut initial_bits = vec![0u64; words];
    let resume = recovery.resume();
    match resume {
        Some(ck) => {
            validate_resume(ck, n)?;
            for &v in &ck.frontier.vertices {
                initial_bits[v as usize / 64] |= 1u64 << (v % 64);
            }
        }
        None => match prog.initial_frontier() {
            FrontierInit::All => {
                initial_bits.fill(u64::MAX);
                if !n.is_multiple_of(64) {
                    initial_bits[words - 1] = (1u64 << (n % 64)) - 1;
                }
            }
            FrontierInit::Single(s) => initial_bits[s as usize / 64] |= 1u64 << (s % 64),
        },
    }
    let initial_items: Vec<VId> = initial_bits
        .iter()
        .enumerate()
        .flat_map(|(word, &bits)| vertices_of(word, bits))
        .map(|v| v as VId)
        .collect();

    let degs: Vec<u32> = g
        .out_offsets()
        .windows(2)
        .map(|o| (o[1] - o[0]) as u32)
        .collect();
    let exec = Exec {
        g,
        prog,
        threads,
        identity,
        own: Ownership::balanced(g.in_offsets(), n, threads),
        in_w: prog.uses_weights().then(|| g.in_edge_weights()),
        out_w: prog.uses_weights().then(|| g.out_edge_weights()),
        curr: match resume {
            Some(ck) => ck.values.iter().map(|&v| P::Val::new_atomic(v)).collect(),
            None => (0..n)
                .map(|v| P::Val::new_atomic(prog.init(v as VId)))
                .collect(),
        },
        next: (0..n).map(|_| P::Val::new_atomic(identity)).collect(),
        updated: (0..words).map(|_| AtomicU64::new(0)).collect(),
        active_bits: initial_bits.into_iter().map(AtomicU64::new).collect(),
        bins: (0..threads * threads)
            .map(|_| {
                parking_lot::Mutex::new(Bin {
                    targets: Vec::new(),
                    vals: Vec::new(),
                })
            })
            .collect(),
        partials: (0..threads).map(|_| OnceLock::new()).collect(),
        outs: (0..threads).map(|_| Default::default()).collect(),
        degs,
    };

    let degree_of = |v: VId| exec.degs[v as usize] as usize;

    // Direction switch: a hybrid profile gathers when the frontier's exact
    // out-degree crosses Ligra's density threshold. A push goes dense when
    // the partials take no more memory than the bins would.
    let adaptive = *profile == ExecProfile::Hybrid;
    let val_bytes = std::mem::size_of::<P::Val>();
    let decide = |count: u64, degree: u64| -> Mode {
        if adaptive && should_densify(count, degree, m) {
            Mode::Gather {
                all_active: count == n as u64,
            }
        } else if dense_push_pays(threads, n, val_bytes, degree) {
            Mode::PushDense
        } else {
            Mode::PushBins
        }
    };
    let initial_mode = decide(
        initial_items.len() as u64,
        initial_items.iter().map(|&v| degree_of(v) as u64).sum(),
    );
    let initial_slices = if initial_mode.pushes() {
        degree_balanced_chunks(&initial_items, degree_of, threads)
    } else {
        Vec::new()
    };
    let resume_from = resume.map_or(0, |ck| ck.iteration);
    let initially_done = initial_items.is_empty() || resume_from >= prog.max_iters();
    let next_plan = parking_lot::RwLock::new(Plan {
        mode: initial_mode,
        items: initial_items,
        slices: initial_slices,
    });

    // Group sizes: threads distributed round-major over groups.
    let sizes: Vec<usize> = (0..groups)
        .map(|gp| (threads + groups - 1 - gp) / groups)
        .collect();
    let barrier = HierBarrier::new(&sizes);
    let group_of = |tid: usize| tid % groups;

    let iterations = AtomicU64::new(resume_from as u64);
    let done = AtomicBool::new(initially_done);
    let first_error: parking_lot::Mutex<Option<PolymerError>> = parking_lot::Mutex::new(None);

    let scope_result = crossbeam::scope(|scope| {
        for tid in 0..threads {
            let exec = &exec;
            let barrier = &barrier;
            let next_plan = &next_plan;
            let iterations = &iterations;
            let done = &done;
            let first_error = &first_error;
            let decide = &decide;
            scope.spawn(move |_| {
                let group = group_of(tid);
                // When traced, close a span named `name` that began at `t0`.
                let span = |name: &'static str, iter: usize, t0: Option<f64>| {
                    if let (Some(tr), Some(t0)) = (tracer, t0) {
                        tr.push_worker_span(WorkerSpan {
                            name,
                            worker: tid,
                            iteration: Some(iter as u64),
                            start_us: t0,
                            dur_us: tr.now_us() - t0,
                        });
                    }
                };
                let now = || tracer.map(|tr| tr.now_us());
                // Every barrier crossing is bounded: a sibling that died
                // before arriving turns into a timeout + poison instead of
                // an eternal spin. When traced, the wall-clock wait becomes
                // a per-worker "barrier-wait" span.
                let sync = |group: usize, iter: usize| -> PolymerResult<bool> {
                    let t0 = now();
                    let r = barrier.wait_deadline(group, Instant::now() + barrier_timeout);
                    span("barrier-wait", iter, t0);
                    r
                };
                let body = || -> PolymerResult<()> {
                    let mut iter = resume_from;
                    loop {
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                        let iter_t0 = now();
                        // --- Fault-plan injection points.
                        if let Some(delay) = plan.straggle_delay(tid, iter) {
                            std::thread::sleep(delay);
                        }
                        if plan.should_panic_worker(tid, iter) {
                            panic!("injected worker panic");
                        }
                        // --- Edge phase: gather into owned targets, or push
                        // this thread's slice of the frontier.
                        let edge_t0 = now();
                        let mode = {
                            let current = next_plan.read();
                            let slice = || &current.items[current.slices[tid].clone()];
                            match current.mode {
                                Mode::Gather { all_active } => exec.gather(tid, all_active),
                                Mode::PushBins => exec.push(tid, slice()),
                                Mode::PushDense => exec.push_dense(tid, slice()),
                            }
                            current.mode
                        };
                        span(mode.span_name(), iter, edge_t0);
                        sync(group, iter)?;

                        // --- Owner phase: take in the other threads'
                        // contributions, then apply the owned range.
                        let apply_t0 = now();
                        match mode {
                            Mode::Gather { .. } => {}
                            Mode::PushBins => exec.drain(tid),
                            Mode::PushDense => exec.fold_partials(tid),
                        }
                        exec.apply(tid);
                        span("apply", iter, apply_t0);

                        // --- Frontier swap by the serial thread: O(threads),
                        // plus a concatenation when the list is needed.
                        if sync(group, iter)? {
                            let outs: Vec<_> = exec.outs.iter().map(|o| o.lock()).collect();
                            let count: u64 = outs.iter().map(|o| o.alive.len() as u64).sum();
                            let degree: u64 = outs.iter().map(|o| o.degree).sum();
                            let iters = iter + 1;
                            iterations.store(iters as u64, Ordering::Release);
                            let finished = count == 0 || iters >= prog.max_iters();
                            let checkpoint_due = recovery.should_checkpoint(iters);
                            let mut upcoming = next_plan.write();
                            upcoming.mode = decide(count, degree);
                            let pushes_next = !finished && upcoming.mode.pushes();
                            if pushes_next || checkpoint_due {
                                // Owner order is vertex order: the
                                // concatenation is already sorted.
                                upcoming.items.clear();
                                for out in &outs {
                                    upcoming.items.extend_from_slice(&out.alive);
                                }
                            }
                            if pushes_next {
                                upcoming.slices =
                                    degree_balanced_chunks(&upcoming.items, degree_of, threads);
                            }
                            if finished {
                                done.store(true, Ordering::Release);
                            }
                            // Publish a checkpoint while siblings wait at
                            // the next barrier: post-apply values plus the
                            // swapped-in (sorted) frontier.
                            if checkpoint_due {
                                recovery.record(Checkpoint {
                                    iteration: iters,
                                    values: exec.curr.iter().map(P::Val::atom_load).collect(),
                                    frontier: FrontierSnapshot::sparse(
                                        upcoming.items.clone(),
                                        degree,
                                    ),
                                });
                            }
                        }
                        sync(group, iter)?;
                        span("iteration", iter, iter_t0);
                        iter += 1;
                    }
                    Ok(())
                };
                match catch_unwind(AssertUnwindSafe(body)) {
                    Ok(Ok(())) => {}
                    Ok(Err(err)) => {
                        // A barrier error (poison/timeout) already poisoned
                        // the barrier; make sure siblings at the loop top
                        // stop too, then record the cause. The trace stays
                        // valid — just truncated at the failure point.
                        if let Some(tr) = tracer {
                            tr.mark_truncated();
                        }
                        done.store(true, Ordering::Release);
                        record_error(first_error, err);
                    }
                    Err(payload) => {
                        // The worker died mid-iteration: poison the barrier
                        // so siblings waiting on it error out instead of
                        // deadlocking.
                        if let Some(tr) = tracer {
                            tr.mark_truncated();
                        }
                        barrier.poison();
                        done.store(true, Ordering::Release);
                        record_error(first_error, PolymerError::from_worker_panic(tid, payload));
                    }
                }
            });
        }
    });
    // Workers never unwind out of the scope (each body is caught above), but
    // stay panic-free even if crossbeam itself reports one.
    if let Err(payload) = scope_result {
        record_error(&first_error, PolymerError::from_panic(payload));
    }
    if let Some(err) = first_error.lock().take() {
        return Err(err);
    }

    let values = exec.curr.iter().map(P::Val::atom_load).collect();
    Ok((values, iterations.load(Ordering::Acquire) as usize))
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::program::Combine;
    use polymer_faults::FaultPlan;
    use polymer_graph::EdgeList;

    // Minimal local BFS-by-level program to avoid a circular dev-dependency
    // on polymer-algos.
    struct Levels {
        src: VId,
    }
    impl Program for Levels {
        type Val = u32;
        fn name(&self) -> &'static str {
            "levels"
        }
        fn combine(&self) -> Combine {
            Combine::Min
        }
        fn next_identity(&self) -> u32 {
            u32::MAX
        }
        fn init(&self, v: VId) -> u32 {
            if v == self.src {
                0
            } else {
                u32::MAX
            }
        }
        fn scatter(&self, _s: VId, sv: u32, _w: u32, _d: u32) -> u32 {
            sv + 1
        }
        fn apply(&self, _v: VId, acc: u32, curr: u32) -> (u32, bool) {
            if acc < curr {
                (acc, true)
            } else {
                (curr, false)
            }
        }
        fn initial_frontier(&self) -> FrontierInit {
            FrontierInit::Single(self.src)
        }
        fn max_iters(&self) -> usize {
            usize::MAX
        }
        fn fold(&self, a: u32, b: u32) -> u32 {
            a.min(b)
        }
    }

    /// The executor with no tracer and no recovery session.
    fn plain(
        g: &Graph,
        prog: &Levels,
        threads: usize,
        groups: usize,
        plan: FaultPlan,
        profile: &ExecProfile,
    ) -> PolymerResult<(Vec<u32>, usize)> {
        let cfg = RealThreadsConfig { groups, plan };
        let off = RecoverySession::disabled();
        try_run_threads_rec(g, prog, threads, &cfg, profile, None, &off)
    }

    fn ring(n: usize) -> Graph {
        Graph::from_edges(&EdgeList::from_pairs(
            n,
            (0..n as VId).map(|v| (v, (v + 1) % n as VId)),
        ))
    }

    #[test]
    fn parallel_bfs_matches_expected_levels_on_ring() {
        let g = ring(64);
        let plan = FaultPlan::default();
        let run = plain(&g, &Levels { src: 0 }, 4, 2, plan, &ExecProfile::PushOnly);
        let (vals, iters) = run.unwrap();
        for (v, &lvl) in vals.iter().enumerate() {
            assert_eq!(lvl as usize, v, "ring level mismatch at {v}");
        }
        assert!(iters >= 63);
    }

    #[test]
    fn parallel_single_thread_works() {
        let g = ring(16);
        let plan = FaultPlan::default();
        let run = plain(&g, &Levels { src: 3 }, 1, 1, plan, &ExecProfile::PushOnly);
        let (vals, _) = run.unwrap();
        assert_eq!(vals[3], 0);
        assert_eq!(vals[2], 15);
    }

    #[test]
    fn parallel_more_groups_than_threads_is_clamped() {
        let g = ring(8);
        let plan = FaultPlan::default();
        let run = plain(&g, &Levels { src: 0 }, 2, 8, plan, &ExecProfile::PushOnly);
        let (vals, _) = run.unwrap();
        assert_eq!(vals[7], 7);
    }

    #[test]
    fn zero_threads_is_a_typed_error() {
        let g = ring(8);
        let plan = FaultPlan::default();
        let err = plain(&g, &Levels { src: 0 }, 0, 1, plan, &ExecProfile::PushOnly).unwrap_err();
        assert!(matches!(err, PolymerError::InvalidConfig(_)));
    }

    #[test]
    fn out_of_range_source_is_a_typed_error() {
        let g = ring(8);
        let plan = FaultPlan::default();
        let err = plain(&g, &Levels { src: 99 }, 2, 1, plan, &ExecProfile::PushOnly).unwrap_err();
        match err {
            PolymerError::InvalidConfig(msg) => assert!(msg.contains("99"), "{msg}"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn resume_frontier_out_of_range_is_a_typed_error() {
        // The frontier of a resume checkpoint indexes the active bitmap
        // before any worker (and its `catch_unwind`) exists.
        use crate::driver::{CheckpointPolicy, CheckpointStore};
        let g = ring(8);
        let session = RecoverySession::new(CheckpointPolicy::Never, CheckpointStore::new())
            .with_resume(Some(Checkpoint {
                iteration: 1,
                values: vec![0; 8],
                frontier: FrontierSnapshot::sparse(vec![1, 99], 2),
            }));
        let err = try_run_threads_rec(
            &g,
            &Levels { src: 0 },
            2,
            &RealThreadsConfig::default(),
            &ExecProfile::default(),
            None,
            &session,
        )
        .unwrap_err();
        match err {
            PolymerError::InvalidConfig(msg) => assert!(msg.contains("vertex 99"), "{msg}"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn resumed_frontier_is_a_set() {
        // Unsorted, with a duplicate: same answer as the canonical listing.
        use crate::driver::{CheckpointPolicy, CheckpointStore};
        let g = ring(8);
        let resume = |frontier: Vec<VId>| {
            let mut values = vec![u32::MAX; 8];
            values[..3].copy_from_slice(&[0, 1, 1]);
            let session = RecoverySession::new(CheckpointPolicy::Never, CheckpointStore::new())
                .with_resume(Some(Checkpoint {
                    iteration: 1,
                    values,
                    frontier: FrontierSnapshot::sparse(frontier, 2),
                }));
            let cfg = RealThreadsConfig::default();
            try_run_threads_rec(
                &g,
                &Levels { src: 0 },
                2,
                &cfg,
                &ExecProfile::PushOnly,
                None,
                &session,
            )
            .unwrap()
        };
        assert_eq!(resume(vec![2, 1, 2]), resume(vec![1, 2]));
    }

    #[test]
    fn ownership_covers_every_word_once_and_empty_ranges_own_none() {
        for n in [0usize, 1, 2, 63, 64, 65, 129, 1000] {
            // A skewed in-degree profile: vertex v has v % 7 in-edges.
            let in_off: Vec<usize> = std::iter::once(0)
                .chain((0..n).scan(0, |acc, v| {
                    *acc += v % 7;
                    Some(*acc)
                }))
                .collect();
            for threads in [1usize, 2, 3, 8] {
                let own = Ownership::balanced(&in_off, n, threads);
                assert_eq!(own.word_bounds.len(), threads + 1);
                assert_eq!(own.word_bounds[0], 0);
                assert_eq!(own.word_bounds[threads], n.div_ceil(64));
                assert!(own.word_bounds.windows(2).all(|w| w[0] <= w[1]));
                for t in 0..n {
                    let owner = own.owner_of(t as VId);
                    assert!(
                        own.words(owner).contains(&(t / 64)),
                        "n={n} threads={threads}: vertex {t} -> owner {owner} {:?}",
                        own.word_bounds
                    );
                }
            }
        }
    }

    #[test]
    fn dense_push_rule_flips_where_partials_meet_bins() {
        // Three threads, 8-byte values, 17 vertices: partials take
        // 3 · (17 · 8 + 3) = 417 bytes. 52 out-edges bin 2 · 52 · 12 / 3 =
        // 416 bytes, one short; 53 bin 424.
        assert!(!dense_push_pays(3, 17, 8, 52));
        assert!(dense_push_pays(3, 17, 8, 53));
        // 64 vertices: 3 · (64 · 8 + 8) = 1560 bytes, exactly what 195
        // out-edges bin (2 · 195 · 12 / 3); 194 bin 1552.
        assert!(dense_push_pays(3, 64, 8, 195));
        assert!(!dense_push_pays(3, 64, 8, 194));
        // Two threads, 4-byte values, 64 vertices: 2 · (64 · 4 + 8) = 528
        // bytes, what 132 out-edges bin (132 · 8 / 2); 131 bin 524.
        assert!(dense_push_pays(2, 64, 4, 132));
        assert!(!dense_push_pays(2, 64, 4, 131));
        // One thread owns every target: never dense, however large the push.
        for degree in [0, 1, 1 << 20, u64::MAX] {
            for n in [0usize, 1, 64, 1 << 20] {
                assert!(!dense_push_pays(1, n, 8, degree));
                assert!(!dense_push_pays(0, n, 8, degree));
            }
        }
        // No overflow at the extremes.
        assert!(dense_push_pays(2, 1, 8, u64::MAX));
        assert!(!dense_push_pays(64, usize::MAX / 16, 8, 1));
    }

    #[test]
    fn injected_worker_panic_becomes_typed_error_without_deadlock() {
        let g = ring(64);
        let plan = FaultPlan::new()
            .panic_worker_at(1, 2)
            .barrier_timeout(Duration::from_secs(5));
        let err = plain(&g, &Levels { src: 0 }, 4, 2, plan, &ExecProfile::PushOnly).unwrap_err();
        match err {
            PolymerError::WorkerPanicked { worker, ref detail } => {
                assert_eq!(worker, 1);
                assert!(detail.contains("injected"), "{detail}");
            }
            ref other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn straggler_delays_but_still_completes() {
        let g = ring(16);
        let plan = FaultPlan::new().delay_worker(0, 1, Duration::from_millis(5));
        let (vals, _) = plain(&g, &Levels { src: 0 }, 2, 1, plan, &ExecProfile::PushOnly).unwrap();
        assert_eq!(vals[15], 15);
    }

    #[test]
    fn hybrid_profile_matches_push_only_on_dense_frontiers() {
        // A complete-ish graph densifies immediately: the hybrid profile
        // must pull and still produce the push-only (and reference) levels.
        let n = 40u32;
        let g = Graph::from_edges(&EdgeList::from_pairs(
            n as usize,
            (0..n).flat_map(|v| (1..4u32).map(move |d| (v, (v + d) % n))),
        ));
        let prog = Levels { src: 0 };
        let plan = FaultPlan::default();
        let (want, _) = plain(&g, &prog, 3, 2, plan.clone(), &ExecProfile::PushOnly).unwrap();
        let (got, _) = plain(&g, &prog, 3, 2, plan, &ExecProfile::Hybrid).unwrap();
        assert_eq!(got, want);
    }
}
