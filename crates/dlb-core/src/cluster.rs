//! The full n-processor-generator-consumer algorithm (§4 and the paper's
//! appendix).
//!
//! Every processor `i` holds, besides its real packets, the bookkeeping
//! the proof of Theorem 4 needs:
//!
//! * `d_{i,j}` — the number of *virtual class-`j`* packets residing on
//!   `i` (class `j` = packets generated by processor `j`);  the real load
//!   is `l_i = Σ_j d_{i,j}`;
//! * `b_{i,j}` — *borrowed-packet markers*: class-`j` packets `i` consumed
//!   even though it had no self-generated work (`d_{i,i} = 0`), bounded by
//!   `Σ_j b_{i,j} ≤ C` and at most one fresh borrow per class.
//!
//! A balancing operation is initiated by `i` whenever `d_{i,i}` has grown
//! or shrunk by the factor `f` since `i`'s last participation; it equalises
//! the real loads *and* the `d`/`b` matrices of `δ + 1` processors within
//! ±1 per class and ±1 in total (the "snake" distribution of the appendix,
//! implemented in [`crate::balance`]).
//!
//! Borrow settlement follows §4: when a processor's borrow capacity is
//! exhausted it contacts the generator `j` of one of its markers; if `j`
//! still owns self-generated packets they are *exchanged* against the
//! markers and `j` simulates a workload decrease; otherwise the
//! reduce-borrow procedure balances load class `j` over a random
//! neighbourhood until the marker can be settled.
//!
//! Deviation from the appendix (documented in DESIGN.md): the literal
//! exchange rule `x = min{d_{j,j}, Σ_k b_{i,k}}` lets class-`j` packets
//! cancel markers of *other* classes; [`ExchangePolicy::Strict`] (the
//! default) restricts settlement to class-`j` markers, which is what the
//! per-class expected-value argument actually uses.  Both are implemented.
//!
//! # Representation
//!
//! Everything a balance operation or a load event reads about processor
//! `i` sits in one cache-line record (`Proc`, 64 bytes, 64-byte
//! aligned): the `d` and `b` rows, the cached sums `load = Σ_j d_{i,j}`
//! and `sum_b = Σ_j b_{i,j}`, `l_old`, and the wave executor's two
//! per-processor flags.  The rows are [`SparseRow`]s — sorted active
//! class ids with parallel values — stored *inline* while they hold at
//! most one class and spilled to the heap past that.  At n = 2²⁰ almost
//! every row holds zero or one class, so a balance operation — bound
//! there by cache misses, not arithmetic — touches one random cache
//! line per member.  The rarely touched per-class ledgers
//! (`fresh_generated`, `direct_consumed`, `settled`) stay in side
//! vectors.  The cluster costs O(n + Σ active) memory instead of the
//! O(n²) the flat arenas of [`crate::dense::DenseCluster`] pay (see
//! DESIGN.md §10).
//!
//! The cached sums are maintained by the row helpers on every insert and
//! remove, which also report each load change to the load-summary
//! tracker.  A balance operation rebuilds its members' rows in place, one
//! matrix at a time: it copies the rows into one flat scratch buffer,
//! clears them (spilled storage stays with its processor), k-way merges
//! the copies in ascending class order and pushes each class's
//! [`Snake`] deal straight back — one pass, no class union, no share
//! matrix; the cached sums, `l_old` and the moved-packet counts fall out
//! of the same walk.  All balancing paths write into scratch buffers
//! owned by the cluster — steady-state operation performs no heap
//! allocation beyond amortised row growth.  The behaviour is *bit
//! identical* to both the dense engine and the naive reference
//! implementation retained in [`crate::reference`]: same RNG
//! consumption, same loads, metrics and trace events (enforced by the
//! `sparse_equivalence` and `opt_equivalence` proptests and the
//! benchmark checksums).  The RNG contract is the subtle part: every
//! random class choice must scan candidates in ascending class order
//! exactly like the reference's dense `0..n` filter-then-nth sweep — the
//! sorted key lists make that order intrinsic.

use crate::balance::{distribute_capped_into, even_shares_into, moved, Snake, MAX_GROUP};
use crate::metrics::Metrics;
use crate::params::{check_full_group, ExchangePolicy, Params};
use crate::sparse::{count_diff, nth_diff, SparseRow};
use crate::strategy::{check_sparse_events, LoadBalancer, LoadEvent, LoadSummary};
use crate::summary::SummaryTracker;
use dlb_pool::par_map;
use dlb_trace::{SharedSink, TraceEvent};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Scratch buffers for executing one full balance operation: one
/// matrix's rows of every member, copied back to back.  Each
/// executing thread owns a set (thread-local on pool workers), so the
/// parallel wave path stays as allocation-free as the sequential one in
/// steady state.
#[derive(Default)]
struct BalanceScratch {
    keys: Vec<u32>,
    vals: Vec<u64>,
}

/// Which of a processor's two class rows a balance pass rebuilds.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Matrix {
    /// The virtual-class packets `d_{i,·}`.
    D,
    /// The borrowed-packet markers `b_{i,·}`.
    B,
}

thread_local! {
    /// Per-thread balance scratch for wave execution.
    static WAVE_SCRATCH: std::cell::RefCell<BalanceScratch> =
        std::cell::RefCell::new(BalanceScratch::default());
}

/// What executing one full balance operation produced.  The caller folds
/// outcomes into the metrics and the trace in trigger order, which
/// reconstructs the exact sequential counter sums and event stream.
#[derive(Clone, Copy, Default)]
struct OpOutcome {
    /// The f-factor ratio that fired the trigger (0.0 unless tracing).
    trigger: f64,
    /// Net packets that physically moved between members.
    op_packets: u64,
    /// Markers that moved between members.
    op_markers: u64,
    /// Markers annihilated on their home processor afterwards.
    home_settled: u64,
}

/// One processor's hot state, packed into one cache line: everything a
/// load event, a trigger check or a balance operation reads about the
/// processor.  The rows are inline while they hold at most one class
/// (the common case at large n), so the whole record is one memory
/// access.
#[derive(Clone, Default)]
#[repr(align(64))]
struct Proc {
    /// Sparse `d_{i,·}` row.
    d: SparseRow,
    /// Sparse `b_{i,·}` row.
    b: SparseRow,
    /// Cached real load `Σ_j d_{i,j}`.
    load: u64,
    /// Cached marker count `Σ_j b_{i,j}`.
    sum_b: u64,
    /// Self-generated load `d_{i,i}` at the last balancing participation.
    l_old: u64,
    /// Wave-planning scratch: 1 + index of the last wave touching this
    /// processor (zero outside [`Cluster::flush_pending`]).
    wave_mark: u32,
    /// Member of some queued balance operation.
    pending: bool,
}

const _: () = assert!(std::mem::size_of::<Proc>() == 64);

/// Raw view of the per-processor state a balance operation touches.
///
/// Operations within one wave have pairwise-disjoint member sets (the
/// wave planner in [`Cluster::flush_pending`]), so concurrent
/// executors write disjoint records and ledger entries — which is
/// what makes the `Send`/`Sync` impls sound.
struct ArenaView {
    procs: *mut Proc,
    settled: *mut u64,
}

// SAFETY: both pointers address vectors owned by the `Cluster`, which
// outlives every use of the view (a flush or one balance operation);
// executors only dereference entries of their own operation's members,
// which are disjoint across the operations running at once.
unsafe impl Send for ArenaView {}
// SAFETY: as for `Send`: shared access never reaches one processor's
// record or ledger entry from two threads.
unsafe impl Sync for ArenaView {}

/// Executes one full balancing operation over `members` (initiator
/// first) through the raw view: the body of the appendix's equalisation,
/// hoisted out of [`Cluster::full_balance`] so the sequential path and
/// the wave executor share one implementation and cannot drift apart.
/// Consumes no RNG and emits nothing — it returns an [`OpOutcome`] the
/// caller folds in trigger order.
///
/// Each matrix, `d` then `b`, is rebuilt in one pass over the members'
/// own rows: snapshot them into the scratch, clear them in place (a
/// spilled row keeps its storage, so no capacity moves between
/// processors), then k-way merge the snapshots in ascending class order,
/// dealing each class's total with a [`Snake`] and pushing the shares
/// straight back.  The rows come out sorted and equal to the snake
/// distribution over the union of the members' classes: a class no
/// member holds has total zero and moves no dealer.  The two passes are
/// independent — `d` and `b` keep separate running totals.
///
/// # Safety
///
/// No other thread may concurrently touch any state of the processors
/// in `members` (guaranteed by the conflict-free wave partition), and
/// `members` are distinct valid indices.
unsafe fn execute_full_balance(
    view: &ArenaView,
    members: &[usize],
    tracing: bool,
    s: &mut BalanceScratch,
) -> OpOutcome {
    let m = members.len();
    assert!(m <= MAX_GROUP, "group size bounded by the stack scratch");
    let initiator = members[0];
    // The f-factor ratio that fired the trigger.  The initiator's row is
    // untouched between draw and execution (a queued operation involving
    // it would have been flushed before its event was processed), so
    // this read equals the draw-time value.
    let trigger = if tracing {
        let p = &*view.procs.add(initiator);
        p.d.get(initiator as u32) as f64 / p.l_old.max(1) as f64
    } else {
        0.0
    };
    let mut out = OpOutcome {
        trigger,
        ..OpOutcome::default()
    };
    let everyone = u64::MAX >> (MAX_GROUP - m);
    for matrix in [Matrix::D, Matrix::B] {
        s.keys.clear();
        s.vals.clear();
        // Per member: the merge cursor into the snapshot and its end.
        let mut pos = [0usize; MAX_GROUP];
        let mut ends = [0usize; MAX_GROUP];
        // Members whose snapshot still has entries ahead of the cursor.
        let mut live = 0u64;
        for (si, &mm) in members.iter().enumerate() {
            let p = &mut *view.procs.add(mm);
            // Every participant counts this as a balancing of its own
            // class (§4: a group balance acts like δ + 1 self-initiated
            // balances): `l_old` becomes the new own-class share, and
            // home markers annihilate instead of being pushed, so
            // `sum_b` is rebuilt from the pushes.
            let row = match matrix {
                Matrix::D => {
                    p.l_old = 0;
                    &mut p.d
                }
                Matrix::B => {
                    p.sum_b = 0;
                    &mut p.b
                }
            };
            pos[si] = s.keys.len();
            s.keys.extend_from_slice(row.keys());
            s.vals.extend_from_slice(row.vals());
            ends[si] = s.keys.len();
            if !row.is_empty() {
                live |= 1 << si;
            }
            row.clear();
        }
        let mut snake = Snake::new(m);
        while live != 0 {
            // The smallest class under any cursor, its group total and
            // the members holding it.
            let (mut class, mut total, mut holders) = (u32::MAX, 0u64, 0u64);
            let mut bits = live;
            while bits != 0 {
                let si = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let c = s.keys[pos[si]];
                if c < class {
                    (class, total, holders) = (c, 0, 0);
                }
                if c == class {
                    total += s.vals[pos[si]];
                    holders |= 1 << si;
                }
            }
            let (base, extra) = snake.deal(total);
            let share = |si: usize| base + (extra >> si & 1);
            let mut bits = holders;
            while bits != 0 {
                let si = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if matrix == Matrix::B {
                    out.op_markers += s.vals[pos[si]].saturating_sub(share(si));
                }
                pos[si] += 1;
                if pos[si] == ends[si] {
                    live &= !(1 << si);
                }
            }
            let mut bits = if base > 0 { everyone } else { extra };
            while bits != 0 {
                let si = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (mm, v) = (members[si], share(si));
                let p = &mut *view.procs.add(mm);
                let own = class as usize == mm;
                match matrix {
                    Matrix::D => {
                        if own {
                            p.l_old = v;
                        }
                        p.d.push(class, v);
                    }
                    Matrix::B if own => {
                        *view.settled.add(mm) += v;
                        out.home_settled += v;
                    }
                    Matrix::B => {
                        p.sum_b += v;
                        p.b.push(class, v);
                    }
                }
            }
        }
        if matrix == Matrix::D {
            // Packets are fungible (§2: any packet can be consumed by
            // any processor), so only the *net* load difference moves
            // physically; the per-class matrices are bookkeeping carried
            // by the control messages.  Markers are bookkeeping only.
            for (si, &mm) in members.iter().enumerate() {
                let p = &mut *view.procs.add(mm);
                let load = snake.running(si);
                out.op_packets += p.load.saturating_sub(load);
                p.load = load;
            }
        }
    }
    out
}

/// The full virtual-load-class algorithm on `n` processors.
///
/// Deterministic: all randomness (partner choice, class choice) comes from
/// a seeded ChaCha stream.
pub struct Cluster {
    params: Params,
    /// Cached `params.n()`.
    n: usize,
    /// Per-processor hot state, one cache line each.
    procs: Vec<Proc>,
    rng: ChaCha8Rng,
    metrics: Metrics,
    /// Ledger: fresh class-`j` packets generated (excluding marker
    /// repayments).
    fresh_generated: Vec<u64>,
    /// Ledger: class-`j` packets consumed directly by their generator.
    direct_consumed: Vec<u64>,
    /// Ledger: class-`j` markers settled (exchange or home annihilation).
    settled: Vec<u64>,
    /// Sum of loads the cluster was constructed with.
    initial_total: u64,
    /// Scratch buffers reused across balancing operations (all cleared
    /// before use; `mem::take`n where simultaneous borrows are needed).
    scratch_members: Vec<usize>,
    scratch_partners: Vec<usize>,
    scratch_group: Vec<usize>,
    scratch_sample: Vec<usize>,
    scratch_before_d: Vec<u64>,
    scratch_before_b: Vec<u64>,
    scratch_caps: Vec<u64>,
    scratch_new_d: Vec<u64>,
    scratch_new_b: Vec<u64>,
    /// `(processor, load)` before a batch of executor writes, for the
    /// summary tracker (filled only while a tracker is installed).
    scratch_loads_before: Vec<(usize, u64)>,
    /// Optional structured event sink (absent or disabled: emission
    /// sites reduce to one branch).
    sink: Option<SharedSink>,
    /// Driver steps completed — the logical clock stamped onto events.
    step_no: u64,
    /// Intra-step parallelism: balance operations drawn during a step
    /// are queued and executed in conflict-free waves on up to this many
    /// pooled workers.  1 (the default) executes every operation at its
    /// trigger, exactly as before.
    step_jobs: usize,
    /// Flushes with fewer queued operations than this run sequentially
    /// (see [`LoadBalancer::set_wave_threshold`]).
    wave_threshold: usize,
    /// True while inside the §4 settlement machinery (exchange /
    /// reduce-borrow): balances triggered there execute immediately,
    /// because the settlement loop reads arbitrary processors next.
    eager: bool,
    /// Member lists of queued balance operations, flat with stride
    /// δ + 1, initiator first, in trigger order.
    pending_members: Vec<usize>,
    /// Balance scratch for the sequential/eager execution path (wave
    /// workers use a thread-local set instead).
    scratch_wave: BalanceScratch,
    scratch_wave_of: Vec<u32>,
    scratch_wave_ops: Vec<usize>,
    scratch_outcomes: Vec<OpOutcome>,
    /// Per-load processor counts backing [`LoadBalancer::load_summary`];
    /// observer state, built on the first query (`None` until then, so
    /// unobserved runs pay one branch per load change).
    summary: Option<SummaryTracker>,
}

impl Cluster {
    /// An empty cluster (all loads zero).
    pub fn new(params: Params, seed: u64) -> Self {
        Self::with_initial_load(params, seed, 0)
    }

    /// A cluster where every processor starts with `initial` self-generated
    /// packets (a *balanced state* in the sense of Theorems 1–4).
    pub fn with_initial_load(params: Params, seed: u64, initial: u64) -> Self {
        let n = params.n();
        let procs = (0..n)
            .map(|i| Proc {
                d: SparseRow::with_entry(i as u32, initial),
                load: initial,
                l_old: initial,
                ..Proc::default()
            })
            .collect();
        Self::from_parts(
            params,
            procs,
            ChaCha8Rng::seed_from_u64(seed),
            Metrics::new(),
            [vec![initial; n], vec![0; n], vec![0; n]],
            initial * n as u64,
        )
    }

    /// Assembles a cluster from algorithm state.  Sinks, the step clock
    /// and the wave executor are run-local observer/driver state, not
    /// algorithm state — a new or restored cluster starts untraced and
    /// sequential.
    fn from_parts(
        params: Params,
        procs: Vec<Proc>,
        rng: ChaCha8Rng,
        metrics: Metrics,
        [fresh_generated, direct_consumed, settled]: [Vec<u64>; 3],
        initial_total: u64,
    ) -> Self {
        Cluster {
            params,
            n: params.n(),
            procs,
            rng,
            metrics,
            fresh_generated,
            direct_consumed,
            settled,
            initial_total,
            scratch_members: Vec::new(),
            scratch_partners: Vec::new(),
            scratch_group: Vec::new(),
            scratch_sample: Vec::new(),
            scratch_before_d: Vec::new(),
            scratch_before_b: Vec::new(),
            scratch_caps: Vec::new(),
            scratch_new_d: Vec::new(),
            scratch_new_b: Vec::new(),
            scratch_loads_before: Vec::new(),
            sink: None,
            step_no: 0,
            step_jobs: 1,
            wave_threshold: crate::strategy::DEFAULT_WAVE_THRESHOLD,
            eager: false,
            pending_members: Vec::new(),
            scratch_wave: BalanceScratch::default(),
            scratch_wave_of: Vec::new(),
            scratch_wave_ops: Vec::new(),
            scratch_outcomes: Vec::new(),
            summary: None,
        }
    }

    /// Whether events should be constructed at all this step.
    fn trace_on(&self) -> bool {
        self.sink.as_ref().is_some_and(|s| s.enabled())
    }

    fn emit(&self, event: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.record(&event);
        }
    }

    /// The parameter set this cluster runs with.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Real load of processor `i`.
    pub fn load(&self, i: usize) -> u64 {
        self.procs[i].load
    }

    /// Virtual load of processor `i` (real packets plus borrowed markers),
    /// the quantity `l_i = Σ_j (d_{i,j} + b_{i,j})` of Theorem 4's proof.
    pub fn virtual_load(&self, i: usize) -> u64 {
        self.procs[i].load + self.procs[i].sum_b
    }

    /// Virtual class-`c` load on processor `i`: `d_{i,c} + b_{i,c}`.
    pub fn class_load(&self, i: usize, c: usize) -> u64 {
        self.d(i, c) + self.b(i, c)
    }

    /// `d_{i,c}`: real class-`c` packets on processor `i`.
    pub fn d(&self, i: usize, c: usize) -> u64 {
        self.procs[i].d.get(c as u32)
    }

    /// `b_{i,c}`: class-`c` markers on processor `i`.
    pub fn b(&self, i: usize, c: usize) -> u64 {
        self.procs[i].b.get(c as u32)
    }

    /// Number of active (nonzero) classes on processor `i`, `d` then `b`.
    pub fn active_classes(&self, i: usize) -> (usize, usize) {
        (self.procs[i].d.len(), self.procs[i].b.len())
    }

    /// Heap bytes the algorithm state currently occupies: the
    /// per-processor records, spilled rows (at reserved capacity), the
    /// three ledgers and, once installed, the load-summary tracker.
    /// This is the number the `bytes_per_proc` column of BENCH_core.json
    /// reports — it scales with n + Σ active classes, not n².
    pub fn state_bytes(&self) -> usize {
        let records = std::mem::size_of::<Proc>() * self.procs.capacity();
        let spilled: usize = self
            .procs
            .iter()
            .map(|p| p.d.heap_bytes() + p.b.heap_bytes())
            .sum();
        let ledgers = std::mem::size_of::<u64>()
            * (self.fresh_generated.capacity()
                + self.direct_consumed.capacity()
                + self.settled.capacity());
        let summary = self.summary.as_ref().map_or(0, SummaryTracker::heap_bytes);
        records + spilled + ledgers + summary
    }

    /// Reports one processor's load moving from `old` to `new` to the
    /// summary tracker, if one is installed.
    #[inline]
    fn note_load(&mut self, old: u64, new: u64) {
        if let Some(tracker) = self.summary.as_mut() {
            tracker.change(old, new);
        }
    }

    /// Adds `x > 0` class-`c` packets to `i`.
    #[inline]
    fn add_d(&mut self, i: usize, c: usize, x: u64) {
        let p = &mut self.procs[i];
        p.d.add(c as u32, x);
        p.load += x;
        let new = p.load;
        self.note_load(new - x, new);
    }

    /// Removes `x > 0` class-`c` packets from `i`.
    #[inline]
    fn sub_d(&mut self, i: usize, c: usize, x: u64) {
        let p = &mut self.procs[i];
        p.d.sub(c as u32, x);
        p.load -= x;
        let new = p.load;
        self.note_load(new + x, new);
    }

    /// Adds `x > 0` class-`c` markers to `i`.
    #[inline]
    fn add_b(&mut self, i: usize, c: usize, x: u64) {
        let p = &mut self.procs[i];
        p.b.add(c as u32, x);
        p.sum_b += x;
    }

    /// Removes `x > 0` class-`c` markers from `i`.
    #[inline]
    fn sub_b(&mut self, i: usize, c: usize, x: u64) {
        let p = &mut self.procs[i];
        p.b.sub(c as u32, x);
        p.sum_b -= x;
    }

    /// Verifies every structural invariant of the algorithm — including
    /// the sparse rows' internal soundness — and returns a description
    /// of the first violation.  O(n + Σ active): cheap enough that tests
    /// call it after every step even at large n.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.n;
        let c_borrow = self.params.c_borrow() as u64;
        let mut virt = vec![0u64; n];
        for (i, p) in self.procs.iter().enumerate() {
            p.d.check().map_err(|e| format!("proc {i}: d row: {e}"))?;
            p.b.check().map_err(|e| format!("proc {i}: b row: {e}"))?;
            let sum_d = p.d.sum();
            if sum_d != p.load {
                return Err(format!("proc {i}: load cache {} != sum(d) {sum_d}", p.load));
            }
            let sum_b = p.b.sum();
            if sum_b != p.sum_b {
                return Err(format!(
                    "proc {i}: marker cache {} != sum(b) {sum_b}",
                    p.sum_b
                ));
            }
            if p.sum_b > c_borrow {
                return Err(format!(
                    "proc {i}: {} markers exceed C = {c_borrow}",
                    p.sum_b
                ));
            }
            for (c, v) in p.d.iter().chain(p.b.iter()) {
                virt[c as usize] += v;
            }
        }
        for (c, &v) in virt.iter().enumerate() {
            let expect = self.fresh_generated[c]
                .checked_sub(self.direct_consumed[c] + self.settled[c])
                .ok_or_else(|| format!("class {c}: ledger went negative"))?;
            if v != expect {
                return Err(format!(
                    "class {c}: virtual load {v} != fresh {} - consumed {} - settled {}",
                    self.fresh_generated[c], self.direct_consumed[c], self.settled[c]
                ));
            }
        }
        let total: u64 = self.procs.iter().map(|p| p.load).sum();
        let expect = self.initial_total + self.metrics.generated - self.metrics.consumed;
        if total != expect {
            return Err(format!(
                "global load {total} != generated - consumed = {expect}"
            ));
        }
        Ok(())
    }

    fn generate(&mut self, i: usize) {
        self.metrics.generated += 1;
        if self.procs[i].sum_b > 0 {
            // Repay a marker: the new packet takes the identity of a
            // borrowed class, restoring its real packet.  Uniform over the
            // marked classes = uniform index into the sorted key list
            // (ascending order matches the reference's nth-match scan).
            let pick = self.rng.gen_range(0..self.procs[i].b.len());
            let j = self.procs[i].b.keys()[pick] as usize;
            self.sub_b(i, j, 1);
            self.add_d(i, j, 1);
        } else {
            self.add_d(i, i, 1);
            self.fresh_generated[i] += 1;
            self.trigger_check(i);
        }
    }

    fn consume(&mut self, i: usize) {
        if self.procs[i].load == 0 {
            self.metrics.consume_blocked += 1;
            return;
        }
        if self.d(i, i) > 0 {
            self.consume_own(i);
            return;
        }
        // d_{i,i} = 0: consume a foreign packet via the borrow machinery.
        // The settlement operations below read and write arbitrary
        // processors, so queued balance waves must land first and any
        // balance triggered inside must execute immediately.
        self.flush_pending();
        self.eager = true;
        self.consume_slow(i);
        self.eager = false;
    }

    /// Consumes one of `i`'s own packets (`d_{i,i} > 0`).
    fn consume_own(&mut self, i: usize) {
        self.sub_d(i, i, 1);
        self.direct_consumed[i] += 1;
        self.metrics.consumed += 1;
        self.trigger_check(i);
    }

    /// The §4 settlement retry loop of [`Cluster::consume`].  Every
    /// settlement attempt either frees a marker slot or hands `i` a
    /// borrowable (or own-class) packet, so C + 2 attempts always
    /// suffice; the bound is a safety net, with failures counted.
    fn consume_slow(&mut self, i: usize) {
        let max_attempts = self.params.c_borrow() + 2;
        for _ in 0..max_attempts.max(4) {
            if self.procs[i].load == 0 {
                // Settlement operations may have drained the processor.
                self.metrics.consume_blocked += 1;
                return;
            }
            if self.d(i, i) > 0 {
                // Settlement balancing brought some of i's own packets home
                // (§4: "... or has received some of his own load packets").
                self.consume_own(i);
                return;
            }
            if (self.procs[i].sum_b as usize) < self.params.c_borrow() {
                if let Some(j) = self.random_borrowable_class(i) {
                    self.add_b(i, j, 1);
                    self.sub_d(i, j, 1);
                    self.metrics.total_borrow += 1;
                    self.metrics.consumed += 1;
                    return;
                }
            }
            // Capacity exhausted (or every loaded class already borrowed):
            // settle markers remotely, then retry.
            let Some(j) = self.random_marker_class(i) else {
                break; // only possible when C = 0
            };
            if self.d(j, j) > 0 {
                self.exchange(i, j);
            } else {
                self.reduce_borrow(i, j);
            }
        }
        self.metrics.consume_failed += 1;
    }

    /// Picks a uniformly random class `j` of `i` with `d_{i,j} > 0` and
    /// `b_{i,j} = 0` (a fresh borrow candidate).  The merge-walk over the
    /// two sorted key lists visits candidates in ascending class order,
    /// exactly like the reference's dense filter-then-nth scan, so RNG
    /// consumption is identical.
    fn random_borrowable_class(&mut self, i: usize) -> Option<usize> {
        let p = &self.procs[i];
        let count = count_diff(p.d.keys(), p.b.keys());
        if count == 0 {
            return None;
        }
        let pick = self.rng.gen_range(0..count);
        let p = &self.procs[i];
        nth_diff(p.d.keys(), p.b.keys(), pick).map(|j| j as usize)
    }

    /// Picks a uniformly random class `j` of `i` with `b_{i,j} > 0`.
    fn random_marker_class(&mut self, i: usize) -> Option<usize> {
        if self.procs[i].b.is_empty() {
            return None;
        }
        let pick = self.rng.gen_range(0..self.procs[i].b.len());
        Some(self.procs[i].b.keys()[pick] as usize)
    }

    /// §4 exchange: settle markers held by `i` against real class-`j`
    /// packets still owned by the generator `j`, then let `j` simulate the
    /// corresponding workload decrease.
    fn exchange(&mut self, i: usize, j: usize) {
        debug_assert_ne!(i, j);
        let available = self.d(j, j);
        let x = match self.params.exchange() {
            ExchangePolicy::Strict => available.min(self.b(i, j)),
            ExchangePolicy::Aggressive => available.min(self.procs[i].sum_b),
        };
        if x == 0 {
            return;
        }
        self.metrics.remote_borrow += 1;
        // x real class-j packets migrate j -> i ...
        self.sub_d(j, j, x);
        self.add_d(i, j, x);
        self.metrics.packets_migrated += x;
        self.metrics.messages += 2;
        if self.trace_on() {
            self.emit(TraceEvent::PacketsMigrated {
                step: self.step_no,
                initiator: j as u64,
                count: x,
            });
        }
        // ... and cancel x markers on i.
        let mut remaining = x;
        let own = self.b(i, j).min(remaining);
        if own > 0 {
            self.sub_b(i, j, own);
            self.settled[j] += own;
            remaining -= own;
        }
        while remaining > 0 {
            // Aggressive policy: spill into markers of other classes, in
            // ascending class order (the reference's 0..n scan) — i.e.
            // drain the front of the sorted key list.
            let row = &self.procs[i].b;
            debug_assert!(!row.is_empty(), "sum_b guarantees markers");
            let k = row.keys()[0] as usize;
            let take = row.vals()[0].min(remaining);
            self.sub_b(i, k, take);
            self.settled[k] += take;
            remaining -= take;
        }
        self.metrics.markers_settled += x;
        // j simulates a workload decrease of x packets.
        self.metrics.decrease_sim += 1;
        self.trigger_check(j);
    }

    /// §4 reduce-borrow procedure for a marker of class `j` held by `i`
    /// when the generator has no own packets (`d_{j,j} = 0`): balance load
    /// class `j` over a random neighbourhood so that either real class-`j`
    /// packets reach `j` (and can be exchanged) or markers reach `j` (and
    /// annihilate).
    fn reduce_borrow(&mut self, i: usize, j: usize) {
        debug_assert_ne!(i, j);
        debug_assert_eq!(self.d(j, j), 0);
        self.metrics.borrow_fail += 1;
        let mut candidates = std::mem::take(&mut self.scratch_partners);
        self.sample_partners_into(j, &mut candidates);
        let mut group = std::mem::take(&mut self.scratch_group);
        if candidates.contains(&i) {
            // i is among j's candidates: one class balance moves packets or
            // markers between i and j directly.
            group.clear();
            group.extend_from_slice(&candidates);
            group.push(j);
            self.balance_class(j, &group);
        } else {
            let helpful = candidates
                .iter()
                .any(|&k| self.d(k, j) > 0 || self.b(k, j) == 0)
                || self.d(i, j) > 0;
            if helpful {
                // Spread i's markers / gather real packets, then pull them
                // towards j.
                group.clear();
                group.extend_from_slice(&candidates);
                group.push(i);
                self.balance_class(j, &group);
                group.pop();
                group.push(j);
                self.balance_class(j, &group);
            } else {
                // Everyone holds only markers: push markers to j first
                // (where they annihilate), then relieve i.
                group.clear();
                group.extend_from_slice(&candidates);
                group.push(j);
                self.balance_class(j, &group);
                group.pop();
                group.push(i);
                self.balance_class(j, &group);
            }
        }
        // Restore the scratch buffers before `exchange`, which may trigger
        // a nested full balance that needs them.
        self.scratch_group = group;
        self.scratch_partners = candidates;
        self.settle_home_markers(j);
        if self.d(j, j) > 0 && self.b(i, j) > 0 {
            self.exchange(i, j);
        } else if self.b(i, j) > 0 {
            // Guaranteed progress (§4: "the borrowed packet on processor i
            // has migrated to processor j where it is also consumed"): one
            // marker moves home and annihilates.  Without this the
            // capacity-capped class balances can shuffle markers without
            // ever relieving i.
            self.sub_b(i, j, 1);
            self.settled[j] += 1;
            self.metrics.markers_settled += 1;
            self.metrics.markers_migrated += 1;
            self.metrics.messages += 1;
            if self.trace_on() {
                self.emit(TraceEvent::MarkerMoved {
                    step: self.step_no,
                    initiator: i as u64,
                    count: 1,
                });
            }
            // From j's perspective its virtual class shrank: decrease
            // simulation bookkeeping.
            self.trigger_check(j);
        }
    }

    /// Balances a single load class `c` (both `d_{·,c}` and `b_{·,c}`)
    /// over `members` within ±1, as used by the reduce-borrow procedure.
    fn balance_class(&mut self, c: usize, members: &[usize]) {
        self.metrics.class_balance_ops += 1;
        self.metrics.messages += members.len() as u64;
        let m = members.len();
        let mut before_d = std::mem::take(&mut self.scratch_before_d);
        let mut before_b = std::mem::take(&mut self.scratch_before_b);
        let mut caps = std::mem::take(&mut self.scratch_caps);
        let mut new_d = std::mem::take(&mut self.scratch_new_d);
        let mut new_b = std::mem::take(&mut self.scratch_new_b);
        before_d.clear();
        before_d.extend(members.iter().map(|&mm| self.d(mm, c)));
        before_b.clear();
        before_b.extend(members.iter().map(|&mm| self.b(mm, c)));
        let total_d: u64 = before_d.iter().sum();
        let total_b: u64 = before_b.iter().sum();
        // A single class over zeroed running totals degenerates to the
        // plain even split (extras go to the lowest slots first).
        even_shares_into(total_d, m, &mut new_d);
        // Markers must respect the borrow limit C per processor, counting
        // the markers of *other* classes each member already holds.
        caps.clear();
        caps.extend(members.iter().zip(before_b.iter()).map(|(&mm, &own)| {
            (self.params.c_borrow() as u64).saturating_sub(self.procs[mm].sum_b - own)
        }));
        distribute_capped_into(total_b, &caps, &mut new_b);
        let moved_d = moved(&before_d, &new_d);
        let moved_b = moved(&before_b, &new_b);
        self.metrics.packets_migrated += moved_d;
        self.metrics.markers_migrated += moved_b;
        if self.trace_on() {
            if moved_d > 0 {
                self.emit(TraceEvent::PacketsMigrated {
                    step: self.step_no,
                    initiator: c as u64,
                    count: moved_d,
                });
            }
            if moved_b > 0 {
                self.emit(TraceEvent::MarkerMoved {
                    step: self.step_no,
                    initiator: c as u64,
                    count: moved_b,
                });
            }
        }
        for (s, &mm) in members.iter().enumerate() {
            let p = &mut self.procs[mm];
            let old = p.load;
            p.load = old + new_d[s] - before_d[s];
            p.d.set(c as u32, new_d[s]);
            p.sum_b = p.sum_b + new_b[s] - before_b[s];
            p.b.set(c as u32, new_b[s]);
            let new = p.load;
            self.note_load(old, new);
        }
        self.scratch_before_d = before_d;
        self.scratch_before_b = before_b;
        self.scratch_caps = caps;
        self.scratch_new_d = new_d;
        self.scratch_new_b = new_b;
    }

    /// Markers of class `m` residing on processor `m` annihilate: the
    /// earlier foreign consumption of `m`'s packets is finally accounted
    /// to `m`'s own load class.
    fn settle_home_markers(&mut self, m: usize) {
        let p = &mut self.procs[m];
        let k = p.b.take(m as u32);
        if k > 0 {
            p.sum_b -= k;
            self.settled[m] += k;
            self.metrics.markers_settled += k;
        }
    }

    pub(crate) fn snapshot_impl(&self) -> crate::snapshot::ClusterSnapshot {
        let n = self.n;
        // The snapshot format stays dense (stable on-disk schema); the
        // sparse rows densify row by row.
        crate::snapshot::ClusterSnapshot {
            n,
            delta: self.params.delta(),
            f: self.params.f(),
            c_borrow: self.params.c_borrow(),
            exchange: self.params.exchange(),
            d: self.procs.iter().map(|p| p.d.to_dense(n)).collect(),
            b: self.procs.iter().map(|p| p.b.to_dense(n)).collect(),
            l_old: self.procs.iter().map(|p| p.l_old).collect(),
            fresh_generated: self.fresh_generated.clone(),
            direct_consumed: self.direct_consumed.clone(),
            settled: self.settled.clone(),
            initial_total: self.initial_total,
            metrics: self.metrics,
            rng_seed: self.rng.get_seed(),
            rng_word_pos: self.rng.get_word_pos(),
        }
    }

    pub(crate) fn restore_impl(snap: &crate::snapshot::ClusterSnapshot) -> Result<Cluster, String> {
        let params = Params::new(snap.n, snap.delta, snap.f, snap.c_borrow)
            .map_err(|e| e.to_string())?
            .with_exchange(snap.exchange);
        check_full_group(snap.delta).map_err(|e| e.to_string())?;
        let n = snap.n;
        let rows_ok = |m: &Vec<Vec<u64>>| m.len() == n && m.iter().all(|r| r.len() == n);
        if !rows_ok(&snap.d) || !rows_ok(&snap.b) {
            return Err("snapshot matrices have the wrong shape".into());
        }
        if snap.l_old.len() != n
            || snap.fresh_generated.len() != n
            || snap.direct_consumed.len() != n
            || snap.settled.len() != n
        {
            return Err("snapshot vectors have the wrong length".into());
        }
        let compress = |row: &[u64]| -> SparseRow {
            let mut r = SparseRow::new();
            for (c, &v) in row.iter().enumerate() {
                if v > 0 {
                    r.push(c as u32, v);
                }
            }
            r
        };
        let procs = (0..n)
            .map(|i| Proc {
                d: compress(&snap.d[i]),
                b: compress(&snap.b[i]),
                load: snap.d[i].iter().sum(),
                sum_b: snap.b[i].iter().sum(),
                l_old: snap.l_old[i],
                ..Proc::default()
            })
            .collect();
        let mut rng = ChaCha8Rng::from_seed(snap.rng_seed);
        rng.set_word_pos(snap.rng_word_pos);
        let cluster = Self::from_parts(
            params,
            procs,
            rng,
            snap.metrics,
            [
                snap.fresh_generated.clone(),
                snap.direct_consumed.clone(),
                snap.settled.clone(),
            ],
            snap.initial_total,
        );
        cluster.check_invariants()?;
        Ok(cluster)
    }

    /// Uniform `δ`-subset of processors other than `who`, written into a
    /// caller-owned buffer.  Inlines the vendored Floyd sampling loop
    /// (`rand::seq::index::sample`) so the draw is allocation-free while
    /// consuming the RNG identically (asserted by a unit test below).
    fn sample_partners_into(&mut self, who: usize, out: &mut Vec<usize>) {
        let mut raw = std::mem::take(&mut self.scratch_sample);
        raw.clear();
        let length = self.n - 1;
        let amount = self.params.delta();
        for j in (length - amount)..length {
            let t = self.rng.gen_range(0..=j);
            if raw.contains(&t) {
                raw.push(j);
            } else {
                raw.push(t);
            }
        }
        out.clear();
        out.extend(raw.iter().map(|&x| if x >= who { x + 1 } else { x }));
        self.scratch_sample = raw;
    }

    /// Fires a full balancing operation if processor `i`'s self-generated
    /// load has grown or shrunk by the factor `f` since its last
    /// participation.
    fn trigger_check(&mut self, i: usize) {
        let cur = self.d(i, i);
        let last = self.procs[i].l_old;
        if self.params.grow_triggered(cur, last) || self.params.shrink_triggered(cur, last) {
            self.full_balance(i);
        }
    }

    /// The full balancing operation of the appendix: the initiator and `δ`
    /// random partners equalise their real loads, `d`-matrices and
    /// `b`-matrices within ±1 per class and ±1 in total.
    ///
    /// The operation is *drawn* here — partner sampling, the only RNG it
    /// consumes — and, with `step_jobs > 1`, queued for wave execution
    /// (see [`Cluster::flush_pending`]).  Everything after the draw
    /// touches only the δ + 1 members' state, so member-disjoint
    /// operations commute bit-exactly and deferral is invisible.
    /// Sequential mode and settlement-path balances (`eager`) execute
    /// immediately through the same [`execute_full_balance`] body.
    fn full_balance(&mut self, initiator: usize) {
        let mut partners = std::mem::take(&mut self.scratch_partners);
        self.sample_partners_into(initiator, &mut partners);
        if self.step_jobs > 1 && !self.eager {
            self.pending_members.push(initiator);
            self.procs[initiator].pending = true;
            for &p in &partners {
                self.pending_members.push(p);
                self.procs[p].pending = true;
            }
            self.scratch_partners = partners;
            return;
        }
        let mut members = std::mem::take(&mut self.scratch_members);
        members.clear();
        members.push(initiator);
        members.extend_from_slice(&partners);
        self.scratch_partners = partners;
        let tracing = self.trace_on();
        let mut scratch = std::mem::take(&mut self.scratch_wave);
        let mut before = std::mem::take(&mut self.scratch_loads_before);
        if self.summary.is_some() {
            before.extend(members.iter().map(|&mm| (mm, self.procs[mm].load)));
        }
        let out = {
            let view = self.arena_view();
            // SAFETY: single-threaded; the initiator and its distinct
            // sampled partners index `procs`.
            unsafe { execute_full_balance(&view, &members, tracing, &mut scratch) }
        };
        self.scratch_wave = scratch;
        self.notes_after(before);
        self.fold_outcome(&members, out, tracing);
        members.clear();
        self.scratch_members = members;
    }

    /// Reports the executor's writes to the summary tracker: each
    /// processor in `before` moved from its recorded load to its current
    /// one.  The executor writes loads through raw pointers (possibly on
    /// pool workers); the tracker catches up here, sequentially.
    fn notes_after(&mut self, mut before: Vec<(usize, u64)>) {
        if let Some(tracker) = self.summary.as_mut() {
            let procs = &self.procs;
            tracker.change_batch(&before, |p| procs[p].load);
        }
        before.clear();
        self.scratch_loads_before = before;
    }

    /// Raw pointers into the per-processor state balance operations
    /// mutate.  Valid until the next access through `&mut self`; during
    /// wave execution the cluster is only touched through the view.
    fn arena_view(&mut self) -> ArenaView {
        ArenaView {
            procs: self.procs.as_mut_ptr(),
            settled: self.settled.as_mut_ptr(),
        }
    }

    /// Folds one executed operation's outcome into the metrics and the
    /// trace.  Called in trigger order, which reconstructs the exact
    /// sequential counter sums and event stream: per operation the
    /// stream is BalanceInitiated, then PacketsMigrated and MarkerMoved
    /// when nonzero — the same three emission sites the eager path used.
    fn fold_outcome(&mut self, members: &[usize], out: OpOutcome, tracing: bool) {
        self.metrics.balance_ops += 1;
        self.metrics.messages += members.len() as u64;
        self.metrics.packets_migrated += out.op_packets;
        self.metrics.markers_migrated += out.op_markers;
        self.metrics.markers_settled += out.home_settled;
        if tracing {
            let initiator = members[0] as u64;
            self.emit(TraceEvent::BalanceInitiated {
                step: self.step_no,
                initiator,
                partners: members[1..].iter().map(|&p| p as u64).collect(),
                trigger: out.trigger,
            });
            if out.op_packets > 0 {
                self.emit(TraceEvent::PacketsMigrated {
                    step: self.step_no,
                    initiator,
                    count: out.op_packets,
                });
            }
            if out.op_markers > 0 {
                self.emit(TraceEvent::MarkerMoved {
                    step: self.step_no,
                    initiator,
                    count: out.op_markers,
                });
            }
        }
    }

    /// Executes every queued balance operation in conflict-free waves
    /// and folds the outcomes in trigger order.
    ///
    /// Wave partition, greedily by trigger index: operation k lands in
    /// wave `1 + max(wave of any earlier queued operation sharing a
    /// member)`.  Two operations in one wave therefore never share a
    /// processor — they write disjoint rows and commute bit-exactly —
    /// while the cross-wave order preserves the sequential read/write
    /// order on every shared processor.  The wave schedule depends only
    /// on the queued member sets, never on `step_jobs`, so any worker
    /// count (including 1) produces identical state.
    fn flush_pending(&mut self) {
        if self.pending_members.is_empty() {
            return;
        }
        let stride = self.params.delta() + 1;
        let pending = std::mem::take(&mut self.pending_members);
        let count = pending.len() / stride;
        // Clearing the flags visits each touched processor once (at its
        // first occurrence): exactly the distinct set whose loads the
        // summary tracker must see before and after the flush.
        let mut before = std::mem::take(&mut self.scratch_loads_before);
        let tracked = self.summary.is_some();
        for &p in &pending {
            let rec = &mut self.procs[p];
            if std::mem::take(&mut rec.pending) && tracked {
                before.push((p, rec.load));
            }
        }
        let tracing = self.trace_on();
        let step_jobs = self.step_jobs;
        let mut outcomes = std::mem::take(&mut self.scratch_outcomes);
        outcomes.clear();
        let mut wave_of = std::mem::take(&mut self.scratch_wave_of);
        let mut wave_ops = std::mem::take(&mut self.scratch_wave_ops);
        if count < self.wave_threshold {
            // Tiny flush: wave planning and pool dispatch cost more than
            // they save, and sequential execution in trigger order is
            // exactly the per-processor order the waves reproduce — so
            // skip the machinery (bit-identical results either way).
            let mut scratch = std::mem::take(&mut self.scratch_wave);
            let view = self.arena_view();
            for k in 0..count {
                let members = &pending[k * stride..(k + 1) * stride];
                // SAFETY: single-threaded, in trigger order; each queued
                // member list is an initiator plus distinct partners.
                outcomes
                    .push(unsafe { execute_full_balance(&view, members, tracing, &mut scratch) });
            }
            self.scratch_wave = scratch;
        } else {
            wave_of.clear();
            let mut waves = 0u32;
            for k in 0..count {
                let members = &pending[k * stride..(k + 1) * stride];
                let w = members
                    .iter()
                    .map(|&mm| self.procs[mm].wave_mark)
                    .max()
                    .unwrap_or(0);
                for &mm in members {
                    self.procs[mm].wave_mark = w + 1;
                }
                wave_of.push(w);
                waves = waves.max(w + 1);
            }
            for &p in &pending {
                self.procs[p].wave_mark = 0;
            }
            outcomes.resize(count, OpOutcome::default());
            let view = self.arena_view();
            for w in 0..waves {
                wave_ops.clear();
                wave_ops.extend((0..count).filter(|&k| wave_of[k] == w));
                let view = &view;
                let pending = &pending;
                let wave_ops = &wave_ops;
                let results = par_map(step_jobs.min(wave_ops.len()), wave_ops.len(), |i| {
                    let k = wave_ops[i];
                    let members = &pending[k * stride..(k + 1) * stride];
                    // SAFETY: operations in one wave have pairwise-disjoint
                    // member sets (the planner above), so no two workers
                    // touch one processor; `self` is not used meanwhile.
                    WAVE_SCRATCH.with(|s| unsafe {
                        execute_full_balance(view, members, tracing, &mut s.borrow_mut())
                    })
                });
                for (i, out) in results.into_iter().enumerate() {
                    outcomes[wave_ops[i]] = out;
                }
            }
        }
        self.notes_after(before);
        for (k, out) in outcomes.iter().enumerate() {
            let members = &pending[k * stride..(k + 1) * stride];
            self.fold_outcome(members, *out, tracing);
        }
        outcomes.clear();
        self.scratch_outcomes = outcomes;
        self.scratch_wave_of = wave_of;
        self.scratch_wave_ops = wave_ops;
        let mut pending = pending;
        pending.clear();
        self.pending_members = pending;
    }

    /// Shared body of [`LoadBalancer::step`] and
    /// [`LoadBalancer::step_sparse`]: processes `(processor, event)`
    /// pairs in ascending order, then settles the step (queued waves,
    /// StepDelta, clock).  An idle processor reads nothing, writes
    /// nothing and consumes no randomness in the dense loop, so the
    /// sparse path — which simply never yields idle pairs — is
    /// bit-identical by construction.
    fn step_events<I: Iterator<Item = (usize, LoadEvent)>>(&mut self, events: I) {
        let tracing = self.trace_on();
        let before = if tracing {
            self.metrics
        } else {
            Metrics::new()
        };
        for (i, ev) in events {
            // A queued balance involving i must land before i acts:
            // generation, consumption and the trigger check all read
            // row-i state the queued operation rewrites.  (Idle reads
            // nothing, so the queue keeps batching across idlers; the
            // flag is only ever set when step_jobs > 1.)
            if !matches!(ev, LoadEvent::Idle) && self.procs[i].pending {
                self.flush_pending();
            }
            match ev {
                LoadEvent::Generate => self.generate(i),
                LoadEvent::Consume => self.consume(i),
                LoadEvent::Idle => {}
            }
        }
        // Operations never outlive their step: the StepDelta below (and
        // any observer between steps) must see fully-settled state.
        self.flush_pending();
        if tracing {
            let delta = self.metrics.delta_from(&before);
            let counters: Vec<(String, u64)> = delta
                .nonzero_fields()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            if !counters.is_empty() {
                self.emit(TraceEvent::StepDelta {
                    step: self.step_no,
                    counters,
                });
            }
        }
        self.step_no += 1;
    }
}

impl LoadBalancer for Cluster {
    fn n(&self) -> usize {
        self.n
    }

    fn loads(&self) -> Vec<u64> {
        self.procs.iter().map(|p| p.load).collect()
    }

    fn loads_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(self.procs.iter().map(|p| p.load));
    }

    fn step(&mut self, events: &[LoadEvent]) {
        assert_eq!(events.len(), self.n, "one event per processor");
        self.step_events(events.iter().copied().enumerate());
    }

    fn step_sparse(&mut self, active: &[(usize, LoadEvent)]) {
        check_sparse_events(active, self.n);
        self.step_events(active.iter().copied());
    }

    fn step_sparse_masked(&mut self, active: &[(usize, LoadEvent)], down: &[bool]) {
        assert_eq!(down.len(), self.n, "mask length mismatch");
        check_sparse_events(active, self.n);
        // The dense masked path (the trait default) turns a down
        // processor's event into Idle, and idle costs nothing — so
        // filtering down actives out of the sparse list is the same
        // computation.
        self.step_events(active.iter().copied().filter(|&(i, _)| !down[i]));
    }

    fn load_summary(&mut self) -> LoadSummary {
        let procs = &self.procs;
        let (min, max) = self
            .summary
            .get_or_insert_with(|| SummaryTracker::new(procs.iter().map(|p| p.load)))
            .min_max();
        // The global-ledger invariant (checked by `check_invariants`):
        // total load is initial + generated − consumed.
        LoadSummary {
            min,
            max,
            total: self.initial_total + self.metrics.generated - self.metrics.consumed,
        }
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn name(&self) -> &'static str {
        "spaa93-full"
    }

    fn set_trace_sink(&mut self, sink: SharedSink) {
        self.sink = Some(sink);
    }

    fn set_step_jobs(&mut self, jobs: usize) {
        self.step_jobs = jobs.max(1);
    }

    fn set_wave_threshold(&mut self, threshold: usize) {
        self.wave_threshold = threshold;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_random(params: Params, seed: u64, steps: usize, p_gen: f64, p_con: f64) -> Cluster {
        let mut cluster = Cluster::new(params, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xfeed);
        let n = params.n();
        for _ in 0..steps {
            let events: Vec<LoadEvent> = (0..n)
                .map(|_| {
                    let x: f64 = rng.gen();
                    if x < p_gen {
                        LoadEvent::Generate
                    } else if x < p_gen + p_con {
                        LoadEvent::Consume
                    } else {
                        LoadEvent::Idle
                    }
                })
                .collect();
            cluster.step(&events);
        }
        cluster
    }

    #[test]
    fn inlined_partner_sampling_matches_vendored_sample() {
        // sample_partners_into re-implements rand::seq::index::sample to
        // avoid its allocation; the two must stay in lockstep (same RNG
        // draws, same picks) or determinism silently breaks.
        for seed in 0..20u64 {
            let params = Params::new(16, 4, 1.3, 4).unwrap();
            let mut cluster = Cluster::new(params, seed);
            let mut out = Vec::new();
            cluster.sample_partners_into(5, &mut out);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let expect: Vec<usize> = rand::seq::index::sample(&mut rng, 15, 4)
                .iter()
                .map(|x| if x >= 5 { x + 1 } else { x })
                .collect();
            assert_eq!(out, expect, "seed {seed}");
        }
    }

    #[test]
    fn generation_only_stays_invariant_and_balanced() {
        let params = Params::paper_section7(8);
        let mut cluster = Cluster::new(params, 1);
        let events = vec![LoadEvent::Generate; 8];
        for _ in 0..200 {
            cluster.step(&events);
            cluster.check_invariants().unwrap();
        }
        let loads = cluster.loads();
        assert_eq!(loads.iter().sum::<u64>(), 8 * 200);
        // Every processor generated equally; the balancer keeps spread low.
        let stats = crate::strategy::imbalance_stats(&loads);
        assert!(stats.max_over_mean < 1.5, "stats: {stats:?}");
    }

    #[test]
    fn one_producer_spreads_load_through_network() {
        let params = Params::new(16, 2, 1.3, 4).unwrap();
        let mut cluster = Cluster::new(params, 7);
        let mut events = vec![LoadEvent::Idle; 16];
        events[0] = LoadEvent::Generate;
        for _ in 0..2000 {
            cluster.step(&events);
        }
        cluster.check_invariants().unwrap();
        let loads = cluster.loads();
        assert_eq!(loads.iter().sum::<u64>(), 2000);
        // Everyone received work.
        assert!(loads.iter().all(|&l| l > 0), "{loads:?}");
        // Theorem 3 flavour: producer within a small factor of the others.
        let others_mean = loads[1..].iter().sum::<u64>() as f64 / 15.0;
        let ratio = loads[0] as f64 / others_mean;
        assert!(ratio < 3.0, "producer ratio {ratio}");
    }

    #[test]
    fn consume_without_load_is_blocked() {
        let params = Params::paper_section7(4);
        let mut cluster = Cluster::new(params, 3);
        cluster.step(&[
            LoadEvent::Consume,
            LoadEvent::Idle,
            LoadEvent::Idle,
            LoadEvent::Idle,
        ]);
        assert_eq!(cluster.metrics().consume_blocked, 1);
        assert_eq!(cluster.metrics().consumed, 0);
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn borrowing_kicks_in_for_consumer_without_own_class() {
        // Processor 1 never generates but receives migrated class-0 load;
        // consuming it must go through the borrow machinery.
        let params = Params::new(4, 1, 1.1, 4).unwrap();
        let mut cluster = Cluster::new(params, 11);
        // Build up load from processor 0.
        let mut gen = vec![LoadEvent::Idle; 4];
        gen[0] = LoadEvent::Generate;
        for _ in 0..400 {
            cluster.step(&gen);
        }
        assert!(cluster.load(1) > 0, "balancing moved work to processor 1");
        let mut con = vec![LoadEvent::Idle; 4];
        con[1] = LoadEvent::Consume;
        for _ in 0..50 {
            cluster.step(&con);
            cluster.check_invariants().unwrap();
        }
        assert!(
            cluster.metrics().total_borrow > 0,
            "borrows: {:?}",
            cluster.metrics()
        );
        assert_eq!(cluster.metrics().consume_failed, 0);
    }

    #[test]
    fn exchange_settles_markers_against_generator() {
        let params = Params::new(4, 1, 1.1, 2).unwrap();
        let mut cluster = Cluster::new(params, 5);
        let mut gen = vec![LoadEvent::Idle; 4];
        gen[0] = LoadEvent::Generate;
        for _ in 0..600 {
            cluster.step(&gen);
        }
        // Processor 1 consumes aggressively; with C = 2 it must exchange.
        let mut con = vec![LoadEvent::Idle; 4];
        con[1] = LoadEvent::Consume;
        con[0] = LoadEvent::Generate;
        for _ in 0..300 {
            cluster.step(&con);
            cluster.check_invariants().unwrap();
        }
        let m = cluster.metrics();
        assert!(m.remote_borrow > 0, "exchanges happened: {m:?}");
        assert!(m.decrease_sim >= m.remote_borrow);
    }

    #[test]
    fn aggressive_policy_also_preserves_global_ledger() {
        let params = Params::new(8, 2, 1.4, 4)
            .unwrap()
            .with_exchange(ExchangePolicy::Aggressive);
        let cluster = run_random(params, 23, 800, 0.4, 0.4);
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn mixed_workload_keeps_all_invariants() {
        for seed in 0..5 {
            let params = Params::paper_section7(16);
            let cluster = run_random(params, seed, 500, 0.45, 0.45);
            cluster.check_invariants().unwrap();
            assert_eq!(cluster.metrics().consume_failed, 0, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let params = Params::paper_section7(8);
        let a = run_random(params, 42, 300, 0.5, 0.3).loads();
        let b = run_random(params, 42, 300, 0.5, 0.3).loads();
        assert_eq!(a, b);
        let c = run_random(params, 43, 300, 0.5, 0.3).loads();
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn step_jobs_is_bit_identical_to_sequential() {
        let params = Params::paper_section7(16);
        let seq = run_random(params, 91, 300, 0.45, 0.45);
        for jobs in [2, 4, 8] {
            let mut par = Cluster::new(params, 91);
            par.set_step_jobs(jobs);
            let mut rng = ChaCha8Rng::seed_from_u64(91 ^ 0xfeed);
            for _ in 0..300 {
                let events: Vec<LoadEvent> = (0..16)
                    .map(|_| {
                        let x: f64 = rng.gen();
                        if x < 0.45 {
                            LoadEvent::Generate
                        } else if x < 0.9 {
                            LoadEvent::Consume
                        } else {
                            LoadEvent::Idle
                        }
                    })
                    .collect();
                par.step(&events);
            }
            par.check_invariants().unwrap();
            assert_eq!(par.loads(), seq.loads(), "jobs={jobs}");
            assert_eq!(par.metrics(), seq.metrics(), "jobs={jobs}");
        }
    }

    #[test]
    fn marker_capacity_never_exceeded() {
        let params = Params::new(8, 1, 1.1, 3).unwrap();
        let mut cluster = Cluster::new(params, 9);
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for _ in 0..600 {
            let events: Vec<LoadEvent> = (0..8)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        LoadEvent::Generate
                    } else {
                        LoadEvent::Consume
                    }
                })
                .collect();
            cluster.step(&events);
            for i in 0..8 {
                let total_b: u64 = (0..8).map(|c| cluster.b(i, c)).sum();
                assert!(total_b <= 3, "proc {i} holds {total_b} markers");
            }
        }
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn balanced_initial_load_consumable_to_zero() {
        // Start loaded, consume everything: the borrow machinery must let
        // every processor drain the system completely.
        let params = Params::new(6, 1, 1.2, 4).unwrap();
        let mut cluster = Cluster::with_initial_load(params, 2, 50);
        let events = vec![LoadEvent::Consume; 6];
        for _ in 0..400 {
            cluster.step(&events);
            cluster.check_invariants().unwrap();
        }
        assert_eq!(
            cluster.loads().iter().sum::<u64>(),
            0,
            "{:?}",
            cluster.loads()
        );
    }

    #[test]
    fn theorem4_style_ratio_stays_bounded() {
        // Adversarial pattern: half the processors only generate, half only
        // consume. Theorem 4: expected loads stay within
        // f²·δ/(δ+1−f)·(other + C).
        let params = Params::new(16, 4, 1.4, 4).unwrap();
        let mut cluster = Cluster::new(params, 31);
        let events: Vec<LoadEvent> = (0..16)
            .map(|i| {
                if i < 8 {
                    LoadEvent::Generate
                } else {
                    LoadEvent::Consume
                }
            })
            .collect();
        for _ in 0..1500 {
            cluster.step(&events);
        }
        cluster.check_invariants().unwrap();
        let loads = cluster.loads();
        let bounds = dlb_theory::TheoremBounds::for_params(params.algo());
        let min = *loads.iter().min().unwrap() as f64;
        let max = *loads.iter().max().unwrap() as f64;
        // Single-run slack over the expectation bound.
        assert!(
            max <= 3.0 * bounds.theorem4_upper(min, params.c_borrow()),
            "max {max}, min {min}, bound {}",
            bounds.theorem4_upper(min, params.c_borrow())
        );
    }

    #[test]
    fn tracing_does_not_change_behaviour_and_deltas_reconstruct_metrics() {
        let params = Params::paper_section7(8);
        let untraced = run_random(params, 77, 400, 0.45, 0.45);

        let mut traced = Cluster::new(params, 77);
        let buffer = dlb_trace::BufferSink::new();
        traced.set_trace_sink(buffer.handle());
        let mut rng = ChaCha8Rng::seed_from_u64(77 ^ 0xfeed);
        for _ in 0..400 {
            let events: Vec<LoadEvent> = (0..8)
                .map(|_| {
                    let x: f64 = rng.gen();
                    if x < 0.45 {
                        LoadEvent::Generate
                    } else if x < 0.9 {
                        LoadEvent::Consume
                    } else {
                        LoadEvent::Idle
                    }
                })
                .collect();
            traced.step(&events);
        }
        assert_eq!(traced.loads(), untraced.loads(), "tracing must be passive");
        assert_eq!(traced.metrics(), untraced.metrics());

        let events = buffer.take();
        let balances = events
            .iter()
            .filter(|e| matches!(e, dlb_trace::TraceEvent::BalanceInitiated { .. }))
            .count() as u64;
        assert_eq!(balances, traced.metrics().balance_ops);
        // Summing the per-step deltas reproduces the final Metrics.
        let mut replayed = Metrics::new();
        for ev in &events {
            if let dlb_trace::TraceEvent::StepDelta { counters, .. } = ev {
                for (name, inc) in counters {
                    let cur = replayed.get_field(name).expect("known counter");
                    replayed.set_field(name, cur + inc);
                }
            }
        }
        assert_eq!(&replayed, traced.metrics());
    }

    #[test]
    fn null_sink_emits_nothing_and_changes_nothing() {
        let params = Params::paper_section7(8);
        let plain = run_random(params, 13, 200, 0.5, 0.3).loads();
        let mut nulled = Cluster::new(params, 13);
        nulled.set_trace_sink(dlb_trace::SharedSink::new(dlb_trace::NullSink));
        let mut rng = ChaCha8Rng::seed_from_u64(13 ^ 0xfeed);
        for _ in 0..200 {
            let events: Vec<LoadEvent> = (0..8)
                .map(|_| {
                    let x: f64 = rng.gen();
                    if x < 0.5 {
                        LoadEvent::Generate
                    } else if x < 0.8 {
                        LoadEvent::Consume
                    } else {
                        LoadEvent::Idle
                    }
                })
                .collect();
            nulled.step(&events);
        }
        assert_eq!(nulled.loads(), plain);
    }

    #[test]
    fn state_bytes_scales_with_activity_not_n_squared() {
        // A lightly-loaded n=1024 cluster must cost orders of magnitude
        // less than the 2 * 8 * n² bytes the dense arenas would pay.
        let params = Params::new(1024, 2, 1.3, 4).unwrap();
        let mut cluster = Cluster::new(params, 5);
        let mut events = vec![LoadEvent::Idle; 1024];
        events[0] = LoadEvent::Generate;
        events[1] = LoadEvent::Generate;
        for _ in 0..200 {
            cluster.step(&events);
        }
        let dense_bytes = 2 * 8 * 1024 * 1024;
        let sparse_bytes = cluster.state_bytes();
        assert!(
            sparse_bytes * 10 < dense_bytes,
            "sparse {sparse_bytes} bytes vs dense {dense_bytes}"
        );
    }

    #[test]
    fn state_bytes_is_the_sum_of_its_components() {
        assert_eq!(std::mem::size_of::<Proc>(), 64);
        assert_eq!(
            std::mem::align_of::<Proc>(),
            64,
            "one record per cache line"
        );
        let params = Params::new(64, 2, 1.2, 4).unwrap();
        let mut cluster = run_random(params, 4, 200, 0.45, 0.4);
        let records = 64 * 64;
        let rows: usize = cluster
            .procs
            .iter()
            .map(|p| p.d.heap_bytes() + p.b.heap_bytes())
            .sum();
        let spilled = cluster
            .procs
            .iter()
            .filter(|p| p.d.is_spilled() || p.b.is_spilled())
            .count();
        assert!(spilled > 0 && rows > 0, "the run spilled some rows");
        let ledgers = 3 * 8 * 64;
        assert_eq!(cluster.state_bytes(), records + rows + ledgers);
        // Installing the load-summary tracker adds its map, once.
        cluster.load_summary();
        let tracker = cluster.summary.as_ref().unwrap().heap_bytes();
        assert!(tracker > 0);
        assert_eq!(cluster.state_bytes(), records + rows + ledgers + tracker);
        cluster.load_summary();
        assert_eq!(cluster.state_bytes(), records + rows + ledgers + tracker);
    }

    #[test]
    #[should_panic(expected = "one event per processor")]
    fn step_requires_full_event_vector() {
        let params = Params::paper_section7(4);
        let mut cluster = Cluster::new(params, 0);
        cluster.step(&[LoadEvent::Idle]);
    }

    fn random_events(rng: &mut ChaCha8Rng, n: usize, p_gen: f64, p_con: f64) -> Vec<LoadEvent> {
        (0..n)
            .map(|_| {
                let x: f64 = rng.gen();
                if x < p_gen {
                    LoadEvent::Generate
                } else if x < p_gen + p_con {
                    LoadEvent::Consume
                } else {
                    LoadEvent::Idle
                }
            })
            .collect()
    }

    #[test]
    fn step_sparse_is_bit_identical_to_dense_step() {
        let params = Params::paper_section7(16);
        for jobs in [1, 4] {
            let mut dense = Cluster::new(params, 5);
            dense.set_step_jobs(jobs);
            let mut sparse = Cluster::new(params, 5);
            sparse.set_step_jobs(jobs);
            let mut rng = ChaCha8Rng::seed_from_u64(99);
            for _ in 0..300 {
                let events = random_events(&mut rng, 16, 0.3, 0.3);
                let active: Vec<(usize, LoadEvent)> = events
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|&(_, e)| e != LoadEvent::Idle)
                    .collect();
                dense.step(&events);
                sparse.step_sparse(&active);
                assert_eq!(dense.loads(), sparse.loads(), "jobs={jobs}");
            }
            assert_eq!(dense.metrics(), sparse.metrics(), "jobs={jobs}");
            sparse.check_invariants().unwrap();
        }
    }

    #[test]
    fn step_sparse_masked_matches_dense_masked() {
        let params = Params::paper_section7(8);
        let mut dense = Cluster::new(params, 21);
        let mut sparse = Cluster::new(params, 21);
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        for t in 0..200usize {
            let events = random_events(&mut rng, 8, 0.4, 0.3);
            let down: Vec<bool> = (0..8).map(|i| (t / 20 + i) % 5 == 0).collect();
            let active: Vec<(usize, LoadEvent)> = events
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, e)| e != LoadEvent::Idle)
                .collect();
            dense.step_masked(&events, &down);
            sparse.step_sparse_masked(&active, &down);
            assert_eq!(dense.loads(), sparse.loads(), "step {t}");
        }
        assert_eq!(dense.metrics(), sparse.metrics());
    }

    #[test]
    fn load_summary_is_exact_mid_run() {
        let params = Params::paper_section7(8);
        for jobs in [1, 4] {
            let mut cluster = Cluster::new(params, 3);
            cluster.set_step_jobs(jobs);
            let mut rng = ChaCha8Rng::seed_from_u64(31);
            for _ in 0..300 {
                let events = random_events(&mut rng, 8, 0.45, 0.4);
                cluster.step(&events);
                let s = cluster.load_summary();
                let loads = cluster.loads();
                assert_eq!(s.min, *loads.iter().min().unwrap(), "jobs={jobs}");
                assert_eq!(s.max, *loads.iter().max().unwrap(), "jobs={jobs}");
                assert_eq!(s.total, loads.iter().sum::<u64>(), "jobs={jobs}");
            }
        }
    }

    #[test]
    fn querying_load_summary_does_not_change_behaviour() {
        let params = Params::paper_section7(8);
        let plain = run_random(params, 57, 300, 0.4, 0.4);
        let mut observed = Cluster::new(params, 57);
        let mut rng = ChaCha8Rng::seed_from_u64(57 ^ 0xfeed);
        for _ in 0..300 {
            let events = random_events(&mut rng, 8, 0.4, 0.4);
            observed.step(&events);
            observed.load_summary();
        }
        assert_eq!(observed.loads(), plain.loads());
        assert_eq!(observed.metrics(), plain.metrics());
    }

    #[test]
    #[should_panic(expected = "sorted by ascending")]
    fn step_sparse_rejects_unsorted_input() {
        let params = Params::paper_section7(4);
        let mut cluster = Cluster::new(params, 0);
        cluster.step_sparse(&[(2, LoadEvent::Generate), (1, LoadEvent::Generate)]);
    }
}
