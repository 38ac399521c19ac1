//! The flat-arena (dense) engine for the full algorithm, retained as the
//! equivalence oracle for the sparse [`crate::Cluster`].
//!
//! This is the PR 4–6 engine verbatim: `d`/`b` live in flat row-major
//! n×n arenas with sorted active-class lists alongside, so class scans
//! cost O(active) but memory costs O(n²) — which caps it near n = 4096.
//! [`crate::Cluster`] replaces the arenas with compressed per-processor
//! rows ([`crate::sparse::SparseRow`]) and must stay *bit identical* to
//! this engine: same RNG consumption, same loads, metrics and trace
//! events (enforced by the `sparse_equivalence` proptests and the
//! benchmark fingerprint cross-checks at overlapping n).  The naive
//! per-struct reference oracle is [`crate::reference`]; this engine sits
//! between it and the sparse one in the equivalence chain and keeps the
//! wave executor, so `step_jobs` identity is cross-checked on both
//! representations.
//!
//! Algorithm documentation lives on [`crate::cluster`]; this file
//! intentionally mirrors its structure line for line so diffs between
//! the two engines stay reviewable.

use crate::balance::{
    distribute_capped_into, distribute_classes_flat_with, even_shares_into, moved, MAX_GROUP,
};
use crate::metrics::Metrics;
use crate::params::{ExchangePolicy, Params};
use crate::strategy::{check_sparse_events, LoadBalancer, LoadEvent, LoadSummary};
use dlb_pool::par_map;
use dlb_trace::{SharedSink, TraceEvent};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Inserts `v` into a sorted list if absent.
#[inline]
fn insert_sorted(list: &mut Vec<u32>, v: u32) {
    if let Err(pos) = list.binary_search(&v) {
        list.insert(pos, v);
    }
}

/// Removes `v` from a sorted list if present.
#[inline]
fn remove_sorted(list: &mut Vec<u32>, v: u32) {
    if let Ok(pos) = list.binary_search(&v) {
        list.remove(pos);
    }
}

/// Merges sorted `src` into sorted `dst` (set union) using `buf` as
/// scratch.  Linear in `dst.len() + src.len()`.
fn merge_sorted_into(dst: &mut Vec<u32>, src: &[u32], buf: &mut Vec<u32>) {
    if src.is_empty() {
        return;
    }
    if dst.is_empty() {
        dst.extend_from_slice(src);
        return;
    }
    buf.clear();
    let (mut a, mut b) = (0usize, 0usize);
    while a < dst.len() && b < src.len() {
        match dst[a].cmp(&src[b]) {
            std::cmp::Ordering::Less => {
                buf.push(dst[a]);
                a += 1;
            }
            std::cmp::Ordering::Greater => {
                buf.push(src[b]);
                b += 1;
            }
            std::cmp::Ordering::Equal => {
                buf.push(dst[a]);
                a += 1;
                b += 1;
            }
        }
    }
    buf.extend_from_slice(&dst[a..]);
    buf.extend_from_slice(&src[b..]);
    std::mem::swap(dst, buf);
}

/// Scratch buffers for executing one full balance operation.  Each
/// executing thread owns a set (thread-local on pool workers), so the
/// parallel wave path stays as allocation-free as the sequential one in
/// steady state.
#[derive(Default)]
struct BalanceScratch {
    totals_d: Vec<u64>,
    totals_b: Vec<u64>,
    shares_d: Vec<u64>,
    shares_b: Vec<u64>,
    union: Vec<u32>,
    merge: Vec<u32>,
    order: Vec<usize>,
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

/// Raw per-processor view of the state a balance operation touches.
///
/// Operations within one wave have pairwise-disjoint member sets (the
/// wave planner in [`DenseCluster::flush_pending`] enforces it), so
/// concurrent executors write disjoint arena rows, active lists and
/// per-processor entries — which is what makes the `Send`/`Sync` impls
/// sound.
struct ArenaView {
    n: usize,
    d: *mut u64,
    b: *mut u64,
    load: *mut u64,
    sum_b: *mut u64,
    l_old: *mut u64,
    active_d: *mut Vec<u32>,
    active_b: *mut Vec<u32>,
    settled: *mut u64,
}

unsafe impl Send for ArenaView {}
unsafe impl Sync for ArenaView {}

/// Executes one full balancing operation over `members` (initiator
/// first) through the raw view: the body of the appendix's equalisation,
/// hoisted out of [`DenseCluster::full_balance`] so the sequential path and
/// the wave executor share one implementation and cannot drift apart.
/// Consumes no RNG and emits nothing — it returns an [`OpOutcome`] the
/// caller folds in trigger order.
///
/// # Safety
///
/// No other thread may concurrently touch any state of the processors
/// in `members` (guaranteed by the conflict-free wave partition).
unsafe fn execute_full_balance(
    view: &ArenaView,
    members: &[usize],
    tracing: bool,
    s: &mut BalanceScratch,
) -> OpOutcome {
    let n = view.n;
    let m = members.len();
    let initiator = members[0];
    // The f-factor ratio that fired the trigger.  The initiator's row is
    // untouched between draw and execution (a queued operation involving
    // it would have been flushed before its event was processed), so
    // this read equals the draw-time value.
    let trigger = if tracing {
        *view.d.add(initiator * n + initiator) as f64 / (*view.l_old.add(initiator)).max(1) as f64
    } else {
        0.0
    };
    // Only the union of the members' active classes is balanced: for
    // every other class all members hold zero, which the snake
    // distribution maps to zero shares without touching the running
    // totals — bit-identical to the reference's dense 0..n sweep.
    s.union.clear();
    for &mm in members {
        merge_sorted_into(&mut s.union, &*view.active_d.add(mm), &mut s.merge);
        merge_sorted_into(&mut s.union, &*view.active_b.add(mm), &mut s.merge);
    }
    s.totals_d.clear();
    s.totals_b.clear();
    for &c in &s.union {
        let c = c as usize;
        s.totals_d
            .push(members.iter().map(|&mm| *view.d.add(mm * n + c)).sum());
        s.totals_b
            .push(members.iter().map(|&mm| *view.b.add(mm * n + c)).sum());
    }
    let mut run_d = [0u64; MAX_GROUP];
    let mut run_b = [0u64; MAX_GROUP];
    assert!(m <= MAX_GROUP, "group size bounded by the stack scratch");
    let (run_d, run_b) = (&mut run_d[..m], &mut run_b[..m]);
    distribute_classes_flat_with(&s.totals_d, m, run_d, &mut s.shares_d, &mut s.order);
    distribute_classes_flat_with(&s.totals_b, m, run_b, &mut s.shares_b, &mut s.order);

    // Packets are fungible (§2: any packet can be consumed by any
    // processor), so only the *net* load difference moves physically;
    // the per-class matrices are bookkeeping carried by the control
    // messages.  Markers are bookkeeping only.
    let mut op_packets = 0u64;
    for (si, &mm) in members.iter().enumerate() {
        op_packets += (*view.load.add(mm)).saturating_sub(run_d[si]);
    }
    let mut op_markers = 0u64;
    for (ci, &c) in s.union.iter().enumerate() {
        let row = &s.shares_b[ci * m..(ci + 1) * m];
        let c = c as usize;
        for (si, &mm) in members.iter().enumerate() {
            op_markers += (*view.b.add(mm * n + c)).saturating_sub(row[si]);
        }
    }
    for (si, &mm) in members.iter().enumerate() {
        // Every member's previously-active classes are in the union,
        // so writing the union's shares (and rebuilding the active
        // lists from the nonzero ones) covers the full row.
        let ad = &mut *view.active_d.add(mm);
        ad.clear();
        let ab = &mut *view.active_b.add(mm);
        ab.clear();
        for (ci, &c) in s.union.iter().enumerate() {
            let vd = s.shares_d[ci * m + si];
            *view.d.add(mm * n + c as usize) = vd;
            if vd > 0 {
                ad.push(c);
            }
            let vb = s.shares_b[ci * m + si];
            *view.b.add(mm * n + c as usize) = vb;
            if vb > 0 {
                ab.push(c);
            }
        }
        *view.load.add(mm) = run_d[si];
        *view.sum_b.add(mm) = run_b[si];
    }
    // Every participant counts this as a balancing of its own class
    // (§4: a group balance acts like δ + 1 self-initiated balances):
    // home markers annihilate and l_old resets.
    let mut home_settled = 0u64;
    for &mm in members {
        let cell = view.b.add(mm * n + mm);
        let k = *cell;
        if k > 0 {
            *cell = 0;
            remove_sorted(&mut *view.active_b.add(mm), mm as u32);
            *view.sum_b.add(mm) -= k;
            *view.settled.add(mm) += k;
            home_settled += k;
        }
        *view.l_old.add(mm) = *view.d.add(mm * n + mm);
    }
    OpOutcome {
        trigger,
        op_packets,
        op_markers,
        home_settled,
    }
}

/// The full virtual-load-class algorithm on `n` processors.
///
/// Deterministic: all randomness (partner choice, class choice) comes from
/// a seeded ChaCha stream.
pub struct DenseCluster {
    params: Params,
    /// Cached `params.n()`.
    n: usize,
    /// Flat row-major `d_{i,j}` arena: `d[i * n + j]`.
    d: Vec<u64>,
    /// Flat row-major `b_{i,j}` arena.
    b: Vec<u64>,
    /// Cached real loads `Σ_j d_{i,j}`.
    load: Vec<u64>,
    /// Cached marker counts `Σ_j b_{i,j}`.
    sum_b: Vec<u64>,
    /// Self-generated load `d_{i,i}` at the last balancing participation.
    l_old: Vec<u64>,
    /// Sorted classes `j` with `d_{i,j} > 0`, per processor.
    active_d: Vec<Vec<u32>>,
    /// Sorted classes `j` with `b_{i,j} > 0`, per processor.
    active_b: Vec<Vec<u32>>,
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
    /// Per-processor flag: member of some queued operation.
    pending_member: Vec<bool>,
    /// Wave-planning scratch: 1 + index of the last wave touching a
    /// processor (zeroed outside [`DenseCluster::flush_pending`]).
    wave_mark: Vec<u32>,
    /// Balance scratch for the sequential/eager execution path (wave
    /// workers use a thread-local set instead).
    scratch_wave: BalanceScratch,
    scratch_wave_of: Vec<u32>,
    scratch_wave_ops: Vec<usize>,
    scratch_outcomes: Vec<OpOutcome>,
}

impl DenseCluster {
    /// An empty cluster (all loads zero).
    pub fn new(params: Params, seed: u64) -> Self {
        Self::with_initial_load(params, seed, 0)
    }

    /// A cluster where every processor starts with `initial` self-generated
    /// packets (a *balanced state* in the sense of Theorems 1–4).
    pub fn with_initial_load(params: Params, seed: u64, initial: u64) -> Self {
        let n = params.n();
        let mut d = vec![0u64; n * n];
        let mut active_d = Vec::with_capacity(n);
        for i in 0..n {
            d[i * n + i] = initial;
            active_d.push(if initial > 0 {
                vec![i as u32]
            } else {
                Vec::new()
            });
        }
        DenseCluster {
            params,
            n,
            d,
            b: vec![0u64; n * n],
            load: vec![initial; n],
            sum_b: vec![0; n],
            l_old: vec![initial; n],
            active_d,
            active_b: vec![Vec::new(); n],
            rng: ChaCha8Rng::seed_from_u64(seed),
            metrics: Metrics::new(),
            fresh_generated: vec![initial; n],
            direct_consumed: vec![0; n],
            settled: vec![0; n],
            initial_total: initial * n as u64,
            scratch_members: Vec::new(),
            scratch_partners: Vec::new(),
            scratch_group: Vec::new(),
            scratch_sample: Vec::new(),
            scratch_before_d: Vec::new(),
            scratch_before_b: Vec::new(),
            scratch_caps: Vec::new(),
            scratch_new_d: Vec::new(),
            scratch_new_b: Vec::new(),
            sink: None,
            step_no: 0,
            step_jobs: 1,
            wave_threshold: crate::strategy::DEFAULT_WAVE_THRESHOLD,
            eager: false,
            pending_members: Vec::new(),
            pending_member: vec![false; n],
            wave_mark: vec![0; n],
            scratch_wave: BalanceScratch::default(),
            scratch_wave_of: Vec::new(),
            scratch_wave_ops: Vec::new(),
            scratch_outcomes: Vec::new(),
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
        self.load[i]
    }

    /// Virtual load of processor `i` (real packets plus borrowed markers),
    /// the quantity `l_i = Σ_j (d_{i,j} + b_{i,j})` of Theorem 4's proof.
    pub fn virtual_load(&self, i: usize) -> u64 {
        self.load[i] + self.sum_b[i]
    }

    /// Virtual class-`c` load on processor `i`: `d_{i,c} + b_{i,c}`.
    pub fn class_load(&self, i: usize, c: usize) -> u64 {
        self.d[i * self.n + c] + self.b[i * self.n + c]
    }

    /// `d_{i,c}`: real class-`c` packets on processor `i`.
    pub fn d(&self, i: usize, c: usize) -> u64 {
        self.d[i * self.n + c]
    }

    /// `b_{i,c}`: class-`c` markers on processor `i`.
    pub fn b(&self, i: usize, c: usize) -> u64 {
        self.b[i * self.n + c]
    }

    /// Adds `x > 0` class-`c` packets to `i`, maintaining the active list.
    #[inline]
    fn add_d(&mut self, i: usize, c: usize, x: u64) {
        let cell = &mut self.d[i * self.n + c];
        if *cell == 0 {
            insert_sorted(&mut self.active_d[i], c as u32);
        }
        *cell += x;
    }

    /// Removes `x > 0` class-`c` packets from `i`.
    #[inline]
    fn sub_d(&mut self, i: usize, c: usize, x: u64) {
        let cell = &mut self.d[i * self.n + c];
        *cell -= x;
        if *cell == 0 {
            remove_sorted(&mut self.active_d[i], c as u32);
        }
    }

    /// Adds `x > 0` class-`c` markers to `i`.
    #[inline]
    fn add_b(&mut self, i: usize, c: usize, x: u64) {
        let cell = &mut self.b[i * self.n + c];
        if *cell == 0 {
            insert_sorted(&mut self.active_b[i], c as u32);
        }
        *cell += x;
    }

    /// Removes `x > 0` class-`c` markers from `i`.
    #[inline]
    fn sub_b(&mut self, i: usize, c: usize, x: u64) {
        let cell = &mut self.b[i * self.n + c];
        *cell -= x;
        if *cell == 0 {
            remove_sorted(&mut self.active_b[i], c as u32);
        }
    }

    /// Verifies every structural invariant of the algorithm — including
    /// consistency of the active-class lists with the arenas — and returns
    /// a description of the first violation.  Used extensively in tests —
    /// `O(n²)`, so not called from the hot path.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.n;
        let c_borrow = self.params.c_borrow() as u64;
        for i in 0..n {
            let row_d = &self.d[i * n..(i + 1) * n];
            let row_b = &self.b[i * n..(i + 1) * n];
            let sum_d: u64 = row_d.iter().sum();
            if sum_d != self.load[i] {
                return Err(format!(
                    "proc {i}: load cache {} != sum(d) {sum_d}",
                    self.load[i]
                ));
            }
            let sum_b: u64 = row_b.iter().sum();
            if sum_b != self.sum_b[i] {
                return Err(format!(
                    "proc {i}: marker cache {} != sum(b) {sum_b}",
                    self.sum_b[i]
                ));
            }
            if self.sum_b[i] > c_borrow {
                return Err(format!(
                    "proc {i}: {} markers exceed C = {c_borrow}",
                    self.sum_b[i]
                ));
            }
            for (label, list, row) in [
                ("active_d", &self.active_d[i], row_d),
                ("active_b", &self.active_b[i], row_b),
            ] {
                if !list.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("proc {i}: {label} not strictly sorted"));
                }
                if list.iter().any(|&c| row[c as usize] == 0) {
                    return Err(format!("proc {i}: {label} lists a zero entry"));
                }
                let nonzero = row.iter().filter(|&&v| v > 0).count();
                if nonzero != list.len() {
                    return Err(format!(
                        "proc {i}: {label} tracks {} classes, arena has {nonzero}",
                        list.len()
                    ));
                }
            }
        }
        for c in 0..n {
            let virt: u64 = (0..n).map(|i| self.d[i * n + c] + self.b[i * n + c]).sum();
            let expect = self.fresh_generated[c]
                .checked_sub(self.direct_consumed[c] + self.settled[c])
                .ok_or_else(|| format!("class {c}: ledger went negative"))?;
            if virt != expect {
                return Err(format!(
                    "class {c}: virtual load {virt} != fresh {} - consumed {} - settled {}",
                    self.fresh_generated[c], self.direct_consumed[c], self.settled[c]
                ));
            }
        }
        let total: u64 = self.load.iter().sum();
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
        if self.sum_b[i] > 0 {
            // Repay a marker: the new packet takes the identity of a
            // borrowed class, restoring its real packet.  Uniform over the
            // marked classes = uniform index into the sorted active list
            // (ascending order matches the reference's nth-match scan).
            let pick = self.rng.gen_range(0..self.active_b[i].len());
            let j = self.active_b[i][pick] as usize;
            self.sub_b(i, j, 1);
            self.sum_b[i] -= 1;
            self.add_d(i, j, 1);
            self.load[i] += 1;
        } else {
            self.add_d(i, i, 1);
            self.load[i] += 1;
            self.fresh_generated[i] += 1;
            self.trigger_check(i);
        }
    }

    fn consume(&mut self, i: usize) {
        if self.load[i] == 0 {
            self.metrics.consume_blocked += 1;
            return;
        }
        if self.d[i * self.n + i] > 0 {
            self.sub_d(i, i, 1);
            self.load[i] -= 1;
            self.direct_consumed[i] += 1;
            self.metrics.consumed += 1;
            self.trigger_check(i);
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

    /// The §4 settlement retry loop of [`DenseCluster::consume`].  Every
    /// settlement attempt either frees a marker slot or hands `i` a
    /// borrowable (or own-class) packet, so C + 2 attempts always
    /// suffice; the bound is a safety net, with failures counted.
    fn consume_slow(&mut self, i: usize) {
        let max_attempts = self.params.c_borrow() + 2;
        for _ in 0..max_attempts.max(4) {
            if self.load[i] == 0 {
                // Settlement operations may have drained the processor.
                self.metrics.consume_blocked += 1;
                return;
            }
            if self.d[i * self.n + i] > 0 {
                // Settlement balancing brought some of i's own packets home
                // (§4: "... or has received some of his own load packets").
                self.sub_d(i, i, 1);
                self.load[i] -= 1;
                self.direct_consumed[i] += 1;
                self.metrics.consumed += 1;
                self.trigger_check(i);
                return;
            }
            if (self.sum_b[i] as usize) < self.params.c_borrow() {
                if let Some(j) = self.random_borrowable_class(i) {
                    self.add_b(i, j, 1);
                    self.sum_b[i] += 1;
                    self.sub_d(i, j, 1);
                    self.load[i] -= 1;
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
            if self.d[j * self.n + j] > 0 {
                self.exchange(i, j);
            } else {
                self.reduce_borrow(i, j);
            }
        }
        self.metrics.consume_failed += 1;
    }

    /// Picks a uniformly random class `j` of `i` with `d_{i,j} > 0` and
    /// `b_{i,j} = 0` (a fresh borrow candidate).  Scans the active-`d`
    /// list in ascending class order, exactly like the reference's dense
    /// filter-then-nth scan, so RNG consumption is identical.
    fn random_borrowable_class(&mut self, i: usize) -> Option<usize> {
        let row_b = &self.b[i * self.n..(i + 1) * self.n];
        let count = self.active_d[i]
            .iter()
            .filter(|&&j| row_b[j as usize] == 0)
            .count();
        if count == 0 {
            return None;
        }
        let pick = self.rng.gen_range(0..count);
        let row_b = &self.b[i * self.n..(i + 1) * self.n];
        self.active_d[i]
            .iter()
            .filter(|&&j| row_b[j as usize] == 0)
            .nth(pick)
            .map(|&j| j as usize)
    }

    /// Picks a uniformly random class `j` of `i` with `b_{i,j} > 0`.
    fn random_marker_class(&mut self, i: usize) -> Option<usize> {
        if self.active_b[i].is_empty() {
            return None;
        }
        let pick = self.rng.gen_range(0..self.active_b[i].len());
        Some(self.active_b[i][pick] as usize)
    }

    /// §4 exchange: settle markers held by `i` against real class-`j`
    /// packets still owned by the generator `j`, then let `j` simulate the
    /// corresponding workload decrease.
    fn exchange(&mut self, i: usize, j: usize) {
        debug_assert_ne!(i, j);
        let available = self.d[j * self.n + j];
        let x = match self.params.exchange() {
            ExchangePolicy::Strict => available.min(self.b[i * self.n + j]),
            ExchangePolicy::Aggressive => available.min(self.sum_b[i]),
        };
        if x == 0 {
            return;
        }
        self.metrics.remote_borrow += 1;
        // x real class-j packets migrate j -> i ...
        self.sub_d(j, j, x);
        self.load[j] -= x;
        self.add_d(i, j, x);
        self.load[i] += x;
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
        let own = self.b[i * self.n + j].min(remaining);
        if own > 0 {
            self.sub_b(i, j, own);
            self.sum_b[i] -= own;
            self.settled[j] += own;
            remaining -= own;
        }
        while remaining > 0 {
            // Aggressive policy: spill into markers of other classes, in
            // ascending class order (the reference's 0..n scan) — i.e.
            // drain the front of the sorted active list.
            debug_assert!(!self.active_b[i].is_empty(), "sum_b guarantees markers");
            let k = self.active_b[i][0] as usize;
            let take = self.b[i * self.n + k].min(remaining);
            self.sub_b(i, k, take);
            self.sum_b[i] -= take;
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
        debug_assert_eq!(self.d[j * self.n + j], 0);
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
                .any(|&k| self.d[k * self.n + j] > 0 || self.b[k * self.n + j] == 0)
                || self.d[i * self.n + j] > 0;
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
        if self.d[j * self.n + j] > 0 && self.b[i * self.n + j] > 0 {
            self.exchange(i, j);
        } else if self.b[i * self.n + j] > 0 {
            // Guaranteed progress (§4: "the borrowed packet on processor i
            // has migrated to processor j where it is also consumed"): one
            // marker moves home and annihilates.  Without this the
            // capacity-capped class balances can shuffle markers without
            // ever relieving i.
            self.sub_b(i, j, 1);
            self.sum_b[i] -= 1;
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
        before_d.extend(members.iter().map(|&mm| self.d[mm * self.n + c]));
        before_b.clear();
        before_b.extend(members.iter().map(|&mm| self.b[mm * self.n + c]));
        let total_d: u64 = before_d.iter().sum();
        let total_b: u64 = before_b.iter().sum();
        // A single class over zeroed running totals degenerates to the
        // plain even split (extras go to the lowest slots first).
        even_shares_into(total_d, m, &mut new_d);
        // Markers must respect the borrow limit C per processor, counting
        // the markers of *other* classes each member already holds.
        caps.clear();
        caps.extend(members.iter().zip(before_b.iter()).map(|(&mm, &own)| {
            (self.params.c_borrow() as u64).saturating_sub(self.sum_b[mm] - own)
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
            self.load[mm] = self.load[mm] + new_d[s] - before_d[s];
            self.set_d(mm, c, new_d[s]);
            self.sum_b[mm] = self.sum_b[mm] + new_b[s] - before_b[s];
            self.set_b(mm, c, new_b[s]);
        }
        self.scratch_before_d = before_d;
        self.scratch_before_b = before_b;
        self.scratch_caps = caps;
        self.scratch_new_d = new_d;
        self.scratch_new_b = new_b;
    }

    /// Absolute store into the `d` arena, maintaining the active list.
    #[inline]
    fn set_d(&mut self, i: usize, c: usize, v: u64) {
        let cell = &mut self.d[i * self.n + c];
        let old = *cell;
        if old == v {
            return;
        }
        *cell = v;
        if old == 0 {
            insert_sorted(&mut self.active_d[i], c as u32);
        } else if v == 0 {
            remove_sorted(&mut self.active_d[i], c as u32);
        }
    }

    /// Absolute store into the `b` arena, maintaining the active list.
    #[inline]
    fn set_b(&mut self, i: usize, c: usize, v: u64) {
        let cell = &mut self.b[i * self.n + c];
        let old = *cell;
        if old == v {
            return;
        }
        *cell = v;
        if old == 0 {
            insert_sorted(&mut self.active_b[i], c as u32);
        } else if v == 0 {
            remove_sorted(&mut self.active_b[i], c as u32);
        }
    }

    /// Markers of class `m` residing on processor `m` annihilate: the
    /// earlier foreign consumption of `m`'s packets is finally accounted
    /// to `m`'s own load class.
    fn settle_home_markers(&mut self, m: usize) {
        let k = self.b[m * self.n + m];
        if k > 0 {
            self.sub_b(m, m, k);
            self.sum_b[m] -= k;
            self.settled[m] += k;
            self.metrics.markers_settled += k;
        }
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
        let cur = self.d[i * self.n + i];
        let last = self.l_old[i];
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
    /// (see [`DenseCluster::flush_pending`]).  Everything after the draw
    /// touches only the δ + 1 members' state, so member-disjoint
    /// operations commute bit-exactly and deferral is invisible.
    /// Sequential mode and settlement-path balances (`eager`) execute
    /// immediately through the same [`execute_full_balance`] body.
    fn full_balance(&mut self, initiator: usize) {
        let mut partners = std::mem::take(&mut self.scratch_partners);
        self.sample_partners_into(initiator, &mut partners);
        if self.step_jobs > 1 && !self.eager {
            self.pending_members.push(initiator);
            self.pending_member[initiator] = true;
            for &p in &partners {
                self.pending_members.push(p);
                self.pending_member[p] = true;
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
        let out = {
            let view = self.arena_view();
            unsafe { execute_full_balance(&view, &members, tracing, &mut scratch) }
        };
        self.scratch_wave = scratch;
        self.fold_outcome(&members, out, tracing);
        members.clear();
        self.scratch_members = members;
    }

    /// Raw pointers into the per-processor state balance operations
    /// mutate.  Valid until the next access through `&mut self`; during
    /// wave execution the cluster is only touched through the view.
    fn arena_view(&mut self) -> ArenaView {
        ArenaView {
            n: self.n,
            d: self.d.as_mut_ptr(),
            b: self.b.as_mut_ptr(),
            load: self.load.as_mut_ptr(),
            sum_b: self.sum_b.as_mut_ptr(),
            l_old: self.l_old.as_mut_ptr(),
            active_d: self.active_d.as_mut_ptr(),
            active_b: self.active_b.as_mut_ptr(),
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
        for &p in &pending {
            self.pending_member[p] = false;
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
                    .map(|&mm| self.wave_mark[mm])
                    .max()
                    .unwrap_or(0);
                for &mm in members {
                    self.wave_mark[mm] = w + 1;
                }
                wave_of.push(w);
                waves = waves.max(w + 1);
            }
            for &p in &pending {
                self.wave_mark[p] = 0;
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
                    WAVE_SCRATCH.with(|s| unsafe {
                        execute_full_balance(view, members, tracing, &mut s.borrow_mut())
                    })
                });
                for (i, out) in results.into_iter().enumerate() {
                    outcomes[wave_ops[i]] = out;
                }
            }
        }
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
    /// pairs in ascending order, then settles the step.  An idle
    /// processor reads nothing, writes nothing and consumes no
    /// randomness in the dense loop, so the sparse path — which simply
    /// never yields idle pairs — is bit-identical by construction.
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
            if self.pending_member[i] && !matches!(ev, LoadEvent::Idle) {
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

impl LoadBalancer for DenseCluster {
    fn n(&self) -> usize {
        self.n
    }

    fn loads(&self) -> Vec<u64> {
        self.load.clone()
    }

    fn loads_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.load);
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
        // The dense engine caps out near n = 4096 (O(n²) arenas), where
        // a plain scan is already cheap — no lazy heaps needed.
        LoadSummary::from_loads(&self.load)
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn name(&self) -> &'static str {
        "spaa93-full-dense"
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

    fn run_random(params: Params, seed: u64, steps: usize, p_gen: f64, p_con: f64) -> DenseCluster {
        let mut cluster = DenseCluster::new(params, seed);
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

    // The exhaustive behavioural suite lives on the sparse `Cluster`
    // (crate::cluster::tests) and the cross-engine proptests in
    // tests/sparse_equivalence.rs; here only the dense engine's own
    // invariants and its wave executor are smoke-checked.

    #[test]
    fn mixed_workload_keeps_all_invariants() {
        for seed in 0..3 {
            let params = Params::paper_section7(16);
            let cluster = run_random(params, seed, 400, 0.45, 0.45);
            cluster.check_invariants().unwrap();
            assert_eq!(cluster.metrics().consume_failed, 0, "seed {seed}");
        }
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
    fn step_jobs_is_bit_identical_to_sequential() {
        let params = Params::paper_section7(16);
        let seq = run_random(params, 91, 300, 0.45, 0.45);
        for jobs in [2, 4] {
            let mut par = DenseCluster::new(params, 91);
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
    fn deterministic_for_fixed_seed() {
        let params = Params::paper_section7(8);
        let a = run_random(params, 42, 300, 0.5, 0.3).loads();
        let b = run_random(params, 42, 300, 0.5, 0.3).loads();
        assert_eq!(a, b);
    }

    #[test]
    fn step_sparse_is_bit_identical_to_dense_step() {
        let params = Params::paper_section7(16);
        let mut dense = DenseCluster::new(params, 5);
        let mut sparse = DenseCluster::new(params, 5);
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for t in 0..300usize {
            let events: Vec<LoadEvent> = (0..16)
                .map(|_| {
                    let x: f64 = rng.gen();
                    if x < 0.3 {
                        LoadEvent::Generate
                    } else if x < 0.6 {
                        LoadEvent::Consume
                    } else {
                        LoadEvent::Idle
                    }
                })
                .collect();
            let active: Vec<(usize, LoadEvent)> = events
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, e)| e != LoadEvent::Idle)
                .collect();
            dense.step(&events);
            sparse.step_sparse(&active);
            assert_eq!(dense.loads(), sparse.loads(), "step {t}");
        }
        assert_eq!(dense.metrics(), sparse.metrics());
        sparse.check_invariants().unwrap();
    }
}
