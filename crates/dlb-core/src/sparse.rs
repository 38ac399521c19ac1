//! Compressed per-processor class state.
//!
//! The paper's virtual-class machinery is naturally sparse: at any moment
//! a processor holds packets (and markers) of few classes — its own plus
//! whatever balancing brought in — while the dense `d`/`b` matrices are
//! `n × n`.  A [`SparseRow`] stores one processor's row as a sorted list
//! of active class ids with parallel values, so a full-model cluster
//! costs O(Σ active classes) memory instead of O(n²) and every row
//! operation costs O(active) or O(log active) instead of O(n).  This is
//! what lets [`crate::Cluster`] simulate n = 2²⁰ processors; the
//! flat-arena engine it replaced is retained as
//! [`crate::dense::DenseCluster`] for bit-identity proptests at
//! overlapping sizes.
//!
//! The row is a 16-byte enum.  At large n almost every row holds zero or
//! one class (n = 2²⁰ ends the `million_sparse` run with 13,780 packets
//! on 1,048,576 processors), so the empty and single-class rows live
//! *inline* in the owning record and cost no heap access at all; only a
//! row holding two or more classes spills its keys and values to the
//! heap.  A removal (`sub`, `set` to zero, `take`) that leaves a spilled
//! row with at most one class moves it back inline and frees the
//! storage.  [`SparseRow::clear`] keeps it: clear-then-push is the
//! balance operation's rebuild primitive, and a row rebuilt on every
//! operation — the paper-scale n = 64 case, with up to 64 classes per
//! row — must reuse one allocation instead of re-spilling.
//!
//! Invariants (checked by [`SparseRow::check`], which
//! [`crate::Cluster::check_invariants`] runs on every row):
//!
//! * keys are strictly ascending;
//! * every value is positive — a value reaching zero removes its key, so
//!   the key list *is* the active-class set;
//! * keys and values have equal length.

/// One processor's sparse class row: sorted active class ids plus
/// parallel values.  Absent keys read as zero.  See the module docs for
/// the inline/spilled layout.
#[derive(Debug, Clone, Default)]
pub struct SparseRow(Repr);

#[derive(Debug, Clone, Default)]
enum Repr {
    /// No active class.
    #[default]
    Empty,
    /// Exactly one active class `(class, value)`, value positive.
    One(u32, u64),
    /// Heap storage: two or more classes, or any number right after
    /// [`SparseRow::clear`] (storage kept for the rebuild).
    Spilled(Box<Spill>),
}

/// A spilled row's storage.
#[derive(Debug, Clone, Default)]
struct Spill {
    /// Strictly ascending active class ids.
    keys: Vec<u32>,
    /// `vals[k]` is the value of class `keys[k]`; always positive.
    vals: Vec<u64>,
}

// The row is embedded twice in each processor's cache-line record.
const _: () = assert!(std::mem::size_of::<SparseRow>() == 16);

impl Spill {
    /// Storage holding the two entries `(a, x)` and `(b, y)`, `a < b`.
    fn pair(a: u32, x: u64, b: u32, y: u64) -> Box<Spill> {
        debug_assert!(a < b);
        Box::new(Spill {
            keys: vec![a, b],
            vals: vec![x, y],
        })
    }

    fn remove(&mut self, pos: usize) -> u64 {
        self.keys.remove(pos);
        self.vals.remove(pos)
    }

    /// The inline form of this storage, if it holds at most one class.
    fn inline(&self) -> Option<Repr> {
        match (self.keys.as_slice(), self.vals.as_slice()) {
            ([], []) => Some(Repr::Empty),
            (&[c], &[v]) => Some(Repr::One(c, v)),
            _ => None,
        }
    }

    fn insert(&mut self, pos: usize, c: u32, v: u64) {
        self.keys.insert(pos, c);
        self.vals.insert(pos, v);
    }
}

/// The spilled pair holding `(c, v)` and the inline entry `(k, w)`.
fn spill_two(k: u32, w: u64, c: u32, v: u64) -> Repr {
    Repr::Spilled(if k < c {
        Spill::pair(k, w, c, v)
    } else {
        Spill::pair(c, v, k, w)
    })
}

impl PartialEq for SparseRow {
    /// Rows are equal when they hold the same entries, however stored.
    fn eq(&self, other: &Self) -> bool {
        self.keys() == other.keys() && self.vals() == other.vals()
    }
}

impl Eq for SparseRow {}

impl SparseRow {
    /// An empty row (all classes zero).
    pub fn new() -> Self {
        SparseRow::default()
    }

    /// A row holding `v` units of class `c` (empty when `v == 0`).
    pub fn with_entry(c: u32, v: u64) -> Self {
        if v == 0 {
            SparseRow::default()
        } else {
            SparseRow(Repr::One(c, v))
        }
    }

    /// Number of active (nonzero) classes.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Empty => 0,
            Repr::One(..) => 1,
            Repr::Spilled(s) => s.keys.len(),
        }
    }

    /// Whether every class is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sorted active class ids.
    #[inline]
    pub fn keys(&self) -> &[u32] {
        match &self.0 {
            Repr::Empty => &[],
            Repr::One(c, _) => std::slice::from_ref(c),
            Repr::Spilled(s) => &s.keys,
        }
    }

    /// The values parallel to [`SparseRow::keys`].
    #[inline]
    pub fn vals(&self) -> &[u64] {
        match &self.0 {
            Repr::Empty => &[],
            Repr::One(_, v) => std::slice::from_ref(v),
            Repr::Spilled(s) => &s.vals,
        }
    }

    /// Entries in ascending class order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.keys().iter().copied().zip(self.vals().iter().copied())
    }

    /// The value of class `c` (zero when inactive).  O(log active).
    #[inline]
    pub fn get(&self, c: u32) -> u64 {
        match &self.0 {
            Repr::Empty => 0,
            Repr::One(k, v) => {
                if *k == c {
                    *v
                } else {
                    0
                }
            }
            Repr::Spilled(s) => match s.keys.binary_search(&c) {
                Ok(pos) => s.vals[pos],
                Err(_) => 0,
            },
        }
    }

    /// Adds `x > 0` units to class `c`, activating it if needed.
    #[inline]
    pub fn add(&mut self, c: u32, x: u64) {
        debug_assert!(x > 0);
        match &mut self.0 {
            Repr::Empty => self.0 = Repr::One(c, x),
            Repr::One(k, v) if *k == c => *v += x,
            Repr::One(k, v) => self.0 = spill_two(*k, *v, c, x),
            Repr::Spilled(s) => match s.keys.binary_search(&c) {
                Ok(pos) => s.vals[pos] += x,
                Err(pos) => s.insert(pos, c, x),
            },
        }
    }

    /// Removes `x` units from class `c`, deactivating it on zero.
    ///
    /// # Panics
    ///
    /// Panics if the class is inactive; in debug builds also if it
    /// holds fewer than `x` units.
    #[inline]
    pub fn sub(&mut self, c: u32, x: u64) {
        debug_assert!(x > 0);
        match &mut self.0 {
            Repr::One(k, v) if *k == c => {
                debug_assert!(*v >= x);
                *v -= x;
                if *v == 0 {
                    self.0 = Repr::Empty;
                }
            }
            Repr::Spilled(s) => {
                let pos = s
                    .keys
                    .binary_search(&c)
                    .expect("sub from an inactive class");
                debug_assert!(s.vals[pos] >= x);
                s.vals[pos] -= x;
                if s.vals[pos] == 0 {
                    s.remove(pos);
                    self.unspill();
                }
            }
            _ => panic!("sub from an inactive class"),
        }
    }

    /// Sets class `c` to `v`, activating or deactivating as needed.
    #[inline]
    pub fn set(&mut self, c: u32, v: u64) {
        match &mut self.0 {
            Repr::Empty => {
                if v > 0 {
                    self.0 = Repr::One(c, v);
                }
            }
            Repr::One(k, w) if *k == c => {
                if v == 0 {
                    self.0 = Repr::Empty;
                } else {
                    *w = v;
                }
            }
            Repr::One(k, w) => {
                if v > 0 {
                    self.0 = spill_two(*k, *w, c, v);
                }
            }
            Repr::Spilled(s) => match s.keys.binary_search(&c) {
                Ok(pos) => {
                    if v == 0 {
                        s.remove(pos);
                        self.unspill();
                    } else {
                        s.vals[pos] = v;
                    }
                }
                Err(pos) => {
                    if v > 0 {
                        s.insert(pos, c, v);
                    }
                }
            },
        }
    }

    /// Removes class `c` entirely, returning the units it held.
    #[inline]
    pub fn take(&mut self, c: u32) -> u64 {
        match &mut self.0 {
            Repr::One(k, v) if *k == c => {
                let v = *v;
                self.0 = Repr::Empty;
                v
            }
            Repr::Spilled(s) => match s.keys.binary_search(&c) {
                Ok(pos) => {
                    let v = s.remove(pos);
                    self.unspill();
                    v
                }
                Err(_) => 0,
            },
            _ => 0,
        }
    }

    /// Moves a spilled row holding at most one class back inline.
    #[inline]
    fn unspill(&mut self) {
        if let Repr::Spilled(s) = &self.0 {
            if let Some(inline) = s.inline() {
                self.0 = inline;
            }
        }
    }

    /// Deactivates every class (spilled storage retained for reuse).
    #[inline]
    pub fn clear(&mut self) {
        match &mut self.0 {
            Repr::Spilled(s) => {
                s.keys.clear();
                s.vals.clear();
            }
            _ => self.0 = Repr::Empty,
        }
    }

    /// Appends an entry with `v > 0`; `c` must exceed every present key.
    /// The O(1) rebuild primitive for balance write-backs that walk the
    /// classes in ascending order.
    #[inline]
    pub fn push(&mut self, c: u32, v: u64) {
        debug_assert!(v > 0);
        debug_assert!(self.keys().last().is_none_or(|&last| last < c));
        match &mut self.0 {
            Repr::Empty => self.0 = Repr::One(c, v),
            Repr::One(k, w) => self.0 = Repr::Spilled(Spill::pair(*k, *w, c, v)),
            Repr::Spilled(s) => {
                s.keys.push(c);
                s.vals.push(v);
            }
        }
    }

    /// Sum of all values.  O(active).
    pub fn sum(&self) -> u64 {
        self.vals().iter().sum()
    }

    /// Whether the row has spilled to heap storage.
    pub fn is_spilled(&self) -> bool {
        matches!(self.0, Repr::Spilled(_))
    }

    /// Heap bytes this row owns, at reserved capacity (what the process
    /// actually pays): zero for an inline row; the boxed storage header
    /// plus both arrays' capacity for a spilled one.
    pub fn heap_bytes(&self) -> usize {
        match &self.0 {
            Repr::Spilled(s) => {
                std::mem::size_of::<Spill>()
                    + s.keys.capacity() * std::mem::size_of::<u32>()
                    + s.vals.capacity() * std::mem::size_of::<u64>()
            }
            _ => 0,
        }
    }

    /// Verifies the structural invariants, returning the first violation.
    pub fn check(&self) -> Result<(), String> {
        let (keys, vals) = (self.keys(), self.vals());
        if keys.len() != vals.len() {
            return Err(format!(
                "key/value length mismatch: {} != {}",
                keys.len(),
                vals.len()
            ));
        }
        if !keys.windows(2).all(|w| w[0] < w[1]) {
            return Err("keys not strictly sorted".into());
        }
        if vals.contains(&0) {
            return Err("row holds a zero entry".into());
        }
        Ok(())
    }

    /// Densifies into a length-`n` vector (test/snapshot helper; O(n)).
    pub fn to_dense(&self, n: usize) -> Vec<u64> {
        let mut row = vec![0u64; n];
        for (c, v) in self.iter() {
            row[c as usize] = v;
        }
        row
    }
}

/// Number of keys present in `a` but absent from `b` (both sorted) — the
/// merge-walk core of the fresh-borrow candidate count, O(|a| + |b|).
pub fn count_diff(a: &[u32], b: &[u32]) -> usize {
    let mut count = 0;
    let mut bi = 0;
    for &k in a {
        while bi < b.len() && b[bi] < k {
            bi += 1;
        }
        if bi >= b.len() || b[bi] != k {
            count += 1;
        }
    }
    count
}

/// The `pick`-th key (ascending) present in `a` but absent from `b`.
pub fn nth_diff(a: &[u32], b: &[u32], pick: usize) -> Option<u32> {
    let mut seen = 0;
    let mut bi = 0;
    for &k in a {
        while bi < b.len() && b[bi] < k {
            bi += 1;
        }
        if bi >= b.len() || b[bi] != k {
            if seen == pick {
                return Some(k);
            }
            seen += 1;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_set_roundtrip() {
        let mut row = SparseRow::new();
        row.add(5, 3);
        row.add(2, 1);
        row.add(5, 2);
        assert_eq!(row.get(5), 5);
        assert_eq!(row.get(2), 1);
        assert_eq!(row.get(7), 0);
        assert_eq!(row.keys(), &[2, 5]);
        row.sub(5, 5);
        assert_eq!(row.get(5), 0);
        assert_eq!(row.keys(), &[2]);
        row.set(9, 4);
        row.set(2, 0);
        assert_eq!(row.keys(), &[9]);
        assert_eq!(row.sum(), 4);
        row.check().unwrap();
    }

    #[test]
    fn take_and_push_maintain_order() {
        let mut row = SparseRow::with_entry(3, 7);
        assert_eq!(row.take(3), 7);
        assert_eq!(row.take(3), 0);
        row.push(1, 2);
        row.push(8, 1);
        assert_eq!(row.to_dense(10), vec![0, 2, 0, 0, 0, 0, 0, 0, 1, 0]);
        row.check().unwrap();
        row.clear();
        assert!(row.is_empty());
    }

    #[test]
    fn diff_walks_match_naive_filter() {
        let a = [1u32, 3, 4, 8, 9];
        let b = [3u32, 5, 9];
        let naive: Vec<u32> = a.iter().copied().filter(|k| !b.contains(k)).collect();
        assert_eq!(count_diff(&a, &b), naive.len());
        for (i, &k) in naive.iter().enumerate() {
            assert_eq!(nth_diff(&a, &b, i), Some(k));
        }
        assert_eq!(nth_diff(&a, &b, naive.len()), None);
        assert_eq!(count_diff(&[], &b), 0);
        assert_eq!(count_diff(&a, &[]), a.len());
    }

    #[test]
    fn dense_conversion_and_zero_entry() {
        let row = SparseRow::with_entry(0, 0);
        assert!(row.is_empty());
        let row = SparseRow::with_entry(2, 9);
        assert_eq!(row.to_dense(3), vec![0, 0, 9]);
        assert_eq!(row.heap_bytes(), 0, "one class stays inline");
    }

    #[test]
    fn spill_keeps_storage_and_counts_capacity() {
        let mut row = SparseRow::with_entry(7, 1);
        assert!(!row.is_spilled());
        row.add(3, 2);
        assert!(row.is_spilled());
        assert_eq!(row.keys(), &[3, 7]);
        let spilled = row.heap_bytes();
        assert!(spilled >= std::mem::size_of::<Spill>() + 2 * 4 + 2 * 8);
        row.clear();
        assert!(row.is_spilled() && row.is_empty());
        assert_eq!(row.heap_bytes(), spilled, "clear retains capacity");
        row.push(1, 5);
        assert_eq!(row, SparseRow::with_entry(1, 5), "equality ignores storage");
        row.push(4, 1);
        row.sub(4, 1);
        assert!(!row.is_spilled(), "a removal down to one class unspills");
        assert_eq!(row.heap_bytes(), 0);
        assert_eq!(row.keys(), &[1]);
    }
}
