//! Exact min/max over a load vector, kept as a count per distinct load.
//!
//! Per-step observers (the CLI recorder, `LoadSample` trace rows) need
//! only min/max/total, but [`crate::strategy::LoadBalancer::loads`]
//! hands them an O(n) clone per step — at n ≥ 2¹⁸ the observer would
//! dominate the simulation.  The tracker instead holds the multiset of
//! current loads as an ordered map `load → number of processors with
//! that load`; min and max are its first and last keys.
//!
//! The engine reports each load change as an `(old, new)` pair: one
//! count moves from `old` to `new`.  Callers already hold the old load
//! when they write the new one (the balance executors snapshot their
//! members' loads before a batch), so the tracker needs no O(n)
//! last-seen vector of its own and no extra random access per change.
//! A change costs O(log distinct loads) and the tracker's memory is
//! O(distinct loads) — a few dozen entries at n = 2²⁰, where nearly
//! every processor holds 0–3 packets.
//!
//! Engines construct the tracker lazily on the first `load_summary()`
//! call, so untracked runs pay a single `Option` check per load change.

use std::collections::BTreeMap;

/// Counts of processors per distinct load (see module docs).
pub(crate) struct SummaryTracker {
    counts: BTreeMap<u64, usize>,
}

impl SummaryTracker {
    /// A tracker holding every processor's current load.
    pub fn new(loads: impl IntoIterator<Item = u64>) -> Self {
        let mut counts = BTreeMap::new();
        for l in loads {
            *counts.entry(l).or_insert(0) += 1;
        }
        SummaryTracker { counts }
    }

    /// Records one processor's load moving from `old` to `new`.
    #[inline]
    pub fn change(&mut self, old: u64, new: u64) {
        if old == new {
            return;
        }
        let count = self
            .counts
            .get_mut(&old)
            .expect("old load is a tracked load");
        *count -= 1;
        if *count == 0 {
            self.counts.remove(&old);
        }
        *self.counts.entry(new).or_insert(0) += 1;
    }

    /// Records a batch of writes: `before` holds `(processor, load
    /// before the batch)` for each distinct processor the batch touched,
    /// `load` reads a processor's load after it.
    pub fn change_batch(&mut self, before: &[(usize, u64)], load: impl Fn(usize) -> u64) {
        for &(p, old) in before {
            self.change(old, load(p));
        }
    }

    /// Exact `(min, max)` of the tracked loads.
    pub fn min_max(&self) -> (u64, u64) {
        let (&min, _) = self
            .counts
            .first_key_value()
            .expect("tracker covers every proc");
        let (&max, _) = self
            .counts
            .last_key_value()
            .expect("tracker covers every proc");
        (min, max)
    }

    /// Estimated heap bytes of the map: a B-tree node holds up to 11
    /// entries and every node but the root is at least half full, so
    /// there are at most `len / 5 + 1` nodes; each is charged as an
    /// internal node (keys, values, 12 child pointers and the header).
    pub fn heap_bytes(&self) -> usize {
        const NODE_BYTES: usize = 11 * (8 + 8) + 12 * 8 + 16;
        (self.counts.len() / 5 + 1) * NODE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    /// Applies `loads[i] = new` through the tracker.
    fn set(tracker: &mut SummaryTracker, loads: &mut [u64], i: usize, new: u64) {
        tracker.change(loads[i], new);
        loads[i] = new;
    }

    fn assert_exact(tracker: &SummaryTracker, loads: &[u64], ctx: &str) {
        let (min, max) = tracker.min_max();
        assert_eq!(min, *loads.iter().min().unwrap(), "{ctx}");
        assert_eq!(max, *loads.iter().max().unwrap(), "{ctx}");
        assert_eq!(
            tracker.counts.values().sum::<usize>(),
            loads.len(),
            "{ctx}: one count per processor"
        );
    }

    #[test]
    fn tracks_extrema_through_random_mutations() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut loads: Vec<u64> = (0..50).map(|_| rng.gen_range(0..100)).collect();
        let mut tracker = SummaryTracker::new(loads.iter().copied());
        for round in 0..2000 {
            let i = rng.gen_range(0..loads.len());
            set(&mut tracker, &mut loads, i, rng.gen_range(0..100));
            if round % 7 == 0 {
                assert_exact(&tracker, &loads, &format!("round {round}"));
            }
        }
    }

    #[test]
    fn repeated_queries_between_mutations_are_stable() {
        let mut loads = vec![5, 1, 9, 3];
        let mut tracker = SummaryTracker::new(loads.iter().copied());
        assert_eq!(tracker.min_max(), (1, 9));
        assert_eq!(tracker.min_max(), (1, 9));
        set(&mut tracker, &mut loads, 2, 0);
        assert_eq!(tracker.min_max(), (0, 5));
        assert_eq!(tracker.min_max(), (0, 5));
    }

    #[test]
    fn memory_scales_with_distinct_loads_not_changes() {
        let mut loads = vec![0u64; 8];
        let mut tracker = SummaryTracker::new(loads.iter().copied());
        for k in 0..10_000u64 {
            set(&mut tracker, &mut loads, (k % 8) as usize, k);
        }
        assert_eq!(tracker.counts.len(), 8, "one entry per distinct load");
        assert_exact(&tracker, &loads, "after churn");
    }

    #[test]
    fn all_equal_loads() {
        let mut loads = vec![7u64; 1000];
        let mut tracker = SummaryTracker::new(loads.iter().copied());
        assert_eq!(tracker.min_max(), (7, 7));
        assert_eq!(tracker.counts.len(), 1);
        // A no-op change leaves the counts alone.
        set(&mut tracker, &mut loads, 3, 7);
        assert_eq!(tracker.counts[&7], 1000);
        set(&mut tracker, &mut loads, 3, 8);
        assert_eq!(tracker.min_max(), (7, 8));
        set(&mut tracker, &mut loads, 3, 7);
        assert_eq!(tracker.min_max(), (7, 7));
        assert_eq!(tracker.counts.len(), 1, "emptied counts are removed");
    }

    #[test]
    fn very_large_loads() {
        let mut loads = vec![u64::MAX, 0, u64::MAX - 1, 1 << 63];
        let mut tracker = SummaryTracker::new(loads.iter().copied());
        assert_eq!(tracker.min_max(), (0, u64::MAX));
        set(&mut tracker, &mut loads, 0, 1 << 62);
        assert_eq!(tracker.min_max(), (0, u64::MAX - 1));
        set(&mut tracker, &mut loads, 1, u64::MAX);
        assert_exact(&tracker, &loads, "max load as a new maximum");
    }

    #[test]
    fn batches_fold_like_single_changes() {
        let mut loads = vec![4u64, 0, 9, 2, 2];
        let mut tracker = SummaryTracker::new(loads.iter().copied());
        let before: Vec<(usize, u64)> = [0usize, 2, 4].iter().map(|&p| (p, loads[p])).collect();
        // Two writes to processor 2 inside one batch count once.
        loads[0] = 5;
        loads[2] = 1;
        loads[2] = 5;
        loads[4] = 5;
        tracker.change_batch(&before, |p| loads[p]);
        assert_exact(&tracker, &loads, "after batch");
        assert_eq!(tracker.counts[&5], 3);
    }
}
