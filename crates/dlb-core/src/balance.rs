//! The balancing primitive: distributing indivisible packets of many load
//! classes over a group of processors so that
//!
//! 1. every class is split evenly over the group (±1 per the appendix
//!    constraint `|d_{l₁,j} − d_{l₂,j}| ≤ 1`), and
//! 2. the grand totals of the group members also differ by at most one
//!    (`|Σ_j d_{l₁,j} − Σ_j d_{l₂,j}| ≤ 1`) — the paper's "snake like
//!    distribution of packets".
//!
//! Both are achieved by a greedy rule: each class hands its `total mod m`
//! leftover packets to the members with the smallest running grand totals.
//! An induction shows the grand-total spread never exceeds one: if the
//! member totals lie in `{v, v+1}` with `k` members at `v` and the class
//! has `r ≤ m` leftovers, the leftovers go to the `k` members at `v`
//! first; the result again lies in a window of width one.
//!
//! [`distribute_classes`] evaluates the rule literally, sorting the
//! members by `(running total, slot)` for every class with leftovers; it
//! accepts arbitrary prior running totals.  From zero running totals —
//! every balance operation — the rule needs no sort, which is what
//! [`Snake`] exploits.  The sort order has two levels: the members at
//! `v` in slot order, then the members at `v+1` in slot order.  By the
//! same induction the members at `v+1` always form a slot *prefix*
//! `[0, h)`: the leftovers go to slots `h, h+1, …` and, once every member
//! has reached `v+1`, wrap round to slot 0 at the next level.  The rule
//! is a rotation, dealt in O(1) per class — the deterministic "hand the
//! leftovers out in a fixed cyclic order" rule of quasirandom balancing.
//! The engines' reference oracles ([`crate::reference`],
//! [`crate::dense`]) keep the sorting form, so the two stay independent
//! checks of each other.

/// Largest balancing group (`δ + 1` processors) the full-model engines
/// support: [`Snake`] keeps one bit per member in a `u64`, and the
/// engines size their per-member stack scratch by it.
pub const MAX_GROUP: usize = 64;

/// The snake distribution of a group of `m ≤` [`MAX_GROUP`] members from
/// zero running totals, one class at a time in O(1) — the same shares
/// and running totals as [`distribute_classes_flat`] on the same class
/// sequence (see the module docs for the argument).
#[derive(Debug, Clone, Copy)]
pub struct Snake {
    /// Group size.
    m: u32,
    /// Members `[0, high)` run one above the others.
    high: u32,
    /// Running total `v` of the members at the lower level.
    low: u64,
}

/// The slot mask `[0, k)`, for `k ≤ 64`.
#[inline]
fn prefix(k: u32) -> u64 {
    ((1u128 << k) - 1) as u64
}

impl Snake {
    /// A dealer for `m` members, every running total zero.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ m ≤` [`MAX_GROUP`].
    pub fn new(m: usize) -> Self {
        assert!(
            (1..=MAX_GROUP).contains(&m),
            "group of {m} outside 1..={MAX_GROUP}"
        );
        Snake {
            m: m as u32,
            high: 0,
            low: 0,
        }
    }

    /// Deals one class of `total` packets: every member receives `base`,
    /// and the members in `extra` (a slot mask of `total mod m` bits)
    /// one more.
    #[inline]
    pub fn deal(&mut self, total: u64) -> (u64, u64) {
        let m = u64::from(self.m);
        let base = total / m;
        let end = self.high + (total % m) as u32;
        self.low += base;
        let extra = if end < self.m {
            let extra = prefix(end) & !prefix(self.high);
            self.high = end;
            extra
        } else {
            // Every member reached the upper level: it becomes the lower
            // one, and the wrapped leftovers start the next prefix.
            let wrapped = end - self.m;
            let extra = (prefix(self.m) & !prefix(self.high)) | prefix(wrapped);
            self.high = wrapped;
            self.low += 1;
            extra
        };
        (base, extra)
    }

    /// Member `s`'s running total: the sum of everything dealt to it.
    #[inline]
    pub fn running(&self, s: usize) -> u64 {
        self.low + u64::from((s as u32) < self.high)
    }
}

/// Evenly splits `total` into `m` shares differing by at most one,
/// listing the `total mod m` larger shares first.
pub fn even_shares(total: u64, m: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(m);
    even_shares_into(total, m, &mut out);
    out
}

/// [`even_shares`] into a caller-owned buffer (cleared first) — the
/// hot-path form used by the engines' reusable scratch space.
pub fn even_shares_into(total: u64, m: usize, out: &mut Vec<u64>) {
    assert!(m > 0, "cannot split over an empty group");
    let base = total / m as u64;
    let extras = (total % m as u64) as usize;
    out.clear();
    out.extend((0..m).map(|i| if i < extras { base + 1 } else { base }));
}

/// Allocation-free core of [`distribute_classes`]: writes the shares into
/// a flat row-major matrix `out[class * m + slot]` (resized as needed).
pub fn distribute_classes_flat(
    class_totals: &[u64],
    m: usize,
    running: &mut [u64],
    out: &mut Vec<u64>,
) {
    let mut order = Vec::with_capacity(m);
    distribute_classes_flat_with(class_totals, m, running, out, &mut order);
}

/// [`distribute_classes_flat`] with a caller-owned scratch buffer for the
/// extras ordering, so repeated calls allocate nothing.
pub fn distribute_classes_flat_with(
    class_totals: &[u64],
    m: usize,
    running: &mut [u64],
    out: &mut Vec<u64>,
    order: &mut Vec<usize>,
) {
    assert!(m > 0);
    assert_eq!(running.len(), m);
    out.clear();
    out.resize(class_totals.len() * m, 0);
    order.clear();
    order.extend(0..m);
    for (c, &total) in class_totals.iter().enumerate() {
        let base = total / m as u64;
        let extras = (total % m as u64) as usize;
        let row = &mut out[c * m..(c + 1) * m];
        for share in row.iter_mut() {
            *share = base;
        }
        if extras > 0 {
            order.sort_unstable_by_key(|&s| (running[s], s));
            for &s in &order[..extras] {
                row[s] += 1;
            }
        }
        if base > 0 || extras > 0 {
            // `zip` instead of indexing: the accumulation runs once per
            // (class, member) pair and is the hottest loop in a balance
            // op; pairing the slices lets the compiler drop the
            // per-element bounds checks.
            for (r, &share) in running.iter_mut().zip(row.iter()) {
                *r += share;
            }
        }
    }
}

/// Distributes per-class totals over `m` members.
///
/// `class_totals[j]` is the number of class-`j` packets held by the whole
/// group; the result `out[j][s]` is the number assigned to member slot
/// `s`.  `running` carries grand totals across *multiple* calls (pass
/// zeros for a standalone distribution) so that, e.g., the real-packet
/// matrix and the marker matrix can share one evenness budget if desired.
///
/// Postconditions (tested):
/// * per class: `Σ_s out[j][s] == class_totals[j]` and spread ≤ 1;
/// * per member: grand-total spread ≤ 1 (including `running`).
pub fn distribute_classes(class_totals: &[u64], m: usize, running: &mut [u64]) -> Vec<Vec<u64>> {
    assert!(m > 0);
    assert_eq!(running.len(), m);
    let mut flat = Vec::new();
    distribute_classes_flat(class_totals, m, running, &mut flat);
    flat.chunks(m).map(|row| row.to_vec()).collect()
}

/// Distributes `total` indivisible units over members with per-member
/// capacities, as evenly as the capacities allow (units go to the member
/// with the smallest current share among those with spare capacity).
///
/// Used for redistributing borrowed-packet markers, whose per-processor
/// count must never exceed the borrow limit `C`.
///
/// # Panics
///
/// Panics if `total` exceeds the aggregate capacity.
pub fn distribute_capped(total: u64, caps: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(caps.len());
    distribute_capped_into(total, caps, &mut out);
    out
}

/// [`distribute_capped`] into a caller-owned buffer (cleared first).
pub fn distribute_capped_into(total: u64, caps: &[u64], out: &mut Vec<u64>) {
    let capacity: u64 = caps.iter().sum();
    assert!(
        total <= capacity,
        "insufficient capacity: {total} > {capacity}"
    );
    out.clear();
    out.resize(caps.len(), 0);
    let mut remaining = total;
    while remaining > 0 {
        // One zipped min-scan per unit instead of indexed probes: the
        // filter and key would otherwise each re-check bounds on both
        // slices for every candidate.
        let idx = out
            .iter()
            .zip(caps.iter())
            .enumerate()
            .filter(|&(_, (&o, &c))| o < c)
            .min_by_key(|&(s, (&o, _))| (o, s))
            .map(|(s, _)| s)
            .expect("aggregate capacity checked above");
        out[idx] += 1;
        remaining -= 1;
    }
}

/// `max − min` of a slice (0 for empty input).
pub fn spread(values: &[u64]) -> u64 {
    match (values.iter().max(), values.iter().min()) {
        (Some(max), Some(min)) => max - min,
        _ => 0,
    }
}

/// Number of packets that change owners when the group moves from
/// `before[s]` to `after[s]` per member: `Σ max(before − after, 0)`
/// (equal to `Σ max(after − before, 0)` when totals are conserved).
pub fn moved(before: &[u64], after: &[u64]) -> u64 {
    before
        .iter()
        .zip(after.iter())
        .map(|(&x, &y)| x.saturating_sub(y))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_shares_exact_and_remainder() {
        assert_eq!(even_shares(10, 2), vec![5, 5]);
        assert_eq!(even_shares(11, 2), vec![6, 5]);
        assert_eq!(even_shares(3, 5), vec![1, 1, 1, 0, 0]);
        assert_eq!(even_shares(0, 3), vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "empty group")]
    fn even_shares_rejects_empty_group() {
        even_shares(1, 0);
    }

    #[test]
    fn distribute_single_class() {
        let mut running = vec![0u64; 3];
        let out = distribute_classes(&[7], 3, &mut running);
        assert_eq!(out[0].iter().sum::<u64>(), 7);
        assert_eq!(spread(&out[0]), 1);
    }

    #[test]
    fn distribute_many_classes_meets_both_constraints() {
        let totals = vec![7u64, 0, 13, 1, 1, 1, 2, 99];
        let m = 5;
        let mut running = vec![0u64; m];
        let out = distribute_classes(&totals, m, &mut running);
        for (j, shares) in out.iter().enumerate() {
            assert_eq!(shares.iter().sum::<u64>(), totals[j], "class {j} conserved");
            assert!(spread(shares) <= 1, "class {j} spread");
        }
        let grand: Vec<u64> = (0..m)
            .map(|s| out.iter().map(|shares| shares[s]).sum())
            .collect();
        assert!(spread(&grand) <= 1, "grand totals {grand:?}");
        assert_eq!(grand, running);
    }

    #[test]
    fn flat_and_nested_distributions_agree() {
        let totals = vec![7u64, 0, 13, 1, 99];
        let m = 4;
        let mut run_a = vec![0u64; m];
        let nested = distribute_classes(&totals, m, &mut run_a);
        let mut run_b = vec![0u64; m];
        let mut flat = Vec::new();
        distribute_classes_flat(&totals, m, &mut run_b, &mut flat);
        for (c, row) in nested.iter().enumerate() {
            assert_eq!(&flat[c * m..(c + 1) * m], row.as_slice(), "class {c}");
        }
        assert_eq!(run_a, run_b);
    }

    #[test]
    fn distribute_respects_prior_running_totals() {
        // A member that already carries more weight receives fewer extras.
        let mut running = vec![10u64, 0];
        let out = distribute_classes(&[1], 2, &mut running);
        assert_eq!(out[0], vec![0, 1], "extra goes to the lighter member");
    }

    #[test]
    fn moved_counts_departing_packets() {
        assert_eq!(moved(&[5, 0, 1], &[2, 2, 2]), 3);
        assert_eq!(moved(&[2, 2, 2], &[2, 2, 2]), 0);
    }

    #[test]
    fn capped_distribution_respects_caps_and_evenness() {
        let out = distribute_capped(7, &[4, 1, 4]);
        assert_eq!(out.iter().sum::<u64>(), 7);
        assert!(
            out.iter().zip([4u64, 1, 4]).all(|(&o, c)| o <= c),
            "{out:?}"
        );
        // With caps [4,1,4] the most even split of 7 is [3,1,3].
        assert_eq!(out, vec![3, 1, 3]);
        assert_eq!(distribute_capped(0, &[2, 2]), vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "insufficient capacity")]
    fn capped_distribution_rejects_overflow() {
        distribute_capped(5, &[2, 2]);
    }

    #[test]
    fn adversarial_grand_total_spread_stays_one() {
        // Many classes with remainder 1 each: the greedy must rotate the
        // extras around the members.
        let totals = vec![1u64; 97];
        let m = 7;
        let mut running = vec![0u64; m];
        let out = distribute_classes(&totals, m, &mut running);
        let grand: Vec<u64> = (0..m).map(|s| out.iter().map(|sh| sh[s]).sum()).collect();
        assert!(spread(&grand) <= 1, "{grand:?}");
        assert_eq!(grand.iter().sum::<u64>(), 97);
    }
}
