//! Model test for [`SparseRow`]: random `add`/`sub`/`set`/`take`/
//! `push`/`clear` sequences against a `BTreeMap<u32, u64>`, with the
//! row's structural check after every operation.  Classes come from a
//! small range, so sequences keep growing rows past one class (spilling
//! them to the heap) and shrinking them back (returning them inline).

use dlb_core::SparseRow;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Applies one encoded operation to both the row and the model.
/// Operations the row's contract forbids (`sub` of more than present,
/// `push` at or below the largest key) are mapped onto legal neighbours.
fn apply(row: &mut SparseRow, model: &mut BTreeMap<u32, u64>, op: u8, c: u32, x: u64) {
    match op {
        0 | 1 => {
            row.add(c, x + 1);
            *model.entry(c).or_insert(0) += x + 1;
        }
        2 => {
            // sub: from an active class, at most what it holds
            if let Some(&have) = model.get(&c) {
                let take = (x + 1).min(have);
                row.sub(c, take);
                if have == take {
                    model.remove(&c);
                } else {
                    model.insert(c, have - take);
                }
            }
        }
        3 => {
            // set, including to zero
            row.set(c, x);
            if x == 0 {
                model.remove(&c);
            } else {
                model.insert(c, x);
            }
        }
        4 | 5 => {
            let want = model.remove(&c).unwrap_or(0);
            assert_eq!(row.take(c), want, "take({c})");
        }
        6 => {
            // push when `c` is above every present key, else add
            if model.keys().next_back().is_none_or(|&last| last < c) {
                row.push(c, x + 1);
            } else {
                row.add(c, x + 1);
            }
            *model.entry(c).or_insert(0) += x + 1;
        }
        _ => {
            row.clear();
            model.clear();
        }
    }
}

proptest! {
    #[test]
    fn sparse_row_matches_btreemap_model(
        ops in prop::collection::vec((0u8..8, 0u32..4, 0u64..3), 200..400),
    ) {
        let mut row = SparseRow::new();
        let mut model = BTreeMap::new();
        let (mut spills, mut unspills) = (0usize, 0usize);
        for (step, &(op, c, x)) in ops.iter().enumerate() {
            let was_spilled = row.is_spilled();
            apply(&mut row, &mut model, op, c, x);
            prop_assert!(row.check().is_ok(), "step {}: {:?}", step, row.check());
            let keys: Vec<u32> = model.keys().copied().collect();
            let vals: Vec<u64> = model.values().copied().collect();
            prop_assert_eq!(row.keys(), keys.as_slice(), "keys at step {}", step);
            prop_assert_eq!(row.vals(), vals.as_slice(), "vals at step {}", step);
            prop_assert_eq!(row.len(), model.len());
            prop_assert_eq!(row.sum(), vals.iter().sum::<u64>());
            for probe in 0..12u32 {
                prop_assert_eq!(row.get(probe), model.get(&probe).copied().unwrap_or(0));
            }
            // Inline rows own no heap; spilled rows are charged at least
            // their boxed pair of vector headers and live entries.
            if row.is_spilled() {
                let header = 2 * std::mem::size_of::<Vec<u64>>();
                prop_assert!(row.heap_bytes() >= header + 12 * row.len());
                spills += usize::from(!was_spilled);
            } else {
                prop_assert!(row.len() <= 1, "an inline row holds at most one class");
                prop_assert_eq!(row.heap_bytes(), 0);
                unspills += usize::from(was_spilled);
            }
        }
        // Every sequence of this length goes back and forth across the
        // inline/spilled boundary many times.
        prop_assert!(spills >= 3 && unspills >= 3, "spills {} unspills {}", spills, unspills);
    }
}
