//! The O(1) [`Snake`] dealer must reproduce the sorting form of the
//! snake distribution exactly: replaying `deal` over a class sequence
//! gives `distribute_classes_flat`'s shares and running totals, for
//! every group size up to [`MAX_GROUP`] (where the member mask is all
//! ones) and for totals that are zero, multiples of the group size, or
//! large.

use dlb_core::balance::{distribute_classes_flat, Snake, MAX_GROUP};
use proptest::collection::vec;
use proptest::{any, prop_assert, prop_assert_eq, proptest, TestCaseError};

/// A class total of the drawn `kind` for a group of `m`: zero, a
/// multiple of `m`, one short of a multiple, a small value, or a large
/// one up to 2⁴⁰.
fn class_total(kind: u8, x: u64, m: u64) -> u64 {
    match kind {
        0 => 0,
        1 => x % 4 * m,
        2 => x % 4 * m + m - 1,
        3 => x % (3 * m),
        _ => x % (1 << 40),
    }
}

/// Replays `Snake::deal` over `totals` against the sorting form.
fn check_replay(m: usize, totals: &[u64]) -> Result<(), TestCaseError> {
    let mut running = vec![0u64; m];
    let mut shares = Vec::new();
    distribute_classes_flat(totals, m, &mut running, &mut shares);
    let mut snake = Snake::new(m);
    for (c, &total) in totals.iter().enumerate() {
        let (base, extra) = snake.deal(total);
        prop_assert!(
            m == MAX_GROUP || extra >> m == 0,
            "extra bits past the group: {:#x}",
            extra
        );
        for s in 0..m {
            let share = base + (extra >> s & 1);
            prop_assert_eq!(share, shares[c * m + s], "m {} class {} member {}", m, c, s);
        }
    }
    for (s, &r) in running.iter().enumerate() {
        prop_assert_eq!(snake.running(s), r, "m {} running total of member {}", m, s);
    }
    Ok(())
}

proptest! {
    #[test]
    fn snake_replays_the_sorting_distribution(
        m in 1usize..MAX_GROUP + 1,
        draws in vec((0u8..5, any::<u64>()), 0..150),
    ) {
        // Every case also runs the full group, whose member mask is all
        // ones.
        for m in [m, MAX_GROUP] {
            let totals: Vec<u64> = draws
                .iter()
                .map(|&(kind, x)| class_total(kind, x, m as u64))
                .collect();
            check_replay(m, &totals)?;
        }
    }
}

#[test]
#[should_panic(expected = "outside 1..=64")]
fn oversized_group_is_rejected() {
    Snake::new(MAX_GROUP + 1);
}
