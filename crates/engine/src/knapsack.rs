//! The knapsack solver: the Self-Organizer's boundary solves (paper §5)
//! and OFFLINE's selection (§6.1) both pick what to materialize under
//! the storage budget `B` with [`solve`].
//!
//! The input is a list of *groups* of options ([`Item`]s) and a page
//! capacity; a selection takes at most one option per group (skipping a
//! group is implicit). The Self-Organizer passes one single-option group
//! per index of `H ∪ M`, a 0/1 knapsack; OFFLINE passes one group per
//! table, holding the non-empty subsets of the table's candidates.
//!
//! The method is an exact dynamic program over reachable total sizes:
//! from the empty selection (`0` pages, value `0.0`) it takes the groups
//! in order and keeps one selection per reached size. Nothing is
//! rounded; a group's states number at most `capacity + 1`, the product
//! of the group sizes so far (each plus one, the skip), and one more
//! than the largest total so far. Ties follow two rules:
//!
//! * **Per size**, the greatest value; among equal values, the one
//!   extending the smallest size, and from one size the skip before the
//!   options in order.
//! * **The answer**: the reached sizes are scanned ascending from the
//!   empty selection, and a larger one is taken only when its value is
//!   more than `1e-9` higher, so no page is spent on a gain that small.

use std::cmp::Ordering;

/// A gain at most this much above a smaller selection's is not worth
/// the extra pages.
const TIE: f64 = 1e-9;

/// One option of a group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Size in budget units (pages).
    pub size: u64,
    /// Value, in the caller's units.
    pub value: f64,
}

/// The selection [`solve`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Per group, the position of its chosen option, `None` where the
    /// group is skipped.
    pub picks: Vec<Option<usize>>,
    /// Total value: the chosen options' values added to `0.0` in group
    /// order (`0.0`, not `-0.0`, when nothing is chosen).
    pub value: f64,
    /// Total size in pages, at most the capacity.
    pub size: u64,
}

/// One reached size: the best value found for it, and how it was
/// reached — the state of the previous group it extends (its position
/// in that group's states) and the choice that extends it (`0` skips
/// the group, `k + 1` takes option `k`).
#[derive(Debug, Clone, Copy)]
struct State {
    size: u64,
    value: f64,
    from: usize,
    pick: usize,
}

/// Into `out`: the states `acc` merged with the states `prev` extended
/// by `option` as choice `pick`. Both lists ascend in size, and every
/// choice in `acc` precedes `pick`.
fn extend(acc: &[State], prev: &[State], option: Item, pick: usize, out: &mut Vec<State>) {
    let take = |from: usize| {
        let (size, value) = (prev[from].size + option.size, prev[from].value + option.value);
        State { size, value, from, pick }
    };
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < acc.len() && j < prev.len() {
        let (x, y) = (acc[i], take(j));
        out.push(match x.size.cmp(&y.size) {
            Ordering::Less => {
                i += 1;
                x
            }
            Ordering::Greater => {
                j += 1;
                y
            }
            // The per-size rule; `y` comes first only from a smaller size.
            Ordering::Equal => {
                (i, j) = (i + 1, j + 1);
                let first = y.from < x.from;
                if y.value > x.value || (y.value == x.value && first) { y } else { x }
            }
        });
    }
    out.extend_from_slice(&acc[i..]);
    out.extend((j..prev.len()).map(take));
}

/// Solve the grouped knapsack: the best selection of at most one option
/// per group within `capacity` pages, under the module's tie rules.
///
/// # Examples
///
/// ```
/// use colt_engine::knapsack::{solve, Item};
///
/// let single = |size, value| [Item { size, value }];
/// let groups = [single(10, 60.0), single(20, 100.0), single(30, 120.0)];
/// let best = solve(&groups, 50);
/// assert_eq!(best.picks, [None, Some(0), Some(0)]);
/// assert_eq!((best.size, best.value), (50, 220.0));
/// ```
pub fn solve<G: AsRef<[Item]>>(groups: &[G], capacity: u64) -> Solution {
    // The buffers are sized once, to the module's bound on a group's
    // states: grown on demand, their reallocations made a solve of the
    // organizer's size (≤ 11 items in 34 pages) about 1.5× slower.
    let (mut product, mut largest, mut widest) = (1usize, 0u64, 1usize);
    for options in groups.iter().map(AsRef::as_ref) {
        product = product.saturating_mul(options.len() + 1);
        largest = largest.saturating_add(options.iter().map(|o| o.size).max().unwrap_or(0));
        let sizes = usize::try_from(capacity.min(largest)).map_or(usize::MAX, |s| s + 1);
        widest = widest.max(product.min(sizes));
    }
    let mut prev = Vec::with_capacity(widest);
    prev.push(State { size: 0, value: 0.0, from: 0, pick: 0 });
    let (mut next, mut merged) = (Vec::with_capacity(widest), Vec::with_capacity(widest));
    // Every group's states' `(from, pick)`, one group after another.
    let mut back = Vec::with_capacity(widest.saturating_mul(groups.len()));
    let mut starts = Vec::with_capacity(groups.len());

    for options in groups.iter().map(AsRef::as_ref) {
        // Skipping the group keeps every state; each option extends those
        // it fits into one more run to merge.
        next.clear();
        next.extend(prev.iter().enumerate().map(|(from, s)| State { from, pick: 0, ..*s }));
        for (k, &option) in options.iter().enumerate() {
            let room = capacity.checked_sub(option.size);
            let fits = room.map_or(0, |room| prev.partition_point(|s| s.size <= room));
            extend(&next, &prev[..fits], option, k + 1, &mut merged);
            std::mem::swap(&mut next, &mut merged);
        }
        starts.push(back.len());
        back.extend(next.iter().map(|s| (s.from, s.pick)));
        std::mem::swap(&mut prev, &mut next);
    }

    let best = (1..prev.len())
        .fold(0, |best, i| if prev[i].value > prev[best].value + TIE { i } else { best });
    let mut picks = vec![None; groups.len()];
    let mut at = best;
    for (g, &start) in starts.iter().enumerate().rev() {
        let (from, pick) = back[start + at];
        picks[g] = pick.checked_sub(1);
        at = from;
    }
    Solution { picks, value: prev[best].value, size: prev[best].size }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 0/1 knapsack over `items`: the chosen positions, ascending.
    fn solve_items(items: &[Item], capacity: u64) -> Vec<usize> {
        let groups: Vec<[Item; 1]> = items.iter().map(|&it| [it]).collect();
        let picks = solve(&groups, capacity).picks;
        (0..items.len()).filter(|&i| picks[i].is_some()).collect()
    }

    /// Total value of a selection.
    fn total_value(items: &[Item], chosen: &[usize]) -> f64 {
        chosen.iter().map(|&i| items[i].value).sum()
    }

    /// Total size of a selection.
    fn total_size(items: &[Item], chosen: &[usize]) -> u64 {
        chosen.iter().map(|&i| items[i].size).sum()
    }

    /// Brute force reference for small instances.
    fn brute_force(items: &[Item], capacity: u64) -> f64 {
        let n = items.len();
        let mut best = 0.0f64;
        for mask in 0..(1u32 << n) {
            let mut size = 0u64;
            let mut value = 0.0;
            for (i, it) in items.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    size += it.size;
                    value += it.value;
                }
            }
            if size <= capacity && value > best {
                best = value;
            }
        }
        best
    }

    #[test]
    fn simple_selection() {
        let items = vec![
            Item { size: 10, value: 60.0 },
            Item { size: 20, value: 100.0 },
            Item { size: 30, value: 120.0 },
        ];
        let chosen = solve_items(&items, 50);
        assert_eq!(chosen, vec![1, 2]);
        assert_eq!(total_value(&items, &chosen), 220.0);
        assert_eq!(total_size(&items, &chosen), 50);
    }

    #[test]
    fn negative_and_zero_value_items_skipped() {
        let items = [
            Item { size: 1, value: -5.0 },
            Item { size: 1, value: 0.0 },
            Item { size: 1, value: 3.0 },
        ];
        assert_eq!(solve_items(&items, 10), vec![2]);
    }

    #[test]
    fn oversized_items_skipped() {
        let items = [Item { size: 100, value: 1000.0 }, Item { size: 5, value: 1.0 }];
        assert_eq!(solve_items(&items, 10), vec![1]);
    }

    #[test]
    fn zero_size_positive_items_always_taken() {
        let items = [Item { size: 0, value: 1.0 }, Item { size: 5, value: 2.0 }];
        assert_eq!(solve_items(&items, 5), vec![0, 1]);
        assert_eq!(solve_items(&items, 0), vec![0]);
    }

    #[test]
    fn empty_inputs() {
        assert!(solve_items(&[], 100).is_empty());
        assert!(solve_items(&[Item { size: 1, value: 1.0 }], 0).is_empty());
        let none = solve::<[Item; 1]>(&[], 100);
        assert_eq!((none.size, none.value.to_bits()), (0, 0.0f64.to_bits()));
    }

    #[test]
    fn matches_brute_force_exactly_on_small_instances() {
        // Deterministic pseudo-random instances.
        let mut x = 12345u64;
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        };
        for _ in 0..50 {
            let n = (next() % 10 + 1) as usize;
            let items: Vec<Item> = (0..n)
                .map(|_| Item { size: next() % 50 + 1, value: (next() % 1000) as f64 / 10.0 })
                .collect();
            let cap = next() % 120 + 1;
            let chosen = solve_items(&items, cap);
            assert!(total_size(&items, &chosen) <= cap, "capacity respected");
            let got = total_value(&items, &chosen);
            let want = brute_force(&items, cap);
            assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
        }
    }

    /// Sizes are never rounded, so a large capacity is solved exactly and
    /// the budget holds.
    #[test]
    fn rescaling_respects_budget_for_large_capacities() {
        let items: Vec<Item> = (0..20)
            .map(|i| Item { size: 100_000 + i * 13_337, value: (i + 1) as f64 })
            .collect();
        let cap = 1_000_000;
        let chosen = solve_items(&items, cap);
        assert!(total_size(&items, &chosen) <= cap);
        assert!(!chosen.is_empty());
    }

    /// More than 20 items and a capacity above 8 192 pages: nine of the
    /// 1 111-page items fill 9 999 of 10 000 pages. A solver that rounds
    /// sizes up to 2-page steps sees 556 steps each and fits only eight.
    #[test]
    fn exact_beyond_twenty_items_and_8192_pages() {
        let items = vec![Item { size: 1_111, value: 1.0 }; 21];
        let chosen = solve_items(&items, 10_000);
        assert_eq!(chosen.len(), 9);
        assert_eq!(total_size(&items, &chosen), 9_999);
    }

    /// Every selection over `groups`: per group, `None` (skipped) or the
    /// position of its option.
    fn selections(groups: &[Vec<Item>]) -> Vec<Vec<Option<usize>>> {
        groups.iter().fold(vec![Vec::new()], |acc, options| {
            let choices = std::iter::once(None).chain((0..options.len()).map(Some));
            let choices: Vec<Option<usize>> = choices.collect();
            acc.iter()
                .flat_map(|prefix| {
                    choices.iter().map(move |&c| prefix.iter().copied().chain([c]).collect())
                })
                .collect()
        })
    }

    /// Grouped instances against brute force, values drawn from a few
    /// exact binary fractions so ties are exact and frequent. The
    /// expected answer applies the module's tie rules to every
    /// selection: per size the greatest value; among equal values the
    /// one whose last group extends the smaller size, the skip before
    /// the options, then the same rule on the groups before; then the
    /// smallest size that no larger size beats by more than `TIE`.
    #[test]
    fn grouped_matches_brute_force_and_tie_rules() {
        const FEW: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 3.5];
        let mut x = 0xC0_17u64;
        let mut next = |below: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) % below
        };
        for case in 0..200 {
            let groups: Vec<Vec<Item>> = (0..next(5))
                .map(|_| {
                    (0..next(4))
                        .map(|_| Item { size: next(6), value: FEW[next(5) as usize] })
                        .collect()
                })
                .collect();
            let capacity = next(14);
            // Every feasible selection with its size, value and tie key.
            let mut scored = Vec::new();
            for picks in selections(&groups) {
                let (mut size, mut value, mut key) = (0u64, 0.0f64, Vec::new());
                for (options, &p) in groups.iter().zip(&picks) {
                    key.push((size, p));
                    if let Some(k) = p {
                        size += options[k].size;
                        value += options[k].value;
                    }
                }
                key.reverse();
                if size <= capacity {
                    scored.push((size, value, key, picks));
                }
            }
            // Per size: the greatest value, then the least key.
            scored.sort_by(|a, b| {
                a.0.cmp(&b.0).then(b.1.total_cmp(&a.1)).then_with(|| a.2.cmp(&b.2))
            });
            scored.dedup_by_key(|s| s.0);
            let mut want = &scored[0];
            for s in &scored[1..] {
                if s.1 > want.1 + TIE {
                    want = s;
                }
            }
            let got = solve(&groups, capacity);
            assert_eq!(got.picks, want.3, "case {case}: {groups:?} in {capacity}");
            assert_eq!((got.size, got.value), (want.0, want.1), "case {case}");
        }
    }
}
