//! 0/1 knapsack solver used by the Self-Organizer to pick the
//! materialized set (paper §5): objects are the indices in `H ∪ M`, the
//! knapsack size is the storage budget `B`, each object occupies
//! `IndexSize(I)` units and provides `NetBenefit(I)` units of value.
//!
//! The solver is an exact dynamic program over discretized sizes. When
//! the budget is too fine-grained for an exact DP to be cheap, sizes are
//! rescaled to a bounded number of buckets (rounding sizes *up*, so the
//! solution never violates the true budget).

/// One knapsack item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Size in budget units (pages).
    pub size: u64,
    /// Value; items with non-positive value are never selected.
    pub value: f64,
}

/// Capacity granularity above which sizes are rescaled.
const MAX_CAPACITY_STEPS: u64 = 8192;

/// Solve the 0/1 knapsack, returning the indices of the chosen items
/// (ascending) — the new materialized set.
///
/// # Examples
///
/// ```
/// use colt_core::knapsack::{solve, Item};
///
/// let items = [
///     Item { size: 10, value: 60.0 },
///     Item { size: 20, value: 100.0 },
///     Item { size: 30, value: 120.0 },
/// ];
/// assert_eq!(solve(items, 50), vec![1, 2]);
/// ```
pub fn solve(items: impl IntoIterator<Item = Item>, capacity: u64) -> Vec<usize> {
    solve_in(&mut Scratch::default(), items, capacity)
}

/// [`solve_in`]'s working vectors, kept between solves.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    /// The items that compete for capacity, with their input positions.
    rest: Vec<(usize, Item)>,
    /// Their sizes in capacity steps.
    sizes: Vec<usize>,
    /// `best[c]`: the most value that fits `c` steps…
    best: Vec<f64>,
    /// …and the items that make it, one bit each (a word per cell while
    /// there are at most 64 items).
    take: Vec<u64>,
}

/// [`solve`] in the caller's [`Scratch`]: an epoch's decision frame
/// solves the same few items a dozen times (three boundary solves, one
/// per skip-proof attempt), and only the answer needs a vector of its own.
pub(crate) fn solve_in(
    scratch: &mut Scratch,
    items: impl IntoIterator<Item = Item>,
    capacity: u64,
) -> Vec<usize> {
    let Scratch { rest, sizes, best, take } = scratch;
    // Zero-size items with positive value are always worth taking; filter
    // them in directly and solve for the rest.
    let mut always = Vec::new();
    rest.clear();
    for (i, it) in items.into_iter().enumerate() {
        if it.value <= 0.0 {
            continue;
        }
        if it.size == 0 {
            always.push(i);
        } else if it.size <= capacity {
            rest.push((i, it));
        }
    }
    if rest.is_empty() {
        return always;
    }

    // Rescale sizes when the capacity is too fine-grained. Rescaling
    // rounds sizes up (never violates the true budget) but can cost a
    // few percent of value; with few items an exact subset enumeration
    // is cheaper than the DP anyway, so prefer it whenever rescaling
    // would otherwise lose precision.
    let scale = capacity.div_ceil(MAX_CAPACITY_STEPS).max(1);
    if scale > 1 && rest.len() <= 20 {
        let n = rest.len();
        let mut best_mask = 0usize;
        let mut best_value = 0.0f64;
        // Gray-code walk: consecutive masks differ in exactly one item,
        // so each subset is scored with one add/remove instead of a full
        // O(n) re-sum. Only the winning mask escapes this loop — callers
        // recompute totals from the items — so the running float
        // accumulation cannot leak drift into reported values.
        let mut prev_gray = 0usize;
        let (mut size, mut value) = (0u64, 0.0f64);
        for k in 1usize..(1 << n) {
            let gray = k ^ (k >> 1);
            let j = (gray ^ prev_gray).trailing_zeros() as usize;
            let it = &rest[j].1;
            if gray & (1 << j) != 0 {
                size += it.size;
                value += it.value;
            } else {
                size -= it.size;
                value -= it.value;
            }
            prev_gray = gray;
            if size <= capacity && value > best_value {
                best_value = value;
                best_mask = gray;
            }
        }
        let mut out = always;
        for (j, (i, _)) in rest.iter().enumerate() {
            if best_mask & (1 << j) != 0 {
                out.push(*i);
            }
        }
        out.sort_unstable();
        return out;
    }
    let cap = (capacity / scale) as usize;
    sizes.clear();
    sizes.extend(rest.iter().map(|(_, it)| (it.size.div_ceil(scale)) as usize));

    // DP over capacities. Chosen sets are tracked as bitmasks (one u64
    // word per 64 items) so propagating a solution along the capacity
    // axis is a word copy, not a per-item boolean clone — the DP runs on
    // the tuner's critical path (once per skip-proof attempt), where the
    // clone-per-cell variant dominated the epoch-boundary wall time.
    let words = rest.len().div_ceil(64);
    best.clear();
    best.resize(cap + 1, 0.0);
    take.clear();
    take.resize((cap + 1) * words, 0);
    for (j, &(_, it)) in rest.iter().enumerate() {
        let sz = sizes[j];
        if sz > cap {
            continue;
        }
        for c in (sz..=cap).rev() {
            let candidate = best[c - sz] + it.value;
            if candidate > best[c] {
                best[c] = candidate;
                let (src, dst) = (c - sz, c);
                for w in 0..words {
                    take[dst * words + w] = take[src * words + w];
                }
                take[dst * words + j / 64] |= 1 << (j % 64);
            }
        }
    }

    let mut out = always;
    for (j, (i, _)) in rest.iter().enumerate() {
        if take[cap * words + j / 64] & (1 << (j % 64)) != 0 {
            out.push(*i);
        }
    }
    out.sort_unstable();
    out
}

/// Total value of a selection.
pub fn total_value(items: &[Item], chosen: &[usize]) -> f64 {
    chosen.iter().map(|&i| items[i].value).sum()
}

/// Total size of a selection.
pub fn total_size(items: &[Item], chosen: &[usize]) -> u64 {
    chosen.iter().map(|&i| items[i].size).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let chosen = solve(items.iter().copied(), 50);
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
        assert_eq!(solve(items.iter().copied(), 10), vec![2]);
    }

    #[test]
    fn oversized_items_skipped() {
        let items = [Item { size: 100, value: 1000.0 }, Item { size: 5, value: 1.0 }];
        assert_eq!(solve(items.iter().copied(), 10), vec![1]);
    }

    #[test]
    fn zero_size_positive_items_always_taken() {
        let items = [Item { size: 0, value: 1.0 }, Item { size: 5, value: 2.0 }];
        assert_eq!(solve(items.iter().copied(), 5), vec![0, 1]);
        assert_eq!(solve(items.iter().copied(), 0), vec![0]);
    }

    #[test]
    fn empty_inputs() {
        assert!(solve([], 100).is_empty());
        assert!(solve([Item { size: 1, value: 1.0 }], 0).is_empty());
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
            let chosen = solve(items.iter().copied(), cap);
            assert!(total_size(&items, &chosen) <= cap, "capacity respected");
            let got = total_value(&items, &chosen);
            let want = brute_force(&items, cap);
            assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
        }
    }

    #[test]
    fn rescaling_respects_budget_for_large_capacities() {
        let items: Vec<Item> = (0..20)
            .map(|i| Item { size: 100_000 + i * 13_337, value: (i + 1) as f64 })
            .collect();
        let cap = 1_000_000;
        let chosen = solve(items.iter().copied(), cap);
        assert!(total_size(&items, &chosen) <= cap);
        assert!(!chosen.is_empty());
    }
}
