//! Hot-set selection (paper §5, reorganization stage two).
//!
//! The next hot set `H` is the `max_hot` candidates with the highest
//! positive smoothed crude benefit. The paper takes the top cluster of
//! a 2-means split of those benefits; the reconstruction caps that
//! cluster at `max_hot` and fills it up to `max_hot` from below the
//! split (DESIGN §8 #5), so the split never decides membership and is
//! not computed.

use colt_catalog::ColRef;

/// The `max_hot` highest positive benefits, in column order. Ties are
/// ranked by column, the higher column first. Candidates with
/// non-positive benefit are never hot.
pub fn select_hot(benefits: &[(ColRef, f64)], max_hot: usize) -> Vec<ColRef> {
    let mut positive: Vec<(ColRef, f64)> =
        benefits.iter().copied().filter(|(_, b)| *b > 0.0).collect();
    positive.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let mut hot: Vec<ColRef> = positive.iter().rev().take(max_hot).map(|(c, _)| *c).collect();
    hot.sort_unstable();
    hot
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_catalog::TableId;

    fn col(i: u32) -> ColRef {
        ColRef::new(TableId(0), i)
    }

    #[test]
    fn clear_separation_found() {
        let benefits = vec![
            (col(0), 1.0),
            (col(1), 1.2),
            (col(2), 0.9),
            (col(3), 100.0),
            (col(4), 95.0),
        ];
        // A cap of two keeps the two best.
        let hot = select_hot(&benefits, 2);
        assert_eq!(hot, vec![col(3), col(4)]);
        // A larger cap takes the next-best candidates too.
        let hot = select_hot(&benefits, 4);
        assert_eq!(hot, vec![col(0), col(1), col(3), col(4)]);
        // All positive candidates fit.
        assert_eq!(select_hot(&benefits, 10).len(), 5);
    }

    #[test]
    fn nonpositive_benefits_never_hot() {
        let benefits = vec![(col(0), 0.0), (col(1), -3.0)];
        assert!(select_hot(&benefits, 10).is_empty());
    }

    #[test]
    fn single_positive_candidate_is_hot() {
        let benefits = vec![(col(0), 0.0), (col(1), 5.0)];
        assert_eq!(select_hot(&benefits, 10), vec![col(1)]);
    }

    #[test]
    fn cap_keeps_best() {
        let benefits: Vec<_> = (0..10).map(|i| (col(i), 100.0 + i as f64)).collect();
        let hot = select_hot(&benefits, 3);
        assert_eq!(hot, vec![col(7), col(8), col(9)]);
        // Non-positive candidates never fill spare slots.
        let benefits = vec![(col(0), 5.0), (col(1), 0.0), (col(2), -1.0)];
        assert_eq!(select_hot(&benefits, 3), vec![col(0)]);
    }

    #[test]
    fn uniform_values_split_somewhere() {
        let benefits: Vec<_> = (0..6).map(|i| (col(i), 10.0)).collect();
        let hot = select_hot(&benefits, 10);
        assert!(!hot.is_empty());
        assert!(hot.len() <= 6);
    }

    #[test]
    fn empty_input() {
        assert!(select_hot(&[], 10).is_empty());
        assert!(select_hot(&[(col(0), 5.0)], 0).is_empty());
    }
}
