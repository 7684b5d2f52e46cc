//! The epoch's decision frame and the skip-proofs that read it (in the
//! spirit of Wii's "what-if call interception").
//!
//! The Self-Organizer's knapsack (paper §5) is one instance — the
//! indices of `H ∪ M`, their sizes, the storage budget — under two price
//! lists: conservative estimates pick the materialized set, optimistic
//! upper bounds give the re-budgeting best case. [`DecisionContext`] is
//! that instance, priced once per epoch boundary. The two prices bracket
//! the value a candidate can take once a what-if probe refines its
//! statistics, so the Profiler consults the same frame *before* issuing
//! a probe: if the knapsack with the candidate pinned at the top of its
//! interval chooses the conservative solution again, no measurement
//! inside the interval can alter the decision, so the probe is provably
//! redundant this epoch and its budget is freed for less certain
//! candidates.
//!
//! The soundness argument is elementary: fixing all other item values,
//! the value of any index set containing candidate `c` is affine and
//! strictly increasing in `c`'s value while sets without `c` are
//! constant — all `c`-sets shift *uniformly*. Hence if the optimum at
//! `lo` and at `hi` is the same set, it is optimal for every value in
//! `[lo, hi]`; and a `c`-set that has overtaken the optimum at `hi`
//! stays ahead at every larger value, so a proof that fails at `hi`
//! fails at every bound above it (the
//! `skip_proof_is_sound_on_random_instances` property test below
//! re-derives both empirically on seeded random instances).
//!
//! The interval can be tightened mid-epoch with per-query evidence: the
//! engine's what-if memo exposes a sound upper bound on the gain one
//! probe can report (`Eqo::gain_upper_bound`), which the frame projects
//! onto the net-benefit scale before re-running the proof.
//!
//! The outer `r`-ratio control loop is untouched: skip-proofs only
//! decide *which* probes to spend `#WI_lim` on, never how large
//! `#WI_lim` is, so self-regulation semantics are unchanged whenever
//! bounds are uninformative (fresh candidates carry the degenerate
//! interval `[0, ∞)`-like crude projection and are always probed).

use crate::knapsack::{self, Item};
use colt_catalog::ColRef;

/// The bracket of knapsack values one candidate could take after a
/// what-if probe, plus the constants needed to project per-query gain
/// bounds onto the same scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateInterval {
    /// Pages the index (would) occupy in the knapsack.
    pub size: u64,
    /// Conservative net benefit — the value the reorganization knapsack
    /// used for this candidate.
    pub lo: f64,
    /// Optimistic net benefit — the re-budgeting best-case value.
    pub hi: f64,
    /// Estimated materialization cost (0 for already-materialized
    /// indices), subtracted when projecting per-query gain bounds.
    pub mat_cost: f64,
}

/// Proof outcome for one candidate and the upper bound it was
/// established under.
#[derive(Debug, Clone, Copy)]
struct Verdict {
    skip: bool,
    hi: f64,
}

#[derive(Debug, Clone, Copy)]
struct Priced {
    col: ColRef,
    interval: CandidateInterval,
    verdict: Option<Verdict>,
}

/// One epoch boundary's knapsack instance: every priced candidate with
/// its value interval, the storage budget, the conservative solution,
/// and the proof verdicts of the epoch that follows.
///
/// Built by [`SelfOrganizer::reorganize`](crate::organizer::SelfOrganizer),
/// which runs its solves against it, and installed into the
/// [`Profiler`](crate::profiler::Profiler) for the following epoch.
#[derive(Debug, Clone)]
pub struct DecisionContext {
    /// In `ColRef` order — the item order of every solve.
    priced: Vec<Priced>,
    budget_pages: u64,
    /// Scale from a per-query gain bound to a net-benefit upper bound:
    /// the window query count (`Σ_clusters Count(Q_i)` — the per-epoch
    /// benefit is at most `total/h · g`, projected over the `h`-epoch
    /// horizon).
    gain_scale: f64,
    /// The optimum at the conservative prices, with its value: the
    /// reorganization's free solution, and the set every skip-proof
    /// compares against.
    conservative: (Vec<ColRef>, f64),
    /// The working vectors of this frame's solves.
    scratch: knapsack::Scratch,
}

impl DecisionContext {
    /// The frame over `pool` — the priced indices of `H ∪ M` — solved at
    /// the conservative prices; `gain_scale` projects a per-query gain
    /// bound onto the net-benefit scale (see field doc).
    pub fn new(
        budget_pages: u64,
        gain_scale: f64,
        pool: impl IntoIterator<Item = (ColRef, CandidateInterval)>,
    ) -> Self {
        let mut frame = DecisionContext {
            priced: Vec::new(),
            budget_pages,
            gain_scale: gain_scale.max(0.0),
            conservative: (Vec::new(), 0.0),
            scratch: knapsack::Scratch::default(),
        };
        for (col, interval) in pool {
            frame.admit(col, interval);
        }
        frame.conservative = frame.solve(budget_pages, |_, it| it.lo);
        frame
    }

    /// Price a column into the frame (intervals are normalized so
    /// `hi >= lo`). After [`DecisionContext::new`] this is for the fresh
    /// hot columns: nothing is measured for them and a build is to be
    /// paid, so their conservative price is at most zero and the
    /// conservative solution stands.
    pub fn admit(&mut self, col: ColRef, interval: CandidateInterval) {
        let interval = CandidateInterval { hi: interval.hi.max(interval.lo), ..interval };
        let priced = Priced { col, interval, verdict: None };
        match self.position(col) {
            Ok(at) => self.priced[at] = priced,
            Err(at) => self.priced.insert(at, priced),
        }
    }

    fn position(&self, col: ColRef) -> Result<usize, usize> {
        self.priced.binary_search_by_key(&col, |p| p.col)
    }

    /// The priced candidates, in `ColRef` order.
    pub fn iter(&self) -> impl Iterator<Item = (ColRef, &CandidateInterval)> {
        self.priced.iter().map(|p| (p.col, &p.interval))
    }

    /// The priced interval of a candidate, if any.
    pub fn interval(&self, col: ColRef) -> Option<&CandidateInterval> {
        self.position(col).ok().map(|at| &self.priced[at].interval)
    }

    /// Interval width — the candidate's decision uncertainty. Unpriced
    /// candidates are maximally uncertain (infinite width), which sorts
    /// them first when freed budget is reallocated.
    pub fn width(&self, col: ColRef) -> f64 {
        self.interval(col).map_or(f64::INFINITY, |it| it.hi - it.lo)
    }

    /// The knapsack optimum at the conservative prices and its value.
    pub fn conservative(&self) -> (&[ColRef], f64) {
        (&self.conservative.0, self.conservative.1)
    }

    /// The crate's one [`knapsack::solve`] call: the frame's candidates,
    /// each worth `value(col, interval)`, into `capacity` pages. Returns
    /// the chosen columns (in `ColRef` order) and their total value.
    pub(crate) fn solve(
        &mut self,
        capacity: u64,
        value: impl Fn(ColRef, &CandidateInterval) -> f64,
    ) -> (Vec<ColRef>, f64) {
        let item = |p: &Priced| Item { size: p.interval.size, value: value(p.col, &p.interval) };
        let chosen = knapsack::solve_in(&mut self.scratch, self.priced.iter().map(item), capacity);
        let total = chosen.iter().map(|&i| item(&self.priced[i]).value).sum();
        (chosen.into_iter().map(|i| self.priced[i].col).collect(), total)
    }

    /// Run the skip-proof for `col`, optionally tightening the upper
    /// bound with a per-query gain bound from the engine's what-if memo.
    /// `gain_bound` is asked for at most once, and not at all when the
    /// answer cannot depend on it: an unpriced candidate, and one
    /// already proven skippable this epoch.
    ///
    /// Returns `Some((lo, hi))` — the interval the proof fired over —
    /// when no value in the candidate's interval can change the knapsack
    /// solution, so the probe can be skipped without charging the
    /// budget; `None` when the probe must be issued (including for
    /// unpriced candidates, whose bounds are uninformative).
    ///
    /// Verdicts are kept for the epoch: a candidate already proven
    /// skippable stays skipped, and a failed proof is re-attempted only
    /// under a tighter upper bound — it fails at every looser one.
    pub fn skip_proof(
        &mut self,
        col: ColRef,
        gain_bound: impl FnOnce() -> Option<f64>,
    ) -> Option<(f64, f64)> {
        let at = self.position(col).ok()?;
        let Priced { interval: it, verdict, .. } = self.priced[at];
        if let Some(Verdict { skip: true, hi }) = verdict {
            return Some((it.lo, hi));
        }
        let mut hi = it.hi;
        if let Some(g) = gain_bound() {
            let projected = self.gain_scale * g.max(0.0) - it.mat_cost;
            hi = hi.min(projected.max(it.lo));
        }
        if verdict.is_some_and(|failed| hi >= failed.hi) {
            return None;
        }
        // A zero-width interval cannot straddle a decision boundary: both
        // endpoint solves are the same instance, so skip without solving.
        let skip = hi <= it.lo || {
            let pinned = |c, other: &CandidateInterval| if c == col { hi } else { other.lo };
            self.solve(self.budget_pages, pinned).0 == self.conservative.0
        };
        self.priced[at].verdict = Some(Verdict { skip, hi });
        skip.then_some((it.lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_catalog::TableId;
    use colt_storage::Prng;

    fn col(i: u32) -> ColRef {
        ColRef::new(TableId(0), i)
    }

    fn iv(size: u64, lo: f64, hi: f64) -> CandidateInterval {
        CandidateInterval { size, lo, hi, mat_cost: 0.0 }
    }

    #[test]
    fn hopeless_candidate_is_skipped() {
        // Budget fits one index; the incumbent's value dwarfs the
        // candidate's whole interval, so probing cannot matter.
        let pool = [(col(0), iv(10, 100.0, 100.0)), (col(1), iv(10, 1.0, 5.0))];
        let mut ctx = DecisionContext::new(10, 0.0, pool);
        assert_eq!(ctx.skip_proof(col(1), || None), Some((1.0, 5.0)));
    }

    #[test]
    fn locked_in_candidate_is_skipped() {
        // The candidate wins at both ends of its interval: equally
        // decided, equally skippable.
        let pool = [(col(0), iv(10, 1.0, 1.0)), (col(1), iv(10, 50.0, 80.0))];
        let mut ctx = DecisionContext::new(10, 0.0, pool);
        assert_eq!(ctx.skip_proof(col(1), || None), Some((50.0, 80.0)));
    }

    /// Budget fits one index: at `lo` the incumbent wins, at `hi` the
    /// candidate `col(1)` displaces it.
    fn straddling(gain_scale: f64, mat_cost: f64) -> DecisionContext {
        let candidate = CandidateInterval { size: 10, lo: 5.0, hi: 50.0, mat_cost };
        DecisionContext::new(10, gain_scale, [(col(0), iv(10, 10.0, 10.0)), (col(1), candidate)])
    }

    #[test]
    fn straddling_candidate_must_be_probed() {
        // The probe decides the epoch.
        assert_eq!(straddling(0.0, 0.0).skip_proof(col(1), || None), None);
    }

    #[test]
    fn unpriced_candidate_is_never_skipped() {
        let mut ctx = DecisionContext::new(10, 0.0, [(col(0), iv(10, 10.0, 10.0))]);
        assert_eq!(ctx.skip_proof(col(9), || None), None);
        assert!(ctx.width(col(9)).is_infinite(), "unpriced = maximally uncertain");
    }

    #[test]
    fn engine_bound_tightens_the_proof() {
        // The engine's memoized base cost caps the reachable gain below
        // the decision boundary:
        // projected hi = 2.0 * 4.0 - 0 = 8.0 < 10.0: cannot displace.
        assert_eq!(straddling(2.0, 0.0).skip_proof(col(1), || Some(4.0)), Some((5.0, 8.0)));
    }

    #[test]
    fn verdicts_are_memoized_and_upgrade_on_tighter_bounds() {
        let mut ctx = straddling(2.0, 0.0);
        assert_eq!(ctx.skip_proof(col(1), || None), None);
        // A looser (or equal) bound reuses the failed verdict.
        assert_eq!(ctx.skip_proof(col(1), || Some(30.0)), None);
        // A strictly tighter bound re-runs the proof and flips it.
        assert_eq!(ctx.skip_proof(col(1), || Some(4.0)), Some((5.0, 8.0)));
        // The skip verdict then sticks, even if later bounds are loose.
        assert_eq!(ctx.skip_proof(col(1), || None), Some((5.0, 8.0)));
    }

    #[test]
    fn gain_bound_is_asked_for_once_and_only_when_it_can_matter() {
        let asked = std::cell::Cell::new(0);
        let bound = |g: Option<f64>| {
            let asked = &asked;
            move || {
                asked.set(asked.get() + 1);
                g
            }
        };
        let mut ctx = straddling(2.0, 0.0);
        // Unpriced: probed whatever the bound.
        assert_eq!(ctx.skip_proof(col(9), bound(Some(4.0))), None);
        assert_eq!(asked.get(), 0);
        // No verdict yet, then a failed one a tighter bound may flip:
        // asked once per attempt.
        assert_eq!(ctx.skip_proof(col(1), bound(None)), None);
        assert_eq!(asked.get(), 1);
        assert_eq!(ctx.skip_proof(col(1), bound(Some(4.0))), Some((5.0, 8.0)));
        assert_eq!(asked.get(), 2);
        // Proven skippable: the verdict stands whatever the bound.
        assert_eq!(ctx.skip_proof(col(1), bound(Some(1.0))), Some((5.0, 8.0)));
        assert_eq!(asked.get(), 2);
    }

    #[test]
    fn mat_cost_is_subtracted_from_projected_bounds() {
        // projected hi = 2.0 * 4.0 - 3.0 = 5.0: pinned at lo, skip.
        assert_eq!(straddling(2.0, 3.0).skip_proof(col(1), || Some(4.0)), Some((5.0, 5.0)));
    }

    /// Seeded property test (the soundness theorem, empirically): on
    /// random candidate frames, whenever the skip-proof fires for a
    /// candidate, the knapsack solved with that candidate at *any* value
    /// inside its interval yields exactly the chosen set of the
    /// conservative solution — i.e. the skipped probe could not have
    /// changed the decision, so knapsacks with and without the skipped
    /// probe agree. When it does not fire, no looser bound restores the
    /// conservative solution either, which is why a failed verdict is
    /// re-attempted only under a tighter one. And fresh candidates
    /// (conservative price at most zero) admitted after the frame was
    /// solved leave its conservative solution the optimum.
    #[test]
    fn skip_proof_is_sound_on_random_instances() {
        let mut prng = Prng::new(0x5EED_5EED);
        let mut fired = 0usize;
        let mut cases = 0usize;
        while cases < 40 {
            cases += 1;
            let n = 2 + (prng.next_u64() % 7) as usize;
            let budget = 10 + prng.next_u64() % 90;
            let mut interval = |fresh: bool| {
                let size = 1 + prng.next_u64() % 40;
                let lo = (prng.next_u64() % 1000) as f64 / 10.0;
                let width = (prng.next_u64() % 500) as f64 / 10.0;
                let lo = if fresh { -lo } else { lo };
                CandidateInterval { size, lo, hi: lo + width, mat_cost: 0.0 }
            };
            // Pool columns at the even positions, fresh ones between them.
            let pool: Vec<_> = (0..n).map(|i| (col(2 * i as u32), interval(false))).collect();
            let mut ctx = DecisionContext::new(budget, 0.0, pool);
            for i in 0..n / 2 {
                ctx.admit(col(4 * i as u32 + 1), interval(true));
            }
            let candidates: Vec<(ColRef, CandidateInterval)> =
                ctx.iter().map(|(c, it)| (c, *it)).collect();
            let direct: Vec<ColRef> = knapsack::solve(
                candidates.iter().map(|(_, it)| Item { size: it.size, value: it.lo }),
                budget,
            )
            .into_iter()
            .map(|i| candidates[i].0)
            .collect();
            assert_eq!(ctx.conservative().0, direct, "case {cases}: fresh candidates moved it");

            let pinned = |ctx: &mut DecisionContext, c: ColRef, v: f64| {
                ctx.solve(budget, |other, it| if other == c { v } else { it.lo }).0
            };
            for (c, it) in candidates {
                let Some((lo, hi)) = ctx.skip_proof(c, || None) else {
                    for k in 0..=4 {
                        let looser = it.hi + (prng.next_u64() % 500) as f64 * k as f64;
                        assert_ne!(
                            pinned(&mut ctx, c, looser),
                            ctx.conservative().0,
                            "case {cases}: the proof failed at {} and holds at {looser}",
                            it.hi
                        );
                    }
                    continue;
                };
                fired += 1;
                // Endpoints plus interior samples of the interval.
                for k in 0..=4 {
                    let v = lo + (hi - lo) * k as f64 / 4.0;
                    assert_eq!(
                        pinned(&mut ctx, c, v),
                        ctx.conservative().0,
                        "case {cases}: probe at {v} in [{lo}, {hi}] changed the decision"
                    );
                }
            }
        }
        assert!(fired > 10, "proof must fire on a healthy fraction of instances, got {fired}");
    }
}
