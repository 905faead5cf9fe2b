//! AMPPM Step 4: choose multiplicities `(m1, m2)` that realize a target
//! dimming level between two envelope patterns.
//!
//! Given two candidate patterns `S1`, `S2` bracketing the target level,
//! the mixer searches the integer multiplicities with
//! `m1·N1 + m2·N2 ≤ Nmax` for the super-symbol whose dimming level is
//! closest to the target; among equally-close options it takes the
//! highest data rate, then the shortest super-symbol (more header-rate
//! agility, lower latency).
//!
//! The search is not free. At the paper's calibration (`Nmax = 500`,
//! `N ≥ 10`) one pair has up to `51 × 51` mixes, and the planner tries
//! every candidate pair inside the hull edge — about 120 pairs per level,
//! ~350 µs per level when every mix is scored. Two exact prunings cut
//! that to ~60 µs:
//!
//! * **Bisection within a row.** For fixed `m1`, the dimming
//!   `(m1·K1 + m2·K2)/(m1·N1 + m2·N2)` is monotone in `m2` (its slope has
//!   the sign of `K2·N1 − K1·N2`), and so is its correctly rounded `f64`.
//!   The in-tolerance mixes of a row are therefore one contiguous run of
//!   `m2`: [`best_mix`] bisects to the run's start and walks it, scoring
//!   exactly the in-tolerance mixes the full scan would, in the same
//!   order. Because the ranking never lets an out-of-tolerance mix
//!   displace an in-tolerance one, folding only the in-tolerance mixes
//!   gives the full scan's pick whenever that pick is in tolerance. Only
//!   a pair with no in-tolerance mix at all falls back to the full scan
//!   (and the planner skips even that once its answer is known to be in
//!   tolerance).
//! * **Chord bound across pairs** (in the planner). Every mix of a pair
//!   lies on the chord between the two patterns' (dimming, rate) points,
//!   since both coordinates are the same slot-weighted average. So no
//!   in-tolerance mix of the pair beats the chord's larger value at
//!   `target ± tolerance`. The planner first finds the hull-edge pair's
//!   best in-tolerance rate and skips every pair whose bound is more than
//!   1e-6 below it. Such a pair cannot hold the winner, and it cannot
//!   steer the fold either: in-tolerance mixes compete on rate with a
//!   1e-12 tie band, and that band cannot drift 1e-6 over a few hundred
//!   pairs, so any mix near the edge's rate displaces everything the
//!   skipped pair could have put in its place.

use super::candidates::Candidate;
use super::super_symbol::SuperSymbol;
use combinat::BinomialTable;

/// A concrete multiplexing choice with its figures of merit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mix {
    /// The composed super-symbol.
    pub super_symbol: SuperSymbol,
    /// Achieved dimming level (exact ratio of the super-symbol).
    pub dimming: f64,
    /// Normalized data rate (bits per slot).
    pub norm_rate: f64,
    /// Absolute dimming error versus the requested target.
    pub dimming_error: f64,
}

/// Ranking rule shared by the mixer and the planner: a dimming error at or
/// below `tolerance` is "close enough" (the header quantizes levels anyway),
/// so all in-tolerance mixes compete on rate; out-of-tolerance mixes
/// compete on error first. Ties fall through to rate, then to the shorter
/// super-symbol.
pub(crate) fn mix_is_better(m: &Mix, cur: &Mix, tolerance: f64) -> bool {
    let m_ok = m.dimming_error <= tolerance;
    let cur_ok = cur.dimming_error <= tolerance;
    if m_ok != cur_ok {
        return m_ok;
    }
    if !m_ok && (m.dimming_error - cur.dimming_error).abs() > 1e-12 {
        return m.dimming_error < cur.dimming_error;
    }
    if (m.norm_rate - cur.norm_rate).abs() > 1e-12 {
        return m.norm_rate > cur.norm_rate;
    }
    if (m.dimming_error - cur.dimming_error).abs() > 1e-12 {
        return m.dimming_error < cur.dimming_error;
    }
    m.super_symbol.n_super() < cur.super_symbol.n_super()
}

/// Find the best `(m1, m2)` for `target` between candidates `left` and
/// `right` (which may be the same pattern for an exact hull hit). Mixes
/// landing within `tolerance` of the target compete on rate (see the
/// crate-private `mix_is_better` ranking rule).
///
/// Returns `None` only if `n_max` is too small to fit even one symbol.
pub fn best_mix(
    left: &Candidate,
    right: &Candidate,
    target: f64,
    tolerance: f64,
    n_max: u32,
    table: &BinomialTable,
) -> Option<Mix> {
    let pair = Pair::new(left, right, target, n_max);
    let best = pair
        .best_in_tolerance(tolerance)
        .or_else(|| pair.full_scan(tolerance));
    // bits(table) is only used in debug builds to cross-check the inline sum.
    if let Some(m) = &best {
        debug_assert_eq!(
            m.super_symbol.bits(table),
            (m.norm_rate * m.super_symbol.n_super() as f64).round() as u32
        );
    }
    best
}

/// An upper bound on the rate of any mix of `left` and `right` within
/// `tolerance` of `target`: the chord between the two patterns'
/// (dimming, rate) points, at the larger of its values over the
/// in-tolerance dimming interval.
pub(crate) fn rate_bound(left: &Candidate, right: &Candidate, target: f64, tolerance: f64) -> f64 {
    let (d1, d2) = (left.dimming(), right.dimming());
    if d2 <= d1 {
        return left.norm_rate.max(right.norm_rate);
    }
    let chord = |d: f64| {
        let t = (d.clamp(d1, d2) - d1) / (d2 - d1);
        left.norm_rate + t * (right.norm_rate - left.norm_rate)
    };
    chord(target - tolerance).max(chord(target + tolerance))
}

/// One candidate pair's mix grid, rows indexed by `m1`.
pub(crate) struct Pair<'a> {
    left: &'a Candidate,
    right: &'a Candidate,
    target: f64,
    n_max: u32,
}

impl<'a> Pair<'a> {
    pub(crate) fn new(left: &'a Candidate, right: &'a Candidate, target: f64, n_max: u32) -> Self {
        Pair {
            left,
            right,
            target,
            n_max,
        }
    }

    /// The largest `m2` of row `m1`. Same pattern on both sides: only
    /// `m2 = 0` avoids double counting.
    fn m2_cap(&self, m1: u32) -> u32 {
        if self.left.pattern == self.right.pattern {
            0
        } else {
            (self.n_max - m1 * self.left.pattern.n() as u32) / self.right.pattern.n() as u32
        }
    }

    fn m1_cap(&self) -> u32 {
        self.n_max / self.left.pattern.n() as u32
    }

    /// Slot count of `⟨S1, m1, S2, m2⟩`.
    fn n_super(&self, m1: u32, m2: u32) -> u32 {
        m1 * self.left.pattern.n() as u32 + m2 * self.right.pattern.n() as u32
    }

    /// Dimming level of `⟨S1, m1, S2, m2⟩`.
    fn dimming(&self, m1: u32, m2: u32) -> f64 {
        let ones = m1 * self.left.pattern.k() as u32 + m2 * self.right.pattern.k() as u32;
        ones as f64 / self.n_super(m1, m2) as f64
    }

    /// The mix `⟨S1, m1, S2, m2⟩` with its figures of merit.
    fn mix(&self, m1: u32, m2: u32) -> Mix {
        let (s1, s2) = (self.left.pattern, self.right.pattern);
        let n_super = self.n_super(m1, m2);
        debug_assert!(n_super <= self.n_max);
        let dimming = self.dimming(m1, m2);
        let bits = m1 * self.left.bits + m2 * self.right.bits;
        Mix {
            super_symbol: SuperSymbol::new(s1, m1 as u16, s2, m2 as u16)
                .expect("m1 + m2 >= 1 by construction"),
            dimming,
            norm_rate: bits as f64 / n_super as f64,
            dimming_error: (dimming - self.target).abs(),
        }
    }

    /// The ranking fold over every mix, row by row.
    pub(crate) fn full_scan(&self, tolerance: f64) -> Option<Mix> {
        let mut best: Option<Mix> = None;
        for m1 in 0..=self.m1_cap() {
            for m2 in 0..=self.m2_cap(m1) {
                if m1 > 0 || m2 > 0 {
                    fold(&mut best, self.mix(m1, m2), tolerance);
                }
            }
        }
        best
    }

    /// The ranking fold over the in-tolerance mixes only, in full-scan
    /// order; `None` when the pair has no in-tolerance mix.
    pub(crate) fn best_in_tolerance(&self, tolerance: f64) -> Option<Mix> {
        let rising = self.left.dimming() <= self.right.dimming();
        let mut best: Option<Mix> = None;
        for m1 in 0..=self.m1_cap() {
            let (first, last) = (u32::from(m1 == 0), self.m2_cap(m1));
            if first > last {
                continue;
            }
            // First m2 of the row that has reached the tolerance band
            // (dimming, hence `dimming − target`, is monotone in m2: it
            // rises toward S2's level when S2 is the brighter pattern).
            let (mut lo, mut hi) = (first, last + 1);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                let off = self.dimming(m1, mid) - self.target;
                let short = if rising {
                    off < -tolerance
                } else {
                    off > tolerance
                };
                if short {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            for m2 in lo..=last {
                let m = self.mix(m1, m2);
                if m.dimming_error > tolerance {
                    break;
                }
                fold(&mut best, m, tolerance);
            }
        }
        best
    }
}

/// One step of the ranking fold: `m` replaces `best` if it ranks higher.
pub(crate) fn fold(best: &mut Option<Mix>, m: Mix, tolerance: f64) {
    if best
        .as_ref()
        .is_none_or(|cur| mix_is_better(&m, cur, tolerance))
    {
        *best = Some(m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amppm::candidates::Candidate;
    use crate::config::SystemConfig;
    use crate::symbol::SymbolPattern;
    use proptest::prelude::*;

    proptest! {
        /// The pruned search is exact: whenever the full scan's pick is in
        /// tolerance, the bisected in-tolerance fold returns the same mix,
        /// bit for bit; when it is not, the pruned fold finds nothing.
        #[test]
        fn pruned_search_matches_the_full_scan(
            n1 in 2u16..=60,
            k1 in 0u16..=60,
            n2 in 2u16..=60,
            k2 in 0u16..=60,
            t in 0.0f64..=1.0,
            tol_pick in 0usize..4,
            n_max in 10u32..=500,
        ) {
            let table = BinomialTable::new(512);
            let a = cand(n1, k1.min(n1), &table);
            let b = cand(n2, k2.min(n2), &table);
            let target = a.dimming() + t * (b.dimming() - a.dimming());
            let tolerance = [0.0, 1.0 / 2048.0, 1e-3, 0.02][tol_pick];
            let pair = Pair::new(&a, &b, target, n_max);
            let full = pair.full_scan(tolerance);
            let pruned = pair.best_in_tolerance(tolerance);
            match full {
                Some(f) if f.dimming_error <= tolerance => {
                    let p = pruned.expect("an in-tolerance mix exists");
                    prop_assert_eq!(p.super_symbol, f.super_symbol);
                    prop_assert_eq!(p.norm_rate.to_bits(), f.norm_rate.to_bits());
                    prop_assert_eq!(p.dimming_error.to_bits(), f.dimming_error.to_bits());
                    prop_assert!(p.norm_rate <= rate_bound(&a, &b, target, tolerance) + 1e-9);
                }
                _ => prop_assert!(pruned.is_none()),
            }
            prop_assert_eq!(best_mix(&a, &b, target, tolerance, n_max, &table), full);
        }
    }

    fn cand(n: u16, k: u16, table: &BinomialTable) -> Candidate {
        Candidate::evaluate(
            SymbolPattern::new(n, k).unwrap(),
            &SystemConfig::default(),
            table,
        )
    }

    #[test]
    fn exact_hull_hit_uses_single_pattern() {
        let t = BinomialTable::new(512);
        let c = cand(21, 11, &t);
        let m = best_mix(&c, &c, c.dimming(), 0.0, 500, &t).unwrap();
        assert_eq!(m.dimming_error, 0.0);
        assert_eq!(m.super_symbol.m2(), 0);
        // Rate equals the pattern's own rate.
        assert!((m.norm_rate - c.norm_rate).abs() < 1e-12);
        // Fills the Nmax budget as tightly as possible? No: shortest
        // super-symbol wins among equal (error, rate).
        assert_eq!(m.super_symbol.m1(), 1);
    }

    #[test]
    fn paper_fig5_mix_is_found() {
        // Target 0.15 between S(10,0.1) and S(10,0.2): the 1+1 mix hits it
        // exactly (paper Fig. 5).
        let t = BinomialTable::new(512);
        let a = cand(10, 1, &t);
        let b = cand(10, 2, &t);
        let m = best_mix(&a, &b, 0.15, 0.0, 500, &t).unwrap();
        assert!(m.dimming_error < 1e-12);
        assert!((m.dimming - 0.15).abs() < 1e-12);
        let ss = m.super_symbol;
        // Equal slot counts from both patterns.
        assert_eq!(
            ss.m1() as u32 * ss.s1().n() as u32,
            ss.m2() as u32 * ss.s2().n() as u32
        );
    }

    #[test]
    fn finer_target_needs_unequal_mix() {
        // Target 0.175: three (10,0.2) per one (10,0.1), paper Sec. 4.1.2.
        let t = BinomialTable::new(512);
        let a = cand(10, 1, &t);
        let b = cand(10, 2, &t);
        let m = best_mix(&a, &b, 0.175, 0.0, 500, &t).unwrap();
        assert!(m.dimming_error < 1e-12);
        let ss = m.super_symbol;
        let slots1 = ss.m1() as u32 * 10;
        let slots2 = ss.m2() as u32 * 10;
        assert_eq!(slots2, 3 * slots1);
    }

    #[test]
    fn length_bound_is_respected() {
        let t = BinomialTable::new(512);
        let a = cand(10, 1, &t);
        let b = cand(10, 2, &t);
        for n_max in [20u32, 40, 100, 500] {
            let m = best_mix(&a, &b, 0.147, 0.0, n_max, &t).unwrap();
            assert!(m.super_symbol.n_super() <= n_max, "n_max={n_max}");
        }
    }

    #[test]
    fn tight_budget_still_returns_something() {
        let t = BinomialTable::new(512);
        let a = cand(10, 1, &t);
        let b = cand(12, 2, &t);
        let m = best_mix(&a, &b, 0.15, 0.0, 10, &t).unwrap();
        assert_eq!(m.super_symbol.n_super(), 10); // only one S1 fits
    }

    #[test]
    fn impossible_budget_returns_none() {
        let t = BinomialTable::new(512);
        let a = cand(10, 1, &t);
        let b = cand(12, 2, &t);
        assert!(best_mix(&a, &b, 0.15, 0.0, 9, &t).is_none());
    }

    #[test]
    fn larger_budget_never_hurts_accuracy() {
        let t = BinomialTable::new(512);
        let a = cand(10, 1, &t);
        let b = cand(10, 2, &t);
        let mut prev_err = f64::INFINITY;
        for n_max in [20u32, 60, 120, 240, 500] {
            let m = best_mix(&a, &b, 0.1234, 0.0, n_max, &t).unwrap();
            assert!(m.dimming_error <= prev_err + 1e-15, "n_max={n_max}");
            prev_err = m.dimming_error;
        }
        // At Nmax = 500 the grid is fine enough for ~1e-3 accuracy.
        assert!(prev_err < 2e-3, "err={prev_err}");
    }

    #[test]
    fn rate_matches_envelope_interpolation_closely() {
        // Between two same-N hull points the best mix's rate should be
        // close to (and never meaningfully above) the linear interpolation.
        let t = BinomialTable::new(512);
        let a = cand(21, 10, &t);
        let b = cand(21, 11, &t);
        let target = 0.5; // between 10/21 and 11/21
        let m = best_mix(&a, &b, target, 0.0, 500, &t).unwrap();
        let ta = (target - a.dimming()) / (b.dimming() - a.dimming());
        let interp = a.norm_rate + ta * (b.norm_rate - a.norm_rate);
        assert!(
            (m.norm_rate - interp).abs() < 0.02,
            "mix={} interp={interp}",
            m.norm_rate
        );
    }
}
