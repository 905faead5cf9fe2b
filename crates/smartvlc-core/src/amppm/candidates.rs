//! AMPPM Steps 1–2: enumerate symbol patterns and filter by flicker and
//! symbol-error-rate bounds (Fig. 8 of the paper).

use crate::config::SystemConfig;
use crate::symbol::SymbolPattern;
use combinat::BinomialTable;

/// A symbol pattern that survived the Step-1/Step-2 filters, with its
/// precomputed figures of merit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Candidate {
    /// The pattern `S(N, K/N)`.
    pub pattern: SymbolPattern,
    /// Data bits per symbol, `⌊log2 C(N,K)⌋`.
    pub bits: u32,
    /// Normalized data rate, `bits / N` (bits per slot).
    pub norm_rate: f64,
    /// Eq. 3 symbol error rate on the configured channel.
    pub ser: f64,
}

impl Candidate {
    /// Dimming level `K/N` as a plain `f64`.
    pub fn dimming(&self) -> f64 {
        self.pattern.dimming().value()
    }

    /// Evaluate a pattern against a config (no filtering).
    pub fn evaluate(
        pattern: SymbolPattern,
        cfg: &SystemConfig,
        table: &BinomialTable,
    ) -> Candidate {
        let bits = pattern.bits_per_symbol(table);
        Candidate {
            pattern,
            bits,
            norm_rate: bits as f64 / pattern.n() as f64,
            ser: cfg.slot_errors.symbol_error_rate(pattern),
        }
    }
}

/// Enumerate every admissible symbol pattern under the paper's two
/// constraints:
///
/// * **Step 1 (flicker / Eq. 4):** a single symbol must fit inside one
///   super-symbol, so `N ≤ Nmax = ftx/fth`.
/// * **Step 2 (reliability / Eq. 3, Fig. 8):** patterns with
///   `PSER > ser_upper_bound` are abandoned.
///
/// All `K ∈ [0, N]` are considered: the `K = 0` / `K = N` degenerate
/// patterns carry no data (`bits = 0`) but let the envelope reach the
/// extreme dimming levels, exactly as compensation slots do in OOK-CT.
///
/// The returned list is sorted by `(dimming, -norm_rate)`. It is empty only
/// for pathological configs (SER bound below the error floor of the
/// smallest admissible symbol).
pub fn candidate_patterns(cfg: &SystemConfig, table: &BinomialTable) -> Vec<Candidate> {
    let n_cap = cfg
        .n_max_super()
        .min(table.max_n() as u64)
        .min(u16::MAX as u64) as u16;
    let mut out = Vec::new();
    for n in cfg.n_min..=n_cap {
        let mut any = false;
        for k in 0..=n {
            let pattern = SymbolPattern::new(n, k).expect("k <= n by construction");
            // Cheap SER test first; only survivors pay for the binomial.
            let ser = cfg.slot_errors.symbol_error_rate(pattern);
            if ser > cfg.ser_upper_bound {
                continue;
            }
            any = true;
            out.push(Candidate::evaluate(pattern, cfg, table));
        }
        // SER at fixed dimming grows monotonically with N, so once a whole
        // row is filtered out no larger N can pass either. (Both P1 and P2
        // contribute per-slot, so every K of a longer symbol errs more than
        // the same-dimming K of a shorter one.)
        if !any {
            break;
        }
    }
    out.sort_by(|a, b| {
        a.dimming()
            .partial_cmp(&b.dimming())
            .expect("dimming is finite")
            .then(
                b.norm_rate
                    .partial_cmp(&a.norm_rate)
                    .expect("rate is finite"),
            )
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SystemConfig, BinomialTable) {
        (SystemConfig::default(), BinomialTable::new(512))
    }

    #[test]
    fn all_candidates_satisfy_both_bounds() {
        let (cfg, t) = setup();
        let cands = candidate_patterns(&cfg, &t);
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(c.ser <= cfg.ser_upper_bound, "{:?}", c);
            assert!((c.pattern.n() as u64) <= cfg.n_max_super());
            assert!(c.pattern.n() >= cfg.n_min);
        }
    }

    #[test]
    fn paper_fig9_range_is_admitted() {
        // Fig. 9 plots candidates N = 10..=21 around l = 0.5; all must
        // survive the calibrated bound, including the chosen S(21, 0.524).
        let (cfg, t) = setup();
        let cands = candidate_patterns(&cfg, &t);
        for n in 10..=21u16 {
            let k = n / 2;
            assert!(
                cands
                    .iter()
                    .any(|c| c.pattern.n() == n && c.pattern.k() == k),
                "S({n},{k}) missing"
            );
        }
        assert!(cands
            .iter()
            .any(|c| c.pattern.n() == 21 && c.pattern.k() == 11));
    }

    #[test]
    fn mppm_baseline_n20_is_admitted_everywhere() {
        // The paper's MPPM baseline uses N=20 across all 17 dimming levels.
        let (cfg, t) = setup();
        let cands = candidate_patterns(&cfg, &t);
        for k in 0..=20u16 {
            assert!(
                cands
                    .iter()
                    .any(|c| c.pattern.n() == 20 && c.pattern.k() == k),
                "S(20,{k}) missing"
            );
        }
    }

    #[test]
    fn oversized_n_is_filtered_by_ser() {
        // With the measured P1/P2, N=50 exceeds 2.5e-3 for every K
        // (SER >= 50 * 8e-5 = 4e-3), mirroring Fig. 8's abandonment.
        let (cfg, t) = setup();
        let cands = candidate_patterns(&cfg, &t);
        assert!(cands.iter().all(|c| c.pattern.n() < 50));
    }

    #[test]
    fn stricter_bound_shrinks_candidate_set() {
        let (mut cfg, t) = setup();
        let full = candidate_patterns(&cfg, &t).len();
        cfg.ser_upper_bound = 1e-3; // the paper's stated figure
        let strict = candidate_patterns(&cfg, &t);
        assert!(strict.len() < full);
        // Under the strict reading, S(21,11) itself is abandoned.
        assert!(!strict
            .iter()
            .any(|c| c.pattern.n() == 21 && c.pattern.k() == 11));
    }

    #[test]
    fn flicker_bound_caps_n_when_ser_allows_more() {
        // With a near-ideal channel the SER filter admits everything, so
        // the Eq. 4 bound must be the one that caps N.
        let (mut cfg, t) = setup();
        cfg.slot_errors.p_off_error = 1e-9;
        cfg.slot_errors.p_on_error = 1e-9;
        cfg.fth_hz = 12_500; // Nmax = 10
        let cands = candidate_patterns(&cfg, &t);
        assert!(!cands.is_empty());
        assert!(cands.iter().all(|c| c.pattern.n() == 10)); // n_min = Nmax = 10
    }

    #[test]
    fn sorted_by_dimming_then_rate() {
        let (cfg, t) = setup();
        let cands = candidate_patterns(&cfg, &t);
        for w in cands.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            assert!(
                a.dimming() < b.dimming()
                    || (a.dimming() == b.dimming() && a.norm_rate >= b.norm_rate)
            );
        }
    }

    #[test]
    fn degenerate_patterns_reach_extremes() {
        let (cfg, t) = setup();
        let cands = candidate_patterns(&cfg, &t);
        assert_eq!(cands.first().unwrap().dimming(), 0.0);
        assert_eq!(cands.last().unwrap().dimming(), 1.0);
        assert_eq!(cands.first().unwrap().bits, 0);
    }

    #[test]
    fn impossible_bound_yields_empty_set() {
        let (mut cfg, t) = setup();
        cfg.ser_upper_bound = 1e-12;
        assert!(candidate_patterns(&cfg, &t).is_empty());
    }
}
