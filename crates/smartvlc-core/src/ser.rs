//! Symbol-error and data-rate models — Eqs. 2 and 3 of the paper.
//!
//! The paper models photodiode detection as a Poisson photon-counting
//! process [Sugiyama & Nosu '89]; what reaches this module is its
//! distilled form: per-slot error probabilities `P1` (an OFF decoded as
//! ON) and `P2` (an ON decoded as OFF). A whole MPPM symbol decodes
//! correctly only when *every* slot does, giving Eq. 3:
//!
//! ```text
//! PSER = 1 − (1−P1)^(N−K) · (1−P2)^K
//! ```
//!
//! and the achievable data rate of pattern `S(N, l=K/N)` is Eq. 2:
//!
//! ```text
//! R = ⌊log2 C(N,K)⌋ / (N · tslot) · (1 − PSER)   bit/s
//! ```
//!
//! These analytic forms drive AMPPM's candidate filtering (Step 2) and the
//! figure generators; the Monte-Carlo channel in `vlc-channel` produces
//! the *empirical* counterparts the end-to-end experiments measure.

use crate::symbol::SymbolPattern;
use combinat::BinomialTable;

/// Per-slot detection error probabilities.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlotErrorProbs {
    /// `P1`: probability an OFF slot is decoded as ON (ambient/receiver
    /// noise pushing a dark slot over threshold). Paper measurement: 9e-5.
    pub p_off_error: f64,
    /// `P2`: probability an ON slot is decoded as OFF (shot noise /
    /// attenuation pulling a lit slot under threshold). Paper: 8e-5.
    pub p_on_error: f64,
}

impl SlotErrorProbs {
    /// The paper's measured values (§6.1: 3.6 m, high ambient noise).
    pub fn paper_measured() -> SlotErrorProbs {
        SlotErrorProbs {
            p_off_error: 9e-5,
            p_on_error: 8e-5,
        }
    }

    /// An error-free channel (useful in unit tests).
    pub fn ideal() -> SlotErrorProbs {
        SlotErrorProbs {
            p_off_error: 0.0,
            p_on_error: 0.0,
        }
    }

    /// Eq. 3: symbol error rate of pattern `s` on this channel.
    pub fn symbol_error_rate(&self, s: SymbolPattern) -> f64 {
        let n = s.n() as i32;
        let k = s.k() as i32;
        1.0 - (1.0 - self.p_off_error).powi(n - k) * (1.0 - self.p_on_error).powi(k)
    }

    /// Eq. 2: achievable data rate of pattern `s` in bit/s, given the slot
    /// duration.
    pub fn data_rate_bps(&self, s: SymbolPattern, tslot_secs: f64, table: &BinomialTable) -> f64 {
        let bits = s.bits_per_symbol(table) as f64;
        let t_symbol = s.n() as f64 * tslot_secs;
        bits / t_symbol * (1.0 - self.symbol_error_rate(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u16, k: u16) -> SymbolPattern {
        SymbolPattern::new(n, k).unwrap()
    }

    #[test]
    fn ideal_channel_has_zero_ser() {
        let p = SlotErrorProbs::ideal();
        assert_eq!(p.symbol_error_rate(s(120, 60)), 0.0);
    }

    #[test]
    fn ser_matches_linear_approximation_for_small_p() {
        // For small P: PSER ~ (N-K)P1 + K*P2.
        let p = SlotErrorProbs::paper_measured();
        let pat = s(20, 10);
        let approx = 10.0 * 9e-5 + 10.0 * 8e-5;
        let exact = p.symbol_error_rate(pat);
        assert!((exact - approx).abs() / approx < 1e-2, "exact={exact}");
    }

    #[test]
    fn ser_grows_with_n_at_fixed_dimming() {
        // Fig. 4's message: larger N means higher SER at every dimming level.
        let p = SlotErrorProbs::paper_measured();
        let mut prev = 0.0;
        for n in [10u16, 30, 50, 80, 120] {
            let ser = p.symbol_error_rate(s(n, n / 2));
            assert!(ser > prev, "N={n}: {ser} <= {prev}");
            prev = ser;
        }
    }

    #[test]
    fn ser_is_asymmetric_in_p1_p2() {
        // P1 > P2, so at fixed N a darker symbol (more OFF slots) errs more.
        let p = SlotErrorProbs::paper_measured();
        assert!(p.symbol_error_rate(s(50, 5)) > p.symbol_error_rate(s(50, 45)));
    }

    #[test]
    fn paper_fig9_pattern_ser() {
        // S(21, 0.524): PSER = 1 - (1-9e-5)^10 (1-8e-5)^11 ~ 1.78e-3... it is
        // the value that motivates our 2.5e-3 default bound (see config.rs).
        let p = SlotErrorProbs::paper_measured();
        let ser = p.symbol_error_rate(s(21, 11));
        assert!((ser - 1.78e-3).abs() < 2e-5, "ser={ser}");
        assert!(ser > 1e-3, "exceeds the paper's stated 1e-3 bound");
        assert!(ser < 2.5e-3, "within our calibrated bound");
    }

    #[test]
    fn data_rate_matches_paper_mppm_baseline() {
        // MPPM N=20 at l=0.1 -> 7 bits / 160 us ~ 43.75 Kbps (paper: 44.3
        // measured). SER correction is negligible at these probabilities.
        let p = SlotErrorProbs::paper_measured();
        let t = BinomialTable::new(64);
        let rate = p.data_rate_bps(s(20, 2), 8e-6, &t);
        assert!((rate - 43_750.0).abs() < 100.0, "rate={rate}");
    }

    #[test]
    fn data_rate_scales_with_slot_clock() {
        let p = SlotErrorProbs::ideal();
        let t = BinomialTable::new(64);
        let r1 = p.data_rate_bps(s(10, 5), 8e-6, &t);
        let r2 = p.data_rate_bps(s(10, 5), 4e-6, &t);
        assert!((r2 / r1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn extreme_error_probs_cap_rate_at_zero_ser_one() {
        let p = SlotErrorProbs {
            p_off_error: 1.0,
            p_on_error: 1.0,
        };
        let pat = s(10, 5);
        assert_eq!(p.symbol_error_rate(pat), 1.0);
        let t = BinomialTable::new(64);
        assert_eq!(p.data_rate_bps(pat, 8e-6, &t), 0.0);
    }
}
