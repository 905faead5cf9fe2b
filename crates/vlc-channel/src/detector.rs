//! Slot detection: oversampled ADC codes → slot decisions.
//!
//! The receiver samples at `fs = 4·ftx` (four samples per slot, §6.1).
//! The detector averages the interior samples of each slot (skipping the
//! edge samples smeared by the LED's rise/fall), then thresholds at the
//! midpoint of ON/OFF levels learned from the preamble.
//!
//! The module also provides the *analytic* slot error probabilities for a
//! Gaussian channel — the `P1`/`P2` that parameterize Eq. 3 of the paper:
//!
//! ```text
//! P1 = Q((thr − μ_off)/σ),   P2 = Q((μ_on − thr)/σ)
//! ```

use desim::DetRng;

/// Analytic per-slot error probabilities of a channel operating point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChannelErrorProbs {
    /// Probability an OFF slot is decided ON (the paper's `P1`).
    pub p_off_error: f64,
    /// Probability an ON slot is decided OFF (the paper's `P2`).
    pub p_on_error: f64,
}

impl ChannelErrorProbs {
    /// Fly `slots` through the slot-i.i.d. channel: clears `out` and fills
    /// it with each slot flipped with probability `P1` (OFF) or `P2` (ON).
    ///
    /// Draw for draw this is `rng.chance(p)` per slot, in slot order: the
    /// two probabilities become [`DetRng::chance_threshold`]s once per
    /// call, and each slot is one `next_u64`, one integer compare and an
    /// XOR. The stream is stepped in a local copy so its state stays in
    /// registers across the loop rather than round-tripping through memory
    /// around every store into `out`.
    pub fn flip_into(&self, rng: &mut DetRng, slots: &[bool], out: &mut Vec<bool>) {
        let t = [
            DetRng::chance_threshold(self.p_off_error),
            DetRng::chance_threshold(self.p_on_error),
        ];
        let mut local = rng.clone();
        out.clear();
        out.extend(
            slots
                .iter()
                .map(|&s| s ^ ((local.next_u64() >> 11) < t[usize::from(s)])),
        );
        *rng = local;
    }
}

/// The Gaussian tail function `Q(x) = P(N(0,1) > x)`.
///
/// Computed via the Abramowitz–Stegun 7.1.26 erfc approximation
/// (|ε| < 1.5e-7 on erfc). Against an exact `Q`: absolute error under
/// 7e-8 everywhere; relative error at most 0.36% for `Q ≥ 1e-9`, growing
/// into the tail to ~1% near `1e-16` and ~3% near `1e-29`.
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / core::f64::consts::SQRT_2)
}

/// Complementary error function, A&S 7.1.26 polynomial approximation.
pub fn erfc(x: f64) -> f64 {
    let sign_neg = x < 0.0;
    let x_abs = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x_abs);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let res = poly * (-x_abs * x_abs).exp();
    if sign_neg {
        2.0 - res
    } else {
        res
    }
}

/// Decision statistics learned from the preamble and applied per slot.
#[derive(Clone, Copy, Debug)]
pub struct SlotDetector {
    /// Mean detected level for ON slots (input-referred current, A).
    pub mu_on_a: f64,
    /// Mean detected level for OFF slots (A).
    pub mu_off_a: f64,
    /// Per-decision noise standard deviation (A), after slot averaging.
    pub sigma_a: f64,
}

impl SlotDetector {
    /// Train a detector from known alternating preamble slot levels.
    /// `levels` are per-slot detected currents; `pattern` marks which were
    /// transmitted ON. Returns `None` if either class is missing or the
    /// inputs disagree in length (a truncated preamble capture is a
    /// recoverable condition, not a programming error).
    pub fn train(levels: &[f64], pattern: &[bool]) -> Option<SlotDetector> {
        if levels.len() != pattern.len() {
            return None;
        }
        let (mut on_sum, mut on_n, mut off_sum, mut off_n) = (0.0, 0usize, 0.0, 0usize);
        for (&v, &p) in levels.iter().zip(pattern) {
            if p {
                on_sum += v;
                on_n += 1;
            } else {
                off_sum += v;
                off_n += 1;
            }
        }
        if on_n == 0 || off_n == 0 {
            return None;
        }
        let mu_on = on_sum / on_n as f64;
        let mu_off = off_sum / off_n as f64;
        // Pooled within-class variance estimate.
        let mut var_sum = 0.0;
        for (&v, &p) in levels.iter().zip(pattern) {
            let mu = if p { mu_on } else { mu_off };
            var_sum += (v - mu) * (v - mu);
        }
        let sigma = (var_sum / levels.len() as f64).sqrt();
        Some(SlotDetector {
            mu_on_a: mu_on,
            mu_off_a: mu_off,
            sigma_a: sigma.max(1e-15),
        })
    }

    /// Build directly from an analytic operating point.
    pub fn from_levels(mu_on_a: f64, mu_off_a: f64, sigma_a: f64) -> SlotDetector {
        SlotDetector {
            mu_on_a,
            mu_off_a,
            sigma_a: sigma_a.max(1e-15),
        }
    }

    /// The decision threshold (midpoint).
    pub fn threshold(&self) -> f64 {
        0.5 * (self.mu_on_a + self.mu_off_a)
    }

    /// Decide one slot from its averaged level.
    pub fn decide(&self, level_a: f64) -> bool {
        level_a > self.threshold()
    }

    /// Allocation-free batch decision: clears and fills `out`. The
    /// threshold is computed once per call (not once per slot as
    /// `decide` does) and the comparison loop is branch-free, so the
    /// autovectorizer can chew through a frame of levels.
    pub fn decide_into(&self, levels: &[f64], out: &mut Vec<bool>) {
        let thr = self.threshold();
        out.clear();
        out.reserve(levels.len());
        out.extend(levels.iter().map(|&v| v > thr));
    }

    /// Q-factor of the operating point: `(μ_on − μ_off) / 2σ`.
    pub fn q_factor(&self) -> f64 {
        (self.mu_on_a - self.mu_off_a) / (2.0 * self.sigma_a)
    }

    /// Analytic `P1`/`P2` at this operating point (Gaussian tails around
    /// the midpoint threshold). The threshold sits midway, so both tails
    /// are the same `Q(q)`, computed once.
    pub fn error_probs(&self) -> ChannelErrorProbs {
        let p = q_function(self.q_factor().max(0.0));
        ChannelErrorProbs {
            p_off_error: p,
            p_on_error: p,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_function_known_values() {
        assert!((q_function(0.0) - 0.5).abs() < 1e-7);
        assert!((q_function(1.0) - 0.158_655).abs() < 1e-5);
        assert!((q_function(2.0) - 0.022_750).abs() < 1e-5);
        assert!((q_function(3.0) - 1.349_9e-3).abs() < 1e-6);
        // Symmetry: Q(-x) = 1 - Q(x).
        assert!((q_function(-1.0) - (1.0 - q_function(1.0))).abs() < 1e-7);
    }

    #[test]
    fn paper_p1_p2_correspond_to_q_about_3_75() {
        // The paper measured P1 = 9e-5; that's Q(3.75) — a healthy link.
        let p = q_function(3.746);
        assert!((p - 9e-5).abs() < 5e-6, "p={p}");
    }

    #[test]
    fn train_recovers_levels() {
        let pattern: Vec<bool> = (0..24).map(|i| i % 2 == 0).collect();
        let levels: Vec<f64> = pattern
            .iter()
            .map(|&p| if p { 1.0e-6 } else { 0.2e-6 })
            .collect();
        let d = SlotDetector::train(&levels, &pattern).unwrap();
        assert!((d.mu_on_a - 1.0e-6).abs() < 1e-12);
        assert!((d.mu_off_a - 0.2e-6).abs() < 1e-12);
        assert!((d.threshold() - 0.6e-6).abs() < 1e-12);
    }

    #[test]
    fn train_requires_both_classes() {
        assert!(SlotDetector::train(&[1.0, 1.0], &[true, true]).is_none());
        assert!(SlotDetector::train(&[0.0, 0.0], &[false, false]).is_none());
    }

    #[test]
    fn train_rejects_mismatched_lengths() {
        // A truncated preamble capture must not panic.
        assert!(SlotDetector::train(&[1.0, 0.0, 1.0], &[true, false]).is_none());
        assert!(SlotDetector::train(&[1.0], &[true, false]).is_none());
        assert!(SlotDetector::train(&[], &[true]).is_none());
    }

    #[test]
    fn decide_into_matches_decide() {
        let d = SlotDetector::from_levels(1.0, 0.0, 0.1);
        let levels = [0.9, 0.1, 0.6, 0.5, 0.500001];
        let mut out = vec![true; 2]; // stale content must be cleared
        d.decide_into(&levels, &mut out);
        let expected: Vec<bool> = levels.iter().map(|&v| d.decide(v)).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn decisions_follow_threshold() {
        let d = SlotDetector::from_levels(1.0, 0.0, 0.1);
        assert!(d.decide(0.9));
        assert!(!d.decide(0.1));
        let mut out = Vec::new();
        d.decide_into(&[0.9, 0.1, 0.6], &mut out);
        assert_eq!(out, vec![true, false, true]);
    }

    #[test]
    fn error_probs_track_q_factor() {
        let strong = SlotDetector::from_levels(1.0, 0.0, 0.05).error_probs();
        let weak = SlotDetector::from_levels(1.0, 0.0, 0.4).error_probs();
        assert!(strong.p_off_error < 1e-12);
        assert!(weak.p_off_error > 1e-2);
        // Zero or inverted margin: coin flip.
        let dead = SlotDetector::from_levels(0.5, 0.5, 0.1).error_probs();
        assert!((dead.p_on_error - 0.5).abs() < 1e-9);
    }

    #[test]
    fn error_probs_are_one_q_of_the_clamped_q_factor() {
        // μ_on = 2q, μ_off = 0 and σ = 1 give a Q-factor of exactly q.
        let mut qs = vec![0.0, 1e-3, 0.5, 1.0, 3.746, 5.0, 8.0, 20.0, 40.0];
        qs.extend((1..=400).map(|i| f64::from(i) * 0.1));
        for q in qs {
            let d = SlotDetector::from_levels(2.0 * q, 0.0, 1.0);
            assert_eq!(d.q_factor(), q);
            let probs = d.error_probs();
            let want = q_function(q).to_bits();
            assert_eq!(probs.p_off_error.to_bits(), want, "q={q}");
            assert_eq!(probs.p_on_error.to_bits(), want, "q={q}");
        }
        // An inverted margin clamps to q = 0: a coin flip on both classes.
        let inverted = SlotDetector::from_levels(0.0, 1.0, 1.0);
        assert!(inverted.q_factor() < 0.0);
        let probs = inverted.error_probs();
        assert_eq!(probs.p_off_error.to_bits(), q_function(0.0).to_bits());
        assert_eq!(probs.p_on_error.to_bits(), q_function(0.0).to_bits());
    }

    #[test]
    fn monte_carlo_matches_analytic() {
        let d = SlotDetector::from_levels(1.0, 0.0, 0.25); // Q-factor 2
        let probs = d.error_probs();
        let mut rng = DetRng::seed_from_u64(7);
        let n = 200_000;
        let mut on_err = 0u32;
        let mut off_err = 0u32;
        for _ in 0..n {
            if !d.decide(rng.next_normal(1.0, 0.25)) {
                on_err += 1;
            }
            if d.decide(rng.next_normal(0.0, 0.25)) {
                off_err += 1;
            }
        }
        let p_on = on_err as f64 / n as f64;
        let p_off = off_err as f64 / n as f64;
        assert!((p_on - probs.p_on_error).abs() < 0.002, "p_on={p_on}");
        assert!((p_off - probs.p_off_error).abs() < 0.002, "p_off={p_off}");
    }

    /// The per-slot loop `flip_into` replaces: one `chance` per slot.
    fn chance_oracle(probs: &ChannelErrorProbs, rng: &mut DetRng, slots: &[bool]) -> Vec<bool> {
        slots
            .iter()
            .map(|&s| {
                let p = if s {
                    probs.p_on_error
                } else {
                    probs.p_off_error
                };
                if rng.chance(p) {
                    !s
                } else {
                    s
                }
            })
            .collect()
    }

    #[test]
    fn flip_into_equals_the_chance_loop_draw_for_draw() {
        let mut gen = DetRng::seed_from_u64(11);
        let slots: Vec<bool> = (0..5_000).map(|_| gen.chance(0.4)).collect();
        let points = [
            // A coin flip: about half the slots flip.
            SlotDetector::from_levels(0.5, 0.5, 0.1).error_probs(),
            // Asymmetric P1/P2, one of them never, one always.
            ChannelErrorProbs {
                p_off_error: 0.0,
                p_on_error: 1.0,
            },
            // The paper's healthy link (Q ≈ 3.75) and a p past 1.
            ChannelErrorProbs {
                p_off_error: 9e-5,
                p_on_error: 1.5,
            },
        ];
        for (i, probs) in points.iter().enumerate() {
            let mut a = DetRng::seed_from_u64(100 + i as u64);
            let mut b = a.clone();
            let expect = chance_oracle(probs, &mut a, &slots);
            let mut out = vec![true; 3]; // stale contents are cleared
            probs.flip_into(&mut b, &slots, &mut out);
            assert_eq!(out, expect, "operating point {i}: {probs:?}");
            assert_eq!(a.next_u64(), b.next_u64(), "rng state after point {i}");
        }
        let flips = |probs: &ChannelErrorProbs| {
            let mut out = Vec::new();
            probs.flip_into(&mut DetRng::seed_from_u64(1), &slots, &mut out);
            out.iter().zip(&slots).filter(|(o, s)| o != s).count()
        };
        let ones = slots.iter().filter(|&&s| s).count();
        assert!((2_300..2_700).contains(&flips(&points[0])));
        assert_eq!(flips(&points[1]), ones, "every ON flips, no OFF does");
        assert!(flips(&points[2]) >= ones);
    }
}
