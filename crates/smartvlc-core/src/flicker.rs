//! Flicker rules and the waveform auditor (§2.2 of the paper).
//!
//! Two mechanisms make an LED's modulation visible:
//!
//! * **Type-I** — the ON/OFF structure itself repeats too slowly. The
//!   paper's operational rule (Eq. 4) bounds the super-symbol length so
//!   the waveform's brightness pattern repeats at ≥ `fth` (250 Hz from
//!   the user study).
//! * **Type-II** — the *average* brightness takes a step larger than the
//!   perceptual threshold (`τp = 0.003` from Table 2(b)).
//!
//! [`FlickerAuditor`] checks a slot waveform against both rules the way a
//! human-calibrated flicker meter would: it low-pass filters the waveform
//! with a sliding window of one `1/fth` period (a crude model of temporal
//! integration in the eye), converts to the perception domain, and flags
//! any window-to-window jump exceeding `τp`. It also flags any constant
//! run of slots longer than one period — a structure that cannot repeat
//! at `fth`.

use crate::adaptation::perceived;

/// The flicker acceptance rules.
#[derive(Clone, Copy, Debug)]
pub struct FlickerRules {
    /// Slots per `1/fth` period (`= ftx/fth = Nmax`, Eq. 4).
    pub window_slots: usize,
    /// Maximum perceptual brightness step between adjacent windows (τp).
    pub max_perceptual_step: f64,
}

impl FlickerRules {
    /// Rules from the paper calibration of a [`crate::config::SystemConfig`].
    ///
    /// The audit threshold is `1.5·τp`: τp = 0.003 is the *design margin*
    /// the adaptation stepper uses, deliberately below the human
    /// detection threshold (Table 2(b): the most sensitive condition
    /// detects from 0.004 measured upward, which is perceptually larger
    /// still at dark adaptation levels). Auditing at 1.5·τp keeps every
    /// legal τp-stepped waveform clean while still flagging anything
    /// from a double-step (2·τp) up — the smallest misbehaviour a
    /// subject could plausibly notice.
    pub fn from_config(cfg: &crate::config::SystemConfig) -> FlickerRules {
        FlickerRules {
            window_slots: cfg.n_max_super() as usize,
            max_perceptual_step: cfg.tau_p * 1.5,
        }
    }
}

/// One detected flicker violation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FlickerViolation {
    /// A constant ON or OFF run longer than the `fth` period starting at
    /// this slot index (Type-I).
    SlowStructure {
        /// Slot index where the run starts.
        at_slot: usize,
        /// Length of the constant run.
        run: usize,
    },
    /// A windowed-brightness jump exceeding τp between the windows ending
    /// at these slot indices (Type-II).
    BrightnessJump {
        /// Slot index of the second window's end.
        at_slot: usize,
        /// The perceptual step observed.
        perceptual_step: f64,
    },
}

/// Audit result for one waveform.
#[derive(Clone, Debug, Default)]
pub struct FlickerReport {
    /// All violations in slot order (capped at 64 to bound report size).
    pub violations: Vec<FlickerViolation>,
    /// Mean brightness of the waveform.
    pub mean_level: f64,
    /// Number of slots audited.
    pub slots: usize,
}

impl FlickerReport {
    /// True when the waveform is flicker-free under the rules.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The waveform auditor.
#[derive(Clone, Copy, Debug)]
pub struct FlickerAuditor {
    rules: FlickerRules,
}

impl FlickerAuditor {
    /// Create an auditor with the given rules.
    pub fn new(rules: FlickerRules) -> FlickerAuditor {
        assert!(rules.window_slots >= 2, "window must cover >= 2 slots");
        assert!(
            rules.max_perceptual_step > 0.0,
            "perceptual step must be positive"
        );
        FlickerAuditor { rules }
    }

    /// Audit a slot waveform (`true` = ON).
    pub fn audit(&self, slots: &[bool]) -> FlickerReport {
        const MAX_VIOLATIONS: usize = 64;
        let mut report = FlickerReport {
            violations: Vec::new(),
            mean_level: if slots.is_empty() {
                0.0
            } else {
                slots.iter().filter(|&&b| b).count() as f64 / slots.len() as f64
            },
            slots: slots.len(),
        };
        if slots.is_empty() {
            return report;
        }

        // Type-I: constant runs longer than one fth period. A fully
        // constant waveform (all ON / all OFF) is steady light, not
        // flicker, so it is exempt.
        let w = self.rules.window_slots;
        let constant = slots.iter().all(|&b| b == slots[0]);
        if !constant {
            let mut run_start = 0usize;
            for i in 1..=slots.len() {
                if i == slots.len() || slots[i] != slots[run_start] {
                    let run = i - run_start;
                    if run > w && report.violations.len() < MAX_VIOLATIONS {
                        report.violations.push(FlickerViolation::SlowStructure {
                            at_slot: run_start,
                            run,
                        });
                    }
                    run_start = i;
                }
            }
        }

        // Type-II: *sustained* brightness shifts of more than tau_p.
        //
        // Care is needed with periodic modulation: a waveform repeating
        // every <= Nmax slots has no spectral content below fth (that is
        // Eq. 4's whole point), but naively sampling window means at a
        // fixed stride ALIASES the at-fth ripple of e.g. a 490-slot
        // super-symbol against a 500-slot window into a phantom
        // low-frequency beat. The alias-free construction: a sliding
        // (stride-1) window mean via prefix sums, then *continuous*
        // averages of that sequence over consecutive 2-window segments —
        // a triangular-kernel double integration that crushes everything
        // at or above fth while passing genuine level shifts through.
        // Segments integrate 4 fth-periods (~32 ms at the paper clocks —
        // the eye's temporal integration window), which also averages out
        // the once-per-frame header/compensation blips that beat against
        // any fixed segmentation. Sensitivity: an abrupt step is flagged
        // from ~2·tau_p up; legal adaptation (tau_p steps held for a few
        // fth periods) passes.
        let seg = 4 * w;
        if slots.len() >= w + 2 * seg {
            // Prefix sums of ON counts.
            let mut prefix = Vec::with_capacity(slots.len() + 1);
            prefix.push(0u64);
            let mut acc = 0u64;
            for &s in slots {
                acc += s as u64;
                prefix.push(acc);
            }
            // Sliding window mean m[i] over slots[i..i+w], i = 0..=n-w.
            let m_len = slots.len() - w + 1;
            // Continuous segment averages of m over [k*seg, (k+1)*seg).
            let segments = m_len / seg;
            let mut seg_means = Vec::with_capacity(segments);
            for k in 0..segments {
                let mut sum = 0.0;
                for i in k * seg..(k + 1) * seg {
                    sum += (prefix[i + w] - prefix[i]) as f64 / w as f64;
                }
                seg_means.push(perceived(sum / seg as f64));
            }
            // Persistence: Table 2's stimulus is a *held* level change.
            // Transient excursions (e.g. the once-per-frame header and
            // compensation structure — a few-percent pulse train at the
            // ~40-80 Hz frame rate, far below the de Lange visibility
            // threshold at those frequencies) must not trip the check,
            // and they beat against any fixed segmentation. Comparing
            // two-segment *baselines* on each side of every boundary
            // (64 ms each) averages the periodic blips into both sides
            // equally; only a level shift that holds for ~64 ms registers.
            const G: usize = 2;
            if seg_means.len() >= 2 * G {
                for k in G..=(seg_means.len() - G) {
                    let before: f64 = seg_means[k - G..k].iter().sum::<f64>() / G as f64;
                    let after: f64 = seg_means[k..k + G].iter().sum::<f64>() / G as f64;
                    let step = (after - before).abs();
                    if step > self.rules.max_perceptual_step + 1e-9
                        && report.violations.len() < MAX_VIOLATIONS
                    {
                        report.violations.push(FlickerViolation::BrightnessJump {
                            at_slot: k * seg,
                            perceptual_step: step,
                        });
                    }
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    fn auditor() -> FlickerAuditor {
        FlickerAuditor::new(FlickerRules::from_config(&SystemConfig::default()))
    }

    #[test]
    fn rules_from_paper_config() {
        let r = FlickerRules::from_config(&SystemConfig::default());
        assert_eq!(r.window_slots, 500);
        assert!((r.max_perceptual_step - 0.0045).abs() < 1e-12);
    }

    #[test]
    fn steady_light_is_clean() {
        let a = auditor();
        assert!(a.audit(&vec![true; 5000]).is_clean());
        assert!(a.audit(&vec![false; 5000]).is_clean());
        assert!(a.audit(&[]).is_clean());
    }

    #[test]
    fn fast_alternation_is_clean() {
        let a = auditor();
        let slots: Vec<bool> = (0..10_000).map(|i| i % 2 == 0).collect();
        let r = a.audit(&slots);
        assert!(r.is_clean(), "{:?}", r.violations);
        assert!((r.mean_level - 0.5).abs() < 1e-3);
    }

    #[test]
    fn slow_square_wave_flickers() {
        // 1000 slots ON, 1000 OFF at 125 kHz = 62.5 Hz square wave:
        // Type-I territory (runs of 1000 > 500 slots). It is *periodic*,
        // so the sustained-shift (Type-II) detector correctly stays
        // silent — classifying it is the run check's job.
        let a = auditor();
        let slots: Vec<bool> = (0..10_000).map(|i| (i / 1000) % 2 == 0).collect();
        let r = a.audit(&slots);
        assert!(!r.is_clean());
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, FlickerViolation::SlowStructure { .. })));
    }

    #[test]
    fn run_exactly_at_window_is_allowed() {
        // Eq. 4 is an inclusive bound: a 500-slot run repeats at exactly fth.
        let a = auditor();
        let mut slots = Vec::new();
        for _ in 0..10 {
            slots.extend(std::iter::repeat_n(true, 500));
            slots.extend(std::iter::repeat_n(false, 1));
        }
        let r = a.audit(&slots);
        assert!(!r
            .violations
            .iter()
            .any(|v| matches!(v, FlickerViolation::SlowStructure { .. })));
    }

    #[test]
    fn amppm_super_symbols_are_clean() {
        // The whole point of Eq. 4: any waveform built from <= Nmax-slot
        // super-symbols at a fixed dimming level passes the audit.
        use crate::amppm::planner::AmppmPlanner;
        use crate::dimming::DimmingLevel;
        use crate::schemes::AmppmModem;
        let planner = AmppmPlanner::new(SystemConfig::default()).unwrap();
        let a = auditor();
        for l in [0.15, 0.3, 0.5, 0.62, 0.85] {
            let plan = planner.plan(DimmingLevel::new(l).unwrap()).unwrap();
            let m = AmppmModem::from_plan(&plan);
            let t = combinat::BinomialTable::new(512);
            let slots = crate::modem::modulated(&m, &t, &[0xB7u8; 1024]);
            let r = a.audit(&slots);
            assert!(r.is_clean(), "l={l}: {:?}", r.violations.first());
        }
    }

    #[test]
    fn brightness_jump_between_blocks_detected() {
        // Two flicker-free halves at very different dimming levels glued
        // together: the seam is a Type-II violation.
        let a = auditor();
        let mut slots = Vec::new();
        for _ in 0..2000 {
            slots.extend_from_slice(&[true, false, false, false, false]); // l=0.2
        }
        for _ in 0..2000 {
            slots.extend_from_slice(&[true, true, true, true, false]); // l=0.8
        }
        let r = a.audit(&slots);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, FlickerViolation::BrightnessJump { .. })));
    }

    #[test]
    fn gradual_ramp_is_clean() {
        // A dimming ramp in tau_p perceptual steps, each held for one
        // window, must pass (this is what the adaptation module emits).
        use crate::adaptation::{AdaptationStepper, PerceptionStepper};
        let a = auditor();
        let stepper = PerceptionStepper::new(0.003);
        let mut slots = Vec::new();
        let mut level = 0.3;
        for target in stepper.steps(0.3, 0.4) {
            level = target;
            let ones = (level * 500.0).round() as usize;
            // Hold each adaptation step for ~64 ms (the real transmitter
            // adapts ~30x slower still), spreading the ones evenly
            // within each window.
            for _ in 0..8 {
                for i in 0..500 {
                    slots.push((i * ones) / 500 != ((i + 1) * ones) / 500);
                }
            }
        }
        let r = a.audit(&slots);
        assert!(r.is_clean(), "{:?}", r.violations.first());
        let _ = level;
    }

    #[test]
    fn violation_list_is_capped() {
        let a = auditor();
        // Pathological waveform with thousands of slow runs.
        let mut slots = Vec::new();
        for _ in 0..200 {
            slots.extend(std::iter::repeat_n(true, 600));
            slots.extend(std::iter::repeat_n(false, 600));
        }
        let r = a.audit(&slots);
        assert!(r.violations.len() <= 64 * 2);
    }

    #[test]
    fn report_mean_level() {
        let a = auditor();
        let r = a.audit(&[true, true, false, false]);
        assert_eq!(r.mean_level, 0.5);
        assert_eq!(r.slots, 4);
    }
}
