//! The virtual 20-subject flicker perception study.
//!
//! The paper runs two human studies it cannot share subjects for:
//!
//! * **§6.1** — find the Type-I threshold `fth`: 20 volunteers watch the
//!   LED toggled at decreasing frequencies; 250 Hz is the lowest rate no
//!   subject perceives (slightly above the 200 Hz of IEEE 802.15.7).
//! * **§6.3 / Table 2** — find the Type-II threshold: subjects watch
//!   brightness steps of varying resolution under three ambient
//!   conditions (L1 sunny+ceiling, L2 sunny, L3 dark) and two viewing
//!   modes (direct at the LED / indirect via reflection); 0.003 is the
//!   largest step nobody detects in any condition.
//!
//! We replace the volunteers with a standard psychophysics model: each
//! subject has a personal detection threshold drawn from a per-condition
//! normal distribution, detecting any stimulus above it. The condition
//! means/spreads are calibrated so the *population percentages* land on
//! Table 2: dark-adapted pupils make subjects more sensitive (lower
//! threshold in L3), and direct viewing is roughly 10× more sensitive
//! than indirect.

use desim::DetRng;

/// Ambient conditions of the study (§6.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StudyCondition {
    /// L1: sunny day, ceiling lights on (8900–9760 lux).
    L1SunnyCeilingOn,
    /// L2: sunny day, ceiling lights off (7960–8200 lux).
    L2SunnyCeilingOff,
    /// L3: blind down, ceiling off (12–21 lux).
    L3Dark,
}

impl StudyCondition {
    /// All three, in Table 2 column order.
    pub const ALL: [StudyCondition; 3] = [
        StudyCondition::L1SunnyCeilingOn,
        StudyCondition::L2SunnyCeilingOff,
        StudyCondition::L3Dark,
    ];

    /// Table 2 column label.
    pub fn label(self) -> &'static str {
        match self {
            StudyCondition::L1SunnyCeilingOn => "L1",
            StudyCondition::L2SunnyCeilingOff => "L2",
            StudyCondition::L3Dark => "L3",
        }
    }
}

/// How the subject observes the LED (Fig. 18).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Viewing {
    /// Looking straight at the LED (Fig. 18(a)).
    Direct,
    /// Judging by reflected light (Fig. 18(b)).
    Indirect,
}

/// A per-condition threshold distribution.
#[derive(Clone, Copy, Debug)]
pub struct ThresholdModel {
    /// Population mean detection threshold.
    pub mu: f64,
    /// Population standard deviation.
    pub sigma: f64,
}

/// Calibrated Type-II (brightness-step) threshold distributions.
///
/// Calibration targets are Table 2's percentages; e.g. direct/L1 must
/// give 0% at 0.004, ~5% at 0.005, ~40% at 0.006 and 100% at 0.007.
pub fn step_threshold_model(viewing: Viewing, condition: StudyCondition) -> ThresholdModel {
    match (viewing, condition) {
        (Viewing::Direct, StudyCondition::L1SunnyCeilingOn) => ThresholdModel {
            mu: 0.0061,
            sigma: 0.00042,
        },
        (Viewing::Direct, StudyCondition::L2SunnyCeilingOff) => ThresholdModel {
            mu: 0.0053,
            sigma: 0.00048,
        },
        (Viewing::Direct, StudyCondition::L3Dark) => ThresholdModel {
            mu: 0.0045,
            sigma: 0.00050,
        },
        (Viewing::Indirect, StudyCondition::L1SunnyCeilingOn) => ThresholdModel {
            mu: 0.0625,
            sigma: 0.0028,
        },
        (Viewing::Indirect, StudyCondition::L2SunnyCeilingOff) => ThresholdModel {
            mu: 0.0600,
            sigma: 0.0032,
        },
        (Viewing::Indirect, StudyCondition::L3Dark) => ThresholdModel {
            mu: 0.0565,
            sigma: 0.0032,
        },
    }
}

/// Type-I critical flicker fusion distribution: subjects perceive a
/// square-wave toggle below their personal CFF. Mean ~185 Hz with ~20 Hz
/// spread puts a tail just above the 200 Hz standard — exactly why the
/// paper's volunteers forced the margin up to 250 Hz.
pub fn cff_model() -> ThresholdModel {
    ThresholdModel {
        mu: 185.0,
        sigma: 20.0,
    }
}

/// One virtual volunteer: thresholds for every condition plus a CFF.
#[derive(Clone, Debug)]
pub struct Subject {
    step_thresholds: Vec<(Viewing, StudyCondition, f64)>,
    cff_hz: f64,
}

impl Subject {
    fn sample(rng: &mut DetRng) -> Subject {
        let mut step_thresholds = Vec::new();
        for viewing in [Viewing::Direct, Viewing::Indirect] {
            for condition in StudyCondition::ALL {
                let m = step_threshold_model(viewing, condition);
                // Truncate at a small positive floor: nobody has a
                // negative detection threshold.
                let t = rng.next_normal(m.mu, m.sigma).max(m.mu * 0.3);
                step_thresholds.push((viewing, condition, t));
            }
        }
        let c = cff_model();
        Subject {
            step_thresholds,
            cff_hz: rng.next_normal(c.mu, c.sigma).max(60.0),
        }
    }

    /// Does this subject perceive a brightness step of `resolution`?
    pub fn perceives_step(
        &self,
        viewing: Viewing,
        condition: StudyCondition,
        resolution: f64,
    ) -> bool {
        let t = self
            .step_thresholds
            .iter()
            .find(|&&(v, c, _)| v == viewing && c == condition)
            .map(|&(_, _, t)| t)
            .expect("all conditions sampled");
        resolution > t
    }

    /// Does this subject perceive an ON/OFF square wave at `hz`?
    pub fn perceives_frequency(&self, hz: f64) -> bool {
        hz < self.cff_hz
    }
}

/// The 20-subject panel.
pub struct UserStudy {
    subjects: Vec<Subject>,
}

impl UserStudy {
    /// Recruit `n` deterministic virtual subjects (paper: 20, ages 19–41,
    /// 10 male / 10 female).
    pub fn recruit(n: usize, seed: u64) -> UserStudy {
        let root = DetRng::seed_from_u64(seed);
        let subjects = (0..n)
            .map(|i| Subject::sample(&mut root.fork_idx(i as u64)))
            .collect();
        UserStudy { subjects }
    }

    /// Panel size.
    pub fn len(&self) -> usize {
        self.subjects.len()
    }

    /// True when no subjects were recruited.
    pub fn is_empty(&self) -> bool {
        self.subjects.is_empty()
    }

    /// Percentage of the panel perceiving a brightness step (a Table 2
    /// cell).
    pub fn percent_perceiving_step(
        &self,
        viewing: Viewing,
        condition: StudyCondition,
        resolution: f64,
    ) -> f64 {
        let n = self
            .subjects
            .iter()
            .filter(|s| s.perceives_step(viewing, condition, resolution))
            .count();
        100.0 * n as f64 / self.subjects.len() as f64
    }

    /// Percentage perceiving a toggle frequency (the §6.1 fth study).
    pub fn percent_perceiving_frequency(&self, hz: f64) -> f64 {
        let n = self
            .subjects
            .iter()
            .filter(|s| s.perceives_frequency(hz))
            .count();
        100.0 * n as f64 / self.subjects.len() as f64
    }

    /// The largest resolution from `candidates` (sorted ascending) that
    /// *no* subject perceives in *any* viewing/condition combination —
    /// the paper's τp = 0.003 selection.
    pub fn max_safe_resolution(&self, candidates: &[f64]) -> Option<f64> {
        candidates
            .iter()
            .copied()
            .filter(|&r| {
                [Viewing::Direct, Viewing::Indirect].iter().all(|&v| {
                    StudyCondition::ALL
                        .iter()
                        .all(|&c| self.percent_perceiving_step(v, c, r) == 0.0)
                })
            })
            .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))))
    }

    /// The smallest frequency from `candidates` that no subject perceives
    /// — the paper's fth = 250 Hz selection.
    pub fn min_safe_frequency(&self, candidates: &[f64]) -> Option<f64> {
        candidates
            .iter()
            .copied()
            .filter(|&hz| self.percent_perceiving_frequency(hz) == 0.0)
            .fold(None, |acc, hz| Some(acc.map_or(hz, |a: f64| a.min(hz))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panel() -> UserStudy {
        UserStudy::recruit(20, 2017)
    }

    #[test]
    fn recruit_is_deterministic() {
        let a = panel();
        let b = panel();
        for (v, c, r) in [
            (Viewing::Direct, StudyCondition::L1SunnyCeilingOn, 0.005),
            (Viewing::Indirect, StudyCondition::L3Dark, 0.06),
        ] {
            assert_eq!(
                a.percent_perceiving_step(v, c, r),
                b.percent_perceiving_step(v, c, r)
            );
        }
    }

    #[test]
    fn table2_anchor_cells() {
        // The hard anchors of Table 2: nothing at 0.003 direct / 0.04
        // indirect; everything at 0.007 direct / 0.07+ indirect.
        let p = panel();
        for c in StudyCondition::ALL {
            assert_eq!(
                p.percent_perceiving_step(Viewing::Direct, c, 0.003),
                0.0,
                "direct {c:?} at 0.003"
            );
            assert_eq!(
                p.percent_perceiving_step(Viewing::Direct, c, 0.007),
                100.0,
                "direct {c:?} at 0.007"
            );
            assert_eq!(
                p.percent_perceiving_step(Viewing::Indirect, c, 0.04),
                0.0,
                "indirect {c:?} at 0.04"
            );
            assert_eq!(
                p.percent_perceiving_step(Viewing::Indirect, c, 0.08),
                100.0,
                "indirect {c:?} at 0.08"
            );
        }
    }

    #[test]
    fn darker_means_more_sensitive() {
        // Table 2's trend: "weaker ambient light (L3) makes users more
        // sensitive" — monotone percentages L1 <= L2 <= L3 at mid-range
        // stimuli.
        let p = panel();
        for (v, r) in [(Viewing::Direct, 0.0055), (Viewing::Indirect, 0.058)] {
            let l1 = p.percent_perceiving_step(v, StudyCondition::L1SunnyCeilingOn, r);
            let l2 = p.percent_perceiving_step(v, StudyCondition::L2SunnyCeilingOff, r);
            let l3 = p.percent_perceiving_step(v, StudyCondition::L3Dark, r);
            assert!(l1 <= l2 && l2 <= l3, "{v:?} r={r}: {l1} {l2} {l3}");
        }
    }

    #[test]
    fn direct_viewing_is_more_sensitive() {
        let p = panel();
        // A stimulus trivially seen directly is invisible indirectly.
        let c = StudyCondition::L2SunnyCeilingOff;
        assert_eq!(p.percent_perceiving_step(Viewing::Direct, c, 0.01), 100.0);
        assert_eq!(p.percent_perceiving_step(Viewing::Indirect, c, 0.01), 0.0);
    }

    #[test]
    fn paper_tau_p_is_selected() {
        // Candidates mirror Table 2's rows; 0.003 must be the winner.
        let p = panel();
        let safe = p
            .max_safe_resolution(&[0.003, 0.004, 0.005, 0.006, 0.007])
            .unwrap();
        assert_eq!(safe, 0.003);
    }

    #[test]
    fn paper_fth_is_selected() {
        // 250 Hz safe for all, 200 Hz (the 802.15.7 floor) not — §6.1.
        let p = panel();
        assert_eq!(p.percent_perceiving_frequency(250.0), 0.0);
        assert!(p.percent_perceiving_frequency(200.0) > 0.0);
        assert!(p.percent_perceiving_frequency(100.0) > 99.0);
        let safe = p
            .min_safe_frequency(&[100.0, 150.0, 200.0, 250.0, 300.0])
            .unwrap();
        assert_eq!(safe, 250.0);
    }

    #[test]
    fn percentages_are_monotone_in_stimulus() {
        let p = panel();
        for v in [Viewing::Direct, Viewing::Indirect] {
            for c in StudyCondition::ALL {
                let mut prev = -1.0;
                for i in 0..40 {
                    let r = 0.001 + i as f64 * 0.0025;
                    let pct = p.percent_perceiving_step(v, c, r);
                    assert!(pct >= prev, "{v:?} {c:?} r={r}");
                    prev = pct;
                }
            }
        }
    }
}
