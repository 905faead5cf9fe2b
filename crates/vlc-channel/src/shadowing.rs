//! Link blockage: people walk through light beams.
//!
//! The paper's office experiments keep the line of sight clear; any real
//! deployment will not. Optical links fail *hard* under blockage — a
//! person in the beam is 20–30 dB of attenuation, not a few dB of fade —
//! so the classic two-state Gilbert-Elliott model fits: the link is
//! either CLEAR or BLOCKED, with exponentially distributed dwell times.
//! This module supplies that process; the link simulation uses it to
//! test what the ARQ recovers when somebody fetches coffee through the
//! beam.

use desim::{DetRng, SimDuration, SimTime};

/// Two-state blockage process parameters.
#[derive(Clone, Copy, Debug)]
pub struct ShadowingModel {
    /// Mean time between blockage events (clear dwell), seconds.
    pub mean_clear_s: f64,
    /// Mean blockage duration, seconds (a walking person: ~0.3–1 s).
    pub mean_blocked_s: f64,
    /// Optical attenuation while blocked, as a linear power factor
    /// (0.001 = -30 dB: effectively dark).
    pub blocked_gain: f64,
}

impl ShadowingModel {
    /// An office corridor crossing the beam: a blockage every ~20 s
    /// lasting ~0.5 s, -30 dB deep.
    pub fn office_walkway() -> ShadowingModel {
        ShadowingModel {
            mean_clear_s: 20.0,
            mean_blocked_s: 0.5,
            blocked_gain: 0.001,
        }
    }
}

/// The evolving blockage state.
pub struct ShadowingProcess {
    model: ShadowingModel,
    rng: DetRng,
    blocked: bool,
    /// Time the current state ends.
    until: SimTime,
    /// Total blockage events so far.
    pub events: u64,
}

impl ShadowingProcess {
    /// Start the process (clear) at t = 0.
    pub fn new(model: ShadowingModel, mut rng: DetRng) -> ShadowingProcess {
        assert!(model.mean_clear_s > 0.0 && model.mean_blocked_s > 0.0);
        assert!((0.0..1.0).contains(&model.blocked_gain));
        let first = exponential(&mut rng, model.mean_clear_s);
        ShadowingProcess {
            model,
            rng,
            blocked: false,
            until: SimTime::ZERO + SimDuration::from_secs_f64(first),
            events: 0,
        }
    }

    /// Advance to time `t` and return the current optical gain factor
    /// (1.0 = clear, `blocked_gain` = blocked).
    pub fn gain_at(&mut self, t: SimTime) -> f64 {
        while t >= self.until {
            self.blocked = !self.blocked;
            if self.blocked {
                self.events += 1;
            }
            let mean = if self.blocked {
                self.model.mean_blocked_s
            } else {
                self.model.mean_clear_s
            };
            let dwell = exponential(&mut self.rng, mean);
            self.until += SimDuration::from_secs_f64(dwell);
        }
        if self.blocked {
            self.model.blocked_gain
        } else {
            1.0
        }
    }

    /// Whether the beam is currently blocked (after the last `gain_at`).
    pub fn is_blocked(&self) -> bool {
        self.blocked
    }
}

fn exponential(rng: &mut DetRng, mean_s: f64) -> f64 {
    -mean_s * (1.0 - rng.next_f64()).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn starts_clear() {
        let mut p =
            ShadowingProcess::new(ShadowingModel::office_walkway(), DetRng::seed_from_u64(1));
        assert_eq!(p.gain_at(SimTime::ZERO), 1.0);
        assert!(!p.is_blocked());
    }

    #[test]
    fn blocks_and_clears_over_time() {
        let mut p =
            ShadowingProcess::new(ShadowingModel::office_walkway(), DetRng::seed_from_u64(2));
        let mut saw_blocked = false;
        let mut saw_clear_after = false;
        for s in 0..600 {
            let g = p.gain_at(at(s * 1000));
            if g < 1.0 {
                saw_blocked = true;
            } else if saw_blocked {
                saw_clear_after = true;
            }
        }
        assert!(saw_blocked, "no blockage in 10 minutes");
        assert!(saw_clear_after, "never recovered");
        assert!(p.events > 5, "events={}", p.events);
    }

    #[test]
    fn dwell_statistics_match_the_model() {
        let model = ShadowingModel {
            mean_clear_s: 2.0,
            mean_blocked_s: 0.5,
            blocked_gain: 0.001,
        };
        let mut p = ShadowingProcess::new(model, DetRng::seed_from_u64(3));
        // Sample at 10 ms over 2000 s; blocked fraction should approach
        // mean_blocked / (mean_clear + mean_blocked) = 0.2.
        let mut blocked = 0u64;
        let n = 200_000u64;
        for i in 0..n {
            if p.gain_at(at(i * 10)) < 1.0 {
                blocked += 1;
            }
        }
        let frac = blocked as f64 / n as f64;
        assert!((0.15..0.25).contains(&frac), "blocked fraction {frac}");
    }

    #[test]
    fn deterministic() {
        let mk =
            || ShadowingProcess::new(ShadowingModel::office_walkway(), DetRng::seed_from_u64(9));
        let mut a = mk();
        let mut b = mk();
        for s in 0..200 {
            assert_eq!(a.gain_at(at(s * 500)), b.gain_at(at(s * 500)));
        }
    }

    #[test]
    #[should_panic]
    fn rejects_bad_model() {
        ShadowingProcess::new(
            ShadowingModel {
                mean_clear_s: 0.0,
                mean_blocked_s: 1.0,
                blocked_gain: 0.5,
            },
            DetRng::seed_from_u64(1),
        );
    }
}
