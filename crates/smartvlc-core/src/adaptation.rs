//! Brightness adaptation to changing ambient light — §4.3 of the paper.
//!
//! Goal 1 (constant total illumination) is [`crate::dimming::IlluminationTarget`];
//! this module is Goal 2: move the LED from its current level to the new
//! target *gradually*, so no single step is perceivable (Type-II
//! flicker), while taking as few steps as possible (each step re-plans
//! the AMPPM pattern and wears the hardware).
//!
//! The paper's insight is that human brightness perception is non-linear
//! (Stevens' law via the IESNA handbook): perceived brightness relates to
//! measured brightness as `Ip = 100·√(Im/100)`. A step that is invisible
//! in a bright room is glaring in a dark one. Stepping with a *fixed*
//! measured-domain `τ` must therefore be sized for the darkest operating
//! point — wasting steps everywhere else — while stepping with a fixed
//! *perceptual* `τp` adapts the measured step automatically
//! (`ΔIm ≈ 2√Im·τp`) and, in the paper's Fig. 19(c) experiment, halves
//! the number of adjustments.

/// Measured → perceived brightness, both normalized to `[0, 1]`
/// (`Ip = 100·√(Im/100)` in the paper's percent units).
pub fn perceived(im: f64) -> f64 {
    im.clamp(0.0, 1.0).sqrt()
}

/// Perceived → measured brightness (inverse of [`perceived`]).
pub fn measured(ip: f64) -> f64 {
    let ip = ip.clamp(0.0, 1.0);
    ip * ip
}

/// A brightness trajectory planner: a sequence of measured-domain
/// set-points from the current level to the target, each step small
/// enough to be invisible.
pub trait AdaptationStepper {
    /// Intermediate set-points ending exactly at `to` (empty if
    /// `from == to`). Levels are normalized measured-domain brightness.
    fn steps(&self, from: f64, to: f64) -> Vec<f64>;

    /// Number of steps without materializing them.
    fn step_count(&self, from: f64, to: f64) -> usize;
}

/// SmartVLC's stepper: equal steps of `τp` in the *perception* domain
/// (Fig. 10(b)).
#[derive(Clone, Copy, Debug)]
pub struct PerceptionStepper {
    /// Perceptual step size; Table 2(b) ⇒ 0.003 is invisible to all
    /// subjects in every condition.
    pub tau_p: f64,
}

impl PerceptionStepper {
    /// Create a stepper; panics on non-positive τp.
    pub fn new(tau_p: f64) -> PerceptionStepper {
        assert!(tau_p > 0.0 && tau_p.is_finite(), "tau_p must be positive");
        PerceptionStepper { tau_p }
    }
}

impl AdaptationStepper for PerceptionStepper {
    fn steps(&self, from: f64, to: f64) -> Vec<f64> {
        let p_from = perceived(from);
        let p_to = perceived(to);
        let n = self.step_count(from, to);
        let mut out = Vec::with_capacity(n);
        for i in 1..=n {
            // Evenly spaced in the perception domain; last lands exactly.
            let p = p_from + (p_to - p_from) * (i as f64 / n as f64);
            out.push(if i == n { to } else { measured(p) });
        }
        out
    }

    fn step_count(&self, from: f64, to: f64) -> usize {
        let dp = (perceived(to) - perceived(from)).abs();
        if dp == 0.0 {
            0
        } else {
            (dp / self.tau_p).ceil() as usize
        }
    }
}

/// The "existing method" baseline: equal steps of `τ` in the *measured*
/// domain (Fig. 10(a)).
#[derive(Clone, Copy, Debug)]
pub struct FixedStepper {
    /// Measured-domain step size.
    pub tau: f64,
}

impl FixedStepper {
    /// Create a stepper; panics on non-positive τ.
    pub fn new(tau: f64) -> FixedStepper {
        assert!(tau > 0.0 && tau.is_finite(), "tau must be positive");
        FixedStepper { tau }
    }

    /// The largest fixed τ that is flicker-safe over an operating range
    /// with minimum brightness `im_floor`: the perceptual cost of a
    /// measured step is `ΔIp = √(Im+τ) − √Im`, worst at the floor, so the
    /// safe τ solves `√(im_floor + τ) − √im_floor = τp`.
    pub fn flicker_safe(tau_p: f64, im_floor: f64) -> FixedStepper {
        assert!((0.0..1.0).contains(&im_floor), "floor must be in [0,1)");
        let s = im_floor.sqrt() + tau_p;
        FixedStepper::new(s * s - im_floor)
    }
}

impl AdaptationStepper for FixedStepper {
    fn steps(&self, from: f64, to: f64) -> Vec<f64> {
        let n = self.step_count(from, to);
        let mut out = Vec::with_capacity(n);
        for i in 1..=n {
            let v = from + (to - from) * (i as f64 / n as f64);
            out.push(if i == n { to } else { v });
        }
        out
    }

    fn step_count(&self, from: f64, to: f64) -> usize {
        let d = (to - from).abs();
        if d == 0.0 {
            0
        } else {
            (d / self.tau).ceil() as usize
        }
    }
}

/// Running tally of adaptation activity — the y-axis of Fig. 19(c).
#[derive(Clone, Copy, Debug, Default)]
pub struct AdaptationCounter {
    /// Total individual brightness adjustments performed.
    pub adjustments: u64,
    /// Total ambient-change events handled.
    pub events: u64,
}

impl AdaptationCounter {
    /// Record one ambient-change event that took `steps` adjustments.
    pub fn record(&mut self, steps: usize) {
        self.events += 1;
        self.adjustments += steps as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perception_law_matches_paper() {
        // Ip = 100 sqrt(Im/100): 25% measured is perceived as 50%.
        assert!((perceived(0.25) - 0.5).abs() < 1e-12);
        assert!((perceived(1.0) - 1.0).abs() < 1e-12);
        assert_eq!(perceived(0.0), 0.0);
        // Inverse round trip.
        for im in [0.0, 0.1, 0.33, 0.77, 1.0] {
            assert!((measured(perceived(im)) - im).abs() < 1e-12);
        }
    }

    #[test]
    fn conversion_clamps_out_of_range() {
        assert_eq!(perceived(-0.5), 0.0);
        assert_eq!(perceived(2.0), 1.0);
        assert_eq!(measured(-1.0), 0.0);
        assert_eq!(measured(3.0), 1.0);
    }

    #[test]
    fn perception_steps_land_exactly_and_are_invisible() {
        let s = PerceptionStepper::new(0.003);
        let steps = s.steps(0.2, 0.7);
        assert_eq!(*steps.last().unwrap(), 0.7);
        // Every consecutive pair differs by <= tau_p in perception space.
        let mut prev = 0.2;
        for &x in &steps {
            let dp = (perceived(x) - perceived(prev)).abs();
            assert!(dp <= 0.003 + 1e-12, "step {prev}->{x}: dp={dp}");
            prev = x;
        }
    }

    #[test]
    fn perception_steps_are_variable_in_measured_domain() {
        // Fig. 10(b): measured-domain steps grow with brightness.
        let s = PerceptionStepper::new(0.003);
        let steps = s.steps(0.1, 0.9);
        let first = steps[1] - steps[0];
        let last = steps[steps.len() - 1] - steps[steps.len() - 2];
        assert!(last > first * 1.5, "first={first} last={last}");
    }

    #[test]
    fn fixed_steps_are_even() {
        let s = FixedStepper::new(0.01);
        let steps = s.steps(0.3, 0.35);
        assert_eq!(steps.len(), 5);
        for w in steps.windows(2) {
            assert!((w[1] - w[0] - 0.01).abs() < 1e-9);
        }
        assert_eq!(*steps.last().unwrap(), 0.35);
    }

    #[test]
    fn downward_adaptation_works() {
        let p = PerceptionStepper::new(0.003);
        let steps = p.steps(0.8, 0.2);
        assert_eq!(*steps.last().unwrap(), 0.2);
        assert!(steps.windows(2).all(|w| w[1] < w[0]));
        let f = FixedStepper::new(0.01);
        assert_eq!(f.steps(0.5, 0.4).len(), 10);
    }

    #[test]
    fn zero_delta_means_zero_steps() {
        assert!(PerceptionStepper::new(0.003).steps(0.5, 0.5).is_empty());
        assert!(FixedStepper::new(0.01).steps(0.5, 0.5).is_empty());
    }

    #[test]
    fn flicker_safe_tau_is_conservative() {
        let tau_p = 0.003;
        let floor = 0.15;
        let f = FixedStepper::flicker_safe(tau_p, floor);
        // At the floor the perceptual step equals tau_p...
        let dp = perceived(floor + f.tau) - perceived(floor);
        assert!((dp - tau_p).abs() < 1e-9);
        // ...and everywhere brighter it is strictly smaller (wasteful).
        let dp_bright = perceived(0.9 + f.tau) - perceived(0.9);
        assert!(dp_bright < tau_p);
    }

    #[test]
    fn paper_fig19c_step_reduction() {
        // Over the dynamic scenario's LED range (~0.15..0.95), perception
        // stepping needs roughly half the adjustments of the flicker-safe
        // fixed stepper — the paper reports "reduce ... by 50%".
        let tau_p = 0.003;
        let (lo, hi) = (0.15, 0.95);
        let smart = PerceptionStepper::new(tau_p).step_count(lo, hi);
        let fixed = FixedStepper::flicker_safe(tau_p, lo).step_count(lo, hi);
        let ratio = fixed as f64 / smart as f64;
        assert!(
            (1.6..=2.4).contains(&ratio),
            "smart={smart} fixed={fixed} ratio={ratio}"
        );
    }

    #[test]
    fn counter_accumulates() {
        let mut c = AdaptationCounter::default();
        c.record(10);
        c.record(0);
        c.record(5);
        assert_eq!(c.events, 3);
        assert_eq!(c.adjustments, 15);
    }
}
