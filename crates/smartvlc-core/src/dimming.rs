//! Dimming levels and the smart-lighting illumination targets.
//!
//! A dimming level `l ∈ [0,1]` is the fraction of ON slots in a symbol
//! (Eq. 1): `l = 0.5` means the LED emits 50% of its maximum brightness
//! (PWM duty cycle — brightness varies by duty cycle, not amplitude, so
//! there is no colour shift; §2.1).
//!
//! The smart-lighting control goal (§4.3, Goal 1) is
//! `Isum = Iled + Iamb = const`: the LED's dimming target is whatever tops
//! ambient light up to the user's set-point.

use std::fmt;

/// A validated dimming level in `[0, 1]` (fraction of full LED output).
#[derive(Clone, Copy, PartialEq, PartialOrd)]
pub struct DimmingLevel(f64);

impl DimmingLevel {
    /// Fully off.
    pub const OFF: DimmingLevel = DimmingLevel(0.0);
    /// Fully on.
    pub const FULL: DimmingLevel = DimmingLevel(1.0);

    /// Construct from a fraction; returns `None` outside `[0,1]` or NaN.
    pub fn new(l: f64) -> Option<DimmingLevel> {
        if l.is_finite() && (0.0..=1.0).contains(&l) {
            Some(DimmingLevel(l))
        } else {
            None
        }
    }

    /// Construct, clamping into `[0,1]` (NaN becomes 0).
    pub fn clamped(l: f64) -> DimmingLevel {
        if l.is_nan() {
            DimmingLevel(0.0)
        } else {
            DimmingLevel(l.clamp(0.0, 1.0))
        }
    }

    /// Construct from an exact ON-count over slot-count ratio (Eq. 1).
    pub fn from_ratio(ones: u32, slots: u32) -> Option<DimmingLevel> {
        if slots == 0 || ones > slots {
            None
        } else {
            Some(DimmingLevel(ones as f64 / slots as f64))
        }
    }

    /// The level as a fraction of full brightness.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Absolute difference between two levels.
    pub fn distance(self, other: DimmingLevel) -> f64 {
        (self.0 - other.0).abs()
    }
}

impl fmt::Debug for DimmingLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l={:.4}", self.0)
    }
}

impl fmt::Display for DimmingLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.0 * 100.0)
    }
}

/// The smart-lighting set-point controller (Goal 1 of §4.3).
///
/// Computes the LED dimming level required to keep total illumination at
/// the user's set-point given the current ambient contribution, with both
/// quantities normalized to the LED's full-scale output.
#[derive(Clone, Copy, Debug)]
pub struct IlluminationTarget {
    /// Desired constant total intensity `Isum`, normalized so that `1.0`
    /// equals the LED's full brightness at the area of interest.
    pub i_sum: f64,
}

impl IlluminationTarget {
    /// Create a target with the given normalized set-point.
    pub fn new(i_sum: f64) -> IlluminationTarget {
        assert!(
            i_sum.is_finite() && i_sum >= 0.0,
            "set-point must be non-negative"
        );
        IlluminationTarget { i_sum }
    }

    /// Eq. 5: the LED level that tops ambient light up to the set-point,
    /// clamped to what the LED can physically do. When ambient alone
    /// exceeds the set-point the LED goes fully off; when even full LED
    /// output cannot reach it the LED saturates at 1.
    pub fn led_level_for(self, i_ambient: f64) -> DimmingLevel {
        DimmingLevel::clamped(self.i_sum - i_ambient.max(0.0))
    }

    /// The step the LED must take when ambient changes from `amb_old` to
    /// `amb_new` (ΔIled of Eq. 5); positive = brighten.
    pub fn led_delta(self, amb_old: f64, amb_new: f64) -> f64 {
        self.led_level_for(amb_new).value() - self.led_level_for(amb_old).value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_range() {
        assert!(DimmingLevel::new(0.0).is_some());
        assert!(DimmingLevel::new(1.0).is_some());
        assert!(DimmingLevel::new(0.5).is_some());
        assert!(DimmingLevel::new(-0.01).is_none());
        assert!(DimmingLevel::new(1.01).is_none());
        assert!(DimmingLevel::new(f64::NAN).is_none());
        assert!(DimmingLevel::new(f64::INFINITY).is_none());
    }

    #[test]
    fn clamped_handles_extremes() {
        assert_eq!(DimmingLevel::clamped(-3.0).value(), 0.0);
        assert_eq!(DimmingLevel::clamped(7.0).value(), 1.0);
        assert_eq!(DimmingLevel::clamped(f64::NAN).value(), 0.0);
        assert_eq!(DimmingLevel::clamped(0.3).value(), 0.3);
    }

    #[test]
    fn from_ratio_matches_eq_1() {
        // Fig. 3's example: N=10, two ONs -> l=0.2.
        assert_eq!(DimmingLevel::from_ratio(2, 10).unwrap().value(), 0.2);
        assert!(DimmingLevel::from_ratio(11, 10).is_none());
        assert!(DimmingLevel::from_ratio(0, 0).is_none());
        assert_eq!(DimmingLevel::from_ratio(0, 10).unwrap(), DimmingLevel::OFF);
        assert_eq!(
            DimmingLevel::from_ratio(10, 10).unwrap(),
            DimmingLevel::FULL
        );
    }

    #[test]
    fn led_level_complements_ambient() {
        let t = IlluminationTarget::new(1.0);
        assert_eq!(t.led_level_for(0.0).value(), 1.0);
        assert!((t.led_level_for(0.3).value() - 0.7).abs() < 1e-12);
        assert_eq!(t.led_level_for(1.0).value(), 0.0);
        // Ambient exceeding the set-point: LED fully off, never negative.
        assert_eq!(t.led_level_for(1.5).value(), 0.0);
        // Negative ambient readings (sensor noise) treated as zero.
        assert_eq!(t.led_level_for(-0.2).value(), 1.0);
    }

    #[test]
    fn led_level_saturates_when_setpoint_unreachable() {
        let t = IlluminationTarget::new(1.4);
        assert_eq!(t.led_level_for(0.1).value(), 1.0);
        assert!((t.led_level_for(0.6).value() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn led_delta_matches_eq_5() {
        // Eq. 5: ambient drops by 0.2 => LED rises by 0.2.
        let t = IlluminationTarget::new(1.0);
        let d = t.led_delta(0.5, 0.3);
        assert!((d - 0.2).abs() < 1e-12);
        let d = t.led_delta(0.3, 0.5);
        assert!((d + 0.2).abs() < 1e-12);
    }

    #[test]
    fn display_is_percent() {
        assert_eq!(DimmingLevel::clamped(0.25).to_string(), "25.0%");
    }
}
