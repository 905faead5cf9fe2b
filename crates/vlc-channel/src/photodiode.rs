//! Photodiode models: optical power → photocurrent, plus noise statistics.
//!
//! The paper uses two parts: an OSRAM **SFH206K** at the receiver (chosen
//! for "low response time and high sensitivity") and a TI **OPT101** at
//! the transmitter for ambient sensing (slower, integrated amplifier).
//! What matters for the channel is the responsivity, the active area, and
//! the shot noise the photocurrent carries:
//!
//! ```text
//! i_ph     = R · P_opt                      (A)
//! σ²_shot  = 2·q·(i_ph + i_ambient + i_dark)·B   (A², one-sided)
//! ```

/// Elementary charge, coulombs.
pub const ELECTRON_CHARGE_C: f64 = 1.602_176_634e-19;

/// A PIN photodiode.
#[derive(Clone, Copy, Debug)]
pub struct Photodiode {
    /// Responsivity at the LED's dominant wavelength, A/W.
    pub responsivity_a_per_w: f64,
    /// Active area, m².
    pub area_m2: f64,
    /// Dark current, A.
    pub dark_current_a: f64,
    /// Ambient-light-to-photocurrent coupling: photocurrent per lux of
    /// ambient illuminance on the chip, A/lux. Folds the luminous
    /// efficacy conversion into one measured constant.
    pub a_per_lux: f64,
}

impl Photodiode {
    /// OSRAM SFH206K — the paper's receiver diode (fast, 7.5 mm²).
    pub fn sfh206k() -> Photodiode {
        Photodiode {
            responsivity_a_per_w: 0.62,
            area_m2: 7.5e-6,
            dark_current_a: 1e-9,
            // Datasheet: ~9.6 uA at 1 klx (standard light A); per lux:
            a_per_lux: 9.6e-9,
        }
    }

    /// TI OPT101 — the paper's transmitter-side ambient sensor (the chip
    /// integrates diode + TIA; we expose the diode-equivalent view).
    pub fn opt101() -> Photodiode {
        Photodiode {
            responsivity_a_per_w: 0.45,
            area_m2: 5.2e-6,
            dark_current_a: 2.5e-9,
            a_per_lux: 5.5e-9,
        }
    }

    /// Photocurrent for received optical power plus ambient illuminance.
    pub fn photocurrent_a(&self, optical_w: f64, ambient_lux: f64) -> f64 {
        self.responsivity_a_per_w * optical_w.max(0.0)
            + self.a_per_lux * ambient_lux.max(0.0)
            + self.dark_current_a
    }

    /// One-sided shot-noise standard deviation for a total current over
    /// bandwidth `bandwidth_hz`.
    pub fn shot_noise_std_a(&self, total_current_a: f64, bandwidth_hz: f64) -> f64 {
        (2.0 * ELECTRON_CHARGE_C * total_current_a.max(0.0) * bandwidth_hz.max(0.0)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn photocurrent_is_linear_in_power() {
        let pd = Photodiode::sfh206k();
        let base = pd.photocurrent_a(0.0, 0.0);
        let i1 = pd.photocurrent_a(1e-6, 0.0) - base;
        let i2 = pd.photocurrent_a(2e-6, 0.0) - base;
        assert!((i2 / i1 - 2.0).abs() < 1e-9);
        assert!((i1 - 0.62e-6).abs() < 1e-12);
    }

    #[test]
    fn ambient_adds_dc() {
        let pd = Photodiode::sfh206k();
        // The paper's brightest condition: ~9760 lux sunny office.
        let i = pd.photocurrent_a(0.0, 9760.0) - pd.dark_current_a;
        assert!((i - 9760.0 * 9.6e-9).abs() < 1e-12);
        // ~94 uA of ambient-induced current.
        assert!(i > 9e-5 && i < 1e-4, "i={i}");
    }

    #[test]
    fn negative_inputs_clamped() {
        let pd = Photodiode::sfh206k();
        assert_eq!(pd.photocurrent_a(-1.0, -100.0), pd.dark_current_a);
    }

    #[test]
    fn shot_noise_scales_sqrt() {
        let pd = Photodiode::sfh206k();
        let s1 = pd.shot_noise_std_a(1e-6, 500e3);
        let s4 = pd.shot_noise_std_a(4e-6, 500e3);
        assert!((s4 / s1 - 2.0).abs() < 1e-9);
        // Magnitude check: ~1.8e-11 A per sqrt unit... ~0.57 nA at 1 uA/500 kHz.
        assert!(s1 > 1e-10 && s1 < 1e-9, "s1={s1}");
    }

    #[test]
    fn shot_noise_handles_zero() {
        let pd = Photodiode::sfh206k();
        assert_eq!(pd.shot_noise_std_a(0.0, 0.0), 0.0);
        assert_eq!(pd.shot_noise_std_a(-1.0, 500e3), 0.0);
    }

    #[test]
    fn receiver_diode_outresponds_sensor_diode() {
        // The SFH206K was chosen over the OPT101 for the receive path.
        assert!(
            Photodiode::sfh206k().responsivity_a_per_w > Photodiode::opt101().responsivity_a_per_w
        );
    }
}
