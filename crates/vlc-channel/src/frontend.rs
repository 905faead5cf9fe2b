//! Analog front end: transimpedance amplifier + ADC.
//!
//! The paper's receive chain is a TLC237 op-amp as TIA feeding a TI
//! ADS7883 (12-bit, up to 3 MS/s, sampled at 500 kHz = 4× the slot rate).
//! The model converts AC-coupled photocurrent (ambient DC removed) to
//! voltage and quantizes it:
//!
//! ```text
//! v = clamp(i_ac · G, 0, Vref) → code ∈ [0, 2^bits)
//! ```
//!
//! The front end is noise-free here: its input-referred thermal noise
//! ([`AnalogFrontend::thermal_noise_a_rms`]) is folded by the channel into
//! the one Gaussian it draws per ADC sample, together with shot and
//! ambient-RIN noise, before the current reaches [`AnalogFrontend::quantize`].
//!
//! Quantization matters: once the received swing falls below a couple of
//! LSBs, decisions collapse — this is what produces the sharp throughput
//! cliff past 3.6 m in Fig. 16 rather than a gentle roll-off.

use serde::{Deserialize, Serialize};

/// TIA + ADC parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct AnalogFrontend {
    /// Transimpedance gain, V/A.
    pub tia_gain_v_per_a: f64,
    /// Input-referred thermal noise current, A RMS over the sampling
    /// bandwidth (op-amp + feedback resistor Johnson noise).
    pub thermal_noise_a_rms: f64,
    /// ADC resolution in bits.
    pub adc_bits: u8,
    /// ADC full-scale reference, volts.
    pub adc_vref_v: f64,
    /// Mid-scale bias applied after AC coupling, volts (keeps the signal
    /// inside the unipolar ADC range).
    pub bias_v: f64,
}

impl AnalogFrontend {
    /// The paper's TLC237 + ADS7883 chain. The gain puts the 3 m signal
    /// well inside the ADC range; the input-referred noise is the
    /// breadboard-level floor (op-amp + EMI + supply ripple) calibrated so
    /// that, together with ambient-light noise, the link reproduces the
    /// paper's measured P1 = 9e-5 / P2 = 8e-5 at 3.6 m under bright
    /// ambient (Sec. 6.1).
    pub fn paper_receiver() -> AnalogFrontend {
        AnalogFrontend {
            tia_gain_v_per_a: 2.2e5,
            thermal_noise_a_rms: 1.3e-7,
            adc_bits: 12,
            adc_vref_v: 3.3,
            bias_v: 0.5,
        }
    }

    /// Volts per ADC code.
    pub fn lsb_v(&self) -> f64 {
        self.adc_vref_v / (1u64 << self.adc_bits) as f64
    }

    /// Convert one AC-coupled, already-noised photocurrent sample to an
    /// ADC code.
    pub fn quantize(&self, i_ac_a: f64) -> u16 {
        self.quantizer().quantize(i_ac_a)
    }

    /// The ADC transfer with its constants precomputed, for per-sample
    /// loops.
    pub fn quantizer(&self) -> Quantizer {
        Quantizer {
            codes_per_a: 1.0 / self.lsb_current_a(),
            bias_codes: self.bias_v / self.lsb_v(),
            max_code: ((1u64 << self.adc_bits) - 1) as u16,
        }
    }

    /// Convert an ADC code — or a fractional one, such as the mean of a
    /// slot's codes — back to the equivalent input current.
    pub fn code_to_current(&self, code: f64) -> f64 {
        (code * self.lsb_v() - self.bias_v) / self.tia_gain_v_per_a
    }

    /// The input-referred current equivalent of one LSB — the quantization
    /// floor that sets the Fig. 16 distance cliff.
    pub fn lsb_current_a(&self) -> f64 {
        self.lsb_v() / self.tia_gain_v_per_a
    }
}

/// An [`AnalogFrontend`]'s ADC transfer with the LSB's reciprocal and the
/// bias offset precomputed: quantizing one sample is a multiply-add and a
/// saturating cast.
#[derive(Clone, Copy, Debug)]
pub struct Quantizer {
    codes_per_a: f64,
    bias_codes: f64,
    max_code: u16,
}

impl Quantizer {
    /// The ADC code for input-referred current `i_ac_a`.
    #[inline]
    pub fn quantize(&self, i_ac_a: f64) -> u16 {
        // `as` saturates (negative and NaN inputs read 0, the bottom rail)
        // and truncates, which is `floor` for the non-negative range.
        ((i_ac_a * self.codes_per_a + self.bias_codes) as u16).min(self.max_code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsb_math() {
        let fe = AnalogFrontend::paper_receiver();
        assert!((fe.lsb_v() - 3.3 / 4096.0).abs() < 1e-12);
        assert!((fe.lsb_current_a() - fe.lsb_v() / 2.2e5).abs() < 1e-20);
    }

    #[test]
    fn quantize_roundtrip_within_lsb() {
        let fe = AnalogFrontend::paper_receiver();
        for i_in in [0.0, 1e-6, 3e-6, -5e-7] {
            let i_out = fe.code_to_current(f64::from(fe.quantize(i_in)));
            assert!(
                (i_out - i_in).abs() <= fe.lsb_current_a(),
                "i_in={i_in} i_out={i_out}"
            );
        }
    }

    #[test]
    fn quantize_is_floor_of_the_transfer() {
        let fe = AnalogFrontend::paper_receiver();
        for k in 0..1000 {
            let i = -3e-6 + k as f64 * 1.7e-8;
            let v = (i * fe.tia_gain_v_per_a + fe.bias_v).clamp(0.0, fe.adc_vref_v);
            let reference = (v / fe.lsb_v()).floor().min(4095.0) as u16;
            // The hoisted multiply may land one code off exactly at a step.
            assert!(fe.quantize(i).abs_diff(reference) <= 1, "i={i}");
        }
    }

    #[test]
    fn saturation_clamps() {
        let fe = AnalogFrontend::paper_receiver();
        assert_eq!(fe.quantize(1.0), 4095); // absurdly large current
        assert_eq!(fe.quantize(-1.0), 0);
        assert_eq!(fe.quantize(f64::NAN), 0);
    }

    #[test]
    fn three_metre_signal_is_well_inside_range() {
        // Sanity-tie between optics and frontend calibration: the 3 m
        // boresight swing should span many LSBs (healthy link) but not
        // saturate.
        use crate::optics::LambertianLink;
        use crate::photodiode::Photodiode;
        let fe = AnalogFrontend::paper_receiver();
        let p_rx = LambertianLink::paper_bench(3.0).received_power_w(1.4);
        let swing = Photodiode::sfh206k().responsivity_a_per_w * p_rx;
        let lsbs = swing / fe.lsb_current_a();
        assert!(lsbs > 20.0 && lsbs < 2000.0, "swing = {lsbs} LSBs");
    }
}
