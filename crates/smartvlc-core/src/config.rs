//! System-wide configuration — the paper's §6.1 parameter set.
//!
//! Every figure/table generator and the end-to-end link share one
//! [`SystemConfig`]. The default value is the **paper calibration**: the
//! parameters §6.1 reports for the BeagleBone prototype, with one
//! documented adjustment (see [`SystemConfig::ser_upper_bound`]).

use crate::ser::SlotErrorProbs;

/// Global SmartVLC parameters (paper §6.1).
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// Slot clock: the maximum LED toggle rate, `ftx = 1/tslot`.
    ///
    /// Paper: 125 kHz (`tslot = 8 µs`), limited by the Philips LED's
    /// rise/fall time rather than by the PRU.
    pub ftx_hz: u64,

    /// Type-I flicker threshold: the minimum super-symbol repetition
    /// frequency below which humans perceive flicker.
    ///
    /// Paper: 250 Hz, chosen with a 20-subject study as a safe margin over
    /// the 200 Hz IEEE 802.15.7 figure.
    pub fth_hz: u64,

    /// Measured slot-error probabilities (P1 = OFF decoded wrong,
    /// P2 = ON decoded wrong). Paper: 9e-5 / 8e-5, measured at 3.6 m with
    /// high ambient noise.
    pub slot_errors: SlotErrorProbs,

    /// Upper bound on the symbol error rate; patterns whose Eq. 3 SER
    /// exceeds it are abandoned (AMPPM Step 2, Fig. 8).
    ///
    /// The paper's text says `0.001`, but its own chosen pattern
    /// `S(21, 0.524)` has SER 1.78e-3 under the stated P1/P2, and its MPPM
    /// baseline `N = 20` has 1.7e-3. We default to `2.5e-3`, the smallest
    /// round bound consistent with the paper's own pattern choices; the
    /// knob is here so either reading can be reproduced.
    pub ser_upper_bound: f64,

    /// Smallest symbol length the planner considers. The paper's candidate
    /// plots (Figs. 4, 8, 9) start at N = 10.
    pub n_min: u16,

    /// Resolution at which dimming levels are quantized when they are
    /// carried in the frame header and used as planner cache keys.
    ///
    /// τp = 0.003 (Table 2: the largest step no subject could perceive),
    /// so 1/1024 ≈ 0.00098 quantization is comfortably below it.
    pub dimming_quantum: f64,

    /// MAC payload length in bytes. Paper: fixed 128 B in all experiments.
    pub payload_len: usize,

    /// Perceptual adaptation step τp (fraction of full scale, Table 2(b)).
    pub tau_p: f64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            ftx_hz: 125_000,
            fth_hz: 250,
            slot_errors: SlotErrorProbs {
                p_off_error: 9e-5,
                p_on_error: 8e-5,
            },
            ser_upper_bound: 2.5e-3,
            n_min: 10,
            dimming_quantum: 1.0 / 1024.0,
            payload_len: 128,
            tau_p: 0.003,
        }
    }
}

impl SystemConfig {
    /// The alternative "optimistic" calibration (see DESIGN.md): the
    /// paper's *stated* SER bound of 1e-3 combined with slot error
    /// probabilities one decade below its measured worst-case values
    /// (i.e. the mid-range operating point rather than the 3.6 m extreme).
    ///
    /// This admits symbol lengths up to N ≈ 112 and reproduces the
    /// paper's AMPPM throughput at extreme dimming levels (≈55 Kbps at
    /// l = 0.1, vs ≈48 Kbps under the default calibration), at the cost
    /// of overshooting its mid-range numbers. The paper's own figures are
    /// not consistent with a single (P1, P2, bound) triple; we default to
    /// the measured triple and expose this one for comparison.
    pub fn paper_optimistic() -> SystemConfig {
        SystemConfig {
            slot_errors: SlotErrorProbs {
                p_off_error: 9e-6,
                p_on_error: 8e-6,
            },
            ser_upper_bound: 1e-3,
            ..SystemConfig::default()
        }
    }

    /// Slot duration in seconds (`tslot = 1/ftx`).
    pub fn tslot_secs(&self) -> f64 {
        1.0 / self.ftx_hz as f64
    }

    /// Slot duration in whole nanoseconds. Exact for the paper's 125 kHz.
    pub fn tslot_nanos(&self) -> u64 {
        1_000_000_000 / self.ftx_hz
    }

    /// Eq. 4: the maximum number of slots in one super-symbol such that
    /// super-symbols repeat at ≥ `fth` and cause no Type-I flicker.
    ///
    /// Paper: `Nmax = ftx/fth = 125000/250 = 500`.
    pub fn n_max_super(&self) -> u64 {
        assert!(self.fth_hz > 0, "fth must be positive");
        self.ftx_hz / self.fth_hz
    }

    /// Quantize a dimming level to the header/cache grid, clamped to
    /// `[0, 1]`. Returns the grid index; `dequantize_dimming` inverts it.
    pub fn quantize_dimming(&self, l: f64) -> u16 {
        let steps = (1.0 / self.dimming_quantum).round();
        let q = (l.clamp(0.0, 1.0) * steps).round();
        q as u16
    }

    /// Map a grid index back to a dimming level in `[0, 1]`.
    pub fn dequantize_dimming(&self, q: u16) -> f64 {
        let steps = (1.0 / self.dimming_quantum).round();
        (q as f64 / steps).clamp(0.0, 1.0)
    }

    /// Validate internal consistency; call after hand-building a config.
    pub fn validate(&self) -> Result<(), String> {
        if self.ftx_hz == 0 {
            return Err("ftx must be positive".into());
        }
        if self.fth_hz == 0 {
            return Err("fth must be positive".into());
        }
        if self.n_max_super() < self.n_min as u64 {
            return Err(format!(
                "Nmax = ftx/fth = {} is below n_min = {}; no symbol fits in a super-symbol",
                self.n_max_super(),
                self.n_min
            ));
        }
        if !(0.0..=1.0).contains(&self.slot_errors.p_off_error)
            || !(0.0..=1.0).contains(&self.slot_errors.p_on_error)
        {
            return Err("slot error probabilities must be in [0,1]".into());
        }
        if !(self.ser_upper_bound > 0.0 && self.ser_upper_bound < 1.0) {
            return Err("SER bound must be in (0,1)".into());
        }
        if self.n_min < 2 {
            return Err("n_min must be at least 2".into());
        }
        if !(self.dimming_quantum > 0.0 && self.dimming_quantum <= 0.25) {
            return Err("dimming_quantum must be in (0, 0.25]".into());
        }
        if !(self.tau_p > 0.0 && self.tau_p < 1.0) {
            return Err("tau_p must be in (0,1)".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_calibration_matches_section_6_1() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.ftx_hz, 125_000);
        assert_eq!(cfg.tslot_nanos(), 8_000); // tslot = 8 us
        assert_eq!(cfg.fth_hz, 250);
        assert_eq!(cfg.n_max_super(), 500); // Eq. 4
        assert_eq!(cfg.payload_len, 128);
        assert_eq!(cfg.slot_errors.p_off_error, 9e-5);
        assert_eq!(cfg.slot_errors.p_on_error, 8e-5);
        assert_eq!(cfg.tau_p, 0.003);
        cfg.validate().unwrap();
    }

    #[test]
    fn tslot_secs_is_8us() {
        let cfg = SystemConfig::default();
        assert!((cfg.tslot_secs() - 8e-6).abs() < 1e-15);
    }

    #[test]
    fn quantization_roundtrip_is_within_half_quantum() {
        let cfg = SystemConfig::default();
        for i in 0..=1000 {
            let l = i as f64 / 1000.0;
            let q = cfg.quantize_dimming(l);
            let back = cfg.dequantize_dimming(q);
            assert!(
                (back - l).abs() <= cfg.dimming_quantum / 2.0 + 1e-12,
                "l={l} back={back}"
            );
        }
    }

    #[test]
    fn quantization_clamps() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.quantize_dimming(-0.5), 0);
        assert_eq!(cfg.dequantize_dimming(cfg.quantize_dimming(1.5)), 1.0);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let cfg = SystemConfig {
            fth_hz: 200_000, // Nmax = 0 < n_min
            ..SystemConfig::default()
        };
        assert!(cfg.validate().is_err());

        let cfg = SystemConfig {
            ser_upper_bound: 0.0,
            ..SystemConfig::default()
        };
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::default();
        cfg.slot_errors.p_on_error = 1.5;
        assert!(cfg.validate().is_err());

        let cfg = SystemConfig {
            n_min: 1,
            ..SystemConfig::default()
        };
        assert!(cfg.validate().is_err());
    }
}

#[cfg(test)]
mod optimistic_tests {
    use super::*;

    #[test]
    fn optimistic_calibration_is_valid_and_admits_large_n() {
        let cfg = SystemConfig::paper_optimistic();
        cfg.validate().unwrap();
        // N = 110 at l = 0.1 passes the 1e-3 bound under the optimistic
        // error probabilities (99*9e-6 + 11*8e-6 ~ 9.8e-4)...
        let s = crate::symbol::SymbolPattern::new(110, 11).unwrap();
        assert!(cfg.slot_errors.symbol_error_rate(s) < cfg.ser_upper_bound);
        // ...but fails under the default (measured) calibration.
        let default = SystemConfig::default();
        assert!(default.slot_errors.symbol_error_rate(s) > default.ser_upper_bound);
    }
}
