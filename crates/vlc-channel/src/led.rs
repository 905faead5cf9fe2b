//! LED switching dynamics.
//!
//! The paper's transmitter drives a Philips 4.7 W LED through a MOSFET and
//! even removes the AC-DC converter "that can slow down the transition
//! speed between ON and OFF states". What remains is still a first-order
//! system: optical output follows drive changes exponentially with a
//! rise/fall time constant. §6.1 reports that the LED — not the PRU — is
//! the bottleneck, fixing `tslot = 8 µs` as "the minimal time slot the LED
//! supports, under which the transmitted signals are not distorted too
//! much". This model reproduces exactly that trade-off.

/// First-order LED optical response model.
#[derive(Clone, Copy, Debug)]
pub struct LedModel {
    /// Time constant when turning on, seconds.
    pub rise_tau_s: f64,
    /// Time constant when turning off, seconds.
    pub fall_tau_s: f64,
    /// Optical power emitted at full drive, watts.
    pub on_power_w: f64,
    /// Residual emission at zero drive as a fraction of `on_power_w`
    /// (finite extinction ratio of the driver).
    pub off_fraction: f64,
}

impl LedModel {
    /// The disassembled Philips 4.7 W luminaire of the paper's prototype.
    ///
    /// τ ≈ 1.3 µs makes an 8 µs slot ≈ 6 time constants — "not distorted
    /// too much" — while a 2 µs slot would be badly smeared, matching the
    /// paper's choice of `tslot`.
    pub fn philips_4w7() -> LedModel {
        LedModel {
            rise_tau_s: 1.3e-6,
            fall_tau_s: 1.1e-6,
            // 4.7 W electrical, ~30% wall-plug efficiency for a warm-white
            // LED of that era.
            on_power_w: 1.4,
            off_fraction: 0.005,
        }
    }

    /// An idealized instant LED (for isolating other effects in tests).
    pub fn ideal(on_power_w: f64) -> LedModel {
        LedModel {
            rise_tau_s: 0.0,
            fall_tau_s: 0.0,
            on_power_w,
            off_fraction: 0.0,
        }
    }

    /// Optical power at drive level `level` (0 = off, 1 = on) in steady
    /// state.
    pub fn steady_power(&self, level: f64) -> f64 {
        let level = level.clamp(0.0, 1.0);
        self.on_power_w * (self.off_fraction + (1.0 - self.off_fraction) * level)
    }

    /// The slot-invariant constants of the first-order step response at
    /// `samples_per_slot` samples per slot of duration `tslot_s`.
    ///
    /// The per-sample `exp` is hoisted: each direction's `alpha` depends
    /// only on the sample interval and its rise/fall constant.
    pub fn slot_step(&self, tslot_s: f64, samples_per_slot: usize) -> LedSlotStep {
        assert!(samples_per_slot >= 1, "need at least one sample per slot");
        assert!(tslot_s > 0.0, "slot duration must be positive");
        let dt = tslot_s / samples_per_slot as f64;
        let alpha = |tau: f64| {
            if tau > 0.0 {
                1.0 - (-dt / tau).exp()
            } else {
                1.0
            }
        };
        LedSlotStep {
            target: [self.steady_power(0.0), self.steady_power(1.0)],
            rise: (self.rise_tau_s, alpha(self.rise_tau_s)),
            fall: (self.fall_tau_s, alpha(self.fall_tau_s)),
            samples_per_slot,
        }
    }

    /// Eye-opening metric for a given slot duration: the fraction of the
    /// ON/OFF swing reached by the end of one slot after a transition.
    /// The paper's "not distorted too much" criterion corresponds to an
    /// opening near 1.0; values below ~0.9 start costing SNR.
    pub fn eye_opening(&self, tslot_s: f64) -> f64 {
        let tau = self.rise_tau_s.max(self.fall_tau_s);
        if tau <= 0.0 {
            1.0
        } else {
            1.0 - (-tslot_s / tau).exp()
        }
    }
}

/// One slot of the LED's optical response, with its constants hoisted
/// (see [`LedModel::slot_step`]).
#[derive(Clone, Copy, Debug)]
pub struct LedSlotStep {
    /// Steady-state power for an OFF and an ON slot, W.
    target: [f64; 2],
    /// Rise time constant and its per-sample `alpha`.
    rise: (f64, f64),
    /// Fall time constant and its per-sample `alpha`.
    fall: (f64, f64),
    samples_per_slot: usize,
}

impl LedSlotStep {
    /// The exact bits of every constant [`LedSlotStep::walk`] reads.
    pub(crate) fn bits(&self) -> [u64; 7] {
        [
            self.target[0].to_bits(),
            self.target[1].to_bits(),
            self.rise.0.to_bits(),
            self.rise.1.to_bits(),
            self.fall.0.to_bits(),
            self.fall.1.to_bits(),
            self.samples_per_slot as u64,
        ]
    }

    /// The optical power at the start of a run whose first slot is `slot`
    /// (steady operation, not cold start).
    pub fn initial_power(&self, slot: bool) -> f64 {
        self.target[usize::from(slot)]
    }

    /// Drive one slot `slot` from optical power `power`: calls
    /// `sample(k, p)` with each of the slot's samples in order and
    /// returns the power at the end of the slot, the next slot's start.
    ///
    /// The output tracks the drive exponentially with the rise or fall
    /// constant. A constant of zero (an instant LED) sets every sample to
    /// the target outright, which is not the same as `alpha = 1`:
    /// `p + (target − p)·1` can round away from `target`.
    #[inline]
    pub fn walk(&self, mut power: f64, slot: bool, mut sample: impl FnMut(usize, f64)) -> f64 {
        let target = self.target[usize::from(slot)];
        let (tau, alpha) = if target > power { self.rise } else { self.fall };
        for k in 0..self.samples_per_slot {
            if tau <= 0.0 {
                power = target;
            } else {
                power += (target - power) * alpha;
            }
            sample(k, power);
        }
        power
    }
}

/// The whole-waveform synthesizer the sampled channel ran before its
/// per-slot kernel, kept verbatim as the reference the kernel is tested
/// against.
#[cfg(test)]
impl LedModel {
    /// The emitted optical waveform for a slot sequence:
    /// `samples_per_slot` points per slot of duration `tslot_s`, tracking
    /// the drive exponentially with the rise/fall constants from the
    /// first slot's steady state.
    pub(crate) fn synthesize(
        &self,
        slots: &[bool],
        tslot_s: f64,
        samples_per_slot: usize,
    ) -> Vec<f64> {
        let dt = tslot_s / samples_per_slot as f64;
        let mut out = Vec::new();
        let mut power = match slots.first() {
            Some(&s) => self.steady_power(s as u8 as f64),
            None => return out,
        };
        let rise_alpha = if self.rise_tau_s > 0.0 {
            1.0 - (-dt / self.rise_tau_s).exp()
        } else {
            1.0
        };
        let fall_alpha = if self.fall_tau_s > 0.0 {
            1.0 - (-dt / self.fall_tau_s).exp()
        } else {
            1.0
        };
        for &slot in slots {
            let target = self.steady_power(slot as u8 as f64);
            let rising = target > power;
            let tau = if rising {
                self.rise_tau_s
            } else {
                self.fall_tau_s
            };
            if tau <= 0.0 {
                for _ in 0..samples_per_slot {
                    power = target;
                    out.push(power);
                }
            } else {
                let alpha = if rising { rise_alpha } else { fall_alpha };
                for _ in 0..samples_per_slot {
                    power += (target - power) * alpha;
                    out.push(power);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The waveform the production step produces, slot after slot.
    fn wave(led: &LedModel, slots: &[bool], tslot_s: f64, spp: usize) -> Vec<f64> {
        let step = led.slot_step(tslot_s, spp);
        let mut out = Vec::new();
        if let Some(&first) = slots.first() {
            let mut power = step.initial_power(first);
            for &slot in slots {
                power = step.walk(power, slot, |_, p| out.push(p));
            }
        }
        out
    }

    #[test]
    fn steady_power_endpoints() {
        let led = LedModel::philips_4w7();
        assert!((led.steady_power(1.0) - led.on_power_w).abs() < 1e-12);
        assert!((led.steady_power(0.0) - led.on_power_w * led.off_fraction).abs() < 1e-12);
        // Clamps out-of-range drive.
        assert_eq!(led.steady_power(2.0), led.steady_power(1.0));
    }

    #[test]
    fn ideal_led_is_square() {
        let led = LedModel::ideal(1.0);
        let wave = wave(&led, &[true, false, true], 8e-6, 4);
        assert_eq!(wave.len(), 12);
        assert!(wave[..4].iter().all(|&p| p == 1.0));
        assert!(wave[4..8].iter().all(|&p| p == 0.0));
        assert!(wave[8..].iter().all(|&p| p == 1.0));
    }

    #[test]
    fn real_led_rises_exponentially() {
        let led = LedModel::philips_4w7();
        let wave = wave(&led, &[false, true, true], 8e-6, 8);
        // Monotone rise after the transition...
        let rise = &wave[8..16];
        assert!(rise.windows(2).all(|w| w[1] >= w[0]));
        // ...reaching most of the swing within the slot (tslot = 6 tau).
        let target = led.steady_power(1.0);
        assert!(rise[7] > 0.99 * target, "end of slot: {}", rise[7]);
        // But clearly not instantaneous at the start.
        assert!(rise[0] < 0.7 * target, "first sample: {}", rise[0]);
    }

    #[test]
    fn paper_slot_choice_is_undistorted_but_2us_is_not() {
        // The quantitative version of Sec. 6.1's tslot discussion.
        let led = LedModel::philips_4w7();
        assert!(led.eye_opening(8e-6) > 0.99);
        assert!(led.eye_opening(2e-6) < 0.80);
    }

    #[test]
    fn fall_uses_fall_tau() {
        let led = LedModel {
            rise_tau_s: 1e-6,
            fall_tau_s: 10e-6, // pathologically slow fall
            on_power_w: 1.0,
            off_fraction: 0.0,
        };
        let wave = wave(&led, &[true, false], 8e-6, 8);
        // After one slot of falling with tau=10us, still above half power.
        assert!(wave[15] > 0.4, "fall too fast: {}", wave[15]);
    }

    #[test]
    fn walk_reports_every_sample_in_order() {
        let step = LedModel::philips_4w7().slot_step(8e-6, 4);
        let mut seen = Vec::new();
        let end = step.walk(step.initial_power(false), true, |k, p| seen.push((k, p)));
        assert_eq!(seen.iter().map(|s| s.0).collect::<Vec<_>>(), [0, 1, 2, 3]);
        assert_eq!(end.to_bits(), seen[3].1.to_bits());
    }

    #[test]
    fn hoisted_alpha_is_bit_identical_to_per_sample_exp() {
        // The original loop recomputed `1 - exp(-dt/tau)` per sample;
        // the slot step hoists it. Pin bit-identity against a direct
        // transcription of the per-sample form.
        let led = LedModel::philips_4w7();
        let slots: Vec<bool> = (0..257).map(|i| i % 7 < 3).collect();
        let (tslot_s, spp) = (8e-6, 4usize);
        let dt = tslot_s / spp as f64;
        let mut power = led.steady_power(slots[0] as u8 as f64);
        let mut reference = Vec::new();
        for &slot in &slots {
            let target = led.steady_power(slot as u8 as f64);
            let tau = if target > power {
                led.rise_tau_s
            } else {
                led.fall_tau_s
            };
            for _ in 0..spp {
                let alpha = 1.0 - (-dt / tau).exp();
                power += (target - power) * alpha;
                reference.push(power);
            }
        }
        let wave = wave(&led, &slots, tslot_s, spp);
        assert_eq!(wave.len(), reference.len());
        for (a, b) in wave.iter().zip(&reference) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn slot_step_matches_the_reference_synthesizer() {
        // Bit for bit, across slow, instant (the `tau <= 0` branch) and
        // ideal LEDs and several sampling rates.
        let slow_fall = LedModel {
            fall_tau_s: 10e-6,
            ..LedModel::philips_4w7()
        };
        let instant = LedModel {
            rise_tau_s: 0.0,
            fall_tau_s: 0.0,
            ..LedModel::philips_4w7()
        };
        let leds = [
            LedModel::philips_4w7(),
            LedModel::ideal(1.4),
            instant,
            slow_fall,
        ];
        let slots: Vec<bool> = (0..300u32)
            .map(|i| i.wrapping_mul(2_654_435_761) >> 31 == 1)
            .collect();
        for led in leds {
            for spp in [1, 2, 4, 8] {
                for n in [0, 1, 2, slots.len()] {
                    let a = wave(&led, &slots[..n], 8e-6, spp);
                    let b = led.synthesize(&slots[..n], 8e-6, spp);
                    let bits = |w: &[f64]| w.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&a), bits(&b), "{led:?} spp={spp} n={n}");
                }
            }
        }
    }
}
