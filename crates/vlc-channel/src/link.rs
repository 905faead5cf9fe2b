//! The composed optical channel: slot waveform in, detected slots out.
//!
//! Pipeline (matching the paper's receive chain end to end):
//!
//! ```text
//! slots → LED dynamics → Lambertian path → photodiode (+ ambient, shot)
//!       → TIA + thermal/ambient noise + ADC → slot averaging → decisions
//! ```
//!
//! The calibration ties everything to the paper's §6.1 measurement: at
//! 3.6 m under bright ambient, the analytic slot error probabilities come
//! out at the measured `P1 ≈ 9e-5`, `P2 ≈ 8e-5`; closer in, the link is
//! essentially clean; past ~4 m, frame-level error amplification produces
//! the throughput cliff of Fig. 16.

use crate::ambient::AmbientProfile;
use crate::detector::{ChannelErrorProbs, SlotDetector};
use crate::faults::ChannelFaultState;
use crate::frontend::AnalogFrontend;
use crate::led::{LedModel, LedSlotStep};
use crate::opcache::{CachedOp, OperatingPointCache};
use crate::optics::LambertianLink;
use crate::photodiode::{Photodiode, ELECTRON_CHARGE_C};
use desim::{DetRng, SimTime};
use smartvlc_obs as obs;
use std::cell::Cell;

/// Number of `u64` words in a [`ChannelConfig::fingerprint`].
pub const CONFIG_FINGERPRINT_WORDS: usize = 25;

/// All channel parameters.
#[derive(Clone, Copy, Debug)]
pub struct ChannelConfig {
    /// Transmit LED.
    pub led: LedModel,
    /// Link geometry and optics.
    pub geometry: LambertianLink,
    /// Receive photodiode.
    pub rx_diode: Photodiode,
    /// TIA + ADC.
    pub frontend: AnalogFrontend,
    /// Slot duration, seconds (`1/ftx`).
    pub tslot_s: f64,
    /// ADC samples per slot (`fs/ftx`; paper: 4).
    pub samples_per_slot: usize,
    /// Ambient illuminance at the receiver, lux.
    pub ambient_lux: f64,
    /// Relative intensity noise of the ambient light (daylight flicker,
    /// mains ripple of the ceiling lights): noise-current σ per ampere of
    /// ambient photocurrent. Calibrated so bright-ambient operation at
    /// 3.6 m reproduces the paper's measured P1/P2.
    pub ambient_rin: f64,
}

impl ChannelConfig {
    /// The paper's bench at `distance_m` under bright office ambient.
    pub fn paper_bench(distance_m: f64) -> ChannelConfig {
        ChannelConfig {
            led: LedModel::philips_4w7(),
            geometry: LambertianLink::paper_bench(distance_m),
            rx_diode: Photodiode::sfh206k(),
            frontend: AnalogFrontend::paper_receiver(),
            tslot_s: 8e-6,
            samples_per_slot: 4,
            ambient_lux: 8080.0, // sunny office, ceiling lights off (L2)
            ambient_rin: 4.7e-3,
        }
    }

    /// Check the parameters the sampled channel relies on; `Err` names
    /// the first one out of range.
    ///
    /// At least two samples per slot (the first straddles the LED
    /// transition and is not counted); a finite positive slot; an ADC of
    /// 1–16 bits, so codes fit the `u16` rail and a slot's code sum fits
    /// a `u32`; and a front end whose code-to-current map increases
    /// (positive TIA gain and ADC reference), which makes a slot's
    /// decision a threshold on its integer code sum.
    pub fn validate(&self) -> Result<(), &'static str> {
        let fe = &self.frontend;
        if self.samples_per_slot < 2 {
            return Err("samples_per_slot must be at least 2");
        }
        if !(self.tslot_s.is_finite() && self.tslot_s > 0.0) {
            return Err("tslot_s must be finite and positive");
        }
        if !(1..=16).contains(&fe.adc_bits) {
            return Err("adc_bits must be in 1..=16");
        }
        if !(fe.tia_gain_v_per_a > 0.0 && fe.adc_vref_v > 0.0) {
            return Err("TIA gain and ADC reference must be positive");
        }
        if self.max_code_sum() > u64::from(u32::MAX) {
            return Err("samples_per_slot overflows the slot's ADC code sum");
        }
        Ok(())
    }

    /// The largest sum of a slot's counted ADC codes.
    fn max_code_sum(&self) -> u64 {
        (self.samples_per_slot as u64 - 1) * ((1u64 << self.frontend.adc_bits) - 1)
    }

    /// Total DC photocurrent from ambient light plus dark current, A.
    fn ambient_current(&self) -> f64 {
        self.rx_diode.a_per_lux * self.ambient_lux + self.rx_diode.dark_current_a
    }

    /// Per-sample noise σ at this operating point (input-referred, before
    /// slot averaging): thermal ⊕ ambient RIN ⊕ shot. The signal shot term
    /// conservatively uses `clear_rx_power_w`, the clear-path received
    /// power of the ON level (an attenuated signal sheds shot noise, but
    /// ambient dominates the budget).
    fn per_sample_sigma(&self, clear_rx_power_w: f64) -> f64 {
        let i_amb = self.ambient_current();
        let i_sig_mid = 0.5 * self.rx_diode.responsivity_a_per_w * clear_rx_power_w;
        let fs = self.samples_per_slot as f64 / self.tslot_s;
        let shot = self.rx_diode.shot_noise_std_a(i_amb + i_sig_mid, fs / 2.0);
        let rin = self.ambient_rin * i_amb;
        let th = self.frontend.thermal_noise_a_rms;
        (th * th + rin * rin + shot * shot).sqrt()
    }

    /// The expected slot-detector operating point for this configuration,
    /// with an extra multiplicative optical gain (blockage/occlusion) and
    /// an optional railed (saturated) front end folded in.
    ///
    /// This is the pure-configuration form of
    /// [`OpticalChannel::analytic_detector`]: no channel state, no RNG —
    /// callers that only need error probabilities (planning-level
    /// simulations such as `smartvlc-sim`'s multi-cell workload) can query
    /// it per geometry without instantiating a stateful channel.
    pub fn detector_with(&self, extra_gain: f64, saturated: bool) -> SlotDetector {
        self.detector_for_gain(self.geometry.path_gain(), extra_gain, saturated)
    }

    /// [`ChannelConfig::detector_with`] for a caller that already holds
    /// the clear-path gain `clear` (received W per emitted W): the
    /// configuration's own geometry is not consulted. With
    /// `clear = self.geometry.path_gain()` the two are bit-identical.
    pub fn detector_for_gain(&self, clear: f64, extra_gain: f64, saturated: bool) -> SlotDetector {
        // One path gain serves the levels and the shot term;
        // `on_power_w * clear` is `received_power_w(on_power_w)` bit for bit.
        let gain = clear * extra_gain;
        let r = self.rx_diode.responsivity_a_per_w;
        let mu_on = r * self.led.steady_power(1.0) * gain;
        let mu_off = r * self.led.steady_power(0.0) * gain;
        // Saturation: the frontend clips; fold the clipped swing in.
        let max_i = self
            .frontend
            .code_to_current(((1u64 << self.frontend.adc_bits) - 1) as f64);
        // A railed front end pins both levels at full scale: the slot eye
        // collapses entirely (same degenerate detector as a beyond-FoV
        // receiver, which the detector already supports).
        let (mu_on, mu_off) = if saturated {
            (max_i, max_i)
        } else {
            (mu_on.min(max_i), mu_off.min(max_i))
        };
        let sigma = self.per_sample_sigma(self.led.on_power_w * clear)
            / ((self.samples_per_slot - 1) as f64).sqrt();
        // Quantization adds lsb/sqrt(12) per sample.
        let q = self.frontend.lsb_current_a()
            / 12f64.sqrt()
            / ((self.samples_per_slot - 1) as f64).sqrt();
        SlotDetector::from_levels(mu_on, mu_off, (sigma * sigma + q * q).sqrt())
    }

    /// Clear-path analytic detector for this configuration.
    pub fn analytic_detector(&self) -> SlotDetector {
        self.detector_with(1.0, false)
    }

    /// Clear-path analytic P1/P2 for this configuration.
    pub fn analytic_error_probs(&self) -> ChannelErrorProbs {
        self.analytic_detector().error_probs()
    }

    /// The exact bit pattern of every field that feeds the analytic
    /// operating-point math, as `f64::to_bits` words (integers widened;
    /// the optional diffuse component tagged by presence). Two configs
    /// with equal fingerprints produce bit-identical
    /// [`ChannelConfig::detector_with`] outputs for equal extra inputs —
    /// the keying contract of [`crate::opcache::OperatingPointCache`].
    pub fn fingerprint(&self) -> [u64; CONFIG_FINGERPRINT_WORDS] {
        let g = &self.geometry;
        let (diffuse_tag, diffuse_rho, diffuse_area) = match g.diffuse {
            Some(d) => (1u64, d.reflectivity.to_bits(), d.room_area_m2.to_bits()),
            None => (0, 0, 0),
        };
        [
            self.led.rise_tau_s.to_bits(),
            self.led.fall_tau_s.to_bits(),
            self.led.on_power_w.to_bits(),
            self.led.off_fraction.to_bits(),
            g.semi_angle_deg.to_bits(),
            g.rx_area_m2.to_bits(),
            g.rx_fov_deg.to_bits(),
            g.distance_m.to_bits(),
            g.off_axis_deg.to_bits(),
            diffuse_tag,
            diffuse_rho,
            diffuse_area,
            self.rx_diode.responsivity_a_per_w.to_bits(),
            self.rx_diode.area_m2.to_bits(),
            self.rx_diode.dark_current_a.to_bits(),
            self.rx_diode.a_per_lux.to_bits(),
            self.frontend.tia_gain_v_per_a.to_bits(),
            self.frontend.thermal_noise_a_rms.to_bits(),
            u64::from(self.frontend.adc_bits),
            self.frontend.adc_vref_v.to_bits(),
            self.frontend.bias_v.to_bits(),
            self.tslot_s.to_bits(),
            self.samples_per_slot as u64,
            self.ambient_lux.to_bits(),
            self.ambient_rin.to_bits(),
        ]
    }
}

/// Reusable receive-path buffers for the sampled channel.
///
/// One `RxScratch` threaded through [`OpticalChannel::transmit_into`] /
/// [`OpticalChannel::transmit_and_decide_into`] is cleared and refilled in
/// place, so steady-state frames allocate nothing.
#[derive(Default)]
pub struct RxScratch {
    /// Per-slot averaged current levels (filled by `transmit_into`).
    pub levels: Vec<f64>,
    /// Per-slot decisions (filled by `transmit_and_decide_into`).
    pub decided: Vec<bool>,
}

impl RxScratch {
    /// Empty scratch; buffers grow to frame size on first use and are
    /// reused afterwards.
    pub fn new() -> RxScratch {
        RxScratch::default()
    }
}

/// The bytes an [`LedStepMemo`] table may occupy (1,024 entries at the
/// paper's four samples per slot).
const LED_MEMO_BYTES: usize = 64 * 1024;

/// The key every entry of a fresh [`LedStepMemo`] table carries.
const EMPTY_KEY: u64 = u64::MAX;

/// What one slot of the sampled channel computes before its noise draws,
/// as a function of the slot's starting optical power and its bit: the
/// per-frame constants of the LED step and of the noise model.
struct SlotModel {
    led: LedSlotStep,
    /// Signal photocurrent per watt of emitted optical power, A/W.
    i_per_w: f64,
    /// Sample noise variance with the LED dark, A².
    var_floor: f64,
    /// Signal shot-noise variance per watt emitted, A²/W.
    var_per_w: f64,
}

impl SlotModel {
    /// Memoize slot `slot` starting at optical power `power` into `entry`:
    /// the key, the power at the end of the slot, then each counted
    /// sample's signal current and noise σ. The first sample straddles
    /// the LED transition and is not counted.
    fn fill(&self, entry: &mut [u64], power: f64, slot: bool) {
        entry[0] = power.to_bits();
        let next = self.led.walk(power, slot, |k, p| {
            if k > 0 {
                let sigma = (self.var_floor + self.var_per_w * p).max(0.0).sqrt();
                entry[2 * k] = (self.i_per_w * p).to_bits();
                entry[2 * k + 1] = sigma.to_bits();
            }
        });
        entry[1] = next.to_bits();
    }
}

/// A direct-mapped memo of [`SlotModel::fill`], keyed by the exact bits of
/// a slot's starting optical power.
///
/// The LED's power at a slot boundary depends on the recent slot history
/// only until the exponential step converges, so a frame revisits few
/// distinct powers; a hit skips the serial LED recurrence and the square
/// roots. The slot bit picks one of a bucket's two entries, so it never
/// mixes into the key. The table is allocated on the first sampled frame
/// and cleared whenever the per-frame constants (the tag) change bits.
#[derive(Default)]
struct LedStepMemo {
    /// Bits of `(i_per_w, var_floor, var_per_w, dt)` the entries hold.
    tag: [u64; 4],
    /// Bits of the key hash that pick a bucket.
    bucket_bits: u32,
    /// Words per entry: key, next power, `(mean, σ)` per counted sample.
    stride: usize,
    /// `stride`-word entries; empty until the first sampled frame.
    table: Vec<u64>,
}

impl LedStepMemo {
    /// Make the table serve `model`: allocate it on first use and clear
    /// it when `tag` differs from the entries'.
    fn prepare(&mut self, model: &SlotModel, tag: [u64; 4], samples_per_slot: usize) {
        if !self.table.is_empty() && self.tag == tag {
            return;
        }
        if self.table.is_empty() {
            self.stride = 2 * samples_per_slot;
            let entries = (LED_MEMO_BYTES / (8 * self.stride)).max(4);
            self.bucket_bits = entries.ilog2() - 1;
            self.table = vec![0; (2 << self.bucket_bits) * self.stride];
        }
        self.tag = tag;
        for entry in self.table.chunks_exact_mut(self.stride) {
            entry[0] = EMPTY_KEY;
        }
        // A NaN configuration can make an all-ones power: give the two
        // entries that power probes their true content, so no empty entry
        // ever passes for its memo.
        for slot in [false, true] {
            let at = self.index(EMPTY_KEY, slot);
            model.fill(
                &mut self.table[at..at + self.stride],
                f64::from_bits(EMPTY_KEY),
                slot,
            );
        }
    }

    /// The first word of the entry for `key` and `slot`.
    #[inline]
    fn index(&self, key: u64, slot: bool) -> usize {
        let bucket = key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - self.bucket_bits);
        ((bucket as usize) << 1 | usize::from(slot)) * self.stride
    }

    /// The entry for slot `slot` starting at `power`, computed on a miss.
    #[inline]
    fn entry(&mut self, model: &SlotModel, power: f64, slot: bool) -> &[u64] {
        let at = self.index(power.to_bits(), slot);
        let entry = &mut self.table[at..at + self.stride];
        if entry[0] != power.to_bits() {
            Self::miss(model, entry, power, slot);
        }
        entry
    }

    #[cold]
    #[inline(never)]
    fn miss(model: &SlotModel, entry: &mut [u64], power: f64, slot: bool) {
        model.fill(entry, power, slot);
    }
}

/// A stateful channel instance (owns its noise stream).
pub struct OpticalChannel {
    cfg: ChannelConfig,
    rng: DetRng,
    /// Extra multiplicative optical gain (1.0 = clear; a blockage model
    /// drives this toward ~0.001).
    blockage_gain: f64,
    /// Injected impairments (see [`crate::faults::FaultPlan`]); composes
    /// with the blockage gain and configured ambient.
    fault: ChannelFaultState,
    /// Interned operating points; shared (Arc) if installed via
    /// [`OpticalChannel::set_op_cache`].
    opcache: OperatingPointCache,
    /// Memo of the operating point for the *current* channel state.
    /// Cleared by every mutator; while valid, `analytic_detector` /
    /// `analytic_error_probs` are a pointer-free `Cell` read — no key
    /// construction, no map probe, no counters.
    op_memo: Cell<Option<CachedOp>>,
    /// The sampled channel's LED-step memo (see [`LedStepMemo`]).
    led_memo: LedStepMemo,
}

impl OpticalChannel {
    /// Create a channel with a deterministic noise stream.
    ///
    /// Panics if `cfg` fails [`ChannelConfig::validate`].
    pub fn new(cfg: ChannelConfig, rng: DetRng) -> OpticalChannel {
        if let Err(e) = cfg.validate() {
            panic!("invalid channel config: {e}");
        }
        OpticalChannel {
            cfg,
            rng,
            blockage_gain: 1.0,
            fault: ChannelFaultState::CLEAR,
            opcache: OperatingPointCache::new(),
            op_memo: Cell::new(None),
            led_memo: LedStepMemo::default(),
        }
    }

    /// Install a shared operating-point cache (e.g. one cache across the
    /// channels of a sweep); clears the state memo.
    pub fn set_op_cache(&mut self, cache: OperatingPointCache) {
        self.opcache = cache;
        self.op_memo.set(None);
    }

    /// The channel's operating-point cache (hit/miss stats live here).
    pub fn op_cache(&self) -> &OperatingPointCache {
        &self.opcache
    }

    /// Apply a blockage attenuation factor (see
    /// [`crate::shadowing::ShadowingProcess`]); 1.0 restores a clear path.
    pub fn set_blockage_gain(&mut self, gain: f64) {
        self.blockage_gain = gain.clamp(0.0, 1.0);
        self.op_memo.set(None);
    }

    /// Apply an injected impairment state (ambient spike, occlusion,
    /// saturation) from a [`crate::faults::FaultPlan`]. Composes with the
    /// configured ambient and the blockage gain; call with
    /// [`ChannelFaultState::CLEAR`] (or [`Self::clear_faults`]) to restore.
    pub fn set_fault_state(&mut self, st: ChannelFaultState) {
        let next = ChannelFaultState {
            extra_ambient_lux: st.extra_ambient_lux.max(0.0),
            gain: st.gain.clamp(0.0, 1.0),
            saturated: st.saturated,
        };
        // A clear→impaired transition is one fault activation.
        if self.fault == ChannelFaultState::CLEAR && next != ChannelFaultState::CLEAR {
            obs::counter_add(obs::key!("channel.fault.activations"), 1);
        }
        self.fault = next;
        self.op_memo.set(None);
    }

    /// Remove all injected impairments.
    pub fn clear_faults(&mut self) {
        self.fault = ChannelFaultState::CLEAR;
        self.op_memo.set(None);
    }

    /// The effective ambient illuminance including injected spikes, lux.
    pub fn effective_ambient_lux(&self) -> f64 {
        self.cfg.ambient_lux + self.fault.extra_ambient_lux
    }

    /// Current configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.cfg
    }

    /// Move the receiver (distance sweep of Fig. 16).
    pub fn set_distance(&mut self, d_m: f64) {
        self.cfg.geometry.distance_m = d_m;
        self.op_memo.set(None);
    }

    /// Rotate the receiver off-axis (incidence sweep of Fig. 17).
    pub fn set_off_axis(&mut self, deg: f64) {
        self.cfg.geometry.off_axis_deg = deg;
        self.op_memo.set(None);
    }

    /// Update ambient illuminance (driven by an [`AmbientProfile`]).
    pub fn set_ambient_lux(&mut self, lux: f64) {
        self.cfg.ambient_lux = lux.max(0.0);
        self.op_memo.set(None);
    }

    /// Track an ambient profile at simulation time `t`.
    pub fn track_ambient(&mut self, profile: &mut dyn AmbientProfile, t: SimTime) {
        let lux = profile.lux_at(t);
        self.set_ambient_lux(lux);
    }

    fn ambient_current(&self) -> f64 {
        self.cfg.rx_diode.a_per_lux * self.effective_ambient_lux()
            + self.cfg.rx_diode.dark_current_a
    }

    /// The configuration with injected ambient spikes folded into the
    /// ambient field, so [`ChannelConfig`]'s analytic math sees the
    /// effective operating point.
    fn effective_cfg(&self) -> ChannelConfig {
        let mut cfg = self.cfg;
        cfg.ambient_lux = self.effective_ambient_lux();
        cfg
    }

    /// Transmit a slot waveform: fills `scratch.levels` with the per-slot
    /// detected current levels (input-referred amperes, ambient DC
    /// removed), reusing the buffers in place.
    ///
    /// Each slot's level is the mean of its ADC samples excluding the
    /// first (which straddles the LED transition). Every counted sample
    /// takes one Gaussian draw whose variance sums the independent shot,
    /// ambient-RIN and thermal terms,
    /// `2qB·(i_sig + i_amb) + (rin·i_amb)² + σ_th²`, and is then quantized
    /// by the noise-free front end.
    pub fn transmit_into(&mut self, slots: &[bool], scratch: &mut RxScratch) {
        let levels = &mut scratch.levels;
        levels.clear();
        if self.fault.saturated {
            levels.resize(slots.len(), self.saturated_level());
            return;
        }
        levels.resize(slots.len(), 0.0);
        let fe = self.cfg.frontend;
        let inv_norm = 1.0 / (self.cfg.samples_per_slot - 1) as f64;
        self.sample_slots(slots, levels, |codes| {
            fe.code_to_current(f64::from(codes) * inv_norm)
        });
    }

    /// Transmit and decide with an ideal (analytically-trained) detector —
    /// the common path for link simulations. Fills `scratch.decided` in
    /// place and clears `scratch.levels`; the draws and decisions are
    /// those of [`Self::transmit_into`] followed by
    /// [`SlotDetector::decide_into`].
    ///
    /// A slot's level is a non-decreasing function of its integer ADC
    /// code sum, so the detector's threshold becomes, once per frame, the
    /// smallest code sum whose level exceeds it; each slot then decides
    /// with one integer compare.
    pub fn transmit_and_decide_into(&mut self, slots: &[bool], scratch: &mut RxScratch) {
        let thr = self.analytic_detector().threshold();
        scratch.levels.clear();
        let decided = &mut scratch.decided;
        decided.clear();
        if self.fault.saturated {
            decided.resize(slots.len(), self.saturated_level() > thr);
            return;
        }
        decided.resize(slots.len(), false);
        let k = self.threshold_code_sum(thr);
        self.sample_slots(slots, decided, |codes| u64::from(codes) >= k);
    }

    /// The level every slot reads with the front end pinned at the rail
    /// by an injected saturation (no noise draws).
    fn saturated_level(&self) -> f64 {
        let fe = &self.cfg.frontend;
        let max_i = fe.code_to_current(((1u64 << fe.adc_bits) - 1) as f64);
        // The repeated-add average: `max_i * n / n` is not bit-identical
        // to summing n copies.
        let mut acc = 0.0;
        for _ in 1..self.cfg.samples_per_slot {
            acc += max_i;
        }
        acc / (self.cfg.samples_per_slot - 1) as f64
    }

    /// The smallest slot code sum whose level exceeds `thr`, or one past
    /// the largest possible sum if none does.
    ///
    /// The level `code_to_current(sum · (1/(spp−1)))` is a chain of
    /// correctly rounded multiplications by positive constants, a
    /// subtraction and a division by a positive gain
    /// ([`ChannelConfig::validate`]), each monotone, so `level > thr`
    /// holds exactly from one sum upward: a binary search finds it.
    fn threshold_code_sum(&self, thr: f64) -> u64 {
        let fe = &self.cfg.frontend;
        let inv_norm = 1.0 / (self.cfg.samples_per_slot - 1) as f64;
        let (mut lo, mut hi) = (0u64, self.cfg.max_code_sum() + 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if fe.code_to_current(mid as f64 * inv_norm) > thr {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// The sampled channel, one slot at a time: writes `per_slot` of each
    /// slot's sum of counted ADC codes to `out`, in slot order.
    ///
    /// Per slot, the [`LedStepMemo`] serves the LED power at the next
    /// slot's start and each counted sample's signal current and noise σ
    /// (see [`Self::transmit_into`] for the noise model); the samples then
    /// take their Gaussian draws in order and are quantized. The noise
    /// stream is stepped in a local copy so its state stays in registers.
    fn sample_slots<T>(&mut self, slots: &[bool], out: &mut [T], per_slot: impl Fn(u32) -> T) {
        let Some(&first) = slots.first() else {
            return;
        };
        let spp = self.cfg.samples_per_slot;
        // Per-frame constants. The noise variance is affine in the
        // sample's optical power: `var = var_floor + var_per_w · p_opt`.
        let i_per_w = self.cfg.rx_diode.responsivity_a_per_w
            * self.cfg.geometry.path_gain()
            * self.blockage_gain
            * self.fault.gain;
        let i_amb = self.ambient_current();
        let shot_coeff = 2.0 * ELECTRON_CHARGE_C * (spp as f64 / self.cfg.tslot_s / 2.0);
        let rin = self.cfg.ambient_rin * i_amb;
        let th = self.cfg.frontend.thermal_noise_a_rms;
        let model = SlotModel {
            led: self.cfg.led.slot_step(self.cfg.tslot_s, spp),
            i_per_w,
            var_floor: shot_coeff * i_amb + rin * rin + th * th,
            var_per_w: shot_coeff * i_per_w,
        };
        let dt = self.cfg.tslot_s / spp as f64;
        let tag = [i_per_w, model.var_floor, model.var_per_w, dt].map(f64::to_bits);
        self.led_memo.prepare(&model, tag, spp);
        let adc = self.cfg.frontend.quantizer();
        let mut rng = self.rng.clone();
        let mut power = model.led.initial_power(first);
        for (out, &slot) in out.iter_mut().zip(slots) {
            let entry = self.led_memo.entry(&model, power, slot);
            power = f64::from_bits(entry[1]);
            let mut codes = 0u32;
            for sample in entry[2..].chunks_exact(2) {
                let (mean, sigma) = (f64::from_bits(sample[0]), f64::from_bits(sample[1]));
                codes += u32::from(adc.quantize(mean + sigma * rng.next_gaussian()));
            }
            *out = per_slot(codes);
        }
        self.rng = rng;
    }

    /// The expected detector operating point at the current configuration,
    /// including blockage and injected fault state. Served from the
    /// operating-point cache; recomputed only when gain/ambient/fault
    /// state actually changed since the last query.
    pub fn analytic_detector(&self) -> SlotDetector {
        self.cached_op().detector
    }

    /// Analytic P1/P2 at the current operating point — what the paper
    /// measured empirically and fed into Eq. 3. Cached alongside the
    /// detector.
    pub fn analytic_error_probs(&self) -> ChannelErrorProbs {
        self.cached_op().probs
    }

    fn cached_op(&self) -> CachedOp {
        if let Some(op) = self.op_memo.get() {
            return op;
        }
        let op = self.opcache.query(
            &self.effective_cfg(),
            self.blockage_gain * self.fault.gain,
            self.fault.saturated,
        );
        self.op_memo.set(Some(op));
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn channel(d: f64) -> OpticalChannel {
        OpticalChannel::new(ChannelConfig::paper_bench(d), DetRng::seed_from_u64(42))
    }

    fn levels(ch: &mut OpticalChannel, slots: &[bool]) -> Vec<f64> {
        let mut scratch = RxScratch::new();
        ch.transmit_into(slots, &mut scratch);
        scratch.levels
    }

    fn decide(ch: &mut OpticalChannel, slots: &[bool]) -> Vec<bool> {
        let mut scratch = RxScratch::new();
        ch.transmit_and_decide_into(slots, &mut scratch);
        scratch.decided
    }

    #[test]
    fn clean_link_decodes_perfectly() {
        let mut ch = channel(1.0);
        let slots: Vec<bool> = (0..2000).map(|i| (i / 3) % 2 == 0).collect();
        let decided = decide(&mut ch, &slots);
        assert_eq!(decided, slots);
    }

    #[test]
    fn paper_operating_point_at_3_6m() {
        // Sec. 6.1: P1 = 9e-5, P2 = 8e-5 measured at 3.6 m with high
        // ambient noise. The calibrated model must land in that decade.
        let ch = channel(3.6);
        let probs = ch.analytic_error_probs();
        assert!(
            probs.p_off_error > 1e-5 && probs.p_off_error < 1e-3,
            "P1={}",
            probs.p_off_error
        );
    }

    #[test]
    fn detector_for_the_geometry_gain_is_detector_with_bit_for_bit() {
        let bits = |d: SlotDetector| [d.mu_on_a, d.mu_off_a, d.sigma_a].map(f64::to_bits);
        for (d, off_axis, lux) in [(0.3, 0.0, 8080.0), (3.6, 12.0, 16.0), (2.0, 75.0, 500.0)] {
            let mut cfg = ChannelConfig::paper_bench(d);
            cfg.geometry.off_axis_deg = off_axis;
            cfg.ambient_lux = lux;
            let clear = cfg.geometry.path_gain();
            for (extra, saturated) in [(1.0, false), (0.37, false), (1.0, true), (0.0, false)] {
                assert_eq!(
                    bits(cfg.detector_for_gain(clear, extra, saturated)),
                    bits(cfg.detector_with(extra, saturated)),
                    "{d} m, {off_axis}°, {lux} lx, extra {extra}, saturated {saturated}"
                );
            }
        }
    }

    #[test]
    fn link_is_healthy_at_3m_dead_past_4_5m() {
        // The Fig. 16 cliff: slot errors negligible at 3 m, catastrophic
        // by 4.5 m.
        let p3 = channel(3.0).analytic_error_probs().p_off_error;
        let p45 = channel(4.5).analytic_error_probs().p_off_error;
        assert!(p3 < 1e-6, "p3={p3}");
        // 8e-3 per slot is ~100% frame loss for the paper's ~1300-slot frames.
        assert!(p45 > 5e-3, "p45={p45}");
    }

    #[test]
    fn monte_carlo_error_rate_matches_analytic() {
        // Across the Fig. 16 cliff: p ~ 1e-4 at 3.6 m to ~1e-2 at 4.2 m.
        for d in [3.6, 3.9, 4.2] {
            let mut ch = channel(d);
            let probs = ch.analytic_error_probs();
            let expected = (probs.p_on_error + probs.p_off_error) / 2.0;
            // Enough slots for ~150 expected errors.
            let n = ((150.0 / expected) as usize).clamp(60_000, 3_000_000);
            let slots: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
            let decided = decide(&mut ch, &slots);
            let errors = decided.iter().zip(&slots).filter(|(a, b)| a != b).count();
            let measured = errors as f64 / n as f64;
            assert!(
                measured > expected * 0.4 && measured < expected * 2.5,
                "{d} m: measured={measured:.2e} expected={expected:.2e}"
            );
        }
    }

    #[test]
    fn steady_levels_match_the_analytic_detector() {
        // Bright ambient (RIN-dominated noise) and a dark room
        // (thermal-dominated): the per-slot level of a steady ON or OFF
        // run has the detector's mean and σ. Tolerances: the mean within
        // four standard errors plus half an LSB (the ADC floors, so a
        // dithered code reads half an LSB low on average), σ within 4%.
        let n = 20_000;
        for lux in [8080.0, 16.0] {
            let mut ch = channel(3.6);
            ch.set_ambient_lux(lux);
            let det = ch.analytic_detector();
            let lsb = ch.config().frontend.lsb_current_a();
            for (on, mu) in [(true, det.mu_on_a), (false, det.mu_off_a)] {
                // Skip the LED's settling at the start of the run.
                let xs = levels(&mut ch, &vec![on; n + 100]);
                let xs = &xs[100..];
                let mean = xs.iter().sum::<f64>() / n as f64;
                let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
                let sd = var.sqrt();
                let se = det.sigma_a / (n as f64).sqrt();
                assert!(
                    (mean - mu).abs() < 4.0 * se + 0.5 * lsb,
                    "{lux} lx on={on}: mean {mean:.4e} vs {mu:.4e}"
                );
                assert!(
                    (sd / det.sigma_a - 1.0).abs() < 0.04,
                    "{lux} lx on={on}: sigma {sd:.4e} vs {:.4e}",
                    det.sigma_a
                );
            }
        }
    }

    #[test]
    fn dark_room_extends_range() {
        // Ambient RIN dominates the noise budget: in the dark the same
        // geometry is much cleaner (the paper's L3 condition).
        let mut bright = channel(4.2);
        let mut dark = channel(4.2);
        bright.set_ambient_lux(9330.0);
        dark.set_ambient_lux(16.0);
        assert!(
            dark.analytic_error_probs().p_off_error
                < bright.analytic_error_probs().p_off_error / 10.0
        );
    }

    #[test]
    fn off_axis_degrades_and_fov_kills() {
        let on_axis = channel(3.3);
        let mut off = channel(3.3);
        off.set_off_axis(12.0);
        assert!(
            off.analytic_error_probs().p_off_error
                > on_axis.analytic_error_probs().p_off_error * 10.0
        );
        let mut blind = channel(1.0);
        blind.set_off_axis(70.0); // beyond the SFH206K FoV
        let d = blind.analytic_detector();
        assert_eq!(d.mu_on_a, d.mu_off_a);
    }

    #[test]
    fn short_range_survives_wide_angles() {
        // Fig. 17: at 1.3 m the link holds through 16° off-axis.
        let mut ch = channel(1.3);
        ch.set_off_axis(16.0);
        assert!(ch.analytic_error_probs().p_off_error < 1e-6);
    }

    #[test]
    fn ambient_tracking_updates_noise() {
        use crate::ambient::BlindRamp;
        let mut ch = channel(3.6);
        let mut ramp = BlindRamp::linearized(100.0, 9000.0, 60.0);
        ch.track_ambient(&mut ramp, SimTime::ZERO);
        let early = ch.analytic_error_probs().p_off_error;
        ch.track_ambient(&mut ramp, SimTime::from_secs(60));
        let late = ch.analytic_error_probs().p_off_error;
        assert!(late > early * 5.0, "early={early:.2e} late={late:.2e}");
    }

    #[test]
    fn blockage_kills_and_restores_the_link() {
        let mut ch = channel(2.0);
        let slots: Vec<bool> = (0..4000).map(|i| i % 3 == 0).collect();
        assert_eq!(decide(&mut ch, &slots), slots, "clear baseline");
        ch.set_blockage_gain(0.001); // -30 dB person in the beam
        let blocked = decide(&mut ch, &slots);
        let errors = blocked.iter().zip(&slots).filter(|(a, b)| a != b).count();
        assert!(errors > 500, "blockage barely hurt: {errors} errors");
        ch.set_blockage_gain(1.0);
        assert_eq!(decide(&mut ch, &slots), slots, "recovered");
    }

    #[test]
    fn determinism() {
        let slots: Vec<bool> = (0..500).map(|i| i % 5 < 2).collect();
        let mut a = channel(3.6);
        let mut b = channel(3.6);
        assert_eq!(levels(&mut a, &slots), levels(&mut b, &slots));
    }

    #[test]
    fn memoized_operating_point_tracks_every_mutator() {
        // Each mutator must invalidate the memo: the cached answer after a
        // mutation equals a fresh channel put in the same state.
        let mut ch = channel(3.6);
        let _warm = ch.analytic_detector(); // populate the memo
        ch.set_distance(4.1);
        ch.set_off_axis(7.0);
        ch.set_ambient_lux(5000.0);
        ch.set_blockage_gain(0.4);
        let mut fresh = channel(4.1);
        fresh.set_off_axis(7.0);
        fresh.set_ambient_lux(5000.0);
        fresh.set_blockage_gain(0.4);
        let a = ch.analytic_detector();
        let b = fresh.analytic_detector();
        assert_eq!(a.mu_on_a.to_bits(), b.mu_on_a.to_bits());
        assert_eq!(a.sigma_a.to_bits(), b.sigma_a.to_bits());
        // Repeated queries with no mutation are memo hits: the shared
        // cache records no extra traffic.
        let before = ch.op_cache().hits() + ch.op_cache().misses();
        for _ in 0..10 {
            let _ = ch.analytic_error_probs();
        }
        assert_eq!(ch.op_cache().hits() + ch.op_cache().misses(), before);
    }

    #[test]
    fn fault_state_degrades_and_clears() {
        use crate::faults::ChannelFaultState;
        let clean = channel(3.6).analytic_error_probs().p_off_error;

        // Ambient spike raises the noise floor.
        let mut spiked = channel(3.6);
        spiked.set_fault_state(ChannelFaultState {
            extra_ambient_lux: 20_000.0,
            gain: 1.0,
            saturated: false,
        });
        assert!(spiked.analytic_error_probs().p_off_error > clean * 10.0);
        assert_eq!(spiked.effective_ambient_lux(), 8080.0 + 20_000.0);

        // Occlusion composes with the blockage gain.
        let mut occluded = channel(2.0);
        occluded.set_fault_state(ChannelFaultState {
            extra_ambient_lux: 0.0,
            gain: 0.001,
            saturated: false,
        });
        let slots: Vec<bool> = (0..4000).map(|i| i % 3 == 0).collect();
        let decided = decide(&mut occluded, &slots);
        let errors = decided.iter().zip(&slots).filter(|(a, b)| a != b).count();
        assert!(errors > 500, "occlusion barely hurt: {errors} errors");

        // Saturation collapses the slot eye entirely.
        let mut sat = channel(1.0);
        sat.set_fault_state(ChannelFaultState {
            extra_ambient_lux: 0.0,
            gain: 1.0,
            saturated: true,
        });
        let d = sat.analytic_detector();
        assert_eq!(d.mu_on_a, d.mu_off_a);
        let rail = levels(&mut sat, &slots[..100]);
        assert!(rail.windows(2).all(|w| w[0] == w[1]), "rail not flat");

        // Clearing restores the baseline exactly.
        sat.clear_faults();
        assert_eq!(
            sat.analytic_error_probs().p_off_error,
            clean_channel_probs(1.0)
        );
    }

    fn clean_channel_probs(d: f64) -> f64 {
        channel(d).analytic_error_probs().p_off_error
    }

    /// The two-pass sampled channel the per-slot kernel replaced, kept as
    /// its reference: synthesize the whole LED waveform, then draw,
    /// quantize and average it into per-slot levels.
    fn reference_levels(ch: &mut OpticalChannel, slots: &[bool]) -> Vec<f64> {
        let spp = ch.cfg.samples_per_slot;
        let optical = ch.cfg.led.synthesize(slots, ch.cfg.tslot_s, spp);
        let slot_norm = (spp - 1) as f64;
        let mut levels = Vec::new();
        if ch.fault.saturated {
            let max_i = ch
                .cfg
                .frontend
                .code_to_current(((1u64 << ch.cfg.frontend.adc_bits) - 1) as f64);
            for _ in 0..slots.len() {
                let mut acc = 0.0;
                for _ in 1..spp {
                    acc += max_i;
                }
                levels.push(acc / slot_norm);
            }
            return levels;
        }
        let i_per_w = ch.cfg.rx_diode.responsivity_a_per_w
            * ch.cfg.geometry.path_gain()
            * ch.blockage_gain
            * ch.fault.gain;
        let i_amb = ch.ambient_current();
        let shot_coeff = 2.0 * ELECTRON_CHARGE_C * (spp as f64 / ch.cfg.tslot_s / 2.0);
        let rin = ch.cfg.ambient_rin * i_amb;
        let th = ch.cfg.frontend.thermal_noise_a_rms;
        let var_floor = shot_coeff * i_amb + rin * rin + th * th;
        let var_per_w = shot_coeff * i_per_w;
        let adc = ch.cfg.frontend.quantizer();
        let inv_norm = 1.0 / slot_norm;
        for chunk in optical.chunks_exact(spp) {
            let mut codes = 0u32;
            for &p_opt in &chunk[1..] {
                let sigma = (var_floor + var_per_w * p_opt).max(0.0).sqrt();
                let i = i_per_w * p_opt + sigma * ch.rng.next_gaussian();
                codes += u32::from(adc.quantize(i));
            }
            let mean_code = f64::from(codes) * inv_norm;
            levels.push(ch.cfg.frontend.code_to_current(mean_code));
        }
        levels
    }

    /// The reference levels through the batch decision.
    fn reference_decide(ch: &mut OpticalChannel, slots: &[bool]) -> Vec<bool> {
        let detector = ch.analytic_detector();
        let levels = reference_levels(ch, slots);
        let mut out = Vec::new();
        detector.decide_into(&levels, &mut out);
        out
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Put a channel in one of the impairment states the equivalence
    /// property cycles through.
    fn impair(ch: &mut OpticalChannel, state: u8) {
        let (spike, gain, saturated, blockage) = match state {
            0 => (0.0, 1.0, false, 1.0),
            1 => (20_000.0, 1.0, false, 1.0),
            2 => (0.0, 1.0, false, 0.3),
            3 => (0.0, 1.0, true, 1.0),
            _ => (5_000.0, 0.05, false, 0.7),
        };
        ch.set_blockage_gain(blockage);
        ch.set_fault_state(ChannelFaultState {
            extra_ambient_lux: spike,
            gain,
            saturated,
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The per-slot kernel decides, levels and draws exactly as the
        /// two-pass reference, frame after frame on one channel (so the
        /// LED-step memo carries over and is re-tagged as the impairment
        /// state changes).
        #[test]
        fn kernel_matches_the_two_pass_reference(
            seed in any::<u64>(),
            distance in 1.0f64..6.0,
            spp in 0usize..3,
            led in 0usize..3,
            on_pct in 0u32..=100,
            raw in proptest::collection::vec(any::<u32>(), 0..700),
            short in 0u8..4,
            states in proptest::collection::vec(0u8..5, 1..5),
        ) {
            let mut cfg = ChannelConfig::paper_bench(distance);
            cfg.samples_per_slot = [2, 4, 8][spp];
            // Philips, the ideal LED, and an instant LED with the Philips
            // extinction ratio, whose `tau <= 0` step differs in bits
            // from `alpha = 1`.
            let philips = LedModel::philips_4w7();
            cfg.led = [
                philips,
                LedModel::ideal(1.4),
                LedModel { rise_tau_s: 0.0, fall_tau_s: 0.0, ..philips },
            ][led];
            let mut slots: Vec<bool> = raw.iter().map(|r| r % 100 < on_pct).collect();
            slots.truncate(match short {
                0 => 0,
                1 => 1,
                _ => slots.len(),
            });
            let mk = || OpticalChannel::new(cfg, DetRng::seed_from_u64(seed));
            let (mut kernel, mut reference) = (mk(), mk());
            let (mut kernel_lv, mut reference_lv) = (mk(), mk());
            let mut scratch = RxScratch::new();
            for &state in &states {
                for ch in [&mut kernel, &mut reference, &mut kernel_lv, &mut reference_lv] {
                    impair(ch, state);
                }
                kernel.transmit_and_decide_into(&slots, &mut scratch);
                prop_assert_eq!(&scratch.decided, &reference_decide(&mut reference, &slots));
                kernel_lv.transmit_into(&slots, &mut scratch);
                let expected = reference_levels(&mut reference_lv, &slots);
                prop_assert_eq!(bits(&scratch.levels), bits(&expected));
            }
            prop_assert_eq!(format!("{:?}", kernel.rng), format!("{:?}", reference.rng));
            prop_assert_eq!(format!("{:?}", kernel_lv.rng), format!("{:?}", reference_lv.rng));
        }
    }

    #[test]
    fn integer_threshold_decides_every_code_sum_as_the_level_does() {
        // Exhaustive over every possible slot code sum, across the cliff,
        // under a saturated detector and at several sampling rates.
        for spp in [2, 4, 8] {
            for (d, saturated) in [
                (1.0, false),
                (3.6, false),
                (4.5, false),
                (6.0, false),
                (2.0, true),
            ] {
                let mut cfg = ChannelConfig::paper_bench(d);
                cfg.samples_per_slot = spp;
                let mut ch = OpticalChannel::new(cfg, DetRng::seed_from_u64(5));
                ch.set_fault_state(ChannelFaultState {
                    extra_ambient_lux: 0.0,
                    gain: 1.0,
                    saturated,
                });
                let thr = ch.analytic_detector().threshold();
                let k = ch.threshold_code_sum(thr);
                let inv_norm = 1.0 / (spp - 1) as f64;
                for sum in 0..=(spp as u64 - 1) * 4095 {
                    let level = cfg.frontend.code_to_current(sum as f64 * inv_norm);
                    assert_eq!(sum >= k, level > thr, "spp={spp} d={d} sum={sum} K={k}");
                }
            }
        }
    }

    #[test]
    fn led_memo_is_allocated_on_the_first_sampled_frame_and_bounded() {
        let mut ch = channel(3.0);
        let mut scratch = RxScratch::new();
        ch.transmit_and_decide_into(&[], &mut scratch);
        assert!(ch.led_memo.table.is_empty());
        ch.transmit_and_decide_into(&[true, false, true], &mut scratch);
        assert_eq!(ch.led_memo.table.len() * 8, LED_MEMO_BYTES);
        for spp in [2, 3, 8, 5000] {
            let mut cfg = ChannelConfig::paper_bench(3.0);
            cfg.samples_per_slot = spp;
            let mut ch = OpticalChannel::new(cfg, DetRng::seed_from_u64(1));
            ch.transmit_into(&[true, false], &mut scratch);
            let bytes = ch.led_memo.table.len() * 8;
            assert!(bytes <= LED_MEMO_BYTES.max(4 * 16 * spp), "spp={spp}");
        }
    }

    #[test]
    fn an_all_ones_nan_power_is_not_read_as_an_empty_entry() {
        // An all-ones NaN emitter power makes every slot start at the
        // empty key's power; its entries must hold its true content.
        let mut cfg = ChannelConfig::paper_bench(3.0);
        cfg.led.on_power_w = f64::from_bits(EMPTY_KEY);
        assert_eq!(cfg.led.steady_power(1.0).to_bits(), EMPTY_KEY);
        let slots = [true, true, false, true];
        let mut kernel = OpticalChannel::new(cfg, DetRng::seed_from_u64(3));
        let mut reference = OpticalChannel::new(cfg, DetRng::seed_from_u64(3));
        let mut scratch = RxScratch::new();
        kernel.transmit_into(&slots, &mut scratch);
        assert_eq!(
            bits(&scratch.levels),
            bits(&reference_levels(&mut reference, &slots))
        );
    }

    #[test]
    fn invalid_configs_are_named() {
        let bad = |f: fn(&mut ChannelConfig)| {
            let mut cfg = ChannelConfig::paper_bench(3.0);
            f(&mut cfg);
            cfg.validate().unwrap_err()
        };
        assert!(ChannelConfig::paper_bench(3.0).validate().is_ok());
        assert!(bad(|c| c.samples_per_slot = 1).contains("samples_per_slot"));
        assert!(bad(|c| c.tslot_s = 0.0).contains("tslot_s"));
        assert!(bad(|c| c.tslot_s = f64::INFINITY).contains("tslot_s"));
        assert!(bad(|c| c.frontend.adc_bits = 0).contains("adc_bits"));
        assert!(bad(|c| c.frontend.adc_bits = 17).contains("adc_bits"));
        assert!(bad(|c| c.frontend.tia_gain_v_per_a = -1.0).contains("TIA gain"));
        assert!(bad(|c| c.samples_per_slot = 1 << 21).contains("code sum"));
    }
}
