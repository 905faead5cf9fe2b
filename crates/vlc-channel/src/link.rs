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
use crate::detector::{q_function, ChannelErrorProbs, SlotDetector};
use crate::faults::ChannelFaultState;
use crate::frontend::{AnalogFrontend, Quantizer};
use crate::led::{LedModel, LedSlotStep};
use crate::opcache::{CachedOp, OperatingPointCache};
use crate::optics::LambertianLink;
use crate::photodiode::{Photodiode, ELECTRON_CHARGE_C};
use desim::{DetRng, SimTime};
use smartvlc_obs as obs;
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::sync::{Arc, Mutex, PoisonError};

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
        self.detector_terms()
            .detector(clear, extra_gain, saturated, self.ambient_lux)
    }

    /// The terms of [`ChannelConfig::detector_for_gain`] that depend on
    /// neither the path gain nor the ambient: a caller that prices many
    /// operating points of one receiver chain builds them once.
    pub fn detector_terms(&self) -> DetectorTerms {
        let r = self.rx_diode.responsivity_a_per_w;
        let fs = self.samples_per_slot as f64 / self.tslot_s;
        let sqrt_counted = ((self.samples_per_slot - 1) as f64).sqrt();
        // Quantization adds lsb/sqrt(12) per sample.
        let q = self.frontend.lsb_current_a() / 12f64.sqrt() / sqrt_counted;
        let th = self.frontend.thermal_noise_a_rms;
        DetectorTerms {
            r_on: r * self.led.steady_power(1.0),
            r_off: r * self.led.steady_power(0.0),
            max_i: self
                .frontend
                .code_to_current(((1u64 << self.frontend.adc_bits) - 1) as f64),
            on_power_w: self.led.on_power_w,
            half_r: 0.5 * r,
            rx_diode: self.rx_diode,
            half_fs: fs / 2.0,
            ambient_rin: self.ambient_rin,
            th_sq: th * th,
            sqrt_counted,
            q_sq: q * q,
        }
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

/// The run-fixed terms of [`ChannelConfig::detector_for_gain`], from
/// [`ChannelConfig::detector_terms`]: every product that reads neither
/// the path gain nor the ambient, each kept in the order the detector
/// multiplies it, so [`DetectorTerms::detector`] runs the same IEEE
/// operations on what is left.
#[derive(Clone, Copy, Debug)]
pub struct DetectorTerms {
    /// Responsivity times the ON and the OFF steady power, A per unit
    /// path gain.
    r_on: f64,
    r_off: f64,
    /// The front end's rail current (the top ADC code), A.
    max_i: f64,
    /// The LED's ON power, W: the clear-path shot term's emitted power.
    on_power_w: f64,
    /// Half the responsivity, A/W.
    half_r: f64,
    rx_diode: Photodiode,
    /// Half the sample rate, Hz: the shot noise bandwidth.
    half_fs: f64,
    ambient_rin: f64,
    /// The thermal noise variance, A².
    th_sq: f64,
    /// `√(samples_per_slot − 1)`: the counted samples' averaging.
    sqrt_counted: f64,
    /// The slot-averaged quantization variance, A².
    q_sq: f64,
}

impl DetectorTerms {
    /// The slot detector at clear-path gain `clear`, extra multiplicative
    /// optical gain `extra_gain` (blockage/occlusion), a railed
    /// (`saturated`) or linear front end, and `ambient_lux` at the
    /// receiver.
    pub fn detector(
        &self,
        clear: f64,
        extra_gain: f64,
        saturated: bool,
        ambient_lux: f64,
    ) -> SlotDetector {
        // One path gain serves the levels and the shot term;
        // `on_power_w * clear` is `received_power_w(on_power_w)` bit for bit.
        let gain = clear * extra_gain;
        let mu_on = self.r_on * gain;
        let mu_off = self.r_off * gain;
        // A railed front end pins both levels at full scale: the slot eye
        // collapses entirely (same degenerate detector as a beyond-FoV
        // receiver, which the detector already supports). Otherwise the
        // front end clips each level at the rail.
        let (mu_on, mu_off) = if saturated {
            (self.max_i, self.max_i)
        } else {
            (mu_on.min(self.max_i), mu_off.min(self.max_i))
        };
        // Per-sample noise σ, input-referred: thermal ⊕ ambient RIN ⊕
        // shot. The signal shot term conservatively uses the clear-path
        // ON power (an attenuated signal sheds shot noise, but ambient
        // dominates the budget).
        let i_amb = self.rx_diode.a_per_lux * ambient_lux + self.rx_diode.dark_current_a;
        let i_sig_mid = self.half_r * (self.on_power_w * clear);
        let shot = self
            .rx_diode
            .shot_noise_std_a(i_amb + i_sig_mid, self.half_fs);
        let rin = self.ambient_rin * i_amb;
        let per_sample = (self.th_sq + rin * rin + shot * shot).sqrt();
        let sigma = per_sample / self.sqrt_counted;
        SlotDetector::from_levels(mu_on, mu_off, (sigma * sigma + self.q_sq).sqrt())
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

/// The most states an [`LedAutomaton`] holds; interning one more clears
/// the table first.
const MAX_LED_STATES: usize = 4096;

/// [`Edge::next`] of an edge whose transition is not built yet.
const UNBUILT: u32 = u32::MAX;

/// [`DetRng::chance_threshold`] of a certain event.
const CERTAIN: u64 = 1 << 53;

/// [`Edge::thr`] of an edge whose decision takes the per-sample draws:
/// the closed-form law does not cover it (see [`SlotModel::threshold`]).
const PER_SAMPLE: u64 = CERTAIN + 1;

/// [`Edge::thr`] of an edge not priced at the current [`SlotModel`].
const UNPRICED: u64 = u64::MAX;

/// The most decision probability the ADC's clamps may move on an edge
/// that decides by the law (2⁻⁵³, one step of
/// [`DetRng::chance_threshold`]).
const RAIL_MASS: f64 = 1.0 / CERTAIN as f64;

/// The smallest per-sample noise σ, in ADC codes, for which the law
/// treats a sample's quantization error as uniform and independent of it.
const MIN_SIGMA_CODES: f64 = 1.0;

/// The per-frame constants that price an [`LedTable`] edge.
struct SlotModel {
    /// Signal photocurrent per watt of emitted optical power, A/W.
    i_per_w: f64,
    /// Sample noise variance with the LED dark, A².
    var_floor: f64,
    /// Signal shot-noise variance per watt emitted, A²/W.
    var_per_w: f64,
    /// The ADC transfer.
    adc: Quantizer,
    /// The smallest code sum decided ON; `None` on the levels path,
    /// which reads only the moments.
    k: Option<u64>,
    /// The largest code sum.
    max_sum: u64,
    /// The distance from a rail, in σ, beyond which the counted samples'
    /// summed mass is under `RAIL_MASS / 16` (by `Q(z) ≤ ½·e^(−z²/2)`).
    z_far: f64,
}

impl SlotModel {
    /// The key of the edges priced at this model for an automaton that
    /// walks `step` with `counted` counted samples: the exact bits of
    /// everything [`LedTable::price`] reads.
    fn key(&self, step: &LedSlotStep, counted: usize) -> LedKey {
        let [s0, s1, s2, s3, s4, s5, s6] = step.bits();
        let [q0, q1, q2] = self.adc.bits();
        [
            s0,
            s1,
            s2,
            s3,
            s4,
            s5,
            s6,
            counted as u64,
            self.i_per_w.to_bits(),
            self.var_floor.to_bits(),
            self.var_per_w.to_bits(),
            self.k.unwrap_or(u64::MAX),
            q0,
            q1,
            q2,
            self.max_sum,
            self.z_far.to_bits(),
        ]
    }

    /// A counted sample's signal current and noise σ at optical power `p`.
    fn moments(&self, p: f64) -> (f64, f64) {
        let sigma = (self.var_floor + self.var_per_w * p).max(0.0).sqrt();
        (self.i_per_w * p, sigma)
    }

    /// An edge's decision as a [`DetRng::chance_threshold`], from its
    /// counted samples' `(mean, σ)` pairs in amperes.
    ///
    /// In code units sample `i` is `N(μ_i, s_i²)` floored, so the code
    /// sum has mean `Σμ_i − n/2` and variance `Σs_i² + n/12` (Sheppard's
    /// correction), and `P(sum ≥ K) = Q((K − ½ − mean)/sd)`.
    ///
    /// The law ignores the ADC's clamps at code 0 and at `max_code`. A
    /// clamp moves a decision only when its sample is beyond a rail and
    /// the other samples alone reach `K` (bottom rail) or miss it by a
    /// full scale (top rail); with two samples beyond rails, anything
    /// goes. An edge where that mass may exceed [`RAIL_MASS`], or whose
    /// noise is under [`MIN_SIGMA_CODES`], gets [`PER_SAMPLE`]. `K = 0`
    /// and `K` past the largest sum are exact.
    ///
    /// The mass is bounded from the sample nearest each rail: with `z`
    /// its distance in σ, `n·Q(z)` bounds the mass beyond the rail, and
    /// the others' sum is taken at its largest (bottom) or smallest (top)
    /// mean with the largest σ any one left-out sample leaves.
    fn threshold(&self, moments: &[f64]) -> u64 {
        let Some(k) = self.k else {
            return 0;
        };
        if k == 0 {
            return CERTAIN;
        }
        if k > self.max_sum {
            return 0;
        }
        let k = k as f64;
        let cpa = self.adc.codes_per_a();
        let top = f64::from(self.adc.max_code()) + 1.0;
        let (mut mean, mut var) = (0.0, 0.0);
        let (mut mu_min, mut mu_max, mut var_min) =
            (f64::INFINITY, f64::NEG_INFINITY, f64::INFINITY);
        let (mut z_lo, mut z_hi) = (f64::INFINITY, f64::INFINITY);
        for m in moments.chunks_exact(2) {
            let (mu, s) = (m[0] * cpa + self.adc.bias_codes(), m[1] * cpa);
            if !(mu.is_finite() && s.is_finite() && s >= MIN_SIGMA_CODES) {
                return PER_SAMPLE;
            }
            let v = s * s + 1.0 / 12.0;
            mean += mu - 0.5;
            var += v;
            (mu_min, mu_max, var_min) = (mu_min.min(mu), mu_max.max(mu), var_min.min(v));
            (z_lo, z_hi) = (z_lo.min(mu / s), z_hi.min((top - mu) / s));
        }
        let n = (moments.len() / 2) as f64;
        let tail = |z: f64| {
            if z >= self.z_far {
                RAIL_MASS / 16.0
            } else {
                n * q_function(z)
            }
        };
        let (below, above) = (tail(z_lo), tail(z_hi));
        // P(the others' sum ≥ K) and P(it ≤ K − top), each taken as 1
        // where its rail's mass alone is negligible.
        let sd = (var - var_min).max(0.0).sqrt();
        let others = |z: f64| if z > 0.0 { q_function(z / sd) } else { 1.0 };
        let (mut reach, mut miss) = (1.0, 1.0);
        if n == 1.0 {
            (reach, miss) = (0.0, if k >= top { 1.0 } else { 0.0 });
        } else {
            if below > RAIL_MASS / 4.0 {
                reach = others(k - 0.5 - (mean - (mu_min - 0.5)));
            }
            if above > RAIL_MASS / 4.0 {
                miss = others(mean - (mu_max - 0.5) - (k - top + 0.5));
            }
        }
        let moved = below * reach + above * miss + (below + above) * (below + above) / 2.0;
        if moved > RAIL_MASS {
            return PER_SAMPLE;
        }
        DetRng::chance_threshold(q_function((k - 0.5 - mean) / var.sqrt()))
    }
}

/// One slot of an [`LedAutomaton`]: a state and the slot's bit.
#[derive(Clone, Copy)]
struct Edge {
    /// The state the next slot starts in, or [`UNBUILT`].
    next: u32,
    /// The slot decides ON when the top 53 bits of one uniform draw fall
    /// below this [`DetRng::chance_threshold`]; or [`PER_SAMPLE`], or
    /// [`UNPRICED`].
    thr: u64,
}

/// The index of edge `(id, bit)`. A state's id is the index of its OFF
/// edge, so the next slot's edge is one add away from the last's
/// [`Edge::next`].
#[inline]
fn edge(id: u32, bit: bool) -> usize {
    id as usize + usize::from(bit)
}

/// Decide `slots` into `out` from state `*id` while every edge is priced
/// by the law: one uniform draw and an integer compare per slot. Returns
/// the slots decided, stopping before the first other edge.
///
/// The stream is stepped in a local copy so its state stays in registers
/// across the loop.
#[inline]
fn priced_run(
    edges: &[Edge],
    slots: &[bool],
    out: &mut [bool],
    id: &mut u32,
    rng: &mut DetRng,
) -> usize {
    let mut local = rng.clone();
    let mut state = *id;
    let mut done = 0;
    for (out, &bit) in out.iter_mut().zip(slots) {
        let Edge { next, thr } = edges[edge(state, bit)];
        if thr > CERTAIN {
            break;
        }
        *out = (local.next_u64() >> 11) < thr;
        state = next;
        done += 1;
    }
    *id = state;
    *rng = local;
    done
}

/// A one-multiply hash of a `u64` key (Fibonacci hashing, folded so the
/// low bits mix too), for the automaton's power bit patterns.
#[derive(Default)]
struct BitsHasher(u64);

impl Hasher for BitsHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let h = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

/// Words of an [`LedKey`].
const LED_KEY_WORDS: usize = 17;

/// The exact bits of everything that prices an [`LedTable`]'s edges (see
/// [`SlotModel::key`]).
type LedKey = [u64; LED_KEY_WORDS];

/// The most states the [`LedStore`] keeps that no channel holds: one full
/// automaton's worth across all its tables.
const LED_STORE_STATES: usize = MAX_LED_STATES;

/// An [`LedAutomaton`]'s states, transitions and prices.
///
/// A state is a distinct slot-start optical power (by exact bits),
/// interned once as a dense (even) id; edge `(state, bit)` holds the next
/// state's id, the counted samples' `(mean, σ)` and the slot's decision
/// threshold. Every entry is a pure function of the table's [`LedKey`],
/// so tables of one key may be swapped for one another at any frame.
#[derive(Clone, Default)]
struct LedTable {
    /// Counted samples per slot (`spp − 1`).
    counted: usize,
    /// State id by the exact bits of its slot-start power.
    ids: HashMap<u64, u32, BuildHasherDefault<BitsHasher>>,
    /// Slot-start power per state (state `id` at `id / 2`), W.
    powers: Vec<f64>,
    /// Edges, indexed by [`edge`].
    edges: Vec<Edge>,
    /// Per edge, a `(mean, σ)` pair in amperes per counted sample.
    moments: Vec<f64>,
}

impl LedTable {
    /// The id of the state at `power`, interned if new (clearing the
    /// table first when it is full).
    fn state(&mut self, power: f64) -> u32 {
        if let Some(&id) = self.ids.get(&power.to_bits()) {
            return id;
        }
        if self.powers.len() == MAX_LED_STATES {
            self.clear();
        }
        let id = 2 * self.powers.len() as u32;
        self.ids.insert(power.to_bits(), id);
        self.powers.push(power);
        self.edges.extend(
            [Edge {
                next: UNBUILT,
                thr: UNPRICED,
            }; 2],
        );
        self.moments
            .resize(self.moments.len() + 4 * self.counted, 0.0);
        id
    }

    fn clear(&mut self) {
        self.ids.clear();
        self.powers.clear();
        self.edges.clear();
        self.moments.clear();
    }

    /// Edge `e`'s `(mean, σ)` pairs.
    #[inline]
    fn moments(&self, e: usize) -> &[f64] {
        let n = 2 * self.counted;
        &self.moments[n * e..n * (e + 1)]
    }

    /// Edge `e`'s counted samples drawn from `rng` and quantized, summed.
    #[inline]
    fn code_sum(&self, e: usize, adc: &Quantizer, rng: &mut DetRng) -> u32 {
        self.moments(e)
            .chunks_exact(2)
            .map(|m| u32::from(adc.quantize(m[0] + m[1] * rng.next_gaussian())))
            .sum()
    }

    /// Price edge `e`, slot `bit` from `power` under `step`, at `model`;
    /// returns the power the next slot starts from.
    fn price(
        &mut self,
        step: &LedSlotStep,
        model: &SlotModel,
        e: usize,
        power: f64,
        bit: bool,
    ) -> f64 {
        let n = 2 * self.counted;
        let moments = &mut self.moments[n * e..n * (e + 1)];
        // The first sample straddles the LED transition and is not counted.
        let next = step.walk(power, bit, |k, p| {
            if k > 0 {
                (moments[2 * k - 2], moments[2 * k - 1]) = model.moments(p);
            }
        });
        self.edges[e].thr = model.threshold(moments);
        next
    }
}

/// The process's priced [`LedTable`]s, one per [`LedKey`], oldest first.
///
/// Like the planner's intern list, it sits behind one static lock that
/// guards only the list: pricing runs outside it, and a linear scan on
/// the key finds a table without hashing floats. The tables no channel
/// holds stay within [`LED_STORE_STATES`] states, the oldest evicted
/// first; evicting a table a channel still holds would free nothing.
struct LedStore {
    tables: Vec<(LedKey, Arc<LedTable>)>,
}

static LED_TABLES: Mutex<LedStore> = Mutex::new(LedStore { tables: Vec::new() });

impl LedStore {
    /// The stored table for `key`, if any.
    fn adopt(&self, key: &LedKey) -> Option<Arc<LedTable>> {
        self.tables
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, t)| Arc::clone(t))
    }

    /// Store `table` as the newest for `key`, then evict to the bound.
    fn publish(&mut self, key: LedKey, table: Arc<LedTable>) {
        self.tables.retain(|(k, _)| *k != key);
        self.tables.push((key, table));
        let mut states = self.unheld_states();
        let mut i = 0;
        while states > LED_STORE_STATES && i < self.tables.len() {
            let t = &self.tables[i].1;
            if Arc::strong_count(t) == 1 {
                states -= t.powers.len();
                self.tables.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// States in the tables no channel holds.
    fn unheld_states(&self) -> usize {
        self.tables
            .iter()
            .filter(|(_, t)| Arc::strong_count(t) == 1)
            .map(|(_, t)| t.powers.len())
            .sum()
    }
}

/// The sampled channel's LED-state automaton: an [`LedTable`] priced at
/// one [`LedKey`].
///
/// The LED power converges within a few slots, so a frame visits few
/// states. Transitions depend only on the LED step, which is fixed for a
/// channel's life; prices depend on the whole key. A frame whose key
/// differs from the table's, a fresh channel's first sampled frame
/// included, adopts the [`LedStore`]'s table for the new key; without
/// one, it keeps its own table and marks every edge [`UNPRICED`], and
/// each is re-priced on its next visit. A table that priced new edges is
/// published back to the store at the next frame's start, in the same
/// lock as any adoption: one lock per frame at most, none per slot.
/// Nothing but an empty shared table is allocated before the first
/// sampled frame.
#[derive(Default)]
struct LedAutomaton {
    /// The LED step the transitions follow; set on the first sampled frame.
    step: Option<LedSlotStep>,
    /// The key the table's edges are priced at.
    key: LedKey,
    /// Shared with the store and other channels until this one prices an
    /// edge (copy on write).
    table: Arc<LedTable>,
    /// Whether the table priced edges since it was adopted or published.
    priced: bool,
}

impl Deref for LedAutomaton {
    type Target = LedTable;

    #[inline]
    fn deref(&self) -> &LedTable {
        &self.table
    }
}

impl LedAutomaton {
    /// Serve `model` for a frame whose first slot is `first`; returns the
    /// frame's start state.
    fn start(&mut self, cfg: &ChannelConfig, model: &SlotModel, first: bool) -> u32 {
        let step = *self
            .step
            .get_or_insert_with(|| cfg.led.slot_step(cfg.tslot_s, cfg.samples_per_slot));
        let counted = cfg.samples_per_slot - 1;
        let key = model.key(&step, counted);
        if self.key != key || self.priced {
            self.sync(key, counted);
        }
        let power = step.initial_power(first);
        match self.ids.get(&power.to_bits()) {
            Some(&id) => id,
            None => Arc::make_mut(&mut self.table).state(power),
        }
    }

    /// Trade tables with the store under one lock: publish this one if it
    /// priced edges, and on a key change adopt the stored table for `key`
    /// (or, with none stored, unprice this one's edges).
    fn sync(&mut self, key: LedKey, counted: usize) {
        // Every update leaves the list whole, so a lock poisoned by a
        // panic elsewhere is taken as it stands.
        let mut store = LED_TABLES.lock().unwrap_or_else(PoisonError::into_inner);
        if std::mem::take(&mut self.priced) {
            store.publish(self.key, Arc::clone(&self.table));
        }
        if self.key == key {
            return;
        }
        let stored = store.adopt(&key);
        drop(store);
        self.key = key;
        match stored {
            Some(table) => self.table = table,
            None => {
                let table = Arc::make_mut(&mut self.table);
                table.counted = counted;
                for e in &mut table.edges {
                    e.thr = UNPRICED;
                }
            }
        }
    }

    /// Build and price edge `(id, bit)` at `model`; returns its index.
    /// Interning the next state into a full table clears it and
    /// re-interns state `id` first, so `id` may change.
    #[cold]
    #[inline(never)]
    fn ready(&mut self, model: &SlotModel, id: &mut u32, bit: bool) -> usize {
        let step = self.step.expect("the automaton was started");
        self.priced = true;
        let table = Arc::make_mut(&mut self.table);
        let power = table.powers[*id as usize / 2];
        let mut e = edge(*id, bit);
        let next = table.price(&step, model, e, power, bit);
        if table.edges[e].next == UNBUILT {
            if !table.ids.contains_key(&next.to_bits()) && table.powers.len() == MAX_LED_STATES {
                table.clear();
                *id = table.state(power);
                e = edge(*id, bit);
                table.price(&step, model, e, power, bit);
            }
            table.edges[e].next = table.state(next);
        }
        e
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
    /// The sampled channel's state table (see [`LedAutomaton`]).
    led_auto: LedAutomaton,
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
            led_auto: LedAutomaton::default(),
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
        let Some(&first) = slots.first() else {
            return;
        };
        let fe = self.cfg.frontend;
        let adc = fe.quantizer();
        let inv_norm = 1.0 / (self.cfg.samples_per_slot - 1) as f64;
        let model = self.slot_model(None);
        let auto = &mut self.led_auto;
        let mut id = auto.start(&self.cfg, &model, first);
        // The stream is stepped in a local copy so its state stays in
        // registers.
        let mut rng = self.rng.clone();
        for (level, &bit) in levels.iter_mut().zip(slots) {
            let mut e = edge(id, bit);
            if auto.edges[e].thr == UNPRICED {
                e = auto.ready(&model, &mut id, bit);
            }
            let codes = auto.code_sum(e, &adc, &mut rng);
            *level = fe.code_to_current(f64::from(codes) * inv_norm);
            id = auto.edges[e].next;
        }
        self.rng = rng;
    }

    /// Transmit and decide with an ideal (analytically-trained) detector —
    /// the common path for link simulations. Fills `scratch.decided` in
    /// place and clears `scratch.levels`.
    ///
    /// A slot's level is a non-decreasing function of its integer ADC
    /// code sum, so the detector's threshold becomes, once per frame, the
    /// smallest code sum `K` whose level exceeds it. Given the LED state
    /// and `K`, a slot's decision is a Bernoulli trial: its edge of the
    /// channel's LED-state automaton holds the probability as a
    /// [`DetRng::chance_threshold`], and the slot takes one uniform draw
    /// and an integer compare. It decides as [`Self::transmit_into`]
    /// followed by [`SlotDetector::decide_into`] in distribution, not draw
    /// for draw; an edge near an ADC rail keeps that path's per-sample
    /// draws.
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
        let Some(&first) = slots.first() else {
            return;
        };
        let k = self.threshold_code_sum(thr);
        let adc = self.cfg.frontend.quantizer();
        let model = self.slot_model(Some(k));
        let auto = &mut self.led_auto;
        let mut id = auto.start(&self.cfg, &model, first);
        let mut rng = self.rng.clone();
        let mut i = 0;
        while i < slots.len() {
            i += priced_run(
                &auto.edges,
                &slots[i..],
                &mut decided[i..],
                &mut id,
                &mut rng,
            );
            // The edge the run stopped at: unpriced, or per-sample.
            let Some(&bit) = slots.get(i) else {
                break;
            };
            let mut e = edge(id, bit);
            if auto.edges[e].thr == UNPRICED {
                e = auto.ready(&model, &mut id, bit);
            }
            decided[i] = match auto.edges[e].thr {
                PER_SAMPLE => u64::from(auto.code_sum(e, &adc, &mut rng)) >= k,
                thr => (rng.next_u64() >> 11) < thr,
            };
            id = auto.edges[e].next;
            i += 1;
        }
        self.rng = rng;
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

    /// The per-frame constants that price the sampled channel's edges;
    /// `k` is the frame's threshold code sum on the decision path.
    ///
    /// The noise variance is affine in a sample's optical power,
    /// `var = var_floor + var_per_w · p_opt`.
    fn slot_model(&self, k: Option<u64>) -> SlotModel {
        let spp = self.cfg.samples_per_slot;
        let i_per_w = self.cfg.rx_diode.responsivity_a_per_w
            * self.cfg.geometry.path_gain()
            * self.blockage_gain
            * self.fault.gain;
        let i_amb = self.ambient_current();
        let shot_coeff = 2.0 * ELECTRON_CHARGE_C * (spp as f64 / self.cfg.tslot_s / 2.0);
        let rin = self.cfg.ambient_rin * i_amb;
        let th = self.cfg.frontend.thermal_noise_a_rms;
        SlotModel {
            i_per_w,
            var_floor: shot_coeff * i_amb + rin * rin + th * th,
            var_per_w: shot_coeff * i_per_w,
            adc: self.cfg.frontend.quantizer(),
            k,
            max_sum: self.cfg.max_code_sum(),
            z_far: (2.0 * (8.0 * (spp - 1) as f64 / RAIL_MASS).ln()).sqrt(),
        }
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

    /// The detector as written out before its run-fixed terms were
    /// hoisted: every term from `cfg`, in the order the detector
    /// multiplies it.
    fn unhoisted_detector(
        cfg: &ChannelConfig,
        clear: f64,
        extra_gain: f64,
        saturated: bool,
    ) -> SlotDetector {
        let gain = clear * extra_gain;
        let r = cfg.rx_diode.responsivity_a_per_w;
        let mu_on = r * cfg.led.steady_power(1.0) * gain;
        let mu_off = r * cfg.led.steady_power(0.0) * gain;
        let max_i = cfg
            .frontend
            .code_to_current(((1u64 << cfg.frontend.adc_bits) - 1) as f64);
        let (mu_on, mu_off) = if saturated {
            (max_i, max_i)
        } else {
            (mu_on.min(max_i), mu_off.min(max_i))
        };
        let i_amb = cfg.rx_diode.a_per_lux * cfg.ambient_lux + cfg.rx_diode.dark_current_a;
        let i_sig_mid = 0.5 * cfg.rx_diode.responsivity_a_per_w * (cfg.led.on_power_w * clear);
        let fs = cfg.samples_per_slot as f64 / cfg.tslot_s;
        let shot = cfg.rx_diode.shot_noise_std_a(i_amb + i_sig_mid, fs / 2.0);
        let rin = cfg.ambient_rin * i_amb;
        let th = cfg.frontend.thermal_noise_a_rms;
        let sigma =
            (th * th + rin * rin + shot * shot).sqrt() / ((cfg.samples_per_slot - 1) as f64).sqrt();
        let q = cfg.frontend.lsb_current_a()
            / 12f64.sqrt()
            / ((cfg.samples_per_slot - 1) as f64).sqrt();
        SlotDetector::from_levels(mu_on, mu_off, (sigma * sigma + q * q).sqrt())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        /// Detector terms built once, from a template whose geometry and
        /// ambient differ, give `detector_for_gain`'s detector bit for bit
        /// at any gain, extra gain, saturation flag and lux, and so does
        /// the detector written out term by term.
        #[test]
        fn hoisted_detector_is_detector_for_gain_bit_for_bit(
            (clear, dark) in (0.0f64..2e-5, 0u8..8),
            extra_gain in 0.0f64..=1.5,
            saturated in any::<bool>(),
            (lux, lit) in (0.0f64..30_000.0, any::<bool>()),
            (spp, adc_bits, on_power_w) in (2usize..9, 1u8..=16, 0.5f64..20.0),
            quiet in 0u8..3,
        ) {
            let mut template = ChannelConfig::paper_bench(1.0);
            template.samples_per_slot = spp;
            template.frontend.adc_bits = adc_bits;
            template.led.on_power_w = on_power_w;
            // A quieter front end, down to none, so the shot term and
            // then the quantization floor set σ.
            template.frontend.thermal_noise_a_rms *= [1.0, 1e-3, 0.0][usize::from(quiet)];
            let lux = if lit { lux } else { 0.0 };
            let terms = template.detector_terms();
            let mut cfg = template;
            cfg.geometry = LambertianLink::paper_bench(4.2);
            cfg.ambient_lux = lux;
            let clear = if dark == 0 { 0.0 } else { clear };
            let det = |d: SlotDetector| [d.mu_on_a, d.mu_off_a, d.sigma_a].map(f64::to_bits);
            let got = det(terms.detector(clear, extra_gain, saturated, lux));
            prop_assert_eq!(got, det(cfg.detector_for_gain(clear, extra_gain, saturated)));
            prop_assert_eq!(got, det(unhoisted_detector(&cfg, clear, extra_gain, saturated)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The per-slot kernel levels and draws exactly as the two-pass
        /// reference, frame after frame on one channel (so the automaton
        /// carries over and is re-priced as the impairment state
        /// changes). Its decisions depend on the channel state and the
        /// stream alone: a fresh channel put in the same state and handed
        /// the same stream decides the same bits and leaves the same
        /// stream behind.
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
            let (mut kernel, mut reference, mut decider) = (mk(), mk(), mk());
            let (mut scratch, mut again) = (RxScratch::new(), RxScratch::new());
            for &state in &states {
                for ch in [&mut kernel, &mut reference, &mut decider] {
                    impair(ch, state);
                }
                kernel.transmit_into(&slots, &mut scratch);
                let expected = reference_levels(&mut reference, &slots);
                prop_assert_eq!(bits(&scratch.levels), bits(&expected));
                let mut fresh = mk();
                impair(&mut fresh, state);
                fresh.rng = decider.rng.clone();
                decider.transmit_and_decide_into(&slots, &mut scratch);
                fresh.transmit_and_decide_into(&slots, &mut again);
                prop_assert_eq!(&scratch.decided, &again.decided);
                prop_assert_eq!(format!("{:?}", decider.rng), format!("{:?}", fresh.rng));
            }
            prop_assert_eq!(format!("{:?}", kernel.rng), format!("{:?}", reference.rng));
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
    fn led_automaton_is_built_on_the_first_sampled_frame_and_bounded() {
        let mut ch = channel(3.0);
        let mut scratch = RxScratch::new();
        ch.transmit_and_decide_into(&[], &mut scratch);
        let auto = &ch.led_auto;
        assert!(auto.step.is_none() && auto.ids.capacity() == 0 && auto.edges.capacity() == 0);
        ch.transmit_and_decide_into(&[true, false, true], &mut scratch);
        assert!(ch.led_auto.step.is_some() && !ch.led_auto.edges.is_empty());

        // An LED far slower than its slot never settles, so every slot
        // starts at a new power: the table fills to the cap, clears and
        // refills within each frame, and both paths carry on across it.
        let mut cfg = ChannelConfig::paper_bench(3.0);
        cfg.led.rise_tau_s = 1e-3;
        cfg.led.fall_tau_s = 1e-3;
        let mut gen = DetRng::seed_from_u64(8);
        let slots: Vec<bool> = (0..3 * MAX_LED_STATES + 100)
            .map(|_| gen.chance(0.5))
            .collect();
        let mk = || OpticalChannel::new(cfg, DetRng::seed_from_u64(9));
        let (mut kernel, mut reference) = (mk(), mk());
        kernel.transmit_into(&slots, &mut scratch);
        assert_eq!(
            bits(&scratch.levels),
            bits(&reference_levels(&mut reference, &slots))
        );
        let states = kernel.led_auto.powers.len();
        assert!(states <= MAX_LED_STATES && states < slots.len() - 2 * MAX_LED_STATES);
        kernel.transmit_and_decide_into(&slots, &mut scratch);
        assert_eq!(scratch.decided.len(), slots.len());
        assert!(kernel.led_auto.powers.len() <= MAX_LED_STATES);
    }

    #[test]
    fn an_all_ones_nan_power_gets_its_true_entry() {
        // An all-ones NaN emitter power makes every slot start at that
        // bit pattern; its state holds its true content, and its edges
        // (outside the law) decide with the reference's per-sample draws.
        let mut cfg = ChannelConfig::paper_bench(3.0);
        cfg.led.on_power_w = f64::from_bits(u64::MAX);
        assert_eq!(cfg.led.steady_power(1.0).to_bits(), u64::MAX);
        let slots = [true, true, false, true];
        let mk = || OpticalChannel::new(cfg, DetRng::seed_from_u64(3));
        let (mut kernel, mut reference) = (mk(), mk());
        let mut scratch = RxScratch::new();
        kernel.transmit_into(&slots, &mut scratch);
        assert_eq!(
            bits(&scratch.levels),
            bits(&reference_levels(&mut reference, &slots))
        );
        assert!(kernel.led_auto.ids.contains_key(&u64::MAX));
        kernel.transmit_and_decide_into(&slots, &mut scratch);
        assert_eq!(scratch.decided, reference_decide(&mut reference, &slots));
    }

    #[test]
    fn a_railed_edge_takes_the_per_sample_draws() {
        // No bias: a dark ideal LED sits on the bottom rail, where the
        // clamp folds half of every sample's mass onto code 0. Its edge
        // keeps the reference's draws, decision for decision.
        let mut cfg = ChannelConfig::paper_bench(6.0);
        cfg.led = LedModel::ideal(1.4);
        cfg.frontend.bias_v = 0.0;
        let mk = || OpticalChannel::new(cfg, DetRng::seed_from_u64(4));
        let (mut kernel, mut reference) = (mk(), mk());
        let slots = vec![false; 5_000];
        let mut scratch = RxScratch::new();
        kernel.transmit_and_decide_into(&slots, &mut scratch);
        let auto = &kernel.led_auto;
        assert_eq!(auto.edges.len(), 2);
        assert_eq!(auto.edges[edge(0, false)].thr, PER_SAMPLE);
        assert_eq!(scratch.decided, reference_decide(&mut reference, &slots));
        assert!(scratch.decided.contains(&true) && scratch.decided.contains(&false));
        assert_eq!(format!("{:?}", kernel.rng), format!("{:?}", reference.rng));
        // The paper's bench, 20,000 lx brighter, reaches the rails too.
        let mut ch = channel(3.0);
        ch.set_ambient_lux(28_080.0);
        ch.transmit_and_decide_into(&[false, true, false], &mut scratch);
        assert!(ch.led_auto.edges.iter().any(|e| e.thr == PER_SAMPLE));
    }

    /// Frames through a cold channel, then the same frames through a
    /// channel on the same seed that finds the cold one's tables in the
    /// store: decisions, level bits and the stream left behind agree
    /// frame for frame. Frames alternate the decision and the levels
    /// path (which key apart) under `states`' impairments; no key recurs,
    /// so the cold channel prices every table itself.
    /// Returns the cold channel's table after its first frame, held so
    /// the store cannot evict it, and the warm channel's after its own.
    fn cold_then_warm(
        cfg: ChannelConfig,
        frames: &[Vec<bool>],
        states: &[u8],
    ) -> (Arc<LedTable>, Arc<LedTable>) {
        let mk = || OpticalChannel::new(cfg, DetRng::seed_from_u64(21));
        let (mut cold, mut warm) = (mk(), mk());
        let mut first = Vec::new();
        let mut runs: Vec<(Vec<bool>, Vec<u64>, String)> = Vec::new();
        let mut scratch = RxScratch::new();
        for (ch, is_cold) in [(&mut cold, true), (&mut warm, false)] {
            let mut run = Vec::new();
            for (i, (slots, &state)) in frames.iter().zip(states).enumerate() {
                impair(ch, state);
                if i % 2 == 0 {
                    ch.transmit_and_decide_into(slots, &mut scratch);
                } else {
                    ch.transmit_into(slots, &mut scratch);
                }
                if i == 0 {
                    first.push(Arc::clone(&ch.led_auto.table));
                }
                run.push((
                    scratch.decided.clone(),
                    bits(&scratch.levels),
                    format!("{:?}", ch.rng),
                ));
            }
            if is_cold {
                runs = run;
            } else {
                for (i, (got, want)) in run.iter().zip(&runs).enumerate() {
                    assert!(got == want, "frame {i} differs warm from cold");
                }
            }
        }
        let warm_first = first.pop().expect("two runs");
        (first.pop().expect("two runs"), warm_first)
    }

    #[test]
    fn a_warm_store_changes_no_bit() {
        // Distances no other test uses, so the cold channel prices every
        // table itself.
        let mut gen = DetRng::seed_from_u64(12);
        let fair = |gen: &mut DetRng, n: usize| (0..n).map(|_| gen.chance(0.5)).collect();
        let states = [0, 0, 2, 2, 4, 4, 1, 1];

        // The paper's bench, across four impairment states.
        let frames: Vec<Vec<bool>> = (0..states.len()).map(|_| fair(&mut gen, 3_000)).collect();
        let (cold, warm) = cold_then_warm(ChannelConfig::paper_bench(2.9137), &frames, &states);
        assert!(
            Arc::ptr_eq(&cold, &warm),
            "the warm channel adopted the stored table"
        );
        assert!(cold
            .edges
            .iter()
            .all(|e| e.thr != UNPRICED || e.next == UNBUILT));

        // A railed (per-sample) edge: a dark ideal LED without bias.
        let mut cfg = ChannelConfig::paper_bench(5.9173);
        cfg.led = LedModel::ideal(1.4);
        cfg.frontend.bias_v = 0.0;
        let frames: Vec<Vec<bool>> = (0..states.len())
            .map(|i| {
                let mut slots = vec![false; 2_000];
                slots.extend(fair(&mut gen, 500 * i));
                slots
            })
            .collect();
        let (cold, warm) = cold_then_warm(cfg, &frames, &states);
        assert!(Arc::ptr_eq(&cold, &warm));
        assert!(cold.edges.iter().any(|e| e.thr == PER_SAMPLE));

        // An LED that never settles: every frame clears the full table.
        let mut cfg = ChannelConfig::paper_bench(3.1579);
        cfg.led.rise_tau_s = 1e-3;
        cfg.led.fall_tau_s = 1e-3;
        let frames: Vec<Vec<bool>> = (0..4)
            .map(|_| fair(&mut gen, 2 * MAX_LED_STATES + 100))
            .collect();
        let (cold, _) = cold_then_warm(cfg, &frames, &states[..4]);
        assert!(cold.powers.len() < MAX_LED_STATES, "the table cleared");
    }

    #[test]
    fn a_one_ulp_change_to_any_key_field_misses_the_store() {
        let ch = channel(3.0);
        let model = ch.slot_model(Some(40));
        let step = ch
            .cfg
            .led
            .slot_step(ch.cfg.tslot_s, ch.cfg.samples_per_slot);
        let key = model.key(&step, 3);
        let mut store = LedStore { tables: Vec::new() };
        store.publish(key, Arc::default());
        assert!(store.adopt(&key).is_some());
        for i in 0..LED_KEY_WORDS {
            let mut near = key;
            near[i] = near[i].wrapping_add(1);
            assert!(store.adopt(&near).is_none(), "word {i}");
        }
        // And the key reads every field of the model.
        fn ulp(x: f64) -> f64 {
            f64::from_bits(x.to_bits() + 1)
        }
        let moved: [fn(&mut SlotModel); 6] = [
            |m| m.i_per_w = ulp(m.i_per_w),
            |m| m.var_floor = ulp(m.var_floor),
            |m| m.var_per_w = ulp(m.var_per_w),
            |m| m.k = m.k.map(|k| k + 1),
            |m| m.max_sum += 1,
            |m| m.z_far = ulp(m.z_far),
        ];
        for (i, f) in moved.iter().enumerate() {
            let mut m = ch.slot_model(Some(40));
            f(&mut m);
            assert_ne!(m.key(&step, 3), key, "field {i}");
        }
        assert_ne!(model.key(&step, 4), key);
        assert_ne!(ch.slot_model(None).key(&step, 3), key);
    }

    #[test]
    fn the_store_keeps_its_bound_and_evicts_the_oldest() {
        let mut gen = DetRng::seed_from_u64(13);
        let slots: Vec<bool> = (0..3_000).map(|_| gen.chance(0.5)).collect();
        let mut store = LedStore { tables: Vec::new() };
        let mut keys = Vec::new();
        let mut held = None;
        let mut scratch = RxScratch::new();
        for i in 0..60 {
            let mut ch = channel(1.0 + 0.05 * f64::from(i));
            ch.transmit_and_decide_into(&slots, &mut scratch);
            let table = Arc::clone(&ch.led_auto.table);
            keys.push(ch.led_auto.key);
            drop(ch);
            if i == 0 {
                held = Some(Arc::clone(&table));
            }
            store.publish(*keys.last().unwrap(), table);
            assert!(store.unheld_states() <= LED_STORE_STATES, "after {i}");
        }
        let kept: Vec<LedKey> = store.tables.iter().map(|(k, _)| *k).collect();
        assert!(kept.len() < keys.len(), "the store evicted");
        // The held table survives; the rest are the newest, oldest first.
        assert_eq!(kept[0], keys[0]);
        assert_eq!(kept[1..], keys[keys.len() + 1 - kept.len()..]);
        drop(held);
        // Republishing makes a table the newest.
        let (key, table) = store.tables[1].clone();
        store.publish(key, table);
        assert_eq!(store.tables.last().map(|(k, _)| *k), Some(key));
        assert!(store.unheld_states() <= LED_STORE_STATES);
    }

    /// `a` and `b`, each `(hits, trials)`, within 5σ of one binomial
    /// rate: the pooled variance is floored at one hit and each side gets
    /// one hit of slack, so rare events are not held to a normal tail.
    fn same_rate(a: (u64, u64), b: (u64, u64)) -> bool {
        let (na, nb) = (a.1 as f64, b.1 as f64);
        let pooled = ((a.0 + b.0) as f64 / (na + nb)).max(1.0 / (na + nb));
        let sd = (pooled * (1.0 - pooled) * (1.0 / na + 1.0 / nb)).sqrt();
        (a.0 as f64 / na - b.0 as f64 / nb).abs() <= 5.0 * sd + 1.0 / na + 1.0 / nb
    }

    /// `hits` of `n` trials within 5σ of a binomial with probability `p`,
    /// with the same floor and slack as [`same_rate`].
    fn matches_p(hits: u64, n: u64, p: f64) -> bool {
        let n = n as f64;
        (hits as f64 - n * p).abs() <= 5.0 * (n * p.max(1.0 / n) * (1.0 - p)).sqrt() + 1.0
    }

    /// The decision law's operating points: 2, 4 and 8 samples per slot,
    /// the Philips and the ideal LED, and both sides of the Fig. 16 cliff
    /// under the bench's 8,080 lx.
    fn law_points() -> Vec<ChannelConfig> {
        let philips = LedModel::philips_4w7();
        let ideal = LedModel::ideal(1.4);
        [
            (2, philips, 2.5),
            (2, ideal, 3.3),
            (4, philips, 3.6),
            (4, philips, 4.25),
            (4, ideal, 3.6),
            (4, ideal, 4.25),
            (8, philips, 4.0),
            (8, ideal, 4.5),
            (8, philips, 4.8),
        ]
        .into_iter()
        .map(|(spp, led, d)| {
            let mut cfg = ChannelConfig::paper_bench(d);
            cfg.samples_per_slot = spp;
            cfg.led = led;
            cfg
        })
        .collect()
    }

    /// The statistical gate on [`OpticalChannel::transmit_and_decide_into`]
    /// at one operating point: `total` fair random slots, in 1,000-slot
    /// frames, through the automaton and through the per-sample
    /// reference. Per slot bit, the error rates; per edge seen at least
    /// 1,000 times, the ON rates; and per law-priced edge seen at all,
    /// its probability against `draws` draws of the per-sample reference
    /// law, must agree within [`same_rate`] / [`matches_p`]. Returns the
    /// failures and a one-line summary.
    fn decision_law(
        cfg: ChannelConfig,
        total: usize,
        draws: u64,
        seed: u64,
    ) -> (Vec<String>, String) {
        const FRAME: usize = 1_000;
        let mut kernel = OpticalChannel::new(cfg, DetRng::seed_from_u64(seed));
        let mut reference = OpticalChannel::new(cfg, DetRng::seed_from_u64(!seed));
        let mut gen = DetRng::seed_from_u64(seed ^ 0x51a7);
        let mut scratch = RxScratch::new();
        // Per edge: slots, ONs decided by the kernel and by the reference.
        let mut per_edge: Vec<[u64; 3]> = Vec::new();
        // Per slot bit: slots, kernel errors, reference errors.
        let mut per_bit = [[0u64; 3]; 2];
        for _ in 0..total / FRAME {
            let slots: Vec<bool> = (0..FRAME).map(|_| gen.chance(0.5)).collect();
            kernel.transmit_and_decide_into(&slots, &mut scratch);
            let expected = reference_decide(&mut reference, &slots);
            let auto = &kernel.led_auto;
            assert!(
                auto.powers.len() < MAX_LED_STATES / 2,
                "the tallies need one table"
            );
            let start = auto.step.expect("started").initial_power(slots[0]);
            let mut id = auto.ids[&start.to_bits()];
            per_edge.resize(auto.edges.len(), [0; 3]);
            for ((&bit, &got), &want) in slots.iter().zip(&scratch.decided).zip(&expected) {
                let e = edge(id, bit);
                let t = &mut per_edge[e];
                (t[0], t[1], t[2]) = (t[0] + 1, t[1] + u64::from(got), t[2] + u64::from(want));
                let b = &mut per_bit[usize::from(bit)];
                (b[0], b[1], b[2]) = (
                    b[0] + 1,
                    b[1] + u64::from(got != bit),
                    b[2] + u64::from(want != bit),
                );
                id = auto.edges[e].next;
            }
        }
        let mut failures = Vec::new();
        for (bit, b) in per_bit.iter().enumerate() {
            if !same_rate((b[1], b[0]), (b[2], b[0])) {
                failures.push(format!(
                    "bit {bit}: errors {} vs reference {} of {}",
                    b[1], b[2], b[0]
                ));
            }
        }
        let busy = per_edge.iter().filter(|t| t[0] >= 1_000).count();
        for (e, t) in per_edge.iter().enumerate().filter(|(_, t)| t[0] >= 1_000) {
            if !same_rate((t[1], t[0]), (t[2], t[0])) {
                failures.push(format!(
                    "edge {e}: ON {} vs reference {} of {}",
                    t[1], t[2], t[0]
                ));
            }
        }
        let k = kernel.threshold_code_sum(kernel.analytic_detector().threshold());
        let adc = cfg.frontend.quantizer();
        let auto = &kernel.led_auto;
        let mut mc = DetRng::seed_from_u64(seed ^ 0x3c);
        let (mut priced, mut per_sample) = (0, 0);
        for (e, _) in per_edge.iter().enumerate().filter(|(_, t)| t[0] > 0) {
            let thr = auto.edges[e].thr;
            if thr == PER_SAMPLE {
                // It draws the reference law itself.
                per_sample += 1;
                continue;
            }
            priced += 1;
            let p = thr as f64 / CERTAIN as f64;
            let hits = (0..draws)
                .filter(|_| u64::from(auto.code_sum(e, &adc, &mut mc)) >= k)
                .count() as u64;
            if !matches_p(hits, draws, p) {
                failures.push(format!("edge {e}: p {p:.3e} vs {hits} of {draws} draws"));
            }
        }
        let [on, off] = [per_bit[1], per_bit[0]].map(|b| b[1] as f64 / b[0] as f64);
        let summary = format!(
            "spp {} {:.2} m: {} slots, ON errors {on:.3e}, OFF errors {off:.3e}, \
             {busy} edges >= 1,000 slots, {priced} priced and {per_sample} per-sample edges seen",
            cfg.samples_per_slot, cfg.geometry.distance_m, total
        );
        (failures, summary)
    }

    #[test]
    fn sampled_decision_law_at_small_scale() {
        // The gate below, scaled down for debug builds.
        for (i, cfg) in law_points().into_iter().enumerate() {
            let (failures, summary) = decision_law(cfg, 20_000, 2_000, 100 + i as u64);
            assert!(failures.is_empty(), "{summary}: {failures:?}");
        }
    }

    /// The statistical gate that replaced the decision path's bit gate:
    /// 10⁷ slots per operating point and 10⁶ Monte Carlo draws per
    /// priced edge. Run it in release:
    /// `cargo test --release -p vlc-channel -- --ignored sampled_decision_law`.
    #[test]
    #[ignore = "release-mode statistical gate; see the doc comment"]
    fn sampled_decision_law() {
        for (i, cfg) in law_points().into_iter().enumerate() {
            let (failures, summary) = decision_law(cfg, 10_000_000, 1_000_000, 1 + i as u64);
            println!("{summary}");
            assert!(failures.is_empty(), "{summary}: {failures:?}");
        }
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
