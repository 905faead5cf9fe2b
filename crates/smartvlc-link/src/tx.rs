//! The transmitter state machine — the numbered steps of §3.
//!
//! 1. Update knowledge of ambient light; compute the required LED
//!    dimming level to keep `Iamb + Iled` constant (Eq. 5).
//! 2. Adapt the LED gradually in the perception domain (§4.3).
//! 3. Select the best modulation for the level (AMPPM planner, or a
//!    baseline scheme for the comparison experiments).
//! 4. Frame the data (Table 1) and emit the slot waveform.

use crate::error::LinkError;
use crate::mac::MacHeader;
use desim::DetRng;
use smartvlc_core::adaptation::{
    AdaptationCounter, AdaptationStepper, FixedStepper, PerceptionStepper,
};
use smartvlc_core::dimming::IlluminationTarget;
use smartvlc_core::frame::codec::{FrameCodec, FrameCodecError};
use smartvlc_core::frame::format::{FecMode, Frame, PatternDescriptor, MAX_PAYLOAD};
use smartvlc_core::modem::spread_evenly;
use smartvlc_core::{DimmingLevel, SystemConfig, MAX_DEGRADE_TIER};
use smartvlc_obs as obs;

/// Which payload modulation the link runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemeKind {
    /// The paper's contribution.
    Amppm,
    /// Compensation-free baseline with fixed symbol length `N`.
    Mppm(u16),
    /// Compensation-based baseline.
    OokCt,
    /// IEEE 802.15.7 VPPM with symbol length `N`.
    Vppm(u16),
    /// Overlapping PPM with symbol length `N` (paper reference \[8\]).
    Oppm(u16),
    /// DarkLight-style night mode (fixed sub-1% duty; ignores the
    /// dimming level — there is no illumination to serve).
    Darklight,
}

impl SchemeKind {
    /// Build the Table 1 pattern descriptor for this scheme at a level.
    /// Levels are clamped into each scheme's data-carrying range.
    /// `tier` is the AMPPM degradation tier (0 = nominal); the baseline
    /// schemes have no tiered variants and ignore it.
    pub fn descriptor(
        self,
        cfg: &SystemConfig,
        level: DimmingLevel,
        tier: u8,
    ) -> PatternDescriptor {
        match self {
            SchemeKind::Amppm => PatternDescriptor::Amppm {
                dimming_q: cfg.quantize_dimming(level.value()),
                tier: tier.min(MAX_DEGRADE_TIER),
            },
            SchemeKind::Mppm(n) => {
                let k = ((level.value() * n as f64).round() as u16).clamp(1, n - 1);
                PatternDescriptor::Mppm { n, k }
            }
            SchemeKind::OokCt => {
                let l = level.value().clamp(0.02, 0.98);
                PatternDescriptor::OokCt {
                    dimming_q: cfg.quantize_dimming(l),
                }
            }
            SchemeKind::Vppm(n) => {
                let w = ((level.value() * n as f64).round() as u8).clamp(1, (n - 1) as u8);
                PatternDescriptor::Vppm {
                    n: n as u8,
                    width: w,
                }
            }
            SchemeKind::Oppm(n) => {
                let w = ((level.value() * n as f64).round() as u8).clamp(1, (n - 1) as u8);
                PatternDescriptor::Oppm {
                    n: n as u8,
                    width: w,
                }
            }
            SchemeKind::Darklight => PatternDescriptor::Darklight {
                positions: 128,
                pulse_w: 1,
            },
        }
    }
}

/// Graceful rate degradation driven by ARQ feedback.
///
/// The transmitter cannot see the receiver's CRC counters — its only
/// visibility into link health is the ACK stream: an ACK is a delivered
/// frame, an expired/abandoned retry is a (probably) lost one. This
/// controller keeps an exponential moving average of that loss signal
/// and climbs a unified degradation ladder with hysteresis:
///
/// * EMA above [`DegradeController::RAISE_ABOVE`] → one rung up.
/// * EMA below [`DegradeController::LOWER_BELOW`] → one rung down.
///
/// The ladder's *lower* rungs (when the link runs an outer code) raise
/// the FEC parity profile — more correction power at the same dimming
/// level and the same payload size, costing only airtime. Only once the
/// parity ladder is exhausted do further rungs raise the AMPPM
/// degradation tier (sturdier, slower plan — still never sacrificing
/// illumination). Recovery walks back down in the same order: tiers
/// first, then parity. With `fec_rungs = 0` (no outer code) the ladder
/// reduces exactly to the original tier-only controller.
///
/// After each move the EMA is re-armed to the midpoint so a single
/// outcome cannot bounce the rung; several consecutive frames must agree
/// before the next move.
#[derive(Clone, Debug)]
pub struct DegradeController {
    ema: f64,
    rung: u8,
    /// Parity rungs available below the modulation tiers.
    fec_rungs: u8,
    /// Rung increases performed (link got worse).
    pub escalations: u64,
    /// Rung decreases performed (link recovered).
    pub recoveries: u64,
    /// Highest AMPPM tier reached so far.
    pub max_tier: u8,
    /// Highest FEC boost (parity rungs above nominal) reached so far.
    pub max_fec_boost: u8,
}

impl Default for DegradeController {
    fn default() -> Self {
        DegradeController::with_fec_rungs(0)
    }
}

impl DegradeController {
    /// EMA weight of the newest frame outcome (~20-frame memory).
    pub const ALPHA: f64 = 0.1;
    /// Escalate when the loss EMA exceeds this.
    pub const RAISE_ABOVE: f64 = 0.5;
    /// Recover when the loss EMA falls below this.
    pub const LOWER_BELOW: f64 = 0.1;
    /// Re-arm value after a rung move (midway between the thresholds).
    const REARM: f64 = 0.25;

    /// A controller whose ladder starts with `fec_rungs` parity rungs
    /// before the AMPPM tiers (0 = tier-only, the pre-FEC behavior).
    pub fn with_fec_rungs(fec_rungs: u8) -> DegradeController {
        DegradeController {
            ema: 0.0,
            rung: 0,
            fec_rungs,
            escalations: 0,
            recoveries: 0,
            max_tier: 0,
            max_fec_boost: 0,
        }
    }

    /// Current AMPPM degradation tier (0 = nominal rate). Stays at 0
    /// while the parity ladder still has room.
    pub fn tier(&self) -> u8 {
        self.rung.saturating_sub(self.fec_rungs)
    }

    /// Parity rungs currently engaged above the nominal FEC profile.
    pub fn fec_boost(&self) -> u8 {
        self.rung.min(self.fec_rungs)
    }

    /// Current loss-rate estimate in [0, 1].
    pub fn loss_estimate(&self) -> f64 {
        self.ema
    }

    /// Record one frame outcome from the ARQ: `delivered` = an ACK came
    /// back; `!delivered` = the retry timer expired (or the frame was
    /// abandoned). Returns the AMPPM tier to use for the next frame.
    pub fn record_outcome(&mut self, delivered: bool) -> u8 {
        let sample = if delivered { 0.0 } else { 1.0 };
        self.ema += Self::ALPHA * (sample - self.ema);
        let top = self.fec_rungs + MAX_DEGRADE_TIER;
        if self.ema > Self::RAISE_ABOVE && self.rung < top {
            let tier_before = self.tier();
            self.rung += 1;
            self.max_tier = self.max_tier.max(self.tier());
            self.max_fec_boost = self.max_fec_boost.max(self.fec_boost());
            self.escalations += 1;
            self.ema = Self::REARM;
            if self.tier() != tier_before {
                obs::counter_add(obs::key!("link.tx.tier_escalations"), 1);
                obs::gauge_set(obs::key!("link.tx.degrade_tier"), self.tier() as f64);
            } else {
                obs::counter_add(obs::key!("link.tx.fec_escalations"), 1);
                obs::gauge_set(obs::key!("link.tx.fec_boost"), self.fec_boost() as f64);
            }
        } else if self.ema < Self::LOWER_BELOW && self.rung > 0 {
            let tier_before = self.tier();
            self.rung -= 1;
            self.recoveries += 1;
            self.ema = Self::REARM;
            if self.tier() != tier_before {
                obs::counter_add(obs::key!("link.tx.tier_recoveries"), 1);
                obs::gauge_set(obs::key!("link.tx.degrade_tier"), self.tier() as f64);
            } else {
                obs::counter_add(obs::key!("link.tx.fec_recoveries"), 1);
                obs::gauge_set(obs::key!("link.tx.fec_boost"), self.fec_boost() as f64);
            }
        }
        self.tier()
    }
}

/// The SmartVLC transmitter.
pub struct Transmitter {
    cfg: SystemConfig,
    codec: FrameCodec,
    scheme: SchemeKind,
    illum: IlluminationTarget,
    smart_stepper: PerceptionStepper,
    /// The "existing method" stepper, tracked in parallel for the
    /// Fig. 19(c) comparison (it takes no real effect on the LED).
    fixed_stepper: FixedStepper,
    led_level: f64,
    /// Adaptation accounting for the perception-domain stepper.
    pub smart_adaptation: AdaptationCounter,
    /// Hypothetical accounting for the fixed-step baseline.
    pub fixed_adaptation: AdaptationCounter,
    /// ARQ-fed graceful rate degradation (parity rungs, then AMPPM
    /// tiers).
    pub degrade: DegradeController,
    /// Outer-code profile used while the ladder sits at rung 0
    /// ([`FecMode::Off`] = uncoded, the pre-FEC pipeline).
    nominal_fec: FecMode,
    /// Payload+CRC bytes handed to the outer encoder, cumulative.
    pub fec_data_bytes: u64,
    /// On-air block bytes after coding, cumulative (equal to
    /// `fec_data_bytes` when FEC is off).
    pub fec_coded_bytes: u64,
    rng: DetRng,
}

impl Transmitter {
    /// Build a transmitter.
    ///
    /// * `illum_target` — the desired constant total illumination,
    ///   normalized to full LED output.
    /// * `initial_ambient` — normalized ambient at start-up (the LED
    ///   jumps straight to its complement; there is no user to flicker at
    ///   power-on).
    /// * `fixed_floor` — the darkest LED level the deployment can reach,
    ///   used to size the flicker-safe fixed step of the baseline.
    /// * `fec` — nominal outer-code profile; the degradation ladder can
    ///   escalate it toward Heavy before touching the AMPPM tiers.
    pub fn new(
        cfg: SystemConfig,
        scheme: SchemeKind,
        illum_target: f64,
        initial_ambient: f64,
        fixed_floor: f64,
        fec: FecMode,
        rng: DetRng,
    ) -> Result<Transmitter, LinkError> {
        let codec = FrameCodec::new(cfg.clone()).map_err(FrameCodecError::Plan)?;
        let illum = IlluminationTarget::new(illum_target);
        let led_level = illum.led_level_for(initial_ambient).value();
        let tau_p = cfg.tau_p;
        let fec_rungs = fec.profile().map_or(0, |p| p.rungs_above());
        Ok(Transmitter {
            cfg,
            codec,
            scheme,
            illum,
            smart_stepper: PerceptionStepper::new(tau_p),
            fixed_stepper: FixedStepper::flicker_safe(tau_p, fixed_floor),
            led_level,
            smart_adaptation: AdaptationCounter::default(),
            fixed_adaptation: AdaptationCounter::default(),
            degrade: DegradeController::with_fec_rungs(fec_rungs),
            nominal_fec: fec,
            fec_data_bytes: 0,
            fec_coded_bytes: 0,
            rng,
        })
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Current LED dimming level (measured domain, normalized).
    pub fn led_level(&self) -> f64 {
        self.led_level
    }

    /// The outer-code mode the next frame will carry: the nominal profile
    /// escalated by however many parity rungs the ARQ feedback has
    /// engaged. [`FecMode::Off`] stays off — the ladder then has no
    /// parity rungs at all.
    pub fn current_fec(&self) -> FecMode {
        match self.nominal_fec.profile() {
            None => FecMode::Off,
            Some(mut p) => {
                for _ in 0..self.degrade.fec_boost() {
                    p = p.escalate();
                }
                FecMode::from_profile(p)
            }
        }
    }

    /// Cumulative parity overhead actually spent on the air
    /// (`coded/data - 1`; 0 while FEC is off or nothing was sent).
    pub fn fec_overhead_ratio(&self) -> f64 {
        if self.fec_data_bytes == 0 {
            return 0.0;
        }
        self.fec_coded_bytes as f64 / self.fec_data_bytes as f64 - 1.0
    }

    /// Step 1 + 2: sense ambient (normalized) and adapt the LED to the
    /// new complement level, counting the perception-domain steps taken
    /// and the steps the fixed-τ baseline would have taken.
    pub fn update_ambient(&mut self, ambient_norm: f64) {
        use smartvlc_core::adaptation::perceived;
        let target = self.illum.led_level_for(ambient_norm).value();
        // Deadband: a change smaller than one perceptual quantum is
        // invisible by definition; chasing it would only burn adjustments
        // (Goal 2: "the number of adaptation times should be minimized")
        // and amplify sensor noise.
        if (perceived(target) - perceived(self.led_level)).abs() < self.smart_stepper.tau_p {
            return;
        }
        let smart = self.smart_stepper.step_count(self.led_level, target);
        let fixed = self.fixed_stepper.step_count(self.led_level, target);
        if smart > 0 {
            self.smart_adaptation.record(smart);
            self.fixed_adaptation.record(fixed);
            self.led_level = target;
        }
    }

    /// Steps 3 + 4: build and modulate one frame carrying `seq` and
    /// `data` at the degradation tier the ARQ feedback currently calls
    /// for. Returns the frame and its slot waveform.
    pub fn build_frame(&mut self, seq: u16, data: &[u8]) -> Result<(Frame, Vec<bool>), LinkError> {
        let level = DimmingLevel::clamped(self.led_level);
        let descriptor = self
            .scheme
            .descriptor(&self.cfg, level, self.degrade.tier());
        let payload = MacHeader { seq }.encapsulate(data);
        let len = payload.len();
        let fec = self.current_fec();
        let frame =
            Frame::with_fec(descriptor, fec, payload).ok_or(LinkError::PayloadTooLarge {
                len,
                max: MAX_PAYLOAD,
            })?;
        // Overhead accounting: the payload+CRC block vs its on-air size.
        let block = len as u64 + 2;
        self.fec_data_bytes += block;
        self.fec_coded_bytes += fec.coded_len(block as usize) as u64;
        let slots = self.codec.emit(&frame)?;
        obs::counter_add(obs::key!("link.tx.frames_built"), 1);
        Ok((frame, slots))
    }

    /// A fresh random data payload sized so the MAC frame matches the
    /// configured payload length (paper: 128 B including the MAC header).
    ///
    /// Under degradation the payload halves per tier (floor 16 B): slot
    /// errors are i.i.d., so a frame's delivery probability falls
    /// exponentially with its length — shrinking the frame is the one
    /// knob that makes each attempt *more likely to land* on a channel
    /// that is eating frames, at the cost of per-frame goodput. Paired
    /// with the sturdier tier plan this is the "lower rate, higher
    /// success" fallback; recovery restores the full payload.
    pub fn random_data(&mut self) -> Vec<u8> {
        let mut out = vec![0u8; self.payload_budget()];
        self.rng.fill_bytes(&mut out);
        out
    }

    /// How many user-data bytes the next MAC frame can carry at the
    /// current degradation tier (the MTU a datagram layer fragments
    /// against). Same halving-per-tier math as [`Self::random_data`]:
    /// full payload at tier 0, floor 16 B, minus the MAC header.
    pub fn payload_budget(&self) -> usize {
        let full = self.cfg.payload_len;
        let shrunk = (full >> self.degrade.tier()).max(16);
        shrunk.saturating_sub(MacHeader::WIRE_BYTES)
    }

    /// Idle filler holding the current dimming level between frames.
    ///
    /// Ones are spread evenly in *pairs* of slots: the duty cycle is
    /// preserved and the waveform stays flicker-free, but the result can
    /// never contain the preamble's strict slot-rate alternation (at
    /// `l = 0.5` an evenly-spread single-slot pattern would be exactly
    /// the preamble and keep the receiver chasing false locks).
    ///
    /// Appends to `out` without clearing it — callers building an on-air
    /// stream (gap + frame) extend one reused buffer.
    pub fn idle_filler_into(&self, slots: usize, out: &mut Vec<bool>) {
        let pairs = slots / 2;
        let ones = (self.led_level * pairs as f64).round() as usize;
        out.reserve(slots);
        for on in spread_evenly(ones, pairs) {
            out.push(on);
            out.push(on);
        }
        if slots % 2 == 1 {
            out.push(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(scheme: SchemeKind) -> Transmitter {
        tx_fec(scheme, FecMode::Off)
    }

    fn tx_fec(scheme: SchemeKind, fec: FecMode) -> Transmitter {
        Transmitter::new(
            SystemConfig::default(),
            scheme,
            1.0,
            0.5,
            0.1,
            fec,
            DetRng::seed_from_u64(3),
        )
        .unwrap()
    }

    #[test]
    fn initial_level_complements_ambient() {
        let t = tx(SchemeKind::Amppm);
        assert!((t.led_level() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn update_ambient_counts_steps_both_ways() {
        let mut t = tx(SchemeKind::Amppm);
        t.update_ambient(0.3); // LED must rise 0.5 -> 0.7
        assert!((t.led_level() - 0.7).abs() < 1e-12);
        assert!(t.smart_adaptation.adjustments > 0);
        assert!(t.fixed_adaptation.adjustments > t.smart_adaptation.adjustments);
        // No-op update records nothing.
        let before = t.smart_adaptation.events;
        t.update_ambient(0.3);
        assert_eq!(t.smart_adaptation.events, before);
    }

    #[test]
    fn fig19c_ratio_around_two() {
        // Sweep ambient across the dynamic scenario's range; the fixed
        // stepper should take roughly 2x the adjustments (paper: 50%).
        let mut t = tx(SchemeKind::Amppm);
        for i in 0..=100 {
            let amb = 0.05 + 0.80 * i as f64 / 100.0;
            t.update_ambient(amb);
        }
        for i in 0..=100 {
            let amb = 0.85 - 0.80 * i as f64 / 100.0;
            t.update_ambient(amb);
        }
        let ratio = t.fixed_adaptation.adjustments as f64 / t.smart_adaptation.adjustments as f64;
        assert!((1.5..=2.6).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn descriptors_follow_scheme() {
        let cfg = SystemConfig::default();
        let l = DimmingLevel::new(0.3).unwrap();
        assert!(matches!(
            SchemeKind::Amppm.descriptor(&cfg, l, 0),
            PatternDescriptor::Amppm { tier: 0, .. }
        ));
        assert!(matches!(
            SchemeKind::Amppm.descriptor(&cfg, l, 2),
            PatternDescriptor::Amppm { tier: 2, .. }
        ));
        // Out-of-range tiers clamp rather than poison the wire format.
        assert!(matches!(
            SchemeKind::Amppm.descriptor(&cfg, l, 200),
            PatternDescriptor::Amppm {
                tier: MAX_DEGRADE_TIER,
                ..
            }
        ));
        assert_eq!(
            SchemeKind::Mppm(20).descriptor(&cfg, l, 0),
            PatternDescriptor::Mppm { n: 20, k: 6 }
        );
        assert!(matches!(
            SchemeKind::OokCt.descriptor(&cfg, l, 0),
            PatternDescriptor::OokCt { .. }
        ));
        assert_eq!(
            SchemeKind::Vppm(10).descriptor(&cfg, l, 0),
            PatternDescriptor::Vppm { n: 10, width: 3 }
        );
    }

    #[test]
    fn descriptor_clamps_degenerate_levels() {
        let cfg = SystemConfig::default();
        let lo = DimmingLevel::new(0.001).unwrap();
        assert_eq!(
            SchemeKind::Mppm(20).descriptor(&cfg, lo, 0),
            PatternDescriptor::Mppm { n: 20, k: 1 }
        );
        let hi = DimmingLevel::new(0.999).unwrap();
        assert_eq!(
            SchemeKind::Vppm(10).descriptor(&cfg, hi, 0),
            PatternDescriptor::Vppm { n: 10, width: 9 }
        );
    }

    #[test]
    fn build_frame_produces_parseable_slots() {
        let mut t = tx(SchemeKind::Amppm);
        let data = t.random_data();
        let (frame, slots) = t.build_frame(7, &data).unwrap();
        assert_eq!(frame.payload.len(), t.config().payload_len);
        let mut codec = FrameCodec::new(SystemConfig::default()).unwrap();
        let (parsed, stats) = codec.parse(&slots).unwrap();
        assert!(stats.crc_ok);
        let (hdr, body) = MacHeader::decapsulate(&parsed.payload).unwrap();
        assert_eq!(hdr.seq, 7);
        assert_eq!(body, &data[..]);
    }

    #[test]
    fn frames_work_across_adaptation_range() {
        let mut t = tx(SchemeKind::Amppm);
        let mut codec = FrameCodec::new(SystemConfig::default()).unwrap();
        for amb in [0.1, 0.45, 0.8] {
            t.update_ambient(amb);
            let data = t.random_data();
            let (_, slots) = t.build_frame(1, &data).unwrap();
            let (_, stats) = codec.parse(&slots).unwrap();
            assert!(stats.crc_ok, "ambient={amb}");
        }
    }

    #[test]
    fn idle_filler_holds_dimming() {
        let mut t = tx(SchemeKind::Amppm);
        t.update_ambient(0.75); // LED at 0.25
        let mut filler = Vec::new();
        t.idle_filler_into(400, &mut filler);
        let duty = filler.iter().filter(|&&b| b).count() as f64 / 400.0;
        assert!((duty - 0.25).abs() < 0.01);
    }

    #[test]
    fn degrade_controller_escalates_and_recovers_with_hysteresis() {
        let mut d = DegradeController::default();
        assert_eq!(d.tier(), 0);
        // A single loss must not move the tier (hysteresis).
        d.record_outcome(false);
        assert_eq!(d.tier(), 0);
        // A sustained loss burst escalates, one tier at a time.
        for _ in 0..30 {
            d.record_outcome(false);
        }
        assert!(d.tier() >= 1, "tier={}", d.tier());
        assert!(d.escalations >= 1);
        let peak = d.tier();
        // Sustained clean delivery walks the tier back to nominal.
        for _ in 0..200 {
            d.record_outcome(true);
        }
        assert_eq!(d.tier(), 0);
        assert!(d.recoveries as u8 >= peak);
        assert_eq!(d.max_tier, peak);
    }

    #[test]
    fn fec_ladder_escalates_before_tiers_and_recovers_after() {
        // Two parity rungs (Light → Medium → Heavy) absorb the first two
        // escalations; only then do AMPPM tiers move. Recovery unwinds in
        // the opposite order.
        let mut d = DegradeController::with_fec_rungs(2);
        let mut boosts = Vec::new();
        let mut tiers = Vec::new();
        for _ in 0..(2 + MAX_DEGRADE_TIER) {
            let before = (d.fec_boost(), d.tier());
            while (d.fec_boost(), d.tier()) == before {
                d.record_outcome(false);
            }
            boosts.push(d.fec_boost());
            tiers.push(d.tier());
        }
        assert_eq!(&boosts[..2], &[1, 2], "parity first");
        assert_eq!(&tiers[..2], &[0, 0], "tiers untouched while parity climbs");
        assert_eq!(*tiers.last().unwrap(), MAX_DEGRADE_TIER);
        assert_eq!(d.max_fec_boost, 2);
        assert_eq!(d.max_tier, MAX_DEGRADE_TIER);
        // Saturated: further losses change nothing.
        for _ in 0..1000 {
            d.record_outcome(false);
        }
        assert_eq!((d.fec_boost(), d.tier()), (2, MAX_DEGRADE_TIER));
        // Clean delivery walks tiers down first, then parity.
        while d.tier() > 0 {
            d.record_outcome(true);
            assert_eq!(d.fec_boost(), 2, "parity stays up while tiers recover");
        }
        while d.fec_boost() > 0 {
            d.record_outcome(true);
            assert_eq!(d.tier(), 0);
        }
    }

    #[test]
    fn transmitter_fec_mode_follows_the_ladder() {
        let mut t = tx_fec(SchemeKind::Amppm, FecMode::Light);
        assert_eq!(t.current_fec(), FecMode::Light);
        // Climb the whole ladder.
        for _ in 0..10_000 {
            t.degrade.record_outcome(false);
        }
        assert_eq!(t.current_fec(), FecMode::Heavy);
        assert_eq!(t.degrade.tier(), MAX_DEGRADE_TIER);
        // The boosted profile reaches the wire and still roundtrips.
        let data = t.random_data();
        let (frame, slots) = t.build_frame(4, &data).unwrap();
        assert_eq!(frame.header.fec, FecMode::Heavy);
        let mut codec = FrameCodec::new(SystemConfig::default()).unwrap();
        let (parsed, stats) = codec.parse(&slots).unwrap();
        assert!(stats.crc_ok);
        assert_eq!(parsed, frame);
        assert!(t.fec_overhead_ratio() > 0.0);
    }

    #[test]
    fn fec_off_transmitter_has_no_parity_rungs() {
        let mut t = tx(SchemeKind::Amppm);
        assert_eq!(t.current_fec(), FecMode::Off);
        for _ in 0..10_000 {
            t.degrade.record_outcome(false);
        }
        // The ladder is tier-only: identical to the pre-FEC controller.
        assert_eq!(t.current_fec(), FecMode::Off);
        assert_eq!(t.degrade.tier(), MAX_DEGRADE_TIER);
        assert_eq!(t.degrade.escalations, MAX_DEGRADE_TIER as u64);
        assert_eq!(t.degrade.max_fec_boost, 0);
        let data = t.random_data();
        let (frame, _) = t.build_frame(5, &data).unwrap();
        assert_eq!(frame.header.fec, FecMode::Off);
        assert_eq!(t.fec_overhead_ratio(), 0.0);
    }

    #[test]
    fn degrade_controller_saturates_at_max_tier() {
        let mut d = DegradeController::default();
        for _ in 0..10_000 {
            d.record_outcome(false);
        }
        assert_eq!(d.tier(), MAX_DEGRADE_TIER);
        assert_eq!(d.escalations, MAX_DEGRADE_TIER as u64);
    }

    #[test]
    fn degraded_tier_halves_the_payload() {
        let mut t = tx(SchemeKind::Amppm);
        let full = t.random_data().len();
        assert_eq!(full, t.cfg.payload_len - MacHeader::WIRE_BYTES);
        while t.degrade.tier() < MAX_DEGRADE_TIER {
            t.degrade.record_outcome(false);
        }
        let shrunk = t.random_data().len() + MacHeader::WIRE_BYTES;
        assert_eq!(
            shrunk,
            (t.cfg.payload_len >> MAX_DEGRADE_TIER).max(16),
            "tier-{MAX_DEGRADE_TIER} frames must carry the shrunken payload"
        );
        assert!(shrunk < full);
    }

    #[test]
    fn degraded_tier_reaches_the_wire() {
        let mut t = tx(SchemeKind::Amppm);
        for _ in 0..40 {
            t.degrade.record_outcome(false);
        }
        assert!(t.degrade.tier() >= 1);
        let data = t.random_data();
        let (frame, slots) = t.build_frame(9, &data).unwrap();
        match frame.header.pattern {
            PatternDescriptor::Amppm { tier, .. } => assert_eq!(tier, t.degrade.tier()),
            other => panic!("{other:?}"),
        }
        // The receiver replans from the wire tier and still decodes.
        let mut codec = FrameCodec::new(SystemConfig::default()).unwrap();
        let (parsed, stats) = codec.parse(&slots).unwrap();
        assert!(stats.crc_ok);
        assert_eq!(parsed, frame);
    }

    #[test]
    fn baseline_schemes_roundtrip_too() {
        for scheme in [
            SchemeKind::Mppm(20),
            SchemeKind::OokCt,
            SchemeKind::Vppm(10),
        ] {
            let mut t = tx(scheme);
            t.update_ambient(0.6);
            let data = t.random_data();
            let (_, slots) = t.build_frame(2, &data).unwrap();
            let mut codec = FrameCodec::new(SystemConfig::default()).unwrap();
            let (parsed, stats) = codec.parse(&slots).unwrap();
            assert!(stats.crc_ok, "{scheme:?}");
            let (hdr, body) = MacHeader::decapsulate(&parsed.payload).unwrap();
            assert_eq!(hdr.seq, 2);
            assert_eq!(body, &data[..], "{scheme:?}");
        }
    }
}
