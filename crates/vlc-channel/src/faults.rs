//! Deterministic channel fault injection — the chaos-mode schedule.
//!
//! The paper's evaluation assumes a cooperative channel; a deployed
//! luminaire does not get one. This module provides a [`FaultPlan`]: a
//! seeded, *schedulable* list of impairments (ambient spikes, occlusion
//! bursts, clock drift, symbol slip, receiver saturation, flaky uplink)
//! that the link simulation replays deterministically. The plan itself is
//! pure data — every query is a function of simulation time only — so the
//! same plan under the same seed produces bit-identical runs at any
//! thread count.
//!
//! Fault taxonomy (see DESIGN.md §8):
//!
//! * **Ambient** — [`FaultKind::AmbientStep`] (cloud clears, lights come
//!   on) and [`FaultKind::AmbientImpulse`] (camera flash, specular glint:
//!   a spike with exponential decay). Both raise the ambient photocurrent
//!   and therefore the RIN/shot noise floor.
//! * **Occlusion** — [`FaultKind::Occlusion`]: a hand or body in the
//!   beam, as a multiplicative optical gain (0.001 = -30 dB).
//! * **Timing** — [`FaultKind::ClockDrift`] (LED clock ppm offset that
//!   accumulates into slips) and [`FaultKind::SymbolSlip`] (a discrete
//!   insertion/deletion of slots: PRU scheduling hiccup, ADC overrun).
//! * **Saturation** — [`FaultKind::Saturation`]: the front end pinned at
//!   the ADC rail (sunbeam on the photodiode); the slot eye collapses.
//! * **Uplink** — [`FaultKind::AckLoss`] / [`FaultKind::AckDup`] /
//!   [`FaultKind::AckJitter`]: the ESP8266 path misbehaving.

use desim::{SimDuration, SimTime};

/// One kind of injected impairment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Add `delta_lux` to the ambient illuminance for the event duration.
    AmbientStep {
        /// Extra ambient illuminance, lux.
        delta_lux: f64,
    },
    /// An ambient spike of `peak_lux` at onset, decaying exponentially
    /// with time constant `decay_s`, truncated at the event end.
    AmbientImpulse {
        /// Peak extra illuminance at onset, lux.
        peak_lux: f64,
        /// Exponential decay time constant, seconds.
        decay_s: f64,
    },
    /// Multiply the optical path gain by `gain` (0.001 = -30 dB blockage).
    Occlusion {
        /// Linear optical power factor in [0, 1].
        gain: f64,
    },
    /// LED clock offset in parts-per-million; the accumulated phase error
    /// surfaces as inserted (positive ppm) or deleted (negative ppm)
    /// slots in the received stream.
    ClockDrift {
        /// Clock offset, ppm (positive = transmitter fast).
        ppm: f64,
    },
    /// A one-shot insertion (`slots > 0`) or deletion (`slots < 0`) of
    /// decided slots at the event time.
    SymbolSlip {
        /// Slots inserted (positive) or deleted (negative).
        slots: i32,
    },
    /// Receiver front end pinned at the ADC rail: the slot eye collapses
    /// and decisions degrade to coin flips.
    Saturation,
    /// Drop each uplink ACK with probability `prob` for the duration.
    AckLoss {
        /// Per-message loss probability in [0, 1].
        prob: f64,
    },
    /// Duplicate each surviving uplink ACK with probability `prob`.
    AckDup {
        /// Per-message duplication probability in [0, 1].
        prob: f64,
    },
    /// Delay every uplink ACK by an extra fixed latency (congested Wi-Fi).
    AckJitter {
        /// Extra one-way delay, milliseconds.
        extra_ms: f64,
    },
}

impl FaultKind {
    /// Whether this fault impairs the optical downlink (as opposed to
    /// the ACK side channel). Downlink faults define the recovery clock:
    /// "time to resync" is measured from the moment the last of them
    /// clears.
    pub fn hits_downlink(&self) -> bool {
        !matches!(
            self,
            FaultKind::AckLoss { .. } | FaultKind::AckDup { .. } | FaultKind::AckJitter { .. }
        )
    }
}

/// One scheduled impairment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Onset time.
    pub at: SimTime,
    /// How long the impairment lasts.
    pub duration: SimDuration,
    /// What goes wrong.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Whether the event is active at `t` (half-open `[at, at+duration)`).
    pub fn active_at(&self, t: SimTime) -> bool {
        t >= self.at && t < self.end()
    }

    /// The instant the impairment clears.
    pub fn end(&self) -> SimTime {
        self.at + self.duration
    }
}

/// The instantaneous optical-channel impairment state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChannelFaultState {
    /// Extra ambient illuminance to add, lux.
    pub extra_ambient_lux: f64,
    /// Multiplicative optical gain (1.0 = clear).
    pub gain: f64,
    /// Whether the receiver front end is pinned at the rail.
    pub saturated: bool,
}

impl ChannelFaultState {
    /// The no-fault state.
    pub const CLEAR: ChannelFaultState = ChannelFaultState {
        extra_ambient_lux: 0.0,
        gain: 1.0,
        saturated: false,
    };
}

impl Default for ChannelFaultState {
    fn default() -> Self {
        Self::CLEAR
    }
}

/// The instantaneous uplink impairment state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UplinkFaultState {
    /// Probability an ACK is dropped.
    pub loss_prob: f64,
    /// Probability a surviving ACK is duplicated.
    pub dup_prob: f64,
    /// Extra one-way delay.
    pub extra_delay: SimDuration,
}

impl UplinkFaultState {
    /// The no-fault state.
    pub const CLEAR: UplinkFaultState = UplinkFaultState {
        loss_prob: 0.0,
        dup_prob: 0.0,
        extra_delay: SimDuration::ZERO,
    };
}

impl Default for UplinkFaultState {
    fn default() -> Self {
        Self::CLEAR
    }
}

/// A deterministic schedule of impairments.
///
/// The plan is immutable after construction; all queries are pure
/// functions of time, which is what lets a chaos run fan out across
/// threads and still produce bit-identical results.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Build a plan from a list of events. Panics on invalid parameters
    /// (probabilities outside [0, 1], non-positive durations or decay
    /// constants) — a fault plan is test infrastructure and a bad one is
    /// a bug, not a runtime condition.
    pub fn new(mut events: Vec<FaultEvent>) -> FaultPlan {
        for e in &events {
            assert!(!e.duration.is_zero(), "fault duration must be positive");
            match e.kind {
                FaultKind::AmbientStep { delta_lux } => {
                    assert!(delta_lux.is_finite(), "ambient step must be finite")
                }
                FaultKind::AmbientImpulse { peak_lux, decay_s } => {
                    assert!(peak_lux.is_finite() && peak_lux >= 0.0);
                    assert!(decay_s > 0.0, "impulse decay must be positive");
                }
                FaultKind::Occlusion { gain } => {
                    assert!((0.0..=1.0).contains(&gain), "occlusion gain in [0,1]")
                }
                FaultKind::ClockDrift { ppm } => assert!(ppm.is_finite()),
                FaultKind::SymbolSlip { .. } | FaultKind::Saturation => {}
                FaultKind::AckLoss { prob } | FaultKind::AckDup { prob } => {
                    assert!((0.0..=1.0).contains(&prob), "probability in [0,1]")
                }
                FaultKind::AckJitter { extra_ms } => {
                    assert!(extra_ms.is_finite() && extra_ms >= 0.0)
                }
            }
        }
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// The scheduled events, sorted by onset.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The combined optical-channel impairment at time `t`. Ambient
    /// contributions add; occlusion gains multiply; saturation latches
    /// for any active saturation event.
    pub fn channel_state_at(&self, t: SimTime) -> ChannelFaultState {
        let mut st = ChannelFaultState::CLEAR;
        for e in &self.events {
            if !e.active_at(t) {
                continue;
            }
            match e.kind {
                FaultKind::AmbientStep { delta_lux } => st.extra_ambient_lux += delta_lux,
                FaultKind::AmbientImpulse { peak_lux, decay_s } => {
                    let dt = t
                        .checked_duration_since(e.at)
                        .unwrap_or(SimDuration::ZERO)
                        .as_secs_f64();
                    st.extra_ambient_lux += peak_lux * (-dt / decay_s).exp();
                }
                FaultKind::Occlusion { gain } => st.gain *= gain,
                FaultKind::Saturation => st.saturated = true,
                _ => {}
            }
        }
        st.extra_ambient_lux = st.extra_ambient_lux.max(0.0);
        st
    }

    /// The combined uplink impairment at time `t`. Loss/duplication
    /// probabilities combine as independent events; extra delays add.
    pub fn uplink_state_at(&self, t: SimTime) -> UplinkFaultState {
        let mut st = UplinkFaultState::CLEAR;
        for e in &self.events {
            if !e.active_at(t) {
                continue;
            }
            match e.kind {
                FaultKind::AckLoss { prob } => {
                    st.loss_prob = 1.0 - (1.0 - st.loss_prob) * (1.0 - prob)
                }
                FaultKind::AckDup { prob } => {
                    st.dup_prob = 1.0 - (1.0 - st.dup_prob) * (1.0 - prob)
                }
                FaultKind::AckJitter { extra_ms } => {
                    st.extra_delay += SimDuration::nanos((extra_ms * 1e6) as u64)
                }
                _ => {}
            }
        }
        st
    }

    /// Accumulated timing slip (slots, fractional) from t = 0 to `t`:
    /// clock drift integrated over its active window plus all discrete
    /// slips at or before `t`.
    fn slip_phase_at(&self, t: SimTime, tslot_s: f64) -> f64 {
        let mut phase = 0.0;
        for e in &self.events {
            match e.kind {
                FaultKind::ClockDrift { ppm } if t > e.at => {
                    let overlap_end = if t < e.end() { t } else { e.end() };
                    let overlap = overlap_end
                        .checked_duration_since(e.at)
                        .unwrap_or(SimDuration::ZERO)
                        .as_secs_f64();
                    phase += ppm * 1e-6 * overlap / tslot_s;
                }
                FaultKind::SymbolSlip { slots } if t >= e.at => {
                    phase += slots as f64;
                }
                _ => {}
            }
        }
        phase
    }

    /// Whole slots slipped in the window `(from, to]`: positive = slots
    /// inserted into the received stream, negative = slots deleted.
    /// Consecutive windows tile exactly (no slip is lost to rounding).
    pub fn slip_slots_between(&self, from: SimTime, to: SimTime, tslot_s: f64) -> i64 {
        assert!(tslot_s > 0.0, "slot duration must be positive");
        let a = self.slip_phase_at(from, tslot_s).round() as i64;
        let b = self.slip_phase_at(to, tslot_s).round() as i64;
        b - a
    }

    /// The instant the last downlink-impairing fault clears, if any.
    /// Recovery metrics (time-to-resync) are measured from here.
    pub fn last_downlink_fault_end(&self) -> Option<SimTime> {
        self.events
            .iter()
            .filter(|e| e.kind.hits_downlink())
            .map(|e| e.end())
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn ev(at_ms: u64, dur_ms: u64, kind: FaultKind) -> FaultEvent {
        FaultEvent {
            at: at(at_ms),
            duration: SimDuration::millis(dur_ms),
            kind,
        }
    }

    #[test]
    fn empty_plan_is_clear_everywhere() {
        let p = FaultPlan::default();
        assert_eq!(p.channel_state_at(at(5)), ChannelFaultState::CLEAR);
        assert_eq!(p.uplink_state_at(at(5)), UplinkFaultState::CLEAR);
        assert_eq!(p.slip_slots_between(at(0), at(100), 8e-6), 0);
        assert_eq!(p.last_downlink_fault_end(), None);
    }

    #[test]
    fn ambient_step_is_windowed() {
        let p = FaultPlan::new(vec![ev(
            100,
            50,
            FaultKind::AmbientStep { delta_lux: 4000.0 },
        )]);
        assert_eq!(p.channel_state_at(at(99)).extra_ambient_lux, 0.0);
        assert_eq!(p.channel_state_at(at(100)).extra_ambient_lux, 4000.0);
        assert_eq!(p.channel_state_at(at(149)).extra_ambient_lux, 4000.0);
        assert_eq!(p.channel_state_at(at(150)).extra_ambient_lux, 0.0);
    }

    #[test]
    fn impulse_decays_exponentially() {
        let p = FaultPlan::new(vec![ev(
            0,
            1000,
            FaultKind::AmbientImpulse {
                peak_lux: 8000.0,
                decay_s: 0.1,
            },
        )]);
        let a = p.channel_state_at(at(0)).extra_ambient_lux;
        let b = p.channel_state_at(at(100)).extra_ambient_lux;
        let c = p.channel_state_at(at(500)).extra_ambient_lux;
        assert_eq!(a, 8000.0);
        assert!((b / a - (-1.0f64).exp()).abs() < 1e-9, "b/a={}", b / a);
        assert!(c < 100.0, "c={c}");
        assert_eq!(p.channel_state_at(at(1000)).extra_ambient_lux, 0.0);
    }

    #[test]
    fn overlapping_faults_compose() {
        let p = FaultPlan::new(vec![
            ev(0, 100, FaultKind::AmbientStep { delta_lux: 1000.0 }),
            ev(50, 100, FaultKind::AmbientStep { delta_lux: 500.0 }),
            ev(0, 200, FaultKind::Occlusion { gain: 0.1 }),
            ev(0, 200, FaultKind::Occlusion { gain: 0.5 }),
            ev(60, 20, FaultKind::Saturation),
        ]);
        let st = p.channel_state_at(at(70));
        assert_eq!(st.extra_ambient_lux, 1500.0);
        assert!((st.gain - 0.05).abs() < 1e-12);
        assert!(st.saturated);
        let st = p.channel_state_at(at(10));
        assert_eq!(st.extra_ambient_lux, 1000.0);
        assert!(!st.saturated);
    }

    #[test]
    fn uplink_probabilities_compose_independently() {
        let p = FaultPlan::new(vec![
            ev(0, 100, FaultKind::AckLoss { prob: 0.5 }),
            ev(0, 100, FaultKind::AckLoss { prob: 0.5 }),
            ev(0, 100, FaultKind::AckJitter { extra_ms: 3.0 }),
        ]);
        let st = p.uplink_state_at(at(10));
        assert!((st.loss_prob - 0.75).abs() < 1e-12);
        assert_eq!(st.extra_delay, SimDuration::nanos(3_000_000));
        assert_eq!(p.uplink_state_at(at(100)), UplinkFaultState::CLEAR);
    }

    #[test]
    fn discrete_slips_land_once() {
        let tslot = 8e-6;
        let p = FaultPlan::new(vec![
            ev(10, 1, FaultKind::SymbolSlip { slots: 3 }),
            ev(20, 1, FaultKind::SymbolSlip { slots: -2 }),
        ]);
        assert_eq!(p.slip_slots_between(at(0), at(5), tslot), 0);
        assert_eq!(p.slip_slots_between(at(5), at(15), tslot), 3);
        assert_eq!(p.slip_slots_between(at(15), at(25), tslot), -2);
        assert_eq!(p.slip_slots_between(at(0), at(25), tslot), 1);
    }

    #[test]
    fn drift_accumulates_and_windows_tile() {
        let tslot = 8e-6;
        // 200 ppm over 1 s = 200e-6 s of phase = 25 slots.
        let p = FaultPlan::new(vec![ev(0, 1000, FaultKind::ClockDrift { ppm: 200.0 })]);
        assert_eq!(p.slip_slots_between(at(0), at(1000), tslot), 25);
        // Tiling: the sum over sub-windows equals the whole.
        let mut total = 0;
        for i in 0..10 {
            total += p.slip_slots_between(at(i * 100), at((i + 1) * 100), tslot);
        }
        assert_eq!(total, 25);
        // Nothing accrues after the drift window closes.
        assert_eq!(p.slip_slots_between(at(1000), at(2000), tslot), 0);
    }

    #[test]
    fn recovery_clock_ignores_uplink_faults() {
        let p = FaultPlan::new(vec![
            ev(100, 50, FaultKind::Occlusion { gain: 0.001 }),
            ev(0, 900, FaultKind::AckLoss { prob: 0.5 }),
        ]);
        assert_eq!(p.last_downlink_fault_end(), Some(at(150)));
    }

    #[test]
    fn events_are_sorted_by_onset() {
        let p = FaultPlan::new(vec![
            ev(300, 10, FaultKind::Saturation),
            ev(100, 10, FaultKind::Saturation),
        ]);
        assert_eq!(p.events()[0].at, at(100));
    }

    #[test]
    #[should_panic]
    fn rejects_bad_probability() {
        FaultPlan::new(vec![ev(0, 10, FaultKind::AckLoss { prob: 1.5 })]);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_duration() {
        FaultPlan::new(vec![FaultEvent {
            at: SimTime::ZERO,
            duration: SimDuration::ZERO,
            kind: FaultKind::Saturation,
        }]);
    }
}
