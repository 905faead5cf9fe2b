//! The end-to-end link simulation — the whole Fig. 2 system under a
//! scenario.
//!
//! One [`LinkSimulation`] runs a transmitter, the optical channel, a
//! receiver, and the Wi-Fi ACK path against an ambient-light profile for
//! a configured duration, producing the measurements the paper's
//! evaluation section reports: goodput (per second and average), frame
//! statistics, the ambient/LED/sum intensity traces of Fig. 19(b), and
//! the cumulative adaptation counts of Fig. 19(c).

pub use crate::tx::SchemeKind;

use crate::error::LinkError;
use crate::mac::{AckTracker, DedupWindow, MacHeader};
use crate::rx::{Receiver, RxEvent};
use crate::stats::{LinkStats, ThroughputRecorder};
use crate::tx::Transmitter;
use crate::uplink::UplinkMsg;
use crate::uplink_vlc::{VlcUplink, VlcUplinkConfig};
use desim::{DetRng, SimDuration, SimTime};
use smartvlc_core::frame::format::FecMode;
use smartvlc_core::SystemConfig;
use smartvlc_obs as obs;
use std::collections::HashMap;
use vlc_channel::ambient::AmbientProfile;
use vlc_channel::faults::{ChannelFaultState, FaultPlan, UplinkFaultState};
use vlc_channel::link::{ChannelConfig, OpticalChannel, RxScratch};
use vlc_channel::shadowing::{ShadowingModel, ShadowingProcess};
use vlc_hw::wifi::SideChannel;

/// How faithfully the channel is simulated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelFidelity {
    /// Full pipeline: LED dynamics → optics → photodiode → ADC samples →
    /// slot averaging. One noise draw per counted ADC sample
    /// (`samples_per_slot − 1`, 3 at the paper's rate); use for
    /// validation runs.
    Sampled,
    /// Per-slot i.i.d. errors at the channel's analytic P1/P2 — the same
    /// statistics Eq. 3 assumes, two orders of magnitude faster. The
    /// `monte_carlo_error_rate_matches_analytic` test in `vlc-channel`
    /// validates the equivalence.
    SlotIid,
}

/// Scenario configuration.
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// Modulation/system parameters (§6.1).
    pub sys: SystemConfig,
    /// Physical channel (geometry, parts, ambient coupling).
    pub channel: ChannelConfig,
    /// Payload modulation scheme.
    pub scheme: SchemeKind,
    /// Desired constant total illumination, normalized to full LED.
    pub illum_target: f64,
    /// Ambient illuminance mapped to normalized intensity 1.0, lux.
    pub full_scale_lux: f64,
    /// How often the transmitter senses ambient light.
    pub sense_interval: SimDuration,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Channel fidelity.
    pub fidelity: ChannelFidelity,
    /// Master seed (everything derives from it).
    pub seed: u64,
    /// MAC retransmission timeout.
    pub ack_timeout: SimDuration,
    /// MAC retry budget per frame.
    pub max_retries: u32,
    /// Idle filler slots between frames.
    pub interframe_gap_slots: usize,
    /// Darkest LED level the deployment reaches, used to size the
    /// flicker-safe fixed step of the Fig. 19(c) baseline. A deployment
    /// must be safe at its darkest reachable level, so the baseline is
    /// sized for 0.10 — the bottom of the dynamic scenario's sweep.
    pub fixed_step_floor: f64,
    /// §3 step 5: the receiver reports its ambient reading over Wi-Fi
    /// each sensing interval; the transmitter prefers a fresh report over
    /// its own sensor (the receiver sits in the area of interest). Off =
    /// transmitter-local sensing only.
    pub rx_ambient_reports: bool,
    /// Optional line-of-sight blockage process (people crossing the
    /// beam); `None` keeps the paper's always-clear path.
    pub shadowing: Option<ShadowingModel>,
    /// Which medium carries ACKs and ambient reports back.
    pub uplink: UplinkKind,
    /// Chaos-mode fault schedule (empty = the cooperative channel the
    /// paper evaluates on). See [`vlc_channel::faults`].
    pub faults: FaultPlan,
    /// Nominal outer-code profile ([`FecMode::Off`] = the uncoded
    /// pre-FEC pipeline). The degradation ladder may escalate it toward
    /// Heavy before dropping AMPPM tiers. `SMARTVLC_FEC=off` (or `0`)
    /// forces `Off` regardless of this field.
    pub fec: FecMode,
}

/// How long the simulation idles when a traffic source has nothing to
/// send right now (a datagram layer between bursts). Short enough that
/// queued arrivals see at most ~1 ms of polling latency, long enough
/// that an idle link doesn't spin the event loop per slot.
pub const TRAFFIC_IDLE_STEP: SimDuration = SimDuration::millis(1);

/// Where the frames come from: the MAC pulls its next payload from a
/// traffic source and reports per-frame fates back to it. The legacy
/// saturating random generator ([`RandomTraffic`]) is one such source;
/// `smartvlc-net` plugs a fragmenting datagram scheduler into the same
/// four hooks.
pub trait TrafficSource {
    /// Produce the next frame body, or `None` if nothing is ready to send
    /// (the link then idles [`TRAFFIC_IDLE_STEP`] and polls again). The
    /// transmitter is passed so sources can size payloads against
    /// [`Transmitter::payload_budget`] (tier-shrunk MTU).
    fn next_data(&mut self, now: SimTime, tx: &mut Transmitter) -> Option<Vec<u8>>;

    /// A frame carrying `body` was delivered for the first time (clean
    /// decode at the receiver, not a duplicate).
    fn on_delivered(&mut self, _now: SimTime, _body: &[u8]) {}

    /// A frame carrying `body` exhausted its retry budget and was
    /// abandoned by the ARQ — the bytes are lost.
    fn on_abandoned(&mut self, _now: SimTime, _body: &[u8]) {}

    /// Called once per MAC loop iteration before the frame pick; sources
    /// with internal clocks (workload generators) advance them here.
    fn on_tick(&mut self, _now: SimTime) {}
}

/// The pre-net behavior: every frame is a fresh random payload sized by
/// the transmitter's current budget. Never idles, never tracks fates —
/// [`LinkSimulation::run`] with this source is bit-identical to the
/// original loop.
pub struct RandomTraffic;

impl TrafficSource for RandomTraffic {
    fn next_data(&mut self, _now: SimTime, tx: &mut Transmitter) -> Option<Vec<u8>> {
        Some(tx.random_data())
    }
}

/// The reverse path's physical medium.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UplinkKind {
    /// The paper's ESP8266 Wi-Fi module.
    Wifi,
    /// Footnote-2 future work: a VLC uplink from a mobile LED of the
    /// given optical power (watts), same geometry as the downlink.
    Vlc {
        /// Mobile-node LED optical power, watts.
        tx_optical_w: f64,
    },
}

impl LinkConfig {
    /// The paper's static bench: AMPPM at `distance_m`, constant ambient,
    /// 10-second measurement.
    pub fn paper_static(distance_m: f64, scheme: SchemeKind, seed: u64) -> LinkConfig {
        LinkConfig {
            sys: SystemConfig::default(),
            channel: ChannelConfig::paper_bench(distance_m),
            scheme,
            illum_target: 1.0,
            full_scale_lux: 10_000.0,
            sense_interval: SimDuration::millis(200),
            duration: SimDuration::secs(10),
            fidelity: ChannelFidelity::SlotIid,
            seed,
            ack_timeout: SimDuration::millis(30),
            max_retries: 3,
            interframe_gap_slots: 32,
            fixed_step_floor: 0.10,
            rx_ambient_reports: true,
            shadowing: None,
            uplink: UplinkKind::Wifi,
            faults: FaultPlan::default(),
            fec: FecMode::Off,
        }
    }
}

/// One point of the Fig. 19(b) intensity trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TracePoint {
    /// Time, seconds.
    pub t_s: f64,
    /// Normalized ambient intensity.
    pub ambient: f64,
    /// Normalized LED level.
    pub led: f64,
}

/// Self-healing metrics of one run — how the link weathered its faults.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// Times the receiver declared sync loss.
    pub sync_losses: u64,
    /// Times the receiver's bounded resync budget ran dry (it re-arms
    /// and keeps hunting; this counts how often).
    pub resync_overruns: u64,
    /// Seconds from the last downlink-impairing fault clearing to the
    /// first cleanly decoded frame after it. `None` when the plan has no
    /// downlink faults, or the link never recovered within the run.
    pub resync_time_s: Option<f64>,
    /// Frames eventually ACKed but only after ≥ 1 retransmission
    /// ("delivered late").
    pub late_deliveries: u64,
    /// Frames abandoned after exhausting their retry budget ("lost").
    pub frames_abandoned: u64,
    /// Sequence numbers skipped due to wraparound collisions.
    pub seq_collisions: u64,
    /// Highest AMPPM degradation tier the ARQ feedback drove the
    /// transmitter to.
    pub max_degrade_tier: u8,
    /// Ladder escalations (link got worse) and recoveries (link healed);
    /// with FEC on these count parity-rung moves too.
    pub tier_escalations: u64,
    /// Ladder steps back toward nominal.
    pub tier_recoveries: u64,
    /// Symbol errors the outer code corrected in place across the run
    /// (0 with FEC off).
    pub fec_corrected_symbols: u64,
    /// Frames whose outer decode failed and fell back to CRC + ARQ.
    pub fec_decode_failures: u64,
    /// Parity overhead actually spent on the air (`coded/data - 1`).
    pub fec_overhead_ratio: f64,
}

/// The measurements of one run.
#[derive(Clone, Debug)]
pub struct LinkReport {
    /// Cumulative counters.
    pub stats: LinkStats,
    /// Per-second receiver goodput, (second, bit/s) — Fig. 19(a).
    pub throughput_bps: Vec<(f64, f64)>,
    /// Mean receiver goodput over the run, bit/s.
    pub mean_goodput_bps: f64,
    /// Ambient/LED traces at each sensing instant — Fig. 19(b).
    pub trace: Vec<TracePoint>,
    /// Cumulative adaptation counts (t, SmartVLC, fixed-step baseline) —
    /// Fig. 19(c).
    pub adaptation: Vec<(f64, u64, u64)>,
    /// Run duration, seconds.
    pub duration_s: f64,
    /// Fault-recovery metrics (all zero on a fault-free run).
    pub recovery: RecoveryReport,
}

/// The composed simulation.
pub struct LinkSimulation {
    cfg: LinkConfig,
    tx: Transmitter,
    rx: Receiver,
    channel: OpticalChannel,
    tracker: AckTracker,
    wifi: Box<dyn SideChannel<UplinkMsg>>,
    payload_store: HashMap<u16, Vec<u8>>,
    rng: DetRng,
    rx_sensor_rng: DetRng,
    /// Dedicated stream for fault-injection draws (ACK loss/dup coin
    /// flips, slip garbage) — forked unconditionally so a plan's presence
    /// never perturbs the other streams.
    fault_rng: DetRng,
    shadowing: Option<ShadowingProcess>,
    /// Latest receiver-side ambient report (arrival time, lux).
    rx_ambient: Option<(SimTime, f64)>,
    /// Smoothed ambient estimate (EMA over sense samples): sensor noise
    /// above the adaptation deadband would otherwise trigger spurious
    /// brightness adjustments in both directions.
    ambient_ema: Option<f64>,
    /// Reused receive-path buffers: on-air slot stream, sampled-channel
    /// scratch, and decided slots. Steady-state frames allocate nothing.
    air_buf: Vec<bool>,
    rx_scratch: RxScratch,
    decided_buf: Vec<bool>,
}

impl LinkSimulation {
    /// Build a simulation from a scenario config.
    pub fn new(cfg: LinkConfig) -> Result<LinkSimulation, LinkError> {
        if cfg.duration.is_zero() {
            return Err(LinkError::Config("duration must be positive"));
        }
        if cfg.full_scale_lux <= 0.0 || cfg.full_scale_lux.is_nan() {
            return Err(LinkError::Config("full_scale_lux must be positive"));
        }
        cfg.channel.validate().map_err(LinkError::Config)?;
        let root = DetRng::seed_from_u64(cfg.seed);
        let initial_ambient = 0.0; // set properly on the first sense tick
                                   // The kill switch is read once per simulation, not per frame:
                                   // `SMARTVLC_FEC=off` forces the uncoded pipeline with identical
                                   // bookkeeping, keeping fec-off artifacts byte-identical.
        let fec = if smartvlc_fec::enabled_from_env() {
            cfg.fec
        } else {
            FecMode::Off
        };
        let tx = Transmitter::new(
            cfg.sys.clone(),
            cfg.scheme,
            cfg.illum_target,
            initial_ambient,
            cfg.fixed_step_floor,
            fec,
            root.fork("tx-payload"),
        )?;
        let mut rx = Receiver::new(cfg.sys.clone()).map_err(LinkError::from)?;
        // An uncoded link rejects FEC-flagged headers as corruption
        // (nobody legitimately sends them), so the fec-off event stream
        // and telemetry match a build without the outer code at all.
        rx.set_accept_fec(fec != FecMode::Off);
        let channel = OpticalChannel::new(cfg.channel, root.fork("channel"));
        let tracker = AckTracker::with_backoff(cfg.ack_timeout, cfg.max_retries, root.fork("mac"));
        let wifi: Box<dyn SideChannel<UplinkMsg>> = match cfg.uplink {
            UplinkKind::Wifi => Box::new(vlc_hw::WifiSideChannel::esp8266(root.fork("wifi"))),
            UplinkKind::Vlc { tx_optical_w } => {
                let mut up_cfg = VlcUplinkConfig::mobile_node(cfg.channel.geometry.distance_m);
                up_cfg.tx_optical_w = tx_optical_w;
                up_cfg.ambient_lux = cfg.channel.ambient_lux;
                Box::new(VlcUplink::new(up_cfg, root.fork("vlc-uplink")))
            }
        };
        let shadowing = cfg
            .shadowing
            .map(|m| ShadowingProcess::new(m, root.fork("shadowing")));
        Ok(LinkSimulation {
            rng: root.fork("link"),
            rx_sensor_rng: root.fork("rx-sensor"),
            fault_rng: root.fork("faults"),
            shadowing,
            cfg,
            tx,
            rx,
            channel,
            tracker,
            wifi,
            payload_store: HashMap::new(),
            rx_ambient: None,
            ambient_ema: None,
            air_buf: Vec::new(),
            rx_scratch: RxScratch::new(),
            decided_buf: Vec::new(),
        })
    }

    /// Run the scenario against an ambient profile with the legacy
    /// saturating random-payload source (bit-identical to the pre-net
    /// loop).
    pub fn run(&mut self, ambient: &mut dyn AmbientProfile) -> LinkReport {
        self.run_traffic(ambient, &mut RandomTraffic)
    }

    /// Run the scenario pulling frame payloads from `src` and reporting
    /// per-frame fates (first delivery, abandonment) back to it.
    pub fn run_traffic(
        &mut self,
        ambient: &mut dyn AmbientProfile,
        src: &mut dyn TrafficSource,
    ) -> LinkReport {
        let tslot = SimDuration::nanos(self.cfg.sys.tslot_nanos());
        let tslot_s = tslot.as_secs_f64();
        let mut now = SimTime::ZERO;
        let mut next_sense = SimTime::ZERO;
        let mut stats = LinkStats::default();
        let mut recorder = ThroughputRecorder::new(SimDuration::secs(1));
        let mut trace = Vec::new();
        let mut adaptation = Vec::new();
        let mut delivered = DedupWindow::default();
        let chaos = !self.cfg.faults.is_empty();
        // Recovery clock: the instant the last downlink fault clears.
        let recovery_from = self.cfg.faults.last_downlink_fault_end();
        let mut first_clean_after_fault: Option<SimTime> = None;
        let mut resync_overruns = 0u64;
        let mut fault_was_clear = true;
        let mut fec_corrected_symbols = 0u64;
        let mut fec_decode_failures = 0u64;

        while now < SimTime::ZERO + self.cfg.duration {
            // Chaos mode: replay the scheduled impairment state for this
            // instant onto the optical channel.
            if chaos {
                let st = self.cfg.faults.channel_state_at(now);
                let clear = st == ChannelFaultState::CLEAR;
                if clear != fault_was_clear {
                    // Journal the transition edge (1 = fault onset,
                    // 0 = fault cleared) at sim time.
                    obs::event(
                        now,
                        obs::key!("link.run.fault_transition"),
                        u64::from(!clear),
                    );
                    fault_was_clear = clear;
                }
                self.channel.set_fault_state(st);
            }
            // Sense ambient and adapt (Steps 1-2 of Fig. 2).
            if now >= next_sense {
                let lux = ambient.lux_at(now);
                self.channel.set_ambient_lux(lux);
                // Step 5: the receiver samples the same office light with
                // its own OPT101-class sensor (~0.5% noise after on-chip
                // integration) and reports over Wi-Fi; the report arrives
                // later in this loop.
                if self.cfg.rx_ambient_reports {
                    let measured =
                        (lux * (1.0 + self.rx_sensor_rng.next_normal(0.0, 0.005))).max(0.0);
                    self.wifi
                        .send(now, UplinkMsg::AmbientReport { lux: measured });
                }
                // The transmitter prefers a fresh receiver report (the
                // receiver sits in the area of interest); stale or absent
                // reports fall back to the local sensor.
                let fresh_window = self.cfg.sense_interval * 3;
                let effective_lux = match self.rx_ambient {
                    Some((at, rx_lux))
                        if now
                            .checked_duration_since(at)
                            .is_some_and(|d| d <= fresh_window) =>
                    {
                        rx_lux
                    }
                    _ => lux,
                };
                // EMA smoothing (alpha = 0.25, ~4-sample settling): the
                // adaptation should follow the light, not the sensor noise.
                let ema = match self.ambient_ema {
                    Some(prev) => prev + 0.25 * (effective_lux - prev),
                    None => effective_lux,
                };
                self.ambient_ema = Some(ema);
                let norm = (ema / self.cfg.full_scale_lux).clamp(0.0, 1.0);
                self.tx.update_ambient(norm);
                trace.push(TracePoint {
                    t_s: now.as_secs_f64(),
                    ambient: norm,
                    led: self.tx.led_level(),
                });
                adaptation.push((
                    now.as_secs_f64(),
                    self.tx.smart_adaptation.adjustments,
                    self.tx.fixed_adaptation.adjustments,
                ));
                next_sense += self.cfg.sense_interval;
            }

            // Deliver uplink traffic that has arrived over Wi-Fi.
            for msg in self.wifi.deliver_due(now) {
                match msg {
                    UplinkMsg::Ack { seq } => {
                        if self.tracker.on_ack(seq).is_some() {
                            self.payload_store.remove(&seq);
                            // A delivered frame is the ARQ's "link is
                            // fine" signal.
                            self.tx.degrade.record_outcome(true);
                        }
                        stats.acks_received += 1;
                    }
                    UplinkMsg::AmbientReport { lux } => {
                        self.rx_ambient = Some((now, lux));
                    }
                }
            }
            let scan = self.tracker.scan_timeouts(now);
            for &seq in &scan.abandoned_seqs {
                // The retry budget is spent; nothing will ever need this
                // payload again — but the traffic source learns its bytes
                // are gone (a net layer marks the fragment lost).
                if let Some(data) = self.payload_store.remove(&seq) {
                    src.on_abandoned(now, &data);
                }
            }
            stats.frames_abandoned += scan.abandoned() as u64;
            // Every expiry/abandonment is a loss sample for the graceful
            // rate-degradation controller.
            for _ in 0..scan.failures() {
                self.tx.degrade.record_outcome(false);
            }

            // Pick the next frame: retransmission first, else fresh data.
            src.on_tick(now);
            let (seq, data, is_retry) = match self.tracker.next_retry() {
                Some(seq) => match self.payload_store.get(&seq) {
                    Some(data) => {
                        let data = data.clone();
                        self.tracker.register_retry(seq, now);
                        (seq, data, true)
                    }
                    None => {
                        // Tracker/store desync (LinkError::RetryStateMissing
                        // territory). Self-heal: drop the orphaned retry and
                        // move on rather than panicking on a missing key.
                        stats.retry_state_missing += 1;
                        continue;
                    }
                },
                None => match src.next_data(now, &mut self.tx) {
                    Some(data) => match self.tracker.register_new(now, data.len()) {
                        Ok(seq) => {
                            self.payload_store.insert(seq, data.clone());
                            (seq, data, false)
                        }
                        Err(_) => {
                            // Entire sequence space in flight: idle one
                            // timeout so scans can abandon/expire entries,
                            // then try again. The produced payload is
                            // dropped — only reachable with 65536 frames
                            // simultaneously outstanding.
                            now += self.cfg.ack_timeout;
                            continue;
                        }
                    },
                    None => {
                        // Nothing to send right now: hold the light and
                        // poll the source again shortly.
                        now += TRAFFIC_IDLE_STEP;
                        continue;
                    }
                },
            };
            if is_retry {
                stats.retransmissions += 1;
            }

            // People in the beam attenuate this frame's optical path.
            if let Some(shadow) = self.shadowing.as_mut() {
                let gain = shadow.gain_at(now);
                self.channel.set_blockage_gain(gain);
            }

            // Modulate, fly, decide.
            let Ok((_, slots)) = self.tx.build_frame(seq, &data) else {
                // Degenerate dimming level: hold the light and idle for a
                // sense interval (no data can flow at l ~ 0 or ~ 1).
                now += self.cfg.sense_interval;
                continue;
            };
            // Reused buffers: take them out of self for the duration of
            // the borrow-heavy stretch, hand them back at the bottom.
            let mut air = std::mem::take(&mut self.air_buf);
            air.clear();
            self.tx
                .idle_filler_into(self.cfg.interframe_gap_slots, &mut air);
            air.extend_from_slice(&slots);
            let mut decided = std::mem::take(&mut self.decided_buf);
            self.fly_into(&air, &mut decided);
            stats.frames_sent += 1;
            stats.slots_sent += air.len() as u64;
            let airtime = tslot * air.len() as u64;
            self.tracker.ensure_timeout_covers(airtime);
            let rx_done = now + airtime;

            // Chaos mode: timing faults mutate the *received* stream —
            // clock drift and slips insert or delete slots.
            if chaos {
                let slip = self.cfg.faults.slip_slots_between(now, rx_done, tslot_s);
                self.apply_slip(&mut decided, slip);
            }

            // Receive.
            let mut got_ok = false;
            for ev in self.rx.push_slots(&decided) {
                match ev {
                    RxEvent::Frame {
                        frame,
                        stats: fstats,
                        ..
                    } => {
                        got_ok = true;
                        stats.frames_ok += 1;
                        fec_corrected_symbols += fstats.fec_corrected as u64;
                        if first_clean_after_fault.is_none()
                            && recovery_from.is_some_and(|end| rx_done >= end)
                        {
                            first_clean_after_fault = Some(rx_done);
                            obs::event(rx_done, obs::key!("link.run.first_clean_after_fault"), 1);
                        }
                        if let Some((hdr, body)) = MacHeader::decapsulate(&frame.payload) {
                            // ACK over the side channel (which the fault
                            // plan may drop, duplicate, or delay — on top
                            // of the channel's own loss and jitter).
                            self.send_ack(rx_done, hdr.seq);
                            if delivered.insert(hdr.seq) {
                                stats.payload_bytes_acked += body.len() as u64;
                                recorder.record(rx_done, body.len() as u64 * 8);
                                src.on_delivered(rx_done, body);
                            }
                        }
                    }
                    RxEvent::CrcFailed { stats: fstats, .. } => {
                        stats.frames_crc_fail += 1;
                        fec_corrected_symbols += fstats.fec_corrected as u64;
                        fec_decode_failures += u64::from(fstats.fec_failed_codewords > 0);
                    }
                }
            }
            if self.rx.poll_resync().is_err() {
                // The bounded resync budget ran out; the receiver re-arms
                // and keeps hunting. Count it — a run may overrun many
                // times under a long blackout without ever panicking.
                resync_overruns += 1;
            }
            if !got_ok && stats.frames_sent > 0 {
                // Neither clean nor CRC-failed: preamble/header never
                // locked (deep-fade region of Fig. 16).
                stats.frames_lost += 1;
            }
            self.air_buf = air;
            self.decided_buf = decided;
            now = rx_done;
        }

        stats.adaptation_steps = self.tx.smart_adaptation.adjustments;
        obs::counter_add(obs::key!("link.run.completed"), 1);
        // Simulated (virtual-clock) run length — deterministic, unlike any
        // wall-clock timing, so it is safe to snapshot.
        obs::observe(obs::key!("link.run.sim_ns"), self.cfg.duration.as_nanos());
        let duration_s = self.cfg.duration.as_secs_f64();
        let recovery = RecoveryReport {
            sync_losses: self.rx.sync_losses,
            resync_overruns,
            resync_time_s: match (recovery_from, first_clean_after_fault) {
                (Some(end), Some(first)) => Some(
                    first
                        .checked_duration_since(end)
                        .map_or(0.0, |d| d.as_secs_f64()),
                ),
                _ => None,
            },
            late_deliveries: self.tracker.late_deliveries,
            frames_abandoned: self.tracker.abandoned,
            seq_collisions: self.tracker.seq_collisions,
            max_degrade_tier: self.tx.degrade.max_tier,
            tier_escalations: self.tx.degrade.escalations,
            tier_recoveries: self.tx.degrade.recoveries,
            fec_corrected_symbols,
            fec_decode_failures,
            fec_overhead_ratio: self.tx.fec_overhead_ratio(),
        };
        // Telemetry: only a coded run emits the fec.* gauge, so fec-off
        // snapshots stay byte-identical to the pre-FEC pipeline's.
        if self.tx.current_fec() != FecMode::Off || recovery.fec_corrected_symbols > 0 {
            obs::gauge_set(obs::key!("fec.overhead_ratio"), recovery.fec_overhead_ratio);
        }
        LinkReport {
            // Duration-aware mean: idle time after the last delivery counts
            // as zero-throughput time (see ThroughputRecorder::mean_bps_over).
            mean_goodput_bps: recorder.mean_bps_over(self.cfg.duration),
            // Drop a trailing partial bucket: its bits/s would read low
            // only because the run ended mid-second.
            throughput_bps: recorder
                .series_bps()
                .iter()
                .filter(|&&(t, _)| t.as_secs_f64() + 1.0 <= duration_s + 1e-9)
                .map(|&(t, bps)| (t.as_secs_f64(), bps))
                .collect(),
            stats,
            trace,
            adaptation,
            duration_s,
            recovery,
        }
    }

    /// Send one ACK through the side channel, applying any scheduled
    /// uplink impairment (loss, duplication, extra delay) on top of the
    /// channel's own behavior.
    fn send_ack(&mut self, at: SimTime, seq: u16) {
        let st = if self.cfg.faults.is_empty() {
            UplinkFaultState::CLEAR
        } else {
            self.cfg.faults.uplink_state_at(at)
        };
        if st.loss_prob > 0.0 && self.fault_rng.chance(st.loss_prob) {
            return; // eaten by the impaired uplink
        }
        let at = at + st.extra_delay;
        self.wifi.send(at, UplinkMsg::Ack { seq });
        if st.dup_prob > 0.0 && self.fault_rng.chance(st.dup_prob) {
            self.wifi.send(at, UplinkMsg::Ack { seq });
        }
    }

    /// Mutate a decided slot stream for a timing fault: `slip > 0`
    /// inserts that many garbage slots at the front (the receiver sees
    /// extra slots it cannot frame), `slip < 0` deletes from the front
    /// (slots the receiver never saw).
    fn apply_slip(&mut self, decided: &mut Vec<bool>, slip: i64) {
        if slip > 0 {
            let n = (slip as usize).min(1 << 20); // sanity bound
            let mut garbage: Vec<bool> = (0..n).map(|_| self.fault_rng.chance(0.5)).collect();
            garbage.extend(decided.iter().copied());
            *decided = garbage;
        } else if slip < 0 {
            let n = slip.unsigned_abs() as usize;
            if n >= decided.len() {
                decided.clear();
            } else {
                decided.drain(..n);
            }
        }
    }

    /// Fly a slot stream through the channel into a reused output buffer.
    ///
    /// The per-frame `analytic_error_probs` query is served from the
    /// channel's operating-point memo — it recomputes only when the sense
    /// tick, shadowing, or fault replay actually changed the channel state
    /// since the previous frame.
    fn fly_into(&mut self, slots: &[bool], out: &mut Vec<bool>) {
        match self.cfg.fidelity {
            ChannelFidelity::Sampled => {
                self.channel
                    .transmit_and_decide_into(slots, &mut self.rx_scratch);
                out.clear();
                std::mem::swap(out, &mut self.rx_scratch.decided);
            }
            ChannelFidelity::SlotIid => {
                self.channel
                    .analytic_error_probs()
                    .flip_into(&mut self.rng, slots, out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlc_channel::ambient::{BlindRamp, ConstantAmbient};

    fn short_static(distance: f64, scheme: SchemeKind) -> LinkReport {
        let mut cfg = LinkConfig::paper_static(distance, scheme, 42);
        cfg.duration = SimDuration::millis(500);
        let mut sim = LinkSimulation::new(cfg).unwrap();
        sim.run(&mut ConstantAmbient { lux: 5000.0 })
    }

    #[test]
    fn healthy_link_delivers_frames() {
        let r = short_static(3.0, SchemeKind::Amppm);
        assert!(r.stats.frames_sent > 10, "{:?}", r.stats);
        assert!(r.stats.frame_error_rate() < 0.3, "{:?}", r.stats);
        assert!(r.mean_goodput_bps > 50_000.0, "{}", r.mean_goodput_bps);
        assert!(r.stats.acks_received > 0);
    }

    #[test]
    fn dead_link_delivers_nothing() {
        let r = short_static(6.0, SchemeKind::Amppm);
        assert_eq!(r.stats.frames_ok, 0, "{:?}", r.stats);
        assert_eq!(r.mean_goodput_bps, 0.0);
    }

    #[test]
    fn amppm_beats_baselines_off_center() {
        // Ambient 5000 lux -> LED at 0.5... use dimmer ambient for an
        // off-center level where AMPPM's advantage shows.
        let run = |scheme| {
            let mut cfg = LinkConfig::paper_static(3.0, scheme, 7);
            cfg.duration = SimDuration::millis(500);
            let mut sim = LinkSimulation::new(cfg).unwrap();
            sim.run(&mut ConstantAmbient { lux: 8500.0 }) // LED at 0.15
                .mean_goodput_bps
        };
        let amppm = run(SchemeKind::Amppm);
        let mppm = run(SchemeKind::Mppm(20));
        let ook = run(SchemeKind::OokCt);
        let vppm = run(SchemeKind::Vppm(10));
        assert!(amppm > mppm, "amppm={amppm} mppm={mppm}");
        assert!(mppm > ook, "mppm={mppm} ook={ook}");
        assert!(ook > vppm * 0.8, "ook={ook} vppm={vppm}");
    }

    #[test]
    fn sampled_and_iid_fidelity_agree_on_goodput() {
        let mk = |fidelity| {
            let mut cfg = LinkConfig::paper_static(3.0, SchemeKind::Amppm, 11);
            cfg.duration = SimDuration::millis(300);
            cfg.fidelity = fidelity;
            let mut sim = LinkSimulation::new(cfg).unwrap();
            sim.run(&mut ConstantAmbient { lux: 5000.0 })
                .mean_goodput_bps
        };
        let sampled = mk(ChannelFidelity::Sampled);
        let iid = mk(ChannelFidelity::SlotIid);
        let ratio = sampled / iid;
        assert!(
            (0.85..=1.15).contains(&ratio),
            "sampled={sampled} iid={iid}"
        );
    }

    #[test]
    fn dynamic_run_traces_lighting_goals() {
        let mut cfg = LinkConfig::paper_static(3.0, SchemeKind::Amppm, 5);
        cfg.duration = SimDuration::secs(4);
        let mut sim = LinkSimulation::new(cfg).unwrap();
        let mut ramp = BlindRamp::linearized(500.0, 8000.0, 4.0);
        let r = sim.run(&mut ramp);
        assert!(r.trace.len() >= 10);
        // Goal 1: ambient + LED stays ~ constant at the set-point.
        for p in &r.trace[1..] {
            let sum = p.ambient + p.led;
            assert!((sum - 1.0).abs() < 0.05, "t={} sum={sum}", p.t_s);
        }
        // LED dims as ambient brightens.
        assert!(r.trace.last().unwrap().led < r.trace[1].led);
        // Fig. 19(c): fixed stepper needs more adjustments.
        let (_, smart, fixed) = *r.adaptation.last().unwrap();
        assert!(fixed > smart, "smart={smart} fixed={fixed}");
        assert!(smart > 0);
    }

    #[test]
    fn bad_front_end_configs_are_errors_not_panics() {
        let bad: [fn(&mut ChannelConfig); 6] = [
            |c| c.samples_per_slot = 1,
            |c| c.tslot_s = 0.0,
            |c| c.tslot_s = f64::NAN,
            |c| c.frontend.adc_bits = 0,
            |c| c.frontend.adc_bits = 17,
            |c| c.frontend.adc_bits = 64,
        ];
        for (i, f) in bad.into_iter().enumerate() {
            let mut cfg = LinkConfig::paper_static(3.0, SchemeKind::Amppm, 1);
            cfg.fidelity = ChannelFidelity::Sampled;
            f(&mut cfg.channel);
            assert!(
                matches!(LinkSimulation::new(cfg), Err(LinkError::Config(_))),
                "bad config {i} accepted"
            );
        }
    }

    #[test]
    fn deterministic_runs() {
        let a = short_static(3.3, SchemeKind::Amppm);
        let b = short_static(3.3, SchemeKind::Amppm);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.mean_goodput_bps, b.mean_goodput_bps);
    }

    #[test]
    fn lossy_link_retransmits() {
        let mut cfg = LinkConfig::paper_static(3.95, SchemeKind::Amppm, 13);
        cfg.duration = SimDuration::secs(1);
        let mut sim = LinkSimulation::new(cfg).unwrap();
        let r = sim.run(&mut ConstantAmbient { lux: 8500.0 });
        assert!(
            r.stats.frames_crc_fail + r.stats.frames_lost > 0,
            "{:?}",
            r.stats
        );
        assert!(r.stats.retransmissions > 0, "{:?}", r.stats);
        // Still makes some forward progress at 3.95 m.
        assert!(r.stats.frames_ok > 0, "{:?}", r.stats);
    }
}

#[cfg(test)]
mod uplink_report_tests {
    use super::*;
    use vlc_channel::ambient::BlindRamp;

    fn run(reports: bool) -> LinkReport {
        let mut cfg = LinkConfig::paper_static(3.0, SchemeKind::Amppm, 77);
        cfg.duration = SimDuration::secs(2);
        cfg.rx_ambient_reports = reports;
        let mut sim = LinkSimulation::new(cfg).unwrap();
        sim.run(&mut BlindRamp::linearized(1000.0, 7000.0, 2.0))
    }

    #[test]
    fn rx_reports_drive_the_transmitter() {
        let with = run(true);
        let without = run(false);
        // The 2% receiver sensor noise must be visible in the adaptation
        // trajectory (extra micro-corrections), proving the report path
        // is live...
        assert!(
            with.stats.adaptation_steps != without.stats.adaptation_steps
                || with
                    .trace
                    .iter()
                    .zip(&without.trace)
                    .any(|(a, b)| a.led != b.led),
            "reports had no effect"
        );
        // ...while Goal 1 still holds under report delay and noise.
        for p in &with.trace[1..] {
            assert!((p.ambient + p.led - 1.0).abs() < 0.06, "{p:?}");
        }
        // And throughput is not materially hurt.
        assert!(with.mean_goodput_bps > 0.85 * without.mean_goodput_bps);
    }
}

#[cfg(test)]
mod shadowing_tests {
    use super::*;
    use vlc_channel::ambient::ConstantAmbient;
    use vlc_channel::shadowing::ShadowingModel;

    #[test]
    fn arq_recovers_from_blockage() {
        // A pathological walkway: blocked ~25% of the time in short
        // bursts. Frames in the shadow die; the ARQ retransmits them and
        // unique data still gets through.
        let mut cfg = LinkConfig::paper_static(3.0, SchemeKind::Amppm, 21);
        cfg.duration = SimDuration::secs(3);
        cfg.shadowing = Some(ShadowingModel {
            mean_clear_s: 0.3,
            mean_blocked_s: 0.1,
            blocked_gain: 0.001,
        });
        let mut sim = LinkSimulation::new(cfg.clone()).unwrap();
        let shadowed = sim.run(&mut ConstantAmbient { lux: 5000.0 });

        cfg.shadowing = None;
        let mut sim = LinkSimulation::new(cfg).unwrap();
        let clear = sim.run(&mut ConstantAmbient { lux: 5000.0 });

        // Blockage visibly hurts...
        assert!(
            shadowed.stats.frames_lost + shadowed.stats.frames_crc_fail > 10,
            "{:?}",
            shadowed.stats
        );
        assert!(shadowed.stats.retransmissions > 5, "{:?}", shadowed.stats);
        assert!(shadowed.mean_goodput_bps < 0.9 * clear.mean_goodput_bps);
        // ...but the link keeps working between shadows.
        assert!(
            shadowed.mean_goodput_bps > 0.3 * clear.mean_goodput_bps,
            "shadowed {} vs clear {}",
            shadowed.mean_goodput_bps,
            clear.mean_goodput_bps
        );
    }
}

#[cfg(test)]
mod vlc_uplink_link_tests {
    use super::*;
    use vlc_channel::ambient::ConstantAmbient;

    fn run(uplink: UplinkKind, distance: f64) -> LinkReport {
        let mut cfg = LinkConfig::paper_static(distance, SchemeKind::Amppm, 33);
        cfg.duration = SimDuration::secs(1);
        cfg.uplink = uplink;
        let mut sim = LinkSimulation::new(cfg).unwrap();
        sim.run(&mut ConstantAmbient { lux: 5000.0 })
    }

    #[test]
    fn vlc_uplink_matches_wifi_at_arms_length() {
        // At 0.5 m both uplinks deliver every ACK; goodput is identical
        // modulo ACK-timing noise.
        let wifi = run(UplinkKind::Wifi, 0.5);
        let vlc = run(UplinkKind::Vlc { tx_optical_w: 0.35 }, 0.5);
        assert!(vlc.stats.acks_received > 0);
        assert!(
            (vlc.mean_goodput_bps / wifi.mean_goodput_bps - 1.0).abs() < 0.1,
            "wifi={} vlc={}",
            wifi.mean_goodput_bps,
            vlc.mean_goodput_bps
        );
    }

    #[test]
    fn vlc_uplink_collapses_the_mac_at_3m() {
        // Footnote 2 at the system level: the downlink still decodes at
        // 3 m, but with no ACKs coming back the MAC burns its retries on
        // every frame and abandons them.
        let wifi = run(UplinkKind::Wifi, 3.0);
        let vlc = run(UplinkKind::Vlc { tx_optical_w: 0.35 }, 3.0);
        assert!(vlc.stats.frames_ok > 0, "downlink itself still works");
        assert_eq!(vlc.stats.acks_received, 0, "{:?}", vlc.stats);
        assert!(vlc.stats.retransmissions > wifi.stats.retransmissions * 5);
        // Unique acked goodput collapses even though frames decode.
        assert!(vlc.mean_goodput_bps < 0.5 * wifi.mean_goodput_bps);
    }
}
