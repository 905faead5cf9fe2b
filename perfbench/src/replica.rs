//! A span-timed replica of `LinkSimulation::run_traffic`.
//!
//! The library's frame loop is one function, so the benchmark cannot time
//! its layers from outside. This replica rebuilds the same loop from the
//! crates' public parts — `Transmitter`, `OpticalChannel`, `Receiver`,
//! `AckTracker`, the Wi-Fi side channel and a `TrafficSource` — forking
//! every RNG stream under the same labels, so a run reproduces the
//! library's `LinkStats` bit for bit (the traced run checks that). Each
//! call into a layer is wrapped in a span; time between spans (loop glue,
//! bookkeeping) is left unattributed on purpose.

use desim::{DetRng, SimDuration, SimTime};
use smartvlc_core::frame::format::{FecMode, PatternDescriptor};
use smartvlc_link::link::TRAFFIC_IDLE_STEP;
use smartvlc_link::uplink::UplinkMsg;
use smartvlc_link::{
    AckTracker, ChannelFidelity, LinkConfig, LinkStats, MacHeader, Receiver, RxEvent,
    TrafficSource, Transmitter, UplinkKind,
};
use std::collections::{HashMap, HashSet};
use std::time::Instant;
use vlc_channel::ambient::{AmbientProfile, ConstantAmbient};
use vlc_channel::faults::UplinkFaultState;
use vlc_channel::link::{OpticalChannel, RxScratch};
use vlc_hw::wifi::WifiSideChannel;

/// The spans the replica records, one per layer boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// Building the transmitter, receiver, channel and MAC.
    Setup,
    /// Ambient sensing and LED adaptation (`Transmitter::update_ambient`).
    Sense,
    /// ARQ bookkeeping: side-channel delivery, ACKs, timeouts, retries.
    Mac,
    /// The datagram layer's `TrafficSource` hooks (`NetOverLink`).
    NetSource,
    /// The saturating random-payload source of the plain link workloads.
    RandomSource,
    /// `Transmitter::build_frame`: planner, codeword codec, framing, FEC.
    BuildFrame,
    /// `Transmitter::idle_filler_into`.
    Filler,
    /// `OpticalChannel::transmit_and_decide_into` (sampled fidelity).
    ChannelSampled,
    /// `analytic_error_probs` plus one `DetRng::chance` per slot.
    ChannelIid,
    /// `Receiver::push_slots`.
    RxPush,
    /// `Receiver::poll_resync`.
    RxResync,
}

impl Span {
    /// Every span, in report order.
    pub const ALL: [Span; 11] = [
        Span::Setup,
        Span::Sense,
        Span::Mac,
        Span::NetSource,
        Span::RandomSource,
        Span::BuildFrame,
        Span::Filler,
        Span::ChannelSampled,
        Span::ChannelIid,
        Span::RxPush,
        Span::RxResync,
    ];

    /// Stable span name (the layer metric prefix).
    pub fn name(self) -> &'static str {
        match self {
            Span::Setup => "link.setup",
            Span::Sense => "tx.sense",
            Span::Mac => "mac",
            Span::NetSource => "net.source",
            Span::RandomSource => "traffic.random",
            Span::BuildFrame => "tx.build_frame",
            Span::Filler => "tx.idle_filler",
            Span::ChannelSampled => "channel.sampled",
            Span::ChannelIid => "channel.iid",
            Span::RxPush => "rx.push_slots",
            Span::RxResync => "rx.resync",
        }
    }
}

/// Span self times and the work counts the per-layer ratios divide by.
#[derive(Clone, Debug, Default)]
pub struct LinkTrace {
    /// Nanoseconds per span, indexed like [`Span::ALL`].
    pub ns: [u64; Span::ALL.len()],
    /// Frames put on the air (retransmissions included).
    pub frames_sent: u64,
    /// Frames carrying fresh source data (not retransmissions).
    pub fresh_frames: u64,
    /// Retransmissions.
    pub retransmissions: u64,
    /// Frames the receiver decoded with a clean CRC.
    pub frames_ok: u64,
    /// Slots `build_frame` emitted.
    pub built_slots: u64,
    /// Slots flown through the sampled channel.
    pub sampled_slots: u64,
    /// Slots flown through the slot-i.i.d. channel.
    pub iid_slots: u64,
    /// Decided slots pushed into the receiver.
    pub pushed_slots: u64,
    /// Symbol errors the outer code corrected.
    pub fec_corrected: u64,
    /// Operating-point cache hits/misses of the replicas' channels.
    pub opcache_hits: u64,
    /// See `opcache_hits`.
    pub opcache_misses: u64,
    /// Payload + CRC block sizes of coded fresh frames, bytes.
    pub fec_blocks: Vec<usize>,
    /// Frames built per pattern descriptor.
    pub patterns: Vec<(PatternDescriptor, u64)>,
}

impl LinkTrace {
    fn add(&mut self, span: Span, since: Instant) {
        self.ns[span as usize] += since.elapsed().as_nanos() as u64;
    }

    /// Nanoseconds recorded under `span`.
    pub fn span_ns(&self, span: Span) -> u64 {
        self.ns[span as usize]
    }

    /// Fold another task's trace into this one.
    pub fn merge(&mut self, o: &LinkTrace) {
        for (a, b) in self.ns.iter_mut().zip(o.ns) {
            *a += b;
        }
        self.frames_sent += o.frames_sent;
        self.fresh_frames += o.fresh_frames;
        self.retransmissions += o.retransmissions;
        self.frames_ok += o.frames_ok;
        self.built_slots += o.built_slots;
        self.sampled_slots += o.sampled_slots;
        self.iid_slots += o.iid_slots;
        self.pushed_slots += o.pushed_slots;
        self.fec_corrected += o.fec_corrected;
        self.opcache_hits += o.opcache_hits;
        self.opcache_misses += o.opcache_misses;
        self.fec_blocks.extend_from_slice(&o.fec_blocks);
        for &(d, n) in &o.patterns {
            self.count_pattern(d, n);
        }
    }

    fn count_pattern(&mut self, d: PatternDescriptor, n: u64) {
        match self.patterns.iter_mut().find(|(p, _)| *p == d) {
            Some((_, c)) => *c += n,
            None => self.patterns.push((d, n)),
        }
    }
}

/// At most this many FEC block sizes are kept per task: enough to
/// reproduce the mix's size distribution in the FEC call measurement.
const MAX_FEC_BLOCKS: usize = 256;

/// Run one link scenario under constant ambient `lux`, pulling frames
/// from `src`, and record spans into `tr`. `src_span` names the span the
/// source's hooks are charged to. Returns the run's `LinkStats`, which
/// must equal `LinkSimulation::run_traffic`'s on the same inputs.
pub fn run_link(
    cfg: &LinkConfig,
    lux: f64,
    src: &mut dyn TrafficSource,
    src_span: Span,
    tr: &mut LinkTrace,
) -> LinkStats {
    // The workloads fly no shadowing and use the Wi-Fi uplink; those are
    // the only branches of the library loop this replica leaves out.
    assert!(cfg.shadowing.is_none() && cfg.uplink == UplinkKind::Wifi);
    // Construction, in the library's fork order and labels.
    let t = Instant::now();
    let root = DetRng::seed_from_u64(cfg.seed);
    let fec = if smartvlc_fec::enabled_from_env() {
        cfg.fec
    } else {
        FecMode::Off
    };
    let mut tx = Transmitter::new(
        cfg.sys.clone(),
        cfg.scheme,
        cfg.illum_target,
        0.0,
        cfg.fixed_step_floor,
        fec,
        root.fork("tx-payload"),
    )
    .expect("workload configs are valid");
    let mut rx = Receiver::new(cfg.sys.clone()).expect("workload configs are valid");
    rx.set_accept_fec(fec != FecMode::Off);
    let mut channel = OpticalChannel::new(cfg.channel, root.fork("channel"));
    let mut tracker = AckTracker::with_backoff(cfg.ack_timeout, cfg.max_retries, root.fork("mac"));
    let mut wifi: WifiSideChannel<UplinkMsg> = WifiSideChannel::esp8266(root.fork("wifi"));
    let mut rng = root.fork("link");
    let mut rx_sensor_rng = root.fork("rx-sensor");
    let mut fault_rng = root.fork("faults");
    let mut ambient = ConstantAmbient { lux };
    let mut payload_store: HashMap<u16, Vec<u8>> = HashMap::new();
    let mut rx_ambient: Option<(SimTime, f64)> = None;
    let mut ambient_ema: Option<f64> = None;
    let mut air: Vec<bool> = Vec::new();
    let mut decided: Vec<bool> = Vec::new();
    let mut scratch = RxScratch::new();
    tr.add(Span::Setup, t);

    let tslot = SimDuration::nanos(cfg.sys.tslot_nanos());
    let tslot_s = tslot.as_secs_f64();
    let end = SimTime::ZERO + cfg.duration;
    let chaos = !cfg.faults.is_empty();
    let mut now = SimTime::ZERO;
    let mut next_sense = SimTime::ZERO;
    let mut stats = LinkStats::default();
    let mut delivered_seqs: HashSet<u16> = HashSet::new();

    while now < end {
        if chaos {
            channel.set_fault_state(cfg.faults.channel_state_at(now));
        }
        if now >= next_sense {
            let t = Instant::now();
            let lux = ambient.lux_at(now);
            channel.set_ambient_lux(lux);
            if cfg.rx_ambient_reports {
                let measured = (lux * (1.0 + rx_sensor_rng.next_normal(0.0, 0.005))).max(0.0);
                wifi.send(now, UplinkMsg::AmbientReport { lux: measured });
            }
            let fresh_window = cfg.sense_interval * 3;
            let effective_lux = match rx_ambient {
                Some((at, rx_lux))
                    if now
                        .checked_duration_since(at)
                        .is_some_and(|d| d <= fresh_window) =>
                {
                    rx_lux
                }
                _ => lux,
            };
            let ema = match ambient_ema {
                Some(prev) => prev + 0.25 * (effective_lux - prev),
                None => effective_lux,
            };
            ambient_ema = Some(ema);
            tx.update_ambient((ema / cfg.full_scale_lux).clamp(0.0, 1.0));
            next_sense += cfg.sense_interval;
            tr.add(Span::Sense, t);
        }

        let t = Instant::now();
        for msg in wifi.deliver_due(now) {
            match msg {
                UplinkMsg::Ack { seq } => {
                    if tracker.on_ack(seq).is_some() {
                        payload_store.remove(&seq);
                        tx.degrade.record_outcome(true);
                    }
                    stats.acks_received += 1;
                }
                UplinkMsg::AmbientReport { lux } => rx_ambient = Some((now, lux)),
            }
        }
        let scan = tracker.scan_timeouts(now);
        let mut abandoned = Vec::new();
        for &seq in &scan.abandoned_seqs {
            if let Some(data) = payload_store.remove(&seq) {
                abandoned.push(data);
            }
        }
        stats.frames_abandoned += scan.abandoned() as u64;
        for _ in 0..scan.failures() {
            tx.degrade.record_outcome(false);
        }
        let retry = tracker.next_retry();
        tr.add(Span::Mac, t);

        let t = Instant::now();
        for data in &abandoned {
            src.on_abandoned(now, data);
        }
        src.on_tick(now);
        tr.add(src_span, t);

        let (seq, data, is_retry) = match retry {
            Some(seq) => {
                let t = Instant::now();
                let picked = payload_store.get(&seq).cloned();
                if picked.is_some() {
                    tracker.register_retry(seq, now);
                }
                tr.add(Span::Mac, t);
                match picked {
                    Some(data) => (seq, data, true),
                    None => {
                        stats.retry_state_missing += 1;
                        continue;
                    }
                }
            }
            None => {
                let t = Instant::now();
                let next = src.next_data(now, &mut tx);
                tr.add(src_span, t);
                let Some(data) = next else {
                    now += TRAFFIC_IDLE_STEP;
                    continue;
                };
                let t = Instant::now();
                let registered = tracker.register_new(now, data.len());
                if let Ok(seq) = registered {
                    payload_store.insert(seq, data.clone());
                }
                tr.add(Span::Mac, t);
                match registered {
                    Ok(seq) => (seq, data, false),
                    Err(_) => {
                        now += cfg.ack_timeout;
                        continue;
                    }
                }
            }
        };
        if is_retry {
            stats.retransmissions += 1;
        } else {
            tr.fresh_frames += 1;
            if fec != FecMode::Off && tr.fec_blocks.len() < MAX_FEC_BLOCKS {
                // MAC header + data + CRC-16: the block the outer code sees.
                tr.fec_blocks.push(MacHeader::WIRE_BYTES + data.len() + 2);
            }
        }

        let t = Instant::now();
        let built = tx.build_frame(seq, &data);
        tr.add(Span::BuildFrame, t);
        let Ok((frame, slots)) = built else {
            now += cfg.sense_interval;
            continue;
        };
        tr.built_slots += slots.len() as u64;
        tr.count_pattern(frame.header.pattern, 1);

        let t = Instant::now();
        air.clear();
        tx.idle_filler_into(cfg.interframe_gap_slots, &mut air);
        air.extend_from_slice(&slots);
        tr.add(Span::Filler, t);

        let t = Instant::now();
        match cfg.fidelity {
            ChannelFidelity::Sampled => {
                channel.transmit_and_decide_into(&air, &mut scratch);
                decided.clear();
                std::mem::swap(&mut decided, &mut scratch.decided);
                tr.add(Span::ChannelSampled, t);
                tr.sampled_slots += air.len() as u64;
            }
            ChannelFidelity::SlotIid => {
                let probs = channel.analytic_error_probs();
                decided.clear();
                decided.reserve(air.len());
                for &s in &air {
                    let p = if s {
                        probs.p_on_error
                    } else {
                        probs.p_off_error
                    };
                    decided.push(if rng.chance(p) { !s } else { s });
                }
                tr.add(Span::ChannelIid, t);
                tr.iid_slots += air.len() as u64;
            }
        }
        stats.frames_sent += 1;
        stats.slots_sent += air.len() as u64;
        let airtime = tslot * air.len() as u64;
        tracker.ensure_timeout_covers(airtime);
        let rx_done = now + airtime;

        if chaos {
            let slip = cfg.faults.slip_slots_between(now, rx_done, tslot_s);
            apply_slip(&mut decided, slip, &mut fault_rng);
        }

        let t = Instant::now();
        let events = rx.push_slots(&decided);
        tr.add(Span::RxPush, t);
        tr.pushed_slots += decided.len() as u64;

        let mut got_ok = false;
        for ev in events {
            match ev {
                RxEvent::Frame {
                    frame,
                    stats: fstats,
                    ..
                } => {
                    got_ok = true;
                    stats.frames_ok += 1;
                    tr.fec_corrected += fstats.fec_corrected as u64;
                    let t = Instant::now();
                    let body = MacHeader::decapsulate(&frame.payload).map(|(hdr, body)| {
                        send_ack(cfg, &mut wifi, &mut fault_rng, rx_done, hdr.seq);
                        (delivered_seqs.insert(hdr.seq), body)
                    });
                    tr.add(Span::Mac, t);
                    if let Some((true, body)) = body {
                        stats.payload_bytes_acked += body.len() as u64;
                        let t = Instant::now();
                        src.on_delivered(rx_done, body);
                        tr.add(src_span, t);
                    }
                }
                RxEvent::CrcFailed { stats: fstats, .. } => {
                    stats.frames_crc_fail += 1;
                    tr.fec_corrected += fstats.fec_corrected as u64;
                }
            }
        }
        let t = Instant::now();
        // An overrun re-arms the receiver; the library only counts it.
        let _ = rx.poll_resync();
        tr.add(Span::RxResync, t);
        if !got_ok {
            stats.frames_lost += 1;
        }
        now = rx_done;
    }
    stats.adaptation_steps = tx.smart_adaptation.adjustments;
    tr.frames_sent += stats.frames_sent;
    tr.retransmissions += stats.retransmissions;
    tr.frames_ok += stats.frames_ok;
    tr.opcache_hits += channel.op_cache().hits();
    tr.opcache_misses += channel.op_cache().misses();
    stats
}

/// `LinkSimulation::send_ack`: one ACK through the side channel, with any
/// scheduled uplink impairment applied.
fn send_ack(
    cfg: &LinkConfig,
    wifi: &mut WifiSideChannel<UplinkMsg>,
    fault_rng: &mut DetRng,
    at: SimTime,
    seq: u16,
) {
    let st = if cfg.faults.is_empty() {
        UplinkFaultState::CLEAR
    } else {
        cfg.faults.uplink_state_at(at)
    };
    if st.loss_prob > 0.0 && fault_rng.chance(st.loss_prob) {
        return;
    }
    let at = at + st.extra_delay;
    wifi.send(at, UplinkMsg::Ack { seq });
    if st.dup_prob > 0.0 && fault_rng.chance(st.dup_prob) {
        wifi.send(at, UplinkMsg::Ack { seq });
    }
}

/// `LinkSimulation::apply_slip`: a timing fault inserts garbage slots at
/// the front of the received stream (`slip > 0`) or deletes slots.
fn apply_slip(decided: &mut Vec<bool>, slip: i64, fault_rng: &mut DetRng) {
    if slip > 0 {
        let n = (slip as usize).min(1 << 20);
        let mut garbage: Vec<bool> = (0..n).map(|_| fault_rng.chance(0.5)).collect();
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
