//! The receiver state machine: preamble scan → frame parse → ACK
//! decision.
//!
//! [`Receiver`] consumes an unsegmented stream of decided slots (idle
//! filler, frames, noise — whatever the light carried), locks onto
//! preambles, and parses frames with the shared [`FrameCodec`]. Frames
//! with a clean CRC produce [`RxEvent::Frame`]; corrupted ones produce
//! [`RxEvent::CrcFailed`] and are dropped without an ACK, exactly as
//! §6.1 describes.

#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::expect_used,
        clippy::unwrap_used,
        clippy::panic
    )
)]

use crate::error::LinkError;
use smartvlc_obs as obs;

use smartvlc_core::frame::codec::{
    FrameCodec, FrameCodecError, FrameStats, PREAMBLE_SLOTS, PREAMBLE_TOLERANCE, PREFIX_SLOTS,
};
use smartvlc_core::frame::format::Frame;
use smartvlc_core::SystemConfig;
use std::collections::VecDeque;

/// The alternating preamble as a window word: slot `i` of the window in
/// bit `PREAMBLE_SLOTS − 1 − i`, ON at even `i` (Table 1).
const PREAMBLE_WORD: u32 = {
    let mut w = 0;
    let mut i = 0;
    while i < PREAMBLE_SLOTS {
        w = (w << 1) | (i % 2 == 0) as u32;
        i += 1;
    }
    w
};

/// The window word's bits.
const WINDOW_MASK: u32 = u32::MAX >> (32 - PREAMBLE_SLOTS);

/// Slots to scan past before the first `PREAMBLE_SLOTS`-slot window of
/// `buf` that passes for a preamble (at most [`PREAMBLE_TOLERANCE`] slots
/// off the alternating pattern); with none, every start that still has a
/// full window behind it.
///
/// The window slides one slot per step as a word: shift the slot in,
/// XOR against [`PREAMBLE_WORD`], and clear the lowest set bit
/// `PREAMBLE_TOLERANCE` times, which leaves zero exactly when the
/// popcount is within the tolerance.
fn hunt(buf: &[bool]) -> usize {
    let Some((head, tail)) = buf.split_at_checked(PREAMBLE_SLOTS - 1) else {
        return 0;
    };
    let mut w = head.iter().fold(0u32, |w, &s| (w << 1) | u32::from(s));
    for (start, &s) in tail.iter().enumerate() {
        w = (w << 1) | u32::from(s);
        let mut off = (w ^ PREAMBLE_WORD) & WINDOW_MASK;
        for _ in 0..PREAMBLE_TOLERANCE {
            off &= off.wrapping_sub(1);
        }
        if off == 0 {
            return start;
        }
    }
    buf.len() + 1 - PREAMBLE_SLOTS
}

/// Where the receiver's clock stands relative to the slot stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncStatus {
    /// Start-up: no frame has ever been decoded.
    Acquiring,
    /// Frames are decoding; the preamble hunt is cheap and local.
    InSync,
    /// Synchronisation was lost (a long stretch of slots scanned without
    /// a single lock); the receiver is re-hunting within its budget.
    Hunting,
}

/// Something the receiver observed in the slot stream.
#[derive(Clone, Debug, PartialEq)]
pub enum RxEvent {
    /// A frame with a verified CRC.
    Frame {
        /// The parsed frame.
        frame: Frame,
        /// Receiver-side statistics.
        stats: FrameStats,
        /// Stream offset (slots since receiver start) of the frame start.
        at_slot: u64,
    },
    /// A frame structure was found but its CRC failed.
    CrcFailed {
        /// Receiver-side statistics (symbol failure counts etc.).
        stats: FrameStats,
        /// Stream offset of the frame start.
        at_slot: u64,
    },
}

/// Streaming frame receiver.
pub struct Receiver {
    codec: FrameCodec,
    buffer: VecDeque<bool>,
    /// Slots consumed from the stream so far (offset of buffer[0]).
    consumed: u64,
    /// Upper bound on a single frame's slot footprint; a "frame" whose
    /// claimed length implies more is treated as a false preamble lock.
    max_frame_slots: usize,
    /// Sync state machine (see [`SyncStatus`]).
    status: SyncStatus,
    /// Times the receiver fell from [`SyncStatus::InSync`] to
    /// [`SyncStatus::Hunting`].
    pub sync_losses: u64,
    /// Slots scanned past (without decoding a frame) since the last
    /// cleanly decoded frame.
    slots_since_frame: u64,
    /// Hunt cost of the most recent reacquisition: how many slots the
    /// receiver scanned between losing sync and the next clean frame.
    pub last_resync_slots: Option<u64>,
    /// Scan threshold beyond which an in-sync receiver declares loss.
    sync_loss_after: u64,
    /// Extra scan budget a hunting receiver gets before it reports
    /// [`LinkError::ResyncBudgetExhausted`] (and re-arms).
    resync_budget: u64,
    /// Scan depth at which the next budget overrun fires.
    next_overrun_at: u64,
    /// Latched budget overrun, reported once via [`Receiver::poll_resync`].
    overrun: Option<u64>,
}

impl Receiver {
    /// Build a receiver for the configuration.
    pub fn new(cfg: SystemConfig) -> Result<Receiver, FrameCodecError> {
        // Generous bound: the configured payload modulated by the least
        // efficient admissible scheme, plus fixed fields and margin.
        let max_frame_slots = (cfg.payload_len + 64) * 8 * 32;
        // Loss threshold: a couple of max-size frames' worth of scanning
        // without a single lock cannot happen on a healthy stream (the
        // inter-frame gap is tens of slots).
        let sync_loss_after = 2 * max_frame_slots as u64;
        let resync_budget = 8 * max_frame_slots as u64;
        Ok(Receiver {
            codec: FrameCodec::new(cfg).map_err(FrameCodecError::Plan)?,
            buffer: VecDeque::new(),
            consumed: 0,
            max_frame_slots,
            status: SyncStatus::Acquiring,
            sync_losses: 0,
            slots_since_frame: 0,
            last_resync_slots: None,
            sync_loss_after,
            resync_budget,
            next_overrun_at: u64::MAX,
            overrun: None,
        })
    }

    /// Current sync state.
    pub fn sync_status(&self) -> SyncStatus {
        self.status
    }

    /// Slots scanned without a decode since the last clean frame.
    pub fn slots_since_frame(&self) -> u64 {
        self.slots_since_frame
    }

    /// Report (once) that the bounded resync budget ran out. The hunt
    /// itself continues — the receiver never gives up, it just re-arms the
    /// budget — but the caller learns the link has been dark for a long
    /// time and can act (e.g. count it, reset state, degrade further).
    pub fn poll_resync(&mut self) -> Result<SyncStatus, LinkError> {
        match self.overrun.take() {
            Some(scanned_slots) => Err(LinkError::ResyncBudgetExhausted { scanned_slots }),
            None => Ok(self.status),
        }
    }

    /// Account `n` slots dropped in one go and run the sync state machine
    /// once.
    ///
    /// The checks are sequential, not exclusive: a single bulk scan (the
    /// bounded buffer dropping a flood in one go) can cross the loss
    /// threshold *and* the resync budget in the same call.
    fn note_scan(&mut self, n: u64) {
        self.slots_since_frame += n;
        obs::counter_add(obs::key!("link.rx.scan_skips"), n);
        if self.status == SyncStatus::InSync && self.slots_since_frame >= self.sync_loss_after {
            self.lose_sync();
        }
        if self.status == SyncStatus::Hunting && self.slots_since_frame >= self.next_overrun_at {
            self.overrun_at(self.slots_since_frame);
        }
    }

    /// Account `k` slots scanned past one at a time: the state `k` calls
    /// of `note_scan(1)` would leave, with one counter add.
    ///
    /// Between calls an in-sync receiver has `slots_since_frame <
    /// sync_loss_after` and a hunting one `slots_since_frame <
    /// next_overrun_at`, so unit steps meet each threshold exactly at
    /// the step that reaches it; a positive budget keeps any two
    /// overruns on distinct steps.
    fn note_skips(&mut self, k: u64) {
        if k == 0 {
            return;
        }
        obs::counter_add(obs::key!("link.rx.scan_skips"), k);
        let end = self.slots_since_frame + k;
        if self.status == SyncStatus::InSync && end >= self.sync_loss_after {
            self.lose_sync();
        }
        while self.status == SyncStatus::Hunting && end >= self.next_overrun_at {
            self.overrun_at(self.next_overrun_at);
        }
        self.slots_since_frame = end;
    }

    /// Fall from sync to hunting.
    fn lose_sync(&mut self) {
        self.status = SyncStatus::Hunting;
        self.sync_losses += 1;
        obs::counter_add(obs::key!("link.rx.sync_losses"), 1);
        // Budget measured from the last frame, not from wherever the
        // scan happened to stand when loss was declared.
        self.next_overrun_at = self.sync_loss_after + self.resync_budget;
    }

    /// Latch a budget overrun at scan depth `depth` and re-arm.
    fn overrun_at(&mut self, depth: u64) {
        self.overrun = Some(depth);
        self.next_overrun_at = depth + self.resync_budget;
        obs::counter_add(obs::key!("link.rx.resync_overruns"), 1);
    }

    /// A clean frame decoded: (re)enter sync.
    fn note_frame(&mut self) {
        if self.status == SyncStatus::Hunting {
            self.last_resync_slots = Some(self.slots_since_frame);
            // Resync search depth: slots hunted before a clean frame.
            obs::observe(
                obs::key!("link.rx.resync_depth_slots"),
                self.slots_since_frame,
            );
        }
        obs::counter_add(obs::key!("link.rx.frames_ok"), 1);
        self.status = SyncStatus::InSync;
        self.slots_since_frame = 0;
        self.next_overrun_at = u64::MAX;
        self.overrun = None;
    }

    fn pop_front(&mut self, n: usize) {
        self.buffer.drain(..n.min(self.buffer.len()));
        self.consumed += n as u64;
    }

    /// Feed decided slots; returns any frames completed by this input.
    pub fn push_slots(&mut self, slots: &[bool]) -> Vec<RxEvent> {
        self.buffer.extend(slots.iter().copied());
        // Bounded memory: anything older than one max-size frame plus its
        // prefix can never complete a parse — a flood of garbage (or a
        // saturated front end) must not grow the buffer without bound.
        let cap = self.max_frame_slots + PREFIX_SLOTS;
        if self.buffer.len() > cap {
            let drop = self.buffer.len() - cap;
            self.pop_front(drop);
            self.note_scan(drop as u64);
        }
        let mut events = Vec::new();
        loop {
            // Hunt for a preamble at the front of the buffer.
            let skip = hunt(self.buffer.make_contiguous());
            self.pop_front(skip);
            self.note_skips(skip as u64);
            if self.buffer.len() < PREFIX_SLOTS + 2 {
                return events; // need more input
            }
            // `make_contiguous` rotates in place (amortized free: the
            // buffer is drained from the front and refilled at the back,
            // so it is usually already contiguous) — no per-parse copy.
            match self.codec.parse(self.buffer.make_contiguous()) {
                Ok((frame, stats)) => {
                    let at_slot = self.consumed;
                    if stats.crc_ok {
                        self.pop_front(stats.total_slots);
                        self.note_frame();
                        events.push(RxEvent::Frame {
                            frame,
                            stats,
                            at_slot,
                        });
                    } else {
                        // A failed CRC might be a false preamble lock that
                        // mis-measured the frame extent; consuming
                        // `total_slots` could swallow a real frame right
                        // behind it. Advance one slot and re-hunt instead.
                        self.pop_front(1);
                        self.note_skips(1);
                        events.push(RxEvent::CrcFailed { stats, at_slot });
                    }
                }
                Err(FrameCodecError::Truncated { needed, .. }) => {
                    if needed > self.max_frame_slots {
                        // Nonsense length: false lock, resume hunting.
                        self.pop_front(1);
                        self.note_skips(1);
                    } else {
                        return events; // genuine partial frame: wait
                    }
                }
                Err(_) => {
                    // Bad header / compensation overrun / unsupported
                    // pattern: advance one slot and re-hunt.
                    self.pop_front(1);
                    self.note_skips(1);
                }
            }
        }
    }

    /// Slots currently buffered awaiting more input.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Provision (or de-provision) the receiver for the FEC outer code.
    /// An unprovisioned receiver rejects FEC-flagged headers as
    /// corruption — see [`FrameCodec::set_accept_fec`].
    pub fn set_accept_fec(&mut self, accept: bool) {
        self.codec.set_accept_fec(accept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::DetRng;
    use proptest::prelude::*;
    use smartvlc_core::frame::format::{amppm_descriptor, Frame};
    use smartvlc_core::DimmingLevel;

    fn cfg() -> SystemConfig {
        SystemConfig::default()
    }

    fn make_frame(l: f64, payload: Vec<u8>) -> (Frame, Vec<bool>) {
        let c = cfg();
        let d = amppm_descriptor(&c, DimmingLevel::new(l).unwrap());
        let frame = Frame::new(d, payload).unwrap();
        let mut codec = FrameCodec::new(c).unwrap();
        let slots = codec.emit(&frame).unwrap();
        (frame, slots)
    }

    #[test]
    fn parses_frame_with_leading_noise() {
        let (frame, slots) = make_frame(0.5, (0..64).collect());
        let mut rx = Receiver::new(cfg()).unwrap();
        // Idle filler before the frame: constant-ish dim pattern.
        let mut stream: Vec<bool> = (0..100).map(|i| i % 4 == 0).collect();
        let noise_len = stream.len() as u64;
        stream.extend(&slots);
        let events = rx.push_slots(&stream);
        assert_eq!(events.len(), 1);
        match &events[0] {
            RxEvent::Frame {
                frame: f, at_slot, ..
            } => {
                assert_eq!(f, &frame);
                assert!(*at_slot >= noise_len - 2 && *at_slot <= noise_len + 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reassembles_across_partial_pushes() {
        let (frame, slots) = make_frame(0.4, (0..128).collect());
        let mut rx = Receiver::new(cfg()).unwrap();
        let mut events = Vec::new();
        for chunk in slots.chunks(97) {
            events.extend(rx.push_slots(chunk));
        }
        assert_eq!(events.len(), 1);
        assert!(matches!(&events[0], RxEvent::Frame { frame: f, .. } if f == &frame));
    }

    #[test]
    fn parses_back_to_back_frames() {
        let (f1, s1) = make_frame(0.5, vec![1; 32]);
        let (f2, s2) = make_frame(0.5, vec![2; 32]);
        let mut rx = Receiver::new(cfg()).unwrap();
        let mut stream = s1;
        stream.extend(&s2);
        let events = rx.push_slots(&stream);
        assert_eq!(events.len(), 2);
        assert!(matches!(&events[0], RxEvent::Frame { frame, .. } if frame == &f1));
        assert!(matches!(&events[1], RxEvent::Frame { frame, .. } if frame == &f2));
    }

    #[test]
    fn corrupted_frame_yields_crc_event_and_resync() {
        let (_, mut s1) = make_frame(0.5, vec![3; 64]);
        let (f2, s2) = make_frame(0.5, vec![4; 64]);
        let mid = s1.len() / 2;
        s1[mid] = !s1[mid]; // corrupt frame 1 mid-payload (not padding)
        let mut rx = Receiver::new(cfg()).unwrap();
        let mut stream = s1;
        stream.extend(&s2);
        let events = rx.push_slots(&stream);
        assert!(
            matches!(&events[0], RxEvent::CrcFailed { .. }),
            "{events:?}"
        );
        // Frame 2 survives the resync (possibly after spurious rescan
        // events inside frame 1's corrupted body).
        assert!(events
            .iter()
            .any(|e| matches!(e, RxEvent::Frame { frame, .. } if frame == &f2)));
    }

    #[test]
    fn garbage_only_produces_no_events() {
        let mut rx = Receiver::new(cfg()).unwrap();
        // Random-ish but deterministic garbage.
        let garbage: Vec<bool> = (0u64..5000)
            .map(|i| (i.wrapping_mul(2654435761)) & 4 != 0)
            .collect();
        let events = rx.push_slots(&garbage);
        assert!(events.is_empty(), "{events:?}");
        assert!(rx.slots_since_frame() > 0);
    }

    #[test]
    fn destroyed_preamble_loses_frame_but_not_receiver() {
        let (_, mut s1) = make_frame(0.5, vec![5; 64]);
        for s in s1.iter_mut().take(8) {
            *s = !*s; // obliterate the preamble
        }
        let (f2, s2) = make_frame(0.5, vec![6; 64]);
        let mut rx = Receiver::new(cfg()).unwrap();
        let mut stream = s1;
        stream.extend(&s2);
        let events = rx.push_slots(&stream);
        // Frame 1 is unrecoverable; frame 2 must still be found.
        assert!(events
            .iter()
            .any(|e| matches!(e, RxEvent::Frame { frame, .. } if frame == &f2)));
    }

    #[test]
    fn buffered_reflects_pending_input() {
        let mut rx = Receiver::new(cfg()).unwrap();
        rx.push_slots(&[true; 10]);
        assert!(rx.buffered() <= 10);
    }

    fn garbage(n: usize) -> Vec<bool> {
        (0u64..n as u64)
            .map(|i| (i.wrapping_mul(2654435761)) & 4 != 0)
            .collect()
    }

    #[test]
    fn sync_state_machine_tracks_loss_and_reacquisition() {
        let (_, slots) = make_frame(0.5, vec![7; 64]);
        let mut rx = Receiver::new(cfg()).unwrap();
        assert_eq!(rx.sync_status(), SyncStatus::Acquiring);

        rx.push_slots(&slots);
        assert_eq!(rx.sync_status(), SyncStatus::InSync);
        assert_eq!(rx.sync_losses, 0);

        // A long dark stretch (occlusion: every slot garbage) must trip
        // the loss detector exactly once.
        rx.push_slots(&garbage(3 * rx.max_frame_slots));
        assert_eq!(rx.sync_status(), SyncStatus::Hunting);
        assert_eq!(rx.sync_losses, 1);

        // The fault clears: the next clean frame reacquires and records
        // the hunt cost.
        let (f2, s2) = make_frame(0.5, vec![8; 64]);
        let events = rx.push_slots(&s2);
        assert!(events
            .iter()
            .any(|e| matches!(e, RxEvent::Frame { frame, .. } if frame == &f2)));
        assert_eq!(rx.sync_status(), SyncStatus::InSync);
        assert!(rx.last_resync_slots.unwrap() >= rx.sync_loss_after);
        assert_eq!(rx.slots_since_frame(), 0);
    }

    #[test]
    fn normal_interframe_gaps_never_count_as_sync_loss() {
        let mut rx = Receiver::new(cfg()).unwrap();
        for i in 0..20u8 {
            let (_, slots) = make_frame(0.5, vec![i; 64]);
            let mut stream: Vec<bool> = (0..64).map(|j| j % 4 == 0).collect();
            stream.extend(&slots);
            rx.push_slots(&stream);
        }
        assert_eq!(rx.sync_status(), SyncStatus::InSync);
        assert_eq!(rx.sync_losses, 0);
    }

    #[test]
    fn resync_budget_overrun_reports_once_and_rearms() {
        let (_, slots) = make_frame(0.5, vec![9; 64]);
        let mut rx = Receiver::new(cfg()).unwrap();
        rx.push_slots(&slots);
        // Scan far past loss threshold + budget.
        let deep = rx.sync_loss_after + rx.resync_budget + rx.max_frame_slots as u64;
        rx.push_slots(&garbage(deep as usize + 1000));
        match rx.poll_resync() {
            Err(LinkError::ResyncBudgetExhausted { scanned_slots }) => {
                assert!(scanned_slots >= rx.sync_loss_after + rx.resync_budget)
            }
            other => panic!("{other:?}"),
        }
        // Consumed: a second poll without further scanning is clean.
        assert_eq!(rx.poll_resync(), Ok(SyncStatus::Hunting));
    }

    #[test]
    fn buffer_stays_bounded_under_garbage_flood() {
        let mut rx = Receiver::new(cfg()).unwrap();
        for _ in 0..10 {
            rx.push_slots(&garbage(2 * rx.max_frame_slots));
            assert!(rx.buffered() <= rx.max_frame_slots + PREFIX_SLOTS);
        }
        // Still functional afterwards.
        let (f, s) = make_frame(0.5, vec![1; 64]);
        let events = rx.push_slots(&s);
        assert!(events
            .iter()
            .any(|e| matches!(e, RxEvent::Frame { frame, .. } if frame == &f)));
    }

    /// The per-slot hunt the sliding window replaced: a full window
    /// compare at the front of the buffer.
    fn preamble_at_front(rx: &Receiver) -> bool {
        if rx.buffer.len() < PREAMBLE_SLOTS {
            return false;
        }
        let mismatches = rx
            .buffer
            .iter()
            .take(PREAMBLE_SLOTS)
            .enumerate()
            .filter(|&(i, &s)| s != (i % 2 == 0))
            .count();
        mismatches <= PREAMBLE_TOLERANCE
    }

    /// [`Receiver::push_slots`] with the per-slot hunt it replaced, kept as
    /// its reference: every slot scanned past is one window compare, one
    /// `pop_front(1)` and one `note_scan(1)`.
    fn push_per_slot(rx: &mut Receiver, slots: &[bool]) -> Vec<RxEvent> {
        rx.buffer.extend(slots.iter().copied());
        let cap = rx.max_frame_slots + PREFIX_SLOTS;
        if rx.buffer.len() > cap {
            let drop = rx.buffer.len() - cap;
            rx.pop_front(drop);
            rx.note_scan(drop as u64);
        }
        let mut events = Vec::new();
        loop {
            while rx.buffer.len() >= PREAMBLE_SLOTS && !preamble_at_front(rx) {
                rx.pop_front(1);
                rx.note_scan(1);
            }
            if rx.buffer.len() < PREFIX_SLOTS + 2 {
                return events;
            }
            match rx.codec.parse(rx.buffer.make_contiguous()) {
                Ok((frame, stats)) => {
                    let at_slot = rx.consumed;
                    if stats.crc_ok {
                        rx.pop_front(stats.total_slots);
                        rx.note_frame();
                        events.push(RxEvent::Frame {
                            frame,
                            stats,
                            at_slot,
                        });
                    } else {
                        rx.pop_front(1);
                        rx.note_scan(1);
                        events.push(RxEvent::CrcFailed { stats, at_slot });
                    }
                }
                Err(FrameCodecError::Truncated { needed, .. }) if needed <= rx.max_frame_slots => {
                    return events;
                }
                Err(_) => {
                    rx.pop_front(1);
                    rx.note_scan(1);
                }
            }
        }
    }

    /// A small-payload configuration, so a dark stretch past the loss
    /// threshold and two resync budgets stays a few hundred thousand
    /// slots.
    fn hunt_cfg() -> SystemConfig {
        SystemConfig {
            payload_len: 8,
            ..SystemConfig::default()
        }
    }

    /// A slot stream of `segments` pieces drawn from `seed`: garbage,
    /// frames with random slot flips, frames with a destroyed preamble,
    /// frames with a slip (a slot lost or doubled), floods past the buffer
    /// cap and dark stretches past the loss threshold and two budgets.
    fn hunt_stream(seed: u64, segments: usize) -> Vec<bool> {
        let c = hunt_cfg();
        let max_frame_slots = (c.payload_len + 64) * 8 * 32;
        let (loss, budget) = (2 * max_frame_slots, 8 * max_frame_slots);
        let mut codec = FrameCodec::new(c.clone()).unwrap();
        let mut rng = DetRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for _ in 0..segments {
            let n = |rng: &mut DetRng, bound: usize| rng.next_below(bound as u64) as usize;
            match rng.next_below(8) {
                0 => {
                    let len = n(&mut rng, 3_000);
                    out.extend((0..len).map(|_| rng.chance(0.5)));
                }
                1..=4 => {
                    let level = DimmingLevel::new(0.1 + 0.8 * rng.next_f64()).unwrap();
                    let mut payload = vec![0u8; 1 + n(&mut rng, c.payload_len)];
                    rng.fill_bytes(&mut payload);
                    let frame = Frame::new(amppm_descriptor(&c, level), payload).unwrap();
                    let mut slots = codec.emit(&frame).unwrap();
                    match rng.next_below(4) {
                        0 => {}
                        1 => {
                            for _ in 0..1 + n(&mut rng, 4) {
                                let i = n(&mut rng, slots.len());
                                slots[i] = !slots[i];
                            }
                        }
                        2 => {
                            for _ in 0..3 + n(&mut rng, 6) {
                                let i = n(&mut rng, PREAMBLE_SLOTS);
                                slots[i] = !slots[i];
                            }
                        }
                        _ => {
                            let i = n(&mut rng, slots.len());
                            if rng.chance(0.5) {
                                slots.remove(i);
                            } else {
                                slots.insert(i, slots[i]);
                            }
                        }
                    }
                    out.extend(&slots);
                    let gap = n(&mut rng, 64);
                    out.extend((0..gap).map(|j| j % 4 == 0));
                }
                5 => {
                    let cap = max_frame_slots + PREFIX_SLOTS;
                    let len = cap + n(&mut rng, cap);
                    out.extend((0..len).map(|_| rng.chance(0.5)));
                }
                6 => {
                    let len = n(&mut rng, loss + 2 * budget + 5_000);
                    out.extend(std::iter::repeat_n(false, len));
                }
                _ => {
                    let len = loss + 2 * budget + n(&mut rng, 5_000);
                    out.extend(std::iter::repeat_n(false, len));
                }
            }
        }
        out
    }

    /// Everything a caller can observe of a receiver's sync state.
    fn sync_view(rx: &mut Receiver) -> (SyncStatus, u64, u64, Option<u64>, String) {
        (
            rx.sync_status(),
            rx.sync_losses,
            rx.slots_since_frame(),
            rx.last_resync_slots,
            format!("{:?}", rx.poll_resync()),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The sliding-window hunt and its per-slot reference, fed the same
        /// stream in the same random chunks, report the same events at the
        /// same offsets, the same sync state after every push (resync
        /// polls included), and the same telemetry.
        #[test]
        fn receiver_hunt_matches_its_per_slot_reference(
            seed in any::<u64>(),
            segments in 1usize..12,
            max_chunk in proptest::collection::vec(1usize..40_000, 1..4),
        ) {
            let stream = hunt_stream(seed, segments);
            let (mut fast, mut slow) = (
                Receiver::new(hunt_cfg()).unwrap(),
                Receiver::new(hunt_cfg()).unwrap(),
            );
            let (rec_fast, rec_slow) = (obs::Recorder::new(), obs::Recorder::new());
            let mut sizes = DetRng::seed_from_u64(!seed);
            let mut at = 0;
            while at < stream.len() {
                let bound = max_chunk[at % max_chunk.len()] as u64;
                let len = (1 + sizes.next_below(bound) as usize).min(stream.len() - at);
                let chunk = &stream[at..at + len];
                at += len;
                let got = obs::with_recorder(&rec_fast, || fast.push_slots(chunk));
                let want = obs::with_recorder(&rec_slow, || push_per_slot(&mut slow, chunk));
                prop_assert_eq!(got, want);
                prop_assert_eq!(sync_view(&mut fast), sync_view(&mut slow));
                prop_assert_eq!(fast.consumed, slow.consumed);
                prop_assert_eq!(fast.buffered(), slow.buffered());
            }
            prop_assert_eq!(rec_fast.snapshot(), rec_slow.snapshot());
        }
    }

    #[test]
    fn hunt_streams_reach_every_receiver_path() {
        // The differential property above is only as strong as its
        // streams: across a handful of seeds they decode frames, fail
        // CRCs, lose sync and overrun the resync budget.
        let (mut frames, mut crc_failed, mut losses, mut overruns) = (0, 0, 0, 0);
        for seed in 0..6 {
            let mut rx = Receiver::new(hunt_cfg()).unwrap();
            for chunk in hunt_stream(seed, 12).chunks(10_000) {
                for e in rx.push_slots(chunk) {
                    match e {
                        RxEvent::Frame { .. } => frames += 1,
                        RxEvent::CrcFailed { .. } => crc_failed += 1,
                    }
                }
                overruns += usize::from(rx.poll_resync().is_err());
            }
            losses += rx.sync_losses;
        }
        assert!(
            frames > 0 && crc_failed > 0,
            "{frames} frames, {crc_failed} CRC failures"
        );
        assert!(
            losses > 0 && overruns > 1,
            "{losses} losses, {overruns} overruns"
        );
    }

    #[test]
    fn sync_thresholds_fall_on_the_slot_that_reaches_them() {
        // Dark slots pushed in chunks under the buffer cap, so every slot
        // is hunted (no bulk drop) and the hunt stops with 23 slots
        // buffered: the scan depth lands exactly on each threshold and
        // one slot short of it, on both receivers.
        let (_, slots) = make_frame(0.5, vec![7; 64]);
        let mut fast = Receiver::new(cfg()).unwrap();
        let mut slow = Receiver::new(cfg()).unwrap();
        fast.push_slots(&slots);
        push_per_slot(&mut slow, &slots);
        let (loss, budget) = (fast.sync_loss_after, fast.resync_budget);
        let mut pushed = 0u64;
        let mut dark_to = |fast: &mut Receiver, slow: &mut Receiver, depth: u64| {
            while pushed < depth + PREAMBLE_SLOTS as u64 - 1 {
                let n = (depth + PREAMBLE_SLOTS as u64 - 1 - pushed).min(30_000);
                let chunk = vec![false; n as usize];
                fast.push_slots(&chunk);
                push_per_slot(slow, &chunk);
                pushed += n;
            }
            assert_eq!(fast.slots_since_frame(), depth);
        };
        for (depth, status, losses, overrun) in [
            (loss - 1, SyncStatus::InSync, 0, None),
            (loss, SyncStatus::Hunting, 1, None),
            (loss + budget - 1, SyncStatus::Hunting, 1, None),
            (loss + budget, SyncStatus::Hunting, 1, Some(loss + budget)),
            (loss + 2 * budget - 1, SyncStatus::Hunting, 1, None),
            (
                loss + 2 * budget,
                SyncStatus::Hunting,
                1,
                Some(loss + 2 * budget),
            ),
        ] {
            dark_to(&mut fast, &mut slow, depth);
            let want = match overrun {
                Some(scanned_slots) => Err(LinkError::ResyncBudgetExhausted { scanned_slots }),
                None => Ok(status),
            };
            assert_eq!(
                (fast.sync_status(), fast.sync_losses, fast.poll_resync()),
                (status, losses, want.clone()),
                "depth {depth}"
            );
            assert_eq!(
                (slow.sync_status(), slow.sync_losses, slow.poll_resync()),
                (status, losses, want),
                "reference, depth {depth}"
            );
        }
    }
}
