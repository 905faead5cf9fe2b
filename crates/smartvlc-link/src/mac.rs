//! Streaming ARQ over the Wi-Fi ACK side channel.
//!
//! The paper's MAC acknowledges every clean frame over the ESP8266 uplink
//! and drops (no ACK) any frame whose CRC fails (§6.1). The downlink
//! never stalls waiting for an ACK — at ~5 ms Wi-Fi round trip versus
//! ~10 ms frame airtime, stop-and-wait would halve throughput, and the
//! paper's reported numbers are clearly pipeline-style. So the MAC here
//! streams frames back-to-back, tracks outstanding sequence numbers, and
//! re-queues any frame unacknowledged after a timeout.
//!
//! Retransmission timeouts back off exponentially with deterministic
//! jitter: a flaky uplink (ACK loss bursts, congestion jitter) would
//! otherwise lock the MAC into retransmitting at exactly the cadence that
//! collides with the recovering channel. Each retry doubles the frame's
//! deadline (capped) and adds a jitter drawn from the tracker's own
//! seeded stream, so runs stay bit-reproducible.
//!
//! The 2-byte sequence number travels as a MAC header *inside* the frame
//! payload (the Table 1 frame format has no sequence field of its own).

use crate::error::LinkError;
use desim::{DetRng, SimDuration, SimTime};
use smartvlc_obs as obs;
use std::collections::{HashMap, HashSet, VecDeque};

/// The MAC header carried in the first bytes of every payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MacHeader {
    /// Frame sequence number.
    pub seq: u16,
}

impl MacHeader {
    /// Wire size.
    pub const WIRE_BYTES: usize = 2;

    /// Prepend this header to a data payload.
    pub fn encapsulate(&self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::WIRE_BYTES + data.len());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(data);
        out
    }

    /// Split a received payload into header and data.
    pub fn decapsulate(payload: &[u8]) -> Option<(MacHeader, &[u8])> {
        if payload.len() < Self::WIRE_BYTES {
            return None;
        }
        let seq = u16::from_be_bytes([payload[0], payload[1]]);
        Some((MacHeader { seq }, &payload[Self::WIRE_BYTES..]))
    }
}

/// State of one outstanding frame.
#[derive(Clone, Debug)]
struct Outstanding {
    /// When the current (re)transmission went out.
    sent_at: SimTime,
    /// Jitter added to this attempt's deadline (zero on first send).
    jitter: SimDuration,
    data_bytes: usize,
    retries: u32,
}

/// What one timeout scan did — the transmitter's only channel-quality
/// feedback (it cannot see the receiver's CRC results directly).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TimeoutScan {
    /// Frames newly queued for retransmission.
    pub expired: u32,
    /// Frames abandoned after exhausting their retry budget; the caller
    /// must drop any per-seq state (payload copies) it still holds.
    pub abandoned_seqs: Vec<u16>,
}

impl TimeoutScan {
    /// Frames abandoned by this scan.
    pub fn abandoned(&self) -> u32 {
        self.abandoned_seqs.len() as u32
    }

    /// Total negative outcomes this scan observed (expired + abandoned) —
    /// the loss samples to feed a rate-degradation controller.
    pub fn failures(&self) -> u32 {
        self.expired + self.abandoned()
    }
}

/// Sequence numbers a [`DedupWindow`] remembers behind the newest one.
///
/// A duplicate reaches the receiver when an ACK is lost or late and the
/// sender retransmits; by then the sender has moved on by at most the
/// frames it airs within a frame's retry span. At the default 30 ms ACK
/// timeout and 3 retries (deadlines T, 2T, 4T, each with up to a quarter
/// of jitter) that span is under 0.3 s, a few hundred frames even at a
/// millisecond of airtime each; 8,192 leaves a wide margin and stays
/// under the 32,768 that serial arithmetic can order.
pub(crate) const DEDUP_WINDOW: u16 = 8192;

/// The receiver's duplicate filter over 16-bit MAC sequence numbers.
///
/// A sliding window anchored at the newest number seen: numbers are
/// ordered by RFC 1982 serial arithmetic, and one bit per number records
/// the last [`DEDUP_WINDOW`] of them, in the style of the IPsec
/// anti-replay window (RFC 4303 §3.4.3). Unlike a set of every number
/// ever seen, it keeps working after the sequence space wraps. A number
/// older than the window counts as a duplicate.
#[derive(Clone, Debug)]
pub(crate) struct DedupWindow {
    /// The newest number seen, if any.
    newest: Option<u16>,
    /// Bit `seq % DEDUP_WINDOW` is set when `seq` was seen.
    seen: [u64; DEDUP_WINDOW as usize / 64],
}

impl Default for DedupWindow {
    fn default() -> Self {
        DedupWindow {
            newest: None,
            seen: [0; DEDUP_WINDOW as usize / 64],
        }
    }
}

impl DedupWindow {
    /// Record a delivery of `seq`; `true` when it is the first one.
    pub(crate) fn insert(&mut self, seq: u16) -> bool {
        let newest = *self.newest.get_or_insert(seq);
        let ahead = seq.wrapping_sub(newest);
        if ahead != 0 && ahead < 0x8000 {
            // Slide forward, forgetting what the uncovered bits held a
            // window ago.
            for n in 1..=ahead.min(DEDUP_WINDOW) {
                self.flip(newest.wrapping_add(n), false);
            }
            self.newest = Some(seq);
        } else if newest.wrapping_sub(seq) >= DEDUP_WINDOW {
            return false;
        }
        !self.flip(seq, true)
    }

    /// Set `seq`'s bit to `on`; returns its previous value.
    fn flip(&mut self, seq: u16, on: bool) -> bool {
        let bit = seq % DEDUP_WINDOW;
        let (word, mask) = (&mut self.seen[usize::from(bit / 64)], 1u64 << (bit % 64));
        let was = *word & mask != 0;
        *word = if on { *word | mask } else { *word & !mask };
        was
    }
}

/// Transmit-side ARQ bookkeeping.
pub struct AckTracker {
    timeout: SimDuration,
    max_retries: u32,
    next_seq: u16,
    outstanding: HashMap<u16, Outstanding>,
    /// Sequence numbers due for retransmission, in FIFO order.
    retry_queue: VecDeque<u16>,
    /// Membership mirror of `retry_queue` for O(1) `contains` checks:
    /// deep retry backlogs (chaos regimes) used to pay O(n²) for linear
    /// scans on every timeout sweep.
    retry_pending: HashSet<u16>,
    /// Jitter source for backoff (None = fixed deadlines, legacy tests).
    jitter_rng: Option<DetRng>,
    /// Frames abandoned after max retries.
    pub abandoned: u64,
    /// Unique data bytes acknowledged.
    pub bytes_acked: u64,
    /// ACKs received (including duplicates).
    pub acks_seen: u64,
    /// Frames that were eventually ACKed, but only after at least one
    /// retransmission — "delivered late" in the chaos metrics.
    pub late_deliveries: u64,
    /// Fresh registrations skipped because the sequence number was still
    /// outstanding after a full wrap (see [`AckTracker::register_new`]).
    pub seq_collisions: u64,
}

/// Retry backoff exponent cap: 2^6 = 64× the base timeout. Beyond that a
/// longer wait tells us nothing the channel hasn't already said.
const MAX_BACKOFF_SHIFT: u32 = 6;

impl AckTracker {
    /// Create a tracker with fixed (non-backoff) deadlines. The
    /// paper-scale default is a 30 ms timeout (≈ 3 frame airtimes +
    /// Wi-Fi RTT) and 3 retries.
    pub fn new(timeout: SimDuration, max_retries: u32) -> AckTracker {
        AckTracker {
            timeout,
            max_retries,
            next_seq: 0,
            outstanding: HashMap::new(),
            retry_queue: VecDeque::new(),
            retry_pending: HashSet::new(),
            jitter_rng: None,
            abandoned: 0,
            bytes_acked: 0,
            acks_seen: 0,
            late_deliveries: 0,
            seq_collisions: 0,
        }
    }

    /// Create a tracker whose retries back off exponentially (double per
    /// retry, capped at 2^6×) with jitter drawn from `rng` — up to a
    /// quarter of the backed-off timeout, decorrelating retransmissions
    /// from periodic channel impairments.
    pub fn with_backoff(timeout: SimDuration, max_retries: u32, rng: DetRng) -> AckTracker {
        let mut t = Self::new(timeout, max_retries);
        t.jitter_rng = Some(rng);
        t
    }

    /// The backed-off timeout after `retries` prior attempts: the base
    /// timeout doubled per retry, capped at 2^6×. Evaluated lazily at
    /// scan time so a later `ensure_timeout_covers` still protects frames
    /// already in flight.
    ///
    /// Saturates at the end of representable time: a base timeout large
    /// enough to overflow the multiplication must clamp to the *maximum*
    /// deadline, not silently reset to the base (which would make an
    /// overflowing backoff the most aggressive retransmitter in the
    /// system — the exact opposite of backing off).
    fn backed_off_timeout(&self, retries: u32) -> SimDuration {
        let shift = retries.min(MAX_BACKOFF_SHIFT);
        self.timeout
            .checked_mul(1u64 << shift)
            .unwrap_or(SimDuration::nanos(u64::MAX))
    }

    /// Draw the jitter for a retry numbered `retries` (first transmission
    /// keeps the crisp base deadline; only retries are decorrelated). Up
    /// to a quarter of the backed-off timeout.
    fn draw_jitter(&mut self, retries: u32) -> SimDuration {
        let bound = self.backed_off_timeout(retries).as_nanos() / 4 + 1;
        match (&mut self.jitter_rng, retries) {
            (Some(rng), r) if r > 0 => SimDuration::nanos(rng.next_below(bound)),
            _ => SimDuration::ZERO,
        }
    }

    /// Allocate the next free sequence number for a fresh frame of
    /// `data_bytes` of user data, sent at `now`.
    ///
    /// When `next_seq` wraps past `u16::MAX` while that number is still
    /// outstanding, the colliding value is *skipped* (the old entry keeps
    /// its accounting and its pending ACK stays creditable) and the scan
    /// continues to the next free number. Returns
    /// [`LinkError::SeqSpaceExhausted`] only if every one of the 65536
    /// sequence numbers is simultaneously in flight.
    pub fn register_new(&mut self, now: SimTime, data_bytes: usize) -> Result<u16, LinkError> {
        for _ in 0..=u16::MAX as u32 {
            let seq = self.next_seq;
            self.next_seq = self.next_seq.wrapping_add(1);
            if self.outstanding.contains_key(&seq) {
                self.seq_collisions += 1;
                obs::counter_add(obs::key!("link.mac.seq_collisions"), 1);
                continue;
            }
            self.outstanding.insert(
                seq,
                Outstanding {
                    sent_at: now,
                    jitter: SimDuration::ZERO,
                    data_bytes,
                    retries: 0,
                },
            );
            return Ok(seq);
        }
        Err(LinkError::SeqSpaceExhausted)
    }

    /// Raise the timeout if frames have grown longer than it: a timeout
    /// below one frame airtime + the Wi-Fi RTT would retransmit *every*
    /// frame while its ACK is still in flight.
    pub fn ensure_timeout_covers(&mut self, frame_airtime: SimDuration) {
        let floor = frame_airtime * 2 + SimDuration::millis(10);
        if self.timeout < floor {
            self.timeout = floor;
        }
    }

    /// Record a retransmission of `seq` at `now`; its next deadline backs
    /// off exponentially (plus jitter when configured).
    pub fn register_retry(&mut self, seq: u16, now: SimTime) {
        if let Some(mut o) = self.outstanding.remove(&seq) {
            o.retries += 1;
            o.sent_at = now;
            o.jitter = self.draw_jitter(o.retries);
            obs::counter_add(obs::key!("link.mac.retries"), 1);
            obs::observe(
                obs::key!("link.mac.backoff_wait_ns"),
                self.backed_off_timeout(o.retries)
                    .as_nanos()
                    .saturating_add(o.jitter.as_nanos()),
            );
            self.outstanding.insert(seq, o);
        }
    }

    /// Process an arriving ACK. Returns the acknowledged data bytes the
    /// first time a sequence is ACKed, `None` for duplicates/unknown.
    pub fn on_ack(&mut self, seq: u16) -> Option<usize> {
        self.acks_seen += 1;
        obs::counter_add(obs::key!("link.mac.acks"), 1);
        let Some(o) = self.outstanding.remove(&seq) else {
            obs::counter_add(obs::key!("link.mac.dup_acks"), 1);
            return None;
        };
        // O(1) membership probe; the O(n) queue sweep runs only on the
        // rare ACK that races an already-queued retransmission.
        if self.retry_pending.remove(&seq) {
            self.retry_queue.retain(|&s| s != seq);
        }
        self.bytes_acked += o.data_bytes as u64;
        if o.retries > 0 {
            self.late_deliveries += 1;
        }
        Some(o.data_bytes)
    }

    /// Scan for timeouts at `now`; moves expired frames to the retry
    /// queue or abandons them past `max_retries`. The returned counts are
    /// the transmitter's SER feedback signal.
    pub fn scan_timeouts(&mut self, now: SimTime) -> TimeoutScan {
        let max_retries = self.max_retries;
        let mut expired: Vec<u16> = self
            .outstanding
            .iter()
            .filter(|(seq, o)| {
                // Saturating deadline arithmetic: a near-end-of-time
                // backoff means "never expires within this run", not an
                // overflow panic.
                let deadline = o
                    .sent_at
                    .saturating_add(self.backed_off_timeout(o.retries))
                    .saturating_add(o.jitter);
                now >= deadline && !self.retry_pending.contains(seq)
            })
            .map(|(&seq, _)| seq)
            .collect();
        expired.sort_unstable(); // deterministic order
        let mut scan = TimeoutScan::default();
        for seq in expired {
            let retries = self.outstanding[&seq].retries;
            if retries >= max_retries {
                self.outstanding.remove(&seq);
                self.abandoned += 1;
                obs::counter_add(obs::key!("link.mac.abandoned"), 1);
                obs::event(now, obs::key!("link.mac.abandoned"), seq as u64);
                scan.abandoned_seqs.push(seq);
            } else {
                self.retry_queue.push_back(seq);
                self.retry_pending.insert(seq);
                scan.expired += 1;
            }
        }
        scan
    }

    /// Pop the next frame due for retransmission, if any. FIFO: the pop
    /// order is exactly the order `scan_timeouts` queued the expiries
    /// (bit-identical to the pre-`VecDeque` drain, minus the O(n) shift).
    pub fn next_retry(&mut self) -> Option<u16> {
        let seq = self.retry_queue.pop_front()?;
        self.retry_pending.remove(&seq);
        Some(seq)
    }

    /// Frames in flight (sent, not yet ACKed or abandoned).
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_window_credits_each_number_once_across_wraps() {
        let mut w = DedupWindow::default();
        // Four passes over the 16-bit space, each number twice in a row
        // and once more 100 numbers later (a late retransmission).
        let mut fresh = 0u32;
        for i in 0..4 * 65_536u32 {
            let seq = i as u16;
            fresh += u32::from(w.insert(seq));
            assert!(!w.insert(seq), "repeat of {seq} at step {i}");
            if i >= 100 {
                assert!(!w.insert(seq.wrapping_sub(100)), "late repeat at step {i}");
            }
        }
        assert_eq!(fresh, 4 * 65_536);
    }

    #[test]
    fn dedup_window_accepts_out_of_order_numbers_inside_it() {
        let mut w = DedupWindow::default();
        assert!(w.insert(10));
        assert!(w.insert(7), "older but unseen, inside the window");
        assert!(!w.insert(7));
        assert!(w.insert(65_530), "16 behind across the wrap");
        assert!(w.insert(10 + DEDUP_WINDOW - 1));
        assert!(!w.insert(10), "seen, still inside the window");
        assert!(w.insert(10 + DEDUP_WINDOW), "the newest");
        assert!(!w.insert(10), "now older than the window");
        // A jump of more than a window forgets everything behind it.
        assert!(w.insert(40_000));
        assert!(w.insert(40_000 - 3));
        assert!(!w.insert(40_000 - 3));
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn header_roundtrip() {
        let h = MacHeader { seq: 0xBEEF };
        let p = h.encapsulate(&[1, 2, 3]);
        assert_eq!(p.len(), 5);
        let (back, data) = MacHeader::decapsulate(&p).unwrap();
        assert_eq!(back, h);
        assert_eq!(data, &[1, 2, 3]);
        assert!(MacHeader::decapsulate(&[0]).is_none());
    }

    #[test]
    fn sequences_increment_and_wrap() {
        let mut a = AckTracker::new(SimDuration::millis(30), 3);
        assert_eq!(a.register_new(t(0), 10).unwrap(), 0);
        assert_eq!(a.register_new(t(0), 10).unwrap(), 1);
        a.on_ack(0);
        a.on_ack(1);
        a.next_seq = u16::MAX;
        assert_eq!(a.register_new(t(0), 10).unwrap(), u16::MAX);
        assert_eq!(a.register_new(t(0), 10).unwrap(), 0);
    }

    #[test]
    fn wraparound_collision_skips_outstanding_seq() {
        // Regression: `register_new` used to silently overwrite a
        // still-outstanding entry when the sequence space wrapped,
        // losing its accounting and crediting its late ACK to the new
        // frame. The colliding number must now be skipped.
        let mut a = AckTracker::new(SimDuration::millis(30), 3);
        let first = a.register_new(t(0), 100).unwrap();
        assert_eq!(first, 0);
        // Wrap the counter all the way around while seq 0 is in flight.
        a.next_seq = 0;
        let reassigned = a.register_new(t(5), 7).unwrap();
        assert_eq!(reassigned, 1, "colliding seq 0 must be skipped");
        assert_eq!(a.seq_collisions, 1);
        assert_eq!(a.in_flight(), 2);
        // The old frame's late ACK still credits the *old* accounting.
        assert_eq!(a.on_ack(0), Some(100));
        assert_eq!(a.on_ack(1), Some(7));
        assert_eq!(a.bytes_acked, 107);
    }

    #[test]
    fn full_window_errors_instead_of_clobbering() {
        let mut a = AckTracker::new(SimDuration::millis(30), 3);
        for _ in 0..=u16::MAX as u32 {
            a.register_new(t(0), 1).unwrap();
        }
        assert_eq!(a.in_flight(), 65536);
        assert_eq!(a.register_new(t(0), 1), Err(LinkError::SeqSpaceExhausted));
        // Freeing one slot makes that exact sequence available again.
        a.on_ack(123);
        assert_eq!(a.register_new(t(0), 1).unwrap(), 123);
    }

    #[test]
    fn ack_credits_once() {
        let mut a = AckTracker::new(SimDuration::millis(30), 3);
        let seq = a.register_new(t(0), 128).unwrap();
        assert_eq!(a.on_ack(seq), Some(128));
        assert_eq!(a.on_ack(seq), None, "duplicate ACK ignored");
        assert_eq!(a.bytes_acked, 128);
        assert_eq!(a.acks_seen, 2);
        assert_eq!(a.in_flight(), 0);
        assert_eq!(a.late_deliveries, 0, "first-try ACK is not late");
    }

    #[test]
    fn timeout_triggers_retry_then_abandon() {
        let mut a = AckTracker::new(SimDuration::millis(30), 2);
        let seq = a.register_new(t(0), 128).unwrap();
        assert_eq!(a.scan_timeouts(t(10)), TimeoutScan::default());
        assert!(a.next_retry().is_none(), "not expired yet");
        let scan = a.scan_timeouts(t(31));
        assert_eq!(scan.expired, 1);
        assert_eq!(a.next_retry(), Some(seq));
        a.register_retry(seq, t(31));
        // Retry 1 backs off to 2x the base timeout.
        assert_eq!(a.scan_timeouts(t(62)), TimeoutScan::default());
        let scan = a.scan_timeouts(t(91));
        assert_eq!(scan.expired, 1);
        assert_eq!(a.next_retry(), Some(seq));
        a.register_retry(seq, t(91));
        // Retry 2 backs off to 4x; its expiry exceeds max_retries = 2.
        let scan = a.scan_timeouts(t(211));
        assert_eq!(scan.abandoned_seqs, vec![seq]);
        assert_eq!(scan.failures(), 1);
        assert_eq!(a.next_retry(), None);
        assert_eq!(a.abandoned, 1);
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn late_ack_after_retry_counts_late() {
        let mut a = AckTracker::new(SimDuration::millis(30), 3);
        let seq = a.register_new(t(0), 64).unwrap();
        a.scan_timeouts(t(40));
        assert_eq!(a.next_retry(), Some(seq));
        a.register_retry(seq, t(40));
        assert_eq!(a.on_ack(seq), Some(64));
        assert_eq!(a.late_deliveries, 1);
    }

    #[test]
    fn ack_while_queued_for_retry_cancels_retry() {
        let mut a = AckTracker::new(SimDuration::millis(30), 3);
        let seq = a.register_new(t(0), 64).unwrap();
        a.scan_timeouts(t(40));
        // The late ACK arrives before the retransmission goes out.
        assert_eq!(a.on_ack(seq), Some(64));
        assert_eq!(a.next_retry(), None);
    }

    #[test]
    fn scan_does_not_double_queue() {
        let mut a = AckTracker::new(SimDuration::millis(30), 5);
        let seq = a.register_new(t(0), 64).unwrap();
        a.scan_timeouts(t(40));
        a.scan_timeouts(t(41));
        assert_eq!(a.next_retry(), Some(seq));
        assert_eq!(a.next_retry(), None);
    }
}

#[cfg(test)]
mod backoff_tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn deadlines_double_per_retry() {
        let mut a = AckTracker::new(SimDuration::millis(10), 10);
        let seq = a.register_new(t(0), 1).unwrap();
        let mut now = SimTime::ZERO;
        let mut gaps = Vec::new();
        for _ in 0..4 {
            // Step forward 1 ms at a time until the frame expires.
            let expired_at = loop {
                now += SimDuration::millis(1);
                if a.scan_timeouts(now).expired > 0 {
                    break now;
                }
            };
            gaps.push(expired_at);
            assert_eq!(a.next_retry(), Some(seq));
            a.register_retry(seq, now);
        }
        // Expiry gaps: 10, 20, 40, 80 ms (no jitter configured).
        let deltas: Vec<u64> = gaps
            .windows(2)
            .map(|w| (w[1].as_nanos() - w[0].as_nanos()) / 1_000_000)
            .collect();
        assert_eq!(deltas, vec![20, 40, 80]);
    }

    #[test]
    fn backoff_caps_at_64x() {
        let a = AckTracker::new(SimDuration::millis(1), 100);
        let d_lo = a.backed_off_timeout(MAX_BACKOFF_SHIFT);
        let d_hi = a.backed_off_timeout(MAX_BACKOFF_SHIFT + 20);
        assert_eq!(d_lo, d_hi, "backoff must saturate");
        assert_eq!(d_lo, SimDuration::millis(64));
    }

    #[test]
    fn backoff_overflow_saturates_at_cap() {
        // Regression: `backed_off_timeout` used to fall back to the *base*
        // timeout when the shift overflowed `u64` — an overflowing backoff
        // silently became the most aggressive deadline in the system. It
        // must instead clamp to the maximum representable duration.
        let base = SimDuration::nanos(u64::MAX - 10);
        let mut a = AckTracker::new(base, 3);
        assert_eq!(a.backed_off_timeout(0), base, "no retries: base timeout");
        for retries in 1..=MAX_BACKOFF_SHIFT + 5 {
            assert_eq!(
                a.backed_off_timeout(retries),
                SimDuration::nanos(u64::MAX),
                "retry {retries}: overflowed backoff must saturate, not reset"
            );
        }
        // And a frame under that saturated deadline never spuriously
        // expires (deadline arithmetic saturates instead of panicking).
        let seq = a.register_new(SimTime::ZERO, 8).unwrap();
        a.register_retry(seq, SimTime::ZERO);
        let scan = a.scan_timeouts(SimTime::from_millis(u64::MAX / 2_000_000));
        assert_eq!(scan, TimeoutScan::default(), "saturated deadline expired");
        assert_eq!(a.next_retry(), None);
    }

    #[test]
    fn retry_pop_order_is_fifo_minus_acked() {
        // Regression guard for the `Vec` → `VecDeque` + membership-set
        // swap: pops must come out in exactly the order `scan_timeouts`
        // queued them (ascending seq per scan), with ACKed entries
        // surgically removed and the rest undisturbed.
        let mut a = AckTracker::new(SimDuration::millis(10), 5);
        let n: u16 = 100;
        for _ in 0..n {
            a.register_new(SimTime::ZERO, 4).unwrap();
        }
        let scan = a.scan_timeouts(SimTime::from_millis(20));
        assert_eq!(scan.expired, n as u32);
        // ACK a scattered subset while they sit in the retry queue.
        let acked: Vec<u16> = (0..n).filter(|s| s % 7 == 3).collect();
        for &s in &acked {
            assert!(a.on_ack(s).is_some());
        }
        let mut popped = Vec::new();
        while let Some(s) = a.next_retry() {
            popped.push(s);
        }
        let expected: Vec<u16> = (0..n).filter(|s| s % 7 != 3).collect();
        assert_eq!(popped, expected, "pop order must be scan order minus ACKs");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let mk = || {
            AckTracker::with_backoff(
                SimDuration::millis(10),
                5,
                DetRng::seed_from_u64(99).fork("mac-backoff"),
            )
        };
        let mut a = mk();
        let mut b = mk();
        let ja: Vec<SimDuration> = (1..5).map(|r| a.draw_jitter(r)).collect();
        let jb: Vec<SimDuration> = (1..5).map(|r| b.draw_jitter(r)).collect();
        assert_eq!(ja, jb, "same seed, same jitter");
        assert!(
            ja.iter().any(|j| !j.is_zero()),
            "jitter must actually engage: {ja:?}"
        );
        for (r, j) in (1u32..5).zip(&ja) {
            let cap = a.backed_off_timeout(r).as_nanos() / 4;
            assert!(j.as_nanos() <= cap, "retry {r}: jitter {j:?} above cap");
        }
        // First transmission never jitters: the crisp deadline is what
        // `ensure_timeout_covers` reasons about.
        assert_eq!(a.draw_jitter(0), SimDuration::ZERO);
    }
}

#[cfg(test)]
mod timeout_floor_tests {
    use super::*;

    #[test]
    fn timeout_floor_prevents_spurious_retransmission() {
        // Regression: a 60 ms frame with a 30 ms timeout must not expire
        // while its ACK is still in flight.
        let mut a = AckTracker::new(SimDuration::millis(30), 3);
        a.ensure_timeout_covers(SimDuration::millis(60));
        let seq = a.register_new(SimTime::ZERO, 128).unwrap();
        // Frame lands at 60 ms, ACK arrives ~66 ms.
        a.scan_timeouts(SimTime::from_millis(66));
        assert_eq!(a.next_retry(), None, "expired before the ACK could arrive");
        assert_eq!(a.on_ack(seq), Some(128));
        // The floor only raises, never lowers.
        let mut b = AckTracker::new(SimDuration::millis(500), 3);
        b.ensure_timeout_covers(SimDuration::millis(1));
        b.register_new(SimTime::ZERO, 1).unwrap();
        b.scan_timeouts(SimTime::from_millis(400));
        assert_eq!(b.next_retry(), None, "configured timeout was lowered");
    }
}
