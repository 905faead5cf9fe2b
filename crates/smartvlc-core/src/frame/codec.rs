//! Slot-domain frame emission and parsing.
//!
//! [`FrameCodec`] is the meeting point of Table 1 and the modems: it
//! prefixes the scheme-modulated payload with the preamble, the
//! OOK-modulated header, and the intra-frame compensation + sync fields,
//! and parses the whole structure back on the receive side.
//!
//! The codec operates purely on decided slot values; converting noisy
//! analog samples into slots (clock recovery, thresholding) is the job of
//! `smartvlc-link`'s receiver front end.

#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::expect_used,
        clippy::unwrap_used,
        clippy::panic
    )
)]

use crate::amppm::planner::{AmppmPlanner, PlanError};
use crate::config::SystemConfig;
use crate::dimming::DimmingLevel;
use crate::frame::crc::Crc16;
use crate::frame::format::{DescriptorError, FecMode, Frame, FrameHeader, PatternDescriptor};
use crate::modem::{DemodError, SlotModem};
use crate::schemes::{AmppmModem, DarklightModem, MppmModem, OokCtModem, OppmModem, VppmModem};
use crate::symbol::SymbolPattern;
use combinat::EncodeScratch;
use smartvlc_obs as obs;
use std::fmt;

/// Number of preamble slots (3 bytes of alternating ON/OFF, Table 1).
pub const PREAMBLE_SLOTS: usize = 24;
/// Preamble mismatch tolerance during parsing (slots).
pub const PREAMBLE_TOLERANCE: usize = 2;

/// Length of the fixed frame prefix: preamble + OOK header.
pub const PREFIX_SLOTS: usize = PREAMBLE_SLOTS + FrameHeader::WIRE_SLOTS;

/// Receiver-side statistics for one parsed frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameStats {
    /// Whether every RS codeword decoded and the CRC verified (the MAC
    /// only ACKs clean frames).
    pub crc_ok: bool,
    /// Total slots the frame occupied on the air.
    pub total_slots: usize,
    /// Constituent symbols whose integrity check failed.
    pub symbol_failures: u32,
    /// Total payload symbols processed.
    pub symbols: u32,
    /// Symbol errors the outer code corrected in place (0 when FEC off).
    pub fec_corrected: u32,
    /// Codewords the outer decoder could not repair — when nonzero the
    /// frame is rejected (`crc_ok` is false) and falls back to ARQ as a
    /// CRC failure does.
    pub fec_failed_codewords: u32,
}

/// Errors from frame emission or parsing.
#[derive(Clone, Debug, PartialEq)]
pub enum FrameCodecError {
    /// Not enough slots to contain the claimed structure.
    Truncated {
        /// Slots needed to proceed.
        needed: usize,
        /// Slots available.
        got: usize,
    },
    /// Preamble correlation failed (more than [`PREAMBLE_TOLERANCE`]
    /// mismatched slots).
    BadPreamble,
    /// The header failed to parse.
    BadHeader(DescriptorError),
    /// The compensation run exceeded the Type-I flicker bound — no sync
    /// edge found where one must exist.
    CompensationOverrun,
    /// The descriptor names a scheme/level combination that cannot carry
    /// data.
    Unsupported(&'static str),
    /// AMPPM planning failed for the header's dimming level.
    Plan(PlanError),
    /// Payload demodulation failed structurally.
    Demod(DemodError),
}

impl fmt::Display for FrameCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameCodecError::Truncated { needed, got } => {
                write!(f, "truncated frame: need {needed} slots, have {got}")
            }
            FrameCodecError::BadPreamble => write!(f, "preamble correlation failed"),
            FrameCodecError::BadHeader(e) => write!(f, "bad header: {e}"),
            FrameCodecError::CompensationOverrun => {
                write!(f, "compensation run exceeds flicker bound")
            }
            FrameCodecError::Unsupported(w) => write!(f, "unsupported modulation: {w}"),
            FrameCodecError::Plan(e) => write!(f, "AMPPM planning failed: {e}"),
            FrameCodecError::Demod(e) => write!(f, "demodulation failed: {e}"),
        }
    }
}

impl std::error::Error for FrameCodecError {}

impl From<DemodError> for FrameCodecError {
    fn from(e: DemodError) -> Self {
        FrameCodecError::Demod(e)
    }
}

impl From<PlanError> for FrameCodecError {
    fn from(e: PlanError) -> Self {
        FrameCodecError::Plan(e)
    }
}

/// The frame ⇄ slot-waveform codec. Owns an AMPPM planner so both sides
/// derive identical super-symbols from header dimming levels.
pub struct FrameCodec {
    cfg: SystemConfig,
    planner: AmppmPlanner,
    accept_fec: bool,
    /// The payload decoder's workspace, kept from frame to frame.
    scratch: EncodeScratch,
}

impl FrameCodec {
    /// Build a codec for a configuration.
    pub fn new(cfg: SystemConfig) -> Result<FrameCodec, PlanError> {
        let planner = AmppmPlanner::new(cfg.clone())?;
        Ok(FrameCodec {
            cfg,
            planner,
            accept_fec: true,
            scratch: EncodeScratch::new(),
        })
    }

    /// Whether parsing accepts FEC-flagged headers. A receiver that is
    /// not provisioned for the outer code sets this false: no legitimate
    /// peer sends coded frames at it, so an observed FEC flag can only
    /// be header corruption — rejecting it up front keeps the fec-off
    /// bookkeeping (stats, telemetry keys) identical to a build without
    /// FEC at all.
    pub fn set_accept_fec(&mut self, accept: bool) {
        self.accept_fec = accept;
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The underlying AMPPM planner (shared with the transmitter logic).
    pub fn planner(&self) -> &AmppmPlanner {
        &self.planner
    }

    /// Resolve a pattern descriptor to a concrete modem.
    pub fn modem_for(
        &mut self,
        d: PatternDescriptor,
    ) -> Result<Box<dyn SlotModem>, FrameCodecError> {
        match d {
            PatternDescriptor::Mppm { n, k } => {
                let pattern = SymbolPattern::new(n, k)
                    .ok_or(FrameCodecError::BadHeader(DescriptorError::InvalidParams))?;
                if k == 0 || k == n {
                    return Err(FrameCodecError::Unsupported("MPPM pattern carries no data"));
                }
                // Eq. 4: a symbol must fit inside one super-symbol period,
                // which also rejects garbage headers decoded from noise.
                if n as u64 > self.cfg.n_max_super().min(512) {
                    return Err(FrameCodecError::Unsupported(
                        "MPPM symbol exceeds the flicker bound",
                    ));
                }
                Ok(Box::new(MppmModem::new(pattern)))
            }
            PatternDescriptor::OokCt { dimming_q } => {
                let l = DimmingLevel::clamped(self.cfg.dequantize_dimming(dimming_q));
                let modem = OokCtModem::new(l)
                    .ok_or(FrameCodecError::Unsupported("OOK-CT level out of range"))?;
                Ok(Box::new(modem))
            }
            PatternDescriptor::Amppm { dimming_q, tier } => {
                let l = DimmingLevel::clamped(self.cfg.dequantize_dimming(dimming_q));
                // plan_tiered clamps the tier byte, so a corrupted header
                // at worst selects a valid (if wrong) plan and the CRC
                // rejects the frame — never a panic.
                let plan = self.planner.plan_tiered(l, tier)?;
                if plan.norm_rate == 0.0 {
                    return Err(FrameCodecError::Unsupported(
                        "AMPPM level carries no data (degenerate pattern)",
                    ));
                }
                Ok(Box::new(AmppmModem::from_plan(&plan)))
            }
            PatternDescriptor::Vppm { n, width } => {
                let l = DimmingLevel::from_ratio(width as u32, n as u32)
                    .ok_or(FrameCodecError::BadHeader(DescriptorError::InvalidParams))?;
                let modem = VppmModem::new(n as u16, l)
                    .ok_or(FrameCodecError::Unsupported("VPPM width degenerate"))?;
                Ok(Box::new(modem))
            }
            PatternDescriptor::Oppm { n, width } => {
                let modem = OppmModem::from_raw(n as u16, width as u16)
                    .ok_or(FrameCodecError::Unsupported("OPPM shape degenerate"))?;
                Ok(Box::new(modem))
            }
            PatternDescriptor::Darklight { positions, pulse_w } => {
                let modem = DarklightModem::new(positions, pulse_w as u16).ok_or(
                    FrameCodecError::Unsupported("night-mode duty not dark enough"),
                )?;
                Ok(Box::new(modem))
            }
        }
    }

    /// Emit a frame as a slot waveform, built in one buffer sized up front.
    pub fn emit(&mut self, frame: &Frame) -> Result<Vec<bool>, FrameCodecError> {
        let modem = self.modem_for(frame.header.pattern)?;
        let table = self.planner.table();

        // Payload block: payload ++ CRC(header ++ payload), then the
        // outer code when the header asks for one. The CRC sits *inside*
        // the codeword, so corrected symbols still verify and only
        // uncorrectable blocks fall back to ARQ.
        let header_bytes = frame.header.to_bytes();
        let mut crc = Crc16::new();
        crc.update(&header_bytes).update(&frame.payload);
        let mut block = frame.payload.clone();
        block.extend_from_slice(&crc.finish().to_be_bytes());
        if let Some(profile) = frame.header.fec.profile() {
            block = smartvlc_fec::encode(profile, &block);
        }

        // Compensation + sync: align the prefix brightness to the payload
        // dimming level (Table 1's Compensation and Sync fields). The
        // preamble is half ON.
        let target = modem.dimming().value();
        let header_ones: u32 = header_bytes.iter().map(|b| b.count_ones()).sum();
        let prefix_ones = PREAMBLE_SLOTS / 2 + header_ones as usize;
        let (comp_len, comp_state) = compensation_plan(
            prefix_ones,
            PREFIX_SLOTS,
            target,
            self.cfg.n_max_super() as usize,
        );

        let total = PREFIX_SLOTS + comp_len + 1 + modem.slots_for_payload(table, block.len());
        let mut slots = Vec::with_capacity(total);
        // Preamble: alternating ON/OFF, starting ON.
        slots.extend((0..PREAMBLE_SLOTS).map(|i| i % 2 == 0));
        // Header: OOK, one slot per bit, MSB first.
        for &b in &header_bytes {
            slots.extend((0..8).rev().map(|bit| (b >> bit) & 1 == 1));
        }
        debug_assert_eq!(slots.len(), PREFIX_SLOTS);
        debug_assert_eq!(slots.iter().filter(|&&b| b).count(), prefix_ones);
        slots.extend(std::iter::repeat_n(comp_state, comp_len));
        slots.push(!comp_state); // sync edge
        modem.modulate(table, &block, &mut slots);
        debug_assert_eq!(slots.len(), total);
        obs::counter_add(obs::key!("core.codec.emits"), 1);
        obs::observe(obs::key!("core.codec.emit_slots"), slots.len() as u64);
        Ok(slots)
    }

    /// Parse a slot waveform beginning at a frame boundary.
    ///
    /// On success returns the frame, its stats (check
    /// [`FrameStats::crc_ok`] before trusting the payload), and the total
    /// number of slots consumed.
    pub fn parse(&mut self, slots: &[bool]) -> Result<(Frame, FrameStats), FrameCodecError> {
        let Some((prefix, body @ &[comp_state, _, ..])) = slots.split_at_checked(PREFIX_SLOTS)
        else {
            return Err(FrameCodecError::Truncated {
                needed: PREFIX_SLOTS + 2,
                got: slots.len(),
            });
        };
        // Preamble correlation with tolerance.
        let mismatches = prefix
            .iter()
            .take(PREAMBLE_SLOTS)
            .enumerate()
            .filter(|(i, &s)| s != (i % 2 == 0))
            .count();
        if mismatches > PREAMBLE_TOLERANCE {
            return Err(FrameCodecError::BadPreamble);
        }

        // Header: OOK, eight slots per byte, MSB first.
        let mut header_bytes = [0u8; FrameHeader::WIRE_BYTES];
        let mut header_slots = prefix.iter().skip(PREAMBLE_SLOTS);
        for byte in &mut header_bytes {
            *byte = header_slots
                .by_ref()
                .take(8)
                .fold(0, |b, &s| (b << 1) | s as u8);
        }
        let header = FrameHeader::from_bytes(&header_bytes).map_err(FrameCodecError::BadHeader)?;
        if !self.accept_fec && header.fec != FecMode::Off {
            return Err(FrameCodecError::BadHeader(DescriptorError::UnknownFec(
                header.fec.wire_bits(),
            )));
        }

        // Compensation run: scan for the sync edge. A run past the
        // flicker bound, or one that reaches the end, has no edge.
        let max_run = self.cfg.n_max_super() as usize;
        let run = body
            .iter()
            .take(max_run + 1)
            .take_while(|&&s| s == comp_state)
            .count();
        if run > max_run || run == body.len() {
            return Err(FrameCodecError::CompensationOverrun);
        }
        let payload_start = PREFIX_SLOTS + run + 1; // the flip slot is the sync bit

        // Payload block. With FEC on, the on-air block is the coded
        // length; both ends derive it from (profile, payload_len) alone.
        let modem = self.modem_for(header.pattern)?;
        let table = self.planner.table();
        let payload_len = header.payload_len as usize;
        let block_bytes = payload_len + 2;
        let air_bytes = header.fec.coded_len(block_bytes);
        let total_slots = payload_start + modem.slots_for_payload(table, air_bytes);
        let payload_slots =
            slots
                .get(payload_start..total_slots)
                .ok_or(FrameCodecError::Truncated {
                    needed: total_slots,
                    got: slots.len(),
                })?;
        let (raw, dstats) = modem.demodulate(table, payload_slots, air_bytes, &mut self.scratch)?;
        let (mut block, fec_corrected, fec_failed_codewords) = match header.fec.profile() {
            Some(profile) => {
                let out = smartvlc_fec::decode(profile, &raw, block_bytes);
                if out.corrected > 0 {
                    obs::counter_add(obs::key!("fec.corrected_symbols"), out.corrected as u64);
                }
                if out.failed_codewords > 0 {
                    obs::counter_add(obs::key!("fec.decode_failures"), 1);
                }
                (out.data, out.corrected, out.failed_codewords)
            }
            None => (raw, 0, 0),
        };
        // A codeword the RS decoder refused passes its systematic bytes
        // through unchecked: the frame is rejected as a CRC failure is,
        // even when the CRC over those bytes would pass.
        let crc_ok = fec_failed_codewords == 0
            && block
                .split_at_checked(payload_len)
                .is_some_and(|(payload, crc_bytes)| {
                    let mut crc = Crc16::new();
                    crc.update(&header_bytes).update(payload);
                    crc.finish().to_be_bytes() == crc_bytes
                });
        block.truncate(payload_len);

        let stats = FrameStats {
            crc_ok,
            total_slots,
            symbol_failures: dstats.symbol_failures,
            symbols: dstats.symbols,
            fec_corrected,
            fec_failed_codewords,
        };
        obs::counter_add(obs::key!("core.codec.parses"), 1);
        if !crc_ok {
            obs::counter_add(obs::key!("core.codec.crc_fail"), 1);
        }
        Ok((
            Frame {
                header,
                payload: block,
            },
            stats,
        ))
    }
}

/// Size the compensation field: choose the state and length such that
/// `(prefix_ones + state·c + sync_ones) / (prefix_len + c + 1) ≈ target`.
/// Always emits at least one compensation slot so the receiver can detect
/// the sync edge; the length is capped at the flicker bound.
fn compensation_plan(
    prefix_ones: usize,
    prefix_len: usize,
    target: f64,
    cap: usize,
) -> (usize, bool) {
    let ones = prefix_ones as f64;
    let len = prefix_len as f64;
    // Try brightening with ONs (sync will be OFF): (ones + c)/(len + c + 1) = l.
    let c_on = (target * (len + 1.0) - ones) / (1.0 - target);
    // Try darkening with OFFs (sync will be ON): (ones + 1)/(len + c + 1) = l.
    let c_off = (ones + 1.0) / target - len - 1.0;
    let (c, state) = if c_on.is_finite() && c_on >= 1.0 {
        (c_on, true)
    } else if c_off.is_finite() && c_off >= 1.0 {
        (c_off, false)
    } else {
        // Prefix already close to target: emit the minimal run in the
        // direction that errs least.
        let err_on = (ones + 1.0) / (len + 2.0) - target;
        let err_off = ones / (len + 2.0) - target;
        (1.0, err_on.abs() <= err_off.abs())
    };
    ((c.round() as usize).clamp(1, cap), state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::format::amppm_descriptor;

    fn codec() -> FrameCodec {
        FrameCodec::new(SystemConfig::default()).unwrap()
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
    }

    fn amppm_frame(l: f64, n: usize) -> Frame {
        let cfg = SystemConfig::default();
        let d = amppm_descriptor(&cfg, DimmingLevel::new(l).unwrap());
        Frame::new(d, payload(n)).unwrap()
    }

    #[test]
    fn amppm_frame_roundtrip_all_levels() {
        let mut c = codec();
        for i in 2..=18 {
            let l = i as f64 / 20.0;
            let frame = amppm_frame(l, 128);
            let slots = c.emit(&frame).unwrap();
            let (back, stats) = c.parse(&slots).unwrap();
            assert!(stats.crc_ok, "l={l}");
            assert_eq!(back, frame, "l={l}");
            assert_eq!(stats.total_slots, slots.len());
        }
    }

    #[test]
    fn mppm_and_ookct_and_vppm_roundtrip() {
        let cfg = SystemConfig::default();
        let mut c = codec();
        let descriptors = [
            PatternDescriptor::Mppm { n: 20, k: 6 },
            PatternDescriptor::OokCt {
                dimming_q: cfg.quantize_dimming(0.3),
            },
            PatternDescriptor::Vppm { n: 10, width: 3 },
            PatternDescriptor::Oppm { n: 14, width: 4 },
            PatternDescriptor::Darklight {
                positions: 128,
                pulse_w: 1,
            },
        ];
        for d in descriptors {
            let frame = Frame::new(d, payload(128)).unwrap();
            let slots = c.emit(&frame).unwrap();
            let (back, stats) = c.parse(&slots).unwrap();
            assert!(stats.crc_ok, "{d:?}");
            assert_eq!(back, frame, "{d:?}");
        }
    }

    #[test]
    fn fec_frame_roundtrip_all_modes() {
        use crate::frame::format::FecMode;
        let cfg = SystemConfig::default();
        let mut c = codec();
        for fec in [FecMode::Light, FecMode::Medium, FecMode::Heavy] {
            let d = amppm_descriptor(&cfg, DimmingLevel::new(0.5).unwrap());
            let frame = Frame::with_fec(d, fec, payload(128)).unwrap();
            let slots = c.emit(&frame).unwrap();
            let (back, stats) = c.parse(&slots).unwrap();
            assert!(stats.crc_ok, "{fec}");
            assert_eq!(back, frame, "{fec}");
            assert_eq!(stats.fec_corrected, 0, "{fec}");
            assert_eq!(stats.fec_failed_codewords, 0, "{fec}");
        }
    }

    #[test]
    fn unprovisioned_codec_rejects_fec_flagged_headers() {
        use crate::frame::format::FecMode;
        let cfg = SystemConfig::default();
        let mut c = codec();
        c.set_accept_fec(false);
        let d = amppm_descriptor(&cfg, DimmingLevel::new(0.5).unwrap());
        // A coded frame arriving at an uncoded receiver is, from its
        // point of view, a corrupted header — typed rejection, no decode.
        let frame = Frame::with_fec(d, FecMode::Medium, payload(64)).unwrap();
        let mut other = codec();
        let slots = other.emit(&frame).unwrap();
        assert_eq!(
            c.parse(&slots).unwrap_err(),
            FrameCodecError::BadHeader(DescriptorError::UnknownFec(FecMode::Medium.wire_bits()))
        );
        // Uncoded frames still parse.
        let plain = Frame::new(d, payload(64)).unwrap();
        let slots = other.emit(&plain).unwrap();
        assert!(c.parse(&slots).unwrap().1.crc_ok);
    }

    #[test]
    fn fec_corrects_payload_burst_that_kills_uncoded_crc() {
        use crate::frame::format::FecMode;
        let cfg = SystemConfig::default();
        let mut c = codec();
        let d = amppm_descriptor(&cfg, DimmingLevel::new(0.5).unwrap());

        // Same payload, coded and uncoded; flip a run of payload slots
        // near the end of each frame (well past the OOK prefix).
        let coded = Frame::with_fec(d, FecMode::Medium, payload(128)).unwrap();
        let uncoded = Frame::new(d, payload(128)).unwrap();
        for (frame, expect_clean) in [(&coded, true), (&uncoded, false)] {
            let mut slots = c.emit(frame).unwrap();
            let n = slots.len();
            for s in &mut slots[n - 40..n - 20] {
                *s = !*s;
            }
            let (back, stats) = c.parse(&slots).unwrap();
            assert_eq!(stats.crc_ok, expect_clean, "fec={}", frame.header.fec);
            if expect_clean {
                assert_eq!(&back, frame);
                assert!(stats.fec_corrected > 0);
                assert_eq!(stats.fec_failed_codewords, 0);
            }
        }
    }

    #[test]
    fn fec_overwhelmed_falls_back_to_crc_failure() {
        use crate::frame::format::FecMode;
        let cfg = SystemConfig::default();
        let mut c = codec();
        let d = amppm_descriptor(&cfg, DimmingLevel::new(0.5).unwrap());
        let frame = Frame::with_fec(d, FecMode::Light, payload(128)).unwrap();
        let slots = c.emit(&frame).unwrap();
        // Scramble the whole payload region deterministically.
        let mut s = slots.clone();
        let start = PREFIX_SLOTS + 40;
        for (i, slot) in s[start..].iter_mut().enumerate() {
            if i % 3 != 0 {
                *slot = !*slot;
            }
        }
        // A structural demod failure is an equally valid outcome; any
        // parse that *does* succeed must fail the CRC.
        if let Ok((_, stats)) = c.parse(&s) {
            assert!(!stats.crc_ok, "must not accept scrambled payload");
        }
    }

    #[test]
    fn failed_codeword_rejects_the_frame_the_crc_would_pass() {
        let cfg = SystemConfig::default();
        let mut c = codec();
        // OOK-CT at l = 0.5 has no compensation slots: payload slot i is
        // coded bit i, MSB first, after the scramble, so flipping slot
        // 8·b + k flips bit 7 − k of coded byte b.
        let d = PatternDescriptor::OokCt {
            dimming_q: cfg.quantize_dimming(0.5),
        };
        let frame = Frame::with_fec(d, FecMode::Heavy, payload(128)).unwrap();
        let slots = c.emit(&frame).unwrap();
        let profile = FecMode::Heavy.profile().unwrap();
        let block = 128 + 2;
        let words = profile.codewords_for(block);
        let air = FecMode::Heavy.coded_len(block);
        let start = slots.len() - 8 * air;
        // Parity symbol r of codeword j is coded byte block + r·words + j.
        let corrupt = |slots: &mut [bool], byte: usize, e: u8| {
            for bit in 0..8 {
                if e >> (7 - bit) & 1 == 1 {
                    slots[start + 8 * byte + bit] ^= true;
                }
            }
        };

        // One bad parity byte: corrected, and the frame is clean.
        let mut s = slots.clone();
        corrupt(&mut s, block + words, 0x5A);
        let (back, stats) = c.parse(&s).unwrap();
        assert_eq!((stats.crc_ok, stats.fec_corrected), (true, 1));
        assert_eq!(back, frame);

        // More than t bad parity bytes of one codeword: the data bytes and
        // the CRC arrive intact, so only the RS verdict can reject.
        let mut failed = 0;
        for bad in profile.t() + 1..=profile.parity() {
            for (word, e) in [(0, 0x01u8), (words - 1, 0xC3), (words / 2, 0xFF)] {
                let mut s = slots.clone();
                for r in 0..bad {
                    // Odd `e`, so every byte's error is nonzero.
                    corrupt(&mut s, block + r * words + word, e ^ (2 * r) as u8);
                }
                let (back, stats) = c.parse(&s).unwrap();
                if stats.fec_failed_codewords >= 1 {
                    failed += 1;
                    assert!(!stats.crc_ok, "{bad} bad parity bytes in codeword {word}");
                    assert_eq!(back.payload, frame.payload, "data passes through");
                }
            }
        }
        assert!(failed > 0, "no case overwhelmed the decoder");
    }

    #[test]
    fn whole_frame_brightness_matches_target() {
        // The compensation field's purpose: frame average ~ payload level.
        let mut c = codec();
        for l in [0.2, 0.35, 0.5, 0.75] {
            let frame = amppm_frame(l, 128);
            let slots = c.emit(&frame).unwrap();
            let duty = slots.iter().filter(|&&b| b).count() as f64 / slots.len() as f64;
            assert!((duty - l).abs() < 0.02, "l={l} duty={duty}");
        }
    }

    #[test]
    fn corrupted_payload_fails_crc_only() {
        let mut c = codec();
        let frame = amppm_frame(0.5, 128);
        let mut slots = c.emit(&frame).unwrap();
        let n = slots.len();
        slots[n - 10] = !slots[n - 10];
        let (_, stats) = c.parse(&slots).unwrap();
        assert!(!stats.crc_ok);
        assert!(stats.symbol_failures >= 1);
    }

    #[test]
    fn corrupted_preamble_detected() {
        let mut c = codec();
        let frame = amppm_frame(0.5, 16);
        let mut slots = c.emit(&frame).unwrap();
        for s in slots.iter_mut().take(5) {
            *s = !*s;
        }
        assert_eq!(c.parse(&slots), Err(FrameCodecError::BadPreamble));
    }

    #[test]
    fn preamble_tolerates_two_slot_errors() {
        let mut c = codec();
        let frame = amppm_frame(0.5, 16);
        let mut slots = c.emit(&frame).unwrap();
        slots[0] = !slots[0];
        slots[7] = !slots[7];
        let (back, _) = c.parse(&slots).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn truncated_frame_detected() {
        let mut c = codec();
        let cfg = SystemConfig::default();
        let d = amppm_descriptor(&cfg, DimmingLevel::new(0.5).unwrap());
        for fec in [FecMode::Off, FecMode::Medium] {
            let frame = Frame::with_fec(d, fec, payload(128)).unwrap();
            let slots = c.emit(&frame).unwrap();
            // Every proper prefix is cut short: either the payload or the
            // compensation run's sync edge is missing.
            for cut in 0..slots.len() {
                assert!(
                    matches!(
                        c.parse(&slots[..cut]),
                        Err(FrameCodecError::Truncated { .. }
                            | FrameCodecError::CompensationOverrun)
                    ),
                    "{fec:?} cut at {cut} of {}",
                    slots.len()
                );
            }
            let (back, stats) = c.parse(&slots).unwrap();
            assert!(stats.crc_ok, "{fec:?}");
            assert_eq!(back, frame, "{fec:?}");
        }
    }

    #[test]
    fn compensation_overrun_detected() {
        let mut c = codec();
        let frame = amppm_frame(0.5, 16);
        let mut slots = c.emit(&frame).unwrap();
        // Replace everything after the prefix with a constant run.
        let cap = SystemConfig::default().n_max_super() as usize;
        slots.truncate(PREFIX_SLOTS);
        slots.extend(std::iter::repeat_n(true, cap + 10));
        assert_eq!(c.parse(&slots), Err(FrameCodecError::CompensationOverrun));
    }

    #[test]
    fn sync_edge_found_regardless_of_comp_length() {
        // Dim and bright targets produce very different compensation runs;
        // the parser must locate the payload in both.
        let mut c = codec();
        for l in [0.12, 0.88] {
            let frame = amppm_frame(l, 64);
            let slots = c.emit(&frame).unwrap();
            let (back, stats) = c.parse(&slots).unwrap();
            assert!(stats.crc_ok);
            assert_eq!(back, frame, "l={l}");
        }
    }

    #[test]
    fn empty_payload_frame() {
        let cfg = SystemConfig::default();
        let mut c = codec();
        let d = amppm_descriptor(&cfg, DimmingLevel::new(0.5).unwrap());
        let frame = Frame::new(d, Vec::new()).unwrap();
        let slots = c.emit(&frame).unwrap();
        let (back, stats) = c.parse(&slots).unwrap();
        assert!(stats.crc_ok);
        assert_eq!(back.payload, Vec::<u8>::new());
    }

    #[test]
    fn header_corruption_yields_header_or_demod_error_not_panic() {
        let mut c = codec();
        let frame = amppm_frame(0.5, 64);
        let slots = c.emit(&frame).unwrap();
        // Flip header bits; any outcome except panic/accept-clean is fine.
        for flip in PREAMBLE_SLOTS..PREFIX_SLOTS {
            let mut s = slots.clone();
            s[flip] = !s[flip];
            if let Ok((_, stats)) = c.parse(&s) {
                assert!(!stats.crc_ok, "flip={flip} accepted")
            }
        }
    }
}

#[cfg(test)]
mod compensation_tests {
    use super::compensation_plan;

    fn achieved(prefix_ones: usize, prefix_len: usize, target: f64, cap: usize) -> f64 {
        let (c, state) = compensation_plan(prefix_ones, prefix_len, target, cap);
        let sync_on = !state as usize;
        (prefix_ones + state as usize * c + sync_on) as f64 / (prefix_len + c + 1) as f64
    }

    #[test]
    fn darkens_bright_prefixes() {
        // A half-bright 72-slot prefix against a 0.1 target: long OFF run.
        let (c, state) = compensation_plan(36, 72, 0.1, 500);
        assert!(!state, "must darken");
        assert!(c > 100, "c={c}");
        assert!((achieved(36, 72, 0.1, 500) - 0.1).abs() < 0.01);
    }

    #[test]
    fn brightens_dark_prefixes() {
        let (c, state) = compensation_plan(10, 72, 0.8, 500);
        assert!(state, "must brighten");
        assert!(c > 50, "c={c}");
        assert!((achieved(10, 72, 0.8, 500) - 0.8).abs() < 0.01);
    }

    #[test]
    fn always_emits_at_least_one_slot() {
        // Even a perfectly matched prefix needs one comp slot so the
        // receiver can detect the sync edge.
        for target in [0.05f64, 0.3, 0.5, 0.7, 0.95] {
            let ones = (72.0 * target).round() as usize;
            let (c, _) = compensation_plan(ones, 72, target, 500);
            assert!(c >= 1, "target={target}");
        }
    }

    #[test]
    fn cap_bounds_the_run() {
        // An extreme target cannot produce a flicker-length run.
        let (c, _) = compensation_plan(36, 72, 0.02, 500);
        assert!(c <= 500, "c={c}");
        let (c, _) = compensation_plan(0, 72, 0.99, 500);
        assert!(c <= 500, "c={c}");
    }

    #[test]
    fn alignment_error_is_small_across_targets() {
        // Within [0.05, 0.90] the cap never binds and alignment is tight.
        for i in 1..=18 {
            let target = i as f64 / 20.0;
            let err = (achieved(30, 72, target, 500) - target).abs();
            assert!(err < 0.02, "target={target} err={err}");
        }
        // At 0.95 the Eq. 4 cap limits the ON run; the residual error is
        // the price of staying flicker-safe, and stays modest.
        let err = (achieved(30, 72, 0.95, 500) - 0.95).abs();
        assert!((0.005..0.05).contains(&err), "err={err}");
    }
}
