//! Frame wire format: header fields and the 4-byte pattern descriptor.
//!
//! The paper allocates exactly four bytes to the Pattern field that "carries
//! the details about the super-symbol". A naive serialization of
//! `⟨S1(N1,K1), m1, S2(N2,K2), m2⟩` needs ~6 bytes at `Nmax = 500`, so we
//! exploit the planner's determinism instead: both ends run the same
//! [`crate::AmppmPlanner`] over the same [`crate::SystemConfig`], so the
//! header only needs to carry the *quantized dimming level*; the receiver
//! re-derives the identical super-symbol. The remaining bytes carry the
//! scheme tag and explicit parameters for the fixed-pattern schemes.

use crate::dimming::DimmingLevel;
use smartvlc_fec::FecProfile;
use std::fmt;

/// Maximum payload length accepted by the frame layer.
///
/// Must fit in the 13-bit Length field ([`FrameHeader`] packs the FEC
/// mode into the top three bits of the 2-byte Length word).
pub const MAX_PAYLOAD: usize = 4096;

/// Outer-code setting carried in the frame header: off, or one of the
/// three Reed–Solomon profiles of [`smartvlc_fec::FecProfile`].
///
/// Wire encoding lives in the top three bits of the Length word: bit 15
/// is the FEC flag, bits 14–13 the profile index. `Off` encodes as all
/// zeros, so uncoded frames are bit-identical to the pre-FEC wire format.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum FecMode {
    /// No outer code; the CRC alone gates the frame (pre-FEC behavior).
    #[default]
    Off,
    /// RS parity 8 per codeword (t = 4).
    Light,
    /// RS parity 16 per codeword (t = 8).
    Medium,
    /// RS parity 32 per codeword (t = 16).
    Heavy,
}

impl FecMode {
    /// The coding profile, or `None` when the outer code is off.
    pub fn profile(self) -> Option<FecProfile> {
        match self {
            FecMode::Off => None,
            FecMode::Light => Some(FecProfile::Light),
            FecMode::Medium => Some(FecProfile::Medium),
            FecMode::Heavy => Some(FecProfile::Heavy),
        }
    }

    /// The mode carrying a given profile.
    pub fn from_profile(p: FecProfile) -> FecMode {
        match p {
            FecProfile::Light => FecMode::Light,
            FecProfile::Medium => FecMode::Medium,
            FecProfile::Heavy => FecMode::Heavy,
        }
    }

    /// On-air bytes for a `block_len`-byte payload+CRC block under this
    /// mode.
    pub fn coded_len(self, block_len: usize) -> usize {
        match self.profile() {
            Some(p) => p.coded_len(block_len),
            None => block_len,
        }
    }

    /// The 3-bit wire value (bit 2 = FEC flag, bits 1–0 = profile index).
    pub fn wire_bits(self) -> u8 {
        match self.profile() {
            Some(p) => 0b100 | p.index(),
            None => 0,
        }
    }

    /// Parse the 3-bit wire value. The five unused patterns (flag clear
    /// with profile bits set, or flag set with the reserved index 3) are
    /// rejected: accepting them would leave both ends disagreeing on the
    /// on-air block layout, so they can only be header corruption.
    pub fn from_wire_bits(bits: u8) -> Result<FecMode, DescriptorError> {
        match bits {
            0b000 => Ok(FecMode::Off),
            0b100 => Ok(FecMode::Light),
            0b101 => Ok(FecMode::Medium),
            0b110 => Ok(FecMode::Heavy),
            b => Err(DescriptorError::UnknownFec(b)),
        }
    }
}

impl fmt::Display for FecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FecMode::Off => write!(f, "off"),
            FecMode::Light => write!(f, "rs-light"),
            FecMode::Medium => write!(f, "rs-medium"),
            FecMode::Heavy => write!(f, "rs-heavy"),
        }
    }
}

/// Which payload modulation a frame uses, with its parameters — the
/// 4-byte Pattern field of Table 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PatternDescriptor {
    /// Fixed MPPM pattern `S(n, k/n)`.
    Mppm {
        /// Slots per symbol.
        n: u16,
        /// ON slots per symbol.
        k: u16,
    },
    /// OOK with compensation time at a quantized dimming level.
    OokCt {
        /// Quantized dimming level (planner grid index).
        dimming_q: u16,
    },
    /// AMPPM at a quantized dimming level; the super-symbol is re-derived
    /// by the receiver's planner.
    Amppm {
        /// Quantized dimming level (planner grid index).
        dimming_q: u16,
        /// Degradation tier (0 = nominal; see
        /// [`crate::amppm::planner::MAX_DEGRADE_TIER`]). Carried in the
        /// descriptor's spare byte so the receiver replans identically.
        tier: u8,
    },
    /// VPPM with `n` slots per symbol and pulse width `width`.
    Vppm {
        /// Slots per symbol.
        n: u8,
        /// Pulse width in slots.
        width: u8,
    },
    /// OPPM with `n` slots per symbol and pulse width `width` (paper reference \[8\]).
    Oppm {
        /// Slots per symbol.
        n: u8,
        /// Pulse width in slots.
        width: u8,
    },
    /// DarkLight-style night mode: one `pulse_w`-slot pulse at one of
    /// `positions` offsets per symbol (§7 companion mode).
    Darklight {
        /// Pulse offsets per symbol.
        positions: u16,
        /// Pulse width in slots.
        pulse_w: u8,
    },
}

/// Errors from descriptor parsing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DescriptorError {
    /// Unknown scheme tag byte.
    UnknownTag(u8),
    /// Parameters violate the scheme's invariants.
    InvalidParams,
    /// Reserved FEC bit pattern in the Length word.
    UnknownFec(u8),
    /// The Length field declares more payload than [`MAX_PAYLOAD`] —
    /// structurally impossible for a genuine frame, so the header is
    /// rejected outright rather than letting a corrupted length drive
    /// downstream buffer sizing.
    OversizeLength(u16),
}

impl fmt::Display for DescriptorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DescriptorError::UnknownTag(t) => write!(f, "unknown scheme tag {t:#04x}"),
            DescriptorError::InvalidParams => write!(f, "invalid scheme parameters"),
            DescriptorError::UnknownFec(b) => write!(f, "reserved FEC bits {b:#05b}"),
            DescriptorError::OversizeLength(n) => {
                write!(
                    f,
                    "declared payload {n} B exceeds the {MAX_PAYLOAD} B maximum"
                )
            }
        }
    }
}

impl std::error::Error for DescriptorError {}

const TAG_MPPM: u8 = 0x01;
const TAG_OOKCT: u8 = 0x02;
const TAG_AMPPM: u8 = 0x03;
const TAG_VPPM: u8 = 0x04;
const TAG_OPPM: u8 = 0x05;
const TAG_DARKLIGHT: u8 = 0x06;

impl PatternDescriptor {
    /// Serialize to the 4-byte wire form: `tag | p0 p1 | p2`.
    pub fn to_bytes(self) -> [u8; 4] {
        match self {
            PatternDescriptor::Mppm { n, k } => {
                // 12-bit n, 12-bit k packed big-endian into 3 bytes.
                debug_assert!(n < 4096 && k < 4096);
                [
                    TAG_MPPM,
                    (n >> 4) as u8,
                    (((n & 0xF) << 4) | (k >> 8)) as u8,
                    (k & 0xFF) as u8,
                ]
            }
            PatternDescriptor::OokCt { dimming_q } => {
                let b = dimming_q.to_be_bytes();
                [TAG_OOKCT, b[0], b[1], 0]
            }
            PatternDescriptor::Amppm { dimming_q, tier } => {
                let b = dimming_q.to_be_bytes();
                [TAG_AMPPM, b[0], b[1], tier]
            }
            PatternDescriptor::Vppm { n, width } => [TAG_VPPM, n, width, 0],
            PatternDescriptor::Oppm { n, width } => [TAG_OPPM, n, width, 0],
            PatternDescriptor::Darklight { positions, pulse_w } => {
                let b = positions.to_be_bytes();
                [TAG_DARKLIGHT, b[0], b[1], pulse_w]
            }
        }
    }

    /// Parse the 4-byte wire form.
    pub fn from_bytes(b: [u8; 4]) -> Result<PatternDescriptor, DescriptorError> {
        match b[0] {
            TAG_MPPM => {
                let n = ((b[1] as u16) << 4) | ((b[2] as u16) >> 4);
                let k = (((b[2] & 0xF) as u16) << 8) | b[3] as u16;
                if n == 0 || k > n {
                    return Err(DescriptorError::InvalidParams);
                }
                Ok(PatternDescriptor::Mppm { n, k })
            }
            TAG_OOKCT => Ok(PatternDescriptor::OokCt {
                dimming_q: u16::from_be_bytes([b[1], b[2]]),
            }),
            // Any tier byte parses (roundtrip totality); the modem clamps
            // it to the planner's maximum when re-deriving the plan.
            TAG_AMPPM => Ok(PatternDescriptor::Amppm {
                dimming_q: u16::from_be_bytes([b[1], b[2]]),
                tier: b[3],
            }),
            TAG_VPPM => {
                let (n, width) = (b[1], b[2]);
                if n < 2 || width == 0 || width >= n {
                    return Err(DescriptorError::InvalidParams);
                }
                Ok(PatternDescriptor::Vppm { n, width })
            }
            TAG_OPPM => {
                let (n, width) = (b[1], b[2]);
                if n < 3 || width == 0 || width >= n {
                    return Err(DescriptorError::InvalidParams);
                }
                Ok(PatternDescriptor::Oppm { n, width })
            }
            TAG_DARKLIGHT => {
                let positions = u16::from_be_bytes([b[1], b[2]]);
                let pulse_w = b[3];
                if positions < 2 || pulse_w == 0 {
                    return Err(DescriptorError::InvalidParams);
                }
                Ok(PatternDescriptor::Darklight { positions, pulse_w })
            }
            t => Err(DescriptorError::UnknownTag(t)),
        }
    }
}

/// The frame header: Length + Pattern fields of Table 1.
///
/// The 2-byte Length word is split: bits 12..0 carry the payload length
/// (≤ [`MAX_PAYLOAD`] = 4096 fits in 13 bits), bit 15 flags an FEC-coded
/// payload block, bits 14–13 select the [`FecMode`] profile. With FEC off
/// all three top bits are zero and the wire bytes are unchanged from the
/// pre-FEC format.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FrameHeader {
    /// Payload bytes (not counting the CRC).
    pub payload_len: u16,
    /// Outer-code setting for the payload+CRC block.
    pub fec: FecMode,
    /// Payload modulation descriptor.
    pub pattern: PatternDescriptor,
}

/// Bit offset of the FEC field inside the Length word.
const FEC_SHIFT: u16 = 13;
/// Mask of the payload-length bits inside the Length word.
const LEN_MASK: u16 = (1 << FEC_SHIFT) - 1;

impl FrameHeader {
    /// Header wire size in bytes (2 + 4, Table 1).
    pub const WIRE_BYTES: usize = 6;
    /// Header wire size in slots (OOK-modulated, one slot per bit).
    pub const WIRE_SLOTS: usize = Self::WIRE_BYTES * 8;

    /// Serialize to wire bytes.
    pub fn to_bytes(self) -> [u8; Self::WIRE_BYTES] {
        debug_assert!(self.payload_len as usize <= MAX_PAYLOAD);
        let word = ((self.fec.wire_bits() as u16) << FEC_SHIFT) | (self.payload_len & LEN_MASK);
        let mut out = [0u8; Self::WIRE_BYTES];
        out[..2].copy_from_slice(&word.to_be_bytes());
        out[2..].copy_from_slice(&self.pattern.to_bytes());
        out
    }

    /// Parse from wire bytes. Rejects reserved FEC bit patterns and
    /// lengths beyond [`MAX_PAYLOAD`] — a header that passed the OOK
    /// prefix but declares an impossible structure is corruption, and
    /// must surface as an error rather than drive buffer sizing.
    /// Bytes past [`Self::WIRE_BYTES`] are ignored.
    pub fn from_bytes(b: &[u8]) -> Result<FrameHeader, DescriptorError> {
        if b.len() < Self::WIRE_BYTES {
            return Err(DescriptorError::InvalidParams);
        }
        let word = u16::from_be_bytes([b[0], b[1]]);
        let fec = FecMode::from_wire_bits((word >> FEC_SHIFT) as u8)?;
        let payload_len = word & LEN_MASK;
        if payload_len as usize > MAX_PAYLOAD {
            return Err(DescriptorError::OversizeLength(payload_len));
        }
        Ok(FrameHeader {
            payload_len,
            fec,
            pattern: PatternDescriptor::from_bytes([b[2], b[3], b[4], b[5]])?,
        })
    }
}

/// A MAC frame: header + payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Frame {
    /// The header (Length + Pattern).
    pub header: FrameHeader,
    /// Payload bytes (the paper fixes 128 B in its experiments).
    pub payload: Vec<u8>,
}

impl Frame {
    /// Build an uncoded frame; validates length consistency.
    pub fn new(pattern: PatternDescriptor, payload: Vec<u8>) -> Option<Frame> {
        Frame::with_fec(pattern, FecMode::Off, payload)
    }

    /// Build a frame with an explicit outer-code setting.
    pub fn with_fec(pattern: PatternDescriptor, fec: FecMode, payload: Vec<u8>) -> Option<Frame> {
        if payload.len() > MAX_PAYLOAD {
            return None;
        }
        Some(Frame {
            header: FrameHeader {
                payload_len: payload.len() as u16,
                fec,
                pattern,
            },
            payload,
        })
    }
}

/// Helper: descriptor for an AMPPM frame at a given target level (tier 0).
pub fn amppm_descriptor(cfg: &crate::config::SystemConfig, l: DimmingLevel) -> PatternDescriptor {
    PatternDescriptor::Amppm {
        dimming_q: cfg.quantize_dimming(l.value()),
        tier: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_is_exactly_four_bytes() {
        // Table 1: the Pattern field is 4 B.
        let d = PatternDescriptor::Amppm {
            dimming_q: 777,
            tier: 0,
        };
        assert_eq!(d.to_bytes().len(), 4);
    }

    #[test]
    fn descriptor_roundtrip() {
        let cases = [
            PatternDescriptor::Mppm { n: 20, k: 10 },
            PatternDescriptor::Mppm { n: 500, k: 250 },
            PatternDescriptor::Mppm { n: 4095, k: 4095 },
            PatternDescriptor::OokCt { dimming_q: 0 },
            PatternDescriptor::OokCt { dimming_q: 65535 },
            PatternDescriptor::Amppm {
                dimming_q: 512,
                tier: 0,
            },
            PatternDescriptor::Amppm {
                dimming_q: 512,
                tier: 3,
            },
            PatternDescriptor::Amppm {
                dimming_q: 65535,
                tier: 255,
            },
            PatternDescriptor::Vppm { n: 10, width: 3 },
            PatternDescriptor::Oppm { n: 12, width: 4 },
            PatternDescriptor::Darklight {
                positions: 128,
                pulse_w: 1,
            },
        ];
        for d in cases {
            assert_eq!(PatternDescriptor::from_bytes(d.to_bytes()), Ok(d), "{d:?}");
        }
    }

    #[test]
    fn invalid_descriptors_rejected() {
        assert_eq!(
            PatternDescriptor::from_bytes([0x7F, 0, 0, 0]),
            Err(DescriptorError::UnknownTag(0x7F))
        );
        // MPPM with k > n.
        let bad = PatternDescriptor::Mppm { n: 10, k: 11 }.to_bytes();
        assert_eq!(
            PatternDescriptor::from_bytes(bad),
            Err(DescriptorError::InvalidParams)
        );
        // VPPM with width = n.
        assert_eq!(
            PatternDescriptor::from_bytes([0x04, 10, 10, 0]),
            Err(DescriptorError::InvalidParams)
        );
    }

    #[test]
    fn header_roundtrip() {
        for fec in [
            FecMode::Off,
            FecMode::Light,
            FecMode::Medium,
            FecMode::Heavy,
        ] {
            let h = FrameHeader {
                payload_len: 128,
                fec,
                pattern: PatternDescriptor::Amppm {
                    dimming_q: 300,
                    tier: 1,
                },
            };
            let bytes = h.to_bytes();
            assert_eq!(bytes.len(), 6); // Table 1: Length 2 B + Pattern 4 B
            assert_eq!(FrameHeader::from_bytes(&bytes), Ok(h), "{fec}");
            // Whatever follows the header on the wire is not part of it.
            let mut longer = [0xA5u8; 8];
            longer[..6].copy_from_slice(&bytes);
            assert_eq!(FrameHeader::from_bytes(&longer), Ok(h), "{fec}");
        }
    }

    #[test]
    fn fec_off_wire_bytes_unchanged_from_pre_fec_format() {
        // The legacy format put the bare payload length in the Length
        // word; FecMode::Off must reproduce it bit-for-bit. The table pins
        // the full header bytes for every FEC mode and descriptor family.
        let table: [(u16, FecMode, PatternDescriptor, [u8; 6]); 6] = [
            (
                128,
                FecMode::Off,
                PatternDescriptor::OokCt { dimming_q: 512 },
                [0x00, 0x80, 0x02, 0x02, 0x00, 0x00],
            ),
            (
                128,
                FecMode::Light,
                PatternDescriptor::Amppm {
                    dimming_q: 300,
                    tier: 1,
                },
                [0x80, 0x80, 0x03, 0x01, 0x2c, 0x01],
            ),
            (
                4096,
                FecMode::Medium,
                PatternDescriptor::Mppm { n: 20, k: 10 },
                [0xb0, 0x00, 0x01, 0x01, 0x40, 0x0a],
            ),
            (
                1,
                FecMode::Heavy,
                PatternDescriptor::Amppm {
                    dimming_q: 65535,
                    tier: 255,
                },
                [0xc0, 0x01, 0x03, 0xff, 0xff, 0xff],
            ),
            (
                0,
                FecMode::Off,
                PatternDescriptor::Mppm { n: 500, k: 250 },
                [0x00, 0x00, 0x01, 0x1f, 0x40, 0xfa],
            ),
            (
                4095,
                FecMode::Heavy,
                PatternDescriptor::OokCt { dimming_q: 0xBEEF },
                [0xcf, 0xff, 0x02, 0xbe, 0xef, 0x00],
            ),
        ];
        for (payload_len, fec, pattern, wire) in table {
            let h = FrameHeader {
                payload_len,
                fec,
                pattern,
            };
            assert_eq!(h.to_bytes(), wire, "{payload_len} {fec} {pattern:?}");
            assert_eq!(FrameHeader::from_bytes(&wire), Ok(h));
            if fec == FecMode::Off {
                assert_eq!(wire[..2], payload_len.to_be_bytes());
            }
        }
    }

    #[test]
    fn fec_wire_bits_roundtrip_and_reserved_patterns_rejected() {
        for fec in [
            FecMode::Off,
            FecMode::Light,
            FecMode::Medium,
            FecMode::Heavy,
        ] {
            assert_eq!(FecMode::from_wire_bits(fec.wire_bits()), Ok(fec));
        }
        for bits in [0b001u8, 0b010, 0b011, 0b111] {
            assert_eq!(
                FecMode::from_wire_bits(bits),
                Err(DescriptorError::UnknownFec(bits))
            );
        }
    }

    #[test]
    fn header_rejects_short_input() {
        assert!(FrameHeader::from_bytes(&[0; 5]).is_err());
    }

    #[test]
    fn header_rejects_oversize_declared_length() {
        // A 13-bit length can declare up to 8191 B, but MAX_PAYLOAD is
        // 4096: anything above must be rejected at parse time, not
        // silently accepted into buffer sizing.
        let pattern = PatternDescriptor::OokCt { dimming_q: 512 }.to_bytes();
        let mut wire = [0u8; FrameHeader::WIRE_BYTES];
        wire[..2].copy_from_slice(&8191u16.to_be_bytes());
        wire[2..].copy_from_slice(&pattern);
        assert_eq!(
            FrameHeader::from_bytes(&wire),
            Err(DescriptorError::OversizeLength(8191))
        );
        // The boundary itself is fine.
        wire[..2].copy_from_slice(&(MAX_PAYLOAD as u16).to_be_bytes());
        assert!(FrameHeader::from_bytes(&wire).is_ok());
    }

    #[test]
    fn header_rejects_reserved_fec_bits() {
        let pattern = PatternDescriptor::OokCt { dimming_q: 512 }.to_bytes();
        let mut wire = [0u8; FrameHeader::WIRE_BYTES];
        // Flag clear but profile bits set: only corruption produces this.
        wire[..2].copy_from_slice(&(128u16 | (0b011 << 13)).to_be_bytes());
        wire[2..].copy_from_slice(&pattern);
        assert_eq!(
            FrameHeader::from_bytes(&wire),
            Err(DescriptorError::UnknownFec(0b011))
        );
    }

    #[test]
    fn frame_rejects_oversize_payload() {
        let d = PatternDescriptor::OokCt { dimming_q: 512 };
        assert!(Frame::new(d, vec![0; MAX_PAYLOAD]).is_some());
        assert!(Frame::new(d, vec![0; MAX_PAYLOAD + 1]).is_none());
        assert!(Frame::with_fec(d, FecMode::Medium, vec![0; MAX_PAYLOAD + 1]).is_none());
    }

    #[test]
    fn fec_mode_profile_mapping() {
        assert_eq!(FecMode::Off.profile(), None);
        for p in FecProfile::ALL {
            let m = FecMode::from_profile(p);
            assert_eq!(m.profile(), Some(p));
            assert_eq!(m.coded_len(130), p.coded_len(130));
        }
        assert_eq!(FecMode::Off.coded_len(130), 130);
    }

    #[test]
    fn amppm_descriptor_quantizes() {
        let cfg = crate::config::SystemConfig::default();
        let d = amppm_descriptor(&cfg, DimmingLevel::new(0.5).unwrap());
        match d {
            PatternDescriptor::Amppm { dimming_q, tier } => {
                assert_eq!(dimming_q, cfg.quantize_dimming(0.5));
                assert_eq!(tier, 0);
            }
            _ => panic!("wrong variant"),
        }
    }
}
