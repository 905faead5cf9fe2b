//! The SmartVLC frame — Table 1 of the paper.
//!
//! ```text
//! | Preamble | Length | Pattern | Compensation | Sync  | Payload  | CRC |
//! |   3 B    |  2 B   |   4 B   |     x B      | 1 bit | 0..MAX B | 2 B |
//! ```
//!
//! * **Preamble** — 24 alternating ON/OFF slots marking frame start.
//! * **Length** — payload bytes, OOK-modulated (decodable before any
//!   pattern knowledge).
//! * **Pattern** — 4-byte descriptor of the payload modulation
//!   ([`format::PatternDescriptor`]).
//! * **Compensation** — consecutive ONs or OFFs sized so the
//!   preamble+header region matches the payload's dimming level; without
//!   it every frame header would be a 0.5-brightness blip (intra-frame
//!   Type-II flicker).
//! * **Sync** — a single slot of the opposite state, giving the receiver
//!   an edge that ends the compensation run.
//! * **Payload + CRC** — scheme-modulated payload with CRC-16/CCITT over
//!   header fields and payload.

pub mod codec;
pub mod crc;
pub mod format;

pub use codec::{FrameCodecError, FrameStats};
pub use crc::crc16_ccitt;
pub use format::{FecMode, Frame, FrameHeader, PatternDescriptor};
