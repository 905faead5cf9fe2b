//! # smartvlc-fec — dimming-aware forward error correction
//!
//! A shortened Reed–Solomon(255, k) outer code over GF(256) with a block
//! interleaver, sized for SmartVLC's frame blocks. The code operates on
//! *bytes before modulation*: AMPPM's constant-weight super-symbols carry
//! parity symbols at exactly the same dimming level as data symbols, so
//! raising the FEC overhead buys robustness with airtime, never with
//! brightness — the illumination contract (Goal 1 of the paper) is
//! untouchable by the error-control layer.
//!
//! Why an outer byte code: occlusion and saturation faults corrupt
//! *slots*, the demodulator zero-fills the bytes of each constant-weight
//! symbol that fails its integrity check, and those bytes are contiguous
//! — a classic burst-erasure shape. Interleaving deals the block across
//! codewords so a burst of `B` bytes costs each codeword only `⌈B/c⌉`
//! errors (cf. the interleaving argument in "Noise Mitigation Methods for
//! Digital VLC"), and the Reed–Solomon parity corrects them in place,
//! saving the CRC + ARQ round trip.
//!
//! # Example
//!
//! ```
//! use smartvlc_fec::{decode, encode, FecProfile};
//!
//! let data: Vec<u8> = (0..130u32).map(|i| (i * 7) as u8).collect();
//! let mut coded = encode(FecProfile::Medium, &data);
//! // A 24-byte burst — with depth-2 interleaving, 12 errors per
//! // codeword, over t = 8 … so escalate: Heavy shrugs it off.
//! let mut heavy = encode(FecProfile::Heavy, &data);
//! for b in heavy.iter_mut().skip(10).take(24) {
//!     *b ^= 0xff;
//! }
//! let out = decode(FecProfile::Heavy, &heavy, data.len());
//! assert!(out.ok);
//! assert_eq!(out.data, data);
//! assert_eq!(out.corrected, 24);
//! # let _ = coded.pop();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gf256;
pub mod interleave;
pub mod profile;
pub mod rs;

pub use interleave::{decode, encode, FecDecode};
pub use profile::FecProfile;
pub use rs::{ReedSolomon, RsError};

/// The kill switch: `SMARTVLC_FEC=off` (or `0`) force-disables coding
/// process-wide while keeping every other code path and RNG draw
/// identical — the artifact-compatibility lever CI pulls to check that
/// the ARQ-only numbers are reproducible from the same binary.
pub fn enabled_from_env() -> bool {
    // The one environment read in this crate, allowed by
    // scripts/check_no_env.sh: perfbench calls this function, so the read
    // moves out with ROADMAP item 1.
    !switched_off(std::env::var("SMARTVLC_FEC").ok().as_deref())
}

fn switched_off(raw: Option<&str>) -> bool {
    matches!(raw, Some("off") | Some("0"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_gate_defaults_on() {
        assert!(!switched_off(None));
        assert!(!switched_off(Some("on")));
        assert!(switched_off(Some("off")));
        assert!(switched_off(Some("0")));
    }
}
