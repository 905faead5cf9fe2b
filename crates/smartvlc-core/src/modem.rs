//! The slot-domain modem abstraction shared by all schemes.
//!
//! A [`SlotModem`] turns payload bytes into a slot waveform (`true` = LED
//! ON for one `tslot`) at a specific dimming level, and back. The frame
//! layer (Table 1) composes a modem with the preamble/header/compensation
//! machinery; the link layer feeds the waveform through the simulated
//! channel.
//!
//! Schemes implemented:
//! * [`crate::schemes::MppmModem`] — compensation-free baseline (§2.1),
//! * [`crate::schemes::OokCtModem`] — compensation-based baseline (§2.1),
//! * [`crate::schemes::VppmModem`] — IEEE 802.15.7 VPPM reference (§7),
//! * [`crate::schemes::AmppmModem`] — the paper's contribution (§4).

use crate::dimming::DimmingLevel;
use combinat::{BinomialTable, CodewordError, EncodeScratch};
use std::fmt;

/// Statistics from demodulating one payload block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DemodStats {
    /// Symbols whose constant-weight (or pulse-shape) check failed.
    pub symbol_failures: u32,
    /// Total symbols processed.
    pub symbols: u32,
}

impl DemodStats {
    /// Merge statistics from consecutive blocks.
    pub fn merge(self, other: DemodStats) -> DemodStats {
        DemodStats {
            symbol_failures: self.symbol_failures + other.symbol_failures,
            symbols: self.symbols + other.symbols,
        }
    }
}

/// Errors from demodulation.
#[derive(Clone, Debug, PartialEq)]
pub enum DemodError {
    /// The slot buffer does not match the expected block length.
    LengthMismatch {
        /// Expected number of slots.
        expected: usize,
        /// Received number of slots.
        got: usize,
    },
    /// A structural codec error (not a mere symbol corruption).
    Codeword(CodewordError),
    /// The modem configuration cannot carry data (e.g. VPPM with a pulse
    /// width of 0 or N).
    Unmodulatable(&'static str),
}

impl fmt::Display for DemodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DemodError::LengthMismatch { expected, got } => {
                write!(f, "slot block of {got}, expected {expected}")
            }
            DemodError::Codeword(e) => write!(f, "codec error: {e}"),
            DemodError::Unmodulatable(why) => write!(f, "unmodulatable: {why}"),
        }
    }
}

impl std::error::Error for DemodError {}

impl From<CodewordError> for DemodError {
    fn from(e: CodewordError) -> Self {
        DemodError::Codeword(e)
    }
}

/// A block modem: bytes ⇄ slot waveform at a fixed dimming level.
///
/// Implementations must be deterministic: the same bytes produce the same
/// waveform, and `slots_for_payload` must predict exactly how many slots
/// `modulate` appends (the receiver uses it to delimit the payload
/// field).
pub trait SlotModem {
    /// The dimming level the modulated waveform realizes (block average;
    /// for OOK-CT this is exact only in expectation over scrambled data).
    fn dimming(&self) -> DimmingLevel;

    /// Exact waveform length for an `n_bytes` payload block.
    fn slots_for_payload(&self, table: &BinomialTable, n_bytes: usize) -> usize;

    /// Modulate a payload block into slot states, appended to `out`.
    fn modulate(&self, table: &BinomialTable, bytes: &[u8], out: &mut Vec<bool>);

    /// Demodulate a slot block back into exactly `n_bytes` bytes.
    ///
    /// Corrupted symbols are zero-filled and counted in the returned
    /// stats; the caller's CRC decides the frame's fate. `scratch` is the
    /// codec's workspace, which a receiver keeps from block to block.
    fn demodulate(
        &self,
        table: &BinomialTable,
        slots: &[bool],
        n_bytes: usize,
        scratch: &mut EncodeScratch,
    ) -> Result<(Vec<u8>, DemodStats), DemodError>;

    /// Ideal information rate in bits per slot (ignoring errors); used by
    /// the analytic throughput models.
    fn norm_rate(&self, table: &BinomialTable) -> f64;
}

/// `n` flags of which exactly `m ≤ n` are set, spread evenly (Bresenham):
/// flag `i` is set iff `⌊(i+1)·m/n⌋ > ⌊i·m/n⌋`.
///
/// Both ends of a link derive layouts from it — OOK-CT's compensation
/// slots, AMPPM's tail filler and symbol order, the idle filler — so it
/// must stay bit-exact. It steps a remainder `i·m mod n` instead of
/// dividing: adding `m` crosses `n` at most once because `m ≤ n`.
pub fn spread_evenly(m: usize, n: usize) -> impl Iterator<Item = bool> + Clone {
    assert!(m <= n, "cannot spread {m} of {n}");
    let mut acc = 0;
    (0..n).map(move |_| {
        acc += m;
        let hit = acc >= n;
        if hit {
            acc -= n;
        }
        hit
    })
}

/// `modulate` into a fresh buffer.
#[cfg(test)]
pub(crate) fn modulated(modem: &dyn SlotModem, table: &BinomialTable, bytes: &[u8]) -> Vec<bool> {
    let mut slots = Vec::new();
    modem.modulate(table, bytes, &mut slots);
    slots
}

/// `demodulate` with a fresh scratch.
#[cfg(test)]
pub(crate) fn demodulated(
    modem: &dyn SlotModem,
    table: &BinomialTable,
    slots: &[bool],
    n_bytes: usize,
) -> Result<(Vec<u8>, DemodStats), DemodError> {
    modem.demodulate(table, slots, n_bytes, &mut EncodeScratch::new())
}

/// Convenience: bits required for `n_bytes`.
pub(crate) fn bits_for(n_bytes: usize) -> usize {
    n_bytes * 8
}

/// Convenience: ceiling division.
pub(crate) fn div_ceil(a: usize, b: usize) -> usize {
    assert!(b > 0);
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_adds() {
        let a = DemodStats {
            symbol_failures: 1,
            symbols: 10,
        };
        let b = DemodStats {
            symbol_failures: 2,
            symbols: 5,
        };
        assert_eq!(
            a.merge(b),
            DemodStats {
                symbol_failures: 3,
                symbols: 15
            }
        );
    }

    #[test]
    fn demod_error_display() {
        let e = DemodError::LengthMismatch {
            expected: 10,
            got: 9,
        };
        assert!(e.to_string().contains("expected 10"));
    }

    #[test]
    fn spread_evenly_matches_the_division_form() {
        for n in 0..40usize {
            for m in 0..=n {
                let got: Vec<bool> = spread_evenly(m, n).collect();
                let expect: Vec<bool> = (0..n).map(|i| (i * m) / n != ((i + 1) * m) / n).collect();
                assert_eq!(got, expect, "m={m} n={n}");
                assert_eq!(got.iter().filter(|&&b| b).count(), m);
            }
        }
    }

    #[test]
    fn helpers() {
        assert_eq!(bits_for(128), 1024);
        assert_eq!(div_ceil(10, 3), 4);
        assert_eq!(div_ceil(9, 3), 3);
    }
}
