//! MPPM symbol patterns — `S(N, l)` from §3 of the paper.
//!
//! A *symbol* is a group of `N` time slots with exactly `K` ON slots; the
//! positions of the ONs carry `⌊log2 C(N,K)⌋` data bits (Eq. 2). Following
//! the paper, a *symbol pattern* `S(N, l)` names the `(N, K)` shape, not a
//! specific ON/OFF arrangement; the concrete arrangement is chosen by the
//! enumerative codec in the `combinat` crate.

use crate::dimming::DimmingLevel;
use combinat::BinomialTable;
use std::fmt;

/// A symbol pattern `S(N, l = K/N)`: `N` slots, `K` of them ON.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SymbolPattern {
    n: u16,
    k: u16,
}

impl SymbolPattern {
    /// Create a pattern with `n` slots and `k` ONs.
    /// Returns `None` for `n == 0` or `k > n`.
    pub fn new(n: u16, k: u16) -> Option<SymbolPattern> {
        if n == 0 || k > n {
            None
        } else {
            Some(SymbolPattern { n, k })
        }
    }

    /// The pattern with `n` slots whose dimming level is closest to `l`
    /// (`K = round(l·N)`).
    pub fn from_dimming(n: u16, l: DimmingLevel) -> SymbolPattern {
        assert!(n > 0, "n must be positive");
        let k = (l.value() * n as f64).round() as u16;
        SymbolPattern { n, k: k.min(n) }
    }

    /// Number of slots `N`.
    pub fn n(self) -> u16 {
        self.n
    }

    /// Number of ON slots `K`.
    pub fn k(self) -> u16 {
        self.k
    }

    /// The dimming level `l = K/N` (Eq. 1).
    pub fn dimming(self) -> DimmingLevel {
        DimmingLevel::from_ratio(self.k as u32, self.n as u32).expect("invariant k<=n, n>0")
    }

    /// Data bits per symbol: `⌊log2 C(N,K)⌋` (Eq. 2 numerator).
    pub fn bits_per_symbol(self, table: &BinomialTable) -> u32 {
        table
            .bits_per_symbol(self.n as usize, self.k as usize)
            .expect("invariant k<=n")
    }

    /// Normalized data rate: bits per slot, `⌊log2 C(N,K)⌋ / N` — the
    /// y-axis of Figs. 6 and 9.
    pub fn normalized_rate(self, table: &BinomialTable) -> f64 {
        self.bits_per_symbol(table) as f64 / self.n as f64
    }
}

/// The pattern as the `(N, K)` pair the codec walks take
/// ([`combinat::encode_words`] and [`combinat::decode_words`] read a run
/// of them).
impl From<SymbolPattern> for (usize, usize) {
    fn from(p: SymbolPattern) -> (usize, usize) {
        (p.n as usize, p.k as usize)
    }
}

impl fmt::Debug for SymbolPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for SymbolPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S({}, {:.3})", self.n, self.k as f64 / self.n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use combinat::{
        decode_words, encode_words, BitReader, BitWriter, CodewordError, EncodeScratch,
    };

    fn table() -> BinomialTable {
        BinomialTable::new(512)
    }

    #[test]
    fn constructor_validates() {
        assert!(SymbolPattern::new(10, 2).is_some());
        assert!(SymbolPattern::new(10, 10).is_some());
        assert!(SymbolPattern::new(10, 11).is_none());
        assert!(SymbolPattern::new(0, 0).is_none());
    }

    #[test]
    fn dimming_matches_eq_1() {
        let s = SymbolPattern::new(10, 2).unwrap();
        assert_eq!(s.dimming().value(), 0.2);
    }

    #[test]
    fn from_dimming_rounds_to_nearest_k() {
        let l = DimmingLevel::new(0.524).unwrap();
        let s = SymbolPattern::from_dimming(21, l);
        assert_eq!((s.n(), s.k()), (21, 11)); // paper's S(21, 0.524)
        let s = SymbolPattern::from_dimming(10, DimmingLevel::new(0.97).unwrap());
        assert_eq!(s.k(), 10);
    }

    #[test]
    fn bits_match_paper_examples() {
        let t = table();
        // S(20, 0.1): C(20,2)=190 -> 7 bits; normalized 0.35.
        let s = SymbolPattern::new(20, 2).unwrap();
        assert_eq!(s.bits_per_symbol(&t), 7);
        assert!((s.normalized_rate(&t) - 0.35).abs() < 1e-12);
        // S(21, 0.524): 18 bits -> 18/21 = 0.857 (Fig. 9's peak point).
        let s = SymbolPattern::new(21, 11).unwrap();
        assert_eq!(s.bits_per_symbol(&t), 18);
        assert!((s.normalized_rate(&t) - 18.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn word_codec_roundtrip() {
        let t = table();
        let s = SymbolPattern::new(21, 11).unwrap();
        let mut scratch = EncodeScratch::new();
        for v in [0u128, 1, 77_777, 262_143] {
            let mut w = BitWriter::new();
            w.write_word(v, 18);
            let (bytes, _) = w.finish();
            let mut slots = Vec::new();
            let mut reader = BitReader::new(&bytes);
            encode_words(&t, [s.into()], &mut reader, &mut scratch, &mut slots).unwrap();
            assert_eq!(slots.len(), 21);
            assert_eq!(slots.iter().filter(|&&b| b).count(), 11);
            let mut w = BitWriter::new();
            let walk = [s.into()];
            assert_eq!(decode_words(&t, walk, &slots, &mut scratch, &mut w), Ok(0));
            let (bytes, bits) = w.finish();
            assert_eq!(bits, 18);
            assert_eq!(BitReader::new(&bytes).read_word(18), v);
        }
        let mut w = BitWriter::new();
        assert_eq!(
            decode_words(&t, [s.into()], &[true; 20], &mut scratch, &mut w),
            Err(CodewordError::WrongLength {
                expected: 21,
                got: 20
            })
        );
    }

    #[test]
    fn display_matches_paper_notation() {
        let s = SymbolPattern::new(21, 11).unwrap();
        assert_eq!(s.to_string(), "S(21, 0.524)");
    }
}
