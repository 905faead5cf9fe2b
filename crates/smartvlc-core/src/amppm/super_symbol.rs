//! Super-symbols (Figs. 5 and 7 of the paper).
//!
//! A super-symbol `⟨S1(N1,l1), m1, S2(N2,l2), m2⟩` multiplexes `m1` copies
//! of pattern `S1` with `m2` copies of `S2`. Its dimming level is the
//! slot-weighted average
//!
//! ```text
//! lsuper = (l1·m1·N1 + l2·m2·N2) / (m1·N1 + m2·N2)
//! ```
//!
//! and — the crucial property from §4.1.2 — multiplexing does **not**
//! raise the symbol error rate, because each constituent symbol is decoded
//! independently.
//!
//! ## Symbol ordering
//!
//! The paper defines a super-symbol as a concatenation and bounds its
//! *length* (`Nsuper ≤ Nmax`, Eq. 4) so the brightness difference between
//! its two halves repeats fast enough to be invisible. We additionally
//! *interleave* the copies evenly (a Bresenham spread), which strictly
//! reduces the low-frequency content of the waveform relative to plain
//! `S1…S1 S2…S2` concatenation while conveying exactly the same data. The
//! ordering is a pure function of `(S1, m1, S2, m2)`, so the receiver
//! reconstructs it from the frame header without extra signalling.

use crate::modem::spread_evenly;
use crate::symbol::SymbolPattern;
use combinat::BinomialTable;
use std::fmt;

/// A super-symbol `⟨S1, m1, S2, m2⟩`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SuperSymbol {
    s1: SymbolPattern,
    m1: u16,
    s2: SymbolPattern,
    m2: u16,
}

impl SuperSymbol {
    /// Compose a super-symbol. Returns `None` if both multiplicities are
    /// zero.
    pub fn new(s1: SymbolPattern, m1: u16, s2: SymbolPattern, m2: u16) -> Option<SuperSymbol> {
        if m1 == 0 && m2 == 0 {
            None
        } else {
            Some(SuperSymbol { s1, m1, s2, m2 })
        }
    }

    /// A super-symbol made of a single pattern (`m2 = 0`).
    pub fn uniform(s: SymbolPattern, m: u16) -> Option<SuperSymbol> {
        SuperSymbol::new(s, m, s, 0)
    }

    /// First constituent pattern.
    pub fn s1(&self) -> SymbolPattern {
        self.s1
    }

    /// Copies of the first pattern.
    pub fn m1(&self) -> u16 {
        self.m1
    }

    /// Second constituent pattern.
    pub fn s2(&self) -> SymbolPattern {
        self.s2
    }

    /// Copies of the second pattern.
    pub fn m2(&self) -> u16 {
        self.m2
    }

    /// Total slots `Nsuper = m1·N1 + m2·N2`.
    pub fn n_super(&self) -> u32 {
        self.m1 as u32 * self.s1.n() as u32 + self.m2 as u32 * self.s2.n() as u32
    }

    /// Total ON slots.
    pub fn ones(&self) -> u32 {
        self.m1 as u32 * self.s1.k() as u32 + self.m2 as u32 * self.s2.k() as u32
    }

    /// The super-symbol's dimming level `lsuper` (exact ratio).
    pub fn dimming(&self) -> f64 {
        self.ones() as f64 / self.n_super() as f64
    }

    /// Total data bits carried by one super-symbol.
    pub fn bits(&self, table: &BinomialTable) -> u32 {
        self.m1 as u32 * self.s1.bits_per_symbol(table)
            + self.m2 as u32 * self.s2.bits_per_symbol(table)
    }

    /// Normalized data rate (bits per slot).
    pub fn normalized_rate(&self, table: &BinomialTable) -> f64 {
        self.bits(table) as f64 / self.n_super() as f64
    }

    /// Expected fraction of constituent symbols decoded in error, given
    /// per-pattern SERs (§4.1.2: symbols are decoded independently, so the
    /// super-symbol does not multiply error rates).
    pub fn mean_symbol_error_rate(&self, ser1: f64, ser2: f64) -> f64 {
        let total = (self.m1 + self.m2) as f64;
        (self.m1 as f64 * ser1 + self.m2 as f64 * ser2) / total
    }

    /// The deterministic transmission order of constituent symbols: `m1`
    /// copies of `S1` spread evenly among `m2` copies of `S2`.
    pub fn symbols(&self) -> impl Iterator<Item = SymbolPattern> + Clone {
        let (s1, s2) = (self.s1, self.s2);
        let order = spread_evenly(self.m1 as usize, (self.m1 + self.m2) as usize);
        order.map(move |first| if first { s1 } else { s2 })
    }
}

impl fmt::Debug for SuperSymbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{} x{}, {} x{}>", self.s1, self.m1, self.s2, self.m2)
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

    /// One super-symbol's waveform: its constituent symbols in order
    /// through the run encoder, as the AMPPM modem sends it.
    fn encode_super(ss: &SuperSymbol, t: &BinomialTable, reader: &mut BitReader<'_>) -> Vec<bool> {
        let mut slots = Vec::new();
        let walk = ss.symbols().map(Into::into);
        encode_words(t, walk, reader, &mut EncodeScratch::new(), &mut slots).unwrap();
        slots
    }

    /// Decode one super-symbol's slots into `writer` through the run
    /// decoder, as the AMPPM modem receives it; returns the number of
    /// failed symbols.
    fn decode_super(
        ss: &SuperSymbol,
        t: &BinomialTable,
        slots: &[bool],
        writer: &mut BitWriter,
    ) -> Result<u32, CodewordError> {
        let walk = ss.symbols().map(Into::into);
        decode_words(t, walk, slots, &mut EncodeScratch::new(), writer)
    }

    fn s(n: u16, k: u16) -> SymbolPattern {
        SymbolPattern::new(n, k).unwrap()
    }

    #[test]
    fn paper_fig5_example() {
        // Append S(10,0.2) to S(10,0.1): lsuper = 0.15, Nsuper = 20.
        let ss = SuperSymbol::new(s(10, 1), 1, s(10, 2), 1).unwrap();
        assert_eq!(ss.n_super(), 20);
        assert!((ss.dimming() - 0.15).abs() < 1e-12);
        // Three copies of (10,0.2) after one (10,0.1): l = 7/40 = 0.175.
        let ss = SuperSymbol::new(s(10, 1), 1, s(10, 2), 3).unwrap();
        assert!((ss.dimming() - 0.175).abs() < 1e-12);
    }

    #[test]
    fn both_multiplicities_zero_rejected() {
        assert!(SuperSymbol::new(s(10, 1), 0, s(10, 2), 0).is_none());
    }

    #[test]
    fn lsuper_formula() {
        // lsuper = (l1 m1 N1 + l2 m2 N2)/(m1 N1 + m2 N2), Sec. 4.2.
        let ss = SuperSymbol::new(s(21, 11), 3, s(21, 12), 2).unwrap();
        let expect = (11.0 * 3.0 + 12.0 * 2.0) / (21.0 * 5.0);
        assert!((ss.dimming() - expect).abs() < 1e-12);
    }

    #[test]
    fn bits_sum_over_constituents() {
        let t = table();
        let ss = SuperSymbol::new(s(21, 11), 2, s(20, 10), 1).unwrap();
        let expect = 2 * s(21, 11).bits_per_symbol(&t) + s(20, 10).bits_per_symbol(&t);
        assert_eq!(ss.bits(&t), expect);
    }

    #[test]
    fn sequence_has_exact_multiplicities_and_is_spread() {
        let ss = SuperSymbol::new(s(10, 1), 3, s(12, 2), 9).unwrap();
        let seq: Vec<_> = ss.symbols().collect();
        assert_eq!(seq.len(), 12);
        assert_eq!(seq.iter().filter(|&&p| p == s(10, 1)).count(), 3);
        // Evenly spread: no two S1 adjacent when m2 >= 2*m1.
        for w in seq.windows(2) {
            assert!(!(w[0] == s(10, 1) && w[1] == s(10, 1)));
        }
    }

    #[test]
    fn sequence_is_deterministic() {
        let ss = SuperSymbol::new(s(11, 3), 5, s(13, 7), 8).unwrap();
        assert!(ss.symbols().eq(ss.symbols()));
    }

    #[test]
    fn uniform_super_symbol() {
        let ss = SuperSymbol::uniform(s(20, 10), 4).unwrap();
        assert_eq!(ss.n_super(), 80);
        assert_eq!(ss.dimming(), 0.5);
        assert_eq!(ss.symbols().count(), 4);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let t = table();
        let ss = SuperSymbol::new(s(21, 11), 2, s(10, 4), 3).unwrap();
        let payload: Vec<u8> = (0u8..64).collect();
        let mut reader = BitReader::new(&payload);
        let slots = encode_super(&ss, &t, &mut reader);
        assert_eq!(slots.len(), ss.n_super() as usize);
        // The waveform realizes the promised dimming level exactly.
        assert_eq!(slots.iter().filter(|&&b| b).count() as u32, ss.ones());
        let mut w = BitWriter::new();
        let failures = decode_super(&ss, &t, &slots, &mut w).unwrap();
        assert_eq!(failures, 0);
        let consumed = ss.bits(&t) as usize;
        let (bytes, nbits) = w.finish();
        assert_eq!(nbits, consumed);
        // Compare against the bits actually read.
        let mut orig = BitReader::new(&payload);
        let mut got = BitReader::new(&bytes);
        for _ in 0..consumed {
            assert_eq!(orig.read_bit(), got.read_bit());
        }
    }

    #[test]
    fn encode_pads_dry_reader_with_zeros() {
        let t = table();
        let ss = SuperSymbol::new(s(20, 10), 10, s(20, 10), 0).unwrap();
        let mut reader = BitReader::new(&[0xFF]); // 8 bits for 170+ bit capacity
        let slots = encode_super(&ss, &t, &mut reader);
        assert_eq!(slots.len(), 200);
        // Still a valid constant-weight waveform.
        assert_eq!(slots.iter().filter(|&&b| b).count(), 100);
    }

    #[test]
    fn decode_flags_corrupted_symbols_but_keeps_alignment() {
        let t = table();
        let ss = SuperSymbol::new(s(10, 4), 4, s(10, 4), 0).unwrap();
        let payload = [0xA5u8; 8];
        let mut reader = BitReader::new(&payload);
        let mut slots = encode_super(&ss, &t, &mut reader);
        slots[1] = !slots[1]; // corrupt the first symbol
        let mut w = BitWriter::new();
        let failures = decode_super(&ss, &t, &slots, &mut w).unwrap();
        assert_eq!(failures, 1);
        let (_, nbits) = w.finish();
        assert_eq!(nbits as u32, ss.bits(&t), "alignment preserved");
    }

    #[test]
    fn decode_rejects_wrong_length() {
        let t = table();
        let ss = SuperSymbol::uniform(s(10, 5), 2).unwrap();
        let mut w = BitWriter::new();
        assert!(matches!(
            decode_super(&ss, &t, &[false; 19], &mut w),
            Err(CodewordError::WrongLength {
                expected: 10,
                got: 9
            })
        ));
    }

    #[test]
    fn mean_ser_is_multiplicity_weighted() {
        let ss = SuperSymbol::new(s(10, 1), 1, s(10, 2), 3).unwrap();
        let m = ss.mean_symbol_error_rate(0.004, 0.002);
        assert!((m - (0.004 + 3.0 * 0.002) / 4.0).abs() < 1e-15);
    }
}
