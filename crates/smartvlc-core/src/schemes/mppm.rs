//! MPPM — the compensation-free baseline (§2.1 of the paper).
//!
//! Data is carried by the *positions* of the `K` ON slots within each
//! `N`-slot symbol; the dimming level is locked to the `K/N` lattice. The
//! paper's evaluation fixes `N = 20` ("an appropriate value of N is
//! selected as 20" so the SER stays under the bound) and sweeps `K`.

use crate::dimming::DimmingLevel;
use crate::modem::{bits_for, div_ceil, DemodError, DemodStats, SlotModem};
use crate::symbol::SymbolPattern;
use combinat::{decode_words, encode_words, BinomialTable, BitReader, BitWriter, EncodeScratch};

/// A fixed-pattern MPPM modem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MppmModem {
    pattern: SymbolPattern,
}

impl MppmModem {
    /// Modem using pattern `S(n, k/n)`.
    pub fn new(pattern: SymbolPattern) -> MppmModem {
        MppmModem { pattern }
    }

    /// The paper's evaluation baseline: `N = 20`, `K = round(l·20)`.
    pub fn paper_baseline(target: DimmingLevel) -> MppmModem {
        MppmModem {
            pattern: SymbolPattern::from_dimming(20, target),
        }
    }

    /// The underlying symbol pattern.
    pub fn pattern(&self) -> SymbolPattern {
        self.pattern
    }

    fn symbols_for(&self, table: &BinomialTable, n_bytes: usize) -> usize {
        let bits = self.pattern.bits_per_symbol(table) as usize;
        assert!(bits > 0, "pattern carries no data: {:?}", self.pattern);
        div_ceil(bits_for(n_bytes), bits)
    }
}

impl SlotModem for MppmModem {
    fn dimming(&self) -> DimmingLevel {
        self.pattern.dimming()
    }

    fn slots_for_payload(&self, table: &BinomialTable, n_bytes: usize) -> usize {
        self.symbols_for(table, n_bytes) * self.pattern.n() as usize
    }

    fn modulate(&self, table: &BinomialTable, bytes: &[u8], out: &mut Vec<bool>) {
        let symbols = self.symbols_for(table, bytes.len());
        let mut reader = BitReader::new(bytes);
        out.reserve(symbols * self.pattern.n() as usize);
        let walk = std::iter::repeat_n(self.pattern.into(), symbols);
        let mut scratch = EncodeScratch::new();
        encode_words(table, walk, &mut reader, &mut scratch, out).expect("invariant k<=n");
    }

    fn demodulate(
        &self,
        table: &BinomialTable,
        slots: &[bool],
        n_bytes: usize,
        scratch: &mut EncodeScratch,
    ) -> Result<(Vec<u8>, DemodStats), DemodError> {
        let expected = self.slots_for_payload(table, n_bytes);
        if slots.len() != expected {
            return Err(DemodError::LengthMismatch {
                expected,
                got: slots.len(),
            });
        }
        let symbols = self.symbols_for(table, n_bytes);
        let mut writer = BitWriter::new();
        let walk = std::iter::repeat_n(self.pattern.into(), symbols);
        let symbol_failures = decode_words(table, walk, slots, scratch, &mut writer)?;
        let (mut bytes, _) = writer.finish();
        bytes.truncate(n_bytes);
        bytes.resize(n_bytes, 0);
        let stats = DemodStats {
            symbol_failures,
            symbols: symbols as u32,
        };
        Ok((bytes, stats))
    }

    fn norm_rate(&self, table: &BinomialTable) -> f64 {
        self.pattern.normalized_rate(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modem::{demodulated, modulated};

    fn table() -> BinomialTable {
        BinomialTable::new(64)
    }

    fn modem(n: u16, k: u16) -> MppmModem {
        MppmModem::new(SymbolPattern::new(n, k).unwrap())
    }

    #[test]
    fn roundtrip_various_patterns() {
        let t = table();
        let payload: Vec<u8> = (0..=255u8).collect();
        for (n, k) in [(20, 2), (20, 10), (20, 18), (10, 5), (21, 11)] {
            let m = modem(n, k);
            let slots = modulated(&m, &t, &payload);
            assert_eq!(slots.len(), m.slots_for_payload(&t, payload.len()));
            let (back, stats) = demodulated(&m, &t, &slots, payload.len()).unwrap();
            assert_eq!(back, payload, "S({n},{k})");
            assert_eq!(stats.symbol_failures, 0);
        }
    }

    #[test]
    fn biguint_fallback_roundtrips() {
        // C(200,100) >= 2^128: the one path no default-calibration frame
        // reaches, so pin it here (a data word spans two 128-bit reads).
        let t = BinomialTable::new(200);
        assert!(t.binomial_u128(200, 100).is_none());
        let m = modem(200, 100);
        let payload: Vec<u8> = (0..100u8).map(|b| b.wrapping_mul(151)).collect();
        let slots = modulated(&m, &t, &payload);
        assert_eq!(slots.len(), m.slots_for_payload(&t, payload.len()));
        assert_eq!(slots.iter().filter(|&&b| b).count() * 2, slots.len());
        let (back, stats) = demodulated(&m, &t, &slots, payload.len()).unwrap();
        assert_eq!(back, payload);
        assert_eq!(stats.symbol_failures, 0);
        let mut corrupted = slots.clone();
        corrupted[7] = !corrupted[7];
        let (_, stats) = demodulated(&m, &t, &corrupted, payload.len()).unwrap();
        assert_eq!(stats.symbol_failures, 1);
    }

    #[test]
    fn waveform_realizes_exact_dimming() {
        let t = table();
        let m = modem(20, 6);
        let slots = modulated(&m, &t, &[0x5A; 64]);
        let ones = slots.iter().filter(|&&b| b).count();
        assert_eq!(ones as f64 / slots.len() as f64, 0.3);
    }

    #[test]
    fn paper_baseline_snaps_to_lattice() {
        let m = MppmModem::paper_baseline(DimmingLevel::new(0.13).unwrap());
        assert_eq!(m.pattern().k(), 3); // 0.13*20 = 2.6 -> 3
        assert_eq!(m.dimming().value(), 0.15);
    }

    #[test]
    fn corrupted_symbol_counted_not_fatal() {
        let t = table();
        let m = modem(20, 10);
        let payload = [0xFFu8; 32];
        let mut slots = modulated(&m, &t, &payload);
        slots[0] = !slots[0];
        slots[25] = !slots[25];
        let (_, stats) = demodulated(&m, &t, &slots, payload.len()).unwrap();
        assert_eq!(stats.symbol_failures, 2);
    }

    #[test]
    fn length_mismatch_rejected() {
        let t = table();
        let m = modem(20, 10);
        let slots = modulated(&m, &t, &[0; 16]);
        assert!(matches!(
            demodulated(&m, &t, &slots[..slots.len() - 1], 16),
            Err(DemodError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn norm_rate_matches_eq_2() {
        let t = table();
        assert!((modem(20, 2).norm_rate(&t) - 0.35).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "carries no data")]
    fn zero_bit_pattern_panics_on_use() {
        let t = table();
        modem(20, 0).slots_for_payload(&t, 8);
    }
}
