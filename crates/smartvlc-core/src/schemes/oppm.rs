//! OPPM — Overlapping Pulse Position Modulation (Bai, Xu & Fan, ref [8]
//! of the paper: "Joint LED dimming and high capacity visible light
//! communication by overlapping PPM").
//!
//! One contiguous pulse of width `w` slots starts at one of the allowed
//! positions of an `n`-slot symbol; positions may *overlap* (stride 1),
//! giving `n − w + 1` codewords — `⌊log2(n−w+1)⌋` bits per symbol — at a
//! dimming level of `w/n`. Like MPPM it is compensation-free; unlike
//! MPPM its constant-weight structure is a single run, so it trades
//! ~half of MPPM's rate for much simpler pulse detection (matched filter
//! over one edge pair). The paper groups it with the compensation-free
//! family in §7; we include it for the scheme-ablation benches.

use crate::dimming::DimmingLevel;
use crate::modem::{bits_for, div_ceil, DemodError, DemodStats, SlotModem};
use combinat::{BinomialTable, EncodeScratch};

/// An OPPM modem with symbol length `n` and pulse width `w`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OppmModem {
    n: u16,
    w: u16,
}

impl OppmModem {
    /// Create a modem: `n` slots per symbol, pulse width snapped from the
    /// target dimming level. `None` when fewer than two pulse positions
    /// exist (no data) or the width degenerates to 0 or n.
    pub fn new(n: u16, target: DimmingLevel) -> Option<OppmModem> {
        if n < 3 {
            return None;
        }
        let w = (target.value() * n as f64).round() as u16;
        OppmModem::from_raw(n, w)
    }

    /// Create from explicit `(n, w)`.
    pub fn from_raw(n: u16, w: u16) -> Option<OppmModem> {
        if n < 3 || w == 0 || w >= n {
            return None;
        }
        let positions = n - w + 1;
        if positions < 2 {
            return None;
        }
        Some(OppmModem { n, w })
    }

    /// Slots per symbol.
    pub fn n(self) -> u16 {
        self.n
    }

    /// Pulse width in slots.
    pub fn width(self) -> u16 {
        self.w
    }

    /// Distinct pulse positions.
    pub fn positions(self) -> u16 {
        self.n - self.w + 1
    }

    /// Data bits per symbol: `⌊log2(n − w + 1)⌋`.
    pub fn bits_per_symbol(self) -> u32 {
        31 - (self.positions() as u32).leading_zeros()
    }

    fn encode_symbol(self, value: u16) -> Vec<bool> {
        debug_assert!(value < self.positions());
        let mut s = vec![false; self.n as usize];
        s[value as usize..(value + self.w) as usize].fill(true);
        s
    }

    /// Maximum-likelihood position: the offset whose `w`-slot window
    /// contains the most ON slots (ties toward the smaller offset, i.e.
    /// the transmitted convention).
    fn decode_symbol(self, slots: &[bool]) -> (u16, bool) {
        let w = self.w as usize;
        let mut best_pos = 0u16;
        let mut best_score = -1i32;
        let mut window: i32 = slots[..w].iter().map(|&b| b as i32).sum();
        let mut pos = 0u16;
        loop {
            if window > best_score {
                best_score = window;
                best_pos = pos;
            }
            let next = pos as usize + w;
            if next >= slots.len() {
                break;
            }
            window += slots[next] as i32 - slots[pos as usize] as i32;
            pos += 1;
        }
        // A clean symbol scores exactly w; anything less means slot noise
        // touched the pulse (decodable but degraded).
        let degraded = best_score < self.w as i32;
        // Out-of-range positions cannot occur: the scan is bounded.
        let ambiguous = degraded && best_score * 2 <= self.w as i32;
        (best_pos.min(self.positions() - 1), ambiguous)
    }
}

impl SlotModem for OppmModem {
    fn dimming(&self) -> DimmingLevel {
        DimmingLevel::from_ratio(self.w as u32, self.n as u32).expect("w < n")
    }

    fn slots_for_payload(&self, _table: &BinomialTable, n_bytes: usize) -> usize {
        let bits = self.bits_per_symbol() as usize;
        div_ceil(bits_for(n_bytes), bits) * self.n as usize
    }

    fn modulate(&self, _table: &BinomialTable, bytes: &[u8], out: &mut Vec<bool>) {
        let bits = self.bits_per_symbol() as usize;
        let symbols = div_ceil(bits_for(bytes.len()), bits);
        let mut reader = combinat::BitReader::new(bytes);
        out.reserve(symbols * self.n as usize);
        for _ in 0..symbols {
            // The final partial word reads zero-padded.
            out.extend(self.encode_symbol(reader.read_word(bits) as u16));
        }
    }

    fn demodulate(
        &self,
        table: &BinomialTable,
        slots: &[bool],
        n_bytes: usize,
        _scratch: &mut EncodeScratch,
    ) -> Result<(Vec<u8>, DemodStats), DemodError> {
        let expected = self.slots_for_payload(table, n_bytes);
        if slots.len() != expected {
            return Err(DemodError::LengthMismatch {
                expected,
                got: slots.len(),
            });
        }
        let bits = self.bits_per_symbol() as usize;
        let mut writer = combinat::BitWriter::new();
        let mut stats = DemodStats::default();
        for chunk in slots.chunks_exact(self.n as usize) {
            stats.symbols += 1;
            let (pos, ambiguous) = self.decode_symbol(chunk);
            if ambiguous {
                stats.symbol_failures += 1;
            }
            writer.write_word(pos as u128, bits);
        }
        let (mut bytes, _) = writer.finish();
        bytes.truncate(n_bytes);
        bytes.resize(n_bytes, 0);
        Ok((bytes, stats))
    }

    fn norm_rate(&self, _table: &BinomialTable) -> f64 {
        self.bits_per_symbol() as f64 / self.n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modem::{demodulated, modulated};
    use crate::symbol::SymbolPattern;

    fn table() -> BinomialTable {
        BinomialTable::new(64)
    }

    #[test]
    fn construction_rules() {
        let l = |x: f64| DimmingLevel::new(x).unwrap();
        assert!(OppmModem::new(10, l(0.3)).is_some());
        assert!(OppmModem::new(10, l(0.01)).is_none()); // w = 0
        assert!(OppmModem::new(10, l(0.99)).is_none()); // w = n
                                                        // w = 9 leaves exactly 2 positions: 1 bit/symbol, still valid.
        let edge = OppmModem::from_raw(10, 9).unwrap();
        assert_eq!(edge.bits_per_symbol(), 1);
        assert!(OppmModem::from_raw(2, 1).is_none()); // n < 3
        assert!(OppmModem::from_raw(10, 10).is_none()); // w = n
        assert!(OppmModem::from_raw(10, 0).is_none());
    }

    #[test]
    fn positions_and_bits() {
        let m = OppmModem::from_raw(10, 3).unwrap();
        assert_eq!(m.positions(), 8);
        assert_eq!(m.bits_per_symbol(), 3);
        let m = OppmModem::from_raw(20, 10).unwrap();
        assert_eq!(m.positions(), 11);
        assert_eq!(m.bits_per_symbol(), 3);
    }

    #[test]
    fn roundtrip() {
        let t = table();
        let payload: Vec<u8> = (0..100u8).map(|i| i.wrapping_mul(73)).collect();
        for (n, w) in [(10, 3), (16, 8), (20, 2), (12, 6)] {
            let m = OppmModem::from_raw(n, w).unwrap();
            let slots = modulated(&m, &t, &payload);
            assert_eq!(slots.len(), m.slots_for_payload(&t, payload.len()));
            let (back, stats) = demodulated(&m, &t, &slots, payload.len()).unwrap();
            assert_eq!(back, payload, "n={n} w={w}");
            assert_eq!(stats.symbol_failures, 0);
        }
    }

    #[test]
    fn waveform_duty_matches() {
        let t = table();
        let m = OppmModem::from_raw(10, 3).unwrap();
        let slots = modulated(&m, &t, &[0xFF; 30]);
        let duty = slots.iter().filter(|&&b| b).count() as f64 / slots.len() as f64;
        assert!((duty - 0.3).abs() < 1e-9);
    }

    #[test]
    fn slower_than_mppm_same_shape() {
        // The reason the paper builds on MPPM: at the same (n, duty),
        // MPPM's C(n,k) codebook beats OPPM's n-w+1 positions.
        let t = table();
        for (n, k) in [(10u16, 3u16), (20, 6), (16, 8)] {
            let mppm = SymbolPattern::new(n, k).unwrap();
            let oppm = OppmModem::from_raw(n, k).unwrap();
            assert!(oppm.norm_rate(&t) < mppm.normalized_rate(&t), "n={n} k={k}");
        }
    }

    #[test]
    fn single_slot_noise_is_tolerated() {
        let t = table();
        let m = OppmModem::from_raw(12, 5).unwrap();
        let payload = [0x5Au8; 12];
        let mut slots = modulated(&m, &t, &payload);
        // Knock one slot out of the middle of a pulse: matched filter
        // still finds the position.
        let hit = slots.iter().position(|&b| b).unwrap() + 2;
        slots[hit] = false;
        let (back, _) = demodulated(&m, &t, &slots, payload.len()).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn obliterated_symbol_flags_ambiguity() {
        let t = table();
        let m = OppmModem::from_raw(12, 5).unwrap();
        let payload = [0x00u8; 3];
        let mut slots = modulated(&m, &t, &payload);
        for s in slots.iter_mut().take(12) {
            *s = false; // first symbol wiped dark
        }
        let (_, stats) = demodulated(&m, &t, &slots, payload.len()).unwrap();
        assert!(stats.symbol_failures >= 1);
    }

    #[test]
    fn length_mismatch_rejected() {
        let t = table();
        let m = OppmModem::from_raw(10, 3).unwrap();
        let slots = modulated(&m, &t, &[1, 2, 3]);
        assert!(matches!(
            demodulated(&m, &t, &slots[..slots.len() - 1], 3),
            Err(DemodError::LengthMismatch { .. })
        ));
    }
}
