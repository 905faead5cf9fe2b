//! VPPM — Variable Pulse Position Modulation (IEEE 802.15.7), the §7
//! reference scheme.
//!
//! Each bit occupies one `N`-slot symbol containing a single contiguous
//! pulse of width `W = round(l·N)` slots: bit 1 puts the pulse at the
//! *start* of the symbol, bit 0 at the *end* (2-PPM with pulse-width
//! dimming). One bit per symbol regardless of `N`, so the normalized rate
//! is a flat `1/N` — which is why the paper notes VPPM is strictly worse
//! than MPPM in achievable throughput and skips it in the measurements.
//! We implement it anyway for the ablation benches.

use crate::dimming::DimmingLevel;
use crate::modem::{bits_for, DemodError, DemodStats, SlotModem};
use combinat::{BinomialTable, EncodeScratch};

/// A VPPM modem with symbol length `n` and pulse width `w`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VppmModem {
    n: u16,
    w: u16,
}

impl VppmModem {
    /// Create a modem with `n` slots per symbol at the given target level.
    ///
    /// Returns `None` when the snapped pulse width is 0 or `n` (bit 0 and
    /// bit 1 would be indistinguishable).
    pub fn new(n: u16, target: DimmingLevel) -> Option<VppmModem> {
        if n < 2 {
            return None;
        }
        let w = (target.value() * n as f64).round() as u16;
        if w == 0 || w >= n {
            None
        } else {
            Some(VppmModem { n, w })
        }
    }

    /// Slots per symbol.
    pub fn n(&self) -> u16 {
        self.n
    }

    /// Pulse width in slots.
    pub fn width(&self) -> u16 {
        self.w
    }

    fn symbol_for(&self, bit: bool) -> Vec<bool> {
        let n = self.n as usize;
        let w = self.w as usize;
        let mut s = vec![false; n];
        if bit {
            s[..w].fill(true); // rising symbol: pulse leads
        } else {
            s[n - w..].fill(true); // falling symbol: pulse trails
        }
        s
    }

    /// Maximum-likelihood bit decision: correlate against both templates.
    fn decide(&self, symbol: &[bool]) -> (bool, bool) {
        let n = self.n as usize;
        let w = self.w as usize;
        let lead: i32 = symbol[..w].iter().map(|&b| b as i32).sum();
        let trail: i32 = symbol[n - w..].iter().map(|&b| b as i32).sum();
        // Ambiguous symbols (equal correlation) are flagged as failures.
        (lead > trail, lead == trail)
    }
}

impl SlotModem for VppmModem {
    fn dimming(&self) -> DimmingLevel {
        DimmingLevel::from_ratio(self.w as u32, self.n as u32).expect("w < n")
    }

    fn slots_for_payload(&self, _table: &BinomialTable, n_bytes: usize) -> usize {
        bits_for(n_bytes) * self.n as usize
    }

    fn modulate(&self, _table: &BinomialTable, bytes: &[u8], out: &mut Vec<bool>) {
        out.reserve(bits_for(bytes.len()) * self.n as usize);
        for &b in bytes {
            for bit in (0..8).rev() {
                out.extend(self.symbol_for((b >> bit) & 1 == 1));
            }
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
        let mut bytes = Vec::with_capacity(n_bytes);
        let mut stats = DemodStats::default();
        let n = self.n as usize;
        for byte_idx in 0..n_bytes {
            let mut w = 0u8;
            for bit in 0..8 {
                let sym = &slots[(byte_idx * 8 + bit) * n..(byte_idx * 8 + bit + 1) * n];
                let (decided, ambiguous) = self.decide(sym);
                stats.symbols += 1;
                if ambiguous {
                    stats.symbol_failures += 1;
                }
                w = (w << 1) | decided as u8;
            }
            bytes.push(w);
        }
        Ok((bytes, stats))
    }

    fn norm_rate(&self, _table: &BinomialTable) -> f64 {
        1.0 / self.n as f64
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
    fn construction_limits() {
        let l = |x: f64| DimmingLevel::new(x).unwrap();
        assert!(VppmModem::new(10, l(0.5)).is_some());
        assert!(VppmModem::new(10, l(0.01)).is_none()); // w = 0
        assert!(VppmModem::new(10, l(0.99)).is_none()); // w = n
        assert!(VppmModem::new(1, l(0.5)).is_none());
    }

    #[test]
    fn roundtrip() {
        let t = table();
        let payload: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37)).collect();
        for l in [0.1, 0.3, 0.5, 0.8] {
            let m = VppmModem::new(10, DimmingLevel::new(l).unwrap()).unwrap();
            let slots = modulated(&m, &t, &payload);
            assert_eq!(slots.len(), m.slots_for_payload(&t, payload.len()));
            let (back, stats) = demodulated(&m, &t, &slots, payload.len()).unwrap();
            assert_eq!(back, payload, "l={l}");
            assert_eq!(stats.symbol_failures, 0);
        }
    }

    #[test]
    fn waveform_realizes_dimming_exactly() {
        let t = table();
        let m = VppmModem::new(10, DimmingLevel::new(0.3).unwrap()).unwrap();
        let slots = modulated(&m, &t, &[0x0F; 13]);
        let ones = slots.iter().filter(|&&b| b).count();
        assert_eq!(ones as f64 / slots.len() as f64, 0.3);
    }

    #[test]
    fn strictly_slower_than_mppm_same_n() {
        let t = table();
        for k in 2..=8u16 {
            let l = DimmingLevel::from_ratio(k as u32, 10).unwrap();
            let v = VppmModem::new(10, l).unwrap();
            let m = SymbolPattern::new(10, k).unwrap();
            assert!(v.norm_rate(&t) < m.normalized_rate(&t), "k={k}");
        }
    }

    #[test]
    fn ambiguous_symbol_flagged() {
        let t = table();
        let m = VppmModem::new(10, DimmingLevel::new(0.5).unwrap()).unwrap();
        // A symbol with equal lead/trail correlation (2 ones in each half).
        let sym = vec![
            true, true, false, false, false, false, false, true, true, false,
        ];
        let mut slots = modulated(&m, &t, &[0u8]);
        slots[..10].copy_from_slice(&sym);
        let (_, stats) = demodulated(&m, &t, &slots, 1).unwrap();
        assert_eq!(stats.symbol_failures, 1);
    }

    #[test]
    fn decide_tolerates_slot_noise() {
        let m = VppmModem::new(10, DimmingLevel::new(0.5).unwrap()).unwrap();
        let mut sym = m.symbol_for(true);
        sym[9] = true; // one noise slot in the trailing half
        assert_eq!(m.decide(&sym), (true, false));
    }
}
