//! DarkLight-style night mode — the §7 combination the paper proposes.
//!
//! "SmartVLC is orthogonal to DarkLight and can be combined with it for
//! better performance. When illumination is required, SmartVLC can be
//! applied and when illumination is not required (e.g., at night),
//! DarkLight can then be applied instead." [Tian, Wright & Zhou,
//! MobiCom'16]
//!
//! DarkLight communicates while the LED *appears off*: ultra-short
//! pulses at duty cycles below ~1%, encoding data in the gaps between
//! pulses. We realize it on the SmartVLC substrate as inter-pulse-gap
//! modulation: each symbol is one `pulse_w`-slot pulse followed by a
//! variable gap of `gap_min + v` slots, carrying
//! `⌊log2(gap_levels)⌋` bits in `v`. The duty cycle is bounded above by
//! `pulse_w / (pulse_w + gap_min)` and the average light output is
//! imperceptibly low.
//!
//! Unlike the duty-cycle schemes, symbols here have *variable length*,
//! so this modem is used standalone (no fixed `slots_for_payload` grid):
//! the frame codec addresses it through the same trait by making the
//! symbol length deterministic in the data — both sides derive the slot
//! count from the bytes they carry, which the receiver knows only after
//! decode. To keep Table 1 parsing single-pass, the night-mode modem
//! fixes the gap per symbol to its maximum and modulates the pulse
//! *position within the gap window* instead — equivalent information,
//! constant symbol length.

use crate::dimming::DimmingLevel;
use crate::modem::{bits_for, div_ceil, DemodError, DemodStats, SlotModem};
use combinat::{BinomialTable, BitReader, BitWriter, EncodeScratch};

/// The DarkLight-style night-mode modem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DarklightModem {
    /// Pulse width, slots (DarkLight uses ~500 ns pulses; one 8 µs slot
    /// is our floor).
    pulse_w: u16,
    /// Symbol length: pulse window of `positions` offsets + the pulse.
    positions: u16,
}

impl DarklightModem {
    /// Create a night-mode modem with `positions` pulse offsets per
    /// symbol (power of two recommended) and `pulse_w`-slot pulses.
    ///
    /// Duty cycle = `pulse_w / (positions + pulse_w - 1)`; `None` if that
    /// exceeds 2% (no longer "dark") or positions < 2.
    pub fn new(positions: u16, pulse_w: u16) -> Option<DarklightModem> {
        if positions < 2 || pulse_w == 0 {
            return None;
        }
        let n = positions as u32 + pulse_w as u32 - 1;
        let duty = pulse_w as f64 / n as f64;
        if duty > 0.02 {
            return None;
        }
        Some(DarklightModem { pulse_w, positions })
    }

    /// The paper-scale default: 128 positions, single-slot pulse — duty
    /// 1/128 ≈ 0.8%, 7 bits per 128-slot symbol ≈ 6.8 Kbps at the
    /// 125 kHz slot clock.
    pub fn paper_night_mode() -> DarklightModem {
        DarklightModem::new(128, 1).expect("0.8% duty is dark")
    }

    /// Slots per symbol.
    pub fn symbol_slots(self) -> usize {
        self.positions as usize + self.pulse_w as usize - 1
    }

    /// Bits per symbol.
    pub fn bits_per_symbol(self) -> u32 {
        31 - (self.positions as u32).leading_zeros()
    }

    /// The (tiny) duty cycle.
    pub fn duty(self) -> f64 {
        self.pulse_w as f64 / self.symbol_slots() as f64
    }
}

impl SlotModem for DarklightModem {
    fn dimming(&self) -> DimmingLevel {
        DimmingLevel::clamped(self.duty())
    }

    fn slots_for_payload(&self, _table: &BinomialTable, n_bytes: usize) -> usize {
        div_ceil(bits_for(n_bytes), self.bits_per_symbol() as usize) * self.symbol_slots()
    }

    fn modulate(&self, _table: &BinomialTable, bytes: &[u8], out: &mut Vec<bool>) {
        let bits = self.bits_per_symbol() as usize;
        let symbols = div_ceil(bits_for(bytes.len()), bits);
        let n = self.symbol_slots();
        let mut reader = BitReader::new(bytes);
        out.reserve(symbols * n);
        for _ in 0..symbols {
            let v = reader.read_word(bits) as usize;
            let mut symbol = vec![false; n];
            symbol[v..v + self.pulse_w as usize].fill(true);
            out.extend(symbol);
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
        let w = self.pulse_w as usize;
        let mut writer = BitWriter::new();
        let mut stats = DemodStats::default();
        for chunk in slots.chunks_exact(self.symbol_slots()) {
            stats.symbols += 1;
            // Matched filter: densest w-slot window.
            let mut best = (0usize, -1i32);
            let mut score: i32 = chunk[..w].iter().map(|&b| b as i32).sum();
            let mut pos = 0usize;
            loop {
                if score > best.1 {
                    best = (pos, score);
                }
                if pos + w >= chunk.len() {
                    break;
                }
                score += chunk[pos + w] as i32 - chunk[pos] as i32;
                pos += 1;
            }
            if best.1 <= 0 {
                stats.symbol_failures += 1; // pulse lost entirely
            }
            let v = best.0.min((1usize << bits) - 1);
            writer.write_word(v as u128, bits);
        }
        let (mut bytes, _) = writer.finish();
        bytes.truncate(n_bytes);
        bytes.resize(n_bytes, 0);
        Ok((bytes, stats))
    }

    fn norm_rate(&self, _table: &BinomialTable) -> f64 {
        self.bits_per_symbol() as f64 / self.symbol_slots() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modem::{demodulated, modulated};

    fn table() -> BinomialTable {
        BinomialTable::new(16)
    }

    #[test]
    fn construction_enforces_darkness() {
        assert!(DarklightModem::new(128, 1).is_some());
        assert!(DarklightModem::new(64, 1).is_some()); // 1.6%
        assert!(DarklightModem::new(32, 1).is_none()); // 3.1% is not dark
        assert!(DarklightModem::new(1, 1).is_none());
        assert!(DarklightModem::new(128, 0).is_none());
    }

    #[test]
    fn paper_night_mode_figures() {
        let m = DarklightModem::paper_night_mode();
        assert_eq!(m.symbol_slots(), 128);
        assert_eq!(m.bits_per_symbol(), 7);
        assert!((m.duty() - 1.0 / 128.0).abs() < 1e-12);
        // ~6.8 Kbps at 125 kHz.
        let t = table();
        let kbps = m.norm_rate(&t) * 125.0;
        assert!((6.0..8.0).contains(&kbps), "{kbps}");
    }

    #[test]
    fn roundtrip() {
        let t = table();
        let m = DarklightModem::paper_night_mode();
        let payload: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(199)).collect();
        let slots = modulated(&m, &t, &payload);
        assert_eq!(slots.len(), m.slots_for_payload(&t, payload.len()));
        let duty = slots.iter().filter(|&&b| b).count() as f64 / slots.len() as f64;
        assert!(duty < 0.01, "not dark: {duty}");
        let (back, stats) = demodulated(&m, &t, &slots, payload.len()).unwrap();
        assert_eq!(back, payload);
        assert_eq!(stats.symbol_failures, 0);
    }

    #[test]
    fn wide_pulse_roundtrip() {
        let t = table();
        let m = DarklightModem::new(256, 2).unwrap();
        let payload = [0xE7u8; 32];
        let slots = modulated(&m, &t, &payload);
        let (back, _) = demodulated(&m, &t, &slots, payload.len()).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn lost_pulse_is_flagged() {
        let t = table();
        let m = DarklightModem::paper_night_mode();
        let payload = [0x11u8; 7]; // 8 symbols
        let mut slots = modulated(&m, &t, &payload);
        // Extinguish the first symbol's pulse.
        for s in slots.iter_mut().take(128) {
            *s = false;
        }
        let (_, stats) = demodulated(&m, &t, &slots, payload.len()).unwrap();
        assert_eq!(stats.symbol_failures, 1);
    }

    #[test]
    fn length_mismatch_rejected() {
        let t = table();
        let m = DarklightModem::paper_night_mode();
        let slots = modulated(&m, &t, &[9; 4]);
        assert!(matches!(
            demodulated(&m, &t, &slots[1..], 4),
            Err(DemodError::LengthMismatch { .. })
        ));
    }
}
