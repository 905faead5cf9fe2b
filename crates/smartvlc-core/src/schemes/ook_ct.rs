//! OOK-CT — On-Off Keying with Compensation Time, the compensation-based
//! baseline (§2.1, Fig. 1 of the paper).
//!
//! Bits map directly to slots (1 = ON). With scrambled data the payload
//! field averages 50% brightness, so *compensation time* of ONs (to
//! brighten) or OFFs (to darken) is added until the block average hits
//! the target dimming level. (We spread the compensation slots evenly
//! through the data instead of appending one block — a 4·D-slot solid
//! run at l = 0.1 would itself be Type-I flicker; the layout is a pure
//! function of the lengths, so the receiver derives it from the header.)
//! Any level is reachable — that is OOK-CT's appeal — but the
//! compensation slots carry no information, so throughput collapses
//! toward the dimming extremes:
//!
//! ```text
//! efficiency(l) = D / (D + c) = min(l, 1−l) / 0.5      (for 50% data)
//! ```
//!
//! e.g. 20% of peak at `l = 0.1` — exactly the deep valley OOK-CT shows in
//! Fig. 15.
//!
//! ## Scrambling
//!
//! The compensation length must be computable by the receiver *before*
//! decoding, so it cannot depend on the payload's actual ONE count. We
//! therefore scramble the payload with a fixed PRBS whitener (both sides
//! share it), size compensation for the expected 50% duty, and accept the
//! residual per-frame brightness jitter — the same engineering choice
//! real OOK links make.

use crate::dimming::DimmingLevel;
use crate::modem::{bits_for, spread_evenly, DemodError, DemodStats, SlotModem};
use combinat::{BinomialTable, EncodeScratch};

/// Multiplicative congruential whitening sequence (PCG-ish byte stream).
fn scramble_byte(index: usize) -> u8 {
    let x = (index as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(31);
    (x ^ (x >> 17)) as u8
}

/// The OOK-CT modem at a fixed target dimming level.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OokCtModem {
    target: DimmingLevel,
}

impl OokCtModem {
    /// Dimming levels this modem supports: compensation length diverges at
    /// the extremes, so levels outside `[MIN_LEVEL, MAX_LEVEL]` are
    /// rejected.
    pub const MIN_LEVEL: f64 = 0.02;
    /// See [`OokCtModem::MIN_LEVEL`].
    pub const MAX_LEVEL: f64 = 0.98;

    /// Create a modem for `target`; `None` outside the supported range.
    pub fn new(target: DimmingLevel) -> Option<OokCtModem> {
        if (Self::MIN_LEVEL..=Self::MAX_LEVEL).contains(&target.value()) {
            Some(OokCtModem { target })
        } else {
            None
        }
    }

    /// Compensation slots appended after `data_slots` payload slots, and
    /// the compensation state (ON = `true`).
    ///
    /// Solves `(0.5·D + state·c) / (D + c) = l` for integer `c ≥ 0`.
    pub fn compensation(&self, data_slots: usize) -> (usize, bool) {
        let l = self.target.value();
        let d = data_slots as f64;
        if l >= 0.5 {
            // Brighten with ONs: c = D(l − ½) / (1 − l).
            let c = d * (l - 0.5) / (1.0 - l);
            (c.round() as usize, true)
        } else {
            // Darken with OFFs: c = D(½ − l) / l.
            let c = d * (0.5 - l) / l;
            (c.round() as usize, false)
        }
    }

    /// Slot efficiency `D/(D+c)` — the analytic factor behind Fig. 15's
    /// OOK-CT curve.
    pub fn efficiency(&self) -> f64 {
        let (c, _) = self.compensation(1_000_000);
        1_000_000.0 / (1_000_000.0 + c as f64)
    }
}

impl SlotModem for OokCtModem {
    fn dimming(&self) -> DimmingLevel {
        self.target
    }

    fn slots_for_payload(&self, _table: &BinomialTable, n_bytes: usize) -> usize {
        let d = bits_for(n_bytes);
        let (c, _) = self.compensation(d);
        d + c
    }

    fn modulate(&self, _table: &BinomialTable, bytes: &[u8], out: &mut Vec<bool>) {
        let d = bits_for(bytes.len());
        let (c, comp_on) = self.compensation(d);
        // Data bits, scrambled.
        let mut data = bytes.iter().enumerate().flat_map(|(i, &b)| {
            let w = b ^ scramble_byte(i);
            (0..8).rev().map(move |bit| (w >> bit) & 1 == 1)
        });
        // Interleave compensation evenly among the data: a single appended
        // block of `c` identical slots would be a Type-I flicker source at
        // extreme dimming levels (e.g. 4·D consecutive OFFs at l = 0.1 is
        // an 8+ ms dark gap). Both sides derive the same layout from the
        // header's length and dimming level — no extra signalling.
        out.extend(spread_evenly(c, d + c).map(|comp| {
            if comp {
                comp_on
            } else {
                data.next().expect("d data slots")
            }
        }));
        debug_assert!(data.next().is_none());
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
        let d = bits_for(n_bytes);
        let (c, _) = self.compensation(d);
        let mut bytes = Vec::with_capacity(n_bytes);
        let (mut w, mut bits) = (0u8, 0);
        for (&s, comp) in slots.iter().zip(spread_evenly(c, d + c)) {
            if !comp {
                w = (w << 1) | s as u8;
                bits += 1;
                if bits == 8 {
                    bytes.push(w ^ scramble_byte(bytes.len()));
                    bits = 0;
                }
            }
        }
        // OOK has no per-symbol integrity structure; errors surface at the
        // frame CRC. Report the data field as one "symbol".
        Ok((
            bytes,
            DemodStats {
                symbol_failures: 0,
                symbols: 1,
            },
        ))
    }

    fn norm_rate(&self, _table: &BinomialTable) -> f64 {
        self.efficiency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modem::{demodulated, modulated};

    fn table() -> BinomialTable {
        BinomialTable::new(16)
    }

    fn modem(l: f64) -> OokCtModem {
        OokCtModem::new(DimmingLevel::new(l).unwrap()).unwrap()
    }

    #[test]
    fn rejects_extreme_levels() {
        assert!(OokCtModem::new(DimmingLevel::OFF).is_none());
        assert!(OokCtModem::new(DimmingLevel::FULL).is_none());
        assert!(OokCtModem::new(DimmingLevel::new(0.01).unwrap()).is_none());
        assert!(OokCtModem::new(DimmingLevel::new(0.5).unwrap()).is_some());
    }

    #[test]
    fn roundtrip() {
        let t = table();
        let payload: Vec<u8> = (0..=200u8).collect();
        for l in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let m = modem(l);
            let slots = modulated(&m, &t, &payload);
            assert_eq!(slots.len(), m.slots_for_payload(&t, payload.len()));
            let (back, _) = demodulated(&m, &t, &slots, payload.len()).unwrap();
            assert_eq!(back, payload, "l={l}");
        }
    }

    #[test]
    fn no_compensation_at_half() {
        let m = modem(0.5);
        let (c, _) = m.compensation(1024);
        assert_eq!(c, 0);
        assert!((m.efficiency() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn efficiency_matches_closed_form() {
        // efficiency(l) = min(l, 1-l)/0.5 for 50% data duty.
        for l in [0.1, 0.2, 0.35, 0.65, 0.9] {
            let m = modem(l);
            let expect = l.min(1.0 - l) / 0.5;
            assert!(
                (m.efficiency() - expect).abs() < 1e-3,
                "l={l}: {} vs {expect}",
                m.efficiency()
            );
        }
    }

    #[test]
    fn waveform_brightness_near_target() {
        // Scrambled data keeps the block average within a couple percent.
        let t = table();
        let payload = [0u8; 128]; // pathological all-zero payload
        for l in [0.1, 0.5, 0.8] {
            let m = modem(l);
            let slots = modulated(&m, &t, &payload);
            let duty = slots.iter().filter(|&&b| b).count() as f64 / slots.len() as f64;
            assert!((duty - l).abs() < 0.05, "l={l} duty={duty}");
        }
    }

    #[test]
    fn compensation_state_follows_target() {
        assert!(modem(0.8).compensation(100).1); // ONs to brighten
        assert!(!modem(0.2).compensation(100).1); // OFFs to darken
    }

    #[test]
    fn length_mismatch_rejected() {
        let t = table();
        let m = modem(0.4);
        let slots = modulated(&m, &t, &[1, 2, 3]);
        assert!(matches!(
            demodulated(&m, &t, &slots[1..], 3),
            Err(DemodError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn scrambler_is_involutive_through_roundtrip() {
        // Scrambling must not leak into the recovered bytes.
        let t = table();
        let m = modem(0.5);
        let payload = vec![0xAA; 16];
        let slots = modulated(&m, &t, &payload);
        // The waveform itself must NOT be the plain 10101010 pattern.
        let plain: Vec<bool> = payload
            .iter()
            .flat_map(|&b| (0..8).rev().map(move |i| (b >> i) & 1 == 1))
            .collect();
        assert_ne!(&slots[..128], &plain[..]);
        let (back, _) = demodulated(&m, &t, &slots, 16).unwrap();
        assert_eq!(back, payload);
    }
}
