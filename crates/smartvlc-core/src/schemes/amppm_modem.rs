//! AMPPM packaged as a [`SlotModem`]: the planner's chosen super-symbol
//! driving the payload field.
//!
//! The payload is modulated by cycling through the super-symbol's
//! constituent symbol sequence and stopping as soon as the block's bits
//! are covered — the final super-symbol may be *partial*. Padding to
//! whole super-symbols would waste up to `bits(super) − 1` bits per block
//! (as much as 25% for the paper's 128 B payloads at extreme dimming
//! levels); truncation costs at most one symbol of padding. Both sides
//! derive the same truncation point from the block length in the frame
//! header, and the dimming deviation of one partial super-symbol within
//! a frame is far below the perception threshold.

#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::expect_used,
        clippy::unwrap_used,
        clippy::panic
    )
)]

use crate::amppm::planner::SuperSymbolPlan;
use crate::amppm::super_symbol::SuperSymbol;
use crate::dimming::DimmingLevel;
use crate::modem::{bits_for, spread_evenly, DemodError, DemodStats, SlotModem};
use crate::symbol::SymbolPattern;
use combinat::{decode_words, encode_words, BinomialTable, BitReader, BitWriter, EncodeScratch};

/// A modem that repeats one AMPPM super-symbol over the payload block.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AmppmModem {
    super_symbol: SuperSymbol,
}

impl AmppmModem {
    /// Wrap a planner-produced plan.
    pub fn from_plan(plan: &SuperSymbolPlan) -> AmppmModem {
        AmppmModem {
            super_symbol: plan.super_symbol,
        }
    }

    /// Wrap a raw super-symbol (tests, ablations).
    pub fn new(super_symbol: SuperSymbol) -> AmppmModem {
        AmppmModem { super_symbol }
    }

    /// The super-symbol in use.
    pub fn super_symbol(&self) -> SuperSymbol {
        self.super_symbol
    }

    /// Where the walk over an `n_bytes` block ends, derived from the
    /// super-symbol's sequence without listing it: whole passes over the
    /// sequence, then the shortest prefix of it (at least one symbol)
    /// whose bits cover the rest.
    fn layout(&self, table: &BinomialTable, n_bytes: usize) -> Layout {
        let ss = self.super_symbol;
        let (s1, s2) = (ss.s1(), ss.s2());
        let (b1, b2) = (
            u64::from(s1.bits_per_symbol(table)),
            u64::from(s2.bits_per_symbol(table)),
        );
        let per_super = u64::from(ss.m1()) * b1 + u64::from(ss.m2()) * b2;
        assert!(per_super > 0, "super-symbol carries no data: {ss:?}");
        let needed = bits_for(n_bytes) as u64;
        let passes = needed.saturating_sub(1) / per_super;
        let mut covered = passes * per_super;
        let (mut n1, mut n2) = (passes * u64::from(ss.m1()), passes * u64::from(ss.m2()));
        let mut partial = 0;
        for p in ss.symbols() {
            partial += 1;
            if p == s1 {
                n1 += 1;
                covered += b1;
            } else {
                n2 += 1;
                covered += b2;
            }
            if covered >= needed {
                break;
            }
        }
        let slots = n1 * u64::from(s1.n()) + n2 * u64::from(s2.n());
        let ones = n1 * u64::from(s1.k()) + n2 * u64::from(s2.k());
        let (filler, filler_ones) = self.tail_filler(slots, ones);
        Layout {
            symbols: (passes * (u64::from(ss.m1()) + u64::from(ss.m2()))) as usize + partial,
            slots: slots as usize,
            filler,
            filler_ones,
        }
    }

    /// The symbol patterns of a layout's walk, in transmission order.
    fn walk(&self, layout: &Layout) -> impl Iterator<Item = SymbolPattern> {
        self.super_symbol.symbols().cycle().take(layout.symbols)
    }

    /// The truncated walk's partial super-symbol skews the block's duty
    /// away from `lsuper` (its two patterns differ in dimming). A short
    /// data-free filler restores the exact ratio so frame tails don't
    /// produce Type-II brightness dips/bumps: `filler_len` slots of which
    /// `filler_ones` are ON, both pure functions of the walk's `slots`
    /// and `ones`.
    fn tail_filler(&self, slots: u64, ones: u64) -> (usize, usize) {
        let l = self.super_symbol.dimming();
        // Find the smallest filler that brings the total within half a
        // slot of the target ratio. Capped defensively; typical lengths
        // are a handful of slots.
        let cap = 4 * self.super_symbol.n_super() as usize;
        for f in 0..=cap {
            let target = l * (slots + f as u64) as f64;
            let o = (target - ones as f64).round();
            if o >= 0.0 && o <= f as f64 && (ones as f64 + o - target).abs() <= 0.5 {
                return (f, o as usize);
            }
        }
        (0, 0)
    }
}

/// The slot layout of one payload block.
struct Layout {
    /// Symbols in the walk.
    symbols: usize,
    /// Slots the walk's symbols occupy.
    slots: usize,
    /// Data-free tail filler: its slots, and how many of them are ON.
    filler: usize,
    filler_ones: usize,
}

impl SlotModem for AmppmModem {
    fn dimming(&self) -> DimmingLevel {
        DimmingLevel::clamped(self.super_symbol.dimming())
    }

    fn slots_for_payload(&self, table: &BinomialTable, n_bytes: usize) -> usize {
        let layout = self.layout(table, n_bytes);
        layout.slots + layout.filler
    }

    fn modulate(&self, table: &BinomialTable, bytes: &[u8], out: &mut Vec<bool>) {
        let layout = self.layout(table, bytes.len());
        let mut reader = BitReader::new(bytes);
        out.reserve(layout.slots + layout.filler);
        let walk = self.walk(&layout).map(Into::into);
        let mut scratch = EncodeScratch::new();
        #[expect(
            clippy::expect_used,
            reason = "the walk yields the super-symbol's validated patterns, each with k <= n"
        )]
        encode_words(table, walk, &mut reader, &mut scratch, out).expect("invariant k<=n");
        out.extend(spread_evenly(layout.filler_ones, layout.filler));
    }

    fn demodulate(
        &self,
        table: &BinomialTable,
        slots: &[bool],
        n_bytes: usize,
        scratch: &mut EncodeScratch,
    ) -> Result<(Vec<u8>, DemodStats), DemodError> {
        let layout = self.layout(table, n_bytes);
        let expected = layout.slots + layout.filler;
        let coded = match slots.get(..layout.slots) {
            Some(coded) if slots.len() == expected => coded,
            _ => {
                return Err(DemodError::LengthMismatch {
                    expected,
                    got: slots.len(),
                })
            }
        };
        let mut writer = BitWriter::new();
        let walk = self.walk(&layout).map(Into::into);
        let symbol_failures = decode_words(table, walk, coded, scratch, &mut writer)?;
        let (mut bytes, _) = writer.finish();
        bytes.truncate(n_bytes);
        bytes.resize(n_bytes, 0);
        let stats = DemodStats {
            symbol_failures,
            symbols: layout.symbols as u32,
        };
        Ok((bytes, stats))
    }

    fn norm_rate(&self, table: &BinomialTable) -> f64 {
        self.super_symbol.normalized_rate(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amppm::planner::AmppmPlanner;
    use crate::config::SystemConfig;
    use crate::modem::{demodulated, modulated};

    fn table() -> BinomialTable {
        BinomialTable::new(512)
    }

    fn s(n: u16, k: u16) -> SymbolPattern {
        SymbolPattern::new(n, k).unwrap()
    }

    #[test]
    fn roundtrip_mixed_super_symbol() {
        let t = table();
        let ss = SuperSymbol::new(s(21, 11), 2, s(10, 4), 3).unwrap();
        let m = AmppmModem::new(ss);
        let payload: Vec<u8> = (0..128u8).collect();
        let slots = modulated(&m, &t, &payload);
        assert_eq!(slots.len(), m.slots_for_payload(&t, payload.len()));
        let (back, stats) = demodulated(&m, &t, &slots, payload.len()).unwrap();
        assert_eq!(back, payload);
        assert_eq!(stats.symbol_failures, 0);
        assert!(stats.symbols > 0);
    }

    #[test]
    fn truncation_wastes_at_most_one_symbol() {
        // A big super-symbol against a small block: the walk must stop
        // right after covering the bits, not pad to the full super.
        let t = table();
        let ss = SuperSymbol::new(s(21, 11), 10, s(20, 10), 10).unwrap();
        let m = AmppmModem::new(ss);
        let n_bytes = 16; // 128 bits << bits(super) ~ 350
        let slots = m.slots_for_payload(&t, n_bytes);
        assert!(slots < ss.n_super() as usize, "padded to a whole super");
        // Covered bits within one symbol of the requirement.
        let walk = m.walk(&m.layout(&t, n_bytes));
        let walk_bits: u32 = walk.map(|p| p.bits_per_symbol(&t)).sum();
        assert!(walk_bits >= 128);
        assert!(walk_bits < 128 + 19, "walk_bits={walk_bits}");
    }

    #[test]
    fn layout_equals_the_listed_walk() {
        let t = table();
        let supers = [
            SuperSymbol::new(s(21, 11), 2, s(10, 4), 3).unwrap(),
            SuperSymbol::new(s(21, 11), 10, s(20, 10), 10).unwrap(),
            SuperSymbol::new(s(10, 3), 0, s(12, 5), 4).unwrap(),
            SuperSymbol::new(s(9, 1), 7, s(3, 1), 1).unwrap(),
            SuperSymbol::new(s(31, 30), 1, s(30, 29), 5).unwrap(),
            SuperSymbol::uniform(s(10, 5), 3).unwrap(),
        ];
        for ss in supers {
            let m = AmppmModem::new(ss);
            let seq: Vec<_> = ss.symbols().collect();
            for n_bytes in 0..300 {
                // The walk listed symbol by symbol: cycle the sequence and
                // stop once the block's bits are covered.
                let needed = bits_for(n_bytes) as u64;
                let (mut walk, mut covered) = (Vec::new(), 0u64);
                for &p in seq.iter().cycle() {
                    walk.push(p);
                    covered += u64::from(p.bits_per_symbol(&t));
                    if covered >= needed {
                        break;
                    }
                }
                let slots: u64 = walk.iter().map(|p| u64::from(p.n())).sum();
                let ones: u64 = walk.iter().map(|p| u64::from(p.k())).sum();
                let layout = m.layout(&t, n_bytes);
                assert_eq!(
                    m.walk(&layout).collect::<Vec<_>>(),
                    walk,
                    "{ss:?} {n_bytes} B"
                );
                assert_eq!(layout.slots as u64, slots, "{ss:?} {n_bytes} B");
                assert_eq!(
                    (layout.filler, layout.filler_ones),
                    m.tail_filler(slots, ones),
                    "{ss:?} {n_bytes} B"
                );
            }
        }
    }

    #[test]
    fn planner_plan_roundtrips_all_levels() {
        let planner = AmppmPlanner::new(SystemConfig::default()).unwrap();
        let t = table();
        let payload = vec![0xC3u8; 128]; // paper's 128 B payload
        for i in 2..=18 {
            let l = DimmingLevel::new(i as f64 / 20.0).unwrap();
            let plan = planner.plan(l).unwrap();
            if plan.norm_rate == 0.0 {
                continue;
            }
            let m = AmppmModem::from_plan(&plan);
            let slots = modulated(&m, &t, &payload);
            let duty = slots.iter().filter(|&&b| b).count() as f64 / slots.len() as f64;
            // Truncation of the final super-symbol may shift the block
            // duty slightly; it must stay within a couple percent.
            assert!(
                (duty - plan.achieved.value()).abs() < 0.02,
                "modulated duty {duty} drifts from plan at l={:?}",
                l
            );
            let (back, _) = demodulated(&m, &t, &slots, payload.len()).unwrap();
            assert_eq!(back, payload);
        }
    }

    #[test]
    fn corrupted_super_symbol_counts_failures() {
        let t = table();
        let ss = SuperSymbol::new(s(10, 3), 2, s(10, 4), 2).unwrap();
        let m = AmppmModem::new(ss);
        let payload = [0x55u8; 30];
        let mut slots = modulated(&m, &t, &payload);
        slots[3] = !slots[3];
        let (_, stats) = demodulated(&m, &t, &slots, payload.len()).unwrap();
        assert_eq!(stats.symbol_failures, 1);
    }

    #[test]
    fn length_mismatch_rejected() {
        let t = table();
        let m = AmppmModem::new(SuperSymbol::uniform(s(10, 5), 3).unwrap());
        let slots = modulated(&m, &t, &[0u8; 8]);
        assert!(matches!(
            demodulated(&m, &t, &slots[..slots.len() - 10], 8),
            Err(DemodError::LengthMismatch { .. })
        ));
    }
}
