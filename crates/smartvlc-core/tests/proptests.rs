//! Property-based tests for the modulation core.

use combinat::{decode_words, encode_words, BinomialTable, BitReader, BitWriter, EncodeScratch};
use proptest::prelude::*;
use smartvlc_core::adaptation::{measured, perceived};
use smartvlc_core::amppm::SuperSymbol;
use smartvlc_core::frame::format::{FecMode, FrameHeader, PatternDescriptor, MAX_PAYLOAD};
use smartvlc_core::{DimmingLevel, SlotErrorProbs, SymbolPattern, SystemConfig};

proptest! {
    /// Every valid pattern descriptor survives the 4-byte wire format.
    #[test]
    fn descriptor_wire_roundtrip(tag in 0u8..6, a in any::<u16>(), b in any::<u8>()) {
        let d = match tag {
            0 => {
                let n = (a % 4095) + 1;
                PatternDescriptor::Mppm { n, k: b as u16 % (n + 1) }
            }
            1 => PatternDescriptor::OokCt { dimming_q: a },
            2 => PatternDescriptor::Amppm { dimming_q: a, tier: b },
            3 => {
                let n = (b % 250).max(2);
                PatternDescriptor::Vppm { n, width: 1 + (a as u8 % (n - 1)) }
            }
            4 => {
                let n = (b % 250).max(3);
                PatternDescriptor::Oppm { n, width: 1 + (a as u8 % (n - 1)) }
            }
            _ => PatternDescriptor::Darklight {
                positions: (a % 60_000).max(2),
                pulse_w: b.max(1),
            },
        };
        prop_assert_eq!(PatternDescriptor::from_bytes(d.to_bytes()), Ok(d));
        // And through the full header, under every FEC mode.
        for fec in [FecMode::Off, FecMode::Light, FecMode::Medium, FecMode::Heavy] {
            let h = FrameHeader {
                payload_len: a % (MAX_PAYLOAD as u16 + 1),
                fec,
                pattern: d,
            };
            prop_assert_eq!(FrameHeader::from_bytes(&h.to_bytes()), Ok(h));
        }
    }

    /// Arbitrary 6-byte strings never panic the header parser; anything
    /// it accepts declares an in-bounds payload length and survives a
    /// re-serialization round trip.
    #[test]
    fn header_parser_is_total(bytes in proptest::collection::vec(any::<u8>(), 6..=6)) {
        if let Ok(h) = FrameHeader::from_bytes(&bytes) {
            prop_assert!(h.payload_len as usize <= MAX_PAYLOAD);
            prop_assert_eq!(FrameHeader::from_bytes(&h.to_bytes()), Ok(h));
        }
    }

    /// Arbitrary 4-byte strings never panic the descriptor parser, and
    /// anything it accepts re-serializes to an equivalent descriptor.
    #[test]
    fn descriptor_parser_is_total(bytes in any::<[u8; 4]>()) {
        if let Ok(d) = PatternDescriptor::from_bytes(bytes) {
            let round = PatternDescriptor::from_bytes(d.to_bytes());
            prop_assert_eq!(round, Ok(d));
        }
    }

    /// A super-symbol's symbol sequence through the run codec round-trips arbitrary data for arbitrary shapes within the flicker
    /// budget, with the exact slot count and ON count.
    #[test]
    fn super_symbol_roundtrip(
        n1 in 5u16..30, k1s in any::<u16>(),
        n2 in 5u16..30, k2s in any::<u16>(),
        m1 in 0u16..8, m2 in 0u16..8,
        data in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        prop_assume!(m1 + m2 >= 1);
        let k1 = 1 + k1s % (n1 - 1);
        let k2 = 1 + k2s % (n2 - 1);
        let s1 = SymbolPattern::new(n1, k1).unwrap();
        let s2 = SymbolPattern::new(n2, k2).unwrap();
        let ss = SuperSymbol::new(s1, m1, s2, m2).unwrap();
        let table = BinomialTable::new(64);
        let mut reader = BitReader::new(&data);
        let mut scratch = EncodeScratch::new();
        let mut slots = Vec::new();
        let walk = ss.symbols().map(Into::into);
        encode_words(&table, walk, &mut reader, &mut scratch, &mut slots).unwrap();
        prop_assert_eq!(slots.len() as u32, ss.n_super());
        prop_assert_eq!(slots.iter().filter(|&&b| b).count() as u32, ss.ones());
        let mut writer = BitWriter::new();
        let walk = ss.symbols().map(Into::into);
        let failures = decode_words(&table, walk, &slots, &mut scratch, &mut writer);
        prop_assert_eq!(failures, Ok(0));
        let consumed = (ss.bits(&table) as usize).min(data.len() * 8);
        let (bytes, _) = writer.finish();
        let mut orig = BitReader::new(&data);
        let mut got = BitReader::new(&bytes);
        for i in 0..consumed {
            prop_assert_eq!(orig.read_bit(), got.read_bit(), "bit {}", i);
        }
    }

    /// Eq. 3 is monotone: more slots of either kind can only raise SER.
    #[test]
    fn ser_is_monotone(n in 2u16..200, k_seed in any::<u16>()) {
        let probs = SlotErrorProbs::paper_measured();
        let k = k_seed % n;
        let base = probs.symbol_error_rate(SymbolPattern::new(n, k).unwrap());
        let more_off = probs.symbol_error_rate(SymbolPattern::new(n + 1, k).unwrap());
        let more_on = probs.symbol_error_rate(SymbolPattern::new(n + 1, k + 1).unwrap());
        prop_assert!(more_off >= base);
        prop_assert!(more_on >= base);
    }

    /// The perception transform is a monotone bijection on [0, 1].
    #[test]
    fn perception_bijection(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
        prop_assert!((measured(perceived(a)) - a).abs() < 1e-12);
        if a < b {
            prop_assert!(perceived(a) < perceived(b));
        }
    }

    /// Dimming quantization error is bounded by half a quantum for every
    /// level, under any (sane) quantum setting.
    #[test]
    fn quantization_error_bound(l in 0.0f64..=1.0, denom in 64u32..4096) {
        let cfg = SystemConfig {
            dimming_quantum: 1.0 / denom as f64,
            ..SystemConfig::default()
        };
        let back = cfg.dequantize_dimming(cfg.quantize_dimming(l));
        prop_assert!((back - l).abs() <= cfg.dimming_quantum / 2.0 + 1e-9,
            "l={} back={} q={}", l, back, cfg.dimming_quantum);
    }

    /// DimmingLevel construction never accepts out-of-range values.
    #[test]
    fn dimming_level_validation(x in any::<f64>()) {
        match DimmingLevel::new(x) {
            Some(l) => {
                prop_assert!(x.is_finite() && (0.0..=1.0).contains(&x));
                prop_assert_eq!(l.value(), x);
            }
            None => prop_assert!(!x.is_finite() || !(0.0..=1.0).contains(&x)),
        }
    }
}
