//! Property-based integration tests over the public API.

use proptest::prelude::*;
use smartvlc::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any payload at any data-carrying dimming level survives the frame
    /// codec round trip, and the waveform realizes the level.
    #[test]
    fn frame_roundtrip_any_payload_any_level(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        level_pct in 8u32..=92,
    ) {
        let cfg = SystemConfig::default();
        let l = level_pct as f64 / 100.0;
        let mut codec = FrameCodec::new(cfg.clone()).unwrap();
        let frame = Frame::new(
            PatternDescriptor::Amppm { dimming_q: cfg.quantize_dimming(l), tier: 0 },
            payload.clone(),
        ).unwrap();
        let slots = codec.emit(&frame).unwrap();
        let (back, stats) = codec.parse(&slots).unwrap();
        prop_assert!(stats.crc_ok);
        prop_assert_eq!(back.payload, payload);
        let duty = slots.iter().filter(|&&b| b).count() as f64 / slots.len() as f64;
        prop_assert!((duty - l).abs() < 0.06, "l={} duty={}", l, duty);
    }

    /// The planner always returns a plan meeting the paper's constraints
    /// for any target level.
    #[test]
    fn planner_respects_constraints(level_q in 0u32..=1024) {
        let cfg = SystemConfig::default();
        let planner = AmppmPlanner::new(cfg.clone()).unwrap();
        let l = level_q as f64 / 1024.0;
        let plan = planner.plan(DimmingLevel::new(l).unwrap()).unwrap();
        prop_assert!(plan.super_symbol.n_super() as u64 <= cfg.n_max_super());
        prop_assert!(plan.expected_ser <= cfg.ser_upper_bound + 1e-12);
        prop_assert!((plan.achieved.value() - l).abs() <= cfg.dimming_quantum,
            "l={} achieved={:?}", l, plan.achieved);
    }

    /// Slot corruption is always contained: parsing never panics and
    /// never yields a clean CRC with altered payload bytes.
    #[test]
    fn corruption_never_passes_crc(
        flips in proptest::collection::vec(0usize..4000, 1..12),
        seed in any::<u64>(),
    ) {
        let cfg = SystemConfig::default();
        let mut codec = FrameCodec::new(cfg.clone()).unwrap();
        let mut rng = DetRng::seed_from_u64(seed);
        let mut payload = vec![0u8; 64];
        rng.fill_bytes(&mut payload);
        let frame = Frame::new(
            PatternDescriptor::Amppm { dimming_q: cfg.quantize_dimming(0.5), tier: 0 },
            payload.clone(),
        ).unwrap();
        let mut slots = codec.emit(&frame).unwrap();
        for &f in &flips {
            let i = f % slots.len();
            slots[i] = !slots[i];
        }
        // Err(_) means structural damage was detected — fine.
        if let Ok((back, stats)) = codec.parse(&slots) {
            if stats.crc_ok {
                // CRC can only pass if the payload is intact (flips
                // hit padding/compensation/idle regions).
                prop_assert_eq!(back.payload, payload);
            }
        }
    }

    /// The adaptation steppers always land exactly on target with every
    /// intermediate step invisible.
    #[test]
    fn adaptation_always_lands_and_stays_invisible(
        from_pct in 0u32..=100,
        to_pct in 0u32..=100,
    ) {
        use smartvlc::core::adaptation::perceived;
        let from = from_pct as f64 / 100.0;
        let to = to_pct as f64 / 100.0;
        let stepper = PerceptionStepper::new(0.003);
        let steps = stepper.steps(from, to);
        if from != to {
            prop_assert_eq!(*steps.last().unwrap(), to);
        }
        let mut prev = from;
        for &s in &steps {
            prop_assert!((perceived(s) - perceived(prev)).abs() <= 0.003 + 1e-12);
            prev = s;
        }
    }

    /// Channel decisions are unbiased: an ideal-geometry link decodes any
    /// slot pattern exactly.
    #[test]
    fn short_range_channel_is_transparent(pattern in proptest::collection::vec(any::<bool>(), 1..2000)) {
        let mut channel = OpticalChannel::new(
            ChannelConfig::paper_bench(1.0),
            DetRng::seed_from_u64(1),
        );
        let mut scratch = RxScratch::new();
        channel.transmit_and_decide_into(&pattern, &mut scratch);
        prop_assert_eq!(scratch.decided, pattern);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The streaming receiver never panics and never fabricates a clean
    /// frame out of arbitrary garbage slot streams.
    #[test]
    fn receiver_survives_garbage(seed in proptest::num::u64::ANY, len in 100usize..8000) {
        let mut rng = DetRng::seed_from_u64(seed);
        let garbage: Vec<bool> = (0..len).map(|_| rng.chance(0.5)).collect();
        let mut rx = Receiver::new(SystemConfig::default()).unwrap();
        for chunk in garbage.chunks(251) {
            for ev in rx.push_slots(chunk) {
                // A CRC-clean frame from random noise requires a valid
                // preamble + header + CRC16 collision: vanishingly
                // unlikely; treat it as a failure to catch regressions
                // that loosen validation.
                prop_assert!(
                    matches!(ev, RxEvent::CrcFailed { .. }),
                    "garbage produced {ev:?}"
                );
            }
        }
    }

    /// A frame embedded in garbage is still recovered (receiver hunts
    /// through noise to the true preamble).
    #[test]
    fn receiver_finds_frame_in_garbage(seed in proptest::num::u64::ANY) {
        let cfg = SystemConfig::default();
        let mut rng = DetRng::seed_from_u64(seed);
        let mut codec = FrameCodec::new(cfg.clone()).unwrap();
        let mut payload = vec![0u8; 48];
        rng.fill_bytes(&mut payload);
        let frame = Frame::new(
            PatternDescriptor::Amppm { dimming_q: cfg.quantize_dimming(0.5), tier: 0 },
            payload,
        ).unwrap();
        let slots = codec.emit(&frame).unwrap();
        let mut stream: Vec<bool> = (0..300).map(|_| rng.chance(0.5)).collect();
        stream.extend(&slots);
        stream.extend((0..100).map(|_| rng.chance(0.5)));
        let mut rx = Receiver::new(cfg).unwrap();
        let events = rx.push_slots(&stream);
        prop_assert!(
            events.iter().any(|e| matches!(e, RxEvent::Frame { frame: f, .. } if f == &frame)),
            "frame lost in garbage"
        );
    }
}
