//! Flicker safety across the whole system: whatever the link puts on the
//! air — frames of any scheme at any level, idle filler, adaptation
//! ramps — must pass the Type-I/Type-II audit. This is the paper's core
//! illumination guarantee ("without bringing any flickering to users").

use smartvlc::core::flicker::{FlickerAuditor, FlickerRules};
use smartvlc::prelude::*;

fn auditor() -> FlickerAuditor {
    FlickerAuditor::new(FlickerRules::from_config(&SystemConfig::default()))
}

#[test]
fn amppm_frames_are_flicker_free_at_all_levels() {
    let cfg = SystemConfig::default();
    let mut codec = FrameCodec::new(cfg.clone()).unwrap();
    let a = auditor();
    for i in 2..=18 {
        let l = i as f64 / 20.0;
        let frame = Frame::new(
            PatternDescriptor::Amppm {
                dimming_q: cfg.quantize_dimming(l),
                tier: 0,
            },
            vec![0x6C; 128],
        )
        .unwrap();
        // A train of three frames: the seams matter too.
        let one = codec.emit(&frame).unwrap();
        let mut train = Vec::new();
        for _ in 0..3 {
            train.extend(&one);
        }
        let report = a.audit(&train);
        assert!(report.is_clean(), "l={l}: {:?}", report.violations.first());
        assert!((report.mean_level - l).abs() < 0.03, "l={l}");
    }
}

#[test]
fn baseline_frames_are_flicker_free_too() {
    let cfg = SystemConfig::default();
    let mut codec = FrameCodec::new(cfg.clone()).unwrap();
    let a = auditor();
    let descriptors = [
        PatternDescriptor::Mppm { n: 20, k: 5 },
        PatternDescriptor::OokCt {
            dimming_q: cfg.quantize_dimming(0.25),
        },
        PatternDescriptor::Vppm { n: 10, width: 3 },
    ];
    for d in descriptors {
        let frame = Frame::new(d, vec![0x3A; 128]).unwrap();
        let slots = codec.emit(&frame).unwrap();
        let report = a.audit(&slots);
        assert!(report.is_clean(), "{d:?}: {:?}", report.violations.first());
    }
}

#[test]
fn transmitter_stream_with_gaps_and_adaptation_is_clean() {
    let cfg = SystemConfig::default();
    let mut tx = Transmitter::new(
        cfg.clone(),
        SchemeKind::Amppm,
        1.0,
        0.55,
        0.1,
        smartvlc_core::frame::format::FecMode::Off,
        DetRng::seed_from_u64(8),
    )
    .unwrap();
    let a = auditor();
    let mut air = Vec::new();
    // Slowly brightening ambient at a realistic rate (the 67 s blind pull
    // moves ~0.012/s; a frame is ~12 ms, so ~0.00015 per frame — we use
    // 3x that): the LED dims 0.45 -> 0.44 across twenty frames with idle
    // gaps in between.
    for step in 0..20 {
        tx.update_ambient(0.55 + step as f64 * 0.0005);
        let data = tx.random_data();
        let (_, slots) = tx.build_frame(step, &data).unwrap();
        tx.idle_filler_into(64, &mut air);
        air.extend(slots);
    }
    let report = a.audit(&air);
    assert!(report.is_clean(), "{:?}", report.violations.first());
}

#[test]
fn auditor_still_catches_a_misbehaving_transmitter() {
    // Sanity that the above tests mean something: an LED jumping levels
    // without adaptation is flagged.
    let a = auditor();
    let mut air: Vec<bool> = Vec::new();
    for i in 0..12_000 {
        air.push((i * 2) % 10 < 2); // l = 0.2
    }
    for i in 0..12_000 {
        air.push((i * 8) % 10 < 8); // l = 0.8, no ramp
    }
    assert!(!a.audit(&air).is_clean());
}
