//! Cross-crate integration: the full SmartVLC pipeline assembled from
//! the public facade API, including the sample-level receive path
//! (ADC samples → clock recovery → slot decisions → frame parse) that
//! the slot-level link simulation shortcuts.

use smartvlc::link::sync::{decimate, find_slot_phase};
use smartvlc::prelude::*;

/// Frames of every scheme survive the real (sampled) channel at 3 m and
/// decode identically.
#[test]
fn every_scheme_survives_the_sampled_channel() {
    let cfg = SystemConfig::default();
    let mut codec = FrameCodec::new(cfg.clone()).unwrap();
    let payload: Vec<u8> = (0..96u32).map(|i| (i * 29 % 251) as u8).collect();
    let descriptors = [
        PatternDescriptor::Amppm {
            dimming_q: cfg.quantize_dimming(0.35),
            tier: 0,
        },
        PatternDescriptor::Mppm { n: 20, k: 7 },
        PatternDescriptor::OokCt {
            dimming_q: cfg.quantize_dimming(0.35),
        },
        PatternDescriptor::Vppm { n: 10, width: 4 },
    ];
    for d in descriptors {
        let frame = Frame::new(d, payload.clone()).unwrap();
        let slots = codec.emit(&frame).unwrap();
        let mut channel =
            OpticalChannel::new(ChannelConfig::paper_bench(3.0), DetRng::seed_from_u64(5));
        let mut scratch = RxScratch::new();
        channel.transmit_and_decide_into(&slots, &mut scratch);
        let (back, stats) = codec.parse(&scratch.decided).unwrap();
        assert!(stats.crc_ok, "{d:?}");
        assert_eq!(back, frame, "{d:?}");
    }
}

/// The oversampled path: raw per-sample levels, phase recovery from the
/// preamble, decimation, threshold decisions, then frame parsing.
#[test]
fn sample_level_receive_chain_recovers_frames() {
    let cfg = SystemConfig::default();
    let mut codec = FrameCodec::new(cfg.clone()).unwrap();
    let frame = Frame::new(
        PatternDescriptor::Amppm {
            dimming_q: cfg.quantize_dimming(0.5),
            tier: 0,
        },
        b"sample-level pipeline".to_vec(),
    )
    .unwrap();
    let slots = codec.emit(&frame).unwrap();

    // Transmit at sample granularity through the channel internals.
    let mut channel =
        OpticalChannel::new(ChannelConfig::paper_bench(2.0), DetRng::seed_from_u64(9));
    let detector = channel.analytic_detector();
    let spp = channel.config().samples_per_slot;

    // Build a sample stream with an unknown phase offset, as the free-
    // running receiver clock would see it: prepend a partial slot of
    // idle light.
    let mut scratch = RxScratch::new();
    channel.transmit_into(&slots, &mut scratch);
    let per_slot = scratch.levels;
    // Reconstruct 4x samples from slot levels (the channel averages per
    // slot; emulate the raw stream with an LED-transition edge sample at
    // each slot boundary); a fractional lead of 3 samples plays the role
    // of the free-running clock offset.
    let mut samples = vec![detector.mu_off_a; 3];
    let mut prev = detector.mu_off_a;
    for &level in &per_slot {
        samples.push((prev + level) / 2.0); // smeared transition sample
        for _ in 1..spp {
            samples.push(level);
        }
        prev = level;
    }

    let lock = find_slot_phase(&samples, spp, &detector, 20).expect("phase found");
    assert_eq!(lock.phase, 3, "clock offset recovered");
    let levels = decimate(&samples, spp, lock.phase, usize::MAX);
    let mut decided = Vec::new();
    detector.decide_into(&levels, &mut decided);
    let (back, stats) = codec.parse(&decided).unwrap();
    assert!(stats.crc_ok);
    assert_eq!(back.payload, b"sample-level pipeline");
}

/// The PRU/ring transmit path: frames queued by the "ARM", emitted by the
/// GPIO loop at the slot clock, and still parseable.
#[test]
fn frames_survive_the_hw_transmit_path() {
    let cfg = SystemConfig::default();
    let mut codec = FrameCodec::new(cfg.clone()).unwrap();
    let frame = Frame::new(
        PatternDescriptor::Amppm {
            dimming_q: cfg.quantize_dimming(0.4),
            tier: 0,
        },
        vec![0xA5; 64],
    )
    .unwrap();
    let slots = codec.emit(&frame).unwrap();

    let mut board = smartvlc::hw::TransmitterBoard::paper_prototype();
    assert_eq!(board.queue_slots(&slots), slots.len(), "ring has room");
    board.run_until(SimTime::from_nanos(
        (slots.len() as u64 - 1) * cfg.tslot_nanos(),
    ));
    assert_eq!(board.underruns(), 0);
    let emitted = board.emitted();
    let (back, stats) = codec.parse(&emitted).unwrap();
    assert!(stats.crc_ok);
    assert_eq!(back, frame);
}

/// Ambient-driven story: as the blind opens, the planner re-plans and
/// frames keep flowing at every level along the way.
#[test]
fn frames_flow_across_an_ambient_sweep() {
    let cfg = SystemConfig::default();
    let mut tx = Transmitter::new(
        cfg.clone(),
        SchemeKind::Amppm,
        1.0,
        0.1,
        0.1,
        smartvlc_core::frame::format::FecMode::Off,
        DetRng::seed_from_u64(3),
    )
    .unwrap();
    let mut codec = FrameCodec::new(cfg).unwrap();
    for step in 0..=20 {
        let ambient = 0.1 + 0.8 * step as f64 / 20.0;
        tx.update_ambient(ambient);
        let data = tx.random_data();
        let (_, slots) = tx.build_frame(step as u16, &data).unwrap();
        let (frame, stats) = codec.parse(&slots).unwrap();
        assert!(stats.crc_ok, "ambient={ambient}");
        let (hdr, body) = smartvlc::link::mac::MacHeader::decapsulate(&frame.payload).unwrap();
        assert_eq!(hdr.seq, step as u16);
        assert_eq!(body, &data[..]);
        // The emitted waveform sits at the LED's commanded level.
        let duty = slots.iter().filter(|&&b| b).count() as f64 / slots.len() as f64;
        assert!((duty - tx.led_level()).abs() < 0.03, "ambient={ambient}");
    }
}
