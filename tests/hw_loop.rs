//! The whole prototype, end to end at the hardware granularity:
//!
//! ```text
//! ARM frames → TX ring → PRU GPIO loop → LED dynamics → 3 m of office
//! air → photodiode → TIA+ADC codes → RX ring → ARM: phase recovery →
//! slot decisions → frame parse
//! ```
//!
//! This is the §5 implementation story as one test: both PRU loops run
//! at their real clocks (8 µs slots, 2 µs samples), the rings carry the
//! data, and the ARM-side DSP recovers the frame.

use smartvlc::hw::{ReceiverBoard, TransmitterBoard};
use smartvlc::link::sync::{decimate, find_slot_phase};
use smartvlc::prelude::*;

#[test]
fn full_prototype_loop_recovers_a_frame() {
    let cfg = SystemConfig::default();
    let mut codec = FrameCodec::new(cfg.clone()).unwrap();

    // ARM side: build a frame and queue it into the PRU TX ring, with
    // idle filler ahead of it (the receiver must find the preamble).
    let frame = Frame::new(
        PatternDescriptor::Amppm {
            dimming_q: cfg.quantize_dimming(0.45),
            tier: 0,
        },
        b"through the whole prototype".to_vec(),
    )
    .unwrap();
    let frame_slots = codec.emit(&frame).unwrap();
    let mut tx_board = TransmitterBoard::paper_prototype();
    let idle: Vec<bool> = (0..40).map(|i| (i / 2) % 2 == 0).collect();
    assert_eq!(tx_board.queue_slots(&idle), idle.len());
    assert_eq!(tx_board.queue_slots(&frame_slots), frame_slots.len());

    // PRU TX loop: drain the ring at the slot clock.
    let total_slots = idle.len() + frame_slots.len();
    tx_board.run_until(SimTime::from_nanos(
        (total_slots as u64 - 1) * cfg.tslot_nanos(),
    ));
    assert_eq!(tx_board.underruns(), 0);
    let emitted = tx_board.emitted();

    // Air: LED dynamics + optics + noise, at sample granularity. The
    // channel produces per-sample photocurrents; feed them through the
    // ADC exactly as the PRU sampler would clock them out.
    let mut channel =
        OpticalChannel::new(ChannelConfig::paper_bench(3.0), DetRng::seed_from_u64(77));
    let detector = channel.analytic_detector();
    let mut scratch = RxScratch::new();
    channel.transmit_into(&emitted, &mut scratch);
    let per_slot_levels = scratch.levels;

    // PRU RX loop: the sampler clocks the ADC at fs = 4 ftx; reconstruct
    // the 4x stream (transition sample + interior) the frontend would
    // digitize, with a 2-sample clock offset to exercise phase recovery.
    let spp = channel.config().samples_per_slot;
    let mut sample_stream = vec![detector.mu_off_a; 2];
    let mut prev = detector.mu_off_a;
    for &level in &per_slot_levels {
        sample_stream.push((prev + level) / 2.0);
        for _ in 1..spp {
            sample_stream.push(level);
        }
        prev = level;
    }
    let mut rx_board = ReceiverBoard::paper_prototype();
    let mut idx = 0usize;
    let fs_period_ns = 2_000u64; // 500 kS/s
    let n_samples = sample_stream.len();
    // The frontend quantizes each current sample into an ADC code, after
    // its own input-referred thermal noise.
    let frontend = channel.config().frontend;
    let mut enc_rng = DetRng::seed_from_u64(5);
    rx_board.run_until(
        SimTime::from_nanos((n_samples as u64 - 1) * fs_period_ns),
        |_t| {
            let i = sample_stream[idx.min(n_samples - 1)];
            let code =
                frontend.quantize(i + enc_rng.next_normal(0.0, frontend.thermal_noise_a_rms));
            idx += 1;
            code
        },
    );
    assert_eq!(rx_board.overrun_drops(), 0);

    // ARM side: drain the RX ring, undo the ADC, recover the slot phase,
    // decide slots, and parse the frame out of the stream.
    let codes = rx_board.drain(usize::MAX);
    assert_eq!(codes.len(), n_samples);
    let currents: Vec<f64> = codes
        .iter()
        .map(|&c| frontend.code_to_current(f64::from(c)))
        .collect();
    let lock = find_slot_phase(&currents, spp, &detector, 20).expect("phase lock");
    assert_eq!(lock.phase, 2, "clock offset recovered");
    let levels = decimate(&currents, spp, lock.phase, usize::MAX);
    let mut decided = Vec::new();
    detector.decide_into(&levels, &mut decided);

    let mut rx = Receiver::new(cfg).unwrap();
    let events = rx.push_slots(&decided);
    let got = events.iter().find_map(|e| match e {
        RxEvent::Frame { frame, stats, .. } if stats.crc_ok => Some(frame.clone()),
        _ => None,
    });
    assert_eq!(got.as_ref(), Some(&frame), "{events:?}");
}
