//! Quickstart: encode a message with AMPPM, fly it through the simulated
//! optical channel at 3 m, and decode it back.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use smartvlc::prelude::*;

fn main() {
    let cfg = SystemConfig::default();

    // 1. Smart lighting decides the dimming level: a bright afternoon
    //    (ambient covers 65% of the set-point) leaves 35% for the LED.
    let illum = IlluminationTarget::new(1.0);
    let level = illum.led_level_for(0.65);
    println!("ambient 65% of set-point  ->  LED dims to {level}");

    // 2. AMPPM plans the best super-symbol for that level.
    let planner = AmppmPlanner::new(cfg.clone()).expect("paper config is valid");
    let plan = planner.plan(level).expect("level within envelope");
    println!(
        "AMPPM plan: {:?}  (dimming {:.4}, {:.1} Kbps raw)",
        plan.super_symbol,
        plan.achieved.value(),
        plan.rate_bps / 1000.0
    );

    // 3. Frame a message (Table 1 of the paper) and emit slot states.
    let message = b"SmartVLC: when smart lighting meets VLC".to_vec();
    let mut codec = FrameCodec::new(cfg.clone()).expect("paper config is valid");
    let frame = Frame::new(amppm_descriptor(&cfg, level), message.clone()).unwrap();
    let slots = codec.emit(&frame).expect("frame fits");
    let duty = slots.iter().filter(|&&b| b).count() as f64 / slots.len() as f64;
    println!(
        "frame: {} slots on the air ({:.2} ms), waveform duty {:.3}",
        slots.len(),
        slots.len() as f64 * cfg.tslot_secs() * 1000.0,
        duty
    );

    // 4. Fly it through the simulated channel: Philips LED, 3 m of office
    //    air, SFH206K photodiode, TIA + 12-bit ADC, bright ambient.
    let mut channel =
        OpticalChannel::new(ChannelConfig::paper_bench(3.0), DetRng::seed_from_u64(1));
    let mut scratch = RxScratch::new();
    channel.transmit_and_decide_into(&slots, &mut scratch);
    let received = scratch.decided;
    let flipped = received.iter().zip(&slots).filter(|(a, b)| a != b).count();
    println!(
        "channel: {} of {} slots flipped in flight",
        flipped,
        slots.len()
    );

    // 5. Parse at the receiver and check the CRC.
    let (parsed, stats) = codec.parse(&received).expect("frame recovered");
    assert!(stats.crc_ok, "CRC failed");
    println!(
        "received: {:?}  (CRC ok, {} symbols, {} symbol failures)",
        String::from_utf8_lossy(&parsed.payload),
        stats.symbols,
        stats.symbol_failures
    );
    assert_eq!(parsed.payload, message);
    println!("round trip complete.");
}
