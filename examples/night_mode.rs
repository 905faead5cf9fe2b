//! Night mode: SmartVLC + DarkLight, the §7 combination.
//!
//! "When illumination is required, SmartVLC can be applied and when
//! illumination is not required (e.g., at night), DarkLight can then be
//! applied instead." This example runs an evening: ambient light fades,
//! the luminaire dims with it (AMPPM all the way down), and once the
//! illumination set-point reaches zero the link flips to the DarkLight
//! mode — the room looks dark, data keeps flowing.

use smartvlc::core::schemes::DarklightModem;
use smartvlc::prelude::*;

fn main() {
    let cfg = SystemConfig::default();
    let planner = AmppmPlanner::new(cfg.clone()).unwrap();
    let table = BinomialTable::new(512);

    println!("evening fade: illumination set-point vs link mode\n");
    println!("set-point | mode      | LED duty | raw rate");
    println!("----------|-----------|----------|---------");
    for step in (0..=10).rev() {
        let setpoint = step as f64 / 10.0;
        if setpoint >= 0.08 {
            // Daytime/evening: SmartVLC serves illumination + data.
            let plan = planner.plan(DimmingLevel::new(setpoint).unwrap()).unwrap();
            println!(
                "   {setpoint:.1}    | SmartVLC  |  {:.3}   | {:6.1} Kbps",
                plan.achieved.value(),
                plan.rate_bps / 1e3
            );
        } else {
            // Night: nobody needs light; flip to DarkLight.
            let dark = DarklightModem::paper_night_mode();
            println!(
                "   {setpoint:.1}    | DarkLight |  {:.3}   | {:6.1} Kbps",
                dark.duty(),
                dark.norm_rate(&table) * cfg.ftx_hz as f64 / 1e3
            );
        }
    }

    // Demonstrate a night-mode frame end to end through the dark room.
    println!("\nnight-mode frame over 3 m in a dark office:");
    let mut codec = FrameCodec::new(cfg.clone()).unwrap();
    let frame = Frame::new(
        PatternDescriptor::Darklight {
            positions: 128,
            pulse_w: 1,
        },
        b"goodnight, office".to_vec(),
    )
    .unwrap();
    let slots = codec.emit(&frame).unwrap();
    let duty = slots.iter().filter(|&&b| b).count() as f64 / slots.len() as f64;

    let mut channel_cfg = ChannelConfig::paper_bench(3.0);
    channel_cfg.ambient_lux = 16.0; // the paper's L3 dark condition
    let mut channel = OpticalChannel::new(channel_cfg, DetRng::seed_from_u64(42));
    let mut scratch = RxScratch::new();
    channel.transmit_and_decide_into(&slots, &mut scratch);
    let received = scratch.decided;
    let (parsed, stats) = codec.parse(&received).unwrap();
    assert!(stats.crc_ok);
    println!(
        "  {} slots at duty {:.4} ({:.1}% brightness) -> {:?}",
        slots.len(),
        duty,
        duty * 100.0,
        String::from_utf8_lossy(&parsed.payload)
    );
    println!("  the LED averages under 2% output: visibly off, audibly chatty.");
}
