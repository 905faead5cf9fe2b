//! A long-horizon soak of the link: after the 16-bit MAC sequence space
//! has wrapped three times, first deliveries are still credited at the
//! rate they were at the start.
//!
//! It simulates 2,000 s (~265,000 frames), so it runs in release only:
//! `cargo test --release -p smartvlc-link --test soak -- --ignored`.

use desim::{SimDuration, SimTime};
use smartvlc_link::{LinkConfig, LinkSimulation, SchemeKind, TrafficSource, Transmitter};
use vlc_channel::ambient::ConstantAmbient;

/// Bytes per frame body: short frames wrap the sequence space sooner.
const BODY: usize = 4;

/// Simulated seconds per run.
const RUN_S: u64 = 2_000;

/// Seconds per goodput window.
const WINDOW_S: f64 = 100.0;

/// A saturating source of `BODY`-byte frames that counts the frames it
/// hands out and the first deliveries per [`WINDOW_S`] window.
#[derive(Default)]
struct Tally {
    fresh: u64,
    delivered: Vec<u64>,
}

impl TrafficSource for Tally {
    fn next_data(&mut self, _now: SimTime, _tx: &mut Transmitter) -> Option<Vec<u8>> {
        self.fresh += 1;
        Some(vec![0xa5; BODY])
    }

    fn on_delivered(&mut self, now: SimTime, _body: &[u8]) {
        let w = (now.as_secs_f64() / WINDOW_S) as usize;
        if self.delivered.len() <= w {
            self.delivered.resize(w + 1, 0);
        }
        self.delivered[w] += 1;
    }
}

#[test]
#[ignore = "release-mode soak; see the module doc"]
fn deliveries_are_credited_past_three_sequence_wraps() {
    let mut cfg = LinkConfig::paper_static(3.0, SchemeKind::Amppm, 11);
    cfg.duration = SimDuration::secs(RUN_S);
    let mut sim = LinkSimulation::new(cfg).expect("valid config");
    let mut src = Tally::default();
    sim.run_traffic(&mut ConstantAmbient { lux: 500.0 }, &mut src);
    assert!(src.fresh > 3 * 65_536, "only {} fresh frames", src.fresh);
    // The last window may be cut short by the run's end: compare the
    // first full window with the last full one. Counts of frames that
    // each get through independently: 5σ of their Poisson noise.
    let full = (RUN_S as f64 / WINDOW_S) as usize;
    let window = |w: usize| src.delivered.get(w).map_or(0.0, |&n| n as f64);
    let (first, last) = (window(0), window(full - 1));
    assert!(
        (first - last).abs() <= 5.0 * (first + last).sqrt(),
        "first {WINDOW_S} s delivered {first} frames, last {last}; per window: {:?}",
        src.delivered
    );
}
