//! Audit waveforms for human-visible flicker (§2.2 of the paper).
//!
//! Runs the Type-I/Type-II flicker auditor over four waveforms: a clean
//! AMPPM stream, a slow square wave (Type-I violation), an abrupt
//! brightness step (Type-II violation), and a proper perception-domain
//! adaptation ramp.
//!
//! ```sh
//! cargo run --example flicker_audit
//! ```

use smartvlc::core::flicker::{FlickerAuditor, FlickerRules};
use smartvlc::prelude::*;

fn spread(level: f64, slots: usize) -> Vec<bool> {
    let ones = (level * slots as f64).round() as usize;
    (0..slots)
        .map(|i| (i * ones) / slots != ((i + 1) * ones) / slots)
        .collect()
}

fn main() {
    let cfg = SystemConfig::default();
    let auditor = FlickerAuditor::new(FlickerRules::from_config(&cfg));
    let verdict = |name: &str, slots: &[bool]| {
        let report = auditor.audit(slots);
        println!(
            "{name:<28} mean {:.3}  ->  {}",
            report.mean_level,
            if report.is_clean() {
                "clean".to_string()
            } else {
                format!(
                    "FLICKER ({} violations, first: {:?})",
                    report.violations.len(),
                    report.violations[0]
                )
            }
        );
    };

    // 1. AMPPM payload stream at 30% dimming: flicker-free by design
    //    (Eq. 4 bounds every super-symbol to Nmax slots).
    let planner = AmppmPlanner::new(cfg.clone()).unwrap();
    let plan = planner.plan(DimmingLevel::new(0.3).unwrap()).unwrap();
    let modem = AmppmModem::from_plan(&plan);
    let table = BinomialTable::new(512);
    let data: Vec<u8> = (0..512u32).map(|i| (i % 251) as u8).collect();
    let mut stream = Vec::new();
    modem.modulate(&table, &data, &mut stream);
    verdict("AMPPM data stream (l=0.3)", &stream);

    // 2. A 62.5 Hz square wave: runs of 1000 slots, way beyond fth.
    let slow: Vec<bool> = (0..12_000).map(|i| (i / 1000) % 2 == 0).collect();
    verdict("62.5 Hz square wave", &slow);

    // 3. An abrupt 0.2 -> 0.8 brightness step (the 'existing method'
    //    jumping without gradual adaptation).
    let mut step = spread(0.2, 6000);
    step.extend(spread(0.8, 6000));
    verdict("abrupt 0.2 -> 0.8 step", &step);

    // 4. The same change walked with the perception-domain stepper,
    //    holding each tau_p step for a few fth periods.
    let stepper = PerceptionStepper::new(cfg.tau_p);
    let mut ramp = Vec::new();
    for target in stepper.steps(0.2, 0.8) {
        for _ in 0..2 {
            ramp.extend(spread(target, 500));
        }
    }
    verdict("perception-domain ramp", &ramp);
}
