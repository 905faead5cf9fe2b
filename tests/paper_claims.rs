//! The paper's headline claims, encoded as executable assertions.
//!
//! Each test names the claim and the section it comes from. Where the
//! reproduction's absolute numbers differ from the testbed's, the test
//! pins the *shape* (ordering, crossover, reach) — see EXPERIMENTS.md
//! for the quantitative side-by-side.

use desim::SimDuration;
use smartvlc::prelude::*;
use smartvlc::sim::static_run::paper_levels;
use smartvlc::sim::{run_distance_matrix, run_dynamic, run_scheme_matrix};

fn dur() -> SimDuration {
    SimDuration::millis(600)
}

/// §6.2 / Fig. 15: "AMPPM outperforms MPPM under all dimming levels, and
/// outperforms OOK-CT under 16 out of the 17 dimming levels" (OOK-CT
/// wins only in a narrow window around 0.5).
#[test]
fn fig15_amppm_dominates_the_baselines() {
    let levels = paper_levels();
    let schemes = [SchemeKind::Amppm, SchemeKind::Mppm(20), SchemeKind::OokCt];
    let [amppm, mppm, ook] = run_scheme_matrix(&schemes, &levels, dur(), 40)
        .try_into()
        .expect("one sweep per scheme");
    let mut ook_wins = Vec::new();
    for i in 0..levels.len() {
        assert!(
            amppm[i].goodput_bps >= mppm[i].goodput_bps * 0.97,
            "l={}: AMPPM {} < MPPM {}",
            levels[i],
            amppm[i].goodput_bps,
            mppm[i].goodput_bps
        );
        if ook[i].goodput_bps > amppm[i].goodput_bps {
            ook_wins.push(levels[i]);
        }
    }
    // OOK-CT may only win inside the paper's 0.47-0.53 window (we allow
    // the two quantized levels nearest 0.5).
    assert!(
        ook_wins.iter().all(|&l| (0.44..=0.56).contains(&l)),
        "OOK-CT wins outside the mid window: {ook_wins:?}"
    );
    assert!(!ook_wins.is_empty(), "OOK-CT should win near 0.5");
}

/// §6.2: "improves the throughput achieved with two state-of-the-art
/// approaches by 40% and 12% on average" — our calibration lands lower
/// (see EXPERIMENTS.md) but the gains must be decisively positive and
/// largest at the extremes.
#[test]
fn fig15_average_gains_are_positive_and_peak_at_extremes() {
    let levels = paper_levels();
    let schemes = [SchemeKind::Amppm, SchemeKind::OokCt];
    let [amppm, ook] = run_scheme_matrix(&schemes, &levels, dur(), 41)
        .try_into()
        .expect("one sweep per scheme");
    let sum =
        |pts: &[smartvlc::sim::StaticPoint]| -> f64 { pts.iter().map(|p| p.goodput_bps).sum() };
    assert!(sum(&amppm) > 1.15 * sum(&ook), "average gain under 15%");
    let gain = |i: usize| amppm[i].goodput_bps / ook[i].goodput_bps;
    let edge = gain(0).min(gain(levels.len() - 1));
    let mid = gain(levels.len() / 2);
    // Default calibration: ~1.8x at the edges (the paper's 2.7x "+170%"
    // corresponds to the optimistic calibration — see fig15_optimistic).
    assert!(edge > 1.6, "edge gain {edge}");
    assert!(edge > mid, "gains must peak at the extremes");
}

/// §6.2 / Fig. 16: "SmartVLC maintains its peak throughput at each
/// dimming level at distances up to 3.6 m. After this distance, the
/// throughput drops dramatically", and "the dimming level of the LED
/// does not affect the communication distance".
#[test]
fn fig16_reach_is_3_6m_and_level_independent() {
    let distances = [3.0, 3.5, 4.75];
    let mut reaches = Vec::new();
    let levels = [0.18, 0.5, 0.7];
    let sweeps = run_distance_matrix(SchemeKind::Amppm, &levels, &distances, dur(), 42);
    for (level, pts) in levels.into_iter().zip(sweeps) {
        // Peak held through 3.5 m...
        assert!(
            pts[1].goodput_bps > 0.8 * pts[0].goodput_bps,
            "l={level}: {pts:?}"
        );
        // ...dead well past the cliff.
        assert!(
            pts[2].goodput_bps < 0.1 * pts[0].goodput_bps,
            "l={level}: {pts:?}"
        );
        reaches.push(pts[1].goodput_bps / pts[0].goodput_bps);
    }
    // Reach ratio roughly equal across levels (duty-cycle dimming does
    // not change the SNR per slot).
    let min = reaches.iter().copied().fold(f64::MAX, f64::min);
    let max = reaches.iter().copied().fold(f64::MIN, f64::max);
    assert!(max - min < 0.25, "{reaches:?}");
}

/// §6.3 / Fig. 19: the dynamic run keeps total light constant, produces
/// the near-symmetric throughput hump, and roughly halves adaptation
/// adjustments.
#[test]
fn fig19_dynamic_scenario_story() {
    let outcome = run_dynamic(SchemeKind::Amppm, Some(14.0), 43);
    let r = &outcome.report;
    for p in &r.trace[1..] {
        assert!((p.ambient + p.led - 1.0).abs() < 0.06, "{p:?}");
    }
    let tp: Vec<f64> = r.throughput_bps.iter().map(|&(_, b)| b).collect();
    let first = tp[1];
    let last = tp[tp.len() - 1];
    let peak = tp.iter().copied().fold(f64::MIN, f64::max);
    assert!(peak > 1.5 * first, "no hump: first={first} peak={peak}");
    assert!(peak > 1.5 * last, "no hump: last={last} peak={peak}");
    assert!(
        (0.30..=0.60).contains(&outcome.adaptation_reduction),
        "reduction={}",
        outcome.adaptation_reduction
    );
}

/// §6.1: the user study selects fth = 250 Hz and τp = 0.003, giving
/// Nmax = 500 (Eq. 4).
#[test]
fn user_study_selects_paper_thresholds() {
    let study = UserStudy::recruit(20, 2017);
    assert_eq!(
        study.min_safe_frequency(&[150.0, 200.0, 250.0, 300.0]),
        Some(250.0)
    );
    assert_eq!(
        study.max_safe_resolution(&[0.003, 0.004, 0.005, 0.006, 0.007]),
        Some(0.003)
    );
    let cfg = SystemConfig::default();
    assert_eq!(cfg.n_max_super(), 500);
}

/// §4.1.2: multiplexing refines dimming granularity without raising the
/// symbol error rate — super-symbols inherit their constituents' SER.
#[test]
fn multiplexing_does_not_raise_ser() {
    let cfg = SystemConfig::default();
    let planner = AmppmPlanner::new(cfg.clone()).unwrap();
    for i in 1..=19 {
        let l = i as f64 / 20.0;
        let plan = planner.plan(DimmingLevel::new(l).unwrap()).unwrap();
        assert!(
            plan.expected_ser <= cfg.ser_upper_bound + 1e-12,
            "l={l}: SER {}",
            plan.expected_ser
        );
        assert!(
            plan.super_symbol.n_super() as u64 <= cfg.n_max_super(),
            "l={l}: flicker bound violated"
        );
    }
}

/// §5.2: only the PRU path sustains the prototype's clocks — the claim
/// that justifies the whole implementation section.
#[test]
fn only_pru_sustains_paper_clocks() {
    use smartvlc::hw::pru::{AccessMethod, PruTimingModel};
    for m in AccessMethod::ALL {
        let t = PruTimingModel::bbb(m);
        let ok = t.supports_hz(125_000.0) && t.max_spi_sample_rate_hz() >= 500_000.0;
        assert_eq!(ok, m == AccessMethod::Pru, "{m:?}");
    }
}
