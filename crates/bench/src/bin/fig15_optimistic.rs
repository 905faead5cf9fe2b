//! Fig. 15 under the paper's *stated* parameter reading — the
//! "optimistic" calibration (`SystemConfig::paper_optimistic()`).
//!
//! The paper's measured AMPPM throughput at extreme dimming levels
//! (55.6 Kbps at l = 0.1/0.9) implies symbol lengths around N ≈ 110 —
//! admissible only under its stated SER bound 1e-3 with the slot error
//! probabilities of a *mid-range* operating point (9e-6/8e-6), not the
//! 3.6 m worst case it also reports. This binary runs the analytic
//! scheme comparison under that reading, reproducing the paper's
//! headline extremes; the default calibration (`fig15_scheme_comparison`)
//! reproduces its mid-range instead. Both cannot hold at once — see
//! EXPERIMENTS.md.

use combinat::BinomialTable;
use smartvlc_bench::{f, results_dir, with_env_threads};
use smartvlc_core::modem::SlotModem;
use smartvlc_core::schemes::{MppmModem, OokCtModem};
use smartvlc_core::{AmppmPlanner, DimmingLevel, SystemConfig};
use smartvlc_sim::par_map;
use smartvlc_sim::report::{markdown_table, write_csv};

fn main() {
    with_env_threads(run);
}

fn run() {
    let cfg = SystemConfig::paper_optimistic();
    println!(
        "Fig. 15 (optimistic calibration): P1={:.0e}, P2={:.0e}, SER bound {:.0e}\n",
        cfg.slot_errors.p_off_error, cfg.slot_errors.p_on_error, cfg.ser_upper_bound
    );
    let planner = AmppmPlanner::new(cfg.clone()).expect("valid config");
    let table = BinomialTable::shared(512);
    let ftx = cfg.ftx_hz as f64;

    // Analytic, so each level is cheap — but the shared planner cache and
    // interned table make the fan-out free, and the pool keeps the plan
    // search for large-N optimistic symbols off the critical path.
    let levels: Vec<f64> = (2..=18).map(|i| i as f64 / 20.0).collect();
    let rows: Vec<Vec<String>> = par_map(&levels, |_, &l| {
        let level = DimmingLevel::new(l).unwrap();
        let plan = planner.plan(level).unwrap();
        let mppm = MppmModem::paper_baseline(level).norm_rate(&table) * ftx;
        let ook = OokCtModem::new(level).unwrap().norm_rate(&table) * ftx;
        vec![
            f(l, 2),
            f(plan.rate_bps / 1e3, 1),
            f(ook / 1e3, 1),
            f(mppm / 1e3, 1),
            format!("{:?}", plan.super_symbol),
        ]
    });
    println!(
        "{}",
        markdown_table(
            &[
                "dimming",
                "AMPPM Kbps",
                "OOK-CT Kbps",
                "MPPM Kbps",
                "super-symbol"
            ],
            &rows
        )
    );

    let extreme = planner
        .plan(DimmingLevel::new(0.1).unwrap())
        .unwrap()
        .rate_bps
        / 1e3;
    println!(
        "AMPPM at l = 0.1: {extreme:.1} Kbps raw (paper measured: 55.6; \
         default calibration: ~47.6)"
    );
    let largest_n = planner
        .candidates()
        .iter()
        .map(|c| c.pattern.n())
        .max()
        .unwrap();
    println!("largest admissible symbol: N = {largest_n} (default calibration: 31)");

    write_csv(
        results_dir().join("fig15_optimistic.csv"),
        &[
            "dimming",
            "amppm_kbps",
            "ookct_kbps",
            "mppm_kbps",
            "super_symbol",
        ],
        &rows,
    )
    .expect("write csv");
}
