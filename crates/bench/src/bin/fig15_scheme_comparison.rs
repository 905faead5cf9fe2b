//! Fig. 15 — throughput of AMPPM vs OOK-CT vs MPPM(N=20) across the 17
//! dimming levels at 3 m, measured end-to-end through the simulated
//! channel, plus the §6.2 headline ratios.
//!
//! Run with `--full` for paper-length 30 s points; the default 2 s points
//! reproduce the same shape in seconds.

use smartvlc_bench::{f, point_duration, results_dir, with_env_threads};
use smartvlc_link::SchemeKind;
use smartvlc_sim::report::{ascii_chart, markdown_table, write_csv};
use smartvlc_sim::static_run::{paper_levels, run_scheme_matrix};

fn main() {
    with_env_threads(run);
}

fn run() {
    let levels = paper_levels();
    let dur = point_duration();
    println!(
        "Fig. 15 — scheme comparison at 3 m, {} s per point, 128 B payloads\n",
        dur.as_secs_f64()
    );

    // All 3 × 17 cells fan out as one flat batch on the work pool.
    let schemes = [SchemeKind::Amppm, SchemeKind::Mppm(20), SchemeKind::OokCt];
    let mut sweeps = run_scheme_matrix(&schemes, &levels, dur, 15).into_iter();
    let (amppm, mppm, ook) = (
        sweeps.next().unwrap(),
        sweeps.next().unwrap(),
        sweeps.next().unwrap(),
    );

    let mut rows = Vec::new();
    for i in 0..levels.len() {
        rows.push(vec![
            f(levels[i], 2),
            f(amppm[i].goodput_bps / 1000.0, 1),
            f(ook[i].goodput_bps / 1000.0, 1),
            f(mppm[i].goodput_bps / 1000.0, 1),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &["dimming", "AMPPM Kbps", "OOK-CT Kbps", "MPPM Kbps"],
            &rows
        )
    );
    println!(
        "{}",
        ascii_chart(
            "goodput (Kbps) vs dimming level",
            "dimming",
            "Kbps",
            &levels,
            &[
                ("AMPPM", amppm.iter().map(|p| p.goodput_bps / 1e3).collect()),
                ("OOK-CT", ook.iter().map(|p| p.goodput_bps / 1e3).collect()),
                ("MPPM", mppm.iter().map(|p| p.goodput_bps / 1e3).collect()),
            ],
            14
        )
    );

    // The Sec. 6.2 headline numbers.
    let ratio = |a: f64, b: f64| (a / b - 1.0) * 100.0;
    let sum =
        |pts: &[smartvlc_sim::StaticPoint]| -> f64 { pts.iter().map(|p| p.goodput_bps).sum() };
    let max_vs = |a: &[smartvlc_sim::StaticPoint], b: &[smartvlc_sim::StaticPoint]| {
        a.iter()
            .zip(b)
            .map(|(x, y)| ratio(x.goodput_bps, y.goodput_bps))
            .fold(f64::MIN, f64::max)
    };
    println!("Sec. 6.2 headline comparison (paper in parentheses):");
    println!(
        "  AMPPM vs OOK-CT: up to +{:.0}% (170%), average +{:.0}% (40%)",
        max_vs(&amppm, &ook),
        ratio(sum(&amppm), sum(&ook))
    );
    println!(
        "  AMPPM vs MPPM:   up to +{:.0}% (30%),  average +{:.0}% (12%)",
        max_vs(&amppm, &mppm),
        ratio(sum(&amppm), sum(&mppm))
    );
    let crossover: Vec<f64> = levels
        .iter()
        .zip(amppm.iter().zip(&ook))
        .filter(|(_, (a, o))| o.goodput_bps > a.goodput_bps)
        .map(|(&l, _)| l)
        .collect();
    println!(
        "  OOK-CT beats AMPPM only at l = {:?} (paper: a narrow 0.47-0.53 window)",
        crossover
    );
    println!("\n(see EXPERIMENTS.md for the gain-at-extremes discussion: the paper's");
    println!(" +170%/+30% extremes correspond to its 'optimistic' calibration,");
    println!(" SystemConfig::paper_optimistic(), whose SER bound admits N ~ 110.)");

    let mut csv = Vec::new();
    for i in 0..levels.len() {
        csv.push(vec![
            f(levels[i], 2),
            f(amppm[i].goodput_bps, 1),
            f(ook[i].goodput_bps, 1),
            f(mppm[i].goodput_bps, 1),
        ]);
    }
    write_csv(
        results_dir().join("fig15.csv"),
        &["dimming", "amppm_bps", "ookct_bps", "mppm_bps"],
        &csv,
    )
    .expect("write csv");
}
