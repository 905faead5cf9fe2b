//! Fig. 16 — throughput vs communication distance for dimming levels
//! 0.18, 0.5 and 0.7.
//!
//! Paper shape: flat peak throughput per level out to 3.6 m, then a
//! sharp collapse (frame-level error amplification of the 1/d² SNR
//! roll-off); the dimming level does not change the reach, because
//! brightness is duty-cycle, not amplitude.

use smartvlc_bench::{f, point_duration, results_dir, with_env_threads};
use smartvlc_link::SchemeKind;
use smartvlc_sim::report::{ascii_chart, markdown_table, write_csv};
use smartvlc_sim::run_distance_matrix;

fn main() {
    with_env_threads(run);
}

fn run() {
    let distances: Vec<f64> = (1..=10).map(|i| i as f64 * 0.5).collect(); // 0.5..5.0 m
    let levels = [0.18, 0.5, 0.7];
    let dur = point_duration();
    println!(
        "Fig. 16 — AMPPM goodput vs distance, {} s per point\n",
        dur.as_secs_f64()
    );

    // All 3 × 10 cells fan out as one flat batch on the work pool.
    let sweeps = run_distance_matrix(SchemeKind::Amppm, &levels, &distances, dur, 16);

    let mut rows = Vec::new();
    for (i, &d) in distances.iter().enumerate() {
        rows.push(vec![
            f(d, 1),
            f(sweeps[0][i].goodput_bps / 1e3, 1),
            f(sweeps[1][i].goodput_bps / 1e3, 1),
            f(sweeps[2][i].goodput_bps / 1e3, 1),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &["distance m", "l=0.18 Kbps", "l=0.5 Kbps", "l=0.7 Kbps"],
            &rows
        )
    );
    println!(
        "{}",
        ascii_chart(
            "goodput (Kbps) vs distance (m)",
            "distance",
            "Kbps",
            &distances,
            &[
                (
                    "l=0.18",
                    sweeps[0].iter().map(|p| p.goodput_bps / 1e3).collect()
                ),
                (
                    "l=0.5",
                    sweeps[1].iter().map(|p| p.goodput_bps / 1e3).collect()
                ),
                (
                    "l=0.7",
                    sweeps[2].iter().map(|p| p.goodput_bps / 1e3).collect()
                ),
            ],
            12
        )
    );

    // Where does each level lose half its peak?
    for (li, &l) in levels.iter().enumerate() {
        let peak = sweeps[li]
            .iter()
            .map(|p| p.goodput_bps)
            .fold(f64::MIN, f64::max);
        let reach = distances
            .iter()
            .zip(&sweeps[li])
            .take_while(|(_, p)| p.goodput_bps > peak / 2.0)
            .map(|(&d, _)| d)
            .last()
            .unwrap_or(0.0);
        println!(
            "l={l}: peak {:.1} Kbps held through ~{reach} m (paper: 3.6 m)",
            peak / 1e3
        );
    }

    write_csv(
        results_dir().join("fig16.csv"),
        &["distance_m", "l018_bps", "l05_bps", "l07_bps"],
        &distances
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                vec![
                    f(d, 2),
                    f(sweeps[0][i].goodput_bps, 1),
                    f(sweeps[1][i].goodput_bps, 1),
                    f(sweeps[2][i].goodput_bps, 1),
                ]
            })
            .collect::<Vec<_>>(),
    )
    .expect("write csv");
}
