//! Fig. 17 — throughput vs incidence angle at 1.3 m, 2.3 m, and 3.3 m.
//!
//! Paper shape: performance holds within the LED's field of view, and
//! longer distances hit their cut-off angle earlier (the link has no SNR
//! margin left for the `cosᵐ` beam roll-off).

use smartvlc_bench::{f, point_duration, results_dir, with_env_threads};
use smartvlc_link::SchemeKind;
use smartvlc_sim::report::{ascii_chart, markdown_table, write_csv};
use smartvlc_sim::run_incidence_matrix;

fn main() {
    with_env_threads(run);
}

fn run() {
    let angles: Vec<f64> = (0..=8).map(|i| i as f64 * 2.0).collect(); // 0..16 deg
    let distances = [1.3, 2.3, 3.3];
    let dur = point_duration();
    println!(
        "Fig. 17 — AMPPM goodput vs incidence angle at l = 0.5, {} s per point\n",
        dur.as_secs_f64()
    );

    // All 3 × 9 cells fan out as one flat batch on the work pool.
    let sweeps = run_incidence_matrix(SchemeKind::Amppm, 0.5, &distances, &angles, dur, 17);

    let mut rows = Vec::new();
    for (i, &a) in angles.iter().enumerate() {
        rows.push(vec![
            f(a, 0),
            f(sweeps[0][i].goodput_bps / 1e3, 1),
            f(sweeps[1][i].goodput_bps / 1e3, 1),
            f(sweeps[2][i].goodput_bps / 1e3, 1),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &["angle deg", "1.3 m Kbps", "2.3 m Kbps", "3.3 m Kbps"],
            &rows
        )
    );
    println!(
        "{}",
        ascii_chart(
            "goodput (Kbps) vs incidence angle (deg)",
            "angle",
            "Kbps",
            &angles,
            &[
                (
                    "1.3m",
                    sweeps[0].iter().map(|p| p.goodput_bps / 1e3).collect()
                ),
                (
                    "2.3m",
                    sweeps[1].iter().map(|p| p.goodput_bps / 1e3).collect()
                ),
                (
                    "3.3m",
                    sweeps[2].iter().map(|p| p.goodput_bps / 1e3).collect()
                ),
            ],
            12
        )
    );

    for (di, &d) in distances.iter().enumerate() {
        let boresight = sweeps[di][0].goodput_bps;
        let cutoff = angles
            .iter()
            .zip(&sweeps[di])
            .take_while(|(_, p)| p.goodput_bps > boresight / 2.0)
            .map(|(&a, _)| a)
            .last()
            .unwrap_or(0.0);
        println!(
            "d={d} m: holds >50% of boresight through ~{cutoff} deg \
             (paper: longer distance => shorter cut-off)"
        );
    }

    write_csv(
        results_dir().join("fig17.csv"),
        &["angle_deg", "d13_bps", "d23_bps", "d33_bps"],
        &angles
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                vec![
                    f(a, 1),
                    f(sweeps[0][i].goodput_bps, 1),
                    f(sweeps[1][i].goodput_bps, 1),
                    f(sweeps[2][i].goodput_bps, 1),
                ]
            })
            .collect::<Vec<_>>(),
    )
    .expect("write csv");
}
