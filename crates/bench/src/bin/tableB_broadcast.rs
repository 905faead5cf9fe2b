//! Broadcast extension table: one luminaire, a room of receivers.
//!
//! §3 describes "a transmitter and receivers"; the paper's measurements
//! place one receiver at a time. This generator fills in the implied
//! multi-receiver picture: the same AMPPM waveform reaching six office
//! seats, with per-seat goodput determined by each seat's geometry —
//! a two-dimensional composition of Figs. 16 and 17.

use desim::SimDuration;
use smartvlc_bench::{f, full_run, results_dir, with_env_threads};
use smartvlc_sim::report::{markdown_table, write_csv};
use smartvlc_sim::{run_broadcast, Seat};

fn main() {
    with_env_threads(run);
}

fn run() {
    let seats = [
        (
            "desk under lamp",
            Seat {
                distance_m: 1.2,
                off_axis_deg: 0.0,
            },
        ),
        (
            "neighbour desk",
            Seat {
                distance_m: 2.2,
                off_axis_deg: 6.0,
            },
        ),
        (
            "meeting chair",
            Seat {
                distance_m: 3.0,
                off_axis_deg: 3.0,
            },
        ),
        (
            "window seat",
            Seat {
                distance_m: 3.3,
                off_axis_deg: 12.0,
            },
        ),
        (
            "far corner",
            Seat {
                distance_m: 4.6,
                off_axis_deg: 4.0,
            },
        ),
        (
            "next room door",
            Seat {
                distance_m: 3.0,
                off_axis_deg: 40.0,
            },
        ),
    ];
    let dur = if full_run() {
        SimDuration::secs(10)
    } else {
        SimDuration::secs(1)
    };
    println!(
        "Broadcast: one AMPPM luminaire at l = 0.5 serving six seats ({} s)\n",
        dur.as_secs_f64()
    );
    let raw: Vec<Seat> = seats.iter().map(|&(_, s)| s).collect();
    let reports = run_broadcast(0.5, &raw, dur, 2017);

    let rows: Vec<Vec<String>> = seats
        .iter()
        .zip(&reports)
        .map(|(&(name, s), r)| {
            vec![
                name.to_string(),
                f(s.distance_m, 1),
                f(s.off_axis_deg, 0),
                r.frames_ok.to_string(),
                r.frames_bad.to_string(),
                f(r.goodput_bps / 1e3, 1),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "seat",
                "dist m",
                "angle",
                "frames ok",
                "frames bad",
                "goodput Kbps"
            ],
            &rows
        )
    );
    println!("reading: all in-beam seats within ~3.5 m receive the identical");
    println!("broadcast at full rate; the Fig. 16 distance cliff and the Fig. 17");
    println!("angular cut-off each claim a seat; beyond the FoV there is nothing.");

    write_csv(
        results_dir().join("tableB_broadcast.csv"),
        &["seat", "dist_m", "angle_deg", "ok", "bad", "goodput_kbps"],
        &rows,
    )
    .expect("write csv");
}
