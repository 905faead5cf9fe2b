//! Wall-clock audit of the parallel experiment runner: each figure
//! workload timed on one worker and on `SMARTVLC_THREADS` workers (the
//! machine's parallelism when unset), written as machine-readable JSON to
//! `results/BENCH_runner.json` (override the directory with
//! `SMARTVLC_RESULTS`).
//!
//! The runner's contract is bit-identical results at any thread count,
//! so this binary also cross-checks each workload's parallel output
//! against its serial output before reporting the timing — a speedup
//! that changed the numbers would be a bug, not a win.

use desim::{DetRng, SimDuration};
use smartvlc_bench::{env_threads, write_result};
use smartvlc_core::SystemConfig;
use smartvlc_link::{SchemeKind, Transmitter};
use smartvlc_obs::{self as obs, Json};
use smartvlc_sim::static_run::{
    paper_levels, run_distance_matrix, run_incidence_matrix, run_scheme_matrix,
};
use smartvlc_sim::{run_broadcast, with_threads, Seat, StaticPoint};
use std::time::Instant;
use vlc_channel::link::{ChannelConfig, OpticalChannel, RxScratch};

struct Timing {
    figure: &'static str,
    tasks: usize,
    serial_s: f64,
    parallel_s: f64,
    threads: usize,
    identical: bool,
    /// Telemetry from the serial leg (byte-identical to the parallel
    /// leg's — asserted in `measure`). Wall-clock timings stay out of it.
    telemetry: obs::Snapshot,
}

/// Time the RX hot path before and after the speed pass, reconstructing
/// each "before" shape in-binary from public API:
///
/// * **analytic** — the old per-frame/per-tick cost: a full
///   `detector_with(..).error_probs()` recompute from the channel config
///   on every call, vs. the memoized `analytic_error_probs()` backed by
///   the operating-point intern cache. The memo is invalidated every 256
///   iterations so the shared intern map (not just the per-channel L0
///   slot) stays on the timed path. This ratio is the headline gate.
/// * **sampled** — the `transmit_and_decide_into` frame pipeline in
///   ns/slot, after checking that two channels on the same seed produce
///   identical decisions.
fn rx_hot_path_section() -> Json {
    let ch_cfg = ChannelConfig::paper_bench(2.5);

    // A realistic slot batch: one AMPPM frame plus the 32-slot gap — the
    // unit link.rs and broadcast.rs push through the channel per frame.
    let root = DetRng::seed_from_u64(0x5ee0);
    let mut tx = Transmitter::new(
        SystemConfig::default(),
        SchemeKind::Amppm,
        1.308,
        0.808,
        0.1,
        smartvlc_core::frame::format::FecMode::Off,
        root.fork("tx"),
    )
    .expect("valid config");
    let data = tx.random_data();
    let (_, mut slots) = tx.build_frame(0, &data).expect("level carries data");
    slots.extend(std::iter::repeat_n(false, 32));
    let frame_slots = slots.len();

    // Analytic operating point: recompute-per-call vs. interned.
    let iters = 200_000u32;
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(ch_cfg.detector_with(1.0, false).error_probs());
    }
    let analytic_baseline_ns = t0.elapsed().as_nanos() as f64 / iters as f64;

    let mut ch = OpticalChannel::new(ch_cfg, root.fork("analytic"));
    let lux = ch_cfg.ambient_lux;
    let t1 = Instant::now();
    for i in 0..iters {
        if i % 256 == 0 {
            // State "change" clears the memo; the next query is an intern
            // map hit, so the map probe is part of what we time.
            ch.set_ambient_lux(lux);
        }
        std::hint::black_box(ch.analytic_error_probs());
    }
    let analytic_cached_ns = t1.elapsed().as_nanos() as f64 / iters as f64;
    let analytic_ratio = analytic_baseline_ns / analytic_cached_ns.max(1e-9);

    // Semantics gate before the speed gate: the interned operating point
    // must be the freshly computed one, bit for bit (cache force-disabled
    // on a twin channel).
    let mut ch_off = OpticalChannel::new(ch_cfg, root.fork("analytic"));
    ch_off.set_op_cache(vlc_channel::OperatingPointCache::with_enabled(false));
    let cached = ch.analytic_error_probs();
    let fresh = ch_off.analytic_error_probs();
    assert_eq!(
        (cached.p_on_error.to_bits(), cached.p_off_error.to_bits()),
        (fresh.p_on_error.to_bits(), fresh.p_off_error.to_bits()),
        "interned operating point diverged from the uncached recompute"
    );
    assert!(
        analytic_ratio >= 5.0,
        "operating-point cache speedup regressed below the 5x gate: {analytic_ratio:.2}x"
    );

    // Sampled pipeline: two channels on the same seed must decide
    // identically, then time one of them.
    let mut ch_a = OpticalChannel::new(ch_cfg, DetRng::seed_from_u64(77));
    let mut ch_b = OpticalChannel::new(ch_cfg, DetRng::seed_from_u64(77));
    let mut scratch = RxScratch::new();
    let mut twin = RxScratch::new();
    for _ in 0..16 {
        ch_a.transmit_and_decide_into(&slots, &mut scratch);
        ch_b.transmit_and_decide_into(&slots, &mut twin);
        assert_eq!(scratch.decided, twin.decided, "same-seed channels diverged");
    }

    let frames = 4_000u32;
    let t2 = Instant::now();
    for _ in 0..frames {
        ch_a.transmit_and_decide_into(&slots, &mut scratch);
        std::hint::black_box(scratch.decided.len());
    }
    let sampled_ns = t2.elapsed().as_nanos() as f64 / (frames as f64 * frame_slots as f64);

    println!();
    println!(
        "rx analytic op-point: recompute {analytic_baseline_ns:7.1} ns/call  \
         interned {analytic_cached_ns:7.1} ns/call  ({analytic_ratio:.1}x)"
    );
    println!(
        "rx sampled frame ({frame_slots} slots): {sampled_ns:6.1} ns/slot  \
         (same-seed channels bit-identical)"
    );

    let baseline_per_slot = analytic_baseline_ns / frame_slots as f64;
    let cached_per_slot = analytic_cached_ns / frame_slots as f64;
    Json::obj([
        ("frame_slots", Json::from(frame_slots)),
        (
            "analytic",
            Json::inline_obj([
                ("baseline_ns_per_call", Json::fixed(analytic_baseline_ns, 1)),
                ("cached_ns_per_call", Json::fixed(analytic_cached_ns, 1)),
                ("baseline_ns_per_slot", Json::fixed(baseline_per_slot, 3)),
                ("cached_ns_per_slot", Json::fixed(cached_per_slot, 3)),
                ("ratio", Json::fixed(analytic_ratio, 2)),
            ]),
        ),
        (
            "sampled",
            Json::inline_obj([
                ("ns_per_slot", Json::fixed(sampled_ns, 2)),
                ("bit_identical", Json::from(true)),
            ]),
        ),
        ("headline_ratio", Json::fixed(analytic_ratio, 2)),
    ])
}

fn fingerprint(sweeps: &[Vec<StaticPoint>]) -> Vec<u64> {
    sweeps
        .iter()
        .flatten()
        .flat_map(|p| [p.goodput_bps.to_bits(), p.fer.to_bits()])
        .collect()
}

/// Run `work` once on 1 worker and once on `threads`, returning
/// wall-clock seconds for both plus the outputs' equality.
fn measure<R: PartialEq>(
    figure: &'static str,
    tasks: usize,
    threads: usize,
    work: impl Fn() -> R,
) -> Timing {
    let timed = |n: usize| {
        let rec = obs::Recorder::new();
        let t = Instant::now();
        let out = with_threads(n, || obs::with_recorder(&rec, &work));
        (out, t.elapsed().as_secs_f64(), rec.snapshot())
    };
    let (serial, serial_s, serial_snap) = timed(1);
    let (parallel, parallel_s, parallel_snap) = timed(threads);
    assert_eq!(
        serial_snap.json().to_string(),
        parallel_snap.json().to_string(),
        "{figure}: telemetry snapshot differs between 1 and {threads} thread(s)"
    );

    Timing {
        figure,
        tasks,
        serial_s,
        parallel_s,
        threads,
        identical: serial == parallel,
        telemetry: serial_snap,
    }
}

fn main() {
    // Honor SMARTVLC_THREADS for the parallel leg (invalid values fail
    // loudly); fall back to the machine's parallelism when unset.
    let threads = env_threads();
    let dur = SimDuration::millis(400);
    println!("runner wall-clock audit: serial vs {threads} thread(s), 0.4 s points\n");

    let levels = paper_levels();
    let schemes = [SchemeKind::Amppm, SchemeKind::Mppm(20), SchemeKind::OokCt];
    let distances: Vec<f64> = (1..=10).map(|i| i as f64 * 0.5).collect();
    let fig16_levels = [0.18, 0.5, 0.7];
    let angles: Vec<f64> = (0..=8).map(|i| i as f64 * 2.0).collect();
    let fig17_distances = [1.3, 2.3, 3.3];
    let seats: Vec<Seat> = (0..6)
        .map(|i| Seat {
            distance_m: 1.0 + 0.5 * i as f64,
            off_axis_deg: 2.0 * i as f64,
        })
        .collect();

    let timings = [
        measure(
            "fig15_scheme_comparison",
            schemes.len() * levels.len(),
            threads,
            || fingerprint(&run_scheme_matrix(&schemes, &levels, dur, 15)),
        ),
        measure(
            "fig16_distance",
            fig16_levels.len() * distances.len(),
            threads,
            || {
                fingerprint(&run_distance_matrix(
                    SchemeKind::Amppm,
                    &fig16_levels,
                    &distances,
                    dur,
                    16,
                ))
            },
        ),
        measure(
            "fig17_incidence",
            fig17_distances.len() * angles.len(),
            threads,
            || {
                fingerprint(&run_incidence_matrix(
                    SchemeKind::Amppm,
                    0.5,
                    &fig17_distances,
                    &angles,
                    dur,
                    17,
                ))
            },
        ),
        measure("tableB_broadcast", seats.len(), threads, || {
            run_broadcast(0.5, &seats, dur, 2017)
                .iter()
                .map(|r| (r.frames_ok, r.frames_bad, r.goodput_bps.to_bits()))
                .collect::<Vec<_>>()
        }),
    ];

    let mut figures = Vec::new();
    for t in &timings {
        let speedup = t.serial_s / t.parallel_s.max(1e-9);
        println!(
            "{:28} {:3} tasks  serial {:7.3} s  parallel {:7.3} s  speedup {:.2}x  identical: {}",
            t.figure, t.tasks, t.serial_s, t.parallel_s, speedup, t.identical
        );
        assert!(
            t.identical,
            "{}: parallel output diverged from serial",
            t.figure
        );
        figures.push(Json::inline_obj([
            ("figure", Json::from(t.figure)),
            ("tasks", Json::from(t.tasks)),
            ("threads", Json::from(t.threads)),
            ("serial_s", Json::fixed(t.serial_s, 4)),
            ("parallel_s", Json::fixed(t.parallel_s, 4)),
            ("speedup", Json::fixed(speedup, 3)),
            ("identical", Json::from(t.identical)),
        ]));
    }

    let json = Json::obj([
        ("figures", Json::arr(figures)),
        ("rx_ns_per_slot", rx_hot_path_section()),
    ]);

    println!();
    write_result("BENCH_runner.json", format!("{json}\n"));

    // Telemetry goes to its own file: BENCH_runner.json carries wall-clock
    // timings (legitimately nondeterministic), while this file holds only
    // sim-time metrics and must be byte-identical at any SMARTVLC_THREADS
    // (the CI telemetry-determinism job diffs it at 1 vs 8).
    let tele = Json::obj(timings.iter().map(|t| (t.figure, t.telemetry.json())));
    write_result("TELEMETRY_runner.json", format!("{tele}\n"));
    if threads == 1 {
        let why = match std::env::var_os("SMARTVLC_THREADS") {
            Some(_) => "SMARTVLC_THREADS=1 runs the parallel leg on one worker",
            None => "this machine exposes 1 CPU (available_parallelism)",
        };
        println!("note: {why}; speedups ~1.0x are expected here.");
        println!("      The determinism cross-check (identical: true) is the load-bearing result;");
        println!("      scaling shows up on multi-core hosts.");
    }
}
