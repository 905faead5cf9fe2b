//! Wall-clock audit of the parallel experiment runner: each figure
//! workload timed serially (`SMARTVLC_THREADS=1`) and at the machine's
//! parallelism, written as machine-readable JSON to
//! `results/BENCH_runner.json` (override the directory with
//! `SMARTVLC_RESULTS`).
//!
//! The runner's contract is bit-identical results at any thread count,
//! so this binary also cross-checks each workload's parallel output
//! against its serial output before reporting the timing — a speedup
//! that changed the numbers would be a bug, not a win.

use desim::{DetRng, SimDuration};
use smartvlc_bench::results_dir;
use smartvlc_core::SystemConfig;
use smartvlc_link::{SchemeKind, Transmitter};
use smartvlc_obs as obs;
use smartvlc_sim::static_run::{
    paper_levels, run_distance_matrix, run_incidence_matrix, run_scheme_matrix,
};
use smartvlc_sim::{run_broadcast, Seat, StaticPoint};
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

/// The pre-optimisation per-symbol unrank walk (owned `BigUint`s, a fresh
/// allocation per step) — the "before" for the ns/symbol record.
fn encode_biguint_baseline(
    table: &combinat::BinomialTable,
    n: usize,
    k: usize,
    value: &combinat::BigUint,
) -> Vec<bool> {
    let mut val = value.clone();
    let mut out = Vec::with_capacity(n);
    let mut ones_left = k;
    for pos in 0..n {
        let slots_left = n - pos;
        if ones_left == 0 {
            out.resize(n, false);
            break;
        }
        if ones_left == slots_left {
            out.resize(n, true);
            break;
        }
        let on_count = table.binomial(slots_left - 1, ones_left - 1);
        if val < on_count {
            out.push(true);
            ones_left -= 1;
        } else {
            val = val.checked_sub(&on_count).expect("val >= on_count");
            out.push(false);
        }
    }
    out
}

/// Time the RX hot path before and after the speed pass, reconstructing
/// each "before" shape in-binary from public API (the same pattern as
/// `encode_biguint_baseline`):
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
/// * **decide** — threshold recomputed per slot (`decide` in a loop) vs.
///   the batch `decide_into`.
fn rx_hot_path_section() -> String {
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

    // Batch decision: per-slot threshold recompute vs. decide_into.
    let det = ch_a.analytic_detector();
    ch_a.transmit_into(&slots, &mut scratch);
    let levels = scratch.levels;
    let reps = 100_000u32;
    let decide_norm = reps as f64 * frame_slots as f64;
    let t4 = Instant::now();
    for _ in 0..reps {
        let out: Vec<bool> = levels.iter().map(|&v| det.decide(v)).collect();
        std::hint::black_box(out.as_slice());
    }
    let decide_baseline_ns = t4.elapsed().as_nanos() as f64 / decide_norm;

    let mut decided = Vec::new();
    let t5 = Instant::now();
    for _ in 0..reps {
        det.decide_into(&levels, &mut decided);
        std::hint::black_box(decided.as_slice());
    }
    let decide_into_ns = t5.elapsed().as_nanos() as f64 / decide_norm;
    let decide_ratio = decide_baseline_ns / decide_into_ns.max(1e-9);

    println!();
    println!(
        "rx analytic op-point: recompute {analytic_baseline_ns:7.1} ns/call  \
         interned {analytic_cached_ns:7.1} ns/call  ({analytic_ratio:.1}x)"
    );
    println!(
        "rx sampled frame ({frame_slots} slots): {sampled_ns:6.1} ns/slot  \
         (same-seed channels bit-identical)"
    );
    println!(
        "rx decide: per-slot-threshold {decide_baseline_ns:5.2} ns/slot  \
         decide_into {decide_into_ns:5.2} ns/slot  ({decide_ratio:.2}x)"
    );

    format!(
        "  \"rx_ns_per_slot\": {{\n    \"frame_slots\": {},\n    \
         \"analytic\": {{\"baseline_ns_per_call\": {:.1}, \"cached_ns_per_call\": {:.1}, \
         \"baseline_ns_per_slot\": {:.3}, \"cached_ns_per_slot\": {:.3}, \"ratio\": {:.2}}},\n    \
         \"sampled\": {{\"ns_per_slot\": {:.2}, \"bit_identical\": true}},\n    \
         \"decide\": {{\"baseline_ns_per_slot\": {:.3}, \"into_ns_per_slot\": {:.3}, \
         \"ratio\": {:.2}}},\n    \"headline_ratio\": {:.2}\n  }}\n",
        frame_slots,
        analytic_baseline_ns,
        analytic_cached_ns,
        analytic_baseline_ns / frame_slots as f64,
        analytic_cached_ns / frame_slots as f64,
        analytic_ratio,
        sampled_ns,
        decide_baseline_ns,
        decide_into_ns,
        decide_ratio,
        analytic_ratio,
    )
}

fn fingerprint(sweeps: &[Vec<StaticPoint>]) -> Vec<u64> {
    sweeps
        .iter()
        .flatten()
        .flat_map(|p| [p.goodput_bps.to_bits(), p.fer.to_bits()])
        .collect()
}

/// Run `work` once at 1 thread and once at the ambient thread count,
/// returning wall-clock seconds for both plus the outputs' equality.
fn measure<R: PartialEq>(
    figure: &'static str,
    tasks: usize,
    threads: usize,
    work: impl Fn() -> R,
) -> Timing {
    std::env::set_var("SMARTVLC_THREADS", "1");
    let serial_rec = obs::Recorder::new();
    let t0 = Instant::now();
    let serial = obs::with_recorder(&serial_rec, &work);
    let serial_s = t0.elapsed().as_secs_f64();

    std::env::set_var("SMARTVLC_THREADS", threads.to_string());
    let parallel_rec = obs::Recorder::new();
    let t1 = Instant::now();
    let parallel = obs::with_recorder(&parallel_rec, &work);
    let parallel_s = t1.elapsed().as_secs_f64();
    std::env::remove_var("SMARTVLC_THREADS");

    let serial_snap = serial_rec.snapshot();
    let parallel_snap = parallel_rec.snapshot();
    assert_eq!(
        serial_snap.to_json(),
        parallel_snap.to_json(),
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
    let threads = smartvlc_sim::thread_count();
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

    let mut json = String::from("{\n  \"figures\": [\n");
    for (i, t) in timings.iter().enumerate() {
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
        json.push_str(&format!(
            "    {{\"figure\": \"{}\", \"tasks\": {}, \"threads\": {}, \
             \"serial_s\": {:.4}, \"parallel_s\": {:.4}, \"speedup\": {:.3}, \
             \"identical\": {}}}{}\n",
            t.figure,
            t.tasks,
            t.threads,
            t.serial_s,
            t.parallel_s,
            speedup,
            t.identical,
            if i + 1 < timings.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"codec_ns_per_symbol\": [\n");

    // Per-symbol codec cost: the pre-optimisation BigUint walk vs the
    // scratch + u128 fast-path API, at the modem's pattern sizes.
    println!();
    let codec_cases = [(20usize, 10usize), (31, 15), (120, 60)];
    for (ci, &(n, k)) in codec_cases.iter().enumerate() {
        let table = combinat::BinomialTable::shared(512);
        let value = table
            .binomial(n, k)
            .checked_sub(&combinat::BigUint::from_u64(123))
            .unwrap();
        let iters = 200_000u32;

        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(encode_biguint_baseline(&table, n, k, &value));
        }
        let baseline_ns = t0.elapsed().as_nanos() as f64 / iters as f64;

        let mut scratch = combinat::EncodeScratch::new();
        let mut out = Vec::with_capacity(n);
        let t1 = Instant::now();
        for _ in 0..iters {
            out.clear();
            combinat::encode_codeword_into(&table, n, k, &value, &mut scratch, &mut out).unwrap();
            std::hint::black_box(out.len());
        }
        let scratch_ns = t1.elapsed().as_nanos() as f64 / iters as f64;

        let ratio = baseline_ns / scratch_ns.max(1e-9);
        println!(
            "codec encode N={n:3} K={k:3}: baseline {baseline_ns:7.1} ns  \
             scratch {scratch_ns:7.1} ns  ({ratio:.1}x fewer ns/symbol)"
        );
        json.push_str(&format!(
            "    {{\"n\": {}, \"k\": {}, \"baseline_ns\": {:.1}, \"scratch_ns\": {:.1}, \
             \"ratio\": {:.2}}}{}\n",
            n,
            k,
            baseline_ns,
            scratch_ns,
            ratio,
            if ci + 1 < codec_cases.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&rx_hot_path_section());
    json.push_str("}\n");

    let path = results_dir().join("BENCH_runner.json");
    std::fs::write(&path, &json).expect("write BENCH_runner.json");
    println!("\nwrote {}", path.display());

    // Telemetry goes to its own file: BENCH_runner.json carries wall-clock
    // timings (legitimately nondeterministic), while this file holds only
    // sim-time metrics and must be byte-identical at any SMARTVLC_THREADS
    // (the CI telemetry-determinism job diffs it at 1 vs 8).
    let mut tele = String::from("{\n");
    for (i, t) in timings.iter().enumerate() {
        tele.push_str(&format!(
            "  \"{}\": {}{}\n",
            t.figure,
            t.telemetry.to_json_embedded(),
            if i + 1 < timings.len() { "," } else { "" }
        ));
    }
    tele.push_str("}\n");
    let tele_path = results_dir().join("TELEMETRY_runner.json");
    std::fs::write(&tele_path, &tele).expect("write TELEMETRY_runner.json");
    println!("wrote {}", tele_path.display());
    if threads == 1 {
        println!("note: this machine exposes 1 CPU; speedups ~1.0x are expected here.");
        println!("      The determinism cross-check (identical: true) is the load-bearing result;");
        println!("      scaling shows up on multi-core hosts.");
    }
}
