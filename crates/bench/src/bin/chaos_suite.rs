//! Chaos suite: scheduled channel faults against the self-healing link.
//!
//! Runs the scenario battery from `smartvlc_sim::chaos` (ambient spikes,
//! occlusion, clock drift, symbol slips, saturation, flaky uplink, a
//! kitchen-sink combination, and the deep fade) **twice per seed** —
//! ARQ-only and with the nominal FEC outer code — prints a markdown
//! recovery table, and writes the per-scenario metrics as JSON to
//! `results/BENCH_chaos.json`. The legacy per-scenario keys come from
//! the ARQ-only leg; the coded leg rides along as a one-line `fec_on`
//! object plus a `goodput_retained_delta`, so
//! `grep '"fec_on"' results/BENCH_chaos.json` shows what the code buys.
//!
//! The suite runs on one worker and on eight and verifies the two JSON
//! reports are byte-identical — the runner's determinism contract,
//! enforced on the chaos path (both legs) every time this binary runs (CI
//! diffs the same pair across `SMARTVLC_THREADS=1` and `=8`).

use smartvlc_bench::{f, full_run, gate_1_vs_8, with_env_threads, write_result};
use smartvlc_obs::{self as obs, Json};
use smartvlc_sim::chaos::ChaosFecComparison;
use smartvlc_sim::report::markdown_table;
use smartvlc_sim::run_chaos_suite_fec;

const BASE_SEED: u64 = 0x5eed_c4a0;

/// The `BENCH_chaos.json` document: stable key order, fixed float
/// formatting, the telemetry snapshot embedded. The coded leg is one
/// inline `fec_on` object so it stays grep-filterable.
fn report_json(
    comparisons: &[ChaosFecComparison],
    replicates: usize,
    telemetry: &obs::Snapshot,
) -> Json {
    let (f3, f6) = (|v: f64| Json::fixed(v, 3), |v: f64| Json::fixed(v, 6));
    let scenario = |c: &ChaosFecComparison| {
        let (s, on) = (&c.off, &c.on);
        Json::obj([
            ("name", Json::from(s.name)),
            ("description", Json::from(s.description)),
            ("mean_goodput_retained", f6(s.mean_goodput_retained)),
            ("min_goodput_retained", f6(s.min_goodput_retained)),
            ("mean_goodput_bps", f3(s.mean_goodput_bps)),
            ("mean_resync_s", s.mean_resync_s.map(f6).into()),
            ("late_deliveries", Json::from(s.late_deliveries)),
            ("frames_lost", Json::from(s.frames_lost)),
            ("sync_losses", Json::from(s.sync_losses)),
            ("resync_overruns", Json::from(s.resync_overruns)),
            ("max_degrade_tier", Json::from(s.max_degrade_tier)),
            (
                "fec_on",
                Json::inline_obj([
                    ("mean_goodput_retained", f6(on.mean_goodput_retained)),
                    ("min_goodput_retained", f6(on.min_goodput_retained)),
                    ("mean_goodput_bps", f3(on.mean_goodput_bps)),
                    (
                        "fec_corrected_symbols",
                        Json::from(on.fec_corrected_symbols),
                    ),
                    ("fec_decode_failures", Json::from(on.fec_decode_failures)),
                    ("mean_fec_overhead", f6(on.mean_fec_overhead)),
                ]),
            ),
            ("goodput_retained_delta", f6(c.goodput_retained_delta())),
        ])
    };
    Json::obj([
        ("base_seed", Json::from(BASE_SEED)),
        ("replicates", Json::from(replicates)),
        ("scenarios", Json::arr(comparisons.iter().map(scenario))),
        // Deterministic by construction (sim-time stamps, submission-order
        // merge), so the telemetry participates in the byte gate.
        ("telemetry", telemetry.json()),
    ])
}

/// One full suite run under a fresh root recorder: the comparisons, the
/// JSON report and the telemetry CSV.
fn suite_run(replicates: usize) -> (Vec<ChaosFecComparison>, String, String) {
    let rec = obs::Recorder::new();
    let comparisons = obs::with_recorder(&rec, || run_chaos_suite_fec(replicates, BASE_SEED));
    let snap = rec.snapshot();
    let json = format!("{}\n", report_json(&comparisons, replicates, &snap));
    (comparisons, json, snap.to_csv())
}

fn main() {
    with_env_threads(run);
}

fn run() {
    let replicates = if full_run() { 5 } else { 2 };

    // Determinism gate: the whole suite — both legs AND telemetry —
    // serial vs 8-way, byte-identical. The serial run feeds the table and
    // becomes the artifact, so what we print is what we checked.
    let (comparisons, json, csv) = gate_1_vs_8(
        "chaos suite",
        || suite_run(replicates),
        |(_, json, csv)| format!("{json}{csv}"),
    );
    let mut rows = Vec::new();
    for c in &comparisons {
        let s = &c.off;
        rows.push(vec![
            s.name.to_string(),
            f(s.mean_goodput_retained * 100.0, 1),
            f(c.on.mean_goodput_retained * 100.0, 1),
            f(c.goodput_retained_delta() * 100.0, 1),
            f(s.mean_goodput_bps / 1000.0, 1),
            s.mean_resync_s.map_or("-".into(), |v| f(v * 1000.0, 0)),
            s.frames_lost.to_string(),
            c.on.fec_corrected_symbols.to_string(),
            c.on.fec_decode_failures.to_string(),
        ]);
    }
    println!("# Chaos suite — fault injection vs the self-healing link\n");
    println!(
        "{}",
        markdown_table(
            &[
                "scenario",
                "arq-only retained %",
                "fec-on retained %",
                "delta %",
                "goodput kbit/s",
                "resync ms",
                "lost",
                "fec corrected",
                "fec failures",
            ],
            &rows,
        )
    );

    println!("determinism: SMARTVLC_THREADS=1 and 8 reports are byte-identical");

    write_result("BENCH_chaos.json", json);
    write_result("TELEMETRY_chaos.csv", csv);
}
