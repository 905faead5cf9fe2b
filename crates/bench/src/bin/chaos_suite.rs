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
//! The suite then re-runs itself at `SMARTVLC_THREADS=1` and `=8` and
//! verifies the two JSON reports are byte-identical — the runner's
//! determinism contract, enforced on the chaos path (both legs) every
//! time this binary runs (CI diffs the same pair).

use smartvlc_bench::{f, full_run, results_dir};
use smartvlc_obs as obs;
use smartvlc_sim::chaos::{ChaosFecComparison, ChaosSummary};
use smartvlc_sim::report::markdown_table;
use smartvlc_sim::run_chaos_suite_fec;

const BASE_SEED: u64 = 0x5eed_c4a0;

/// The coded leg, as a single JSON line so it stays grep-filterable.
fn fec_on_json(s: &ChaosSummary) -> String {
    format!(
        "{{\"mean_goodput_retained\": {:.6}, \"min_goodput_retained\": {:.6}, \
         \"mean_goodput_bps\": {:.3}, \"fec_corrected_symbols\": {}, \
         \"fec_decode_failures\": {}, \"mean_fec_overhead\": {:.6}}}",
        s.mean_goodput_retained,
        s.min_goodput_retained,
        s.mean_goodput_bps,
        s.fec_corrected_symbols,
        s.fec_decode_failures,
        s.mean_fec_overhead
    )
}

/// Hand-rolled JSON (the workspace is fully offline — no serde_json):
/// stable key order, fixed float formatting, so equal results mean equal
/// bytes.
fn to_json(
    comparisons: &[ChaosFecComparison],
    replicates: usize,
    telemetry: &obs::Snapshot,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"base_seed\": {BASE_SEED},\n"));
    out.push_str(&format!("  \"replicates\": {replicates},\n"));
    out.push_str("  \"scenarios\": [\n");
    for (i, c) in comparisons.iter().enumerate() {
        let s = &c.off;
        out.push_str("    {\n");
        out.push_str("      \"name\": \"");
        obs::escape_json(s.name, &mut out);
        out.push_str("\",\n      \"description\": \"");
        obs::escape_json(s.description, &mut out);
        out.push_str("\",\n");
        out.push_str(&format!(
            "      \"mean_goodput_retained\": {:.6},\n",
            s.mean_goodput_retained
        ));
        out.push_str(&format!(
            "      \"min_goodput_retained\": {:.6},\n",
            s.min_goodput_retained
        ));
        out.push_str(&format!(
            "      \"mean_goodput_bps\": {:.3},\n",
            s.mean_goodput_bps
        ));
        match s.mean_resync_s {
            Some(v) => out.push_str(&format!("      \"mean_resync_s\": {v:.6},\n")),
            None => out.push_str("      \"mean_resync_s\": null,\n"),
        }
        out.push_str(&format!(
            "      \"late_deliveries\": {},\n",
            s.late_deliveries
        ));
        out.push_str(&format!("      \"frames_lost\": {},\n", s.frames_lost));
        out.push_str(&format!("      \"sync_losses\": {},\n", s.sync_losses));
        out.push_str(&format!(
            "      \"resync_overruns\": {},\n",
            s.resync_overruns
        ));
        out.push_str(&format!(
            "      \"max_degrade_tier\": {},\n",
            s.max_degrade_tier
        ));
        out.push_str(&format!("      \"fec_on\": {},\n", fec_on_json(&c.on)));
        out.push_str(&format!(
            "      \"goodput_retained_delta\": {:.6}\n",
            c.goodput_retained_delta()
        ));
        out.push_str(if i + 1 == comparisons.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ],\n");
    // Telemetry block: deterministic by construction (sim-time stamps,
    // submission-order merge), so it participates in the byte-diff gate.
    out.push_str(&format!(
        "  \"telemetry\": {}\n",
        telemetry.to_json_embedded()
    ));
    out.push_str("}\n");
    out
}

/// One full suite run under a fresh root recorder. Returns the JSON report
/// (with embedded telemetry) and the telemetry CSV export.
fn suite_report(replicates: usize) -> (String, String, Vec<ChaosFecComparison>) {
    let rec = obs::Recorder::new();
    let comparisons = obs::with_recorder(&rec, || run_chaos_suite_fec(replicates, BASE_SEED));
    let snap = rec.snapshot();
    (
        to_json(&comparisons, replicates, &snap),
        snap.to_csv(),
        comparisons,
    )
}

fn run_at(threads: Option<usize>, replicates: usize) -> (String, String) {
    let old = std::env::var("SMARTVLC_THREADS").ok();
    if let Some(n) = threads {
        std::env::set_var("SMARTVLC_THREADS", n.to_string());
    }
    let (json, csv, _) = suite_report(replicates);
    match old {
        Some(v) => std::env::set_var("SMARTVLC_THREADS", v),
        None => std::env::remove_var("SMARTVLC_THREADS"),
    }
    (json, csv)
}

fn main() {
    let replicates = if full_run() { 5 } else { 2 };

    let (_, _, comparisons) = suite_report(replicates);
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

    // Determinism gate: the whole suite — both legs AND telemetry —
    // serial vs 8-way, byte-identical.
    let (serial, serial_csv) = run_at(Some(1), replicates);
    let (parallel, parallel_csv) = run_at(Some(8), replicates);
    assert_eq!(
        serial, parallel,
        "chaos suite differs between SMARTVLC_THREADS=1 and 8"
    );
    assert_eq!(
        serial_csv, parallel_csv,
        "chaos telemetry CSV differs between SMARTVLC_THREADS=1 and 8"
    );
    println!("determinism: SMARTVLC_THREADS=1 and 8 reports are byte-identical");

    let path = results_dir().join("BENCH_chaos.json");
    std::fs::write(&path, &serial).expect("write BENCH_chaos.json");
    println!("wrote {}", path.display());
    let csv_path = results_dir().join("TELEMETRY_chaos.csv");
    std::fs::write(&csv_path, &serial_csv).expect("write TELEMETRY_chaos.csv");
    println!("wrote {}", csv_path.display());
}
