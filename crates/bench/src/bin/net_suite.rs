//! Net suite: workload mixes over the datagram layer.
//!
//! Runs the mix battery from `smartvlc_sim::net_suite` (web pair, video
//! call, IoT swarm, and the oversubscribed bulk-vs-keepalive fairness
//! case) **twice per seed** — FEC off and with the nominal outer code —
//! prints a markdown table of flow-completion and tail-latency numbers,
//! and writes the per-mix metrics as JSON to `results/BENCH_net.json`.
//! The top-level keys come from the uncoded leg; the coded leg rides
//! along as a one-line `fec_on` object per mix, so
//! `grep '"fec_on"' results/BENCH_net.json` shows what the code buys in
//! datagram terms.
//!
//! The suite then re-runs itself at `SMARTVLC_THREADS=1` and `=8` and
//! verifies the two JSON reports are byte-identical — the runner's
//! determinism contract, enforced on the datagram path (both legs)
//! every time this binary runs (CI diffs the same pair).

use smartvlc_bench::{f, full_run, results_dir};
use smartvlc_obs as obs;
use smartvlc_sim::net_suite::{NetFecComparison, NetSummary};
use smartvlc_sim::report::markdown_table;
use smartvlc_sim::run_net_suite_fec;
use smartvlc_sim::stats_util::Percentiles;

const BASE_SEED: u64 = 0x5eed_4e71;

/// Percentile triple as a one-line JSON object (`null` when the mix
/// delivered nothing, e.g. a dead-link leg).
fn pct_json(p: &Option<Percentiles>) -> String {
    match p {
        Some(p) => format!(
            "{{\"n\": {}, \"p50\": {:.3}, \"p95\": {:.3}, \"p99\": {:.3}}}",
            p.n, p.p50, p.p95, p.p99
        ),
        None => "null".to_string(),
    }
}

/// The coded leg, as a single JSON line so it stays grep-filterable.
fn fec_on_json(s: &NetSummary) -> String {
    format!(
        "{{\"delivery_ratio\": {:.6}, \"delivered_dgrams\": {}, \
         \"flows_completed\": {}, \"latency_ms\": {}, \"fct_ms\": {}, \
         \"mean_goodput_bps\": {:.3}}}",
        s.delivery_ratio,
        s.delivered_dgrams,
        s.flows_completed,
        pct_json(&s.latency_ms),
        pct_json(&s.fct_ms),
        s.mean_goodput_bps
    )
}

/// Hand-rolled JSON (the workspace is fully offline — no serde_json):
/// stable key order, fixed float formatting, so equal results mean equal
/// bytes.
fn to_json(
    comparisons: &[NetFecComparison],
    replicates: usize,
    telemetry: &obs::Snapshot,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"base_seed\": {BASE_SEED},\n"));
    out.push_str(&format!("  \"replicates\": {replicates},\n"));
    out.push_str("  \"mixes\": [\n");
    for (i, c) in comparisons.iter().enumerate() {
        let s = &c.off;
        out.push_str("    {\n");
        out.push_str("      \"name\": \"");
        obs::escape_json(s.name, &mut out);
        out.push_str("\",\n      \"description\": \"");
        obs::escape_json(s.description, &mut out);
        out.push_str("\",\n");
        out.push_str(&format!(
            "      \"offered_dgrams\": {},\n",
            s.offered_dgrams
        ));
        out.push_str(&format!(
            "      \"delivered_dgrams\": {},\n",
            s.delivered_dgrams
        ));
        out.push_str(&format!("      \"lost_dgrams\": {},\n", s.lost_dgrams));
        out.push_str(&format!(
            "      \"delivery_ratio\": {:.6},\n",
            s.delivery_ratio
        ));
        out.push_str(&format!("      \"flows_offered\": {},\n", s.flows_offered));
        out.push_str(&format!(
            "      \"flows_completed\": {},\n",
            s.flows_completed
        ));
        out.push_str(&format!(
            "      \"latency_ms\": {},\n",
            pct_json(&s.latency_ms)
        ));
        out.push_str(&format!("      \"fct_ms\": {},\n", pct_json(&s.fct_ms)));
        out.push_str(&format!("      \"queue_drops\": {},\n", s.queue_drops));
        out.push_str(&format!("      \"bad_version\": {},\n", s.bad_version));
        out.push_str(&format!("      \"evicted\": {},\n", s.evicted));
        out.push_str(&format!(
            "      \"mean_goodput_bps\": {:.3},\n",
            s.mean_goodput_bps
        ));
        out.push_str(&format!("      \"fec_on\": {}\n", fec_on_json(&c.on)));
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
fn suite_report(replicates: usize) -> (String, String, Vec<NetFecComparison>) {
    let rec = obs::Recorder::new();
    let comparisons = obs::with_recorder(&rec, || run_net_suite_fec(replicates, BASE_SEED));
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

fn pct_cell(p: &Option<Percentiles>) -> (String, String, String) {
    match p {
        Some(p) => (f(p.p50, 0), f(p.p95, 0), f(p.p99, 0)),
        None => ("-".into(), "-".into(), "-".into()),
    }
}

fn main() {
    let replicates = if full_run() { 5 } else { 2 };

    let (_, _, comparisons) = suite_report(replicates);
    let mut rows = Vec::new();
    for c in &comparisons {
        let s = &c.off;
        let (p50, p95, p99) = pct_cell(&s.latency_ms);
        let (fct50, _, fct99) = pct_cell(&s.fct_ms);
        rows.push(vec![
            s.name.to_string(),
            f(s.delivery_ratio * 100.0, 1),
            f(c.on.delivery_ratio * 100.0, 1),
            format!("{}/{}", s.flows_completed, s.flows_offered),
            p50,
            p95,
            p99,
            fct50,
            fct99,
            s.queue_drops.to_string(),
        ]);
    }
    println!("# Net suite — datagram traffic over the self-healing link\n");
    println!(
        "{}",
        markdown_table(
            &[
                "mix",
                "delivered % (fec off)",
                "delivered % (fec on)",
                "flows done",
                "lat p50 ms",
                "lat p95 ms",
                "lat p99 ms",
                "fct p50 ms",
                "fct p99 ms",
                "queue drops",
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
        "net suite differs between SMARTVLC_THREADS=1 and 8"
    );
    assert_eq!(
        serial_csv, parallel_csv,
        "net telemetry CSV differs between SMARTVLC_THREADS=1 and 8"
    );
    println!("determinism: SMARTVLC_THREADS=1 and 8 reports are byte-identical");

    let path = results_dir().join("BENCH_net.json");
    std::fs::write(&path, &serial).expect("write BENCH_net.json");
    println!("wrote {}", path.display());
    let csv_path = results_dir().join("TELEMETRY_net.csv");
    std::fs::write(&csv_path, &serial_csv).expect("write TELEMETRY_net.csv");
    println!("wrote {}", csv_path.display());
}
