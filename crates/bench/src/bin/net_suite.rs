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
//! The suite runs on one worker and on eight and verifies the two JSON
//! reports are byte-identical — the runner's determinism contract,
//! enforced on the datagram path (both legs) every time this binary runs
//! (CI diffs the same pair across `SMARTVLC_THREADS=1` and `=8`).

use smartvlc_bench::{f, full_run, gate_1_vs_8, with_env_threads, write_result};
use smartvlc_obs::{self as obs, Json};
use smartvlc_sim::net_suite::NetFecComparison;
use smartvlc_sim::report::markdown_table;
use smartvlc_sim::run_net_suite_fec;
use smartvlc_sim::stats_util::Percentiles;

const BASE_SEED: u64 = 0x5eed_4e71;

/// The `BENCH_net.json` document: stable key order, fixed float
/// formatting, the telemetry snapshot embedded. The coded leg is one
/// inline `fec_on` object so it stays grep-filterable.
fn report_json(
    comparisons: &[NetFecComparison],
    replicates: usize,
    telemetry: &obs::Snapshot,
) -> Json {
    let (f3, f6) = (|v: f64| Json::fixed(v, 3), |v: f64| Json::fixed(v, 6));
    // A percentile triple, `null` when the mix delivered nothing.
    let pct = |p: &Option<Percentiles>| -> Json {
        p.as_ref()
            .map(|p| {
                Json::inline_obj([
                    ("n", Json::from(p.n)),
                    ("p50", f3(p.p50)),
                    ("p95", f3(p.p95)),
                    ("p99", f3(p.p99)),
                ])
            })
            .into()
    };
    let mix = |c: &NetFecComparison| {
        let (s, on) = (&c.off, &c.on);
        Json::obj([
            ("name", Json::from(s.name)),
            ("description", Json::from(s.description)),
            ("offered_dgrams", Json::from(s.offered_dgrams)),
            ("delivered_dgrams", Json::from(s.delivered_dgrams)),
            ("lost_dgrams", Json::from(s.lost_dgrams)),
            ("delivery_ratio", f6(s.delivery_ratio)),
            ("flows_offered", Json::from(s.flows_offered)),
            ("flows_completed", Json::from(s.flows_completed)),
            ("latency_ms", pct(&s.latency_ms)),
            ("fct_ms", pct(&s.fct_ms)),
            ("queue_drops", Json::from(s.queue_drops)),
            ("bad_version", Json::from(s.bad_version)),
            ("evicted", Json::from(s.evicted)),
            ("mean_goodput_bps", f3(s.mean_goodput_bps)),
            (
                "fec_on",
                Json::inline_obj([
                    ("delivery_ratio", f6(on.delivery_ratio)),
                    ("delivered_dgrams", Json::from(on.delivered_dgrams)),
                    ("flows_completed", Json::from(on.flows_completed)),
                    ("latency_ms", pct(&on.latency_ms)),
                    ("fct_ms", pct(&on.fct_ms)),
                    ("mean_goodput_bps", f3(on.mean_goodput_bps)),
                ]),
            ),
        ])
    };
    Json::obj([
        ("base_seed", Json::from(BASE_SEED)),
        ("replicates", Json::from(replicates)),
        ("mixes", Json::arr(comparisons.iter().map(mix))),
        // Deterministic by construction (sim-time stamps, submission-order
        // merge), so the telemetry participates in the byte gate.
        ("telemetry", telemetry.json()),
    ])
}

/// One full suite run under a fresh root recorder: the comparisons, the
/// JSON report and the telemetry CSV.
fn suite_run(replicates: usize) -> (Vec<NetFecComparison>, String, String) {
    let rec = obs::Recorder::new();
    let comparisons = obs::with_recorder(&rec, || run_net_suite_fec(replicates, BASE_SEED));
    let snap = rec.snapshot();
    let json = format!("{}\n", report_json(&comparisons, replicates, &snap));
    (comparisons, json, snap.to_csv())
}

fn pct_cell(p: &Option<Percentiles>) -> (String, String, String) {
    match p {
        Some(p) => (f(p.p50, 0), f(p.p95, 0), f(p.p99, 0)),
        None => ("-".into(), "-".into(), "-".into()),
    }
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
        "net suite",
        || suite_run(replicates),
        |(_, json, csv)| format!("{json}{csv}"),
    );
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

    println!("determinism: SMARTVLC_THREADS=1 and 8 reports are byte-identical");

    write_result("BENCH_net.json", json);
    write_result("TELEMETRY_net.csv", csv);
}
