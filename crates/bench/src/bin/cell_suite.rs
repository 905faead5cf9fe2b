//! Cell suite: the multi-luminaire room under mobile load.
//!
//! Runs the grid-size × user-count battery from `smartvlc_sim::cell`
//! (2×2 / 3×3 / 4×4 ceiling grids, each serving 2 / 6 / 12 waypoint
//! users) on the event-driven core, prints the aggregate-goodput and
//! handover tables, and writes the curves as JSON to
//! `results/BENCH_cell.json` plus the telemetry export to
//! `results/TELEMETRY_cell.csv`.
//!
//! On top of the legacy battery, the **scale battery** (8×8×100 up to
//! 32×32×1000 — the grids the event queue's per-user FoV window exists
//! for) is run once per scenario, timed, and reported as the
//! wall-clock/events-per-second scaling curve: a deterministic
//! `"scaling"` section plus a nondeterministic `"scaling_wall"` line
//! that joins the document only after the byte-equality gates (CI's
//! determinism diff filters it out; CI's perf gate asserts its 8×8
//! events/sec against a tracked floor).
//!
//! The **policy battery** compares the TDMA scheduling policies
//! (equal-share, proportional-fair, coordinated-edge) on the reference
//! 4×4 and 8×8 grids with the smartvlc-net workload mix replayed:
//! per-policy goodput, Jain fairness, cell-edge (p5) user rate and
//! per-flow completion times land in the `"policies"` section, and an
//! in-binary gate asserts the coordinated scheduler never leaves
//! cell-edge users worse off than equal share on the 4×4 grid.
//!
//! Every battery runs on one worker and on eight and its report sections
//! must be byte-identical — the runner's determinism contract, enforced
//! on the cell path every time this binary runs (CI diffs the same pair
//! across `SMARTVLC_THREADS=1` and `=8`).

use smartvlc_bench::{f, full_run, gate_1_vs_8, with_env_threads, write_result};
use smartvlc_obs::Json;
use smartvlc_sim::cell::{
    cell_policy_json, cell_scale_json, cell_scale_scenarios, cell_suite_artifacts, cell_suite_json,
    run_cell, run_cell_policies, run_cell_scale, ScalePoint,
};
use smartvlc_sim::report::markdown_table;
use smartvlc_sim::{task_seed, with_threads};

const BASE_SEED: u64 = 0xce11_5eed;
const SCALE_SEED: u64 = 0x5ca1_ab1e;

fn main() {
    with_env_threads(run);
}

fn run() {
    let replicates = if full_run() { 5 } else { 2 };

    // Determinism gate first: the serial run both feeds the tables and
    // becomes the written artifact, so what we print is what we checked.
    let t0 = std::time::Instant::now();
    let mut serial_wall_s = None;
    let (scenarios_json, summaries, telemetry) = gate_1_vs_8(
        "cell suite",
        || {
            let (summaries, snap) = cell_suite_artifacts(replicates, BASE_SEED);
            // The gate runs serially first: time only that leg.
            serial_wall_s.get_or_insert(t0.elapsed().as_secs_f64());
            (cell_suite_json(&summaries), summaries, snap)
        },
        |(scenarios, _, snap)| format!("{scenarios}\n{}\n{}", snap.json(), snap.to_csv()),
    );

    // Every run checks grant conservation itself and counts breaches
    // in a counter that the telemetry holds only when it is nonzero.
    assert!(
        !telemetry
            .counters
            .iter()
            .any(|(k, _)| k == "sim.cell.invariant_violations"),
        "cell suite breached grant conservation: {:?}",
        telemetry.counters
    );

    // Scale battery: each scenario run serially (timed — the wall-clock
    // curve is the point), reproducing the pool's per-scenario seeds so
    // the 8-worker pool leg below must match byte-for-byte.
    let scale_scenarios = cell_scale_scenarios();
    let mut points: Vec<ScalePoint> = Vec::new();
    let mut wall_ms: Vec<f64> = Vec::new();
    for (i, sc) in scale_scenarios.iter().enumerate() {
        let seed = task_seed(SCALE_SEED, i as u64);
        let t = std::time::Instant::now();
        let r = run_cell(&sc.config(), seed);
        wall_ms.push(t.elapsed().as_secs_f64() * 1e3);
        points.push(ScalePoint::from_report(sc, &r));
    }
    let scaling = cell_scale_json(&points);
    let pooled = with_threads(8, || run_cell_scale(SCALE_SEED));
    assert_eq!(
        scaling.to_string(),
        cell_scale_json(&pooled).to_string(),
        "scale battery differs between serial and SMARTVLC_THREADS=8"
    );

    // Policy battery: every scheduling policy on the reference grids with
    // the net workload mix replayed — deterministic end to end, so the
    // 1-vs-8 byte gate covers it like the main battery. Policies sharing a
    // grid run the same seed, so the columns compare nothing but the
    // scheduler.
    let policies = gate_1_vs_8(
        "policy battery",
        || run_cell_policies(BASE_SEED),
        |p| cell_policy_json(p).to_string(),
    );
    // Coordination gate: on the reference 4×4 grid the coordinated
    // scheduler must not leave cell-edge users worse off than equal
    // share (CI re-checks this from the written artifact).
    let p5 = |policy: &str| {
        policies
            .iter()
            .find(|p| p.nx == 4 && p.policy == policy)
            .map(|p| p.edge_p5_goodput_bps)
            .expect("4x4 policy point present")
    };
    assert!(
        p5("coordinated_edge") >= p5("equal_share"),
        "cell-edge p5 regressed under coordination: {} < {}",
        p5("coordinated_edge"),
        p5("equal_share")
    );

    // Wall-clock is legitimately nondeterministic, so it joins the
    // document only now, after the byte gates above ran on the
    // deterministic sections (CI's determinism diff filters these lines).
    let slots: f64 = summaries.iter().map(|s| s.slots_equivalent).sum();
    let wall_ns_per_slot = serial_wall_s.expect("the serial leg ran") * 1e9 / slots.max(1.0);
    let scaling_wall = points.iter().zip(&wall_ms).map(|(p, w)| {
        let events_per_sec = p.events as f64 / (w / 1e3).max(1e-9);
        Json::inline_obj([
            ("name", Json::from(p.name.as_str())),
            ("wall_ms", Json::fixed(*w, 1)),
            ("events_per_sec", Json::fixed(events_per_sec, 0)),
        ])
    });
    let doc = Json::obj([
        ("suite", Json::from("cell")),
        ("wall_ns_per_slot", Json::fixed(wall_ns_per_slot, 1)),
        ("scaling_wall", Json::inline_arr(scaling_wall)),
        ("replicates", Json::from(replicates)),
        ("base_seed", Json::from(BASE_SEED)),
        ("scaling", scaling),
        ("policies", cell_policy_json(&policies)),
        ("scenarios", scenarios_json),
        ("telemetry", telemetry.json()),
    ]);
    let mut rows = Vec::new();
    for s in &summaries {
        rows.push(vec![
            s.scenario.name.clone(),
            format!("{}x{}", s.scenario.cfg.nx, s.scenario.cfg.ny),
            s.scenario.cfg.n_users.to_string(),
            f(s.mean_aggregate_goodput_bps / 1000.0, 1),
            f(s.mean_per_user_goodput_bps / 1000.0, 1),
            s.handovers.to_string(),
            f(s.handover_rate_per_user_min, 2),
            s.mean_handover_latency_s
                .map_or("-".into(), |v| f(v * 1000.0, 0)),
            f(s.outage_fraction * 100.0, 2),
            f(s.interference_limited_fraction * 100.0, 1),
        ]);
    }
    println!("# Cell suite — multi-luminaire room under mobile load\n");
    println!(
        "{}",
        markdown_table(
            &[
                "scenario",
                "grid",
                "users",
                "aggregate kbit/s",
                "per-user kbit/s",
                "handovers",
                "HO/user/min",
                "HO latency ms",
                "outage %",
                "interf-limited %",
            ],
            &rows,
        )
    );
    println!("determinism: SMARTVLC_THREADS=1 and 8 reports are byte-identical");

    let mut scale_rows = Vec::new();
    for (p, w) in points.iter().zip(&wall_ms) {
        scale_rows.push(vec![
            p.name.clone(),
            format!("{}x{}", p.nx, p.ny),
            p.users.to_string(),
            p.events.to_string(),
            p.queue_peak.to_string(),
            f(*w, 0),
            f(p.events as f64 / (w / 1e3).max(1e-9) / 1000.0, 0),
            f(p.aggregate_goodput_bps / 1000.0, 0),
        ]);
    }
    println!("\n# Scaling — event-driven core, one simulated minute per point\n");
    println!(
        "{}",
        markdown_table(
            &[
                "scenario",
                "grid",
                "users",
                "events",
                "queue peak",
                "wall ms",
                "k events/s",
                "aggregate kbit/s",
            ],
            &scale_rows,
        )
    );

    let mut policy_rows = Vec::new();
    for p in &policies {
        let t = p.traffic.as_ref();
        policy_rows.push(vec![
            format!("{}x{}", p.nx, p.ny),
            p.users.to_string(),
            p.policy.to_string(),
            f(p.aggregate_goodput_bps / 1000.0, 1),
            f(p.jain_fairness, 3),
            f(p.edge_p5_goodput_bps / 1000.0, 1),
            format!("{}/{}", p.coord_grants, p.coord_blocked),
            t.map_or("-".into(), |t| {
                format!("{}/{}", t.flows_completed, t.flows_offered)
            }),
            t.and_then(|t| t.fct_p50_s).map_or("-".into(), |v| f(v, 2)),
            t.and_then(|t| t.fct_p95_s).map_or("-".into(), |v| f(v, 2)),
        ]);
    }
    println!("\n# Scheduling policies — net workload replay, same seed per grid\n");
    println!(
        "{}",
        markdown_table(
            &[
                "grid",
                "users",
                "policy",
                "aggregate kbit/s",
                "Jain",
                "edge p5 kbit/s",
                "coord ok/blocked",
                "flows done/offered",
                "FCT p50 s",
                "FCT p95 s",
            ],
            &policy_rows,
        )
    );
    println!("gate: coordinated_edge cell-edge p5 >= equal_share on the 4x4 grid");

    write_result("BENCH_cell.json", format!("{doc}\n"));
    write_result("TELEMETRY_cell.csv", telemetry.to_csv());
}
