//! The cell scenario battery behind `results/BENCH_cell.json`.
//!
//! A grid-size × user-count sweep over [`run_cell`],
//! fanned out on the deterministic runner: the aggregate-goodput-vs-users
//! and handover-latency curves the bench bin writes, plus the JSON
//! sections both the bin and the determinism tests render (so "the file
//! is byte-identical at any worker count" is asserted on exactly the
//! bytes that get written).
//!
//! Two batteries live here:
//!
//! * the **standard battery** ([`cell_scenarios`]): small grids, several
//!   replicates, every column of the report — the regression surface;
//! * the **scale battery** ([`cell_scale_scenarios`]): 8×8×100 up to
//!   32×32×1000, one replicate each, reported as the wall-clock- and
//!   events/sec-vs-grid-size scaling curve the event-driven core exists
//!   for. Only the event core can run these in reasonable time; the bench
//!   bin times them and adds the (nondeterministic) wall-clock curve to
//!   the artifact after the byte-equality gate.

use super::{run_cell, CellConfig, CellReport, CellTrafficReport, CellTrafficSpec, SchedulerSpec};
use crate::runner::{par_sweep, task_seed, TaskId};
use crate::scenario::CellScenarioBuilder;
use smartvlc_obs::Json;

/// One point of the cell sweep: a stable name (the JSON key) plus the
/// full run configuration, as assembled by
/// [`crate::scenario::CellScenarioBuilder`].
#[derive(Clone, Debug)]
pub struct CellScenario {
    /// Stable identifier (also the JSON key).
    pub name: String,
    /// The complete run configuration.
    pub cfg: CellConfig,
}

impl CellScenario {
    /// The run configuration for this scenario.
    pub fn config(&self) -> CellConfig {
        self.cfg
    }
}

/// The standard battery: 2×2, 3×3 and 4×4 grids, each serving 2, 6 and
/// 12 users — ≥ 3 grid sizes × ≥ 3 user counts, covering both the
/// sparse regime (cells idle) and the contended one (TDMA shares thin,
/// handovers frequent).
pub fn cell_scenarios() -> Vec<CellScenario> {
    let mut out = Vec::new();
    for &(nx, ny) in &[(2usize, 2usize), (3, 3), (4, 4)] {
        for &n_users in &[2usize, 6, 12] {
            out.push(
                CellScenarioBuilder::new()
                    .grid(nx, ny)
                    .users(n_users)
                    .build()
                    .expect("standard battery scenarios are valid"),
            );
        }
    }
    out
}

/// The scale battery: building-floor grids under heavy mobile load, one
/// simulated minute each. The event-driven core's per-user FoV window
/// makes the cost grow with users × window, not users × cells — which is
/// what lets the 32×32 × 1000-user point complete at all.
pub fn cell_scale_scenarios() -> Vec<CellScenario> {
    [(8usize, 100usize), (16, 400), (32, 1000)]
        .iter()
        .map(|&(n, users)| {
            CellScenarioBuilder::new()
                .grid(n, n)
                .users(users)
                .name(format!("scale_{n}x{n}_users{users}"))
                .build()
                .expect("scale battery scenarios are valid")
        })
        .collect()
}

/// One point of the scaling curve: the deterministic outcome of a scale
/// scenario (everything here participates in the byte-equality gate; the
/// wall-clock side lives in the bench bin's `scaling_wall` line).
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Scenario name (JSON key).
    pub name: String,
    /// Grid extent along x.
    pub nx: usize,
    /// Grid extent along y.
    pub ny: usize,
    /// Mobile users.
    pub users: usize,
    /// Simulated ticks.
    pub ticks: u32,
    /// Events delivered off the scheduler queue.
    pub events: u64,
    /// Scheduler queue-depth high-water mark.
    pub queue_peak: u64,
    /// Aggregate goodput, bit/s.
    pub aggregate_goodput_bps: f64,
    /// Completed handovers.
    pub handovers: u64,
    /// Fraction of user-ticks in association outage.
    pub outage_fraction: f64,
}

impl ScalePoint {
    /// Fold one run's report into a scaling-curve point.
    pub fn from_report(sc: &CellScenario, r: &CellReport) -> ScalePoint {
        ScalePoint {
            name: sc.name.clone(),
            nx: sc.cfg.nx,
            ny: sc.cfg.ny,
            users: sc.cfg.n_users,
            ticks: sc.cfg.ticks,
            events: r.events,
            queue_peak: r.queue_peak,
            aggregate_goodput_bps: r.aggregate_goodput_bps,
            handovers: r.handovers,
            outage_fraction: r.outage_fraction,
        }
    }
}

/// Run the scale battery (one replicate per scenario) on the
/// deterministic work pool. The per-scenario seeds are
/// `task_seed(base_seed, index)`, so a caller timing individual scenarios
/// serially can reproduce the exact same runs.
pub fn run_cell_scale(base_seed: u64) -> Vec<ScalePoint> {
    let scenarios = cell_scale_scenarios();
    let grouped = par_sweep(&scenarios, 1, base_seed, |sc: &CellScenario, id: TaskId| {
        run_cell(&sc.config(), id.seed)
    });
    scenarios
        .iter()
        .zip(&grouped)
        .map(|(sc, reps)| ScalePoint::from_report(sc, &reps[0]))
        .collect()
}

/// Deterministic JSON for the scaling curve: an array with one inline
/// object per point, stable key order. The bench bin byte-compares it
/// between a serial and an 8-worker run before it goes into
/// `BENCH_cell.json` as the `"scaling"` section.
pub fn cell_scale_json(points: &[ScalePoint]) -> Json {
    Json::arr(points.iter().map(|p| {
        Json::inline_obj([
            ("name", Json::from(p.name.as_str())),
            ("grid", grid(p.nx, p.ny)),
            ("users", Json::from(p.users)),
            ("ticks", Json::from(p.ticks)),
            ("cells", Json::from(p.nx * p.ny)),
            ("events", Json::from(p.events)),
            ("queue_peak", Json::from(p.queue_peak)),
            ("aggregate_goodput_bps", f6(p.aggregate_goodput_bps)),
            ("handovers", Json::from(p.handovers)),
            ("outage_fraction", f6(p.outage_fraction)),
        ])
    }))
}

/// Replicate-aggregated outcome of one scenario.
#[derive(Clone, Debug)]
pub struct CellSuiteSummary {
    /// The scenario.
    pub scenario: CellScenario,
    /// Mean aggregate goodput over replicates, bit/s.
    pub mean_aggregate_goodput_bps: f64,
    /// Worst replicate's aggregate goodput, bit/s.
    pub min_aggregate_goodput_bps: f64,
    /// Mean per-user goodput over replicates, bit/s.
    pub mean_per_user_goodput_bps: f64,
    /// Total completed handovers across replicates.
    pub handovers: u64,
    /// Handovers per user per simulated minute.
    pub handover_rate_per_user_min: f64,
    /// Mean handover latency, s (`None` if nothing handed over).
    pub mean_handover_latency_s: Option<f64>,
    /// Mean fraction of user-ticks in association outage.
    pub outage_fraction: f64,
    /// Mean fraction of served ticks that were interference-limited.
    pub interference_limited_fraction: f64,
    /// Scheduler events delivered, summed across replicates.
    pub events: u64,
    /// Largest scheduler queue-depth high-water mark across replicates.
    pub queue_peak: u64,
    /// Analytic-RX slot-equivalents summed across replicates (the ns/slot
    /// denominator the bench bin uses).
    pub slots_equivalent: f64,
    /// Raw per-replicate reports (replicate order).
    pub replicates: Vec<CellReport>,
}

/// Run the whole battery: `replicates` seeds per scenario on the
/// deterministic work pool. Byte-identical output at any
/// `SMARTVLC_THREADS`.
pub fn run_cell_suite(replicates: usize, base_seed: u64) -> Vec<CellSuiteSummary> {
    let scenarios = cell_scenarios();
    let grouped = par_sweep(
        &scenarios,
        replicates,
        base_seed,
        |sc: &CellScenario, id: TaskId| run_cell(&sc.config(), id.seed),
    );
    scenarios
        .into_iter()
        .zip(grouped)
        .map(|(scenario, reps)| summarize(scenario, reps))
        .collect()
}

fn summarize(scenario: CellScenario, reps: Vec<CellReport>) -> CellSuiteSummary {
    let n = reps.len().max(1) as f64;
    let mean_aggregate = reps.iter().map(|r| r.aggregate_goodput_bps).sum::<f64>() / n;
    let min_aggregate = reps
        .iter()
        .map(|r| r.aggregate_goodput_bps)
        .fold(f64::INFINITY, f64::min);
    let handovers: u64 = reps.iter().map(|r| r.handovers).sum();
    let sim_minutes: f64 = reps.iter().map(|r| r.duration_s).sum::<f64>() / 60.0;
    let latencies: Vec<f64> = reps
        .iter()
        .filter_map(|r| r.mean_handover_latency_s.map(|l| (l, r.handovers)))
        .map(|(l, h)| l * h as f64)
        .collect();
    CellSuiteSummary {
        mean_aggregate_goodput_bps: mean_aggregate,
        min_aggregate_goodput_bps: if min_aggregate.is_finite() {
            min_aggregate
        } else {
            0.0
        },
        mean_per_user_goodput_bps: mean_aggregate / scenario.cfg.n_users.max(1) as f64,
        handovers,
        handover_rate_per_user_min: if sim_minutes > 0.0 {
            handovers as f64 / (scenario.cfg.n_users as f64 * sim_minutes)
        } else {
            0.0
        },
        mean_handover_latency_s: if handovers > 0 {
            Some(latencies.iter().sum::<f64>() / handovers as f64)
        } else {
            None
        },
        outage_fraction: reps.iter().map(|r| r.outage_fraction).sum::<f64>() / n,
        interference_limited_fraction: reps
            .iter()
            .map(|r| r.interference_limited_fraction)
            .sum::<f64>()
            / n,
        events: reps.iter().map(|r| r.events).sum(),
        queue_peak: reps.iter().map(|r| r.queue_peak).max().unwrap_or(0),
        slots_equivalent: reps.iter().map(|r| r.slots_equivalent).sum(),
        replicates: reps,
        scenario,
    }
}

/// The cell artifacts' float format: six decimals.
fn f6(v: f64) -> Json {
    Json::fixed(v, 6)
}

fn grid(nx: usize, ny: usize) -> Json {
    Json::inline_arr([Json::from(nx), Json::from(ny)])
}

/// One point of the **policy battery**: a reference grid run under one
/// scheduling policy with the smartvlc-net workload mix replayed
/// ([`CellTrafficSpec::NetMix`]).
#[derive(Clone, Debug)]
pub struct PolicyScenario {
    /// Stable identifier (also the JSON key):
    /// `policy_{nx}x{ny}_users{n}_{policy}`.
    pub name: String,
    /// Index of the grid this point belongs to — policies sharing a grid
    /// index run on the **same seed**, so their columns compare the
    /// policies and nothing else.
    pub grid_index: usize,
    /// The complete run configuration (scheduler + traffic included).
    pub cfg: CellConfig,
}

/// The policy battery: the reference 4×4×12 grid and the 8×8×100
/// building floor, each under every scheduling policy, with the net
/// workload mix replayed for per-flow FCTs.
pub fn cell_policy_scenarios() -> Vec<PolicyScenario> {
    let mut out = Vec::new();
    for (grid_index, &(n, users)) in [(4usize, 12usize), (8, 100)].iter().enumerate() {
        for policy in [
            SchedulerSpec::EqualShare,
            SchedulerSpec::proportional_fair(),
            SchedulerSpec::coordinated_edge(),
        ] {
            let name = format!("policy_{n}x{n}_users{users}_{}", policy.name());
            let sc = CellScenarioBuilder::new()
                .grid(n, n)
                .users(users)
                .scheduler(policy)
                .traffic(CellTrafficSpec::NetMix)
                .name(name.clone())
                .build()
                .expect("policy battery scenarios are valid");
            out.push(PolicyScenario {
                name,
                grid_index,
                cfg: sc.cfg,
            });
        }
    }
    out
}

/// One row of the policy comparison: everything the per-policy columns of
/// `BENCH_cell.json` report. Fully deterministic — the whole struct
/// participates in the byte-equality gate.
#[derive(Clone, Debug)]
pub struct PolicyPoint {
    /// Scenario name (JSON key).
    pub name: String,
    /// Policy name (`equal_share` / `proportional_fair` /
    /// `coordinated_edge`).
    pub policy: &'static str,
    /// Grid extent along x.
    pub nx: usize,
    /// Grid extent along y.
    pub ny: usize,
    /// Mobile users.
    pub users: usize,
    /// Aggregate goodput, bit/s.
    pub aggregate_goodput_bps: f64,
    /// Jain fairness index of the per-user goodputs.
    pub jain_fairness: f64,
    /// 5th-percentile per-user goodput (cell-edge experience), bit/s.
    pub edge_p5_goodput_bps: f64,
    /// Completed handovers.
    pub handovers: u64,
    /// Fraction of user-ticks in association outage.
    pub outage_fraction: f64,
    /// Coordination grants applied at delivery time.
    pub coord_grants: u64,
    /// Coordination requests the donor ledger rejected.
    pub coord_blocked: u64,
    /// Flow-level outcome of the replayed net workload mix.
    pub traffic: Option<CellTrafficReport>,
}

impl PolicyPoint {
    /// Fold one run's report into a policy-comparison row.
    pub fn from_report(sc: &PolicyScenario, r: &CellReport) -> PolicyPoint {
        PolicyPoint {
            name: sc.name.clone(),
            policy: sc.cfg.scheduler.name(),
            nx: sc.cfg.nx,
            ny: sc.cfg.ny,
            users: sc.cfg.n_users,
            aggregate_goodput_bps: r.aggregate_goodput_bps,
            jain_fairness: r.jain_fairness,
            edge_p5_goodput_bps: r.edge_p5_goodput_bps,
            handovers: r.handovers,
            outage_fraction: r.outage_fraction,
            coord_grants: r.coord_grants,
            coord_blocked: r.coord_blocked,
            traffic: r.traffic.clone(),
        }
    }
}

/// Run the policy battery on the deterministic work pool. Every policy on
/// one grid runs the **same seed** (`task_seed(base_seed, grid_index)`),
/// so the per-policy columns differ only by the scheduler. Byte-identical
/// output at any `SMARTVLC_THREADS`.
pub fn run_cell_policies(base_seed: u64) -> Vec<PolicyPoint> {
    let scenarios = cell_policy_scenarios();
    let grouped = par_sweep(
        &scenarios,
        1,
        base_seed,
        |sc: &PolicyScenario, _id: TaskId| {
            run_cell(&sc.cfg, task_seed(base_seed, sc.grid_index as u64))
        },
    );
    scenarios
        .iter()
        .zip(&grouped)
        .map(|(sc, reps)| PolicyPoint::from_report(sc, &reps[0]))
        .collect()
}

/// Deterministic JSON for the policy comparison: an array with one inline
/// object per point, stable key order. The bench bin byte-compares it
/// between 1 and 8 workers before it goes into `BENCH_cell.json` as the
/// `"policies"` section.
pub fn cell_policy_json(points: &[PolicyPoint]) -> Json {
    let traffic = |t: &CellTrafficReport| {
        Json::inline_obj([
            ("flows_offered", Json::from(t.flows_offered)),
            ("flows_completed", Json::from(t.flows_completed)),
            ("payload_bits", f6(t.payload_bits)),
            ("fct_mean_s", t.fct_mean_s.map(f6).into()),
            ("fct_p50_s", t.fct_p50_s.map(f6).into()),
            ("fct_p95_s", t.fct_p95_s.map(f6).into()),
        ])
    };
    Json::arr(points.iter().map(|p| {
        Json::inline_obj([
            ("name", Json::from(p.name.as_str())),
            ("policy", Json::from(p.policy)),
            ("grid", grid(p.nx, p.ny)),
            ("users", Json::from(p.users)),
            ("aggregate_goodput_bps", f6(p.aggregate_goodput_bps)),
            ("jain_fairness", f6(p.jain_fairness)),
            ("edge_p5_goodput_bps", f6(p.edge_p5_goodput_bps)),
            ("handovers", Json::from(p.handovers)),
            ("outage_fraction", f6(p.outage_fraction)),
            ("coord_grants", Json::from(p.coord_grants)),
            ("coord_blocked", Json::from(p.coord_blocked)),
            ("traffic", p.traffic.as_ref().map(traffic).into()),
        ])
    }))
}

/// Deterministic JSON for the standard battery: one pretty object per
/// scenario, stable key order, six-decimal floats. It is the
/// `"scenarios"` section of `results/BENCH_cell.json`, byte-compared at 1
/// vs 8 workers by the bench bin and the `determinism` tests.
pub fn cell_suite_json(summaries: &[CellSuiteSummary]) -> Json {
    Json::arr(summaries.iter().map(|sm| {
        let per_user = sm.replicates.first().map_or(&[][..], |r| &r.users[..]);
        Json::obj([
            ("name", Json::from(sm.scenario.name.as_str())),
            ("grid", grid(sm.scenario.cfg.nx, sm.scenario.cfg.ny)),
            ("users", Json::from(sm.scenario.cfg.n_users)),
            (
                "mean_aggregate_goodput_bps",
                f6(sm.mean_aggregate_goodput_bps),
            ),
            (
                "min_aggregate_goodput_bps",
                f6(sm.min_aggregate_goodput_bps),
            ),
            (
                "mean_per_user_goodput_bps",
                f6(sm.mean_per_user_goodput_bps),
            ),
            ("handovers", Json::from(sm.handovers)),
            (
                "handover_rate_per_user_min",
                f6(sm.handover_rate_per_user_min),
            ),
            (
                "mean_handover_latency_s",
                sm.mean_handover_latency_s.map(f6).into(),
            ),
            ("outage_fraction", f6(sm.outage_fraction)),
            (
                "interference_limited_fraction",
                f6(sm.interference_limited_fraction),
            ),
            ("events", Json::from(sm.events)),
            ("queue_peak", Json::from(sm.queue_peak)),
            ("slots_equivalent", f6(sm.slots_equivalent)),
            (
                "per_user_goodput_bps",
                Json::inline_arr(per_user.iter().map(|u| f6(u.goodput_bps))),
            ),
        ])
    }))
}

/// One full suite run under a fresh recorder: the per-scenario summaries
/// and the telemetry they recorded — what the bench bin writes and the
/// determinism tests byte-compare.
pub fn cell_suite_artifacts(
    replicates: usize,
    base_seed: u64,
) -> (Vec<CellSuiteSummary>, smartvlc_obs::Snapshot) {
    let rec = smartvlc_obs::Recorder::new();
    let summaries = smartvlc_obs::with_recorder(&rec, || run_cell_suite(replicates, base_seed));
    (summaries, rec.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_covers_three_grids_by_three_user_counts() {
        let scs = cell_scenarios();
        assert_eq!(scs.len(), 9);
        let grids: std::collections::HashSet<(usize, usize)> =
            scs.iter().map(|s| (s.cfg.nx, s.cfg.ny)).collect();
        let users: std::collections::HashSet<usize> = scs.iter().map(|s| s.cfg.n_users).collect();
        assert!(grids.len() >= 3, "{grids:?}");
        assert!(users.len() >= 3, "{users:?}");
        let names: std::collections::HashSet<&str> = scs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), scs.len(), "names must be unique");
    }

    #[test]
    fn scale_battery_reaches_32x32_with_1000_users() {
        let scs = cell_scale_scenarios();
        assert!(scs
            .iter()
            .any(|s| s.cfg.nx == 32 && s.cfg.ny == 32 && s.cfg.n_users == 1000));
        assert!(scs
            .windows(2)
            .all(|w| w[0].cfg.n_cells() < w[1].cfg.n_cells()));
    }

    #[test]
    fn scale_json_is_stable_and_embeddable() {
        let p = ScalePoint {
            name: "scale_8x8_users100".into(),
            nx: 8,
            ny: 8,
            users: 100,
            ticks: 600,
            events: 123_456,
            queue_peak: 173,
            aggregate_goodput_bps: 1.5e6,
            handovers: 42,
            outage_fraction: 0.0125,
        };
        let json = cell_scale_json(&[p.clone(), p]).to_string();
        assert!(json.starts_with("[\n  {\"name\""));
        assert!(json.ends_with("}\n]"), "one point per line");
        assert!(json.contains("\"cells\": 64"));
        assert!(json.contains("\"events\": 123456"));
        assert_eq!(json.matches("\"name\"").count(), 2);
    }

    #[test]
    fn json_is_stable_and_reports_required_fields() {
        // A tiny battery (first scenario only) through the real encoder.
        let scs = cell_scenarios();
        let reps = vec![run_cell(&scs[0].config(), 123)];
        let sm = summarize(scs[0].clone(), reps);
        let json = cell_suite_json(&[sm]).to_string();
        for field in [
            "\"mean_aggregate_goodput_bps\"",
            "\"handovers\"",
            "\"mean_handover_latency_s\"",
            "\"grid\": [2, 2]",
            "\"users\": 2",
            "\"events\"",
            "\"queue_peak\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        // Stable: same inputs, same bytes.
        let reps2 = vec![run_cell(&scs[0].config(), 123)];
        let sm2 = summarize(scs[0].clone(), reps2);
        assert_eq!(json, cell_suite_json(&[sm2]).to_string());
    }

    #[test]
    fn policy_battery_covers_every_policy_on_every_grid() {
        let scs = cell_policy_scenarios();
        assert_eq!(scs.len(), 6, "2 grids x 3 policies");
        let names: std::collections::HashSet<&str> = scs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), scs.len(), "names must be unique");
        for sc in &scs {
            assert_eq!(sc.cfg.traffic, CellTrafficSpec::NetMix);
            assert!(sc.name.contains(sc.cfg.scheduler.name()), "{}", sc.name);
        }
        // Same grid index ⇒ same grid ⇒ same seed at run time.
        for w in scs.chunks(3) {
            assert!(w.iter().all(|s| s.grid_index == w[0].grid_index));
            assert!(w.iter().all(|s| s.cfg.nx == w[0].cfg.nx));
        }
    }

    #[test]
    fn policy_json_is_stable_and_embeddable() {
        let p = PolicyPoint {
            name: "policy_4x4_users12_equal_share".into(),
            policy: "equal_share",
            nx: 4,
            ny: 4,
            users: 12,
            aggregate_goodput_bps: 2.5e6,
            jain_fairness: 0.91,
            edge_p5_goodput_bps: 1.2e5,
            handovers: 31,
            outage_fraction: 0.02,
            coord_grants: 0,
            coord_blocked: 0,
            traffic: None,
        };
        let with_traffic = PolicyPoint {
            traffic: Some(crate::cell::traffic::TrafficState::new(1, 1).report()),
            ..p.clone()
        };
        let json = cell_policy_json(&[p, with_traffic]).to_string();
        assert!(json.starts_with("[\n  {\"name\""));
        assert!(json.ends_with("}\n]"), "one point per line");
        assert!(json.contains("\"policy\": \"equal_share\""));
        assert!(json.contains("\"jain_fairness\": 0.910000"));
        assert!(json.contains("\"traffic\": null"));
        assert!(json.contains(
            "\"traffic\": {\"flows_offered\": 0, \"flows_completed\": 0, \
             \"payload_bits\": 0.000000, \"fct_mean_s\": null, \"fct_p50_s\": null, \
             \"fct_p95_s\": null}}"
        ));
        assert_eq!(json.matches("\"name\"").count(), 2);
    }

    #[test]
    fn scenario_names_are_escaped_in_every_section() {
        // A builder accepts any name; the artifact must stay valid JSON.
        let name = r#"say "hi" \ wave"#;
        let escaped = r#""say \"hi\" \\ wave""#;
        let sc = CellScenarioBuilder::new()
            .grid(2, 2)
            .users(2)
            .name(name)
            .build()
            .expect("valid");
        let r = run_cell(&sc.config(), 7);
        let scale = cell_scale_json(&[ScalePoint::from_report(&sc, &r)]).to_string();
        let policy = PolicyScenario {
            name: name.into(),
            grid_index: 0,
            cfg: sc.cfg,
        };
        let policy = cell_policy_json(&[PolicyPoint::from_report(&policy, &r)]).to_string();
        let suite = cell_suite_json(&[summarize(sc, vec![r])]).to_string();
        for json in [scale, policy, suite] {
            assert!(json.contains(escaped), "{json}");
            assert!(!json.contains(name), "{json}");
        }
    }
}
