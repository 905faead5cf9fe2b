//! The scheduling subsystem's behavioural contract, over and above the
//! pinned fingerprints in `cell_fingerprints.rs`:
//!
//! 1. **Proportional fairness pays** — on an asymmetric two-cell
//!    scenario (and on the reference 4×4 battery grid) the PF policy's
//!    Jain index must beat equal share's.
//! 2. **Coordination conserves airtime** — proptest over random
//!    schedule contexts: the coordinated-edge policy never grants a
//!    user two cells in the same slot, never picks the serving cell as
//!    donor, and every cell's own airtime plus its donated airtime
//!    stays within one tick.
//! 3. **Policy battery determinism** — the 4×4 leg of the policy
//!    battery produces byte-identical JSON at `SMARTVLC_THREADS=1`
//!    and `=8`, and the bench binary's cell-edge gate (coordinated p5
//!    ≥ equal-share p5) holds from a plain test context too.

use proptest::prelude::*;
use smartvlc_sim::cell::{
    cell_policy_json, cell_policy_scenarios, run_cell, CellScheduler, CoordinatedEdge,
    LinkEstimate, PolicyPoint, PolicyScenario, ScheduleContext, SchedulerSpec, TickPlan,
};
use smartvlc_sim::scenario::CellScenarioBuilder;
use smartvlc_sim::{jain_index, par_sweep, task_seed, TaskId};
use std::sync::Mutex;

/// Serialize env mutation across the test binary's threads.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let old = std::env::var("SMARTVLC_THREADS").ok();
    std::env::set_var("SMARTVLC_THREADS", n.to_string());
    let out = f();
    match old {
        Some(v) => std::env::set_var("SMARTVLC_THREADS", v),
        None => std::env::remove_var("SMARTVLC_THREADS"),
    }
    out
}

/// Same seed, same scenario, two policies: the only degree of freedom
/// is the scheduler.
fn run_policy(policy: SchedulerSpec, seed: u64) -> smartvlc_sim::CellReport {
    let cfg = CellScenarioBuilder::new()
        .grid(2, 1)
        .users(8)
        .scheduler(policy)
        .build()
        .expect("valid")
        .config();
    run_cell(&cfg, seed)
}

#[test]
fn pf_improves_jain_on_an_asymmetric_two_cell_scenario() {
    // Two luminaires, eight waypoint users: membership is persistently
    // lopsided, so equal share starves whichever side is crowded while
    // PF's EWMA throughput history rebalances grants. Fixed seed — both
    // runs are bit-deterministic, so this is a regression anchor, not a
    // statistical test.
    let seed = 0x5eed_2ce1;
    let es = run_policy(SchedulerSpec::EqualShare, seed);
    let pf = run_policy(SchedulerSpec::proportional_fair(), seed);
    assert!(
        pf.jain_fairness > es.jain_fairness,
        "PF must improve fairness over equal share: {} <= {}",
        pf.jain_fairness,
        es.jain_fairness
    );
}

/// The 4×4 leg of the policy battery, seeded exactly like
/// `run_cell_policies` (policies on one grid share a seed).
fn reference_4x4(base_seed: u64) -> Vec<PolicyPoint> {
    let scenarios: Vec<PolicyScenario> = cell_policy_scenarios()
        .into_iter()
        .filter(|sc| sc.cfg.nx == 4)
        .collect();
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

#[test]
fn policy_battery_is_deterministic_and_keeps_the_edge_gate() {
    // The bench binary's seed for the policy battery.
    let base_seed = 0xce11_5eed;
    let t1 = with_threads(1, || reference_4x4(base_seed));
    let t8 = with_threads(8, || reference_4x4(base_seed));
    assert_eq!(
        cell_policy_json(&t1),
        cell_policy_json(&t8),
        "policy battery JSON differs between SMARTVLC_THREADS=1 and 8"
    );

    let point = |policy: &str| {
        t1.iter()
            .find(|p| p.policy == policy)
            .expect("4x4 policy point present")
    };
    assert!(
        point("proportional_fair").jain_fairness > point("equal_share").jain_fairness,
        "PF must improve Jain on the reference 4x4 grid"
    );
    assert!(
        point("coordinated_edge").edge_p5_goodput_bps >= point("equal_share").edge_p5_goodput_bps,
        "cell-edge p5 regressed under coordination"
    );
    assert!(
        point("coordinated_edge").coord_grants > 0,
        "coordination must actually fire on the reference grid"
    );
}

#[test]
fn jain_index_brackets() {
    // Sanity on the metric itself: perfectly even → 1, one-user-takes-all
    // over n users → 1/n.
    assert_eq!(jain_index(&[5.0, 5.0, 5.0, 5.0]), 1.0);
    let lopsided = jain_index(&[12.0, 0.0, 0.0]);
    assert!((lopsided - 1.0 / 3.0).abs() < 1e-12);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Coordinated-edge airtime conservation on arbitrary contexts:
    /// every user gets at most one grant (from its serving cell), a
    /// donor is never the serving cell, and for every cell the airtime
    /// it grants its own members plus the airtime it donates to
    /// neighbours' edge users never exceeds one tick.
    #[test]
    fn coordinated_edge_conserves_airtime(
        n_cells in 1usize..=4,
        n_users in 1usize..=10,
        serving_raw in proptest::collection::vec(0usize..16, 10),
        eligible_raw in proptest::collection::vec(any::<bool>(), 10),
        sinr_raw in proptest::collection::vec(-10.0f64..30.0, 10),
        il_raw in proptest::collection::vec(any::<bool>(), 10),
        donor_raw in proptest::collection::vec(0usize..16, 10),
        margin_db in 0.0f64..15.0,
        joint_serve in any::<bool>(),
        rates in proptest::collection::vec(0.0f64..1.0e6, 4),
    ) {
        let serving: Vec<usize> = serving_raw[..n_users].iter().map(|&s| s % n_cells).collect();
        let mut members = vec![0u32; n_cells];
        for &c in &serving {
            members[c] += 1;
        }
        let rate_bps: Vec<f64> = rates[..n_cells].to_vec();
        let eligible: Vec<bool> = eligible_raw[..n_users].to_vec();
        let estimates: Vec<LinkEstimate> = (0..n_users)
            .map(|i| LinkEstimate {
                rate_bps: rate_bps[serving[i]],
                sinr_db: sinr_raw[i],
                interference_limited: il_raw[i],
                // The engine only ever reports an *interferer* as
                // dominant, so the generated donor avoids the serving
                // cell (None when there is no other cell).
                dominant_cell: if n_cells == 1 {
                    None
                } else {
                    let mut d = donor_raw[i] % n_cells;
                    if d == serving[i] {
                        d = (d + 1) % n_cells;
                    }
                    Some(d)
                },
            })
            .collect();
        let ctx = ScheduleContext {
            tick: 0,
            members: &members,
            rate_bps: &rate_bps,
            serving: &serving,
            eligible: &eligible,
            estimates: &estimates,
        };
        let mut ce = CoordinatedEdge::new(margin_db, joint_serve);
        let mut plan = TickPlan::new(n_users);
        ce.reschedule(&ctx, &mut plan);

        let mut own_airtime = vec![0.0f64; n_cells];
        let mut donated = vec![0.0f64; n_cells];
        for u in 0..n_users {
            if !eligible[u] {
                prop_assert_eq!(plan.airtime(u), 0.0, "ineligible user {} granted", u);
                prop_assert!(plan.coord(u).is_none(), "ineligible user {} coordinated", u);
                continue;
            }
            prop_assert!(plan.airtime(u) >= 0.0 && plan.airtime(u) <= 1.0 + 1e-12);
            own_airtime[serving[u]] += plan.airtime(u);
            if let Some(cg) = plan.coord(u) {
                // One slot, one serving cell: the donor aligns with (or
                // blanks for) the serving cell's grant — it is never a
                // second, independent grant, so it cannot be the serving
                // cell itself.
                prop_assert_ne!(
                    cg.donor, serving[u],
                    "user {} granted by its own cell twice in one slot", u
                );
                prop_assert!(cg.donor < n_cells);
                donated[cg.donor] += 1.0 / members[serving[u]].max(1) as f64;
            }
        }
        for c in 0..n_cells {
            prop_assert!(
                own_airtime[c] + donated[c] <= 1.0 + 1e-9,
                "cell {} oversubscribed: {} own + {} donated",
                c, own_airtime[c], donated[c]
            );
        }
        // The scheduler's own ledger agrees with the plan.
        let stats = ce.stats();
        let planned: u64 = (0..n_users).filter(|&u| plan.coord(u).is_some()).count() as u64;
        prop_assert_eq!(stats.coord_grants, planned);
    }
}
