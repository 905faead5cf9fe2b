//! The cell core's correctness contract:
//!
//! 1. **Pinned output** — a checked-in table holds, per pinned run
//!    (scenario, seed), a 64-bit hash of the exact bits of every numeric
//!    field of its [`CellReport`], queue observables included. Any change
//!    to what [`run_cell`] computes — an f64 accumulation reordered, an
//!    RNG draw moved, a grant lost — changes a hash. On a mismatch the
//!    test prints the whole computed table, so a deliberate change can
//!    paste it in.
//! 2. **Observer purity** — the NetMix traffic bridge never feeds back
//!    into delivery: under every scheduling policy a run with it on and
//!    one with it off agree on everything but the traffic report.
//! 3. **Thread determinism at scale** — the 8×8 × 100-user scenario,
//!    fanned out on the work pool at 1, 2 and 8 workers, must
//!    produce byte-identical scaling-curve JSON and bit-identical
//!    per-user results.
//! 4. **Grant conservation** — proptest over random configurations
//!    (including aggressive handover policies that cancel and
//!    re-schedule grants constantly): every user-tick is exactly one of
//!    {grant, outage}, so a grant is never lost or duplicated. The run
//!    checks the same law itself and counts breaches in
//!    `sim.cell.invariant_violations`, which no run here may emit — nor
//!    one whose association delay is `u32::MAX`, the largest the
//!    builder accepts.

use proptest::prelude::*;
use smartvlc_obs as obs;
use smartvlc_sim::cell::{
    cell_policy_scenarios, run_cell, CellConfig, CellOutcome, CellReport, CellTrafficReport,
    CellTrafficSpec, HandoverPolicy, SchedulerSpec, UserOutcome,
};
use smartvlc_sim::scenario::CellScenarioBuilder;
use smartvlc_sim::{cell_scale_json, cell_scenarios, par_sweep, with_threads, ScalePoint, TaskId};
use std::fmt::Write as _;

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Exact bits of an optional float, with its presence.
fn opt_bits(v: Option<f64>) -> [u64; 2] {
    v.map_or([0, 0], |x| [1, x.to_bits()])
}

/// A 64-bit hash of the exact bits of every numeric field of a report.
/// The destructuring is exhaustive, so a field added to any of these
/// structs fails to compile here until it is hashed too.
fn fingerprint(r: &CellReport) -> u64 {
    let CellReport {
        users,
        cells,
        aggregate_goodput_bps,
        handovers,
        mean_handover_latency_s,
        outage_fraction,
        interference_limited_fraction,
        duration_s,
        opcache_hits,
        opcache_misses,
        slots_equivalent,
        events,
        queue_peak,
        jain_fairness,
        edge_p5_goodput_bps,
        coord_grants,
        coord_blocked,
        traffic,
    } = r;
    let mut w = vec![
        aggregate_goodput_bps.to_bits(),
        *handovers,
        outage_fraction.to_bits(),
        interference_limited_fraction.to_bits(),
        duration_s.to_bits(),
        *opcache_hits,
        *opcache_misses,
        slots_equivalent.to_bits(),
        *events,
        *queue_peak,
        jain_fairness.to_bits(),
        edge_p5_goodput_bps.to_bits(),
        *coord_grants,
        *coord_blocked,
    ];
    w.extend(opt_bits(*mean_handover_latency_s));
    w.push(users.len() as u64);
    for u in users {
        let UserOutcome {
            id,
            delivered_bits,
            goodput_bps,
            handovers,
            outage_ticks,
            grant_ticks,
        } = u;
        w.extend([
            *id as u64,
            delivered_bits.to_bits(),
            goodput_bps.to_bits(),
            *handovers,
            *outage_ticks,
            *grant_ticks,
        ]);
    }
    w.push(cells.len() as u64);
    for c in cells {
        let CellOutcome {
            id,
            delivered_bits,
            mean_led,
            mean_users,
            smart_steps,
        } = c;
        w.extend([
            *id as u64,
            delivered_bits.to_bits(),
            mean_led.to_bits(),
            mean_users.to_bits(),
            *smart_steps,
        ]);
    }
    match traffic {
        None => w.push(0),
        Some(t) => {
            let CellTrafficReport {
                flows_offered,
                flows_completed,
                payload_bits,
                fct_mean_s,
                fct_p50_s,
                fct_p95_s,
            } = t;
            w.extend([1, *flows_offered, *flows_completed, payload_bits.to_bits()]);
            for v in [fct_mean_s, fct_p50_s, fct_p95_s] {
                w.extend(opt_bits(*v));
            }
        }
    }
    fnv1a(&w)
}

/// A handover-heavy configuration: tiny dwell so grants get cancelled
/// and re-scheduled constantly, variable association delay (including 0,
/// the leave-the-grant-alone path).
fn chaotic_cfg(
    nx: usize,
    ny: usize,
    n_users: usize,
    ticks: u32,
    dwell: u32,
    delay: u32,
) -> CellConfig {
    let mut cfg = CellConfig::standard(nx, ny, n_users);
    cfg.ticks = ticks;
    cfg.policy.dwell_ticks = dwell;
    cfg.policy.assoc_delay_ticks = delay;
    cfg.policy.hysteresis_db = 0.5; // hair trigger: maximal rescheduling
    cfg
}

/// Every pinned configuration, by name:
///
/// * the standard battery ([`cell_scenarios`]);
/// * the reference 4×4×12 grid of the policy battery under the two
///   non-default schedulers (NetMix traffic on, as in the battery);
/// * four handover-heavy points (dwell 1, 0.5 dB hysteresis) whose
///   overlapping association outages exercise the core's bulk
///   outage-interval accounting.
fn pinned_configs() -> Vec<(String, CellConfig)> {
    let mut out: Vec<(String, CellConfig)> = cell_scenarios()
        .into_iter()
        .map(|sc| (sc.name, sc.cfg))
        .collect();
    out.extend(
        cell_policy_scenarios()
            .into_iter()
            .filter(|p| p.cfg.nx == 4 && !matches!(p.cfg.scheduler, SchedulerSpec::EqualShare))
            .map(|p| (p.name, p.cfg)),
    );
    for (nx, ny, users, delay) in [(3, 3, 5, 0), (3, 3, 5, 3), (3, 3, 5, 6), (2, 2, 4, 6)] {
        out.push((
            format!("chaotic_{nx}x{ny}_users{users}_dwell1_delay{delay}"),
            chaotic_cfg(nx, ny, users, 200, 1, delay),
        ));
    }
    out
}

/// `run_cell` under its own recorder, with the run's count of
/// grant-conservation violations (absent from the telemetry when 0).
fn run_counting_violations(cfg: &CellConfig, seed: u64) -> (CellReport, u64) {
    let rec = obs::Recorder::new();
    let report = obs::with_recorder(&rec, || run_cell(cfg, seed));
    let violations = rec
        .snapshot()
        .counters
        .iter()
        .find(|(k, _)| k == "sim.cell.invariant_violations")
        .map_or(0, |c| c.1);
    (report, violations)
}

/// One row per pinned run: (configuration name, seed, the report's
/// [`fingerprint`]).
#[rustfmt::skip]
const PINS: &[(&str, u64, u64)] = &[
    ("grid2x2_users2", 0xce110000, 0xffae2815ce3bd193),
    ("grid2x2_users6", 0xce110001, 0x12b96e5e27253f8e),
    ("grid2x2_users12", 0xce110002, 0xaa14acf9606f7346),
    ("grid3x3_users2", 0xce110003, 0xa9811fc9e33db438),
    ("grid3x3_users6", 0xce110004, 0xcc79f6bd4f5fd205),
    ("grid3x3_users12", 0xce110005, 0x209a718a2bbdd70f),
    ("grid4x4_users2", 0xce110006, 0x906a76777c45cace),
    ("grid4x4_users6", 0xce110007, 0x3210f584372373e4),
    ("grid4x4_users12", 0xce110008, 0x562eb1b5aab4ee94),
    ("policy_4x4_users12_proportional_fair", 0x7ea, 0x5a88bfde0abd53cd),
    ("policy_4x4_users12_coordinated_edge", 0x7ea, 0x12c6c3ff7d069c8b),
    ("chaotic_3x3_users5_dwell1_delay0", 0x1b64, 0xd2087e3029071306),
    ("chaotic_3x3_users5_dwell1_delay3", 0x1b65, 0x2d0983f2872a7c10),
    ("chaotic_3x3_users5_dwell1_delay6", 0x1b66, 0xd42e76c246464ded),
    ("chaotic_2x2_users4_dwell1_delay6", 0x1b67, 0x52023464796e5ed5),
];

#[test]
fn run_cell_matches_the_pinned_fingerprints() {
    let configs = pinned_configs();
    let mut table = String::new();
    let mut mismatches = Vec::new();
    for &(run, seed, pinned) in PINS {
        let cfg = configs
            .iter()
            .find(|(name, _)| name == run)
            .unwrap_or_else(|| panic!("pinned run {run} has no configuration"))
            .1;
        let (report, violations) = run_counting_violations(&cfg, seed);
        assert_eq!(violations, 0, "{run}: grant conservation breached");
        let hash = fingerprint(&report);
        if hash != pinned {
            mismatches.push(run);
        }
        writeln!(table, "    ({run:?}, {seed:#x}, {hash:#018x}),").unwrap();
    }
    let unpinned: Vec<&str> = configs
        .iter()
        .map(|(name, _)| name.as_str())
        .filter(|name| !PINS.iter().any(|p| p.0 == *name))
        .collect();
    assert!(
        mismatches.is_empty() && unpinned.is_empty(),
        "run_cell moved on {mismatches:?} (unpinned: {unpinned:?}); computed table:\n{table}"
    );
}

#[test]
fn traffic_observer_does_not_perturb_any_policy() {
    // The NetMix traffic bridge is a pure observer of delivered bits:
    // switching it on must not move a single bit of the rest of the
    // report — delivery math, RNG streams, queue activity — under any
    // scheduling policy.
    for policy in [
        SchedulerSpec::EqualShare,
        SchedulerSpec::proportional_fair(),
        SchedulerSpec::coordinated_edge(),
    ] {
        let run = |traffic| {
            let cfg = CellScenarioBuilder::new()
                .grid(3, 3)
                .users(6)
                .scheduler(policy)
                .traffic(traffic)
                .build()
                .expect("valid")
                .config();
            run_cell(&cfg, 4242)
        };
        let saturated = run(CellTrafficSpec::Saturated);
        let mut observed = run(CellTrafficSpec::NetMix);
        let t = observed
            .traffic
            .take()
            .expect("NetMix must attach a traffic report");
        assert!(t.flows_offered > 0, "the workload mix must offer flows");
        assert_eq!(
            fingerprint(&saturated),
            fingerprint(&observed),
            "traffic observer perturbed {}",
            policy.name()
        );
    }
}

#[test]
fn scale_scenario_is_byte_identical_across_thread_counts() {
    // The 8×8 × 100-user scenario through the deterministic work pool at
    // 1, 2 and 8 threads: the scaling-curve JSON (the bytes the bench bin
    // writes into BENCH_cell.json) and the underlying report must not
    // move by a bit.
    let scenario = CellScenarioBuilder::new()
        .grid(8, 8)
        .users(100)
        .name("scale_8x8_users100")
        .build()
        .expect("valid");
    let run = |threads: usize| {
        with_threads(threads, || {
            let reports = par_sweep(
                std::slice::from_ref(&scenario),
                1,
                2026,
                |sc: &smartvlc_sim::CellScenario, id: TaskId| run_cell(&sc.config(), id.seed),
            );
            let r = &reports[0][0];
            let json = cell_scale_json(&[ScalePoint::from_report(&scenario, r)]).to_string();
            (json, fingerprint(r), r.events, r.queue_peak)
        })
    };
    let t1 = run(1);
    let t2 = run(2);
    let t8 = run(8);
    assert_eq!(t1.0, t2.0, "scale JSON differs between 1 and 2 threads");
    assert_eq!(t1.0, t8.0, "scale JSON differs between 1 and 8 threads");
    assert_eq!(t1.1, t2.1);
    assert_eq!(t1.1, t8.1);
    assert!(t1.2 > 0 && t1.3 > 0, "the event queue must have run");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Grant conservation under event cancellation/re-scheduling: for
    /// every user, `grant_ticks + outage_ticks == ticks` — a cancelled
    /// grant is always replaced by outage accounting, and a re-scheduled
    /// grant never double-fires. The identity is policy-independent, so
    /// it is checked under every scheduler; the traffic observer rides
    /// along with the non-default ones to prove it survives chaos too.
    #[test]
    fn handover_never_loses_or_duplicates_a_grant(
        nx in 1usize..=3,
        ny in 1usize..=3,
        n_users in 1usize..=5,
        ticks in 10u32..=90,
        dwell in 1u32..=3,
        delay in 0u32..=6,
        seed in 0u64..1_000_000,
    ) {
        let cfg = chaotic_cfg(nx, ny, n_users, ticks, dwell, delay);
        for (policy, traffic) in [
            (SchedulerSpec::EqualShare, CellTrafficSpec::Saturated),
            (SchedulerSpec::proportional_fair(), CellTrafficSpec::NetMix),
            (SchedulerSpec::coordinated_edge(), CellTrafficSpec::NetMix),
        ] {
            let mut pcfg = cfg;
            pcfg.scheduler = policy;
            pcfg.traffic = traffic;
            let (r, violations) = run_counting_violations(&pcfg, seed);
            prop_assert_eq!(violations, 0);
            for u in &r.users {
                prop_assert_eq!(
                    u.grant_ticks + u.outage_ticks,
                    ticks as u64,
                    "user {} lost/duplicated a grant under {}: {} grants + {} outage != {} \
                     ticks (dwell={}, delay={})",
                    u.id, policy.name(), u.grant_ticks, u.outage_ticks, ticks, dwell, delay
                );
            }
        }
    }
}

/// The largest association delay the builder accepts: the first handover
/// puts its user in outage for the rest of the run. `tick + delay` and
/// the handover latency saturate instead of wrapping, so the run neither
/// panics (debug overflow, or scheduling into the past in release) nor
/// loses a grant.
#[test]
fn largest_association_delay_runs_to_the_end() {
    let cfg = CellScenarioBuilder::new()
        .grid(4, 4)
        .users(20)
        .horizon(60, 0.1)
        .policy(HandoverPolicy {
            assoc_delay_ticks: u32::MAX,
            ..HandoverPolicy::standard()
        })
        .build()
        .expect("the builder accepts any delay")
        .cfg;
    let (r, violations) = run_counting_violations(&cfg, 1);
    assert!(r.handovers > 0, "no handover: the delay path never ran");
    assert_eq!(violations, 0);
    for u in &r.users {
        assert_eq!(u.grant_ticks + u.outage_ticks, 60, "user {}", u.id);
        if u.handovers > 0 {
            assert!(
                u.outage_ticks > 0,
                "user {} handed over without outage",
                u.id
            );
        }
    }
    assert_eq!(r.mean_handover_latency_s, Some(u32::MAX as f64 * 0.1));
}
