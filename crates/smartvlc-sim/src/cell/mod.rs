//! Multi-luminaire cell simulation with user mobility.
//!
//! The paper evaluates one LED serving one receiver; the smart-lighting
//! setting it targets is a **ceiling grid** of luminaires covering a room
//! of moving users. This module composes everything built so far into
//! that workload:
//!
//! * each luminaire runs its own §4.3 perception-domain adaptation and
//!   its own [`AmppmPlanner`] against a **shared** ambient model
//!   ([`vlc_channel::ambient`]) seen through a window gradient — cells
//!   near the window dim harder than cells deep in the room;
//! * each user walks a random waypoint trajectory ([`mobility`]), ranks
//!   cells by received signal strength through the Lambertian path
//!   ([`geometry`]), and hands over with hysteresis ([`handover`]);
//! * within a cell, associated users share the planned AMPPM rate by
//!   TDMA under a pluggable scheduling policy ([`sched`]): equal
//!   round-robin shares (the default, bit-identical to the historical
//!   behaviour), proportional-fair, or coordinated cell-edge serving;
//! * co-channel luminaires contribute interference at the slot detector
//!   via the same optics/photodiode path ([`geometry::interference_sigma_a`]).
//!
//! Fidelity is planning-level (the [`crate::daylong`] altitude): the tick
//! is the sensing cadence, the control plane — adaptation deadband,
//! stepping, planning — is the real one, and per-slot noise is replaced
//! by the analytic error probabilities of
//! [`vlc_channel::link::ChannelConfig::detector_for_gain`], fed the path
//! gain each user's walk computed. Every random draw
//! comes from a keyed [`desim::DetRng`] stream per luminaire and per
//! user, so a whole-room run is a pure function of its seed and
//! bit-identical at any `SMARTVLC_THREADS`.
//!
//! [`run_cell`] executes on the [`desim::Scheduler`] event queue
//! ([`event`]): every ambient sample, luminaire sensing pass, user walk,
//! TDMA recount and per-user grant is a typed [`CellEvent`], and per-user
//! work touches only the luminaires inside the receiver's field of view —
//! which is what lets the battery scale to 32×32 grids serving 1000
//! users. The `cell_fingerprints` test suite pins its [`CellReport`]s
//! bit for bit against a checked-in table.

pub mod event;
pub mod geometry;
pub mod handover;
pub mod mobility;
pub mod sched;
pub mod suite;
pub mod traffic;

pub use event::CellEvent;
pub use geometry::{
    ceiling_grid, cell_channel, interference_sigma_a, received_power_w, CellOptics, Luminaire,
    Position, RoomGeometry,
};
pub use handover::{Association, HandoverEvent, HandoverPolicy};
pub use mobility::{MobileUser, WaypointModel};
pub use sched::{
    CellScheduler, CoordGrant, CoordinatedEdge, EqualShare, LinkEstimate, ProportionalFair,
    SchedStats, ScheduleContext, SchedulerSpec, TickPlan,
};
pub use suite::{
    cell_policy_json, cell_policy_scenarios, cell_scale_json, cell_scale_scenarios, cell_scenarios,
    cell_suite_artifacts, cell_suite_json, run_cell_policies, run_cell_scale, run_cell_suite,
    CellScenario, CellSuiteSummary, PolicyPoint, PolicyScenario, ScalePoint,
};
pub use traffic::{CellTrafficReport, CellTrafficSpec};

use desim::DetRng;
use geometry::{rss_from_gain, PathGain};
use smartvlc_core::adaptation::PerceptionStepper;
use smartvlc_core::dimming::IlluminationTarget;
use smartvlc_core::{AmppmPlanner, DimmingLevel, SystemConfig};
use vlc_channel::ambient::{AmbientProfile, BlindRamp, ConstantAmbient};

/// The ambient field a cell run adapts against.
///
/// Selected through [`crate::scenario::CellScenarioBuilder::ambient`];
/// [`AmbientSpec::PaperDynamic`] is the battery default.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AmbientSpec {
    /// The paper's wobbling blind pull, scaled to sweep over ~2/3 of the
    /// run ([`BlindRamp::paper_dynamic`] with the run-sized duration).
    PaperDynamic,
    /// A constant field (adaptation settles once, then holds).
    Constant {
        /// The fixed illuminance, lux.
        lux: f64,
    },
    /// A smooth-step ramp without fluctuation, over the same run-sized
    /// duration as [`AmbientSpec::PaperDynamic`].
    Linearized {
        /// Illuminance at the start of the ramp, lux.
        start_lux: f64,
        /// Illuminance at the end of the ramp, lux.
        end_lux: f64,
    },
}

/// Configuration of one multi-cell run.
#[derive(Clone, Copy, Debug)]
pub struct CellConfig {
    /// Luminaires along the room's width.
    pub nx: usize,
    /// Luminaires along the room's depth.
    pub ny: usize,
    /// Grid pitch, m (one luminaire per `pitch × pitch` cell).
    pub pitch_m: f64,
    /// Number of mobile users.
    pub n_users: usize,
    /// Simulation length in ticks.
    pub ticks: u32,
    /// Tick length, s — the ambient sensing cadence.
    pub tick_s: f64,
    /// Luminaire/receiver optics.
    pub optics: CellOptics,
    /// Handover tuning.
    pub policy: HandoverPolicy,
    /// User mobility model.
    pub mobility: WaypointModel,
    /// Per-cell normalized illumination target (ambient + LED), as in
    /// [`IlluminationTarget`].
    pub i_sum: f64,
    /// Full-scale ambient for normalization, lux.
    pub full_scale_lux: f64,
    /// Ambient-sensor noise σ at each luminaire, lux.
    pub sensor_noise_lux: f64,
    /// Link-layer frame payload, bits (sets frame error amplification).
    pub frame_bits: f64,
    /// The shared ambient field driving adaptation.
    pub ambient: AmbientSpec,
    /// The TDMA scheduling policy ([`sched`]). The default,
    /// [`SchedulerSpec::EqualShare`], reproduces the historical
    /// scheduler bit for bit.
    pub scheduler: SchedulerSpec,
    /// What the users download ([`traffic`]). The default,
    /// [`CellTrafficSpec::Saturated`], is the historical full-buffer
    /// model (no flow accounting).
    pub traffic: CellTrafficSpec,
}

impl CellConfig {
    /// The standard cell workload: `nx × ny` grid at 2.5 m pitch, 100 ms
    /// sensing tick, one simulated minute, office mobility and handover
    /// defaults.
    pub fn standard(nx: usize, ny: usize, n_users: usize) -> CellConfig {
        CellConfig {
            nx,
            ny,
            pitch_m: 2.5,
            n_users,
            ticks: 600,
            tick_s: 0.1,
            optics: CellOptics::office_panel(),
            policy: HandoverPolicy::standard(),
            mobility: WaypointModel::office(),
            i_sum: 1.0,
            full_scale_lux: 10_000.0,
            sensor_noise_lux: 25.0,
            frame_bits: 2048.0,
            ambient: AmbientSpec::PaperDynamic,
            scheduler: SchedulerSpec::EqualShare,
            traffic: CellTrafficSpec::Saturated,
        }
    }

    /// The room implied by the grid.
    pub fn room(&self) -> RoomGeometry {
        RoomGeometry::for_grid(self.nx, self.ny, self.pitch_m)
    }

    /// Number of luminaires.
    pub fn n_cells(&self) -> usize {
        self.nx * self.ny
    }
}

/// Daylight gradient across the room: the window wall sits at `x = 0`, so
/// a sensor's share of the shared ambient falls off with depth. The
/// factors average ≈ 1 over the room, keeping the shared profile's lux
/// scale meaningful.
fn window_gain(room: &RoomGeometry, pos: &Position) -> f64 {
    1.45 - 0.9 * (pos.x_m / room.width_m).clamp(0.0, 1.0)
}

/// Per-user outcome of a run.
#[derive(Clone, Debug)]
pub struct UserOutcome {
    /// User index.
    pub id: usize,
    /// Payload bits delivered over the run.
    pub delivered_bits: f64,
    /// Mean goodput, bit/s.
    pub goodput_bps: f64,
    /// Completed handovers.
    pub handovers: u64,
    /// Ticks spent in association outage.
    pub outage_ticks: u64,
    /// Ticks holding a usable TDMA grant (whether or not the serving
    /// cell's planned rate was nonzero). Every tick is either a grant
    /// tick or an outage tick: `grant_ticks + outage_ticks == ticks` —
    /// the conservation law the event core's grant cancellation and
    /// re-scheduling must preserve (property-tested).
    pub grant_ticks: u64,
}

/// Per-cell outcome of a run.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// Cell (luminaire) index.
    pub id: usize,
    /// Payload bits this cell delivered to its users.
    pub delivered_bits: f64,
    /// Time-mean LED level after adaptation.
    pub mean_led: f64,
    /// Time-mean associated users.
    pub mean_users: f64,
    /// Perception-domain adaptation steps taken.
    pub smart_steps: u64,
}

/// Everything a multi-cell run reports.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// Per-user outcomes (user order).
    pub users: Vec<UserOutcome>,
    /// Per-cell outcomes (cell order).
    pub cells: Vec<CellOutcome>,
    /// Sum of user goodputs, bit/s.
    pub aggregate_goodput_bps: f64,
    /// Total completed handovers.
    pub handovers: u64,
    /// Mean handover latency (dwell + association), seconds — `None` if
    /// no handover completed.
    pub mean_handover_latency_s: Option<f64>,
    /// Fraction of user-ticks spent in association outage.
    pub outage_fraction: f64,
    /// Fraction of served user-ticks where co-channel interference
    /// exceeded the channel's own noise σ.
    pub interference_limited_fraction: f64,
    /// Simulated wall-clock, s.
    pub duration_s: f64,
    /// Always 0: the cell core keeps no operating-point cache. Kept only
    /// because the benchmark reads it; the benchmark rework (ROADMAP
    /// item 1) removes it.
    pub opcache_hits: u64,
    /// Operating points computed over the run (one per link estimate,
    /// grant and joint-serve donor). Removed with `opcache_hits`.
    pub opcache_misses: u64,
    /// Slot-equivalents processed by the analytic RX path: each served
    /// user-tick covers `tick_s / tslot_s` slots of airtime. Deterministic;
    /// the denominator for ns/slot in `cell_suite`.
    pub slots_equivalent: f64,
    /// Events delivered off the scheduler queue over the run — a pure
    /// function of `(cfg, seed)`, so it participates in the byte-equality
    /// gate.
    pub events: u64,
    /// Scheduler queue-depth high-water mark. Deterministic.
    pub queue_peak: u64,
    /// Jain fairness index of the per-user goodputs:
    /// `(Σg)² / (n·Σg²)` — 1.0 is perfectly fair, `1/n` is one user
    /// taking everything (and, by convention, 1.0 when nothing moved).
    pub jain_fairness: f64,
    /// 5th-percentile per-user goodput (nearest rank), bit/s — the
    /// cell-edge user experience the coordinated scheduler targets.
    pub edge_p5_goodput_bps: f64,
    /// Coordination grants actually applied at delivery time (0 for
    /// policies without coordination).
    pub coord_grants: u64,
    /// Coordination requests the donor ledger rejected.
    pub coord_blocked: u64,
    /// Flow-level outcome when the run replayed the net workload mix
    /// ([`CellTrafficSpec::NetMix`]); `None` under the saturated model.
    pub traffic: Option<CellTrafficReport>,
}

pub(crate) struct LuminaireState {
    pub(crate) led: f64,
    pub(crate) rate_bps: f64,
    pub(crate) smart_steps: u64,
    pub(crate) led_sum: f64,
    pub(crate) users_sum: f64,
    pub(crate) delivered_bits: f64,
    pub(crate) rng: DetRng,
}

/// Everything a run builds from `(cfg, seed)` before the first tick:
/// geometry, planner, keyed RNG streams, the shared ambient field, and
/// the initial (strongest-cell) associations.
pub(crate) struct SimParts {
    pub(crate) room: RoomGeometry,
    pub(crate) grid: Vec<Luminaire>,
    /// The closed-form luminaire→user path gain of `room`.
    pub(crate) path_gain: PathGain,
    pub(crate) tau_p: f64,
    pub(crate) planner: AmppmPlanner,
    pub(crate) illum: IlluminationTarget,
    pub(crate) stepper: PerceptionStepper,
    pub(crate) ambient: Box<dyn AmbientProfile>,
    pub(crate) lums: Vec<LuminaireState>,
    pub(crate) users: Vec<MobileUser>,
    pub(crate) assocs: Vec<Association>,
}

pub(crate) fn rate_for(planner: &AmppmPlanner, led: f64) -> f64 {
    planner
        .plan_clamped(DimmingLevel::clamped(led))
        .map(|p| p.rate_bps)
        .unwrap_or(0.0)
}

fn build_ambient(cfg: &CellConfig, root: &DetRng) -> Box<dyn AmbientProfile> {
    let run_duration_s = (cfg.ticks as f64 * cfg.tick_s * 0.66).max(1.0);
    match cfg.ambient {
        AmbientSpec::PaperDynamic => {
            // The shared sky: one blind pull sweeping near-dark to bright
            // sunny office over the run, so every cell adapts — at a depth
            // set by its window gradient.
            let mut a = BlindRamp::paper_dynamic(root.fork("ambient"));
            a.duration_s = run_duration_s;
            Box::new(a)
        }
        AmbientSpec::Constant { lux } => Box::new(ConstantAmbient { lux }),
        AmbientSpec::Linearized { start_lux, end_lux } => {
            Box::new(BlindRamp::linearized(start_lux, end_lux, run_duration_s))
        }
    }
}

pub(crate) fn sim_parts(cfg: &CellConfig, seed: u64) -> SimParts {
    let root = DetRng::seed_from_u64(seed);
    let room = cfg.room();
    let grid = ceiling_grid(&room, cfg.nx, cfg.ny);
    let path_gain = PathGain::new(&cfg.optics, &room);
    let sys = SystemConfig::default();
    let planner = AmppmPlanner::new(sys.clone()).expect("valid system config");
    let illum = IlluminationTarget::new(cfg.i_sum);
    let stepper = PerceptionStepper::new(sys.tau_p);
    let ambient = build_ambient(cfg, &root);

    let lums: Vec<LuminaireState> = grid
        .iter()
        .map(|l| LuminaireState {
            led: 1.0,
            rate_bps: rate_for(&planner, 1.0),
            smart_steps: 0,
            led_sum: 0.0,
            users_sum: 0.0,
            delivered_bits: 0.0,
            rng: root.fork("lum").fork_idx(l.id as u64),
        })
        .collect();

    let users: Vec<MobileUser> = (0..cfg.n_users)
        .map(|j| {
            MobileUser::new(
                j,
                &room,
                &cfg.mobility,
                root.fork("user").fork_idx(j as u64),
            )
        })
        .collect();

    // Initial association: strongest cell at the spawn position.
    let assocs: Vec<Association> = users
        .iter()
        .map(|u| {
            let mut best = 0usize;
            let mut best_p = f64::NEG_INFINITY;
            for l in &grid {
                let p = rss_from_gain(&cfg.optics, path_gain.at(&l.pos, &u.pos), 1.0);
                if p > best_p {
                    best_p = p;
                    best = l.id;
                }
            }
            Association::new(best)
        })
        .collect();

    SimParts {
        room,
        grid,
        path_gain,
        tau_p: sys.tau_p,
        planner,
        illum,
        stepper,
        ambient,
        lums,
        users,
        assocs,
    }
}

/// The integer/float accumulators the event core advances as grants,
/// handovers and outages happen.
pub(crate) struct RunTallies {
    pub(crate) user_bits: Vec<f64>,
    pub(crate) user_handovers: Vec<u64>,
    pub(crate) user_outage: Vec<u64>,
    pub(crate) user_grants: Vec<u64>,
    pub(crate) latency_ticks_sum: u64,
    pub(crate) handovers: u64,
    pub(crate) served_ticks: u64,
    pub(crate) interference_limited: u64,
    /// Coordination grants applied at delivery (always 0 under policies
    /// without coordination).
    pub(crate) coord_grants: u64,
    /// Operating points computed (link estimates, grants, donors).
    pub(crate) operating_points: u64,
}

impl RunTallies {
    pub(crate) fn new(n_users: usize) -> RunTallies {
        RunTallies {
            user_bits: vec![0.0; n_users],
            user_handovers: vec![0; n_users],
            user_outage: vec![0; n_users],
            user_grants: vec![0; n_users],
            latency_ticks_sum: 0,
            handovers: 0,
            served_ticks: 0,
            interference_limited: 0,
            coord_grants: 0,
            operating_points: 0,
        }
    }
}

/// Jain's fairness index over per-user goodputs: `(Σg)² / (n·Σg²)`,
/// defined as 1.0 for an empty or all-zero sample (nothing moved —
/// nothing was unfair).
pub fn jain_index(goodputs: &[f64]) -> f64 {
    let sum: f64 = goodputs.iter().sum();
    let sum_sq: f64 = goodputs.iter().map(|g| g * g).sum();
    if sum_sq > 0.0 {
        sum * sum / (goodputs.len() as f64 * sum_sq)
    } else {
        1.0
    }
}

/// Run one multi-cell scenario to completion. Deterministic per
/// `(cfg, seed)`: the shared ambient, every luminaire's sensor noise and
/// every user's walk derive from keyed forks of `seed`.
///
/// Executes on the [`desim::Scheduler`] event core ([`event`]).
///
/// # Panics
///
/// If `cfg` fails the checks [`CellScenarioBuilder::build`] makes, with
/// the [`ScenarioError`] it would return.
///
/// [`CellScenarioBuilder::build`]: crate::scenario::CellScenarioBuilder::build
/// [`ScenarioError`]: crate::scenario::ScenarioError
pub fn run_cell(cfg: &CellConfig, seed: u64) -> CellReport {
    event::run_cell_event(cfg, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cell_single_user_moves_data() {
        let cfg = CellConfig::standard(1, 1, 1);
        let r = run_cell(&cfg, 1);
        assert!(r.aggregate_goodput_bps > 1_000.0, "{r:?}");
        assert_eq!(r.handovers, 0, "one cell cannot hand over");
        assert_eq!(r.outage_fraction, 0.0);
    }

    #[test]
    fn mobile_users_hand_over_in_a_grid() {
        let cfg = CellConfig::standard(3, 3, 6);
        let r = run_cell(&cfg, 7);
        assert!(
            r.handovers > 0,
            "a minute of walking across 2.5 m cells must cross a boundary: {r:?}"
        );
        let lat = r.mean_handover_latency_s.expect("handovers happened");
        let expect = (cfg.policy.dwell_ticks + cfg.policy.assoc_delay_ticks) as f64 * cfg.tick_s;
        assert!((lat - expect).abs() < 1e-9, "latency {lat} vs {expect}");
        assert!(r.outage_fraction > 0.0, "handover must cost outage");
        assert!(r.outage_fraction < 0.2, "outage dominates: {r:?}");
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let cfg = CellConfig::standard(2, 2, 4);
        let a = run_cell(&cfg, 42);
        let b = run_cell(&cfg, 42);
        assert_eq!(
            a.aggregate_goodput_bps.to_bits(),
            b.aggregate_goodput_bps.to_bits()
        );
        assert_eq!(a.handovers, b.handovers);
        for (x, y) in a.users.iter().zip(&b.users) {
            assert_eq!(x.delivered_bits.to_bits(), y.delivered_bits.to_bits());
        }
        let c = run_cell(&cfg, 43);
        assert_ne!(
            a.aggregate_goodput_bps.to_bits(),
            c.aggregate_goodput_bps.to_bits(),
            "different seeds must differ"
        );
    }

    #[test]
    fn opcache_accounting_is_deterministic_and_consistent() {
        for policy in [
            SchedulerSpec::EqualShare,
            SchedulerSpec::proportional_fair(),
            SchedulerSpec::coordinated_edge(),
        ] {
            let mut cfg = CellConfig::standard(2, 2, 3);
            cfg.scheduler = policy;
            let a = run_cell(&cfg, 17);
            let b = run_cell(&cfg, 17);
            assert_eq!(a.opcache_hits, 0, "{}: no cache to hit", policy.name());
            assert_eq!(a.opcache_misses, b.opcache_misses);
            assert!(
                a.opcache_misses > 0,
                "served ticks compute operating points"
            );
            if matches!(policy, SchedulerSpec::EqualShare) {
                // One operating point per served tick; slots_equivalent is
                // that count scaled by the slots each tick covers.
                let slots_per_tick = cfg.tick_s / 8e-6;
                assert_eq!(
                    a.slots_equivalent.to_bits(),
                    (a.opcache_misses as f64 * slots_per_tick).to_bits()
                );
            }
        }
    }

    #[test]
    fn luminaires_adapt_to_the_window_gradient() {
        // By the end of the blind pull the window-side column sees far
        // more daylight than the deep column, so it must dim harder.
        let cfg = CellConfig::standard(3, 3, 2);
        let r = run_cell(&cfg, 5);
        let window_col: f64 = [0, 3, 6].iter().map(|&i| r.cells[i].mean_led).sum();
        let deep_col: f64 = [2, 5, 8].iter().map(|&i| r.cells[i].mean_led).sum();
        assert!(
            window_col < deep_col - 0.1,
            "window {window_col:.2} deep {deep_col:.2}"
        );
        assert!(r.cells.iter().all(|c| c.smart_steps > 0), "{r:?}");
    }

    #[test]
    fn interference_shows_up_in_dense_grids() {
        let cfg = CellConfig::standard(3, 3, 6);
        let r = run_cell(&cfg, 11);
        assert!(
            r.interference_limited_fraction > 0.05,
            "co-channel interference must matter in a 3×3 grid: {r:?}"
        );
    }

    #[test]
    fn tdma_conserves_cell_capacity() {
        // Many users in one cell share it: aggregate goodput with 8 users
        // in a 1×1 room must not exceed the single-user goodput (equal
        // shares of the same planned rate).
        let solo = run_cell(&CellConfig::standard(1, 1, 1), 9);
        let crowd = run_cell(&CellConfig::standard(1, 1, 8), 9);
        assert!(
            crowd.aggregate_goodput_bps <= solo.aggregate_goodput_bps * 1.05,
            "solo {} crowd {}",
            solo.aggregate_goodput_bps,
            crowd.aggregate_goodput_bps
        );
    }
}
