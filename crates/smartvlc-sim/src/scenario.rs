//! One scenario-construction API for every battery.
//!
//! The cell, chaos and net batteries each used to assemble their
//! scenario lists from bare struct literals — positional, unvalidated,
//! and three different shapes to learn. This module gives all three the
//! same builder idiom: start from a named builder, set what differs from
//! the defaults, and `build()` into the battery's scenario type or get a
//! typed [`ScenarioError`] explaining what was invalid.
//!
//! ```
//! use smartvlc_sim::scenario::CellScenarioBuilder;
//! use smartvlc_sim::cell::AmbientSpec;
//!
//! let sc = CellScenarioBuilder::new()
//!     .grid(4, 4)
//!     .users(12)
//!     .ambient(AmbientSpec::Constant { lux: 3000.0 })
//!     .build()
//!     .expect("a 4x4 grid with 12 users is valid");
//! assert_eq!(sc.name, "grid4x4_users12");
//!
//! let err = CellScenarioBuilder::new().users(0).build().unwrap_err();
//! assert!(err.to_string().contains("user"));
//! ```
//!
//! The stock batteries ([`crate::cell::cell_scenarios`],
//! [`crate::chaos::chaos_scenarios`], [`crate::net_suite::net_scenarios`])
//! are themselves constructed through these builders, so the validation
//! here is exercised on every suite run.

use crate::cell::{
    AmbientSpec, CellConfig, CellScenario, CellTrafficSpec, HandoverPolicy, SchedulerSpec,
    WaypointModel,
};
use crate::chaos::ChaosScenario;
use crate::net_suite::NetScenario;
use smartvlc_net::WorkloadSpec;
use std::fmt;
use vlc_channel::faults::FaultEvent;

/// Why a scenario failed to build.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// The scenario name is empty (it doubles as the JSON key, so it
    /// must be a non-empty identifier).
    EmptyName,
    /// The grid has a zero extent.
    InvalidGrid {
        /// Requested extent along x.
        nx: usize,
        /// Requested extent along y.
        ny: usize,
    },
    /// A cell scenario needs at least one mobile user.
    NoUsers,
    /// The simulation horizon is empty (zero ticks).
    EmptyHorizon,
    /// The tick length must be positive and finite.
    InvalidTick {
        /// The rejected tick length, s.
        tick_s: f64,
    },
    /// The grid pitch must be positive and finite.
    InvalidPitch {
        /// The rejected pitch, m.
        pitch_m: f64,
    },
    /// A scheduler parameter is out of range (see
    /// [`SchedulerSpec`]).
    InvalidScheduler {
        /// What was out of range.
        reason: &'static str,
    },
    /// A cell optics parameter is out of range (see [`CellOptics`]).
    ///
    /// [`CellOptics`]: crate::cell::CellOptics
    InvalidOptics {
        /// What was out of range.
        reason: &'static str,
    },
    /// A net scenario needs at least one workload flow.
    NoWorkloads,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ScenarioError::EmptyName => write!(f, "scenario name must be non-empty"),
            ScenarioError::InvalidGrid { nx, ny } => {
                write!(f, "grid must be at least 1x1, got {nx}x{ny}")
            }
            ScenarioError::NoUsers => write!(f, "cell scenario needs at least one mobile user"),
            ScenarioError::EmptyHorizon => write!(f, "simulation horizon must be at least 1 tick"),
            ScenarioError::InvalidTick { tick_s } => {
                write!(f, "tick length must be positive and finite, got {tick_s} s")
            }
            ScenarioError::InvalidPitch { pitch_m } => {
                write!(f, "grid pitch must be positive and finite, got {pitch_m} m")
            }
            ScenarioError::InvalidScheduler { reason } => {
                write!(f, "invalid scheduler: {reason}")
            }
            ScenarioError::InvalidOptics { reason } => write!(f, "invalid optics: {reason}"),
            ScenarioError::NoWorkloads => {
                write!(f, "net scenario needs at least one workload flow")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl CellConfig {
    /// The checks [`CellScenarioBuilder::build`] makes, also run by
    /// [`crate::cell::run_cell`] on a config built by hand.
    pub(crate) fn validate(&self) -> Result<(), ScenarioError> {
        if self.nx == 0 || self.ny == 0 {
            return Err(ScenarioError::InvalidGrid {
                nx: self.nx,
                ny: self.ny,
            });
        }
        if self.n_users == 0 {
            return Err(ScenarioError::NoUsers);
        }
        if self.ticks == 0 {
            return Err(ScenarioError::EmptyHorizon);
        }
        if !(self.tick_s.is_finite() && self.tick_s > 0.0) {
            return Err(ScenarioError::InvalidTick {
                tick_s: self.tick_s,
            });
        }
        if !(self.pitch_m.is_finite() && self.pitch_m > 0.0) {
            return Err(ScenarioError::InvalidPitch {
                pitch_m: self.pitch_m,
            });
        }
        let optics = &self.optics;
        // The cosine check catches semi-angles so small that cos rounds
        // to 1, where the Lambertian mode number is undefined.
        let semi = optics.semi_angle_deg;
        if !(semi > 0.0 && semi < 90.0 && semi.to_radians().cos() < 1.0) {
            return Err(ScenarioError::InvalidOptics {
                reason: "luminaire semi-angle must be in (0°, 90°)",
            });
        }
        if !(optics.rx_fov_deg > 0.0 && optics.rx_fov_deg <= 90.0) {
            return Err(ScenarioError::InvalidOptics {
                reason: "receiver FoV must be finite and in (0°, 90°]",
            });
        }
        if !(optics.tx_optical_w.is_finite() && optics.tx_optical_w > 0.0) {
            return Err(ScenarioError::InvalidOptics {
                reason: "luminaire optical power must be finite and positive",
            });
        }
        match self.scheduler {
            SchedulerSpec::EqualShare => {}
            SchedulerSpec::ProportionalFair {
                ewma_ticks,
                fairness_exp,
            } => {
                if ewma_ticks == 0 {
                    return Err(ScenarioError::InvalidScheduler {
                        reason: "proportional-fair EWMA window must be at least 1 tick",
                    });
                }
                if !(fairness_exp.is_finite() && fairness_exp >= 0.0) {
                    return Err(ScenarioError::InvalidScheduler {
                        reason: "proportional-fair fairness exponent must be finite and >= 0",
                    });
                }
            }
            SchedulerSpec::CoordinatedEdge { sinr_margin_db, .. } => {
                if !sinr_margin_db.is_finite() {
                    return Err(ScenarioError::InvalidScheduler {
                        reason: "coordinated-edge SINR margin must be finite",
                    });
                }
            }
        }
        Ok(())
    }
}

/// Builder for one point of the cell battery: a grid of luminaires, a
/// user population, and the knobs that shape the run.
///
/// Defaults are [`CellConfig::standard`] on a 2×2 grid with 2 users; the
/// name defaults to `grid{nx}x{ny}_users{n}` (the battery's JSON key
/// convention) unless overridden with [`CellScenarioBuilder::name`].
#[derive(Clone, Debug)]
pub struct CellScenarioBuilder {
    name: Option<String>,
    cfg: CellConfig,
}

impl CellScenarioBuilder {
    /// Start from the standard configuration (2×2 grid, 2 users).
    pub fn new() -> CellScenarioBuilder {
        CellScenarioBuilder {
            name: None,
            cfg: CellConfig::standard(2, 2, 2),
        }
    }

    /// Override the auto-generated `grid{nx}x{ny}_users{n}` name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Grid extent (luminaires along x and y).
    pub fn grid(mut self, nx: usize, ny: usize) -> Self {
        self.cfg.nx = nx;
        self.cfg.ny = ny;
        self
    }

    /// Grid pitch, m (one luminaire per `pitch × pitch` cell).
    pub fn pitch_m(mut self, pitch_m: f64) -> Self {
        self.cfg.pitch_m = pitch_m;
        self
    }

    /// Number of mobile users in the room.
    pub fn users(mut self, n_users: usize) -> Self {
        self.cfg.n_users = n_users;
        self
    }

    /// Simulation horizon: tick count and tick length.
    pub fn horizon(mut self, ticks: u32, tick_s: f64) -> Self {
        self.cfg.ticks = ticks;
        self.cfg.tick_s = tick_s;
        self
    }

    /// User mobility model.
    pub fn mobility(mut self, model: WaypointModel) -> Self {
        self.cfg.mobility = model;
        self
    }

    /// The shared ambient field driving adaptation.
    pub fn ambient(mut self, ambient: AmbientSpec) -> Self {
        self.cfg.ambient = ambient;
        self
    }

    /// Handover (TDMA admission) tuning.
    pub fn policy(mut self, policy: HandoverPolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// The TDMA scheduling policy (default [`SchedulerSpec::EqualShare`],
    /// the historical bit-exact scheduler).
    pub fn scheduler(mut self, scheduler: SchedulerSpec) -> Self {
        self.cfg.scheduler = scheduler;
        self
    }

    /// What the users download (default [`CellTrafficSpec::Saturated`],
    /// the historical full-buffer model).
    pub fn traffic(mut self, traffic: CellTrafficSpec) -> Self {
        self.cfg.traffic = traffic;
        self
    }

    /// Arbitrary access to the underlying [`CellConfig`] for knobs
    /// without a dedicated setter.
    pub fn configure(mut self, f: impl FnOnce(&mut CellConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    /// Validate and assemble the scenario.
    pub fn build(self) -> Result<CellScenario, ScenarioError> {
        let cfg = self.cfg;
        cfg.validate()?;
        let name = match self.name {
            Some(n) if n.is_empty() => return Err(ScenarioError::EmptyName),
            Some(n) => n,
            None => format!("grid{}x{}_users{}", cfg.nx, cfg.ny, cfg.n_users),
        };
        Ok(CellScenario { name, cfg })
    }
}

impl Default for CellScenarioBuilder {
    fn default() -> Self {
        CellScenarioBuilder::new()
    }
}

/// Builder for one chaos scenario: a name, a one-line description, and a
/// pure fault-schedule function (pure so every replicate sees the same
/// plan).
#[derive(Clone, Debug)]
pub struct ChaosScenarioBuilder {
    name: &'static str,
    description: &'static str,
    events: fn() -> Vec<FaultEvent>,
}

impl ChaosScenarioBuilder {
    /// Start a scenario named `name` with a fault-free schedule.
    pub fn new(name: &'static str) -> ChaosScenarioBuilder {
        ChaosScenarioBuilder {
            name,
            description: "",
            events: Vec::new,
        }
    }

    /// One-line description of what goes wrong.
    pub fn description(mut self, description: &'static str) -> Self {
        self.description = description;
        self
    }

    /// The fault-schedule builder (pure function).
    pub fn events(mut self, events: fn() -> Vec<FaultEvent>) -> Self {
        self.events = events;
        self
    }

    /// Validate and assemble the scenario.
    pub fn build(self) -> Result<ChaosScenario, ScenarioError> {
        if self.name.is_empty() {
            return Err(ScenarioError::EmptyName);
        }
        Ok(ChaosScenario {
            name: self.name,
            description: self.description,
            events: self.events,
        })
    }
}

/// Builder for one net-suite scenario: a workload mix plus a fault
/// schedule, both pure functions.
#[derive(Clone, Debug)]
pub struct NetScenarioBuilder {
    name: &'static str,
    description: &'static str,
    workloads: Option<fn() -> Vec<WorkloadSpec>>,
    events: fn() -> Vec<FaultEvent>,
}

impl NetScenarioBuilder {
    /// Start a scenario named `name` on a fault-free channel.
    pub fn new(name: &'static str) -> NetScenarioBuilder {
        NetScenarioBuilder {
            name,
            description: "",
            workloads: None,
            events: Vec::new,
        }
    }

    /// One-line description of the mix.
    pub fn description(mut self, description: &'static str) -> Self {
        self.description = description;
        self
    }

    /// The workload-mix builder (pure function; one MAC flow per entry).
    pub fn workloads(mut self, workloads: fn() -> Vec<WorkloadSpec>) -> Self {
        self.workloads = Some(workloads);
        self
    }

    /// The fault-schedule builder (pure function; default: fault-free).
    pub fn events(mut self, events: fn() -> Vec<FaultEvent>) -> Self {
        self.events = events;
        self
    }

    /// Validate and assemble the scenario. The workload function is
    /// invoked once here to reject empty mixes up front.
    pub fn build(self) -> Result<NetScenario, ScenarioError> {
        if self.name.is_empty() {
            return Err(ScenarioError::EmptyName);
        }
        let workloads = self.workloads.ok_or(ScenarioError::NoWorkloads)?;
        if workloads().is_empty() {
            return Err(ScenarioError::NoWorkloads);
        }
        Ok(NetScenario {
            name: self.name,
            description: self.description,
            workloads,
            events: self.events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellOptics;

    #[test]
    fn cell_builder_defaults_and_auto_name() {
        let sc = CellScenarioBuilder::new().build().expect("defaults valid");
        assert_eq!(sc.name, "grid2x2_users2");
        assert_eq!((sc.cfg.nx, sc.cfg.ny, sc.cfg.n_users), (2, 2, 2));
        let named = CellScenarioBuilder::new()
            .grid(8, 8)
            .users(100)
            .name("scale_8x8")
            .build()
            .unwrap();
        assert_eq!(named.name, "scale_8x8");
        assert_eq!(named.cfg.nx, 8);
    }

    #[test]
    fn cell_builder_rejects_each_invalid_knob_with_a_typed_error() {
        let cases: Vec<(CellScenarioBuilder, ScenarioError)> = vec![
            (
                CellScenarioBuilder::new().grid(0, 3),
                ScenarioError::InvalidGrid { nx: 0, ny: 3 },
            ),
            (CellScenarioBuilder::new().users(0), ScenarioError::NoUsers),
            (
                CellScenarioBuilder::new().horizon(0, 0.1),
                ScenarioError::EmptyHorizon,
            ),
            (
                CellScenarioBuilder::new().horizon(100, 0.0),
                ScenarioError::InvalidTick { tick_s: 0.0 },
            ),
            (
                CellScenarioBuilder::new().pitch_m(f64::NAN),
                ScenarioError::InvalidPitch { pitch_m: f64::NAN },
            ),
            (
                CellScenarioBuilder::new().name(""),
                ScenarioError::EmptyName,
            ),
            (
                CellScenarioBuilder::new().scheduler(SchedulerSpec::ProportionalFair {
                    ewma_ticks: 0,
                    fairness_exp: 1.0,
                }),
                ScenarioError::InvalidScheduler {
                    reason: "proportional-fair EWMA window must be at least 1 tick",
                },
            ),
            (
                CellScenarioBuilder::new().scheduler(SchedulerSpec::ProportionalFair {
                    ewma_ticks: 50,
                    fairness_exp: f64::NAN,
                }),
                ScenarioError::InvalidScheduler {
                    reason: "proportional-fair fairness exponent must be finite and >= 0",
                },
            ),
            (
                CellScenarioBuilder::new().scheduler(SchedulerSpec::CoordinatedEdge {
                    sinr_margin_db: f64::INFINITY,
                    joint_serve: true,
                }),
                ScenarioError::InvalidScheduler {
                    reason: "coordinated-edge SINR margin must be finite",
                },
            ),
        ];
        for (b, want) in cases {
            let got = b.build().expect_err("must reject");
            // NaN payloads break PartialEq; compare the rendered message.
            assert_eq!(got.to_string(), want.to_string());
        }
    }

    /// `build` on the default scenario with `set` applied to its optics.
    fn build_with_optics(set: impl FnOnce(&mut CellOptics)) -> Result<CellScenario, ScenarioError> {
        CellScenarioBuilder::new()
            .configure(|c| set(&mut c.optics))
            .build()
    }

    #[test]
    fn cell_builder_rejects_a_semi_angle_outside_0_to_90_degrees() {
        // 0°, 120°, a semi-angle whose cosine rounds to 1, NaN and ∞ used to
        // build and then panic inside `run_cell`, at the Lambertian mode
        // number; -10° silently ran as 10°, and 90° as a near-isotropic
        // source.
        for semi in [0.0, -10.0, 90.0, 120.0, 1e-9, f64::NAN, f64::INFINITY] {
            assert_eq!(
                build_with_optics(|o| o.semi_angle_deg = semi).unwrap_err(),
                ScenarioError::InvalidOptics {
                    reason: "luminaire semi-angle must be in (0°, 90°)"
                },
                "semi-angle {semi}"
            );
        }
        for semi in [0.5, 45.0, 89.9] {
            assert!(build_with_optics(|o| o.semi_angle_deg = semi).is_ok());
        }
    }

    #[test]
    fn cell_builder_rejects_a_fov_outside_0_to_90_degrees() {
        for fov in [0.0, -5.0, 90.5, f64::NAN, f64::INFINITY] {
            assert_eq!(
                build_with_optics(|o| o.rx_fov_deg = fov).unwrap_err(),
                ScenarioError::InvalidOptics {
                    reason: "receiver FoV must be finite and in (0°, 90°]"
                },
                "FoV {fov}"
            );
        }
        for fov in [10.0, 70.0, 90.0] {
            assert!(build_with_optics(|o| o.rx_fov_deg = fov).is_ok());
        }
    }

    #[test]
    fn cell_builder_rejects_a_non_positive_or_non_finite_tx_power() {
        for w in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                build_with_optics(|o| o.tx_optical_w = w).unwrap_err(),
                ScenarioError::InvalidOptics {
                    reason: "luminaire optical power must be finite and positive"
                },
                "tx power {w}"
            );
        }
        assert!(build_with_optics(|o| o.tx_optical_w = 1e-3).is_ok());
    }

    #[test]
    fn run_cell_panics_with_the_builders_error_on_an_invalid_config() {
        // A config built by hand skips the builder; `run_cell` must refuse
        // it with the builder's error instead of running on it.
        let cases: [fn(&mut CellConfig); 6] = [
            |c| c.optics.rx_fov_deg = 0.0,
            |c| c.optics.tx_optical_w = f64::NAN,
            |c| c.optics.tx_optical_w = -1.0,
            |c| c.pitch_m = 0.0,
            |c| c.tick_s = f64::INFINITY,
            |c| c.pitch_m = f64::NAN,
        ];
        for set in cases {
            let want = CellScenarioBuilder::new()
                .configure(set)
                .build()
                .unwrap_err();
            let mut cfg = CellConfig::standard(2, 2, 2);
            set(&mut cfg);
            let panic = std::panic::catch_unwind(|| crate::cell::run_cell(&cfg, 1))
                .expect_err("run_cell must reject what the builder rejects");
            let msg = panic
                .downcast_ref::<String>()
                .expect("a formatted panic message");
            assert_eq!(*msg, format!("invalid CellConfig: {want}"));
        }
    }

    #[test]
    fn scheduler_and_traffic_setters_reach_the_config() {
        let sc = CellScenarioBuilder::new()
            .scheduler(SchedulerSpec::proportional_fair())
            .traffic(CellTrafficSpec::NetMix)
            .build()
            .unwrap();
        assert_eq!(sc.cfg.scheduler, SchedulerSpec::proportional_fair());
        assert_eq!(sc.cfg.traffic, CellTrafficSpec::NetMix);
        // Defaults stay on the historical pair.
        let d = CellScenarioBuilder::new().build().unwrap();
        assert_eq!(d.cfg.scheduler, SchedulerSpec::EqualShare);
        assert_eq!(d.cfg.traffic, CellTrafficSpec::Saturated);
    }

    #[test]
    fn the_boundary_optics_the_builder_accepts_run() {
        for (semi, fov) in [(89.9, 90.0), (0.5, 10.0)] {
            let sc = CellScenarioBuilder::new()
                .horizon(5, 0.1)
                .configure(|c| {
                    c.optics.semi_angle_deg = semi;
                    c.optics.rx_fov_deg = fov;
                })
                .build()
                .expect("valid optics");
            let r = crate::cell::run_cell(&sc.config(), 1);
            assert!(r.aggregate_goodput_bps.is_finite(), "{semi}°/{fov}°");
        }
    }

    #[test]
    fn configure_reaches_knobs_without_setters() {
        let sc = CellScenarioBuilder::new()
            .configure(|c| c.frame_bits = 4096.0)
            .build()
            .unwrap();
        assert_eq!(sc.cfg.frame_bits, 4096.0);
    }

    #[test]
    fn chaos_and_net_builders_validate() {
        assert_eq!(
            ChaosScenarioBuilder::new("").build().unwrap_err(),
            ScenarioError::EmptyName
        );
        assert!(ChaosScenarioBuilder::new("quiet").build().is_ok());
        assert_eq!(
            NetScenarioBuilder::new("no_flows").build().unwrap_err(),
            ScenarioError::NoWorkloads
        );
        fn one_flow() -> Vec<WorkloadSpec> {
            vec![WorkloadSpec::iot()]
        }
        let sc = NetScenarioBuilder::new("iot")
            .description("one IoT flow")
            .workloads(one_flow)
            .build()
            .unwrap();
        assert_eq!(sc.name, "iot");
        assert_eq!(sc.workloads().len(), 1);
    }
}
