//! # smartvlc-sim — experiment scenarios for the SmartVLC reproduction
//!
//! Each module maps to part of the paper's §6 evaluation:
//!
//! * [`static_run`] — the static scenario (§6.2): scheme comparison
//!   across 17 dimming levels (Fig. 15), throughput vs distance
//!   (Fig. 16), throughput vs incidence angle (Fig. 17).
//! * [`dynamic_run`] — the dynamic scenario (§6.3): the 67-second blind
//!   pull driving Fig. 19(a) throughput, Fig. 19(b) intensity traces and
//!   Fig. 19(c) adaptation counts.
//! * [`perception`] — the 20-subject user study, virtualized (§6.1's
//!   `fth` selection and §6.3's Table 2) with calibrated psychometric
//!   models.
//! * [`report`] — CSV/markdown table writers and a terminal plot helper
//!   so every figure generator can both print and persist its data.
//! * [`runner`] — the deterministic parallel work pool every sweep fans
//!   out on: `(point × seed)` tasks with keyed RNG streams, bit-identical
//!   results at any `SMARTVLC_THREADS`.
//! * [`scenario`] — the shared scenario-builder API: every battery's
//!   scenario list is assembled through a validated builder returning a
//!   typed [`ScenarioError`] on bad configuration.
//!
//! Beyond the paper's own evaluation:
//!
//! * [`broadcast`] — one luminaire, many receivers (§3's plural).
//! * [`energy`] — the intro's energy-saving motivation, integrated from
//!   the LED trace.
//! * [`daylong`] — planning-level whole-day runs over a diurnal ambient
//!   profile (control plane identical to the live link; per-slot noise
//!   replaced by the analytic rate).
//! * [`chaos`] — scheduled channel faults (spikes, occlusion, drift,
//!   slips, saturation, flaky uplink) against the self-healing link,
//!   with same-seed fault-free controls.
//! * [`cell`] — a ceiling grid of luminaires serving mobile users:
//!   per-cell adaptation against a shared ambient, waypoint mobility,
//!   RSS handover with hysteresis, TDMA shares, and co-channel
//!   interference through the Lambertian path.
//!
//! # Example
//!
//! Fan a sweep out on the deterministic runner: each `(point,
//! replicate)` task gets its own keyed RNG stream, so the result is the
//! same at any `SMARTVLC_THREADS` — including which random numbers each
//! task draws:
//!
//! ```
//! use smartvlc_sim::{par_sweep, task_rng, TaskId};
//!
//! let points = [0.25_f64, 0.5, 0.75];
//! let grouped = par_sweep(&points, 2, 42, |&level, id: TaskId| {
//!     let mut rng = task_rng(id.seed, 0);
//!     level + 0.01 * rng.next_f64()
//! });
//! // One group per point, one entry per replicate, in submission order.
//! assert_eq!(grouped.len(), 3);
//! assert!(grouped.iter().all(|g| g.len() == 2));
//! // Re-running reproduces the exact same values, bit for bit.
//! let again = par_sweep(&points, 2, 42, |&level, id: TaskId| {
//!     let mut rng = task_rng(id.seed, 0);
//!     level + 0.01 * rng.next_f64()
//! });
//! assert_eq!(grouped, again);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broadcast;
pub mod cell;
pub mod chaos;
pub mod daylong;
pub mod dynamic_run;
pub mod energy;
pub mod net_suite;
pub mod perception;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod static_run;
pub mod stats_util;

pub use broadcast::{run_broadcast, Seat, SeatReport};
pub use cell::{
    cell_policy_json, cell_policy_scenarios, cell_scale_json, cell_scale_scenarios, cell_scenarios,
    cell_suite_artifacts, cell_suite_json, jain_index, run_cell, run_cell_policies, run_cell_scale,
    run_cell_suite, AmbientSpec, CellConfig, CellEvent, CellReport, CellScenario, CellScheduler,
    CellSuiteSummary, CellTrafficReport, CellTrafficSpec, LinkEstimate, PolicyPoint,
    PolicyScenario, ScalePoint, SchedulerSpec,
};
pub use chaos::{
    chaos_scenarios, run_chaos_scenario, run_chaos_scenario_fec, run_chaos_suite,
    run_chaos_suite_fec, ChaosFecComparison, ChaosOutcome, ChaosScenario, ChaosSummary,
    CHAOS_FEC_NOMINAL,
};
pub use daylong::{run_day, DayReport};
pub use dynamic_run::{run_dynamic, DynamicOutcome};
pub use energy::{energy_from_trace, EnergyReport};
pub use net_suite::{
    net_scenarios, run_net_scenario, run_net_suite_fec, NetFecComparison, NetOutcome, NetScenario,
    NetSummary, NET_DURATION_S, NET_FEC_NOMINAL,
};
pub use perception::{StudyCondition, UserStudy, Viewing};
pub use runner::{
    par_map, par_sweep, par_sweep_summaries, parse_thread_count, task_rng, task_seed, with_threads,
    TaskId,
};
pub use scenario::{CellScenarioBuilder, ChaosScenarioBuilder, NetScenarioBuilder, ScenarioError};
pub use static_run::{
    run_distance_matrix, run_distance_sweep, run_incidence_matrix, run_incidence_sweep,
    run_scheme_comparison, run_scheme_matrix, StaticPoint,
};
pub use stats_util::{
    percentiles, summarize, try_percentile, try_percentiles, try_summarize, Percentiles, Summary,
};
