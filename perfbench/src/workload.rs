//! The four workloads: the inputs each generates from the seed, the
//! untraced task runner, and the output checks behind `failed`.
//!
//! A workload is an endless sequence of *passes*; pass `p` holds one task
//! per point of the workload's grid, all seeded with
//! `task_seed(seed, p)`. The runner measures whole passes, so every run
//! covers the grid in the same proportions whatever its length.

use desim::SimDuration;
use smartvlc_link::{ChannelFidelity, LinkConfig, LinkReport, LinkSimulation, SchemeKind};
use smartvlc_net::{run_net_over_link, NetConfig, NetReport, WorkloadSpec};
use smartvlc_sim::chaos::{CHAOS_AMBIENT_LUX, CHAOS_DISTANCE_M};
use smartvlc_sim::static_run::paper_levels;
use smartvlc_sim::{
    net_scenarios, run_cell, task_seed, CellConfig, CellReport, CellScenarioBuilder,
    NET_DURATION_S, NET_FEC_NOMINAL,
};
use vlc_channel::ambient::ConstantAmbient;

/// The §6.2 static bench's bright-office ambient, lux.
pub const STATIC_LUX: f64 = 8080.0;
/// `link_sampled`: dimming level and per-task simulated time.
const SAMPLED_LEVEL: f64 = 0.5;
const SAMPLED_MS: u64 = 250;
/// `link_sampled` distances, m: flat region, the Fig. 16 cliff, beyond.
pub const SAMPLED_DISTANCES_M: [f64; 12] = [
    1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0, 3.25, 3.5, 3.75, 4.0, 4.25,
];
/// `link_analytic`: the Fig. 15 schemes, at 3 m, per-task simulated time.
pub const ANALYTIC_SCHEMES: [SchemeKind; 3] =
    [SchemeKind::Amppm, SchemeKind::Mppm(20), SchemeKind::OokCt];
const ANALYTIC_MS: u64 = 1000;
/// `cell_scale`: the scale battery's 16×16 grid and 400 users, for 200
/// ticks of 100 ms. Sub-second tasks let the per-point best find quiet
/// moments of a noisy host, and the op-point cache still grows to ~70k
/// entries per run.
const CELL_GRID: usize = 16;
const CELL_USERS: usize = 400;
const CELL_TICKS: u32 = 200;
const CELL_TICK_S: f64 = 0.1;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// AMPPM static link at sampled fidelity across the Fig. 16 cliff.
    LinkSampled,
    /// The Fig. 15 scheme × dimming matrix at slot-i.i.d. fidelity.
    LinkAnalytic,
    /// The net workload mixes over the coded link.
    NetMix,
    /// The 16×16-grid, 400-user cell run.
    CellScale,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::LinkSampled,
        Workload::LinkAnalytic,
        Workload::NetMix,
        Workload::CellScale,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LinkSampled => "link_sampled",
            Workload::LinkAnalytic => "link_analytic",
            Workload::NetMix => "net_mix",
            Workload::CellScale => "cell_scale",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The tasks of pass `pass` under workload seed `seed`.
    pub fn pass(self, seed: u64, pass: u64) -> Vec<Task> {
        let s = task_seed(seed, pass);
        match self {
            Workload::LinkSampled => SAMPLED_DISTANCES_M
                .iter()
                .map(|&d| {
                    let mut cfg = static_cfg(d, SchemeKind::Amppm, SAMPLED_LEVEL, s);
                    cfg.fidelity = ChannelFidelity::Sampled;
                    cfg.duration = SimDuration::millis(SAMPLED_MS);
                    Task::Link { cfg }
                })
                .collect(),
            Workload::LinkAnalytic => ANALYTIC_SCHEMES
                .iter()
                .flat_map(|&scheme| {
                    paper_levels().into_iter().map(move |l| {
                        let mut cfg = static_cfg(3.0, scheme, l, s);
                        cfg.duration = SimDuration::millis(ANALYTIC_MS);
                        Task::Link { cfg }
                    })
                })
                .collect(),
            Workload::NetMix => net_scenarios()
                .iter()
                .map(|sc| {
                    let mut cfg = LinkConfig::paper_static(CHAOS_DISTANCE_M, SchemeKind::Amppm, s);
                    cfg.duration = SimDuration::secs(NET_DURATION_S);
                    cfg.faults = sc.plan();
                    cfg.fec = NET_FEC_NOMINAL;
                    Task::Net {
                        cfg,
                        specs: sc.workloads(),
                    }
                })
                .collect(),
            Workload::CellScale => {
                let sc = CellScenarioBuilder::new()
                    .grid(CELL_GRID, CELL_GRID)
                    .users(CELL_USERS)
                    .horizon(CELL_TICKS, CELL_TICK_S)
                    .build()
                    .expect("the cell_scale scenario is valid");
                vec![Task::Cell {
                    cfg: sc.config(),
                    seed: s,
                }]
            }
        }
    }
}

/// The static scenario's set-up (`static_run::run_point`): constant
/// bright-office ambient, set-point chosen so Eq. 5 lands on `level`.
fn static_cfg(distance_m: f64, scheme: SchemeKind, level: f64, seed: u64) -> LinkConfig {
    let mut cfg = LinkConfig::paper_static(distance_m, scheme, seed);
    cfg.channel.ambient_lux = STATIC_LUX;
    cfg.illum_target = STATIC_LUX / cfg.full_scale_lux + level;
    cfg
}

/// One unit of work, holding only generated inputs.
#[derive(Clone, Debug)]
pub enum Task {
    /// One `LinkSimulation::run` under the static ambient.
    Link {
        /// The scenario.
        cfg: LinkConfig,
    },
    /// One `run_net_over_link` under the chaos battery's ambient.
    Net {
        /// The link scenario (fault plan and FEC included).
        cfg: LinkConfig,
        /// One workload per MAC flow.
        specs: Vec<WorkloadSpec>,
    },
    /// One `run_cell`.
    Cell {
        /// The cell scenario.
        cfg: CellConfig,
        /// The run seed.
        seed: u64,
    },
}

/// What a task produced, reduced to what the checks need.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Simulated seconds the task covered.
    pub sim_s: f64,
    /// Mean link goodput, bit/s (0 for cell tasks).
    pub goodput_bps: f64,
    /// The task's own output check.
    pub check: Result<(), String>,
    /// Hash of the task's full output, bit for bit.
    pub fingerprint: u64,
}

impl Task {
    /// The constant ambient a link or net task runs under, lux.
    pub fn lux(&self) -> f64 {
        match self {
            Task::Link { .. } => STATIC_LUX,
            Task::Net { .. } => CHAOS_AMBIENT_LUX,
            Task::Cell { .. } => 0.0,
        }
    }

    /// Run the task through the library's public entry point.
    pub fn run(&self) -> Outcome {
        match self {
            Task::Link { cfg } => {
                let mut sim = LinkSimulation::new(cfg.clone()).expect("valid link scenario");
                let r = sim.run(&mut ConstantAmbient { lux: self.lux() });
                link_outcome(&r, None)
            }
            Task::Net { cfg, specs } => {
                let (net, link) =
                    run_net_over_link(cfg.clone(), NetConfig::default(), specs, self.lux())
                        .expect("valid net scenario");
                link_outcome(&link, Some(&net))
            }
            Task::Cell { cfg, seed } => cell_outcome(cfg, &run_cell(cfg, *seed)),
        }
    }

    /// Warm the process-shared state the first task would otherwise pay
    /// for (binomial table, planner hull), as a user's first run does.
    pub fn warm_up(&self) {
        match self {
            Task::Link { cfg } | Task::Net { cfg, .. } => {
                LinkSimulation::new(cfg.clone()).expect("valid link scenario");
            }
            Task::Cell { .. } => {
                smartvlc_core::AmppmPlanner::new(smartvlc_core::SystemConfig::default())
                    .expect("valid system config");
            }
        }
    }
}

/// Fingerprint of a link run as the replica can reproduce it: the frame
/// counters plus, for net runs, the whole datagram report.
pub fn link_fingerprint(stats: &smartvlc_link::LinkStats, net: Option<&NetReport>) -> u64 {
    fnv64(format!("{stats:?}|{net:?}").as_bytes())
}

fn link_outcome(r: &LinkReport, net: Option<&NetReport>) -> Outcome {
    // Frame counters admit no per-run identity to check: one receive
    // call can report a late CRC failure of the previous frame beside the
    // current frame's decode.
    let mut check = if !(r.mean_goodput_bps.is_finite() && r.mean_goodput_bps >= 0.0) {
        Err(format!("goodput {} is not a rate", r.mean_goodput_bps))
    } else {
        Ok(())
    };
    if let (Ok(()), Some(n)) = (&check, net) {
        if n.delivered_dgrams + n.lost_dgrams + n.unfinished_dgrams != n.offered_dgrams {
            check = Err(format!(
                "datagrams not conserved: {} + {} + {} != {}",
                n.delivered_dgrams, n.lost_dgrams, n.unfinished_dgrams, n.offered_dgrams
            ));
        } else if n.latency_ms.len() as u64 != n.delivered_dgrams {
            check = Err(format!(
                "{} latency samples for {} delivered datagrams",
                n.latency_ms.len(),
                n.delivered_dgrams
            ));
        }
    }
    Outcome {
        sim_s: r.duration_s,
        goodput_bps: r.mean_goodput_bps,
        check,
        fingerprint: link_fingerprint(&r.stats, net),
    }
}

/// Fingerprint of a cell run: its whole report.
pub fn cell_fingerprint(r: &CellReport) -> u64 {
    fnv64(format!("{r:?}").as_bytes())
}

fn cell_outcome(cfg: &CellConfig, r: &CellReport) -> Outcome {
    let ticks = u64::from(cfg.ticks);
    let check = match r
        .users
        .iter()
        .find(|u| u.grant_ticks + u.outage_ticks != ticks)
    {
        Some(u) => Err(format!(
            "user {}: {} grant + {} outage ticks != {ticks}",
            u.id, u.grant_ticks, u.outage_ticks
        )),
        None => Ok(()),
    };
    Outcome {
        sim_s: r.duration_s,
        goodput_bps: 0.0,
        check,
        fingerprint: cell_fingerprint(r),
    }
}

/// Cross-task checks over a whole run, given its outcomes in run order,
/// `per_pass` to a pass. Returns the indices of the tasks each failed
/// check covers, with the reason.
pub fn group_checks(
    w: Workload,
    per_pass: usize,
    outcomes: &[Outcome],
) -> Vec<(Vec<usize>, String)> {
    // Mean goodput of grid point `j` over the run's passes.
    let point = |j: usize| -> (Vec<usize>, f64) {
        let idx: Vec<usize> = (j..outcomes.len()).step_by(per_pass).collect();
        let mean = idx.iter().map(|&i| outcomes[i].goodput_bps).sum::<f64>() / idx.len() as f64;
        (idx, mean)
    };
    let mut failed = Vec::new();
    match w {
        Workload::LinkSampled => {
            // Past the cliff the link must be all but dead.
            let near = SAMPLED_DISTANCES_M.iter().position(|&d| d == 2.0);
            let far = SAMPLED_DISTANCES_M.len() - 1;
            if let Some(near) = near.filter(|_| outcomes.len() > far) {
                let (_, g_near) = point(near);
                let (idx, g_far) = point(far);
                if g_far >= 0.2 * g_near {
                    failed.push((
                        idx,
                        format!(
                            "goodput at {} m is {g_far:.0} bit/s, not < 0.2 x {g_near:.0} at 2 m",
                            SAMPLED_DISTANCES_M[far]
                        ),
                    ));
                }
            }
        }
        Workload::LinkAnalytic => {
            // Fig. 15: AMPPM beats fixed MPPM away from the middle.
            let levels = paper_levels();
            for l in [0.15, 0.85] {
                let li = levels
                    .iter()
                    .position(|&x| (x - l).abs() < 1e-9)
                    .expect("0.15 and 0.85 are paper levels");
                let (amppm, mppm) = (li, levels.len() + li);
                if outcomes.len() <= mppm {
                    continue;
                }
                let (mut idx, g_a) = point(amppm);
                let (idx_m, g_m) = point(mppm);
                if g_a <= g_m {
                    idx.extend(idx_m);
                    failed.push((
                        idx,
                        format!("AMPPM {g_a:.0} bit/s is not above MPPM {g_m:.0} at {l}"),
                    ));
                }
            }
        }
        Workload::NetMix | Workload::CellScale => {}
    }
    failed
}

/// 64-bit FNV-1a.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
