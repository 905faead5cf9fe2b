//! The codec's hot paths stay on the binomial table's `u64` word
//! triangle: under the default calibration, planning and one short run of
//! every scenario kind build no `BigUint` row.
//!
//! The interned table is shared by the whole process, so this check has
//! a test binary of its own.

use desim::SimDuration;
use smartvlc_core::{AmppmPlanner, SystemConfig};
use smartvlc_link::{ChannelFidelity, LinkConfig, LinkSimulation, SchemeKind};
use smartvlc_net::{run_net_over_link, NetConfig};
use smartvlc_sim::chaos::{CHAOS_AMBIENT_LUX, CHAOS_DISTANCE_M};
use smartvlc_sim::{net_scenarios, run_cell, CellScenarioBuilder, NET_FEC_NOMINAL};
use vlc_channel::ambient::ConstantAmbient;

/// The §6.2 static bench's bright-office ambient, lux.
const STATIC_LUX: f64 = 8080.0;

fn run_link(cfg: LinkConfig) {
    let mut sim = LinkSimulation::new(cfg).expect("valid link scenario");
    sim.run(&mut ConstantAmbient { lux: STATIC_LUX });
}

/// The static scenario at `distance_m`, with the set-point that lands on
/// dimming level `level`.
fn static_cfg(distance_m: f64, scheme: SchemeKind, level: f64) -> LinkConfig {
    let mut cfg = LinkConfig::paper_static(distance_m, scheme, 1);
    cfg.channel.ambient_lux = STATIC_LUX;
    cfg.illum_target = STATIC_LUX / cfg.full_scale_lux + level;
    cfg.duration = SimDuration::millis(200);
    cfg
}

#[test]
fn default_paths_build_no_biguint_row() {
    let planner = AmppmPlanner::new(SystemConfig::default()).expect("valid system config");
    let table = planner.table_arc();
    assert_eq!(table.rows_built(), 0, "planner set-up");

    let schemes = [
        SchemeKind::Amppm,
        SchemeKind::Mppm(20),
        SchemeKind::OokCt,
        SchemeKind::Vppm(10),
        SchemeKind::Oppm(10),
        SchemeKind::Darklight,
    ];
    for scheme in schemes {
        for level in [0.15, 0.5, 0.85] {
            run_link(static_cfg(3.0, scheme, level));
        }
        assert_eq!(table.rows_built(), 0, "{scheme:?} link");
    }

    // Sampled fidelity on both sides of the Fig. 16 cliff: past it the
    // receiver hunts preambles in noise and parses garbage headers.
    for distance_m in [2.0, 4.25] {
        let mut cfg = static_cfg(distance_m, SchemeKind::Amppm, 0.5);
        cfg.fidelity = ChannelFidelity::Sampled;
        run_link(cfg);
    }
    assert_eq!(table.rows_built(), 0, "sampled link");

    let sc = &net_scenarios()[0];
    let mut cfg = LinkConfig::paper_static(CHAOS_DISTANCE_M, SchemeKind::Amppm, 1);
    cfg.duration = SimDuration::secs(2);
    cfg.faults = sc.plan();
    cfg.fec = NET_FEC_NOMINAL;
    run_net_over_link(
        cfg,
        NetConfig::default(),
        &sc.workloads(),
        CHAOS_AMBIENT_LUX,
    )
    .expect("valid net scenario");
    assert_eq!(table.rows_built(), 0, "net over the link");

    let cell = CellScenarioBuilder::new()
        .grid(4, 4)
        .users(24)
        .horizon(20, 0.1)
        .build()
        .expect("valid cell scenario");
    run_cell(&cell.config(), 1);
    assert_eq!(table.rows_built(), 0, "cell run");
}
