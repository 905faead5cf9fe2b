//! Static-scenario experiments (§6.2 of the paper).
//!
//! The static scenario fixes the window blind, so ambient light (and
//! therefore the LED's dimming level) is constant within a run. Three
//! sweeps come out of it:
//!
//! * scheme × dimming level → Fig. 15,
//! * distance at three dimming levels → Fig. 16,
//! * incidence angle at three distances → Fig. 17.
//!
//! Each point is a full end-to-end [`LinkSimulation`] run. Points are
//! independent, so every sweep fans out on [`crate::runner::par_map`] —
//! results are bit-identical at any `SMARTVLC_THREADS`, because each
//! point's simulation derives all randomness from its own `(cfg, seed)`.

use crate::runner::par_map;
use desim::SimDuration;
use smartvlc_link::{LinkConfig, LinkSimulation, SchemeKind};
use vlc_channel::ambient::ConstantAmbient;

/// One measured point of a static sweep.
#[derive(Clone, Copy, Debug)]
pub struct StaticPoint {
    /// Target LED dimming level.
    pub dimming: f64,
    /// Link distance, metres.
    pub distance_m: f64,
    /// Receiver off-axis angle, degrees.
    pub incidence_deg: f64,
    /// Measured goodput, bit/s.
    pub goodput_bps: f64,
    /// Frame error rate.
    pub fer: f64,
}

/// The paper's static scenario fixes the blind (§6.2): ambient is the
/// constant bright-office L2 level, and the different dimming levels come
/// from varying the illumination set-point, not the ambient. (Coupling
/// ambient to the level would also vary the channel noise between the
/// compared schemes.)
const STATIC_AMBIENT_LUX: f64 = 8080.0;

fn run_point(mut cfg: LinkConfig, level: f64) -> StaticPoint {
    let lux = STATIC_AMBIENT_LUX;
    cfg.channel.ambient_lux = lux;
    // Set-point = ambient + desired LED level, so Eq. 5 lands on `level`.
    cfg.illum_target = lux / cfg.full_scale_lux + level;
    let distance_m = cfg.channel.geometry.distance_m;
    let incidence_deg = cfg.channel.geometry.off_axis_deg;
    let mut sim = LinkSimulation::new(cfg).expect("valid scenario");
    let report = sim.run(&mut ConstantAmbient { lux });
    StaticPoint {
        dimming: level,
        distance_m,
        incidence_deg,
        goodput_bps: report.mean_goodput_bps,
        fer: report.stats.frame_error_rate(),
    }
}

/// The paper's 17 evaluation dimming levels: 0.10, 0.15, ..., 0.90.
pub fn paper_levels() -> Vec<f64> {
    (2..=18).map(|i| i as f64 / 20.0).collect()
}

/// Fans a `rows × cols` grid out as one flat batch, so a multi-series
/// figure keeps every worker busy across series boundaries, and regroups
/// the cells into one sweep per row. `point` gives a cell's link config
/// and dimming level.
fn run_grid<R: Sync, C: Sync>(
    rows: &[R],
    cols: &[C],
    duration: SimDuration,
    point: impl Fn(&R, &C) -> (LinkConfig, f64) + Sync,
) -> Vec<Vec<StaticPoint>> {
    let cells: Vec<(&R, &C)> = rows
        .iter()
        .flat_map(|r| cols.iter().map(move |c| (r, c)))
        .collect();
    let flat = par_map(&cells, |_, &(r, c)| {
        let (mut cfg, level) = point(r, c);
        cfg.duration = duration;
        run_point(cfg, level)
    });
    flat.chunks(cols.len().max(1)).map(<[_]>::to_vec).collect()
}

/// Fig. 15: goodput of each scheme across dimming levels at 3 m, one
/// sweep per scheme in scheme order. `levels` is typically the paper's
/// 17 levels `0.10, 0.15, ..., 0.90` ([`paper_levels`]).
pub fn run_scheme_matrix(
    schemes: &[SchemeKind],
    levels: &[f64],
    duration: SimDuration,
    seed: u64,
) -> Vec<Vec<StaticPoint>> {
    run_grid(schemes, levels, duration, |&scheme, &l| {
        (LinkConfig::paper_static(3.0, scheme, seed), l)
    })
}

/// Fig. 16: goodput vs distance, one distance sweep per dimming level.
pub fn run_distance_matrix(
    scheme: SchemeKind,
    levels: &[f64],
    distances_m: &[f64],
    duration: SimDuration,
    seed: u64,
) -> Vec<Vec<StaticPoint>> {
    run_grid(levels, distances_m, duration, |&l, &d| {
        (LinkConfig::paper_static(d, scheme, seed), l)
    })
}

/// Fig. 17: goodput vs incidence angle at a fixed dimming level, one
/// angle sweep per distance.
pub fn run_incidence_matrix(
    scheme: SchemeKind,
    level: f64,
    distances_m: &[f64],
    angles_deg: &[f64],
    duration: SimDuration,
    seed: u64,
) -> Vec<Vec<StaticPoint>> {
    run_grid(distances_m, angles_deg, duration, |&d, &a| {
        let mut cfg = LinkConfig::paper_static(d, scheme, seed);
        cfg.channel.geometry.off_axis_deg = a;
        (cfg, level)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short() -> SimDuration {
        SimDuration::millis(400)
    }

    #[test]
    fn paper_levels_are_17() {
        let l = paper_levels();
        assert_eq!(l.len(), 17);
        assert_eq!(l[0], 0.10);
        assert_eq!(l[16], 0.90);
    }

    #[test]
    fn fig15_shape_holds_on_spot_checks() {
        // AMPPM >= MPPM at an extreme level; OOK-CT wins slightly at 0.5.
        let schemes = [SchemeKind::Amppm, SchemeKind::Mppm(20), SchemeKind::OokCt];
        let [amppm, mppm, ook] = run_scheme_matrix(&schemes, &[0.15, 0.5], short(), 1)
            .try_into()
            .expect("one sweep per scheme");
        assert!(
            amppm[0].goodput_bps > mppm[0].goodput_bps,
            "amppm={} mppm={}",
            amppm[0].goodput_bps,
            mppm[0].goodput_bps
        );
        assert!(
            amppm[0].goodput_bps > 1.5 * ook[0].goodput_bps,
            "amppm={} ook={}",
            amppm[0].goodput_bps,
            ook[0].goodput_bps
        );
        assert!(
            ook[1].goodput_bps > amppm[1].goodput_bps,
            "ook={} amppm={} at l=0.5",
            ook[1].goodput_bps,
            amppm[1].goodput_bps
        );
    }

    #[test]
    fn fig16_cliff_is_present() {
        let pts = &run_distance_matrix(SchemeKind::Amppm, &[0.5], &[2.0, 3.0, 4.5], short(), 2)[0];
        // Flat region then collapse.
        assert!(pts[1].goodput_bps > 0.85 * pts[0].goodput_bps, "{pts:?}");
        assert!(pts[2].goodput_bps < 0.2 * pts[0].goodput_bps, "{pts:?}");
    }

    #[test]
    fn fig17_longer_distance_cuts_off_earlier() {
        let [near, far] = run_incidence_matrix(
            SchemeKind::Amppm,
            0.5,
            &[1.3, 3.3],
            &[0.0, 16.0],
            short(),
            3,
        )
        .try_into()
        .expect("one sweep per distance");
        // At 1.3 m the link holds through 16 degrees...
        assert!(near[1].goodput_bps > 0.8 * near[0].goodput_bps, "{near:?}");
        // ...at 3.3 m it is essentially gone there.
        assert!(far[1].goodput_bps < 0.3 * far[0].goodput_bps, "{far:?}");
    }

    #[test]
    fn run_point_realizes_the_requested_level() {
        // The set-point arithmetic must land the LED on the asked level.
        let pts = &run_scheme_matrix(&[SchemeKind::Amppm], &[0.3], short(), 9)[0];
        assert_eq!(pts[0].dimming, 0.3);
        assert!(pts[0].goodput_bps > 0.0);
    }
}
