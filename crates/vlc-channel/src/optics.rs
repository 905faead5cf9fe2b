//! Free-space optical geometry: the generalized Lambertian LOS link.
//!
//! The standard model for LED line-of-sight channels (Kahn & Barry; used
//! by essentially every VLC paper including this one's references): an
//! emitter with Lambertian mode number `m` (set by its half-power
//! semi-angle), inverse-square spreading, a `cos ψ` projection onto the
//! receiver's active area, and a hard field-of-view cutoff:
//!
//! ```text
//! H(0) = (m+1)·A / (2π·d²) · cosᵐ(φ) · cos(ψ),   ψ ≤ FoV
//! m    = −ln 2 / ln(cos(Φ½))
//! ```
//!
//! Fig. 16 (throughput vs distance) is driven by the `1/d²` term; Fig. 17
//! (throughput vs incidence angle) by the `cosᵐ(φ)cos(ψ)` terms: the
//! paper's arc geometry moves the receiver off the beam axis, so the
//! off-axis angle applies as both emission angle `φ` and incidence
//! angle `ψ`.

/// First-reflection diffuse (non-line-of-sight) contribution, in the
/// integrating-sphere approximation of Kahn & Barry:
///
/// ```text
/// H_diff = A_rx · ρ / (A_room · (1 − ρ))
/// ```
///
/// Distance- and orientation-independent: the room's walls glow a little
/// for everyone. Small next to the LOS term on-axis, but it is what the
/// receiver still sees when the direct path is lost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiffuseReflection {
    /// Mean wall/ceiling reflectivity ρ (office: ~0.7 painted walls).
    pub reflectivity: f64,
    /// Total reflecting surface area of the room, m².
    pub room_area_m2: f64,
}

impl DiffuseReflection {
    /// A typical 5 × 4 × 3 m office (walls + ceiling + floor ≈ 94 m²).
    pub fn office() -> DiffuseReflection {
        DiffuseReflection {
            reflectivity: 0.7,
            room_area_m2: 94.0,
        }
    }

    /// The diffuse channel gain for a receiver of the given area.
    pub fn gain(&self, rx_area_m2: f64) -> f64 {
        assert!((0.0..1.0).contains(&self.reflectivity), "rho in [0,1)");
        assert!(self.room_area_m2 > 0.0, "room area must be positive");
        rx_area_m2 * self.reflectivity / (self.room_area_m2 * (1.0 - self.reflectivity))
    }
}

/// Geometry and optics of one transmitter→receiver path.
#[derive(Clone, Copy, Debug)]
pub struct LambertianLink {
    /// Emitter half-power semi-angle, degrees.
    pub semi_angle_deg: f64,
    /// Receiver active area, m² (photodiode chip, no concentrator).
    pub rx_area_m2: f64,
    /// Receiver field of view (half-angle), degrees.
    pub rx_fov_deg: f64,
    /// Line-of-sight distance, metres.
    pub distance_m: f64,
    /// Off-axis angle of the receiver relative to the beam axis, degrees
    /// (applied as both emission and incidence angle — the paper's arc
    /// geometry).
    pub off_axis_deg: f64,
    /// Optional first-reflection diffuse component; `None` is the pure
    /// LOS model the paper's aligned bench corresponds to.
    pub diffuse: Option<DiffuseReflection>,
}

impl LambertianLink {
    /// The paper's bench: a narrow-beam retail spot luminaire aimed at the
    /// SFH206K photodiode (7.5 mm² active area), boresight, at `distance_m`.
    ///
    /// The 15° semi-angle gives `m ≈ 20`, consistent with the sharp
    /// incidence-angle cutoffs of Fig. 17.
    pub fn paper_bench(distance_m: f64) -> LambertianLink {
        LambertianLink {
            semi_angle_deg: 15.0,
            rx_area_m2: 7.5e-6,
            rx_fov_deg: 60.0, // SFH206K acceptance half-angle
            distance_m,
            off_axis_deg: 0.0,
            diffuse: None,
        }
    }

    /// Lambertian mode number `m = −ln2 / ln cos Φ½`.
    pub fn mode_number(&self) -> f64 {
        let c = self.semi_angle_deg.to_radians().cos();
        assert!(c > 0.0 && c < 1.0, "semi-angle must be in (0°, 90°)");
        -core::f64::consts::LN_2 / c.ln()
    }

    /// The DC channel gain `H(0)` (dimensionless: received W per emitted W):
    /// the LOS Lambertian term (zero outside the FoV) plus the optional
    /// diffuse floor.
    pub fn path_gain(&self) -> f64 {
        assert!(self.distance_m > 0.0, "distance must be positive");
        let diffuse = self.diffuse.map(|d| d.gain(self.rx_area_m2)).unwrap_or(0.0);
        let theta = self.off_axis_deg.to_radians();
        if self.off_axis_deg.abs() > self.rx_fov_deg || theta.cos() <= 0.0 {
            return diffuse;
        }
        let m = self.mode_number();
        let radial = (m + 1.0) / (2.0 * core::f64::consts::PI * self.distance_m.powi(2));
        radial * theta.cos().powf(m) * theta.cos() * self.rx_area_m2 + diffuse
    }

    /// Received optical power for `tx_power_w` emitted.
    pub fn received_power_w(&self, tx_power_w: f64) -> f64 {
        tx_power_w * self.path_gain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_number_examples() {
        // 60° semi-angle => the classic m = 1 Lambertian source.
        let mut l = LambertianLink::paper_bench(1.0);
        l.semi_angle_deg = 60.0;
        assert!((l.mode_number() - 1.0).abs() < 1e-12);
        // Narrower beams concentrate: m grows.
        l.semi_angle_deg = 15.0;
        assert!(
            (l.mode_number() - 20.0).abs() < 1.0,
            "m={}",
            l.mode_number()
        );
    }

    #[test]
    fn inverse_square_law() {
        let g1 = LambertianLink::paper_bench(1.0).path_gain();
        let g2 = LambertianLink::paper_bench(2.0).path_gain();
        let g4 = LambertianLink::paper_bench(4.0).path_gain();
        assert!((g1 / g2 - 4.0).abs() < 1e-9);
        assert!((g1 / g4 - 16.0).abs() < 1e-9);
    }

    #[test]
    fn gain_decreases_off_axis() {
        let mut prev = f64::INFINITY;
        for deg in [0.0, 4.0, 8.0, 12.0, 16.0] {
            let mut l = LambertianLink::paper_bench(2.0);
            l.off_axis_deg = deg;
            let g = l.path_gain();
            assert!(g < prev, "deg={deg}");
            assert!(g > 0.0, "deg={deg}");
            prev = g;
        }
    }

    #[test]
    fn beam_halves_at_semi_angle() {
        // By definition of the half-power semi-angle, the cos^m emission
        // term is 1/2 at phi = semi-angle (the extra cos(psi) projection
        // makes the full gain slightly less than half).
        let mut l = LambertianLink::paper_bench(2.0);
        l.off_axis_deg = l.semi_angle_deg;
        let g_axis = LambertianLink::paper_bench(2.0).path_gain();
        let ratio = l.path_gain() / g_axis;
        let cos_proj = l.semi_angle_deg.to_radians().cos();
        assert!((ratio - 0.5 * cos_proj).abs() < 1e-6, "ratio={ratio}");
    }

    #[test]
    fn fov_cutoff_is_hard() {
        let mut l = LambertianLink::paper_bench(2.0);
        l.off_axis_deg = l.rx_fov_deg + 0.1;
        assert_eq!(l.path_gain(), 0.0);
        l.off_axis_deg = -(l.rx_fov_deg + 5.0);
        assert_eq!(l.path_gain(), 0.0);
    }

    #[test]
    fn diffuse_floor_survives_fov_cutoff() {
        let mut l = LambertianLink::paper_bench(2.0);
        l.diffuse = Some(DiffuseReflection::office());
        let boresight = l.path_gain();
        l.off_axis_deg = l.rx_fov_deg + 10.0; // LOS gone
        let floor = l.path_gain();
        assert!(floor > 0.0, "diffuse floor missing");
        assert_eq!(floor, DiffuseReflection::office().gain(l.rx_area_m2));
        // The floor is small next to the on-axis LOS term at bench range.
        assert!(floor < boresight * 0.05, "floor={floor} los={boresight}");
    }

    #[test]
    fn diffuse_gain_magnitude_is_sane() {
        // 7.5 mm2 diode in a 94 m2 office at rho = 0.7:
        // H_diff = 7.5e-6 * 0.7 / (94 * 0.3) ~ 1.9e-7.
        let g = DiffuseReflection::office().gain(7.5e-6);
        assert!((g - 1.86e-7).abs() < 2e-9, "g={g}");
    }

    #[test]
    fn diffuse_is_distance_independent() {
        let mut near = LambertianLink::paper_bench(1.0);
        let mut far = LambertianLink::paper_bench(4.0);
        near.diffuse = Some(DiffuseReflection::office());
        far.diffuse = Some(DiffuseReflection::office());
        near.off_axis_deg = 70.0; // both outside FoV: diffuse only
        far.off_axis_deg = 70.0;
        assert_eq!(near.path_gain(), far.path_gain());
    }

    #[test]
    fn received_power_is_plausible_at_paper_distances() {
        // At 3 m, a 1.4 W optical source into 7.5 mm² should land in the
        // microwatt regime — the operating point real VLC receivers see.
        let p = LambertianLink::paper_bench(3.0).received_power_w(1.4);
        assert!(p > 1e-7 && p < 1e-4, "p={p}");
    }

    #[test]
    fn negative_off_axis_is_symmetric() {
        let mut a = LambertianLink::paper_bench(2.0);
        let mut b = LambertianLink::paper_bench(2.0);
        a.off_axis_deg = 9.0;
        b.off_axis_deg = -9.0;
        assert_eq!(a.path_gain(), b.path_gain());
    }
}
