//! Room and ceiling-grid geometry for the multi-luminaire workload.
//!
//! The single-link experiments aim a narrow retail spot at a bench-mounted
//! photodiode; the smart-lighting deployment the paper targets is the
//! opposite: a ceiling grid of *wide-beam* luminaires covering a room of
//! moving users. This module maps that 3-D layout onto the existing
//! [`LambertianLink`] model: a luminaire points straight down, a receiver
//! points straight up, so the emission angle at the luminaire equals the
//! incidence angle at the photodiode — exactly the single `off_axis_deg`
//! the Lambertian model applies to both cosine terms.
//!
//! ```text
//! ceiling   ●lum───────r───────┐
//!                      \       │ drop
//!                       \ d    │
//! rx plane ──────────────▣user─┘      d = √(r² + drop²),  cos θ = drop/d
//! ```
//!
//! With `θ` known only through its cosine, the Lambertian gain collapses
//! to a closed form, `H = (m+1)·A/2π · cos θ^(m+1) / d²`, exactly 0 once
//! `cos θ < cos FoV`; the crate builds its constants once per run.
//! When `m + 1` is an integer order up to float noise — the office
//! panel's 45° semi-angle gives `3.0000000000000004` — the power is a
//! square-and-multiply chain instead of a `powf` (see `PathGain`).
//! [`LambertianLink::path_gain`] is the reference. It round-trips `θ`
//! through degrees, so the two agree to within 1e-12 relative (semi-angles
//! 10–80°, and the integer orders 1–3 of `m`), not bit for bit, and make
//! the same FoV decision except within 1e-9 relative of the FoV radius.
//!
//! Co-channel interference rides the same path: every *other* luminaire's
//! light reaches the receiver through its own [`LambertianLink`] and the
//! photodiode's responsivity, and shows up as extra photocurrent at the
//! slot detector (see [`interference_sigma_a`]).

use vlc_channel::link::ChannelConfig;
use vlc_channel::optics::LambertianLink;

/// A point on the receiver plane (or the ceiling), metres.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Position {
    /// Distance along the room's width axis, m.
    pub x_m: f64,
    /// Distance along the room's depth axis, m.
    pub y_m: f64,
}

impl Position {
    /// Horizontal distance to another position, m.
    pub fn horizontal_distance(&self, other: &Position) -> f64 {
        (self.x_m - other.x_m).hypot(self.y_m - other.y_m)
    }
}

/// The room: a rectangular floor plan with luminaires on the ceiling and
/// receivers carried at desk/hand height.
#[derive(Clone, Copy, Debug)]
pub struct RoomGeometry {
    /// Room extent along x, m.
    pub width_m: f64,
    /// Room extent along y, m.
    pub depth_m: f64,
    /// Vertical drop from the luminaire plane to the receiver plane, m
    /// (ceiling height minus receiver height).
    pub drop_m: f64,
}

impl RoomGeometry {
    /// A room sized for an `nx × ny` luminaire grid at `pitch_m` spacing
    /// (one grid cell per luminaire), with the standard office drop:
    /// 3 m ceiling, receivers carried at 0.8 m.
    pub fn for_grid(nx: usize, ny: usize, pitch_m: f64) -> RoomGeometry {
        RoomGeometry {
            width_m: nx as f64 * pitch_m,
            depth_m: ny as f64 * pitch_m,
            drop_m: 2.2,
        }
    }

    /// Clamp a position into the room.
    pub fn clamp(&self, p: Position) -> Position {
        Position {
            x_m: p.x_m.clamp(0.0, self.width_m),
            y_m: p.y_m.clamp(0.0, self.depth_m),
        }
    }
}

/// One ceiling luminaire: a wide-beam panel running its own SmartVLC
/// transmitter stack.
#[derive(Clone, Copy, Debug)]
pub struct Luminaire {
    /// Dense cell index (row-major over the grid).
    pub id: usize,
    /// Ceiling position.
    pub pos: Position,
}

/// Lay out an `nx × ny` grid of luminaires centred in their grid cells.
pub fn ceiling_grid(room: &RoomGeometry, nx: usize, ny: usize) -> Vec<Luminaire> {
    assert!(nx >= 1 && ny >= 1, "grid must have at least one luminaire");
    let dx = room.width_m / nx as f64;
    let dy = room.depth_m / ny as f64;
    let mut out = Vec::with_capacity(nx * ny);
    for j in 0..ny {
        for i in 0..nx {
            out.push(Luminaire {
                id: j * nx + i,
                pos: Position {
                    x_m: (i as f64 + 0.5) * dx,
                    y_m: (j as f64 + 0.5) * dy,
                },
            });
        }
    }
    out
}

/// Optical parameters of one cell downlink (as opposed to the paper's
/// narrow bench spot).
#[derive(Clone, Copy, Debug)]
pub struct CellOptics {
    /// Luminaire half-power semi-angle, degrees. Ceiling panels are wide
    /// (≈ 45°, Lambertian mode m ≈ 2), not the bench's 15° spot.
    pub semi_angle_deg: f64,
    /// Receiver field of view (half-angle), degrees. A handheld receiver
    /// looks straight up with a generous acceptance cone.
    pub rx_fov_deg: f64,
    /// Luminaire full-drive optical power, W. A ceiling panel is an array
    /// of the paper's LEDs — an order of magnitude above the 1.4 W bench
    /// emitter.
    pub tx_optical_w: f64,
}

impl CellOptics {
    /// The default ceiling panel: 45° semi-angle, 70° receiver FoV, 11 W
    /// optical (≈ a 30 W-electrical office panel). Calibrated so a user
    /// directly under a luminaire at the standard 2.2 m drop sees a clean
    /// link and a user at a 2.5 m-pitch cell corner sits near the error
    /// cliff — the regime where handover decisions matter.
    pub fn office_panel() -> CellOptics {
        CellOptics {
            semi_angle_deg: 45.0,
            rx_fov_deg: 70.0,
            tx_optical_w: 11.0,
        }
    }
}

/// The [`LambertianLink`] for one luminaire→user path.
pub fn link_geometry(
    optics: &CellOptics,
    room: &RoomGeometry,
    lum: &Position,
    user: &Position,
) -> LambertianLink {
    let r = lum.horizontal_distance(user);
    let d = r.hypot(room.drop_m);
    // Down-pointing emitter, up-pointing receiver: one off-axis angle
    // serves as both emission and incidence angle.
    let theta_deg = r.atan2(room.drop_m).to_degrees();
    let mut link = LambertianLink::paper_bench(d);
    link.semi_angle_deg = optics.semi_angle_deg;
    link.rx_fov_deg = optics.rx_fov_deg;
    link.off_axis_deg = theta_deg;
    link
}

/// The [`ChannelConfig`] for one luminaire→user path: the paper's receiver
/// chain behind the cell geometry, under `ambient_lux` at the user.
pub fn cell_channel(
    optics: &CellOptics,
    room: &RoomGeometry,
    lum: &Position,
    user: &Position,
    ambient_lux: f64,
) -> ChannelConfig {
    let mut cfg = ChannelConfig::paper_bench(1.0);
    cfg.geometry = link_geometry(optics, room, lum, user);
    cfg.led.on_power_w = optics.tx_optical_w;
    cfg.ambient_lux = ambient_lux.max(0.0);
    cfg
}

/// Received signal power (W) at `user` from `lum` driving its LED at duty
/// `level` — the RSS metric handover decisions rank cells by.
pub fn received_power_w(
    optics: &CellOptics,
    room: &RoomGeometry,
    lum: &Position,
    user: &Position,
    level: f64,
) -> f64 {
    rss_from_gain(optics, PathGain::new(optics, room).at(lum, user), level)
}

/// The Lambertian path gain of every luminaire→user path in one room, in
/// closed form: the one geometric factor inside both [`received_power_w`]
/// and [`interference_sigma_a`]. Everything but the distance is constant
/// per `(optics, room)`, so a run builds this once.
///
/// The exponent `e = m + 1` comes from `m = −ln2 / ln cos Φ½` and carries
/// float noise: 45° gives `3.0000000000000004`, not 3. When
/// `|e − n| ≤ 4ε·e` for an integer `1 ≤ n ≤ 16`, `new` snaps `e` to the
/// order `n` and [`PathGain::row`] raises `cos θ` to it by
/// square-and-multiply; any other exponent keeps `powf`. Every lit path
/// has `cos θ ≥ cos FoV`, so the snap moves a gain by at most
/// `|e − n|·|ln cos θ| ≤ 4ε·e·|ln cos FoV|` relative, on top of the
/// chain's own rounding (at most `2·log₂ n` multiplications).
#[derive(Clone, Copy, Debug)]
pub(crate) struct PathGain {
    /// Exponent of `cos θ`: `m + 1` (emission `cosᵐ` times the receiver's
    /// `cos` projection — one angle, see the module diagram).
    exponent: f64,
    /// `exponent` snapped to its integer order, when it is one.
    order: Option<u32>,
    /// `(m+1)·A/2π`, m².
    k: f64,
    drop_m: f64,
    /// `drop_m²`, the last term of `d²`.
    drop_sq: f64,
    cos_fov: f64,
    /// See [`PathGain::cull_d2`].
    cull_d2: f64,
}

impl PathGain {
    pub(crate) fn new(optics: &CellOptics, room: &RoomGeometry) -> PathGain {
        let origin = Position { x_m: 0.0, y_m: 0.0 };
        let link = link_geometry(optics, room, &origin, &origin);
        let m = link.mode_number();
        let cos_fov = optics.rx_fov_deg.to_radians().cos();
        let cull_d2 = if cos_fov > 0.0 {
            let edge = room.drop_m / cos_fov;
            edge * edge * (1.0 + 1e-9)
        } else {
            f64::INFINITY
        };
        PathGain {
            exponent: m + 1.0,
            order: integer_order(m + 1.0),
            k: (m + 1.0) * link.rx_area_m2 / (2.0 * core::f64::consts::PI),
            drop_m: room.drop_m,
            drop_sq: room.drop_m * room.drop_m,
            cos_fov,
            cull_d2,
        }
    }

    /// The gain of the path from `lum` to `user`: 0.0 outside the
    /// receiver's FoV. The one-cell case of [`PathGain::row`].
    pub(crate) fn at(&self, lum: &Position, user: &Position) -> f64 {
        let (dx, dy) = (lum.x_m - user.x_m, lum.y_m - user.y_m);
        let mut gain = [0.0];
        self.row(&[dx * dx], dy * dy, &mut gain);
        gain[0]
    }

    /// The gain of the path from `lum` to `user` written out for one
    /// path, the FoV test alone deciding 0.0: no cull, and the chain's
    /// bit loop run at run time. [`PathGain::at`] must give the same
    /// bits, so a cull that cuts a lit path shows against this.
    #[cfg(test)]
    pub(crate) fn reference_at(&self, lum: &Position, user: &Position) -> f64 {
        let (dx, dy) = (lum.x_m - user.x_m, lum.y_m - user.y_m);
        self.reference_d2(dx * dx + dy * dy + self.drop_sq)
    }

    /// [`PathGain::reference_at`] of a path whose squared length is `d2`.
    #[cfg(test)]
    fn reference_d2(&self, d2: f64) -> f64 {
        let cos = self.drop_m / d2.sqrt();
        if cos < self.cos_fov {
            return 0.0;
        }
        let power = match self.order {
            Some(n) => (0..n.ilog2()).rev().fold(cos, |acc, bit| {
                let sq = acc * acc;
                if n >> bit & 1 == 1 {
                    sq * cos
                } else {
                    sq
                }
            }),
            None => cos.powf(self.exponent),
        };
        self.k / d2 * power
    }

    /// The vertical drop squared, the last term of `d²`.
    #[cfg(test)]
    pub(crate) fn drop_sq(&self) -> f64 {
        self.drop_sq
    }

    /// A bound on `d²` beyond which a path's gain is exactly 0.0: the FoV
    /// edge's `d²`, `(drop / cos FoV)²`, padded by 1e-9 relative, which
    /// dwarfs the few ulps of rounding in `cos θ = drop/√d²`. Any `d²`
    /// above it has `cos θ < cos FoV` by ~5e-10 relative, so the cut
    /// zeroes only paths the FoV test zeroes too. Infinite for a 90° FoV,
    /// where no path is cut off.
    #[cfg(test)]
    pub(crate) fn cull_d2(&self) -> f64 {
        self.cull_d2
    }

    /// The gains of one row of paths that share `dy2`, the squared offset
    /// along y: path `c` has `d² = dx2[c] + dy2 + drop²`, summed in that
    /// order, and gain `k/d² · cos θ^e` with `cos θ = drop/√d²`, or 0.0
    /// where `d² > cull_d2` or `cos θ < cos FoV`. `out` receives the
    /// gains.
    ///
    /// One branch-free loop over the row, its power chain unrolled for
    /// the order at compile time: the compiler pairs the square roots and
    /// divisions of neighbouring paths, and every path gets the bits a
    /// path computed alone does.
    pub(crate) fn row(&self, dx2: &[f64], dy2: f64, out: &mut [f64]) {
        /// The row pass of each integer order `1..=16`.
        const BY_ORDER: [RowPass; 16] = [
            PathGain::row_of::<1>,
            PathGain::row_of::<2>,
            PathGain::row_of::<3>,
            PathGain::row_of::<4>,
            PathGain::row_of::<5>,
            PathGain::row_of::<6>,
            PathGain::row_of::<7>,
            PathGain::row_of::<8>,
            PathGain::row_of::<9>,
            PathGain::row_of::<10>,
            PathGain::row_of::<11>,
            PathGain::row_of::<12>,
            PathGain::row_of::<13>,
            PathGain::row_of::<14>,
            PathGain::row_of::<15>,
            PathGain::row_of::<16>,
        ];
        match self.order {
            Some(n) => BY_ORDER[n as usize - 1](self, dx2, dy2, out),
            None => self.row_with(dx2, dy2, out, |cos| cos.powf(self.exponent)),
        }
    }

    /// [`PathGain::row`] at integer order `N`.
    fn row_of<const N: u32>(&self, dx2: &[f64], dy2: f64, out: &mut [f64]) {
        self.row_with(dx2, dy2, out, pow_chain::<N>);
    }

    /// [`PathGain::row`] with `cos θ^e` as `power`.
    #[inline(always)]
    fn row_with(&self, dx2: &[f64], dy2: f64, out: &mut [f64], power: impl Fn(f64) -> f64) {
        let Self {
            k,
            drop_m,
            drop_sq,
            cos_fov,
            cull_d2,
            ..
        } = *self;
        for (g, &dx2) in out.iter_mut().zip(dx2) {
            let d2 = dx2 + dy2 + drop_sq;
            let cos = drop_m / d2.sqrt();
            let lit = k / d2 * power(cos);
            *g = if d2 > cull_d2 || cos < cos_fov {
                0.0
            } else {
                lit
            };
        }
    }
}

/// [`PathGain::row`] at one integer order.
type RowPass = fn(&PathGain, &[f64], f64, &mut [f64]);

/// The integer order `n` that `exponent` is up to float noise —
/// `|exponent − n| ≤ 4ε·exponent` with `1 ≤ n ≤ 16` — if there is one.
fn integer_order(exponent: f64) -> Option<u32> {
    let n = exponent.round();
    ((1.0..=16.0).contains(&n) && (exponent - n).abs() <= 4.0 * f64::EPSILON * exponent)
        .then_some(n as u32)
}

/// `x^N` for `N ≥ 1` by left-to-right square-and-multiply over the bits of
/// `N`, unrolled at compile time. Written out rather than `powi`, whose
/// rounding sequence is unspecified, so debug and release builds give the
/// same bits.
#[inline(always)]
fn pow_chain<const N: u32>(x: f64) -> f64 {
    let mut acc = x;
    for bit in (0..N.ilog2()).rev() {
        acc *= acc;
        if N >> bit & 1 == 1 {
            acc *= x;
        }
    }
    acc
}

/// Semi-angles whose Lambertian mode `m` is an integer: 60° (m = 1),
/// 45° (m = 2) and `acos(2^(-1/3))` (m = 3).
#[cfg(test)]
pub(crate) fn integer_mode_semi_angles() -> [f64; 3] {
    [60.0, 45.0, 2f64.powf(-1.0 / 3.0).acos().to_degrees()]
}

/// [`received_power_w`] from the path's [`PathGain`].
pub(crate) fn rss_from_gain(optics: &CellOptics, gain: f64, level: f64) -> f64 {
    (optics.tx_optical_w * level.max(0.0)) * gain
}

/// One interferer's variance term (A²) in [`interference_sigma_a`], from
/// its path's [`PathGain`] and its duty `level`.
pub(crate) fn interference_var_from_gain(optics: &CellOptics, gain: f64, level: f64) -> f64 {
    let responsivity = vlc_channel::photodiode::Photodiode::sfh206k().responsivity_a_per_w;
    let l = level.clamp(0.0, 1.0);
    let i_peak = responsivity * (optics.tx_optical_w * gain);
    i_peak * i_peak * l * (1.0 - l)
}

/// Co-channel interference noise at the slot detector, as an equivalent
/// photocurrent σ (A).
///
/// Each interfering luminaire `i` is an independent on-off source seen
/// through its own Lambertian path: mean received power `P_i · l_i`,
/// per-slot variance `(R·P_i)²·l_i(1−l_i)` for duty (dimming level)
/// `l_i`. The interferers' slot clocks are unsynchronized, so their
/// contribution is well modelled as additional Gaussian noise on the
/// detector input — the standard treatment for unsynchronized co-channel
/// VLC cells.
pub fn interference_sigma_a(
    optics: &CellOptics,
    room: &RoomGeometry,
    interferers: &[(Position, f64)],
    user: &Position,
) -> f64 {
    let gain = PathGain::new(optics, room);
    let var: f64 = interferers
        .iter()
        .map(|(pos, level)| interference_var_from_gain(optics, gain.at(pos, user), *level))
        .sum();
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn room() -> RoomGeometry {
        RoomGeometry::for_grid(3, 3, 2.5)
    }

    #[test]
    fn grid_is_centred_and_row_major() {
        let r = room();
        let grid = ceiling_grid(&r, 3, 3);
        assert_eq!(grid.len(), 9);
        assert_eq!(
            grid[0].pos,
            Position {
                x_m: 1.25,
                y_m: 1.25
            }
        );
        assert_eq!(
            grid[1].pos,
            Position {
                x_m: 3.75,
                y_m: 1.25
            }
        );
        assert_eq!(
            grid[3].pos,
            Position {
                x_m: 1.25,
                y_m: 3.75
            }
        );
        assert_eq!(
            grid[8].pos,
            Position {
                x_m: 6.25,
                y_m: 6.25
            }
        );
        for (i, l) in grid.iter().enumerate() {
            assert_eq!(l.id, i);
        }
    }

    #[test]
    fn boresight_link_is_clean_cell_corner_degraded() {
        let r = room();
        let optics = CellOptics::office_panel();
        let lum = Position {
            x_m: 1.25,
            y_m: 1.25,
        };
        let under = cell_channel(&optics, &r, &lum, &lum, 8080.0);
        let corner = cell_channel(&optics, &r, &lum, &Position { x_m: 2.5, y_m: 2.5 }, 8080.0);
        let p_under = under.analytic_error_probs().p_off_error;
        let p_corner = corner.analytic_error_probs().p_off_error;
        assert!(p_under < 1e-5, "boresight p1={p_under:.2e}");
        assert!(p_corner > p_under * 10.0, "corner p1={p_corner:.2e}");
        assert!(
            p_corner < 0.5,
            "corner must not be pure noise: {p_corner:.2e}"
        );
    }

    #[test]
    fn rss_ranks_the_nearest_luminaire_first() {
        let r = room();
        let optics = CellOptics::office_panel();
        let grid = ceiling_grid(&r, 3, 3);
        let user = Position { x_m: 1.0, y_m: 1.4 };
        let mut rss: Vec<(usize, f64)> = grid
            .iter()
            .map(|l| (l.id, received_power_w(&optics, &r, &l.pos, &user, 1.0)))
            .collect();
        rss.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        assert_eq!(rss[0].0, 0, "nearest cell must win: {rss:?}");
        assert!(rss[0].1 > rss[4].1 * 2.0);
    }

    #[test]
    fn rss_scales_with_dimming_level() {
        let r = room();
        let optics = CellOptics::office_panel();
        let lum = Position {
            x_m: 1.25,
            y_m: 1.25,
        };
        let full = received_power_w(&optics, &r, &lum, &lum, 1.0);
        let dim = received_power_w(&optics, &r, &lum, &lum, 0.25);
        assert!(full > 0.0);
        assert!((dim / full - 0.25).abs() < 0.02, "dim/full={}", dim / full);
    }

    #[test]
    fn interference_peaks_at_half_duty_and_vanishes_at_rails() {
        let r = room();
        let optics = CellOptics::office_panel();
        let neighbour = Position {
            x_m: 3.75,
            y_m: 1.25,
        };
        let user = Position {
            x_m: 1.25,
            y_m: 1.25,
        };
        let at = |l: f64| interference_sigma_a(&optics, &r, &[(neighbour, l)], &user);
        assert!(
            at(0.5) > at(0.1),
            "σ(0.5)={:.2e} σ(0.1)={:.2e}",
            at(0.5),
            at(0.1)
        );
        assert_eq!(at(0.0), 0.0);
        assert_eq!(at(1.0), 0.0);
    }

    #[test]
    fn interference_is_material_near_cell_edges() {
        // At the boundary between two cells, the neighbour's modulation
        // must be a visible fraction of the serving signal swing —
        // otherwise the multi-cell model degenerates to N independent
        // links.
        let r = room();
        let optics = CellOptics::office_panel();
        let serving = Position {
            x_m: 1.25,
            y_m: 1.25,
        };
        let neighbour = Position {
            x_m: 3.75,
            y_m: 1.25,
        };
        let edge = Position {
            x_m: 2.5,
            y_m: 1.25,
        };
        let sig = received_power_w(&optics, &r, &serving, &edge, 1.0);
        let sigma = interference_sigma_a(&optics, &r, &[(neighbour, 0.5)], &edge);
        let r_a_per_w = 0.62;
        let ratio = sigma / (r_a_per_w * sig);
        assert!(ratio > 0.05, "interference negligible at the edge: {ratio}");
        assert!(ratio < 1.0, "interference cannot dwarf the signal: {ratio}");
    }

    #[test]
    fn clamp_keeps_positions_in_the_room() {
        let r = room();
        let p = r.clamp(Position {
            x_m: -1.0,
            y_m: 99.0,
        });
        assert_eq!(
            p,
            Position {
                x_m: 0.0,
                y_m: r.depth_m
            }
        );
    }

    /// Closed form vs [`LambertianLink::path_gain`] for a user `reach`
    /// FoV radii from a luminaire, bearing `phi`: within 1e-12 relative
    /// where both are nonzero, and both 0.0 together except within 1e-9
    /// relative of the FoV radius (where the reference's degree round
    /// trip may flip the cutoff).
    fn check_gain(semi: f64, fov: f64, drop: f64, reach: f64, phi: f64) {
        let optics = CellOptics {
            semi_angle_deg: semi,
            rx_fov_deg: fov,
            tx_optical_w: 11.0,
        };
        let room = RoomGeometry {
            width_m: 0.0,
            depth_m: 0.0,
            drop_m: drop,
        };
        let edge = drop * fov.to_radians().tan();
        let r = reach * edge;
        let lum = Position {
            x_m: 3.7,
            y_m: -1.9,
        };
        let user = Position {
            x_m: lum.x_m + r * phi.cos(),
            y_m: lum.y_m + r * phi.sin(),
        };
        let want = link_geometry(&optics, &room, &lum, &user).path_gain();
        let got = PathGain::new(&optics, &room).at(&lum, &user);
        if want == 0.0 || got == 0.0 {
            prop_assert!(
                want == got || (reach - 1.0).abs() <= 1e-9,
                "FoV cutoff disagrees at reach {reach}: closed form {got:e}, reference {want:e}"
            );
        } else {
            let rel = ((got - want) / want).abs();
            prop_assert!(rel <= 1e-12, "relative error {rel:e} at reach {reach}");
        }
    }

    #[test]
    fn exponent_snaps_to_its_integer_order_only_when_it_is_one() {
        let order = |semi: f64| {
            let optics = CellOptics {
                semi_angle_deg: semi,
                ..CellOptics::office_panel()
            };
            PathGain::new(&optics, &room()).order
        };
        let [m1, m2, m3] = integer_mode_semi_angles();
        assert_eq!(order(m1), Some(2));
        assert_eq!(order(m2), Some(3));
        assert_eq!(order(m3), Some(4));
        for semi in [15.0, 30.0, 44.9] {
            assert_eq!(order(semi), None, "{semi}° must keep powf");
        }
        assert_eq!(integer_order(3.0000000000000004), Some(3));
        assert_eq!(integer_order(17.0), None, "orders above 16 keep powf");
    }

    /// [`PathGain::row`] over the row `dx2` at `dy2`, bit for bit against
    /// each path alone and against [`PathGain::reference_d2`] (which has
    /// no cull), and within 1e-14 of the gain with the power taken by
    /// `powf`. Returns the row's lit and dark path counts.
    fn check_row(path: &PathGain, dx2: &[f64], dy2: f64) -> (usize, usize) {
        let mut row = vec![0.0; dx2.len()];
        path.row(dx2, dy2, &mut row);
        let (mut lit, mut dark) = (0, 0);
        for (&dx2, &g) in dx2.iter().zip(&row) {
            let order = path.order;
            let mut one = [0.0];
            path.row(&[dx2], dy2, &mut one);
            assert_eq!(g.to_bits(), one[0].to_bits(), "{order:?} {dx2} {dy2}");
            let d2 = dx2 + dy2 + path.drop_sq;
            let want = path.reference_d2(d2);
            assert_eq!(g.to_bits(), want.to_bits(), "{order:?} {dx2} {dy2}");
            let cos = path.drop_m / d2.sqrt();
            let want = if cos < path.cos_fov {
                0.0
            } else {
                path.k / d2 * cos.powf(path.exponent)
            };
            assert!(
                g == want || ((g - want) / want).abs() <= 1e-14,
                "{order:?} {dx2} {dy2}: {g:e} vs {want:e}"
            );
            lit += usize::from(g > 0.0);
            dark += usize::from(g == 0.0);
        }
        (lit, dark)
    }

    /// The base `path` at integer order `order`, or at the exponent 3.7
    /// (which keeps `powf`) for `None`.
    fn at_order(path: PathGain, order: Option<u32>) -> PathGain {
        PathGain {
            order,
            exponent: order.map_or(3.7, f64::from),
            ..path
        }
    }

    #[test]
    fn row_pass_is_the_one_path_case_at_every_order() {
        // Nine paths a row, so the pass runs paired lanes and a tail; rows
        // from boresight to past the FoV edge (6.04 m at the 2.2 m drop).
        let base = PathGain::new(&CellOptics::office_panel(), &room());
        let spread: Vec<f64> = (0..9).map(|i| (0.83 * i as f64).powi(2)).collect();
        for order in (1..=16).map(Some).chain([None]) {
            let path = at_order(base, order);
            let (mut lit, mut dark) = (0, 0);
            for dy in [0.0, 1.3, 4.1, 5.9, 7.0] {
                let (l, d) = check_row(&path, &spread, dy * dy);
                (lit, dark) = (lit + l, dark + d);
            }
            assert!(lit > 9 && dark > 9, "{order:?}: {lit} lit, {dark} dark");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn integer_order_gain_tracks_the_reference(
            which in 0usize..3,
            fov in 10.0f64..=89.0,
            drop in 0.5f64..=5.0,
            reach in 0.0f64..=1.2,
            phi in 0.0f64..std::f64::consts::TAU,
        ) {
            check_gain(integer_mode_semi_angles()[which], fov, drop, reach, phi);
        }

        #[test]
        fn closed_form_gain_tracks_the_reference(
            semi in 10.0f64..=80.0,
            fov in 10.0f64..=89.0,
            drop in 0.5f64..=5.0,
            reach in 0.0f64..=1.2,
            phi in 0.0f64..std::f64::consts::TAU,
        ) {
            check_gain(semi, fov, drop, reach, phi);
        }

        /// A row within 4e-13 of the FoV edge's `d²`, well inside the
        /// cull's 1e-9 padding: the pass lights exactly the paths the FoV
        /// test lights, at every order and any FoV from 20° to 89°.
        #[test]
        fn row_pass_cuts_only_unlit_paths_at_the_fov_edge(
            fov in 20.0f64..=89.0,
            order in 0u32..=16,
            dy in 0.0f64..=1.0,
        ) {
            let optics = CellOptics { rx_fov_deg: fov, ..CellOptics::office_panel() };
            let base = PathGain::new(&optics, &room());
            let path = at_order(base, (order > 0).then_some(order));
            // The edge's `r²`, less a `dy²` up to a tenth of it.
            let r2 = (path.drop_m / path.cos_fov).powi(2) - path.drop_sq;
            let dy2 = 0.1 * r2 * dy;
            let edge: Vec<f64> = (-4..5).map(|j| (r2 - dy2) * (1.0 + j as f64 * 1e-13)).collect();
            let (lit, dark) = check_row(&path, &edge, dy2);
            prop_assert!(lit > 0 && dark > 0, "{lit} lit, {dark} dark");
        }

        #[test]
        fn closed_form_gain_tracks_the_reference_at_the_fov_edge(
            semi in 10.0f64..=80.0,
            fov in 10.0f64..=89.0,
            drop in 0.5f64..=5.0,
            offset in -1e-8f64..=1e-8,
            phi in 0.0f64..std::f64::consts::TAU,
        ) {
            check_gain(semi, fov, drop, 1.0 + offset, phi);
        }
    }
}
