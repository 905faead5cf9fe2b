//! The event-driven cell simulation core.
//!
//! [`run_cell`](super::run_cell) executes here: every piece of per-tick
//! work is a typed [`CellEvent`] on a [`desim::Scheduler`] queue, and
//! simulated time advances event-to-event instead of sweeping every
//! component every tick. Two properties fall out:
//!
//! * **Idle components cost nothing.** A user in association outage has
//!   no `Grant` event queued at all — its delivery work is cancelled at
//!   handover time and re-scheduled for the tick the outage ends, instead
//!   of being skipped tick after tick.
//! * **Per-user work is local.** The Lambertian path through a 70° FoV
//!   receiver is *exactly* 0 W beyond `drop · tan(FoV)` ≈ 6 m of
//!   horizontal range, so RSS ranking and interference sums visit only
//!   the luminaire window around the user (the engine computes the
//!   index window directly from the regular grid). On a 32×32 grid that
//!   turns O(users × 1024) scans into O(users × ~25) — the unlock for
//!   building-scale batteries.
//!
//! # Determinism
//!
//! An event queue is deterministic only if same-instant delivery order
//! is pinned. Every event therefore carries an explicit ordering key
//! ([`CellEvent::order_key`]): phase first — ambient → sense → walk →
//! TDMA → grant — then entity id within the phase.
//! [`Scheduler::schedule_keyed`] orders same-instant events by that key
//! *regardless of when they were scheduled*, so cancelling and
//! re-scheduling a grant around a handover cannot demote it behind
//! another user's grant and perturb the (order-sensitive) per-cell f64
//! accumulation. The result is a pure function of `(cfg, seed)` — the
//! `cell_fingerprints` suite pins it bit for bit — and byte-identical
//! across `SMARTVLC_THREADS` like every other battery.
//!
//! # Adding a new event type
//!
//! See ARCHITECTURE.md ("Event-driven cell core"): add a variant to
//! [`CellEvent`], give it a phase slot in [`CellEvent::order_key`] that
//! states *where in the tick* it fires relative to the existing phases,
//! handle it in `EventEngine::handle`, and seed/re-schedule it like the
//! others. The keyed queue does the rest.

use super::geometry::{interference_var_from_gain, rss_from_gain};
use super::sched::{CellScheduler, LinkEstimate, ScheduleContext, SchedulerSpec, TickPlan};
use super::traffic::{CellTrafficSpec, TrafficState};
use super::{
    cell_channel, jain_index, rate_for, sim_parts, window_gain, CellConfig, CellOutcome,
    CellReport, Position, RunTallies, SimParts, UserOutcome,
};
use desim::{EventHandle, Scheduler, SimTime};
use smartvlc_core::adaptation::{perceived, AdaptationStepper};
use smartvlc_obs as obs;
use vlc_channel::detector::SlotDetector;
use vlc_channel::link::DetectorTerms;

/// One typed event on the cell simulation's queue.
///
/// A tick of simulated time is the set of events sharing one timestamp;
/// their delivery order is pinned by [`CellEvent::order_key`]: the shared
/// ambient advances first, then every luminaire senses (id order), every
/// user walks and runs handover (id order), TDMA membership is
/// recounted, and finally each granted user's delivery fires (id order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellEvent {
    /// Advance the shared ambient field and cache this tick's base lux.
    AmbientSample,
    /// Luminaire `lum` senses its local ambient (own noise stream) and
    /// adapts through the perception deadband.
    Sense {
        /// Luminaire (cell) id.
        lum: usize,
    },
    /// User `user` advances its waypoint walk and runs the handover
    /// state machine against the local RSS slate.
    Walk {
        /// User id.
        user: usize,
    },
    /// Recount TDMA membership from the current associations.
    TdmaReschedule,
    /// User `user`'s TDMA grant: deliver this tick's share. Only queued
    /// for ticks the user is *not* in association outage — handover
    /// cancels the pending grant and re-schedules it past the outage.
    Grant {
        /// User id.
        user: usize,
    },
}

/// Phase slots for [`CellEvent::order_key`], in delivery order.
const PHASE_AMBIENT: u64 = 0;
const PHASE_SENSE: u64 = 1;
const PHASE_WALK: u64 = 2;
const PHASE_TDMA: u64 = 3;
const PHASE_GRANT: u64 = 4;
/// Entity ids occupy the low bits of the key; 40 bits is room for a
/// trillion luminaires/users per phase.
const PHASE_SHIFT: u32 = 40;

impl CellEvent {
    /// The same-instant ordering key this event is scheduled under:
    /// phase in the high bits, entity id in the low bits. Events at one
    /// timestamp always fire in ascending key order, no matter when (or
    /// how often) they were scheduled or re-scheduled.
    pub fn order_key(&self) -> u64 {
        let (phase, id) = match *self {
            CellEvent::AmbientSample => (PHASE_AMBIENT, 0),
            CellEvent::Sense { lum } => (PHASE_SENSE, lum as u64),
            CellEvent::Walk { user } => (PHASE_WALK, user as u64),
            CellEvent::TdmaReschedule => (PHASE_TDMA, 0),
            CellEvent::Grant { user } => (PHASE_GRANT, user as u64),
        };
        debug_assert!(id < 1 << PHASE_SHIFT);
        (phase << PHASE_SHIFT) | id
    }
}

/// The timestamp of tick `tick`.
fn tick_time(cfg: &CellConfig, tick: u32) -> SimTime {
    SimTime::from_nanos((tick as f64 * cfg.tick_s * 1e9) as u64)
}

/// Horizontal range beyond which received power is exactly 0 W (the FoV
/// cutoff), padded so float rounding can only *include* cells; infinite
/// from 89° on, where the window is the whole grid.
fn window_radius(cfg: &CellConfig, drop_m: f64) -> f64 {
    // Beyond drop·tan(FoV) the path's cos θ = drop/d falls below cos FoV
    // and `PathGain::at` returns exactly 0.0; the padding absorbs
    // rounding at the boundary (inclusion is always safe — an included
    // far cell just contributes exact zeros).
    let fov = cfg.optics.rx_fov_deg;
    if fov < 89.0 {
        drop_m * fov.to_radians().tan() * (1.0 + 1e-9) + 1e-6
    } else {
        f64::INFINITY
    }
}

/// The luminaire window along one grid axis.
#[derive(Clone, Copy)]
struct Axis {
    /// `1 / pitch`.
    inv_pitch: f64,
    /// `r / pitch + 0.5` and `r / pitch − 0.5`, for window radius `r`: the
    /// reach below and above a position, in cell indices.
    lo_reach: f64,
    hi_reach: f64,
    /// The last cell index.
    last: usize,
    /// The most cells [`Axis::range`] can span.
    cap: usize,
}

impl Axis {
    fn new(r: f64, pitch: f64, n: usize) -> Axis {
        let reach = r / pitch;
        Axis {
            inv_pitch: 1.0 / pitch,
            lo_reach: reach + 0.5,
            hi_reach: reach - 0.5,
            last: n - 1,
            // `range` spans at most ⌊2r/pitch⌋ + 1 cells; one more
            // absorbs the rounding of its two sums.
            cap: ((2.0 * reach).min(n as f64) as usize + 2).min(n),
        }
    }

    /// Index range along the axis holding every cell whose center
    /// `(i + 0.5) · pitch` lies within the window radius of `center`,
    /// clamped to the grid. `ceil` and `floor` are libm calls on the
    /// baseline x86-64 target, so they are a truncating cast (plus one
    /// where it truncated, for `ceil`), and the division a reciprocal: a
    /// bound can then move by a cell whose center sits within rounding of
    /// the padded radius, and the padding (1e-6 m) dwarfs that rounding,
    /// so such a cell lies beyond the FoV radius — an exact zero either
    /// way.
    #[inline]
    fn range(&self, center: f64) -> (usize, usize) {
        let u = center * self.inv_pitch;
        let hi = ((u + self.hi_reach) as usize).min(self.last);
        let lo = u - self.lo_reach;
        let lo_cells = lo as usize;
        let lo_cells = lo_cells + usize::from((lo_cells as f64) < lo);
        (lo_cells.min(hi), hi)
    }
}

/// The luminaire window around one user: grid columns `x0..x0 + w` and
/// rows `y0..y0 + h`.
#[derive(Clone, Copy, Default)]
struct Window {
    x0: usize,
    y0: usize,
    w: usize,
    h: usize,
}

impl Window {
    /// Position of `cell` in the window's row-major order, if inside.
    #[inline]
    fn index(&self, cell: usize, nx: usize) -> Option<usize> {
        let (col, row) = (
            (cell % nx).wrapping_sub(self.x0),
            (cell / nx).wrapping_sub(self.y0),
        );
        (col < self.w && row < self.h).then(|| row * self.w + col)
    }
}

struct EventEngine<'a> {
    cfg: &'a CellConfig,
    parts: SimParts,
    tallies: RunTallies,
    /// This tick's shared ambient sample (set by `AmbientSample`, the
    /// first event of every tick).
    base_lux: f64,
    /// The tick currently being delivered; advanced by `AmbientSample`.
    tick: u32,
    next_tick: u32,
    /// The timestamp of tick `tick + 1`, set by `AmbientSample`.
    next_time: SimTime,
    /// Per-user handle of the pending `Grant` event, if one is queued.
    grant: Vec<Option<EventHandle>>,
    /// First tick at which each user's current outage has fully elapsed.
    outage_until: Vec<u32>,
    members: Vec<u32>,
    /// Per user: the luminaire window around the user's current
    /// position, as its last `Walk` surveyed it.
    windows: Vec<Window>,
    /// Per user, `stride` slots of path gains: its window's, row-major
    /// (ascending cell id) — written by the user's `Walk`, read by its
    /// link estimate and grant in the same tick (position is fixed from
    /// `Walk` on). Allocated once, at the most cells a window can hold.
    gains: Vec<f64>,
    stride: usize,
    /// The run's luminaire→user detector terms, from [`cell_channel`]'s
    /// configuration and built once: each operating point is
    /// [`DetectorTerms::detector`] at its path gain and ambient.
    detector: DetectorTerms,
    /// That configuration's slot duration (s).
    tslot_s: f64,
    /// The window along x and along y.
    axes: [Axis; 2],
    /// The luminaires' x per grid column and y per grid row.
    col_x: Vec<f64>,
    row_y: Vec<f64>,
    /// Scratch: `dx²` per window column.
    dx2: Vec<f64>,
    /// `cfg.policy.hysteresis_ratio()`, a `powf`.
    hysteresis: f64,
    /// Grant-conservation violations: a user eligible at the TDMA phase
    /// with no grant queued, or, at the end, a user whose grant and
    /// outage ticks do not add up to the run.
    violations: u64,
    /// The active scheduling policy (`cfg.scheduler`, built per run).
    scheduler: Box<dyn CellScheduler>,
    /// Cached `scheduler.needs_link_estimates()`.
    wants_estimates: bool,
    /// This tick's grants, recomputed at each `TdmaReschedule`.
    plan: TickPlan,
    /// Scratch: per-cell planned rates at the TDMA phase.
    cell_rates: Vec<f64>,
    /// Scratch: per-user serving cell at the TDMA phase.
    serving: Vec<usize>,
    /// Scratch: per-user grant-fires-this-tick flags.
    eligible: Vec<bool>,
    /// Scratch: per-user link estimates (zeroed when not wanted).
    estimates: Vec<LinkEstimate>,
    /// The net-workload observer, when `cfg.traffic` asks for it.
    traffic: Option<TrafficState>,
}

impl<'a> EventEngine<'a> {
    fn new(cfg: &'a CellConfig, parts: SimParts, seed: u64) -> EventEngine<'a> {
        let n_cells = cfg.n_cells();
        let scheduler = cfg.scheduler.build();
        let wants_estimates = scheduler.needs_link_estimates();
        let traffic = match cfg.traffic {
            CellTrafficSpec::Saturated => None,
            CellTrafficSpec::NetMix => Some(TrafficState::new(cfg.n_users, seed)),
        };
        let r = window_radius(cfg, parts.room.drop_m);
        let axes = [
            Axis::new(r, parts.room.width_m / cfg.nx as f64, cfg.nx),
            Axis::new(r, parts.room.depth_m / cfg.ny as f64, cfg.ny),
        ];
        let stride = axes[0].cap * axes[1].cap;
        // `ceiling_grid` computes a luminaire's x from its column alone
        // and its y from its row alone.
        let col_x = parts.grid[..cfg.nx].iter().map(|l| l.pos.x_m).collect();
        let row_y = parts
            .grid
            .iter()
            .step_by(cfg.nx)
            .map(|l| l.pos.y_m)
            .collect();
        // `detector_terms` reads neither the geometry nor the ambient of
        // this template.
        let origin = Position { x_m: 0.0, y_m: 0.0 };
        let channel = cell_channel(&cfg.optics, &parts.room, &origin, &origin, 0.0);
        EventEngine {
            cfg,
            tallies: RunTallies::new(cfg.n_users),
            base_lux: 0.0,
            tick: 0,
            next_tick: 0,
            next_time: SimTime::ZERO,
            grant: vec![None; cfg.n_users],
            outage_until: vec![0; cfg.n_users],
            members: vec![0; n_cells],
            windows: vec![Window::default(); cfg.n_users],
            gains: vec![0.0; cfg.n_users * stride],
            stride,
            detector: channel.detector_terms(),
            tslot_s: channel.tslot_s,
            axes,
            col_x,
            row_y,
            dx2: vec![0.0; axes[0].cap],
            hysteresis: cfg.policy.hysteresis_ratio(),
            violations: 0,
            scheduler,
            wants_estimates,
            plan: TickPlan::new(cfg.n_users),
            cell_rates: vec![0.0; n_cells],
            serving: vec![0; cfg.n_users],
            eligible: vec![false; cfg.n_users],
            estimates: vec![LinkEstimate::default(); cfg.n_users],
            traffic,
            parts,
        }
    }

    /// The window around `pos`: every luminaire whose center lies
    /// within the FoV radius, and so every cell with nonzero received
    /// power, read straight off the regular grid.
    fn window_at(&self, pos: &Position) -> Window {
        let (x0, x1) = self.axes[0].range(pos.x_m);
        let (y0, y1) = self.axes[1].range(pos.y_m);
        Window {
            x0,
            y0,
            w: x1 - x0 + 1,
            h: y1 - y0 + 1,
        }
    }

    /// `user`'s slice of `gains`: its window's path gains, row-major.
    fn window_gains(&self, user: usize) -> &[f64] {
        let win = &self.windows[user];
        &self.gains[user * self.stride..][..win.w * win.h]
    }

    /// `user`'s window row by row: each row's first cell id and its
    /// gains, so cell ids ascend along a row and from row to row. Callers
    /// walk a row with a plain `zip`, which compiles to a tighter loop
    /// than one flattened iterator over the window.
    fn window_rows(&self, user: usize) -> impl Iterator<Item = (usize, &[f64])> + '_ {
        let win = self.windows[user];
        let nx = self.cfg.nx;
        self.window_gains(user)
            .chunks_exact(win.w)
            .zip(win.y0..)
            .map(move |(row, y)| (y * nx + win.x0, row))
    }

    /// The path gain from `cell` to `user`: the one this tick's `Walk`
    /// computed, or the closed form's for a cell outside the window.
    fn gain(&self, user: usize, cell: usize) -> f64 {
        match self.windows[user].index(cell, self.cfg.nx) {
            Some(at) => self.window_gains(user)[at],
            None => {
                let pos = &self.parts.users[user].pos;
                self.parts.path_gain.at(&self.parts.grid[cell].pos, pos)
            }
        }
    }

    /// The slot detector of the path from `cell` to `user` under this
    /// tick's ambient at the user.
    fn operating_point(&mut self, user: usize, cell: usize) -> SlotDetector {
        self.tallies.operating_points += 1;
        let pos = self.parts.users[user].pos;
        let gain = self.gain(user, cell);
        self.detector.detector(gain, 1.0, false, self.lux_at(&pos))
    }

    /// This tick's ambient at `pos`.
    fn lux_at(&self, pos: &Position) -> f64 {
        (self.base_lux * window_gain(&self.parts.room, pos)).max(0.0)
    }

    /// Co-channel interference σ (A) at `user` from its window's
    /// luminaires other than those `skip` rejects — bit for bit
    /// [`super::interference_sigma_a`] over the same cells, in id order,
    /// from the path gains this tick's `Walk` computed. A dark path (gain
    /// 0.0) adds an exact +0.0 and is skipped: the sum then differs only
    /// in the sign of an all-zero σ, which every caller reads as 0.
    fn sigma_cci(&self, user: usize, skip: impl Fn(usize) -> bool) -> f64 {
        // Folded from -0.0 in id order, as `Iterator::sum` folds.
        let mut var = -0.0;
        for (first, row) in self.window_rows(user) {
            for (i, &g) in (first..).zip(row) {
                if g != 0.0 && !skip(i) {
                    var += interference_var_from_gain(&self.cfg.optics, g, self.parts.lums[i].led);
                }
            }
        }
        var.sqrt()
    }

    fn schedule_next(
        &self,
        sched: &mut Scheduler<CellEvent>,
        ev: CellEvent,
    ) -> Option<EventHandle> {
        if self.tick + 1 < self.cfg.ticks {
            Some(sched.schedule_keyed(self.next_time, ev.order_key(), ev))
        } else {
            None
        }
    }

    fn handle(&mut self, sched: &mut Scheduler<CellEvent>, t: SimTime, ev: CellEvent) {
        match ev {
            CellEvent::AmbientSample => self.on_ambient(sched, t),
            CellEvent::Sense { lum } => self.on_sense(sched, lum),
            CellEvent::Walk { user } => self.on_walk(sched, t, user),
            CellEvent::TdmaReschedule => self.on_tdma(sched),
            CellEvent::Grant { user } => self.on_grant(sched, user),
        }
    }

    fn on_ambient(&mut self, sched: &mut Scheduler<CellEvent>, t: SimTime) {
        self.tick = self.next_tick;
        self.next_tick += 1;
        self.next_time = tick_time(self.cfg, self.next_tick);
        self.base_lux = self.parts.ambient.lux_at(t);
        self.schedule_next(sched, CellEvent::AmbientSample);
    }

    fn on_sense(&mut self, sched: &mut Scheduler<CellEvent>, lum: usize) {
        let cfg = self.cfg;
        let gain = window_gain(&self.parts.room, &self.parts.grid[lum].pos);
        let st = &mut self.parts.lums[lum];
        let lux = self.base_lux * gain + st.rng.next_gaussian() * cfg.sensor_noise_lux;
        let norm = (lux / cfg.full_scale_lux).clamp(0.0, 1.0);
        let target = self.parts.illum.led_level_for(norm).value();
        if (perceived(target) - perceived(st.led)).abs() >= self.parts.tau_p {
            st.smart_steps += self.parts.stepper.step_count(st.led, target) as u64;
            st.led = target;
            st.rate_bps = rate_for(&self.parts.planner, target);
        }
        st.led_sum += st.led;
        self.schedule_next(sched, CellEvent::Sense { lum });
    }

    /// The walk's survey of the window around `user`, row by row: every
    /// path gain into the user's slice of `gains` by
    /// [`PathGain::row`](super::geometry::PathGain::row), then the
    /// handover slate `(best, best RSS, serving RSS)` — `best` the RSS
    /// argmax over the window, lowest id on ties.
    ///
    /// Cells outside the window, the serving cell among them, are exactly
    /// 0 W. So whenever `best` beats 0 W it is the argmax of a scan of the
    /// whole grid, and whenever it does not, no handover can clear the
    /// margin whichever cell it names: `Association::step` decides the
    /// same, bit for bit. So are the gains: a row's paths share `dy²`,
    /// and `PathGain::row` sums each path's per-column `dx²`, `dy²` and
    /// `drop²` in `PathGain::at`'s order.
    fn survey(&mut self, user: usize) -> (usize, f64, f64) {
        let pos = self.parts.users[user].pos;
        let win = self.window_at(&pos);
        self.windows[user] = win;
        let (x1, y1) = (win.x0 + win.w, win.y0 + win.h);
        let dx2 = &mut self.dx2[..win.w];
        for (d, &x) in dx2.iter_mut().zip(&self.col_x[win.x0..x1]) {
            let dx = x - pos.x_m;
            *d = dx * dx;
        }
        let (optics, nx) = (&self.cfg.optics, self.cfg.nx);
        let path = &self.parts.path_gain;
        let gains = &mut self.gains[user * self.stride..][..win.w * win.h];
        // Every RSS is ≥ 0, so a cell at 0 W never displaces an earlier
        // one: starting from the window's first cell at 0 W ranks as a
        // scan of every cell does.
        let mut best = (win.y0 * nx + win.x0, 0.0);
        for ((y, &ly), row) in (win.y0..)
            .zip(&self.row_y[win.y0..y1])
            .zip(gains.chunks_exact_mut(win.w))
        {
            let dy = ly - pos.y_m;
            path.row(dx2, dy * dy, row);
            let first = y * nx + win.x0;
            for ((i, &g), lum) in (first..).zip(&*row).zip(&self.parts.lums[first..]) {
                let p = rss_from_gain(optics, g, lum.led);
                if p > best.1 {
                    best = (i, p);
                }
            }
        }
        let serving = self.parts.assocs[user].serving;
        let serving_w = rss_from_gain(
            optics,
            self.gain(user, serving),
            self.parts.lums[serving].led,
        );
        (best.0, best.1, serving_w)
    }

    fn on_walk(&mut self, sched: &mut Scheduler<CellEvent>, t: SimTime, user: usize) {
        let cfg = self.cfg;
        self.parts.users[user].step(&self.parts.room, &cfg.mobility, cfg.tick_s);
        let (best, best_w, serving_w) = self.survey(user);

        let assoc = &mut self.parts.assocs[user];
        if let Some(ev) = assoc.step_ranked(best, best_w, serving_w, self.hysteresis, &cfg.policy) {
            self.tallies.handovers += 1;
            self.tallies.user_handovers[user] += 1;
            self.tallies.latency_ticks_sum += ev.latency_ticks as u64;
            obs::counter_add(obs::key!("sim.cell.handovers"), 1);
            obs::observe(
                obs::key!("sim.cell.handover_latency_ms"),
                (ev.latency_ticks as f64 * cfg.tick_s * 1e3) as u64,
            );
            obs::event(t, obs::key!("sim.cell.handover"), user as u64);

            let delay = cfg.policy.assoc_delay_ticks;
            if delay > 0 {
                // Account the whole outage window now (overlapping
                // handovers extend it, never double-count) and move the
                // user's grant past it.
                // Saturating: the builder accepts any `u32` delay, and
                // an outage past the run's end ends with it.
                let until_new = self.tick.saturating_add(delay);
                let lo = self.outage_until[user].max(self.tick);
                let hi = until_new.min(cfg.ticks);
                let add = hi.saturating_sub(lo) as u64;
                self.tallies.user_outage[user] += add;
                if add > 0 {
                    obs::counter_add(obs::key!("sim.cell.outage_ticks"), add);
                }
                self.outage_until[user] = until_new;
                if let Some(h) = self.grant[user].take() {
                    sched.cancel(h);
                }
                if until_new < cfg.ticks {
                    let ev = CellEvent::Grant { user };
                    self.grant[user] =
                        Some(sched.schedule_keyed(tick_time(cfg, until_new), ev.order_key(), ev));
                }
            }
        }
        self.schedule_next(sched, CellEvent::Walk { user });
    }

    fn on_tdma(&mut self, sched: &mut Scheduler<CellEvent>) {
        self.members.iter_mut().for_each(|m| *m = 0);
        for a in &self.parts.assocs {
            self.members[a.serving] += 1;
        }
        for (st, &m) in self.parts.lums.iter_mut().zip(&self.members) {
            st.users_sum += m as f64;
        }

        // Grant recomputation: snapshot this tick's rates, serving cells
        // and eligibility (all settled — senses and walks fired in
        // earlier phases), compute link estimates if the policy wants
        // them, and let it fill the plan the grant events execute.
        for (r, st) in self.cell_rates.iter_mut().zip(&self.parts.lums) {
            *r = st.rate_bps;
        }
        for u in 0..self.cfg.n_users {
            self.serving[u] = self.parts.assocs[u].serving;
            // Eligible ⇔ a Grant event fires this tick: handover cancels
            // the grant and pushes `outage_until` past the outage in the
            // same motion, so the two are always in step. (The converse
            // doesn't hold — during an outage the re-scheduled grant's
            // handle is already live for a future tick.)
            self.eligible[u] = self.outage_until[u] <= self.tick;
            if self.eligible[u] && self.grant[u].is_none() {
                self.violations += 1;
            }
        }
        if self.wants_estimates {
            for u in 0..self.cfg.n_users {
                self.estimates[u] = if self.eligible[u] {
                    self.link_estimate(u)
                } else {
                    LinkEstimate::default()
                };
            }
        }
        self.plan.reset(self.cfg.n_users);
        let ctx = ScheduleContext {
            tick: self.tick,
            members: &self.members,
            rate_bps: &self.cell_rates,
            serving: &self.serving,
            eligible: &self.eligible,
            estimates: if self.wants_estimates {
                &self.estimates
            } else {
                &[]
            },
        };
        self.scheduler.reschedule(&ctx, &mut self.plan);
        self.schedule_next(sched, CellEvent::TdmaReschedule);
    }

    /// Analytic link estimate for one eligible user at the TDMA phase:
    /// the same operating-point/interference math the grant path runs,
    /// summarized into what a policy can rank on. Costs one
    /// operating-point computation per call, which is why policies opt in
    /// via `needs_link_estimates`.
    fn link_estimate(&mut self, user: usize) -> LinkEstimate {
        let cfg = self.cfg;
        let serving = self.parts.assocs[user].serving;
        let rate = self.parts.lums[serving].rate_bps;
        if rate <= 0.0 {
            return LinkEstimate::default();
        }
        let det = self.operating_point(user, serving);
        // Per-interferer contributions (ascending cell id, strict `>`:
        // dominant ties break to the lowest id). Each σ is
        // `interference_sigma_a` of that one luminaire.
        let mut var = 0.0;
        let mut dominant: Option<(usize, f64)> = None;
        for (first, row) in self.window_rows(user) {
            for (i, &g) in (first..).zip(row) {
                if i == serving {
                    continue;
                }
                let sig = interference_var_from_gain(&cfg.optics, g, self.parts.lums[i].led).sqrt();
                var += sig * sig;
                if sig > 0.0 && dominant.is_none_or(|(_, s)| sig > s) {
                    dominant = Some((i, sig));
                }
            }
        }
        let sigma_cci = var.sqrt();
        let noisy =
            SlotDetector::from_levels(det.mu_on_a, det.mu_off_a, det.sigma_a.hypot(sigma_cci));
        let probs = noisy.error_probs();
        let p_slot = 0.5 * (probs.p_off_error + probs.p_on_error);
        let slots_per_frame = (cfg.frame_bits / rate / self.tslot_s).max(1.0);
        let p_frame_ok = (1.0 - p_slot).powf(slots_per_frame);
        let swing = 0.5 * (det.mu_on_a - det.mu_off_a);
        let sinr = swing * swing
            / (det.sigma_a * det.sigma_a + sigma_cci * sigma_cci).max(f64::MIN_POSITIVE);
        LinkEstimate {
            rate_bps: rate * p_frame_ok,
            sinr_db: 10.0 * sinr.max(f64::MIN_POSITIVE).log10(),
            interference_limited: sigma_cci > det.sigma_a,
            dominant_cell: dominant.map(|(i, _)| i),
        }
    }

    fn on_grant(&mut self, sched: &mut Scheduler<CellEvent>, user: usize) {
        let cfg = self.cfg;
        self.grant[user] = None;
        self.tallies.user_grants[user] += 1;
        let serving = self.parts.assocs[user].serving;
        let rate = self.parts.lums[serving].rate_bps;
        let granted_bps = self.plan.grant_bps(user);
        let coord = self.plan.coord(user);
        let mut achieved_bps = 0.0;
        let mut bits = 0.0;
        if granted_bps > 0.0 {
            debug_assert!(rate > 0.0, "a grant implies a live serving cell");
            self.tallies.served_ticks += 1;
            let det = self.operating_point(user, serving);
            // Co-channel luminaires within the window, id order, serving
            // (and a coordinating donor) excluded — cells beyond the
            // window contribute exact-zero variance terms, so the pruned
            // sum is bit-identical to the full one.
            let donor = coord.map(|c| c.donor);
            let sigma_cci = self.sigma_cci(user, |i| i == serving || Some(i) == donor);
            if sigma_cci > det.sigma_a {
                self.tallies.interference_limited += 1;
            }
            let mut mu_on = det.mu_on_a;
            if let Some(c) = coord {
                self.tallies.coord_grants += 1;
                if c.joint_serve {
                    // The donor transmits the user's symbols in phase:
                    // its swing raises the ON level instead of raising
                    // the interference floor.
                    let det_d = self.operating_point(user, c.donor);
                    mu_on += det_d.mu_on_a - det_d.mu_off_a;
                }
            }
            let det = SlotDetector::from_levels(mu_on, det.mu_off_a, det.sigma_a.hypot(sigma_cci));
            let probs = det.error_probs();
            let p_slot = 0.5 * (probs.p_off_error + probs.p_on_error);
            let slots_per_frame = (cfg.frame_bits / rate / self.tslot_s).max(1.0);
            let p_frame_ok = (1.0 - p_slot).powf(slots_per_frame);
            achieved_bps = granted_bps * p_frame_ok;
            bits = granted_bps * p_frame_ok * cfg.tick_s;
            self.tallies.user_bits[user] += bits;
            self.parts.lums[serving].delivered_bits += bits;
        }
        self.scheduler.on_delivered(user, achieved_bps);
        if let Some(ts) = self.traffic.as_mut() {
            let end_s = (self.tick + 1) as f64 * cfg.tick_s;
            ts.on_grant(user, tick_time(cfg, self.tick), end_s, bits);
        }
        self.grant[user] = self.schedule_next(sched, CellEvent::Grant { user });
    }

    /// Close the run: emit the per-policy counters and assemble the
    /// report from the tallies, the luminaires and the observers.
    fn finish(self, events: u64, queue_peak: u64) -> CellReport {
        let cfg = self.cfg;
        let t = &self.tallies;
        // Grant conservation: every user-tick is a grant or an outage.
        let unbalanced = (t.user_grants.iter().zip(&t.user_outage))
            .filter(|&(g, o)| g + o != u64::from(cfg.ticks))
            .count() as u64;
        let violations = self.violations + unbalanced;
        if violations > 0 {
            obs::counter_add(obs::key!("sim.cell.invariant_violations"), violations);
        }
        let coord_blocked = self.scheduler.stats().coord_blocked;
        // New policies get their own counter namespace; the legacy
        // equal-share path emits exactly the legacy telemetry so existing
        // artifacts stay byte-identical.
        if !matches!(cfg.scheduler, SchedulerSpec::EqualShare) {
            obs::counter_add(
                match cfg.scheduler {
                    SchedulerSpec::EqualShare => unreachable!(),
                    SchedulerSpec::ProportionalFair { .. } => obs::key!("sim.cell.sched.pf_runs"),
                    SchedulerSpec::CoordinatedEdge { .. } => obs::key!("sim.cell.sched.coord_runs"),
                },
                1,
            );
            obs::counter_add(obs::key!("sim.cell.sched.grants"), t.served_ticks);
            if t.coord_grants > 0 {
                obs::counter_add(obs::key!("sim.cell.sched.coord_grants"), t.coord_grants);
            }
            if coord_blocked > 0 {
                obs::counter_add(obs::key!("sim.cell.sched.coord_blocked"), coord_blocked);
            }
        }

        let duration_s = cfg.ticks as f64 * cfg.tick_s;
        let users_out: Vec<UserOutcome> = (0..cfg.n_users)
            .map(|j| UserOutcome {
                id: j,
                delivered_bits: t.user_bits[j],
                goodput_bps: t.user_bits[j] / duration_s,
                handovers: t.user_handovers[j],
                outage_ticks: t.user_outage[j],
                grant_ticks: t.user_grants[j],
            })
            .collect();
        let cells_out: Vec<CellOutcome> = self
            .parts
            .grid
            .iter()
            .zip(&self.parts.lums)
            .map(|(l, st)| CellOutcome {
                id: l.id,
                delivered_bits: st.delivered_bits,
                mean_led: st.led_sum / cfg.ticks as f64,
                mean_users: st.users_sum / cfg.ticks as f64,
                smart_steps: st.smart_steps,
            })
            .collect();
        let aggregate_goodput_bps = users_out.iter().map(|u| u.goodput_bps).sum();
        let goodputs: Vec<f64> = users_out.iter().map(|u| u.goodput_bps).collect();
        let jain_fairness = jain_index(&goodputs);
        let edge_p5_goodput_bps = crate::stats_util::try_percentile(&goodputs, 5.0).unwrap_or(0.0);
        CellReport {
            aggregate_goodput_bps,
            jain_fairness,
            edge_p5_goodput_bps,
            coord_grants: t.coord_grants,
            coord_blocked,
            traffic: self.traffic.as_ref().map(TrafficState::report),
            handovers: t.handovers,
            mean_handover_latency_s: if t.handovers > 0 {
                Some(t.latency_ticks_sum as f64 / t.handovers as f64 * cfg.tick_s)
            } else {
                None
            },
            outage_fraction: t.user_outage.iter().sum::<u64>() as f64
                / (cfg.ticks as u64 * cfg.n_users as u64) as f64,
            interference_limited_fraction: if t.served_ticks > 0 {
                t.interference_limited as f64 / t.served_ticks as f64
            } else {
                0.0
            },
            users: users_out,
            cells: cells_out,
            duration_s,
            opcache_hits: 0,
            opcache_misses: t.operating_points,
            slots_equivalent: t.served_ticks as f64 * (cfg.tick_s / self.tslot_s),
            events,
            queue_peak,
        }
    }
}

/// The event-core implementation behind [`super::run_cell`].
pub(crate) fn run_cell_event(cfg: &CellConfig, seed: u64) -> CellReport {
    if let Err(err) = cfg.validate() {
        panic!("invalid CellConfig: {err}");
    }
    obs::counter_add(obs::key!("sim.cell.runs"), 1);

    let parts = sim_parts(cfg, seed);
    let mut eng = EventEngine::new(cfg, parts, seed);
    let mut sched: Scheduler<CellEvent> = Scheduler::new();

    // Seed tick 0. Order here is irrelevant — the keys decide — but
    // id-order seeding keeps handles aligned for the grant table.
    let t0 = tick_time(cfg, 0);
    let seed_ev = |sched: &mut Scheduler<CellEvent>, ev: CellEvent| {
        sched.schedule_keyed(t0, ev.order_key(), ev)
    };
    seed_ev(&mut sched, CellEvent::AmbientSample);
    for lum in 0..cfg.n_cells() {
        seed_ev(&mut sched, CellEvent::Sense { lum });
    }
    for user in 0..cfg.n_users {
        seed_ev(&mut sched, CellEvent::Walk { user });
    }
    seed_ev(&mut sched, CellEvent::TdmaReschedule);
    for user in 0..cfg.n_users {
        let ev = CellEvent::Grant { user };
        eng.grant[user] = Some(seed_ev(&mut sched, ev));
    }

    let events = sched.run_with(None, |s, t, ev| eng.handle(s, t, ev));
    let queue_peak = sched.high_water() as u64;
    obs::counter_add(obs::key!("sim.cell.events"), events);
    obs::gauge_set(obs::key!("sim.cell.queue_peak"), queue_peak as f64);

    eng.finish(events, queue_peak)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::geometry::integer_mode_semi_angles;
    use crate::cell::{received_power_w, Association, HandoverPolicy};
    use proptest::prelude::*;

    #[test]
    fn order_keys_follow_the_phase_order() {
        let tick: Vec<u64> = [
            CellEvent::AmbientSample,
            CellEvent::Sense { lum: 0 },
            CellEvent::Sense { lum: 5 },
            CellEvent::Walk { user: 0 },
            CellEvent::Walk { user: 9 },
            CellEvent::TdmaReschedule,
            CellEvent::Grant { user: 0 },
            CellEvent::Grant { user: 9 },
        ]
        .iter()
        .map(CellEvent::order_key)
        .collect();
        let mut sorted = tick.clone();
        sorted.sort_unstable();
        assert_eq!(tick, sorted, "phase/id order must be ascending");
        assert!(
            tick.windows(2).all(|w| w[0] < w[1]),
            "keys must be distinct"
        );
    }

    /// Index window along one grid axis, as the per-cell survey built it:
    /// every cell whose center `(i + 0.5) · pitch` lies within `r` of
    /// `center`, clamped to the grid.
    fn axis_range(center: f64, r: f64, pitch: f64, n: usize) -> (usize, usize) {
        let lo = ((center - r) / pitch - 0.5).ceil().max(0.0);
        let hi = ((center + r) / pitch - 0.5).floor().min((n - 1) as f64);
        if hi < lo {
            (0, 0)
        } else {
            (lo as usize, hi as usize)
        }
    }

    #[test]
    fn axis_range_covers_the_window_and_clamps_to_the_grid() {
        // 8 cells at 2.5 m pitch, centers at 1.25, 3.75, ..., 18.75.
        let axis = Axis::new(6.05, 2.5, 8);
        assert_eq!(axis.cap, 6);
        assert_eq!(axis.range(10.0), (2, 5)); // centers 6.25..=13.75
        assert_eq!(axis.range(0.0), (0, 1));
        assert_eq!(axis.range(20.0), (6, 7));
        // A window wider than the room covers everything.
        let all = Axis::new(f64::INFINITY, 2.5, 8);
        assert_eq!((all.range(5.0), all.cap), ((0, 7), 8));
        // Every center, a grid of radii: the range is the reference's but
        // where a bound lands within rounding of a cell, spans at most
        // `cap` cells, and stays in the grid.
        for n in 1..=12 {
            for r in [0.1, 1.2, 2.5, 3.7, 6.05, 12.5, 40.0] {
                let axis = Axis::new(r, 2.5, n);
                for k in 0..=(n * 40) {
                    let c = k as f64 * 2.5 * n as f64 / (n * 40) as f64;
                    let (lo, hi) = axis.range(c);
                    let (rlo, rhi) = axis_range(c, r, 2.5, n);
                    assert!(lo <= hi && hi < n, "n {n} r {r} c {c}: {lo}..={hi}");
                    assert!(hi - lo < axis.cap, "n {n} r {r} c {c}: {lo}..={hi}");
                    let (a, b) = ((c - r) / 2.5 - 0.5, (c + r) / 2.5 - 0.5);
                    let empty = b.floor().min((n - 1) as f64) < a.ceil().max(0.0);
                    let edge = |x: f64| (x - x.round()).abs() < 1e-9;
                    let same = (lo, hi) == (rlo, rhi);
                    assert!(same || empty || edge(a) || edge(b), "n {n} r {r} c {c}");
                }
            }
        }
    }

    /// An engine at tick 0 of a 4×4 × 6-user run, every user walked once
    /// and every luminaire at a distinct duty so interference is nonzero.
    fn walked_engine(cfg: &CellConfig) -> EventEngine<'_> {
        let mut eng = EventEngine::new(cfg, sim_parts(cfg, 31), 31);
        let mut sched = Scheduler::new();
        let t0 = tick_time(cfg, 0);
        eng.on_ambient(&mut sched, t0);
        for (i, st) in eng.parts.lums.iter_mut().enumerate() {
            st.led = 0.05 + 0.057 * i as f64;
        }
        for user in 0..cfg.n_users {
            eng.on_walk(&mut sched, t0, user);
        }
        eng
    }

    fn bits(d: &SlotDetector) -> [u64; 3] {
        [
            d.mu_on_a.to_bits(),
            d.mu_off_a.to_bits(),
            d.sigma_a.to_bits(),
        ]
    }

    /// The detector of the path from `cell` to `user`, computed directly:
    /// the closed-form gain through the cell channel's
    /// [`detector_for_gain`](vlc_channel::link::ChannelConfig::detector_for_gain).
    fn direct(eng: &EventEngine, user: usize, cell: usize) -> SlotDetector {
        let (lum, pos) = (eng.parts.grid[cell].pos, eng.parts.users[user].pos);
        let gain = eng.parts.path_gain.at(&lum, &pos);
        let channel = cell_channel(
            &eng.cfg.optics,
            &eng.parts.room,
            &lum,
            &pos,
            eng.lux_at(&pos),
        );
        channel.detector_for_gain(gain, 1.0, false)
    }

    #[test]
    fn operating_point_is_the_direct_detector_bit_for_bit() {
        let cfg = CellConfig::standard(4, 4, 6);
        let mut eng = walked_engine(&cfg);
        for user in 0..cfg.n_users {
            let serving = eng.parts.assocs[user].serving;
            let donor = (serving + 1) % cfg.n_cells();
            let want = bits(&direct(&eng, user, serving));
            assert_eq!(bits(&eng.operating_point(user, serving)), want);
            let want_d = bits(&direct(&eng, user, donor));
            assert_eq!(bits(&eng.operating_point(user, donor)), want_d);
        }

        // A moved user gets the new point's answer.
        eng.parts.users[0].pos.x_m += 0.25;
        eng.survey(0);
        let serving = eng.parts.assocs[0].serving;
        let want = bits(&direct(&eng, 0, serving));
        assert_eq!(bits(&eng.operating_point(0, serving)), want);

        // So does a user standing still under a new ambient.
        eng.base_lux += 500.0;
        let want = bits(&direct(&eng, 0, serving));
        assert_eq!(bits(&eng.operating_point(0, serving)), want);
    }

    /// `a` within `tol` relative of `b`, or both exactly 0.
    fn close(a: f64, b: f64, tol: f64) -> bool {
        a == b || ((a - b) / b).abs() <= tol
    }

    #[test]
    fn grant_detector_tracks_the_reference_channel() {
        // Every user's serving cell (a gain from its walk window) and every
        // other cell (outside the window too: the closed form's gain),
        // against the Lambertian reference channel's detector.
        let cfg = CellConfig::standard(4, 4, 6);
        let mut eng = walked_engine(&cfg);
        let mut lit = 0;
        for user in 0..cfg.n_users {
            let pos = eng.parts.users[user].pos;
            for cell in 0..cfg.n_cells() {
                let lum = eng.parts.grid[cell].pos;
                let want = cell_channel(&cfg.optics, &eng.parts.room, &lum, &pos, eng.lux_at(&pos))
                    .detector_with(1.0, false);
                let got = eng.operating_point(user, cell);
                lit += usize::from(want.mu_on_a > 0.0);
                for (g, w, what) in [
                    (got.mu_on_a, want.mu_on_a, "mu_on_a"),
                    (got.mu_off_a, want.mu_off_a, "mu_off_a"),
                    (got.sigma_a, want.sigma_a, "sigma_a"),
                ] {
                    assert!(
                        close(g, w, 1e-12),
                        "user {user} cell {cell} {what}: {g:e} vs reference {w:e}"
                    );
                }
            }
        }
        assert!(lit > cfg.n_users, "too few lit paths: {lit}");
    }

    #[test]
    fn walk_gains_reproduce_rss_and_interference_bit_for_bit() {
        let cfg = CellConfig::standard(4, 4, 6);
        let mut eng = walked_engine(&cfg);
        let mut sched = Scheduler::new();
        for user in 0..cfg.n_users {
            eng.on_walk(&mut sched, tick_time(&cfg, 1), user);
            let (optics, room) = (&cfg.optics, &eng.parts.room);
            let pos = eng.parts.users[user].pos;
            let serving = eng.parts.assocs[user].serving;
            let window: Vec<(usize, f64)> = eng
                .window_rows(user)
                .flat_map(|(first, row)| (first..).zip(row.iter().copied()))
                .collect();
            assert!(window.len() > 1, "user {user} sees one luminaire");
            for &(i, g) in &window {
                let lum = &eng.parts.grid[i].pos;
                let led = eng.parts.lums[i].led;
                let want = received_power_w(optics, room, lum, &pos, led);
                let got = rss_from_gain(optics, g, led);
                assert_eq!(got.to_bits(), want.to_bits(), "rss of cell {i}");
                // The link estimate's per-interferer σ.
                let one = interference_var_from_gain(optics, g, led).sqrt();
                let want = super::super::interference_sigma_a(optics, room, &[(*lum, led)], &pos);
                assert_eq!(one.to_bits(), want.to_bits(), "σ of cell {i}");
            }
            // The grant's σ over the window, serving and a donor excluded.
            let donor = window.last().unwrap().0;
            let interferers: Vec<(Position, f64)> = window
                .iter()
                .filter(|w| w.0 != serving && w.0 != donor)
                .map(|w| (eng.parts.grid[w.0].pos, eng.parts.lums[w.0].led))
                .collect();
            let want = super::super::interference_sigma_a(optics, room, &interferers, &pos);
            let got = eng.sigma_cci(user, |i| i == serving || i == donor);
            assert!(want > 0.0);
            assert_eq!(got.to_bits(), want.to_bits(), "user {user}");
        }
    }

    #[test]
    fn fov_window_holds_every_cell_with_nonzero_gain() {
        // Random positions, plus positions on (and a hair either side of)
        // each luminaire's FoV circle, where rounding decides the cutoff.
        let mut rng = desim::DetRng::seed_from_u64(7);
        for fov in [20.0, 45.0, 70.0, 80.0] {
            let mut cfg = CellConfig::standard(9, 7, 1);
            cfg.optics.rx_fov_deg = fov;
            let eng = EventEngine::new(&cfg, sim_parts(&cfg, 3), 3);
            let room = eng.parts.room;
            let edge = room.drop_m * f64::to_radians(fov).tan();
            let mut spots: Vec<Position> = (0..500)
                .map(|_| Position {
                    x_m: rng.next_f64() * room.width_m,
                    y_m: rng.next_f64() * room.depth_m,
                })
                .collect();
            for lum in &eng.parts.grid {
                for k in 0..16 {
                    let phi = k as f64 * std::f64::consts::TAU / 16.0;
                    for scale in [1.0 - 1e-12, 1.0, 1.0 + 1e-12] {
                        spots.push(room.clamp(Position {
                            x_m: lum.pos.x_m + edge * scale * phi.cos(),
                            y_m: lum.pos.y_m + edge * scale * phi.sin(),
                        }));
                    }
                }
            }
            // Lit paths within 1e-9 of the FoV radius: the cases that test
            // the window's padding.
            let mut edge_lit = 0;
            for pos in &spots {
                let window = eng.window_at(pos);
                for lum in &eng.parts.grid {
                    if eng.parts.path_gain.reference_at(&lum.pos, pos) > 0.0 {
                        if lum.pos.horizontal_distance(pos) > edge * (1.0 - 1e-9) {
                            edge_lit += 1;
                        }
                        assert!(
                            window.index(lum.id, cfg.nx).is_some(),
                            "fov {fov}: cell {} lit at {pos:?} but outside the window",
                            lum.id
                        );
                    }
                }
            }
            assert!(edge_lit > 0, "fov {fov}: no lit path at the FoV radius");
        }
    }

    #[test]
    fn event_count_and_queue_peak_are_deterministic_and_plausible() {
        let cfg = CellConfig::standard(2, 2, 3);
        let a = run_cell_event(&cfg, 99);
        let b = run_cell_event(&cfg, 99);
        assert_eq!(a.events, b.events);
        assert_eq!(a.queue_peak, b.queue_peak);
        // Per tick: 1 ambient + 4 senses + 3 walks + 1 TDMA + ≤3 grants
        // (grants go missing only during association outages).
        let ticks = cfg.ticks as u64;
        assert!(a.events <= ticks * 12, "{}", a.events);
        assert!(a.events >= ticks * 9, "{}", a.events);
        assert!(a.queue_peak >= 12, "{}", a.queue_peak);
    }

    /// The per-cell survey the one-pass [`EventEngine::survey`] replaced,
    /// kept as its reference: the ceil/floor window as a candidate list,
    /// [`PathGain::reference_at`](super::super::geometry::PathGain::reference_at)
    /// per cell (the FoV test alone, no cull), the serving cell merged
    /// in, and an RSS slate over every cell for
    /// [`Association::step_subset`]. Returns the window's `(cell, gain)`
    /// pairs, the slate and the candidates.
    fn reference_survey(
        eng: &EventEngine,
        user: usize,
    ) -> (Vec<(usize, f64)>, Vec<f64>, Vec<usize>) {
        let (cfg, room) = (eng.cfg, &eng.parts.room);
        let r = window_radius(cfg, room.drop_m);
        let pos = eng.parts.users[user].pos;
        let (ix_lo, ix_hi) = axis_range(pos.x_m, r, room.width_m / cfg.nx as f64, cfg.nx);
        let (iy_lo, iy_hi) = axis_range(pos.y_m, r, room.depth_m / cfg.ny as f64, cfg.ny);
        let mut cand: Vec<usize> = (iy_lo..=iy_hi)
            .flat_map(|j| (ix_lo..=ix_hi).map(move |i| j * cfg.nx + i))
            .collect();
        let path = eng.parts.path_gain;
        let rss_of = |i: usize| {
            let g = path.reference_at(&eng.parts.grid[i].pos, &pos);
            (g, rss_from_gain(&cfg.optics, g, eng.parts.lums[i].led))
        };
        let mut rss = vec![0.0; cfg.n_cells()];
        let mut gains = Vec::new();
        for &i in &cand {
            let (g, p) = rss_of(i);
            gains.push((i, g));
            rss[i] = p;
        }
        let serving = eng.parts.assocs[user].serving;
        if let Err(at) = cand.binary_search(&serving) {
            cand.insert(at, serving);
            rss[serving] = rss_of(serving).1;
        }
        (gains, rss, cand)
    }

    /// One survey-and-decide step of user 0 of `eng`, by the one-pass
    /// survey and by the reference, from the same association state:
    /// both must agree bit for bit on every gain, the RSS slate and the
    /// handover decision, and the window must hold every path the FoV
    /// test lights, none of them culled.
    fn check_survey(eng: &mut EventEngine) {
        let cfg = eng.cfg;
        let (gains_ref, rss_ref, cand) = reference_survey(eng, 0);
        let mut assoc_ref = eng.parts.assocs[0].clone();
        let ev_ref = assoc_ref.step_subset(&rss_ref, &cand, &cfg.policy);
        let best_ref = cand
            .iter()
            .fold(cand[0], |b, &i| if rss_ref[i] > rss_ref[b] { i } else { b });

        let (best, best_w, serving_w) = eng.survey(0);
        let ev =
            eng.parts.assocs[0].step_ranked(best, best_w, serving_w, eng.hysteresis, &cfg.policy);
        prop_assert_eq!(ev, ev_ref);
        prop_assert_eq!(&eng.parts.assocs[0], &assoc_ref);
        prop_assert_eq!(best_w.to_bits(), rss_ref[best_ref].to_bits());
        if best_w > 0.0 {
            prop_assert_eq!(best, best_ref);
        }
        // The RSS of the cell that served the user during the survey.
        let served = ev.map_or(assoc_ref.serving, |e| e.from);
        prop_assert_eq!(serving_w.to_bits(), rss_ref[served].to_bits());
        for &(i, g) in &gains_ref {
            prop_assert_eq!(eng.gain(0, i).to_bits(), g.to_bits(), "cell {}", i);
        }
        let pos = eng.parts.users[0].pos;
        let window = eng.windows[0];
        for lum in &eng.parts.grid {
            let want = eng.parts.path_gain.reference_at(&lum.pos, &pos);
            prop_assert_eq!(
                eng.gain(0, lum.id).to_bits(),
                want.to_bits(),
                "cell {}",
                lum.id
            );
            if want > 0.0 {
                // A lit path: inside the window, and not culled.
                prop_assert!(
                    window.index(lum.id, cfg.nx).is_some(),
                    "lit cell {} outside",
                    lum.id
                );
                let (dx, dy) = (lum.pos.x_m - pos.x_m, lum.pos.y_m - pos.y_m);
                prop_assert!(
                    dx * dx + dy * dy + eng.parts.path_gain.drop_sq()
                        <= eng.parts.path_gain.cull_d2(),
                    "lit cell {} culled",
                    lum.id
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The row-pass survey against the per-cell reference: semi-angles
        /// of integer Lambertian orders 2–4 and one (30°) that keeps
        /// `powf`, FoV from 20° to 89° (the whole grid), several pitches,
        /// random duties
        /// (some dark), hysteresis from −3 dB (a tie with the serving cell
        /// clears it) to 6 dB, and the user anywhere in the room, within
        /// a few ulps of a luminaire's FoV radius (where the cull and the
        /// window's padding decide), or on a grid corner under equal
        /// duties, served by one of the up to four cells it ties.
        #[test]
        fn survey_matches_the_per_cell_reference(
            (nx, ny) in (1usize..=9, 1usize..=9),
            (pitch, semi) in (0usize..4, 0usize..4),
            (whole_grid, fov) in (0u8..8, 20.0f64..89.0),
            hysteresis_db in -3.0f64..6.0,
            (serving, lum, place) in (any::<usize>(), any::<usize>(), 0u8..3),
            (ulps, phi) in (-4i64..5, 0.0f64..std::f64::consts::TAU),
            (fx, fy) in (0.0f64..=1.0, 0.0f64..=1.0),
            duty_seed in any::<u64>(),
        ) {
            let mut cfg = CellConfig::standard(nx, ny, 1);
            cfg.pitch_m = [1.5, 2.5, 3.3, 4.0][pitch];
            cfg.optics.semi_angle_deg = match integer_mode_semi_angles().get(semi) {
                Some(&integer) => integer,
                None => 30.0,
            };
            cfg.optics.rx_fov_deg = if whole_grid == 0 { 89.0 } else { fov };
            cfg.policy = HandoverPolicy { hysteresis_db, dwell_ticks: 1, assoc_delay_ticks: 3 };
            let mut eng = EventEngine::new(&cfg, sim_parts(&cfg, 3), 3);
            let room = eng.parts.room;
            let mut duty = desim::DetRng::seed_from_u64(duty_seed);
            for st in &mut eng.parts.lums {
                st.led = match place {
                    2 => 0.5,
                    _ if duty.chance(0.2) => 0.0,
                    _ => duty.next_f64(),
                };
            }
            let n = cfg.n_cells();
            let center = eng.parts.grid[lum % n].pos;
            let (pos, serving) = match place {
                0 => (Position { x_m: fx * room.width_m, y_m: fy * room.depth_m }, serving % n),
                1 => {
                    let edge = room.drop_m * cfg.optics.rx_fov_deg.to_radians().tan();
                    let r = edge * (1.0 + ulps as f64 * f64::EPSILON);
                    let at = Position { x_m: center.x_m + r * phi.cos(), y_m: center.y_m + r * phi.sin() };
                    (room.clamp(at), serving % n)
                }
                _ => {
                    // The corner above and right of `lum`'s cell, served
                    // by `lum` or a neighbour.
                    let corner = Position { x_m: center.x_m + cfg.pitch_m / 2.0, y_m: center.y_m + cfg.pitch_m / 2.0 };
                    let near = [0, 1, cfg.nx, cfg.nx + 1][serving % 4];
                    (room.clamp(corner), (lum % n + near) % n)
                }
            };
            eng.parts.users[0].pos = pos;
            eng.parts.assocs[0] = Association::new(serving);
            check_survey(&mut eng);
        }
    }

    #[test]
    fn grant_conservation_violations_are_counted() {
        // A walked engine queued no grants, so every user is eligible at
        // the TDMA phase with none pending, and at the end no user's
        // grant and outage ticks add up to the run.
        let cfg = CellConfig::standard(2, 2, 3);
        let mut eng = walked_engine(&cfg);
        eng.on_tdma(&mut Scheduler::new());
        assert_eq!(eng.violations, 3);
        let rec = obs::Recorder::new();
        obs::with_recorder(&rec, || eng.finish(0, 0));
        let counted = rec
            .snapshot()
            .counters
            .into_iter()
            .find(|(k, _)| k == "sim.cell.invariant_violations");
        let want = cfg!(feature = "telemetry").then(|| ("sim.cell.invariant_violations".into(), 6));
        assert_eq!(counted, want);

        // A whole run keeps the law, so the counter is never emitted.
        let rec = obs::Recorder::new();
        obs::with_recorder(&rec, || run_cell_event(&cfg, 5));
        let snap = rec.snapshot();
        assert!(!snap
            .counters
            .iter()
            .any(|(k, _)| k == "sim.cell.invariant_violations"));
    }
}
