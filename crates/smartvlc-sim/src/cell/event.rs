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
use vlc_channel::link::ChannelConfig;

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
    /// Per-user handle of the pending `Grant` event, if one is queued.
    grant: Vec<Option<EventHandle>>,
    /// First tick at which each user's current outage has fully elapsed.
    outage_until: Vec<u32>,
    members: Vec<u32>,
    rss: Vec<f64>,
    /// Scratch: ascending ids of the luminaires inside the window.
    cand: Vec<usize>,
    /// Per user: `(cell, path gain)` for every luminaire in the window
    /// around the user's current position, ascending cell id — written by
    /// the user's `Walk`, read by its link estimate and grant in the same
    /// tick (position is fixed from `Walk` on).
    gains: Vec<Vec<(usize, f64)>>,
    /// The run's luminaire→user channel, [`cell_channel`] but for the
    /// path gain and the ambient, which each operating point supplies.
    channel: ChannelConfig,
    /// Horizontal range beyond which received power is exactly 0 W
    /// (FoV cutoff), padded so float rounding can only *include* cells.
    window_r_m: f64,
    /// Grid cell pitch along x/y as `ceiling_grid` computed it.
    dx_m: f64,
    dy_m: f64,
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
        // Beyond drop·tan(FoV) the path's cos θ = drop/d falls below
        // cos FoV and `PathGain::at` returns exactly 0.0; the padding
        // absorbs rounding at the boundary (inclusion is always safe —
        // an included far cell just contributes exact zeros).
        let fov = cfg.optics.rx_fov_deg;
        let window_r_m = if fov < 89.0 {
            parts.room.drop_m * fov.to_radians().tan() * (1.0 + 1e-9) + 1e-6
        } else {
            f64::INFINITY
        };
        // `detector_for_gain` reads neither the geometry nor (once the
        // operating point sets it) the ambient of this template.
        let origin = Position { x_m: 0.0, y_m: 0.0 };
        let channel = cell_channel(&cfg.optics, &parts.room, &origin, &origin, 0.0);
        EventEngine {
            cfg,
            tallies: RunTallies::new(cfg.n_users),
            base_lux: 0.0,
            tick: 0,
            next_tick: 0,
            grant: vec![None; cfg.n_users],
            outage_until: vec![0; cfg.n_users],
            members: vec![0; n_cells],
            rss: vec![0.0; n_cells],
            cand: Vec::with_capacity(n_cells.min(64)),
            gains: vec![Vec::new(); cfg.n_users],
            channel,
            window_r_m,
            dx_m: parts.room.width_m / cfg.nx as f64,
            dy_m: parts.room.depth_m / cfg.ny as f64,
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

    /// Ascending ids of every luminaire whose center lies within the
    /// FoV window box around `pos` — a superset of all cells with
    /// nonzero received power, read straight off the regular grid.
    fn fill_window(&mut self, pos: &Position) {
        self.cand.clear();
        let (ix_lo, ix_hi) = axis_range(pos.x_m, self.window_r_m, self.dx_m, self.cfg.nx);
        let (iy_lo, iy_hi) = axis_range(pos.y_m, self.window_r_m, self.dy_m, self.cfg.ny);
        for j in iy_lo..=iy_hi {
            for i in ix_lo..=ix_hi {
                self.cand.push(j * self.cfg.nx + i);
            }
        }
    }

    /// The slot detector of the path from `cell` to `user` under this
    /// tick's ambient at the user. The path gain is the one this tick's
    /// `Walk` computed, or the closed form's for a cell outside the
    /// user's window.
    fn operating_point(&mut self, user: usize, cell: usize) -> SlotDetector {
        self.tallies.operating_points += 1;
        let pos = self.parts.users[user].pos;
        let gains = &self.gains[user];
        let gain = match gains.binary_search_by_key(&cell, |&(i, _)| i) {
            Ok(at) => gains[at].1,
            Err(_) => self.parts.path_gain.at(&self.parts.grid[cell].pos, &pos),
        };
        let mut channel = self.channel;
        channel.ambient_lux = self.lux_at(&pos);
        channel.detector_for_gain(gain, 1.0, false)
    }

    /// This tick's ambient at `pos`.
    fn lux_at(&self, pos: &Position) -> f64 {
        (self.base_lux * window_gain(&self.parts.room, pos)).max(0.0)
    }

    /// Co-channel interference σ (A) at `user` from its window's
    /// luminaires other than those `skip` rejects — bit for bit
    /// [`super::interference_sigma_a`] over the same cells, in id order,
    /// from the path gains this tick's `Walk` computed.
    fn sigma_cci(&self, user: usize, skip: impl Fn(usize) -> bool) -> f64 {
        let var: f64 = self.gains[user]
            .iter()
            .filter(|&&(i, _)| !skip(i))
            .map(|&(i, g)| interference_var_from_gain(&self.cfg.optics, g, self.parts.lums[i].led))
            .sum();
        var.sqrt()
    }

    fn schedule_next(
        &self,
        sched: &mut Scheduler<CellEvent>,
        ev: CellEvent,
    ) -> Option<EventHandle> {
        let next = self.tick + 1;
        if next < self.cfg.ticks {
            Some(sched.schedule_keyed(tick_time(self.cfg, next), ev.order_key(), ev))
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

    /// RSS over the window around `user` (plus the serving cell, wherever
    /// it is) into `rss`, candidates into `cand`: everything outside is
    /// exactly 0 W, so the subset ranking is bit-identical to a scan of
    /// the whole grid. The window's path gains are kept in `gains` for
    /// this tick's link estimate and grant.
    fn survey(&mut self, user: usize) {
        let pos = self.parts.users[user].pos;
        let serving = self.parts.assocs[user].serving;
        let optics = &self.cfg.optics;
        self.fill_window(&pos);
        let gains = &mut self.gains[user];
        gains.clear();
        let path = self.parts.path_gain;
        for &i in &self.cand {
            let g = path.at(&self.parts.grid[i].pos, &pos);
            gains.push((i, g));
            self.rss[i] = rss_from_gain(optics, g, self.parts.lums[i].led);
        }
        if let Err(at) = self.cand.binary_search(&serving) {
            self.cand.insert(at, serving);
            let g = path.at(&self.parts.grid[serving].pos, &pos);
            self.rss[serving] = rss_from_gain(optics, g, self.parts.lums[serving].led);
        }
    }

    fn on_walk(&mut self, sched: &mut Scheduler<CellEvent>, t: SimTime, user: usize) {
        let cfg = self.cfg;
        self.parts.users[user].step(&self.parts.room, &cfg.mobility, cfg.tick_s);
        self.survey(user);

        if let Some(ev) = self.parts.assocs[user].step_subset(&self.rss, &self.cand, &cfg.policy) {
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
                let until_new = self.tick + delay;
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
            debug_assert!(!self.eligible[u] || self.grant[u].is_some());
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
        for &(i, g) in &self.gains[user] {
            if i == serving {
                continue;
            }
            let sig = interference_var_from_gain(&cfg.optics, g, self.parts.lums[i].led).sqrt();
            var += sig * sig;
            if sig > 0.0 && dominant.is_none_or(|(_, s)| sig > s) {
                dominant = Some((i, sig));
            }
        }
        let sigma_cci = var.sqrt();
        let noisy =
            SlotDetector::from_levels(det.mu_on_a, det.mu_off_a, det.sigma_a.hypot(sigma_cci));
        let probs = noisy.error_probs();
        let p_slot = 0.5 * (probs.p_off_error + probs.p_on_error);
        let slots_per_frame = (cfg.frame_bits / rate / self.channel.tslot_s).max(1.0);
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
            let slots_per_frame = (cfg.frame_bits / rate / self.channel.tslot_s).max(1.0);
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
            slots_equivalent: t.served_ticks as f64 * (cfg.tick_s / self.channel.tslot_s),
            events,
            queue_peak,
        }
    }
}

/// Index window along one grid axis: every cell whose center coordinate
/// `(i + 0.5) · pitch` lies within `r` of `center`, clamped to the grid.
fn axis_range(center: f64, r: f64, pitch: f64, n: usize) -> (usize, usize) {
    let lo = ((center - r) / pitch - 0.5).ceil().max(0.0);
    let hi = ((center + r) / pitch - 0.5).floor().min((n - 1) as f64);
    if hi < lo {
        // Can only happen for degenerate optics (FoV window narrower
        // than half a pitch); an empty window means every cell is at
        // exactly 0 W, which the handover machine treats as "stay put".
        (0, 0)
    } else {
        (lo as usize, hi as usize)
    }
}

/// The event-core implementation behind [`super::run_cell`].
pub(crate) fn run_cell_event(cfg: &CellConfig, seed: u64) -> CellReport {
    assert!(cfg.n_cells() >= 1, "need at least one luminaire");
    assert!(cfg.n_users >= 1, "need at least one user");
    assert!(cfg.tick_s > 0.0 && cfg.ticks > 0, "need a positive horizon");
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
    use crate::cell::received_power_w;

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

    #[test]
    fn axis_range_covers_the_window_and_clamps_to_the_grid() {
        // 8 cells at 2.5 m pitch, centers at 1.25, 3.75, ..., 18.75.
        let (lo, hi) = axis_range(10.0, 6.05, 2.5, 8);
        assert_eq!((lo, hi), (2, 5)); // centers 6.25..=13.75 within ±6.05
        let (lo, hi) = axis_range(0.0, 6.05, 2.5, 8);
        assert_eq!((lo, hi), (0, 1));
        let (lo, hi) = axis_range(20.0, 6.05, 2.5, 8);
        assert_eq!((lo, hi), (6, 7));
        // A window wider than the room covers everything.
        let (lo, hi) = axis_range(5.0, f64::INFINITY, 2.5, 8);
        assert_eq!((lo, hi), (0, 7));
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
    /// the closed-form gain through [`ChannelConfig::detector_for_gain`].
    fn direct(eng: &EventEngine, user: usize, cell: usize) -> SlotDetector {
        let pos = eng.parts.users[user].pos;
        let gain = eng.parts.path_gain.at(&eng.parts.grid[cell].pos, &pos);
        let mut channel = eng.channel;
        channel.ambient_lux = eng.lux_at(&pos);
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
            // `rss` is scratch shared by all users: check it right after
            // this user's walk.
            eng.on_walk(&mut sched, tick_time(&cfg, 1), user);
            let (optics, room) = (&cfg.optics, &eng.parts.room);
            let pos = eng.parts.users[user].pos;
            let serving = eng.parts.assocs[user].serving;
            let window = &eng.gains[user];
            assert!(window.len() > 1, "user {user} sees one luminaire");
            for &(i, _) in window {
                let lum = &eng.parts.grid[i].pos;
                let led = eng.parts.lums[i].led;
                let want = received_power_w(optics, room, lum, &pos, led);
                assert_eq!(eng.rss[i].to_bits(), want.to_bits(), "rss of cell {i}");
                // The link estimate's per-interferer σ.
                let g = window.iter().find(|w| w.0 == i).unwrap().1;
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
            let mut eng = EventEngine::new(&cfg, sim_parts(&cfg, 3), 3);
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
                eng.fill_window(pos);
                for lum in &eng.parts.grid {
                    if eng.parts.path_gain.at(&lum.pos, pos) > 0.0 {
                        if lum.pos.horizontal_distance(pos) > edge * (1.0 - 1e-9) {
                            edge_lit += 1;
                        }
                        assert!(
                            eng.cand.contains(&lum.id),
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
}
