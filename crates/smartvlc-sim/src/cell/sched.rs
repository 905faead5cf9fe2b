//! Pluggable per-cell TDMA scheduling policies.
//!
//! The cell simulation historically hard-coded equal-share TDMA: every
//! associated user owns `1/members` of its serving cell's planned AMPPM
//! rate, outage or not. That policy survives here as [`EqualShare`] —
//! bit-identical to the historical arithmetic, so the committed cell
//! artifacts did not move — next to two policies that actually use the
//! multi-cell headroom BENCH_cell exposes (~0.78 of served user-ticks
//! are interference-limited even on small grids):
//!
//! * [`ProportionalFair`] — classic PF: serve, each tick, the user
//!   maximizing `r_est / R_ewma^α`, where `r_est` is the instantaneous
//!   deliverable rate through the operating-point cache and `R_ewma`
//!   the EWMA of the user's achieved rate. `α` (the fairness exponent)
//!   interpolates from max-throughput (`α = 0`) through classic PF
//!   (`α = 1`) toward max-min-like fairness (`α > 1`).
//! * [`CoordinatedEdge`] — equal-share airtime, plus inter-cell
//!   coordination for *cell-edge* users: when a user's estimated SINR
//!   margin falls below a threshold and the link is
//!   interference-limited, the **dominant interferer** is asked to
//!   either blank (transmit nothing — its interference term vanishes)
//!   or jointly serve (transmit the same slots — its swing adds to the
//!   signal) during that user's slice. Donated airtime is charged
//!   against the donor cell's own capacity.
//!
//! # Determinism contract
//!
//! Schedulers run inside the event core's `TdmaReschedule` phase and
//! must be pure functions of `(ScheduleContext, own state)`:
//!
//! * iterate users and cells in **ascending id order** only;
//! * break ties toward the **lowest user id** (strict `>` comparisons
//!   while scanning ascending ids do this for free);
//! * fold EWMA state in fixed user-id order at each reschedule;
//! * draw no randomness and read no ambient state outside the context.
//!
//! Under those rules a policy run is a pure function of `(cfg, seed)`
//! and byte-identical at any `SMARTVLC_THREADS`, like every other
//! battery. docs/SCHEDULING.md walks through the math and a worked
//! 2-cell example; DESIGN.md §14 states the contract precisely.
//!
//! # Example
//!
//! Build a policy from its serializable spec and run one reschedule by
//! hand (the event core does exactly this each tick):
//!
//! ```
//! use smartvlc_sim::cell::sched::{ScheduleContext, SchedulerSpec, TickPlan};
//!
//! // One cell at 1 Mbit/s planned rate, two eligible users.
//! let members = [2u32];
//! let rate_bps = [1.0e6];
//! let serving = [0usize, 0];
//! let eligible = [true, true];
//! let ctx = ScheduleContext {
//!     tick: 0,
//!     members: &members,
//!     rate_bps: &rate_bps,
//!     serving: &serving,
//!     eligible: &eligible,
//!     estimates: &[],
//! };
//!
//! let mut sched = SchedulerSpec::EqualShare.build();
//! assert!(!sched.needs_link_estimates());
//! let mut plan = TickPlan::new(2);
//! sched.reschedule(&ctx, &mut plan);
//! // Equal share: each user gets half the cell's rate and airtime.
//! assert_eq!(plan.grant_bps(0), 0.5e6);
//! assert_eq!(plan.airtime(1), 0.5);
//! assert!(plan.coord(0).is_none());
//! ```

/// Floor on the EWMA achieved rate in the PF priority denominator, bit/s
/// — keeps a cold-start (all-zero) history from producing infinite
/// priorities while still letting starved users dominate the metric.
pub const PF_RATE_FLOOR_BPS: f64 = 1e3;

/// Per-user link estimate the event core computes at the
/// `TdmaReschedule` phase (through the operating-point cache, at the
/// user's current position and the tick's ambient) for policies that
/// ask for it via [`CellScheduler::needs_link_estimates`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkEstimate {
    /// Deliverable rate if granted the whole cell this tick, bit/s:
    /// planned AMPPM rate × analytic frame success probability.
    pub rate_bps: f64,
    /// Estimated electrical SINR at the slot detector, dB: signal swing
    /// against receiver noise plus co-channel interference.
    pub sinr_db: f64,
    /// Whether co-channel interference σ exceeds the channel's own
    /// noise σ (the battery's "interference-limited" notion).
    pub interference_limited: bool,
    /// The single interfering cell contributing the largest interference
    /// σ, if any contributes a nonzero one (ties break to the lowest
    /// cell id).
    pub dominant_cell: Option<usize>,
}

/// A coordination grant attached to one user's slice: the dominant
/// interferer either goes silent or transmits the same slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoordGrant {
    /// The donating (dominant interferer) cell.
    pub donor: usize,
    /// `true`: the donor jointly serves (its signal swing adds to the
    /// user's). `false`: the donor blanks (its interference vanishes).
    pub joint_serve: bool,
}

/// What the scheduler decides for one tick: per-user granted rate,
/// per-user airtime fraction of the serving cell, and optional
/// coordination grants.
///
/// `grant_bps` is the delivery contract (the event core multiplies it by
/// the frame success probability and the tick length); `airtime` is the
/// bookkeeping ledger the conservation property tests check: for every
/// cell, its members' airtime fractions plus the fractions it donates to
/// other cells' edge users must not exceed 1.
#[derive(Clone, Debug, Default)]
pub struct TickPlan {
    grant_bps: Vec<f64>,
    airtime: Vec<f64>,
    coord: Vec<Option<CoordGrant>>,
}

impl TickPlan {
    /// An empty plan for `n_users` users (all grants zero).
    pub fn new(n_users: usize) -> TickPlan {
        TickPlan {
            grant_bps: vec![0.0; n_users],
            airtime: vec![0.0; n_users],
            coord: vec![None; n_users],
        }
    }

    /// Clear every grant (start of a reschedule).
    pub fn reset(&mut self, n_users: usize) {
        self.grant_bps.clear();
        self.grant_bps.resize(n_users, 0.0);
        self.airtime.clear();
        self.airtime.resize(n_users, 0.0);
        self.coord.clear();
        self.coord.resize(n_users, None);
    }

    /// Grant `user` a rate of `bps` over `airtime` of its serving
    /// cell's tick.
    pub fn set_grant(&mut self, user: usize, bps: f64, airtime: f64) {
        self.grant_bps[user] = bps;
        self.airtime[user] = airtime;
    }

    /// Attach a coordination grant to `user`'s slice.
    pub fn set_coord(&mut self, user: usize, grant: CoordGrant) {
        self.coord[user] = Some(grant);
    }

    /// The rate granted to `user` this tick, bit/s (0 = not scheduled).
    pub fn grant_bps(&self, user: usize) -> f64 {
        self.grant_bps[user]
    }

    /// The airtime fraction granted to `user` this tick.
    pub fn airtime(&self, user: usize) -> f64 {
        self.airtime[user]
    }

    /// The coordination grant attached to `user`'s slice, if any.
    pub fn coord(&self, user: usize) -> Option<CoordGrant> {
        self.coord[user]
    }

    /// Number of users this plan covers.
    pub fn len(&self) -> usize {
        self.grant_bps.len()
    }

    /// Whether the plan covers zero users.
    pub fn is_empty(&self) -> bool {
        self.grant_bps.is_empty()
    }
}

/// Everything a scheduler may read when recomputing grants at the
/// `TdmaReschedule` phase. All slices are indexed by cell or user id;
/// the values are this tick's (senses and walks have already fired).
#[derive(Clone, Copy, Debug)]
pub struct ScheduleContext<'a> {
    /// The tick being scheduled.
    pub tick: u32,
    /// Per cell: associated users (outage or not — the slot reservation
    /// the handover machine relies on).
    pub members: &'a [u32],
    /// Per cell: planned AMPPM rate at the current LED level, bit/s.
    pub rate_bps: &'a [f64],
    /// Per user: serving cell id.
    pub serving: &'a [usize],
    /// Per user: whether a grant event fires this tick (false during
    /// association outage — the user's slot stays reserved but nothing
    /// can be delivered).
    pub eligible: &'a [bool],
    /// Per user: link estimates, or **empty** when the active policy's
    /// [`CellScheduler::needs_link_estimates`] returned `false` (the
    /// estimates cost one operating-point query per eligible user per
    /// tick, so the equal-share path skips them to stay bit-identical
    /// to the historical scheduler, opcache accounting included).
    pub estimates: &'a [LinkEstimate],
}

impl<'a> ScheduleContext<'a> {
    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.serving.len()
    }

    /// Number of cells.
    pub fn n_cells(&self) -> usize {
        self.members.len()
    }
}

/// Counters a policy accumulates over a run; folded into the
/// [`CellReport`](super::CellReport) and the `sim.cell.sched.*`
/// telemetry at the end.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Coordination grants issued (one per edge user per tick granted).
    pub coord_grants: u64,
    /// Coordination requests dropped because the donor cell's airtime
    /// ledger was exhausted.
    pub coord_blocked: u64,
}

/// A deterministic per-cell TDMA scheduling policy.
///
/// The event core calls [`reschedule`](CellScheduler::reschedule) once
/// per tick at the `TdmaReschedule` phase (after senses and walks,
/// before grants) and [`on_delivered`](CellScheduler::on_delivered)
/// once per granted user as each grant fires, in ascending user-id
/// order. Implementations must follow the determinism contract in the
/// [module docs](self) (fixed iteration order, lowest-id tie-breaks, no
/// randomness); DESIGN.md §14 spells it out.
pub trait CellScheduler: Send {
    /// Stable policy name (the BENCH_cell JSON key).
    fn name(&self) -> &'static str;

    /// Whether [`ScheduleContext::estimates`] must be populated. The
    /// estimates cost one operating-point query per eligible user per
    /// tick; [`EqualShare`] declines so its opcache accounting stays
    /// bit-identical to the historical scheduler.
    fn needs_link_estimates(&self) -> bool {
        false
    }

    /// Recompute this tick's grants into `plan` (already reset to
    /// `ctx.n_users()` zeroed entries).
    fn reschedule(&mut self, ctx: &ScheduleContext<'_>, plan: &mut TickPlan);

    /// Observe one fired grant: `achieved_bps` is the rate actually
    /// delivered over the tick (granted rate × frame success; 0 when the
    /// user held no grant). Called in ascending user-id order.
    fn on_delivered(&mut self, _user: usize, _achieved_bps: f64) {}

    /// Run-level counters for the report (default: all zero).
    fn stats(&self) -> SchedStats {
        SchedStats::default()
    }
}

/// Scheduler selection for [`CellConfig`](super::CellConfig) — a plain
/// value, so the config stays `Copy` while the policy object itself is
/// built per run via [`SchedulerSpec::build`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum SchedulerSpec {
    /// Equal round-robin TDMA shares — the historical policy, bit-exact.
    #[default]
    EqualShare,
    /// Proportional-fair: serve `argmax r_est / R_ewma^α` per cell per
    /// tick.
    ProportionalFair {
        /// EWMA window in ticks (the achieved-rate average forgets with
        /// constant `1/ewma_ticks` per tick). Must be ≥ 1.
        ewma_ticks: u32,
        /// Fairness exponent α ≥ 0: 0 = max throughput, 1 = classic PF,
        /// larger = closer to max-min fairness.
        fairness_exp: f64,
    },
    /// Equal shares plus dominant-interferer coordination for cell-edge
    /// users.
    CoordinatedEdge {
        /// Coordinate users whose estimated SINR falls below this, dB
        /// (only when the link is also interference-limited).
        sinr_margin_db: f64,
        /// `true`: donors jointly serve; `false`: donors blank.
        joint_serve: bool,
    },
}

impl SchedulerSpec {
    /// Proportional fair at the battery defaults: a 5-second window
    /// (50 × 100 ms ticks) and classic `α = 1`.
    pub fn proportional_fair() -> SchedulerSpec {
        SchedulerSpec::ProportionalFair {
            ewma_ticks: 50,
            fairness_exp: 1.0,
        }
    }

    /// Coordinated edge at the battery defaults: joint serving below a
    /// 9 dB SINR margin (roughly the bottom quartile of served ticks on
    /// the reference 4×4 grid).
    pub fn coordinated_edge() -> SchedulerSpec {
        SchedulerSpec::CoordinatedEdge {
            sinr_margin_db: 9.0,
            joint_serve: true,
        }
    }

    /// Stable policy name (the BENCH_cell JSON key).
    pub fn name(&self) -> &'static str {
        match *self {
            SchedulerSpec::EqualShare => "equal_share",
            SchedulerSpec::ProportionalFair { .. } => "proportional_fair",
            SchedulerSpec::CoordinatedEdge { .. } => "coordinated_edge",
        }
    }

    /// Build the policy object for one run.
    pub fn build(&self) -> Box<dyn CellScheduler> {
        match *self {
            SchedulerSpec::EqualShare => Box::new(EqualShare),
            SchedulerSpec::ProportionalFair {
                ewma_ticks,
                fairness_exp,
            } => Box::new(ProportionalFair::new(ewma_ticks, fairness_exp)),
            SchedulerSpec::CoordinatedEdge {
                sinr_margin_db,
                joint_serve,
            } => Box::new(CoordinatedEdge::new(sinr_margin_db, joint_serve)),
        }
    }
}

/// Equal round-robin TDMA: every associated user owns `1/members` of its
/// serving cell's planned rate, outage or not.
///
/// This reproduces the historical scheduler **bit for bit** — same
/// division order (`rate / members`), no extra operating-point queries —
/// which is what keeps the pinned `cell_fingerprints` table and the
/// BENCH_cell byte gate meaningful across the refactor.
///
/// ```
/// use smartvlc_sim::cell::sched::{EqualShare, CellScheduler, ScheduleContext, TickPlan};
///
/// // Two cells: cell 0 has 3 members (one in outage), cell 1 has 1.
/// let ctx = ScheduleContext {
///     tick: 7,
///     members: &[3, 1],
///     rate_bps: &[9.0e5, 4.0e5],
///     serving: &[0, 0, 0, 1],
///     eligible: &[true, true, false, true],
///     estimates: &[],
/// };
/// let mut plan = TickPlan::new(4);
/// EqualShare.reschedule(&ctx, &mut plan);
/// assert_eq!(plan.grant_bps(0), 3.0e5); // a third of cell 0's rate
/// assert_eq!(plan.grant_bps(2), 0.0);   // in outage: slot reserved, nothing granted
/// assert_eq!(plan.grant_bps(3), 4.0e5); // alone in cell 1
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct EqualShare;

impl CellScheduler for EqualShare {
    fn name(&self) -> &'static str {
        "equal_share"
    }

    fn reschedule(&mut self, ctx: &ScheduleContext<'_>, plan: &mut TickPlan) {
        for u in 0..ctx.n_users() {
            if !ctx.eligible[u] {
                continue;
            }
            let c = ctx.serving[u];
            let m = ctx.members[c].max(1);
            // The exact historical expression: rate / members, in this
            // division order (NOT rate × (1/members) — that rounds
            // differently and would break the bit-identity gate).
            plan.set_grant(u, ctx.rate_bps[c] / m as f64, 1.0 / m as f64);
        }
    }
}

/// Proportional-fair scheduling with an EWMA achieved-rate history.
///
/// Each tick, each cell serves the single eligible member maximizing
/// `r_est / max(R_ewma, floor)^α` — the whole cell rate goes to the
/// winner, everyone else in the cell waits. Users whose history decays
/// (they lost recent contests, or sat in outage) see their priority
/// climb until they win again; `α` controls how hard the history bites.
///
/// ```
/// use smartvlc_sim::cell::sched::{
///     CellScheduler, LinkEstimate, ProportionalFair, ScheduleContext, TickPlan,
/// };
///
/// let est = |rate_bps| LinkEstimate { rate_bps, ..Default::default() };
/// let ctx = ScheduleContext {
///     tick: 0,
///     members: &[2],
///     rate_bps: &[1.0e6],
///     serving: &[0, 0],
///     eligible: &[true, true],
///     estimates: &[est(8.0e5), est(6.0e5)],
/// };
/// let mut pf = ProportionalFair::new(50, 1.0);
/// assert!(pf.needs_link_estimates());
///
/// // Cold start: equal (floored) histories, so the better channel wins.
/// let mut plan = TickPlan::new(2);
/// pf.reschedule(&ctx, &mut plan);
/// assert_eq!(plan.grant_bps(0), 1.0e6);
/// assert_eq!(plan.grant_bps(1), 0.0);
///
/// // User 0 banks its achieved rate; its history now dwarfs user 1's,
/// // so the next contest goes the other way.
/// pf.on_delivered(0, 8.0e5);
/// pf.on_delivered(1, 0.0);
/// let mut plan = TickPlan::new(2);
/// pf.reschedule(&ctx, &mut plan);
/// assert_eq!(plan.grant_bps(0), 0.0);
/// assert_eq!(plan.grant_bps(1), 1.0e6);
/// ```
#[derive(Clone, Debug)]
pub struct ProportionalFair {
    ewma_ticks: u32,
    fairness_exp: f64,
    /// Per-user EWMA of achieved rate, bit/s (fixed-order folds only).
    avg_bps: Vec<f64>,
    /// Per-user achieved rate since the last fold.
    inst_bps: Vec<f64>,
    /// Scratch: per-cell best (priority, user).
    best: Vec<Option<(f64, usize)>>,
}

impl ProportionalFair {
    /// A PF scheduler with the given EWMA window (ticks, ≥ 1) and
    /// fairness exponent (≥ 0, finite).
    pub fn new(ewma_ticks: u32, fairness_exp: f64) -> ProportionalFair {
        assert!(ewma_ticks >= 1, "EWMA window must be at least one tick");
        assert!(
            fairness_exp.is_finite() && fairness_exp >= 0.0,
            "fairness exponent must be finite and >= 0"
        );
        ProportionalFair {
            ewma_ticks,
            fairness_exp,
            avg_bps: Vec::new(),
            inst_bps: Vec::new(),
            best: Vec::new(),
        }
    }

    /// This user's current EWMA achieved rate, bit/s (0 before any fold).
    pub fn ewma_bps(&self, user: usize) -> f64 {
        self.avg_bps.get(user).copied().unwrap_or(0.0)
    }
}

impl CellScheduler for ProportionalFair {
    fn name(&self) -> &'static str {
        "proportional_fair"
    }

    fn needs_link_estimates(&self) -> bool {
        true
    }

    fn reschedule(&mut self, ctx: &ScheduleContext<'_>, plan: &mut TickPlan) {
        let n = ctx.n_users();
        self.avg_bps.resize(n, 0.0);
        self.inst_bps.resize(n, 0.0);
        self.best.clear();
        self.best.resize(ctx.n_cells(), None);

        // Fold last tick's deliveries into the history — fixed user-id
        // order, every user every tick (outage decays like a loss).
        let beta = 1.0 / self.ewma_ticks as f64;
        for u in 0..n {
            self.avg_bps[u] = (1.0 - beta) * self.avg_bps[u] + beta * self.inst_bps[u];
            self.inst_bps[u] = 0.0;
        }

        // Contest: ascending user ids with a strict `>` keeps the
        // lowest id on priority ties.
        for u in 0..n {
            if !ctx.eligible[u] {
                continue;
            }
            let c = ctx.serving[u];
            if ctx.rate_bps[c] <= 0.0 {
                continue;
            }
            let pri = ctx.estimates[u].rate_bps
                / self.avg_bps[u]
                    .max(PF_RATE_FLOOR_BPS)
                    .powf(self.fairness_exp);
            if self.best[c].is_none_or(|(best_pri, _)| pri > best_pri) {
                self.best[c] = Some((pri, u));
            }
        }
        for c in 0..ctx.n_cells() {
            if let Some((_, u)) = self.best[c] {
                plan.set_grant(u, ctx.rate_bps[c], 1.0);
            }
        }
    }

    fn on_delivered(&mut self, user: usize, achieved_bps: f64) {
        if user < self.inst_bps.len() {
            self.inst_bps[user] += achieved_bps;
        }
    }
}

/// Equal-share airtime plus dominant-interferer coordination for
/// cell-edge users.
///
/// Users whose estimated SINR sits below `sinr_margin_db` **and** whose
/// link is interference-limited get a [`CoordGrant`]: their dominant
/// interferer either blanks or jointly serves during their slice. The
/// donated airtime is charged to the donor cell's ledger — its own
/// members' shares shrink by the donated fraction — and a donor whose
/// ledger would overflow declines further requests
/// ([`SchedStats::coord_blocked`]). A user is never granted by two
/// cells independently: its data grant always comes from its serving
/// cell, and at most one donor is attached to it (the conservation
/// property the scheduling test suite checks).
///
/// ```
/// use smartvlc_sim::cell::sched::{
///     CellScheduler, CoordinatedEdge, LinkEstimate, ScheduleContext, TickPlan,
/// };
///
/// // Two cells, one user each. User 0 sits at the cell edge: low SINR,
/// // interference-limited, dominated by cell 1.
/// let edge = LinkEstimate {
///     rate_bps: 2.0e5,
///     sinr_db: 3.0,
///     interference_limited: true,
///     dominant_cell: Some(1),
/// };
/// let centre = LinkEstimate {
///     rate_bps: 9.0e5,
///     sinr_db: 30.0,
///     interference_limited: false,
///     dominant_cell: Some(0),
/// };
/// let ctx = ScheduleContext {
///     tick: 0,
///     members: &[1, 1],
///     rate_bps: &[1.0e6, 1.0e6],
///     serving: &[0, 1],
///     eligible: &[true, true],
///     estimates: &[edge, centre],
/// };
/// let mut ce = CoordinatedEdge::new(9.0, true);
/// let mut plan = TickPlan::new(2);
/// ce.reschedule(&ctx, &mut plan);
///
/// // The edge user keeps its serving-cell grant and gains a donor…
/// let cg = plan.coord(0).expect("edge user is coordinated");
/// assert_eq!(cg.donor, 1);
/// // …and the donor cell's own member pays for it with capacity.
/// assert_eq!(plan.airtime(1), 0.0); // cell 1 donated its whole tick
/// assert!(plan.coord(1).is_none());
/// assert_eq!(ce.stats().coord_grants, 1);
/// ```
#[derive(Clone, Debug)]
pub struct CoordinatedEdge {
    sinr_margin_db: f64,
    joint_serve: bool,
    stats: SchedStats,
    /// Scratch: per-cell donated airtime fraction this tick.
    donated: Vec<f64>,
}

impl CoordinatedEdge {
    /// A coordinated-edge scheduler with the given SINR threshold (dB)
    /// and donor mode (`joint_serve` true = transmit with, false =
    /// blank).
    pub fn new(sinr_margin_db: f64, joint_serve: bool) -> CoordinatedEdge {
        assert!(sinr_margin_db.is_finite(), "SINR margin must be finite");
        CoordinatedEdge {
            sinr_margin_db,
            joint_serve,
            stats: SchedStats::default(),
            donated: Vec::new(),
        }
    }
}

impl CellScheduler for CoordinatedEdge {
    fn name(&self) -> &'static str {
        "coordinated_edge"
    }

    fn needs_link_estimates(&self) -> bool {
        true
    }

    fn reschedule(&mut self, ctx: &ScheduleContext<'_>, plan: &mut TickPlan) {
        self.donated.clear();
        self.donated.resize(ctx.n_cells(), 0.0);

        // Pass 1 (ascending user ids): edge users request their dominant
        // interferer as donor; the donor's ledger caps at a full tick.
        for u in 0..ctx.n_users() {
            if !ctx.eligible[u] {
                continue;
            }
            let c = ctx.serving[u];
            if ctx.rate_bps[c] <= 0.0 {
                continue;
            }
            let est = &ctx.estimates[u];
            if est.sinr_db >= self.sinr_margin_db || !est.interference_limited {
                continue;
            }
            let Some(donor) = est.dominant_cell else {
                continue;
            };
            debug_assert_ne!(donor, c, "a cell cannot dominate its own user");
            let f = 1.0 / ctx.members[c].max(1) as f64;
            if self.donated[donor] + f > 1.0 + 1e-12 {
                self.stats.coord_blocked += 1;
                continue;
            }
            self.donated[donor] += f;
            plan.set_coord(
                u,
                CoordGrant {
                    donor,
                    joint_serve: self.joint_serve,
                },
            );
            self.stats.coord_grants += 1;
        }

        // Pass 2: equal shares scaled by what the serving cell has left
        // after its donations. Cells that donate nothing keep a capacity
        // factor of exactly 1.0, so their grants stay bit-identical to
        // plain equal share.
        for u in 0..ctx.n_users() {
            if !ctx.eligible[u] {
                continue;
            }
            let c = ctx.serving[u];
            let m = ctx.members[c].max(1);
            let cap = (1.0 - self.donated[c]).max(0.0);
            plan.set_grant(u, ctx.rate_bps[c] / m as f64 * cap, cap / m as f64);
        }
    }

    fn stats(&self) -> SchedStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(
        members: &'a [u32],
        rate_bps: &'a [f64],
        serving: &'a [usize],
        eligible: &'a [bool],
        estimates: &'a [LinkEstimate],
    ) -> ScheduleContext<'a> {
        ScheduleContext {
            tick: 0,
            members,
            rate_bps,
            serving,
            eligible,
            estimates,
        }
    }

    #[test]
    fn equal_share_reproduces_the_historical_expression() {
        let c = ctx(&[3], &[9.9e5], &[0, 0, 0], &[true, true, true], &[]);
        let mut plan = TickPlan::new(3);
        EqualShare.reschedule(&c, &mut plan);
        for u in 0..3 {
            // Bit-exact: same division, same order.
            assert_eq!(plan.grant_bps(u).to_bits(), (9.9e5_f64 / 3.0).to_bits());
        }
    }

    #[test]
    fn pf_ties_break_to_the_lowest_user_id() {
        let est = [LinkEstimate::default(), LinkEstimate::default()];
        let c = ctx(&[2], &[1.0e6], &[0, 0], &[true, true], &est);
        let mut pf = ProportionalFair::new(10, 1.0);
        let mut plan = TickPlan::new(2);
        pf.reschedule(&c, &mut plan);
        assert_eq!(plan.grant_bps(0), 1.0e6, "lowest id wins a dead tie");
        assert_eq!(plan.grant_bps(1), 0.0);
    }

    #[test]
    fn pf_alpha_zero_is_max_throughput() {
        let est = |r| LinkEstimate {
            rate_bps: r,
            ..Default::default()
        };
        let ests = [est(1.0e5), est(9.0e5)];
        let c = ctx(&[2], &[1.0e6], &[0, 0], &[true, true], &ests);
        let mut pf = ProportionalFair::new(10, 0.0);
        // Bank a huge history for user 1 — α = 0 must ignore it.
        pf.reschedule(&c, &mut TickPlan::new(2));
        pf.on_delivered(1, 1.0e9);
        let mut plan = TickPlan::new(2);
        pf.reschedule(&c, &mut plan);
        assert_eq!(plan.grant_bps(1), 1.0e6);
    }

    #[test]
    fn pf_skips_outage_users_and_dead_cells() {
        let ests = [LinkEstimate::default(); 3];
        let c = ctx(
            &[1, 1, 1],
            &[1.0e6, 0.0, 1.0e6],
            &[0, 1, 2],
            &[false, true, true],
            &ests,
        );
        let mut pf = ProportionalFair::new(10, 1.0);
        let mut plan = TickPlan::new(3);
        pf.reschedule(&c, &mut plan);
        assert_eq!(plan.grant_bps(0), 0.0, "outage user not schedulable");
        assert_eq!(plan.grant_bps(1), 0.0, "zero-rate cell grants nothing");
        assert_eq!(plan.grant_bps(2), 1.0e6);
    }

    #[test]
    fn coordinated_edge_charges_the_donor_ledger() {
        let edge = LinkEstimate {
            rate_bps: 1.0e5,
            sinr_db: 1.0,
            interference_limited: true,
            dominant_cell: Some(1),
        };
        // Cell 0: two members, one at the edge dominated by cell 1.
        // Cell 1: one member, healthy.
        let ests = [edge, LinkEstimate::default(), LinkEstimate::default()];
        let c = ctx(
            &[2, 1],
            &[1.0e6, 1.0e6],
            &[0, 0, 1],
            &[true, true, true],
            &ests,
        );
        let mut ce = CoordinatedEdge::new(9.0, false);
        let mut plan = TickPlan::new(3);
        ce.reschedule(&c, &mut plan);
        // Edge user: coordinated, donor = 1, blanking mode.
        let cg = plan.coord(0).unwrap();
        assert_eq!((cg.donor, cg.joint_serve), (1, false));
        // Cell 0 donated nothing: its members keep exact equal shares.
        assert_eq!(plan.grant_bps(0).to_bits(), (1.0e6_f64 / 2.0).to_bits());
        assert_eq!(plan.grant_bps(1).to_bits(), (1.0e6_f64 / 2.0).to_bits());
        // Cell 1 donated half a tick (the edge user's share): its own
        // member keeps the other half.
        assert_eq!(plan.grant_bps(2), 1.0e6 * 0.5);
        assert_eq!(plan.airtime(2), 0.5);
        assert_eq!(
            ce.stats(),
            SchedStats {
                coord_grants: 1,
                coord_blocked: 0
            }
        );
    }

    #[test]
    fn coordinated_edge_blocks_when_the_donor_is_exhausted() {
        // Three single-member cells all dominated by cell 0: the first
        // two requests (a full tick each at members=1… the first fills
        // the ledger) — only one fits.
        let edge = |dom| LinkEstimate {
            rate_bps: 1.0e5,
            sinr_db: 0.0,
            interference_limited: true,
            dominant_cell: Some(dom),
        };
        let ests = [LinkEstimate::default(), edge(0), edge(0)];
        let c = ctx(
            &[1, 1, 1],
            &[1.0e6; 3],
            &[0, 1, 2],
            &[true, true, true],
            &ests,
        );
        let mut ce = CoordinatedEdge::new(9.0, true);
        let mut plan = TickPlan::new(3);
        ce.reschedule(&c, &mut plan);
        assert!(plan.coord(1).is_some(), "first request fits");
        assert!(plan.coord(2).is_none(), "ledger exhausted");
        assert_eq!(ce.stats().coord_blocked, 1);
        // The donor's own member lost its whole tick to the donation.
        assert_eq!(plan.grant_bps(0), 0.0);
    }

    #[test]
    fn spec_builds_the_named_policy() {
        for (spec, name, needs) in [
            (SchedulerSpec::EqualShare, "equal_share", false),
            (
                SchedulerSpec::proportional_fair(),
                "proportional_fair",
                true,
            ),
            (SchedulerSpec::coordinated_edge(), "coordinated_edge", true),
        ] {
            let s = spec.build();
            assert_eq!(s.name(), name);
            assert_eq!(spec.name(), name);
            assert_eq!(s.needs_link_estimates(), needs);
        }
        assert_eq!(SchedulerSpec::default(), SchedulerSpec::EqualShare);
    }
}
