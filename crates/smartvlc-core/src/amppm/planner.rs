//! The AMPPM planner: dimming level in, best super-symbol out.
//!
//! This is the component labelled "AMPPM best pattern selection" in the
//! paper's architecture diagram (Fig. 2). It runs the Step 1–3 pipeline
//! (candidate enumeration + envelope) once per configuration, then serves
//! per-level queries out of a table indexed by the quantized dimming
//! level — the same quantized value the transmitter puts in the frame
//! header, so a receiver running the same planner over the same
//! [`SystemConfig`] reconstructs the identical super-symbol without any
//! further signalling.

use super::candidates::{candidate_patterns, Candidate};
use super::envelope::Envelope;
use super::mixer::{fold, rate_bound, Mix, Pair};
use super::super_symbol::SuperSymbol;
use crate::config::SystemConfig;
use crate::dimming::DimmingLevel;
use combinat::BinomialTable;
use smartvlc_obs as obs;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Highest degradation tier the self-healing link may request (tier 0 is
/// the paper's nominal operating point). Each tier replans the candidate
/// set under pessimistically inflated slot error probabilities (×3 per
/// tier) with a proportionally relaxed SER budget (×2 per tier), so the
/// surviving patterns are shorter and survive a degraded channel; the
/// frame header carries the tier so the receiver re-derives the identical
/// plan with no extra signalling.
pub const MAX_DEGRADE_TIER: u8 = 3;

/// A fully-resolved transmission plan for one dimming level.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SuperSymbolPlan {
    /// The super-symbol to modulate payload data with.
    pub super_symbol: SuperSymbol,
    /// The dimming level the super-symbol actually realizes.
    pub achieved: DimmingLevel,
    /// The (quantized) level that was requested.
    pub requested: DimmingLevel,
    /// Normalized data rate, bits per slot.
    pub norm_rate: f64,
    /// Predicted goodput in bit/s: `norm_rate · ftx · (1 − mean SER)`.
    pub rate_bps: f64,
    /// Multiplicity-weighted mean symbol error rate of the constituents.
    pub expected_ser: f64,
}

/// Why the planner could not produce a plan.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanError {
    /// No symbol pattern survives the SER/flicker filters — the config is
    /// unusable (e.g. SER bound below the smallest symbol's error floor).
    NoCandidates,
    /// The requested level lies outside the envelope's dimming range.
    OutOfRange {
        /// The level that was asked for.
        requested: f64,
        /// Lowest supported level.
        min: f64,
        /// Highest supported level.
        max: f64,
    },
    /// No multiplicity combination fits within `Nmax` (only possible with
    /// pathological `fth`/`ftx` combos where `Nmax < N` of the bracket).
    NoFit,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NoCandidates => {
                write!(f, "no symbol pattern satisfies the SER and flicker bounds")
            }
            PlanError::OutOfRange {
                requested,
                min,
                max,
            } => write!(
                f,
                "dimming level {requested:.4} outside supported range [{min:.4}, {max:.4}]"
            ),
            PlanError::NoFit => write!(f, "no multiplexing fits within Nmax"),
        }
    }
}

impl std::error::Error for PlanError {}

/// The Step 1–3 artifacts of one tier: deterministic functions of the
/// tier's configuration.
struct PlannerShared {
    candidates: Vec<Candidate>,
    envelope: Envelope,
}

impl PlannerShared {
    fn build(cfg: &SystemConfig, table: &BinomialTable) -> Result<PlannerShared, PlanError> {
        let candidates = candidate_patterns(cfg, table);
        let envelope = Envelope::build(&candidates).ok_or(PlanError::NoCandidates)?;
        Ok(PlannerShared {
            candidates,
            envelope,
        })
    }
}

/// One tier's answers, one cell per quantized level.
type PlanTable = Box<[OnceLock<Result<SuperSymbolPlan, PlanError>>]>;

/// Everything a planner derives from its [`SystemConfig`]: a pure
/// function of the config, so one instance per distinct config serves
/// the whole process ([`PlannerCore::intern`]). Degraded tiers and each
/// tier's plan table are built on first use.
struct PlannerCore {
    cfg: SystemConfig,
    table: Arc<BinomialTable>,
    /// Quantized levels on the header grid: `0..=quantize_dimming(1.0)`.
    levels: usize,
    nominal: PlannerShared,
    /// Step 1–3 artifacts of tiers `1..=MAX_DEGRADE_TIER`.
    degraded: [OnceLock<Result<PlannerShared, PlanError>>; MAX_DEGRADE_TIER as usize],
    plans: [OnceLock<PlanTable>; MAX_DEGRADE_TIER as usize + 1],
}

impl PlannerCore {
    /// The process-wide core for `cfg`, built on the first request. Like
    /// [`BinomialTable::shared`], the lock guards only the intern list:
    /// a slow build runs outside it, and a racing builder just wastes one
    /// build. The list stays short (one entry per distinct config), so a
    /// linear scan on `==` finds a core without hashing floats.
    fn intern(cfg: SystemConfig) -> Result<Arc<PlannerCore>, PlanError> {
        static CORES: Mutex<Vec<Arc<PlannerCore>>> = Mutex::new(Vec::new());
        let find = |cores: &[Arc<PlannerCore>]| cores.iter().find(|c| c.cfg == cfg).cloned();
        if let Some(core) = find(&CORES.lock().expect("planner intern list poisoned")) {
            return Ok(core);
        }
        let table = BinomialTable::shared(cfg.n_max_super().clamp(16, 512) as usize);
        let nominal = PlannerShared::build(&cfg, &table)?;
        let mut cores = CORES.lock().expect("planner intern list poisoned");
        if let Some(core) = find(&cores) {
            return Ok(core);
        }
        let core = Arc::new(PlannerCore {
            levels: usize::from(cfg.quantize_dimming(1.0)) + 1,
            cfg,
            table,
            nominal,
            degraded: Default::default(),
            plans: Default::default(),
        });
        cores.push(Arc::clone(&core));
        Ok(core)
    }

    /// The answer at quantized level `q` and (clamped) `tier`, computed
    /// once per process.
    fn plan(&self, q: u16, tier: u8) -> &Result<SuperSymbolPlan, PlanError> {
        let plans = self.plans[usize::from(tier)]
            .get_or_init(|| (0..self.levels).map(|_| OnceLock::new()).collect());
        plans[usize::from(q)].get_or_init(|| {
            let tier_cfg = self.tier_config(tier);
            let shared = match tier {
                0 => &self.nominal,
                t => self.degraded[usize::from(t) - 1]
                    .get_or_init(|| PlannerShared::build(&tier_cfg, &self.table))
                    .as_ref()
                    .map_err(Clone::clone)?,
            };
            plan_level(shared, &tier_cfg, self.cfg.dequantize_dimming(q))
        })
    }

    /// The effective configuration at degradation tier `tier`: slot error
    /// probabilities ×3 per tier (capped at 0.4), SER budget ×2 per tier
    /// (capped at 0.5), and the minimum symbol length relaxed so short
    /// rugged patterns remain admissible under the inflated errors.
    fn tier_config(&self, tier: u8) -> SystemConfig {
        let mut cfg = self.cfg.clone();
        if tier == 0 {
            return cfg;
        }
        let p_scale = 3f64.powi(tier as i32);
        cfg.slot_errors.p_off_error = (cfg.slot_errors.p_off_error * p_scale).min(0.4);
        cfg.slot_errors.p_on_error = (cfg.slot_errors.p_on_error * p_scale).min(0.4);
        cfg.ser_upper_bound = (cfg.ser_upper_bound * 2f64.powi(tier as i32)).min(0.5);
        cfg.n_min = cfg.n_min.clamp(2, 4);
        cfg
    }
}

/// The AMPPM pattern planner (Fig. 2's "best pattern selection" block).
///
/// Plans are a pure function of `(config, quantized level, tier)`, so
/// they are interned per process: every planner built from an equal
/// [`SystemConfig`] — a cell run's, each link task's frame codec, a
/// day-long run's — reads one shared plan table and one binomial table
/// ([`BinomialTable::shared`]), and each level is planned once.
///
/// The `core.planner.cache_hits`/`cache_misses` counters stay per
/// instance: each [`AmppmPlanner::new`] gets its own first-touch set,
/// shared by its clones, and a call counts a miss exactly when it is the
/// first (by an atomic bit flip, whatever the thread interleaving) to
/// ask this instance for its `(level, tier)`. A level without a plan
/// counts a miss on every call. So the counters are a function of the
/// calls made, not of what other planners planned first.
#[derive(Clone)]
pub struct AmppmPlanner {
    core: Arc<PlannerCore>,
    /// First-touch bits, `tier · levels + q`.
    touched: Arc<[AtomicU64]>,
}

impl AmppmPlanner {
    /// A planner for `cfg`: runs candidate enumeration (Steps 1–2) and the
    /// envelope walk (Step 3) unless an equal configuration already has.
    pub fn new(cfg: SystemConfig) -> Result<AmppmPlanner, PlanError> {
        let core = PlannerCore::intern(cfg)?;
        let bits = core.levels * (usize::from(MAX_DEGRADE_TIER) + 1);
        let touched = (0..bits.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        Ok(AmppmPlanner { core, touched })
    }

    /// The configuration the planner was built from.
    pub fn config(&self) -> &SystemConfig {
        &self.core.cfg
    }

    /// All admissible candidates (Step 2 output) — the point cloud of
    /// Figs. 8 and 9.
    pub fn candidates(&self) -> &[Candidate] {
        &self.core.nominal.candidates
    }

    /// The throughput envelope (Step 3 output) — the solid line of Fig. 9.
    pub fn envelope(&self) -> &Envelope {
        &self.core.nominal.envelope
    }

    /// The process-shared binomial table (handy for callers that need
    /// symbol metrics).
    pub fn table(&self) -> &BinomialTable {
        &self.core.table
    }

    /// An owning handle to the shared binomial table, for callers that
    /// fan work out across threads.
    pub fn table_arc(&self) -> Arc<BinomialTable> {
        Arc::clone(&self.core.table)
    }

    /// Plan the best super-symbol for `target` (Step 4). The target is
    /// first quantized to the header grid; each grid point is planned once
    /// per process.
    pub fn plan(&self, target: DimmingLevel) -> Result<SuperSymbolPlan, PlanError> {
        self.plan_tiered(target, 0)
    }

    /// Like [`AmppmPlanner::plan`], but at degradation tier `tier`
    /// (clamped to [`MAX_DEGRADE_TIER`]). Tier 0 is the nominal plan;
    /// each higher tier re-runs candidate selection under slot error
    /// probabilities inflated ×3 per tier against an SER budget relaxed
    /// ×2 per tier, yielding shorter, sturdier patterns at a lower rate.
    /// The plan is still a pure function of `(config, level, tier)`, so a
    /// receiver reading the tier from the frame header reconstructs the
    /// identical super-symbol.
    pub fn plan_tiered(
        &self,
        target: DimmingLevel,
        tier: u8,
    ) -> Result<SuperSymbolPlan, PlanError> {
        let tier = tier.min(MAX_DEGRADE_TIER);
        let q = self.core.cfg.quantize_dimming(target.value());
        let plan = self.core.plan(q, tier).clone();
        if plan.is_err() || self.first_touch(q, tier) {
            obs::counter_add(obs::key!("core.planner.cache_misses"), 1);
        } else {
            obs::counter_add(obs::key!("core.planner.cache_hits"), 1);
        }
        plan
    }

    /// Mark `(q, tier)` touched; true if this call was the first.
    fn first_touch(&self, q: u16, tier: u8) -> bool {
        let i = usize::from(tier) * self.core.levels + usize::from(q);
        let bit = 1u64 << (i % 64);
        self.touched[i / 64].fetch_or(bit, Ordering::Relaxed) & bit == 0
    }

    /// Like [`AmppmPlanner::plan`] but clamps out-of-range targets to the
    /// nearest supported level — what the live transmitter does when
    /// ambient light swings beyond the data-carrying range.
    pub fn plan_clamped(&self, target: DimmingLevel) -> Result<SuperSymbolPlan, PlanError> {
        let (min, max) = self.envelope().dimming_range();
        let l = DimmingLevel::clamped(target.value().clamp(min, max));
        self.plan(l)
    }

    /// Number of distinct levels this planner (with its clones) has
    /// planned so far.
    pub fn cache_len(&self) -> usize {
        self.touched
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }
}

/// Step 4 for one level `l` of a tier with artifacts `shared` and
/// configuration `cfg`.
fn plan_level(
    shared: &PlannerShared,
    cfg: &SystemConfig,
    l: f64,
) -> Result<SuperSymbolPlan, PlanError> {
    let (min, max) = shared.envelope.dimming_range();
    let (left, right) = shared.envelope.bracket(l).ok_or(PlanError::OutOfRange {
        requested: l,
        min,
        max,
    })?;
    let (left, right) = (*left, *right);
    let n_max = cfg.n_max_super().min(u32::MAX as u64) as u32;

    // Step 4, refined: the hull edge fixes the dimming span, but any
    // candidate *pair* inside that span can realize the target — often
    // with far finer granularity than the two edge endpoints alone
    // (e.g. S(27,8)+S(27,9) hits 0.2998 exactly where the hull edge
    // S(27,8)+S(29,11) can only get within 1.4e-3). The super-symbol
    // still uses at most two patterns, as the paper requires; we pick
    // the pair minimizing dimming error, then maximizing rate.
    let span_lo = left.dimming();
    let span_hi = right.dimming();
    let lows: Vec<Candidate> = shared
        .candidates
        .iter()
        .filter(|c| c.dimming() >= span_lo && c.dimming() <= l)
        .copied()
        .collect();
    let highs: Vec<Candidate> = shared
        .candidates
        .iter()
        .filter(|c| c.dimming() >= l && c.dimming() <= span_hi)
        .copied()
        .collect();
    // A dimming error within half the header quantum is indistinguishable
    // on the wire, so such mixes compete purely on rate.
    let tolerance = cfg.dimming_quantum / 2.0;
    // The hull edge's best in-tolerance rate is a floor no winner
    // falls below (ties within 1e-12 cannot drift 1e-6 over a few
    // hundred pairs), so a pair whose chord bound sits under it holds
    // nothing that could change the fold.
    let edge = Pair::new(&left, &right, l, n_max).best_in_tolerance(tolerance);
    let floor = edge.map_or(f64::NEG_INFINITY, |m| m.norm_rate - 1e-6);
    let mut in_tolerance = edge.is_some();
    let mut mix: Option<Mix> = None;
    for a in &lows {
        for b in &highs {
            if rate_bound(a, b, l, tolerance) < floor {
                continue;
            }
            let pair = Pair::new(a, b, l, n_max);
            let m = match pair.best_in_tolerance(tolerance) {
                Some(m) => Some(m),
                // An out-of-tolerance mix never displaces an
                // in-tolerance one, so once the answer is known to be
                // in tolerance a pair without such a mix is moot.
                None if in_tolerance => None,
                None => pair.full_scan(tolerance),
            };
            if let Some(m) = m {
                in_tolerance |= m.dimming_error <= tolerance;
                fold(&mut mix, m, tolerance);
            }
        }
    }
    let mix = mix.ok_or(PlanError::NoFit)?;
    let ser1 = cfg.slot_errors.symbol_error_rate(mix.super_symbol.s1());
    let ser2 = cfg.slot_errors.symbol_error_rate(mix.super_symbol.s2());
    let ser = mix.super_symbol.mean_symbol_error_rate(ser1, ser2);
    Ok(SuperSymbolPlan {
        super_symbol: mix.super_symbol,
        achieved: DimmingLevel::clamped(mix.dimming),
        requested: DimmingLevel::clamped(l),
        norm_rate: mix.norm_rate,
        rate_bps: mix.norm_rate * cfg.ftx_hz as f64 * (1.0 - ser),
        expected_ser: ser,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planner() -> AmppmPlanner {
        AmppmPlanner::new(SystemConfig::default()).unwrap()
    }

    fn lv(l: f64) -> DimmingLevel {
        DimmingLevel::new(l).unwrap()
    }

    #[test]
    fn plans_all_17_paper_levels() {
        // Fig. 15 evaluates 17 levels 0.1, 0.15, ..., 0.9.
        let p = planner();
        for i in 2..=18 {
            let l = i as f64 / 20.0;
            let plan = p.plan(lv(l)).unwrap();
            // The super-symbol realizes the level within the header quantum.
            assert!(
                (plan.achieved.value() - l).abs() <= p.config().dimming_quantum,
                "l={l}: achieved {:?}",
                plan.achieved
            );
            assert!(plan.super_symbol.n_super() <= p.config().n_max_super() as u32);
        }
    }

    #[test]
    fn rate_peaks_near_half() {
        let p = planner();
        let mid = p.plan(lv(0.5)).unwrap().rate_bps;
        let low = p.plan(lv(0.1)).unwrap().rate_bps;
        let high = p.plan(lv(0.9)).unwrap().rate_bps;
        assert!(mid > low && mid > high);
        // Paper calibration: peak raw rate ~107 Kbps (0.857 * 125k).
        assert!(mid > 100_000.0 && mid < 125_000.0, "mid={mid}");
    }

    #[test]
    fn amppm_beats_mppm_n20_at_every_level() {
        // The Fig. 15 headline: AMPPM >= MPPM(N=20) at all 17 levels.
        let p = planner();
        for i in 2..=18 {
            let l = i as f64 / 20.0;
            let plan = p.plan(lv(l)).unwrap();
            let k = (l * 20.0).round() as u16;
            let mppm = crate::symbol::SymbolPattern::new(20, k).unwrap();
            let mppm_rate = mppm.bits_per_symbol(p.table()) as f64 / 20.0;
            assert!(
                plan.norm_rate >= mppm_rate - 1e-12,
                "l={l}: {} < {mppm_rate}",
                plan.norm_rate
            );
        }
    }

    #[test]
    fn cache_hits_identical_plans() {
        let p = planner();
        let a = p.plan(lv(0.33)).unwrap();
        let before = p.cache_len();
        let b = p.plan(lv(0.33)).unwrap();
        assert_eq!(a, b);
        assert_eq!(p.cache_len(), before);
        // A level within the same quantum maps to the same plan.
        let c = p.plan(lv(0.33 + 1e-5)).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn receiver_reproduces_plan_from_quantized_level() {
        // TX and RX planners built from the same config must agree given
        // the header's quantized level — the premise of our 4-byte Pattern
        // field design.
        let tx = planner();
        let rx = planner();
        for i in 0..50 {
            let l = 0.08 + i as f64 * 0.017;
            let a = tx.plan_clamped(lv(l.min(1.0))).unwrap();
            let b = rx.plan_clamped(lv(l.min(1.0))).unwrap();
            assert_eq!(a.super_symbol, b.super_symbol, "l={l}");
        }
    }

    #[test]
    fn extreme_levels_plan_or_clamp() {
        let p = planner();
        // Degenerate candidates take the envelope to [0,1]; the plans at
        // the extremes carry zero bits but hold the light level.
        let plan = p.plan(lv(0.0)).unwrap();
        assert_eq!(plan.norm_rate, 0.0);
        assert_eq!(plan.achieved.value(), 0.0);
        let plan = p.plan(lv(1.0)).unwrap();
        assert_eq!(plan.achieved.value(), 1.0);
        // plan_clamped is a no-op inside the range.
        let a = p.plan(lv(0.42)).unwrap();
        let b = p.plan_clamped(lv(0.42)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn no_candidates_is_reported() {
        let cfg = SystemConfig {
            ser_upper_bound: 1e-12,
            ..SystemConfig::default()
        };
        assert_eq!(AmppmPlanner::new(cfg).err(), Some(PlanError::NoCandidates));
    }

    #[test]
    fn expected_ser_below_bound() {
        let p = planner();
        for i in 2..=18 {
            let plan = p.plan(lv(i as f64 / 20.0)).unwrap();
            assert!(plan.expected_ser <= p.config().ser_upper_bound + 1e-12);
        }
    }

    /// `(hits, misses)` on `rec`'s planner counters; (0, 0) when
    /// telemetry is compiled out.
    fn counts(rec: &obs::Recorder) -> (u64, u64) {
        let counters = rec.snapshot().counters;
        let get = |name: &str| counters.iter().find(|c| c.0 == name).map_or(0, |c| c.1);
        (
            get("core.planner.cache_hits"),
            get("core.planner.cache_misses"),
        )
    }

    /// [`counts`] of the planner calls `f` makes on this thread.
    fn counted(f: impl FnOnce()) -> (u64, u64) {
        let rec = obs::Recorder::new();
        obs::with_recorder(&rec, f);
        counts(&rec)
    }

    /// What [`counts`] reports for `(hits, misses)` in this build.
    fn expect_counts(hits: u64, misses: u64) -> (u64, u64) {
        if cfg!(feature = "telemetry") {
            (hits, misses)
        } else {
            (0, 0)
        }
    }

    #[test]
    fn clones_share_cache_and_table() {
        let p = planner();
        let q = p.clone();
        assert!(Arc::ptr_eq(&p.table_arc(), &q.table_arc()));
        assert!(Arc::ptr_eq(&p.core, &q.core));
        let a = p.plan(lv(0.37)).unwrap();
        // The clone shares the first-touch set: the level is a hit there.
        assert_eq!(q.cache_len(), p.cache_len());
        let counts = counted(|| assert_eq!(q.plan(lv(0.37)).unwrap(), a));
        assert_eq!(counts, expect_counts(1, 0));
        // ...and levels planned via the clone count in the original.
        let before = p.cache_len();
        q.plan(lv(0.61)).unwrap();
        assert_eq!(p.cache_len(), before + 1);
    }

    #[test]
    fn shared_cache_is_thread_safe() {
        // Four threads race over the same 17 levels of one instance:
        // whatever the interleaving, each level is a miss exactly once.
        let p = planner();
        let rec = obs::Recorder::new();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for i in 0..4 {
                let (p, rec, start) = (p.clone(), rec.clone(), &start);
                s.spawn(move || {
                    start.wait();
                    obs::with_recorder(&rec, || {
                        for j in 2..=18 {
                            let l = j as f64 / 20.0;
                            let plan = p.plan(lv(l)).unwrap();
                            assert!(plan.rate_bps >= 0.0, "worker {i} l={l}");
                        }
                    })
                });
            }
        });
        assert_eq!(p.cache_len(), 17);
        assert_eq!(counts(&rec), expect_counts(3 * 17, 17));
    }

    #[test]
    fn new_planners_share_the_interned_table_but_count_alone() {
        let cfg = SystemConfig::default();
        let a = AmppmPlanner::new(cfg.clone()).unwrap();
        let levels: Vec<DimmingLevel> = (0..=20).map(|i| lv(i as f64 / 20.0)).collect();
        let plans: Vec<_> = levels.iter().map(|&l| a.plan(l)).collect();
        let b = AmppmPlanner::new(cfg).unwrap();
        assert!(Arc::ptr_eq(&a.core, &b.core), "equal configs must intern");
        assert_eq!(b.cache_len(), 0, "first-touch sets are per instance");
        // Every level is already planned process-wide, yet each is still
        // a miss the first time `b` asks for it, and a hit after.
        let counts = counted(|| {
            for (&l, want) in levels.iter().zip(&plans) {
                assert_eq!(&b.plan(l), want, "l={l:?}");
                assert_eq!(&b.plan(l), want, "l={l:?}");
            }
        });
        assert_eq!(counts, expect_counts(21, 21));
        assert_eq!(b.cache_len(), 21);
        // Tiers count apart: a level touched at tier 0 misses at tier 1.
        let counts = counted(|| {
            b.plan_tiered(levels[7], 1).unwrap();
            b.plan_tiered(levels[7], 1).unwrap();
        });
        assert_eq!(counts, expect_counts(1, 1));
        assert_eq!(b.cache_len(), 22);
        // A different config gets its own core.
        let other = AmppmPlanner::new(SystemConfig::paper_optimistic()).unwrap();
        assert!(!Arc::ptr_eq(&a.core, &other.core));
    }

    #[test]
    fn unplannable_levels_miss_on_every_call() {
        // Lossy "off" slots leave only near-full-on patterns: the envelope
        // spans [0.9, 1], so 0.5 has no plan. The error is interned like
        // a plan, but each call still counts a miss, and nothing counts
        // as planned.
        let mut cfg = SystemConfig::default();
        cfg.slot_errors.p_off_error = 1e-3;
        let p = AmppmPlanner::new(cfg).unwrap();
        assert_eq!(p.envelope().dimming_range(), (0.9, 1.0));
        let counts = counted(|| {
            for _ in 0..3 {
                let err = p.plan(lv(0.5)).unwrap_err();
                assert!(matches!(err, PlanError::OutOfRange { .. }), "{err:?}");
            }
            p.plan(lv(0.95)).unwrap();
        });
        assert_eq!(counts, expect_counts(0, 4));
        assert_eq!(p.cache_len(), 1);
    }

    #[test]
    fn tiers_trade_rate_for_ruggedness() {
        let p = planner();
        for i in 2..=18 {
            let l = lv(i as f64 / 20.0);
            let mut prev_rate = f64::INFINITY;
            for tier in 0..=MAX_DEGRADE_TIER {
                let plan = p.plan_tiered(l, tier).unwrap();
                // Rate never increases with tier...
                assert!(
                    plan.norm_rate <= prev_rate + 1e-12,
                    "l={:?} tier={tier}: {} > {prev_rate}",
                    l,
                    plan.norm_rate
                );
                prev_rate = plan.norm_rate;
                // ...and the realized level stays on target.
                assert!(
                    (plan.achieved.value() - l.value()).abs() <= p.config().dimming_quantum,
                    "l={l:?} tier={tier}: achieved {:?}",
                    plan.achieved
                );
            }
            // The top tier is materially sturdier: strictly shorter
            // constituent symbols than the nominal plan at mid dimming.
            if (0.3..=0.7).contains(&l.value()) {
                let t0 = p.plan_tiered(l, 0).unwrap();
                let t3 = p.plan_tiered(l, MAX_DEGRADE_TIER).unwrap();
                assert!(
                    t3.super_symbol.s1().n() < t0.super_symbol.s1().n(),
                    "l={l:?}: tier3 n={} vs tier0 n={}",
                    t3.super_symbol.s1().n(),
                    t0.super_symbol.s1().n()
                );
            }
        }
    }

    #[test]
    fn tier_zero_is_the_nominal_plan() {
        let p = planner();
        assert_eq!(p.plan(lv(0.5)).unwrap(), p.plan_tiered(lv(0.5), 0).unwrap());
        // Tiers beyond the maximum clamp to it.
        assert_eq!(
            p.plan_tiered(lv(0.5), MAX_DEGRADE_TIER).unwrap(),
            p.plan_tiered(lv(0.5), 200).unwrap()
        );
    }

    #[test]
    fn tiered_plans_reproduce_across_planners() {
        // The header carries (quantized level, tier); independently built
        // planners must agree on the super-symbol for every pair.
        let tx = planner();
        let rx = planner();
        for tier in 0..=MAX_DEGRADE_TIER {
            for i in 1..=9 {
                let l = lv(i as f64 / 10.0);
                let a = tx.plan_tiered(l, tier).unwrap();
                let b = rx.plan_tiered(l, tier).unwrap();
                assert_eq!(a.super_symbol, b.super_symbol, "l={l:?} tier={tier}");
            }
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let a = planner();
        let b = planner();
        for i in 1..=99 {
            let l = i as f64 / 100.0;
            assert_eq!(a.plan(lv(l)).unwrap(), b.plan(lv(l)).unwrap(), "l={l}");
        }
    }
}
