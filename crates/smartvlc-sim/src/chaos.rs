//! Chaos-mode scenario runner: scheduled channel faults against the
//! self-healing link.
//!
//! Each [`ChaosScenario`] pairs a human-readable name with a deterministic
//! [`FaultPlan`] — ambient spikes, occlusion bursts, LED clock drift,
//! symbol slips, receiver saturation, flaky uplinks, and one
//! kitchen-sink combination. A scenario run executes the *same seed*
//! twice: once fault-free (the control) and once with the plan injected,
//! so "goodput retained" compares a link to its own unperturbed twin
//! rather than to a different random draw.
//!
//! The suite fans out on [`crate::runner::par_sweep`], so the whole
//! chaos report is bit-identical at any `SMARTVLC_THREADS` — a faulty
//! recovery path that only manifests under one interleaving cannot hide.

use crate::runner::{par_sweep, TaskId};
use desim::{SimDuration, SimTime};
use smartvlc_core::frame::format::FecMode;
use smartvlc_link::link::RecoveryReport;
use smartvlc_link::{LinkConfig, LinkReport, LinkSimulation, SchemeKind};
use smartvlc_obs as obs;
use vlc_channel::ambient::ConstantAmbient;
use vlc_channel::faults::{FaultEvent, FaultKind, FaultPlan};

/// Distance used by every chaos scenario: a comfortably healthy link, so
/// any damage in the report is the fault's doing.
pub const CHAOS_DISTANCE_M: f64 = 3.0;
/// Constant office ambient during chaos runs, lux.
pub const CHAOS_AMBIENT_LUX: f64 = 4000.0;
/// Wall-clock length of each chaos run, seconds.
pub const CHAOS_DURATION_S: u64 = 4;
/// Nominal outer-code profile for the fec-on leg of the battery. Medium
/// (t = 8 per codeword) rides out the battery's partial occlusions
/// without a ladder transient, while still leaving one parity rung for
/// the degradation ladder to climb before it has to touch the AMPPM
/// tier.
pub const CHAOS_FEC_NOMINAL: FecMode = FecMode::Medium;

/// A named, reproducible fault schedule.
#[derive(Clone, Debug)]
pub struct ChaosScenario {
    /// Stable identifier (also the JSON key in `BENCH_chaos.json`).
    pub name: &'static str,
    /// One-line description of what goes wrong.
    pub description: &'static str,
    /// Schedule builder — pure, so every replicate sees the same plan.
    /// Constructed through [`crate::scenario::ChaosScenarioBuilder`].
    pub(crate) events: fn() -> Vec<FaultEvent>,
}

impl ChaosScenario {
    /// The scenario's fault plan.
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::new((self.events)())
    }
}

fn at_ms(ms: u64, dur_ms: u64, kind: FaultKind) -> FaultEvent {
    FaultEvent {
        at: SimTime::from_millis(ms),
        duration: SimDuration::millis(dur_ms),
        kind,
    }
}

fn ambient_spike_events() -> Vec<FaultEvent> {
    vec![
        // A step to near full-scale ambient (lights flicked on) …
        at_ms(1000, 800, FaultKind::AmbientStep { delta_lux: 4500.0 }),
        // … and a decaying glare impulse (camera flash / specular glint).
        at_ms(
            2600,
            400,
            FaultKind::AmbientImpulse {
                peak_lux: 6000.0,
                decay_s: 0.12,
            },
        ),
    ]
}

fn occlusion_burst_events() -> Vec<FaultEvent> {
    // A body clipping the edge of the beam: -5 dB for most of a second.
    // At the chaos operating point this puts the slot-error probability
    // near 1.4e-3 — a handful of slot errors in every frame, so each
    // uncoded CRC dies while the signal itself remains decodable. (The
    // original -17 dB full-body blockage is an information-theoretic
    // blackout no code can cross; it lives on in `deep_fade`.)
    vec![at_ms(1200, 800, FaultKind::Occlusion { gain: 0.32 })]
}

fn clock_drift_events() -> Vec<FaultEvent> {
    // LED driver clock running 400 ppm fast for two seconds: the
    // accumulated phase error surfaces as periodically inserted slots.
    vec![at_ms(800, 2000, FaultKind::ClockDrift { ppm: 400.0 })]
}

fn slip_storm_events() -> Vec<FaultEvent> {
    vec![
        at_ms(1000, 1, FaultKind::SymbolSlip { slots: 7 }),
        at_ms(1500, 1, FaultKind::SymbolSlip { slots: -5 }),
        at_ms(2000, 1, FaultKind::SymbolSlip { slots: 13 }),
        at_ms(2500, 1, FaultKind::SymbolSlip { slots: -11 }),
    ]
}

fn saturation_events() -> Vec<FaultEvent> {
    // Front end pinned at the ADC rail for 600 ms: total blackout, then
    // the receiver must resynchronize from cold.
    vec![at_ms(1500, 600, FaultKind::Saturation)]
}

fn uplink_flaky_events() -> Vec<FaultEvent> {
    vec![
        at_ms(1000, 2000, FaultKind::AckLoss { prob: 0.5 }),
        at_ms(1000, 2000, FaultKind::AckDup { prob: 0.3 }),
        at_ms(1000, 2000, FaultKind::AckJitter { extra_ms: 25.0 }),
    ]
}

fn deep_fade_events() -> Vec<FaultEvent> {
    // The worst case the outer code was built for: a glare spike and a
    // partial beam occlusion overlapping for over two seconds. Either
    // alone is survivable; combined they hold the slot-error probability
    // near 4e-3 for most of the run — every uncoded payload CRC in the
    // window fails (expected ~13 slot errors per frame), so ARQ-only
    // goodput collapses, while an escalated RS profile corrects the
    // damage in place. The -17 dB full blockage retired from
    // `occlusion_burst` reappears here as a short core inside the fade:
    // a stretch no code can cross, so recovery there must come from
    // resync + ARQ once the body moves on.
    vec![
        at_ms(700, 2600, FaultKind::AmbientStep { delta_lux: 200.0 }),
        at_ms(900, 2200, FaultKind::Occlusion { gain: 0.30 }),
        at_ms(1800, 300, FaultKind::Occlusion { gain: 0.02 }),
    ]
}

fn kitchen_sink_events() -> Vec<FaultEvent> {
    let mut ev = vec![
        at_ms(600, 600, FaultKind::AmbientStep { delta_lux: 3000.0 }),
        at_ms(1400, 500, FaultKind::Occlusion { gain: 0.05 }),
        at_ms(2100, 900, FaultKind::ClockDrift { ppm: 250.0 }),
        at_ms(2300, 1, FaultKind::SymbolSlip { slots: 9 }),
    ];
    ev.extend(uplink_flaky_events());
    ev
}

/// The standard scenario battery, in report order.
pub fn chaos_scenarios() -> Vec<ChaosScenario> {
    let sc = |name, description, events| {
        crate::scenario::ChaosScenarioBuilder::new(name)
            .description(description)
            .events(events)
            .build()
            .expect("static battery scenarios are valid")
    };
    vec![
        sc(
            "ambient_spike",
            "ambient step + decaying glare impulse",
            ambient_spike_events,
        ),
        sc(
            "occlusion_burst",
            "-5 dB partial beam occlusion for 800 ms",
            occlusion_burst_events,
        ),
        sc(
            "clock_drift",
            "LED clock 400 ppm fast for 2 s",
            clock_drift_events,
        ),
        sc(
            "slip_storm",
            "four discrete symbol slips, both signs",
            slip_storm_events,
        ),
        sc(
            "saturation",
            "receiver front end railed for 600 ms",
            saturation_events,
        ),
        sc(
            "uplink_flaky",
            "50% ACK loss + 30% dup + 25 ms jitter for 2 s",
            uplink_flaky_events,
        ),
        sc(
            "kitchen_sink",
            "everything above, overlapping",
            kitchen_sink_events,
        ),
        // Appended last so the per-task seed derivation of every scenario
        // above is untouched (seeds index by scenario position).
        sc(
            "deep_fade",
            "glare + partial occlusion overlapping, blackout core",
            deep_fade_events,
        ),
    ]
}

/// One replicate of one scenario: the faulted run and its same-seed
/// fault-free control.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// Goodput of the faulted run, bit/s.
    pub goodput_bps: f64,
    /// Goodput of the fault-free control at the same seed, bit/s.
    pub baseline_goodput_bps: f64,
    /// `goodput / baseline` (1.0 when the control moved no data either).
    pub goodput_retained: f64,
    /// Frames delivered only after ≥ 1 retransmission.
    pub late_deliveries: u64,
    /// Frames abandoned after the retry budget ("lost").
    pub frames_lost: u64,
    /// Self-healing metrics of the faulted run.
    pub recovery: RecoveryReport,
}

fn chaos_config(seed: u64, plan: FaultPlan, fec: FecMode) -> LinkConfig {
    let mut cfg = LinkConfig::paper_static(CHAOS_DISTANCE_M, SchemeKind::Amppm, seed);
    cfg.duration = SimDuration::secs(CHAOS_DURATION_S);
    cfg.faults = plan;
    cfg.fec = fec;
    cfg
}

fn run_once(seed: u64, plan: FaultPlan, fec: FecMode) -> LinkReport {
    let mut sim = LinkSimulation::new(chaos_config(seed, plan, fec)).expect("valid chaos scenario");
    sim.run(&mut ConstantAmbient {
        lux: CHAOS_AMBIENT_LUX,
    })
}

/// Run one scenario replicate at one FEC mode: faulted + control, both
/// from `seed`. `FecMode::Off` is the ARQ-only battery. Both runs carry
/// the *same* `fec`, so "goodput retained" still compares a link to its
/// own unperturbed twin: the parity airtime tax cancels out and the
/// ratio isolates what the faults destroyed.
pub fn run_chaos_scenario(scenario: &ChaosScenario, seed: u64, fec: FecMode) -> ChaosOutcome {
    obs::counter_add(obs::key!("sim.chaos.replicates"), 1);
    let faulted = run_once(seed, scenario.plan(), fec);
    let control = run_once(seed, FaultPlan::default(), fec);
    let goodput_retained = if control.mean_goodput_bps <= 0.0 {
        1.0
    } else {
        faulted.mean_goodput_bps / control.mean_goodput_bps
    };
    ChaosOutcome {
        goodput_bps: faulted.mean_goodput_bps,
        baseline_goodput_bps: control.mean_goodput_bps,
        goodput_retained,
        late_deliveries: faulted.recovery.late_deliveries,
        frames_lost: faulted.recovery.frames_abandoned,
        recovery: faulted.recovery,
    }
}

/// Per-scenario aggregate over the replicates.
#[derive(Clone, Debug)]
pub struct ChaosSummary {
    /// Scenario identifier.
    pub name: &'static str,
    /// Scenario description.
    pub description: &'static str,
    /// Mean goodput retained vs the same-seed control.
    pub mean_goodput_retained: f64,
    /// Worst replicate's goodput retained.
    pub min_goodput_retained: f64,
    /// Mean faulted goodput, bit/s.
    pub mean_goodput_bps: f64,
    /// Mean time from the last downlink fault clearing to the first
    /// clean frame, seconds — over replicates that have one.
    pub mean_resync_s: Option<f64>,
    /// Total late deliveries across replicates.
    pub late_deliveries: u64,
    /// Total frames abandoned across replicates.
    pub frames_lost: u64,
    /// Total receiver sync losses across replicates.
    pub sync_losses: u64,
    /// Total resync-budget overruns across replicates.
    pub resync_overruns: u64,
    /// Highest degradation tier any replicate reached.
    pub max_degrade_tier: u8,
    /// Total FEC symbols corrected in place across replicates (faulted
    /// runs only). Zero whenever the battery runs with FEC off.
    pub fec_corrected_symbols: u64,
    /// Total frames whose FEC decode failed (fell through to CRC+ARQ).
    pub fec_decode_failures: u64,
    /// Mean parity airtime overhead (coded/data − 1) across replicates.
    pub mean_fec_overhead: f64,
    /// The raw per-replicate outcomes (replicate order).
    pub outcomes: Vec<ChaosOutcome>,
}

fn summarize_scenario(sc: ChaosScenario, outcomes: Vec<ChaosOutcome>) -> ChaosSummary {
    let n = outcomes.len().max(1) as f64;
    let mean_goodput_retained = outcomes.iter().map(|o| o.goodput_retained).sum::<f64>() / n;
    let min_goodput_retained = outcomes
        .iter()
        .map(|o| o.goodput_retained)
        .fold(f64::INFINITY, f64::min)
        .min(1.0 + f64::EPSILON);
    let mean_goodput_bps = outcomes.iter().map(|o| o.goodput_bps).sum::<f64>() / n;
    let resyncs: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.recovery.resync_time_s)
        .collect();
    let mean_resync_s = if resyncs.is_empty() {
        None
    } else {
        Some(resyncs.iter().sum::<f64>() / resyncs.len() as f64)
    };
    ChaosSummary {
        name: sc.name,
        description: sc.description,
        mean_goodput_retained,
        min_goodput_retained,
        mean_goodput_bps,
        mean_resync_s,
        late_deliveries: outcomes.iter().map(|o| o.late_deliveries).sum(),
        frames_lost: outcomes.iter().map(|o| o.frames_lost).sum(),
        sync_losses: outcomes.iter().map(|o| o.recovery.sync_losses).sum(),
        resync_overruns: outcomes.iter().map(|o| o.recovery.resync_overruns).sum(),
        max_degrade_tier: outcomes
            .iter()
            .map(|o| o.recovery.max_degrade_tier)
            .max()
            .unwrap_or(0),
        fec_corrected_symbols: outcomes
            .iter()
            .map(|o| o.recovery.fec_corrected_symbols)
            .sum(),
        fec_decode_failures: outcomes
            .iter()
            .map(|o| o.recovery.fec_decode_failures)
            .sum(),
        mean_fec_overhead: outcomes
            .iter()
            .map(|o| o.recovery.fec_overhead_ratio)
            .sum::<f64>()
            / n,
        outcomes,
    }
}

/// One scenario's ARQ-only and FEC-on summaries, same seeds.
#[derive(Clone, Debug)]
pub struct ChaosFecComparison {
    /// The ARQ-only leg (`FecMode::Off`).
    pub off: ChaosSummary,
    /// The coded leg at [`CHAOS_FEC_NOMINAL`], same seeds.
    pub on: ChaosSummary,
}

impl ChaosFecComparison {
    /// How much goodput-retained the outer code buys on this scenario.
    pub fn goodput_retained_delta(&self) -> f64 {
        self.on.mean_goodput_retained - self.off.mean_goodput_retained
    }
}

/// Run the whole battery, `replicates` seeds per scenario fanned out on
/// the deterministic runner, twice per seed — FEC off and FEC on — so
/// every scenario reports what the outer code buys under identical
/// faults.
///
/// Each leg's outcome is exactly a [`run_chaos_scenario`] call at the
/// task's seed: the coded run draws from its own simulation RNG.
pub fn run_chaos_suite_fec(replicates: usize, base_seed: u64) -> Vec<ChaosFecComparison> {
    let scenarios = chaos_scenarios();
    let grouped = par_sweep(
        &scenarios,
        replicates,
        base_seed,
        |sc: &ChaosScenario, id: TaskId| {
            (
                run_chaos_scenario(sc, id.seed, FecMode::Off),
                run_chaos_scenario(sc, id.seed, CHAOS_FEC_NOMINAL),
            )
        },
    );
    scenarios
        .into_iter()
        .zip(grouped)
        .map(|(sc, pairs)| {
            let (offs, ons): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
            ChaosFecComparison {
                off: summarize_scenario(sc.clone(), offs),
                on: summarize_scenario(sc, ons),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::task_seed;

    #[test]
    fn scenario_plans_are_valid_and_nonempty() {
        for sc in chaos_scenarios() {
            assert!(!sc.plan().is_empty(), "{}", sc.name);
            // Every fault clears before the run ends (so recovery is
            // observable).
            let end = sc.plan().events().iter().map(|e| e.end()).max().unwrap();
            assert!(
                end < SimTime::from_secs(CHAOS_DURATION_S),
                "{}: fault outlives the run",
                sc.name
            );
        }
    }

    #[test]
    fn ambient_spike_retains_half_goodput() {
        // The acceptance bar for the standard scenario: ≥ 50% of the
        // fault-free goodput survives the spikes.
        let o = run_chaos_scenario(&chaos_scenarios()[0], 42, FecMode::Off);
        assert!(o.baseline_goodput_bps > 0.0, "{o:?}");
        assert!(o.goodput_retained >= 0.5, "{o:?}");
    }

    #[test]
    fn occlusion_recovers_within_bound() {
        let sc = &chaos_scenarios()[1];
        let o = run_chaos_scenario(sc, 7, FecMode::Off);
        // The link must come back after the blockage clears, within a
        // bounded interval (a second of wall clock ≈ a handful of frames).
        let resync = o.recovery.resync_time_s.expect("link never recovered");
        assert!(resync <= 1.0, "resync took {resync} s: {o:?}");
        assert!(o.goodput_bps > 0.0, "{o:?}");
    }

    #[test]
    fn slip_storm_recovers_within_bound() {
        let sc = &chaos_scenarios()[3];
        let o = run_chaos_scenario(sc, 11, FecMode::Off);
        let resync = o.recovery.resync_time_s.expect("link never recovered");
        assert!(resync <= 1.0, "resync took {resync} s: {o:?}");
    }

    #[test]
    fn every_scenario_completes_without_panic_and_moves_data() {
        // "Never panics" is the whole point: a chaos run that unwinds
        // fails this test. Each scenario must also still deliver
        // *something* — the link degrades, it does not die.
        for sc in chaos_scenarios() {
            let o = run_chaos_scenario(&sc, 3, FecMode::Off);
            assert!(
                o.goodput_bps > 0.0,
                "{}: link died entirely: {o:?}",
                sc.name
            );
        }
    }

    #[test]
    fn fec_recovers_half_the_occlusion_gap() {
        // The PR's acceptance bar: with the outer code on, goodput
        // retained under the occlusion burst must close at least half
        // the gap between ARQ-only and the fault-free control.
        let sc = &chaos_scenarios()[1];
        for seed in [7u64, 42] {
            let off = run_chaos_scenario(sc, seed, FecMode::Off);
            let on = run_chaos_scenario(sc, seed, CHAOS_FEC_NOMINAL);
            let gate = (off.goodput_retained + 1.0) / 2.0;
            assert!(
                on.goodput_retained >= gate,
                "seed {seed}: fec-on retained {:.4} < gate {:.4} (off {:.4})",
                on.goodput_retained,
                gate,
                off.goodput_retained
            );
            // The improvement must come from in-place correction, not a
            // lucky draw.
            assert!(on.recovery.fec_corrected_symbols > 0, "{on:?}");
        }
    }

    #[test]
    fn deep_fade_collapses_arq_only_but_fec_still_helps() {
        let scs = chaos_scenarios();
        let sc = scs.last().expect("battery is nonempty");
        assert_eq!(sc.name, "deep_fade", "deep_fade must stay appended last");
        let off = run_chaos_scenario(sc, 3, FecMode::Off);
        let on = run_chaos_scenario(sc, 3, CHAOS_FEC_NOMINAL);
        // ARQ-only collapses: the fade eats more than a third of the
        // fault-free goodput despite unlimited round trips.
        assert!(
            off.goodput_retained < 0.6,
            "deep_fade no longer collapses ARQ-only: {off:?}"
        );
        // The outer code claws some of it back under identical faults —
        // bounded by the uncoded header, which no payload code can save.
        assert!(
            on.goodput_retained >= off.goodput_retained + 0.02,
            "fec-on {:.4} does not beat arq-only {:.4}",
            on.goodput_retained,
            off.goodput_retained
        );
        assert!(on.recovery.fec_corrected_symbols > 0, "{on:?}");
        // The blackout core is beyond any code: frames still die there.
        assert!(on.frames_lost > 0 || on.late_deliveries > 0, "{on:?}");
    }

    #[test]
    fn fec_comparison_suite_reports_both_legs() {
        let cmp = run_chaos_suite_fec(1, 9);
        assert_eq!(cmp.len(), chaos_scenarios().len());
        for c in &cmp {
            assert_eq!(c.off.name, c.on.name);
            // The off leg never touches the decoder.
            assert_eq!(c.off.fec_corrected_symbols, 0, "{}", c.off.name);
            assert_eq!(c.off.fec_decode_failures, 0, "{}", c.off.name);
            assert_eq!(c.off.mean_fec_overhead, 0.0, "{}", c.off.name);
        }
        // And the off leg is exactly the ARQ-only run at each task seed.
        for (point, (c, sc)) in cmp.iter().zip(chaos_scenarios()).enumerate() {
            let direct = run_chaos_scenario(&sc, task_seed(9, point as u64), FecMode::Off);
            let off = &c.off.outcomes[0];
            assert_eq!(off.goodput_bps, direct.goodput_bps, "{}", sc.name);
            assert_eq!(off.goodput_retained, direct.goodput_retained, "{}", sc.name);
            assert_eq!(off.recovery, direct.recovery, "{}", sc.name);
        }
    }

    #[test]
    fn fec_runs_are_deterministic_per_seed() {
        let sc = &chaos_scenarios()[1];
        let a = run_chaos_scenario(sc, 5, CHAOS_FEC_NOMINAL);
        let b = run_chaos_scenario(sc, 5, CHAOS_FEC_NOMINAL);
        assert_eq!(a.goodput_bps, b.goodput_bps);
        assert_eq!(a.recovery, b.recovery);
    }

    #[test]
    fn suite_is_deterministic_per_seed() {
        let a = run_chaos_scenario(&chaos_scenarios()[4], 5, FecMode::Off);
        let b = run_chaos_scenario(&chaos_scenarios()[4], 5, FecMode::Off);
        assert_eq!(a.goodput_bps, b.goodput_bps);
        assert_eq!(a.recovery, b.recovery);
    }
}
