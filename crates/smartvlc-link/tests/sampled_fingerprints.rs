//! The sampled-fidelity link, pinned bit for bit.
//!
//! A checked-in table holds, per pinned run, a 64-bit hash of the exact
//! bits of every numeric field of the [`LinkReport`] of a
//! [`ChannelFidelity::Sampled`] run: AMPPM at Fig. 16 distances on both
//! sides of the cliff, an instant LED (the `tau <= 0` step), eight ADC
//! samples per slot, and runs under blockage and injected ambient-spike,
//! occlusion and saturation faults. It pins what the sampled channel
//! decides per draw of its uniform stream: a slot's probability priced
//! differently, a draw moved, an edge sent to or from the per-sample
//! path near an ADC rail, or a threshold compared differently changes a
//! hash. On a mismatch the test prints the whole computed table.

use desim::{SimDuration, SimTime};
use smartvlc_link::link::{RecoveryReport, TracePoint};
use smartvlc_link::LinkStats;
use smartvlc_link::{ChannelFidelity, LinkConfig, LinkReport, LinkSimulation, SchemeKind};
use std::fmt::Write as _;
use vlc_channel::ambient::ConstantAmbient;
use vlc_channel::faults::{FaultEvent, FaultKind, FaultPlan};
use vlc_channel::led::LedModel;
use vlc_channel::shadowing::ShadowingModel;

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// A 64-bit hash of the exact bits of every numeric field of a report.
/// The destructuring is exhaustive, so a field added to any of these
/// structs fails to compile here until it is hashed too.
fn fingerprint(r: &LinkReport) -> u64 {
    let LinkReport {
        stats,
        throughput_bps,
        mean_goodput_bps,
        trace,
        adaptation,
        duration_s,
        recovery,
    } = r;
    let LinkStats {
        frames_sent,
        frames_ok,
        frames_crc_fail,
        frames_lost,
        retransmissions,
        acks_received,
        payload_bytes_acked,
        slots_sent,
        adaptation_steps,
        frames_abandoned,
        retry_state_missing,
    } = stats;
    let mut w = vec![
        *frames_sent,
        *frames_ok,
        *frames_crc_fail,
        *frames_lost,
        *retransmissions,
        *acks_received,
        *payload_bytes_acked,
        *slots_sent,
        *adaptation_steps,
        *frames_abandoned,
        *retry_state_missing,
        mean_goodput_bps.to_bits(),
        duration_s.to_bits(),
    ];
    w.push(throughput_bps.len() as u64);
    for (t, bps) in throughput_bps {
        w.extend([t.to_bits(), bps.to_bits()]);
    }
    w.push(trace.len() as u64);
    for TracePoint { t_s, ambient, led } in trace {
        w.extend([t_s.to_bits(), ambient.to_bits(), led.to_bits()]);
    }
    w.push(adaptation.len() as u64);
    for (t, smart, fixed) in adaptation {
        w.extend([t.to_bits(), *smart, *fixed]);
    }
    let RecoveryReport {
        sync_losses,
        resync_overruns,
        resync_time_s,
        late_deliveries,
        frames_abandoned,
        seq_collisions,
        max_degrade_tier,
        tier_escalations,
        tier_recoveries,
        fec_corrected_symbols,
        fec_decode_failures,
        fec_overhead_ratio,
    } = recovery;
    w.extend([
        *sync_losses,
        *resync_overruns,
        *late_deliveries,
        *frames_abandoned,
        *seq_collisions,
        u64::from(*max_degrade_tier),
        *tier_escalations,
        *tier_recoveries,
        *fec_corrected_symbols,
        *fec_decode_failures,
        fec_overhead_ratio.to_bits(),
    ]);
    w.extend(resync_time_s.map_or([0, 0], |x| [1, x.to_bits()]));
    fnv1a(&w)
}

/// The §6.2 static bench's bright-office ambient, lux.
const BENCH_LUX: f64 = 8080.0;

/// A sampled-fidelity AMPPM run at `distance_m` for `ms` milliseconds,
/// the LED at half drive under [`BENCH_LUX`].
fn sampled(distance_m: f64, seed: u64, ms: u64) -> LinkConfig {
    let mut cfg = LinkConfig::paper_static(distance_m, SchemeKind::Amppm, seed);
    cfg.illum_target = BENCH_LUX / cfg.full_scale_lux + 0.5;
    cfg.fidelity = ChannelFidelity::Sampled;
    cfg.duration = SimDuration::millis(ms);
    cfg
}

/// One downlink fault of `kind` from `at_ms` for `ms` milliseconds.
fn fault(at_ms: u64, ms: u64, kind: FaultKind) -> FaultEvent {
    FaultEvent {
        at: SimTime::from_millis(at_ms),
        duration: SimDuration::millis(ms),
        kind,
    }
}

/// Every pinned configuration, by name.
fn pinned_configs() -> Vec<(String, LinkConfig)> {
    let mut out: Vec<(String, LinkConfig)> = [3.0, 3.6, 3.8, 3.9, 4.25, 4.6]
        .into_iter()
        .map(|d| (format!("amppm_{d}m"), sampled(d, 0x5a, 300)))
        .collect();
    let mut ideal = sampled(2.0, 0x5b, 300);
    ideal.channel.led = LedModel::ideal(1.4);
    out.push(("ideal_led_2.0m".into(), ideal));
    let mut spp8 = sampled(3.6, 0x5c, 300);
    spp8.channel.samples_per_slot = 8;
    out.push(("spp8_3.6m".into(), spp8));
    let mut faults = sampled(3.0, 0x5d, 600);
    faults.faults = FaultPlan::new(vec![
        fault(
            100,
            80,
            FaultKind::AmbientStep {
                delta_lux: 20_000.0,
            },
        ),
        fault(250, 80, FaultKind::Occlusion { gain: 0.01 }),
        fault(400, 60, FaultKind::Saturation),
    ]);
    out.push(("faults_3.0m".into(), faults));
    let mut shadowed = sampled(2.5, 0x5e, 600);
    shadowed.shadowing = Some(ShadowingModel {
        mean_clear_s: 0.15,
        mean_blocked_s: 0.05,
        blocked_gain: 0.05,
    });
    out.push(("shadowed_2.5m".into(), shadowed));
    out
}

/// One row per pinned run: (configuration name, the report's
/// [`fingerprint`]).
#[rustfmt::skip]
const PINS: &[(&str, u64)] = &[
    ("amppm_3m", 0x99008f1a1e4a745a),
    ("amppm_3.6m", 0x6e84eacc07599b23),
    ("amppm_3.8m", 0x6da6be7985ee625f),
    ("amppm_3.9m", 0x31a2866d14445b90),
    ("amppm_4.25m", 0x46bb4e5c13390fcb),
    ("amppm_4.6m", 0xa06e5051003ea392),
    ("ideal_led_2.0m", 0x46b329c270dd712a),
    ("spp8_3.6m", 0x20e8c1b59958f622),
    ("faults_3.0m", 0x5c4f29aeca96458e),
    ("shadowed_2.5m", 0xb5da445a0423e424),
];

#[test]
fn sampled_link_matches_the_pinned_fingerprints() {
    let configs = pinned_configs();
    let mut table = String::new();
    let mut mismatches = Vec::new();
    for (run, cfg) in &configs {
        let mut sim = LinkSimulation::new(cfg.clone()).expect("valid config");
        let hash = fingerprint(&sim.run(&mut ConstantAmbient { lux: BENCH_LUX }));
        if PINS.iter().find(|p| p.0 == run).map(|p| p.1) != Some(hash) {
            mismatches.push(run.as_str());
        }
        writeln!(table, "    ({run:?}, {hash:#018x}),").unwrap();
    }
    let stale: Vec<&str> = PINS
        .iter()
        .map(|p| p.0)
        .filter(|name| !configs.iter().any(|(n, _)| n == name))
        .collect();
    assert!(
        mismatches.is_empty() && stale.is_empty(),
        "the sampled link moved on {mismatches:?} (stale pins: {stale:?}); computed table:\n{table}"
    );
}
