//! The runner's reproducibility contract, checked end-to-end: every
//! experiment that fans out on the work pool must produce **bit-identical**
//! results at any worker count.
//!
//! These tests run real simulations (short durations) at 1, 2, and 8
//! threads and compare the outputs at the f64 *bit* level — not within an
//! epsilon. Scheduling may reorder execution; it must never reorder or
//! perturb results.

use desim::SimDuration;
use proptest::prelude::*;
use smartvlc_link::SchemeKind;
use smartvlc_sim::static_run::{run_distance_matrix, run_scheme_matrix};
use smartvlc_sim::{par_sweep, run_broadcast, task_rng, with_threads, Seat};

/// A sweep result reduced to exact bits, so equality is byte equality.
fn fingerprint(sweeps: &[Vec<smartvlc_sim::StaticPoint>]) -> Vec<(u64, u64, u64)> {
    sweeps
        .iter()
        .flatten()
        .map(|p| {
            (
                p.dimming.to_bits(),
                p.goodput_bps.to_bits(),
                p.fer.to_bits(),
            )
        })
        .collect()
}

#[test]
fn scheme_matrix_is_bit_identical_across_thread_counts() {
    let schemes = [SchemeKind::Amppm, SchemeKind::OokCt];
    let levels = [0.15, 0.5, 0.8];
    let dur = SimDuration::millis(200);
    let run = |n| {
        with_threads(n, || {
            fingerprint(&run_scheme_matrix(&schemes, &levels, dur, 15))
        })
    };
    let serial = run(1);
    assert_eq!(run(2), serial, "2 threads diverged from serial");
    assert_eq!(run(8), serial, "8 threads diverged from serial");
}

#[test]
fn distance_matrix_is_bit_identical_across_thread_counts() {
    let levels = [0.5];
    let distances = [1.0, 3.0, 4.5];
    let dur = SimDuration::millis(200);
    let run = |n| {
        with_threads(n, || {
            fingerprint(&run_distance_matrix(
                SchemeKind::Amppm,
                &levels,
                &distances,
                dur,
                16,
            ))
        })
    };
    let serial = run(1);
    assert_eq!(run(2), serial);
    assert_eq!(run(8), serial);
}

#[test]
fn broadcast_is_bit_identical_across_thread_counts() {
    let seats = [
        Seat {
            distance_m: 1.5,
            off_axis_deg: 0.0,
        },
        Seat {
            distance_m: 3.0,
            off_axis_deg: 5.0,
        },
        Seat {
            distance_m: 5.0,
            off_axis_deg: 0.0,
        },
    ];
    let dur = SimDuration::millis(200);
    let run = |n: usize| {
        with_threads(n, || {
            run_broadcast(0.5, &seats, dur, 7)
                .iter()
                .map(|r| (r.frames_ok, r.frames_bad, r.goodput_bps.to_bits()))
                .collect::<Vec<_>>()
        })
    };
    let serial = run(1);
    assert_eq!(run(2), serial);
    assert_eq!(run(8), serial);
}

#[test]
fn sweep_replicates_are_bit_identical_across_thread_counts() {
    // par_sweep with RNG-consuming tasks: the derived per-cell seed (and
    // everything downstream of it) must not depend on scheduling.
    let points = [0u8; 6];
    let run = |n: usize| {
        with_threads(n, || {
            par_sweep(&points, 4, 99, |_, id| {
                let mut rng = task_rng(id.seed, 0);
                (0..100)
                    .map(|_| rng.next_u64())
                    .fold(0u64, u64::wrapping_add)
            })
        })
    };
    let serial = run(1);
    assert_eq!(run(2), serial);
    assert_eq!(run(8), serial);
}

#[test]
fn chaos_suite_is_bit_identical_across_thread_counts() {
    // The chaos battery exercises every self-healing path (sync loss,
    // degradation tiers, ACK impairments); any hidden scheduling
    // dependence in those paths would surface here as diverging bits.
    let run = |n: usize| {
        with_threads(n, || {
            smartvlc_sim::run_chaos_suite(2, 1234)
                .iter()
                .flat_map(|s| {
                    s.outcomes.iter().map(|o| {
                        (
                            o.goodput_bps.to_bits(),
                            o.baseline_goodput_bps.to_bits(),
                            o.recovery.sync_losses,
                            o.recovery.late_deliveries,
                            o.recovery.frames_abandoned,
                            o.recovery.max_degrade_tier,
                        )
                    })
                })
                .collect::<Vec<_>>()
        })
    };
    let serial = run(1);
    assert_eq!(run(2), serial, "2 threads diverged from serial");
    assert_eq!(run(8), serial, "8 threads diverged from serial");
}

#[test]
fn chaos_telemetry_snapshot_is_byte_identical_across_thread_counts() {
    // The tentpole property: a telemetry snapshot (counters, gauges,
    // histograms, journal) serializes to the same bytes at any thread
    // count, because per-task recorders are merged in submission order.
    use smartvlc_obs as obs;
    let run = |n: usize| {
        with_threads(n, || {
            let rec = obs::Recorder::new();
            let out = obs::with_recorder(&rec, || {
                smartvlc_sim::run_chaos_suite(2, 77)
                    .iter()
                    .flat_map(|s| s.outcomes.iter().map(|o| o.goodput_bps.to_bits()))
                    .collect::<Vec<_>>()
            });
            (out, rec.snapshot())
        })
    };
    let (out1, snap1) = run(1);
    let (out8, snap8) = run(8);
    assert_eq!(out1, out8);
    assert_eq!(
        snap1.json().to_string(),
        snap8.json().to_string(),
        "telemetry JSON differs between 1 and 8 threads"
    );
    assert_eq!(snap1.to_csv(), snap8.to_csv());
    #[cfg(feature = "telemetry")]
    assert!(
        !snap1.is_empty(),
        "telemetry feature is on but the chaos suite recorded nothing"
    );
}

#[test]
fn cell_suite_is_byte_identical_across_thread_counts() {
    // The multi-cell workload end to end: ceiling-grid adaptation,
    // waypoint mobility, handover, TDMA, interference — the full battery
    // must serialize to the same bytes (and the same result bits) at any
    // thread count. This is exactly the artifact `cell_suite` writes to
    // `results/BENCH_cell.json`, so this test is the file-level
    // determinism gate in unit-test form.
    let run = |n: usize| {
        let (sums, snap) = with_threads(n, || smartvlc_sim::cell_suite_artifacts(1, 2026));
        let json = format!("{}\n{}", smartvlc_sim::cell_suite_json(&sums), snap.json());
        (json, snap.to_csv(), sums)
    };
    let (json1, csv1, sums1) = run(1);
    let (json8, csv8, sums8) = run(8);
    assert_eq!(
        json1, json8,
        "BENCH_cell.json differs between 1 and 8 workers"
    );
    assert_eq!(
        csv1, csv8,
        "TELEMETRY_cell.csv differs between 1 and 8 workers"
    );
    // Bit-level, below the 6-decimal JSON formatting: per-user delivered
    // bits and handover counters must match exactly.
    let bits = |sums: &[smartvlc_sim::CellSuiteSummary]| {
        sums.iter()
            .flat_map(|s| {
                s.replicates.iter().flat_map(|r| {
                    r.users
                        .iter()
                        .map(|u| (u.delivered_bits.to_bits(), u.handovers, u.outage_ticks))
                })
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&sums1), bits(&sums8));
    assert!(
        sums1.iter().any(|s| s.handovers > 0),
        "battery exercised no handovers — the gate would be vacuous"
    );
}

#[test]
fn telemetry_scope_does_not_perturb_results() {
    // Enabling telemetry must change no experiment result: the same sweep
    // with and without a recorder in scope is bit-identical.
    use smartvlc_obs as obs;
    let schemes = [SchemeKind::Amppm];
    let levels = [0.3, 0.6];
    let dur = SimDuration::millis(150);
    let bare = with_threads(2, || {
        fingerprint(&run_scheme_matrix(&schemes, &levels, dur, 15))
    });
    let rec = obs::Recorder::new();
    let scoped = with_threads(2, || {
        obs::with_recorder(&rec, || {
            fingerprint(&run_scheme_matrix(&schemes, &levels, dur, 15))
        })
    });
    assert_eq!(
        bare, scoped,
        "recording telemetry changed experiment results"
    );
}

proptest! {
    /// Recording telemetry must never change what an experiment returns,
    /// across seeds and replicate counts (the runtime analog of the
    /// `telemetry`-feature on/off bit-identity, which CI checks by running
    /// this whole suite with `--no-default-features` too).
    #[test]
    fn telemetry_never_perturbs_sweeps(base in 0u64..10_000, reps in 1usize..3) {
        use smartvlc_obs as obs;
        let points = [0u8; 3];
        let task = |_: &u8, id: smartvlc_sim::TaskId| {
            let mut rng = task_rng(id.seed, 0);
            (0..50).map(|_| rng.next_u64()).fold(0u64, u64::wrapping_add)
        };
        let bare = with_threads(4, || par_sweep(&points, reps, base, task));
        let rec = obs::Recorder::new();
        let scoped = with_threads(4, || {
            obs::with_recorder(&rec, || par_sweep(&points, reps, base, task))
        });
        prop_assert_eq!(bare, scoped);
    }

    /// Distinct `(seed, point_id)` tuples must yield distinct streams —
    /// checked on the first two draws, over arbitrary tuples.
    #[test]
    fn task_streams_never_collide(
        seed_a in 0u64..1_000_000,
        seed_b in 0u64..1_000_000,
        point_a in 0u64..10_000,
        point_b in 0u64..10_000,
    ) {
        prop_assume!((seed_a, point_a) != (seed_b, point_b));
        let mut a = task_rng(seed_a, point_a);
        let mut b = task_rng(seed_b, point_b);
        let first = (a.next_u64(), a.next_u64());
        let second = (b.next_u64(), b.next_u64());
        prop_assert_ne!(first, second,
            "stream collision: ({}, {}) vs ({}, {})", seed_a, point_a, seed_b, point_b);
    }

    /// The per-cell seed derivation is injective over realistic sweeps.
    #[test]
    fn sweep_cell_seeds_injective(base in 0u64..100_000, points in 1usize..20, reps in 1usize..10) {
        let ids = with_threads(1, || {
            par_sweep(&vec![0u8; points], reps, base, |_, id| id.seed)
        });
        let flat: Vec<u64> = ids.into_iter().flatten().collect();
        let set: std::collections::HashSet<u64> = flat.iter().copied().collect();
        prop_assert_eq!(set.len(), flat.len());
    }
}
