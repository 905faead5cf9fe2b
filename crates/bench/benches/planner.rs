//! Benchmarks for the AMPPM planner — the "small overhead on deriving
//! the optimal symbol patterns" the paper mentions in §6.2 must be small
//! enough for a 1 GHz ARM to run per ambient update.
//!
//! Plans are interned per process and config, so only the first
//! iteration of each bench does the Step 1–3 build or a level's Step-4
//! search; later iterations measure what every later planner over the
//! same config pays. The one-time costs are in EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use smartvlc_core::{AmppmPlanner, DimmingLevel, SystemConfig};
use std::hint::black_box;

fn bench_planner_build(c: &mut Criterion) {
    // Steps 1-3 (candidate enumeration + envelope walk) once, then the
    // intern lookup and a fresh first-touch set.
    c.bench_function("planner_build_paper_config", |b| {
        b.iter(|| black_box(AmppmPlanner::new(SystemConfig::default()).unwrap()))
    });
}

fn bench_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan");
    // A level this planner has not asked for: the Step-4 pair/mix
    // search once, then a table read counted as a miss.
    group.bench_function("cold_level", |b| {
        b.iter_batched(
            || AmppmPlanner::new(SystemConfig::default()).unwrap(),
            |p| {
                black_box(p.plan(DimmingLevel::new(0.3712).unwrap()).unwrap());
            },
            BatchSize::SmallInput,
        )
    });
    // Warm: what the transmitter pays per frame in steady state.
    let warm = AmppmPlanner::new(SystemConfig::default()).unwrap();
    warm.plan(DimmingLevel::new(0.3712).unwrap()).unwrap();
    group.bench_function("warm_level", |b| {
        b.iter(|| black_box(warm.plan(DimmingLevel::new(0.3712).unwrap()).unwrap()))
    });
    // A full adaptation sweep: every level of a 0.9 -> 0.1 dimming ramp.
    group.bench_function("sweep_100_levels", |b| {
        b.iter_batched(
            || AmppmPlanner::new(SystemConfig::default()).unwrap(),
            |p| {
                for i in 10..=90 {
                    black_box(
                        p.plan(DimmingLevel::new(i as f64 / 100.0).unwrap())
                            .unwrap(),
                    );
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_planner_build, bench_plan);
criterion_main!(benches);
