//! Cost of sharing the planner's precomputed state.
//!
//! `AmppmPlanner` interns its binomial table, candidate list, envelope
//! and plan table per process and config: a new planner is a lookup plus
//! its own first-touch set, a clone is a handle, and every planner over
//! the config reads every plan already made. These benches quantify the
//! costs that matter for the parallel runner:
//!
//! * `planner_new_interned` — constructing a planner when its config is
//!   already interned (the steady state for sweep workers),
//! * `planner_clone` — handing a worker its handle,
//! * `plan_cache_hit` — a quantized level this planner already asked for,
//! * `plan_cold` — a fresh planner's first request for a level some
//!   other planner already planned (a miss by the counters, a table read
//!   by the clock).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use smartvlc_core::{AmppmPlanner, DimmingLevel, SystemConfig};
use std::hint::black_box;

fn bench_shared_planner(c: &mut Criterion) {
    let cfg = SystemConfig::default();
    // Intern the config so construction benches measure the lookup, not
    // the one-time Steps 1–3 build.
    let warm = AmppmPlanner::new(cfg.clone()).expect("valid config");

    c.bench_function("planner_new_interned", |b| {
        b.iter(|| black_box(AmppmPlanner::new(cfg.clone()).expect("valid config")))
    });

    c.bench_function("planner_clone", |b| b.iter(|| black_box(warm.clone())));

    let level = DimmingLevel::new(0.35).unwrap();
    warm.plan(level).unwrap();
    c.bench_function("plan_cache_hit", |b| {
        // A clone's cache hit — the path every runner worker takes after
        // the first worker has planned the level.
        let clone = warm.clone();
        b.iter(|| black_box(clone.plan(level).unwrap()))
    });

    c.bench_function("plan_cold", |b| {
        b.iter_batched(
            || AmppmPlanner::new(cfg.clone()).expect("valid config"),
            |p| black_box(p.plan(level).unwrap()),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_shared_planner);
criterion_main!(benches);
