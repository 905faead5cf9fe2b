//! Deterministic parallel experiment runner.
//!
//! Every figure in the paper is a sweep: a grid of experiment points
//! (dimming level, distance, incidence angle, seat, …), each simulated
//! independently, often replicated across seeds. The points share nothing
//! but read-only configuration — the ideal fan-out — yet the figure
//! generators ran them serially. This module is the work pool they fan
//! out on, with one hard guarantee:
//!
//! > **Results are bit-identical at any thread count.**
//!
//! Three design rules deliver that:
//!
//! 1. **Keyed RNG streams.** A task never samples from a pool-wide RNG
//!    (whose interleaving would depend on scheduling). Each `(point_id,
//!    seed)` tuple derives its own [`desim::DetRng`] stream via
//!    [`task_rng`] — fork-by-label then fork-by-index, exactly the
//!    scheme the simulator itself uses for per-component streams — so a
//!    task's randomness is a pure function of its identity.
//! 2. **Submission-order collection.** Workers pull tasks from an atomic
//!    cursor (dynamic load balancing — sweep points have wildly uneven
//!    cost near cliff edges), but results are reassembled by task index
//!    before being returned.
//! 3. **No shared mutable simulation state.** Tasks receive `&` borrows
//!    only; the binomial table and planner caches the tasks touch are
//!    the `Arc`-shared read-mostly structures from `combinat` and
//!    `smartvlc-core`.
//!
//! The worker count is a scoped value, not a process-global knob:
//! [`with_threads`] sets it for the calling thread for the duration of a
//! closure. Outside any scope — and inside the workers themselves, so a
//! nested fan-out never multiplies threads — [`par_map`] runs serially,
//! exactly the old serial loop: same results, same order. The library
//! never reads the environment; each binary that fans out parses
//! `SMARTVLC_THREADS` once (with [`parse_thread_count`], falling back to
//! the machine's available parallelism) and runs its `main` under
//! [`with_threads`].

use crate::stats_util::{try_summarize, Summary};
use desim::DetRng;
use smartvlc_obs as obs;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// This thread's worker count for [`par_map`]; 1 outside any scope.
    static THREADS: Cell<usize> = const { Cell::new(1) };
}

/// Parses a raw `SMARTVLC_THREADS` value into a worker count.
///
/// Leading/trailing whitespace is tolerated; anything else that is not a
/// positive decimal integer (`abc`, `0x8`, `-3`, empty, `0`) is rejected
/// with an error naming the offending value — a typo must fail loudly, not
/// silently serialize every sweep.
pub fn parse_thread_count(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Err(
            "SMARTVLC_THREADS is set but empty/whitespace; expected a positive decimal integer"
                .to_string(),
        );
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Err(format!(
            "SMARTVLC_THREADS={trimmed:?} is zero; expected a positive decimal integer"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "SMARTVLC_THREADS={trimmed:?} is not a positive decimal integer \
             (hex like \"0x8\" is not accepted)"
        )),
    }
}

/// Runs `f` with [`par_map`] fanning out on `threads` workers on this
/// thread, restoring the outer count when `f` returns or panics.
///
/// Scopes nest: the innermost count wins. Results never depend on the
/// count; only wall-clock time does.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREADS.with(|t| t.set(self.0));
        }
    }
    let _restore = Restore(THREADS.with(|t| t.replace(threads)));
    f()
}

/// The deterministic RNG stream for task `(point_id, seed)`.
///
/// Streams for distinct tuples are independent (distinct xoshiro states
/// reached through splitmix-seeded label/index forks), and the mapping is
/// stable across thread counts, platforms, and releases — it is part of
/// the reproducibility contract.
pub fn task_rng(seed: u64, point_id: u64) -> DetRng {
    DetRng::seed_from_u64(seed)
        .fork("runner")
        .fork_idx(point_id)
}

/// A `u64` seed derived from `(point_id, seed)` — for experiment entry
/// points that take a seed rather than a [`DetRng`] (they fork their own
/// streams internally from it).
pub fn task_seed(seed: u64, point_id: u64) -> u64 {
    task_rng(seed, point_id).next_u64()
}

/// Parallel order-preserving map: run `f(index, &points[index])` for every
/// point on the work pool and return the results in submission order.
///
/// `f` is called at most once per point, from an unspecified thread, in an
/// unspecified order; the *returned vector* is always in point order. The
/// worker count is the calling thread's [`with_threads`] scope (1 outside
/// any); with one worker this is exactly `points.iter().enumerate().map(..)`.
pub fn par_map<P, R, F>(points: &[P], f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(usize, &P) -> R + Sync,
{
    /// One task's result plus the child recorder its telemetry went into.
    type TaskOutput<R> = (R, Option<obs::Recorder>);

    // Telemetry determinism: if the calling thread has a recorder in scope,
    // each task records into its own child recorder, and children are merged
    // into the parent in submission (task-index) order — never into a shared
    // registry from racing workers. The serial and parallel paths therefore
    // produce identical merged telemetry.
    let parent = obs::current_recorder();
    let run_task = |i: usize, p: &P| -> TaskOutput<R> {
        if parent.is_some() {
            let child = obs::Recorder::new();
            let r = obs::with_recorder(&child, || {
                obs::counter_add(obs::key!("sim.runner.tasks"), 1);
                f(i, p)
            });
            (r, Some(child))
        } else {
            (f(i, p), None)
        }
    };
    let merge = |parent: &Option<obs::Recorder>, child: Option<obs::Recorder>| {
        if let (Some(parent), Some(child)) = (parent.as_ref(), child) {
            parent.merge_in(&child);
        }
    };

    let threads = THREADS.with(Cell::get).min(points.len());
    if threads <= 1 {
        return points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let (r, child) = run_task(i, p);
                merge(&parent, child);
                r
            })
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut per_worker: Vec<Vec<(usize, TaskOutput<R>)>> = crossbeam::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|_| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= points.len() {
                            break;
                        }
                        local.push((i, run_task(i, &points[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("runner worker panicked"))
            .collect()
    })
    .expect("runner scope panicked");

    // Reassemble in submission order; merge telemetry in the same order.
    let mut tagged: Vec<(usize, TaskOutput<R>)> = per_worker.drain(..).flatten().collect();
    tagged.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(tagged.len(), points.len());
    tagged
        .into_iter()
        .map(|(_, (r, child))| {
            merge(&parent, child);
            r
        })
        .collect()
}

/// One cell of a sweep × seed fan-out: which point, which replicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskId {
    /// Index of the sweep point.
    pub point: usize,
    /// Index of the replicate.
    pub replicate: usize,
    /// The derived per-task seed (stable across thread counts).
    pub seed: u64,
}

/// Fan a sweep out over `(point × replicate)` tasks and collect the raw
/// per-task results grouped by point (inner vectors in replicate order).
///
/// `f` receives the point, the task id, and the task's derived seed via
/// `id.seed` — it must not consume randomness from anywhere else.
pub fn par_sweep<P, R, F>(points: &[P], replicates: usize, base_seed: u64, f: F) -> Vec<Vec<R>>
where
    P: Sync,
    R: Send,
    F: Fn(&P, TaskId) -> R + Sync,
{
    let tasks: Vec<TaskId> = (0..points.len())
        .flat_map(|point| {
            (0..replicates).map(move |replicate| TaskId {
                point,
                replicate,
                // One keyed stream per (point, replicate) cell.
                seed: task_seed(base_seed, (point * replicates + replicate) as u64),
            })
        })
        .collect();
    let flat = par_map(&tasks, |_, &id| f(&points[id.point], id));
    let mut grouped: Vec<Vec<R>> = (0..points.len()).map(|_| Vec::new()).collect();
    for (id, r) in tasks.iter().zip(flat) {
        grouped[id.point].push(r);
    }
    grouped
}

/// [`par_sweep`] for scalar measurements: returns a per-point
/// mean ± CI [`Summary`] over the replicates.
pub fn par_sweep_summaries<P, F>(
    points: &[P],
    replicates: usize,
    base_seed: u64,
    f: F,
) -> Vec<Summary>
where
    P: Sync,
    F: Fn(&P, TaskId) -> f64 + Sync,
{
    par_sweep(points, replicates, base_seed, f)
        .iter()
        .map(|samples| try_summarize(samples).expect("replicates >= 1"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn current() -> usize {
        THREADS.with(Cell::get)
    }

    #[test]
    fn par_map_preserves_order() {
        let points: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 8] {
            let out = with_threads(threads, || par_map(&points, |i, &p| (i as u64) * 1000 + p));
            let expect: Vec<u64> = (0..100).map(|i| i * 1000 + i).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_map_is_thread_count_invariant() {
        // A task that consumes its keyed stream: any scheduling
        // difference would surface as different outputs.
        let points: Vec<usize> = (0..40).collect();
        let run = |threads: usize| {
            with_threads(threads, || {
                par_map(&points, |i, _| {
                    let mut rng = task_rng(42, i as u64);
                    (0..50).map(|_| rng.next_u64() >> 32).sum::<u64>()
                })
            })
        };
        let serial = run(1);
        assert_eq!(run(2), serial);
        assert_eq!(run(8), serial);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], |_, &x| x * 2), vec![14]);
    }

    #[test]
    fn task_streams_are_distinct() {
        // First draws of many (seed, point) streams must not collide —
        // colliding streams would silently correlate replicates.
        let mut seen = std::collections::HashSet::new();
        for seed in 0..20u64 {
            for point in 0..50u64 {
                assert!(
                    seen.insert(task_rng(seed, point).next_u64()),
                    "stream collision at seed={seed} point={point}"
                );
            }
        }
    }

    #[test]
    fn par_sweep_groups_by_point() {
        let points = [10.0f64, 20.0, 30.0];
        let grouped = with_threads(4, || {
            par_sweep(&points, 3, 1, |&p, id| p + id.replicate as f64)
        });
        assert_eq!(grouped.len(), 3);
        assert_eq!(grouped[0], vec![10.0, 11.0, 12.0]);
        assert_eq!(grouped[2], vec![30.0, 31.0, 32.0]);
    }

    #[test]
    fn par_sweep_summaries_aggregate() {
        let points = [100.0f64, 200.0];
        let sums = par_sweep_summaries(&points, 4, 9, |&p, id| p + id.replicate as f64);
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[0].n, 4);
        assert!((sums[0].mean - 101.5).abs() < 1e-12);
        assert!((sums[1].mean - 201.5).abs() < 1e-12);
    }

    #[test]
    fn sweep_cell_seeds_are_stable_and_distinct() {
        let a = with_threads(1, || par_sweep(&[0u8; 5], 7, 3, |_, id| id.seed));
        let b = with_threads(8, || par_sweep(&[0u8; 5], 7, 3, |_, id| id.seed));
        assert_eq!(a, b, "cell seeds must not depend on thread count");
        let flat: Vec<u64> = a.into_iter().flatten().collect();
        let set: std::collections::HashSet<u64> = flat.iter().copied().collect();
        assert_eq!(set.len(), flat.len(), "cell seeds must be distinct");
    }

    #[test]
    fn nested_scopes_restore_the_outer_count() {
        assert_eq!(current(), 1, "unscoped default is serial");
        with_threads(3, || {
            assert_eq!(current(), 3);
            with_threads(8, || assert_eq!(current(), 8));
            assert_eq!(current(), 3);
        });
        assert_eq!(current(), 1);
    }

    #[test]
    fn a_panic_inside_the_scope_restores_the_outer_count() {
        with_threads(2, || {
            let caught = std::panic::catch_unwind(|| with_threads(8, || panic!("task failed")));
            assert!(caught.is_err());
            assert_eq!(current(), 2);
        });
        assert_eq!(current(), 1);
    }

    #[test]
    fn workers_run_unscoped() {
        let points: Vec<u8> = (0..8).collect();
        let seen = with_threads(4, || par_map(&points, |_, _| current()));
        assert_eq!(seen, vec![1; 8], "a nested fan-out must run serially");
    }

    #[test]
    fn parse_thread_count_accepts_positive_integers() {
        assert_eq!(parse_thread_count("1"), Ok(1));
        assert_eq!(parse_thread_count("8"), Ok(8));
        assert_eq!(parse_thread_count(" 16\n"), Ok(16));
    }

    #[test]
    fn parse_thread_count_rejects_invalid_empty_and_whitespace() {
        for bad in ["abc", "0x8", "-3", "1.5", "8 workers", "0", "", "   ", "\t"] {
            let err = parse_thread_count(bad)
                .expect_err(&format!("value {bad:?} must be rejected, not mapped to 1"));
            assert!(
                err.contains("SMARTVLC_THREADS"),
                "error names the variable: {err}"
            );
            let trimmed = bad.trim();
            if !trimmed.is_empty() {
                assert!(
                    err.contains(trimmed),
                    "error names the bad value {trimmed:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn unscoped_and_eight_worker_par_map_agree_on_results_and_telemetry() {
        let points: Vec<u64> = (0..24).collect();
        let run = || {
            let rec = obs::Recorder::new();
            let out = obs::with_recorder(&rec, || {
                par_map(&points, |i, &p| {
                    obs::counter_add(obs::key!("test.runner.work"), p + 1);
                    obs::event(
                        desim::SimTime::from_nanos(p * 10),
                        obs::key!("test.runner.ev"),
                        i as u64,
                    );
                    p
                })
            });
            (out, rec.snapshot())
        };
        let (out1, snap1) = run();
        let (out8, snap8) = with_threads(8, run);
        assert_eq!(out1, out8);
        assert_eq!(snap1, snap8, "telemetry must not depend on thread count");
        assert_eq!(snap1.json().to_string(), snap8.json().to_string());
        #[cfg(feature = "telemetry")]
        {
            assert!(snap1
                .counters
                .contains(&("sim.runner.tasks".to_string(), 24)));
            assert!(snap1
                .counters
                .contains(&("test.runner.work".to_string(), (1..=24).sum::<u64>())));
            // Events arrive in submission order even at 8 threads.
            let order: Vec<u64> = snap8.events.iter().map(|e| e.value).collect();
            assert_eq!(order, (0..24).collect::<Vec<u64>>());
        }
    }
}
