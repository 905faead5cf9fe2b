//! `perfbench` — the SmartVLC simulator's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `workload.rs`) for about `--seconds` seconds of
//! wall time and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`:
//!
//! * `--trace 0` measures the end-to-end metrics through the library's
//!   public entry points, with no recorder installed;
//! * `--trace 1` runs the same tasks twice — untraced, then traced
//!   through the span-timed frame-loop replica (link and net workloads)
//!   or under an `obs::Recorder` (cell) — and reports the per-layer
//!   metrics, how much of the traced wall time the spans account for, and
//!   what tracing cost.
//!
//! Every task's output is checked; a failed check, a panic, or a rerun
//! that does not reproduce its first run bit for bit counts in `failed`
//! and makes the command exit non-zero. Timing output is written only
//! under `perfbench/out/`.

mod calls;
mod replica;
mod report;
mod workload;

use replica::{LinkTrace, Span};
use report::{median, quantile, ratio, RunResult, END_TO_END, PER_LAYER};
use smartvlc_core::frame::format::PatternDescriptor;
use smartvlc_core::{AmppmPlanner, DimmingLevel, SystemConfig};
use smartvlc_link::RandomTraffic;
use smartvlc_net::{NetConfig, NetOverLink};
use smartvlc_obs as obs;
use smartvlc_sim::{par_map, run_cell, CellConfig, NET_FEC_NOMINAL};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{cell_fingerprint, link_fingerprint, Outcome, Task, Workload};

const USAGE: &str = "usage: perfbench --workload <link_sampled|link_analytic|net_mix|cell_scale> \
                     --seed <n> --seconds <s> --trace <0|1> [--fail-task <i>]";

/// Fresh processes timed per run; `setup_s` is their median.
const SETUP_PROBES: usize = 9;

/// Environment variables that switch the library to a different program
/// (the FEC and operating-point-cache kill switches).
const REFUSED_ENV: [&str; 2] = ["SMARTVLC_FEC", "SMARTVLC_OPCACHE"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Stop after set-up and print `ready` (the `setup_s` probe).
    setup_probe: bool,
    /// Force the output check of this task index to fail.
    fail_task: Option<usize>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut setup_probe, mut fail_task) = (false, None);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--fail-task" => fail_task = Some(value.parse().map_err(|_| bad("a task index"))?),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let seed = seed.ok_or("missing --seed")?;
    if setup_probe {
        return Ok(Args {
            workload,
            seed,
            seconds: 0.0,
            trace: false,
            setup_probe,
            fail_task,
        });
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        setup_probe,
        fail_task,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: {var} is set, which would measure a different program; unset it");
        return ExitCode::from(2);
    }
    // One worker: at two threads on a two-core machine one run in five
    // came in far slower, and the sweeps are bit-identical at any count.
    std::env::set_var("SMARTVLC_THREADS", "1");
    if args.setup_probe {
        set_up(&args);
        println!("ready");
        return ExitCode::SUCCESS;
    }

    set_up(&args);
    let run = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let (result, notes) = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let root = checkout_root();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# env commit={} nproc={} profile={} threads=1",
        source_id(&root),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    println!(
        "# failed_ratio {} ratio ({} of {} attempted)",
        ratio(result.failed as f64, result.attempted as f64),
        result.failed,
        result.attempted
    );
    for n in &notes {
        println!("# {n}");
    }
    for (name, unit, v) in &result.metrics {
        println!("{name:<32} {v:>14.6} {unit}");
    }
    let json = result.to_json();
    write_output(&root, &args, &json, &notes);
    println!("{json}");
    if result.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Everything before the first timed task: generate and validate the
/// first pass's inputs and warm the shared tables its first task uses.
fn set_up(args: &Args) {
    let first = args.workload.pass(args.seed, 0);
    first[0].warm_up();
}

/// Time one fresh process from spawn to `ready`, seconds.
fn probe_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seed = args.seed.to_string();
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .args([
            "--setup-probe",
            "--workload",
            args.workload.name(),
            "--seed",
            &seed,
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("set-up probe: {e}"))?;
    let mut line = String::new();
    let read = match child.stdout.take() {
        Some(out) => BufReader::new(out).read_line(&mut line).map(|_| ()),
        None => Ok(()),
    };
    let elapsed = t0.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| format!("set-up probe: {e}"))?;
    read.map_err(|e| format!("set-up probe: {e}"))?;
    if !status.success() || line.trim() != "ready" {
        return Err(format!("set-up probe exited with {status}"));
    }
    Ok(elapsed)
}

/// Tasks run in pass order with their outcomes and wall times.
#[derive(Default)]
struct Measured {
    tasks: Vec<Task>,
    outcomes: Vec<Outcome>,
    task_s: Vec<f64>,
    /// Tasks per pass (grid points); every pass runs to completion.
    per_pass: usize,
    wall_s: f64,
    /// `setup_s` samples, one per set-up probe.
    setup_s: Vec<f64>,
}

/// Run whole passes through `par_map` until `budget` of task wall time
/// has been spent. Untraced, it also times about [`SETUP_PROBES`] set-up
/// probes spread between the passes, so `setup_s` samples the same
/// stretch of machine time as the tasks (probe time is not task time),
/// and keeps only the first pass's tasks, so the task list does not grow
/// `peak_rss_mb` with run length.
fn measure(args: &Args, budget: Duration, traced: bool) -> Result<Measured, String> {
    let probes = !traced;
    let mut m = Measured::default();
    let budget = budget.as_secs_f64();
    let probe_every = budget / SETUP_PROBES as f64;
    let mut last_probe = f64::NEG_INFINITY;
    let mut pass = 0;
    while pass == 0 || m.wall_s < budget {
        if probes && m.wall_s - last_probe >= probe_every {
            m.setup_s.push(probe_setup(args)?);
            last_probe = m.wall_s;
        }
        let tasks = args.workload.pass(args.seed, pass);
        m.per_pass = tasks.len();
        let t0 = Instant::now();
        let done = par_map(&tasks, |_, t| {
            let t0 = Instant::now();
            let o = run_guarded(|| t.run());
            (o, t0.elapsed().as_secs_f64())
        });
        m.wall_s += t0.elapsed().as_secs_f64();
        for (o, s) in done {
            m.outcomes.push(o);
            m.task_s.push(s);
        }
        if traced || pass == 0 {
            m.tasks.extend(tasks);
        }
        pass += 1;
    }
    if let Some(o) = args.fail_task.and_then(|i| m.outcomes.get_mut(i)) {
        o.check = Err("forced to fail by --fail-task".to_string());
    }
    while probes && m.setup_s.len() < SETUP_PROBES {
        m.setup_s.push(probe_setup(args)?);
    }
    Ok(m)
}

/// Run a task, turning a panic into a failed check.
fn run_guarded(f: impl FnOnce() -> Outcome) -> Outcome {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Outcome {
        sim_s: 0.0,
        goodput_bps: 0.0,
        check: Err("task panicked".to_string()),
        fingerprint: 0,
    })
}

/// Indices of failed tasks — own checks plus the workload's cross-task
/// checks — with one message per failed check.
fn failures(w: Workload, m: &Measured) -> (BTreeSet<usize>, Vec<String>) {
    let mut bad = BTreeSet::new();
    let mut why = Vec::new();
    for (i, o) in m.outcomes.iter().enumerate() {
        if let Err(e) = &o.check {
            bad.insert(i);
            why.push(format!("task {i}: {e}"));
        }
    }
    for (idx, e) in workload::group_checks(w, m.per_pass, &m.outcomes) {
        bad.extend(idx);
        why.push(e);
    }
    (bad, why)
}

fn report_failures(why: &[String]) {
    for e in why.iter().take(10) {
        eprintln!("perfbench: FAILED {e}");
    }
}

/// The end-to-end run.
fn untraced(args: &Args) -> Result<(RunResult, Vec<String>), String> {
    let m = measure(args, Duration::from_secs_f64(args.seconds), false)?;
    let (bad, mut why) = failures(args.workload, &m);
    // Bit-identity: the first task again must reproduce its first run.
    let again = run_guarded(|| m.tasks[0].run());
    let rerun_ok = again.check.is_ok() && again.fingerprint == m.outcomes[0].fingerprint;
    if !rerun_ok {
        why.push("task 0 rerun does not match its first run bit for bit".to_string());
    }
    report_failures(&why);

    // Each grid point is timed at its best over the run's passes. The work
    // is deterministic and host noise only ever adds time: a shared
    // two-vCPU host can slow all work ~1.5x in phases of seconds to
    // minutes, so means, medians and upper percentiles follow the host's
    // phase mix while a per-point minimum follows the program.
    let per = m.per_pass;
    let points: Vec<(f64, f64)> = (0..per)
        .map(|j| {
            let best = m.task_s.iter().skip(j).step_by(per).copied();
            (m.outcomes[j].sim_s, best.fold(f64::INFINITY, f64::min))
        })
        .collect();
    let point_ms: Vec<f64> = points.iter().map(|p| p.1 * 1e3).collect();
    let sim_s: f64 = m.outcomes.iter().map(|o| o.sim_s).sum();
    let values = [
        (
            "sim_rate",
            points.iter().map(|p| p.0).sum::<f64>() / points.iter().map(|p| p.1).sum::<f64>(),
        ),
        ("task_p50_ms", median(&point_ms)),
        ("task_tail_ms", quantile(&point_ms, 0.9)),
        ("peak_rss_mb", peak_rss_mb()),
        ("setup_s", median(&m.setup_s)),
    ];
    let notes = vec![
        format!(
            "{} tasks in {} passes over {per} grid points: {:.3} s of task wall time, {:.1} simulated s ({:.2} sim-s/s overall)",
            m.outcomes.len(),
            m.outcomes.len() / per,
            m.wall_s,
            sim_s,
            sim_s / m.wall_s
        ),
        "task times are each grid point's best over the passes; task_tail_ms is their p90".to_string(),
        format!("setup_s is the median of {} fresh processes", m.setup_s.len()),
    ];
    let failed = bad.len() as u64 + u64::from(!rerun_ok);
    let result = RunResult::new(m.outcomes.len() as u64 + 1, failed, &END_TO_END, &values);
    Ok((result, notes))
}

/// What the traced rerun of one task recorded.
#[derive(Default)]
struct Traced {
    fingerprint: u64,
    link: LinkTrace,
    /// Net tasks: datagrams offered and delivered.
    dgrams: (u64, u64),
    /// Cell tasks: the counts the per-layer estimate multiplies.
    cell: Option<CellCounts>,
}

#[derive(Clone, Copy)]
struct CellCounts {
    events: u64,
    queue_peak: u64,
    handovers: u64,
    opcache_hits: u64,
    opcache_misses: u64,
    /// User-ticks: one walk (RSS window + handover step) each.
    user_ticks: u64,
    /// Served user-ticks: one interference sum each.
    served_ticks: f64,
}

fn trace_task(t: &Task) -> Traced {
    let mut tr = Traced::default();
    match t {
        Task::Link { cfg } => {
            let stats = replica::run_link(
                cfg,
                t.lux(),
                &mut RandomTraffic,
                Span::RandomSource,
                &mut tr.link,
            );
            tr.fingerprint = link_fingerprint(&stats, None);
        }
        Task::Net { cfg, specs } => {
            let rng = desim::DetRng::seed_from_u64(cfg.seed).fork("net");
            let mut net = NetOverLink::new(NetConfig::default(), specs, &rng)
                .expect("the mixes fit the flow space");
            let stats = replica::run_link(cfg, t.lux(), &mut net, Span::NetSource, &mut tr.link);
            let report = net.finish();
            tr.fingerprint = link_fingerprint(&stats, Some(&report));
            tr.dgrams = (report.offered_dgrams, report.delivered_dgrams);
        }
        Task::Cell { cfg, seed } => {
            let r = run_cell(cfg, *seed);
            tr.fingerprint = cell_fingerprint(&r);
            let tslot_s = SystemConfig::default().tslot_secs();
            tr.cell = Some(CellCounts {
                events: r.events,
                queue_peak: r.queue_peak,
                handovers: r.handovers,
                opcache_hits: r.opcache_hits,
                opcache_misses: r.opcache_misses,
                user_ticks: cfg.n_users as u64 * u64::from(cfg.ticks),
                served_ticks: r.slots_equivalent * tslot_s / cfg.tick_s,
            });
        }
    }
    tr
}

/// The traced run: the same tasks untraced, then traced, then the
/// per-call costs; per-layer metrics from all three.
fn traced(args: &Args) -> Result<(RunResult, Vec<String>), String> {
    let m = measure(args, Duration::from_secs_f64(args.seconds / 2.0), true)?;
    let (mut bad, mut why) = failures(args.workload, &m);

    let rec = obs::Recorder::new();
    let t0 = Instant::now();
    let runs: Vec<Traced> = obs::with_recorder(&rec, || par_map(&m.tasks, |_, t| trace_task(t)));
    let wall_t_ns = t0.elapsed().as_nanos() as f64;
    for (i, (r, o)) in runs.iter().zip(&m.outcomes).enumerate() {
        if r.fingerprint != o.fingerprint {
            bad.insert(i);
            why.push(format!(
                "task {i}: traced run differs from the untraced run"
            ));
        }
    }
    report_failures(&why);

    let mut v = Values(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect());
    let mut notes = Vec::new();
    // Attributed time per layer, ns.
    let layers = match &m.tasks[0] {
        Task::Cell { cfg, .. } => {
            notes.push("cell layer times are estimates: per-call cost x counts".to_string());
            cell_layers(args.seed, cfg, &runs, &mut v)
        }
        _ => link_layers(args.seed, &runs, &rec, &mut v),
    };
    let attributed: f64 = layers.iter().map(|l| l.1).sum();
    for &(name, ns) in &layers {
        v.set_if_declared(&format!("{name}.share"), ratio(ns, attributed));
    }
    v.set("trace.peak_rss_mb", peak_rss_mb());
    v.set(
        "trace.unattributed_ratio",
        1.0 - ratio(attributed, wall_t_ns),
    );
    v.set("trace.overhead_ratio", wall_t_ns / (m.wall_s * 1e9) - 1.0);

    if let Some(&(name, ns)) = layers.iter().max_by(|a, b| a.1.total_cmp(&b.1)) {
        let share = 100.0 * ratio(ns, attributed);
        notes.push(format!(
            "dominant layer {name}: {share:.1}% of attributed time"
        ));
    }
    for &(name, ns) in &layers {
        let share = 100.0 * ratio(ns, attributed);
        notes.push(format!(
            "layer {name:<18} {:>9.1} ms {share:>5.1}%",
            ns / 1e6
        ));
    }
    notes.push(format!(
        "{} tasks: {:.3} s untraced, {:.3} s traced",
        m.tasks.len(),
        m.wall_s,
        wall_t_ns / 1e9
    ));
    let result = RunResult::new(m.tasks.len() as u64, bad.len() as u64, &PER_LAYER, &v.0);
    Ok((result, notes))
}

/// Metric values by name, every declared metric present (0 until set).
struct Values(Vec<(&'static str, f64)>);

impl Values {
    fn set(&mut self, name: &str, value: f64) {
        assert!(
            self.set_if_declared(name, value),
            "{name} is not a declared metric"
        );
    }

    fn set_if_declared(&mut self, name: &str, value: f64) -> bool {
        match self.0.iter_mut().find(|(k, _)| *k == name) {
            Some(slot) => {
                slot.1 = value;
                true
            }
            None => false,
        }
    }
}

/// Per-layer metrics of the link replica; returns each span's time.
fn link_layers(
    seed: u64,
    runs: &[Traced],
    rec: &obs::Recorder,
    v: &mut Values,
) -> Vec<(&'static str, f64)> {
    let mut lt = LinkTrace::default();
    for r in runs {
        lt.merge(&r.link);
    }
    let ns = |s: Span| lt.span_ns(s) as f64;
    let sent = lt.frames_sent as f64;
    let (offered, delivered) = runs
        .iter()
        .fold((0, 0), |a, r| (a.0 + r.dgrams.0, a.1 + r.dgrams.1));
    let snap = rec.snapshot();
    let counter = |k: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == k)
            .map_or(0, |c| c.1) as f64
    };
    let (hits, misses) = (
        counter("core.planner.cache_hits"),
        counter("core.planner.cache_misses"),
    );
    let op_queries = (lt.opcache_hits + lt.opcache_misses) as f64;
    v.set(
        "tx.build_frame.ns_per_slot",
        ratio(ns(Span::BuildFrame), lt.built_slots as f64),
    );
    v.set(
        "channel.sampled.ns_per_slot",
        ratio(ns(Span::ChannelSampled), lt.sampled_slots as f64),
    );
    v.set(
        "channel.iid.ns_per_slot",
        ratio(ns(Span::ChannelIid), lt.iid_slots as f64),
    );
    v.set(
        "rx.push_slots.ns_per_slot",
        ratio(ns(Span::RxPush), lt.pushed_slots as f64),
    );
    v.set("rx.frames_ok_ratio", ratio(lt.frames_ok as f64, sent));
    v.set("mac.ns_per_frame", ratio(ns(Span::Mac), sent));
    v.set(
        "mac.retries_per_frame",
        ratio(lt.retransmissions as f64, sent),
    );
    v.set("net.source.ns_per_frame", ratio(ns(Span::NetSource), sent));
    v.set(
        "net.delivery_ratio",
        ratio(delivered as f64, offered as f64),
    );
    v.set(
        "net.frags_per_dgram",
        ratio(lt.fresh_frames as f64, offered as f64),
    );
    v.set(
        "channel.opcache.hit_ratio",
        ratio(lt.opcache_hits as f64, op_queries),
    );
    v.set("core.planner.cache_hit_ratio", ratio(hits, hits + misses));

    let planner = AmppmPlanner::new(SystemConfig::default()).expect("valid system config");
    let mix = symbol_mix(&planner, &lt.patterns);
    v.set(
        "combinat.encode.ns_per_symbol",
        calls::encode_ns_per_symbol(planner.table(), &mix, seed),
    );
    if lt.sampled_slots > 0 {
        v.set("desim.rng.gaussian_ns", calls::gaussian_ns(seed));
    }
    if !lt.fec_blocks.is_empty() {
        let profile = NET_FEC_NOMINAL.profile().expect("the net mixes are coded");
        let (enc, dec) = calls::fec_us_per_frame(profile, &lt.fec_blocks, seed);
        v.set("fec.encode_us_per_frame", enc);
        v.set("fec.decode_us_per_frame", dec);
        v.set(
            "fec.corrected_symbols",
            lt.fec_corrected as f64 / runs.len() as f64,
        );
    }
    Span::ALL.iter().map(|&s| (s.name(), ns(s))).collect()
}

/// Per-layer metrics of the cell workload: counts from the reports, call
/// costs measured here; returns each layer's estimated time.
fn cell_layers(
    seed: u64,
    cfg: &CellConfig,
    runs: &[Traced],
    v: &mut Values,
) -> Vec<(&'static str, f64)> {
    let cells: Vec<CellCounts> = runs.iter().filter_map(|r| r.cell).collect();
    let n = cells.len() as f64;
    let sum = |f: fn(&CellCounts) -> f64| cells.iter().map(f).sum::<f64>();
    let (hits, misses) = (
        sum(|c| c.opcache_hits as f64),
        sum(|c| c.opcache_misses as f64),
    );
    let queue_peak = cells.iter().map(|c| c.queue_peak).max().unwrap_or(0);
    v.set("cell.events", sum(|c| c.events as f64) / n);
    v.set("cell.queue_peak", queue_peak as f64);
    v.set("cell.handovers", sum(|c| c.handovers as f64) / n);
    v.set("cell.opcache.entries", misses / n);
    v.set("cell.opcache.hit_ratio", ratio(hits, hits + misses));

    let probe = calls::CellProbe::new(cfg, seed);
    let sched = calls::sched_ns_per_event(queue_peak as usize, seed);
    let miss = probe.opcache_miss_ns();
    let rss = probe.rss_ns();
    let interference = probe.interference_ns();
    let step = probe.handover_step_ns();
    v.set("desim.sched.ns_per_event", sched);
    v.set("vlc.opcache.query_miss_ns", miss);
    v.set("cell.geometry.rss_ns", rss);
    v.set("cell.interference_ns", interference);
    v.set("cell.handover.step_ns", step);
    let user_ticks = sum(|c| c.user_ticks as f64);
    vec![
        ("desim.sched", sched * sum(|c| c.events as f64)),
        ("cell.opcache", miss * (hits + misses)),
        ("cell.geometry", rss * user_ticks * probe.window as f64),
        ("cell.interference", interference * sum(|c| c.served_ticks)),
        ("cell.handover", step * user_ticks),
    ]
}

/// The `(n, k, symbols)` codeword mix behind the frames built: AMPPM
/// descriptors are re-planned exactly as the receiver does; MPPM carries
/// its pattern; OOK-CT uses no codeword codec.
fn symbol_mix(
    planner: &AmppmPlanner,
    patterns: &[(PatternDescriptor, u64)],
) -> Vec<(usize, usize, u64)> {
    let cfg = planner.config().clone();
    let mut mix = Vec::new();
    for &(d, frames) in patterns {
        match d {
            PatternDescriptor::Amppm { dimming_q, tier } => {
                let level = DimmingLevel::clamped(cfg.dequantize_dimming(dimming_q));
                if let Ok(plan) = planner.plan_tiered(level, tier) {
                    let ss = plan.super_symbol;
                    for (s, m) in [(ss.s1(), ss.m1()), (ss.s2(), ss.m2())] {
                        mix.push((s.n() as usize, s.k() as usize, frames * u64::from(m)));
                    }
                }
            }
            PatternDescriptor::Mppm { n, k } => mix.push((n as usize, k as usize, frames)),
            _ => {}
        }
    }
    mix
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout the benchmark was built in (the parent of its package).
fn checkout_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// The measured program's identity: the git commit when the checkout is
/// a repository, else a hash of the simulator's sources.
fn source_id(root: &Path) -> String {
    let git = root.join(".git");
    if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
        let head = head.trim();
        let commit = match head.strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(git.join(r)).ok(),
            None => Some(head.to_string()),
        };
        if let Some(c) = commit {
            return c.trim().to_string();
        }
    }
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates"] {
        collect_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("sources-fnv64-{:016x}", workload::fnv64(&bytes))
}

fn collect_files(p: &Path, out: &mut Vec<PathBuf>) {
    if p.is_file() {
        out.push(p.to_path_buf());
    } else if let Ok(dir) = std::fs::read_dir(p) {
        for e in dir.flatten() {
            if e.file_name() != "target" {
                collect_files(&e.path(), out);
            }
        }
    }
}

/// Keep the run's result and notes under `perfbench/out/`; the figures
/// are wall-clock data and stay out of every committed artifact.
fn write_output(root: &Path, args: &Args, json: &str, notes: &[String]) {
    let dir = root.join("perfbench").join("out");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.txt",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let body = notes.iter().map(|n| format!("# {n}\n")).collect::<String>() + json + "\n";
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, body)) {
        eprintln!("perfbench: could not write {}: {e}", file.display());
    }
}
