//! Shared plumbing for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation (§6): it prints a markdown table plus an ASCII
//! chart to stdout and writes the raw series as CSV into `results/`.
//! `--full` switches from the quick default to paper-length runs.
//!
//! The environment is read here and in the binaries, never in the
//! libraries: `SMARTVLC_RESULTS` picks the output directory and
//! `SMARTVLC_THREADS` the runner's worker count ([`with_env_threads`]).

use smartvlc_sim::{parse_thread_count, with_threads};
use std::ffi::OsString;
use std::path::PathBuf;

/// Where generators drop their CSVs (created on demand).
pub fn results_dir() -> PathBuf {
    create_results_dir(std::env::var_os("SMARTVLC_RESULTS"))
}

/// Writes `contents` to `name` in [`results_dir`] and says so on stdout.
pub fn write_result(name: &str, contents: impl AsRef<[u8]>) {
    let path = results_dir().join(name);
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {name}: {e}"));
    println!("wrote {}", path.display());
}

fn create_results_dir(dir: Option<OsString>) -> PathBuf {
    let dir = dir.map_or_else(|| PathBuf::from("results"), PathBuf::from);
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// The runner's worker count: `SMARTVLC_THREADS` if set (a value
/// [`parse_thread_count`] rejects panics, naming it), otherwise the
/// machine's available parallelism.
pub fn env_threads() -> usize {
    match std::env::var("SMARTVLC_THREADS") {
        Ok(raw) => parse_thread_count(&raw).unwrap_or_else(|msg| panic!("{msg}")),
        Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Runs `f` (a binary's `main`) with the runner fanning out on
/// [`env_threads`] workers.
pub fn with_env_threads<R>(f: impl FnOnce() -> R) -> R {
    with_threads(env_threads(), f)
}

/// The in-binary determinism gate: runs `run` on one worker and on eight,
/// panics unless `bytes` renders both outputs identically, and returns the
/// serial output.
pub fn gate_1_vs_8<T>(what: &str, mut run: impl FnMut() -> T, bytes: impl Fn(&T) -> String) -> T {
    let serial = with_threads(1, &mut run);
    let parallel = with_threads(8, &mut run);
    assert_eq!(
        bytes(&serial),
        bytes(&parallel),
        "{what} differs between SMARTVLC_THREADS=1 and 8"
    );
    serial
}

/// True when the binary was invoked with `--full` (paper-length runs).
pub fn full_run() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Per-point simulated duration: quick by default, paper-length with
/// `--full` (the paper uses 30 s per marker in Fig. 16).
pub fn point_duration() -> desim::SimDuration {
    if full_run() {
        desim::SimDuration::secs(30)
    } else {
        desim::SimDuration::secs(2)
    }
}

/// Format a float column.
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_created() {
        let d = create_results_dir(Some(std::env::temp_dir().join("svlc_results").into()));
        assert!(d.exists());
    }

    #[test]
    fn the_gate_catches_thread_count_dependent_output() {
        let ids = || smartvlc_sim::par_map(&[(); 8], |_, _| std::thread::current().id());
        let show = |v: &Vec<_>| format!("{v:?}");
        assert!(std::panic::catch_unwind(|| gate_1_vs_8("thread ids", ids, show)).is_err());
    }

    #[test]
    fn formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
    }
}
