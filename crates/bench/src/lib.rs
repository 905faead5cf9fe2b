//! Shared plumbing for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation (§6): it prints a markdown table plus an ASCII
//! chart to stdout and writes the raw series as CSV into `results/`.
//! `--full` switches from the quick default to paper-length runs.

use std::path::PathBuf;

/// Where generators drop their CSVs (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("SMARTVLC_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
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
        std::env::set_var(
            "SMARTVLC_RESULTS",
            std::env::temp_dir().join("svlc_results"),
        );
        let d = results_dir();
        assert!(d.exists());
        std::env::remove_var("SMARTVLC_RESULTS");
    }

    #[test]
    fn formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
    }
}
