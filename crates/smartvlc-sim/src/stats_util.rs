//! Small statistics helpers for multi-seed experiment aggregation.
//!
//! The paper plots single measurement runs; a simulation can afford
//! replication. These helpers summarize per-seed results into mean ±
//! 95% confidence intervals so the figure generators can report error
//! bars.

/// Mean / spread summary of one sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Half-width of the ~95% confidence interval on the mean
    /// (1.96·σ/√n; exact t quantiles are overkill for reporting).
    pub ci95: f64,
}

/// Summarize a sample set, or `None` for an empty one — the total-function
/// form for callers whose sample sets come from filters or sweeps that can
/// legitimately come up empty.
pub fn try_summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    let std_dev = if n < 2 {
        0.0
    } else {
        (samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64).sqrt()
    };
    Some(Summary {
        n,
        mean,
        std_dev,
        ci95: 1.96 * std_dev / (n as f64).sqrt(),
    })
}

/// Summarize a sample set. Panics on an empty slice; use
/// [`try_summarize`] where emptiness is a real possibility.
pub fn summarize(samples: &[f64]) -> Summary {
    try_summarize(samples).expect("no samples")
}

/// Nearest-rank percentile summary of one sample set — the tail-latency
/// view (p50/p95/p99) the net battery reports. Nearest-rank (rank
/// `⌈p/100·N⌉`, 1-indexed) always returns an observed sample, so the
/// values are exactly reproducible with no interpolation-order concerns.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentiles {
    /// Number of samples.
    pub n: usize,
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Nearest-rank percentiles of a sample set, or `None` when empty.
/// NaN samples sort last (via `total_cmp`), so a stray NaN perturbs the
/// p99 rather than poisoning the whole summary.
pub fn try_percentiles(samples: &[f64]) -> Option<Percentiles> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    let at = |p: f64| -> f64 {
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        sorted[rank - 1]
    };
    Some(Percentiles {
        n,
        p50: at(50.0),
        p95: at(95.0),
        p99: at(99.0),
    })
}

/// Nearest-rank percentiles. Panics on an empty slice; use
/// [`try_percentiles`] where emptiness is a real possibility.
pub fn percentiles(samples: &[f64]) -> Percentiles {
    try_percentiles(samples).expect("no samples")
}

/// A single nearest-rank percentile (`p` in percent, clamped to
/// `(0, 100]`), or `None` when the sample set is empty — the general
/// form behind [`try_percentiles`], for percentiles the fixed p50/95/99
/// summary does not cover (the cell battery's p5 cell-edge rate).
pub fn try_percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

impl Summary {
    /// `mean ± ci95` formatted at the given precision.
    pub fn fmt(&self, prec: usize) -> String {
        format!("{:.prec$} ± {:.prec$}", self.mean, self.ci95)
    }

    /// Whether another summary's mean lies outside this one's CI — a
    /// quick significance screen for A-vs-B comparisons.
    pub fn separated_from(&self, other: &Summary) -> bool {
        (self.mean - other.mean).abs() > self.ci95 + other.ci95
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let s = summarize(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample std dev (n-1) of this classic set is ~2.138.
        assert!((s.std_dev - 2.1381).abs() < 1e-3, "{}", s.std_dev);
        assert!(s.ci95 > 0.0);
    }

    #[test]
    fn single_sample() {
        let s = summarize(&[42.0]);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_panics() {
        summarize(&[]);
    }

    #[test]
    fn try_summarize_is_total() {
        assert_eq!(try_summarize(&[]), None);
        let s = try_summarize(&[1.0, 3.0]).unwrap();
        assert_eq!(s.n, 2);
        assert_eq!(s.mean, 2.0);
        assert_eq!(Some(summarize(&[1.0, 3.0])), try_summarize(&[1.0, 3.0]));
    }

    #[test]
    fn separation_screen() {
        let a = summarize(&[10.0, 10.1, 9.9, 10.0]);
        let b = summarize(&[12.0, 12.1, 11.9, 12.0]);
        let c = summarize(&[10.05, 10.1, 9.95, 10.05]);
        assert!(a.separated_from(&b));
        assert!(!a.separated_from(&c));
    }

    #[test]
    fn fmt_rounds() {
        let s = summarize(&[1.234, 1.236]);
        assert!(
            s.fmt(2).starts_with("1.23 ±") || s.fmt(2).starts_with("1.24 ±"),
            "{}",
            s.fmt(2)
        );
    }

    #[test]
    fn nearest_rank_percentiles() {
        // 1..=100: nearest-rank percentiles are exactly the pth values.
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let p = percentiles(&samples);
        assert_eq!((p.n, p.p50, p.p95, p.p99), (100, 50.0, 95.0, 99.0));
        // Order must not matter.
        let mut rev = samples.clone();
        rev.reverse();
        assert_eq!(percentiles(&rev), p);
        // Small sets: nearest rank always returns an observed sample.
        let p = percentiles(&[7.0]);
        assert_eq!((p.p50, p.p95, p.p99), (7.0, 7.0, 7.0));
        let p = percentiles(&[1.0, 2.0]);
        assert_eq!((p.p50, p.p95, p.p99), (1.0, 2.0, 2.0));
        assert_eq!(try_percentiles(&[]), None);
    }

    #[test]
    fn single_percentile_matches_the_summary_and_reaches_p5() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(try_percentile(&samples, 5.0), Some(5.0));
        assert_eq!(
            try_percentile(&samples, 50.0),
            Some(percentiles(&samples).p50)
        );
        assert_eq!(
            try_percentile(&samples, 99.0),
            Some(percentiles(&samples).p99)
        );
        assert_eq!(try_percentile(&[], 5.0), None);
        // Tiny sets: nearest rank still returns an observed sample.
        assert_eq!(try_percentile(&[3.0, 9.0], 5.0), Some(3.0));
    }

    #[test]
    fn percentiles_tolerate_nan() {
        let p = percentiles(&[f64::NAN, 3.0, 1.0, 2.0]);
        assert_eq!(p.p50, 2.0, "NaN must sort last, not poison the median");
    }

    #[test]
    fn multi_seed_fig15_separation() {
        // The reproduced headline survives replication: AMPPM and OOK-CT
        // at l = 0.2 separate beyond their CIs across five seeds.
        use crate::static_run::run_scheme_matrix;
        use desim::SimDuration;
        use smartvlc_link::SchemeKind;
        let dur = SimDuration::millis(400);
        let collect = |scheme| -> Vec<f64> {
            (0..5)
                .map(|seed| run_scheme_matrix(&[scheme], &[0.2], dur, 100 + seed)[0][0].goodput_bps)
                .collect()
        };
        let amppm = summarize(&collect(SchemeKind::Amppm));
        let ook = summarize(&collect(SchemeKind::OokCt));
        assert!(
            amppm.separated_from(&ook),
            "amppm={} ook={}",
            amppm.fmt(0),
            ook.fmt(0)
        );
    }
}
