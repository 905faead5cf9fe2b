//! Metric names and units, and the result line the benchmark prints.

use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("sim_rate", "sim-s/s"),
    ("task_p50_ms", "ms"),
    ("task_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`), in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("tx.build_frame.ns_per_slot", "ns/slot"),
    ("core.planner.cache_hit_ratio", "ratio"),
    ("combinat.encode.ns_per_symbol", "ns/symbol"),
    ("channel.sampled.ns_per_slot", "ns/slot"),
    ("desim.rng.gaussian_ns", "ns"),
    ("channel.iid.ns_per_slot", "ns/slot"),
    ("channel.opcache.hit_ratio", "ratio"),
    ("rx.push_slots.ns_per_slot", "ns/slot"),
    ("rx.frames_ok_ratio", "ratio"),
    ("mac.ns_per_frame", "ns/frame"),
    ("mac.retries_per_frame", "count/frame"),
    ("fec.encode_us_per_frame", "us/frame"),
    ("fec.decode_us_per_frame", "us/frame"),
    ("fec.corrected_symbols", "count/task"),
    ("net.source.ns_per_frame", "ns/frame"),
    ("net.delivery_ratio", "ratio"),
    ("net.frags_per_dgram", "count/dgram"),
    ("cell.events", "count/task"),
    ("cell.queue_peak", "count"),
    ("cell.handovers", "count/task"),
    ("desim.sched.ns_per_event", "ns/event"),
    ("cell.opcache.entries", "count/task"),
    ("cell.opcache.hit_ratio", "ratio"),
    ("vlc.opcache.query_miss_ns", "ns"),
    ("cell.geometry.rss_ns", "ns"),
    ("cell.interference_ns", "ns"),
    ("cell.handover.step_ns", "ns"),
    ("tx.build_frame.share", "ratio"),
    ("channel.sampled.share", "ratio"),
    ("channel.iid.share", "ratio"),
    ("rx.push_slots.share", "ratio"),
    ("mac.share", "ratio"),
    ("net.source.share", "ratio"),
    ("desim.sched.share", "ratio"),
    ("cell.opcache.share", "ratio"),
    ("cell.geometry.share", "ratio"),
    ("cell.interference.share", "ratio"),
    ("cell.handover.share", "ratio"),
    ("trace.peak_rss_mb", "MB"),
    ("trace.unattributed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// The result object of one run; its JSON is the last line printed.
pub struct RunResult {
    /// Tasks attempted (the bit-identity rerun included).
    pub attempted: u64,
    /// Tasks that panicked, erred or failed an output check.
    pub failed: u64,
    /// `(name, unit, value)` in table order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl RunResult {
    /// Pair each name of `table` with its value from `values`.
    ///
    /// # Panics
    /// Panics if a metric of the table has no value: the benchmark must
    /// print every metric it declares.
    pub fn new(
        attempted: u64,
        failed: u64,
        table: &[(&'static str, &'static str)],
        values: &[(&str, f64)],
    ) -> RunResult {
        let metrics = table
            .iter()
            .map(|&(name, unit)| {
                let v = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"))
                    .1;
                (name, unit, v)
            })
            .collect();
        RunResult {
            attempted,
            failed,
            metrics,
        }
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            );
        }
        s.push_str("}}");
        s
    }
}

/// `v` as a JSON number; JSON has no NaN or infinity, so those print as 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Median of `xs` (mean of the middle two for even lengths); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The nearest-rank `q` quantile of `xs` (`0 < q <= 1`); 0 if empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v.get(rank.max(1) - 1).copied().unwrap_or(0.0)
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}
