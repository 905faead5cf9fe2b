//! Deterministic snapshot export (JSON and CSV).
//!
//! A [`Snapshot`] is plain owned data — it is available in both telemetry
//! modes (empty when the feature is off) so downstream binaries can
//! serialize unconditionally. Its JSON goes through the crate's one
//! [`Json`] writer with a stable field order, name-sorted metrics and
//! shortest-roundtrip floats, so equal snapshots always produce
//! byte-identical output.

use crate::json::Json;
use std::fmt::Write as _;

/// A serializable histogram: total `count`, total `sum`, and the non-empty
/// log2 buckets as `(bucket_index, count)` pairs in index order.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Interned key name of the histogram.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Non-empty buckets, ascending by index. Bucket 0 holds zeros; bucket
    /// `i >= 1` holds values in `[2^(i-1), 2^i - 1]`.
    pub buckets: Vec<(u32, u64)>,
}

/// A serializable journal entry.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct EventSnapshot {
    /// Sim-time timestamp in nanoseconds (never wall clock).
    pub t_ns: u64,
    /// Interned key name of the event.
    pub key: String,
    /// Event payload value.
    pub value: u64,
}

/// A point-in-time export of everything a recorder accumulated.
///
/// Metrics are sorted by key name; events keep journal (merge) order.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Snapshot {
    /// Monotonic counters with non-zero totals, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauges that were set at least once, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// Histograms with at least one observation, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
    /// Journal entries in merge order (per-task order within a task,
    /// submission order across tasks).
    pub events: Vec<EventSnapshot>,
    /// Events dropped by ring-buffer overflow, including drops inherited
    /// from merged child recorders.
    pub events_dropped: u64,
}

impl Snapshot {
    /// True if nothing was recorded (also the no-op mode constant result).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.events.is_empty()
            && self.events_dropped == 0
    }

    /// The snapshot as a deterministic JSON object.
    ///
    /// Field order is fixed (`counters`, `gauges`, `histograms`, `events`,
    /// `events_dropped`); metric maps are name-sorted. Equal snapshots
    /// render to byte-identical strings, at any nesting depth.
    pub fn json(&self) -> Json {
        let histogram = |h: &HistogramSnapshot| {
            let buckets = h
                .buckets
                .iter()
                .map(|(b, n)| (b.to_string(), Json::from(*n)));
            Json::inline_obj([
                ("count", Json::from(h.count)),
                ("sum", Json::from(h.sum)),
                ("buckets", Json::inline_obj(buckets)),
            ])
        };
        let event = |e: &EventSnapshot| {
            Json::inline_obj([
                ("t_ns", Json::from(e.t_ns)),
                ("key", Json::from(e.key.as_str())),
                ("value", Json::from(e.value)),
            ])
        };
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.as_str(), Json::from(*v)));
        let gauges = self
            .gauges
            .iter()
            .map(|(k, v)| (k.as_str(), Json::float(*v)));
        let histograms = self
            .histograms
            .iter()
            .map(|h| (h.name.as_str(), histogram(h)));
        Json::obj([
            ("counters", Json::obj(counters)),
            ("gauges", Json::obj(gauges)),
            ("histograms", Json::obj(histograms)),
            ("events", Json::arr(self.events.iter().map(event))),
            ("events_dropped", Json::from(self.events_dropped)),
        ])
    }

    /// Serializes to a deterministic CSV table with columns
    /// `record,key,index,value`:
    ///
    /// - `counter,<key>,,<total>`
    /// - `gauge,<key>,,<value>`
    /// - `hist_count,<key>,,<count>` / `hist_sum,<key>,,<sum>` /
    ///   `hist_bucket,<key>,<bucket_index>,<count>`
    /// - `event,<key>,<t_ns>,<value>`
    /// - `events_dropped,,,<n>`
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("record,key,index,value\n");
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter,{name},,{v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "gauge,{name},,{}", Json::float(*v));
        }
        for h in &self.histograms {
            let _ = writeln!(out, "hist_count,{},,{}", h.name, h.count);
            let _ = writeln!(out, "hist_sum,{},,{}", h.name, h.sum);
            for (b, n) in &h.buckets {
                let _ = writeln!(out, "hist_bucket,{},{b},{n}", h.name);
            }
        }
        for ev in &self.events {
            let _ = writeln!(out, "event,{},{},{}", ev.key, ev.t_ns, ev.value);
        }
        let _ = writeln!(out, "events_dropped,,,{}", self.events_dropped);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            counters: vec![("a.count".into(), 3), ("b.count".into(), 1)],
            gauges: vec![("a.gauge".into(), 1.5), ("b.gauge".into(), 2.0)],
            histograms: vec![HistogramSnapshot {
                name: "a.hist".into(),
                count: 2,
                sum: 5,
                buckets: vec![(2, 1), (3, 1)],
            }],
            events: vec![EventSnapshot {
                t_ns: 8000,
                key: "a.ev".into(),
                value: 7,
            }],
            events_dropped: 1,
        }
    }

    #[test]
    fn json_layout_is_pinned() {
        assert_eq!(
            sample().json().to_string(),
            r#"{
  "counters": {
    "a.count": 3,
    "b.count": 1
  },
  "gauges": {
    "a.gauge": 1.5,
    "b.gauge": 2
  },
  "histograms": {
    "a.hist": {"count": 2, "sum": 5, "buckets": {"2": 1, "3": 1}}
  },
  "events": [
    {"t_ns": 8000, "key": "a.ev", "value": 7}
  ],
  "events_dropped": 1
}"#
        );
    }

    #[test]
    fn empty_snapshot_is_valid_json_shell() {
        let s = Snapshot::default();
        assert!(s.is_empty());
        let json = s.json().to_string();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"events\": []"));
        assert!(json.contains("\"events_dropped\": 0"));
    }

    #[test]
    fn csv_round_structure() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "record,key,index,value");
        assert!(lines.contains(&"counter,a.count,,3"));
        assert!(lines.contains(&"hist_bucket,a.hist,2,1"));
        assert!(lines.contains(&"event,a.ev,8000,7"));
        assert!(lines.contains(&"events_dropped,,,1"));
    }
}
