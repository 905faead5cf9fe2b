//! Deterministic snapshot export (JSON and CSV).
//!
//! A [`Snapshot`] is plain owned data — it is available in both telemetry
//! modes (empty when the feature is off) so downstream binaries can
//! serialize unconditionally. Serialization is hand-rolled with a stable
//! field order, name-sorted metrics and shortest-roundtrip float formatting,
//! so equal snapshots always produce byte-identical output.

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

/// Appends `s` to `out` as the body of a JSON string literal: quotes,
/// backslashes and control characters escaped, everything else verbatim.
pub fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Formats an f64 the way every serializer in this workspace must: Rust's
/// shortest-roundtrip `Display`, with non-finite values mapped to `null`
/// (JSON has no NaN/Inf literals).
fn fmt_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
        // "1" is a valid JSON number, so no ".0" fixup is needed; Display
        // output for finite floats is already deterministic.
    } else {
        out.push_str("null");
    }
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

    /// Serializes to a deterministic JSON object.
    ///
    /// Field order is fixed (`counters`, `gauges`, `histograms`, `events`,
    /// `events_dropped`); metric maps are name-sorted. Equal snapshots
    /// serialize to byte-identical strings.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    \"");
            escape_json(name, &mut out);
            let _ = write!(out, "\": {v}");
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    \"");
            escape_json(name, &mut out);
            out.push_str("\": ");
            fmt_f64(*v, &mut out);
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    \"");
            escape_json(&h.name, &mut out);
            let _ = write!(
                out,
                "\": {{\"count\": {}, \"sum\": {}, \"buckets\": {{",
                h.count, h.sum
            );
            for (j, (b, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{b}\": {n}");
            }
            out.push_str("}}");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"events\": [");
        for (i, ev) in self.events.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(out, "    {{\"t_ns\": {}, \"key\": \"", ev.t_ns);
            escape_json(&ev.key, &mut out);
            let _ = write!(out, "\", \"value\": {}}}", ev.value);
        }
        if !self.events.is_empty() {
            out.push_str("\n  ");
        }
        let _ = write!(out, "],\n  \"events_dropped\": {}\n}}", self.events_dropped);
        out
    }

    /// [`Snapshot::to_json`] re-indented to embed as a value inside a
    /// two-space-indented JSON document: every line after the first
    /// gains two spaces.
    pub fn to_json_embedded(&self) -> String {
        self.to_json().replace('\n', "\n  ")
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
            let _ = write!(out, "gauge,{name},,");
            fmt_f64(*v, &mut out);
            out.push('\n');
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
    fn json_is_stable_and_contains_all_sections() {
        let a = sample().to_json();
        let b = sample().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"a.count\": 3"));
        assert!(a.contains("\"a.gauge\": 1.5"));
        assert!(a.contains("\"b.gauge\": 2"));
        assert!(a.contains("\"count\": 2, \"sum\": 5"));
        assert!(a.contains("\"t_ns\": 8000"));
        assert!(a.contains("\"events_dropped\": 1"));
    }

    #[test]
    fn embedded_json_indents_every_line_after_the_first() {
        let flat = sample().to_json();
        let embedded = sample().to_json_embedded();
        let mut lines = embedded.lines();
        let mut flat_lines = flat.lines();
        assert_eq!(lines.next(), flat_lines.next());
        for (e, f) in lines.zip(flat_lines) {
            assert_eq!(e, format!("  {f}"));
        }
        assert_eq!(embedded.lines().count(), flat.lines().count());
    }

    #[test]
    fn empty_snapshot_is_valid_json_shell() {
        let s = Snapshot::default();
        assert!(s.is_empty());
        let json = s.to_json();
        assert!(json.contains("\"counters\": {}"));
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
