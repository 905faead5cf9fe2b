//! Deterministic observability for the SmartVLC workspace.
//!
//! This crate provides a metrics registry (monotonic counters, gauges and
//! fixed-bucket log2-scale histograms) plus a structured sim-time event
//! journal (bounded ring buffer with drop accounting). Metrics are addressed
//! by interned static [`Key`]s so the hot path is a relaxed atomic increment
//! on a preallocated slot.
//!
//! # Determinism contract
//!
//! The headline property is that a [`Snapshot`] serialized from an experiment
//! is **byte-identical regardless of `SMARTVLC_THREADS`**. Three rules make
//! that hold:
//!
//! 1. Event timestamps are [`desim::SimTime`] — never wall clock.
//! 2. Recording goes to a *scoped* [`Recorder`] (see [`with_recorder`]), not
//!    a shared global registry. Parallel runners give each task its own
//!    recorder and merge child recorders into the parent **in submission
//!    order** ([`Recorder::merge_in`]), so the merged result is independent
//!    of worker scheduling.
//! 3. Snapshots sort metrics by key name and never include wall-clock
//!    quantities.
//!
//! # Feature flag
//!
//! With the default `telemetry` feature enabled the full layer is compiled.
//! With `--no-default-features` every type collapses to a zero-sized no-op
//! ([`NoopSink`] mode) with the same API surface, so instrumented call sites
//! need no `cfg` gates and the optimizer removes them entirely.
//!
//! # Example
//!
//! ```
//! use smartvlc_obs as obs;
//!
//! let rec = obs::Recorder::new();
//! obs::with_recorder(&rec, || {
//!     obs::counter_add(obs::key!("demo.frames"), 3);
//!     obs::observe(obs::key!("demo.backoff_ns"), 4096);
//!     obs::event(desim::SimTime::from_micros(8), obs::key!("demo.sync_loss"), 1);
//! });
//! let snap = rec.snapshot();
//! // With `telemetry` on the snapshot carries the data; with the feature
//! // off it is empty. Either way `to_json()` is valid JSON.
//! let _json = snap.to_json();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "telemetry")]
mod key;
#[cfg(feature = "telemetry")]
mod registry;
#[cfg(feature = "telemetry")]
mod scope;

#[cfg(feature = "telemetry")]
pub use key::{Key, MAX_KEYS};
#[cfg(feature = "telemetry")]
pub use registry::{bucket_lower_bound, bucket_of, Recorder, HIST_BUCKETS};
#[cfg(feature = "telemetry")]
pub use scope::{counter_add, current_recorder, event, gauge_set, observe, with_recorder};

#[cfg(not(feature = "telemetry"))]
mod noop;
#[cfg(not(feature = "telemetry"))]
pub use noop::{
    bucket_lower_bound, bucket_of, counter_add, current_recorder, event, gauge_set, observe,
    with_recorder, Key, Recorder, HIST_BUCKETS, MAX_KEYS,
};

mod snapshot;
pub use snapshot::{escape_json, EventSnapshot, HistogramSnapshot, Snapshot};

/// Marker alias documenting the disabled-telemetry mode: with the `telemetry`
/// feature off, [`Recorder`] *is* the no-op sink.
pub type NoopSink = Recorder;

/// Interns a static metric key once per call site.
///
/// Expands to a `OnceLock`-cached [`Key::intern`], so repeated executions of
/// the same call site cost one atomic load. With telemetry disabled this is a
/// zero-sized constant.
#[macro_export]
macro_rules! key {
    ($name:expr) => {{
        static __SMARTVLC_OBS_KEY: ::std::sync::OnceLock<$crate::Key> =
            ::std::sync::OnceLock::new();
        *__SMARTVLC_OBS_KEY.get_or_init(|| $crate::Key::intern($name))
    }};
}
