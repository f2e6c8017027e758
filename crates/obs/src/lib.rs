//! `fcm-obs` — the observability layer.
//!
//! De Florio's survey of application-level fault tolerance argues that
//! a dependability mechanism you cannot observe is one you cannot
//! tune; Rugina/Kanoun/Kaâniche's AADL framework shows the leverage of
//! a *structured* dependability-event model over flat timers. This
//! crate supplies that model for the whole workspace, on top of
//! `fcm-substrate` and nothing else:
//!
//! * [`span`] — hierarchical span tracing: per-thread bounded rings,
//!   parent/child ids, deterministic static names, monotonic
//!   nanosecond timestamps; O(1) per span;
//! * [`metrics`] — a registry of counters, gauges, and log-linear
//!   [`hist::Histogram`]s (record / merge / quantile);
//! * [`export`] — schema-versioned JSONL event-log export
//!   (`fcm-obs/v1`) and its reader, consumed by the `obsview`
//!   inspector in `fcm-bench`;
//! * [`recorder`] — a bounded flight-recorder event ring the serving
//!   layer dumps (`flight.jsonl`, same `fcm-obs/v1` format) on
//!   degraded entry, crash-drill crash points, and SIGTERM drain;
//! * [`window`] — count-based rolling-window histograms behind the
//!   serve layer's live `stats` SLO fields.
//!
//! # The observation contract
//!
//! Observability is **off by default** and runtime-enabled via
//! [`init`] (an [`ObsConfig`], typically driven by `FCM_OBS_OUT` /
//! `repro --obs-out`). Every recording entry point early-returns on a
//! single relaxed atomic load while disabled. Recorded data is an
//! *observation*, never an input: no analysis result may read a span
//! or metric back, which is what keeps experiment tables byte
//! -identical with observability on or off (`scripts/verify.sh`
//! compares exactly that).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod hist;
pub mod metrics;
pub mod recorder;
pub mod span;
pub mod window;

use std::sync::atomic::{AtomicBool, Ordering};

pub use export::{EventLog, LoggedEvent, LoggedSpan};
pub use hist::Histogram;
pub use metrics::{counter_add, gauge_set, hist_record, MetricsSnapshot};
pub use recorder::FlightEvent;
pub use span::{current_span, span, span_idx, span_under, Span, SpanRecord};
pub use window::RollingHist;

/// The environment variable naming the JSONL event-log output path.
/// Setting it (or passing `repro --obs-out`) enables recording.
pub const OBS_OUT_ENV: &str = "FCM_OBS_OUT";

/// Runtime observability configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Per-thread span ring capacity; overflow overwrites the oldest
    /// span and is counted in the export's `spans_dropped`.
    pub ring_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            ring_capacity: 65_536,
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether recording is currently enabled. One relaxed atomic load —
/// this is the entire disabled-path cost of every instrumentation
/// point.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables recording with `config`, and hooks the substrate pool's
/// per-worker counters into the metrics registry.
pub fn init(config: ObsConfig) {
    span::RING_CAPACITY.store(config.ring_capacity as u64, Ordering::Relaxed);
    fcm_substrate::pool::set_counter_hook(Some(pool_hook));
    ENABLED.store(true, Ordering::Relaxed);
}

/// Toggles recording without touching buffered data (benches use this
/// to time the same code with observability on and off).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Runs `f`; when recording is enabled, its elapsed wall time in
/// nanoseconds lands as one sample in histogram `hist`. Disabled, this
/// is `f()` plus the one atomic load.
pub fn timed<R>(hist: &str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let t0 = span::now_ns();
    let out = f();
    hist_record(hist, span::now_ns().saturating_sub(t0));
    out
}

/// The pool's counter hook: per-worker pool counters land in the
/// registry as `<name>.w<worker>`.
fn pool_hook(name: &'static str, worker: usize, n: u64) {
    metrics::counter_add(&format!("{name}.w{worker}"), n);
}

/// The crate-wide test lock. The registry, span rings, recorder,
/// `ENABLED` and the pool counter hook are all process-global, so every
/// test that touches any of them holds this one lock for its whole body.
#[cfg(test)]
pub(crate) static TEST_LOCK: fcm_substrate::pool::Mutex<()> = fcm_substrate::pool::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use fcm_substrate::pool;

    #[test]
    fn off_by_default_costs_one_atomic_load() {
        let _g = TEST_LOCK.lock();
        set_enabled(false);
        assert!(!enabled());
        // All entry points are inert.
        counter_add("lib.off", 1);
        hist_record("lib.off", 1);
        assert_eq!(span::current_span(), 0);
        assert!(!metrics::snapshot().counters.contains_key("lib.off"));
    }

    #[test]
    fn init_installs_the_pool_counter_hook() {
        let _g = TEST_LOCK.lock();
        init(ObsConfig::default());
        let _ = metrics::drain();
        let items: Vec<u64> = (0..256).collect();
        let out = pool::par_map_threads(&items, 4, |&x| x + 1);
        assert_eq!(out.len(), 256);
        let snap = metrics::drain();
        let executed: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("pool.execute.w"))
            .map(|(_, &v)| v)
            .sum();
        assert_eq!(executed, 256, "every item accounted to some worker");
        let parks: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("pool.park.w"))
            .map(|(_, &v)| v)
            .sum();
        assert!(parks >= 1, "workers record their park on exit");
        set_enabled(false);
        pool::set_counter_hook(None);
    }

    #[test]
    fn timed_records_one_sample_only_when_enabled() {
        let _g = TEST_LOCK.lock();
        init(ObsConfig::default());
        let _ = metrics::drain();
        assert_eq!(timed("lib.timed", || 7), 7, "returns the closure's value");
        assert_eq!(metrics::snapshot().hists["lib.timed"].count(), 1);
        set_enabled(false);
        assert_eq!(timed("lib.timed", || 8), 8);
        assert_eq!(
            metrics::drain().hists["lib.timed"].count(),
            1,
            "no sample while off"
        );
        pool::set_counter_hook(None);
    }
}
