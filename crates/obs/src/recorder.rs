//! The flight recorder: a bounded, always-available ring of discrete
//! events that can be dumped as an `fcm-obs/v1` JSONL document at any
//! moment — without disturbing the regular span/metrics export.
//!
//! The serving layer records one [`FlightEvent`] per interesting moment
//! (accepted mutation, degraded transition, re-arm probe, repr flip,
//! stats heartbeat) and registers a dump path; when the daemon enters
//! degraded mode, hits a crash-drill crash point, or drains on SIGTERM,
//! [`auto_dump`] writes `flight.jsonl`: the last `capacity` events plus
//! a *peek* of the span rings (aggregated per name into histograms) and
//! the metric registry (counters as deltas since the previous dump).
//! The result parses with [`crate::EventLog::parse`] and renders in
//! `obsview`, so a post-mortem starts from one self-describing file.
//!
//! Contract (mirrors the span rings): recording is gated on one relaxed
//! atomic load and is off by default; the ring overwrites its oldest
//! entry when full and counts the drop; a dump is a peek, not a cut —
//! it never resets the spans or metrics it embeds. Telemetry stays
//! output-only: nothing here is readable by an analysis path.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fcm_substrate::pool::Mutex;
use fcm_substrate::{Json, ToJson};

use crate::export::SCHEMA;
use crate::hist::Histogram;
use crate::metrics;
use crate::span;

/// Default ring capacity (events retained for a dump).
pub const DEFAULT_CAPACITY: usize = 4096;

/// One recorded flight event.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Recorder-assigned sequence number (0-based, monotonic).
    pub seq: u64,
    /// Nanoseconds from the process epoch at record time.
    pub ts_ns: u64,
    /// Event name (e.g. `mutation`, `degraded`, `rearm`).
    pub name: &'static str,
    /// Structured payload (never read back into an analysis). Shared —
    /// a publisher fanning the same payload to subscribers hands the
    /// recorder a refcount, not a deep copy, keeping the record path
    /// allocation-free beyond the ring slot itself.
    pub detail: Arc<Json>,
}

static REC_ON: AtomicBool = AtomicBool::new(false);

struct RecInner {
    buf: Vec<FlightEvent>,
    /// Next overwrite position once the buffer is full.
    head: usize,
    capacity: usize,
    dropped: u64,
    next_seq: u64,
    dump_path: Option<PathBuf>,
    /// Counter totals embedded in the previous dump, so each dump
    /// carries counter *deltas* instead of repeating lifetime totals.
    last_counters: BTreeMap<String, u64>,
}

static REC: Mutex<RecInner> = Mutex::new(RecInner {
    buf: Vec::new(),
    head: 0,
    capacity: DEFAULT_CAPACITY,
    dropped: 0,
    next_seq: 0,
    dump_path: None,
    last_counters: BTreeMap::new(),
});

/// Whether the flight recorder is recording (one relaxed atomic load —
/// this is the entire fast path while disabled).
#[must_use]
pub fn enabled() -> bool {
    REC_ON.load(Ordering::Relaxed)
}

/// Turns the recorder on or off. Independent of [`crate::enabled`]:
/// the serving layer keeps its flight recorder armed even when full
/// span tracing is off.
pub fn set_enabled(on: bool) {
    REC_ON.store(on, Ordering::Relaxed);
}

/// Sets the ring capacity and resets the recorder: events, drop count,
/// sequence numbers, and the counter-delta baseline all start fresh.
pub fn configure(capacity: usize) {
    let mut rec = REC.lock();
    rec.capacity = capacity;
    rec.buf.clear();
    rec.head = 0;
    rec.dropped = 0;
    rec.next_seq = 0;
    rec.last_counters.clear();
}

/// Registers (or clears) the path [`auto_dump`] writes to.
pub fn set_dump_path(path: Option<PathBuf>) {
    REC.lock().dump_path = path;
}

/// Records one event. No-op (one relaxed load) while disabled; when the
/// ring is full the oldest event is overwritten and counted as dropped.
pub fn record(name: &'static str, detail: Json) {
    record_arc(name, Arc::new(detail));
}

/// [`record`] for payloads already shared elsewhere (e.g. fanned out to
/// event subscribers): the ring takes a refcount, not a deep copy.
pub fn record_arc(name: &'static str, detail: Arc<Json>) {
    if !enabled() {
        return;
    }
    let ts_ns = span::now_ns();
    let mut rec = REC.lock();
    let seq = rec.next_seq;
    rec.next_seq += 1;
    let ev = FlightEvent {
        seq,
        ts_ns,
        name,
        detail,
    };
    if rec.buf.len() < rec.capacity {
        rec.buf.push(ev);
    } else if rec.capacity > 0 {
        let head = rec.head;
        rec.buf[head] = ev;
        rec.head = (head + 1) % rec.capacity;
        rec.dropped += 1;
    } else {
        rec.dropped += 1;
    }
}

/// Oldest-first copy of the ring plus the cumulative drop count. Does
/// not reset anything.
#[must_use]
pub fn snapshot() -> (Vec<FlightEvent>, u64) {
    let rec = REC.lock();
    let mut out: Vec<FlightEvent> = rec.buf[rec.head..].to_vec();
    out.extend_from_slice(&rec.buf[..rec.head]);
    (out, rec.dropped)
}

fn event_json(ev: &FlightEvent) -> Json {
    Json::object()
        .set("kind", "event")
        .set("seq", ev.seq)
        .set("ts_ns", ev.ts_ns)
        .set("name", ev.name)
        .set("detail", (*ev.detail).clone())
}

/// Renders the flight dump: meta (with the dump `reason`), the ring's
/// events, per-name span-duration histograms from a span-ring *peek*,
/// and the metric registry (counters as deltas since the last dump).
/// The output parses with [`crate::EventLog::parse`].
#[must_use]
pub fn render_flight(reason: &str) -> String {
    let (spans, spans_dropped) = span::peek();
    let snap = metrics::snapshot();
    let (events, events_dropped, counter_deltas) = {
        let mut rec = REC.lock();
        let mut events: Vec<FlightEvent> = rec.buf[rec.head..].to_vec();
        let head = rec.head;
        events.extend_from_slice(&rec.buf[..head]);
        let mut deltas: BTreeMap<String, u64> = BTreeMap::new();
        for (name, total) in &snap.counters {
            let prev = rec.last_counters.get(name).copied().unwrap_or(0);
            deltas.insert(name.clone(), total.saturating_sub(prev));
        }
        rec.last_counters = snap.counters.clone();
        (events, rec.dropped, deltas)
    };

    let mut span_hists: BTreeMap<&'static str, Histogram> = BTreeMap::new();
    for s in &spans {
        span_hists
            .entry(s.name)
            .or_default()
            .record(s.end_ns.saturating_sub(s.start_ns));
    }

    let mut out = String::new();
    let mut line = |j: Json| {
        out.push_str(&j.to_string_compact());
        out.push('\n');
    };
    line(
        Json::object()
            .set("kind", "meta")
            .set("schema", SCHEMA)
            .set("spans_dropped", spans_dropped)
            .set("events_dropped", events_dropped)
            .set("flight", reason),
    );
    for ev in &events {
        line(event_json(ev));
    }
    for (name, h) in &span_hists {
        line(
            h.to_json()
                .set("kind", "hist")
                .set("name", format!("span.{name}_ns").as_str()),
        );
    }
    for (name, delta) in &counter_deltas {
        line(
            Json::object()
                .set("kind", "counter")
                .set("name", name.as_str())
                .set("value", *delta),
        );
    }
    for (name, value) in &snap.gauges {
        line(
            Json::object()
                .set("kind", "gauge")
                .set("name", name.as_str())
                .set("value", *value),
        );
    }
    for (name, h) in &snap.hists {
        line(h.to_json().set("kind", "hist").set("name", name.as_str()));
    }
    out
}

/// Writes [`render_flight`] to `path`.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn dump_to(path: &Path, reason: &str) -> std::io::Result<()> {
    std::fs::write(path, render_flight(reason))
}

/// Best-effort dump to the registered path: no-op unless the recorder
/// is enabled and a path is set; I/O errors are swallowed (the callers
/// — degraded entry, crash points, SIGTERM drain — must never fail
/// because the flight dump could not be written). Returns the path on
/// a successful write.
pub fn auto_dump(reason: &str) -> Option<PathBuf> {
    if !enabled() {
        return None;
    }
    let path = REC.lock().dump_path.clone()?;
    dump_to(&path, reason).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::EventLog;
    use crate::TEST_LOCK;

    fn with_recorder(capacity: usize, f: impl FnOnce()) {
        let _g = TEST_LOCK.lock();
        configure(capacity);
        set_dump_path(None);
        set_enabled(true);
        f();
        set_enabled(false);
        configure(DEFAULT_CAPACITY);
    }

    #[test]
    fn disabled_recording_is_a_noop() {
        let _g = TEST_LOCK.lock();
        set_enabled(false);
        configure(8);
        record("ghost", Json::object());
        let (events, dropped) = snapshot();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
        configure(DEFAULT_CAPACITY);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        with_recorder(3, || {
            for i in 0..5u64 {
                record("tick", Json::object().set("i", i));
            }
            let (events, dropped) = snapshot();
            assert_eq!(dropped, 2);
            let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
            assert_eq!(seqs, vec![2, 3, 4], "oldest-first, oldest two gone");
        });
    }

    #[test]
    fn flight_dump_parses_as_an_event_log() {
        with_recorder(16, || {
            record(
                "mutation",
                Json::object().set("seq", 1u64).set("op", "add_fcm"),
            );
            record("degraded", Json::object().set("transitions", 1u64));
            let text = render_flight("test");
            let log = EventLog::parse(&text).expect("flight dump parses");
            assert_eq!(log.schema, SCHEMA);
            assert_eq!(log.events.len(), 2);
            assert_eq!(log.events[0].name, "mutation");
            assert_eq!(log.events[0].seq, 0);
            assert_eq!(
                log.events[1]
                    .detail
                    .get("transitions")
                    .and_then(Json::as_f64),
                Some(1.0)
            );
            assert_eq!(log.events_dropped, 0);
        });
    }

    #[test]
    fn dumps_are_peeks_not_cuts() {
        with_recorder(16, || {
            record("once", Json::object());
            let first = render_flight("a");
            let second = render_flight("b");
            let a = EventLog::parse(&first).unwrap();
            let b = EventLog::parse(&second).unwrap();
            assert_eq!(a.events, b.events, "dumping does not drain the ring");
        });
    }

    #[test]
    fn auto_dump_needs_a_registered_path() {
        with_recorder(16, || {
            record("ev", Json::object());
            assert_eq!(auto_dump("nowhere"), None);
            let dir = std::env::temp_dir().join(format!("fcm-rec-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("flight.jsonl");
            set_dump_path(Some(path.clone()));
            assert_eq!(auto_dump("sigterm"), Some(path.clone()));
            let log = EventLog::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
            assert_eq!(log.events.len(), 1);
            set_dump_path(None);
            let _ = std::fs::remove_dir_all(&dir);
        });
    }
}
