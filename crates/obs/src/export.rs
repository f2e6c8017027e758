//! JSONL event-log export and re-import.
//!
//! One schema-versioned JSON record per line, emitted through the
//! substrate JSON emitter: a `meta` header (schema id + spans lost to
//! ring overflow), then every finished span ordered by `(start_ns,
//! id)`, then the metrics registry in lexicographic name order
//! (counters, gauges, histograms). The format is append-friendly, line
//! -oriented (any JSONL tool can slice it), and self-describing enough
//! for the `obsview` inspector to rebuild the span tree, a collapsed
//! -stack flamegraph, and histogram summaries offline.
//!
//! [`render_jsonl`] *drains* the process-wide span rings and metrics
//! registry — an export is a cut point, not a peek — and
//! [`EventLog::parse`] is its exact inverse reader.

use std::collections::BTreeMap;

use fcm_substrate::{Json, ToJson};

use crate::hist::Histogram;
use crate::metrics;
use crate::span::{self, SpanRecord};

/// The event-log schema identifier emitted in the `meta` record.
pub const SCHEMA: &str = "fcm-obs/v1";

/// A span read back from a JSONL log (name owned, not `'static`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedSpan {
    /// Span id.
    pub id: u64,
    /// Parent span id; 0 marks a root.
    pub parent: u64,
    /// Span name.
    pub name: String,
    /// Optional detail index.
    pub idx: Option<u64>,
    /// Recording thread.
    pub thread: u64,
    /// Start, nanoseconds from the process epoch.
    pub start_ns: u64,
    /// End, nanoseconds from the process epoch.
    pub end_ns: u64,
}

impl LoggedSpan {
    /// Span duration in nanoseconds.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A flight-recorder event read back from a JSONL log (see
/// [`crate::recorder`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LoggedEvent {
    /// Recorder-assigned sequence number.
    pub seq: u64,
    /// Nanoseconds from the process epoch at record time.
    pub ts_ns: u64,
    /// Event name.
    pub name: String,
    /// Structured payload.
    pub detail: Json,
}

/// A fully parsed event log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    /// Schema id from the `meta` record.
    pub schema: String,
    /// Spans lost to ring overflow before the export.
    pub spans_dropped: u64,
    /// Per-thread breakdown of `spans_dropped` (non-zero threads only;
    /// absent in logs written before the field existed).
    pub dropped_by_thread: BTreeMap<u64, u64>,
    /// Flight-recorder events lost to ring overflow (flight dumps only).
    pub events_dropped: u64,
    /// Dump reason from a flight dump's meta record (`None` for a
    /// regular export).
    pub flight: Option<String>,
    /// All spans, in file order (the exporter sorts by `(start_ns, id)`).
    pub spans: Vec<LoggedSpan>,
    /// Flight-recorder events, in file (= seq) order.
    pub events: Vec<LoggedEvent>,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub hists: BTreeMap<String, Histogram>,
}

fn span_json(s: &SpanRecord) -> Json {
    Json::object()
        .set("kind", "span")
        .set("id", s.id)
        .set("parent", s.parent)
        .set("name", s.name)
        .set("idx", s.idx.map(Json::from))
        .set("thread", s.thread)
        .set("start_ns", s.start_ns)
        .set("end_ns", s.end_ns)
}

/// Drains the process-wide spans and metrics into one JSONL document.
#[must_use]
pub fn render_jsonl() -> String {
    let (spans, by_thread) = span::drain_detailed();
    let dropped: u64 = by_thread.iter().map(|&(_, d)| d).sum();
    let snap = metrics::drain();
    let mut out = String::new();
    let mut line = |j: Json| {
        out.push_str(&j.to_string_compact());
        out.push('\n');
    };
    let mut meta = Json::object()
        .set("kind", "meta")
        .set("schema", SCHEMA)
        .set("spans_dropped", dropped);
    if dropped > 0 {
        let detail = by_thread
            .iter()
            .filter(|&&(_, d)| d > 0)
            .fold(Json::object(), |j, &(t, d)| j.set(&t.to_string(), d));
        meta = meta.set("dropped_by_thread", detail);
    }
    line(meta);
    for s in &spans {
        line(span_json(s));
    }
    for (name, value) in &snap.counters {
        line(
            Json::object()
                .set("kind", "counter")
                .set("name", name.as_str())
                .set("value", *value),
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
        let mut j = h.to_json();
        j = j.set("kind", "hist").set("name", name.as_str());
        line(j);
    }
    out
}

impl EventLog {
    /// Parses a JSONL event log produced by [`render_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line (1-based) or a
    /// missing/unsupported schema header.
    pub fn parse(text: &str) -> Result<EventLog, String> {
        let mut log = EventLog::default();
        let mut saw_meta = false;
        for (lineno, raw) in text.lines().enumerate() {
            let lineno = lineno + 1;
            if raw.trim().is_empty() {
                continue;
            }
            let j = Json::parse(raw).map_err(|e| format!("line {lineno}: {e}"))?;
            let kind = j
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {lineno}: record without a 'kind'"))?;
            let name = || {
                j.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("line {lineno}: record without a 'name'"))
            };
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let num = |key: &str| {
                j.get(key)
                    .and_then(Json::as_f64)
                    .map(|v| v as u64)
                    .ok_or_else(|| format!("line {lineno}: missing numeric '{key}'"))
            };
            match kind {
                "meta" => {
                    let schema = j
                        .get("schema")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("line {lineno}: meta without a schema"))?;
                    if !schema.starts_with("fcm-obs/") {
                        return Err(format!("line {lineno}: unsupported schema {schema:?}"));
                    }
                    log.schema = schema.to_string();
                    log.spans_dropped = num("spans_dropped")?;
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    if let Some(Json::Obj(map)) = j.get("dropped_by_thread") {
                        for (t, d) in map {
                            let thread = t
                                .parse::<u64>()
                                .map_err(|_| format!("line {lineno}: bad thread id {t:?}"))?;
                            let d = d
                                .as_f64()
                                .ok_or_else(|| format!("line {lineno}: non-numeric drop count"))?;
                            log.dropped_by_thread.insert(thread, d as u64);
                        }
                    }
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    if let Some(d) = j.get("events_dropped").and_then(Json::as_f64) {
                        log.events_dropped = d as u64;
                    }
                    log.flight = j.get("flight").and_then(Json::as_str).map(str::to_string);
                    saw_meta = true;
                }
                "event" => {
                    log.events.push(LoggedEvent {
                        seq: num("seq")?,
                        ts_ns: num("ts_ns")?,
                        name: name()?,
                        detail: j.get("detail").cloned().unwrap_or_else(Json::object),
                    });
                }
                "span" => {
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    let idx = j.get("idx").and_then(Json::as_f64).map(|v| v as u64);
                    log.spans.push(LoggedSpan {
                        id: num("id")?,
                        parent: num("parent")?,
                        name: name()?,
                        idx,
                        thread: num("thread")?,
                        start_ns: num("start_ns")?,
                        end_ns: num("end_ns")?,
                    });
                }
                "counter" => {
                    log.counters.insert(name()?, num("value")?);
                }
                "gauge" => {
                    let v = j
                        .get("value")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("line {lineno}: gauge without a value"))?;
                    log.gauges.insert(name()?, v);
                }
                "hist" => {
                    let h = Histogram::from_json(&j).map_err(|e| format!("line {lineno}: {e}"))?;
                    log.hists.insert(name()?, h);
                }
                other => return Err(format!("line {lineno}: unknown record kind {other:?}")),
            }
        }
        if !saw_meta {
            return Err("no meta record: not an fcm-obs event log".into());
        }
        Ok(log)
    }
}

/// Drains the process-wide observability state into `path` as JSONL.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn export_to(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, render_jsonl())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init, metrics, set_enabled, span, ObsConfig, TEST_LOCK};

    fn with_obs(f: impl FnOnce()) {
        let _g = TEST_LOCK.lock();
        init(ObsConfig::default());
        let _ = span::drain();
        let _ = metrics::drain();
        f();
        let _ = span::drain();
        let _ = metrics::drain();
        set_enabled(false);
    }

    #[test]
    fn render_and_parse_round_trip() {
        with_obs(|| {
            {
                let _root = span::span("root");
                let _child = span::span_idx("child", 3);
            }
            metrics::counter_add("c.one", 5);
            metrics::gauge_set("g.depth", 2.5);
            metrics::hist_record("h.lat", 100);
            metrics::hist_record("h.lat", 10_000);
            let text = render_jsonl();
            assert!(text.starts_with(r#"{"kind":"meta""#));
            assert!(text.contains(r#""schema":"fcm-obs/v1""#));
            let log = EventLog::parse(&text).expect("parses");
            assert_eq!(log.schema, SCHEMA);
            assert_eq!(log.spans_dropped, 0);
            assert_eq!(log.spans.len(), 2);
            let root = log.spans.iter().find(|s| s.name == "root").unwrap();
            let child = log.spans.iter().find(|s| s.name == "child").unwrap();
            assert_eq!(child.parent, root.id);
            assert_eq!(child.idx, Some(3));
            assert_eq!(log.counters["c.one"], 5);
            assert_eq!(log.gauges["g.depth"], 2.5);
            assert_eq!(log.hists["h.lat"].count(), 2);
            assert_eq!(log.hists["h.lat"].sum(), 10_100);
        });
    }

    #[test]
    fn render_drains_the_state() {
        with_obs(|| {
            drop(span::span("once"));
            metrics::counter_add("once", 1);
            let first = render_jsonl();
            assert!(first.contains("once"));
            let second = render_jsonl();
            assert!(!second.contains("once"), "state drained by the export");
        });
    }

    #[test]
    fn parse_rejects_malformed_logs() {
        assert!(EventLog::parse("").is_err(), "no meta record");
        assert!(EventLog::parse("{\"kind\":\"span\"}").is_err());
        let bad_schema = "{\"kind\":\"meta\",\"schema\":\"other/v9\",\"spans_dropped\":0}";
        assert!(EventLog::parse(bad_schema).is_err());
        let meta = "{\"kind\":\"meta\",\"schema\":\"fcm-obs/v1\",\"spans_dropped\":0}";
        assert!(EventLog::parse(meta).is_ok());
        assert!(EventLog::parse(&format!("{meta}\nnot json")).is_err());
        assert!(
            EventLog::parse(&format!("{meta}\n{{\"kind\":\"mystery\"}}")).is_err(),
            "unknown record kinds are rejected, not skipped"
        );
    }

    #[test]
    fn export_to_writes_a_parseable_file() {
        with_obs(|| {
            drop(span::span("file_span"));
            let dir =
                std::env::temp_dir().join(format!("fcm_obs_export_test_{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("log.jsonl");
            export_to(&path).expect("writes");
            let log = EventLog::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
            assert_eq!(log.spans.len(), 1);
            let _ = std::fs::remove_dir_all(&dir);
        });
    }
}
