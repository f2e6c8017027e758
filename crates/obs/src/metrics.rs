//! The metrics registry: counters, gauges, and histograms.
//!
//! A process-wide registry keyed by metric name. Names are plain
//! strings in `BTreeMap`s, so every snapshot and export is in
//! deterministic (lexicographic) order even though the recorded
//! *values* are measurements. All recording entry points are gated on
//! [`crate::enabled`] and compile down to one relaxed atomic load when
//! observability is off — the instrumented hot paths pay nothing by
//! default.
//!
//! * counters — monotonically increasing `u64` (merge pipeline merges,
//!   pool chunk steals, sweep cell counts);
//! * gauges — last-write-wins `f64` (queue depths, configured scales);
//! * histograms — log-linear [`Histogram`]s (watchdog detection
//!   latency, retry backoff, recovery times); see [`crate::hist`].

use std::collections::BTreeMap;

use fcm_substrate::pool::Mutex;
use fcm_substrate::{Json, ToJson};

use crate::enabled;
use crate::hist::Histogram;

/// A deterministic-order snapshot of every metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub hists: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as one JSON object (`counters` / `gauges` /
    /// `hists` maps, keys in lexicographic order). This is the payload
    /// the serve layer ships for the `metrics` wire op; together with
    /// [`MetricsSnapshot::from_json`] it round-trips bitwise — counter
    /// `u64`s stay exact up to 2⁵³ (the substrate JSON integer domain)
    /// and gauge `f64`s ride the substrate's shortest-exact formatter.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .fold(Json::object(), |j, (k, v)| j.set(k.as_str(), *v));
        let gauges = self
            .gauges
            .iter()
            .fold(Json::object(), |j, (k, v)| j.set(k.as_str(), *v));
        let hists = self
            .hists
            .iter()
            .fold(Json::object(), |j, (k, h)| j.set(k.as_str(), h.to_json()));
        Json::object()
            .set("counters", counters)
            .set("gauges", gauges)
            .set("hists", hists)
    }

    /// Parses a snapshot rendered by [`MetricsSnapshot::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed map or histogram.
    pub fn from_json(j: &Json) -> Result<MetricsSnapshot, String> {
        let entries = |key: &str| -> Result<Vec<(String, Json)>, String> {
            match j.get(key) {
                Some(Json::Obj(map)) => {
                    Ok(map.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
                }
                Some(_) => Err(format!("metrics field '{key}' is not an object")),
                None => Err(format!("metrics object missing '{key}'")),
            }
        };
        let mut snap = MetricsSnapshot::default();
        for (name, v) in entries("counters")? {
            let n = v
                .as_f64()
                .ok_or_else(|| format!("counter '{name}' is not numeric"))?;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            snap.counters.insert(name, n as u64);
        }
        for (name, v) in entries("gauges")? {
            let g = v
                .as_f64()
                .ok_or_else(|| format!("gauge '{name}' is not numeric"))?;
            snap.gauges.insert(name, g);
        }
        for (name, v) in entries("hists")? {
            let h = Histogram::from_json(&v).map_err(|e| format!("hist '{name}': {e}"))?;
            snap.hists.insert(name, h);
        }
        Ok(snap)
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
}

fn registry() -> &'static Mutex<RegistryInner> {
    static REGISTRY: Mutex<RegistryInner> = Mutex::new(RegistryInner {
        counters: BTreeMap::new(),
        gauges: BTreeMap::new(),
        hists: BTreeMap::new(),
    });
    &REGISTRY
}

/// Adds `n` to counter `name` (creating it at 0). No-op when disabled.
pub fn counter_add(name: &str, n: u64) {
    if !enabled() {
        return;
    }
    let mut reg = registry().lock();
    match reg.counters.get_mut(name) {
        Some(c) => *c = c.saturating_add(n),
        None => {
            reg.counters.insert(name.to_string(), n);
        }
    }
}

/// Sets gauge `name` to `v` (last write wins). No-op when disabled.
pub fn gauge_set(name: &str, v: f64) {
    if !enabled() {
        return;
    }
    let mut reg = registry().lock();
    match reg.gauges.get_mut(name) {
        Some(g) => *g = v,
        None => {
            reg.gauges.insert(name.to_string(), v);
        }
    }
}

/// Records `v` into histogram `name`. No-op when disabled.
pub fn hist_record(name: &str, v: u64) {
    if !enabled() {
        return;
    }
    let mut reg = registry().lock();
    match reg.hists.get_mut(name) {
        Some(h) => h.record(v),
        None => {
            let mut h = Histogram::new();
            h.record(v);
            reg.hists.insert(name.to_string(), h);
        }
    }
}

/// Snapshots every metric (registry unchanged).
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry().lock();
    MetricsSnapshot {
        counters: reg.counters.clone(),
        gauges: reg.gauges.clone(),
        hists: reg.hists.clone(),
    }
}

/// Snapshots and clears every metric.
pub fn drain() -> MetricsSnapshot {
    let mut reg = registry().lock();
    MetricsSnapshot {
        counters: std::mem::take(&mut reg.counters),
        gauges: std::mem::take(&mut reg.gauges),
        hists: std::mem::take(&mut reg.hists),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init, set_enabled, ObsConfig, TEST_LOCK};

    fn with_obs(f: impl FnOnce()) {
        let _g = TEST_LOCK.lock();
        init(ObsConfig::default());
        let _ = drain();
        f();
        let _ = drain();
        set_enabled(false);
    }

    #[test]
    fn counters_accumulate_and_drain() {
        with_obs(|| {
            counter_add("m.counter", 2);
            counter_add("m.counter", 3);
            counter_add("a.first", 1);
            let snap = snapshot();
            assert_eq!(snap.counters["m.counter"], 5);
            let names: Vec<&String> = snap.counters.keys().collect();
            assert!(names.windows(2).all(|w| w[0] < w[1]), "sorted order");
            drain();
            assert!(snapshot().counters.is_empty());
        });
    }

    #[test]
    fn gauges_take_the_last_write() {
        with_obs(|| {
            gauge_set("m.gauge", 1.5);
            gauge_set("m.gauge", 2.5);
            assert_eq!(snapshot().gauges["m.gauge"], 2.5);
        });
    }

    #[test]
    fn histograms_record_through_the_registry() {
        with_obs(|| {
            for v in [10u64, 20, 30] {
                hist_record("m.hist", v);
            }
            let snap = snapshot();
            let h = &snap.hists["m.hist"];
            assert_eq!(h.count(), 3);
            assert_eq!(h.sum(), 60);
            assert_eq!(h.min(), Some(10));
            assert_eq!(h.max(), Some(30));
        });
    }

    #[test]
    fn recording_is_a_noop_when_disabled() {
        let _g = TEST_LOCK.lock();
        set_enabled(false);
        let before = snapshot();
        counter_add("off.counter", 1);
        gauge_set("off.gauge", 1.0);
        hist_record("off.hist", 1);
        assert_eq!(snapshot(), before);
    }
}
