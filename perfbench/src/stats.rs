//! Sample statistics and the run outcome every workload returns.

use std::collections::BTreeMap;

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample; 0 when
/// the sample is empty.
pub fn pct(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (nearest rank) of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    pct(samples, 50.0)
}

/// Nanosecond samples converted to a unit (`scale` = ns per unit).
pub fn scaled(ns: &[u64], scale: f64) -> Vec<f64> {
    ns.iter().map(|&x| x as f64 / scale).collect()
}

/// Least-squares slope of `y` against `x`.
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// One reported figure: value, unit, how many samples it summarises, and
/// (for a ratio) the base it was divided by.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
    pub note: String,
}

/// A correctness check's verdict.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, Metric>,
    /// Operations attempted and how many failed, were refused or timed out.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Reasons the run is not a valid measurement (generator fell behind,
    /// over the thread budget); any entry makes the run incorrect.
    pub invalid: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.put_note(name, value, unit, samples, String::new());
    }

    pub fn put_note(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: u64,
        note: String,
    ) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
                note,
            },
        );
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.invalid.is_empty() && self.checks.iter().all(|c| c.ok)
    }

    /// Copies every metric this outcome lacks from `other` (a reference
    /// probe), marking where it came from.
    pub fn fill_from(&mut self, other: Outcome, origin: &str) {
        for (k, mut m) in other.metrics {
            if let std::collections::btree_map::Entry::Vacant(slot) = self.metrics.entry(k) {
                m.note = if m.note.is_empty() {
                    format!("from {origin}")
                } else {
                    format!("from {origin}; {}", m.note)
                };
                slot.insert(m);
            }
        }
        self.checks.extend(other.checks);
        self.invalid.extend(other.invalid);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(pct(&v, 50.0), 50.0);
        assert_eq!(pct(&v, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(pct(&[], 50.0), 0.0);
    }

    #[test]
    fn slope_of_a_line() {
        let pts: Vec<(f64, f64)> = (0..10)
            .map(|i| (f64::from(i), 3.0 * f64::from(i) + 1.0))
            .collect();
        assert!((slope(&pts) - 3.0).abs() < 1e-12);
    }
}
