//! A micro-benchmark harness with JSON artefact output.
//!
//! Replaces `criterion` for the workspace's timing benches. Each
//! benchmark warms up, then runs a fixed number of timed iterations and
//! reports min / mean / median / p95 / max wall-clock nanoseconds per
//! iteration. A whole suite serialises to `BENCH_<suite>.json` via the
//! in-tree [`crate::json`] emitter, starting the benchmark trajectory the
//! ROADMAP asks for — every future perf PR appends a comparable artefact.
//!
//! ```no_run
//! use fcm_substrate::bench::Suite;
//! let mut suite = Suite::new("substrate");
//! suite.bench("shuffle_1k", || {
//!     let mut rng = fcm_substrate::rng::Rng::seed_from_u64(7);
//!     let mut v: Vec<u32> = (0..1000).collect();
//!     rng.shuffle(&mut v);
//!     v
//! });
//! suite.finish(); // prints a table, writes BENCH_substrate.json
//! ```

use std::hint::black_box;
use std::time::Instant;

use crate::json::{Json, ToJson};

/// Per-benchmark timing statistics, in nanoseconds per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Stats {
    /// Benchmark id (`group/name` style).
    pub name: String,
    /// Timed iterations measured.
    pub iters: u32,
    /// Minimum observed.
    pub min_ns: f64,
    /// Arithmetic mean.
    pub mean_ns: f64,
    /// Median (p50).
    pub median_ns: f64,
    /// 95th percentile.
    pub p95_ns: f64,
    /// Maximum observed.
    pub max_ns: f64,
}

impl Stats {
    fn from_samples(name: String, mut samples: Vec<f64>) -> Stats {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let n = samples.len();
        let pct = |q: f64| samples[(((n - 1) as f64) * q).round() as usize];
        Stats {
            name,
            iters: n as u32,
            min_ns: samples[0],
            mean_ns: samples.iter().sum::<f64>() / n as f64,
            median_ns: pct(0.50),
            p95_ns: pct(0.95),
            max_ns: samples[n - 1],
        }
    }
}

impl ToJson for Stats {
    fn to_json(&self) -> Json {
        Json::object()
            .set("name", self.name.as_str())
            .set("iters", self.iters)
            .set("min_ns", self.min_ns)
            .set("mean_ns", self.mean_ns)
            .set("median_ns", self.median_ns)
            .set("p95_ns", self.p95_ns)
            .set("max_ns", self.max_ns)
    }
}

/// A benchmark suite: collects [`Stats`] and emits one JSON artefact.
#[derive(Debug)]
pub struct Suite {
    name: String,
    warmup_iters: u32,
    sample_size: u32,
    results: Vec<Stats>,
    quiet: bool,
}

impl Suite {
    /// Creates a suite named `name` (artefact `BENCH_<name>.json`).
    ///
    /// Defaults: 3 warmup iterations, 30 timed samples. Honour
    /// `FCM_BENCH_QUICK=1` by cutting samples to 10 for CI smoke runs.
    #[must_use]
    pub fn new(name: &str) -> Suite {
        let quick = std::env::var("FCM_BENCH_QUICK").is_ok_and(|v| v == "1");
        Suite {
            name: name.to_string(),
            warmup_iters: 3,
            sample_size: if quick { 10 } else { 30 },
            results: Vec::new(),
            quiet: false,
        }
    }

    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: u32) -> &mut Suite {
        self.sample_size = n.max(1);
        self
    }

    /// Sets warmup iterations per benchmark.
    pub fn warmup(&mut self, n: u32) -> &mut Suite {
        self.warmup_iters = n;
        self
    }

    /// Suppresses per-benchmark stdout (JSON artefact still written).
    pub fn quiet(&mut self) -> &mut Suite {
        self.quiet = true;
        self
    }

    /// Times `f`, recording one sample per call. The return value is
    /// passed through [`black_box`] so the work is not optimised away.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        for _ in 0..self.warmup_iters {
            black_box(f());
        }
        let mut samples = Vec::with_capacity(self.sample_size as usize);
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            black_box(f());
            samples.push(t0.elapsed().as_nanos() as f64);
        }
        let stats = Stats::from_samples(name.to_string(), samples);
        if !self.quiet {
            println!(
                "{:<44} median {:>12}  p95 {:>12}  ({} iters)",
                stats.name,
                fmt_ns(stats.median_ns),
                fmt_ns(stats.p95_ns),
                stats.iters
            );
        }
        self.results.push(stats);
    }

    /// The collected statistics so far.
    #[must_use]
    pub fn results(&self) -> &[Stats] {
        &self.results
    }

    /// The suite as a JSON artefact value.
    #[must_use]
    pub fn to_artifact(&self) -> Json {
        Json::object()
            .set("suite", self.name.as_str())
            .set("schema", "fcm-bench/v1")
            .set(
                "benchmarks",
                Json::Arr(self.results.iter().map(ToJson::to_json).collect()),
            )
    }

    /// Writes `BENCH_<suite>.json` into `dir` and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_artifact(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.name));
        let mut text = self.to_artifact().to_string_pretty();
        text.push('\n');
        std::fs::write(&path, text)?;
        Ok(path)
    }

    /// Prints the summary and writes the artefact next to the current
    /// working directory (or `$FCM_BENCH_DIR` when set). Panics on I/O
    /// failure — a bench run that cannot record its artefact is failed.
    pub fn finish(self) {
        let dir = std::env::var("FCM_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
        let path = self
            .write_artifact(std::path::Path::new(&dir))
            .expect("write bench artifact");
        if !self.quiet {
            println!("wrote {}", path.display());
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn stats_are_ordered_and_sane() {
        let mut suite = Suite::new("test_stats");
        suite.quiet().sample_size(20).warmup(1);
        suite.bench("spin", || {
            let mut x = 0u64;
            for i in 0..1000 {
                x = x.wrapping_add(i);
            }
            x
        });
        let s = &suite.results()[0];
        assert_eq!(s.iters, 20);
        assert!(s.min_ns > 0.0);
        assert!(s.min_ns <= s.median_ns);
        assert!(s.median_ns <= s.p95_ns);
        assert!(s.p95_ns <= s.max_ns);
        assert!(s.mean_ns >= s.min_ns && s.mean_ns <= s.max_ns);
    }

    #[test]
    fn artifact_round_trips_through_the_parser() {
        let mut suite = Suite::new("test_artifact");
        suite.quiet().sample_size(3).warmup(0);
        suite.bench("noop", || 1u8);
        suite.bench("noop2", || 2u8);
        let j = suite.to_artifact();
        let back = Json::parse(&j.to_string_pretty()).expect("parses");
        assert_eq!(back, j);
        assert_eq!(back.get("suite").and_then(Json::as_str), Some("test_artifact"));
        let benches = back.get("benchmarks").and_then(Json::as_array).unwrap();
        assert_eq!(benches.len(), 2);
        assert_eq!(
            benches[0].get("name").and_then(Json::as_str),
            Some("noop")
        );
        assert!(benches[0].get("median_ns").and_then(Json::as_f64).is_some());
    }

    #[test]
    fn write_artifact_emits_a_parseable_file() {
        let dir = std::env::temp_dir().join("fcm_substrate_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut suite = Suite::new("unit");
        suite.quiet().sample_size(2).warmup(0);
        suite.bench("noop", || ());
        let path = suite.write_artifact(&dir).expect("writes");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(Json::parse(&text).is_ok());
        assert!(path.file_name().unwrap().to_str().unwrap() == "BENCH_unit.json");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn percentiles_of_known_samples() {
        let s = Stats::from_samples(
            "known".into(),
            (1..=100).map(f64::from).collect(),
        );
        assert_eq!(s.min_ns, 1.0);
        assert_eq!(s.max_ns, 100.0);
        assert_eq!(s.median_ns, 51.0); // nearest-rank at (n-1)*0.5 rounded
        assert_eq!(s.p95_ns, 95.0);
        assert!((s.mean_ns - 50.5).abs() < 1e-9);
    }
}
