//! `check_bench_schema` — validates `BENCH_*.json` artefacts.
//!
//! Every committed bench artefact must follow the `fcm-bench/v1` schema
//! documented in DESIGN.md §Observability:
//!
//! * top level: object with `schema` (string starting `fcm-bench/`),
//!   `suite` (non-empty string), `benchmarks` (non-empty array), and
//!   optionally `overhead` (object of numeric ratios); nothing else;
//! * each `benchmarks` entry: `name` (non-empty string), `iters` ≥ 1,
//!   and nanosecond statistics `min_ns` / `mean_ns` / `median_ns` /
//!   `p95_ns` / `max_ns`, all numeric, non-negative, and consistently
//!   ordered (`min ≤ median ≤ p95 ≤ max`, `min ≤ mean ≤ max`);
//! * grid suites (`sparse_kernel`) may attach per-entry problem-size
//!   metadata: when any of `n` / `nnz` / `density` is present all three
//!   are required (`n` ≥ 1, `nnz` ≥ 0, `density` ∈ [0, 1]), and
//!   `oracle`, when present, must be `"bitwise-equal"` or `"skipped"`
//!   and travel with the size keys;
//! * the `obs_live` suite must carry an `overhead` object with numeric
//!   `recorder_pct` and `serve_latency_pct` — the telemetry-plane cost
//!   figures the acceptance bound reads.
//!
//! Usage: `check_bench_schema <file.json>...` — prints one line per
//! problem; exit codes follow the repo-wide contract (DESIGN.md):
//! 0 = all files pass (or `--help`), 1 = a file fails, 2 = usage error.
//! `scripts/check_bench_schema.sh` runs it over every artefact in the
//! repo root; `scripts/verify.sh` runs that before merging.

use fcm_substrate::Json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: check_bench_schema <BENCH_file.json> ...");
        std::process::exit(0);
    }
    if args.is_empty() {
        eprintln!("usage: check_bench_schema <BENCH_file.json> ...");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &args {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let problems = validate(&text);
                if problems.is_empty() {
                    println!("{path}: OK");
                } else {
                    failed = true;
                    for p in problems {
                        eprintln!("{path}: {p}");
                    }
                }
            }
            Err(e) => {
                failed = true;
                eprintln!("{path}: cannot read: {e}");
            }
        }
    }
    std::process::exit(i32::from(failed));
}

/// All schema violations in one artefact (empty = valid).
fn validate(text: &str) -> Vec<String> {
    let j = match Json::parse(text) {
        Ok(j) => j,
        Err(e) => return vec![format!("not JSON: {e}")],
    };
    let Json::Obj(top) = &j else {
        return vec!["top level is not an object".into()];
    };
    let mut problems = Vec::new();
    for key in top.keys() {
        if !matches!(key.as_str(), "schema" | "suite" | "benchmarks" | "overhead") {
            problems.push(format!("unknown top-level key '{key}'"));
        }
    }
    match j.get("schema").and_then(Json::as_str) {
        Some(s) if s.starts_with("fcm-bench/") => {}
        Some(s) => problems.push(format!("schema {s:?} does not start with 'fcm-bench/'")),
        None => problems.push("missing string 'schema'".into()),
    }
    match j.get("suite").and_then(Json::as_str) {
        Some(s) if !s.is_empty() => {}
        _ => problems.push("missing non-empty string 'suite'".into()),
    }
    match j.get("benchmarks").and_then(Json::as_array) {
        Some([]) => problems.push("'benchmarks' array is empty".into()),
        Some(entries) => {
            for (i, entry) in entries.iter().enumerate() {
                for p in validate_benchmark(entry) {
                    problems.push(format!("benchmarks[{i}]: {p}"));
                }
            }
        }
        None => problems.push("missing 'benchmarks' array".into()),
    }
    if let Some(overhead) = j.get("overhead") {
        match overhead {
            Json::Obj(map) => {
                for (k, v) in map {
                    if v.as_f64().is_none() {
                        problems.push(format!("overhead['{k}'] is not numeric"));
                    }
                }
            }
            _ => problems.push("'overhead' is not an object".into()),
        }
    }
    if j.get("suite").and_then(Json::as_str) == Some("obs_live") {
        for key in ["recorder_pct", "serve_latency_pct"] {
            if j.get("overhead").and_then(|o| o.get(key)).and_then(Json::as_f64).is_none() {
                problems.push(format!("obs_live suite: missing numeric overhead.{key}"));
            }
        }
    }
    problems
}

fn validate_benchmark(entry: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    match entry.get("name").and_then(Json::as_str) {
        Some(n) if !n.is_empty() => {}
        _ => problems.push("missing non-empty string 'name'".into()),
    }
    let mut stat = |key: &str| -> Option<f64> {
        match entry.get(key).and_then(Json::as_f64) {
            Some(v) if v >= 0.0 => Some(v),
            Some(v) => {
                problems.push(format!("'{key}' is negative ({v})"));
                None
            }
            None => {
                problems.push(format!("missing numeric '{key}'"));
                None
            }
        }
    };
    let iters = stat("iters");
    let min = stat("min_ns");
    let mean = stat("mean_ns");
    let median = stat("median_ns");
    let p95 = stat("p95_ns");
    let max = stat("max_ns");
    if let Some(it) = iters {
        if it < 1.0 {
            problems.push(format!("'iters' must be >= 1 (got {it})"));
        }
    }
    if let (Some(min), Some(median), Some(p95), Some(max)) = (min, median, p95, max) {
        if !(min <= median && median <= p95 && p95 <= max) {
            problems.push(format!(
                "statistics out of order: min={min} median={median} p95={p95} max={max}"
            ));
        }
    }
    if let (Some(min), Some(mean), Some(max)) = (min, mean, max) {
        if !(min <= mean && mean <= max) {
            problems.push(format!("mean {mean} outside [min {min}, max {max}]"));
        }
    }
    // Sparse-grid metadata: optional, but the size keys travel together
    // and the oracle verdict is a closed enum.
    let has = |k: &str| entry.get(k).is_some();
    if has("n") || has("nnz") || has("density") {
        match entry.get("n").and_then(Json::as_f64) {
            Some(v) if v >= 1.0 => {}
            Some(v) => problems.push(format!("'n' must be >= 1 (got {v})")),
            None => problems.push("grid entry: missing numeric 'n'".into()),
        }
        match entry.get("nnz").and_then(Json::as_f64) {
            Some(v) if v >= 0.0 => {}
            Some(v) => problems.push(format!("'nnz' must be >= 0 (got {v})")),
            None => problems.push("grid entry: missing numeric 'nnz'".into()),
        }
        match entry.get("density").and_then(Json::as_f64) {
            Some(v) if (0.0..=1.0).contains(&v) => {}
            Some(v) => problems.push(format!("'density' must be in [0, 1] (got {v})")),
            None => problems.push("grid entry: missing numeric 'density'".into()),
        }
    }
    if let Some(oracle) = entry.get("oracle") {
        match oracle.as_str() {
            Some("bitwise-equal" | "skipped") => {}
            _ => problems.push(format!(
                "'oracle' must be \"bitwise-equal\" or \"skipped\" (got {oracle})"
            )),
        }
        if !has("n") {
            problems.push("'oracle' requires the grid keys n/nnz/density".into());
        }
    }
    problems
}
