//! Online-service latency under load: mutation-apply and query
//! round-trip percentiles for `fcm-serve`.
//!
//! For each committed model (paper, avionics) and each offered mutation
//! rate (1k / 10k / 100k mutations per second), a daemon is started on
//! an ephemeral TCP socket with a real journal (durability on the
//! acknowledgement path, as in production), a mutation-only client pool
//! drives the offered rate open-loop, and a concurrent query-only
//! client measures read latency *while the writer is busy* — the
//! bounded-latency claim under contention, not at idle.
//!
//! The artefact (`BENCH_serve_latency.json`, `fcm-bench/v1`) records
//! nearest-rank p50/p95/p99 round-trip latencies plus achieved rates.
//! Two assertions pin the acceptance criteria:
//!
//! * the paper model sustains the 10k mutations/s point with **p99
//!   query latency < 10 ms**;
//! * after every run the daemon still reports `full_condenses == 1` —
//!   no mutation fell off the incremental Eq. 4 path.

use fcm_serve::gen::{self, percentile_ns, LoadConfig, LoadReport};
use fcm_serve::server::{start, Listen, ServerConfig};
use fcm_substrate::Json;

struct Point {
    model: &'static str,
    /// Offered mutation rate, mutations/second.
    rate: u64,
    /// Load duration at this rate, ms.
    duration_ms: u64,
    /// Mutation clients. The generator pipelines requests, so a few
    /// sessions saturate the writer; extra sessions only add scheduler
    /// contention (apply itself costs ~8 µs).
    clients: usize,
}

const POINTS: [Point; 6] = [
    Point {
        model: "paper",
        rate: 1_000,
        duration_ms: 2_000,
        clients: 2,
    },
    Point {
        model: "paper",
        rate: 10_000,
        duration_ms: 2_000,
        clients: 4,
    },
    Point {
        model: "paper",
        rate: 100_000,
        duration_ms: 1_000,
        clients: 8,
    },
    Point {
        model: "avionics",
        rate: 1_000,
        duration_ms: 2_000,
        clients: 2,
    },
    Point {
        model: "avionics",
        rate: 10_000,
        duration_ms: 2_000,
        clients: 4,
    },
    Point {
        model: "avionics",
        rate: 100_000,
        duration_ms: 1_000,
        clients: 8,
    },
];

/// One `stats` round-trip against the daemon (via the script driver —
/// socket use stays confined to `crates/serve`).
fn stats_query(target: &Listen) -> Json {
    let mut buf = Vec::new();
    gen::run_script(target, "{\"op\":\"stats\"}", &mut buf).expect("stats session");
    let text = String::from_utf8(buf).expect("utf8 transcript");
    let line = text.lines().nth(1).expect("stats response");
    Json::parse(line).expect("valid JSON")
}

fn entry(name: String, samples: &[u64], extra: &[(&str, Json)]) -> Json {
    assert!(!samples.is_empty(), "{name}: no samples recorded");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let mean = sorted.iter().sum::<u64>() as f64 / n as f64;
    let mut j = Json::object()
        .set("name", name)
        .set("iters", n as u64)
        .set("min_ns", sorted[0] as f64)
        .set("mean_ns", mean)
        .set("median_ns", percentile_ns(&sorted, 50.0) as f64)
        .set("p95_ns", percentile_ns(&sorted, 95.0) as f64)
        .set("max_ns", sorted[n - 1] as f64)
        .set("p50_ns", percentile_ns(&sorted, 50.0) as f64)
        .set("p99_ns", percentile_ns(&sorted, 99.0) as f64);
    for (k, v) in extra {
        j = j.set(k, v.clone());
    }
    j
}

fn run_point(p: &Point) -> (Json, Json) {
    let state_dir = std::env::temp_dir().join(format!(
        "fcm-serve-bench-{}-{}-{}",
        p.model,
        p.rate,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&state_dir);
    let handle = start(ServerConfig {
        state_dir: Some(state_dir.clone()),
        snapshot_every: 4096,
        ..ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), p.model)
    })
    .expect("daemon starts");
    let target = Listen::Tcp(handle.addr().to_string());

    // Writer pool: mutation-only, offered open-loop at p.rate.
    let mutation_cfg = LoadConfig {
        rate: p.rate,
        clients: p.clients,
        duration_ms: p.duration_ms,
        seed: 0xbe7c + p.rate,
        mutation_pct: 100,
        subscribers: 0,
    };
    // Concurrent reader: query-only, a steady 2k/s probe stream.
    let query_cfg = LoadConfig {
        rate: 2_000,
        clients: 2,
        duration_ms: p.duration_ms,
        seed: 0x9ea0 + p.rate,
        mutation_pct: 0,
        subscribers: 0,
    };
    let writer = {
        let target = target.clone();
        let cfg = mutation_cfg.clone();
        std::thread::spawn(move || gen::run_load(&target, &cfg))
    };
    let reader = {
        let target = target.clone();
        let cfg = query_cfg.clone();
        std::thread::spawn(move || gen::run_load(&target, &cfg))
    };
    let mutations: LoadReport = writer.join().expect("writer pool").expect("mutation load");
    let queries: LoadReport = reader.join().expect("reader pool").expect("query load");
    assert_eq!(
        mutations.errors, 0,
        "{}: seeded mutation mix always valid",
        p.model
    );
    assert_eq!(
        queries.errors, 0,
        "{}: seeded query mix always valid",
        p.model
    );

    // The incremental-path guarantee: still exactly one full condense.
    let stats = stats_query(&target);
    assert_eq!(
        stats.get("full_condenses").and_then(Json::as_f64),
        Some(1.0),
        "{} @ {}: a mutation fell off the incremental path",
        p.model,
        p.rate
    );
    handle.stop().expect("clean stop");
    let _ = std::fs::remove_dir_all(&state_dir);

    let achieved = mutations.mutation_ns.len() as f64 / (mutations.elapsed_ns as f64 / 1e9);
    println!(
        "{:<10} offered {:>6}/s achieved {:>9.0}/s  apply p50 {:>7} p99 {:>9}  query p50 {:>7} p99 {:>9}",
        p.model,
        p.rate,
        achieved,
        percentile_ns(&mutations.mutation_ns, 50.0),
        percentile_ns(&mutations.mutation_ns, 99.0),
        percentile_ns(&queries.query_ns, 50.0),
        percentile_ns(&queries.query_ns, 99.0),
    );
    let common = [
        ("model", Json::from(p.model)),
        ("offered_rps", Json::from(p.rate)),
        ("achieved_rps", Json::from(achieved)),
    ];
    let apply = entry(
        format!("{}/mutation_apply@{}", p.model, p.rate),
        &mutations.mutation_ns,
        &common,
    );
    let query = entry(
        format!("{}/query@{}", p.model, p.rate),
        &queries.query_ns,
        &common,
    );

    // Acceptance: the paper model sustains 10k mutations/s with p99
    // query latency under 10 ms.
    if p.model == "paper" && p.rate == 10_000 {
        let p99 = percentile_ns(&queries.query_ns, 99.0);
        assert!(
            p99 < 10_000_000,
            "paper @ 10k: query p99 {p99} ns breaches the 10 ms bound"
        );
        assert!(
            achieved >= 0.9 * p.rate as f64,
            "paper @ 10k: achieved only {achieved:.0} mutations/s"
        );
    }
    (apply, query)
}

fn main() {
    let mut benchmarks = Vec::new();
    for p in &POINTS {
        let (apply, query) = run_point(p);
        benchmarks.push(apply);
        benchmarks.push(query);
    }
    let artifact = Json::object()
        .set("suite", "serve_latency")
        .set("schema", "fcm-bench/v1")
        .set("benchmarks", Json::Arr(benchmarks));
    let dir = std::env::var("FCM_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join("BENCH_serve_latency.json");
    let mut text = artifact.to_string_pretty();
    text.push('\n');
    std::fs::write(&path, text).expect("write bench artifact");
    println!("wrote {}", path.display());
}
