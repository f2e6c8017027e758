//! Online-service latency under load: mutation-apply and query
//! round-trip percentiles for `fcm-serve`.
//!
//! For each committed model (paper, avionics) and each offered mutation
//! rate (1k / 10k mutations per second), a daemon is started on
//! an ephemeral TCP socket with a real journal (durability on the
//! acknowledgement path, as in production), a mutation-only client pool
//! drives the offered rate open-loop, and a concurrent query-only
//! client measures read latency *while the writer is busy* — the
//! bounded-latency claim under contention, not at idle. No point offers
//! more than the daemon sustains: past saturation the round trip is
//! queueing delay, and perfbench's `capacity_rps` measures the
//! saturation itself.
//!
//! The artefact (`BENCH_serve_latency.json`) records the round-trip
//! latencies with `p99_ns` plus offered and achieved rates. Two
//! assertions pin the acceptance criteria:
//!
//! * the paper model sustains the 10k mutations/s point with **p99
//!   query latency < 10 ms**;
//! * after every run the daemon still reports `full_condenses == 1` —
//!   no mutation fell off the incremental Eq. 4 path.

use fcm_serve::gen::{self, LoadConfig, LoadReport};
use fcm_serve::server::{start, Listen, ServerConfig};
use fcm_substrate::bench::{percentile, Suite};
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

const POINTS: [Point; 4] = [
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

fn run_point(suite: &mut Suite, p: &Point) {
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
    println!("{} offered {}/s achieved {achieved:.0}/s", p.model, p.rate);
    for (kind, samples) in [
        ("mutation_apply", &mutations.mutation_ns),
        ("query", &queries.query_ns),
    ] {
        suite
            .record(&format!("{}/{kind}@{}", p.model, p.rate), samples)
            .with("model", p.model)
            .with("offered_rps", p.rate)
            .with("achieved_rps", achieved);
    }

    // Acceptance: the paper model sustains 10k mutations/s with p99
    // query latency under 10 ms.
    if p.model == "paper" && p.rate == 10_000 {
        let p99 = percentile(&queries.query_ns, 0.99).expect("queries ran");
        assert!(
            p99 < 10_000_000,
            "paper @ 10k: query p99 {p99} ns breaches the 10 ms bound"
        );
        assert!(
            achieved >= 0.9 * p.rate as f64,
            "paper @ 10k: achieved only {achieved:.0} mutations/s"
        );
    }
}

fn main() {
    let mut suite = Suite::new("serve_latency");
    for p in &POINTS {
        run_point(&mut suite, p);
    }
    suite.finish();
}
