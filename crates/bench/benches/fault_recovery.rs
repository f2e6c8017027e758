//! Fault-recovery benchmarks for `fcm-serve`: how fast the daemon gets
//! *back* to full service after the two failure modes the crash matrix
//! and degraded-mode tests pin.
//!
//! * **Cold resume** — `Store::open_resume` + full journal replay onto
//!   a fresh model, at several journal lengths. This is the recovery
//!   half of every crash-matrix case, measured instead of asserted.
//! * **Resume after a long history** — 10^4 and 10^5 accepted
//!   `set_attr`s with a snapshot every 64, then `Store::open_resume`,
//!   the snapshot load and the replay of what follows it. Each snapshot
//!   retires the journal, so this costs the same at either length.
//! * **Re-arm latency** — a daemon whose first journal writes fail
//!   (`journal.*:eio@0..2`) enters degraded mode on the first mutation;
//!   the sample is the wall time from that trip until a mutation is
//!   accepted again (seeded-backoff probes at `rearm_base_ms = 5`).
//!
//! The artefact (`BENCH_fault_recovery.json`, `fcm-bench/v1`) records
//! nearest-rank percentiles per point. Socket use stays confined to
//! `crates/serve` — the re-arm driver goes through `gen::run_script`.

use std::time::Instant;

use fcm_serve::gen::{self, percentile_ns};
use fcm_serve::proto::{self, Mutation, Request};
use fcm_serve::server::{start, Listen, ServerConfig};
use fcm_serve::store::Store;
use fcm_serve::LiveModel;
use fcm_substrate::fault::FaultPlan;
use fcm_substrate::Json;

/// Journal lengths (accepted mutations) for the cold-resume points.
const RESUME_LENS: [usize; 3] = [16, 128, 512];
/// Accepted mutations before the resume-after-history points.
const HISTORY_LENS: [usize; 2] = [10_000, 100_000];
/// The daemon's default snapshot cadence.
const SNAPSHOT_EVERY: usize = 64;
const RESUME_ITERS: usize = 30;
const REARM_ITERS: usize = 8;

const MUTATE: &str = "{\"op\":\"set_attr\",\"name\":\"p8\",\"criticality\":2}";

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

/// Accepted mutation #i of the synthetic session: a fail/restore pair
/// on the paper model's `hw2` plus criticality toggles on `p8`.
fn script_line(i: usize) -> String {
    match i % 4 {
        0 => "{\"op\":\"fail_node\",\"node\":\"hw2\"}".to_string(),
        1 => "{\"op\":\"restore_node\",\"node\":\"hw2\"}".to_string(),
        k => format!("{{\"op\":\"set_attr\",\"name\":\"p8\",\"criticality\":{k}}}"),
    }
}

/// Builds a journal of `len` accepted mutations, then times
/// resume-and-replay `RESUME_ITERS` times.
fn resume_point(len: usize) -> Json {
    let dir = std::env::temp_dir().join(format!("fcm-bench-resume-{len}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut model = LiveModel::new("paper").expect("paper model");
    let mut store = Store::create_fresh(&dir).expect("fresh store");
    for i in 0..len {
        let line = script_line(i);
        let (_, req) = proto::parse_line(&line);
        let Ok(Request::Mutation(m)) = req else {
            panic!("script line is a mutation")
        };
        model.apply(&m).expect("script mutation accepted");
        store.append(model.seq(), &m).expect("append");
    }
    let reference = model.state_text();
    drop((store, model));

    let mut samples = Vec::with_capacity(RESUME_ITERS);
    for _ in 0..RESUME_ITERS {
        let t0 = Instant::now();
        let (_store, rec) = Store::open_resume(&dir).expect("resume");
        let mut m = LiveModel::new("paper").expect("paper model");
        for (_, mu) in &rec.replay {
            m.apply(mu).expect("replay applies");
        }
        let ns = t0.elapsed().as_nanos() as u64;
        assert_eq!(rec.replay.len(), len);
        assert_eq!(m.state_text(), reference, "resume drifted");
        samples.push(ns);
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "resume {len:>4} mutations: p50 {:>9} ns  p95 {:>9} ns",
        percentile_ns(&samples, 50.0),
        percentile_ns(&samples, 95.0),
    );
    entry(
        format!("paper/resume_replay@{len}"),
        &samples,
        &[
            ("model", Json::from("paper")),
            ("journal_mutations", Json::from(len as u64)),
        ],
    )
}

/// Runs `len` accepted `set_attr`s with a snapshot every
/// `SNAPSHOT_EVERY`, as the daemon's writer does, then times
/// resume-and-load `RESUME_ITERS` times.
fn history_point(len: usize) -> Json {
    let dir = std::env::temp_dir().join(format!("fcm-bench-history-{len}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut model = LiveModel::new("paper").expect("paper model");
    let mut store = Store::create_fresh(&dir).expect("fresh store");
    for i in 0..len {
        let m = Mutation::SetAttr {
            name: "p8".to_string(),
            criticality: Some(2 + (i % 2) as u32),
            throughput: None,
            timing: None,
        };
        model.apply(&m).expect("set_attr accepted");
        store.append(model.seq(), &m).expect("append");
        if (i + 1) % SNAPSHOT_EVERY == 0 {
            store
                .snapshot_text(model.seq(), &model.state_text())
                .expect("snapshot");
        }
    }
    let reference = model.state_text();
    drop((store, model));

    let mut samples = Vec::with_capacity(RESUME_ITERS);
    let mut replayed = 0;
    for _ in 0..RESUME_ITERS {
        let t0 = Instant::now();
        let (_store, rec) = Store::open_resume(&dir).expect("resume");
        let (state, _) = rec.snapshot.as_ref().expect("a snapshot was written");
        let mut m = LiveModel::from_state_text(state).expect("snapshot loads");
        for (_, mu) in &rec.replay {
            m.apply(mu).expect("replay applies");
        }
        let ns = t0.elapsed().as_nanos() as u64;
        assert_eq!(m.state_text(), reference, "resume drifted");
        replayed = rec.replay.len();
        samples.push(ns);
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "resume after {len:>6} mutations: p50 {:>9} ns  p95 {:>9} ns",
        percentile_ns(&samples, 50.0),
        percentile_ns(&samples, 95.0),
    );
    entry(
        format!("paper/resume_after_history@{len}"),
        &samples,
        &[
            ("model", Json::from("paper")),
            ("history_mutations", Json::from(len as u64)),
            ("snapshot_every", Json::from(SNAPSHOT_EVERY as u64)),
            ("replayed", Json::from(replayed as u64)),
        ],
    )
}

/// One `run_script` round-trip; returns the mutation's response line.
fn drive(target: &Listen) -> String {
    let mut buf = Vec::new();
    gen::run_script(target, MUTATE, &mut buf).expect("script session");
    let text = String::from_utf8(buf).expect("utf8 transcript");
    text.lines().nth(1).expect("mutation response").to_string()
}

/// Trips degraded mode on a fresh daemon and times the fault-trip →
/// first-accepted-mutation interval.
fn rearm_sample(iter: usize) -> u64 {
    let dir = std::env::temp_dir().join(format!("fcm-bench-rearm-{iter}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = start(ServerConfig {
        state_dir: Some(dir.clone()),
        fault: FaultPlan::parse("journal.*:eio@0..2").expect("fault spec"),
        rearm_base_ms: 5,
        ..ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), "paper")
    })
    .expect("daemon starts");
    let target = Listen::Tcp(handle.addr().to_string());

    let t0 = Instant::now();
    let first = drive(&target);
    assert!(
        first.contains("\"degraded\":true"),
        "fault did not trip: {first}"
    );
    let ns = loop {
        std::thread::sleep(std::time::Duration::from_millis(2));
        if drive(&target).contains("\"ok\":true") {
            break t0.elapsed().as_nanos() as u64;
        }
        assert!(
            t0.elapsed().as_secs() < 30,
            "daemon never re-armed (iter {iter})"
        );
    };
    handle.stop().expect("clean stop");
    let _ = std::fs::remove_dir_all(&dir);
    ns
}

fn main() {
    let mut benchmarks: Vec<Json> = RESUME_LENS.iter().map(|&len| resume_point(len)).collect();
    benchmarks.extend(HISTORY_LENS.iter().map(|&len| history_point(len)));

    let rearm: Vec<u64> = (0..REARM_ITERS).map(rearm_sample).collect();
    println!(
        "re-arm after journal.*:eio@0..2: p50 {:>9} ns  max {:>9} ns",
        percentile_ns(&rearm, 50.0),
        rearm.iter().max().copied().unwrap_or(0),
    );
    benchmarks.push(entry(
        "paper/rearm_latency".to_string(),
        &rearm,
        &[
            ("model", Json::from("paper")),
            ("rearm_base_ms", Json::from(5u64)),
        ],
    ));

    let artifact = Json::object()
        .set("suite", "fault_recovery")
        .set("schema", "fcm-bench/v1")
        .set("benchmarks", Json::Arr(benchmarks));
    let dir = std::env::var("FCM_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join("BENCH_fault_recovery.json");
    let mut text = artifact.to_string_pretty();
    text.push('\n');
    std::fs::write(&path, text).expect("write bench artifact");
    println!("wrote {}", path.display());
}
