//! Fault-recovery benchmarks for `fcm-serve`: how fast the daemon gets
//! *back* to full service after the two failure modes the crash matrix
//! and degraded-mode tests pin.
//!
//! * **Cold resume** — `Store::open_resume` + `Recovered::into_model`,
//!   a full journal replay onto a fresh model, at several journal
//!   lengths. This is the recovery
//!   half of every crash-matrix case, measured instead of asserted.
//! * **Resume after a long history** — 10^4 and 10^5 accepted
//!   `set_attr`s with a snapshot every 64, then `Store::open_resume`
//!   (which loads the snapshot) and `Recovered::into_model` (which
//!   replays what follows it). Each snapshot
//!   retires the journal, so this costs the same at either length.
//! * **Re-arm latency** — a daemon whose first journal writes fail
//!   (`journal.*:eio@0..2`) enters degraded mode on the first mutation;
//!   the sample is the wall time from that trip until a mutation is
//!   accepted again (seeded-backoff probes at `rearm_base_ms = 5`).
//!
//! Each point records its samples with `p99_ns` beside the usual
//! statistics. Socket use stays confined to `crates/serve` — the re-arm
//! driver goes through `gen::run_script`.

use std::time::Instant;

use fcm_serve::gen;
use fcm_serve::proto::{self, Mutation, Request};
use fcm_serve::server::{start, Listen, ServerConfig};
use fcm_serve::store::Store;
use fcm_serve::LiveModel;
use fcm_substrate::bench::Suite;
use fcm_substrate::fault::FaultPlan;

/// Journal lengths (accepted mutations) for the cold-resume points.
const RESUME_LENS: [usize; 3] = [16, 128, 512];
/// Accepted mutations before the resume-after-history points.
const HISTORY_LENS: [usize; 2] = [10_000, 100_000];
/// The daemon's default snapshot cadence.
const SNAPSHOT_EVERY: usize = 64;
const RESUME_ITERS: usize = 30;
const REARM_ITERS: usize = 8;

const MUTATE: &str = "{\"op\":\"set_attr\",\"name\":\"p8\",\"criticality\":2}";

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
fn resume_point(suite: &mut Suite, len: usize) {
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
        assert_eq!(rec.replay_len(), len);
        let m = rec.into_model("paper").expect("replay applies");
        let ns = t0.elapsed().as_nanos() as u64;
        assert_eq!(m.state_text(), reference, "resume drifted");
        samples.push(ns);
    }
    let _ = std::fs::remove_dir_all(&dir);
    suite
        .record(&format!("paper/resume_replay@{len}"), &samples)
        .with("model", "paper")
        .with("journal_mutations", len as u64);
}

/// Runs `len` accepted `set_attr`s with a snapshot every
/// `SNAPSHOT_EVERY`, as the daemon's writer does, then times
/// resume-and-load `RESUME_ITERS` times.
fn history_point(suite: &mut Suite, len: usize) {
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
        assert!(rec.snapshot_seq().is_some(), "a snapshot was written");
        replayed = rec.replay_len();
        let m = rec.into_model("paper").expect("replay applies");
        let ns = t0.elapsed().as_nanos() as u64;
        assert_eq!(m.state_text(), reference, "resume drifted");
        samples.push(ns);
    }
    let _ = std::fs::remove_dir_all(&dir);
    suite
        .record(&format!("paper/resume_after_history@{len}"), &samples)
        .with("model", "paper")
        .with("history_mutations", len as u64)
        .with("snapshot_every", SNAPSHOT_EVERY as u64)
        .with("replayed", replayed as u64);
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
    let mut suite = Suite::new("fault_recovery");
    for len in RESUME_LENS {
        resume_point(&mut suite, len);
    }
    for len in HISTORY_LENS {
        history_point(&mut suite, len);
    }
    let rearm: Vec<u64> = (0..REARM_ITERS).map(rearm_sample).collect();
    suite
        .record("paper/rearm_latency", &rearm)
        .with("model", "paper")
        .with("rearm_base_ms", 5u64);
    suite.finish();
}
