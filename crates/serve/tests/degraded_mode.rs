//! Degraded-mode behaviour under injected journal failure: mutations
//! get the structured `degraded` error, queries keep serving, re-arm
//! probes restore durability once the fault clears, and shutdown while
//! degraded is still clean (exit-0 class).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use fcm_serve::proto::{self, Request};
use fcm_serve::server::{start, Listen, ServerConfig};
use fcm_serve::store::read_recovered;
use fcm_serve::LiveModel;
use fcm_substrate::fault::FaultPlan;
use fcm_substrate::Json;

type Session = (TcpStream, std::io::Lines<BufReader<TcpStream>>);

fn open_session(addr: &str) -> Session {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let out = stream.try_clone().expect("clone");
    let mut lines = BufReader::new(stream).lines();
    let _hello = lines.next().expect("hello").expect("read hello");
    (out, lines)
}

fn send(session: &mut Session, req: &str) -> Json {
    session.0.write_all(req.as_bytes()).expect("write");
    session.0.write_all(b"\n").expect("write");
    let line = session.1.next().expect("response").expect("read");
    Json::parse(&line).expect("valid response JSON")
}

fn state_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("fcm-serve-degraded-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

const MUTATE: &str = r#"{"op":"set_attr","name":"p8","criticality":2}"#;

#[test]
fn persistent_journal_failure_degrades_but_keeps_serving() {
    let dir = state_dir("forever");
    let h = start(ServerConfig {
        state_dir: Some(dir.clone()),
        fault: FaultPlan::parse("journal.*:eio").unwrap(),
        rearm_base_ms: 10,
        ..ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), "paper")
    })
    .expect("server starts");
    let mut s = open_session(h.addr());

    // First mutation trips the injected journal failure: structured
    // degraded error, machine-checkable `"degraded": true`.
    let r = send(&mut s, MUTATE);
    assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{r:?}");
    assert_eq!(r.get("degraded"), Some(&Json::Bool(true)), "{r:?}");
    let err = r.get("error").and_then(Json::as_str).unwrap();
    assert!(err.starts_with("degraded:"), "{err}");

    // Later mutations are rejected the same way (probes keep failing —
    // the plan injects forever).
    for _ in 0..5 {
        std::thread::sleep(Duration::from_millis(15));
        let r = send(&mut s, MUTATE);
        assert_eq!(r.get("degraded"), Some(&Json::Bool(true)), "{r:?}");
    }

    // The read path is untouched — and still fast. The model was rolled
    // back to the durable prefix, so seq is 0.
    let mut best = Duration::MAX;
    for _ in 0..5 {
        let t0 = Instant::now();
        let stats = send(&mut s, r#"{"op":"stats"}"#);
        best = best.min(t0.elapsed());
        assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(stats.get("degraded"), Some(&Json::Bool(true)));
        assert_eq!(stats.get("seq").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            stats.get("degraded_transitions").and_then(Json::as_f64),
            Some(1.0)
        );
        assert!(stats.get("rearm_attempts").and_then(Json::as_f64).unwrap() >= 1.0);
        assert!(stats.get("faults_injected").and_then(Json::as_f64).unwrap() >= 1.0);
    }
    assert!(
        best < Duration::from_millis(10),
        "degraded query took {best:?}"
    );

    // Shutdown while degraded is still clean (the daemon's exit-0 path).
    h.stop().expect("degraded shutdown is clean");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rearm_restores_durability_after_the_fault_clears() {
    let dir = state_dir("rearm");
    // The first two journal-site hits fail: the initial append (enters
    // degraded) and the first re-arm probe; the second probe passes.
    let h = start(ServerConfig {
        state_dir: Some(dir.clone()),
        fault: FaultPlan::parse("journal.*:eio@0..2").unwrap(),
        rearm_base_ms: 5,
        ..ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), "paper")
    })
    .expect("server starts");
    let mut s = open_session(h.addr());

    let r = send(&mut s, MUTATE);
    assert_eq!(r.get("degraded"), Some(&Json::Bool(true)), "{r:?}");

    // Probes piggyback on incoming mutations; retry until re-armed.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut accepted = false;
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        let r = send(&mut s, MUTATE);
        if r.get("ok") == Some(&Json::Bool(true)) {
            accepted = true;
            break;
        }
        assert_eq!(r.get("degraded"), Some(&Json::Bool(true)), "{r:?}");
    }
    assert!(accepted, "daemon never re-armed");

    let stats = send(&mut s, r#"{"op":"stats"}"#);
    assert_eq!(stats.get("degraded"), Some(&Json::Bool(false)));
    assert_eq!(
        stats.get("degraded_transitions").and_then(Json::as_f64),
        Some(1.0)
    );
    assert!(stats.get("rearm_attempts").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(
        stats.get("seq").and_then(Json::as_f64),
        Some(1.0),
        "re-armed daemon journals from the durable prefix"
    );
    // The accepted mutation is really on disk: exactly one journal line
    // (read before the stop, whose snapshot retires the journal).
    let journal = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
    assert_eq!(journal.lines().count(), 1, "{journal}");
    assert!(journal.contains("set_attr"));
    h.stop().expect("clean stop");

    // After the stop the durable state is that one mutation applied.
    let rec = read_recovered(&dir).expect("durable state reads");
    assert_eq!(rec.replay_len(), 0, "the snapshot covers the journal");
    assert_eq!(rec.snapshot_seq(), Some(1), "shutdown snapshot");
    let mut want = LiveModel::new("paper").unwrap();
    let (_, req) = proto::parse_line(MUTATE);
    let Ok(Request::Mutation(m)) = req else {
        panic!("MUTATE is a mutation")
    };
    want.apply(&m).unwrap();
    let got = rec.into_model("paper").expect("snapshot loads");
    assert_eq!(got.state_text(), want.state_text());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_free_plan_behaves_identically_to_no_plan() {
    // `FaultPlan::none()` must be byte-identical to pre-fault behaviour:
    // same responses, same journal bytes before the stop (modulo nothing
    // — the journal carries no timestamps), and the same snapshot state
    // after it.
    let run = |fault: FaultPlan, tag: &str| {
        let dir = state_dir(tag);
        let h = start(ServerConfig {
            state_dir: Some(dir.clone()),
            fault,
            ..ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), "paper")
        })
        .expect("server starts");
        let mut s = open_session(h.addr());
        let mut transcript = String::new();
        for req in [
            MUTATE,
            r#"{"op":"fail_node","node":"hw2"}"#,
            r#"{"op":"restore_node","node":"hw2"}"#,
            r#"{"op":"stats"}"#,
        ] {
            transcript.push_str(&send(&mut s, req).to_string_compact());
            transcript.push('\n');
        }
        let journal = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
        h.stop().expect("clean stop");
        let rec = read_recovered(&dir).expect("durable state reads");
        assert_eq!(rec.snapshot_seq(), Some(3), "shutdown snapshot");
        let state = rec
            .into_model("paper")
            .expect("snapshot loads")
            .state_text();
        let _ = std::fs::remove_dir_all(&dir);
        (transcript, journal, state)
    };
    let (t_none, j_none, s_none) = run(FaultPlan::none(), "none");
    let (t_empty, j_empty, s_empty) = run(FaultPlan::parse("").unwrap(), "empty");
    assert_eq!(t_none, t_empty, "transcripts diverge");
    assert_eq!(j_none, j_empty, "journal bytes diverge");
    assert_eq!(j_none.lines().count(), 3, "{j_none}");
    assert_eq!(s_none, s_empty, "snapshot states diverge");
}
