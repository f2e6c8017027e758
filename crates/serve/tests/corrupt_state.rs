//! A corrupt state directory is refused, never recovered wrongly and
//! never a panic.
//!
//! 1. **Pinned refusals.** Each hand-made corruption of a snapshot (a
//!    truncated file, garbage, a wrong `schema`, a missing `seq` or
//!    `state`, an FCM without `crit`, an FCM on an unknown HW node, an
//!    edge endpoint that is negative, fractional or a self-loop)
//!    makes resume return a structured error with a pinned message, and
//!    makes `fcm-serve --resume` exit 2 with that message.
//! 2. **Fuzzed images.** Random truncations and byte flips of a
//!    fleet-size snapshot and journal never make `Store::open_resume`
//!    or the full resume path panic: each either recovers or returns an
//!    error.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use fcm_serve::proto::Mutation;
use fcm_serve::server::{start, Listen, ServerConfig};
use fcm_serve::store::Store;
use fcm_serve::LiveModel;
use fcm_substrate::prop::{self, Config};
use fcm_substrate::Rng;

#[path = "support/fleet.rs"]
mod fleet;
use fleet::Fleet;

fn state_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("fcm-serve-corrupt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Writes `files` (name, bytes) into a fresh directory.
fn image(tag: &str, files: &[(&str, &[u8])]) -> PathBuf {
    let dir = state_dir(tag);
    std::fs::create_dir_all(&dir).expect("create state dir");
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).expect("write state file");
    }
    dir
}

fn resume_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        state_dir: Some(dir.to_path_buf()),
        resume: true,
        ..ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), "paper")
    }
}

/// The snapshot file of the paper model after one `set_attr`.
fn paper_snapshot() -> String {
    let dir = state_dir("source");
    let mut model = LiveModel::new("paper").expect("paper model");
    let m = Mutation::SetAttr {
        name: "p8".to_string(),
        criticality: Some(2),
        throughput: None,
        timing: None,
    };
    model.apply(&m).expect("set_attr accepted");
    let mut store = Store::create_fresh(&dir).expect("fresh store");
    store.append(model.seq(), &m).expect("append");
    store
        .snapshot_text(model.seq(), &model.state_text())
        .expect("snapshot");
    drop(store);
    let text = std::fs::read_to_string(dir.join("snapshot.json")).expect("snapshot text");
    let _ = std::fs::remove_dir_all(&dir);
    text
}

/// `text` with the first `from` replaced by `to`, which must occur.
fn edit(text: &str, from: &str, to: &str) -> String {
    assert!(text.contains(from), "snapshot lacks {from:?}");
    text.replacen(from, to, 1)
}

/// Each corruption: its name, the snapshot text and the pinned error.
fn corruptions() -> Vec<(&'static str, String, &'static str)> {
    let text = paper_snapshot();
    let cut = text.find("\"fcms\"").expect("state has fcms") + 20;
    let crit = &text[text.find("{\"crit\":").expect("fcm has crit") + 1..];
    let crit = &crit[..=crit.find(',').expect("crit is followed by a key")];
    let host = &text[text.find("\"host\":\"").expect("an fcm is hosted")..];
    let host = &host[..host[8..].find('"').expect("host name ends") + 9];
    vec![
        (
            "truncated",
            text[..cut].to_string(),
            "corrupt snapshot: unterminated string",
        ),
        (
            "garbage",
            "garbage\n".to_string(),
            "corrupt snapshot: invalid number at byte 0",
        ),
        (
            "schema",
            edit(&text, "fcm-serve-snapshot/v1", "fcm-serve-snapshot/v0"),
            "snapshot is not fcm-serve-snapshot/v1",
        ),
        (
            "seq",
            edit(&text, "\"seq\":1,\"state\"", "\"state\""),
            "snapshot missing \"seq\"",
        ),
        (
            "state",
            edit(&text, "\"state\":", "\"stale\":"),
            "snapshot missing \"state\"",
        ),
        (
            "crit",
            edit(&text, crit, ""),
            "snapshot fcm \"p1a\" missing \"crit\"",
        ),
        (
            "host",
            edit(&text, host, "\"host\":\"hw99\""),
            "snapshot fcm \"p1a\" on unknown hw \"hw99\"",
        ),
        (
            "edge-negative",
            edit(&text, "\"edges\":[[0,", "\"edges\":[[-1,"),
            "snapshot edge endpoint -1 is not an fcm index",
        ),
        (
            "edge-fraction",
            edit(&text, "\"edges\":[[0,", "\"edges\":[[0.9,"),
            "snapshot edge endpoint 0.9 is not an fcm index",
        ),
        (
            "edge-self-loop",
            edit(&text, "\"edges\":[[0,1,", "\"edges\":[[1e0,1,"),
            "snapshot edge is a self-loop on fcm \"p1b\"",
        ),
    ]
}

#[test]
fn corrupt_snapshots_are_refused_with_pinned_messages() {
    for (tag, text, want) in corruptions() {
        let dir = image(tag, &[("snapshot.json", text.as_bytes())]);
        // The envelope is the store's to refuse; the state inside it,
        // the decoder's. Either way resume fails with the message.
        let err = match Store::open_resume(&dir) {
            Err(e) => e,
            Ok(_) => match start(resume_config(&dir)) {
                Err(e) => e,
                Ok(h) => {
                    let _ = h.stop();
                    panic!("{tag}: the corrupt snapshot resumed");
                }
            },
        };
        assert_eq!(err, want, "{tag}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn fcm_serve_resume_from_a_corrupt_snapshot_exits_two() {
    for (tag, text, want) in corruptions() {
        let dir = image(
            &format!("exit-{tag}"),
            &[("snapshot.json", text.as_bytes())],
        );
        let out = Command::new(env!("CARGO_BIN_EXE_fcm-serve"))
            .args(["--model", "paper", "--tcp", "127.0.0.1:0", "--resume"])
            .arg("--state-dir")
            .arg(&dir)
            .env_remove("FCM_OBS_OUT")
            .output()
            .expect("spawn fcm-serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{tag}: {stderr}");
        assert!(
            stderr.lines().any(|l| l == format!("fcm-serve: {want}")),
            "{tag}: {stderr}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A fleet-size state directory image: the snapshot and the journal
/// bytes of the paper model grown and churned through the fleet stream,
/// snapshotted part way, so the journal holds lines on both sides of
/// the snapshot.
fn fleet_image() -> &'static (Vec<u8>, Vec<u8>) {
    static IMAGE: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let dir = state_dir("fleet-source");
        let mut m = LiveModel::new("paper").expect("paper model");
        let base: Vec<String> = m.graph().nodes().map(|(_, n)| n.name.clone()).collect();
        let mut fleet = Fleet::new(0xf0221, &base);
        let mut store = Store::create_fresh(&dir).expect("fresh store");
        for step in 0..260 {
            let mutation = if step < 200 {
                fleet.grow()
            } else {
                fleet.churn()
            };
            if m.apply(&mutation).is_ok() {
                fleet.accepted(&mutation);
                store.append(m.seq(), &mutation).expect("append");
            }
            if step == 230 {
                store
                    .snapshot_text(m.seq(), &m.state_text())
                    .expect("snapshot");
            }
        }
        drop(store);
        assert!(m.fcm_count() >= 100, "only {} FCMs", m.fcm_count());
        let read = |name: &str| std::fs::read(dir.join(name)).expect("state file");
        let image = (read("snapshot.json"), read("journal.jsonl"));
        let _ = std::fs::remove_dir_all(&dir);
        image
    })
}

/// One damaged image: which file, cut to `truncate` bytes when set,
/// then `flips` (offset, byte) overwritten.
#[derive(Debug)]
struct Damage {
    snapshot: bool,
    truncate: Option<usize>,
    flips: Vec<(usize, u8)>,
}

fn damage(rng: &mut Rng, size: usize) -> Damage {
    let (snap, journal) = fleet_image();
    let snapshot = rng.gen_bool(0.5);
    let len = if snapshot { snap.len() } else { journal.len() };
    let truncate = rng.gen_bool(0.5).then(|| rng.gen_range(0..len));
    let kept = truncate.unwrap_or(len).max(1);
    let flips = (0..rng.gen_range(0..size.clamp(1, 8) + 1))
        .map(|_| (rng.gen_range(0..kept), rng.gen::<u64>() as u8))
        .collect();
    Damage {
        snapshot,
        truncate,
        flips,
    }
}

#[test]
fn damaged_state_images_never_panic_the_resume_path() {
    let (snap, journal) = fleet_image();
    let case = std::sync::atomic::AtomicUsize::new(0);
    prop::check(
        "damaged_state_images_never_panic_the_resume_path",
        Config {
            cases: 96,
            max_size: 8,
            ..Config::default()
        },
        damage,
        |d| {
            let mut bytes = if d.snapshot { snap } else { journal }.clone();
            if let Some(cut) = d.truncate {
                bytes.truncate(cut);
            }
            for &(at, b) in &d.flips {
                if let Some(slot) = bytes.get_mut(at) {
                    *slot = b;
                }
            }
            let (snap_bytes, journal_bytes) = if d.snapshot {
                (&bytes, journal)
            } else {
                (snap, &bytes)
            };
            let n = case.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir = image(
                &format!("fuzz-{n}"),
                &[
                    ("snapshot.json", snap_bytes.as_slice()),
                    ("journal.jsonl", journal_bytes.as_slice()),
                ],
            );
            let outcome = std::panic::catch_unwind(|| {
                if Store::open_resume(&dir).is_ok() {
                    if let Ok(h) = start(resume_config(&dir)) {
                        let _ = h.stop();
                    }
                }
            });
            let _ = std::fs::remove_dir_all(&dir);
            outcome.map_err(|_| "the resume path panicked".to_string())
        },
    );
}
