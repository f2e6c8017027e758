//! A corrupt state directory is refused, never recovered wrongly and
//! never a panic.
//!
//! 1. **Pinned refusals.** Each hand-made corruption of a state
//!    directory (a truncated snapshot, garbage, a wrong `schema`, a
//!    missing `seq` or `state`, an FCM without `crit`, an FCM on an
//!    unknown HW node, an FCM integer field (`crit`, `sec`, `ft`, `rep`,
//!    `sep`, a timing value) that is negative, fractional or out of its
//!    type's range, an edge endpoint that is negative, fractional or
//!    a self-loop, a seq in the envelope, the state or a journal line
//!    that is not a non-negative integer, an envelope seq that is not
//!    the state's, a v1 `influence` section that differs from the matrix
//!    its edges give) makes resume return a structured error with a
//!    pinned message, and makes `fcm-serve --resume` exit 2 with that
//!    message.
//!    A wrong seq is refused rather than trusted, because it would make
//!    resume pass over an acknowledged journal line.
//! 2. **Fuzzed images.** Random truncations and byte flips of a
//!    fleet-size snapshot and journal never make `Store::open_resume`
//!    or the full resume path panic: each either recovers or returns an
//!    error.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// The snapshot and journal files of the paper model after two
/// `set_attr`s with a snapshot between them: a snapshot at seq 1 and
/// one journal line at seq 2.
fn paper_image() -> (String, String) {
    paper_image_with(|store, model| store.snapshot_text(model.seq(), &model.state_text()))
}

/// [`paper_image`] with its snapshot in the v1 form: the state with its
/// `influence` section, under the v1 schema tag.
fn paper_v1_image() -> (String, String) {
    paper_image_with(|store, model| {
        let v1 = model.state_json().set("schema", "fcm-serve-state/v1");
        store.snapshot(model.seq(), &v1)
    })
}

/// [`paper_image`] with the snapshot at seq 1 written by `snapshot`.
fn paper_image_with(
    snapshot: impl Fn(&mut Store, &LiveModel) -> Result<(), String>,
) -> (String, String) {
    static IMAGES: AtomicUsize = AtomicUsize::new(0);
    let dir = state_dir(&format!("source{}", IMAGES.fetch_add(1, Ordering::Relaxed)));
    let mut model = LiveModel::new("paper").expect("paper model");
    let mut store = Store::create_fresh(&dir).expect("fresh store");
    for crit in [2, 3] {
        let m = Mutation::SetAttr {
            name: "p8".to_string(),
            criticality: Some(crit),
            throughput: None,
            timing: None,
        };
        model.apply(&m).expect("set_attr accepted");
        store.append(model.seq(), &m).expect("append");
        if model.seq() == 1 {
            snapshot(&mut store, &model).expect("snapshot");
        }
    }
    drop(store);
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect("state file");
    let image = (read("snapshot.json"), read("journal.jsonl"));
    let _ = std::fs::remove_dir_all(&dir);
    image
}

/// `text` with the first `from` replaced by `to`, which must occur.
fn edit(text: &str, from: &str, to: &str) -> String {
    assert!(text.contains(from), "snapshot lacks {from:?}");
    text.replacen(from, to, 1)
}

/// Each corruption: its name, the snapshot and journal texts and the
/// pinned error.
fn corruptions() -> Vec<(&'static str, String, String, &'static str)> {
    let (text, journal) = paper_image();
    let cut = text.find("\"fcms\"").expect("state has fcms") + 20;
    let crit = &text[text.find("{\"crit\":").expect("fcm has crit") + 1..];
    let crit = &crit[..=crit.find(',').expect("crit is followed by a key")];
    let host = &text[text.find("\"host\":\"").expect("an fcm is hosted")..];
    let host = &host[..host[8..].find('"').expect("host name ends") + 9];
    let snapshot_cases = vec![
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
            "crit-fraction",
            edit(&text, "{\"crit\":10,", "{\"crit\":-2.7,"),
            "snapshot fcm \"p1a\" crit -2.7 is not an integer from 0 to 4294967295",
        ),
        (
            "sec-range",
            edit(&text, "\"sec\":0,", "\"sec\":300,"),
            "snapshot fcm \"p1a\" sec 300 is not an integer from 0 to 255",
        ),
        (
            "ft-negative",
            edit(&text, "\"ft\":3,", "\"ft\":-1,"),
            "snapshot fcm \"p1a\" ft -1 is not an integer from 0 to 255",
        ),
        (
            "rep-fraction",
            edit(&text, "\"rep\":0,", "\"rep\":0.5,"),
            "snapshot fcm \"p1a\" rep 0.5 is not an integer from 0 to 4294967295",
        ),
        (
            "sep-negative",
            edit(&text, "\"sep\":null,", "\"sep\":-3,"),
            "snapshot fcm \"p1a\" sep -3 is not an integer from 0 to 4294967295",
        ),
        (
            "timing-fraction",
            edit(&text, "\"timing\":[0,10,", "\"timing\":[0,10.5,"),
            "snapshot fcm \"p1a\" timing 10.5 is not a non-negative integer",
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
    ];
    // A v1 snapshot whose stored matrix disagrees with its edges: the
    // p1a -> p2a entry, which the edge [0,3,0.5] makes 0.5, edited to 0.9.
    let (v1, _) = paper_v1_image();
    let tampered = edit(
        &v1,
        "\"influence\":[[0,0,0,0.5,",
        "\"influence\":[[0,0,0,0.9,",
    );
    let seq_cases = vec![
        (
            "influence-v1",
            tampered,
            journal.clone(),
            "snapshot influence \"p1a\" -> \"p2a\" is 0.9 but its edges give 0.5",
        ),
        (
            "seq-ahead",
            edit(&text, "\"seq\":1,\"state\"", "\"seq\":2,\"state\""),
            journal.clone(),
            "snapshot seq 2 differs from its state's seq 1",
        ),
        (
            "seq-negative",
            edit(&text, "\"seq\":1,\"state\"", "\"seq\":-1,\"state\""),
            journal.clone(),
            "snapshot seq -1 is not a non-negative integer",
        ),
        (
            "seq-fraction",
            edit(&text, "\"seq\":1,\"state\"", "\"seq\":1.5,\"state\""),
            journal.clone(),
            "snapshot seq 1.5 is not a non-negative integer",
        ),
        (
            "state-seq-negative",
            edit(&text, "\"seq\":1},", "\"seq\":-1},"),
            journal.clone(),
            "snapshot state seq -1 is not a non-negative integer",
        ),
        (
            "state-full-condenses-fraction",
            edit(&text, "\"full_condenses\":1,", "\"full_condenses\":0.5,"),
            journal.clone(),
            "snapshot state full_condenses 0.5 is not a non-negative integer",
        ),
        (
            "journal-seq-negative",
            text.clone(),
            edit(&journal, "\"seq\":2}", "\"seq\":-2}"),
            "journal.jsonl: journal line 1 seq -2 is not a non-negative integer",
        ),
        (
            "journal-seq-fraction",
            text.clone(),
            edit(&journal, "\"seq\":2}", "\"seq\":2.5}"),
            "journal.jsonl: journal line 1 seq 2.5 is not a non-negative integer",
        ),
    ];
    snapshot_cases
        .into_iter()
        .map(|(tag, snapshot, want)| (tag, snapshot, journal.clone(), want))
        .chain(seq_cases)
        .collect()
}

#[test]
fn the_intact_image_resumes_every_acknowledged_mutation() {
    let (snapshot, journal) = paper_image();
    let dir = image(
        "intact",
        &[
            ("snapshot.json", snapshot.as_bytes()),
            ("journal.jsonl", journal.as_bytes()),
        ],
    );
    let (_store, rec) = Store::open_resume(&dir).expect("intact image reads");
    assert_eq!(rec.snapshot_seq(), Some(1));
    let resumed = rec.into_model("paper").expect("resumes");
    assert_eq!(resumed.seq(), 2);
    let _ = std::fs::remove_dir_all(&dir);
    // The snapshot holds no matrix; the v1 form, which does, resumes to
    // the same model.
    assert!(!snapshot.contains("\"influence\""), "{snapshot}");
    let (v1, journal) = paper_v1_image();
    assert!(v1.contains("\"influence\":[[0,0,0,0.5,"), "{v1}");
    let dir = image(
        "intact-v1",
        &[
            ("snapshot.json", v1.as_bytes()),
            ("journal.jsonl", journal.as_bytes()),
        ],
    );
    let (_store, rec) = Store::open_resume(&dir).expect("intact v1 image reads");
    let from_v1 = rec.into_model("paper").expect("resumes");
    assert_eq!(from_v1.state_json(), resumed.state_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshots_are_refused_with_pinned_messages() {
    for (tag, text, journal, want) in corruptions() {
        let dir = image(
            tag,
            &[
                ("snapshot.json", text.as_bytes()),
                ("journal.jsonl", journal.as_bytes()),
            ],
        );
        // Reading the directory refuses most; a model-level check
        // refuses the rest. Either way resume fails with the message.
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
    for (tag, text, journal, want) in corruptions() {
        let dir = image(
            &format!("exit-{tag}"),
            &[
                ("snapshot.json", text.as_bytes()),
                ("journal.jsonl", journal.as_bytes()),
            ],
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
