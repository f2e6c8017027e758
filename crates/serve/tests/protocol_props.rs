//! Protocol and durability properties for `fcm-serve`, driven by the
//! workspace's deterministic RNG:
//!
//! 1. **Round-trip** — a mutation's canonical JSON parses back to the
//!    same mutation (`parse ∘ render = id`), and every response line the
//!    server emits is a single valid JSON object echoing the request id.
//! 2. **Replay** — a randomized accepted-mutation sequence, re-applied
//!    from its journal JSON onto a fresh model, reproduces the live
//!    model's `dump` byte-for-byte (the `--resume` guarantee).
//! 3. **Incrementality** — after any such sequence, the incrementally
//!    maintained influence matrix is *bitwise* equal to a from-scratch
//!    condensation of the final graph, with the model still reporting
//!    exactly one full condense.
//! 4. **Isolation** — concurrent reader sessions interleaved with a
//!    mutating writer never observe a torn model (dump invariants hold
//!    on every read).
//! 5. **Torn-tail tolerance** — for *every byte prefix* of a valid
//!    journal, resume succeeds, recovers exactly the complete
//!    newline-terminated lines, and lands byte-identically on the
//!    reference trajectory; a newline-*terminated* corrupt line, by
//!    contrast, is a hard error with a line-numbered diagnostic.

use std::io::{BufRead, BufReader, Write};

use fcm_serve::proto::{self, Mutation, Request};
use fcm_serve::server::{start, Listen, ServerConfig};
use fcm_serve::store::{read_recovered, Store};
use fcm_serve::LiveModel;
use fcm_substrate::{prop, prop_assert_eq, Json, Rng};

#[path = "support/mutations.rs"]
mod mutations;
use mutations::random_mutation;

#[test]
fn mutation_json_round_trips_exactly() {
    let mut rng = Rng::seed_from_u64(0xfc5e);
    let pool: Vec<String> = (1..=8).map(|i| format!("p{i}")).collect();
    let mut fresh = 0;
    for _ in 0..500 {
        let m = random_mutation(&mut rng, &pool, &mut fresh);
        let j = proto::mutation_to_json(&m);
        let back = proto::mutation_from_json(&j).expect("canonical JSON parses");
        assert_eq!(back, m, "round-trip mismatch for {j:?}");
        // And through the wire-line path too.
        let line = j.to_string_compact();
        let (_, req) = proto::parse_line(&line);
        assert_eq!(req, Ok(Request::Mutation(m)), "line parse mismatch: {line}");
    }
}

#[test]
fn render_response_echoes_ids_and_is_line_json() {
    let ok: Result<Json, String> = Ok(Json::object().set("x", 1u64));
    let err: Result<Json, String> = Err("boom \"quoted\"\nnewline".to_string());
    for (id, result) in [
        (Some(Json::from(7u64)), &ok),
        (Some(Json::from("req-9")), &err),
        (None, &ok),
        (None, &err),
    ] {
        let line = proto::render_response(id.as_ref(), result);
        assert!(line.ends_with('\n'), "newline-terminated");
        assert_eq!(line.matches('\n').count(), 1, "single line: {line:?}");
        let j = Json::parse(line.trim_end()).expect("response is valid JSON");
        assert_eq!(j.get("id"), id.as_ref(), "id echoed");
        match result {
            Ok(_) => assert_eq!(j.get("ok"), Some(&Json::Bool(true))),
            Err(e) => {
                assert_eq!(j.get("ok"), Some(&Json::Bool(false)));
                assert_eq!(j.get("error").and_then(Json::as_str), Some(e.as_str()));
            }
        }
    }
}

/// Applies a random mutation stream to a live model, journaling the
/// accepted ones; returns the model and the journal.
fn random_run(seed: u64, steps: usize) -> (LiveModel, Vec<Json>) {
    let mut model = LiveModel::new("paper").expect("paper model");
    let mut rng = Rng::seed_from_u64(seed);
    let mut pool: Vec<String> = (0..model.fcm_count()).map(|_| String::new()).collect();
    // Fetch real names via the list query.
    let names = model
        .query(&fcm_serve::Query::List)
        .expect("list")
        .get("fcms")
        .and_then(Json::as_array)
        .expect("fcms")
        .iter()
        .filter_map(|v| v.as_str().map(str::to_string))
        .collect::<Vec<_>>();
    pool.clone_from(&names);
    let mut fresh = 0;
    let mut journal = Vec::new();
    for _ in 0..steps {
        let m = random_mutation(&mut rng, &pool, &mut fresh);
        if model.apply(&m).is_ok() {
            if let Mutation::AddFcm { name, .. } = &m {
                pool.push(name.clone());
            }
            if let Mutation::RemoveFcm { name } = &m {
                pool.retain(|n| n != name);
            }
            journal.push(proto::mutation_to_json(&m));
        }
    }
    (model, journal)
}

#[test]
fn journal_replay_reproduces_the_model_byte_identically() {
    for seed in [1u64, 17, 4242] {
        let (model, journal) = random_run(seed, 120);
        assert!(journal.len() > 30, "seed {seed}: enough accepted mutations");
        let mut replica = LiveModel::new("paper").expect("paper model");
        for entry in &journal {
            let m = proto::mutation_from_json(entry).expect("journal entry parses");
            replica.apply(&m).expect("accepted once, accepted again");
        }
        assert_eq!(
            replica.state_text(),
            model.state_text(),
            "seed {seed}: replay diverged"
        );
    }
}

#[test]
fn incremental_matrix_stays_bitwise_equal_to_full_condense() {
    use fcm_graph::{condense, CombineRule};
    for seed in [3u64, 99] {
        let (model, _) = random_run(seed, 100);
        assert_eq!(model.full_condenses(), 1, "hot path never recondensed");
        // Rebuild the graph from the dump and recondense from scratch.
        let state = model.state_json();
        let replica = LiveModel::from_state(&state).expect("state loads");
        let graph = replica.graph();
        let groups: Vec<Vec<fcm_graph::NodeIdx>> = graph.node_indices().map(|n| vec![n]).collect();
        let full = condense(graph, &groups, CombineRule::Probabilistic)
            .expect("partition")
            .influence_matrix();
        let rows = state.get("influence").and_then(Json::as_array).unwrap();
        for (i, row) in rows.iter().enumerate() {
            for (j, v) in row.as_array().unwrap().iter().enumerate() {
                let live = v.as_f64().unwrap();
                assert_eq!(
                    live.to_bits(),
                    full[(i, j)].to_bits(),
                    "seed {seed}: entry ({i},{j}) drifted"
                );
            }
        }
    }
}

/// `json` as text with every object's keys in reverse order: compact,
/// or pretty with two-space indents from `depth` on when `pretty`.
fn write_reversed(json: &Json, out: &mut String, pretty: bool, depth: usize) {
    let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match json {
        Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
        Json::Obj(map) => (
            '{',
            '}',
            map.iter()
                .rev()
                .map(|(k, v)| (Some(k.as_str()), v))
                .collect(),
        ),
        scalar => return scalar.write_compact(out),
    };
    let newline = |out: &mut String, depth: usize| {
        if pretty {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
    };
    out.push(open);
    let empty = items.is_empty();
    for (i, (key, value)) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, depth + 1);
        if let Some(key) = key {
            Json::from(key).write_compact(out);
            out.push_str(if pretty { ": " } else { ":" });
        }
        write_reversed(value, out, pretty, depth + 1);
    }
    if !empty {
        newline(out, depth);
    }
    out.push(close);
}

/// `state` with an unknown key at the top level and in every FCM entry.
fn with_unknown_keys(state: &Json) -> Json {
    let unknown = || Json::object().set("x", Json::array([Json::from(1u8), Json::Null]));
    let fcms = state.get("fcms").and_then(Json::as_array).unwrap_or(&[]);
    let fcms = Json::array(fcms.iter().map(|f| f.clone().set("zz_unknown", unknown())));
    state.clone().set("fcms", fcms).set("aa_unknown", unknown())
}

/// The state's compact, pretty and key-reversed forms, each loaded, and
/// the state resumed from a snapshot at `seq` whose envelope is pretty
/// with its keys reversed, so `state` comes before `schema` and `seq`.
fn load_forms(state: &Json, seq: u64) -> [Result<String, String>; 4] {
    let mut reversed = String::new();
    write_reversed(state, &mut reversed, false, 0);
    let [compact, pretty, reversed] = [
        state.to_string_compact(),
        state.to_string_pretty(),
        reversed,
    ]
    .map(|text| LiveModel::from_state_text(&text).map(|m| m.state_text()));
    let envelope = Json::object()
        .set("schema", "fcm-serve-snapshot/v1")
        .set("seq", seq)
        .set("state", state.clone())
        .set("written_unix_ms", 0u64);
    let mut text = String::new();
    write_reversed(&envelope, &mut text, true, 0);
    [compact, pretty, reversed, resume_snapshot(&text)]
}

/// The `state_text` of the model resumed from a state directory that
/// holds only the snapshot file `text`.
fn resume_snapshot(text: &str) -> Result<String, String> {
    static DIRS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = DIRS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("fcm-serve-envelope-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create state dir");
    std::fs::write(dir.join("snapshot.json"), text).expect("write snapshot");
    let resumed = read_recovered(&dir).and_then(|rec| rec.into_model("paper"));
    let _ = std::fs::remove_dir_all(&dir);
    resumed.map(|m| m.state_text())
}

/// One random state and one random damage to it: which key to drop or
/// retype, in the top level or in one FCM entry.
#[derive(Debug)]
struct StateCase {
    seed: u64,
    steps: usize,
    in_fcm: bool,
    pick: usize,
    retype: bool,
}

#[test]
fn state_text_loads_the_same_in_any_key_order_and_layout() {
    prop::check(
        "state_text_loads_the_same_in_any_key_order_and_layout",
        prop::Config {
            cases: 24,
            max_size: 80,
            ..prop::Config::default()
        },
        |rng, size| StateCase {
            seed: rng.next_u64(),
            steps: size,
            in_fcm: rng.gen_bool(0.5),
            pick: rng.gen_range(0usize..64),
            retype: rng.gen_bool(0.5),
        },
        |c| {
            let (model, _) = random_run(c.seed, c.steps);
            let want = model.state_text();
            let state = with_unknown_keys(&model.state_json());
            for got in load_forms(&state, model.seq()) {
                prop_assert_eq!(got, Ok(want.clone()));
            }
            // A damaged state reports one outcome in every form.
            let damage = |obj: &Json| -> Json {
                let Json::Obj(map) = obj else {
                    return obj.clone();
                };
                let mut map = map.clone();
                let key = map.keys().nth(c.pick % map.len().max(1)).cloned();
                if let Some(key) = key {
                    match c.retype {
                        true => map.insert(key, Json::from("x")),
                        false => map.remove(&key),
                    };
                }
                Json::Obj(map)
            };
            let damaged = if c.in_fcm {
                let fcms = state.get("fcms").and_then(Json::as_array).unwrap_or(&[]);
                let at = c.pick % fcms.len().max(1);
                let fcms = fcms
                    .iter()
                    .enumerate()
                    .map(|(i, f)| if i == at { damage(f) } else { f.clone() });
                state.clone().set("fcms", Json::array(fcms))
            } else {
                damage(&state)
            };
            let [compact, pretty, reversed, envelope] = load_forms(&damaged, model.seq());
            prop_assert_eq!(&pretty, &compact);
            prop_assert_eq!(&reversed, &compact);
            prop_assert_eq!(&envelope, &compact);
            Ok(())
        },
    );
}

#[test]
fn every_journal_byte_prefix_resumes_to_the_reference_trajectory() {
    // Build a reference journal (no snapshot — recovery must come from
    // replay alone) and the state after each accepted mutation.
    let dir = std::env::temp_dir().join(format!("fcm-serve-prefix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let script = [
        r#"{"op":"set_attr","name":"p8","criticality":2}"#,
        r#"{"op":"fail_node","node":"hw2"}"#,
        r#"{"op":"restore_node","node":"hw2"}"#,
        r#"{"op":"set_attr","name":"p8","criticality":3}"#,
    ];
    let mut model = LiveModel::new("paper").expect("paper model");
    let mut store = Store::create_fresh(&dir).expect("fresh store");
    let mut states = vec![model.state_text()];
    for line in script {
        let (_, req) = proto::parse_line(line);
        let Ok(Request::Mutation(m)) = req else {
            panic!("script line is a mutation")
        };
        model.apply(&m).expect("script mutation accepted");
        store.append(model.seq(), &m).expect("append");
        states.push(model.state_text());
    }
    drop(store);
    let journal = std::fs::read(dir.join("journal.jsonl")).expect("journal bytes");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(journal.len() > 100, "journal is non-trivial");

    // Every byte prefix is a possible crash image; each must resume.
    for cut in 0..=journal.len() {
        let prefix = &journal[..cut];
        let pdir =
            std::env::temp_dir().join(format!("fcm-serve-prefix-{}-{cut}", std::process::id()));
        let _ = std::fs::remove_dir_all(&pdir);
        std::fs::create_dir_all(&pdir).unwrap();
        std::fs::write(pdir.join("journal.jsonl"), prefix).unwrap();
        let (_store, rec) = Store::open_resume(&pdir)
            .unwrap_or_else(|e| panic!("prefix {cut}: resume failed: {e}"));
        assert_eq!(rec.snapshot_seq(), None);
        let complete_lines = prefix.iter().filter(|&&b| b == b'\n').count();
        assert_eq!(
            rec.replay_len(),
            complete_lines,
            "prefix {cut}: exactly the complete lines survive"
        );
        let recovered = rec.into_model("paper").expect("replay applies");
        assert_eq!(
            recovered.state_text(),
            states[complete_lines],
            "prefix {cut}: recovered state off the reference trajectory"
        );
        // The torn tail was also physically repaired for appends.
        let repaired = std::fs::read(pdir.join("journal.jsonl")).unwrap();
        assert!(repaired.is_empty() || repaired.ends_with(b"\n"));
        let _ = std::fs::remove_dir_all(&pdir);
    }
}

#[test]
fn newline_terminated_corruption_is_a_line_numbered_error() {
    let dir = std::env::temp_dir().join(format!("fcm-serve-corrupt-{}", std::process::id()));
    for (journal, want) in [
        // Garbage mid-file, valid line after: real corruption, not a torn
        // tail — refused with the offending line number.
        (
            "{\"mutation\":{\"criticality\":2,\"name\":\"p8\",\"op\":\"set_attr\"},\"seq\":1}\n{CORRUPT}\n{\"mutation\":{\"node\":\"hw2\",\"op\":\"fail_node\"},\"seq\":2}\n",
            "journal line 2",
        ),
        // A complete line of garbage at EOF is corruption too (only a
        // newline-LESS tail is crash-consistent).
        (
            "{\"mutation\":{\"criticality\":2,\"name\":\"p8\",\"op\":\"set_attr\"},\"seq\":1}\nnot json\n",
            "journal line 2",
        ),
    ] {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("journal.jsonl"), journal).unwrap();
        let err = Store::open_resume(&dir).expect_err("corruption refused");
        assert!(err.contains(want), "diagnostic {err:?} lacks {want:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interleaved_sessions_never_observe_a_torn_model() {
    let handle = start(ServerConfig::new(
        Listen::Tcp("127.0.0.1:0".to_string()),
        "paper",
    ))
    .expect("server starts");
    let addr = handle.addr().to_string();

    let session = |addr: &str| {
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        let out = stream.try_clone().expect("clone");
        let mut lines = BufReader::new(stream).lines();
        lines.next().expect("hello").expect("read");
        (out, lines)
    };
    let roundtrip = |out: &mut std::net::TcpStream,
                     lines: &mut std::io::Lines<BufReader<std::net::TcpStream>>,
                     req: &str|
     -> Json {
        out.write_all(req.as_bytes()).expect("send");
        out.write_all(b"\n").expect("send");
        Json::parse(&lines.next().expect("response").expect("read")).expect("valid JSON")
    };

    let writer = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let (mut out, mut lines) = session(&addr);
            let mut rng = Rng::seed_from_u64(5150);
            for i in 0..40 {
                let add = format!(
                    r#"{{"op":"add_fcm","name":"t{i}","criticality":{},"influences":[["p4",{}]]}}"#,
                    rng.gen_range(0u64..3),
                    rng.gen_range(0.1f64..0.9)
                );
                assert_eq!(
                    roundtrip(&mut out, &mut lines, &add).get("ok"),
                    Some(&Json::Bool(true))
                );
                if rng.gen_bool(0.5) {
                    let rm = format!(r#"{{"op":"remove_fcm","name":"t{i}"}}"#);
                    assert_eq!(
                        roundtrip(&mut out, &mut lines, &rm).get("ok"),
                        Some(&Json::Bool(true))
                    );
                }
            }
        })
    };
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let (mut out, mut lines) = session(&addr);
                for _ in 0..60 {
                    let r = roundtrip(&mut out, &mut lines, r#"{"op":"dump"}"#);
                    assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
                    let state = r.get("state").expect("state");
                    let fcms = state.get("fcms").and_then(Json::as_array).unwrap();
                    let rows = state.get("influence").and_then(Json::as_array).unwrap();
                    // Torn-model detectors: matrix square and sized to the
                    // FCM list; every edge endpoint within range; every
                    // hosted FCM on a real HW node.
                    assert_eq!(rows.len(), fcms.len());
                    for row in rows {
                        assert_eq!(row.as_array().unwrap().len(), fcms.len());
                    }
                    for e in state.get("edges").and_then(Json::as_array).unwrap() {
                        let t = e.as_array().unwrap();
                        assert!((t[0].as_f64().unwrap() as usize) < fcms.len());
                        assert!((t[1].as_f64().unwrap() as usize) < fcms.len());
                    }
                    let stats = roundtrip(&mut out, &mut lines, r#"{"op":"stats"}"#);
                    assert_eq!(
                        stats.get("full_condenses").and_then(Json::as_f64),
                        Some(1.0),
                        "queries never trigger recondensation"
                    );
                }
            })
        })
        .collect();
    writer.join().expect("writer session clean");
    for r in readers {
        r.join().expect("reader session clean");
    }
    handle.stop().expect("clean stop");
}
