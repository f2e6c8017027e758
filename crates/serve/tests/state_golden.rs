//! Golden state bytes: `LiveModel::state_text()`, the text every
//! snapshot embeds, is pinned byte for byte on two states, and so is the
//! text of its parsed tree. The text holds no `influence` section: the
//! matrix is derived from the edges.
//!
//! * `state_paper.json`: the `paper` model after a fixed protocol script
//!   (contracts with caps, a name that needs JSON escaping, a timing
//!   edit, a failed HW node, replicas from the model itself), then a pin
//!   and a separation group loaded through `from_state`, the only entry
//!   path that sets them. The paper platform offers no resources, so
//!   required resources come from the second state.
//! * `state_csr.json`: the `avionics` model (whose display and datalink
//!   FCMs require resources) grown by a fixed arithmetic script just past
//!   the point where the influence matrix flips to CSR (n ≥ 64, density
//!   ≤ 0.05).
//!
//! The golden files end in one newline; the state text does not.

use fcm_serve::proto::{self, Mutation, Query, Request};
use fcm_serve::LiveModel;
use fcm_substrate::Json;

const PAPER_GOLDEN: &str = include_str!("golden/state_paper.json");
const CSR_GOLDEN: &str = include_str!("golden/state_csr.json");

/// Member `k` of object `j`; a missing member fails the test.
fn key<'a>(j: &'a Json, k: &str) -> &'a Json {
    j.get(k).unwrap_or_else(|| panic!("no member \"{k}\""))
}

fn host_of<'a>(fcms: &'a [Json], name: &str) -> &'a Json {
    let f = fcms.iter().find(|f| key(f, "name").as_str() == Some(name));
    key(f.expect("fcm present"), "host")
}

fn mutation(line: &str) -> Mutation {
    match proto::parse_line(line).1 {
        Ok(Request::Mutation(m)) => m,
        other => panic!("{line}: not a mutation: {other:?}"),
    }
}

fn repr(m: &LiveModel) -> String {
    let dump = m.query(&Query::Dump).expect("dump answers");
    key(key(&dump, "matrix"), "repr")
        .as_str()
        .expect("repr is a string")
        .to_string()
}

/// The paper model after the fixed script, with a pin and a separation
/// group edited into its state and loaded back.
fn paper_state() -> LiveModel {
    let mut m = LiveModel::new("paper").expect("paper model");
    let script = [
        r#"{"op":"add_fcm","name":"c1","criticality":2,"throughput":0.1,"security":1,"timing":[0,400,5],"influences":[["p8",0.25],["p2a",0.3]],"contract":{"guarantee":0.9,"rely":9,"floor":1,"caps":{"p8":0.5,"p2a":0.35}}}"#,
        r#"{"op":"add_fcm","name":"q\"b\\s\u0001é/","criticality":1,"throughput":0.05,"influenced_by":[["c1",0.125]],"influences":[["p7",0.7]]}"#,
        r#"{"op":"add_fcm","name":"c2","criticality":3,"influences":[["q\"b\\s\u0001é/",0.2]],"contract":{"guarantee":0.5,"rely":2.5,"floor":3,"caps":{"q\"b\\s\u0001é/":0.2}}}"#,
        r#"{"op":"set_attr","name":"c2","throughput":0.3333333333333333,"timing":[10,900,7]}"#,
        r#"{"op":"set_attr","name":"p8","criticality":2}"#,
        r#"{"op":"fail_node","node":"hw4"}"#,
        r#"{"op":"add_fcm","name":"t1","criticality":1,"influences":[["c2",0.1]]}"#,
        r#"{"op":"remove_fcm","name":"t1"}"#,
    ];
    for line in script {
        m.apply(&mutation(line))
            .unwrap_or_else(|e| panic!("{line}: {e}"));
    }

    let state = m.state_json();
    let edited: Vec<Json> = key(&state, "fcms")
        .as_array()
        .expect("fcms array")
        .iter()
        .map(|f| {
            let host = key(f, "host").clone();
            match key(f, "name").as_str() {
                Some("c1") => f.clone().set("pin", host).set("sep", 7u32),
                Some("p6") => f.clone().set("sep", 7u32),
                _ => f.clone(),
            }
        })
        .collect();
    assert_ne!(
        host_of(&edited, "c1"),
        host_of(&edited, "p6"),
        "the separated pair sits on two hosts"
    );
    LiveModel::from_state(&state.set("fcms", Json::Arr(edited))).expect("edited state loads")
}

/// The avionics model grown by a fixed arithmetic script until the
/// matrix is CSR, plus a few adds past the flip.
fn csr_state() -> LiveModel {
    let mut m = LiveModel::new("avionics").expect("avionics model");
    let mut names: Vec<String> = m.graph().nodes().map(|(_, n)| n.name.clone()).collect();
    let mut past_flip = 0;
    for i in 0..200usize {
        if repr(&m) == "csr" {
            past_flip += 1;
            if past_flip > 4 {
                break;
            }
        }
        let name = format!("g{i}");
        let to = &names[(i * 7 + 3) % names.len()];
        let from = &names[(i * 5 + 1) % names.len()];
        let mut line = format!(
            r#"{{"op":"add_fcm","name":"{name}","criticality":{},"throughput":{},"influences":[["{to}",{}]]"#,
            i % 4,
            (i % 5) as f64 * 0.01,
            0.05 + (i % 9) as f64 * 0.03,
        );
        if i % 3 == 0 {
            line += &format!(
                r#","influenced_by":[["{from}",{}]]"#,
                0.02 * (1 + i % 5) as f64
            );
        }
        if i % 6 == 0 {
            line += r#","timing":[0,1000,2]"#;
        }
        if i % 5 == 0 {
            line += &format!(
                r#","contract":{{"guarantee":0.95,"rely":20,"floor":0,"caps":{{"{to}":0.5}}}}"#
            );
        }
        line += "}";
        if m.apply(&mutation(&line)).is_ok() {
            names.push(name);
        }
    }
    assert_eq!(repr(&m), "csr", "the script reaches the CSR flip");
    assert!(m.fcm_count() >= 64);
    m
}

/// `m`'s state text equals the golden bytes, and so does the text of
/// its parsed tree.
fn assert_golden(m: &LiveModel, golden: &str, what: &str) {
    let text = m.state_text();
    let want = golden.strip_suffix('\n').expect("golden ends in a newline");
    assert_eq!(
        Json::parse(&text)
            .expect("state text parses")
            .to_string_compact(),
        text,
        "{what}: the parsed tree re-emits the state text"
    );
    if text != want {
        let at = text
            .bytes()
            .zip(want.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(text.len().min(want.len()));
        panic!(
            "{what}: state text differs from the golden at byte {at} ({} vs {} bytes): got …{}…",
            text.len(),
            want.len(),
            &text[at.saturating_sub(40)..(at + 40).min(text.len())]
        );
    }
}

#[test]
fn paper_state_matches_its_golden_bytes() {
    let m = paper_state();
    let state = m.state_json();
    let fcm = |name: &str| {
        key(&state, "fcms")
            .as_array()
            .unwrap()
            .iter()
            .find(|f| key(f, "name").as_str() == Some(name))
            .unwrap_or_else(|| panic!("no fcm {name}"))
            .clone()
    };
    // The script reached every field the state format has.
    assert_eq!(key(&state, "failed"), &Json::array(["hw4"]));
    assert!(key(&fcm("c1"), "pin").as_str().is_some());
    assert!(key(&fcm("p1a"), "rep").as_f64().is_some());
    assert_eq!(key(&fcm("p6"), "sep").as_f64(), Some(7.0));
    assert!(key(&fcm("c2"), "timing").as_array().is_some());
    assert!(
        key(key(&state, "contracts"), "contracts")
            .as_array()
            .unwrap()
            .len()
            == 2
    );
    assert!(key(&fcm("q\"b\\s\u{1}\u{e9}/"), "host").as_str().is_some());
    assert_golden(&m, PAPER_GOLDEN, "paper");
}

#[test]
fn csr_state_matches_its_golden_bytes() {
    let m = csr_state();
    let state = m.state_json();
    assert_eq!(
        key(key(&state, "influence"), "format").as_str(),
        Some("csr")
    );
    assert!(key(&state, "fcms")
        .as_array()
        .unwrap()
        .iter()
        .any(|f| key(f, "res").as_array().is_some_and(|r| !r.is_empty())));
    assert_golden(&m, CSR_GOLDEN, "csr");
}
