//! Pins the repo-wide exit-code contract (DESIGN.md): every fallible
//! binary agrees on 0 = success / clean, 1 = findings, 2 = usage or IO
//! error, and `--help` always succeeds.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .env_remove("FCM_OBS_OUT")
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"))
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("binary exited without a signal")
}

#[test]
fn help_exits_zero_everywhere() {
    for bin in [
        env!("CARGO_BIN_EXE_repro"),
        env!("CARGO_BIN_EXE_obsview"),
        env!("CARGO_BIN_EXE_check_bench_schema"),
        env!("CARGO_BIN_EXE_checktool"),
        env!("CARGO_BIN_EXE_srclint"),
    ] {
        let out = run(bin, &["--help"]);
        assert_eq!(code(&out), 0, "{bin} --help must exit 0");
    }
}

#[test]
fn usage_errors_exit_two() {
    let cases: [(&str, &[&str]); 9] = [
        (env!("CARGO_BIN_EXE_repro"), &["--no-such-flag"]),
        (env!("CARGO_BIN_EXE_repro"), &["nonsense-id"]),
        (env!("CARGO_BIN_EXE_obsview"), &[]),
        (env!("CARGO_BIN_EXE_check_bench_schema"), &[]),
        (env!("CARGO_BIN_EXE_checktool"), &["no-such-model"]),
        (env!("CARGO_BIN_EXE_checktool"), &["--contracts"]),
        (
            env!("CARGO_BIN_EXE_checktool"),
            &["--contracts", "/no/such/contracts.json"],
        ),
        (env!("CARGO_BIN_EXE_checktool"), &["--emit-contracts"]),
        (
            env!("CARGO_BIN_EXE_checktool"),
            &["--emit-contracts", "--contracts", "x.json", "paper"],
        ),
    ];
    for (bin, args) in cases {
        let out = run(bin, args);
        assert_eq!(code(&out), 2, "{bin} {args:?} must exit 2");
    }
}

#[test]
fn io_errors_exit_two() {
    let out = run(env!("CARGO_BIN_EXE_obsview"), &["/no/such/log.jsonl"]);
    assert_eq!(code(&out), 2, "obsview on a missing file must exit 2");
}

#[test]
fn checktool_clean_models_exit_zero() {
    let out = run(env!("CARGO_BIN_EXE_checktool"), &[]);
    assert_eq!(code(&out), 0, "committed workloads must be clean of errors");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("paper:"),
        "report summary for the paper model:\n{text}"
    );
    assert!(
        text.contains("avionics:"),
        "report summary for the avionics model:\n{text}"
    );
}

#[test]
fn checktool_findings_exit_one_and_json_carries_schema() {
    let out = run(env!("CARGO_BIN_EXE_checktool"), &["--json", "--broken-e14"]);
    assert_eq!(
        code(&out),
        1,
        "the broken model must produce error findings"
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("\"schema\": \"fcm-check/v1\""),
        "JSON schema tag missing:\n{text}"
    );
    for expected in ["C008", "C012", "C016"] {
        assert!(text.contains(expected), "missing {expected} in:\n{text}");
    }
}

#[test]
fn checktool_contract_round_trip_is_clean_and_violations_exit_one() {
    // Emit → re-check: the synthesized set is the tightest *passing*
    // one, so the round trip is clean (exit 0; C022 may warn).
    let out = run(
        env!("CARGO_BIN_EXE_checktool"),
        &["avionics", "--emit-contracts"],
    );
    assert_eq!(code(&out), 0, "emit must succeed");
    let doc = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(doc.contains("fcm-contracts/v1"), "{doc}");
    let dir = std::env::temp_dir().join(format!("fcm-exitcodes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clean = dir.join("avionics.contracts.json");
    std::fs::write(&clean, &doc).unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_checktool"),
        &["avionics", "--contracts", clean.to_str().unwrap()],
    );
    assert_eq!(
        code(&out),
        0,
        "round trip must be clean:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Tighten one guarantee below its actual row sum: C017 → exit 1.
    let mut set =
        fcm_check::ContractSet::from_json(&fcm_substrate::Json::parse(&doc).unwrap()).unwrap();
    let mut first = set.iter().next().unwrap().clone();
    first.guarantee = 0.0;
    set.insert(first);
    let broken = dir.join("broken.contracts.json");
    std::fs::write(&broken, set.to_json().to_string_pretty()).unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_checktool"),
        &["avionics", "--contracts", broken.to_str().unwrap()],
    );
    assert_eq!(code(&out), 1, "violated guarantee is findings-class");
    assert!(String::from_utf8_lossy(&out.stdout).contains("C017"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_check_gate_passes_on_committed_workloads() {
    let out = run(env!("CARGO_BIN_EXE_repro"), &["--check", "e1", "e14"]);
    assert_eq!(
        code(&out),
        0,
        "pre-flight over committed workloads must pass"
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("paper:"), "{text}");
    assert!(text.contains("avionics:"), "{text}");
}

#[test]
fn srclint_is_clean_on_this_repo() {
    // The test binary runs from the crate directory; point srclint at
    // the workspace root two levels up.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let out = run(env!("CARGO_BIN_EXE_srclint"), &[root]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(code(&out), 0, "srclint findings:\n{text}");
    assert!(text.contains("0 finding(s)"), "{text}");
}

#[test]
fn srclint_flags_a_whole_model_copy_in_the_live_model() {
    let root = std::env::temp_dir().join(format!("srclint-copy-{}", std::process::id()));
    let src = root.join("crates/serve/src");
    std::fs::create_dir_all(&src).unwrap();
    let copy = format!("fn f(&self) {{ let g = self.graph.{}(); }}\n", "clone");
    std::fs::write(src.join("model.rs"), &copy).unwrap();
    let out = run(env!("CARGO_BIN_EXE_srclint"), &[root.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(code(&out), 1, "{text}");
    assert!(text.contains("whole-model copy"), "{text}");
    // The same line elsewhere is no finding.
    std::fs::rename(src.join("model.rs"), src.join("other.rs")).unwrap();
    let out = run(env!("CARGO_BIN_EXE_srclint"), &[root.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stdout));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn srclint_flags_a_live_state_rebuild_in_the_live_model() {
    let root = std::env::temp_dir().join(format!("srclint-rebuild-{}", std::process::id()));
    let src = root.join("crates/serve/src");
    std::fs::create_dir_all(&src).unwrap();
    let scan = |text: &str| {
        std::fs::write(src.join("model.rs"), text).unwrap();
        run(env!("CARGO_BIN_EXE_srclint"), &[root.to_str().unwrap()])
    };
    for call in ["fcm_columns", "build_placement"] {
        let out = scan(&format!(
            "fn f(&mut self) {{ let x = {call}(&self.graph); }}\n"
        ));
        let text = String::from_utf8_lossy(&out.stdout);
        assert_eq!(code(&out), 1, "{text}");
        assert!(text.contains("live-state rebuild"), "{text}");
        // The entry paths build from locals: no finding.
        let out = scan(&format!("fn g() {{ let x = {call}(&graph); }}\n"));
        assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stdout));
    }
    let _ = std::fs::remove_dir_all(&root);
}
