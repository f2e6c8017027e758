//! Pins the analyzer's tool gates byte for byte: `checktool` (text and
//! `--json` on the broken E14 model) and `repro --check` must print
//! exactly the committed goldens in `tests/golden/` and exit with the
//! pinned code. A change to a finding, its order or its wording shows
//! up here as a diff.

use std::process::Command;

fn assert_golden(bin: &str, args: &[&str], golden: &str, want_code: i32) {
    let out = Command::new(bin)
        .args(args)
        .env_remove("FCM_OBS_OUT")
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"));
    assert_eq!(
        out.status.code(),
        Some(want_code),
        "{bin} {args:?} exit code"
    );
    let text = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(
        text == golden,
        "{bin} {args:?} stdout differs from its golden:\n{text}"
    );
}

#[test]
fn checktool_json_on_the_broken_e14_model_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_checktool"),
        &["--json", "--broken-e14"],
        include_str!("golden/checktool_json_broken_e14.json"),
        1,
    );
}

#[test]
fn checktool_on_the_committed_models_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_checktool"),
        &[],
        include_str!("golden/checktool.txt"),
        0,
    );
}

#[test]
fn repro_check_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_repro"),
        &["--check"],
        include_str!("golden/repro_check.txt"),
        0,
    );
}
