//! Exit-code contract for the serve binaries (DESIGN.md): 0 = success /
//! clean shutdown, 1 = findings, 2 = usage or IO error; `--help`
//! always exits 0. Malformed *requests* must never surface as exit
//! codes — they get structured error responses (pinned here via a
//! scripted session).

use std::io::Write;
use std::process::{Command, Output, Stdio};

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
fn help_exits_zero() {
    for bin in [
        env!("CARGO_BIN_EXE_fcm-serve"),
        env!("CARGO_BIN_EXE_servegen"),
    ] {
        let out = run(bin, &["--help"]);
        assert_eq!(code(&out), 0, "{bin} --help must exit 0");
        assert!(!out.stdout.is_empty(), "{bin} --help prints usage");
    }
}

#[test]
fn usage_errors_exit_two() {
    let serve = env!("CARGO_BIN_EXE_fcm-serve");
    let gen = env!("CARGO_BIN_EXE_servegen");
    let cases: [(&str, &[&str]); 7] = [
        (serve, &["--no-such-flag"]),
        (serve, &[]),                               // --model missing
        (serve, &["--model", "paper"]),             // no socket
        (serve, &["--model", "paper", "--resume"]), // resume sans state-dir
        (gen, &["--no-such-flag"]),
        (gen, &[]), // no target
        (gen, &["--tcp", "127.0.0.1:1", "--mutation-pct", "101"]),
    ];
    for (bin, args) in cases {
        let out = run(bin, args);
        assert_eq!(
            code(&out),
            2,
            "{bin} {args:?} must exit 2; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn unknown_model_exits_one_unwritable_state_dir_exits_two() {
    let serve = env!("CARGO_BIN_EXE_fcm-serve");
    // Model-content findings → 1.
    let out = run(serve, &["--model", "no-such-model", "--tcp", "127.0.0.1:0"]);
    assert_eq!(code(&out), 1, "unknown model is a findings-class failure");
    // Environment failure (unwritable state dir) → 2.
    let out = run(
        serve,
        &[
            "--model",
            "paper",
            "--tcp",
            "127.0.0.1:0",
            "--state-dir",
            "/proc/fcm-serve-cannot-write-here",
        ],
    );
    assert_eq!(
        code(&out),
        2,
        "unwritable state dir must exit 2; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn servegen_timeout_on_a_hung_daemon_exits_two() {
    // A listener that accepts but never sends the hello: servegen's
    // script mode blocks reading it. The watchdog must exit 2 instead
    // of wedging.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let hang = std::thread::spawn(move || {
        let _conn = listener.accept();
        std::thread::sleep(std::time::Duration::from_secs(20));
    });

    let mut gen = Command::new(env!("CARGO_BIN_EXE_servegen"))
        .args(["--tcp", &addr, "--script", "-", "--timeout", "300"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("servegen spawns");
    gen.stdin
        .take()
        .unwrap()
        .write_all(b"{\"op\":\"ping\"}\n")
        .unwrap();
    let out = gen.wait_with_output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "hung daemon must trip --timeout; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("did not complete within"),
        "stderr names the timeout"
    );
    drop(hang); // detach; the sleeper dies with the test process
}

#[test]
fn resume_from_a_corrupt_journal_exits_two_with_line_number() {
    let dir = std::env::temp_dir().join(format!("fcm-serve-corrupt-exit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("journal.jsonl"),
        "{\"mutation\":{\"criticality\":2,\"name\":\"p8\",\"op\":\"set_attr\"},\"seq\":1}\n{CORRUPT}\n",
    )
    .unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_fcm-serve"),
        &[
            "--model",
            "paper",
            "--tcp",
            "127.0.0.1:0",
            "--state-dir",
            dir.to_str().unwrap(),
            "--resume",
        ],
    );
    assert_eq!(
        code(&out),
        2,
        "corrupt journal is an environment failure; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("journal line 2"),
        "diagnostic names the corrupt line; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_fault_plan_exits_two_and_degraded_daemon_sigterm_exits_zero() {
    let serve = env!("CARGO_BIN_EXE_fcm-serve");
    // Unparseable --fault-plan is a usage error.
    let out = run(
        serve,
        &[
            "--model",
            "paper",
            "--tcp",
            "127.0.0.1:0",
            "--fault-plan",
            "journal.*:bogus",
        ],
    );
    assert_eq!(code(&out), 2, "bad fault spec must exit 2");

    // A daemon degraded by a 100%-journal-failure plan still drains
    // cleanly on SIGTERM: exit 0, not a crash.
    let dir = std::env::temp_dir().join(format!("fcm-serve-degraded-exit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("s.sock");
    let mut daemon = Command::new(serve)
        .args([
            "--model",
            "paper",
            "--socket",
            sock.to_str().unwrap(),
            "--state-dir",
            dir.to_str().unwrap(),
            "--fault-plan",
            "journal.*:eio",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns");
    for _ in 0..200 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(sock.exists(), "daemon bound its socket");

    // Trip the fault, then confirm the read path still answers.
    let mut gen = Command::new(env!("CARGO_BIN_EXE_servegen"))
        .args(["--socket", sock.to_str().unwrap(), "--script", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("servegen spawns");
    gen.stdin
        .take()
        .unwrap()
        .write_all(
            b"{\"op\":\"set_attr\",\"name\":\"p8\",\"criticality\":2}\n{\"op\":\"stats\",\"id\":9}\n",
        )
        .unwrap();
    let out = gen.wait_with_output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "hello + two responses:\n{text}");
    assert!(
        lines[1].contains("\"degraded\":true") && lines[1].contains("\"ok\":false"),
        "{}",
        lines[1]
    );
    assert!(
        lines[2].contains("\"ok\":true") && lines[2].contains("\"degraded\":true"),
        "{}",
        lines[2]
    );

    #[allow(clippy::cast_possible_wrap)]
    let pid = daemon.id() as i32;
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    unsafe {
        kill(pid, 15);
    }
    let status = daemon.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0), "degraded SIGTERM drain exits 0");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn servegen_connection_failure_exits_two() {
    // Port 1 on localhost: connection refused.
    let out = run(
        env!("CARGO_BIN_EXE_servegen"),
        &["--tcp", "127.0.0.1:1", "--duration-ms", "50"],
    );
    assert_eq!(code(&out), 2);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("connect"),
        "stderr names the failure"
    );
}

/// A malformed request line yields a structured error response — the
/// session (and both processes) stay up and exit 0.
#[test]
fn malformed_requests_are_responses_not_crashes() {
    let dir = std::env::temp_dir().join(format!("fcm-serve-exit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("s.sock");

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_fcm-serve"))
        .args(["--model", "paper", "--socket", sock.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns");
    for _ in 0..200 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(sock.exists(), "daemon bound its socket");

    let mut gen = Command::new(env!("CARGO_BIN_EXE_servegen"))
        .args(["--socket", sock.to_str().unwrap(), "--script", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("servegen spawns");
    gen.stdin
        .take()
        .unwrap()
        .write_all(b"{not json\n{\"op\":\"no_such_op\"}\n{\"op\":\"ping\",\"id\":3}\n")
        .unwrap();
    let out = gen.wait_with_output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "script mode exits 0; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "hello + three responses:\n{text}");
    assert!(
        lines[1].contains("\"ok\":false") && lines[1].contains("parse"),
        "{}",
        lines[1]
    );
    assert!(
        lines[2].contains("\"ok\":false") && lines[2].contains("unknown op"),
        "{}",
        lines[2]
    );
    assert!(
        lines[3].contains("\"ok\":true") && lines[3].contains("\"id\":3"),
        "{}",
        lines[3]
    );

    // SIGTERM → graceful drain → exit 0.
    #[allow(clippy::cast_possible_wrap)]
    let pid = daemon.id() as i32;
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    unsafe {
        kill(pid, 15);
    }
    let status = daemon.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0), "SIGTERM drain exits 0");
    let _ = std::fs::remove_dir_all(&dir);
}
