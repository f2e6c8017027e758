//! `servegen` — deterministic load generator and script driver for
//! `fcm-serve`.
//!
//! ```text
//! servegen --socket /tmp/fcm.sock --script session.jsonl   # transcript mode
//! servegen --tcp 127.0.0.1:7433 --rate 10000 --duration-ms 2000
//! ```
//!
//! Script mode prints the server hello plus one response line per
//! request — a transcript suitable for golden-file comparison. Load
//! mode drives a seeded open-loop mix and prints a one-line JSON
//! summary with p50/p99 round-trip latencies.
//!
//! Exit codes: 0 = run completed, 2 = usage or I/O error. (Rejected
//! requests are data, not failures — they appear in the transcript or
//! the `errors` count.) With `--timeout`, a run that does not complete
//! in time — a hung or degraded daemon — also exits 2 instead of
//! wedging CI forever.

use std::io::Read;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::Duration;

use fcm_serve::gen::{self, LoadConfig};
use fcm_serve::server::Listen;

const USAGE: &str = "\
servegen: deterministic load generator for fcm-serve

USAGE:
    servegen (--socket <PATH> | --tcp <ADDR>) [--script <FILE|->]
             [--subscribe-transcript <K>] [--subscribe <N>]
             [--rate <N>] [--clients <N>] [--duration-ms <N>]
             [--seed <N>] [--mutation-pct <N>] [--timeout <MS>]

MODES:
    --script <FILE|->     Replay requests from FILE (or stdin with \"-\"),
                          printing the hello and every response verbatim
    --script <FILE> --subscribe-transcript <K>
                          Subscribe first (events from eseq 0), replay the
                          script from a second session, and print the ack
                          plus the first K event lines and the end marker
    (no --script)         Open-loop load: seeded mutation/query mix

OPTIONS:
    --subscribe <N>       Load mode: attach N event subscribers for the
                          run; each verifies exact eseq/dropped gap
                          accounting and the summary reports totals
    --rate <N>            Offered requests/second, all clients (default 1000)
    --clients <N>         Concurrent connections (default 4)
    --duration-ms <N>     Load run length (default 2000)
    --seed <N>            Base RNG seed (default 42)
    --mutation-pct <N>    Percent of requests that mutate (default 20)
    --timeout <MS>        Fail (exit 2) if the whole run has not
                          completed after MS milliseconds
    --help                Show this help

EXIT CODES:
    0  run completed
    2  usage or I/O error, or --timeout expired
";

enum Mode {
    Script(String),
    SubscribeTranscript(String, u64),
    Load(LoadConfig),
}

fn parse_args(argv: &[String]) -> Result<Option<(Listen, Mode, Option<u64>)>, String> {
    let mut target: Option<Listen> = None;
    let mut script: Option<String> = None;
    let mut subscribe_transcript: Option<u64> = None;
    let mut config = LoadConfig::default();
    let mut timeout_ms: Option<u64> = None;

    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        let uint = |flag: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} requires a non-negative integer"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--socket" => target = Some(Listen::Unix(PathBuf::from(value("--socket")?))),
            "--tcp" => target = Some(Listen::Tcp(value("--tcp")?)),
            "--script" => script = Some(value("--script")?),
            "--subscribe-transcript" => {
                let k = uint("--subscribe-transcript", value("--subscribe-transcript")?)?;
                if k == 0 {
                    return Err("--subscribe-transcript requires a positive count".to_string());
                }
                subscribe_transcript = Some(k);
            }
            "--subscribe" => {
                config.subscribers = uint("--subscribe", value("--subscribe")?)? as usize;
            }
            "--rate" => config.rate = uint("--rate", value("--rate")?)?,
            "--clients" => config.clients = uint("--clients", value("--clients")?)? as usize,
            "--duration-ms" => config.duration_ms = uint("--duration-ms", value("--duration-ms")?)?,
            "--seed" => config.seed = uint("--seed", value("--seed")?)?,
            "--mutation-pct" => {
                let pct = uint("--mutation-pct", value("--mutation-pct")?)?;
                if pct > 100 {
                    return Err("--mutation-pct must be in 0..=100".to_string());
                }
                config.mutation_pct = pct as u8;
            }
            "--timeout" => timeout_ms = Some(uint("--timeout", value("--timeout")?)?),
            other => return Err(format!("unknown flag \"{other}\"")),
        }
    }
    let target = target.ok_or("one of --socket or --tcp is required")?;
    let mode = match (script, subscribe_transcript) {
        (Some(path), k) => {
            let text = if path == "-" {
                let mut buf = String::new();
                std::io::stdin()
                    .read_to_string(&mut buf)
                    .map_err(|e| format!("read stdin: {e}"))?;
                buf
            } else {
                std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?
            };
            match k {
                Some(k) => Mode::SubscribeTranscript(text, k),
                None => Mode::Script(text),
            }
        }
        (None, Some(_)) => {
            return Err("--subscribe-transcript requires --script".to_string());
        }
        (None, None) => Mode::Load(config),
    };
    Ok(Some((target, mode, timeout_ms)))
}

fn run(target: &Listen, mode: Mode) -> Result<(), String> {
    match mode {
        Mode::Script(text) => {
            let mut stdout = std::io::stdout().lock();
            gen::run_script(target, &text, &mut stdout)
        }
        Mode::SubscribeTranscript(text, k) => {
            let mut stdout = std::io::stdout().lock();
            gen::run_subscribe_transcript(target, &text, k, &mut stdout)
        }
        Mode::Load(config) => gen::run_load(target, &config).map(|report| {
            println!("{}", gen::report_json(&config, &report).to_string_compact());
        }),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (target, mode, timeout_ms) = match parse_args(&argv) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("servegen: {e}");
            eprintln!("run with --help for usage");
            return ExitCode::from(2);
        }
    };
    let result = match timeout_ms {
        None => run(&target, mode),
        // Watchdog: run on a worker thread; if it has not finished by
        // the deadline the whole process exits 2 (a hung daemon must
        // fail the bench, not wedge CI).
        Some(ms) => {
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let _ = tx.send(run(&target, mode));
            });
            match rx.recv_timeout(Duration::from_millis(ms)) {
                Ok(r) => r,
                Err(_) => {
                    eprintln!("servegen: run did not complete within {ms} ms");
                    std::process::exit(2);
                }
            }
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("servegen: {e}");
            ExitCode::from(2)
        }
    }
}
