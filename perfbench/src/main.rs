//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <serve_mix|fleet_evolve|design_sweep|all> --seed N
//!           [--seconds S] [--trace 0|1]
//! perfbench --selftest
//! ```
//!
//! Every workload's inputs are a pure function of `--seed`. With
//! `--trace 0` the run prints the end-to-end metrics; with `--trace 1`
//! it prints the per-layer metrics of a traced run and writes its spans
//! to `.perfbench/trace-<workload>.jsonl` (render with `obsview`). Human
//! lines start with `#`; the last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is 0 when every
//! correctness check passed, 1 when one failed, 2 on a usage or run
//! error (no result line). See `perfbench/README.md`.

mod layers;
mod net;
mod reqs;
mod selftest;
mod serve;
mod stats;
mod sweep;

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fcm_serve::server::{start, Listen, ServerConfig};
use fcm_substrate::Json;

use crate::stats::Outcome;

/// End-to-end metrics every workload reports (see the README for what
/// each means on each workload). The p99 latencies are printed too but
/// are not part of the result: on a shared 2-vCPU VM their run-to-run
/// spread is far wider than any regression bound.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "mutation_p50_ms",
    "query_p50_ms",
    "capacity_rps",
    "work_s",
    "recover_s",
    "peak_rss_mb",
];

/// Per-layer metrics every traced run reports.
pub const PER_LAYER: [&str; 57] = [
    "model.add_fcm_us.p50",
    "model.add_fcm_us.p99",
    "model.remove_fcm_us.p50",
    "model.set_attr_us.p50",
    "model.add_fcm.ns_per_fcm",
    "model.query_point_us.p50",
    "model.state_json_ms",
    "model.from_state_ms",
    "alloc.sw_clone_us",
    "check.preflight_us",
    "check.certify_full_us",
    "check.certify_rows_us",
    "store.append_us.p50",
    "store.append_us.p99",
    "store.journal_bytes_per_mutation",
    "store.snapshot_ms",
    "store.snapshot_bytes",
    "store.read_recovered_ms",
    "substrate.json_parse_ms",
    "server.apply_us.p50",
    "server.apply_us.p99",
    "server.query_us.p50",
    "server.snapshot_ms.p50",
    "server.snapshot_ms.max",
    "server.snapshots",
    "server.cpu_s",
    "server.threads.max",
    "server.residual_us",
    "proto.parse_us.p50",
    "proto.render_us.p50",
    "check.catalog_us.p50",
    "alloc.h1_ms",
    "alloc.h1_pair_all_ms",
    "alloc.h2_ms",
    "alloc.h2_st_ms",
    "alloc.h3_ms",
    "alloc.h3_top_ms.p50",
    "alloc.merges",
    "alloc.infeasible",
    "core.separation_ms",
    "eval.cell_ms.p50",
    "eval.cell_ms.max",
    "eval.idle_frac",
    "substrate.pool.steals",
    "gen.late_p99_ms",
    "gen.late_max_ms",
    "gen.cpu_s",
    "trace.overhead_frac",
    "trace.closure_frac",
    "trace.self.request_ms",
    "trace.self.proto_ms",
    "trace.self.model_ms",
    "trace.self.store_ms",
    "trace.self.eval_ms",
    "trace.self.check_ms",
    "trace.self.core_ms",
    "trace.self.alloc_ms",
];

pub const WORKLOADS: [&str; 3] = ["serve_mix", "fleet_evolve", "design_sweep"];

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small sizes, for the self-test and the reference probes; the
    /// command line always runs full size.
    pub quick: bool,
    /// A reference probe inside another workload's traced run: measure
    /// only this workload's own layers.
    pub reference: bool,
}

/// Runs one workload; a traced run also measures, on a small reference
/// probe, the layers this workload does not drive, so every per-layer
/// metric is printed.
pub fn run_workload(name: &str, s: &Settings, work: &Path) -> Result<Outcome, String> {
    let mut out = match name {
        "serve_mix" => serve::serve_mix(s, work)?,
        "fleet_evolve" => serve::fleet_evolve(s, work)?,
        "design_sweep" => sweep::design_sweep(s)?,
        other => return Err(format!("unknown workload \"{other}\"")),
    };
    if s.trace && !s.reference {
        let probe = Settings {
            seconds: 1.0,
            quick: true,
            reference: true,
            ..*s
        };
        let (other, origin) = if name == "design_sweep" {
            (
                serve::serve_mix(&probe, &work.join("probe"))?,
                "serve_mix reference probe",
            )
        } else {
            (
                sweep::reference_probe(&probe)?,
                "design_sweep reference probe",
            )
        };
        out.fill_from(other, origin);
    }
    Ok(out)
}

/// The human lines and the result object for one workload.
fn report(name: &str, out: &Outcome, names: &[&str]) -> Json {
    for (k, m) in &out.metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!(
            "# {name} {k} = {} {} n={}{note}",
            m.value, m.unit, m.samples
        );
    }
    for c in &out.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        println!("# {name} check {} {verdict}: {}", c.name, c.detail);
    }
    for r in &out.invalid {
        println!("# {name} invalid: {r}");
    }
    let frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "# {name} fail_frac = {frac} ratio (failed {} of {} attempted)",
        out.failed, out.attempted
    );
    let mut metrics = Json::object();
    for &k in names {
        let (value, unit) = out
            .metrics
            .get(k)
            .map_or((f64::NAN, "missing"), |m| (m.value, m.unit));
        metrics = metrics.set(k, Json::object().set("unit", unit).set("value", value));
    }
    metrics
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    Json::object()
        .set("attempted", attempted)
        .set("correct", correct)
        .set("failed", failed)
        .set("metrics", metrics)
        .to_string_compact()
}

/// Where traced runs leave their span logs, inside the directory the
/// benchmark runs from.
pub fn trace_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// Scratch state of a run; removed when the run ends.
pub fn work_dir() -> PathBuf {
    trace_dir().join("run")
}

fn bench(argv: &[String]) -> Result<bool, String> {
    let mut workload = "all".to_string();
    let mut seed: Option<u64> = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--workload" => workload = value("--workload")?,
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|_| "--seed must be an integer")?,
                )
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds must be a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown flag \"{other}\"")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else if WORKLOADS.contains(&workload.as_str()) {
        vec![workload.as_str()]
    } else {
        return Err(format!(
            "unknown workload \"{workload}\" (expected one of {WORKLOADS:?} or all)"
        ));
    };
    let settings = Settings {
        seed,
        seconds,
        trace,
        quick: false,
        reference: false,
    };
    let metric_names: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    let work = work_dir();
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let mut all_ok = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut last = Json::object();
    let mut combined = Json::object();
    for name in &names {
        let out = run_workload(name, &settings, &work.join(name));
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                let _ = std::fs::remove_dir_all(&work);
                return Err(format!("{name}: {e}"));
            }
        };
        let metrics = report(name, &out, metric_names);
        if names.len() > 1 {
            println!(
                "# {name} result {}",
                result_line(out.correct(), out.attempted, out.failed, metrics.clone())
            );
            if let Json::Obj(map) = &metrics {
                for (k, v) in map {
                    combined = combined.set(&format!("{name}.{k}"), v.clone());
                }
            }
        }
        all_ok &= out.correct();
        attempted += out.attempted;
        failed += out.failed;
        last = metrics;
    }
    let _ = std::fs::remove_dir_all(&work);
    let metrics = if names.len() > 1 { combined } else { last };
    println!("{}", result_line(all_ok, attempted.max(1), failed, metrics));
    Ok(all_ok)
}

/// The daemon under test: `fcm_serve::server::start` with production
/// defaults (journal flushed per mutation, snapshot every 64 mutations,
/// flight recorder on), draining when stdin closes.
fn daemon(argv: &[String]) -> Result<(), String> {
    let mut dir: Option<PathBuf> = None;
    let mut resume = false;
    let mut obs = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--state-dir" => dir = it.next().map(PathBuf::from),
            "--resume" => resume = true,
            "--obs" => obs = true,
            other => return Err(format!("unknown daemon flag \"{other}\"")),
        }
    }
    let dir = dir.ok_or("--state-dir is required")?;
    if obs {
        fcm_obs::init(fcm_obs::ObsConfig::default());
        fcm_obs::set_enabled(true);
    }
    fcm_obs::recorder::set_dump_path(Some(dir.join("flight.jsonl")));
    fcm_obs::recorder::set_enabled(true);
    let handle = start(ServerConfig {
        state_dir: Some(dir),
        resume,
        snapshot_every: 64,
        ..ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), "paper")
    })?;
    println!("{}", handle.addr());
    std::io::Write::flush(&mut std::io::stdout()).map_err(|e| e.to_string())?;
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    handle.stop()?;
    let _ = fcm_obs::recorder::auto_dump("stdin closed");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("daemon") => match daemon(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench daemon: {e}");
                ExitCode::from(2)
            }
        },
        Some("--selftest") => match selftest::run() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench selftest: {e}");
                ExitCode::from(1)
            }
        },
        _ => match bench(&argv) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        },
    }
}
