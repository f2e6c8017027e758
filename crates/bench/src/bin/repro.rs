//! Regenerates every table and figure of the paper plus the extension
//! experiments E1–E14.
//!
//! ```text
//! cargo run --release -p fcm-bench --bin repro            # everything
//! cargo run --release -p fcm-bench --bin repro -- t1 f6   # a selection
//! cargo run --release -p fcm-bench --bin repro -- --quick # reduced scale
//! cargo run --release -p fcm-bench --bin repro -- f3 --dot # Graphviz output
//! cargo run --release -p fcm-bench --bin repro -- --seed 7 # reseed streams
//! cargo run --release -p fcm-bench --bin repro -- e14 --obs-out trace.jsonl
//! cargo run --release -p fcm-bench --bin repro -- --check e5 e14
//! ```
//!
//! Every run is deterministic: the default base seed is fixed, so two
//! invocations with the same arguments produce byte-identical output.
//! After each experiment a wall-time line is printed with a `# `
//! prefix — it carries a wall-clock measurement, so byte-comparisons
//! (`scripts/verify.sh`) strip it with `grep -v '^# '`. The per-stage
//! breakdown (heuristic timings, merge and sweep-cell counts) is in the
//! `--obs-out` event log.
//!
//! `--obs-out <path>` (or the `FCM_OBS_OUT` environment variable)
//! enables the `fcm-obs` observability layer and writes its JSONL
//! event log to `path` at exit; render it with the `obsview` binary.
//! The experiment tables stay byte-identical with observability on or
//! off — only the `# ` lines and the event log differ.

use std::time::Instant;

use fcm_bench::experiments::{self, Scale};

/// One line per flag — the single source of truth for `--help` and the
/// unknown-flag error text.
const FLAG_HELP: [(&str, &str); 7] = [
    ("--quick", "reduced experiment scale (fast smoke run)"),
    ("--dot", "Graphviz output for f3/f4"),
    ("--list", "list experiment ids and exit"),
    (
        "--check",
        "static-analyse the selected experiments' workload models and exit",
    ),
    ("--seed <n>", "override the base seed (default 0)"),
    (
        "--obs-out <path>",
        "write the fcm-obs JSONL event log to <path> (env: FCM_OBS_OUT)",
    ),
    ("--help", "this text"),
];

/// Every valid experiment id with its one-line description — the single
/// source of truth for `--list` and for unknown-id rejection.
const EXPERIMENTS: [(&str, &str); 22] = [
    ("t1", "Table 1: example process attributes"),
    ("f3", "Fig. 3: initial SW influence graph (--dot available)"),
    ("f4", "Fig. 4: replica-expanded graph (--dot available)"),
    ("f5", "Fig. 5: Eq. 4 cluster influence"),
    ("f6", "Fig. 6: H1 reduction to the 6-node platform"),
    ("f7", "Fig. 7: criticality-driven integration"),
    ("f8", "Fig. 8: timing-ordered refinement"),
    ("e1", "heuristic ablation"),
    ("e2", "separation-series convergence"),
    ("e3", "measured vs analytic influence"),
    ("e4", "mission reliability of competing strategies"),
    ("e5", "schedulability vs utilisation"),
    ("e6", "R5 retest set vs naive recertification"),
    ("e7", "isolation-technique ablation"),
    ("e8", "integration-depth tradeoff"),
    ("e9", "HW platform selection"),
    ("e10", "heuristic x interaction structure"),
    ("e11", "materialised-system validation"),
    ("e12", "measured workflow end to end"),
    ("e13", "TMR voting in the materialised system"),
    ("e14", "node-failure recovery policy sweep"),
    ("e15", "sparse large-n analysis engine"),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return;
    }
    reject_unknown_flags(&args);
    let quick = args.iter().any(|a| a == "--quick");
    let dot = args.iter().any(|a| a == "--dot");
    let seed = parse_seed(&args);
    let scale = if quick { Scale::QUICK } else { Scale::FULL }.with_seed(seed);
    if args.iter().any(|a| a == "--list") {
        for (id, what) in EXPERIMENTS {
            println!("{id:<4} {what}");
        }
        return;
    }
    let obs_out = parse_obs_out(&args);
    if let Some(path) = &obs_out {
        // Fail fast on an unwritable path, before hours of experiments.
        if let Err(e) = std::fs::File::create(path) {
            eprintln!("cannot write obs log {path}: {e}");
            std::process::exit(2);
        }
        fcm_obs::init(fcm_obs::ObsConfig::default());
    }
    let mut selected: Vec<&str> = Vec::new();
    let mut skip_value = false;
    for a in &args {
        if skip_value {
            skip_value = false;
            continue;
        }
        if a == "--seed" || a == "--obs-out" {
            skip_value = true;
        } else if !a.starts_with("--") {
            selected.push(a.as_str());
        }
    }
    // Reject unknown ids up front: a typo must not silently run nothing.
    let unknown: Vec<&str> = selected
        .iter()
        .copied()
        .filter(|s| !EXPERIMENTS.iter().any(|(id, _)| s.eq_ignore_ascii_case(id)))
        .collect();
    if !unknown.is_empty() {
        eprintln!("unknown experiment id(s): {}", unknown.join(", "));
        eprintln!(
            "valid ids: {}",
            EXPERIMENTS
                .iter()
                .map(|(id, _)| *id)
                .collect::<Vec<_>>()
                .join(" ")
        );
        std::process::exit(2);
    }
    if args.iter().any(|a| a == "--check") {
        run_check_mode(&selected);
    }
    let want =
        |id: &str| selected.is_empty() || selected.iter().any(|s| s.eq_ignore_ascii_case(id));

    if want("t1") {
        emit("T1  Table 1: example process attributes", || {
            experiments::t1().to_string()
        });
    }
    if want("f3") {
        emit("F3  Fig. 3: initial SW influence graph", || {
            if dot {
                experiments::f3_dot()
            } else {
                experiments::f3().to_string()
            }
        });
    }
    if want("f4") {
        emit("F4  Fig. 4: replica-expanded graph", || {
            if dot {
                experiments::f4_dot()
            } else {
                experiments::f4().to_string()
            }
        });
    }
    if want("f5") {
        emit("F5  Fig. 5: Eq. 4 cluster influence", || {
            experiments::f5().to_string()
        });
    }
    if want("f6") {
        emit("F6  Fig. 6: H1 reduction to the 6-node platform", || {
            experiments::f6().to_string()
        });
    }
    if want("f7") {
        emit("F7  Fig. 7: criticality-driven integration", || {
            experiments::f7().to_string()
        });
    }
    if want("f8") {
        emit("F8  Fig. 8: timing-ordered refinement", || {
            experiments::f8().to_string()
        });
    }
    if want("e1") {
        emit("E1  heuristic ablation (residual cross-node influence)", || {
            experiments::e1(scale).to_string()
        });
    }
    if want("e2") {
        emit("E2  separation-series convergence (Eq. 3 truncation)", || {
            experiments::e2().to_string()
        });
    }
    if want("e3") {
        emit("E3  measured vs analytic influence (Eq. 1/2)", || {
            experiments::e3(scale).to_string()
        });
    }
    if want("e4") {
        emit("E4  mission reliability of competing strategies", || {
            experiments::e4(scale).to_string()
        });
    }
    if want("e5") {
        emit("E5  schedulability vs utilisation", || {
            experiments::e5(scale).to_string()
        });
    }
    if want("e6") {
        emit("E6  R5 retest set vs naive recertification", || {
            experiments::e6().to_string()
        });
    }
    if want("e7") {
        emit("E7  isolation-technique ablation", || {
            experiments::e7(scale).to_string()
        });
    }
    if want("e8") {
        emit(
            "E8  integration-depth tradeoff (the paper's deferred study)",
            || experiments::e8(scale).to_string(),
        );
    }
    if want("e9") {
        emit("E9  HW platform selection under a reliability target", || {
            experiments::e9(scale).to_string()
        });
    }
    if want("e10") {
        emit("E10 heuristic × interaction structure", || {
            experiments::e10().to_string()
        });
    }
    if want("e11") {
        emit(
            "E11 materialised-system validation (simulator in the loop)",
            || experiments::e11(scale).to_string(),
        );
    }
    if want("e12") {
        emit(
            "E12 measured workflow: campaign -> SW graph -> integration",
            || experiments::e12(scale),
        );
    }
    if want("e13") {
        emit("E13 TMR voting in the materialised system", || {
            experiments::e13(scale).to_string()
        });
    }
    if want("e14") {
        emit("E14 node-failure recovery policy sweep", || {
            experiments::e14(scale).to_string()
        });
    }
    if want("e15") {
        emit("E15 sparse large-n analysis engine (oracle-checked CSR sweep)", || {
            experiments::e15(scale).to_string()
        });
    }

    if let Some(path) = &obs_out {
        if let Err(e) = fcm_obs::export::export_to(std::path::Path::new(path)) {
            eprintln!("cannot write obs log {path}: {e}");
            std::process::exit(2);
        }
        println!("# obs log written to {path}");
    }
}

/// `--check`: static-analyse the workload models behind the selected
/// experiment ids (default: all) and exit without running anything.
/// This is the pre-flight gate of `scripts/verify.sh` — a model with
/// error diagnostics must never reach the experiment drivers, so a
/// failed check exits 2 (the run is rejected before it starts).
fn run_check_mode(selected: &[&str]) -> ! {
    fcm_check::gates::install();
    let ids: Vec<String> = if selected.is_empty() {
        EXPERIMENTS.iter().map(|(id, _)| id.to_string()).collect()
    } else {
        selected.iter().map(|s| s.to_ascii_lowercase()).collect()
    };
    let wanted: Vec<&str> = fcm_bench::models::MODEL_NAMES
        .iter()
        .copied()
        .filter(|name| {
            ids.iter()
                .any(|id| fcm_bench::models::models_for_experiment(id).contains(name))
        })
        .collect();
    let mut failed = false;
    for name in wanted {
        let model = fcm_bench::models::model_by_name(name).expect("MODEL_NAMES entries resolve");
        let report = fcm_check::run_checks(&model);
        println!("{}", report.render());
        failed |= report.has_errors();
    }
    if failed {
        eprintln!("pre-flight model check failed: experiments were not run");
        std::process::exit(2);
    }
    std::process::exit(0);
}

/// Prints the usage text (every flag, experiment selection, env vars).
fn print_help() {
    println!("repro — regenerate every table and figure of the paper plus E1-E15");
    println!();
    println!("usage: repro [FLAGS] [EXPERIMENT_ID ...]");
    println!();
    println!("flags:");
    for (flag, what) in FLAG_HELP {
        println!("  {flag:<18} {what}");
    }
    println!();
    println!("environment:");
    println!("  FCM_OBS_OUT        like --obs-out (the flag wins when both are set)");
    println!("  FCM_SWEEP_THREADS  sweep thread count (1 forces sequential)");
    println!();
    println!("experiment ids (default: all, see --list):");
    println!(
        "  {}",
        EXPERIMENTS
            .iter()
            .map(|(id, _)| *id)
            .collect::<Vec<_>>()
            .join(" ")
    );
}

/// Rejects any `--flag` that is not in [`FLAG_HELP`], exit code 2 — a
/// typo like `--obsout` must not silently run without observability.
fn reject_unknown_flags(args: &[String]) {
    let known = ["--quick", "--dot", "--list", "--check", "--seed", "--obs-out"];
    let mut skip_value = false;
    for a in args {
        if skip_value {
            skip_value = false;
            continue;
        }
        if !a.starts_with("--") {
            continue;
        }
        let name = a.split('=').next().unwrap_or(a);
        if !known.contains(&name) {
            eprintln!("unknown flag: {a}");
            eprintln!("valid flags:");
            for (flag, what) in FLAG_HELP {
                eprintln!("  {flag:<18} {what}");
            }
            std::process::exit(2);
        }
        if (name == "--seed" || name == "--obs-out") && !a.contains('=') {
            skip_value = true;
        }
    }
}

/// Resolves the obs event-log path: `--obs-out <path>` / `--obs-out=`
/// beats the `FCM_OBS_OUT` environment variable; `None` disables
/// observability entirely.
fn parse_obs_out(args: &[String]) -> Option<String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--obs-out" {
            match it.next() {
                Some(v) => return Some(v.clone()),
                None => {
                    eprintln!("--obs-out requires a value");
                    std::process::exit(2);
                }
            }
        }
        if let Some(v) = a.strip_prefix("--obs-out=") {
            return Some(v.to_string());
        }
    }
    std::env::var(fcm_obs::OBS_OUT_ENV)
        .ok()
        .filter(|v| !v.is_empty())
}

/// Runs one experiment: section header, the experiment's own output,
/// then the `# `-prefixed wall time. The `# ` lines are the only
/// non-deterministic output — byte comparisons must strip them.
///
/// When observability is enabled the whole experiment runs under a
/// root span named by its id (the title's first word), so `obsview`
/// renders one tree per experiment.
fn emit(title: &'static str, body: impl FnOnce() -> String) {
    println!("\n=== {title} ===");
    let root = title.split_whitespace().next().unwrap_or("repro");
    let _root_span = fcm_obs::span(root);
    let t0 = Instant::now();
    let out = body();
    let wall = t0.elapsed();
    print!("{out}");
    println!("# wall {:.3}s", wall.as_secs_f64());
}

/// Parses `--seed <n>` (also `--seed=<n>`); defaults to 0, the fixed
/// seed every published table is generated with.
fn parse_seed(args: &[String]) -> u64 {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--seed" {
            let v = it.next().unwrap_or_else(|| {
                eprintln!("--seed requires a value");
                std::process::exit(2);
            });
            return parse_or_die(v);
        }
        if let Some(v) = a.strip_prefix("--seed=") {
            return parse_or_die(v);
        }
    }
    0
}

fn parse_or_die(v: &str) -> u64 {
    v.parse().unwrap_or_else(|_| {
        eprintln!("invalid --seed value: {v}");
        std::process::exit(2);
    })
}
