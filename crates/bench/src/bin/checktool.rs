//! Design-time static analysis over the committed workload models.
//!
//! ```text
//! checktool [--json] [--broken-e14] [--contracts FILE | --emit-contracts] [model...]
//! ```
//!
//! Runs the full `fcm-check` catalog over the named workload models
//! (default: all of them) and prints one report per model, human
//! readable or as a `fcm-check/v1` JSON document with `--json`.
//! `--broken-e14` appends the deliberately damaged avionics model from
//! EXPERIMENTS.md so the failure path is demonstrable.
//!
//! `--contracts FILE` attaches an `fcm-contracts/v1` document to every
//! selected model, arming the compositional rules C017–C022;
//! `--emit-contracts` instead synthesizes the tightest passing contract
//! set for exactly one model and prints it — the round trip
//! `checktool M --emit-contracts > c.json && checktool M --contracts
//! c.json` always exits 0.
//!
//! Exit codes follow the repo-wide contract (DESIGN.md): 0 = every
//! model clean of errors, 1 = at least one error diagnostic, 2 = usage
//! error (unknown flag or model name, unreadable or malformed contract
//! file, `--emit-contracts` over several models).

use std::process::ExitCode;

use fcm_bench::models;
use fcm_check::{contract, run_checks, ContractSet, Severity};
use fcm_substrate::{Json, ToJson};

const USAGE: &str =
    "usage: checktool [--json] [--broken-e14] [--contracts FILE | --emit-contracts] [model...]
  models: paper avionics        (default: all)
  --json             emit one fcm-check/v1 JSON document instead of text
  --broken-e14       also analyse the deliberately broken avionics model
  --contracts FILE   attach an fcm-contracts/v1 file (arms rules C017-C022)
  --emit-contracts   print the tightest passing contract set for one model
exit codes: 0 = clean, 1 = error diagnostics found, 2 = usage error";

fn main() -> ExitCode {
    let mut json = false;
    let mut broken = false;
    let mut emit = false;
    let mut contracts_path: Option<String> = None;
    let mut names: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--json" => json = true,
            "--broken-e14" => broken = true,
            "--emit-contracts" => emit = true,
            "--contracts" => match args.next() {
                Some(path) => contracts_path = Some(path),
                None => {
                    eprintln!("checktool: --contracts needs a file path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            flag if flag.starts_with('-') => {
                eprintln!("checktool: unknown flag {flag}\n{USAGE}");
                return ExitCode::from(2);
            }
            name => names.push(name.to_string()),
        }
    }
    if emit && contracts_path.is_some() {
        eprintln!("checktool: --emit-contracts and --contracts are mutually exclusive\n{USAGE}");
        return ExitCode::from(2);
    }
    if names.is_empty() {
        names = models::MODEL_NAMES.iter().map(|s| s.to_string()).collect();
    }

    let mut selected = Vec::new();
    for name in &names {
        match models::model_by_name(name) {
            Some(m) => selected.push(m),
            None => {
                eprintln!(
                    "checktool: unknown model {name} (expected one of: {})",
                    models::MODEL_NAMES.join(", ")
                );
                return ExitCode::from(2);
            }
        }
    }
    if broken {
        selected.push(models::broken_e14_model());
    }

    if emit {
        if selected.len() != 1 {
            eprintln!("checktool: --emit-contracts takes exactly one model\n{USAGE}");
            return ExitCode::from(2);
        }
        let Some(set) = contract::synthesize_for_model(&selected[0]) else {
            eprintln!("checktool: model has no influence matrix to synthesize contracts from");
            return ExitCode::from(2);
        };
        println!("{}", set.to_json().to_string_pretty());
        return ExitCode::SUCCESS;
    }

    if let Some(path) = &contracts_path {
        let set = match load_contracts(path) {
            Ok(set) => set,
            Err(e) => {
                eprintln!("checktool: {e}");
                return ExitCode::from(2);
            }
        };
        selected = selected
            .into_iter()
            .map(|m| m.with_contracts(set.clone()))
            .collect();
    }

    let reports: Vec<_> = selected.iter().map(run_checks).collect();
    let failed = reports.iter().any(fcm_check::Report::has_errors);

    if json {
        let doc = Json::object()
            .set("schema", "fcm-check/v1")
            .set(
                "errors",
                reports
                    .iter()
                    .map(|r| r.count(Severity::Error))
                    .sum::<usize>() as f64,
            )
            .set(
                "reports",
                Json::Arr(reports.iter().map(ToJson::to_json).collect()),
            );
        println!("{}", doc.to_string_pretty());
    } else {
        for report in &reports {
            println!("{}", report.render());
        }
    }
    ExitCode::from(u8::from(failed))
}

fn load_contracts(path: &str) -> Result<ContractSet, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read contracts file {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("contracts file {path}: {e}"))?;
    ContractSet::from_json(&doc).map_err(|e| format!("contracts file {path}: {e}"))
}
