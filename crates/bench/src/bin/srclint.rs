//! Source-invariant lint gate: a plain-text scan keeping the repo
//! hermetic.
//!
//! ```text
//! srclint [root]
//! ```
//!
//! Walks every `.rs` file under `root/crates` (default `.`) and
//! enforces the invariants the substrate exists to guarantee:
//!
//! * no `std::time` wall-clock reads outside `crates/substrate` (plus
//!   `crates/serve`, whose snapshot metadata timestamp is a declared
//!   I/O edge) — all timing flows through the substrate so runs stay
//!   reproducible;
//! * no `rand` / `serde` imports anywhere (the substrate's PRNG and
//!   JSON emitter are the only allowed sources of randomness and
//!   serialisation);
//! * no monotonic-clock reads (`Instant::now`) outside the substrate,
//!   the observability layer, the bench harness, and the serve daemon;
//! * no socket use (TCP or Unix-domain, via the std networking
//!   modules) outside `crates/serve` — the online service is the
//!   single process boundary, everything else stays a pure library;
//! * no fault-injection shims (`FaultInjector` / `FaultPlan`) outside
//!   the substrate (which defines them), the serve daemon (whose IO
//!   sites they gate), and the bench harness (which measures recovery)
//!   — analysis crates must never grow hidden failure hooks;
//! * no square dense allocation (`Matrix::zeros` with two identical
//!   non-numeric arguments, i.e. an n×n buffer) inside `crates/core` or
//!   `crates/serve` — their query paths go through `InfluenceMatrix`,
//!   which picks the representation; a literal n×n allocation would
//!   silently defeat the sparse engine at fleet scale;
//! * no exact walk-series recompute (`walk_series` / `top_k_from`) on
//!   the compositional certification path (`crates/check/src/contract.rs`
//!   and `certify.rs`) — the C017+ rules and the incremental certifier
//!   must stay O(degree) contract arithmetic; reaching for the O(n²)
//!   series there would silently defeat the cache;
//! * no whole-model copy (`self.graph.clone()`, `self.contracts.clone()`,
//!   `self.certifier.clone()`) in the live model
//!   (`crates/serve/src/model.rs`) — a mutation applies in place and
//!   undoes what it touched; cloning the world per mutation would
//!   silently make every mutation O(n) again;
//! * no rebuild of the name index or the placement from the live
//!   model's own state (a line calling `fcm_columns(` or
//!   `build_placement(` that reads `self.`) in the same file — only the
//!   entry paths build them, from locals; a mutation edits them in place;
//! * diagnostic codes declared in `crates/check/src/rules.rs` are
//!   unique.
//!
//! Exit codes follow the repo-wide contract (DESIGN.md): 0 = clean,
//! 1 = findings, 2 = usage or IO error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: srclint [root]
exit codes: 0 = clean, 1 = findings, 2 = usage or IO error";

/// Crate-directory names (under `crates/`) allowed to read clocks.
const INSTANT_ALLOWED: [&str; 4] = ["substrate", "obs", "bench", "serve"];

/// Crate-directory names allowed to read the wall clock (the substrate
/// owns time; serve's snapshot metadata timestamp is a declared I/O
/// edge that never feeds an analysis).
const WALL_CLOCK_ALLOWED: [&str; 2] = ["substrate", "serve"];

/// The only crate allowed to open sockets.
const NET_ALLOWED: [&str; 1] = ["serve"];

/// Crates allowed to reference the deterministic fault-injection shim.
const FAULT_ALLOWED: [&str; 3] = ["substrate", "serve", "bench"];

/// Crates whose analysis paths must never allocate a square dense
/// matrix directly — representation choice belongs to `InfluenceMatrix`.
const DENSE_ALLOC_BANNED: [&str; 2] = ["core", "serve"];

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    Ok(())
}

/// The crate-directory name a file belongs to (`crates/<name>/...`).
fn crate_of(rel: &Path) -> Option<&str> {
    let mut parts = rel
        .components()
        .map(|c| c.as_os_str().to_str().unwrap_or(""));
    if parts.next() == Some("crates") {
        parts.next()
    } else {
        None
    }
}

fn main() -> ExitCode {
    let mut root = ".".to_string();
    let mut seen_root = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("srclint: unknown flag {flag}\n{USAGE}");
                return ExitCode::from(2);
            }
            r if !seen_root => {
                root = r.to_string();
                seen_root = true;
            }
            extra => {
                eprintln!("srclint: unexpected argument {extra}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let crates_dir = Path::new(&root).join("crates");
    let mut files = Vec::new();
    if let Err(e) = rs_files(&crates_dir, &mut files) {
        eprintln!("srclint: cannot scan {}: {e}", crates_dir.display());
        return ExitCode::from(2);
    }

    // Needles are assembled at runtime so this scanner never matches
    // its own source text.
    let wall_clock = format!("System{}", "Time");
    let monotonic = format!("Instant::{}", "now");
    let use_rand = format!("use {}", "rand");
    let extern_rand = format!("extern crate {}", "rand");
    let use_serde = format!("use {}", "serde");
    let extern_serde = format!("extern crate {}", "serde");
    let code_decl = format!("code: {}(", "Code");
    let tcp_net = format!("std::{}::", "net");
    let unix_net = format!("os::unix::{}", "net");
    let fault_injector = format!("Fault{}", "Injector");
    let fault_plan = format!("Fault{}", "Plan");
    let dense_zeros = format!("Matrix::{}", "zeros(");
    let series_call = format!("walk_{}", "series");
    let topk_call = format!("top_k_{}", "from");
    let model_copies =
        ["graph", "contracts", "certifier"].map(|f| format!("self.{f}.{}()", "clone"));
    let model_rebuilds = ["fcm_columns", "build_placement"].map(|f| format!("{f}{}", "("));

    let mut findings = Vec::new();
    let mut codes: Vec<(u16, String)> = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(&root).unwrap_or(path);
        let krate = crate_of(rel).unwrap_or("");
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("srclint: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let in_rules = rel.ends_with("check/src/rules.rs");
        let in_cert_path =
            rel.ends_with("check/src/contract.rs") || rel.ends_with("check/src/certify.rs");
        let in_live_model = rel.ends_with("serve/src/model.rs");
        for (i, line) in text.lines().enumerate() {
            let loc = format!("{}:{}", rel.display(), i + 1);
            let trimmed = line.trim_start();
            if !WALL_CLOCK_ALLOWED.contains(&krate) && line.contains(&wall_clock) {
                findings.push(format!(
                    "{loc}: wall-clock ({wall_clock}) outside substrate/serve"
                ));
            }
            if krate != "substrate" {
                if trimmed.starts_with(&use_rand) || trimmed.starts_with(&extern_rand) {
                    findings.push(format!(
                        "{loc}: external randomness import outside crates/substrate"
                    ));
                }
                if trimmed.starts_with(&use_serde) || trimmed.starts_with(&extern_serde) {
                    findings.push(format!(
                        "{loc}: external serialisation import outside crates/substrate"
                    ));
                }
            }
            if line.contains(&monotonic) && !INSTANT_ALLOWED.contains(&krate) {
                findings.push(format!(
                    "{loc}: monotonic clock read outside substrate/obs/bench/serve"
                ));
            }
            if (line.contains(&tcp_net) || line.contains(&unix_net))
                && !NET_ALLOWED.contains(&krate)
            {
                findings.push(format!("{loc}: socket use outside crates/serve"));
            }
            if (line.contains(&fault_injector) || line.contains(&fault_plan))
                && !FAULT_ALLOWED.contains(&krate)
            {
                findings.push(format!(
                    "{loc}: fault-injection shim outside substrate/serve/bench"
                ));
            }
            if DENSE_ALLOC_BANNED.contains(&krate) {
                if let Some(pos) = line.find(&dense_zeros) {
                    let rest = &line[pos + dense_zeros.len()..];
                    if let Some(end) = rest.find(')') {
                        let args: Vec<&str> = rest[..end].split(',').map(str::trim).collect();
                        let square_symbolic = args.len() == 2
                            && args[0] == args[1]
                            && args[0].chars().next().is_some_and(|c| !c.is_ascii_digit());
                        if square_symbolic {
                            findings.push(format!(
                                "{loc}: square dense allocation ({dense_zeros}{a}, {a})) in crates/{krate} — route through InfluenceMatrix",
                                a = args[0]
                            ));
                        }
                    }
                }
            }
            if in_cert_path && (line.contains(&series_call) || line.contains(&topk_call)) {
                findings.push(format!(
                    "{loc}: exact series recompute on the certification path — C017+ must stay O(degree) contract arithmetic"
                ));
            }
            if in_live_model {
                if let Some(copy) = model_copies.iter().find(|c| line.contains(c.as_str())) {
                    findings.push(format!(
                        "{loc}: whole-model copy ({copy}) in the live model — apply in place and undo on rejection"
                    ));
                }
                if let Some(call) = model_rebuilds.iter().find(|c| line.contains(c.as_str())) {
                    if line.contains("self.") {
                        findings.push(format!(
                            "{loc}: live-state rebuild ({call}...self.) in the live model — edit the index and placement in place"
                        ));
                    }
                }
            }
            if in_rules {
                if let Some(rest) = trimmed.strip_prefix(&code_decl) {
                    if let Ok(n) = rest
                        .trim_end_matches("),")
                        .trim_end_matches(')')
                        .parse::<u16>()
                    {
                        if let Some((_, first)) = codes.iter().find(|(c, _)| *c == n) {
                            findings.push(format!("{loc}: duplicate diagnostic code C{n:03} (first declared at {first})"));
                        } else {
                            codes.push((n, loc.clone()));
                        }
                    }
                }
            }
        }
    }

    for f in &findings {
        println!("srclint: {f}");
    }
    println!(
        "srclint: scanned {} files, {} finding(s), {} diagnostic codes",
        files.len(),
        findings.len(),
        codes.len()
    );
    ExitCode::from(u8::from(!findings.is_empty()))
}
