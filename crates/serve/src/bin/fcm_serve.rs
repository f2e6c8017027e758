//! `fcm-serve` — the online integration daemon.
//!
//! ```text
//! fcm-serve --model paper --socket /tmp/fcm.sock [--state-dir DIR]
//!           [--resume] [--snapshot-every N] [--obs-out PATH]
//!           [--fault-plan SPEC] [--rearm-base-ms N]
//!           [--flight-out PATH] [--no-flight] [--heartbeat-every N]
//!           [--sub-queue N] [--slo-window N]
//! fcm-serve --model avionics --tcp 127.0.0.1:7433
//! ```
//!
//! The flight recorder is on by default (a bounded in-memory ring; its
//! only output is an `fcm-obs/v1` dump on degraded entry or SIGTERM),
//! and `--no-flight` exists precisely so the byte-identity gate can
//! show serve responses do not depend on it.
//!
//! Exit codes follow the workspace contract: 0 = clean shutdown
//! (SIGTERM/SIGINT drain), 1 = the startup model failed its pre-flight
//! checks or could not be placed, 2 = usage or I/O error (bad flags,
//! bind failure, unwritable state dir).

use std::path::PathBuf;
use std::process::ExitCode;

use fcm_serve::server::{start, Listen, ServerConfig};
use fcm_serve::signal;
use fcm_substrate::fault::FaultPlan;

const USAGE: &str = "\
fcm-serve: online integration service (fcm-serve/v1 line-JSON protocol)

USAGE:
    fcm-serve --model <paper|avionics> (--socket <PATH> | --tcp <ADDR>)
              [--state-dir <DIR>] [--resume] [--snapshot-every <N>]
              [--obs-out <PATH>] [--fault-plan <SPEC>] [--rearm-base-ms <N>]
              [--flight-out <PATH>] [--no-flight] [--heartbeat-every <N>]
              [--sub-queue <N>] [--slo-window <N>]

OPTIONS:
    --model <NAME>        Committed workload to serve (paper | avionics)
    --socket <PATH>       Listen on a Unix-domain socket at PATH
    --tcp <ADDR>          Listen on TCP at ADDR (host:port; port 0 = ephemeral)
    --state-dir <DIR>     Durable state: snapshot.json + journal.jsonl in DIR
    --resume              Recover from --state-dir instead of starting fresh
    --snapshot-every <N>  Snapshot every N accepted mutations (default 64;
                          0 = only at shutdown)
    --obs-out <PATH>      Write an fcm-obs event log on shutdown
    --fault-plan <SPEC>   Deterministic fault injection on the durability
                          path (testing only): ;-separated
                          site[:kind][@N|@N..M|@N..] rules, e.g.
                          'journal.*:eio' or 'snapshot.rename:crash@0'
    --rearm-base-ms <N>   Base backoff (ms) for degraded-mode re-arm
                          probes (default 100)
    --flight-out <PATH>   Where the flight recorder dumps fcm-obs/v1
                          JSONL on degraded entry / SIGTERM (default
                          <state-dir>/flight.jsonl when --state-dir is
                          given, else no dump path)
    --no-flight           Disable the flight recorder entirely
    --heartbeat-every <N> Publish a stats heartbeat event every N
                          accepted mutations (default 256; 0 = never)
    --sub-queue <N>       Default per-subscriber event-queue bound
                          (default 1024; overfull queues drop oldest)
    --slo-window <N>      Samples per rolling SLO window behind the
                          stats p50/p99 fields (default 4096)
    --help                Show this help

EXIT CODES:
    0  clean shutdown (SIGTERM/SIGINT drain complete, snapshot written)
    1  startup model rejected by pre-flight checks or unplaceable
    2  usage or I/O error
";

struct Args {
    config: ServerConfig,
    obs_out: Option<PathBuf>,
    flight_out: Option<PathBuf>,
    no_flight: bool,
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut model: Option<String> = None;
    let mut listen: Option<Listen> = None;
    let mut state_dir: Option<PathBuf> = None;
    let mut resume = false;
    let mut snapshot_every: u64 = 64;
    let mut obs_out: Option<PathBuf> = None;
    let mut fault = FaultPlan::none();
    let mut rearm_base_ms: u64 = 100;
    let mut flight_out: Option<PathBuf> = None;
    let mut no_flight = false;
    let mut heartbeat_every: u64 = 256;
    let mut sub_queue: usize = 1024;
    let mut slo_window: u64 = 4096;

    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--model" => model = Some(value("--model")?),
            "--socket" => listen = Some(Listen::Unix(PathBuf::from(value("--socket")?))),
            "--tcp" => listen = Some(Listen::Tcp(value("--tcp")?)),
            "--state-dir" => state_dir = Some(PathBuf::from(value("--state-dir")?)),
            "--resume" => resume = true,
            "--snapshot-every" => {
                snapshot_every = value("--snapshot-every")?
                    .parse()
                    .map_err(|_| "--snapshot-every requires a non-negative integer".to_string())?;
            }
            "--obs-out" => obs_out = Some(PathBuf::from(value("--obs-out")?)),
            "--fault-plan" => {
                fault = FaultPlan::parse(&value("--fault-plan")?)
                    .map_err(|e| format!("--fault-plan: {e}"))?;
            }
            "--rearm-base-ms" => {
                rearm_base_ms = value("--rearm-base-ms")?
                    .parse()
                    .map_err(|_| "--rearm-base-ms requires a non-negative integer".to_string())?;
            }
            "--flight-out" => flight_out = Some(PathBuf::from(value("--flight-out")?)),
            "--no-flight" => no_flight = true,
            "--heartbeat-every" => {
                heartbeat_every = value("--heartbeat-every")?
                    .parse()
                    .map_err(|_| "--heartbeat-every requires a non-negative integer".to_string())?;
            }
            "--sub-queue" => {
                sub_queue = value("--sub-queue")?
                    .parse()
                    .map_err(|_| "--sub-queue requires a positive integer".to_string())?;
                if sub_queue == 0 {
                    return Err("--sub-queue requires a positive integer".to_string());
                }
            }
            "--slo-window" => {
                slo_window = value("--slo-window")?
                    .parse()
                    .map_err(|_| "--slo-window requires a positive integer".to_string())?;
                if slo_window == 0 {
                    return Err("--slo-window requires a positive integer".to_string());
                }
            }
            other => return Err(format!("unknown flag \"{other}\"")),
        }
    }
    let model = model.ok_or("--model is required")?;
    let listen = listen.ok_or("one of --socket or --tcp is required")?;
    if resume && state_dir.is_none() {
        return Err("--resume requires --state-dir".to_string());
    }
    if no_flight && flight_out.is_some() {
        return Err("--no-flight conflicts with --flight-out".to_string());
    }
    // Default dump path: next to the durable state, where a post-mortem
    // will look first.
    let flight_out = match (flight_out, &state_dir, no_flight) {
        (Some(p), _, _) => Some(p),
        (None, Some(dir), false) => Some(dir.join("flight.jsonl")),
        _ => None,
    };
    Ok(Some(Args {
        config: ServerConfig {
            state_dir,
            resume,
            snapshot_every,
            fault,
            rearm_base_ms,
            sub_queue,
            heartbeat_every,
            slo_window,
            ..ServerConfig::new(listen, &model)
        },
        obs_out,
        flight_out,
        no_flight,
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("fcm-serve: {e}");
            eprintln!("run with --help for usage");
            return ExitCode::from(2);
        }
    };

    if args.obs_out.is_some() || std::env::var_os(fcm_obs::OBS_OUT_ENV).is_some() {
        fcm_obs::init(fcm_obs::ObsConfig::default());
        fcm_obs::set_enabled(true);
    }
    if !args.no_flight {
        fcm_obs::recorder::set_dump_path(args.flight_out.clone());
        fcm_obs::recorder::set_enabled(true);
    }
    signal::install();

    let handle = match start(args.config) {
        Ok(h) => h,
        Err(e) => {
            // Model-content failures (pre-flight findings, infeasible
            // placement) are findings → 1; environment failures → 2.
            let findings =
                e.contains("preflight") || e.contains("no feasible") || e.contains("unknown model");
            eprintln!("fcm-serve: {e}");
            return ExitCode::from(if findings { 1 } else { 2 });
        }
    };
    println!("fcm-serve: listening on {}", handle.addr());
    println!("fcm-serve: model ready at seq {}", handle.seq());
    let _ = std::io::Write::flush(&mut std::io::stdout());

    while !signal::requested() {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    eprintln!("fcm-serve: shutdown requested, draining");
    let rc = match handle.stop() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fcm-serve: shutdown error: {e}");
            ExitCode::from(2)
        }
    };
    // After the drain: the ring still holds the run's tail, and the
    // dump can no longer race the writer thread.
    if let Some(path) = fcm_obs::recorder::auto_dump("sigterm") {
        eprintln!("fcm-serve: flight log dumped to {}", path.display());
    }
    if let Some(path) = args.obs_out {
        if let Err(e) = fcm_obs::export::export_to(&path) {
            eprintln!("fcm-serve: obs export failed: {e}");
            return ExitCode::from(2);
        }
    }
    rc
}
