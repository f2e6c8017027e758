//! Crash-point durability matrix: enumerate every IO site a scripted
//! session reaches, simulate a crash at each one in-process, resume,
//! and check the recovered model is a prefix-consistent replay.
//!
//! The paper's integration argument is that dependability must be
//! re-verified after every change; the verify.sh kill -9 drill checks
//! exactly *one* crash point per run. This module closes the gap with
//! exhaustion instead of sampling:
//!
//! 1. **Enumerate.** Run a deterministic golden session (a fixed
//!    mutation script against the committed model, snapshotting every
//!    [`SNAPSHOT_EVERY`] mutations) through a *tracing* injector with
//!    the empty plan, recording the exact sequence of IO-site hits and
//!    the canonical model state after every accepted mutation.
//! 2. **Crash everywhere.** For each recorded hit `k`, re-run the same
//!    session in a fresh directory under [`FaultPlan::crash_at_hit`]
//!    `(k)` — and, for byte-write sites, a second *torn* variant that
//!    dies mid-write, leaving a partial line or partial temp file.
//! 3. **Resume + verify.** Recover with the code `--resume` runs
//!    ([`Store::open_resume`], then
//!    [`crate::store::Recovered::into_model`]) and assert the recovered
//!    state (a) lost no acknowledged mutation and (b) is byte-identical
//!    to the reference state at the recovered seq — i.e. recovery
//!    always lands exactly *on* the reference trajectory, never beside
//!    it.
//!
//! The session cuts its snapshots the way the daemon does (rotate the
//! journal, render, then the snapshot half writes and retires). Each
//! snapshot-half site is crashed a second time with the snapshot in
//! flight: the document is written only after the next mutation's line
//! is appended to the fresh journal, the order the persistence thread
//! allows.
//!
//! The recovered seq may exceed the acknowledged count by at most the
//! one mutation whose journal line hit the disk before the crash killed
//! the acknowledgement — durable-but-unacked, the unavoidable ambiguity
//! of any write-ahead design.
//!
//! Shared by `crates/serve/tests/crash_matrix.rs` (tier-1), the
//! `crashdrill` bin (CI gate in scripts/verify.sh), and the
//! `fault_recovery` bench.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fcm_substrate::fault::{FaultInjector, FaultPlan};
use fcm_substrate::Json;

use crate::model::{LiveModel, StateCut};
use crate::proto::Mutation;
use crate::store::Store;

/// Snapshot period of the golden session: small enough that the matrix
/// crosses several snapshot boundaries.
pub const SNAPSHOT_EVERY: usize = 3;

/// One simulated crash point and its verdict.
#[derive(Debug)]
pub struct CrashCase {
    /// Hit ordinal (0-based) at which the crash was injected.
    pub hit: u64,
    /// The IO site crashed at (from the reference trace).
    pub site: String,
    /// Whether the crash tore the write (partial bytes on disk).
    pub torn: bool,
    /// Whether the crash hit the snapshot while the next mutation's
    /// line was already appended past its cut.
    pub in_flight: bool,
    /// Mutations acknowledged before the crash.
    pub acked: usize,
    /// Seq the resumed model recovered to.
    pub recovered_seq: u64,
    /// `None` = prefix-consistent; `Some(why)` = durability violation.
    pub failure: Option<String>,
}

/// The whole matrix run.
#[derive(Debug)]
pub struct DrillReport {
    /// Model the session ran against.
    pub model: String,
    /// Site-hit sequence of the reference session.
    pub trace: Vec<String>,
    /// Every simulated crash, in hit order (torn variant after plain).
    pub cases: Vec<CrashCase>,
}

impl DrillReport {
    /// Cases that violated prefix consistency.
    #[must_use]
    pub fn failures(&self) -> Vec<&CrashCase> {
        self.cases.iter().filter(|c| c.failure.is_some()).collect()
    }

    /// The report as a `fcm-crashdrill/v1` JSON document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let cases = Json::array(self.cases.iter().map(|c| {
            let mut j = Json::object()
                .set("acked", c.acked as u64)
                .set("hit", c.hit)
                .set("in_flight", c.in_flight)
                .set("ok", c.failure.is_none())
                .set("recovered_seq", c.recovered_seq)
                .set("site", c.site.as_str())
                .set("torn", c.torn);
            if let Some(why) = &c.failure {
                j = j.set("failure", why.as_str());
            }
            j
        }));
        Json::object()
            .set("cases", cases)
            .set("crash_points", self.cases.len() as u64)
            .set("failed", self.failures().len() as u64)
            .set("model", self.model.as_str())
            .set("schema", "fcm-crashdrill/v1")
            .set("sites_enumerated", self.trace.len() as u64)
    }
}

/// The deterministic golden session: a mutation script touching every
/// mutation kind, pre-validated against `model_name` so every entry is
/// accepted when applied in order. `quick` trims the script for the
/// verify.sh gate; the full script is the tier-1 matrix.
///
/// # Errors
///
/// Unknown model name.
pub fn golden_session(model_name: &str, quick: bool) -> Result<Vec<Mutation>, String> {
    let mut probe = LiveModel::new(model_name)?;
    let state = probe.state_json();
    let fcms = state.get("fcms").and_then(Json::as_array).unwrap_or(&[]);
    let anchor = fcms
        .first()
        .and_then(|f| f.get("name"))
        .and_then(Json::as_str)
        .ok_or("model has no FCMs to anchor the drill session")?
        .to_string();
    let host = fcms
        .iter()
        .find_map(|f| f.get("host").and_then(Json::as_str))
        .ok_or("model has no hosted FCM to derive a HW node from")?
        .to_string();

    let adds = if quick { 4 } else { 9 };
    let mut script: Vec<Mutation> = Vec::new();
    for i in 0..adds {
        script.push(Mutation::AddFcm {
            name: format!("drill{i}"),
            criticality: (i % 3) as u32,
            throughput: 0.5 + 0.25 * i as f64,
            security: 0,
            timing: None,
            influences: vec![(anchor.clone(), 0.2 + 0.05 * (i % 5) as f64)],
            influenced_by: Vec::new(),
            contract: None,
        });
        if i % 3 == 2 {
            script.push(Mutation::SetAttr {
                name: format!("drill{i}"),
                criticality: Some(2),
                throughput: None,
                timing: None,
            });
        }
    }
    script.push(Mutation::FailNode { node: host.clone() });
    script.push(Mutation::RestoreNode { node: host });
    if !quick {
        script.push(Mutation::RemoveFcm {
            name: "drill0".to_string(),
        });
    }
    // Keep only the prefix-valid accepted mutations (e.g. a model whose
    // gates reject one of the adds): the session must be replayable
    // end-to-end so the reference trajectory is well-defined.
    let mut accepted = Vec::with_capacity(script.len());
    for m in script {
        if probe.apply(&m).is_ok() {
            accepted.push(m);
        }
    }
    Ok(accepted)
}

fn drill_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fcm-crashdrill-{tag}-{}", std::process::id()))
}

/// Runs `session` on a fresh `model_name` model through a store in
/// `dir` under `inj`, cutting a snapshot every [`SNAPSHOT_EVERY`]
/// mutations the way the daemon's writer does (rotate the journal,
/// render the document, hand it to the snapshot half). With `in_flight`
/// each cut's document is written only after the next mutation is
/// appended, as the persistence thread may finish while the writer
/// appends lines past the cut. `acked` sees the model after each
/// acknowledged mutation. Returns the acknowledged count and whether
/// the process died (an IO step failed, which in the drill is always
/// the simulated crash).
fn drive(
    model_name: &str,
    session: &[Mutation],
    dir: &Path,
    inj: &Arc<FaultInjector>,
    in_flight: bool,
    mut acked: impl FnMut(&LiveModel),
) -> Result<(usize, bool), String> {
    let mut store = Store::create_fresh_with(dir, Arc::clone(inj))?;
    let snapshotter = store.snapshotter();
    let mut model = LiveModel::new(model_name)?;
    let mut pending: Option<StateCut> = None;
    for (i, m) in session.iter().enumerate() {
        model
            .apply(m)
            .map_err(|e| format!("drill apply {i}: {e}"))?;
        if store.append(model.seq(), m).is_err() {
            return Ok((i, true));
        }
        acked(&model);
        if let Some(cut) = pending.take() {
            if snapshotter.write_cut(&cut).is_err() {
                return Ok((i + 1, true));
            }
        }
        if (i + 1) % SNAPSHOT_EVERY == 0 {
            if store.rotate().is_err() {
                return Ok((i + 1, true));
            }
            let cut = model.state_cut();
            if !in_flight && snapshotter.write_cut(&cut).is_err() {
                return Ok((i + 1, true));
            }
            pending = in_flight.then_some(cut);
        }
    }
    let died = pending.is_some_and(|cut| snapshotter.write_cut(&cut).is_err());
    Ok((session.len(), died))
}

/// Runs the golden session once with a tracing (but never-failing)
/// injector: returns the site-hit trace and `states[i]` = canonical
/// state string after `i` accepted mutations.
fn reference_run(
    model_name: &str,
    session: &[Mutation],
    in_flight: bool,
) -> Result<(Vec<String>, Vec<String>), String> {
    let dir = drill_dir(&format!("{model_name}-{}-ref", session.len()));
    let _ = fs::remove_dir_all(&dir);
    let inj = Arc::new(FaultInjector::tracing(&FaultPlan::none()));
    let mut states = vec![LiveModel::new(model_name)?.state_text()];
    drive(model_name, session, &dir, &inj, in_flight, |m| {
        states.push(m.state_text());
    })?;
    let _ = fs::remove_dir_all(&dir);
    Ok((inj.trace(), states))
}

/// One crash case: run the session under `crash_at_hit(k, torn)`, stop
/// at the simulated death, resume with the production path, and verify
/// prefix consistency against the reference trajectory.
fn crash_case(
    model_name: &str,
    session: &[Mutation],
    (k, site): (u64, &str),
    torn: bool,
    in_flight: bool,
    ref_states: &[String],
) -> Result<CrashCase, String> {
    let dir = drill_dir(&format!(
        "{model_name}-{}-k{k}{}{}",
        session.len(),
        if torn { "t" } else { "" },
        if in_flight { "f" } else { "" }
    ));
    let _ = fs::remove_dir_all(&dir);
    let inj = Arc::new(FaultInjector::new(&FaultPlan::crash_at_hit(k, torn)));
    let (acked, died) = drive(model_name, session, &dir, &inj, in_flight, |_| {})?;
    if died {
        // The flight recorder treats a simulated crash like a real one:
        // capture the moment, then best-effort dump (a no-op unless the
        // drill armed it).
        fcm_obs::recorder::record(
            "crash_point",
            Json::object()
                .set("site", site)
                .set("hit", k)
                .set("torn", torn),
        );
        let _ = fcm_obs::recorder::auto_dump("crash_point");
    }

    // Resume exactly as `--resume` does: open, then the one recovery
    // path from the recovered state to a model.
    let (recovered_seq, failure) =
        match Store::open_resume(&dir).and_then(|(_, rec)| rec.into_model(model_name)) {
            Err(e) => (0, Some(format!("resume failed: {e}"))),
            Ok(recovered) => (
                recovered.seq(),
                verify_prefix(&recovered, acked, ref_states),
            ),
        };
    let _ = fs::remove_dir_all(&dir);
    Ok(CrashCase {
        hit: k,
        site: site.to_string(),
        torn,
        in_flight,
        acked,
        recovered_seq,
        failure,
    })
}

fn verify_prefix(recovered: &LiveModel, acked: usize, ref_states: &[String]) -> Option<String> {
    let n = recovered.seq() as usize;
    if n < acked {
        return Some(format!(
            "lost acknowledged mutations: recovered seq {n} < acked {acked}"
        ));
    }
    if n >= ref_states.len() {
        return Some(format!(
            "recovered past the session: seq {n} of {} mutations",
            ref_states.len() - 1
        ));
    }
    let got = recovered.state_text();
    if got != ref_states[n] {
        return Some(format!("state at seq {n} diverges from the reference"));
    }
    None
}

/// Runs the full crash-point matrix for `model_name`.
///
/// # Errors
///
/// Setup failures (unknown model, un-writable temp dir) — never a
/// durability violation, which is reported per-case instead.
pub fn run_matrix(model_name: &str, quick: bool) -> Result<DrillReport, String> {
    let session = golden_session(model_name, quick)?;
    let (trace, ref_states) = reference_run(model_name, &session, false)?;
    let mut cases = Vec::new();
    for (k, site) in trace.iter().enumerate() {
        let hit = (k as u64, site.as_str());
        cases.push(crash_case(
            model_name,
            &session,
            hit,
            false,
            false,
            &ref_states,
        )?);
        // Byte-write sites get a second, nastier variant: die mid-write
        // with a strict prefix of the payload on disk.
        if site.ends_with(".write") {
            cases.push(crash_case(
                model_name,
                &session,
                hit,
                true,
                false,
                &ref_states,
            )?);
        }
    }
    // The snapshot half's sites again, with the snapshot in flight: the
    // next mutation's line is already past the cut in the fresh journal.
    let (in_flight_trace, _) = reference_run(model_name, &session, true)?;
    for (k, site) in in_flight_trace.iter().enumerate() {
        if SNAPSHOT_SITES.contains(&site.as_str()) {
            cases.push(crash_case(
                model_name,
                &session,
                (k as u64, site),
                false,
                true,
                &ref_states,
            )?);
        }
    }
    Ok(DrillReport {
        model: model_name.to_string(),
        trace,
        cases,
    })
}

/// The IO sites of the snapshot half ([`crate::store::Snapshotter`]).
const SNAPSHOT_SITES: [&str; 5] = [
    "snapshot.tmp.write",
    "snapshot.tmp.fsync",
    "snapshot.rename",
    "snapshot.dir.fsync",
    "journal.retire",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_session_is_deterministic_and_nonempty() {
        let a = golden_session("paper", false).unwrap();
        let b = golden_session("paper", false).unwrap();
        assert_eq!(
            a.iter()
                .map(crate::proto::mutation_to_json)
                .map(|j| j.to_string_compact())
                .collect::<Vec<_>>(),
            b.iter()
                .map(crate::proto::mutation_to_json)
                .map(|j| j.to_string_compact())
                .collect::<Vec<_>>(),
        );
        assert!(
            a.len() >= 10,
            "full session has enough mutations: {}",
            a.len()
        );
        let q = golden_session("paper", true).unwrap();
        assert!(q.len() < a.len(), "quick session is a trimmed script");
    }

    #[test]
    fn reference_trace_covers_every_site_kind() {
        let session = golden_session("paper", false).unwrap();
        let (trace, states) = reference_run("paper", &session, false).unwrap();
        assert_eq!(states.len(), session.len() + 1);
        for site in [
            "journal.append.write",
            "journal.append.flush",
            "journal.rotate",
            "snapshot.tmp.write",
            "snapshot.tmp.fsync",
            "snapshot.rename",
            "snapshot.dir.fsync",
            "journal.retire",
        ] {
            assert!(trace.iter().any(|s| s == site), "session never hits {site}");
        }
    }
}
