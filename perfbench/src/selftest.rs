//! `perfbench --selftest`: a quick-size run of every workload showing that
//! every named metric prints with its unit, and that each correctness
//! check fires on a tampered input.

use std::collections::BTreeMap;
use std::path::Path;

use fcm_graph::InfluenceMatrix;
use fcm_serve::proto::{Mutation, Query};
use fcm_serve::LiveModel;
use fcm_substrate::Json;

use crate::net::{self, Client, Daemon, Kind, Load, Req};
use crate::serve;
use crate::stats::Outcome;
use crate::sweep;
use crate::{run_workload, work_dir, Settings, END_TO_END, PER_LAYER, WORKLOADS};

fn fired(out: &Outcome, check: &str) -> bool {
    out.checks.iter().any(|c| c.name == check && !c.ok)
}

fn expect(cond: bool, what: &str) -> Result<(), String> {
    if cond {
        println!("# selftest ok: {what}");
        Ok(())
    } else {
        Err(format!("selftest failed: {what}"))
    }
}

/// Every workload at quick size, untraced and traced: each declared
/// metric is present with a finite value and one unit per name, and the
/// units agree with `BENCHMARK.json` when it is in the working directory.
fn metrics_print(work: &Path) -> Result<(), String> {
    let mut units: BTreeMap<String, &'static str> = BTreeMap::new();
    for trace in [false, true] {
        let names: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
        for w in WORKLOADS {
            let s = Settings {
                seed: 7,
                seconds: 1.0,
                trace,
                quick: true,
                reference: false,
            };
            let out = run_workload(w, &s, &work.join(w))?;
            expect(
                out.correct(),
                &format!("{w} (trace {trace}) passes its correctness checks"),
            )?;
            for &k in names {
                let m = out
                    .metrics
                    .get(k)
                    .ok_or(format!("{w} does not print {k}"))?;
                if !m.value.is_finite() || (!trace && m.value <= 0.0) {
                    return Err(format!("{w} prints {k} = {}", m.value));
                }
                if *units.entry(k.to_string()).or_insert(m.unit) != m.unit {
                    return Err(format!("{k} has two units"));
                }
            }
            expect(
                true,
                &format!("{w} (trace {trace}) prints all {} metrics", names.len()),
            )?;
        }
    }
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        println!("# selftest: no BENCHMARK.json here, units not compared");
        return Ok(());
    };
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    for (key, names) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let list = doc
            .get(key)
            .and_then(Json::as_array)
            .ok_or(format!("BENCHMARK.json lacks {key}"))?;
        let declared: Vec<(&str, &str)> = list
            .iter()
            .filter_map(|m| Some((m.get("name")?.as_str()?, m.get("unit")?.as_str()?)))
            .collect();
        let expected: Vec<(&str, &str)> = names.iter().map(|&n| (n, units[n])).collect();
        expect(
            declared == expected,
            &format!("BENCHMARK.json {key} matches the printed names and units"),
        )?;
    }
    Ok(())
}

/// The fleet Eq. 4 check accepts an untouched dump and rejects one whose
/// influence matrix differs from a scratch condense in one entry.
fn eq4_tamper() -> Result<(), String> {
    let mut m = LiveModel::new("paper")?;
    m.apply(&Mutation::AddFcm {
        name: "x".to_string(),
        criticality: 1,
        throughput: 0.0,
        security: 0,
        timing: None,
        influences: vec![("p8".to_string(), 0.25)],
        influenced_by: vec![("p2a".to_string(), 0.125)],
        contract: None,
    })?;
    let dump = m.query(&Query::Dump)?;
    expect(
        serve::eq4_matches_scratch(&dump.to_string_compact()).is_ok(),
        "eq4 check passes an untouched dump",
    )?;
    let state = dump.get("state").ok_or("dump lacks state")?.clone();
    let inf = state
        .get("influence")
        .and_then(InfluenceMatrix::from_state_json)
        .ok_or("unreadable influence")?;
    let mut dense = inf.to_dense();
    dense[(0, 1)] += 1e-9;
    let tampered = dump.set(
        "state",
        state.set(
            "influence",
            InfluenceMatrix::from_dense_auto(dense).to_state_json(),
        ),
    );
    expect(
        serve::eq4_matches_scratch(&tampered.to_string_compact()).is_err(),
        "eq4 check fires on a tampered influence entry",
    )
}

/// The resume checks fire when the snapshot on disk is edited between
/// stop and resume.
fn resume_tamper(work: &Path) -> Result<(), String> {
    let dir = work.join("resume");
    let (d, _) = Daemon::spawn(&dir, false, false)?;
    let mut c = Client::connect(&d.addr)?;
    c.call(r#"{"op":"set_attr","name":"p8","criticality":2}"#)?;
    let (before, _) = serve::dump_and_condenses(&d.addr)?;
    drop(c);
    d.stop()?;
    let mut clean = Outcome::default();
    serve::resume_checks(&dir, 1, &before, &mut clean)?;
    expect(
        clean.correct(),
        "resume checks pass on an untouched state dir",
    )?;
    let snap = dir.join("snapshot.json");
    let text = std::fs::read_to_string(&snap).map_err(|e| e.to_string())?;
    let edited = text.replace("\"full_condenses\":1", "\"full_condenses\":2");
    expect(edited != text, "snapshot carries the full-condense count")?;
    std::fs::write(&snap, edited).map_err(|e| e.to_string())?;
    let mut out = Outcome::default();
    serve::resume_checks(&dir, 1, &before, &mut out)?;
    expect(
        fired(&out, "resume_dump_identical"),
        "resume_dump_identical fires on an edited snapshot",
    )?;
    expect(
        fired(&out, "resume_full_condenses_1"),
        "resume_full_condenses_1 fires on an edited snapshot",
    )
}

/// The sweep checks fire on a malformed partition, an unexpected
/// infeasible run, and a table that differs from the reference.
fn sweep_tamper() -> Result<(), String> {
    let cells = sweep::grid(7, 1);
    let (mut outs, _) = sweep::sweep(&cells[..2], 1);
    let table = sweep::table(&outs);
    let mut ok = Outcome::default();
    sweep::check_sweep(&mut ok, &outs, &table);
    expect(ok.correct(), "sweep checks pass on an untouched sweep")?;
    let mut out = Outcome::default();
    sweep::check_sweep(&mut out, &outs, &format!("{table} "));
    expect(
        fired(&out, "table_identical_across_threads"),
        "table check fires on a differing table",
    )?;
    outs[0].bad_partitions += 1;
    outs[1].infeasible += 1;
    let mut out = Outcome::default();
    sweep::check_sweep(&mut out, &outs, &table);
    expect(
        fired(&out, "clusterings_are_partitions"),
        "partition check fires on a malformed clustering",
    )?;
    expect(
        fired(&out, "infeasible_as_expected"),
        "infeasible check fires on an unexpected failure",
    )?;
    expect(out.failed == 2, "both tampered runs count as failed")?;
    let mut cells = cells;
    let mut ok = Outcome::default();
    sweep::check_restore(&mut ok, &cells.iter().collect::<Vec<_>>())?;
    expect(ok.correct(), "restore check passes untouched contracts")?;
    // Every guarantee set to 0: any FCM with outgoing influence breaks it.
    let text = cells[0].contracts.clone();
    let mut edited = String::new();
    let mut rest = text.as_str();
    while let Some(at) = rest.find("\"guarantee\":") {
        let value = at + "\"guarantee\":".len();
        let end = value + rest[value..].find(',').unwrap_or(0);
        edited.push_str(&rest[..value]);
        edited.push('0');
        rest = &rest[end..];
    }
    edited.push_str(rest);
    expect(edited != text, "persisted contracts carry guarantees")?;
    cells[0].contracts = edited;
    let mut out = Outcome::default();
    sweep::check_restore(&mut out, &cells.iter().collect::<Vec<_>>())?;
    expect(
        fired(&out, "restored_contracts_hold"),
        "restore check fires on an edited guarantee",
    )
}

/// Failed requests, a late generator and a load over the thread budget
/// each make a run incorrect or refuse to start.
fn load_tamper() -> Result<(), String> {
    let mut out = Outcome::default();
    serve::count_load(
        &mut out,
        "tampered",
        &Load {
            attempted: 3,
            failed: 1,
            ..Load::default()
        },
    );
    expect(
        fired(&out, "requests_succeed") && out.failed == 1,
        "a failed request fails the run",
    )?;
    let mut out = Outcome::default();
    let late = Load {
        late_ns: vec![(serve::LATE_LIMIT_MS * 2e6) as u64; 100],
        ..Load::default()
    };
    serve::generator_metrics(&mut out, &late, serve::LATE_LIMIT_MS);
    expect(
        !out.invalid.is_empty(),
        "a generator behind schedule invalidates the run",
    )?;
    let stream = vec![Req {
        line: r#"{"op":"ping"}"#.to_string(),
        kind: Kind::Query,
    }];
    let streams = vec![stream; net::budget() + 1];
    expect(
        net::closed_loop("127.0.0.1:1", &streams, 1).is_err(),
        "a load over the thread budget is refused",
    )
}

pub fn run() -> Result<(), String> {
    let work = work_dir().join("selftest");
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    let result = eq4_tamper()
        .and_then(|()| sweep_tamper())
        .and_then(|()| load_tamper())
        .and_then(|()| resume_tamper(&work))
        .and_then(|()| metrics_print(&work));
    let _ = std::fs::remove_dir_all(work_dir());
    result?;
    println!("# selftest passed");
    Ok(())
}
