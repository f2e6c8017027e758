//! The two serving workloads: `serve_mix` and `fleet_evolve`.

use std::path::Path;

use fcm_graph::{condense, CombineRule, DiGraph, InfluenceMatrix, NodeIdx};
use fcm_serve::LiveModel;
use fcm_substrate::Json;

use crate::layers;
use crate::net::{self, Client, Daemon, Load, Req};
use crate::reqs::{Fleet, ServeMix};
use crate::stats::{median, pct, scaled, Outcome};
use crate::Settings;

/// Fresh daemon boots per run; `setup_s` is their median.
const SETUP_BOOTS: usize = 9;
/// `serve_mix` phase A offered rate: about a third of the lowest phase B
/// capacity seen on a 2-vCPU VM, so host noise does not tip the open loop
/// into a growing backlog.
const OPEN_RATE: f64 = 5_000.0;
/// Phase A limit on mutation p99 (ms) for the rate to count as met.
const MUTATION_P99_LIMIT_MS: f64 = 10.0;
/// `serve_mix` phase B in-flight window per connection.
const SERVE_WINDOW: usize = 16;
/// `fleet_evolve` growth target (FCMs, paper base included).
const FLEET_SIZE: usize = 3_000;
/// `fleet_evolve` in-flight window per connection, growth and churn: a
/// pipelined closed loop keeps the writer busy, so the figures follow the
/// model's cost rather than thread wake-ups on a shared VM.
const FLEET_WINDOW: usize = 4;
/// `serve_mix` resumes per run; `recover_s` is their median.
const SERVE_RESUMES: usize = 5;
/// `fleet_evolve` resumes per run; `recover_s` is their median.
const FLEET_RESUMES: usize = 5;
/// Latency percentiles are taken per window of consecutive requests and
/// the median over windows is reported, so one host stall moves one
/// window, not the run's figure.
const WINDOWS: usize = 10;
/// Closed-loop phases run as this many equal segments; throughput is the
/// median over segments.
const SEGMENTS: usize = 5;
/// Generator lateness (p99, ms) beyond which a run is not a valid
/// measurement.
pub const LATE_LIMIT_MS: f64 = 20.0;

/// FCM names of the paper model, in graph order.
fn paper_names() -> Vec<String> {
    LiveModel::new("paper")
        .expect("the paper model boots")
        .graph()
        .nodes()
        .map(|(_, n)| n.name.clone())
        .collect()
}

/// Boots `SETUP_BOOTS` fresh daemons in `dir` and keeps the last one.
fn setup(dir: &Path, obs: bool, out: &mut Outcome) -> Result<Daemon, String> {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..SETUP_BOOTS {
        let (d, secs) = Daemon::spawn(dir, false, obs)?;
        times.push(secs);
        if i + 1 < SETUP_BOOTS {
            d.stop()?;
        } else {
            last = Some(d);
        }
    }
    out.put("setup_s", median(&times), "s", times.len() as u64);
    out.count(SETUP_BOOTS as u64, 0);
    last.ok_or_else(|| "no daemon".to_string())
}

/// Median over `WINDOWS` consecutive chunks of the `p`th percentile, ms.
fn windowed(ns: &[u64], p: f64) -> f64 {
    let per = ns.len().div_ceil(WINDOWS).max(1);
    let v: Vec<f64> = ns.chunks(per).map(|c| pct(&scaled(c, 1e6), p)).collect();
    median(&v)
}

fn latency_metrics(out: &mut Outcome, load: &Load) {
    let (m, q) = (&load.mutation_ns, &load.query_ns);
    let note = format!("median over {WINDOWS} windows");
    out.put_note(
        "mutation_p50_ms",
        windowed(m, 50.0),
        "ms",
        m.len() as u64,
        note.clone(),
    );
    out.put_note(
        "mutation_p99_ms",
        windowed(m, 99.0),
        "ms",
        m.len() as u64,
        note.clone(),
    );
    out.put_note(
        "query_p50_ms",
        windowed(q, 50.0),
        "ms",
        q.len() as u64,
        note.clone(),
    );
    out.put_note(
        "query_p99_ms",
        windowed(q, 99.0),
        "ms",
        q.len() as u64,
        note,
    );
}

/// A closed loop run as `SEGMENTS` consecutive slices of every stream:
/// the merged load plus capacity (req/s) and wall time per segment.
fn segmented(
    addr: &str,
    streams: &[Vec<Req>],
    window: usize,
) -> Result<(Load, Vec<f64>, Vec<f64>), String> {
    let mut total = Load::default();
    let (mut rps, mut walls) = (Vec::new(), Vec::new());
    for k in 0..SEGMENTS {
        let slice: Vec<Vec<Req>> = streams
            .iter()
            .map(|st| {
                let per = st.len().div_ceil(SEGMENTS);
                st.iter().skip(k * per).take(per).cloned().collect()
            })
            .collect();
        let l = net::closed_loop(addr, &slice, window)?;
        rps.push((l.attempted - l.failed) as f64 / l.elapsed_s);
        walls.push(l.elapsed_s);
        total.merge(l);
    }
    Ok((total, rps, walls))
}

pub fn count_load(out: &mut Outcome, phase: &str, load: &Load) {
    out.count(load.attempted, load.failed);
    if load.failed > 0 {
        out.check(
            "requests_succeed",
            false,
            format!(
                "{phase}: {} of {} failed: {:?}",
                load.failed, load.attempted, load.errors
            ),
        );
    }
}

/// Generator validity: the open loop must keep to its schedule.
pub fn generator_metrics(out: &mut Outcome, load: &Load, limit_ms: f64) {
    let late = scaled(&load.late_ns, 1e6);
    let p99 = pct(&late, 99.0);
    let max = late.iter().copied().fold(0.0, f64::max);
    out.put("gen.late_p99_ms", p99, "ms", late.len() as u64);
    out.put("gen.late_max_ms", max, "ms", late.len() as u64);
    if p99 > limit_ms {
        out.invalid.push(format!(
            "generator fell behind: send lateness p99 {p99:.3} ms > {limit_ms} ms"
        ));
    }
}

/// The `dump` response and the full-condense count of a running daemon.
pub fn dump_and_condenses(addr: &str) -> Result<(String, u64), String> {
    let mut c = Client::connect(addr)?;
    let dump = c.call(r#"{"op":"dump"}"#)?;
    let stats = c.call(r#"{"op":"stats"}"#)?;
    let stats = Json::parse(&stats).map_err(|e| format!("stats: {e}"))?;
    let condenses = stats
        .get("full_condenses")
        .and_then(Json::as_f64)
        .ok_or("stats lacks full_condenses")? as u64;
    Ok((dump, condenses))
}

/// Resumes the stopped daemon of `dir` `times` times and checks each
/// resumed `dump` against the one taken before the stop. Returns the
/// seconds from spawn to the first answered request of each resume.
pub fn resume_checks(
    dir: &Path,
    times: usize,
    before: &str,
    out: &mut Outcome,
) -> Result<Vec<f64>, String> {
    let mut secs = Vec::new();
    for _ in 0..times {
        let (d, s) = Daemon::spawn(dir, true, false)?;
        secs.push(s);
        let (after, condenses) = dump_and_condenses(&d.addr)?;
        out.count(2, u64::from(after != before) + u64::from(condenses != 1));
        out.check(
            "resume_dump_identical",
            after == before,
            format!("{} vs {} bytes", after.len(), before.len()),
        );
        out.check(
            "resume_full_condenses_1",
            condenses == 1,
            format!("full_condenses = {condenses}"),
        );
        d.stop()?;
    }
    Ok(secs)
}

/// Server-layer figures from the daemon's `metrics` op (the daemon runs
/// with fcm-obs recording in traced runs) and `/proc`.
fn server_metrics(addr: &str, daemon: &Daemon, out: &mut Outcome) -> Result<(), String> {
    let mut c = Client::connect(addr)?;
    let resp = c.call(r#"{"op":"metrics"}"#)?;
    let j = Json::parse(&resp).map_err(|e| format!("metrics: {e}"))?;
    let snap = fcm_obs::MetricsSnapshot::from_json(&j)?;
    let hist = |name: &str, q: f64, scale: f64| {
        snap.hists
            .get(name)
            .and_then(|h| h.quantile(q))
            .map_or(0.0, |v| v as f64 / scale)
    };
    let count = |name: &str| snap.hists.get(name).map_or(0, fcm_obs::Histogram::count);
    out.put(
        "server.apply_us.p50",
        hist("serve.apply_ns", 0.5, 1e3),
        "us",
        count("serve.apply_ns"),
    );
    out.put(
        "server.apply_us.p99",
        hist("serve.apply_ns", 0.99, 1e3),
        "us",
        count("serve.apply_ns"),
    );
    out.put(
        "server.query_us.p50",
        hist("serve.query_ns", 0.5, 1e3),
        "us",
        count("serve.query_ns"),
    );
    out.put(
        "server.snapshot_ms.p50",
        hist("serve.snapshot_ns", 0.5, 1e6),
        "ms",
        count("serve.snapshot_ns"),
    );
    out.put(
        "server.snapshot_ms.max",
        hist("serve.snapshot_ns", 1.0, 1e6),
        "ms",
        count("serve.snapshot_ns"),
    );
    out.put(
        "server.snapshots",
        count("serve.snapshot_ns") as f64,
        "count",
        1,
    );
    let p = daemon.proc();
    out.put("server.cpu_s", p.cpu_s, "s", 1);
    Ok(())
}

fn residual(out: &mut Outcome) {
    let get = |k: &str| out.metrics.get(k).map_or(0.0, |m| m.value);
    let e2e_us = get("mutation_p50_ms") * 1e3;
    let r = e2e_us - get("server.apply_us.p50") - get("store.append_us.p50");
    out.put_note(
        "server.residual_us",
        r,
        "us",
        1,
        format!("e2e mutation p50 {e2e_us:.1} us minus server apply p50 and store append p50"),
    );
}

/// `serve_mix`: the paper model under production durability, driven by
/// the servegen steady-state mix — phase A open loop at a fixed rate,
/// phase B closed loop at a fixed window — then stopped and resumed.
pub fn serve_mix(s: &Settings, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = work.join("serve_mix");
    let gen_cpu0 = net::proc_info("self").cpu_s;
    let daemon = setup(&dir, s.trace, &mut out)?;
    let base = paper_names();
    let mut clients = [
        ServeMix::new(s.seed, 0, &base),
        ServeMix::new(s.seed, 1, &base),
    ];
    let n_a = (OPEN_RATE * s.seconds * 0.5) as usize;
    let n_b = (5_000.0 * s.seconds) as usize;
    let log_a = clients[0].take(n_a);
    let log_b: Vec<Vec<Req>> = clients.iter_mut().map(|c| c.take(n_b)).collect();

    let mut threads_max = daemon.proc().threads;
    let a = net::open_loop(&daemon.addr, &log_a, OPEN_RATE)?;
    threads_max = threads_max.max(daemon.proc().threads);
    count_load(&mut out, "phase A", &a);
    latency_metrics(&mut out, &a);
    generator_metrics(&mut out, &a, LATE_LIMIT_MS);
    let p99 = out.metrics["mutation_p99_ms"].value;
    out.put_note(
        "rate_met",
        f64::from(u8::from(p99 <= MUTATION_P99_LIMIT_MS)),
        "bool",
        1,
        format!("{OPEN_RATE} req/s offered, mutation p99 {p99:.3} ms vs limit {MUTATION_P99_LIMIT_MS} ms"),
    );

    let (b, rps, walls) = segmented(&daemon.addr, &log_b, SERVE_WINDOW)?;
    threads_max = threads_max.max(daemon.proc().threads);
    count_load(&mut out, "phase B", &b);
    let note = format!(
        "median over {SEGMENTS} segments of {} requests",
        b.attempted / SEGMENTS as u64
    );
    out.put_note(
        "capacity_rps",
        median(&rps),
        "1/s",
        b.attempted,
        note.clone(),
    );
    out.put_note("work_s", median(&walls), "s", b.attempted, note);
    out.put("gen.cpu_s", net::proc_info("self").cpu_s - gen_cpu0, "s", 1);

    if s.trace {
        server_metrics(&daemon.addr, &daemon, &mut out)?;
        out.put("server.threads.max", threads_max as f64, "count", 3);
    }
    let (before, condenses) = dump_and_condenses(&daemon.addr)?;
    out.count(1, u64::from(condenses != 1));
    out.check(
        "full_condenses_1",
        condenses == 1,
        format!("full_condenses = {condenses}"),
    );
    out.put(
        "peak_rss_mb",
        daemon.proc().vm_hwm_kb as f64 / 1024.0,
        "MB",
        1,
    );
    daemon.stop()?;
    let rec = resume_checks(&dir, SERVE_RESUMES, &before, &mut out)?;
    out.put("recover_s", median(&rec), "s", rec.len() as u64);

    if s.trace {
        let mut log: Vec<Req> = log_a;
        for stream in log_b {
            log.extend(stream);
        }
        let name = if s.reference {
            "serve_mix-probe"
        } else {
            "serve_mix"
        };
        layers::serve_layers(name, &log, 0, work, &mut out)?;
        residual(&mut out);
    }
    Ok(out)
}

/// `fleet_evolve`: the paper HW grown through the protocol to
/// `FLEET_SIZE` FCMs with contracts, churned at that size, then stopped
/// and resumed.
pub fn fleet_evolve(s: &Settings, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = work.join("fleet_evolve");
    let gen_cpu0 = net::proc_info("self").cpu_s;
    let daemon = setup(&dir, s.trace, &mut out)?;
    let base = paper_names();
    let size = if s.quick { 300 } else { FLEET_SIZE };
    let conns = 2.min(net::budget());
    let mut clients: Vec<Fleet> = (0..conns).map(|c| Fleet::new(s.seed, c, &base)).collect();
    let per = (size - base.len()) / conns;
    let grow: Vec<Vec<Req>> = clients.iter_mut().map(|c| c.grow(per)).collect();
    let mut targets = base.clone();
    for c in &clients {
        targets.extend_from_slice(c.grown());
    }
    let n_churn = (150.0 * s.seconds) as usize;
    let churn: Vec<Vec<Req>> = clients
        .iter_mut()
        .map(|c| c.churn(n_churn, &targets))
        .collect();

    let mut threads_max = daemon.proc().threads;
    let g = net::closed_loop(&daemon.addr, &grow, FLEET_WINDOW)?;
    count_load(&mut out, "growth", &g);
    out.put("work_s", g.elapsed_s, "s", g.attempted);
    threads_max = threads_max.max(daemon.proc().threads);

    let (c, rps, _) = segmented(&daemon.addr, &churn, FLEET_WINDOW)?;
    threads_max = threads_max.max(daemon.proc().threads);
    count_load(&mut out, "churn", &c);
    latency_metrics(&mut out, &c);
    let note = format!(
        "median over {SEGMENTS} segments of {} requests",
        c.attempted / SEGMENTS as u64
    );
    out.put_note("capacity_rps", median(&rps), "1/s", c.attempted, note);
    let mut late = g.late_ns;
    late.extend_from_slice(&c.late_ns);
    generator_metrics(
        &mut out,
        &Load {
            late_ns: late,
            ..Load::default()
        },
        LATE_LIMIT_MS,
    );
    out.put("gen.cpu_s", net::proc_info("self").cpu_s - gen_cpu0, "s", 1);

    if s.trace {
        server_metrics(&daemon.addr, &daemon, &mut out)?;
        out.put("server.threads.max", threads_max as f64, "count", 3);
    }
    let (before, condenses) = dump_and_condenses(&daemon.addr)?;
    out.count(1, u64::from(condenses != 1));
    out.check(
        "full_condenses_1",
        condenses == 1,
        format!("full_condenses = {condenses}"),
    );
    let eq4 = eq4_matches_scratch(&before);
    out.count(1, u64::from(eq4.is_err()));
    out.check(
        "eq4_matches_scratch_condense",
        eq4.is_ok(),
        eq4.err().unwrap_or_default(),
    );
    out.put(
        "peak_rss_mb",
        daemon.proc().vm_hwm_kb as f64 / 1024.0,
        "MB",
        1,
    );
    daemon.stop()?;
    let rec = resume_checks(&dir, FLEET_RESUMES, &before, &mut out)?;
    out.put("recover_s", median(&rec), "s", rec.len() as u64);

    if s.trace {
        let growth_len: usize = grow.iter().map(Vec::len).sum();
        let mut log: Vec<Req> = grow.into_iter().flatten().collect();
        log.extend(churn.into_iter().flatten());
        layers::serve_layers("fleet_evolve", &log, growth_len, work, &mut out)?;
        residual(&mut out);
    }
    Ok(out)
}

/// The Eq. 4 contract at fleet size: the influence matrix in a `dump`
/// must be bitwise-equal to a from-scratch singleton `condense` of the
/// dumped graph.
pub fn eq4_matches_scratch(dump: &str) -> Result<(), String> {
    let j = Json::parse(dump).map_err(|e| format!("dump: {e}"))?;
    let state = j.get("state").ok_or("dump lacks state")?;
    let n = state
        .get("fcms")
        .and_then(Json::as_array)
        .ok_or("state lacks fcms")?
        .len();
    let mut g: DiGraph<(), f64> = DiGraph::with_capacity(n);
    for _ in 0..n {
        g.add_node(());
    }
    for e in state
        .get("edges")
        .and_then(Json::as_array)
        .ok_or("state lacks edges")?
    {
        let e = e
            .as_array()
            .filter(|e| e.len() == 3)
            .ok_or("malformed edge")?;
        let idx = |v: &Json| v.as_f64().map(|x| x as usize).filter(|&x| x < n);
        let (Some(f), Some(t), Some(w)) = (idx(&e[0]), idx(&e[1]), e[2].as_f64()) else {
            return Err("malformed edge".to_string());
        };
        g.add_edge(NodeIdx(f), NodeIdx(t), w);
    }
    let groups: Vec<Vec<NodeIdx>> = (0..n).map(|v| vec![NodeIdx(v)]).collect();
    let scratch = condense(&g, &groups, CombineRule::Probabilistic)
        .map_err(|e| e.to_string())?
        .influence_matrix();
    let live =
        InfluenceMatrix::from_state_json(state.get("influence").ok_or("state lacks influence")?)
            .ok_or("malformed influence")?;
    if live.rows() != n || live.cols() != n {
        return Err(format!(
            "influence is {}x{}, graph has {n} nodes",
            live.rows(),
            live.cols()
        ));
    }
    for i in 0..n {
        for k in 0..n {
            let a = live.get(i, k).unwrap_or(f64::NAN).to_bits();
            let b = scratch[(i, k)].to_bits();
            if a != b {
                return Err(format!(
                    "entry ({i},{k}): live {} vs scratch {}",
                    f64::from_bits(a),
                    f64::from_bits(b)
                ));
            }
        }
    }
    Ok(())
}
