//! The traced run's per-layer figures.
//!
//! Spans are recorded from this benchmark's own code around each call
//! into a layer's public functions, with `fcm-obs` so the written JSONL
//! renders in `obsview`. Spans of one request share its id (`idx`). A
//! serving workload's request log is re-executed in-process, layer by
//! layer, the way the daemon's writer and connection threads execute it:
//! `proto::parse_line`, `LiveModel::apply`/`query`, `Store::append`,
//! `LiveModel::state_json` plus `Store::snapshot` every 64 mutations,
//! and `proto::render_response`. The design sweep runs its cells under
//! spans around the catalog, separation and heuristic calls. Each is run
//! once untraced and once traced; the difference is the tracing overhead.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use fcm_check::{CertView, Certifier, ContractSet, Dirty};
use fcm_graph::InfluenceMatrix;
use fcm_obs::{EventLog, LoggedSpan, ObsConfig};
use fcm_serve::proto::{self, Mutation, Query, Request};
use fcm_serve::store::{self, Store};
use fcm_serve::LiveModel;
use fcm_substrate::Json;

use crate::net::Req;
use crate::stats::{median, pct, slope, Outcome};
use crate::sweep::{self, Cell};

/// Requests replayed after the growth prefix (serving logs are longer).
const REPLAY_CAP: usize = 20_000;
/// Snapshot period of the daemon's production default.
const SNAPSHOT_EVERY: u64 = 64;
/// Span ring per thread: large enough that no replay drops spans.
const RING: usize = 1 << 20;

/// Re-executes `log` on a fresh paper model with a store in `dir`.
/// `sizes` collects the FCM count before each add.
fn replay(log: &[Req], dir: &Path, sizes: &mut Vec<f64>) -> Result<(LiveModel, Store), String> {
    let mut model = LiveModel::new("paper")?;
    let mut store = Store::create_fresh(dir)?;
    let mut since = 0u64;
    for (id, r) in log.iter().enumerate() {
        let id = id as u64;
        let _root = fcm_obs::span_idx("request", id);
        let (rid, parsed) = {
            let _s = fcm_obs::span_idx("proto.parse_line", id);
            proto::parse_line(&r.line)
        };
        let result = match parsed {
            Ok(Request::Mutation(m)) => {
                let name = match m {
                    Mutation::AddFcm { .. } => {
                        sizes.push(model.fcm_count() as f64);
                        "model.apply.add_fcm"
                    }
                    Mutation::RemoveFcm { .. } => "model.apply.remove_fcm",
                    Mutation::SetAttr { .. } => "model.apply.set_attr",
                    _ => "model.apply.other",
                };
                let res = {
                    let _s = fcm_obs::span_idx(name, id);
                    model.apply(&m)
                };
                if res.is_ok() {
                    {
                        let _s = fcm_obs::span_idx("store.append", id);
                        store.append(model.seq(), &m)?;
                    }
                    since += 1;
                    if since >= SNAPSHOT_EVERY {
                        let state = {
                            let _s = fcm_obs::span_idx("model.state_json", id);
                            model.state_json()
                        };
                        let _s = fcm_obs::span_idx("store.snapshot", id);
                        store.snapshot(model.seq(), &state)?;
                        since = 0;
                    }
                }
                res
            }
            Ok(Request::Query(q)) => {
                let name = match q {
                    Query::Influence { .. } | Query::Separation { .. } => "model.query.point",
                    _ => "model.query.other",
                };
                let _s = fcm_obs::span_idx(name, id);
                model.query(&q)
            }
            Ok(Request::Subscribe(_)) => Err("subscribe is not part of a workload".to_string()),
            Err(e) => Err(e),
        };
        if let Err(e) = &result {
            return Err(format!("replayed request {id} failed: {e}: {}", r.line));
        }
        let line = {
            let _s = fcm_obs::span_idx("proto.render_response", id);
            proto::render_response(rid.as_ref(), &result)
        };
        black_box(line);
    }
    Ok((model, store))
}

/// Span durations grouped by name, and self time grouped by layer (the
/// span name's first segment).
struct SpanStats {
    by_name: BTreeMap<String, Vec<f64>>,
    self_ms: BTreeMap<String, f64>,
    /// Total of the root spans named `root`, and how much of it their
    /// direct children cover.
    root_ms: f64,
    covered_ms: f64,
}

fn span_stats(log: &EventLog, root: &str) -> SpanStats {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in &log.spans {
        *child_ns.entry(s.parent).or_default() += s.total_ns();
    }
    let mut st = SpanStats {
        by_name: BTreeMap::new(),
        self_ms: BTreeMap::new(),
        root_ms: 0.0,
        covered_ms: 0.0,
    };
    for s in &log.spans {
        let total = s.total_ns();
        let children = child_ns.get(&s.id).copied().unwrap_or(0);
        st.by_name
            .entry(s.name.clone())
            .or_default()
            .push(total as f64);
        let layer = s.name.split('.').next().unwrap_or("").to_string();
        *st.self_ms.entry(layer).or_default() += total.saturating_sub(children) as f64 / 1e6;
        if s.name == root {
            st.root_ms += total as f64 / 1e6;
            st.covered_ms += children.min(total) as f64 / 1e6;
        }
    }
    st
}

impl SpanStats {
    fn ns(&self, name: &str) -> &[f64] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Percentile of one span's durations in `unit_ns` units.
    fn put_pct(
        &self,
        out: &mut Outcome,
        metric: &str,
        span: &str,
        p: f64,
        unit_ns: f64,
        unit: &'static str,
    ) {
        let v = self.ns(span);
        out.put(metric, pct(v, p) / unit_ns, unit, v.len() as u64);
    }

    fn put_total(&self, out: &mut Outcome, metric: &str, spans: &[&str]) {
        let v: Vec<f64> = spans
            .iter()
            .flat_map(|s| self.ns(s).iter().copied())
            .collect();
        out.put(metric, v.iter().sum::<f64>() / 1e6, "ms", v.len() as u64);
    }

    fn put_trace(&self, out: &mut Outcome, layers: &[&str], untraced_ms: f64, traced_ms: f64) {
        for layer in layers {
            let v = self.self_ms.get(*layer).copied().unwrap_or(0.0);
            out.put(&format!("trace.self.{layer}_ms"), v, "ms", 1);
        }
        out.put_note(
            "trace.closure_frac",
            self.covered_ms / self.root_ms.max(1e-9),
            "ratio",
            1,
            format!("base: {:.3} ms of root spans", self.root_ms),
        );
        out.put_note(
            "trace.overhead_frac",
            (traced_ms - untraced_ms) / untraced_ms.max(1e-9),
            "ratio",
            1,
            format!("base: untraced {untraced_ms:.3} ms, traced {traced_ms:.3} ms"),
        );
    }
}

/// Starts recording spans and metrics in this process.
fn trace_on() {
    fcm_obs::init(ObsConfig {
        ring_capacity: RING,
    });
    fcm_obs::set_enabled(true);
}

/// Stops recording, writes the JSONL where `obsview` can read it, and
/// parses it back.
fn trace_off(name: &str, out: &mut Outcome) -> Result<EventLog, String> {
    fcm_obs::set_enabled(false);
    let text = fcm_obs::export::render_jsonl();
    let path = crate::trace_dir().join(format!("trace-{name}.jsonl"));
    std::fs::write(&path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
    let log = EventLog::parse(&text)?;
    out.check(
        "trace_complete",
        log.spans_dropped == 0,
        format!(
            "{} spans dropped, log at {}",
            log.spans_dropped,
            path.display()
        ),
    );
    Ok(log)
}

fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        black_box(f());
        v.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&v)
}

fn file_len(p: &Path) -> f64 {
    std::fs::metadata(p).map_or(0.0, |m| m.len() as f64)
}

/// Probes on the replayed final state: public calls of the store,
/// substrate, model, alloc and check layers. These are costs of calls a
/// mutation makes, timed on the live state, not spans of `apply`.
fn state_probes(model: &LiveModel, store: &mut Store, out: &mut Outcome) -> Result<(), String> {
    let state = model.state_json();
    out.put(
        "model.state_json_ms",
        time_ms(3, || model.state_json()),
        "ms",
        3,
    );
    store.snapshot(model.seq(), &state)?;
    let dir = store.dir().to_path_buf();
    let snap_path = dir.join("snapshot.json");
    out.put("store.snapshot_bytes", file_len(&snap_path), "bytes", 1);
    let text = std::fs::read_to_string(&snap_path).map_err(|e| format!("read snapshot: {e}"))?;
    out.put(
        "substrate.json_parse_ms",
        time_ms(1, || Json::parse(&text)),
        "ms",
        1,
    );
    out.put(
        "model.from_state_ms",
        time_ms(1, || LiveModel::from_state(&state)),
        "ms",
        1,
    );
    out.put(
        "store.read_recovered_ms",
        time_ms(1, || store::read_recovered(&dir)),
        "ms",
        1,
    );

    let g = model.graph();
    out.put("alloc.sw_clone_us", time_ms(5, || g.clone()) * 1e3, "us", 5);
    out.put(
        "check.preflight_us",
        time_ms(3, || fcm_check::gates::check_sw_graph(g)) * 1e3,
        "us",
        3,
    );
    let names: Vec<String> = g.nodes().map(|(_, n)| n.name.clone()).collect();
    let crits: Vec<u32> = g.nodes().map(|(_, n)| n.attributes.criticality.0).collect();
    let influence = state
        .get("influence")
        .and_then(InfluenceMatrix::from_state_json)
        .ok_or("state lacks a readable influence matrix")?;
    let contracts = match state.get("contracts") {
        Some(c) => ContractSet::from_json(c)?,
        None => ContractSet::new(),
    };
    let view = CertView {
        model: model.name(),
        names: &names,
        crits: &crits,
        influence: &influence,
        contracts: &contracts,
    };
    let mut certifier = Certifier::new();
    out.put_note(
        "check.certify_full_us",
        time_ms(3, || Certifier::new().certify(&view, Dirty::Full, 1)) * 1e3,
        "us",
        3,
        format!("{} contracts over {} FCMs", contracts.len(), names.len()),
    );
    certifier.certify(&view, Dirty::Full, 1);
    let last = [names.len().saturating_sub(1)];
    out.put(
        "check.certify_rows_us",
        time_ms(3, || certifier.certify(&view, Dirty::Rows(&last), 1)) * 1e3,
        "us",
        3,
    );
    Ok(())
}

/// Per-layer figures of a serving workload: its request log (the growth
/// prefix in full, then up to `REPLAY_CAP` more requests) re-executed
/// in-process, traced and then untraced.
pub fn serve_layers(
    name: &str,
    log: &[Req],
    prefix: usize,
    work: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let log = &log[..log.len().min(prefix + REPLAY_CAP)];
    // Traced first: the untraced pass then runs on warm caches, so the
    // overhead estimate errs high rather than low.
    let mut sizes = Vec::new();
    trace_on();
    let t = Instant::now();
    let (model, mut store) = replay(log, &work.join("replay_traced"), &mut sizes)?;
    let traced_ms = t.elapsed().as_secs_f64() * 1e3;
    fcm_obs::set_enabled(false);
    let t = Instant::now();
    replay(log, &work.join("replay_untraced"), &mut Vec::new())?;
    let untraced_ms = t.elapsed().as_secs_f64() * 1e3;
    let appended = model.seq() as f64;
    state_probes(&model, &mut store, out)?;
    let journal = file_len(&store.dir().join("journal.jsonl"));
    let log_spans = trace_off(name, out)?;
    out.count(log.len() as u64, 0);

    let st = span_stats(&log_spans, "request");
    st.put_pct(
        out,
        "proto.parse_us.p50",
        "proto.parse_line",
        50.0,
        1e3,
        "us",
    );
    st.put_pct(
        out,
        "proto.render_us.p50",
        "proto.render_response",
        50.0,
        1e3,
        "us",
    );
    st.put_pct(
        out,
        "model.add_fcm_us.p50",
        "model.apply.add_fcm",
        50.0,
        1e3,
        "us",
    );
    st.put_pct(
        out,
        "model.add_fcm_us.p99",
        "model.apply.add_fcm",
        99.0,
        1e3,
        "us",
    );
    st.put_pct(
        out,
        "model.remove_fcm_us.p50",
        "model.apply.remove_fcm",
        50.0,
        1e3,
        "us",
    );
    st.put_pct(
        out,
        "model.set_attr_us.p50",
        "model.apply.set_attr",
        50.0,
        1e3,
        "us",
    );
    st.put_pct(
        out,
        "model.query_point_us.p50",
        "model.query.point",
        50.0,
        1e3,
        "us",
    );
    st.put_pct(out, "store.append_us.p50", "store.append", 50.0, 1e3, "us");
    st.put_pct(out, "store.append_us.p99", "store.append", 99.0, 1e3, "us");
    st.put_pct(out, "store.snapshot_ms", "store.snapshot", 50.0, 1e6, "ms");
    let adds = st.ns("model.apply.add_fcm");
    let points: Vec<(f64, f64)> = sizes.iter().copied().zip(adds.iter().copied()).collect();
    let (lo, hi) = sizes
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &n| (lo.min(n), hi.max(n)));
    out.put_note(
        "model.add_fcm.ns_per_fcm",
        slope(&points),
        "ns",
        points.len() as u64,
        format!("slope of add cost over n = {lo}..{hi}"),
    );
    out.put_note(
        "store.journal_bytes_per_mutation",
        journal / appended.max(1.0),
        "bytes",
        appended as u64,
        format!("base: {journal} journal bytes over {appended} mutations"),
    );
    st.put_trace(
        out,
        &["request", "proto", "model", "store"],
        untraced_ms,
        traced_ms,
    );
    Ok(())
}

/// Per-layer figures of the design sweep: one untraced and one traced
/// sweep over the same cells.
pub fn sweep_layers(
    name: &str,
    cells: &[Cell],
    threads: usize,
    untraced_s: f64,
    reference: &str,
    out: &mut Outcome,
) -> Result<(), String> {
    trace_on();
    let (outs, traced_s) = sweep::sweep(cells, threads);
    let log = trace_off(name, out)?;
    sweep::check_sweep(out, &outs, reference);

    let st = span_stats(&log, "eval.sweep.cell");
    st.put_pct(
        out,
        "check.catalog_us.p50",
        "check.catalog",
        50.0,
        1e3,
        "us",
    );
    st.put_total(out, "alloc.h1_ms", &["alloc.h1"]);
    st.put_total(out, "alloc.h1_pair_all_ms", &["alloc.h1_pair_all"]);
    st.put_total(
        out,
        "alloc.h2_ms",
        &["alloc.h2_largest", "alloc.h2_heaviest"],
    );
    st.put_total(out, "alloc.h2_st_ms", &["alloc.h2_st"]);
    st.put_total(out, "alloc.h3_ms", &["alloc.h3"]);
    st.put_total(out, "core.separation_ms", &["core.separation"]);
    let largest = cells.iter().map(|c| c.n).max().unwrap_or(0);
    let n64: Vec<f64> = log
        .spans
        .iter()
        .filter(|s| s.name == "alloc.h3" && s.idx.is_some_and(|i| cells[i as usize].n == largest))
        .map(|s| LoggedSpan::total_ns(s) as f64 / 1e6)
        .collect();
    out.put_note(
        "alloc.h3_top_ms.p50",
        median(&n64),
        "ms",
        n64.len() as u64,
        format!("H3 on the {largest}-node models"),
    );
    let merges = log
        .counters
        .get("alloc.pipeline.merges")
        .copied()
        .unwrap_or(0);
    out.put("alloc.merges", merges as f64, "count", 1);
    let infeasible: u64 = outs.iter().map(|o| o.infeasible).sum();
    out.put("alloc.infeasible", infeasible as f64, "count", 1);
    st.put_pct(out, "eval.cell_ms.p50", "eval.sweep.cell", 50.0, 1e6, "ms");
    st.put_pct(out, "eval.cell_ms.max", "eval.sweep.cell", 100.0, 1e6, "ms");
    let busy_ms: f64 = st.ns("eval.sweep.cell").iter().sum::<f64>() / 1e6;
    let thread_ms = threads as f64 * traced_s * 1e3;
    out.put_note(
        "eval.idle_frac",
        1.0 - busy_ms / thread_ms.max(1e-9),
        "ratio",
        1,
        format!("base: {thread_ms:.3} thread-ms ({threads} threads), {busy_ms:.3} ms in cells"),
    );
    let steals: u64 = log
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("pool.steal."))
        .map(|(_, v)| v)
        .sum();
    out.put("substrate.pool.steals", steals as f64, "count", 1);
    st.put_trace(
        out,
        &["eval", "check", "core", "alloc"],
        untraced_s * 1e3,
        traced_s * 1e3,
    );
    Ok(())
}
