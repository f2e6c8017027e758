//! `obsview` — inspector for `fcm-obs` JSONL event logs, offline and
//! live.
//!
//! ```text
//! obsview trace.jsonl                   # one-shot report
//! obsview --follow flight.jsonl        # re-render as the file grows
//! obsview --live 127.0.0.1:7433        # metrics+stats off a daemon
//! obsview diff before.jsonl after.jsonl
//! ```
//!
//! File mode renders, from a log written by `repro --obs-out`, a flight
//! dump, or any [`fcm_obs::export`] producer:
//!
//! * the **span tree** — every root span with its children indented
//!   beneath it, each line showing total wall time and *self* time
//!   (total minus direct children); sibling lists are capped so a
//!   100k-cell sweep stays readable;
//! * a **flamegraph** in collapsed-stack format (`root;child;leaf
//!   <self_ns>`), one line per distinct stack, ready for any external
//!   flamegraph renderer and aggregated across spans with equal stacks;
//! * **flight-recorder events** in seq order (flight dumps), capped;
//! * **histogram summaries** — count/mean/p50/p90/p99/max per recorded
//!   latency distribution;
//! * **counters and gauges** in lexicographic order.
//!
//! `--follow` re-reads the file every `--interval-ms` for `--frames`
//! frames (0 = until interrupted), tolerating a missing file or a
//! mid-write (truncated) tail — it simply waits for the next frame.
//! `--live` connects to an `fcm-serve` daemon (host:port, or a path for
//! a Unix socket) through the `fcm-serve` client helper and renders the
//! wire `metrics` snapshot plus the `stats` SLO block; obsview itself
//! opens no sockets, keeping `srclint`'s net allowlist at the serve
//! crate. `diff` parses two logs and prints per-counter/per-histogram
//! deltas — the quickest answer to "what did this run add".
//!
//! Exit codes follow the repo-wide contract (DESIGN.md): 0 on success
//! (or `--help`), 2 on usage, IO, or parse errors (obsview never
//! panics on malformed input — `EventLog::parse` reports the line, and
//! a file whose final line is cut off mid-write is called out as
//! truncated rather than merely unparseable).

use std::collections::BTreeMap;
use std::path::PathBuf;

use fcm_obs::{EventLog, Histogram, LoggedSpan, MetricsSnapshot};
use fcm_serve::gen::run_script;
use fcm_serve::server::Listen;
use fcm_substrate::Json;

/// Sibling spans rendered per parent before eliding the rest.
const MAX_CHILDREN: usize = 12;
/// Tree depth bound (cycle guard for corrupt parent links).
const MAX_DEPTH: usize = 64;
/// Flight events rendered before eliding the middle.
const MAX_EVENTS: usize = 100;

fn usage(out: &mut dyn std::io::Write) {
    let _ = writeln!(out, "usage: obsview <log.jsonl>");
    let _ = writeln!(
        out,
        "       obsview --follow <log.jsonl> [--frames N] [--interval-ms MS]"
    );
    let _ = writeln!(
        out,
        "       obsview --live <ADDR> [--frames N] [--interval-ms MS]"
    );
    let _ = writeln!(out, "       obsview diff <a.jsonl> <b.jsonl>");
    let _ = writeln!(
        out,
        "  renders the span tree, collapsed-stack flamegraph, flight"
    );
    let _ = writeln!(
        out,
        "  events, and histogram summaries of an fcm-obs event log;"
    );
    let _ = writeln!(
        out,
        "  --follow tails a file, --live polls a running fcm-serve"
    );
    let _ = writeln!(
        out,
        "  daemon (host:port for TCP, a path for a Unix socket), and"
    );
    let _ = writeln!(
        out,
        "  diff prints counter/histogram deltas between two logs"
    );
    let _ = writeln!(
        out,
        "  (--frames 0 = until interrupted; default 1 frame / 1000 ms)"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage(&mut std::io::stdout());
        std::process::exit(0);
    }

    let mut live: Option<String> = None;
    let mut follow: Option<String> = None;
    let mut frames: u64 = 1;
    let mut interval_ms: u64 = 1000;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| match it.next() {
            Some(v) => v.clone(),
            None => {
                eprintln!("obsview: {flag} requires a value");
                std::process::exit(2);
            }
        };
        match arg.as_str() {
            "--live" => live = Some(value("--live")),
            "--follow" => follow = Some(value("--follow")),
            "--frames" => {
                frames = value("--frames").parse().unwrap_or_else(|_| {
                    eprintln!("obsview: --frames requires a non-negative integer");
                    std::process::exit(2);
                });
            }
            "--interval-ms" => {
                interval_ms = value("--interval-ms").parse().unwrap_or_else(|_| {
                    eprintln!("obsview: --interval-ms requires a non-negative integer");
                    std::process::exit(2);
                });
            }
            other if other.starts_with("--") => {
                eprintln!("obsview: unknown flag \"{other}\"");
                usage(&mut std::io::stderr());
                std::process::exit(2);
            }
            p => positional.push(p.to_string()),
        }
    }

    match (live, follow, positional.as_slice()) {
        (Some(addr), None, []) => run_live(&addr, frames, interval_ms),
        (None, Some(path), []) => run_follow(&path, frames, interval_ms),
        (None, None, [cmd, a, b]) if cmd == "diff" => run_diff(a, b),
        (None, None, [path]) if path != "diff" => {
            let text = read_or_exit(path);
            let log = parse_or_exit(path, &text);
            print!("{}", render(&log));
        }
        _ => {
            usage(&mut std::io::stderr());
            std::process::exit(2);
        }
    }
}

fn read_or_exit(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("obsview: cannot read {path}: {e}");
        std::process::exit(2);
    })
}

/// Parse, distinguishing a *truncated* trailing line — no final
/// newline and a tail that is not valid JSON, the signature of a
/// writer that died mid-line — from ordinary corruption.
fn parse_or_exit(path: &str, text: &str) -> EventLog {
    match EventLog::parse(text) {
        Ok(log) => log,
        Err(e) => {
            if tail_is_truncated(text) {
                let tail = text.lines().last().unwrap_or("");
                let shown: String = tail.chars().take(40).collect();
                eprintln!(
                    "obsview: {path}: trailing line is truncated (writer died mid-line?): \"{shown}…\""
                );
                eprintln!("obsview: drop the final line to inspect the intact prefix");
            } else {
                eprintln!("obsview: {path}: {e}");
            }
            std::process::exit(2);
        }
    }
}

fn tail_is_truncated(text: &str) -> bool {
    !text.is_empty()
        && !text.ends_with('\n')
        && text
            .lines()
            .last()
            .is_some_and(|l| Json::parse(l.trim()).is_err())
}

fn run_follow(path: &str, frames: u64, interval_ms: u64) {
    let mut frame = 0u64;
    loop {
        frame += 1;
        match std::fs::read_to_string(path) {
            Err(_) => println!("obsview: waiting for {path} (frame {frame})"),
            Ok(text) => match EventLog::parse(&text) {
                Ok(log) => {
                    println!("== frame {frame}: {path} ==");
                    print!("{}", render(&log));
                }
                // A tail mid-write is expected while following; wait.
                Err(_) if tail_is_truncated(&text) => {
                    println!("obsview: {path} mid-write, retrying (frame {frame})");
                }
                Err(e) => {
                    eprintln!("obsview: {path}: {e}");
                    std::process::exit(2);
                }
            },
        }
        if frames > 0 && frame >= frames {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

fn run_live(addr: &str, frames: u64, interval_ms: u64) {
    let target = if addr.contains(':') {
        Listen::Tcp(addr.to_string())
    } else {
        Listen::Unix(PathBuf::from(addr))
    };
    let mut frame = 0u64;
    loop {
        frame += 1;
        match fetch_live(&target) {
            Ok((metrics, stats)) => {
                println!("== frame {frame}: live @ {addr} ==");
                print!("{}", render_live(&metrics, &stats));
            }
            Err(e) => {
                eprintln!("obsview: {addr}: {e}");
                std::process::exit(2);
            }
        }
        if frames > 0 && frame >= frames {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// One `metrics` + `stats` round-trip over the serve-crate client (no
/// sockets opened here).
fn fetch_live(target: &Listen) -> Result<(Json, Json), String> {
    let mut buf = Vec::new();
    run_script(
        target,
        "{\"op\":\"metrics\"}\n{\"op\":\"stats\"}\n",
        &mut buf,
    )?;
    let text = String::from_utf8_lossy(&buf);
    let mut lines = text.lines();
    let _hello = lines.next().ok_or("server closed before hello")?;
    let metrics = Json::parse(lines.next().ok_or("no metrics response")?)
        .map_err(|e| format!("metrics response: {e}"))?;
    let stats = Json::parse(lines.next().ok_or("no stats response")?)
        .map_err(|e| format!("stats response: {e}"))?;
    if metrics.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("metrics rejected: {}", metrics.to_string_compact()));
    }
    Ok((metrics, stats))
}

fn render_live(metrics: &Json, stats: &Json) -> String {
    let mut out = String::new();
    let sget = |k: &str| {
        stats
            .get(k)
            .map_or_else(|| "-".to_string(), Json::to_string_compact)
    };
    out.push_str(&format!(
        "model {} seq {} fcms {} degraded {} (transitions {}, rearm_attempts {})\n",
        sget("model"),
        sget("seq"),
        sget("fcms"),
        sget("degraded"),
        sget("degraded_transitions"),
        sget("rearm_attempts"),
    ));
    out.push_str(&render_slo(metrics.get("slo")));
    match MetricsSnapshot::from_json(metrics) {
        Err(e) => out.push_str(&format!("metrics snapshot unreadable: {e}\n")),
        Ok(snap) => {
            render_hist_table(&mut out, &snap.hists);
            render_counters(&mut out, &snap.counters);
            render_gauges(&mut out, &snap.gauges);
        }
    }
    out
}

/// The `"slo"` block: per-op p50/p99 over the last completed rolling
/// window, or a placeholder while no window has completed.
fn render_slo(slo: Option<&Json>) -> String {
    let Some(slo) = slo else {
        return String::new();
    };
    if *slo == Json::Null {
        return "slo: no completed window yet\n".to_string();
    }
    let mut out = String::new();
    let window = slo.get("window").and_then(Json::as_f64).unwrap_or(0.0);
    out.push_str(&format!("slo (window {window}):"));
    for op in ["apply", "query"] {
        if let Some(part) = slo.get(op) {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let ns = |k: &str| part.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
            out.push_str(&format!(
                "  {op} p50={} p99={} (n={})",
                fmt_ns(ns("p50_ns")),
                fmt_ns(ns("p99_ns")),
                ns("count"),
            ));
        }
    }
    out.push('\n');
    out
}

fn run_diff(a_path: &str, b_path: &str) {
    let a = parse_or_exit(a_path, &read_or_exit(a_path));
    let b = parse_or_exit(b_path, &read_or_exit(b_path));
    print!("{}", render_diff(&a, &b));
}

/// `b − a` over the shared numeric surface: counters by value, hists by
/// count/p99, gauges by value; spans and events by cardinality.
fn render_diff(a: &EventLog, b: &EventLog) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "diff: spans {} -> {}, events {} -> {}, spans_dropped {} -> {}\n",
        a.spans.len(),
        b.spans.len(),
        a.events.len(),
        b.events.len(),
        a.spans_dropped,
        b.spans_dropped,
    ));
    let keys = |am: &BTreeMap<String, u64>, bm: &BTreeMap<String, u64>| -> Vec<String> {
        am.keys()
            .chain(bm.keys())
            .cloned()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect()
    };
    let counter_keys = keys(&a.counters, &b.counters);
    if !counter_keys.is_empty() {
        out.push_str("\n== counters (a -> b, delta) ==\n");
        for name in counter_keys {
            let av = a.counters.get(&name).copied().unwrap_or(0);
            let bv = b.counters.get(&name).copied().unwrap_or(0);
            #[allow(clippy::cast_possible_wrap)]
            let delta = bv as i64 - av as i64;
            out.push_str(&format!("{name:<40} {av:>12} -> {bv:>12}  ({delta:+})\n"));
        }
    }
    let hist_names: std::collections::BTreeSet<String> =
        a.hists.keys().chain(b.hists.keys()).cloned().collect();
    if !hist_names.is_empty() {
        out.push_str("\n== histograms (count a -> b, p99 a -> b) ==\n");
        for name in hist_names {
            let part = |m: &BTreeMap<String, Histogram>| -> (u64, String) {
                m.get(&name).map_or((0, "-".to_string()), |h| {
                    (
                        h.count(),
                        h.quantile(0.99)
                            .map_or_else(|| "-".to_string(), |v| v.to_string()),
                    )
                })
            };
            let (ac, ap) = part(&a.hists);
            let (bc, bp) = part(&b.hists);
            out.push_str(&format!(
                "{name:<28} {ac:>10} -> {bc:>10}   p99 {ap} -> {bp}\n"
            ));
        }
    }
    let gauge_names: std::collections::BTreeSet<String> =
        a.gauges.keys().chain(b.gauges.keys()).cloned().collect();
    if !gauge_names.is_empty() {
        out.push_str("\n== gauges (a -> b) ==\n");
        for name in gauge_names {
            let show = |m: &BTreeMap<String, f64>| {
                m.get(&name).map_or_else(|| "-".to_string(), f64::to_string)
            };
            out.push_str(&format!(
                "{name:<40} {} -> {}\n",
                show(&a.gauges),
                show(&b.gauges)
            ));
        }
    }
    out
}

/// The full report for one parsed log.
fn render(log: &EventLog) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "event log: schema {}, {} spans, {} events, {} counters, {} gauges, {} histograms\n",
        log.schema,
        log.spans.len(),
        log.events.len(),
        log.counters.len(),
        log.gauges.len(),
        log.hists.len()
    ));
    if let Some(reason) = &log.flight {
        out.push_str(&format!("flight dump: reason \"{reason}\"\n"));
    }
    if log.spans_dropped > 0 {
        out.push_str(&format!(
            "warning: {} spans dropped to ring overflow (raise the ring capacity)\n",
            log.spans_dropped
        ));
        for (thread, n) in &log.dropped_by_thread {
            if *n > 0 {
                out.push_str(&format!("  thread {thread}: {n} dropped\n"));
            }
        }
    }
    if log.events_dropped > 0 {
        out.push_str(&format!(
            "warning: {} flight events dropped to ring overflow\n",
            log.events_dropped
        ));
    }
    let tree = SpanTree::build(&log.spans);
    if !log.spans.is_empty() {
        out.push_str("\n== span tree ==\n");
        for &root in &tree.roots {
            render_subtree(&mut out, &tree, root, 0);
        }
        out.push_str("\n== flamegraph (collapsed stacks) ==\n");
        for (stack, self_ns) in tree.collapsed_stacks() {
            out.push_str(&format!("{stack} {self_ns}\n"));
        }
    }
    if !log.events.is_empty() {
        out.push_str("\n== events ==\n");
        let n = log.events.len();
        for (i, ev) in log.events.iter().enumerate() {
            if n > MAX_EVENTS && i == MAX_EVENTS / 2 {
                out.push_str(&format!("… {} events elided …\n", n - MAX_EVENTS));
            }
            if n > MAX_EVENTS && i >= MAX_EVENTS / 2 && i < n - MAX_EVENTS / 2 {
                continue;
            }
            out.push_str(&format!(
                "#{:<6} {:>12}  {:<12} {}\n",
                ev.seq,
                fmt_ns(ev.ts_ns),
                ev.name,
                ev.detail.to_string_compact()
            ));
        }
    }
    render_hist_table(&mut out, &log.hists);
    render_counters(&mut out, &log.counters);
    render_gauges(&mut out, &log.gauges);
    out
}

fn render_hist_table(out: &mut String, hists: &BTreeMap<String, Histogram>) {
    if hists.is_empty() {
        return;
    }
    out.push_str("\n== histograms ==\n");
    out.push_str(&format!(
        "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
        "name", "count", "mean", "p50", "p90", "p99", "max"
    ));
    for (name, h) in hists {
        // Only `*_ns` histograms hold nanoseconds; the rest (e.g.
        // simulated-time latencies) are plain numbers.
        let unit: fn(u64) -> String = if name.ends_with("_ns") {
            fmt_ns
        } else {
            |v| v.to_string()
        };
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        out.push_str(&format!(
            "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            name,
            h.count(),
            h.mean()
                .map_or_else(|| "-".into(), |m| unit(m.round() as u64)),
            quant(h, 0.5, unit),
            quant(h, 0.9, unit),
            quant(h, 0.99, unit),
            h.max().map_or_else(|| "-".into(), unit),
        ));
    }
}

fn render_counters(out: &mut String, counters: &BTreeMap<String, u64>) {
    if counters.is_empty() {
        return;
    }
    out.push_str("\n== counters ==\n");
    for (name, v) in counters {
        out.push_str(&format!("{name:<40} {v}\n"));
    }
}

fn render_gauges(out: &mut String, gauges: &BTreeMap<String, f64>) {
    if gauges.is_empty() {
        return;
    }
    out.push_str("\n== gauges ==\n");
    for (name, v) in gauges {
        out.push_str(&format!("{name:<40} {v}\n"));
    }
}

fn quant(h: &Histogram, q: f64, unit: fn(u64) -> String) -> String {
    h.quantile(q).map_or_else(|| "-".into(), unit)
}

/// Parent/child index over a span list.
struct SpanTree<'a> {
    spans: &'a [LoggedSpan],
    /// Indices of root spans (parent 0 or unknown), in file order.
    roots: Vec<usize>,
    /// Direct children (indices) per span index, in file order.
    children: Vec<Vec<usize>>,
}

impl<'a> SpanTree<'a> {
    fn build(spans: &'a [LoggedSpan]) -> SpanTree<'a> {
        let by_id: BTreeMap<u64, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut roots = Vec::new();
        let mut children = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            match by_id.get(&s.parent) {
                // A self-parent (corrupt link) still counts as a root.
                Some(&p) if s.parent != 0 && p != i => children[p].push(i),
                _ => roots.push(i),
            }
        }
        SpanTree {
            spans,
            roots,
            children,
        }
    }

    /// Total minus direct children (clamped at 0 for clock skew).
    fn self_ns(&self, i: usize) -> u64 {
        let kids: u64 = self.children[i]
            .iter()
            .map(|&c| self.spans[c].total_ns())
            .sum();
        self.spans[i].total_ns().saturating_sub(kids)
    }

    /// `root;child;leaf -> self_ns` aggregated over equal stacks, in
    /// lexicographic stack order.
    fn collapsed_stacks(&self) -> BTreeMap<String, u64> {
        let mut stacks = BTreeMap::new();
        for &root in &self.roots {
            self.collect_stacks(root, String::new(), 0, &mut stacks);
        }
        stacks
    }

    fn collect_stacks(
        &self,
        i: usize,
        prefix: String,
        depth: usize,
        out: &mut BTreeMap<String, u64>,
    ) {
        if depth >= MAX_DEPTH {
            return;
        }
        let stack = if prefix.is_empty() {
            self.spans[i].name.clone()
        } else {
            format!("{prefix};{}", self.spans[i].name)
        };
        *out.entry(stack.clone()).or_insert(0) += self.self_ns(i);
        for &c in &self.children[i] {
            self.collect_stacks(c, stack.clone(), depth + 1, out);
        }
    }
}

fn render_subtree(out: &mut String, tree: &SpanTree<'_>, i: usize, depth: usize) {
    if depth >= MAX_DEPTH {
        return;
    }
    let s = &tree.spans[i];
    let label = match s.idx {
        Some(idx) => format!("{}#{idx}", s.name),
        None => s.name.clone(),
    };
    out.push_str(&format!(
        "{:indent$}{label}  total={} self={} (thread {})\n",
        "",
        fmt_ns(s.total_ns()),
        fmt_ns(tree.self_ns(i)),
        s.thread,
        indent = depth * 2,
    ));
    let kids = &tree.children[i];
    for &c in kids.iter().take(MAX_CHILDREN) {
        render_subtree(out, tree, c, depth + 1);
    }
    if kids.len() > MAX_CHILDREN {
        let elided = &kids[MAX_CHILDREN..];
        let total: u64 = elided.iter().map(|&c| tree.spans[c].total_ns()).sum();
        out.push_str(&format!(
            "{:indent$}… {} more siblings  total={}\n",
            "",
            elided.len(),
            fmt_ns(total),
            indent = (depth + 1) * 2,
        ));
    }
}

fn fmt_ns(ns: u64) -> String {
    #[allow(clippy::cast_precision_loss)]
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.3}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}
