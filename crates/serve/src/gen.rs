//! Deterministic load generation: the engine behind the `servegen` bin
//! and the `serve_latency` bench.
//!
//! Two modes:
//!
//! * **Script** ([`run_script`]) — replay a fixed request file against a
//!   daemon and print the hello plus every response line verbatim. The
//!   output is a transcript suitable for golden-file comparison
//!   (`scripts/verify.sh` pins one).
//! * **Load** ([`run_load`]) — an open-loop generator: each client
//!   thread derives its own [`Rng`] stream from the base seed, computes
//!   the request schedule up front (`i / rate` spacing), and issues a
//!   seeded mutation/query mix, recording wall-clock round-trip
//!   latencies. Open loop means a slow server cannot slow the *offered*
//!   rate down — send times are anchored to the start instant and the
//!   sender never waits for a response (requests pipeline on the
//!   connection; a paired reader thread matches the in-order responses
//!   back to their send instants), so latency spikes show up as
//!   queueing delay rather than being hidden by coordinated omission.
//!
//! Determinism: the request *sequence* per client is a pure function of
//! `(seed, client index)`; only the measured latencies vary run to run.
//!
//! A third mode rides on load: `--subscribe N` attaches N event
//! subscribers for the duration of the run. Each one checks the exact
//! drop-accounting identity on its stream — for consecutive deliveries
//! `a` then `b`, `b.eseq − a.eseq − 1 == b.dropped − a.dropped` — so a
//! load run doubles as an end-to-end proof that overwrite-oldest
//! backpressure loses exactly what it says it loses. And
//! [`run_subscribe_transcript`] is the deterministic variant behind the
//! `scripts/serve_subscribe.golden` gate: subscribe first (eseq 0),
//! drive a fixed mutation script from a second session, and print the
//! ack plus every event line verbatim.

use std::io::{BufRead, BufReader, Write};
use std::time::{Duration, Instant};

use fcm_substrate::{Json, Rng};

use crate::server::{connect, Listen};

/// Load-mode parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Offered request rate, requests/second across all clients.
    pub rate: u64,
    /// Concurrent client connections.
    pub clients: usize,
    /// Run length in milliseconds.
    pub duration_ms: u64,
    /// Base RNG seed (client `i` uses `Rng::stream(seed, i)`).
    pub seed: u64,
    /// Percent of requests that are mutations (0..=100); the rest are
    /// queries.
    pub mutation_pct: u8,
    /// Event subscribers attached for the duration of the run (0 =
    /// none). Each validates the eseq/dropped gap identity on its
    /// stream.
    pub subscribers: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            rate: 1000,
            clients: 4,
            duration_ms: 2000,
            seed: 42,
            mutation_pct: 20,
            subscribers: 0,
        }
    }
}

/// Aggregated result of a load run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests sent (and answered).
    pub sent: u64,
    /// Responses with `"ok":false` (domain rejections are expected under
    /// a random mix — e.g. removing an already-removed FCM).
    pub errors: u64,
    /// Mutation round-trip latencies, ns.
    pub mutation_ns: Vec<u64>,
    /// Query round-trip latencies, ns.
    pub query_ns: Vec<u64>,
    /// Wall-clock run length, ns.
    pub elapsed_ns: u64,
    /// Events delivered across all subscribers.
    pub events_delivered: u64,
    /// Events dropped (overwrite-oldest) across all subscribers.
    pub events_dropped: u64,
}

/// Exact percentile (nearest-rank) over an unsorted sample; 0 when empty.
#[must_use]
pub fn percentile_ns(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Replays `script` (one request per line; blank lines and `#` comments
/// skipped) against the daemon, writing the hello line and every
/// response to `out` verbatim.
///
/// # Errors
///
/// Connection or I/O failure (exit-code-2 class); individual request
/// rejections are *not* errors — they land in the transcript.
pub fn run_script(target: &Listen, script: &str, out: &mut dyn Write) -> Result<(), String> {
    let stream = connect(target)?;
    let mut tx = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let mut lines = BufReader::new(stream).lines();
    let hello = lines
        .next()
        .ok_or("server closed before hello")?
        .map_err(|e| format!("read hello: {e}"))?;
    writeln!(out, "{hello}").map_err(|e| format!("write transcript: {e}"))?;
    for req in script.lines() {
        let req = req.trim();
        if req.is_empty() || req.starts_with('#') {
            continue;
        }
        tx.write_all(req.as_bytes())
            .and_then(|()| tx.write_all(b"\n"))
            .map_err(|e| format!("send request: {e}"))?;
        let resp = lines
            .next()
            .ok_or("server closed mid-session")?
            .map_err(|e| format!("read response: {e}"))?;
        writeln!(out, "{resp}").map_err(|e| format!("write transcript: {e}"))?;
    }
    Ok(())
}

/// Replays `script` mutations from a second session while a
/// subscription opened *first* (so its events start at eseq 0) streams
/// to `out`: the hello, the subscribe ack, then every event line
/// through the `max_events` end marker, all verbatim. Every byte is a
/// pure function of (model, script, server event cadence), which is
/// what lets scripts/verify.sh pin the output as a golden file.
///
/// # Errors
///
/// Connection or I/O failure, a rejected subscribe, or a server that
/// closes mid-stream (all exit-code-2 class).
pub fn run_subscribe_transcript(
    target: &Listen,
    script: &str,
    max_events: u64,
    out: &mut dyn Write,
) -> Result<(), String> {
    let stream = connect(target)?;
    let mut tx = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let mut lines = BufReader::new(stream).lines();
    let hello = lines
        .next()
        .ok_or("server closed before hello")?
        .map_err(|e| format!("read hello: {e}"))?;
    writeln!(out, "{hello}").map_err(|e| format!("write transcript: {e}"))?;
    let sub_req = format!("{{\"op\":\"subscribe\",\"max_events\":{max_events}}}\n");
    tx.write_all(sub_req.as_bytes())
        .map_err(|e| format!("send subscribe: {e}"))?;
    let ack = lines
        .next()
        .ok_or("server closed before subscribe ack")?
        .map_err(|e| format!("read ack: {e}"))?;
    writeln!(out, "{ack}").map_err(|e| format!("write transcript: {e}"))?;
    let parsed = Json::parse(&ack).map_err(|e| format!("subscribe ack: {e}"))?;
    if parsed.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("subscribe rejected: {ack}"));
    }
    // Drive the mutations from a second session; its responses are not
    // part of the subscription transcript.
    run_script(target, script, &mut std::io::sink())?;
    loop {
        let line = lines
            .next()
            .ok_or("server closed mid-stream")?
            .map_err(|e| format!("read event: {e}"))?;
        writeln!(out, "{line}").map_err(|e| format!("write transcript: {e}"))?;
        let ev = Json::parse(&line).map_err(|e| format!("event line: {e}"))?;
        if ev.get("event").and_then(Json::as_str) == Some("end") {
            return Ok(());
        }
    }
}

/// Reads a `u64` field off an event/ack line.
fn event_u64(j: &Json, key: &str) -> Result<u64, String> {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let v = j.get(key).and_then(Json::as_f64).map(|v| v as u64);
    v.ok_or_else(|| format!("event line missing \"{key}\": {}", j.to_string_compact()))
}

/// One load-run subscriber: the stream handle (shut down by the load
/// driver once the run ends) plus the thread validating the event
/// stream; the thread resolves to `(delivered, dropped)`.
struct SubWorker {
    stream: crate::server::Stream,
    thread: std::thread::JoinHandle<Result<(u64, u64), String>>,
}

/// Attaches one subscriber and spawns its validation thread: every
/// delivered event must satisfy the exact drop-accounting identity
/// (gap in eseq == growth in `dropped` — see `crate::events`).
fn spawn_subscriber(target: &Listen) -> Result<SubWorker, String> {
    let stream = connect(target)?;
    let reader = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let mut tx = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let thread = std::thread::spawn(move || -> Result<(u64, u64), String> {
        let mut lines = BufReader::new(reader).lines();
        lines
            .next()
            .ok_or("server closed before hello")?
            .map_err(|e| e.to_string())?;
        tx.write_all(b"{\"op\":\"subscribe\"}\n")
            .map_err(|e| e.to_string())?;
        let ack_line = lines
            .next()
            .ok_or("no subscribe ack")?
            .map_err(|e| e.to_string())?;
        let ack = Json::parse(&ack_line).map_err(|e| format!("subscribe ack: {e}"))?;
        if ack.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("subscribe rejected: {ack_line}"));
        }
        let next_eseq = event_u64(&ack, "next_eseq")?;
        let mut prev: Option<(u64, u64)> = None;
        let mut delivered = 0u64;
        let mut dropped = 0u64;
        // Drain until the load driver shuts the socket down.
        for line in lines {
            let Ok(line) = line else { break };
            let j = Json::parse(&line).map_err(|e| format!("event line: {e}"))?;
            let eseq = event_u64(&j, "eseq")?;
            let drops = event_u64(&j, "dropped")?;
            let consistent = match prev {
                None => eseq.checked_sub(next_eseq) == drops.checked_sub(0),
                Some((pe, pd)) => eseq
                    .checked_sub(pe + 1)
                    .zip(drops.checked_sub(pd))
                    .is_some_and(|(gap, d)| gap == d),
            };
            if !consistent {
                return Err(format!(
                    "drop accounting violated: eseq {eseq} dropped {drops} after {prev:?} (subscribed at {next_eseq})"
                ));
            }
            prev = Some((eseq, drops));
            delivered += 1;
            dropped = drops;
        }
        Ok((delivered, dropped))
    });
    Ok(SubWorker { stream, thread })
}

/// One client's deterministic request generator.
struct ClientMix {
    rng: Rng,
    /// FCM names this client added and has not yet removed.
    own: Vec<String>,
    /// Base-model FCM names (query/edge targets).
    base: Vec<String>,
    client: usize,
    created: u64,
    mutation_pct: u8,
}

impl ClientMix {
    fn next_request(&mut self) -> (String, bool) {
        let is_mutation = self.rng.gen_range(0u64..100) < u64::from(self.mutation_pct);
        let pick = |rng: &mut Rng, pool: &[String]| -> String {
            pool[rng.gen_range(0usize..pool.len())].clone()
        };
        if is_mutation {
            let roll = self.rng.gen_range(0u64..100);
            if roll < 10 {
                // Add a leaf FCM influencing one base node — unless this
                // client already carries its cap, in which case remove
                // one instead. The cap keeps the model at a steady-state
                // size: without it the per-client set random-walks
                // upward and apply cost (gate + matrix growth) climbs
                // over the run, conflating model growth with server
                // throughput.
                if self.own.len() >= 8 {
                    let name = self.own.pop().expect("cap reached implies non-empty");
                    return (format!(r#"{{"op":"remove_fcm","name":"{name}"}}"#), true);
                }
                let name = format!("g{}_{}", self.client, self.created);
                self.created += 1;
                let to = pick(&mut self.rng, &self.base);
                let w = self.rng.gen_range(0.01f64..0.5);
                self.own.push(name.clone());
                (
                    format!(
                        r#"{{"op":"add_fcm","name":"{name}","criticality":{},"influences":[["{to}",{w}]]}}"#,
                        self.rng.gen_range(0u64..3)
                    ),
                    true,
                )
            } else if roll < 20 {
                match self.own.pop() {
                    Some(name) => (format!(r#"{{"op":"remove_fcm","name":"{name}"}}"#), true),
                    None => self.set_attr(),
                }
            } else {
                self.set_attr()
            }
        } else {
            let roll = self.rng.gen_range(0u64..100);
            let from = pick(&mut self.rng, &self.base);
            let to = pick(&mut self.rng, &self.base);
            if roll < 45 {
                (
                    format!(r#"{{"op":"influence","from":"{from}","to":"{to}"}}"#),
                    false,
                )
            } else if roll < 90 {
                (
                    format!(r#"{{"op":"separation","from":"{from}","to":"{to}"}}"#),
                    false,
                )
            } else {
                (r#"{"op":"stats"}"#.to_string(), false)
            }
        }
    }

    fn set_attr(&mut self) -> (String, bool) {
        // Tweak one of this client's own FCMs when possible (avoids
        // cross-client churn on shared nodes), else nudge a base FCM's
        // throughput by a tiny amount.
        if let Some(name) = self.own.last() {
            (
                format!(
                    r#"{{"op":"set_attr","name":"{name}","criticality":{}}}"#,
                    self.rng.gen_range(0u64..3)
                ),
                true,
            )
        } else {
            let name = self.base[self.rng.gen_range(0usize..self.base.len())].clone();
            (
                format!(
                    r#"{{"op":"set_attr","name":"{name}","throughput":{}}}"#,
                    self.rng.gen_range(0.0f64..0.001)
                ),
                true,
            )
        }
    }
}

/// Runs the open-loop load against the daemon.
///
/// # Errors
///
/// Connection failure, a dead session mid-run, or a response that is
/// not valid JSON (protocol breakage — distinct from `"ok":false`).
pub fn run_load(target: &Listen, config: &LoadConfig) -> Result<LoadReport, String> {
    if config.rate == 0 || config.clients == 0 {
        return Err("rate and clients must be positive".to_string());
    }
    // Fetch the base FCM list once so the mix targets real names.
    let base: Vec<String> = {
        let stream = connect(target)?;
        let mut tx = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        let mut lines = BufReader::new(stream).lines();
        lines
            .next()
            .ok_or("server closed before hello")?
            .map_err(|e| e.to_string())?;
        tx.write_all(b"{\"op\":\"list\"}\n")
            .map_err(|e| e.to_string())?;
        let resp = lines
            .next()
            .ok_or("no list response")?
            .map_err(|e| e.to_string())?;
        let j = Json::parse(&resp).map_err(|e| format!("list response: {e}"))?;
        j.get("fcms")
            .and_then(Json::as_array)
            .ok_or("list response missing fcms")?
            .iter()
            .filter_map(|v| v.as_str().map(str::to_string))
            .collect()
    };
    if base.is_empty() {
        return Err("model has no FCMs to target".to_string());
    }

    // Subscribers attach before the load starts so they observe the
    // whole run; they detach (socket shutdown) only after every worker
    // has drained its responses.
    let subs: Vec<SubWorker> = (0..config.subscribers)
        .map(|_| spawn_subscriber(target))
        .collect::<Result<_, _>>()?;

    let per_client_rate = config.rate as f64 / config.clients as f64;
    let total_per_client = ((config.duration_ms as f64 / 1000.0) * per_client_rate).floor() as u64;
    let workers: Vec<_> = (0..config.clients)
        .map(|c| {
            let target = target.clone();
            let base = base.clone();
            let seed = config.seed;
            let mutation_pct = config.mutation_pct;
            std::thread::spawn(move || -> Result<LoadReport, String> {
                let stream = connect(&target)?;
                let mut tx = stream
                    .try_clone()
                    .map_err(|e| format!("clone stream: {e}"))?;
                // Responses come back in request order on the session, so
                // the reader half pairs each line with the send instant
                // queued by the sender half.
                let (meta_tx, meta_rx) = std::sync::mpsc::channel::<(Instant, bool)>();
                let reader = std::thread::spawn(move || -> Result<LoadReport, String> {
                    let mut lines = BufReader::new(stream).lines();
                    lines
                        .next()
                        .ok_or("server closed before hello")?
                        .map_err(|e| e.to_string())?;
                    let mut report = LoadReport::default();
                    while let Ok((t0, is_mutation)) = meta_rx.recv() {
                        let resp = lines
                            .next()
                            .ok_or("server closed mid-run")?
                            .map_err(|e| e.to_string())?;
                        let ns = t0.elapsed().as_nanos() as u64;
                        let j = Json::parse(&resp).map_err(|e| format!("bad response: {e}"))?;
                        report.sent += 1;
                        if j.get("ok") != Some(&Json::Bool(true)) {
                            report.errors += 1;
                        }
                        if is_mutation {
                            report.mutation_ns.push(ns);
                        } else {
                            report.query_ns.push(ns);
                        }
                    }
                    Ok(report)
                });
                let mut mix = ClientMix {
                    rng: Rng::stream(seed, c as u64),
                    own: Vec::new(),
                    base,
                    client: c,
                    created: 0,
                    mutation_pct,
                };
                let start = Instant::now();
                let mut line = String::new();
                for i in 0..total_per_client {
                    // Open loop: request i is *due* at i/rate seconds; the
                    // sender fires regardless of outstanding responses.
                    let due = Duration::from_secs_f64(i as f64 / per_client_rate);
                    if let Some(wait) = due.checked_sub(start.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let (req, is_mutation) = mix.next_request();
                    line.clear();
                    line.push_str(&req);
                    line.push('\n');
                    meta_tx
                        .send((Instant::now(), is_mutation))
                        .map_err(|_| "reader half exited early".to_string())?;
                    tx.write_all(line.as_bytes())
                        .map_err(|e| format!("send: {e}"))?;
                }
                drop(meta_tx);
                let mut report = reader
                    .join()
                    .map_err(|_| "reader half panicked".to_string())??;
                // Elapsed covers the drain: achieved rate counts only
                // *answered* requests over the full wall-clock window.
                report.elapsed_ns = start.elapsed().as_nanos() as u64;
                Ok(report)
            })
        })
        .collect();

    let mut total = LoadReport::default();
    for w in workers {
        let r = w.join().map_err(|_| "load client panicked".to_string())??;
        total.sent += r.sent;
        total.errors += r.errors;
        total.mutation_ns.extend(r.mutation_ns);
        total.query_ns.extend(r.query_ns);
        total.elapsed_ns = total.elapsed_ns.max(r.elapsed_ns);
    }
    for sub in &subs {
        sub.stream.shutdown();
    }
    for sub in subs {
        let (delivered, dropped) = sub
            .thread
            .join()
            .map_err(|_| "subscriber panicked".to_string())??;
        total.events_delivered += delivered;
        total.events_dropped += dropped;
    }
    Ok(total)
}

/// Renders a load report as the `servegen` summary JSON.
#[must_use]
pub fn report_json(config: &LoadConfig, r: &LoadReport) -> Json {
    let achieved = if r.elapsed_ns == 0 {
        0.0
    } else {
        r.sent as f64 / (r.elapsed_ns as f64 / 1e9)
    };
    Json::object()
        .set("achieved_rps", achieved)
        .set("clients", config.clients as u64)
        .set("errors", r.errors)
        .set("events_delivered", r.events_delivered)
        .set("events_dropped", r.events_dropped)
        .set("subscribers", config.subscribers as u64)
        .set("mutation_p50_ns", percentile_ns(&r.mutation_ns, 50.0))
        .set("mutation_p99_ns", percentile_ns(&r.mutation_ns, 99.0))
        .set("mutations", r.mutation_ns.len() as u64)
        .set("offered_rps", config.rate)
        .set("queries", r.query_ns.len() as u64)
        .set("query_p50_ns", percentile_ns(&r.query_ns, 50.0))
        .set("query_p99_ns", percentile_ns(&r.query_ns, 99.0))
        .set("seed", config.seed)
        .set("sent", r.sent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{start, Listen, ServerConfig};

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&v, 50.0), 50);
        assert_eq!(percentile_ns(&v, 99.0), 99);
        assert_eq!(percentile_ns(&v, 100.0), 100);
        assert_eq!(percentile_ns(&[7], 99.0), 7);
        assert_eq!(percentile_ns(&[], 50.0), 0);
    }

    #[test]
    fn request_mix_is_deterministic_per_seed() {
        let gen_seq = |seed| {
            let mut mix = ClientMix {
                rng: Rng::stream(seed, 0),
                own: Vec::new(),
                base: vec!["a".to_string(), "b".to_string()],
                client: 0,
                created: 0,
                mutation_pct: 50,
            };
            (0..50).map(|_| mix.next_request().0).collect::<Vec<_>>()
        };
        assert_eq!(gen_seq(7), gen_seq(7));
        assert_ne!(gen_seq(7), gen_seq(8));
    }

    #[test]
    fn script_and_load_run_against_a_live_server() {
        let h = start(ServerConfig::new(
            Listen::Tcp("127.0.0.1:0".to_string()),
            "paper",
        ))
        .expect("server starts");
        let target = Listen::Tcp(h.addr().to_string());

        let mut transcript = Vec::new();
        run_script(
            &target,
            "# comment\n{\"op\":\"ping\",\"id\":1}\n\n{\"op\":\"stats\"}\n",
            &mut transcript,
        )
        .expect("script runs");
        let text = String::from_utf8(transcript).unwrap();
        assert_eq!(text.lines().count(), 3, "hello + two responses:\n{text}");

        let report = run_load(
            &target,
            &LoadConfig {
                rate: 400,
                clients: 2,
                duration_ms: 250,
                seed: 11,
                mutation_pct: 30,
                subscribers: 2,
            },
        )
        .expect("load runs");
        assert!(report.sent >= 90, "sent {}", report.sent);
        assert_eq!(report.errors, 0, "seeded mix is always valid");
        assert!(!report.query_ns.is_empty() && !report.mutation_ns.is_empty());
        assert!(
            report.events_delivered > 0,
            "subscribers observed the mutation stream"
        );
        h.stop().expect("clean stop");
    }

    #[test]
    fn subscribe_transcript_is_deterministic() {
        let script = concat!(
            r#"{"op":"add_fcm","name":"t0","criticality":1,"influences":[["p8",0.3]]}"#,
            "\n",
            r#"{"op":"add_fcm","name":"t1","criticality":0,"influences":[["p2a",0.2]]}"#,
            "\n",
        );
        let run = || {
            let h = start(ServerConfig {
                heartbeat_every: 2,
                ..ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), "paper")
            })
            .expect("server starts");
            let target = Listen::Tcp(h.addr().to_string());
            let mut out = Vec::new();
            // 2 mutations + 1 heartbeat = 3 events, then the end line.
            run_subscribe_transcript(&target, script, 3, &mut out).expect("transcript");
            h.stop().expect("clean stop");
            String::from_utf8(out).unwrap()
        };
        let a = run();
        assert_eq!(a, run(), "byte-identical across fresh daemons");
        let lines: Vec<&str> = a.lines().collect();
        assert_eq!(lines.len(), 6, "hello + ack + 3 events + end:\n{a}");
        assert!(lines[2].contains("\"event\":\"mutation\""));
        assert!(lines[4].contains("\"event\":\"stats\""));
        assert!(lines[5].contains("\"event\":\"end\""));
    }
}
