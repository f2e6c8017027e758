//! The daemon under test and the load that drives it.
//!
//! The daemon is this benchmark's own executable re-run as `daemon`: it
//! calls `fcm_serve::server::start` with production defaults, exactly as
//! the `fcm-serve` binary does, and drains when its stdin closes. Running
//! it as a separate process keeps its memory (`VmHWM`), threads and CPU
//! time readable from `/proc` apart from the load generator's.
//!
//! The load uses at most two threads and two connections. An open loop
//! uses one connection: a sender thread fires each request at its due
//! instant and the reader (the calling thread) times each response from
//! that due instant, so a stall is charged to every request it delays.
//! A closed loop keeps a fixed window of requests in flight per
//! connection and times each from its send.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// Threads and connections the load may use: the machine's core count.
pub fn budget() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Longest a single response may take before the phase is abandoned.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// A daemon process.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: String,
}

/// What `/proc/<pid>` says about a process.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcInfo {
    pub vm_hwm_kb: u64,
    pub threads: u64,
    /// User plus system CPU time in seconds (clock ticks at 100 Hz).
    pub cpu_s: f64,
}

/// Reads peak RSS, thread count and CPU time of `pid` (`self` for this
/// process).
pub fn proc_info(pid: &str) -> ProcInfo {
    let mut info = ProcInfo::default();
    if let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) {
        for line in status.lines() {
            let field = |l: &str| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0)
            };
            if line.starts_with("VmHWM:") {
                info.vm_hwm_kb = field(line);
            } else if line.starts_with("Threads:") {
                info.threads = field(line);
            }
        }
    }
    if let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        if let Some(rest) = stat.rsplit(')').next() {
            let f: Vec<&str> = rest.split_whitespace().collect();
            let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
            info.cpu_s = (tick(11) + tick(12)) / 100.0;
        }
    }
    info
}

impl Daemon {
    /// Starts a daemon on the paper model with its state in `dir` and
    /// returns it with the seconds from spawn to the first answered
    /// request (a `ping`).
    pub fn spawn(dir: &Path, resume: bool, obs: bool) -> Result<(Daemon, f64), String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let t0 = Instant::now();
        let mut cmd = Command::new(exe);
        cmd.arg("daemon").arg("--state-dir").arg(dir);
        if resume {
            cmd.arg("--resume");
        }
        if obs {
            cmd.arg("--obs");
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdin = child.stdin.take();
        let mut addr = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut addr));
        let mut daemon = Daemon {
            child,
            stdin,
            addr: addr.trim().to_string(),
        };
        if !matches!(read, Some(Ok(n)) if n > 0) {
            let status = daemon.child.wait().map_err(|e| e.to_string())?;
            return Err(format!("daemon exited before listening ({status})"));
        }
        let mut c = Client::connect(&daemon.addr)?;
        let pong = c.call(r#"{"op":"ping"}"#)?;
        if !ok(&pong) {
            return Err(format!("ping failed: {pong}"));
        }
        Ok((daemon, t0.elapsed().as_secs_f64()))
    }

    pub fn proc(&self) -> ProcInfo {
        proc_info(&self.child.id().to_string())
    }

    /// Closes the daemon's stdin, which drains it (final snapshot), and
    /// waits for a clean exit.
    pub fn stop(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| format!("wait daemon: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Whether a response line reports success.
pub fn ok(line: &str) -> bool {
    line.contains("\"ok\":true")
}

/// A request/response client on one connection.
pub struct Client {
    out: TcpStream,
    lines: BufReader<TcpStream>,
}

impl Client {
    /// Connects and consumes the hello line.
    pub fn connect(addr: &str) -> Result<Client, String> {
        let out = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = out.set_nodelay(true);
        out.set_read_timeout(Some(RESPONSE_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let mut lines = BufReader::new(out.try_clone().map_err(|e| e.to_string())?);
        let mut hello = String::new();
        lines
            .read_line(&mut hello)
            .map_err(|e| format!("hello: {e}"))?;
        if !hello.contains("fcm-serve/v1") {
            return Err(format!("unexpected hello: {hello}"));
        }
        Ok(Client { out, lines })
    }

    /// Sends one request line and returns its response line.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.out
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        match self.lines.read_line(&mut resp) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(resp.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// Whether a request changes the model (routed to the writer) or only
/// reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Mutation,
    Query,
}

/// One request line of a workload's log.
#[derive(Debug, Clone)]
pub struct Req {
    pub line: String,
    pub kind: Kind,
}

/// Client-side measurements of one load phase.
#[derive(Debug, Default)]
pub struct Load {
    pub mutation_ns: Vec<u64>,
    pub query_ns: Vec<u64>,
    /// How late the generator sent each request: after its due instant
    /// (open loop), or after the response that freed its slot (closed).
    pub late_ns: Vec<u64>,
    pub attempted: u64,
    /// Responses with `"ok":false`, plus requests never answered.
    pub failed: u64,
    pub elapsed_s: f64,
    /// First few failure responses, for diagnosis.
    pub errors: Vec<String>,
}

impl Load {
    fn record(&mut self, kind: Kind, ns: u64, line: &str) {
        match kind {
            Kind::Mutation => self.mutation_ns.push(ns),
            Kind::Query => self.query_ns.push(ns),
        }
        if !ok(line) {
            self.failed += 1;
            if self.errors.len() < 3 {
                self.errors.push(line.chars().take(300).collect());
            }
        }
    }

    pub fn merge(&mut self, other: Load) {
        self.mutation_ns.extend(other.mutation_ns);
        self.query_ns.extend(other.query_ns);
        self.late_ns.extend(other.late_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.errors.extend(other.errors);
    }
}

fn open_stream(addr: &str) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let c = Client::connect(addr)?;
    Ok((c.out, c.lines))
}

/// Reads one response line; a timeout or a closed socket is an error.
fn read_response(lines: &mut BufReader<TcpStream>, buf: &mut String) -> Result<(), String> {
    buf.clear();
    match lines.read_line(buf) {
        Ok(0) => Err("server closed the connection".to_string()),
        Ok(_) => Ok(()),
        Err(e) => Err(format!("receive: {e}")),
    }
}

/// Open loop on one connection: request `i` is due at `i / rate` seconds
/// after the start and is timed from that instant.
pub fn open_loop(addr: &str, reqs: &[Req], rate: f64) -> Result<Load, String> {
    if budget() < 2 {
        return Err(format!(
            "an open loop needs 2 threads; the budget is {}",
            budget()
        ));
    }
    let (mut out, mut lines) = open_stream(addr)?;
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    std::thread::scope(|s| {
        let sender = s.spawn(move || -> Result<Vec<u64>, String> {
            let mut late = Vec::with_capacity(reqs.len());
            let mut line = String::new();
            for (i, r) in reqs.iter().enumerate() {
                let at = due(i);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                late.push(Instant::now().saturating_duration_since(at).as_nanos() as u64);
                line.clear();
                line.push_str(&r.line);
                line.push('\n');
                out.write_all(line.as_bytes())
                    .map_err(|e| format!("send: {e}"))?;
            }
            Ok(late)
        });
        let mut load = Load {
            attempted: reqs.len() as u64,
            ..Load::default()
        };
        let mut buf = String::new();
        let mut answered = 0;
        for (i, r) in reqs.iter().enumerate() {
            if read_response(&mut lines, &mut buf).is_err() {
                break;
            }
            let ns = Instant::now().saturating_duration_since(due(i)).as_nanos() as u64;
            load.record(r.kind, ns, &buf);
            answered += 1;
        }
        load.failed += (reqs.len() - answered) as u64;
        load.elapsed_s = start.elapsed().as_secs_f64();
        load.late_ns = sender
            .join()
            .map_err(|_| "sender thread panicked".to_string())??;
        Ok(load)
    })
}

/// Closed loop on one connection with `window` requests in flight; each
/// request is timed from its send.
fn closed_one(addr: &str, reqs: &[Req], window: usize) -> Result<Load, String> {
    let (mut out, mut lines) = open_stream(addr)?;
    let start = Instant::now();
    let mut load = Load {
        attempted: reqs.len() as u64,
        ..Load::default()
    };
    let mut inflight: VecDeque<(Instant, Kind)> = VecDeque::with_capacity(window);
    let mut next = 0;
    let mut batch = String::new();
    let mut buf = String::new();
    let mut answered = 0;
    let mut got: Option<Instant> = None;
    loop {
        batch.clear();
        while inflight.len() < window.max(1) && next < reqs.len() {
            batch.push_str(&reqs[next].line);
            batch.push('\n');
            inflight.push_back((Instant::now(), reqs[next].kind));
            next += 1;
        }
        if !batch.is_empty() {
            out.write_all(batch.as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            if let Some(t) = got.take() {
                load.late_ns.push(t.elapsed().as_nanos() as u64);
            }
        }
        let Some((sent, kind)) = inflight.pop_front() else {
            break;
        };
        if read_response(&mut lines, &mut buf).is_err() {
            break;
        }
        let now = Instant::now();
        load.record(
            kind,
            now.saturating_duration_since(sent).as_nanos() as u64,
            &buf,
        );
        got = Some(now);
        answered += 1;
    }
    load.failed += (reqs.len() - answered) as u64;
    load.elapsed_s = start.elapsed().as_secs_f64();
    Ok(load)
}

/// Closed loop over one connection per request stream (at most
/// [`budget`] streams), each on its own thread.
pub fn closed_loop(addr: &str, streams: &[Vec<Req>], window: usize) -> Result<Load, String> {
    if streams.len() > budget() {
        return Err(format!(
            "{} connections exceed the budget of {}",
            streams.len(),
            budget()
        ));
    }
    let start = Instant::now();
    let mut total = std::thread::scope(|s| -> Result<Load, String> {
        let (first, rest) = streams.split_first().ok_or("no request streams")?;
        let others: Vec<_> = rest
            .iter()
            .map(|reqs| s.spawn(move || closed_one(addr, reqs, window)))
            .collect();
        let mut total = closed_one(addr, first, window)?;
        for h in others {
            total.merge(h.join().map_err(|_| "load thread panicked".to_string())??);
        }
        Ok(total)
    })?;
    total.elapsed_s = start.elapsed().as_secs_f64();
    Ok(total)
}
