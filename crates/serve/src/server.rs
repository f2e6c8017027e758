//! The daemon: socket accept loop, per-connection reader threads, and
//! the single writer thread that serializes mutations.
//!
//! # Threading model
//!
//! * The model lives in one `RwLock<LiveModel>`. **Queries** take the
//!   read lock only while computing the answer (microseconds — all
//!   socket I/O happens outside the lock), so a connection pool reads
//!   mostly in parallel.
//! * **Mutations** are forwarded over a channel to the one writer
//!   thread, which applies and appends the journal under the write
//!   lock, and only then replies — *applied → journaled →
//!   acknowledged*. A torn model is impossible: readers see the state
//!   before or after a mutation, never mid-apply, and never a mutation
//!   the journal does not yet hold (a failed append rolls it back, so
//!   a read inside that window would see a state that never existed).
//!   Consecutive mutations on one session pipeline to the writer and
//!   their in-order replies flush as a batch, so the per-mutation cost
//!   is one apply, not two context switches (see `serve_client`).
//! * Every `snapshot_every` accepted mutations (and once more at
//!   shutdown) the writer *cuts* a snapshot, and one long-lived
//!   **persistence thread** writes it. At a cut the writer (1) waits
//!   for the previous snapshot if it is still in flight, never skipping
//!   or coalescing one, so the cadence holds; (2) rotates the journal
//!   to `journal.prev.jsonl` ([`Store::rotate`]); (3) takes a
//!   [`StateCut`] under the read lock, so queries go on: the edges,
//!   which hold most of the state's floats, are copied, the contracts
//!   and FCM records rendered, and the derived matrix, which a snapshot
//!   does not hold, left alone; (4) hands the cut
//!   over a one-slot channel. The thread renders the rest and streams
//!   the document through the snapshot sites, then retires the rotated
//!   journal ([`store::Snapshotter::write_cut`]), while the writer goes
//!   on appending past the cut to the fresh journal. Every acknowledged
//!   mutation is in one of the two journal files or under a durable
//!   snapshot, wherever the thread is. The thread takes no lock; it is spawned by [`start`] and joined by
//!   [`Handle::stop`]. At 3,000 FCMs the writer's share is ~0.8 ms
//!   per snapshot, against ~4.6 ms when it also rendered the state
//!   and did the I/O (`BENCH_model_apply.json`, `snapshot_writer/3000`
//!   and `snapshot/3000`).
//! * Three paths wait for the snapshot in flight: the `snapshot` op
//!   cuts and then waits for its own snapshot before it answers; the
//!   shutdown does the same; the degraded rollback waits before it
//!   reads the state directory, which the thread would otherwise change
//!   under it.
//!
//! Bounded latency follows from the lock discipline: a query waits for
//! at most one in-flight `apply` (incremental Eq. 4: O(n) row/column
//! work, not O(n³) recondense) and its journal append (one line written
//! and flushed to the OS, no fsync) plus its own O(n·order) walk —
//! never for snapshot I/O. A mutation waits for snapshot I/O only when
//! the previous snapshot is still in flight at the next cut.
//!
//! # Degraded mode
//!
//! A journal-append failure no longer kills the writer. Instead the
//! daemon rolls the model back to the durable prefix on disk (the
//! failed mutation was never acknowledged) and enters an explicit
//! **read-only degraded mode**: every mutation is rejected with a
//! structured `degraded:` error (rendered with `"degraded": true`),
//! queries keep serving from the rolled-back state, and seeded
//! bounded-exponential-backoff probes (`Store::probe`) try to re-arm
//! durability. The rollback takes the `--resume` path
//! ([`store::read_recovered`], then [`store::Recovered::into_model`])
//! and holds the model write lock, so queries wait for it; it costs
//! one snapshot load plus a bounded number of journal lines, because
//! each durable snapshot retires the rotated journal. The writer queue
//! is bounded (4096 messages), so a stalled disk back-pressures
//! producers instead of growing an unbounded backlog. The armed →
//! degraded → re-arming state machine is specified in DESIGN.md §10
//! and surfaced in `stats` (`degraded`, `degraded_transitions`,
//! `faults_injected`, `rearm_attempts`, and with a state directory
//! `snapshot_failures` and `durable_seq`, the seq of the last durable
//! snapshot). A failed snapshot never degrades the daemon: the journal
//! files still hold every acknowledged mutation.
//!
//! Instrumented via `fcm-obs`: `serve.apply_ns`, `serve.query_ns`,
//! `serve.snapshot_ns` (the persistence thread's write, one sample per
//! durable snapshot: render and I/O) and `serve.snapshot_render_ns`
//! (the writer's share of a cut: rotation, cut and handoff) histograms
//! and `serve.mutations`/`serve.queries` counters — plus
//! `serve.faults_injected`, `serve.degraded_transitions` and
//! `serve.rearm_attempts` for the fault path — so `obsview` works on a
//! server run.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fcm_obs::RollingHist;
use fcm_substrate::fault::{FaultInjector, FaultPlan};
use fcm_substrate::{Json, Rng};

use crate::events::{EventBus, PopBatch, Subscriber, DEFAULT_SUB_QUEUE};
use crate::model::{LiveModel, StateCut};
use crate::proto::{self, Query, Request};
use crate::store::{self, Snapshotter, Store};

/// Writer-queue bound: producers block (back-pressure) once this many
/// messages are in flight to the writer thread.
const QUEUE_BOUND: usize = 4096;

/// Where the daemon listens (or a client connects).
#[derive(Debug, Clone)]
pub enum Listen {
    /// Unix-domain socket at this path.
    Unix(PathBuf),
    /// TCP at this `host:port` (port 0 = ephemeral; see [`Handle::addr`]).
    Tcp(String),
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Socket to listen on.
    pub listen: Listen,
    /// Model name (`paper` / `avionics`).
    pub model: String,
    /// State directory for snapshot + journal; `None` = no durability.
    pub state_dir: Option<PathBuf>,
    /// Recover from the state directory instead of truncating it.
    pub resume: bool,
    /// Snapshot period in accepted mutations (0 = only at shutdown).
    pub snapshot_every: u64,
    /// Fault plan for the durability path ([`FaultPlan::none`] in
    /// production — the injector is then a single passive bool load).
    pub fault: FaultPlan,
    /// Base delay (ms) for the seeded exponential-backoff re-arm probes
    /// issued while degraded.
    pub rearm_base_ms: u64,
    /// Default per-subscriber event-queue bound (a `subscribe` request
    /// may lower or raise its own with `"queue"`); past it the oldest
    /// queued event is overwritten and counted in `"dropped"`.
    pub sub_queue: usize,
    /// Publish a `stats` heartbeat event every this many accepted
    /// mutations (0 = no heartbeats). Count-based, so heartbeat
    /// positions in a deterministic mutation stream are deterministic.
    pub heartbeat_every: u64,
    /// Samples per rolling SLO window for the per-op latency
    /// histograms behind the `stats` `"slo"` fields.
    pub slo_window: u64,
}

impl ServerConfig {
    /// A config with production defaults: no durability, no fault
    /// injection, re-arm base 100 ms.
    #[must_use]
    pub fn new(listen: Listen, model: &str) -> ServerConfig {
        ServerConfig {
            listen,
            model: model.to_string(),
            state_dir: None,
            resume: false,
            snapshot_every: 0,
            fault: FaultPlan::none(),
            rearm_base_ms: 100,
            sub_queue: DEFAULT_SUB_QUEUE,
            heartbeat_every: 256,
            slo_window: 4096,
        }
    }
}

/// Shared durability status: the armed/degraded flag plus the
/// transition and re-arm counters surfaced in `stats`.
#[derive(Debug, Default)]
pub struct ServeStatus {
    degraded: AtomicBool,
    transitions: AtomicU64,
    rearm_attempts: AtomicU64,
    snapshot_failures: AtomicU64,
    durable_seq: AtomicU64,
}

impl ServeStatus {
    /// Whether the daemon is currently read-only degraded.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Total armed → degraded transitions.
    #[must_use]
    pub fn transitions(&self) -> u64 {
        self.transitions.load(Ordering::Relaxed)
    }

    /// Total re-arm probes attempted.
    #[must_use]
    pub fn rearm_attempts(&self) -> u64 {
        self.rearm_attempts.load(Ordering::Relaxed)
    }

    /// Snapshots that failed before they were durable.
    #[must_use]
    pub fn snapshot_failures(&self) -> u64 {
        self.snapshot_failures.load(Ordering::Relaxed)
    }

    /// The seq of the last durable snapshot (0 before the first).
    #[must_use]
    pub fn durable_seq(&self) -> u64 {
        self.durable_seq.load(Ordering::Relaxed)
    }

    fn note_snapshot(&self, result: &Result<u64, String>) {
        match result {
            Ok(seq) => self.durable_seq.store(*seq, Ordering::Relaxed),
            Err(_) => {
                self.snapshot_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn enter_degraded(&self) {
        if !self.degraded.swap(true, Ordering::Relaxed) {
            self.transitions.fetch_add(1, Ordering::Relaxed);
            fcm_obs::counter_add("serve.degraded_transitions", 1);
        }
    }

    fn leave_degraded(&self) {
        self.degraded.store(false, Ordering::Relaxed);
    }

    fn note_rearm_attempt(&self) {
        self.rearm_attempts.fetch_add(1, Ordering::Relaxed);
        fcm_obs::counter_add("serve.rearm_attempts", 1);
    }
}

/// Rolling-window per-op latency state behind the `stats` `"slo"`
/// fields: p50/p99 over the most recent *completed* window, not the
/// process lifetime. Windows rotate on sample counts, so a golden
/// session that never fills one renders `"slo":null` deterministically.
struct SloWindows {
    apply: RollingHist,
    query: RollingHist,
}

impl SloWindows {
    fn new(window: u64) -> SloWindows {
        SloWindows {
            apply: RollingHist::new(window, 8),
            query: RollingHist::new(window, 8),
        }
    }
}

/// Renders the SLO block: `null` until some window has completed, else
/// per-op `count`/`p50_ns`/`p99_ns` from the last completed window.
fn slo_json(slo: &Mutex<SloWindows>) -> Json {
    let s = slo.lock().expect("slo lock");
    let part = |r: &RollingHist| {
        r.last_window().map(|w| {
            Json::object()
                .set("count", w.count())
                .set("p50_ns", w.quantile(0.5).unwrap_or(0))
                .set("p99_ns", w.quantile(0.99).unwrap_or(0))
        })
    };
    match (part(&s.apply), part(&s.query)) {
        (None, None) => Json::Null,
        (a, q) => {
            let mut j = Json::object().set("window", s.apply.window_every());
            if let Some(a) = a {
                j = j.set("apply", a);
            }
            if let Some(q) = q {
                j = j.set("query", q);
            }
            j
        }
    }
}

/// Per-connection server context shared by every session thread.
struct Shared {
    model: Arc<RwLock<LiveModel>>,
    status: Arc<ServeStatus>,
    injector: Arc<FaultInjector>,
    bus: Arc<EventBus>,
    slo: Arc<Mutex<SloWindows>>,
    sub_queue: usize,
    /// Whether the daemon has a state directory (and snapshot figures).
    durable: bool,
}

/// A bidirectional client/server stream over either transport.
pub(crate) enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    pub(crate) fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    pub(crate) fn shutdown(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(on),
            Stream::Unix(s) => s.set_nonblocking(on),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Connects to a listening daemon (the `servegen` client side).
pub(crate) fn connect(target: &Listen) -> Result<Stream, String> {
    match target {
        Listen::Unix(path) => UnixStream::connect(path)
            .map(Stream::Unix)
            .map_err(|e| format!("connect {}: {e}", path.display())),
        Listen::Tcp(addr) => TcpStream::connect(addr)
            .map(|s| {
                // Request/response over one connection: Nagle + delayed
                // ACK would add ~40 ms per round-trip.
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            })
            .map_err(|e| format!("connect {addr}: {e}")),
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }

    fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(on),
            Listener::Unix(l) => l.set_nonblocking(on),
        }
    }
}

enum WriterMsg {
    Apply {
        mutation: crate::proto::Mutation,
        reply: mpsc::Sender<Result<Json, String>>,
    },
    Snapshot {
        reply: mpsc::Sender<Result<Json, String>>,
    },
}

struct ClientSlot {
    stream: Stream,
    thread: JoinHandle<()>,
}

/// A running daemon; dropping it (or calling [`Handle::stop`]) drains
/// clients, flushes the final snapshot, and joins every thread.
pub struct Handle {
    stop: Arc<AtomicBool>,
    addr: String,
    unix_path: Option<PathBuf>,
    clients: Arc<Mutex<Vec<ClientSlot>>>,
    accept_thread: Option<JoinHandle<()>>,
    writer_tx: Option<mpsc::SyncSender<WriterMsg>>,
    writer_thread: Option<JoinHandle<Result<(), String>>>,
    persist_thread: Option<JoinHandle<()>>,
    model: Arc<RwLock<LiveModel>>,
    status: Arc<ServeStatus>,
    injector: Arc<FaultInjector>,
}

impl Handle {
    /// The bound address: `host:port` for TCP (with the real ephemeral
    /// port), the socket path for Unix.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Current journal cursor (accepted mutations).
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.model.read().expect("model lock").seq()
    }

    /// The degradation status shared with the writer thread.
    #[must_use]
    pub fn status(&self) -> &Arc<ServeStatus> {
        &self.status
    }

    /// The fault injector the durability path consults.
    #[must_use]
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    /// Stops accepting, drains clients, writes the final snapshot, and
    /// joins all threads.
    ///
    /// # Errors
    ///
    /// A journal/snapshot write failure observed by the writer thread.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> Result<(), String> {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Shut the sockets down to unblock reader threads mid-`read`.
        let slots: Vec<ClientSlot> =
            std::mem::take(&mut *self.clients.lock().expect("clients lock"));
        for slot in &slots {
            slot.stream.shutdown();
        }
        for slot in slots {
            let _ = slot.thread.join();
        }
        // All client-held writer senders are gone; dropping ours ends
        // the writer loop, which flushes the final snapshot.
        drop(self.writer_tx.take());
        let result = self.writer_thread.take().map_or(Ok(()), |t| {
            t.join().map_err(|_| "writer thread panicked".to_string())?
        });
        // The writer's end of the handoff is gone with it, which ends
        // the persistence thread once its last snapshot is written.
        if let Some(t) = self.persist_thread.take() {
            let _ = t.join();
        }
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
        result
    }
}

impl Drop for Handle {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

/// Builds the model per config: fresh, or recovered from the state
/// directory (snapshot + journal-suffix replay), with the seq of the
/// snapshot it recovered (0 without one).
fn build_model(
    config: &ServerConfig,
    inj: &Arc<FaultInjector>,
) -> Result<(LiveModel, Option<Store>, u64), String> {
    match (&config.state_dir, config.resume) {
        (None, _) => Ok((LiveModel::new(&config.model)?, None, 0)),
        (Some(dir), false) => Ok((
            LiveModel::new(&config.model)?,
            Some(Store::create_fresh_with(dir, Arc::clone(inj))?),
            0,
        )),
        (Some(dir), true) => {
            let (store, recovered) = Store::open_resume_with(dir, Arc::clone(inj))?;
            let durable_seq = recovered.snapshot_seq().unwrap_or(0);
            Ok((
                recovered.into_model(&config.model)?,
                Some(store),
                durable_seq,
            ))
        }
    }
}

/// The writer's end of the persistence thread.
struct Persistence {
    /// One slot: the writer hands over a cut only once the one before
    /// it is settled, so a send never waits.
    tx: mpsc::SyncSender<StateCut>,
    /// The outcome of each handed-over cut, in order.
    done: mpsc::Receiver<Result<u64, String>>,
    in_flight: bool,
}

/// Spawns the persistence thread: it renders each cut and writes it
/// through `snap` (snapshot sites, then the journal retirement), records
/// the outcome in `status`, and reports it back. It exits once the
/// writer drops its end.
fn spawn_persistence(snap: Snapshotter, status: Arc<ServeStatus>) -> (Persistence, JoinHandle<()>) {
    let (tx, rx) = mpsc::sync_channel::<StateCut>(1);
    let (done_tx, done) = mpsc::channel();
    let thread = std::thread::spawn(move || {
        for cut in rx {
            let t0 = Instant::now();
            let result = snap.write_cut(&cut).map(|()| cut.seq());
            drop(cut);
            if result.is_ok() {
                fcm_obs::hist_record("serve.snapshot_ns", t0.elapsed().as_nanos() as u64);
            }
            status.note_snapshot(&result);
            if done_tx.send(result).is_err() {
                break;
            }
        }
    });
    (
        Persistence {
            tx,
            done,
            in_flight: false,
        },
        thread,
    )
}

/// Starts the daemon and returns its handle.
///
/// # Errors
///
/// Model construction/recovery failure, or a bind failure on the
/// requested socket (both exit-code-2 class for the bin).
pub fn start(config: ServerConfig) -> Result<Handle, String> {
    let injector = Arc::new(FaultInjector::new(&config.fault));
    let status = Arc::new(ServeStatus::default());
    let (model, store, durable_seq) = build_model(&config, &injector)?;
    status.durable_seq.store(durable_seq, Ordering::Relaxed);
    let model = Arc::new(RwLock::new(model));

    let (listener, addr, unix_path) = match &config.listen {
        Listen::Unix(path) => {
            if path.exists() {
                std::fs::remove_file(path)
                    .map_err(|e| format!("remove stale socket {}: {e}", path.display()))?;
            }
            let l =
                UnixListener::bind(path).map_err(|e| format!("bind {}: {e}", path.display()))?;
            (
                Listener::Unix(l),
                path.display().to_string(),
                Some(path.clone()),
            )
        }
        Listen::Tcp(spec) => {
            let l = TcpListener::bind(spec).map_err(|e| format!("bind {spec}: {e}"))?;
            let real = l
                .local_addr()
                .map_err(|e| format!("local_addr: {e}"))?
                .to_string();
            (Listener::Tcp(l), real, None)
        }
    };
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking: {e}"))?;

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Arc<Mutex<Vec<ClientSlot>>> = Arc::new(Mutex::new(Vec::new()));
    let (writer_tx, writer_rx) = mpsc::sync_channel::<WriterMsg>(QUEUE_BOUND);
    let bus = Arc::new(EventBus::new());
    let slo = Arc::new(Mutex::new(SloWindows::new(config.slo_window)));
    let shared = Arc::new(Shared {
        model: Arc::clone(&model),
        status: Arc::clone(&status),
        injector: Arc::clone(&injector),
        bus: Arc::clone(&bus),
        slo: Arc::clone(&slo),
        sub_queue: config.sub_queue.max(1),
        durable: store.is_some(),
    });

    let (persist, persist_thread) = match &store {
        Some(s) => {
            let (p, t) = spawn_persistence(s.snapshotter(), Arc::clone(&status));
            (Some(p), Some(t))
        }
        None => (None, None),
    };
    let writer_thread = {
        let model = Arc::clone(&model);
        let ctx = WriterCtx {
            store,
            persist,
            status: Arc::clone(&status),
            model_name: config.model.clone(),
            snapshot_every: config.snapshot_every,
            rearm_base_ms: config.rearm_base_ms,
            rng: Rng::seed_from_u64(0xfa57_a4e1),
            rearm_failures: 0,
            next_probe_at: None,
            bus,
            slo,
            heartbeat_every: config.heartbeat_every,
            accepted: 0,
        };
        std::thread::spawn(move || writer_loop(&model, &writer_rx, ctx))
    };

    let accept_thread = {
        let stop = Arc::clone(&stop);
        let clients = Arc::clone(&clients);
        let writer_tx = writer_tx.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok(stream) => {
                        let Ok(reader_half) = stream.try_clone() else {
                            continue;
                        };
                        let shared = Arc::clone(&shared);
                        let tx = writer_tx.clone();
                        let thread = std::thread::spawn(move || {
                            serve_client(reader_half, &shared, &tx);
                        });
                        let mut slots = clients.lock().expect("clients lock");
                        // Reap closed sessions so their sockets do not
                        // stay open for the daemon's lifetime.
                        for done in slots.extract_if(.., |slot| slot.thread.is_finished()) {
                            let _ = done.thread.join();
                        }
                        slots.push(ClientSlot { stream, thread });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        })
    };

    Ok(Handle {
        stop,
        addr,
        unix_path,
        clients,
        accept_thread: Some(accept_thread),
        writer_tx: Some(writer_tx),
        writer_thread: Some(writer_thread),
        persist_thread,
        model,
        status,
        injector,
    })
}

/// The mutation-reject message while degraded; starts with the
/// `degraded:` marker [`proto::render_response`] turns into a
/// structured `"degraded": true` field.
const DEGRADED_REJECT: &str = "degraded: journal unavailable, serving read-only";

/// Writer-thread state: the journal half of the store, the handoff to
/// the persistence thread, the shared status, and the re-arm schedule.
struct WriterCtx {
    store: Option<Store>,
    /// Present exactly when `store` is.
    persist: Option<Persistence>,
    status: Arc<ServeStatus>,
    model_name: String,
    snapshot_every: u64,
    rearm_base_ms: u64,
    /// Seeded jitter source for the re-arm backoff — deterministic per
    /// process, never wall-clock seeded.
    rng: Rng,
    /// Consecutive failed probes since entering degraded (backoff
    /// exponent).
    rearm_failures: u32,
    /// When the next re-arm probe may run; `None` while armed.
    next_probe_at: Option<Instant>,
    /// Event bus published from this thread's serialization point.
    bus: Arc<EventBus>,
    /// Rolling apply/query latency windows behind the `stats` SLO block.
    slo: Arc<Mutex<SloWindows>>,
    /// Publish a `stats` heartbeat event every this many accepted
    /// mutations (0 = never).
    heartbeat_every: u64,
    /// Accepted mutations so far (drives the heartbeat cadence).
    accepted: u64,
}

impl WriterCtx {
    /// Bounded-exponential backoff with seeded jitter:
    /// `base · 2^min(failures,6) · U(0.5,1.5)`, capped at 10 s.
    fn backoff(&mut self) -> Duration {
        let exp = (1u64 << self.rearm_failures.min(6)) as f64;
        let jitter = 0.5 + self.rng.gen_f64();
        let ms = (self.rearm_base_ms.max(1) as f64 * exp * jitter).min(10_000.0);
        Duration::from_millis(ms as u64)
    }

    /// Armed → degraded: roll the model back to the durable prefix on
    /// disk (the mutation whose append failed was never acknowledged),
    /// flag the status, and schedule the first re-arm probe. The caller
    /// holds the model's write lock from the apply through this call,
    /// so no reader sees the rolled-back mutation.
    fn enter_degraded(&mut self, model: &mut LiveModel) {
        // A snapshot in flight would replace `snapshot.json` and retire
        // `journal.prev.jsonl` under the read below.
        self.settle();
        if let Some(s) = self.store.as_ref() {
            // Best-effort: if even reading the durable state fails the
            // in-memory model stays as-is (still consistent, possibly
            // one unacknowledged mutation ahead of the journal).
            if let Ok(rolled) =
                store::read_recovered(s.dir()).and_then(|rec| rec.into_model(&self.model_name))
            {
                *model = rolled;
            }
        }
        self.status.enter_degraded();
        self.bus.publish(
            "degraded",
            Json::object()
                .set("transitions", self.status.transitions())
                .set("seq", model.seq()),
        );
        // A degraded transition is exactly the moment a post-mortem
        // wants the recent history: flush the flight recorder now,
        // while the events that led here are still in the ring.
        let _ = fcm_obs::recorder::auto_dump("degraded");
        self.rearm_failures = 0;
        let delay = self.backoff();
        self.next_probe_at = Some(Instant::now() + delay);
    }

    /// Waits for the snapshot in flight, if any: its seq once durable,
    /// or its error.
    fn settle(&mut self) -> Option<Result<u64, String>> {
        let p = self.persist.as_mut().filter(|p| p.in_flight)?;
        p.in_flight = false;
        Some(
            p.done
                .recv()
                .unwrap_or_else(|_| Err("persistence thread exited".to_string())),
        )
    }

    /// Cuts a snapshot: waits for the one in flight, rotates the
    /// journal, takes a [`StateCut`] under the read lock and hands it to
    /// the persistence thread. A failed rotation leaves the lines,
    /// covered, in the journal. Returns whether there is a store to
    /// snapshot into.
    fn cut(&mut self, model: &RwLock<LiveModel>) -> bool {
        self.settle();
        let (Some(store), Some(p)) = (self.store.as_mut(), self.persist.as_mut()) else {
            return false;
        };
        let t0 = Instant::now();
        let _ = store.rotate();
        let cut = model.read().expect("model lock").state_cut();
        p.in_flight = p.tx.send(cut).is_ok();
        fcm_obs::hist_record("serve.snapshot_render_ns", t0.elapsed().as_nanos() as u64);
        true
    }

    /// A snapshot the caller waits for (the `snapshot` op and the
    /// shutdown): its seq once durable, `None` without a store.
    fn snapshot_now(&mut self, model: &RwLock<LiveModel>) -> Result<Option<u64>, String> {
        if !self.cut(model) {
            return Ok(None);
        }
        self.settle()
            .unwrap_or_else(|| Err("persistence thread exited".to_string()))
            .map(Some)
    }

    /// One re-arm step while degraded: if the probe window has arrived,
    /// probe the journal; on success repair + re-open happened inside
    /// [`Store::probe`] and the daemon is armed again. Returns whether
    /// the daemon is now armed.
    fn try_rearm(&mut self) -> bool {
        let Some(at) = self.next_probe_at else {
            return false;
        };
        if Instant::now() < at {
            return false;
        }
        let Some(s) = self.store.as_mut() else {
            return false;
        };
        self.status.note_rearm_attempt();
        match s.probe() {
            Ok(()) => {
                self.status.leave_degraded();
                self.rearm_failures = 0;
                self.next_probe_at = None;
                self.bus.publish(
                    "rearm",
                    Json::object()
                        .set("armed", true)
                        .set("attempts", self.status.rearm_attempts()),
                );
                true
            }
            Err(_) => {
                self.rearm_failures = self.rearm_failures.saturating_add(1);
                let delay = self.backoff();
                self.next_probe_at = Some(Instant::now() + delay);
                self.bus.publish(
                    "rearm",
                    Json::object()
                        .set("armed", false)
                        .set("attempts", self.status.rearm_attempts()),
                );
                false
            }
        }
    }
}

/// The writer loop: the only code path that mutates the model.
/// Ordering per mutation: apply (write lock) → journal append → reply.
/// On journal failure the loop degrades instead of dying (see the
/// module docs); while degraded it rejects mutations, probes for
/// re-arm, and keeps the read path untouched.
fn writer_loop(
    model: &RwLock<LiveModel>,
    rx: &mpsc::Receiver<WriterMsg>,
    mut ctx: WriterCtx,
) -> Result<(), String> {
    let mut since_snapshot: u64 = 0;
    // Events built during an apply, published only after the ack.
    let mut pending_events: Vec<(&'static str, Json)> = Vec::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            WriterMsg::Apply { mutation, reply } => {
                if ctx.status.is_degraded() && !ctx.try_rearm() {
                    let _ = reply.send(Err(DEGRADED_REJECT.to_string()));
                    continue;
                }
                // Snapshot repr/nnz around the apply only when someone
                // observes events — the brief is two loads, but even
                // that stays off the unobserved fast path.
                let observe = ctx.bus.has_consumers();
                let t0 = Instant::now();
                let mut m = model.write().expect("model lock");
                let before = observe.then(|| m.matrix_brief());
                let result = m.apply(&mutation);
                let briefs = before.zip(observe.then(|| m.matrix_brief()));
                let apply_ns = t0.elapsed().as_nanos() as u64;
                // The write lock is held until the journal has the
                // mutation, or until a failed append is rolled back, so
                // no query reads a state that is never acknowledged.
                let appended = match (&result, ctx.store.as_mut()) {
                    (Ok(_), Some(s)) => s.append(m.seq(), &mutation),
                    _ => Ok(()),
                };
                if appended.is_err() {
                    ctx.enter_degraded(&mut m);
                }
                drop(m);
                fcm_obs::hist_record("serve.apply_ns", apply_ns);
                fcm_obs::counter_add("serve.mutations", 1);
                ctx.slo.lock().expect("slo lock").apply.record(apply_ns);
                if let Err(e) = appended {
                    let _ = reply.send(Err(format!("degraded: {e}")));
                    continue;
                }
                if result.is_ok() {
                    since_snapshot += 1;
                    ctx.accepted += 1;
                    // Build event payloads now (the reply consumes
                    // `result`)…
                    if let (Ok(payload), Some(((repr_b, nnz_b), (repr_a, nnz_a)))) =
                        (&result, briefs)
                    {
                        #[allow(clippy::cast_precision_loss)]
                        let nnz_delta = nnz_a as f64 - nnz_b as f64;
                        pending_events.push((
                            "mutation",
                            payload
                                .clone()
                                .set("op", mutation.op())
                                .set("nnz_delta", nnz_delta),
                        ));
                        if repr_b != repr_a {
                            pending_events.push((
                                "repr_flip",
                                Json::object()
                                    .set("from", repr_b)
                                    .set("to", repr_a)
                                    .set("nnz", nnz_a),
                            ));
                        }
                    }
                    if ctx.heartbeat_every > 0
                        && ctx.accepted.is_multiple_of(ctx.heartbeat_every)
                        && ctx.bus.has_consumers()
                    {
                        // Count-based cadence: heartbeat positions in a
                        // deterministic mutation stream are themselves
                        // deterministic (the subscribe golden relies on
                        // this).
                        if let Ok(stats) = model.read().expect("model lock").query(&Query::Stats) {
                            pending_events.push(("stats", stats));
                        }
                    }
                }
                let _ = reply.send(result);
                // …and publish *after* the ack is on its way. The
                // `eseq` order is still assigned here, at the writer's
                // serialization point — subscribers observe exactly the
                // mutation order — but the streamer threads the publish
                // wakes no longer preempt the path between the apply
                // and the client's ack (on small machines that wakeup
                // preemption, not the publish itself, dominated
                // round-trip latency).
                for (name, detail) in pending_events.drain(..) {
                    ctx.bus.publish(name, detail);
                }
                if ctx.snapshot_every > 0 && since_snapshot >= ctx.snapshot_every {
                    // A failed periodic snapshot loses no acknowledged
                    // data (the journal files have everything); stay
                    // armed and retry after the next interval.
                    ctx.cut(model);
                    since_snapshot = 0;
                }
            }
            WriterMsg::Snapshot { reply } => {
                let result = if ctx.status.is_degraded() {
                    Err(DEGRADED_REJECT.to_string())
                } else {
                    since_snapshot = 0;
                    ctx.snapshot_now(model).map(|seq| match seq {
                        Some(seq) => Json::object().set("seq", seq).set("snapshotted", true),
                        None => Json::object().set("snapshotted", false),
                    })
                };
                let _ = reply.send(result);
            }
        }
    }
    // Channel closed: final snapshot before exit. In degraded mode the
    // snapshot is best-effort — SIGTERM while degraded still exits 0.
    match ctx.snapshot_now(model) {
        Ok(_) => Ok(()),
        Err(_) if ctx.status.is_degraded() => Ok(()),
        Err(e) => Err(e),
    }
}

/// In-flight pipelined mutations: request id plus the writer's reply
/// slot, in submission order (= response order).
type Pending = std::collections::VecDeque<(Option<Json>, mpsc::Receiver<Result<Json, String>>)>;

/// Writes one blob to the session's shared write half under its lock —
/// the same lock the subscription streamer threads take, so response
/// lines and event lines interleave only at line boundaries, never
/// mid-line.
fn write_locked(out: &Mutex<Stream>, bytes: &[u8]) -> bool {
    out.lock().expect("out lock").write_all(bytes).is_ok()
}

/// Awaits every in-flight mutation reply and writes the responses in
/// order (one syscall for the whole batch). Returns `false` when the
/// session is dead (writer gone or socket closed).
fn flush_pending(pending: &mut Pending, out: &Mutex<Stream>) -> bool {
    if pending.is_empty() {
        return true;
    }
    let mut batch = String::new();
    for (id, rx) in pending.drain(..) {
        let Ok(result) = rx.recv() else { return false };
        batch.push_str(&proto::render_response(id.as_ref(), &result));
    }
    write_locked(out, batch.as_bytes())
}

/// Drains one subscription onto the session's shared write half: pops
/// events (blocking), writes each rendered line, and — when the
/// subscription has a `max_events` cut-off — appends a final
/// `{"event":"end","delivered":…,"dropped":…}` line once the cut-off is
/// reached. Exits on write failure or subscription close, always
/// deregistering from the bus.
fn spawn_streamer(
    out: Arc<Mutex<Stream>>,
    sub: Arc<Subscriber>,
    bus: Arc<EventBus>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        // Batch bound: enough to drain a bursty queue in one write,
        // small enough to keep any one write (and the lock hold on the
        // shared half) bounded.
        const MAX_BATCH: u64 = 256;
        // Coalesce window: events wait up to this long so a busy
        // writer's burst is delivered as one write instead of one
        // wakeup+write per event (see `Subscriber::pop_batch`).
        const COALESCE: Duration = Duration::from_millis(2);
        loop {
            // Never overshoot a max_events cut-off mid-batch.
            let limit = match sub.max_events() {
                Some(m) => (m - sub.counts().0).min(MAX_BATCH),
                None => MAX_BATCH,
            };
            let PopBatch::Lines(lines, _) = sub.pop_batch(limit, COALESCE) else {
                break;
            };
            if !write_locked(&out, lines.as_bytes()) {
                break;
            }
            if sub.max_events().is_some_and(|m| sub.counts().0 >= m) {
                let (delivered, dropped) = sub.counts();
                let mut end = Json::object()
                    .set("event", "end")
                    .set("delivered", delivered)
                    .set("dropped", dropped)
                    .to_string_compact();
                end.push('\n');
                let _ = write_locked(&out, end.as_bytes());
                break;
            }
        }
        bus.unsubscribe(sub.id());
    })
}

/// A session's read half, which shuts the socket down when dropped: a
/// session that ends, by return or by panic (a poisoned model lock),
/// hands its client EOF at once. Closing this handle alone would not:
/// the accept loop's [`ClientSlot`] holds the socket open until it
/// reaps the slot at the next accept.
struct SessionStream(Stream);

impl Drop for SessionStream {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Records one answered query, timed from `t0`, in the query histogram,
/// the query counter and the rolling SLO window.
fn record_query(shared: &Shared, t0: Instant) {
    let query_ns = t0.elapsed().as_nanos() as u64;
    fcm_obs::hist_record("serve.query_ns", query_ns);
    fcm_obs::counter_add("serve.queries", 1);
    shared.slo.lock().expect("slo lock").query.record(query_ns);
}

/// Back-pressure bound: a session never holds more un-acknowledged
/// mutations than this before draining replies.
const MAX_PIPELINE: usize = 1024;

/// One connection: hello, then request/response lines until EOF. Parse
/// and I/O errors never kill the daemon — a malformed line gets a
/// structured error response and the loop continues.
///
/// Mutations *pipeline*: a run of consecutive mutation lines is
/// forwarded to the writer without waiting for individual replies, and
/// the in-order responses are flushed as a batch once the socket has no
/// more buffered input (or before any query, preserving
/// read-your-writes within the session). This amortizes the
/// conn-thread ↔ writer-thread handoff over the whole run instead of
/// paying two context switches per mutation.
/// Subscriptions add a second writer to the session socket: each
/// `subscribe` spawns a streamer thread that drains its bounded event
/// queue onto the same write half, so the half lives behind a `Mutex`
/// and every write (response batch or event line) is whole-line atomic.
/// The ack for a `subscribe` is written *before* its streamer spawns,
/// so the ack always precedes the first event line.
fn serve_client(stream: Stream, shared: &Shared, writer: &mpsc::SyncSender<WriterMsg>) {
    let mut stream = SessionStream(stream);
    let Ok(out) = stream.0.try_clone() else {
        return;
    };
    let out = Arc::new(Mutex::new(out));
    {
        let m = shared.model.read().expect("model lock");
        let hello = proto::hello(m.name(), m.fcm_count(), m.hw_count(), m.seq());
        if !write_locked(&out, hello.as_bytes()) {
            return;
        }
    }
    let mut inbuf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut pending = Pending::new();
    let mut subs: Vec<(Arc<Subscriber>, JoinHandle<()>)> = Vec::new();
    'session: loop {
        // Dispatch every complete line currently buffered.
        let mut start = 0usize;
        while let Some(pos) = inbuf[start..].iter().position(|&b| b == b'\n') {
            let end = start + pos;
            let line = String::from_utf8_lossy(&inbuf[start..end]).into_owned();
            start = end + 1;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (id, parsed) = proto::parse_line(line);
            match parsed {
                Ok(Request::Mutation(m)) => {
                    let (tx, rx) = mpsc::channel();
                    if writer
                        .send(WriterMsg::Apply {
                            mutation: m,
                            reply: tx,
                        })
                        .is_err()
                    {
                        break 'session;
                    }
                    pending.push_back((id, rx));
                    if pending.len() >= MAX_PIPELINE && !flush_pending(&mut pending, &out) {
                        break 'session;
                    }
                }
                Ok(Request::Subscribe(opts)) => {
                    // Settle mutations first so the subscription's
                    // `next_eseq` reflects everything this session
                    // already submitted.
                    if !flush_pending(&mut pending, &out) {
                        break 'session;
                    }
                    let capacity = opts.queue.unwrap_or(shared.sub_queue);
                    let (sub, next_eseq) = shared.bus.subscribe(capacity, opts.max_events);
                    let mut ack = Json::object()
                        .set("next_eseq", next_eseq)
                        .set("queue", capacity as u64)
                        .set("subscription", sub.id());
                    if let Some(m) = opts.max_events {
                        ack = ack.set("max_events", m);
                    }
                    let response = proto::render_response(id.as_ref(), &Ok(ack));
                    if !write_locked(&out, response.as_bytes()) {
                        shared.bus.unsubscribe(sub.id());
                        break 'session;
                    }
                    let streamer =
                        spawn_streamer(Arc::clone(&out), Arc::clone(&sub), Arc::clone(&shared.bus));
                    subs.push((sub, streamer));
                }
                Ok(Request::Query(Query::Dump)) => {
                    if !flush_pending(&mut pending, &out) {
                        break 'session;
                    }
                    // The state is written straight into the response
                    // line: no tree, no re-parse.
                    let t0 = Instant::now();
                    let response = {
                        let m = shared.model.read().expect("model lock");
                        proto::render_dump(id.as_ref(), &m.matrix_info(), |out| {
                            m.write_state(out, true);
                        })
                    };
                    record_query(shared, t0);
                    if !write_locked(&out, response.as_bytes()) {
                        break 'session;
                    }
                }
                parsed => {
                    // Order + read-your-writes: settle the pipelined
                    // mutations before answering anything else.
                    if !flush_pending(&mut pending, &out) {
                        break 'session;
                    }
                    let result = match parsed {
                        Err(e) => Err(e),
                        Ok(Request::Query(Query::Snapshot)) => {
                            let (tx, rx) = mpsc::channel();
                            if writer.send(WriterMsg::Snapshot { reply: tx }).is_err() {
                                break 'session;
                            }
                            match rx.recv() {
                                Ok(r) => r,
                                Err(_) => break 'session,
                            }
                        }
                        Ok(Request::Query(Query::Metrics)) => {
                            // Answered here, not in the model: the live
                            // counter/gauge/histogram registry plus the
                            // rolling SLO block — telemetry out, never in.
                            Ok(fcm_obs::metrics::snapshot()
                                .to_json()
                                .set("slo", slo_json(&shared.slo)))
                        }
                        Ok(Request::Query(q)) => {
                            let is_stats = matches!(q, Query::Stats);
                            let t0 = Instant::now();
                            let mut r = shared.model.read().expect("model lock").query(&q);
                            record_query(shared, t0);
                            if is_stats {
                                // Durability status rides along in stats;
                                // Json objects are BTreeMaps, so key
                                // order stays canonical.
                                r = r.map(|j| {
                                    let j = j
                                        .set("degraded", shared.status.is_degraded())
                                        .set("degraded_transitions", shared.status.transitions())
                                        .set("faults_injected", shared.injector.injected())
                                        .set("rearm_attempts", shared.status.rearm_attempts())
                                        .set("slo", slo_json(&shared.slo));
                                    if shared.durable {
                                        j.set("durable_seq", shared.status.durable_seq()).set(
                                            "snapshot_failures",
                                            shared.status.snapshot_failures(),
                                        )
                                    } else {
                                        j
                                    }
                                });
                            }
                            r
                        }
                        Ok(Request::Mutation(_) | Request::Subscribe(_)) => {
                            unreachable!("handled above")
                        }
                    };
                    let response = proto::render_response(id.as_ref(), &result);
                    if !write_locked(&out, response.as_bytes()) {
                        break 'session;
                    }
                }
            }
        }
        inbuf.drain(..start);
        // Refill. With replies pending, poll first: if the client has
        // nothing more queued, settle the batch before blocking (a
        // request/response client is waiting on those responses).
        if !pending.is_empty() {
            let _ = stream.0.set_nonblocking(true);
            let polled = stream.0.read(&mut chunk);
            let _ = stream.0.set_nonblocking(false);
            match polled {
                Ok(0) => break,
                Ok(n) => {
                    inbuf.extend_from_slice(&chunk[..n]);
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if !flush_pending(&mut pending, &out) {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        match stream.0.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    let _ = flush_pending(&mut pending, &out);
    // Session over: close this session's subscriptions and join their
    // streamers (each deregisters itself from the bus on exit).
    for (sub, _) in &subs {
        sub.close();
    }
    for (_, streamer) in subs {
        let _ = streamer.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::io::{BufRead, BufReader};

    fn send(out: &mut Stream, lines: &mut std::io::Lines<BufReader<Stream>>, req: &str) -> Json {
        out.write_all(req.as_bytes()).expect("write");
        out.write_all(b"\n").expect("write");
        let line = lines.next().expect("response").expect("read");
        Json::parse(&line).expect("valid response JSON")
    }

    fn open_session(addr: &str) -> (Stream, std::io::Lines<BufReader<Stream>>, Json) {
        let stream = connect(&Listen::Tcp(addr.to_string())).expect("connect");
        let out = stream.try_clone().expect("clone");
        let mut lines = BufReader::new(stream).lines();
        let hello = Json::parse(&lines.next().expect("hello").expect("read")).expect("hello JSON");
        (out, lines, hello)
    }

    #[test]
    fn end_to_end_session_over_tcp() {
        let handle = start(ServerConfig::new(
            Listen::Tcp("127.0.0.1:0".to_string()),
            "paper",
        ))
        .expect("server starts");
        let (mut out, mut lines, hello) = open_session(handle.addr());
        assert_eq!(
            hello.get("schema").and_then(Json::as_str),
            Some(crate::proto::SCHEMA)
        );

        let r = send(&mut out, &mut lines, r#"{"op":"ping","id":7}"#);
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(r.get("id").and_then(Json::as_f64), Some(7.0));

        let r = send(
            &mut out,
            &mut lines,
            r#"{"op":"add_fcm","name":"tcp1","criticality":1,"influences":[["p8",0.25]]}"#,
        );
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
        assert!(r.get("host").is_some());

        let r = send(
            &mut out,
            &mut lines,
            r#"{"op":"influence","from":"tcp1","to":"p8"}"#,
        );
        assert!(r.get("direct").and_then(Json::as_f64).unwrap() > 0.2);

        // Malformed line: structured error, session survives.
        let r = send(&mut out, &mut lines, "{nope");
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        assert!(r
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("parse"));
        let r = send(&mut out, &mut lines, r#"{"op":"stats"}"#);
        assert_eq!(r.get("full_condenses").and_then(Json::as_f64), Some(1.0));
        assert_eq!(r.get("seq").and_then(Json::as_f64), Some(1.0));

        handle.stop().expect("clean stop");
    }

    #[test]
    fn concurrent_readers_never_observe_a_torn_model() {
        let handle = start(ServerConfig::new(
            Listen::Tcp("127.0.0.1:0".to_string()),
            "paper",
        ))
        .expect("server starts");
        let addr = handle.addr().to_string();

        // Writer session: add/remove a chain of FCMs.
        let w = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let (mut out, mut lines, _) = open_session(&addr);
                for i in 0..30 {
                    let add = format!(
                        r#"{{"op":"add_fcm","name":"w{i}","criticality":1,"influences":[["p8",0.5]]}}"#
                    );
                    assert_eq!(
                        send(&mut out, &mut lines, &add).get("ok"),
                        Some(&Json::Bool(true))
                    );
                    let rm = format!(r#"{{"op":"remove_fcm","name":"w{i}"}}"#);
                    assert_eq!(
                        send(&mut out, &mut lines, &rm).get("ok"),
                        Some(&Json::Bool(true))
                    );
                }
            })
        };
        // Reader sessions: dump must always be internally consistent —
        // influence matrix dimensions match the fcm list exactly.
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let (mut out, mut lines, _) = open_session(&addr);
                    for _ in 0..40 {
                        let r = send(&mut out, &mut lines, r#"{"op":"dump"}"#);
                        let state = r.get("state").expect("state");
                        let n = state.get("fcms").and_then(Json::as_array).unwrap().len();
                        let rows = state.get("influence").and_then(Json::as_array).unwrap();
                        assert_eq!(rows.len(), n, "row count matches fcm count");
                        for row in rows {
                            assert_eq!(row.as_array().unwrap().len(), n);
                        }
                    }
                })
            })
            .collect();
        w.join().expect("writer session");
        for r in readers {
            r.join().expect("reader session");
        }
        handle.stop().expect("clean stop");
    }

    #[test]
    fn kill_and_resume_reproduces_the_model_byte_identically() {
        let dir = std::env::temp_dir().join(format!("fcm-serve-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Straight-through reference run.
        let part1 = [
            r#"{"op":"add_fcm","name":"r1","criticality":2,"influences":[["p2a",0.4]]}"#,
            r#"{"op":"set_attr","name":"r1","criticality":3}"#,
            r#"{"op":"fail_node","node":"hw4"}"#,
        ];
        let part2 = [
            r#"{"op":"restore_node","node":"hw4"}"#,
            r#"{"op":"add_fcm","name":"r2","criticality":1,"influenced_by":[["r1",0.7]]}"#,
        ];
        let reference = {
            let h = start(ServerConfig::new(
                Listen::Tcp("127.0.0.1:0".to_string()),
                "paper",
            ))
            .unwrap();
            let (mut out, mut lines, _) = open_session(h.addr());
            for req in part1.iter().chain(part2.iter()) {
                assert_eq!(
                    send(&mut out, &mut lines, req).get("ok"),
                    Some(&Json::Bool(true))
                );
            }
            let dump = send(&mut out, &mut lines, r#"{"op":"dump"}"#);
            h.stop().unwrap();
            dump.get("state").unwrap().to_string_compact()
        };

        // Durable run through part 1 with every snapshot failing, so no
        // snapshot retires the journal and the resume is forced through
        // journal-only replay (the kill -9 path scripts/verify.sh drives
        // end-to-end).
        {
            let h = start(ServerConfig {
                state_dir: Some(dir.clone()),
                snapshot_every: 2,
                fault: FaultPlan::parse("snapshot.tmp.write:eio").unwrap(),
                ..ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), "paper")
            })
            .unwrap();
            let (mut out, mut lines, _) = open_session(h.addr());
            for req in &part1 {
                assert_eq!(
                    send(&mut out, &mut lines, req).get("ok"),
                    Some(&Json::Bool(true))
                );
            }
            drop(h);
        }
        assert!(!dir.join("snapshot.json").exists(), "every snapshot failed");
        // Resume and finish.
        let resumed = {
            let h = start(ServerConfig {
                state_dir: Some(dir.clone()),
                resume: true,
                snapshot_every: 2,
                ..ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), "paper")
            })
            .unwrap();
            assert_eq!(
                h.seq(),
                part1.len() as u64,
                "recovered every accepted mutation"
            );
            let (mut out, mut lines, _) = open_session(h.addr());
            for req in &part2 {
                assert_eq!(
                    send(&mut out, &mut lines, req).get("ok"),
                    Some(&Json::Bool(true))
                );
            }
            let dump = send(&mut out, &mut lines, r#"{"op":"dump"}"#);
            h.stop().unwrap();
            dump.get("state").unwrap().to_string_compact()
        };
        assert_eq!(resumed, reference, "resume converges byte-identically");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_retired_journal_without_its_snapshot_is_refused() {
        // Seqs 1 and 2 are covered by a snapshot that retired their
        // lines; seq 3 is journaled after it. With the snapshot gone the
        // journal starts at seq 3, which a fresh model cannot reach.
        let dir = std::env::temp_dir().join(format!("fcm-serve-retired-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = Store::create_fresh(&dir).unwrap();
        let mut model = LiveModel::new("paper").unwrap();
        for (i, line) in [
            r#"{"op":"fail_node","node":"hw2"}"#,
            r#"{"op":"restore_node","node":"hw2"}"#,
            r#"{"op":"set_attr","name":"p8","criticality":2}"#,
        ]
        .iter()
        .enumerate()
        {
            let Ok(Request::Mutation(m)) = proto::parse_line(line).1 else {
                panic!("{line} is a mutation")
            };
            model.apply(&m).unwrap();
            store.append(model.seq(), &m).unwrap();
            if i == 1 {
                store
                    .snapshot_text(model.seq(), &model.state_text())
                    .unwrap();
            }
        }
        drop(store);
        std::fs::remove_file(dir.join("snapshot.json")).unwrap();
        let err = start(ServerConfig {
            state_dir: Some(dir.clone()),
            resume: true,
            ..ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), "paper")
        })
        .err()
        .expect("a journal that starts past seq 1 is refused");
        assert_eq!(err, "journal replay drift: expected seq 3, model at 1");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failing_retirement_never_degrades_the_daemon() {
        let dir = std::env::temp_dir().join(format!("fcm-serve-noretire-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = |fault: FaultPlan, resume: bool| ServerConfig {
            state_dir: Some(dir.clone()),
            resume,
            snapshot_every: 2,
            fault,
            ..ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), "paper")
        };
        let h = start(config(
            FaultPlan::parse("journal.retire:eio").unwrap(),
            false,
        ))
        .unwrap();
        let (mut out, mut lines, _) = open_session(h.addr());
        for req in [
            r#"{"op":"fail_node","node":"hw2"}"#,
            r#"{"op":"restore_node","node":"hw2"}"#,
            r#"{"op":"set_attr","name":"p8","criticality":2}"#,
        ] {
            let r = send(&mut out, &mut lines, req);
            assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
        }
        let r = send(&mut out, &mut lines, r#"{"op":"snapshot"}"#);
        assert_eq!(r.get("snapshotted"), Some(&Json::Bool(true)), "{r:?}");
        let stats = send(&mut out, &mut lines, r#"{"op":"stats"}"#);
        assert_eq!(stats.get("degraded"), Some(&Json::Bool(false)));
        assert_eq!(
            stats.get("faults_injected").and_then(Json::as_f64),
            Some(2.0),
            "both retirements failed"
        );
        h.stop().expect("a failed retirement is no shutdown error");
        // Nothing was retired: the cut at seq 2 rotated lines 1 and 2,
        // and the later cuts found them still there and did not rotate.
        assert_eq!(journal_lines(&dir), (Some(2), 1));
        let h = start(config(FaultPlan::none(), true)).unwrap();
        assert_eq!(h.seq(), 3);
        h.stop().unwrap();
        // The shutdown snapshot retired the rotated lines; line 3 stays,
        // covered, until the next cut rotates it.
        assert_eq!(journal_lines(&dir), (None, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The lines in `journal.prev.jsonl` (`None` when it is absent) and
    /// in `journal.jsonl`.
    fn journal_lines(dir: &std::path::Path) -> (Option<usize>, usize) {
        let count = |name: &str| {
            std::fs::read_to_string(dir.join(name))
                .ok()
                .map(|t| t.lines().count())
        };
        (
            count("journal.prev.jsonl"),
            count("journal.jsonl").expect("the journal exists"),
        )
    }

    #[test]
    fn a_failed_snapshot_is_counted_and_the_next_one_retires_both_journals() {
        let dir = std::env::temp_dir().join(format!("fcm-serve-snapfail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let h = start(ServerConfig {
            state_dir: Some(dir.clone()),
            snapshot_every: 2,
            fault: FaultPlan::parse("snapshot.tmp.fsync:eio@0").unwrap(),
            ..ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), "paper")
        })
        .unwrap();
        let (mut out, mut lines, _) = open_session(h.addr());
        let stats = send(&mut out, &mut lines, r#"{"op":"stats"}"#);
        assert_eq!(stats.get("durable_seq").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            stats.get("snapshot_failures").and_then(Json::as_f64),
            Some(0.0)
        );
        // The cut after the second mutation rotates lines 1 and 2 and
        // its snapshot fails at the temp-file fsync.
        for req in [
            r#"{"op":"fail_node","node":"hw2"}"#,
            r#"{"op":"restore_node","node":"hw2"}"#,
        ] {
            let r = send(&mut out, &mut lines, req);
            assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
        }
        // The snapshot op waits for that one, then snapshots seq 2
        // without rotating and retires the rotated lines.
        let r = send(&mut out, &mut lines, r#"{"op":"snapshot"}"#);
        assert_eq!(r.get("snapshotted"), Some(&Json::Bool(true)), "{r:?}");
        assert_eq!(r.get("seq").and_then(Json::as_f64), Some(2.0));
        let stats = send(&mut out, &mut lines, r#"{"op":"stats"}"#);
        assert_eq!(stats.get("degraded"), Some(&Json::Bool(false)));
        assert_eq!(
            stats.get("snapshot_failures").and_then(Json::as_f64),
            Some(1.0)
        );
        assert_eq!(stats.get("durable_seq").and_then(Json::as_f64), Some(2.0));
        assert_eq!(journal_lines(&dir), (None, 0));
        h.stop().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejected_mutations_do_not_reach_the_journal() {
        let dir = std::env::temp_dir().join(format!("fcm-serve-rej-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let h = start(ServerConfig {
            state_dir: Some(dir.clone()),
            ..ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), "paper")
        })
        .unwrap();
        let (mut out, mut lines, _) = open_session(h.addr());
        let r = send(
            &mut out,
            &mut lines,
            r#"{"op":"remove_fcm","name":"ghost"}"#,
        );
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        let r = send(
            &mut out,
            &mut lines,
            r#"{"op":"set_attr","name":"p8","criticality":2}"#,
        );
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        // Read before the stop: its snapshot retires the journal. The
        // append is flushed before the ack, so the line is there.
        let journal = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
        let lines: Vec<&str> = journal.lines().collect();
        assert_eq!(lines.len(), 1, "only the accepted mutation was journaled");
        assert!(lines[0].contains("set_attr"));
        h.stop().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unix_socket_round_trip() {
        let path = std::env::temp_dir().join(format!("fcm-serve-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let h = start(ServerConfig::new(Listen::Unix(path.clone()), "avionics"))
            .expect("unix server starts");
        let stream = connect(&Listen::Unix(path.clone())).expect("connect");
        let mut out = stream.try_clone().unwrap();
        let mut lines = BufReader::new(stream).lines();
        let _hello = lines.next().unwrap().unwrap();
        let r = send(&mut out, &mut lines, r#"{"op":"list"}"#);
        let fcms = r.get("fcms").and_then(Json::as_array).unwrap();
        assert!(!fcms.is_empty());
        h.stop().expect("clean stop");
        assert!(!path.exists(), "socket file removed on shutdown");
    }

    #[test]
    fn subscription_streams_writer_events_in_order() {
        let handle = start(ServerConfig {
            heartbeat_every: 2,
            ..ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), "paper")
        })
        .expect("server starts");

        // Subscriber attaches before any mutation, so eseq starts at 0.
        let (mut sub_out, mut sub_lines, _) = open_session(handle.addr());
        let ack = send(
            &mut sub_out,
            &mut sub_lines,
            r#"{"op":"subscribe","max_events":5}"#,
        );
        assert_eq!(ack.get("ok"), Some(&Json::Bool(true)), "{ack:?}");
        assert_eq!(ack.get("next_eseq").and_then(Json::as_f64), Some(0.0));
        assert_eq!(ack.get("max_events").and_then(Json::as_f64), Some(5.0));
        assert!(ack.get("queue").and_then(Json::as_f64).unwrap() >= 1.0);

        // Mutations from a *different* session; with heartbeat_every=2
        // the published stream is: mutation, mutation, stats, mutation,
        // mutation, stats — the subscriber's cut-off lands mid-stream.
        let (mut out, mut lines, _) = open_session(handle.addr());
        for i in 0..4 {
            let add = format!(
                r#"{{"op":"add_fcm","name":"s{i}","criticality":1,"influences":[["p8",0.5]]}}"#
            );
            assert_eq!(
                send(&mut out, &mut lines, &add).get("ok"),
                Some(&Json::Bool(true))
            );
        }

        let mut names = Vec::new();
        for want_eseq in 0..5u64 {
            let line = sub_lines.next().expect("event line").expect("read");
            let ev = Json::parse(&line).expect("event JSON");
            assert_eq!(
                ev.get("eseq").and_then(Json::as_f64),
                Some(want_eseq as f64)
            );
            assert_eq!(ev.get("dropped").and_then(Json::as_f64), Some(0.0));
            names.push(ev.get("event").and_then(Json::as_str).unwrap().to_string());
        }
        assert_eq!(
            names,
            ["mutation", "mutation", "stats", "mutation", "mutation"]
        );

        let end = Json::parse(&sub_lines.next().expect("end line").expect("read")).unwrap();
        assert_eq!(end.get("event").and_then(Json::as_str), Some("end"));
        assert_eq!(end.get("delivered").and_then(Json::as_f64), Some(5.0));
        assert_eq!(end.get("dropped").and_then(Json::as_f64), Some(0.0));

        // The subscriber session still answers regular requests after
        // its stream ended.
        let r = send(&mut sub_out, &mut sub_lines, r#"{"op":"ping"}"#);
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        handle.stop().expect("clean stop");
    }

    #[test]
    fn metrics_query_returns_the_live_registry() {
        let handle = start(ServerConfig::new(
            Listen::Tcp("127.0.0.1:0".to_string()),
            "paper",
        ))
        .expect("server starts");
        let (mut out, mut lines, _) = open_session(handle.addr());
        assert_eq!(
            send(&mut out, &mut lines, r#"{"op":"ping"}"#).get("ok"),
            Some(&Json::Bool(true))
        );
        let r = send(&mut out, &mut lines, r#"{"op":"metrics"}"#);
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
        assert!(r.get("counters").is_some());
        assert!(r.get("gauges").is_some());
        assert!(r.get("hists").is_some());
        // No op has completed an SLO window yet: deterministic null.
        assert_eq!(r.get("slo"), Some(&Json::Null));
        handle.stop().expect("clean stop");
    }

    #[test]
    fn writer_serializes_conflicting_sessions() {
        // Two sessions race to add the same name; exactly one wins.
        let handle = start(ServerConfig::new(
            Listen::Tcp("127.0.0.1:0".to_string()),
            "paper",
        ))
        .unwrap();
        let addr = handle.addr().to_string();
        let outcomes: Vec<bool> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let (mut out, mut lines, _) = open_session(&addr);
                    let r = send(
                        &mut out,
                        &mut lines,
                        r#"{"op":"add_fcm","name":"race","criticality":0}"#,
                    );
                    r.get("ok") == Some(&Json::Bool(true))
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect();
        let wins: BTreeMap<bool, usize> = outcomes.iter().fold(BTreeMap::new(), |mut acc, &b| {
            *acc.entry(b).or_default() += 1;
            acc
        });
        assert_eq!(wins.get(&true), Some(&1), "{outcomes:?}");
        assert_eq!(wins.get(&false), Some(&1), "{outcomes:?}");
        handle.stop().unwrap();
    }

    #[test]
    fn readers_never_see_a_mutation_whose_append_failed() {
        // Mutation K's journal write fails (it is hit K - 1 of the site),
        // so the writer rolls the model back to seq K - 1 by replaying
        // the K - 1 journaled adds. A reader spinning on the model lock
        // all the while must never see seq K. The lock alone decides
        // this, not timing: a writer that released the lock before the
        // append or the rollback leaves a window the reader only
        // usually hits, the longer the replay the more often.
        const K: u64 = 64;
        let dir = std::env::temp_dir().join(format!("fcm-serve-dirty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let handle = start(ServerConfig {
            state_dir: Some(dir.clone()),
            fault: FaultPlan::parse(&format!("journal.append.write:eio@{}", K - 1)).unwrap(),
            ..ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), "paper")
        })
        .unwrap();
        let done = Arc::new(AtomicBool::new(false));
        let spinning = Arc::new(std::sync::Barrier::new(2));
        let reader = {
            let model = Arc::clone(&handle.model);
            let (done, spinning) = (Arc::clone(&done), Arc::clone(&spinning));
            std::thread::spawn(move || {
                spinning.wait();
                let (mut reads, mut max_seq) = (0u64, 0u64);
                while !done.load(Ordering::SeqCst) {
                    max_seq = max_seq.max(model.read().expect("model lock").seq());
                    reads += 1;
                }
                (reads, max_seq)
            })
        };
        let (mut out, mut lines, _) = open_session(handle.addr());
        spinning.wait();
        for i in 1..=K {
            let add = format!(r#"{{"op":"add_fcm","name":"d{i}","influences":[["p8",0.01]]}}"#);
            let r = send(&mut out, &mut lines, &add);
            assert_eq!(r.get("ok") == Some(&Json::Bool(true)), i < K, "{i}: {r:?}");
        }
        done.store(true, Ordering::SeqCst);
        let (reads, max_seq) = reader.join().expect("reader thread");
        assert!(reads > 0);
        assert!(
            max_seq < K,
            "a reader saw seq {max_seq}, whose append failed"
        );
        assert_eq!(handle.seq(), K - 1, "rolled back to the journal");
        handle.stop().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_session_that_panics_closes_its_socket() {
        let handle = start(ServerConfig::new(
            Listen::Tcp("127.0.0.1:0".to_string()),
            "paper",
        ))
        .unwrap();
        let (mut out, mut lines, _) = open_session(handle.addr());
        if let Stream::Tcp(s) = &out {
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        }
        // Poison the model lock: a thread panics while it holds it.
        let model = Arc::clone(&handle.model);
        let poisoner = std::thread::spawn(move || {
            let _held = model.write().expect("model lock");
            panic!("poisoning the model lock on purpose");
        });
        assert!(poisoner.join().is_err());
        // The query panics the session thread on the poisoned lock; its
        // client must read EOF, not wait for a reply that never comes.
        out.write_all(b"{\"op\":\"stats\"}\n").expect("write");
        match lines.next() {
            None => {}
            Some(Err(e)) => panic!("the client hung instead of reading EOF: {e}"),
            Some(Ok(line)) => panic!("a poisoned session answered: {line}"),
        }
        handle.stop().unwrap();
    }
}
