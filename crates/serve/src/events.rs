//! The serve-layer event bus: writer-serialized telemetry events
//! fanned out to per-session subscribers and the flight recorder.
//!
//! # Ordering
//!
//! Every event gets a global `eseq` from [`EventBus::publish`], which
//! is called from the writer thread's serialization point (and, for
//! degraded/re-arm transitions, from the same thread) — so the event
//! order every subscriber observes is *the* mutation order, and two
//! subscribers never see events transposed.
//!
//! # Backpressure
//!
//! Publishing never blocks and never waits on a socket: each subscriber
//! owns a bounded queue that overwrites its oldest entry when full,
//! counting the drop. A slow subscriber therefore costs the writer one
//! queue push per event, never a stall. Delivered events carry a
//! cumulative `"dropped"` field stamped at *pop* time; because drops
//! always evict the oldest queued event, every dropped event's `eseq`
//! is smaller than that of any event delivered later, which makes the
//! accounting exact: for consecutive deliveries `a` then `b`,
//! `b.eseq − a.eseq − 1 == b.dropped − a.dropped`. `servegen
//! --subscribe` asserts exactly this identity under load.
//!
//! Subscriptions are off by default and events are observations, never
//! inputs: nothing in the reply path reads the bus. When no subscriber
//! is attached and the flight recorder is off, [`EventBus::publish`]
//! is one atomic load plus an early return.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use fcm_substrate::Json;

/// Default per-subscriber queue bound.
pub const DEFAULT_SUB_QUEUE: usize = 1024;

/// One queued (not yet delivered) event.
struct QueuedEvent {
    eseq: u64,
    name: &'static str,
    /// Shared, unrendered payload: publish pushes one refcount per
    /// subscriber; the deep clone and JSON render happen at pop time,
    /// on the streamer's thread, never the writer's.
    detail: Arc<Json>,
}

struct SubState {
    queue: VecDeque<QueuedEvent>,
    /// Cumulative events dropped from this queue (oldest-evicted).
    dropped: u64,
    /// Events popped by the streamer.
    delivered: u64,
    closed: bool,
}

/// One session's subscription: a bounded queue drained by a dedicated
/// streamer thread.
pub struct Subscriber {
    id: u64,
    capacity: usize,
    max_events: Option<u64>,
    state: Mutex<SubState>,
    cv: Condvar,
}

/// What [`Subscriber::pop`] yields.
pub enum Pop {
    /// A rendered event line (newline-terminated).
    Line(String),
    /// The subscription is closed and the queue is drained.
    Closed,
}

/// What [`Subscriber::pop_batch`] yields.
pub enum PopBatch {
    /// Concatenated newline-terminated event lines plus the line count.
    Lines(String, u64),
    /// The subscription is closed and the queue is drained.
    Closed,
}

impl Subscriber {
    /// This subscription's bus id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The delivery cut-off, when one was requested.
    #[must_use]
    pub fn max_events(&self) -> Option<u64> {
        self.max_events
    }

    /// Blocks for the next event; renders it with the *current*
    /// cumulative drop count (see the module docs for why that makes
    /// gap accounting exact). Returns [`Pop::Closed`] once the
    /// subscription is closed and drained.
    pub fn pop(&self) -> Pop {
        let mut st = self.state.lock().expect("subscriber lock");
        loop {
            if let Some(ev) = st.queue.pop_front() {
                st.delivered += 1;
                let mut line = (*ev.detail)
                    .clone()
                    .set("event", ev.name)
                    .set("eseq", ev.eseq)
                    .set("dropped", st.dropped)
                    .to_string_compact();
                line.push('\n');
                return Pop::Line(line);
            }
            if st.closed {
                return Pop::Closed;
            }
            st = self.cv.wait(st).expect("subscriber lock");
        }
    }

    /// Like [`Subscriber::pop`], but drains up to `max` queued events
    /// into one buffer — one socket write per batch instead of per
    /// line. Blocks until at least one event (or close) arrives, then
    /// sleeps `coalesce` before draining so a busy writer's burst lands
    /// in one batch: event *content and order* are untouched, delivery
    /// just lags by at most the coalesce window. (Telemetry consumers
    /// trade that lag for an order of magnitude fewer wakeups — on a
    /// small host, per-event streamer wakeups visibly tax the serving
    /// path they observe.) Returns the concatenated newline-terminated
    /// lines plus the line count.
    pub fn pop_batch(&self, max: u64, coalesce: std::time::Duration) -> PopBatch {
        loop {
            {
                let mut st = self.state.lock().expect("subscriber lock");
                loop {
                    if !st.queue.is_empty() {
                        break;
                    }
                    if st.closed {
                        return PopBatch::Closed;
                    }
                    st = self.cv.wait(st).expect("subscriber lock");
                }
            }
            if !coalesce.is_zero() {
                std::thread::sleep(coalesce);
            }
            // Pop under the lock, render outside it: a publisher
            // (holding the bus lock) must never wait on a subscriber
            // mid-render.
            let mut batch = Vec::new();
            {
                let mut st = self.state.lock().expect("subscriber lock");
                while (batch.len() as u64) < max {
                    let Some(ev) = st.queue.pop_front() else {
                        break;
                    };
                    st.delivered += 1;
                    batch.push((ev, st.dropped));
                }
            }
            if batch.is_empty() {
                continue;
            }
            let n = batch.len() as u64;
            let mut lines = String::new();
            for (ev, dropped) in batch {
                lines.push_str(
                    &(*ev.detail)
                        .clone()
                        .set("event", ev.name)
                        .set("eseq", ev.eseq)
                        .set("dropped", dropped)
                        .to_string_compact(),
                );
                lines.push('\n');
            }
            return PopBatch::Lines(lines, n);
        }
    }

    /// `(delivered, dropped)` so far.
    #[must_use]
    pub fn counts(&self) -> (u64, u64) {
        let st = self.state.lock().expect("subscriber lock");
        (st.delivered, st.dropped)
    }

    /// Closes the subscription and wakes the streamer.
    pub fn close(&self) {
        self.state.lock().expect("subscriber lock").closed = true;
        self.cv.notify_all();
    }
}

struct BusInner {
    next_eseq: u64,
    next_sub_id: u64,
    subs: Vec<Arc<Subscriber>>,
}

/// The process-wide event bus (one per daemon).
pub struct EventBus {
    inner: Mutex<BusInner>,
    /// Live subscriber count, readable without the bus lock — the
    /// publish fast path when nobody is listening.
    consumers: AtomicUsize,
}

impl Default for EventBus {
    fn default() -> EventBus {
        EventBus::new()
    }
}

impl EventBus {
    /// An empty bus.
    #[must_use]
    pub fn new() -> EventBus {
        EventBus {
            inner: Mutex::new(BusInner {
                next_eseq: 0,
                next_sub_id: 0,
                subs: Vec::new(),
            }),
            consumers: AtomicUsize::new(0),
        }
    }

    /// Whether publishing has any observer (a subscriber or the flight
    /// recorder). When false, publishers may skip building event
    /// payloads entirely.
    #[must_use]
    pub fn has_consumers(&self) -> bool {
        self.consumers.load(Ordering::Relaxed) > 0 || fcm_obs::recorder::enabled()
    }

    /// Registers a subscriber; returns it plus the `eseq` its first
    /// observable event will carry.
    pub fn subscribe(&self, capacity: usize, max_events: Option<u64>) -> (Arc<Subscriber>, u64) {
        let mut bus = self.inner.lock().expect("bus lock");
        let sub = Arc::new(Subscriber {
            id: bus.next_sub_id,
            capacity: capacity.max(1),
            max_events,
            state: Mutex::new(SubState {
                queue: VecDeque::new(),
                dropped: 0,
                delivered: 0,
                closed: false,
            }),
            cv: Condvar::new(),
        });
        bus.next_sub_id += 1;
        bus.subs.push(Arc::clone(&sub));
        self.consumers.fetch_add(1, Ordering::Relaxed);
        (sub, bus.next_eseq)
    }

    /// Deregisters (and closes) a subscriber by id.
    pub fn unsubscribe(&self, id: u64) {
        let mut bus = self.inner.lock().expect("bus lock");
        if let Some(pos) = bus.subs.iter().position(|s| s.id == id) {
            let sub = bus.subs.remove(pos);
            self.consumers.fetch_sub(1, Ordering::Relaxed);
            sub.close();
        }
    }

    /// Publishes one event: assigns the next `eseq`, mirrors it into
    /// the flight recorder, and enqueues it on every open subscriber
    /// (overwrite-oldest + drop count when a queue is full). Returns
    /// the assigned `eseq`, or `None` when nothing observed it.
    pub fn publish(&self, name: &'static str, detail: Json) -> Option<u64> {
        if !self.has_consumers() {
            return None;
        }
        let mut bus = self.inner.lock().expect("bus lock");
        let eseq = bus.next_eseq;
        bus.next_eseq += 1;
        // One shared payload (with `eseq` baked in) for the recorder
        // and every subscriber: the whole fan-out is refcounts, no deep
        // copies on the writer thread. Pop-time rendering re-sets the
        // same `eseq`, so delivered bytes are unchanged.
        let detail = Arc::new(detail.set("eseq", eseq));
        if fcm_obs::recorder::enabled() {
            fcm_obs::recorder::record_arc(name, Arc::clone(&detail));
        }
        for sub in &bus.subs {
            let mut st = sub.state.lock().expect("subscriber lock");
            if st.closed {
                continue;
            }
            let was_empty = st.queue.is_empty();
            if st.queue.len() >= sub.capacity {
                st.queue.pop_front();
                st.dropped += 1;
            }
            st.queue.push_back(QueuedEvent {
                eseq,
                name,
                detail: Arc::clone(&detail),
            });
            drop(st);
            // Edge-triggered: a streamer that saw a non-empty queue is
            // already awake (or runnable) and will drain this event in
            // its current batch; waking it again per event only buys
            // context switches. (The lost-wakeup race is benign: a
            // streamer between its last pop and its next wait re-checks
            // the queue under the lock before sleeping.)
            if was_empty {
                sub.cv.notify_all();
            }
        }
        Some(eseq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_without_consumers_is_skipped() {
        let bus = EventBus::new();
        assert_eq!(bus.publish("ev", Json::object()), None);
        let (sub, next) = bus.subscribe(8, None);
        assert_eq!(next, 0, "eseq only advances when observed");
        assert_eq!(bus.publish("ev", Json::object()), Some(0));
        bus.unsubscribe(sub.id());
        assert_eq!(bus.publish("ev", Json::object()), None);
    }

    #[test]
    fn events_deliver_in_eseq_order_with_exact_drop_accounting() {
        let bus = EventBus::new();
        let (sub, _) = bus.subscribe(3, None);
        for i in 0..8u64 {
            bus.publish("tick", Json::object().set("i", i));
        }
        // Queue capacity 3: events 0..5 dropped, 5,6,7 retained.
        let mut prev: Option<(u64, u64)> = None;
        let mut seen = 0;
        sub.close();
        while let Pop::Line(line) = sub.pop() {
            let j = Json::parse(line.trim()).expect("event line");
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let eseq = j.get("eseq").and_then(Json::as_f64).unwrap() as u64;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let dropped = j.get("dropped").and_then(Json::as_f64).unwrap() as u64;
            if let Some((pe, pd)) = prev {
                assert_eq!(eseq - pe - 1, dropped - pd, "gap == drops");
            } else {
                assert_eq!(eseq, 5);
                assert_eq!(dropped, 5);
            }
            prev = Some((eseq, dropped));
            seen += 1;
        }
        assert_eq!(seen, 3);
        let (delivered, dropped) = sub.counts();
        assert_eq!((delivered, dropped), (3, 5));
    }

    #[test]
    fn closed_subscriber_stops_accumulating() {
        let bus = EventBus::new();
        let (sub, _) = bus.subscribe(8, None);
        bus.publish("a", Json::object());
        sub.close();
        bus.publish("b", Json::object());
        let mut n = 0;
        while let Pop::Line(_) = sub.pop() {
            n += 1;
        }
        assert_eq!(n, 1, "events after close are not queued");
    }
}
