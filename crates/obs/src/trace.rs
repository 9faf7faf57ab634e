//! The span tracer: runtime-toggleable, with per-thread ring-buffer sinks.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled tracing is free in practice.** Creating a [`SpanGuard`]
//!    while tracing is off performs exactly one `Relaxed` atomic load and
//!    returns an inert guard — no clock read, no thread-local access, no
//!    allocation. (The benchmark times the same query with the tracer off
//!    and on and reports the ratio as `obs.enabled_overhead_ratio`.)
//! 2. **The record path takes no locks.** Each thread owns a bounded ring
//!    buffer behind a `thread_local!`; recording a finished span is a clock
//!    read plus a ring push. The only synchronisation is a global mutex
//!    taken when a ring is *flushed* — at thread exit, or explicitly via
//!    [`flush_thread`] / [`take_trace`].
//! 3. **Timestamps are monotonic** and shared across threads: nanoseconds
//!    since a process-wide [`Instant`] epoch, so spans from different
//!    threads order correctly in one timeline.
//!
//! Spans are recorded as *complete* events (start, end, nesting depth) when
//! the guard drops, so a collected trace is balanced by construction; the
//! nesting depth lets exporters and tests rebuild the span tree without an
//! explicit enter/exit event pair. When a ring overflows, the oldest events
//! are dropped and counted in [`ThreadLog::dropped`] — tracing degrades, it
//! never blocks the traced thread.
//!
//! Collection model: call [`enable`], run the workload, [`disable`], make
//! sure the threads you care about have exited (every thread flushes its
//! ring automatically at exit, so joining a worker pool is enough), then
//! [`take_trace`]. Long-lived threads that never exit can flush themselves
//! with [`flush_thread`].

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Per-thread ring capacity, in events. Oldest events are dropped (and
/// counted) beyond this.
pub const RING_CAPACITY: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Bumped by every [`enable`]; rings lazily discard events from older
/// sessions so a re-enabled tracer never mixes two workloads.
static SESSION: AtomicU32 = AtomicU32::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide tracer epoch (monotonic).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn collector() -> MutexGuard<'static, Vec<ThreadLog>> {
    static COLLECTOR: OnceLock<Mutex<Vec<ThreadLog>>> = OnceLock::new();
    COLLECTOR
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// One finished span (or instant event, when `start_ns == end_ns`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name (e.g. `"execute"`, `"trie-build"`).
    pub name: &'static str,
    /// Optional free-form attribute, set by [`SpanGuard::set_attr`].
    pub attr: Option<Box<str>>,
    /// Start, in nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer epoch (`== start_ns` for
    /// instant events).
    pub end_ns: u64,
    /// Nesting depth at which the span ran (0 = top level on its thread).
    pub depth: u32,
}

impl SpanEvent {
    /// Whether this is a zero-duration instant event.
    pub fn is_instant(&self) -> bool {
        self.start_ns == self.end_ns
    }
}

/// All events one thread contributed to a trace.
#[derive(Debug, Clone)]
pub struct ThreadLog {
    /// The thread's name, or `thread-{tid}` for unnamed threads.
    pub thread: String,
    /// A process-unique numeric id for the thread (stable lane id).
    pub tid: u64,
    /// Events in record order (= span end order within the thread).
    pub events: Vec<SpanEvent>,
    /// Events discarded because the ring overflowed.
    pub dropped: u64,
}

/// A collected trace: one [`ThreadLog`] per contributing thread.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Per-thread logs, sorted by thread id.
    pub threads: Vec<ThreadLog>,
}

impl Trace {
    /// Total number of events across all threads.
    pub fn total_events(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Whether the trace holds no events at all.
    pub fn is_empty(&self) -> bool {
        self.total_events() == 0
    }
}

struct LocalSink {
    tid: u64,
    thread: String,
    session: u32,
    depth: u32,
    ring: VecDeque<SpanEvent>,
    dropped: u64,
}

impl LocalSink {
    fn new() -> Self {
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let thread = std::thread::current()
            .name()
            .map(str::to_owned)
            .unwrap_or_else(|| format!("thread-{tid}"));
        LocalSink {
            tid,
            thread,
            session: SESSION.load(Ordering::Relaxed),
            depth: 0,
            ring: VecDeque::new(),
            dropped: 0,
        }
    }

    fn roll_session(&mut self) {
        let session = SESSION.load(Ordering::Relaxed);
        if session != self.session {
            self.ring.clear();
            self.dropped = 0;
            self.session = session;
        }
    }

    fn record(&mut self, ev: SpanEvent) {
        self.roll_session();
        if self.ring.len() >= RING_CAPACITY {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    fn flush_into(&mut self, out: &mut Vec<ThreadLog>) {
        self.roll_session();
        if self.ring.is_empty() && self.dropped == 0 {
            return;
        }
        out.push(ThreadLog {
            thread: self.thread.clone(),
            tid: self.tid,
            events: self.ring.drain(..).collect(),
            dropped: std::mem::take(&mut self.dropped),
        });
    }
}

impl Drop for LocalSink {
    fn drop(&mut self) {
        // Thread exit: hand whatever the ring holds to the global collector
        // so joined worker threads need no explicit flushing.
        self.flush_into(&mut collector());
    }
}

thread_local! {
    static SINK: RefCell<LocalSink> = RefCell::new(LocalSink::new());
}

/// Whether tracing is currently enabled (one `Relaxed` load).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns tracing on, starting a fresh session: events and logs from any
/// previous session are discarded.
pub fn enable() {
    SESSION.fetch_add(1, Ordering::SeqCst);
    collector().clear();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns tracing off. In-flight guards on other threads may still record
/// their final event; join (or flush) those threads before [`take_trace`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Flushes the calling thread's ring into the global collector. Long-lived
/// threads (e.g. service workers) can call this between jobs; exiting
/// threads flush automatically.
pub fn flush_thread() {
    let mut out = Vec::new();
    SINK.with(|s| s.borrow_mut().flush_into(&mut out));
    if !out.is_empty() {
        collector().append(&mut out);
    }
}

/// Flushes the calling thread and drains everything collected so far into a
/// [`Trace`]. Logs from the same thread are merged; threads are sorted by
/// id. Typically called after [`disable`] once worker threads have exited.
pub fn take_trace() -> Trace {
    flush_thread();
    let mut raw = std::mem::take(&mut *collector());
    raw.sort_by_key(|l| l.tid);
    let mut threads: Vec<ThreadLog> = Vec::new();
    for log in raw {
        match threads.last_mut() {
            Some(prev) if prev.tid == log.tid => {
                prev.events.extend(log.events);
                prev.dropped += log.dropped;
            }
            _ => threads.push(log),
        }
    }
    for t in &mut threads {
        t.events.sort_by_key(|e| (e.end_ns, e.start_ns));
    }
    Trace { threads }
}

/// An RAII span: records one [`SpanEvent`] on drop. Create via [`span`] or
/// [`span_with`]; inert (and cost-free) while tracing is disabled.
///
/// Guards must drop on the thread that created them (they index that
/// thread's ring and nesting depth) — the usual scoped-guard usage.
#[must_use = "a span guard records its span when dropped"]
pub struct SpanGuard {
    name: &'static str,
    attr: Option<Box<str>>,
    start_ns: u64,
    active: bool,
}

impl SpanGuard {
    /// Whether this guard will record an event (i.e. tracing was enabled
    /// when it was created).
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Attaches a free-form attribute to the span. The closure only runs if
    /// the guard is active, so attribute formatting costs nothing while
    /// tracing is off.
    pub fn set_attr(&mut self, attr: impl FnOnce() -> String) {
        if self.active {
            self.attr = Some(attr().into_boxed_str());
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end_ns = now_ns();
        let name = self.name;
        let attr = self.attr.take();
        let start_ns = self.start_ns;
        SINK.with(|s| {
            let mut s = s.borrow_mut();
            s.depth = s.depth.saturating_sub(1);
            let depth = s.depth;
            s.record(SpanEvent {
                name,
                attr,
                start_ns,
                end_ns,
                depth,
            });
        });
    }
}

/// Opens a span named `name`. While tracing is disabled this is a single
/// relaxed atomic load returning an inert guard.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            name,
            attr: None,
            start_ns: 0,
            active: false,
        };
    }
    SINK.with(|s| s.borrow_mut().depth += 1);
    SpanGuard {
        name,
        attr: None,
        start_ns: now_ns(),
        active: true,
    }
}

/// Opens a span with an attribute; `attr` only runs while tracing is
/// enabled.
#[inline]
pub fn span_with(name: &'static str, attr: impl FnOnce() -> String) -> SpanGuard {
    let mut g = span(name);
    g.set_attr(attr);
    g
}

/// Records a zero-duration instant event (e.g. a cache hit) at the current
/// nesting depth. A single relaxed load while tracing is disabled.
#[inline]
pub fn instant(name: &'static str) {
    if !enabled() {
        return;
    }
    let t = now_ns();
    SINK.with(|s| {
        let mut s = s.borrow_mut();
        let depth = s.depth;
        s.record(SpanEvent {
            name,
            attr: None,
            start_ns: t,
            end_ns: t,
            depth,
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // The tracer is process-global; tests that toggle it serialise here.
    static LOCK: StdMutex<()> = StdMutex::new(());

    #[test]
    fn disabled_guards_record_nothing() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        disable();
        {
            let mut g = span("quiet");
            assert!(!g.is_active());
            g.set_attr(|| panic!("attr closure must not run while disabled"));
            instant("quiet-instant");
        }
        enable();
        disable();
        let trace = take_trace();
        assert!(trace.is_empty());
    }

    #[test]
    fn spans_nest_and_balance() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable();
        {
            let _a = span("outer");
            {
                let mut b = span("inner");
                b.set_attr(|| "k=1".to_owned());
            }
            instant("tick");
        }
        disable();
        let trace = take_trace();
        let log = trace
            .threads
            .iter()
            .find(|t| t.events.iter().any(|e| e.name == "outer"))
            .expect("this thread's log");
        let outer = log.events.iter().find(|e| e.name == "outer").unwrap();
        let inner = log.events.iter().find(|e| e.name == "inner").unwrap();
        let tick = log.events.iter().find(|e| e.name == "tick").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(tick.depth, 1);
        assert!(tick.is_instant());
        assert_eq!(inner.attr.as_deref(), Some("k=1"));
        // Proper containment and monotone clocks.
        assert!(outer.start_ns <= inner.start_ns);
        assert!(inner.end_ns <= outer.end_ns);
        assert!(inner.start_ns <= inner.end_ns);
    }

    #[test]
    fn worker_threads_flush_on_exit() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable();
        std::thread::Builder::new()
            .name("obs-test-worker".into())
            .spawn(|| {
                let _g = span("worker-span");
            })
            .unwrap()
            .join()
            .unwrap();
        disable();
        let trace = take_trace();
        let log = trace
            .threads
            .iter()
            .find(|t| t.thread == "obs-test-worker")
            .expect("worker log present without explicit flush");
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.events[0].name, "worker-span");
    }

    #[test]
    fn enable_starts_a_fresh_session() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable();
        {
            let _g = span("stale");
        }
        // Deliberately not collected: a new session must discard it.
        enable();
        {
            let _g = span("fresh");
        }
        disable();
        let trace = take_trace();
        let names: Vec<&str> = trace
            .threads
            .iter()
            .flat_map(|t| t.events.iter().map(|e| e.name))
            .collect();
        assert!(names.contains(&"fresh"));
        assert!(!names.contains(&"stale"));
    }
}
