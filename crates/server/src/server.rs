//! The serving front end: TCP accept loop, per-connection framing, the
//! prepared-statement cache, and end-to-end deadline / row-budget / admission
//! enforcement.
//!
//! One [`Server`] wraps one [`VersionedStore`] plus one
//! [`QueryService`] worker pool. Each accepted connection gets a thread that
//! reads request frames and replies in order (the protocol is strictly
//! request/reply, no pipelining guarantees beyond FIFO per connection).
//!
//! The request path is: decode → statement cache (parse/resolve/order once
//! per distinct `(MMQL, options)`) → **price** the query by its AGM bound on
//! the current snapshot → admission decision → submit to the worker pool
//! with the request deadline → wait with timeout → encode rows. Every query
//! runs serially on one pool worker, so the threads a server uses are fixed
//! by its configuration, never by a request.
//!
//! Shutdown is graceful: a `SHUTDOWN` frame (or [`ServerHandle::shutdown`])
//! stops the accept loop and new requests, while requests already being
//! served run to completion and reply; the worker pool then drains and
//! joins.

use crate::admission::{AdmissionController, AdmissionPolicy, Decision};
use crate::protocol::{self as proto, op, ErrorCode, RequestOpts};
use relational::Value;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{Builder, JoinHandle};
use std::time::{Duration, Instant};
use xjoin_core::{
    collect_atoms, parse_query_with_options, query_log_bound, ExecOptions, QueryOutput,
};
use xjoin_store::{PreparedQuery, QueryService, Snapshot, StoreError, VersionedStore};

/// How long a blocked read waits before re-checking the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Grace added to a client-side wait beyond the request deadline, so the
/// worker's own deadline check (which produces the better error, with the
/// true waited time) usually wins the race.
const WAIT_GRACE: Duration = Duration::from_millis(100);

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads in the query service pool.
    pub workers: usize,
    /// Admission policy (see [`AdmissionPolicy`]).
    pub admission: AdmissionPolicy,
    /// Deadline applied to requests that do not carry one; `0` means none.
    pub default_deadline_ms: u32,
    /// Distinct `(MMQL, options)` statements cached server-side; the oldest
    /// is evicted beyond this (its id then answers `EXEC` with
    /// [`ErrorCode::UnknownStmt`]).
    pub stmt_cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            admission: AdmissionPolicy::default(),
            default_deadline_ms: 0,
            stmt_cache_capacity: 64,
        }
    }
}

struct Pricing {
    epoch: u64,
    doc_version: u64,
    log2_bound: f64,
}

struct StmtEntry {
    id: u64,
    text: String,
    options_key: Vec<u8>,
    prepared: Arc<PreparedQuery>,
    /// AGM pricing, cached per store state: recomputed only when the
    /// snapshot's epoch or document version moved.
    pricing: Mutex<Option<Pricing>>,
}

impl StmtEntry {
    /// The `log2` AGM bound of this statement on `snap`, cached per store
    /// state. This is the admission controller's cost signal, available
    /// before any trie is built.
    fn log2_bound(&self, snap: &Snapshot) -> Result<f64, StoreError> {
        let mut cached = self.pricing.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(p) = cached.as_ref() {
            if p.epoch == snap.epoch() && p.doc_version == snap.doc_version() {
                return Ok(p.log2_bound);
            }
        }
        let log2_bound = price_query(snap, self.prepared.query())?;
        *cached = Some(Pricing {
            epoch: snap.epoch(),
            doc_version: snap.doc_version(),
            log2_bound,
        });
        Ok(log2_bound)
    }
}

/// Resolves the query's hypergraph + atom cardinalities on `snap` and
/// returns `log2` of its AGM bound. No trie is built: relational atoms are
/// resolved by reference and only twig path relations are materialised.
fn price_query(snap: &Snapshot, query: &xjoin_core::MultiModelQuery) -> Result<f64, StoreError> {
    let ctx = snap.ctx();
    let atoms = collect_atoms(&ctx, query)?;
    Ok(query_log_bound(&atoms)? / std::f64::consts::LN_2)
}

struct StmtCache {
    by_key: HashMap<(String, Vec<u8>), u64>,
    by_id: HashMap<u64, Arc<StmtEntry>>,
    fifo: VecDeque<u64>,
    next_id: u64,
    capacity: usize,
}

impl StmtCache {
    fn new(capacity: usize) -> Self {
        StmtCache {
            by_key: HashMap::new(),
            by_id: HashMap::new(),
            fifo: VecDeque::new(),
            next_id: 1,
            capacity: capacity.max(1),
        }
    }

    fn lookup_key(&self, text: &str, options_key: &[u8]) -> Option<Arc<StmtEntry>> {
        let id = self.by_key.get(&(text.to_string(), options_key.to_vec()))?;
        self.by_id.get(id).cloned()
    }

    fn insert(
        &mut self,
        text: String,
        options_key: Vec<u8>,
        prepared: PreparedQuery,
    ) -> Arc<StmtEntry> {
        while self.fifo.len() >= self.capacity {
            if let Some(old) = self.fifo.pop_front() {
                if let Some(entry) = self.by_id.remove(&old) {
                    self.by_key
                        .remove(&(entry.text.clone(), entry.options_key.clone()));
                }
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        let entry = Arc::new(StmtEntry {
            id,
            text: text.clone(),
            options_key: options_key.clone(),
            prepared: Arc::new(prepared),
            pricing: Mutex::new(None),
        });
        self.by_key.insert((text, options_key), id);
        self.by_id.insert(id, Arc::clone(&entry));
        self.fifo.push_back(id);
        entry
    }
}

struct ServerInner {
    store: Arc<VersionedStore>,
    service: QueryService,
    admission: AdmissionController,
    stmts: Mutex<StmtCache>,
    shutdown: AtomicBool,
    default_deadline_ms: u32,
}

/// The serving front end. Construct with [`Server::spawn`].
pub struct Server;

/// A running server: its bound address plus shutdown/join control.
pub struct ServerHandle {
    addr: SocketAddr,
    inner: Arc<ServerInner>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and starts serving `store`. Returns once the
    /// listener is live; all serving happens on background threads.
    pub fn spawn(store: Arc<VersionedStore>, config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(ServerInner {
            store,
            service: QueryService::new(config.workers),
            admission: AdmissionController::new(config.admission),
            stmts: Mutex::new(StmtCache::new(config.stmt_cache_capacity)),
            shutdown: AtomicBool::new(false),
            default_deadline_ms: config.default_deadline_ms,
        });
        let accept_inner = Arc::clone(&inner);
        let accept = Builder::new()
            .name("xjoin-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_inner))
            .expect("spawn accept thread");
        Ok(ServerHandle {
            addr,
            inner,
            accept: Some(accept),
        })
    }
}

impl ServerHandle {
    /// The bound address (with the actual port when `addr` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether shutdown has been requested (by a `SHUTDOWN` frame or
    /// [`ServerHandle::shutdown`]).
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown and blocks until in-flight work drained and every
    /// serving thread exited.
    pub fn shutdown(mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.join_accept();
    }

    /// Blocks until the server stops (e.g. a client sent `SHUTDOWN`).
    pub fn join(mut self) {
        self.join_accept();
    }

    fn join_accept(&mut self) {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.join_accept();
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<ServerInner>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    let mut next_conn = 0u64;
    while !inner.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_inner = Arc::clone(inner);
                let handle = Builder::new()
                    .name(format!("xjoin-conn-{next_conn}"))
                    .spawn(move || handle_connection(stream, &conn_inner))
                    .expect("spawn connection thread");
                next_conn += 1;
                conns.push(handle);
                conns.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
    // Drain: connections finish the request they are serving, then observe
    // the flag and exit; the service Drop below runs queued jobs to
    // completion before joining its workers.
    for h in conns {
        let _ = h.join();
    }
}

/// A reader over a non-blocking-ish socket that re-checks the shutdown flag
/// on every read timeout. Once shutdown is requested, a blocked read
/// reports EOF — at a frame boundary that is a clean close; mid-frame it
/// surfaces as a truncated-frame error.
struct PollRead<'a> {
    stream: &'a TcpStream,
    shutdown: &'a AtomicBool,
}

impl Read for PollRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match (&mut &*self.stream).read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return Ok(0);
                    }
                }
                r => return r,
            }
        }
    }
}

fn handle_connection(stream: TcpStream, inner: &Arc<ServerInner>) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    let metrics = xjoin_obs::global_metrics();
    loop {
        let mut reader = PollRead {
            stream: &stream,
            shutdown: &inner.shutdown,
        };
        let frame = match proto::read_frame(&mut reader) {
            Ok(Some(f)) => f,
            Ok(None) => break, // clean close (or shutdown while idle)
            Err(e) => {
                // Undecodable bytes: tell the peer why, then drop the
                // connection — framing is unrecoverable once desynced.
                let _ = proto::write_frame(
                    &mut &stream,
                    op::ERR,
                    &proto::encode_err(ErrorCode::Malformed, &e.to_string()),
                );
                break;
            }
        };
        metrics.counter("xjoin.server.requests").inc();
        let start = Instant::now();
        let (opcode, payload) = frame;
        // An Err means the write side failed; nothing more to do but close.
        let close = serve_frame(inner, &stream, opcode, &payload).unwrap_or(true);
        metrics
            .histogram("xjoin.server.request_us")
            .record(start.elapsed().as_micros() as u64);
        if close {
            break;
        }
    }
}

/// Serves one decoded frame; returns `Ok(true)` when the connection should
/// close afterwards.
fn serve_frame(
    inner: &Arc<ServerInner>,
    stream: &TcpStream,
    opcode: u8,
    payload: &[u8],
) -> io::Result<bool> {
    let mut w = stream;
    if inner.shutdown.load(Ordering::SeqCst) && opcode != op::STATS {
        proto::write_frame(
            &mut w,
            op::ERR,
            &proto::encode_err(ErrorCode::ShuttingDown, "server is shutting down"),
        )?;
        return Ok(true);
    }
    match opcode {
        op::QUERY => {
            let (reply_op, reply) = match proto::decode_query(payload) {
                Ok((opts, req, text)) => serve_query(inner, &opts, req, &text),
                Err(e) => malformed_reply(&e),
            };
            proto::write_frame(&mut w, reply_op, &reply)?;
            Ok(false)
        }
        op::PREPARE => {
            let (reply_op, reply) = match proto::decode_prepare(payload) {
                Ok((opts, text)) => serve_prepare(inner, &opts, &text),
                Err(e) => malformed_reply(&e),
            };
            proto::write_frame(&mut w, reply_op, &reply)?;
            Ok(false)
        }
        op::EXEC => {
            let (reply_op, reply) = match proto::decode_exec(payload) {
                Ok((stmt_id, req)) => serve_exec(inner, stmt_id, req),
                Err(e) => malformed_reply(&e),
            };
            proto::write_frame(&mut w, reply_op, &reply)?;
            Ok(false)
        }
        op::STATS => {
            let format = payload.first().copied().unwrap_or(0);
            let snap = xjoin_obs::global_metrics().snapshot();
            let body = if format == 1 {
                snap.to_json()
            } else {
                snap.to_string()
            };
            proto::write_frame(
                &mut w,
                op::STATS_REPLY,
                &proto::encode_stats_reply(format, &body),
            )?;
            Ok(false)
        }
        op::SHUTDOWN => {
            inner.shutdown.store(true, Ordering::SeqCst);
            proto::write_frame(&mut w, op::BYE, &[])?;
            Ok(true)
        }
        other => {
            proto::write_frame(
                &mut w,
                op::ERR,
                &proto::encode_err(ErrorCode::Malformed, &format!("unknown opcode {other:#x}")),
            )?;
            Ok(true)
        }
    }
}

fn malformed_reply(e: &proto::WireError) -> (u8, Vec<u8>) {
    (
        op::ERR,
        proto::encode_err(ErrorCode::Malformed, &e.to_string()),
    )
}

fn error_reply(code: ErrorCode, e: &impl std::fmt::Display) -> (u8, Vec<u8>) {
    (op::ERR, proto::encode_err(code, &e.to_string()))
}

/// Current service queue depth, clamped to non-negative.
fn queue_depth() -> usize {
    QueryService::queue_depth().max(0) as usize
}

/// Runs admission for a request priced at `log2_bound`; returns the
/// `OVERLOAD` reply on rejection.
fn admit(inner: &ServerInner, log2_bound: f64) -> Result<crate::admission::Permit, (u8, Vec<u8>)> {
    match inner.admission.decide(log2_bound, queue_depth()) {
        Decision::Accept(p) | Decision::Queued(p) => Ok(p),
        Decision::Reject {
            queue_depth,
            inflight_cost,
            reason,
        } => Err((
            op::OVERLOAD,
            proto::encode_overload(log2_bound, queue_depth as u32, inflight_cost, &reason),
        )),
    }
}

/// The absolute deadline for a request, folding in the server default.
fn request_deadline(inner: &ServerInner, req: RequestOpts) -> Option<Instant> {
    let ms = if req.deadline_ms > 0 {
        req.deadline_ms
    } else {
        inner.default_deadline_ms
    };
    (ms > 0).then(|| Instant::now() + Duration::from_millis(ms as u64))
}

/// Caps `opts.limit` by the request's row budget; returns the effective cap.
fn effective_limit(limit: Option<usize>, req: RequestOpts) -> Option<usize> {
    match (limit, req.row_budget) {
        (l, 0) => l,
        (None, b) => Some(b as usize),
        (Some(l), b) => Some(l.min(b as usize)),
    }
}

/// Looks up or prepares the cached statement for `(text, opts)`.
fn get_or_prepare(
    inner: &ServerInner,
    opts: &ExecOptions,
    text: &str,
) -> Result<(Arc<StmtEntry>, bool), (u8, Vec<u8>)> {
    let key = proto::options_key(opts);
    {
        let stmts = inner.stmts.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(entry) = stmts.lookup_key(text, &key) {
            return Ok((entry, true));
        }
    }
    // A `WITH ORDER` clause in the text overrides the wire options' order;
    // the cache key stays sound because it includes the text itself.
    let (query, text_order) =
        parse_query_with_options(text).map_err(|e| error_reply(ErrorCode::Parse, &e))?;
    let mut eff_opts = opts.clone();
    if let Some(order) = text_order {
        eff_opts.order = order;
    }
    let snapshot = inner.store.snapshot();
    // Prepare outside the cache lock: preparation resolves atoms and may
    // walk the document. A racing duplicate prepares twice; the second
    // insert wins the key and the first Arc just serves its caller.
    let prepared = PreparedQuery::prepare(&snapshot, &query, eff_opts)
        .map_err(|e| error_reply(ErrorCode::Prepare, &e))?;
    let mut stmts = inner.stmts.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(entry) = stmts.lookup_key(text, &key) {
        return Ok((entry, true));
    }
    Ok((stmts.insert(text.to_string(), key, prepared), false))
}

fn serve_prepare(inner: &ServerInner, opts: &ExecOptions, text: &str) -> (u8, Vec<u8>) {
    let (entry, cached) = match get_or_prepare(inner, opts, text) {
        Ok(r) => r,
        Err(reply) => return reply,
    };
    let snapshot = inner.store.snapshot();
    let log2_bound = match entry.log2_bound(&snapshot) {
        Ok(b) => b,
        Err(e) => return error_reply(ErrorCode::Prepare, &e),
    };
    (
        op::PREPARED,
        proto::encode_prepared(entry.id, log2_bound, cached),
    )
}

fn serve_exec(inner: &ServerInner, stmt_id: u64, req: RequestOpts) -> (u8, Vec<u8>) {
    let entry = {
        let stmts = inner.stmts.lock().unwrap_or_else(|e| e.into_inner());
        stmts.by_id.get(&stmt_id).cloned()
    };
    let Some(entry) = entry else {
        return error_reply(
            ErrorCode::UnknownStmt,
            &format!("unknown statement id {stmt_id} (never prepared, or evicted)"),
        );
    };
    run_prepared(inner, &entry, req)
}

/// The admitted execution path shared by `EXEC` and `QUERY`.
fn run_prepared(inner: &ServerInner, entry: &StmtEntry, req: RequestOpts) -> (u8, Vec<u8>) {
    let snapshot = inner.store.snapshot();
    let log2_bound = match entry.log2_bound(&snapshot) {
        Ok(b) => b,
        Err(e) => return error_reply(ErrorCode::Exec, &e),
    };
    let _permit = match admit(inner, log2_bound) {
        Ok(p) => p,
        Err(reply) => return reply,
    };
    let pinned_limit = entry.prepared.options().limit;
    let cap = effective_limit(pinned_limit, req);
    let prepared = if cap == pinned_limit {
        Arc::clone(&entry.prepared)
    } else {
        Arc::new(entry.prepared.as_ref().clone().with_limit(cap))
    };
    let deadline = request_deadline(inner, req);
    let ticket = inner
        .service
        .submit_with_deadline(prepared, snapshot.clone(), deadline);
    let out = match deadline {
        Some(d) => ticket.wait_timeout(d.saturating_duration_since(Instant::now()) + WAIT_GRACE),
        None => ticket.wait(),
    };
    match out {
        Ok(out) => rows_reply(&snapshot, &out, cap),
        Err(e @ StoreError::DeadlineExceeded { .. }) => {
            xjoin_obs::global_metrics()
                .counter("xjoin.server.deadline_replies")
                .inc();
            error_reply(ErrorCode::Deadline, &e)
        }
        Err(e) => error_reply(ErrorCode::Exec, &e),
    }
}

fn serve_query(
    inner: &ServerInner,
    opts: &ExecOptions,
    req: RequestOpts,
    text: &str,
) -> (u8, Vec<u8>) {
    match get_or_prepare(inner, opts, text) {
        Ok((entry, _cached)) => run_prepared(inner, &entry, req),
        Err(reply) => reply,
    }
}

/// Encodes a result set, decoding ids through the snapshot's dictionary.
/// The truncated flag is set when the row count hit the effective cap.
fn rows_reply(snapshot: &Snapshot, out: &QueryOutput, cap: Option<usize>) -> (u8, Vec<u8>) {
    let dict = snapshot.db().dict();
    let columns: Vec<String> = out
        .results
        .schema()
        .attrs()
        .iter()
        .map(|a| a.name().to_string())
        .collect();
    let rows: Vec<Vec<Value>> = out
        .results
        .rows()
        .map(|row| row.iter().map(|&id| dict.decode(id).clone()).collect())
        .collect();
    let truncated = cap.is_some_and(|c| rows.len() >= c);
    (op::ROWS, proto::encode_rows(&columns, &rows, truncated))
}
