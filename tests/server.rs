//! Loopback end-to-end tests of the `xjoin-serve` networked front end:
//! wire results must equal in-process execution for every engine kind,
//! prepare→exec must reuse the server-side statement cache, deadlines and
//! row budgets must come back as structured replies, malformed frames must
//! not take the server down, admission must accept/queue/reject at forced
//! AGM thresholds, and graceful shutdown must drain in-flight queries.
//!
//! The worker pool size follows `XJOIN_TEST_THREADS` when set (the CI's
//! forced multi-thread pass), so the whole suite runs in both serial and
//! parallel service configurations.

use fixtures::{bookstore, decoded, graph_instance};
use relational::Value;
use std::sync::Arc;
use xjoin_core::{parse_query, EngineKind, ExecOptions};
use xjoin_serve::{
    AdmissionPolicy, Client, ErrorCode, RequestOpts, Response, Server, ServerConfig, ServerHandle,
    WireError,
};
use xjoin_store::VersionedStore;

const BOOKSTORE_QUERY: &str =
    "Q(userID, ISBN, price) :- R(orderID, userID), //invoices/orderLine[/orderID][/ISBN][/price]";

/// The 4-clique over the symmetric edge relation: six atoms, ρ* = 2, so the
/// AGM bound is |E|² — the canonical expensive query.
const CLIQUE4_QUERY: &str = "Q(a, b, c, d) :- E(a, b), E(a, c), E(a, d), E(b, c), E(b, d), E(c, d)";

/// Service worker count: honours the CI's forced multi-thread pass.
fn workers() -> usize {
    std::env::var("XJOIN_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

fn bookstore_server(admission: AdmissionPolicy) -> (Arc<VersionedStore>, ServerHandle) {
    let inst = bookstore();
    let store = Arc::new(VersionedStore::new(inst.db, inst.doc));
    let handle = Server::spawn(
        Arc::clone(&store),
        ServerConfig {
            workers: workers(),
            admission,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    (store, handle)
}

fn graph_server(
    nodes: usize,
    edges: usize,
    config: ServerConfig,
) -> (Arc<VersionedStore>, ServerHandle) {
    let inst = graph_instance(nodes, edges, 42);
    let store = Arc::new(VersionedStore::new(inst.db, inst.doc));
    let handle = Server::spawn(Arc::clone(&store), config).expect("bind loopback");
    (store, handle)
}

/// Sorted multiset signature of decoded rows.
fn multiset(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

#[test]
fn wire_results_equal_in_process_for_every_engine_kind() {
    let (store, handle) = bookstore_server(AdmissionPolicy::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let query = parse_query(BOOKSTORE_QUERY).unwrap();
    let snap = store.snapshot();
    for kind in EngineKind::all() {
        let opts = ExecOptions::for_engine(kind);
        let expected = {
            let ctx = snap.ctx();
            let out = xjoin_core::execute(&ctx, &query, &opts)
                .unwrap_or_else(|e| panic!("in-process {kind} failed: {e}"));
            multiset(decoded(snap.db(), &out.results))
        };
        let resp = client
            .query(BOOKSTORE_QUERY, &opts, RequestOpts::default())
            .unwrap();
        let rows = match resp {
            Response::Rows(r) => r,
            other => panic!("wire {kind} failed: {other:?}"),
        };
        assert!(!rows.truncated);
        assert_eq!(
            multiset(rows.rows),
            expected,
            "wire results diverged from in-process for engine {kind}"
        );
    }
    handle.shutdown();
}

#[test]
fn prepare_exec_round_trip_hits_the_statement_cache() {
    let (store, handle) = bookstore_server(AdmissionPolicy::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let opts = ExecOptions::default();
    let (stmt_id, log2_bound) = match client.prepare(BOOKSTORE_QUERY, &opts).unwrap() {
        Response::Prepared {
            stmt_id,
            log2_bound,
            cached,
        } => {
            assert!(!cached, "first prepare cannot be cached");
            (stmt_id, log2_bound)
        }
        other => panic!("prepare failed: {other:?}"),
    };
    assert!(log2_bound.is_finite() && log2_bound > 0.0);

    // Same text + options from a *second* connection: same statement.
    let mut client2 = Client::connect(handle.addr()).unwrap();
    match client2.prepare(BOOKSTORE_QUERY, &opts).unwrap() {
        Response::Prepared {
            stmt_id: id2,
            cached,
            ..
        } => {
            assert!(cached, "second prepare must hit the cache");
            assert_eq!(id2, stmt_id);
        }
        other => panic!("prepare failed: {other:?}"),
    }
    // Different options → different statement.
    match client2
        .prepare(BOOKSTORE_QUERY, &ExecOptions::for_engine(EngineKind::Lftj))
        .unwrap()
    {
        Response::Prepared {
            stmt_id: id3,
            cached,
            ..
        } => {
            assert!(!cached);
            assert_ne!(id3, stmt_id);
        }
        other => panic!("prepare failed: {other:?}"),
    }

    let expected = {
        let snap = store.snapshot();
        let ctx = snap.ctx();
        let out = xjoin_core::execute(&ctx, &parse_query(BOOKSTORE_QUERY).unwrap(), &opts).unwrap();
        multiset(decoded(snap.db(), &out.results))
    };
    for _ in 0..3 {
        let rows = match client.exec(stmt_id, RequestOpts::default()).unwrap() {
            Response::Rows(r) => r,
            other => panic!("exec failed: {other:?}"),
        };
        assert_eq!(multiset(rows.rows), expected);
    }
    handle.shutdown();
}

#[test]
fn row_budget_truncates_and_sets_the_flag() {
    let (_store, handle) = bookstore_server(AdmissionPolicy::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let stmt_id = match client
        .prepare(BOOKSTORE_QUERY, &ExecOptions::default())
        .unwrap()
    {
        Response::Prepared { stmt_id, .. } => stmt_id,
        other => panic!("prepare failed: {other:?}"),
    };
    let full = match client.exec(stmt_id, RequestOpts::default()).unwrap() {
        Response::Rows(r) => r,
        other => panic!("exec failed: {other:?}"),
    };
    assert!(full.rows.len() > 1);
    assert!(!full.truncated);
    let budgeted = match client
        .exec(
            stmt_id,
            RequestOpts {
                row_budget: 1,
                ..Default::default()
            },
        )
        .unwrap()
    {
        Response::Rows(r) => r,
        other => panic!("budgeted exec failed: {other:?}"),
    };
    assert_eq!(budgeted.rows.len(), 1);
    assert!(budgeted.truncated);
    // Every budgeted row is one of the full result's rows.
    for row in &budgeted.rows {
        assert!(full.rows.contains(row));
    }
    handle.shutdown();
}

#[test]
fn expired_deadline_returns_a_structured_deadline_error() {
    // A 4-clique over a few thousand edges cannot finish in 1 ms; the
    // deadline fires at dequeue, after plan assembly, or mid-drain — any of
    // which must surface as ErrorCode::Deadline, not a hang or a generic
    // failure.
    let (_store, handle) = graph_server(
        200,
        3000,
        ServerConfig {
            workers: workers(),
            ..Default::default()
        },
    );
    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client
        .query(
            CLIQUE4_QUERY,
            &ExecOptions::default(),
            RequestOpts {
                deadline_ms: 1,
                ..Default::default()
            },
        )
        .unwrap();
    match resp {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::Deadline, "{message}");
            assert!(message.contains("deadline"), "{message}");
        }
        other => panic!("expected deadline error, got {other:?}"),
    }
    // The connection survives a deadline reply: cheap follow-up works.
    let resp = client
        .query(
            "Q(a, b) :- E(a, b)",
            &ExecOptions {
                limit: Some(5),
                ..Default::default()
            },
            RequestOpts::default(),
        )
        .unwrap();
    assert!(matches!(resp, Response::Rows(_)), "{resp:?}");
    handle.shutdown();
}

#[test]
fn malformed_and_truncated_frames_get_structured_errors() {
    let (_store, handle) = bookstore_server(AdmissionPolicy::default());

    // Bad magic: the server replies Malformed and drops the connection.
    let mut client = Client::connect(handle.addr()).unwrap();
    let reply = client.send_raw(b"ZZ\x01\x01\x00\x00\x00\x00").unwrap();
    match reply {
        Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected malformed error, got {other:?}"),
    }

    // Wrong protocol version.
    let mut client = Client::connect(handle.addr()).unwrap();
    let reply = client.send_raw(b"XJ\x09\x01\x00\x00\x00\x00").unwrap();
    match reply {
        Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected malformed error, got {other:?}"),
    }

    // Oversized announced payload (1 GiB).
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut frame = b"XJ\x01\x01".to_vec();
    frame.extend_from_slice(&(1u32 << 30).to_be_bytes());
    match client.send_raw(&frame).unwrap() {
        Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected malformed error, got {other:?}"),
    }

    // Truncated frame: 7 of 8 header bytes, then connection close. The
    // server sees EOF mid-frame and must drop the desynced connection
    // without crashing (no reply is owed, so use a raw socket — a `Client`
    // would block waiting for one).
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
        raw.write_all(b"XJ\x01\x01\x00\x00\x00").unwrap();
        raw.flush().unwrap();
    }
    // Same for a payload shorter than its announced length.
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
        raw.write_all(b"XJ\x01\x01\x00\x00\x00\x10hello").unwrap();
        raw.flush().unwrap();
    }

    // A QUERY whose payload is garbage (undecodable options).
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut frame = b"XJ\x01\x01".to_vec();
    frame.extend_from_slice(&2u32.to_be_bytes());
    frame.extend_from_slice(&[0xFF, 0xFF]);
    match client.send_raw(&frame).unwrap() {
        Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected malformed error, got {other:?}"),
    }

    // An unparsable MMQL text gets a Parse error, and the connection lives.
    let mut client = Client::connect(handle.addr()).unwrap();
    match client
        .query(
            "this is not MMQL",
            &ExecOptions::default(),
            RequestOpts::default(),
        )
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Parse),
        other => panic!("expected parse error, got {other:?}"),
    }
    let ok = client
        .query(
            BOOKSTORE_QUERY,
            &ExecOptions::default(),
            RequestOpts::default(),
        )
        .unwrap();
    assert!(matches!(ok, Response::Rows(_)));
    handle.shutdown();
}

/// A hostile server cannot make the client allocate from counts its reply
/// does not back: the decoder must refuse them (an `Err`, not an abort).
#[test]
fn rows_reply_with_counts_the_payload_cannot_back_is_rejected() {
    use xjoin_serve::protocol::{decode_response, op};

    // 2³² − 1 columns announced in a 5-byte payload.
    let reply = decode_response(op::ROWS, &[0x00, 0xFF, 0xFF, 0xFF, 0xFF]);
    assert!(matches!(reply, Err(WireError::Malformed(_))), "{reply:?}");

    // Zero columns, so no cell bytes are owed, with a huge row count.
    let zero_columns = |nrows: u64| {
        let mut payload = vec![0x00, 0, 0, 0, 0];
        payload.extend_from_slice(&nrows.to_be_bytes());
        decode_response(op::ROWS, &payload)
    };
    for nrows in [u64::MAX, 1 << 33, 2] {
        let reply = zero_columns(nrows);
        assert!(matches!(reply, Err(WireError::Malformed(_))), "{reply:?}");
    }

    // The one well-formed zero-column reply with a row: a query that holds.
    match zero_columns(1) {
        Ok(Response::Rows(set)) => {
            assert!(set.columns.is_empty());
            assert_eq!(set.rows, vec![Vec::<Value>::new()]);
        }
        other => panic!("expected one empty row, got {other:?}"),
    }
}

#[test]
fn exec_of_unknown_or_evicted_statement_errors() {
    let inst = bookstore();
    let store = Arc::new(VersionedStore::new(inst.db, inst.doc));
    let handle = Server::spawn(
        Arc::clone(&store),
        ServerConfig {
            workers: workers(),
            stmt_cache_capacity: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    match client.exec(999, RequestOpts::default()).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownStmt),
        other => panic!("expected unknown-stmt error, got {other:?}"),
    }
    // Capacity 1: preparing a second statement evicts the first.
    let first = match client
        .prepare(BOOKSTORE_QUERY, &ExecOptions::default())
        .unwrap()
    {
        Response::Prepared { stmt_id, .. } => stmt_id,
        other => panic!("prepare failed: {other:?}"),
    };
    match client
        .prepare(BOOKSTORE_QUERY, &ExecOptions::for_engine(EngineKind::Lftj))
        .unwrap()
    {
        Response::Prepared { .. } => {}
        other => panic!("prepare failed: {other:?}"),
    }
    match client.exec(first, RequestOpts::default()).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownStmt),
        other => panic!("expected evicted-stmt error, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn admission_rejects_expensive_queries_at_forced_thresholds() {
    // Thresholds forced so the bookstore join (log2 bound ≈ 3.6) counts as
    // expensive and does not fit the in-flight budget → OVERLOAD.
    let (_store, handle) = bookstore_server(AdmissionPolicy {
        enabled: true,
        cheap_log2_bound: 0.5,
        max_inflight_cost: 1.0,
        max_queue_depth: 64,
    });
    let mut client = Client::connect(handle.addr()).unwrap();
    match client
        .query(
            BOOKSTORE_QUERY,
            &ExecOptions::default(),
            RequestOpts::default(),
        )
        .unwrap()
    {
        Response::Overload {
            log2_bound,
            inflight_cost,
            message,
            ..
        } => {
            assert!(log2_bound > 0.5, "{log2_bound}");
            assert_eq!(inflight_cost, 0.0);
            assert!(message.contains("budget"), "{message}");
        }
        other => panic!("expected overload, got {other:?}"),
    }
    handle.shutdown();

    // Same query, generous thresholds → accepted.
    let (_store, handle) = bookstore_server(AdmissionPolicy {
        enabled: true,
        cheap_log2_bound: 0.5,
        max_inflight_cost: 1000.0,
        max_queue_depth: 64,
    });
    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(matches!(
        client
            .query(
                BOOKSTORE_QUERY,
                &ExecOptions::default(),
                RequestOpts::default()
            )
            .unwrap(),
        Response::Rows(_)
    ));
    handle.shutdown();

    // Queue-depth backstop at zero rejects even the cheapest query.
    let (_store, handle) = bookstore_server(AdmissionPolicy {
        enabled: true,
        cheap_log2_bound: 1000.0,
        max_inflight_cost: 1000.0,
        max_queue_depth: 0,
    });
    let mut client = Client::connect(handle.addr()).unwrap();
    match client
        .query(
            BOOKSTORE_QUERY,
            &ExecOptions::default(),
            RequestOpts::default(),
        )
        .unwrap()
    {
        Response::Overload { message, .. } => {
            assert!(message.contains("queue depth"), "{message}")
        }
        other => panic!("expected overload, got {other:?}"),
    }
    // Disabled admission accepts everything regardless.
    handle.shutdown();
    let (_store, handle) = bookstore_server(AdmissionPolicy::disabled());
    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(matches!(
        client
            .query(
                BOOKSTORE_QUERY,
                &ExecOptions::default(),
                RequestOpts::default()
            )
            .unwrap(),
        Response::Rows(_)
    ));
    handle.shutdown();
}

#[test]
fn stats_frame_serves_text_and_json_metrics() {
    let (_store, handle) = bookstore_server(AdmissionPolicy::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    // Generate some traffic first so the registries have content.
    let _ = client
        .query(
            BOOKSTORE_QUERY,
            &ExecOptions::default(),
            RequestOpts::default(),
        )
        .unwrap();
    match client.stats(0).unwrap() {
        Response::Stats { format, body } => {
            assert_eq!(format, 0);
            assert!(body.contains("xjoin.server.requests"), "{body}");
        }
        other => panic!("stats failed: {other:?}"),
    }
    match client.stats(1).unwrap() {
        Response::Stats { format, body } => {
            assert_eq!(format, 1);
            assert!(body.trim_start().starts_with('{'), "{body}");
            assert!(body.contains("\"counters\""), "{body}");
            assert!(body.contains("xjoin.server.requests"), "{body}");
        }
        other => panic!("stats failed: {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_queries() {
    // Connection A submits a query that takes real work; connection B
    // requests shutdown while A is (very likely) still executing. A must
    // still receive its rows — shutdown refuses *new* work but drains
    // admitted work.
    let (_store, handle) = graph_server(
        60,
        500,
        ServerConfig {
            workers: workers(),
            ..Default::default()
        },
    );
    let addr = handle.addr();
    let slow = std::thread::spawn(move || {
        let mut a = Client::connect(addr).unwrap();
        a.query(
            "Q(a, b, c) :- E(a, b), E(a, c), E(b, c)",
            &ExecOptions::default(),
            RequestOpts::default(),
        )
        .unwrap()
    });
    std::thread::sleep(std::time::Duration::from_millis(20));
    let mut b = Client::connect(addr).unwrap();
    match b.shutdown().unwrap() {
        Response::Bye => {}
        other => panic!("expected BYE, got {other:?}"),
    }
    // The in-flight triangle query completes with rows, not an error.
    match slow.join().unwrap() {
        Response::Rows(rows) => assert!(!rows.columns.is_empty()),
        other => panic!("in-flight query was not drained: {other:?}"),
    }
    // join() returns once every serving thread exited.
    handle.join();

    // New connections are refused (or at least cannot get work done); a
    // failed connect means the listener is already gone — even better.
    if let Ok(mut c) = Client::connect(addr) {
        let r = c.query(
            BOOKSTORE_QUERY,
            &ExecOptions::default(),
            RequestOpts::default(),
        );
        assert!(
            !matches!(r, Ok(Response::Rows(_))),
            "post-shutdown query must not succeed"
        );
    }
}
