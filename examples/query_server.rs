//! Query server: serve multi-model queries over the wire protocol.
//!
//! ```sh
//! cargo run --example query_server
//! ```
//!
//! Spawns the `xjoin-serve` front end on a loopback port over the Figure 1
//! bookstore dataset, then acts as a client: one-shot queries, a
//! prepare→execute round trip (with the statement's AGM bound reported at
//! prepare time), a row-budgeted execution, a metrics scrape through the
//! `STATS` frame, and a graceful shutdown — everything crossing a real TCP
//! socket as length-prefixed binary frames.

use fixtures::bookstore;
use std::sync::Arc;
use xjoin_core::{EngineKind, ExecOptions};
use xjoin_repro::xjoin_serve::{
    expect_rows, AdmissionPolicy, Client, RequestOpts, Response, Server, ServerConfig,
};
use xjoin_store::VersionedStore;

const BOOKSTORE_QUERY: &str =
    "Q(userID, ISBN, price) :- R(orderID, userID), //invoices/orderLine[/orderID][/ISBN][/price]";

fn main() {
    // 1. Server side: a versioned store over the bookstore instance served
    //    by a 2-worker pool behind AGM-based admission control, on an
    //    OS-assigned loopback port.
    let inst = bookstore();
    let store = Arc::new(VersionedStore::with_cache_budget(
        inst.db,
        inst.doc,
        1 << 20,
    ));
    let handle = Server::spawn(
        Arc::clone(&store),
        ServerConfig {
            workers: 2,
            admission: AdmissionPolicy::default(),
            ..Default::default()
        },
    )
    .expect("bind loopback");
    println!("server listening on {}", handle.addr());

    // 2. Client side: a plain TCP connection speaking the frame protocol.
    let mut client = Client::connect(handle.addr()).expect("connect");

    // 3. One-shot QUERY: options + MMQL text in one frame, rows back.
    let rows = expect_rows(
        client
            .query(
                BOOKSTORE_QUERY,
                &ExecOptions::default(),
                RequestOpts::default(),
            )
            .expect("query round trip"),
    );
    println!("\nQ(userID, ISBN, price) over the wire:");
    println!("  columns: {:?}", rows.columns);
    for row in &rows.rows {
        println!("  {row:?}");
    }

    // 4. PREPARE → EXEC: the statement is parsed, ordered, and priced once;
    //    the reply carries its AGM bound (log2) — the same number the
    //    admission controller uses to price the query before any trie work.
    let (stmt_id, log2_bound) = match client
        .prepare(BOOKSTORE_QUERY, &ExecOptions::default())
        .expect("prepare round trip")
    {
        Response::Prepared {
            stmt_id,
            log2_bound,
            ..
        } => (stmt_id, log2_bound),
        other => panic!("prepare failed: {other:?}"),
    };
    println!(
        "\nprepared as statement #{stmt_id}: AGM bound 2^{log2_bound:.1} ≈ {:.0} rows",
        log2_bound.exp2()
    );
    let rows = expect_rows(client.exec(stmt_id, RequestOpts::default()).expect("exec"));
    println!("exec #{stmt_id}: {} rows", rows.rows.len());

    // 5. Per-request row budget: the same statement, capped to 1 row. The
    //    budget pushes into the streaming walk as a limit; the reply's
    //    truncated flag says the cap cut the result short.
    let budgeted = expect_rows(
        client
            .exec(
                stmt_id,
                RequestOpts {
                    row_budget: 1,
                    ..Default::default()
                },
            )
            .expect("budgeted exec"),
    );
    println!(
        "row budget 1: {} row(s), truncated = {}",
        budgeted.rows.len(),
        budgeted.truncated
    );

    // 6. A second engine over the same wire: the streaming XJoin with a
    //    pinned limit (one-shot, so no statement reuse).
    let streamed = expect_rows(
        client
            .query(
                BOOKSTORE_QUERY,
                &ExecOptions {
                    engine: EngineKind::XJoinStream,
                    limit: Some(2),
                    ..Default::default()
                },
                RequestOpts::default(),
            )
            .expect("streamed query"),
    );
    println!("xjoin-stream with limit 2: {} rows", streamed.rows.len());

    // 7. Operators without shell access to the process scrape metrics
    //    through the STATS frame: queue depth, exec latency, admission
    //    decisions, trie cache — the whole global registry.
    if let Response::Stats { body, .. } = client.stats(0).expect("stats") {
        println!("\nserver metrics (via STATS frame):\n{body}");
    }

    // 8. Graceful shutdown: in-flight work drains, workers join, the accept
    //    loop exits — then the server handle's join returns.
    match client.shutdown().expect("shutdown") {
        Response::Bye => println!("server acknowledged shutdown"),
        other => panic!("unexpected shutdown reply: {other:?}"),
    }
    handle.join();
    println!("server drained and stopped");
}
