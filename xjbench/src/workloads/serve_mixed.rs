//! `serve-mixed`: the wire path. Two closed-loop `Client`s against an
//! in-process `Server::spawn` with the default configuration (two workers,
//! admission on). Cheap cached statements, statements never seen before and
//! a wide triangle share the connections.

use super::{answer, cache_layers, cached_plan};
use crate::gen;
use crate::harness::{closed_loop, shuffled_schedule, Layers, Outcome, Pass, Workload};
use crate::json::Json;
use crate::load;
use crate::oracle::{self, hash_row, observed, Adj, Expect};
use crate::rng::Rng;
use crate::stats::median;
use crate::trace::Recorder;
use relational::{Database, Value};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xjoin_core::{
    collect_atoms, execute_with_plan, parse_query_with_options, query_log_bound, ExecOptions,
};
use xjoin_serve::protocol::{self, op};
use xjoin_serve::{
    AdmissionController, AdmissionPolicy, Client, RequestOpts, Response, Server, ServerConfig,
    ServerHandle,
};
use xjoin_store::{CacheStats, PreparedQuery, QueryService, VersionedStore};

const CLASSES: &[&str] = &["scan16", "bookstore", "fig3", "miss", "wide"];
/// Ops per class in one cycle: 85 % cheap cached, 5 % never-seen, 10 % wide.
const WEIGHTS: [usize; 5] = [12, 3, 2, 1, 2];
const MISS: u16 = 3;
const CLIENTS: usize = 2;
/// Ops between two readings of the host's clock: about 3 ms.
const GROUP: usize = 10;

enum Want {
    Exact(Expect),
    /// A `LIMIT`: any `rows` distinct rows out of `of`.
    AnyOf {
        rows: u64,
        of: HashSet<u64>,
    },
}

impl Want {
    fn met_by(&self, rows: &[Vec<Value>]) -> bool {
        match self {
            Want::Exact(e) => observed(rows) == *e,
            Want::AnyOf { rows: n, of } => {
                let got: HashSet<u64> = rows.iter().map(hash_row).collect();
                rows.len() as u64 == *n && got.len() == rows.len() && got.is_subset(of)
            }
        }
    }
}

struct Stmt {
    text: String,
    opts: ExecOptions,
    want: Want,
}

struct Caller {
    client: Client,
    schedule: Vec<u16>,
    /// Next never-seen statement number; callers draw from disjoint sets.
    fresh: usize,
}

pub struct ServeMixed {
    store: Arc<VersionedStore>,
    server: Option<ServerHandle>,
    stmts: Vec<Stmt>,
    adj: Adj,
    nodes: usize,
    callers: Vec<Caller>,
    sizes: Vec<(&'static str, String)>,
    index_bytes_per_tuple: f64,
    /// Every statement prepared and priced in-process, by the traced pass.
    cached: Vec<(Arc<PreparedQuery>, f64)>,
    // The trie cache before the traced pass; ops and reply sizes it saw.
    cache_before_traced: CacheStats,
    traced_ops: u64,
    reply_bytes: u64,
    reply_rows: u64,
}

/// The `n`th never-seen statement: a constant selection under a variable
/// name no earlier statement used, so its text misses the statement cache.
fn fresh_stmt(adj: &Adj, nodes: usize, n: usize) -> Stmt {
    let a = (n % nodes) as i64;
    Stmt {
        text: format!("Q(b{n}) :- edge({a}, b{n})"),
        opts: ExecOptions::default(),
        want: Want::Exact(adj.neighbours(a)),
    }
}

fn ask(client: &mut Client, class: u16, s: &Stmt) -> Outcome {
    let t = Instant::now();
    let reply = client.query(&s.text, &s.opts, RequestOpts::default());
    let ms = t.elapsed().as_secs_f64() * 1e3;
    match reply {
        Ok(Response::Rows(set)) => Outcome {
            class: class as u8,
            ms,
            rows: set.rows.len() as u64,
            ok: s.want.met_by(&set.rows),
        },
        // ERR, OVERLOAD and transport failures all leave the caller without rows.
        _ => Outcome::failed(class as u8, ms),
    }
}

impl ServeMixed {
    pub fn setup(seed: u64, quick: bool) -> ServeMixed {
        let (nodes, edges, orders, lines, fig_n) = if quick {
            (40, 200, 20, 40, 3)
        } else {
            (100, 700, 40, 80, 6)
        };
        let graph = gen::uniform_graph(&mut Rng::fork(seed, 1), nodes, edges);
        let book = gen::bookstore(&mut Rng::fork(seed, 2), orders, lines);
        let fig = gen::fig3_tight(&mut Rng::fork(seed, 3), fig_n);
        let adj = Adj::new(nodes, &graph);

        let mut db = Database::new();
        load::load(
            &mut db,
            "edge",
            &["src", "dst"],
            load::symmetric_rows(&graph),
        );
        load::load(
            &mut db,
            "R",
            &["orderID", "userID"],
            load::order_rows(&book),
        );
        load::load_fig_relations(&mut db, &fig);
        let tuples = 2 * edges + orders + 2 * fig_n;
        // One document holds both the invoices and the Figure-3 subtree.
        let inst = load::with_document(db, |b| {
            b.begin("db");
            b.begin("invoices");
            for (i, line) in book.lines.iter().enumerate() {
                b.begin("orderLine");
                b.value(i as i64);
                b.leaf("orderID", line.order);
                b.leaf("ISBN", line.isbn.as_str());
                b.leaf("price", line.price);
                b.end();
            }
            b.end();
            load::build_fig_doc(b, &fig);
            b.end();
        });

        let stmts = vec![
            Stmt {
                text: "Q(a, b) :- edge(a, b)".to_string(),
                opts: ExecOptions {
                    limit: Some(16),
                    ..ExecOptions::default()
                },
                want: Want::AnyOf {
                    rows: 16,
                    of: adj
                        .directed()
                        .map(|(a, b)| hash_row([Value::Int(a), Value::Int(b)]))
                        .collect(),
                },
            },
            Stmt {
                text: "Q(userID, ISBN, price) :- R(orderID, userID), \
                       //invoices/orderLine[/orderID][/ISBN][/price]"
                    .to_string(),
                opts: ExecOptions::default(),
                want: Want::Exact(oracle::bookstore_expected(&book)),
            },
            Stmt {
                text: "Q(A, B, C, D, E, F, G, H) :- R1(A, B, C, D), R2(E, F, G, H), \
                       //A[/B][/D]//C[/E[//F[/H]][//G]]"
                    .to_string(),
                opts: ExecOptions::default(),
                want: Want::Exact(oracle::fig_expected(&fig)),
            },
            // Placeholder for the never-seen class; every op makes its own.
            fresh_stmt(&adj, nodes, 0),
            Stmt {
                text: "Q(a, b, c) :- edge(a, b), edge(b, c), edge(a, c)".to_string(),
                opts: ExecOptions::default(),
                want: Want::Exact(adj.triangles()),
            },
        ];

        let store = Arc::new(VersionedStore::new(inst.db, inst.doc));
        let server =
            Server::spawn(Arc::clone(&store), ServerConfig::default()).expect("loopback binds");
        let mut callers: Vec<Caller> = (0..CLIENTS)
            .map(|k| Caller {
                client: Client::connect(server.addr()).expect("server accepts"),
                schedule: shuffled_schedule(&mut Rng::fork(seed, 10 + k as u64), &WEIGHTS, 10),
                fresh: 1 + k,
            })
            .collect();
        // Fills the statement cache and the trie cache.
        for (class, s) in stmts.iter().enumerate() {
            assert!(
                ask(&mut callers[0].client, class as u16, s).ok,
                "{} fails at set-up",
                s.text
            );
        }
        let sizes = vec![
            (
                "graph `edge`",
                format!("{nodes} vertices, {edges} edges, {} tuples", 2 * edges),
            ),
            ("bookstore", format!("{orders} orders, {lines} order lines")),
            ("fig3", format!("tight, n = {fig_n}")),
            ("wide reply", format!("{} rows", adj.triangles().rows)),
            ("mix weights", format!("{CLASSES:?} = {WEIGHTS:?}")),
            (
                "server",
                "ServerConfig::default(): 2 workers, admission on, statement cache 64".to_string(),
            ),
        ];
        let cache = store.registry().stats();
        let index_bytes_per_tuple = cache.bytes_in_use as f64 / tuples as f64;
        ServeMixed {
            store,
            server: Some(server),
            stmts,
            adj,
            nodes,
            callers,
            sizes,
            index_bytes_per_tuple,
            cached: Vec::new(),
            cache_before_traced: cache,
            traced_ops: 0,
            reply_bytes: 0,
            reply_rows: 0,
        }
    }
}

impl Workload for ServeMixed {
    fn classes(&self) -> &'static [&'static str] {
        CLASSES
    }

    fn sizes(&self) -> Vec<(&'static str, String)> {
        self.sizes.clone()
    }

    fn index_bytes_per_tuple(&self) -> f64 {
        self.index_bytes_per_tuple
    }

    fn timed(&mut self, dur: Duration) -> Pass {
        let (stmts, adj, nodes) = (&self.stmts, &self.adj, self.nodes);
        let passes: Vec<Pass> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .callers
                .iter_mut()
                .map(|c| {
                    scope.spawn(move || {
                        let Caller {
                            client,
                            schedule,
                            fresh,
                        } = c;
                        closed_loop(dur, schedule, GROUP, |class| {
                            if class == MISS {
                                *fresh += CLIENTS;
                                ask(client, class, &fresh_stmt(adj, nodes, *fresh))
                            } else {
                                ask(client, class, &stmts[class as usize])
                            }
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread"))
                .collect()
        });
        let mut all = Pass::default();
        for p in passes {
            all.merge(p);
        }
        all
    }

    /// One caller walks the server's request path in-process, step by step:
    /// decode, statement lookup (prepared at set-up; parse + prepare + price
    /// for a never-seen statement), snapshot, admission, plan assembly and
    /// walk, reply encoding, and the client's decoding of the reply.
    fn traced(&mut self, dur: Duration, rec: &mut Recorder) -> Pass {
        let snap = self.store.snapshot();
        self.cached = self
            .stmts
            .iter()
            .map(|s| {
                let (q, _) = parse_query_with_options(&s.text).expect("statement parses");
                let price =
                    query_log_bound(&collect_atoms(&snap.ctx(), &q).expect("atoms resolve"))
                        .expect("bound solves");
                let prepared =
                    PreparedQuery::prepare(&snap, &q, s.opts.clone()).expect("statement prepares");
                (Arc::new(prepared), price / std::f64::consts::LN_2)
            })
            .collect();
        let cached = &self.cached;
        self.cache_before_traced = self.store.registry().stats();
        let admission = AdmissionController::new(AdmissionPolicy::default());
        let (store, stmts, adj, nodes) = (&self.store, &self.stmts, &self.adj, self.nodes);
        let (mut reply_bytes, mut reply_rows) = (0u64, 0u64);
        let caller = &mut self.callers[0];
        let mut fresh = caller.fresh + 1_000_000;
        let pass = closed_loop(dur, &caller.schedule, GROUP, |class| {
            let made;
            let s = if class == MISS {
                fresh += 1;
                made = fresh_stmt(adj, nodes, fresh);
                &made
            } else {
                &stmts[class as usize]
            };
            let frame = protocol::encode_query(&s.opts, RequestOpts::default(), &s.text);
            let op = rec.begin_op("op", class as u8);
            let steps = (|| -> Result<Vec<Vec<Value>>, Box<dyn std::error::Error>> {
                let (opts, _req, text) =
                    rec.leaf("server.decode_query", || protocol::decode_query(&frame))?;
                let snap = rec.leaf("storage.snapshot", || store.snapshot());
                let out = if class == MISS {
                    let (q, _) = rec.leaf("core.parse", || parse_query_with_options(&text))?;
                    let prepared = rec.leaf("storage.prepare", || {
                        PreparedQuery::prepare(&snap, &q, opts)
                    })?;
                    let price = rec.leaf("agm.price", || {
                        let atoms = collect_atoms(&snap.ctx(), &q)?;
                        query_log_bound(&atoms)
                    })?;
                    drop(rec.leaf("server.admission.decide", || {
                        admission.decide(price / std::f64::consts::LN_2, 0)
                    }));
                    // The statement's tries are not cached: assembly builds them.
                    rec.leaf("storage.cold_execute", || prepared.execute(&snap))?
                } else {
                    let (prepared, price) = &cached[class as usize];
                    drop(rec.leaf("server.admission.decide", || admission.decide(*price, 0)));
                    let (plan, sizes) =
                        rec.leaf("storage.plan_assembly", || cached_plan(prepared, &snap));
                    rec.leaf("core.walk", || {
                        let first_path_atom = prepared.query().relations.len();
                        execute_with_plan(
                            &snap.ctx(),
                            prepared.query(),
                            prepared.options(),
                            &plan,
                            sizes,
                            first_path_atom,
                        )
                    })?
                };
                let payload = rec.leaf("server.encode_rows", || {
                    let dict = snap.db().dict();
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
                    protocol::encode_rows(&columns, &rows, false)
                });
                reply_bytes += payload.len() as u64;
                match rec.leaf("server.decode_response", || {
                    protocol::decode_response(op::ROWS, &payload)
                })? {
                    Response::Rows(set) => Ok(set.rows),
                    other => Err(format!("decoded {other:?}").into()),
                }
            })();
            let ms = rec.exit(op) as f64 / 1e6;
            match steps {
                Ok(rows) => {
                    reply_rows += rows.len() as u64;
                    Outcome {
                        class: class as u8,
                        ms,
                        rows: rows.len() as u64,
                        ok: s.want.met_by(&rows),
                    }
                }
                Err(_) => Outcome::failed(class as u8, ms),
            }
        });
        self.traced_ops = pass.attempted;
        self.reply_bytes = reply_bytes;
        self.reply_rows = reply_rows;
        pass
    }

    fn probes(&mut self, dur: Duration, rec: &Recorder, base: &Pass, layers: &mut Layers) -> u64 {
        for (span, metric) in [
            ("server.decode_query", "server.decode_query.us"),
            ("core.parse", "core.parse.us"),
            ("storage.prepare", "storage.prepare.us"),
            ("agm.price", "agm.price.us"),
            ("storage.plan_assembly", "storage.plan_assembly.us"),
            ("core.walk", "core.walk.us"),
        ] {
            layers.insert(metric, median(&rec.durations_us(span)));
        }
        layers.insert(
            "storage.snapshot.ns",
            median(&rec.durations_us("storage.snapshot")) * 1e3,
        );
        layers.insert(
            "server.admission.decide.ns",
            median(&rec.durations_us("server.admission.decide")) * 1e3,
        );
        let rows = self.reply_rows.max(1) as f64;
        let total_ns = |span| rec.total_us(span) * 1e3;
        layers.insert(
            "server.encode_rows.ns_per_row",
            total_ns("server.encode_rows") / rows,
        );
        layers.insert(
            "server.decode_response.ns_per_row",
            total_ns("server.decode_response") / rows,
        );
        layers.insert("server.reply_bytes_per_row", self.reply_bytes as f64 / rows);
        // The cheap cached classes: their walk against their latency on the
        // wire, class by class.
        let (mut walk_ms, mut wire_ms) = (0.0, 0.0);
        for class in 0..MISS as u8 {
            let walk_us = median(&rec.class_durations_us("core.walk", class));
            walk_ms += WEIGHTS[class as usize] as f64 * walk_us / 1e3;
            wire_ms += WEIGHTS[class as usize] as f64 * base.class_p50(class);
        }
        layers.insert("bench.walk_self_share", walk_ms / wire_ms);
        cache_layers(
            layers,
            &self.cache_before_traced,
            &self.store.registry().stats(),
            self.traced_ops,
        );
        layers.insert(
            "relational.build.bytes_per_tuple",
            self.index_bytes_per_tuple,
        );

        // The cheap statements three ways: on the wire, through an
        // in-process worker pool, and by a direct call.
        let snap = self.store.snapshot();
        let service = QueryService::new(2);
        let (mut wire, mut pooled, mut direct) = (Vec::new(), Vec::new(), Vec::new());
        let mut broken = 0;
        let start = Instant::now();
        for i in (0..MISS as usize).cycle() {
            if start.elapsed() >= dur {
                break;
            }
            let prepared = &self.cached[i].0;
            let outcome = ask(&mut self.callers[0].client, i as u16, &self.stmts[i]);
            broken += u64::from(!outcome.ok);
            wire.push(outcome.ms * 1e3);
            let t = Instant::now();
            let out = service.submit(Arc::clone(prepared), snap.clone()).wait();
            pooled.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            std::hint::black_box(prepared.execute(&snap).expect("statement runs"));
            direct.push(t.elapsed().as_secs_f64() * 1e6);
            let ok = out.is_ok_and(|out| {
                let got = answer(snap.db().dict(), &out.results);
                match &self.stmts[i].want {
                    Want::Exact(e) => got == *e,
                    Want::AnyOf { rows, .. } => got.rows == *rows,
                }
            });
            broken += u64::from(!ok);
        }
        layers.insert(
            "storage.service.handoff_us",
            median(&pooled) - median(&direct),
        );
        layers.insert("server.wire_overhead.us", median(&wire) - median(&pooled));

        // The server's own counters, as any client can read them.
        if let Ok(Response::Stats { body, .. }) = self.callers[0].client.stats(1) {
            if let Ok(stats) = Json::parse(&body) {
                let counter = |name| {
                    stats
                        .get("counters")
                        .and_then(|c| c.get(name))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0)
                };
                layers.insert("server.requests", counter("xjoin.server.requests"));
                layers.insert(
                    "server.admission.rejected",
                    counter("xjoin.server.admission.rejected"),
                );
                let wait = stats
                    .get("histograms")
                    .and_then(|h| h.get("xjoin.service.queue_wait_us"))
                    .and_then(|h| h.get("p50"))
                    .and_then(Json::as_f64);
                layers.insert("service.queue_wait_us.p50", wait.unwrap_or(0.0));
            }
        }
        broken
    }
}

impl Drop for ServeMixed {
    fn drop(&mut self) {
        // Close the connections first: the server's shutdown waits for
        // their threads.
        self.callers.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
