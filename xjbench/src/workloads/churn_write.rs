//! `churn-write`: writes beside reads with a trie cache smaller than the
//! data. A round is one write to the churning relation `R` followed by four
//! reads of a filtered triangle through the streaming engine; every fifth
//! round the last read goes to the same query shape over the archive
//! relations, which pushes the hot tries out of the cache. The writes come
//! in cycles: `BATCHES` calls of `VersionedStore::append`, each with rows `R`
//! does not hold yet, then one `VersionedStore::update` that rewrites `R` to
//! what it held at first. So `R` keeps to a fixed range of sizes however
//! long a pass runs, and every write changes what the next read must return.

use super::{answer, cache_layers};
use crate::gen::{self, ChurnData};
use crate::harness::{Caller, Layers, Outcome, Pass, Workload};
use crate::load;
use crate::oracle::{self, ChurnExpect, Expect};
use crate::rng::Rng;
use crate::stats::{median, percentile, sorted};
use crate::trace::Recorder;
use relational::{DeltaTrie, Relation, Schema, Trie, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xjoin_core::{EngineKind, ExecOptions, MultiModelQuery};
use xjoin_store::{CacheStats, PreparedQuery, VersionedStore};

/// `rebuild-read` is the first read after an archive read: the hot tries
/// that read pushed out of the cache are built again.
const CLASSES: &[&str] = &[
    "warm-read",
    "postwrite-read",
    "archive-read",
    "rebuild-read",
];
const READS_PER_ROUND: usize = 4;
/// Appends in one cycle of writes; the write after them rewrites `R`.
const BATCHES: usize = 8;
/// Every this many rounds the last read goes to the archive query.
const ARCHIVE_EVERY: usize = 5;
/// The trie-cache budget as a share of the steady working set.
const CACHE_SHARE: f64 = 0.6;

pub struct ChurnWrite {
    data: ChurnData,
    expect: ChurnExpect,
    store: VersionedStore,
    hot: PreparedQuery,
    archive: PreparedQuery,
    /// The rows of every write of a cycle: the batches, then `R` as it was
    /// at first.
    writes: Vec<Vec<Vec<Value>>>,
    /// Writes done so far.
    round: usize,
    sizes: Vec<(&'static str, String)>,
    index_bytes_per_tuple: f64,
    cache_before_traced: CacheStats,
    traced_reads: u64,
    delta_runs: Vec<f64>,
}

/// One piece of a round, as the passes time it.
enum Piece {
    Append,
    Rewrite,
    Read(u8),
}

impl ChurnWrite {
    pub fn setup(seed: u64, quick: bool) -> ChurnWrite {
        let (nodes, edges, filter, batch) = if quick {
            (200, 1_500, 40, 40)
        } else {
            (1_000, 12_000, 100, 375)
        };
        let data = gen::churn(
            &mut Rng::fork(seed, 1),
            nodes,
            edges,
            filter,
            BATCHES,
            batch,
        );
        let expect = oracle::churn_expected(&data);
        let inst = load::churn_instance(&data);
        let mut writes: Vec<Vec<Vec<Value>>> = (0..BATCHES)
            .map(|k| load::symmetric_rows(data.batch_edges(k)))
            .collect();
        writes.push(load::symmetric_rows(&data.r));

        // The steady working set: every trie the two queries read, with `R`
        // at its largest. Each relation is stored in its trie's order.
        let names = ["F", "S", "T", "R", "A", "B"];
        let mut working_set: usize = names
            .iter()
            .map(|n| {
                let rel = inst.db.relation(n).expect("relation was loaded");
                Trie::build(rel, rel.schema().attrs())
                    .expect("trie builds")
                    .estimated_bytes()
            })
            .sum();
        let tuples = inst.tuples(&names) + 2 * data.pool.len();
        working_set += working_set * 2 * data.pool.len() / tuples;
        let budget = (working_set as f64 * CACHE_SHARE) as usize;

        let store = VersionedStore::with_cache_budget(inst.db, inst.doc, budget);
        let snap = store.snapshot();
        let opts = ExecOptions::for_engine(EngineKind::XJoinStream);
        let prepare = |atoms: [&str; 4]| {
            let q = MultiModelQuery::new::<&str>(&atoms, &[])
                .expect("no twig to parse")
                .with_output(&["a", "b", "c"]);
            PreparedQuery::prepare(&snap, &q, opts.clone()).expect("statement prepares")
        };
        // `R` last, so that it is the most recently used trie of each read
        // and the base of its overlays stays cached.
        let (hot, archive) = (prepare(["F", "S", "T", "R"]), prepare(["F", "A", "B", "R"]));
        for (q, want) in [(&archive, expect.cold[0]), (&hot, expect.hot[0])] {
            let out = q.execute(&snap).expect("statement runs");
            assert_eq!(
                answer(snap.db().dict(), &out.results),
                want,
                "wrong answer at set-up"
            );
        }
        let stats = store.registry().stats();
        let sizes = vec![
            ("base edges (S, T)", format!("{nodes} vertices, {edges} edges, {} tuples each", 2 * edges)),
            ("churning R", format!("{} tuples after a rewrite, {} after the last append of a cycle", edges / 2, edges / 2 + 2 * data.pool.len())),
            ("archive edges (A, B)", format!("{edges} edges, {} tuples each", 2 * edges)),
            ("filter F", format!("{filter} vertices")),
            ("cycle of writes", format!("{BATCHES} appends of {} tuples R does not hold, then a rewrite of R to its first {} tuples", 2 * batch, edges / 2)),
            ("round", format!("1 write + {READS_PER_ROUND} reads; the last read of every {ARCHIVE_EVERY}th round reads the archive")),
            ("steady working set", format!("{working_set} B of tries")),
            ("trie-cache budget", format!("{budget} B ({:.0} % of the working set)", CACHE_SHARE * 100.0)),
            ("delta policy", format!("{:?}", store.delta_policy())),
        ];
        ChurnWrite {
            index_bytes_per_tuple: stats.bytes_in_use as f64 / tuples as f64,
            cache_before_traced: stats,
            traced_reads: 0,
            data,
            expect,
            store,
            hot,
            archive,
            writes,
            round: 0,
            sizes,
            delta_runs: Vec::new(),
        }
    }

    /// The `j`th read after write number `round`: which query, its class,
    /// its answer.
    fn read(&self, round: usize, j: usize) -> (&PreparedQuery, u8, Expect) {
        // Batches of the pool that `R` holds after that write.
        let held = (round % (BATCHES + 1) + 1) % (BATCHES + 1);
        if j == READS_PER_ROUND - 1 && round % ARCHIVE_EVERY == ARCHIVE_EVERY - 1 {
            (&self.archive, 2, self.expect.cold[held])
        } else if j == 0 && round.is_multiple_of(ARCHIVE_EVERY) {
            (&self.hot, 3, self.expect.hot[held])
        } else {
            (&self.hot, u8::from(j == 0), self.expect.hot[held])
        }
    }

    /// Rounds for `dur`. `step` runs and times one piece of a round.
    fn rounds(
        &mut self,
        dur: Duration,
        mut step: impl FnMut(Piece, &mut dyn FnMut() -> bool) -> f64,
    ) -> Pass {
        let mut caller = Caller::begin();
        let mut delta_runs = Vec::new();
        while caller.elapsed() < dur {
            let k = self.round % (BATCHES + 1);
            let mut rows = Some(self.writes[k].clone());
            let mut written = false;
            let piece = if k < BATCHES {
                Piece::Append
            } else {
                Piece::Rewrite
            };
            step(piece, &mut || {
                let rows = rows.take().expect("one write per round");
                written = if k < BATCHES {
                    self.store.append("R", rows).is_ok()
                } else {
                    let schema = Schema::of(&["a", "b"]);
                    self.store.update(|db| db.load("R", schema, rows)).1.is_ok()
                };
                written
            });
            for j in 0..READS_PER_ROUND {
                let (query, class, want) = self.read(self.round, j);
                let mut got = None;
                let ms = step(Piece::Read(class), &mut || {
                    let snap = self.store.snapshot();
                    got = query.execute(&snap).ok().map(|out| {
                        delta_runs.push(out.stats.delta_runs as f64);
                        answer(snap.db().dict(), &out.results)
                    });
                    got.is_some()
                });
                caller.record(match got {
                    // A read after a lost write is wrong even if it matches.
                    Some(got) if written => Outcome::checked(class, ms, got, want),
                    _ => Outcome::failed(class, ms),
                });
            }
            self.round += 1;
            caller.cut();
        }
        self.delta_runs = delta_runs;
        caller.finish()
    }
}

impl Workload for ChurnWrite {
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
        self.rounds(dur, |_, run| {
            let t = Instant::now();
            run();
            t.elapsed().as_secs_f64() * 1e3
        })
    }

    /// The store's read path cannot be taken apart from outside once delta
    /// overlays are involved, so a traced read is one span and the round's
    /// write another.
    fn traced(&mut self, dur: Duration, rec: &mut Recorder) -> Pass {
        self.cache_before_traced = self.store.registry().stats();
        let pass = self.rounds(dur, |piece, run| {
            let id = match piece {
                Piece::Append => rec.begin_op("storage.append", u8::MAX),
                Piece::Rewrite => rec.begin_op("storage.rewrite", u8::MAX),
                Piece::Read(class) => rec.begin_op("op", class),
            };
            if matches!(piece, Piece::Read(_)) {
                rec.leaf("storage.execute", run);
            } else {
                run();
            }
            rec.exit(id) as f64 / 1e6
        });
        self.traced_reads = pass.attempted;
        pass
    }

    fn probes(&mut self, dur: Duration, rec: &Recorder, _base: &Pass, layers: &mut Layers) -> u64 {
        let appends = sorted(rec.durations_us("storage.append"));
        layers.insert("storage.append.p50_us", percentile(&appends, 50.0));
        layers.insert("storage.append.p99_us", percentile(&appends, 99.0));
        layers.insert(
            "storage.warm_read.p50_us",
            median(&rec.class_durations_us("op", 0)),
        );
        layers.insert(
            "storage.postwrite_read.p50_us",
            median(&rec.class_durations_us("op", 1)),
        );
        layers.insert(
            "relational.delta.runs_per_read",
            self.delta_runs.iter().sum::<f64>() / self.delta_runs.len().max(1) as f64,
        );
        cache_layers(
            layers,
            &self.cache_before_traced,
            &self.store.registry().stats(),
            self.traced_reads,
        );

        // Single layers on the workload's own shapes: a full build of `R` as
        // a rewrite leaves it, and the compaction of that trie under as many
        // append batches as the default policy lets pile up.
        let snap = self.store.snapshot();
        let schema = snap.db().relation("R").expect("R exists").schema().clone();
        let order = schema.attrs().to_vec();
        let relation = |rows: &[Vec<Value>]| {
            let mut rel = Relation::new(schema.clone());
            for row in rows {
                let ids: Vec<_> = row
                    .iter()
                    .map(|v| snap.db().dict().lookup(v).expect("every row was written"))
                    .collect();
                rel.push(&ids).expect("rows match the schema");
            }
            rel.sort_dedup();
            rel
        };
        let rel = relation(&self.writes[BATCHES]);
        let runs_at_compaction = (snap.delta_policy().compact_ratio * rel.len() as f64
            / (2 * self.data.batch) as f64)
            .floor() as usize
            + 1;
        let batches: Vec<Relation> = self.writes[..runs_at_compaction.min(BATCHES)]
            .iter()
            .map(|rows| relation(rows))
            .collect();
        let (mut build_ns, mut compact_us, mut bytes_per_tuple) = (Vec::new(), Vec::new(), 0.0);
        let start = Instant::now();
        while start.elapsed() < dur {
            let t = Instant::now();
            let base = Trie::build(&rel, &order).expect("trie builds");
            build_ns.push(t.elapsed().as_secs_f64() * 1e9 / rel.len() as f64);
            bytes_per_tuple = base.estimated_bytes() as f64 / base.num_tuples() as f64;
            let mut overlay = DeltaTrie::new(Arc::new(base));
            for b in &batches {
                overlay
                    .push_run(Arc::new(Trie::build(b, &order).expect("run builds")))
                    .expect("run matches its base");
            }
            let t = Instant::now();
            std::hint::black_box(overlay.compact().expect("overlay compacts"));
            compact_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        layers.insert("relational.build.ns_per_tuple", median(&build_ns));
        layers.insert("relational.build.bytes_per_tuple", bytes_per_tuple);
        layers.insert("relational.delta.compact.us", median(&compact_us));
        0
    }
}
