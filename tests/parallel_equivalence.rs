//! Randomized differential suite for morsel-parallel execution: for every
//! plan-based [`EngineKind`], parallel runs (N ∈ {2, 3, 8}, plus
//! `XJOIN_TEST_THREADS` when set — CI forces 4) must produce exactly the
//! serial result multiset on random multi-model databases — including under
//! `limit` (the parallel result is a prefix-sized subset of the serial
//! multiset; the exact serial prefix in deterministic mode) and under lossy
//! projections (cross-morsel dedup). Morsel planning itself is
//! property-tested: every partition is a disjoint cover of the first-level
//! values, and walk work counters (`Rows::stats().visited`) sum across
//! workers to the serial count.

use fixtures::{
    branch_skew_instance, branch_skew_query, clique4_query, graph_instance, triangle_query,
    zipf_graph_instance,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relational::{
    Attr, Database, DeltaTrie, JoinPlan, Ladder, LevelSummary, Relation, Schema, Trie, Value,
    ValueId,
};
use std::sync::Arc;
use xjoin_core::{
    execute, partition_root, stream, DataContext, EngineKind, ExecOptions, MultiModelQuery,
    OrderStrategy, Parallelism,
};
use xjoin_store::VersionedStore;
use xmldb::{TagIndex, XmlDocument};

/// Random instance: a table S(x, y) plus a random tree over tags {r, x, y}
/// whose node values share the table's domain (the `exec_api` generator).
fn random_instance(seed: u64, rows: usize, nodes: usize, domain: i64) -> (Database, XmlDocument) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let rows: Vec<Vec<Value>> = (0..rows)
        .map(|_| {
            vec![
                Value::Int(rng.gen_range(0..domain)),
                Value::Int(rng.gen_range(0..domain)),
            ]
        })
        .collect();
    db.load("S", Schema::of(&["x", "y"]), rows).unwrap();

    let mut dict = db.dict().clone();
    let mut b = XmlDocument::builder();
    let tags = ["r", "x", "y"];
    let root = b.add_node(None, "r", Some(Value::Int(rng.gen_range(0..domain))));
    let mut ids = vec![root];
    for _ in 1..nodes {
        let parent = ids[rng.gen_range(0..ids.len())];
        let tag = tags[rng.gen_range(0..tags.len())];
        let id = b.add_node(
            Some(parent),
            tag,
            Some(Value::Int(rng.gen_range(0..domain))),
        );
        ids.push(id);
    }
    let doc = b.build(&mut dict);
    *db.dict_mut() = dict;
    (db, doc)
}

/// Worker counts under test; `XJOIN_TEST_THREADS` (set by the CI's forced
/// multi-thread pass) joins the sweep when present.
fn thread_counts() -> Vec<usize> {
    let mut ns = vec![2usize, 3, 8];
    if let Some(n) = std::env::var("XJOIN_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        if n > 1 && !ns.contains(&n) {
            ns.push(n);
        }
    }
    ns
}

/// A relation's rows as a sorted vector — the multiset signature.
fn multiset(rel: &Relation) -> Vec<Vec<ValueId>> {
    let mut rows: Vec<Vec<ValueId>> = rel.rows().map(|r| r.to_vec()).collect();
    rows.sort();
    rows
}

fn plan_based() -> Vec<EngineKind> {
    EngineKind::all()
        .into_iter()
        .filter(EngineKind::is_plan_based)
        .collect()
}

const TWIGS: &[&str] = &["//r//x", "//r/x", "//r[/x][//y]"];

/// Acceptance: every plan-based engine, parallel at every tested width,
/// returns exactly the serial result multiset on random instances — with
/// and without a (lossy) projection.
#[test]
fn parallel_matches_serial_on_random_instances() {
    for seed in 0..4u64 {
        let (db, doc) = random_instance(seed, 10, 28, 4);
        let index = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &index);
        for twig in TWIGS {
            let unprojected = MultiModelQuery::new(&["S"], &[twig]).unwrap();
            // Lossy projection: dropping variables collapses tuples, so the
            // dedup must work across morsels, not within each.
            let lossy = MultiModelQuery::new(&["S"], &[twig])
                .unwrap()
                .with_output(&["x"]);
            for query in [&unprojected, &lossy] {
                for kind in plan_based() {
                    let serial = execute(&ctx, query, &ExecOptions::for_engine(kind)).unwrap();
                    for n in thread_counts() {
                        let parallel = execute(
                            &ctx,
                            query,
                            &ExecOptions {
                                engine: kind,
                                parallelism: Parallelism::Threads(n),
                                ..Default::default()
                            },
                        )
                        .unwrap();
                        assert_eq!(
                            multiset(&parallel.results),
                            multiset(&serial.results),
                            "seed {seed} twig {twig} engine {kind} threads {n}: \
                             parallel multiset != serial"
                        );
                    }
                }
            }
        }
    }
}

/// Under a `limit`, a parallel run yields a prefix-sized subset of the
/// serial multiset — and in deterministic (default) streaming mode, exactly
/// the serial prefix.
#[test]
fn parallel_limit_yields_a_prefix_sized_subset() {
    let (db, doc) = random_instance(7, 20, 60, 3);
    let index = TagIndex::build(&doc);
    let ctx = DataContext::new(&db, &doc, &index);
    let query = MultiModelQuery::new(&["S"], &["//r//x"]).unwrap();

    let serial_rows: Vec<Vec<ValueId>> = stream(
        &ctx,
        &query,
        &ExecOptions::for_engine(EngineKind::XJoinStream),
    )
    .unwrap()
    .collect();
    assert!(serial_rows.len() > 4, "instance too small for a limit test");
    let serial_sorted = {
        let mut s = serial_rows.clone();
        s.sort();
        s
    };

    for n in thread_counts() {
        for k in [1usize, 3, serial_rows.len() + 10] {
            // Deterministic mode: the exact serial prefix.
            let opts = ExecOptions {
                engine: EngineKind::XJoinStream,
                parallelism: Parallelism::Threads(n),
                limit: Some(k),
                ..Default::default()
            };
            let rows: Vec<Vec<ValueId>> = stream(&ctx, &query, &opts).unwrap().collect();
            let expect = k.min(serial_rows.len());
            assert_eq!(rows.len(), expect, "threads {n} limit {k}");
            assert_eq!(
                rows,
                serial_rows[..expect].to_vec(),
                "threads {n} limit {k}: deterministic mode must yield the serial prefix"
            );

            // Arrival-order mode: still a prefix-sized subset of the serial
            // multiset.
            let unordered = ExecOptions {
                unordered: true,
                ..opts.clone()
            };
            let rows: Vec<Vec<ValueId>> = stream(&ctx, &query, &unordered).unwrap().collect();
            assert_eq!(rows.len(), expect);
            for row in &rows {
                assert!(
                    serial_sorted.binary_search(row).is_ok(),
                    "threads {n} limit {k}: unordered row not in serial result"
                );
            }

            // Materialising engines truncate to the same size.
            for kind in plan_based() {
                let out = execute(
                    &ctx,
                    &query,
                    &ExecOptions {
                        engine: kind,
                        ..opts.clone()
                    },
                )
                .unwrap();
                assert_eq!(out.results.len(), expect, "engine {kind} threads {n}");
            }
        }
    }
}

/// Pure-relational workloads (triangle, 4-clique) through the same parallel
/// machinery, `Parallelism::Auto` included.
#[test]
fn parallel_matches_serial_on_graph_workloads() {
    let inst = graph_instance(24, 90, 11);
    let idx = inst.index();
    let ctx = DataContext::new(&inst.db, &inst.doc, &idx);
    for query in [triangle_query(), clique4_query()] {
        for kind in [
            EngineKind::Lftj,
            EngineKind::Generic,
            EngineKind::XJoinStream,
        ] {
            let serial = execute(&ctx, &query, &ExecOptions::for_engine(kind)).unwrap();
            for parallelism in [
                Parallelism::Threads(2),
                Parallelism::Threads(8),
                Parallelism::Auto,
            ] {
                let parallel = execute(
                    &ctx,
                    &query,
                    &ExecOptions {
                        engine: kind,
                        parallelism,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert_eq!(
                    multiset(&parallel.results),
                    multiset(&serial.results),
                    "{kind} under {parallelism}"
                );
            }
        }
    }
}

/// Adaptive ordering composes with morsel parallelism: for every plan-based
/// engine and every ladder rung, an adaptive run — serial and `Threads(4)`
/// (the CI-forced width) — returns exactly the serial static result multiset
/// on random, Zipfian, and branch-skew instances. Each worker re-derives its
/// own order from its `ValueRange`, so this also checks that per-morsel
/// reorder decisions cannot leak rows across morsel boundaries.
#[test]
fn adaptive_parallel_matches_static_serial() {
    let rungs = [Ladder::RowCount, Ladder::Distinct, Ladder::Refined];
    let check = |db: &Database, doc: &XmlDocument, query: &MultiModelQuery, tag: &str| {
        let index = TagIndex::build(doc);
        let ctx = DataContext::new(db, doc, &index);
        for kind in plan_based() {
            let static_serial = execute(&ctx, query, &ExecOptions::for_engine(kind)).unwrap();
            for ladder in rungs {
                for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
                    let opts = ExecOptions {
                        engine: kind,
                        order: OrderStrategy::Adaptive { ladder },
                        parallelism,
                        ..Default::default()
                    };
                    let adaptive = execute(&ctx, query, &opts).unwrap();
                    let aligned = static_serial
                        .results
                        .project(adaptive.results.schema().attrs())
                        .unwrap();
                    assert_eq!(
                        multiset(&adaptive.results),
                        multiset(&aligned),
                        "{tag} engine {kind} ladder {ladder} {parallelism:?}: \
                         adaptive != static serial"
                    );
                }
            }
        }
    };

    let (db, doc) = random_instance(13, 12, 36, 4);
    let query = MultiModelQuery::new(&["S"], &["//r//x"]).unwrap();
    check(&db, &doc, &query, "random");
    let zipf = zipf_graph_instance(36, 140, 1.2, 23);
    check(&zipf.db, &zipf.doc, &triangle_query(), "zipf triangle");
    let skewed = branch_skew_instance(32, 6);
    check(&skewed.db, &skewed.doc, &branch_skew_query(), "branch skew");
}

/// Satellite fix: stats aggregation is summed and well-defined — a fully
/// drained parallel iterator reports exactly the serial walk's `visited`
/// count on a fixed dataset (morsels disjointly partition the bindings).
#[test]
fn parallel_visited_counter_sums_to_serial() {
    let inst = graph_instance(20, 70, 3);
    let idx = inst.index();
    let ctx = DataContext::new(&inst.db, &inst.doc, &idx);
    let query = triangle_query();

    let mut serial = stream(
        &ctx,
        &query,
        &ExecOptions::for_engine(EngineKind::XJoinStream),
    )
    .unwrap();
    let total = serial.by_ref().count();
    let serial_visited = serial.stats().visited;
    assert!(total > 0 && serial_visited > 0);

    for n in thread_counts() {
        for unordered in [false, true] {
            let opts = ExecOptions {
                engine: EngineKind::XJoinStream,
                parallelism: Parallelism::Threads(n),
                unordered,
                ..Default::default()
            };
            let mut rows = stream(&ctx, &query, &opts).unwrap();
            assert_eq!(rows.by_ref().count(), total);
            assert_eq!(
                rows.stats().visited,
                serial_visited,
                "threads {n} unordered {unordered}: summed worker bindings != serial"
            );
            assert_eq!(rows.stats().emitted, total);
        }
    }

    // Under a limit, workers cut off early: visited stays strictly below
    // the full count (the whole point of pushdown). The instance must be
    // large enough that the full enumeration far exceeds the streaming
    // channel's buffer, otherwise workers legitimately finish before the
    // cut-off can be observed.
    let big = graph_instance(150, 2500, 5);
    let big_idx = big.index();
    let big_ctx = DataContext::new(&big.db, &big.doc, &big_idx);
    let mut full = stream(
        &big_ctx,
        &query,
        &ExecOptions::for_engine(EngineKind::XJoinStream),
    )
    .unwrap();
    let total = full.by_ref().count();
    let full_visited = full.stats().visited;
    assert!(total > 100);
    let opts = ExecOptions {
        engine: EngineKind::XJoinStream,
        parallelism: Parallelism::Threads(2),
        limit: Some(1),
        ..Default::default()
    };
    let mut limited = stream(&big_ctx, &query, &opts).unwrap();
    assert_eq!(limited.by_ref().count(), 1);
    assert!(
        limited.stats().visited < full_visited,
        "limited parallel visited {} !< full {}",
        limited.stats().visited,
        full_visited
    );
}

/// Builds a [`JoinPlan`] over one binary relation from random rows.
fn plan_of(rows: &[(u32, u32)]) -> JoinPlan {
    let mut r = Relation::new(Schema::of(&["a", "b"]));
    for &(x, y) in rows {
        r.push(&[ValueId(x), ValueId(y)]).unwrap();
    }
    let order: Vec<Attr> = vec!["a".into(), "b".into()];
    JoinPlan::new(&[&r], &order).unwrap()
}

/// Brute-force level summaries of a relation under set semantics: at level
/// `l`, `nodes` is the number of distinct `l + 1`-prefixes and `distinct`
/// the number of distinct values in column `l` — exactly what
/// [`Trie::level_summary`] must report for a trie built from the relation.
fn expected_summaries(rel: &Relation) -> Vec<LevelSummary> {
    let arity = rel.schema().attrs().len();
    (0..arity)
        .map(|level| {
            let mut prefixes = std::collections::BTreeSet::new();
            let mut values = std::collections::BTreeSet::new();
            for row in rel.rows() {
                prefixes.insert(row[..=level].to_vec());
                values.insert(row[level]);
            }
            LevelSummary {
                nodes: prefixes.len() as u64,
                distinct: values.len() as u64,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The adaptive walk's cardinality summaries stay exact under
    /// [`VersionedStore::append`] churn: after every random batch, tries
    /// built from the stored relation (fast path and reference path alike)
    /// report the brute-force summaries, the delta overlay's summary bound
    /// dominates them, and compaction tightens the bound back to exact.
    #[test]
    fn level_summaries_stay_exact_under_append_churn(
        init in prop::collection::vec((0i64..10, 0i64..10), 1..24),
        batches in prop::collection::vec(
            prop::collection::vec((0i64..10, 0i64..10), 1..10), 1..4),
    ) {
        let mut db = Database::new();
        let rows: Vec<Vec<Value>> = init
            .iter()
            .map(|&(x, y)| vec![Value::Int(x), Value::Int(y)])
            .collect();
        db.load("T", Schema::of(&["a", "b"]), rows).unwrap();
        let mut dict = db.dict().clone();
        let mut b = XmlDocument::builder();
        b.add_node(None, "r", None);
        let doc = b.build(&mut dict);
        *db.dict_mut() = dict;
        let store = VersionedStore::new(db, doc);
        let order: Vec<Attr> = vec!["a".into(), "b".into()];

        let base = Trie::build(store.snapshot().db().relation("T").unwrap(), &order).unwrap();
        let mut delta = DeltaTrie::new(Arc::new(base));

        for batch in &batches {
            let from = store.snapshot().relation_version("T").unwrap();
            let to = store
                .append("T", batch.iter().map(|&(x, y)| vec![Value::Int(x), Value::Int(y)]))
                .unwrap();
            let snap = store.snapshot();
            for seg in snap.delta_rows("T", from, to).expect("append logged a delta segment") {
                delta.push_run(Arc::new(Trie::build(&seg, &order).unwrap())).unwrap();
            }

            let rel = snap.db().relation("T").unwrap();
            let expect = expected_summaries(rel);
            let fast = Trie::build(rel, &order).unwrap();
            let reference = Trie::build_reference(rel, &order).unwrap();
            let compacted = delta.compact().unwrap();
            for (level, want) in expect.iter().enumerate() {
                prop_assert_eq!(fast.level_summary(level), *want, "fast build, level {}", level);
                prop_assert_eq!(reference.level_summary(level), *want,
                    "reference build, level {}", level);
                prop_assert_eq!(compacted.level_summary(level), *want,
                    "compacted overlay, level {}", level);
                let bound = delta.level_summary_bound(level);
                prop_assert!(
                    bound.nodes >= want.nodes && bound.distinct >= want.distinct,
                    "level {}: overlay bound {:?} must dominate exact {:?}", level, bound, want
                );
            }
        }
    }

    /// Morsel planning property: for random tries and any K (including
    /// K ≥ the number of first-level values), the partition is a disjoint
    /// cover — adjacent ranges share boundaries, the cover spans the whole
    /// value space, and every first-level value lands in exactly one morsel
    /// (empty morsels allowed, none lost).
    #[test]
    fn morsel_partition_is_a_disjoint_cover(
        rows in prop::collection::vec((0u32..40, 0u32..6), 1..80),
        k in 1usize..64,
    ) {
        let plan = plan_of(&rows);
        let ranges = partition_root(&plan, k);
        prop_assert!(!ranges.is_empty());
        prop_assert!(ranges.len() <= k.max(1));
        // The cover spans the whole value space…
        prop_assert_eq!(ranges[0].lo, ValueId(0));
        prop_assert!(ranges.last().unwrap().hi.is_none());
        // …with adjacent, non-overlapping boundaries…
        for pair in ranges.windows(2) {
            prop_assert_eq!(pair[0].hi, Some(pair[1].lo));
            prop_assert!(pair[0].lo < pair[1].lo);
        }
        // …so every first-level value of the root trie falls in exactly
        // one morsel.
        let trie = &plan.tries()[0];
        let root_vals = trie.values(0, trie.root_range()).to_vec();
        prop_assert!(ranges.len() <= root_vals.len());
        for v in root_vals {
            let hits = ranges.iter().filter(|r| r.contains(v)).count();
            prop_assert_eq!(hits, 1);
        }
    }

    /// End-to-end morsel property: enumerating each range of the partition
    /// and concatenating reproduces the full LFTJ result exactly, for any K.
    #[test]
    fn morsel_walks_reassemble_the_full_result(
        rows in prop::collection::vec((0u32..20, 0u32..20), 0..60),
        k in 1usize..16,
    ) {
        let plan = plan_of(&rows);
        let full = relational::lftj::lftj(&plan);
        let ranges = partition_root(&plan, k);
        let mut merged = Relation::new(full.schema().clone());
        for range in &ranges {
            let part = relational::lftj::lftj_in_range(&plan, range);
            for row in part.rows() {
                merged.push(row).unwrap();
            }
        }
        prop_assert_eq!(merged, full);
    }
}
