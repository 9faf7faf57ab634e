//! Integration tests of the unified execution API (`xjoin_core::exec`):
//! every [`EngineKind`] runs the same multi-model query with identical
//! result sets, `Rows` limit pushdown provably visits fewer tuples, and
//! validation errors surface at prepare time.

use fixtures::{branch_skew_instance, branch_skew_query, triangle_query, zipf_graph_instance};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relational::{Database, Ladder, Relation, Schema, Value, ValueId};
use xjoin_core::{
    engine_for, execute, stream, CoreError, DataContext, EngineKind, ExecOptions, MultiModelQuery,
    OrderStrategy, QueryBuilder,
};
use xmldb::{TagIndex, XmlDocument};

/// Random instance: a table S(x, y) plus a random tree over tags {r, x, y}
/// whose node values share the table's domain.
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

const TWIGS: &[&str] = &["//r//x", "//r/x", "//r[/x][//y]"];

/// Acceptance: the same multi-model query through every `EngineKind` via
/// the unified API yields identical result sets, on random instances.
#[test]
fn every_engine_kind_agrees_on_random_instances() {
    for seed in 0..6u64 {
        let (db, doc) = random_instance(seed, 8, 24, 4);
        let index = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &index);
        for twig in TWIGS {
            // With projection (shared schema across engines)…
            let projected = MultiModelQuery::new(&["S"], &[twig])
                .unwrap()
                .with_output(&["x", "y"]);
            // …and without (schemas differ per engine; align via project).
            let unprojected = MultiModelQuery::new(&["S"], &[twig]).unwrap();
            let reference = execute(&ctx, &projected, &ExecOptions::default()).unwrap();
            let reference_full = execute(&ctx, &unprojected, &ExecOptions::default()).unwrap();
            for kind in EngineKind::all() {
                let opts = ExecOptions::for_engine(kind);
                let out = execute(&ctx, &projected, &opts).unwrap();
                assert!(
                    out.results.set_eq(&reference.results),
                    "seed {seed} twig {twig} engine {kind}: {} vs {} rows",
                    out.results.len(),
                    reference.results.len()
                );
                let full = execute(&ctx, &unprojected, &opts).unwrap();
                let aligned = reference_full
                    .results
                    .project(full.results.schema().attrs())
                    .unwrap();
                assert!(
                    full.results.set_eq(&aligned),
                    "seed {seed} twig {twig} engine {kind} (unprojected)"
                );
            }
        }
    }
}

/// A relation's rows as a sorted vector — the multiset signature.
fn multiset(rel: &Relation) -> Vec<Vec<ValueId>> {
    let mut rows: Vec<Vec<ValueId>> = rel.rows().map(|r| r.to_vec()).collect();
    rows.sort();
    rows
}

/// Every ladder rung of the adaptive order.
fn rungs() -> [Ladder; 3] {
    [Ladder::RowCount, Ladder::Distinct, Ladder::Refined]
}

/// Adaptive ordering is a pure execution-strategy change: for every
/// plan-based [`EngineKind`] and every ladder rung, the adaptive run's
/// result multiset is identical to the static run's — on random multi-model
/// instances, a Zipf-skewed triangle, and the branch-skew workload the
/// adaptive walk is designed to win on. Schemas may differ (adaptive pins
/// the appearance skeleton), so results are aligned by projection first.
#[test]
fn adaptive_matches_static_for_every_plan_based_engine() {
    let plan_based: Vec<EngineKind> = EngineKind::all()
        .into_iter()
        .filter(EngineKind::is_plan_based)
        .collect();
    let check = |db: &Database, doc: &XmlDocument, query: &MultiModelQuery, tag: &str| {
        let index = TagIndex::build(doc);
        let ctx = DataContext::new(db, doc, &index);
        for &kind in &plan_based {
            let static_out = execute(&ctx, query, &ExecOptions::for_engine(kind)).unwrap();
            for ladder in rungs() {
                let opts = ExecOptions {
                    engine: kind,
                    order: OrderStrategy::Adaptive { ladder },
                    ..Default::default()
                };
                let adaptive = execute(&ctx, query, &opts).unwrap();
                let aligned = static_out
                    .results
                    .project(adaptive.results.schema().attrs())
                    .unwrap();
                assert_eq!(
                    multiset(&adaptive.results),
                    multiset(&aligned),
                    "{tag} engine {kind} ladder {ladder}: adaptive multiset != static"
                );
            }
        }
    };

    // Uniform-random multi-model instances…
    for seed in 0..3u64 {
        let (db, doc) = random_instance(seed, 10, 30, 4);
        let query = MultiModelQuery::new(&["S"], &["//r//x"]).unwrap();
        check(&db, &doc, &query, &format!("random seed {seed}"));
    }
    // …a Zipf-skewed triangle…
    let zipf = zipf_graph_instance(40, 160, 1.2, 7);
    check(&zipf.db, &zipf.doc, &triangle_query(), "zipf triangle");
    // …and the branch-skew workload the adaptive walk is designed to win on.
    let skewed = branch_skew_instance(48, 8);
    check(&skewed.db, &skewed.doc, &branch_skew_query(), "branch skew");
}

/// The `stream` entry point agrees with `execute` for every engine (same
/// rows, same set semantics), streamed or buffered.
#[test]
fn stream_agrees_with_execute_for_every_engine() {
    let (db, doc) = random_instance(42, 8, 24, 4);
    let index = TagIndex::build(&doc);
    let ctx = DataContext::new(&db, &doc, &index);
    let query = MultiModelQuery::new(&["S"], &["//r//x"])
        .unwrap()
        .with_output(&["x", "y"]);
    for kind in EngineKind::all() {
        let opts = ExecOptions::for_engine(kind);
        let executed = execute(&ctx, &query, &opts).unwrap();
        let streamed = stream(&ctx, &query, &opts).unwrap().into_relation();
        assert!(
            streamed.set_eq(&executed.results),
            "engine {kind}: stream != execute"
        );
    }
}

/// Acceptance: `Rows` with `limit(k)` visits strictly fewer tuples than
/// full enumeration, observable via the `Rows::stats` counters.
#[test]
fn limit_pushdown_visits_strictly_fewer_tuples() {
    // A skewed instance with plenty of results so a small limit leaves most
    // of the search space unvisited.
    let (db, doc) = random_instance(7, 20, 60, 3);
    let index = TagIndex::build(&doc);
    let ctx = DataContext::new(&db, &doc, &index);
    let query = MultiModelQuery::new(&["S"], &["//r//x"]).unwrap();

    for kind in [EngineKind::XJoinStream] {
        let mut full = stream(&ctx, &query, &ExecOptions::for_engine(kind)).unwrap();
        let total = full.by_ref().count();
        let full_visited = full.stats().visited;
        assert!(total > 2, "instance too small for a meaningful limit test");

        let k = 2usize;
        let opts = ExecOptions {
            engine: kind,
            limit: Some(k),
            ..Default::default()
        };
        let mut limited = stream(&ctx, &query, &opts).unwrap();
        let rows: Vec<_> = limited.by_ref().collect();
        let st = limited.stats();
        assert_eq!(rows.len(), k);
        assert_eq!(st.emitted, k);
        assert!(
            st.visited < full_visited,
            "engine {kind}: limited visited {} !< full visited {}",
            st.visited,
            full_visited
        );
        // And the limited rows are genuine results.
        let all = execute(&ctx, &query, &ExecOptions::for_engine(kind)).unwrap();
        for row in &rows {
            assert!(all.results.contains_row(row), "limited row not in result");
        }
    }
}

/// Limit pushdown also holds through the Query/QueryBuilder surface.
#[test]
fn builder_limit_pushes_down() {
    let (db, doc) = random_instance(11, 12, 40, 3);
    let index = TagIndex::build(&doc);
    let ctx = DataContext::new(&db, &doc, &index);

    let full = QueryBuilder::new()
        .relation("S")
        .twig("//r//x")
        .engine(EngineKind::XJoinStream)
        .build()
        .unwrap();
    let mut all = full.rows(&ctx).unwrap();
    let total = all.by_ref().count();
    assert!(total > 1);
    let full_visited = all.stats().visited;

    let limited = QueryBuilder::from_query(full.query.clone())
        .engine(EngineKind::XJoinStream)
        .limit(1)
        .build()
        .unwrap();
    let mut rows = limited.rows(&ctx).unwrap();
    assert_eq!(rows.by_ref().count(), 1);
    assert!(rows.stats().visited < full_visited);
    // execute() honours the same limit.
    assert_eq!(limited.execute(&ctx).unwrap().results.len(), 1);
}

/// Unknown output attributes error at prepare — for every engine, before
/// any join work happens (the error is the dedicated variant, not a late
/// projection failure).
#[test]
fn unknown_output_attribute_fails_fast_everywhere() {
    let (db, doc) = random_instance(3, 4, 10, 3);
    let index = TagIndex::build(&doc);
    let ctx = DataContext::new(&db, &doc, &index);
    let query = MultiModelQuery::new(&["S"], &["//r//x"])
        .unwrap()
        .with_output(&["not_a_var"]);
    for kind in EngineKind::all() {
        let engine = engine_for(kind);
        let opts = ExecOptions::for_engine(kind);
        for result in [
            engine.prepare(&ctx, &query, &opts).map(|_| ()),
            engine.execute(&ctx, &query, &opts).map(|_| ()),
            engine.stream(&ctx, &query, &opts).map(|_| ()),
        ] {
            assert!(
                matches!(result, Err(CoreError::UnknownAttribute(ref a)) if a == "not_a_var"),
                "engine {kind}: expected UnknownAttribute, got {result:?}"
            );
        }
    }
}

/// The engine trait objects report their own kind, and prepare describes
/// the query without executing it.
#[test]
fn prepare_reports_engine_and_shape() {
    let (db, doc) = random_instance(5, 4, 10, 3);
    let index = TagIndex::build(&doc);
    let ctx = DataContext::new(&db, &doc, &index);
    let query = MultiModelQuery::new(&["S"], &["//r//x"]).unwrap();
    for kind in EngineKind::all() {
        let engine = engine_for(kind);
        assert_eq!(engine.kind(), kind);
        let plan = engine
            .prepare(&ctx, &query, &ExecOptions::for_engine(kind))
            .unwrap();
        assert_eq!(plan.engine, kind);
        assert!(plan.order.iter().any(|a| a.name() == "x"));
        assert!(!plan.atom_sizes.is_empty());
    }
}

/// Pure-relational and pure-twig queries run through every engine too.
#[test]
fn single_model_queries_work_on_every_engine() {
    let (db, doc) = random_instance(9, 6, 15, 3);
    let index = TagIndex::build(&doc);
    let ctx = DataContext::new(&db, &doc, &index);
    let rel_only = MultiModelQuery::new(&["S"], &[]).unwrap();
    let twig_only = MultiModelQuery::new::<&str>(&[], &["//r//x"]).unwrap();
    for query in [&rel_only, &twig_only] {
        let reference = execute(&ctx, query, &ExecOptions::default()).unwrap();
        for kind in EngineKind::all() {
            let out = execute(&ctx, query, &ExecOptions::for_engine(kind)).unwrap();
            let aligned = reference
                .results
                .project(out.results.schema().attrs())
                .unwrap();
            assert!(out.results.set_eq(&aligned), "engine {kind}");
        }
    }
}
