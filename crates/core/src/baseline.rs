//! The paper's baseline: evaluate each data model independently, then join.
//!
//! Figure 3: `Q1` answers the relational part with a conventional engine,
//! `Q2` answers the twig with a (worst-case-optimal-for-XML) holistic twig
//! join, and the final answer is `Q1 ⋈ Q2` at the value level. The baseline
//! is *not* worst-case optimal for the combined query — `Q2` alone can reach
//! its own `n^5` bound while the combined bound is `n^2` — which is exactly
//! the gap the paper's bar chart shows.

use crate::error::{CoreError, Result};
use crate::exec::{validate_output, QueryOutput};
use crate::query::{variables_of, DataContext, MultiModelQuery};
use relational::hashjoin::{hash_join, multiway_hash_join};
use relational::lftj::lftj_join;
use relational::{Attr, JoinStats, Relation};
use std::time::Instant;
use xmldb::dewey::tjfast;
use xmldb::holistic::{node_matches_to_values, twig_stack};
use xmldb::matcher::all_matches;
use xmldb::TwigPattern;

/// Engine used for the relational part (`Q1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RelAlg {
    /// Pairwise hash joins along a greedy left-deep plan (classical).
    #[default]
    Hash,
    /// Leapfrog Triejoin (worst-case optimal *within* the relational part —
    /// still not optimal for the combined query).
    Lftj,
}

/// Engine used for each twig (`Q2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum XmlAlg {
    /// TwigStack holistic twig join (Bruno et al. 2002).
    #[default]
    TwigStack,
    /// Naive navigational backtracking matcher.
    Navigational,
    /// TJFast-style matching over extended Dewey labels (leaf streams only).
    Tjfast,
}

/// Baseline configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct BaselineConfig {
    /// Relational engine.
    pub rel_alg: RelAlg,
    /// XML engine.
    pub xml_alg: XmlAlg,
}

/// Evaluates the value-level tuples of one twig with the configured XML
/// engine, recording intermediate sizes.
fn eval_twig(
    ctx: &DataContext<'_>,
    twig: &TwigPattern,
    t: usize,
    alg: XmlAlg,
    stats: &mut JoinStats,
) -> Relation {
    match alg {
        XmlAlg::TwigStack => {
            let res = twig_stack(ctx.doc, ctx.index, twig);
            stats.record(format!("Q2.{t} path solutions"), res.path_solutions);
            stats.record(format!("Q2.{t} twig matches"), res.matches.len());
            let values = node_matches_to_values(ctx.doc, &res.matches);
            stats.record(format!("Q2.{t} value tuples"), values.len());
            values
        }
        XmlAlg::Tjfast => {
            let res = tjfast(ctx.doc, ctx.index, twig);
            stats.record(format!("Q2.{t} path solutions"), res.path_solutions);
            stats.record(format!("Q2.{t} twig matches"), res.matches.len());
            let values = node_matches_to_values(ctx.doc, &res.matches);
            stats.record(format!("Q2.{t} value tuples"), values.len());
            values
        }
        XmlAlg::Navigational => {
            let matches = all_matches(ctx.doc, ctx.index, twig);
            stats.record(format!("Q2.{t} twig matches"), matches.len());
            let vars = twig.vars();
            let schema = relational::Schema::new(vars).expect("distinct twig vars");
            let mut rel = Relation::with_capacity(schema, matches.len());
            let mut buf = Vec::with_capacity(twig.len());
            for m in &matches {
                buf.clear();
                buf.extend(m.iter().map(|&n| ctx.doc.node(n).value));
                rel.push(&buf).expect("arity matches");
            }
            rel.sort_dedup();
            stats.record(format!("Q2.{t} value tuples"), rel.len());
            rel
        }
    }
}

/// Runs the baseline on a multi-model query. Stats cover Q1's operators,
/// per-twig match counts, and cross-model merge sizes.
pub fn baseline(
    ctx: &DataContext<'_>,
    query: &MultiModelQuery,
    cfg: &BaselineConfig,
) -> Result<QueryOutput> {
    if query.is_empty() {
        return Err(CoreError::EmptyQuery);
    }
    // Timing starts here so `stats.elapsed` covers atom resolution, like
    // `xjoin`'s covers lowering — the Figure 3 comparison depends on parity.
    let start = Instant::now();
    let resolved = ctx.resolve_atoms(query)?;
    // Validate the output projection before any evaluation, mirroring the
    // XJoin engines' prepare-time check (the resolved atoms double as Q1's
    // input below).
    validate_output(query, &variables_of(&resolved, &query.twigs))?;
    let mut stats = JoinStats::default();

    // Q1: the relational part.
    let rels: Vec<&Relation> = resolved.iter().map(|a| a.rel()).collect();
    let mut acc: Option<Relation> = if rels.is_empty() {
        None
    } else {
        let q1 = match cfg.rel_alg {
            RelAlg::Hash => {
                let (q1, q1_stats) = multiway_hash_join(&rels)?;
                for s in q1_stats.stages {
                    stats.record(format!("Q1 {}", s.label), s.tuples);
                }
                q1
            }
            RelAlg::Lftj => {
                // Variable order: appearance across the relational atoms.
                let mut order: Vec<Attr> = Vec::new();
                for r in &rels {
                    for a in r.schema().attrs() {
                        if !order.contains(a) {
                            order.push(a.clone());
                        }
                    }
                }
                let q1 = lftj_join(&rels, &order)?;
                stats.record("Q1 lftj", q1.len());
                q1
            }
        };
        Some(q1)
    };

    // Q2 per twig, then merge.
    for (t, twig) in query.twigs.iter().enumerate() {
        let q2 = eval_twig(ctx, twig, t, cfg.xml_alg, &mut stats);
        acc = Some(match acc {
            None => q2,
            Some(prev) => {
                let joined = hash_join(&prev, &q2)?;
                stats.record(format!("merge Q2.{t}"), joined.len());
                joined
            }
        });
    }

    let mut result = acc.expect("query is non-empty");
    result.sort_dedup();
    let order = result.schema().attrs().to_vec();
    if let Some(out_attrs) = &query.output {
        result = result.project(out_attrs)?;
    }
    stats.output_rows = result.len();
    stats.elapsed = start.elapsed();
    Ok(QueryOutput {
        results: result,
        stats,
        order,
        atom_sizes: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{xjoin, XJoinConfig};
    use relational::{Database, Schema, Value};
    use xmldb::{TagIndex, XmlDocument};

    fn bookstore() -> (Database, XmlDocument) {
        let mut db = Database::new();
        db.load(
            "R",
            Schema::of(&["orderID", "userID"]),
            vec![
                vec![Value::Int(10963), Value::str("jack")],
                vec![Value::Int(20134), Value::str("tom")],
                vec![Value::Int(35768), Value::str("bob")],
            ],
        )
        .unwrap();
        let mut dict = db.dict().clone();
        let mut b = XmlDocument::builder();
        b.begin("invoices");
        b.begin("orderLine");
        b.leaf("orderID", 10963i64);
        b.leaf("ISBN", "978-3-16-1");
        b.leaf("price", 30i64);
        b.end();
        b.begin("orderLine");
        b.leaf("orderID", 20134i64);
        b.leaf("ISBN", "634-3-12-2");
        b.leaf("price", 20i64);
        b.end();
        b.end();
        let doc = b.build(&mut dict);
        *db.dict_mut() = dict;
        (db, doc)
    }

    #[test]
    fn baseline_matches_xjoin_on_bookstore() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//orderLine[/orderID][/ISBN][/price]"])
            .unwrap()
            .with_output(&["userID", "ISBN", "price"]);
        let b = baseline(&ctx, &q, &BaselineConfig::default()).unwrap();
        let x = xjoin(&ctx, &q, &XJoinConfig::default()).unwrap();
        assert!(b.results.set_eq(&x.results), "baseline != xjoin");
        assert_eq!(b.results.len(), 2);
    }

    #[test]
    fn all_engine_combinations_agree() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//orderLine[/orderID][/price]"])
            .unwrap()
            .with_output(&["userID", "price"]);
        let reference = baseline(&ctx, &q, &BaselineConfig::default()).unwrap();
        for rel_alg in [RelAlg::Hash, RelAlg::Lftj] {
            for xml_alg in [XmlAlg::TwigStack, XmlAlg::Navigational, XmlAlg::Tjfast] {
                let cfg = BaselineConfig { rel_alg, xml_alg };
                let out = baseline(&ctx, &q, &cfg).unwrap();
                assert!(
                    out.results.set_eq(&reference.results),
                    "config {cfg:?} diverged"
                );
            }
        }
    }

    #[test]
    fn relational_only_query() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &[]).unwrap();
        let out = baseline(&ctx, &q, &BaselineConfig::default()).unwrap();
        assert_eq!(out.results.len(), 3);
    }

    #[test]
    fn twig_only_query() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new::<&str>(&[], &["//orderLine/ISBN"]).unwrap();
        let out = baseline(&ctx, &q, &BaselineConfig::default()).unwrap();
        assert_eq!(out.results.len(), 2);
    }

    #[test]
    fn stats_expose_q2_blowup() {
        // A twig whose match count exceeds the final result: baseline
        // materialises it, and the stats show it.
        let mut db = Database::new();
        db.load("S", Schema::of(&["b"]), vec![vec![Value::Int(0)]])
            .unwrap();
        let mut dict = db.dict().clone();
        let mut bld = XmlDocument::builder();
        bld.begin("a");
        for i in 0..10 {
            bld.leaf("b", i as i64);
        }
        bld.end();
        let doc = bld.build(&mut dict);
        *db.dict_mut() = dict;
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["S"], &["//a/b"]).unwrap();
        let out = baseline(&ctx, &q, &BaselineConfig::default()).unwrap();
        assert_eq!(out.results.len(), 1); // only b=0 joins
        assert!(out.stats.max_intermediate() >= 10, "{}", out.stats);
    }

    #[test]
    fn empty_query_errors() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new::<&str>(&[], &[]).unwrap();
        assert!(baseline(&ctx, &q, &BaselineConfig::default()).is_err());
    }
}
