//! XJoin — the paper's Algorithm 1: a worst-case optimal join over
//! relational tables and XML twigs *as a whole*.
//!
//! ```text
//! S ← Sr ∪ transform(Sx)                  // atoms: tables + twig path relations
//! R ← ∅ ; A ← ∅
//! foreach p ∈ PA:
//!     E ← common values of p across S     // per-tuple leapfrog intersection
//!     filter E by relations between p and A   // implicit: candidates come
//!                                             // from trie nodes reached by A
//!     expand R by E
//!     A ← A ∪ {p}
//! filter R by validating structure of Sx  // final twig-structure check
//! ```
//!
//! Every intermediate `R` is the exact join of the atoms projected onto the
//! bound prefix, so its size obeys the AGM bound of the prefix hypergraph —
//! the paper's Lemma 3.5 (checked empirically by the test-suite).
//!
//! Two optional filters implement the paper's stated on-going work
//! ("filtering infeasible intermediate results and partially validating the
//! twig structure during the joining"):
//!
//! * `ad_filter` — prunes candidates violating a cut A-D edge's value pairs
//!   as soon as both endpoints are bound;
//! * `partial_validation` — runs the same label-driven structure check on
//!   bound prefixes instead of only at the end.

use crate::error::CoreError;
use crate::error::Result;
use crate::exec::{execute, tick, validate_output, EngineKind, ExecOptions, QueryOutput};
use crate::order::OrderStrategy;
use crate::query::{DataContext, MultiModelQuery};
use crate::validate::TwigValidator;
use relational::generic::levelwise_expand;
use relational::{Attr, JoinPlan, JoinStats, Relation, Schema, ValueId};
use std::collections::HashSet;
use std::time::Instant;
use xmldb::transform::{ad_edge_relation, decompose};

/// Configuration of an XJoin run.
#[derive(Debug, Clone, Default)]
pub struct XJoinConfig {
    /// Variable expansion priority (the paper's `PA`).
    pub order: OrderStrategy,
    /// Validate twig structure incrementally during expansion (paper's
    /// on-going-work extension) instead of only at the end.
    pub partial_validation: bool,
    /// Prune candidates using the value pairs of cut A-D edges as soon as
    /// both endpoints are bound (paper's "filtering infeasible intermediate
    /// results").
    pub ad_filter: bool,
}

/// One A-D edge filter: order positions of the endpoints plus the legal
/// value pairs.
type AdCheck = (usize, usize, HashSet<(ValueId, ValueId)>);

/// Runs XJoin on a multi-model query: [`crate::execute`] on
/// [`EngineKind::XJoin`] with `cfg`'s order and filters and no limit. It
/// lowers the query to atoms, builds a plan (constructing fresh tries), and
/// executes it; `stats.elapsed` covers the whole run — lowering, trie
/// construction, and execution — matching what [`crate::baseline::baseline`]
/// times.
pub fn xjoin(
    ctx: &DataContext<'_>,
    query: &MultiModelQuery,
    cfg: &XJoinConfig,
) -> Result<QueryOutput> {
    let opts = ExecOptions {
        engine: EngineKind::XJoin,
        order: cfg.order.clone(),
        partial_validation: cfg.partial_validation,
        ad_filter: cfg.ad_filter,
        limit: None,
    };
    execute(ctx, query, &opts)
}

/// Builds the A-D edge filters for a query under `order`: per expansion
/// level, the `(anc position, desc position, value-pair set)` checks
/// triggered at the level where the later endpoint binds. Each edge's value
/// pairs come from an ancestor×descendant document scan, so they are
/// materialised once per query, before expansion, and only probed per
/// candidate. Empty per-level vectors when `enabled` is false.
fn build_ad_checks(
    ctx: &DataContext<'_>,
    query: &MultiModelQuery,
    order: &[Attr],
    enabled: bool,
) -> Vec<Vec<AdCheck>> {
    let mut ad_checks: Vec<Vec<AdCheck>> = vec![Vec::new(); order.len()];
    if enabled {
        for twig in &query.twigs {
            let dec = decompose(twig);
            for &edge in &dec.ad_edges {
                let va = &twig.node(edge.0).var;
                let vd = &twig.node(edge.1).var;
                let pa = order
                    .iter()
                    .position(|o| o == va)
                    .expect("order covers vars");
                let pd = order
                    .iter()
                    .position(|o| o == vd)
                    .expect("order covers vars");
                let rel = ad_edge_relation(ctx.doc, ctx.index, twig, edge);
                let set: HashSet<(ValueId, ValueId)> = rel.rows().map(|r| (r[0], r[1])).collect();
                ad_checks[pa.max(pd)].push((pa, pd, set));
            }
        }
    }
    ad_checks
}

/// Executes XJoin over an already-assembled [`JoinPlan`] (whose tries may
/// come from a shared cache — see the `xjoin-store` crate). The plan's order
/// must cover the query's variables; `atom_sizes` / `first_path_atom`
/// describe the plan's atoms as [`crate::Atoms::sizes`] /
/// [`crate::Atoms::first_path_atom`] would. The output projection is checked
/// first, before any expansion work. `stats.elapsed` covers execution over
/// the given plan only — trie construction is the caller's (typically a
/// cache's) concern.
pub fn xjoin_with_plan(
    ctx: &DataContext<'_>,
    query: &MultiModelQuery,
    cfg: &XJoinConfig,
    plan: &JoinPlan,
    atom_sizes: Vec<(String, usize)>,
    first_path_atom: usize,
) -> Result<QueryOutput> {
    levelwise(
        ctx,
        query,
        cfg,
        plan,
        atom_sizes,
        first_path_atom,
        None,
        None,
    )
}

/// The breadth-first executor: Algorithm 1's expansion with the A-D and
/// partial-validation filters, final structure validation, projection, and
/// then the first `limit` rows. A `deadline` is read every 256 candidates
/// the expansion proposes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn levelwise(
    ctx: &DataContext<'_>,
    query: &MultiModelQuery,
    cfg: &XJoinConfig,
    plan: &JoinPlan,
    atom_sizes: Vec<(String, usize)>,
    first_path_atom: usize,
    limit: Option<usize>,
    deadline: Option<Instant>,
) -> Result<QueryOutput> {
    let start = Instant::now();
    let order: Vec<Attr> = plan.order().to_vec();
    validate_output(query, &order)?;
    let ad_checks = build_ad_checks(ctx, query, &order, cfg.ad_filter);
    let mut stats = JoinStats::default();
    for (name, size) in atom_sizes.iter().skip(first_path_atom) {
        stats.record(format!("materialise {name}"), *size);
    }

    // Per-twig validators (used by partial validation and the final filter).
    let mut validators: Vec<TwigValidator<'_>> = query
        .twigs
        .iter()
        .map(|t| TwigValidator::new(ctx.doc, ctx.index, t, &order))
        .collect::<Result<_>>()?;

    // "Filter E by satisfying relation between p and A": the cut A-D edges
    // and (optionally) partial structure validation.
    let mut cand: Vec<ValueId> = Vec::with_capacity(order.len());
    let mut filter = |d: usize, prefix: &[ValueId], v: ValueId| {
        for (pa, pd, set) in &ad_checks[d] {
            let va = if *pa == d { v } else { prefix[*pa] };
            let vd = if *pd == d { v } else { prefix[*pd] };
            if !set.contains(&(va, vd)) {
                return false;
            }
        }
        if cfg.partial_validation {
            cand.clear();
            cand.extend_from_slice(prefix);
            cand.push(v);
            for val in validators.iter_mut() {
                if val.involves_position(d) && !val.check_prefix(&cand, d + 1) {
                    return false;
                }
            }
        }
        true
    };
    // One expansion per case, so a run without a deadline pays no check per
    // candidate.
    let (tuples, count, expansion) = match deadline {
        None => levelwise_expand(plan, |d, prefix, v| {
            Ok::<_, CoreError>(filter(d, prefix, v))
        })?,
        Some(deadline) => {
            let mut steps = 0;
            levelwise_expand(plan, |d, prefix, v| {
                tick(deadline, &mut steps)?;
                Ok::<_, CoreError>(filter(d, prefix, v))
            })?
        }
    };
    stats.stages.extend(expansion.stages);

    // Final structure validation ("Filter R by validating structure of Sx").
    let width = order.len();
    let schema = Schema::new(order.iter().cloned()).expect("order vars distinct");
    let mut result = Relation::with_capacity(schema, count);
    for t in 0..count {
        let tuple = &tuples[t * width..t * width + width];
        if validators.iter_mut().all(|v| v.check(tuple)) {
            result.push(tuple).expect("width matches arity");
        }
    }
    if !query.twigs.is_empty() {
        stats.record("validate structure", result.len());
    }

    if let Some(out_attrs) = &query.output {
        result = result.project(out_attrs)?;
    }
    if let Some(k) = limit {
        result.truncate(k);
    }
    stats.output_rows = result.len();
    stats.elapsed = start.elapsed();
    Ok(QueryOutput {
        results: result,
        stats,
        order,
        atom_sizes,
    })
}

/// Lowers a query to its atom set without running the join (what
/// [`crate::bounds`] prices and the Lemma 3.5 checks read).
pub use crate::atoms::collect_atoms as lower;

#[cfg(test)]
mod tests {
    use super::*;
    use relational::{Database, Schema, Value};
    use xmldb::{TagIndex, XmlDocument};

    /// Figure 1 of the paper: orders table ⋈ invoice twig.
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
        b.leaf("discount", "0.1");
        b.end();
        b.begin("orderLine");
        b.leaf("orderID", 20134i64);
        b.leaf("ISBN", "634-3-12-2");
        b.leaf("price", 20i64);
        b.leaf("discount", "0.3");
        b.end();
        b.end();
        let doc = b.build(&mut dict);
        *db.dict_mut() = dict;
        (db, doc)
    }

    #[test]
    fn figure_1_query_returns_expected_rows() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//invoices/orderLine[/orderID][/ISBN][/price]"])
            .unwrap()
            .with_output(&["userID", "ISBN", "price"]);
        let out = xjoin(&ctx, &q, &XJoinConfig::default()).unwrap();
        assert_eq!(out.results.len(), 2);
        let decoded = db.decode(&out.results);
        assert!(decoded.contains(&vec![
            Value::str("jack"),
            Value::str("978-3-16-1"),
            Value::Int(30)
        ]));
        assert!(decoded.contains(&vec![
            Value::str("tom"),
            Value::str("634-3-12-2"),
            Value::Int(20)
        ]));
    }

    #[test]
    fn pure_relational_query_works() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &[]).unwrap();
        let out = xjoin(&ctx, &q, &XJoinConfig::default()).unwrap();
        assert_eq!(out.results.len(), 3);
    }

    #[test]
    fn pure_twig_query_works() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new::<&str>(&[], &["//orderLine/price"]).unwrap();
        let out = xjoin(&ctx, &q, &XJoinConfig::default()).unwrap();
        assert_eq!(out.results.len(), 2); // ("", 30), ("", 20)
    }

    #[test]
    fn empty_query_is_an_error() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new::<&str>(&[], &[]).unwrap();
        assert!(xjoin(&ctx, &q, &XJoinConfig::default()).is_err());
    }

    #[test]
    fn validation_rejects_cross_node_combinations() {
        // Two orderLines with the same price but different ISBNs: the
        // value-level path join alone would fabricate (ISBN_1, discount_2)
        // pairs; validation must kill them.
        let mut db = Database::new();
        db.load("Dummy", Schema::of(&["price"]), vec![vec![Value::Int(30)]])
            .unwrap();
        let mut dict = db.dict().clone();
        let mut b = XmlDocument::builder();
        b.begin("invoices");
        b.begin("orderLine");
        b.leaf("ISBN", "X");
        b.leaf("price", 30i64);
        b.end();
        b.begin("orderLine");
        b.leaf("ISBN", "Y");
        b.leaf("price", 30i64);
        b.end();
        b.end();
        let doc = b.build(&mut dict);
        *db.dict_mut() = dict;
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        // Twig binds the *same* orderLine for ISBN and price; with output
        // (ISBN, price) there are exactly 2 valid combinations, not 2x2.
        let q = MultiModelQuery::new(&["Dummy"], &["//orderLine[/ISBN][/price]"])
            .unwrap()
            .with_output(&["ISBN", "price"]);
        let out = xjoin(&ctx, &q, &XJoinConfig::default()).unwrap();
        assert_eq!(out.results.len(), 2);
    }

    #[test]
    fn partial_validation_gives_same_results() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//invoices/orderLine[/orderID][/ISBN][/price]"])
            .unwrap();
        let base = xjoin(&ctx, &q, &XJoinConfig::default()).unwrap();
        let cfg = XJoinConfig {
            partial_validation: true,
            ad_filter: true,
            ..Default::default()
        };
        let opt = xjoin(&ctx, &q, &cfg).unwrap();
        assert!(base.results.set_eq(&opt.results));
        // Filtering can only shrink intermediates.
        assert!(opt.stats.max_intermediate() <= base.stats.max_intermediate());
    }

    #[test]
    fn ad_edges_are_enforced_by_validation() {
        // Twig //invoices//price with an A-D edge; prices exist under
        // orderLines which are under invoices -> both match; but a price
        // outside invoices must not.
        let mut db = Database::new();
        db.load(
            "Dummy",
            Schema::of(&["price"]),
            vec![vec![Value::Int(30)], vec![Value::Int(99)]],
        )
        .unwrap();
        let mut dict = db.dict().clone();
        let mut b = XmlDocument::builder();
        b.begin("root");
        b.begin("invoices");
        b.begin("orderLine");
        b.leaf("price", 30i64);
        b.end();
        b.end();
        b.leaf("price", 99i64); // outside invoices
        b.end();
        let doc = b.build(&mut dict);
        *db.dict_mut() = dict;
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["Dummy"], &["//invoices//price"])
            .unwrap()
            .with_output(&["price"]);
        for cfg in [
            XJoinConfig::default(),
            XJoinConfig {
                ad_filter: true,
                ..Default::default()
            },
            XJoinConfig {
                partial_validation: true,
                ..Default::default()
            },
        ] {
            let out = xjoin(&ctx, &q, &cfg).unwrap();
            assert_eq!(out.results.len(), 1, "cfg {cfg:?}");
            let decoded = db.decode(&out.results);
            assert_eq!(decoded[0][0], Value::Int(30));
        }
    }

    #[test]
    fn stats_track_every_stage() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//orderLine/orderID"]).unwrap();
        let out = xjoin(&ctx, &q, &XJoinConfig::default()).unwrap();
        // Stages: materialise path, 4 vars, validate.
        let labels: Vec<&str> = out.stats.stages.iter().map(|s| s.label.as_str()).collect();
        assert!(labels.iter().any(|l| l.starts_with("materialise")));
        assert!(labels.iter().any(|l| l.starts_with("expand")));
        assert!(labels.last().unwrap().starts_with("validate"));
        assert_eq!(out.stats.output_rows, out.results.len());
    }
}
