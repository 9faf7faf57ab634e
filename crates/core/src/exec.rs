//! The unified execution API: **one** way to build and run a multi-model
//! query on **any** join engine.
//!
//! Historically every engine had its own entry point, configuration, and
//! output type (`xjoin`, the callback-only `xjoin_stream`, and the
//! relational crate's `lftj_join` / `generic_join`). This module puts the
//! engines that run from a trie [`JoinPlan`] behind three pieces:
//!
//! * [`EngineKind`] + [`ExecOptions`] — *what* to run and *how*: the engine
//!   selector, the variable-order strategy, the optional XJoin filters, and
//!   a `limit`;
//! * the free functions [`execute`] / [`stream`] / [`execute_with_plan`] —
//!   resolve (unknown relations, bad orders, unknown output attributes all
//!   error *before any trie is built*), build or take a trie plan, and run
//!   the selected engine: `execute` materialises one [`QueryOutput`],
//!   `stream` returns a pull-based [`Rows`] iterator over the depth-first
//!   walk, whatever the kind;
//! * [`QueryBuilder`] / [`Query`] — one construction surface for MMQL text
//!   and programmatic queries, carrying the options alongside the query.
//!
//! Generic Join, LFTJ and the paper's Algorithm 1 differ only in traversal
//! order over one index contract, so a plan runs on one of two executors,
//! each doing twig validation, projection, `limit` and an optional deadline
//! itself ([`execute_with_plan_until`]):
//!
//! * **breadth-first** ([`EngineKind::XJoin`]): the level-wise expansion,
//!   which materialises — and bounds, per the paper's Lemma 3.5 — every
//!   prefix intermediate;
//! * **depth-first** ([`EngineKind::XJoinStream`], with
//!   [`EngineKind::Lftj`] as a synonym): the LFTJ walk, in constant memory
//!   with true `LIMIT` pushdown.
//!
//! Both return the same result *set* on the same query (the
//! `engine_equivalence` and `exec_api` integration suites enforce this).
//! The paper's per-model baseline, which does not run from a trie plan, is
//! called directly as [`crate::baseline()`].
//!
//! ```
//! use relational::{Database, Schema, Value};
//! use xjoin_core::{DataContext, EngineKind, QueryBuilder};
//! use xmldb::{parse_xml, TagIndex};
//!
//! let mut db = Database::new();
//! db.load("orders", Schema::of(&["orderID", "userID"]), vec![
//!     vec![Value::Int(1), Value::str("jack")],
//! ]).unwrap();
//! let mut dict = db.dict().clone();
//! let doc = parse_xml("<lines><line><orderID>1</orderID><price>30</price></line></lines>", &mut dict).unwrap();
//! *db.dict_mut() = dict;
//! let index = TagIndex::build(&doc);
//! let ctx = DataContext::new(&db, &doc, &index);
//!
//! let query = QueryBuilder::mmql("Q(userID, price) :- orders(orderID, userID), //line[/orderID][/price]")
//!     .unwrap()
//!     .engine(EngineKind::XJoinStream)
//!     .limit(10)
//!     .build()
//!     .unwrap();
//! let out = query.execute(&ctx).unwrap();
//! assert_eq!(out.results.len(), 1);
//! let rows: Vec<_> = query.rows(&ctx).unwrap().collect();
//! assert_eq!(rows.len(), 1);
//! ```

use crate::atoms::{collect_atoms, Atoms};
use crate::engine::{levelwise, XJoinConfig};
use crate::error::{CoreError, Result};
use crate::mmql::parse_query_with_options;
use crate::order::{compute_order, OrderStrategy};
use crate::query::{DataContext, MultiModelQuery, RelAtom, Term};
use crate::stream::{stream_with_plan, walk, Rows};
use relational::{Attr, JoinPlan, JoinStats, Relation};
use std::fmt;
use std::time::Instant;
use xmldb::TwigPattern;

/// Selects which executor runs a query. Every kind accepts the full
/// multi-model query language and runs from a trie [`JoinPlan`] over the
/// same lowered atom set (tables ∪ twig path relations), with the same
/// twig-structure validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The paper's Algorithm 1: level-wise worst-case optimal XJoin,
    /// materialising (and bounding) every intermediate. Honours
    /// [`ExecOptions::partial_validation`] and [`ExecOptions::ad_filter`].
    #[default]
    XJoin,
    /// Depth-first XJoin: the LFTJ walk over the same atoms with per-tuple
    /// structure validation. The engine behind true `limit` pushdown — it
    /// stops the trie walk after `k` rows.
    XJoinStream,
    /// A synonym of [`EngineKind::XJoinStream`]: the same executor, the
    /// same results and the same statistics. It keeps its own name and
    /// wire tag for callers that ask for Leapfrog Triejoin by name.
    Lftj,
}

impl EngineKind {
    /// Every engine kind (the cross-engine equivalence tests sweep this
    /// list).
    pub fn all() -> [EngineKind; 3] {
        [EngineKind::XJoin, EngineKind::XJoinStream, EngineKind::Lftj]
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EngineKind::XJoin => "xjoin",
            EngineKind::XJoinStream => "xjoin-stream",
            EngineKind::Lftj => "lftj",
        })
    }
}

/// Everything about *how* to run a query, engine choice included — the
/// historical `XJoinConfig` knobs plus `limit`, under one roof.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Which engine runs the query.
    pub engine: EngineKind,
    /// Variable expansion priority (the paper's `PA`).
    pub order: OrderStrategy,
    /// Validate twig structure incrementally during expansion
    /// ([`EngineKind::XJoin`] only).
    pub partial_validation: bool,
    /// Prune candidates via cut A-D edge value pairs
    /// ([`EngineKind::XJoin`] only).
    pub ad_filter: bool,
    /// Stop after this many result rows. The depth-first executor pushes
    /// the limit into the trie walk; the level-wise one truncates its
    /// result.
    pub limit: Option<usize>,
}

impl ExecOptions {
    /// Options running `engine` with all defaults.
    pub fn for_engine(engine: EngineKind) -> ExecOptions {
        ExecOptions {
            engine,
            ..ExecOptions::default()
        }
    }

    /// The XJoin engine-body configuration embedded in these options.
    pub fn xjoin_config(&self) -> XJoinConfig {
        XJoinConfig {
            order: self.order.clone(),
            partial_validation: self.partial_validation,
            ad_filter: self.ad_filter,
        }
    }
}

/// The one output type every engine (and [`crate::baseline()`]) returns.
#[derive(Debug)]
pub struct QueryOutput {
    /// The query result (schema = output attributes, or the full variable
    /// layout when the query has no explicit output list).
    pub results: Relation,
    /// Per-stage intermediate sizes and timings.
    pub stats: JoinStats,
    /// Layout of the *unprojected* result tuples: the engine's global
    /// variable order (for the baseline, its merge layout).
    pub order: Vec<Attr>,
    /// `(name, cardinality)` of every lowered atom, path relations included
    /// (empty for the baseline, which does not lower twigs).
    pub atom_sizes: Vec<(String, usize)>,
}

/// An engine-agnostic description of a validated, resolvable query — what
/// [`Query::prepare`] returns. Producing one proves the query will not fail
/// resolution: relations exist, terms match arities, the order covers every
/// variable, and all output attributes are query variables.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    /// The engine the plan was prepared for.
    pub engine: EngineKind,
    /// The global variable order execution will use.
    pub order: Vec<Attr>,
    /// `(name, cardinality)` of every lowered atom.
    pub atom_sizes: Vec<(String, usize)>,
    /// The validated output projection (`None` = all variables).
    pub output: Option<Vec<Attr>>,
}

/// Checks that every output attribute is a query variable. Engines (and
/// external preparers like `xjoin-store`) call this during preparation so
/// projection errors surface before execution — never after a join has run.
pub fn validate_output(query: &MultiModelQuery, vars: &[Attr]) -> Result<()> {
    if let Some(out) = &query.output {
        for a in out {
            if !vars.contains(a) {
                return Err(CoreError::UnknownAttribute(a.name().to_owned()));
            }
        }
    }
    Ok(())
}

/// The front half every one-shot run and `EXPLAIN` share: lower the query
/// and fix the order — no tries are built.
pub(crate) fn resolve<'a>(
    ctx: &DataContext<'a>,
    query: &MultiModelQuery,
    strategy: &OrderStrategy,
) -> Result<(Atoms<'a>, Vec<Attr>)> {
    let atoms = {
        let _span = xjoin_obs::span("resolve");
        collect_atoms(ctx, query)?
    };
    let order = {
        let mut span = xjoin_obs::span("order");
        let order = compute_order(&atoms, strategy)?;
        span.set_attr(|| order.iter().map(|a| a.name()).collect::<Vec<_>>().join(","));
        order
    };
    Ok((atoms, order))
}

/// Builds a fresh trie plan for the resolved atoms under `order`.
fn fresh_plan(atoms: &Atoms<'_>, order: &[Attr], opts: &ExecOptions) -> Result<JoinPlan> {
    let mut span = xjoin_obs::span("plan-build");
    let plan = JoinPlan::new(&atoms.rel_refs(), order)?.with_ladder(opts.order.ladder());
    span.set_attr(|| format!("tries_built={}", plan.tries_built()));
    Ok(plan)
}

/// How many steps — walk tuples, or candidates the level-wise expansion
/// proposes — a run with a deadline takes between two reads of the clock.
/// Small enough that a runaway query overruns its deadline by only a batch
/// of cheap trie steps; large enough that `Instant::now` never shows up in
/// probe profiles.
const DEADLINE_CHECK_EVERY: u32 = 256;

/// Counts one step toward `deadline`, failing with
/// [`CoreError::DeadlineExceeded`] when a check finds it passed.
pub(crate) fn tick(deadline: Instant, steps: &mut u32) -> Result<()> {
    *steps += 1;
    if *steps == DEADLINE_CHECK_EVERY {
        *steps = 0;
        if Instant::now() >= deadline {
            return Err(CoreError::DeadlineExceeded);
        }
    }
    Ok(())
}

/// Executes `query` on the engine selected by `opts` — the single blessed
/// entry point for one-shot execution: resolve, build a fresh trie plan,
/// and delegate to [`execute_with_plan`] (so the per-kind wiring exists
/// exactly once). `stats.elapsed` covers the whole run — lowering and trie
/// construction included — and `stats.build_elapsed` / `stats.tries_built`
/// carry the plan's trie-construction bill so callers can split cold
/// latency into build vs probe.
pub fn execute(
    ctx: &DataContext<'_>,
    query: &MultiModelQuery,
    opts: &ExecOptions,
) -> Result<QueryOutput> {
    let start = Instant::now();
    let (atoms, order) = resolve(ctx, query, &opts.order)?;
    validate_output(query, &order)?;
    let plan = fresh_plan(&atoms, &order, opts)?;
    let mut out = execute_with_plan(
        ctx,
        query,
        opts,
        &plan,
        atoms.sizes(),
        atoms.first_path_atom,
    )?;
    out.stats.elapsed = start.elapsed();
    out.stats.build_elapsed = plan.build_elapsed();
    out.stats.tries_built = plan.tries_built();
    out.stats.bitset_levels = plan.tries().iter().map(|t| t.bitset_level_count()).sum();
    Ok(out)
}

/// Streams `query` as a pull-based [`Rows`] iterator: resolves it, builds
/// a fresh trie plan, and walks it lazily with `limit` pushed into the
/// walk. Every engine kind streams through the depth-first walk; the kind
/// and its XJoin-only flags govern [`execute`], and the result *set* is the
/// same either way.
pub fn stream<'a>(
    ctx: &DataContext<'a>,
    query: &'a MultiModelQuery,
    opts: &ExecOptions,
) -> Result<Rows<'a>> {
    let (atoms, order) = resolve(ctx, query, &opts.order)?;
    validate_output(query, &order)?;
    let plan = fresh_plan(&atoms, &order, opts)?;
    stream_with_plan(ctx, query, plan, opts)
}

/// Executes the selected engine over an already-assembled [`JoinPlan`]
/// (whose tries typically come from the `xjoin-store` cache).
/// `atom_sizes` / `first_path_atom` describe the plan's atoms as
/// [`Atoms::sizes`] / [`Atoms::first_path_atom`] would.
pub fn execute_with_plan(
    ctx: &DataContext<'_>,
    query: &MultiModelQuery,
    opts: &ExecOptions,
    plan: &JoinPlan,
    atom_sizes: Vec<(String, usize)>,
    first_path_atom: usize,
) -> Result<QueryOutput> {
    execute_with_plan_until(ctx, query, opts, plan, atom_sizes, first_path_atom, None)
}

/// [`execute_with_plan`] that gives up with [`CoreError::DeadlineExceeded`]
/// once `deadline` passes. The deadline is read when the run starts and
/// then every 256 steps: walk tuples on the depth-first executor (rows that
/// twig validation rejects or a lossy projection drops included),
/// candidates the expansion proposes on the level-wise one. With `None`
/// this is exactly [`execute_with_plan`]; with a deadline that does not
/// pass, it returns the same output, stage series included.
pub fn execute_with_plan_until(
    ctx: &DataContext<'_>,
    query: &MultiModelQuery,
    opts: &ExecOptions,
    plan: &JoinPlan,
    atom_sizes: Vec<(String, usize)>,
    first_path_atom: usize,
    deadline: Option<Instant>,
) -> Result<QueryOutput> {
    let mut exec_span = xjoin_obs::span("execute");
    exec_span.set_attr(|| opts.engine.to_string());
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return Err(CoreError::DeadlineExceeded);
    }
    match opts.engine {
        EngineKind::XJoin => levelwise(
            ctx,
            query,
            &opts.xjoin_config(),
            plan,
            atom_sizes,
            first_path_atom,
            opts.limit,
            deadline,
        ),
        EngineKind::XJoinStream | EngineKind::Lftj => {
            walk(ctx, query, plan, atom_sizes, opts.limit, deadline)
        }
    }
}

/// Builds multi-model queries — MMQL text or programmatic atoms — together
/// with their [`ExecOptions`], replacing the historical per-engine
/// constructors. Construction methods never fail mid-chain: the first error
/// (e.g. a bad twig expression) is remembered and returned by
/// [`QueryBuilder::build`].
#[derive(Debug, Clone, Default)]
pub struct QueryBuilder {
    query: MultiModelQuery,
    options: ExecOptions,
    deferred: Option<CoreError>,
}

impl QueryBuilder {
    /// An empty builder (add atoms with [`QueryBuilder::relation`] /
    /// [`QueryBuilder::twig`]).
    pub fn new() -> QueryBuilder {
        QueryBuilder {
            query: MultiModelQuery {
                relations: Vec::new(),
                twigs: Vec::new(),
                output: None,
            },
            options: ExecOptions::default(),
            deferred: None,
        }
    }

    /// Seeds a builder from an MMQL query string (head = output). A trailing
    /// `WITH ORDER <strategy>` clause, when present, seeds the builder's
    /// [`OrderStrategy`] (see [`parse_query_with_options`]).
    pub fn mmql(text: &str) -> Result<QueryBuilder> {
        let (query, order) = parse_query_with_options(text)?;
        let mut options = ExecOptions::default();
        if let Some(order) = order {
            options.order = order;
        }
        Ok(QueryBuilder {
            query,
            options,
            deferred: None,
        })
    }

    /// Seeds a builder from an existing [`MultiModelQuery`].
    pub fn from_query(query: MultiModelQuery) -> QueryBuilder {
        QueryBuilder {
            query,
            options: ExecOptions::default(),
            deferred: None,
        }
    }

    /// Adds a relational atom using the stored schema unchanged.
    pub fn relation(mut self, name: &str) -> Self {
        self.query.relations.push(RelAtom::plain(name));
        self
    }

    /// Adds a relational atom with its columns rebound positionally.
    pub fn relation_as(mut self, name: &str, vars: &[&str]) -> Self {
        self.query.relations.push(RelAtom::renamed(
            name,
            vars.iter().map(|&v| Attr::new(v)).collect(),
        ));
        self
    }

    /// Adds a relational atom with arbitrary positional terms (variables,
    /// constants, repeated variables).
    pub fn relation_terms(mut self, name: &str, terms: Vec<Term>) -> Self {
        self.query.relations.push(RelAtom::with_terms(name, terms));
        self
    }

    /// Adds a twig atom from an XPath-like expression. A parse error is
    /// deferred to [`QueryBuilder::build`].
    pub fn twig(mut self, expr: &str) -> Self {
        match TwigPattern::parse(expr) {
            Ok(t) => self.query.twigs.push(t),
            Err(e) => {
                self.deferred.get_or_insert(CoreError::Twig(e));
            }
        }
        self
    }

    /// Restricts the output schema (the MMQL head).
    pub fn output(mut self, attrs: &[&str]) -> Self {
        self.query.output = Some(attrs.iter().map(|&a| Attr::new(a)).collect());
        self
    }

    /// Selects the engine.
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.options.engine = engine;
        self
    }

    /// Sets the variable-order strategy.
    pub fn order(mut self, order: OrderStrategy) -> Self {
        self.options.order = order;
        self
    }

    /// Shorthand for [`OrderStrategy::Adaptive`] with the given ladder rung.
    pub fn adaptive(self, ladder: relational::Ladder) -> Self {
        self.order(OrderStrategy::Adaptive { ladder })
    }

    /// Enables partial twig validation during expansion (XJoin only).
    pub fn partial_validation(mut self, on: bool) -> Self {
        self.options.partial_validation = on;
        self
    }

    /// Enables A-D edge filtering (XJoin only).
    pub fn ad_filter(mut self, on: bool) -> Self {
        self.options.ad_filter = on;
        self
    }

    /// Stops after `k` result rows (pushed into the trie walk by the
    /// depth-first executor).
    pub fn limit(mut self, k: usize) -> Self {
        self.options.limit = Some(k);
        self
    }

    /// Replaces the whole option set at once.
    pub fn options(mut self, options: ExecOptions) -> Self {
        self.options = options;
        self
    }

    /// Finalises the builder, surfacing any deferred construction error and
    /// rejecting atom-less queries.
    pub fn build(self) -> Result<Query> {
        if let Some(e) = self.deferred {
            return Err(e);
        }
        if self.query.is_empty() {
            return Err(CoreError::EmptyQuery);
        }
        Ok(Query {
            query: self.query,
            options: self.options,
        })
    }
}

/// A built query: the [`MultiModelQuery`] plus its [`ExecOptions`], ready
/// to run against any [`DataContext`].
#[derive(Debug, Clone)]
pub struct Query {
    /// The query itself.
    pub query: MultiModelQuery,
    /// How (and on which engine) to run it.
    pub options: ExecOptions,
}

impl Query {
    /// Resolves and validates the query against `ctx` without executing it:
    /// unknown relations, arity mismatches, unusable orders, and unknown
    /// output attributes all error **here**, before any trie is built.
    pub fn prepare(&self, ctx: &DataContext<'_>) -> Result<ExecPlan> {
        let (atoms, order) = resolve(ctx, &self.query, &self.options.order)?;
        validate_output(&self.query, &order)?;
        Ok(ExecPlan {
            engine: self.options.engine,
            order,
            atom_sizes: atoms.sizes(),
            output: self.query.output.clone(),
        })
    }

    /// Runs the query to completion on the selected engine.
    pub fn execute(&self, ctx: &DataContext<'_>) -> Result<QueryOutput> {
        execute(ctx, &self.query, &self.options)
    }

    /// Streams the query's results as a pull-based [`Rows`] iterator.
    pub fn rows<'a>(&'a self, ctx: &DataContext<'a>) -> Result<Rows<'a>> {
        stream(ctx, &self.query, &self.options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::{Database, Schema, Value};
    use xmldb::{TagIndex, XmlDocument};

    fn bookstore() -> (Database, XmlDocument) {
        let mut db = Database::new();
        db.load(
            "R",
            Schema::of(&["orderID", "userID"]),
            vec![
                vec![Value::Int(1), Value::str("jack")],
                vec![Value::Int(2), Value::str("tom")],
                vec![Value::Int(3), Value::str("bob")],
            ],
        )
        .unwrap();
        let mut dict = db.dict().clone();
        let mut b = XmlDocument::builder();
        b.begin("lines");
        for (oid, price) in [(1i64, 30i64), (2, 20), (9, 99)] {
            b.begin("line");
            b.leaf("orderID", oid);
            b.leaf("price", price);
            b.end();
        }
        b.end();
        let doc = b.build(&mut dict);
        *db.dict_mut() = dict;
        (db, doc)
    }

    #[test]
    fn every_engine_kind_executes_the_same_query() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let query = MultiModelQuery::new(&["R"], &["//line[/orderID][/price]"])
            .unwrap()
            .with_output(&["userID", "price"]);
        let reference = execute(&ctx, &query, &ExecOptions::default()).unwrap();
        assert_eq!(reference.results.len(), 2);
        for kind in EngineKind::all() {
            let out = execute(&ctx, &query, &ExecOptions::for_engine(kind)).unwrap();
            assert!(
                out.results.set_eq(&reference.results),
                "engine {kind} diverged"
            );
        }
    }

    #[test]
    fn unknown_output_attribute_errors_at_prepare() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let query = MultiModelQuery::new(&["R"], &["//line/orderID"])
            .unwrap()
            .with_output(&["nonexistent"]);
        for kind in EngineKind::all() {
            let q = QueryBuilder::from_query(query.clone())
                .engine(kind)
                .build()
                .unwrap();
            assert!(
                matches!(
                    q.prepare(&ctx),
                    Err(CoreError::UnknownAttribute(a)) if a == "nonexistent"
                ),
                "engine {kind} did not reject at prepare"
            );
            assert!(
                matches!(q.execute(&ctx), Err(CoreError::UnknownAttribute(_))),
                "engine {kind} did not reject at execute"
            );
        }
    }

    #[test]
    fn limit_truncates_every_engine() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let query = MultiModelQuery::new(&["R"], &[]).unwrap();
        for kind in EngineKind::all() {
            let opts = ExecOptions {
                engine: kind,
                limit: Some(2),
                ..Default::default()
            };
            let out = execute(&ctx, &query, &opts).unwrap();
            assert_eq!(out.results.len(), 2, "engine {kind}");
        }
    }

    #[test]
    fn every_engine_reports_trie_build_cost() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let query = MultiModelQuery::new(&["R"], &["//line[/orderID][/price]"]).unwrap();
        for kind in EngineKind::all() {
            let out = execute(&ctx, &query, &ExecOptions::for_engine(kind)).unwrap();
            // One trie per lowered atom, and the build time is part of
            // (hence bounded by) the total elapsed time.
            assert_eq!(out.stats.tries_built, out.atom_sizes.len(), "{kind}");
            assert!(out.stats.build_elapsed <= out.stats.elapsed, "{kind}");
        }
    }

    #[test]
    fn builder_and_mmql_agree() {
        let from_text = QueryBuilder::mmql("Q(userID) :- R(orderID, userID), //line/orderID")
            .unwrap()
            .build()
            .unwrap();
        let built = QueryBuilder::new()
            .relation_as("R", &["orderID", "userID"])
            .twig("//line/orderID")
            .output(&["userID"])
            .build()
            .unwrap();
        assert_eq!(from_text.query, built.query);
    }

    #[test]
    fn builder_defers_twig_errors_to_build() {
        let err = QueryBuilder::new()
            .relation("R")
            .twig("//bad[") // syntax error
            .twig("//ok")
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::Twig(_)));
    }

    #[test]
    fn builder_rejects_empty_queries() {
        assert!(matches!(
            QueryBuilder::new().build(),
            Err(CoreError::EmptyQuery)
        ));
    }

    #[test]
    fn query_prepare_describes_without_running() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = QueryBuilder::mmql("Q(userID) :- R(orderID, userID), //line/orderID")
            .unwrap()
            .build()
            .unwrap();
        let plan = q.prepare(&ctx).unwrap();
        assert_eq!(plan.engine, EngineKind::XJoin);
        assert_eq!(plan.output, Some(vec![Attr::new("userID")]));
        assert!(plan.order.len() >= 3);
        assert!(!plan.atom_sizes.is_empty());
    }

    #[test]
    fn display_names_are_distinct() {
        let mut names: Vec<String> = EngineKind::all().iter().map(|k| k.to_string()).collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
