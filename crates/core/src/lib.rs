//! **XJoin** — worst-case optimal joins on relational and XML data.
//!
//! This crate is the paper's primary contribution: a multi-model join that
//! treats relational tables and XML twig patterns *as a whole*, guaranteeing
//! that every intermediate result respects the AGM bound of the combined
//! query (Lemma 3.5 of the paper), instead of combining per-model answers
//! whose intermediate sizes are only bounded per model.
//!
//! * [`query`] — multi-model queries ([`MultiModelQuery`]) over a
//!   [`DataContext`] (relational [`relational::Database`] + XML document);
//! * [`atoms`] — lowering: `S ← Sr ∪ transform(Sx)` (twig path relations);
//! * [`order`] — the attribute priority `PA` (Algorithm 1's input);
//! * [`engine`] — [`engine::xjoin`], Algorithm 1, with the paper's on-going
//!   work (A-D filtering, partial structure validation) as options;
//! * [`mod@baseline`] — the paper's comparison point: per-model evaluation
//!   (hash joins / LFTJ for `Q1`, TwigStack for `Q2`) followed by a
//!   cross-model join;
//! * [`bounds`] — Lemma 3.1/3.5 instantiated: AGM bounds for the mixed
//!   query and all its prefixes;
//! * [`validate`] — the final (and partial) twig-structure validation;
//! * [`mod@stream`] — the pull-based [`Rows`] iterator: depth-first (LFTJ-style)
//!   enumeration without materialised intermediates, with `LIMIT` pushdown;
//! * [`exec`] — **the unified execution API**: the four engines that run
//!   from a trie plan (level-wise XJoin, streaming XJoin, LFTJ, generic)
//!   behind the [`execute`] / [`stream()`] functions, selected by
//!   [`EngineKind`], configured by [`ExecOptions`], built via
//!   [`QueryBuilder`], returning one [`QueryOutput`];
//! * [`mmql`] — a datalog-style surface syntax
//!   (`Q(x,y) :- R(x,y), //twig`), with constants and intra-atom equalities;
//! * [`mod@explain`] — `EXPLAIN`: lowered atoms, chosen order, per-prefix bounds.
//!
//! ```
//! use relational::{Database, Schema, Value};
//! use xmldb::{parse_xml, TagIndex};
//! use xjoin_core::{DataContext, QueryBuilder};
//!
//! let mut db = Database::new();
//! db.load("orders", Schema::of(&["orderID", "userID"]), vec![
//!     vec![Value::Int(10963), Value::str("jack")],
//! ]).unwrap();
//! let mut dict = db.dict().clone();
//! let doc = parse_xml(
//!     "<invoices><orderLine><orderID>10963</orderID><price>30</price></orderLine></invoices>",
//!     &mut dict,
//! ).unwrap();
//! *db.dict_mut() = dict;
//! let index = TagIndex::build(&doc);
//! let ctx = DataContext::new(&db, &doc, &index);
//! let query = QueryBuilder::mmql(
//!     "Q(userID, price) :- orders(orderID, userID), //orderLine[/orderID][/price]",
//! ).unwrap().build().unwrap();
//! let out = query.execute(&ctx).unwrap();
//! assert_eq!(out.results.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod atoms;
pub mod baseline;
pub mod bounds;
pub mod engine;
pub mod error;
pub mod exec;
pub mod explain;
pub mod mmql;
pub mod order;
pub mod query;
pub mod stream;
pub mod validate;

pub use atoms::{collect_atoms, AtomRel, Atoms};
pub use baseline::{baseline, BaselineConfig, RelAlg, XmlAlg};
pub use bounds::{mixed_hypergraph, prefix_bounds, query_bound, query_exponent, query_log_bound};
pub use engine::{lower, xjoin, xjoin_with_plan, XJoinConfig};
pub use error::{CoreError, Result};
pub use exec::{
    execute, execute_with_plan, stream, validate_output, EngineKind, ExecOptions, ExecPlan, Query,
    QueryBuilder, QueryOutput,
};
pub use explain::{
    explain, explain_analyze, AdaptiveAnalysis, AnalyzeReport, Explanation, LevelAnalysis,
    TrieBuildProfile,
};
pub use mmql::{parse_query, parse_query_with_options};
pub use order::{compute_order, OrderStrategy};
pub use query::{
    all_variables, variables_of, DataContext, MultiModelQuery, RelAtom, ResolvedAtom, Term,
};
pub use relational::Ladder;
pub use stream::{stream_with_plan, xjoin_rows, Rows, RowsStats};
pub use validate::TwigValidator;
