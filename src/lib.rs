//! # xjoin-repro — Worst-Case Optimal Joins on Relational and XML Data
//!
//! A from-scratch reproduction of Yuxing Chen's SIGMOD 2018 paper: a
//! multi-model join engine (**XJoin**) that evaluates queries spanning
//! relational tables and XML twig patterns with worst-case optimal
//! intermediate results, together with every substrate it needs:
//!
//! * [`relational`] — dictionary-encoded relations, sorted tries, leapfrog
//!   intersection, LFTJ, a level-wise generic worst-case optimal join, and a
//!   classical hash-join engine;
//! * [`xmldb`] — an XML document model with region encoding, a parser, twig
//!   patterns, structural joins (stack-tree), holistic twig joins
//!   (TwigStack), and the paper's twig → path-relation transformation;
//! * [`agm`] — a simplex LP solver with fractional edge cover / vertex
//!   packing, computing the paper's size bounds;
//! * [`xjoin_core`] — the paper's contribution: the XJoin engine, the
//!   per-model baseline it is compared against, Lemma 3.1/3.5 bound
//!   checks, and the unified execution API (`Engine` / `EngineKind` /
//!   `QueryBuilder` / pull-based `Rows`) every engine sits behind;
//! * [`xjoin_store`] — the serving layer: a versioned store with immutable
//!   snapshots, a shared LRU trie cache, prepared queries, and a concurrent
//!   query service;
//! * [`xjoin_serve`] — the networked front end: a length-prefixed wire
//!   protocol over TCP, a server-side prepared-statement cache, per-request
//!   deadlines and row budgets, and AGM-based admission control.
//!
//! See `examples/quickstart.rs` for a three-minute tour,
//! `examples/query_server.rs` for the networked serving layer,
//! `examples/synthetic_worstcase.rs` for the paper's Figure 3 series, and
//! `xjbench/` for every performance number.

pub use agm;
pub use relational;
pub use xjoin_core;
pub use xjoin_serve;
pub use xjoin_store;
pub use xmldb;
