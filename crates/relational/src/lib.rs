//! Relational substrate for the XJoin reproduction.
//!
//! This crate implements everything a worst-case optimal join engine needs on
//! the relational side, from scratch:
//!
//! * dictionary-encoded [`value::Value`]s and [`value::Dict`];
//! * [`schema::Schema`]s and in-memory [`relation::Relation`]s;
//! * flat sorted [`trie::Trie`]s and the [`leapfrog`] core — one cursor
//!   contract and one batched rotation;
//! * two worst-case optimal engines over that core — the streaming [`lftj`]
//!   (Leapfrog Triejoin, Veldhuizen 2012) and the instrumented level-wise
//!   [`generic`] join (Ngo et al. 2012), whose per-level intermediate
//!   counts are the quantity the paper's Lemma 3.5 bounds;
//! * the classical pairwise [`hashjoin`] comparator;
//! * a [`catalog`] and synthetic [`generator`]s (including AGM-tight product
//!   instances per the paper's Lemma 3.2).
//!
//! The XML substrate (`xmldb`) lowers twig patterns onto the same tries, so
//! the multi-model engine (`xjoin-core`) joins both data models with one
//! kernel.

#![warn(missing_docs)]

pub mod catalog;
pub mod delta;
pub mod error;
pub mod generator;
pub mod generic;
pub mod hashjoin;
pub mod leapfrog;
pub mod lftj;
pub mod plan;
pub mod relation;
pub mod schema;
pub mod stats;
pub mod text;
pub mod trie;
pub mod value;

pub use catalog::Database;
pub use delta::DeltaTrie;
pub use error::{RelError, Result};
pub use leapfrog::{block_seek, gallop};
pub use lftj::{LftjWalk, WalkCounters};
pub use plan::{JoinPlan, Ladder};
pub use relation::Relation;
pub use schema::{Attr, Schema};
pub use stats::{BuildStats, JoinStats, LevelProbeStats, SortPath};
pub use trie::{LevelLayout, LevelSummary, Trie, TrieBuilder};
pub use value::{Dict, Value, ValueId};
