//! **xjoin-store** — versioned storage & serving for the multi-model join.
//!
//! The engine crates (`relational`, `xmldb`, `xjoin-core`) evaluate one
//! query over one in-memory state, rebuilding every trie from scratch. This
//! crate turns that library into a serving layer for repeated, concurrent
//! workloads:
//!
//! * [`store`] — a [`VersionedStore`] wrapping the multi-model database
//!   with epoch-based copy-on-write snapshots: writers swap in new state,
//!   readers hold immutable [`Snapshot`]s that are never invalidated;
//! * [`cache`] — a [`TrieRegistry`]: built tries behind `Arc`, keyed
//!   name-free by `(store, content, version, column permutation)` so every
//!   α-renaming of an atom shares one entry, with an LRU byte budget and
//!   hit/miss/eviction counters. One cache serves the depth-first walk and
//!   the level-wise XJoin — XML path relations (lowered via
//!   `xmldb::transform`) included;
//! * [`prepared`] — [`PreparedQuery`]: parse/validate/order a
//!   [`xjoin_core::MultiModelQuery`] once (with its pinned
//!   [`xjoin_core::ExecOptions`] — any engine kind), pin its
//!   trie keys, and re-execute cheaply against any snapshot (a fully warm
//!   execution builds zero tries), materialised or as pull-based
//!   [`xjoin_core::Rows`];
//! * [`service`] — [`QueryService`]: a std-only worker pool executing
//!   prepared queries across snapshots in parallel, returning per-query
//!   [`relational::JoinStats`].
//!
//! ```
//! use relational::{Database, Schema, Value};
//! use xjoin_core::{ExecOptions, MultiModelQuery};
//! use xjoin_store::{PreparedQuery, VersionedStore};
//! use xmldb::XmlDocument;
//!
//! let mut db = Database::new();
//! db.load("orders", Schema::of(&["orderID", "userID"]), vec![
//!     vec![Value::Int(10963), Value::str("jack")],
//! ]).unwrap();
//! let mut dict = db.dict().clone();
//! let mut b = XmlDocument::builder();
//! b.begin("invoices");
//! b.begin("orderLine");
//! b.leaf("orderID", 10963i64);
//! b.leaf("price", 30i64);
//! b.end();
//! b.end();
//! let doc = b.build(&mut dict);
//! *db.dict_mut() = dict;
//!
//! let store = VersionedStore::new(db, doc);
//! let snap = store.snapshot();
//! let query = MultiModelQuery::new(&["orders"], &["//orderLine[/orderID][/price]"])
//!     .unwrap()
//!     .with_output(&["userID", "price"]);
//! let prepared = PreparedQuery::prepare(&snap, &query, ExecOptions::default()).unwrap();
//! let cold = prepared.execute(&snap).unwrap();   // builds + caches tries
//! let warm = prepared.execute(&snap).unwrap();   // zero trie builds
//! assert!(warm.results.set_eq(&cold.results));
//! assert!(store.registry().stats().hits > 0);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod prepared;
pub mod service;
pub mod store;

pub use cache::{CacheStats, CachedTrie, TrieKey, TrieRegistry};
pub use error::{Result, StoreError};
pub use prepared::PreparedQuery;
pub use service::{QueryService, Ticket};
pub use store::{DeltaPolicy, Snapshot, VersionedStore};
