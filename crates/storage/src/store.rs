//! The versioned store: epoch-based snapshots over a multi-model database.
//!
//! A [`VersionedStore`] owns the current [`relational::Database`] and XML
//! document behind an [`Arc`]-swapped state. Writers ([`VersionedStore::update`],
//! [`VersionedStore::replace_document`]) clone the state, apply their
//! mutation (bumping relation versions through the catalog's own hooks, or
//! the document version here), and atomically swap the current pointer.
//! Readers take [`Snapshot`]s — cheap `Arc` clones that stay valid for as
//! long as they are held, so in-flight queries are never invalidated by
//! writes.
//!
//! Dictionary discipline: all snapshots along one store history share an
//! append-only [`Dict`]. Writers must only *intern* new values (which every
//! [`relational::Database::load`] / document build does); replacing the
//! dictionary wholesale would silently re-number values cached in tries.

use crate::cache::TrieRegistry;
use relational::{Database, Dict, Relation, Value, ValueId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use xjoin_core::DataContext;
use xmldb::{TagIndex, XmlDocument};

/// Process-wide store id source: cache keys carry the owning store's id so a
/// [`TrieRegistry`] shared between stores can never mix their tries (store
/// versions and dictionary-encoded values are only meaningful per store).
static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(1);

/// How many append batches a relation's delta log retains. Each segment
/// covers one version bump, so the log can overlay a cached base up to this
/// many versions behind the current one; older bases need a rebuild anyway
/// (their delta would rival the base). Truncation advances the purge floor
/// passed to [`TrieRegistry::purge_stale`].
const MAX_DELTA_SEGS: usize = 16;

/// One appended write batch: the rows added by the append that produced
/// `to_version` of its relation (sorted and deduped within the batch; rows
/// already present in the base may repeat here — union views and compaction
/// dedup them).
#[derive(Debug, Clone)]
struct DeltaSeg {
    to_version: u64,
    rows: Arc<Relation>,
}

/// Knobs for delta-trie maintenance on [`VersionedStore::append`] writes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaPolicy {
    /// Compaction trigger: once an overlay's `delta_tuples / base_tuples`
    /// exceeds this ratio, the first query to notice merges it into a fresh
    /// solid trie ([`relational::DeltaTrie::needs_compaction`]).
    pub compact_ratio: f64,
}

impl Default for DeltaPolicy {
    fn default() -> Self {
        DeltaPolicy {
            compact_ratio: 0.25,
        }
    }
}

/// The XML side of a store state: document, its tag index, and a version
/// bumped on every document replacement.
#[derive(Debug)]
struct XmlPart {
    doc: XmlDocument,
    index: TagIndex,
    version: u64,
}

/// One immutable state of the store. Relational writes clone the database
/// (cheap relative to serving, and only on the write path) but share the XML
/// part; document replacements do the reverse.
#[derive(Debug)]
struct StoreState {
    db: Database,
    xml: Arc<XmlPart>,
    /// Per-relation append logs, newest segment last. Carried copy-on-write
    /// with the state so snapshots see a log consistent with their relation
    /// versions; rewrites ([`VersionedStore::update`]) clear the affected
    /// relations' logs.
    deltas: BTreeMap<String, Vec<DeltaSeg>>,
}

/// A versioned multi-model store with copy-on-write snapshots and a shared
/// trie registry.
#[derive(Debug)]
pub struct VersionedStore {
    /// Unique (per process) store identity, embedded in trie cache keys.
    id: u64,
    /// The current state pointer. Held only for O(1) reads and swaps —
    /// snapshots never wait on a writer's clone.
    state: Mutex<Arc<StoreState>>,
    /// Serialises writers so clone-apply-swap sequences don't lose updates.
    write_lock: Mutex<()>,
    registry: Arc<TrieRegistry>,
    /// Delta-trie maintenance knobs, copied into every snapshot.
    delta_policy: Mutex<DeltaPolicy>,
}

impl VersionedStore {
    /// Creates a store over a database and a document (which must share the
    /// database's dictionary, as everywhere in this workspace), with an
    /// unbounded trie registry.
    pub fn new(db: Database, doc: XmlDocument) -> Self {
        Self::with_registry(db, doc, Arc::new(TrieRegistry::new()))
    }

    /// Creates a store whose cached tries are bounded by `budget` bytes.
    pub fn with_cache_budget(db: Database, doc: XmlDocument, budget: usize) -> Self {
        Self::with_registry(db, doc, Arc::new(TrieRegistry::with_budget(Some(budget))))
    }

    /// Creates a store sharing an externally owned trie registry (e.g. one
    /// registry across several stores).
    pub fn with_registry(db: Database, doc: XmlDocument, registry: Arc<TrieRegistry>) -> Self {
        let index = TagIndex::build(&doc);
        VersionedStore {
            id: NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed),
            state: Mutex::new(Arc::new(StoreState {
                db,
                xml: Arc::new(XmlPart {
                    doc,
                    index,
                    version: 1,
                }),
                deltas: BTreeMap::new(),
            })),
            write_lock: Mutex::new(()),
            registry,
            delta_policy: Mutex::new(DeltaPolicy::default()),
        }
    }

    fn current(&self) -> Arc<StoreState> {
        Arc::clone(&self.state.lock().unwrap_or_else(|e| e.into_inner()))
    }

    fn swap(&self, next: Arc<StoreState>) {
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = next;
    }

    /// The store's process-unique id (embedded in its trie cache keys).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Takes an immutable snapshot of the current state. O(1); holding it
    /// pins the state (and its memory) but never blocks writers — and
    /// writers never block it, even mid-clone.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            store_id: self.id,
            state: self.current(),
            registry: Arc::clone(&self.registry),
            delta_policy: self.delta_policy(),
        }
    }

    /// The shared trie registry (for cache statistics or pre-warming).
    pub fn registry(&self) -> &Arc<TrieRegistry> {
        &self.registry
    }

    /// The current delta-trie maintenance policy.
    pub fn delta_policy(&self) -> DeltaPolicy {
        *self.delta_policy.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Replaces the delta-trie maintenance policy. Takes effect for
    /// snapshots taken afterwards; in-flight snapshots keep the policy they
    /// were taken under.
    pub fn set_delta_policy(&self, policy: DeltaPolicy) {
        *self.delta_policy.lock().unwrap_or_else(|e| e.into_inner()) = policy;
    }

    /// Applies a relational write: `f` receives a private copy of the
    /// database, and the store atomically switches to it afterwards.
    /// Relation versions bump through [`Database::add_relation`] /
    /// [`Database::load`]; existing snapshots keep reading the old state.
    /// Writers are serialised against each other, but readers only wait for
    /// the O(1) pointer swap, never for the clone or `f`. Rewritten
    /// relations lose their append logs, and the registry's stale versions
    /// of them are purged (keeping overlay-referenced bases). Returns the
    /// new database epoch.
    pub fn update<R>(&self, f: impl FnOnce(&mut Database) -> R) -> (u64, R) {
        let _writer = self.write_lock.lock().unwrap_or_else(|e| e.into_inner());
        let base = self.current();
        let mut db = base.db.clone();
        let out = f(&mut db);
        debug_assert!(
            db.dict().len() >= base.db.dict().len(),
            "store dictionaries are append-only: replacing the dict re-numbers \
             values and invalidates every cached trie"
        );
        let epoch = db.epoch();
        // A rewrite invalidates a relation's append log: its new content is
        // not base + segments, so overlays must never bridge across it.
        let mut changed: Vec<(String, u64)> = Vec::new();
        for name in db.relation_names() {
            let v = db.relation_version(name).expect("name was just listed");
            if base.db.relation_version(name) != Some(v) {
                changed.push((name.to_owned(), v));
            }
        }
        let mut deltas = base.deltas.clone();
        for (name, _) in &changed {
            deltas.remove(name);
        }
        self.swap(Arc::new(StoreState {
            db,
            xml: Arc::clone(&base.xml),
            deltas,
        }));
        for (name, version) in &changed {
            self.registry.purge_stale(self.id, name, *version);
        }
        (epoch, out)
    }

    /// Appends `rows` to relation `name` (interning their values), bumping
    /// its version, and records the batch in the relation's delta log so
    /// cached tries of the previous versions can serve the new one as a
    /// base + delta overlay instead of missing. Returns the new relation
    /// version.
    ///
    /// The batch is deduplicated within itself but *not* against the stored
    /// relation — overlap is legal (union views and compaction collapse it),
    /// so append cost stays proportional to the batch. The full relation is
    /// still updated eagerly (snapshots must serve exact state); what the
    /// log saves is the per-query *trie rebuild*, not the relation merge.
    pub fn append<R, V>(&self, name: &str, rows: R) -> crate::error::Result<u64>
    where
        R: IntoIterator,
        R::Item: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        let _writer = self.write_lock.lock().unwrap_or_else(|e| e.into_inner());
        let base = self.current();
        let mut db = base.db.clone();
        let schema = db.relation(name)?.schema().clone();
        let mut batch = Relation::new(schema);
        let mut buf: Vec<ValueId> = Vec::new();
        for row in rows {
            buf.clear();
            buf.extend(row.into_iter().map(|v| db.dict_mut().intern(v.into())));
            batch.push(&buf)?;
        }
        batch.sort_dedup();
        let mut full = db.relation(name)?.clone();
        for row in batch.rows() {
            full.push(row)?;
        }
        full.sort_dedup();
        db.add_relation(name, full);
        let version = db.relation_version(name).expect("relation just added");

        let mut deltas = base.deltas.clone();
        let log = deltas.entry(name.to_owned()).or_default();
        log.push(DeltaSeg {
            to_version: version,
            rows: Arc::new(batch),
        });
        if log.len() > MAX_DELTA_SEGS {
            let drop = log.len() - MAX_DELTA_SEGS;
            log.drain(..drop);
        }
        // The log's oldest segment bridges `keep_from → keep_from + 1`:
        // cached entries below that floor can never be overlaid again.
        let keep_from = version - log.len() as u64;
        self.swap(Arc::new(StoreState {
            db,
            xml: Arc::clone(&base.xml),
            deltas,
        }));
        self.registry.purge_stale(self.id, name, keep_from);
        Ok(version)
    }

    /// Replaces the XML document: `build` constructs the new document
    /// against the store's dictionary (interning any new values), and the
    /// document version bumps. Returns the new document version.
    pub fn replace_document(&self, build: impl FnOnce(&mut Dict) -> XmlDocument) -> u64 {
        let _writer = self.write_lock.lock().unwrap_or_else(|e| e.into_inner());
        let base = self.current();
        let mut db = base.db.clone();
        let doc = build(db.dict_mut());
        debug_assert!(
            db.dict().len() >= base.db.dict().len(),
            "store dictionaries are append-only: replacing the dict re-numbers \
             values and invalidates every cached trie"
        );
        let index = TagIndex::build(&doc);
        let version = base.xml.version + 1;
        self.swap(Arc::new(StoreState {
            db,
            xml: Arc::new(XmlPart {
                doc,
                index,
                version,
            }),
            deltas: base.deltas.clone(),
        }));
        // Path tries of superseded documents can never be requested again.
        self.registry.purge_stale_paths(self.id, version);
        version
    }
}

/// An immutable view of one store state, shared by reference counting.
/// Queries run against a snapshot via [`Snapshot::ctx`]; the snapshot also
/// carries the registry so prepared queries resolve cached tries against the
/// right store.
#[derive(Debug, Clone)]
pub struct Snapshot {
    store_id: u64,
    state: Arc<StoreState>,
    registry: Arc<TrieRegistry>,
    delta_policy: DeltaPolicy,
}

impl Snapshot {
    /// The id of the store this snapshot was taken from.
    pub fn store_id(&self) -> u64 {
        self.store_id
    }

    /// The query context over this snapshot's database and document.
    pub fn ctx(&self) -> DataContext<'_> {
        DataContext::new(&self.state.db, &self.state.xml.doc, &self.state.xml.index)
    }

    /// The snapshot's database.
    pub fn db(&self) -> &Database {
        &self.state.db
    }

    /// The snapshot's XML document.
    pub fn doc(&self) -> &XmlDocument {
        &self.state.xml.doc
    }

    /// The database epoch this snapshot was taken at.
    pub fn epoch(&self) -> u64 {
        self.state.db.epoch()
    }

    /// The version of the XML document (bumped per
    /// [`VersionedStore::replace_document`]).
    pub fn doc_version(&self) -> u64 {
        self.state.xml.version
    }

    /// The version of a named relation, if registered.
    pub fn relation_version(&self, name: &str) -> Option<u64> {
        self.state.db.relation_version(name)
    }

    /// The registry serving this snapshot's cached tries.
    pub fn registry(&self) -> &Arc<TrieRegistry> {
        &self.registry
    }

    /// The delta-trie policy in force when this snapshot was taken.
    pub fn delta_policy(&self) -> DeltaPolicy {
        self.delta_policy
    }

    /// The appended row batches that turn version `from` of relation `name`
    /// into version `to`, oldest first — `None` unless this snapshot's delta
    /// log contiguously covers every version bump in `(from, to]` (a rewrite
    /// in between, or log truncation, breaks coverage and forces a rebuild).
    pub fn delta_rows(&self, name: &str, from: u64, to: u64) -> Option<Vec<Arc<Relation>>> {
        if from >= to {
            return None;
        }
        let log = self.state.deltas.get(name)?;
        let need = (to - from) as usize;
        let segs: Vec<&DeltaSeg> = log
            .iter()
            .filter(|s| s.to_version > from && s.to_version <= to)
            .collect();
        if segs.len() != need {
            return None;
        }
        for (i, s) in segs.iter().enumerate() {
            if s.to_version != from + 1 + i as u64 {
                return None;
            }
        }
        Some(segs.iter().map(|s| Arc::clone(&s.rows)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::{Schema, Value};

    fn store() -> VersionedStore {
        let mut db = Database::new();
        db.load(
            "R",
            Schema::of(&["x", "y"]),
            vec![vec![Value::Int(1), Value::Int(2)]],
        )
        .unwrap();
        let mut dict = db.dict().clone();
        let mut b = XmlDocument::builder();
        b.begin("root");
        b.leaf("x", 1i64);
        b.end();
        let doc = b.build(&mut dict);
        *db.dict_mut() = dict;
        VersionedStore::new(db, doc)
    }

    #[test]
    fn snapshots_are_isolated_from_writes() {
        let s = store();
        let before = s.snapshot();
        let (epoch, ()) = s.update(|db| {
            db.load(
                "R",
                Schema::of(&["x", "y"]),
                vec![
                    vec![Value::Int(1), Value::Int(2)],
                    vec![Value::Int(3), Value::Int(4)],
                ],
            )
            .unwrap();
        });
        let after = s.snapshot();
        assert_eq!(before.db().relation("R").unwrap().len(), 1);
        assert_eq!(after.db().relation("R").unwrap().len(), 2);
        assert!(after.epoch() > before.epoch());
        assert_eq!(after.epoch(), epoch);
        assert_eq!(
            after.relation_version("R"),
            before.relation_version("R").map(|v| v + 1)
        );
        // The XML side is shared untouched.
        assert_eq!(before.doc_version(), after.doc_version());
    }

    #[test]
    fn replace_document_bumps_doc_version_only() {
        let s = store();
        let before = s.snapshot();
        let v = s.replace_document(|dict| {
            let mut b = XmlDocument::builder();
            b.begin("root");
            b.leaf("x", 99i64);
            b.end();
            b.build(dict)
        });
        let after = s.snapshot();
        assert_eq!(v, before.doc_version() + 1);
        assert_eq!(after.doc_version(), v);
        assert_eq!(after.relation_version("R"), before.relation_version("R"));
        assert_eq!(before.doc().len(), after.doc().len());
    }

    #[test]
    fn append_bumps_version_and_logs_the_batch() {
        let s = store();
        let v1 = s.snapshot().relation_version("R").unwrap();
        let v2 = s
            .append("R", vec![vec![Value::Int(3), Value::Int(4)]])
            .unwrap();
        assert_eq!(v2, v1 + 1);
        let snap = s.snapshot();
        assert_eq!(snap.db().relation("R").unwrap().len(), 2);
        // The log covers v1 → v2 with exactly the appended batch.
        let segs = snap.delta_rows("R", v1, v2).expect("covered");
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].len(), 1);
        // Batches dedup within themselves; overlap with the base is kept.
        let v3 = s
            .append(
                "R",
                vec![
                    vec![Value::Int(1), Value::Int(2)], // already stored
                    vec![Value::Int(5), Value::Int(6)],
                    vec![Value::Int(5), Value::Int(6)], // in-batch duplicate
                ],
            )
            .unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.db().relation("R").unwrap().len(), 3);
        let segs = snap.delta_rows("R", v1, v3).expect("two-segment cover");
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[1].len(), 2, "batch deduped to two distinct rows");
        // Requests the log cannot bridge report no coverage.
        assert!(snap.delta_rows("R", v1, v3 + 1).is_none());
        assert!(snap.delta_rows("R", v3, v3).is_none());
        assert!(snap.delta_rows("S", v1, v3).is_none());
    }

    #[test]
    fn append_to_unknown_relation_fails_cleanly() {
        let s = store();
        let before = s.snapshot();
        assert!(s.append("nope", vec![vec![Value::Int(1)]]).is_err());
        // Arity mismatches fail before any state is swapped in.
        assert!(s.append("R", vec![vec![Value::Int(1)]]).is_err());
        let after = s.snapshot();
        assert_eq!(before.epoch(), after.epoch());
        assert_eq!(before.relation_version("R"), after.relation_version("R"));
    }

    #[test]
    fn rewrites_clear_the_delta_log() {
        let s = store();
        let v1 = s.snapshot().relation_version("R").unwrap();
        let v2 = s
            .append("R", vec![vec![Value::Int(3), Value::Int(4)]])
            .unwrap();
        assert!(s.snapshot().delta_rows("R", v1, v2).is_some());
        s.update(|db| {
            db.load(
                "R",
                Schema::of(&["x", "y"]),
                vec![vec![Value::Int(9), Value::Int(9)]],
            )
            .unwrap();
        });
        let v3 = s.snapshot().relation_version("R").unwrap();
        assert!(s.snapshot().delta_rows("R", v1, v2).is_none());
        assert!(s.snapshot().delta_rows("R", v2, v3).is_none());
        // Appends after the rewrite restart the log from the new base.
        let v4 = s
            .append("R", vec![vec![Value::Int(7), Value::Int(7)]])
            .unwrap();
        assert!(s.snapshot().delta_rows("R", v3, v4).is_some());
    }

    #[test]
    fn delta_log_truncates_to_its_cap() {
        let s = store();
        let v0 = s.snapshot().relation_version("R").unwrap();
        let mut last = v0;
        for i in 0..(super::MAX_DELTA_SEGS as i64 + 4) {
            last = s
                .append("R", vec![vec![Value::Int(100 + i), Value::Int(i)]])
                .unwrap();
        }
        let snap = s.snapshot();
        // The oldest coverable base is `last - MAX_DELTA_SEGS`.
        let floor = last - super::MAX_DELTA_SEGS as u64;
        assert!(snap.delta_rows("R", floor, last).is_some());
        assert!(snap.delta_rows("R", floor - 1, last).is_none());
        assert!(snap.delta_rows("R", v0, last).is_none());
    }

    #[test]
    fn delta_policy_is_snapshotted() {
        let s = store();
        assert_eq!(s.delta_policy(), DeltaPolicy::default());
        let old = s.snapshot();
        s.set_delta_policy(DeltaPolicy { compact_ratio: 1.5 });
        assert_eq!(
            old.delta_policy(),
            DeltaPolicy::default(),
            "snapshots pin their policy"
        );
        let new = s.snapshot();
        assert!((new.delta_policy().compact_ratio - 1.5).abs() < 1e-9);
    }

    #[test]
    fn ctx_serves_queries_against_the_snapshot() {
        let s = store();
        let snap = s.snapshot();
        let q = xjoin_core::MultiModelQuery::new(&["R"], &["//root/x"]).unwrap();
        let out = xjoin_core::xjoin(&snap.ctx(), &q, &Default::default()).unwrap();
        assert_eq!(out.results.len(), 1);
    }
}
