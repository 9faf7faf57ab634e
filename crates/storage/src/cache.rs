//! The trie registry: a shared, byte-budgeted LRU cache of built tries.
//!
//! Building a trie is the dominant per-query cost on repeated workloads —
//! every engine in the workspace (LFTJ, the level-wise generic join,
//! streaming XJoin, and the level-wise XJoin engine) consumes the same flat
//! sorted [`Trie`] representation, so one cache serves them all. Entries are
//! keyed by [`TrieKey`]: *what* the trie was built from (a relation name or
//! a derived-atom fingerprint), *which version* of it, and *under which
//! attribute order* it was leveled. Storage versioning guarantees that a key
//! never maps to two different tries; superseded versions are invalidated
//! eagerly by [`TrieRegistry::purge_stale`] (called from the store's write
//! path) and anything that escapes the purge ages out of the LRU.
//!
//! An entry is either a [`CachedTrie::Solid`] trie or a
//! [`CachedTrie::Layered`] overlay — an immutable base plus small sorted
//! delta runs ([`DeltaTrie`]). Overlays are how an appended-to relation's
//! *new* version resolves without a full rebuild: every engine unions the
//! layers lazily, and once the deltas outgrow the store's
//! compaction ratio the overlay is merged and swapped for a solid entry via
//! [`TrieRegistry::replace_with_solid`].
//!
//! Budget discipline: resident bytes never exceed the configured budget. A
//! build larger than the whole budget is *served but not cached* (counted in
//! [`CacheStats::oversized`]), and eviction removes least-recently-used
//! entries — never the entry the current operation is inserting — until the
//! budget is respected.

use crate::error::StoreError;
use relational::{Attr, DeltaTrie, Trie};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Identity of a cached trie: owning store, source, version, and level
/// order.
///
/// * base relations use their catalog name, versioned by
///   [`relational::Database::relation_version`];
/// * derived relational atoms (positional renames, constant selections) use
///   a fingerprint of the atom's terms, versioned by the base relation;
/// * twig path relations use [`xmldb::path_fingerprint`], versioned by the
///   document (see [`crate::Snapshot::doc_version`]).
///
/// Versions are only comparable within one store's history (every fresh
/// store starts at version 1, and [`relational::ValueId`]s are relative to
/// its dictionary), so the key also carries the process-unique id of the
/// owning [`crate::VersionedStore`] — a registry shared between stores can
/// never serve one store's trie to another.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TrieKey {
    /// Process-unique id of the store the trie belongs to.
    pub store: u64,
    /// Content identity of the relation the trie was built from.
    pub source: String,
    /// Version of that content (relation version or document version).
    pub version: u64,
    /// The trie's level order (the restriction of a global variable order to
    /// the source's attributes).
    pub order: Vec<Attr>,
}

/// What a registry entry resolves to: a solid trie, or a layered overlay
/// (base + sorted delta runs) that every engine unions lazily.
#[derive(Debug, Clone)]
pub enum CachedTrie {
    /// A fully merged trie.
    Solid(Arc<Trie>),
    /// An immutable base overlaid with delta runs, planned as base + runs.
    Layered(Arc<DeltaTrie>),
}

impl CachedTrie {
    /// The solid trie, if this entry is one.
    pub fn as_solid(&self) -> Option<&Arc<Trie>> {
        match self {
            CachedTrie::Solid(t) => Some(t),
            CachedTrie::Layered(_) => None,
        }
    }
}

/// A point-in-time view of the registry's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that had to build a trie.
    pub misses: u64,
    /// Trie builds actually executed. Usually equals `misses`; it can exceed
    /// them when concurrent misses on one key race (the losing build is
    /// dropped but its cost was still paid, so it is still counted here).
    pub builds: u64,
    /// Total wall-clock time spent inside build closures — the cold
    /// trie-construction cost this cache has absorbed. Together with
    /// `hits`/`misses` this lets serving layers report build vs probe time.
    pub build_time: Duration,
    /// Entries dropped to respect the byte budget.
    pub evictions: u64,
    /// Builds served uncached because they alone exceed the whole budget.
    pub oversized: u64,
    /// Layered (base + delta) entries installed.
    pub overlays: u64,
    /// Layered entries merged and replaced by a solid trie.
    pub compactions: u64,
    /// Stale-version entries removed by the purge hooks.
    pub purged: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Estimated bytes currently charged against the budget.
    pub bytes_in_use: usize,
    /// The configured byte budget (`None` = unbounded).
    pub budget: Option<usize>,
}

struct Entry {
    cached: CachedTrie,
    bytes: usize,
    last_used: u64,
    /// For layered entries: the version of the solid base entry (same
    /// store/source/order) the overlay's runs sit on. [`Inner::purge`]
    /// keeps that superseded base resident while the overlay lives.
    base_version: Option<u64>,
}

struct Inner {
    map: HashMap<TrieKey, Entry>,
    /// Recency index: `last_used` tick → key. Ticks are unique (one
    /// monotonic counter), so the map's ascending order *is* the LRU order
    /// and eviction pops the oldest tick in O(log n) instead of scanning
    /// every entry.
    lru: BTreeMap<u64, TrieKey>,
    /// Monotonic use counter backing the LRU order.
    tick: u64,
    bytes_in_use: usize,
    budget: Option<usize>,
    hits: u64,
    misses: u64,
    builds: u64,
    build_time: Duration,
    evictions: u64,
    oversized: u64,
    overlays: u64,
    compactions: u64,
    purged: u64,
}

impl Inner {
    /// Refreshes `key`'s recency and returns a clone of its entry.
    fn touch(&mut self, key: &TrieKey) -> Option<CachedTrie> {
        self.tick += 1;
        let tick = self.tick;
        let e = self.map.get_mut(key)?;
        let prev = e.last_used;
        e.last_used = tick;
        let cached = e.cached.clone();
        self.lru.remove(&prev);
        self.lru.insert(tick, key.clone());
        Some(cached)
    }

    /// Removes `key` (map, LRU index, byte accounting). Returns whether an
    /// entry was resident.
    fn remove_entry(&mut self, key: &TrieKey) -> bool {
        if let Some(e) = self.map.remove(key) {
            self.lru.remove(&e.last_used);
            self.bytes_in_use -= e.bytes;
            true
        } else {
            false
        }
    }

    /// Installs (or replaces) `key`'s entry and charges its bytes.
    fn insert_entry(
        &mut self,
        key: TrieKey,
        cached: CachedTrie,
        bytes: usize,
        base_version: Option<u64>,
    ) {
        self.remove_entry(&key);
        self.tick += 1;
        let tick = self.tick;
        self.lru.insert(tick, key.clone());
        self.map.insert(
            key,
            Entry {
                cached,
                bytes,
                last_used: tick,
                base_version,
            },
        );
        self.bytes_in_use += bytes;
    }

    /// Whether an entry of `bytes` may be charged at all: anything larger
    /// than the whole budget is refused (served uncached by the caller).
    fn admissible(&self, bytes: usize) -> bool {
        self.budget.is_none_or(|b| bytes <= b)
    }

    /// Evicts least-recently-used entries (never `protect`) until the budget
    /// is respected. Because inserts refuse anything larger than the whole
    /// budget, this always terminates with `bytes_in_use <= budget` — at
    /// worst only the protected entry remains.
    fn evict_to_budget(&mut self, protect: &TrieKey) {
        let Some(budget) = self.budget else { return };
        while self.bytes_in_use > budget {
            // Ascending tick order is LRU order; the protected key is
            // skipped at most once, so each round is O(log n).
            let victim = self.lru.values().find(|k| *k != protect).cloned();
            let Some(victim) = victim else { break };
            self.remove_entry(&victim);
            self.evictions += 1;
            xjoin_obs::instant("trie-cache-evict");
        }
    }

    /// Removes entries of `store` matching `matches(source)` with a version
    /// below `keep_from`, except superseded bases still referenced by a live
    /// (version `>= keep_from`) layered overlay. Returns the purge count.
    fn purge(&mut self, store: u64, keep_from: u64, matches: impl Fn(&str) -> bool) -> usize {
        let protected: Vec<(String, u64, Vec<Attr>)> = self
            .map
            .iter()
            .filter(|(k, e)| {
                k.store == store
                    && k.version >= keep_from
                    && e.base_version.is_some()
                    && matches(&k.source)
            })
            .map(|(k, e)| {
                (
                    k.source.clone(),
                    e.base_version.expect("filtered on base_version"),
                    k.order.clone(),
                )
            })
            .collect();
        let victims: Vec<TrieKey> = self
            .map
            .keys()
            .filter(|k| {
                k.store == store
                    && k.version < keep_from
                    && matches(&k.source)
                    && !protected
                        .iter()
                        .any(|(s, v, o)| *s == k.source && *v == k.version && *o == k.order)
            })
            .cloned()
            .collect();
        let n = victims.len();
        for k in &victims {
            self.remove_entry(k);
        }
        self.purged += n as u64;
        n
    }
}

/// A thread-safe trie cache with an LRU byte budget and hit/miss/eviction
/// counters. Shared via [`Arc`] between the store, its snapshots, and the
/// query service's workers.
pub struct TrieRegistry {
    inner: Mutex<Inner>,
}

impl TrieRegistry {
    /// An unbounded registry (entries are never evicted).
    pub fn new() -> Self {
        Self::with_budget(None)
    }

    /// A registry evicting least-recently-used tries once the estimated
    /// resident bytes exceed `budget` (`None` = unbounded). Resident bytes
    /// never exceed the budget: a build larger than the whole budget is
    /// served to the caller but not cached (see [`CacheStats::oversized`]).
    pub fn with_budget(budget: Option<usize>) -> Self {
        TrieRegistry {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                lru: BTreeMap::new(),
                tick: 0,
                bytes_in_use: 0,
                budget,
                hits: 0,
                misses: 0,
                builds: 0,
                build_time: Duration::ZERO,
                evictions: 0,
                oversized: 0,
                overlays: 0,
                compactions: 0,
                purged: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Peeks for a cached **solid** trie, counting a hit (and refreshing
    /// recency) when found. A resident layered overlay refreshes recency but
    /// reports `None` — callers that can consume overlays use
    /// [`TrieRegistry::lookup_cached`]. A miss is *not* counted — only
    /// [`TrieRegistry::get_or_build`] records misses, so peek-then-build
    /// call sites count each request once.
    pub fn lookup(&self, key: &TrieKey) -> Option<Arc<Trie>> {
        let mut g = self.lock();
        match g.touch(key) {
            Some(CachedTrie::Solid(t)) => {
                g.hits += 1;
                xjoin_obs::instant("trie-cache-hit");
                Some(t)
            }
            _ => None,
        }
    }

    /// Peeks for a cached entry of either kind, counting a hit (and
    /// refreshing recency) when found. Misses are not counted, exactly as
    /// for [`TrieRegistry::lookup`].
    pub fn lookup_cached(&self, key: &TrieKey) -> Option<CachedTrie> {
        let mut g = self.lock();
        let hit = g.touch(key)?;
        g.hits += 1;
        xjoin_obs::instant("trie-cache-hit");
        Some(hit)
    }

    /// Returns the cached solid trie for `key`, building (and caching) it
    /// with `build` on a miss. The lock is released while building, so
    /// concurrent misses on the same key may build twice; the first insert
    /// wins and the duplicate is dropped. A resident layered overlay counts
    /// as a miss here (the caller needs a solid trie) and is replaced by the
    /// built result.
    pub fn get_or_build(
        &self,
        key: &TrieKey,
        build: impl FnOnce() -> relational::Result<Trie>,
    ) -> Result<Arc<Trie>, StoreError> {
        {
            let mut g = self.lock();
            if let Some(CachedTrie::Solid(t)) = g.touch(key) {
                g.hits += 1;
                xjoin_obs::instant("trie-cache-hit");
                return Ok(t);
            }
            g.misses += 1;
        }
        xjoin_obs::instant("trie-cache-miss");
        let build_start = Instant::now();
        let built = build();
        let build_elapsed = build_start.elapsed();
        {
            // The build ran (even if it errored or loses the insert race
            // below); its cost was paid, so it is accounted either way.
            let mut g = self.lock();
            g.builds += 1;
            g.build_time += build_elapsed;
        }
        let trie = Arc::new(built?);
        let bytes = trie.estimated_bytes();
        let mut g = self.lock();
        if let Some(CachedTrie::Solid(t)) = g.touch(key) {
            // Lost a build race; serve the resident entry.
            return Ok(t);
        }
        if !g.admissible(bytes) {
            g.oversized += 1;
            xjoin_obs::instant("trie-cache-oversized");
            return Ok(trie);
        }
        g.insert_entry(
            key.clone(),
            CachedTrie::Solid(Arc::clone(&trie)),
            bytes,
            None,
        );
        g.evict_to_budget(key);
        Ok(trie)
    }

    /// Installs a layered overlay at `key`, replacing any resident entry.
    /// Only the overlay's delta runs are charged against the budget — the
    /// base is charged by its own solid entry at `base_version`, which the
    /// purge hooks keep resident while the overlay lives. Returns `false`
    /// (entry not cached) when the runs alone exceed the whole budget.
    pub fn insert_layered(&self, key: &TrieKey, delta: Arc<DeltaTrie>, base_version: u64) -> bool {
        let bytes = delta.delta_bytes();
        let mut g = self.lock();
        if !g.admissible(bytes) {
            g.oversized += 1;
            xjoin_obs::instant("trie-cache-oversized");
            return false;
        }
        g.insert_entry(
            key.clone(),
            CachedTrie::Layered(delta),
            bytes,
            Some(base_version),
        );
        g.overlays += 1;
        g.evict_to_budget(key);
        true
    }

    /// Replaces `key`'s entry (typically a layered overlay that hit its
    /// compaction ratio) with a solid trie. When the solid trie alone
    /// exceeds the whole budget the entry is dropped instead and the caller
    /// keeps serving its own copy uncached.
    pub fn replace_with_solid(&self, key: &TrieKey, trie: Arc<Trie>) {
        let bytes = trie.estimated_bytes();
        let mut g = self.lock();
        g.compactions += 1;
        if !g.admissible(bytes) {
            g.oversized += 1;
            xjoin_obs::instant("trie-cache-oversized");
            g.remove_entry(key);
            return;
        }
        g.insert_entry(key.clone(), CachedTrie::Solid(trie), bytes, None);
        g.evict_to_budget(key);
    }

    /// Finds the newest resident **solid** trie for `(store, source, order)`
    /// with a version strictly below `below` — the base candidate for a
    /// delta overlay after a write. Refreshes the base's recency (it is
    /// about to be referenced) without touching the hit counters; the
    /// request being resolved was already counted at its own key. O(n) in
    /// resident entries, paid once per first-query-after-write.
    pub fn find_base(
        &self,
        store: u64,
        source: &str,
        order: &[Attr],
        below: u64,
    ) -> Option<(u64, Arc<Trie>)> {
        let mut g = self.lock();
        let (key, trie) = g
            .map
            .iter()
            .filter(|(k, _)| {
                k.store == store && k.version < below && k.source == source && k.order == order
            })
            .filter_map(|(k, e)| e.cached.as_solid().map(|t| (k, t)))
            .max_by_key(|(k, _)| k.version)
            .map(|(k, t)| (k.clone(), Arc::clone(t)))?;
        let version = key.version;
        g.touch(&key);
        Some((version, trie))
    }

    /// Invalidates stale versions of relation `name` in `store`: every
    /// `rel:{name}` / `atom:{name}(…)` entry with a version below
    /// `keep_from` is removed, **except** superseded bases still referenced
    /// by a live layered overlay (same source/order, overlay version `>=
    /// keep_from`). The store's write path calls this; `keep_from` is the
    /// oldest version its delta log can still overlay (or the current
    /// version for rewrites, which keep no log). Returns the purge count.
    pub fn purge_stale(&self, store: u64, name: &str, keep_from: u64) -> usize {
        let rel_source = format!("rel:{name}");
        let atom_prefix = format!("atom:{name}(");
        self.lock().purge(store, keep_from, |source| {
            source == rel_source || source.starts_with(&atom_prefix)
        })
    }

    /// Invalidates stale document versions in `store`: every `path:…` entry
    /// with a version below `current_version` is removed (document
    /// replacement keeps no delta log, so nothing is base-protected in
    /// practice). Returns the purge count.
    pub fn purge_stale_paths(&self, store: u64, current_version: u64) -> usize {
        self.lock()
            .purge(store, current_version, |source| source.starts_with("path:"))
    }

    /// Whether `key` is currently resident (does not touch recency or
    /// counters).
    pub fn contains(&self, key: &TrieKey) -> bool {
        self.lock().map.contains_key(key)
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        let mut g = self.lock();
        g.map.clear();
        g.lru.clear();
        g.bytes_in_use = 0;
    }

    /// A snapshot of the registry's counters.
    pub fn stats(&self) -> CacheStats {
        let g = self.lock();
        CacheStats {
            hits: g.hits,
            misses: g.misses,
            builds: g.builds,
            build_time: g.build_time,
            evictions: g.evictions,
            oversized: g.oversized,
            overlays: g.overlays,
            compactions: g.compactions,
            purged: g.purged,
            entries: g.map.len(),
            bytes_in_use: g.bytes_in_use,
            budget: g.budget,
        }
    }
}

impl Default for TrieRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for TrieRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrieRegistry")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::{Relation, Schema, ValueId};

    fn key(source: &str, version: u64) -> TrieKey {
        TrieKey {
            store: 0,
            source: source.into(),
            version,
            order: vec!["a".into(), "b".into()],
        }
    }

    fn sample_rel(rows: u32) -> Relation {
        let mut r = Relation::new(Schema::of(&["a", "b"]));
        for i in 0..rows {
            r.push(&[ValueId(i), ValueId(i + 1)]).unwrap();
        }
        r
    }

    fn build(rows: u32) -> relational::Result<Trie> {
        let r = sample_rel(rows);
        Ok(Trie::from_relation(&r))
    }

    #[test]
    fn first_request_builds_second_hits() {
        let reg = TrieRegistry::new();
        let t1 = reg.get_or_build(&key("R", 1), || build(4)).unwrap();
        let t2 = reg
            .get_or_build(&key("R", 1), || panic!("must not rebuild"))
            .unwrap();
        assert!(Arc::ptr_eq(&t1, &t2));
        let s = reg.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn versions_orders_and_stores_key_separately() {
        let reg = TrieRegistry::new();
        reg.get_or_build(&key("R", 1), || build(4)).unwrap();
        reg.get_or_build(&key("R", 2), || build(5)).unwrap();
        let mut flipped = key("R", 1);
        flipped.order.reverse();
        reg.get_or_build(&flipped, || build(4)).unwrap();
        // Same name/version/order from a different store must not collide.
        let mut other_store = key("R", 1);
        other_store.store = 7;
        reg.get_or_build(&other_store, || build(6)).unwrap();
        let s = reg.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 4, 4));
    }

    #[test]
    fn lookup_counts_hits_but_not_misses() {
        let reg = TrieRegistry::new();
        assert!(reg.lookup(&key("R", 1)).is_none());
        assert_eq!(reg.stats().misses, 0);
        reg.get_or_build(&key("R", 1), || build(4)).unwrap();
        assert!(reg.lookup(&key("R", 1)).is_some());
        let s = reg.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn lru_eviction_respects_byte_budget() {
        // Each 4-row trie costs a few dozen bytes; budget fits ~2 of them.
        let one = build(4).unwrap().estimated_bytes();
        let reg = TrieRegistry::with_budget(Some(2 * one));
        reg.get_or_build(&key("R1", 1), || build(4)).unwrap();
        reg.get_or_build(&key("R2", 1), || build(4)).unwrap();
        // Touch R1 so R2 is the LRU victim.
        reg.lookup(&key("R1", 1)).unwrap();
        reg.get_or_build(&key("R3", 1), || build(4)).unwrap();
        let s = reg.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.bytes_in_use <= 2 * one);
        assert!(reg.contains(&key("R1", 1)));
        assert!(!reg.contains(&key("R2", 1)));
        assert!(reg.contains(&key("R3", 1)));
    }

    #[test]
    fn bitset_index_bytes_count_against_budget() {
        // A dense first column (200 consecutive values) makes the builder
        // attach a per-level bitset index; the cache must charge those extra
        // bytes, not just the raw value/offset arrays.
        let mut r = Relation::new(Schema::of(&["a", "b"]));
        for i in 0..200u32 {
            r.push(&[ValueId(i), ValueId(i)]).unwrap();
        }
        let order = r.schema().attrs().to_vec();
        let mut plain = relational::TrieBuilder::new();
        plain.set_bitset_min_nodes(usize::MAX);
        let plain = plain.build(&r, &order).unwrap();
        let indexed = relational::TrieBuilder::new().build(&r, &order).unwrap();
        assert!(indexed.bitset_level_count() > 0, "workload must be dense");
        assert!(indexed.estimated_bytes() > plain.estimated_bytes());

        let reg = TrieRegistry::new();
        let bytes = indexed.estimated_bytes();
        reg.get_or_build(&key("dense", 1), move || Ok(indexed))
            .unwrap();
        assert_eq!(reg.stats().bytes_in_use, bytes);
    }

    #[test]
    fn oversized_builds_are_served_uncached() {
        // A budget of 1 byte admits nothing: the build must still be served,
        // but never charged — resident bytes stay within the budget.
        let reg = TrieRegistry::with_budget(Some(1));
        let t = reg.get_or_build(&key("R", 1), || build(8)).unwrap();
        assert_eq!(t.num_tuples(), 8);
        let s = reg.stats();
        assert_eq!((s.entries, s.bytes_in_use, s.oversized), (0, 0, 1));
        assert!(!reg.contains(&key("R", 1)));
        // The next request misses again (nothing was cached).
        reg.get_or_build(&key("R", 1), || build(8)).unwrap();
        assert_eq!(reg.stats().misses, 2);
    }

    #[test]
    fn resident_bytes_never_exceed_budget() {
        let one = build(4).unwrap().estimated_bytes();
        let big = build(64).unwrap().estimated_bytes();
        assert!(big > one);
        // Budget fits the big trie alone, or a couple of small ones.
        let reg = TrieRegistry::with_budget(Some(big));
        reg.get_or_build(&key("A", 1), || build(4)).unwrap();
        reg.get_or_build(&key("B", 1), || build(4)).unwrap();
        assert!(reg.stats().bytes_in_use <= big);
        // Inserting the big trie evicts both small ones — down to the
        // protected entry itself, never past the budget.
        reg.get_or_build(&key("C", 1), || build(64)).unwrap();
        let s = reg.stats();
        assert!(s.bytes_in_use <= big, "{} > {}", s.bytes_in_use, big);
        assert_eq!(s.entries, 1);
        assert!(reg.contains(&key("C", 1)));
    }

    #[test]
    fn clear_drops_entries_keeps_counters() {
        let reg = TrieRegistry::new();
        reg.get_or_build(&key("R", 1), || build(4)).unwrap();
        reg.clear();
        let s = reg.stats();
        assert_eq!((s.entries, s.bytes_in_use), (0, 0));
        assert_eq!(s.misses, 1);
        // The LRU index was cleared with the map: later inserts + evictions
        // must not resurrect stale index entries.
        let one = build(4).unwrap().estimated_bytes();
        let reg2 = TrieRegistry::with_budget(Some(one));
        reg2.get_or_build(&key("R", 1), || build(4)).unwrap();
        reg2.clear();
        reg2.get_or_build(&key("S", 1), || build(4)).unwrap();
        assert_eq!(reg2.stats().entries, 1);
    }

    #[test]
    fn build_counters_track_cold_construction_cost() {
        let reg = TrieRegistry::new();
        reg.get_or_build(&key("R", 1), || build(64)).unwrap();
        reg.get_or_build(&key("S", 1), || build(64)).unwrap();
        // A warm hit must not move the build counters.
        reg.get_or_build(&key("R", 1), || panic!("must not rebuild"))
            .unwrap();
        let s = reg.stats();
        assert_eq!((s.builds, s.misses, s.hits), (2, 2, 1));
        assert!(s.build_time > Duration::ZERO);
        // A failed build is still charged: the cost was paid.
        let _ = reg.get_or_build(&key("T", 1), || Err(relational::RelError::EmptyQuery));
        let s2 = reg.stats();
        assert_eq!(s2.builds, 3);
        assert!(s2.build_time >= s.build_time);
    }

    #[test]
    fn build_errors_propagate_and_cache_nothing() {
        let reg = TrieRegistry::new();
        let err = reg.get_or_build(&key("R", 1), || Err(relational::RelError::EmptyQuery));
        assert!(err.is_err());
        assert_eq!(reg.stats().entries, 0);
        // A later successful build still works.
        reg.get_or_build(&key("R", 1), || build(2)).unwrap();
        assert_eq!(reg.stats().entries, 1);
    }

    fn layered(base_rows: u32, run_rows: u32) -> Arc<DeltaTrie> {
        let base = Arc::new(build(base_rows).unwrap());
        let run = Arc::new(build(run_rows).unwrap());
        Arc::new(DeltaTrie::new(base).with_run(run).unwrap())
    }

    #[test]
    fn layered_entries_resolve_through_lookup_cached_only() {
        let reg = TrieRegistry::new();
        let k = key("rel:R", 2);
        assert!(reg.insert_layered(&k, layered(8, 2), 1));
        // Solid-only callers see nothing...
        assert!(reg.lookup(&k).is_none());
        // ...overlay-aware callers get the layered entry.
        match reg.lookup_cached(&k) {
            Some(CachedTrie::Layered(d)) => assert_eq!(d.delta_tuples(), 2),
            other => panic!("expected layered entry, got {other:?}"),
        }
        let s = reg.stats();
        assert_eq!((s.overlays, s.hits, s.entries), (1, 1, 1));
    }

    #[test]
    fn get_or_build_upgrades_a_layered_entry_to_solid() {
        let reg = TrieRegistry::new();
        let k = key("rel:R", 2);
        reg.insert_layered(&k, layered(8, 2), 1);
        // A solid-trie consumer misses on the overlay and replaces it.
        let t = reg.get_or_build(&k, || build(10)).unwrap();
        assert_eq!(t.num_tuples(), 10);
        assert_eq!(reg.stats().entries, 1);
        assert!(reg.lookup(&k).is_some());
    }

    #[test]
    fn replace_with_solid_compacts_in_place() {
        let reg = TrieRegistry::new();
        let k = key("rel:R", 2);
        let d = layered(8, 2);
        reg.insert_layered(&k, Arc::clone(&d), 1);
        let solid = Arc::new(d.compact().unwrap());
        reg.replace_with_solid(&k, Arc::clone(&solid));
        let got = reg.lookup(&k).expect("now solid");
        assert!(Arc::ptr_eq(&got, &solid));
        let s = reg.stats();
        assert_eq!((s.compactions, s.entries), (1, 1));
        assert_eq!(s.bytes_in_use, solid.estimated_bytes());
    }

    #[test]
    fn find_base_returns_newest_older_solid() {
        let reg = TrieRegistry::new();
        let order: Vec<Attr> = vec!["a".into(), "b".into()];
        reg.get_or_build(&key("rel:R", 1), || build(4)).unwrap();
        reg.get_or_build(&key("rel:R", 3), || build(6)).unwrap();
        // A layered entry is never a base candidate.
        reg.insert_layered(&key("rel:R", 4), layered(6, 1), 3);
        let (v, t) = reg.find_base(0, "rel:R", &order, 5).unwrap();
        assert_eq!((v, t.num_tuples()), (3, 6));
        let (v, _) = reg.find_base(0, "rel:R", &order, 3).unwrap();
        assert_eq!(v, 1);
        assert!(reg.find_base(0, "rel:R", &order, 1).is_none());
        assert!(reg.find_base(0, "rel:S", &order, 5).is_none());
        let flipped: Vec<Attr> = vec!["b".into(), "a".into()];
        assert!(reg.find_base(0, "rel:R", &flipped, 5).is_none());
        // Wrong store never matches.
        assert!(reg.find_base(9, "rel:R", &order, 5).is_none());
    }

    #[test]
    fn purge_stale_drops_old_versions_of_one_relation() {
        let reg = TrieRegistry::new();
        reg.get_or_build(&key("rel:R", 1), || build(4)).unwrap();
        reg.get_or_build(&key("rel:R", 2), || build(5)).unwrap();
        reg.get_or_build(&key("atom:R(?x,1)", 1), || build(4))
            .unwrap();
        // Prefix traps: `RS` shares `R` as a name prefix but is a different
        // relation; `S` is unrelated; paths have their own namespace.
        reg.get_or_build(&key("rel:RS", 1), || build(4)).unwrap();
        reg.get_or_build(&key("rel:S", 1), || build(4)).unwrap();
        reg.get_or_build(&key("path:/a$x", 1), || build(4)).unwrap();
        let n = reg.purge_stale(0, "R", 2);
        assert_eq!(n, 2);
        assert!(!reg.contains(&key("rel:R", 1)));
        assert!(!reg.contains(&key("atom:R(?x,1)", 1)));
        assert!(reg.contains(&key("rel:R", 2)));
        assert!(reg.contains(&key("rel:RS", 1)));
        assert!(reg.contains(&key("rel:S", 1)));
        assert!(reg.contains(&key("path:/a$x", 1)));
        assert_eq!(reg.stats().purged, 2);
        // Another store's entries are untouched.
        let mut other = key("rel:R", 1);
        other.store = 7;
        reg.get_or_build(&other, || build(4)).unwrap();
        reg.purge_stale(0, "R", 2);
        assert!(reg.contains(&other));
    }

    #[test]
    fn purge_keeps_bases_referenced_by_live_overlays() {
        let reg = TrieRegistry::new();
        reg.get_or_build(&key("rel:R", 1), || build(4)).unwrap();
        reg.insert_layered(&key("rel:R", 2), layered(4, 1), 1);
        // Version 1 is superseded but still the overlay's base: kept.
        assert_eq!(reg.purge_stale(0, "R", 2), 0);
        assert!(reg.contains(&key("rel:R", 1)));
        // Once the overlay compacts to a solid entry, the base is purgeable.
        reg.replace_with_solid(&key("rel:R", 2), Arc::new(build(5).unwrap()));
        assert_eq!(reg.purge_stale(0, "R", 2), 1);
        assert!(!reg.contains(&key("rel:R", 1)));
        assert!(reg.contains(&key("rel:R", 2)));
    }

    #[test]
    fn purge_stale_paths_uses_the_document_namespace() {
        let reg = TrieRegistry::new();
        reg.get_or_build(&key("path:/a$x", 1), || build(4)).unwrap();
        reg.get_or_build(&key("path:/a$x", 2), || build(4)).unwrap();
        reg.get_or_build(&key("rel:R", 1), || build(4)).unwrap();
        assert_eq!(reg.purge_stale_paths(0, 2), 1);
        assert!(!reg.contains(&key("path:/a$x", 1)));
        assert!(reg.contains(&key("path:/a$x", 2)));
        assert!(reg.contains(&key("rel:R", 1)));
    }

    #[test]
    fn oversized_overlay_runs_are_not_cached() {
        let reg = TrieRegistry::with_budget(Some(1));
        assert!(!reg.insert_layered(&key("rel:R", 2), layered(4, 4), 1));
        let s = reg.stats();
        assert_eq!((s.entries, s.oversized), (0, 1));
    }
}
