//! Prepared queries: parse/validate/order once, re-execute cheaply.
//!
//! Preparation lowers a [`MultiModelQuery`] against a reference snapshot,
//! fixes the global variable order (the paper's `PA`), and pins for every
//! atom a *trie key template*: the atom's name-free content identity, the
//! column permutation its trie levels follow, and the restriction of the
//! global order to its attributes (the names the plan sees the trie
//! under), keyed by the [`xjoin_core::AtomSource`] [`collect_atoms`]
//! records. Execution against any later snapshot then resolves each
//! template to a concrete [`TrieKey`] (filling in that snapshot's relation /
//! document versions), fetches the tries from the shared registry —
//! building a miss with [`xjoin_core::AtomSource::build_trie`] or overlaying
//! appends on a cached base — and runs the executor selected by the
//! pinned [`xjoin_core::ExecOptions`] over the assembled plan: level-wise
//! XJoin for [`xjoin_core::EngineKind::XJoin`], the depth-first walk for
//! the other kinds. A run with a deadline is the same run, told when to
//! give up.
//!
//! Because the identity is name-free, every α-renaming of an atom — the
//! three `edge` atoms of a triangle, or `edge(a,b)` in one statement and
//! `edge(x,y)` in the next — reads one cached trie. A plain or purely
//! renamed atom is built straight from the stored relation in its column
//! permutation and resolves appends through a delta overlay; only an atom
//! with a constant or a repeated variable materialises a filtered copy.
//!
//! A fully warm execution performs **zero** [`relational::Trie::build`]
//! calls and never re-materialises path relations: the plan is assembled
//! purely from cached `Arc<Trie>`s.

use crate::cache::TrieKey;
use crate::error::{Result, StoreError};
use crate::store::Snapshot;
use relational::{Attr, JoinPlan, Trie};
use std::sync::Arc;
use std::time::Instant;
use xjoin_core::{
    build_columns, collect_atoms, compute_order, execute_with_plan_until, stream_with_plan,
    validate_output, AtomSource, CoreError, ExecOptions, MultiModelQuery, QueryOutput, Rows, Term,
};
use xmldb::{path_fingerprint, Decomposition};

/// One atom's pinned cache identity and trie level order.
#[derive(Debug, Clone)]
struct PreparedAtom {
    /// Display name (as reported in stats), from [`xjoin_core::Atoms::names`].
    display: String,
    /// Where the content comes from, from [`xjoin_core::Atoms::sources`].
    source: AtomSource,
    /// The name-free [`TrieKey::source`]: content and column permutation.
    identity: String,
    /// Per trie level, the content column it holds.
    columns: Vec<usize>,
    /// The restriction of the global order to this atom's attributes — the
    /// trie's level names.
    order: Vec<Attr>,
}

/// A resolved delta overlay: the base trie, the run layers (empty when the
/// overlay was compacted to a solid trie), and how many run tries were
/// built on the way.
type ResolvedOverlay = (Arc<Trie>, Vec<Arc<Trie>>, usize);

/// A query prepared for repeated execution: validated, ordered, and with all
/// trie cache keys pinned. Cheap to execute against any [`Snapshot`] of the
/// same store; `Send + Sync`, so one prepared query can be shared by every
/// worker of a [`crate::QueryService`].
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    query: MultiModelQuery,
    options: ExecOptions,
    order: Vec<Attr>,
    atoms: Vec<PreparedAtom>,
    /// The lowering's twig decompositions, which twig-path sources index.
    decompositions: Vec<Decomposition>,
}

/// The name-free content of the atom `source` describes: `rel:{name}` for a
/// stored relation read as-is or renamed; for a selection, its terms with
/// variables numbered by first occurrence (`atom:edge(?0,?0)`,
/// `atom:edge(Int(5),?0)`); a twig path's tag chain (`path:/a/b`).
fn content(
    query: &MultiModelQuery,
    decompositions: &[Decomposition],
    source: AtomSource,
) -> String {
    match source {
        AtomSource::Relation { atom } => format!("rel:{}", query.relations[atom].name),
        AtomSource::Selection { atom } => {
            let atom = &query.relations[atom];
            let mut vars: Vec<&Attr> = Vec::new();
            let terms: Vec<String> = atom
                .terms
                .iter()
                .flatten()
                .map(|term| match term {
                    Term::Var(v) => {
                        let k = vars.iter().position(|w| *w == v).unwrap_or(vars.len());
                        vars.extend((k == vars.len()).then_some(v));
                        format!("?{k}")
                    }
                    Term::Const(c) => format!("{c:?}"),
                })
                .collect();
            format!("atom:{}({})", atom.name, terms.join(","))
        }
        AtomSource::TwigPath { twig, path } => {
            path_fingerprint(&query.twigs[twig], &decompositions[twig].paths[path])
        }
    }
}

impl PreparedQuery {
    /// Prepares `query` against a reference snapshot: lowers it to atoms,
    /// computes the variable order per `options.order`, validates the
    /// output projection, and pins every atom's trie key. The chosen order
    /// is kept for all later executions (for the `Cardinality` strategy it
    /// reflects the reference snapshot's statistics).
    pub fn prepare(
        snapshot: &Snapshot,
        query: &MultiModelQuery,
        options: ExecOptions,
    ) -> Result<PreparedQuery> {
        let ctx = snapshot.ctx();
        let atoms = collect_atoms(&ctx, query)?;
        let order = compute_order(&atoms, &options.order)?;
        validate_output(query, &order)?;

        let mut prepared = Vec::with_capacity(atoms.rels.len());
        for ((rel, name), &source) in atoms.rels.iter().zip(&atoms.names).zip(&atoms.sources) {
            // The lowered relation's columns are the content's columns: the
            // stored schema for a plain or renamed atom, the distinct
            // variables for a selection, the path's nodes for a path.
            let schema = rel.rel().schema();
            let restricted = schema.restrict_order(&order).map_err(CoreError::from)?;
            let columns = restricted
                .iter()
                .map(|a| schema.require(a))
                .collect::<relational::Result<Vec<usize>>>()
                .map_err(CoreError::from)?;
            let content = content(query, &atoms.decompositions, source);
            prepared.push(PreparedAtom {
                display: name.clone(),
                source,
                identity: TrieKey::source_of(&content, &columns),
                columns,
                order: restricted,
            });
        }

        Ok(PreparedQuery {
            query: query.clone(),
            options,
            order,
            atoms: prepared,
            decompositions: atoms.decompositions,
        })
    }

    /// The pinned global variable order.
    pub fn order(&self) -> &[Attr] {
        &self.order
    }

    /// A human-readable label for this query — its atom list — used in
    /// spans, metrics, and [`StoreError::WorkerLost`] reports.
    pub fn label(&self) -> String {
        let names: Vec<&str> = self.atoms.iter().map(|a| a.display.as_str()).collect();
        names.join(", ")
    }

    /// The underlying query.
    pub fn query(&self) -> &MultiModelQuery {
        &self.query
    }

    /// The pinned execution options (engine kind, order strategy, filters,
    /// limit).
    pub fn options(&self) -> &ExecOptions {
        &self.options
    }

    /// Overrides the pinned row limit without re-preparing: the same order
    /// and trie keys, capped at `limit` rows. Serving uses this to apply
    /// per-request row budgets on top of a shared cached statement.
    pub fn with_limit(mut self, limit: Option<usize>) -> Self {
        self.options.limit = limit;
        self
    }

    /// The concrete trie keys this query resolves to on `snapshot` (exposed
    /// for cache introspection, pre-warming, and tests). Atoms that are
    /// α-renamings of one another resolve to equal keys, differing only in
    /// their `order` view names.
    pub fn trie_keys(&self, snapshot: &Snapshot) -> Result<Vec<TrieKey>> {
        self.atoms
            .iter()
            .map(|a| {
                let version = match a.source {
                    AtomSource::Relation { atom } | AtomSource::Selection { atom } => {
                        let name = &self.query.relations[atom].name;
                        snapshot.relation_version(name).ok_or_else(|| {
                            StoreError::Core(CoreError::UnknownRelation(name.clone()))
                        })?
                    }
                    AtomSource::TwigPath { .. } => snapshot.doc_version(),
                };
                Ok(TrieKey {
                    store: snapshot.store_id(),
                    source: a.identity.clone(),
                    version,
                    order: a.order.clone(),
                })
            })
            .collect()
    }

    /// Resolves a post-write miss on a plain or renamed relation atom
    /// through the delta path: finds the newest cached base below
    /// `key.version`, checks the snapshot's append log covers the gap, and
    /// builds one small run trie per append batch, in the atom's column
    /// permutation. Returns `None` when no overlay is possible (no
    /// cached base, a rewrite in between, log truncated) — the caller falls
    /// back to a full rebuild.
    ///
    /// The store's compaction ratio decides what comes back: a fresh
    /// overlay within budget is cached layered and returned as
    /// `(base, runs)`; an overlay past its ratio is merged (linear k-way
    /// pass over sorted layers, cheaper than a full sort-build) and cached
    /// solid.
    fn overlay_for(
        &self,
        snapshot: &Snapshot,
        key: &TrieKey,
        spec: &PreparedAtom,
        name: &str,
    ) -> Result<Option<ResolvedOverlay>> {
        let policy = snapshot.delta_policy();
        let registry = snapshot.registry();
        let Some((base_version, base)) = registry.find_base(key) else {
            return Ok(None);
        };
        let Some(batches) = snapshot.delta_rows(name, base_version, key.version) else {
            return Ok(None);
        };
        let mut delta = relational::DeltaTrie::new(Arc::clone(&base));
        let mut built = 0usize;
        for batch in &batches {
            let run = Arc::new(build_columns(batch, &spec.columns)?.renamed(&spec.order));
            built += 1;
            delta.push_run(run)?;
        }
        if delta.needs_compaction(policy.compact_ratio) {
            let solid = Arc::new(delta.compact()?);
            registry.replace_with_solid(key, Arc::clone(&solid));
            return Ok(Some((solid, Vec::new(), built)));
        }
        let runs = delta.runs().to_vec();
        registry.insert_layered(key, Arc::new(delta), base_version);
        Ok(Some((base, runs, built)))
    }

    /// Assembles the join plan for `snapshot`, fetching tries from the
    /// registry. A cache miss re-materialises only the missing atom's
    /// relation — an update to one relation never re-derives the other
    /// atoms (in particular, it never re-walks the document for path
    /// relations whose tries are still cached). A miss caused by an
    /// [`crate::VersionedStore::append`] resolves through the delta path
    /// instead when possible: the cached base is overlaid with small run
    /// tries built from the append log (see [`PreparedQuery::overlay_for`]).
    ///
    /// Layered entries enter the plan as base + delta runs, which every
    /// engine unions lazily through the shared leapfrog core.
    ///
    /// The returned [`PlanBuildCost`] covers exactly the misses *this* call
    /// paid for (relation materialisation + trie build, lock waits
    /// included); a fully warm assembly reports zero.
    #[allow(clippy::type_complexity)]
    fn plan_for(
        &self,
        snapshot: &Snapshot,
    ) -> Result<(JoinPlan, Vec<(String, usize)>, PlanBuildCost)> {
        let keys = self.trie_keys(snapshot)?;
        let registry = snapshot.registry();
        let ctx = snapshot.ctx();

        let mut tries: Vec<Arc<Trie>> = Vec::with_capacity(keys.len());
        let mut layers: Vec<Vec<Arc<Trie>>> = Vec::with_capacity(keys.len());
        let mut cost = PlanBuildCost::default();
        for (spec, key) in self.atoms.iter().zip(&keys) {
            match registry.lookup_cached(key) {
                Some(crate::cache::CachedTrie::Solid(trie)) => {
                    tries.push(trie);
                    layers.push(Vec::new());
                    continue;
                }
                Some(crate::cache::CachedTrie::Layered(delta)) => {
                    tries.push(Arc::clone(delta.base()));
                    layers.push(delta.runs().to_vec());
                    continue;
                }
                None => {}
            }
            let build_start = Instant::now();
            let mut span = xjoin_obs::span("trie-build");
            span.set_attr(|| spec.display.clone());
            if let AtomSource::Relation { atom } = spec.source {
                let name = &self.query.relations[atom].name;
                if let Some((base, runs, built)) = self.overlay_for(snapshot, key, spec, name)? {
                    cost.elapsed += build_start.elapsed();
                    cost.tries_built += built;
                    tries.push(base);
                    layers.push(runs);
                    continue;
                }
            }
            // Built inside the closure: if a concurrent worker wins the build
            // race, no filtered copy is made and the document is not walked.
            tries.push(registry.get_or_build(key, || {
                Ok(spec.source.build_trie(
                    &ctx,
                    &self.query,
                    &self.decompositions,
                    &spec.columns,
                )?)
            })?);
            layers.push(Vec::new());
            cost.elapsed += build_start.elapsed();
            cost.tries_built += 1;
        }

        // Atom cardinalities always come from the tries (distinct tuples),
        // never from the lowered relations, so the reported stats are
        // identical whether a run was cold or warm. For layered atoms the
        // count is base + delta tuples — an upper bound on the distinct
        // tuples (overlap collapses in the walk).
        let atom_sizes: Vec<(String, usize)> = self
            .atoms
            .iter()
            .zip(tries.iter().zip(&layers))
            .map(|(spec, (trie, runs))| {
                let n: usize =
                    trie.num_tuples() + runs.iter().map(|r| r.num_tuples()).sum::<usize>();
                (spec.display.clone(), n)
            })
            .collect();

        let plan = if layers.iter().any(|l| !l.is_empty()) {
            JoinPlan::from_shared_layered(tries, layers, &self.order).map_err(CoreError::from)?
        } else {
            JoinPlan::from_shared(tries, &self.order).map_err(CoreError::from)?
        };
        let plan = plan.with_ladder(self.options.order.ladder());
        Ok((plan, atom_sizes, cost))
    }

    /// Executes the prepared query against `snapshot` on the pinned engine,
    /// reusing cached tries. Results are identical to running
    /// [`xjoin_core::execute`] with the same options on the same snapshot
    /// (modulo the pinned order).
    ///
    /// The output's [`relational::JoinStats::build_elapsed`] /
    /// [`relational::JoinStats::tries_built`] report the trie-construction
    /// cost this execution actually paid: zero on a warm cache, the full
    /// build bill on a cold one — so serving benchmarks can split cold
    /// latency into build vs probe.
    pub fn execute(&self, snapshot: &Snapshot) -> Result<QueryOutput> {
        self.run(snapshot, None, Instant::now())
    }

    /// Executes the prepared query like [`PreparedQuery::execute`], but
    /// gives up with [`StoreError::DeadlineExceeded`] once `deadline`
    /// passes: the deadline is checked after plan assembly (trie builds can
    /// be slow) and then every 256 steps of the pinned engine — walk tuples
    /// on the depth-first kinds, proposed candidates on level-wise XJoin
    /// (see [`xjoin_core::execute_with_plan_until`]) — so a runaway query
    /// stops burning its worker shortly after its budgeted time, not only
    /// when the caller stops waiting.
    ///
    /// Within its deadline the output equals [`PreparedQuery::execute`]'s,
    /// statistics included: the pinned engine runs either way. `enqueued`
    /// is when the job entered the system — it stamps the error's `waited`
    /// field so callers see total queue + run time.
    pub fn execute_with_deadline(
        &self,
        snapshot: &Snapshot,
        deadline: Instant,
        enqueued: Instant,
    ) -> Result<QueryOutput> {
        self.run(snapshot, Some(deadline), enqueued)
    }

    /// The one way a prepared query runs: assemble the plan from the cache,
    /// then run the pinned engine on it until done or until `deadline`.
    pub(crate) fn run(
        &self,
        snapshot: &Snapshot,
        deadline: Option<Instant>,
        enqueued: Instant,
    ) -> Result<QueryOutput> {
        let start = Instant::now();
        let (plan, atom_sizes, cost) = self.plan_for(snapshot)?;
        let ctx = snapshot.ctx();
        let mut out = execute_with_plan_until(
            &ctx,
            &self.query,
            &self.options,
            &plan,
            atom_sizes,
            self.query.relations.len(), // path atoms follow the relational ones
            deadline,
        )
        .map_err(|e| match e {
            CoreError::DeadlineExceeded => {
                StoreError::deadline_exceeded(self.label(), enqueued.elapsed())
            }
            e => StoreError::from(e),
        })?;
        // Restamp elapsed to cover plan assembly too, so `build_elapsed`
        // stays a subset of `elapsed` (same convention as the fresh-plan
        // engines) and `elapsed - build_elapsed` is a valid probe time.
        out.stats.elapsed = start.elapsed();
        out.stats.build_elapsed = cost.elapsed;
        out.stats.tries_built = cost.tries_built;
        out.stats.bitset_levels = plan.tries().iter().map(|t| t.bitset_level_count()).sum();
        out.stats.delta_runs = plan.layers().iter().map(Vec::len).sum();
        Ok(out)
    }

    /// Streams the prepared query's results as a pull-based
    /// [`Rows`] iterator against `snapshot`, reusing the same cached tries
    /// as [`PreparedQuery::execute`]. Tuples arrive in lexicographic order
    /// of [`PreparedQuery::order`]; the pinned `limit` (if any) is pushed
    /// into the trie walk.
    ///
    /// Every engine kind streams through the depth-first walk (with
    /// per-tuple twig validation), as [`xjoin_core::stream()`] does — the
    /// pinned kind and its XJoin-only flags govern
    /// [`PreparedQuery::execute`]; the result *set* is identical either
    /// way.
    pub fn rows<'s>(&'s self, snapshot: &'s Snapshot) -> Result<Rows<'s>> {
        let (plan, _, _) = self.plan_for(snapshot)?;
        stream_with_plan(&snapshot.ctx(), &self.query, plan, &self.options)
            .map_err(StoreError::from)
    }
}

/// The trie-construction cost one plan assembly paid (cache misses only).
#[derive(Debug, Clone, Copy, Default)]
struct PlanBuildCost {
    /// Wall-clock time spent materialising relations and building tries.
    elapsed: std::time::Duration,
    /// Number of tries built (i.e. cache misses served by this call) —
    /// delta run builds and compaction merges included.
    tries_built: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::VersionedStore;
    use relational::{Database, Schema, Value};
    use xjoin_core::{xjoin, EngineKind, XJoinConfig};
    use xmldb::XmlDocument;

    fn bookstore_store() -> VersionedStore {
        let mut db = Database::new();
        db.load(
            "R",
            Schema::of(&["orderID", "userID"]),
            vec![
                vec![Value::Int(10963), Value::str("jack")],
                vec![Value::Int(20134), Value::str("tom")],
            ],
        )
        .unwrap();
        let mut dict = db.dict().clone();
        let mut b = XmlDocument::builder();
        b.begin("invoices");
        for (oid, isbn, price) in [(10963i64, "978-3-16-1", 30i64), (20134, "634-3-12-2", 20)] {
            b.begin("orderLine");
            b.leaf("orderID", oid);
            b.leaf("ISBN", isbn);
            b.leaf("price", price);
            b.end();
        }
        b.end();
        let doc = b.build(&mut dict);
        *db.dict_mut() = dict;
        VersionedStore::new(db, doc)
    }

    fn bookstore_query() -> MultiModelQuery {
        MultiModelQuery::new(&["R"], &["//invoices/orderLine[/orderID][/ISBN][/price]"])
            .unwrap()
            .with_output(&["userID", "ISBN", "price"])
    }

    #[test]
    fn prepared_matches_direct_xjoin() {
        let store = bookstore_store();
        let snap = store.snapshot();
        let q = bookstore_query();
        let prepared = PreparedQuery::prepare(&snap, &q, ExecOptions::default()).unwrap();
        let out = prepared.execute(&snap).unwrap();
        let direct = xjoin(&snap.ctx(), &q, &XJoinConfig::default()).unwrap();
        assert!(out.results.set_eq(&direct.results));
        assert_eq!(out.order, direct.order);
    }

    #[test]
    fn warm_execution_touches_no_builds() {
        let store = bookstore_store();
        let snap = store.snapshot();
        let prepared =
            PreparedQuery::prepare(&snap, &bookstore_query(), ExecOptions::default()).unwrap();
        let cold = prepared.execute(&snap).unwrap();
        let after_cold = store.registry().stats();
        assert!(after_cold.misses > 0);
        let warm = prepared.execute(&snap).unwrap();
        let after_warm = store.registry().stats();
        assert_eq!(
            after_warm.misses, after_cold.misses,
            "warm run rebuilt a trie"
        );
        assert_eq!(
            after_warm.hits,
            after_cold.hits + prepared.atoms.len() as u64
        );
        assert!(warm.results.set_eq(&cold.results));
    }

    #[test]
    fn cold_runs_report_build_cost_warm_runs_report_zero() {
        let store = bookstore_store();
        let snap = store.snapshot();
        let prepared =
            PreparedQuery::prepare(&snap, &bookstore_query(), ExecOptions::default()).unwrap();
        let cold = prepared.execute(&snap).unwrap();
        assert_eq!(cold.stats.tries_built, prepared.atoms.len());
        assert!(cold.stats.build_elapsed > std::time::Duration::ZERO);
        // Build time is a subset of the total: probe = elapsed - build is
        // always a valid Duration.
        assert!(cold.stats.build_elapsed <= cold.stats.elapsed);
        let warm = prepared.execute(&snap).unwrap();
        assert_eq!(warm.stats.tries_built, 0);
        assert_eq!(warm.stats.build_elapsed, std::time::Duration::ZERO);
        // The registry's own accounting agrees: builds happened once.
        let reg = store.registry().stats();
        assert_eq!(reg.builds, prepared.atoms.len() as u64);
        assert!(reg.build_time > std::time::Duration::ZERO);
    }

    #[test]
    fn execution_follows_relation_versions() {
        let store = bookstore_store();
        let snap1 = store.snapshot();
        let prepared =
            PreparedQuery::prepare(&snap1, &bookstore_query(), ExecOptions::default()).unwrap();
        let out1 = prepared.execute(&snap1).unwrap();
        assert_eq!(out1.results.len(), 2);
        store.update(|db| {
            db.load(
                "R",
                Schema::of(&["orderID", "userID"]),
                vec![vec![Value::Int(10963), Value::str("jack")]],
            )
            .unwrap();
        });
        let snap2 = store.snapshot();
        // Old snapshot still serves the old answer; the new one re-keys.
        assert_eq!(prepared.execute(&snap1).unwrap().results.len(), 2);
        assert_eq!(prepared.execute(&snap2).unwrap().results.len(), 1);
        let k1 = prepared.trie_keys(&snap1).unwrap();
        let k2 = prepared.trie_keys(&snap2).unwrap();
        assert_ne!(k1[0], k2[0], "R's key must re-version");
        assert_eq!(&k1[1..], &k2[1..], "path keys are unchanged");
    }

    #[test]
    fn rows_agree_with_execute() {
        let store = bookstore_store();
        let snap = store.snapshot();
        let q = MultiModelQuery::new(&["R"], &["//orderLine/orderID"]).unwrap();
        let prepared = PreparedQuery::prepare(&snap, &q, ExecOptions::default()).unwrap();
        let n = prepared.rows(&snap).unwrap().count();
        assert_eq!(n, prepared.execute(&snap).unwrap().results.len());
    }

    #[test]
    fn every_engine_executes_from_the_cache() {
        let store = bookstore_store();
        let snap = store.snapshot();
        let q = bookstore_query();
        let reference = PreparedQuery::prepare(&snap, &q, ExecOptions::default())
            .unwrap()
            .execute(&snap)
            .unwrap();
        for kind in EngineKind::all() {
            let prepared =
                PreparedQuery::prepare(&snap, &q, ExecOptions::for_engine(kind)).unwrap();
            let out = prepared.execute(&snap).unwrap();
            assert!(
                out.results.set_eq(&reference.results),
                "prepared engine {kind} diverged"
            );
        }
    }

    #[test]
    fn prepared_limit_pushes_into_the_walk() {
        let store = bookstore_store();
        let snap = store.snapshot();
        let q = MultiModelQuery::new(&["R"], &["//orderLine/orderID"]).unwrap();
        let full =
            PreparedQuery::prepare(&snap, &q, ExecOptions::for_engine(EngineKind::XJoinStream))
                .unwrap();
        let mut all = full.rows(&snap).unwrap();
        let total = all.by_ref().count();
        assert!(total > 1);
        let full_visited = all.stats().visited;

        let limited = PreparedQuery::prepare(
            &snap,
            &q,
            ExecOptions {
                engine: EngineKind::XJoinStream,
                limit: Some(1),
                ..Default::default()
            },
        )
        .unwrap();
        let mut rows = limited.rows(&snap).unwrap();
        assert_eq!(rows.by_ref().count(), 1);
        assert!(rows.stats().visited < full_visited);
        // The materialising path honours the limit too.
        assert_eq!(limited.execute(&snap).unwrap().results.len(), 1);
    }

    #[test]
    fn deadline_checked_after_plan_assembly() {
        use std::time::Duration;
        let store = bookstore_store();
        let snap = store.snapshot();
        for kind in EngineKind::all() {
            let prepared =
                PreparedQuery::prepare(&snap, &bookstore_query(), ExecOptions::for_engine(kind))
                    .unwrap();
            let enqueued = Instant::now();
            // An already-expired deadline fails before any row is produced.
            assert!(
                matches!(
                    prepared.execute_with_deadline(&snap, enqueued, enqueued),
                    Err(StoreError::DeadlineExceeded { .. })
                ),
                "{kind}"
            );
            // A generous deadline runs the pinned engine, no other: the
            // same rows, and the same stage series and walk counters.
            let direct = prepared.execute(&snap).unwrap();
            let out = prepared
                .execute_with_deadline(
                    &snap,
                    Instant::now() + Duration::from_secs(60),
                    Instant::now(),
                )
                .unwrap();
            assert!(out.results.set_eq(&direct.results), "{kind}");
            assert_eq!(out.order, direct.order, "{kind}");
            assert_eq!(out.atom_sizes, direct.atom_sizes, "{kind}");
            assert_eq!(out.stats.stages, direct.stats.stages, "{kind}");
            assert_eq!(out.stats.reorders, direct.stats.reorders, "{kind}");
            if kind == EngineKind::XJoin {
                assert!(!out.stats.stages.is_empty(), "level-wise stages recorded");
            }
        }
    }

    /// A store holding `R(g,x)` and `S(g,y)` with `n` rows each, all in the
    /// one group `g = 0`: joined on `g`, an `n²`-tuple walk.
    fn one_group_store(n: i64) -> VersionedStore {
        let mut db = Database::new();
        let rows = |n: i64| -> Vec<Vec<Value>> {
            (0..n).map(|i| vec![Value::Int(0), Value::Int(i)]).collect()
        };
        db.load("R", Schema::of(&["g", "x"]), rows(n)).unwrap();
        db.load("S", Schema::of(&["g", "y"]), rows(n)).unwrap();
        let mut dict = db.dict().clone();
        let mut b = XmlDocument::builder();
        b.begin("root");
        b.end();
        let doc = b.build(&mut dict);
        *db.dict_mut() = dict;
        VersionedStore::new(db, doc)
    }

    /// Runs `q` on every engine kind under a 1 ms deadline, over a trie
    /// cache warmed by a limit-1 sibling (same atoms, same order, hence the
    /// same trie keys) so the budget is spent inside the run, not the
    /// build. Every kind must stop with `DeadlineExceeded`.
    fn assert_every_kind_stops_at_the_deadline(store: &VersionedStore, q: &MultiModelQuery) {
        use std::time::Duration;
        let snap = store.snapshot();
        let warm = PreparedQuery::prepare(
            &snap,
            q,
            ExecOptions {
                limit: Some(1),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(warm.execute(&snap).unwrap().results.len(), 1);
        for kind in EngineKind::all() {
            let prepared = PreparedQuery::prepare(&snap, q, ExecOptions::for_engine(kind)).unwrap();
            let start = Instant::now();
            match prepared.execute_with_deadline(&snap, start + Duration::from_millis(1), start) {
                Err(StoreError::DeadlineExceeded { waited, .. }) => {
                    assert!(waited >= Duration::from_millis(1), "{kind}")
                }
                Err(other) => panic!("{kind}: expected DeadlineExceeded, got {other}"),
                Ok(out) => panic!(
                    "{kind}: expected DeadlineExceeded, got {} rows",
                    out.results.len()
                ),
            }
        }
    }

    #[test]
    fn deadline_interrupts_a_large_drain() {
        // A million-row output that cannot be produced inside a 1 ms budget,
        // so the checks inside the walk or the expansion must stop it.
        let q = MultiModelQuery::new(&["R", "S"], &[]).unwrap();
        assert_every_kind_stops_at_the_deadline(&one_group_store(1000), &q);
    }

    #[test]
    fn deadline_counts_walk_steps_not_emitted_rows() {
        // Q(g): a 4M-tuple walk that projects onto a single distinct row.
        // Every tuple after the first is a duplicate the projection drops,
        // and those steps must count toward the deadline too.
        let q = MultiModelQuery::new(&["R", "S"], &[])
            .unwrap()
            .with_output(&["g"]);
        assert_every_kind_stops_at_the_deadline(&one_group_store(2000), &q);
    }

    #[test]
    fn unknown_output_attribute_rejected_at_prepare() {
        let store = bookstore_store();
        let snap = store.snapshot();
        let q = MultiModelQuery::new(&["R"], &["//orderLine/orderID"])
            .unwrap()
            .with_output(&["nope"]);
        assert!(matches!(
            PreparedQuery::prepare(&snap, &q, ExecOptions::default()),
            Err(StoreError::Core(CoreError::UnknownAttribute(_)))
        ));
    }

    #[test]
    fn shared_registry_never_mixes_stores() {
        use crate::cache::TrieRegistry;
        // Two stores with identical names/versions/orders but different
        // contents share one registry; each must be served its own tries.
        let registry = Arc::new(TrieRegistry::new());
        let make = |rows: Vec<Vec<Value>>| {
            let mut db = Database::new();
            db.load("R", Schema::of(&["x"]), rows).unwrap();
            let mut dict = db.dict().clone();
            let mut b = XmlDocument::builder();
            b.begin("root");
            b.end();
            let doc = b.build(&mut dict);
            *db.dict_mut() = dict;
            crate::store::VersionedStore::with_registry(db, doc, Arc::clone(&registry))
        };
        let s1 = make(vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        let s2 = make(vec![vec![Value::Int(9)]]);
        assert_ne!(s1.id(), s2.id());
        let q = MultiModelQuery::new(&["R"], &[]).unwrap();
        let snap1 = s1.snapshot();
        let snap2 = s2.snapshot();
        let p1 = PreparedQuery::prepare(&snap1, &q, ExecOptions::default()).unwrap();
        let p2 = PreparedQuery::prepare(&snap2, &q, ExecOptions::default()).unwrap();
        assert_eq!(p1.execute(&snap1).unwrap().results.len(), 2);
        // Same relation name, version 1, order (x) — but a different store:
        // this must *miss* and build s2's own trie, not hit s1's.
        let before = registry.stats();
        assert_eq!(p2.execute(&snap2).unwrap().results.len(), 1);
        let after = registry.stats();
        assert_eq!(after.misses, before.misses + 1);
        assert_eq!(after.hits, before.hits);
    }

    #[test]
    fn append_resolves_through_a_delta_overlay_for_walk_engines() {
        use crate::store::DeltaPolicy;
        let store = bookstore_store();
        // The base relation is tiny; keep the ratio out of the way so the
        // overlay survives instead of compacting immediately.
        store.set_delta_policy(DeltaPolicy {
            compact_ratio: 10.0,
        });
        let q = bookstore_query();
        let prepared = PreparedQuery::prepare(
            &store.snapshot(),
            &q,
            ExecOptions::for_engine(EngineKind::Lftj),
        )
        .unwrap();
        // Warm the cache at version 1.
        let before_rows = prepared.execute(&store.snapshot()).unwrap().results.len();
        store
            .append("R", vec![vec![Value::Int(10963), Value::str("jill")]])
            .unwrap();
        let stats_before = store.registry().stats();
        let snap = store.snapshot();
        let out = prepared.execute(&snap).unwrap();
        assert_eq!(out.results.len(), before_rows + 1, "append must be visible");
        assert_eq!(out.stats.delta_runs, 1, "R resolves as base + one run");
        let stats_after = store.registry().stats();
        assert_eq!(
            stats_after.overlays,
            stats_before.overlays + 1,
            "the new version must be cached layered, not rebuilt"
        );
        assert_eq!(stats_after.builds, stats_before.builds, "no full rebuild");
        // The second execution is fully warm on the overlay.
        let out2 = prepared.execute(&snap).unwrap();
        assert_eq!(out2.stats.tries_built, 0);
        assert_eq!(out2.stats.delta_runs, 1);
        assert!(out2.results.set_eq(&out.results));
    }

    #[test]
    fn level_wise_engines_read_the_overlay_after_append() {
        use crate::store::DeltaPolicy;
        let store = bookstore_store();
        store.set_delta_policy(DeltaPolicy {
            compact_ratio: 10.0,
        });
        let q = bookstore_query();
        let walk = PreparedQuery::prepare(
            &store.snapshot(),
            &q,
            ExecOptions::for_engine(EngineKind::XJoinStream),
        )
        .unwrap();
        let levelwise = PreparedQuery::prepare(
            &store.snapshot(),
            &q,
            ExecOptions::for_engine(EngineKind::XJoin),
        )
        .unwrap();
        walk.execute(&store.snapshot()).unwrap();
        store
            .append("R", vec![vec![Value::Int(20134), Value::str("meg")]])
            .unwrap();
        let snap = store.snapshot();
        // The walk engine installs the overlay...
        let walked = walk.execute(&snap).unwrap();
        assert_eq!(walked.stats.delta_runs, 1);
        // ...and the level-wise engine reads the same base + run, merging
        // nothing, with identical results.
        let stats_before = store.registry().stats();
        let level = levelwise.execute(&snap).unwrap();
        assert_eq!(level.stats.delta_runs, 1);
        assert_eq!(level.stats.tries_built, 0);
        assert!(level.results.set_eq(&walked.results));
        assert_eq!(
            store.registry().stats().compactions,
            stats_before.compactions
        );
    }

    #[test]
    fn overlay_compacts_once_deltas_outgrow_the_ratio() {
        use crate::store::DeltaPolicy;
        let store = bookstore_store();
        store.set_delta_policy(DeltaPolicy {
            compact_ratio: 0.4, // 2 rows base: one-row appends trigger at run 1
        });
        let q = bookstore_query();
        let prepared = PreparedQuery::prepare(
            &store.snapshot(),
            &q,
            ExecOptions::for_engine(EngineKind::Lftj),
        )
        .unwrap();
        prepared.execute(&store.snapshot()).unwrap();
        store
            .append("R", vec![vec![Value::Int(10963), Value::str("amy")]])
            .unwrap();
        let out = prepared.execute(&store.snapshot()).unwrap();
        // 1 delta row / 2 base rows = 0.5 > 0.4: compacted straight away.
        assert_eq!(out.stats.delta_runs, 0);
        assert!(store.registry().stats().compactions >= 1);
        assert_eq!(out.results.len(), 3);
    }

    #[test]
    fn rewrite_falls_back_to_a_full_rebuild() {
        let store = bookstore_store();
        let q = bookstore_query();
        let prepared = PreparedQuery::prepare(
            &store.snapshot(),
            &q,
            ExecOptions::for_engine(EngineKind::Lftj),
        )
        .unwrap();
        prepared.execute(&store.snapshot()).unwrap();
        // A rewrite clears R's delta log, so no overlay can cover it.
        store.update(|db| {
            db.load(
                "R",
                Schema::of(&["orderID", "userID"]),
                vec![
                    vec![Value::Int(10963), Value::str("jack")],
                    vec![Value::Int(20134), Value::str("tom")],
                    vec![Value::Int(10963), Value::str("bob")],
                ],
            )
            .unwrap();
        });
        let before = store.registry().stats();
        let out = prepared.execute(&store.snapshot()).unwrap();
        assert_eq!(out.results.len(), 3);
        assert_eq!(out.stats.delta_runs, 0);
        let after = store.registry().stats();
        assert_eq!(after.overlays, before.overlays);
        assert_eq!(after.builds, before.builds + 1, "R was rebuilt in full");
    }

    #[test]
    fn unknown_relation_is_reported_at_execute() {
        let store = bookstore_store();
        let snap = store.snapshot();
        let prepared =
            PreparedQuery::prepare(&snap, &bookstore_query(), ExecOptions::default()).unwrap();
        // A fresh, unrelated store lacks `R`.
        let mut db = Database::new();
        db.load("S", Schema::of(&["x"]), vec![vec![Value::Int(1)]])
            .unwrap();
        let mut dict = db.dict().clone();
        let mut b = XmlDocument::builder();
        b.begin("invoices");
        b.end();
        let doc = b.build(&mut dict);
        *db.dict_mut() = dict;
        let other = VersionedStore::new(db, doc);
        assert!(matches!(
            prepared.execute(&other.snapshot()),
            Err(StoreError::Core(CoreError::UnknownRelation(_)))
        ));
    }
}
