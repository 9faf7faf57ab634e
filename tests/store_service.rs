//! Integration tests of the `xjoin-store` serving layer: warm-cache
//! re-execution builds zero tries, the concurrent service agrees with
//! single-threaded `xjoin`, snapshots isolate queries from writes, and
//! sustained append churn resolves through delta overlays that stay
//! result-identical to full rebuilds while the registry honours its byte
//! budget and sheds superseded trie versions.

use fixtures::{bookstore, bookstore_query, fig3_query, fig3_tight};
use relational::{Schema, Value};
use std::sync::Arc;
use xjoin_core::{execute, EngineKind, ExecOptions, MultiModelQuery, Parallelism};
use xjoin_store::{DeltaPolicy, PreparedQuery, QueryService, TrieRegistry, VersionedStore};

fn bookstore_store() -> VersionedStore {
    let inst = bookstore();
    VersionedStore::new(inst.db, inst.doc)
}

#[test]
fn warm_cache_reexecution_performs_zero_trie_builds() {
    let store = bookstore_store();
    let snap = store.snapshot();
    let prepared =
        PreparedQuery::prepare(&snap, &bookstore_query(), ExecOptions::default()).unwrap();

    let cold = prepared.execute(&snap).unwrap();
    let after_cold = store.registry().stats();
    assert!(after_cold.misses > 0, "cold run must build tries");
    assert_eq!(after_cold.hits, 0);

    let warm = prepared.execute(&snap).unwrap();
    let after_warm = store.registry().stats();
    // Zero Trie::build calls on the warm path: the miss counter is exactly
    // the build counter (misses are only recorded when a build is required).
    assert_eq!(
        after_warm.misses, after_cold.misses,
        "warm re-execution rebuilt a trie"
    );
    assert!(
        after_warm.hits > 0,
        "warm run must be served from the cache"
    );
    assert!(warm.results.set_eq(&cold.results));

    // Pull-based streaming execution shares the same cached tries, and
    // yields the same projected, deduplicated rows as execute().
    let streamed = prepared.rows(&snap).unwrap().count();
    let after_stream = store.registry().stats();
    assert_eq!(after_stream.misses, after_warm.misses);
    assert_eq!(streamed, warm.results.len());
}

#[test]
fn concurrent_service_matches_single_threaded_xjoin() {
    let inst = fig3_tight(3);
    let store = VersionedStore::new(inst.db, inst.doc);
    let snap = store.snapshot();
    let q1 = fig3_query();
    let p1 = Arc::new(PreparedQuery::prepare(&snap, &q1, ExecOptions::default()).unwrap());
    let q2 = MultiModelQuery::new(&["R1"], &["//A/B"]).unwrap();
    let p2 = Arc::new(PreparedQuery::prepare(&snap, &q2, ExecOptions::default()).unwrap());

    let expect1 = execute(&snap.ctx(), &q1, &ExecOptions::default()).unwrap();
    let expect2 = execute(&snap.ctx(), &q2, &ExecOptions::default()).unwrap();

    let service = QueryService::new(4);
    let jobs = (0..12).map(|i| {
        let p = if i % 2 == 0 {
            Arc::clone(&p1)
        } else {
            Arc::clone(&p2)
        };
        (p, snap.clone())
    });
    let results = service.run_all(jobs);
    assert_eq!(results.len(), 12);
    for (i, r) in results.into_iter().enumerate() {
        let out = r.unwrap();
        let expect = if i % 2 == 0 { &expect1 } else { &expect2 };
        assert!(
            out.results.set_eq(&expect.results),
            "job {i} disagrees with single-threaded xjoin"
        );
    }
}

#[test]
fn snapshots_isolate_in_flight_queries_from_writes() {
    let store = bookstore_store();
    let old_snap = store.snapshot();
    let prepared =
        PreparedQuery::prepare(&old_snap, &bookstore_query(), ExecOptions::default()).unwrap();
    assert_eq!(prepared.execute(&old_snap).unwrap().results.len(), 2);

    // A writer replaces the orders table with a single row.
    store.update(|db| {
        db.load(
            "R",
            Schema::of(&["orderID", "userID"]),
            vec![vec![Value::Int(10963), Value::str("jack")]],
        )
        .unwrap();
    });

    let new_snap = store.snapshot();
    // The old snapshot still answers from the old state; the new one sees
    // the write. Both through the same prepared query and cache.
    assert_eq!(prepared.execute(&old_snap).unwrap().results.len(), 2);
    let new_out = prepared.execute(&new_snap).unwrap();
    assert_eq!(new_out.results.len(), 1);
    assert!(new_out.results.set_eq(
        &execute(&new_snap.ctx(), &bookstore_query(), &ExecOptions::default())
            .unwrap()
            .results
    ));

    // Only the re-versioned relation re-keys: path-relation tries are reused
    // across the write, so the second snapshot's execution misses exactly once.
    let k_old = prepared.trie_keys(&old_snap).unwrap();
    let k_new = prepared.trie_keys(&new_snap).unwrap();
    let changed = k_old.iter().zip(&k_new).filter(|(a, b)| a != b).count();
    assert_eq!(changed, 1);
    let before = store.registry().stats();
    prepared.execute(&new_snap).unwrap();
    assert_eq!(
        store.registry().stats().misses,
        before.misses,
        "re-running on the new snapshot must be fully warm"
    );
}

/// Concurrency stress: writers bump the store's epochs in a tight loop
/// while morsel-parallel queries (service workers × morsel workers) execute
/// against pinned snapshots. Every result must match the pinned snapshot's
/// serial answer even though each rewrite eagerly purges the superseded
/// trie versions from the shared `TrieRegistry` — queries re-resolve purged
/// entries on demand from their own immutable snapshot state.
#[test]
fn writers_never_perturb_parallel_queries_on_pinned_snapshots() {
    let inst = fig3_tight(3);
    let store = Arc::new(VersionedStore::new(inst.db, inst.doc));
    let snap = store.snapshot();
    let q = fig3_query();
    let prepared = Arc::new(
        PreparedQuery::prepare(
            &snap,
            &q,
            ExecOptions {
                engine: EngineKind::XJoinStream,
                parallelism: Parallelism::Threads(3),
                ..Default::default()
            },
        )
        .unwrap(),
    );
    // The pinned snapshot's serial answer, and a warm cache: after this,
    // any further miss would be a duplicate build.
    let expect = execute(&snap.ctx(), &q, &ExecOptions::default()).unwrap();
    assert!(prepared
        .execute(&snap)
        .unwrap()
        .results
        .set_eq(&expect.results));
    let warm = store.registry().stats();
    assert!(warm.misses > 0);

    let service = QueryService::new(4);
    std::thread::scope(|s| {
        // A writer loops epoch bumps (replacing R1 with ever-larger
        // contents) while the queries below run against the old snapshot.
        let writer_store = Arc::clone(&store);
        s.spawn(move || {
            for i in 0..30i64 {
                writer_store.update(|db| {
                    let rows: Vec<Vec<Value>> = (0..=i)
                        .map(|j| {
                            vec![
                                Value::Int(900_000 + j),
                                Value::Int(910_000 + j),
                                Value::Int(920_000 + j),
                                Value::Int(930_000 + j),
                            ]
                        })
                        .collect();
                    db.load("R1", Schema::of(&["A", "B", "C", "D"]), rows)
                        .unwrap();
                });
            }
        });
        let results = service.run_all((0..16).map(|_| (Arc::clone(&prepared), snap.clone())));
        for (i, r) in results.into_iter().enumerate() {
            assert!(
                r.unwrap().results.set_eq(&expect.results),
                "job {i}: parallel query on the pinned snapshot diverged under writes"
            );
        }
    });
    // Rewrites invalidate eagerly, so the parallel fan-out may have had to
    // re-resolve R1 mid-churn; the counters only ever move forward.
    assert!(store.registry().stats().misses >= warm.misses);

    // One more deterministic rewrite: every cached trie for the pinned
    // snapshot's (now superseded) R1 version must be purged from the
    // registry...
    let pinned_keys = prepared.trie_keys(&snap).unwrap();
    store.update(|db| {
        db.load(
            "R1",
            Schema::of(&["A", "B", "C", "D"]),
            vec![vec![
                Value::Int(1),
                Value::Int(2),
                Value::Int(3),
                Value::Int(4),
            ]],
        )
        .unwrap();
    });
    for key in pinned_keys.iter().filter(|k| k.source == "rel:R1") {
        assert!(
            !store.registry().contains(key),
            "stale R1 trie survived the rewrite"
        );
    }
    assert!(store.registry().stats().purged > 0);

    // ...yet the store kept moving and the pinned snapshot still answers
    // identically, rebuilding the purged trie on demand from its own
    // immutable state.
    let fresh = store.snapshot();
    assert!(fresh.epoch() > snap.epoch());
    assert!(prepared
        .execute(&snap)
        .unwrap()
        .results
        .set_eq(&expect.results));
}

/// Sustained churn: a stream of appends resolves through delta overlays
/// (walk engines) or compact-and-upgrade (level-wise engines), and every
/// plan-based engine in both thread modes stays result-identical to a
/// cache-free rebuild of the same snapshot at every step.
#[test]
fn sustained_churn_delta_results_match_rebuilds_across_engines() {
    let engines = [
        EngineKind::Lftj,
        EngineKind::XJoinStream,
        EngineKind::XJoin,
        EngineKind::Generic,
    ];
    let modes = [Parallelism::Serial, Parallelism::Threads(4)];
    for kind in engines {
        for par in modes {
            let inst = fig3_tight(3);
            let base_rows = inst.db.decode(inst.db.relation("R1").unwrap());
            let store = VersionedStore::new(inst.db, inst.doc);
            // Ratio 0.5 over a 3-row base: the first append overlays, the
            // second trips compaction — both paths run in every iteration
            // of the outer loops.
            store.set_delta_policy(DeltaPolicy {
                enabled: true,
                compact_ratio: 0.5,
            });
            let q = fig3_query();
            let opts = ExecOptions {
                engine: kind,
                parallelism: par,
                ..Default::default()
            };
            let prepared = PreparedQuery::prepare(&store.snapshot(), &q, opts.clone()).unwrap();
            let mut last = prepared.execute(&store.snapshot()).unwrap().results.len();
            for step in 0..6 {
                // Off-diagonal rows (B of row i, D of row j) join with twig
                // matches the diagonal base misses, so results really grow;
                // the six steps enumerate the six distinct off-diagonal
                // pairs of a 3-row base.
                let i = step / 2;
                let j = (i + 1 + step % 2) % base_rows.len();
                let row = vec![
                    base_rows[i][0].clone(),
                    base_rows[i][1].clone(),
                    base_rows[i][2].clone(),
                    base_rows[j][3].clone(),
                ];
                store.append("R1", vec![row]).unwrap();
                let snap = store.snapshot();
                let out = prepared.execute(&snap).unwrap();
                let expect = execute(&snap.ctx(), &q, &opts).unwrap();
                assert!(
                    out.results.set_eq(&expect.results),
                    "{kind:?}/{par:?} step {step}: delta-backed results diverge from rebuild"
                );
                assert!(
                    out.results.len() > last,
                    "{kind:?}/{par:?} step {step}: append did not change the result"
                );
                last = out.results.len();
            }
            let stats = store.registry().stats();
            assert!(
                stats.compactions > 0,
                "{kind:?}/{par:?}: ratio 0.5 never triggered a compaction"
            );
            if matches!(kind, EngineKind::Lftj | EngineKind::XJoinStream) {
                assert!(
                    stats.overlays > 0,
                    "{kind:?}/{par:?}: walk engine never used a delta overlay"
                );
            }
        }
    }
}

/// Under append churn with a byte budget, the registry never holds more
/// resident bytes than the budget allows, and a rewrite purges every cached
/// trie of the superseded relation versions.
#[test]
fn registry_respects_budget_and_purges_stale_entries_under_churn() {
    let inst = fig3_tight(3);
    let base_rows = inst.db.decode(inst.db.relation("R1").unwrap());
    let registry = Arc::new(TrieRegistry::with_budget(Some(16 * 1024)));
    let store = VersionedStore::with_registry(inst.db, inst.doc, Arc::clone(&registry));
    store.set_delta_policy(DeltaPolicy {
        enabled: true,
        compact_ratio: 0.5,
    });
    let q = fig3_query();
    let prepared = PreparedQuery::prepare(
        &store.snapshot(),
        &q,
        ExecOptions::for_engine(EngineKind::Lftj),
    )
    .unwrap();
    prepared.execute(&store.snapshot()).unwrap();
    for step in 0..8 {
        let i = step % base_rows.len();
        let j = (step + 1) % base_rows.len();
        let row = vec![
            base_rows[i][0].clone(),
            base_rows[i][1].clone(),
            base_rows[i][2].clone(),
            base_rows[j][3].clone(),
        ];
        store.append("R1", vec![row]).unwrap();
        let snap = store.snapshot();
        prepared.execute(&snap).unwrap();
        let st = registry.stats();
        assert!(
            st.bytes_in_use <= st.budget.unwrap(),
            "churn step {step}: resident bytes {} exceed the budget {}",
            st.bytes_in_use,
            st.budget.unwrap()
        );
    }
    // A rewrite supersedes every appended version at once; the eager purge
    // must leave no R1 entry older than the rewrite behind.
    let stale_keys = prepared.trie_keys(&store.snapshot()).unwrap();
    store.update(|db| {
        db.load(
            "R1",
            Schema::of(&["A", "B", "C", "D"]),
            vec![vec![
                Value::Int(1),
                Value::Int(2),
                Value::Int(3),
                Value::Int(4),
            ]],
        )
        .unwrap();
    });
    let st = registry.stats();
    assert!(st.purged > 0, "the rewrite purged nothing");
    for key in stale_keys.iter().filter(|k| k.source == "rel:R1") {
        assert!(
            !registry.contains(key),
            "stale R1 trie {key:?} survived the rewrite"
        );
    }
    assert!(st.bytes_in_use <= st.budget.unwrap());
}

#[test]
fn service_scales_across_snapshots_of_different_sizes() {
    let inst = fig3_tight(2);
    let store = VersionedStore::new(inst.db, inst.doc);
    let q = fig3_query();
    let snap_small = store.snapshot();
    let prepared =
        Arc::new(PreparedQuery::prepare(&snap_small, &q, ExecOptions::default()).unwrap());

    // Grow the relational side (decoding through the source dictionary so
    // values re-intern into the store's); the twig side stays as-is.
    let bigger = fig3_tight(4);
    let r1_rows = bigger.db.decode(bigger.db.relation("R1").unwrap());
    let r2_rows = bigger.db.decode(bigger.db.relation("R2").unwrap());
    store.update(|db| {
        db.load("R1", Schema::of(&["A", "B", "C", "D"]), r1_rows)
            .unwrap();
        db.load("R2", Schema::of(&["E", "F", "G", "H"]), r2_rows)
            .unwrap();
    });
    let snap_big = store.snapshot();

    let service = QueryService::new(3);
    let results = service.run_all(vec![
        (Arc::clone(&prepared), snap_small.clone()),
        (Arc::clone(&prepared), snap_big.clone()),
        (Arc::clone(&prepared), snap_small.clone()),
    ]);
    let sizes: Vec<usize> = results
        .into_iter()
        .map(|r| r.unwrap().results.len())
        .collect();
    assert_eq!(sizes[0], sizes[2]);
    let expect_small = execute(&snap_small.ctx(), &q, &ExecOptions::default()).unwrap();
    let expect_big = execute(&snap_big.ctx(), &q, &ExecOptions::default()).unwrap();
    assert_eq!(sizes[0], expect_small.results.len());
    assert_eq!(sizes[1], expect_big.results.len());
}
