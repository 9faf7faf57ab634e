//! Differential tests of name-free trie sharing: atoms that are α-renamings
//! of one another read one cached index, and every engine still agrees with
//! `xjoin_core::execute` and the nested-loop `naive_join` — on self-joins,
//! swapped columns, repeated variables, constants, twigs whose paths differ
//! only in variable names, and one statement under two variable orders;
//! cold, warm, and on layered plans after `append`.

use relational::generic::naive_join;
use relational::{Attr, Database, Relation, Schema, Value};
use xjoin_core::{
    collect_atoms, execute, EngineKind, ExecOptions, MultiModelQuery, OrderStrategy, RelAtom, Term,
};
use xjoin_store::{DeltaPolicy, PreparedQuery, VersionedStore};
use xmldb::XmlDocument;

/// `edge(src, dst)` with self-loops and one-way edges, beside a document of
/// `a` elements with `b` children whose values share the edge domain.
fn store() -> VersionedStore {
    let edges: [(i64, i64); 10] = [
        (1, 2),
        (2, 3),
        (1, 3),
        (3, 1),
        (2, 1),
        (1, 1),
        (3, 3),
        (4, 2),
        (2, 4),
        (4, 4),
    ];
    let mut db = Database::new();
    db.load(
        "edge",
        Schema::of(&["src", "dst"]),
        edges
            .iter()
            .map(|&(s, d)| vec![Value::Int(s), Value::Int(d)])
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let mut dict = db.dict().clone();
    let mut b = XmlDocument::builder();
    b.begin("r");
    for (a, kids) in [(1i64, &[2i64, 3][..]), (2, &[4][..]), (3, &[1, 3][..])] {
        b.begin("a");
        b.value(a);
        for &k in kids {
            b.leaf("b", k);
        }
        b.end();
    }
    b.end();
    let doc = b.build(&mut dict);
    *db.dict_mut() = dict;
    let store = VersionedStore::new(db, doc);
    // Keep overlays layered however large the appends grow.
    store.set_delta_policy(DeltaPolicy {
        compact_ratio: 100.0,
    });
    store
}

fn var(name: &str) -> Term {
    Term::Var(Attr::new(name))
}

fn int(v: i64) -> Term {
    Term::Const(Value::Int(v))
}

fn atoms(list: &[[Term; 2]]) -> MultiModelQuery {
    MultiModelQuery {
        relations: list
            .iter()
            .map(|terms| RelAtom::with_terms("edge", terms.to_vec()))
            .collect(),
        ..MultiModelQuery::default()
    }
}

fn given(order: &[&str]) -> OrderStrategy {
    OrderStrategy::Given(order.iter().map(Attr::new).collect())
}

/// The cases, each with the variable order it runs under.
fn cases() -> Vec<(&'static str, MultiModelQuery, OrderStrategy)> {
    let path = || atoms(&[[var("a"), var("b")], [var("b"), var("c")]]);
    let triangle = || {
        atoms(&[
            [var("a"), var("b")],
            [var("b"), var("c")],
            [var("a"), var("c")],
        ])
    };
    let mut twins = MultiModelQuery::new(&[] as &[&str], &["//a/b", "//a$x/b$y"]).unwrap();
    twins.relations = vec![RelAtom::renamed("edge", vec!["b".into(), "x".into()])];
    vec![
        ("self-join", path(), OrderStrategy::Appearance),
        ("triangle", triangle(), OrderStrategy::Appearance),
        (
            "swapped columns",
            atoms(&[[var("a"), var("b")], [var("b"), var("a")]]),
            given(&["a", "b"]),
        ),
        (
            "repeated variable beside its plain twin",
            atoms(&[[var("x"), var("x")], [var("x"), var("y")]]),
            OrderStrategy::Appearance,
        ),
        (
            "leading constant",
            atoms(&[[int(1), var("y")], [var("y"), var("z")]]),
            OrderStrategy::Appearance,
        ),
        (
            "trailing constant",
            atoms(&[[var("x"), int(2)], [var("x"), var("y")]]),
            OrderStrategy::Appearance,
        ),
        ("twin twigs", twins, given(&["a", "b", "x", "y"])),
        ("triangle a,b,c", triangle(), given(&["a", "b", "c"])),
        ("triangle c,b,a", triangle(), given(&["c", "b", "a"])),
    ]
}

/// The nested-loop answer of `query` on `store`'s current state, over
/// `order`. The twigs here are single paths, so their path relations are
/// exactly their matches.
fn naive(store: &VersionedStore, query: &MultiModelQuery, order: &[Attr]) -> Relation {
    let snap = store.snapshot();
    let atoms = collect_atoms(&snap.ctx(), query).unwrap();
    naive_join(&atoms.rel_refs(), order).unwrap()
}

fn rows_of(prepared: &PreparedQuery, store: &VersionedStore) -> Relation {
    let snap = store.snapshot();
    let mut rows = prepared.rows(&snap).unwrap();
    let mut rel = Relation::new(rows.schema().clone());
    for row in rows.by_ref() {
        rel.push(&row).unwrap();
    }
    rel
}

/// Every engine, prepared and direct, materialised and streamed, equals
/// the nested-loop join. Returns the prepared statements.
fn check_all(
    store: &VersionedStore,
    label: &str,
    query: &MultiModelQuery,
    order: &OrderStrategy,
    prepared: &mut Vec<PreparedQuery>,
) {
    let fresh = prepared.is_empty();
    for (i, kind) in EngineKind::all().into_iter().enumerate() {
        let opts = ExecOptions {
            engine: kind,
            order: order.clone(),
            ..ExecOptions::default()
        };
        if fresh {
            prepared.push(PreparedQuery::prepare(&store.snapshot(), query, opts.clone()).unwrap());
        }
        let p = &prepared[i];
        let snap = store.snapshot();
        let out = p.execute(&snap).unwrap();
        let direct = execute(&snap.ctx(), query, &opts).unwrap();
        let want = naive(store, query, &out.order);
        assert!(!want.is_empty(), "{label}: the case must have answers");
        assert!(
            out.results.set_eq(&want),
            "{label}: prepared {kind} ≠ naive"
        );
        assert!(
            direct.results.set_eq(&want),
            "{label}: direct {kind} ≠ naive"
        );
        assert!(
            rows_of(p, store).set_eq(&want),
            "{label}: rows {kind} ≠ naive"
        );
    }
}

#[test]
fn every_engine_agrees_on_shared_tries_cold_warm_and_layered() {
    for (label, query, order) in cases() {
        let store = store();
        let mut prepared = Vec::new();
        check_all(&store, label, &query, &order, &mut prepared);
        // Warm: the same statements again, from the cache alone.
        let before = store.registry().stats();
        check_all(&store, label, &query, &order, &mut prepared);
        let after_warm = store.registry().stats();
        // `xjoin_core::execute` builds its own tries; only prepared
        // statements touch the registry, and warm ones never build.
        assert_eq!(after_warm.builds, before.builds, "{label}: warm rebuilt");

        // Layered: two appends later, plain and renamed atoms overlay their
        // cached base; every engine reads base + runs.
        for rows in [vec![[4i64, 1], [1, 4]], vec![[3, 2], [2, 2]]] {
            store
                .append(
                    "edge",
                    rows.iter()
                        .map(|r| vec![Value::Int(r[0]), Value::Int(r[1])]),
                )
                .unwrap();
        }
        let overlays = store.registry().stats().overlays;
        check_all(&store, label, &query, &order, &mut prepared);
        let renamed_atoms = query
            .relations
            .iter()
            .any(|a| matches!(a.terms.as_deref(), Some([Term::Var(x), Term::Var(y)]) if x != y));
        if renamed_atoms {
            assert!(
                store.registry().stats().overlays > overlays,
                "{label}: renamed atoms must overlay after append"
            );
            let out = prepared[0].execute(&store.snapshot()).unwrap();
            assert!(out.stats.delta_runs >= 1, "{label}: plan is not layered");
        }
    }
}

#[test]
fn alpha_renamings_share_one_entry_and_permutations_do_not_mix() {
    let store = store();
    let snap = store.snapshot();
    let prepare = |q: &MultiModelQuery, order: OrderStrategy| {
        let opts = ExecOptions {
            order,
            ..ExecOptions::default()
        };
        let p = PreparedQuery::prepare(&snap, q, opts).unwrap();
        p.execute(&snap).unwrap();
        p
    };
    let cases = cases();
    let find = |label: &str| {
        let (_, q, o) = cases.iter().find(|(l, _, _)| *l == label).unwrap();
        (q.clone(), o.clone())
    };

    // The triangle under two orders: one entry per column permutation, and
    // each statement reads only its own.
    let (tri, _) = find("triangle a,b,c");
    let forward = prepare(&tri, given(&["a", "b", "c"]));
    assert_eq!(store.registry().stats().entries, 1);
    let backward = prepare(&tri, given(&["c", "b", "a"]));
    assert_eq!(store.registry().stats().entries, 2);
    let fk = forward.trie_keys(&snap).unwrap();
    let bk = backward.trie_keys(&snap).unwrap();
    assert!(fk.iter().all(|k| *k == fk[0] && k.source == "rel:edge@0,1"));
    assert!(bk.iter().all(|k| *k == bk[0] && k.source == "rel:edge@1,0"));

    // Twigs whose paths differ only in variable names: one `path:` entry.
    let (twins, order) = find("twin twigs");
    let p = prepare(&twins, order);
    let keys = p.trie_keys(&snap).unwrap();
    let paths: Vec<_> = keys.iter().filter(|k| k.content() == "path:/a/b").collect();
    assert_eq!(paths.len(), 2);
    assert_eq!(paths[0], paths[1]);
    assert_ne!(paths[0].order, paths[1].order);

    // `edge(x,x)` is a selection of its own beside the renamed `edge(x,y)`.
    let (rep, order) = find("repeated variable beside its plain twin");
    let keys = prepare(&rep, order).trie_keys(&snap).unwrap();
    assert_eq!(keys[0].source, "atom:edge(?0,?0)@0");
    assert_eq!(keys[1].source, "rel:edge@0,1");

    // Constants in either position key apart.
    let (lead, order) = find("leading constant");
    let lead = prepare(&lead, order).trie_keys(&snap).unwrap();
    let (trail, order) = find("trailing constant");
    let trail = prepare(&trail, order).trie_keys(&snap).unwrap();
    assert_eq!(lead[0].source, "atom:edge(Int(1),?0)@0");
    assert_eq!(trail[0].source, "atom:edge(?0,Int(2))@0");
}

#[test]
fn renamed_self_join_overlays_appends_instead_of_rebuilding() {
    let store = store();
    let q = atoms(&[[var("a"), var("b")], [var("b"), var("c")]]);
    let prepared = PreparedQuery::prepare(
        &store.snapshot(),
        &q,
        ExecOptions::for_engine(EngineKind::Lftj),
    )
    .unwrap();
    let cold = prepared.execute(&store.snapshot()).unwrap();
    assert_eq!(cold.stats.tries_built, 1, "both atoms read one trie");

    let batches = [vec![[4i64, 3]], vec![[3, 4], [4, 1]]];
    for batch in &batches {
        store
            .append(
                "edge",
                batch
                    .iter()
                    .map(|r| vec![Value::Int(r[0]), Value::Int(r[1])]),
            )
            .unwrap();
    }
    let builds = store.registry().stats().builds;
    let snap = store.snapshot();
    let out = prepared.execute(&snap).unwrap();
    assert!(out.stats.delta_runs >= 1, "the plan must be layered");
    assert_eq!(out.stats.tries_built, batches.len(), "one run per batch");
    assert_eq!(store.registry().stats().builds, builds, "no full rebuild");
    let rebuilt = execute(&snap.ctx(), &q, prepared.options()).unwrap();
    assert!(out.results.set_eq(&rebuilt.results));
}

#[test]
fn one_statement_keys_every_kind_of_atom_as_before() {
    // A plain atom, a renamed one, a constant, a repeated variable, a twig
    // path, and a twig whose A-D edge is cut into two single-node paths,
    // under an order that levels the two-column contents backwards. The
    // literals pin every key string, so any drift in how an atom's source
    // is derived shows here.
    let store = store();
    let snap = store.snapshot();
    let mut q = MultiModelQuery::new(&["edge"], &["//a/b", "//r//a$z"]).unwrap();
    q.relations.extend([
        RelAtom::with_terms("edge", vec![var("a"), var("b")]),
        RelAtom::with_terms("edge", vec![int(1), var("y")]),
        RelAtom::with_terms("edge", vec![var("x"), var("x")]),
    ]);
    let opts = ExecOptions {
        order: given(&["dst", "src", "b", "a", "y", "x", "z", "r"]),
        ..ExecOptions::default()
    };
    let p = PreparedQuery::prepare(&snap, &q, opts.clone()).unwrap();
    let keys = p.trie_keys(&snap).unwrap();
    let sources: Vec<&str> = keys.iter().map(|k| k.source.as_str()).collect();
    assert_eq!(
        sources,
        [
            "rel:edge@1,0",
            "rel:edge@1,0",
            "atom:edge(Int(1),?0)@0",
            "atom:edge(?0,?0)@0",
            "path:/a/b@1,0",
            "path:/r@0",
            "path:/a@0",
        ]
    );
    assert_eq!(
        p.label(),
        "edge, edge, edge, edge, twig0/path(a,b), twig1/path(r), twig1/path(z)"
    );

    let out = p.execute(&snap).unwrap();
    let sizes: Vec<usize> = out.atom_sizes.iter().map(|(_, n)| *n).collect();
    assert_eq!(sizes, [10, 10, 3, 3, 5, 1, 3]);
    assert_eq!(out.results.len(), 1350);
    let direct = execute(&snap.ctx(), &q, &opts).unwrap();
    assert!(out.results.set_eq(&direct.results));
    assert_eq!(out.atom_sizes, direct.atom_sizes);
}
