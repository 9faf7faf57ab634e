//! Property-based tests of the XML substrate: TwigStack vs the navigational
//! matcher, structural joins vs naive pairing, and the paper's transform —
//! all on arbitrary random trees — plus the label-driven structure validator
//! against a reference built on the navigational matcher, and the engines
//! that call it against the baseline and the seed's intermediate sizes.

use proptest::prelude::*;
use relational::{Attr, Dict, ValueId};
use std::collections::BTreeSet;
use xjoin_core::{
    baseline, execute, BaselineConfig, DataContext, EngineKind, ExecOptions, MultiModelQuery,
    RelAlg, TwigValidator, XmlAlg,
};
use xmldb::generator::{random_document, RandomTreeConfig};
use xmldb::structural::{naive_structural_join, stack_tree_join};
use xmldb::{holistic, matcher, transform, Axis, TagIndex, TwigPattern, XmlDocument};

/// Strategy: a random tree described as (parent-pick, tag-pick, value) per
/// node; parents are chosen among already-created nodes.
fn tree_strategy(max_nodes: usize) -> impl Strategy<Value = Vec<(usize, usize, i64)>> {
    prop::collection::vec((0usize..usize::MAX, 0usize..4, 0i64..6), 1..max_nodes)
}

fn build_tree(spec: &[(usize, usize, i64)], dict: &mut Dict) -> XmlDocument {
    let tags = ["r", "s", "t", "u"];
    let mut b = XmlDocument::builder();
    let mut ids = Vec::with_capacity(spec.len() + 1);
    ids.push(b.add_node(None, "r", Some(0i64.into())));
    for &(praw, tag, value) in spec {
        let parent = ids[praw % ids.len()];
        ids.push(b.add_node(Some(parent), tags[tag % tags.len()], Some(value.into())));
    }
    b.build(dict)
}

const TWIG_EXPRS: &[&str] = &[
    "//r//s",
    "//r/s",
    "//s//t",
    "//s/t",
    "//r[/s]//t",
    "//r[//s]/t",
    "//s$s1//s$s2",
    "//r[/s][/t]//u",
    "//s[/t$t1][//t$t2]",
];

/// Tags a random twig draws from: the generated documents' two (so a tag
/// often occurs twice in a twig, as in `//a$v0//a$v1`), the wildcard, and a
/// tag no document has.
const TWIG_TAGS: [&str; 8] = ["a", "b", "a", "b", "a", "b", "*", "zz"];

/// Strategy: a random twig as (parent-pick, tag-pick, axis-pick) per node;
/// node `i` hangs off one of the nodes before it and binds variable `v{i}`.
fn twig_strategy() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    prop::collection::vec(
        (0usize..usize::MAX, 0usize..TWIG_TAGS.len(), 0usize..3),
        1..6,
    )
}

fn build_twig(spec: &[(usize, usize, usize)]) -> TwigPattern {
    let mut twig = TwigPattern::root_var(TWIG_TAGS[spec[0].1], "v0");
    for (i, &(parent, tag, axis)) in spec.iter().enumerate().skip(1) {
        // One edge in three is P-C; a P-C chain is the harder shape to hit.
        let axis = if axis == 0 {
            Axis::Child
        } else {
            Axis::Descendant
        };
        twig.add_var(parent % i, axis, TWIG_TAGS[tag], &format!("v{i}"));
    }
    twig
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// `TwigValidator` ≡ "some embedding enumerated by the navigational
    /// matcher carries the bound values", for full tuples and every prefix.
    #[test]
    fn validator_equals_enumerated_embeddings(
        seed in 0u64..u64::MAX,
        spec in twig_strategy(),
        picks in prop::collection::vec(0usize..usize::MAX, 8..9),
    ) {
        // Few values, so most (tag, value) posting lists hold several nodes,
        // and internal nodes all share the empty text.
        let cfg = RandomTreeConfig {
            max_children: 4,
            max_depth: 4,
            tags: vec!["a".to_string(), "b".to_string()],
            value_domain: 2 + seed % 2,
            empty_internal_text: true,
            seed,
        };
        let mut dict = Dict::new();
        let doc = random_document(&mut dict, &cfg);
        let index = TagIndex::build(&doc);
        let twig = build_twig(&spec);

        // The tuple layout: the twig's variables and one the twig does not
        // bind, in an arbitrary order.
        let mut pool: Vec<Attr> = twig.vars();
        pool.push("w".into());
        let mut order: Vec<Attr> = Vec::new();
        for pick in &picks {
            if !pool.is_empty() {
                order.push(pool.remove(pick % pool.len()));
            }
        }
        let position: Vec<usize> = twig
            .vars()
            .iter()
            .map(|v| order.iter().position(|o| o == v).unwrap())
            .collect();

        // Reference: the value tuples (in `order` layout) of all embeddings.
        let mut embedded: BTreeSet<Vec<ValueId>> = BTreeSet::new();
        matcher::for_each_match(&doc, &index, &twig, &mut |m| {
            let mut tuple = vec![ValueId(0); order.len()];
            for (q, &n) in m.iter().enumerate() {
                tuple[position[q]] = doc.node(n).value;
            }
            embedded.insert(tuple);
            true
        });

        // Probes: every embedded tuple, every embedded tuple with one
        // position taken from the next (stitched across embeddings — the
        // value join's false positives), and a value no node carries.
        let mut probes: Vec<Vec<ValueId>> = embedded.iter().cloned().collect();
        for (i, pair) in probes.clone().windows(2).enumerate() {
            let mut stitched = pair[0].clone();
            let at = i % order.len();
            stitched[at] = pair[1][at];
            probes.push(stitched);
        }
        probes.push(vec![ValueId(u32::MAX - 1); order.len()]);
        probes.push(vec![dict.lookup(&"".into()).unwrap(); order.len()]);

        let mut validator = TwigValidator::new(&doc, &index, &twig, &order).unwrap();
        for probe in &probes {
            for bound in 0..=order.len() {
                let expect = embedded.iter().any(|e| {
                    position.iter().all(|&p| p >= bound || e[p] == probe[p])
                });
                prop_assert_eq!(
                    validator.check_prefix(probe, bound),
                    expect,
                    "twig {} order {:?} probe {:?} bound {}",
                    twig, order, probe, bound
                );
            }
            prop_assert_eq!(validator.check(probe), embedded.contains(probe));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn twigstack_equals_navigational(spec in tree_strategy(40), twig_idx in 0usize..TWIG_EXPRS.len()) {
        let mut dict = Dict::new();
        let doc = build_tree(&spec, &mut dict);
        let index = TagIndex::build(&doc);
        let twig = TwigPattern::parse(TWIG_EXPRS[twig_idx]).unwrap();
        let holistic = holistic::twig_stack(&doc, &index, &twig);
        let naive = matcher::all_matches(&doc, &index, &twig);
        let mut naive_rows: Vec<Vec<ValueId>> = naive
            .iter()
            .map(|m| m.iter().map(|n| ValueId(n.0)).collect())
            .collect();
        naive_rows.sort();
        naive_rows.dedup();
        let mut holo_rows: Vec<Vec<ValueId>> = holistic.matches.rows().map(|r| r.to_vec()).collect();
        holo_rows.sort();
        prop_assert_eq!(holo_rows, naive_rows, "twig {}", TWIG_EXPRS[twig_idx]);
    }

    #[test]
    fn stack_tree_equals_naive_join(spec in tree_strategy(40), axis_pick in any::<bool>()) {
        let mut dict = Dict::new();
        let doc = build_tree(&spec, &mut dict);
        let index = TagIndex::build(&doc);
        let axis = if axis_pick { Axis::Descendant } else { Axis::Child };
        let ss = index.nodes_named(&doc, "s").to_vec();
        let ts = index.nodes_named(&doc, "t").to_vec();
        let mut fast = stack_tree_join(&doc, &ss, &ts, axis);
        let mut naive = naive_structural_join(&doc, &ss, &ts, axis);
        fast.sort();
        naive.sort();
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn path_relations_contain_exactly_matching_chains(spec in tree_strategy(40)) {
        let mut dict = Dict::new();
        let doc = build_tree(&spec, &mut dict);
        let index = TagIndex::build(&doc);
        // Pure P-C twig: one path relation, equal to the value tuples of the
        // navigational matches.
        let twig = TwigPattern::parse("//s/t").unwrap();
        let dec = transform::decompose(&twig);
        prop_assert_eq!(dec.paths.len(), 1);
        let rel = transform::path_relation(&doc, &index, &twig, &dec.paths[0]);
        let mut expect: Vec<Vec<ValueId>> = matcher::all_matches(&doc, &index, &twig)
            .iter()
            .map(|m| m.iter().map(|&n| doc.node(n).value).collect())
            .collect();
        expect.sort();
        expect.dedup();
        let mut got: Vec<Vec<ValueId>> = rel.rows().map(|r| r.to_vec()).collect();
        got.sort();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn decomposition_covers_each_var_at_least_once(twig_idx in 0usize..TWIG_EXPRS.len()) {
        let twig = TwigPattern::parse(TWIG_EXPRS[twig_idx]).unwrap();
        let dec = transform::decompose(&twig);
        let mut covered: Vec<usize> = dec.paths.iter().flat_map(|p| p.nodes.clone()).collect();
        covered.sort_unstable();
        covered.dedup();
        prop_assert_eq!(covered, (0..twig.len()).collect::<Vec<_>>());
        // Sub-twigs partition the nodes.
        let mut in_subtwigs: Vec<usize> =
            dec.sub_twigs.iter().flat_map(|s| s.nodes.clone()).collect();
        in_subtwigs.sort_unstable();
        prop_assert_eq!(in_subtwigs, (0..twig.len()).collect::<Vec<_>>());
    }

    #[test]
    fn region_labels_agree_with_parent_pointers(spec in tree_strategy(50)) {
        let mut dict = Dict::new();
        let doc = build_tree(&spec, &mut dict);
        for id in doc.node_ids() {
            if let Some(p) = doc.node(id).parent {
                prop_assert!(doc.is_parent(p, id));
                prop_assert!(doc.is_ancestor(p, id));
            }
            for &c in &doc.node(id).children {
                prop_assert_eq!(doc.node(c).parent, Some(id));
            }
        }
    }

    #[test]
    fn dewey_labels_order_like_regions(spec in tree_strategy(40)) {
        let mut dict = Dict::new();
        let doc = build_tree(&spec, &mut dict);
        // Dewey lexicographic order == document (start) order.
        let mut ids: Vec<_> = doc.node_ids().collect();
        ids.sort_by_key(|&n| doc.dewey(n));
        for w in ids.windows(2) {
            prop_assert!(doc.node(w[0]).start < doc.node(w[1]).start);
        }
    }
}

#[test]
fn twigstack_path_solution_counts_never_below_matches_per_path() {
    // Path solutions are per root-leaf path; a full match contributes one
    // solution to each path, so solutions >= matches for single-path twigs.
    let mut dict = Dict::new();
    let spec: Vec<(usize, usize, i64)> = (0..30)
        .map(|i| (i * 7 + 3, i * 5 + 1, (i % 4) as i64))
        .collect();
    let doc = build_tree(&spec, &mut dict);
    let index = TagIndex::build(&doc);
    let twig = TwigPattern::parse("//r//s/t").unwrap();
    let res = holistic::twig_stack(&doc, &index, &twig);
    assert!(res.path_solutions >= res.matches.len());
}

/// `(instance, engine and flags, total_intermediate, per-stage sizes)` as the
/// engines reported them before structure validation became label-driven.
/// Validation only filters finished (or, with `+pv`, partial) tuples: the
/// expansion itself, and so every number here, must not move.
type StageRow = (&'static str, &'static str, u64, &'static [usize]);
const SEED_STAGES: &[StageRow] = &[
    (
        "fig3-tight",
        "xjoin",
        166,
        &[5, 5, 5, 5, 5, 1, 5, 5, 5, 25, 25, 25, 25, 25],
    ),
    (
        "fig3-tight",
        "xjoin+pv",
        166,
        &[5, 5, 5, 5, 5, 1, 5, 5, 5, 25, 25, 25, 25, 25],
    ),
    (
        "fig3-tight",
        "xjoin+ad",
        166,
        &[5, 5, 5, 5, 5, 1, 5, 5, 5, 25, 25, 25, 25, 25],
    ),
    (
        "fig3-tight",
        "xjoin+pv+ad",
        166,
        &[5, 5, 5, 5, 5, 1, 5, 5, 5, 25, 25, 25, 25, 25],
    ),
    ("fig3-tight", "xjoin-stream", 0, &[]),
    ("fig3-tight", "lftj", 50, &[25, 25]),
    (
        "fig3-tight",
        "generic",
        141,
        &[1, 5, 5, 5, 25, 25, 25, 25, 25],
    ),
    (
        "fig3-random",
        "xjoin",
        172,
        &[4, 4, 5, 6, 6, 1, 3, 3, 5, 20, 20, 30, 35, 30],
    ),
    (
        "fig3-random",
        "xjoin+pv",
        162,
        &[4, 4, 5, 6, 6, 1, 3, 3, 5, 20, 20, 25, 30, 30],
    ),
    (
        "fig3-random",
        "xjoin+ad",
        162,
        &[4, 4, 5, 6, 6, 1, 3, 3, 5, 20, 20, 25, 30, 30],
    ),
    (
        "fig3-random",
        "xjoin+pv+ad",
        162,
        &[4, 4, 5, 6, 6, 1, 3, 3, 5, 20, 20, 25, 30, 30],
    ),
    ("fig3-random", "xjoin-stream", 0, &[]),
    ("fig3-random", "lftj", 65, &[35, 30]),
    (
        "fig3-random",
        "generic",
        147,
        &[1, 3, 3, 5, 20, 20, 30, 35, 30],
    ),
    (
        "fig2",
        "xjoin",
        224,
        &[4, 4, 4, 4, 4, 4, 4, 4, 16, 16, 16, 16, 64, 64],
    ),
    (
        "fig2",
        "xjoin+pv",
        224,
        &[4, 4, 4, 4, 4, 4, 4, 4, 16, 16, 16, 16, 64, 64],
    ),
    (
        "fig2",
        "xjoin+ad",
        224,
        &[4, 4, 4, 4, 4, 4, 4, 4, 16, 16, 16, 16, 64, 64],
    ),
    (
        "fig2",
        "xjoin+pv+ad",
        224,
        &[4, 4, 4, 4, 4, 4, 4, 4, 16, 16, 16, 16, 64, 64],
    ),
    ("fig2", "xjoin-stream", 0, &[]),
    ("fig2", "lftj", 128, &[64, 64]),
    ("fig2", "generic", 204, &[4, 4, 4, 16, 16, 16, 16, 64, 64]),
    ("bookstore", "xjoin", 28, &[2, 2, 2, 2, 2, 2, 2, 4, 8, 2]),
    ("bookstore", "xjoin+pv", 20, &[2, 2, 2, 2, 2, 2, 2, 2, 2, 2]),
    ("bookstore", "xjoin+ad", 28, &[2, 2, 2, 2, 2, 2, 2, 4, 8, 2]),
    (
        "bookstore",
        "xjoin+pv+ad",
        20,
        &[2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    ),
    ("bookstore", "xjoin-stream", 0, &[]),
    ("bookstore", "lftj", 10, &[8, 2]),
    ("bookstore", "generic", 22, &[2, 2, 2, 2, 4, 8, 2]),
];

#[test]
fn engines_agree_with_the_baseline_and_expand_exactly_as_before() {
    let instances: [(&str, fixtures::Instance, MultiModelQuery); 4] = [
        (
            "fig3-tight",
            fixtures::fig3_tight(5),
            fixtures::fig3_query(),
        ),
        (
            "fig3-random",
            fixtures::fig3_random(8, 6, 7),
            fixtures::fig3_query(),
        ),
        ("fig2", fixtures::fig2_instance(4), fixtures::fig2_query()),
        (
            "bookstore",
            fixtures::bookstore(),
            fixtures::bookstore_query(),
        ),
    ];
    let flags = [(false, false), (true, false), (false, true), (true, true)];
    let mut seen: Vec<(&str, String, u64, Vec<usize>)> = Vec::new();
    for (name, inst, query) in &instances {
        let index = inst.index();
        let ctx = DataContext::new(&inst.db, &inst.doc, &index);
        // The baseline matches each twig on its own (TwigStack) and merges
        // on values; it never calls the validator.
        let cfg = BaselineConfig {
            rel_alg: RelAlg::Hash,
            xml_alg: XmlAlg::TwigStack,
        };
        let reference = baseline(&ctx, query, &cfg).unwrap();
        assert!(!reference.results.is_empty(), "{name}");
        for engine in [
            EngineKind::XJoin,
            EngineKind::XJoinStream,
            EngineKind::Lftj,
            EngineKind::Generic,
        ] {
            for (partial_validation, ad_filter) in flags {
                let opts = ExecOptions {
                    engine,
                    partial_validation,
                    ad_filter,
                    ..ExecOptions::default()
                };
                let out = execute(&ctx, query, &opts).unwrap();
                let aligned = reference
                    .results
                    .project(out.results.schema().attrs())
                    .unwrap();
                assert!(out.results.set_eq(&aligned), "{name} {opts:?}");
                // Only the level-wise XJoin reads the two flags; the other
                // engines are listed once.
                let label = match (partial_validation, ad_filter) {
                    (false, false) => "",
                    (true, false) => "+pv",
                    (false, true) => "+ad",
                    (true, true) => "+pv+ad",
                };
                if engine != EngineKind::XJoin && !label.is_empty() {
                    continue;
                }
                let series = out.stats.stages.iter().map(|s| s.tuples).collect();
                seen.push((
                    name,
                    format!("{engine}{label}"),
                    out.stats.total_intermediate(),
                    series,
                ));
            }
        }
    }
    assert_eq!(seen.len(), SEED_STAGES.len());
    for (got, want) in seen.iter().zip(SEED_STAGES) {
        assert_eq!((got.0, got.1.as_str(), got.2, got.3.as_slice()), *want);
    }
}
