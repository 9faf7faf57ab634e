//! Ablation — XML-side twig evaluation algorithms: TwigStack (holistic) vs
//! the navigational matcher vs the paper's transform-based join, on random
//! documents. This is the engine choice inside the baseline's `Q2` and the
//! heart of the paper's argument that twig matching alone can blow up.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use relational::generic::generic_join;
use relational::{Attr, Dict};
use std::hint::black_box;
use xmldb::dewey::tjfast;
use xmldb::generator::{random_document, RandomTreeConfig};
use xmldb::pathstack::path_stack;
use xmldb::{holistic, matcher, transform, TagIndex, TwigPattern, XmlDocument};

fn setup(nodes_hint: usize) -> (Dict, XmlDocument, TagIndex) {
    let mut dict = Dict::new();
    let cfg = RandomTreeConfig {
        max_children: 4,
        max_depth: (nodes_hint as f64).log2() as usize,
        tags: ["r", "a", "b", "c"].iter().map(|s| s.to_string()).collect(),
        value_domain: 8,
        seed: 42,
        ..Default::default()
    };
    let doc = random_document(&mut dict, &cfg);
    let idx = TagIndex::build(&doc);
    (dict, doc, idx)
}

fn bench_twig_algos(c: &mut Criterion) {
    let mut group = c.benchmark_group("twig_algos");
    let twig = TwigPattern::parse("//a[/b]//c").unwrap();
    for hint in [64usize, 512] {
        let (_dict, doc, idx) = setup(hint);
        group.bench_with_input(BenchmarkId::new("twigstack", doc.len()), &hint, |b, _| {
            b.iter(|| black_box(holistic::twig_stack(&doc, &idx, &twig).matches.len()))
        });
        group.bench_with_input(
            BenchmarkId::new("navigational", doc.len()),
            &hint,
            |b, _| b.iter(|| black_box(matcher::count_matches(&doc, &idx, &twig))),
        );
        group.bench_with_input(
            BenchmarkId::new("transform_join", doc.len()),
            &hint,
            |b, _| {
                b.iter(|| {
                    // The paper's reduction: path relations joined by the
                    // worst-case optimal engine (value-level, no final
                    // validation — this is the bound-carrying core).
                    let rels = transform::transform_to_relations(&doc, &idx, &twig);
                    let refs: Vec<&relational::Relation> = rels.iter().collect();
                    let order: Vec<Attr> = twig.vars();
                    let (out, _) = generic_join(&refs, &order).expect("join runs");
                    black_box(out.len())
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("tjfast", doc.len()), &hint, |b, _| {
            b.iter(|| black_box(tjfast(&doc, &idx, &twig).matches.len()))
        });
    }
    group.finish();
}

fn bench_path_algos(c: &mut Criterion) {
    let mut group = c.benchmark_group("path_algos");
    let path = TwigPattern::parse("//r//a/b").unwrap();
    for hint in [64usize, 512] {
        let (_dict, doc, idx) = setup(hint);
        group.bench_with_input(BenchmarkId::new("pathstack", doc.len()), &hint, |b, _| {
            b.iter(|| black_box(path_stack(&doc, &idx, &path).len()))
        });
        group.bench_with_input(
            BenchmarkId::new("twigstack_on_path", doc.len()),
            &hint,
            |b, _| b.iter(|| black_box(holistic::twig_stack(&doc, &idx, &path).matches.len())),
        );
        group.bench_with_input(
            BenchmarkId::new("tjfast_on_path", doc.len()),
            &hint,
            |b, _| b.iter(|| black_box(tjfast(&doc, &idx, &path).matches.len())),
        );
        group.bench_with_input(
            BenchmarkId::new("navigational_on_path", doc.len()),
            &hint,
            |b, _| b.iter(|| black_box(matcher::count_matches(&doc, &idx, &path))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_twig_algos, bench_path_algos);
criterion_main!(benches);
