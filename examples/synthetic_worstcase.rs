//! The paper's Figure 3 / Example 3.4, self-contained: build the AGM-tight
//! synthetic instance where the twig-only bound is `n^5` but the combined
//! bound is `n^2`, and watch the baseline materialise the `n^5` while XJoin
//! never exceeds `n^2`. Ends with `EXPLAIN ANALYZE`'s per-level table: what
//! each level bound next to its Lemma 3.5 bound.
//!
//! ```sh
//! cargo run --release --example synthetic_worstcase [n]
//! ```

use relational::{Database, Schema, Value};
use xjoin_core::{
    baseline, explain_analyze, lower, query_bound, xjoin, BaselineConfig, DataContext,
    MultiModelQuery, XJoinConfig,
};
use xmldb::{TagIndex, XmlDocument};

/// Builds the tight instance: diagonal R1/R2 plus a document realising every
/// path relation as a full product (Lemma 3.2's construction).
fn tight_instance(n: i64) -> (Database, XmlDocument) {
    let (b0, d0, e0, h0, g0) = (100_000i64, 200_000, 300_000, 400_000, 500_000);
    let mut db = Database::new();
    db.load(
        "R1",
        Schema::of(&["A", "B", "C", "D"]),
        (0..n).map(|i| {
            vec![
                Value::Int(1),
                Value::Int(b0 + i),
                Value::Int(2),
                Value::Int(d0 + i),
            ]
        }),
    )
    .expect("R1 load");
    db.load(
        "R2",
        Schema::of(&["E", "F", "G", "H"]),
        (0..n).map(|j| {
            vec![
                Value::Int(e0 + j),
                Value::Int(3),
                Value::Int(g0 + j),
                Value::Int(h0 + j),
            ]
        }),
    )
    .expect("R2 load");

    let mut dict = db.dict().clone();
    let mut bld = XmlDocument::builder();
    bld.begin("A");
    bld.value(1i64);
    for i in 0..n {
        bld.leaf("B", b0 + i);
    }
    for i in 0..n {
        bld.leaf("D", d0 + i);
    }
    bld.begin("C");
    bld.value(2i64);
    for j in 0..n {
        bld.begin("E");
        bld.value(e0 + j);
        bld.begin("F");
        bld.value(3i64);
        for k in 0..n {
            bld.leaf("H", h0 + k);
        }
        bld.end();
        for k in 0..n {
            bld.leaf("G", g0 + k);
        }
        bld.end();
    }
    bld.end();
    bld.end();
    let doc = bld.build(&mut dict);
    *db.dict_mut() = dict;
    (db, doc)
}

fn main() {
    let n: i64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6);
    let (db, doc) = tight_instance(n);
    let index = TagIndex::build(&doc);
    let ctx = DataContext::new(&db, &doc, &index);
    let query = MultiModelQuery::new(&["R1", "R2"], &["//A[/B][/D]//C[/E[//F[/H]][//G]]"])
        .expect("query parses");

    let atoms = lower(&ctx, &query).expect("lowering runs");
    let bound = query_bound(&atoms).expect("bound computes");
    println!("n = {n}: document has {} nodes", doc.len());
    println!(
        "combined AGM bound (Lemma 3.1): {bound:.0}  (= n^2 = {})",
        n * n
    );
    println!("twig-only bound: n^5 = {}", n.pow(5));

    let x = xjoin(&ctx, &query, &XJoinConfig::default()).expect("xjoin runs");
    println!(
        "\nXJoin   : {} results, max intermediate {:>8}, {:?}",
        x.results.len(),
        x.stats.max_intermediate(),
        x.stats.elapsed
    );
    let b = baseline(&ctx, &query, &BaselineConfig::default()).expect("baseline runs");
    println!(
        "Baseline: {} results, max intermediate {:>8}, {:?}",
        b.results.len(),
        b.stats.max_intermediate(),
        b.stats.elapsed
    );

    println!("\nXJoin stages (never exceed the n^2 bound):\n{}", x.stats);
    println!("Baseline stages (Q2 hits the n^5 twig bound):\n{}", b.stats);
    assert_eq!(x.results.len(), b.results.len());
    assert!(
        x.stats.max_intermediate() as f64 <= bound + 1e-6,
        "Lemma 3.5"
    );

    let report =
        explain_analyze(&ctx, &query, &XJoinConfig::default().order).expect("analyze runs");
    println!("EXPLAIN ANALYZE (actual vs Lemma 3.5 bound per level):");
    println!("{}", report.render());
    for level in &report.levels {
        assert!(
            level.tightness() <= 1.0 + 1e-9,
            "Lemma 3.5 at {}",
            level.var
        );
    }
}
