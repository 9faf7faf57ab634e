//! Test fixtures for the XJoin reproduction: the seeded instance generators
//! and canned queries the root integration suites and `examples/` share.
//!
//! * [`fig3_tight`] — the AGM-tight instance of the Figure 3 query, built
//!   from the dual (vertex packing) solution per Lemma 3.2: the twig-only
//!   bound `n^5` is attained while the combined bound stays `n^2`, so the
//!   baseline's `Q2` blows up and XJoin does not.
//! * [`fig3_random`] — a uniform random instance of the same query (the
//!   "synthetic data" style of the paper's bar chart).
//! * [`bookstore`] — the Figure 1 scenario (orders table ⋈ invoices
//!   document).
//! * [`graph_instance`], [`zipf_graph_instance`], [`branch_skew_instance`] —
//!   pure-relational triangle / clique / skew instances.

#![warn(missing_docs)]

use relational::{Database, Relation, Schema, Value};
use xjoin_core::MultiModelQuery;
use xmldb::{TagIndex, XmlDocument};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The twig of Figures 2 and 3: `A[/B][/D][//C[/E[//F[/H]][//G]]]`.
pub const FIG3_TWIG: &str = "//A[/B][/D]//C[/E[//F[/H]][//G]]";

/// A generated multi-model instance.
pub struct Instance {
    /// Relational side (owns the shared dictionary).
    pub db: Database,
    /// XML side.
    pub doc: XmlDocument,
}

impl Instance {
    /// Builds the tag index over the document.
    pub fn index(&self) -> TagIndex {
        TagIndex::build(&self.doc)
    }
}

/// The Figure 3 query: `R1(A,B,C,D) ⋈ R2(E,F,G,H) ⋈ twig`.
pub fn fig3_query() -> MultiModelQuery {
    MultiModelQuery::new(&["R1", "R2"], &[FIG3_TWIG]).expect("twig parses")
}

/// The Figure 2 / Example 3.3 query: `R1(B,D) ⋈ R2(F,G,H) ⋈ twig`.
pub fn fig2_query() -> MultiModelQuery {
    MultiModelQuery::new(&["R1", "R2"], &[FIG3_TWIG]).expect("twig parses")
}

// Distinct value offsets per attribute so tags never collide accidentally.
const B0: i64 = 100_000;
const D0: i64 = 200_000;
const E0: i64 = 300_000;
const H0: i64 = 400_000;
const G0: i64 = 500_000;
const A_VAL: i64 = 1;
const C_VAL: i64 = 2;
const F_VAL: i64 = 3;

/// AGM-tight Figure 3 instance of size parameter `n`:
///
/// * `R1(A,B,C,D) = {(a, b_i, c, d_i)}` (diagonal, `n` tuples);
/// * `R2(E,F,G,H) = {(e_j, f, g_j, h_j)}` (diagonal, `n` tuples);
/// * document: one `A` with `n` `B` children, `n` `D` children, and a `C`
///   child holding `n` `E` nodes, each with an `F` over `n` `H` children
///   plus `n` `G` children.
///
/// Twig matches: `n^5` (the twig-only bound). Combined result: `n^2`.
pub fn fig3_tight(n: usize) -> Instance {
    let mut db = Database::new();
    let r1: Vec<Vec<Value>> = (0..n as i64)
        .map(|i| {
            vec![
                Value::Int(A_VAL),
                Value::Int(B0 + i),
                Value::Int(C_VAL),
                Value::Int(D0 + i),
            ]
        })
        .collect();
    db.load("R1", Schema::of(&["A", "B", "C", "D"]), r1)
        .expect("load R1");
    let r2: Vec<Vec<Value>> = (0..n as i64)
        .map(|j| {
            vec![
                Value::Int(E0 + j),
                Value::Int(F_VAL),
                Value::Int(G0 + j),
                Value::Int(H0 + j),
            ]
        })
        .collect();
    db.load("R2", Schema::of(&["E", "F", "G", "H"]), r2)
        .expect("load R2");

    let mut dict = db.dict().clone();
    let mut b = XmlDocument::builder();
    b.begin("A");
    b.value(A_VAL);
    for i in 0..n as i64 {
        b.leaf("B", B0 + i);
    }
    for i in 0..n as i64 {
        b.leaf("D", D0 + i);
    }
    b.begin("C");
    b.value(C_VAL);
    for j in 0..n as i64 {
        b.begin("E");
        b.value(E0 + j);
        b.begin("F");
        b.value(F_VAL);
        for k in 0..n as i64 {
            b.leaf("H", H0 + k);
        }
        b.end(); // F
        for k in 0..n as i64 {
            b.leaf("G", G0 + k);
        }
        b.end(); // E
    }
    b.end(); // C
    b.end(); // A
    let doc = b.build(&mut dict);
    *db.dict_mut() = dict;
    Instance { db, doc }
}

/// Random Figure 3 instance: relations drawn uniformly over per-attribute
/// domains of size `domain`, document shaped like [`fig3_tight`] but with
/// random values. With `domain ≈ n` the baseline typically materialises one
/// to two orders of magnitude more intermediate tuples than XJoin — the
/// regime of the paper's bar chart.
pub fn fig3_random(n: usize, domain: i64, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let draw = |rng: &mut StdRng, base: i64| Value::Int(base + rng.gen_range(0..domain));
    let r1: Vec<Vec<Value>> = (0..n)
        .map(|_| {
            vec![
                Value::Int(A_VAL),
                draw(&mut rng, B0),
                Value::Int(C_VAL),
                draw(&mut rng, D0),
            ]
        })
        .collect();
    db.load("R1", Schema::of(&["A", "B", "C", "D"]), r1)
        .expect("load R1");
    let r2: Vec<Vec<Value>> = (0..n)
        .map(|_| {
            vec![
                draw(&mut rng, E0),
                Value::Int(F_VAL),
                draw(&mut rng, G0),
                draw(&mut rng, H0),
            ]
        })
        .collect();
    db.load("R2", Schema::of(&["E", "F", "G", "H"]), r2)
        .expect("load R2");

    let mut dict = db.dict().clone();
    let mut b = XmlDocument::builder();
    b.begin("A");
    b.value(A_VAL);
    for _ in 0..n {
        let v = B0 + rng.gen_range(0..domain);
        b.leaf("B", v);
    }
    for _ in 0..n {
        let v = D0 + rng.gen_range(0..domain);
        b.leaf("D", v);
    }
    b.begin("C");
    b.value(C_VAL);
    for _ in 0..n {
        b.begin("E");
        let e = E0 + rng.gen_range(0..domain);
        b.value(e);
        b.begin("F");
        b.value(F_VAL);
        for _ in 0..n {
            let h = H0 + rng.gen_range(0..domain);
            b.leaf("H", h);
        }
        b.end();
        for _ in 0..n {
            let g = G0 + rng.gen_range(0..domain);
            b.leaf("G", g);
        }
        b.end();
    }
    b.end();
    b.end();
    let doc = b.build(&mut dict);
    *db.dict_mut() = dict;
    Instance { db, doc }
}

/// Example 3.3 instance: `R1(B,D)`, `R2(F,G,H)` uniform diagonals of size
/// `n`, over the same document as [`fig3_tight`].
pub fn fig2_instance(n: usize) -> Instance {
    let base = fig3_tight(n);
    let mut db = Database::new();
    *db.dict_mut() = base.db.dict().clone();
    let r1: Vec<Vec<Value>> = (0..n as i64)
        .map(|i| vec![Value::Int(B0 + i), Value::Int(D0 + i)])
        .collect();
    db.load("R1", Schema::of(&["B", "D"]), r1).expect("load R1");
    let r2: Vec<Vec<Value>> = (0..n as i64)
        .map(|j| vec![Value::Int(F_VAL), Value::Int(G0 + j), Value::Int(H0 + j)])
        .collect();
    db.load("R2", Schema::of(&["F", "G", "H"]), r2)
        .expect("load R2");
    Instance { db, doc: base.doc }
}

/// A random undirected graph as a symmetric edge relation `E(src, dst)`
/// (both directions stored), with a trivial one-node document so the
/// instance runs through the multi-model [`xjoin_core::DataContext`]. The
/// workhorse of the worst-case optimal literature's triangle/clique
/// queries — and of the morsel-parallel suites, whose top join attribute
/// (`a`) has one root value per vertex to shard on.
pub fn graph_instance(nodes: usize, edges: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(edges * 2);
    for _ in 0..edges {
        let u = rng.gen_range(0..nodes as i64);
        let v = rng.gen_range(0..nodes as i64);
        if u == v {
            continue;
        }
        rows.push(vec![Value::Int(u), Value::Int(v)]);
        rows.push(vec![Value::Int(v), Value::Int(u)]);
    }
    let mut db = Database::new();
    db.load("E", Schema::of(&["src", "dst"]), rows)
        .expect("load edges");
    let mut dict = db.dict().clone();
    let mut b = XmlDocument::builder();
    b.begin("graph");
    b.end();
    let doc = b.build(&mut dict);
    *db.dict_mut() = dict;
    Instance { db, doc }
}

/// Draws one node id from a Zipf(`s`) distribution over `0..nodes` via
/// inverse-CDF lookup on the precomputed cumulative weights.
fn zipf_draw(rng: &mut StdRng, cdf: &[f64]) -> i64 {
    let total = *cdf.last().expect("nonempty domain");
    let u = rng.gen_range(0.0..total);
    cdf.partition_point(|&c| c <= u) as i64
}

/// Cumulative Zipf weights `Σ 1/(i+1)^s` for `i in 0..nodes`.
fn zipf_cdf(nodes: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    (0..nodes)
        .map(|i| {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            acc
        })
        .collect()
}

/// A random undirected graph whose endpoints are drawn from a Zipf(`skew`)
/// distribution over the vertex ids instead of uniformly — low-numbered
/// vertices become heavy hitters whose adjacency lists dwarf the tail, the
/// degree skew that separates static variable orders from runtime-adaptive
/// ones. `skew = 0.0` degenerates to [`graph_instance`]'s uniform draw.
/// Seeded and fully deterministic.
pub fn zipf_graph_instance(nodes: usize, edges: usize, skew: f64, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let cdf = zipf_cdf(nodes, skew);
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(edges * 2);
    for _ in 0..edges {
        let u = zipf_draw(&mut rng, &cdf);
        let v = zipf_draw(&mut rng, &cdf);
        if u == v {
            continue;
        }
        rows.push(vec![Value::Int(u), Value::Int(v)]);
        rows.push(vec![Value::Int(v), Value::Int(u)]);
    }
    let mut db = Database::new();
    db.load("E", Schema::of(&["src", "dst"]), rows)
        .expect("load edges");
    let mut dict = db.dict().clone();
    let mut b = XmlDocument::builder();
    b.begin("graph");
    b.end();
    let doc = b.build(&mut dict);
    *db.dict_mut() = dict;
    Instance { db, doc }
}

// Value offsets of the branch-skew workload: heavy fanout values and the
// per-key light values live in disjoint ranges.
const SKEW_HEAVY_B0: i64 = 1_000_000;
const SKEW_HEAVY_C0: i64 = 2_000_000;
const SKEW_LIGHT_B0: i64 = 500_000;
const SKEW_LIGHT_C0: i64 = 600_000;

/// The skew-adversarial branch workload:
/// `Q(a, b, c) :- R(a, b), S(a, c), F(b), G(c)`.
///
/// Per key `a`, the result is the product of the two filtered branches.
/// Even keys fan out `heavy` wide on the `b` branch (every heavy `b` passes
/// `F`) while their single light `c` passes `G` only when `a % 16 == 0`;
/// odd keys mirror this on the `c` branch (light `b` passes `F` only when
/// `a % 16 == 1`). So on half the keys the *thin* branch almost always
/// kills the subtree — but which branch is thin alternates with the parity
/// of `a`. Any static order pays the `heavy`-wide expansion on one parity
/// class; a runtime-adaptive walk binds the thin branch first on both and
/// fails fast everywhere. Deterministic by construction (no RNG).
pub fn branch_skew_instance(keys: usize, heavy: usize) -> Instance {
    let mut r_rows: Vec<Vec<Value>> = Vec::new();
    let mut s_rows: Vec<Vec<Value>> = Vec::new();
    for a in 0..keys as i64 {
        let light_b = SKEW_LIGHT_B0 + a % 16;
        let light_c = SKEW_LIGHT_C0 + a % 16;
        if a % 2 == 0 {
            for k in 0..heavy as i64 {
                r_rows.push(vec![Value::Int(a), Value::Int(SKEW_HEAVY_B0 + k)]);
            }
            s_rows.push(vec![Value::Int(a), Value::Int(light_c)]);
        } else {
            r_rows.push(vec![Value::Int(a), Value::Int(light_b)]);
            for k in 0..heavy as i64 {
                s_rows.push(vec![Value::Int(a), Value::Int(SKEW_HEAVY_C0 + k)]);
            }
        }
    }
    let mut f_rows: Vec<Vec<Value>> = vec![vec![Value::Int(SKEW_LIGHT_B0 + 1)]];
    f_rows.extend((0..heavy as i64).map(|k| vec![Value::Int(SKEW_HEAVY_B0 + k)]));
    let mut g_rows: Vec<Vec<Value>> = vec![vec![Value::Int(SKEW_LIGHT_C0)]];
    g_rows.extend((0..heavy as i64).map(|k| vec![Value::Int(SKEW_HEAVY_C0 + k)]));

    let mut db = Database::new();
    db.load("R", Schema::of(&["a", "b"]), r_rows)
        .expect("load R");
    db.load("S", Schema::of(&["a", "c"]), s_rows)
        .expect("load S");
    db.load("F", Schema::of(&["b"]), f_rows).expect("load F");
    db.load("G", Schema::of(&["c"]), g_rows).expect("load G");
    let mut dict = db.dict().clone();
    let mut b = XmlDocument::builder();
    b.begin("graph");
    b.end();
    let doc = b.build(&mut dict);
    *db.dict_mut() = dict;
    Instance { db, doc }
}

/// The query over [`branch_skew_instance`]:
/// `Q(a, b, c) :- R(a, b), S(a, c), F(b), G(c)`.
pub fn branch_skew_query() -> MultiModelQuery {
    MultiModelQuery::new::<&str>(&["R", "S", "F", "G"], &[]).expect("no twigs to parse")
}

/// The triangle query over [`graph_instance`]:
/// `Q(a, b, c) :- E(a, b), E(b, c), E(a, c)`.
pub fn triangle_query() -> MultiModelQuery {
    MultiModelQuery::default()
        .with_renamed_relation("E", &["a", "b"])
        .with_renamed_relation("E", &["b", "c"])
        .with_renamed_relation("E", &["a", "c"])
}

/// The 4-clique query over [`graph_instance`]: six edge atoms over
/// `(a, b, c, d)`.
pub fn clique4_query() -> MultiModelQuery {
    MultiModelQuery::default()
        .with_renamed_relation("E", &["a", "b"])
        .with_renamed_relation("E", &["a", "c"])
        .with_renamed_relation("E", &["a", "d"])
        .with_renamed_relation("E", &["b", "c"])
        .with_renamed_relation("E", &["b", "d"])
        .with_renamed_relation("E", &["c", "d"])
}

/// The Figure 1 bookstore scenario.
pub fn bookstore() -> Instance {
    let mut db = Database::new();
    db.load(
        "R",
        Schema::of(&["orderID", "userID"]),
        vec![
            vec![Value::Int(10963), Value::str("jack")],
            vec![Value::Int(20134), Value::str("tom")],
            vec![Value::Int(35768), Value::str("bob")],
        ],
    )
    .expect("load orders");
    let xml = "<invoices>\
        <orderLine><orderID>10963</orderID><ISBN>978-3-16-1</ISBN>\
        <price>30</price><discount>0.1</discount></orderLine>\
        <orderLine><orderID>20134</orderID><ISBN>634-3-12-2</ISBN>\
        <price>20</price><discount>0.3</discount></orderLine>\
        </invoices>";
    let mut dict = db.dict().clone();
    let doc = xmldb::parse_xml(xml, &mut dict).expect("bookstore XML parses");
    *db.dict_mut() = dict;
    Instance { db, doc }
}

/// The Figure 1 query: `Q(userID, ISBN, price)`.
pub fn bookstore_query() -> MultiModelQuery {
    MultiModelQuery::new(&["R"], &["//invoices/orderLine[/orderID][/ISBN][/price]"])
        .expect("twig parses")
        .with_output(&["userID", "ISBN", "price"])
}

/// Expected relation cardinalities of the tight instance (used in tests).
pub fn fig3_tight_expectations(n: usize) -> Fig3Expectations {
    Fig3Expectations {
        q_result: n * n,
        twig_matches: n.pow(5),
        q1: n * n,
        doc_nodes: 2 + 2 * n + n * (2 + 2 * n),
    }
}

/// Cardinalities predicted for the tight instance.
pub struct Fig3Expectations {
    /// Final result size (`n^2`).
    pub q_result: usize,
    /// Twig-only match count (`n^5`).
    pub twig_matches: usize,
    /// Relational-only result size (`n^2`).
    pub q1: usize,
    /// Document node count.
    pub doc_nodes: usize,
}

/// Reference helper: a relation's contents as decoded values (tests).
pub fn decoded(db: &Database, rel: &Relation) -> Vec<Vec<Value>> {
    db.decode(rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xjoin_core::{baseline, xjoin, BaselineConfig, DataContext, XJoinConfig};

    #[test]
    fn tight_instance_has_predicted_shape() {
        let n = 3;
        let inst = fig3_tight(n);
        let exp = fig3_tight_expectations(n);
        assert_eq!(inst.doc.len(), exp.doc_nodes);
        assert_eq!(inst.db.relation("R1").unwrap().len(), n);
        assert_eq!(inst.db.relation("R2").unwrap().len(), n);
        let idx = inst.index();
        let matches = xmldb::matcher::count_matches(
            &inst.doc,
            &idx,
            &xmldb::TwigPattern::parse(FIG3_TWIG).unwrap(),
        );
        assert_eq!(matches, exp.twig_matches);
    }

    #[test]
    fn tight_instance_engines_agree_and_hit_n2() {
        let n = 3;
        let inst = fig3_tight(n);
        let idx = inst.index();
        let ctx = DataContext::new(&inst.db, &inst.doc, &idx);
        let q = fig3_query();
        let x = xjoin(&ctx, &q, &XJoinConfig::default()).unwrap();
        let b = baseline(&ctx, &q, &BaselineConfig::default()).unwrap();
        let b_aligned = b.results.project(x.results.schema().attrs()).unwrap();
        assert!(x.results.set_eq(&b_aligned));
        assert_eq!(x.results.len(), n * n);
        // The paper's claim: baseline intermediates reach n^5 while XJoin
        // stays at n^2.
        assert!(b.stats.max_intermediate() >= n.pow(5));
        assert!(x.stats.max_intermediate() <= n * n);
    }

    #[test]
    fn random_instance_engines_agree() {
        for seed in 0..3 {
            let inst = fig3_random(4, 4, seed);
            let idx = inst.index();
            let ctx = DataContext::new(&inst.db, &inst.doc, &idx);
            let q = fig3_query();
            let x = xjoin(&ctx, &q, &XJoinConfig::default()).unwrap();
            let b = baseline(&ctx, &q, &BaselineConfig::default()).unwrap();
            let b_aligned = b.results.project(x.results.schema().attrs()).unwrap();
            assert!(x.results.set_eq(&b_aligned), "seed {seed}");
        }
    }

    #[test]
    fn bookstore_returns_figure_1_rows() {
        let inst = bookstore();
        let idx = inst.index();
        let ctx = DataContext::new(&inst.db, &inst.doc, &idx);
        let out = xjoin(&ctx, &bookstore_query(), &XJoinConfig::default()).unwrap();
        assert_eq!(out.results.len(), 2);
        let rows = decoded(&inst.db, &out.results);
        assert!(rows.contains(&vec![
            Value::str("jack"),
            Value::str("978-3-16-1"),
            Value::Int(30)
        ]));
    }

    #[test]
    fn graph_queries_agree_across_engines() {
        use xjoin_core::{execute, EngineKind, ExecOptions};
        let inst = graph_instance(12, 40, 7);
        let idx = inst.index();
        let ctx = DataContext::new(&inst.db, &inst.doc, &idx);
        for q in [triangle_query(), clique4_query()] {
            let reference = execute(&ctx, &q, &ExecOptions::default()).unwrap();
            for kind in [
                EngineKind::Lftj,
                EngineKind::Generic,
                EngineKind::XJoinStream,
            ] {
                let out = execute(&ctx, &q, &ExecOptions::for_engine(kind)).unwrap();
                assert!(out.results.set_eq(&reference.results), "engine {kind}");
            }
        }
        // Symmetric edges: a triangle appears in all 6 vertex orderings.
        let triangles = execute(&ctx, &triangle_query(), &ExecOptions::default())
            .unwrap()
            .results
            .len();
        assert_eq!(triangles % 6, 0);
    }

    #[test]
    fn zipf_graph_is_deterministic_and_skewed() {
        let a = zipf_graph_instance(64, 400, 1.2, 11);
        let b = zipf_graph_instance(64, 400, 1.2, 11);
        let rel_a = a.db.relation("E").unwrap();
        let rel_b = b.db.relation("E").unwrap();
        assert_eq!(decoded(&a.db, rel_a), decoded(&b.db, rel_b));
        // Heavy hitter: vertex 0 appears far above the uniform expectation.
        let zeros = decoded(&a.db, rel_a)
            .iter()
            .filter(|row| row[0] == Value::Int(0))
            .count();
        let mean = rel_a.len() / 64;
        assert!(zeros > 3 * mean, "zeros={zeros} mean={mean}");
    }

    #[test]
    fn branch_skew_engines_agree_across_orders() {
        use xjoin_core::{execute, EngineKind, ExecOptions, Ladder, OrderStrategy};
        let inst = branch_skew_instance(48, 8);
        let idx = inst.index();
        let ctx = DataContext::new(&inst.db, &inst.doc, &idx);
        let q = branch_skew_query();
        let reference = execute(&ctx, &q, &ExecOptions::default()).unwrap();
        // Only keys with a surviving light value on the thin branch join:
        // a % 16 == 0 (even, light c in G) and a % 16 == 1 (odd, light b in
        // F) — 3 keys each in 0..48, times the heavy fanout of 8.
        assert_eq!(reference.results.len(), 6 * 8);
        for order in [
            OrderStrategy::Cardinality,
            OrderStrategy::Adaptive {
                ladder: Ladder::Refined,
            },
            OrderStrategy::Adaptive {
                ladder: Ladder::RowCount,
            },
        ] {
            for kind in [EngineKind::Lftj, EngineKind::XJoinStream] {
                let opts = ExecOptions {
                    engine: kind,
                    order: order.clone(),
                    ..ExecOptions::default()
                };
                let out = execute(&ctx, &q, &opts).unwrap();
                let aligned = out
                    .results
                    .project(reference.results.schema().attrs())
                    .unwrap();
                assert!(
                    aligned.set_eq(&reference.results),
                    "engine {kind} order {order:?}"
                );
            }
        }
    }

    #[test]
    fn fig2_instance_loads() {
        let inst = fig2_instance(2);
        assert_eq!(inst.db.relation("R1").unwrap().arity(), 2);
        assert_eq!(inst.db.relation("R2").unwrap().arity(), 3);
    }
}
