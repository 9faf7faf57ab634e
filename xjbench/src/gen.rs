//! Seeded input generators. They produce plain data (integer rows, edge
//! lists, XML text); `load.rs` hands that data to the program under test and
//! `oracle.rs` computes the expected answers from the same data without
//! touching any engine.

use crate::rng::Rng;
use std::collections::HashSet;

// Disjoint value ranges per Figure-3 attribute, so a tag's values never
// collide with another tag's by accident.
pub const A_VAL: i64 = 1;
pub const C_VAL: i64 = 2;
pub const F_VAL: i64 = 3;
const B0: i64 = 100_000;
const D0: i64 = 200_000;
const E0: i64 = 300_000;
const H0: i64 = 400_000;
const G0: i64 = 500_000;

/// The document of Figures 2 and 3: one `A` over `B` and `D` leaves and one
/// `C`; each `E` under `C` holds one `F` over `H` leaves, plus `G` leaves.
pub struct FigDoc {
    pub b: Vec<i64>,
    pub d: Vec<i64>,
    pub es: Vec<ENode>,
}

pub struct ENode {
    pub e: i64,
    pub h: Vec<i64>,
    pub g: Vec<i64>,
}

/// Two relations (with their attribute names) and the document.
pub struct FigData {
    pub r1_attrs: &'static [&'static str],
    pub r1: Vec<Vec<i64>>,
    pub r2_attrs: &'static [&'static str],
    pub r2: Vec<Vec<i64>>,
    pub doc: FigDoc,
}

fn offsets(base: i64, n: usize) -> Vec<i64> {
    (0..n as i64).map(|i| base + i).collect()
}

fn tight_doc(n: usize) -> FigDoc {
    FigDoc {
        b: offsets(B0, n),
        d: offsets(D0, n),
        es: (0..n as i64)
            .map(|j| ENode {
                e: E0 + j,
                h: offsets(H0, n),
                g: offsets(G0, n),
            })
            .collect(),
    }
}

/// The AGM-tight Figure-3 instance (Lemma 3.2): diagonal relations of `n`
/// tuples over a document with `n^5` twig matches; the join has `n^2` rows.
/// The seed picks which values each diagonal pairs.
pub fn fig3_tight(rng: &mut Rng, n: usize) -> FigData {
    let (pb, pd) = (rng.permutation(n), rng.permutation(n));
    let (pe, pg, ph) = (rng.permutation(n), rng.permutation(n), rng.permutation(n));
    FigData {
        r1_attrs: &["A", "B", "C", "D"],
        r1: (0..n)
            .map(|i| vec![A_VAL, B0 + pb[i], C_VAL, D0 + pd[i]])
            .collect(),
        r2_attrs: &["E", "F", "G", "H"],
        r2: (0..n)
            .map(|j| vec![E0 + pe[j], F_VAL, G0 + pg[j], H0 + ph[j]])
            .collect(),
        doc: tight_doc(n),
    }
}

/// The Figure-2 / Example 3.3 instance: `R1(B,D)` and `R2(F,G,H)` diagonals
/// over the tight document; `E` is bound by the twig alone, so the join has
/// `n^3` rows.
pub fn fig2(rng: &mut Rng, n: usize) -> FigData {
    let (pb, pd) = (rng.permutation(n), rng.permutation(n));
    let (pg, ph) = (rng.permutation(n), rng.permutation(n));
    FigData {
        r1_attrs: &["B", "D"],
        r1: (0..n).map(|i| vec![B0 + pb[i], D0 + pd[i]]).collect(),
        r2_attrs: &["F", "G", "H"],
        r2: (0..n)
            .map(|j| vec![F_VAL, G0 + pg[j], H0 + ph[j]])
            .collect(),
        doc: tight_doc(n),
    }
}

/// A uniform random Figure-3 instance: `n` tuples per relation and the tight
/// document's shape, every value drawn from a domain of `domain` per
/// attribute.
pub fn fig3_random(rng: &mut Rng, n: usize, domain: u64) -> FigData {
    let mut draw = |base: i64| base + rng.below(domain) as i64;
    let r1 = (0..n)
        .map(|_| vec![A_VAL, draw(B0), C_VAL, draw(D0)])
        .collect();
    let r2 = (0..n)
        .map(|_| vec![draw(E0), F_VAL, draw(G0), draw(H0)])
        .collect();
    let b = (0..n).map(|_| draw(B0)).collect();
    let d = (0..n).map(|_| draw(D0)).collect();
    let es = (0..n)
        .map(|_| ENode {
            e: draw(E0),
            h: (0..n).map(|_| draw(H0)).collect(),
            g: (0..n).map(|_| draw(G0)).collect(),
        })
        .collect();
    FigData {
        r1_attrs: &["A", "B", "C", "D"],
        r1,
        r2_attrs: &["E", "F", "G", "H"],
        r2,
        doc: FigDoc { b, d, es },
    }
}

/// The Figure-1 bookstore at scale: an orders table and an invoices document
/// given as XML text. A fifth of the order lines name an order that does not
/// exist and some orders have no line, so the join filters on both sides.
/// Every `orderLine` carries its line number as its own text: the paper's
/// join is on values, and lines that all share one (empty) value would join
/// every `orderID` with every `ISBN` and `price` before validation.
pub struct Bookstore {
    pub orders: Vec<(i64, String)>,
    pub lines: Vec<OrderLine>,
    pub xml: String,
}

pub struct OrderLine {
    pub order: i64,
    pub isbn: String,
    pub price: i64,
}

pub fn bookstore(rng: &mut Rng, orders: usize, lines: usize) -> Bookstore {
    let order_ids: Vec<i64> = rng
        .permutation(orders * 2)
        .into_iter()
        .map(|i| 10_000 + i)
        .collect();
    let (known, unknown) = order_ids.split_at(orders);
    let orders: Vec<(i64, String)> = known
        .iter()
        .map(|&id| (id, format!("user{}", rng.below(orders as u64 / 2 + 1))))
        .collect();
    let mut xml = String::from("<invoices>");
    let lines: Vec<OrderLine> = (0..lines)
        .map(|i| {
            let order = if rng.below(5) == 0 {
                unknown[rng.below(unknown.len() as u64) as usize]
            } else {
                known[rng.below(known.len() as u64) as usize]
            };
            let line = OrderLine {
                order,
                // Unique per line, so projecting onto (user, ISBN, price)
                // never merges two lines.
                isbn: format!("978-{}-{i}", rng.below(10)),
                price: 5 + rng.below(95) as i64,
            };
            xml.push_str(&format!(
                "<orderLine>{i}<orderID>{}</orderID><ISBN>{}</ISBN><price>{}</price>\
                 <discount>0.{}</discount></orderLine>",
                line.order,
                line.isbn,
                line.price,
                rng.below(9) + 1
            ));
            line
        })
        .collect();
    xml.push_str("</invoices>");
    Bookstore { orders, lines, xml }
}

/// `edges` distinct undirected edges over `0..nodes`, endpoints drawn by
/// `draw`; exactly `edges` of them, so tuple counts do not depend on the
/// seed.
fn distinct_edges(nodes: usize, edges: usize, mut draw: impl FnMut() -> i64) -> Vec<(i64, i64)> {
    assert!(
        edges <= nodes * (nodes - 1) / 4,
        "graph too dense to sample"
    );
    let mut seen = HashSet::with_capacity(edges);
    let mut out = Vec::with_capacity(edges);
    while out.len() < edges {
        let (u, v) = (draw(), draw());
        let e = (u.min(v), u.max(v));
        if u != v && seen.insert(e) {
            out.push(e);
        }
    }
    out
}

pub fn uniform_graph(rng: &mut Rng, nodes: usize, edges: usize) -> Vec<(i64, i64)> {
    distinct_edges(nodes, edges, || rng.below(nodes as u64) as i64)
}

/// Endpoints drawn from Zipf(`s`) over the vertex ids: low ids become heavy
/// hitters whose adjacency lists dwarf the tail.
pub fn zipf_graph(rng: &mut Rng, nodes: usize, edges: usize, s: f64) -> Vec<(i64, i64)> {
    let mut acc = 0.0;
    let cdf: Vec<f64> = (0..nodes)
        .map(|i| {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            acc
        })
        .collect();
    distinct_edges(nodes, edges, || {
        let u = rng.unit() * acc;
        cdf.partition_point(|&c| c <= u).min(nodes - 1) as i64
    })
}

/// Inputs of `Q(a,b,c) :- R(a,b), S(a,c), F(b), G(c)`.
pub struct BranchData {
    pub r: Vec<(i64, i64)>,
    pub s: Vec<(i64, i64)>,
    pub f: Vec<i64>,
    pub g: Vec<i64>,
}

/// The branch-skew instance: half the keys fan out `heavy` wide on `b` (all
/// passing `F`) over one light `c` that passes `G` for one key in sixteen; the
/// other half mirror this on `c`. Which branch is thin alternates key by
/// key, so every static order expands the wide branch on half the keys. The
/// seed assigns the key labels.
pub fn branch_skew(rng: &mut Rng, keys: usize, heavy: usize) -> BranchData {
    const HEAVY_B0: i64 = 1_000_000;
    const HEAVY_C0: i64 = 2_000_000;
    const LIGHT_B0: i64 = 500_000;
    const LIGHT_C0: i64 = 600_000;
    let labels = rng.permutation(keys);
    let (mut r, mut s) = (Vec::new(), Vec::new());
    for (i, &a) in labels.iter().enumerate() {
        let slot = (i % 32) as i64;
        if i % 2 == 0 {
            r.extend((0..heavy as i64).map(|k| (a, HEAVY_B0 + k)));
            s.push((a, LIGHT_C0 + slot));
        } else {
            r.push((a, LIGHT_B0 + slot));
            s.extend((0..heavy as i64).map(|k| (a, HEAVY_C0 + k)));
        }
    }
    let mut f = vec![LIGHT_B0 + 1];
    f.extend(offsets(HEAVY_B0, heavy));
    let mut g = vec![LIGHT_C0];
    g.extend(offsets(HEAVY_C0, heavy));
    BranchData { r, s, f, g }
}

/// The heavy-hitter star over the same query shape: `hitters` keys fan out
/// `fan` wide on both sides, the other `light` keys hold two values a side.
/// `F` passes every second `b`; `G` passes every twelfth `c`, and only one
/// hitter in four holds any such `c`. Binding `b` before `c` therefore
/// wastes `fan / 2` bindings on three hitters in four. The fan-outs are
/// fixed, so the answer's size is too; the seed assigns the key labels and
/// draws the light keys' values.
pub fn heavy_star(rng: &mut Rng, hitters: usize, fan: usize, light: usize) -> BranchData {
    const C0: i64 = 10_000_000;
    let labels = rng.permutation(hitters + light);
    let (mut r, mut s) = (Vec::new(), Vec::new());
    for (i, &a) in labels.iter().enumerate() {
        if i < hitters {
            r.extend((0..fan as i64).map(|j| (a, j)));
            // Multiples of twelve pass `G`; `12 j + 1` never does.
            let step = |j: i64| if i % 4 == 0 { j } else { 12 * j + 1 };
            s.extend((0..fan as i64).map(|j| (a, C0 + step(j))));
        } else {
            for _ in 0..2 {
                r.push((a, rng.below(fan as u64) as i64));
                s.push((a, C0 + rng.below(fan as u64) as i64));
            }
        }
    }
    r.sort_unstable();
    r.dedup();
    s.sort_unstable();
    s.dedup();
    let f = (0..fan as i64).filter(|v| v % 2 == 0).collect();
    let g = (0..12 * fan as i64)
        .filter(|v| v % 12 == 0)
        .map(|v| C0 + v)
        .collect();
    BranchData { r, s, f, g }
}

/// Inputs of the churn workload: a base edge set (loaded as `S` and `T`),
/// the churning relation `R` (at first a quarter of the base edges), an archive
/// edge set (`A`, `B`), the filter `F`, and a pool of further edges, none of
/// them a base edge, that the write batches append to `R` one after the
/// other.
pub struct ChurnData {
    pub nodes: usize,
    pub base: Vec<(i64, i64)>,
    pub r: Vec<(i64, i64)>,
    pub archive: Vec<(i64, i64)>,
    pub filter: Vec<i64>,
    pub pool: Vec<(i64, i64)>,
    /// Undirected edges per write batch (each is appended in both directions).
    pub batch: usize,
}

impl ChurnData {
    pub fn batches(&self) -> usize {
        self.pool.len() / self.batch
    }

    /// The edges of write batch `k`.
    pub fn batch_edges(&self, k: usize) -> &[(i64, i64)] {
        &self.pool[k * self.batch..(k + 1) * self.batch]
    }
}

pub fn churn(
    rng: &mut Rng,
    nodes: usize,
    edges: usize,
    filter: usize,
    batches: usize,
    batch: usize,
) -> ChurnData {
    let mut base = uniform_graph(rng, nodes, edges + batches * batch);
    let pool = base.split_off(edges);
    let archive = uniform_graph(rng, nodes, edges);
    // The filter takes every `nodes / filter`th vertex of the ranking by
    // degree, from an offset the seed draws: its members differ from seed to
    // seed, its selectivity (which follows the degrees) hardly does.
    let mut degree = vec![0usize; nodes];
    for &(u, v) in &base {
        degree[u as usize] += 1;
        degree[v as usize] += 1;
    }
    let mut ranked = rng.permutation(nodes);
    ranked.sort_by_key(|&v| degree[v as usize]);
    let stride = nodes / filter;
    let offset = rng.below(stride as u64) as usize;
    let filter_nodes: Vec<i64> = (0..filter).map(|i| ranked[offset + i * stride]).collect();
    ChurnData {
        nodes,
        r: base[..edges / 4].to_vec(),
        base,
        archive,
        filter: filter_nodes,
        pool,
        batch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = zipf_graph(&mut Rng::new(7), 200, 900, 1.1);
        assert_eq!(a, zipf_graph(&mut Rng::new(7), 200, 900, 1.1));
        assert_ne!(a, zipf_graph(&mut Rng::new(8), 200, 900, 1.1));
        assert_eq!(a.len(), 900);
        let low = a.iter().filter(|&&(u, _)| u < 4).count();
        assert!(low > 900 / 5, "zipf head holds {low} of 900 edges");
        let b = bookstore(&mut Rng::new(3), 40, 100);
        assert_eq!(b.xml, bookstore(&mut Rng::new(3), 40, 100).xml);
    }

    #[test]
    fn churn_batches_split_a_disjoint_pool() {
        let c = churn(&mut Rng::new(1), 100, 300, 8, 5, 4);
        assert_eq!(c.batches(), 5);
        assert_eq!(c.batch_edges(2).len(), 4);
        assert_eq!(c.batch_edges(4).last(), c.pool.last());
        let base: HashSet<_> = c.base.iter().collect();
        let pool: HashSet<_> = c.pool.iter().collect();
        assert!(pool.len() == 20 && pool.is_disjoint(&base));
        assert!(c.r.iter().all(|e| base.contains(e)) && c.r.len() == 75);
    }
}
