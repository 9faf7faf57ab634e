//! Expected answers, computed from the generated data with hash sets and
//! adjacency lists only: nothing here calls a join engine, a trie or the
//! query parser. An answer is a row count plus an order-independent
//! checksum (the wrapping sum of a hash of each row's values).

use crate::gen::{Bookstore, BranchData, ChurnData, FigData, A_VAL, C_VAL, F_VAL};
use crate::rng::splitmix64;
use relational::Value;
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};

fn hash_value(v: &Value) -> u64 {
    match v {
        Value::Int(i) => splitmix64(&mut (*i as u64)),
        Value::Str(s) => {
            // FNV-1a over the bytes, then mixed like an integer.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in s.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            splitmix64(&mut (h ^ 0x5bd1_e995))
        }
    }
}

/// Hash of one row; sensitive to column order.
pub fn hash_row(values: impl IntoIterator<Item = impl Borrow<Value>>) -> u64 {
    let mut h = 0x243f_6a88_85a3_08d3u64;
    for v in values {
        h = (h.rotate_left(7) ^ hash_value(v.borrow())).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    h
}

fn hash_ints(row: &[i64]) -> u64 {
    hash_row(row.iter().map(|&i| Value::Int(i)))
}

/// What a query must return.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Expect {
    pub rows: u64,
    pub checksum: u64,
}

impl Expect {
    pub fn add(&mut self, row_hash: u64) {
        self.rows += 1;
        self.checksum = self.checksum.wrapping_add(row_hash);
    }

    pub fn of_int_rows<'a>(rows: impl IntoIterator<Item = &'a [i64]>) -> Expect {
        let mut e = Expect::default();
        for r in rows {
            e.add(hash_ints(r));
        }
        e
    }
}

/// The answer a reply actually carried, to compare with an [`Expect`].
pub fn observed<R>(rows: impl IntoIterator<Item = R>) -> Expect
where
    R: IntoIterator,
    R::Item: Borrow<Value>,
{
    let mut e = Expect::default();
    for r in rows {
        e.add(hash_row(r));
    }
    e
}

/// Rows `(A..H)` of the Figure-2/3 query on `data`: the twig embeddings that
/// agree with a tuple of each relation. Reads attribute values by name, so
/// it covers both `R1(A,B,C,D) ⋈ R2(E,F,G,H)` and `R1(B,D) ⋈ R2(F,G,H)`.
pub fn fig_expected(data: &FigData) -> Expect {
    let get = |attrs: &[&str], row: &[i64], name: &str| -> Option<i64> {
        attrs.iter().position(|a| *a == name).map(|p| row[p])
    };
    let (bs, ds): (HashSet<i64>, HashSet<i64>) = (
        data.doc.b.iter().copied().collect(),
        data.doc.d.iter().copied().collect(),
    );
    let mut left: HashSet<(i64, i64)> = HashSet::new();
    for row in &data.r1 {
        let attr = |name| get(data.r1_attrs, row, name);
        let (b, d) = (attr("B").expect("R1 has B"), attr("D").expect("R1 has D"));
        if attr("A").is_none_or(|a| a == A_VAL)
            && attr("C").is_none_or(|c| c == C_VAL)
            && bs.contains(&b)
            && ds.contains(&d)
        {
            left.insert((b, d));
        }
    }
    let mut right: HashSet<(i64, i64, i64)> = HashSet::new();
    for node in &data.doc.es {
        let (hs, gs): (HashSet<i64>, HashSet<i64>) = (
            node.h.iter().copied().collect(),
            node.g.iter().copied().collect(),
        );
        for row in &data.r2 {
            let attr = |name| get(data.r2_attrs, row, name);
            let (g, h) = (attr("G").expect("R2 has G"), attr("H").expect("R2 has H"));
            if attr("E").is_none_or(|e| e == node.e)
                && attr("F").is_none_or(|f| f == F_VAL)
                && gs.contains(&g)
                && hs.contains(&h)
            {
                right.insert((node.e, g, h));
            }
        }
    }
    let mut out = Expect::default();
    for &(b, d) in &left {
        for &(e, g, h) in &right {
            out.add(hash_ints(&[A_VAL, b, C_VAL, d, e, F_VAL, g, h]));
        }
    }
    out
}

/// Rows `(userID, ISBN, price)`: one per order line whose order exists.
pub fn bookstore_expected(data: &Bookstore) -> Expect {
    let users: HashMap<i64, &str> = data
        .orders
        .iter()
        .map(|(id, u)| (*id, u.as_str()))
        .collect();
    let mut out = Expect::default();
    for line in &data.lines {
        if let Some(user) = users.get(&line.order) {
            out.add(hash_row(&[
                Value::str(*user),
                Value::str(line.isbn.clone()),
                Value::Int(line.price),
            ]));
        }
    }
    out
}

/// Sorted adjacency lists of an undirected graph.
pub struct Adj(Vec<Vec<i64>>);

impl Adj {
    pub fn new(nodes: usize, edges: &[(i64, i64)]) -> Adj {
        let mut adj = Adj(vec![Vec::new(); nodes]);
        for &e in edges {
            adj.insert(e);
        }
        adj
    }

    pub fn insert(&mut self, (u, v): (i64, i64)) {
        for (x, y) in [(u, v), (v, u)] {
            let list = &mut self.0[x as usize];
            if let Err(pos) = list.binary_search(&y) {
                list.insert(pos, y);
            }
        }
    }

    pub fn of(&self, v: i64) -> &[i64] {
        &self.0[v as usize]
    }

    fn has(&self, u: i64, v: i64) -> bool {
        self.of(u).binary_search(&v).is_ok()
    }

    fn common(&self, u: i64, v: i64) -> Vec<i64> {
        self.of(u)
            .iter()
            .copied()
            .filter(|&w| self.has(v, w))
            .collect()
    }

    /// Rows `(a, b)` of the symmetric edge relation.
    pub fn directed(&self) -> impl Iterator<Item = (i64, i64)> + '_ {
        self.0
            .iter()
            .enumerate()
            .flat_map(|(a, list)| list.iter().map(move |&b| (a as i64, b)))
    }

    /// `Q(a,b,c) :- E(a,b), E(b,c), E(a,c)` on the symmetric relation.
    pub fn triangles(&self) -> Expect {
        let mut out = Expect::default();
        for (a, b) in self.directed() {
            for c in self.common(a, b) {
                out.add(hash_ints(&[a, b, c]));
            }
        }
        out
    }

    /// The 4-clique query over `(a,b,c,d)`.
    pub fn cliques4(&self) -> Expect {
        let mut out = Expect::default();
        for (a, b) in self.directed() {
            let common = self.common(a, b);
            for &c in &common {
                for &d in &common {
                    if self.has(c, d) {
                        out.add(hash_ints(&[a, b, c, d]));
                    }
                }
            }
        }
        out
    }

    /// `Q(b) :- E(a, b)` for a constant `a`.
    pub fn neighbours(&self, a: i64) -> Expect {
        Expect::of_int_rows(self.of(a).iter().map(std::slice::from_ref))
    }
}

/// Rows `(a,b,c)` of `R(a,b), S(a,c), F(b), G(c)`.
pub fn branch_expected(data: &BranchData) -> Expect {
    let (f, g): (HashSet<i64>, HashSet<i64>) = (
        data.f.iter().copied().collect(),
        data.g.iter().copied().collect(),
    );
    let mut cs: HashMap<i64, Vec<i64>> = HashMap::new();
    for &(a, c) in &data.s {
        if g.contains(&c) {
            cs.entry(a).or_default().push(c);
        }
    }
    let mut out = Expect::default();
    for &(a, b) in &data.r {
        if f.contains(&b) {
            for &c in cs.get(&a).map_or(&[][..], Vec::as_slice) {
                out.add(hash_ints(&[a, b, c]));
            }
        }
    }
    out
}

/// Expected answers of the churn workload's two reads after `k` write
/// batches, for `k` in `0..=batches` (later writes repeat rows, so the last
/// entry holds from then on). Built incrementally: the rows a new `R` edge
/// adds are those it closes into a filtered triangle.
///
/// * hot: `Q(a,b,c) :- F(a), S(b,c), T(a,c), R(a,b)`, `S = T =` base edges;
/// * cold: the same shape over the archive, `A(b,c), B(a,c), R(a,b)`.
pub struct ChurnExpect {
    pub hot: Vec<Expect>,
    pub cold: Vec<Expect>,
}

pub fn churn_expected(data: &ChurnData) -> ChurnExpect {
    let base = Adj::new(data.nodes, &data.base);
    let archive = Adj::new(data.nodes, &data.archive);
    let filter: HashSet<i64> = data.filter.iter().copied().collect();
    let rows_of = |side: &Adj, (u, v): (i64, i64), into: &mut Expect| {
        for (a, b) in [(u, v), (v, u)] {
            if filter.contains(&a) {
                // c with side(b,c) and side(a,c).
                for c in side.common(b, a) {
                    into.add(hash_ints(&[a, b, c]));
                }
            }
        }
    };
    let (mut hot, mut cold) = (Expect::default(), Expect::default());
    for &e in &data.r {
        rows_of(&base, e, &mut hot);
        rows_of(&archive, e, &mut cold);
    }
    let mut out = ChurnExpect {
        hot: vec![hot],
        cold: vec![cold],
    };
    for k in 0..data.batches() {
        for &e in data.batch_edges(k) {
            rows_of(&base, e, &mut hot);
            rows_of(&archive, e, &mut cold);
        }
        out.hot.push(hot);
        out.cold.push(cold);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::rng::Rng;

    #[test]
    fn closed_forms_of_the_paper_instances() {
        let n = 5;
        assert_eq!(fig_expected(&gen::fig3_tight(&mut Rng::new(1), n)).rows, 25);
        assert_eq!(fig_expected(&gen::fig2(&mut Rng::new(1), n)).rows, 125);
    }

    #[test]
    fn triangles_and_cliques_of_k4() {
        let k4: Vec<(i64, i64)> = vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let adj = Adj::new(4, &k4);
        assert_eq!(adj.triangles().rows, 4 * 6);
        assert_eq!(adj.cliques4().rows, 24);
        assert_eq!(adj.neighbours(2).rows, 3);
    }

    #[test]
    fn branch_skew_survivors() {
        // 64 keys: i % 32 == 0 survives through G, i % 32 == 1 through F.
        let d = gen::branch_skew(&mut Rng::new(9), 64, 6);
        assert_eq!(branch_expected(&d).rows, 4 * 6);
    }

    #[test]
    fn churn_series_matches_a_from_scratch_count() {
        let data = gen::churn(&mut Rng::new(5), 60, 400, 12, 4, 6);
        let series = churn_expected(&data);
        assert_eq!(series.hot.len(), 5);
        // From scratch on the final edge set: R = base ∪ pool.
        let base = Adj::new(data.nodes, &data.base);
        let mut r_edges = data.r.clone();
        r_edges.extend(&data.pool);
        let mut scratch = Expect::default();
        for (a, b) in Adj::new(data.nodes, &r_edges).directed() {
            if data.filter.contains(&a) {
                for c in base.common(b, a) {
                    scratch.add(hash_ints(&[a, b, c]));
                }
            }
        }
        assert_eq!(*series.hot.last().unwrap(), scratch);
        assert!(series.hot.windows(2).all(|w| w[0].rows <= w[1].rows));
    }
}
