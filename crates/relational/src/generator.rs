//! Synthetic relation generators for tests and benchmarks.
//!
//! Two families:
//! * uniform random tables — the "synthetic data" style evaluation of the
//!   paper's Figure 3;
//! * AGM-tight *product* instances — the construction of the paper's
//!   Lemma 3.2 (and AGM's lower bound): assign each attribute a domain sized
//!   `n^{y_a}` for a dual-feasible `y` and let each relation be the cartesian
//!   product of its attributes' domains, so the join truly reaches the
//!   worst-case bound.

use crate::relation::Relation;
use crate::schema::{Attr, Schema};
use crate::value::{Dict, Value, ValueId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Interns the `i`-th domain value. All attributes share one global integer
/// domain, so equal indices join across relations and (via the shared
/// dictionary) across data models.
pub fn domain_value(dict: &mut Dict, i: u64) -> ValueId {
    dict.int(i as i64)
}

/// Generates `rows` random tuples over `schema`, each attribute drawn
/// uniformly from `0..domain` (dictionary-encoded ints). Duplicates are
/// removed, so the result may hold slightly fewer than `rows` tuples.
pub fn random_relation(
    dict: &mut Dict,
    schema: Schema,
    rows: usize,
    domain: u64,
    seed: u64,
) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let arity = schema.arity();
    let mut rel = Relation::with_capacity(schema, rows);
    let mut buf = Vec::with_capacity(arity);
    for _ in 0..rows {
        buf.clear();
        for _ in 0..arity {
            buf.push(domain_value(dict, rng.gen_range(0..domain)));
        }
        rel.push(&buf).expect("arity matches");
    }
    rel.sort_dedup();
    rel
}

/// Builds the cartesian product of per-attribute domains: the relation
/// `D_1 × … × D_k` where `D_i = {offsets[i] .. offsets[i] + sizes[i]}`.
///
/// With `sizes[i] = n^{y_i}` for a fractional vertex packing `y`, this is the
/// AGM-tight instance: the relation has `∏ sizes[i]` tuples and the join of
/// such relations attains the worst-case bound.
pub fn product_relation(
    dict: &mut Dict,
    attrs: &[Attr],
    sizes: &[usize],
    offsets: &[u64],
) -> Relation {
    assert_eq!(attrs.len(), sizes.len());
    assert_eq!(attrs.len(), offsets.len());
    let schema = Schema::new(attrs.iter().cloned()).expect("distinct attrs");
    let total: usize = sizes.iter().product();
    let mut rel = Relation::with_capacity(schema, total);
    let mut idx = vec![0usize; sizes.len()];
    let mut buf: Vec<ValueId> = Vec::with_capacity(sizes.len());
    if sizes.contains(&0) {
        return rel;
    }
    loop {
        buf.clear();
        for (k, &i) in idx.iter().enumerate() {
            buf.push(domain_value(dict, offsets[k] + i as u64));
        }
        rel.push(&buf).expect("arity matches");
        // Odometer increment.
        let mut k = sizes.len();
        loop {
            if k == 0 {
                rel.sort_dedup();
                return rel;
            }
            k -= 1;
            idx[k] += 1;
            if idx[k] < sizes[k] {
                break;
            }
            idx[k] = 0;
        }
    }
}

/// A named-attribute helper for building small relations from integer rows
/// in tests and benchmarks.
pub fn relation_of_ints(dict: &mut Dict, names: &[&str], rows: &[&[i64]]) -> Relation {
    let mut rel = Relation::new(Schema::of(names));
    let mut buf = Vec::new();
    for row in rows {
        buf.clear();
        buf.extend(row.iter().map(|&i| dict.intern(Value::Int(i))));
        rel.push(&buf).expect("arity matches");
    }
    rel.sort_dedup();
    rel
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_relation_respects_domain() {
        let mut dict = Dict::new();
        let r = random_relation(&mut dict, Schema::of(&["a", "b"]), 100, 5, 7);
        assert!(r.len() <= 100);
        assert!(!r.is_empty());
        for row in r.rows() {
            for &v in row {
                let val = dict.decode(v).as_int().unwrap();
                assert!((0..5).contains(&val));
            }
        }
    }

    #[test]
    fn random_relation_is_deterministic_per_seed() {
        let mut d1 = Dict::new();
        let mut d2 = Dict::new();
        let r1 = random_relation(&mut d1, Schema::of(&["a"]), 50, 100, 42);
        let r2 = random_relation(&mut d2, Schema::of(&["a"]), 50, 100, 42);
        assert_eq!(r1, r2);
        let r3 = random_relation(&mut d2, Schema::of(&["a"]), 50, 100, 43);
        assert_ne!(r1, r3);
    }

    #[test]
    fn product_relation_has_product_cardinality() {
        let mut dict = Dict::new();
        let attrs: Vec<Attr> = ["a", "b", "c"].iter().map(|&n| Attr::new(n)).collect();
        let r = product_relation(&mut dict, &attrs, &[3, 1, 4], &[0, 100, 200]);
        assert_eq!(r.len(), 12);
    }

    #[test]
    fn product_relation_with_empty_domain_is_empty() {
        let mut dict = Dict::new();
        let attrs: Vec<Attr> = ["a"].iter().map(|&n| Attr::new(n)).collect();
        let r = product_relation(&mut dict, &attrs, &[0], &[0]);
        assert!(r.is_empty());
    }

    #[test]
    fn product_relations_join_to_product_bound() {
        // R(a,b) = [n] x {z}, S(b,c) = {z} x [n]  =>  |R ⋈ S| = n^2,
        // matching AGM for the path query with y = (1, 0, 1).
        use crate::generic::generic_join;
        let n = 7usize;
        let mut dict = Dict::new();
        let a: Vec<Attr> = vec!["a".into(), "b".into()];
        let b: Vec<Attr> = vec!["b".into(), "c".into()];
        let r = product_relation(&mut dict, &a, &[n, 1], &[0, 100]);
        let s = product_relation(&mut dict, &b, &[1, n], &[100, 200]);
        let order: Vec<Attr> = vec!["a".into(), "b".into(), "c".into()];
        let (out, _) = generic_join(&[&r, &s], &order).unwrap();
        assert_eq!(out.len(), n * n);
    }

    #[test]
    fn relation_of_ints_builder() {
        let mut dict = Dict::new();
        let r = relation_of_ints(&mut dict, &["x", "y"], &[&[1, 2], &[1, 2], &[3, 4]]);
        assert_eq!(r.len(), 2);
    }
}
