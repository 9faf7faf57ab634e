//! The paper's Figure 3 / Example 3.4 as exact counts: on the AGM-tight
//! instance of size `n` the query has `n²` results, the baseline
//! materialises the twig's `n⁵` matches on the way, and no XJoin stage
//! exceeds its Lemma 3.5 prefix bound — the last one meeting it exactly.
//! (The LP exponents 3.5, 2 and 5 of Examples 3.3 / 3.4 are pinned by the
//! `agm` crate's own tests.)

use fixtures::{fig3_query, fig3_tight};
use xjoin_core::{baseline, lower, prefix_bounds, xjoin, BaselineConfig, DataContext, XJoinConfig};

#[test]
fn xjoin_stays_at_n2_where_the_baseline_reaches_n5() {
    let query = fig3_query();
    for n in 2..=6usize {
        let inst = fig3_tight(n);
        let index = inst.index();
        let ctx = DataContext::new(&inst.db, &inst.doc, &index);

        let x = xjoin(&ctx, &query, &XJoinConfig::default()).unwrap();
        let b = baseline(&ctx, &query, &BaselineConfig::default()).unwrap();
        assert_eq!(x.results.len(), n * n, "n={n}: result size");
        assert_eq!(b.results.len(), n * n, "n={n}: baseline result size");
        assert!(x.stats.max_intermediate() <= n * n, "n={n}: {}", x.stats);
        assert!(b.stats.max_intermediate() >= n.pow(5), "n={n}: {}", b.stats);

        let atoms = lower(&ctx, &query).unwrap();
        let bounds = prefix_bounds(&atoms, &x.order).unwrap();
        let expands: Vec<usize> = x
            .stats
            .stages
            .iter()
            .filter(|s| s.label.starts_with("expand"))
            .map(|s| s.tuples)
            .collect();
        assert_eq!(expands.len(), bounds.len(), "n={n}: one bound per stage");
        for (d, (&tuples, &bound)) in expands.iter().zip(&bounds).enumerate() {
            assert!(
                tuples as f64 <= bound + 1e-6,
                "n={n}: stage {d} holds {tuples} tuples, bound {bound}"
            );
        }
        let tightness = *expands.last().unwrap() as f64 / bounds.last().unwrap();
        assert!((tightness - 1.0).abs() < 1e-6, "n={n}: {tightness}");
    }
}
