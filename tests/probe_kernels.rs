//! Differential proptest suite for the probe path: the block-wise
//! branch-reduced search must agree with the reference `gallop` on every
//! contract corner (empty ranges, `lo >= len`, single-element levels), and
//! joins over plain sorted tries and over bitset-indexed tries must
//! enumerate exactly what the nested-loop `naive_join` does — in the LFTJ
//! walk and in the level-wise join, which seek through the same core. Case
//! counts drop under Miri (`cfg!(miri)`), which interprets every load of the
//! index arithmetic.

use proptest::prelude::*;
use relational::generic::{levelwise_join, naive_join};
use relational::{
    block_seek, gallop, Attr, JoinPlan, LftjWalk, Relation, Schema, Trie, TrieBuilder, ValueId,
};
use std::sync::Arc;

/// Builds a binary relation from raw value pairs.
fn rel_from(rows: &[(u32, u32)], a: &str, b: &str) -> Relation {
    let mut r = Relation::new(Schema::of(&[a, b]));
    for &(x, y) in rows {
        r.push(&[ValueId(x), ValueId(y)]).unwrap();
    }
    r
}

/// The plan over `rels` with every trie built under one bitset threshold:
/// 1 forces the bitset layout onto every dense level, `usize::MAX` keeps
/// every level a plain sorted array.
fn plan_with(bitset_min_nodes: usize, rels: &[&Relation], order: &[Attr]) -> JoinPlan {
    let mut builder = TrieBuilder::new();
    builder.set_bitset_min_nodes(bitset_min_nodes);
    let tries: Vec<Arc<Trie>> = rels
        .iter()
        .map(|rel| {
            let restricted = rel.schema().restrict_order(order).unwrap();
            Arc::new(builder.build(rel, &restricted).unwrap())
        })
        .collect();
    JoinPlan::from_shared(tries, order).unwrap()
}

/// Drains a full walk, returning the tuples.
fn walk_rows(plan: JoinPlan) -> Vec<Vec<ValueId>> {
    let mut walk = LftjWalk::new(plan);
    let mut out = Vec::new();
    while let Some(t) = walk.next_tuple() {
        out.push(t.to_vec());
    }
    out
}

/// The nested-loop reference, sorted and deduplicated like a walk's output.
fn naive_rows(rels: &[&Relation], order: &[Attr]) -> Vec<Vec<ValueId>> {
    let out = naive_join(rels, order).unwrap();
    out.rows().map(<[ValueId]>::to_vec).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 64 }))]

    // The block search has the same contract as `gallop`: first index >= lo
    // holding a value >= target, `lo` returned unchanged when it lies past
    // the slice. `lo` ranges past the slice length (sets hold at most 80
    // values) to cover the empty-slice and `lo >= len` corners.
    #[test]
    fn block_seek_matches_gallop(
        set in prop::collection::btree_set(0u32..300, 0..80),
        target in 0u32..320,
        lo in 0usize..100,
    ) {
        let slice: Vec<ValueId> = set.iter().map(|&x| ValueId(x)).collect();
        prop_assert_eq!(
            block_seek(&slice, lo, ValueId(target)),
            gallop(&slice, lo, ValueId(target)),
            "slice len {}, lo {}, target {}", slice.len(), lo, target
        );
    }

    // Degenerate levels — empty and single-element slices — where the
    // first-block fast path must not read past the end.
    #[test]
    fn block_seek_matches_gallop_on_tiny_levels(
        set in prop::collection::btree_set(0u32..8, 0..2),
        target in 0u32..10,
        lo in 0usize..3,
    ) {
        let slice: Vec<ValueId> = set.iter().map(|&x| ValueId(x)).collect();
        prop_assert_eq!(
            block_seek(&slice, lo, ValueId(target)),
            gallop(&slice, lo, ValueId(target))
        );
    }

    // Layout transparency: the same triangle join over bitset-indexed tries
    // (forced onto every eligible level) and over plain sorted tries yields
    // the nested-loop reference, tuple for tuple in the walk and as a set
    // in the level-wise join.
    #[test]
    fn bitset_levels_are_transparent_to_walks(
        r_rows in prop::collection::vec((0u32..12, 0u32..12), 0..60),
        s_rows in prop::collection::vec((0u32..12, 0u32..12), 0..60),
        t_rows in prop::collection::vec((0u32..12, 0u32..12), 0..60),
    ) {
        let r = rel_from(&r_rows, "a", "b");
        let s = rel_from(&s_rows, "b", "c");
        let t = rel_from(&t_rows, "a", "c");
        let rels = [&r, &s, &t];
        let order: Vec<Attr> = vec!["a".into(), "b".into(), "c".into()];
        let reference = naive_rows(&rels, &order);
        let forced = plan_with(1, &rels, &order);
        if !r.is_empty() || !s.is_empty() || !t.is_empty() {
            prop_assert!(
                forced.tries().iter().any(|t| t.bitset_level_count() > 0)
                    || forced.tries().iter().all(|t| t.num_tuples() == 0),
                "min_nodes=1 must index every non-empty level"
            );
        }
        let plain = plan_with(usize::MAX, &rels, &order);
        prop_assert!(plain.tries().iter().all(|t| t.bitset_level_count() == 0));
        for (layout, plan) in [("plain", plain), ("bitset", forced)] {
            let (level_rows, _) = levelwise_join(&plan);
            prop_assert_eq!(&walk_rows(plan), &reference, "walk/{}", layout);
            let level_rows: Vec<Vec<ValueId>> = level_rows.rows().map(<[ValueId]>::to_vec).collect();
            prop_assert_eq!(&level_rows, &reference, "level-wise/{}", layout);
        }
    }

    // Single-atom walks stress the one-participant rotation across batch
    // refills (32 matches each, so 0..100 rows spans several).
    #[test]
    fn single_atom_walks_agree_across_batch_boundaries(
        rows in prop::collection::vec((0u32..40, 0u32..40), 0..100),
    ) {
        let r = rel_from(&rows, "a", "b");
        let order: Vec<Attr> = vec!["a".into(), "b".into()];
        let walked = walk_rows(plan_with(usize::MAX, &[&r], &order));
        prop_assert_eq!(&walked, &naive_rows(&[&r], &order));
    }
}
