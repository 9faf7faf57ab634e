//! Differential proptest suite for the vectorized probe path: the block-wise
//! branch-reduced search must agree with the scalar `gallop` on every
//! contract corner (empty ranges, `lo >= len`, single-element levels), the
//! `Bitset` level layout must be transparent — walks over bitset-indexed
//! tries equal walks over plain `SortedVec` tries — and the batched block
//! kernel must enumerate exactly the scalar kernel's tuples. Case counts
//! drop under Miri (`cfg!(miri)`), which interprets every load of the new
//! index arithmetic.

use proptest::prelude::*;
use relational::{
    block_seek, gallop, Attr, JoinPlan, LftjWalk, ProbeKernel, Relation, Schema, Trie, TrieBuilder,
    ValueId,
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

/// Builds one trie per relation with the given builder and wraps them for
/// plan sharing.
fn tries_with(builder: &mut TrieBuilder, rels: &[&Relation], order: &[Attr]) -> Vec<Arc<Trie>> {
    rels.iter()
        .map(|rel| {
            let restricted = rel.schema().restrict_order(order).unwrap();
            Arc::new(builder.build(rel, &restricted).unwrap())
        })
        .collect()
}

/// Drains a full walk under `kernel`, returning the tuples.
fn join_rows(tries: Vec<Arc<Trie>>, order: &[Attr], kernel: ProbeKernel) -> Vec<Vec<ValueId>> {
    let plan = JoinPlan::from_shared(tries, order).unwrap();
    let mut walk = LftjWalk::with_kernel(plan, kernel);
    let mut out = Vec::new();
    while let Some(t) = walk.next_tuple() {
        out.push(t.to_vec());
    }
    out
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
    // (forced onto every eligible level) and over plain SortedVec tries must
    // produce identical tuple streams under both kernels. The scalar kernel
    // on plain tries is the pre-existing path, i.e. the ground truth.
    #[test]
    fn bitset_levels_are_transparent_to_walks(
        r_rows in prop::collection::vec((0u32..12, 0u32..12), 0..60),
        s_rows in prop::collection::vec((0u32..12, 0u32..12), 0..60),
        t_rows in prop::collection::vec((0u32..12, 0u32..12), 0..60),
    ) {
        let r = rel_from(&r_rows, "a", "b");
        let s = rel_from(&s_rows, "b", "c");
        let t = rel_from(&t_rows, "a", "c");
        let order: Vec<Attr> = vec!["a".into(), "b".into(), "c".into()];
        let mut plain_b = TrieBuilder::new().with_bitset_levels(false);
        let mut forced_b = TrieBuilder::new();
        forced_b.set_bitset_min_nodes(1);
        let plain = tries_with(&mut plain_b, &[&r, &s, &t], &order);
        let forced = tries_with(&mut forced_b, &[&r, &s, &t], &order);
        if !r.is_empty() || !s.is_empty() || !t.is_empty() {
            prop_assert!(
                forced.iter().any(|t| t.bitset_level_count() > 0)
                    || forced.iter().all(|t| t.num_tuples() == 0),
                "min_nodes=1 must index every non-empty level"
            );
        }
        let reference = join_rows(plain.clone(), &order, ProbeKernel::Scalar);
        for kernel in [ProbeKernel::Scalar, ProbeKernel::Block] {
            prop_assert_eq!(
                &join_rows(plain.clone(), &order, kernel),
                &reference, "plain/{:?}", kernel
            );
            prop_assert_eq!(
                &join_rows(forced.clone(), &order, kernel),
                &reference, "bitset/{:?}", kernel
            );
        }
    }

    // Single-atom walks stress the k == 1 bulk-copy refill path across batch
    // boundaries (PROBE_BATCH = 32, so 0..100 rows spans several refills).
    #[test]
    fn single_atom_walks_agree_across_batch_boundaries(
        rows in prop::collection::vec((0u32..40, 0u32..40), 0..100),
    ) {
        let r = rel_from(&rows, "a", "b");
        let order: Vec<Attr> = vec!["a".into(), "b".into()];
        let mut plain_b = TrieBuilder::new().with_bitset_levels(false);
        let plain = tries_with(&mut plain_b, &[&r], &order);
        let scalar = join_rows(plain.clone(), &order, ProbeKernel::Scalar);
        let block = join_rows(plain, &order, ProbeKernel::Block);
        prop_assert_eq!(&block, &scalar);
        let mut expect = r.clone();
        expect.sort_dedup();
        prop_assert_eq!(block.len(), expect.len());
    }
}
