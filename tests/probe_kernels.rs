//! Differential proptest suite for the vectorized probe path: the block-wise
//! branch-reduced search must agree with the scalar `gallop` on every
//! contract corner (empty ranges, `lo >= len`, single-element levels), the
//! `Bitset` level layout must be transparent — walks over bitset-indexed
//! tries equal walks over plain `SortedVec` tries — and the batched block
//! kernel must enumerate exactly the scalar kernel's tuples, including under
//! restricted root ranges and morsel-parallel execution (`XJOIN_TEST_THREADS`
//! joins the thread sweep when set, as the CI's forced multi-thread pass
//! does). Case counts drop under Miri (`cfg!(miri)`), which interprets every
//! load of the new index arithmetic.

use proptest::prelude::*;
use relational::{
    block_seek, gallop, Attr, JoinPlan, LftjWalk, ProbeKernel, Relation, Schema, Trie, TrieBuilder,
    ValueId, ValueRange,
};
use std::sync::Arc;
use xjoin_core::{execute, DataContext, EngineKind, ExecOptions, Parallelism};

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

/// Drains a full walk under `kernel` over `root`, returning the tuples.
fn join_rows(
    tries: Vec<Arc<Trie>>,
    order: &[Attr],
    kernel: ProbeKernel,
    root: ValueRange,
) -> Vec<Vec<ValueId>> {
    let plan = JoinPlan::from_shared(tries, order).unwrap();
    let mut walk = LftjWalk::with_kernel(plan, root, kernel);
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
        let reference = join_rows(plain.clone(), &order, ProbeKernel::Scalar, ValueRange::all());
        for kernel in [ProbeKernel::Scalar, ProbeKernel::Block] {
            prop_assert_eq!(
                &join_rows(plain.clone(), &order, kernel, ValueRange::all()),
                &reference, "plain/{:?}", kernel
            );
            prop_assert_eq!(
                &join_rows(forced.clone(), &order, kernel, ValueRange::all()),
                &reference, "bitset/{:?}", kernel
            );
        }
    }

    // Kernel equivalence under restricted root ranges (the morsel substrate):
    // any `[lo, hi)` window over the first variable yields the same tuples
    // from both kernels, on plain and bitset-indexed tries alike.
    #[test]
    fn kernels_agree_under_random_root_ranges(
        r_rows in prop::collection::vec((0u32..16, 0u32..16), 0..70),
        s_rows in prop::collection::vec((0u32..16, 0u32..16), 0..70),
        lo in 0u32..18,
        width in 0u32..18,
        unbounded in any::<bool>(),
    ) {
        let r = rel_from(&r_rows, "a", "b");
        let s = rel_from(&s_rows, "b", "c");
        let order: Vec<Attr> = vec!["a".into(), "b".into(), "c".into()];
        let root = ValueRange {
            lo: ValueId(lo),
            hi: (!unbounded).then(|| ValueId(lo + width)),
        };
        let mut forced_b = TrieBuilder::new();
        forced_b.set_bitset_min_nodes(1);
        let mut plain_b = TrieBuilder::new().with_bitset_levels(false);
        let plain = tries_with(&mut plain_b, &[&r, &s], &order);
        let forced = tries_with(&mut forced_b, &[&r, &s], &order);
        let reference = join_rows(plain.clone(), &order, ProbeKernel::Scalar, root.clone());
        prop_assert!(reference.iter().all(|t| root.contains(t[0])));
        prop_assert_eq!(
            &join_rows(plain, &order, ProbeKernel::Block, root.clone()),
            &reference
        );
        prop_assert_eq!(
            &join_rows(forced, &order, ProbeKernel::Block, root),
            &reference
        );
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
        let scalar = join_rows(plain.clone(), &order, ProbeKernel::Scalar, ValueRange::all());
        let block = join_rows(plain, &order, ProbeKernel::Block, ValueRange::all());
        prop_assert_eq!(&block, &scalar);
        let mut expect = r.clone();
        expect.sort_dedup();
        prop_assert_eq!(block.len(), expect.len());
    }
}

/// Worker counts for the executor-level check; `XJOIN_TEST_THREADS` (set by
/// the CI's forced multi-thread pass) joins the sweep when present, so the
/// suite genuinely differs between the two CI test modes.
fn thread_counts() -> Vec<usize> {
    let mut ns = vec![2usize];
    if let Some(n) = std::env::var("XJOIN_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        if n > 1 && !ns.contains(&n) {
            ns.push(n);
        }
    }
    ns
}

/// End-to-end: the default (block) kernel under morsel-parallel execution
/// returns the serial result on graph workloads whose tries carry bitset
/// levels — the batched refill must resume correctly inside clamped root
/// ranges on every worker.
#[test]
#[cfg_attr(
    miri,
    ignore = "spawns threads over a large instance; the per-seek arithmetic is covered by the proptests above"
)]
fn parallel_block_kernel_matches_serial_on_bitset_workloads() {
    use fixtures::{graph_instance, triangle_query};
    let inst = graph_instance(96, 1800, 7);
    let idx = inst.index();
    let ctx = DataContext::new(&inst.db, &inst.doc, &idx);
    let q = triangle_query();
    let serial = execute(&ctx, &q, &ExecOptions::for_engine(EngineKind::Lftj)).unwrap();
    assert!(
        serial.stats.bitset_levels > 0,
        "dense graph tries must carry bitset levels"
    );
    let signature = |rel: &Relation| {
        let mut rows: Vec<Vec<ValueId>> = rel.rows().map(|r| r.to_vec()).collect();
        rows.sort();
        rows
    };
    for n in thread_counts() {
        let parallel = execute(
            &ctx,
            &q,
            &ExecOptions {
                engine: EngineKind::Lftj,
                parallelism: Parallelism::Threads(n),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            signature(&parallel.results),
            signature(&serial.results),
            "threads {n}: parallel multiset != serial"
        );
    }
}
