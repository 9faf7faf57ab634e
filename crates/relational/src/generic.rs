//! Level-wise generic worst-case optimal join (Ngo et al. 2012 style).
//!
//! Variables are expanded one at a time in the plan's global order. The
//! engine materialises the intermediate relation after every expansion —
//! exactly the execution model of the paper's Algorithm 1 ("Get expanding
//! result E …; Filter E …; Expand R by E") — and records each intermediate's
//! cardinality in [`JoinStats`], which is what Lemma 3.5 bounds.
//!
//! Each intermediate tuple carries, per atom, the trie node reached by its
//! bound prefix, so candidate generation for the next variable is a leapfrog
//! intersection of contiguous sorted slices ("satisfying common values") and
//! consistency with already-bound variables is implicit ("satisfying relation
//! between p and A").

use crate::error::Result;
use crate::leapfrog::{leapfrog_foreach, SliceCursor};
use crate::plan::{JoinPlan, ValueRange};
use crate::relation::Relation;
use crate::schema::{Attr, Schema};
use crate::stats::JoinStats;
use crate::value::ValueId;
use std::time::Instant;

/// Sentinel for "no trie level bound yet" in per-atom node pointers.
const NO_NODE: u32 = u32::MAX;

/// Runs the level-wise generic join over a validated plan, returning the
/// result relation (schema = the plan's variable order) and per-level stats.
pub fn levelwise_join(plan: &JoinPlan) -> (Relation, JoinStats) {
    levelwise_join_in_range(plan, &ValueRange::all())
}

/// Range-restricted [`levelwise_join`]: expands only the tuples whose
/// **first** variable binding falls inside `root`. Over a disjoint cover of
/// the value space the per-level intermediates (and the results) partition
/// exactly, so per-stage tuple counts summed across the parts equal the
/// unrestricted run's counts — morsel-parallel execution preserves the
/// Lemma 3.5 measurements.
pub fn levelwise_join_in_range(plan: &JoinPlan, root: &ValueRange) -> (Relation, JoinStats) {
    let start = Instant::now();
    let schema = Schema::new(plan.order().iter().cloned()).expect("order vars are distinct");
    let width = plan.order().len();
    let (tuples, count, mut stats) = levelwise_expand(plan, root, |_, _, _| true);
    let mut out = Relation::with_capacity(schema, count);
    if width > 0 {
        for t in 0..count {
            out.push(&tuples[t * width..t * width + width])
                .expect("width matches arity");
        }
    }
    stats.output_rows = out.len();
    stats.elapsed = start.elapsed();
    (out, stats)
}

/// Algorithm 1's expansion loop: binds the plan's variables one at a time,
/// materialising after each the tuples over the bound prefix whose first
/// binding falls inside `root`. `keep(depth, prefix, candidate)` sees every
/// extension the leapfrog intersection proposes at `depth` and drops it by
/// returning `false` (XJoin's A-D and partial-structure filters; a plain
/// join keeps everything).
///
/// Returns the surviving full-width tuples flattened row-major, their count,
/// and stats holding one stage record per variable — all zero when an atom
/// is empty or a level dies out.
pub fn levelwise_expand(
    plan: &JoinPlan,
    root: &ValueRange,
    mut keep: impl FnMut(usize, &[ValueId], ValueId) -> bool,
) -> (Vec<ValueId>, usize, JoinStats) {
    let natoms = plan.tries().len();
    let mut stats = JoinStats::default();

    if plan.has_empty_atom() {
        for var in plan.order() {
            stats.record_var(var, 0);
        }
        return (Vec::new(), 0, stats);
    }

    // One initial tuple with empty prefix and no atom positioned anywhere.
    let mut width = 0usize;
    let mut tuples: Vec<ValueId> = Vec::new();
    let mut ptrs: Vec<u32> = vec![NO_NODE; natoms];
    let mut count = 1usize;

    for (d, vp) in plan.var_plans().iter().enumerate() {
        // Sized for one extension per tuple, the steady state of the later
        // levels: a buffer that doubles its way there holds the old and the
        // new copy at once, and that sets the op's peak.
        let mut next_tuples: Vec<ValueId> = Vec::with_capacity(count * (width + 1));
        let mut next_ptrs: Vec<u32> = Vec::with_capacity(count * natoms);
        let mut next_count = 0usize;

        let mut range_starts: Vec<u32> = Vec::with_capacity(vp.participants.len());
        let mut cursors: Vec<SliceCursor<'_>> = Vec::with_capacity(vp.participants.len());

        for t in 0..count {
            let prefix = &tuples[t * width..t * width + width];
            let tuple_ptrs = &ptrs[t * natoms..t * natoms + natoms];

            range_starts.clear();
            cursors.clear();
            for p in &vp.participants {
                let trie = &plan.tries()[p.atom];
                let mut range = if p.level == 0 {
                    trie.root_range()
                } else {
                    let parent = tuple_ptrs[p.atom];
                    debug_assert_ne!(parent, NO_NODE, "parent level must be bound");
                    trie.children(p.level - 1, parent)
                };
                if d == 0 {
                    range = root.clamp_nodes(trie, p.level, range);
                }
                range_starts.push(range.start);
                cursors.push(SliceCursor::new(trie.values(p.level, range)));
            }

            leapfrog_foreach(&mut cursors, |v, cs| {
                if !keep(d, prefix, v) {
                    return;
                }
                next_tuples.extend_from_slice(prefix);
                next_tuples.push(v);
                let base = next_ptrs.len();
                next_ptrs.extend_from_slice(tuple_ptrs);
                for (k, p) in vp.participants.iter().enumerate() {
                    next_ptrs[base + p.atom] = range_starts[k] + cs[k].pos() as u32;
                }
                next_count += 1;
            });
        }

        tuples = next_tuples;
        ptrs = next_ptrs;
        count = next_count;
        width = d + 1;
        stats.record_var(&vp.var, count);
        if count == 0 {
            // Remaining levels are trivially empty; record them for a
            // complete per-stage series.
            for rest in &plan.var_plans()[d + 1..] {
                stats.record_var(&rest.var, 0);
            }
            break;
        }
    }
    (tuples, count, stats)
}

/// Convenience wrapper: plans and runs the generic join over `relations`
/// under the global variable `order`.
pub fn generic_join(relations: &[&Relation], order: &[Attr]) -> Result<(Relation, JoinStats)> {
    let plan = JoinPlan::new(relations, order)?;
    Ok(levelwise_join(&plan))
}

/// Reference nested-loop join used to cross-check the optimal engines in
/// tests: enumerates the full cartesian product of variable assignments drawn
/// from each variable's candidate values and filters by all atoms.
///
/// Exponential — only for tiny test instances.
pub fn naive_join(relations: &[&Relation], order: &[Attr]) -> Result<Relation> {
    use std::collections::BTreeSet;
    let plan = JoinPlan::new(relations, order)?; // reuse validation
    let _ = &plan;
    let schema = Schema::new(order.iter().cloned()).expect("distinct");
    // Candidate domain per variable: union of values in any relation column
    // with that attribute.
    let mut domains: Vec<Vec<ValueId>> = Vec::with_capacity(order.len());
    for var in order {
        let mut dom = BTreeSet::new();
        for rel in relations {
            if let Some(p) = rel.schema().position(var) {
                for row in rel.rows() {
                    dom.insert(row[p]);
                }
            }
        }
        domains.push(dom.into_iter().collect());
    }
    let mut out = Relation::new(schema);
    let mut assign: Vec<ValueId> = Vec::with_capacity(order.len());
    fn rec(
        d: usize,
        domains: &[Vec<ValueId>],
        order: &[Attr],
        relations: &[&Relation],
        assign: &mut Vec<ValueId>,
        out: &mut Relation,
    ) {
        if d == domains.len() {
            for rel in relations {
                let positions: Vec<usize> = rel
                    .schema()
                    .attrs()
                    .iter()
                    .map(|a| order.iter().position(|o| o == a).expect("validated"))
                    .collect();
                let projected: Vec<ValueId> = positions.iter().map(|&p| assign[p]).collect();
                if !rel.contains_row(&projected) {
                    return;
                }
            }
            out.push(assign).expect("arity");
            return;
        }
        for &v in &domains[d] {
            assign.push(v);
            rec(d + 1, domains, order, relations, assign, out);
            assign.pop();
        }
    }
    rec(0, &domains, order, relations, &mut assign, &mut out);
    out.sort_dedup();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn v(i: u32) -> ValueId {
        ValueId(i)
    }

    fn attrs(names: &[&str]) -> Vec<Attr> {
        names.iter().map(|&n| Attr::new(n)).collect()
    }

    fn rel(names: &[&str], rows: &[&[u32]]) -> Relation {
        let mut r = Relation::new(Schema::of(names));
        for row in rows {
            let ids: Vec<ValueId> = row.iter().map(|&x| v(x)).collect();
            r.push(&ids).unwrap();
        }
        r
    }

    #[test]
    fn triangle_join() {
        // R(a,b), S(b,c), T(a,c) with a single triangle (1,2,3) plus noise.
        let r = rel(&["a", "b"], &[&[1, 2], &[1, 9], &[4, 2]]);
        let s = rel(&["b", "c"], &[&[2, 3], &[9, 8]]);
        let t = rel(&["a", "c"], &[&[1, 3], &[4, 7]]);
        let (out, stats) = generic_join(&[&r, &s, &t], &attrs(&["a", "b", "c"])).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0), &[v(1), v(2), v(3)]);
        assert_eq!(stats.output_rows, 1);
        assert_eq!(stats.stages.len(), 3);
    }

    #[test]
    fn matches_naive_reference() {
        let r = rel(&["a", "b"], &[&[1, 2], &[2, 3], &[3, 1], &[1, 3]]);
        let s = rel(&["b", "c"], &[&[2, 3], &[3, 1], &[1, 2], &[3, 3]]);
        let t = rel(&["a", "c"], &[&[1, 3], &[2, 1], &[3, 2], &[1, 1]]);
        let order = attrs(&["a", "b", "c"]);
        let (out, _) = generic_join(&[&r, &s, &t], &order).unwrap();
        let expect = naive_join(&[&r, &s, &t], &order).unwrap();
        assert!(out.set_eq(&expect), "generic {out:?} != naive {expect:?}");
    }

    #[test]
    fn two_way_equijoin() {
        let r = rel(&["a", "b"], &[&[1, 10], &[2, 20], &[3, 30]]);
        let s = rel(&["b", "c"], &[&[10, 100], &[10, 101], &[30, 300]]);
        let (out, _) = generic_join(&[&r, &s], &attrs(&["a", "b", "c"])).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.contains_row(&[v(1), v(10), v(100)]));
        assert!(out.contains_row(&[v(1), v(10), v(101)]));
        assert!(out.contains_row(&[v(3), v(30), v(300)]));
    }

    #[test]
    fn empty_atom_short_circuits() {
        let r = rel(&["a"], &[&[1]]);
        let s = rel(&["a"], &[]);
        let (out, stats) = generic_join(&[&r, &s], &attrs(&["a"])).unwrap();
        assert!(out.is_empty());
        assert_eq!(stats.max_intermediate(), 0);
    }

    #[test]
    fn disjoint_values_yield_empty_and_full_stage_series() {
        let r = rel(&["a", "b"], &[&[1, 2]]);
        let s = rel(&["a", "b"], &[&[3, 4]]);
        let (out, stats) = generic_join(&[&r, &s], &attrs(&["a", "b"])).unwrap();
        assert!(out.is_empty());
        assert_eq!(stats.stages.len(), 2);
        assert_eq!(stats.stages[0].tuples, 0);
        assert_eq!(stats.stages[1].tuples, 0);
    }

    #[test]
    fn order_affects_intermediates_not_result() {
        let r = rel(&["a", "b"], &[&[1, 1], &[1, 2], &[2, 1]]);
        let s = rel(&["b", "c"], &[&[1, 1], &[2, 1]]);
        let o1 = attrs(&["a", "b", "c"]);
        let o2 = attrs(&["c", "b", "a"]);
        let (out1, _) = generic_join(&[&r, &s], &o1).unwrap();
        let (out2, _) = generic_join(&[&r, &s], &o2).unwrap();
        let out2_reordered = out2.project(&o1).unwrap();
        assert!(out1.set_eq(&out2_reordered));
    }

    #[test]
    fn intermediate_counts_are_recorded_per_level() {
        // R(a) x S(b): after a -> 2 tuples, after b -> 4 tuples.
        let r = rel(&["a"], &[&[1], &[2]]);
        let s = rel(&["b"], &[&[5], &[6]]);
        let (out, stats) = generic_join(&[&r, &s], &attrs(&["a", "b"])).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(stats.stages[0].tuples, 2);
        assert_eq!(stats.stages[1].tuples, 4);
        assert_eq!(stats.max_intermediate(), 4);
        assert_eq!(stats.total_intermediate(), 6);
    }

    #[test]
    fn range_restricted_runs_partition_results_and_stage_counts() {
        let r = rel(&["a", "b"], &[&[1, 2], &[2, 3], &[3, 1], &[1, 3]]);
        let s = rel(&["b", "c"], &[&[2, 3], &[3, 1], &[1, 2], &[3, 3]]);
        let t = rel(&["a", "c"], &[&[1, 3], &[2, 1], &[3, 2], &[1, 1]]);
        let plan = JoinPlan::new(&[&r, &s, &t], &attrs(&["a", "b", "c"])).unwrap();
        let (full, full_stats) = levelwise_join(&plan);
        let halves = [
            ValueRange {
                lo: v(0),
                hi: Some(v(2)),
            },
            ValueRange { lo: v(2), hi: None },
        ];
        let parts: Vec<(Relation, JoinStats)> = halves
            .iter()
            .map(|h| levelwise_join_in_range(&plan, h))
            .collect();
        let mut merged = Relation::new(full.schema().clone());
        for (part, _) in &parts {
            for row in part.rows() {
                merged.push(row).unwrap();
            }
        }
        assert_eq!(merged, full, "concatenation in range order = full result");
        // Per-stage counts partition exactly across the cover.
        for (i, stage) in full_stats.stages.iter().enumerate() {
            let summed: usize = parts.iter().map(|(_, st)| st.stages[i].tuples).sum();
            assert_eq!(summed, stage.tuples, "stage `{}`", stage.label);
        }
    }

    #[test]
    fn self_join_same_relation_twice() {
        // Path query: R(a,b) ⋈ R'(b,c) using renamed copies of one relation.
        let r = rel(&["a", "b"], &[&[1, 2], &[2, 3], &[3, 4]]);
        let r2 = r
            .rename(|a| {
                if a.name() == "a" {
                    "b".into()
                } else {
                    "c".into()
                }
            })
            .unwrap();
        let (out, _) = generic_join(&[&r, &r2], &attrs(&["a", "b", "c"])).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.contains_row(&[v(1), v(2), v(3)]));
        assert!(out.contains_row(&[v(2), v(3), v(4)]));
    }
}
