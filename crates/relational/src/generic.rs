//! Level-wise generic worst-case optimal join (Ngo et al. 2012 style).
//!
//! Variables are expanded one at a time in the plan's global order. The
//! engine materialises the intermediate relation after every expansion —
//! exactly the execution model of the paper's Algorithm 1 ("Get expanding
//! result E …; Filter E …; Expand R by E") — and records each intermediate's
//! cardinality in [`JoinStats`], which is what Lemma 3.5 bounds.
//!
//! Each intermediate tuple carries, per atom, the trie nodes reached by its
//! bound prefix, so candidate generation for the next variable is a leapfrog
//! intersection of contiguous sorted ranges ("satisfying common values") and
//! consistency with already-bound variables is implicit ("satisfying relation
//! between p and A"). The intersection is the LFTJ walk's: both open and
//! rotate a variable's level through the [`crate::leapfrog`] core.

use crate::error::Result;
use crate::leapfrog::{frame_offsets, Level, ABSENT};
use crate::plan::JoinPlan;
use crate::relation::Relation;
use crate::schema::{Attr, Schema};
use crate::stats::{JoinStats, LevelProbeStats};
use crate::value::ValueId;
use std::time::Instant;

/// Runs the level-wise generic join over a validated plan, returning the
/// result relation (schema = the plan's variable order) and per-level stats.
pub fn levelwise_join(plan: &JoinPlan) -> (Relation, JoinStats) {
    let start = Instant::now();
    let schema = Schema::new(plan.order().iter().cloned()).expect("order vars are distinct");
    let width = plan.order().len();
    let (tuples, count, mut stats) = levelwise_expand(plan, |_, _, _| true);
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
/// materialising after each the tuples over the bound prefix.
/// `keep(depth, prefix, candidate)` sees every
/// extension the leapfrog intersection proposes at `depth` and drops it by
/// returning `false` (XJoin's A-D and partial-structure filters; a plain
/// join keeps everything).
///
/// Each intermediate tuple carries its prefix's frame — per atom, the nodes
/// its bound levels reached, one per physical run — so layered atoms expand
/// through the union of their delta runs exactly as the LFTJ walk reads
/// them.
///
/// Returns the surviving full-width tuples flattened row-major, their count,
/// and stats holding one stage record per variable — all zero when an atom
/// is empty or a level dies out.
pub fn levelwise_expand(
    plan: &JoinPlan,
    mut keep: impl FnMut(usize, &[ValueId], ValueId) -> bool,
) -> (Vec<ValueId>, usize, JoinStats) {
    let mut stats = JoinStats::default();

    if plan.has_empty_atom() {
        for var in plan.order() {
            stats.record_var(var, 0);
        }
        return (Vec::new(), 0, stats);
    }

    let off = frame_offsets(plan);
    let fw = off[plan.tries().len()];
    // One initial tuple with empty prefix and no atom positioned anywhere.
    let mut width = 0usize;
    let mut tuples: Vec<ValueId> = Vec::new();
    let mut frames: Vec<u32> = vec![ABSENT; fw];
    let mut count = 1usize;
    // One level state serves every prefix of every depth.
    let mut level = Level::default();
    let mut untracked = LevelProbeStats::default();

    for (d, vp) in plan.var_plans().iter().enumerate() {
        // Sized for one extension per tuple, the steady state of the later
        // levels: a buffer that doubles its way there holds the old and the
        // new copy at once, and that sets the op's peak.
        let mut next_tuples: Vec<ValueId> = Vec::with_capacity(count * (width + 1));
        let mut next_frames: Vec<u32> = Vec::with_capacity(count * fw);
        let mut next_count = 0usize;
        level.configure(plan, vp, &off);

        for t in 0..count {
            let prefix = &tuples[t * width..t * width + width];
            let frame = &frames[t * fw..t * fw + fw];
            level.open(plan, frame);
            while let Some(v) = level.advance::<false>(plan, &mut untracked) {
                if !keep(d, prefix, v) {
                    continue;
                }
                next_tuples.extend_from_slice(prefix);
                next_tuples.push(v);
                let base = next_frames.len();
                next_frames.extend_from_slice(frame);
                level.scatter_match(&mut next_frames[base..]);
                next_count += 1;
            }
        }

        tuples = next_tuples;
        frames = next_frames;
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
