//! LSM-style layered tries: an immutable base plus small sorted delta runs.
//!
//! A [`DeltaTrie`] represents the logical relation `base ∪ run₀ ∪ run₁ ∪ …`
//! without merging anything eagerly. Each layer is an ordinary [`Trie`]
//! leveled by the same attribute order, so a layered atom is consumed by
//! every engine as a *k-way union view*: at every trie level the engine
//! unions the layers' sorted sibling ranges through the usual leapfrog
//! `key / next / seek` contract (see `leapfrog::UnionCursor`), and the
//! cross-atom intersection on top of those unions is unchanged — the merged
//! view is still a sorted, duplicate-free trie, so worst-case optimality is
//! preserved.
//!
//! Runs are expected to be *small* relative to the base (one run per write
//! batch). Once [`DeltaTrie::delta_ratio`] exceeds the store's compaction
//! ratio, [`DeltaTrie::compact`] merges all layers into a fresh solid
//! [`Trie`] in one linear pass (every layer yields rows in sorted order, so
//! the k-way merge never sorts).

use crate::error::{RelError, Result};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::trie::Trie;
use std::sync::Arc;

/// An immutable base trie overlaid with zero or more sorted delta runs.
///
/// All layers share one attribute order; [`DeltaTrie::push_run`] enforces
/// this. Layers may overlap (a delta may re-insert a tuple already present
/// in the base): the union view and [`DeltaTrie::compact`] both deduplicate,
/// so overlap affects only the [`DeltaTrie::delta_tuples`] accounting (an
/// upper bound, not an exact distinct count).
#[derive(Debug, Clone)]
pub struct DeltaTrie {
    base: Arc<Trie>,
    runs: Vec<Arc<Trie>>,
}

impl DeltaTrie {
    /// Wraps `base` with no delta runs yet.
    pub fn new(base: Arc<Trie>) -> DeltaTrie {
        DeltaTrie {
            base,
            runs: Vec::new(),
        }
    }

    /// Appends one delta run, which must be leveled by the same attribute
    /// order as the base.
    pub fn push_run(&mut self, run: Arc<Trie>) -> Result<()> {
        if run.attrs() != self.base.attrs() {
            return Err(RelError::InvalidOrder(format!(
                "delta run order {:?} does not match base order {:?}",
                run.attrs(),
                self.base.attrs()
            )));
        }
        self.runs.push(run);
        Ok(())
    }

    /// Builder-style [`DeltaTrie::push_run`].
    pub fn with_run(mut self, run: Arc<Trie>) -> Result<DeltaTrie> {
        self.push_run(run)?;
        Ok(self)
    }

    /// The immutable base layer.
    pub fn base(&self) -> &Arc<Trie> {
        &self.base
    }

    /// The delta runs, oldest first.
    pub fn runs(&self) -> &[Arc<Trie>] {
        &self.runs
    }

    /// The shared attribute order of every layer.
    pub fn attrs(&self) -> &[crate::schema::Attr] {
        self.base.attrs()
    }

    /// Every layer under new level names, sharing the level data (see
    /// [`Trie::renamed`]).
    pub fn renamed(&self, attrs: &[crate::schema::Attr]) -> DeltaTrie {
        let rename = |t: &Arc<Trie>| Arc::new(t.renamed(attrs));
        DeltaTrie {
            base: rename(&self.base),
            runs: self.runs.iter().map(rename).collect(),
        }
    }

    /// Number of levels (the relation's arity).
    pub fn arity(&self) -> usize {
        self.base.arity()
    }

    /// Tuples in the base layer.
    pub fn base_tuples(&self) -> usize {
        self.base.num_tuples()
    }

    /// Total tuples across all delta runs (an upper bound on the distinct
    /// tuples the deltas add — runs may overlap the base or each other).
    pub fn delta_tuples(&self) -> usize {
        self.runs.iter().map(|r| r.num_tuples()).sum()
    }

    /// `delta_tuples / base_tuples` — the compaction trigger signal. An
    /// empty base with non-empty deltas reports `f64::INFINITY`.
    pub fn delta_ratio(&self) -> f64 {
        let d = self.delta_tuples();
        if d == 0 {
            return 0.0;
        }
        let b = self.base_tuples();
        if b == 0 {
            f64::INFINITY
        } else {
            d as f64 / b as f64
        }
    }

    /// Whether the delta layers have outgrown `ratio` and the view should be
    /// merged into a fresh solid base.
    pub fn needs_compaction(&self, ratio: f64) -> bool {
        self.delta_ratio() > ratio
    }

    /// Approximate heap footprint of the delta runs only (the base is
    /// shared and accounted for wherever it is cached).
    pub fn delta_bytes(&self) -> usize {
        self.runs.iter().map(|r| r.estimated_bytes()).sum()
    }

    /// Merges base and runs into a fresh solid [`Trie`].
    ///
    /// The runs are expected to be tiny next to the base, so the merge is
    /// asymmetric: a k-way merge collapses the runs into one sorted,
    /// duplicate-free delta (k-way cost proportional to the *delta* size),
    /// then a single two-way pass splices that delta into the base, bulk-
    /// copying the untouched base spans between insertion points instead of
    /// pushing the base row by row.
    pub fn compact(&self) -> Result<Trie> {
        let attrs = self.base.attrs().to_vec();
        if self.runs.is_empty() {
            // Nothing to merge; rebuild from the base's rows (callers that
            // want zero work should just keep the base Arc instead).
            return Trie::build(&self.base.to_relation(), &attrs);
        }
        let schema = Schema::new(attrs.iter().cloned())?;
        let arity = self.arity();
        if arity == 0 {
            // Nullary layers: the union holds the empty tuple iff any layer
            // is non-empty.
            let mut merged = Relation::new(schema);
            if self.base_tuples() > 0 || self.runs.iter().any(|r| r.num_tuples() > 0) {
                merged.push(&[])?;
            }
            return Trie::build(&merged, &attrs);
        }

        // 1. Collapse the runs into one sorted, deduplicated delta. The
        //    per-row min-scan is fine here: it only touches delta tuples.
        let run_rels: Vec<Relation> = self.runs.iter().map(|r| r.to_relation()).collect();
        let mut delta: Vec<&[crate::value::ValueId]> = Vec::with_capacity(self.delta_tuples());
        let mut streams: Vec<_> = run_rels.iter().map(|l| l.rows().peekable()).collect();
        while let Some(min) = streams.iter_mut().filter_map(|s| s.peek().copied()).min() {
            delta.push(min);
            for s in &mut streams {
                if s.peek().copied() == Some(min) {
                    s.next();
                }
            }
        }

        // 2. Splice the delta into the base in one pass. Delta rows arrive
        //    in ascending order, so each insertion point is found by a
        //    binary search over the not-yet-copied base suffix and the base
        //    span below it is copied wholesale.
        let base_rel = self.base.to_relation();
        let base = base_rel.raw_data();
        let n = base_rel.len();
        let mut merged = Relation::with_capacity(schema, self.base_tuples() + self.delta_tuples());
        let mut lo = 0usize; // first base row not yet copied out
        for row in delta {
            let mut left = lo;
            let mut right = n;
            while left < right {
                let mid = left + (right - left) / 2;
                if &base[mid * arity..(mid + 1) * arity] < row {
                    left = mid + 1;
                } else {
                    right = mid;
                }
            }
            merged.extend_raw(&base[lo * arity..left * arity]);
            merged.extend_raw(row);
            // Skip the base copy when the delta re-inserts an existing row.
            lo = if left < n && &base[left * arity..(left + 1) * arity] == row {
                left + 1
            } else {
                left
            };
        }
        merged.extend_raw(&base[lo * arity..]);
        Trie::build(&merged, &attrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attr;
    use crate::value::ValueId;

    fn rel(names: &[&str], rows: &[&[u32]]) -> Relation {
        let mut r = Relation::new(Schema::of(names));
        for row in rows {
            let ids: Vec<ValueId> = row.iter().map(|&x| ValueId(x)).collect();
            r.push(&ids).unwrap();
        }
        r.sort_dedup();
        r
    }

    fn trie(names: &[&str], rows: &[&[u32]]) -> Arc<Trie> {
        Arc::new(Trie::from_relation(&rel(names, rows)))
    }

    #[test]
    fn ratio_and_compaction_trigger() {
        let base = trie(&["a", "b"], &[&[1, 1], &[2, 2], &[3, 3], &[4, 4]]);
        let mut d = DeltaTrie::new(base);
        assert_eq!(d.delta_ratio(), 0.0);
        assert!(!d.needs_compaction(0.0));
        d.push_run(trie(&["a", "b"], &[&[5, 5]])).unwrap();
        assert_eq!(d.delta_tuples(), 1);
        assert!((d.delta_ratio() - 0.25).abs() < 1e-9);
        assert!(d.needs_compaction(0.2));
        assert!(!d.needs_compaction(0.25));
    }

    #[test]
    fn empty_base_ratio_is_infinite() {
        let d = DeltaTrie::new(trie(&["a"], &[]))
            .with_run(trie(&["a"], &[&[1]]))
            .unwrap();
        assert!(d.delta_ratio().is_infinite());
        assert!(d.needs_compaction(1e9));
    }

    #[test]
    fn push_run_rejects_mismatched_order() {
        let mut d = DeltaTrie::new(trie(&["a", "b"], &[&[1, 2]]));
        let bad = trie(&["b", "a"], &[&[1, 2]]);
        assert!(d.push_run(bad).is_err());
    }

    #[test]
    fn compact_merges_and_dedups() {
        let base = trie(&["a", "b"], &[&[1, 1], &[2, 2], &[3, 3]]);
        let d = DeltaTrie::new(base)
            .with_run(trie(&["a", "b"], &[&[2, 2], &[0, 9]]))
            .unwrap()
            .with_run(trie(&["a", "b"], &[&[3, 3], &[2, 5]]))
            .unwrap();
        let solid = d.compact().unwrap();
        assert_eq!(solid.attrs(), &[Attr::new("a"), Attr::new("b")][..]);
        let got = solid.to_relation();
        let want = rel(&["a", "b"], &[&[0, 9], &[1, 1], &[2, 2], &[2, 5], &[3, 3]]);
        assert!(got.set_eq(&want));
        assert_eq!(solid.num_tuples(), 5);
    }

    #[test]
    fn compact_splices_rows_past_the_base_end() {
        let base = trie(&["a", "b"], &[&[1, 1], &[2, 2]]);
        let d = DeltaTrie::new(base)
            .with_run(trie(&["a", "b"], &[&[7, 7], &[9, 9]]))
            .unwrap();
        let solid = d.compact().unwrap();
        let want = rel(&["a", "b"], &[&[1, 1], &[2, 2], &[7, 7], &[9, 9]]);
        assert!(solid.to_relation().set_eq(&want));
    }

    #[test]
    fn compact_without_runs_round_trips_base() {
        let base = trie(&["a"], &[&[3], &[1], &[2]]);
        let d = DeltaTrie::new(Arc::clone(&base));
        let solid = d.compact().unwrap();
        assert!(solid.to_relation().set_eq(&base.to_relation()));
    }

    #[test]
    fn compact_nullary_layers() {
        let empty = trie(&[], &[]);
        let d = DeltaTrie::new(Arc::clone(&empty));
        assert_eq!(d.compact().unwrap().num_tuples(), 0);
        // A non-empty nullary run makes the union hold the empty tuple.
        let mut one = Relation::new(Schema::of(&[]));
        one.push(&[]).unwrap();
        let run = Arc::new(Trie::from_relation(&one));
        let d = DeltaTrie::new(empty).with_run(run).unwrap();
        assert_eq!(d.compact().unwrap().num_tuples(), 1);
    }

    #[test]
    fn compaction_restores_exact_summaries() {
        let base = trie(&["a", "b"], &[&[1, 1], &[2, 2], &[3, 3]]);
        let d = DeltaTrie::new(base)
            .with_run(trie(&["a", "b"], &[&[2, 2], &[0, 9]]))
            .unwrap()
            .with_run(trie(&["a", "b"], &[&[3, 3], &[2, 5]]))
            .unwrap();
        let solid = d.compact().unwrap();
        for level in 0..d.arity() {
            // Compaction ends in an ordinary build, whose summaries must
            // agree with a from-scratch build of the merged relation.
            let rebuilt = Trie::from_relation(&solid.to_relation());
            assert_eq!(solid.level_summary(level), rebuilt.level_summary(level));
        }
    }

    #[test]
    fn delta_bytes_counts_runs_only() {
        let base = trie(&["a"], &[&[1], &[2], &[3]]);
        let run = trie(&["a"], &[&[9]]);
        let run_bytes = run.estimated_bytes();
        let d = DeltaTrie::new(base).with_run(run).unwrap();
        assert_eq!(d.delta_bytes(), run_bytes);
    }
}
