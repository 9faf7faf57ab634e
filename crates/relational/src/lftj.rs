//! Leapfrog Triejoin (Veldhuizen 2012): a streaming, depth-first worst-case
//! optimal join.
//!
//! Unlike the level-wise engine in [`crate::generic`], LFTJ never
//! materialises intermediates: it walks all atom tries in lockstep,
//! performing a leapfrog intersection per variable and backtracking on
//! failure. Both engines open and intersect a variable's level through the
//! same core ([`crate::leapfrog`]); results here are delivered in
//! lexicographic order of the plan's variable order.
//!
//! Two consumption styles are offered:
//!
//! * **pull** — [`LftjWalk`] owns its [`JoinPlan`] (tries are shared
//!   `Arc`s, so the plan is cheap to clone) and yields one tuple per
//!   [`LftjWalk::next_tuple`] call. Abandoning the walk after `k` tuples
//!   does strictly less work than full enumeration — this is the substrate
//!   for `LIMIT` pushdown in the multi-model `Rows` iterator;
//! * **push** — [`lftj_foreach`] drives a callback over every tuple.

use crate::error::Result;
use crate::leapfrog::{frame_offsets, live_width, Level, ABSENT};
use crate::plan::{JoinPlan, Ladder, VarPlan};
use crate::relation::Relation;
use crate::schema::{Attr, Schema};
use crate::stats::LevelProbeStats;
use crate::value::ValueId;

/// A pull-based depth-first LFTJ walk over a join plan.
///
/// The walk owns its plan (tries are `Arc`-shared, so construction from a
/// borrowed plan is a cheap clone) and yields result tuples one
/// [`LftjWalk::next_tuple`] call at a time, in lexicographic order of the
/// plan's variable order. Dropping the walk after `k` tuples abandons the
/// remaining search space — [`LftjWalk::bindings`] exposes how many variable
/// bindings were actually made, which early termination provably shrinks.
///
/// # Adaptive ordering
///
/// When the plan carries a [`Ladder`] ([`JoinPlan::with_ladder`]), the walk
/// defers level ordering to runtime: at every depth past the root it scores
/// each *admissible* unbound variable with the ladder rung and opens the
/// cheapest one, so different prefixes of one query may bind the remaining
/// variables in different orders (the fail-fast answer to skew). A variable
/// is admissible when every atom containing it has bound exactly the trie
/// levels above it — each atom's trie is leveled once, so the walk rotates
/// between *branches* of the plan rather than re-leveling anything.
///
/// The root variable stays pinned to the plan's first variable. Scoring it
/// too would change which choices count as deviations from the static
/// schedule, and so the reported [`LftjWalk::reorders`]; choosing the root
/// adaptively is an ordering-policy change of its own.
///
/// Yielded tuples are laid out per [`LftjWalk::order`] whatever binding
/// order was taken; only the *sequence* of tuples may differ from the static
/// walk (it is no longer globally lexicographic past the first column).
#[derive(Debug)]
pub struct LftjWalk {
    plan: JoinPlan,
    /// One [`Level`] per plan variable, reopened under every prefix; the
    /// variables of `depth_to_var` are open.
    levels: Vec<Level>,
    /// The frames of the bound prefixes, `fw` node indices each: frame `d`
    /// is what the depth-`d` prefix reached in every atom (laid out by
    /// `off`); frame 0, the empty prefix, is all `ABSENT`.
    frames: Vec<u32>,
    off: Vec<usize>,
    fw: usize,
    /// Per atom, how many of its trie levels the prefix binds.
    atom_levels: Vec<usize>,
    prefix: Vec<ValueId>,
    /// Whether the deepest open level's current match is bound onto
    /// `prefix` and `frames`.
    bound: bool,
    started: bool,
    done: bool,
    bindings: u64,
    /// Whether the walk runs the probe-counting instantiation.
    track: bool,
    /// Per-level probe counters, one slot per plan variable (all zero unless
    /// [`LftjWalk::with_probe_counters`] opted in). Adaptive walks index
    /// these by the *chosen variable*, not the depth, so the slots line up
    /// with [`LftjWalk::order`] in both modes.
    probe: Vec<LevelProbeStats>,
    /// Runtime-adaptive ordering rung, copied from the plan's ladder.
    adaptive: Option<Ladder>,
    /// `depth_to_var[d]` = plan-variable index bound at walk depth `d`
    /// (always the identity for static walks).
    depth_to_var: Vec<usize>,
    /// Whether each plan variable currently has an open level.
    var_open: Vec<bool>,
    /// Adaptive-mode result buffer permuted to plan order.
    out: Vec<ValueId>,
    /// Candidate scratch for adaptive choices (reused across levels).
    cand: Vec<usize>,
    /// Per-variable `(rows, distinct)` ladder terms. Both are functions of
    /// the tries alone — not of the bound prefix — so they are computed once
    /// here instead of on every descent (empty for static walks).
    static_scores: Vec<(u64, u64)>,
    /// Adaptive choices that deviated from the static schedule (picked a
    /// variable other than the first admissible one in plan order).
    reorders: u64,
    /// Candidate-variable estimates computed by adaptive choices.
    estimate_probes: u64,
    /// TRACK-only: `nvars × nvars` histogram; row `d`, column `v` counts
    /// how often variable `v` was opened at depth `d`.
    choice_hist: Vec<u64>,
    /// TRACK-only: per-variable sum of refined (sibling-span) estimates at
    /// choice time — the denominator of estimate-vs-actual error.
    est_bindings: Vec<u64>,
}

impl LftjWalk {
    /// Creates a walk over `plan`. No work happens until the first
    /// [`LftjWalk::next_tuple`] call.
    pub fn new(plan: JoinPlan) -> LftjWalk {
        let natoms = plan.tries().len();
        let nvars = plan.var_plans().len();
        let adaptive = plan.ladder();
        let static_scores = if adaptive.is_some() {
            plan.var_plans()
                .iter()
                .map(|vp| {
                    let rows = vp
                        .participants
                        .iter()
                        .map(|part| {
                            (0..plan.runs(part.atom))
                                .map(|r| plan.run_trie(part.atom, r).num_tuples() as u64)
                                .sum::<u64>()
                        })
                        .min()
                        .unwrap_or(0);
                    let distinct = vp
                        .participants
                        .iter()
                        .map(|part| {
                            (0..plan.runs(part.atom))
                                .map(|r| {
                                    plan.run_trie(part.atom, r)
                                        .level_summary(part.level)
                                        .distinct
                                })
                                .sum::<u64>()
                        })
                        .min()
                        .unwrap_or(0);
                    (rows, distinct)
                })
                .collect()
        } else {
            Vec::new()
        };
        let off = frame_offsets(&plan);
        let fw = off[natoms];
        let levels = plan
            .var_plans()
            .iter()
            .map(|vp| {
                let mut level = Level::default();
                level.configure(&plan, vp, &off);
                level
            })
            .collect();
        LftjWalk {
            plan,
            levels,
            frames: vec![ABSENT; fw],
            off,
            fw,
            atom_levels: vec![0; natoms],
            prefix: Vec::new(),
            bound: false,
            started: false,
            done: false,
            bindings: 0,
            track: false,
            probe: vec![LevelProbeStats::default(); nvars],
            adaptive,
            depth_to_var: Vec::with_capacity(nvars),
            var_open: vec![false; nvars],
            out: if adaptive.is_some() {
                vec![ValueId(0); nvars]
            } else {
                Vec::new()
            },
            cand: Vec::new(),
            static_scores,
            reorders: 0,
            estimate_probes: 0,
            choice_hist: if adaptive.is_some() {
                vec![0; nvars * nvars]
            } else {
                Vec::new()
            },
            est_bindings: if adaptive.is_some() {
                vec![0; nvars]
            } else {
                Vec::new()
            },
        }
    }

    /// Opts the walk into per-level probe counting (see
    /// [`LftjWalk::probe_stats`]). Counting runs a separately-monomorphised
    /// probe path; untracked walks pay nothing for the feature's existence.
    #[must_use]
    pub fn with_probe_counters(mut self) -> LftjWalk {
        self.track = true;
        self
    }

    /// The plan's global variable order (= the layout of yielded tuples).
    pub fn order(&self) -> &[Attr] {
        self.plan.order()
    }

    /// The plan driving the walk.
    pub fn plan(&self) -> &JoinPlan {
        &self.plan
    }

    /// Number of variable bindings made so far across all levels — the
    /// walk's work counter. Early termination (stopping after `k` tuples)
    /// leaves this strictly below the full-enumeration count whenever
    /// results remain.
    pub fn bindings(&self) -> u64 {
        self.bindings
    }

    /// Whether the walk has been exhausted.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Per-level probe counters, one entry per plan variable in order. All
    /// zeros unless the walk was built via [`LftjWalk::with_probe_counters`].
    pub fn probe_stats(&self) -> &[LevelProbeStats] {
        &self.probe
    }

    /// The adaptive-ordering ladder rung the walk runs under (`None` for a
    /// static walk).
    pub fn ladder(&self) -> Option<Ladder> {
        self.adaptive
    }

    /// Adaptive choices that deviated from the static schedule — the walk
    /// opened a variable other than the first admissible one in plan order.
    /// Always zero for static walks.
    pub fn reorders(&self) -> u64 {
        self.reorders
    }

    /// Candidate-variable estimates the adaptive chooser computed (its
    /// maintenance cost meter; depths with a single admissible variable are
    /// decided for free and counted as zero).
    pub fn estimate_probes(&self) -> u64 {
        self.estimate_probes
    }

    /// TRACK-only chosen-order histogram: entry `d · nvars + v` counts how
    /// often variable `v` was opened at depth `d`. Empty unless the walk is
    /// adaptive *and* was built via [`LftjWalk::with_probe_counters`].
    pub fn choice_histogram(&self) -> &[u64] {
        &self.choice_hist
    }

    /// TRACK-only per-variable sum of refined (sibling-span) estimates at
    /// choice time; compare with [`LftjWalk::probe_stats`] bindings for the
    /// estimate-vs-actual error. Empty unless adaptive and tracked.
    pub fn estimated_bindings(&self) -> &[u64] {
        &self.est_bindings
    }

    /// Opens the level of the next variable to bind under the deepest
    /// bound prefix (see [`Level::open`]).
    fn open_level(&mut self) {
        let d = self.depth_to_var.len();
        let var = self.choose_var(d);
        self.depth_to_var.push(var);
        self.var_open[var] = true;
        self.levels[var].open(&self.plan, &self.frames[d * self.fw..]);
        self.bound = false;
    }

    /// The Ghanima estimate of `var` under the depth-`d` prefix (see
    /// [`refined_span`]).
    fn span(&self, d: usize, var: usize) -> u64 {
        let frame = &self.frames[d * self.fw..(d + 1) * self.fw];
        refined_span(&self.plan, frame, &self.off, &self.plan.var_plans()[var])
    }

    /// Picks the plan variable to open at depth `d`.
    ///
    /// Static walks take the plan order verbatim. Adaptive walks pin the
    /// root (see the type docs) and past it score every **admissible**
    /// unbound variable with the ladder rung, opening the cheapest; ties
    /// cascade through the coarser rungs and finally plan position, so the
    /// choice is a pure function of the bound prefix and a walk is
    /// reproducible run to run.
    fn choose_var(&mut self, d: usize) -> usize {
        let Some(ladder) = self.adaptive else {
            return d;
        };
        let nvars = self.plan.var_plans().len();
        if d == 0 {
            if self.track {
                self.choice_hist[0] += 1;
                self.est_bindings[0] += self.span(0, 0);
            }
            return 0;
        }
        let mut cand = std::mem::take(&mut self.cand);
        cand.clear();
        for (v, vp) in self.plan.var_plans().iter().enumerate() {
            if self.var_open[v] {
                continue;
            }
            // Admissible: every atom containing `v` has bound exactly the
            // trie levels above `v`'s level there.
            let admissible = vp
                .participants
                .iter()
                .all(|part| part.level == self.atom_levels[part.atom]);
            if admissible {
                cand.push(v);
            }
        }
        debug_assert!(!cand.is_empty(), "some admissible variable always exists");
        let chosen = if cand.len() == 1 {
            cand[0]
        } else {
            self.estimate_probes += cand.len() as u64;
            let mut best = cand[0];
            let mut best_key = self.score_var(ladder, d, cand[0]);
            for &v in &cand[1..] {
                let key = self.score_var(ladder, d, v);
                if key < best_key {
                    best = v;
                    best_key = key;
                }
            }
            if best != cand[0] {
                self.reorders += 1;
            }
            best
        };
        if self.track {
            self.choice_hist[d * nvars + chosen] += 1;
            self.est_bindings[chosen] += self.span(d, chosen);
        }
        self.cand = cand;
        chosen
    }

    /// Scores variable `v` at depth `d` under `ladder`, smaller = cheaper to
    /// bind next. Each rung's key is suffixed with every coarser rung and
    /// finally the plan position, making the comparison total and
    /// deterministic.
    fn score_var(&self, ladder: Ladder, d: usize, v: usize) -> (u64, u64, u64, u64) {
        // `rows` (the *Jessica* rung: cheapest participant's tuple count)
        // and `distinct` (the *Paul* rung: cheapest participant's build-time
        // distinct count at `v`'s level, delta runs summed as an upper bound
        // on the union view) come precomputed — only the *Ghanima* rung
        // reads the bound prefix.
        let (rows, distinct) = self.static_scores[v];
        match ladder {
            Ladder::RowCount => (rows, v as u64, 0, 0),
            Ladder::Distinct => (distinct, rows, v as u64, 0),
            Ladder::Refined => (self.span(d, v), distinct, rows, v as u64),
        }
    }

    /// Yields the next result tuple (laid out per [`LftjWalk::order`]), or
    /// `None` when the join is exhausted. The returned slice is only valid
    /// until the next call.
    pub fn next_tuple(&mut self) -> Option<&[ValueId]> {
        if self.track {
            self.next_tuple_impl::<true>()
        } else {
            self.next_tuple_impl::<false>()
        }
    }

    fn next_tuple_impl<const TRACK: bool>(&mut self) -> Option<&[ValueId]> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            if self.plan.has_empty_atom() {
                self.done = true;
                return None;
            }
            if self.plan.var_plans().is_empty() {
                // Zero-variable plan: the join of non-empty nullary atoms
                // holds exactly one empty tuple.
                self.done = true;
                return Some(&self.prefix);
            }
            self.open_level();
        }
        let nlevels = self.plan.var_plans().len();
        loop {
            let d = self.depth_to_var.len() - 1;
            // The plan variable this depth binds (identity for static walks).
            let var = self.depth_to_var[d];
            let vp = &self.plan.var_plans()[var];
            let fw = self.fw;
            // Unbind this level's previous match (if any)…
            if self.bound {
                self.prefix.pop();
                self.frames.truncate((d + 1) * fw);
                for part in &vp.participants {
                    self.atom_levels[part.atom] -= 1;
                }
            }
            // …and pull its next one.
            match self.levels[var].advance::<TRACK>(&self.plan, &mut self.probe[var]) {
                Some(v) => {
                    self.prefix.push(v);
                    self.frames.extend_from_within(d * fw..(d + 1) * fw);
                    self.levels[var].scatter_match(&mut self.frames[(d + 1) * fw..]);
                    for part in &vp.participants {
                        self.atom_levels[part.atom] += 1;
                    }
                    self.bound = true;
                    self.bindings += 1;
                    if TRACK {
                        self.probe[var].bindings += 1;
                    }
                    if self.adaptive.is_some() {
                        self.out[var] = v;
                    }
                    if d + 1 == nlevels {
                        return if self.adaptive.is_some() {
                            Some(&self.out)
                        } else {
                            Some(&self.prefix)
                        };
                    }
                    self.open_level();
                }
                None => {
                    let var = self.depth_to_var.pop().expect("depth stack aligned");
                    self.var_open[var] = false;
                    // The level above still has its match bound.
                    self.bound = true;
                    if self.depth_to_var.is_empty() {
                        self.done = true;
                        return None;
                    }
                }
            }
        }
    }
}

/// The *Ghanima* rung: the width of the sibling range variable `vp` would
/// actually scan under the currently bound prefix — per participant the sum
/// of the live runs' child spans (level-0 participants contribute their
/// whole root level), minimised across participants. An O(participants ×
/// runs) read of ranges the walk is about to open anyway, and a tight upper
/// bound on how many values the binding can produce.
fn refined_span(plan: &JoinPlan, frame: &[u32], off: &[usize], vp: &VarPlan) -> u64 {
    vp.participants
        .iter()
        .map(|part| live_width(plan, *part, &frame[off[part.atom]..off[part.atom + 1]]))
        .min()
        .unwrap_or(u64::MAX)
}

/// Streams every result tuple of the join to `cb`, in lexicographic order of
/// the plan's variable order.
pub fn lftj_foreach(plan: &JoinPlan, mut cb: impl FnMut(&[ValueId])) {
    let mut walk = LftjWalk::new(plan.clone());
    while let Some(t) = walk.next_tuple() {
        cb(t);
    }
}

/// Materialises the LFTJ result into a relation (schema = variable order).
pub fn lftj(plan: &JoinPlan) -> Relation {
    let schema = Schema::new(plan.order().iter().cloned()).expect("distinct order");
    let mut out = Relation::new(schema);
    lftj_foreach(plan, |t| out.push(t).expect("arity matches"));
    out
}

/// Convenience wrapper: plans and runs LFTJ over `relations` under `order`.
pub fn lftj_join(relations: &[&Relation], order: &[Attr]) -> Result<Relation> {
    let plan = JoinPlan::new(relations, order)?;
    Ok(lftj(&plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic::{generic_join, levelwise_join, naive_join};
    use crate::schema::Schema;
    use crate::trie::{Trie, TrieBuilder};
    use std::sync::Arc;

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

    /// Runs `plan` to exhaustion, returning (tuples, bindings).
    fn drain(plan: &JoinPlan) -> (Vec<Vec<ValueId>>, u64) {
        let mut walk = LftjWalk::new(plan.clone());
        let mut out = Vec::new();
        while let Some(t) = walk.next_tuple() {
            out.push(t.to_vec());
        }
        (out, walk.bindings())
    }

    fn drain_counted(plan: &JoinPlan) -> (Vec<Vec<ValueId>>, u64, Vec<LevelProbeStats>) {
        let mut walk = LftjWalk::new(plan.clone()).with_probe_counters();
        let mut out = Vec::new();
        while let Some(t) = walk.next_tuple() {
            out.push(t.to_vec());
        }
        (out, walk.bindings(), walk.probe_stats().to_vec())
    }

    /// The triangle query over `edges` as `R(a,b) ⋈ S(b,c) ⋈ T(a,c)`.
    fn triangle_rels(edges: &[Vec<ValueId>]) -> [Relation; 3] {
        [["a", "b"], ["b", "c"], ["a", "c"]]
            .map(|names| Relation::from_rows(Schema::of(&names), edges.to_vec()).unwrap())
    }

    /// A symmetric `n`-vertex matching-like edge set (`i — (37i + 11) mod n`)
    /// with one planted triangle, dense enough at `n = 90` that the root
    /// levels get the bitset layout.
    fn dense_edges(n: u32) -> Vec<Vec<ValueId>> {
        let mut edges: Vec<Vec<ValueId>> = Vec::new();
        let pairs = (0..n).map(|i| (i, (i * 37 + 11) % n));
        for (x, y) in pairs.chain([(0, 1), (1, 2), (0, 2)]) {
            if x != y {
                edges.push(vec![v(x), v(y)]);
                edges.push(vec![v(y), v(x)]);
            }
        }
        edges
    }

    /// Vertex count of the instances checked against `naive_join`, whose
    /// nested loop is cubic in it; smaller under Miri, which interprets it.
    const NAIVE_VERTICES: u32 = if cfg!(miri) { 8 } else { 20 };

    /// K4 as a symmetric edge relation, joined by the six-atom 4-clique query.
    fn k4_plan() -> JoinPlan {
        let mut rows: Vec<Vec<ValueId>> = Vec::new();
        for x in 1..=4 {
            for y in 1..=4 {
                if x != y {
                    rows.push(vec![v(x), v(y)]);
                }
            }
        }
        let pairs = [
            ["a", "b"],
            ["a", "c"],
            ["a", "d"],
            ["b", "c"],
            ["b", "d"],
            ["c", "d"],
        ];
        let rels = pairs.map(|p| Relation::from_rows(Schema::of(&p), rows.clone()).unwrap());
        let refs: Vec<&Relation> = rels.iter().collect();
        JoinPlan::new(&refs, &attrs(&["a", "b", "c", "d"])).unwrap()
    }

    #[test]
    fn triangle_matches_generic() {
        let r = rel(&["a", "b"], &[&[1, 2], &[2, 3], &[3, 1], &[1, 3], &[2, 1]]);
        let s = rel(&["b", "c"], &[&[2, 3], &[3, 1], &[1, 2], &[1, 1]]);
        let t = rel(&["a", "c"], &[&[1, 3], &[2, 1], &[3, 2], &[2, 2]]);
        let order = attrs(&["a", "b", "c"]);
        let from_lftj = lftj_join(&[&r, &s, &t], &order).unwrap();
        let (from_generic, _) = generic_join(&[&r, &s, &t], &order).unwrap();
        assert!(from_lftj.set_eq(&from_generic));
        let expect = naive_join(&[&r, &s, &t], &order).unwrap();
        assert!(from_lftj.set_eq(&expect));
    }

    #[test]
    fn results_stream_in_lexicographic_order() {
        let r = rel(&["a", "b"], &[&[2, 1], &[1, 2], &[1, 1]]);
        let plan = JoinPlan::new(&[&r], &attrs(&["a", "b"])).unwrap();
        let mut seen: Vec<Vec<ValueId>> = Vec::new();
        lftj_foreach(&plan, |t| seen.push(t.to_vec()));
        let mut sorted = seen.clone();
        sorted.sort();
        assert_eq!(seen, sorted);
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn disjoint_atoms_yield_the_cross_product() {
        let r = rel(&["a"], &[&[1], &[2], &[3]]);
        let s = rel(&["b"], &[&[7], &[8]]);
        let plan = JoinPlan::new(&[&r, &s], &attrs(&["a", "b"])).unwrap();
        assert_eq!(lftj(&plan).len(), 6);
    }

    #[test]
    fn empty_atom_yields_nothing() {
        let r = rel(&["a"], &[&[1]]);
        let s = rel(&["a"], &[]);
        let plan = JoinPlan::new(&[&r, &s], &attrs(&["a"])).unwrap();
        assert!(lftj(&plan).is_empty());
    }

    #[test]
    fn single_atom_enumerates_relation() {
        let r = rel(&["a", "b"], &[&[1, 2], &[3, 4], &[1, 2]]);
        let out = lftj_join(&[&r], &attrs(&["a", "b"])).unwrap();
        assert_eq!(out.len(), 2); // set semantics
    }

    #[test]
    fn four_clique_query() {
        // All 4! orderings of {1,2,3,4}.
        assert_eq!(lftj(&k4_plan()).len(), 24);
    }

    #[test]
    fn walk_matches_foreach() {
        let r = rel(&["a", "b"], &[&[1, 2], &[2, 3], &[3, 1], &[1, 3]]);
        let s = rel(&["b", "c"], &[&[2, 3], &[3, 1], &[1, 2], &[3, 3]]);
        let t = rel(&["a", "c"], &[&[1, 3], &[2, 1], &[3, 2], &[1, 1]]);
        let plan = JoinPlan::new(&[&r, &s, &t], &attrs(&["a", "b", "c"])).unwrap();
        let mut pushed: Vec<Vec<ValueId>> = Vec::new();
        lftj_foreach(&plan, |t| pushed.push(t.to_vec()));
        let mut walk = LftjWalk::new(plan);
        let mut pulled: Vec<Vec<ValueId>> = Vec::new();
        while let Some(t) = walk.next_tuple() {
            pulled.push(t.to_vec());
        }
        assert_eq!(pushed, pulled);
        assert!(walk.is_done());
        assert!(
            walk.next_tuple().is_none(),
            "exhausted walk stays exhausted"
        );
    }

    #[test]
    fn early_termination_does_less_work() {
        // A large cartesian product: stopping after one tuple must bind far
        // fewer values than full enumeration.
        let rows_a: Vec<Vec<ValueId>> = (0..50).map(|i| vec![v(i)]).collect();
        let rows_b: Vec<Vec<ValueId>> = (0..50).map(|i| vec![v(100 + i)]).collect();
        let a = Relation::from_rows(Schema::of(&["a"]), rows_a).unwrap();
        let b = Relation::from_rows(Schema::of(&["b"]), rows_b).unwrap();
        let plan = JoinPlan::new(&[&a, &b], &attrs(&["a", "b"])).unwrap();

        let mut full = LftjWalk::new(plan.clone());
        while full.next_tuple().is_some() {}
        let mut early = LftjWalk::new(plan);
        assert!(early.next_tuple().is_some());
        assert!(
            early.bindings() < full.bindings(),
            "early {} !< full {}",
            early.bindings(),
            full.bindings()
        );
        assert_eq!(full.bindings(), 50 + 50 * 50);
    }

    #[test]
    fn walk_exposes_order_and_plan() {
        let r = rel(&["a", "b"], &[&[1, 2]]);
        let plan = JoinPlan::new(&[&r], &attrs(&["a", "b"])).unwrap();
        let walk = LftjWalk::new(plan);
        assert_eq!(walk.order(), &attrs(&["a", "b"])[..]);
        assert_eq!(walk.plan().tries().len(), 1);
        assert_eq!(walk.bindings(), 0);
    }

    #[test]
    fn walks_match_naive_join_across_batch_boundaries() {
        // A single-atom walk over more keys than one refill buffers, and a
        // triangle, both against the nested-loop reference.
        let rows: Vec<Vec<ValueId>> = (0..100u32).map(|i| vec![v(i), v(i % 7)]).collect();
        let r = Relation::from_rows(Schema::of(&["a", "b"]), rows).unwrap();
        let order = attrs(&["a", "b"]);
        let (got, _) = drain(&JoinPlan::new(&[&r], &order).unwrap());
        assert_eq!(got.len(), 100);
        assert_eq!(
            got,
            naive_join(&[&r], &order)
                .unwrap()
                .rows()
                .collect::<Vec<_>>()
        );
        let [r, s, t] = triangle_rels(&dense_edges(NAIVE_VERTICES));
        let order = attrs(&["a", "b", "c"]);
        let (got, _) = drain(&JoinPlan::new(&[&r, &s, &t], &order).unwrap());
        let want = naive_join(&[&r, &s, &t], &order).unwrap();
        assert!(!got.is_empty());
        assert_eq!(got, want.rows().collect::<Vec<_>>());
    }

    #[test]
    fn bitset_levels_walk_like_plain_ones() {
        // Forced bitset layouts and plain sorted layouts of the same tries
        // enumerate the nested-loop reference, in the walk and level-wise.
        let rels = triangle_rels(&dense_edges(NAIVE_VERTICES));
        let order = attrs(&["a", "b", "c"]);
        let refs: Vec<&Relation> = rels.iter().collect();
        let want = naive_join(&refs, &order).unwrap();
        for min_nodes in [1, usize::MAX] {
            let mut builder = TrieBuilder::new();
            builder.set_bitset_min_nodes(min_nodes);
            let tries: Vec<Arc<Trie>> = rels
                .iter()
                .map(|r| {
                    let levels = r.schema().restrict_order(&order).unwrap();
                    Arc::new(builder.build(r, &levels).unwrap())
                })
                .collect();
            let forced = tries.iter().any(|t| t.bitset_level_count() > 0);
            assert_eq!(forced, min_nodes == 1, "layout knob took effect");
            let plan = JoinPlan::from_shared(tries, &order).unwrap();
            assert_eq!(drain(&plan).0, want.rows().collect::<Vec<_>>());
            assert!(levelwise_join(&plan).0.set_eq(&want));
        }
    }

    #[test]
    fn probe_counters_are_pinned_and_observe_without_perturbing() {
        // The dense triangle crosses bitset seeks (its root levels) and
        // block seeks; K4 crosses block seeks over three-way rotations. The
        // literals pin the probe work exactly: the benchmark's per-seek and
        // per-binding metrics divide by these counters.
        let [r, s, t] = triangle_rels(&dense_edges(90));
        let triangle = JoinPlan::new(&[&r, &s, &t], &attrs(&["a", "b", "c"])).unwrap();
        assert!(triangle.tries().iter().all(|t| t.bitset_level_count() == 1));
        let pin = |bindings, seeks, seek_steps, refills, bitset_words| LevelProbeStats {
            bindings,
            seeks,
            seek_steps,
            refills,
            bitset_words,
        };
        let cases = [
            (
                triangle,
                vec![
                    pin(90, 89, 0, 3, 89),
                    pin(186, 182, 0, 90, 182),
                    pin(6, 397, 397, 186, 0),
                ],
            ),
            (
                k4_plan(),
                vec![
                    pin(4, 6, 6, 1, 0),
                    pin(12, 18, 18, 4, 0),
                    pin(24, 54, 54, 12, 0),
                    pin(24, 114, 114, 24, 0),
                ],
            ),
        ];
        for (plan, want) in cases {
            let (plain, plain_b) = drain(&plan);
            let (counted, counted_b, probe) = drain_counted(&plan);
            assert_eq!(plain, counted, "counting changed the result");
            assert_eq!(plain_b, counted_b, "counting changed bindings");
            assert_eq!(probe, want);
            // Untracked walks leave the counters untouched.
            let mut untracked = LftjWalk::new(plan);
            while untracked.next_tuple().is_some() {}
            assert!(untracked
                .probe_stats()
                .iter()
                .all(|p| *p == LevelProbeStats::default()));
        }
    }

    mod layered {
        use super::*;

        /// Splits `rows` pseudo-randomly into `parts` layers (each sorted and
        /// deduped into its own trie) and also returns the solid union
        /// relation of all rows.
        fn split_layers(
            names: &[&str],
            rows: &[Vec<u32>],
            parts: usize,
            seed: u64,
        ) -> (Vec<Arc<Trie>>, Relation) {
            let order: Vec<Attr> = names.iter().map(|&n| Attr::new(n)).collect();
            let mut buckets: Vec<Relation> = (0..parts)
                .map(|_| Relation::new(Schema::of(names)))
                .collect();
            let mut union_rel = Relation::new(Schema::of(names));
            let mut state = seed | 1;
            for row in rows {
                let ids: Vec<ValueId> = row.iter().map(|&x| v(x)).collect();
                union_rel.push(&ids).unwrap();
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                buckets[(state >> 33) as usize % parts].push(&ids).unwrap();
            }
            union_rel.sort_dedup();
            let tries = buckets
                .iter_mut()
                .map(|b| {
                    b.sort_dedup();
                    Arc::new(Trie::build(b, &order).unwrap())
                })
                .collect();
            (tries, union_rel)
        }

        /// A triangle instance where every atom is split into a base plus
        /// `parts - 1` delta runs; returns (layered plan, equivalent solid
        /// plan).
        fn triangle_layers(seed: u64, parts: usize) -> (JoinPlan, JoinPlan) {
            let mut edges: Vec<Vec<u32>> = Vec::new();
            let mut state = seed | 1;
            for _ in 0..140 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let i = ((state >> 33) % 40) as u32;
                let j = ((state >> 13) % 40) as u32;
                if i != j {
                    edges.push(vec![i, j]);
                    edges.push(vec![j, i]);
                }
            }
            // Plant triangles so the join is never trivially empty.
            for (x, y) in [(0, 1), (1, 2), (0, 2), (7, 9), (9, 11), (7, 11)] {
                edges.push(vec![x, y]);
                edges.push(vec![y, x]);
            }
            let order = attrs(&["a", "b", "c"]);
            let mut bases = Vec::new();
            let mut layers = Vec::new();
            let mut solids = Vec::new();
            for (i, names) in [["a", "b"], ["b", "c"], ["a", "c"]].iter().enumerate() {
                let (mut tries, solid) = split_layers(names, &edges, parts, seed ^ (i as u64 + 1));
                bases.push(tries.remove(0));
                layers.push(tries);
                solids.push(solid);
            }
            let layered = JoinPlan::from_shared_layered(bases, layers, &order).unwrap();
            let refs: Vec<&Relation> = solids.iter().collect();
            let solid = JoinPlan::new(&refs, &order).unwrap();
            (layered, solid)
        }

        /// Both engines answer a layered plan exactly as its solid twin: the
        /// walk tuple for tuple, the level-wise join row set and per-stage
        /// intermediate series.
        fn assert_engines_read_layers(layered: &JoinPlan, solid: &JoinPlan) {
            assert!(layered.has_layers());
            let (want, _) = drain(solid);
            assert_eq!(drain(layered).0, want);
            let (level_rows, level_stats) = levelwise_join(layered);
            let (solid_rows, solid_stats) = levelwise_join(solid);
            assert!(level_rows.set_eq(&lftj(layered)));
            assert!(level_rows.set_eq(&solid_rows));
            assert_eq!(level_stats.stages, solid_stats.stages);
        }

        #[test]
        fn layered_plans_match_solid_plans_in_both_engines() {
            let seeds: &[u64] = if cfg!(miri) {
                &[7]
            } else {
                &[1, 7, 42, 0x9e37, 0xdead_beef]
            };
            for &seed in seeds {
                for parts in [2usize, 3, 5] {
                    let (layered, solid) = triangle_layers(seed, parts);
                    assert!(!drain(&solid).0.is_empty(), "instance joins to something");
                    assert_engines_read_layers(&layered, &solid);
                }
            }
        }

        #[test]
        fn layered_probe_counters_observe_without_perturbing() {
            let (layered, _) = triangle_layers(0x51ed, 3);
            let (plain, plain_b) = drain(&layered);
            let (counted, counted_b, probe) = drain_counted(&layered);
            assert_eq!(plain, counted, "counting changed the result");
            assert_eq!(plain_b, counted_b, "counting changed bindings");
            let per_level: u64 = probe.iter().map(|p| p.bindings).sum();
            assert_eq!(per_level, counted_b);
            assert!(
                probe.iter().any(|p| p.seeks > 0),
                "union seeks uncounted: {probe:?}"
            );
        }

        #[test]
        fn layered_handles_empty_and_overlapping_layers() {
            let order = attrs(&["a", "b"]);
            let empty = Relation::new(Schema::of(&["a", "b"]));
            let mut two = rel(&["a", "b"], &[&[3, 4], &[1, 2]]);
            two.sort_dedup();
            let empty_t = Arc::new(Trie::build(&empty, &order).unwrap());
            let two_t = Arc::new(Trie::build(&two, &order).unwrap());
            let solid = JoinPlan::from_shared(vec![Arc::clone(&two_t)], &order).unwrap();
            let layered = |base: &Arc<Trie>, runs: Vec<Arc<Trie>>| {
                JoinPlan::from_shared_layered(vec![Arc::clone(base)], vec![runs], &order).unwrap()
            };

            // Empty base + live delta enumerates exactly the delta.
            let plan = layered(&empty_t, vec![Arc::clone(&two_t)]);
            assert!(!plan.has_empty_atom());
            assert_eq!(drain(&plan).0.len(), 2);
            assert_engines_read_layers(&plan, &solid);

            // Layers duplicating the base (and each other) still dedup.
            let plan2 = layered(&two_t, vec![Arc::clone(&two_t), Arc::clone(&two_t)]);
            assert_eq!(drain(&plan2).0.len(), 2);
            assert_engines_read_layers(&plan2, &solid);

            // Empty base + empty delta is a logically empty atom.
            let plan3 = layered(&empty_t, vec![Arc::clone(&empty_t)]);
            assert!(plan3.has_empty_atom());
            assert!(drain(&plan3).0.is_empty());
            assert!(levelwise_join(&plan3).0.is_empty());
        }
    }

    mod adaptive {
        use super::*;

        /// The two-branch query `Q(a,b,c) :- R(a,b), S(a,c), F(b), G(c)`:
        /// after binding `a`, both `b` and `c` are admissible, so the
        /// adaptive walk has genuine reorder freedom. Even `a`s are heavy
        /// on the `b` branch, odd `a`s on the `c` branch, so *no* static
        /// order avoids expanding a heavy branch on half the keys while
        /// the refined ladder sidesteps both.
        fn branch_relations(keys: u32, heavy: u32) -> (Relation, Relation, Relation, Relation) {
            let hb: Vec<u32> = (1000..1000 + heavy).collect();
            let hc: Vec<u32> = (2000..2000 + heavy).collect();
            let mut r = Relation::new(Schema::of(&["a", "b"]));
            let mut s = Relation::new(Schema::of(&["a", "c"]));
            for a in 0..keys {
                if a % 2 == 0 {
                    for &b in &hb {
                        r.push(&[v(a), v(b)]).unwrap();
                    }
                    s.push(&[v(a), v(600 + a % 16)]).unwrap();
                } else {
                    r.push(&[v(a), v(500 + a % 16)]).unwrap();
                    for &c in &hc {
                        s.push(&[v(a), v(c)]).unwrap();
                    }
                }
            }
            // Heavy values always pass their filter (so a static order that
            // expands a heavy branch really pays for it), light values only
            // rarely (the fail-fast opportunity): F = {501} ∪ heavy-b,
            // G = {600} ∪ heavy-c, so a ≡ 1 (mod 16) odd keys and
            // a ≡ 0 (mod 16) even keys survive and keep the result
            // non-empty.
            let mut f = Relation::new(Schema::of(&["b"]));
            for b in std::iter::once(501).chain(hb.iter().copied()) {
                f.push(&[v(b)]).unwrap();
            }
            let mut g = Relation::new(Schema::of(&["c"]));
            for c in std::iter::once(600).chain(hc.iter().copied()) {
                g.push(&[v(c)]).unwrap();
            }
            (r, s, f, g)
        }

        fn branch_plan(ladder: Option<Ladder>) -> JoinPlan {
            let (r, s, f, g) = branch_relations(64, 24);
            let plan = JoinPlan::new(&[&r, &s, &f, &g], &attrs(&["a", "b", "c"])).unwrap();
            plan.with_ladder(ladder)
        }

        fn multiset(mut rows: Vec<Vec<ValueId>>) -> Vec<Vec<ValueId>> {
            rows.sort();
            rows
        }

        #[test]
        fn every_rung_matches_the_static_walk() {
            let (want, _) = drain(&branch_plan(None));
            assert!(!want.is_empty(), "branch workload must have survivors");
            let want = multiset(want);
            for ladder in [Ladder::RowCount, Ladder::Distinct, Ladder::Refined] {
                let (got, _) = drain(&branch_plan(Some(ladder)));
                assert_eq!(multiset(got), want, "{ladder:?}");
            }
        }

        #[test]
        fn refined_rung_reorders_and_does_less_work() {
            let mut walk = LftjWalk::new(branch_plan(Some(Ladder::Refined)));
            while walk.next_tuple().is_some() {}
            let mut static_walk = LftjWalk::new(branch_plan(None));
            while static_walk.next_tuple().is_some() {}
            assert_eq!(static_walk.reorders(), 0);
            assert_eq!(static_walk.estimate_probes(), 0);
            assert!(walk.reorders() > 0, "skew must force deviations");
            assert!(walk.estimate_probes() > 0);
            assert!(
                walk.bindings() < static_walk.bindings() / 2,
                "adaptive {} !< static {} / 2",
                walk.bindings(),
                static_walk.bindings()
            );
        }

        #[test]
        fn adaptive_tuples_stay_in_plan_layout() {
            // Every yielded row must satisfy R(a,b) and S(a,c) under the
            // plan's (a, b, c) layout even when `c` was bound before `b`.
            let (r, s, _, _) = branch_relations(64, 24);
            let mut walk = LftjWalk::new(branch_plan(Some(Ladder::Refined)));
            let mut checked = 0usize;
            while let Some(t) = walk.next_tuple() {
                let (a, b, c) = (t[0], t[1], t[2]);
                assert!(r.rows().any(|row| row[0] == a && row[1] == b));
                assert!(s.rows().any(|row| row[0] == a && row[1] == c));
                checked += 1;
            }
            assert!(checked > 0);
        }

        #[test]
        fn tracked_adaptive_walks_report_choices_and_estimates() {
            let plan = branch_plan(Some(Ladder::Refined));
            let mut walk = LftjWalk::new(plan).with_probe_counters();
            while walk.next_tuple().is_some() {}
            let nvars = 3;
            let hist = walk.choice_histogram();
            assert_eq!(hist.len(), nvars * nvars);
            // Depth 0 is pinned to the plan's first variable.
            assert!(hist[0] > 0);
            assert_eq!(hist[1], 0);
            assert_eq!(hist[2], 0);
            // Depth 1 must have opened both `b` and `c` at least once.
            assert!(hist[nvars + 1] > 0, "b chosen at depth 1 sometimes");
            assert!(hist[nvars + 2] > 0, "c chosen at depth 1 sometimes");
            // Refined estimates upper-bound the actual bindings per var.
            for (v, stats) in walk.probe_stats().iter().enumerate() {
                assert!(
                    walk.estimated_bindings()[v] >= stats.bindings,
                    "estimate at var {v} is an upper bound"
                );
            }
        }
    }
}
