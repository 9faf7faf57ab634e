//! Join plans: a set of trie-backed atoms under one global variable order.
//!
//! Worst-case optimal engines bind variables one at a time in a fixed global
//! order (the paper's *priority of attributes expansion*, `PA`). Every atom's
//! trie must be leveled by the restriction of that global order to the atom's
//! attributes — [`JoinPlan`] enforces this, precomputing for each variable
//! the list of atoms containing it and at which trie level.

use crate::error::{RelError, Result};
use crate::relation::Relation;
use crate::schema::Attr;
use crate::trie::Trie;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The cardinality-estimate ladder steering runtime-adaptive variable
/// ordering (the *Atreides* ladder).
///
/// Each rung names the estimate an adaptive [`crate::LftjWalk`] uses to
/// score the admissible unbound variables at a depth before binding the
/// cheapest one. The rungs trade estimate quality against read cost, and
/// every rung breaks ties with all the rungs below it (then with plan
/// position, so scoring is fully deterministic):
///
/// * [`Ladder::RowCount`] (*Jessica*) — the tuple count of the variable's
///   smallest participating atom. Static per atom, O(1) to read.
/// * [`Ladder::Distinct`] (*Paul*) — the distinct-value count of the
///   variable's trie level in its cheapest participant, read off the
///   build-time [`crate::trie::LevelSummary`]. Still prefix-independent.
/// * [`Ladder::Refined`] (*Ghanima*, the default) — the width of the
///   sibling range the variable's cursors would actually scan **under the
///   current prefix**: the tightest O(1) upper bound on how many values the
///   binding can produce, and the rung that reacts to skew one prefix at a
///   time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Ladder {
    /// Score by participating-atom row count (*Jessica*).
    RowCount,
    /// Score by build-time per-level distinct counts (*Paul*).
    Distinct,
    /// Score by the prefix-refined sibling-range width (*Ghanima*).
    #[default]
    Refined,
}

impl std::fmt::Display for Ladder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Ladder::RowCount => "rowcount",
            Ladder::Distinct => "distinct",
            Ladder::Refined => "refined",
        })
    }
}

/// One atom's participation in a variable's expansion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Participant {
    /// Index of the atom in [`JoinPlan::tries`].
    pub atom: usize,
    /// The trie level of the variable within that atom.
    pub level: usize,
}

/// Per-variable expansion plan.
#[derive(Debug, Clone)]
pub struct VarPlan {
    /// The variable being expanded.
    pub var: Attr,
    /// Atoms containing the variable, with its trie level in each.
    pub participants: Vec<Participant>,
}

/// A validated multiway join plan: atoms as tries, leveled consistently with
/// a global variable order.
///
/// Tries are held behind [`Arc`] so plans can be assembled from cached tries
/// (shared with other concurrent queries) without copying; [`JoinPlan::new`]
/// still builds fresh tries when no cache is involved.
#[derive(Debug, Clone)]
pub struct JoinPlan {
    order: Vec<Attr>,
    tries: Vec<Arc<Trie>>,
    /// Per-atom delta runs overlaying [`JoinPlan::tries`] (empty vector =
    /// solid atom). A layered atom's logical content is the union
    /// `tries[i] ∪ layers[i][0] ∪ layers[i][1] ∪ …`, which every engine
    /// reads through the leapfrog core's union cursor.
    layers: Vec<Vec<Arc<Trie>>>,
    var_plans: Vec<VarPlan>,
    /// Wall-clock time [`JoinPlan::new`] spent in [`Trie::build`] (zero for
    /// plans assembled from pre-built tries).
    build_elapsed: Duration,
    /// How many tries [`JoinPlan::new`] built (zero for pre-built plans).
    tries_built: usize,
    /// When set, walk-based engines defer level ordering to runtime and
    /// score admissible variables with this ladder rung ([`Ladder`]);
    /// `order` then acts as the skeleton order tries are leveled by (and
    /// the static fallback schedule).
    ladder: Option<Ladder>,
}

impl JoinPlan {
    /// Builds a plan from relations: each atom's trie is constructed with the
    /// restriction of `order` to its schema.
    ///
    /// Errors if some relation attribute is missing from `order`, or if some
    /// variable of `order` occurs in no relation (its domain would be
    /// unconstrained).
    pub fn new(relations: &[&Relation], order: &[Attr]) -> Result<JoinPlan> {
        if relations.is_empty() {
            return Err(RelError::EmptyQuery);
        }
        for (i, a) in order.iter().enumerate() {
            if order[..i].contains(a) {
                return Err(RelError::InvalidOrder(format!("duplicate variable `{a}`")));
            }
        }
        let build_start = Instant::now();
        let mut tries = Vec::with_capacity(relations.len());
        for rel in relations {
            let restricted = rel.schema().restrict_order(order)?;
            tries.push(Arc::new(Trie::build(rel, &restricted)?));
        }
        let build_elapsed = build_start.elapsed();
        let tries_built = tries.len();
        let mut plan = Self::from_shared(tries, order)?;
        plan.build_elapsed = build_elapsed;
        plan.tries_built = tries_built;
        Ok(plan)
    }

    /// Builds a plan from shared (possibly cached) tries, validating that
    /// every trie's attribute order is a subsequence of `order`.
    pub fn from_shared(tries: Vec<Arc<Trie>>, order: &[Attr]) -> Result<JoinPlan> {
        if tries.is_empty() {
            return Err(RelError::EmptyQuery);
        }
        for trie in &tries {
            let mut last = None;
            for a in trie.attrs() {
                let pos = order.iter().position(|o| o == a).ok_or_else(|| {
                    RelError::InvalidOrder(format!("atom attribute `{a}` missing from order"))
                })?;
                if let Some(l) = last {
                    if pos <= l {
                        return Err(RelError::InvalidOrder(format!(
                            "atom order violates global order at `{a}`"
                        )));
                    }
                }
                last = Some(pos);
            }
        }
        let mut var_plans = Vec::with_capacity(order.len());
        for var in order {
            let mut participants = Vec::new();
            for (atom, trie) in tries.iter().enumerate() {
                if let Some(level) = trie.attrs().iter().position(|a| a == var) {
                    participants.push(Participant { atom, level });
                }
            }
            if participants.is_empty() {
                return Err(RelError::InvalidOrder(format!(
                    "variable `{var}` occurs in no atom"
                )));
            }
            var_plans.push(VarPlan {
                var: var.clone(),
                participants,
            });
        }
        let layers = vec![Vec::new(); tries.len()];
        Ok(JoinPlan {
            order: order.to_vec(),
            tries,
            layers,
            var_plans,
            build_elapsed: Duration::ZERO,
            tries_built: 0,
            ladder: None,
        })
    }

    /// Builds a plan whose atoms may carry delta-run overlays: atom `i`'s
    /// logical content is `tries[i]` unioned with every trie in `layers[i]`.
    ///
    /// Every run must be leveled by exactly the same attribute order as its
    /// base trie. Every engine executes layered plans — the LFTJ walk and
    /// the level-wise join alike open an atom's levels over all its live
    /// runs.
    pub fn from_shared_layered(
        tries: Vec<Arc<Trie>>,
        layers: Vec<Vec<Arc<Trie>>>,
        order: &[Attr],
    ) -> Result<JoinPlan> {
        if layers.len() != tries.len() {
            return Err(RelError::InvalidOrder(format!(
                "layer list covers {} atoms, plan has {}",
                layers.len(),
                tries.len()
            )));
        }
        for (base, runs) in tries.iter().zip(&layers) {
            for run in runs {
                if run.attrs() != base.attrs() {
                    return Err(RelError::InvalidOrder(format!(
                        "delta run order {:?} does not match atom order {:?}",
                        run.attrs(),
                        base.attrs()
                    )));
                }
            }
        }
        let mut plan = Self::from_shared(tries, order)?;
        plan.layers = layers;
        Ok(plan)
    }

    /// The global variable order.
    pub fn order(&self) -> &[Attr] {
        &self.order
    }

    /// Attaches (or clears) a runtime-adaptive ordering ladder. Walks built
    /// from the returned plan defer level ordering to runtime and score
    /// admissible variables with `ladder`; result *tuples* are still laid
    /// out per
    /// [`JoinPlan::order`].
    #[must_use]
    pub fn with_ladder(mut self, ladder: Option<Ladder>) -> JoinPlan {
        self.ladder = ladder;
        self
    }

    /// The runtime-adaptive ordering ladder, if one is attached.
    pub fn ladder(&self) -> Option<Ladder> {
        self.ladder
    }

    /// Time [`JoinPlan::new`] spent building tries ([`Duration::ZERO`] when
    /// the plan was assembled from pre-built / cached tries). Engines copy
    /// it into [`crate::JoinStats::build_elapsed`] so benchmarks can report
    /// build vs probe time separately.
    pub fn build_elapsed(&self) -> Duration {
        self.build_elapsed
    }

    /// Number of tries [`JoinPlan::new`] built (0 for pre-built plans).
    pub fn tries_built(&self) -> usize {
        self.tries_built
    }

    /// The atoms' base tries (leveled consistently with
    /// [`JoinPlan::order`]). For layered atoms this is the base layer only;
    /// the engines read it together with [`JoinPlan::layers`].
    pub fn tries(&self) -> &[Arc<Trie>] {
        &self.tries
    }

    /// Per-atom delta-run overlays, aligned with [`JoinPlan::tries`] (an
    /// empty vector means the atom is solid).
    pub fn layers(&self) -> &[Vec<Arc<Trie>>] {
        &self.layers
    }

    /// Whether any atom carries delta runs.
    pub fn has_layers(&self) -> bool {
        self.layers.iter().any(|l| !l.is_empty())
    }

    /// Number of physical layers of atom `atom`: 1 (the base) plus its
    /// delta runs.
    #[inline]
    pub fn runs(&self, atom: usize) -> usize {
        1 + self.layers[atom].len()
    }

    /// Layer `run` of atom `atom`: run 0 is the base trie, run `r >= 1` is
    /// delta run `r - 1`.
    #[inline]
    pub fn run_trie(&self, atom: usize, run: usize) -> &Arc<Trie> {
        if run == 0 {
            &self.tries[atom]
        } else {
            &self.layers[atom][run - 1]
        }
    }

    /// Per-variable plans, aligned with [`JoinPlan::order`].
    pub fn var_plans(&self) -> &[VarPlan] {
        &self.var_plans
    }

    /// Whether any atom is logically empty — base *and* every delta run
    /// empty — making the whole join empty.
    pub fn has_empty_atom(&self) -> bool {
        self.tries
            .iter()
            .zip(&self.layers)
            .any(|(t, runs)| t.num_tuples() == 0 && runs.iter().all(|r| r.num_tuples() == 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::ValueId;

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
    fn plan_builds_restricted_tries() {
        let r = rel(&["b", "a"], &[&[1, 2], &[3, 4]]);
        let s = rel(&["a", "c"], &[&[2, 5]]);
        let plan = JoinPlan::new(&[&r, &s], &attrs(&["a", "b", "c"])).unwrap();
        // R(b,a) must be re-leveled to (a, b).
        assert_eq!(plan.tries()[0].attrs(), &attrs(&["a", "b"])[..]);
        assert_eq!(plan.tries()[1].attrs(), &attrs(&["a", "c"])[..]);
        // Variable "a" participates in both atoms at level 0.
        let vp = &plan.var_plans()[0];
        assert_eq!(vp.participants.len(), 2);
        assert!(vp.participants.iter().all(|p| p.level == 0));
        // "b" only in atom 0 at level 1.
        assert_eq!(
            plan.var_plans()[1].participants,
            vec![Participant { atom: 0, level: 1 }]
        );
    }

    #[test]
    fn plan_rejects_uncovered_variable() {
        let r = rel(&["a"], &[&[1]]);
        let err = JoinPlan::new(&[&r], &attrs(&["a", "zz"])).unwrap_err();
        assert!(err.to_string().contains("zz"));
    }

    #[test]
    fn plan_rejects_attr_missing_from_order() {
        let r = rel(&["a", "b"], &[&[1, 2]]);
        assert!(JoinPlan::new(&[&r], &attrs(&["a"])).is_err());
    }

    #[test]
    fn plan_rejects_duplicate_order_variable() {
        let r = rel(&["a"], &[&[1]]);
        assert!(JoinPlan::new(&[&r], &attrs(&["a", "a"])).is_err());
    }

    #[test]
    fn plan_rejects_empty_query() {
        assert!(JoinPlan::new(&[], &attrs(&["a"])).is_err());
    }

    #[test]
    fn from_shared_rejects_misleveled_trie() {
        let r = rel(&["a", "b"], &[&[1, 2]]);
        let t = Arc::new(Trie::build(&r, &attrs(&["b", "a"])).unwrap());
        // Global order (a, b) conflicts with trie order (b, a).
        assert!(JoinPlan::from_shared(vec![t], &attrs(&["a", "b"])).is_err());
    }

    #[test]
    fn from_shared_reuses_trie_allocations() {
        let r = rel(&["a", "b"], &[&[1, 2], &[1, 3]]);
        let trie = Arc::new(Trie::from_relation(&r));
        let plan = JoinPlan::from_shared(vec![Arc::clone(&trie)], &attrs(&["a", "b"])).unwrap();
        assert!(Arc::ptr_eq(&plan.tries()[0], &trie));
        // The same Arc can back several plans simultaneously.
        let plan2 = JoinPlan::from_shared(vec![Arc::clone(&trie)], &attrs(&["a", "b"])).unwrap();
        assert!(Arc::ptr_eq(&plan2.tries()[0], &plan.tries()[0]));
    }

    #[test]
    fn fresh_plans_report_build_cost_shared_plans_do_not() {
        let r = rel(&["a", "b"], &[&[1, 2], &[3, 4]]);
        let plan = JoinPlan::new(&[&r], &attrs(&["a", "b"])).unwrap();
        assert_eq!(plan.tries_built(), 1);
        let shared = JoinPlan::from_shared(plan.tries().to_vec(), &attrs(&["a", "b"])).unwrap();
        assert_eq!(shared.tries_built(), 0);
        assert_eq!(shared.build_elapsed(), Duration::ZERO);
    }

    #[test]
    fn empty_atom_detection() {
        let r = rel(&["a"], &[&[1]]);
        let empty = rel(&["a"], &[]);
        let plan = JoinPlan::new(&[&r, &empty], &attrs(&["a"])).unwrap();
        assert!(plan.has_empty_atom());
        let plan2 = JoinPlan::new(&[&r], &attrs(&["a"])).unwrap();
        assert!(!plan2.has_empty_atom());
    }

    #[test]
    fn layered_plan_accessors_and_validation() {
        let order = attrs(&["a", "b"]);
        let base = Arc::new(Trie::from_relation(&rel(&["a", "b"], &[&[1, 2]])));
        let run = Arc::new(Trie::from_relation(&rel(&["a", "b"], &[&[3, 4]])));
        let plan = JoinPlan::from_shared_layered(
            vec![Arc::clone(&base)],
            vec![vec![Arc::clone(&run)]],
            &order,
        )
        .unwrap();
        assert!(plan.has_layers());
        assert_eq!(plan.runs(0), 2);
        assert!(Arc::ptr_eq(plan.run_trie(0, 0), &base));
        assert!(Arc::ptr_eq(plan.run_trie(0, 1), &run));
        assert_eq!(plan.layers()[0].len(), 1);

        // One layer list per atom, no more, no fewer.
        assert!(JoinPlan::from_shared_layered(vec![Arc::clone(&base)], vec![], &order).is_err());
        // Runs must share the base's level order.
        let misleveled =
            Arc::new(Trie::build(&rel(&["a", "b"], &[&[1, 2]]), &attrs(&["b", "a"])).unwrap());
        assert!(JoinPlan::from_shared_layered(
            vec![Arc::clone(&base)],
            vec![vec![misleveled]],
            &order
        )
        .is_err());

        // Plans without runs report no layers.
        let solid =
            JoinPlan::from_shared_layered(vec![Arc::clone(&base)], vec![vec![]], &order).unwrap();
        assert!(!solid.has_layers());
        assert_eq!(solid.runs(0), 1);
    }

    #[test]
    fn layered_empty_atom_considers_all_runs() {
        let order = attrs(&["a"]);
        let empty = Arc::new(Trie::from_relation(&rel(&["a"], &[])));
        let one = Arc::new(Trie::from_relation(&rel(&["a"], &[&[1]])));
        // Empty base + live run: the atom is logically non-empty.
        let plan = JoinPlan::from_shared_layered(
            vec![Arc::clone(&empty)],
            vec![vec![Arc::clone(&one)]],
            &order,
        )
        .unwrap();
        assert!(!plan.has_empty_atom());
        // Empty base + empty run: logically empty.
        let plan2 = JoinPlan::from_shared_layered(
            vec![Arc::clone(&empty)],
            vec![vec![Arc::clone(&empty)]],
            &order,
        )
        .unwrap();
        assert!(plan2.has_empty_atom());
    }
}
