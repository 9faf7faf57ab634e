//! `EXPLAIN` for multi-model queries: the lowered atom set, the chosen
//! variable order, the size bounds (full and per prefix) — everything the
//! paper's Section 3 computes — plus the cold-start cost profile: what each
//! atom's trie costs to build and which sort path the builder takes.
//!
//! [`explain`] and [`explain_analyze`] share one pipeline — lower, order,
//! price, build every trie — and differ only in what they do with the
//! tries: `explain` drops them, `explain_analyze` walks them with probe
//! counters and puts the measured per-level actuals beside the bounds.

use crate::bounds::{prefix_bounds, query_bound};
use crate::error::Result;
use crate::exec::resolve;
use crate::order::OrderStrategy;
use crate::query::{DataContext, MultiModelQuery};
use relational::{
    Attr, BuildStats, JoinPlan, Ladder, LevelProbeStats, LftjWalk, Trie, TrieBuilder,
};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cold-start build profile of one atom's trie (see
/// [`Explanation::trie_builds`]).
#[derive(Debug, Clone)]
pub struct TrieBuildProfile {
    /// The atom's display name.
    pub atom: String,
    /// The builder's cost profile: rows in, distinct tuples, sort path,
    /// elapsed time.
    pub stats: BuildStats,
    /// Estimated resident bytes of the built trie.
    pub bytes: usize,
}

/// A query explanation: structure, order, bounds, and build costs.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// `(atom name, schema rendering, cardinality)` per atom.
    pub atoms: Vec<(String, String, usize)>,
    /// The variable order that would be used.
    pub order: Vec<String>,
    /// AGM bound of the full query with actual sizes (Lemma 3.1).
    pub bound: f64,
    /// AGM bound after each expansion step (Lemma 3.5's per-stage bound).
    pub prefix_bounds: Vec<f64>,
    /// Cut A-D edges per twig, as variable pairs.
    pub ad_edges: Vec<(String, String)>,
    /// Per-atom trie construction profiles under the chosen order — the
    /// cold-query cost a cache-less execution would pay up front.
    pub trie_builds: Vec<TrieBuildProfile>,
    /// Estimated resident bytes of the shared dictionary (what any memory
    /// budget must carry besides the tries themselves).
    pub dict_bytes: usize,
}

/// Explains a query without running the join. The twigs are lowered to
/// path relations and each atom's trie **is** built (once, with one reused
/// [`TrieBuilder`]) so the explanation can report *measured* construction
/// costs — but no intersection work happens.
///
/// Note the price of honest numbers: a cold `explain` deliberately pays
/// (and reports) the same trie-build bill a cold execution would, and the
/// built tries are dropped afterwards — `explain` has no access to a trie
/// cache (that lives in `xjoin-store`), so an explain-then-execute sequence
/// builds twice. Use it as a diagnostic, not on the hot path; cached
/// serving deployments should inspect `xjoin-store`'s `CacheStats` instead.
pub fn explain(
    ctx: &DataContext<'_>,
    query: &MultiModelQuery,
    strategy: &OrderStrategy,
) -> Result<Explanation> {
    Ok(lower_and_build(ctx, query, strategy)?.0)
}

/// What [`explain`] reports and [`explain_analyze`] walks: lowers the
/// query, fixes its order, prices it, and builds every atom's trie under
/// the order with one [`TrieBuilder`], profiling each build. Returns the
/// explanation, the order, the tries (aligned with the atoms), and the wall
/// times of lowering (order and bounds included) and of the builds.
#[allow(clippy::type_complexity)]
fn lower_and_build(
    ctx: &DataContext<'_>,
    query: &MultiModelQuery,
    strategy: &OrderStrategy,
) -> Result<(Explanation, Vec<Attr>, Vec<Arc<Trie>>, [Duration; 2])> {
    let resolve_start = Instant::now();
    let (atoms, order) = resolve(ctx, query, strategy)?;
    let bound = query_bound(&atoms)?;
    let prefixes = prefix_bounds(&atoms, &order)?;
    let resolve_elapsed = resolve_start.elapsed();

    let build_start = Instant::now();
    let mut builder = TrieBuilder::new();
    let mut trie_builds = Vec::with_capacity(atoms.rels.len());
    let mut tries = Vec::with_capacity(atoms.rels.len());
    for (name, resolved) in atoms.names.iter().zip(&atoms.rels) {
        let mut span = xjoin_obs::span("trie-build");
        let rel = resolved.rel();
        let restricted = rel.schema().restrict_order(&order)?;
        let trie = builder.build(rel, &restricted)?;
        let stats = builder.last_stats().expect("just built").clone();
        span.set_attr(|| {
            let layouts: Vec<String> = stats.layouts.iter().map(|l| l.to_string()).collect();
            format!("{name} path={} layouts=[{}]", stats.path, layouts.join(","))
        });
        trie_builds.push(TrieBuildProfile {
            atom: name.clone(),
            stats,
            bytes: trie.estimated_bytes(),
        });
        tries.push(Arc::new(trie));
    }
    let build_elapsed = build_start.elapsed();

    let mut ad_edges = Vec::new();
    for (twig, dec) in query.twigs.iter().zip(&atoms.decompositions) {
        for &(a, d) in &dec.ad_edges {
            ad_edges.push((
                twig.node(a).var.name().to_owned(),
                twig.node(d).var.name().to_owned(),
            ));
        }
    }
    let explanation = Explanation {
        atoms: atoms
            .names
            .iter()
            .zip(&atoms.rels)
            .map(|(n, r)| (n.clone(), r.rel().schema().to_string(), r.rel().len()))
            .collect(),
        order: order.iter().map(|a| a.name().to_owned()).collect(),
        bound,
        prefix_bounds: prefixes,
        ad_edges,
        trie_builds,
        dict_bytes: ctx.db.dict().estimated_bytes(),
    };
    Ok((explanation, order, tries, [resolve_elapsed, build_elapsed]))
}

impl Explanation {
    /// Renders the explanation as an indented text block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "atoms:");
        for (name, schema, size) in &self.atoms {
            let _ = writeln!(out, "  {name}{schema}  [{size} tuples]");
        }
        let _ = writeln!(out, "variable order: {}", self.order.join(", "));
        if !self.ad_edges.is_empty() {
            let rendered: Vec<String> = self
                .ad_edges
                .iter()
                .map(|(a, d)| format!("{a}//{d}"))
                .collect();
            let _ = writeln!(
                out,
                "cut A-D edges (validated post-join): {}",
                rendered.join(", ")
            );
        }
        let _ = writeln!(
            out,
            "worst-case result bound (Lemma 3.1): {:.1}",
            self.bound
        );
        let _ = writeln!(out, "per-stage intermediate bounds (Lemma 3.5):");
        for (var, b) in self.order.iter().zip(&self.prefix_bounds) {
            let _ = writeln!(out, "  after {var:<12} <= {b:.1}");
        }
        let _ = writeln!(out, "trie construction (cold-start cost per atom):");
        for p in &self.trie_builds {
            let layouts: Vec<String> = p.stats.layouts.iter().map(|l| l.to_string()).collect();
            let _ = writeln!(
                out,
                "  {:<16} {:>8} rows -> {:>8} tuples  path={:<11} {:>10.3} ms  {:>8} bytes  layouts=[{}]",
                p.atom,
                p.stats.rows_in,
                p.stats.tuples,
                p.stats.path.to_string(),
                p.stats.elapsed.as_secs_f64() * 1e3,
                p.bytes,
                layouts.join(",")
            );
        }
        let _ = writeln!(out, "dictionary resident bytes: {}", self.dict_bytes);
        out
    }
}

/// One attribute level of an [`AnalyzeReport`]: the Lemma 3.5 prefix bound
/// next to what the instrumented walk actually did there.
#[derive(Debug, Clone)]
pub struct LevelAnalysis {
    /// The variable bound at this level.
    pub var: String,
    /// The AGM bound on distinct matching prefixes through this level
    /// (Lemma 3.5).
    pub bound: f64,
    /// Distinct matching prefixes the walk actually bound at this level.
    pub actual: u64,
    /// The level's raw probe counters (seeks, gallop steps, batch refills,
    /// bitmap words).
    pub probe: LevelProbeStats,
}

impl LevelAnalysis {
    /// `actual / bound` — how much of the worst-case budget this level
    /// consumed (1.0 = the bound is tight; 0 when both are zero).
    pub fn tightness(&self) -> f64 {
        if self.bound > 0.0 {
            self.actual as f64 / self.bound
        } else if self.actual == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    }
}

/// Measured adaptive-ordering behaviour of one instrumented walk — present
/// in an [`AnalyzeReport`] only under [`OrderStrategy::Adaptive`].
#[derive(Debug, Clone)]
pub struct AdaptiveAnalysis {
    /// The ladder rung that scored candidates.
    pub ladder: Ladder,
    /// Choices that deviated from the static (skeleton) schedule.
    pub reorders: u64,
    /// Candidate estimates computed by the chooser (its maintenance cost).
    pub estimate_probes: u64,
    /// Per walk depth, the variables chosen there with their pick counts
    /// (nonzero entries only) — the measured chosen-order-per-subtree.
    pub choices: Vec<Vec<(String, u64)>>,
    /// Per variable: `(name, estimated bindings at choice time, actual
    /// bindings)` — the estimate-vs-actual error signal.
    pub estimates: Vec<(String, u64, u64)>,
}

impl AdaptiveAnalysis {
    /// `estimated / actual` for variable `i` (`None` when it never bound).
    pub fn estimate_error(&self, i: usize) -> Option<f64> {
        let (_, est, actual) = self.estimates.get(i)?;
        (*actual > 0).then(|| *est as f64 / *actual as f64)
    }
}

/// What [`explain_analyze`] returns: the static [`Explanation`] plus
/// measured per-level actuals, probe counters, and stage wall times from an
/// instrumented serial run.
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    /// The static explanation (atoms, order, bounds, build profiles).
    pub explanation: Explanation,
    /// Per attribute level: bound vs actual vs probe counters, in order.
    pub levels: Vec<LevelAnalysis>,
    /// Adaptive-ordering measurements (`None` under static strategies).
    pub adaptive: Option<AdaptiveAnalysis>,
    /// Join result rows enumerated by the walk (full-width, before twig
    /// structure validation and projection).
    pub output_rows: u64,
    /// Wall time of resolution: atom lowering, order selection, bounds.
    pub resolve_elapsed: Duration,
    /// Wall time of trie construction (the cold-start build bill).
    pub build_elapsed: Duration,
    /// Wall time of the instrumented LFTJ walk.
    pub probe_elapsed: Duration,
    /// End-to-end wall time of the analyze run.
    pub total_elapsed: Duration,
}

/// `EXPLAIN ANALYZE`: resolves the query, builds its tries, and **runs** a
/// probe-counting serial [`LftjWalk`] over the plan, so the
/// report can put *measured* per-level bindings and probe work next to the
/// Lemma 3.5 bounds [`explain`] only predicts. Spans land in the
/// `xjoin-obs` tracer when it is enabled.
///
/// The walk enumerates the raw join — twig structure validation and
/// projection are downstream of the per-level quantities Lemma 3.5 bounds,
/// so they are intentionally not part of the run.
pub fn explain_analyze(
    ctx: &DataContext<'_>,
    query: &MultiModelQuery,
    strategy: &OrderStrategy,
) -> Result<AnalyzeReport> {
    let total_start = Instant::now();
    let _qspan = xjoin_obs::span("explain-analyze");
    let (explanation, order, tries, [resolve_elapsed, build_elapsed]) =
        lower_and_build(ctx, query, strategy)?;
    let plan = JoinPlan::from_shared(tries, &order)?.with_ladder(strategy.ladder());

    let probe_start = Instant::now();
    let mut walk = LftjWalk::new(plan).with_probe_counters();
    let mut output_rows = 0u64;
    {
        let _span = xjoin_obs::span("probe");
        while walk.next_tuple().is_some() {
            output_rows += 1;
        }
    }
    let probe_elapsed = probe_start.elapsed();

    let adaptive = walk.ladder().map(|ladder| {
        let nvars = order.len();
        let hist = walk.choice_histogram();
        let choices = (0..nvars)
            .map(|d| {
                (0..nvars)
                    .filter(|&v| hist[d * nvars + v] > 0)
                    .map(|v| (order[v].name().to_owned(), hist[d * nvars + v]))
                    .collect()
            })
            .collect();
        let estimates = order
            .iter()
            .zip(walk.estimated_bindings())
            .zip(walk.probe_stats())
            .map(|((var, &est), probe)| (var.name().to_owned(), est, probe.bindings))
            .collect();
        AdaptiveAnalysis {
            ladder,
            reorders: walk.reorders(),
            estimate_probes: walk.estimate_probes(),
            choices,
            estimates,
        }
    });

    let levels = order
        .iter()
        .zip(&explanation.prefix_bounds)
        .zip(walk.probe_stats())
        .map(|((var, &b), probe)| LevelAnalysis {
            var: var.name().to_owned(),
            bound: b,
            actual: probe.bindings,
            probe: *probe,
        })
        .collect();

    Ok(AnalyzeReport {
        explanation,
        levels,
        adaptive,
        output_rows,
        resolve_elapsed,
        build_elapsed,
        probe_elapsed,
        total_elapsed: total_start.elapsed(),
    })
}

impl AnalyzeReport {
    /// Renders the report: the static explanation followed by the measured
    /// per-level table and the stage wall-time split.
    pub fn render(&self) -> String {
        let mut out = self.explanation.render();
        let _ = writeln!(out, "measured per level (serial lftj):");
        let _ = writeln!(
            out,
            "  {:<12} {:>14} {:>12} {:>10} {:>10} {:>12} {:>9} {:>13}",
            "level",
            "bound",
            "actual",
            "tightness",
            "seeks",
            "seek_steps",
            "refills",
            "bitset_words"
        );
        for l in &self.levels {
            let _ = writeln!(
                out,
                "  {:<12} {:>14.1} {:>12} {:>10.4} {:>10} {:>12} {:>9} {:>13}",
                l.var,
                l.bound,
                l.actual,
                l.tightness(),
                l.probe.seeks,
                l.probe.seek_steps,
                l.probe.refills,
                l.probe.bitset_words
            );
        }
        if let Some(a) = &self.adaptive {
            let _ = writeln!(
                out,
                "adaptive ordering (ladder={}): {} reorder(s), {} estimate probe(s)",
                a.ladder, a.reorders, a.estimate_probes
            );
            for (d, picks) in a.choices.iter().enumerate() {
                if picks.is_empty() {
                    continue;
                }
                let rendered: Vec<String> =
                    picks.iter().map(|(var, n)| format!("{var}×{n}")).collect();
                let _ = writeln!(out, "  depth {d}: {}", rendered.join(", "));
            }
            let _ = writeln!(out, "  estimate vs actual bindings:");
            for (i, (var, est, actual)) in a.estimates.iter().enumerate() {
                let err = a
                    .estimate_error(i)
                    .map(|e| format!("{e:.3}"))
                    .unwrap_or_else(|| "-".to_owned());
                let _ = writeln!(
                    out,
                    "    {var:<12} est {est:>10}  actual {actual:>10}  ratio {err}"
                );
            }
        }
        let _ = writeln!(out, "join rows (pre-validation): {}", self.output_rows);
        let build_ms = self.build_elapsed.as_secs_f64() * 1e3;
        let probe_ms = self.probe_elapsed.as_secs_f64() * 1e3;
        let split = build_ms + probe_ms;
        let _ = writeln!(
            out,
            "stage wall times: resolve {:.3} ms, build {build_ms:.3} ms, probe {probe_ms:.3} ms, total {:.3} ms",
            self.resolve_elapsed.as_secs_f64() * 1e3,
            self.total_elapsed.as_secs_f64() * 1e3,
        );
        if split > 0.0 {
            let _ = writeln!(
                out,
                "build/probe split: {:.0}% / {:.0}%",
                100.0 * build_ms / split,
                100.0 * probe_ms / split
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::{Database, Schema, Value};
    use xmldb::{TagIndex, XmlDocument};

    fn setup() -> (Database, XmlDocument) {
        let mut db = Database::new();
        db.load(
            "R",
            Schema::of(&["B", "D"]),
            vec![vec![Value::Int(1), Value::Int(2)]],
        )
        .unwrap();
        let mut dict = db.dict().clone();
        let mut b = XmlDocument::builder();
        b.begin("A");
        b.value(0i64);
        b.leaf("B", 1i64);
        b.leaf("D", 2i64);
        b.end();
        let doc = b.build(&mut dict);
        *db.dict_mut() = dict;
        (db, doc)
    }

    #[test]
    fn explanation_lists_atoms_and_bounds() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//A[/B]//D"]).unwrap();
        let e = explain(&ctx, &q, &OrderStrategy::Appearance).unwrap();
        assert_eq!(e.atoms.len(), 3); // R + path(A,B) + path(D)
        assert_eq!(e.order.len(), 3); // B, D (shared with R) and A
        assert_eq!(e.prefix_bounds.len(), e.order.len());
        assert_eq!(e.ad_edges, vec![("A".to_owned(), "D".to_owned())]);
        assert!(e.bound >= 1.0);
        let text = e.render();
        assert!(text.contains("variable order"));
        assert!(text.contains("Lemma 3.1"));
        assert!(text.contains("A//D"));
        // Build profiles cover every atom and report a sort path.
        assert_eq!(e.trie_builds.len(), e.atoms.len());
        for (p, (name, _, size)) in e.trie_builds.iter().zip(&e.atoms) {
            assert_eq!(&p.atom, name);
            assert_eq!(p.stats.rows_in, *size);
            assert!(p.stats.tuples <= p.stats.rows_in);
            assert!(!p.stats.layouts.is_empty(), "layouts reported per level");
        }
        assert!(text.contains("layouts=[sorted"), "{text}");
        assert!(e.dict_bytes > 0);
        assert!(text.contains("trie construction"));
        assert!(text.contains("dictionary resident bytes"));
    }

    #[test]
    fn explain_analyze_reports_actuals_against_bounds() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//A[/B][/D]"]).unwrap();
        let a = explain_analyze(&ctx, &q, &OrderStrategy::Appearance).unwrap();
        assert_eq!(a.levels.len(), a.explanation.order.len());
        for (l, b) in a.levels.iter().zip(&a.explanation.prefix_bounds) {
            assert_eq!(l.bound, *b);
            assert!(
                l.tightness() <= 1.0 + 1e-9,
                "actuals may not exceed the Lemma 3.5 bound: {} > {}",
                l.actual,
                l.bound
            );
        }
        // The tiny instance joins to one row; every level binds it.
        assert_eq!(a.output_rows, 1);
        assert!(a.levels.iter().all(|l| l.actual > 0));
        // Too small an instance to force seeks, but the rotation must have
        // refilled each level's batch at least once.
        assert!(a.levels.iter().all(|l| l.probe.refills > 0));
        let text = a.render();
        assert!(text.contains("tightness"), "{text}");
        assert!(text.contains("build/probe split"), "{text}");
    }

    #[test]
    fn explain_analyze_reports_adaptive_choices() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//A[/B][/D]"]).unwrap();
        let strategy = OrderStrategy::Adaptive {
            ladder: Ladder::Refined,
        };
        let a = explain_analyze(&ctx, &q, &strategy).unwrap();
        assert_eq!(a.output_rows, 1);
        let adaptive = a.adaptive.as_ref().expect("adaptive section present");
        assert_eq!(adaptive.ladder, Ladder::Refined);
        // Depth 0 is pinned to the skeleton's first variable and recorded.
        assert!(!adaptive.choices[0].is_empty());
        assert_eq!(adaptive.estimates.len(), a.explanation.order.len());
        let text = a.render();
        assert!(
            text.contains("adaptive ordering (ladder=refined)"),
            "{text}"
        );
        assert!(text.contains("estimate vs actual"), "{text}");

        // Static strategies carry no adaptive section.
        let s = explain_analyze(&ctx, &q, &OrderStrategy::Appearance).unwrap();
        assert!(s.adaptive.is_none());
        assert!(!s.render().contains("adaptive ordering"));
    }

    #[test]
    fn prefix_bounds_end_at_full_bound() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//A[/B][/D]"]).unwrap();
        let e = explain(&ctx, &q, &OrderStrategy::Appearance).unwrap();
        let last = *e.prefix_bounds.last().unwrap();
        assert!((last - e.bound).abs() < 1e-6 * (1.0 + e.bound));
    }
}
