//! `paper-cold`: the paper's own experiment, cold. Each op takes MMQL text
//! through parse, lowering, ordering, trie build, the level-wise XJoin
//! (Algorithm 1) and twig validation; nothing is cached between ops.

use super::answer;
use crate::gen;
use crate::harness::{closed_loop, shuffled_schedule, Layers, Outcome, Pass, Workload};
use crate::load::{self, Instance};
use crate::oracle::{self, Expect};
use crate::rng::Rng;
use crate::stats::median;
use crate::trace::Recorder;
use relational::JoinPlan;
use std::time::{Duration, Instant};
use xjoin_core::{
    collect_atoms, compute_order, parse_query_with_options, prefix_bounds, validate_output,
    xjoin_with_plan, ExecOptions, QueryBuilder, TwigValidator,
};

const TWIG: &str = "//A[/B][/D]//C[/E[//F[/H]][//G]]";
const CLASSES: &[&str] = &["bookstore", "fig3-random", "fig2", "fig3-tight"];
/// Ops per class in one cycle of the schedule, in `CLASSES` order. By
/// latency the classes run fig3-random, bookstore, fig2, fig3-tight: the
/// median falls inside `bookstore`, twenty points from either neighbour, and
/// the 99th percentile at the 80th percentile of `fig3-tight`. The random
/// instance, whose cost moves most with the seed, weighs least of the cheap
/// classes.
const WEIGHTS: [usize; 4] = [10, 4, 5, 1];

/// Ops between two readings of the host's clock: about 8 ms.
const GROUP: usize = 10;

struct Stmt {
    inst: Instance,
    text: String,
    expect: Expect,
    input_tuples: usize,
    trie_bytes: usize,
}

pub struct PaperCold {
    stmts: Vec<Stmt>,
    schedule: Vec<u16>,
    sizes: Vec<(&'static str, String)>,
    xml_mb_per_s: f64,
    tag_index_us: f64,
    // Exact counts gathered by the traced pass.
    intermediates: u64,
    results: u64,
    build_ns_per_tuple: Vec<f64>,
}

impl PaperCold {
    pub fn setup(seed: u64, quick: bool) -> PaperCold {
        let (tight_n, random_n, fig2_n, orders, lines) = if quick {
            (6, 8, 4, 60, 150)
        } else {
            (48, 32, 13, 300, 800)
        };
        let fig_text =
            |r1: &str, r2: &str| format!("Q(A, B, C, D, E, F, G, H) :- R1({r1}), R2({r2}), {TWIG}");
        let book = gen::bookstore(&mut Rng::fork(seed, 1), orders, lines);
        let (book_inst, parse_s, index_s) = load::bookstore_instance(&book);
        let random = gen::fig3_random(&mut Rng::fork(seed, 2), random_n, random_n as u64);
        let fig2 = gen::fig2(&mut Rng::fork(seed, 3), fig2_n);
        let tight = gen::fig3_tight(&mut Rng::fork(seed, 4), tight_n);
        let (fig2_expect, tight_expect) =
            (oracle::fig_expected(&fig2), oracle::fig_expected(&tight));
        // Figure 3's closed forms: n^3 and n^2 result rows.
        assert_eq!(fig2_expect.rows, (fig2_n as u64).pow(3));
        assert_eq!(tight_expect.rows, (tight_n as u64).pow(2));
        let stmts: Vec<Stmt> = [
            (
                book_inst,
                "Q(userID, ISBN, price) :- R(orderID, userID), \
                 //invoices/orderLine[/orderID][/ISBN][/price]"
                    .to_string(),
                oracle::bookstore_expected(&book),
            ),
            (
                load::fig_instance(&random),
                fig_text("A, B, C, D", "E, F, G, H"),
                oracle::fig_expected(&random),
            ),
            (
                load::fig_instance(&fig2),
                fig_text("B, D", "F, G, H"),
                fig2_expect,
            ),
            (
                load::fig_instance(&tight),
                fig_text("A, B, C, D", "E, F, G, H"),
                tight_expect,
            ),
        ]
        .into_iter()
        .map(|(inst, text, expect)| {
            // One cold run per statement: sizes the index metric.
            let q = QueryBuilder::mmql(&text)
                .and_then(QueryBuilder::build)
                .expect("MMQL parses");
            let ctx = inst.ctx();
            let atoms = collect_atoms(&ctx, &q.query).expect("atoms resolve");
            let order = compute_order(&atoms, &q.options.order).expect("order exists");
            let plan = JoinPlan::new(&atoms.rel_refs(), &order).expect("plan builds");
            let input_tuples = atoms.sizes().iter().map(|s| s.1).sum();
            let trie_bytes = plan.tries().iter().map(|t| t.estimated_bytes()).sum();
            Stmt {
                inst,
                text,
                expect,
                input_tuples,
                trie_bytes,
            }
        })
        .collect();
        let sizes = vec![
            (
                "bookstore",
                format!(
                    "{orders} orders, {lines} order lines, {} B of XML",
                    book.xml.len()
                ),
            ),
            (
                "fig3-random",
                format!("n = {random_n}, domain = {random_n} per attribute"),
            ),
            ("fig2", format!("n = {fig2_n} ({} rows)", fig2_expect.rows)),
            (
                "fig3-tight",
                format!(
                    "n = {tight_n} ({} rows, {} twig matches)",
                    tight_expect.rows,
                    (tight_n as u64).pow(5)
                ),
            ),
            ("mix weights", format!("{CLASSES:?} = {WEIGHTS:?}")),
            (
                "tuples indexed per op",
                format!(
                    "{:?}",
                    stmts.iter().map(|s| s.input_tuples).collect::<Vec<_>>()
                ),
            ),
        ];
        PaperCold {
            stmts,
            schedule: shuffled_schedule(&mut Rng::fork(seed, 5), &WEIGHTS, 5),
            sizes,
            xml_mb_per_s: book.xml.len() as f64 / 1e6 / parse_s,
            tag_index_us: index_s * 1e6,
            intermediates: 0,
            results: 0,
            build_ns_per_tuple: Vec::new(),
        }
    }
}

impl Workload for PaperCold {
    fn classes(&self) -> &'static [&'static str] {
        CLASSES
    }

    fn sizes(&self) -> Vec<(&'static str, String)> {
        self.sizes.clone()
    }

    fn index_bytes_per_tuple(&self) -> f64 {
        let per_cycle = |f: fn(&Stmt) -> usize| -> f64 {
            self.stmts
                .iter()
                .zip(WEIGHTS)
                .map(|(s, w)| (f(s) * w) as f64)
                .sum()
        };
        per_cycle(|s| s.trie_bytes) / per_cycle(|s| s.input_tuples)
    }

    fn timed(&mut self, dur: Duration) -> Pass {
        let stmts = &self.stmts;
        closed_loop(dur, &self.schedule, GROUP, |i| {
            let s = &stmts[i as usize];
            let ctx = s.inst.ctx();
            let t = Instant::now();
            let out = QueryBuilder::mmql(&s.text)
                .and_then(QueryBuilder::build)
                .and_then(|q| q.execute(&ctx));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match out {
                Ok(out) => Outcome::checked(
                    i as u8,
                    ms,
                    answer(s.inst.db.dict(), &out.results),
                    s.expect,
                ),
                Err(_) => Outcome::failed(i as u8, ms),
            }
        })
    }

    fn traced(&mut self, dur: Duration, rec: &mut Recorder) -> Pass {
        let stmts = &self.stmts;
        let (mut intermediates, mut results, mut build) = (0u64, 0u64, Vec::new());
        let pass = closed_loop(dur, &self.schedule, GROUP, |i| {
            let s = &stmts[i as usize];
            let ctx = s.inst.ctx();
            let op = rec.begin_op("op", i as u8);
            let steps = (|| -> xjoin_core::Result<_> {
                let (mut q, order) =
                    rec.leaf("core.parse", || parse_query_with_options(&s.text))?;
                let mut opts = ExecOptions::default();
                if let Some(order) = order {
                    opts.order = order;
                }
                let atoms = rec.leaf("core.resolve", || collect_atoms(&ctx, &q))?;
                let order = rec.leaf("core.order", || {
                    let order = compute_order(&atoms, &opts.order)?;
                    validate_output(&q, &order)?;
                    Ok::<_, xjoin_core::CoreError>(order)
                })?;
                let id = rec.enter("relational.build");
                let plan = JoinPlan::new(&atoms.rel_refs(), &order);
                build.push(rec.exit(id) as f64 / s.input_tuples as f64);
                let plan = plan?;
                // The walk returns full-width rows and the head is applied
                // as a step of its own, so that the rows can be validated
                // again below.
                let head = q.output.take().expect("every statement has a head");
                let full = rec.leaf("core.walk", || {
                    xjoin_with_plan(
                        &ctx,
                        &q,
                        &opts.xjoin_config(),
                        &plan,
                        atoms.sizes(),
                        atoms.first_path_atom,
                    )
                })?;
                let rows = rec.leaf("core.project", || full.results.project(&head))?;
                Ok((q, full, rows))
            })();
            let ms = rec.exit(op) as f64 / 1e6;
            match steps {
                Ok((q, full, rows)) => {
                    // `xjoin_with_plan` validates twig structure inside the
                    // walk. Outside the op, the same check runs again over
                    // the rows it let through: the walk's own time is its
                    // span less this one.
                    let mut validators: Vec<TwigValidator<'_>> = q
                        .twigs
                        .iter()
                        .map(|t| {
                            TwigValidator::new(ctx.doc, ctx.index, t, &full.order)
                                .expect("order covers the twig")
                        })
                        .collect();
                    let valid = rec.leaf("core.validate", || {
                        full.results
                            .rows()
                            .filter(|row| validators.iter_mut().all(|v| v.check(row)))
                            .count()
                    });
                    intermediates += full.stats.total_intermediate();
                    results += rows.len() as u64;
                    let got = answer(s.inst.db.dict(), &rows);
                    if valid != full.results.len() {
                        return Outcome::failed(i as u8, ms);
                    }
                    Outcome::checked(i as u8, ms, got, s.expect)
                }
                Err(_) => Outcome::failed(i as u8, ms),
            }
        });
        self.intermediates = intermediates;
        self.results = results;
        self.build_ns_per_tuple = build;
        pass
    }

    fn probes(&mut self, dur: Duration, rec: &Recorder, _base: &Pass, layers: &mut Layers) -> u64 {
        for (span, metric) in [
            ("core.parse", "core.parse.us"),
            ("core.resolve", "core.resolve.us"),
            ("core.order", "core.order.us"),
            ("core.walk", "core.walk.us"),
        ] {
            layers.insert(metric, median(&rec.durations_us(span)));
        }
        layers.insert(
            "relational.build.ns_per_tuple",
            median(&self.build_ns_per_tuple),
        );
        layers.insert(
            "relational.build.bytes_per_tuple",
            self.index_bytes_per_tuple(),
        );
        layers.insert(
            "core.walk.intermediate_per_result",
            self.intermediates as f64 / self.results as f64,
        );
        layers.insert("xmldb.parse.mb_per_s", self.xml_mb_per_s);
        layers.insert("xmldb.tag_index.us", self.tag_index_us);
        let total = |span| rec.total_us(span);
        layers.insert(
            "core.validate.ns_per_tuple",
            total("core.validate") * 1e3 / self.results as f64,
        );
        // The walk's own share of an op: its span less the validation inside it.
        layers.insert(
            "bench.walk_self_share",
            (total("core.walk") - total("core.validate")) / total("op"),
        );

        // Calls into single layers, over the schedule so that statements
        // weigh in as they do in the passes.
        let mut path_us = Vec::new();
        let (mut tightness, mut broken) = (0.0f64, 0u64);
        let mut bounded = vec![false; self.stmts.len()];
        let start = Instant::now();
        for &i in self.schedule.iter().cycle() {
            if start.elapsed() >= dur {
                break;
            }
            let s = &self.stmts[i as usize];
            let ctx = s.inst.ctx();
            let (mut q, _) = parse_query_with_options(&s.text).expect("statement parsed at set-up");
            q.output = None;

            let t = Instant::now();
            for twig in &q.twigs {
                for path in &xmldb::decompose(twig).paths {
                    std::hint::black_box(xmldb::path_relation(ctx.doc, ctx.index, twig, path));
                }
            }
            path_us.push(t.elapsed().as_secs_f64() * 1e6);

            // Lemma 3.5, once per statement (the LP per prefix is slow).
            if !std::mem::replace(&mut bounded[i as usize], true) {
                let out = QueryBuilder::from_query(q.clone())
                    .build()
                    .and_then(|q| q.execute(&ctx))
                    .expect("statement ran in the passes");
                let atoms = collect_atoms(&ctx, &q).expect("atoms resolve");
                let bounds = prefix_bounds(&atoms, &out.order).expect("prefix bounds solve");
                let stages = out
                    .stats
                    .stages
                    .iter()
                    .filter(|st| st.label.starts_with("expand"));
                for (stage, bound) in stages.zip(bounds) {
                    let ratio = stage.tuples as f64 / bound;
                    tightness = tightness.max(ratio);
                    if ratio > 1.0 + 1e-9 {
                        broken += 1;
                    }
                }
            }
        }
        layers.insert("xmldb.path_relation.us", median(&path_us));
        layers.insert("core.walk.lemma35_tightness_max", tightness);
        broken
    }
}
