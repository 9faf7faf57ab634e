//! `graph-warm` and `skew-warm`: prepared LFTJ queries against a store whose
//! trie cache holds everything. The two share every line of harness code and
//! differ in data and statements: random graphs, where the walk's seek speed
//! sets the cost, against skewed branches, where the variable order does.

use super::{answer, cache_layers, cached_plan};
use crate::gen;
use crate::harness::{closed_loop, shuffled_schedule, Layers, Outcome, Pass, Workload};
use crate::load;
use crate::oracle::{self, Adj, Expect};
use crate::rng::Rng;
use crate::stats::median;
use crate::trace::Recorder;
use relational::{Database, LftjWalk, Trie};
use std::time::{Duration, Instant};
use xjoin_core::{execute_with_plan, EngineKind, ExecOptions, MultiModelQuery};
use xjoin_store::{CacheStats, PreparedQuery, VersionedStore};

/// Ops between two readings of the host's clock: 3 to 10 ms.
const GROUP: usize = 2;

struct Stmt {
    prepared: PreparedQuery,
    expect: Expect,
}

pub struct Warm {
    classes: &'static [&'static str],
    weights: Vec<usize>,
    store: VersionedStore,
    stmts: Vec<Stmt>,
    schedule: Vec<u16>,
    sizes: Vec<(&'static str, String)>,
    input_tuples: usize,
    /// Whether this workload also measures what `xjoin_obs::enable` costs.
    obs_probe: bool,
    cache_before_traced: CacheStats,
    traced_ops: u64,
}

fn lftj() -> ExecOptions {
    ExecOptions::for_engine(EngineKind::Lftj)
}

fn edges_query(rel: &str, edges: &[[&str; 2]], head: &[&str]) -> MultiModelQuery {
    edges
        .iter()
        .fold(MultiModelQuery::default(), |q, e| {
            q.with_renamed_relation(rel, e)
        })
        .with_output(head)
}

fn triangle(rel: &str) -> MultiModelQuery {
    edges_query(rel, &[["a", "b"], ["b", "c"], ["a", "c"]], &["a", "b", "c"])
}

fn clique4(rel: &str) -> MultiModelQuery {
    edges_query(
        rel,
        &[
            ["a", "b"],
            ["a", "c"],
            ["a", "d"],
            ["b", "c"],
            ["b", "d"],
            ["c", "d"],
        ],
        &["a", "b", "c", "d"],
    )
}

/// What tells `graph-warm` and `skew-warm` apart.
struct Inputs {
    classes: &'static [&'static str],
    weights: Vec<usize>,
    db: Database,
    input_tuples: usize,
    stmts: Vec<(MultiModelQuery, Expect)>,
    sizes: Vec<(&'static str, String)>,
    obs_probe: bool,
}

impl Warm {
    fn new(seed: u64, inputs: Inputs) -> Warm {
        let Inputs {
            classes,
            weights,
            db,
            input_tuples,
            stmts,
            sizes,
            obs_probe,
        } = inputs;
        let inst = load::relational_only(db);
        let store = VersionedStore::new(inst.db, inst.doc);
        let snap = store.snapshot();
        let stmts: Vec<Stmt> = stmts
            .into_iter()
            .map(|(query, expect)| {
                let prepared =
                    PreparedQuery::prepare(&snap, &query, lftj()).expect("statement prepares");
                // Fills the trie cache; the passes must find it warm.
                prepared.execute(&snap).expect("statement runs");
                Stmt { prepared, expect }
            })
            .collect();
        let cache_before_traced = store.registry().stats();
        Warm {
            classes,
            schedule: shuffled_schedule(&mut Rng::fork(seed, 9), &weights, 2),
            weights,
            store,
            stmts,
            sizes,
            input_tuples,
            obs_probe,
            cache_before_traced,
            traced_ops: 0,
        }
    }

    pub fn graph(seed: u64, quick: bool) -> Warm {
        let (nodes, edges, vedges, znodes, zedges) = if quick {
            (80, 500, 600, 120, 500)
        } else {
            (250, 2_200, 2_900, 1_500, 1_800)
        };
        let uniform = gen::uniform_graph(&mut Rng::fork(seed, 1), nodes, edges);
        let zipf = gen::zipf_graph(&mut Rng::fork(seed, 2), znodes, zedges, 1.1);
        let denser = gen::uniform_graph(&mut Rng::fork(seed, 3), nodes, vedges);
        let mut db = Database::new();
        for (name, graph) in [("U", &uniform), ("Z", &zipf), ("V", &denser)] {
            load::load(&mut db, name, &["src", "dst"], load::symmetric_rows(graph));
        }
        let (u, z) = (Adj::new(nodes, &uniform), Adj::new(znodes, &zipf));
        let stmts = vec![
            (triangle("U"), u.triangles()),
            (triangle("Z"), z.triangles()),
            // No 4-clique on Z, against the issue: its cost follows the
            // number of 4-cliques among a few heavy vertices, which differs
            // by 11 to 16 % between seeds (quartile distance over median) at
            // any size whose op stays under 25 ms, and as the heaviest class
            // it would carry that into `query_p99_ms`.
            (clique4("U"), u.cliques4()),
            // The heaviest class weighs 5 %, so that the 99th percentile of
            // the mix is the 80th of this class and not the tail of one.
            (clique4("V"), Adj::new(nodes, &denser).cliques4()),
        ];
        let sizes = vec![
            (
                "uniform graph U",
                format!("{nodes} vertices, {edges} edges, {} tuples", 2 * edges),
            ),
            (
                "denser uniform graph V",
                format!("{nodes} vertices, {vedges} edges, {} tuples", 2 * vedges),
            ),
            (
                "Zipf(1.1) graph Z",
                format!("{znodes} vertices, {zedges} edges, {} tuples", 2 * zedges),
            ),
            (
                "result rows",
                format!("{:?}", stmts.iter().map(|s| s.1.rows).collect::<Vec<_>>()),
            ),
            ("trie cache", "unbounded; every op must hit".to_string()),
        ];
        let inputs = Inputs {
            classes: &["triangle-U", "triangle-Z", "clique4-U", "clique4-V"],
            weights: vec![8, 8, 3, 1],
            db,
            input_tuples: 2 * (edges + vedges + zedges),
            stmts,
            sizes,
            obs_probe: true,
        };
        Warm::new(seed, inputs)
    }

    pub fn skew(seed: u64, quick: bool) -> Warm {
        let (keys, heavy, hitters, fan, light) = if quick {
            (64, 24, 4, 24, 40)
        } else {
            (256, 96, 16, 120, 400)
        };
        let branch = gen::branch_skew(&mut Rng::fork(seed, 1), keys, heavy);
        let star = gen::heavy_star(&mut Rng::fork(seed, 2), hitters, fan, light);
        let wide = gen::branch_skew(&mut Rng::fork(seed, 3), keys, 2 * heavy);
        let mut db = Database::new();
        load::load_branch(&mut db, ["R", "S", "F", "G"], &branch);
        load::load_branch(&mut db, ["HR", "HS", "HF", "HG"], &star);
        load::load_branch(&mut db, ["WR", "WS", "WF", "WG"], &wide);
        let query = |names: [&str; 4]| {
            MultiModelQuery::new::<&str>(&names, &[])
                .expect("no twig to parse")
                .with_output(&["a", "b", "c"])
        };
        let stmts = vec![
            (
                query(["HR", "HS", "HF", "HG"]),
                oracle::branch_expected(&star),
            ),
            (
                query(["R", "S", "F", "G"]),
                oracle::branch_expected(&branch),
            ),
            // The heaviest class weighs 5 %, so that the 99th percentile of
            // the mix is the 80th of this class and not the tail of one.
            (
                query(["WR", "WS", "WF", "WG"]),
                oracle::branch_expected(&wide),
            ),
        ];
        let tuples = |d: &gen::BranchData| d.r.len() + d.s.len() + d.f.len() + d.g.len();
        let sizes = vec![
            (
                "branch-skew",
                format!(
                    "{keys} keys, heavy fan-out {heavy}, {} tuples",
                    tuples(&branch)
                ),
            ),
            (
                "branch-skew-wide",
                format!(
                    "{keys} keys, heavy fan-out {}, {} tuples",
                    2 * heavy,
                    tuples(&wide)
                ),
            ),
            (
                "heavy-hitter star",
                format!(
                    "{hitters} hitters fanning out {fan} wide, {light} light keys, {} tuples",
                    tuples(&star)
                ),
            ),
            (
                "result rows",
                format!("{:?}", stmts.iter().map(|s| s.1.rows).collect::<Vec<_>>()),
            ),
            (
                "variable order",
                "the default (OrderStrategy::Appearance): a, b, c".to_string(),
            ),
        ];
        let inputs = Inputs {
            classes: &["heavy-star", "branch-skew", "branch-skew-wide"],
            weights: vec![8, 11, 1],
            db,
            input_tuples: tuples(&branch) + tuples(&star) + tuples(&wide),
            stmts,
            sizes,
            obs_probe: false,
        };
        Warm::new(seed, inputs)
    }

    fn one_call(&self, i: u16) -> Outcome {
        let s = &self.stmts[i as usize];
        let t = Instant::now();
        let snap = self.store.snapshot();
        let out = s.prepared.execute(&snap);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match out {
            Ok(out) => Outcome::checked(
                i as u8,
                ms,
                answer(snap.db().dict(), &out.results),
                s.expect,
            ),
            Err(_) => Outcome::failed(i as u8, ms),
        }
    }
}

impl Workload for Warm {
    fn classes(&self) -> &'static [&'static str] {
        self.classes
    }

    fn sizes(&self) -> Vec<(&'static str, String)> {
        let mut sizes = self.sizes.clone();
        sizes.push((
            "mix weights",
            format!("{:?} = {:?}", self.classes, self.weights),
        ));
        sizes
    }

    fn index_bytes_per_tuple(&self) -> f64 {
        self.store.registry().stats().bytes_in_use as f64 / self.input_tuples as f64
    }

    fn timed(&mut self, dur: Duration) -> Pass {
        closed_loop(dur, &self.schedule, GROUP, |i| self.one_call(i))
    }

    fn traced(&mut self, dur: Duration, rec: &mut Recorder) -> Pass {
        self.cache_before_traced = self.store.registry().stats();
        let (stmts, store) = (&self.stmts, &self.store);
        let pass = closed_loop(dur, &self.schedule, GROUP, |i| {
            let s = &stmts[i as usize];
            let op = rec.begin_op("op", i as u8);
            let snap = rec.leaf("storage.snapshot", || store.snapshot());
            let (plan, sizes) =
                rec.leaf("storage.plan_assembly", || cached_plan(&s.prepared, &snap));
            let out = rec.leaf("relational.walk", || {
                let first_path_atom = s.prepared.query().relations.len();
                execute_with_plan(
                    &snap.ctx(),
                    s.prepared.query(),
                    s.prepared.options(),
                    &plan,
                    sizes,
                    first_path_atom,
                )
            });
            let ms = rec.exit(op) as f64 / 1e6;
            match out {
                Ok(out) => Outcome::checked(
                    i as u8,
                    ms,
                    answer(snap.db().dict(), &out.results),
                    s.expect,
                ),
                Err(_) => Outcome::failed(i as u8, ms),
            }
        });
        self.traced_ops = pass.attempted;
        pass
    }

    fn probes(&mut self, dur: Duration, rec: &Recorder, _base: &Pass, layers: &mut Layers) -> u64 {
        let cache = self.store.registry().stats();
        cache_layers(layers, &self.cache_before_traced, &cache, self.traced_ops);
        layers.insert(
            "storage.snapshot.ns",
            median(&rec.durations_us("storage.snapshot")) * 1e3,
        );
        layers.insert(
            "storage.plan_assembly.us",
            median(&rec.durations_us("storage.plan_assembly")),
        );
        layers.insert(
            "bench.walk_self_share",
            rec.total_us("relational.walk") / rec.total_us("op"),
        );
        let mut broken = u64::from(cache.misses > self.cache_before_traced.misses);

        // Exact walk counts and trie sizes: one counted drain per statement,
        // weighted as the mix weighs it.
        let snap = self.store.snapshot();
        let (mut rows, mut bindings, mut seeks, mut steps, mut reorders, mut estimates) =
            (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
        let (mut trie_bytes, mut trie_tuples) = (0usize, 0usize);
        for (s, &w) in self.stmts.iter().zip(&self.weights) {
            let (plan, _) = cached_plan(&s.prepared, &snap);
            for t in plan.tries() {
                trie_bytes += t.estimated_bytes();
                trie_tuples += t.num_tuples();
            }
            let mut walk = LftjWalk::new(plan).with_probe_counters();
            let mut n = 0u64;
            while walk.next_tuple().is_some() {
                n += 1;
            }
            if n != s.expect.rows {
                broken += 1;
            }
            let w = w as u64;
            rows += w * n;
            bindings += w * walk.bindings();
            seeks += w * walk.probe_stats().iter().map(|l| l.seeks).sum::<u64>();
            steps += w * walk.probe_stats().iter().map(|l| l.seek_steps).sum::<u64>();
            reorders += w * walk.reorders();
            estimates += w * walk.estimate_probes();
        }
        let ops: u64 = self.weights.iter().sum::<usize>() as u64;
        layers.insert(
            "relational.walk.seeks_per_result",
            seeks as f64 / rows as f64,
        );
        layers.insert(
            "relational.walk.seek_steps_per_seek",
            steps as f64 / seeks.max(1) as f64,
        );
        layers.insert(
            "relational.walk.bindings_per_result",
            bindings as f64 / rows as f64,
        );
        layers.insert(
            "relational.walk.reorders_per_query",
            reorders as f64 / ops as f64,
        );
        layers.insert(
            "relational.walk.estimate_probes_per_binding",
            estimates as f64 / bindings as f64,
        );
        layers.insert(
            "relational.build.bytes_per_tuple",
            trie_bytes as f64 / trie_tuples as f64,
        );

        // Timed calls into single layers, over the schedule.
        let (mut per_result, mut per_binding, mut prepare_us, mut build_ns) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut obs_on, mut obs_off) = (Vec::new(), Vec::new());
        let start = Instant::now();
        for (round, &i) in self.schedule.iter().cycle().enumerate() {
            if start.elapsed() >= dur {
                break;
            }
            let s = &self.stmts[i as usize];
            let (plan, _) = cached_plan(&s.prepared, &snap);
            let t = Instant::now();
            let mut walk = LftjWalk::new(plan.clone());
            let mut n = 0u64;
            while let Some(row) = walk.next_tuple() {
                std::hint::black_box(row);
                n += 1;
            }
            let ns = t.elapsed().as_secs_f64() * 1e9;
            per_result.push(ns / n.max(1) as f64);
            per_binding.push(ns / walk.bindings().max(1) as f64);

            let t = Instant::now();
            std::hint::black_box(
                PreparedQuery::prepare(&snap, s.prepared.query(), lftj())
                    .expect("statement prepares"),
            );
            prepare_us.push(t.elapsed().as_secs_f64() * 1e6);

            let trie = &plan.tries()[round % plan.tries().len()];
            let rel = trie.to_relation();
            let t = Instant::now();
            std::hint::black_box(Trie::build(&rel, trie.attrs()).expect("trie rebuilds"));
            build_ns.push(t.elapsed().as_secs_f64() * 1e9 / trie.num_tuples().max(1) as f64);

            if self.obs_probe {
                // The same op with the program's own span tracer off, then
                // on; alternating keeps drift out of the ratio.
                obs_off.push(self.one_call(i).ms);
                xjoin_obs::enable();
                obs_on.push(self.one_call(i).ms);
                xjoin_obs::disable();
                drop(xjoin_obs::take_trace());
            }
        }
        layers.insert("relational.walk.ns_per_result", median(&per_result));
        layers.insert("relational.walk.ns_per_binding", median(&per_binding));
        layers.insert("storage.prepare.us", median(&prepare_us));
        layers.insert("relational.build.ns_per_tuple", median(&build_ns));
        if self.obs_probe {
            layers.insert(
                "obs.enabled_overhead_ratio",
                obs_off.iter().sum::<f64>() / obs_on.iter().sum::<f64>(),
            );
        }
        broken
    }
}
