//! Acceptance suite for the `xjoin-obs` subsystem: span-tree
//! well-formedness under parallel morsel execution, histogram quantile
//! error bounds, and a differential check that tracing is observation-only
//! (enabling it changes no query result).
//!
//! The tracer is a process-wide singleton, so every test that toggles it
//! holds [`tracer_lock`] — tests within this binary run on concurrent
//! threads, and an unserialized enable/disable would splice unrelated spans
//! into a collected trace.

use fixtures::{graph_instance, triangle_query};
use proptest::prelude::*;
use relational::ValueId;
use std::sync::{Mutex, OnceLock};
use xjoin_core::{execute, DataContext, EngineKind, ExecOptions, Parallelism};
use xjoin_obs::{Histogram, Trace};

fn tracer_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Runs the triangle query morsel-parallel with tracing enabled and returns
/// the collected trace plus the query's result rows.
fn traced_triangle_run(seed: u64, threads: usize) -> (Trace, Vec<Vec<ValueId>>) {
    let inst = graph_instance(120, 900, seed);
    let idx = inst.index();
    let ctx = DataContext::new(&inst.db, &inst.doc, &idx);
    let opts = ExecOptions {
        engine: EngineKind::Lftj,
        parallelism: Parallelism::Threads(threads),
        ..Default::default()
    };
    xjoin_obs::enable();
    let out = execute(&ctx, &triangle_query(), &opts).expect("triangle runs");
    xjoin_obs::disable();
    xjoin_obs::flush_thread();
    let trace = xjoin_obs::take_trace();
    (trace, out.results.rows().map(|r| r.to_vec()).collect())
}

/// Every lane of a collected trace must be a well-formed span forest:
/// no dropped events, every span's interval is non-empty-or-point
/// (`start <= end`), completion order is monotone (spans are recorded at
/// guard drop, which happens in stack order on one thread), and any two
/// overlapping spans are properly nested with the inner one deeper.
fn assert_well_formed(trace: &Trace) {
    for lane in &trace.threads {
        assert_eq!(lane.dropped, 0, "lane {}: ring dropped events", lane.thread);
        let mut last_end = 0u64;
        for e in &lane.events {
            assert!(
                e.start_ns <= e.end_ns,
                "lane {}: span {} ends before it starts",
                lane.thread,
                e.name
            );
            assert!(
                e.end_ns >= last_end,
                "lane {}: completion timestamps not monotone at {}",
                lane.thread,
                e.name
            );
            last_end = e.end_ns;
        }
        for (i, a) in lane.events.iter().enumerate() {
            for b in lane.events.iter().skip(i + 1) {
                let disjoint = a.end_ns <= b.start_ns || b.end_ns <= a.start_ns;
                let a_in_b = b.start_ns <= a.start_ns && a.end_ns <= b.end_ns;
                let b_in_a = a.start_ns <= b.start_ns && b.end_ns <= a.end_ns;
                assert!(
                    disjoint || a_in_b || b_in_a,
                    "lane {}: spans {} and {} partially overlap",
                    lane.thread,
                    a.name,
                    b.name
                );
                if a_in_b && !disjoint && (a.start_ns, a.end_ns) != (b.start_ns, b.end_ns) {
                    assert!(
                        a.depth > b.depth,
                        "lane {}: contained span {} not deeper than {}",
                        lane.thread,
                        a.name,
                        b.name
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Span trees stay well-formed whatever the morsel fan-out, and the
    /// worker lanes actually carry the per-morsel spans.
    #[test]
    fn span_tree_well_formed_under_parallel_morsels(seed in 0u64..1000, threads in 2usize..5) {
        let _guard = tracer_lock();
        let (trace, rows) = traced_triangle_run(seed, threads);
        prop_assert!(!rows.is_empty() || trace.total_events() > 0);
        assert_well_formed(&trace);
        let morsel_spans: usize = trace
            .threads
            .iter()
            .filter(|t| t.thread.starts_with("xjoin-morsel"))
            .map(|t| t.events.iter().filter(|e| e.name == "morsel").count())
            .sum();
        prop_assert!(morsel_spans > 0, "no morsel spans in worker lanes");
    }

    /// Log-linear histogram quantiles are upper bounds within 6.25% of the
    /// true order statistic, for any sample set.
    #[test]
    fn histogram_quantiles_bound_true_order_statistics(
        samples in proptest::collection::vec(1u64..1_000_000, 1..200),
    ) {
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.max(), *sorted.last().unwrap());
        for q in [0.5f64, 0.9, 0.99, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            let est = h.quantile(q);
            prop_assert!(est >= truth, "q={}: {} under-reports true {}", q, est, truth);
            prop_assert!(
                est <= truth + truth / 16 + 1,
                "q={}: {} exceeds the 6.25% bound over true {}",
                q,
                est,
                truth
            );
        }
    }
}

/// Differential: the tracer observes, it never perturbs. The same query on
/// the same data returns identical rows in identical order with tracing
/// off and on, serial and morsel-parallel, for every plan-based engine.
#[test]
fn tracing_on_off_leaves_query_output_identical() {
    let _guard = tracer_lock();
    let inst = graph_instance(150, 1400, 7);
    let idx = inst.index();
    let ctx = DataContext::new(&inst.db, &inst.doc, &idx);
    let q = triangle_query();
    for engine in [EngineKind::Lftj, EngineKind::XJoinStream] {
        for parallelism in [Parallelism::Serial, Parallelism::Threads(3)] {
            let opts = ExecOptions {
                engine,
                parallelism,
                ..Default::default()
            };
            xjoin_obs::disable();
            let plain = execute(&ctx, &q, &opts).expect("runs untraced");
            xjoin_obs::enable();
            let traced = execute(&ctx, &q, &opts).expect("runs traced");
            xjoin_obs::disable();
            let rows = |out: &xjoin_core::QueryOutput| -> Vec<Vec<ValueId>> {
                out.results.rows().map(|r| r.to_vec()).collect()
            };
            assert_eq!(
                rows(&plain),
                rows(&traced),
                "{engine}/{parallelism:?}: tracing changed the result rows"
            );
            assert_eq!(
                plain.results.schema(),
                traced.results.schema(),
                "{engine}/{parallelism:?}: tracing changed the schema"
            );
            assert_eq!(
                plain.stats.max_intermediate(),
                traced.stats.max_intermediate(),
                "{engine}/{parallelism:?}: tracing changed the work done"
            );
        }
    }
    // Drain anything the traced runs collected so later tracer tests in
    // this binary start from an empty collector.
    xjoin_obs::flush_thread();
    let _ = xjoin_obs::take_trace();
}

/// Service-level metrics accumulate into the global registry and render in
/// both snapshot formats.
#[test]
fn metrics_snapshot_renders_text_and_json() {
    let m = xjoin_obs::global_metrics();
    m.counter("test.obs.renders").inc();
    m.gauge("test.obs.level").inc();
    m.histogram("test.obs.lat_us").record(250);
    let snap = m.snapshot();
    let text = snap.to_string();
    assert!(text.contains("test.obs.renders"));
    assert!(text.contains("test.obs.lat_us"));
    let json = snap.to_json();
    assert!(json.contains("\"test.obs.level\""));
    assert!(json.contains("\"p99\""));
}
