//! What every workload implements, the closed-loop driver, and the run of
//! one workload from set-up to the metrics it reports.

use crate::oracle::Expect;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{peak_rss_mb, percentile, sorted};
use crate::trace::Recorder;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One op's result as the caller saw it.
pub struct Outcome {
    pub class: u8,
    /// The caller's wait in milliseconds (verification excluded).
    pub ms: f64,
    pub rows: u64,
    pub ok: bool,
}

impl Outcome {
    /// An op that ran and returned `got`; it is correct iff `got == want`.
    pub fn checked(class: u8, ms: f64, got: Expect, want: Expect) -> Outcome {
        Outcome {
            class,
            ms,
            rows: got.rows,
            ok: got == want,
        }
    }

    /// An op that errored, was refused, or never replied.
    pub fn failed(class: u8, ms: f64) -> Outcome {
        Outcome {
            class,
            ms,
            rows: 0,
            ok: false,
        }
    }
}

/// The ops one caller ran back to back, between two readings of the host's
/// clock.
struct Group {
    /// How long the clock kernel took just before and just after the ops.
    before_s: f64,
    after_s: f64,
    /// From the first op's start to the last op's end.
    secs: f64,
    /// `(class, latency ms, rows)` of the correct ops.
    samples: Vec<(u8, f64, u64)>,
}

impl Group {
    /// What brings a time measured in this group to the reference clock.
    fn to_reference(&self) -> f64 {
        REFERENCE_READING_S / ((self.before_s + self.after_s) / 2.0)
    }
}

/// One pass over a workload's ops.
///
/// This class of host (a small VM beside other tenants) changes its clock:
/// for seconds at a time every instruction takes 1.08 to 1.3 times as long,
/// and a pass spends anything from none to all of its time that way. Taken
/// over a whole pass, medians, percentiles and rates of the same code moved
/// by 10 to 23 % between runs (quartile distance over median of ten runs),
/// and the part of a pass that ran at full clock, which can be told apart,
/// was missing altogether from one run in five. So a caller reads the clock
/// every few milliseconds by timing a fixed chain of register arithmetic,
/// and every time measured between two of its readings is converted to the
/// reference clock by `to_reference`. The numbers as measured are printed
/// beside the converted ones.
#[derive(Default)]
pub struct Pass {
    groups: Vec<Group>,
    pub attempted: u64,
    pub failed: u64,
    /// Callers that ran side by side.
    pub callers: usize,
}

/// What the clock kernel takes on this class of host (2 vCPUs of a 2.1 GHz
/// Xeon) at full clock. On another processor it only fixes the unit.
const REFERENCE_READING_S: f64 = 8.15e-6;

/// The fixed kernel behind a reading: two chains of multiply-and-add and two
/// of shift-and-add, each step waiting for the one before. It touches no
/// memory, takes no data-dependent branch and calls nothing, so it runs for
/// a fixed number of cycles whatever the program under test has done to the
/// caches, the heap or the branch predictor, and it leaves them as they were.
pub fn clock_reading() -> f64 {
    let t = Instant::now();
    let (mut a, mut b, mut c, mut d) = std::hint::black_box((1u64, 2u64, 3u64, 4u64));
    for _ in 0..6000 {
        a = a.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        b = b.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(3);
        c = (c ^ (c >> 13)).wrapping_add(a);
        d = (d ^ (d << 7)).wrapping_add(b);
    }
    std::hint::black_box((a, b, c, d));
    t.elapsed().as_secs_f64()
}

/// What a pass is summed up in.
pub struct Summary {
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub queries_per_s: f64,
    pub rows_per_s: f64,
}

impl Pass {
    pub fn merge(&mut self, other: Pass) {
        self.groups.extend(other.groups);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.callers += other.callers;
    }

    /// `(class, latency ms, rows)` of every correct op, as measured.
    pub fn samples(&self) -> impl Iterator<Item = &(u8, f64, u64)> {
        self.groups.iter().flat_map(|g| &g.samples)
    }

    /// Latencies of the correct ops of `class` (of all classes if `None`)
    /// at the reference clock, ascending.
    fn latencies(&self, class: Option<u8>) -> Vec<f64> {
        sorted(
            self.groups
                .iter()
                .flat_map(|g| {
                    let factor = g.to_reference();
                    g.samples
                        .iter()
                        .filter(move |s| class.is_none_or(|c| c == s.0))
                        .map(move |s| s.1 * factor)
                })
                .collect(),
        )
    }

    /// The pass at the reference clock if `at_reference`, else as measured.
    pub fn summary(&self, at_reference: bool) -> Summary {
        let lat = if at_reference {
            self.latencies(None)
        } else {
            sorted(self.samples().map(|s| s.1).collect())
        };
        let secs: f64 = self
            .groups
            .iter()
            .map(|g| g.secs * if at_reference { g.to_reference() } else { 1.0 })
            .sum();
        let rows: u64 = self.samples().map(|s| s.2).sum();
        // Each caller's groups follow one another, so `secs` is the callers'
        // times added up.
        let callers = self.callers as f64;
        Summary {
            p50_ms: percentile(&lat, 50.0),
            p99_ms: percentile(&lat, 99.0),
            queries_per_s: lat.len() as f64 / secs * callers,
            rows_per_s: rows as f64 / secs * callers,
        }
    }

    /// Median latency of one class at the reference clock.
    pub fn class_p50(&self, class: u8) -> f64 {
        percentile(&self.latencies(Some(class)), 50.0)
    }
}

/// One closed-loop caller: it waits for each reply before its next op, and
/// cuts its ops into groups with a reading of the host's clock in between.
pub struct Caller {
    pass: Pass,
    start: Instant,
    /// The reading that opened the current group, and when the group began.
    reading_s: f64,
    group_start: Instant,
    samples: Vec<(u8, f64, u64)>,
}

impl Caller {
    pub fn begin() -> Caller {
        let reading_s = clock_reading();
        Caller {
            pass: Pass {
                callers: 1,
                ..Pass::default()
            },
            start: Instant::now(),
            reading_s,
            group_start: Instant::now(),
            samples: Vec::new(),
        }
    }

    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    pub fn record(&mut self, o: Outcome) {
        self.pass.attempted += 1;
        if o.ok {
            self.samples.push((o.class, o.ms, o.rows));
        } else {
            // A failed op has no latency to report: it counts against
            // `failed` and lowers the throughput instead.
            self.pass.failed += 1;
        }
    }

    /// Ends the group of ops recorded since the last cut.
    pub fn cut(&mut self) {
        let secs = self.group_start.elapsed().as_secs_f64();
        let after_s = clock_reading();
        self.pass.groups.push(Group {
            before_s: self.reading_s,
            after_s,
            secs,
            samples: std::mem::take(&mut self.samples),
        });
        self.reading_s = after_s;
        self.group_start = Instant::now();
    }

    pub fn finish(mut self) -> Pass {
        if !self.samples.is_empty() {
            self.cut();
        }
        self.pass
    }
}

/// Runs `op` over `schedule`, again and again, until `dur` has passed, with
/// a reading of the host's clock every `group` ops.
pub fn closed_loop(
    dur: Duration,
    schedule: &[u16],
    group: usize,
    mut op: impl FnMut(u16) -> Outcome,
) -> Pass {
    let mut caller = Caller::begin();
    for (n, &i) in schedule.iter().cycle().enumerate() {
        caller.record(op(i));
        if (n + 1) % group == 0 {
            caller.cut();
            if caller.elapsed() >= dur {
                break;
            }
        }
    }
    caller.finish()
}

/// A schedule in which statement `i` appears `weights[i] * cycles` times, in
/// an order shuffled by the seed.
pub fn shuffled_schedule(rng: &mut crate::rng::Rng, weights: &[usize], cycles: usize) -> Vec<u16> {
    let mut s: Vec<u16> = weights
        .iter()
        .enumerate()
        .flat_map(|(i, &w)| std::iter::repeat_n(i as u16, w * cycles))
        .collect();
    rng.shuffle(&mut s);
    s
}

pub type Layers = BTreeMap<&'static str, f64>;

pub trait Workload {
    /// Op classes, lightest first.
    fn classes(&self) -> &'static [&'static str];
    /// Input sizes, cache budget, mix weights: printed with every run.
    fn sizes(&self) -> Vec<(&'static str, String)>;
    /// Resident trie bytes over input tuples indexed.
    fn index_bytes_per_tuple(&self) -> f64;
    /// The untraced pass: each op is one call, timed by the caller.
    fn timed(&mut self, dur: Duration) -> Pass;
    /// The traced pass: each op runs step by step through the layers'
    /// public functions, every step inside a span. A sample's latency is
    /// the op's root span.
    fn traced(&mut self, dur: Duration, rec: &mut Recorder) -> Pass;
    /// Per-layer numbers: read from the traced pass's spans (`base` is the
    /// untraced pass run just before it), and measured by further calls into
    /// single layers for up to `dur`. Returns the ops that broke an
    /// invariant while probing.
    fn probes(&mut self, dur: Duration, rec: &Recorder, base: &Pass, layers: &mut Layers) -> u64;
}

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the order of the spec table.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    /// The result line the driver reads.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Seconds of ops before any pass is measured.
const WARM_UP_S: f64 = 3.0;

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

fn print_pass(label: &str, w: &dyn Workload, pass: &Pass) {
    println!(
        "  {label}: {} ops attempted, {} failed, {} latency samples, {} closed-loop caller(s)",
        pass.attempted,
        pass.failed,
        pass.samples().count(),
        pass.callers
    );
    let readings = sorted(pass.groups.iter().map(|g| g.before_s * 1e6).collect());
    println!(
        "    host clock: {} readings, p10 {:.2} us, p50 {:.2} us, p90 {:.2} us (reference {:.2} us)",
        readings.len(),
        percentile(&readings, 10.0),
        percentile(&readings, 50.0),
        percentile(&readings, 90.0),
        REFERENCE_READING_S * 1e6
    );
    for (how, sum) in [
        ("as measured", pass.summary(false)),
        ("at reference clock", pass.summary(true)),
    ] {
        println!(
            "    {how:<18} p50 {:.4} ms  p99 {:.4} ms  {:.1} queries/s  {:.0} rows/s",
            sum.p50_ms, sum.p99_ms, sum.queries_per_s, sum.rows_per_s
        );
    }
    let all = pass.samples().count().max(1) as f64;
    for (c, name) in w.classes().iter().enumerate() {
        let lat = pass.latencies(Some(c as u8));
        println!(
            "    class {name:<14} {:>6} samples ({:>4.1} %)  p50 {:>9.4} ms  p99 {:>9.4} ms at reference clock",
            lat.len(),
            100.0 * lat.len() as f64 / all,
            percentile(&lat, 50.0),
            percentile(&lat, 99.0)
        );
    }
}

/// Sets up, warms up and measures one workload. With tracing off it reports
/// the end-to-end metrics from an untraced pass of `seconds`; with tracing
/// on it splits `seconds` between a short untraced pass (the base of the
/// tracing overhead), the traced pass and the single-layer probes, and
/// reports the per-layer metrics.
pub fn run(args: &RunArgs, build: impl Fn(u64, bool) -> Box<dyn Workload>) -> RunResult {
    // Set-up is timed like an op, with a reading of the clock on either
    // side, and several times over, so that what is reported is a median
    // and not one draw.
    let reps = if args.quick || args.trace { 1 } else { 15 };
    let mut setups = Caller::begin();
    let mut w = None;
    for _ in 0..reps {
        // The previous set-up stops what it started before the next begins.
        drop(w.take());
        let t = Instant::now();
        w = Some(build(args.seed, args.quick));
        setups.record(Outcome {
            class: 0,
            ms: t.elapsed().as_secs_f64() * 1e3,
            rows: 0,
            ok: true,
        });
        setups.cut();
    }
    let setups = setups.finish();
    let mut w = w.expect("at least one set-up");
    println!("workload {} seed {}", args.workload, args.seed);
    for (k, v) in w.sizes() {
        println!("  {k}: {v}");
    }
    let warm = w.timed(secs(if args.quick { 0.2 } else { WARM_UP_S }));
    let mut failed = warm.failed;
    let mut attempted = warm.attempted;

    let metrics = if !args.trace {
        let pass = w.timed(secs(args.seconds));
        print_pass("untraced pass", w.as_ref(), &pass);
        failed += pass.failed;
        attempted += pass.attempted;
        let sum = pass.summary(true);
        println!(
            "  set-up: {} times, median {:.3} ms as measured, {:.3} ms at reference clock",
            setups.attempted,
            setups.summary(false).p50_ms,
            setups.summary(true).p50_ms
        );
        let values = [
            sum.p50_ms,
            sum.p99_ms,
            sum.queries_per_s,
            sum.rows_per_s,
            peak_rss_mb(),
            w.index_bytes_per_tuple(),
            setups.summary(true).p50_ms / 1e3,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect()
    } else {
        let base = w.timed(secs(args.seconds * 0.2));
        let mut rec = Recorder::new();
        let traced = w.traced(secs(args.seconds * 0.4), &mut rec);
        print_pass("untraced reference", w.as_ref(), &base);
        print_pass("traced pass", w.as_ref(), &traced);
        let mut layers: Layers = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
        let probe_failures = w.probes(secs(args.seconds * 0.4), &rec, &base, &mut layers);
        failed += base.failed + traced.failed + probe_failures;
        attempted += base.attempted + traced.attempted + probe_failures;

        layers.insert(
            "bench.trace_overhead_ratio",
            traced.summary(true).queries_per_s / base.summary(true).queries_per_s,
        );
        // Per class, the traced op (sum of its steps) against the same
        // class's one-call latency; classes weigh in by their sample count.
        let (mut gap, mut total) = (0.0, 0.0);
        let mut class_p50 = Vec::new();
        for c in 0..w.classes().len() as u8 {
            let n = base.samples().filter(|s| s.0 == c).count() as f64;
            if n == 0.0 {
                continue;
            }
            let (one_call, stepwise) = (base.class_p50(c), traced.class_p50(c));
            gap += n * (stepwise - one_call).abs();
            total += n * one_call;
            class_p50.push(one_call);
        }
        layers.insert("bench.decomposition_residual", gap / total);
        let class_p50 = sorted(class_p50);
        layers.insert("mix.lightest_class.p50_ms", class_p50[0]);
        layers.insert("mix.heaviest_class.p50_ms", class_p50[class_p50.len() - 1]);

        let dir = std::env::var("CARGO_TARGET_DIR")
            .map_or_else(
                |_| concat!(env!("CARGO_MANIFEST_DIR"), "/target").into(),
                std::path::PathBuf::from,
            )
            .join("xjbench-traces");
        let path = dir.join(format!("{}.trace.json", args.workload));
        match rec.write_chrome(&path, 500) {
            Ok(()) => println!("  trace of the first 500 ops: {}", path.display()),
            Err(e) => println!("  trace not written ({e})"),
        }
        PER_LAYER
            .iter()
            .map(|m| (m.name, layers[m.name], m.unit))
            .collect()
    };
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(before_s: f64, after_s: f64, secs: f64, samples: &[(u8, f64, u64)]) -> Group {
        Group {
            before_s,
            after_s,
            secs,
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn a_slow_clock_is_converted_to_the_reference() {
        // The first group ran at the reference clock, the second at half of
        // it; a failed op left no sample.
        let (r, slow) = (REFERENCE_READING_S, 2.0 * REFERENCE_READING_S);
        let pass = Pass {
            groups: vec![
                group(r, r, 0.010, &[(0, 4.0, 10), (1, 6.0, 30)]),
                group(slow, slow, 0.020, &[(0, 9.0, 10), (1, 11.0, 30)]),
            ],
            attempted: 5,
            failed: 1,
            callers: 1,
        };
        let (raw, at_ref) = (pass.summary(false), pass.summary(true));
        assert_eq!((raw.p50_ms, raw.p99_ms), (6.0, 11.0));
        assert_eq!((at_ref.p50_ms, at_ref.p99_ms), (4.5, 6.0));
        assert!((raw.queries_per_s - 4.0 / 0.030).abs() < 1e-9);
        assert!((at_ref.queries_per_s - 4.0 / 0.020).abs() < 1e-9);
        assert!((at_ref.rows_per_s - 80.0 / 0.020).abs() < 1e-9);
        assert_eq!(pass.class_p50(1), 5.5);
        assert_eq!(pass.samples().count(), 4);
    }

    #[test]
    fn a_caller_cuts_its_ops_into_groups() {
        let mut n = 0;
        let pass = closed_loop(Duration::from_millis(5), &[0, 1, 2], 2, |i| {
            n += 1;
            if n == 3 {
                Outcome::failed(i as u8, 1.0)
            } else {
                Outcome {
                    class: i as u8,
                    ms: 1.0,
                    rows: 2,
                    ok: true,
                }
            }
        });
        assert_eq!((pass.attempted, pass.failed, pass.callers), (n, 1, 1));
        assert_eq!(pass.samples().count() as u64, n - 1);
        assert!(pass.groups.iter().all(|g| g.samples.len() <= 2));
        assert_eq!(pass.groups[1].before_s, pass.groups[0].after_s);
    }
}
