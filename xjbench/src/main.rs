//! `xjbench`: the repository's one benchmark. README.md documents the
//! workloads, the metrics and how to read a run.
//!
//! ```text
//! xjbench --workload W --seed N --seconds S --trace 0|1   one run, result line last
//! xjbench list                 names, units, directions; checked against BENCHMARK.json
//! xjbench run --workload W [--quick]      both passes of one workload
//! xjbench all [--seed N] [--seconds S]    every workload, each in its own process
//! xjbench aa [--runs N]        the suite against itself: spreads beside their bounds
//! ```

mod gen;
mod harness;
mod json;
mod load;
mod oracle;
mod rng;
mod spec;
mod stats;
mod trace;
mod workloads;

use harness::{RunArgs, RunResult};
use json::Json;
use spec::{END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

const DEFAULT_SEED: u64 = 20180610;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: xjbench --workload W --seed N --seconds S --trace 0|1\n\
         \x20      xjbench list | run --workload W [--quick] | all | aa [--runs N]\n\
         \x20      (run, all and aa also take --seed N and --seconds S)\n\
         workloads: {}",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::from(2)
}

/// `--key value` pairs and bare flags after the sub-command.
fn options(args: &[String]) -> Option<BTreeMap<String, String>> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a.strip_prefix("--")?;
        if !["workload", "seed", "seconds", "trace", "runs", "quick"].contains(&key) {
            return None;
        }
        let value = if key == "quick" {
            String::new()
        } else {
            it.next()?.clone()
        };
        out.insert(key.to_string(), value);
    }
    Some(out)
}

/// The number given for `--key`, or `default`; `None` if it does not parse.
fn number<T: std::str::FromStr>(
    opts: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Option<T> {
    opts.get(key).map_or(Some(default), |s| s.parse().ok())
}

fn run_args(opts: &BTreeMap<String, String>, trace: bool) -> Option<RunArgs> {
    let workload = opts.get("workload")?.clone();
    WORKLOADS.iter().find(|w| w.name == workload)?;
    let quick = opts.contains_key("quick");
    Some(RunArgs {
        workload,
        seed: number(opts, "seed", DEFAULT_SEED)?,
        seconds: number(opts, "seconds", if quick { 0.4 } else { DEFAULT_SECONDS })?,
        trace,
        quick,
    })
}

fn run(args: &RunArgs) -> RunResult {
    // The repository's tests size their thread pools by this; the benchmark
    // pins serial execution and no run of it may inherit the setting.
    std::env::remove_var("XJOIN_TEST_THREADS");
    let result = harness::run(args, |seed, quick| {
        workloads::build(&args.workload, seed, quick).expect("workload name was checked")
    });
    for (name, value, unit) in &result.metrics {
        println!("  {name:<46} {value:>16.4} {unit}");
    }
    result
}

fn benchmark_json() -> Result<Json, String> {
    let beside_package = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string("BENCHMARK.json")
        .or_else(|_| std::fs::read_to_string(beside_package))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    Json::parse(&text)
}

/// Prints the spec table and fails if `BENCHMARK.json` says otherwise.
fn list() -> ExitCode {
    let mut ours: Vec<Vec<String>> = Vec::new();
    println!("workloads");
    for w in WORKLOADS {
        println!("  {:<12} {}", w.name, w.why);
        ours.push(vec!["workloads".into(), w.name.into(), w.why.into()]);
    }
    println!("end-to-end metrics (untraced pass; bound = share of the parent's median)");
    for m in END_TO_END {
        println!(
            "  {:<24} {:<6} {:<7} bound {}",
            m.name, m.unit, m.better, m.bound
        );
        ours.push(vec![
            "end_to_end".into(),
            m.name.into(),
            m.unit.into(),
            m.better.into(),
            m.bound.to_string(),
        ]);
    }
    println!("per-layer metrics (traced pass; 0 where a workload bypasses the layer)");
    for m in PER_LAYER {
        println!(
            "  {:<46} {:<6} {:<7} moves {} on {}",
            m.name, m.unit, m.better, m.moves, m.on
        );
        ours.push(vec![
            "per_layer".into(),
            m.name.into(),
            m.unit.into(),
            m.better.into(),
        ]);
    }
    let theirs = match benchmark_json() {
        Ok(j) => j,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut listed: Vec<Vec<String>> = Vec::new();
    for section in ["workloads", "end_to_end", "per_layer"] {
        for entry in theirs.get(section).map_or(&[][..], Json::as_arr) {
            let mut row = vec![section.to_string()];
            for key in ["name", "why", "unit", "better", "bound"] {
                match entry.get(key) {
                    Some(Json::Str(s)) => row.push(s.clone()),
                    Some(Json::Num(n)) => row.push(n.to_string()),
                    _ => {}
                }
            }
            listed.push(row);
        }
    }
    if ours == listed {
        println!("BENCHMARK.json agrees");
        ExitCode::SUCCESS
    } else {
        for row in ours.iter().filter(|r| !listed.contains(r)) {
            eprintln!("BENCHMARK.json lacks or differs on {row:?}");
        }
        for row in listed.iter().filter(|r| !ours.contains(r)) {
            eprintln!("BENCHMARK.json has unknown {row:?}");
        }
        ExitCode::FAILURE
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// One workload in a process of its own, so that set-up time and peak memory
/// are that workload's alone. Returns the metrics of its result line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    echo: bool,
) -> Result<(bool, BTreeMap<String, f64>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        // Everything but the result line.
        for line in stdout.lines().filter(|l| !l.starts_with('{')) {
            println!("{line}");
        }
    }
    if !out.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let line = stdout.trim_end().lines().last().ok_or("no result line")?;
    let result = Json::parse(line)?;
    let metrics = result
        .get("metrics")
        .map_or(&[][..], Json::fields)
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok((result.get("correct") == Some(&Json::Bool(true)), metrics))
}

fn host_stamp(seed: u64) -> String {
    format!(
        "{{\"nproc\": {}, \"toolchain\": \"{}\", \"git_commit\": \"{}\", \"seed\": {seed}, \"XJOIN_TEST_THREADS\": \"cleared\"}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json::escape(&command_line("rustc", &["--version"])),
        json::escape(&command_line("git", &["rev-parse", "HEAD"])),
    )
}

/// Every workload, both passes, then one JSON summary.
fn all(seed: u64, seconds: f64) -> ExitCode {
    let mut summary = Vec::new();
    let mut correct = true;
    for w in WORKLOADS {
        let mut merged = BTreeMap::new();
        for trace in [false, true] {
            match child(w.name, seed, seconds, trace, true) {
                Ok((ok, metrics)) => {
                    correct &= ok;
                    merged.extend(metrics);
                }
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let fields: Vec<String> = merged
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        summary.push(format!("\"{}\": {{{}}}", w.name, fields.join(", ")));
    }
    println!(
        "{{\"host\": {}, \"correct\": {correct}, \"workloads\": {{{}}}}}",
        host_stamp(seed),
        summary.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The suite against itself: `runs` runs per side, sides alternating, and for
/// every end-to-end metric the relative difference of the two sides'
/// medians beside its bound. Per-layer timings that differ by more than
/// 10 % are listed as unresolved.
fn aa(runs: usize, seed: u64, seconds: f64) -> ExitCode {
    let mut pass = true;
    let mut unresolved = Vec::new();
    for w in WORKLOADS {
        for trace in [false, true] {
            let mut sides: [BTreeMap<String, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
            for r in 0..2 * runs {
                // A B B A A B ...: neither side always runs first.
                let side = (r + r / 2) % 2;
                match child(w.name, seed, seconds, trace, false) {
                    Ok((true, metrics)) => {
                        for (k, v) in metrics {
                            sides[side].entry(k).or_default().push(v);
                        }
                    }
                    Ok((false, _)) => {
                        eprintln!("{}: a run was incorrect", w.name);
                        return ExitCode::FAILURE;
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            for (name, a) in &sides[0] {
                let (a, b) = (stats::median(a), stats::median(&sides[1][name]));
                let diff = if a == b {
                    0.0
                } else {
                    (a - b).abs() / a.abs().max(b.abs())
                };
                if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
                    let ok = diff <= m.bound;
                    pass &= ok;
                    println!(
                        "{:<12} {:<24} {a:>14.4} {b:>14.4}  diff {diff:.4}  bound {:.2}  {}",
                        w.name,
                        name,
                        m.bound,
                        if ok { "ok" } else { "EXCEEDED" }
                    );
                } else if diff > 0.10
                    && PER_LAYER
                        .iter()
                        .any(|m| m.name == name && matches!(m.unit, "us" | "ns" | "ms"))
                {
                    unresolved.push(format!(
                        "{} {name}: {a:.4} vs {b:.4} (diff {diff:.3})",
                        w.name
                    ));
                }
            }
        }
    }
    for u in &unresolved {
        println!("unresolved (spread above 10 %): {u}");
    }
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &args[1..]),
        _ => ("", &args[..]),
    };
    let Some(opts) = options(rest) else {
        return usage();
    };
    match command {
        // The driver's contract: one run, the result line last.
        "" => {
            let trace = match opts.get("trace").map(String::as_str) {
                Some("0") => false,
                Some("1") => true,
                _ => return usage(),
            };
            let Some(args) = run_args(&opts, trace) else {
                return usage();
            };
            println!("{}", run(&args).to_json());
            ExitCode::SUCCESS
        }
        "list" => list(),
        "run" => {
            let (Some(untraced), Some(traced)) = (run_args(&opts, false), run_args(&opts, true))
            else {
                return usage();
            };
            let correct = run(&untraced).correct & run(&traced).correct;
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "all" | "aa" => {
            let (Some(runs), Some(seed), Some(seconds)) = (
                number(&opts, "runs", 3usize).filter(|&runs| runs > 0),
                number(&opts, "seed", DEFAULT_SEED),
                number(&opts, "seconds", DEFAULT_SECONDS),
            ) else {
                return usage();
            };
            if command == "all" {
                all(seed, seconds)
            } else {
                aa(runs, seed, seconds)
            }
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at `--quick` size, both passes: keeps the benchmark
    /// compiling and correct against API drift in the crates it calls.
    #[test]
    fn quick_suite_is_correct() {
        for w in WORKLOADS {
            for trace in [false, true] {
                let result = run(&RunArgs {
                    workload: w.name.to_string(),
                    seed: 7,
                    seconds: 0.3,
                    trace,
                    quick: true,
                });
                assert!(
                    result.correct,
                    "{} (trace {trace}): {} of {} ops failed",
                    w.name, result.failed, result.attempted
                );
                let names: Vec<&str> = result.metrics.iter().map(|m| m.0).collect();
                if trace {
                    assert_eq!(names, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
                } else {
                    assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
                    assert!(
                        result.metrics.iter().all(|m| m.1 > 0.0),
                        "{}: {:?}",
                        w.name,
                        result.metrics
                    );
                }
            }
        }
    }

    #[test]
    fn spec_names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
