//! `xjbench/` is a package of its own, outside this workspace, and it is the
//! judge of every performance claim: it calls the crates' public functions
//! directly. Nothing else in tier-1 compiles it, so a renamed or re-typed
//! public item would break the judge silently. This test builds it and runs
//! its cheapest sub-command (`list`, which also checks `BENCHMARK.json`
//! against the benchmark's own tables), with the commands the driver uses.

#![cfg(not(miri))]

use std::process::Command;

fn cargo(args: &[&str]) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = Command::new(cargo)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "`cargo {}` failed:\n{}{}",
        args.join(" "),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn the_benchmark_builds_and_lists_against_this_tree() {
    const MANIFEST: &str = "xjbench/Cargo.toml";
    cargo(&[
        "build",
        "--release",
        "--offline",
        "--manifest-path",
        MANIFEST,
    ]);
    cargo(&[
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        MANIFEST,
        "--",
        "list",
    ]);
}
