//! The five workloads. README.md says which layers each one stresses and
//! which it bypasses.

pub mod churn_write;
pub mod paper_cold;
pub mod serve_mixed;
pub mod warm;

use crate::harness::{Layers, Workload};
use crate::oracle::{observed, Expect};
use relational::{Dict, JoinPlan, Relation, Trie};
use std::sync::Arc;
use xjoin_store::{CacheStats, CachedTrie, PreparedQuery, Snapshot};

pub fn build(name: &str, seed: u64, quick: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper-cold" => Box::new(paper_cold::PaperCold::setup(seed, quick)),
        "graph-warm" => Box::new(warm::Warm::graph(seed, quick)),
        "skew-warm" => Box::new(warm::Warm::skew(seed, quick)),
        "serve-mixed" => Box::new(serve_mixed::ServeMixed::setup(seed, quick)),
        "churn-write" => Box::new(churn_write::ChurnWrite::setup(seed, quick)),
        _ => return None,
    })
}

/// Row count and checksum of a result relation, decoded through `dict`.
fn answer(dict: &Dict, rel: &Relation) -> Expect {
    observed(rel.rows().map(|row| row.iter().map(|&id| dict.decode(id))))
}

/// The plan of a prepared statement whose tries are all cached solid,
/// assembled as `PreparedQuery::execute` assembles it but through the
/// store's public functions, so that assembly and walk can be timed apart.
fn cached_plan(prepared: &PreparedQuery, snap: &Snapshot) -> (JoinPlan, Vec<(String, usize)>) {
    let keys = prepared.trie_keys(snap).expect("keys resolve");
    let tries: Vec<Arc<Trie>> = keys
        .iter()
        .map(|k| match snap.registry().lookup_cached(k) {
            Some(CachedTrie::Solid(t)) => t,
            _ => panic!("{} is not cached solid: the cache is not warm", k.source),
        })
        .collect();
    let sizes = keys
        .iter()
        .zip(&tries)
        .map(|(k, t)| (k.source.clone(), t.num_tuples()))
        .collect();
    let plan = JoinPlan::from_shared(tries, prepared.order())
        .expect("cached tries follow the prepared order")
        .with_ladder(prepared.options().order.ladder());
    (plan, sizes)
}

/// The trie cache's counters over a pass of `queries` ops that began at
/// `before`, per query: a pass runs for a fixed time, so the counts
/// themselves would grow with the speed of the engine.
fn cache_layers(layers: &mut Layers, before: &CacheStats, now: &CacheStats, queries: u64) {
    let (hits, misses) = (now.hits - before.hits, now.misses - before.misses);
    let ratio = hits as f64 / (hits + misses).max(1) as f64;
    layers.insert("storage.cache.hit_ratio", ratio);
    let build_ms = (now.build_time - before.build_time).as_secs_f64() * 1e3;
    for (name, over_the_pass) in [
        ("storage.cache.builds", (now.builds - before.builds) as f64),
        ("storage.cache.build_ms", build_ms),
        (
            "storage.cache.evictions",
            (now.evictions - before.evictions) as f64,
        ),
        (
            "storage.cache.overlays",
            (now.overlays - before.overlays) as f64,
        ),
        (
            "storage.cache.compactions",
            (now.compactions - before.compactions) as f64,
        ),
    ] {
        layers.insert(name, over_the_pass / queries.max(1) as f64);
    }
    layers.insert("storage.cache.bytes_in_use", now.bytes_in_use as f64);
}
