//! Every engine over a layered plan — an atom carrying a delta run on top of
//! its base trie — answers exactly what it answers over the compacted solid
//! plan, with the same per-stage intermediate series: the level-wise XJoin
//! and generic join read delta runs the way the LFTJ walk does.

use fixtures::{fig3_query, fig3_tight};
use relational::{JoinPlan, Relation, Trie};
use std::sync::Arc;
use xjoin_core::{
    collect_atoms, compute_order, execute_with_plan, DataContext, EngineKind, ExecOptions,
    OrderStrategy,
};

#[test]
fn every_engine_reads_delta_runs_on_a_layered_fig3_plan() {
    let inst = fig3_tight(3);
    let index = inst.index();
    let ctx = DataContext::new(&inst.db, &inst.doc, &index);
    let query = fig3_query();
    let atoms = collect_atoms(&ctx, &query).unwrap();
    let order = compute_order(&atoms, &OrderStrategy::default()).unwrap();
    let build = |rel: &Relation| {
        let levels = rel.schema().restrict_order(&order).unwrap();
        Arc::new(Trie::build(rel, &levels).unwrap())
    };

    // R1 gains off-diagonal rows (B of row i with D of row j), which join
    // twig matches the diagonal base misses, plus a row the base already
    // holds, so the delta both grows the answer and overlaps the base.
    let r1 = atoms.rels[0].rel();
    let mut delta = Relation::new(r1.schema().clone());
    delta.push(r1.row(0)).unwrap();
    for i in 0..r1.len() {
        let (bi, dj) = (r1.row(i), r1.row((i + 1) % r1.len()));
        delta.push(&[bi[0], bi[1], bi[2], dj[3]]).unwrap();
    }
    let mut merged = r1.clone();
    for row in delta.rows() {
        merged.push(row).unwrap();
    }

    let rest: Vec<Arc<Trie>> = atoms.rels[1..].iter().map(|a| build(a.rel())).collect();
    let with_r1 = |r1: Arc<Trie>| -> Vec<Arc<Trie>> {
        std::iter::once(r1).chain(rest.iter().cloned()).collect()
    };
    let mut layers = vec![Vec::new(); atoms.rels.len()];
    layers[0].push(build(&delta));
    let layered = JoinPlan::from_shared_layered(with_r1(build(r1)), layers, &order).unwrap();
    let solid = JoinPlan::from_shared(with_r1(build(&merged)), &order).unwrap();
    let base_only = JoinPlan::from_shared(with_r1(build(r1)), &order).unwrap();

    for kind in EngineKind::all() {
        let opts = ExecOptions::for_engine(kind);
        let run = |plan: &JoinPlan| {
            execute_with_plan(
                &ctx,
                &query,
                &opts,
                plan,
                atoms.sizes(),
                atoms.first_path_atom,
            )
            .unwrap()
        };
        let (got, want) = (run(&layered), run(&solid));
        assert!(
            want.results.len() > run(&base_only).results.len(),
            "the delta must change the answer"
        );
        assert!(
            got.results.set_eq(&want.results),
            "{kind}: the layered plan answers differently from the compacted one"
        );
        assert_eq!(
            got.stats.stages, want.stats.stages,
            "{kind}: per-stage series differs"
        );
    }
}
