//! The paper's twig → relational-like transformation (Section 3, Figure 2).
//!
//! To compute a worst-case size bound for a twig, the paper rewrites it into
//! relations without losing the bound:
//!
//! 1. **cut every A-D edge**, splitting the twig into sub-twigs of pure P-C
//!    edges;
//! 2. for each sub-twig, enumerate all **root-leaf paths**;
//! 3. treat each path (a continuous P-C chain) **as a relational table**
//!    whose attributes are the twig variables along the path.
//!
//! A P-C chain instance is uniquely determined by its lowest node (every
//! node has exactly one parent), so each path relation has at most as many
//! tuples as there are elements with the path's leaf tag — enumeration is
//! linear, which is why the transformation can be done "virtually" at join
//! time without blowing up storage. The relations here are *value-level*
//! (each node contributes its text value); node-level structure that the
//! value view cannot capture is recovered by the engine's final validation
//! step (see `xjoin-core`).

use crate::model::{NodeId, TagId, XmlDocument};
use crate::structural::stack_tree_join;
use crate::tag_index::TagIndex;
use crate::twig::{Axis, TwigPattern};
use relational::{Relation, Schema, ValueId};

/// A maximal P-C-connected piece of the twig after cutting A-D edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubTwig {
    /// The sub-twig's root (a twig node whose incoming edge was A-D, or the
    /// twig root itself).
    pub root: usize,
    /// All twig nodes of the sub-twig, in twig-node order.
    pub nodes: Vec<usize>,
}

/// One root-leaf path of a sub-twig: a continuous P-C chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSpec {
    /// Twig node indices from the sub-twig root down to a leaf.
    pub nodes: Vec<usize>,
}

/// The full decomposition of a twig.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// Sub-twigs in discovery order (the twig root's piece first).
    pub sub_twigs: Vec<SubTwig>,
    /// All root-leaf paths across all sub-twigs.
    pub paths: Vec<PathSpec>,
    /// The A-D edges that were cut, as `(ancestor_node, descendant_node)`
    /// twig indices. These do not contribute to the size bound; the join
    /// engine re-checks them during final structure validation.
    pub ad_edges: Vec<(usize, usize)>,
}

/// Decomposes a twig per the paper's three steps.
pub fn decompose(twig: &TwigPattern) -> Decomposition {
    let n = twig.len();
    // Sub-twig roots: the twig root plus every node under an A-D edge.
    let mut roots = vec![0usize];
    let mut ad_edges = Vec::new();
    for i in 1..n {
        if twig.node(i).axis == Axis::Descendant {
            roots.push(i);
            ad_edges.push((twig.node(i).parent.expect("non-root"), i));
        }
    }

    let mut sub_twigs = Vec::with_capacity(roots.len());
    let mut paths = Vec::new();
    for &root in &roots {
        // Collect the P-C-reachable nodes and the root-leaf paths in one DFS.
        let mut nodes = Vec::new();
        let mut stack = vec![(root, vec![root])];
        while let Some((cur, path)) = stack.pop() {
            nodes.push(cur);
            let pc_children: Vec<usize> = twig
                .node(cur)
                .children
                .iter()
                .copied()
                .filter(|&c| twig.node(c).axis == Axis::Child)
                .collect();
            if pc_children.is_empty() {
                paths.push(PathSpec { nodes: path });
            } else {
                for &c in pc_children.iter().rev() {
                    let mut next = path.clone();
                    next.push(c);
                    stack.push((c, next));
                }
            }
        }
        nodes.sort_unstable();
        sub_twigs.push(SubTwig { root, nodes });
    }

    Decomposition {
        sub_twigs,
        paths,
        ad_edges,
    }
}

/// Materialises the *value-level* relation of one path: attributes are the
/// twig variables along the path; one tuple per P-C chain of document nodes
/// whose tags match the path's tags, carrying the nodes' values.
///
/// Enumeration walks upward from every element matching the path's leaf tag,
/// so it runs in `O(paths_matched · path_length)`.
pub fn path_relation(
    doc: &XmlDocument,
    index: &TagIndex,
    twig: &TwigPattern,
    path: &PathSpec,
) -> Relation {
    let vars = path.nodes.iter().map(|&q| twig.node(q).var.clone());
    let schema = Schema::new(vars).expect("twig vars are distinct");
    let mut rel = Relation::new(schema);
    // Tags resolved once per path: `None` is the wildcard; a tag the
    // document does not have matches no chain at all.
    let mut tags: Vec<Option<TagId>> = Vec::with_capacity(path.nodes.len());
    for &q in &path.nodes {
        let name = &twig.node(q).tag;
        let tag = doc.tags().lookup(name);
        if tag.is_none() && name != "*" {
            return rel;
        }
        tags.push(tag);
    }
    let (&leaf_tag, upper) = tags.split_last().expect("a path has at least one node");

    let mut buf = vec![ValueId(0); tags.len()];
    let mut emit = |leaf: NodeId| {
        let mut cur = doc.node(leaf);
        buf[upper.len()] = cur.value;
        for (j, want) in upper.iter().enumerate().rev() {
            let Some(parent) = cur.parent else { return };
            cur = doc.node(parent);
            if want.is_some_and(|t| t != cur.tag) {
                return;
            }
            buf[j] = cur.value;
        }
        rel.push(&buf).expect("arity matches");
    };
    match leaf_tag {
        Some(t) => index.nodes(t).iter().copied().for_each(&mut emit),
        None => doc.node_ids().for_each(&mut emit),
    }
    rel.sort_dedup();
    rel
}

/// A stable, name-free content identity for one path relation, usable as a
/// cache key: two paths with the same fingerprint produce the same
/// [`path_relation`] tuples on the same document, column by column.
///
/// The fingerprint is the path's tag chain — the only thing
/// [`path_relation`] reads from the twig besides the variable names, which
/// merely label the columns. It is therefore shared across queries whose
/// twigs contain the same P-C chain, regardless of the surrounding twig
/// shape, the path's index within it, or what its variables are called.
pub fn path_fingerprint(twig: &TwigPattern, path: &PathSpec) -> String {
    let mut fp = String::from("path:");
    for &q in &path.nodes {
        fp.push('/');
        fp.push_str(&twig.node(q).tag);
    }
    fp
}

/// Materialises every path relation of a twig's decomposition.
pub fn transform_to_relations(
    doc: &XmlDocument,
    index: &TagIndex,
    twig: &TwigPattern,
) -> Vec<Relation> {
    let dec = decompose(twig);
    dec.paths
        .iter()
        .map(|p| path_relation(doc, index, twig, p))
        .collect()
}

/// The value-level relation of one cut A-D edge: pairs
/// `(value(ancestor), value(descendant))` for all matching node pairs,
/// computed with a stack-tree structural join.
///
/// Not part of the size bound (the paper drops A-D edges there), but the
/// engine's *partial validation* extension uses it as an extra filter.
pub fn ad_edge_relation(
    doc: &XmlDocument,
    index: &TagIndex,
    twig: &TwigPattern,
    edge: (usize, usize),
) -> Relation {
    let (anc, desc) = edge;
    let anc_nodes: Vec<NodeId> = if twig.node(anc).tag == "*" {
        doc.node_ids().collect()
    } else {
        index.nodes_named(doc, &twig.node(anc).tag).to_vec()
    };
    let desc_nodes: Vec<NodeId> = if twig.node(desc).tag == "*" {
        doc.node_ids().collect()
    } else {
        index.nodes_named(doc, &twig.node(desc).tag).to_vec()
    };
    let pairs = stack_tree_join(doc, &anc_nodes, &desc_nodes, Axis::Descendant);
    let schema = Schema::new([twig.node(anc).var.clone(), twig.node(desc).var.clone()])
        .expect("distinct vars");
    let mut rel = Relation::with_capacity(schema, pairs.len());
    for (a, d) in pairs {
        rel.push(&[doc.node(a).value, doc.node(d).value])
            .expect("arity 2");
    }
    rel.sort_dedup();
    rel
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::{Attr, Dict, Value, ValueId};

    /// The paper's Figure 2 / Figure 3 twig.
    fn fig_twig() -> TwigPattern {
        TwigPattern::parse("//A[/B][/D]//C[/E[//F[/H]][//G]]").unwrap()
    }

    #[test]
    fn decompose_matches_figure_2() {
        let twig = fig_twig();
        let dec = decompose(&twig);
        // Sub-twigs: {A,B,D}, {C,E}, {F,H}, {G}.
        assert_eq!(dec.sub_twigs.len(), 4);
        let path_vars: Vec<Vec<&str>> = dec
            .paths
            .iter()
            .map(|p| {
                p.nodes
                    .iter()
                    .map(|&q| twig.node(q).var.name())
                    .collect::<Vec<_>>()
            })
            .collect();
        assert!(path_vars.contains(&vec!["A", "B"]));
        assert!(path_vars.contains(&vec!["A", "D"]));
        assert!(path_vars.contains(&vec!["C", "E"]));
        assert!(path_vars.contains(&vec!["F", "H"]));
        assert!(path_vars.contains(&vec!["G"]));
        assert_eq!(path_vars.len(), 5);
        // Cut A-D edges: A//C, E//F, E//G.
        assert_eq!(dec.ad_edges.len(), 3);
    }

    #[test]
    fn decompose_pure_pc_twig_is_one_subtwig() {
        let twig = TwigPattern::parse("//a[/b][/c/d]").unwrap();
        let dec = decompose(&twig);
        assert_eq!(dec.sub_twigs.len(), 1);
        assert_eq!(dec.paths.len(), 2);
        assert!(dec.ad_edges.is_empty());
        assert_eq!(dec.sub_twigs[0].nodes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn decompose_all_ad_twig_gives_singleton_paths() {
        let twig = TwigPattern::parse("//a//b//c").unwrap();
        let dec = decompose(&twig);
        assert_eq!(dec.sub_twigs.len(), 3);
        assert_eq!(dec.paths.len(), 3);
        assert!(dec.paths.iter().all(|p| p.nodes.len() == 1));
        assert_eq!(dec.ad_edges, vec![(0, 1), (1, 2)]);
    }

    fn chain_doc(dict: &mut Dict) -> (XmlDocument, TagIndex) {
        // <a>9 <b>1</b> <c><b>2</b></c> </a>  — b appears at two depths.
        let mut b = XmlDocument::builder();
        b.begin("a");
        b.value(9i64);
        b.leaf("b", 1i64);
        b.begin("c");
        b.value(7i64);
        b.leaf("b", 2i64);
        b.end();
        b.end();
        let doc = b.build(dict);
        let idx = TagIndex::build(&doc);
        (doc, idx)
    }

    #[test]
    fn path_relation_walks_up_checking_tags() {
        let mut dict = Dict::new();
        let (doc, idx) = chain_doc(&mut dict);
        let twig = TwigPattern::parse("//a/b").unwrap();
        let dec = decompose(&twig);
        assert_eq!(dec.paths.len(), 1);
        let rel = path_relation(&doc, &idx, &twig, &dec.paths[0]);
        // Only the depth-1 b (value 1) has an `a` parent.
        assert_eq!(rel.len(), 1);
        let nine = dict.lookup(&Value::Int(9)).unwrap();
        let one = dict.lookup(&Value::Int(1)).unwrap();
        assert_eq!(rel.row(0), &[nine, one]);
    }

    #[test]
    fn path_relation_of_single_node_path() {
        let mut dict = Dict::new();
        let (doc, idx) = chain_doc(&mut dict);
        let twig = TwigPattern::parse("//b").unwrap();
        let dec = decompose(&twig);
        let rel = path_relation(&doc, &idx, &twig, &dec.paths[0]);
        assert_eq!(rel.len(), 2); // values 1 and 2
        assert_eq!(rel.schema(), &Schema::of(&["b"]));
    }

    #[test]
    fn path_relation_cardinality_is_bounded_by_leaf_tag_count() {
        let mut dict = Dict::new();
        let (doc, idx) = chain_doc(&mut dict);
        let twig = TwigPattern::parse("//c/b").unwrap();
        let dec = decompose(&twig);
        let rel = path_relation(&doc, &idx, &twig, &dec.paths[0]);
        let b_count = idx.nodes_named(&doc, "b").len();
        assert!(rel.len() <= b_count);
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn transform_covers_all_twig_vars() {
        let mut dict = Dict::new();
        let (doc, idx) = chain_doc(&mut dict);
        let twig = fig_twig();
        let rels = transform_to_relations(&doc, &idx, &twig);
        assert_eq!(rels.len(), 5);
        let mut covered: Vec<Attr> = rels
            .iter()
            .flat_map(|r| r.schema().attrs().to_vec())
            .collect();
        covered.sort();
        covered.dedup();
        let mut vars = twig.vars();
        vars.sort();
        assert_eq!(covered, vars);
    }

    #[test]
    fn ad_edge_relation_joins_values() {
        let mut dict = Dict::new();
        let (doc, idx) = chain_doc(&mut dict);
        let twig = TwigPattern::parse("//a//b").unwrap();
        let rel = ad_edge_relation(&doc, &idx, &twig, (0, 1));
        // a(9) is ancestor of both b(1) and b(2).
        assert_eq!(rel.len(), 2);
        let nine = dict.lookup(&Value::Int(9)).unwrap();
        for row in rel.rows() {
            assert_eq!(row[0], nine);
        }
    }

    #[test]
    fn path_fingerprints_are_stable_and_shape_independent() {
        // The same P-C chain inside two differently-shaped twigs fingerprints
        // identically, and so does the chain under other variable names;
        // a different tag chain does not.
        let t1 = TwigPattern::parse("//a/b").unwrap();
        let d1 = decompose(&t1);
        let t2 = TwigPattern::parse("//a[/b][//c]").unwrap();
        let d2 = decompose(&t2);
        let fp1 = path_fingerprint(&t1, &d1.paths[0]);
        assert_eq!(fp1, path_fingerprint(&t2, &d2.paths[0]));
        assert_eq!(fp1, "path:/a/b");
        let t3 = TwigPattern::parse("//a$x/b$b2").unwrap();
        let d3 = decompose(&t3);
        assert_eq!(fp1, path_fingerprint(&t3, &d3.paths[0]));
        let t4 = TwigPattern::parse("//a/c").unwrap();
        let d4 = decompose(&t4);
        assert_ne!(fp1, path_fingerprint(&t4, &d4.paths[0]));
    }

    #[test]
    fn wildcard_paths_accept_any_tag() {
        let mut dict = Dict::new();
        let (doc, idx) = chain_doc(&mut dict);
        let twig = TwigPattern::parse("//*$x/b").unwrap();
        let dec = decompose(&twig);
        let rel = path_relation(&doc, &idx, &twig, &dec.paths[0]);
        // Both b's have parents (a and c) -> 2 tuples.
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn value_dedup_collapses_equal_chains() {
        let mut dict = Dict::new();
        let mut b = XmlDocument::builder();
        b.begin("r");
        for _ in 0..3 {
            b.begin("p");
            b.value(1i64);
            b.leaf("q", 2i64);
            b.end();
        }
        b.end();
        let doc = b.build(&mut dict);
        let idx = TagIndex::build(&doc);
        let twig = TwigPattern::parse("//p/q").unwrap();
        let dec = decompose(&twig);
        let rel = path_relation(&doc, &idx, &twig, &dec.paths[0]);
        // Three identical (1, 2) chains dedup to one value tuple.
        assert_eq!(rel.len(), 1);
        let _ = ValueId(0);
    }
}
