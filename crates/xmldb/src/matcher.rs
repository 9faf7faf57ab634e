//! Navigational twig matching by backtracking search — the correctness
//! reference, and nothing else.
//!
//! This is the simple, obviously-correct twig matcher: it assigns document
//! nodes to twig nodes in pattern order (root first), following parent-child
//! edges through the arena and ancestor-descendant edges through the tag
//! index, and hands every embedding to a visitor. Its cost grows with the
//! fan-out of every assigned node, which is fine for what it is used for:
//!
//! * the test suites compare the optimised algorithms against it
//!   (structural joins, PathStack, TwigStack, TJFast, the transform-based
//!   join, and the label-driven structure validator of `xjoin-core`, whose
//!   differential test enumerates embeddings here and compares node values);
//! * the XML-first baseline engine materialises all embeddings with it.
//!
//! No engine validates result tuples through this module: the paper's
//! "filter R by validating structure of Sx" is `xjoin_core::TwigValidator`,
//! which anchors at the rarest `(tag, value)` posting list of the
//! [`TagIndex`] and confirms edges by region labels instead of searching.

use crate::model::{NodeId, XmlDocument};
use crate::tag_index::TagIndex;
use crate::twig::{Axis, TwigPattern};

/// Visits every embedding of `twig` into `doc`. The visitor receives one
/// document node per twig node, in twig-node order, and returns `false` to
/// stop the enumeration.
pub fn for_each_match(
    doc: &XmlDocument,
    index: &TagIndex,
    twig: &TwigPattern,
    visit: &mut dyn FnMut(&[NodeId]) -> bool,
) {
    let mut assign: Vec<NodeId> = Vec::with_capacity(twig.len());
    rec(doc, index, twig, &mut assign, visit);
}

/// Returns `true` once the enumeration should stop.
fn rec(
    doc: &XmlDocument,
    index: &TagIndex,
    twig: &TwigPattern,
    assign: &mut Vec<NodeId>,
    visit: &mut dyn FnMut(&[NodeId]) -> bool,
) -> bool {
    let i = assign.len();
    if i == twig.len() {
        return !visit(assign);
    }
    let tnode = twig.node(i);

    let check = |id: NodeId| -> bool {
        tnode.tag == "*" || doc.tags().lookup(&tnode.tag) == Some(doc.node(id).tag)
    };

    // Enumerate candidates according to the edge to the (already assigned)
    // parent. Twig nodes are stored parents-first, so the parent is bound.
    match tnode.parent {
        None => {
            if tnode.tag == "*" {
                for id in doc.node_ids() {
                    if check(id) {
                        assign.push(id);
                        if rec(doc, index, twig, assign, visit) {
                            return true;
                        }
                        assign.pop();
                    }
                }
            } else {
                for &id in index.nodes_named(doc, &tnode.tag) {
                    if check(id) {
                        assign.push(id);
                        if rec(doc, index, twig, assign, visit) {
                            return true;
                        }
                        assign.pop();
                    }
                }
            }
        }
        Some(p) => {
            let pnode = assign[p];
            match tnode.axis {
                Axis::Child => {
                    // Clone the child list cursor-free: children vectors are
                    // small; iterate by index to avoid holding a borrow.
                    let nchildren = doc.node(pnode).children.len();
                    for k in 0..nchildren {
                        let id = doc.node(pnode).children[k];
                        if check(id) {
                            assign.push(id);
                            if rec(doc, index, twig, assign, visit) {
                                return true;
                            }
                            assign.pop();
                        }
                    }
                }
                Axis::Descendant => {
                    if tnode.tag == "*" {
                        for raw in doc.descendant_range(pnode) {
                            let id = NodeId(raw);
                            if check(id) {
                                assign.push(id);
                                if rec(doc, index, twig, assign, visit) {
                                    return true;
                                }
                                assign.pop();
                            }
                        }
                    } else if let Some(t) = doc.tags().lookup(&tnode.tag) {
                        let pn = doc.node(pnode);
                        let lo = pn.start;
                        let hi = pn.end;
                        // Copy the slice bounds; nodes_in returns a borrow of
                        // the index, which is fine alongside assign.
                        for &id in index.nodes_in(t, lo, hi) {
                            if check(id) {
                                assign.push(id);
                                if rec(doc, index, twig, assign, visit) {
                                    return true;
                                }
                                assign.pop();
                            }
                        }
                    }
                }
            }
        }
    }
    false
}

/// Materialises all embeddings (one `Vec<NodeId>` per match, twig-node
/// order).
pub fn all_matches(doc: &XmlDocument, index: &TagIndex, twig: &TwigPattern) -> Vec<Vec<NodeId>> {
    let mut out = Vec::new();
    for_each_match(doc, index, twig, &mut |m| {
        out.push(m.to_vec());
        true
    });
    out
}

/// Counts embeddings without materialising them.
pub fn count_matches(doc: &XmlDocument, index: &TagIndex, twig: &TwigPattern) -> usize {
    let mut n = 0usize;
    for_each_match(doc, index, twig, &mut |_| {
        n += 1;
        true
    });
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::XmlDocument;
    use relational::Dict;

    /// <a><b>1</b><c><b>2</b><d><b>1</b></d></c></a>
    fn doc(dict: &mut Dict) -> XmlDocument {
        let mut b = XmlDocument::builder();
        b.begin("a");
        b.leaf("b", 1i64);
        b.begin("c");
        b.leaf("b", 2i64);
        b.begin("d");
        b.leaf("b", 1i64);
        b.end();
        b.end();
        b.end();
        b.build(dict)
    }

    #[test]
    fn child_axis_matches_direct_children_only() {
        let mut dict = Dict::new();
        let d = doc(&mut dict);
        let idx = TagIndex::build(&d);
        let twig = TwigPattern::parse("//a/b").unwrap();
        assert_eq!(count_matches(&d, &idx, &twig), 1);
    }

    #[test]
    fn descendant_axis_matches_all_depths() {
        let mut dict = Dict::new();
        let d = doc(&mut dict);
        let idx = TagIndex::build(&d);
        let twig = TwigPattern::parse("//a//b").unwrap();
        assert_eq!(count_matches(&d, &idx, &twig), 3);
    }

    #[test]
    fn branching_twig_requires_shared_parent() {
        let mut dict = Dict::new();
        let d = doc(&mut dict);
        let idx = TagIndex::build(&d);
        // c must have both a direct b child and a d descendant.
        let twig = TwigPattern::parse("//c[/b]//d").unwrap();
        let matches = all_matches(&d, &idx, &twig);
        assert_eq!(matches.len(), 1);
        let m = &matches[0];
        assert_eq!(d.tag_name(m[0]), "c");
        assert!(d.is_parent(m[0], m[1]));
        assert!(d.is_ancestor(m[0], m[2]));
    }

    #[test]
    fn missing_tag_yields_no_matches() {
        let mut dict = Dict::new();
        let d = doc(&mut dict);
        let idx = TagIndex::build(&d);
        let twig = TwigPattern::parse("//a/zzz").unwrap();
        assert_eq!(count_matches(&d, &idx, &twig), 0);
    }

    #[test]
    fn wildcard_matches_any_tag() {
        let mut dict = Dict::new();
        let d = doc(&mut dict);
        let idx = TagIndex::build(&d);
        let twig = TwigPattern::parse("//a/*").unwrap();
        assert_eq!(count_matches(&d, &idx, &twig), 2); // b and c
        let twig = TwigPattern::parse("//*$x//b$y").unwrap();
        // ancestors of b's: a(x3), c(x2), d(x1) -> 6
        assert_eq!(count_matches(&d, &idx, &twig), 6);
    }

    #[test]
    fn early_exit_stops_enumeration() {
        let mut dict = Dict::new();
        let d = doc(&mut dict);
        let idx = TagIndex::build(&d);
        let twig = TwigPattern::parse("//a//b").unwrap();
        let mut calls = 0;
        for_each_match(&d, &idx, &twig, &mut |_| {
            calls += 1;
            false
        });
        assert_eq!(calls, 1);
    }

    #[test]
    fn self_structured_twig_on_deep_chain() {
        // Chain x/x/x/x: //x//x has C(depth pairs) matches.
        let mut dict = Dict::new();
        let mut b = XmlDocument::builder();
        b.begin("x");
        b.begin("x");
        b.begin("x");
        b.begin("x");
        b.end();
        b.end();
        b.end();
        b.end();
        let d = b.build(&mut dict);
        let idx = TagIndex::build(&d);
        let twig = TwigPattern::parse("//x$a//x$b").unwrap();
        assert_eq!(count_matches(&d, &idx, &twig), 6); // C(4,2)
        let pc = TwigPattern::parse("//x$a/x$b").unwrap();
        assert_eq!(count_matches(&d, &idx, &pc), 3);
    }
}
