//! Twig structure validation — the last line of the paper's Algorithm 1.
//!
//! The transformed path relations are *value-level*: joining them can accept
//! tuples where a branching variable's value is realised by different
//! document nodes on different paths (see the worked example in the tests).
//! "Filter R by validating structure of Sx" repairs this: a result tuple
//! survives only if the original twig (A-D edges and all) has an embedding
//! whose node values equal the tuple's values.
//!
//! The check treats the twig as one more relation with oracle access and
//! drives it like any other join participant — *estimate*, *propose*,
//! *confirm*:
//!
//! 1. **estimate** — every twig node gets its candidate list: the
//!    `(tag, value)` posting list of the [`TagIndex`] when its variable is
//!    bound, the per-tag list when it is not, the whole document for `*`.
//!    An empty list rejects the tuple outright.
//! 2. **propose** — the node with the shortest list becomes the anchor, and
//!    only that list is enumerated.
//! 3. **confirm** — the twig tree is walked outward from the anchor. An edge
//!    is crossed **upward** by the parent pointer (P-C) or the ancestor chain
//!    (A-D), testing tag and value of the node found there; it is crossed
//!    **downward** by slicing the neighbour's candidate list to the assigned
//!    node's `descendant_range` (two binary searches, node ids being preorder
//!    ranks) and, for P-C, testing `parent ==`. A twig is a tree, so the
//!    parts hanging off an assigned node are independent: each needs one
//!    witness, and alternatives are tried only among nodes that share tag
//!    and value *and* lie in the right subtree.
//!
//! Tags, tuple positions and twig neighbours are resolved once per query in
//! [`TwigValidator::new`]; a check allocates nothing and hashes nothing.
//! With every variable bound and some bound value selective, one check costs
//! `O(|twig| · (log n + depth))` — independent of sibling fan-out, including
//! when the internal elements all share the empty text value, because the
//! anchor is then a leaf and its ancestors are reached by pointer. Prefix
//! checks (partial validation during the join) run the same code with fewer
//! bound nodes; there is no second path.

use crate::error::{CoreError, Result};
use relational::{Attr, ValueId};
use std::cmp::Reverse;
use std::ops::Range;
use xmldb::{Axis, NodeId, TagId, TagIndex, TwigPattern, XmlDocument};

/// The document nodes one twig node may be assigned: a sorted id list from
/// the [`TagIndex`] (or a node's child list), or — for `*` — an id range.
/// Both are ascending in node id, so either can be cut to a subtree.
#[derive(Clone, Copy)]
enum Candidates<'a> {
    List(&'a [NodeId]),
    Span { lo: u32, hi: u32 },
}

impl<'a> Candidates<'a> {
    fn len(&self) -> usize {
        match *self {
            Candidates::List(ids) => ids.len(),
            Candidates::Span { lo, hi } => (hi - lo) as usize,
        }
    }

    fn get(&self, i: usize) -> NodeId {
        match *self {
            Candidates::List(ids) => ids[i],
            Candidates::Span { lo, .. } => NodeId(lo + i as u32),
        }
    }

    /// The candidates whose id lies in `range`.
    fn within(self, range: &Range<u32>) -> Candidates<'a> {
        match self {
            Candidates::List(ids) => {
                let lo = ids.partition_point(|n| n.0 < range.start);
                let len = ids[lo..].partition_point(|n| n.0 < range.end);
                Candidates::List(&ids[lo..lo + len])
            }
            Candidates::Span { lo, hi } => {
                let lo = lo.max(range.start);
                Candidates::Span {
                    lo,
                    hi: hi.min(range.end).max(lo),
                }
            }
        }
    }
}

/// One twig node, compiled against the document and the tuple layout.
struct Slot<'a> {
    /// The node's tag in this document; `None` is the wildcard `*`.
    tag: Option<TagId>,
    /// Position of the node's variable in the engine's global variable
    /// order (= the tuple layout).
    position: usize,
    /// Edges between the node and the twig root.
    depth: usize,
    /// Per check: the value the tuple binds the node to, if any.
    value: Option<ValueId>,
    /// Per check: the nodes that carry the tag (and the bound value).
    candidates: Candidates<'a>,
}

/// A compiled, label-driven validator for one twig against one document.
pub struct TwigValidator<'a> {
    doc: &'a XmlDocument,
    index: &'a TagIndex,
    twig: &'a TwigPattern,
    slots: Vec<Slot<'a>>,
    /// Whether every named tag of the twig occurs in the document; if not,
    /// the twig has no embedding and every check fails.
    satisfiable: bool,
    /// Tuple length a full check reads: the highest position plus one.
    width: usize,
    /// Work counter: document nodes examined by all checks so far (every
    /// candidate tested as the anchor, as a parent or ancestor, or as a
    /// child or descendant after the cut to the subtree).
    pub nodes_visited: u64,
}

impl<'a> TwigValidator<'a> {
    /// Builds a validator; `order` is the engine's global variable order.
    pub fn new(
        doc: &'a XmlDocument,
        index: &'a TagIndex,
        twig: &'a TwigPattern,
        order: &[Attr],
    ) -> Result<Self> {
        let mut satisfiable = true;
        let mut slots: Vec<Slot<'a>> = Vec::with_capacity(twig.len());
        for node in twig.nodes() {
            let position = order.iter().position(|o| *o == node.var).ok_or_else(|| {
                CoreError::BadOrder(format!("twig variable `{}` missing from order", node.var))
            })?;
            let tag = doc.tags().lookup(&node.tag);
            satisfiable &= tag.is_some() || node.tag == "*";
            slots.push(Slot {
                tag,
                position,
                // Twig nodes are stored parents first.
                depth: node.parent.map_or(0, |p| slots[p].depth + 1),
                value: None,
                candidates: Candidates::List(&[]),
            });
        }
        let width = slots.iter().map(|s| s.position + 1).max().unwrap_or(0);
        Ok(TwigValidator {
            doc,
            index,
            twig,
            slots,
            satisfiable,
            width,
            nodes_visited: 0,
        })
    }

    /// Checks a tuple whose first `bound` positions (in global order) are
    /// bound. Returns `true` iff some embedding of the twig is consistent
    /// with every bound twig variable.
    ///
    /// With `bound == order.len()` this is the full final validation; with
    /// smaller `bound` it is the paper's *partial validation during the
    /// join* (its stated on-going work).
    ///
    /// # Panics
    /// Panics if `tuple` is shorter than the bound positions the twig reads.
    pub fn check_prefix(&mut self, tuple: &[ValueId], bound: usize) -> bool {
        assert!(
            tuple.len() >= bound.min(self.width),
            "tuple of {} values is too short: the twig reads position {}",
            tuple.len(),
            self.width - 1
        );
        if !self.satisfiable {
            return false;
        }
        // Estimate every participant; propose from the narrowest. Of equally
        // narrow nodes the deepest anchors: the edges above it are crossed by
        // pointer, whereas below a lone root the whole document remains.
        let (mut anchor, mut narrowest) = (0, (usize::MAX, Reverse(0)));
        for (q, slot) in self.slots.iter_mut().enumerate() {
            slot.value = (slot.position < bound).then(|| tuple[slot.position]);
            slot.candidates = match (slot.tag, slot.value) {
                (Some(t), Some(v)) => Candidates::List(self.index.nodes_with_value(t, v)),
                (Some(t), None) => Candidates::List(self.index.nodes(t)),
                (None, _) => Candidates::Span {
                    lo: 0,
                    hi: self.doc.len() as u32,
                },
            };
            let len = slot.candidates.len();
            if len == 0 {
                return false;
            }
            let key = (len, Reverse(slot.depth));
            if key < narrowest {
                (anchor, narrowest) = (q, key);
            }
        }
        // Confirm the rest around each proposal.
        let mut visited = 0;
        let ok = self.witness(
            anchor,
            self.slots[anchor].candidates,
            None,
            None,
            &mut visited,
        );
        self.nodes_visited += visited;
        ok
    }

    /// Full validation of a complete tuple.
    ///
    /// # Panics
    /// Panics if `tuple` is shorter than the highest position the twig reads.
    pub fn check(&mut self, tuple: &[ValueId]) -> bool {
        self.check_prefix(tuple, usize::MAX)
    }

    /// Whether this twig has any variable at global order position `pos`.
    pub fn involves_position(&self, pos: usize) -> bool {
        self.slots.iter().any(|s| s.position == pos)
    }

    /// Whether some node of `among` can be assigned to twig node `q` — it
    /// carries the bound value, is a child of `parent` when one is given,
    /// and the rest of the twig embeds around it ([`Self::confirm`]).
    fn witness(
        &self,
        q: usize,
        among: Candidates<'a>,
        parent: Option<NodeId>,
        from: Option<usize>,
        visited: &mut u64,
    ) -> bool {
        let value = self.slots[q].value;
        (0..among.len()).any(|i| {
            let n = among.get(i);
            let node = self.doc.node(n);
            *visited += 1;
            value.is_none_or(|v| v == node.value)
                && parent.is_none_or(|p| node.parent == Some(p))
                && self.confirm(q, n, from, visited)
        })
    }

    /// With twig node `q` assigned to document node `n`, whether every part
    /// of the twig hanging off `q` — except the one reached through twig
    /// node `from`, where the walk came from — has a consistent assignment.
    fn confirm(&self, q: usize, n: NodeId, from: Option<usize>, visited: &mut u64) -> bool {
        let tnode = self.twig.node(q);
        if let Some(p) = tnode.parent.filter(|&p| Some(p) != from) {
            // Upward: the parent pointer (P-C) or the ancestor chain (A-D).
            let slot = &self.slots[p];
            let mut up = self.doc.node(n).parent;
            let mut found = false;
            while let Some(a) = up {
                let node = self.doc.node(a);
                *visited += 1;
                found = slot.tag.is_none_or(|t| t == node.tag)
                    && slot.value.is_none_or(|v| v == node.value)
                    && self.confirm(p, a, Some(q), visited);
                if found || tnode.axis == Axis::Child {
                    break;
                }
                up = node.parent;
            }
            if !found {
                return false;
            }
        }
        // Downward: the neighbour's candidates inside `n`'s subtree.
        tnode
            .children
            .iter()
            .filter(|&&c| Some(c) != from)
            .all(|&c| {
                let pc = self.twig.node(c).axis == Axis::Child;
                let among = match self.slots[c].candidates {
                    // `*` under a P-C edge: the child list is the shorter cut.
                    Candidates::Span { .. } if pc => Candidates::List(&self.doc.node(n).children),
                    candidates => candidates.within(&self.doc.descendant_range(n)),
                };
                self.witness(c, among, pc.then_some(n), Some(q), visited)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::{Dict, Value};
    use xmldb::TagIndex;

    /// Document with two `c` nodes sharing the value 9 but with different
    /// children: the canonical value-join false positive.
    fn doc(dict: &mut Dict) -> XmlDocument {
        let mut b = XmlDocument::builder();
        b.begin("r");
        b.begin("c");
        b.value(9i64);
        b.leaf("b", 1i64);
        b.end();
        b.begin("c");
        b.value(9i64);
        b.leaf("d", 2i64);
        b.end();
        b.end();
        b.build(dict)
    }

    #[test]
    fn rejects_cross_node_value_combination() {
        let mut dict = Dict::new();
        let d = doc(&mut dict);
        let idx = TagIndex::build(&d);
        let twig = TwigPattern::parse("//c[/b][/d]").unwrap();
        let order: Vec<Attr> = vec!["c".into(), "b".into(), "d".into()];
        let mut v = TwigValidator::new(&d, &idx, &twig, &order).unwrap();
        let nine = dict.lookup(&Value::Int(9)).unwrap();
        let one = dict.lookup(&Value::Int(1)).unwrap();
        let two = dict.lookup(&Value::Int(2)).unwrap();
        // Value-level join would produce (c=9, b=1, d=2); no single c node
        // has both children.
        assert!(!v.check(&[nine, one, two]));
    }

    #[test]
    fn accepts_real_embeddings() {
        let mut dict = Dict::new();
        let d = doc(&mut dict);
        let idx = TagIndex::build(&d);
        let twig = TwigPattern::parse("//c/b").unwrap();
        let order: Vec<Attr> = vec!["c".into(), "b".into()];
        let mut v = TwigValidator::new(&d, &idx, &twig, &order).unwrap();
        let nine = dict.lookup(&Value::Int(9)).unwrap();
        let one = dict.lookup(&Value::Int(1)).unwrap();
        assert!(v.check(&[nine, one]));
    }

    #[test]
    fn partial_prefix_checks() {
        let mut dict = Dict::new();
        let d = doc(&mut dict);
        let idx = TagIndex::build(&d);
        let twig = TwigPattern::parse("//c[/b][/d]").unwrap();
        let order: Vec<Attr> = vec!["c".into(), "b".into(), "d".into()];
        let mut v = TwigValidator::new(&d, &idx, &twig, &order).unwrap();
        let nine = dict.lookup(&Value::Int(9)).unwrap();
        let one = dict.lookup(&Value::Int(1)).unwrap();
        // With only c bound: there is NO c with both a b and a d child,
        // so even the prefix (c=9) is already invalid.
        assert!(!v.check_prefix(&[nine, one, one], 1));
    }

    #[test]
    fn siblings_sharing_tag_and_value_need_one_common_parent() {
        // Two c parents with equal values, one b child each.
        let mut dict = Dict::new();
        let mut b = XmlDocument::builder();
        b.begin("r");
        for child in [1i64, 2] {
            b.begin("c");
            b.value(9i64);
            b.leaf("b", child);
            b.end();
        }
        b.end();
        let d = b.build(&mut dict);
        let idx = TagIndex::build(&d);
        let twig = TwigPattern::parse("//c[/b$x][/b$y]").unwrap();
        let order: Vec<Attr> = vec!["c".into(), "x".into(), "y".into()];
        let mut v = TwigValidator::new(&d, &idx, &twig, &order).unwrap();
        let nine = dict.lookup(&Value::Int(9)).unwrap();
        let one = dict.lookup(&Value::Int(1)).unwrap();
        let two = dict.lookup(&Value::Int(2)).unwrap();
        // x=1 and y=2 under the *same* c never happens; an embedding need
        // not be injective, so x=y=1 is one b node twice.
        assert!(!v.check(&[nine, one, two]));
        assert!(v.check(&[nine, one, one]));
    }

    #[test]
    fn unknown_tags_and_unseen_values_reject_without_touching_the_document() {
        let mut dict = Dict::new();
        let d = doc(&mut dict);
        let idx = TagIndex::build(&d);
        let order: Vec<Attr> = vec!["c".into(), "b".into()];
        let nine = dict.lookup(&Value::Int(9)).unwrap();
        let two = dict.lookup(&Value::Int(2)).unwrap();
        let twig = TwigPattern::parse("//c/zzz$b").unwrap();
        let mut v = TwigValidator::new(&d, &idx, &twig, &order).unwrap();
        assert!(!v.check(&[nine, two]));
        assert!(!v.check_prefix(&[nine, two], 0));
        let twig = TwigPattern::parse("//c/b").unwrap();
        let mut w = TwigValidator::new(&d, &idx, &twig, &order).unwrap();
        assert!(!w.check(&[nine, two])); // no b carries 2
        assert_eq!((v.nodes_visited, w.nodes_visited), (0, 0));
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn a_tuple_shorter_than_the_twig_reads_is_rejected_loudly() {
        let mut dict = Dict::new();
        let d = doc(&mut dict);
        let idx = TagIndex::build(&d);
        let twig = TwigPattern::parse("//c/b").unwrap();
        let order: Vec<Attr> = vec!["z".into(), "c".into(), "b".into()];
        let mut v = TwigValidator::new(&d, &idx, &twig, &order).unwrap();
        let nine = dict.lookup(&Value::Int(9)).unwrap();
        v.check(&[nine, nine]);
    }

    /// The Figure-1 bookstore at 800 order lines; `numbered` gives every
    /// `orderLine` its line number as text, otherwise they all share the
    /// empty value. Returns the five values of every line, in twig order.
    fn bookstore(dict: &mut Dict, numbered: bool) -> (XmlDocument, Vec<[Value; 5]>) {
        let mut b = XmlDocument::builder();
        let mut rows = Vec::new();
        b.begin("invoices");
        for i in 0..800i64 {
            let line = if numbered {
                Value::Int(i)
            } else {
                Value::str("")
            };
            let row = [
                Value::str(""),
                line.clone(),
                Value::Int(10_000 + i % 300),
                Value::str(format!("978-{i}")),
                Value::Int(5 + i % 95),
            ];
            b.begin("orderLine");
            if numbered {
                b.value(line);
            }
            b.leaf("orderID", row[2].clone());
            b.leaf("ISBN", row[3].clone());
            b.leaf("price", row[4].clone());
            b.leaf("discount", "0.1");
            b.end();
            rows.push(row);
        }
        b.end();
        (b.build(dict), rows)
    }

    #[test]
    fn work_per_row_does_not_grow_with_sibling_fan_out() {
        for numbered in [true, false] {
            let mut dict = Dict::new();
            let (d, rows) = bookstore(&mut dict, numbered);
            let idx = TagIndex::build(&d);
            let twig = TwigPattern::parse("//invoices/orderLine[/orderID][/ISBN][/price]").unwrap();
            let order = twig.vars();
            let mut v = TwigValidator::new(&d, &idx, &twig, &order).unwrap();
            let ids = |row: &[Value; 5]| -> Vec<ValueId> {
                row.iter().map(|x| dict.lookup(x).unwrap()).collect()
            };
            for row in &rows {
                assert!(v.check(&ids(row)));
            }
            assert!(
                v.nodes_visited <= 8 * rows.len() as u64,
                "numbered={numbered}: {} nodes for {} rows",
                v.nodes_visited,
                rows.len()
            );
            // A row stitched from two lines has no embedding, and finding
            // that out is as cheap.
            let before = v.nodes_visited;
            let mut mixed = ids(&rows[3]);
            mixed[3] = ids(&rows[4])[3];
            assert!(!v.check(&mixed));
            assert!(v.nodes_visited - before <= 8);
        }
    }

    #[test]
    fn order_must_cover_twig_vars() {
        let mut dict = Dict::new();
        let d = doc(&mut dict);
        let idx = TagIndex::build(&d);
        let twig = TwigPattern::parse("//c/b").unwrap();
        let order: Vec<Attr> = vec!["c".into()];
        assert!(TwigValidator::new(&d, &idx, &twig, &order).is_err());
    }

    #[test]
    fn involves_position_maps_vars() {
        let mut dict = Dict::new();
        let d = doc(&mut dict);
        let idx = TagIndex::build(&d);
        let twig = TwigPattern::parse("//c/b").unwrap();
        let order: Vec<Attr> = vec!["z".into(), "c".into(), "b".into()];
        // "z" is not a twig var; positions 1 and 2 are.
        let v = TwigValidator::new(&d, &idx, &twig, &order).unwrap();
        assert!(!v.involves_position(0));
        assert!(v.involves_position(1));
        assert!(v.involves_position(2));
    }
}
