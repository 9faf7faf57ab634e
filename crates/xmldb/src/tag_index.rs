//! Tag indexes: per-tag node streams in document order, and per-tag
//! `(value, id)` postings.
//!
//! Structural and holistic join algorithms consume, for every twig node, the
//! stream of document elements with a matching tag sorted by region start.
//! Because the builder assigns node ids in preorder, id order *is* start
//! order, so each stream is a sorted `Vec<NodeId>` and region-range lookups
//! ("descendants of `n` with tag `t`") are binary searches.
//!
//! Twig validation additionally needs "the nodes with tag `t` and value `v`"
//! once per twig node per result row. Each tag therefore keeps a second copy
//! of its stream sorted by `(value, id)` plus a directory of its distinct
//! values: a lookup is one binary search over the directory (no hashing),
//! and every posting list is itself in document order, so it can be sliced
//! to a subtree's id range with two more binary searches.

use crate::model::{NodeId, TagId, XmlDocument};
use relational::ValueId;

/// The `(value, id)` postings of one tag.
#[derive(Debug, Clone, Default)]
struct Postings {
    /// The tag's nodes sorted by `(value, id)`.
    ids: Vec<NodeId>,
    /// The tag's distinct values, ascending.
    values: Vec<ValueId>,
    /// `ids[starts[i]..starts[i + 1]]` carry `values[i]`.
    starts: Vec<u32>,
}

/// Per-document index: tag → nodes (document order), and (tag, value) →
/// nodes (document order) for the structure-validation lookups of the XJoin
/// engine.
#[derive(Debug, Clone)]
pub struct TagIndex {
    by_tag: Vec<Vec<NodeId>>,
    starts_by_tag: Vec<Vec<u32>>,
    postings: Vec<Postings>,
}

impl TagIndex {
    /// Builds the index over a document.
    pub fn build(doc: &XmlDocument) -> TagIndex {
        let ntags = doc.tags().len();
        let mut by_tag: Vec<Vec<NodeId>> = vec![Vec::new(); ntags];
        let mut starts_by_tag: Vec<Vec<u32>> = vec![Vec::new(); ntags];
        // One `value << 32 | id` key per node, so that a plain integer sort
        // orders a tag's nodes by (value, id).
        let mut keys_by_tag: Vec<Vec<u64>> = vec![Vec::new(); ntags];
        for id in doc.node_ids() {
            let n = doc.node(id);
            by_tag[n.tag.index()].push(id);
            starts_by_tag[n.tag.index()].push(n.start);
            keys_by_tag[n.tag.index()].push(u64::from(n.value.0) << 32 | u64::from(id.0));
        }
        let postings = keys_by_tag
            .into_iter()
            .map(|mut keys| {
                keys.sort_unstable();
                let mut p = Postings {
                    ids: Vec::with_capacity(keys.len()),
                    ..Postings::default()
                };
                for (i, key) in keys.into_iter().enumerate() {
                    let value = ValueId((key >> 32) as u32);
                    if p.values.last() != Some(&value) {
                        p.values.push(value);
                        p.starts.push(i as u32);
                    }
                    p.ids.push(NodeId(key as u32));
                }
                p.starts.push(p.ids.len() as u32);
                p
            })
            .collect();
        TagIndex {
            by_tag,
            starts_by_tag,
            postings,
        }
    }

    /// All nodes with tag `tag`, in document order.
    pub fn nodes(&self, tag: TagId) -> &[NodeId] {
        &self.by_tag[tag.index()]
    }

    /// All nodes whose tag name is `name` (empty if the tag is unknown).
    pub fn nodes_named<'a>(&'a self, doc: &XmlDocument, name: &str) -> &'a [NodeId] {
        match doc.tags().lookup(name) {
            Some(t) => self.nodes(t),
            None => &[],
        }
    }

    /// Nodes with tag `tag` whose region start lies strictly inside
    /// `(start, end)` — i.e. the descendants of the node with that region.
    pub fn nodes_in(&self, tag: TagId, start: u32, end: u32) -> &[NodeId] {
        let starts = &self.starts_by_tag[tag.index()];
        let lo = starts.partition_point(|&s| s <= start);
        let hi = starts.partition_point(|&s| s < end);
        &self.by_tag[tag.index()][lo..hi]
    }

    /// Nodes with tag `tag` and value `value`, in document order.
    pub fn nodes_with_value(&self, tag: TagId, value: ValueId) -> &[NodeId] {
        let p = &self.postings[tag.index()];
        match p.values.binary_search(&value) {
            Ok(i) => &p.ids[p.starts[i] as usize..p.starts[i + 1] as usize],
            Err(_) => &[],
        }
    }

    /// Number of distinct tags indexed.
    pub fn tag_count(&self) -> usize {
        self.by_tag.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::XmlDocument;
    use relational::{Dict, Value};

    fn doc(dict: &mut Dict) -> XmlDocument {
        // <a><b>1</b><c><b>2</b><d>3</d></c><b>1</b></a>
        let mut b = XmlDocument::builder();
        b.begin("a");
        b.leaf("b", 1i64);
        b.begin("c");
        b.leaf("b", 2i64);
        b.leaf("d", 3i64);
        b.end();
        b.leaf("b", 1i64);
        b.end();
        b.build(dict)
    }

    #[test]
    fn nodes_are_in_document_order() {
        let mut dict = Dict::new();
        let d = doc(&mut dict);
        let idx = TagIndex::build(&d);
        let bs = idx.nodes_named(&d, "b");
        assert_eq!(bs.len(), 3);
        assert!(bs
            .windows(2)
            .all(|w| d.node(w[0]).start < d.node(w[1]).start));
    }

    #[test]
    fn unknown_tag_is_empty() {
        let mut dict = Dict::new();
        let d = doc(&mut dict);
        let idx = TagIndex::build(&d);
        assert!(idx.nodes_named(&d, "zzz").is_empty());
    }

    #[test]
    fn nodes_in_region_selects_descendants() {
        let mut dict = Dict::new();
        let d = doc(&mut dict);
        let idx = TagIndex::build(&d);
        let c = idx.nodes_named(&d, "c")[0];
        let cn = d.node(c);
        let btag = d.tags().lookup("b").unwrap();
        let inside = idx.nodes_in(btag, cn.start, cn.end);
        assert_eq!(inside.len(), 1);
        assert!(d.is_ancestor(c, inside[0]));
        // Root region contains all three b's.
        let root = d.node(d.root());
        assert_eq!(idx.nodes_in(btag, root.start, root.end).len(), 3);
        // A leaf's region contains nothing.
        let b0 = idx.nodes(btag)[0];
        let b0n = d.node(b0);
        assert!(idx.nodes_in(btag, b0n.start, b0n.end).is_empty());
    }

    #[test]
    fn value_lookup_groups_equal_values() {
        let mut dict = Dict::new();
        let d = doc(&mut dict);
        let idx = TagIndex::build(&d);
        let btag = d.tags().lookup("b").unwrap();
        let one = dict.lookup(&Value::Int(1)).unwrap();
        let two = dict.lookup(&Value::Int(2)).unwrap();
        assert_eq!(idx.nodes_with_value(btag, one).len(), 2);
        assert_eq!(idx.nodes_with_value(btag, two).len(), 1);
        let dtag = d.tags().lookup("d").unwrap();
        assert!(idx.nodes_with_value(dtag, one).is_empty());
    }

    #[test]
    fn postings_equal_a_filtered_scan_in_document_order() {
        let mut dict = Dict::new();
        let cfg = crate::generator::RandomTreeConfig {
            value_domain: 3,
            seed: 11,
            ..Default::default()
        };
        let d = crate::generator::random_document(&mut dict, &cfg);
        let idx = TagIndex::build(&d);
        for t in 0..idx.tag_count() as u32 {
            for v in 0..dict.len() as u32 {
                let (tag, value) = (TagId(t), ValueId(v));
                let scan: Vec<NodeId> = d
                    .node_ids()
                    .filter(|&id| d.node(id).tag == tag && d.node(id).value == value)
                    .collect();
                assert_eq!(idx.nodes_with_value(tag, value), scan.as_slice());
            }
        }
    }

    #[test]
    fn descendant_range_matches_region_queries() {
        let mut dict = Dict::new();
        let d = doc(&mut dict);
        for id in d.node_ids() {
            let range = d.descendant_range(id);
            for other in d.node_ids() {
                let inside = range.contains(&other.0);
                assert_eq!(inside, d.is_ancestor(id, other), "{id} vs {other}");
            }
        }
    }
}
