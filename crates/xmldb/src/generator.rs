//! Synthetic XML document generators.

use crate::model::XmlDocument;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relational::Dict;

/// Configuration for [`random_document`].
#[derive(Debug, Clone)]
pub struct RandomTreeConfig {
    /// Maximum children per node (each node draws `0..=max_children`).
    pub max_children: usize,
    /// Maximum tree depth (root is depth 0; nodes at `max_depth` are leaves).
    pub max_depth: usize,
    /// Tag alphabet; the root uses `tags[0]`, others are drawn uniformly.
    pub tags: Vec<String>,
    /// Node values are uniform integers in `0..value_domain`.
    pub value_domain: u64,
    /// Give every node that has children the empty text value, as in
    /// data-centric XML where only leaves carry text (so all internal
    /// elements of a tag share one value).
    pub empty_internal_text: bool,
    /// RNG seed (generation is deterministic per seed).
    pub seed: u64,
}

impl Default for RandomTreeConfig {
    fn default() -> Self {
        RandomTreeConfig {
            max_children: 4,
            max_depth: 5,
            tags: ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect(),
            value_domain: 16,
            empty_internal_text: false,
            seed: 0,
        }
    }
}

/// Generates a random document: a tree grown top-down with uniform tag and
/// value choices. Useful for randomized cross-checks between the twig
/// algorithms.
pub fn random_document(dict: &mut Dict, cfg: &RandomTreeConfig) -> XmlDocument {
    assert!(!cfg.tags.is_empty(), "need at least one tag");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut b = XmlDocument::builder();
    let root = b.add_node(
        None,
        &cfg.tags[0].clone(),
        Some((rng.gen_range(0..cfg.value_domain) as i64).into()),
    );
    let mut frontier = vec![(root, 0usize)];
    while let Some((parent, depth)) = frontier.pop() {
        if depth >= cfg.max_depth {
            continue;
        }
        let n_children = rng.gen_range(0..=cfg.max_children);
        if cfg.empty_internal_text && n_children > 0 {
            b.set_value(parent, "");
        }
        for _ in 0..n_children {
            let tag = cfg.tags[rng.gen_range(0..cfg.tags.len())].clone();
            let value = rng.gen_range(0..cfg.value_domain) as i64;
            let child = b.add_node(Some(parent), &tag, Some(value.into()));
            frontier.push((child, depth + 1));
        }
    }
    b.build(dict)
}

/// Configuration for [`auction_document`], an XMark-inspired auction-site
/// document (the classic XML benchmark shape: people, items, open auctions).
#[derive(Debug, Clone)]
pub struct AuctionConfig {
    /// Number of registered people.
    pub people: usize,
    /// Number of items across all regions.
    pub items: usize,
    /// Number of open auctions.
    pub auctions: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AuctionConfig {
    fn default() -> Self {
        AuctionConfig {
            people: 20,
            items: 30,
            auctions: 25,
            seed: 0,
        }
    }
}

/// Generates an auction-site document:
///
/// ```text
/// site
/// ├── people/person*       (personID, name, city)
/// ├── regions/item*        (itemID, name, reserve)
/// └── open_auctions/auction*
///       (auctionID, itemref/itemID, seller/personID, current, bidder*)
/// ```
///
/// Ids are integers so they join with relational tables through the shared
/// dictionary; every auction references an existing item and seller, so
/// multi-model joins over this document have non-trivial results.
pub fn auction_document(dict: &mut Dict, cfg: &AuctionConfig) -> XmlDocument {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let cities = ["helsinki", "houston", "tokyo", "berlin"];
    let mut b = XmlDocument::builder();
    b.begin("site");

    b.begin("people");
    for p in 0..cfg.people {
        b.begin("person");
        b.leaf("personID", p as i64);
        b.leaf("name", format!("person{p}"));
        b.leaf("city", cities[rng.gen_range(0..cities.len())]);
        b.end();
    }
    b.end();

    b.begin("regions");
    for i in 0..cfg.items {
        b.begin("item");
        b.leaf("itemID", 1000 + i as i64);
        b.leaf("name", format!("item{i}"));
        b.leaf("reserve", rng.gen_range(10..500) as i64);
        b.end();
    }
    b.end();

    b.begin("open_auctions");
    for a in 0..cfg.auctions {
        b.begin("auction");
        b.leaf("auctionID", 5000 + a as i64);
        b.begin("itemref");
        b.leaf("itemID", 1000 + rng.gen_range(0..cfg.items.max(1)) as i64);
        b.end();
        b.begin("seller");
        b.leaf("personID", rng.gen_range(0..cfg.people.max(1)) as i64);
        b.end();
        b.leaf("current", rng.gen_range(10..1000) as i64);
        for _ in 0..rng.gen_range(0..3) {
            b.begin("bidder");
            b.leaf("personref", rng.gen_range(0..cfg.people.max(1)) as i64);
            b.leaf("increase", rng.gen_range(1..50) as i64);
            b.end();
        }
        b.end();
    }
    b.end();

    b.end(); // site
    b.build(dict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag_index::TagIndex;

    #[test]
    fn auction_document_has_expected_populations() {
        let mut dict = Dict::new();
        let cfg = AuctionConfig {
            people: 7,
            items: 11,
            auctions: 13,
            seed: 3,
        };
        let doc = auction_document(&mut dict, &cfg);
        let idx = TagIndex::build(&doc);
        assert_eq!(idx.nodes_named(&doc, "person").len(), 7);
        assert_eq!(idx.nodes_named(&doc, "item").len(), 11);
        assert_eq!(idx.nodes_named(&doc, "auction").len(), 13);
        // Every auction has an itemref with an existing itemID.
        let twig = crate::TwigPattern::parse("//auction/itemref/itemID").unwrap();
        assert_eq!(crate::matcher::count_matches(&doc, &idx, &twig), 13);
    }

    #[test]
    fn random_document_is_deterministic() {
        let mut d1 = Dict::new();
        let mut d2 = Dict::new();
        let cfg = RandomTreeConfig::default();
        let a = random_document(&mut d1, &cfg);
        let b = random_document(&mut d2, &cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.node_ids().zip(b.node_ids()) {
            assert_eq!(a.tag_name(x), b.tag_name(y));
            assert_eq!(a.node(x).value, b.node(y).value);
        }
    }

    #[test]
    fn random_document_respects_depth() {
        let mut dict = Dict::new();
        let cfg = RandomTreeConfig {
            max_depth: 3,
            ..Default::default()
        };
        let doc = random_document(&mut dict, &cfg);
        for id in doc.node_ids() {
            assert!(doc.node(id).level <= 3);
        }
    }

    #[test]
    fn empty_internal_text_leaves_values_on_leaves_only() {
        let mut dict = Dict::new();
        let cfg = RandomTreeConfig {
            empty_internal_text: true,
            seed: 1,
            ..Default::default()
        };
        let doc = random_document(&mut dict, &cfg);
        let empty = dict.lookup(&"".into()).unwrap();
        assert!(doc.len() > 1);
        for id in doc.node_ids() {
            let n = doc.node(id);
            assert_eq!(n.value == empty, !n.children.is_empty(), "{id}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut d1 = Dict::new();
        let mut d2 = Dict::new();
        let c1 = RandomTreeConfig {
            seed: 1,
            ..Default::default()
        };
        let c2 = RandomTreeConfig {
            seed: 2,
            ..Default::default()
        };
        let a = random_document(&mut d1, &c1);
        let b = random_document(&mut d2, &c2);
        // Extremely unlikely to coincide in both size and all tags.
        let same = a.len() == b.len()
            && a.node_ids()
                .zip(b.node_ids())
                .all(|(x, y)| a.tag_name(x) == b.tag_name(y));
        assert!(!same);
    }
}
