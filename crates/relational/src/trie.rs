//! Flat sorted tries over relations.
//!
//! A [`Trie`] stores a relation's distinct tuples, sorted lexicographically
//! under a chosen attribute order, as one flat array per level. Node `i` of
//! level `d` owns the contiguous child range
//! `child_start[i] .. child_start[i+1]` of level `d+1`, so every "children of
//! a node" view is a sorted `&[ValueId]` slice — exactly what leapfrog
//! intersection consumes.
//!
//! All worst-case optimal engines in this workspace (LFTJ, the level-wise
//! generic join, and XJoin) navigate these tries. XML path relations are
//! lowered to the same representation (see the `xmldb::transform` module), so
//! one join kernel serves both data models.
//!
//! Construction is the dominant cold-query cost, so it goes through the
//! allocation-conscious [`TrieBuilder`]: columns are reordered once into a
//! flat scratch buffer, a `u32` row permutation is sorted by comparing
//! columns in place (with an LSD radix fast path over dense value domains,
//! and no sort at all for pre-sorted input), and the levels are emitted by
//! scanning prefix change-points — no per-row `Vec` is ever allocated. The
//! original quadratic-allocation builder survives as
//! [`Trie::build_reference`] for differential tests and benchmarks.

use crate::error::{RelError, Result};
use crate::relation::Relation;
use crate::schema::{Attr, Schema};
use crate::stats::{BuildStats, SortPath};
use crate::value::ValueId;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::ops::Range;
use std::time::Instant;

/// One level of a [`Trie`]: the values of all nodes at this depth plus the
/// child ranges pointing into the next level.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TrieLevel {
    /// Node values at this depth, grouped by parent and sorted within each
    /// group.
    vals: Vec<ValueId>,
    /// `child_start[i]..child_start[i+1]` is node `i`'s child range in the
    /// next level. Empty for the deepest level.
    child_start: Vec<u32>,
    /// Bitmap seek accelerator, present iff the level's layout is
    /// [`LevelLayout::Bitset`]. `vals` is always kept, so slice-consuming
    /// engines are unaffected by the layout choice.
    bits: Option<LevelBits>,
    /// Cardinality summary of this level, attached at build time.
    summary: LevelSummary,
}

/// Per-level cardinality summary, the static half of the adaptive-ordering
/// estimate ladder ([`crate::plan::Ladder`]).
///
/// Attached by **both** trie builders at construction time, so a summary is
/// always exact for the trie it hangs off — including the fresh solid trie a
/// [`crate::delta::DeltaTrie`] compaction produces. `nodes` feeds no rung
/// directly but is the denominator of the average-fanout reading
/// (`next level's nodes / this level's nodes`); `distinct` is the *Paul*
/// rung: how many distinct values a cursor over this level can bind.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LevelSummary {
    /// Number of trie nodes at this level (= distinct prefixes of length
    /// `level + 1`).
    pub nodes: u64,
    /// Number of distinct *values* at this level, across all sibling groups.
    /// Equals `nodes` at the root level, where the single group is globally
    /// deduplicated.
    pub distinct: u64,
}

impl TrieLevel {
    fn layout(&self) -> LevelLayout {
        if self.bits.is_some() {
            LevelLayout::Bitset
        } else {
            LevelLayout::SortedVec
        }
    }
}

/// The physical layout backing one trie level's seek path.
///
/// Chosen per level by [`TrieBuilder`] (and the reference builder) from the
/// level's density: dense levels get a bitmap index on top of the sorted
/// value array. The choice is **transparent to all engines** — `vals` is
/// always retained, slice accessors like [`Trie::values`] are unchanged, and
/// seeks consult the layout behind the cursor API. The selection is
/// reported through `BuildStats::layouts`, `explain()`, and
/// `JoinStats::bitset_levels`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LevelLayout {
    /// Plain sorted value array; seeks run block-wise branch-reduced
    /// galloping ([`crate::leapfrog::block_seek`]).
    SortedVec,
    /// The sorted array is augmented with per-sibling-group bitmaps and a
    /// rank directory, so a seek is a word scan plus popcount instead of a
    /// search. Selected for levels with at least `BITSET_MIN_NODES` nodes
    /// whose total value span is at most `BITSET_SPAN_FACTOR`× the node
    /// count (dense dictionary ids — the common case for generated and
    /// dictionary-encoded data).
    Bitset,
}

impl std::fmt::Display for LevelLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LevelLayout::SortedVec => "sorted",
            LevelLayout::Bitset => "bitset",
        })
    }
}

/// Per-sibling-group bitmap index accelerating seeks on a dense level.
///
/// Group `g` — the children of node `g` of the previous level; the whole
/// level for depth 0 — owns words `word_start[g]..word_start[g+1]`. Bit `b`
/// of the group's `w`-th word is set iff value `base[g] + 64·w + b` occurs
/// among the group's siblings. `rank[w]` counts the set bits in the group's
/// words strictly before `w` (group-relative), so a hit converts to an
/// absolute node index with a single popcount.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LevelBits {
    /// Per group: first owned word index; `groups + 1` entries.
    word_start: Vec<u32>,
    /// Per group: the value bit 0 of its first word represents.
    base: Vec<ValueId>,
    /// The bitmap words of all groups, concatenated.
    words: Vec<u64>,
    /// Per word: set-bit count of the owning group's earlier words.
    rank: Vec<u32>,
}

impl LevelBits {
    /// First node index in `pos..hi` of `group` (whose nodes start at
    /// absolute index `group_start`) with value `>= target` — the bitmap
    /// counterpart of [`crate::leapfrog::block_seek`] over the group's
    /// sibling slice. Returns `hi` when no such node exists. With `TRACK`
    /// the bitmap words examined are added to `examined`.
    pub(crate) fn seek<const TRACK: bool>(
        &self,
        group: u32,
        group_start: u32,
        pos: u32,
        hi: u32,
        target: ValueId,
        examined: &mut u64,
    ) -> u32 {
        let g = group as usize;
        let base = self.base[g];
        if target <= base {
            return pos;
        }
        let off = (target.0 - base.0) as usize;
        let w_end = self.word_start[g + 1] as usize;
        let mut w = self.word_start[g] as usize + off / 64;
        if w >= w_end {
            return hi;
        }
        if TRACK {
            *examined += 1;
        }
        let mut word = self.words[w] & (!0u64 << (off % 64));
        while word == 0 {
            w += 1;
            if w >= w_end {
                return hi;
            }
            word = self.words[w];
            if TRACK {
                *examined += 1;
            }
        }
        let bit = word.trailing_zeros();
        let below = (self.words[w] & ((1u64 << bit) - 1)).count_ones();
        // Values ascend within a group, so clamping into the cursor's
        // window is exact: a target at or below the cursor's current value
        // resolves to a node before `pos`, and the clamp keeps the seek
        // forward-only, like `block_seek` searching from `lo`.
        (group_start + self.rank[w] + below).clamp(pos, hi)
    }

    fn bytes(&self) -> usize {
        self.word_start.len() * std::mem::size_of::<u32>()
            + self.base.len() * std::mem::size_of::<ValueId>()
            + self.words.len() * std::mem::size_of::<u64>()
            + self.rank.len() * std::mem::size_of::<u32>()
    }
}

/// Minimum node count for a level to be considered for [`LevelLayout::Bitset`];
/// tiny levels seek fast enough through the sorted array alone.
const BITSET_MIN_NODES: usize = 64;
/// Maximum total value span (summed over sibling groups: `last − first + 1`)
/// relative to the node count for a level to qualify as dense.
const BITSET_SPAN_FACTOR: usize = 8;

/// Deterministic post-pass choosing each level's [`LevelLayout`] from the
/// emitted `vals`/`child_start` arrays and attaching bitmap indexes to the
/// dense levels. Invoked by **both** [`TrieBuilder::build`] and
/// [`Trie::build_reference`] with the same threshold, so differential suites
/// comparing whole tries (derived `PartialEq`, `estimated_bytes`) hold.
fn attach_bitsets(levels: &mut [TrieLevel], min_nodes: usize) {
    for d in 0..levels.len() {
        let (parents, rest) = levels.split_at_mut(d);
        let level = &mut rest[0];
        level.bits = None;
        let n = level.vals.len();
        if n < min_nodes {
            continue;
        }
        // Sibling-group boundaries: the previous level's child ranges, or a
        // single group spanning the whole level at the root.
        let root_bounds = [0u32, n as u32];
        let bounds: &[u32] = if d == 0 {
            &root_bounds
        } else {
            &parents[d - 1].child_start
        };
        let mut span_total = 0u64;
        for g in bounds.windows(2) {
            let (s, e) = (g[0] as usize, g[1] as usize);
            if e > s {
                span_total += u64::from(level.vals[e - 1].0 - level.vals[s].0) + 1;
            }
        }
        if span_total > (BITSET_SPAN_FACTOR * n) as u64 {
            continue;
        }
        let groups = bounds.len() - 1;
        let mut bits = LevelBits {
            word_start: Vec::with_capacity(groups + 1),
            base: Vec::with_capacity(groups),
            words: Vec::with_capacity(span_total.div_ceil(64) as usize),
            rank: Vec::new(),
        };
        bits.word_start.push(0);
        for g in bounds.windows(2) {
            let (s, e) = (g[0] as usize, g[1] as usize);
            let base = if e > s { level.vals[s] } else { ValueId(0) };
            bits.base.push(base);
            let w0 = bits.words.len();
            if e > s {
                let span = (level.vals[e - 1].0 - base.0) as usize + 1;
                bits.words.resize(w0 + span.div_ceil(64), 0);
                for &v in &level.vals[s..e] {
                    let off = (v.0 - base.0) as usize;
                    bits.words[w0 + off / 64] |= 1u64 << (off % 64);
                }
            }
            let mut running = 0u32;
            for w in w0..bits.words.len() {
                bits.rank.push(running);
                running += bits.words[w].count_ones();
            }
            bits.word_start.push(bits.words.len() as u32);
        }
        bits.rank.shrink_to_fit();
        level.bits = Some(bits);
    }
}

/// Deterministic post-pass computing each level's [`LevelSummary`]. Like
/// [`attach_bitsets`], it is invoked by **both** [`TrieBuilder::build`] and
/// [`Trie::build_reference`], so differential suites comparing whole tries
/// (derived `PartialEq`) keep holding. `scratch` is a reusable sort buffer
/// (the builder keeps one across builds; the reference path allocates).
fn attach_summaries(levels: &mut [TrieLevel], scratch: &mut Vec<ValueId>) {
    for (d, level) in levels.iter_mut().enumerate() {
        let nodes = level.vals.len() as u64;
        let distinct = if d == 0 {
            // The root level is one globally sorted, deduplicated group.
            nodes
        } else {
            scratch.clear();
            scratch.extend_from_slice(&level.vals);
            scratch.sort_unstable();
            scratch.dedup();
            scratch.len() as u64
        };
        level.summary = LevelSummary { nodes, distinct };
    }
}

/// A flat sorted trie over a relation under a fixed attribute order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trie {
    attrs: Vec<Attr>,
    levels: Vec<TrieLevel>,
    tuples: usize,
}

thread_local! {
    /// Per-thread scratch builder behind [`Trie::build`], so every build on
    /// a thread — engine plan assembly, `xjoin-store` registry fills,
    /// `PreparedQuery` cold paths — reuses the same scratch allocations.
    static SHARED_BUILDER: RefCell<TrieBuilder> = RefCell::new(TrieBuilder::new());
}

impl Trie {
    /// Builds a trie over `rel`'s distinct tuples, with levels ordered by
    /// `order` (which must be a permutation of `rel`'s schema).
    ///
    /// Routes through a thread-local [`TrieBuilder`], so repeated builds on
    /// one thread reuse scratch buffers; hold your own builder via
    /// [`TrieBuilder::new`] when you also want the [`BuildStats`].
    pub fn build(rel: &Relation, order: &[Attr]) -> Result<Trie> {
        SHARED_BUILDER.with(|b| b.borrow_mut().build(rel, order))
    }

    /// Builds a trie using the relation's own schema order.
    pub fn from_relation(rel: &Relation) -> Trie {
        Trie::build(rel, rel.schema().attrs()).expect("schema order is always valid")
    }

    /// The original row-materialising builder, kept **only** as the
    /// reference implementation for differential tests and benchmarks (it
    /// allocates a fresh key `Vec` per comparison and a `Vec` per row).
    /// Production code paths must use [`Trie::build`].
    #[doc(hidden)]
    pub fn build_reference(rel: &Relation, order: &[Attr]) -> Result<Trie> {
        let arity = rel.arity();
        let positions = check_order(rel, order)?;

        if arity == 0 {
            return Ok(Trie {
                attrs: Vec::new(),
                levels: Vec::new(),
                tuples: usize::from(!rel.is_empty()),
            });
        }

        // Sort (a permutation of) the row indices by the reordered columns
        // and drop duplicate tuples.
        let n = rel.len();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let key = |r: u32| -> Vec<ValueId> {
            let row = rel.row(r as usize);
            positions.iter().map(|&p| row[p]).collect()
        };
        perm.sort_unstable_by_key(|&r| key(r));
        perm.dedup_by_key(|r| key(*r));
        let rows: Vec<Vec<ValueId>> = perm.iter().map(|&r| key(r)).collect();

        let mut levels: Vec<TrieLevel> = Vec::with_capacity(arity);
        // Groups of row indices sharing the length-`d` prefix. Group `g` at
        // depth `d` holds the children rows of node `g` of level `d - 1`.
        #[allow(clippy::single_range_in_vec_init)]
        let mut groups: Vec<Range<usize>> = vec![0..rows.len()];
        for d in 0..arity {
            let mut vals = Vec::new();
            let mut next_groups = Vec::new();
            // Node-index boundary in `vals` where each group's nodes begin;
            // this is exactly the previous level's `child_start`.
            let mut group_node_start: Vec<u32> = Vec::with_capacity(groups.len() + 1);
            for g in &groups {
                group_node_start.push(vals.len() as u32);
                let mut i = g.start;
                while i < g.end {
                    let v = rows[i][d];
                    let mut j = i + 1;
                    while j < g.end && rows[j][d] == v {
                        j += 1;
                    }
                    vals.push(v);
                    next_groups.push(i..j);
                    i = j;
                }
            }
            group_node_start.push(vals.len() as u32);
            if d > 0 {
                levels[d - 1].child_start = group_node_start;
            }
            levels.push(TrieLevel {
                vals,
                child_start: Vec::new(),
                bits: None,
                summary: LevelSummary::default(),
            });
            groups = next_groups;
        }
        attach_bitsets(&mut levels, BITSET_MIN_NODES);
        attach_summaries(&mut levels, &mut Vec::new());

        Ok(Trie {
            attrs: order.to_vec(),
            levels,
            tuples: rows.len(),
        })
    }

    /// The attribute order of the trie's levels (root level first).
    pub fn attrs(&self) -> &[Attr] {
        &self.attrs
    }

    /// Number of levels (the relation's arity).
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Number of distinct tuples stored.
    pub fn num_tuples(&self) -> usize {
        self.tuples
    }

    /// Number of nodes at `level`.
    pub fn level_len(&self, level: usize) -> usize {
        self.levels[level].vals.len()
    }

    /// The sibling range of the root's children (all of level 0).
    pub fn root_range(&self) -> Range<u32> {
        if self.levels.is_empty() {
            0..0
        } else {
            0..self.levels[0].vals.len() as u32
        }
    }

    /// The child range (into `level + 1`) of node `node` at `level`.
    ///
    /// # Panics
    /// Panics if `level` is the deepest level.
    pub fn children(&self, level: usize, node: u32) -> Range<u32> {
        let l = &self.levels[level];
        assert!(
            !l.child_start.is_empty(),
            "children() on leaf level {level}"
        );
        l.child_start[node as usize]..l.child_start[node as usize + 1]
    }

    /// The values of the nodes in `range` at `level`, as a sorted slice.
    pub fn values(&self, level: usize, range: Range<u32>) -> &[ValueId] {
        &self.levels[level].vals[range.start as usize..range.end as usize]
    }

    /// The value of a single node.
    pub fn value(&self, level: usize, node: u32) -> ValueId {
        self.levels[level].vals[node as usize]
    }

    /// The cardinality summary of `level`, attached at build time (exact
    /// for this trie's contents).
    pub fn level_summary(&self, level: usize) -> LevelSummary {
        self.levels[level].summary
    }

    /// The physical [`LevelLayout`] of `level`.
    pub fn level_layout(&self, level: usize) -> LevelLayout {
        self.levels[level].layout()
    }

    /// The layout of every level, root level first.
    pub fn level_layouts(&self) -> Vec<LevelLayout> {
        self.levels.iter().map(TrieLevel::layout).collect()
    }

    /// Number of levels carrying the [`LevelLayout::Bitset`] layout.
    pub fn bitset_level_count(&self) -> usize {
        self.levels.iter().filter(|l| l.bits.is_some()).count()
    }

    /// The full value array and optional bitmap index of `level` — the raw
    /// view the leapfrog rotation resolves once per batch refill.
    pub(crate) fn level_view(&self, level: usize) -> (&[ValueId], Option<&LevelBits>) {
        let l = &self.levels[level];
        (&l.vals, l.bits.as_ref())
    }

    /// Materialises the trie back into a relation with attributes in trie
    /// order. Mostly used by tests to check the round-trip invariant.
    ///
    /// The walk is iterative (an explicit per-level cursor stack), so deep
    /// tries cannot overflow the call stack.
    pub fn to_relation(&self) -> Relation {
        let schema = Schema::new(self.attrs.iter().cloned()).expect("trie attrs are distinct");
        let mut rel = Relation::with_capacity(schema, self.tuples);
        if self.levels.is_empty() {
            for _ in 0..self.tuples {
                rel.push(&[]).expect("nullary push");
            }
            return rel;
        }
        let arity = self.arity();
        let mut prefix: Vec<ValueId> = Vec::with_capacity(arity);
        // cursors[d] = the sibling range still to visit at level d.
        let mut cursors: Vec<Range<u32>> = Vec::with_capacity(arity);
        cursors.push(self.root_range());
        while !cursors.is_empty() {
            let level = cursors.len() - 1;
            let range = cursors.last_mut().expect("non-empty stack");
            let Some(node) = range.next() else {
                cursors.pop();
                prefix.pop();
                continue;
            };
            prefix.truncate(level);
            prefix.push(self.value(level, node));
            if level + 1 == arity {
                rel.push(&prefix).expect("arity matches");
            } else {
                cursors.push(self.children(level, node));
            }
        }
        rel
    }

    /// Total number of trie nodes across all levels (a size metric used by
    /// benchmarks).
    pub fn node_count(&self) -> usize {
        self.levels.iter().map(|l| l.vals.len()).sum()
    }

    /// Approximate heap footprint in bytes (value, child-range, and bitmap
    /// index arrays; attribute names excluded). Trie caches charge entries
    /// against their byte budget using this estimate, so bitset layouts pay
    /// for their index space there too.
    pub fn estimated_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|l| {
                l.vals.len() * std::mem::size_of::<ValueId>()
                    + l.child_start.len() * std::mem::size_of::<u32>()
                    + l.bits.as_ref().map_or(0, LevelBits::bytes)
            })
            .sum()
    }
}

/// Validates that `order` is a permutation of `rel`'s schema and resolves
/// each order attribute to its column position.
fn check_order(rel: &Relation, order: &[Attr]) -> Result<Vec<usize>> {
    if order.len() != rel.arity() {
        return Err(RelError::InvalidOrder(format!(
            "trie order has {} attributes, relation has arity {}",
            order.len(),
            rel.arity()
        )));
    }
    let positions: Vec<usize> = order
        .iter()
        .map(|a| rel.schema().require(a))
        .collect::<Result<_>>()?;
    // Schema attributes are distinct, so a repeated order attribute maps to
    // a repeated position — which, with the length check above, would
    // silently drop some other column.
    for (i, p) in positions.iter().enumerate() {
        if positions[..i].contains(p) {
            return Err(RelError::InvalidOrder(format!(
                "duplicate attribute `{}` in trie order",
                order[i]
            )));
        }
    }
    Ok(positions)
}

/// An allocation-conscious columnar trie builder with reusable scratch
/// buffers.
///
/// One `build` performs **zero per-row allocations**:
///
/// 1. the relation's columns are scattered once, in the requested level
///    order, into a flat scratch buffer (`cols`, level-major);
/// 2. a `u32` row permutation is sorted by comparing those columns in
///    place — no per-key `Vec` is ever materialised. Three sort paths:
///    * **pre-sorted** — a linear pre-check detects input already sorted
///      under the requested order and skips sorting entirely (the common
///      case for tries rebuilt from `sort_dedup`ed relations);
///    * **radix** — when the value domain is *dense* relative to the row
///      count (`max_id < max(4·rows, 1024)` and at least 64 rows), an LSD
///      counting sort runs one stable O(rows + domain) pass per level,
///      beating comparison sorting by a wide margin on dictionary-encoded
///      data (ids are dense by construction);
///    * **comparison** — otherwise, `sort_unstable_by` over the permutation
///      comparing columns in place;
/// 3. duplicates are dropped and every level's `vals` / `child_start` arrays
///    are emitted by scanning prefix change-points over the permuted
///    columns directly — the sorted rows are never materialised.
///
/// The scratch buffers (`cols`, the permutation, the radix histogram, the
/// change-point array) persist across builds, so a builder that serves many
/// constructions — a query's plan assembly, an `xjoin-store` registry fill —
/// stops allocating once warm. [`Trie::build`] routes through a thread-local
/// instance; hold your own when you want [`TrieBuilder::last_stats`].
#[derive(Debug)]
pub struct TrieBuilder {
    /// Level-major column scratch: level `d` of the current build occupies
    /// `cols[d*n .. (d+1)*n]`.
    cols: Vec<ValueId>,
    /// Row permutation being sorted.
    perm: Vec<u32>,
    /// Double buffer for the radix scatter passes.
    perm_tmp: Vec<u32>,
    /// Radix histogram / prefix-sum buffer.
    counts: Vec<u32>,
    /// `diff[i]` = first level at which deduped rows `i` and `i+1` differ.
    diff: Vec<u32>,
    /// Sort buffer for the per-level distinct counts ([`attach_summaries`]).
    summary_scratch: Vec<ValueId>,
    /// Profile of the most recent build.
    last: Option<BuildStats>,
    /// Node-count threshold for the bitset layout; overridable (hidden) so
    /// tests can force bitsets on small inputs, or off entirely.
    bitset_min_nodes: usize,
}

impl Default for TrieBuilder {
    fn default() -> TrieBuilder {
        TrieBuilder {
            cols: Vec::new(),
            perm: Vec::new(),
            perm_tmp: Vec::new(),
            counts: Vec::new(),
            diff: Vec::new(),
            summary_scratch: Vec::new(),
            last: None,
            bitset_min_nodes: BITSET_MIN_NODES,
        }
    }
}

/// Minimum row count for the radix path; below this the histogram setup
/// costs more than a comparison sort of the tiny permutation.
const RADIX_MIN_ROWS: usize = 64;
/// Scratch buffers are released after a build when their capacity exceeds
/// this multiple of what the build actually needed (and the floor below):
/// one huge outlier build must not pin peak-sized scratch in every
/// long-lived builder (including the thread-local one) forever.
const SCRATCH_SLACK_FACTOR: usize = 4;
/// Capacity (in elements) scratch buffers may always keep, whatever the
/// current input size.
const SCRATCH_KEEP_FLOOR: usize = 1 << 16;
/// Domain slack allowed before radix is still considered dense: the
/// histogram may be up to `4·rows` wide (or 1024 for small inputs).
const RADIX_DOMAIN_FACTOR: usize = 4;
const RADIX_DOMAIN_FLOOR: usize = 1024;

impl TrieBuilder {
    /// A builder with empty scratch buffers.
    pub fn new() -> TrieBuilder {
        TrieBuilder::default()
    }

    /// Cost profile of the most recent [`TrieBuilder::build`] (`None` before
    /// the first build).
    pub fn last_stats(&self) -> Option<&BuildStats> {
        self.last.as_ref()
    }

    /// Overrides the node-count threshold above which dense levels get the
    /// bitset layout. Test-only: differential suites use a threshold of 1 to
    /// force bitsets onto small random inputs, and `usize::MAX` to build the
    /// plain sorted layout. Tries built with a non-default threshold compare
    /// unequal to reference-built ones.
    #[doc(hidden)]
    pub fn set_bitset_min_nodes(&mut self, min_nodes: usize) {
        self.bitset_min_nodes = min_nodes.max(1);
    }

    /// Builds a trie over `rel`'s distinct tuples with levels ordered by
    /// `order` — same contract and output as [`Trie::build`], reusing this
    /// builder's scratch buffers.
    pub fn build(&mut self, rel: &Relation, order: &[Attr]) -> Result<Trie> {
        let start = Instant::now();
        let arity = rel.arity();
        let positions = check_order(rel, order)?;

        if arity == 0 {
            let tuples = usize::from(!rel.is_empty());
            self.last = Some(BuildStats {
                rows_in: rel.len(),
                tuples,
                path: SortPath::AlreadySorted,
                layouts: Vec::new(),
                elapsed: start.elapsed(),
            });
            return Ok(Trie {
                attrs: Vec::new(),
                levels: Vec::new(),
                tuples,
            });
        }

        let n = rel.len();
        let max_id = self.scatter_columns(rel, &positions, n);
        let path = self.sort_permutation(arity, n, max_id);
        let tuples = self.dedup_and_diff(arity, n);
        let mut levels = self.emit_levels(arity, n, tuples);
        attach_bitsets(&mut levels, self.bitset_min_nodes);
        attach_summaries(&mut levels, &mut self.summary_scratch);
        self.trim_scratch(arity, n);

        self.last = Some(BuildStats {
            rows_in: n,
            tuples,
            path,
            layouts: levels.iter().map(TrieLevel::layout).collect(),
            elapsed: start.elapsed(),
        });
        Ok(Trie {
            attrs: order.to_vec(),
            levels,
            tuples,
        })
    }

    /// Scatters `rel`'s columns into the level-major scratch buffer and
    /// returns the largest value id seen (0 for an empty relation).
    fn scatter_columns(&mut self, rel: &Relation, positions: &[usize], n: usize) -> u32 {
        let arity = positions.len();
        self.cols.clear();
        self.cols.resize(arity * n, ValueId(0));
        let mut max_id = 0u32;
        for (i, row) in rel.rows().enumerate() {
            for (d, &p) in positions.iter().enumerate() {
                let v = row[p];
                max_id = max_id.max(v.0);
                self.cols[d * n + i] = v;
            }
        }
        max_id
    }

    /// Fills `perm` with a permutation of `0..n` sorted lexicographically by
    /// the scattered columns, choosing the cheapest applicable sort path.
    fn sort_permutation(&mut self, arity: usize, n: usize, max_id: u32) -> SortPath {
        self.perm.clear();
        self.perm.extend(0..n as u32);
        if self.input_is_sorted(arity, n) {
            return SortPath::AlreadySorted;
        }
        let domain = max_id as usize + 1;
        let dense_limit = (RADIX_DOMAIN_FACTOR * n).max(RADIX_DOMAIN_FLOOR);
        if n >= RADIX_MIN_ROWS && domain <= dense_limit {
            self.radix_sort(arity, n, domain);
            SortPath::Radix
        } else {
            let cols = &self.cols;
            self.perm.sort_unstable_by(|&x, &y| {
                for d in 0..arity {
                    match cols[d * n + x as usize].cmp(&cols[d * n + y as usize]) {
                        Ordering::Equal => continue,
                        other => return other,
                    }
                }
                Ordering::Equal
            });
            SortPath::Comparison
        }
    }

    /// Linear pre-check: is row `i-1 <= i` lexicographically for all rows
    /// under the scattered column order?
    fn input_is_sorted(&self, arity: usize, n: usize) -> bool {
        'rows: for i in 1..n {
            for d in 0..arity {
                let prev = self.cols[d * n + i - 1];
                let cur = self.cols[d * n + i];
                match prev.cmp(&cur) {
                    Ordering::Less => continue 'rows,
                    Ordering::Greater => return false,
                    Ordering::Equal => {}
                }
            }
            // Equal rows (duplicates) keep the input sorted.
        }
        true
    }

    /// Stable LSD counting sort of `perm`: one O(n + domain) pass per level,
    /// least-significant level first, so the final permutation is sorted
    /// lexicographically.
    fn radix_sort(&mut self, arity: usize, n: usize, domain: usize) {
        self.perm_tmp.clear();
        self.perm_tmp.resize(n, 0);
        for d in (0..arity).rev() {
            let col = &self.cols[d * n..(d + 1) * n];
            self.counts.clear();
            self.counts.resize(domain + 1, 0);
            for &r in &self.perm {
                self.counts[col[r as usize].0 as usize + 1] += 1;
            }
            for i in 1..=domain {
                self.counts[i] += self.counts[i - 1];
            }
            for &r in &self.perm {
                let v = col[r as usize].0 as usize;
                self.perm_tmp[self.counts[v] as usize] = r;
                self.counts[v] += 1;
            }
            std::mem::swap(&mut self.perm, &mut self.perm_tmp);
        }
    }

    /// Compacts `perm` to distinct tuples and records, for each surviving
    /// adjacent pair, the first level at which they differ. Returns the
    /// number of distinct tuples.
    fn dedup_and_diff(&mut self, arity: usize, n: usize) -> usize {
        self.diff.clear();
        if n == 0 {
            return 0;
        }
        let mut kept = 1usize;
        for i in 1..n {
            let prev = self.perm[kept - 1] as usize;
            let cur = self.perm[i] as usize;
            let mut first = arity;
            for d in 0..arity {
                if self.cols[d * n + prev] != self.cols[d * n + cur] {
                    first = d;
                    break;
                }
            }
            if first == arity {
                continue; // duplicate tuple
            }
            self.diff.push(first as u32);
            self.perm[kept] = cur as u32;
            kept += 1;
        }
        kept
    }

    /// Releases scratch capacity far in excess of what the build just done
    /// needed, so a single outlier build does not pin peak-sized buffers in
    /// a long-lived (e.g. thread-local) builder indefinitely. Within the
    /// slack bounds, capacity is kept — steady-state builds stay
    /// allocation-free.
    fn trim_scratch(&mut self, arity: usize, n: usize) {
        fn trim<T>(buf: &mut Vec<T>, needed: usize) {
            let keep = (needed * SCRATCH_SLACK_FACTOR).max(SCRATCH_KEEP_FLOOR);
            if buf.capacity() > keep {
                buf.shrink_to(keep);
            }
        }
        trim(&mut self.cols, arity * n);
        trim(&mut self.perm, n);
        trim(&mut self.perm_tmp, n);
        trim(&mut self.diff, n);
        trim(&mut self.summary_scratch, n);
        // The histogram is sized by the value domain, not the row count; its
        // own dense-domain bound is already ~4n, so trim it on the same
        // scale.
        trim(&mut self.counts, n);
    }

    /// Emits every level's `vals` and `child_start` by scanning the prefix
    /// change-points (`diff`) over the deduped permutation — the sorted rows
    /// are never materialised. `m` is the distinct-tuple count.
    fn emit_levels(&self, arity: usize, n: usize, m: usize) -> Vec<TrieLevel> {
        let mut levels: Vec<TrieLevel> = (0..arity)
            .map(|_| TrieLevel {
                vals: Vec::new(),
                child_start: Vec::new(),
                bits: None,
                summary: LevelSummary::default(),
            })
            .collect();
        for d in 0..arity {
            let col = &self.cols[d * n..(d + 1) * n];
            // A node starts at row i of level d iff the length-(d+1) prefix
            // changes there; a *parent* node starts iff the length-d prefix
            // changes, which is exactly where the previous level's
            // child_start boundaries go.
            let mut nodes_at_d: u32 = 0;
            let mut vals: Vec<ValueId> = Vec::new();
            let mut parent_starts: Vec<u32> = Vec::new();
            for i in 0..m {
                let first_diff = if i == 0 { 0 } else { self.diff[i - 1] as usize };
                if d > 0 && (i == 0 || first_diff < d) {
                    parent_starts.push(nodes_at_d);
                }
                if i == 0 || first_diff <= d {
                    vals.push(col[self.perm[i] as usize]);
                    nodes_at_d += 1;
                }
            }
            if d > 0 {
                parent_starts.push(nodes_at_d);
                levels[d - 1].child_start = parent_starts;
            }
            levels[d].vals = vals;
        }
        levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> ValueId {
        ValueId(i)
    }

    fn sample() -> Relation {
        // R(a, b) = {(1,4), (1,5), (3,5), (1,4) dup}
        Relation::from_rows(
            Schema::of(&["a", "b"]),
            [[v(1), v(4)], [v(1), v(5)], [v(3), v(5)], [v(1), v(4)]],
        )
        .unwrap()
    }

    #[test]
    fn build_groups_and_sorts() {
        let t = Trie::from_relation(&sample());
        assert_eq!(t.arity(), 2);
        assert_eq!(t.num_tuples(), 3);
        assert_eq!(t.values(0, t.root_range()), &[v(1), v(3)]);
        let c1 = t.children(0, 0);
        assert_eq!(t.values(1, c1), &[v(4), v(5)]);
        let c3 = t.children(0, 1);
        assert_eq!(t.values(1, c3), &[v(5)]);
    }

    #[test]
    fn level_summaries_are_exact() {
        // R(a, b) = {(1,4), (1,5), (3,5)}: level 0 has 2 nodes / 2 distinct,
        // level 1 has 3 nodes but only 2 distinct values (5 repeats).
        let t = Trie::from_relation(&sample());
        assert_eq!(
            t.level_summary(0),
            LevelSummary {
                nodes: 2,
                distinct: 2
            }
        );
        assert_eq!(
            t.level_summary(1),
            LevelSummary {
                nodes: 3,
                distinct: 2
            }
        );
        let r = Trie::build_reference(&sample(), &["a".into(), "b".into()]).unwrap();
        assert_eq!(r.level_summary(0), t.level_summary(0));
        assert_eq!(r.level_summary(1), t.level_summary(1));
    }

    #[test]
    fn build_respects_custom_order() {
        let t = Trie::build(&sample(), &["b".into(), "a".into()]).unwrap();
        assert_eq!(t.values(0, t.root_range()), &[v(4), v(5)]);
        let c4 = t.children(0, 0);
        assert_eq!(t.values(1, c4), &[v(1)]);
        let c5 = t.children(0, 1);
        assert_eq!(t.values(1, c5), &[v(1), v(3)]);
    }

    #[test]
    fn build_rejects_bad_orders() {
        let r = sample();
        assert!(Trie::build(&r, &["a".into()]).is_err());
        assert!(Trie::build(&r, &["a".into(), "zz".into()]).is_err());
        assert!(Trie::build_reference(&r, &["a".into()]).is_err());
        // A duplicated attribute would silently drop another column.
        assert!(Trie::build(&r, &["a".into(), "a".into()]).is_err());
        assert!(Trie::build_reference(&r, &["b".into(), "b".into()]).is_err());
    }

    #[test]
    fn builder_matches_reference_on_sample() {
        let r = sample();
        for order in [
            vec![Attr::new("a"), Attr::new("b")],
            vec![Attr::new("b"), Attr::new("a")],
        ] {
            let mut b = TrieBuilder::new();
            let fast = b.build(&r, &order).unwrap();
            let reference = Trie::build_reference(&r, &order).unwrap();
            assert_eq!(fast, reference);
        }
    }

    #[test]
    fn builder_reports_sort_paths() {
        let mut b = TrieBuilder::new();

        // Unsorted small input → comparison sort.
        b.build(&sample(), &[Attr::new("a"), Attr::new("b")])
            .unwrap();
        assert_eq!(b.last_stats().unwrap().path, SortPath::Comparison);
        assert_eq!(b.last_stats().unwrap().rows_in, 4);
        assert_eq!(b.last_stats().unwrap().tuples, 3);

        // Already sorted input → the sort is skipped.
        let mut sorted = sample();
        sorted.sort_dedup();
        b.build(&sorted, &[Attr::new("a"), Attr::new("b")]).unwrap();
        assert_eq!(b.last_stats().unwrap().path, SortPath::AlreadySorted);

        // Dense domain with enough rows → radix engages. 128 rows over a
        // domain of 8 values, written in descending order so the pre-check
        // fails.
        let mut dense = Relation::new(Schema::of(&["x", "y"]));
        for i in (0..128u32).rev() {
            dense.push(&[v(i % 8), v((i * 3) % 8)]).unwrap();
        }
        let t = b.build(&dense, &[Attr::new("x"), Attr::new("y")]).unwrap();
        assert_eq!(b.last_stats().unwrap().path, SortPath::Radix);
        assert_eq!(t, Trie::build_reference(&dense, t.attrs()).unwrap());
    }

    #[test]
    fn builder_scratch_survives_relation_shape_changes() {
        // One builder serving growing/shrinking arities and sizes must keep
        // producing reference-equal tries.
        let mut b = TrieBuilder::new();
        let r1 = sample();
        let r2 = Relation::from_rows(Schema::of(&["x"]), [[v(5)], [v(2)], [v(5)]]).unwrap();
        let mut r3 = Relation::new(Schema::of(&["p", "q", "r"]));
        for i in 0..100u32 {
            r3.push(&[v(i % 5), v(i % 7), v(i % 3)]).unwrap();
        }
        for _ in 0..2 {
            for r in [&r1, &r2, &r3] {
                let order = r.schema().attrs().to_vec();
                assert_eq!(
                    b.build(r, &order).unwrap(),
                    Trie::build_reference(r, &order).unwrap()
                );
            }
        }
    }

    #[test]
    fn outlier_builds_do_not_pin_peak_scratch() {
        let mut b = TrieBuilder::new();
        // A large build grows the column scratch well past the keep floor…
        let mut big = Relation::new(Schema::of(&["x", "y", "z"]));
        for i in 0..40_000u32 {
            big.push(&[v(i), v(i.wrapping_mul(7) % 1000), v(i % 17)])
                .unwrap();
        }
        b.build(&big, big.schema().attrs()).unwrap();
        assert!(b.cols.capacity() >= 120_000);
        // …and a subsequent tiny build releases the excess down to the
        // allowed slack.
        b.build(&sample(), &[Attr::new("a"), Attr::new("b")])
            .unwrap();
        assert!(b.cols.capacity() <= SCRATCH_KEEP_FLOOR * 2);
        assert!(b.perm.capacity() <= SCRATCH_KEEP_FLOOR * 2);
        // Correctness is unaffected after trimming.
        assert_eq!(
            b.build(&big, big.schema().attrs()).unwrap(),
            Trie::build_reference(&big, big.schema().attrs()).unwrap()
        );
    }

    #[test]
    fn to_relation_round_trips_sorted_distinct() {
        let r = sample();
        let t = Trie::from_relation(&r);
        let back = t.to_relation();
        let mut expect = r;
        expect.sort_dedup();
        assert_eq!(back, expect);
    }

    #[test]
    fn round_trip_under_permuted_order() {
        let r = sample();
        let t = Trie::build(&r, &["b".into(), "a".into()]).unwrap();
        let back = t.to_relation();
        let expect = r.project(&["b".into(), "a".into()]).unwrap();
        assert!(back.set_eq(&expect));
    }

    #[test]
    fn empty_relation_produces_empty_trie() {
        let r = Relation::new(Schema::of(&["a", "b"]));
        let t = Trie::from_relation(&r);
        assert_eq!(t.num_tuples(), 0);
        assert_eq!(t.root_range(), 0..0);
        assert!(t.to_relation().is_empty());
        assert_eq!(t, Trie::build_reference(&r, r.schema().attrs()).unwrap());
    }

    #[test]
    fn unary_trie() {
        let r = Relation::from_rows(Schema::of(&["x"]), [[v(5)], [v(2)], [v(5)]]).unwrap();
        let t = Trie::from_relation(&r);
        assert_eq!(t.arity(), 1);
        assert_eq!(t.num_tuples(), 2);
        assert_eq!(t.values(0, t.root_range()), &[v(2), v(5)]);
    }

    #[test]
    fn nullary_trie_tracks_presence() {
        let mut r = Relation::new(Schema::new(Vec::<&str>::new()).unwrap());
        let t0 = Trie::from_relation(&r);
        assert_eq!(t0.num_tuples(), 0);
        r.push(&[]).unwrap();
        let t1 = Trie::from_relation(&r);
        assert_eq!(t1.num_tuples(), 1);
    }

    #[test]
    fn node_count_counts_all_levels() {
        let t = Trie::from_relation(&sample());
        // level 0: values 1,3 -> 2 nodes; level 1: 4,5 under 1 and 5 under 3 -> 3 nodes.
        assert_eq!(t.node_count(), 5);
    }

    #[test]
    fn estimated_bytes_counts_vals_and_child_ranges() {
        let t = Trie::from_relation(&sample());
        // level 0: 2 vals + 3 child_start entries; level 1: 3 vals.
        assert_eq!(t.estimated_bytes(), (2 + 3 + 3) * 4);
        let empty = Trie::from_relation(&Relation::new(Schema::of(&["a"])));
        assert_eq!(empty.estimated_bytes(), 0);
    }

    #[test]
    fn dense_level_gets_bitset_layout() {
        // 200 consecutive unary values: 200 nodes spanning exactly 200 ids —
        // maximally dense, comfortably past BITSET_MIN_NODES.
        let mut r = Relation::new(Schema::of(&["x"]));
        for i in 0..200u32 {
            r.push(&[v(i)]).unwrap();
        }
        let t = Trie::from_relation(&r);
        assert_eq!(t.level_layout(0), LevelLayout::Bitset);
        assert_eq!(t.level_layouts(), vec![LevelLayout::Bitset]);
        assert_eq!(t.bitset_level_count(), 1);
        // The index is extra footprint on top of the value array.
        assert!(t.estimated_bytes() > 200 * 4);
        // Reference builder must attach the identical index.
        assert_eq!(t, Trie::build_reference(&r, r.schema().attrs()).unwrap());
    }

    #[test]
    fn sparse_level_stays_sorted_vec() {
        // 200 values spaced 100 apart: span 19901 > 8×200 — too sparse.
        let mut r = Relation::new(Schema::of(&["x"]));
        for i in 0..200u32 {
            r.push(&[v(i * 100)]).unwrap();
        }
        let t = Trie::from_relation(&r);
        assert_eq!(t.level_layout(0), LevelLayout::SortedVec);
        assert_eq!(t.bitset_level_count(), 0);
        assert_eq!(t.estimated_bytes(), 200 * 4);
    }

    #[test]
    fn small_level_stays_sorted_vec() {
        let t = Trie::from_relation(&sample());
        assert_eq!(
            t.level_layouts(),
            vec![LevelLayout::SortedVec, LevelLayout::SortedVec]
        );
    }

    #[test]
    fn builder_bitset_toggle_strips_index() {
        let mut r = Relation::new(Schema::of(&["x"]));
        for i in 0..200u32 {
            r.push(&[v(i)]).unwrap();
        }
        let mut b = TrieBuilder::new();
        b.set_bitset_min_nodes(usize::MAX);
        let t = b.build(&r, r.schema().attrs()).unwrap();
        assert_eq!(t.level_layout(0), LevelLayout::SortedVec);
        assert_eq!(t.estimated_bytes(), 200 * 4);
        assert_eq!(
            b.last_stats().unwrap().layouts,
            vec![LevelLayout::SortedVec]
        );
    }

    #[test]
    fn bitset_seek_matches_block_seek_on_every_group() {
        use crate::leapfrog::block_seek;
        // Two-level trie with bitsets forced on tiny sibling groups, so the
        // per-group base/rank arithmetic is exercised on non-root levels.
        let mut r = Relation::new(Schema::of(&["a", "b"]));
        for a in 0..12u32 {
            for b in 0..6u32 {
                r.push(&[v(a * 2), v(a + b * 3)]).unwrap();
            }
        }
        let mut builder = TrieBuilder::new();
        builder.set_bitset_min_nodes(1);
        let t = builder.build(&r, r.schema().attrs()).unwrap();
        assert_eq!(t.bitset_level_count(), 2);
        for level in 0..2usize {
            let bits = t.level_view(level).1.expect("forced bitset");
            let groups: Vec<std::ops::Range<u32>> = if level == 0 {
                vec![t.root_range()]
            } else {
                (0..t.level_len(0) as u32)
                    .map(|n| t.children(0, n))
                    .collect()
            };
            for (g, range) in groups.iter().enumerate() {
                let slice = t.values(level, range.clone());
                for target in 0..40u32 {
                    let want = range.start + block_seek(slice, 0, v(target)) as u32;
                    let (lo, hi) = (range.start, range.end);
                    let got = bits.seek::<false>(g as u32, lo, lo, hi, v(target), &mut 0);
                    assert_eq!(got, want, "level {level} group {g} target {target}");
                }
            }
        }
    }

    #[test]
    fn three_level_trie_structure() {
        let r = Relation::from_rows(
            Schema::of(&["a", "b", "c"]),
            [
                [v(1), v(1), v(1)],
                [v(1), v(1), v(2)],
                [v(1), v(2), v(1)],
                [v(2), v(1), v(1)],
            ],
        )
        .unwrap();
        let t = Trie::from_relation(&r);
        assert_eq!(t.values(0, t.root_range()), &[v(1), v(2)]);
        let b_under_1 = t.children(0, 0);
        assert_eq!(t.values(1, b_under_1.clone()), &[v(1), v(2)]);
        let c_under_11 = t.children(1, b_under_1.start);
        assert_eq!(t.values(2, c_under_11), &[v(1), v(2)]);
        assert_eq!(t.num_tuples(), 4);
    }

    #[test]
    #[should_panic(expected = "children() on leaf level")]
    fn children_on_leaf_level_panics() {
        let t = Trie::from_relation(&sample());
        // Level 1 is the deepest level of the binary sample; asking for its
        // children must panic with a clear message, not index garbage.
        let _ = t.children(1, 0);
    }

    #[test]
    fn deep_trie_round_trips_iteratively() {
        // A 12-level trie with branching; the iterative walk must reproduce
        // the sorted distinct rows exactly.
        let names: Vec<String> = (0..12).map(|i| format!("a{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let mut r = Relation::new(Schema::of(&name_refs));
        let mut buf = [ValueId(0); 12];
        for row in 0..40u32 {
            for (d, slot) in buf.iter_mut().enumerate() {
                *slot = v((row * 7 + d as u32 * 3) % 4);
            }
            r.push(&buf).unwrap();
        }
        let t = Trie::from_relation(&r);
        let mut expect = r;
        expect.sort_dedup();
        assert_eq!(t.to_relation(), expect);
    }
}
