//! Leapfrog Triejoin (Veldhuizen 2012): a streaming, depth-first worst-case
//! optimal join.
//!
//! Unlike the level-wise engine in [`crate::generic`], LFTJ never
//! materialises intermediates: it walks all atom tries in lockstep,
//! performing a leapfrog intersection per variable and backtracking on
//! failure. Results are delivered in lexicographic order of the plan's
//! variable order.
//!
//! Two consumption styles are offered:
//!
//! * **pull** — [`LftjWalk`] owns its [`JoinPlan`] (tries are shared
//!   `Arc`s, so the plan is cheap to clone) and yields one tuple per
//!   [`LftjWalk::next_tuple`] call. Abandoning the walk after `k` tuples
//!   does strictly less work than full enumeration — this is the substrate
//!   for `LIMIT` pushdown in the multi-model `Rows` iterator;
//! * **push** — [`lftj_foreach_until`] drives a callback that can stop the
//!   walk by returning [`ControlFlow::Break`] ([`lftj_foreach`] is the
//!   never-stopping wrapper).

use crate::error::Result;
use crate::leapfrog::{block_seek, block_seek_counted, gallop, gallop_counted};
use crate::plan::{JoinPlan, Ladder, VarPlan};
use crate::relation::Relation;
use crate::schema::{Attr, Schema};
use crate::stats::LevelProbeStats;
use crate::trie::{LevelBits, Trie};
use crate::value::ValueId;
use std::ops::ControlFlow;

/// Which probe kernel drives a [`LftjWalk`]'s per-variable intersections.
///
/// Both kernels produce identical results (the differential probe suites
/// prove it); they differ in how much work each `advance` amortises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbeKernel {
    /// One value per advance; every key access resolves through the tries
    /// and seeks are scalar gallops. Kept verbatim as the reference
    /// implementation and the benchmark baseline.
    Scalar,
    /// Batch-at-a-time (MonetDB/X100 style): each refill resolves every
    /// participant's level slice once, then runs the leapfrog rotation over
    /// raw slices — with [`crate::leapfrog::block_seek`] or the level's
    /// bitmap index for seeks — buffering a small vector of matched values
    /// and their per-atom node positions. The default.
    #[default]
    Block,
}

/// Matches buffered per [`LevelState`] refill under [`ProbeKernel::Block`].
const PROBE_BATCH: usize = 32;
/// Participant count up to which the per-refill level views live on the
/// stack (joins rarely exceed a handful of atoms per variable).
const MAX_INLINE_VIEWS: usize = 8;
/// Sentinel node index recorded on the per-atom node stacks for physical
/// runs of a layered atom that do not contain the bound prefix. Opening the
/// next level skips such runs entirely. (Real node indices never reach
/// `u32::MAX`: a trie level with 2³² nodes is unrepresentable here anyway.)
const ABSENT: u32 = u32::MAX;

/// A per-refill snapshot of one cursor's trie level: the full value array
/// plus the optional bitmap index, resolved once instead of per key access.
#[derive(Clone, Copy)]
struct LevelView<'a> {
    vals: &'a [ValueId],
    bits: Option<&'a LevelBits>,
}

const EMPTY_VIEW: LevelView<'static> = LevelView {
    vals: &[],
    bits: None,
};

impl<'a> LevelView<'a> {
    fn of(trie: &'a Trie, level: usize) -> LevelView<'a> {
        let (vals, bits) = trie.level_view(level);
        LevelView { vals, bits }
    }
}

/// An owned cursor over one contiguous sibling range of a trie level.
///
/// Unlike [`crate::leapfrog::SliceCursor`], positions are absolute node
/// indices resolved against the tries on each access, so the cursor borrows
/// nothing — which is what lets [`LftjWalk`] own its plan and hand out
/// tuples across calls.
#[derive(Debug, Clone)]
struct RangeCursor {
    atom: usize,
    level: usize,
    /// Which physical run of the atom this cursor walks: 0 is the base trie,
    /// `r >= 1` is delta run `r - 1` (see [`JoinPlan::run_trie`]). Always 0
    /// for solid atoms; non-zero only when a layered atom's union view
    /// degenerated to a single live run under the bound prefix.
    run: u32,
    hi: u32,
    pos: u32,
    /// Sibling-group id for the level's bitmap index: the parent node index
    /// at `level - 1`, or 0 at level 0 (one group spans the root level).
    group: u32,
    /// Absolute node index where the group begins, anchoring bitmap ranks
    /// to node positions.
    group_start: u32,
}

impl RangeCursor {
    #[inline]
    fn at_end(&self) -> bool {
        self.pos >= self.hi
    }

    #[inline]
    fn key(&self, plan: &JoinPlan) -> ValueId {
        plan.run_trie(self.atom, self.run as usize)
            .value(self.level, self.pos)
    }

    #[inline]
    fn next(&mut self) {
        self.pos += 1;
    }

    /// Seeks forward to the first node with value `>= target` — the scalar
    /// reference path, kept on plain galloping. With `TRACK` the gallop's
    /// probe steps land in `stats`; the `TRACK = false` instantiation
    /// compiles down to the untracked seek.
    fn seek<const TRACK: bool>(
        &mut self,
        plan: &JoinPlan,
        target: ValueId,
        stats: &mut LevelProbeStats,
    ) {
        let slice = plan
            .run_trie(self.atom, self.run as usize)
            .values(self.level, self.pos..self.hi);
        if TRACK {
            let (pos, steps) = gallop_counted(slice, 0, target);
            self.pos += pos as u32;
            stats.seeks += 1;
            stats.seek_steps += steps;
        } else {
            self.pos += gallop(slice, 0, target) as u32;
        }
    }

    /// Seek against a resolved [`LevelView`]: the level's bitmap index when
    /// it has one, block-wise galloping over the sibling slice otherwise.
    #[inline]
    fn seek_view<const TRACK: bool>(
        &mut self,
        view: &LevelView<'_>,
        target: ValueId,
        stats: &mut LevelProbeStats,
    ) {
        self.pos = match view.bits {
            Some(bits) => {
                if TRACK {
                    let (pos, words) =
                        bits.seek_counted(self.group, self.group_start, self.pos, self.hi, target);
                    stats.seeks += 1;
                    stats.bitset_words += words;
                    pos
                } else {
                    bits.seek(self.group, self.group_start, self.pos, self.hi, target)
                }
            }
            None => {
                let slice = &view.vals[self.pos as usize..self.hi as usize];
                if TRACK {
                    let (pos, steps) = block_seek_counted(slice, 0, target);
                    stats.seeks += 1;
                    stats.seek_steps += steps;
                    self.pos + pos as u32
                } else {
                    self.pos + block_seek(slice, 0, target) as u32
                }
            }
        };
    }
}

/// One physical run's slice of a layered atom's union view: the sibling
/// range of that run under the bound prefix.
#[derive(Debug, Clone)]
struct SubCursor {
    /// Physical run index (0 = base, `r >= 1` = delta run `r - 1`).
    run: u32,
    hi: u32,
    pos: u32,
    /// Sibling-group bookkeeping, carried so a union that degenerates to one
    /// live run can be downgraded to a plain [`RangeCursor`] (which may use
    /// the level's bitmap index).
    group: u32,
    group_start: u32,
}

/// The lazily-merged union of a layered atom's live runs at one trie level.
///
/// Exposes the same leapfrog `key / next / seek` contract as
/// [`RangeCursor`], so the per-variable rotation intersects union views and
/// solid cursors without caring which is which. `key` is the cached minimum
/// over the live runs' current values; `next` advances *every* run sitting
/// at that minimum (which is what deduplicates tuples present in several
/// layers); `seek` forwards the gallop to each lagging run. The merged
/// sequence is therefore sorted and duplicate-free — exactly a sorted trie
/// level — so the walk on top keeps its worst-case optimality argument.
#[derive(Debug, Clone)]
struct UnionCursor {
    atom: usize,
    level: usize,
    subs: Vec<SubCursor>,
    /// Cached minimum key across live subs; valid iff `!ended`.
    cur: ValueId,
    ended: bool,
}

impl UnionCursor {
    fn new(atom: usize, level: usize, subs: Vec<SubCursor>, plan: &JoinPlan) -> UnionCursor {
        let mut u = UnionCursor {
            atom,
            level,
            subs,
            cur: ValueId(0),
            ended: false,
        };
        u.refresh(plan);
        u
    }

    /// Recomputes the cached minimum; marks the union ended when every run
    /// is exhausted (terminal — a union never revives).
    fn refresh(&mut self, plan: &JoinPlan) {
        let mut min: Option<ValueId> = None;
        for s in &self.subs {
            if s.pos < s.hi {
                let v = plan
                    .run_trie(self.atom, s.run as usize)
                    .value(self.level, s.pos);
                min = Some(match min {
                    Some(m) if m <= v => m,
                    _ => v,
                });
            }
        }
        match min {
            Some(v) => self.cur = v,
            None => self.ended = true,
        }
    }

    #[inline]
    fn at_end(&self) -> bool {
        self.ended
    }

    #[inline]
    fn key(&self) -> ValueId {
        self.cur
    }

    /// Steps past the current minimum: every run parked on it advances, so
    /// each distinct value is emitted exactly once.
    fn next(&mut self, plan: &JoinPlan) {
        let cur = self.cur;
        for s in &mut self.subs {
            if s.pos < s.hi
                && plan
                    .run_trie(self.atom, s.run as usize)
                    .value(self.level, s.pos)
                    == cur
            {
                s.pos += 1;
            }
        }
        self.refresh(plan);
    }

    /// Forwards every lagging run to its first value `>= target` (one
    /// gallop per run), then re-derives the minimum.
    fn seek<const TRACK: bool>(
        &mut self,
        plan: &JoinPlan,
        target: ValueId,
        stats: &mut LevelProbeStats,
    ) {
        if TRACK {
            stats.seeks += 1;
        }
        for s in &mut self.subs {
            if s.pos < s.hi {
                let trie = plan.run_trie(self.atom, s.run as usize);
                if trie.value(self.level, s.pos) < target {
                    let slice = trie.values(self.level, s.pos..s.hi);
                    if TRACK {
                        let (pos, steps) = gallop_counted(slice, 0, target);
                        s.pos += pos as u32;
                        stats.seek_steps += steps;
                    } else {
                        s.pos += gallop(slice, 0, target) as u32;
                    }
                }
            }
        }
        self.refresh(plan);
    }

    /// Appends, for each of the atom's `nruns` physical runs in order, the
    /// node index matched at the current key — or [`ABSENT`] for runs not
    /// containing it. Only valid while parked at an emitted match.
    fn push_match_nodes(&self, plan: &JoinPlan, nruns: usize, out: &mut Vec<u32>) {
        for r in 0..nruns {
            let pos = self
                .subs
                .iter()
                .find(|s| s.run as usize == r && s.pos < s.hi)
                .filter(|s| plan.run_trie(self.atom, r).value(self.level, s.pos) == self.cur)
                .map(|s| s.pos)
                .unwrap_or(ABSENT);
            out.push(pos);
        }
    }
}

/// A level participant: either a single physical trie range (the fast,
/// overwhelmingly common case) or a live multi-run union view.
#[derive(Debug, Clone)]
enum Cursor {
    Solid(RangeCursor),
    Union(UnionCursor),
}

impl Cursor {
    #[inline]
    fn at_end(&self) -> bool {
        match self {
            Cursor::Solid(c) => c.at_end(),
            Cursor::Union(u) => u.at_end(),
        }
    }

    #[inline]
    fn key(&self, plan: &JoinPlan) -> ValueId {
        match self {
            Cursor::Solid(c) => c.key(plan),
            Cursor::Union(u) => u.key(),
        }
    }

    #[inline]
    fn next(&mut self, plan: &JoinPlan) {
        match self {
            Cursor::Solid(c) => c.next(),
            Cursor::Union(u) => u.next(plan),
        }
    }

    #[inline]
    fn seek<const TRACK: bool>(
        &mut self,
        plan: &JoinPlan,
        target: ValueId,
        stats: &mut LevelProbeStats,
    ) {
        match self {
            Cursor::Solid(c) => c.seek::<TRACK>(plan, target, stats),
            Cursor::Union(u) => u.seek::<TRACK>(plan, target, stats),
        }
    }

    /// Appends the `nruns` per-run node indices of the current match.
    fn push_match_nodes(&self, plan: &JoinPlan, nruns: usize, out: &mut Vec<u32>) {
        match self {
            Cursor::Solid(c) => {
                for r in 0..nruns {
                    out.push(if r == c.run as usize { c.pos } else { ABSENT });
                }
            }
            Cursor::Union(u) => u.push_match_nodes(plan, nruns, out),
        }
    }
}

/// The participants of one open level, split by shape so the all-solid fast
/// paths stay monomorphic.
#[derive(Debug)]
enum LevelCursors {
    /// Every participant resolved to exactly one physical run — either all
    /// atoms are solid, or each layered atom had a single run alive under
    /// the bound prefix (downgraded at [`LftjWalk::open_level`]). Runs the
    /// unchanged scalar / block kernels.
    Solid(Vec<RangeCursor>),
    /// At least one participant is a live multi-run union view; the level
    /// runs the union-aware rotation (one match per advance, gallop seeks).
    Mixed(Vec<Cursor>),
}

/// Resumable leapfrog intersection state for one variable: the cursors of
/// every participating atom plus the rotation bookkeeping of the classic
/// algorithm, restartable between [`LevelState::advance`] calls.
///
/// This mirrors [`crate::leapfrog::leapfrog_foreach_until`]'s rotation
/// (prime → emit at agreement → step the emitter → seek the rest) but over
/// owned index cursors, which is what makes the walk resumable across
/// calls. The two cores are kept honest against each other by the engine
/// equivalence suites (LFTJ vs the level-wise join on random instances).
#[derive(Debug)]
struct LevelState {
    cursors: LevelCursors,
    /// Cursor indices in ascending-key rotation order (filled on priming).
    rot: Vec<usize>,
    p: usize,
    max: ValueId,
    primed: bool,
    exhausted: bool,
    /// Whether this level's current match is bound onto the walk's prefix.
    bound: bool,
    /// Matched values buffered by the block kernel, drained in order.
    batch: Vec<ValueId>,
    /// Per match, the `k` cursor node positions at the agreement —
    /// `batch_pos[m*k .. (m+1)*k]` belongs to `batch[m]`.
    batch_pos: Vec<u32>,
    /// Index of the batch entry currently served.
    batch_idx: usize,
}

impl LevelState {
    fn new(cursors: LevelCursors) -> LevelState {
        let exhausted = match &cursors {
            LevelCursors::Solid(cs) => cs.iter().any(RangeCursor::at_end),
            LevelCursors::Mixed(cs) => cs.iter().any(Cursor::at_end),
        };
        LevelState {
            cursors,
            rot: Vec::new(),
            p: 0,
            max: ValueId(0),
            primed: false,
            exhausted,
            bound: false,
            batch: Vec::new(),
            batch_pos: Vec::new(),
            batch_idx: 0,
        }
    }

    /// Yields the next value present in every cursor; on `Some(v)` the
    /// per-cursor match positions are readable via
    /// [`LevelState::push_match_nodes`]. `TRACK` selects the probe-counting
    /// instantiation; with `TRACK = false` every counter touch compiles away
    /// and `stats` is untouched.
    ///
    /// Mixed (union-carrying) levels always run the union-aware scalar
    /// rotation regardless of `kernel`: batching buys nothing once key
    /// accesses go through a union view, and with the single-live-run
    /// downgrade in [`LftjWalk::open_level`] mixed levels are confined to
    /// the prefixes a delta actually overlaps.
    fn advance<const TRACK: bool>(
        &mut self,
        plan: &JoinPlan,
        kernel: ProbeKernel,
        stats: &mut LevelProbeStats,
    ) -> Option<ValueId> {
        match (&self.cursors, kernel) {
            (LevelCursors::Mixed(_), _) => self.advance_mixed::<TRACK>(plan, stats),
            (LevelCursors::Solid(_), ProbeKernel::Scalar) => {
                self.advance_scalar::<TRACK>(plan, stats)
            }
            (LevelCursors::Solid(_), ProbeKernel::Block) => {
                self.advance_block::<TRACK>(plan, stats)
            }
        }
    }

    /// Appends participant `c`'s node position(s) at the currently served
    /// match onto `out` — one entry per physical run of the atom (`nruns`),
    /// with [`ABSENT`] for runs not containing the match. For solid atoms
    /// (`nruns == 1`) this pushes exactly the single matched node, read from
    /// the buffered batch under the block kernel or the parked cursor
    /// otherwise.
    fn push_match_nodes(&self, c: usize, nruns: usize, plan: &JoinPlan, out: &mut Vec<u32>) {
        match &self.cursors {
            LevelCursors::Solid(cursors) => {
                let pos = if self.batch_idx < self.batch.len() {
                    self.batch_pos[self.batch_idx * cursors.len() + c]
                } else {
                    cursors[c].pos
                };
                if nruns == 1 {
                    out.push(pos);
                } else {
                    let run = cursors[c].run as usize;
                    for r in 0..nruns {
                        out.push(if r == run { pos } else { ABSENT });
                    }
                }
            }
            LevelCursors::Mixed(cursors) => cursors[c].push_match_nodes(plan, nruns, out),
        }
    }

    /// The union-aware rotation: structurally the scalar kernel, but over
    /// [`Cursor`]s so layered participants intersect through their lazily
    /// merged views. One match per call; cursors park at the agreement so
    /// [`LevelState::push_match_nodes`] can read per-run positions.
    fn advance_mixed<const TRACK: bool>(
        &mut self,
        plan: &JoinPlan,
        stats: &mut LevelProbeStats,
    ) -> Option<ValueId> {
        if self.exhausted {
            return None;
        }
        let LevelCursors::Mixed(cursors) = &mut self.cursors else {
            unreachable!("advance_mixed on a solid level");
        };
        let k = cursors.len();
        if !self.primed {
            self.primed = true;
            self.rot.clear();
            self.rot.extend(0..k);
            self.rot.sort_by_key(|&i| cursors[i].key(plan));
            self.p = 0;
            self.max = cursors[self.rot[k - 1]].key(plan);
        } else {
            let i = self.rot[self.p];
            cursors[i].next(plan);
            if cursors[i].at_end() {
                self.exhausted = true;
                return None;
            }
            self.max = cursors[i].key(plan);
            self.p = (self.p + 1) % k;
        }
        loop {
            let i = self.rot[self.p];
            let x = cursors[i].key(plan);
            if x == self.max {
                return Some(x);
            }
            cursors[i].seek::<TRACK>(plan, self.max, stats);
            if cursors[i].at_end() {
                self.exhausted = true;
                return None;
            }
            self.max = cursors[i].key(plan);
            self.p = (self.p + 1) % k;
        }
    }

    /// The scalar reference kernel: one match per call, cursors parked at
    /// the agreement, `p` staying put so the next call steps the emitter.
    fn advance_scalar<const TRACK: bool>(
        &mut self,
        plan: &JoinPlan,
        stats: &mut LevelProbeStats,
    ) -> Option<ValueId> {
        if self.exhausted {
            return None;
        }
        let LevelCursors::Solid(cursors) = &mut self.cursors else {
            unreachable!("scalar kernel on a mixed level");
        };
        let k = cursors.len();
        if !self.primed {
            self.primed = true;
            self.rot = (0..k).collect();
            self.rot.sort_by_key(|&i| cursors[i].key(plan));
            self.p = 0;
            self.max = cursors[self.rot[k - 1]].key(plan);
        } else {
            // Resume after an emitted match: step the cursor that emitted it.
            let i = self.rot[self.p];
            cursors[i].next();
            if cursors[i].at_end() {
                self.exhausted = true;
                return None;
            }
            self.max = cursors[i].key(plan);
            self.p = (self.p + 1) % k;
        }
        loop {
            let i = self.rot[self.p];
            let x = cursors[i].key(plan);
            if x == self.max {
                // All k cursors agree on x; `p` stays put so the next
                // `advance` steps this cursor past the match.
                return Some(x);
            }
            cursors[i].seek::<TRACK>(plan, self.max, stats);
            if cursors[i].at_end() {
                self.exhausted = true;
                return None;
            }
            self.max = cursors[i].key(plan);
            self.p = (self.p + 1) % k;
        }
    }

    /// The batch-at-a-time kernel: serves buffered matches until the batch
    /// runs dry, then refills up to [`PROBE_BATCH`] matches in one rotation
    /// run over per-level views resolved once.
    fn advance_block<const TRACK: bool>(
        &mut self,
        plan: &JoinPlan,
        stats: &mut LevelProbeStats,
    ) -> Option<ValueId> {
        if self.batch_idx + 1 < self.batch.len() {
            self.batch_idx += 1;
            return Some(self.batch[self.batch_idx]);
        }
        if self.exhausted {
            return None;
        }
        self.refill::<TRACK>(plan, stats);
        self.batch_idx = 0;
        self.batch.first().copied()
    }

    /// Runs the leapfrog rotation over resolved [`LevelView`]s, buffering
    /// matched values and their cursor positions. Stops when the batch is
    /// full or some cursor exhausts its range (which ends the level: the
    /// batch may still hold matches to serve, but no refill will follow).
    fn refill<const TRACK: bool>(&mut self, plan: &JoinPlan, stats: &mut LevelProbeStats) {
        if TRACK {
            stats.refills += 1;
        }
        self.batch.clear();
        self.batch_pos.clear();
        let LevelCursors::Solid(cursors) = &mut self.cursors else {
            unreachable!("block refill on a mixed level");
        };
        let k = cursors.len();
        let mut inline = [EMPTY_VIEW; MAX_INLINE_VIEWS];
        let heap: Vec<LevelView<'_>>;
        let views: &[LevelView<'_>] = if k <= MAX_INLINE_VIEWS {
            for (slot, c) in inline.iter_mut().zip(cursors.iter()) {
                *slot = LevelView::of(plan.run_trie(c.atom, c.run as usize), c.level);
            }
            &inline[..k]
        } else {
            heap = cursors
                .iter()
                .map(|c| LevelView::of(plan.run_trie(c.atom, c.run as usize), c.level))
                .collect();
            &heap
        };
        if k == 1 {
            // Single participant: the intersection is the range itself —
            // bulk-copy a batch of values and positions.
            let c = &mut cursors[0];
            let take = (c.hi - c.pos).min(PROBE_BATCH as u32);
            if take == 0 {
                self.exhausted = true;
                return;
            }
            self.batch
                .extend_from_slice(&views[0].vals[c.pos as usize..(c.pos + take) as usize]);
            self.batch_pos.extend(c.pos..c.pos + take);
            c.pos += take;
            return;
        }
        if !self.primed {
            self.primed = true;
            self.rot.clear();
            self.rot.extend(0..k);
            let sorted_cursors = &*cursors;
            self.rot
                .sort_by_key(|&i| views[i].vals[sorted_cursors[i].pos as usize]);
            self.p = 0;
            let last = self.rot[k - 1];
            self.max = views[last].vals[cursors[last].pos as usize];
        }
        loop {
            let i = self.rot[self.p];
            let x = views[i].vals[cursors[i].pos as usize];
            if x == self.max {
                // All k cursors agree on x (the rotation invariant): record
                // the match and immediately step the emitter past it — the
                // bound positions live in `batch_pos`, not the cursors.
                self.batch.push(x);
                for c in cursors.iter() {
                    self.batch_pos.push(c.pos);
                }
                let pos = cursors[i].pos + 1;
                cursors[i].pos = pos;
                if pos >= cursors[i].hi {
                    self.exhausted = true;
                    return;
                }
                self.max = views[i].vals[pos as usize];
                self.p = (self.p + 1) % k;
                if self.batch.len() >= PROBE_BATCH {
                    return;
                }
            } else {
                cursors[i].seek_view::<TRACK>(&views[i], self.max, stats);
                if cursors[i].at_end() {
                    self.exhausted = true;
                    return;
                }
                self.max = views[i].vals[cursors[i].pos as usize];
                self.p = (self.p + 1) % k;
            }
        }
    }
}

/// A pull-based depth-first LFTJ walk over a join plan.
///
/// The walk owns its plan (tries are `Arc`-shared, so construction from a
/// borrowed plan is a cheap clone) and yields result tuples one
/// [`LftjWalk::next_tuple`] call at a time, in lexicographic order of the
/// plan's variable order. Dropping the walk after `k` tuples abandons the
/// remaining search space — [`LftjWalk::bindings`] exposes how many variable
/// bindings were actually made, which early termination provably shrinks.
///
/// # Adaptive ordering
///
/// When the plan carries a [`Ladder`] ([`JoinPlan::with_ladder`]), the walk
/// defers level ordering to runtime: at every depth past the root it scores
/// each *admissible* unbound variable with the ladder rung and opens the
/// cheapest one, so different prefixes of one query may bind the remaining
/// variables in different orders (the fail-fast answer to skew). A variable
/// is admissible when every atom containing it has bound exactly the trie
/// levels above it — each atom's trie is leveled once, so the walk rotates
/// between *branches* of the plan rather than re-leveling anything.
///
/// The root variable stays pinned to the plan's first variable. Scoring it
/// too would change which choices count as deviations from the static
/// schedule, and so the reported [`LftjWalk::reorders`]; choosing the root
/// adaptively is an ordering-policy change of its own. Yielded tuples are laid out per [`LftjWalk::order`] regardless of the
/// binding order actually taken; only the *sequence* of tuples may differ
/// from the static walk (it is no longer globally lexicographic past the
/// first column).
#[derive(Debug)]
pub struct LftjWalk {
    plan: JoinPlan,
    /// The probe kernel driving every level's intersection.
    kernel: ProbeKernel,
    /// Open levels, one [`LevelState`] per currently-entered variable.
    levels: Vec<LevelState>,
    /// Per-atom stack of bound node indices (absolute within each level).
    nodes: Vec<Vec<u32>>,
    prefix: Vec<ValueId>,
    started: bool,
    done: bool,
    bindings: u64,
    /// Whether the walk runs the probe-counting instantiation.
    track: bool,
    /// Per-level probe counters, one slot per plan variable (all zero unless
    /// [`LftjWalk::with_probe_counters`] opted in). Adaptive walks index
    /// these by the *chosen variable*, not the depth, so the slots line up
    /// with [`LftjWalk::order`] in both modes.
    probe: Vec<LevelProbeStats>,
    /// Runtime-adaptive ordering rung, copied from the plan's ladder.
    adaptive: Option<Ladder>,
    /// `depth_to_var[d]` = plan-variable index bound at walk depth `d`
    /// (always the identity for static walks).
    depth_to_var: Vec<usize>,
    /// Whether each plan variable currently has an open level.
    var_open: Vec<bool>,
    /// Adaptive-mode result buffer permuted to plan order.
    out: Vec<ValueId>,
    /// Candidate scratch for adaptive choices (reused across levels).
    cand: Vec<usize>,
    /// Per-variable `(rows, distinct)` ladder terms. Both are functions of
    /// the tries alone — not of the bound prefix — so they are computed once
    /// here instead of on every descent (empty for static walks).
    static_scores: Vec<(u64, u64)>,
    /// Adaptive choices that deviated from the static schedule (picked a
    /// variable other than the first admissible one in plan order).
    reorders: u64,
    /// Candidate-variable estimates computed by adaptive choices.
    estimate_probes: u64,
    /// TRACK-only: `nvars × nvars` histogram; row `d`, column `v` counts
    /// how often variable `v` was opened at depth `d`.
    choice_hist: Vec<u64>,
    /// TRACK-only: per-variable sum of refined (sibling-span) estimates at
    /// choice time — the denominator of estimate-vs-actual error.
    est_bindings: Vec<u64>,
}

impl LftjWalk {
    /// Creates a walk over `plan` with the default (block) probe kernel. No
    /// work happens until the first [`LftjWalk::next_tuple`] call.
    pub fn new(plan: JoinPlan) -> LftjWalk {
        Self::with_kernel(plan, ProbeKernel::default())
    }

    /// Creates a walk driven by an explicit [`ProbeKernel`]. Differential
    /// suites pin the kernel; everything else takes the default.
    pub fn with_kernel(plan: JoinPlan, kernel: ProbeKernel) -> LftjWalk {
        let natoms = plan.tries().len();
        let nvars = plan.var_plans().len();
        let adaptive = plan.ladder();
        let static_scores = if adaptive.is_some() {
            plan.var_plans()
                .iter()
                .map(|vp| {
                    let rows = vp
                        .participants
                        .iter()
                        .map(|part| {
                            (0..plan.runs(part.atom))
                                .map(|r| plan.run_trie(part.atom, r).num_tuples() as u64)
                                .sum::<u64>()
                        })
                        .min()
                        .unwrap_or(0);
                    let distinct = vp
                        .participants
                        .iter()
                        .map(|part| {
                            (0..plan.runs(part.atom))
                                .map(|r| {
                                    plan.run_trie(part.atom, r)
                                        .level_summary(part.level)
                                        .distinct
                                })
                                .sum::<u64>()
                        })
                        .min()
                        .unwrap_or(0);
                    (rows, distinct)
                })
                .collect()
        } else {
            Vec::new()
        };
        LftjWalk {
            plan,
            kernel,
            levels: Vec::new(),
            nodes: vec![Vec::new(); natoms],
            prefix: Vec::new(),
            started: false,
            done: false,
            bindings: 0,
            track: false,
            probe: vec![LevelProbeStats::default(); nvars],
            adaptive,
            depth_to_var: Vec::with_capacity(nvars),
            var_open: vec![false; nvars],
            out: if adaptive.is_some() {
                vec![ValueId(0); nvars]
            } else {
                Vec::new()
            },
            cand: Vec::new(),
            static_scores,
            reorders: 0,
            estimate_probes: 0,
            choice_hist: if adaptive.is_some() {
                vec![0; nvars * nvars]
            } else {
                Vec::new()
            },
            est_bindings: if adaptive.is_some() {
                vec![0; nvars]
            } else {
                Vec::new()
            },
        }
    }

    /// Opts the walk into per-level probe counting (see
    /// [`LftjWalk::probe_stats`]). Counting runs a separately-monomorphised
    /// probe path; untracked walks pay nothing for the feature's existence.
    #[must_use]
    pub fn with_probe_counters(mut self) -> LftjWalk {
        self.track = true;
        self
    }

    /// The probe kernel driving this walk.
    pub fn kernel(&self) -> ProbeKernel {
        self.kernel
    }

    /// The plan's global variable order (= the layout of yielded tuples).
    pub fn order(&self) -> &[Attr] {
        self.plan.order()
    }

    /// The plan driving the walk.
    pub fn plan(&self) -> &JoinPlan {
        &self.plan
    }

    /// Number of variable bindings made so far across all levels — the
    /// walk's work counter. Early termination (stopping after `k` tuples)
    /// leaves this strictly below the full-enumeration count whenever
    /// results remain.
    pub fn bindings(&self) -> u64 {
        self.bindings
    }

    /// Whether the walk has been exhausted.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Per-level probe counters, one entry per plan variable in order. All
    /// zeros unless the walk was built via [`LftjWalk::with_probe_counters`].
    pub fn probe_stats(&self) -> &[LevelProbeStats] {
        &self.probe
    }

    /// The adaptive-ordering ladder rung the walk runs under (`None` for a
    /// static walk).
    pub fn ladder(&self) -> Option<Ladder> {
        self.adaptive
    }

    /// Adaptive choices that deviated from the static schedule — the walk
    /// opened a variable other than the first admissible one in plan order.
    /// Always zero for static walks.
    pub fn reorders(&self) -> u64 {
        self.reorders
    }

    /// Candidate-variable estimates the adaptive chooser computed (its
    /// maintenance cost meter; depths with a single admissible variable are
    /// decided for free and counted as zero).
    pub fn estimate_probes(&self) -> u64 {
        self.estimate_probes
    }

    /// TRACK-only chosen-order histogram: entry `d · nvars + v` counts how
    /// often variable `v` was opened at depth `d`. Empty unless the walk is
    /// adaptive *and* was built via [`LftjWalk::with_probe_counters`].
    pub fn choice_histogram(&self) -> &[u64] {
        &self.choice_hist
    }

    /// TRACK-only per-variable sum of refined (sibling-span) estimates at
    /// choice time; compare with [`LftjWalk::probe_stats`] bindings for the
    /// estimate-vs-actual error. Empty unless adaptive and tracked.
    pub fn estimated_bindings(&self) -> &[u64] {
        &self.est_bindings
    }

    /// Opens the leapfrog state for the next unentered variable, scoping
    /// every participating atom to the children of its bound parent node.
    ///
    /// Layered atoms open one sub-range per physical run that contains the
    /// bound prefix; when exactly one run survives, the union view is
    /// downgraded to a plain [`RangeCursor`] so the level keeps the batched
    /// fast path — below the root, subtrees a small delta never touched run
    /// at full solid-plan speed.
    fn open_level(&mut self) {
        let d = self.levels.len();
        let var = self.choose_var(d);
        self.depth_to_var.push(var);
        self.var_open[var] = true;
        let vp = &self.plan.var_plans()[var];
        let mut mixed = false;
        let mut cursors: Vec<Cursor> = Vec::with_capacity(vp.participants.len());
        for part in &vp.participants {
            let nruns = self.plan.runs(part.atom);
            if nruns == 1 {
                let trie = &self.plan.tries()[part.atom];
                let (range, group) = if part.level == 0 {
                    // Level 0 is one sibling group (group id 0) spanning the
                    // whole level.
                    (trie.root_range(), 0)
                } else {
                    let parent = *self.nodes[part.atom].last().expect("parent level bound");
                    (trie.children(part.level - 1, parent), parent)
                };
                cursors.push(Cursor::Solid(RangeCursor {
                    atom: part.atom,
                    level: part.level,
                    run: 0,
                    hi: range.end,
                    pos: range.start,
                    group,
                    group_start: range.start,
                }));
                continue;
            }
            // Layered atom: collect the runs alive under the bound prefix.
            let mut subs: Vec<SubCursor> = Vec::with_capacity(nruns);
            for r in 0..nruns {
                let trie = self.plan.run_trie(part.atom, r);
                let (range, group) = if part.level == 0 {
                    (trie.root_range(), 0)
                } else {
                    let frame = &self.nodes[part.atom];
                    let parent = frame[frame.len() - nruns + r];
                    if parent == ABSENT {
                        continue;
                    }
                    (trie.children(part.level - 1, parent), parent)
                };
                if range.start < range.end {
                    subs.push(SubCursor {
                        run: r as u32,
                        hi: range.end,
                        pos: range.start,
                        group,
                        group_start: range.start,
                    });
                }
            }
            if subs.len() == 1 {
                // Single live run: downgrade to a solid cursor.
                let s = subs.pop().expect("one sub");
                cursors.push(Cursor::Solid(RangeCursor {
                    atom: part.atom,
                    level: part.level,
                    run: s.run,
                    hi: s.hi,
                    pos: s.pos,
                    group: s.group,
                    group_start: s.group_start,
                }));
            } else {
                // Zero live runs yields an immediately-exhausted union,
                // which closes the level on the first advance.
                mixed = true;
                cursors.push(Cursor::Union(UnionCursor::new(
                    part.atom, part.level, subs, &self.plan,
                )));
            }
        }
        let cursors = if mixed {
            LevelCursors::Mixed(cursors)
        } else {
            LevelCursors::Solid(
                cursors
                    .into_iter()
                    .map(|c| match c {
                        Cursor::Solid(rc) => rc,
                        Cursor::Union(_) => unreachable!("mixed flag covers unions"),
                    })
                    .collect(),
            )
        };
        self.levels.push(LevelState::new(cursors));
    }

    /// Picks the plan variable to open at depth `d`.
    ///
    /// Static walks take the plan order verbatim. Adaptive walks pin the
    /// root (see the type docs) and past it score every **admissible**
    /// unbound variable with the ladder rung, opening the cheapest; ties
    /// cascade through the coarser rungs and finally plan position, so the
    /// choice is a pure function of the bound prefix and a walk is
    /// reproducible run to run.
    fn choose_var(&mut self, d: usize) -> usize {
        let Some(ladder) = self.adaptive else {
            return d;
        };
        let nvars = self.plan.var_plans().len();
        if d == 0 {
            if self.track {
                self.choice_hist[0] += 1;
                self.est_bindings[0] +=
                    refined_span(&self.plan, &self.nodes, &self.plan.var_plans()[0]);
            }
            return 0;
        }
        let mut cand = std::mem::take(&mut self.cand);
        cand.clear();
        for (v, vp) in self.plan.var_plans().iter().enumerate() {
            if self.var_open[v] {
                continue;
            }
            // Admissible: every atom containing `v` has bound exactly the
            // trie levels above `v`'s level there (one node frame of width
            // `runs(atom)` is pushed per bound level).
            let admissible = vp
                .participants
                .iter()
                .all(|part| part.level == self.nodes[part.atom].len() / self.plan.runs(part.atom));
            if admissible {
                cand.push(v);
            }
        }
        debug_assert!(!cand.is_empty(), "some admissible variable always exists");
        let chosen = if cand.len() == 1 {
            cand[0]
        } else {
            self.estimate_probes += cand.len() as u64;
            let mut best = cand[0];
            let mut best_key = self.score_var(ladder, cand[0]);
            for &v in &cand[1..] {
                let key = self.score_var(ladder, v);
                if key < best_key {
                    best = v;
                    best_key = key;
                }
            }
            if best != cand[0] {
                self.reorders += 1;
            }
            best
        };
        if self.track {
            self.choice_hist[d * nvars + chosen] += 1;
            self.est_bindings[chosen] +=
                refined_span(&self.plan, &self.nodes, &self.plan.var_plans()[chosen]);
        }
        self.cand = cand;
        chosen
    }

    /// Scores variable `v` under `ladder`, smaller = cheaper to bind next.
    /// Each rung's key is suffixed with every coarser rung and finally the
    /// plan position, making the comparison total and deterministic.
    fn score_var(&self, ladder: Ladder, v: usize) -> (u64, u64, u64, u64) {
        // `rows` (the *Jessica* rung: cheapest participant's tuple count)
        // and `distinct` (the *Paul* rung: cheapest participant's build-time
        // distinct count at `v`'s level, delta runs summed as an upper bound
        // on the union view) come precomputed — only the *Ghanima* rung
        // reads the bound prefix.
        let (rows, distinct) = self.static_scores[v];
        match ladder {
            Ladder::RowCount => (rows, v as u64, 0, 0),
            Ladder::Distinct => (distinct, rows, v as u64, 0),
            Ladder::Refined => (
                refined_span(&self.plan, &self.nodes, &self.plan.var_plans()[v]),
                distinct,
                rows,
                v as u64,
            ),
        }
    }

    /// Yields the next result tuple (laid out per [`LftjWalk::order`]), or
    /// `None` when the join is exhausted. The returned slice is only valid
    /// until the next call.
    pub fn next_tuple(&mut self) -> Option<&[ValueId]> {
        if self.track {
            self.next_tuple_impl::<true>()
        } else {
            self.next_tuple_impl::<false>()
        }
    }

    fn next_tuple_impl<const TRACK: bool>(&mut self) -> Option<&[ValueId]> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            if self.plan.has_empty_atom() {
                self.done = true;
                return None;
            }
            if self.plan.var_plans().is_empty() {
                // Zero-variable plan: the join of non-empty nullary atoms
                // holds exactly one empty tuple.
                self.done = true;
                return Some(&self.prefix);
            }
            self.open_level();
        }
        let nlevels = self.plan.var_plans().len();
        loop {
            let d = self.levels.len() - 1;
            // The plan variable this depth binds (identity for static walks).
            let var = self.depth_to_var[d];
            // Unbind this level's previous match (if any)…
            if self.levels[d].bound {
                self.levels[d].bound = false;
                self.prefix.pop();
                for part in &self.plan.var_plans()[var].participants {
                    // Each bind pushed one node frame of width `runs(atom)`.
                    let new_len = self.nodes[part.atom].len() - self.plan.runs(part.atom);
                    self.nodes[part.atom].truncate(new_len);
                }
            }
            // …and pull its next one.
            let kernel = self.kernel;
            let step = self.levels[d].advance::<TRACK>(&self.plan, kernel, &mut self.probe[var]);
            match step {
                Some(v) => {
                    self.prefix.push(v);
                    for (c, part) in self.plan.var_plans()[var].participants.iter().enumerate() {
                        let nruns = self.plan.runs(part.atom);
                        self.levels[d].push_match_nodes(
                            c,
                            nruns,
                            &self.plan,
                            &mut self.nodes[part.atom],
                        );
                    }
                    self.levels[d].bound = true;
                    self.bindings += 1;
                    if TRACK {
                        self.probe[var].bindings += 1;
                    }
                    if self.adaptive.is_some() {
                        self.out[var] = v;
                    }
                    if d + 1 == nlevels {
                        return if self.adaptive.is_some() {
                            Some(&self.out)
                        } else {
                            Some(&self.prefix)
                        };
                    }
                    self.open_level();
                }
                None => {
                    self.levels.pop();
                    let var = self.depth_to_var.pop().expect("depth stack aligned");
                    self.var_open[var] = false;
                    if self.levels.is_empty() {
                        self.done = true;
                        return None;
                    }
                }
            }
        }
    }
}

/// The *Ghanima* rung: the width of the sibling range variable `vp` would
/// actually scan under the currently bound prefix — per participant the sum
/// of the live runs' child spans (level-0 participants contribute their
/// whole root level), minimised across participants. An O(participants ×
/// runs) read of ranges the walk is about to open anyway, and a tight upper
/// bound on how many values the binding can produce.
fn refined_span(plan: &JoinPlan, nodes: &[Vec<u32>], vp: &VarPlan) -> u64 {
    let mut best = u64::MAX;
    for part in &vp.participants {
        let nruns = plan.runs(part.atom);
        let mut width = 0u64;
        for r in 0..nruns {
            let trie = plan.run_trie(part.atom, r);
            let range = if part.level == 0 {
                trie.root_range()
            } else {
                let frame = &nodes[part.atom];
                let parent = frame[frame.len() - nruns + r];
                if parent == ABSENT {
                    continue;
                }
                trie.children(part.level - 1, parent)
            };
            width += u64::from(range.end - range.start);
        }
        best = best.min(width);
    }
    best
}

/// Streams result tuples of the join to `cb` in lexicographic order of the
/// plan's variable order, stopping early when `cb` returns
/// [`ControlFlow::Break`]. Returns `Break(())` iff the callback broke.
pub fn lftj_foreach_until(
    plan: &JoinPlan,
    mut cb: impl FnMut(&[ValueId]) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let mut walk = LftjWalk::new(plan.clone());
    while let Some(t) = walk.next_tuple() {
        cb(t)?;
    }
    ControlFlow::Continue(())
}

/// Streams every result tuple of the join to `cb`, in lexicographic order of
/// the plan's variable order (the never-stopping wrapper of
/// [`lftj_foreach_until`]).
pub fn lftj_foreach(plan: &JoinPlan, mut cb: impl FnMut(&[ValueId])) {
    let flow = lftj_foreach_until(plan, |t| {
        cb(t);
        ControlFlow::Continue(())
    });
    debug_assert!(flow.is_continue());
}

/// Materialises the LFTJ result into a relation (schema = variable order).
pub fn lftj(plan: &JoinPlan) -> Relation {
    lftj_counted(plan).0
}

/// Adaptive-ordering counters of one exhausted walk, harvested by
/// materialising drivers into `JoinStats` (zero for static plans).
#[derive(Debug, Default, Clone, Copy)]
pub struct WalkCounters {
    /// See [`LftjWalk::reorders`].
    pub reorders: u64,
    /// See [`LftjWalk::estimate_probes`].
    pub estimate_probes: u64,
}

/// [`lftj`] that also returns the walk's adaptive-ordering counters, so
/// engines can surface reorder decisions and estimate maintenance cost
/// without re-running the join.
pub fn lftj_counted(plan: &JoinPlan) -> (Relation, WalkCounters) {
    let schema = Schema::new(plan.order().iter().cloned()).expect("distinct order");
    let mut out = Relation::new(schema);
    let mut walk = LftjWalk::new(plan.clone());
    while let Some(t) = walk.next_tuple() {
        out.push(t).expect("arity matches");
    }
    let counters = WalkCounters {
        reorders: walk.reorders(),
        estimate_probes: walk.estimate_probes(),
    };
    (out, counters)
}

/// Convenience wrapper: plans and runs LFTJ over `relations` under `order`.
pub fn lftj_join(relations: &[&Relation], order: &[Attr]) -> Result<Relation> {
    let plan = JoinPlan::new(relations, order)?;
    Ok(lftj(&plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic::{generic_join, naive_join};
    use crate::schema::Schema;

    fn v(i: u32) -> ValueId {
        ValueId(i)
    }

    fn attrs(names: &[&str]) -> Vec<Attr> {
        names.iter().map(|&n| Attr::new(n)).collect()
    }

    fn rel(names: &[&str], rows: &[&[u32]]) -> Relation {
        let mut r = Relation::new(Schema::of(names));
        for row in rows {
            let ids: Vec<ValueId> = row.iter().map(|&x| v(x)).collect();
            r.push(&ids).unwrap();
        }
        r
    }

    #[test]
    fn triangle_matches_generic() {
        let r = rel(&["a", "b"], &[&[1, 2], &[2, 3], &[3, 1], &[1, 3], &[2, 1]]);
        let s = rel(&["b", "c"], &[&[2, 3], &[3, 1], &[1, 2], &[1, 1]]);
        let t = rel(&["a", "c"], &[&[1, 3], &[2, 1], &[3, 2], &[2, 2]]);
        let order = attrs(&["a", "b", "c"]);
        let from_lftj = lftj_join(&[&r, &s, &t], &order).unwrap();
        let (from_generic, _) = generic_join(&[&r, &s, &t], &order).unwrap();
        assert!(from_lftj.set_eq(&from_generic));
        let expect = naive_join(&[&r, &s, &t], &order).unwrap();
        assert!(from_lftj.set_eq(&expect));
    }

    #[test]
    fn results_stream_in_lexicographic_order() {
        let r = rel(&["a", "b"], &[&[2, 1], &[1, 2], &[1, 1]]);
        let plan = JoinPlan::new(&[&r], &attrs(&["a", "b"])).unwrap();
        let mut seen: Vec<Vec<ValueId>> = Vec::new();
        lftj_foreach(&plan, |t| seen.push(t.to_vec()));
        let mut sorted = seen.clone();
        sorted.sort();
        assert_eq!(seen, sorted);
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn disjoint_atoms_yield_the_cross_product() {
        let r = rel(&["a"], &[&[1], &[2], &[3]]);
        let s = rel(&["b"], &[&[7], &[8]]);
        let plan = JoinPlan::new(&[&r, &s], &attrs(&["a", "b"])).unwrap();
        assert_eq!(lftj(&plan).len(), 6);
    }

    #[test]
    fn empty_atom_yields_nothing() {
        let r = rel(&["a"], &[&[1]]);
        let s = rel(&["a"], &[]);
        let plan = JoinPlan::new(&[&r, &s], &attrs(&["a"])).unwrap();
        assert!(lftj(&plan).is_empty());
    }

    #[test]
    fn single_atom_enumerates_relation() {
        let r = rel(&["a", "b"], &[&[1, 2], &[3, 4], &[1, 2]]);
        let out = lftj_join(&[&r], &attrs(&["a", "b"])).unwrap();
        assert_eq!(out.len(), 2); // set semantics
    }

    #[test]
    fn four_clique_query() {
        // K4 edges as a symmetric relation; count 4-cliques via 6 atoms.
        let edges: Vec<[u32; 2]> = vec![
            [1, 2],
            [1, 3],
            [1, 4],
            [2, 3],
            [2, 4],
            [3, 4],
            [2, 1],
            [3, 1],
            [4, 1],
            [3, 2],
            [4, 2],
            [4, 3],
        ];
        let rows: Vec<Vec<ValueId>> = edges.iter().map(|e| vec![v(e[0]), v(e[1])]).collect();
        let pairs = [
            ("a", "b"),
            ("a", "c"),
            ("a", "d"),
            ("b", "c"),
            ("b", "d"),
            ("c", "d"),
        ];
        let rels: Vec<Relation> = pairs
            .iter()
            .map(|(x, y)| Relation::from_rows(Schema::of(&[x, y]), rows.clone()).unwrap())
            .collect();
        let refs: Vec<&Relation> = rels.iter().collect();
        let out = lftj_join(&refs, &attrs(&["a", "b", "c", "d"])).unwrap();
        // All 4! orderings of {1,2,3,4}.
        assert_eq!(out.len(), 24);
    }

    #[test]
    fn walk_matches_foreach() {
        let r = rel(&["a", "b"], &[&[1, 2], &[2, 3], &[3, 1], &[1, 3]]);
        let s = rel(&["b", "c"], &[&[2, 3], &[3, 1], &[1, 2], &[3, 3]]);
        let t = rel(&["a", "c"], &[&[1, 3], &[2, 1], &[3, 2], &[1, 1]]);
        let plan = JoinPlan::new(&[&r, &s, &t], &attrs(&["a", "b", "c"])).unwrap();
        let mut pushed: Vec<Vec<ValueId>> = Vec::new();
        lftj_foreach(&plan, |t| pushed.push(t.to_vec()));
        let mut walk = LftjWalk::new(plan);
        let mut pulled: Vec<Vec<ValueId>> = Vec::new();
        while let Some(t) = walk.next_tuple() {
            pulled.push(t.to_vec());
        }
        assert_eq!(pushed, pulled);
        assert!(walk.is_done());
        assert!(
            walk.next_tuple().is_none(),
            "exhausted walk stays exhausted"
        );
    }

    #[test]
    fn foreach_until_stops_the_walk() {
        let r = rel(&["a"], &[&[1], &[2], &[3], &[4]]);
        let s = rel(&["b"], &[&[7], &[8]]);
        let plan = JoinPlan::new(&[&r, &s], &attrs(&["a", "b"])).unwrap();
        let mut seen = 0usize;
        let flow = lftj_foreach_until(&plan, |_| {
            seen += 1;
            if seen == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert!(flow.is_break());
        assert_eq!(seen, 3);
        let full = lftj_foreach_until(&plan, |_| ControlFlow::Continue(()));
        assert!(full.is_continue());
    }

    #[test]
    fn early_termination_does_less_work() {
        // A large cartesian product: stopping after one tuple must bind far
        // fewer values than full enumeration.
        let rows_a: Vec<Vec<ValueId>> = (0..50).map(|i| vec![v(i)]).collect();
        let rows_b: Vec<Vec<ValueId>> = (0..50).map(|i| vec![v(100 + i)]).collect();
        let a = Relation::from_rows(Schema::of(&["a"]), rows_a).unwrap();
        let b = Relation::from_rows(Schema::of(&["b"]), rows_b).unwrap();
        let plan = JoinPlan::new(&[&a, &b], &attrs(&["a", "b"])).unwrap();

        let mut full = LftjWalk::new(plan.clone());
        while full.next_tuple().is_some() {}
        let mut early = LftjWalk::new(plan);
        assert!(early.next_tuple().is_some());
        assert!(
            early.bindings() < full.bindings(),
            "early {} !< full {}",
            early.bindings(),
            full.bindings()
        );
        assert_eq!(full.bindings(), 50 + 50 * 50);
    }

    #[test]
    fn walk_exposes_order_and_plan() {
        let r = rel(&["a", "b"], &[&[1, 2]]);
        let plan = JoinPlan::new(&[&r], &attrs(&["a", "b"])).unwrap();
        let walk = LftjWalk::new(plan);
        assert_eq!(walk.order(), &attrs(&["a", "b"])[..]);
        assert_eq!(walk.plan().tries().len(), 1);
        assert_eq!(walk.bindings(), 0);
        assert_eq!(walk.kernel(), ProbeKernel::Block);
    }

    /// Runs `plan` to exhaustion under `kernel`, returning (tuples, bindings).
    fn drain(plan: &JoinPlan, kernel: ProbeKernel) -> (Vec<Vec<ValueId>>, u64) {
        let mut walk = LftjWalk::with_kernel(plan.clone(), kernel);
        let mut out = Vec::new();
        while let Some(t) = walk.next_tuple() {
            out.push(t.to_vec());
        }
        (out, walk.bindings())
    }

    #[test]
    fn scalar_and_block_kernels_agree_on_triangle() {
        let r = rel(&["a", "b"], &[&[1, 2], &[2, 3], &[3, 1], &[1, 3], &[2, 1]]);
        let s = rel(&["b", "c"], &[&[2, 3], &[3, 1], &[1, 2], &[1, 1]]);
        let t = rel(&["a", "c"], &[&[1, 3], &[2, 1], &[3, 2], &[2, 2]]);
        let plan = JoinPlan::new(&[&r, &s, &t], &attrs(&["a", "b", "c"])).unwrap();
        let (scalar, scalar_b) = drain(&plan, ProbeKernel::Scalar);
        let (block, block_b) = drain(&plan, ProbeKernel::Block);
        assert_eq!(scalar, block);
        assert_eq!(scalar_b, block_b, "kernels must bind identically");
    }

    #[test]
    fn kernels_agree_across_batch_boundaries() {
        // A single-atom walk over > PROBE_BATCH keys exercises the bulk-copy
        // refill path across several batch refills.
        let rows: Vec<Vec<ValueId>> = (0..100u32).map(|i| vec![v(i), v(i % 7)]).collect();
        let r = Relation::from_rows(Schema::of(&["a", "b"]), rows).unwrap();
        let plan = JoinPlan::new(&[&r], &attrs(&["a", "b"])).unwrap();
        let (scalar, scalar_b) = drain(&plan, ProbeKernel::Scalar);
        let (block, block_b) = drain(&plan, ProbeKernel::Block);
        assert_eq!(scalar.len(), 100);
        assert_eq!(scalar, block);
        assert_eq!(scalar_b, block_b);
    }

    #[test]
    fn block_kernel_uses_bitset_levels() {
        // Dense symmetric edge set large enough that levels cross
        // BITSET_MIN_NODES: both kernels, and both layouts, must agree.
        let mut edges: Vec<Vec<ValueId>> = Vec::new();
        for i in 0..90u32 {
            let j = (i * 37 + 11) % 90;
            if i != j {
                edges.push(vec![v(i), v(j)]);
                edges.push(vec![v(j), v(i)]);
            }
        }
        let make =
            |names: [&str; 2]| Relation::from_rows(Schema::of(&names), edges.clone()).unwrap();
        let (r, s, t) = (make(["a", "b"]), make(["b", "c"]), make(["a", "c"]));
        let plan = JoinPlan::new(&[&r, &s, &t], &attrs(&["a", "b", "c"])).unwrap();
        assert!(
            plan.tries().iter().any(|t| t.bitset_level_count() > 0),
            "test instance too small to trigger bitset layouts"
        );
        let (scalar, _) = drain(&plan, ProbeKernel::Scalar);
        let (block, _) = drain(&plan, ProbeKernel::Block);
        assert_eq!(scalar, block);
    }

    fn drain_counted(
        plan: &JoinPlan,
        kernel: ProbeKernel,
    ) -> (Vec<Vec<ValueId>>, u64, Vec<LevelProbeStats>) {
        let mut walk = LftjWalk::with_kernel(plan.clone(), kernel).with_probe_counters();
        let mut out = Vec::new();
        while let Some(t) = walk.next_tuple() {
            out.push(t.to_vec());
        }
        (out, walk.bindings(), walk.probe_stats().to_vec())
    }

    #[test]
    fn probe_counters_observe_without_perturbing() {
        // Same dense instance as `block_kernel_uses_bitset_levels`, so the
        // counted path crosses sorted, blocked, and bitset seeks alike.
        let mut edges: Vec<Vec<ValueId>> = Vec::new();
        for i in 0..90u32 {
            let j = (i * 37 + 11) % 90;
            if i != j {
                edges.push(vec![v(i), v(j)]);
                edges.push(vec![v(j), v(i)]);
            }
        }
        // Plant a triangle so the last level binds at least once.
        for (x, y) in [(0u32, 1u32), (1, 2), (0, 2)] {
            edges.push(vec![v(x), v(y)]);
            edges.push(vec![v(y), v(x)]);
        }
        let make =
            |names: [&str; 2]| Relation::from_rows(Schema::of(&names), edges.clone()).unwrap();
        let (r, s, t) = (make(["a", "b"]), make(["b", "c"]), make(["a", "c"]));
        let plan = JoinPlan::new(&[&r, &s, &t], &attrs(&["a", "b", "c"])).unwrap();
        let has_bitset = plan.tries().iter().any(|t| t.bitset_level_count() > 0);
        for kernel in [ProbeKernel::Scalar, ProbeKernel::Block] {
            let (plain, plain_b) = drain(&plan, kernel);
            let (counted, counted_b, probe) = drain_counted(&plan, kernel);
            assert_eq!(plain, counted, "{kernel:?}: counting changed the result");
            assert_eq!(plain_b, counted_b, "{kernel:?}: counting changed bindings");
            assert_eq!(probe.len(), 3);
            let per_level: u64 = probe.iter().map(|p| p.bindings).sum();
            assert_eq!(per_level, counted_b, "per-level bindings sum to the total");
            assert!(
                probe.iter().all(|p| p.bindings > 0),
                "{kernel:?}: every level bound something: {probe:?}"
            );
            assert!(
                probe.iter().any(|p| p.seeks > 0 && p.seek_steps > 0),
                "{kernel:?}: seeks went uncounted: {probe:?}"
            );
            if kernel == ProbeKernel::Block {
                assert!(probe.iter().any(|p| p.refills > 0), "refills uncounted");
                if has_bitset {
                    assert!(
                        probe.iter().any(|p| p.bitset_words > 0),
                        "bitset words uncounted: {probe:?}"
                    );
                }
            }
        }
        // Untracked walks leave the counters untouched.
        let mut untracked = LftjWalk::new(plan);
        while untracked.next_tuple().is_some() {}
        assert!(untracked
            .probe_stats()
            .iter()
            .all(|p| *p == LevelProbeStats::default()));
    }

    mod layered {
        use super::*;
        use std::sync::Arc;

        /// Splits `rows` pseudo-randomly into `parts` layers (each sorted and
        /// deduped into its own trie) and also returns the solid union
        /// relation of all rows.
        fn split_layers(
            names: &[&str],
            rows: &[Vec<u32>],
            parts: usize,
            seed: u64,
        ) -> (Vec<Arc<Trie>>, Relation) {
            let order: Vec<Attr> = names.iter().map(|&n| Attr::new(n)).collect();
            let mut buckets: Vec<Relation> = (0..parts)
                .map(|_| Relation::new(Schema::of(names)))
                .collect();
            let mut union_rel = Relation::new(Schema::of(names));
            let mut state = seed | 1;
            for row in rows {
                let ids: Vec<ValueId> = row.iter().map(|&x| v(x)).collect();
                union_rel.push(&ids).unwrap();
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                buckets[(state >> 33) as usize % parts].push(&ids).unwrap();
            }
            union_rel.sort_dedup();
            let tries = buckets
                .iter_mut()
                .map(|b| {
                    b.sort_dedup();
                    Arc::new(Trie::build(b, &order).unwrap())
                })
                .collect();
            (tries, union_rel)
        }

        /// A triangle instance where every atom is split into a base plus
        /// two delta runs; returns (layered plan, equivalent solid plan).
        fn triangle_layers(seed: u64, parts: usize) -> (JoinPlan, JoinPlan) {
            let mut edges: Vec<Vec<u32>> = Vec::new();
            let mut state = seed | 1;
            for _ in 0..140 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let i = ((state >> 33) % 40) as u32;
                let j = ((state >> 13) % 40) as u32;
                if i != j {
                    edges.push(vec![i, j]);
                    edges.push(vec![j, i]);
                }
            }
            // Plant triangles so the join is never trivially empty.
            for (x, y) in [(0, 1), (1, 2), (0, 2), (7, 9), (9, 11), (7, 11)] {
                edges.push(vec![x, y]);
                edges.push(vec![y, x]);
            }
            let order = attrs(&["a", "b", "c"]);
            let mut bases = Vec::new();
            let mut layers = Vec::new();
            let mut solids = Vec::new();
            for (i, names) in [["a", "b"], ["b", "c"], ["a", "c"]].iter().enumerate() {
                let (mut tries, solid) = split_layers(names, &edges, parts, seed ^ (i as u64 + 1));
                bases.push(tries.remove(0));
                layers.push(tries);
                solids.push(solid);
            }
            let layered = JoinPlan::from_shared_layered(bases, layers, &order).unwrap();
            let refs: Vec<&Relation> = solids.iter().collect();
            let solid = JoinPlan::new(&refs, &order).unwrap();
            (layered, solid)
        }

        #[test]
        fn layered_walk_matches_solid_plan_under_both_kernels() {
            let (layered, solid) = triangle_layers(0x9e37, 3);
            assert!(layered.has_layers());
            let (want, _) = drain(&solid, ProbeKernel::Block);
            assert!(!want.is_empty(), "instance joins to something");
            let (scalar, scalar_b) = drain(&layered, ProbeKernel::Scalar);
            let (block, block_b) = drain(&layered, ProbeKernel::Block);
            assert_eq!(scalar, want);
            assert_eq!(block, want);
            assert_eq!(scalar_b, block_b, "kernels must bind identically");
        }

        #[test]
        fn layered_probe_counters_observe_without_perturbing() {
            let (layered, _) = triangle_layers(0x51ed, 3);
            for kernel in [ProbeKernel::Scalar, ProbeKernel::Block] {
                let (plain, plain_b) = drain(&layered, kernel);
                let (counted, counted_b, probe) = drain_counted(&layered, kernel);
                assert_eq!(plain, counted, "{kernel:?}: counting changed the result");
                assert_eq!(plain_b, counted_b, "{kernel:?}: counting changed bindings");
                let per_level: u64 = probe.iter().map(|p| p.bindings).sum();
                assert_eq!(per_level, counted_b);
                assert!(
                    probe.iter().any(|p| p.seeks > 0),
                    "{kernel:?}: union seeks uncounted: {probe:?}"
                );
            }
        }

        #[test]
        fn layered_random_differential() {
            for seed in [1u64, 7, 42, 0xdead_beef] {
                for parts in [2usize, 3, 5] {
                    let (layered, solid) = triangle_layers(seed, parts);
                    let (want, _) = drain(&solid, ProbeKernel::Block);
                    for kernel in [ProbeKernel::Scalar, ProbeKernel::Block] {
                        let (got, _) = drain(&layered, kernel);
                        assert_eq!(got, want, "seed {seed} parts {parts} {kernel:?}");
                    }
                }
            }
        }

        #[test]
        fn layered_handles_empty_and_overlapping_layers() {
            let order = attrs(&["a", "b"]);
            let empty = Relation::new(Schema::of(&["a", "b"]));
            let mut two = rel(&["a", "b"], &[&[3, 4], &[1, 2]]);
            two.sort_dedup();
            let empty_t = Arc::new(Trie::build(&empty, &order).unwrap());
            let two_t = Arc::new(Trie::build(&two, &order).unwrap());

            // Empty base + live delta enumerates exactly the delta.
            let plan = JoinPlan::from_shared_layered(
                vec![Arc::clone(&empty_t)],
                vec![vec![Arc::clone(&two_t)]],
                &order,
            )
            .unwrap();
            assert!(!plan.has_empty_atom());
            let (got, _) = drain(&plan, ProbeKernel::Block);
            assert_eq!(got.len(), 2);

            // Layers duplicating the base (and each other) still dedup.
            let plan2 = JoinPlan::from_shared_layered(
                vec![Arc::clone(&two_t)],
                vec![vec![Arc::clone(&two_t), Arc::clone(&two_t)]],
                &order,
            )
            .unwrap();
            for kernel in [ProbeKernel::Scalar, ProbeKernel::Block] {
                let (got2, _) = drain(&plan2, kernel);
                assert_eq!(got2.len(), 2, "{kernel:?}");
            }

            // Empty base + empty delta is a logically empty atom.
            let plan3 = JoinPlan::from_shared_layered(
                vec![Arc::clone(&empty_t)],
                vec![vec![Arc::clone(&empty_t)]],
                &order,
            )
            .unwrap();
            assert!(plan3.has_empty_atom());
            let (got3, _) = drain(&plan3, ProbeKernel::Block);
            assert!(got3.is_empty());
        }
    }

    mod adaptive {
        use super::*;

        /// The two-branch query `Q(a,b,c) :- R(a,b), S(a,c), F(b), G(c)`:
        /// after binding `a`, both `b` and `c` are admissible, so the
        /// adaptive walk has genuine reorder freedom. Even `a`s are heavy
        /// on the `b` branch, odd `a`s on the `c` branch, so *no* static
        /// order avoids expanding a heavy branch on half the keys while
        /// the refined ladder sidesteps both.
        fn branch_relations(keys: u32, heavy: u32) -> (Relation, Relation, Relation, Relation) {
            let hb: Vec<u32> = (1000..1000 + heavy).collect();
            let hc: Vec<u32> = (2000..2000 + heavy).collect();
            let mut r = Relation::new(Schema::of(&["a", "b"]));
            let mut s = Relation::new(Schema::of(&["a", "c"]));
            for a in 0..keys {
                if a % 2 == 0 {
                    for &b in &hb {
                        r.push(&[v(a), v(b)]).unwrap();
                    }
                    s.push(&[v(a), v(600 + a % 16)]).unwrap();
                } else {
                    r.push(&[v(a), v(500 + a % 16)]).unwrap();
                    for &c in &hc {
                        s.push(&[v(a), v(c)]).unwrap();
                    }
                }
            }
            // Heavy values always pass their filter (so a static order that
            // expands a heavy branch really pays for it), light values only
            // rarely (the fail-fast opportunity): F = {501} ∪ heavy-b,
            // G = {600} ∪ heavy-c, so a ≡ 1 (mod 16) odd keys and
            // a ≡ 0 (mod 16) even keys survive and keep the result
            // non-empty.
            let mut f = Relation::new(Schema::of(&["b"]));
            for b in std::iter::once(501).chain(hb.iter().copied()) {
                f.push(&[v(b)]).unwrap();
            }
            let mut g = Relation::new(Schema::of(&["c"]));
            for c in std::iter::once(600).chain(hc.iter().copied()) {
                g.push(&[v(c)]).unwrap();
            }
            (r, s, f, g)
        }

        fn branch_plan(ladder: Option<Ladder>) -> JoinPlan {
            let (r, s, f, g) = branch_relations(64, 24);
            let plan = JoinPlan::new(&[&r, &s, &f, &g], &attrs(&["a", "b", "c"])).unwrap();
            plan.with_ladder(ladder)
        }

        fn multiset(mut rows: Vec<Vec<ValueId>>) -> Vec<Vec<ValueId>> {
            rows.sort();
            rows
        }

        #[test]
        fn every_rung_matches_the_static_walk() {
            let (want, _) = drain(&branch_plan(None), ProbeKernel::Block);
            assert!(!want.is_empty(), "branch workload must have survivors");
            let want = multiset(want);
            for ladder in [Ladder::RowCount, Ladder::Distinct, Ladder::Refined] {
                for kernel in [ProbeKernel::Scalar, ProbeKernel::Block] {
                    let (got, _) = drain(&branch_plan(Some(ladder)), kernel);
                    assert_eq!(multiset(got), want, "{ladder:?} / {kernel:?}");
                }
            }
        }

        #[test]
        fn refined_rung_reorders_and_does_less_work() {
            let mut walk = LftjWalk::new(branch_plan(Some(Ladder::Refined)));
            while walk.next_tuple().is_some() {}
            let mut static_walk = LftjWalk::new(branch_plan(None));
            while static_walk.next_tuple().is_some() {}
            assert_eq!(static_walk.reorders(), 0);
            assert_eq!(static_walk.estimate_probes(), 0);
            assert!(walk.reorders() > 0, "skew must force deviations");
            assert!(walk.estimate_probes() > 0);
            assert!(
                walk.bindings() < static_walk.bindings() / 2,
                "adaptive {} !< static {} / 2",
                walk.bindings(),
                static_walk.bindings()
            );
        }

        #[test]
        fn adaptive_tuples_stay_in_plan_layout() {
            // Every yielded row must satisfy R(a,b) and S(a,c) under the
            // plan's (a, b, c) layout even when `c` was bound before `b`.
            let (r, s, _, _) = branch_relations(64, 24);
            let mut walk = LftjWalk::new(branch_plan(Some(Ladder::Refined)));
            let mut checked = 0usize;
            while let Some(t) = walk.next_tuple() {
                let (a, b, c) = (t[0], t[1], t[2]);
                assert!(r.rows().any(|row| row[0] == a && row[1] == b));
                assert!(s.rows().any(|row| row[0] == a && row[1] == c));
                checked += 1;
            }
            assert!(checked > 0);
        }

        #[test]
        fn tracked_adaptive_walks_report_choices_and_estimates() {
            let plan = branch_plan(Some(Ladder::Refined));
            let mut walk = LftjWalk::new(plan).with_probe_counters();
            while walk.next_tuple().is_some() {}
            let nvars = 3;
            let hist = walk.choice_histogram();
            assert_eq!(hist.len(), nvars * nvars);
            // Depth 0 is pinned to the plan's first variable.
            assert!(hist[0] > 0);
            assert_eq!(hist[1], 0);
            assert_eq!(hist[2], 0);
            // Depth 1 must have opened both `b` and `c` at least once.
            assert!(hist[nvars + 1] > 0, "b chosen at depth 1 sometimes");
            assert!(hist[nvars + 2] > 0, "c chosen at depth 1 sometimes");
            // Refined estimates upper-bound the actual bindings per var.
            for (v, stats) in walk.probe_stats().iter().enumerate() {
                assert!(
                    walk.estimated_bindings()[v] >= stats.bindings,
                    "estimate at var {v} is an upper bound"
                );
            }
        }

        #[test]
        fn counted_materialisation_reports_reorders() {
            let plan = branch_plan(Some(Ladder::Refined));
            let (rel_adaptive, counters) = lftj_counted(&plan);
            assert!(counters.reorders > 0);
            assert!(counters.estimate_probes > 0);
            let static_rel = lftj(&branch_plan(None));
            assert!(rel_adaptive.set_eq(&static_rel));
        }
    }
}
