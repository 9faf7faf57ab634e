//! The leapfrog core (Veldhuizen 2012) shared by every worst-case optimal
//! engine here: galloping seeks over sorted slices, one cursor contract, and
//! one resumable, batched leapfrog rotation.
//!
//! A variable's level is opened once per bound prefix by `Level::open`,
//! which scopes every participating atom to the children of its bound
//! parent — one sibling range per physical run of a layered atom. The LFTJ
//! walk ([`crate::lftj`]) drives the rotation depth-first and the level-wise
//! join ([`crate::generic`], the paper's Algorithm 1) breadth-first, so both
//! seek bitset-indexed levels and union delta runs the same way.

use crate::plan::{JoinPlan, Participant, VarPlan};
use crate::stats::LevelProbeStats;
use crate::trie::LevelBits;
use crate::value::ValueId;

/// Stride of the branch-reduced block search: [`block_seek`] resolves the
/// final position inside a window of at most this many elements with a
/// branchless `count_lt` scan instead of a binary search.
pub const SEEK_BLOCK: usize = 32;
/// Matches buffered per rotation refill.
const PROBE_BATCH: usize = 32;
/// Participant count up to which a refill's bound cursors live on the stack
/// (joins rarely exceed a handful of atoms per variable).
const MAX_INLINE_CURSORS: usize = 8;
/// Sentinel node index in a node frame for a physical run of a layered atom
/// that does not contain the bound prefix; opening the next level skips such
/// runs. (Real node indices never reach `u32::MAX`.)
pub(crate) const ABSENT: u32 = u32::MAX;

/// Counts elements of `window` strictly below `target`.
///
/// Branch-free (`(v < target) as usize` summed), so LLVM autovectorizes it;
/// on a sorted window the count equals the rank of the first element
/// `>= target`, which is how [`block_seek`] finishes without a data-dependent
/// branch per comparison.
#[inline]
fn count_lt(window: &[ValueId], target: ValueId) -> usize {
    window.iter().map(|&v| usize::from(v < target)).sum()
}

/// Returns the first index `i` in `lo..slice.len()` with `slice[i] >= target`
/// (or `slice.len()` when no such index exists), using exponential probing
/// followed by binary search. `slice` must be sorted ascending. The engines
/// seek through [`block_seek`]; this is the reference it is tested against.
pub fn gallop(slice: &[ValueId], mut lo: usize, target: ValueId) -> usize {
    if lo >= slice.len() || slice[lo] >= target {
        return lo;
    }
    // Invariant below: slice[lo] < target.
    let mut step = 1usize;
    while lo + step < slice.len() && slice[lo + step] < target {
        lo += step;
        step <<= 1;
    }
    let mut hi = (lo + step).min(slice.len());
    // Invariant: slice[lo] < target, and slice[hi..] >= target (or hi == len).
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if slice[mid] < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Block-wise, branch-reduced variant of [`gallop`]: identical contract
/// (first index in `lo..slice.len()` with `slice[i] >= target`, `slice`
/// sorted ascending), different search shape.
///
/// Most leapfrog seeks land within a few elements of the cursor, so the fast
/// path scans one [`SEEK_BLOCK`]-wide window with the branchless
/// `count_lt` kernel. Longer seeks gallop at block granularity (keeping
/// the exponential worst case of [`gallop`]), binary-search down to a single
/// block, and finish with the same branchless scan — replacing the last
/// `log2(SEEK_BLOCK)` unpredictable branches of a plain binary search with
/// one vectorizable pass.
pub fn block_seek(slice: &[ValueId], lo: usize, target: ValueId) -> usize {
    block_seek_tracked::<false>(slice, lo, target, &mut 0)
}

/// [`block_seek`] that, with `TRACK`, adds its probe steps to `steps`: one
/// for the first window, one per block-gallop probe and binary-search
/// halving, and one for the final scan. `TRACK = false` compiles the
/// counting away.
fn block_seek_tracked<const TRACK: bool>(
    slice: &[ValueId],
    lo: usize,
    target: ValueId,
    steps: &mut u64,
) -> usize {
    let n = slice.len();
    if TRACK {
        *steps += 1;
    }
    if lo >= n || slice[lo] >= target {
        return lo;
    }
    // Fast path: the answer lies within the first block after the cursor.
    let b_end = (lo + SEEK_BLOCK).min(n);
    if slice[b_end - 1] >= target {
        return lo + count_lt(&slice[lo..b_end], target);
    }
    if b_end == n {
        return n;
    }
    // Invariant below: slice[cur] < target.
    let mut cur = b_end - 1;
    let mut step = SEEK_BLOCK;
    while cur + step < n && slice[cur + step] < target {
        cur += step;
        step <<= 1;
        if TRACK {
            *steps += 1;
        }
    }
    let mut hi = (cur + step).min(n);
    // Invariant: slice[cur] < target, and slice[hi..] >= target (or hi == n).
    while hi - cur > SEEK_BLOCK {
        let mid = cur + (hi - cur) / 2;
        if slice[mid] < target {
            cur = mid;
        } else {
            hi = mid;
        }
        if TRACK {
            *steps += 1;
        }
    }
    if TRACK {
        *steps += 1;
    }
    cur + 1 + count_lt(&slice[cur + 1..hi], target)
}

/// The leapfrog cursor contract: a forward-only view of one sorted,
/// duplicate-free value sequence — a trie level's sibling range, or the
/// union of several runs' ranges.
trait Cursor {
    fn at_end(&self) -> bool;
    /// The current value; only meaningful while `!at_end()`.
    fn key(&self) -> ValueId;
    fn next(&mut self);
    /// Forwards to the first value `>= target`. With `TRACK` the seek and
    /// its work land in `stats`; `TRACK = false` compiles the counting away.
    fn seek<const TRACK: bool>(&mut self, target: ValueId, stats: &mut LevelProbeStats);
    /// Appends the node frame of the current value: one node index per
    /// physical run of the atom, [`ABSENT`] for runs not containing it.
    fn push_match_nodes(&self, out: &mut Vec<u32>);
}

/// One physical run's sibling range at an open level, in absolute node
/// indices of that run's trie level.
#[derive(Debug, Clone, Copy, Default)]
struct RunRange {
    /// 0 is the atom's base trie, `r >= 1` its delta run `r - 1` (see
    /// [`JoinPlan::run_trie`]).
    run: u32,
    pos: u32,
    hi: u32,
    /// Sibling-group id for the level's bitmap index: the parent node index,
    /// or 0 at level 0 (one group spans the root level).
    group: u32,
    /// Absolute node index where the group begins, anchoring bitmap ranks.
    group_start: u32,
}

/// The solid cursor: one run's sibling range bound to its resolved level
/// (value array plus optional bitmap index), so key accesses and seeks touch
/// raw slices instead of going through the plan.
#[derive(Clone, Copy)]
struct RunCursor<'a> {
    vals: &'a [ValueId],
    bits: Option<&'a LevelBits>,
    range: RunRange,
    /// Width of the atom's node frame (its run count).
    nruns: u32,
}

const EMPTY_CURSOR: RunCursor<'static> = RunCursor {
    vals: &[],
    bits: None,
    range: RunRange {
        run: 0,
        pos: 0,
        hi: 0,
        group: 0,
        group_start: 0,
    },
    nruns: 1,
};

impl<'a> RunCursor<'a> {
    #[inline]
    fn bind(plan: &'a JoinPlan, part: &Part, range: RunRange) -> RunCursor<'a> {
        let (vals, bits) = plan
            .run_trie(part.atom, range.run as usize)
            .level_view(part.level);
        RunCursor {
            vals,
            bits,
            range,
            nruns: part.nruns,
        }
    }
}

impl Cursor for RunCursor<'_> {
    #[inline]
    fn at_end(&self) -> bool {
        self.range.pos >= self.range.hi
    }

    #[inline]
    fn key(&self) -> ValueId {
        self.vals[self.range.pos as usize]
    }

    #[inline]
    fn next(&mut self) {
        self.range.pos += 1;
    }

    /// Seeks through the level's bitmap index when it has one, block-wise
    /// galloping over the sibling slice otherwise.
    #[inline]
    fn seek<const TRACK: bool>(&mut self, target: ValueId, stats: &mut LevelProbeStats) {
        if TRACK {
            stats.seeks += 1;
        }
        let r = &mut self.range;
        r.pos = match self.bits {
            Some(bits) => bits.seek::<TRACK>(
                r.group,
                r.group_start,
                r.pos,
                r.hi,
                target,
                &mut stats.bitset_words,
            ),
            None => {
                let slice = &self.vals[r.pos as usize..r.hi as usize];
                r.pos + block_seek_tracked::<TRACK>(slice, 0, target, &mut stats.seek_steps) as u32
            }
        };
    }

    #[inline]
    fn push_match_nodes(&self, out: &mut Vec<u32>) {
        if self.nruns == 1 {
            out.push(self.range.pos);
        } else {
            out.extend((0..self.nruns).map(|r| {
                if r == self.range.run {
                    self.range.pos
                } else {
                    ABSENT
                }
            }));
        }
    }
}

/// The lazily merged union of a layered atom's live runs at one level.
///
/// `key` is the minimum over the live runs' current values; `next` steps
/// *every* run parked on it (which deduplicates tuples present in several
/// layers); `seek` forwards each lagging run. The merged sequence is sorted
/// and duplicate-free — exactly a trie level — so the rotation on top keeps
/// its worst-case optimality argument.
struct UnionCursor<'a, 'b> {
    subs: &'b mut [RunCursor<'a>],
    key: ValueId,
    ended: bool,
}

impl<'a, 'b> UnionCursor<'a, 'b> {
    fn new(subs: &'b mut [RunCursor<'a>]) -> UnionCursor<'a, 'b> {
        let mut u = UnionCursor {
            subs,
            key: ValueId(0),
            ended: false,
        };
        u.refresh();
        u
    }

    /// Recomputes the minimum; the union ends once every run is exhausted.
    fn refresh(&mut self) {
        match self
            .subs
            .iter()
            .filter(|s| !s.at_end())
            .map(|s| s.key())
            .min()
        {
            Some(v) => self.key = v,
            None => self.ended = true,
        }
    }
}

impl Cursor for UnionCursor<'_, '_> {
    fn at_end(&self) -> bool {
        self.ended
    }

    fn key(&self) -> ValueId {
        self.key
    }

    fn next(&mut self) {
        let key = self.key;
        for s in self.subs.iter_mut() {
            if !s.at_end() && s.key() == key {
                s.next();
            }
        }
        self.refresh();
    }

    fn seek<const TRACK: bool>(&mut self, target: ValueId, stats: &mut LevelProbeStats) {
        for s in self.subs.iter_mut() {
            if !s.at_end() && s.key() < target {
                s.seek::<TRACK>(target, stats);
            }
        }
        self.refresh();
    }

    fn push_match_nodes(&self, out: &mut Vec<u32>) {
        let base = out.len();
        out.resize(base + self.subs[0].nruns as usize, ABSENT);
        for s in self.subs.iter() {
            if !s.at_end() && s.key() == self.key {
                out[base + s.range.run as usize] = s.range.pos;
            }
        }
    }
}

/// The resumable leapfrog rotation over one level's cursors, buffering up to
/// [`PROBE_BATCH`] matches per refill — each value together with the node
/// frames of every participant at the agreement.
#[derive(Debug, Default)]
struct Rotation {
    /// Cursor indices in ascending-key rotation order (filled on priming).
    order: Vec<usize>,
    p: usize,
    max: ValueId,
    primed: bool,
    exhausted: bool,
    /// Matched values of the current batch, served in order.
    batch: Vec<ValueId>,
    /// Per match, every participant's node frame in turn.
    frames: Vec<u32>,
    /// Index of the batch entry currently served.
    idx: usize,
}

impl Rotation {
    fn reset(&mut self, exhausted: bool) {
        self.primed = false;
        self.exhausted = exhausted;
        self.batch.clear();
        self.frames.clear();
        self.idx = 0;
    }

    /// Runs the rotation until the batch is full or some cursor exhausts its
    /// range, which ends the level (the batch may still hold matches to
    /// serve, but no refill follows).
    fn refill<C: Cursor, const TRACK: bool>(&mut self, cs: &mut [C], stats: &mut LevelProbeStats) {
        if TRACK {
            stats.refills += 1;
        }
        self.batch.clear();
        self.frames.clear();
        self.idx = 0;
        let k = cs.len();
        if let [c] = cs {
            // One participant: the intersection is its range.
            while self.batch.len() < PROBE_BATCH && !c.at_end() {
                self.batch.push(c.key());
                c.push_match_nodes(&mut self.frames);
                c.next();
            }
            self.exhausted = c.at_end();
            return;
        }
        if !self.primed {
            self.primed = true;
            self.order.clear();
            self.order.extend(0..k);
            self.order.sort_by_key(|&i| cs[i].key());
            self.p = 0;
            self.max = cs[self.order[k - 1]].key();
        }
        let (mut p, mut max) = (self.p, self.max);
        self.exhausted = loop {
            let i = self.order[p];
            let x = cs[i].key();
            if x == max {
                // All k cursors agree on x: record the match with every
                // participant's frame, then step the emitter past it.
                self.batch.push(x);
                for c in cs.iter() {
                    c.push_match_nodes(&mut self.frames);
                }
                cs[i].next();
            } else {
                cs[i].seek::<TRACK>(max, stats);
            }
            if cs[i].at_end() {
                break true;
            }
            max = cs[i].key();
            p = if p + 1 == k { 0 } else { p + 1 };
            if self.batch.len() >= PROBE_BATCH {
                break false;
            }
        };
        (self.p, self.max) = (p, max);
    }
}

/// One participant of a level.
#[derive(Debug, Clone, Copy)]
struct Part {
    atom: usize,
    level: usize,
    /// Width of the atom's node frame (its run count).
    nruns: u32,
    /// Where the atom's node frame starts in a prefix frame.
    slot: usize,
    /// Under the open prefix, this participant's live runs are
    /// `Level::ranges[first..first + live]`.
    first: usize,
    live: usize,
}

/// The layout of a prefix's *frame*, the node indices its bound levels
/// reached: atom `a` owns `off[a]..off[a + 1]`, one node per physical run
/// ([`ABSENT`] where the run lacks the prefix or nothing is bound yet).
pub(crate) fn frame_offsets(plan: &JoinPlan) -> Vec<usize> {
    let mut off = vec![0];
    for a in 0..plan.tries().len() {
        off.push(off[a] + plan.runs(a));
    }
    off
}

/// Run `r`'s sibling range of `atom`'s trie level `level` under `parent` —
/// the atom's node frame at the previous level (ignored at level 0) — or
/// `None` when that run lacks the bound prefix or has no children there.
#[inline]
fn live_run(
    plan: &JoinPlan,
    atom: usize,
    level: usize,
    parent: &[u32],
    r: usize,
) -> Option<RunRange> {
    let trie = plan.run_trie(atom, r);
    let (range, group) = if level == 0 {
        (trie.root_range(), 0)
    } else if parent[r] == ABSENT {
        return None;
    } else {
        (trie.children(level - 1, parent[r]), parent[r])
    };
    (range.start < range.end).then_some(RunRange {
        run: r as u32,
        pos: range.start,
        hi: range.end,
        group,
        group_start: range.start,
    })
}

/// How many values `part` can bind under `parent`: the summed widths of its
/// live runs (an upper bound for a layered atom, whose runs may overlap).
pub(crate) fn live_width(plan: &JoinPlan, part: Participant, parent: &[u32]) -> u64 {
    (0..plan.runs(part.atom))
        .filter_map(|r| live_run(plan, part.atom, part.level, parent, r))
        .map(|r| u64::from(r.hi - r.pos))
        .sum()
}

/// The leapfrog state of one variable: its participants, their live sibling
/// ranges under the open prefix, and the rotation over them. Reopening it for
/// another prefix, or pointing it at another variable, reuses its buffers. A
/// refill binds its cursors on the stack except on union levels (two vectors:
/// the bound runs and one union per participant) and on levels with more
/// than [`MAX_INLINE_CURSORS`] participants (one vector).
#[derive(Debug, Default)]
pub(crate) struct Level {
    parts: Vec<Part>,
    /// Where each entry of a match's node frames lands in a prefix frame.
    slots: Vec<usize>,
    ranges: Vec<RunRange>,
    /// Whether some participant has several live runs. Such levels rotate
    /// over [`UnionCursor`]s; all others over plain [`RunCursor`]s.
    union: bool,
    rot: Rotation,
}

impl Level {
    /// Points the level at `vp`'s variable in `plan`, whose prefix frames
    /// are laid out by `off` ([`frame_offsets`]); [`Level::open`] it under a
    /// prefix before advancing.
    pub(crate) fn configure(&mut self, plan: &JoinPlan, vp: &VarPlan, off: &[usize]) {
        self.parts.clear();
        self.slots.clear();
        for p in &vp.participants {
            self.parts.push(Part {
                atom: p.atom,
                level: p.level,
                nruns: plan.runs(p.atom) as u32,
                slot: off[p.atom],
                first: 0,
                live: 0,
            });
            self.slots.extend(off[p.atom]..off[p.atom + 1]);
        }
    }

    /// Opens the level under the prefix whose frame is `frame`.
    pub(crate) fn open(&mut self, plan: &JoinPlan, frame: &[u32]) {
        self.ranges.clear();
        let (mut exhausted, mut union) = (false, false);
        for p in &mut self.parts {
            p.first = self.ranges.len();
            let parent = &frame[p.slot..p.slot + p.nruns as usize];
            for r in 0..p.nruns as usize {
                if let Some(range) = live_run(plan, p.atom, p.level, parent, r) {
                    self.ranges.push(range);
                }
            }
            p.live = self.ranges.len() - p.first;
            // No live run: the atom has nothing under this prefix.
            exhausted |= p.live == 0;
            union |= p.live > 1;
        }
        self.union = union;
        self.rot.reset(exhausted);
    }

    /// Yields the next value present in every participant; extend the
    /// prefix frame by it with [`Level::scatter_match`].
    #[inline]
    pub(crate) fn advance<const TRACK: bool>(
        &mut self,
        plan: &JoinPlan,
        stats: &mut LevelProbeStats,
    ) -> Option<ValueId> {
        let rot = &mut self.rot;
        if rot.idx + 1 < rot.batch.len() {
            rot.idx += 1;
            return Some(rot.batch[rot.idx]);
        }
        if rot.exhausted {
            return None;
        }
        self.refill::<TRACK>(plan, stats);
        self.rot.batch.first().copied()
    }

    /// Writes the nodes of the value [`Level::advance`] last yielded into
    /// `frame`, a copy of the open prefix's frame, making it the frame of
    /// the extended prefix.
    #[inline]
    pub(crate) fn scatter_match(&self, frame: &mut [u32]) {
        let w = self.slots.len();
        let nodes = &self.rot.frames[self.rot.idx * w..][..w];
        for (i, &slot) in self.slots.iter().enumerate() {
            frame[slot] = nodes[i];
        }
    }

    /// Binds every live range to its resolved level once, runs one rotation
    /// refill over the bound cursors, and stores their positions back.
    fn refill<const TRACK: bool>(&mut self, plan: &JoinPlan, stats: &mut LevelProbeStats) {
        if self.union {
            // `ranges` holds each participant's live runs contiguously, in
            // participant order; each union borrows its participant's share.
            let mut runs: Vec<RunCursor<'_>> = self
                .parts
                .iter()
                .flat_map(|p| {
                    let live = &self.ranges[p.first..p.first + p.live];
                    live.iter().map(move |&r| RunCursor::bind(plan, p, r))
                })
                .collect();
            let mut rest = runs.as_mut_slice();
            let mut cs = Vec::with_capacity(self.parts.len());
            for p in &self.parts {
                let (subs, tail) = std::mem::take(&mut rest).split_at_mut(p.live);
                cs.push(UnionCursor::new(subs));
                rest = tail;
            }
            self.rot.refill::<_, TRACK>(&mut cs, stats);
            for (r, s) in self.ranges.iter_mut().zip(&runs) {
                r.pos = s.range.pos;
            }
            return;
        }
        // One live range per participant, in participant order.
        let k = self.parts.len();
        let mut inline = [EMPTY_CURSOR; MAX_INLINE_CURSORS];
        let mut heap: Vec<RunCursor<'_>>;
        let cs: &mut [RunCursor<'_>] = if k <= MAX_INLINE_CURSORS {
            for (slot, (p, &r)) in inline.iter_mut().zip(self.parts.iter().zip(&self.ranges)) {
                *slot = RunCursor::bind(plan, p, r);
            }
            &mut inline[..k]
        } else {
            heap = self
                .parts
                .iter()
                .zip(&self.ranges)
                .map(|(p, &r)| RunCursor::bind(plan, p, r))
                .collect();
            &mut heap
        };
        self.rot.refill::<_, TRACK>(cs, stats);
        for (r, c) in self.ranges.iter_mut().zip(cs.iter()) {
            r.pos = c.range.pos;
        }
    }
}

/// Materialises the intersection of the given sorted, duplicate-free slices.
pub fn intersect(slices: &[&[ValueId]]) -> Vec<ValueId> {
    let mut cs: Vec<RunCursor<'_>> = slices
        .iter()
        .map(|&vals| RunCursor {
            vals,
            range: RunRange {
                hi: vals.len() as u32,
                ..RunRange::default()
            },
            ..EMPTY_CURSOR
        })
        .collect();
    let mut rot = Rotation {
        exhausted: cs.is_empty() || cs.iter().any(Cursor::at_end),
        ..Rotation::default()
    };
    let mut out = Vec::new();
    while !rot.exhausted {
        rot.refill::<_, false>(&mut cs, &mut LevelProbeStats::default());
        out.extend_from_slice(&rot.batch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[u32]) -> Vec<ValueId> {
        xs.iter().map(|&x| ValueId(x)).collect()
    }

    #[test]
    fn gallop_finds_first_geq() {
        let s = ids(&[1, 3, 5, 7, 9, 11]);
        assert_eq!(gallop(&s, 0, ValueId(0)), 0);
        assert_eq!(gallop(&s, 0, ValueId(1)), 0);
        assert_eq!(gallop(&s, 0, ValueId(2)), 1);
        assert_eq!(gallop(&s, 0, ValueId(7)), 3);
        assert_eq!(gallop(&s, 0, ValueId(8)), 4);
        assert_eq!(gallop(&s, 0, ValueId(11)), 5);
        assert_eq!(gallop(&s, 0, ValueId(12)), 6);
    }

    #[test]
    fn gallop_respects_lower_bound() {
        let s = ids(&[1, 3, 5, 7]);
        assert_eq!(gallop(&s, 2, ValueId(2)), 2);
        assert_eq!(gallop(&s, 2, ValueId(6)), 3);
        assert_eq!(gallop(&s, 4, ValueId(0)), 4);
    }

    #[test]
    fn gallop_on_long_runs() {
        let s: Vec<ValueId> = (0..1000).map(|i| ValueId(2 * i)).collect();
        for probe in [0u32, 1, 2, 999, 1000, 1998, 1999, 2000, 5000] {
            let want = s
                .iter()
                .position(|&v| v >= ValueId(probe))
                .unwrap_or(s.len());
            assert_eq!(gallop(&s, 0, ValueId(probe)), want, "probe {probe}");
        }
    }

    #[test]
    fn block_seek_finds_first_geq() {
        let s = ids(&[1, 3, 5, 7, 9, 11]);
        assert_eq!(block_seek(&s, 0, ValueId(0)), 0);
        assert_eq!(block_seek(&s, 0, ValueId(1)), 0);
        assert_eq!(block_seek(&s, 0, ValueId(2)), 1);
        assert_eq!(block_seek(&s, 0, ValueId(7)), 3);
        assert_eq!(block_seek(&s, 0, ValueId(8)), 4);
        assert_eq!(block_seek(&s, 0, ValueId(11)), 5);
        assert_eq!(block_seek(&s, 0, ValueId(12)), 6);
    }

    #[test]
    fn block_seek_respects_lower_bound() {
        let s = ids(&[1, 3, 5, 7]);
        assert_eq!(block_seek(&s, 2, ValueId(2)), 2);
        assert_eq!(block_seek(&s, 2, ValueId(6)), 3);
        assert_eq!(block_seek(&s, 4, ValueId(0)), 4);
        assert_eq!(block_seek(&s, 9, ValueId(0)), 9);
        assert_eq!(block_seek(&[], 0, ValueId(5)), 0);
    }

    #[test]
    fn block_seek_matches_gallop_and_counts_work_on_long_runs() {
        // Spans several blocks so the block-gallop + binary-search + residual
        // count_lt path is exercised, not just the first-block fast path.
        let s: Vec<ValueId> = (0..4096).map(|i| ValueId(3 * i)).collect();
        for lo in [0usize, 1, 31, 32, 33, 1000, 4095, 4096, 5000] {
            for probe in [0u32, 1, 95, 96, 97, 3000, 6143, 6144, 12285, 12288, 20000] {
                let t = ValueId(probe);
                let mut steps = 0;
                let pos = block_seek_tracked::<true>(&s, lo, t, &mut steps);
                let want = s.get(lo..).map_or(lo, |tail| {
                    lo + tail.iter().position(|&v| v >= t).unwrap_or(tail.len())
                });
                assert_eq!(pos, want, "lo {lo} probe {probe}");
                assert_eq!(pos, gallop(&s, lo, t), "lo {lo} probe {probe}");
                assert_eq!(pos, block_seek(&s, lo, t));
                assert!(steps >= 1, "steps lo {lo} probe {probe}");
            }
        }
        // A long seek costs more steps than a no-op seek.
        let (mut near, mut far) = (0, 0);
        block_seek_tracked::<true>(&s, 0, ValueId(0), &mut near);
        block_seek_tracked::<true>(&s, 0, ValueId(12285), &mut far);
        assert!(far > near, "far {far} near {near}");
    }

    #[test]
    fn intersect_basic() {
        let a = ids(&[1, 2, 3, 5, 8]);
        let b = ids(&[2, 3, 4, 8, 9]);
        let c = ids(&[0, 2, 8]);
        assert_eq!(intersect(&[&a, &b, &c]), ids(&[2, 8]));
    }

    #[test]
    fn intersect_corner_cases() {
        let a = ids(&[1, 3, 5]);
        assert!(intersect(&[&a, &ids(&[2, 4, 6])]).is_empty());
        assert!(intersect(&[&a, &[]]).is_empty());
        assert!(intersect(&[]).is_empty());
        assert_eq!(intersect(&[&a]), a);
        assert_eq!(intersect(&[&a, &a, &a]), a);
    }

    #[test]
    fn intersect_matches_naive_on_skewed_sizes() {
        let a: Vec<ValueId> = (0..500).map(|i| ValueId(i * 3)).collect();
        let b: Vec<ValueId> = (0..50).map(|i| ValueId(i * 30)).collect();
        let naive: Vec<ValueId> = a.iter().filter(|v| b.contains(v)).copied().collect();
        assert_eq!(intersect(&[&a, &b]), naive);
        assert_eq!(intersect(&[&b, &a]), naive);
    }

    #[test]
    fn intersect_spans_batch_refills() {
        // More matches than one refill buffers.
        let a: Vec<ValueId> = (0..500).map(|i| ValueId(i * 3)).collect();
        let b: Vec<ValueId> = (0..200).map(|i| ValueId(i * 6)).collect();
        let naive: Vec<ValueId> = a.iter().filter(|v| b.contains(v)).copied().collect();
        assert!(naive.len() > PROBE_BATCH);
        assert_eq!(intersect(&[&a, &b]), naive);
        assert_eq!(intersect(&[&b, &a]), naive);
    }

    #[test]
    fn union_cursor_merges_dedups_and_frames_each_run() {
        let (a, b, c) = (ids(&[1, 3, 5]), ids(&[2, 3, 6]), ids(&[3, 5, 9]));
        let mut subs: Vec<RunCursor<'_>> = [&a, &b, &c]
            .iter()
            .enumerate()
            .map(|(run, vals)| RunCursor {
                vals,
                range: RunRange {
                    run: run as u32,
                    hi: vals.len() as u32,
                    ..RunRange::default()
                },
                nruns: 3,
                ..EMPTY_CURSOR
            })
            .collect();
        let mut u = UnionCursor::new(&mut subs);
        let mut seen = Vec::new();
        while !u.at_end() {
            let mut frame = Vec::new();
            u.push_match_nodes(&mut frame);
            seen.push((u.key().0, frame));
            u.next();
        }
        let x = ABSENT;
        assert_eq!(
            seen,
            vec![
                (1, vec![0, x, x]),
                (2, vec![x, 0, x]),
                (3, vec![1, 1, 0]),
                (5, vec![2, x, 1]),
                (6, vec![x, 2, x]),
                (9, vec![x, x, 2]),
            ]
        );
    }
}
