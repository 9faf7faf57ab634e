//! Join instrumentation: the intermediate-result sizes the paper plots.
//!
//! Figure 3 of the paper compares engines on two axes — running time and
//! *intermediate result size*. [`JoinStats`] records, for every expansion
//! stage of a level-wise engine (or every operator of a binary plan), how
//! many tuples were materialised, so benchmarks can report the exact series
//! behind the paper's bar chart.
//!
//! Cold-query latency has a third axis the paper's plots fold into running
//! time: *index construction*. [`BuildStats`] describes one
//! [`crate::trie::TrieBuilder`] run (which sort path engaged, how many rows
//! went in, how long it took), and [`JoinStats::build_elapsed`] /
//! [`JoinStats::tries_built`] carry the aggregate trie-construction cost of
//! a query so benchmarks can report build vs probe time separately.

use crate::schema::Attr;
use crate::trie::LevelLayout;
use std::fmt;
use std::time::Duration;

/// Which sorting strategy a [`crate::trie::TrieBuilder`] run used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortPath {
    /// The input rows were already sorted under the requested column order;
    /// sorting was skipped entirely.
    AlreadySorted,
    /// LSD counting/radix sort over the dense `ValueId` domain (engages when
    /// the domain is small relative to the row count).
    Radix,
    /// In-place columnar comparison sort of the row permutation.
    Comparison,
}

impl fmt::Display for SortPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SortPath::AlreadySorted => write!(f, "pre-sorted"),
            SortPath::Radix => write!(f, "radix"),
            SortPath::Comparison => write!(f, "comparison"),
        }
    }
}

/// Cost profile of one trie construction (see
/// [`crate::trie::TrieBuilder::last_stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildStats {
    /// Input rows (duplicates included).
    pub rows_in: usize,
    /// Distinct tuples stored in the trie.
    pub tuples: usize,
    /// The sort strategy that engaged.
    pub path: SortPath,
    /// Physical layout chosen for each trie level, root level first (empty
    /// for nullary builds).
    pub layouts: Vec<LevelLayout>,
    /// Wall-clock time of the build.
    pub elapsed: Duration,
}

impl fmt::Display for BuildStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rows_in={} tuples={} path={} layouts=[",
            self.rows_in, self.tuples, self.path
        )?;
        for (i, l) in self.layouts.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, "] elapsed={:?}", self.elapsed)
    }
}

/// Cheap per-level probe counters for one attribute level of an LFTJ walk.
///
/// Collected only when [`crate::lftj::LftjWalk::with_probe_counters`] opts
/// in; the counting path is monomorphised separately so the default walk
/// pays nothing. These are the raw signals behind `explain_analyze`'s
/// actual-vs-Lemma-3.5 tightness report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelProbeStats {
    /// Values bound at this level — distinct matching prefixes of length
    /// `level + 1`, the quantity Lemma 3.5 bounds per prefix.
    pub bindings: u64,
    /// Seek operations issued against cursors at this level (block or
    /// bitset seeks alike; a union cursor counts one per lagging run).
    pub seeks: u64,
    /// Probe steps spent inside sorted-array seeks: exponential-gallop
    /// probes, binary-search halvings, and scanned blocks combined.
    pub seek_steps: u64,
    /// Batch refills of the leapfrog rotation: each buffers up to 32
    /// matches, so this counts the rotation's resumptions.
    pub refills: u64,
    /// Bitmap words examined by bitset-level seeks.
    pub bitset_words: u64,
}

impl fmt::Display for LevelProbeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bindings={} seeks={} seek_steps={} refills={} bitset_words={}",
            self.bindings, self.seeks, self.seek_steps, self.refills, self.bitset_words
        )
    }
}

/// Tuple count after one stage of a join pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStats {
    /// Human-readable stage label (for level-wise engines, the variable that
    /// was expanded; for binary plans, the operator description).
    pub label: String,
    /// Number of tuples materialised by this stage.
    pub tuples: usize,
}

/// Instrumentation collected while running a join.
#[derive(Debug, Clone, Default)]
pub struct JoinStats {
    /// Per-stage materialised tuple counts, in execution order.
    pub stages: Vec<StageStats>,
    /// Number of result tuples.
    pub output_rows: usize,
    /// Wall-clock execution time (excluding input loading, including trie or
    /// hash-table construction when the engine builds them itself).
    pub elapsed: Duration,
    /// Time spent constructing tries for this run (a subset of `elapsed` on
    /// cold runs; zero when every trie came from a cache). Benchmarks
    /// subtract it from `elapsed` to isolate probe time.
    pub build_elapsed: Duration,
    /// Number of tries actually built (cache hits excluded).
    pub tries_built: usize,
    /// Number of trie levels across the plan's tries carrying the
    /// [`LevelLayout::Bitset`] layout (0 for non-trie engines).
    pub bitset_levels: usize,
    /// Number of delta runs overlaid on the plan's base tries (0 when every
    /// atom was solid). Every engine unions these lazily; see
    /// `relational::delta`.
    pub delta_runs: usize,
    /// Adaptive-ordering decisions that deviated from the static schedule
    /// (0 for static plans and for level-wise engines, which run the
    /// skeleton order).
    pub reorders: u64,
    /// Candidate-variable estimates computed by the adaptive chooser — the
    /// estimate-maintenance cost meter.
    pub estimate_probes: u64,
}

impl JoinStats {
    /// Records a stage.
    pub fn record(&mut self, label: impl Into<String>, tuples: usize) {
        self.stages.push(StageStats {
            label: label.into(),
            tuples,
        });
    }

    /// Records a variable-expansion stage.
    pub fn record_var(&mut self, var: &Attr, tuples: usize) {
        self.record(format!("expand {var}"), tuples);
    }

    /// The largest intermediate result produced at any stage — the quantity
    /// bounded by the paper's Lemma 3.5 for XJoin.
    pub fn max_intermediate(&self) -> usize {
        self.stages.iter().map(|s| s.tuples).max().unwrap_or(0)
    }

    /// Total tuples materialised across all stages (a proxy for memory
    /// traffic / work done).
    pub fn total_intermediate(&self) -> u64 {
        self.stages.iter().map(|s| s.tuples as u64).sum()
    }
}

impl fmt::Display for JoinStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "output={} max_intermediate={} total_intermediate={} elapsed={:?}",
            self.output_rows,
            self.max_intermediate(),
            self.total_intermediate(),
            self.elapsed
        )?;
        if self.tries_built > 0 {
            writeln!(
                f,
                "  built {} trie(s) in {:?}",
                self.tries_built, self.build_elapsed
            )?;
        }
        if self.bitset_levels > 0 {
            writeln!(f, "  {} bitset level(s)", self.bitset_levels)?;
        }
        if self.reorders > 0 || self.estimate_probes > 0 {
            writeln!(
                f,
                "  adaptive: {} reorder(s), {} estimate probe(s)",
                self.reorders, self.estimate_probes
            )?;
        }
        for s in &self.stages {
            writeln!(f, "  {:<24} {:>12}", s.label, s.tuples)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_and_total_aggregate_stages() {
        let mut st = JoinStats::default();
        st.record("expand a", 10);
        st.record("expand b", 250);
        st.record("expand c", 50);
        assert_eq!(st.max_intermediate(), 250);
        assert_eq!(st.total_intermediate(), 310);
    }

    #[test]
    fn empty_stats_are_zero() {
        let st = JoinStats::default();
        assert_eq!(st.max_intermediate(), 0);
        assert_eq!(st.total_intermediate(), 0);
    }

    #[test]
    fn record_var_labels_with_variable() {
        let mut st = JoinStats::default();
        st.record_var(&Attr::new("ISBN"), 3);
        assert!(st.stages[0].label.contains("ISBN"));
    }

    #[test]
    fn display_contains_summary() {
        let mut st = JoinStats::default();
        st.record("expand a", 4);
        st.output_rows = 4;
        let text = st.to_string();
        assert!(text.contains("output=4"));
        assert!(text.contains("expand a"));
    }

    #[test]
    fn build_stats_display_lists_layouts() {
        let st = BuildStats {
            rows_in: 10,
            tuples: 8,
            path: SortPath::Radix,
            layouts: vec![LevelLayout::Bitset, LevelLayout::SortedVec],
            elapsed: Duration::from_millis(1),
        };
        let text = st.to_string();
        assert!(text.contains("layouts=[bitset,sorted]"), "{text}");
    }

    #[test]
    fn join_stats_display_reports_bitset_levels() {
        let st = JoinStats {
            bitset_levels: 3,
            ..JoinStats::default()
        };
        assert!(st.to_string().contains("3 bitset level(s)"));
    }
}
