//! Index abstractions shared by every index implementation in the workspace.
//!
//! The experiment harness (crates/bench) drives ALEX, LIPP, SALI, PGM and the
//! B+-tree through the [`LearnedIndex`] trait so that every figure/table of
//! the paper can be regenerated with the same driver code, and gathers the
//! structural statistics the paper reports through [`IndexStats`].

use crate::key::{Key, KeyValue, Value};
use crate::metrics::CostCounters;
use core::ops::ControlFlow;
use serde::{Deserialize, Serialize};

/// Histogram of how many keys live at each level of a hierarchical index
/// (level 1 = root, as in Fig. 1 of the paper).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelHistogram {
    counts: Vec<usize>,
}

impl LevelHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `count` keys at 1-based `level`.
    pub fn record(&mut self, level: usize, count: usize) {
        assert!(level >= 1, "levels are 1-based");
        if self.counts.len() < level {
            self.counts.resize(level, 0);
        }
        self.counts[level - 1] += count;
    }

    /// Number of keys recorded at 1-based `level`.
    pub fn at(&self, level: usize) -> usize {
        if level == 0 || level > self.counts.len() {
            0
        } else {
            self.counts[level - 1]
        }
    }

    /// The deepest level with at least one key (0 when empty).
    pub fn max_level(&self) -> usize {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1)
    }

    /// Total number of keys recorded.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Number of keys at `level` or deeper. The paper calls keys at level 3
    /// or below "promotable".
    pub fn at_or_below(&self, level: usize) -> usize {
        if level == 0 {
            return self.total();
        }
        self.counts.iter().skip(level - 1).sum()
    }

    /// Iterates `(level, count)` pairs for non-empty levels.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i + 1, c))
    }
}

/// Structural statistics reported by an index, matching the metrics used in
/// the paper's evaluation (§6.1): level distribution, node counts, and size.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IndexStats {
    /// Keys per level (level 1 = root node).
    pub level_histogram: LevelHistogram,
    /// Total number of nodes (internal + leaf / data nodes).
    pub node_count: usize,
    /// Number of nodes at level 3 or deeper (the pool that CSV can remove).
    pub deep_node_count: usize,
    /// Height of the index (number of levels).
    pub height: usize,
    /// Estimated in-memory size in bytes (models + slot arrays + metadata).
    pub size_bytes: usize,
    /// Number of stored (real) keys.
    pub num_keys: usize,
}

impl IndexStats {
    /// Fraction of keys at level 3 or deeper — the "promotable" pool.
    pub fn promotable_keys(&self) -> usize {
        self.level_histogram.at_or_below(3)
    }

    /// Average (1-based) level of a key, i.e. the expected traversal depth.
    pub fn mean_key_level(&self) -> f64 {
        let total = self.level_histogram.total();
        if total == 0 {
            return 0.0;
        }
        let weighted: usize = self.level_histogram.iter().map(|(l, c)| l * c).sum();
        weighted as f64 / total as f64
    }
}

/// The common interface every index in the workspace implements.
///
/// All indexes are keyed by [`Key`] and store a [`Value`]; bulk loading takes
/// a strictly increasing key/value sequence (the normalisation applied to all
/// datasets, mirroring the paper's de-duplication step).
pub trait LearnedIndex {
    /// Human-readable name used in experiment output (e.g. `"LIPP"`).
    fn name(&self) -> &'static str;

    /// Builds the index over a sorted, de-duplicated record slice.
    fn bulk_load(records: &[KeyValue]) -> Self
    where
        Self: Sized;

    /// Point lookup.
    fn get(&self, key: Key) -> Option<Value>;

    /// Point lookup that also charges traversal/search costs to `counters`,
    /// used for the machine-independent measurements.
    fn get_counted(&self, key: Key, counters: &mut CostCounters) -> Option<Value>;

    /// Inserts (or overwrites) a record. Returns `true` when the key was new.
    fn insert(&mut self, key: Key, value: Value) -> bool;

    /// Number of stored (real) keys.
    fn len(&self) -> usize;

    /// `true` when no keys are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Structural statistics (levels, node counts, size) for the evaluation.
    fn stats(&self) -> IndexStats;

    /// The 1-based level at which `key` is stored, when present. Used to
    /// compute the paper's "promoted data" metric.
    fn level_of_key(&self, key: Key) -> Option<usize>;

    /// Batched point lookup: `out[i] = self.get(keys[i])` for every `i`
    /// (duplicates and absent keys included), which is all the default does.
    ///
    /// An index overrides it when it can overlap the lookups of a batch. A
    /// loop of independent `get`s cannot: each level of a walk ends in a
    /// data-dependent branch (record or child?), and when the branch is
    /// mispredicted the core discards the younger lookups' loads it had
    /// started, so the misses are paid one after another. A prefetch pass
    /// ahead of that loop does not help either — it can only reach the first
    /// level without performing the dependent loads itself (root-only
    /// prefetching measured ≤ 1.10× and 0.98× at batch 256; descending in the
    /// prefetch pass measured 10–30 % *slower*). Walking [`LOOKUP_BLOCK`]
    /// keys **in lockstep**, level by level, issues every key's load for a
    /// level before any branch consumes one; see `LippIndex::get_many`.
    ///
    /// # Panics
    /// When `keys` and `out` differ in length.
    fn get_many(&self, keys: &[Key], out: &mut [Option<Value>]) {
        assert_eq!(keys.len(), out.len(), "one output slot per key");
        for (slot, &key) in out.iter_mut().zip(keys) {
            *slot = self.get(key);
        }
    }
}

/// Keys walked together by a lockstep [`LearnedIndex::get_many`], and the
/// size of the blocks batched readers gather for it. Sixteen independent
/// loads per level is more than the ten or twelve line-fill buffers of the
/// cores this runs on can hold in flight, so a larger block buys nothing,
/// and the per-block state (a few machine words per key) stays on the stack.
pub const LOOKUP_BLOCK: usize = 16;

/// Range scans over an index.
///
/// The paper's evaluation only measures point lookups and inserts, but every
/// index it integrates with (ALEX, LIPP, SALI) supports range queries in its
/// original implementation, and a downstream user of this crate will expect
/// them; the integration tests verify all implementations against a
/// `BTreeMap` oracle.
pub trait RangeIndex: LearnedIndex {
    /// Returns every record with `lo <= key <= hi`, in ascending key order.
    fn range(&self, lo: Key, hi: Key) -> Vec<KeyValue>;

    /// Streams every record with `lo <= key <= hi` to `f` in ascending key
    /// order, without materialising an intermediate `Vec`.
    ///
    /// Returns [`ControlFlow::Break`] **iff `f` broke** (early termination,
    /// e.g. a `limit` was reached mid-scan); exhausting the range naturally
    /// returns [`ControlFlow::Continue`]. The default implementation walks
    /// the materialised [`RangeIndex::range`] result; native implementations
    /// override it to walk their nodes allocation-free and to stop
    /// descending as soon as `f` breaks.
    fn range_visit(
        &self,
        lo: Key,
        hi: Key,
        f: &mut dyn FnMut(Key, Value) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        for rec in self.range(lo, hi) {
            f(rec.key, rec.value)?;
        }
        ControlFlow::Continue(())
    }

    /// Number of records with `lo <= key <= hi`.
    fn count_range(&self, lo: Key, hi: Key) -> usize {
        self.range(lo, hi).len()
    }
}

/// Collects a [`RangeIndex::range_visit`] stream into a `Vec`, optionally
/// stopping after `limit` records (`limit == 0` means unlimited). Shared by
/// the `range ≡ collected range_visit` equivalence tests at every layer.
pub fn collect_range_visit<I: RangeIndex + ?Sized>(
    index: &I,
    lo: Key,
    hi: Key,
    limit: usize,
) -> Vec<KeyValue> {
    let mut out = Vec::new();
    let _ = index.range_visit(lo, hi, &mut |key, value| {
        out.push(KeyValue { key, value });
        if limit != 0 && out.len() >= limit {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    out
}

/// Point deletions from an index.
pub trait RemovableIndex: LearnedIndex {
    /// Removes `key` and returns its value when it was present.
    fn remove(&mut self, key: Key) -> Option<Value>;
}

/// An index that can serve as an immutable RCU snapshot.
///
/// The concurrent layer's lock-free read path publishes whole per-shard
/// indexes behind an atomic pointer: readers dereference the published
/// snapshot without locks, and writers/maintenance build a *successor* off
/// to the side — starting from a [`Clone`] of the live snapshot — and swap
/// it in. That only works when:
///
/// * cloning is a **pure deep copy**: the clone shares no interior
///   mutability with the original, so mutating it never perturbs readers
///   of the live snapshot (a `derive(Clone)` over `Vec`-based node arenas
///   satisfies this; an index holding `Rc`/`Arc`-shared nodes or interior
///   `Cell`s would not), and
/// * the clone's cost is **O(data)** with a small constant — a handful of
///   `memcpy`s over the node arenas — because maintenance pays it on every
///   copy-on-write publication.
///
/// This is a marker trait: implementations assert the two properties above
/// for their concrete layout rather than getting them from a blanket impl,
/// which is also where each index documents what its clone actually copies.
pub trait SnapshotIndex: LearnedIndex + Clone + Send + Sync {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_histogram_accounting() {
        let mut h = LevelHistogram::new();
        h.record(1, 10);
        h.record(2, 20);
        h.record(4, 5);
        assert_eq!(h.at(1), 10);
        assert_eq!(h.at(3), 0);
        assert_eq!(h.at(4), 5);
        assert_eq!(h.max_level(), 4);
        assert_eq!(h.total(), 35);
        assert_eq!(h.at_or_below(3), 5);
        assert_eq!(h.at_or_below(1), 35);
        assert_eq!(h.at_or_below(0), 35);
        let levels: Vec<_> = h.iter().collect();
        assert_eq!(levels, vec![(1, 10), (2, 20), (4, 5)]);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn level_zero_rejected() {
        LevelHistogram::new().record(0, 1);
    }

    #[test]
    fn stats_mean_level_and_promotable() {
        let mut stats = IndexStats::default();
        stats.level_histogram.record(1, 2);
        stats.level_histogram.record(3, 2);
        assert_eq!(stats.promotable_keys(), 2);
        assert!((stats.mean_key_level() - 2.0).abs() < 1e-12);
        let empty = IndexStats::default();
        assert_eq!(empty.mean_key_level(), 0.0);
    }
}
