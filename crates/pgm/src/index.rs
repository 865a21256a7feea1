//! The PGM index implementation.

use core::ops::ControlFlow;
use csv_common::metrics::CostCounters;
use csv_common::pla::{locate_segment, Segment, SegmentationBuilder};
use csv_common::traits::{
    IndexStats, LearnedIndex, LevelHistogram, RangeIndex, RemovableIndex, SnapshotIndex,
};
use csv_common::{Key, KeyValue, Value};

/// Construction parameters of the PGM index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PgmConfig {
    /// Error bound ε of every level's segmentation.
    pub epsilon: usize,
    /// The delta buffer is merged into the static structure once it exceeds
    /// `len / rebuild_divisor` entries.
    pub rebuild_divisor: usize,
}

impl Default for PgmConfig {
    fn default() -> Self {
        Self {
            epsilon: 64,
            rebuild_divisor: 8,
        }
    }
}

/// A recursive ε-bounded piecewise-linear learned index.
#[derive(Debug, Clone)]
pub struct PgmIndex {
    config: PgmConfig,
    /// Sorted keys of the static part.
    keys: Vec<Key>,
    /// Values aligned with `keys`.
    values: Vec<Value>,
    /// `levels[0]` segments the data keys; `levels[i]` segments the first
    /// keys of `levels[i-1]`. The last level has a single segment.
    levels: Vec<Vec<Segment>>,
    /// First keys of each level's segments (for the level above).
    level_keys: Vec<Vec<Key>>,
    /// Sorted delta buffer of inserts not yet merged.
    buffer: Vec<(Key, Value)>,
    /// Sorted tombstones: keys of the static part that have been removed but
    /// not yet compacted out (applied during the next merge).
    tombstones: Vec<Key>,
}

impl PgmIndex {
    /// Builds the index with a custom configuration.
    pub fn with_config(records: &[KeyValue], config: PgmConfig) -> Self {
        let keys: Vec<Key> = records.iter().map(|r| r.key).collect();
        let values: Vec<Value> = records.iter().map(|r| r.value).collect();
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "records must be sorted and unique"
        );
        let mut index = Self {
            config,
            keys,
            values,
            levels: Vec::new(),
            level_keys: Vec::new(),
            buffer: Vec::new(),
            tombstones: Vec::new(),
        };
        index.rebuild_levels();
        index
    }

    fn rebuild_levels(&mut self) {
        self.levels.clear();
        self.level_keys.clear();
        if self.keys.is_empty() {
            return;
        }
        let builder = SegmentationBuilder::new(self.config.epsilon);
        let mut current: Vec<Segment> = builder.build(&self.keys);
        loop {
            let firsts: Vec<Key> = current.iter().map(|s| s.first_key).collect();
            let single = current.len() == 1;
            self.levels.push(current);
            self.level_keys.push(firsts);
            if single {
                break;
            }
            let firsts = self.level_keys.last().unwrap();
            current = builder.build(firsts);
        }
    }

    /// Number of PLA levels (1 = a single segment covers all keys).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The error bound used for every level.
    pub fn epsilon(&self) -> usize {
        self.config.epsilon
    }

    /// Number of buffered (not yet merged) inserts.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Number of tombstoned (removed but not yet compacted) static keys.
    pub fn tombstoned(&self) -> usize {
        self.tombstones.len()
    }

    /// `true` when `key` has been removed from the static part and not yet
    /// compacted away.
    fn is_tombstoned(&self, key: Key) -> bool {
        self.tombstones.binary_search(&key).is_ok()
    }

    fn search_static(&self, key: Key, counters: Option<&mut CostCounters>) -> Option<Value> {
        if self.keys.is_empty() {
            return None;
        }
        let eps = self.config.epsilon;
        let mut nodes_visited = 0usize;
        let mut comparisons = 0usize;
        // Descend from the top level to the data level. At each level we know
        // a position estimate from the level above; the window to search is
        // ±ε around it.
        let mut pos_hint = 0usize;
        for (depth, level) in self.levels.iter().enumerate().rev() {
            nodes_visited += 1;
            let seg = if depth == self.levels.len() - 1 {
                // Topmost level: single segment (or tiny list) — locate by key.
                locate_segment(level, key)
            } else {
                // Use the hint from the level above: it is an index into this
                // level's segment array; refine by scanning the ±ε window
                // (widened by one on each side to absorb the rounding of the
                // prediction and the rank-vs-segment-index off-by-one).
                let lo = pos_hint.saturating_sub(eps + 2);
                let hi = (pos_hint + eps + 2).min(level.len());
                let window = &level[lo..hi.max(lo + 1).min(level.len())];
                comparisons += (window.len().max(1)).ilog2() as usize + 1;
                locate_segment(window, key)
            };
            let predicted = seg.predict(key);
            if depth == 0 {
                // Data level: binary search the ±ε window of the key array.
                let lo = predicted.saturating_sub(eps + 2).min(self.keys.len());
                let hi = (predicted + eps + 2).min(self.keys.len());
                comparisons += ((hi - lo).max(1)).ilog2() as usize + 1;
                let mut out = csv_common::binary_search_bounded(&self.keys, key, lo, hi);
                if !out.found {
                    // Robustness fallback: if a mid-level window missed the
                    // right segment (possible when a query key falls between
                    // two segments' key ranges), a full binary search keeps
                    // the index correct at O(log n) extra cost.
                    out = csv_common::binary_search_bounded(&self.keys, key, 0, self.keys.len());
                }
                if let Some(c) = counters {
                    c.nodes_visited += nodes_visited;
                    c.comparisons += comparisons + out.comparisons;
                    c.model_evals += self.levels.len();
                }
                return if out.found {
                    Some(self.values[out.position])
                } else {
                    None
                };
            }
            pos_hint = predicted;
        }
        None
    }

    fn maybe_merge(&mut self) {
        let threshold = (self.keys.len() / self.config.rebuild_divisor.max(1)).max(64);
        if self.buffer.len() + self.tombstones.len() < threshold {
            return;
        }
        self.compact();
    }

    /// Merges the insert buffer into the static arrays, drops tombstoned
    /// keys, and rebuilds the PLA levels.
    pub fn compact(&mut self) {
        let mut merged_keys = Vec::with_capacity(self.keys.len() + self.buffer.len());
        let mut merged_values = Vec::with_capacity(self.keys.len() + self.buffer.len());
        let mut i = 0usize;
        let mut j = 0usize;
        while i < self.keys.len() || j < self.buffer.len() {
            let take_static = match (self.keys.get(i), self.buffer.get(j)) {
                (Some(&k), Some(&(bk, _))) => k < bk,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_static {
                if !self.is_tombstoned(self.keys[i]) {
                    merged_keys.push(self.keys[i]);
                    merged_values.push(self.values[i]);
                }
                i += 1;
            } else {
                merged_keys.push(self.buffer[j].0);
                merged_values.push(self.buffer[j].1);
                j += 1;
            }
        }
        self.keys = merged_keys;
        self.values = merged_values;
        self.buffer.clear();
        self.tombstones.clear();
        self.rebuild_levels();
    }
}

impl LearnedIndex for PgmIndex {
    fn name(&self) -> &'static str {
        "PGM"
    }

    fn bulk_load(records: &[KeyValue]) -> Self {
        Self::with_config(records, PgmConfig::default())
    }

    fn get(&self, key: Key) -> Option<Value> {
        if let Ok(i) = self.buffer.binary_search_by_key(&key, |&(k, _)| k) {
            return Some(self.buffer[i].1);
        }
        if self.is_tombstoned(key) {
            return None;
        }
        self.search_static(key, None)
    }

    fn get_counted(&self, key: Key, counters: &mut CostCounters) -> Option<Value> {
        if let Ok(i) = self.buffer.binary_search_by_key(&key, |&(k, _)| k) {
            counters.comparisons += (self.buffer.len().max(1)).ilog2() as usize + 1;
            return Some(self.buffer[i].1);
        }
        if !self.buffer.is_empty() {
            counters.comparisons += (self.buffer.len().max(1)).ilog2() as usize + 1;
        }
        if self.is_tombstoned(key) {
            counters.comparisons += (self.tombstones.len().max(1)).ilog2() as usize + 1;
            return None;
        }
        self.search_static(key, Some(counters))
    }

    fn insert(&mut self, key: Key, value: Value) -> bool {
        // A key that was tombstoned is logically absent: re-inserting it
        // revives the static slot and counts as a new key.
        if let Ok(t) = self.tombstones.binary_search(&key) {
            self.tombstones.remove(t);
            if let Ok(slot) = self.keys.binary_search(&key) {
                self.values[slot] = value;
            }
            return true;
        }
        // Overwrite in the static part if present.
        if let Ok(slot) = self.keys.binary_search(&key) {
            self.values[slot] = value;
            return false;
        }
        let new = match self.buffer.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => {
                self.buffer[i].1 = value;
                false
            }
            Err(i) => {
                self.buffer.insert(i, (key, value));
                true
            }
        };
        if new {
            self.maybe_merge();
        }
        new
    }

    fn len(&self) -> usize {
        self.keys.len() + self.buffer.len() - self.tombstones.len()
    }

    fn stats(&self) -> IndexStats {
        let height = self.num_levels().max(1);
        let mut histogram = LevelHistogram::new();
        if !self.keys.is_empty() || !self.buffer.is_empty() {
            // All data keys are reached after descending `height` levels.
            histogram.record(height, self.len());
        }
        let seg_count: usize = self.levels.iter().map(|l| l.len()).sum();
        let size_bytes = self.keys.len() * 16
            + self.buffer.len() * 16
            + seg_count * std::mem::size_of::<Segment>();
        IndexStats {
            level_histogram: histogram,
            node_count: seg_count.max(1),
            deep_node_count: if height >= 3 {
                self.levels.first().map_or(0, |l| l.len())
            } else {
                0
            },
            height,
            size_bytes,
            num_keys: self.len(),
        }
    }

    fn level_of_key(&self, key: Key) -> Option<usize> {
        if self.get(key).is_some() {
            Some(self.num_levels().max(1))
        } else {
            None
        }
    }
}

impl RangeIndex for PgmIndex {
    fn range(&self, lo: Key, hi: Key) -> Vec<KeyValue> {
        let mut out = Vec::new();
        let _ = self.range_visit(lo, hi, &mut |k, v| {
            out.push(KeyValue::new(k, v));
            ControlFlow::Continue(())
        });
        out
    }

    fn range_visit(
        &self,
        lo: Key,
        hi: Key,
        f: &mut dyn FnMut(Key, Value) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if lo > hi {
            return ControlFlow::Continue(());
        }
        // Merge the sorted static part (minus tombstones) with the sorted
        // insert buffer, restricted to [lo, hi], streaming each record to
        // `f` as the two cursors advance.
        let mut i = self.keys.partition_point(|&k| k < lo);
        let mut j = self.buffer.partition_point(|&(k, _)| k < lo);
        while i < self.keys.len() || j < self.buffer.len() {
            let static_key = self.keys.get(i).copied().filter(|&k| k <= hi);
            let buffer_key = self.buffer.get(j).map(|&(k, _)| k).filter(|&k| k <= hi);
            match (static_key, buffer_key) {
                (None, None) => break,
                (Some(k), bk) if bk.is_none_or(|b| k < b) => {
                    if !self.is_tombstoned(k) {
                        f(k, self.values[i])?;
                    }
                    i += 1;
                }
                (_, Some(_)) => {
                    f(self.buffer[j].0, self.buffer[j].1)?;
                    j += 1;
                }
                _ => break,
            }
        }
        ControlFlow::Continue(())
    }
}

/// Snapshot audit: `derive(Clone)` deep-copies the static key/value
/// arrays, the recursive segment levels, the delta buffer and the
/// tombstone list — all plain `Vec`s, so the clone is an independent
/// O(keys) copy.
impl SnapshotIndex for PgmIndex {}

impl RemovableIndex for PgmIndex {
    fn remove(&mut self, key: Key) -> Option<Value> {
        // Buffered inserts are removed in place; static keys are tombstoned
        // and compacted out during the next merge.
        if let Ok(i) = self.buffer.binary_search_by_key(&key, |&(k, _)| k) {
            let (_, value) = self.buffer.remove(i);
            return Some(value);
        }
        if self.is_tombstoned(key) {
            return None;
        }
        if let Ok(slot) = self.keys.binary_search(&key) {
            let value = self.values[slot];
            let at = self.tombstones.partition_point(|&t| t < key);
            self.tombstones.insert(at, key);
            self.maybe_merge();
            return Some(value);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csv_common::key::identity_records;

    fn clustered_keys(n: u64) -> Vec<Key> {
        // Alternating dense and sparse regions to force several segments.
        let mut keys = Vec::new();
        let mut base = 0u64;
        for block in 0..n / 100 {
            let stride = if block % 2 == 0 { 1 } else { 1000 };
            for i in 0..100u64 {
                keys.push(base + i * stride);
            }
            base += 100 * stride + 10_000;
        }
        keys
    }

    #[test]
    fn bulk_load_and_lookup() {
        let keys = clustered_keys(20_000);
        let index = PgmIndex::bulk_load(&identity_records(&keys));
        assert_eq!(index.len(), keys.len());
        assert!(
            index.num_levels() >= 2,
            "clustered keys should need multiple levels"
        );
        for &k in keys.iter().step_by(37) {
            assert_eq!(index.get(k), Some(k));
        }
        assert_eq!(index.get(keys[keys.len() - 1] + 1), None);
        assert_eq!(index.name(), "PGM");
    }

    #[test]
    fn epsilon_trades_levels_for_search_window() {
        let keys = clustered_keys(30_000);
        let tight = PgmIndex::with_config(
            &identity_records(&keys),
            PgmConfig {
                epsilon: 8,
                rebuild_divisor: 8,
            },
        );
        let loose = PgmIndex::with_config(
            &identity_records(&keys),
            PgmConfig {
                epsilon: 256,
                rebuild_divisor: 8,
            },
        );
        let tight_segments = tight.stats().node_count;
        let loose_segments = loose.stats().node_count;
        assert!(tight_segments >= loose_segments);
        assert_eq!(tight.epsilon(), 8);
        for &k in keys.iter().step_by(501) {
            assert_eq!(tight.get(k), Some(k));
            assert_eq!(loose.get(k), Some(k));
        }
    }

    #[test]
    fn inserts_buffer_then_merge() {
        let keys: Vec<Key> = (0..10_000u64).map(|i| i * 4).collect();
        let mut index = PgmIndex::bulk_load(&identity_records(&keys));
        let before_levels = index.num_levels();
        for i in 0..2_000u64 {
            assert!(index.insert(i * 4 + 1, i));
        }
        assert_eq!(index.len(), 12_000);
        // The buffer must have been merged at least once.
        assert!(index.buffered() < 2_000);
        for i in 0..2_000u64 {
            assert_eq!(index.get(i * 4 + 1), Some(i));
        }
        // Overwrites do not change the length.
        assert!(!index.insert(0, 99));
        assert_eq!(index.get(0), Some(99));
        assert_eq!(index.len(), 12_000);
        assert!(index.num_levels() >= 1);
        let _ = before_levels;
    }

    #[test]
    fn empty_index() {
        let index = PgmIndex::bulk_load(&[]);
        assert!(index.is_empty());
        assert_eq!(index.get(1), None);
        assert_eq!(index.num_levels(), 0);
        assert_eq!(index.level_of_key(1), None);
    }

    #[test]
    fn counted_lookup_charges_costs() {
        let keys = clustered_keys(20_000);
        let index = PgmIndex::bulk_load(&identity_records(&keys));
        let mut counters = CostCounters::new();
        assert_eq!(index.get_counted(keys[777], &mut counters), Some(keys[777]));
        assert!(counters.nodes_visited >= 1);
        assert!(counters.comparisons >= 1);
        assert!(counters.model_evals >= 1);
    }

    #[test]
    fn range_scans_cover_static_and_buffered_records() {
        let keys: Vec<Key> = (0..10_000u64).map(|i| i * 10).collect();
        let mut index = PgmIndex::bulk_load(&identity_records(&keys));
        // Buffer a handful of fresh keys without triggering a merge.
        for i in 0..50u64 {
            index.insert(i * 10 + 5, i);
        }
        let lo = 200;
        let hi = 705;
        let got = index.range(lo, hi);
        let mut expected: Vec<Key> = keys
            .iter()
            .copied()
            .filter(|&k| k >= lo && k <= hi)
            .collect();
        expected.extend(
            (0..50u64)
                .map(|i| i * 10 + 5)
                .filter(|&k| k >= lo && k <= hi),
        );
        expected.sort_unstable();
        assert_eq!(got.iter().map(|r| r.key).collect::<Vec<_>>(), expected);
        assert!(got.windows(2).all(|w| w[0].key < w[1].key));
        assert!(index.range(3, 4).is_empty());
        assert!(index.range(hi, lo).is_empty());
        assert_eq!(index.range(0, u64::MAX).len(), index.len());
    }

    #[test]
    fn removals_tombstone_then_compact() {
        let keys: Vec<Key> = (0..5_000u64).map(|i| i * 3).collect();
        let mut index = PgmIndex::bulk_load(&identity_records(&keys));
        let before = index.len();
        // Remove a static key: it is tombstoned, invisible, and excluded from
        // ranges and the length.
        assert_eq!(index.remove(300), Some(300));
        assert_eq!(index.get(300), None);
        assert_eq!(index.remove(300), None);
        assert_eq!(index.len(), before - 1);
        assert!(index.range(297, 303).iter().all(|r| r.key != 300));
        // Remove a buffered key.
        index.insert(301, 42);
        assert_eq!(index.remove(301), Some(42));
        assert_eq!(index.get(301), None);
        // Re-inserting a tombstoned key revives it.
        assert!(index.insert(300, 77));
        assert_eq!(index.get(300), Some(77));
        assert_eq!(index.len(), before);
        // Force a compaction and verify tombstoned keys are dropped for good.
        assert_eq!(index.remove(600), Some(600));
        index.compact();
        assert_eq!(index.tombstoned(), 0);
        assert_eq!(index.get(600), None);
        assert_eq!(index.len(), before - 1);
        for &k in keys.iter().step_by(97) {
            if k != 600 {
                assert_eq!(index.get(k), Some(if k == 300 { 77 } else { k }));
            }
        }
    }

    #[test]
    fn many_removals_trigger_automatic_compaction() {
        let keys: Vec<Key> = (0..20_000u64).map(|i| i * 2).collect();
        let mut index = PgmIndex::bulk_load(&identity_records(&keys));
        for &k in keys.iter().take(10_000) {
            assert_eq!(index.remove(k), Some(k));
        }
        assert_eq!(index.len(), 10_000);
        // The tombstone list must have been compacted along the way rather
        // than growing without bound.
        assert!(index.tombstoned() < 10_000);
        for &k in keys.iter().skip(10_000).step_by(53) {
            assert_eq!(index.get(k), Some(k));
        }
    }
}
