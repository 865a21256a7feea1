//! The SALI index: a LIPP base structure plus probability-driven flattening
//! of hot sub-trees into ε-bounded segment regions.

use core::ops::ControlFlow;
use csv_common::metrics::CostCounters;
use csv_common::pla::{locate_segment, Segment, SegmentationBuilder};
use csv_common::traits::{
    IndexStats, LearnedIndex, LevelHistogram, RangeIndex, RemovableIndex, SnapshotIndex,
};
use csv_common::{binary_search_bounded, Key, KeyValue, Value};
use csv_core::cost::SubtreeCostStats;
use csv_core::csv::{CsvIntegrable, SubtreeRef};
use csv_core::layout::SmoothedLayout;
use csv_lipp::LippIndex;

/// Tuning knobs for SALI's workload-driven flattening.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaliConfig {
    /// A level-2 sub-tree is flattened when its share of the sampled
    /// workload exceeds this probability.
    pub hot_probability: f64,
    /// Error bound of the flattened regions' segmentation.
    pub epsilon: usize,
    /// Never flatten sub-trees with fewer keys than this (the traversal
    /// saving would be negligible).
    pub min_region_keys: usize,
}

impl Default for SaliConfig {
    fn default() -> Self {
        Self {
            hot_probability: 0.01,
            epsilon: 16,
            min_region_keys: 256,
        }
    }
}

/// A flattened (hot) key region: the records of one former sub-tree stored
/// contiguously and indexed by an ε-bounded segmentation.
#[derive(Debug, Clone)]
pub struct FlatRegion {
    /// Smallest key covered by the region.
    pub min_key: Key,
    /// Largest key covered by the region.
    pub max_key: Key,
    keys: Vec<Key>,
    values: Vec<Value>,
    segments: Vec<Segment>,
    epsilon: usize,
}

impl FlatRegion {
    fn build(records: &[KeyValue], epsilon: usize) -> Self {
        let keys: Vec<Key> = records.iter().map(|r| r.key).collect();
        let values: Vec<Value> = records.iter().map(|r| r.value).collect();
        let segments = SegmentationBuilder::new(epsilon).build(&keys);
        Self {
            min_key: keys[0],
            max_key: *keys.last().unwrap(),
            keys,
            values,
            segments,
            epsilon,
        }
    }

    /// Number of records in the region.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when the region is empty (never the case for built regions).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Number of segments in the region's PLA.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    fn get(&self, key: Key, counters: Option<&mut CostCounters>) -> Option<Value> {
        let seg = locate_segment(&self.segments, key);
        let predicted = seg.predict(key);
        let lo = predicted.saturating_sub(self.epsilon);
        let hi = (predicted + self.epsilon + 1).min(self.keys.len());
        let out = binary_search_bounded(&self.keys, key, lo, hi);
        if let Some(c) = counters {
            c.nodes_visited += 1;
            c.model_evals += 1;
            c.comparisons += out.comparisons + (self.segments.len().max(1)).ilog2() as usize;
        }
        if out.found {
            Some(self.values[out.position])
        } else {
            None
        }
    }

    fn insert(&mut self, key: Key, value: Value) -> bool {
        match self.keys.binary_search(&key) {
            Ok(i) => {
                self.values[i] = value;
                false
            }
            Err(i) => {
                self.keys.insert(i, key);
                self.values.insert(i, value);
                // Re-segment lazily: the PLA stays valid only for positions,
                // so rebuild it (regions are small and inserts into hot
                // read-mostly regions are rare in the paper's workloads).
                self.segments = SegmentationBuilder::new(self.epsilon).build(&self.keys);
                self.min_key = self.keys[0];
                self.max_key = *self.keys.last().unwrap();
                true
            }
        }
    }

    /// Removes `key` from the region snapshot (the base structure stays
    /// authoritative). Returns `true` when the key was present.
    fn remove(&mut self, key: Key) -> bool {
        match self.keys.binary_search(&key) {
            Ok(i) => {
                self.keys.remove(i);
                self.values.remove(i);
                if !self.keys.is_empty() {
                    self.segments = SegmentationBuilder::new(self.epsilon).build(&self.keys);
                    self.min_key = self.keys[0];
                    self.max_key = *self.keys.last().unwrap();
                }
                true
            }
            Err(_) => false,
        }
    }

    fn size_bytes(&self) -> usize {
        self.keys.len() * 16 + self.segments.len() * std::mem::size_of::<Segment>() + 64
    }
}

/// The SALI learned index.
#[derive(Debug, Clone)]
pub struct SaliIndex {
    lipp: LippIndex,
    regions: Vec<FlatRegion>,
    config: SaliConfig,
}

impl SaliIndex {
    /// Builds SALI with a custom configuration.
    pub fn with_config(records: &[KeyValue], config: SaliConfig) -> Self {
        Self {
            lipp: LippIndex::bulk_load(records),
            regions: Vec::new(),
            config,
        }
    }

    /// The LIPP base structure (read-only access for diagnostics).
    pub fn base(&self) -> &LippIndex {
        &self.lipp
    }

    /// Currently flattened hot regions.
    pub fn regions(&self) -> &[FlatRegion] {
        &self.regions
    }

    /// Estimates per-sub-tree access probabilities from a sample workload and
    /// flattens every sub-tree whose probability exceeds the configured
    /// threshold. Returns the number of regions created.
    pub fn optimize_for_workload(&mut self, sample_queries: &[Key]) -> usize {
        if sample_queries.is_empty() {
            return 0;
        }
        // Candidate sub-trees: level-2 nodes of the LIPP base (the same
        // granularity the CSV paper uses for LIPP/SALI).
        let subtrees = self.lipp.csv_subtrees_at_level(2);
        if subtrees.is_empty() {
            return 0;
        }
        // Key range of each candidate sub-tree.
        let mut ranges: Vec<(Key, Key, SubtreeRef)> = Vec::new();
        for st in subtrees {
            let keys = self.lipp.csv_collect_keys(&st);
            if keys.len() >= self.config.min_region_keys {
                ranges.push((keys[0], *keys.last().unwrap(), st));
            }
        }
        if ranges.is_empty() {
            return 0;
        }
        ranges.sort_by_key(|r| r.0);
        // Count sample hits per range.
        let mut hits = vec![0usize; ranges.len()];
        for &q in sample_queries {
            let idx = ranges.partition_point(|r| r.0 <= q);
            if idx > 0 && q <= ranges[idx - 1].1 {
                hits[idx - 1] += 1;
            }
        }
        let total = sample_queries.len() as f64;
        let mut created = 0usize;
        for (i, (min_key, max_key, st)) in ranges.iter().enumerate() {
            let probability = hits[i] as f64 / total;
            if probability < self.config.hot_probability {
                continue;
            }
            if self.region_for(*min_key).is_some() || self.region_for(*max_key).is_some() {
                continue; // already covered by an earlier flattening
            }
            let keys = self.lipp.csv_collect_keys(st);
            let records: Vec<KeyValue> = keys
                .iter()
                .map(|&k| KeyValue::new(k, self.lipp.get(k).expect("key collected from the index")))
                .collect();
            self.regions
                .push(FlatRegion::build(&records, self.config.epsilon));
            created += 1;
        }
        self.regions.sort_by_key(|r| r.min_key);
        created
    }

    fn region_for(&self, key: Key) -> Option<usize> {
        let idx = self.regions.partition_point(|r| r.min_key <= key);
        if idx > 0 && key <= self.regions[idx - 1].max_key {
            Some(idx - 1)
        } else {
            None
        }
    }
}

impl LearnedIndex for SaliIndex {
    fn name(&self) -> &'static str {
        "SALI"
    }

    fn bulk_load(records: &[KeyValue]) -> Self {
        Self::with_config(records, SaliConfig::default())
    }

    fn get(&self, key: Key) -> Option<Value> {
        if let Some(r) = self.region_for(key) {
            if let Some(v) = self.regions[r].get(key, None) {
                return Some(v);
            }
            // The base structure is authoritative; fall through for keys the
            // region snapshot does not know about.
        }
        self.lipp.get(key)
    }

    fn get_counted(&self, key: Key, counters: &mut CostCounters) -> Option<Value> {
        if let Some(r) = self.region_for(key) {
            counters.nodes_visited += 1; // root routing into the flat region
            if let Some(v) = self.regions[r].get(key, Some(counters)) {
                return Some(v);
            }
        }
        self.lipp.get_counted(key, counters)
    }

    fn insert(&mut self, key: Key, value: Value) -> bool {
        // Keep the base structure authoritative; mirror into every flattened
        // region whose key range covers the key so hot-path lookups stay
        // consistent.
        let new = self.lipp.insert(key, value);
        for region in &mut self.regions {
            if key >= region.min_key && key <= region.max_key {
                region.insert(key, value);
            }
        }
        new
    }

    fn len(&self) -> usize {
        self.lipp.len()
    }

    fn stats(&self) -> IndexStats {
        let base = self.lipp.stats();
        if self.regions.is_empty() {
            return base;
        }
        // Keys inside flattened regions are reached at level 2 (root →
        // region) regardless of their depth in the base structure.
        let mut histogram = LevelHistogram::new();
        let mut flat_keys = 0usize;
        for region in &self.regions {
            flat_keys += region.len();
        }
        histogram.record(2, flat_keys);
        // Remaining keys keep their base levels. We approximate by removing
        // flattened keys proportionally from the deepest levels first, which
        // matches the fact that flattening targets deep sub-trees.
        let mut remaining = flat_keys;
        for (level, count) in base
            .level_histogram
            .iter()
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
        {
            let take = remaining.min(count);
            let keep = count - take;
            remaining -= take;
            if keep > 0 {
                histogram.record(level, keep);
            }
        }
        let region_bytes: usize = self.regions.iter().map(|r| r.size_bytes()).sum();
        IndexStats {
            level_histogram: histogram,
            node_count: base.node_count + self.regions.len(),
            deep_node_count: base.deep_node_count,
            height: base.height,
            size_bytes: base.size_bytes + region_bytes,
            num_keys: base.num_keys,
        }
    }

    fn level_of_key(&self, key: Key) -> Option<usize> {
        if let Some(r) = self.region_for(key) {
            if self.regions[r].get(key, None).is_some() {
                return Some(2);
            }
        }
        self.lipp.level_of_key(key)
    }
}

impl RangeIndex for SaliIndex {
    fn range(&self, lo: Key, hi: Key) -> Vec<KeyValue> {
        // The LIPP base is authoritative for range scans: flattened regions
        // are read-optimised snapshots for point lookups only.
        self.lipp.range(lo, hi)
    }

    fn range_visit(
        &self,
        lo: Key,
        hi: Key,
        f: &mut dyn FnMut(Key, Value) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.lipp.range_visit(lo, hi, f)
    }
}

/// Snapshot audit: `derive(Clone)` deep-copies the LIPP base (itself a
/// [`SnapshotIndex`]) and the flat-region side structures (each region owns
/// its PLA segments and key/value arrays). Access counters live inside the
/// cloned arenas as plain integers — not atomics or `Cell`s — so clone and
/// original evolve independently.
impl SnapshotIndex for SaliIndex {}

impl RemovableIndex for SaliIndex {
    fn remove(&mut self, key: Key) -> Option<Value> {
        let removed = self.lipp.remove(key);
        if removed.is_some() {
            for region in &mut self.regions {
                if key >= region.min_key && key <= region.max_key {
                    region.remove(key);
                }
            }
            // Drop regions that lost their last record.
            self.regions.retain(|r| !r.is_empty());
        }
        removed
    }
}

impl CsvIntegrable for SaliIndex {
    fn csv_tracks_dirty(&self) -> bool {
        self.lipp.csv_tracks_dirty()
    }

    fn csv_dirty_subtrees_at_level(&self, level: usize) -> Vec<SubtreeRef> {
        // Flat regions are read-optimised snapshots; the LIPP base stays
        // authoritative for structure, so its dirty marks are SALI's.
        self.lipp.csv_dirty_subtrees_at_level(level)
    }

    fn csv_mark_clean(&mut self) {
        self.lipp.csv_mark_clean()
    }

    fn csv_max_level(&self) -> usize {
        self.lipp.csv_max_level()
    }

    fn csv_subtrees_at_level(&self, level: usize) -> Vec<SubtreeRef> {
        self.lipp.csv_subtrees_at_level(level)
    }

    fn csv_collect_keys_into(&self, subtree: &SubtreeRef, buf: &mut Vec<Key>) {
        self.lipp.csv_collect_keys_into(subtree, buf)
    }

    fn csv_subtree_cost(&self, subtree: &SubtreeRef) -> SubtreeCostStats {
        self.lipp.csv_subtree_cost(subtree)
    }

    fn csv_rebuild_subtree(
        &mut self,
        subtree: &SubtreeRef,
        layout: &SmoothedLayout,
    ) -> Result<(), csv_core::csv::RebuildRefusal> {
        self.lipp.csv_rebuild_subtree(subtree, layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csv_common::key::identity_records;
    use csv_core::{CsvConfig, CsvOptimizer};

    /// Fractal keys (see the LIPP tests) so the base structure is deep.
    fn hard_keys(n: u64) -> Vec<Key> {
        let mut keys = Vec::new();
        let mut super_base = 1_000u64;
        let mut sb = 0u64;
        'outer: loop {
            let mut block_base = super_base;
            for b in 0..24u64 {
                let run = 16 + ((sb * 7 + b * 13) % 48);
                let stride = 1 + ((b * 5 + sb) % 7);
                for i in 0..run {
                    keys.push(block_base + i * stride);
                    if keys.len() as u64 >= n {
                        break 'outer;
                    }
                }
                block_base += run * stride + 100_000 * (1 + (b % 5));
            }
            super_base = block_base + 3_000_000_000 * (1 + sb % 3);
            sb += 1;
        }
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    #[test]
    fn behaves_like_lipp_before_optimisation() {
        let keys = hard_keys(20_000);
        let sali = SaliIndex::bulk_load(&identity_records(&keys));
        assert_eq!(sali.name(), "SALI");
        assert_eq!(sali.len(), keys.len());
        assert!(sali.regions().is_empty());
        for &k in keys.iter().step_by(77) {
            assert_eq!(sali.get(k), Some(k));
            assert_eq!(sali.level_of_key(k), sali.base().level_of_key(k));
        }
    }

    #[test]
    fn hot_subtrees_get_flattened_and_answers_stay_correct() {
        let keys = hard_keys(40_000);
        let mut sali = SaliIndex::bulk_load(&identity_records(&keys));
        // A skewed workload hammering the first third of the key space.
        let hot: Vec<Key> = keys.iter().copied().take(keys.len() / 3).collect();
        let created = sali.optimize_for_workload(&hot);
        assert!(
            created > 0,
            "a heavily skewed workload must flatten something"
        );
        assert!(!sali.regions().is_empty());
        for &k in keys.iter().step_by(101) {
            assert_eq!(sali.get(k), Some(k));
        }
        // Keys inside flattened regions are now answered at level 2.
        let region = &sali.regions()[0];
        assert!(region.num_segments() >= 1);
        let covered = keys
            .iter()
            .find(|&&k| k >= region.min_key && k <= region.max_key)
            .copied()
            .unwrap();
        assert_eq!(sali.level_of_key(covered), Some(2));
    }

    #[test]
    fn flattening_adds_a_search_step() {
        let keys = hard_keys(40_000);
        let mut sali = SaliIndex::bulk_load(&identity_records(&keys));
        let hot: Vec<Key> = keys.iter().copied().take(keys.len() / 4).collect();
        sali.optimize_for_workload(&hot);
        assert!(!sali.regions().is_empty());
        let region_key = {
            let r = &sali.regions()[0];
            keys.iter()
                .copied()
                .find(|&k| k >= r.min_key && k <= r.max_key)
                .unwrap()
        };
        let mut counters = CostCounters::new();
        assert_eq!(
            sali.get_counted(region_key, &mut counters),
            Some(region_key)
        );
        // Traversal is short (root + region) but there is a real search cost.
        assert!(counters.nodes_visited <= 2);
        assert!(
            counters.comparisons >= 1,
            "flattened regions pay a segment search"
        );
    }

    #[test]
    fn uniform_workloads_flatten_nothing() {
        let keys = hard_keys(30_000);
        let mut sali = SaliIndex::with_config(
            &identity_records(&keys),
            SaliConfig {
                hot_probability: 0.9,
                ..SaliConfig::default()
            },
        );
        let created = sali.optimize_for_workload(&keys);
        assert_eq!(
            created, 0,
            "no sub-tree concentrates 90% of a uniform workload"
        );
    }

    #[test]
    fn inserts_stay_visible_in_flattened_regions() {
        let keys = hard_keys(30_000);
        let mut sali = SaliIndex::bulk_load(&identity_records(&keys));
        let hot: Vec<Key> = keys.iter().copied().take(keys.len() / 3).collect();
        sali.optimize_for_workload(&hot);
        assert!(!sali.regions().is_empty());
        let (min_key, max_key) = (sali.regions()[0].min_key, sali.regions()[0].max_key);
        // Insert a brand-new key inside the flattened range.
        let mut candidate = min_key + 1;
        while sali.get(candidate).is_some() && candidate < max_key {
            candidate += 1;
        }
        assert!(candidate < max_key);
        assert!(sali.insert(candidate, 4242));
        assert_eq!(sali.get(candidate), Some(4242));
        assert_eq!(sali.len(), keys.len() + 1);
        // Overwrites are visible through the region too.
        assert!(!sali.insert(candidate, 4343));
        assert_eq!(sali.get(candidate), Some(4343));
    }

    #[test]
    fn csv_applies_to_the_base_structure() {
        let keys = hard_keys(40_000);
        let mut sali = SaliIndex::bulk_load(&identity_records(&keys));
        let before = sali.stats();
        let report = CsvOptimizer::new(CsvConfig::for_sali(0.2)).optimize(&mut sali);
        let after = sali.stats();
        assert!(report.subtrees_rebuilt > 0);
        assert!(after.mean_key_level() <= before.mean_key_level() + 1e-9);
        for &k in keys.iter().step_by(173) {
            assert_eq!(sali.get(k), Some(k));
        }
    }

    #[test]
    fn dirty_tracking_delegates_to_the_base_structure() {
        let keys = hard_keys(20_000);
        let mut sali = SaliIndex::bulk_load(&identity_records(&keys));
        assert!(sali.csv_tracks_dirty());
        // Fully dirty when fresh, clean after csv_mark_clean, re-dirtied by
        // writes — all through the LIPP base.
        assert_eq!(
            sali.csv_dirty_subtrees_at_level(2).len(),
            sali.csv_subtrees_at_level(2).len()
        );
        sali.csv_mark_clean();
        assert!(sali.csv_dirty_subtrees_at_level(2).is_empty());
        let deep = keys
            .iter()
            .copied()
            .find(|&k| sali.level_of_key(k).unwrap_or(1) >= 3)
            .expect("hard keys produce deep levels");
        assert_eq!(sali.remove(deep), Some(deep));
        assert_eq!(sali.csv_dirty_subtrees_at_level(2).len(), 1);
    }

    #[test]
    fn range_scans_match_the_base_structure() {
        let keys = hard_keys(30_000);
        let mut sali = SaliIndex::bulk_load(&identity_records(&keys));
        let hot: Vec<Key> = keys.iter().copied().take(keys.len() / 3).collect();
        sali.optimize_for_workload(&hot);
        let lo = keys[100];
        let hi = keys[5_000];
        let got = sali.range(lo, hi);
        let expected: Vec<Key> = keys
            .iter()
            .copied()
            .filter(|&k| k >= lo && k <= hi)
            .collect();
        assert_eq!(got.iter().map(|r| r.key).collect::<Vec<_>>(), expected);
        assert_eq!(sali.range(0, u64::MAX).len(), keys.len());
        assert!(sali.range(9, 3).is_empty());
    }

    #[test]
    fn removals_stay_consistent_with_flattened_regions() {
        let keys = hard_keys(30_000);
        let mut sali = SaliIndex::bulk_load(&identity_records(&keys));
        let hot: Vec<Key> = keys.iter().copied().take(keys.len() / 3).collect();
        sali.optimize_for_workload(&hot);
        assert!(!sali.regions().is_empty());
        // Remove keys both inside and outside the flattened ranges.
        let inside = {
            let r = &sali.regions()[0];
            keys.iter()
                .copied()
                .find(|&k| k >= r.min_key && k <= r.max_key)
                .unwrap()
        };
        let outside = *keys.last().unwrap();
        assert_eq!(sali.remove(inside), Some(inside));
        assert_eq!(
            sali.get(inside),
            None,
            "removed key must not resurface via a region"
        );
        assert_eq!(sali.remove(inside), None);
        assert_eq!(sali.remove(outside), Some(outside));
        assert_eq!(sali.get(outside), None);
        assert_eq!(sali.len(), keys.len() - 2);
        // Re-insert restores visibility everywhere.
        assert!(sali.insert(inside, 777));
        assert_eq!(sali.get(inside), Some(777));
    }

    #[test]
    fn stats_account_for_regions() {
        let keys = hard_keys(30_000);
        let mut sali = SaliIndex::bulk_load(&identity_records(&keys));
        let hot: Vec<Key> = keys.iter().copied().take(keys.len() / 3).collect();
        sali.optimize_for_workload(&hot);
        let stats = sali.stats();
        assert_eq!(stats.num_keys, keys.len());
        assert_eq!(stats.level_histogram.total(), keys.len());
        assert!(stats.node_count >= sali.base().stats().node_count);
        assert!(stats.size_bytes > sali.base().stats().size_bytes);
        let region_bytes: usize = sali.regions.iter().map(|r| r.size_bytes()).sum();
        assert_eq!(
            stats.size_bytes,
            sali.base().stats().size_bytes + region_bytes,
            "the regions are added to the LIPP base's own size"
        );
    }
}
