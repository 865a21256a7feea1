//! ALEX data nodes: model-laid-out gapped arrays with exponential search.
//!
//! The gapped array stores a copy of the nearest left neighbour's key in
//! every unoccupied slot (leading gaps store 0), so the slot-key array is
//! always non-decreasing and a plain exponential/binary search works on it
//! directly — exactly the trick the original implementation uses.

use core::ops::ControlFlow;
use csv_common::linear::ceil_to_usize;
use csv_common::metrics::CostCounters;
use csv_common::search::{expected_search_iterations, exponential_search};
use csv_common::{Key, KeyValue, LinearModel, Value};

/// A gapped-array leaf node.
#[derive(Debug, Clone)]
pub struct DataNode {
    /// Non-decreasing slot keys (gap slots duplicate their left neighbour).
    slot_keys: Vec<Key>,
    /// Values aligned with `slot_keys` (gap slots hold a stale value).
    slot_values: Vec<Value>,
    /// Occupancy bitmap.
    occupied: Vec<bool>,
    /// Linear model mapping a key to a slot.
    model: LinearModel,
    /// Number of real records.
    num_keys: usize,
    /// 1-based level of this node in the ALEX tree.
    pub level: usize,
}

impl DataNode {
    /// Target density after a bulk build or expansion.
    pub const TARGET_DENSITY: f64 = 0.7;
    /// Density that triggers an expansion on insert.
    pub const MAX_DENSITY: f64 = 0.85;

    /// Builds a data node over sorted records with the target density.
    pub fn build(records: &[KeyValue], level: usize) -> Self {
        let n = records.len();
        let capacity = ceil_to_usize(n as f64 / Self::TARGET_DENSITY).max(8);
        Self::build_with_capacity(records, level, capacity)
    }

    /// Builds a data node with an explicit capacity; the model is fitted so
    /// that keys spread over the whole slot range.
    pub fn build_with_capacity(records: &[KeyValue], level: usize, capacity: usize) -> Self {
        let n = records.len();
        let capacity = capacity.max(n.max(8));
        let keys: Vec<Key> = records.iter().map(|r| r.key).collect();
        let model = if n >= 2 {
            let positions: Vec<f64> = (0..n)
                .map(|i| i as f64 * (capacity - 1) as f64 / (n - 1) as f64)
                .collect();
            LinearModel::fit_points(&keys, &positions)
        } else {
            LinearModel::default()
        };
        Self::layout(records, level, capacity, model)
    }

    /// Builds a data node with an explicit capacity, model and target slots
    /// (`ranks[i]` is the desired slot of record `i`). Used by the CSV
    /// rebuild, where the smoothed layout dictates both.
    pub fn build_from_layout(
        records: &[KeyValue],
        level: usize,
        capacity: usize,
        model: LinearModel,
        ranks: &[usize],
    ) -> Self {
        debug_assert_eq!(records.len(), ranks.len());
        let capacity = capacity.max(records.len().max(8));
        let mut node = Self {
            slot_keys: vec![0; capacity],
            slot_values: vec![0; capacity],
            occupied: vec![false; capacity],
            model,
            num_keys: records.len(),
            level,
        };
        let n = records.len();
        let mut last: i64 = -1;
        for (j, (rec, &rank)) in records.iter().zip(ranks.iter()).enumerate() {
            // Never let clamping collapse two records into one slot: leave
            // room for the records still to be placed.
            let upper = (capacity - (n - j)) as i64;
            let slot = (rank as i64).max(last + 1).min(upper) as usize;
            node.slot_keys[slot] = rec.key;
            node.slot_values[slot] = rec.value;
            node.occupied[slot] = true;
            last = slot as i64;
        }
        node.fix_gap_keys();
        node
    }

    fn layout(records: &[KeyValue], level: usize, capacity: usize, model: LinearModel) -> Self {
        let mut node = Self {
            slot_keys: vec![0; capacity],
            slot_values: vec![0; capacity],
            occupied: vec![false; capacity],
            model,
            num_keys: records.len(),
            level,
        };
        let n = records.len();
        let mut last: i64 = -1;
        for (j, rec) in records.iter().enumerate() {
            let predicted = node.model.predict_clamped(rec.key, capacity) as i64;
            // Clamp so that every remaining record still gets its own slot.
            let upper = (capacity - (n - j)) as i64;
            let slot = predicted.max(last + 1).min(upper) as usize;
            node.slot_keys[slot] = rec.key;
            node.slot_values[slot] = rec.value;
            node.occupied[slot] = true;
            last = slot as i64;
        }
        node.fix_gap_keys();
        node
    }

    /// Rewrites every gap slot's key copy so the slot-key array is sorted.
    fn fix_gap_keys(&mut self) {
        let mut current = 0u64;
        for i in 0..self.slot_keys.len() {
            if self.occupied[i] {
                current = self.slot_keys[i];
            } else {
                self.slot_keys[i] = current;
            }
        }
    }

    /// Number of stored records.
    pub fn num_keys(&self) -> usize {
        self.num_keys
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.slot_keys.len()
    }

    /// Occupied fraction of the slot array.
    pub fn density(&self) -> f64 {
        if self.capacity() == 0 {
            0.0
        } else {
            self.num_keys as f64 / self.capacity() as f64
        }
    }

    /// The node's linear model.
    pub fn model(&self) -> &LinearModel {
        &self.model
    }

    /// Estimated in-memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.capacity() * (8 + 8 + 1) + std::mem::size_of::<Self>()
    }

    /// All records in ascending key order.
    pub fn records(&self) -> Vec<KeyValue> {
        (0..self.capacity())
            .filter(|&i| self.occupied[i])
            .map(|i| KeyValue::new(self.slot_keys[i], self.slot_values[i]))
            .collect()
    }

    /// Appends the stored keys (ascending within the node) to `buf` without
    /// materialising records — the zero-copy path CSV key collection uses.
    pub fn keys_into(&self, buf: &mut Vec<Key>) {
        buf.reserve(self.num_keys);
        for i in 0..self.capacity() {
            if self.occupied[i] {
                buf.push(self.slot_keys[i]);
            }
        }
    }

    /// Finds the slot holding `key`, if present, plus the probes spent.
    fn locate(&self, key: Key) -> (Option<usize>, usize) {
        if self.num_keys == 0 {
            return (None, 0);
        }
        let hint = self.model.predict_clamped(key, self.capacity());
        let out = exponential_search(&self.slot_keys, key, hint);
        let mut pos = out.position.min(self.capacity().saturating_sub(1));
        // The search may land anywhere inside a run of equal slot keys (the
        // occupied slot plus the gap copies after it, or the zero-valued
        // leading gaps). Rewind to the first slot of the run, then skip any
        // unoccupied copies forward; the occupied slot — if the key exists —
        // is the first occupied slot within the run.
        while pos > 0 && self.slot_keys[pos - 1] == key && self.slot_keys[pos] >= key {
            pos -= 1;
        }
        while pos < self.capacity() && self.slot_keys[pos] == key {
            if self.occupied[pos] {
                return (Some(pos), out.comparisons);
            }
            pos += 1;
        }
        (None, out.comparisons)
    }

    /// Point lookup.
    pub fn get(&self, key: Key) -> Option<Value> {
        self.locate(key).0.map(|slot| self.slot_values[slot])
    }

    /// Point lookup charging probes to `counters`.
    pub fn get_counted(&self, key: Key, counters: &mut CostCounters) -> Option<Value> {
        counters.model_evals += 1;
        let (slot, probes) = self.locate(key);
        counters.comparisons += probes;
        slot.map(|s| self.slot_values[s])
    }

    /// Inserts or overwrites a record. Returns `(was_new, shifts)`. The
    /// caller handles expansion when the density exceeds [`Self::MAX_DENSITY`].
    pub fn insert(&mut self, key: Key, value: Value) -> (bool, usize) {
        let capacity = self.capacity();
        if let (Some(slot), _) = self.locate(key) {
            self.slot_values[slot] = value;
            return (false, 0);
        }
        // Lower-bound slot for the new key among occupied entries.
        let hint = self.model.predict_clamped(key, capacity);
        let pos = exponential_search(&self.slot_keys, key, hint).position;
        // Case 1: the slot immediately before the insertion point is a gap.
        if pos > 0 && !self.occupied[pos - 1] {
            let slot = pos - 1;
            self.slot_keys[slot] = key;
            self.slot_values[slot] = value;
            self.occupied[slot] = true;
            self.num_keys += 1;
            return (true, 0);
        }
        // Case 2: shift right towards the nearest gap at or after `pos`.
        if let Some(gap) = (pos..capacity).find(|&i| !self.occupied[i]) {
            let mut i = gap;
            while i > pos {
                self.slot_keys[i] = self.slot_keys[i - 1];
                self.slot_values[i] = self.slot_values[i - 1];
                self.occupied[i] = true;
                i -= 1;
            }
            self.slot_keys[pos] = key;
            self.slot_values[pos] = value;
            self.occupied[pos] = true;
            self.num_keys += 1;
            return (true, gap - pos);
        }
        // Case 3: shift left towards the nearest gap before `pos`.
        if let Some(gap) = (0..pos).rev().find(|&i| !self.occupied[i]) {
            let target = pos - 1;
            let mut i = gap;
            while i < target {
                self.slot_keys[i] = self.slot_keys[i + 1];
                self.slot_values[i] = self.slot_values[i + 1];
                self.occupied[i] = true;
                i += 1;
            }
            self.slot_keys[target] = key;
            self.slot_values[target] = value;
            self.occupied[target] = true;
            self.num_keys += 1;
            return (true, target - gap);
        }
        // No gaps at all: grow by rebuilding at target density, then retry.
        let mut records = self.records();
        let at = records.partition_point(|r| r.key < key);
        records.insert(at, KeyValue::new(key, value));
        *self = Self::build(&records, self.level);
        (true, 0)
    }

    /// Removes `key`, returning its value when present. The slot becomes a
    /// gap; the key copy left behind keeps the slot-key array sorted so later
    /// searches and inserts still work.
    pub fn remove(&mut self, key: Key) -> Option<Value> {
        let (slot, _) = self.locate(key);
        let slot = slot?;
        let value = self.slot_values[slot];
        self.occupied[slot] = false;
        self.num_keys -= 1;
        Some(value)
    }

    /// All records with keys in `[lo, hi]`, in ascending key order.
    pub fn range(&self, lo: Key, hi: Key) -> Vec<KeyValue> {
        let mut out = Vec::new();
        let _ = self.range_visit(lo, hi, &mut |k, v| {
            out.push(KeyValue::new(k, v));
            ControlFlow::Continue(())
        });
        out
    }

    /// Streams records with keys in `[lo, hi]` to `f` in ascending key
    /// order. Returns `Break` iff `f` broke; running past `hi` is natural
    /// exhaustion and returns `Continue`.
    pub fn range_visit(
        &self,
        lo: Key,
        hi: Key,
        f: &mut dyn FnMut(Key, Value) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if lo > hi || self.num_keys == 0 {
            return ControlFlow::Continue(());
        }
        // The slot-key array is non-decreasing, so a partition point finds
        // the first slot that could hold `lo`; gap copies of smaller keys are
        // skipped by the occupancy check.
        let start = self.slot_keys.partition_point(|&k| k < lo);
        for slot in start..self.capacity() {
            if self.slot_keys[slot] > hi {
                break;
            }
            if self.occupied[slot] {
                f(self.slot_keys[slot], self.slot_values[slot])?;
            }
        }
        ControlFlow::Continue(())
    }

    /// Smallest stored key, if any.
    pub fn min_key(&self) -> Option<Key> {
        self.occupied
            .iter()
            .position(|&o| o)
            .map(|i| self.slot_keys[i])
    }

    /// Largest stored key, if any.
    pub fn max_key(&self) -> Option<Key> {
        self.occupied
            .iter()
            .rposition(|&o| o)
            .map(|i| self.slot_keys[i])
    }

    /// Rebuilds the node at the target density (an ALEX "expansion").
    pub fn expand(&mut self) {
        let records = self.records();
        *self = Self::build(&records, self.level);
    }

    /// Mean expected number of exponential-search iterations per lookup,
    /// computed from the model's log2 slot error (ALEX's cost model; also
    /// the `expected_number_of_searches` term of Eq. 22).
    pub fn expected_searches(&self) -> f64 {
        if self.num_keys == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for (slot, &occ) in self.occupied.iter().enumerate() {
            if occ {
                let err = self.model.predict_f64(self.slot_keys[slot]) - slot as f64;
                total += expected_search_iterations(err);
            }
        }
        total / self.num_keys as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csv_common::key::identity_records;

    fn records(n: u64, stride: u64) -> Vec<KeyValue> {
        identity_records(&(0..n).map(|i| i * stride + 5).collect::<Vec<_>>())
    }

    #[test]
    fn build_and_lookup() {
        let recs = records(1_000, 7);
        let node = DataNode::build(&recs, 1);
        assert_eq!(node.num_keys(), 1_000);
        assert!(node.density() <= DataNode::TARGET_DENSITY + 0.05);
        for r in recs.iter().step_by(17) {
            assert_eq!(node.get(r.key), Some(r.value));
            assert_eq!(node.get(r.key + 1), None);
        }
        assert_eq!(node.records().len(), 1_000);
        assert!(node.expected_searches() >= 1.0);
    }

    #[test]
    fn empty_and_tiny_nodes() {
        let node = DataNode::build(&[], 1);
        assert_eq!(node.num_keys(), 0);
        assert_eq!(node.get(1), None);
        assert_eq!(node.expected_searches(), 0.0);
        let node = DataNode::build(&[KeyValue::new(10, 100)], 2);
        assert_eq!(node.get(10), Some(100));
        assert_eq!(node.level, 2);
    }

    #[test]
    fn inserts_use_gaps_then_shift_then_expand() {
        let recs = records(100, 10);
        let mut node = DataNode::build(&recs, 1);
        let mut total_new = 0usize;
        for i in 0..100u64 {
            let (new, _shifts) = node.insert(i * 10 + 6, i);
            assert!(new);
            total_new += 1;
        }
        assert_eq!(node.num_keys(), 100 + total_new);
        for i in 0..100u64 {
            assert_eq!(node.get(i * 10 + 5), Some(i * 10 + 5));
            assert_eq!(node.get(i * 10 + 6), Some(i));
        }
        // Overwrite.
        let (new, _) = node.insert(6, 999);
        assert!(!new);
        assert_eq!(node.get(6), Some(999));
        // Force an expansion by filling far past the original capacity.
        let before_capacity = node.capacity();
        for i in 0..2_000u64 {
            node.insert(1_000_000 + i, i);
        }
        assert!(node.capacity() > before_capacity);
        assert_eq!(node.get(1_000_000 + 1999), Some(1999));
    }

    #[test]
    fn counted_lookup_reports_probes() {
        let recs = records(10_000, 3);
        let node = DataNode::build(&recs, 1);
        let mut counters = CostCounters::new();
        assert_eq!(
            node.get_counted(recs[5_000].key, &mut counters),
            Some(recs[5_000].value)
        );
        assert!(counters.comparisons >= 1);
        assert_eq!(counters.model_evals, 1);
    }

    #[test]
    fn layout_build_places_keys_at_requested_ranks() {
        let recs = records(50, 100);
        let ranks: Vec<usize> = (0..50).map(|i| i * 2).collect();
        let keys: Vec<Key> = recs.iter().map(|r| r.key).collect();
        let positions: Vec<f64> = ranks.iter().map(|&r| r as f64).collect();
        let model = LinearModel::fit_points(&keys, &positions);
        let node = DataNode::build_from_layout(&recs, 3, 100, model, &ranks);
        assert_eq!(node.num_keys(), 50);
        assert_eq!(node.capacity(), 100);
        assert!((node.density() - 0.5).abs() < 0.01);
        for r in &recs {
            assert_eq!(node.get(r.key), Some(r.value));
        }
        // A perfectly matching layout needs (almost) no search iterations.
        assert!(node.expected_searches() < 1.5);
    }

    #[test]
    fn expansion_preserves_contents() {
        let recs = records(500, 11);
        let mut node = DataNode::build(&recs, 1);
        node.expand();
        assert_eq!(node.num_keys(), 500);
        for r in recs.iter().step_by(23) {
            assert_eq!(node.get(r.key), Some(r.value));
        }
    }

    #[test]
    fn skewed_models_still_answer_correctly() {
        // A node whose model is badly wrong (huge outlier) must still find
        // every key via exponential search.
        let mut keys: Vec<Key> = (0..500).collect();
        keys.push(10_000_000_000);
        let node = DataNode::build(&identity_records(&keys), 1);
        for &k in &keys {
            assert_eq!(node.get(k), Some(k));
        }
        assert!(node.expected_searches() > 1.0);
    }
}
