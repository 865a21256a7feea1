//! The LIPP index: bulk loading, precise-position lookups, inserts with
//! conflict-driven child creation, and adjustment (sub-tree rebuilds).

use crate::node::{LippNodeView, Node, Tag};
use core::ops::ControlFlow;
use csv_common::metrics::CostCounters;
use csv_common::traits::{
    IndexStats, LearnedIndex, LevelHistogram, RangeIndex, RemovableIndex, SnapshotIndex,
    LOOKUP_BLOCK,
};
use csv_common::{prefetch_slice_at, Key, KeyValue, LinearModel, Value};

/// Construction/adjustment parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LippConfig {
    /// Slots allocated per key when building a node (LIPP uses a sparse slot
    /// array so inserts usually find an empty slot).
    pub expansion: f64,
    /// Minimum node capacity.
    pub min_capacity: usize,
    /// A sub-tree is rebuilt once it has absorbed more than
    /// `subtree_keys / 2` inserts and holds at least this many keys.
    pub adjust_min_keys: usize,
}

impl Default for LippConfig {
    fn default() -> Self {
        Self {
            expansion: 2.0,
            min_capacity: 8,
            adjust_min_keys: 64,
        }
    }
}

/// The LIPP learned index (see the crate docs for the reproduction notes).
#[derive(Debug, Clone)]
pub struct LippIndex {
    pub(crate) nodes: Vec<Node>,
    free: Vec<usize>,
    pub(crate) root: usize,
    len: usize,
    config: LippConfig,
    /// The root-to-slot path of the insert or remove in progress; empty
    /// between calls. Kept so a write does not allocate one: every overlay
    /// fold and every replayed WAL record is a write to this index.
    path: Vec<usize>,
}

impl LippIndex {
    /// Builds an index with a custom configuration.
    pub fn with_config(records: &[KeyValue], config: LippConfig) -> Self {
        debug_assert!(
            records.windows(2).all(|w| w[0].key < w[1].key),
            "records must be sorted by key and unique"
        );
        let mut index = Self {
            nodes: Vec::new(),
            free: Vec::new(),
            root: 0,
            len: records.len(),
            config,
            path: Vec::new(),
        };
        index.root = index.build_subtree(records, 1);
        index
    }

    /// The configuration used to build this index.
    pub fn config(&self) -> &LippConfig {
        &self.config
    }

    pub(crate) fn push_free(&mut self, id: usize) {
        self.free.push(id);
    }

    pub(crate) fn alloc(&mut self, node: Node) -> usize {
        if let Some(id) = self.free.pop() {
            self.nodes[id] = node;
            id
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    /// Returns descendant node ids (not including `node_id` itself) to the
    /// free list.
    pub(crate) fn free_descendants(&mut self, node_id: usize) {
        let mut stack: Vec<usize> = self.nodes[node_id].children().collect();
        while let Some(id) = stack.pop() {
            stack.extend(self.nodes[id].children());
            self.nodes[id] = Node::empty(1, 0);
            self.free.push(id);
        }
    }

    /// Recursively builds a node over sorted records; returns its arena id.
    pub(crate) fn build_subtree(&mut self, records: &[KeyValue], level: usize) -> usize {
        let n = records.len();
        if n == 0 {
            let node = Node::empty(self.config.min_capacity, level);
            return self.alloc(node);
        }
        if n == 1 {
            let mut node = Node::empty(self.config.min_capacity, level);
            // A constant model maps every key to slot 0.
            node.model = LinearModel::new(0.0, 0.0);
            node.set_data(0, records[0].key, records[0].value);
            node.subtree_keys = 1;
            return self.alloc(node);
        }
        let capacity = ((n as f64 * self.config.expansion) as usize).max(self.config.min_capacity);
        let keys: Vec<Key> = records.iter().map(|r| r.key).collect();
        let model = Self::conflict_aware_model(&keys, capacity);
        self.build_with_model(records, level, capacity, model)
    }

    /// Builds a node with a caller-supplied capacity and model (used both by
    /// the normal build path and by the CSV rebuild). The model is given in
    /// absolute key coordinates and converted to the node's offset
    /// coordinates internally.
    pub(crate) fn build_with_model(
        &mut self,
        records: &[KeyValue],
        level: usize,
        capacity: usize,
        model: LinearModel,
    ) -> usize {
        let n = records.len();
        let mut node = Node::empty(capacity, level);
        node.key_offset = records[0].key;
        // predict(k) = slope·k + b  ==  slope·(k − off) + (b + slope·off)
        node.model = LinearModel::new(
            model.slope,
            model.intercept + model.slope * node.key_offset as f64,
        );
        node.subtree_keys = n;
        // Group consecutive records by their predicted slot.
        let mut groups: Vec<(usize, usize, usize)> = Vec::new(); // (slot, start, end)
        let mut start = 0usize;
        while start < n {
            let slot = node.predict_slot(records[start].key);
            let mut end = start + 1;
            while end < n && node.predict_slot(records[end].key) == slot {
                end += 1;
            }
            groups.push((slot, start, end));
            start = end;
        }
        // Degenerate model: everything predicted into one slot. Fall back to
        // a spread model mapping [min, max] onto the full slot range. The
        // model is expressed in offset coordinates directly (offset = min),
        // and set in place rather than recursing, so the fallback cannot
        // loop.
        if groups.len() == 1 && n > 1 {
            let min = records[0].key;
            let max = records[n - 1].key;
            if max > min {
                let slope = (capacity - 1) as f64 / (max - min) as f64;
                node.model = LinearModel::new(slope, 0.0);
                debug_assert_eq!(node.key_offset, min);
                groups.clear();
                let mut start = 0usize;
                while start < n {
                    let slot = node.predict_slot(records[start].key);
                    let mut end = start + 1;
                    while end < n && node.predict_slot(records[end].key) == slot {
                        end += 1;
                    }
                    groups.push((slot, start, end));
                    start = end;
                }
            }
        }
        let node_id = self.alloc(node);
        for (slot, start, end) in groups {
            if end - start == 1 {
                let record = records[start];
                self.nodes[node_id].set_data(slot, record.key, record.value);
            } else {
                let child = self.build_subtree(&records[start..end], level + 1);
                self.nodes[node_id].set_child(slot, child);
            }
        }
        node_id
    }

    /// A least-squares CDF model rescaled to the slot range — LIPP's FMCD
    /// model search is approximated by this fit, which already minimises the
    /// squared slot-prediction error and hence most conflicts.
    fn conflict_aware_model(keys: &[Key], capacity: usize) -> LinearModel {
        let n = keys.len();
        let positions: Vec<f64> = (0..n)
            .map(|i| i as f64 * (capacity - 1) as f64 / (n - 1) as f64)
            .collect();
        LinearModel::fit_points(keys, &positions)
    }

    /// Collects the records of a sub-tree in ascending key order.
    pub(crate) fn collect_records(&self, node_id: usize) -> Vec<KeyValue> {
        let mut out = Vec::with_capacity(self.nodes[node_id].subtree_keys);
        self.collect_into(node_id, &mut out);
        out.sort_unstable_by_key(|r| r.key);
        out
    }

    fn collect_into(&self, node_id: usize, out: &mut Vec<KeyValue>) {
        for (tag, entry) in self.nodes[node_id].occupied() {
            match tag {
                Tag::Data => out.push(KeyValue::new(entry.key, entry.word)),
                _ => self.collect_into(entry.child(), out),
            }
        }
    }

    /// Rebuilds the sub-tree rooted at `node_id` in place from its own
    /// records (the adjustment step triggered by inserts).
    pub(crate) fn rebuild_in_place(&mut self, node_id: usize) {
        let records = self.collect_records(node_id);
        let level = self.nodes[node_id].level();
        self.free_descendants(node_id);
        let temp = self.build_subtree(&records, level);
        self.nodes.swap(node_id, temp);
        self.nodes[temp] = Node::empty(1, 0);
        self.free.push(temp);
    }

    /// Depth-first views of every reachable node (diagnostics / experiments).
    pub fn node_views(&self) -> Vec<LippNodeView> {
        let mut views = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id];
            views.push(LippNodeView {
                node_id: id,
                level: node.level(),
                capacity: node.capacity(),
                local_keys: node.local_keys(),
                children: node.child_count(),
                subtree_keys: node.subtree_keys,
            });
            stack.extend(node.children());
        }
        views
    }

    /// The deepest level of any reachable node.
    pub fn height(&self) -> usize {
        self.node_views().iter().map(|v| v.level).max().unwrap_or(1)
    }

    /// Average slot occupancy over reachable nodes (diagnostics).
    pub fn occupancy(&self) -> f64 {
        let views = self.node_views();
        let slots: usize = views.iter().map(|v| v.capacity).sum();
        let keys: usize = views.iter().map(|v| v.local_keys).sum();
        if slots == 0 {
            0.0
        } else {
            keys as f64 / slots as f64
        }
    }
}

impl LearnedIndex for LippIndex {
    fn name(&self) -> &'static str {
        "LIPP"
    }

    fn bulk_load(records: &[KeyValue]) -> Self {
        Self::with_config(records, LippConfig::default())
    }

    fn get(&self, key: Key) -> Option<Value> {
        let mut node = &self.nodes[self.root];
        loop {
            match node.slot(node.predict_slot(key)) {
                (Tag::Child, entry) => node = &self.nodes[entry.child()],
                (tag, entry) => {
                    return (tag == Tag::Data && entry.key == key).then_some(entry.word)
                }
            }
        }
    }

    fn get_counted(&self, key: Key, counters: &mut CostCounters) -> Option<Value> {
        let mut node_id = self.root;
        loop {
            counters.nodes_visited += 1;
            counters.model_evals += 1;
            let node = &self.nodes[node_id];
            match node.slot(node.predict_slot(key)) {
                (Tag::Empty, _) => return None,
                (Tag::Data, entry) => {
                    counters.comparisons += 1;
                    return (entry.key == key).then_some(entry.word);
                }
                (Tag::Child, entry) => node_id = entry.child(),
            }
        }
    }

    fn insert(&mut self, key: Key, value: Value) -> bool {
        let mut path = std::mem::take(&mut self.path);
        let mut node_id = self.root;
        let inserted = loop {
            path.push(node_id);
            let slot_idx = self.nodes[node_id].predict_slot(key);
            match self.nodes[node_id].slot(slot_idx) {
                (Tag::Empty, _) => {
                    self.nodes[node_id].set_data(slot_idx, key, value);
                    break true;
                }
                (Tag::Data, entry) => {
                    if entry.key == key {
                        self.nodes[node_id].set_data(slot_idx, key, value);
                        break false;
                    }
                    // Conflict: push both records into a new child node.
                    let level = self.nodes[node_id].level() + 1;
                    let mut pair = [
                        KeyValue::new(entry.key, entry.word),
                        KeyValue::new(key, value),
                    ];
                    pair.sort_unstable_by_key(|r| r.key);
                    let child = self.build_subtree(&pair, level);
                    self.nodes[node_id].set_child(slot_idx, child);
                    break true;
                }
                (Tag::Child, entry) => node_id = entry.child(),
            }
        };
        if inserted {
            self.len += 1;
            for &id in &path {
                self.nodes[id].subtree_keys += 1;
                self.nodes[id].note_insert();
                // Every node on the path roots a sub-tree that just absorbed
                // this key: flag them for incremental re-optimisation.
                self.nodes[id].dirty = true;
            }
            // Adjustment: rebuild the shallowest non-root sub-tree that has
            // absorbed more inserts than half its size.
            for &id in path.iter().skip(1) {
                let node = &self.nodes[id];
                if node.subtree_keys >= self.config.adjust_min_keys
                    && node.inserts_since_build() * 2 > node.subtree_keys
                {
                    self.rebuild_in_place(id);
                    break;
                }
            }
        }
        path.clear();
        self.path = path;
        inserted
    }

    fn len(&self) -> usize {
        self.len
    }

    fn stats(&self) -> IndexStats {
        let mut histogram = LevelHistogram::new();
        let mut node_count = 0usize;
        let mut deep_node_count = 0usize;
        let mut size_bytes = 0usize;
        let mut height = 1usize;
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id];
            node_count += 1;
            size_bytes += node.size_bytes();
            height = height.max(node.level());
            if node.level() >= 3 {
                deep_node_count += 1;
            }
            let local = node.local_keys();
            if local > 0 {
                histogram.record(node.level(), local);
            }
            stack.extend(node.children());
        }
        IndexStats {
            level_histogram: histogram,
            node_count,
            deep_node_count,
            height,
            size_bytes,
            num_keys: self.len,
        }
    }

    fn level_of_key(&self, key: Key) -> Option<usize> {
        let mut node_id = self.root;
        loop {
            let node = &self.nodes[node_id];
            match node.slot(node.predict_slot(key)) {
                (Tag::Empty, _) => return None,
                (Tag::Data, entry) => return (entry.key == key).then_some(node.level()),
                (Tag::Child, entry) => node_id = entry.child(),
            }
        }
    }

    /// Lockstep batched descent (the why is on the trait method): the batch
    /// is cut into blocks of [`LOOKUP_BLOCK`] keys and each block walks the
    /// tree level by level, so the block's loads for one level are all in
    /// flight before any of them is branched on.
    fn get_many(&self, keys: &[Key], out: &mut [Option<Value>]) {
        assert_eq!(keys.len(), out.len(), "one output slot per key");
        for (keys, out) in keys.chunks(LOOKUP_BLOCK).zip(out.chunks_mut(LOOKUP_BLOCK)) {
            self.get_block(keys, out);
        }
    }
}

impl LippIndex {
    /// One lockstep block of [`LearnedIndex::get_many`], at most
    /// [`LOOKUP_BLOCK`] keys. Each round takes every live key one level down:
    /// pass 1 predicts the key's slot in the node it stands on and prefetches
    /// the slot's entry and tag word, pass 2 reads them — a record or an
    /// empty slot finishes the key, a child moves it there and prefetches the
    /// child's header — and compacts the live keys to the front.
    fn get_block(&self, keys: &[Key], out: &mut [Option<Value>]) {
        // Per live key: its position in the block, the node it stands on and
        // the slot it reads this round.
        let mut pos = [0usize; LOOKUP_BLOCK];
        let mut node = [&self.nodes[self.root]; LOOKUP_BLOCK];
        let mut slot = [0usize; LOOKUP_BLOCK];
        let mut live = keys.len();
        for (i, pos) in pos[..live].iter_mut().enumerate() {
            *pos = i;
        }
        while live > 0 {
            for j in 0..live {
                slot[j] = node[j].predict_slot(keys[pos[j]]);
                node[j].prefetch(slot[j]);
            }
            let mut kept = 0;
            for j in 0..live {
                let i = pos[j];
                match node[j].slot(slot[j]) {
                    (Tag::Child, entry) => {
                        let c = entry.child();
                        prefetch_slice_at(&self.nodes, c);
                        pos[kept] = i;
                        node[kept] = &self.nodes[c];
                        kept += 1;
                    }
                    (tag, entry) => {
                        out[i] = (tag == Tag::Data && entry.key == keys[i]).then_some(entry.word);
                    }
                }
            }
            live = kept;
        }
    }

    /// In-order streaming scan: slot order within a node is key order (the
    /// routing model is monotone), so a depth-first left-to-right walk visits
    /// records in ascending key order. Monotonicity also lets the walk start
    /// at `predict_slot(lo)` — every key in an earlier slot predicts earlier,
    /// hence is `< lo` — and stop at the first key past `hi`.
    ///
    /// `Break(true)` means the visitor stopped the scan; `Break(false)` means
    /// the walk ran past `hi` (natural exhaustion).
    fn visit_node(
        &self,
        node_id: usize,
        lo: Key,
        hi: Key,
        f: &mut dyn FnMut(Key, Value) -> ControlFlow<()>,
    ) -> ControlFlow<bool> {
        let node = &self.nodes[node_id];
        for (tag, entry) in node.occupied_from(node.predict_slot(lo)) {
            match tag {
                Tag::Data => {
                    if entry.key > hi {
                        return ControlFlow::Break(false);
                    }
                    if entry.key >= lo && f(entry.key, entry.word).is_break() {
                        return ControlFlow::Break(true);
                    }
                }
                _ => self.visit_node(entry.child(), lo, hi, f)?,
            }
        }
        ControlFlow::Continue(())
    }
}

impl RangeIndex for LippIndex {
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
        match self.visit_node(self.root, lo, hi, f) {
            ControlFlow::Break(true) => ControlFlow::Break(()),
            _ => ControlFlow::Continue(()),
        }
    }
}

/// Snapshot audit: `derive(Clone)` deep-copies the `nodes` arena (every
/// node owns its model and one boxed buffer of entries and tag words), the
/// free list and the scalar metadata. The clone shares nothing with the
/// original — no `Rc`, no interior mutability — so mutating a clone never
/// perturbs concurrent readers of the source, and the cost is one
/// allocation and one straight `memcpy` per node.
impl SnapshotIndex for LippIndex {}

impl RemovableIndex for LippIndex {
    fn remove(&mut self, key: Key) -> Option<Value> {
        // Walk the precise-position path; a removed record simply leaves an
        // empty slot (which later inserts can reuse). `subtree_keys` is kept
        // in sync along the path so the adjustment heuristic and CSV's
        // statistics stay accurate.
        let mut path = std::mem::take(&mut self.path);
        let mut node_id = self.root;
        let removed = loop {
            path.push(node_id);
            let slot_idx = self.nodes[node_id].predict_slot(key);
            match self.nodes[node_id].slot(slot_idx) {
                (Tag::Empty, _) => break None,
                (Tag::Data, entry) => {
                    if entry.key == key {
                        self.nodes[node_id].clear(slot_idx);
                        break Some(entry.word);
                    }
                    break None;
                }
                (Tag::Child, entry) => node_id = entry.child(),
            }
        };
        if removed.is_some() {
            self.len -= 1;
            for &id in &path {
                self.nodes[id].subtree_keys -= 1;
                self.nodes[id].dirty = true;
            }
        }
        path.clear();
        self.path = path;
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csv_common::key::identity_records;

    fn skewed_keys(n: u64) -> Vec<Key> {
        // Dense runs separated by widely varying jumps — forces conflicts and
        // therefore a multi-level structure.
        let mut keys = Vec::new();
        let mut base = 0u64;
        for block in 0..n / 50 {
            for i in 0..50u64 {
                keys.push(base + i);
            }
            base += 50 + (block % 7 + 1) * 10_000 * (1 + block % 3);
        }
        keys
    }

    #[test]
    fn bulk_load_and_lookup() {
        let keys = skewed_keys(20_000);
        let index = LippIndex::bulk_load(&identity_records(&keys));
        assert_eq!(index.len(), keys.len());
        assert_eq!(index.name(), "LIPP");
        for &k in keys.iter().step_by(61) {
            assert_eq!(index.get(k), Some(k));
        }
        assert_eq!(index.get(keys[keys.len() - 1] + 12345), None);
        assert!(index.height() >= 2, "skewed keys must create child nodes");
        assert!(index.occupancy() > 0.0 && index.occupancy() <= 1.0);
    }

    #[test]
    fn empty_and_singleton() {
        let empty = LippIndex::bulk_load(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.get(7), None);
        let single = LippIndex::bulk_load(&[KeyValue::new(9, 90)]);
        assert_eq!(single.get(9), Some(90));
        assert_eq!(single.get(8), None);
        assert_eq!(single.level_of_key(9), Some(1));
    }

    #[test]
    fn precise_positions_mean_no_leaf_search() {
        // Every counted lookup must do exactly one comparison (the final
        // key equality check) regardless of depth: that is LIPP's defining
        // property.
        let keys = skewed_keys(10_000);
        let index = LippIndex::bulk_load(&identity_records(&keys));
        for &k in keys.iter().step_by(97) {
            let mut counters = CostCounters::new();
            assert_eq!(index.get_counted(k, &mut counters), Some(k));
            assert_eq!(counters.comparisons, 1);
            assert!(counters.nodes_visited >= 1);
        }
    }

    #[test]
    fn inserts_create_conflicts_and_adjustment_keeps_correctness() {
        let keys: Vec<Key> = (0..5_000u64).map(|i| i * 10).collect();
        let mut index = LippIndex::bulk_load(&identity_records(&keys));
        // Insert keys that collide with existing predictions.
        for i in 0..5_000u64 {
            assert!(index.insert(i * 10 + 1, i));
        }
        assert_eq!(index.len(), 10_000);
        for i in 0..5_000u64 {
            assert_eq!(index.get(i * 10), Some(i * 10));
            assert_eq!(index.get(i * 10 + 1), Some(i));
        }
        // Overwrite does not change the length.
        assert!(!index.insert(0, 42));
        assert_eq!(index.get(0), Some(42));
        assert_eq!(index.len(), 10_000);
    }

    #[test]
    fn level_histogram_accounts_for_every_key() {
        let keys = skewed_keys(30_000);
        let index = LippIndex::bulk_load(&identity_records(&keys));
        let stats = index.stats();
        assert_eq!(stats.level_histogram.total(), keys.len());
        assert_eq!(stats.num_keys, keys.len());
        assert_eq!(stats.height, index.height());
        assert!(stats.node_count >= 1);
        assert!(stats.size_bytes > keys.len() * std::mem::size_of::<crate::node::Entry>());
        // Deep keys exist for this skewed distribution.
        assert!(stats.level_histogram.max_level() >= 2);
        // level_of_key agrees with the histogram's support.
        for &k in keys.iter().step_by(577) {
            let level = index.level_of_key(k).unwrap();
            assert!(level <= stats.height);
        }
    }

    #[test]
    fn range_scans_match_oracle() {
        let keys = skewed_keys(20_000);
        let index = LippIndex::bulk_load(&identity_records(&keys));
        assert_eq!(index.range(0, u64::MAX).len(), keys.len());
        for (start, span) in [(50usize, 400u64), (10_000, 25), (19_900, 1_000_000)] {
            let lo = keys[start];
            let hi = lo + span;
            let got = index.range(lo, hi);
            let expected: Vec<Key> = keys
                .iter()
                .copied()
                .filter(|&k| k >= lo && k <= hi)
                .collect();
            assert_eq!(
                got.iter().map(|r| r.key).collect::<Vec<_>>(),
                expected,
                "range [{lo}, {hi}]"
            );
        }
        assert!(index.range(17, 3).is_empty());
    }

    #[test]
    fn removals_free_slots_and_keep_counts() {
        let keys = skewed_keys(10_000);
        let mut index = LippIndex::bulk_load(&identity_records(&keys));
        for &k in keys.iter().step_by(5) {
            assert_eq!(index.remove(k), Some(k));
        }
        let removed = keys.iter().step_by(5).count();
        assert_eq!(index.len(), keys.len() - removed);
        for (i, &k) in keys.iter().enumerate() {
            if i % 5 == 0 {
                assert_eq!(index.get(k), None);
                assert_eq!(index.level_of_key(k), None);
            } else if i % 3 == 0 {
                assert_eq!(index.get(k), Some(k));
            }
        }
        assert_eq!(index.remove(keys[0]), None);
        // The root's subtree count stays consistent with the length.
        assert_eq!(index.nodes[index.root].subtree_keys, index.len());
        // Freed slots are reused by later inserts.
        assert!(index.insert(keys[0], 123));
        assert_eq!(index.get(keys[0]), Some(123));
        // Ranges exclude removed keys.
        let hi = keys[30];
        let expected: Vec<Key> = keys
            .iter()
            .enumerate()
            .filter(|&(i, &k)| k <= hi && (i % 5 != 0 || i == 0))
            .map(|(_, &k)| k)
            .collect();
        assert_eq!(
            index.range(0, hi).iter().map(|r| r.key).collect::<Vec<_>>(),
            expected
        );
    }

    /// 35 keys in three tiers: ten spread wide (they stay in the root), a
    /// cluster of a dozen that conflicts there (level 2), and a tighter
    /// dozen inside that cluster (level 3). Small enough for Miri.
    fn three_level_keys() -> Vec<Key> {
        let spread = (1..=10u64).map(|i| i * 1_000_000_000);
        let cluster = (1..=12u64).map(|j| 5_000_000_000 + j * 1_000);
        let tight = (1..=12u64).map(|j| 5_000_005_000 + j);
        let mut keys: Vec<Key> = spread.chain(cluster).chain(tight).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    #[test]
    fn lockstep_block_finishes_keys_at_every_level() {
        let keys = three_level_keys();
        let mut index = LippIndex::bulk_load(&identity_records(&keys));
        let at_level = |index: &LippIndex, level| {
            let found = keys.iter().find(|&&k| index.level_of_key(k) == Some(level));
            *found.unwrap_or_else(|| panic!("no key at level {level}"))
        };
        // One block whose keys leave the descent in rounds 1, 2 and 3 — as a
        // record, as an empty slot and as another key's slot — in an order
        // that makes the live list compact around finished keys.
        let check = |index: &LippIndex| {
            let (l1, l2, l3) = (at_level(index, 1), at_level(index, 2), at_level(index, 3));
            let probes = [
                l3,
                7, // absent: an empty root slot or the first key's
                l1,
                l3 + 1_000_000, // absent, via the root
                l2,
                l2 + 1,  // absent, via the level-2 node
                l3,      // a duplicate
                l3 + 13, // absent, via the level-3 node
                l1,
                Key::MAX,
            ];
            let expected: Vec<Option<Value>> = probes.iter().map(|&k| index.get(k)).collect();
            let mut got = vec![Some(Value::MAX); probes.len()];
            index.get_many(&probes, &mut got);
            assert_eq!(got, expected);
            // (rounds walked, found) per probe: hits and misses at each depth.
            let mut walks: Vec<(usize, bool)> = probes
                .iter()
                .map(|&k| {
                    let mut counters = CostCounters::new();
                    let found = index.get_counted(k, &mut counters).is_some();
                    (counters.nodes_visited, found)
                })
                .collect();
            walks.sort_unstable();
            walks.dedup();
            for depth in 1..=3 {
                assert!(walks.contains(&(depth, true)), "no hit at level {depth}");
                assert!(walks.contains(&(depth, false)), "no miss at level {depth}");
            }
        };
        check(&index);
        // And after the shape changed under it.
        assert_eq!(index.remove(keys[3]), Some(keys[3]));
        assert!(index.insert(5_000_005_000 + 40, 1));
        check(&index);
    }

    #[test]
    fn get_many_matches_gets_around_the_block_size() {
        let keys = three_level_keys();
        let index = LippIndex::bulk_load(&identity_records(&keys));
        // Hits, near misses and repeats, cycled to every length of interest.
        let pool: Vec<Key> = keys.iter().flat_map(|&k| [k, k + 1, k]).collect();
        for len in [0, 1, LOOKUP_BLOCK - 1, LOOKUP_BLOCK, LOOKUP_BLOCK + 1, 64] {
            let probes: Vec<Key> = pool.iter().copied().cycle().skip(len).take(len).collect();
            let expected: Vec<Option<Value>> = probes.iter().map(|&k| index.get(k)).collect();
            let mut got = vec![Some(Value::MAX); len];
            index.get_many(&probes, &mut got);
            assert_eq!(got, expected, "{len} keys");
        }
    }

    #[test]
    #[should_panic(expected = "one output slot per key")]
    fn get_many_rejects_mismatched_lengths() {
        LippIndex::bulk_load(&[]).get_many(&[1, 2], &mut [None]);
    }

    #[test]
    fn writes_leave_the_path_buffer_empty() {
        let keys = three_level_keys();
        let mut index = LippIndex::bulk_load(&identity_records(&keys));
        assert!(index.insert(5_000_005_000 + 50, 5));
        assert!(!index.insert(keys[0], 6));
        assert_eq!(index.remove(keys[1]), Some(keys[1]));
        assert_eq!(index.remove(3), None);
        // A clone (every overlay fold starts with one) copies no stale path.
        assert!(index.path.is_empty() && index.path.capacity() > 0);
    }

    /// What slot `s` of a tag-word test root holds; `rotation` shifts the
    /// pattern so that, over three rotations, every slot at every word
    /// boundary holds each kind.
    fn tag_word_kind(s: usize, rotation: usize) -> Tag {
        [Tag::Data, Tag::Child, Tag::Empty][(s + rotation) % 3]
    }

    /// An index whose root has `capacity` slots, slot `s` taking the keys
    /// `1000·s … 1000·s + 499`: a `Data` slot holds `1000·s + 200`, a
    /// `Child` slot a two-record child with `1000·s + 100` and
    /// `1000·s + 300`. Returns the index and its stored keys, ascending.
    fn tag_word_index(capacity: usize, rotation: usize) -> (LippIndex, Vec<Key>) {
        let mut index = LippIndex::bulk_load(&[]);
        let mut root = Node::empty(capacity, 1);
        root.model = LinearModel::new(0.001, 0.0);
        let mut keys = Vec::new();
        for s in 0..capacity {
            let base = 1000 * s as Key;
            match tag_word_kind(s, rotation) {
                Tag::Data => {
                    root.set_data(s, base + 200, base + 200);
                    keys.push(base + 200);
                }
                Tag::Child => {
                    let pair = identity_records(&[base + 100, base + 300]);
                    root.set_child(s, index.build_subtree(&pair, 2));
                    keys.extend([base + 100, base + 300]);
                }
                Tag::Empty => {}
            }
        }
        root.subtree_keys = keys.len();
        index.nodes[index.root] = root;
        index.len = keys.len();
        (index, keys)
    }

    /// The capacities around one and two tag words, each with every
    /// rotation of the slot pattern.
    fn tag_word_cases() -> impl Iterator<Item = (usize, usize)> {
        [1, 31, 32, 33, 63, 64, 65]
            .into_iter()
            .flat_map(|capacity| (0..3).map(move |rotation| (capacity, rotation)))
    }

    #[test]
    fn tag_word_boundaries_keep_every_slot_kind() {
        for (capacity, rotation) in tag_word_cases() {
            let (index, keys) = tag_word_index(capacity, rotation);
            let root = &index.nodes[index.root];
            let kinds: Vec<Tag> = (0..capacity).map(|s| root.tag(s)).collect();
            let want: Vec<Tag> = (0..capacity).map(|s| tag_word_kind(s, rotation)).collect();
            assert_eq!(kinds, want, "capacity {capacity}, rotation {rotation}");
            let count = |tag| want.iter().filter(|&&t| t == tag).count();
            assert_eq!(root.local_keys(), count(Tag::Data));
            assert_eq!(root.child_count(), count(Tag::Child));
            assert_eq!(root.children().count(), count(Tag::Child));
            assert_eq!(root.occupied().count(), capacity - count(Tag::Empty));
            assert_eq!(index.stats().level_histogram.total(), keys.len());
            assert_eq!(index.range(0, Key::MAX).len(), keys.len());
        }
    }

    #[test]
    fn tag_word_lookups_match_the_stored_keys() {
        for (capacity, rotation) in tag_word_cases() {
            let (index, keys) = tag_word_index(capacity, rotation);
            // Every slot's hits and misses: a miss lands on an empty slot, on
            // another key's record or inside a child.
            let probes: Vec<Key> = (0..capacity as Key)
                .flat_map(|s| [50, 100, 200, 250, 300].map(|r| 1000 * s + r))
                .collect();
            let expected: Vec<Option<Value>> = probes
                .iter()
                .map(|k| keys.binary_search(k).ok().map(|_| *k))
                .collect();
            let got: Vec<Option<Value>> = probes.iter().map(|&k| index.get(k)).collect();
            assert_eq!(got, expected, "get, capacity {capacity}");
            let mut many = vec![Some(Value::MAX); probes.len()];
            index.get_many(&probes, &mut many);
            assert_eq!(many, expected, "get_many, capacity {capacity}");
        }
    }

    #[test]
    fn tag_word_range_walks_start_inside_every_word() {
        for (capacity, rotation) in tag_word_cases() {
            let (index, keys) = tag_word_index(capacity, rotation);
            for s in 0..capacity as Key {
                for (lo, hi) in [(1000 * s, 1000 * s + 2_999), (1000 * s + 150, Key::MAX)] {
                    let got: Vec<Key> = index.range(lo, hi).iter().map(|r| r.key).collect();
                    let want: Vec<Key> = keys
                        .iter()
                        .copied()
                        .filter(|k| (lo..=hi).contains(k))
                        .collect();
                    assert_eq!(got, want, "[{lo}, {hi}], capacity {capacity}");
                }
                // A visitor that stops after two records stops the walk.
                let mut seen = Vec::new();
                let flow = index.range_visit(1000 * s, Key::MAX, &mut |k, _| {
                    seen.push(k);
                    if seen.len() == 2 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                });
                let want: Vec<Key> = keys.iter().copied().filter(|&k| k >= 1000 * s).collect();
                assert_eq!(seen, want[..want.len().min(2)], "capacity {capacity}");
                assert_eq!(flow.is_break(), want.len() >= 2);
            }
        }
    }

    #[test]
    fn tag_word_remove_frees_the_slot_for_a_reinsert() {
        for (capacity, rotation) in tag_word_cases() {
            let (mut index, keys) = tag_word_index(capacity, rotation);
            let nodes = index.node_views().len();
            for &k in &keys {
                let slot = index.nodes[index.root].predict_slot(k);
                let level = index.level_of_key(k);
                assert_eq!(index.remove(k), Some(k));
                assert_eq!(index.get(k), None);
                if level == Some(1) {
                    assert_eq!(index.nodes[index.root].tag(slot), Tag::Empty);
                }
                assert!(index.insert(k, k + 1));
                assert_eq!(index.get(k), Some(k + 1));
                assert_eq!(index.level_of_key(k), level, "key {k} moved");
                assert_eq!(
                    index.nodes[index.root].tag(slot),
                    tag_word_kind(slot, rotation)
                );
            }
            assert_eq!(index.len(), keys.len());
            assert_eq!(index.node_views().len(), nodes, "no node was added");
        }
    }

    #[test]
    fn rebuild_in_place_preserves_contents() {
        let keys = skewed_keys(5_000);
        let mut index = LippIndex::bulk_load(&identity_records(&keys));
        let root = index.root;
        index.rebuild_in_place(root);
        assert_eq!(index.len(), keys.len());
        for &k in keys.iter().step_by(119) {
            assert_eq!(index.get(k), Some(k));
        }
    }

    #[test]
    fn node_views_cover_all_reachable_nodes() {
        let keys = skewed_keys(8_000);
        let index = LippIndex::bulk_load(&identity_records(&keys));
        let views = index.node_views();
        assert_eq!(views.len(), index.stats().node_count);
        let total_local: usize = views.iter().map(|v| v.local_keys).sum();
        assert_eq!(total_local, keys.len());
        let root_view = views.iter().find(|v| v.node_id == index.root).unwrap();
        assert_eq!(root_view.level, 1);
        assert_eq!(root_view.subtree_keys, keys.len());
    }
}
