//! The ALEX tree: model-based internal routing over gapped-array data nodes,
//! plus the CSV (Algorithm 2) integration.

use crate::data_node::DataNode;
use core::ops::ControlFlow;
use csv_common::metrics::CostCounters;
use csv_common::traits::{
    IndexStats, LearnedIndex, LevelHistogram, RangeIndex, RemovableIndex, SnapshotIndex,
};
use csv_common::{Key, KeyValue, LinearModel, Value};
use csv_core::cost::SubtreeCostStats;
use csv_core::csv::{CsvIntegrable, RebuildRefusal, SubtreeRef};
use csv_core::layout::SmoothedLayout;

/// Construction parameters of the ALEX tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlexConfig {
    /// Bulk loading splits any key range larger than this into an internal
    /// node; smaller ranges become data nodes.
    pub max_data_node_keys: usize,
    /// Minimum fanout of an internal node.
    pub min_fanout: usize,
    /// Maximum fanout of an internal node.
    pub max_fanout: usize,
    /// CSV rebuilds are refused when the merged node would need more slots
    /// than this.
    pub max_merged_slots: usize,
}

impl Default for AlexConfig {
    fn default() -> Self {
        Self {
            max_data_node_keys: 4096,
            min_fanout: 8,
            max_fanout: 256,
            max_merged_slots: 1 << 26,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Internal {
        model: LinearModel,
        children: Vec<usize>,
        level: usize,
        /// `true` while the node's sub-tree has absorbed inserts/removes
        /// since CSV last considered it; internal nodes start dirty (a
        /// fresh sub-tree has never been considered). Cleared only by
        /// `CsvIntegrable::csv_mark_clean`.
        dirty: bool,
    },
    Data(DataNode),
}

/// The ALEX learned index (see the crate docs for reproduction notes).
#[derive(Debug, Clone)]
pub struct AlexIndex {
    nodes: Vec<Node>,
    free: Vec<usize>,
    root: usize,
    len: usize,
    config: AlexConfig,
}

impl AlexIndex {
    /// Builds an index with a custom configuration.
    pub fn with_config(records: &[KeyValue], config: AlexConfig) -> Self {
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
        };
        index.root = index.build_subtree(records, 1);
        index
    }

    /// The configuration used to build this index.
    pub fn config(&self) -> &AlexConfig {
        &self.config
    }

    fn alloc(&mut self, node: Node) -> usize {
        if let Some(id) = self.free.pop() {
            self.nodes[id] = node;
            id
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    fn free_descendants(&mut self, node_id: usize) {
        let mut stack: Vec<usize> = match &self.nodes[node_id] {
            Node::Internal { children, .. } => children.clone(),
            Node::Data(_) => return,
        };
        while let Some(id) = stack.pop() {
            if let Node::Internal { children, .. } = &self.nodes[id] {
                stack.extend(children.iter().copied());
            }
            self.nodes[id] = Node::Data(DataNode::build(&[], 0));
            self.free.push(id);
        }
    }

    fn build_subtree(&mut self, records: &[KeyValue], level: usize) -> usize {
        let n = records.len();
        if n <= self.config.max_data_node_keys {
            return self.alloc(Node::Data(DataNode::build(records, level)));
        }
        // Choose a fanout so children end up around half the data-node limit.
        let target_children = n / (self.config.max_data_node_keys / 2).max(1);
        let fanout = target_children
            .next_power_of_two()
            .clamp(self.config.min_fanout, self.config.max_fanout);
        let keys: Vec<Key> = records.iter().map(|r| r.key).collect();
        let positions: Vec<f64> = (0..n)
            .map(|i| i as f64 * (fanout - 1) as f64 / (n - 1) as f64)
            .collect();
        let mut model = LinearModel::fit_points(&keys, &positions);
        // Partition by predicted child; fall back to an even spread when the
        // fit degenerates into a single child.
        let mut boundaries = Self::partition(records, &model, fanout);
        if boundaries.iter().filter(|&&(s, e)| e > s).count() <= 1 {
            let min = records[0].key;
            let max = records[n - 1].key;
            let slope = (fanout - 1) as f64 / (max - min).max(1) as f64;
            model = LinearModel::new(slope, -slope * min as f64);
            boundaries = Self::partition(records, &model, fanout);
        }
        let mut children = Vec::with_capacity(fanout);
        // Reserve the internal node id first so child levels line up.
        let node_id = self.alloc(Node::Internal {
            model,
            children: Vec::new(),
            level,
            dirty: true,
        });
        for (start, end) in boundaries {
            let child = self.build_subtree(&records[start..end], level + 1);
            children.push(child);
        }
        if let Node::Internal { children: slot, .. } = &mut self.nodes[node_id] {
            *slot = children;
        }
        node_id
    }

    fn partition(records: &[KeyValue], model: &LinearModel, fanout: usize) -> Vec<(usize, usize)> {
        let mut boundaries = Vec::with_capacity(fanout);
        let mut start = 0usize;
        for child in 0..fanout {
            let end = if child == fanout - 1 {
                records.len()
            } else {
                start
                    + records[start..]
                        .partition_point(|r| model.predict_clamped(r.key, fanout) <= child)
            };
            boundaries.push((start, end));
            start = end;
        }
        boundaries
    }

    fn find_data_node(&self, key: Key) -> usize {
        let mut node_id = self.root;
        loop {
            match &self.nodes[node_id] {
                Node::Internal {
                    model, children, ..
                } => {
                    let idx = model.predict_clamped(key, children.len());
                    node_id = children[idx];
                }
                Node::Data(_) => return node_id,
            }
        }
    }

    /// Flags every internal node on `key`'s routing path as dirty — each of
    /// them roots a sub-tree that just absorbed a structural change.
    fn mark_path_dirty(&mut self, key: Key) {
        let mut node_id = self.root;
        loop {
            match &mut self.nodes[node_id] {
                Node::Internal {
                    model,
                    children,
                    dirty,
                    ..
                } => {
                    *dirty = true;
                    let idx = model.predict_clamped(key, children.len());
                    node_id = children[idx];
                }
                Node::Data(_) => return,
            }
        }
    }

    /// Height of the tree (deepest data-node level).
    pub fn height(&self) -> usize {
        let mut height = 1;
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            match &self.nodes[id] {
                Node::Internal {
                    children, level, ..
                } => {
                    height = height.max(*level);
                    stack.extend(children.iter().copied());
                }
                Node::Data(dn) => height = height.max(dn.level),
            }
        }
        height
    }

    /// Number of data nodes currently reachable.
    pub fn data_node_count(&self) -> usize {
        let mut count = 0;
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            match &self.nodes[id] {
                Node::Internal { children, .. } => stack.extend(children.iter().copied()),
                Node::Data(_) => count += 1,
            }
        }
        count
    }

    /// Depth-first visit of every data node in the sub-tree rooted at
    /// `node_id` — the one traversal behind record/key collection and the
    /// cost statistics.
    fn for_each_data_node(&self, node_id: usize, mut f: impl FnMut(&DataNode)) {
        let mut stack = vec![node_id];
        while let Some(id) = stack.pop() {
            match &self.nodes[id] {
                Node::Internal { children, .. } => stack.extend(children.iter().copied()),
                Node::Data(dn) => f(dn),
            }
        }
    }

    fn collect_records(&self, node_id: usize) -> Vec<KeyValue> {
        let mut out = Vec::new();
        self.for_each_data_node(node_id, |dn| out.extend(dn.records()));
        out.sort_unstable_by_key(|r| r.key);
        out
    }

    fn subtree_cost_stats(&self, node_id: usize) -> SubtreeCostStats {
        let base_level = match &self.nodes[node_id] {
            Node::Internal { level, .. } => *level,
            Node::Data(dn) => dn.level,
        };
        let mut num_keys = 0usize;
        let mut depth_sum = 0.0f64;
        let mut search_sum = 0.0f64;
        self.for_each_data_node(node_id, |dn| {
            let keys = dn.num_keys();
            num_keys += keys;
            depth_sum += (dn.level - base_level + 1) as f64 * keys as f64;
            search_sum += dn.expected_searches() * keys as f64;
        });
        if num_keys == 0 {
            SubtreeCostStats {
                num_keys: 0,
                mean_key_depth: 0.0,
                expected_searches: 0.0,
            }
        } else {
            SubtreeCostStats {
                num_keys,
                mean_key_depth: depth_sum / num_keys as f64,
                expected_searches: search_sum / num_keys as f64,
            }
        }
    }
}

impl LearnedIndex for AlexIndex {
    fn name(&self) -> &'static str {
        "ALEX"
    }

    fn bulk_load(records: &[KeyValue]) -> Self {
        Self::with_config(records, AlexConfig::default())
    }

    fn get(&self, key: Key) -> Option<Value> {
        let node_id = self.find_data_node(key);
        match &self.nodes[node_id] {
            Node::Data(dn) => dn.get(key),
            Node::Internal { .. } => unreachable!("find_data_node ends at a data node"),
        }
    }

    fn get_counted(&self, key: Key, counters: &mut CostCounters) -> Option<Value> {
        let mut node_id = self.root;
        loop {
            counters.nodes_visited += 1;
            match &self.nodes[node_id] {
                Node::Internal {
                    model, children, ..
                } => {
                    counters.model_evals += 1;
                    let idx = model.predict_clamped(key, children.len());
                    node_id = children[idx];
                }
                Node::Data(dn) => return dn.get_counted(key, counters),
            }
        }
    }

    fn insert(&mut self, key: Key, value: Value) -> bool {
        let node_id = self.find_data_node(key);
        let (new, needs_expand) = match &mut self.nodes[node_id] {
            Node::Data(dn) => {
                let (new, _shifts) = dn.insert(key, value);
                (new, dn.density() > DataNode::MAX_DENSITY)
            }
            Node::Internal { .. } => unreachable!(),
        };
        if needs_expand {
            if let Node::Data(dn) = &mut self.nodes[node_id] {
                dn.expand();
            }
        }
        if new {
            self.len += 1;
            self.mark_path_dirty(key);
        }
        new
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
            node_count += 1;
            match &self.nodes[id] {
                Node::Internal {
                    children, level, ..
                } => {
                    height = height.max(*level);
                    if *level >= 3 {
                        deep_node_count += 1;
                    }
                    size_bytes += children.len() * 8 + 48;
                    stack.extend(children.iter().copied());
                }
                Node::Data(dn) => {
                    height = height.max(dn.level);
                    if dn.level >= 3 {
                        deep_node_count += 1;
                    }
                    size_bytes += dn.size_bytes();
                    if dn.num_keys() > 0 {
                        histogram.record(dn.level, dn.num_keys());
                    }
                }
            }
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
        let node_id = self.find_data_node(key);
        match &self.nodes[node_id] {
            Node::Data(dn) => dn.get(key).map(|_| dn.level),
            Node::Internal { .. } => unreachable!(),
        }
    }
}

impl AlexIndex {
    /// In-order streaming scan: children of an internal node cover
    /// contiguous, ascending key ranges (the bulk loader partitions sorted
    /// records by the monotone routing model), so the sub-trees that can
    /// overlap `[lo, hi]` are exactly those between the children routing `lo`
    /// and `hi`. A `Break` can only originate from the visitor (data nodes
    /// treat running past `hi` as natural exhaustion), so it propagates
    /// unchanged through the recursion.
    fn visit_node(
        &self,
        node_id: usize,
        lo: Key,
        hi: Key,
        f: &mut dyn FnMut(Key, Value) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        match &self.nodes[node_id] {
            Node::Internal {
                model, children, ..
            } => {
                let first = model.predict_clamped(lo, children.len());
                let last = model.predict_clamped(hi, children.len()).max(first);
                for &child in &children[first..=last] {
                    self.visit_node(child, lo, hi, f)?;
                }
                ControlFlow::Continue(())
            }
            Node::Data(dn) => dn.range_visit(lo, hi, f),
        }
    }
}

impl RangeIndex for AlexIndex {
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
        self.visit_node(self.root, lo, hi, f)
    }
}

/// Snapshot audit: `derive(Clone)` deep-copies the node arena — internal
/// nodes own their child-pointer `Vec`s, data nodes their gapped key/value
/// arrays — plus the free list and scalars. No sharing, no interior
/// mutability; cloning is O(slots) and the clone is safe to mutate while
/// readers traverse the original.
impl SnapshotIndex for AlexIndex {}

impl RemovableIndex for AlexIndex {
    fn remove(&mut self, key: Key) -> Option<Value> {
        let node_id = self.find_data_node(key);
        let removed = match &mut self.nodes[node_id] {
            Node::Data(dn) => dn.remove(key),
            Node::Internal { .. } => unreachable!("find_data_node ends at a data node"),
        };
        if removed.is_some() {
            self.len -= 1;
            self.mark_path_dirty(key);
        }
        removed
    }
}

impl CsvIntegrable for AlexIndex {
    fn csv_tracks_dirty(&self) -> bool {
        true
    }

    fn csv_dirty_subtrees_at_level(&self, level: usize) -> Vec<SubtreeRef> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            if let Node::Internal {
                children,
                level: l,
                dirty,
                ..
            } = &self.nodes[id]
            {
                if *l == level && *dirty {
                    out.push(SubtreeRef { node_id: id, level });
                }
                stack.extend(children.iter().copied());
            }
        }
        out
    }

    fn csv_mark_clean(&mut self) {
        // Clearing the whole arena (free-listed slots included) is safe:
        // reallocated internal nodes start dirty again.
        for node in &mut self.nodes {
            if let Node::Internal { dirty, .. } = node {
                *dirty = false;
            }
        }
    }

    fn csv_max_level(&self) -> usize {
        let mut max_level = 0usize;
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            if let Node::Internal {
                children, level, ..
            } = &self.nodes[id]
            {
                max_level = max_level.max(*level);
                stack.extend(children.iter().copied());
            }
        }
        max_level
    }

    fn csv_subtrees_at_level(&self, level: usize) -> Vec<SubtreeRef> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            if let Node::Internal {
                children, level: l, ..
            } = &self.nodes[id]
            {
                if *l == level {
                    out.push(SubtreeRef { node_id: id, level });
                }
                stack.extend(children.iter().copied());
            }
        }
        out
    }

    fn csv_collect_keys_into(&self, subtree: &SubtreeRef, buf: &mut Vec<Key>) {
        let start = buf.len();
        self.for_each_data_node(subtree.node_id, |dn| dn.keys_into(buf));
        buf[start..].sort_unstable();
    }

    fn csv_subtree_cost(&self, subtree: &SubtreeRef) -> SubtreeCostStats {
        self.subtree_cost_stats(subtree.node_id)
    }

    fn csv_rebuild_subtree(
        &mut self,
        subtree: &SubtreeRef,
        layout: &SmoothedLayout,
    ) -> Result<(), RebuildRefusal> {
        if layout.num_slots() > self.config.max_merged_slots {
            return Err(RebuildRefusal::CapacityExceeded);
        }
        let node_id = subtree.node_id;
        let level = match &self.nodes[node_id] {
            Node::Internal { level, .. } => *level,
            Node::Data(dn) => dn.level,
        };
        let records = self.collect_records(node_id);
        if records.len() != layout.num_real() {
            return Err(RebuildRefusal::StaleLayout);
        }
        // Desired slot of every real record = its rank in the smoothed
        // layout. A key mismatch means the sub-tree's contents changed since
        // the layout was planned (possible in the short-lock sharded path,
        // where writes can land between plan and apply).
        let mut ranks = Vec::with_capacity(records.len());
        for (rank, entry) in layout.entries().iter().enumerate() {
            if entry.is_real() {
                if records[ranks.len()].key != entry.key() {
                    return Err(RebuildRefusal::StaleLayout);
                }
                ranks.push(rank);
            }
        }
        let merged = DataNode::build_from_layout(
            &records,
            level,
            layout.num_slots(),
            *layout.model(),
            &ranks,
        );
        self.free_descendants(node_id);
        self.nodes[node_id] = Node::Data(merged);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csv_common::key::identity_records;
    use csv_core::cost::CostModel;
    use csv_core::{CsvConfig, CsvOptimizer};

    /// Fractal key space (same construction as the LIPP tests): gaps grow by
    /// orders of magnitude at every scale, forcing a multi-level ALEX tree.
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
    fn bulk_load_and_lookup() {
        let keys = hard_keys(50_000);
        let index = AlexIndex::bulk_load(&identity_records(&keys));
        assert_eq!(index.len(), keys.len());
        assert_eq!(index.name(), "ALEX");
        assert!(
            index.height() >= 2,
            "50k keys must not fit a single data node"
        );
        assert!(index.data_node_count() >= 2);
        for &k in keys.iter().step_by(73) {
            assert_eq!(index.get(k), Some(k));
        }
        assert_eq!(index.get(*keys.last().unwrap() + 999), None);
    }

    #[test]
    fn empty_and_small_indexes() {
        let empty = AlexIndex::bulk_load(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.get(3), None);
        assert_eq!(empty.level_of_key(3), None);
        let small = AlexIndex::bulk_load(&identity_records(&[1, 5, 9]));
        assert_eq!(small.height(), 1);
        assert_eq!(small.get(5), Some(5));
        assert_eq!(small.level_of_key(5), Some(1));
    }

    #[test]
    fn inserts_and_expansion_keep_correctness() {
        let keys: Vec<Key> = (0..30_000u64).map(|i| i * 4).collect();
        let mut index = AlexIndex::bulk_load(&identity_records(&keys));
        for i in 0..30_000u64 {
            assert!(index.insert(i * 4 + 1, i));
        }
        assert_eq!(index.len(), 60_000);
        for i in (0..30_000u64).step_by(101) {
            assert_eq!(index.get(i * 4), Some(i * 4));
            assert_eq!(index.get(i * 4 + 1), Some(i));
        }
        assert!(!index.insert(1, 77));
        assert_eq!(index.get(1), Some(77));
    }

    #[test]
    fn counted_lookups_and_stats() {
        let keys = hard_keys(60_000);
        let index = AlexIndex::bulk_load(&identity_records(&keys));
        let stats = index.stats();
        assert_eq!(stats.num_keys, keys.len());
        assert_eq!(stats.level_histogram.total(), keys.len());
        assert_eq!(stats.height, index.height());
        assert!(stats.node_count > 1);
        assert!(stats.size_bytes > keys.len() * 8);
        let mut counters = CostCounters::new();
        assert_eq!(index.get_counted(keys[777], &mut counters), Some(keys[777]));
        assert!(counters.nodes_visited >= 2);
        assert!(counters.comparisons >= 1);
    }

    /// A configuration with small data nodes and a modest fanout so the test
    /// workloads produce trees that are at least three levels deep (the
    /// regime CSV targets).
    fn deep_config() -> AlexConfig {
        AlexConfig {
            max_data_node_keys: 512,
            min_fanout: 4,
            max_fanout: 16,
            ..AlexConfig::default()
        }
    }

    #[test]
    fn csv_merges_subtrees_and_respects_cost_model() {
        let keys = hard_keys(60_000);
        let mut index = AlexIndex::with_config(&identity_records(&keys), deep_config());
        assert!(
            index.height() >= 3,
            "test needs a deep tree, got {}",
            index.height()
        );
        let before = index.stats();
        let config = CsvConfig::for_alex(0.2, CostModel::new(1.0, 2.5, 0.0));
        let report = CsvOptimizer::new(config).optimize(&mut index);
        let after = index.stats();
        assert_eq!(index.len(), keys.len());
        for &k in keys.iter().step_by(211) {
            assert_eq!(index.get(k), Some(k));
        }
        assert!(report.subtrees_considered() > 0);
        // Merging reduces the node count whenever anything was rebuilt.
        if report.subtrees_rebuilt > 0 {
            assert!(after.node_count <= before.node_count);
            assert!(after.mean_key_level() <= before.mean_key_level() + 1e-9);
            assert!(report.virtual_points_added > 0);
        }
    }

    #[test]
    fn csv_strict_threshold_rebuilds_less() {
        let keys = hard_keys(40_000);
        let run = |threshold: f64| {
            let mut index = AlexIndex::with_config(&identity_records(&keys), deep_config());
            let config = CsvConfig::for_alex(0.1, CostModel::new(1.0, 2.5, threshold));
            CsvOptimizer::new(config)
                .optimize(&mut index)
                .subtrees_rebuilt
        };
        let lenient = run(0.0);
        let strict = run(-5.0);
        assert!(strict <= lenient, "strict {strict} vs lenient {lenient}");
    }

    #[test]
    fn dirty_tracking_restricts_plan_dirty_to_touched_subtrees() {
        let keys = hard_keys(60_000);
        let mut index = AlexIndex::with_config(&identity_records(&keys), deep_config());
        assert!(index.csv_tracks_dirty());
        let config = CsvConfig::for_alex(0.2, CostModel::new(1.0, 2.5, 0.0));
        let optimizer = CsvOptimizer::new(config);

        // Freshly built: fully dirty at every level, so the incremental
        // plan equals the full plan.
        let full = optimizer.plan(&index);
        let dirty = optimizer.plan_dirty(&index);
        assert!(!full.is_empty());
        assert_eq!(full.decisions(), dirty.decisions());

        index.csv_mark_clean();
        for level in 1..=index.csv_max_level() {
            assert!(index.csv_dirty_subtrees_at_level(level).is_empty());
        }
        assert!(optimizer.plan_dirty(&index).is_empty());

        // One insert dirties exactly its routing path: at most one sub-tree
        // per level.
        let probe = *keys.last().unwrap() + 1_000;
        assert!(index.insert(probe, probe));
        let mut touched_levels = 0usize;
        for level in 1..=index.csv_max_level() {
            let touched = index.csv_dirty_subtrees_at_level(level);
            assert!(
                touched.len() <= 1,
                "level {level} has {} dirty roots",
                touched.len()
            );
            touched_levels += touched.len();
        }
        assert!(touched_levels >= 1, "the insert must dirty its path");
        let plan = optimizer.plan_dirty(&index);
        assert!(plan.len() <= touched_levels);
    }

    #[test]
    fn csv_rebuild_rejects_stale_layout_and_oversized_nodes() {
        let keys = hard_keys(20_000);
        let mut index = AlexIndex::bulk_load(&identity_records(&keys));
        let level = index.csv_max_level();
        assert!(level >= 1);
        let subtree = index
            .csv_subtrees_at_level(level)
            .into_iter()
            .next()
            .unwrap();
        let mut collected = index.csv_collect_keys(&subtree);
        collected.pop();
        let layout = SmoothedLayout::identity(&collected);
        assert_eq!(
            index.csv_rebuild_subtree(&subtree, &layout),
            Err(csv_core::csv::RebuildRefusal::StaleLayout)
        );

        // Same key count but a different key set (what a concurrent
        // remove+insert between plan and apply produces) is stale too.
        let mut swapped = index.csv_collect_keys(&subtree);
        let last = swapped.len() - 1;
        swapped[last] += 1;
        let layout = SmoothedLayout::identity(&swapped);
        assert_eq!(
            index.csv_rebuild_subtree(&subtree, &layout),
            Err(csv_core::csv::RebuildRefusal::StaleLayout)
        );

        let tiny_config = AlexConfig {
            max_merged_slots: 4,
            ..AlexConfig::default()
        };
        let mut tiny = AlexIndex::with_config(&identity_records(&keys), tiny_config);
        let subtree = tiny
            .csv_subtrees_at_level(tiny.csv_max_level())
            .into_iter()
            .next()
            .unwrap();
        let full = tiny.csv_collect_keys(&subtree);
        let layout = SmoothedLayout::identity(&full);
        assert_eq!(
            tiny.csv_rebuild_subtree(&subtree, &layout),
            Err(csv_core::csv::RebuildRefusal::CapacityExceeded)
        );
    }

    #[test]
    fn range_scans_match_oracle() {
        let keys = hard_keys(40_000);
        let index = AlexIndex::with_config(&identity_records(&keys), deep_config());
        assert_eq!(index.range(0, u64::MAX).len(), keys.len());
        for (start, span) in [(100usize, 2_000u64), (20_000, 50), (39_000, 10_000_000)] {
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
            assert!(got.windows(2).all(|w| w[0].key < w[1].key));
        }
        assert!(index.range(10, 5).is_empty());
    }

    #[test]
    fn removals_keep_structure_consistent() {
        let keys = hard_keys(20_000);
        let mut index = AlexIndex::bulk_load(&identity_records(&keys));
        for &k in keys.iter().step_by(4) {
            assert_eq!(index.remove(k), Some(k));
        }
        let removed = keys.iter().step_by(4).count();
        assert_eq!(index.len(), keys.len() - removed);
        for (i, &k) in keys.iter().enumerate() {
            if i % 4 == 0 {
                assert_eq!(index.get(k), None, "removed key {k} resurfaced");
            } else if i % 7 == 0 {
                assert_eq!(index.get(k), Some(k));
            }
        }
        assert_eq!(index.remove(keys[0]), None, "double removal returns None");
        // Removed slots act as gaps for later inserts.
        assert!(index.insert(keys[0], 9_999));
        assert_eq!(index.get(keys[0]), Some(9_999));
        // Ranges exclude removed keys.
        let lo = keys[0];
        let hi = keys[200];
        let expected: Vec<Key> = keys
            .iter()
            .enumerate()
            .filter(|&(i, &k)| k >= lo && k <= hi && (i % 4 != 0 || i == 0))
            .map(|(_, &k)| k)
            .collect();
        assert_eq!(
            index
                .range(lo, hi)
                .iter()
                .map(|r| r.key)
                .collect::<Vec<_>>(),
            expected
        );
    }

    #[test]
    fn subtree_cost_reflects_leaf_search_component() {
        let keys = hard_keys(30_000);
        let index = AlexIndex::bulk_load(&identity_records(&keys));
        let level = index.csv_max_level();
        for subtree in index.csv_subtrees_at_level(level) {
            let cost = index.csv_subtree_cost(&subtree);
            if cost.num_keys > 0 {
                assert!(cost.expected_searches >= 1.0, "ALEX always searches leaves");
                assert!(cost.mean_key_depth >= 1.0);
            }
        }
    }
}
