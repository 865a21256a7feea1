//! B+-tree node layout and operations.

use core::ops::ControlFlow;
use csv_common::metrics::CostCounters;
use csv_common::traits::{
    IndexStats, LearnedIndex, LevelHistogram, RangeIndex, RemovableIndex, SnapshotIndex,
};
use csv_common::{Key, KeyValue, Value};

/// Maximum number of entries in a leaf / children in an internal node.
const DEFAULT_FANOUT: usize = 64;

#[derive(Debug, Clone)]
enum Node {
    Internal {
        /// `separators[i]` is the smallest key of `children[i + 1]`'s subtree.
        separators: Vec<Key>,
        children: Vec<usize>,
    },
    Leaf {
        keys: Vec<Key>,
        values: Vec<Value>,
    },
}

/// An order-`FANOUT` in-memory B+-tree with arena-allocated nodes.
#[derive(Debug, Clone)]
pub struct BPlusTree {
    nodes: Vec<Node>,
    root: usize,
    len: usize,
    fanout: usize,
}

impl BPlusTree {
    /// Builds a tree with a custom fanout.
    pub fn with_fanout(records: &[KeyValue], fanout: usize) -> Self {
        assert!(fanout >= 4, "fanout must be at least 4");
        let mut tree = Self {
            nodes: Vec::new(),
            root: 0,
            len: 0,
            fanout,
        };
        tree.build(records);
        tree
    }

    fn build(&mut self, records: &[KeyValue]) {
        self.nodes.clear();
        self.len = records.len();
        if records.is_empty() {
            self.root = self.push(Node::Leaf {
                keys: Vec::new(),
                values: Vec::new(),
            });
            return;
        }
        // Build the leaf level at ~2/3 occupancy so bulk-loaded trees still
        // absorb inserts without immediate splits.
        let per_leaf = (self.fanout * 2 / 3).max(2);
        let mut level: Vec<(Key, usize)> = Vec::new();
        for chunk in records.chunks(per_leaf) {
            let keys: Vec<Key> = chunk.iter().map(|r| r.key).collect();
            let values: Vec<Value> = chunk.iter().map(|r| r.value).collect();
            let min_key = keys[0];
            let id = self.push(Node::Leaf { keys, values });
            level.push((min_key, id));
        }
        // Build internal levels until a single root remains.
        while level.len() > 1 {
            let mut next: Vec<(Key, usize)> = Vec::new();
            for chunk in level.chunks(self.fanout) {
                let children: Vec<usize> = chunk.iter().map(|&(_, id)| id).collect();
                let separators: Vec<Key> = chunk.iter().skip(1).map(|&(k, _)| k).collect();
                let min_key = chunk[0].0;
                let id = self.push(Node::Internal {
                    separators,
                    children,
                });
                next.push((min_key, id));
            }
            level = next;
        }
        self.root = level[0].1;
    }

    fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Height of the tree in levels (1 = a single leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                Node::Internal { children, .. } => {
                    node = children[0];
                    h += 1;
                }
                Node::Leaf { .. } => return h,
            }
        }
    }

    fn descend(&self, key: Key, counters: Option<&mut CostCounters>) -> usize {
        let mut node = self.root;
        let mut visited = 0usize;
        let mut comparisons = 0usize;
        loop {
            visited += 1;
            match &self.nodes[node] {
                Node::Internal {
                    separators,
                    children,
                } => {
                    let idx = separators.partition_point(|&s| s <= key);
                    comparisons += (separators.len().max(1)).ilog2() as usize + 1;
                    node = children[idx];
                }
                Node::Leaf { .. } => {
                    if let Some(c) = counters {
                        c.nodes_visited += visited;
                        c.comparisons += comparisons;
                    }
                    return node;
                }
            }
        }
    }

    fn split_leaf_if_needed(&mut self, leaf: usize) -> Option<(Key, usize)> {
        let fanout = self.fanout;
        let (new_keys, new_values) = match &mut self.nodes[leaf] {
            Node::Leaf { keys, values } if keys.len() > fanout => {
                let mid = keys.len() / 2;
                (keys.split_off(mid), values.split_off(mid))
            }
            _ => return None,
        };
        let split_key = new_keys[0];
        let new_leaf = self.push(Node::Leaf {
            keys: new_keys,
            values: new_values,
        });
        Some((split_key, new_leaf))
    }
}

impl LearnedIndex for BPlusTree {
    fn name(&self) -> &'static str {
        "B+Tree"
    }

    fn bulk_load(records: &[KeyValue]) -> Self {
        Self::with_fanout(records, DEFAULT_FANOUT)
    }

    fn get(&self, key: Key) -> Option<Value> {
        let leaf = self.descend(key, None);
        match &self.nodes[leaf] {
            Node::Leaf { keys, values } => keys.binary_search(&key).ok().map(|i| values[i]),
            Node::Internal { .. } => unreachable!("descend always ends at a leaf"),
        }
    }

    fn get_counted(&self, key: Key, counters: &mut CostCounters) -> Option<Value> {
        let leaf = self.descend(key, Some(counters));
        match &self.nodes[leaf] {
            Node::Leaf { keys, values } => {
                counters.comparisons += (keys.len().max(1)).ilog2() as usize + 1;
                keys.binary_search(&key).ok().map(|i| values[i])
            }
            Node::Internal { .. } => unreachable!("descend always ends at a leaf"),
        }
    }

    fn insert(&mut self, key: Key, value: Value) -> bool {
        // Descend remembering the path so splits can be propagated.
        let mut path = Vec::new();
        let mut node = self.root;
        while let Node::Internal {
            separators,
            children,
        } = &self.nodes[node]
        {
            let idx = separators.partition_point(|&s| s <= key);
            path.push((node, idx));
            node = children[idx];
        }
        let inserted = match &mut self.nodes[node] {
            Node::Leaf { keys, values } => match keys.binary_search(&key) {
                Ok(i) => {
                    values[i] = value;
                    false
                }
                Err(i) => {
                    keys.insert(i, key);
                    values.insert(i, value);
                    true
                }
            },
            Node::Internal { .. } => unreachable!(),
        };
        if inserted {
            self.len += 1;
        }
        // Propagate splits up the path.
        let mut split = self.split_leaf_if_needed(node);
        while let Some((sep_key, new_child)) = split {
            match path.pop() {
                Some((parent, idx)) => {
                    let fanout = self.fanout;
                    let needs_split = match &mut self.nodes[parent] {
                        Node::Internal {
                            separators,
                            children,
                        } => {
                            separators.insert(idx, sep_key);
                            children.insert(idx + 1, new_child);
                            separators.len() + 1 > fanout
                        }
                        Node::Leaf { .. } => unreachable!(),
                    };
                    split = if needs_split {
                        let (new_seps, new_children, promote) = match &mut self.nodes[parent] {
                            Node::Internal {
                                separators,
                                children,
                            } => {
                                let mid = separators.len() / 2;
                                let promote = separators[mid];
                                let right_seps = separators.split_off(mid + 1);
                                separators.pop();
                                let right_children = children.split_off(mid + 1);
                                (right_seps, right_children, promote)
                            }
                            Node::Leaf { .. } => unreachable!(),
                        };
                        let new_internal = self.push(Node::Internal {
                            separators: new_seps,
                            children: new_children,
                        });
                        Some((promote, new_internal))
                    } else {
                        None
                    };
                }
                None => {
                    // Split reached the root: grow the tree by one level.
                    let old_root = self.root;
                    let new_root = self.push(Node::Internal {
                        separators: vec![sep_key],
                        children: vec![old_root, new_child],
                    });
                    self.root = new_root;
                    split = None;
                }
            }
        }
        inserted
    }

    fn len(&self) -> usize {
        self.len
    }

    fn stats(&self) -> IndexStats {
        let height = self.height();
        let mut histogram = LevelHistogram::new();
        // Every key lives in a leaf, i.e. at the bottom level.
        if self.len > 0 {
            histogram.record(height, self.len);
        }
        let size_bytes: usize = self
            .nodes
            .iter()
            .map(|n| match n {
                Node::Internal {
                    separators,
                    children,
                } => separators.len() * 8 + children.len() * 8 + 48,
                Node::Leaf { keys, values } => keys.len() * 8 + values.len() * 8 + 48,
            })
            .sum();
        IndexStats {
            level_histogram: histogram,
            node_count: self.nodes.len(),
            deep_node_count: if height >= 3 { self.nodes.len() } else { 0 },
            height,
            size_bytes,
            num_keys: self.len,
        }
    }

    fn level_of_key(&self, key: Key) -> Option<usize> {
        if self.get(key).is_some() {
            Some(self.height())
        } else {
            None
        }
    }
}

impl RangeIndex for BPlusTree {
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

/// Snapshot audit: `derive(Clone)` deep-copies the node arena (every
/// internal node owns its key/child `Vec`s, every leaf its key/value
/// `Vec`s) plus the root/len/fanout scalars — a pure O(keys) copy with no
/// shared state.
impl SnapshotIndex for BPlusTree {}

impl RemovableIndex for BPlusTree {
    fn remove(&mut self, key: Key) -> Option<Value> {
        // Leaves never merge after a removal; the tree stays correct but may
        // hold under-full leaves, which is acceptable for a read-heavy
        // baseline (the same simplification the SOSD-style benchmarks make).
        let leaf = self.descend(key, None);
        let removed = match &mut self.nodes[leaf] {
            Node::Leaf { keys, values } => match keys.binary_search(&key) {
                Ok(i) => {
                    keys.remove(i);
                    Some(values.remove(i))
                }
                Err(_) => None,
            },
            Node::Internal { .. } => unreachable!("descend always ends at a leaf"),
        };
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }
}

impl BPlusTree {
    /// Streams every record of `node_id`'s sub-tree whose key is in
    /// `[lo, hi]` to `f`, pruning children whose separator ranges cannot
    /// overlap. Candidate children and leaf slots are bounded by partition
    /// points, so a `Break` can only originate from the visitor and
    /// propagates unchanged.
    fn visit_node(
        &self,
        node_id: usize,
        lo: Key,
        hi: Key,
        f: &mut dyn FnMut(Key, Value) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        match &self.nodes[node_id] {
            Node::Internal {
                separators,
                children,
            } => {
                // Child `i` covers keys in [separators[i-1], separators[i]).
                let first = separators.partition_point(|&s| s <= lo);
                let last = separators.partition_point(|&s| s <= hi);
                for &child in &children[first..=last.min(children.len() - 1)] {
                    self.visit_node(child, lo, hi, f)?;
                }
            }
            Node::Leaf { keys, values } => {
                let start = keys.partition_point(|&k| k < lo);
                let end = keys.partition_point(|&k| k <= hi);
                for i in start..end {
                    f(keys[i], values[i])?;
                }
            }
        }
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csv_common::key::identity_records;

    fn keys(n: u64, stride: u64) -> Vec<Key> {
        (0..n).map(|i| i * stride + 3).collect()
    }

    #[test]
    fn range_scans_match_oracle() {
        let ks = keys(20_000, 7);
        let tree = BPlusTree::bulk_load(&identity_records(&ks));
        // Full range.
        let all = tree.range(0, u64::MAX);
        assert_eq!(all.len(), ks.len());
        assert!(all.windows(2).all(|w| w[0].key < w[1].key));
        // Interior ranges at several offsets and widths.
        for (i, width) in [(100usize, 500u64), (7_777, 3), (19_990, 100_000)] {
            let lo = ks[i];
            let hi = lo + width * 7;
            let got = tree.range(lo, hi);
            let expected: Vec<Key> = ks.iter().copied().filter(|&k| k >= lo && k <= hi).collect();
            assert_eq!(got.iter().map(|r| r.key).collect::<Vec<_>>(), expected);
            assert_eq!(tree.count_range(lo, hi), expected.len());
        }
        // Empty and inverted ranges.
        assert!(tree.range(1, 2).is_empty());
        assert!(tree.range(500, 400).is_empty());
    }

    #[test]
    fn removals_match_oracle() {
        let ks = keys(5_000, 5);
        let mut tree = BPlusTree::bulk_load(&identity_records(&ks));
        // Remove every third key.
        let mut removed = 0usize;
        for &k in ks.iter().step_by(3) {
            assert_eq!(tree.remove(k), Some(k));
            removed += 1;
        }
        assert_eq!(tree.len(), ks.len() - removed);
        // Removed keys are gone, the rest stay, double-removal returns None.
        for (i, &k) in ks.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(tree.get(k), None);
                assert_eq!(tree.remove(k), None);
            } else {
                assert_eq!(tree.get(k), Some(k));
            }
        }
        // Remove + reinsert round-trips.
        assert!(tree.insert(ks[0], 42));
        assert_eq!(tree.get(ks[0]), Some(42));
    }

    #[test]
    fn bulk_load_and_lookup() {
        let ks = keys(10_000, 7);
        let tree = BPlusTree::bulk_load(&identity_records(&ks));
        assert_eq!(tree.len(), ks.len());
        assert_eq!(tree.name(), "B+Tree");
        assert!(tree.height() >= 2);
        for &k in ks.iter().step_by(97) {
            assert_eq!(tree.get(k), Some(k));
            assert_eq!(tree.get(k + 1), None);
        }
        assert_eq!(tree.level_of_key(ks[42]), Some(tree.height()));
        assert_eq!(tree.level_of_key(1), None);
    }

    #[test]
    fn empty_tree_behaves() {
        let mut tree = BPlusTree::bulk_load(&[]);
        assert!(tree.is_empty());
        assert_eq!(tree.get(5), None);
        assert!(tree.insert(5, 50));
        assert!(!tree.insert(5, 51));
        assert_eq!(tree.get(5), Some(51));
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn inserts_trigger_splits_and_grow_height() {
        let mut tree = BPlusTree::with_fanout(&[], 4);
        for k in 0..1000u64 {
            assert!(tree.insert(k * 2, k));
        }
        assert_eq!(tree.len(), 1000);
        assert!(tree.height() >= 4, "small fanout must force a tall tree");
        for k in 0..1000u64 {
            assert_eq!(tree.get(k * 2), Some(k));
            assert_eq!(tree.get(k * 2 + 1), None);
        }
    }

    #[test]
    fn counted_lookups_charge_costs() {
        let ks = keys(50_000, 3);
        let tree = BPlusTree::bulk_load(&identity_records(&ks));
        let mut counters = CostCounters::new();
        assert_eq!(
            tree.get_counted(ks[12_345], &mut counters),
            Some(ks[12_345])
        );
        assert!(counters.nodes_visited >= tree.height());
        assert!(counters.comparisons > 0);
    }

    #[test]
    fn stats_report_structure() {
        let ks = keys(20_000, 5);
        let tree = BPlusTree::bulk_load(&identity_records(&ks));
        let stats = tree.stats();
        assert_eq!(stats.num_keys, 20_000);
        assert_eq!(stats.height, tree.height());
        assert!(stats.node_count > 20_000 / 64);
        assert!(stats.size_bytes > 20_000 * 16);
        assert_eq!(stats.level_histogram.total(), 20_000);
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn tiny_fanout_rejected() {
        BPlusTree::with_fanout(&[], 2);
    }
}
