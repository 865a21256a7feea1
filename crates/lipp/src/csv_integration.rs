//! CSV (Algorithm 2) integration for LIPP.
//!
//! LIPP has no leaf-search component, so the paper uses the pure loss
//! condition: any sub-tree whose smoothed key set fits a single model better
//! than before is merged into one flat node. The merged node's capacity is
//! the smoothed layout's slot count — the virtual points become empty slots
//! that both keep the model accurate and absorb future inserts.

use crate::index::LippIndex;
use crate::node::{Node, Tag};
use csv_common::{Key, KeyValue};
use csv_core::cost::SubtreeCostStats;
use csv_core::csv::{CsvIntegrable, RebuildRefusal, SubtreeRef};
use csv_core::layout::SmoothedLayout;

impl LippIndex {
    fn subtree_mean_depth(&self, node_id: usize) -> f64 {
        // Mean depth of Data slots relative to the sub-tree root (depth 1).
        let mut total = 0usize;
        let mut count = 0usize;
        let base_level = self.nodes[node_id].level();
        let mut stack = vec![node_id];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id];
            let depth = node.level() - base_level + 1;
            let local = node.local_keys();
            total += depth * local;
            count += local;
            stack.extend(node.children());
        }
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }

    /// The nodes at `level` that have children and pass `keep`, in
    /// [`LippIndex::node_views`] order. A child is one level below its
    /// parent, so the walk never reads a node below `level`, and pruning
    /// whole sub-trees from a depth-first walk keeps the order of the rest.
    fn subtree_roots_at_level(
        &self,
        level: usize,
        keep: impl Fn(&Node) -> bool,
    ) -> Vec<SubtreeRef> {
        let mut roots = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id];
            if node.level() < level {
                stack.extend(node.children());
            } else if node.child_count() > 0 && keep(node) {
                debug_assert_eq!(node.level(), level, "a child is one level below its parent");
                roots.push(SubtreeRef { node_id: id, level });
            }
        }
        roots
    }
}

impl CsvIntegrable for LippIndex {
    fn csv_tracks_dirty(&self) -> bool {
        true
    }

    fn csv_dirty_subtrees_at_level(&self, level: usize) -> Vec<SubtreeRef> {
        // Inserts/removes flag every node on their root-to-slot path, so a
        // sub-tree root is dirty iff anything below it changed since the
        // last `csv_mark_clean`.
        self.subtree_roots_at_level(level, |node| node.dirty)
    }

    fn csv_mark_clean(&mut self) {
        // Clearing the whole arena (free-listed slots included) is safe:
        // reallocation goes through `Node::empty`, which starts dirty.
        for node in &mut self.nodes {
            node.dirty = false;
        }
    }

    fn csv_max_level(&self) -> usize {
        // The deepest level of a node with children, found by reading tag
        // words only: the walk never touches a record.
        let mut max_level = 0;
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id];
            let pushed = stack.len();
            stack.extend(node.children());
            if stack.len() > pushed {
                max_level = max_level.max(node.level());
            }
        }
        max_level
    }

    fn csv_subtrees_at_level(&self, level: usize) -> Vec<SubtreeRef> {
        self.subtree_roots_at_level(level, |_| true)
    }

    fn csv_collect_keys_into(&self, subtree: &SubtreeRef, buf: &mut Vec<Key>) {
        // Appends straight into the caller's scratch buffer: no intermediate
        // record vector, no per-sub-tree allocation once the buffer has
        // grown to the largest sub-tree of the sweep.
        let start = buf.len();
        buf.reserve(self.nodes[subtree.node_id].subtree_keys);
        let mut stack = vec![subtree.node_id];
        while let Some(id) = stack.pop() {
            for (tag, entry) in self.nodes[id].occupied() {
                match tag {
                    Tag::Data => buf.push(entry.key),
                    _ => stack.push(entry.child()),
                }
            }
        }
        buf[start..].sort_unstable();
    }

    fn csv_subtree_cost(&self, subtree: &SubtreeRef) -> SubtreeCostStats {
        SubtreeCostStats {
            num_keys: self.nodes[subtree.node_id].subtree_keys,
            mean_key_depth: self.subtree_mean_depth(subtree.node_id),
            // LIPP performs no leaf-node search: one equality check per
            // lookup, independent of node size.
            expected_searches: 1.0,
        }
    }

    fn csv_rebuild_subtree(
        &mut self,
        subtree: &SubtreeRef,
        layout: &SmoothedLayout,
    ) -> Result<(), RebuildRefusal> {
        // Guard against absurdly large merged nodes.
        if layout.num_slots() > (1 << 26) {
            return Err(RebuildRefusal::CapacityExceeded);
        }
        let node_id = subtree.node_id;
        let level = self.nodes[node_id].level();
        let records = self.collect_records(node_id);
        if records.len() != layout.num_real() {
            // The layout no longer matches the sub-tree contents.
            return Err(RebuildRefusal::StaleLayout);
        }
        // Pair each real key of the layout with its stored value (both are in
        // ascending key order). A key mismatch means the sub-tree's contents
        // changed since the layout was planned (possible in the short-lock
        // sharded path, where inserts can land between plan and apply).
        let mut real_records: Vec<KeyValue> = Vec::with_capacity(records.len());
        let mut idx = 0usize;
        for entry in layout.entries() {
            if entry.is_real() {
                if records[idx].key != entry.key() {
                    return Err(RebuildRefusal::StaleLayout);
                }
                real_records.push(records[idx]);
                idx += 1;
            }
        }
        // Build the merged node from the smoothed layout. The layout's ranks
        // are scaled by LIPP's usual slot expansion so the merged node keeps
        // the same slack per point as a freshly built node — the virtual
        // points make the model accurate, the expansion keeps residual
        // conflicts (which would re-create children) rare.
        let scale = self.config().expansion.max(1.0);
        let capacity = csv_common::linear::ceil_to_usize(layout.num_slots() as f64 * scale)
            .max(layout.num_slots());
        let model = layout.model();
        let scaled_model =
            csv_common::LinearModel::new(model.slope * scale, model.intercept * scale);
        // Build the candidate first (the old sub-tree stays untouched), then
        // commit only if the merged layout does not place keys deeper than
        // they already were: a smoothed model can still re-create conflicts,
        // and accepting such a rebuild would demote keys instead of
        // promoting them.
        let old_depth = self.subtree_mean_depth(node_id);
        let temp = self.build_with_model(&real_records, level, capacity, scaled_model);
        let new_depth = self.subtree_mean_depth(temp);
        if new_depth > old_depth + 1e-12 {
            self.free_descendants(temp);
            self.nodes[temp] = Node::empty(1, 0);
            self.reclaim(temp);
            return Err(RebuildRefusal::WouldDemoteKeys);
        }
        self.free_descendants(node_id);
        self.nodes.swap(node_id, temp);
        self.nodes[temp] = Node::empty(1, 0);
        // `temp` now holds a placeholder; hand it back to the allocator.
        self.reclaim(temp);
        Ok(())
    }
}

impl LippIndex {
    pub(crate) fn reclaim(&mut self, node_id: usize) {
        // Small helper kept separate so csv_integration does not need access
        // to the private free list directly.
        self.push_free(node_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csv_common::key::identity_records;
    use csv_common::traits::LearnedIndex;
    use csv_core::{CsvConfig, CsvOptimizer};

    fn hard_keys(n: u64) -> Vec<Key> {
        // Three-scale fractal key space (runs → blocks → super-blocks) with
        // gaps growing by several orders of magnitude at every scale. Each
        // scale collapses into a handful of slots of its parent node, so the
        // bulk-loaded LIPP is several levels deep — the structure CSV targets.
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
    fn csv_promotes_keys_and_reduces_nodes() {
        let keys = hard_keys(40_000);
        let mut index = LippIndex::bulk_load(&identity_records(&keys));
        let before = index.stats();
        let promotable_before = before.level_histogram.at_or_below(3);
        assert!(
            promotable_before > 0,
            "the workload must have deep keys to promote"
        );

        let report = CsvOptimizer::new(CsvConfig::for_lipp(0.2)).optimize(&mut index);
        let after = index.stats();

        // Correctness is untouched.
        assert_eq!(index.len(), keys.len());
        for &k in keys.iter().step_by(211) {
            assert_eq!(index.get(k), Some(k));
        }
        // Structure improves on aggregate. (Individual keys can be demoted
        // when a merged node re-creates a conflict, so the bounds below are
        // aggregate bounds, matching what the paper reports.)
        assert!(
            report.subtrees_rebuilt > 0,
            "CSV should find sub-trees to merge"
        );
        assert!(
            after.level_histogram.at_or_below(3) as f64 <= promotable_before as f64 * 1.2 + 1.0,
            "deep keys grew substantially: {} -> {}",
            promotable_before,
            after.level_histogram.at_or_below(3)
        );
        assert!(after.mean_key_level() <= before.mean_key_level() + 0.25);
        assert!(report.virtual_points_added > 0);
    }

    #[test]
    fn higher_alpha_promotes_at_least_as_many_keys() {
        let keys = hard_keys(30_000);
        let levels_after = |alpha: f64| {
            let mut index = LippIndex::bulk_load(&identity_records(&keys));
            CsvOptimizer::new(CsvConfig::for_lipp(alpha)).optimize(&mut index);
            index.stats().mean_key_level()
        };
        let low = levels_after(0.05);
        let high = levels_after(0.4);
        assert!(
            high <= low + 0.05,
            "α=0.4 mean level {high} vs α=0.05 {low}"
        );
    }

    #[test]
    fn storage_overhead_is_bounded_by_alpha() {
        let keys = hard_keys(30_000);
        let mut plain = LippIndex::bulk_load(&identity_records(&keys));
        let before_bytes = plain.stats().size_bytes;
        let report = CsvOptimizer::new(CsvConfig::for_lipp(0.1)).optimize(&mut plain);
        let after_bytes = plain.stats().size_bytes;
        assert!(report.subtrees_rebuilt > 0);
        // The virtual points added are bounded by α per rebuilt sub-tree, so
        // the space increase stays moderate (paper: ≤ ~31 % in the worst
        // case; allow head-room because merged nodes keep their slack slots).
        let increase = (after_bytes as f64 - before_bytes as f64) / before_bytes as f64 * 100.0;
        assert!(increase < 60.0, "space increase {increase:.1}% too large");
    }

    #[test]
    fn dirty_tracking_restricts_plan_dirty_to_touched_subtrees() {
        use csv_common::traits::RemovableIndex;
        let keys = hard_keys(20_000);
        let mut index = LippIndex::bulk_load(&identity_records(&keys));
        assert!(index.csv_tracks_dirty());
        let optimizer = CsvOptimizer::new(CsvConfig::for_lipp(0.2));

        // A freshly built index is fully dirty: the incremental plan is the
        // full plan.
        let full = optimizer.plan(&index);
        let dirty = optimizer.plan_dirty(&index);
        assert!(!full.is_empty());
        assert_eq!(full.decisions(), dirty.decisions());

        // Once clean, there is nothing to plan.
        index.csv_mark_clean();
        assert!(index.csv_dirty_subtrees_at_level(2).is_empty());
        assert!(optimizer.plan_dirty(&index).is_empty());

        // Removing a deep key dirties exactly the level-2 sub-tree on its
        // path; the incremental plan considers only that root.
        let deep = keys
            .iter()
            .copied()
            .find(|&k| index.level_of_key(k).unwrap_or(1) >= 3)
            .expect("hard keys produce deep levels");
        assert_eq!(index.remove(deep), Some(deep));
        let touched = index.csv_dirty_subtrees_at_level(2);
        assert_eq!(touched.len(), 1);
        let plan = optimizer.plan_dirty(&index);
        assert!(plan.len() <= 1);
        assert!(plan.decisions().iter().all(|d| d.subtree == touched[0]));

        // Re-inserting after another clean flags the same sub-tree again.
        index.csv_mark_clean();
        assert!(index.insert(deep, deep));
        assert_eq!(index.csv_dirty_subtrees_at_level(2), touched);
    }

    #[test]
    fn level_bounded_walks_match_the_whole_tree_views() {
        use csv_common::traits::RemovableIndex;
        // What the three statistics walks returned when they filtered a
        // whole-tree `node_views`: the same sub-trees, in the same order.
        let views_at = |index: &LippIndex, level: usize, dirty_only: bool| -> Vec<SubtreeRef> {
            index
                .node_views()
                .iter()
                .filter(|v| v.level == level && v.children > 0)
                .filter(|v| !dirty_only || index.nodes[v.node_id].dirty)
                .map(|v| SubtreeRef {
                    node_id: v.node_id,
                    level,
                })
                .collect()
        };
        let keys = hard_keys(12_000);
        let mut index = LippIndex::bulk_load(&identity_records(&keys));
        for round in 0..2 {
            let views = index.node_views();
            let max_level = views
                .iter()
                .filter(|v| v.children > 0)
                .map(|v| v.level)
                .max();
            assert_eq!(index.csv_max_level(), max_level.unwrap_or(0));
            assert!(
                index.csv_max_level() >= 2,
                "round {round}: sub-trees below the root"
            );
            for level in 1..=index.csv_max_level() + 1 {
                assert_eq!(
                    index.csv_subtrees_at_level(level),
                    views_at(&index, level, false)
                );
                assert_eq!(
                    index.csv_dirty_subtrees_at_level(level),
                    views_at(&index, level, true)
                );
            }
            // Then a clean index with a few dirty paths.
            index.csv_mark_clean();
            for &k in keys.iter().skip(round).step_by(997) {
                assert_eq!(index.remove(k), Some(k));
            }
        }
    }

    #[test]
    fn rebuild_rejects_stale_layouts() {
        let keys = hard_keys(5_000);
        let mut index = LippIndex::bulk_load(&identity_records(&keys));
        let max_level = index.csv_max_level();
        assert!(max_level >= 2);
        let subtree = index.csv_subtrees_at_level(2).into_iter().next().unwrap();
        let mut collected = index.csv_collect_keys(&subtree);
        assert!(!collected.is_empty());
        // Tamper with the key set so the layout no longer matches.
        collected.pop();
        let layout = SmoothedLayout::identity(&collected);
        assert_eq!(
            index.csv_rebuild_subtree(&subtree, &layout),
            Err(RebuildRefusal::StaleLayout)
        );
    }

    #[test]
    fn buffered_key_collection_matches_the_allocating_form() {
        let keys = hard_keys(8_000);
        let index = LippIndex::bulk_load(&identity_records(&keys));
        let mut buf = Vec::new();
        for subtree in index.csv_subtrees_at_level(2) {
            buf.clear();
            index.csv_collect_keys_into(&subtree, &mut buf);
            assert_eq!(buf, index.csv_collect_keys(&subtree));
            assert!(
                buf.windows(2).all(|w| w[0] < w[1]),
                "keys must be strictly ascending"
            );
        }
    }

    #[test]
    fn subtree_cost_reports_precise_position_semantics() {
        let keys = hard_keys(10_000);
        let index = LippIndex::bulk_load(&identity_records(&keys));
        let level = index.csv_max_level();
        for subtree in index.csv_subtrees_at_level(level) {
            let cost = index.csv_subtree_cost(&subtree);
            assert_eq!(cost.expected_searches, 1.0);
            assert!(cost.mean_key_depth >= 1.0);
            assert!(cost.num_keys >= 2);
        }
    }

    #[test]
    fn gaps_left_by_virtual_points_absorb_inserts() {
        let keys = hard_keys(20_000);
        let mut index = LippIndex::bulk_load(&identity_records(&keys));
        CsvOptimizer::new(CsvConfig::for_lipp(0.2)).optimize(&mut index);
        // Insert new keys between existing ones; the smoothed nodes should
        // absorb many of them into empty (virtual) slots without losing any.
        let mut inserted = 0u64;
        for w in keys.windows(2).step_by(17) {
            let candidate = w[0] + (w[1] - w[0]) / 2;
            if candidate != w[0] && candidate != w[1] && index.get(candidate).is_none() {
                assert!(index.insert(candidate, candidate));
                inserted += 1;
            }
        }
        assert!(inserted > 0);
        assert_eq!(index.len(), keys.len() + inserted as usize);
        for &k in keys.iter().step_by(331) {
            assert_eq!(index.get(k), Some(k));
        }
    }
}
