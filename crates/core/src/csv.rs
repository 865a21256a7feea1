//! Algorithm 2 — **CSV**, CDF smoothing for hierarchical learned indexes.
//!
//! CSV walks a built index bottom-up. At every level it visits each node
//! that roots a sub-tree, collects the keys stored in the node and its
//! descendants, smooths that key segment with Algorithm 1, and — if the cost
//! condition of §5.1 is satisfied — rebuilds the sub-tree as a single flat
//! node laid out according to the smoothed ranks (virtual points become
//! gaps). Keys that used to live several levels deep are thereby *promoted*
//! to upper levels, cutting traversal time; the cost model prevents merges
//! that would pay for the promotion with excessive leaf-node search time.
//!
//! # The plan → apply lifecycle
//!
//! §5 of the paper observes that sub-trees at one level root *disjoint* key
//! ranges, so everything up to the rebuild decision — key collection,
//! smoothing, the cost condition — is a pure read of the index; only the
//! rebuild itself mutates it. The API makes that split explicit:
//!
//! * [`CsvOptimizer::plan`] (or [`CsvOptimizer::plan_parallel`], which fans
//!   the per-sub-tree work out across the rayon pool) takes `&index` and
//!   returns a [`CsvPlan`]: one [`PlannedSubtree`] per considered sub-tree,
//!   carrying the accepted [`SmoothedLayout`] for sub-trees that passed the
//!   cost condition and a typed skip/rejection record for the rest.
//! * [`CsvPlan::apply`] takes `&mut index` and performs only the rebuilds,
//!   in the deterministic Algorithm-2 order the plan was computed in, and
//!   returns the [`CsvReport`].
//!
//! Because planning never mutates, a caller that guards the index with a
//! reader–writer lock (see `csv_concurrent::ShardedIndex`) can plan under a
//! *shared* lock and take the exclusive lock only for the short apply phase.
//! A plan can also be inspected or serialized ([`CsvPlan::to_json`]) without
//! ever touching the index — the CLI's `--dry-run` does exactly that.
//!
//! Multi-level sweeps ([`StartLevel::Deepest`], the ALEX configuration)
//! interact with the split: a rebuild at level `l` changes the query-cost
//! statistics of the enclosing sub-trees at level `l − 1`. The
//! [`CsvOptimizer::optimize`] / [`CsvOptimizer::optimize_parallel`] wrappers
//! therefore run one plan → apply round *per level* (identical to the
//! classic fused sweep), while a single [`CsvOptimizer::plan`] snapshots
//! every level against the current structure — exact for single-level
//! sweeps such as [`CsvConfig::for_lipp`], a documented approximation of the
//! level-`l − 1` cost statistics otherwise.
//!
//! The coupling to a concrete index goes through [`CsvIntegrable`], which
//! the ALEX, LIPP and SALI crates implement. The contract is zero-copy on
//! the hot path: [`CsvIntegrable::csv_collect_keys_into`] appends into a
//! caller-owned scratch buffer that the optimizer reuses across sub-trees
//! (thread-locally in the parallel path), and
//! [`CsvIntegrable::csv_rebuild_subtree`] reports refusals as a typed
//! [`RebuildRefusal`] instead of a bare `bool`.

use crate::cost::{CostCondition, SubtreeCostStats};
use crate::layout::SmoothedLayout;
use crate::single::{
    smooth_segment_in, SmoothingConfig, SmoothingCounters, SmoothingResult, SmoothingWorkspace,
};
use csv_common::Key;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;
use std::time::{Duration, Instant};

/// A reference to a sub-tree of a hierarchical index: the arena id of its
/// root node plus that node's 1-based level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SubtreeRef {
    /// Index-specific node identifier (arena slot).
    pub node_id: usize,
    /// 1-based level of the node (1 = index root).
    pub level: usize,
}

/// Why an index declined to rebuild a sub-tree from an accepted layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RebuildRefusal {
    /// The merged node would exceed a capacity / slot-count limit.
    CapacityExceeded,
    /// The layout no longer matches the sub-tree's current key set (the
    /// sub-tree changed between planning and applying).
    StaleLayout,
    /// The rebuilt node would place keys deeper than they already are
    /// (a smoothed model can still re-create conflicts).
    WouldDemoteKeys,
}

impl fmt::Display for RebuildRefusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RebuildRefusal::CapacityExceeded => "capacity-exceeded",
            RebuildRefusal::StaleLayout => "stale-layout",
            RebuildRefusal::WouldDemoteKeys => "would-demote-keys",
        })
    }
}

/// Why the optimizer skipped a sub-tree without smoothing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SkipReason {
    /// Fewer than two keys — nothing to smooth.
    TooSmall,
    /// More keys than [`CsvConfig::max_subtree_keys`] (guards the O(λ·n)
    /// smoothing cost on pathological sub-trees).
    OverSizeGuard,
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SkipReason::TooSmall => "too-small",
            SkipReason::OverSizeGuard => "over-size-guard",
        })
    }
}

/// What ultimately happened to one considered sub-tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Decision {
    /// The cost condition accepted the smoothed layout and the index
    /// rebuilt the sub-tree as a single flat node.
    Rebuilt,
    /// Smoothing ran but the cost condition rejected the rebuild.
    CostRejected,
    /// The cost condition accepted, but the index refused the rebuild.
    Declined(RebuildRefusal),
    /// The sub-tree was skipped before smoothing.
    Skipped(SkipReason),
}

impl Decision {
    /// `true` when the sub-tree was rebuilt.
    pub fn is_rebuilt(&self) -> bool {
        matches!(self, Decision::Rebuilt)
    }
}

/// The hooks an index must expose so CSV can optimise it.
pub trait CsvIntegrable {
    /// Deepest level that contains nodes with sub-trees (i.e. internal
    /// nodes whose children exist). Returns 0/1 for a flat index.
    fn csv_max_level(&self) -> usize;

    /// The sub-tree roots at `level` that are candidates for merging: nodes
    /// at that level which have at least one child node.
    fn csv_subtrees_at_level(&self, level: usize) -> Vec<SubtreeRef>;

    /// Appends every (real) key stored in the sub-tree to `buf`, in
    /// ascending order.
    ///
    /// The optimizer clears and reuses one scratch buffer per worker across
    /// all sub-trees of a planning pass, so implementations must append
    /// (never allocate a fresh vector) and must not assume `buf` starts
    /// empty beyond what the caller guarantees.
    fn csv_collect_keys_into(&self, subtree: &SubtreeRef, buf: &mut Vec<Key>);

    /// Convenience wrapper around [`CsvIntegrable::csv_collect_keys_into`]
    /// that allocates a fresh vector. Diagnostics and one-off callers only;
    /// the optimizer itself always goes through the buffered form.
    fn csv_collect_keys(&self, subtree: &SubtreeRef) -> Vec<Key> {
        let mut buf = Vec::new();
        self.csv_collect_keys_into(subtree, &mut buf);
        buf
    }

    /// Query-cost statistics of the sub-tree as currently structured.
    ///
    /// `num_keys` must equal the number of keys
    /// [`CsvIntegrable::csv_collect_keys_into`] would produce — the
    /// optimizer's skip guards consult it *instead of* collecting, so
    /// over-size-guard sub-trees are never materialised.
    fn csv_subtree_cost(&self, subtree: &SubtreeRef) -> SubtreeCostStats;

    /// Replaces the sub-tree with a single flat node laid out according to
    /// `layout`, or reports why the index declines the rebuild (e.g. the
    /// layout exceeds a node-capacity limit, or no longer matches the
    /// sub-tree's contents).
    fn csv_rebuild_subtree(
        &mut self,
        subtree: &SubtreeRef,
        layout: &SmoothedLayout,
    ) -> Result<(), RebuildRefusal>;

    /// `true` when the index records which sub-tree roots absorbed inserts
    /// or removes since the last [`CsvIntegrable::csv_mark_clean`].
    ///
    /// Indexes without tracking keep the default `false` and must treat
    /// *every* sub-tree as dirty (the default
    /// [`CsvIntegrable::csv_dirty_subtrees_at_level`] does), so
    /// [`CsvOptimizer::plan_dirty`] degrades gracefully to a full
    /// [`CsvOptimizer::plan`].
    fn csv_tracks_dirty(&self) -> bool {
        false
    }

    /// The sub-tree roots at `level` whose sub-trees absorbed inserts or
    /// removes since the last [`CsvIntegrable::csv_mark_clean`] (a freshly
    /// built index is fully dirty: it has never been considered).
    ///
    /// Must return a subset of [`CsvIntegrable::csv_subtrees_at_level`];
    /// the default returns all of them (everything dirty).
    fn csv_dirty_subtrees_at_level(&self, level: usize) -> Vec<SubtreeRef> {
        self.csv_subtrees_at_level(level)
    }

    /// Marks the whole index clean: subsequent
    /// [`CsvIntegrable::csv_dirty_subtrees_at_level`] calls report only
    /// sub-trees touched by inserts/removes that happen *after* this call.
    /// Called by [`CsvOptimizer::optimize_dirty`] (and the concurrent
    /// maintenance engine) once a dirty plan has been applied. A no-op for
    /// indexes without tracking.
    fn csv_mark_clean(&mut self) {}
}

/// Where CSV starts its bottom-up sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StartLevel {
    /// Start at the deepest level containing sub-trees (ALEX behaviour).
    Deepest,
    /// Start at a fixed level (the paper starts LIPP/SALI at level 2 so each
    /// smoothing step benefits more keys).
    Fixed(usize),
}

/// Configuration of a CSV run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CsvConfig {
    /// Parameters forwarded to Algorithm 1 for every sub-tree.
    pub smoothing: SmoothingConfig,
    /// Rebuild decision rule.
    pub condition: CostCondition,
    /// First level of the bottom-up sweep.
    pub start_level: StartLevel,
    /// Last level processed (inclusive); the paper stops at level 2 so the
    /// root itself is never merged.
    pub stop_level: usize,
    /// Sub-trees with more keys than this are skipped (guards the O(λ·n)
    /// smoothing cost on pathological sub-trees).
    pub max_subtree_keys: usize,
}

impl CsvConfig {
    /// Default configuration for LIPP-style indexes (no leaf search): sweep
    /// only level 2 sub-trees with a loss-based condition.
    ///
    /// Uses the lazy-heap greedy driver: it matches Rescan's result (falling
    /// back to a full rescan whenever its pruning invariant breaks) while
    /// performing a small fraction of the model refits, which dominates the
    /// pre-processing cost on production-sized sub-trees.
    pub fn for_lipp(alpha: f64) -> Self {
        Self {
            smoothing: SmoothingConfig {
                mode: crate::single::GreedyMode::Lazy,
                ..SmoothingConfig::with_alpha(alpha)
            },
            condition: CostCondition::LossBased {
                min_relative_improvement: 0.0,
            },
            start_level: StartLevel::Fixed(2),
            stop_level: 2,
            max_subtree_keys: 1 << 20,
        }
    }

    /// Default configuration for SALI (shares LIPP's structure).
    pub fn for_sali(alpha: f64) -> Self {
        Self::for_lipp(alpha)
    }

    /// Default configuration for ALEX-style indexes: full bottom-up sweep
    /// with the Eq. 22 cost model (lazy greedy driver, like
    /// [`CsvConfig::for_lipp`]).
    pub fn for_alex(alpha: f64, model: crate::cost::CostModel) -> Self {
        Self {
            smoothing: SmoothingConfig {
                mode: crate::single::GreedyMode::Lazy,
                ..SmoothingConfig::with_alpha(alpha)
            },
            condition: CostCondition::Model(model),
            start_level: StartLevel::Deepest,
            stop_level: 2,
            max_subtree_keys: 1 << 20,
        }
    }

    /// A builder seeded with the LIPP defaults; see [`CsvConfigBuilder`] for
    /// the index-family entry points.
    pub fn builder() -> CsvConfigBuilder {
        CsvConfigBuilder::lipp()
    }

    /// The smoothing threshold α.
    pub fn alpha(&self) -> f64 {
        self.smoothing.alpha
    }

    /// The lazy driver's diminishing-returns drift tolerance (default 0:
    /// exact fallback behaviour; see
    /// [`SmoothingConfig::drift_tolerance`](crate::single::SmoothingConfig)).
    pub fn drift_tolerance(&self) -> f64 {
        self.smoothing.drift_tolerance
    }
}

impl Default for CsvConfig {
    fn default() -> Self {
        Self::for_lipp(0.1)
    }
}

/// Fluent construction of a [`CsvConfig`] starting from one of the paper's
/// per-index-family presets, so callers (the CLI in particular) never
/// hand-assemble the config struct field by field.
///
/// ```
/// use csv_core::csv::CsvConfigBuilder;
/// use csv_core::single::GreedyMode;
///
/// let config = CsvConfigBuilder::lipp().alpha(0.2).greedy(GreedyMode::Rescan).build();
/// assert_eq!(config.alpha(), 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct CsvConfigBuilder {
    config: CsvConfig,
}

impl CsvConfigBuilder {
    /// Starts from [`CsvConfig::for_lipp`] with the paper's default α = 0.1.
    pub fn lipp() -> Self {
        Self {
            config: CsvConfig::for_lipp(0.1),
        }
    }

    /// Starts from [`CsvConfig::for_sali`] with the paper's default α = 0.1.
    pub fn sali() -> Self {
        Self {
            config: CsvConfig::for_sali(0.1),
        }
    }

    /// Starts from [`CsvConfig::for_alex`] with the paper's default α = 0.1.
    pub fn alex(model: crate::cost::CostModel) -> Self {
        Self {
            config: CsvConfig::for_alex(0.1, model),
        }
    }

    /// Sets the smoothing threshold α.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.config.smoothing.alpha = alpha;
        self
    }

    /// Selects the Algorithm 1 greedy driver.
    pub fn greedy(mut self, mode: crate::single::GreedyMode) -> Self {
        self.config.smoothing.mode = mode;
        self
    }

    /// Sets the lazy driver's diminishing-returns drift tolerance (0 keeps
    /// the exact fallback behaviour).
    pub fn drift_tolerance(mut self, drift_tolerance: f64) -> Self {
        self.config.smoothing.drift_tolerance = drift_tolerance;
        self
    }

    /// Replaces the whole Algorithm 1 configuration.
    pub fn smoothing(mut self, smoothing: SmoothingConfig) -> Self {
        self.config.smoothing = smoothing;
        self
    }

    /// Replaces the rebuild decision rule.
    pub fn condition(mut self, condition: CostCondition) -> Self {
        self.config.condition = condition;
        self
    }

    /// Sets the first level of the bottom-up sweep.
    pub fn start_level(mut self, start_level: StartLevel) -> Self {
        self.config.start_level = start_level;
        self
    }

    /// Sets the last level processed (inclusive).
    pub fn stop_level(mut self, stop_level: usize) -> Self {
        self.config.stop_level = stop_level;
        self
    }

    /// Sets the per-sub-tree key-count guard.
    pub fn max_subtree_keys(mut self, max_subtree_keys: usize) -> Self {
        self.config.max_subtree_keys = max_subtree_keys;
        self
    }

    /// Finalises the configuration.
    pub fn build(self) -> CsvConfig {
        self.config
    }
}

/// What happened to one inspected sub-tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeOutcome {
    /// The sub-tree that was inspected.
    pub subtree: SubtreeRef,
    /// Number of keys collected from the sub-tree.
    pub num_keys: usize,
    /// Loss before smoothing (0 for skipped sub-trees, which are never
    /// smoothed).
    pub loss_before: f64,
    /// Loss (over real + virtual points) after smoothing (0 for skipped
    /// sub-trees).
    pub loss_after: f64,
    /// Number of virtual points the smoothing inserted.
    pub virtual_points: usize,
    /// How the sub-tree was resolved.
    pub decision: Decision,
}

impl NodeOutcome {
    /// `true` when the sub-tree was rebuilt.
    pub fn rebuilt(&self) -> bool {
        self.decision.is_rebuilt()
    }
}

/// Aggregate report of a CSV run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CsvReport {
    /// Per-sub-tree outcomes, in processing order. Every considered
    /// sub-tree appears here, including the ones skipped before smoothing
    /// (`Decision::Skipped`).
    pub outcomes: Vec<NodeOutcome>,
    /// Sub-trees rebuilt as flat nodes.
    pub subtrees_rebuilt: usize,
    /// Real keys contained in rebuilt sub-trees.
    pub keys_rebuilt: usize,
    /// Virtual points added across all rebuilt sub-trees.
    pub virtual_points_added: usize,
    /// Closed-form candidate refits spent by Algorithm 1 across all
    /// sub-trees (see [`crate::single::SmoothingCounters::gap_refits`]).
    pub gap_refits: usize,
    /// Full Algorithm-1 work counters aggregated over every considered
    /// sub-tree (refits, stale revalidations, exact-fallback rescans, heap
    /// pushes) — `smoothing.gap_refits` always equals
    /// [`CsvReport::gap_refits`], which is kept for compatibility.
    pub smoothing: SmoothingCounters,
    /// Wall-clock pre-processing time of the whole CSV run (planning plus
    /// applying).
    pub preprocessing_time: Duration,
}

impl CsvReport {
    /// Sub-trees inspected — every one leaves an outcome, so the count is
    /// derived rather than maintained.
    pub fn subtrees_considered(&self) -> usize {
        self.outcomes.len()
    }

    /// Fraction of inspected sub-trees that were rebuilt.
    pub fn rebuild_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.subtrees_rebuilt as f64 / self.outcomes.len() as f64
        }
    }

    /// Sub-trees skipped before smoothing (too small or over the size
    /// guard).
    pub fn subtrees_skipped(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.decision, Decision::Skipped(_)))
            .count()
    }

    /// Accepted rebuilds the index refused to perform.
    pub fn rebuilds_declined(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.decision, Decision::Declined(_)))
            .count()
    }
}

/// The planned resolution of one sub-tree: rebuild with an accepted layout,
/// or a typed record of why no rebuild will happen.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlannedAction {
    /// The cost condition accepted this smoothed layout; applying the plan
    /// rebuilds the sub-tree from it.
    Rebuild(SmoothedLayout),
    /// Smoothing ran but the cost condition rejected the rebuild.
    CostRejected,
    /// The sub-tree was skipped before smoothing.
    Skipped(SkipReason),
}

/// The read-phase result for one considered sub-tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedSubtree {
    /// The sub-tree the decision is about.
    pub subtree: SubtreeRef,
    /// Number of keys collected from the sub-tree.
    pub num_keys: usize,
    /// Loss before smoothing (0 for skipped sub-trees).
    pub loss_before: f64,
    /// Loss (over real + virtual points) after smoothing (0 for skipped
    /// sub-trees).
    pub loss_after: f64,
    /// Number of virtual points the smoothing inserted.
    pub virtual_points: usize,
    /// Work counters Algorithm 1 spent on this sub-tree (refits, stale
    /// re-validations, fallback rescans, heap pushes).
    pub counters: SmoothingCounters,
    /// The planned resolution.
    pub action: PlannedAction,
}

impl PlannedSubtree {
    /// Closed-form candidate refits Algorithm 1 spent on this sub-tree.
    pub fn gap_refits(&self) -> usize {
        self.counters.gap_refits
    }
}

/// The read-only half of a CSV run: per-sub-tree decisions (with accepted
/// layouts) computed without mutating the index. Produced by
/// [`CsvOptimizer::plan`] / [`CsvOptimizer::plan_parallel`] /
/// [`CsvOptimizer::plan_level`]; consumed by [`CsvPlan::apply`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CsvPlan {
    decisions: Vec<PlannedSubtree>,
    planning_time: Duration,
}

impl CsvPlan {
    /// Per-sub-tree decisions, in deterministic Algorithm-2 order (levels
    /// descending, sub-trees in enumeration order within a level).
    pub fn decisions(&self) -> &[PlannedSubtree] {
        &self.decisions
    }

    /// Number of considered sub-trees.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// `true` when no sub-tree was considered.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// Number of sub-trees the plan will rebuild.
    pub fn num_rebuilds(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| matches!(d.action, PlannedAction::Rebuild(_)))
            .count()
    }

    /// Wall-clock time the read phase took.
    pub fn planning_time(&self) -> Duration {
        self.planning_time
    }

    /// Aggregate Algorithm-1 work counters over every considered sub-tree —
    /// the planning cost of the read phase, available without applying
    /// anything (the dirty-planning benches and `--dry-run` consume this).
    pub fn counters(&self) -> SmoothingCounters {
        let mut total = SmoothingCounters::default();
        for d in &self.decisions {
            total.gap_refits += d.counters.gap_refits;
            total.stale_revalidations += d.counters.stale_revalidations;
            total.fallback_rescans += d.counters.fallback_rescans;
            total.heap_pushes += d.counters.heap_pushes;
        }
        total
    }

    /// Closed-form candidate refits spent planning (the dominant unit of
    /// smoothing work).
    pub fn gap_refits(&self) -> usize {
        self.decisions.iter().map(|d| d.counters.gap_refits).sum()
    }

    /// The mutate phase: performs the planned rebuilds in plan order and
    /// returns the run report. The report's `preprocessing_time` covers
    /// planning plus applying.
    ///
    /// Applying is tolerant of the index having changed since planning: a
    /// layout that no longer matches its sub-tree is refused by the index
    /// ([`RebuildRefusal::StaleLayout`]) and recorded as
    /// [`Decision::Declined`] instead of corrupting anything.
    pub fn apply<I: CsvIntegrable + ?Sized>(&self, index: &mut I) -> CsvReport {
        let started = Instant::now();
        let mut report = CsvReport::default();
        self.apply_into(index, &mut report);
        report.preprocessing_time = self.planning_time + started.elapsed();
        report
    }

    /// [`CsvPlan::apply`] accumulating into an existing report; does not
    /// touch `preprocessing_time` (the caller owns the clock).
    pub fn apply_into<I: CsvIntegrable + ?Sized>(&self, index: &mut I, report: &mut CsvReport) {
        for planned in &self.decisions {
            apply_planned(index, planned, report);
        }
    }

    /// Renders the plan as a JSON document (accepted layouts summarised by
    /// slot counts and the refitted model, so the output stays readable for
    /// production-sized plans; the full layouts travel with the plan value
    /// itself, e.g. through serde once the vendored stubs are swapped for
    /// the real crates).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + 160 * self.decisions.len());
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"planning_time_ms\": {:.3},\n",
            self.planning_time.as_secs_f64() * 1e3
        ));
        out.push_str(&format!(
            "  \"subtrees_considered\": {},\n",
            self.decisions.len()
        ));
        out.push_str(&format!(
            "  \"subtrees_to_rebuild\": {},\n",
            self.num_rebuilds()
        ));
        // Per-level smoothing-work aggregates: the refit/fallback counters
        // make planning cost observable (e.g. dirty-planning wins) without
        // applying the plan. Levels appear in plan order (descending).
        out.push_str("  \"levels\": [");
        let mut levels: Vec<(usize, usize, usize, SmoothingCounters)> = Vec::new();
        for d in &self.decisions {
            let level = d.subtree.level;
            if levels.last().map(|l| l.0) != Some(level) {
                levels.push((level, 0, 0, SmoothingCounters::default()));
            }
            let entry = levels.last_mut().expect("pushed above");
            entry.1 += 1;
            entry.2 += usize::from(matches!(d.action, PlannedAction::Rebuild(_)));
            entry.3.gap_refits += d.counters.gap_refits;
            entry.3.stale_revalidations += d.counters.stale_revalidations;
            entry.3.fallback_rescans += d.counters.fallback_rescans;
            entry.3.heap_pushes += d.counters.heap_pushes;
        }
        for (i, (level, considered, rebuilds, counters)) in levels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"level\": {level}, \"subtrees_considered\": {considered}, \
                 \"subtrees_to_rebuild\": {rebuilds}, \"gap_refits\": {}, \
                 \"stale_revalidations\": {}, \"fallback_rescans\": {}, \"heap_pushes\": {}}}",
                counters.gap_refits,
                counters.stale_revalidations,
                counters.fallback_rescans,
                counters.heap_pushes
            ));
        }
        if !levels.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"decisions\": [");
        for (i, d) in self.decisions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!(
                "\"node_id\": {}, \"level\": {}, \"num_keys\": {}",
                d.subtree.node_id, d.subtree.level, d.num_keys
            ));
            match &d.action {
                PlannedAction::Skipped(reason) => {
                    out.push_str(&format!(", \"action\": \"skip\", \"reason\": \"{reason}\""));
                }
                PlannedAction::CostRejected => {
                    out.push_str(&format!(
                        ", \"action\": \"cost-rejected\", \"loss_before\": {:.6}, \"loss_after\": {:.6}",
                        d.loss_before, d.loss_after
                    ));
                }
                PlannedAction::Rebuild(layout) => {
                    out.push_str(&format!(
                        ", \"action\": \"rebuild\", \"loss_before\": {:.6}, \"loss_after\": {:.6}, \
                         \"virtual_points\": {}, \"layout\": {{\"slots\": {}, \"model\": \
                         {{\"slope\": {:.9}, \"intercept\": {:.9}}}}}",
                        d.loss_before,
                        d.loss_after,
                        d.virtual_points,
                        layout.num_slots(),
                        layout.model().slope,
                        layout.model().intercept
                    ));
                }
            }
            out.push('}');
        }
        if !self.decisions.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        out
    }
}

/// The mutate phase for one planned sub-tree: perform (or record) its
/// resolution and account for it in `report`. Shared by [`CsvPlan`]'s batch
/// apply and the streaming sequential sweep of [`CsvOptimizer::optimize`].
fn apply_planned<I: CsvIntegrable + ?Sized>(
    index: &mut I,
    planned: &PlannedSubtree,
    report: &mut CsvReport,
) {
    let decision = match &planned.action {
        PlannedAction::Skipped(reason) => Decision::Skipped(*reason),
        PlannedAction::CostRejected => Decision::CostRejected,
        PlannedAction::Rebuild(layout) => {
            match index.csv_rebuild_subtree(&planned.subtree, layout) {
                Ok(()) => {
                    report.subtrees_rebuilt += 1;
                    report.keys_rebuilt += planned.num_keys;
                    report.virtual_points_added += planned.virtual_points;
                    Decision::Rebuilt
                }
                Err(refusal) => Decision::Declined(refusal),
            }
        }
    };
    report.gap_refits += planned.counters.gap_refits;
    report.smoothing.gap_refits += planned.counters.gap_refits;
    report.smoothing.stale_revalidations += planned.counters.stale_revalidations;
    report.smoothing.fallback_rescans += planned.counters.fallback_rescans;
    report.smoothing.heap_pushes += planned.counters.heap_pushes;
    report.outcomes.push(NodeOutcome {
        subtree: planned.subtree,
        num_keys: planned.num_keys,
        loss_before: planned.loss_before,
        loss_after: planned.loss_after,
        virtual_points: planned.virtual_points,
        decision,
    });
}

/// Drives Algorithm 2 over any [`CsvIntegrable`] index.
#[derive(Debug, Clone, Default)]
pub struct CsvOptimizer {
    config: CsvConfig,
}

/// What planning one sub-tree needs beyond its result: the collected keys
/// and the smoothing kernel's workspace. Reused across every sub-tree a
/// worker plans, so the read phase allocates only the layouts it returns;
/// it grows to the largest sub-tree planned, which
/// [`CsvConfig::max_subtree_keys`] bounds.
#[derive(Default)]
struct PlanScratch {
    keys: Vec<Key>,
    smoothing: SmoothingWorkspace,
}

thread_local! {
    /// Per-worker scratch for parallel planning.
    static PLAN_SCRATCH: RefCell<PlanScratch> = RefCell::default();
}

impl CsvOptimizer {
    /// Creates an optimizer with the given configuration.
    pub fn new(config: CsvConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &CsvConfig {
        &self.config
    }

    /// The level range `(start, stop)` of the bottom-up sweep for `index`,
    /// or `None` when the index is too flat to optimise. Levels are
    /// processed from `start` down to `stop` (both inclusive).
    pub fn sweep_levels<I: CsvIntegrable + ?Sized>(&self, index: &I) -> Option<(usize, usize)> {
        let max_level = index.csv_max_level();
        if max_level < self.config.stop_level {
            return None;
        }
        let start_level = match self.config.start_level {
            StartLevel::Deepest => max_level,
            StartLevel::Fixed(l) => l.min(max_level),
        };
        if start_level < self.config.stop_level {
            return None;
        }
        Some((start_level, self.config.stop_level))
    }

    /// The read phase for one sub-tree: evaluate the skip guards from the
    /// cost statistics, then collect the keys into the scratch buffer,
    /// smooth them and evaluate the cost condition.
    fn plan_subtree<I: CsvIntegrable + ?Sized>(
        &self,
        index: &I,
        subtree: SubtreeRef,
        scratch: &mut PlanScratch,
    ) -> PlannedSubtree {
        // The guards use the cost statistics' key count so a skipped
        // sub-tree is never materialised: an over-size-guard sub-tree can
        // hold orders of magnitude more keys than the guard allows, and
        // collecting it would both waste the walk and permanently grow the
        // reused scratch buffer past every bound the config promises.
        let before_cost = index.csv_subtree_cost(&subtree);
        let skip = if before_cost.num_keys < 2 {
            Some(SkipReason::TooSmall)
        } else if before_cost.num_keys > self.config.max_subtree_keys {
            Some(SkipReason::OverSizeGuard)
        } else {
            None
        };
        if let Some(reason) = skip {
            return PlannedSubtree {
                subtree,
                num_keys: before_cost.num_keys,
                loss_before: 0.0,
                loss_after: 0.0,
                virtual_points: 0,
                counters: SmoothingCounters::default(),
                action: PlannedAction::Skipped(reason),
            };
        }
        let PlanScratch { keys, smoothing } = scratch;
        keys.clear();
        index.csv_collect_keys_into(&subtree, keys);
        let smoothed: SmoothingResult = smooth_segment_in(keys, &self.config.smoothing, smoothing);
        let after_cost = SubtreeCostStats::of_layout(&smoothed.layout);
        let rebuild = self.config.condition.should_rebuild(
            smoothed.loss_before,
            smoothed.loss_after_all,
            &before_cost,
            &after_cost,
        );
        PlannedSubtree {
            subtree,
            num_keys: keys.len(),
            loss_before: smoothed.loss_before,
            loss_after: smoothed.loss_after_all,
            virtual_points: smoothed.virtual_points.len(),
            counters: smoothed.counters,
            // Rejected evaluations drop the layout right here, so a
            // level-wide batch never holds a second copy of every sub-tree's
            // keys — only of the ones it is about to rebuild.
            action: if rebuild {
                PlannedAction::Rebuild(smoothed.layout)
            } else {
                PlannedAction::CostRejected
            },
        }
    }

    /// The read phase over an explicit sub-tree list, sequentially.
    fn plan_subtrees<I: CsvIntegrable + ?Sized>(
        &self,
        index: &I,
        subtrees: Vec<SubtreeRef>,
    ) -> CsvPlan {
        let started = Instant::now();
        let mut scratch = PlanScratch::default();
        let decisions = subtrees
            .into_iter()
            .map(|subtree| self.plan_subtree(index, subtree, &mut scratch))
            .collect();
        CsvPlan {
            decisions,
            planning_time: started.elapsed(),
        }
    }

    /// The read phase over an explicit sub-tree list, fanned out across the
    /// rayon pool with per-worker scratch buffers.
    fn plan_subtrees_parallel<I: CsvIntegrable + Sync + ?Sized>(
        &self,
        index: &I,
        subtrees: Vec<SubtreeRef>,
    ) -> CsvPlan {
        let started = Instant::now();
        let decisions = subtrees
            .par_iter()
            .map(|subtree| {
                PLAN_SCRATCH.with(|s| self.plan_subtree(index, *subtree, &mut s.borrow_mut()))
            })
            .collect();
        CsvPlan {
            decisions,
            planning_time: started.elapsed(),
        }
    }

    /// Plans one level of the sweep sequentially. This is the building block
    /// of the short-lock pattern: call it under a shared lock, then apply
    /// the returned plan under the exclusive lock, level by level.
    pub fn plan_level<I: CsvIntegrable + ?Sized>(&self, index: &I, level: usize) -> CsvPlan {
        self.plan_subtrees(index, index.csv_subtrees_at_level(level))
    }

    /// Plans one level with the per-sub-tree work fanned out across the
    /// rayon pool. Sub-trees at one level root disjoint key ranges (§5), so
    /// their read phases are independent; each worker reuses a thread-local
    /// scratch buffer for key collection.
    pub fn plan_level_parallel<I: CsvIntegrable + Sync + ?Sized>(
        &self,
        index: &I,
        level: usize,
    ) -> CsvPlan {
        self.plan_subtrees_parallel(index, index.csv_subtrees_at_level(level))
    }

    /// [`CsvOptimizer::plan_level`] restricted to the sub-trees that
    /// absorbed inserts/removes since the index was last marked clean
    /// ([`CsvIntegrable::csv_dirty_subtrees_at_level`]).
    pub fn plan_dirty_level<I: CsvIntegrable + ?Sized>(&self, index: &I, level: usize) -> CsvPlan {
        self.plan_subtrees(index, index.csv_dirty_subtrees_at_level(level))
    }

    /// [`CsvOptimizer::plan_dirty_level`] with the per-sub-tree work fanned
    /// out across the rayon pool.
    pub fn plan_dirty_level_parallel<I: CsvIntegrable + Sync + ?Sized>(
        &self,
        index: &I,
        level: usize,
    ) -> CsvPlan {
        self.plan_subtrees_parallel(index, index.csv_dirty_subtrees_at_level(level))
    }

    /// The read phase of a whole CSV run: plans every sweep level against
    /// the index's *current* structure and returns the concatenated plan.
    ///
    /// For single-level sweeps (the LIPP/SALI configuration) the plan is
    /// exactly what [`CsvOptimizer::optimize`] would decide. For multi-level
    /// sweeps the cost statistics of levels above the deepest are computed
    /// before any deeper rebuild has happened — a one-shot approximation;
    /// use `optimize` (one plan → apply round per level) when exact
    /// multi-level behaviour matters.
    pub fn plan<I: CsvIntegrable + ?Sized>(&self, index: &I) -> CsvPlan {
        self.plan_with(index, Self::plan_level)
    }

    /// [`CsvOptimizer::plan`] with every level's sub-trees fanned out across
    /// the rayon pool.
    pub fn plan_parallel<I: CsvIntegrable + Sync + ?Sized>(&self, index: &I) -> CsvPlan {
        self.plan_with(index, Self::plan_level_parallel)
    }

    /// The *incremental* read phase: like [`CsvOptimizer::plan`], but key
    /// collection, smoothing and the cost condition are restricted to the
    /// sub-tree roots that absorbed inserts/removes since the index was
    /// last marked clean. The smoothing work is therefore proportional to
    /// the dirty fraction of the index instead of its total size (the
    /// `maintenance` bench quantifies this via [`CsvPlan::counters`]).
    ///
    /// On a fully dirty index — a freshly built one, or any index whose
    /// backend does not track dirtiness — the result equals
    /// [`CsvOptimizer::plan`] decision for decision (property-pinned in the
    /// crate tests).
    pub fn plan_dirty<I: CsvIntegrable + ?Sized>(&self, index: &I) -> CsvPlan {
        self.plan_with(index, Self::plan_dirty_level)
    }

    /// [`CsvOptimizer::plan_dirty`] with every level's dirty sub-trees
    /// fanned out across the rayon pool.
    pub fn plan_dirty_parallel<I: CsvIntegrable + Sync + ?Sized>(&self, index: &I) -> CsvPlan {
        self.plan_with(index, Self::plan_dirty_level_parallel)
    }

    /// The one sweep loop behind [`CsvOptimizer::plan`] and
    /// [`CsvOptimizer::plan_parallel`], parameterised by the per-level
    /// planner.
    fn plan_with<I: CsvIntegrable + ?Sized>(
        &self,
        index: &I,
        plan_level: impl Fn(&Self, &I, usize) -> CsvPlan,
    ) -> CsvPlan {
        let started = Instant::now();
        let mut plan = CsvPlan::default();
        if let Some((start_level, stop_level)) = self.sweep_levels(index) {
            for level in (stop_level..=start_level).rev() {
                plan.decisions
                    .extend(plan_level(self, index, level).decisions);
            }
        }
        plan.planning_time = started.elapsed();
        plan
    }

    /// Runs CSV on `index` sequentially and returns the run report: levels
    /// deepest first (Algorithm 2, lines 5–15), each sub-tree planned and
    /// applied in one streamed step — so rebuilds at level `l` are visible
    /// to the planning of level `l − 1`, and at most one accepted layout is
    /// held in memory at a time.
    ///
    /// Prefer [`CsvOptimizer::optimize_parallel`] when the index type is
    /// `Sync`; this entry point exists for trait objects and single-threaded
    /// contexts and processes sub-trees in the exact order of Algorithm 2.
    pub fn optimize<I: CsvIntegrable + ?Sized>(&self, index: &mut I) -> CsvReport {
        let started = Instant::now();
        let mut report = CsvReport::default();
        if let Some((start_level, stop_level)) = self.sweep_levels(index) {
            let mut scratch = PlanScratch::default();
            for level in (stop_level..=start_level).rev() {
                // Stream plan → apply per sub-tree: at most one accepted
                // layout is alive at a time, unlike the per-level batch of
                // `optimize_parallel`. Sub-trees at one level root disjoint
                // key ranges, so the interleaving produces the same result.
                for subtree in index.csv_subtrees_at_level(level) {
                    let planned = self.plan_subtree(index, subtree, &mut scratch);
                    apply_planned(index, &planned, &mut report);
                }
            }
        }
        report.preprocessing_time = started.elapsed();
        report
    }

    /// The incremental counterpart of [`CsvOptimizer::optimize`]: one
    /// plan-dirty → apply round per level (so rebuilds at level `l` are
    /// visible to the planning of level `l − 1`, exactly like the full
    /// sweep), after which the index is marked clean. On a fully dirty
    /// index this is identical to [`CsvOptimizer::optimize`]; on a clean
    /// one it considers nothing and costs only the level enumeration.
    pub fn optimize_dirty<I: CsvIntegrable + ?Sized>(&self, index: &mut I) -> CsvReport {
        let started = Instant::now();
        let mut report = CsvReport::default();
        if let Some((start_level, stop_level)) = self.sweep_levels(index) {
            for level in (stop_level..=start_level).rev() {
                self.plan_dirty_level(index, level)
                    .apply_into(index, &mut report);
            }
        }
        index.csv_mark_clean();
        report.preprocessing_time = started.elapsed();
        report
    }

    /// Runs CSV on `index`, fanning the per-sub-tree planning work of every
    /// level out across the rayon thread pool.
    ///
    /// Sub-trees at one level are independent by construction (§5 of the
    /// paper): they root disjoint key ranges, so collecting keys, smoothing
    /// and evaluating the cost condition are pure reads that can run
    /// concurrently. Rebuilds mutate the arena and are applied sequentially
    /// afterwards, in the same sub-tree order as [`CsvOptimizer::optimize`],
    /// so both entry points produce identical reports and identical rebuilt
    /// indexes. Levels still run one after another because a rebuild at
    /// level `l` changes which sub-trees exist at `l − 1`.
    pub fn optimize_parallel<I: CsvIntegrable + Sync + ?Sized>(&self, index: &mut I) -> CsvReport {
        let started = Instant::now();
        let mut report = CsvReport::default();
        if let Some((start_level, stop_level)) = self.sweep_levels(index) {
            for level in (stop_level..=start_level).rev() {
                // One plan → apply round per level, so rebuilds at level `l`
                // are visible to the planning of level `l − 1`.
                self.plan_level_parallel(index, level)
                    .apply_into(index, &mut report);
            }
        }
        report.preprocessing_time = started.elapsed();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;

    /// A miniature two-level "index": a root with child nodes, each child
    /// holding a key segment. Used to exercise the optimizer without pulling
    /// in a real index crate. Tracks dirty children the way the real
    /// backends do: everything starts dirty (never considered), inserts
    /// mark their child dirty, `csv_mark_clean` wipes the marks.
    struct ToyIndex {
        children: Vec<Vec<Key>>,
        flattened: Vec<Option<SmoothedLayout>>,
        dirty: Vec<bool>,
        capacity_limit: usize,
    }

    impl ToyIndex {
        fn new(children: Vec<Vec<Key>>) -> Self {
            let n = children.len();
            Self {
                children,
                flattened: vec![None; n],
                dirty: vec![true; n],
                capacity_limit: usize::MAX,
            }
        }

        /// Simulates an insert landing in child `i`.
        fn touch(&mut self, i: usize, key: Key) {
            self.children[i].push(key);
            self.children[i].sort_unstable();
            self.flattened[i] = None;
            self.dirty[i] = true;
        }
    }

    impl CsvIntegrable for ToyIndex {
        fn csv_max_level(&self) -> usize {
            2
        }
        fn csv_subtrees_at_level(&self, level: usize) -> Vec<SubtreeRef> {
            if level != 2 {
                return Vec::new();
            }
            (0..self.children.len())
                .filter(|&i| self.flattened[i].is_none())
                .map(|i| SubtreeRef {
                    node_id: i,
                    level: 2,
                })
                .collect()
        }
        fn csv_collect_keys_into(&self, subtree: &SubtreeRef, buf: &mut Vec<Key>) {
            buf.extend_from_slice(&self.children[subtree.node_id]);
        }
        fn csv_subtree_cost(&self, subtree: &SubtreeRef) -> SubtreeCostStats {
            SubtreeCostStats {
                num_keys: self.children[subtree.node_id].len(),
                mean_key_depth: 2.0,
                expected_searches: 3.0,
            }
        }
        fn csv_rebuild_subtree(
            &mut self,
            subtree: &SubtreeRef,
            layout: &SmoothedLayout,
        ) -> Result<(), RebuildRefusal> {
            if layout.num_slots() > self.capacity_limit {
                return Err(RebuildRefusal::CapacityExceeded);
            }
            self.flattened[subtree.node_id] = Some(layout.clone());
            Ok(())
        }
        fn csv_tracks_dirty(&self) -> bool {
            true
        }
        fn csv_dirty_subtrees_at_level(&self, level: usize) -> Vec<SubtreeRef> {
            self.csv_subtrees_at_level(level)
                .into_iter()
                .filter(|s| self.dirty[s.node_id])
                .collect()
        }
        fn csv_mark_clean(&mut self) {
            self.dirty.iter_mut().for_each(|d| *d = false);
        }
    }

    fn skewed_segment(offset: Key) -> Vec<Key> {
        // A hard-to-fit segment: dense run then large jumps.
        let mut keys: Vec<Key> = (0..40).map(|i| offset + i).collect();
        keys.extend((1..10).map(|i| offset + 100 + i * 97));
        keys
    }

    #[test]
    fn optimizer_rebuilds_improvable_subtrees() {
        let mut index = ToyIndex::new(vec![skewed_segment(0), skewed_segment(10_000)]);
        let optimizer = CsvOptimizer::new(CsvConfig::for_lipp(0.2));
        let report = optimizer.optimize(&mut index);
        assert_eq!(report.subtrees_considered(), 2);
        assert_eq!(report.subtrees_rebuilt, 2);
        assert!(report.virtual_points_added > 0);
        assert!(report.keys_rebuilt > 0);
        assert!((report.rebuild_rate() - 1.0).abs() < 1e-12);
        assert!(index.flattened.iter().all(|f| f.is_some()));
        for outcome in &report.outcomes {
            assert!(outcome.loss_after <= outcome.loss_before);
            assert_eq!(outcome.decision, Decision::Rebuilt);
            assert!(outcome.rebuilt());
        }
    }

    #[test]
    fn linear_subtrees_are_left_alone() {
        let linear: Vec<Key> = (0..50).map(|i| i * 10).collect();
        let mut index = ToyIndex::new(vec![linear]);
        let optimizer = CsvOptimizer::new(CsvConfig::for_lipp(0.2));
        let report = optimizer.optimize(&mut index);
        assert_eq!(report.subtrees_rebuilt, 0);
        assert_eq!(report.outcomes[0].decision, Decision::CostRejected);
        assert!(index.flattened[0].is_none());
    }

    #[test]
    fn capacity_refusal_is_reported() {
        let mut index = ToyIndex::new(vec![skewed_segment(0)]);
        index.capacity_limit = 10; // refuse every rebuild
        let optimizer = CsvOptimizer::new(CsvConfig::for_lipp(0.2));
        let report = optimizer.optimize(&mut index);
        assert_eq!(report.subtrees_rebuilt, 0);
        assert_eq!(
            report.outcomes[0].decision,
            Decision::Declined(RebuildRefusal::CapacityExceeded)
        );
        assert!(!report.outcomes[0].rebuilt());
        assert_eq!(report.rebuilds_declined(), 1);
    }

    #[test]
    fn cost_model_condition_can_reject() {
        let mut index = ToyIndex::new(vec![skewed_segment(0)]);
        // A sub-tree whose current cost is already excellent: claim depth 1
        // and 1 expected search, so flattening cannot help.
        struct CheapIndex(ToyIndex);
        impl CsvIntegrable for CheapIndex {
            fn csv_max_level(&self) -> usize {
                self.0.csv_max_level()
            }
            fn csv_subtrees_at_level(&self, level: usize) -> Vec<SubtreeRef> {
                self.0.csv_subtrees_at_level(level)
            }
            fn csv_collect_keys_into(&self, s: &SubtreeRef, buf: &mut Vec<Key>) {
                self.0.csv_collect_keys_into(s, buf)
            }
            fn csv_subtree_cost(&self, _s: &SubtreeRef) -> SubtreeCostStats {
                SubtreeCostStats {
                    num_keys: 49,
                    mean_key_depth: 1.0,
                    expected_searches: 1.0,
                }
            }
            fn csv_rebuild_subtree(
                &mut self,
                s: &SubtreeRef,
                l: &SmoothedLayout,
            ) -> Result<(), RebuildRefusal> {
                self.0.csv_rebuild_subtree(s, l)
            }
        }
        let mut cheap = CheapIndex(ToyIndex::new(vec![skewed_segment(0)]));
        let config = CsvConfig::for_alex(0.2, CostModel::new(1.0, 2.5, -0.5));
        let optimizer = CsvOptimizer::new(config);
        let report = optimizer.optimize(&mut cheap);
        assert_eq!(
            report.subtrees_rebuilt, 0,
            "already-cheap sub-tree must not be merged"
        );

        // The same configuration on the expensive toy index does rebuild.
        let report = optimizer.optimize(&mut index);
        assert_eq!(report.subtrees_rebuilt, 1);
    }

    #[test]
    fn parallel_sweep_matches_sequential_sweep() {
        let segments: Vec<Vec<Key>> = (0..24).map(|i| skewed_segment(i * 50_000)).collect();
        let optimizer = CsvOptimizer::new(CsvConfig::for_lipp(0.2));

        let mut sequential = ToyIndex::new(segments.clone());
        let sequential_report = optimizer.optimize(&mut sequential);

        let mut parallel = ToyIndex::new(segments);
        let parallel_report = optimizer.optimize_parallel(&mut parallel);

        assert_eq!(sequential_report.outcomes, parallel_report.outcomes);
        assert_eq!(
            sequential_report.subtrees_considered(),
            parallel_report.subtrees_considered()
        );
        assert_eq!(
            sequential_report.subtrees_rebuilt,
            parallel_report.subtrees_rebuilt
        );
        assert_eq!(sequential_report.keys_rebuilt, parallel_report.keys_rebuilt);
        assert_eq!(
            sequential_report.virtual_points_added,
            parallel_report.virtual_points_added
        );
        assert_eq!(sequential_report.gap_refits, parallel_report.gap_refits);
        assert_eq!(sequential.flattened, parallel.flattened);
    }

    #[test]
    fn plan_apply_roundtrip_matches_fused_optimize() {
        let segments: Vec<Vec<Key>> = (0..8)
            .map(|i| {
                if i % 3 == 0 {
                    // A linear segment the cost condition rejects.
                    (0..50).map(|j| i as Key * 100_000 + j * 10).collect()
                } else {
                    skewed_segment(i * 100_000)
                }
            })
            .collect();
        let optimizer = CsvOptimizer::new(CsvConfig::for_lipp(0.2));

        let mut fused = ToyIndex::new(segments.clone());
        let fused_report = optimizer.optimize(&mut fused);

        let mut staged = ToyIndex::new(segments);
        let plan = optimizer.plan(&staged);
        // Planning never mutates.
        assert!(staged.flattened.iter().all(|f| f.is_none()));
        assert_eq!(plan.len(), fused_report.subtrees_considered());
        assert_eq!(plan.num_rebuilds(), fused_report.subtrees_rebuilt);
        let staged_report = plan.apply(&mut staged);

        assert_eq!(fused_report.outcomes, staged_report.outcomes);
        assert_eq!(
            fused_report.subtrees_considered(),
            staged_report.subtrees_considered()
        );
        assert_eq!(
            fused_report.subtrees_rebuilt,
            staged_report.subtrees_rebuilt
        );
        assert_eq!(fused_report.keys_rebuilt, staged_report.keys_rebuilt);
        assert_eq!(
            fused_report.virtual_points_added,
            staged_report.virtual_points_added
        );
        assert_eq!(fused_report.gap_refits, staged_report.gap_refits);
        assert_eq!(fused.flattened, staged.flattened);
    }

    #[test]
    fn plan_parallel_matches_plan() {
        let segments: Vec<Vec<Key>> = (0..24).map(|i| skewed_segment(i * 50_000)).collect();
        let index = ToyIndex::new(segments);
        let optimizer = CsvOptimizer::new(CsvConfig::for_lipp(0.2));
        let sequential = optimizer.plan(&index);
        let parallel = optimizer.plan_parallel(&index);
        assert_eq!(sequential.decisions(), parallel.decisions());
    }

    #[test]
    fn plan_json_describes_every_decision() {
        let mut segments = vec![skewed_segment(0)];
        segments.push(vec![7]); // too small
        segments.push((0..50).map(|j| 900_000 + j * 10).collect()); // cost-rejected
        let index = ToyIndex::new(segments);
        let optimizer = CsvOptimizer::new(CsvConfig::for_lipp(0.2));
        let plan = optimizer.plan(&index);
        let json = plan.to_json();
        assert!(json.contains("\"action\": \"rebuild\""));
        assert!(json.contains("\"action\": \"skip\""));
        assert!(json.contains("\"reason\": \"too-small\""));
        assert!(json.contains("\"action\": \"cost-rejected\""));
        assert!(json.contains("\"subtrees_considered\": 3"));
        assert!(json.contains("\"subtrees_to_rebuild\": 1"));
        // Per-level smoothing counters are part of the plan surface.
        assert!(json.contains("\"levels\": ["));
        assert!(json.contains(&format!("\"gap_refits\": {}", plan.gap_refits())));
        assert!(json.contains("\"fallback_rescans\":"));
        assert!(json.contains("\"stale_revalidations\":"));
        // Well-formed enough for a JSON parser: balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn stale_plans_are_declined_not_applied_blindly() {
        let segments = vec![skewed_segment(0)];
        let mut index = ToyIndex::new(segments);
        let optimizer = CsvOptimizer::new(CsvConfig::for_lipp(0.2));
        let plan = optimizer.plan(&index);
        assert_eq!(plan.num_rebuilds(), 1);
        // The index shrinks its capacity between plan and apply; the rebuild
        // is refused and typed, not silently dropped.
        index.capacity_limit = 1;
        let report = plan.apply(&mut index);
        assert_eq!(report.subtrees_rebuilt, 0);
        assert_eq!(
            report.outcomes[0].decision,
            Decision::Declined(RebuildRefusal::CapacityExceeded)
        );
    }

    #[test]
    fn stop_level_above_max_level_is_a_noop() {
        let mut index = ToyIndex::new(vec![skewed_segment(0)]);
        let config = CsvConfig {
            stop_level: 5,
            ..CsvConfig::for_lipp(0.2)
        };
        let report = CsvOptimizer::new(config).optimize(&mut index);
        assert_eq!(report.subtrees_considered(), 0);
        assert!(CsvOptimizer::new(config).plan(&index).is_empty());
    }

    #[test]
    fn skipped_subtrees_leave_a_trace_in_the_report() {
        // Over the size guard.
        let mut index = ToyIndex::new(vec![skewed_segment(0)]);
        let config = CsvConfig {
            max_subtree_keys: 10,
            ..CsvConfig::for_lipp(0.2)
        };
        let report = CsvOptimizer::new(config).optimize(&mut index);
        assert_eq!(report.subtrees_rebuilt, 0);
        assert_eq!(report.subtrees_considered(), 1);
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(
            report.outcomes[0].decision,
            Decision::Skipped(SkipReason::OverSizeGuard)
        );
        assert_eq!(report.outcomes[0].num_keys, 49);
        assert_eq!(report.subtrees_skipped(), 1);

        // Too small to smooth.
        let mut tiny = ToyIndex::new(vec![vec![42]]);
        let report = CsvOptimizer::new(CsvConfig::for_lipp(0.2)).optimize(&mut tiny);
        assert_eq!(report.subtrees_considered(), 1);
        assert_eq!(
            report.outcomes[0].decision,
            Decision::Skipped(SkipReason::TooSmall)
        );
        assert_eq!(report.outcomes[0].num_keys, 1);
        assert_eq!(report.outcomes[0].loss_before, 0.0);
    }

    #[test]
    fn plan_dirty_on_a_fully_dirty_index_equals_plan() {
        // Freshly built (never considered) — every sub-tree is dirty, so the
        // incremental read phase must reproduce the full one decision for
        // decision.
        let segments: Vec<Vec<Key>> = (0..12).map(|i| skewed_segment(i * 60_000)).collect();
        let index = ToyIndex::new(segments);
        assert!(index.csv_tracks_dirty());
        let optimizer = CsvOptimizer::new(CsvConfig::for_lipp(0.2));
        let full = optimizer.plan(&index);
        let dirty = optimizer.plan_dirty(&index);
        assert_eq!(full.decisions(), dirty.decisions());
        assert_eq!(full.counters(), dirty.counters());
        let dirty_parallel = optimizer.plan_dirty_parallel(&index);
        assert_eq!(full.decisions(), dirty_parallel.decisions());
    }

    #[test]
    fn plan_dirty_restricts_smoothing_work_to_dirty_roots() {
        let segments: Vec<Vec<Key>> = (0..10).map(|i| skewed_segment(i * 60_000)).collect();
        let mut index = ToyIndex::new(segments);
        let optimizer = CsvOptimizer::new(CsvConfig::for_lipp(0.2));
        optimizer.optimize_dirty(&mut index);
        // Quiesced and clean: nothing to plan.
        assert!(optimizer.plan_dirty(&index).is_empty());

        // Dirty two children; only those are re-planned, and the smoothing
        // work is bounded by theirs alone.
        index.touch(3, 3 * 60_000 + 57);
        index.touch(7, 7 * 60_000 + 57);
        let dirty = optimizer.plan_dirty(&index);
        assert_eq!(dirty.len(), 2);
        assert!(dirty
            .decisions()
            .iter()
            .all(|d| [3, 7].contains(&d.subtree.node_id)));
        let full = optimizer.plan(&index);
        assert_eq!(full.len(), 2, "flattened children leave the candidate set");
        assert!(dirty.gap_refits() <= full.gap_refits());
    }

    #[test]
    fn optimize_dirty_matches_optimize_on_a_fresh_index_and_is_then_a_noop() {
        let segments: Vec<Vec<Key>> = (0..8).map(|i| skewed_segment(i * 70_000)).collect();
        let optimizer = CsvOptimizer::new(CsvConfig::for_lipp(0.2));

        let mut fused = ToyIndex::new(segments.clone());
        let fused_report = optimizer.optimize(&mut fused);

        let mut incremental = ToyIndex::new(segments);
        let incremental_report = optimizer.optimize_dirty(&mut incremental);
        assert_eq!(fused_report.outcomes, incremental_report.outcomes);
        assert_eq!(fused.flattened, incremental.flattened);

        // The index is now clean and quiesced: a second round considers
        // nothing at all.
        let idle = optimizer.optimize_dirty(&mut incremental);
        assert_eq!(idle.subtrees_considered(), 0);
    }

    #[test]
    fn builder_composes_presets_and_overrides() {
        let config = CsvConfig::builder()
            .alpha(0.3)
            .greedy(crate::single::GreedyMode::Rescan)
            .drift_tolerance(0.25)
            .max_subtree_keys(123)
            .stop_level(3)
            .start_level(StartLevel::Fixed(4))
            .build();
        assert_eq!(config.alpha(), 0.3);
        assert_eq!(config.drift_tolerance(), 0.25);
        assert_eq!(CsvConfig::default().drift_tolerance(), 0.0);
        assert_eq!(config.smoothing.mode, crate::single::GreedyMode::Rescan);
        assert_eq!(config.max_subtree_keys, 123);
        assert_eq!(config.stop_level, 3);
        assert_eq!(config.start_level, StartLevel::Fixed(4));
        // Family presets seed the right condition.
        let alex = CsvConfigBuilder::alex(CostModel::default())
            .alpha(0.2)
            .build();
        assert!(matches!(alex.condition, CostCondition::Model(_)));
        assert_eq!(alex.start_level, StartLevel::Deepest);
        let sali = CsvConfigBuilder::sali().build();
        assert_eq!(sali, CsvConfig::for_sali(0.1));
    }
}
