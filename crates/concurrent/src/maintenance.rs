//! The background maintenance engine for [`ShardedIndex`].
//!
//! The paper smooths a *built* index once (Algorithm 2); a long-running
//! system serving mixed traffic erodes that layout with every insert. The
//! engine closes the loop SALI-style: each tick it either **splits** a shard
//! that has grown far past its peers, **merges** a shard whose key range
//! drained back into its neighbour, or picks the **stalest** shard — most
//! structural writes since its last pass, weighted by the level drift its
//! statistics show — and re-optimises just that shard's *dirty* sub-trees
//! through [`ShardedIndex::maintain_shard`]. Every one of those operations
//! publishes a copy-on-write successor, so lookups never wait on maintenance
//! at all.
//!
//! The engine is synchronous and step-wise ([`MaintenanceEngine::run_once`]):
//! callers own the cadence — the engine-owned background thread
//! ([`MaintenanceEngine::spawn`]), an idle-time hook, or a test loop that
//! drains staleness to quiescence with [`MaintenanceEngine::run_until_idle`].
//! A per-tick latency budget ([`MaintenanceConfig::tick_budget`]) bounds how
//! much planning any single tick performs, carrying both unfinished work and
//! overshoot over to the next tick.

use crate::sharded::ShardedIndex;
use csv_common::sync::{AtomicBool, Mutex, Ordering};
use csv_common::traits::{RangeIndex, SnapshotIndex};
use csv_core::{CsvIntegrable, CsvOptimizer, CsvReport};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs of the maintenance engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaintenanceConfig {
    /// A shard is only worth maintaining once its staleness score reaches
    /// this many write-equivalents.
    pub min_score: f64,
    /// A shard splits when it holds more than `split_factor ×` the mean
    /// per-shard key count. The mean includes the outgrown shard itself, so
    /// with `n` shards a single hot shard can only trigger a split while
    /// `split_factor < n`.
    pub split_factor: f64,
    /// Never split a shard below this many keys (tiny shards gain nothing
    /// from re-partitioning).
    pub min_split_keys: usize,
    /// Hard ceiling on the shard count; splits stop once it is reached.
    pub max_shards: usize,
    /// A shard merges into its neighbour when it holds fewer than
    /// `merge_factor ×` the mean per-shard key count — the inverse of the
    /// split trigger, for key ranges that drained. The combined shard must
    /// also stay below the split threshold, so a merge can never
    /// immediately re-trigger a split.
    pub merge_factor: f64,
    /// Weight converting per-lookup level drift into write-equivalents in
    /// the staleness score (see
    /// [`ShardStaleness::score`](crate::sharded::ShardStaleness::score)).
    pub drift_weight: f64,
    /// Latency budget per [`MaintenanceEngine::run_once`] tick: a tick
    /// stops planning after the first sweep level that finishes past the
    /// budget, resuming the shard on the next tick, and time overshot
    /// (level granularity is coarse) is deducted from the following ticks'
    /// budgets. `None` — and, degenerately, `Some(Duration::ZERO)` — means
    /// unbudgeted.
    pub tick_budget: Option<Duration>,
    /// How long the engine-owned background thread
    /// ([`MaintenanceEngine::spawn`]) sleeps after an idle or deferred
    /// tick before polling again.
    pub idle_backoff: Duration,
    /// Durable indexes only: once some shard's write-ahead-log backlog
    /// reaches this many records, a tick checkpoints that shard
    /// ([`ShardedIndex::checkpoint_shard`]) instead of polishing structure
    /// — bounding WAL replay length, and therefore recovery time, on
    /// shards whose writes never trip the capacity fold (overwrite-heavy
    /// streams in particular accrue log records without ever looking
    /// stale). `None` disables the tick; without a durability sink it
    /// never fires.
    pub checkpoint_backlog: Option<u64>,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        Self {
            min_score: 1.0,
            split_factor: 4.0,
            min_split_keys: 4_096,
            max_shards: 256,
            merge_factor: 0.1,
            drift_weight: 1.0,
            tick_budget: None,
            idle_backoff: Duration::from_millis(1),
            checkpoint_backlog: Some(1_024),
        }
    }
}

/// What one engine tick did.
#[derive(Debug, Clone, PartialEq)]
pub enum MaintenanceAction {
    /// Shard `shard` had outgrown its peers and was split at its median key.
    Split {
        /// Position of the split shard (its upper half now sits at
        /// `shard + 1`).
        shard: usize,
        /// Keys the shard held when it was split.
        keys: usize,
    },
    /// Shard `shard` had drained below the merge threshold and was merged
    /// with its right neighbour.
    Merged {
        /// Position of the merged shard (its right neighbour is gone).
        shard: usize,
        /// Keys the combined shard holds.
        keys: usize,
    },
    /// Shard `shard` was the stalest and its dirty sub-trees were
    /// re-optimised.
    Maintained {
        /// Position of the maintained shard.
        shard: usize,
        /// The CSV report of the (possibly partial) incremental pass.
        report: CsvReport,
        /// `false` when the tick budget expired mid-sweep; the engine
        /// resumes this shard on its next tick.
        completed: bool,
    },
    /// Shard `shard`'s write-ahead-log backlog had crossed
    /// [`MaintenanceConfig::checkpoint_backlog`] and the shard was durably
    /// checkpointed (overlay folded, log truncated).
    Checkpointed {
        /// Position of the checkpointed shard.
        shard: usize,
        /// Log records the checkpoint retired.
        backlog: u64,
    },
    /// The tick budget was still paying off a previous tick's overshoot;
    /// no work was attempted.
    Deferred,
    /// No shard exceeded a threshold; the index is quiescent.
    Idle,
}

impl MaintenanceAction {
    /// `true` for [`MaintenanceAction::Idle`].
    pub fn is_idle(&self) -> bool {
        matches!(self, MaintenanceAction::Idle)
    }
}

/// Budget/carry-over state threaded between ticks.
#[derive(Debug, Clone, Default)]
struct EngineState {
    /// Time overshot past previous budgets, still to be paid off.
    debt: Duration,
    /// A shard whose budgeted sweep was interrupted: `(shard, next_level)`.
    /// Resumed before any other work so a long shard cannot be starved by
    /// the staleness ranking — and because the resume branch runs before
    /// the split/merge triggers, the engine can never invalidate its own
    /// cursor with a re-layout. The identity is *positional*: if an
    /// external `split_shard`/`merge_shards` call (or a second engine on
    /// the same index) shifts the vector between ticks, the resume lands
    /// on whichever shard now sits at that position — out-of-range indexes
    /// are detected, in-range mismatches are not. The worst case is one
    /// shard marked clean after a partial sweep: a missed optimisation
    /// opportunity (never a correctness issue) that the next writes to the
    /// shard re-surface. Budgeted engines should own their index's
    /// re-layout exclusively, which `MaintenanceEngine::spawn` guarantees.
    cursor: Option<(usize, usize)>,
}

/// The adaptive maintenance engine. Owns the optimizer configuration, the
/// thresholds and the per-tick budget state; borrows the index per tick, so
/// one engine can serve many indexes (budget state is per-engine — give
/// each index its own engine when budgets matter).
#[derive(Debug)]
pub struct MaintenanceEngine {
    optimizer: CsvOptimizer,
    config: MaintenanceConfig,
    state: Mutex<EngineState>,
}

impl Clone for MaintenanceEngine {
    /// Clones the configuration with *fresh* budget state: the clone owes
    /// no debt and resumes no shard.
    fn clone(&self) -> Self {
        Self::new(self.optimizer.clone(), self.config)
    }
}

impl MaintenanceEngine {
    /// Creates an engine driving `optimizer` with the given thresholds.
    pub fn new(optimizer: CsvOptimizer, config: MaintenanceConfig) -> Self {
        Self {
            optimizer,
            config,
            state: Mutex::new(EngineState::default()),
        }
    }

    /// The engine's optimizer.
    pub fn optimizer(&self) -> &CsvOptimizer {
        &self.optimizer
    }

    /// The engine's thresholds.
    pub fn config(&self) -> &MaintenanceConfig {
        &self.config
    }

    /// The effective per-tick budget: `tick_budget` minus accumulated debt.
    /// Returns `None` for "unbudgeted", `Some(None)` for "deferred" (the
    /// whole tick goes toward paying debt), `Some(Some(d))` for a bounded
    /// tick.
    fn take_allowance(&self) -> Option<Option<Duration>> {
        let budget = match self.config.tick_budget {
            Some(b) if !b.is_zero() => b,
            _ => return None,
        };
        let mut state = self.state.lock();
        if state.debt >= budget {
            state.debt -= budget;
            return Some(None);
        }
        let allowance = budget - state.debt;
        state.debt = Duration::ZERO;
        Some(Some(allowance))
    }

    /// Records a tick's overshoot past its allowance.
    fn settle(&self, allowance: Option<Duration>, started: Instant) {
        if let Some(allowance) = allowance {
            let elapsed = started.elapsed();
            if elapsed > allowance {
                let mut state = self.state.lock();
                state.debt += elapsed - allowance;
            }
        }
    }

    /// One maintenance tick: resume a budget-interrupted shard if one is
    /// pending, else split the most outgrown shard, else merge the most
    /// drained one, else incrementally re-optimise the stalest shard, else
    /// report [`MaintenanceAction::Idle`]. With a tick budget configured,
    /// the sweep stops planning once the budget (minus previous overshoot)
    /// is spent.
    pub fn run_once<I>(&self, index: &ShardedIndex<I>) -> MaintenanceAction
    where
        I: SnapshotIndex + RangeIndex + CsvIntegrable,
    {
        let started = Instant::now();
        let allowance = match self.take_allowance() {
            Some(None) => return MaintenanceAction::Deferred,
            Some(Some(d)) => Some(d),
            None => None,
        };
        let deadline = allowance.map(|d| started + d);

        // Resume an interrupted shard before considering anything else.
        let cursor = self.state.lock().cursor.take();
        if let Some((shard, level)) = cursor {
            if let Some(progress) =
                index.maintain_shard_budgeted(shard, &self.optimizer, Some(level), deadline)
            {
                if let Some(next_level) = progress.resume_level {
                    self.state.lock().cursor = Some((shard, next_level));
                }
                self.settle(allowance, started);
                return MaintenanceAction::Maintained {
                    shard,
                    completed: progress.completed(),
                    report: progress.report,
                };
            }
            // The shard vanished in a re-layout; fall through to a normal
            // pick (its data's staleness survives in the successor shards).
        }

        // Skew checks next: re-partitioning rebalances what maintenance
        // would otherwise keep polishing in place.
        let lens = index.shard_lens();
        let mean = lens.iter().sum::<usize>() / lens.len().max(1);
        let split_threshold = (self.config.split_factor * mean.max(1) as f64) as usize;
        if lens.len() < self.config.max_shards {
            if let Some((shard, &keys)) = lens.iter().enumerate().max_by_key(|(_, &l)| l) {
                // The skew bound doubles as `split_shard`'s revalidation
                // threshold: the pick comes from a lock-free snapshot, and a
                // concurrent re-layout can shift the vector, so the split is
                // refused under the lock unless the target still clears it.
                if keys >= self.config.min_split_keys
                    && keys > split_threshold
                    && index.split_shard(shard, split_threshold.max(self.config.min_split_keys))
                {
                    self.settle(allowance, started);
                    return MaintenanceAction::Split { shard, keys };
                }
            }
        }
        if lens.len() > 1 {
            let merge_threshold = (self.config.merge_factor * mean as f64) as usize;
            let drained = lens
                .iter()
                .enumerate()
                .filter(|(_, &l)| l < merge_threshold)
                .min_by_key(|(_, &l)| l);
            if let Some((shard, &keys)) = drained {
                // Merge into whichever neighbour is smaller, keeping the
                // combined shard below the split threshold so the pair of
                // triggers cannot ping-pong.
                let left = shard.checked_sub(1);
                let right = (shard + 1 < lens.len()).then_some(shard);
                let target = match (left, right) {
                    (Some(l), Some(r)) => {
                        if lens[l] <= lens[r + 1] {
                            l
                        } else {
                            r
                        }
                    }
                    (Some(l), None) => l,
                    (None, Some(r)) => r,
                    (None, None) => unreachable!("lens.len() > 1"),
                };
                if index.merge_shards(target, split_threshold.max(1)) {
                    self.settle(allowance, started);
                    return MaintenanceAction::Merged {
                        shard: target,
                        keys: keys + lens[if target == shard { shard + 1 } else { target }],
                    };
                }
            }
        }
        // Durable indexes: retire the largest WAL backlog past the
        // threshold before structural work. This must run *before* the
        // quiescence pre-check — overwrites accrue log records without
        // counting as structural writes, so a backlog can grow on an index
        // the staleness counters consider quiescent.
        if let Some(threshold) = self.config.checkpoint_backlog {
            let pending = index
                .durability_backlog()
                .into_iter()
                .max_by_key(|&(_, backlog)| backlog);
            if let Some((shard, backlog)) = pending {
                if backlog >= threshold.max(1) {
                    if let Some(retired) = index.checkpoint_shard(shard) {
                        self.settle(allowance, started);
                        return MaintenanceAction::Checkpointed {
                            shard,
                            backlog: retired,
                        };
                    }
                }
            }
        }
        // Quiescence pre-check: drift only accumulates through writes, so a
        // maintained shard with zero pending writes cannot be stale. This
        // keeps idle ticks at O(shards) atomic loads instead of the full
        // structure walk `staleness()` performs — important for the
        // engine-owned background thread.
        if index
            .write_counters()
            .iter()
            .all(|&(writes, maintained)| maintained && writes == 0)
        {
            return MaintenanceAction::Idle;
        }
        // Stalest-shard pick: structural writes since the last pass plus
        // key-weighted level drift.
        let staleness = index.staleness();
        let stalest = staleness
            .iter()
            .map(|s| (s.shard, s.score(self.config.drift_weight)))
            .max_by(|a, b| a.1.total_cmp(&b.1));
        if let Some((shard, score)) = stalest {
            if score >= self.config.min_score {
                if let Some(progress) =
                    index.maintain_shard_budgeted(shard, &self.optimizer, None, deadline)
                {
                    if let Some(next_level) = progress.resume_level {
                        self.state.lock().cursor = Some((shard, next_level));
                    }
                    self.settle(allowance, started);
                    return MaintenanceAction::Maintained {
                        shard,
                        completed: progress.completed(),
                        report: progress.report,
                    };
                }
            }
        }
        MaintenanceAction::Idle
    }

    /// Ticks until the index is quiescent (one [`MaintenanceAction::Idle`])
    /// and returns every action taken, in order. `max_ticks` bounds the loop
    /// against a concurrent write stream that keeps re-dirtying shards.
    pub fn run_until_idle<I>(
        &self,
        index: &ShardedIndex<I>,
        max_ticks: usize,
    ) -> Vec<MaintenanceAction>
    where
        I: SnapshotIndex + RangeIndex + CsvIntegrable,
    {
        let mut actions = Vec::new();
        for _ in 0..max_ticks {
            let action = self.run_once(index);
            let idle = action.is_idle();
            actions.push(action);
            if idle {
                break;
            }
        }
        actions
    }

    /// Spawns the engine-owned background thread: ticks [`Self::run_once`]
    /// against `index` forever, sleeping [`MaintenanceConfig::idle_backoff`]
    /// after idle/deferred ticks, until the returned handle is stopped (or
    /// dropped). This is the loop `csv-index --maintain` uses, packaged so
    /// servers stop hand-rolling it.
    ///
    /// A panicking tick does not kill the process and does not die
    /// silently: the thread records the panic message, stops ticking, and
    /// the handle reports it — immediately through
    /// [`MaintenanceHandle::is_healthy`], and at the end through
    /// [`MaintenanceHandle::shutdown`].
    pub fn spawn<I>(self, index: Arc<ShardedIndex<I>>) -> MaintenanceHandle
    where
        I: SnapshotIndex + RangeIndex + CsvIntegrable + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let panic_slot: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
        let panic_writer = Arc::clone(&panic_slot);
        let thread = std::thread::Builder::new()
            .name("csv-maintenance".into())
            .spawn(move || {
                let mut stats = MaintenanceStats::default();
                while !stop_flag.load(Ordering::Relaxed) {
                    // Catch per tick: a panicking tick (a poisoned shard, a
                    // failing durability sink) is recorded for the handle
                    // to re-report instead of unwinding the thread with no
                    // observer. `AssertUnwindSafe` is sound here because
                    // nothing on this thread observes the closure's state
                    // after the catch — the loop stops.
                    let tick = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        self.run_once(&index)
                    }));
                    let action = match tick {
                        Ok(action) => action,
                        Err(payload) => {
                            *panic_writer.lock() = Some(panic_message(payload.as_ref()));
                            break;
                        }
                    };
                    match action {
                        MaintenanceAction::Split { .. } => stats.splits += 1,
                        MaintenanceAction::Merged { .. } => stats.merges += 1,
                        MaintenanceAction::Checkpointed { .. } => stats.checkpoints += 1,
                        MaintenanceAction::Maintained { completed, .. } => {
                            stats.maintain_passes += 1;
                            if !completed {
                                stats.interrupted_passes += 1;
                            }
                        }
                        MaintenanceAction::Deferred => {
                            stats.deferred_ticks += 1;
                            std::thread::sleep(self.config.idle_backoff);
                        }
                        MaintenanceAction::Idle => {
                            stats.idle_ticks += 1;
                            std::thread::sleep(self.config.idle_backoff);
                        }
                    }
                }
                stats
            })
            .expect("spawning the maintenance thread must succeed");
        MaintenanceHandle {
            stop,
            panic: panic_slot,
            thread: Some(thread),
        }
    }
}

/// Renders a caught panic payload (the `&str`/`String` forms `panic!`
/// produces; anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// A panic caught on the background maintenance thread, re-reported by
/// [`MaintenanceHandle::shutdown`] so a wedged engine is observable instead
/// of a silent stall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnginePanic {
    /// The panic's message.
    pub message: String,
}

impl std::fmt::Display for EnginePanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the maintenance thread panicked: {}", self.message)
    }
}

impl std::error::Error for EnginePanic {}

/// Tallies of what a spawned maintenance thread did (see
/// [`MaintenanceEngine::spawn`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Incremental shard-maintenance passes (including interrupted ones).
    pub maintain_passes: usize,
    /// Passes cut short by the tick budget (a subset of `maintain_passes`).
    pub interrupted_passes: usize,
    /// Shard splits performed.
    pub splits: usize,
    /// Shard merges performed.
    pub merges: usize,
    /// Durable checkpoints written by the backlog tick.
    pub checkpoints: usize,
    /// Ticks spent paying off budget debt.
    pub deferred_ticks: usize,
    /// Ticks that found the index quiescent.
    pub idle_ticks: usize,
}

/// Owns the background maintenance thread spawned by
/// [`MaintenanceEngine::spawn`]. Dropping the handle stops the thread;
/// call [`MaintenanceHandle::shutdown`] to also collect its statistics (or
/// the panic that wedged it).
#[derive(Debug)]
pub struct MaintenanceHandle {
    stop: Arc<AtomicBool>,
    /// Set by the thread when a tick panicked (see
    /// [`MaintenanceEngine::spawn`]).
    panic: Arc<Mutex<Option<String>>>,
    thread: Option<std::thread::JoinHandle<MaintenanceStats>>,
}

impl MaintenanceHandle {
    /// `true` while the background thread is live and no tick has
    /// panicked — the probe a server's health endpoint polls. `false`
    /// means the engine is wedged (or already joined): the index keeps
    /// serving reads and writes, but no maintenance happens until a new
    /// engine is spawned.
    pub fn is_healthy(&self) -> bool {
        self.panic.lock().is_none() && self.thread.as_ref().is_some_and(|t| !t.is_finished())
    }

    /// Signals the thread to stop after its current tick and returns its
    /// tallies once it has exited — or, when a tick panicked, re-reports
    /// that panic instead of swallowing it.
    pub fn shutdown(mut self) -> Result<MaintenanceStats, EnginePanic> {
        self.stop.store(true, Ordering::Relaxed);
        let stats = self
            .thread
            .take()
            .expect("shutdown consumes the join handle")
            .join()
            .map_err(|payload| EnginePanic {
                message: panic_message(payload.as_ref()),
            })?;
        if let Some(message) = self.panic.lock().take() {
            return Err(EnginePanic { message });
        }
        Ok(stats)
    }

    /// [`MaintenanceHandle::shutdown`] for callers without an error path:
    /// re-raises a caught engine panic instead of returning it.
    pub fn stop(self) -> MaintenanceStats {
        self.shutdown().unwrap_or_else(|panic| panic!("{panic}"))
    }
}

impl Drop for MaintenanceHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::{DurabilitySink, ShardCheckpoint};
    use crate::sharded::ShardingConfig;
    use csv_common::key::identity_records;
    use csv_common::{Key, Value};
    use csv_core::{CsvConfig, CsvOptimizer};
    use csv_datasets::Dataset;
    use csv_lipp::LippIndex;
    use std::collections::HashMap;

    fn engine() -> MaintenanceEngine {
        // split_factor must stay below the shard count for a single hot
        // shard to be able to exceed `factor × mean` (the mean includes the
        // hot shard itself).
        MaintenanceEngine::new(
            CsvOptimizer::new(CsvConfig::for_lipp(0.1)),
            MaintenanceConfig {
                min_split_keys: 1_000,
                split_factor: 2.0,
                ..MaintenanceConfig::default()
            },
        )
    }

    fn config(num_shards: usize) -> ShardingConfig {
        ShardingConfig::with_shards(num_shards)
    }

    #[test]
    fn fresh_shards_are_maintained_once_then_idle() {
        let keys = Dataset::Osm.generate(30_000, 5);
        let index = ShardedIndex::<LippIndex>::bulk_load(&identity_records(&keys), config(4));
        let engine = engine();
        let actions = engine.run_until_idle(&index, 100);
        // Every shard starts fully stale (never maintained) and
        // balanced, so the engine maintains each exactly once and then
        // goes idle.
        let maintained: Vec<usize> = actions
            .iter()
            .filter_map(|a| match a {
                MaintenanceAction::Maintained { shard, .. } => Some(*shard),
                _ => None,
            })
            .collect();
        assert_eq!(maintained.len(), 4);
        let mut sorted = maintained.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        assert!(actions.last().unwrap().is_idle());
        // Quiescent: another tick does nothing.
        assert!(engine.run_once(&index).is_idle());
        // Lookups are intact throughout.
        for &k in keys.iter().step_by(97) {
            assert_eq!(index.get(k), Some(k));
        }
    }

    #[test]
    fn writes_re_stale_only_the_written_shard() {
        let keys = Dataset::Genome.generate(20_000, 9);
        // The staleness the engine ranks by must survive fold generations:
        // the tiny capacity folds the 500-write burst dozens of times.
        let index = ShardedIndex::<LippIndex>::bulk_load(
            &identity_records(&keys),
            config(4).with_overlay_capacity(16),
        );
        let engine = engine();
        engine.run_until_idle(&index, 100);

        // Hammer one key region with fresh inserts.
        let base = keys[keys.len() / 2];
        for i in 1..=500u64 {
            index.insert(base + i * 3 + 1, i);
        }
        let staleness = index.staleness();
        let hot: Vec<_> = staleness
            .iter()
            .filter(|s| s.writes_since_maintenance > 0)
            .collect();
        assert!(!hot.is_empty(), "the insert burst must register somewhere");
        let hottest = hot
            .iter()
            .max_by_key(|s| s.writes_since_maintenance)
            .unwrap()
            .shard;

        match engine.run_once(&index) {
            MaintenanceAction::Maintained { shard, .. } => assert_eq!(shard, hottest),
            other => panic!("expected a maintenance pass, got {other:?}"),
        }
        assert_eq!(index.staleness()[hottest].writes_since_maintenance, 0);
    }

    #[test]
    fn outgrown_shards_are_split_before_anything_else() {
        let keys = Dataset::Covid.generate(12_000, 3);
        let index = ShardedIndex::<LippIndex>::bulk_load(&identity_records(&keys), config(4));
        let engine = engine();
        engine.run_until_idle(&index, 100);
        assert_eq!(index.num_shards(), 4);

        // Skewed growth: pour fresh keys into the last shard's range
        // until it dwarfs the others (mean stays ~len/num_shards).
        let top = *keys.last().unwrap();
        for i in 1..=40_000u64 {
            index.insert(top + i, i);
        }
        let action = engine.run_once(&index);
        let MaintenanceAction::Split {
            shard,
            keys: split_keys,
        } = action
        else {
            panic!("expected a split, got {action:?}");
        };
        assert_eq!(shard, 3);
        assert!(split_keys > 40_000);
        assert_eq!(index.num_shards(), 5);
        // The split halves are fresh (never maintained) and get picked
        // up by the following ticks; the index then quiesces.
        let actions = engine.run_until_idle(&index, 100);
        assert!(actions.last().unwrap().is_idle());
        // All data survived the re-partitioning.
        assert_eq!(index.len(), keys.len() + 40_000);
        for &k in keys.iter().step_by(131) {
            assert_eq!(index.get(k), Some(k));
        }
        for i in (1..=40_000u64).step_by(997) {
            assert_eq!(index.get(top + i), Some(i));
        }
    }

    /// The merge trigger: drain one shard's key range and the engine folds
    /// it back into a neighbour — the split's inverse — after which the
    /// contents still match and the index quiesces.
    #[test]
    fn drained_shards_are_merged_back() {
        let keys = Dataset::Genome.generate(20_000, 7);
        let index = ShardedIndex::<LippIndex>::bulk_load(&identity_records(&keys), config(4));
        let engine = engine();
        engine.run_until_idle(&index, 100);
        assert_eq!(index.num_shards(), 4);

        // Remove ~99% of shard 2's keys (shards hold 5k keys each).
        let per_shard = keys.len() / 4;
        let mut removed = Vec::new();
        for &k in keys[2 * per_shard..3 * per_shard].iter() {
            if removed.len() >= per_shard - 40 {
                break;
            }
            assert_eq!(index.remove(k), Some(k));
            removed.push(k);
        }
        let actions = engine.run_until_idle(&index, 100);
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, MaintenanceAction::Merged { .. })),
            "a drained shard must be merged, got {actions:?}"
        );
        assert!(index.num_shards() < 4);
        assert!(actions.last().unwrap().is_idle());
        // Contents round-trip: removed keys gone, the rest intact.
        assert_eq!(index.len(), keys.len() - removed.len());
        for &k in removed.iter().step_by(37) {
            assert_eq!(index.get(k), None);
        }
        for &k in keys.iter().step_by(83) {
            let expected = (!removed.contains(&k)).then_some(k);
            assert_eq!(index.get(k), expected);
        }
    }

    #[test]
    fn maintenance_runs_while_readers_proceed() {
        let keys = Dataset::Osm.generate(40_000, 11);
        let index = ShardedIndex::<LippIndex>::bulk_load(&identity_records(&keys), config(2));
        let engine = engine();
        crossbeam::thread::scope(|scope| {
            let idx = &index;
            let eng = &engine;
            let h = scope.spawn(move |_| eng.run_until_idle(idx, 100));
            for &k in keys.iter().step_by(37) {
                assert_eq!(index.get(k), Some(k));
            }
            let actions = h.join().expect("engine thread must not panic");
            assert!(!actions.is_empty());
        })
        .expect("threads must not panic");
    }

    /// Budget accounting: a tick that overshoots its budget leaves debt,
    /// and the next ticks are deferred until the debt is paid — never
    /// planning more than the budget allows.
    #[test]
    fn tick_budget_defers_after_overshoot() {
        let keys = Dataset::Osm.generate(30_000, 13);
        let index = ShardedIndex::<LippIndex>::bulk_load(
            &identity_records(&keys),
            ShardingConfig::with_shards(2),
        );
        // A 1ns budget: the first tick's single mandatory level overshoots
        // by the full maintenance cost, so following ticks defer while the
        // debt drains at 1ns per tick — observable immediately.
        let engine = MaintenanceEngine::new(
            CsvOptimizer::new(CsvConfig::for_lipp(0.1)),
            MaintenanceConfig {
                tick_budget: Some(Duration::from_nanos(1)),
                ..MaintenanceConfig::default()
            },
        );
        let first = engine.run_once(&index);
        assert!(
            matches!(first, MaintenanceAction::Maintained { .. }),
            "the first budgeted tick still does one level of work, got {first:?}"
        );
        let second = engine.run_once(&index);
        assert_eq!(
            second,
            MaintenanceAction::Deferred,
            "overshoot debt must defer the next tick"
        );
        // A fresh clone owes nothing (Clone resets budget state).
        let fresh = engine.clone();
        assert!(matches!(
            fresh.run_once(&index),
            MaintenanceAction::Maintained { .. }
        ));
    }

    /// An unbudgeted engine and a generously-budgeted engine make the same
    /// decisions: the budget only limits pacing, not outcomes.
    #[test]
    fn generous_budget_matches_unbudgeted_actions() {
        let keys = Dataset::Genome.generate(24_000, 17);
        let records = identity_records(&keys);
        let reference_index =
            ShardedIndex::<LippIndex>::bulk_load(&records, ShardingConfig::with_shards(4));
        let budgeted_index =
            ShardedIndex::<LippIndex>::bulk_load(&records, ShardingConfig::with_shards(4));
        let reference = engine();
        let budgeted = MaintenanceEngine::new(
            CsvOptimizer::new(CsvConfig::for_lipp(0.1)),
            MaintenanceConfig {
                tick_budget: Some(Duration::from_secs(3600)),
                min_split_keys: 1_000,
                split_factor: 2.0,
                ..MaintenanceConfig::default()
            },
        );
        let reference_actions = reference.run_until_idle(&reference_index, 100);
        let budgeted_actions = budgeted.run_until_idle(&budgeted_index, 100);
        // Compare decision shapes, not full reports: `preprocessing_time`
        // differs between any two runs.
        let shape = |a: &MaintenanceAction| match a {
            MaintenanceAction::Maintained {
                shard,
                report,
                completed,
            } => format!("maintained {shard} {:?} {completed}", report.outcomes),
            other => format!("{other:?}"),
        };
        assert_eq!(
            reference_actions.iter().map(shape).collect::<Vec<_>>(),
            budgeted_actions.iter().map(shape).collect::<Vec<_>>()
        );
        assert_eq!(reference_index.stats(), budgeted_index.stats());
    }

    /// `Some(Duration::ZERO)` must behave as "unbudgeted", not deadlock
    /// into eternal deferral.
    #[test]
    fn zero_budget_means_unbudgeted() {
        let keys = Dataset::Genome.generate(8_000, 19);
        let index = ShardedIndex::<LippIndex>::bulk_load(
            &identity_records(&keys),
            ShardingConfig::with_shards(2),
        );
        let engine = MaintenanceEngine::new(
            CsvOptimizer::new(CsvConfig::for_lipp(0.1)),
            MaintenanceConfig {
                tick_budget: Some(Duration::ZERO),
                ..MaintenanceConfig::default()
            },
        );
        let actions = engine.run_until_idle(&index, 100);
        assert!(actions.last().unwrap().is_idle());
        assert!(!actions
            .iter()
            .any(|a| matches!(a, MaintenanceAction::Deferred)));
    }

    /// The engine-owned thread: spawn, let it drain the fresh index to
    /// quiescence, stop it, and check the tallies line up with what
    /// `run_until_idle` would have done.
    #[test]
    fn spawned_engine_maintains_and_reports_stats() {
        let keys = Dataset::Osm.generate(20_000, 23);
        let index = Arc::new(ShardedIndex::<LippIndex>::bulk_load(
            &identity_records(&keys),
            config(4),
        ));
        let handle = engine().spawn(Arc::clone(&index));
        // Wait until the background thread has drained all four fresh
        // shards (quiescence = all maintained, no pending writes).
        let deadline = Instant::now() + Duration::from_secs(60);
        while !index
            .write_counters()
            .iter()
            .all(|&(writes, maintained)| maintained && writes == 0)
        {
            assert!(
                Instant::now() < deadline,
                "background engine never quiesced"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = handle.stop();
        assert_eq!(stats.maintain_passes, 4, "one pass per shard");
        assert_eq!(stats.splits, 0);
        assert_eq!(stats.merges, 0);
        for &k in keys.iter().step_by(201) {
            assert_eq!(index.get(k), Some(k));
        }
        // Dropping a second handle must also stop its thread (no
        // panic, no leak) — exercised via drop instead of stop.
        let handle = engine().spawn(Arc::clone(&index));
        drop(handle);
    }

    /// An in-memory sink that tallies the calls the index makes — enough to
    /// drive the engine's checkpoint tick without touching a filesystem.
    #[derive(Default)]
    struct CountingSink {
        backlogs: Mutex<HashMap<Key, u64>>,
        checkpoints: Mutex<usize>,
    }

    impl DurabilitySink for CountingSink {
        fn log_write(&self, shard: Key, _key: Key, _value: Option<Value>) {
            *self.backlogs.lock().entry(shard).or_insert(0) += 1;
        }

        fn checkpoint(&self, checkpoint: &ShardCheckpoint) {
            self.backlogs.lock().insert(checkpoint.lower_bound, 0);
            *self.checkpoints.lock() += 1;
        }

        fn replace_shards(&self, retired: &[Key], created: &[ShardCheckpoint]) {
            let mut backlogs = self.backlogs.lock();
            for checkpoint in created {
                backlogs.insert(checkpoint.lower_bound, 0);
            }
            for lower in retired {
                backlogs.remove(lower);
            }
            *self.checkpoints.lock() += created.len();
        }

        fn backlog(&self, shard: Key) -> u64 {
            *self.backlogs.lock().get(&shard).unwrap_or(&0)
        }
    }

    /// The checkpoint tick fires once some shard's log backlog crosses the
    /// threshold — before any structural work, and again after the index
    /// quiesces (overwrites accrue backlog without structural staleness).
    #[test]
    fn backlog_past_threshold_triggers_a_checkpoint_tick() {
        let keys = Dataset::Genome.generate(2_000, 29);
        let sink = Arc::new(CountingSink::default());
        let index = ShardedIndex::<LippIndex>::bulk_load_durable(
            &identity_records(&keys),
            ShardingConfig::with_shards(1).with_overlay_capacity(1_000),
            Arc::clone(&sink) as Arc<dyn DurabilitySink>,
        );
        let engine = MaintenanceEngine::new(
            CsvOptimizer::new(CsvConfig::for_lipp(0.1)),
            MaintenanceConfig {
                checkpoint_backlog: Some(8),
                ..MaintenanceConfig::default()
            },
        );
        // Overwrites: plenty of log records, zero structural writes.
        for &k in keys.iter().take(20) {
            index.insert(k, k + 1);
        }
        let action = engine.run_once(&index);
        let MaintenanceAction::Checkpointed { shard, backlog } = action else {
            panic!("expected a checkpoint tick, got {action:?}");
        };
        assert_eq!(shard, 0);
        assert_eq!(backlog, 20);
        assert_eq!(
            index.durability_backlog(),
            vec![(0, 0)],
            "the checkpoint must retire the whole backlog"
        );
        // Below the threshold the tick does not fire and the backlog stays.
        index.insert(keys[0], 7);
        let engine_high = MaintenanceEngine::new(
            CsvOptimizer::new(CsvConfig::for_lipp(0.1)),
            MaintenanceConfig {
                checkpoint_backlog: Some(1_000),
                min_score: f64::MAX, // keep the staleness pick out of the way
                ..MaintenanceConfig::default()
            },
        );
        assert!(engine_high.run_once(&index).is_idle());
        assert_eq!(index.durability_backlog(), vec![(0, 1)]);
    }

    /// A sink that wedges the engine: `backlog` panics, modelling a
    /// durability layer that hit unrecoverable I/O failure mid-flight.
    struct WedgedSink;

    impl DurabilitySink for WedgedSink {
        fn log_write(&self, _shard: Key, _key: Key, _value: Option<Value>) {}
        fn checkpoint(&self, _checkpoint: &ShardCheckpoint) {}
        fn replace_shards(&self, _retired: &[Key], _created: &[ShardCheckpoint]) {}
        fn backlog(&self, _shard: Key) -> u64 {
            panic!("injected durability failure")
        }
    }

    /// A panicking tick must not die silently: the handle turns unhealthy
    /// and `shutdown` re-reports the panic instead of returning stats.
    #[test]
    fn background_engine_panics_are_surfaced() {
        let keys = Dataset::Osm.generate(4_000, 31);
        let index = Arc::new(ShardedIndex::<LippIndex>::bulk_load_durable(
            &identity_records(&keys),
            ShardingConfig::with_shards(2),
            Arc::new(WedgedSink),
        ));
        let handle = engine().spawn(Arc::clone(&index));
        // Maintenance passes succeed (the sink's checkpoint is a no-op);
        // the first tick to consult the backlog panics and wedges the
        // engine.
        let deadline = Instant::now() + Duration::from_secs(60);
        while handle.is_healthy() {
            assert!(Instant::now() < deadline, "the engine never wedged");
            std::thread::sleep(Duration::from_millis(1));
        }
        // The index itself still serves reads and writes.
        assert_eq!(index.get(keys[0]), Some(keys[0]));
        index.insert(keys[0], 1);
        assert_eq!(index.get(keys[0]), Some(1));
        let err = handle
            .shutdown()
            .expect_err("the panic must be re-reported");
        assert!(
            err.message.contains("injected durability failure"),
            "unexpected panic message: {}",
            err.message
        );
        assert!(err.to_string().contains("maintenance thread panicked"));
    }
}
