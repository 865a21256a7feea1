//! The sharded concurrent index wrapper.
//!
//! Both the shard *vector* and every shard's contents are published through
//! [`crate::rcu::RcuCell`] as immutable snapshots. A lookup is a handful of
//! atomic reads — **zero lock acquisitions** — and writers and maintenance
//! build successor snapshots off to the side, publishing each with one
//! pointer swap. Readers observe either the pre- or the post-publication
//! state, never a torn one, and never wait on a writer.
//!
//! A shard snapshot ([`ShardSnapshot`]) is a pair: a big immutable base
//! index plus a small sorted *overlay* of pending upserts and tombstones,
//! held in the persistent two-run map [`crate::pmap::PMap`]. A write copies
//! the overlay's small delta run with its keys merged in and shares the main
//! run, merging the two only when the delta outgrows ≈ 4√n of n entries —
//! O(√`overlay_capacity`) sequential copying per write, amortised — and
//! never touches the base. A published snapshot's overlay holds at most
//! [`ShardingConfig::overlay_capacity`] entries: the write that would grow
//! it to `capacity + 1` instead *folds* the overlay into a fresh base — by
//! cloning the base and replaying the upserts when there are no tombstones
//! (which preserves the CSV-smoothed layout and the dirty-sub-tree marks),
//! or by a merge-join rebuild when there are — and that triggering write
//! lands in the folded base. Maintenance (`maintain_shard`, `optimize`)
//! plans and applies onto a private successor and swaps it in: the shard's
//! writers queue on its writer mutex meanwhile, its readers never wait.

use crate::durability::{DurabilitySink, RecoveredShard, ShardCheckpoint, StaleSeed, WriteRecord};
use crate::pmap::PMap;
use crate::rcu::RcuCell;
use core::ops::ControlFlow;
use csv_common::sync::{spin_loop, yield_now, AtomicBool, AtomicU64, AtomicUsize, Mutex, Ordering};
use csv_common::traits::{
    IndexStats, LearnedIndex, RangeIndex, RemovableIndex, SnapshotIndex, LOOKUP_BLOCK,
};
use csv_common::{Key, KeyValue, Value};
use csv_core::{CsvIntegrable, CsvOptimizer, CsvReport};
use rayon::prelude::*;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// The read path lookups take. RCU snapshots are the only one; this
/// single-variant enum remains only because the `benchmark/` crate
/// compiles against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPath {
    /// RCU snapshots per shard (readers never block; writers copy on
    /// write and publish with a pointer swap).
    #[default]
    Rcu,
}

/// How the key space is partitioned and buffered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardingConfig {
    /// Number of shards. Each shard owns a contiguous key range.
    pub num_shards: usize,
    /// The maximum number of pending point writes a *published* shard
    /// snapshot's overlay holds (clamped to at least 1). The write that
    /// would grow the overlay to `capacity + 1` entries triggers the fold
    /// into a fresh base index and lands there instead, so readers never
    /// observe an overlay past this bound (pinned by the boundary test).
    /// Larger values amortise the fold further but tax every lookup with a
    /// deeper overlay probe.
    pub overlay_capacity: usize,
}

impl Default for ShardingConfig {
    fn default() -> Self {
        Self {
            num_shards: 16,
            overlay_capacity: 4096,
        }
    }
}

impl ShardingConfig {
    /// A default config with `num_shards` shards.
    pub fn with_shards(num_shards: usize) -> Self {
        Self {
            num_shards,
            ..Self::default()
        }
    }

    /// Returns `self` unchanged (RCU is the only read path); remains only
    /// because the `benchmark/` crate compiles against it.
    pub fn with_read_path(self, _read_path: ReadPath) -> Self {
        self
    }

    /// The same config with the given overlay capacity.
    pub fn with_overlay_capacity(self, overlay_capacity: usize) -> Self {
        Self {
            overlay_capacity,
            ..self
        }
    }
}

/// One operation of a [`ShardedIndex::write_batch`] group commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOp {
    /// Insert or overwrite `key` with `value`.
    Insert {
        /// The key to upsert.
        key: Key,
        /// The value to store.
        value: Value,
    },
    /// Remove `key` when present (a no-op otherwise, exactly like
    /// [`ShardedIndex::remove`]).
    Remove {
        /// The key to remove.
        key: Key,
    },
}

impl WriteOp {
    /// The key the operation targets.
    pub fn key(self) -> Key {
        match self {
            Self::Insert { key, .. } | Self::Remove { key } => key,
        }
    }

    /// The overlay slot the operation writes: `Some` upsert, `None`
    /// tombstone.
    fn slot(self) -> Option<Value> {
        match self {
            Self::Insert { value, .. } => Some(value),
            Self::Remove { .. } => None,
        }
    }
}

/// What a [`ShardedIndex::write_batch`] call applied, equivalent to the
/// point-wise return values summed: `fresh_inserts` counts the inserts
/// [`ShardedIndex::insert`] would have returned `true` for, `removed` the
/// removes [`ShardedIndex::remove`] would have returned `Some` for —
/// evaluated sequentially in batch order (an insert followed by a remove of
/// the same key counts once in each).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Inserts whose key was absent when the op applied.
    pub fresh_inserts: usize,
    /// Removes whose key was present when the op applied.
    pub removed: usize,
}

/// Per-shard staleness bookkeeping: structural writes since the last
/// maintenance pass plus the mean-key-level baseline the drift heuristic
/// compares against.
struct StaleCounters {
    /// Structural writes (new keys, removals) since the last pass. Seeded
    /// with the bulk-loaded key count: a fresh shard has never been
    /// maintained, so its entire content is "unapplied writes" as far as
    /// the maintenance engine is concerned.
    writes: AtomicUsize,
    /// `f64::to_bits` of the mean key level at the last maintenance pass
    /// (meaningless until `maintained` is set).
    mean_level: AtomicU64,
    /// `false` until the first maintenance pass completes.
    maintained: AtomicBool,
}

impl StaleCounters {
    fn seeded(len: usize) -> Self {
        Self {
            writes: AtomicUsize::new(len),
            mean_level: AtomicU64::new(0),
            maintained: AtomicBool::new(false),
        }
    }

    /// Records the write iff it changed the live key set — a fresh-key
    /// insert (`absent → present`) or a successful removal
    /// (`present → absent`). Overwrites change no structure and do not
    /// count (pinned against a `BTreeMap` replay by
    /// `staleness_counters_match_an_oracle_replay`).
    fn record_if_structural(&self, was_present: bool, now_present: bool) {
        if was_present != now_present {
            self.writes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Group-commit variant of [`StaleCounters::record_if_structural`]:
    /// records `n` structural writes with one atomic add. `n` must already
    /// be the count of ops that individually satisfied the structural
    /// predicate, so a batch lands the exact counter delta its ops applied
    /// point-wise would.
    fn record_structural(&self, n: usize) {
        if n > 0 {
            self.writes.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn reset_writes(&self) {
        self.writes.store(0, Ordering::Relaxed);
    }

    /// Overwrites the counters with recovered state (see
    /// [`ShardedIndex::from_recovered`]).
    fn load_seed(&self, seed: StaleSeed) {
        self.writes.store(seed.writes, Ordering::Relaxed);
        self.mean_level
            .store(seed.mean_level.to_bits(), Ordering::Relaxed);
        self.maintained.store(seed.maintained, Ordering::Relaxed);
    }

    /// The counters as a persistable seed. `extra` accounts for a
    /// structural write that is being made durable in the same operation
    /// but whose `record_if_structural` only runs after publication.
    fn seed_snapshot(&self, extra: usize) -> StaleSeed {
        StaleSeed {
            writes: self.writes.load(Ordering::Relaxed) + extra,
            maintained: self.maintained.load(Ordering::Relaxed),
            mean_level: f64::from_bits(self.mean_level.load(Ordering::Relaxed)),
        }
    }

    fn mark_maintained(&self, mean_level: f64) {
        self.mean_level
            .store(mean_level.to_bits(), Ordering::Relaxed);
        self.maintained.store(true, Ordering::Relaxed);
    }

    fn snapshot(&self) -> (usize, bool) {
        (
            self.writes.load(Ordering::Relaxed),
            self.maintained.load(Ordering::Relaxed),
        )
    }

    /// Mean key level now minus the baseline (0 for never-maintained
    /// shards — their write counter already says everything).
    fn level_drift(&self, current_mean: f64) -> f64 {
        if self.maintained.load(Ordering::Relaxed) {
            current_mean - f64::from_bits(self.mean_level.load(Ordering::Relaxed))
        } else {
            0.0
        }
    }
}

/// A staleness snapshot of one shard, consumed by the maintenance engine to
/// pick its next target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardStaleness {
    /// Shard position (valid until the next split/merge changes the
    /// layout).
    pub shard: usize,
    /// Keys currently stored in the shard.
    pub num_keys: usize,
    /// Structural writes (inserts of new keys, removals) absorbed since the
    /// last maintenance pass; a never-maintained shard reports its full key
    /// count.
    pub writes_since_maintenance: usize,
    /// Mean key level now minus mean key level at the last maintenance pass
    /// (0 for never-maintained shards — their write counter already says
    /// everything). Positive drift means lookups got structurally slower.
    pub level_drift: f64,
    /// Whether the shard has ever been maintained.
    pub maintained: bool,
}

impl ShardStaleness {
    /// The scalar the engine ranks shards by: structural writes plus the
    /// key-weighted level drift (`drift_weight` converts "extra levels per
    /// lookup" into write-equivalents).
    pub fn score(&self, drift_weight: f64) -> f64 {
        self.writes_since_maintenance as f64
            + drift_weight * self.level_drift.max(0.0) * self.num_keys as f64
    }
}

/// The partial result of a budget-bounded [`ShardedIndex::maintain_shard_budgeted`]
/// call: the work done so far plus where to pick up next tick.
#[derive(Debug, Clone)]
pub struct MaintainProgress {
    /// The CSV report of the (possibly partial) pass.
    pub report: CsvReport,
    /// `Some(level)` when the deadline expired mid-sweep: the next call
    /// should resume planning at this level. `None` when the shard was
    /// fully maintained (and marked clean).
    pub resume_level: Option<usize>,
}

impl MaintainProgress {
    /// `true` when the shard was fully maintained this call.
    pub fn completed(&self) -> bool {
        self.resume_level.is_none()
    }
}

/// An immutable shard snapshot: a big shared base index plus a small
/// sorted overlay of writes not yet folded into it — `Some` upserts and
/// `None` tombstones. Readers consult the overlay first, then the base —
/// both without locks or allocation.
pub struct ShardSnapshot<I> {
    base: Arc<I>,
    overlay: PMap<Key, Option<Value>>,
    /// Tombstones currently in the overlay, maintained incrementally by
    /// the write path so the fold can pick its clone+replay fast path
    /// without scanning.
    tombstones: usize,
    /// Live key count (base plus overlay net effect), maintained
    /// incrementally by the write path.
    len: usize,
}

impl<I: LearnedIndex> ShardSnapshot<I> {
    fn clean(base: Arc<I>) -> Self {
        let len = base.len();
        Self {
            base,
            overlay: PMap::new(),
            tombstones: 0,
            len,
        }
    }

    pub(crate) fn get(&self, key: Key) -> Option<Value> {
        match self.overlay.get(&key) {
            Some(slot) => *slot,
            None => self.base.get(key),
        }
    }

    /// Batched [`ShardSnapshot::get`]: `out[i]` is what `get(keys[i])`
    /// returns. The overlay is probed per key — it is small and its two
    /// runs stay hot across a batch — and each block's overlay misses go to
    /// the base index together, so its [`LearnedIndex::get_many`] can walk
    /// them in lockstep.
    pub(crate) fn get_many(&self, keys: &[Key], out: &mut [Option<Value>]) {
        if self.overlay.is_empty() {
            return self.base.get_many(keys, out);
        }
        let mut missed = [0u32; LOOKUP_BLOCK];
        for (keys, out) in keys.chunks(LOOKUP_BLOCK).zip(out.chunks_mut(LOOKUP_BLOCK)) {
            let mut misses = 0;
            for (i, (&key, slot)) in keys.iter().zip(out.iter_mut()).enumerate() {
                match self.overlay.get(&key) {
                    Some(pending) => *slot = *pending,
                    None => {
                        missed[misses] = i as u32;
                        misses += 1;
                    }
                }
            }
            resolve_bucket(&missed[..misses], keys, out, |keys, out| {
                self.base.get_many(keys, out)
            });
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Structure statistics. Overlay writes are pending — they have no
    /// level in the base structure yet — so the histogram describes the
    /// base while `num_keys` reports the live count.
    fn stats(&self) -> IndexStats {
        let mut stats = self.base.stats();
        stats.num_keys = self.len;
        stats
    }
}

impl<I: LearnedIndex + RangeIndex> ShardSnapshot<I> {
    /// Every live record of the snapshot (base merged with the overlay), in
    /// ascending key order.
    fn records(&self) -> Vec<KeyValue> {
        let mut out = Vec::new();
        let _ = self.range_visit(0, Key::MAX, &mut |k, v| {
            out.push(KeyValue::new(k, v));
            ControlFlow::Continue(())
        });
        out
    }

    /// Streams records in `[lo, hi]` to `f` in ascending key order without
    /// materialising either side: the base index streams through its own
    /// `range_visit` while the overlay slice is pulled lazily from
    /// [`PMap::range`]'s allocation-free iterator; overlay slots supersede
    /// equal base keys and tombstones are dropped on the fly. Returns
    /// `Break` iff `f` broke.
    fn range_visit(
        &self,
        lo: Key,
        hi: Key,
        f: &mut dyn FnMut(Key, Value) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if self.overlay.is_empty() {
            return self.base.range_visit(lo, hi, f);
        }
        let mut overlay = self.overlay.range(&lo, &hi).peekable();
        self.base.range_visit(lo, hi, &mut |bk, bv| {
            // Drain overlay entries at or before this base key, then decide
            // whether the base record survives (no overlay slot for its key).
            while let Some(&(&ok, &oslot)) = overlay.peek() {
                if ok > bk {
                    break;
                }
                overlay.next();
                if ok == bk {
                    // The overlay slot supersedes the base record: an upsert
                    // replaces it, a tombstone drops it.
                    return match oslot {
                        Some(v) => f(ok, v),
                        None => ControlFlow::Continue(()),
                    };
                }
                if let Some(v) = oslot {
                    f(ok, v)?;
                }
            }
            f(bk, bv)
        })?;
        // Overlay keys past the last base record.
        for (&ok, &oslot) in overlay {
            if let Some(v) = oslot {
                f(ok, v)?;
            }
        }
        ControlFlow::Continue(())
    }
}

impl<I: SnapshotIndex + RangeIndex> ShardSnapshot<I> {
    /// Folds the overlay into a fresh base. With no tombstones the base is
    /// cloned and the upserts replayed — preserving the CSV-smoothed layout
    /// and the dirty-sub-tree marks exactly as in-place writes would. With
    /// tombstones the snapshot is rebuilt from its merged records (bulk
    /// loading resets the structure, which the staleness counters already
    /// flag for re-smoothing).
    fn folded_base(&self) -> I {
        if self.tombstones == 0 {
            let mut base = (*self.base).clone();
            for (&key, slot) in self.overlay.iter() {
                base.insert(key, slot.expect("tombstone count is zero"));
            }
            base
        } else {
            I::bulk_load(&self.records())
        }
    }
}

/// A contiguous key-range shard.
struct Shard<I> {
    lower_bound: Key,
    /// The published snapshot readers consume.
    snap: RcuCell<ShardSnapshot<I>>,
    /// Serializes writers and maintenance on this shard. Readers never
    /// touch it.
    writer: Mutex<()>,
    /// Set (under `writer`) when a split/merge replaced this shard in the
    /// layout: writers that raced the re-layout re-route instead of
    /// publishing into an unreachable handle.
    retired: AtomicBool,
    stale: StaleCounters,
}

impl<I: LearnedIndex> Shard<I> {
    fn new(lower_bound: Key, index: I) -> Self {
        let seed = index.len();
        Self {
            lower_bound,
            snap: RcuCell::new(Arc::new(ShardSnapshot::clean(Arc::new(index)))),
            writer: Mutex::new(()),
            retired: AtomicBool::new(false),
            stale: StaleCounters::seeded(seed),
        }
    }
}

/// The shard vector, itself an immutable published value: splits and
/// merges publish a successor vector, so readers index into a consistent
/// layout without any lock.
struct Layout<I> {
    shards: Vec<Arc<Shard<I>>>,
}

impl<I> Layout<I> {
    /// Index of the shard owning `key`.
    fn shard_of(&self, key: Key) -> usize {
        shard_for_key(&self.shards, key, |s| s.lower_bound)
    }
}

/// Index of the shard owning `key` within lower-bound-sorted `shards`: the
/// last entry whose lower bound is <= key (the first entry also owns every
/// key below its boundary). The single routing invariant shared by the
/// layout and pinned read views.
fn shard_for_key<T>(shards: &[T], key: Key, lower_bound: impl Fn(&T) -> Key) -> usize {
    shards
        .partition_point(|s| lower_bound(s) <= key)
        .saturating_sub(1)
}

thread_local! {
    /// Per-thread routing scratch shared by every batched operation
    /// (`multi_get`, `write_batch`): the per-shard position buckets
    /// survive across calls, so a small batch no longer pays one fresh
    /// `Vec` allocation per shard per call — that allocation was the whole
    /// small-batch `multi_get` crossover (0.78× at batch 16 before it was
    /// hoisted here).
    static ROUTE_SCRATCH: RefCell<Vec<Vec<u32>>> = const { RefCell::new(Vec::new()) };
}

/// Resolves a bucket of batch positions — one shard's share of a batch, or
/// one block's overlay misses — through `get_many`: the bucket's keys are
/// gathered into contiguous blocks of [`LOOKUP_BLOCK`], looked up together,
/// and the answers scattered back to their batch positions.
fn resolve_bucket(
    bucket: &[u32],
    keys: &[Key],
    out: &mut [Option<Value>],
    get_many: impl Fn(&[Key], &mut [Option<Value>]),
) {
    let mut gathered = [0 as Key; LOOKUP_BLOCK];
    let mut found = [None; LOOKUP_BLOCK];
    for block in bucket.chunks(LOOKUP_BLOCK) {
        for (key, &i) in gathered.iter_mut().zip(block) {
            *key = keys[i as usize];
        }
        get_many(&gathered[..block.len()], &mut found[..block.len()]);
        for (&i, &value) in block.iter().zip(&found) {
            out[i as usize] = value;
        }
    }
}

/// Runs `f` over `shards` cleared position buckets borrowed from the
/// thread-local routing scratch. Falls back to fresh buckets when the
/// scratch is already borrowed (a reentrant batched call from inside `f`),
/// so nesting degrades to the old allocation behaviour instead of
/// panicking.
fn with_route_scratch<R>(shards: usize, f: impl FnOnce(&mut [Vec<u32>]) -> R) -> R {
    ROUTE_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buckets) => {
            if buckets.len() < shards {
                buckets.resize_with(shards, Vec::new);
            }
            let buckets = &mut buckets[..shards];
            for bucket in buckets.iter_mut() {
                bucket.clear();
            }
            f(buckets)
        }
        Err(_) => f(&mut vec![Vec::new(); shards]),
    })
}

/// A pinned, immutable view of every shard snapshot, for read-mostly
/// batches: taking the view costs one RCU load per shard, after which every
/// lookup is plain memory reads — no atomics at all.
///
/// The view is a *snapshot*: writes published after [`ShardedIndex::read_view`]
/// returned are invisible to it. Use it for bounded batches (a query chunk,
/// one scan pass), not as a long-lived cache.
pub struct ReadView<I> {
    shards: Vec<(Key, Arc<ShardSnapshot<I>>)>,
}

impl<I: LearnedIndex> ReadView<I> {
    /// Point lookup against the pinned snapshots.
    pub fn get(&self, key: Key) -> Option<Value> {
        let shard = shard_for_key(&self.shards, key, |(lower, _)| *lower);
        self.shards[shard].1.get(key)
    }

    /// Batched point lookup against the pinned snapshots, in input order.
    ///
    /// The classic learned-index batching discipline (run the cheap model
    /// predictions for the whole batch first, then resolve) applied at the
    /// shard level: phase 1 routes every key to its shard in one pass over
    /// the batch, phase 2 resolves shard by shard through
    /// `ShardSnapshot::get_many`, so each shard's overlay runs are probed
    /// back-to-back and its base index walks the shard's keys in lockstep
    /// ([`LearnedIndex::get_many`]). All lookups observe the same
    /// pinned snapshots — `multi_get` is equivalent to `keys.map(get)` on
    /// this view (pinned by tests), just batched.
    pub fn multi_get(&self, keys: &[Key]) -> Vec<Option<Value>> {
        let mut out = vec![None; keys.len()];
        if keys.is_empty() {
            return out;
        }
        if self.shards.len() == 1 {
            self.shards[0].1.get_many(keys, &mut out);
            return out;
        }
        // Phase 1: the routing pass — one bucket of batch positions per
        // shard (u32 positions: a batch is bounded far below 4G keys),
        // built in recycled per-thread scratch.
        with_route_scratch(self.shards.len(), |buckets| {
            for (i, &key) in keys.iter().enumerate() {
                let shard = shard_for_key(&self.shards, key, |(lower, _)| *lower);
                buckets[shard].push(i as u32);
            }
            // Phase 2: per-shard batched resolution, batch positions in
            // input order.
            for ((_, snap), bucket) in self.shards.iter().zip(buckets.iter()) {
                resolve_bucket(bucket, keys, &mut out, |keys, out| snap.get_many(keys, out));
            }
        });
        out
    }

    /// Total keys across the pinned snapshots.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|(_, s)| s.len()).sum()
    }

    /// `true` when the pinned snapshots store no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<I: LearnedIndex + RangeIndex> ReadView<I> {
    /// Range scan `[lo, hi]` against the pinned snapshots, materialised.
    /// Equivalent to collecting [`ReadView::range_visit`] (pinned by
    /// tests).
    pub fn range(&self, lo: Key, hi: Key) -> Vec<KeyValue> {
        let mut out = Vec::new();
        let _ = self.range_visit(lo, hi, &mut |k, v| {
            out.push(KeyValue::new(k, v));
            ControlFlow::Continue(())
        });
        out
    }

    /// Streaming range scan `[lo, hi]` against the pinned snapshots:
    /// overlapping shards are visited in key order (the shard vector is
    /// key-ordered by construction) and every record streams to `f` in
    /// ascending key order with no intermediate `Vec`. Unlike
    /// [`ShardedIndex::range_visit`], every shard's snapshot was pinned
    /// when the view was taken, so the whole scan observes one frozen
    /// layout. Returns `Break` iff `f` broke.
    pub fn range_visit(
        &self,
        lo: Key,
        hi: Key,
        f: &mut dyn FnMut(Key, Value) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if lo > hi || self.shards.is_empty() {
            return ControlFlow::Continue(());
        }
        let first = shard_for_key(&self.shards, lo, |(lower, _)| *lower);
        for (i, (lower, snap)) in self.shards.iter().enumerate().skip(first) {
            if i > first && *lower > hi {
                break;
            }
            snap.range_visit(lo, hi, f)?;
        }
        ControlFlow::Continue(())
    }
}

/// A concurrent index assembled from per-key-range shards of a
/// single-threaded index type.
///
/// Shard boundaries are chosen from the bulk-load records so every shard
/// starts with the same number of keys; later inserts are routed by key, so
/// heavy skew can grow one shard faster than the others (the same behaviour
/// a range-partitioned distributed index exhibits). Three mechanisms keep
/// that in check over a long run:
///
/// * every shard counts its structural writes and exposes a staleness
///   snapshot ([`ShardedIndex::staleness`]) that
///   [`crate::MaintenanceEngine`] uses to re-optimise the stalest shard
///   incrementally ([`ShardedIndex::maintain_shard`]),
/// * a shard that outgrows its peers can be split in two
///   ([`ShardedIndex::split_shard`]), and
/// * a shard whose key range drained can be merged into its neighbour
///   ([`ShardedIndex::merge_shards`]).
///
/// See the module docs for the snapshot-and-overlay design behind those
/// operations.
pub struct ShardedIndex<I> {
    layout: RcuCell<Layout<I>>,
    /// Serializes layout changes (split/merge). Readers and per-shard
    /// writers never touch it.
    layout_writer: Mutex<()>,
    /// [`ShardingConfig::overlay_capacity`], clamped to at least 1.
    overlay_capacity: usize,
    /// Attached by the durable constructors ([`ShardedIndex::bulk_load_durable`],
    /// [`ShardedIndex::from_recovered`]); `None` keeps the in-memory
    /// configuration allocation-identical — the write path pays one
    /// `Option` check.
    sink: Option<Arc<dyn DurabilitySink>>,
}

impl<I: LearnedIndex> ShardedIndex<I> {
    /// Builds a sharded index over sorted, de-duplicated records.
    pub fn bulk_load(records: &[KeyValue], config: ShardingConfig) -> Self {
        let num_shards = config.num_shards.max(1);
        let per_shard = records.len().div_ceil(num_shards).max(1);
        let mut bounds_and_chunks: Vec<(Key, &[KeyValue])> = Vec::with_capacity(num_shards);
        if records.is_empty() {
            bounds_and_chunks.push((0, &[]));
        } else {
            for chunk in records.chunks(per_shard) {
                bounds_and_chunks.push((chunk[0].key, chunk));
            }
            // The first shard also owns every key below its smallest loaded
            // key.
            bounds_and_chunks[0].0 = 0;
        }
        let shards = bounds_and_chunks
            .into_iter()
            .map(|(lower, chunk)| Arc::new(Shard::new(lower, I::bulk_load(chunk))))
            .collect();
        Self::from_shards(shards, config, None)
    }

    fn from_shards(
        shards: Vec<Arc<Shard<I>>>,
        config: ShardingConfig,
        sink: Option<Arc<dyn DurabilitySink>>,
    ) -> Self {
        Self {
            layout: RcuCell::new(Arc::new(Layout { shards })),
            layout_writer: Mutex::new(()),
            overlay_capacity: config.overlay_capacity.max(1),
            sink,
        }
    }

    /// The handle currently owning `key` (an `Arc`, so the caller can lock
    /// its writer mutex outside the read-side critical section).
    fn shard_handle(&self, key: Key) -> Arc<Shard<I>> {
        self.layout
            .read(|layout| Arc::clone(&layout.shards[layout.shard_of(key)]))
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.layout.read(|l| l.shards.len())
    }

    /// Point lookup with **zero lock acquisitions**: two read-side RCU
    /// critical sections (a few atomic counter operations) around plain
    /// memory reads.
    pub fn get(&self, key: Key) -> Option<Value> {
        self.layout.read(|layout| {
            layout.shards[layout.shard_of(key)]
                .snap
                .read(|snap| snap.get(key))
        })
    }

    /// Batched point lookup, in input order. The whole batch is served from
    /// one pinned [`ReadView`] (one RCU load per shard for the entire
    /// batch, then [`ReadView::multi_get`]'s route-then-resolve pass — not
    /// a loop over [`ShardedIndex::get`], which pays the RCU counters per
    /// lookup).
    ///
    /// The whole batch observes one consistent snapshot per shard;
    /// `multi_get(keys)` returns exactly what `keys.map(get)` would when
    /// no concurrent writer intervenes between the two (pinned by tests).
    pub fn multi_get(&self, keys: &[Key]) -> Vec<Option<Value>> {
        self.pin().multi_get(keys)
    }

    /// A pinned snapshot view of every shard for read-mostly batches. See
    /// [`ReadView`] for the staleness contract. Always `Some`: the `Option`
    /// remains only because the `benchmark/` crate compiles against it.
    pub fn read_view(&self) -> Option<ReadView<I>> {
        Some(self.pin())
    }

    fn pin(&self) -> ReadView<I> {
        let layout = self.layout.load();
        ReadView {
            shards: layout
                .shards
                .iter()
                .map(|s| (s.lower_bound, s.snap.load()))
                .collect(),
        }
    }

    /// Total number of stored keys (consistent per shard, not globally
    /// atomic).
    pub fn len(&self) -> usize {
        let layout = self.layout.load();
        layout
            .shards
            .iter()
            .map(|s| s.snap.read(|snap| snap.len()))
            .sum()
    }

    /// `true` when no shard stores any key.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-shard key counts, in shard order, pending overlay writes
    /// included. The maintenance engine's split/merge triggers read this
    /// instead of [`ShardedIndex::map_shards`], which sees only the bases.
    pub fn shard_lens(&self) -> Vec<usize> {
        let layout = self.layout.load();
        layout
            .shards
            .iter()
            .map(|s| s.snap.read(|snap| snap.len()))
            .collect()
    }

    /// Aggregated structural statistics across shards.
    pub fn stats(&self) -> IndexStats {
        let mut total = IndexStats::default();
        let layout = self.layout.load();
        for shard in layout.shards.iter() {
            let s = shard.snap.load().stats();
            for (level, count) in s.level_histogram.iter() {
                total.level_histogram.record(level, count);
            }
            total.node_count += s.node_count;
            total.deep_node_count += s.deep_node_count;
            total.height = total.height.max(s.height);
            total.size_bytes += s.size_bytes;
            total.num_keys += s.num_keys;
        }
        total
    }

    /// Cheap per-shard `(writes_since_maintenance, maintained)` snapshot —
    /// two atomic loads per shard, no structure walk. Level drift only
    /// accumulates through writes, so a maintained shard with zero pending
    /// writes is provably not stale; the maintenance engine uses this as a
    /// quiescence pre-check before paying for [`ShardedIndex::staleness`].
    pub fn write_counters(&self) -> Vec<(usize, bool)> {
        let layout = self.layout.load();
        layout.shards.iter().map(|s| s.stale.snapshot()).collect()
    }

    /// Per-shard staleness snapshot (writes since the last maintenance pass
    /// plus level drift from the structural statistics), in shard order.
    /// Computing the drift walks each shard's structure, so this is a
    /// maintenance-cadence call, not a hot-path one.
    pub fn staleness(&self) -> Vec<ShardStaleness> {
        let layout = self.layout.load();
        layout
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let stats = s.snap.load().stats();
                let (writes, maintained) = s.stale.snapshot();
                ShardStaleness {
                    shard: i,
                    num_keys: stats.num_keys,
                    writes_since_maintenance: writes,
                    level_drift: s.stale.level_drift(stats.mean_key_level()),
                    maintained,
                }
            })
            .collect()
    }

    /// Runs `f` on every shard's current base snapshot and collects the
    /// results. Pending overlay writes are invisible to `f`; use
    /// [`ShardedIndex::shard_lens`] for exact counts.
    pub fn map_shards<T, F: FnMut(&I) -> T>(&self, mut f: F) -> Vec<T> {
        let layout = self.layout.load();
        layout
            .shards
            .iter()
            .map(|s| f(&s.snap.load().base))
            .collect()
    }
}

impl<I: SnapshotIndex + RangeIndex> ShardedIndex<I> {
    /// Inserts or overwrites a record. Returns `true` when the key was new.
    ///
    /// Takes the owning shard's writer mutex (invisible to readers),
    /// copies its overlay's delta run with the upsert applied, and
    /// publishes one snapshot; when the overlay is full it is first folded
    /// into a fresh base (see [`ShardingConfig::overlay_capacity`]).
    pub fn insert(&self, key: Key, value: Value) -> bool {
        self.write_slot(key, Some(value)).is_none()
    }

    /// The point-write path shared by insert (`Some`) and remove (`None`):
    /// returns the key's previous value. Retries when the routed shard was
    /// retired by a concurrent split/merge — with a bounded spin-then-yield
    /// backoff, because the successor layout is published by the racing
    /// layout writer and retrying cannot succeed before that publication
    /// lands (an unbounded retry loop would busy-burn a core against a slow
    /// split).
    fn write_slot(&self, key: Key, value: Option<Value>) -> Option<Value> {
        /// Retired-handle retries before each retry starts yielding the
        /// CPU instead of spinning (the common case re-routes on the first
        /// retry: the layout is published before the retired shard's
        /// writer mutex is released).
        const RETIRED_RETRY_SPINS: usize = 16;
        let mut retries = 0usize;
        loop {
            let shard = self.shard_handle(key);
            let writes = shard.writer.lock();
            if shard.retired.load(Ordering::SeqCst) {
                // A split/merge replaced this handle after we routed to it;
                // publishing here would write into an unreachable snapshot.
                drop(writes);
                retries += 1;
                if retries > RETIRED_RETRY_SPINS {
                    yield_now();
                } else {
                    spin_loop();
                }
                #[cfg(test)]
                RETIRED_RETRIES.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let snap = shard.snap.load();
            if value.is_none() && snap.get(key).is_none() {
                // Removing an absent key publishes nothing (pre-probed so
                // it also builds no successor overlay).
                return None;
            }
            let (overlay, slot) = snap.overlay.insert(key, value);
            let previous = slot.unwrap_or_else(|| snap.base.get(key));
            // A fresh tombstone adds one; overwriting an existing
            // tombstone slot removes the one it replaces.
            let tombstones = snap.tombstones + usize::from(value.is_none())
                - usize::from(matches!(slot, Some(None)));
            let len = match (previous.is_some(), value.is_some()) {
                (false, true) => snap.len + 1,
                (true, false) => snap.len - 1,
                _ => snap.len,
            };
            let next = if overlay.len() > self.overlay_capacity {
                let folded = ShardSnapshot {
                    base: Arc::clone(&snap.base),
                    overlay,
                    tombstones,
                    len,
                }
                .folded_base();
                debug_assert_eq!(folded.len(), len);
                if let Some(sink) = &self.sink {
                    // The triggering write lands in the folded base, not the
                    // log, so the checkpoint absorbs it (`absorbed: 1`); the
                    // staleness seed counts it too — `record_if_structural`
                    // only runs after publication.
                    let structural = usize::from(previous.is_some() != value.is_some());
                    sink.checkpoint(&ShardCheckpoint {
                        lower_bound: shard.lower_bound,
                        records: folded.range(0, Key::MAX),
                        stale: shard.stale.seed_snapshot(structural),
                        absorbed: 1,
                    });
                }
                ShardSnapshot::clean(Arc::new(folded))
            } else {
                if let Some(sink) = &self.sink {
                    // Write-ahead: the log append completes before the
                    // snapshot is published, so an acknowledged write is
                    // always recoverable.
                    sink.log_write(shard.lower_bound, key, value);
                }
                ShardSnapshot {
                    base: Arc::clone(&snap.base),
                    overlay,
                    tombstones,
                    len,
                }
            };
            shard.snap.publish(Arc::new(next));
            shard
                .stale
                .record_if_structural(previous.is_some(), value.is_some());
            return previous;
        }
    }

    /// Runs `f` on every shard's inner index, fanning the shards out across
    /// the rayon thread pool — used to apply CSV optimisation (or SALI
    /// workload flattening) to all shards at once. Shards are disjoint by
    /// construction, so per-shard mutations cannot conflict; `f` must be
    /// `Fn + Sync` because multiple shards run it concurrently. `f` mutates
    /// a copy (the overlay folded into a clone of the base) that is then
    /// published — readers keep flowing throughout.
    pub fn with_shards_mut<F>(&self, f: F)
    where
        F: Fn(&mut I) + Sync,
    {
        // Exclude splits/merges for the duration (they are the only
        // operations that retire handles): every shard of the layout loaded
        // below is live, so no shard's mutation can be lost to a concurrent
        // re-layout. Readers never touch this lock.
        let _layout_guard = self.layout_writer.lock();
        let layout = self.layout.load();
        layout
            .shards
            .par_iter()
            .for_each(|shard| self.rebuild_shard(shard, &f));
    }

    /// Sequential variant of [`ShardedIndex::with_shards_mut`] for closures
    /// that accumulate state across shards.
    pub fn with_shards_mut_seq<F: FnMut(&mut I)>(&self, mut f: F) {
        // As in `with_shards_mut`: no handle of the layout loaded under the
        // layout-writer lock can be retired mid-pass.
        let _layout_guard = self.layout_writer.lock();
        let layout = self.layout.load();
        for shard in layout.shards.iter() {
            self.rebuild_shard(shard, &mut f);
        }
    }

    /// Folds `shard` into a private base, lets `f` mutate it, checkpoints
    /// the result into the sink (when one is attached) and publishes it.
    /// The caller holds the layout-writer lock, so `shard` is live.
    fn rebuild_shard(&self, shard: &Shard<I>, f: impl FnOnce(&mut I)) {
        let _writes = shard.writer.lock();
        debug_assert!(!shard.retired.load(Ordering::SeqCst));
        let mut next = shard.snap.load().folded_base();
        f(&mut next);
        if let Some(sink) = &self.sink {
            sink.checkpoint(&ShardCheckpoint {
                lower_bound: shard.lower_bound,
                records: next.range(0, Key::MAX),
                stale: shard.stale.seed_snapshot(0),
                absorbed: 0,
            });
        }
        shard
            .snap
            .publish(Arc::new(ShardSnapshot::clean(Arc::new(next))));
    }

    /// Forces a durable checkpoint of shard `shard`: folds its overlay into
    /// a fresh base, checkpoints the result into the sink (truncating the
    /// shard's log) and publishes the folded snapshot. This is the
    /// maintenance engine's checkpoint tick — it bounds WAL replay length
    /// (and so recovery time) on shards whose writes never trip the
    /// capacity fold.
    ///
    /// Returns the log backlog the checkpoint retired, or `None` when there
    /// is no sink, `shard` is out of bounds or retired, or nothing is
    /// pending (empty overlay and empty backlog — checkpointing would only
    /// churn bytes).
    pub fn checkpoint_shard(&self, shard: usize) -> Option<u64> {
        let sink = self.sink.as_ref()?;
        let layout = self.layout.load();
        let shard = layout.shards.get(shard)?;
        let _writes = shard.writer.lock();
        if shard.retired.load(Ordering::SeqCst) {
            return None;
        }
        let backlog = sink.backlog(shard.lower_bound);
        let snap = shard.snap.load();
        if snap.overlay.is_empty() && backlog == 0 {
            return None;
        }
        let folded = snap.folded_base();
        sink.checkpoint(&ShardCheckpoint {
            lower_bound: shard.lower_bound,
            records: folded.range(0, Key::MAX),
            stale: shard.stale.seed_snapshot(0),
            absorbed: 0,
        });
        shard
            .snap
            .publish(Arc::new(ShardSnapshot::clean(Arc::new(folded))));
        Some(backlog)
    }
}

impl<I: LearnedIndex + RangeIndex> ShardedIndex<I> {
    /// [`ShardedIndex::bulk_load`] with a durability sink attached: every
    /// shard is checkpointed into the sink as one layout transition before
    /// the index is returned, and from then on the write path reports every
    /// acknowledged write to the sink *before* publishing it (see
    /// [`DurabilitySink`] for the ordering contract).
    pub fn bulk_load_durable(
        records: &[KeyValue],
        config: ShardingConfig,
        sink: Arc<dyn DurabilitySink>,
    ) -> Self {
        let mut this = Self::bulk_load(records, config);
        let layout = this.layout.load();
        let created: Vec<ShardCheckpoint> = layout
            .shards
            .iter()
            .map(|shard| {
                let snap = shard.snap.load();
                ShardCheckpoint {
                    lower_bound: shard.lower_bound,
                    records: snap.records(),
                    stale: StaleSeed::fresh(snap.len()),
                    absorbed: 0,
                }
            })
            .collect();
        sink.replace_shards(&[], &created);
        this.sink = Some(sink);
        this
    }

    /// Rebuilds an index from recovered per-shard state — the constructor a
    /// durability implementation's recovery path uses. Shard lower bounds
    /// and staleness counters are restored exactly as persisted, so the
    /// maintenance engine resumes where the crashed process left off. When
    /// a sink is attached, every recovered shard is re-checkpointed into it
    /// (one layout transition), giving the restarted store fresh
    /// checkpoints and empty logs.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is empty.
    pub fn from_recovered(
        shards: Vec<RecoveredShard>,
        config: ShardingConfig,
        sink: Option<Arc<dyn DurabilitySink>>,
    ) -> Self {
        assert!(!shards.is_empty(), "recovery produced no shards");
        let mut shards = shards;
        shards.sort_by_key(|s| s.lower_bound);
        let mut created = Vec::with_capacity(shards.len());
        let live: Vec<Arc<Shard<I>>> = shards
            .into_iter()
            .map(|recovered| {
                let shard = Shard::new(recovered.lower_bound, I::bulk_load(&recovered.records));
                shard.stale.load_seed(recovered.stale);
                created.push(ShardCheckpoint {
                    lower_bound: recovered.lower_bound,
                    records: recovered.records,
                    stale: recovered.stale,
                    absorbed: 0,
                });
                Arc::new(shard)
            })
            .collect();
        if let Some(sink) = &sink {
            sink.replace_shards(&[], &created);
        }
        Self::from_shards(live, config, sink)
    }

    /// `true` when a durability sink is attached.
    pub fn has_durability(&self) -> bool {
        self.sink.is_some()
    }

    /// Per-shard durable-log backlog `(shard_position, pending_records)` —
    /// the maintenance engine's checkpoint-tick trigger. Empty without a
    /// sink.
    pub fn durability_backlog(&self) -> Vec<(usize, u64)> {
        let Some(sink) = &self.sink else {
            return Vec::new();
        };
        let layout = self.layout.load();
        layout
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| (i, sink.backlog(s.lower_bound)))
            .collect()
    }

    /// Range scan `[lo, hi]` across every shard that overlaps the range.
    /// Each shard's snapshot is pinned at its own visit, so the scan is
    /// consistent per shard, not across shards.
    pub fn range(&self, lo: Key, hi: Key) -> Vec<KeyValue> {
        let mut out = Vec::new();
        let _ = self.range_visit(lo, hi, &mut |k, v| {
            out.push(KeyValue::new(k, v));
            ControlFlow::Continue(())
        });
        out
    }

    /// Streaming range scan `[lo, hi]`: records are handed to `f` in
    /// ascending key order as each overlapping shard is visited, without
    /// materialising any per-shard `Vec`. Shards are visited in key order
    /// under the same per-shard consistency as [`ShardedIndex::range`];
    /// returns `Break` iff `f` broke, which also stops visiting further
    /// shards.
    pub fn range_visit(
        &self,
        lo: Key,
        hi: Key,
        f: &mut dyn FnMut(Key, Value) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if lo > hi {
            return ControlFlow::Continue(());
        }
        let layout = self.layout.load();
        let first = layout.shard_of(lo);
        for (i, shard) in layout.shards.iter().enumerate().skip(first) {
            if i > first && shard.lower_bound > hi {
                break;
            }
            shard.snap.load().range_visit(lo, hi, f)?;
        }
        ControlFlow::Continue(())
    }

    /// Splits shard `shard` at its median key into two shards, fixing the
    /// hot-shard growth a skewed insert stream produces: each half is
    /// bulk-loaded fresh (the best structure an index can have) and the two
    /// halves take over the original's key range. Returns `false` when the
    /// shard is out of bounds or currently holds fewer than
    /// `min_keys.max(2)` keys — callers pick the split trigger from a
    /// lock-free snapshot, so the threshold is re-checked here: if a
    /// concurrent re-layout shifted the vector and `shard` now names some
    /// small fresh shard, the split is refused instead of rebuilding the
    /// wrong one.
    ///
    /// Only the target shard's writers block; lookups everywhere —
    /// including on the shard being split — keep flowing, and observe
    /// either the pre-split shard or the published halves.
    pub fn split_shard(&self, shard: usize, min_keys: usize) -> bool {
        let _layout_guard = self.layout_writer.lock();
        let layout = self.layout.load();
        let Some(target) = layout.shards.get(shard) else {
            return false;
        };
        // Block this shard's writers for the duration; readers are
        // unaffected and keep resolving against the old snapshot until the
        // new layout is published.
        let _writes = target.writer.lock();
        let records = target.snap.load().records();
        if records.len() < min_keys.max(2) {
            return false;
        }
        let mid = records.len() / 2;
        let lower_bound = target.lower_bound;
        let upper_bound = records[mid].key;
        let lower = Arc::new(Shard::new(lower_bound, I::bulk_load(&records[..mid])));
        let upper = Arc::new(Shard::new(upper_bound, I::bulk_load(&records[mid..])));
        if let Some(sink) = &self.sink {
            // One durable layout transition: the lower half supersedes the
            // old shard (same lower bound), the upper half is new.
            // Persisted before the new layout is published, so recovery
            // sees either the pre-split shard (with its log) or both halves
            // — never a gap.
            sink.replace_shards(
                &[],
                &[
                    ShardCheckpoint {
                        lower_bound,
                        records: records[..mid].to_vec(),
                        stale: StaleSeed::fresh(mid),
                        absorbed: 0,
                    },
                    ShardCheckpoint {
                        lower_bound: upper_bound,
                        records: records[mid..].to_vec(),
                        stale: StaleSeed::fresh(records.len() - mid),
                        absorbed: 0,
                    },
                ],
            );
        }
        let mut shards = layout.shards.clone();
        shards[shard] = lower;
        shards.insert(shard + 1, upper);
        // Retire before publishing: a writer that routed here via the old
        // layout and is queued on the writer mutex must re-route once it
        // acquires it.
        target.retired.store(true, Ordering::SeqCst);
        self.layout.publish(Arc::new(Layout { shards }));
        true
    }

    /// Merges shard `shard` with its right neighbour `shard + 1` — the
    /// inverse of [`ShardedIndex::split_shard`], for key ranges that
    /// drained (churn workloads, retired tenants): the combined records are
    /// bulk-loaded fresh and take over both key ranges. Returns `false`
    /// when `shard + 1` is out of bounds or the combined shard would exceed
    /// `max_keys` (the engine passes its split threshold here so a merge
    /// can never immediately re-trigger a split).
    pub fn merge_shards(&self, shard: usize, max_keys: usize) -> bool {
        let _layout_guard = self.layout_writer.lock();
        let layout = self.layout.load();
        if shard + 1 >= layout.shards.len() {
            return false;
        }
        let left = &layout.shards[shard];
        let right = &layout.shards[shard + 1];
        // Lock order (left before right) is globally consistent because
        // only split/merge hold two shard writers and both serialize on
        // `layout_writer`.
        let _left_writes = left.writer.lock();
        let _right_writes = right.writer.lock();
        let mut records = left.snap.load().records();
        records.extend(right.snap.load().records());
        if records.len() > max_keys {
            return false;
        }
        let merged = Arc::new(Shard::new(left.lower_bound, I::bulk_load(&records)));
        if let Some(sink) = &self.sink {
            // One durable layout transition: the combined shard supersedes
            // the left one, the right one is retired.
            let total = records.len();
            sink.replace_shards(
                &[right.lower_bound],
                &[ShardCheckpoint {
                    lower_bound: left.lower_bound,
                    records,
                    stale: StaleSeed::fresh(total),
                    absorbed: 0,
                }],
            );
        }
        let mut shards = layout.shards.clone();
        shards[shard] = merged;
        shards.remove(shard + 1);
        left.retired.store(true, Ordering::SeqCst);
        right.retired.store(true, Ordering::SeqCst);
        self.layout.publish(Arc::new(Layout { shards }));
        true
    }
}

impl<I: SnapshotIndex + RangeIndex + RemovableIndex> ShardedIndex<I> {
    /// Removes `key` and returns its value when it was present. Publishes a
    /// tombstone into the owning shard's overlay (folded out at the next
    /// overlay fold), so readers never observe a half-removed state.
    pub fn remove(&self, key: Key) -> Option<Value> {
        self.write_slot(key, None)
    }

    /// Applies a whole batch of point writes as one group commit,
    /// observationally identical to looping [`ShardedIndex::insert`] /
    /// [`ShardedIndex::remove`] over `ops` in order — same final contents,
    /// same staleness counters, same overlay fold boundaries (pinned by
    /// tests) — but paying the per-publication costs once per touched
    /// shard instead of once per write:
    ///
    /// * the batch is shard-partitioned with the same routing pass
    ///   [`ShardedIndex::multi_get`] uses;
    /// * each shard's slice lands on the overlay in a **single** merge
    ///   into one copy of its delta run ([`PMap::insert_many`]);
    /// * each touched shard publishes **one** successor snapshot — one
    ///   `Arc` allocation and one RCU grace period for the whole slice;
    /// * a durability sink receives **one** [`DurabilitySink::log_writes`]
    ///   frame per touched shard (before that shard's publication, so the
    ///   write-ahead contract covers the group), and any overlay folds the
    ///   slice trips are checkpointed exactly where point-wise application
    ///   would have folded.
    ///
    /// Ops apply sequentially in batch order (later ops of the batch
    /// observe earlier ones).
    pub fn write_batch(&self, ops: &[WriteOp]) -> BatchOutcome {
        let mut outcome = BatchOutcome::default();
        if !ops.is_empty() {
            self.route_batch(ops, &mut outcome);
        }
        outcome
    }

    /// Batched [`ShardedIndex::insert`]: upserts every record as one group
    /// commit and returns how many keys were fresh.
    pub fn insert_batch(&self, records: &[KeyValue]) -> usize {
        let ops: Vec<WriteOp> = records
            .iter()
            .map(|r| WriteOp::Insert {
                key: r.key,
                value: r.value,
            })
            .collect();
        self.write_batch(&ops).fresh_inserts
    }

    /// Batched [`ShardedIndex::remove`]: removes every key as one group
    /// commit and returns how many were present.
    pub fn remove_batch(&self, keys: &[Key]) -> usize {
        let ops: Vec<WriteOp> = keys.iter().map(|&key| WriteOp::Remove { key }).collect();
        self.write_batch(&ops).removed
    }

    /// The group-commit path behind [`ShardedIndex::write_batch`]: routes
    /// the batch per shard, applies each shard's slice under its writer
    /// mutex and re-routes any slice whose shard a concurrent split/merge
    /// retired — with the same bounded spin-then-yield backoff as
    /// `write_slot`, because retrying cannot succeed before the racing
    /// layout writer publishes the successor layout.
    fn route_batch(&self, ops: &[WriteOp], outcome: &mut BatchOutcome) {
        const RETIRED_RETRY_SPINS: usize = 16;
        // Positions not yet applied; re-routed against a fresh layout every
        // pass (a single pass in the common, re-layout-free case).
        let mut pending_ops: Vec<u32> = (0..ops.len() as u32).collect();
        let mut retries = 0usize;
        while !pending_ops.is_empty() {
            let layout = self.layout.load();
            let mut parked: Vec<u32> = Vec::new();
            with_route_scratch(layout.shards.len(), |buckets| {
                for &i in &pending_ops {
                    buckets[layout.shard_of(ops[i as usize].key())].push(i);
                }
                for (shard, bucket) in layout.shards.iter().zip(buckets.iter()) {
                    if bucket.is_empty() {
                        continue;
                    }
                    let writes = shard.writer.lock();
                    if shard.retired.load(Ordering::SeqCst) {
                        // This slice raced a re-layout; park it for the
                        // next routing pass.
                        drop(writes);
                        parked.extend_from_slice(bucket);
                        #[cfg(test)]
                        RETIRED_RETRIES.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    self.apply_slice(shard, ops, bucket, outcome);
                }
            });
            pending_ops = parked;
            if !pending_ops.is_empty() {
                retries += 1;
                if retries > RETIRED_RETRY_SPINS {
                    yield_now();
                } else {
                    spin_loop();
                }
            }
        }
    }

    /// Applies one shard's slice of a write batch (positions `bucket` into
    /// `ops`, batch order) under the shard's writer mutex, held by the
    /// caller.
    ///
    /// The slice's overlay slots are prefetched in **one** bulk
    /// [`PMap::get_many`] pass (one forward sweep over each overlay run for
    /// the slice's sorted keys, each probe searching only the suffix the
    /// previous one left), staged writes live in a flat sorted key/slot
    /// pair of vectors, and every per-op scalar — previous value, tombstone
    /// and length deltas, structural effect, projected overlay length — is
    /// tracked exactly as sequential point-wise application would have
    /// published it. When the projected overlay crosses the
    /// capacity mid-slice, the staged writes are folded into a fresh base
    /// *at that op* (same fold boundary, same checkpoint seed as the point
    /// path, with `absorbed` covering every staged-but-unlogged write), and
    /// the rest of the slice continues on the folded state. Everything
    /// still staged at the end is logged as one group frame and published
    /// as one successor snapshot.
    fn apply_slice(
        &self,
        shard: &Shard<I>,
        ops: &[WriteOp],
        bucket: &[u32],
        outcome: &mut BatchOutcome,
    ) {
        /// One slice key's state: its prefetched overlay slot, or the
        /// value this slice has staged over it (only staged slots feed
        /// the final ingest).
        #[derive(Clone, Copy)]
        enum SlotState {
            Fetched(Option<Option<Value>>),
            Staged(Option<Value>),
        }
        let snap = shard.snap.load();
        let empty = PMap::new();
        // Working state: `beneath` is the overlay below this batch's staged
        // writes (the snapshot's until a mid-slice fold empties it).
        let mut beneath: &PMap<Key, Option<Value>> = &snap.overlay;
        let mut base = Arc::clone(&snap.base);
        // Prefetch every slice key's overlay slot in one merged pass; the
        // per-op loop then probes this flat sorted pair of vectors instead
        // of descending the overlay once per op.
        let mut keys: Vec<Key> = bucket.iter().map(|&i| ops[i as usize].key()).collect();
        keys.sort_unstable();
        keys.dedup();
        let mut slots: Vec<SlotState> = vec![SlotState::Fetched(None); keys.len()];
        beneath.get_many(&keys, |i, v| slots[i] = SlotState::Fetched(Some(*v)));
        let staged_of = |keys: &[Key], slots: &[SlotState]| -> Vec<(Key, Option<Value>)> {
            keys.iter()
                .zip(slots)
                .filter_map(|(&k, s)| match s {
                    SlotState::Staged(v) => Some((k, *v)),
                    SlotState::Fetched(_) => None,
                })
                .collect()
        };
        let mut tail: Vec<WriteRecord> = Vec::new();
        let mut tombstones = snap.tombstones;
        let mut len = snap.len;
        let mut projected = snap.overlay.len();
        let mut structural = 0usize;
        let mut folded = false;
        for &i in bucket {
            let op = ops[i as usize];
            let key = op.key();
            let value = op.slot();
            let idx = keys
                .binary_search(&key)
                .expect("every slice key was prefetched");
            // The op's view of the key: this slice's staged write, else the
            // overlay slot, else the base — sequential semantics.
            let slot = match slots[idx] {
                SlotState::Staged(v) => Some(v),
                SlotState::Fetched(s) => s,
            };
            let previous = slot.unwrap_or_else(|| base.get(key));
            if value.is_none() && previous.is_none() {
                // Removing an absent key publishes nothing, exactly like
                // the point path's pre-probe.
                continue;
            }
            match op {
                WriteOp::Insert { .. } => {
                    outcome.fresh_inserts += usize::from(previous.is_none());
                }
                WriteOp::Remove { .. } => outcome.removed += 1,
            }
            structural += usize::from(previous.is_some() != value.is_some());
            tombstones =
                tombstones + usize::from(value.is_none()) - usize::from(matches!(slot, Some(None)));
            len = match (previous.is_some(), value.is_some()) {
                (false, true) => len + 1,
                (true, false) => len - 1,
                _ => len,
            };
            // A key with no slot yet (neither staged nor in the overlay)
            // grows the overlay by one — the same growth the point path's
            // displaced-slot check observes.
            projected += usize::from(slot.is_none());
            slots[idx] = SlotState::Staged(value);
            tail.push(WriteRecord { key, value });
            if projected > self.overlay_capacity {
                // Fold exactly where point-wise application would have:
                // the staged writes merge onto the overlay (one pass) and
                // the result folds into a fresh base that this op — and
                // every staged predecessor — lands in. The checkpoint
                // absorbs all of them: none were individually logged.
                let staged = staged_of(&keys, &slots);
                let folded_base = ShardSnapshot {
                    base,
                    overlay: beneath.insert_many(&staged),
                    tombstones,
                    len,
                }
                .folded_base();
                debug_assert_eq!(folded_base.len(), len);
                if let Some(sink) = &self.sink {
                    sink.checkpoint(&ShardCheckpoint {
                        lower_bound: shard.lower_bound,
                        records: folded_base.range(0, Key::MAX),
                        stale: shard.stale.seed_snapshot(structural),
                        absorbed: tail.len() as u64,
                    });
                }
                base = Arc::new(folded_base);
                beneath = &empty;
                // Everything staged so far now lives in the base, and the
                // overlay beneath is empty: later ops of the slice see no
                // slot for any key until they stage one themselves.
                slots.fill(SlotState::Fetched(None));
                tail.clear();
                tombstones = 0;
                projected = 0;
                folded = true;
            }
        }
        if tail.is_empty() && !folded {
            // Every op was a remove of an absent key: nothing to publish,
            // log or count — as the point path.
            return;
        }
        if let Some(sink) = &self.sink {
            if !tail.is_empty() {
                // Write-ahead for the whole group: one frame covering
                // every unfolded write of the slice, durable before the
                // (single) publication below.
                sink.log_writes(shard.lower_bound, &tail);
            }
        }
        let staged = staged_of(&keys, &slots);
        let next = if staged.is_empty() {
            debug_assert_eq!(base.len(), len);
            ShardSnapshot::clean(base)
        } else {
            ShardSnapshot {
                overlay: beneath.insert_many(&staged),
                base,
                tombstones,
                len,
            }
        };
        shard.snap.publish(Arc::new(next));
        shard.stale.record_structural(structural);
    }
}

impl<I: SnapshotIndex + RangeIndex + CsvIntegrable> ShardedIndex<I> {
    /// Applies CSV (Algorithm 2) to every shard concurrently, using the
    /// optimizer's plan → apply lifecycle. Each shard runs the sequential
    /// per-shard sweep — the shards themselves already saturate the thread
    /// pool, so nesting the optimizer's own parallelism inside would only
    /// oversubscribe. Returns the per-shard reports in shard (key) order.
    ///
    /// The whole pass — plan *and* apply — runs against a private successor
    /// (overlay folded into a clone of the base) and is published with one
    /// pointer swap, so lookups never wait at all; the shard's point
    /// writers queue on its writer mutex for the duration.
    ///
    /// A full optimisation pass subsumes incremental maintenance, so each
    /// shard is marked clean and its staleness counters reset, exactly as
    /// [`ShardedIndex::maintain_shard`] would.
    pub fn optimize(&self, optimizer: &CsvOptimizer) -> Vec<CsvReport> {
        // Exclude splits/merges for the whole pass so every shard of this
        // layout stays live: a handle retired mid-pass would silently drop
        // its report and leave the successor shards un-optimised. Readers
        // are unaffected.
        let _layout_guard = self.layout_writer.lock();
        let layout = self.layout.load();
        layout
            .shards
            .par_iter()
            .map(|shard| {
                let started = Instant::now();
                let mut report = CsvReport::default();
                let _writes = shard.writer.lock();
                debug_assert!(!shard.retired.load(Ordering::SeqCst));
                let mut next = shard.snap.load().folded_base();
                if let Some((start_level, stop_level)) = optimizer.sweep_levels(&next) {
                    for level in (stop_level..=start_level).rev() {
                        let plan = optimizer.plan_level(&next, level);
                        plan.apply_into(&mut next, &mut report);
                    }
                }
                self.finish_maintenance(shard, next);
                report.preprocessing_time = started.elapsed();
                report
            })
            .collect()
    }

    /// Incrementally re-optimises one shard: per sweep level, the *dirty*
    /// sub-trees (the roots that absorbed writes since the shard was last
    /// marked clean) are re-planned and the accepted rebuilds applied. The
    /// shard is then marked clean and its staleness counters reset.
    ///
    /// Plans on the live snapshot, applies onto a clone, publishes with one
    /// swap — the apply phase holds no lock readers can observe, and the
    /// shard's own writers (who queue on the writer mutex) cannot
    /// interleave, so no refusal races exist.
    ///
    /// Returns the shard's CSV report, or `None` when `shard` is out of
    /// bounds (a split/merge may have changed the layout since the caller
    /// chose it).
    pub fn maintain_shard(&self, shard: usize, optimizer: &CsvOptimizer) -> Option<CsvReport> {
        self.maintain_shard_budgeted(shard, optimizer, None, None)
            .map(|progress| progress.report)
    }

    /// [`ShardedIndex::maintain_shard`] with a latency budget: planning
    /// starts at `resume_from` (or the sweep's top level) and stops after
    /// the first level that finishes past `deadline`, returning where to
    /// resume. At least one level is processed per call, so a sequence of
    /// budgeted calls always terminates. The shard is only marked clean —
    /// and its staleness counters only reset — once the sweep completes,
    /// so an interrupted shard stays at the head of the staleness ranking.
    pub fn maintain_shard_budgeted(
        &self,
        shard: usize,
        optimizer: &CsvOptimizer,
        resume_from: Option<usize>,
        deadline: Option<Instant>,
    ) -> Option<MaintainProgress> {
        let started = Instant::now();
        let layout = self.layout.load();
        let shard = layout.shards.get(shard)?;
        let _writes = shard.writer.lock();
        if shard.retired.load(Ordering::SeqCst) {
            return None;
        }
        let mut report = CsvReport::default();
        let mut resume_level = None;
        let mut next = shard.snap.load().folded_base();
        if let Some((start_level, stop_level)) = optimizer.sweep_levels(&next) {
            let from = resume_from
                .unwrap_or(start_level)
                .clamp(stop_level, start_level);
            for level in (stop_level..=from).rev() {
                let plan = optimizer.plan_dirty_level(&next, level);
                plan.apply_into(&mut next, &mut report);
                if level > stop_level && deadline.is_some_and(|d| Instant::now() >= d) {
                    resume_level = Some(level - 1);
                    break;
                }
            }
        }
        if resume_level.is_none() {
            self.finish_maintenance(shard, next);
        } else {
            // Publish the partial progress (dirty marks intact, no counter
            // reset) so the next tick resumes from it. No sink call: the
            // rebuild is content-preserving, so the shard's previous
            // checkpoint plus its (un-truncated) log still recover exactly
            // this state.
            shard
                .snap
                .publish(Arc::new(ShardSnapshot::clean(Arc::new(next))));
        }
        report.preprocessing_time = started.elapsed();
        Some(MaintainProgress {
            report,
            resume_level,
        })
    }

    /// Maintenance epilogue: marks the successor clean, checkpoints it into
    /// the sink (when one is attached — before publication, like every
    /// durable transition), publishes it, and resets the staleness
    /// bookkeeping. The structure walk runs on the private successor before
    /// publication — no reader ever waits on it — and the shard's writer
    /// mutex (held by the caller) keeps writes from interleaving with the
    /// counter reset.
    fn finish_maintenance(&self, shard: &Shard<I>, mut next: I) {
        next.csv_mark_clean();
        let mean = next.stats().mean_key_level();
        if let Some(sink) = &self.sink {
            sink.checkpoint(&ShardCheckpoint {
                lower_bound: shard.lower_bound,
                records: next.range(0, Key::MAX),
                stale: StaleSeed {
                    writes: 0,
                    maintained: true,
                    mean_level: mean,
                },
                absorbed: 0,
            });
        }
        shard
            .snap
            .publish(Arc::new(ShardSnapshot::clean(Arc::new(next))));
        shard.stale.reset_writes();
        shard.stale.mark_maintained(mean);
    }
}

/// Test-only tally of retired-handle retries in the write paths (other
/// threads' retries included): lets stress tests assert the re-route race
/// actually occurred.
#[cfg(test)]
static RETIRED_RETRIES: AtomicUsize = AtomicUsize::new(0);

#[cfg(test)]
impl<I: LearnedIndex> ShardedIndex<I> {
    /// Test hook: per-shard published-overlay lengths, for the
    /// fold-boundary pin.
    fn overlay_lens(&self) -> Vec<usize> {
        let layout = self.layout.load();
        layout
            .shards
            .iter()
            .map(|s| s.snap.read(|snap| snap.overlay.len()))
            .collect()
    }

    /// Test hook: per-shard published-overlay delta-run lengths (a drop
    /// marks a spill into the main run).
    fn overlay_delta_lens(&self) -> Vec<usize> {
        let layout = self.layout.load();
        layout
            .shards
            .iter()
            .map(|s| s.snap.read(|snap| snap.overlay.delta_len()))
            .collect()
    }

    /// Test hook: runs `f` while holding **every** writer-side lock (the
    /// layout writer and each shard's writer mutex). If a reader-path
    /// operation acquired any of them, calling it from another thread while
    /// `f` runs would deadlock — which is exactly what the zero-lock
    /// structural test checks cannot happen.
    fn with_all_writer_locks_held<R>(&self, f: impl FnOnce() -> R) -> R {
        let _layout_guard = self.layout_writer.lock();
        let layout = self.layout.load();
        let _shard_guards: Vec<_> = layout.shards.iter().map(|s| s.writer.lock()).collect();
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csv_btree::BPlusTree;
    use csv_common::key::identity_records;
    use csv_datasets::Dataset;
    use csv_lipp::LippIndex;
    use std::collections::BTreeMap;

    fn config(num_shards: usize) -> ShardingConfig {
        ShardingConfig::with_shards(num_shards)
    }

    #[test]
    fn sharded_lookups_match_the_flat_index_on_both_paths() {
        let keys = Dataset::Osm.generate(40_000, 3);
        let records = identity_records(&keys);
        let flat = LippIndex::bulk_load(&records);
        let sharded = ShardedIndex::<LippIndex>::bulk_load(&records, ShardingConfig::default());
        assert_eq!(sharded.num_shards(), 16);
        assert_eq!(sharded.len(), flat.len());
        for &k in keys.iter().step_by(37) {
            assert_eq!(sharded.get(k), flat.get(k));
        }
        assert_eq!(sharded.get(keys[0].wrapping_sub(1)), None);
        assert_eq!(sharded.get(*keys.last().unwrap() + 1), None);
    }

    /// The serving batch path: `multi_get` must return exactly what N
    /// individual `get`s would — in input order, hits and misses alike —
    /// with pending overlay writes (upserts and tombstones) in play, and
    /// through both the default `get_many` (B+-tree) and LIPP's lockstep
    /// override.
    #[test]
    fn multi_get_matches_individual_gets_everywhere() {
        multi_get_matches_individual_gets::<BPlusTree>();
        multi_get_matches_individual_gets::<LippIndex>();
    }

    fn multi_get_matches_individual_gets<I: SnapshotIndex + RangeIndex + RemovableIndex>() {
        let keys = Dataset::Osm.generate(30_000, 11);
        let records = identity_records(&keys);
        // A deliberately unordered batch mixing hits, misses below, between
        // and above the loaded range, and duplicates.
        let mut batch: Vec<Key> = keys.iter().copied().step_by(17).collect();
        batch.extend((0..200u64).map(|i| *keys.last().unwrap() + 1 + i));
        batch.push(keys[0].wrapping_sub(1));
        batch.push(keys[0]);
        batch.push(keys[0]);
        batch.reverse();
        // Dirties the overlays: overwrites and removals all over, then a few
        // of each on keys of the batch, so that the batch meets pending
        // upserts and pending tombstones.
        let dirty = |sharded: &ShardedIndex<I>| {
            for &k in keys.iter().step_by(23) {
                sharded.insert(k, k ^ 0xABCD);
            }
            for &k in keys.iter().step_by(41) {
                sharded.remove(k);
            }
            for &k in keys.iter().step_by(17).skip(1200).take(3) {
                sharded.insert(k, k ^ 0xEF);
            }
            for &k in keys.iter().step_by(17).skip(1000).take(3) {
                sharded.remove(k);
            }
            let view = sharded.read_view().expect("read_view is always Some");
            let pending: Vec<Option<Value>> = batch
                .iter()
                .filter_map(|&k| {
                    let shard = shard_for_key(&view.shards, k, |(lower, _)| *lower);
                    view.shards[shard].1.overlay.get(&k).copied()
                })
                .collect();
            assert!(pending.iter().any(Option::is_some), "no pending upsert");
            assert!(pending.iter().any(Option::is_none), "no pending tombstone");
        };
        for shards in [8, 1] {
            let name = format!("{shards} shards");
            let sharded =
                ShardedIndex::<I>::bulk_load(&records, config(shards).with_overlay_capacity(64));
            // Clean overlays first (the batch goes to the base index
            // whole), then dirty ones.
            for dirtied in [false, true] {
                if dirtied {
                    dirty(&sharded);
                }
                let individually: Vec<Option<Value>> =
                    batch.iter().map(|&k| sharded.get(k)).collect();
                assert_eq!(sharded.multi_get(&batch), individually, "{name}");
                // Every prefix length around the lockstep block.
                for len in [1, LOOKUP_BLOCK - 1, LOOKUP_BLOCK, LOOKUP_BLOCK + 1, 64] {
                    assert_eq!(
                        sharded.multi_get(&batch[..len]),
                        individually[..len],
                        "{name}, {len} keys"
                    );
                }
                // The pinned view agrees with itself and the index.
                let view = sharded.read_view().expect("read_view is always Some");
                let via_view: Vec<Option<Value>> = batch.iter().map(|&k| view.get(k)).collect();
                assert_eq!(view.multi_get(&batch), via_view, "{name}");
                assert_eq!(via_view, individually);
            }
            assert!(sharded.multi_get(&[]).is_empty());
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty = ShardedIndex::<BPlusTree>::bulk_load(&[], config(4));
        assert!(empty.is_empty());
        assert_eq!(empty.get(7), None);
        assert_eq!(empty.num_shards(), 1);
        let tiny = ShardedIndex::<BPlusTree>::bulk_load(&identity_records(&[5, 9]), config(64));
        assert_eq!(tiny.len(), 2);
        assert_eq!(tiny.get(5), Some(5));
        assert_eq!(tiny.get(9), Some(9));
    }

    #[test]
    fn mutations_and_ranges_match_an_oracle_on_both_paths() {
        let keys = Dataset::Facebook.generate(20_000, 9);
        let records = identity_records(&keys);
        let sharded = ShardedIndex::<BPlusTree>::bulk_load(&records, config(8));
        let mut oracle: BTreeMap<Key, Value> = keys.iter().map(|&k| (k, k)).collect();

        // Inserts and removals route to the right shard.
        for (i, &k) in keys.iter().enumerate().step_by(3) {
            if i % 2 == 0 {
                assert_eq!(sharded.remove(k), oracle.remove(&k));
            } else {
                let v = k ^ 0xFFFF;
                assert_eq!(sharded.insert(k, v), oracle.insert(k, v).is_none());
            }
        }
        assert_eq!(sharded.len(), oracle.len());
        // Cross-shard range scans.
        let lo = keys[100];
        let hi = keys[15_000];
        let got = sharded.range(lo, hi);
        let expected: Vec<KeyValue> = oracle
            .range(lo..=hi)
            .map(|(&k, &v)| KeyValue::new(k, v))
            .collect();
        assert_eq!(got, expected);
        assert!(sharded.range(10, 5).is_empty());
    }

    /// The overlay must fold into the base (clone+replay without
    /// tombstones, merge-join rebuild with them) without losing or
    /// resurrecting records, across multiple fold generations.
    #[test]
    fn rcu_overlay_folds_preserve_the_oracle() {
        let keys = Dataset::Genome.generate(5_000, 13);
        let records = identity_records(&keys);
        // A tiny overlay so every few writes trigger a fold.
        let config = ShardingConfig {
            num_shards: 4,
            overlay_capacity: 7,
        };
        let sharded = ShardedIndex::<BPlusTree>::bulk_load(&records, config);
        let mut oracle: BTreeMap<Key, Value> = keys.iter().map(|&k| (k, k)).collect();
        let top = *keys.last().unwrap();
        for i in 0..2_000u64 {
            match i % 4 {
                // Fresh inserts (upsert-only folds in this stretch).
                0 | 1 => {
                    let k = top + 1 + i;
                    assert_eq!(sharded.insert(k, i), oracle.insert(k, i).is_none());
                }
                // Overwrites.
                2 => {
                    let k = keys[(i as usize * 17) % keys.len()];
                    assert_eq!(sharded.insert(k, i), oracle.insert(k, i).is_none());
                }
                // Removals (tombstone folds).
                _ => {
                    let k = keys[(i as usize * 31) % keys.len()];
                    assert_eq!(sharded.remove(k), oracle.remove(&k));
                }
            }
        }
        assert_eq!(sharded.len(), oracle.len());
        for (&k, &v) in &oracle {
            assert_eq!(sharded.get(k), Some(v));
        }
        let expected: Vec<KeyValue> = oracle.iter().map(|(&k, &v)| KeyValue::new(k, v)).collect();
        assert_eq!(sharded.range(0, Key::MAX), expected);
    }

    /// Satellite pin: the per-shard staleness counters are exactly what a
    /// `BTreeMap` replay of the same op sequence predicts — every
    /// structural write (fresh insert, successful removal) counted once,
    /// on the shard owning its key, and nothing else — so a maintenance
    /// engine ranking shards by `writes_since_maintenance` sees the writes
    /// that changed each shard's key set. The sequence exercises every
    /// counting case: fresh inserts, overwrites, removals, double
    /// removals, removals of absent keys, reinserts over tombstones, and
    /// fold crossings (tiny overlay capacity).
    #[test]
    fn staleness_counters_match_an_oracle_replay() {
        let keys = Dataset::Genome.generate(2_000, 51);
        let records = identity_records(&keys);
        let top = *keys.last().unwrap();
        let sharded =
            ShardedIndex::<BPlusTree>::bulk_load(&records, config(4).with_overlay_capacity(5));
        // Bulk loading cuts equal chunks (the first shard also owns every
        // key below its smallest one), and every counter starts seeded with
        // its chunk's key count.
        let chunks: Vec<&[Key]> = keys.chunks(keys.len().div_ceil(4)).collect();
        assert_eq!(chunks.len(), 4);
        let mut lower_bounds: Vec<Key> = chunks.iter().map(|c| c[0]).collect();
        lower_bounds[0] = 0;
        let mut expected: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        let mut oracle: BTreeMap<Key, Value> = keys.iter().map(|&k| (k, k)).collect();
        let mut apply = |key: Key, value: Option<Value>| {
            let was_present = oracle.contains_key(&key);
            match value {
                Some(v) => assert_eq!(sharded.insert(key, v), oracle.insert(key, v).is_none()),
                None => assert_eq!(sharded.remove(key), oracle.remove(&key)),
            }
            if was_present != value.is_some() {
                let owner = lower_bounds.iter().rposition(|&b| b <= key).unwrap();
                expected[owner] += 1;
            }
        };
        for &k in keys.iter().step_by(3) {
            apply(k, Some(k ^ 1)); // overwrite: no count
        }
        for &k in keys.iter().step_by(5) {
            apply(k, None); // removal: count
            apply(k, None); // double removal: no count
        }
        for &k in keys.iter().step_by(10) {
            apply(k, Some(k)); // reinsert: count
        }
        for i in 0..300u64 {
            apply(top + 1 + i, Some(i)); // fresh: count
        }
        for i in 0..50u64 {
            apply(top + 10_000 + i, None); // absent: no count
        }
        let seeds: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        assert!(
            expected.iter().zip(&seeds).all(|(e, s)| e > s),
            "every shard must see structural writes"
        );
        let predicted: Vec<(usize, bool)> = expected.into_iter().map(|w| (w, false)).collect();
        assert_eq!(sharded.write_counters(), predicted);
    }

    /// Satellite pin: writers racing a slow split back off and re-route
    /// instead of losing writes (and instead of spinning unbounded — the
    /// bounded-backoff step yields past `RETIRED_RETRY_SPINS`). The inner
    /// index's `bulk_load` is artificially slow, so every split holds the
    /// target shard's writer mutex long enough for queued writers to pile
    /// up and observe the retirement.
    #[test]
    fn retired_writers_back_off_and_reroute() {
        use std::time::Duration;

        #[derive(Clone)]
        struct SlowBulk(BPlusTree);

        impl LearnedIndex for SlowBulk {
            fn name(&self) -> &'static str {
                "SlowBulkBTree"
            }
            fn bulk_load(records: &[KeyValue]) -> Self {
                // Slow enough for writers to queue behind a split's writer
                // mutex, fast enough to keep the test snappy.
                std::thread::sleep(Duration::from_millis(15));
                Self(BPlusTree::bulk_load(records))
            }
            fn get(&self, key: Key) -> Option<Value> {
                self.0.get(key)
            }
            fn get_counted(
                &self,
                key: Key,
                counters: &mut csv_common::CostCounters,
            ) -> Option<Value> {
                self.0.get_counted(key, counters)
            }
            fn insert(&mut self, key: Key, value: Value) -> bool {
                self.0.insert(key, value)
            }
            fn len(&self) -> usize {
                self.0.len()
            }
            fn stats(&self) -> IndexStats {
                self.0.stats()
            }
            fn level_of_key(&self, key: Key) -> Option<usize> {
                self.0.level_of_key(key)
            }
        }
        impl RangeIndex for SlowBulk {
            fn range(&self, lo: Key, hi: Key) -> Vec<KeyValue> {
                self.0.range(lo, hi)
            }
        }
        impl SnapshotIndex for SlowBulk {}

        let keys = Dataset::Osm.generate(6_000, 43);
        let records = identity_records(&keys);
        let sharded = ShardedIndex::<SlowBulk>::bulk_load(&records, config(2));
        let retries_before = RETIRED_RETRIES.load(Ordering::Relaxed);
        let fresh_base = *keys.last().unwrap() + 1;
        const WRITERS: u64 = 3;
        let stop = AtomicBool::new(false);
        let written: Vec<AtomicUsize> = (0..WRITERS).map(|_| AtomicUsize::new(0)).collect();
        crossbeam::thread::scope(|scope| {
            for writer in 0..WRITERS {
                let sharded = &sharded;
                let stop = &stop;
                let written = &written[writer as usize];
                scope.spawn(move |_| {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let k = fresh_base + writer * 1_000_000 + i;
                        assert!(sharded.insert(k, k), "fresh key must be new");
                        i += 1;
                        written.store(i as usize, Ordering::Relaxed);
                    }
                });
            }
            // Re-layout churn targeting the shard the writers hammer (the
            // last one — every fresh key is above the loaded range): each
            // slow split holds that shard's writer mutex long enough for
            // writers to queue on it, then retires the handle they hold.
            for _ in 0..8 {
                let last = sharded.num_shards() - 1;
                if sharded.split_shard(last, 2) {
                    assert!(sharded.merge_shards(last, usize::MAX));
                }
            }
            stop.store(true, Ordering::Relaxed);
        })
        .expect("threads must not panic");
        // No write was lost to a retired handle.
        let mut total = 0usize;
        for writer in 0..WRITERS {
            let count = written[writer as usize].load(Ordering::Relaxed);
            assert!(count > 0, "writer {writer} never completed a write");
            total += count;
            for i in (0..count as u64).step_by(101) {
                let k = fresh_base + writer * 1_000_000 + i;
                assert_eq!(sharded.get(k), Some(k));
            }
        }
        assert!(sharded.len() >= keys.len() + total);
        assert!(
            RETIRED_RETRIES.load(Ordering::Relaxed) > retries_before,
            "the slow splits must force at least one retired-handle retry"
        );
    }

    /// Satellite pin: the exact fold boundary. A published snapshot's
    /// overlay holds at most `overlay_capacity` entries — the write that
    /// would make it `capacity + 1` folds into a fresh base instead — and
    /// overlay-slot overwrites don't advance the boundary.
    #[test]
    fn published_overlay_never_exceeds_capacity() {
        const CAPACITY: usize = 8;
        let keys: Vec<Key> = (0..1_000).map(|i| i * 10).collect();
        let records = identity_records(&keys);
        let sharded = ShardedIndex::<BPlusTree>::bulk_load(
            &records,
            config(1).with_overlay_capacity(CAPACITY),
        );
        // Exactly `capacity` fresh writes buffer without folding.
        for i in 1..=CAPACITY as u64 {
            sharded.insert(20_000 + i, i);
            assert_eq!(sharded.overlay_lens(), vec![i as usize]);
        }
        // Overwriting a buffered key at full capacity publishes a
        // same-size overlay — no fold.
        sharded.insert(20_000 + 1, 99);
        assert_eq!(sharded.overlay_lens(), vec![CAPACITY]);
        assert_eq!(sharded.get(20_000 + 1), Some(99));
        // The write that would grow it to capacity + 1 folds, and the
        // triggering write lands in the fresh base.
        sharded.insert(30_000, 7);
        assert_eq!(sharded.overlay_lens(), vec![0]);
        assert_eq!(sharded.get(30_000), Some(7));
        assert_eq!(sharded.len(), keys.len() + CAPACITY + 1);
        // A tombstone is an overlay entry like any other: capacity
        // removals buffer, one more folds.
        for i in 1..=CAPACITY as u64 {
            sharded.remove(keys[i as usize]);
            assert_eq!(sharded.overlay_lens(), vec![i as usize]);
        }
        sharded.remove(keys[CAPACITY + 1]);
        assert_eq!(sharded.overlay_lens(), vec![0]);
        // Net effect: capacity + 1 fresh inserts, capacity + 1 removals.
        assert_eq!(sharded.len(), keys.len());
    }

    /// Satellite pin: an overlay capacity of 0 is clamped to 1 — every
    /// write publishes exactly the overlay lengths (fold boundaries) and
    /// results a capacity-1 twin does, and neither loses a record.
    #[test]
    fn zero_overlay_capacity_is_clamped_to_one() {
        let keys: Vec<Key> = (0..500).map(|i| i * 10).collect();
        let records = identity_records(&keys);
        let zero =
            ShardedIndex::<BPlusTree>::bulk_load(&records, config(2).with_overlay_capacity(0));
        let one =
            ShardedIndex::<BPlusTree>::bulk_load(&records, config(2).with_overlay_capacity(1));
        let mut oracle: BTreeMap<Key, Value> = keys.iter().map(|&k| (k, k)).collect();
        let mut buffered = false;
        for i in 0..300u64 {
            let key = (i * 37) % 6_000;
            if i % 3 == 2 {
                let expected = oracle.remove(&key);
                assert_eq!(zero.remove(key), expected);
                assert_eq!(one.remove(key), expected);
            } else {
                let fresh = oracle.insert(key, i).is_none();
                assert_eq!(zero.insert(key, i), fresh);
                assert_eq!(one.insert(key, i), fresh);
            }
            let lens = zero.overlay_lens();
            assert_eq!(lens, one.overlay_lens(), "write {i}");
            assert!(lens.iter().all(|&len| len <= 1), "write {i}: {lens:?}");
            buffered |= lens.contains(&1);
        }
        assert!(buffered, "a capacity of 1 must buffer one write per shard");
        let expected: Vec<KeyValue> = oracle.iter().map(|(&k, &v)| KeyValue::new(k, v)).collect();
        assert_eq!(zero.range(0, Key::MAX), expected);
        assert_eq!(one.range(0, Key::MAX), expected);
    }

    /// Satellite pin: a tombstone-heavy interleaving of inserts, removes,
    /// overwrites, range scans and full-records reads stays consistent
    /// with a `BTreeMap` oracle across repeated folds (tiny overlay
    /// capacity) and shard splits/merges.
    #[test]
    fn tombstone_heavy_interleavings_match_the_oracle() {
        use csv_common::rng::SplitMix64;
        let keys = Dataset::Osm.generate(6_000, 41);
        let records = identity_records(&keys);
        let sharded =
            ShardedIndex::<BPlusTree>::bulk_load(&records, config(3).with_overlay_capacity(5));
        let mut oracle: BTreeMap<Key, Value> = keys.iter().map(|&k| (k, k)).collect();
        let mut rng = SplitMix64::new(98);
        let top = *keys.last().unwrap();
        for step in 0..4_000u64 {
            let pick = rng.next_u64();
            // Half the steps target fresh keys above the loaded
            // range so removals keep finding live targets.
            let key = if pick.is_multiple_of(2) {
                keys[(pick / 2) as usize % keys.len()]
            } else {
                top + 1 + (pick / 2) % 2_048
            };
            match rng.next_u64() % 8 {
                // Removal-heavy mix: tombstones dominate the
                // overlay, so most folds take the merge-join
                // rebuild path.
                0..=3 => assert_eq!(sharded.remove(key), oracle.remove(&key)),
                4 | 5 => {
                    assert_eq!(
                        sharded.insert(key, step),
                        oracle.insert(key, step).is_none()
                    );
                }
                6 => assert_eq!(sharded.get(key), oracle.get(&key).copied()),
                _ => {
                    let hi = key + rng.next_u64() % 50_000;
                    let got = sharded.range(key, hi);
                    let expected: Vec<KeyValue> = oracle
                        .range(key..=hi)
                        .map(|(&k, &v)| KeyValue::new(k, v))
                        .collect();
                    assert_eq!(got, expected, "range diverged at step {step}");
                }
            }
            if step % 503 == 0 {
                let shard = (rng.next_u64() as usize) % sharded.num_shards().max(1);
                if sharded.split_shard(shard, 2) && rng.next_u64().is_multiple_of(2) {
                    assert!(sharded.merge_shards(shard, usize::MAX));
                }
            }
            if step % 997 == 0 {
                let full = sharded.range(0, Key::MAX);
                let expected: Vec<KeyValue> =
                    oracle.iter().map(|(&k, &v)| KeyValue::new(k, v)).collect();
                assert_eq!(full, expected, "records diverged at step {step}");
            }
            assert_eq!(sharded.len(), oracle.len());
        }
        assert_eq!(sharded.len(), oracle.len());
        for (&k, &v) in &oracle {
            assert_eq!(sharded.get(k), Some(v));
        }
        let full = sharded.range(0, Key::MAX);
        let expected: Vec<KeyValue> = oracle.iter().map(|(&k, &v)| KeyValue::new(k, v)).collect();
        assert_eq!(full, expected);
    }

    #[test]
    fn stats_aggregate_across_shards_on_both_paths() {
        let keys = Dataset::Genome.generate(30_000, 5);
        let records = identity_records(&keys);
        let sharded = ShardedIndex::<LippIndex>::bulk_load(&records, config(8));
        let stats = sharded.stats();
        assert_eq!(stats.num_keys, keys.len());
        assert_eq!(stats.level_histogram.total(), keys.len());
        assert!(stats.node_count >= 8);
        let per_shard = sharded.map_shards(|i| i.len());
        assert_eq!(per_shard.iter().sum::<usize>(), keys.len());
        assert_eq!(per_shard.len(), 8);
        assert_eq!(sharded.shard_lens(), per_shard);
    }

    #[test]
    fn concurrent_readers_and_writers_agree_with_an_oracle_on_both_paths() {
        let keys = Dataset::Covid.generate(30_000, 11);
        let records = identity_records(&keys);
        let sharded = ShardedIndex::<BPlusTree>::bulk_load(&records, config(8));

        // Writers insert disjoint fresh keys; readers hammer existing
        // keys.
        let fresh_base = *keys.last().unwrap() + 1;
        crossbeam::thread::scope(|scope| {
            for writer in 0..4u64 {
                let sharded = &sharded;
                scope.spawn(move |_| {
                    for i in 0..2_000u64 {
                        let k = fresh_base + writer * 1_000_000 + i;
                        assert!(sharded.insert(k, k));
                    }
                });
            }
            for reader in 0..4usize {
                let sharded = &sharded;
                let keys = &keys;
                scope.spawn(move |_| {
                    for &k in keys.iter().skip(reader).step_by(7) {
                        assert_eq!(sharded.get(k), Some(k));
                    }
                });
            }
        })
        .expect("threads must not panic");

        assert_eq!(sharded.len(), keys.len() + 4 * 2_000);
        for writer in 0..4u64 {
            for i in (0..2_000u64).step_by(191) {
                let k = fresh_base + writer * 1_000_000 + i;
                assert_eq!(sharded.get(k), Some(k));
            }
        }
    }

    #[test]
    fn with_shards_mut_applies_to_every_shard_on_both_paths() {
        use csv_common::sync::{AtomicUsize, Ordering};
        let keys = Dataset::Osm.generate(10_000, 21);
        let sharded = ShardedIndex::<LippIndex>::bulk_load(&identity_records(&keys), config(4));
        let touched = AtomicUsize::new(0);
        sharded.with_shards_mut(|shard| {
            touched.fetch_add(1, Ordering::Relaxed);
            assert!(shard.len() > 0);
        });
        assert_eq!(touched.load(Ordering::Relaxed), 4);
        let mut touched_seq = 0usize;
        sharded.with_shards_mut_seq(|shard| {
            touched_seq += 1;
            assert!(shard.len() > 0);
        });
        assert_eq!(touched_seq, 4);
    }

    /// Mutations performed through `with_shards_mut` must be visible to
    /// readers afterwards (i.e. the mutated clone really is published).
    #[test]
    fn rcu_with_shards_mut_publishes_the_mutation() {
        let keys = Dataset::Osm.generate(4_000, 23);
        let records = identity_records(&keys);
        let sharded = ShardedIndex::<BPlusTree>::bulk_load(&records, config(4));
        let probe = *keys.last().unwrap() + 99;
        sharded.with_shards_mut(|shard| {
            shard.insert(probe, 4242);
        });
        // Every shard inserted the probe; the owning shard serves it.
        assert_eq!(sharded.get(probe), Some(4242));
    }

    /// The acceptance-criterion test: `get` (and `range`,
    /// `len`, `stats`, `read_view`) performs **zero lock acquisitions**.
    /// One thread grabs every writer-side lock the representation owns —
    /// the layout writer mutex and all four shard writer mutexes — and sits
    /// on them; reader-path calls from another thread must all complete. If
    /// any reader-path operation acquired any of those locks it would
    /// deadlock here and trip the watchdog.
    #[test]
    fn rcu_reads_complete_while_every_writer_lock_is_held() {
        use csv_common::sync::{AtomicBool, Ordering};
        use std::time::Duration;

        let keys = Dataset::Osm.generate(20_000, 7);
        let records = identity_records(&keys);
        let sharded = ShardedIndex::<LippIndex>::bulk_load(&records, config(4));

        let locks_held = AtomicBool::new(false);
        let reads_done = AtomicBool::new(false);
        let watchdog_fired = AtomicBool::new(false);
        crossbeam::thread::scope(|scope| {
            scope.spawn(|_| {
                sharded.with_all_writer_locks_held(|| {
                    locks_held.store(true, Ordering::SeqCst);
                    let deadline = Instant::now() + Duration::from_secs(30);
                    while !reads_done.load(Ordering::SeqCst) {
                        if Instant::now() > deadline {
                            watchdog_fired.store(true, Ordering::SeqCst);
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                });
            });
            while !locks_held.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            // Every reader-path operation, exercised while all writer-side
            // locks are held by the other thread.
            for &k in keys.iter().step_by(499) {
                assert_eq!(sharded.get(k), Some(k));
            }
            assert_eq!(sharded.len(), keys.len());
            assert_eq!(sharded.stats().num_keys, keys.len());
            assert_eq!(
                sharded.range(keys[10], keys[500]).len(),
                491,
                "range scan must proceed lock-free"
            );
            let view = sharded.read_view().expect("read_view is always Some");
            for &k in keys.iter().step_by(997) {
                assert_eq!(view.get(k), Some(k));
            }
            reads_done.store(true, Ordering::SeqCst);
        })
        .expect("threads must not panic");
        assert!(
            !watchdog_fired.load(Ordering::SeqCst),
            "reader-path calls did not complete while writer locks were held"
        );
    }

    /// Snapshot isolation under re-layout: readers racing a split/merge
    /// observe either the pre- or the post-publication layout — every key
    /// answers correctly at every moment — and writers that raced the
    /// retirement re-route instead of losing their write.
    #[test]
    fn rcu_reads_and_writes_survive_concurrent_splits_and_merges() {
        use csv_common::sync::{AtomicBool, Ordering};
        let keys = Dataset::Osm.generate(30_000, 19);
        let records = identity_records(&keys);
        let sharded = ShardedIndex::<BPlusTree>::bulk_load(&records, config(4));
        let stop = AtomicBool::new(false);
        let fresh_base = *keys.last().unwrap() + 1;
        crossbeam::thread::scope(|scope| {
            // Re-layout churn: split a shard, merge it back, repeatedly.
            scope.spawn(|_| {
                for round in 0..30 {
                    let shard = round % sharded.num_shards().max(1);
                    if sharded.split_shard(shard, 2) {
                        assert!(sharded.merge_shards(shard, usize::MAX));
                    }
                }
                stop.store(true, Ordering::SeqCst);
            });
            // A writer inserting fresh keys spread over the key space.
            scope.spawn(|_| {
                let mut i = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let k = fresh_base + i;
                    assert!(sharded.insert(k, k), "fresh key must be new");
                    i += 1;
                }
            });
            // Readers: every original key must answer at every moment.
            for reader in 0..2usize {
                let sharded = &sharded;
                let keys = &keys;
                let stop = &stop;
                scope.spawn(move |_| {
                    while !stop.load(Ordering::SeqCst) {
                        for &k in keys.iter().skip(reader * 11).step_by(701) {
                            assert_eq!(sharded.get(k), Some(k));
                        }
                    }
                });
            }
        })
        .expect("threads must not panic");
        // Quiesced: the full contents are intact.
        for &k in keys.iter().step_by(97) {
            assert_eq!(sharded.get(k), Some(k));
        }
        let inserted = sharded.len() - keys.len();
        for i in 0..inserted as u64 {
            assert_eq!(sharded.get(fresh_base + i), Some(fresh_base + i));
        }
    }

    /// Split-then-merge must round-trip: the merged shard holds exactly the
    /// records of the original, lookups and ranges are unchanged, and the
    /// rebuilt structure equals a fresh bulk load of the same records.
    #[test]
    fn split_then_merge_round_trips_on_both_paths() {
        let keys = Dataset::Genome.generate(12_000, 29);
        let records = identity_records(&keys);
        let sharded = ShardedIndex::<LippIndex>::bulk_load(&records, config(3));
        let before_range = sharded.range(0, Key::MAX);
        let shards_before = sharded.num_shards();

        assert!(sharded.split_shard(1, 2), "split must succeed");
        assert_eq!(sharded.num_shards(), shards_before + 1);
        assert_eq!(sharded.range(0, Key::MAX), before_range);

        assert!(sharded.merge_shards(1, usize::MAX), "merge must succeed");
        assert_eq!(sharded.num_shards(), shards_before);
        assert_eq!(sharded.range(0, Key::MAX), before_range);
        for &k in keys.iter().step_by(53) {
            assert_eq!(sharded.get(k), Some(k));
        }
        // A merge refuses to exceed its size bound, and refuses at the
        // vector's end.
        assert!(!sharded.merge_shards(0, 1));
        assert!(!sharded.merge_shards(sharded.num_shards() - 1, usize::MAX));
    }

    /// Pins the short-lock contract: while a shard is in its *plan* phase
    /// (key collection / smoothing), concurrent `get`s on the same shard
    /// must proceed, because planning holds no reader-visible lock at all.
    ///
    /// A gated LIPP wrapper blocks inside the first `csv_collect_keys_into`
    /// call (i.e. mid-plan) until the main thread has completed a lookup on
    /// the same — only — shard. If the plan phase excluded readers the
    /// lookup could not finish, the gate would hit its escape timeout, and
    /// the assertion on the timeout flag fails.
    #[test]
    fn gets_proceed_during_the_plan_phase() {
        use csv_common::metrics::CostCounters;
        use csv_common::sync::{AtomicBool, Ordering};
        use csv_common::traits::IndexStats;
        use csv_core::cost::SubtreeCostStats;
        use csv_core::csv::{RebuildRefusal, SubtreeRef};
        use csv_core::layout::SmoothedLayout;
        use csv_core::CsvConfig;
        use std::time::{Duration, Instant};

        static GATE_ARMED: AtomicBool = AtomicBool::new(false);
        static COLLECT_STARTED: AtomicBool = AtomicBool::new(false);
        static READER_DONE: AtomicBool = AtomicBool::new(false);
        static GATE_TIMED_OUT: AtomicBool = AtomicBool::new(false);

        #[derive(Clone)]
        struct GatedLipp(LippIndex);

        impl LearnedIndex for GatedLipp {
            fn name(&self) -> &'static str {
                "GatedLIPP"
            }
            fn bulk_load(records: &[KeyValue]) -> Self {
                Self(LippIndex::bulk_load(records))
            }
            fn get(&self, key: Key) -> Option<Value> {
                self.0.get(key)
            }
            fn get_counted(&self, key: Key, counters: &mut CostCounters) -> Option<Value> {
                self.0.get_counted(key, counters)
            }
            fn insert(&mut self, key: Key, value: Value) -> bool {
                self.0.insert(key, value)
            }
            fn len(&self) -> usize {
                self.0.len()
            }
            fn stats(&self) -> IndexStats {
                self.0.stats()
            }
            fn level_of_key(&self, key: Key) -> Option<usize> {
                self.0.level_of_key(key)
            }
        }

        impl RangeIndex for GatedLipp {
            fn range(&self, lo: Key, hi: Key) -> Vec<KeyValue> {
                self.0.range(lo, hi)
            }
        }

        impl SnapshotIndex for GatedLipp {}

        impl CsvIntegrable for GatedLipp {
            fn csv_max_level(&self) -> usize {
                self.0.csv_max_level()
            }
            fn csv_subtrees_at_level(&self, level: usize) -> Vec<SubtreeRef> {
                self.0.csv_subtrees_at_level(level)
            }
            fn csv_collect_keys_into(&self, subtree: &SubtreeRef, buf: &mut Vec<Key>) {
                self.0.csv_collect_keys_into(subtree, buf);
                if GATE_ARMED.swap(false, Ordering::SeqCst) {
                    COLLECT_STARTED.store(true, Ordering::SeqCst);
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while !READER_DONE.load(Ordering::SeqCst) {
                        if Instant::now() > deadline {
                            GATE_TIMED_OUT.store(true, Ordering::SeqCst);
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
            fn csv_subtree_cost(&self, subtree: &SubtreeRef) -> SubtreeCostStats {
                self.0.csv_subtree_cost(subtree)
            }
            fn csv_rebuild_subtree(
                &mut self,
                subtree: &SubtreeRef,
                layout: &SmoothedLayout,
            ) -> Result<(), RebuildRefusal> {
                self.0.csv_rebuild_subtree(subtree, layout)
            }
        }

        let keys = Dataset::Osm.generate(20_000, 7);
        let records = identity_records(&keys);
        GATE_ARMED.store(false, Ordering::SeqCst);
        COLLECT_STARTED.store(false, Ordering::SeqCst);
        READER_DONE.store(false, Ordering::SeqCst);
        GATE_TIMED_OUT.store(false, Ordering::SeqCst);

        // One shard: excluding readers during planning would block
        // *every* lookup, so a successful mid-plan lookup proves the
        // plan phase is reader-transparent.
        let sharded = ShardedIndex::<GatedLipp>::bulk_load(&records, config(1));
        let optimizer = CsvOptimizer::new(CsvConfig::for_lipp(0.1));

        GATE_ARMED.store(true, Ordering::SeqCst);
        crossbeam::thread::scope(|scope| {
            let handle = scope.spawn(|_| sharded.optimize(&optimizer));
            let deadline = Instant::now() + Duration::from_secs(10);
            while !COLLECT_STARTED.load(Ordering::SeqCst) {
                assert!(
                    Instant::now() < deadline,
                    "optimizer never reached key collection"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            // The optimizer is parked inside its plan phase; lookups on
            // the only shard must still be served.
            for &k in keys.iter().step_by(4_999) {
                assert_eq!(sharded.get(k), Some(k), "get blocked during the plan phase");
            }
            READER_DONE.store(true, Ordering::SeqCst);
            let reports = handle.join().expect("optimizer thread must not panic");
            assert_eq!(reports.len(), 1);
            assert!(reports[0].subtrees_considered() > 0);
        })
        .expect("threads must not panic");

        assert!(
            !GATE_TIMED_OUT.load(Ordering::SeqCst),
            "plan-phase gate timed out: lookups were blocked while planning"
        );
        for &k in keys.iter().step_by(997) {
            assert_eq!(sharded.get(k), Some(k));
        }
    }

    #[test]
    fn parallel_optimize_matches_sequential_per_shard_optimization() {
        use csv_core::CsvConfig;
        let keys = Dataset::Genome.generate(60_000, 13);
        let records = identity_records(&keys);
        let optimizer = CsvOptimizer::new(CsvConfig::for_lipp(0.1));

        let parallel = ShardedIndex::<LippIndex>::bulk_load(&records, config(8));
        let reports = parallel.optimize(&optimizer);
        assert_eq!(reports.len(), 8);

        let sequential = ShardedIndex::<LippIndex>::bulk_load(&records, config(8));
        let mut seq_reports = Vec::new();
        sequential.with_shards_mut_seq(|shard| {
            seq_reports.push(optimizer.optimize(shard));
        });

        for (par, seq) in reports.iter().zip(&seq_reports) {
            assert_eq!(par.outcomes, seq.outcomes);
            assert_eq!(par.subtrees_rebuilt, seq.subtrees_rebuilt);
        }
        assert_eq!(parallel.stats(), sequential.stats());
        for &k in keys.iter().step_by(17) {
            assert_eq!(parallel.get(k), Some(k));
            assert_eq!(parallel.get(k), sequential.get(k));
        }
    }

    #[test]
    fn read_view_pins_a_consistent_snapshot() {
        let keys = Dataset::Genome.generate(8_000, 37);
        let records = identity_records(&keys);
        let sharded = ShardedIndex::<BPlusTree>::bulk_load(&records, config(4));
        let view = sharded.read_view().expect("read_view is always Some");
        assert_eq!(view.len(), keys.len());
        assert!(!view.is_empty());
        // Writes after the view was taken are invisible to it but visible
        // to fresh lookups — the documented staleness contract.
        let probe = *keys.last().unwrap() + 1;
        sharded.insert(probe, 7);
        assert_eq!(view.get(probe), None);
        assert_eq!(sharded.get(probe), Some(7));
        for &k in keys.iter().step_by(211) {
            assert_eq!(view.get(k), Some(k));
        }
    }

    /// Publications never mutate a run a reader shares: a view pinned
    /// over dirty overlays keeps returning exactly its pin-time contents
    /// while later writes spill the pinned overlay's delta into its main
    /// run, overwrite and tombstone the very keys it buffers, fold every
    /// shard many times over, and split and merge the layout.
    #[test]
    fn pinned_view_outlives_later_publications() {
        let keys = Dataset::Osm.generate(4_000, 61);
        let records = identity_records(&keys);
        let sharded =
            ShardedIndex::<BPlusTree>::bulk_load(&records, config(3).with_overlay_capacity(96));
        let mut oracle: BTreeMap<Key, Value> = keys.iter().map(|&k| (k, k)).collect();
        // Dirty every overlay (upserts and tombstones) before pinning.
        for &k in keys.iter().step_by(400) {
            assert_eq!(
                sharded.insert(k, k ^ 0x55),
                oracle.insert(k, k ^ 0x55).is_none()
            );
        }
        for &k in keys.iter().skip(200).step_by(400) {
            assert_eq!(sharded.remove(k), oracle.remove(&k));
        }
        assert!(sharded.overlay_lens().iter().all(|&len| len > 0));
        let view = sharded.read_view().expect("read_view is always Some");
        let pinned: Vec<KeyValue> = oracle.iter().map(|(&k, &v)| KeyValue::new(k, v)).collect();
        assert_eq!(view.range(0, Key::MAX), pinned);

        // Fresh keys below the first key all route to shard 0: its pinned
        // overlay's delta spills into main at least twice before it folds.
        assert!(keys[0] > 1_000);
        let (mut spills, mut fresh) = (0, keys[0]);
        loop {
            let (delta, overlay) = (sharded.overlay_delta_lens()[0], sharded.overlay_lens()[0]);
            fresh -= 1;
            sharded.insert(fresh, fresh);
            if sharded.overlay_lens()[0] < overlay {
                break;
            }
            spills += usize::from(sharded.overlay_delta_lens()[0] < delta);
        }
        assert!(spills >= 2, "{spills} spills before the fold");

        let top = *keys.last().unwrap();
        for round in 0..6u64 {
            // Overwrite and tombstone the buffered keys, then write more
            // keys than the capacity holds so the shards fold.
            for &k in keys.iter().step_by(400) {
                sharded.insert(k, round);
            }
            for &k in keys.iter().skip(200).step_by(400) {
                sharded.insert(k, round);
            }
            for &k in keys.iter().step_by(400) {
                sharded.remove(k);
            }
            for &k in keys.iter().skip(round as usize).step_by(13) {
                sharded.insert(k, round);
            }
            for i in 0..40u64 {
                sharded.insert(top + 1 + round * 100 + i, i);
            }
            let last = sharded.num_shards() - 1;
            if sharded.split_shard(last, 2) {
                assert!(sharded.merge_shards(last, usize::MAX));
            }
        }
        assert_eq!(view.len(), pinned.len());
        assert_eq!(view.range(0, Key::MAX), pinned);
        let probes: Vec<Key> = keys.iter().copied().step_by(7).collect();
        let expected: Vec<Option<Value>> = probes.iter().map(|k| oracle.get(k).copied()).collect();
        assert_eq!(view.multi_get(&probes), expected);
        for (&k, want) in probes.iter().zip(&expected) {
            assert_eq!(view.get(k), *want);
        }
    }

    /// Tentpole pin: `write_batch` is observationally identical to the same
    /// ops applied point-wise — per-op outcome counts, gets, ranges,
    /// lengths, staleness counters, and the published overlay lengths, i.e.
    /// the exact fold boundaries. Batch sizes straddle the
    /// fold boundary and exceed the whole overlay capacity (multiple folds
    /// inside one slice), and batches contain intra-batch duplicates,
    /// overwrites, tombstones and removes of absent keys.
    #[test]
    fn write_batch_matches_pointwise_application_everywhere() {
        use csv_common::rng::SplitMix64;
        let keys = Dataset::Genome.generate(3_000, 77);
        let records = identity_records(&keys);
        let top = *keys.last().unwrap();
        let cfg = config(4).with_overlay_capacity(7);
        let batched = ShardedIndex::<BPlusTree>::bulk_load(&records, cfg);
        let pointwise = ShardedIndex::<BPlusTree>::bulk_load(&records, cfg);
        let mut oracle: BTreeMap<Key, Value> = keys.iter().map(|&k| (k, k)).collect();
        let mut rng = SplitMix64::new(0xBA7C5);
        // 1 and 2 exercise the degenerate sizes, 8 straddles the
        // capacity-7 fold boundary, 64 folds several times per shard
        // slice.
        for (round, &size) in [1usize, 2, 7, 8, 16, 64]
            .iter()
            .cycle()
            .take(120)
            .enumerate()
        {
            let ops: Vec<WriteOp> = (0..size)
                .map(|_| {
                    let pick = rng.next_u64();
                    // A narrow fresh-key band keeps duplicates and
                    // remove-then-reinsert sequences common, inside a
                    // single batch included.
                    let key = if pick.is_multiple_of(2) {
                        keys[(pick / 2) as usize % keys.len()]
                    } else {
                        top + 1 + (pick / 2) % 256
                    };
                    if rng.next_u64().is_multiple_of(3) {
                        WriteOp::Remove { key }
                    } else {
                        WriteOp::Insert {
                            key,
                            value: round as Value,
                        }
                    }
                })
                .collect();
            let outcome = batched.write_batch(&ops);
            let mut expected = BatchOutcome::default();
            for &op in &ops {
                match op {
                    WriteOp::Insert { key, value } => {
                        let fresh = pointwise.insert(key, value);
                        assert_eq!(fresh, oracle.insert(key, value).is_none());
                        expected.fresh_inserts += usize::from(fresh);
                    }
                    WriteOp::Remove { key } => {
                        let removed = pointwise.remove(key);
                        assert_eq!(removed, oracle.remove(&key));
                        expected.removed += usize::from(removed.is_some());
                    }
                }
            }
            assert_eq!(outcome, expected, "outcome diverged in round {round}");
            assert_eq!(batched.len(), oracle.len(), "len diverged in round {round}");
            assert_eq!(
                batched.overlay_lens(),
                pointwise.overlay_lens(),
                "fold boundaries diverged in round {round}"
            );
        }
        for (&k, &v) in &oracle {
            assert_eq!(batched.get(k), Some(v));
        }
        for probe in 0..64u64 {
            let k = top + 1 + probe * 5;
            assert_eq!(batched.get(k), oracle.get(&k).copied());
        }
        let expected: Vec<KeyValue> = oracle.iter().map(|(&k, &v)| KeyValue::new(k, v)).collect();
        assert_eq!(batched.range(0, Key::MAX), expected);
        assert_eq!(
            batched.write_counters(),
            pointwise.write_counters(),
            "staleness counters diverged"
        );
    }

    /// The `insert_batch`/`remove_batch` conveniences report the same
    /// counts their point-wise twins would, and an empty batch is a no-op.
    #[test]
    fn insert_and_remove_batches_count_like_their_pointwise_twins() {
        let keys: Vec<Key> = (0..500).map(|i| i * 4).collect();
        let records = identity_records(&keys);
        let sharded = ShardedIndex::<BPlusTree>::bulk_load(&records, config(3));
        assert_eq!(sharded.write_batch(&[]), BatchOutcome::default());
        assert_eq!(sharded.insert_batch(&[]), 0);
        assert_eq!(sharded.remove_batch(&[]), 0);
        // Loaded keys are the multiples of 4; the batch walks the even
        // numbers, so half are overwrites and only the 10 fresh ones
        // count.
        let batch: Vec<KeyValue> = (0..20).map(|i| KeyValue::new(i * 2 + 990, i)).collect();
        assert_eq!(sharded.insert_batch(&batch), 10);
        for record in &batch {
            assert_eq!(sharded.get(record.key), Some(record.value));
        }
        // 5 present keys + 5 absent ones: only the hits count.
        let targets: Vec<Key> = (0..5)
            .map(|i| i * 2 + 990)
            .chain((0..5).map(|i| 100_000 + i))
            .collect();
        assert_eq!(sharded.remove_batch(&targets), 5);
        assert_eq!(sharded.remove_batch(&targets), 0, "already removed");
    }

    /// Group commits racing shard splits/merges must back off and re-route
    /// like point writes do: no write may land on a retired shard handle
    /// and every acknowledged batch must be fully readable afterwards.
    #[test]
    fn write_batches_survive_concurrent_splits_and_merges() {
        use std::time::Duration;

        #[derive(Clone)]
        struct SlowBulk(BPlusTree);

        impl LearnedIndex for SlowBulk {
            fn name(&self) -> &'static str {
                "SlowBulkBTree"
            }
            fn bulk_load(records: &[KeyValue]) -> Self {
                std::thread::sleep(Duration::from_millis(15));
                Self(BPlusTree::bulk_load(records))
            }
            fn get(&self, key: Key) -> Option<Value> {
                self.0.get(key)
            }
            fn get_counted(
                &self,
                key: Key,
                counters: &mut csv_common::CostCounters,
            ) -> Option<Value> {
                self.0.get_counted(key, counters)
            }
            fn insert(&mut self, key: Key, value: Value) -> bool {
                self.0.insert(key, value)
            }
            fn len(&self) -> usize {
                self.0.len()
            }
            fn stats(&self) -> IndexStats {
                self.0.stats()
            }
            fn level_of_key(&self, key: Key) -> Option<usize> {
                self.0.level_of_key(key)
            }
        }
        impl RangeIndex for SlowBulk {
            fn range(&self, lo: Key, hi: Key) -> Vec<KeyValue> {
                self.0.range(lo, hi)
            }
        }
        impl SnapshotIndex for SlowBulk {}
        impl RemovableIndex for SlowBulk {
            fn remove(&mut self, key: Key) -> Option<Value> {
                self.0.remove(key)
            }
        }

        let keys = Dataset::Osm.generate(6_000, 47);
        let records = identity_records(&keys);
        let sharded = ShardedIndex::<SlowBulk>::bulk_load(&records, config(2));
        let retries_before = RETIRED_RETRIES.load(Ordering::Relaxed);
        let fresh_base = *keys.last().unwrap() + 1;
        const WRITERS: u64 = 3;
        const BATCH: u64 = 16;
        let stop = AtomicBool::new(false);
        let written: Vec<AtomicUsize> = (0..WRITERS).map(|_| AtomicUsize::new(0)).collect();
        crossbeam::thread::scope(|scope| {
            for writer in 0..WRITERS {
                let sharded = &sharded;
                let stop = &stop;
                let written = &written[writer as usize];
                scope.spawn(move |_| {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let ops: Vec<WriteOp> = (0..BATCH)
                            .map(|j| {
                                let k = fresh_base + writer * 1_000_000 + i + j;
                                WriteOp::Insert { key: k, value: k }
                            })
                            .collect();
                        let outcome = sharded.write_batch(&ops);
                        assert_eq!(
                            outcome.fresh_inserts, BATCH as usize,
                            "every batched key is fresh"
                        );
                        i += BATCH;
                        written.store(i as usize, Ordering::Relaxed);
                    }
                });
            }
            // Slow re-layout churn on the shard every batch routes to (all
            // fresh keys are above the loaded range): each split retires
            // the handle mid-storm, forcing the batch path's re-route.
            for _ in 0..8 {
                let last = sharded.num_shards() - 1;
                if sharded.split_shard(last, 2) {
                    assert!(sharded.merge_shards(last, usize::MAX));
                }
            }
            stop.store(true, Ordering::Relaxed);
        })
        .expect("threads must not panic");
        let mut total = 0usize;
        for writer in 0..WRITERS {
            let count = written[writer as usize].load(Ordering::Relaxed);
            assert!(count > 0, "writer {writer} never completed a batch");
            total += count;
            for i in (0..count as u64).step_by(97) {
                let k = fresh_base + writer * 1_000_000 + i;
                assert_eq!(sharded.get(k), Some(k), "lost a batched write");
            }
        }
        assert!(sharded.len() >= keys.len() + total);
        assert!(
            RETIRED_RETRIES.load(Ordering::Relaxed) > retries_before,
            "the slow splits must force at least one retired-handle retry"
        );
    }
}
