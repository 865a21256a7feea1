//! The durability seam of the sharded index.
//!
//! [`ShardedIndex`](crate::ShardedIndex) itself stays storage-agnostic: when
//! a [`DurabilitySink`] is attached, the write path reports
//! every acknowledged point write *before* publishing it, and every fold
//! point — the overlay fold, a maintenance pass, a split/merge re-layout —
//! hands the sink the freshly folded base to checkpoint. The file-backed
//! implementation (per-shard checkpoint + WAL, crash recovery, fault
//! injection) lives in the `csv_durability` crate; keeping only the trait
//! here avoids a dependency cycle and keeps the default in-memory
//! configuration allocation-identical (the hot path pays one `Option`
//! check).
//!
//! The ordering contract is write-ahead: a sink call completes — and has
//! made the write durable to the sink's own standard — before the
//! corresponding snapshot is published. A write acknowledged to a caller is
//! therefore always recoverable, and recovery can never observe state that
//! was not yet readable ("no silent data invention").

use csv_common::{Key, KeyValue, Value};

/// Per-shard staleness bookkeeping persisted alongside a checkpoint so a
/// recovered index re-arms its maintenance engine instead of restarting the
/// adaptive loop from scratch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaleSeed {
    /// Structural writes since the shard's last maintenance pass.
    pub writes: usize,
    /// Whether the shard has ever completed a maintenance pass.
    pub maintained: bool,
    /// Mean key level at the last maintenance pass (meaningless until
    /// `maintained`).
    pub mean_level: f64,
}

impl StaleSeed {
    /// The seed of a freshly bulk-loaded shard: never maintained, every key
    /// counted as an unapplied write (matching
    /// `StaleCounters::seeded`).
    pub fn fresh(len: usize) -> Self {
        Self {
            writes: len,
            maintained: false,
            mean_level: 0.0,
        }
    }
}

/// One shard's content and bookkeeping at a checkpoint: everything recovery
/// needs to rebuild the shard exactly.
#[derive(Debug, Clone)]
pub struct ShardCheckpoint {
    /// Smallest key routed to the shard (the shard's stable identity across
    /// checkpoints; only a split/merge changes the set of lower bounds).
    pub lower_bound: Key,
    /// Every live record of the folded base, ascending.
    pub records: Vec<KeyValue>,
    /// Staleness bookkeeping to re-arm on recovery.
    pub stale: StaleSeed,
    /// Acknowledged writes this checkpoint absorbs that were *not*
    /// individually logged: 1 for a fold (the triggering write lands in the
    /// folded base directly), 0 for maintenance/split/merge checkpoints.
    /// Sinks that sequence-number their logs advance the shard's sequence
    /// by this amount so "last durable sequence" counts every acknowledged
    /// write exactly once.
    pub absorbed: u64,
}

/// One acknowledged write of a group-committed batch, as reported to the
/// sink by [`ShardedIndex::write_batch`](crate::ShardedIndex::write_batch):
/// an upsert (`Some`) or a tombstone (`None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteRecord {
    /// The written key.
    pub key: Key,
    /// The written slot: `Some` upsert, `None` tombstone.
    pub value: Option<Value>,
}

/// Where the sharded index reports writes and fold points. Implementations
/// must be thread-safe: different shards checkpoint and log concurrently
/// (each shard's own calls are serialized by its writer mutex).
///
/// Implementations signal unrecoverable I/O failure by panicking: the write
/// path has already promised durability to its caller, so a sink that can
/// no longer keep that promise must not let the process keep acknowledging
/// writes. The maintenance engine surfaces such panics through
/// [`MaintenanceHandle::shutdown`](crate::MaintenanceHandle::shutdown).
pub trait DurabilitySink: Send + Sync {
    /// Appends one acknowledged point write — an upsert (`Some`) or a
    /// tombstone (`None`) — to the log of the shard whose lower bound is
    /// `shard`. Called before the write's snapshot is published.
    fn log_write(&self, shard: Key, key: Key, value: Option<Value>);

    /// Appends a whole group-committed batch of writes to `shard`'s log.
    /// Called before the batch's (single) snapshot publication, so the
    /// write-ahead contract covers every record of the group at once; the
    /// group must become durable all-or-nothing — recovery may not replay a
    /// proper subset of it. The default loops [`DurabilitySink::log_write`]
    /// (each record is its own durable unit, which trivially satisfies the
    /// contract for in-memory sinks); file-backed sinks should override
    /// this with a single framed append.
    fn log_writes(&self, shard: Key, records: &[WriteRecord]) {
        for record in records {
            self.log_write(shard, record.key, record.value);
        }
    }

    /// Persists a shard's freshly folded base atomically and truncates its
    /// log. Called before the folded snapshot is published.
    fn checkpoint(&self, checkpoint: &ShardCheckpoint);

    /// Atomically replaces shards in the durable layout: `created` are
    /// checkpointed (reusing a live lower bound supersedes that shard),
    /// `retired` lower bounds are dropped. Covers bulk load (everything
    /// created), splits (two created over one range) and merges (one
    /// created, the right neighbour retired). Called before the new layout
    /// is published.
    fn replace_shards(&self, retired: &[Key], created: &[ShardCheckpoint]);

    /// Log records accumulated since the shard's last checkpoint — the
    /// maintenance engine's checkpoint-tick trigger.
    fn backlog(&self, shard: Key) -> u64;
}

/// One shard's recovered state, produced by a durability implementation and
/// consumed by
/// [`ShardedIndex::from_recovered`](crate::ShardedIndex::from_recovered).
#[derive(Debug, Clone)]
pub struct RecoveredShard {
    /// The shard's lower bound as persisted.
    pub lower_bound: Key,
    /// The shard's records: checkpoint contents with the durable log prefix
    /// replayed, ascending and de-duplicated.
    pub records: Vec<KeyValue>,
    /// Staleness bookkeeping: the checkpointed seed plus the structural
    /// effect of the replayed log records.
    pub stale: StaleSeed,
}
