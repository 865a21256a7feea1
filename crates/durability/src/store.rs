//! The file-backed durability store: [`FileSink`] implements the sharded
//! index's [`DurabilitySink`] seam over per-shard checkpoint + WAL files,
//! and [`recover`] rebuilds a [`ShardedIndex`] from a data directory after
//! a crash.
//!
//! On-disk layout (all inside [`DurabilityConfig::data_dir`]):
//!
//! ```text
//! MANIFEST            which (lower_bound, epoch) pairs are live
//! ckpt-<epoch>.ckpt   one shard's folded base at that epoch
//! wal-<epoch>.wal     that shard's writes since the checkpoint
//! ```
//!
//! Epoch files are immutable once the manifest references them. Every
//! checkpoint opens a *new* epoch: write the new checkpoint file, open a
//! fresh (empty) WAL sequenced from the checkpoint's last sequence, replace
//! the manifest atomically, then delete the superseded epoch's files. A
//! crash between any two of those steps leaves a recoverable store — the
//! old manifest still points at the old checkpoint and its complete WAL,
//! and replay over the old checkpoint reproduces exactly the folded state
//! (records are absolute, so replay is idempotent). Stray files from the
//! interrupted transition are garbage-collected by the next transition.
//!
//! [`FileSink`] methods panic on unrecoverable I/O failure: by the time the
//! sink is called the index is about to acknowledge the write, and a sink
//! that cannot persist it must not let the process keep promising
//! durability. The maintenance engine catches and surfaces such panics (see
//! `MaintenanceHandle::shutdown`).

use crate::checkpoint::{read_checkpoint, write_checkpoint_parts};
use crate::fault::Fault;
use crate::manifest::{read_manifest, write_manifest, ManifestEntries, MANIFEST_NAME};
use crate::wal::{read_wal, WalEnd, WalWriter};
use csv_common::sync::{AtomicU64, Mutex, MutexGuard, Ordering};
use csv_common::{Key, KeyValue, LearnedIndex, RangeIndex, Value};
use csv_concurrent::{
    DurabilitySink, RecoveredShard, ShardCheckpoint, ShardedIndex, ShardingConfig, StaleSeed,
    WriteRecord,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// When the write-ahead log is flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Fsync after every appended record: power-loss durability per
    /// acknowledged write, at the cost of one fsync per write.
    Always,
    /// Fsync only at checkpoints (the default): a crash loses at most the
    /// OS-buffered log tail, which replay degrades past safely; an orderly
    /// process exit loses nothing.
    #[default]
    OnCheckpoint,
    /// Never fsync (benchmarks measuring CPU overhead, not durability).
    Never,
}

/// Configuration for a file-backed durability store.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the manifest, checkpoints and logs.
    pub data_dir: PathBuf,
    /// When WAL appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Fault injected into every WAL file the store opens (crash tests
    /// only).
    pub wal_fault: Option<Fault>,
}

impl DurabilityConfig {
    /// A config over `data_dir` with the default fsync policy and no
    /// injected faults.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        Self {
            data_dir: data_dir.into(),
            fsync: FsyncPolicy::default(),
            wal_fault: None,
        }
    }

    /// The same config with the given fsync policy.
    pub fn with_fsync(self, fsync: FsyncPolicy) -> Self {
        Self { fsync, ..self }
    }

    /// The same config with a fault injected into every WAL the store
    /// opens.
    pub fn with_wal_fault(self, fault: Fault) -> Self {
        Self {
            wal_fault: Some(fault),
            ..self
        }
    }
}

/// Everything that can go wrong opening or recovering a store.
#[derive(Debug)]
pub enum DurabilityError {
    /// An I/O operation failed.
    Io {
        /// What the store was doing.
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// [`recover`] was pointed at a directory with no manifest.
    NotInitialized(PathBuf),
    /// [`FileSink::create`] was pointed at a directory that already holds a
    /// store (recover it instead of overwriting it).
    AlreadyInitialized(PathBuf),
    /// The manifest failed verification. Manifests are written atomically,
    /// so this means media failure, not a crash window.
    CorruptManifest(String),
    /// A checkpoint referenced by the manifest failed verification.
    CorruptCheckpoint {
        /// The offending file.
        path: PathBuf,
        /// What failed.
        reason: String,
    },
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io { context, source } => write!(f, "i/o error {context}: {source}"),
            DurabilityError::NotInitialized(dir) => {
                write!(f, "no durability store in {}", dir.display())
            }
            DurabilityError::AlreadyInitialized(dir) => write!(
                f,
                "{} already holds a durability store; recover it instead",
                dir.display()
            ),
            DurabilityError::CorruptManifest(reason) => {
                write!(f, "corrupt manifest: {reason}")
            }
            DurabilityError::CorruptCheckpoint { path, reason } => {
                write!(f, "corrupt checkpoint {}: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// One shard's live log state inside the sink.
#[derive(Debug)]
struct ShardLog {
    /// The shard's current epoch (names its checkpoint and WAL files).
    epoch: u64,
    /// Last durable sequence number.
    seq: u64,
    /// Records appended since the last checkpoint.
    backlog: u64,
    /// The open WAL. `None` between recovery and the re-checkpoint that
    /// [`ShardedIndex::from_recovered`] performs immediately — no
    /// `log_write` can arrive in that window because the index is not yet
    /// constructed.
    writer: Option<WalWriter>,
}

#[derive(Debug)]
struct SinkState {
    /// Next epoch number to allocate (strictly above every epoch on disk).
    next_epoch: u64,
    /// Live shards by lower bound.
    shards: BTreeMap<Key, ShardLog>,
}

/// Cumulative counters for reporting ([`FileSink::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkStats {
    /// Checkpoint files written (including bulk load and recovery).
    pub checkpoints: u64,
    /// WAL records appended.
    pub wal_records: u64,
}

/// The file-backed [`DurabilitySink`]. Create one with [`FileSink::create`]
/// (fresh store) or get one back from [`recover`] (existing store), wrap it
/// in an [`Arc`], and hand it to `ShardedIndex::bulk_load_durable` /
/// `from_recovered`.
pub struct FileSink {
    config: DurabilityConfig,
    state: Mutex<SinkState>,
    checkpoints: AtomicU64,
    wal_records: AtomicU64,
}

impl fmt::Debug for FileSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileSink")
            .field("data_dir", &self.config.data_dir)
            .field("fsync", &self.config.fsync)
            .finish_non_exhaustive()
    }
}

/// Unwraps a sink-internal I/O result; failure panics with context (see the
/// module docs for why the sink cannot return errors to the write path).
fn fatal<T>(result: io::Result<T>, context: &str) -> T {
    result.unwrap_or_else(|e| panic!("durability sink failed while {context}: {e}"))
}

impl FileSink {
    /// Opens a *fresh* store in `config.data_dir`, creating the directory
    /// if needed. Fails with [`DurabilityError::AlreadyInitialized`] when a
    /// manifest is already present.
    pub fn create(config: DurabilityConfig) -> Result<Self, DurabilityError> {
        std::fs::create_dir_all(&config.data_dir).map_err(|source| DurabilityError::Io {
            context: format!("creating data dir {}", config.data_dir.display()),
            source,
        })?;
        if config.data_dir.join(MANIFEST_NAME).exists() {
            return Err(DurabilityError::AlreadyInitialized(config.data_dir.clone()));
        }
        Ok(Self::with_state(config, 1, BTreeMap::new()))
    }

    fn with_state(
        config: DurabilityConfig,
        next_epoch: u64,
        shards: BTreeMap<Key, ShardLog>,
    ) -> Self {
        Self {
            config,
            state: Mutex::new(SinkState { next_epoch, shards }),
            checkpoints: AtomicU64::new(0),
            wal_records: AtomicU64::new(0),
        }
    }

    /// Cumulative I/O counters.
    pub fn stats(&self) -> SinkStats {
        SinkStats {
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            wal_records: self.wal_records.load(Ordering::Relaxed),
        }
    }

    /// The store's data directory.
    pub fn data_dir(&self) -> &Path {
        &self.config.data_dir
    }

    fn lock(&self) -> MutexGuard<'_, SinkState> {
        self.state.lock()
    }

    fn ckpt_path(&self, epoch: u64) -> PathBuf {
        self.config.data_dir.join(format!("ckpt-{epoch}.ckpt"))
    }

    fn wal_path(&self, epoch: u64) -> PathBuf {
        self.config.data_dir.join(format!("wal-{epoch}.wal"))
    }

    fn manifest_path(&self) -> PathBuf {
        self.config.data_dir.join(MANIFEST_NAME)
    }

    /// The durable layout transition shared by `checkpoint` and
    /// `replace_shards`: write each created shard's checkpoint + fresh WAL
    /// under a new epoch, drop retired shards, atomically republish the
    /// manifest, then garbage-collect everything it no longer references.
    fn transition(
        &self,
        state: &mut SinkState,
        retired: &[Key],
        created: &[ShardCheckpoint],
    ) -> io::Result<()> {
        for checkpoint in created {
            let epoch = state.next_epoch;
            state.next_epoch += 1;
            let prev_seq = state
                .shards
                .get(&checkpoint.lower_bound)
                .map_or(0, |log| log.seq);
            let last_seq = prev_seq + checkpoint.absorbed;
            write_checkpoint_parts(
                &self.ckpt_path(epoch),
                checkpoint.lower_bound,
                last_seq,
                checkpoint.stale,
                &checkpoint.records,
            )?;
            let writer = WalWriter::create(&self.wal_path(epoch), last_seq, self.config.wal_fault)?;
            state.shards.insert(
                checkpoint.lower_bound,
                ShardLog {
                    epoch,
                    seq: last_seq,
                    backlog: 0,
                    writer: Some(writer),
                },
            );
            self.checkpoints.fetch_add(1, Ordering::Relaxed);
        }
        for lower in retired {
            state.shards.remove(lower);
        }
        let entries: ManifestEntries = state
            .shards
            .iter()
            .map(|(&lower, log)| (lower, log.epoch))
            .collect();
        write_manifest(&self.manifest_path(), &entries)?;
        self.collect_garbage(state)
    }

    /// Deletes epoch files the manifest no longer references, plus stray
    /// temp files from interrupted atomic writes. Failure to delete is not
    /// fatal — stray files are re-collected on the next transition.
    fn collect_garbage(&self, state: &SinkState) -> io::Result<()> {
        let live: BTreeSet<u64> = state.shards.values().map(|log| log.epoch).collect();
        for entry in std::fs::read_dir(&self.config.data_dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale = match parse_epoch_file(name) {
                Some(epoch) => !live.contains(&epoch),
                None => name.ends_with(".tmp"),
            };
            if stale {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        Ok(())
    }
}

/// Parses `ckpt-<epoch>.ckpt` / `wal-<epoch>.wal` file names.
fn parse_epoch_file(name: &str) -> Option<u64> {
    let epoch = name
        .strip_prefix("ckpt-")
        .and_then(|rest| rest.strip_suffix(".ckpt"))
        .or_else(|| {
            name.strip_prefix("wal-")
                .and_then(|rest| rest.strip_suffix(".wal"))
        })?;
    epoch.parse().ok()
}

impl DurabilitySink for FileSink {
    fn log_write(&self, shard: Key, key: Key, value: Option<Value>) {
        let mut state = self.lock();
        let log = state
            .shards
            .get_mut(&shard)
            .expect("log_write for a shard the sink has never checkpointed");
        let writer = log
            .writer
            .as_mut()
            .expect("log_write before the recovered shard was re-checkpointed");
        let seq = fatal(writer.append(key, value), "appending to the shard log");
        if self.config.fsync == FsyncPolicy::Always {
            fatal(writer.sync(), "syncing the shard log");
        }
        log.seq = seq;
        log.backlog += 1;
        self.wal_records.fetch_add(1, Ordering::Relaxed);
    }

    fn log_writes(&self, shard: Key, records: &[WriteRecord]) {
        if records.is_empty() {
            return;
        }
        let mut state = self.lock();
        let log = state
            .shards
            .get_mut(&shard)
            .expect("log_writes for a shard the sink has never checkpointed");
        let writer = log
            .writer
            .as_mut()
            .expect("log_writes before the recovered shard was re-checkpointed");
        let seq = fatal(
            writer.append_batch(records),
            "appending a group commit to the shard log",
        );
        if self.config.fsync == FsyncPolicy::Always {
            fatal(writer.sync(), "syncing the shard log");
        }
        log.seq = seq;
        log.backlog += records.len() as u64;
        self.wal_records
            .fetch_add(records.len() as u64, Ordering::Relaxed);
    }

    fn checkpoint(&self, checkpoint: &ShardCheckpoint) {
        let mut state = self.lock();
        fatal(
            self.transition(&mut state, &[], std::slice::from_ref(checkpoint)),
            "checkpointing a shard",
        );
    }

    fn replace_shards(&self, retired: &[Key], created: &[ShardCheckpoint]) {
        let mut state = self.lock();
        fatal(
            self.transition(&mut state, retired, created),
            "replacing shards in the durable layout",
        );
    }

    fn backlog(&self, shard: Key) -> u64 {
        self.lock().shards.get(&shard).map_or(0, |log| log.backlog)
    }
}

/// How one shard's recovery went.
#[derive(Debug, Clone)]
pub struct ShardRecovery {
    /// The shard's lower bound.
    pub lower_bound: Key,
    /// WAL records replayed over the checkpoint.
    pub replayed: u64,
    /// The shard's last durable sequence number after replay.
    pub last_seq: u64,
    /// How the shard's WAL ended (anything but `Clean` means the tail was
    /// degraded past — expected after a crash, alarming after an orderly
    /// shutdown).
    pub wal_end: WalEnd,
}

/// What [`recover`] did, for operator reporting.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Per-shard outcomes, sorted by lower bound.
    pub shards: Vec<ShardRecovery>,
    /// Total live keys in the recovered index.
    pub keys: usize,
    /// Wall-clock recovery time, measured up to (not including) the
    /// re-checkpoint that re-opens the store for writing.
    pub elapsed: Duration,
}

impl RecoveryReport {
    /// Total WAL records replayed across shards.
    pub fn replayed(&self) -> u64 {
        self.shards.iter().map(|shard| shard.replayed).sum()
    }

    /// Shards whose WAL did not end cleanly.
    pub fn torn_shards(&self) -> usize {
        self.shards
            .iter()
            .filter(|shard| shard.wal_end.is_torn())
            .count()
    }
}

/// A recovered store: the rebuilt index (durability re-attached), the sink
/// backing it, and a report of what replay found.
pub struct Recovered<I> {
    /// The rebuilt index, already re-checkpointed under fresh epochs.
    pub index: ShardedIndex<I>,
    /// The sink backing `index` (for [`FileSink::stats`]).
    pub sink: Arc<FileSink>,
    /// What recovery did.
    pub report: RecoveryReport,
}

/// Rebuilds a [`ShardedIndex`] from the store in `config.data_dir`.
///
/// For every shard in the manifest: load and verify its checkpoint (a
/// corrupt checkpoint is fatal — it is the shard's base state), then replay
/// the longest valid prefix of its WAL (a torn or corrupt tail is degraded
/// past silently — those records were never acknowledged as durable, or fell
/// inside the crash window). Staleness counters are re-armed from the
/// checkpointed seed plus the structural effect of replay, so the
/// maintenance engine resumes its adaptive loop instead of restarting cold.
///
/// The recovered state is immediately re-checkpointed under fresh epochs
/// (via `ShardedIndex::from_recovered`), so the returned index's sink is
/// fully armed: WALs open, old epochs collected.
pub fn recover<I: LearnedIndex + RangeIndex>(
    config: DurabilityConfig,
    sharding: ShardingConfig,
) -> Result<Recovered<I>, DurabilityError> {
    let started = Instant::now();
    let manifest_path = config.data_dir.join(MANIFEST_NAME);
    let Some(entries) = read_manifest(&manifest_path)? else {
        return Err(DurabilityError::NotInitialized(config.data_dir.clone()));
    };
    if entries.is_empty() {
        return Err(DurabilityError::CorruptManifest(format!(
            "{}: no shards",
            manifest_path.display()
        )));
    }
    // Stray epoch files from an interrupted transition may outnumber the
    // manifest's: the next epoch must clear them all.
    let mut max_epoch = entries.iter().map(|&(_, epoch)| epoch).max().unwrap_or(0);
    if let Ok(dir) = std::fs::read_dir(&config.data_dir) {
        for entry in dir.flatten() {
            if let Some(epoch) = entry.file_name().to_str().and_then(parse_epoch_file) {
                max_epoch = max_epoch.max(epoch);
            }
        }
    }
    let mut shards = Vec::with_capacity(entries.len());
    let mut logs = BTreeMap::new();
    let mut report_shards = Vec::with_capacity(entries.len());
    let mut keys = 0usize;
    for &(lower, epoch) in &entries {
        let ckpt_path = config.data_dir.join(format!("ckpt-{epoch}.ckpt"));
        let checkpoint = read_checkpoint(&ckpt_path)?;
        if checkpoint.lower_bound != lower {
            return Err(DurabilityError::CorruptCheckpoint {
                path: ckpt_path,
                reason: format!(
                    "lower bound {} disagrees with manifest entry {lower}",
                    checkpoint.lower_bound
                ),
            });
        }
        let wal_path = config.data_dir.join(format!("wal-{epoch}.wal"));
        let replay = read_wal(&wal_path).map_err(|source| DurabilityError::Io {
            context: format!("reading log {}", wal_path.display()),
            source,
        })?;
        let mut map: BTreeMap<Key, Value> = checkpoint
            .records
            .iter()
            .map(|record| (record.key, record.value))
            .collect();
        let mut end = replay.end;
        let mut structural = 0usize;
        let mut replayed = 0u64;
        let header_usable = !matches!(replay.end, WalEnd::Missing | WalEnd::CorruptHeader);
        if header_usable && replay.start_seq != checkpoint.last_seq {
            // The log belongs to a different incarnation of the shard than
            // the checkpoint claims; trusting it could invent data.
            end = WalEnd::CorruptHeader;
        } else {
            for record in &replay.records {
                replayed += 1;
                let changed = match record.value {
                    Some(value) => map.insert(record.key, value).is_none(),
                    None => map.remove(&record.key).is_some(),
                };
                structural += usize::from(changed);
            }
        }
        let last_seq = checkpoint.last_seq + replayed;
        keys += map.len();
        shards.push(RecoveredShard {
            lower_bound: lower,
            records: map
                .into_iter()
                .map(|(key, value)| KeyValue::new(key, value))
                .collect(),
            stale: StaleSeed {
                writes: checkpoint.stale.writes + structural,
                maintained: checkpoint.stale.maintained,
                mean_level: checkpoint.stale.mean_level,
            },
        });
        logs.insert(
            lower,
            ShardLog {
                epoch,
                seq: last_seq,
                backlog: 0,
                // Re-opened by the re-checkpoint below; the index does not
                // exist yet, so no log_write can race this window.
                writer: None,
            },
        );
        report_shards.push(ShardRecovery {
            lower_bound: lower,
            replayed,
            last_seq,
            wal_end: end,
        });
    }
    let report = RecoveryReport {
        shards: report_shards,
        keys,
        elapsed: started.elapsed(),
    };
    let sink = Arc::new(FileSink::with_state(config, max_epoch + 1, logs));
    let index = ShardedIndex::from_recovered(shards, sharding, Some(sink.clone()));
    Ok(Recovered {
        index,
        sink,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;
    use csv_btree::BPlusTree;

    fn sample_records(n: u64) -> Vec<KeyValue> {
        (0..n).map(|i| KeyValue::new(i * 10, i)).collect()
    }

    fn sharding(shards: usize) -> ShardingConfig {
        ShardingConfig::with_shards(shards)
    }

    #[test]
    fn create_then_recover_roundtrips_bulk_state() {
        let dir = test_dir("store-roundtrip");
        let records = sample_records(500);
        {
            let sink = Arc::new(FileSink::create(DurabilityConfig::new(&dir)).unwrap());
            let index: ShardedIndex<BPlusTree> =
                ShardedIndex::bulk_load_durable(&records, sharding(4), sink);
            drop(index); // crash: no orderly shutdown exists, none is needed
        }
        let recovered: Recovered<BPlusTree> =
            recover(DurabilityConfig::new(&dir), sharding(4)).unwrap();
        assert_eq!(recovered.report.keys, 500);
        assert_eq!(recovered.report.replayed(), 0);
        assert_eq!(recovered.report.torn_shards(), 0);
        for record in &records {
            assert_eq!(recovered.index.get(record.key), Some(record.value));
        }
        assert_eq!(recovered.index.range(0, Key::MAX), records);
    }

    #[test]
    fn logged_writes_survive_a_crash() {
        let dir = test_dir("store-wal-replay");
        {
            let sink = Arc::new(FileSink::create(DurabilityConfig::new(&dir)).unwrap());
            let index: ShardedIndex<BPlusTree> =
                ShardedIndex::bulk_load_durable(&sample_records(100), sharding(2), sink);
            index.insert(5, 555);
            index.insert(990, 999);
            assert!(index.remove(500).is_some());
            drop(index);
        }
        let recovered: Recovered<BPlusTree> =
            recover(DurabilityConfig::new(&dir), sharding(2)).unwrap();
        assert!(recovered.report.replayed() >= 3);
        assert_eq!(recovered.index.get(5), Some(555));
        assert_eq!(recovered.index.get(990), Some(999));
        assert_eq!(recovered.index.get(500), None);
        // 100 bulk keys, plus new key 5, minus removed key 500 (990 was an
        // overwrite).
        assert_eq!(recovered.report.keys, 100);
    }

    #[test]
    fn recovering_twice_is_stable() {
        let dir = test_dir("store-twice");
        {
            let sink = Arc::new(FileSink::create(DurabilityConfig::new(&dir)).unwrap());
            let index: ShardedIndex<BPlusTree> =
                ShardedIndex::bulk_load_durable(&sample_records(64), sharding(2), sink);
            index.insert(1, 11);
        }
        let first: Recovered<BPlusTree> =
            recover(DurabilityConfig::new(&dir), sharding(2)).unwrap();
        let state = first.index.range(0, Key::MAX);
        drop(first);
        let second: Recovered<BPlusTree> =
            recover(DurabilityConfig::new(&dir), sharding(2)).unwrap();
        assert_eq!(second.index.range(0, Key::MAX), state);
        assert_eq!(second.report.replayed(), 0, "re-checkpoint left no backlog");
    }

    #[test]
    fn create_refuses_an_existing_store() {
        let dir = test_dir("store-exists");
        {
            let sink = Arc::new(FileSink::create(DurabilityConfig::new(&dir)).unwrap());
            let _index: ShardedIndex<BPlusTree> =
                ShardedIndex::bulk_load_durable(&sample_records(10), sharding(1), sink);
        }
        assert!(matches!(
            FileSink::create(DurabilityConfig::new(&dir)),
            Err(DurabilityError::AlreadyInitialized(_))
        ));
    }

    #[test]
    fn recover_refuses_an_empty_directory() {
        let dir = test_dir("store-empty");
        assert!(matches!(
            recover::<BPlusTree>(DurabilityConfig::new(&dir), sharding(1)),
            Err(DurabilityError::NotInitialized(_))
        ));
    }

    #[test]
    fn checkpoints_truncate_the_log_and_collect_old_epochs() {
        let dir = test_dir("store-gc");
        let sink = Arc::new(FileSink::create(DurabilityConfig::new(&dir)).unwrap());
        let index: ShardedIndex<BPlusTree> =
            ShardedIndex::bulk_load_durable(&sample_records(100), sharding(1), sink.clone());
        for i in 0..10u64 {
            index.insert(i * 10 + 1, i);
        }
        assert_eq!(sink.backlog(0), 10);
        let retired = index.checkpoint_shard(0).expect("backlog to retire");
        assert_eq!(retired, 10);
        assert_eq!(sink.backlog(0), 0);
        // Exactly one live epoch pair (plus the manifest) remains on disk.
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names.len(), 3, "unexpected files: {names:?}");
        assert!(names.contains(&MANIFEST_NAME.to_string()));
    }

    #[test]
    fn splits_and_merges_transition_the_manifest() {
        let dir = test_dir("store-split-merge");
        let sink = Arc::new(FileSink::create(DurabilityConfig::new(&dir)).unwrap());
        let index: ShardedIndex<BPlusTree> =
            ShardedIndex::bulk_load_durable(&sample_records(200), sharding(2), sink.clone());
        assert!(index.split_shard(0, 2));
        let entries = read_manifest(&dir.join(MANIFEST_NAME)).unwrap().unwrap();
        assert_eq!(entries.len(), 3);
        assert!(index.merge_shards(0, usize::MAX));
        let entries = read_manifest(&dir.join(MANIFEST_NAME)).unwrap().unwrap();
        assert_eq!(entries.len(), 2);
        // The durable layout still recovers to the full key set.
        drop(index);
        drop(sink);
        let recovered: Recovered<BPlusTree> =
            recover(DurabilityConfig::new(&dir), sharding(2)).unwrap();
        assert_eq!(recovered.index.range(0, Key::MAX), sample_records(200));
    }
}
