//! Crash-safe durability for the sharded CSV-maintained index.
//!
//! This crate is the file-backed implementation of the `DurabilitySink`
//! seam that `csv_concurrent` exposes on its RCU write path. Each shard
//! gets two files: a **checkpoint** — its folded base, written atomically
//! at the fold points the index already pays for (overlay fold,
//! maintenance pass, split/merge) — and a **write-ahead log** of the point
//! writes since, appended before each write's snapshot is published. A
//! `MANIFEST` names which epoch of each pair is live. After a crash,
//! [`recover`] rebuilds the index from checkpoints plus
//! the longest valid WAL prefixes, tolerating torn and corrupt tails
//! without ever replaying unacknowledged data, and re-arms the maintenance
//! engine's staleness counters so the adaptive loop resumes warm.
//!
//! The [`fault`] module is the testing half of the design: a file handle
//! that tears, truncates and bit-flips on command, driving the
//! crash-recovery property tests in `tests/crash_recovery.rs`.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod fault;
pub mod manifest;
pub mod store;
pub mod wal;

pub use checkpoint::{read_checkpoint, write_checkpoint, Checkpoint};
pub use fault::{Fault, FaultFile};
pub use manifest::{read_manifest, write_manifest, ManifestEntries, MANIFEST_NAME};
pub use store::{
    recover, DurabilityConfig, DurabilityError, FileSink, FsyncPolicy, Recovered, RecoveryReport,
    ShardRecovery, SinkStats,
};
pub use wal::{read_wal, WalEnd, WalRecord, WalReplay, WalWriter};

/// A unique, empty temp directory for one test.
#[cfg(test)]
pub(crate) fn test_dir(tag: &str) -> std::path::PathBuf {
    use csv_common::sync::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("csv-durability-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating the test dir");
    dir
}
