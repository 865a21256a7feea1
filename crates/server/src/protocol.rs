//! The request/response vocabulary of the serving protocol.
//!
//! Frames on the wire are length-prefixed and CRC-checked (see
//! [`codec`](crate::codec) for the byte layout); this module defines what a
//! decoded frame *means*. The operation set mirrors the sharded index's
//! public surface: point reads (single and batched, so the server can use
//! the predict-then-resolve [`multi_get`] path), range scans, the durable
//! write path, and two control operations (`Stats`, `Shutdown`).
//!
//! [`multi_get`]: csv_concurrent::ShardedIndex::multi_get

use csv_common::key::{Key, KeyValue, Value};

/// Hard ceiling on a frame's payload length. A header declaring more is
/// rejected as [`Oversized`](crate::errors::ProtocolError::Oversized)
/// before any allocation happens, so a hostile 4 GiB length prefix costs
/// the server nothing.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Frame header size: `u32` payload length + `u32` CRC-32 of the payload.
pub const HEADER_LEN: usize = 8;

/// Request opcodes (first payload byte, `0x01..`).
pub mod opcode {
    /// [`Request::Get`](super::Request::Get).
    pub const GET: u8 = 0x01;
    /// [`Request::MultiGet`](super::Request::MultiGet).
    pub const MULTI_GET: u8 = 0x02;
    /// [`Request::Range`](super::Request::Range).
    pub const RANGE: u8 = 0x03;
    /// [`Request::Insert`](super::Request::Insert).
    pub const INSERT: u8 = 0x04;
    /// [`Request::Remove`](super::Request::Remove).
    pub const REMOVE: u8 = 0x05;
    /// [`Request::WriteBatch`](super::Request::WriteBatch).
    pub const WRITE_BATCH: u8 = 0x06;
    /// [`Request::Stats`](super::Request::Stats).
    pub const STATS: u8 = 0x07;
    /// [`Request::Shutdown`](super::Request::Shutdown).
    pub const SHUTDOWN: u8 = 0x08;

    /// [`Response::Value`](super::Response::Value).
    pub const R_VALUE: u8 = 0x81;
    /// [`Response::Values`](super::Response::Values).
    pub const R_VALUES: u8 = 0x82;
    /// [`Response::Records`](super::Response::Records).
    pub const R_RECORDS: u8 = 0x83;
    /// [`Response::Inserted`](super::Response::Inserted).
    pub const R_INSERTED: u8 = 0x84;
    /// [`Response::Removed`](super::Response::Removed).
    pub const R_REMOVED: u8 = 0x85;
    /// [`Response::BatchApplied`](super::Response::BatchApplied).
    pub const R_BATCH: u8 = 0x86;
    /// [`Response::Stats`](super::Response::Stats).
    pub const R_STATS: u8 = 0x87;
    /// [`Response::ShuttingDown`](super::Response::ShuttingDown).
    pub const R_SHUTDOWN: u8 = 0x88;
    /// [`Response::Error`](super::Response::Error).
    pub const R_ERROR: u8 = 0x89;
}

/// One write inside a [`Request::WriteBatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOp {
    /// Insert or overwrite `key`.
    Insert {
        /// The key to write.
        key: Key,
        /// The value to store.
        value: Value,
    },
    /// Remove `key` if present.
    Remove {
        /// The key to remove.
        key: Key,
    },
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Point lookup of one key.
    Get {
        /// The key to look up.
        key: Key,
    },
    /// Batched point lookup: the server routes the whole batch through the
    /// shard layout once (predict the batch, then resolve shard by shard)
    /// instead of N independent traversals.
    MultiGet {
        /// The keys to look up; results come back in the same order.
        keys: Vec<Key>,
    },
    /// Range scan over `[lo, hi]`, truncated to `limit` records
    /// (`limit == 0` means unlimited).
    Range {
        /// Inclusive lower bound.
        lo: Key,
        /// Inclusive upper bound.
        hi: Key,
        /// Maximum records to return (0 = all).
        limit: u32,
    },
    /// Insert or overwrite one key.
    Insert {
        /// The key to write.
        key: Key,
        /// The value to store.
        value: Value,
    },
    /// Remove one key.
    Remove {
        /// The key to remove.
        key: Key,
    },
    /// Apply a sequence of writes in order on one connection.
    WriteBatch {
        /// The writes, applied front to back.
        ops: Vec<WriteOp>,
    },
    /// Ask for a [`ServerStats`] snapshot.
    Stats,
    /// Ask the whole server (acceptor, every worker, the optional
    /// maintenance engine) to shut down cleanly.
    Shutdown,
}

/// A point-in-time statistics snapshot served by [`Request::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Live keys in the index.
    pub keys: u64,
    /// Current shard count.
    pub shards: u32,
    /// Worker threads serving connections.
    pub workers: u32,
    /// Always `true`: reads go through lock-free RCU snapshots, the only
    /// read path. The field stays on the wire so the `Stats` frame layout
    /// is unchanged.
    pub rcu: bool,
    /// Connections accepted since the server started.
    pub connections: u64,
    /// Operations completed since the server started (each batch entry
    /// counts once).
    pub ops: u64,
    /// `true` while the background maintenance engine is attached and has
    /// not recorded a panic; also `true` when no engine is attached (there
    /// is nothing to be unhealthy).
    pub engine_healthy: bool,
    /// `true` when a maintenance engine is running behind the socket.
    pub maintenance: bool,
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Get`].
    Value(Option<Value>),
    /// Answer to [`Request::MultiGet`], in request order.
    Values(Vec<Option<Value>>),
    /// Answer to [`Request::Range`].
    Records {
        /// The records, ascending by key.
        records: Vec<KeyValue>,
        /// `true` when the server cut the scan at the frame cap
        /// ([`MAX_FRAME_LEN`]) before the range (or the requested limit)
        /// was exhausted; the returned records are a complete prefix.
        /// Reaching the requested `limit` is *not* truncation.
        truncated: bool,
    },
    /// Answer to [`Request::Insert`]: `true` when the key was new.
    Inserted(bool),
    /// Answer to [`Request::Remove`]: the removed value, if any.
    Removed(Option<Value>),
    /// Answer to [`Request::WriteBatch`]: how many inserts created new
    /// keys and how many removes found theirs.
    BatchApplied {
        /// Inserts that created a new key.
        fresh_inserts: u32,
        /// Removes that found their key.
        hits: u32,
    },
    /// Answer to [`Request::Stats`].
    Stats(ServerStats),
    /// Answer to [`Request::Shutdown`], sent before the server stops.
    ShuttingDown,
    /// The request decoded but could not be served.
    Error(String),
}
