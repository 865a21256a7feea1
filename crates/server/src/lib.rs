//! A thread-per-core TCP serving front-end over the sharded learned index.
//!
//! The paper measures its smoothed indexes in-process; the north star here
//! is a system serving heavy traffic over a network. This crate adds the
//! missing layer: a blocking `std::net` server (the build environment is
//! offline — no async runtime) with one acceptor dealing connections to
//! per-core workers, a length-prefixed CRC-checked binary protocol, and a
//! load generator reporting tail latency.
//!
//! The design leans on the concurrency work of earlier PRs:
//!
//! - each worker pins an RCU [`ReadView`](csv_concurrent::ReadView), so a
//!   point read served over the wire costs the same zero-atomics lookup
//!   the in-process benches measured;
//! - `MultiGet` frames resolve through
//!   [`ShardedIndex::multi_get`](csv_concurrent::ShardedIndex::multi_get)
//!   — route the whole batch through the shard layout first, then resolve
//!   shard by shard (the classic learned-index batching trick);
//! - writes route through the same durable/RCU write path the WAL work
//!   hardened, and the background
//!   [`MaintenanceEngine`](csv_concurrent::MaintenanceEngine) can run
//!   behind the socket, surfacing its health through the `Stats` op.
//!
//! Entry points: [`spawn`] starts a server over an index you built;
//! [`Client`] is the blocking reference client; [`run_loadgen`] drives a
//! YCSB-style measurement run. `csv-index --serve` and `csv-loadgen` wrap
//! these for the command line.

#![forbid(unsafe_code)]

pub mod client;
pub mod codec;
pub mod errors;
mod frame_buf;
pub mod loadgen;
pub mod protocol;
pub mod server;
mod worker;

pub use client::{Client, RangeScan};
pub use codec::{
    decode_request, decode_response, encode_request, encode_response, Decoded, RecordStream,
    MAX_RECORDS_PER_FRAME,
};
pub use errors::{ArgError, ClientError, ProtocolError};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport, MixChoice};
pub use protocol::{Request, Response, ServerStats, WriteOp, MAX_FRAME_LEN};
pub use server::{spawn, ServerConfig, ServerHandle, ServerReport};
