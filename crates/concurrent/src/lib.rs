//! Sharded concurrent access to the workspace's learned indexes.
//!
//! The paper's SALI substrate is explicitly designed for scalable concurrent
//! workloads (its evaluation is multi-threaded), and the benchmark framework
//! the paper builds on drives indexes from several threads. The
//! single-threaded index implementations in this workspace are wrapped by
//! [`ShardedIndex`], which partitions the key space into contiguous shards
//! at bulk-load time and publishes every shard as an immutable snapshot
//! through the hand-rolled [`rcu::RcuCell`]. Point lookups perform *zero
//! lock acquisitions*, and writers and maintenance build copy-on-write
//! successors published with a single pointer swap, so readers never stall
//! behind maintenance, splits or merges. Read-mostly batches can pin a
//! [`ReadView`] and drop even the RCU counter traffic. Pending point writes
//! buffer in a per-snapshot overlay, the persistent two-run map
//! [`pmap::PMap`]: a write copies only the small newer run (at most
//! ≈ 4√n of n buffered entries) and shares the large older one, which it
//! rewrites only when the small run spills into it.
//!
//! CSV-integrable indexes are re-optimised via [`ShardedIndex::optimize`],
//! which plans and applies each shard's smoothing on a private successor
//! and publishes it with one swap, never excluding readers.
//!
//! On top of that one-shot pass sits the *adaptive* layer: every shard
//! counts the structural writes it absorbs ([`ShardedIndex::staleness`]),
//! [`ShardedIndex::maintain_shard`] re-plans only a shard's dirty sub-trees,
//! and the [`MaintenanceEngine`] drives the whole lifecycle — splitting
//! shards that outgrow their peers, merging ones that drained, repeatedly
//! re-optimising the stalest, optionally under a per-tick latency budget
//! ([`MaintenanceConfig::tick_budget`]) — so the smoothed layout survives a
//! sustained mixed workload without ever re-planning untouched sub-trees.
//! [`MaintenanceEngine::spawn`] packages the background-thread loop servers
//! would otherwise hand-roll.
//!
//! [`LearnedIndex`]: csv_common::traits::LearnedIndex

#![deny(unsafe_code)]

pub mod durability;
pub mod maintenance;
pub mod pmap;
// The audited unsafe core: raw-pointer publication + grace-period
// reclamation. `cargo xtask lint` verifies every site carries a SAFETY
// comment and that no other module contains `unsafe`.
#[allow(unsafe_code)]
pub mod rcu;
pub mod sharded;
pub mod throughput;

pub use durability::{DurabilitySink, RecoveredShard, ShardCheckpoint, StaleSeed, WriteRecord};
pub use maintenance::{
    EnginePanic, MaintenanceAction, MaintenanceConfig, MaintenanceEngine, MaintenanceHandle,
    MaintenanceStats,
};
pub use pmap::PMap;
pub use rcu::RcuCell;
pub use sharded::{
    BatchOutcome, MaintainProgress, ReadPath, ReadView, ShardStaleness, ShardedIndex,
    ShardingConfig, WriteOp,
};
pub use throughput::{run_read_throughput, run_read_throughput_pinned, ThroughputReport};
