//! Crash-safe durability for the sharded index: checkpoint + WAL + recovery.
//!
//! The paper's pipeline is in-memory; this example demonstrates the
//! durability layer grown around it. A sharded LIPP index is bulk-loaded
//! with a per-shard checkpoint + write-ahead-log sink attached, absorbs a
//! burst of writes (some checkpointed by an explicit fold, some only
//! WAL-logged), then "crashes" — the process state is dropped without any
//! orderly shutdown. Recovery rebuilds the index from the store directory
//! alone and the example verifies every acknowledged write survived.
//!
//! Run with: `cargo run --release --example recovery`

use csv_concurrent::{ShardedIndex, ShardingConfig};
use csv_datasets::Dataset;
use csv_durability::{recover, DurabilityConfig, FileSink, FsyncPolicy};
use csv_lipp::LippIndex;
use csv_repro::records_from_keys;
use std::sync::Arc;

const KEYS: usize = 200_000;
const LOGGED_WRITES: u64 = 30_000;

fn main() {
    let data_dir =
        std::env::temp_dir().join(format!("csv_recovery_example_{}", std::process::id()));
    std::fs::remove_dir_all(&data_dir).ok();

    let keys = Dataset::Genome.generate(KEYS, 5);
    let records = records_from_keys(&keys);
    let sharding = ShardingConfig::with_shards(16);

    // 1. Create the store and load the index through it: every shard gets a
    //    base checkpoint, then every acknowledged write is WAL-logged
    //    before its snapshot publishes.
    let sink = Arc::new(
        FileSink::create(DurabilityConfig::new(&data_dir).with_fsync(FsyncPolicy::OnCheckpoint))
            .expect("create store"),
    );
    let index = ShardedIndex::<LippIndex>::bulk_load_durable(&records, sharding, sink.clone());
    println!(
        "store created in {} ({} shards, {} keys)",
        data_dir.display(),
        index.num_shards(),
        index.len()
    );

    // 2. A write burst. Fresh keys interleave with the loaded ones so the
    //    writes spread across shards; deep overlays fold along the way,
    //    checkpointing some shards and truncating their logs.
    let base = *keys.last().unwrap() + 1;
    for i in 0..LOGGED_WRITES {
        index.insert(base + i * 2, i);
    }
    // One explicit checkpoint: shard 0's overlay folds into its base and
    // its WAL restarts empty, exactly what a maintenance checkpoint tick
    // does when the backlog threshold trips.
    index.checkpoint_shard(0);
    let expected_len = index.len();
    let persisted = sink.stats();
    println!(
        "burst absorbed: {} keys live, {} checkpoints written, {} wal records logged",
        expected_len, persisted.checkpoints, persisted.wal_records
    );

    // 3. Crash. No shutdown, no final checkpoint — the only survivors are
    //    the files the sink already wrote.
    drop(index);
    drop(sink);
    println!("simulated crash: process state dropped without shutdown");

    // 4. Recovery: checkpoints load, WAL tails replay, staleness counters
    //    re-arm, and the store is re-checkpointed under fresh epochs.
    let recovered = recover::<LippIndex>(DurabilityConfig::new(&data_dir), sharding)
        .expect("store must recover");
    let report = &recovered.report;
    println!(
        "recovered {} shards / {} keys in {:.2}ms ({} wal records replayed, {} torn shards)",
        report.shards.len(),
        report.keys,
        report.elapsed.as_secs_f64() * 1_000.0,
        report.replayed(),
        report.torn_shards()
    );

    // 5. Verify: every acknowledged write is back.
    assert_eq!(
        recovered.index.len(),
        expected_len,
        "no acknowledged write may be lost"
    );
    for i in 0..LOGGED_WRITES {
        assert_eq!(
            recovered.index.get(base + i * 2),
            Some(i),
            "logged write {i} must survive the crash"
        );
    }
    let sample = keys[keys.len() / 2];
    assert_eq!(recovered.index.get(sample), Some(sample));
    println!("verified: all {LOGGED_WRITES} logged writes and the bulk-loaded keys survived");

    std::fs::remove_dir_all(&data_dir).ok();
}
