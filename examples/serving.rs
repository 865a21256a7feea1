//! End-to-end serving: a thread-per-core TCP server over the sharded,
//! CSV-optimised index, exercised in-process by the blocking client.
//!
//! This walks the whole stack the `csv-index --serve` mode wires up:
//! bulk load → CSV optimise → spawn the maintenance engine → bind a
//! loopback server whose workers pin RCU `ReadView`s → speak the
//! length-prefixed, CRC-checked binary protocol — then drives a short
//! YCSB-B run through the load generator and shuts everything down.
//!
//! Run with: `cargo run --release --example serving`

use csv_concurrent::{MaintenanceConfig, MaintenanceEngine, ShardedIndex, ShardingConfig};
use csv_core::{CsvConfig, CsvOptimizer};
use csv_datasets::Dataset;
use csv_lipp::LippIndex;
use csv_repro::records_from_keys;
use csv_server::{run_loadgen, spawn, Client, LoadgenConfig, MixChoice, ServerConfig, WriteOp};
use std::sync::Arc;
use std::time::Duration;

const KEYS: usize = 200_000;
const SEED: u64 = 42;

fn main() {
    // 1. Build the index the server will serve: sharded LIPP, smoothed by
    //    CSV, with the maintenance engine ticking
    //    splits/merges/re-optimisation behind the scenes.
    let keys = Dataset::Genome.generate(KEYS, SEED);
    let index = Arc::new(ShardedIndex::<LippIndex>::bulk_load(
        &records_from_keys(&keys),
        ShardingConfig::with_shards(8),
    ));
    index.optimize(&CsvOptimizer::new(CsvConfig::for_lipp(0.1)));
    let engine = MaintenanceEngine::new(
        CsvOptimizer::new(CsvConfig::for_lipp(0.1)),
        MaintenanceConfig::default(),
    );
    let engine_handle = engine.spawn(Arc::clone(&index));

    // 2. Bind an ephemeral loopback port (port 0 → the OS picks) with two
    //    workers; each worker pins an RCU ReadView so point reads touch no
    //    atomics on the hot path.
    let server = spawn(
        Arc::clone(&index),
        Some(engine_handle),
        ServerConfig {
            port: 0,
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("binding a loopback port");
    let addr = server.local_addr();
    println!("serving {} keys on {addr} with 2 workers", index.len());

    // 3. Talk to it with the blocking client: point reads, a batched
    //    MultiGet (one frame, N answers), a bounded range scan, writes.
    let mut client = Client::connect(addr).expect("connecting over loopback");
    let k = keys[KEYS / 2];
    println!("get({k})            -> {:?}", client.get(k).unwrap());
    let batch = [keys[10], keys[20], keys.last().unwrap() + 1];
    println!(
        "multi_get(3 keys)   -> {:?} (last one misses)",
        client.multi_get(&batch).unwrap()
    );
    let scan = client.range(keys[100], keys[160], 5).unwrap();
    println!(
        "range(.., limit=5)  -> {} records, first key {}, truncated={}",
        scan.records.len(),
        scan.records[0].key,
        scan.truncated
    );
    let fresh = client.insert(keys.last().unwrap() + 7, 1234).unwrap();
    println!("insert(new key)     -> fresh={fresh}");
    let (inserts, hits) = client
        .write_batch(&[
            WriteOp::Insert { key: 1, value: 2 },
            WriteOp::Remove { key: 1 },
        ])
        .unwrap();
    println!("write_batch(2 ops)  -> {inserts} fresh inserts, {hits} remove hits");
    let stats = client.stats().unwrap();
    println!(
        "stats               -> {} keys, {} shards, rcu={}, engine_healthy={}",
        stats.keys, stats.shards, stats.rcu, stats.engine_healthy
    );

    // 4. Put the server under load: a short YCSB-B run (95% reads, 5%
    //    updates, Zipfian popularity) over four connections, with reads
    //    batched 16-to-a-frame, then a protocol-level shutdown.
    let report = run_loadgen(&LoadgenConfig {
        addr: addr.to_string(),
        connections: 4,
        duration: Duration::from_secs(2),
        mix: MixChoice::YcsbB,
        dataset: Dataset::Genome,
        size: KEYS,
        seed: SEED,
        batch: 16,
        shutdown: true,
        ..LoadgenConfig::default()
    })
    .expect("the loadgen run completes");
    println!("\n{}", report.render());

    // 5. `--shutdown` stopped the server; join returns its counters and
    //    the maintenance engine's final stats.
    let summary = server.join();
    println!(
        "server: {} connections, {} ops, {} protocol errors, engine healthy: {}",
        summary.connections, summary.ops, summary.protocol_errors, summary.engine_healthy
    );
    if let Some(engine) = summary.engine_stats {
        println!(
            "engine: {} maintenance passes, {} splits, {} merges",
            engine.maintain_passes, engine.splits, engine.merges
        );
    }
}
