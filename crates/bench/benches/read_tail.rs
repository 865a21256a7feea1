//! Read-tail latency under active maintenance.
//!
//! A sharded, CSV-optimised LIPP index serves point lookups from the main
//! thread while (a) a writer thread streams fresh inserts — continuously
//! re-dirtying shards so the maintenance engine has real work — and (b) the
//! engine-owned background thread splits/merges/re-smooths. The lookup
//! latency distribution (p50/p99/p99.9) is recorded with and without the
//! engine running. Maintenance publishes copy-on-write snapshots, so the
//! read tail should not inherit maintenance pauses (on a single core the
//! comparison still includes plain CPU competition — run on a multicore
//! host for the isolation the design provides).
//!
//! Hand-rolled harness (no criterion): tail percentiles need per-operation
//! timestamps, not aggregate iteration timing.

use csv_common::key::identity_records;
use csv_common::sync::{AtomicBool, Ordering};
use csv_common::LatencyHistogram;
use csv_concurrent::{MaintenanceConfig, MaintenanceEngine, ShardedIndex, ShardingConfig};
use csv_core::{CsvConfig, CsvOptimizer};
use csv_datasets::{Dataset, ReadOnlyWorkload};
use csv_lipp::LippIndex;
use std::sync::Arc;

const KEYS: usize = 200_000;
const LOOKUPS: usize = 200_000;

struct Row {
    maintained: bool,
    lookups: LatencyHistogram,
    passes: usize,
    splits: usize,
    merges: usize,
    shards: usize,
}

fn run_one(records: &[csv_common::KeyValue], queries: &[u64], maintain: bool) -> Row {
    let optimizer = CsvOptimizer::new(CsvConfig::for_lipp(0.1));
    let index = Arc::new(ShardedIndex::<LippIndex>::bulk_load(
        records,
        ShardingConfig::with_shards(16),
    ));
    index.optimize(&optimizer);

    let engine = MaintenanceEngine::new(optimizer, MaintenanceConfig::default());
    let handle = maintain.then(|| engine.spawn(Arc::clone(&index)));

    let stop_writer = AtomicBool::new(false);
    let fresh_base = records.last().map_or(0, |r| r.key) + 1;
    let mut lookups = LatencyHistogram::new();
    crossbeam::thread::scope(|scope| {
        // The write stream: fresh keys spread over a few shards, fast
        // enough to keep the engine busy for the whole measurement.
        let index_ref = &index;
        let stop = &stop_writer;
        scope.spawn(move |_| {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                index_ref.insert(fresh_base + i, i);
                i += 1;
            }
        });
        for &q in queries {
            let started = std::time::Instant::now();
            let hit = index.get(q).is_some();
            lookups.record(started.elapsed());
            assert!(hit, "loaded keys must stay visible under maintenance");
        }
        stop_writer.store(true, Ordering::Relaxed);
    })
    .expect("threads must not panic");

    let stats = handle.map(|h| h.stop()).unwrap_or_default();
    Row {
        maintained: maintain,
        lookups,
        passes: stats.maintain_passes,
        splits: stats.splits,
        merges: stats.merges,
        shards: index.num_shards(),
    }
}

fn main() {
    let keys = Dataset::Osm.generate(KEYS, 7);
    let records = identity_records(&keys);
    let queries = ReadOnlyWorkload::uniform(keys, LOOKUPS, 13).queries;

    println!(
        "read_tail: {KEYS} OSM keys, LIPP x16 shards, alpha 0.1, {LOOKUPS} lookups vs a continuous insert stream"
    );
    println!(
        "{:<12} {:>9} {:>9} {:>9} {:>22}",
        "maintenance", "p50(ns)", "p99(ns)", "p99.9(ns)", "engine (passes/sp/me)"
    );
    for maintain in [false, true] {
        let row = run_one(&records, &queries, maintain);
        println!(
            "{:<12} {:>9} {:>9} {:>9} {:>14}/{}/{} ({} shards)",
            if row.maintained { "background" } else { "off" },
            row.lookups.p50_ns(),
            row.lookups.p99_ns(),
            row.lookups.quantile_ns(0.999),
            row.passes,
            row.splits,
            row.merges,
            row.shards,
        );
    }
}
