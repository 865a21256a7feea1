//! Scan-tail latency under churn: the streaming-scan acceptance benchmark.
//!
//! A sharded, CSV-optimised LIPP index serves short range scans from the
//! main thread while (a) a writer thread streams fresh inserts —
//! continuously re-dirtying shards so scans cross live overlays and the
//! fold keeps firing — and (b) the engine-owned background thread
//! splits/merges/re-smooths. Each scan's latency lands in a
//! p50/p99/p99.9 histogram, measured twice: materialised (`range`,
//! allocate a `Vec` per scan) and streaming (`range_visit`, fold into an
//! accumulator, zero allocation). The streaming row should shave the
//! median (no allocator on the hot path) and keep allocator stalls out of
//! the tail (on a single core the comparison still includes plain CPU
//! competition — run on a multicore host for the isolation the design
//! provides).
//!
//! Hand-rolled harness (no criterion): tail percentiles need
//! per-operation timestamps, not aggregate iteration timing.

use csv_common::key::identity_records;
use csv_common::sync::{AtomicBool, Ordering};
use csv_common::LatencyHistogram;
use csv_concurrent::{MaintenanceConfig, MaintenanceEngine, ShardedIndex, ShardingConfig};
use csv_core::{CsvConfig, CsvOptimizer};
use csv_datasets::Dataset;
use csv_lipp::LippIndex;
use std::hint::black_box;
use std::sync::Arc;

const KEYS: usize = 200_000;
const SCANS: usize = 20_000;
const WIDTH: usize = 100;

struct Row {
    mode: &'static str,
    scans: LatencyHistogram,
    passes: usize,
    shards: usize,
}

fn run_one(records: &[csv_common::KeyValue], windows: &[(u64, u64)], streaming: bool) -> Row {
    let optimizer = CsvOptimizer::new(CsvConfig::for_lipp(0.1));
    let index = Arc::new(ShardedIndex::<LippIndex>::bulk_load(
        records,
        ShardingConfig::with_shards(16),
    ));
    index.optimize(&optimizer);

    let engine = MaintenanceEngine::new(optimizer, MaintenanceConfig::default());
    let handle = engine.spawn(Arc::clone(&index));

    let stop_writer = AtomicBool::new(false);
    let fresh_base = records.last().map_or(0, |r| r.key) + 1;
    let mut scans = LatencyHistogram::new();
    crossbeam::thread::scope(|scope| {
        // The write stream: fresh keys re-dirtying shards so the engine
        // has real work and scans race live overlay churn.
        let index_ref = &index;
        let stop = &stop_writer;
        scope.spawn(move |_| {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                index_ref.insert(fresh_base + i, i);
                i += 1;
            }
        });
        for &(lo, hi) in windows {
            let started = std::time::Instant::now();
            if streaming {
                let mut sum = 0u64;
                let _ = index.range_visit(lo, hi, &mut |_, value| {
                    sum = sum.wrapping_add(value);
                    core::ops::ControlFlow::Continue(())
                });
                black_box(sum);
            } else {
                black_box(index.range(lo, hi).len());
            }
            scans.record(started.elapsed());
        }
        stop_writer.store(true, Ordering::Relaxed);
    })
    .expect("threads must not panic");

    let stats = handle.stop();
    Row {
        mode: if streaming {
            "streaming"
        } else {
            "materialised"
        },
        scans,
        passes: stats.maintain_passes,
        shards: index.num_shards(),
    }
}

fn main() {
    let keys = Dataset::Osm.generate(KEYS, 7);
    let records = identity_records(&keys);
    // Deterministic scan windows of ~WIDTH loaded records each, cycled
    // over the measurement; hi is the WIDTH-th loaded key so every scan
    // returns a full window regardless of key-space gaps.
    let windows: Vec<(u64, u64)> = (0..SCANS)
        .map(|i| {
            let start = (i * 4099) % (keys.len() - WIDTH);
            (keys[start], keys[start + WIDTH - 1])
        })
        .collect();

    println!(
        "scan_tail: {KEYS} OSM keys, LIPP x16 shards, alpha 0.1, {SCANS} {WIDTH}-record scans vs a continuous insert stream + background maintenance"
    );
    println!(
        "{:<14} {:>9} {:>9} {:>9} {:>16}",
        "mode", "p50(ns)", "p99(ns)", "p99.9(ns)", "engine passes"
    );
    for streaming in [false, true] {
        let row = run_one(&records, &windows, streaming);
        println!(
            "{:<14} {:>9} {:>9} {:>9} {:>16} ({} shards)",
            row.mode,
            row.scans.p50_ns(),
            row.scans.p99_ns(),
            row.scans.quantile_ns(0.999),
            row.passes,
            row.shards,
        );
    }
}
