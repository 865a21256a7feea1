//! Batched point reads: `multi_get` vs N individual `get`s.
//!
//! The serving front-end turns a `MultiGet` frame into one
//! `ShardedIndex::multi_get` call, which routes the whole batch first
//! (shard-partitioning the keys) and then resolves each shard's slice in
//! one visit — amortising shard routing and snapshot acquisition across the
//! batch. This benchmark measures that amortisation directly, per batch
//! size, against the loop-of-gets a
//! naive server would run. The pinned-`ReadView` rows show the zero-atomic
//! fast path a server worker actually uses between re-pins.
//!
//! Hand-rolled harness (no criterion): the comparison is a simple
//! keys-per-second ratio over identical batches, and one table reads
//! better than six criterion groups.

use csv_common::key::identity_records;
use csv_concurrent::{ShardedIndex, ShardingConfig};
use csv_core::{CsvConfig, CsvOptimizer};
use csv_datasets::{Dataset, Zipfian};
use csv_lipp::LippIndex;
use std::time::Instant;

const KEYS: usize = 400_000;
const TOTAL_LOOKUPS: usize = 1 << 20;
const BATCH_SIZES: [usize; 3] = [16, 64, 256];

fn keys_per_sec(total: usize, elapsed: std::time::Duration) -> f64 {
    total as f64 / elapsed.as_secs_f64()
}

fn main() {
    let keys = Dataset::Osm.generate(KEYS, 7);
    let records = identity_records(&keys);
    // Zipfian batches mirror what the load generator sends: hot keys
    // repeat within and across batches, misses come from beyond the space.
    let mut queries = Zipfian::new(keys.len(), 0.99, 13).sample_keys(&keys, TOTAL_LOOKUPS);
    for slot in queries.iter_mut().step_by(64) {
        *slot = keys.last().unwrap() + (*slot % 1024) + 1; // ~1.5% misses
    }

    println!(
        "multi_get: {KEYS} OSM keys, LIPP x16 shards, alpha 0.1, {TOTAL_LOOKUPS} Zipfian lookups per cell"
    );
    println!(
        "{:<6} {:>15} {:>15} {:>15} {:>8}",
        "batch", "loop-get (k/s)", "multi_get (k/s)", "view-multi (k/s)", "speedup"
    );

    let index = ShardedIndex::<LippIndex>::bulk_load(&records, ShardingConfig::with_shards(16));
    index.optimize(&CsvOptimizer::new(CsvConfig::for_lipp(0.1)));
    let view = index.read_view().expect("read_view is always Some");

    for batch in BATCH_SIZES {
        let batches: Vec<&[u64]> = queries.chunks_exact(batch).collect();
        let total = batches.len() * batch;

        let started = Instant::now();
        let mut hits = 0usize;
        for chunk in &batches {
            for &k in *chunk {
                hits += usize::from(index.get(k).is_some());
            }
        }
        let loop_rate = keys_per_sec(total, started.elapsed());

        let started = Instant::now();
        let mut batched_hits = 0usize;
        for chunk in &batches {
            batched_hits += index
                .multi_get(chunk)
                .iter()
                .filter(|v| v.is_some())
                .count();
        }
        let multi_rate = keys_per_sec(total, started.elapsed());
        assert_eq!(hits, batched_hits, "multi_get must agree with get");

        // The server worker's fast path: resolve against a pinned ReadView.
        let started = Instant::now();
        let mut view_hits = 0usize;
        for chunk in &batches {
            view_hits += view.multi_get(chunk).iter().filter(|v| v.is_some()).count();
        }
        assert_eq!(view_hits, hits, "the pinned view must agree too");
        let view_rate = keys_per_sec(total, started.elapsed());

        println!(
            "{:<6} {:>15.0} {:>15.0} {:>15.0} {:>7.2}x",
            batch,
            loop_rate,
            multi_rate,
            view_rate,
            multi_rate / loop_rate,
        );
    }
}
