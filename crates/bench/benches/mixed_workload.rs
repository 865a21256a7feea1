//! YCSB-style mixed-operation throughput for the original and CSV-enhanced
//! indexes (reads / inserts / removals / short scans).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csv_alex::AlexIndex;
use csv_btree::BPlusTree;
use csv_common::key::identity_records;
use csv_common::sync::{AtomicUsize, Ordering};
use csv_common::traits::{LearnedIndex, RangeIndex, RemovableIndex};
use csv_common::KeyValue;
use csv_concurrent::{ShardedIndex, ShardingConfig, WriteOp};
use csv_core::{CsvConfig, CsvOptimizer};
use csv_datasets::{
    Dataset, MixedWorkload, MixedWorkloadSpec, Operation, OperationMix, Popularity,
};
use csv_durability::{recover, DurabilityConfig, FileSink, FsyncPolicy};
use csv_lipp::LippIndex;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const KEYS: usize = 100_000;
const OPS: usize = 20_000;

fn replay<I: LearnedIndex + RangeIndex + RemovableIndex>(
    index: &mut I,
    workload: &MixedWorkload,
) -> usize {
    let mut touched = 0usize;
    for op in &workload.operations {
        match *op {
            Operation::Read(k) => touched += usize::from(index.get(k).is_some()),
            Operation::Insert(k) => touched += usize::from(index.insert(k, k)),
            Operation::Remove(k) => touched += usize::from(index.remove(k).is_some()),
            Operation::Scan(lo, hi) => touched += index.range(lo, hi).len(),
        }
    }
    touched
}

/// The same replay against the sharded wrapper, whose mutating operations
/// go through shared references (RCU publications).
fn replay_sharded(index: &ShardedIndex<LippIndex>, workload: &MixedWorkload) -> usize {
    let mut touched = 0usize;
    for op in &workload.operations {
        match *op {
            Operation::Read(k) => touched += usize::from(index.get(k).is_some()),
            Operation::Insert(k) => touched += usize::from(index.insert(k, k)),
            Operation::Remove(k) => touched += usize::from(index.remove(k).is_some()),
            Operation::Scan(lo, hi) => touched += index.range(lo, hi).len(),
        }
    }
    touched
}

/// How many consecutive writes the batched replay groups into one
/// `write_batch` call.
const WRITE_BATCH: usize = 64;

/// The replay a group-committing server performs: writes buffer until
/// [`WRITE_BATCH`] accumulate and commit as one `write_batch` (one overlay
/// update, one publication, one durability frame per touched shard); reads
/// and scans meanwhile hit the published snapshot — exactly the bounded
/// staleness a batching front-end exhibits between group commits.
fn replay_sharded_batched(index: &ShardedIndex<LippIndex>, workload: &MixedWorkload) -> usize {
    let mut touched = 0usize;
    let mut buffer: Vec<WriteOp> = Vec::with_capacity(WRITE_BATCH);
    for op in &workload.operations {
        match *op {
            Operation::Read(k) => touched += usize::from(index.get(k).is_some()),
            Operation::Insert(k) => buffer.push(WriteOp::Insert { key: k, value: k }),
            Operation::Remove(k) => buffer.push(WriteOp::Remove { key: k }),
            Operation::Scan(lo, hi) => touched += index.range(lo, hi).len(),
        }
        if buffer.len() >= WRITE_BATCH {
            let outcome = index.write_batch(&buffer);
            touched += outcome.fresh_inserts + outcome.removed;
            buffer.clear();
        }
    }
    let outcome = index.write_batch(&buffer);
    touched + outcome.fresh_inserts + outcome.removed
}

fn bench_mixed_workload(c: &mut Criterion) {
    let keys = Dataset::Osm.generate(KEYS, 5);
    let records = identity_records(&keys);
    let mut group = c.benchmark_group("mixed_workload");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    for (mix_name, mix) in [
        ("ycsb_b", OperationMix::ycsb_b()),
        // YCSB-E: 95% short scans / 5% inserts, scans starting at
        // Zipfian-popular keys — the scan-heavy row the streaming read
        // path is priced on.
        ("ycsb_e", OperationMix::ycsb_e()),
        ("churn", OperationMix::churn()),
    ] {
        let workload = MixedWorkload::generate(
            &keys,
            &MixedWorkloadSpec {
                num_operations: OPS,
                mix,
                popularity: Popularity::Zipfian(0.9),
                scan_width: 50,
                seed: 21,
            },
        );
        group.bench_with_input(BenchmarkId::new("btree", mix_name), &workload, |b, wl| {
            b.iter_batched(
                || BPlusTree::bulk_load(&records),
                |mut index| black_box(replay(&mut index, wl)),
                criterion::BatchSize::LargeInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("lipp", mix_name), &workload, |b, wl| {
            b.iter_batched(
                || LippIndex::bulk_load(&records),
                |mut index| black_box(replay(&mut index, wl)),
                criterion::BatchSize::LargeInput,
            );
        });
        group.bench_with_input(
            BenchmarkId::new("lipp_csv", mix_name),
            &workload,
            |b, wl| {
                b.iter_batched(
                    || {
                        let mut index = LippIndex::bulk_load(&records);
                        CsvOptimizer::new(CsvConfig::for_lipp(0.1)).optimize(&mut index);
                        index
                    },
                    |mut index| black_box(replay(&mut index, wl)),
                    criterion::BatchSize::LargeInput,
                );
            },
        );
        group.bench_with_input(BenchmarkId::new("alex", mix_name), &workload, |b, wl| {
            b.iter_batched(
                || AlexIndex::bulk_load(&records),
                |mut index| black_box(replay(&mut index, wl)),
                criterion::BatchSize::LargeInput,
            );
        });
        // The sharded wrapper: what a single-threaded mixed stream pays
        // for RCU copy-on-write snapshots over the persistent overlay.
        group.bench_with_input(
            BenchmarkId::new("lipp_sharded_rcu_pmap", mix_name),
            &workload,
            |b, wl| {
                b.iter_batched(
                    || {
                        ShardedIndex::<LippIndex>::bulk_load(
                            &records,
                            ShardingConfig::with_shards(16),
                        )
                    },
                    |index| black_box(replay_sharded(&index, wl)),
                    criterion::BatchSize::LargeInput,
                );
            },
        );
        // The group-committed write path: the row above again, but writes grouped into `WRITE_BATCH`-op `write_batch`
        // calls — one overlay update and one publication per touched shard
        // per group instead of one of each per write.
        group.bench_with_input(
            BenchmarkId::new("lipp_sharded_rcu_pmap_batched", mix_name),
            &workload,
            |b, wl| {
                b.iter_batched(
                    || {
                        ShardedIndex::<LippIndex>::bulk_load(
                            &records,
                            ShardingConfig::with_shards(16),
                        )
                    },
                    |index| black_box(replay_sharded_batched(&index, wl)),
                    criterion::BatchSize::LargeInput,
                );
            },
        );
        // WAL-append overhead: the sharded row again, but with
        // the per-shard checkpoint + WAL sink attached (fsync off, so the
        // delta is serialisation + page-cache appends, not disk stalls).
        // Compare against `lipp_sharded_rcu_pmap` to price durability.
        group.bench_with_input(
            BenchmarkId::new("lipp_sharded_rcu_pmap_wal", mix_name),
            &workload,
            |b, wl| {
                b.iter_batched(
                    || {
                        let dir = fresh_store_dir("mixed");
                        let sink = Arc::new(
                            FileSink::create(
                                DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Never),
                            )
                            .expect("fresh bench store"),
                        );
                        ShardedIndex::<LippIndex>::bulk_load_durable(
                            &records,
                            ShardingConfig::with_shards(16),
                            sink,
                        )
                    },
                    |index| black_box(replay_sharded(&index, wl)),
                    criterion::BatchSize::LargeInput,
                );
            },
        );
        // The same durable configuration driven through the batched replay:
        // each group commit is one checksummed WAL frame and one `write(2)`
        // instead of `WRITE_BATCH` framed appends — repricing the PR 6
        // per-record `write(2)` term under group commit.
        group.bench_with_input(
            BenchmarkId::new("lipp_sharded_rcu_pmap_wal_batched", mix_name),
            &workload,
            |b, wl| {
                b.iter_batched(
                    || {
                        let dir = fresh_store_dir("mixed");
                        let sink = Arc::new(
                            FileSink::create(
                                DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Never),
                            )
                            .expect("fresh bench store"),
                        );
                        ShardedIndex::<LippIndex>::bulk_load_durable(
                            &records,
                            ShardingConfig::with_shards(16),
                            sink,
                        )
                    },
                    |index| black_box(replay_sharded_batched(&index, wl)),
                    criterion::BatchSize::LargeInput,
                );
            },
        );
    }
    group.finish();
    std::fs::remove_dir_all(store_root()).ok();
}

/// Root for every throwaway store the durability benches create; wiped at
/// the end of each bench function.
fn store_root() -> PathBuf {
    std::env::temp_dir().join(format!("csv_bench_durability_{}", std::process::id()))
}

/// A unique empty directory under [`store_root`].
fn fresh_store_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = store_root().join(format!("{tag}-{}", NEXT.fetch_add(1, Ordering::Relaxed)));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Copies a (flat) store directory, preserving the master so every
/// recovery iteration replays the same crash image.
fn copy_store(master: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create store copy dir");
    for entry in std::fs::read_dir(master).expect("read master store") {
        let entry = entry.expect("store entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy store file");
    }
}

/// Recovery-time rows: rebuild the sharded index from a crash image with
/// (a) clean checkpoints only and (b) a WAL tail of `OPS` unfolded writes,
/// so the replay term is priced separately from checkpoint loading. The
/// master image is built once; every iteration recovers a fresh copy
/// (recovery re-checkpoints the store, so recovering in place would
/// measure a different image after the first iteration).
fn bench_recovery(c: &mut Criterion) {
    let keys = Dataset::Osm.generate(KEYS, 5);
    let records = identity_records(&keys);
    // An overlay deeper than the logged tail: none of the post-checkpoint
    // writes fold, so they all stay in the WAL for replay.
    let sharding = ShardingConfig::with_shards(16).with_overlay_capacity(2 * OPS);
    let build_master = |logged: usize| -> PathBuf {
        let dir = fresh_store_dir("master");
        let sink = Arc::new(
            FileSink::create(DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Never))
                .expect("fresh bench store"),
        );
        let index = ShardedIndex::<LippIndex>::bulk_load_durable(&records, sharding, sink);
        let base = *keys.last().unwrap() + 1;
        for i in 0..logged as u64 {
            index.insert(base + i, i);
        }
        // Simulated crash: drop without checkpointing, leaving the logged
        // tail in the WALs.
        dir
    };

    let mut group = c.benchmark_group("recovery");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for (row_name, logged) in [("checkpoint_only", 0), ("wal_replay_20k", OPS)] {
        let master = build_master(logged);
        group.bench_function(row_name, |b| {
            b.iter_batched(
                || {
                    let dir = fresh_store_dir("recover");
                    copy_store(&master, &dir);
                    dir
                },
                |dir| {
                    let recovered = recover::<LippIndex>(DurabilityConfig::new(&dir), sharding)
                        .expect("bench store must recover");
                    black_box(recovered.report.replayed())
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
    std::fs::remove_dir_all(store_root()).ok();
}

/// The isolated write-path measurement: point-write cost at *full*
/// overlay occupancy. The mixed rows above rarely fill an overlay (a 20k-op
/// YCSB-B run spreads ~60 writes per shard), so their per-write copy term
/// is dominated by snapshot-publication overhead. Here a single shard's
/// overlay is pre-filled to `capacity` entries and every measured write
/// overwrites an overlay slot without folding, copying one chunk path of
/// the persistent map.
fn bench_overlay_write_cost(c: &mut Criterion) {
    const CAPACITY: usize = 4096;
    let keys = Dataset::Osm.generate(KEYS, 5);
    let records = identity_records(&keys);
    let fresh_base = *keys.last().unwrap() + 1;
    let mut group = c.benchmark_group("overlay_write_cost");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .throughput(criterion::Throughput::Elements(CAPACITY as u64));

    let index = ShardedIndex::<LippIndex>::bulk_load(
        &records,
        ShardingConfig::with_shards(1).with_overlay_capacity(CAPACITY),
    );
    // Fill the overlay to capacity; the measured overwrites below keep it
    // exactly there (an overwrite never grows the overlay, so the fold never
    // triggers).
    for i in 0..CAPACITY as u64 {
        index.insert(fresh_base + i, i);
    }
    let mut bump = 0u64;
    group.bench_function("persistent", |b| {
        b.iter(|| {
            bump += 1;
            for i in 0..CAPACITY as u64 {
                black_box(index.insert(fresh_base + i, bump));
            }
        });
    });
    // The group-committed write path over the identical overwrite stream:
    // the same `CAPACITY` writes per iteration, grouped into `insert_batch`
    // calls of 1/16/64/256 ops. A group is one overlay pass and one
    // publication, so the per-write amortised cost falls as the batch
    // grows; the batch-1 rows price the batch API's fixed overhead against
    // the point row above.
    for batch in [1usize, 16, 64, 256] {
        let mut bump = 0u64;
        group.bench_with_input(
            BenchmarkId::new("persistent_batched", batch),
            &batch,
            |b, &batch| {
                let mut buffer: Vec<KeyValue> = Vec::with_capacity(batch);
                b.iter(|| {
                    bump += 1;
                    for start in (0..CAPACITY as u64).step_by(batch) {
                        buffer.clear();
                        let end = (start + batch as u64).min(CAPACITY as u64);
                        buffer.extend((start..end).map(|i| KeyValue::new(fresh_base + i, bump)));
                        black_box(index.insert_batch(&buffer));
                    }
                });
            },
        );
    }
    group.finish();
}

/// The tentpole A/B: what one scan costs materialised (`range`, allocate
/// and fill a `Vec`) vs streamed (`range_visit`, fold records into an
/// accumulator with no allocation), at widths from 64 records up. Runs
/// against the RCU sharded index with overlays deliberately dirtied so
/// the scan pays the real base+overlay merge, and against a plain LIPP
/// index to isolate the single-index cost. The streamed row must be
/// strictly cheaper at every width ≥ 64.
fn bench_scan_cost(c: &mut Criterion) {
    let keys = Dataset::Osm.generate(KEYS, 5);
    let records = identity_records(&keys);
    let mut group = c.benchmark_group("scan_cost");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    let sharded = ShardedIndex::<LippIndex>::bulk_load(&records, ShardingConfig::with_shards(16));
    // Dirty the overlays (upserts and tombstones) without triggering the
    // fold, so scans run the merge-join rather than the base fast path.
    for &k in keys.iter().step_by(61) {
        sharded.insert(k, k ^ 0xF00D);
    }
    for &k in keys.iter().step_by(131) {
        sharded.remove(k);
    }
    let plain = LippIndex::bulk_load(&records);

    for width in [64usize, 256, 1024, 4096] {
        // Deterministic start positions spread over the key space; each
        // iteration scans the same 64 windows of `width` records.
        let starts: Vec<u64> = (0..64)
            .map(|i| keys[(i * 997) % (keys.len() - width)])
            .collect();
        let hi_for = |lo: u64, width: usize| {
            let pos = keys.partition_point(|&k| k < lo);
            keys[(pos + width - 1).min(keys.len() - 1)]
        };
        let windows: Vec<(u64, u64)> = starts.iter().map(|&lo| (lo, hi_for(lo, width))).collect();

        group.bench_with_input(
            BenchmarkId::new("sharded_materialised", width),
            &windows,
            |b, windows| {
                b.iter(|| {
                    let mut sum = 0u64;
                    for &(lo, hi) in windows {
                        for rec in sharded.range(lo, hi) {
                            sum = sum.wrapping_add(rec.value);
                        }
                    }
                    black_box(sum)
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sharded_streaming", width),
            &windows,
            |b, windows| {
                b.iter(|| {
                    let mut sum = 0u64;
                    for &(lo, hi) in windows {
                        let _ = sharded.range_visit(lo, hi, &mut |_, value| {
                            sum = sum.wrapping_add(value);
                            core::ops::ControlFlow::Continue(())
                        });
                    }
                    black_box(sum)
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("lipp_materialised", width),
            &windows,
            |b, windows| {
                b.iter(|| {
                    let mut sum = 0u64;
                    for &(lo, hi) in windows {
                        for rec in plain.range(lo, hi) {
                            sum = sum.wrapping_add(rec.value);
                        }
                    }
                    black_box(sum)
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("lipp_streaming", width),
            &windows,
            |b, windows| {
                b.iter(|| {
                    let mut sum = 0u64;
                    for &(lo, hi) in windows {
                        let _ = plain.range_visit(lo, hi, &mut |_, value| {
                            sum = sum.wrapping_add(value);
                            core::ops::ControlFlow::Continue(())
                        });
                    }
                    black_box(sum)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mixed_workload,
    bench_scan_cost,
    bench_overlay_write_cost,
    bench_recovery
);
criterion_main!(benches);
