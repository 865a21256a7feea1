//! Multi-threaded read throughput of the sharded index wrapper — original
//! vs. CSV-enhanced shards (the scalability dimension SALI targets), per
//! lookup and through the pinned-snapshot fast path for read-mostly
//! batches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use csv_common::key::identity_records;
use csv_concurrent::{
    run_read_throughput, run_read_throughput_pinned, ShardedIndex, ShardingConfig,
};
use csv_core::{CsvConfig, CsvOptimizer};
use csv_datasets::{Dataset, ReadOnlyWorkload};
use csv_lipp::LippIndex;
use std::hint::black_box;
use std::time::Duration;

const KEYS: usize = 200_000;
const QUERIES: usize = 100_000;

fn bench_concurrent_scaling(c: &mut Criterion) {
    let keys = Dataset::Genome.generate(KEYS, 3);
    let records = identity_records(&keys);
    let queries = ReadOnlyWorkload::uniform(keys.clone(), QUERIES, 9).queries;

    let build = |csv: bool| {
        let index = ShardedIndex::<LippIndex>::bulk_load(&records, ShardingConfig::with_shards(16));
        if csv {
            index.optimize(&CsvOptimizer::new(CsvConfig::for_lipp(0.1)));
        }
        index
    };

    let mut group = c.benchmark_group("concurrent_read_scaling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.throughput(Throughput::Elements(QUERIES as u64));
    for (csv_name, csv) in [("", false), ("_csv", true)] {
        let index = build(csv);
        for &threads in &[1usize, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("lipp_sharded{csv_name}"), threads),
                &threads,
                |b, &t| {
                    b.iter(|| black_box(run_read_throughput(&index, &queries, t)));
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("lipp_sharded_pinned{csv_name}"), threads),
                &threads,
                |b, &t| {
                    b.iter(|| black_box(run_read_throughput_pinned(&index, &queries, t)));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_concurrent_scaling);
criterion_main!(benches);
