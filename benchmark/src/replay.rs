//! The layer replay of a traced run: each layer's public entry points
//! driven on their own with the run's seed-derived keys, for the per-layer
//! metrics the lifecycle segments do not already produce.
//!
//! Nothing here is gated. These numbers say *where* an end-to-end metric's
//! time goes (`benchmark/README.md` has the table of which layer metric
//! should move which end-to-end metric, and which it should leave alone).

use crate::fixture::{self, Bare, Served, ALPHA};
use crate::inputs::{Inputs, Sizes};
use crate::oracle::Oracle;
use crate::probe::{scan_pass, LookupPass};
use crate::segments::Run;
use crate::stats::median_f64;
use core::ops::ControlFlow;
use csv_alex::AlexIndex;
use csv_btree::BPlusTree;
use csv_common::key::identity_records;
use csv_common::traits::LearnedIndex;
use csv_common::{Key, KeyValue};
use csv_concurrent::{
    DurabilitySink, PMap, RcuCell, ShardCheckpoint, StaleSeed, WriteOp, WriteRecord,
};
use csv_core::{CostModel, CsvConfig, CsvOptimizer};
use csv_datasets::Dataset;
use csv_durability::{DurabilityConfig, FileSink};
use csv_lipp::LippIndex;
use csv_pgm::PgmIndex;
use csv_sali::SaliIndex;
use csv_server::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

mod stream {
    pub const CELL_LOOKUPS: u64 = 101;
    pub const CELL_SCANS: u64 = 102;
    pub const SHARDED: u64 = 103;
}

const ROUNDS: usize = 5;

/// Median over [`ROUNDS`] rounds of the nanoseconds `body` takes, divided
/// by the `ops` operations one call performs.
fn ns_per_op(ops: usize, mut body: impl FnMut()) -> f64 {
    let mut rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median_f64(&mut rounds)
}

/// Samples `name` with the lookup time per key of one index cell, every
/// answer checked.
fn cell_get_ns<I: LearnedIndex>(run: &mut Run, name: &'static str, index: &I, pass: &LookupPass) {
    let mut blocks = Vec::new();
    let mut rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| pass.timed(index, &mut run.tally, &mut blocks))
        .collect();
    run.sample(name, median_f64(&mut rounds));
}

pub fn layer_replay(
    run: &mut Run,
    inputs: &Inputs,
    bare: &Bare,
    out_dir: &Path,
) -> Result<(), String> {
    core_and_index_cells(run, inputs, bare);
    concurrent_layers(run, inputs, out_dir)?;
    durability_layer(run, inputs, out_dir)?;
    codec_layer(run, inputs);
    Ok(())
}

/// `csv_core` on three cells and the five index crates' read paths.
fn core_and_index_cells(run: &mut Run, inputs: &Inputs, bare: &Bare) {
    let sizes = &inputs.sizes;
    let lookups = sizes.lookup_pass;

    // LIPP x OSM: the set-up's own optimise, then plan and apply apart.
    let report = &bare.csv_report;
    run.sample("core.optimize_s.lipp_osm", bare.optimize_s);
    run.sample("core.gap_refits.lipp_osm", report.gap_refits as f64);
    run.sample(
        "core.fallback_rescans.lipp_osm",
        report.smoothing.fallback_rescans as f64,
    );
    run.sample(
        "core.virtual_points.lipp_osm",
        report.virtual_points_added as f64,
    );
    run.sample(
        "core.refits_per_s.lipp_osm",
        report.gap_refits as f64 / bare.optimize_s,
    );
    run.sample("index.lipp.bulk_load_s", bare.bulk_load_s);
    let mut lipp = LippIndex::bulk_load(&inputs.records);
    let t = Instant::now();
    let plan = fixture::optimizer().plan(&lipp);
    run.sample("core.plan_s.lipp_osm", t.elapsed().as_secs_f64());
    let t = Instant::now();
    plan.apply(&mut lipp);
    run.sample("core.apply_s.lipp_osm", t.elapsed().as_secs_f64());

    // Point inserts into the smoothed bare index.
    let fresh = &inputs.held_out[..inputs.held_out.len().min(sizes.burst_inserts)];
    let t = Instant::now();
    let mut inserted = 0u64;
    for &key in fresh {
        inserted += u64::from(lipp.insert(key, key));
    }
    run.sample(
        "index.lipp.insert_ns",
        t.elapsed().as_nanos() as f64 / fresh.len() as f64,
    );
    run.tally
        .record_group(fresh.len() as u64, inserted == fresh.len() as u64);

    // Baselines over the run's own loaded keys, alpha = 0.
    let oracle = Oracle::from_records(&inputs.records);
    let pass = LookupPass::new(
        inputs.uniform(stream::CELL_LOOKUPS, &inputs.keys, lookups),
        &oracle,
        Sizes::BLOCK,
    );
    let sali = SaliIndex::bulk_load(&inputs.records);
    cell_get_ns(run, "index.sali.get_ns", &sali, &pass);
    let pgm = PgmIndex::bulk_load(&inputs.records);
    cell_get_ns(run, "index.pgm.get_ns", &pgm, &pass);
    let btree = BPlusTree::bulk_load(&inputs.records);
    cell_get_ns(run, "index.btree.get_ns", &btree, &pass);
    let starts = inputs.uniform(stream::CELL_SCANS, &inputs.keys, lookups / 20);
    let mut scan_oracle = oracle.clone();
    run.sample(
        "index.btree.range100_us",
        scan_pass(&btree, &starts, Sizes::SCAN_LIMIT, &mut scan_oracle),
    );
    run.tally.absorb(scan_oracle.tally);

    // ALEX x OSM, alpha = 0 and smoothed.
    let keys = Dataset::Osm.generate(sizes.alex_keys, inputs.seed);
    let records = identity_records(&keys);
    let mut oracle = Oracle::from_records(&records);
    let pass = LookupPass::new(
        inputs.uniform(stream::CELL_LOOKUPS, &keys, lookups),
        &oracle,
        Sizes::BLOCK,
    );
    let mut alex = AlexIndex::bulk_load(&records);
    run.sample(
        "index.alex.mean_key_level_unsmoothed",
        alex.stats().mean_key_level(),
    );
    cell_get_ns(run, "index.alex.get_ns_unsmoothed", &alex, &pass);
    let t = Instant::now();
    CsvOptimizer::new(CsvConfig::for_alex(ALPHA, CostModel::default())).optimize(&mut alex);
    run.sample("core.optimize_s.alex_osm", t.elapsed().as_secs_f64());
    run.sample("index.alex.mean_key_level", alex.stats().mean_key_level());
    cell_get_ns(run, "index.alex.get_ns", &alex, &pass);
    let starts = inputs.uniform(stream::CELL_SCANS, &keys, lookups / 20);
    run.sample(
        "index.alex.range100_us",
        scan_pass(&alex, &starts, Sizes::SCAN_LIMIT, &mut oracle),
    );
    run.tally.absorb(oracle.tally);

    // LIPP x Genome, smoothed.
    let keys = Dataset::Genome.generate(sizes.genome_keys, inputs.seed);
    let records = identity_records(&keys);
    let oracle = Oracle::from_records(&records);
    let pass = LookupPass::new(
        inputs.uniform(stream::CELL_LOOKUPS, &keys, lookups),
        &oracle,
        Sizes::BLOCK,
    );
    let mut genome = LippIndex::bulk_load(&records);
    let t = Instant::now();
    fixture::optimizer().optimize(&mut genome);
    run.sample("core.optimize_s.lipp_genome", t.elapsed().as_secs_f64());
    cell_get_ns(run, "index.lipp_genome.get_ns", &genome, &pass);
}

/// `ShardedIndex`/`ReadView` with no sink attached, `PMap` and `RcuCell`.
fn concurrent_layers(run: &mut Run, inputs: &Inputs, out_dir: &Path) -> Result<(), String> {
    let sizes = &inputs.sizes;
    let index = Served::bulk_load(&inputs.records, fixture::sharding(sizes.shards));
    index.optimize(&fixture::optimizer());
    let keys = inputs.uniform(stream::SHARDED, &inputs.keys, sizes.lookup_pass);
    let oracle = Oracle::from_records(&inputs.records);
    let expected = keys.iter().fold(0u64, |sum, &k| {
        sum.wrapping_add(oracle.expected(k).unwrap_or(0))
    });
    let view = index.read_view().expect("the RCU read path pins views");

    let mut sum = 0u64;
    let view_get = ns_per_op(keys.len(), || {
        sum = keys.iter().fold(0, |s, &k| {
            s.wrapping_add(view.get(black_box(k)).unwrap_or(0))
        });
    });
    run.tally.record_group(keys.len() as u64, sum == expected);
    run.sample("concurrent.view_get_ns", view_get);
    let unpinned = ns_per_op(keys.len(), || {
        sum = keys.iter().fold(0, |s, &k| {
            s.wrapping_add(index.get(black_box(k)).unwrap_or(0))
        });
    });
    run.tally.record_group(keys.len() as u64, sum == expected);
    run.sample("concurrent.get_ns", unpinned);
    let batched = ns_per_op(keys.len(), || {
        sum = 0;
        for group in keys.chunks(Sizes::MULTI_GET) {
            for value in view.multi_get(group) {
                sum = sum.wrapping_add(value.unwrap_or(0));
            }
        }
    });
    run.tally.record_group(keys.len() as u64, sum == expected);
    run.sample("concurrent.multi_get64_ns_per_key", batched);

    let starts = &keys[..keys.len() / 20];
    let mut scanned = 0usize;
    let scan = ns_per_op(starts.len(), || {
        scanned = 0;
        for &lo in starts {
            let mut seen = 0;
            let _ = view.range_visit(lo, Key::MAX, &mut |_, _| {
                seen += 1;
                if seen >= Sizes::SCAN_LIMIT {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            scanned += seen;
        }
    });
    run.sample("concurrent.range100_us", scan / 1e3);
    black_box(scanned);
    let pins = 10_000;
    run.sample(
        "concurrent.read_view_pin_ns",
        ns_per_op(pins, || {
            for _ in 0..pins {
                black_box(index.read_view());
            }
        }),
    );
    drop(view);

    // Writes, no sink: point inserts then grouped upserts of held-out keys.
    let half = inputs.held_out.len() / 2;
    let (point, grouped) = inputs.held_out.split_at(half);
    let t = Instant::now();
    let mut fresh = 0usize;
    for &key in point {
        fresh += usize::from(index.insert(key, key));
    }
    let insert_ns = t.elapsed().as_nanos() as f64 / point.len() as f64;
    run.tally
        .record_group(point.len() as u64, fresh == point.len());
    run.sample("concurrent.insert_ns", insert_ns);
    let ops: Vec<WriteOp> = grouped
        .iter()
        .map(|&key| WriteOp::Insert { key, value: key })
        .collect();
    let t = Instant::now();
    let mut fresh = 0usize;
    for group in ops.chunks(Sizes::WRITE_GROUP) {
        fresh += index.write_batch(group).fresh_inserts;
    }
    run.sample(
        "concurrent.write_batch64_ns_per_op",
        t.elapsed().as_nanos() as f64 / ops.len() as f64,
    );
    run.tally.record_group(ops.len() as u64, fresh == ops.len());

    // The same point inserts into an equally fresh index with a sink
    // attached: the difference is what the sink costs a write.
    let store = out_dir.join("overhead-store");
    let (durable, sink) = fixture::build_durable(inputs, &store)?;
    let t = Instant::now();
    for &key in point {
        durable.insert(key, key);
    }
    let durable_ns = t.elapsed().as_nanos() as f64 / point.len() as f64;
    run.sample("durability.write_overhead_ns", durable_ns - insert_ns);
    drop(durable);
    drop(sink);
    let _ = std::fs::remove_dir_all(&store);

    // The persistent overlay map at a typical overlay size, and one RCU
    // publication (swap plus grace period, no readers).
    const ENTRIES: u64 = 4_096;
    let mut map: PMap<Key, Option<u64>> = PMap::new();
    let t = Instant::now();
    for i in 0..ENTRIES {
        map = map.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), Some(i)).0;
    }
    run.sample(
        "concurrent.pmap.insert_ns",
        t.elapsed().as_nanos() as f64 / ENTRIES as f64,
    );
    let mut hits = 0u64;
    let get = ns_per_op(ENTRIES as usize, || {
        hits = (0..ENTRIES)
            .filter(|i| map.get(&i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).is_some())
            .count() as u64;
    });
    run.tally.record_group(ENTRIES, hits == ENTRIES);
    run.sample("concurrent.pmap.get_ns", get);
    let cell = RcuCell::new(Arc::new(0u64));
    let publications = 10_000u64;
    run.sample(
        "concurrent.rcu.publish_ns",
        ns_per_op(publications as usize, || {
            for i in 0..publications {
                cell.publish(Arc::new(i));
            }
        }),
    );
    Ok(())
}

/// `FileSink` on its own: single and grouped WAL appends on one shard.
fn durability_layer(run: &mut Run, inputs: &Inputs, out_dir: &Path) -> Result<(), String> {
    let dir = out_dir.join("wal-probe");
    let _ = std::fs::remove_dir_all(&dir);
    let sink =
        FileSink::create(DurabilityConfig::new(&dir)).map_err(|e| format!("wal probe: {e}"))?;
    sink.replace_shards(
        &[],
        &[ShardCheckpoint {
            lower_bound: 0,
            records: Vec::new(),
            stale: StaleSeed::fresh(0),
            absorbed: 0,
        }],
    );
    let keys = &inputs.keys[..inputs.keys.len().min(20_000)];
    let t = Instant::now();
    for &key in keys {
        sink.log_write(0, key, Some(key));
    }
    run.sample(
        "durability.wal_append_ns",
        t.elapsed().as_nanos() as f64 / keys.len() as f64,
    );
    let records: Vec<WriteRecord> = keys
        .iter()
        .map(|&key| WriteRecord {
            key,
            value: Some(key),
        })
        .collect();
    let t = Instant::now();
    for group in records.chunks(Sizes::WRITE_GROUP) {
        sink.log_writes(0, group);
    }
    run.sample(
        "durability.wal_append_batch64_ns_per_record",
        t.elapsed().as_nanos() as f64 / records.len() as f64,
    );
    let logged = sink.stats().wal_records;
    drop(sink);
    let mut wal_bytes = 0u64;
    for entry in std::fs::read_dir(&dir)
        .map_err(|e| e.to_string())?
        .flatten()
    {
        if entry.file_name().to_string_lossy().ends_with(".wal") {
            wal_bytes += entry.metadata().map_err(|e| e.to_string())?.len();
        }
    }
    run.sample(
        "durability.wal_bytes_per_record",
        wal_bytes as f64 / logged.max(1) as f64,
    );
    run.tally
        .record_group(logged, logged == 2 * keys.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// The wire codec on its own: encode and decode a request and its response.
fn codec_layer(run: &mut Run, inputs: &Inputs) {
    let keys = &inputs.keys[..inputs
        .keys
        .len()
        .min(Sizes::SCAN_LIMIT.max(Sizes::MULTI_GET))];
    let records: Vec<KeyValue> = keys[..keys.len().min(Sizes::SCAN_LIMIT)]
        .iter()
        .map(|&key| KeyValue { key, value: key })
        .collect();
    let multi: Vec<Key> = keys[..keys.len().min(Sizes::MULTI_GET)].to_vec();
    let cases: [(&'static str, Request, Response); 3] = [
        (
            "server.codec.get_roundtrip_ns",
            Request::Get { key: keys[0] },
            Response::Value(Some(keys[0])),
        ),
        (
            "server.codec.multi_get64_ns",
            Request::MultiGet {
                keys: multi.clone(),
            },
            Response::Values(multi.iter().map(|&k| Some(k)).collect()),
        ),
        (
            "server.codec.range100_ns",
            Request::Range {
                lo: keys[0],
                hi: Key::MAX,
                limit: Sizes::SCAN_LIMIT as u32,
            },
            Response::Records {
                records,
                truncated: false,
            },
        ),
    ];
    let reps = 2_000;
    let (mut frame, mut answer) = (Vec::new(), Vec::new());
    for (name, request, response) in cases {
        let mut ok = true;
        let value = ns_per_op(reps, || {
            for _ in 0..reps {
                frame.clear();
                encode_request(black_box(&request), &mut frame);
                ok &= decode_request(&frame).is_ok();
                answer.clear();
                encode_response(black_box(&response), &mut answer);
                ok &= decode_response(&answer).is_ok();
            }
        });
        run.tally.record_group(reps as u64, ok);
        run.sample(name, value);
    }
}
