//! End-to-end serving tests over real loopback sockets (port 0 → the OS
//! picks; nothing here depends on a fixed port being free).
//!
//! The acceptance pins live here: `MultiGet` over the wire must equal N
//! individual `Get`s, a hostile byte stream must cost only its own connection, and the load
//! generator must complete a YCSB run against a live server.

use csv_btree::BPlusTree;
use csv_common::key::identity_records;
use csv_concurrent::{MaintenanceConfig, MaintenanceEngine, ShardedIndex, ShardingConfig};
use csv_core::{CsvConfig, CsvOptimizer};
use csv_datasets::Dataset;
use csv_lipp::LippIndex;
use csv_server::{
    run_loadgen, spawn, Client, LoadgenConfig, MixChoice, Request, ServerConfig, WriteOp,
};
use std::sync::Arc;
use std::time::Duration;

fn serve_btree(
    keys: &[u64],
    workers: usize,
) -> (csv_server::ServerHandle, Arc<ShardedIndex<BPlusTree>>) {
    let index = Arc::new(ShardedIndex::<BPlusTree>::bulk_load(
        &identity_records(keys),
        ShardingConfig::with_shards(4),
    ));
    let handle = spawn(
        Arc::clone(&index),
        None,
        ServerConfig {
            port: 0,
            workers,
            ..ServerConfig::default()
        },
    )
    .expect("binding an ephemeral loopback port");
    (handle, index)
}

#[test]
fn point_ops_round_trip_over_the_wire_on_both_read_paths() {
    let keys = Dataset::Genome.generate(20_000, 5);
    let (handle, _index) = serve_btree(&keys, 2);
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // Hits and misses.
    assert_eq!(client.get(keys[17]).unwrap(), Some(keys[17]));
    let absent = keys.last().unwrap() + 1;
    assert_eq!(client.get(absent).unwrap(), None);

    // Writes are visible to subsequent reads on the same connection.
    assert!(client.insert(absent, 999).unwrap());
    assert_eq!(client.get(absent).unwrap(), Some(999));
    assert!(
        !client.insert(absent, 1000).unwrap(),
        "overwrite is not fresh"
    );
    assert_eq!(client.remove(absent).unwrap(), Some(1000));
    assert_eq!(client.get(absent).unwrap(), None);

    // Range scans with and without a limit.
    let lo = keys[100];
    let hi = keys[160];
    let scan = client.range(lo, hi, 0).unwrap();
    assert_eq!(scan.records.len(), 61);
    assert!(!scan.truncated, "a 61-record scan is nowhere near the cap");
    assert!(scan.records.windows(2).all(|w| w[0].key < w[1].key));
    let limited = client.range(lo, hi, 10).unwrap();
    assert_eq!(limited.records.len(), 10);
    assert!(!limited.truncated, "a satisfied limit is not truncation");

    // Write batches report fresh inserts and remove hits.
    let (fresh, hits) = client
        .write_batch(&[
            WriteOp::Insert {
                key: absent,
                value: 1,
            },
            WriteOp::Insert {
                key: absent,
                value: 2,
            },
            WriteOp::Remove { key: absent },
            WriteOp::Remove { key: absent },
        ])
        .unwrap();
    assert_eq!((fresh, hits), (1, 1));

    // Stats reflect the configuration.
    let stats = client.stats().unwrap();
    assert_eq!(stats.keys, keys.len() as u64);
    assert_eq!(stats.shards, 4);
    assert_eq!(stats.workers, 2);
    assert!(stats.rcu);
    assert!(stats.engine_healthy, "no engine, nothing to be unhealthy");
    assert!(!stats.maintenance);
    assert!(stats.connections >= 1);
    assert!(stats.ops >= 10);

    client.shutdown().unwrap();
    let report = handle.join();
    assert!(report.ops >= 10);
    assert!(report.engine_healthy);
    assert_eq!(report.protocol_errors, 0);
}

/// The acceptance pin: a `MultiGet` frame returns exactly what N
/// individual `Get` frames return, in order, hits and misses mixed.
#[test]
fn multi_get_over_the_wire_equals_n_individual_gets() {
    let keys = Dataset::Osm.generate(30_000, 7);
    let (handle, index) = serve_btree(&keys, 2);
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // Dirty the overlays so the batch crosses base + overlay + tombstones.
    for &k in keys.iter().step_by(31) {
        client.insert(k, k ^ 0xF00D).unwrap();
    }
    for &k in keys.iter().step_by(57) {
        client.remove(k).unwrap();
    }

    let mut batch: Vec<u64> = keys.iter().copied().step_by(13).take(400).collect();
    batch.push(keys.last().unwrap() + 100); // miss above the key space
    batch.push(0); // miss below (genome keys are large)
    batch.reverse();

    let batched = client.multi_get(&batch).unwrap();
    let individual: Vec<Option<u64>> = batch.iter().map(|&k| client.get(k).unwrap()).collect();
    assert_eq!(batched, individual);

    // And both agree with the index the server is actually serving.
    let local: Vec<Option<u64>> = batch.iter().map(|&k| index.get(k)).collect();
    assert_eq!(batched, local);

    // Empty batches are legal.
    assert!(client.multi_get(&[]).unwrap().is_empty());

    client.shutdown().unwrap();
    handle.join();
}

/// The streaming-scan acceptance pins, over the wire: a `Range` frame
/// returns exactly what the index's materialised `range` returns
/// (overlays dirtied), and a scan wider than one frame's
/// record capacity comes back truncated — a typed flag on a complete
/// prefix, never a protocol error — and can be continued from the last
/// key to cover the whole range.
#[test]
fn range_over_the_wire_streams_truncates_and_continues() {
    // Dense sequential keys so a full-range scan comfortably exceeds the
    // ~65k records one 1 MiB frame can carry.
    let keys: Vec<u64> = (0..80_000u64).map(|i| i * 2).collect();
    let (handle, index) = serve_btree(&keys, 2);
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // Dirty the overlays so the scan merges base + upserts + tombstones.
    for &k in keys.iter().step_by(97) {
        client.insert(k, k ^ 0xBEEF).unwrap();
    }
    for &k in keys.iter().step_by(41) {
        client.remove(k).unwrap();
    }

    // Interior scan: wire result ≡ the served index's materialised range.
    let (lo, hi) = (keys[1_000], keys[2_000]);
    let scan = client.range(lo, hi, 0).unwrap();
    assert!(!scan.truncated);
    assert_eq!(scan.records, index.range(lo, hi));

    // Full-range scan: more records exist than fit one frame, so the
    // server truncates at the cap and says so.
    let expected = index.range(0, u64::MAX);
    assert!(expected.len() > csv_server::MAX_RECORDS_PER_FRAME);
    let first = client.range(0, u64::MAX, 0).unwrap();
    assert!(first.truncated, "an over-cap scan must report truncation");
    assert_eq!(first.records.len(), csv_server::MAX_RECORDS_PER_FRAME);
    assert_eq!(first.records[..], expected[..first.records.len()]);

    // The truncated prefix is resumable: continue from the last key + 1
    // until the server stops truncating, then compare the whole set.
    let mut all = first.records.clone();
    let mut truncated = first.truncated;
    while truncated {
        let next = client
            .range(all.last().unwrap().key + 1, u64::MAX, 0)
            .unwrap();
        all.extend_from_slice(&next.records);
        truncated = next.truncated;
    }
    assert_eq!(all, expected);

    client.shutdown().unwrap();
    handle.join();
}

/// A hostile byte stream closes only its own connection: the worker
/// answers with a typed error frame, drops the connection, and keeps
/// serving everyone else.
#[test]
fn hostile_bytes_close_only_their_own_connection() {
    let keys = Dataset::Genome.generate(5_000, 3);
    let (handle, _index) = serve_btree(&keys, 1); // one worker owns both conns
    let addr = handle.local_addr();
    let mut good = Client::connect(addr).unwrap();
    assert_eq!(good.get(keys[0]).unwrap(), Some(keys[0]));

    for hostile_bytes in [
        b"GET / HTTP/1.1\r\nHost: x\r\n\r\n".to_vec(), // not our protocol at all
        {
            // Valid header, payload with a broken CRC.
            let mut buf = Vec::new();
            csv_server::encode_request(&Request::Get { key: 1 }, &mut buf);
            *buf.last_mut().unwrap() ^= 0xFF;
            buf
        },
        (2u32 << 20)
            .to_le_bytes()
            .iter()
            .chain([0u8; 4].iter())
            .copied()
            .collect(), // oversized
    ] {
        let mut evil = Client::connect(addr).unwrap();
        evil.send_raw(&hostile_bytes).unwrap();
        // The server answers with an error frame (best-effort) and closes.
        let goodbye = evil.read_until_closed();
        assert!(
            !goodbye.is_empty(),
            "the worker should explain before hanging up"
        );
        // The well-behaved connection on the same worker is unaffected.
        assert_eq!(good.get(keys[1]).unwrap(), Some(keys[1]));
    }

    good.shutdown().unwrap();
    let report = handle.join();
    assert_eq!(report.protocol_errors, 3);
    assert!(report.engine_healthy);
}

/// The maintenance engine runs behind the socket: `Stats` surfaces its
/// health while it ticks, and shutdown joins it and returns its stats.
#[test]
fn maintenance_engine_rides_behind_the_socket() {
    let keys = Dataset::Genome.generate(30_000, 11);
    let index = Arc::new(ShardedIndex::<LippIndex>::bulk_load(
        &identity_records(&keys),
        ShardingConfig::with_shards(4),
    ));
    let engine = MaintenanceEngine::new(
        CsvOptimizer::new(CsvConfig::for_lipp(0.1)),
        MaintenanceConfig::default(),
    );
    let engine_handle = engine.spawn(Arc::clone(&index));
    let handle = spawn(
        index,
        Some(engine_handle),
        ServerConfig {
            port: 0,
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut client = Client::connect(handle.local_addr()).unwrap();
    // Churn a little so the engine has something to look at.
    for &k in keys.iter().step_by(9).take(2_000) {
        client.insert(k, k + 1).unwrap();
    }
    let stats = client.stats().unwrap();
    assert!(stats.maintenance, "the engine is attached");
    assert!(stats.engine_healthy, "and has not panicked");

    client.shutdown().unwrap();
    let report = handle.join();
    assert!(report.engine_healthy);
    assert!(
        report.engine_stats.is_some(),
        "a clean shutdown returns the engine's stats"
    );
}

/// The load generator completes a short YCSB-B run against a live server,
/// reports nonzero completed operations and a populated histogram, and
/// shuts the server down cleanly.
#[test]
fn loadgen_completes_a_ycsb_b_run_and_shuts_the_server_down() {
    let size = 20_000;
    let seed = 21;
    let keys = Dataset::Genome.generate(size, seed);
    let (handle, _index) = serve_btree(&keys, 2);

    let report = run_loadgen(&LoadgenConfig {
        addr: handle.local_addr().to_string(),
        connections: 3,
        duration: Duration::from_millis(400),
        mix: MixChoice::YcsbB,
        dataset: Dataset::Genome,
        size,
        seed,
        batch: 16,
        write_batch: 8,
        range: 0,
        ops_per_conn: 5_000,
        shutdown: true,
    })
    .expect("the run must complete");

    assert!(report.completed > 0, "a live server must serve operations");
    assert_eq!(report.connections, 3);
    assert!(report.latency.count() > 0);
    assert!(report.throughput() > 0.0);
    let rendered = report.render();
    assert!(rendered.contains("ops/s"));
    assert!(rendered.contains("p99.9="));

    // --shutdown stopped the server; join returns promptly with counters.
    let server_report = handle.join();
    assert!(server_report.ops > 0);
    assert!(server_report.connections >= 4, "3 loadgen + 1 shutdown");
    assert!(server_report.engine_healthy);
}

/// `ServerHandle::shutdown` stops a server from the handle side even with
/// clients connected and idle.
#[test]
fn handle_side_shutdown_stops_an_idle_server() {
    let keys = Dataset::Genome.generate(2_000, 1);
    let (handle, _index) = serve_btree(&keys, 2);
    let mut client = Client::connect(handle.local_addr()).unwrap();
    assert_eq!(client.get(keys[5]).unwrap(), Some(keys[5]));
    assert!(!handle.is_stopping());
    let report = handle.shutdown();
    assert!(report.connections >= 1);
    assert!(report.engine_healthy);
}
