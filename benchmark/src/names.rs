//! The normative workload and metric names, with their units.
//!
//! `BENCHMARK.json` at the repository root declares the same names (plus
//! direction and regression bound); `tests/smoke.rs` asserts the two agree
//! exactly. Later issues refer to metrics and workloads by these names.

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}
use Better::{Higher, Lower};

/// Name, unit and direction of one metric.
pub type Metric = (&'static str, &'static str, Better);

/// Units of metrics that are counted or computed, not timed: they repeat
/// exactly for the same inputs, so a run reports the value it saw last
/// instead of a quantile over its passes.
pub const COUNTED_UNITS: [&str; 4] = ["count", "levels", "B", "share"];

/// The four workloads. Every run walks the same service lifecycle, one
/// segment per name, because the driver wants every metric from every run;
/// `--workload` names the segment that gets most of the measured seconds.
pub const WORKLOADS: [&str; 4] = ["lookup-bare", "serve-read", "serve-mixed", "ingest-recover"];

/// End-to-end metrics, reported by a run with tracing off.
pub const END_TO_END: &[Metric] = &[
    ("setup_s", "s", Lower),
    ("lookup_ns", "ns", Lower),
    ("deep_lookup_ns", "ns", Lower),
    ("mean_key_level", "levels", Lower),
    ("bytes_per_key", "B", Lower),
    ("get_p50_us", "us", Lower),
    ("multi_get64_p50_us", "us", Lower),
    ("range100_p50_us", "us", Lower),
    ("pipelined_get_ops_s", "ops/s", Higher),
    ("read_service_p50_us", "us", Lower),
    ("write_ops_s", "ops/s", Higher),
    ("maintain_s", "s", Lower),
    ("recover_s", "s", Lower),
    ("disk_bytes_per_key", "B", Lower),
];

/// Per-layer metrics, reported by a traced run. Layers are named after the
/// crates and modules that do the work.
pub const PER_LAYER: &[Metric] = &[
    // csv_core
    ("core.optimize_s.lipp_osm", "s", Lower),
    ("core.optimize_s.alex_osm", "s", Lower),
    ("core.optimize_s.lipp_genome", "s", Lower),
    ("core.plan_s.lipp_osm", "s", Lower),
    ("core.apply_s.lipp_osm", "s", Lower),
    ("core.gap_refits.lipp_osm", "count", Lower),
    ("core.fallback_rescans.lipp_osm", "count", Lower),
    ("core.virtual_points.lipp_osm", "count", Lower),
    ("core.refits_per_s.lipp_osm", "1/s", Higher),
    // csv_lipp, csv_alex, csv_sali, csv_pgm, csv_btree
    ("index.lipp.get_ns", "ns", Lower),
    ("index.lipp.get_ns_unsmoothed", "ns", Lower),
    ("index.lipp.get_deep_ns_unsmoothed", "ns", Lower),
    ("index.lipp.mean_key_level_unsmoothed", "levels", Lower),
    ("index.lipp.bulk_load_s", "s", Lower),
    ("index.lipp.range100_us", "us", Lower),
    ("index.lipp.insert_ns", "ns", Lower),
    ("index.lipp_genome.get_ns", "ns", Lower),
    ("index.alex.get_ns", "ns", Lower),
    ("index.alex.get_ns_unsmoothed", "ns", Lower),
    ("index.alex.mean_key_level", "levels", Lower),
    ("index.alex.mean_key_level_unsmoothed", "levels", Lower),
    ("index.alex.range100_us", "us", Lower),
    ("index.sali.get_ns", "ns", Lower),
    ("index.pgm.get_ns", "ns", Lower),
    ("index.btree.get_ns", "ns", Lower),
    ("index.btree.range100_us", "us", Lower),
    ("index.lookup_p99_ns", "ns", Lower),
    // csv_concurrent::sharded
    ("concurrent.view_get_ns", "ns", Lower),
    ("concurrent.get_ns", "ns", Lower),
    ("concurrent.multi_get64_ns_per_key", "ns", Lower),
    ("concurrent.range100_us", "us", Lower),
    ("concurrent.read_view_pin_ns", "ns", Lower),
    ("concurrent.insert_ns", "ns", Lower),
    ("concurrent.write_batch64_ns_per_op", "ns", Lower),
    ("concurrent.route_overhead_ns", "ns", Lower),
    // csv_concurrent::{pmap, rcu}
    ("concurrent.pmap.insert_ns", "ns", Lower),
    ("concurrent.pmap.get_ns", "ns", Lower),
    ("concurrent.rcu.publish_ns", "ns", Lower),
    // csv_concurrent::maintenance
    ("concurrent.maintain.actions", "count", Lower),
    ("concurrent.maintain.pass_ms_p50", "ms", Lower),
    ("concurrent.maintain.pass_ms_max", "ms", Lower),
    ("concurrent.maintain.refits", "count", Lower),
    ("concurrent.maintain.mean_key_level_drift", "levels", Higher),
    ("concurrent.maintain.mean_key_level_after", "levels", Lower),
    ("concurrent.maintain.bytes_per_key_after", "B", Lower),
    // csv_durability
    ("durability.wal_append_ns", "ns", Lower),
    ("durability.wal_append_batch64_ns_per_record", "ns", Lower),
    ("durability.wal_bytes_per_record", "B", Lower),
    ("durability.write_overhead_ns", "ns", Lower),
    ("durability.checkpoint_ms_per_shard", "ms", Lower),
    ("durability.checkpoint_bytes_per_key", "B", Lower),
    ("durability.replay_records_per_s", "1/s", Higher),
    ("durability.wal_records", "count", Lower),
    ("durability.checkpoints", "count", Lower),
    // csv_server::codec
    ("server.codec.get_roundtrip_ns", "ns", Lower),
    ("server.codec.multi_get64_ns", "ns", Lower),
    ("server.codec.range100_ns", "ns", Lower),
    // csv_server worker loop + sockets (residual), and the read tails
    ("server.wire.get_overhead_us", "us", Lower),
    ("server.wire.pipelined_overhead_ns_per_op", "ns", Lower),
    ("server.wire.connect_us", "us", Lower),
    ("server.read.get_p99_us", "us", Lower),
    ("server.read.multi_get64_p99_us", "us", Lower),
    ("server.read.range100_p99_us", "us", Lower),
    // the serve-mixed segment, seen from its client
    ("server.mixed.slo_miss_share", "share", Lower),
    ("server.mixed.write_service_p50_us", "us", Lower),
    ("server.mixed.scan_service_p50_us", "us", Lower),
    ("server.mixed.read_p99_us", "us", Lower),
    ("server.mixed.write_p99_us", "us", Lower),
    ("server.mixed.stall_max_ms", "ms", Lower),
    ("server.mixed.stalled_s", "s", Lower),
    ("server.mixed.generator_late_max_ms", "ms", Lower),
    ("server.mixed.engine_passes", "count", Lower),
    // the benchmark itself
    ("bench.trace_overhead_share", "share", Lower),
    ("bench.samples.setup_s", "count", Higher),
    ("bench.samples.lookup_ns", "count", Higher),
    ("bench.samples.get_p50_us", "count", Higher),
    ("bench.samples.pipelined_get_ops_s", "count", Higher),
    ("bench.samples.read_service_p50_us", "count", Higher),
    ("bench.samples.write_ops_s", "count", Higher),
    ("bench.samples.maintain_s", "count", Higher),
    ("bench.samples.recover_s", "count", Higher),
];
