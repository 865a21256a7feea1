//! The CLI driver: build → (optional) CSV optimisation → workload replay →
//! report.

use crate::args::{CliArgs, CliError, IndexChoice, WorkloadChoice};
use csv_alex::AlexIndex;
use csv_btree::BPlusTree;
use csv_common::latency::LatencyHistogram;
use csv_common::traits::SnapshotIndex;
use csv_common::traits::{IndexStats, LearnedIndex, RangeIndex, RemovableIndex};
use csv_common::Key;
use csv_concurrent::{
    DurabilitySink, MaintenanceConfig, MaintenanceEngine, ShardedIndex, ShardingConfig,
};
use csv_core::cost::CostModel;
use csv_core::{CsvConfig, CsvConfigBuilder, CsvIntegrable, CsvOptimizer, CsvReport};
use csv_datasets::{
    io, MixedWorkload, MixedWorkloadSpec, Operation, OperationMix, Popularity, ReadOnlyWorkload,
};
use csv_durability::{recover, DurabilityConfig, FileSink};
use csv_lipp::LippIndex;
use csv_pgm::PgmIndex;
use csv_sali::SaliIndex;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything the run produced, returned for tests and printed by `main`.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Index display name.
    pub index_name: &'static str,
    /// Number of keys loaded.
    pub keys_loaded: usize,
    /// Structure statistics before CSV.
    pub stats_before: IndexStats,
    /// Structure statistics after CSV (equal to `stats_before` when CSV was
    /// skipped).
    pub stats_after: IndexStats,
    /// CSV run report, when CSV was applied.
    pub csv_report: Option<CsvReport>,
    /// Number of workload operations replayed.
    pub operations: usize,
    /// Point lookups that found their key.
    pub hits: usize,
    /// Records returned by range scans.
    pub scanned: usize,
    /// Per-operation latency histogram.
    pub latency: LatencyHistogram,
    /// The CSV plan as JSON, set only in `--dry-run` mode (where nothing is
    /// applied or replayed).
    pub plan_json: Option<String>,
    /// The with/without-maintenance comparison, set only in `--maintain`
    /// mode.
    pub maintain: Option<MaintainComparison>,
    /// What the durable sink persisted, set only with `--durability`.
    pub durability: Option<DurabilitySummary>,
    /// What recovery found and replayed, set only in `--recover` mode.
    pub recovery: Option<RecoverySummary>,
    /// What the serving front-end counted, set only in `--serve` mode.
    pub serve: Option<ServeSummary>,
}

/// What a `--serve` session counted between bind and shutdown.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// The address the server listened on.
    pub addr: String,
    /// Worker threads that served connections.
    pub workers: usize,
    /// Connections accepted over the session.
    pub connections: u64,
    /// Operations served (batch entries count once each).
    pub ops: u64,
    /// Connections dropped for sending malformed frames.
    pub protocol_errors: u64,
    /// `false` when the background maintenance engine panicked.
    pub engine_healthy: bool,
    /// Incremental shard-maintenance passes the engine performed.
    pub maintenance_passes: usize,
    /// Shard splits the engine performed.
    pub shard_splits: usize,
    /// Shard merges the engine performed.
    pub shard_merges: usize,
}

impl ServeSummary {
    /// One line summarising the serving session.
    pub fn summary_line(&self) -> String {
        format!(
            "{} with {} workers; {} connections, {} ops, {} protocol errors; engine {} ({} passes, {} splits, {} merges)",
            self.addr,
            self.workers,
            self.connections,
            self.ops,
            self.protocol_errors,
            if self.engine_healthy { "healthy" } else { "PANICKED" },
            self.maintenance_passes,
            self.shard_splits,
            self.shard_merges
        )
    }
}

/// What the per-shard checkpoint + WAL sink persisted during a
/// `--durability` run.
#[derive(Debug, Clone)]
pub struct DurabilitySummary {
    /// Directory the store lives in.
    pub data_dir: PathBuf,
    /// Checkpoints written (the bulk-load seed plus every fold, split,
    /// merge, maintenance pass and backlog-triggered checkpoint tick).
    pub checkpoints: u64,
    /// WAL records appended (one per acknowledged overlay write).
    pub wal_records: u64,
}

/// What `--recover` rebuilt from the store on disk.
#[derive(Debug, Clone)]
pub struct RecoverySummary {
    /// Shards in the recovered layout.
    pub shards: usize,
    /// Live keys after checkpoint load + WAL replay.
    pub keys: usize,
    /// WAL records replayed over the checkpoints across all shards.
    pub replayed: u64,
    /// Shards whose WAL ended in a torn or corrupt tail (degraded past;
    /// expected after a crash).
    pub torn_shards: usize,
    /// Wall-clock recovery time, excluding the re-checkpoint that re-opens
    /// the store for writing.
    pub elapsed: Duration,
}

/// What `--maintain` measures: the same mixed workload replayed over the
/// sharded index twice — once with the background maintenance engine
/// ticking, once without — with point-lookup latencies recorded separately
/// so the structural drift shows up where it hurts.
#[derive(Debug, Clone)]
pub struct MaintainComparison {
    /// Point-lookup latencies with background maintenance running.
    pub with_maintenance: LatencyHistogram,
    /// Point-lookup latencies without any maintenance.
    pub without_maintenance: LatencyHistogram,
    /// Incremental shard-maintenance passes the engine performed.
    pub maintenance_passes: usize,
    /// Shard splits the engine performed.
    pub shard_splits: usize,
    /// Shard merges the engine performed.
    pub shard_merges: usize,
    /// Shard count at the end of the maintained run.
    pub final_shards: usize,
}

impl MaintainComparison {
    /// One line comparing the two lookup-latency distributions.
    pub fn summary_line(&self) -> String {
        format!(
            "{} passes, {} splits, {} merges, {} shards; lookups with maintenance p50={}ns p99={}ns, without p50={}ns p99={}ns",
            self.maintenance_passes,
            self.shard_splits,
            self.shard_merges,
            self.final_shards,
            self.with_maintenance.p50_ns(),
            self.with_maintenance.p99_ns(),
            self.without_maintenance.p50_ns(),
            self.without_maintenance.p99_ns()
        )
    }
}

impl RunSummary {
    /// Renders the human-readable report the binary prints (or, in
    /// `--dry-run` mode, just the JSON plan so the output stays pipeable).
    pub fn render(&self) -> String {
        if let Some(json) = &self.plan_json {
            return format!("{json}\n");
        }
        let mut out = String::new();
        out.push_str(&format!(
            "index: {} ({} keys, height {}, {} nodes, {:.1} MiB)\n",
            self.index_name,
            self.keys_loaded,
            self.stats_after.height,
            self.stats_after.node_count,
            self.stats_after.size_bytes as f64 / (1024.0 * 1024.0)
        ));
        if let Some(report) = &self.csv_report {
            out.push_str(&format!(
                "csv: {} of {} sub-trees rebuilt ({} skipped, {} declined), {} virtual points, {} refits ({} fallback rescans) in {:.2}s, mean key level {:.2} -> {:.2}, size {:+.1}%\n",
                report.subtrees_rebuilt,
                report.subtrees_considered(),
                report.subtrees_skipped(),
                report.rebuilds_declined(),
                report.virtual_points_added,
                report.gap_refits,
                report.smoothing.fallback_rescans,
                report.preprocessing_time.as_secs_f64(),
                self.stats_before.mean_key_level(),
                self.stats_after.mean_key_level(),
                (self.stats_after.size_bytes as f64 / self.stats_before.size_bytes.max(1) as f64 - 1.0)
                    * 100.0
            ));
        }
        // A served run has no local replay: its operation counts and
        // latency live on the client side (the load generator prints
        // them), so the workload/latency lines would only show zeros.
        if self.serve.is_none() {
            out.push_str(&format!(
                "workload: {} operations, {} hits, {} records scanned\n",
                self.operations, self.hits, self.scanned
            ));
            out.push_str(&format!("latency: {}\n", self.latency.summary_line()));
        }
        if let Some(maintain) = &self.maintain {
            out.push_str(&format!("maintain: {}\n", maintain.summary_line()));
        }
        if let Some(durability) = &self.durability {
            out.push_str(&format!(
                "durability: {} checkpoints, {} wal records in {}\n",
                durability.checkpoints,
                durability.wal_records,
                durability.data_dir.display()
            ));
        }
        if let Some(recovery) = &self.recovery {
            out.push_str(&format!(
                "recovery: {} shards, {} keys, {} wal records replayed ({} torn shards) in {:.2}ms\n",
                recovery.shards,
                recovery.keys,
                recovery.replayed,
                recovery.torn_shards,
                recovery.elapsed.as_secs_f64() * 1_000.0
            ));
        }
        if let Some(serve) = &self.serve {
            out.push_str(&format!("serve: {}\n", serve.summary_line()));
        }
        out
    }
}

/// Runs the whole pipeline described by `args`.
pub fn run(args: &CliArgs) -> Result<RunSummary, CliError> {
    // `0` keeps rayon's auto-detected width (one worker per core).
    csv_core::configure_global_threads(args.threads);
    if args.recover {
        // Recovery needs no dataset: the store on disk is the input.
        return match args.index {
            IndexChoice::Alex => recover_run::<AlexIndex>(args),
            IndexChoice::Lipp => recover_run::<LippIndex>(args),
            IndexChoice::Sali => recover_run::<SaliIndex>(args),
            IndexChoice::Pgm => recover_run::<PgmIndex>(args),
            IndexChoice::Btree => recover_run::<BPlusTree>(args),
        };
    }
    if args.dry_run {
        if !args.index.supports_csv() {
            return Err(CliError::new(format!(
                "--dry-run plans a CSV optimisation, which {} does not support (use alex|lipp|sali)",
                args.index.name()
            )));
        }
        if args.alpha <= 0.0 {
            return Err(CliError::new(
                "--dry-run requires --alpha > 0 (alpha 0 disables CSV)",
            ));
        }
    }
    if args.maintain {
        if args.dry_run {
            return Err(CliError::new(
                "--maintain and --dry-run are mutually exclusive",
            ));
        }
        if !args.index.supports_csv() {
            return Err(CliError::new(format!(
                "--maintain re-optimises via CSV, which {} does not support (use alex|lipp|sali)",
                args.index.name()
            )));
        }
        if args.alpha <= 0.0 {
            return Err(CliError::new(
                "--maintain requires --alpha > 0 (alpha 0 disables CSV)",
            ));
        }
    }
    if args.serve {
        // Serving keeps the maintenance engine ticking behind the socket,
        // so it needs a CSV-capable index, like --maintain.
        if !args.index.supports_csv() {
            return Err(CliError::new(format!(
                "--serve maintains the index via CSV, which {} does not support (use alex|lipp|sali)",
                args.index.name()
            )));
        }
        if args.alpha <= 0.0 {
            return Err(CliError::new(
                "--serve requires --alpha > 0 (alpha 0 disables CSV)",
            ));
        }
    }
    let keys = load_keys(args)?;
    if keys.len() < 2 {
        return Err(CliError::new(
            "the dataset must contain at least two unique keys",
        ));
    }
    if args.serve {
        return match args.index {
            IndexChoice::Alex => serve_run::<AlexIndex>(&keys, args, true),
            IndexChoice::Lipp => serve_run::<LippIndex>(&keys, args, false),
            IndexChoice::Sali => serve_run::<SaliIndex>(&keys, args, false),
            _ => unreachable!("validated above"),
        };
    }
    if args.maintain {
        return match args.index {
            IndexChoice::Alex => maintained_run::<AlexIndex>(&keys, args, true),
            IndexChoice::Lipp => maintained_run::<LippIndex>(&keys, args, false),
            IndexChoice::Sali => maintained_run::<SaliIndex>(&keys, args, false),
            _ => unreachable!("validated above"),
        };
    }
    match args.index {
        IndexChoice::Alex => {
            let mut index = AlexIndex::bulk_load(&csv_common::key::identity_records(&keys));
            if args.dry_run {
                return Ok(dry_run(&index, args, true));
            }
            let (before, report, after) = optimize(&mut index, args, true);
            Ok(replay(index, &keys, args, before, report, after))
        }
        IndexChoice::Lipp => {
            let mut index = LippIndex::bulk_load(&csv_common::key::identity_records(&keys));
            if args.dry_run {
                return Ok(dry_run(&index, args, false));
            }
            let (before, report, after) = optimize(&mut index, args, false);
            Ok(replay(index, &keys, args, before, report, after))
        }
        IndexChoice::Sali => {
            let mut index = SaliIndex::bulk_load(&csv_common::key::identity_records(&keys));
            if args.dry_run {
                return Ok(dry_run(&index, args, false));
            }
            let (before, report, after) = optimize(&mut index, args, false);
            Ok(replay(index, &keys, args, before, report, after))
        }
        IndexChoice::Pgm => {
            let index = PgmIndex::bulk_load(&csv_common::key::identity_records(&keys));
            let stats = index.stats();
            Ok(replay(index, &keys, args, stats.clone(), None, stats))
        }
        IndexChoice::Btree => {
            let index = BPlusTree::bulk_load(&csv_common::key::identity_records(&keys));
            let stats = index.stats();
            Ok(replay(index, &keys, args, stats.clone(), None, stats))
        }
    }
}

fn load_keys(args: &CliArgs) -> Result<Vec<Key>, CliError> {
    match &args.dataset_file {
        Some(path) => io::load_keys_normalized(path)
            .map_err(|e| CliError::new(format!("failed to load {}: {e}", path.display()))),
        None => Ok(args.dataset.generate(args.size, args.seed)),
    }
}

fn csv_config(args: &CliArgs, is_alex: bool) -> CsvConfig {
    let builder = if is_alex {
        CsvConfigBuilder::alex(CostModel::default())
    } else {
        CsvConfigBuilder::lipp()
    };
    builder
        .alpha(args.alpha)
        .greedy(args.greedy)
        .drift_tolerance(args.drift_tolerance)
        .build()
}

fn optimize<I: LearnedIndex + csv_core::CsvIntegrable + Sync>(
    index: &mut I,
    args: &CliArgs,
    is_alex: bool,
) -> (IndexStats, Option<CsvReport>, IndexStats) {
    let before = index.stats();
    if args.alpha <= 0.0 {
        return (before.clone(), None, before);
    }
    let optimizer = CsvOptimizer::new(csv_config(args, is_alex));
    let report = if args.threads == 1 {
        optimizer.optimize(index)
    } else {
        optimizer.optimize_parallel(index)
    };
    let after = index.stats();
    (before, Some(report), after)
}

/// `--dry-run`: computes the plan against the freshly built index and
/// renders it as JSON; the index is never mutated and no workload runs.
///
/// For single-level sweeps (LIPP/SALI) the plan is exactly what the real
/// run applies. ALEX sweeps multiple levels, and a real run re-plans each
/// level after the deeper rebuilds have happened, so a dry-run plan's
/// upper-level decisions are a snapshot approximation (see
/// [`CsvOptimizer::plan`]); the usage text says so.
fn dry_run<I: LearnedIndex + csv_core::CsvIntegrable + Sync>(
    index: &I,
    args: &CliArgs,
    is_alex: bool,
) -> RunSummary {
    let optimizer = CsvOptimizer::new(csv_config(args, is_alex));
    let plan = if args.threads == 1 {
        optimizer.plan(index)
    } else {
        optimizer.plan_parallel(index)
    };
    let stats = index.stats();
    RunSummary {
        index_name: index.name(),
        keys_loaded: stats.num_keys,
        stats_before: stats.clone(),
        stats_after: stats,
        csv_report: None,
        operations: 0,
        hits: 0,
        scanned: 0,
        latency: LatencyHistogram::new(),
        plan_json: Some(plan.to_json()),
        maintain: None,
        durability: None,
        recovery: None,
        serve: None,
    }
}

/// The sharded-index layout `--maintain`/`--recover` runs use, built from
/// the CLI knobs (`--shards`, `--overlay-capacity`).
fn sharding_config(args: &CliArgs) -> ShardingConfig {
    ShardingConfig::with_shards(args.shards).with_overlay_capacity(args.overlay_capacity)
}

/// `--recover`: rebuilds the sharded index from the durable store in
/// `--data-dir` (checkpoints + WAL replay) and reports what recovery found
/// — no dataset is generated and no workload runs.
fn recover_run<I>(args: &CliArgs) -> Result<RunSummary, CliError>
where
    I: LearnedIndex + RangeIndex,
{
    let data_dir = args.data_dir.as_ref().expect("validated at parse time");
    let recovered = recover::<I>(DurabilityConfig::new(data_dir), sharding_config(args))
        .map_err(|e| CliError::new(format!("--recover: {e}")))?;
    let stats = recovered.index.stats();
    let report = &recovered.report;
    Ok(RunSummary {
        index_name: args.index.name(),
        keys_loaded: report.keys,
        stats_before: stats.clone(),
        stats_after: stats,
        csv_report: None,
        operations: 0,
        hits: 0,
        scanned: 0,
        latency: LatencyHistogram::new(),
        plan_json: None,
        maintain: None,
        durability: None,
        recovery: Some(RecoverySummary {
            shards: report.shards.len(),
            keys: report.keys,
            replayed: report.replayed(),
            torn_shards: report.torn_shards(),
            elapsed: report.elapsed,
        }),
        serve: None,
    })
}

/// `--serve`: builds the sharded index exactly like `--maintain` does
/// (bulk load → CSV optimise → spawn the maintenance engine), then hands
/// it to the `csv_server` front-end and blocks until a client sends the
/// protocol's `Shutdown` operation. The listening line is printed (and
/// flushed) before blocking so a supervising process — CI's smoke test,
/// a benchmark script — knows when to start its load generator.
fn serve_run<I>(keys: &[Key], args: &CliArgs, is_alex: bool) -> Result<RunSummary, CliError>
where
    I: SnapshotIndex + RangeIndex + RemovableIndex + CsvIntegrable + 'static,
{
    let records = csv_common::key::identity_records(keys);
    let optimizer = CsvOptimizer::new(csv_config(args, is_alex));
    let sink = if args.durability {
        let data_dir = args.data_dir.as_ref().expect("validated at parse time");
        let sink = FileSink::create(DurabilityConfig::new(data_dir))
            .map_err(|e| CliError::new(format!("--durability: {e}")))?;
        Some(Arc::new(sink))
    } else {
        None
    };
    let sharded = match &sink {
        Some(sink) => Arc::new(ShardedIndex::<I>::bulk_load_durable(
            &records,
            sharding_config(args),
            Arc::clone(sink) as Arc<dyn DurabilitySink>,
        )),
        None => Arc::new(ShardedIndex::<I>::bulk_load(
            &records,
            sharding_config(args),
        )),
    };
    let stats_before = sharded.stats();
    sharded.optimize(&optimizer);
    let stats_after = sharded.stats();
    let engine = MaintenanceEngine::new(optimizer, MaintenanceConfig::default());
    let engine_handle = engine.spawn(Arc::clone(&sharded));
    let workers = args
        .workers
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(2, |n| n.get()));
    let handle = csv_server::spawn(
        Arc::clone(&sharded),
        Some(engine_handle),
        csv_server::ServerConfig {
            port: args.port,
            workers,
            ..csv_server::ServerConfig::default()
        },
    )
    .map_err(|e| CliError::new(format!("--serve: failed to bind port {}: {e}", args.port)))?;
    let addr = handle.local_addr().to_string();
    println!(
        "serving: {addr} ({workers} workers, {} shards, {} keys)",
        sharded.num_shards(),
        keys.len()
    );
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    let report = handle.join();
    let engine_stats = report.engine_stats.unwrap_or_default();
    let durability = sink.map(|sink| {
        let persisted = sink.stats();
        DurabilitySummary {
            data_dir: sink.data_dir().to_path_buf(),
            checkpoints: persisted.checkpoints,
            wal_records: persisted.wal_records,
        }
    });
    Ok(RunSummary {
        index_name: args.index.name(),
        keys_loaded: keys.len(),
        stats_before,
        stats_after,
        csv_report: None,
        operations: report.ops as usize,
        hits: 0,
        scanned: 0,
        latency: LatencyHistogram::new(),
        plan_json: None,
        maintain: None,
        durability,
        recovery: None,
        serve: Some(ServeSummary {
            addr,
            workers,
            connections: report.connections,
            ops: report.ops,
            protocol_errors: report.protocol_errors,
            engine_healthy: report.engine_healthy,
            maintenance_passes: engine_stats.maintain_passes,
            shard_splits: engine_stats.splits,
            shard_merges: engine_stats.merges,
        }),
    })
}

/// The per-run result of one `--maintain` replay (with or without the
/// engine ticking in the background).
struct MaintainedReplay {
    lookups: LatencyHistogram,
    all_ops: LatencyHistogram,
    hits: usize,
    scanned: usize,
    passes: usize,
    splits: usize,
    merges: usize,
    stats_before: IndexStats,
    stats_after: IndexStats,
    shards: usize,
    durability: Option<DurabilitySummary>,
}

/// `--maintain`: replays the workload over a [`ShardedIndex`] (on the read
/// path chosen by `--read-path`) twice — first with the engine-owned
/// background thread ([`MaintenanceEngine::spawn`]) splitting outgrown
/// shards, merging drained ones and incrementally re-smoothing the
/// stalest, then with no maintenance at all — and reports the point-lookup
/// latency comparison. Both runs start from the same freshly optimised
/// sharded index, so the only difference is whether the smoothed layout is
/// allowed to erode.
fn maintained_run<I>(keys: &[Key], args: &CliArgs, is_alex: bool) -> Result<RunSummary, CliError>
where
    I: SnapshotIndex + RangeIndex + RemovableIndex + CsvIntegrable + 'static,
{
    let records = csv_common::key::identity_records(keys);
    let operations = build_operations(keys, args);
    let optimizer = CsvOptimizer::new(csv_config(args, is_alex));

    let replay_once = |maintain: bool| -> Result<MaintainedReplay, CliError> {
        // Only the maintained run persists: durability rides the engine's
        // checkpoint ticks, and one store per directory keeps `--recover`
        // unambiguous about which run it resumes.
        let sink = if maintain && args.durability {
            let data_dir = args.data_dir.as_ref().expect("validated at parse time");
            let sink = FileSink::create(DurabilityConfig::new(data_dir))
                .map_err(|e| CliError::new(format!("--durability: {e}")))?;
            Some(Arc::new(sink))
        } else {
            None
        };
        let sharded = match &sink {
            Some(sink) => Arc::new(ShardedIndex::<I>::bulk_load_durable(
                &records,
                sharding_config(args),
                Arc::clone(sink) as Arc<dyn DurabilitySink>,
            )),
            None => Arc::new(ShardedIndex::<I>::bulk_load(
                &records,
                sharding_config(args),
            )),
        };
        let stats_before = sharded.stats();
        // Both runs start from the smoothed layout the paper's one-shot
        // pipeline produces; the maintained run is the one that keeps it.
        sharded.optimize(&optimizer);
        let mut lookups = LatencyHistogram::new();
        let mut all_ops = LatencyHistogram::new();
        let mut hits = 0usize;
        let mut scanned = 0usize;
        let engine = MaintenanceEngine::new(optimizer.clone(), MaintenanceConfig::default());
        let handle = maintain.then(|| engine.spawn(Arc::clone(&sharded)));
        for op in &operations {
            let started = Instant::now();
            let is_lookup = matches!(op, Operation::Read(_));
            match *op {
                Operation::Read(k) => hits += usize::from(sharded.get(k).is_some()),
                Operation::Insert(k) => {
                    sharded.insert(k, k);
                }
                Operation::Remove(k) => hits += usize::from(sharded.remove(k).is_some()),
                Operation::Scan(lo, hi) => scanned += sharded.range(lo, hi).len(),
            }
            let elapsed = started.elapsed();
            all_ops.record(elapsed);
            if is_lookup {
                lookups.record(elapsed);
            }
        }
        let stats = handle.map(|h| h.stop()).unwrap_or_default();
        let durability = sink.map(|sink| {
            let persisted = sink.stats();
            DurabilitySummary {
                data_dir: sink.data_dir().to_path_buf(),
                checkpoints: persisted.checkpoints,
                wal_records: persisted.wal_records,
            }
        });
        Ok(MaintainedReplay {
            lookups,
            all_ops,
            hits,
            scanned,
            passes: stats.maintain_passes,
            splits: stats.splits,
            merges: stats.merges,
            stats_before,
            stats_after: sharded.stats(),
            shards: sharded.num_shards(),
            durability,
        })
    };

    let maintained = replay_once(true)?;
    let unmaintained = replay_once(false)?;
    Ok(RunSummary {
        index_name: args.index.name(),
        keys_loaded: keys.len(),
        stats_before: maintained.stats_before.clone(),
        stats_after: maintained.stats_after.clone(),
        csv_report: None,
        operations: operations.len(),
        hits: maintained.hits,
        scanned: maintained.scanned,
        latency: maintained.all_ops.clone(),
        plan_json: None,
        maintain: Some(MaintainComparison {
            with_maintenance: maintained.lookups,
            without_maintenance: unmaintained.lookups,
            maintenance_passes: maintained.passes,
            shard_splits: maintained.splits,
            shard_merges: maintained.merges,
            final_shards: maintained.shards,
        }),
        durability: maintained.durability,
        recovery: None,
        serve: None,
    })
}

fn replay<I: LearnedIndex + RangeIndex + RemovableIndex>(
    mut index: I,
    keys: &[Key],
    args: &CliArgs,
    stats_before: IndexStats,
    csv_report: Option<CsvReport>,
    stats_after: IndexStats,
) -> RunSummary {
    let operations = build_operations(keys, args);
    let mut latency = LatencyHistogram::new();
    let mut hits = 0usize;
    let mut scanned = 0usize;
    for op in &operations {
        let started = Instant::now();
        match *op {
            Operation::Read(k) => hits += usize::from(index.get(k).is_some()),
            Operation::Insert(k) => {
                index.insert(k, k);
            }
            Operation::Remove(k) => hits += usize::from(index.remove(k).is_some()),
            Operation::Scan(lo, hi) => scanned += index.range(lo, hi).len(),
        }
        latency.record(started.elapsed());
    }
    RunSummary {
        index_name: index.name(),
        keys_loaded: keys.len(),
        stats_before,
        stats_after,
        csv_report,
        operations: operations.len(),
        hits,
        scanned,
        latency,
        plan_json: None,
        maintain: None,
        durability: None,
        recovery: None,
        serve: None,
    }
}

fn build_operations(keys: &[Key], args: &CliArgs) -> Vec<Operation> {
    match args.workload {
        WorkloadChoice::ReadOnly => {
            ReadOnlyWorkload::uniform(keys.to_vec(), args.ops, args.seed ^ 0x5151)
                .queries
                .into_iter()
                .map(Operation::Read)
                .collect()
        }
        other => {
            let (mix, popularity) = match other {
                WorkloadChoice::YcsbA => (OperationMix::ycsb_a(), Popularity::Zipfian(0.99)),
                WorkloadChoice::YcsbB => (OperationMix::ycsb_b(), Popularity::Zipfian(0.99)),
                WorkloadChoice::YcsbE => (OperationMix::ycsb_e(), Popularity::Uniform),
                _ => (OperationMix::churn(), Popularity::Uniform),
            };
            MixedWorkload::generate(
                keys,
                &MixedWorkloadSpec {
                    num_operations: args.ops,
                    mix,
                    popularity,
                    scan_width: 100,
                    seed: args.seed ^ 0x7e7e,
                },
            )
            .operations
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csv_datasets::Dataset;

    fn small_args(index: IndexChoice, workload: WorkloadChoice, alpha: f64) -> CliArgs {
        CliArgs {
            index,
            dataset: Dataset::Genome,
            dataset_file: None,
            size: 20_000,
            alpha,
            workload,
            ops: 5_000,
            seed: 3,
            ..CliArgs::default()
        }
    }

    #[test]
    fn read_only_run_hits_every_query() {
        for index in [IndexChoice::Lipp, IndexChoice::Pgm, IndexChoice::Btree] {
            let summary = run(&small_args(index, WorkloadChoice::ReadOnly, 0.0)).unwrap();
            assert_eq!(summary.operations, 5_000);
            assert_eq!(
                summary.hits, 5_000,
                "{}: read-only queries must all hit",
                summary.index_name
            );
            assert!(summary.csv_report.is_none());
            assert_eq!(summary.latency.count(), 5_000);
            assert!(summary.render().contains("workload: 5000 operations"));
        }
    }

    #[test]
    fn csv_is_applied_when_alpha_is_positive() {
        let summary = run(&small_args(
            IndexChoice::Lipp,
            WorkloadChoice::ReadOnly,
            0.2,
        ))
        .unwrap();
        let report = summary
            .csv_report
            .as_ref()
            .expect("CSV must run for alpha > 0");
        assert!(report.subtrees_considered() > 0);
        assert!(
            summary.stats_after.mean_key_level() <= summary.stats_before.mean_key_level() + 1e-9
        );
        assert!(summary.render().contains("csv:"));
        // Baselines do not support CSV and simply skip it.
        let baseline = run(&small_args(
            IndexChoice::Btree,
            WorkloadChoice::ReadOnly,
            0.2,
        ))
        .unwrap();
        assert!(baseline.csv_report.is_none());
    }

    #[test]
    fn dry_run_emits_a_json_plan_without_applying() {
        let args = CliArgs {
            dry_run: true,
            ..small_args(IndexChoice::Lipp, WorkloadChoice::ReadOnly, 0.2)
        };
        let summary = run(&args).unwrap();
        let json = summary
            .plan_json
            .as_deref()
            .expect("dry-run must produce a plan");
        assert!(json.contains("\"decisions\""));
        assert!(json.contains("\"subtrees_considered\""));
        // Nothing was applied or replayed.
        assert_eq!(summary.stats_before, summary.stats_after);
        assert!(summary.csv_report.is_none());
        assert_eq!(summary.operations, 0);
        assert_eq!(summary.render().trim_end(), json);

        // A real run over the same arguments does mutate the structure.
        let applied = run(&small_args(
            IndexChoice::Lipp,
            WorkloadChoice::ReadOnly,
            0.2,
        ))
        .unwrap();
        assert!(applied.csv_report.unwrap().subtrees_rebuilt > 0);
    }

    #[test]
    fn dry_run_rejects_unsupported_combinations() {
        let baseline = CliArgs {
            dry_run: true,
            ..small_args(IndexChoice::Btree, WorkloadChoice::ReadOnly, 0.2)
        };
        assert!(run(&baseline)
            .unwrap_err()
            .message
            .contains("does not support"));
        let no_alpha = CliArgs {
            dry_run: true,
            ..small_args(IndexChoice::Lipp, WorkloadChoice::ReadOnly, 0.0)
        };
        assert!(run(&no_alpha).unwrap_err().message.contains("--alpha > 0"));
    }

    #[test]
    fn mixed_workloads_run_on_every_index() {
        for index in [
            IndexChoice::Alex,
            IndexChoice::Lipp,
            IndexChoice::Sali,
            IndexChoice::Pgm,
            IndexChoice::Btree,
        ] {
            let summary = run(&small_args(index, WorkloadChoice::Churn, 0.1)).unwrap();
            assert_eq!(summary.operations, 5_000);
            assert!(
                summary.hits > 0,
                "{}: churn workload should hit keys",
                summary.index_name
            );
            assert_eq!(summary.latency.count(), 5_000);
        }
    }

    #[test]
    fn maintain_mode_reports_both_latency_distributions() {
        let args = CliArgs {
            maintain: true,
            ..small_args(IndexChoice::Lipp, WorkloadChoice::YcsbA, 0.1)
        };
        let summary = run(&args).unwrap();
        let maintain = summary
            .maintain
            .as_ref()
            .expect("--maintain must produce a comparison");
        // Lookups are a strict subset of the replayed operations, and
        // both runs replay the same workload.
        assert!(maintain.with_maintenance.count() > 0);
        assert_eq!(
            maintain.with_maintenance.count(),
            maintain.without_maintenance.count()
        );
        assert!(maintain.with_maintenance.count() < summary.operations as u64);
        assert!(maintain.final_shards >= 16);
        assert_eq!(summary.latency.count(), summary.operations as u64);
        assert!(summary.hits > 0);
        let rendered = summary.render();
        assert!(rendered.contains("maintain:"));
        assert!(rendered.contains("with maintenance p50="));
    }

    #[test]
    fn maintain_mode_rejects_unsupported_combinations() {
        let baseline = CliArgs {
            maintain: true,
            ..small_args(IndexChoice::Pgm, WorkloadChoice::YcsbA, 0.1)
        };
        assert!(run(&baseline)
            .unwrap_err()
            .message
            .contains("does not support"));
        let no_alpha = CliArgs {
            maintain: true,
            ..small_args(IndexChoice::Lipp, WorkloadChoice::YcsbA, 0.0)
        };
        assert!(run(&no_alpha).unwrap_err().message.contains("--alpha > 0"));
        let both = CliArgs {
            maintain: true,
            dry_run: true,
            ..small_args(IndexChoice::Lipp, WorkloadChoice::YcsbA, 0.1)
        };
        assert!(run(&both)
            .unwrap_err()
            .message
            .contains("mutually exclusive"));
    }

    #[test]
    fn ycsb_e_reports_scanned_records() {
        let summary = run(&small_args(IndexChoice::Alex, WorkloadChoice::YcsbE, 0.0)).unwrap();
        assert!(
            summary.scanned > 0,
            "scan-heavy workload must return records"
        );
    }

    #[test]
    fn dataset_files_are_loaded_and_bad_paths_reported() {
        let keys = Dataset::Covid.generate(5_000, 9);
        let mut path = std::env::temp_dir();
        path.push(format!("csv_cli_driver_{}.sosd", std::process::id()));
        io::save_keys(&path, &keys).unwrap();
        let args = CliArgs {
            dataset_file: Some(path.clone()),
            ops: 1_000,
            ..small_args(IndexChoice::Lipp, WorkloadChoice::ReadOnly, 0.0)
        };
        let summary = run(&args).unwrap();
        assert_eq!(summary.keys_loaded, keys.len());
        std::fs::remove_file(&path).ok();

        let missing = CliArgs {
            dataset_file: Some(std::path::PathBuf::from("/definitely/not/here.sosd")),
            ..args
        };
        assert!(run(&missing)
            .unwrap_err()
            .message
            .contains("failed to load"));
    }

    #[test]
    fn durable_maintain_then_recover_round_trips() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("csv_cli_durable_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let durable = CliArgs {
            maintain: true,
            durability: true,
            data_dir: Some(dir.clone()),
            shards: 4,
            ..small_args(IndexChoice::Lipp, WorkloadChoice::YcsbA, 0.1)
        };
        let summary = run(&durable).unwrap();
        let persisted = summary
            .durability
            .as_ref()
            .expect("--durability must report sink stats");
        assert!(persisted.checkpoints >= 4, "bulk load seeds every shard");
        assert!(
            persisted.wal_records > 0,
            "a write-heavy workload must log records"
        );
        assert_eq!(persisted.data_dir, dir);
        assert!(summary.render().contains("durability:"));

        // The store the run left behind is recoverable, and the recovered
        // report reaches the rendered output.
        let recovered = run(&CliArgs {
            recover: true,
            data_dir: Some(dir.clone()),
            ..small_args(IndexChoice::Lipp, WorkloadChoice::YcsbA, 0.1)
        })
        .unwrap();
        let report = recovered
            .recovery
            .as_ref()
            .expect("--recover must report what replay found");
        assert!(report.shards >= 4);
        assert!(report.keys > 0);
        assert_eq!(
            report.torn_shards, 0,
            "an orderly shutdown leaves clean logs"
        );
        assert_eq!(recovered.keys_loaded, report.keys);
        assert!(recovered.render().contains("recovery:"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_reports_missing_and_occupied_stores() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("csv_cli_norecover_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let missing = CliArgs {
            recover: true,
            data_dir: Some(dir.clone()),
            ..small_args(IndexChoice::Lipp, WorkloadChoice::ReadOnly, 0.0)
        };
        assert!(run(&missing)
            .unwrap_err()
            .message
            .contains("no durability store"));

        // A second --durability run must refuse to overwrite the store the
        // first one left behind.
        let durable = CliArgs {
            maintain: true,
            durability: true,
            data_dir: Some(dir.clone()),
            shards: 2,
            ops: 500,
            ..small_args(IndexChoice::Lipp, WorkloadChoice::YcsbB, 0.1)
        };
        run(&durable).unwrap();
        assert!(run(&durable)
            .unwrap_err()
            .message
            .contains("already holds a durability store"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiny_datasets_are_rejected() {
        let args = CliArgs {
            size: 2,
            ..small_args(IndexChoice::Lipp, WorkloadChoice::ReadOnly, 0.0)
        };
        // Size 2 generates two keys, which is accepted; size below that is
        // caught at parse time, so force the runtime check via a file.
        let mut path = std::env::temp_dir();
        path.push(format!("csv_cli_tiny_{}.sosd", std::process::id()));
        io::save_keys(&path, &[7]).unwrap();
        let bad = CliArgs {
            dataset_file: Some(path.clone()),
            ..args
        };
        assert!(run(&bad).unwrap_err().message.contains("at least two"));
        std::fs::remove_file(&path).ok();
    }

    /// `--serve` end to end through `run()`: the driver builds the index,
    /// spawns the engine and the server, and blocks until a client sends
    /// Shutdown — after which the summary carries the serving counters.
    #[test]
    fn serve_run_serves_and_reports_on_both_read_paths() {
        let port = 47201u16;
        let args = CliArgs {
            serve: true,
            port,
            workers: Some(2),
            shards: 4,
            ..small_args(IndexChoice::Lipp, WorkloadChoice::ReadOnly, 0.1)
        };
        let keys = Dataset::Genome.generate(args.size, args.seed);
        let server = std::thread::spawn(move || run(&args));

        // The server owns the calling thread; poll until it is up.
        let addr = format!("127.0.0.1:{port}");
        let mut client = None;
        for _ in 0..200 {
            match csv_server::Client::connect(&addr) {
                Ok(c) => {
                    client = Some(c);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(25)),
            }
        }
        let mut client = client.expect("the server must come up within five seconds");

        assert_eq!(client.get(keys[42]).unwrap(), Some(keys[42]));
        let batch = [keys[1], keys[3], keys.last().unwrap() + 1];
        assert_eq!(
            client.multi_get(&batch).unwrap(),
            vec![Some(keys[1]), Some(keys[3]), None]
        );
        let stats = client.stats().unwrap();
        assert_eq!(stats.keys, keys.len() as u64);
        assert_eq!(stats.workers, 2);
        assert!(stats.rcu);
        assert!(stats.maintenance, "--serve attaches the engine");
        assert!(stats.engine_healthy);

        client.shutdown().unwrap();
        let summary = server.join().unwrap().unwrap();
        let serve = summary.serve.as_ref().expect("--serve fills the summary");
        assert_eq!(serve.addr, addr);
        assert_eq!(serve.workers, 2);
        assert!(serve.connections >= 1);
        assert!(serve.ops >= 5);
        assert_eq!(serve.protocol_errors, 0);
        assert!(serve.engine_healthy);
        let rendered = summary.render();
        assert!(rendered.contains("serve:"), "{rendered}");
        assert!(rendered.contains("engine healthy"), "{rendered}");
    }
}
