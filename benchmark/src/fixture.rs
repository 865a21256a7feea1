//! Set-up: what an operator pays before the first request is served.
//!
//! One set-up builds the bare pair (LIPP at alpha = 0 and LIPP smoothed by
//! `CsvOptimizer::optimize` at alpha = 0.1 — the paper's experiment) and the
//! served stack exactly as `csv-index --serve --durability` wires it:
//! `bulk_load_durable` over a `FileSink` with the default fsync policy,
//! CSV optimise, `MaintenanceEngine::spawn` with the default config, and
//! the TCP server on an ephemeral loopback port with one worker.

use crate::inputs::Inputs;
use crate::placement;
use csv_common::traits::LearnedIndex;
use csv_common::Key;
use csv_concurrent::{
    DurabilitySink, MaintenanceConfig, MaintenanceEngine, ReadPath, ShardedIndex, ShardingConfig,
};
use csv_core::{CsvConfig, CsvOptimizer, CsvReport};
use csv_durability::{DurabilityConfig, FileSink};
use csv_lipp::LippIndex;
use csv_server::{ServerConfig, ServerHandle};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The paper's smoothing threshold used throughout.
pub const ALPHA: f64 = 0.1;

pub fn optimizer() -> CsvOptimizer {
    CsvOptimizer::new(CsvConfig::for_lipp(ALPHA))
}

pub fn sharding(shards: usize) -> ShardingConfig {
    ShardingConfig::with_shards(shards).with_read_path(ReadPath::Rcu)
}

pub type Served = ShardedIndex<LippIndex>;

/// A durable sharded index over a fresh store in `dir`, smoothed.
pub fn build_durable(inputs: &Inputs, dir: &Path) -> Result<(Arc<Served>, Arc<FileSink>), String> {
    let _ = std::fs::remove_dir_all(dir);
    let sink = Arc::new(
        FileSink::create(DurabilityConfig::new(dir))
            .map_err(|e| format!("creating the store: {e}"))?,
    );
    let index = Arc::new(Served::bulk_load_durable(
        &inputs.records,
        sharding(inputs.sizes.shards),
        Arc::clone(&sink) as Arc<dyn DurabilitySink>,
    ));
    index.optimize(&optimizer());
    Ok((index, sink))
}

/// The bare pair of the paper's experiment.
pub struct Bare {
    /// LIPP at alpha = 0.
    pub plain: LippIndex,
    /// LIPP smoothed at alpha = 0.1.
    pub smooth: LippIndex,
    pub csv_report: CsvReport,
    pub bulk_load_s: f64,
    pub optimize_s: f64,
}

/// The served stack: durable sharded index, background engine, server.
pub struct Stack {
    pub served: Arc<Served>,
    pub sink: Arc<FileSink>,
    pub server: ServerHandle,
    store_dir: PathBuf,
}

pub struct Fixture {
    pub bare: Bare,
    pub stack: Stack,
}

impl Fixture {
    pub fn build(inputs: &Inputs, store_dir: &Path) -> Result<Self, String> {
        let plain = LippIndex::bulk_load(&inputs.records);
        let t = Instant::now();
        let mut smooth = LippIndex::bulk_load(&inputs.records);
        let bulk_load_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let csv_report = optimizer().optimize(&mut smooth);
        let optimize_s = t.elapsed().as_secs_f64();

        let (served, sink) = build_durable(inputs, store_dir)?;
        let engine = placement::on_engine_cpu(|| {
            MaintenanceEngine::new(optimizer(), MaintenanceConfig::default())
                .spawn(Arc::clone(&served))
        });
        let server = csv_server::spawn(
            Arc::clone(&served),
            Some(engine),
            ServerConfig {
                port: 0,
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("binding a loopback port: {e}"))?;
        Ok(Self {
            bare: Bare {
                plain,
                smooth,
                csv_report,
                bulk_load_s,
                optimize_s,
            },
            stack: Stack {
                served,
                sink,
                server,
                store_dir: store_dir.to_path_buf(),
            },
        })
    }
}

impl Stack {
    /// Stops the server and its engine and removes the store.
    pub fn teardown(self) -> csv_server::ServerReport {
        let report = self.server.shutdown();
        drop(self.served);
        drop(self.sink);
        let _ = std::fs::remove_dir_all(&self.store_dir);
        report
    }
}

/// The deepest tenth of the keys, ranked by their level in the alpha = 0
/// build, ties broken by key — the population the paper's headline result
/// is about.
pub fn deepest_tenth(plain: &LippIndex, keys: &[Key]) -> Vec<Key> {
    let mut ranked: Vec<(usize, Key)> = keys
        .iter()
        .map(|&k| (plain.level_of_key(k).unwrap_or(0), k))
        .collect();
    ranked.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    ranked.truncate((keys.len() / 10).max(1));
    ranked.into_iter().map(|(_, k)| k).collect()
}
