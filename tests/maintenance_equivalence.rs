//! Property tests pinning the maintenance lifecycle contract:
//!
//! * **Quiesced maintenance ≡ one full optimize** — on an index that
//!   receives no writes, draining the dirty marks (`optimize_dirty` until
//!   nothing is considered, or the sharded engine's `run_until_idle`)
//!   produces exactly what one full `optimize` produces, for LIPP and ALEX.
//! * **Maintenance never breaks reads** — interleaving inserts, removes,
//!   range scans and engine ticks over a `ShardedIndex` stays consistent
//!   with a `BTreeMap` oracle throughout.

use csv_alex::{AlexConfig, AlexIndex};
use csv_common::traits::LearnedIndex;
use csv_common::{Key, KeyValue};
use csv_concurrent::{
    MaintenanceAction, MaintenanceConfig, MaintenanceEngine, ShardedIndex, ShardingConfig,
};
use csv_core::cost::CostModel;
use csv_core::{CsvConfig, CsvIntegrable, CsvOptimizer};
use csv_lipp::LippIndex;
use csv_repro::records_from_keys;
use proptest::collection::{btree_set, vec as pvec};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Drains an index's dirty marks: `optimize_dirty` until a round considers
/// nothing, returning the rounds' reports.
fn maintain_until_clean<I: CsvIntegrable + ?Sized>(
    optimizer: &CsvOptimizer,
    index: &mut I,
) -> Vec<csv_core::CsvReport> {
    let mut reports = Vec::new();
    loop {
        let report = optimizer.optimize_dirty(index);
        let done = report.subtrees_considered() == 0;
        reports.push(report);
        if done {
            return reports;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn quiesced_maintenance_equals_full_optimize_on_lipp(
        keys in btree_set(0u64..3_000_000, 512..2_000),
        alpha in 0.05f64..0.4,
    ) {
        let keys: Vec<Key> = keys.into_iter().collect();
        let records = records_from_keys(&keys);
        let optimizer = CsvOptimizer::new(CsvConfig::for_lipp(alpha));

        let mut fused = LippIndex::bulk_load(&records);
        let fused_report = optimizer.optimize(&mut fused);

        let mut maintained = LippIndex::bulk_load(&records);
        let reports = maintain_until_clean(&optimizer, &mut maintained);
        // A quiesced index drains in one real round plus one idle round.
        prop_assert_eq!(reports.len(), 2);
        prop_assert_eq!(&reports[0].outcomes, &fused_report.outcomes);
        prop_assert_eq!(reports[1].subtrees_considered(), 0);

        prop_assert_eq!(maintained.stats(), fused.stats());
        for &k in &keys {
            prop_assert_eq!(maintained.get(k), Some(k));
        }
    }

    #[test]
    fn quiesced_maintenance_equals_full_optimize_on_alex(
        keys in btree_set(0u64..40_000_000, 2_000..6_000),
        alpha in 0.05f64..0.4,
    ) {
        let keys: Vec<Key> = keys.into_iter().collect();
        let records = records_from_keys(&keys);
        // Small data nodes and a tight fanout so the tree is deep enough
        // for a multi-level sweep (the regime where per-level dirty rounds
        // could diverge).
        let config = AlexConfig {
            max_data_node_keys: 64,
            min_fanout: 4,
            max_fanout: 8,
            ..AlexConfig::default()
        };
        let optimizer =
            CsvOptimizer::new(CsvConfig::for_alex(alpha, CostModel::new(1.0, 2.5, 0.0)));

        let mut fused = AlexIndex::with_config(&records, config);
        let fused_report = optimizer.optimize(&mut fused);
        prop_assert!(fused_report.subtrees_considered() > 0);

        let mut maintained = AlexIndex::with_config(&records, config);
        let reports = maintain_until_clean(&optimizer, &mut maintained);
        prop_assert_eq!(reports.len(), 2);
        prop_assert_eq!(&reports[0].outcomes, &fused_report.outcomes);
        prop_assert_eq!(reports[1].subtrees_considered(), 0);

        prop_assert_eq!(maintained.stats(), fused.stats());
        for &k in keys.iter().step_by(7) {
            prop_assert_eq!(maintained.get(k), Some(k));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn sharded_maintenance_preserves_lookups_and_ranges(
        keys in btree_set(0u64..1_000_000, 256..1_000),
        ops in pvec((any::<u64>(), 0u8..6), 40..160),
        shards in 1usize..6,
        overlay_capacity in 1usize..12,
    ) {
        let keys: Vec<Key> = keys.into_iter().collect();
        let records = records_from_keys(&keys);
        // An overlay capacity tiny enough that folds interleave with the
        // splits/merges/maintenance below.
        let sharded = ShardedIndex::<LippIndex>::bulk_load(
            &records,
            ShardingConfig::with_shards(shards).with_overlay_capacity(overlay_capacity),
        );
        let mut oracle: BTreeMap<Key, u64> = keys.iter().map(|&k| (k, k)).collect();
        // An aggressive merge factor so the drained-shard trigger fires
        // inside the interleaving, not only in dedicated tests.
        let engine = MaintenanceEngine::new(
            CsvOptimizer::new(CsvConfig::for_lipp(0.1)),
            MaintenanceConfig {
                min_split_keys: 64,
                split_factor: 1.5,
                merge_factor: 0.6,
                ..MaintenanceConfig::default()
            },
        );

        for (raw, kind) in ops {
            let k = raw % 1_200_000;
            match kind {
                0 => prop_assert_eq!(sharded.get(k), oracle.get(&k).copied()),
                1 => prop_assert_eq!(
                    sharded.insert(k, raw),
                    oracle.insert(k, raw).is_none()
                ),
                2 => prop_assert_eq!(sharded.remove(k), oracle.remove(&k)),
                3 => {
                    let hi = k.saturating_add(raw % 50_000);
                    let got: Vec<KeyValue> = sharded.range(k, hi);
                    let expected: Vec<KeyValue> =
                        oracle.range(k..=hi).map(|(&k, &v)| KeyValue::new(k, v)).collect();
                    prop_assert_eq!(got, expected);
                }
                4 => {
                    // An explicit re-layout (split, then sometimes the
                    // inverse merge) in the middle of the write stream.
                    let shard = (raw as usize) % sharded.num_shards().max(1);
                    if sharded.split_shard(shard, 2) && raw % 2 == 0 {
                        prop_assert!(sharded.merge_shards(shard, usize::MAX));
                    }
                }
                _ => {
                    // A maintenance tick (split, merge or incremental
                    // re-smoothing) in the middle of the write stream.
                    engine.run_once(&sharded);
                }
            }
        }
        // Drain to quiescence, then every oracle fact must still hold.
        engine.run_until_idle(&sharded, 1_000);
        prop_assert_eq!(sharded.len(), oracle.len());
        for (&k, &v) in &oracle {
            prop_assert_eq!(sharded.get(k), Some(v));
        }
        let full: Vec<KeyValue> = sharded.range(0, u64::MAX);
        let expected: Vec<KeyValue> =
            oracle.iter().map(|(&k, &v)| KeyValue::new(k, v)).collect();
        prop_assert_eq!(full, expected);
    }
}

/// The sharded quiesced pin: the engine draining a fresh, balanced sharded
/// index to idleness is observationally identical to one full
/// `ShardedIndex::optimize` — same per-shard outcomes, same structure, same
/// lookups.
#[test]
fn engine_until_idle_equals_sharded_optimize() {
    use csv_datasets::Dataset;
    let keys = Dataset::Osm.generate(60_000, 17);
    let records = records_from_keys(&keys);
    let optimizer = CsvOptimizer::new(CsvConfig::for_lipp(0.1));

    let config = ShardingConfig::with_shards(4);
    let reference = ShardedIndex::<LippIndex>::bulk_load(&records, config);
    let reference_reports = reference.optimize(&optimizer);

    let maintained = ShardedIndex::<LippIndex>::bulk_load(&records, config);
    let engine = MaintenanceEngine::new(optimizer.clone(), MaintenanceConfig::default());
    let actions = engine.run_until_idle(&maintained, 100);
    assert!(actions.last().unwrap().is_idle());

    // Per-shard reports match the full optimize, shard for shard (the
    // engine visits stalest-first, so collect by shard position).
    let mut maintained_reports: Vec<Option<csv_core::CsvReport>> =
        vec![None; reference_reports.len()];
    for action in &actions {
        if let MaintenanceAction::Maintained {
            shard,
            report,
            completed,
        } = action
        {
            assert!(completed, "no budget is configured");
            assert!(
                maintained_reports[*shard].replace(report.clone()).is_none(),
                "a quiesced shard must be maintained exactly once"
            );
        }
    }
    for (shard, reference_report) in reference_reports.iter().enumerate() {
        let report = maintained_reports[shard]
            .as_ref()
            .unwrap_or_else(|| panic!("shard {shard} was never maintained"));
        assert_eq!(report.outcomes, reference_report.outcomes, "shard {shard}");
    }

    assert_eq!(maintained.stats(), reference.stats());
    for &k in keys.iter().step_by(23) {
        assert_eq!(maintained.get(k), reference.get(k));
        assert_eq!(maintained.get(k), Some(k));
    }
}
