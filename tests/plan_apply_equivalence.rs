//! Property tests pinning down the plan → apply lifecycle contract:
//! `CsvOptimizer::plan` followed by `CsvPlan::apply` is observationally
//! identical to the fused `CsvOptimizer::optimize` — same report, same
//! rebuilt structure, same lookups — on any dataset and smoothing
//! threshold, and planning alone never mutates the index — plus golden
//! pipeline counters that pin every smoothing decision to the values the
//! kernel produced before it was rewritten around its data (PR 14).

use csv_alex::AlexIndex;
use csv_common::traits::LearnedIndex;
use csv_core::{CostModel, CsvConfig, CsvOptimizer, CsvReport, Decision, PlannedAction};
use csv_datasets::Dataset;
use csv_lipp::LippIndex;
use csv_repro::records_from_keys;
use proptest::collection::btree_set;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn plan_then_apply_matches_fused_optimize(
        keys in btree_set(0u64..3_000_000, 512..2_000),
        alpha in 0.05f64..0.4,
    ) {
        let keys: Vec<u64> = keys.into_iter().collect();
        let records = records_from_keys(&keys);
        let optimizer = CsvOptimizer::new(CsvConfig::for_lipp(alpha));

        let mut fused = LippIndex::bulk_load(&records);
        let fused_report = optimizer.optimize(&mut fused);

        let mut staged = LippIndex::bulk_load(&records);
        let before_plan = staged.stats();
        let plan = optimizer.plan(&staged);

        // Planning is a pure read: the index is structurally untouched and
        // the plan already knows everything the fused run will decide.
        prop_assert_eq!(&staged.stats(), &before_plan);
        prop_assert_eq!(plan.len(), fused_report.subtrees_considered());
        // An accepted layout can still be declined by the index at apply
        // time (e.g. the rebuilt node would demote keys), so the planned
        // rebuilds account for the applied ones plus the declined ones.
        prop_assert_eq!(
            plan.num_rebuilds(),
            fused_report.subtrees_rebuilt + fused_report.rebuilds_declined()
        );
        for (planned, outcome) in plan.decisions().iter().zip(&fused_report.outcomes) {
            prop_assert_eq!(planned.subtree, outcome.subtree);
            match (&planned.action, &outcome.decision) {
                (PlannedAction::Rebuild(_), Decision::Rebuilt)
                | (PlannedAction::Rebuild(_), Decision::Declined(_))
                | (PlannedAction::CostRejected, Decision::CostRejected) => {}
                (PlannedAction::Skipped(a), Decision::Skipped(b)) => prop_assert_eq!(a, b),
                (action, decision) => prop_assert!(
                    false,
                    "planned {:?} but fused run decided {:?}",
                    action,
                    decision
                ),
            }
        }

        // Applying the plan reproduces the fused run: identical report
        // (outcome for outcome, in the same order) and identical structure.
        let staged_report = plan.apply(&mut staged);
        prop_assert_eq!(&fused_report.outcomes, &staged_report.outcomes);
        prop_assert_eq!(fused_report.subtrees_considered(), staged_report.subtrees_considered());
        prop_assert_eq!(fused_report.subtrees_rebuilt, staged_report.subtrees_rebuilt);
        prop_assert_eq!(fused_report.keys_rebuilt, staged_report.keys_rebuilt);
        prop_assert_eq!(fused_report.virtual_points_added, staged_report.virtual_points_added);
        prop_assert_eq!(fused_report.gap_refits, staged_report.gap_refits);
        prop_assert_eq!(staged.stats(), fused.stats());

        // Identical lookups: every loaded key hits in both, probes around
        // the key range miss in both.
        for &k in &keys {
            prop_assert_eq!(staged.get(k), Some(k));
            prop_assert_eq!(staged.get(k), fused.get(k));
        }
        for probe in [0u64, 1_500_000, 2_999_999, 3_000_001] {
            prop_assert_eq!(staged.get(probe), fused.get(probe));
        }
    }
}

/// What one `optimize` decided, as counted by the report and the index.
#[derive(Debug, PartialEq)]
struct Golden {
    gap_refits: usize,
    stale_revalidations: usize,
    fallback_rescans: usize,
    heap_pushes: usize,
    virtual_points_added: usize,
    subtrees_rebuilt: usize,
    /// `IndexStats::mean_key_level()`, as bits.
    mean_key_level: u64,
}

impl Golden {
    fn of(report: &CsvReport, index: &impl LearnedIndex) -> Self {
        assert_eq!(report.gap_refits, report.smoothing.gap_refits);
        Self {
            gap_refits: report.gap_refits,
            stale_revalidations: report.smoothing.stale_revalidations,
            fallback_rescans: report.smoothing.fallback_rescans,
            heap_pushes: report.smoothing.heap_pushes,
            virtual_points_added: report.virtual_points_added,
            subtrees_rebuilt: report.subtrees_rebuilt,
            mean_key_level: index.stats().mean_key_level().to_bits(),
        }
    }
}

/// Captured by running commit 6ec52b0 (the parent of the kernel rewrite):
/// `Dataset::{Osm, Genome}.generate(20_000, seed)`, α = 0.1, the lazy driver.
/// A smoothing decision that moves — one candidate, one tie, one fallback —
/// moves at least one of these counts.
#[test]
fn smoothing_decisions_match_the_golden_counters() {
    let lipp = |dataset: Dataset, seed| {
        let mut index = LippIndex::bulk_load(&records_from_keys(&dataset.generate(20_000, seed)));
        let report = CsvOptimizer::new(CsvConfig::for_lipp(0.1)).optimize(&mut index);
        Golden::of(&report, &index)
    };
    assert_eq!(
        lipp(Dataset::Osm, 42),
        Golden {
            gap_refits: 478_547,
            stale_revalidations: 72_656,
            fallback_rescans: 385,
            heap_pushes: 477_777,
            virtual_points_added: 980,
            subtrees_rebuilt: 93,
            mean_key_level: 0x4005_d134_04ea_4a8c, // 2.72715
        }
    );
    assert_eq!(
        lipp(Dataset::Genome, 7),
        Golden {
            gap_refits: 656_376,
            stale_revalidations: 54_299,
            fallback_rescans: 214,
            heap_pushes: 655_948,
            virtual_points_added: 203,
            subtrees_rebuilt: 7,
            mean_key_level: 0x4001_62eb_1c43_2ca5, // 2.1733
        }
    );
    let mut alex = AlexIndex::bulk_load(&records_from_keys(&Dataset::Osm.generate(20_000, 42)));
    let report =
        CsvOptimizer::new(CsvConfig::for_alex(0.1, CostModel::default())).optimize(&mut alex);
    assert_eq!(
        Golden::of(&report, &alex),
        Golden {
            gap_refits: 1_426_478,
            stale_revalidations: 998_930,
            fallback_rescans: 81,
            heap_pushes: 1_426_316,
            // The default cost model rejects every ALEX rebuild on this
            // data; the smoothing runs behind the rejections are pinned.
            virtual_points_added: 0,
            subtrees_rebuilt: 0,
            mean_key_level: 0x400a_8db8_bac7_10cb, // 3.3192
        }
    );
}
