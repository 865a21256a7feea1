//! The streaming-scan acceptance pins: a collected `range_visit` must be
//! byte-identical to the materialised `range` at every layer that grew a
//! native visitor — each of the five indexes (trait layer), the sharded
//! index (shard layer), and the pinned `ReadView` (the path the server's `Range`
//! handler walks). Tiny overlay capacities force folds mid-workload so
//! the merge-join crosses base/overlay/tombstone boundaries, and a
//! mid-scan `limit` pins early termination against a truncated `range`.

use csv_alex::AlexIndex;
use csv_btree::BPlusTree;
use csv_common::traits::{collect_range_visit, LearnedIndex, RangeIndex, RemovableIndex};
use csv_common::{Key, KeyValue};
use csv_concurrent::{ShardedIndex, ShardingConfig};
use csv_lipp::LippIndex;
use csv_pgm::PgmIndex;
use csv_repro::records_from_keys;
use csv_sali::SaliIndex;
use proptest::collection::btree_set;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Random sorted, unique key sets with gaps, plus a write tape (key,
/// remove?) and scan bounds drawn from the same space so scans hit the
/// populated region.
fn scan_case() -> impl Strategy<Value = (Vec<Key>, Vec<(Key, bool)>, Key, Key, usize)> {
    (
        (
            btree_set(0u64..100_000, 8..150),
            proptest::collection::vec((0u64..100_000, any::<bool>()), 0..60),
        ),
        (0u64..100_000, 0u64..110_000, 0usize..40),
    )
        .prop_map(|((keys, writes), (lo, hi, limit))| {
            (keys.into_iter().collect(), writes, lo, hi, limit)
        })
}

/// Applies the write tape, then checks `range_visit` ≡ `range` (full and
/// limited) for one index at the trait layer.
fn check_index<I: LearnedIndex + RangeIndex + RemovableIndex>(
    mut index: I,
    writes: &[(Key, bool)],
    lo: Key,
    hi: Key,
    limit: usize,
) -> Result<(), TestCaseError> {
    for &(k, remove) in writes {
        if remove {
            index.remove(k);
        } else {
            index.insert(k, k ^ 0x5eed);
        }
    }
    let name = index.name();
    let materialised = index.range(lo, hi);
    prop_assert_eq!(
        &collect_range_visit(&index, lo, hi, 0),
        &materialised,
        "{}: full streaming scan",
        name
    );
    // A mid-scan Break(()) stops the visitor after exactly `limit`
    // records (limit 0 = unlimited): the streamed prefix equals the
    // truncated materialised scan.
    let capped = collect_range_visit(&index, lo, hi, limit);
    let want = if limit == 0 {
        &materialised[..]
    } else {
        &materialised[..limit.min(materialised.len())]
    };
    prop_assert_eq!(&capped[..], want, "{}: limited streaming scan", name);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streaming_scan_equals_materialised_range_on_every_index(
        (keys, writes, lo, hi, limit) in scan_case()
    ) {
        let records = records_from_keys(&keys);
        check_index(BPlusTree::bulk_load(&records), &writes, lo, hi, limit)?;
        check_index(PgmIndex::bulk_load(&records), &writes, lo, hi, limit)?;
        check_index(AlexIndex::bulk_load(&records), &writes, lo, hi, limit)?;
        check_index(LippIndex::bulk_load(&records), &writes, lo, hi, limit)?;
        check_index(SaliIndex::bulk_load(&records), &writes, lo, hi, limit)?;
    }

    #[test]
    fn streaming_scan_equals_materialised_range_through_the_shard_layer(
        (keys, writes, lo, hi, limit) in scan_case()
    ) {
        let records = records_from_keys(&keys);
        // A tiny overlay folds every few writes, so the write tape
        // exercises base-fold boundaries, not just overlay merges.
        let index = ShardedIndex::<BPlusTree>::bulk_load(
            &records,
            ShardingConfig::with_shards(3).with_overlay_capacity(4),
        );
        for &(k, remove) in &writes {
            if remove {
                index.remove(k);
            } else {
                index.insert(k, k ^ 0x5eed);
            }
        }

        let materialised = index.range(lo, hi);
        let mut streamed: Vec<KeyValue> = Vec::new();
        let _ = index.range_visit(lo, hi, &mut |key, value| {
            streamed.push(KeyValue { key, value });
            if limit != 0 && streamed.len() >= limit {
                core::ops::ControlFlow::Break(())
            } else {
                core::ops::ControlFlow::Continue(())
            }
        });
        let want = if limit == 0 {
            &materialised[..]
        } else {
            &materialised[..limit.min(materialised.len())]
        };
        prop_assert_eq!(&streamed[..], want, "sharded streaming scan");

        // The pinned-snapshot path (what the server's Range handler walks)
        // must agree with the live index too.
        let view = index.read_view().expect("read_view is always Some");
        prop_assert_eq!(view.range(lo, hi), materialised.clone(), "pinned view range");
        let mut view_streamed: Vec<KeyValue> = Vec::new();
        let _ = view.range_visit(lo, hi, &mut |key, value| {
            view_streamed.push(KeyValue { key, value });
            core::ops::ControlFlow::Continue(())
        });
        prop_assert_eq!(view_streamed, materialised, "pinned view streaming scan");
    }
}
