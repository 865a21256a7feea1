//! Property-based tests for the extension modules (poisoning, quadratic
//! smoothing, SOSD I/O, Zipfian sampling, latency histogram, sharded
//! concurrency) on randomly generated inputs.

use csv_alex::AlexIndex;
use csv_btree::BPlusTree;
use csv_common::latency::LatencyHistogram;
use csv_common::quadratic::QuadraticModel;
use csv_common::rng::XorShift64;
use csv_common::traits::{LearnedIndex, RangeIndex, RemovableIndex, LOOKUP_BLOCK};
use csv_common::{Key, LinearModel};
use csv_concurrent::{ShardedIndex, ShardingConfig};
use csv_core::poisoning::{poison_segment, PoisoningConfig};
use csv_core::{
    smooth_segment, smooth_segment_quadratic, GreedyMode, QuadraticSmoothingConfig, SmoothingConfig,
};
use csv_datasets::io::{decode_keys, encode_keys};
use csv_datasets::Zipfian;
use csv_lipp::LippIndex;
use csv_pgm::PgmIndex;
use csv_repro::records_from_keys;
use csv_sali::SaliIndex;
use proptest::collection::{btree_set, vec as pvec};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Random sorted, unique key sets of modest size with gaps.
fn key_set() -> impl Strategy<Value = Vec<Key>> {
    btree_set(0u64..2_000_000, 4..200).prop_map(|s| s.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn smoothing_never_increases_loss_and_poisoning_never_decreases_it(keys in key_set(), alpha in 0.05f64..0.8) {
        let smoothed = smooth_segment(&keys, &SmoothingConfig::with_alpha(alpha));
        prop_assert!(smoothed.loss_after_all <= smoothed.loss_before + 1e-6);
        prop_assert!(smoothed.virtual_points.len() <= smoothed.budget);

        let poisoned = poison_segment(&keys, &PoisoningConfig::with_alpha(alpha));
        prop_assert!(poisoned.loss_after_real >= poisoned.loss_before - 1e-6);
        prop_assert!(poisoned.poison_points.len() <= poisoned.budget);
        // Neither direction may duplicate an existing key.
        for v in smoothed.virtual_points.iter().chain(poisoned.poison_points.iter()) {
            prop_assert!(keys.binary_search(v).is_err());
        }
    }

    #[test]
    fn lazy_drift_tolerance_zero_is_bit_identical_to_the_default(keys in key_set(), alpha in 0.05f64..0.8) {
        // The satellite contract of `SmoothingConfig::drift_tolerance`: the
        // default (0) keeps the lazy driver bit-identical to the exact
        // fallback behaviour, so spelling the field out changes nothing.
        let base = SmoothingConfig { mode: GreedyMode::Lazy, ..SmoothingConfig::with_alpha(alpha) };
        let explicit = SmoothingConfig { drift_tolerance: 0.0, ..base };
        let defaulted = smooth_segment(&keys, &base);
        prop_assert_eq!(&defaulted, &smooth_segment(&keys, &explicit));
        // A positive tolerance only removes fallbacks, and every insertion
        // it admits still strictly reduces the loss.
        let tolerant = smooth_segment(&keys, &SmoothingConfig { drift_tolerance: 0.5, ..base });
        prop_assert!(tolerant.counters.fallback_rescans <= defaulted.counters.fallback_rescans);
        prop_assert!(tolerant.loss_after_all <= tolerant.loss_before + 1e-6);
    }

    #[test]
    fn quadratic_fit_never_loses_to_linear_fit(keys in key_set()) {
        let lin = LinearModel::fit_cdf(&keys).sse_cdf(&keys);
        let quad = QuadraticModel::fit_cdf(&keys).sse_cdf(&keys);
        // OLS over a strictly larger model class: the optimum cannot be worse
        // (allow a tiny tolerance for the numerical solve).
        prop_assert!(quad <= lin * (1.0 + 1e-6) + 1e-6, "quad {quad} vs lin {lin}");
    }

    #[test]
    fn quadratic_smoothing_reduces_loss_and_preserves_real_keys(keys in key_set()) {
        let result = smooth_segment_quadratic(&keys, &QuadraticSmoothingConfig::with_alpha(0.2));
        prop_assert!(result.loss_after_all <= result.loss_before + 1e-6);
        let real: Vec<Key> = result.entries.iter().filter(|e| e.is_real()).map(|e| e.key()).collect();
        prop_assert_eq!(real, keys);
    }

    #[test]
    fn sosd_roundtrip_is_lossless(keys in pvec(any::<u64>(), 0..500)) {
        let decoded = decode_keys(&encode_keys(&keys)).unwrap();
        prop_assert_eq!(decoded, keys);
    }

    #[test]
    fn zipfian_ranks_stay_in_bounds(n in 1usize..5_000, theta in 0.05f64..0.99, seed in any::<u64>()) {
        let mut z = Zipfian::new(n, theta, seed);
        for _ in 0..200 {
            prop_assert!(z.next_rank() < n);
        }
    }

    #[test]
    fn latency_histogram_quantiles_are_ordered_and_bounded(samples in pvec(1u64..10_000_000_000, 1..300)) {
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record_ns(s);
        }
        let min = *samples.iter().min().unwrap();
        let max = *samples.iter().max().unwrap();
        prop_assert_eq!(h.count(), samples.len() as u64);
        let p50 = h.p50_ns();
        let p99 = h.p99_ns();
        prop_assert!(p50 <= p99);
        prop_assert!(p50 >= min && p99 <= max);
        prop_assert!(h.mean_ns() >= min as f64 && h.mean_ns() <= max as f64);
    }
}

/// `get_many` against a loop of `get`s at every batch length around the
/// lockstep block, over probes drawn from `pool` (keys that are or were
/// stored), their neighbours, far misses and repeats.
fn assert_get_many_matches_gets<I: LearnedIndex>(index: &I, pool: &[Key], seed: u64) {
    let mut rng = XorShift64::new(seed | 1);
    let lengths = [
        0,
        1,
        LOOKUP_BLOCK - 1,
        LOOKUP_BLOCK,
        LOOKUP_BLOCK + 1,
        64,
        257,
    ];
    for len in lengths {
        let mut probes: Vec<Key> = Vec::with_capacity(len);
        for i in 0..len {
            let known = pool[rng.next_below(pool.len() as u64) as usize];
            probes.push(match rng.next_below(5) {
                2 => known.wrapping_add(1),
                3 => rng.next_u64(),
                4 if i > 0 => probes[rng.next_below(i as u64) as usize],
                _ => known,
            });
        }
        let expected: Vec<Option<u64>> = probes.iter().map(|&k| index.get(k)).collect();
        // Poisoned, so a slot `get_many` skips cannot pass for a miss.
        let mut got = vec![Some(u64::MAX); len];
        index.get_many(&probes, &mut got);
        assert_eq!(got, expected, "{}: {len} probes {probes:?}", index.name());
    }
}

/// Bulk load, check, mutate, check again.
fn get_many_survives_mutation<I: LearnedIndex + RemovableIndex>(
    keys: &[Key],
    ops: &[(u64, bool)],
    seed: u64,
) {
    let mut index = I::bulk_load(&records_from_keys(keys));
    let mut pool = keys.to_vec();
    assert_get_many_matches_gets(&index, &pool, seed);
    for &(raw, insert) in ops {
        let known = pool[raw as usize % pool.len()];
        if insert {
            // Next to a stored key, where LIPP resolves the conflict with a
            // child node and the walk gets deeper.
            let key = known.wrapping_add(1 + raw % 3);
            index.insert(key, raw);
            pool.push(key);
        } else {
            index.remove(known);
        }
    }
    assert_get_many_matches_gets(&index, &pool, seed ^ 0xA5A5);
}

/// Sorted unique keys in dense runs separated by wide jumps: the runs
/// conflict in a LIPP root and push keys to levels 2 and 3.
fn clustered_key_set() -> impl Strategy<Value = Vec<Key>> {
    btree_set(0u64..40_000, 64..500).prop_map(|raw| {
        let mut key = 1_000u64;
        let mut last = 0u64;
        raw.into_iter()
            .map(|x| {
                let gap = x - last;
                last = x;
                key += if gap < 40 {
                    gap.max(1)
                } else {
                    gap * 1_000_003
                };
                key
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn get_many_matches_individual_gets_on_every_index(
        keys in clustered_key_set(),
        ops in pvec((any::<u64>(), any::<bool>()), 0..200),
        seed in any::<u64>(),
    ) {
        get_many_survives_mutation::<LippIndex>(&keys, &ops, seed);
        get_many_survives_mutation::<AlexIndex>(&keys, &ops, seed);
        get_many_survives_mutation::<SaliIndex>(&keys, &ops, seed);
        get_many_survives_mutation::<PgmIndex>(&keys, &ops, seed);
        get_many_survives_mutation::<BPlusTree>(&keys, &ops, seed);
        let deepest = LippIndex::bulk_load(&records_from_keys(&keys)).stats().height;
        prop_assert!(deepest >= 2, "the key sets are meant to nest, height {deepest}");
    }

    #[test]
    fn lipp_range_and_remove_match_btreemap(keys in btree_set(0u64..500_000, 64..400), ops in pvec((any::<u64>(), 0u8..4), 1..120) ) {
        let keys: Vec<Key> = keys.into_iter().collect();
        let mut index = LippIndex::bulk_load(&records_from_keys(&keys));
        let mut oracle: BTreeMap<Key, u64> = keys.iter().map(|&k| (k, k)).collect();
        for (raw, kind) in ops {
            let k = raw % 600_000;
            match kind {
                0 => prop_assert_eq!(index.get(k), oracle.get(&k).copied()),
                1 => prop_assert_eq!(index.insert(k, raw), oracle.insert(k, raw).is_none()),
                2 => prop_assert_eq!(index.remove(k), oracle.remove(&k)),
                _ => {
                    let hi = k.saturating_add(raw % 10_000);
                    let got: Vec<Key> = index.range(k, hi).iter().map(|r| r.key).collect();
                    let expected: Vec<Key> = oracle.range(k..=hi).map(|(&k, _)| k).collect();
                    prop_assert_eq!(got, expected);
                }
            }
        }
        prop_assert_eq!(index.len(), oracle.len());
    }

    #[test]
    fn sharded_index_agrees_with_flat_index(keys in btree_set(0u64..1_000_000, 32..300), shards in 1usize..12) {
        let keys: Vec<Key> = keys.into_iter().collect();
        let records = records_from_keys(&keys);
        let flat = LippIndex::bulk_load(&records);
        let sharded = ShardedIndex::<LippIndex>::bulk_load(
            &records,
            ShardingConfig::with_shards(shards),
        );
        prop_assert_eq!(sharded.len(), flat.len());
        for &k in keys.iter().step_by(7) {
            prop_assert_eq!(sharded.get(k), flat.get(k));
        }
        let lo = keys[keys.len() / 4];
        let hi = keys[3 * keys.len() / 4];
        prop_assert_eq!(sharded.range(lo, hi), flat.range(lo, hi));
    }
}
