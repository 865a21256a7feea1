//! A fingerprint of LIPP's layout: every reachable node's shape, in
//! depth-first order, and every key's level. Node representation changes
//! (how a slot is stored, how a walk reads it) must leave the fingerprint
//! exactly as it is: equal hashes mean no key changed slot and no node
//! changed shape, which is more than an equal mean key level can show.
//!
//! The golden values must only move with a change that is meant to move
//! layouts: a new model, capacity rule or insert policy.

use csv_common::rng::SplitMix64;
use csv_common::traits::{LearnedIndex, RemovableIndex};
use csv_common::Key;
use csv_core::{CsvConfig, CsvOptimizer};
use csv_datasets::Dataset;
use csv_lipp::LippIndex;
use csv_repro::records_from_keys;

const N: usize = 16_000;
const INSERTS: usize = 2_000;
const REMOVES: usize = 500;

/// What a layout is pinned by: node and slot totals plus two hashes.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    nodes: usize,
    slots: usize,
    /// `(level, capacity, local_keys, children, subtree_keys)` per node, in
    /// `node_views` order.
    shape_hash: u64,
    /// `level_of_key` of every stored key, in key order.
    level_hash: u64,
}

/// FNV-1a over little-endian `u64`s: stable across platforms and toolchains.
fn fnv(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for value in values {
        for byte in value.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn fingerprint(index: &LippIndex, keys: &[Key]) -> Fingerprint {
    let views = index.node_views();
    let shape_hash = fnv(views.iter().flat_map(|v| {
        [
            v.level,
            v.capacity,
            v.local_keys,
            v.children,
            v.subtree_keys,
        ]
        .map(|x| x as u64)
    }));
    let level_hash = fnv(keys.iter().map(|&k| {
        index
            .level_of_key(k)
            .unwrap_or_else(|| panic!("stored key {k} has no level")) as u64
    }));
    Fingerprint {
        nodes: views.len(),
        slots: views.iter().map(|v| v.capacity).sum(),
        shape_hash,
        level_hash,
    }
}

/// Builds the index (smoothed at α = 0.1 when asked), then applies 2,000
/// inserts between stored keys and 500 removes, all from fixed seeds.
/// Returns the fingerprints before and after the writes.
fn fingerprints(dataset: Dataset, smoothed: bool) -> [Fingerprint; 2] {
    let keys = dataset.generate(N, 42);
    let mut index = LippIndex::bulk_load(&records_from_keys(&keys));
    if smoothed {
        CsvOptimizer::new(CsvConfig::for_lipp(0.1)).optimize(&mut index);
    }
    let built = fingerprint(&index, &keys);

    let mut stored: std::collections::BTreeSet<Key> = keys.iter().copied().collect();
    let mut rng = SplitMix64::new(7);
    let mut inserted = 0;
    while inserted < INSERTS {
        let i = rng.next_below(keys.len() as u64 - 1) as usize;
        let key = keys[i] + (keys[i + 1] - keys[i]) / 2;
        if stored.insert(key) {
            assert!(index.insert(key, key ^ 0x5a5a));
            inserted += 1;
        }
    }
    for &key in keys.iter().step_by(keys.len() / REMOVES).take(REMOVES) {
        assert_eq!(index.remove(key), Some(key));
        stored.remove(&key);
    }
    assert_eq!(index.len(), stored.len());
    let stored: Vec<Key> = stored.into_iter().collect();
    [built, fingerprint(&index, &stored)]
}

fn check(dataset: Dataset, smoothed: bool, golden: [(usize, usize, u64, u64); 2]) {
    let got = fingerprints(dataset, smoothed);
    let want = golden.map(|(nodes, slots, shape_hash, level_hash)| Fingerprint {
        nodes,
        slots,
        shape_hash,
        level_hash,
    });
    assert_eq!(
        got,
        want,
        "{} {} layout moved",
        dataset.name(),
        if smoothed { "smoothed" } else { "plain" }
    );
}

#[test]
fn osm_plain_layout_is_pinned() {
    check(
        Dataset::Osm,
        false,
        [
            (2_962, 89_454, 0x1e24c53cb8490fb5, 0xbbcaec975d621002),
            (3_582, 94_414, 0x6614f1f56cd9120c, 0xe95694b547ff906),
        ],
    );
}

#[test]
fn osm_smoothed_layout_is_pinned() {
    check(
        Dataset::Osm,
        true,
        [
            (2_735, 89_972, 0x1c75aa068c697969, 0x33f7ca4cf3736723),
            (3_357, 94_948, 0xfcacded629eb45ea, 0x3ad5c4f9961b45c7),
        ],
    );
}

#[test]
fn genome_plain_layout_is_pinned() {
    check(
        Dataset::Genome,
        false,
        [
            (143, 65_056, 0x95df2d43b48f24d1, 0x2fe17e965171eba4),
            (654, 69_144, 0x21f8ec26f4398989, 0x2fe14bcd942d1c44),
        ],
    );
}

#[test]
fn genome_smoothed_layout_is_pinned() {
    check(
        Dataset::Genome,
        true,
        [
            (66, 65_122, 0xce4752b91f62a498, 0xc674beefb055a645),
            (545, 68_954, 0x1b53479606982bdf, 0x9e4081626c8f34e4),
        ],
    );
}
