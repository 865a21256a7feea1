//! A persistent sorted map held as two sorted runs.
//!
//! [`PMap`] is the overlay store behind the RCU shard snapshots
//! ([`crate::sharded::ShardSnapshot`]): every update returns a *new* map
//! and leaves its predecessor intact, so a pinned snapshot never sees a
//! later write. The map is the main-file + differential-file split
//! (Severance & Lohman, "Differential Files", TODS 1976), the two-level
//! case of an LSM-tree:
//!
//! * `main` — a large sorted run, shared by every successor until a spill;
//! * `delta` — a small sorted run of newer entries, which win over `main`.
//!
//! Each run is one `Arc<[(K, V)]>` allocation. A publication merges its
//! batch into a copy of `delta` and shares `main`; when `delta` outgrows
//! [`delta_bound`]`(|main|)` = max(32, ⌊√(16·|main|)⌋) it *spills*: both
//! runs merge into a new `main` in one linear pass and `delta` restarts
//! empty. With `D` the bound and `b` keys per publication, a publication
//! copies O(D + |main|·b/D) entries amortised — O(√n) at n entries —
//! sequentially, with no per-node refcount traffic.
//!
//! Reads allocate nothing: [`PMap::get`] binary-searches `delta` then
//! `main`, [`PMap::get_many`] sweeps both runs forward once per batch, and
//! [`PMap::iter`] / [`PMap::range`] merge the two slices on the fly. There
//! is no removal: overlays delete by writing a tombstone value.

use std::sync::Arc;

/// The smallest bound on `delta`'s length, so a small map does not spill
/// on every few writes.
const MIN_DELTA: usize = 32;

/// The most entries `delta` holds over a `main` run of `main_len` entries;
/// the publication that would grow `delta` past it spills instead. Public
/// so boundary tests can pin sequences at exactly the spill point.
pub fn delta_bound(main_len: usize) -> usize {
    MIN_DELTA.max(main_len.saturating_mul(16).isqrt())
}

/// A persistent sorted map: cheap to clone (two `Arc` bumps), cheap to
/// update (a copy of the small run), ordered to iterate. See the module
/// docs for the design and [`crate::sharded`] for its role in the RCU
/// write path.
#[derive(Clone)]
pub struct PMap<K, V> {
    main: Arc<[(K, V)]>,
    delta: Arc<[(K, V)]>,
    /// Distinct keys across both runs.
    len: usize,
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> PMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::from_sorted(Vec::new())
    }

    /// A map holding `entries` — sorted by key, no key twice — as its main
    /// run, with an empty delta.
    pub fn from_sorted(entries: Vec<(K, V)>) -> Self {
        Self {
            len: entries.len(),
            main: entries.into(),
            delta: Arc::from(Vec::new()),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries in the delta run, not yet spilled into the main run (a
    /// spill leaves it at 0).
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }
}

impl<K: Ord + Clone, V: Clone> PMap<K, V> {
    /// Looks up `key`, allocating nothing.
    pub fn get(&self, key: &K) -> Option<&V> {
        seek(&self.delta, &mut 0, key).or_else(|| seek(&self.main, &mut 0, key))
    }

    /// Looks up a whole sorted, de-duplicated batch of keys in one forward
    /// sweep over each run — each probe searches only the suffix the
    /// previous key left. Calls `hit(i, value)` for every `keys[i]` that is
    /// present, in ascending key order; absent keys produce no call.
    pub fn get_many(&self, keys: &[K], mut hit: impl FnMut(usize, &V)) {
        let (mut d, mut m) = (0, 0);
        for (i, key) in keys.iter().enumerate() {
            if let Some(v) =
                seek(&self.delta, &mut d, key).or_else(|| seek(&self.main, &mut m, key))
            {
                hit(i, v);
            }
        }
    }

    /// Returns a successor map with `key` bound to `value` plus the key's
    /// previous value. The successor shares `main` with `self` unless the
    /// write spills.
    pub fn insert(&self, key: K, value: V) -> (Self, Option<V>) {
        let previous = self.get(&key).cloned();
        let len = self.len + usize::from(previous.is_none());
        let delta = merge(&self.delta, &[(key, value)], |_| {});
        (self.with_delta(delta, len), previous)
    }

    /// Applies a whole sorted, de-duplicated batch of upserts, returning
    /// the successor map — the group-commit analogue of [`PMap::insert`]:
    /// the batch merges into **one** copy of `delta` however many keys it
    /// holds, and `main` stays shared unless the merged delta spills.
    pub fn insert_many(&self, batch: &[(K, V)]) -> Self {
        if batch.is_empty() {
            return self.clone();
        }
        debug_assert!(
            batch.windows(2).all(|w| w[0].0 < w[1].0),
            "insert_many batches must be sorted and de-duplicated"
        );
        // Batch keys new to `delta` are new to the map unless `main` has them.
        let (mut at, mut fresh) = (0, 0);
        let delta = merge(&self.delta, batch, |key| {
            fresh += usize::from(seek(&self.main, &mut at, key).is_none());
        });
        self.with_delta(delta, self.len + fresh)
    }

    /// The successor holding `delta` over this map's `main` (`len` distinct
    /// keys in all), or, when `delta` outgrows its bound, the spill of both
    /// into a new `main`.
    fn with_delta(&self, delta: Vec<(K, V)>, len: usize) -> Self {
        if delta.len() <= delta_bound(self.main.len()) {
            return Self {
                main: Arc::clone(&self.main),
                delta: delta.into(),
                len,
            };
        }
        let main = merge(&self.main, &delta, |_| {});
        debug_assert_eq!(main.len(), len, "a spill holds every distinct key");
        Self::from_sorted(main)
    }

    /// Iterates every entry in ascending key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            main: &self.main,
            delta: &self.delta,
        }
    }

    /// Iterates the entries with keys in `[lo, hi]` in ascending order,
    /// seeking directly to `lo` in both runs (no scan of the preceding
    /// entries). Empty when `lo > hi`.
    pub fn range<'a>(&'a self, lo: &K, hi: &K) -> Iter<'a, K, V> {
        let slice = |run: &'a [(K, V)]| -> &'a [(K, V)] {
            let from = &run[run.partition_point(|(k, _)| k < lo)..];
            &from[..from.partition_point(|(k, _)| k <= hi)]
        };
        Iter {
            main: slice(&self.main),
            delta: slice(&self.delta),
        }
    }
}

impl<K: Ord + Clone + std::fmt::Debug, V: Clone + std::fmt::Debug> std::fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Finds `key` in the sorted `run` at or after `*at`, leaving `*at` at the
/// first entry not below `key` — so ascending probes sweep `run` once.
fn seek<'a, K: Ord, V>(run: &'a [(K, V)], at: &mut usize, key: &K) -> Option<&'a V> {
    *at += run[*at..].partition_point(|(k, _)| k < key);
    run.get(*at).filter(|(k, _)| k == key).map(|(_, v)| v)
}

/// Merges two sorted, de-duplicated runs into one; `newer` wins ties, and
/// `added` sees every `newer` key that `older` lacks, in order. The
/// stretches of `older` between consecutive `newer` keys are copied whole,
/// so merging a short run into a long one is a few bulk copies.
fn merge<K: Ord + Clone, V: Clone>(
    older: &[(K, V)],
    newer: &[(K, V)],
    mut added: impl FnMut(&K),
) -> Vec<(K, V)> {
    let mut out = Vec::with_capacity(older.len() + newer.len());
    let mut at = 0;
    for entry in newer {
        let end = at + older[at..].partition_point(|(k, _)| *k < entry.0);
        out.extend_from_slice(&older[at..end]);
        out.push(entry.clone());
        at = end;
        if older.get(end).is_some_and(|(k, _)| *k == entry.0) {
            at += 1;
        } else {
            added(&entry.0);
        }
    }
    out.extend_from_slice(&older[at..]);
    out
}

/// An in-order merge of the two runs' remaining slices: borrowed entries,
/// no allocation, and a `delta` entry shadows the `main` entry with the
/// same key.
pub struct Iter<'a, K, V> {
    main: &'a [(K, V)],
    delta: &'a [(K, V)],
}

impl<'a, K: Ord, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let (main, delta) = (self.main, self.delta);
        let from_delta = match (main.first(), delta.first()) {
            (Some((m, _)), Some((d, _))) => {
                if m == d {
                    // Shadowed by the newer `delta` entry.
                    self.main = &main[1..];
                }
                m >= d
            }
            (m, _) => m.is_none(),
        };
        let run = if from_delta {
            &mut self.delta
        } else {
            &mut self.main
        };
        let ((k, v), rest) = run.split_first()?;
        *run = rest;
        Some((k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csv_common::rng::SplitMix64;
    use std::collections::BTreeMap;

    fn entries(map: &PMap<u64, u64>) -> Vec<(u64, u64)> {
        map.iter().map(|(&k, &v)| (k, v)).collect()
    }

    #[test]
    fn empty_map_behaves_and_inserts_report_previous_values() {
        let map: PMap<u64, u64> = PMap::new();
        assert!(map.is_empty() && map.get(&7).is_none());
        assert_eq!(
            (map.iter().count(), map.range(&0, &u64::MAX).count()),
            (0, 0)
        );
        map.get_many(&[1, 2, 3], |_, _| panic!("no entries, no hits"));
        let (map, previous) = map.insert(5, 50);
        assert_eq!(previous, None);
        let (map, previous) = map.insert(5, 51);
        assert_eq!((previous, map.len(), map.get(&5)), (Some(50), 1, Some(&51)));
    }

    #[test]
    fn delta_bound_grows_with_the_square_root_of_main() {
        let bounds = [0, 64, 66, 4_096, 4_097, usize::MAX].map(delta_bound);
        assert_eq!(bounds, [32, 32, 32, 256, 256, usize::MAX.isqrt()]);
    }

    /// The map must agree with a `BTreeMap` oracle through a long random
    /// interleaving of upserts, lookups and range slices — the full public
    /// surface, across enough entries to spill many times.
    #[test]
    fn random_interleaving_matches_a_btreemap_oracle() {
        for seed in [3u64, 17, 2029] {
            let mut rng = SplitMix64::new(seed);
            let mut map: PMap<u64, u64> = PMap::new();
            let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
            for step in 0..6_000u64 {
                let key = rng.next_u64() % 2_048;
                if rng.next_u64().is_multiple_of(3) {
                    assert_eq!(map.get(&key), oracle.get(&key));
                } else {
                    let (next, previous) = map.insert(key, step);
                    assert_eq!(previous, oracle.insert(key, step));
                    map = next;
                }
                assert_eq!(map.len(), oracle.len());
                if step % 241 == 0 {
                    let lo = rng.next_u64() % 2_048;
                    let hi = lo + rng.next_u64() % 512;
                    let got: Vec<(u64, u64)> = map.range(&lo, &hi).map(|(k, v)| (*k, *v)).collect();
                    let expected: Vec<(u64, u64)> =
                        oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                    assert_eq!(got, expected, "range [{lo}, {hi}] diverged at step {step}");
                }
            }
            let expected: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(entries(&map), expected, "iteration diverged (seed {seed})");
        }
    }

    /// Persistence across spills: a clone taken before the map spills twice
    /// still iterates exactly its own contents, while the successor holds
    /// the later writes.
    #[test]
    fn a_clone_outlives_later_spills() {
        let mut map: PMap<u64, u64> = PMap::from_sorted((0..100).map(|k| (2 * k, k)).collect());
        map = map.insert_many(&[(1, 1), (4, 40)]);
        let pinned = map.clone();
        let before = entries(&pinned);
        let mut spills = 0;
        for k in 0..200u64 {
            let (next, _) = map.insert(k * 3, k);
            spills += usize::from(next.delta_len() < map.delta_len());
            map = next;
        }
        assert!(spills >= 2, "the writes spilled {spills} times");
        assert_eq!(entries(&pinned), before);
        assert_eq!(pinned.len(), before.len());
        assert_eq!(pinned.get(&4), Some(&40));
        assert_eq!(map.get(&3), Some(&1));
    }

    /// The whole point of the split: a write that does not spill shares
    /// `main` with its predecessor and copies only `delta`; a spill
    /// replaces `main` and empties `delta`.
    #[test]
    fn non_spilling_successors_share_main() {
        let mut map: PMap<u64, u64> = PMap::from_sorted((0..4_096).map(|k| (k, k)).collect());
        let bound = delta_bound(4_096);
        for k in 0..bound as u64 {
            let next = map.insert_many(&[(k * 16, 0)]);
            assert!(Arc::ptr_eq(&next.main, &map.main), "write {k} copied main");
            assert_eq!(next.delta_len(), k as usize + 1);
            map = next;
        }
        let spilled = map.insert(1, 0).0;
        assert!(!Arc::ptr_eq(&spilled.main, &map.main));
        assert_eq!((spilled.delta_len(), spilled.main.len()), (0, 4_096));
        // An empty batch is a wholesale share.
        let same = map.insert_many(&[]);
        assert!(Arc::ptr_eq(&same.main, &map.main) && Arc::ptr_eq(&same.delta, &map.delta));
    }

    /// `insert_many` must be observationally identical to folding `insert`
    /// over the batch — contents and length — across batch sizes that fit
    /// in `delta`, spill it, and exceed the whole map.
    #[test]
    fn insert_many_matches_folded_inserts() {
        let mut rng = SplitMix64::new(41);
        let mut batched: PMap<u64, u64> = PMap::new();
        let mut pointwise: PMap<u64, u64> = PMap::new();
        for round in 0..60u64 {
            let size = [0usize, 1, 3, MIN_DELTA, 4 * MIN_DELTA, 400][(round % 6) as usize];
            let mut batch: Vec<(u64, u64)> =
                (0..size).map(|_| (rng.next_u64() % 4_096, round)).collect();
            batch.sort_by_key(|&(k, _)| k);
            batch.dedup_by_key(|&mut (k, _)| k);
            batched = batched.insert_many(&batch);
            pointwise = batch
                .iter()
                .fold(pointwise, |map, &(k, v)| map.insert(k, v).0);
            assert_eq!(batched.len(), pointwise.len(), "round {round}");
            assert_eq!(entries(&batched), entries(&pointwise), "round {round}");
        }
    }

    /// `get_many` must agree with per-key `get` for every key of a sorted
    /// probe batch — hits in either run and misses mixed, including keys
    /// below the minimum and above the maximum.
    #[test]
    fn get_many_matches_individual_gets() {
        let mut rng = SplitMix64::new(0x6E7);
        let mut map: PMap<u64, u64> = PMap::new();
        for _ in 0..3_000 {
            let k = rng.next_u64() % 8_192;
            map = map.insert(k, k * 3).0;
        }
        assert!(
            map.delta_len() > 0 && !map.main.is_empty(),
            "both runs hold keys"
        );
        let mut probes: Vec<u64> = (0..512).map(|_| rng.next_u64() % 10_000).collect();
        probes.extend([0, u64::MAX]);
        probes.sort_unstable();
        probes.dedup();

        let mut hits: Vec<(usize, u64)> = Vec::new();
        map.get_many(&probes, |i, v| hits.push((i, *v)));
        let expected: Vec<(usize, u64)> = probes
            .iter()
            .enumerate()
            .filter_map(|(i, k)| map.get(k).map(|&v| (i, v)))
            .collect();
        assert_eq!(hits, expected, "bulk lookup diverged from point lookups");
        map.get_many(&[], |_, _| panic!("no keys, no calls"));
    }

    #[test]
    fn range_respects_bounds_in_both_runs() {
        let main = PMap::from_sorted((0..10_000u64).step_by(3).map(|k| (k, k)).collect());
        // Delta entries inside, between and on the edges of main's keys.
        let map = main.insert_many(&[(101, 0), (102, 0), (121, 0), (20_000, 0)]);
        let keys = |lo, hi| -> Vec<u64> { map.range(&lo, &hi).map(|(k, _)| *k).collect() };
        assert_eq!(
            keys(100, 121),
            [101, 102, 105, 108, 111, 114, 117, 120, 121]
        );
        assert_eq!(
            map.range(&102, &102).map(|(_, v)| *v).collect::<Vec<_>>(),
            [0]
        );
        assert_eq!(keys(102, 108), [102, 105, 108]);
        assert_eq!(keys(20_000, 20_000), [20_000]);
        // Inverted and out-of-range bounds are empty.
        for (lo, hi) in [(50, 40), (121, 101), (20_001, 30_000)] {
            assert_eq!(keys(lo, hi), [], "[{lo}, {hi}]");
        }
        // Full-range iteration equals `iter`, one entry per key.
        assert_eq!(map.range(&0, &u64::MAX).count(), map.iter().count());
        assert_eq!(map.iter().count(), map.len());
    }
}
