//! Property tests pinning [`PMap`]'s spill boundary against a `BTreeMap`
//! oracle: write sequences sized to leave the delta run one entry below,
//! exactly at, and one entry past [`delta_bound`] over main runs of 0, 1,
//! `delta_bound(0)` and 4096 entries, overwrites of main keys interleaved
//! with new keys — the off-by-one territory where a two-run map actually
//! breaks (a lost overwrite, a double-counted key, a spill one write late).

use csv_concurrent::pmap::{delta_bound, PMap};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Verifies `map` against `oracle` exhaustively: length, ordered iteration,
/// point lookups (hits and misses around every present key) and range
/// slices across chunk boundaries.
fn assert_matches_oracle(map: &PMap<u64, u64>, oracle: &BTreeMap<u64, u64>) {
    assert_eq!(map.len(), oracle.len());
    assert_eq!(map.is_empty(), oracle.is_empty());
    let iterated: Vec<(u64, u64)> = map.iter().map(|(k, v)| (*k, *v)).collect();
    let expected: Vec<(u64, u64)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(iterated, expected, "ordered iteration diverged");
    for (&k, &v) in oracle {
        assert_eq!(map.get(&k), Some(&v), "hit for {k}");
        if !oracle.contains_key(&(k + 1)) {
            assert_eq!(map.get(&(k + 1)), None, "phantom key {}", k + 1);
        }
    }
    // Range slices at and across the chunk boundaries.
    if let (Some((&lo, _)), Some((&hi, _))) = (oracle.iter().next(), oracle.iter().next_back()) {
        let mid = lo + (hi - lo) / 2;
        for (a, b) in [(lo, hi), (lo, mid), (mid, hi), (mid, mid)] {
            let got: Vec<u64> = map.range(&a, &b).map(|(k, _)| *k).collect();
            let want: Vec<u64> = oracle.range(a..=b).map(|(k, _)| *k).collect();
            assert_eq!(got, want, "range [{a}, {b}]");
        }
    }
}

/// Main-run sizes pinned to the edges: empty, a single entry, the bound's
/// floor, and a typical full overlay.
fn main_len() -> impl Strategy<Value = usize> {
    (0usize..4).prop_map(|pick| [0, 1, delta_bound(0), 4_096][pick])
}

/// The delta-run model: which keys the map's delta must hold, given the
/// spill rule — a publication that grows the delta past the bound of the
/// current main run merges everything into a new main run.
struct DeltaModel {
    delta: BTreeSet<u64>,
    main_len: usize,
}

impl DeltaModel {
    fn publish(&mut self, keys: impl IntoIterator<Item = u64>, oracle_len: usize) {
        self.delta.extend(keys);
        if self.delta.len() > delta_bound(self.main_len) {
            self.delta.clear();
            self.main_len = oracle_len;
        }
    }
}

/// A main run of `len` keys at even multiples of `stride` above `seed`, so
/// new keys can land between any two of them.
fn seeded_main(len: usize, seed: u64, stride: u64) -> (PMap<u64, u64>, BTreeMap<u64, u64>) {
    let oracle: BTreeMap<u64, u64> = (0..len as u64)
        .map(|i| (seed + 2 * i * stride, i))
        .collect();
    let map = PMap::from_sorted(oracle.iter().map(|(&k, &v)| (k, v)).collect());
    (map, oracle)
}

/// The `w`-th write of a boundary sequence: every `every`-th write
/// overwrites a main key (walking the main run), the rest add new keys
/// between and beyond the main keys.
fn write_key(w: usize, every: usize, main_len: usize, seed: u64, stride: u64) -> u64 {
    if main_len > 0 && w.is_multiple_of(every) {
        seed + 2 * ((w / every) % main_len) as u64 * stride
    } else {
        seed + (2 * w as u64 + 1) * stride
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Point writes sized to the bound −1 / at / +1 over each main size:
    /// the map matches the oracle after every write near the edge, the
    /// delta run holds exactly the model's keys, and the predecessor of
    /// every write is untouched.
    #[test]
    fn point_writes_at_the_spill_boundary_match_the_oracle(
        main in main_len(),
        over in 0usize..3,
        every in 2usize..5,
        stride in 1u64..5,
        seed in 0u64..1_000,
    ) {
        let (mut map, mut oracle) = seeded_main(main, seed, stride);
        let mut model = DeltaModel { delta: BTreeSet::new(), main_len: main };
        let writes = delta_bound(main) - 1 + over;
        for w in 0..writes {
            let key = write_key(w, every, main, seed, stride);
            let value = 10_000 + w as u64;
            let before = map.clone();
            let before_value = before.get(&key).copied();
            let (next, previous) = map.insert(key, value);
            prop_assert_eq!(previous, oracle.insert(key, value));
            model.publish([key], oracle.len());
            prop_assert_eq!(next.delta_len(), model.delta.len(), "write {}", w);
            prop_assert_eq!(before.get(&key).copied(), before_value);
            map = next;
            if writes - w <= 3 {
                assert_matches_oracle(&map, &oracle);
            }
        }
        // The delta run spilled iff the sequence wrote more distinct keys
        // than the bound (the last write is the only one that can).
        let distinct: BTreeSet<u64> =
            (0..writes).map(|w| write_key(w, every, main, seed, stride)).collect();
        prop_assert_eq!(map.delta_len() == 0, distinct.len() > delta_bound(main));
        assert_matches_oracle(&map, &oracle);
    }

    /// The same sequences published as sorted batches of random sizes:
    /// `insert_many` spills exactly when the merged delta passes the bound,
    /// and a map built from the oracle's contents as one main run reads the
    /// same.
    #[test]
    fn batched_writes_at_the_spill_boundary_match_the_oracle(
        main in main_len(),
        over in 0usize..3,
        every in 2usize..5,
        cuts in pvec(1usize..40, 1..40),
        seed in 0u64..1_000,
    ) {
        let (mut map, mut oracle) = seeded_main(main, seed, 3);
        let mut model = DeltaModel { delta: BTreeSet::new(), main_len: main };
        let writes: Vec<(u64, u64)> = (0..delta_bound(main) - 1 + over)
            .map(|w| (write_key(w, every, main, seed, 3), 10_000 + w as u64))
            .collect();
        let mut rest = &writes[..];
        for &cut in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (now, later) = rest.split_at(cut.min(rest.len()));
            rest = later;
            // A batch is sorted and de-duplicated; its last write of a key wins.
            let batch: BTreeMap<u64, u64> = now.iter().copied().collect();
            let batch: Vec<(u64, u64)> = batch.into_iter().collect();
            map = map.insert_many(&batch);
            oracle.extend(batch.iter().copied());
            model.publish(batch.iter().map(|&(k, _)| k), oracle.len());
            prop_assert_eq!(map.delta_len(), model.delta.len());
            assert_matches_oracle(&map, &oracle);
        }
        let rebuilt = PMap::from_sorted(oracle.iter().map(|(&k, &v)| (k, v)).collect());
        prop_assert_eq!(rebuilt.delta_len(), 0);
        assert_matches_oracle(&rebuilt, &oracle);
    }

    /// Random interleaved upserts and lookups over a key universe sized to
    /// the bound, so the delta run repeatedly fills and spills. Persistence
    /// check rides along: the previous version must be unaffected by the
    /// next op.
    #[test]
    fn interleaved_ops_at_the_boundary_match_the_oracle(
        ops in pvec((0u64..(3 * delta_bound(0) as u64), 0u8..4), 1..300),
    ) {
        let mut map = PMap::new();
        let mut oracle = BTreeMap::new();
        for (i, &(key, kind)) in ops.iter().enumerate() {
            let before = map.clone();
            let before_len = before.len();
            let before_value = before.get(&key).copied();
            if kind == 0 {
                prop_assert_eq!(map.get(&key), oracle.get(&key));
            } else {
                let value = i as u64;
                let (next, previous) = map.insert(key, value);
                prop_assert_eq!(previous, oracle.insert(key, value));
                map = next;
            }
            // The pre-op version is immutable: same length, and the
            // touched key still reads its old value (or absence).
            prop_assert_eq!(before.len(), before_len);
            prop_assert_eq!(before.get(&key).copied(), before_value);
            prop_assert_eq!(map.len(), oracle.len());
        }
        assert_matches_oracle(&map, &oracle);
    }

    /// `get_many` at the spill edge: with the delta run one below, at and
    /// one past the bound, a sorted probe batch covering every written key,
    /// every main key and the gaps between them gets exactly what per-key
    /// `get` gets, hits from either run and misses alike.
    #[test]
    fn get_many_at_the_spill_boundary_matches_get(
        main in main_len(),
        over in 0usize..3,
        every in 2usize..5,
        seed in 0u64..1_000,
    ) {
        let (mut map, _) = seeded_main(main, seed, 2);
        let writes = delta_bound(main) - 1 + over;
        for w in 0..writes {
            map = map.insert(write_key(w, every, main, seed, 2), 10_000 + w as u64).0;
        }
        let top = seed + 2 * 2 * (main.max(writes) as u64 + 1);
        let probes: Vec<u64> = (0..=top).collect();
        let mut got = vec![None; probes.len()];
        map.get_many(&probes, |i, v| got[i] = Some(*v));
        let want: Vec<Option<u64>> = probes.iter().map(|k| map.get(k).copied()).collect();
        prop_assert_eq!(got, want);
    }
}
