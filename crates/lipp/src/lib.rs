//! A from-scratch reproduction of **LIPP** — the *Updatable Learned Index
//! with Precise Positions* [Wu et al., VLDB 2021] — plus the CSV integration
//! hooks of the paper under reproduction.
//!
//! LIPP nodes hold a linear model over an array of slots; every key is stored
//! *exactly* at the slot its model predicts, so lookups never perform a local
//! search. Keys whose predictions collide are pushed into a recursively built
//! child node occupying the contested slot, which is precisely how difficult
//! key-space regions end up many levels deep (Fig. 1 of the CSV paper). The
//! CSV optimisation collects such sub-trees, smooths their keys with virtual
//! points, and rebuilds them as a single node whose model now places almost
//! every key without conflicts.
//!
//! Faithfulness notes (documented deviations from the original C++ code):
//!
//! * the build model is a conflict-aware least-squares fit rather than the
//!   full FMCD search; both aim to minimise slot collisions,
//! * the insert-time adjustment strategy rebuilds a sub-tree once the number
//!   of inserts since its construction exceeds half its size, a simplified
//!   form of LIPP's conflict/size-ratio trigger.
//!
//! The node format is the original's: a slot is a 16-byte entry (a record's
//! key and value, or a child's id) plus a 2-bit type tag (empty, record or
//! child), the tags packed 32 to a `u64`. Every virtual point smoothing adds
//! therefore costs 16 bytes and 2 bits, the storage cost the paper's space
//! figures assume for LIPP.

#![forbid(unsafe_code)]

mod csv_integration;
mod index;
mod node;

pub use index::{LippConfig, LippIndex};
pub use node::LippNodeView;

#[cfg(test)]
mod proptests {
    use super::LippIndex;
    use csv_common::key::identity_records;
    use csv_common::traits::LearnedIndex;
    use csv_core::{CsvConfig, CsvOptimizer};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Bulk-loaded LIPP answers membership queries exactly.
        #[test]
        fn lookup_matches_oracle(mut keys in prop::collection::vec(0u64..2_000_000, 1..500)) {
            keys.sort_unstable();
            keys.dedup();
            let index = LippIndex::bulk_load(&identity_records(&keys));
            prop_assert_eq!(index.len(), keys.len());
            for &k in &keys {
                prop_assert_eq!(index.get(k), Some(k));
            }
            for probe in [1u64, 999_999, 1_999_999] {
                let expected = keys.binary_search(&probe).is_ok();
                prop_assert_eq!(index.get(probe).is_some(), expected);
            }
        }

        /// Random inserts keep LIPP consistent with a BTreeMap oracle.
        #[test]
        fn inserts_match_btreemap(
            mut base in prop::collection::vec(0u64..500_000, 1..200),
            extra in prop::collection::vec((0u64..500_000, 0u64..100), 0..200),
        ) {
            base.sort_unstable();
            base.dedup();
            let mut index = LippIndex::bulk_load(&identity_records(&base));
            let mut oracle: std::collections::BTreeMap<u64, u64> =
                base.iter().map(|&k| (k, k)).collect();
            for (k, v) in extra {
                index.insert(k, v);
                oracle.insert(k, v);
            }
            prop_assert_eq!(index.len(), oracle.len());
            for (&k, &v) in &oracle {
                prop_assert_eq!(index.get(k), Some(v));
            }
        }

        /// CSV optimisation never changes query answers, never loses keys,
        /// and every key keeps a valid level assignment.
        #[test]
        fn csv_preserves_answers(
            mut keys in prop::collection::vec(0u64..3_000_000, 50..400),
        ) {
            keys.sort_unstable();
            keys.dedup();
            let mut index = LippIndex::bulk_load(&identity_records(&keys));
            let report = CsvOptimizer::new(CsvConfig::for_lipp(0.2)).optimize(&mut index);
            prop_assert_eq!(index.len(), keys.len());
            for &k in &keys {
                prop_assert_eq!(index.get(k), Some(k));
                prop_assert!(index.level_of_key(k).is_some());
            }
            prop_assert!(report.subtrees_considered() >= report.subtrees_rebuilt);
            prop_assert_eq!(index.stats().level_histogram.total(), keys.len());
        }
    }
}
