//! The `BTreeMap` oracle every answer is compared with, and the failure
//! count that comparison feeds.
//!
//! One client thread is the only writer in every workload, so the oracle is
//! exact even while the maintenance engine rebuilds shards behind the
//! server. Comparisons run outside the timed spans.

use csv_common::{Key, KeyValue, Value};
use std::collections::BTreeMap;

/// Operations attempted and operations that errored, were refused or
/// disagreed with the oracle.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds another tally's counts to this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `ops` operations checked as one group (a timed block of lookups whose
    /// answers were folded into a checksum): a wrong checksum fails them all.
    pub fn record_group(&mut self, ops: u64, ok: bool) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
        }
    }
}

#[derive(Debug, Clone, Default)]
pub struct Oracle {
    map: BTreeMap<Key, Value>,
    pub tally: Tally,
}

impl Oracle {
    pub fn from_records(records: &[KeyValue]) -> Self {
        Self {
            map: records.iter().map(|r| (r.key, r.value)).collect(),
            tally: Tally::default(),
        }
    }

    pub fn expected(&self, key: Key) -> Option<Value> {
        self.map.get(&key).copied()
    }

    /// A point read's answer; an `Err` (transport error, refusal) fails it.
    pub fn check_get<E>(&mut self, key: Key, got: Result<Option<Value>, E>) {
        let ok = matches!(got, Ok(value) if value == self.expected(key));
        self.tally.record(ok);
    }

    /// A batched read's answers, one operation per key.
    pub fn check_multi_get<E>(&mut self, keys: &[Key], got: Result<Vec<Option<Value>>, E>) {
        match got {
            Ok(values) if values.len() == keys.len() => {
                for (&key, value) in keys.iter().zip(values) {
                    let ok = value == self.expected(key);
                    self.tally.record(ok);
                }
            }
            _ => self.tally.record_group(keys.len() as u64, false),
        }
    }

    /// A scan from `lo` limited to `limit` records: exactly the first
    /// `limit` live records at or above `lo`, in key order.
    pub fn check_scan<E>(&mut self, lo: Key, limit: usize, got: Result<&[KeyValue], E>) {
        let ok = match got {
            Ok(records) => {
                let mut want = self.map.range(lo..).take(limit);
                records.len() == self.map.range(lo..).take(limit).count()
                    && records
                        .iter()
                        .all(|r| want.next() == Some((&r.key, &r.value)))
            }
            Err(_) => false,
        };
        self.tally.record(ok);
    }

    /// Applies an acknowledged upsert and checks the reported freshness.
    pub fn check_insert<E>(&mut self, key: Key, value: Value, got: Result<bool, E>) {
        match got {
            Ok(fresh) => {
                let was_absent = self.map.insert(key, value).is_none();
                self.tally.record(fresh == was_absent);
            }
            // Not acknowledged: the write may or may not have applied, so
            // the oracle no longer knows this key — but the run has failed.
            Err(_) => self.tally.record(false),
        }
    }

    /// Applies an acknowledged group of upserts and checks the reported
    /// count of fresh keys; one operation per upsert.
    pub fn check_insert_batch(&mut self, batch: &[(Key, Value)], fresh_reported: usize) {
        let mut fresh = 0usize;
        for &(key, value) in batch {
            fresh += usize::from(self.map.insert(key, value).is_none());
        }
        self.tally
            .record_group(batch.len() as u64, fresh == fresh_reported);
    }

    /// Full contents of a recovered index against the oracle: one operation
    /// per live key (every acknowledged write must be back, nothing else).
    pub fn check_contents(&mut self, records: &[KeyValue]) {
        let ok = records.len() == self.map.len()
            && records
                .iter()
                .zip(self.map.iter())
                .all(|(r, (&key, &value))| r.key == key && r.value == value);
        self.tally.record_group(self.map.len() as u64, ok);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle() -> Oracle {
        let records: Vec<KeyValue> = (0..100u64)
            .map(|k| KeyValue {
                key: k * 2,
                value: k,
            })
            .collect();
        Oracle::from_records(&records)
    }

    #[test]
    fn correct_answers_do_not_fail() {
        let mut o = oracle();
        o.check_get::<()>(4, Ok(Some(2)));
        o.check_get::<()>(5, Ok(None));
        o.check_multi_get::<()>(&[0, 1, 2], Ok(vec![Some(0), None, Some(1)]));
        let scan = [
            KeyValue { key: 10, value: 5 },
            KeyValue { key: 12, value: 6 },
        ];
        o.check_scan::<()>(9, 2, Ok(&scan));
        o.check_insert::<()>(7, 70, Ok(true));
        o.check_insert::<()>(7, 71, Ok(false));
        o.check_insert_batch(&[(9, 1), (4, 1)], 1);
        assert_eq!(
            o.tally,
            Tally {
                attempted: 10,
                failed: 0
            }
        );
        assert_eq!(o.expected(7), Some(71));
    }

    #[test]
    fn a_corrupted_answer_stream_is_counted() {
        let mut o = oracle();
        o.check_get::<()>(4, Ok(Some(3))); // wrong value
        o.check_get::<()>(5, Ok(Some(1))); // phantom hit
        o.check_get(6, Err("connection reset")); // refused
        o.check_multi_get::<()>(&[0, 2], Ok(vec![Some(0), Some(9)])); // one of two wrong
        o.check_multi_get::<()>(&[0, 2], Ok(vec![Some(0)])); // short answer fails both
        let short = [KeyValue { key: 10, value: 5 }];
        o.check_scan::<()>(9, 2, Ok(&short)); // truncated early
        let wrong = [
            KeyValue { key: 10, value: 5 },
            KeyValue { key: 14, value: 7 },
        ];
        o.check_scan::<()>(9, 2, Ok(&wrong)); // skipped a record
        o.check_insert::<()>(8, 1, Ok(true)); // claimed fresh, was present
        o.check_insert_batch(&[(300, 1), (302, 1)], 1); // miscounted
        let mut contents: Vec<KeyValue> = Vec::new();
        o.check_contents(&contents); // lost everything
        assert_eq!(
            o.tally.failed,
            1 + 1 + 1 + 1 + 2 + 1 + 1 + 1 + 2 + o.map.len() as u64
        );

        let before = o.tally;
        contents.extend((0..100u64).map(|k| KeyValue {
            key: k * 2,
            value: k,
        }));
        let mut fresh = oracle();
        fresh.check_contents(&contents);
        assert_eq!(
            fresh.tally,
            Tally {
                attempted: 100,
                failed: 0
            }
        );
        assert!(before.failed > 0 && before.attempted >= before.failed);
    }
}
