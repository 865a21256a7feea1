//! Timed passes over one index through its public trait methods, shared by
//! the `lookup-bare` segment and the layer replay.

use crate::oracle::{Oracle, Tally};
use crate::stats::{block_median_per_op, median_u64};
use csv_common::traits::{collect_range_visit, LearnedIndex, RangeIndex};
use csv_common::Key;
use std::hint::black_box;
use std::time::Instant;

/// Folded into a block's checksum for a key the index does not hold.
const MISS: u64 = 0x5555_5555_5555_5555;

fn fold(sum: u64, value: Option<u64>) -> u64 {
    sum.wrapping_mul(31).wrapping_add(value.unwrap_or(MISS))
}

/// A fixed list of point lookups timed in blocks. Each block's answers are
/// folded into a checksum inside the timed span (two ALU ops per lookup;
/// storing 1000 answers would cost more) and the checksum is compared with
/// the oracle's outside it.
pub struct LookupPass {
    queries: Vec<Key>,
    expected: Vec<u64>,
    block: usize,
}

impl LookupPass {
    pub fn new(queries: Vec<Key>, oracle: &Oracle, block: usize) -> Self {
        let expected = queries
            .chunks(block)
            .map(|chunk| {
                chunk
                    .iter()
                    .fold(0, |sum, &k| fold(sum, oracle.expected(k)))
            })
            .collect();
        Self {
            queries,
            expected,
            block,
        }
    }

    /// One pass over every block; returns the median block's time per
    /// lookup in nanoseconds and appends every block's time to `blocks`.
    pub fn timed<I: LearnedIndex + ?Sized>(
        &self,
        index: &I,
        tally: &mut Tally,
        blocks: &mut Vec<u64>,
    ) -> f64 {
        let first = blocks.len();
        for (chunk, &expected) in self.queries.chunks(self.block).zip(&self.expected) {
            let t = Instant::now();
            let mut sum = 0u64;
            for &key in chunk {
                sum = fold(sum, index.get(black_box(key)));
            }
            let ns = t.elapsed().as_nanos() as u64;
            tally.record_group(chunk.len() as u64, black_box(sum) == expected);
            // A short last block would skew the per-lookup time.
            if chunk.len() == self.block {
                blocks.push(ns);
            }
        }
        let mut own = blocks[first..].to_vec();
        block_median_per_op(&mut own, self.block)
    }
}

/// Median time in microseconds of a scan of `limit` records from each of
/// `starts`, every scan checked against the oracle outside its timed span.
pub fn scan_pass<I: RangeIndex + ?Sized>(
    index: &I,
    starts: &[Key],
    limit: usize,
    oracle: &mut Oracle,
) -> f64 {
    let mut samples: Vec<u64> = starts
        .iter()
        .map(|&lo| {
            let t = Instant::now();
            let records = collect_range_visit(index, lo, Key::MAX, limit);
            let ns = t.elapsed().as_nanos() as u64;
            oracle.check_scan::<()>(lo, limit, Ok(&records));
            ns
        })
        .collect();
    median_u64(&mut samples) as f64 / 1e3
}
