//! Multi-threaded read-throughput measurement.
//!
//! A small, dependency-free harness used by the `concurrent_reads` example
//! and the scalability bench: it fans a query batch out over a configurable
//! number of threads against a [`crate::ShardedIndex`] and
//! reports aggregate throughput, which is how the SALI paper presents its
//! scalability results.

use crate::sharded::ShardedIndex;
use csv_common::traits::LearnedIndex;
use csv_common::Key;
use std::time::{Duration, Instant};

/// The result of one throughput run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputReport {
    /// Number of worker threads used.
    pub threads: usize,
    /// Total number of lookups executed across all threads.
    pub total_lookups: usize,
    /// Number of lookups that found their key.
    pub hits: usize,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl ThroughputReport {
    /// Aggregate lookups per second.
    pub fn lookups_per_second(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.total_lookups as f64 / self.elapsed.as_secs_f64()
    }

    /// Fraction of lookups that found their key.
    pub fn hit_rate(&self) -> f64 {
        if self.total_lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.total_lookups as f64
        }
    }
}

/// Splits `queries` across `threads` workers, runs them concurrently against
/// the sharded index and returns the aggregate report. Every lookup goes
/// through [`ShardedIndex::get`] — the per-operation path a server's mixed
/// traffic takes.
///
/// # Panics
/// Panics when `threads == 0`.
pub fn run_read_throughput<I: LearnedIndex + Sync + Send>(
    index: &ShardedIndex<I>,
    queries: &[Key],
    threads: usize,
) -> ThroughputReport {
    run_workers(queries, threads, |worker| {
        let mut hits = 0usize;
        for &q in worker {
            if index.get(q).is_some() {
                hits += 1;
            }
        }
        hits
    })
}

/// The read-mostly fast path: each worker pins a [`ShardedIndex::read_view`]
/// snapshot once and serves its whole query chunk from it, which drops even
/// the per-lookup RCU counter traffic, leaving plain memory reads.
///
/// The pinned view is a snapshot: writes published after a worker started
/// its chunk are invisible to that worker. That is the right trade for
/// read-dominated batches (analytics scans, benchmark replays), not for
/// read-your-writes traffic.
///
/// # Panics
/// Panics when `threads == 0`.
pub fn run_read_throughput_pinned<I: LearnedIndex + Sync + Send>(
    index: &ShardedIndex<I>,
    queries: &[Key],
    threads: usize,
) -> ThroughputReport {
    run_workers(queries, threads, |worker| {
        let view = index.read_view().expect("read_view is always Some");
        worker.iter().filter(|&&q| view.get(q).is_some()).count()
    })
}

fn run_workers(
    queries: &[Key],
    threads: usize,
    work: impl Fn(&[Key]) -> usize + Sync,
) -> ThroughputReport {
    assert!(threads > 0, "need at least one worker thread");
    let chunk = queries.len().div_ceil(threads).max(1);
    let started = Instant::now();
    let hits: usize = crossbeam::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for worker in queries.chunks(chunk) {
            handles.push(scope.spawn(|_| work(worker)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker must not panic"))
            .sum()
    })
    .expect("threads must not panic");
    ThroughputReport {
        threads,
        total_lookups: queries.len(),
        hits,
        elapsed: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ShardingConfig;
    use csv_btree::BPlusTree;
    use csv_common::key::identity_records;
    use csv_datasets::Dataset;

    #[test]
    fn throughput_run_counts_hits_and_misses() {
        let keys = Dataset::Facebook.generate(20_000, 7);
        let index = ShardedIndex::<BPlusTree>::bulk_load(
            &identity_records(&keys),
            ShardingConfig::default(),
        );
        // Half the queries hit, half miss.
        let mut queries: Vec<Key> = keys.iter().copied().step_by(2).collect();
        let misses = queries.len();
        queries.extend((0..misses as u64).map(|i| *keys.last().unwrap() + 1 + i));
        let report = run_read_throughput(&index, &queries, 4);
        assert_eq!(report.threads, 4);
        assert_eq!(report.total_lookups, queries.len());
        assert_eq!(report.hits, queries.len() - misses);
        assert!((report.hit_rate() - 0.5).abs() < 1e-9);
        assert!(report.lookups_per_second() > 0.0);
    }

    #[test]
    fn single_and_many_threads_find_the_same_hits() {
        let keys = Dataset::Genome.generate(10_000, 3);
        let index = ShardedIndex::<BPlusTree>::bulk_load(
            &identity_records(&keys),
            ShardingConfig::default(),
        );
        let queries: Vec<Key> = keys.iter().copied().step_by(3).collect();
        let one = run_read_throughput(&index, &queries, 1);
        let eight = run_read_throughput(&index, &queries, 8);
        assert_eq!(one.hits, queries.len());
        assert_eq!(eight.hits, one.hits);
        assert_eq!(eight.total_lookups, one.total_lookups);
    }

    #[test]
    fn pinned_and_per_lookup_paths_agree_on_both_read_paths() {
        let keys = Dataset::Osm.generate(12_000, 5);
        let mut queries: Vec<Key> = keys.iter().copied().step_by(2).collect();
        queries.extend((0..100u64).map(|i| *keys.last().unwrap() + 1 + i));
        let index = ShardedIndex::<BPlusTree>::bulk_load(
            &identity_records(&keys),
            ShardingConfig::default(),
        );
        let per_lookup = run_read_throughput(&index, &queries, 3);
        let pinned = run_read_throughput_pinned(&index, &queries, 3);
        assert_eq!(per_lookup.hits, pinned.hits);
        assert_eq!(per_lookup.total_lookups, pinned.total_lookups);
    }

    #[test]
    fn empty_query_batch_is_fine() {
        let index = ShardedIndex::<BPlusTree>::bulk_load(&[], ShardingConfig::default());
        let report = run_read_throughput(&index, &[], 2);
        assert_eq!(report.total_lookups, 0);
        assert_eq!(report.hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let index = ShardedIndex::<BPlusTree>::bulk_load(&[], ShardingConfig::default());
        run_read_throughput(&index, &[1, 2, 3], 0);
    }
}
