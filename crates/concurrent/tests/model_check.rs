//! Deterministic model checking of the unsafe concurrency core.
//!
//! Compiled only under the `check` feature, where the `csv_common::sync`
//! shims route every atomic operation and lock acquisition through the
//! `csv_check` controlled scheduler. Each test explores interleavings of a
//! small thread population over the RCU cell or the sharded index —
//! exhaustively where the schedule tree is small enough, by seeded random
//! sampling (with distinct-trace deduplication) where it is not. A failure
//! panics with a replayable choice trace (`csv_check::replay`).
//!
//! The properties checked here are exactly the ones the `unsafe` blocks in
//! `rcu.rs` rely on:
//!
//! * a reader never dereferences a reclaimed value (grace periods work),
//! * handles pinned across publications stay alive until released,
//! * a publication never changes what a pinned view reads (a write copies
//!   the overlay run it changes and never mutates one a reader shares),
//! * a group-committed batch publishes atomically (a pinned view sees all
//!   of it or none of it), across the overlay fold boundary too,
//! * a write observed by any reader was already logged to the durability
//!   sink (write-ahead ordering),
//! * writers that race a split/merge re-route instead of publishing into a
//!   retired shard.
#![cfg(feature = "check")]

use csv_btree::BPlusTree;
use csv_common::sync::{AtomicBool, Mutex, Ordering::SeqCst};
use csv_common::{Key, KeyValue, Value};
use csv_concurrent::{
    DurabilitySink, RcuCell, ShardCheckpoint, ShardedIndex, ShardingConfig, WriteOp, WriteRecord,
};
use std::collections::HashSet;
use std::sync::Arc;

/// A payload that records its own reclamation through an *instrumented*
/// flag, so the reclamation itself is a schedule point and a
/// use-after-free window cannot hide between two checker steps.
struct Canary {
    value: u64,
    freed: Arc<AtomicBool>,
}

impl Canary {
    fn new(value: u64) -> (Arc<Self>, Arc<AtomicBool>) {
        let freed = Arc::new(AtomicBool::new(false));
        (
            Arc::new(Self {
                value,
                freed: Arc::clone(&freed),
            }),
            freed,
        )
    }
}

impl Drop for Canary {
    fn drop(&mut self) {
        assert!(
            !self.freed.swap(true, SeqCst),
            "a canary must be dropped exactly once"
        );
    }
}

fn records(n: u64) -> Vec<KeyValue> {
    (0..n).map(|i| KeyValue::new(i * 10, i)).collect()
}

fn one_shard_config(capacity: usize) -> ShardingConfig {
    ShardingConfig::with_shards(1).with_overlay_capacity(capacity)
}

/// The use-after-free canary at the heart of the grace-period argument,
/// explored **exhaustively**: one reader dereferencing through
/// `RcuCell::read` while one writer publishes a successor. Every
/// interleaving of the entry revalidation, pointer swap, parity flip,
/// drain and reclamation is visited; in none of them may the reader
/// observe a freed value or a value outside the published set.
#[test]
fn exhaustive_publish_vs_read_never_frees_under_a_reader() {
    let report = csv_check::explore_exhaustive(csv_check::Exhaustive::default(), || {
        let (first, _) = Canary::new(1);
        let cell = Arc::new(RcuCell::new(first));
        let reader_cell = Arc::clone(&cell);
        let reader = csv_check::spawn(move || {
            reader_cell.read(|c| {
                assert!(!c.freed.load(SeqCst), "dereferenced a reclaimed value");
                assert!(c.value == 1 || c.value == 2, "unpublished value observed");
            });
        });
        let (second, _) = Canary::new(2);
        cell.publish(second);
        reader.join();
        assert_eq!(cell.read(|c| c.value), 2);
    });
    assert!(report.complete, "the schedule tree must be fully explored");
    assert_eq!(report.schedules, report.distinct);
    eprintln!(
        "exhaustive publish/read: {} schedules (complete: {})",
        report.schedules, report.complete
    );
}

/// The same property under a larger population — two readers (one via
/// `read`, one via `load`) against two chained writers — sampled by
/// seeded random scheduling. The tree is far too big to enumerate; the
/// acceptance bar is ≥10k *distinct* schedules with zero failures.
#[test]
fn randomized_two_readers_two_writers_grace_periods_hold() {
    let opts = csv_check::Random {
        schedules: 12_288,
        seed: 0x5EED_CA5E,
        ..csv_check::Random::default()
    };
    let report = csv_check::explore_random(opts, || {
        let (first, _) = Canary::new(0);
        let cell = Arc::new(RcuCell::new(first));
        let c1 = Arc::clone(&cell);
        let r1 = csv_check::spawn(move || {
            c1.read(|c| {
                assert!(!c.freed.load(SeqCst), "dereferenced a reclaimed value");
            });
        });
        let c2 = Arc::clone(&cell);
        let r2 = csv_check::spawn(move || {
            let snapshot = c2.load();
            assert!(!snapshot.freed.load(SeqCst), "loaded a reclaimed value");
            snapshot.value
        });
        let c3 = Arc::clone(&cell);
        let w = csv_check::spawn(move || {
            let (next, _) = Canary::new(1);
            c3.publish(next);
        });
        let (next, _) = Canary::new(2);
        cell.publish(next);
        r1.join();
        let seen = r2.join();
        assert!(seen <= 2, "unpublished value observed");
        w.join();
    });
    assert!(
        report.distinct >= 10_000,
        "need >=10k distinct schedules, explored {}",
        report.distinct
    );
    eprintln!(
        "randomized 2R+2W publish/read: {} schedules, {} distinct",
        report.schedules, report.distinct
    );
}

/// A handle pinned across **two consecutive publications** must survive
/// both grace periods: `load` bumps the strong count inside the critical
/// section, so later writers wait only for the section, never for the
/// handle — and reclaim generation 0 only when the handle drops. The
/// exhaustive tree here is ~1.02M schedules (verified complete once, ~2
/// minutes); CI samples it randomly to stay inside the suite's budget.
#[test]
fn randomized_reader_pinned_across_two_publishes() {
    let opts = csv_check::Random {
        schedules: 4096,
        seed: 0xD0_0B1E,
        ..csv_check::Random::default()
    };
    let report = csv_check::explore_random(opts, || {
        let (first, first_freed) = Canary::new(0);
        let cell = Arc::new(RcuCell::new(first));
        let reader_cell = Arc::clone(&cell);
        let reader = csv_check::spawn(move || {
            let pinned = reader_cell.load();
            assert!(!pinned.freed.load(SeqCst), "loaded a reclaimed value");
            pinned
        });
        let (second, _) = Canary::new(1);
        cell.publish(second);
        let (third, _) = Canary::new(2);
        cell.publish(third);
        let pinned = reader.join();
        // Whatever generation the reader pinned, it is still alive here —
        // even generation 0, which both publications displaced.
        assert!(
            !pinned.freed.load(SeqCst),
            "a pinned generation was reclaimed while held"
        );
        let held_zero = pinned.value == 0;
        drop(pinned);
        if held_zero {
            assert!(
                first_freed.load(SeqCst),
                "dropping the last handle reclaims the displaced generation"
            );
        }
        assert_eq!(cell.read(|c| c.value), 2);
    });
    eprintln!(
        "randomized double-publish pin: {} schedules, {} distinct",
        report.schedules, report.distinct
    );
}

/// Dropping the cell while a loaded handle is still alive (in another
/// thread, under every interleaving of the load and the drop) reclaims
/// the value exactly once, and only after the last owner lets go.
#[test]
fn exhaustive_drop_with_held_handles() {
    let report = csv_check::explore_exhaustive(csv_check::Exhaustive::default(), || {
        let (value, freed) = Canary::new(9);
        let cell = Arc::new(RcuCell::new(value));
        let reader_cell = Arc::clone(&cell);
        let reader = csv_check::spawn(move || {
            let pinned = reader_cell.load();
            assert!(!pinned.freed.load(SeqCst));
            // The cell (and possibly its last Arc) dies while we hold this.
            pinned
        });
        // An explicit schedule point: without it this thread would run
        // straight to the drop (Arc reference counting is not
        // instrumented), and only one placement of the drop relative to
        // the reader's load would ever be explored.
        csv_check::yield_point();
        drop(cell);
        let pinned = reader.join();
        assert!(
            !pinned.freed.load(SeqCst),
            "the cell's drop reclaimed a value a handle still pins"
        );
        assert_eq!(pinned.value, 9);
        drop(pinned);
        assert!(freed.load(SeqCst), "the value leaked");
    });
    assert!(report.complete);
    eprintln!(
        "exhaustive drop-with-held-handles: {} schedules (complete: {})",
        report.schedules, report.complete
    );
}

/// Publications never change a pinned view. Every write copies the
/// overlay's delta run (and, at a spill, builds a new main run) and shares
/// the rest with the displaced snapshot, so a reader that pinned that
/// snapshot shares runs with every successor: the successors' copies must
/// never write into a run the pinned view reads, whether they add a key
/// beside a pinned one, overwrite a pinned key or tombstone it.
#[test]
fn randomized_publications_never_change_a_pinned_view() {
    let opts = csv_check::Random {
        schedules: 1024,
        seed: 0x5A1_4A6E,
        ..csv_check::Random::default()
    };
    let report = csv_check::explore_random(opts, || {
        // Capacity high enough that no fold interferes: every write
        // publishes a successor whose overlay shares chunks with the
        // pinned one.
        let index = Arc::new(ShardedIndex::<BPlusTree>::bulk_load(
            &records(3),
            one_shard_config(8),
        ));
        index.insert(100, 100);
        let reader_index = Arc::clone(&index);
        let reader = csv_check::spawn(move || {
            // Pin the current snapshot (overlay holds key 100 at least),
            // then read it again while the writer publishes successors.
            let view = reader_index.read_view().expect("read_view is always Some");
            let before = view.range(0, Key::MAX);
            assert_eq!(view.len(), before.len());
            let slot = view.get(100);
            assert!(
                slot == Some(100) || slot == Some(101) || slot.is_none(),
                "pinned view read an unpublished value: {slot:?}"
            );
            csv_check::yield_point();
            assert_eq!(view.range(0, Key::MAX), before, "a pinned view changed");
            assert_eq!(view.get(100), slot, "a pinned overlay slot changed");
        });
        index.insert(200, 200);
        index.insert(100, 101);
        index.remove(100);
        reader.join();
        assert_eq!(index.get(100), None);
        assert_eq!(index.get(200), Some(200));
        assert_eq!(index.len(), 4);
    });
    eprintln!(
        "randomized publications-vs-pinned-view: {} schedules, {} distinct",
        report.schedules, report.distinct
    );
}

/// A group-committed `write_batch` that crosses the overlay fold boundary
/// mid-slice still publishes **once**: a concurrently pinned view sees
/// either none of the batch or all of it, never a prefix.
#[test]
fn randomized_write_batch_fold_boundary_is_atomic_to_readers() {
    let opts = csv_check::Random {
        schedules: 1024,
        seed: 0xF01D,
        ..csv_check::Random::default()
    };
    let report = csv_check::explore_random(opts, || {
        // Capacity 2: the 4-op batch folds mid-slice.
        let index = Arc::new(ShardedIndex::<BPlusTree>::bulk_load(
            &records(3),
            one_shard_config(2),
        ));
        let reader_index = Arc::clone(&index);
        let reader = csv_check::spawn(move || {
            let view = reader_index.read_view().expect("read_view is always Some");
            let seen: Vec<bool> = [101, 102, 103, 104]
                .iter()
                .map(|&k| view.get(k).is_some())
                .collect();
            assert!(
                seen.iter().all(|&s| s) || seen.iter().all(|&s| !s),
                "a pinned view observed a partial group commit: {seen:?}"
            );
        });
        let ops: Vec<WriteOp> = (101..=104)
            .map(|k| WriteOp::Insert { key: k, value: k })
            .collect();
        let outcome = index.write_batch(&ops);
        assert_eq!(outcome.fresh_inserts, 4);
        reader.join();
        assert_eq!(index.len(), 7);
        for k in 101..=104 {
            assert_eq!(index.get(k), Some(k));
        }
    });
    eprintln!(
        "randomized fold-boundary batch atomicity: {} schedules, {} distinct",
        report.schedules, report.distinct
    );
}

/// A sink that records which keys have been made durable, through
/// instrumented locks so recording itself is part of the explored
/// schedule.
#[derive(Default)]
struct RecordingSink {
    logged: Mutex<HashSet<Key>>,
}

impl RecordingSink {
    fn is_logged(&self, key: Key) -> bool {
        self.logged.lock().contains(&key)
    }
}

impl DurabilitySink for RecordingSink {
    fn log_write(&self, _shard: Key, key: Key, _value: Option<Value>) {
        self.logged.lock().insert(key);
    }

    fn log_writes(&self, _shard: Key, batch: &[WriteRecord]) {
        let mut logged = self.logged.lock();
        for record in batch {
            logged.insert(record.key);
        }
    }

    fn checkpoint(&self, checkpoint: &ShardCheckpoint) {
        // A fold absorbs staged writes into the checkpointed base: they
        // are durable through the checkpoint without an individual log
        // record.
        let mut logged = self.logged.lock();
        for record in &checkpoint.records {
            logged.insert(record.key);
        }
    }

    fn replace_shards(&self, _retired: &[Key], created: &[ShardCheckpoint]) {
        let mut logged = self.logged.lock();
        for checkpoint in created {
            for record in &checkpoint.records {
                logged.insert(record.key);
            }
        }
    }

    fn backlog(&self, _shard: Key) -> u64 {
        0
    }
}

/// The write-ahead contract, model-checked: **no schedule** may publish a
/// snapshot whose writes were not already durable in the sink. The reader
/// asserts the implication "visible ⇒ logged" at every interleaving of
/// the log append, the publication and the read.
#[test]
fn randomized_no_schedule_publishes_before_logging() {
    let opts = csv_check::Random {
        schedules: 2048,
        seed: 0x10_6F17,
        ..csv_check::Random::default()
    };
    let report = csv_check::explore_random(opts, || {
        let sink = Arc::new(RecordingSink::default());
        let index = Arc::new(ShardedIndex::<BPlusTree>::bulk_load_durable(
            &records(3),
            // Capacity 2 so the point write may fold (checkpoint instead
            // of log) and the batch below folds mid-slice: the contract
            // must hold through both sink paths.
            one_shard_config(2),
            Arc::clone(&sink) as Arc<dyn DurabilitySink>,
        ));
        let reader_index = Arc::clone(&index);
        let reader_sink = Arc::clone(&sink);
        let reader = csv_check::spawn(move || {
            for key in [101u64, 102, 103] {
                if reader_index.get(key).is_some() {
                    assert!(
                        reader_sink.is_logged(key),
                        "key {key} became visible before it was durable"
                    );
                }
            }
        });
        index.insert(101, 101);
        let ops = [
            WriteOp::Insert {
                key: 102,
                value: 102,
            },
            WriteOp::Insert {
                key: 103,
                value: 103,
            },
        ];
        index.write_batch(&ops);
        reader.join();
        for key in [101u64, 102, 103] {
            assert_eq!(index.get(key), Some(key));
            assert!(sink.is_logged(key), "an acknowledged write never logged");
        }
    });
    eprintln!(
        "randomized WAL-before-publish: {} schedules, {} distinct",
        report.schedules, report.distinct
    );
}

/// A point writer racing a concurrent split must either land before the
/// re-layout or observe the retired handle and re-route to the successor
/// layout — in no interleaving may its write vanish into an unreachable
/// snapshot.
#[test]
fn randomized_retired_handle_writers_reroute_during_split() {
    let opts = csv_check::Random {
        schedules: 1024,
        seed: 0x5117,
        ..csv_check::Random::default()
    };
    let report = csv_check::explore_random(opts, || {
        let index = Arc::new(ShardedIndex::<BPlusTree>::bulk_load(
            &records(4),
            one_shard_config(8),
        ));
        let writer_index = Arc::clone(&index);
        let writer = csv_check::spawn(move || {
            // Key 35 routes into the half that the split moves to the new
            // upper shard: the race window is the handle lookup vs the
            // layout publication.
            assert!(writer_index.insert(35, 35), "a fresh insert reported stale");
        });
        assert!(index.split_shard(0, 2), "the seeded shard must split");
        writer.join();
        assert_eq!(index.num_shards(), 2);
        assert_eq!(index.get(35), Some(35), "a write vanished during a split");
        assert_eq!(index.len(), 5);
        for record in records(4) {
            assert_eq!(index.get(record.key), Some(record.value));
        }
    });
    eprintln!(
        "randomized writer-vs-split reroute: {} schedules, {} distinct",
        report.schedules, report.distinct
    );
}
