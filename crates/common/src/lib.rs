//! Shared building blocks for the CSV (CDF Smoothing via Virtual points)
//! learned-index reproduction.
//!
//! This crate contains everything that more than one of the higher-level
//! crates needs:
//!
//! * [`key`] — the key/value types used throughout the workspace,
//! * [`crc`] — the sliced CRC-32 kernel that checksums every wire frame,
//!   WAL record, checkpoint and manifest,
//! * [`linear`] — ordinary-least-squares linear models mapping keys to ranks,
//! * [`pla`] — optimal ε-bounded piecewise linear approximation (used by the
//!   PGM baseline and by SALI's hot sub-tree flattening),
//! * [`search`] — bounded binary and exponential search with cost counters,
//! * [`traits`] — the [`traits::LearnedIndex`] abstraction plus the
//!   structural statistics every index reports ([`traits::IndexStats`]),
//! * [`metrics`] — machine-independent cost counters and simple timing /
//!   aggregation helpers used by the experiment harness,
//! * [`latency`] — a log-bucketed latency histogram for tail-latency
//!   reporting,
//! * [`quadratic`] — quadratic indexing functions used by the smoothing
//!   extension to richer model classes,
//! * [`rng`] — tiny deterministic RNG primitives (SplitMix64 / xorshift) so
//!   dataset generation and property tests are reproducible,
//! * [`sync`] — the workspace's synchronization shims: `std`/`parking_lot`
//!   re-exports normally, instrumented model-checkable versions under the
//!   `check` feature (driven by the `csv_check` controlled scheduler).

#![deny(unsafe_code)]

pub mod crc;
pub mod key;
pub mod latency;
pub mod linear;
pub mod metrics;
pub mod pla;
// The audited unsafe exception: the prefetch intrinsic (hint-only, cannot
// fault). `cargo xtask lint` enforces the allowlist.
#[allow(unsafe_code)]
pub mod prefetch;
pub mod quadratic;
pub mod rng;
pub mod search;
pub mod sync;
pub mod traits;

pub use key::{Key, KeyValue, Value};
pub use latency::LatencyHistogram;
pub use linear::LinearModel;
pub use metrics::{CostCounters, Summary};
pub use pla::{Segment, SegmentationBuilder};
pub use prefetch::{prefetch_read, prefetch_slice_at};
pub use quadratic::{QuadFitStats, QuadraticModel};
pub use search::{binary_search_bounded, exponential_search, SearchOutcome};
pub use traits::{
    collect_range_visit, IndexStats, LearnedIndex, LevelHistogram, RangeIndex, RemovableIndex,
};
