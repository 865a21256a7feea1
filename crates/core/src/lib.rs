//! CDF smoothing via virtual points — the primary contribution of
//! *Learned Indexes with Distribution Smoothing via Virtual Points*
//! (EDBT 2025).
//!
//! A learned index approximates the cumulative distribution function (CDF)
//! of its key set with (usually linear) indexing functions. Key regions that
//! are hard to fit end up deep in the index hierarchy and are slow to query.
//! Instead of changing the index structure or the model class, this crate
//! modifies the *key space*: it inserts **virtual points** that smooth the
//! CDF so a single linear model fits far better (§1, Fig. 2 of the paper).
//!
//! The crate provides:
//!
//! * [`segment`] — incremental loss bookkeeping for one key segment
//!   (sufficient statistics, Eq. 5–16),
//! * [`candidates`] — derivative-based filtering of candidate virtual points
//!   (§4.2, Eq. 17–21),
//! * [`single`] — Algorithm 1, the greedy λ-budget smoothing of a single
//!   segment, in a faithful *Rescan* mode and a faster *Lazy* mode,
//! * [`exhaustive`] — the exponential-time exact smoothing used as the
//!   quality baseline in Table 2,
//! * [`layout`] — the smoothed layout (real keys + virtual gaps) that index
//!   nodes are rebuilt from,
//! * [`cost`] — the cost model of Eq. 22 balancing traversal savings against
//!   extra leaf-node search work,
//! * [`csv`] — Algorithm 2 (**CSV**): bottom-up smoothing and flattening of
//!   sub-trees of a hierarchical learned index through the
//!   [`csv::CsvIntegrable`] trait implemented by ALEX, LIPP and SALI, with
//!   an explicit read-only plan / mutating apply lifecycle
//!   ([`csv::CsvOptimizer::plan`] → [`csv::CsvPlan::apply`]),
//! * [`competitors`] — the Gap-Insertion (GI) technique the paper compares
//!   against in Table 1,
//! * [`poisoning`] — the greedy data-poisoning attack (§2.3) that motivated
//!   CDF smoothing, plus the defensive poison-then-smooth experiment,
//! * [`quadratic_smoothing`] — the extension of Algorithm 1 to quadratic
//!   indexing functions mentioned in §1,
//! * [`paper_example`] — the 10-key running example of Fig. 2/3/4 and
//!   Table 2.

#![forbid(unsafe_code)]

pub mod candidates;
pub mod competitors;
pub mod cost;
pub mod csv;
pub mod exhaustive;
pub mod layout;
pub mod paper_example;
pub mod poisoning;
pub mod quadratic_smoothing;
#[cfg(test)]
mod reference;
pub mod segment;
pub mod single;

pub use candidates::{Candidate, GapBounds};

/// Configures the global rayon thread pool to `threads` workers (0 = leave
/// the auto-detected width untouched).
///
/// The global pool can only be built once per process — real rayon errors
/// on any later `build_global` call — so the first successful call wins and
/// later calls with a *different* width emit a warning instead of failing.
/// Shared by the CLI driver and the experiments binary.
pub fn configure_global_threads(threads: usize) {
    if threads == 0 {
        return;
    }
    // `None` records that the pool was already initialized elsewhere and
    // could not be configured at all.
    static CONFIGURED: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    let configured = *CONFIGURED.get_or_init(|| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .ok()
            .map(|()| threads)
    });
    match configured {
        Some(width) if width == threads => {}
        Some(width) => eprintln!(
            "warning: thread pool already configured ({width} threads); ignoring request for {threads}"
        ),
        None => eprintln!(
            "warning: global thread pool was already initialized; ignoring request for {threads} threads"
        ),
    }
}
pub use cost::{CostCondition, CostModel};
pub use csv::{
    CsvConfig, CsvConfigBuilder, CsvIntegrable, CsvOptimizer, CsvPlan, CsvReport, Decision,
    NodeOutcome, PlannedAction, PlannedSubtree, RebuildRefusal, SkipReason, StartLevel, SubtreeRef,
};
pub use exhaustive::exhaustive_smooth;
pub use layout::{LayoutEntry, SmoothedLayout};
pub use poisoning::{
    poison_segment, smoothing_counteracts_poisoning, PoisoningConfig, PoisoningResult,
};
pub use quadratic_smoothing::{
    compare_model_classes, smooth_segment_quadratic, QuadraticSmoothingConfig,
    QuadraticSmoothingResult,
};
pub use segment::SegmentState;
pub use single::{smooth_segment, GreedyMode, SmoothingConfig, SmoothingCounters, SmoothingResult};
