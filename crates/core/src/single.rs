//! Algorithm 1 — greedy CDF smoothing of a single key segment.
//!
//! Given a segment of keys and a smoothing threshold `α`, the algorithm
//! inserts up to `λ = ⌊α·n⌋` virtual points one at a time; every iteration it
//! picks, over all gaps, the candidate whose insertion (with the indexing
//! function refitted) yields the smallest loss, and stops early once no
//! candidate reduces the loss any further.
//!
//! Two driver modes are provided:
//!
//! * [`GreedyMode::Rescan`] — the faithful transcription of Algorithm 1:
//!   every iteration re-evaluates every gap, so each of the λ iterations
//!   costs one closed-form refit per gap.
//! * [`GreedyMode::Lazy`] — a CELF-style lazy-greedy driver. Per-gap best
//!   candidates live in a max-heap keyed by *marginal gain* (the loss
//!   improvement the candidate would deliver), with entries tagged by the
//!   insertion epoch they were computed at. Each iteration pops entries off
//!   the top: stale entries (computed before the latest insertion) are
//!   re-evaluated against the current sufficient statistics and pushed back
//!   with the current epoch; a fresh top entry wins the iteration. Only
//!   entries that surface near the top are ever re-evaluated, so most gaps
//!   are never refit after their initial evaluation.
//!
//!   The lazy selection equals the Rescan selection whenever the stored
//!   (stale) gains behave as *upper bounds* of the current gains — the
//!   diminishing-returns property lazy greedy relies on. The driver checks
//!   that invariant on every re-validation: if a refreshed entry comes back
//!   with a *larger* gain than its stored value (beyond fp tolerance), the
//!   upper-bound argument is void and the driver falls back to a full
//!   rescan of every gap for that iteration, which is exact by
//!   construction. When no fallback triggers (re-validation "converged"),
//!   the chosen candidate provably matches what Rescan would have chosen
//!   *provided the invariant holds for the entries that never surfaced*:
//!   the winner was evaluated at the current epoch, every remaining entry
//!   stores a gain ≤ the winner's (heap order), and under the invariant its
//!   current gain is no larger than its stored one. Violations confined to
//!   buried entries are undetectable without paying the full rescan they
//!   would avoid; on datasets that provoke them (heavily clustered key
//!   spaces) the lazy driver can insert a slightly different — still
//!   strictly loss-reducing — point sequence. The `smoothing_scaling` bench
//!   quantifies both the refits avoided and any divergence.
//!
//! Both drivers expose [`SmoothingCounters`] so benches can quantify how
//! many refits the lazy heap avoids.

use crate::candidates::{
    best_candidate_counted, best_candidate_in_gap, is_new_minimum, scan_gaps, Candidate, GapBounds,
};
use crate::layout::SmoothedLayout;
use crate::segment::{GapLane, SegmentState, MAX_ENTRIES};
use csv_common::{Key, LinearModel};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Which greedy driver to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GreedyMode {
    /// Re-evaluate every gap on every iteration (Algorithm 1 as published).
    #[default]
    Rescan,
    /// CELF-style lazy-greedy with stale-entry re-validation and an exact
    /// full-rescan fallback when the lower-bound invariant breaks.
    Lazy,
}

/// Relative tolerance for the lazy driver's invariant check: stored gains
/// must remain upper bounds of current gains, so a re-validated entry whose
/// refreshed gain exceeds its stored gain by more than this (relative)
/// margin counts as a genuine violation rather than floating-point noise
/// and triggers the exact fallback rescan. User-visible drift tolerance is
/// layered on top via [`SmoothingConfig::drift_tolerance`].
const LAZY_DRIFT_TOLERANCE: f64 = 1e-9;

/// Instrumentation counters of one smoothing run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SmoothingCounters {
    /// Closed-form candidate refits: evaluations of a gap's best candidate
    /// against the current sufficient statistics. This is the unit of work
    /// both greedy drivers spend almost all their time on.
    pub gap_refits: usize,
    /// Refits that re-validated a stale heap entry (lazy driver only).
    pub stale_revalidations: usize,
    /// Iterations the lazy driver resolved with a full rescan because the
    /// lower-bound invariant was violated.
    pub fallback_rescans: usize,
    /// Heap entries pushed across the run (lazy driver only).
    pub heap_pushes: usize,
}

/// Configuration of the single-segment smoothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmoothingConfig {
    /// Smoothing threshold `α ∈ (0, 1]`: the budget is `⌊α·n⌋` points.
    pub alpha: f64,
    /// Greedy driver mode.
    pub mode: GreedyMode,
    /// Optional hard cap on the number of virtual points regardless of `α`.
    pub max_budget: Option<usize>,
    /// Minimum relative loss improvement per inserted point; insertion stops
    /// when the best candidate improves the loss by less than this fraction.
    pub min_relative_gain: f64,
    /// Bounded diminishing-returns drift the lazy driver tolerates before
    /// triggering its exact fallback rescan (relative to the stored gain).
    ///
    /// The lazy heap's pruning argument requires stored gains to be upper
    /// bounds of current gains. With tolerance `t`, a re-validated entry
    /// whose gain grew by at most `t · (1 + |stored gain|)` is accepted as
    /// "still bounded" (the refreshed entry re-enters the heap with its
    /// current gain) instead of forcing the full-rescan fallback. On heavily
    /// clustered key spaces most violations are tiny, so a small tolerance
    /// removes most fallbacks at the cost of a bounded deviation from the
    /// exact greedy choice — every inserted point still strictly reduces the
    /// loss. The default `0.0` keeps the driver bit-identical to the exact
    /// fallback behaviour (only floating-point noise is tolerated).
    pub drift_tolerance: f64,
}

impl Default for SmoothingConfig {
    fn default() -> Self {
        Self {
            alpha: 0.1,
            mode: GreedyMode::Rescan,
            max_budget: None,
            min_relative_gain: 0.0,
            drift_tolerance: 0.0,
        }
    }
}

impl SmoothingConfig {
    /// Creates a configuration with the given smoothing threshold and
    /// defaults for everything else (the paper's default `α = 0.1`).
    pub fn with_alpha(alpha: f64) -> Self {
        Self {
            alpha,
            ..Self::default()
        }
    }

    /// The smoothing budget λ for a segment of `n` keys.
    pub fn budget(&self, n: usize) -> usize {
        let lambda = (self.alpha * n as f64).floor() as usize;
        match self.max_budget {
            Some(cap) => lambda.min(cap),
            None => lambda,
        }
    }
}

/// The outcome of smoothing one segment.
#[derive(Debug, Clone, PartialEq)]
pub struct SmoothingResult {
    /// The smoothed layout (real keys at their new ranks, virtual gaps).
    pub layout: SmoothedLayout,
    /// Loss of the original segment under its own OLS fit, `L_f(K)`.
    pub loss_before: f64,
    /// Loss of the refitted model over the real keys only, `L_{f'}(K)`.
    pub loss_after_real: f64,
    /// Loss of the refitted model over real + virtual points, `L_{f'}(K ∪ V)`.
    pub loss_after_all: f64,
    /// Model fitted to the original segment.
    pub model_before: LinearModel,
    /// The virtual points inserted, in insertion order.
    pub virtual_points: Vec<Key>,
    /// Number of greedy iterations executed (≤ budget).
    pub iterations: usize,
    /// The budget λ that was available.
    pub budget: usize,
    /// Work counters of the greedy driver.
    pub counters: SmoothingCounters,
}

impl SmoothingResult {
    /// Relative loss improvement over the real keys, in percent.
    pub fn improvement_percent(&self) -> f64 {
        if self.loss_before <= 0.0 {
            0.0
        } else {
            (self.loss_before - self.loss_after_real) / self.loss_before * 100.0
        }
    }
}

/// Everything one smoothing run allocates apart from its result: the
/// segment's arrays, the gap scan's pass-1 lanes and the lazy driver's heap
/// storage. A planner keeps one per worker so that smoothing a sub-tree
/// allocates nothing but the layout it returns.
#[derive(Debug, Default)]
pub(crate) struct SmoothingWorkspace {
    state: SegmentState,
    lanes: Vec<GapLane>,
    heap: Vec<HeapEntry>,
}

/// Runs Algorithm 1 on a strictly increasing key slice.
pub fn smooth_segment(keys: &[Key], config: &SmoothingConfig) -> SmoothingResult {
    smooth_segment_in(keys, config, &mut SmoothingWorkspace::default())
}

/// [`smooth_segment`] inside a reused workspace.
pub(crate) fn smooth_segment_in(
    keys: &[Key],
    config: &SmoothingConfig,
    workspace: &mut SmoothingWorkspace,
) -> SmoothingResult {
    let model_before = LinearModel::fit_cdf(keys);
    let loss_before = model_before.sse_cdf(keys);
    let budget = config.budget(keys.len());
    workspace.state.reset(keys);
    let mut virtual_points = Vec::new();
    let mut counters = SmoothingCounters::default();

    let iterations = if budget == 0 || keys.len() < 2 {
        0
    } else {
        match config.mode {
            GreedyMode::Rescan => run_rescan(
                workspace,
                budget,
                config.min_relative_gain,
                &mut virtual_points,
                &mut counters,
            ),
            GreedyMode::Lazy => run_lazy(
                workspace,
                budget,
                config,
                &mut virtual_points,
                &mut counters,
            ),
        }
    };

    let state = &workspace.state;
    SmoothingResult {
        layout: state.layout(),
        loss_before,
        loss_after_real: state.loss_real_only(),
        loss_after_all: state.loss(),
        model_before,
        virtual_points,
        iterations,
        budget,
        counters,
    }
}

fn run_rescan(
    workspace: &mut SmoothingWorkspace,
    budget: usize,
    min_relative_gain: f64,
    virtual_points: &mut Vec<Key>,
    counters: &mut SmoothingCounters,
) -> usize {
    let SmoothingWorkspace { state, lanes, .. } = workspace;
    let mut iterations = 0;
    let mut previous_loss = state.loss();
    while virtual_points.len() < budget {
        let Some(best) = best_candidate_counted(state, lanes, &mut counters.gap_refits) else {
            break;
        };
        if !improves(previous_loss, best.loss, min_relative_gain) {
            break;
        }
        state.insert_virtual(best.value);
        virtual_points.push(best.value);
        previous_loss = best.loss;
        iterations += 1;
    }
    iterations
}

/// Heap entry for the lazy driver, ordered by descending marginal gain and
/// tagged with the insertion epoch it was computed at.
///
/// The heap is keyed on the *gain* (current total loss minus the candidate's
/// refitted loss) rather than the absolute loss: gains are comparable across
/// epochs, while absolute losses shrink globally with every insertion and
/// would bury stale-but-good entries under fresher ones.
///
/// Sifting moves whole entries, so the entry is kept to 40 bytes: ranks and
/// epochs are below [`MAX_ENTRIES`], and the candidate's loss — read only
/// when a still-fresh entry wins — is recomputed from `value` at that point.
#[derive(Debug)]
struct HeapEntry {
    /// `loss(current state) − loss(state ∪ {value})` at evaluation time;
    /// never NaN (losses are clamped at 0) and never `-0.0`.
    gain: f64,
    /// Loss-minimising candidate value inside the gap at evaluation time.
    value: Key,
    /// The gap's bounds and rank ([`GapBounds`]) at evaluation time.
    lo: Key,
    hi: Key,
    rank: u32,
    /// Number of virtual points inserted when the entry was evaluated; an
    /// entry is *fresh* while this matches the driver's current epoch and
    /// *stale* afterwards.
    epoch: u32,
}

const _: () = assert!(MAX_ENTRIES <= u32::MAX as usize);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.gain == other.gain && self.lo == other.lo
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: the largest gain pops first. Equal
        // gains pop the gap earliest in key order — the same tie rule as
        // `is_new_minimum`, so fresh-top wins stay deterministic and aligned
        // with the Rescan driver. Without NaNs and negative zeros
        // `total_cmp` is the numeric order, as one integer comparison.
        self.gain
            .total_cmp(&other.gain)
            .then_with(|| other.lo.cmp(&self.lo))
    }
}

impl HeapEntry {
    /// The entry of `gap`'s best candidate, evaluated at `epoch` against a
    /// segment whose loss is `current_loss`.
    fn new(current_loss: f64, candidate: Candidate, gap: GapBounds, epoch: usize) -> Self {
        Self {
            // `+ 0.0` turns a `-0.0` difference into `0.0`.
            gain: current_loss - candidate.loss + 0.0,
            value: candidate.value,
            lo: gap.lo,
            hi: gap.hi,
            rank: gap.rank as u32,
            epoch: epoch as u32,
        }
    }

    fn gap(&self) -> GapBounds {
        GapBounds {
            lo: self.lo,
            hi: self.hi,
            rank: self.rank as usize,
        }
    }

    /// The winning move of an entry that is still fresh: its candidate, the
    /// loss after inserting it, and the gap it splits.
    fn into_winner(self, state: &SegmentState) -> (Key, f64, GapBounds) {
        let gap = self.gap();
        let loss = state.gap_model(gap.rank).loss(self.value as f64);
        (self.value, loss, gap)
    }
}

/// One full scan for the lazy driver: refills `entries` with a fresh entry
/// per gap, in key order, and returns the index of the minimal-loss one
/// (ties keep the first gap, see [`is_new_minimum`]). Seeds the heap and
/// resolves the exact fallback.
fn scan_into(
    entries: &mut Vec<HeapEntry>,
    state: &SegmentState,
    lanes: &mut Vec<GapLane>,
    current_loss: f64,
    epoch: usize,
) -> Option<usize> {
    entries.clear();
    let mut best: Option<(usize, f64)> = None;
    scan_gaps(state, lanes, |gap, candidate| {
        if is_new_minimum(best.map(|(_, loss)| loss), candidate.loss) {
            best = Some((entries.len(), candidate.loss));
        }
        entries.push(HeapEntry::new(current_loss, candidate, gap, epoch));
    });
    best.map(|(index, _)| index)
}

fn run_lazy(
    workspace: &mut SmoothingWorkspace,
    budget: usize,
    config: &SmoothingConfig,
    virtual_points: &mut Vec<Key>,
    counters: &mut SmoothingCounters,
) -> usize {
    let SmoothingWorkspace { state, lanes, heap } = workspace;
    let min_relative_gain = config.min_relative_gain;
    // The fp-noise floor plus the user-selected drift tolerance; with the
    // default `drift_tolerance = 0.0` this is exactly the historical
    // constant, so the default pipeline is bit-identical.
    let violation_margin = LAZY_DRIFT_TOLERANCE + config.drift_tolerance.max(0.0);
    let mut epoch = 0usize;
    let mut previous_loss = state.loss();
    // Heap order is total (no two entries share a gap, no gain is NaN), so
    // the pop sequence does not depend on how the heap was built: one O(n)
    // heapify of the scan's output, in the storage the last run left.
    let mut entries = std::mem::take(heap);
    scan_into(&mut entries, state, lanes, previous_loss, epoch);
    counters.gap_refits += entries.len();
    counters.heap_pushes += entries.len();
    let mut queue = BinaryHeap::from(entries);
    let mut iterations = 0;
    while virtual_points.len() < budget {
        // Pop until the top entry is fresh, re-validating stale entries
        // against the current statistics (CELF). Each gap is re-validated at
        // most once per epoch, so this terminates; in the worst case it does
        // the same work as one Rescan iteration.
        let winner: Option<(Key, f64, GapBounds)> = loop {
            let Some(mut top) = queue.peek_mut() else {
                break None;
            };
            if top.epoch as usize == epoch {
                break Some(PeekMut::pop(top).into_winner(state));
            }
            // The gap may have been shrunk by earlier insertions at its
            // ends; re-derive bounds before re-evaluating.
            let Some(gap) = refresh_gap(state.keys(), &top.gap(), epoch - top.epoch as usize)
            else {
                PeekMut::pop(top);
                continue;
            };
            let current = best_candidate_in_gap(state, &gap);
            counters.gap_refits += 1;
            counters.stale_revalidations += 1;
            let current_gain = previous_loss - current.loss;
            if current_gain > top.gain + violation_margin * (1.0 + top.gain.abs()) {
                // This gap's marginal gain *grew* since it was stored: the
                // stored gains are no longer upper bounds, so the lazy
                // selection argument is void. Resolve this iteration with a
                // full rescan — exact by construction — and reseed the heap
                // with the freshly evaluated non-winning gaps in one O(n)
                // heapify, inside the heap's own storage. They carry the
                // *current* epoch (valid for this pre-insertion state), go
                // stale with the insertion below, and are re-validated on
                // demand as usual.
                counters.fallback_rescans += 1;
                drop(top);
                let mut entries = std::mem::take(&mut queue).into_vec();
                let best = scan_into(&mut entries, state, lanes, previous_loss, epoch);
                counters.gap_refits += entries.len();
                let won = best.map(|best| entries.swap_remove(best));
                counters.heap_pushes += entries.len();
                queue = BinaryHeap::from(entries);
                break won.map(|won| won.into_winner(state));
            }
            // The refreshed entry replaces the stale one at the top and
            // sinks from there; it rarely has far to go.
            counters.heap_pushes += 1;
            *top = HeapEntry::new(previous_loss, current, gap, epoch);
        };
        let Some((inserted, winner_loss, gap)) = winner else {
            break;
        };
        if !improves(previous_loss, winner_loss, min_relative_gain) {
            break;
        }
        state.insert_virtual(inserted);
        virtual_points.push(inserted);
        previous_loss = winner_loss;
        iterations += 1;
        epoch += 1;
        // The insertion splits the winning gap into (at most) two new gaps;
        // their candidates are evaluated against the post-insertion state
        // and therefore enter the heap fresh.
        let halves = [
            (gap.lo, inserted - 1, gap.rank),
            (inserted + 1, gap.hi, gap.rank + 1),
        ];
        for (lo, hi, rank) in halves {
            if lo <= hi {
                let half = GapBounds { lo, hi, rank };
                let candidate = best_candidate_in_gap(state, &half);
                counters.gap_refits += 1;
                counters.heap_pushes += 1;
                queue.push(HeapEntry::new(previous_loss, candidate, half, epoch));
            }
        }
    }
    *heap = queue.into_vec();
    iterations
}

/// Re-derives a gap's bounds and rank against the current keys; returns
/// `None` when the gap no longer contains any candidate.
///
/// `inserted_since` virtual points have entered the segment since the
/// gap's rank was computed, each raising it by at most one, so the low end
/// is anchored by a binary search over that many keys rather than over the
/// segment. A stale gap can only have been narrowed by virtual points
/// inserted at its ends, and those occupy *consecutive* ranks, so both ends
/// are then trimmed by linear scans over adjacent keys.
fn refresh_gap(keys: &[Key], gap: &GapBounds, inserted_since: usize) -> Option<GapBounds> {
    let mut lo = gap.lo;
    let mut hi = gap.hi;
    // `rank` tracks rank_of(lo) as lo advances past occupied values.
    let window = &keys[gap.rank..(gap.rank + inserted_since).min(keys.len())];
    let mut rank = gap.rank + window.partition_point(|&k| k < lo);
    while lo <= hi && keys.get(rank) == Some(&lo) {
        lo += 1;
        rank += 1;
    }
    if lo > hi {
        return None;
    }
    // Fast path — and the expected case, since insertions land either in a
    // gap whose heap entry was just consumed or at a gap's ends: no key
    // lies in [lo, hi], so the high end needs no trimming.
    if keys.get(rank).is_none_or(|&k| k > hi) {
        return Some(GapBounds { lo, hi, rank });
    }
    // Keys inside [lo, hi]: trim the high end. Occupied values at the high
    // end sit at consecutive ranks just below the first key past the gap,
    // so after locating rank_of(hi) the walk is over adjacent keys.
    let mut hi_rank = rank + keys[rank..].partition_point(|&k| k < hi);
    while hi >= lo && keys.get(hi_rank) == Some(&hi) {
        if hi == lo {
            return None;
        }
        hi -= 1;
        // rank >= 1 because every gap lies strictly above the segment's
        // first key, so this cannot underflow.
        hi_rank -= 1;
    }
    Some(GapBounds { lo, hi, rank })
}

fn improves(previous: f64, candidate: f64, min_relative_gain: f64) -> bool {
    if candidate >= previous {
        return false;
    }
    if previous <= 0.0 {
        return false;
    }
    (previous - candidate) / previous >= min_relative_gain
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_keys() -> Vec<Key> {
        vec![2, 3, 5, 9, 14, 20, 26, 27, 29, 30]
    }

    #[test]
    fn budget_computation() {
        let cfg = SmoothingConfig::with_alpha(0.5);
        assert_eq!(cfg.budget(10), 5);
        assert_eq!(cfg.budget(3), 1);
        assert_eq!(cfg.budget(1), 0);
        let capped = SmoothingConfig {
            max_budget: Some(2),
            ..cfg
        };
        assert_eq!(capped.budget(10), 2);
    }

    #[test]
    fn smoothing_reduces_loss_and_respects_budget() {
        let keys = example_keys();
        for alpha in [0.1, 0.2, 0.5, 0.8] {
            let cfg = SmoothingConfig::with_alpha(alpha);
            let result = smooth_segment(&keys, &cfg);
            assert!(result.virtual_points.len() <= cfg.budget(keys.len()));
            assert!(
                result.loss_after_all <= result.loss_before + 1e-9,
                "alpha {alpha}: all-loss {} vs before {}",
                result.loss_after_all,
                result.loss_before
            );
            assert_eq!(result.layout.num_real(), keys.len());
            assert_eq!(result.layout.real_keys(), keys);
            assert_eq!(result.layout.num_virtual(), result.virtual_points.len());
            assert_eq!(result.iterations, result.virtual_points.len());
        }
    }

    #[test]
    fn larger_budget_never_hurts() {
        let keys = example_keys();
        let small = smooth_segment(&keys, &SmoothingConfig::with_alpha(0.1));
        let large = smooth_segment(&keys, &SmoothingConfig::with_alpha(0.8));
        assert!(large.loss_after_all <= small.loss_after_all + 1e-9);
        assert!(large.virtual_points.len() >= small.virtual_points.len());
    }

    #[test]
    fn already_linear_keys_gain_nothing() {
        let keys: Vec<Key> = (0..50).map(|i| 100 + i * 10).collect();
        let result = smooth_segment(&keys, &SmoothingConfig::with_alpha(0.5));
        // Perfectly linear CDF: loss is ~0 and no insertion can improve it.
        assert!(result.loss_before < 1e-9);
        assert!(result.virtual_points.is_empty());
        assert_eq!(result.improvement_percent(), 0.0);
    }

    #[test]
    fn degenerate_inputs() {
        let cfg = SmoothingConfig::with_alpha(0.5);
        let r = smooth_segment(&[], &cfg);
        assert_eq!(r.layout.num_slots(), 0);
        let r = smooth_segment(&[42], &cfg);
        assert_eq!(r.layout.num_slots(), 1);
        assert!(r.virtual_points.is_empty());
        let r = smooth_segment(&[3, 4], &cfg);
        assert!(
            r.virtual_points.is_empty(),
            "adjacent integers leave no gap"
        );
    }

    #[test]
    fn rescan_mode_matches_paper_example_shape() {
        // With α = 0.5 on the 10-key example the paper inserts 5 virtual
        // points and reduces the loss substantially (Fig. 2: 8.33 → 2.29 for
        // K ∪ V). Our reconstructed key set differs slightly, but the
        // qualitative behaviour must hold: ≥ 60% loss reduction.
        let keys = example_keys();
        let result = smooth_segment(&keys, &SmoothingConfig::with_alpha(0.5));
        assert!(
            result.improvement_percent() > 40.0,
            "{}",
            result.improvement_percent()
        );
        assert!(!result.virtual_points.is_empty());
    }

    #[test]
    fn lazy_mode_close_to_rescan() {
        let keys = example_keys();
        let rescan = smooth_segment(&keys, &SmoothingConfig::with_alpha(0.5));
        let lazy = smooth_segment(
            &keys,
            &SmoothingConfig {
                mode: GreedyMode::Lazy,
                ..SmoothingConfig::with_alpha(0.5)
            },
        );
        assert!(lazy.loss_after_all <= rescan.loss_before);
        // The lazy approximation must stay within 25% of the faithful driver.
        assert!(
            lazy.loss_after_all <= rescan.loss_after_all * 1.25 + 1e-9,
            "lazy {} vs rescan {}",
            lazy.loss_after_all,
            rescan.loss_after_all
        );
    }

    #[test]
    fn lazy_matches_rescan_loss_across_alphas() {
        let keys = example_keys();
        for alpha in [0.1, 0.2, 0.5, 0.8] {
            let rescan = smooth_segment(&keys, &SmoothingConfig::with_alpha(alpha));
            let lazy = smooth_segment(
                &keys,
                &SmoothingConfig {
                    mode: GreedyMode::Lazy,
                    ..SmoothingConfig::with_alpha(alpha)
                },
            );
            assert!(
                (lazy.loss_after_all - rescan.loss_after_all).abs()
                    <= 1e-9 * (1.0 + rescan.loss_after_all),
                "alpha {alpha}: lazy {} vs rescan {}",
                lazy.loss_after_all,
                rescan.loss_after_all
            );
            assert_eq!(
                lazy.virtual_points.len(),
                rescan.virtual_points.len(),
                "alpha {alpha}"
            );
        }
    }

    #[test]
    fn lazy_refits_strictly_fewer_times_on_large_segments() {
        // A synthetic hard segment: clustered runs with irregular jumps, the
        // regime where smoothing inserts many points. The lazy driver must
        // reach the same loss with strictly fewer closed-form refits.
        let mut keys: Vec<Key> = Vec::new();
        let mut k = 0u64;
        for i in 0..5_000u64 {
            k += 1 + (i * i) % 97 + if i % 50 == 0 { 1_000 } else { 0 };
            keys.push(k);
        }
        let base = SmoothingConfig {
            alpha: 1.0,
            max_budget: Some(64),
            ..SmoothingConfig::default()
        };
        let rescan = smooth_segment(&keys, &base);
        let lazy = smooth_segment(
            &keys,
            &SmoothingConfig {
                mode: GreedyMode::Lazy,
                ..base
            },
        );
        assert!(
            rescan.iterations > 0,
            "the segment must actually get smoothed"
        );
        assert!(
            (lazy.loss_after_all - rescan.loss_after_all).abs()
                <= 1e-6 * (1.0 + rescan.loss_after_all),
            "lazy {} vs rescan {}",
            lazy.loss_after_all,
            rescan.loss_after_all
        );
        assert!(
            lazy.counters.gap_refits < rescan.counters.gap_refits,
            "lazy refits {} must beat rescan refits {}",
            lazy.counters.gap_refits,
            rescan.counters.gap_refits
        );
        // The whole point of the heap: most gaps are never touched again.
        assert!(lazy.counters.stale_revalidations < rescan.counters.gap_refits / 2);
    }

    #[test]
    fn counters_reflect_rescan_work() {
        let keys = example_keys();
        let result = smooth_segment(&keys, &SmoothingConfig::with_alpha(0.5));
        // Rescan evaluates every gap once per iteration plus the final
        // iteration that finds no improvement.
        assert!(result.counters.gap_refits >= result.iterations);
        assert_eq!(result.counters.stale_revalidations, 0);
        assert_eq!(result.counters.fallback_rescans, 0);
        assert_eq!(result.counters.heap_pushes, 0);
    }

    /// Clustered key space (dense runs, orders-of-magnitude jumps) — the
    /// regime where the lazy driver's diminishing-returns invariant breaks
    /// and the exact fallback fires.
    fn clustered_keys(n: u64) -> Vec<Key> {
        let mut keys = Vec::new();
        let mut base = 7u64;
        let mut i = 0u64;
        while (keys.len() as u64) < n {
            let run = 8 + (i * 13) % 40;
            for j in 0..run {
                keys.push(base + j);
            }
            base += run + 1_000 * (1 + i % 17) * (1 + i % 3) * (i % 5 + 1);
            i += 1;
        }
        keys.truncate(n as usize);
        keys
    }

    #[test]
    fn drift_tolerance_defaults_to_zero_and_is_bit_identical() {
        let keys = clustered_keys(3_000);
        let base = SmoothingConfig {
            mode: GreedyMode::Lazy,
            alpha: 1.0,
            max_budget: Some(48),
            ..SmoothingConfig::default()
        };
        assert_eq!(base.drift_tolerance, 0.0);
        let explicit = SmoothingConfig {
            drift_tolerance: 0.0,
            ..base
        };
        let a = smooth_segment(&keys, &base);
        let b = smooth_segment(&keys, &explicit);
        assert_eq!(a, b, "tolerance 0 must be bit-identical to the default");
    }

    #[test]
    fn drift_tolerance_trades_fallbacks_for_bounded_loss_drift() {
        let keys = clustered_keys(3_000);
        let base = SmoothingConfig {
            mode: GreedyMode::Lazy,
            alpha: 1.0,
            max_budget: Some(48),
            ..SmoothingConfig::default()
        };
        let exact = smooth_segment(&keys, &base);
        assert!(
            exact.counters.fallback_rescans > 0,
            "the clustered segment must provoke fallbacks for this test to mean anything"
        );
        let tolerant = smooth_segment(
            &keys,
            &SmoothingConfig {
                drift_tolerance: 0.2,
                ..base
            },
        );
        assert!(
            tolerant.counters.fallback_rescans < exact.counters.fallback_rescans,
            "tolerance 0.2 kept all {} fallbacks",
            exact.counters.fallback_rescans
        );
        // The tolerant run is still a strictly loss-reducing greedy sequence.
        assert!(tolerant.loss_after_all <= tolerant.loss_before + 1e-9);
        // And its result stays within the tolerance-sized neighbourhood of
        // the exact lazy result.
        assert!(
            tolerant.loss_after_all <= exact.loss_after_all * 1.10 + 1e-9,
            "tolerant loss {} drifted too far from exact {}",
            tolerant.loss_after_all,
            exact.loss_after_all
        );
    }

    #[test]
    fn min_relative_gain_stops_early() {
        let keys = example_keys();
        let strict = SmoothingConfig {
            min_relative_gain: 0.5,
            ..SmoothingConfig::with_alpha(0.8)
        };
        let relaxed = SmoothingConfig::with_alpha(0.8);
        let a = smooth_segment(&keys, &strict);
        let b = smooth_segment(&keys, &relaxed);
        assert!(a.virtual_points.len() <= b.virtual_points.len());
    }

    #[test]
    fn virtual_points_fall_inside_key_range() {
        let keys = example_keys();
        let result = smooth_segment(&keys, &SmoothingConfig::with_alpha(0.8));
        let min = *keys.first().unwrap();
        let max = *keys.last().unwrap();
        for &v in &result.virtual_points {
            assert!(
                v > min && v < max,
                "virtual point {v} escapes ({min}, {max})"
            );
            assert!(
                !keys.contains(&v),
                "virtual point {v} duplicates a real key"
            );
        }
    }

    use crate::reference::{self, random_free_value, test_segments};
    use csv_common::rng::SplitMix64;
    use csv_datasets::Dataset;
    use proptest::collection::btree_set;
    use proptest::prelude::*;

    /// Both drivers at both drift tolerances, with a budget that lets a
    /// large segment finish.
    fn differential_configs(alpha: f64, max_budget: Option<usize>) -> Vec<SmoothingConfig> {
        let mut configs = Vec::new();
        for mode in [GreedyMode::Rescan, GreedyMode::Lazy] {
            for drift_tolerance in [0.0, 0.1] {
                configs.push(SmoothingConfig {
                    alpha,
                    mode,
                    max_budget,
                    drift_tolerance,
                    ..SmoothingConfig::default()
                });
            }
        }
        configs
    }

    /// Differential test (b): the whole run — points, counters, losses and
    /// layout — equals the reference kernel's, the final loss bit for bit.
    fn assert_run_matches_reference(
        keys: &[Key],
        config: &SmoothingConfig,
        workspace: &mut SmoothingWorkspace,
    ) {
        let want = reference::smooth_segment(keys, config);
        for got in [
            smooth_segment(keys, config),
            smooth_segment_in(keys, config, workspace),
        ] {
            assert_eq!(got.virtual_points, want.virtual_points, "{config:?}");
            assert_eq!(got.counters, want.counters, "{config:?}");
            assert_eq!(
                got.loss_after_all.to_bits(),
                want.loss_after_all.to_bits(),
                "{config:?}"
            );
            assert_eq!(got, want, "{config:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        #[cfg_attr(miri, ignore)]
        fn runs_match_the_reference_on_random_segments(
            keys in btree_set(0u64..200_000, 2..400),
            offset in 0u64..700_000_000_000_000,
            alpha in 0.05f64..1.0,
        ) {
            let keys: Vec<Key> = keys.into_iter().map(|k| k + offset).collect();
            let mut workspace = SmoothingWorkspace::default();
            for config in differential_configs(alpha, None) {
                assert_run_matches_reference(&keys, &config, &mut workspace);
            }
        }
    }

    /// The Miri-sized run: both drivers over the 18 keys whose gaps take
    /// every exit of the per-gap decision.
    #[test]
    fn small_segment_runs_match_the_reference() {
        let (keys, _) = reference::small_branchy_segment();
        let mut workspace = SmoothingWorkspace::default();
        for config in differential_configs(0.5, None) {
            assert_run_matches_reference(&keys, &config, &mut workspace);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn runs_match_the_reference_on_shaped_segments() {
        let mut rng = SplitMix64::new(0xB);
        // One workspace across every run: stale contents must never leak.
        let mut workspace = SmoothingWorkspace::default();
        for n in [2, 40, 1_500] {
            for keys in test_segments(&mut rng, n) {
                for config in differential_configs(0.3, Some(40)) {
                    assert_run_matches_reference(&keys, &config, &mut workspace);
                }
            }
        }
        for config in differential_configs(1.0, Some(48)) {
            assert_run_matches_reference(&clustered_keys(3_000), &config, &mut workspace);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn runs_match_the_reference_on_an_osm_like_segment() {
        let keys = Dataset::Osm.generate(8_000, 14);
        let mut workspace = SmoothingWorkspace::default();
        for config in differential_configs(0.1, Some(96)) {
            assert_run_matches_reference(&keys, &config, &mut workspace);
        }
    }

    /// Differential test (d), per run: Σrank² is past 2⁵³ here (the per-gap
    /// half is `candidates::tests::gaps_match_past_exact_rank_square_sums`).
    #[test]
    #[cfg_attr(miri, ignore)]
    fn runs_match_the_reference_past_exact_rank_square_sums() {
        let keys = reference::huge_segment();
        let mut workspace = SmoothingWorkspace::default();
        for config in differential_configs(1.0, Some(3)) {
            assert_run_matches_reference(&keys, &config, &mut workspace);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn windowed_gap_refresh_matches_a_full_search() {
        let mut rng = SplitMix64::new(0xE);
        for keys in test_segments(&mut rng, 60) {
            let mut state = SegmentState::from_keys(&keys);
            let mut reference = reference::RefState::from_keys(&keys);
            // Every gap as it stood at every epoch, refreshed at the end.
            let mut stale: Vec<(GapBounds, usize)> = Vec::new();
            for epoch in 0..12 {
                stale.extend(
                    reference::enumerate_gaps(&reference)
                        .into_iter()
                        .map(|g| (g, epoch)),
                );
                let Some(v) = random_free_value(&mut rng, state.keys()) else {
                    break;
                };
                state.insert_virtual(v);
                reference.insert_virtual(v);
                for (gap, since) in &stale {
                    assert_eq!(
                        refresh_gap(state.keys(), gap, epoch + 1 - since),
                        reference::refresh_gap(&reference, gap),
                        "{gap:?} from epoch {since} at {}",
                        epoch + 1
                    );
                }
            }
        }
    }
}
