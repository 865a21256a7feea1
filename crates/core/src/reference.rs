//! The smoothing kernel as it stood before the data-oriented rewrite, kept
//! verbatim as the reference the new kernel is pinned against: every
//! per-gap coefficient is rebuilt from the sufficient statistics, every
//! derivative is divided through, and `insert_virtual` refreshes every
//! prefix sum from rank 0. Test-only; nothing outside `#[cfg(test)]` may
//! call into this module.

use crate::candidates::{Candidate, GapBounds};
use crate::layout::{LayoutEntry, SmoothedLayout};
use crate::single::{GreedyMode, SmoothingConfig, SmoothingCounters, SmoothingResult};
use csv_common::linear::FitStats;
use csv_common::rng::SplitMix64;
use csv_common::{Key, LinearModel};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Closed-form coefficients describing how the refitted loss varies with the
/// value `v` of a candidate virtual point inserted at a fixed rank.
///
/// With `n1 = m + 1` points after insertion, the centred moments become
/// `A(v) = a2·v² + a1·v + a0` (the x-variance term), `B(v) = b1·v + b0`
/// (the xy-covariance term) and a constant `c_yy` (the y-variance term), so
/// the refitted sum of squared errors is `loss(v) = c_yy − B(v)²/A(v)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapCoefficients {
    /// Insertion rank shared by every candidate in the gap.
    pub rank: usize,
    /// Key-space origin: the coefficients operate on `v − origin` so that
    /// datasets with huge absolute key values (e.g. Snowflake IDs) do not
    /// lose the fit signal to floating-point cancellation.
    pub origin: Key,
    /// Constant term of `A(v)`.
    pub a0: f64,
    /// Linear term of `A(v)`.
    pub a1: f64,
    /// Quadratic term of `A(v)`.
    pub a2: f64,
    /// Constant term of `B(v)`.
    pub b0: f64,
    /// Linear term of `B(v)`.
    pub b1: f64,
    /// Centred sum of squares of the ranks after insertion (`S_yy`).
    pub c_yy: f64,
}

impl GapCoefficients {
    #[inline]
    fn shift(&self, v: f64) -> f64 {
        v - self.origin as f64
    }

    /// `A(v)`, the centred x-variance after inserting (absolute) value `v`.
    #[inline]
    pub fn a(&self, v: f64) -> f64 {
        let v = self.shift(v);
        self.a2 * v * v + self.a1 * v + self.a0
    }

    /// `B(v)`, the centred xy-covariance after inserting (absolute) value `v`.
    #[inline]
    pub fn b(&self, v: f64) -> f64 {
        self.b1 * self.shift(v) + self.b0
    }

    /// Refitted loss `L(K ∪ {v})` (Eq. 5 with the refit of Eq. 15/16).
    #[inline]
    pub fn loss(&self, v: f64) -> f64 {
        let a = self.a(v);
        if a <= f64::EPSILON {
            return self.c_yy.max(0.0);
        }
        let b = self.b(v);
        (self.c_yy - b * b / a).max(0.0)
    }

    /// First derivative of the loss with respect to the candidate value
    /// (the quantity plotted in Fig. 4 / Eq. 17).
    #[inline]
    pub fn loss_derivative(&self, v: f64) -> f64 {
        let a = self.a(v);
        if a <= f64::EPSILON {
            return 0.0;
        }
        let b = self.b(v);
        let vs = self.shift(v);
        let a_prime = 2.0 * self.a2 * vs + self.a1;
        let b_prime = self.b1;
        -(2.0 * b_prime * b * a - b * b * a_prime) / (a * a)
    }

    /// The (absolute) candidate value minimising the loss on the real line,
    /// if the closed-form stationary point exists.
    ///
    /// Setting the derivative to zero factors as
    /// `B(v)·[(2·b1·a0 − a1·b0) + (2·b1·a1 − 2·a2·b0 − a1·b1)·v] = 0`;
    /// the root of `B` is a loss *maximum* (the covariance vanishes there),
    /// so the interesting root comes from the linear factor.
    pub fn interior_minimum(&self) -> Option<f64> {
        let denom = 2.0 * self.b1 * self.a1 - 2.0 * self.a2 * self.b0 - self.a1 * self.b1;
        if denom.abs() < 1e-30 || !denom.is_finite() {
            return None;
        }
        let num = 2.0 * self.b1 * self.a0 - self.a1 * self.b0;
        let v = -num / denom;
        if v.is_finite() {
            Some(v + self.origin as f64)
        } else {
            None
        }
    }
}
/// The evolving state of a key segment during smoothing.
#[derive(Debug, Clone)]
pub struct RefState {
    entries: Vec<LayoutEntry>,
    /// `prefix_key_sums[i]` = sum of the first `i` (origin-shifted) keys.
    prefix_key_sums: Vec<f64>,
    /// Sufficient statistics over (origin-shifted key, rank).
    stats: FitStats,
    /// Key-space origin (the smallest key); all floating-point arithmetic is
    /// carried out on `key − origin` for numerical stability.
    origin: Key,
}

impl RefState {
    /// Creates the state for a strictly increasing key slice.
    pub fn from_keys(keys: &[Key]) -> Self {
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "keys must be strictly increasing"
        );
        let entries: Vec<LayoutEntry> = keys.iter().copied().map(LayoutEntry::Real).collect();
        let origin = keys.first().copied().unwrap_or(0);
        let mut state = Self {
            entries,
            prefix_key_sums: Vec::new(),
            stats: FitStats::new(),
            origin,
        };
        state.refresh();
        state
    }

    #[inline]
    fn shift(&self, key: Key) -> f64 {
        (key - self.origin) as f64
    }

    fn refresh(&mut self) {
        let m = self.entries.len();
        self.prefix_key_sums.clear();
        self.prefix_key_sums.reserve(m + 1);
        self.prefix_key_sums.push(0.0);
        self.stats = FitStats::new();
        let mut acc = 0.0;
        for (rank, entry) in self.entries.iter().enumerate() {
            let k = self.shift(entry.key());
            acc += k;
            self.prefix_key_sums.push(acc);
            self.stats.push(k, rank as f64);
        }
    }
    /// Current entries in rank order.
    pub fn entries(&self) -> &[LayoutEntry] {
        &self.entries
    }

    pub fn model(&self) -> LinearModel {
        self.stats.fit().uncenter(self.origin)
    }

    /// The running statistics, for comparison with the new kernel's.
    pub fn stats(&self) -> FitStats {
        self.stats
    }

    /// Loss (SSE of the refitted model) over the current entries, i.e.
    /// `L(K ∪ V)` for the virtual points inserted so far.
    pub fn loss(&self) -> f64 {
        self.stats.sse_of_fit()
    }

    /// Loss of the refitted model restricted to the real keys only
    /// (`L_{f'}(K)` in the paper's Fig. 2).
    pub fn loss_real_only(&self) -> f64 {
        let model = self.model();
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_real())
            .map(|(rank, e)| {
                let err = model.predict_f64(e.key()) - rank as f64;
                err * err
            })
            .sum()
    }

    /// Insertion rank of a value: the number of entries with a key `< v`.
    pub fn rank_of(&self, v: Key) -> usize {
        self.entries.partition_point(|e| e.key() < v)
    }

    /// Closed-form loss coefficients for a candidate inserted at `rank`.
    pub fn gap_coefficients(&self, rank: usize) -> GapCoefficients {
        let m = self.stats.n;
        let n1 = m + 1.0;
        let t = m - rank as f64; // number of shifted entries
                                 // Sum of the shifted ranks  r .. m-1.
        let shifted_rank_sum = if t > 0.0 {
            (rank as f64 + m - 1.0) * t / 2.0
        } else {
            0.0
        };
        let suffix_key_sum = self.prefix_key_sums[self.entries.len()] - self.prefix_key_sums[rank];

        let sum_y = self.stats.sum_y + t + rank as f64;
        let sum_yy = self.stats.sum_yy + 2.0 * shifted_rank_sum + t + (rank as f64) * (rank as f64);
        let sum_xy_base = self.stats.sum_xy + suffix_key_sum;
        let sum_x_base = self.stats.sum_x;
        let sum_xx_base = self.stats.sum_xx;
        let origin = self.origin;

        // A(v) = (sum_xx + v²) − (sum_x + v)²/n1
        let a0 = sum_xx_base - sum_x_base * sum_x_base / n1;
        let a1 = -2.0 * sum_x_base / n1;
        let a2 = 1.0 - 1.0 / n1;
        // B(v) = (sum_xy_base + r·v) − (sum_x + v)·sum_y/n1
        let b0 = sum_xy_base - sum_x_base * sum_y / n1;
        let b1 = rank as f64 - sum_y / n1;
        // C = sum_yy − sum_y²/n1
        let c_yy = sum_yy - sum_y * sum_y / n1;

        GapCoefficients {
            rank,
            origin,
            a0,
            a1,
            a2,
            b0,
            b1,
            c_yy,
        }
    }

    /// Inserts a virtual point with value `v`. Panics if `v` already exists.
    pub fn insert_virtual(&mut self, v: Key) {
        let rank = self.rank_of(v);
        assert!(
            rank >= self.entries.len() || self.entries[rank].key() != v,
            "virtual point {v} already present"
        );
        self.entries.insert(rank, LayoutEntry::Virtual(v));
        // O(m) refresh; the greedy driver already scans all gaps each
        // iteration, so this does not change the asymptotic cost.
        self.refresh();
    }

    /// Finalises the segment into a [`SmoothedLayout`].
    pub fn into_layout(self) -> SmoothedLayout {
        let model = self.stats.fit().uncenter(self.origin);
        SmoothedLayout::new(self.entries, model)
    }
}

/// Enumerates every gap of the segment, in key order.
pub fn enumerate_gaps(state: &RefState) -> Vec<GapBounds> {
    let entries = state.entries();
    let mut gaps = Vec::new();
    for (i, pair) in entries.windows(2).enumerate() {
        let lo_key = pair[0].key();
        let hi_key = pair[1].key();
        if hi_key > lo_key + 1 {
            gaps.push(GapBounds {
                lo: lo_key + 1,
                hi: hi_key - 1,
                rank: i + 1,
            });
        }
    }
    gaps
}

/// Finds the loss-minimising candidate within one gap, following the
/// derivative-sign filtering of §4.2.
pub fn best_candidate_in_gap(state: &RefState, gap: &GapBounds) -> Option<Candidate> {
    if gap.hi < gap.lo {
        return None;
    }
    let coeffs = state.gap_coefficients(gap.rank);
    let eval = |v: Key| Candidate {
        value: v,
        rank: gap.rank,
        loss: coeffs.loss(v as f64),
    };
    let width = gap.width();

    if width <= 2 {
        // Few candidates: evaluate them all (Algorithm 1, lines 7–8).
        let mut best = eval(gap.lo);
        if width == 2 {
            let other = eval(gap.hi);
            if other.loss < best.loss {
                best = other;
            }
        }
        return Some(best);
    }

    let d_lo = coeffs.loss_derivative(gap.lo as f64);
    let d_hi = coeffs.loss_derivative(gap.hi as f64);

    if d_lo.signum() == d_hi.signum() || d_lo == 0.0 || d_hi == 0.0 {
        // No interior minimum: the best candidate is one of the endpoints
        // (Algorithm 1, line 17).
        let lo = eval(gap.lo);
        let hi = eval(gap.hi);
        return Some(if lo.loss <= hi.loss { lo } else { hi });
    }

    // Opposite signs: the convex loss attains its minimum strictly inside the
    // gap; locate the stationary point in closed form and snap it to the
    // neighbouring integers (Algorithm 1, lines 20–22).
    let v_star = coeffs
        .interior_minimum()
        .filter(|v| v.is_finite() && *v > gap.lo as f64 && *v < gap.hi as f64)
        .unwrap_or_else(|| bisect_derivative(&coeffs, gap.lo as f64, gap.hi as f64));
    let floor = (v_star.floor() as Key).clamp(gap.lo, gap.hi);
    let ceil = (v_star.ceil() as Key).clamp(gap.lo, gap.hi);
    let a = eval(floor);
    let b = eval(ceil);
    Some(if a.loss <= b.loss { a } else { b })
}

/// Robust fallback root finder for the loss derivative on `[lo, hi]` when the
/// closed form is numerically degenerate. The derivative changes sign on the
/// interval by construction, so bisection converges.
pub fn bisect_derivative(coeffs: &GapCoefficients, mut lo: f64, mut hi: f64) -> f64 {
    let mut d_lo = coeffs.loss_derivative(lo);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        let d_mid = coeffs.loss_derivative(mid);
        if d_mid == 0.0 {
            return mid;
        }
        if d_mid.signum() == d_lo.signum() {
            lo = mid;
            d_lo = d_mid;
        } else {
            hi = mid;
        }
        if hi - lo < 0.25 {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// Scans every gap and returns the globally best candidate, counting each
/// evaluated gap in `refits`. Ties keep the first gap in key order — the
/// selection rule of Algorithm 1's scan, which the greedy drivers in
/// [`crate::single`] must all agree on; this function is its only
/// implementation over a streamed scan.
pub fn best_candidate_counted(state: &RefState, refits: &mut usize) -> Option<Candidate> {
    let mut best: Option<Candidate> = None;
    for gap in enumerate_gaps(state) {
        if let Some(c) = best_candidate_in_gap(state, &gap) {
            *refits += 1;
            match &best {
                Some(b) if b.loss <= c.loss => {}
                _ => best = Some(c),
            }
        }
    }
    best
}

/// Relative tolerance for the lazy driver's invariant check: stored gains
/// must remain upper bounds of current gains, so a re-validated entry whose
/// refreshed gain exceeds its stored gain by more than this (relative)
/// margin counts as a genuine violation rather than floating-point noise
/// and triggers the exact fallback rescan. User-visible drift tolerance is
/// layered on top via [`SmoothingConfig::drift_tolerance`].
const LAZY_DRIFT_TOLERANCE: f64 = 1e-9;

/// Runs Algorithm 1 on a strictly increasing key slice.
pub fn smooth_segment(keys: &[Key], config: &SmoothingConfig) -> SmoothingResult {
    let model_before = LinearModel::fit_cdf(keys);
    let loss_before = model_before.sse_cdf(keys);
    let budget = config.budget(keys.len());
    let mut state = RefState::from_keys(keys);
    let mut virtual_points = Vec::new();
    let mut counters = SmoothingCounters::default();

    let iterations = if budget == 0 || keys.len() < 2 {
        0
    } else {
        match config.mode {
            GreedyMode::Rescan => run_rescan(
                &mut state,
                budget,
                config.min_relative_gain,
                &mut virtual_points,
                &mut counters,
            ),
            GreedyMode::Lazy => run_lazy(
                &mut state,
                budget,
                config,
                &mut virtual_points,
                &mut counters,
            ),
        }
    };

    let loss_after_real = state.loss_real_only();
    let loss_after_all = state.loss();
    SmoothingResult {
        layout: state.into_layout(),
        loss_before,
        loss_after_real,
        loss_after_all,
        model_before,
        virtual_points,
        iterations,
        budget,
        counters,
    }
}

/// One full pass over every gap: evaluates each gap's best candidate
/// against the current statistics, in key order. Shared by the Rescan
/// driver and the lazy driver's exact fallback.
pub fn evaluate_all_gaps(
    state: &RefState,
    counters: &mut SmoothingCounters,
) -> Vec<(Candidate, GapBounds)> {
    let mut evaluated = Vec::new();
    for gap in enumerate_gaps(state) {
        if let Some(c) = best_candidate_in_gap(state, &gap) {
            counters.gap_refits += 1;
            evaluated.push((c, gap));
        }
    }
    evaluated
}

/// Index of the minimal-loss evaluation; ties keep the first gap in key
/// order, matching Algorithm 1's scan order and
/// [`best_candidate_counted`] (the streamed form the
/// Rescan driver uses). The lazy fallback's "exact by construction" claim
/// rests on these agreeing, and the lazy heap's tie-break ([`HeapEntry`]'s
/// `Ord`) mirrors the same rule for fresh-top wins.
pub fn first_minimum(evaluated: &[(Candidate, GapBounds)]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, (c, _)) in evaluated.iter().enumerate() {
        match best {
            Some(b) if evaluated[b].0.loss <= c.loss => {}
            _ => best = Some(i),
        }
    }
    best
}

pub fn run_rescan(
    state: &mut RefState,
    budget: usize,
    min_relative_gain: f64,
    virtual_points: &mut Vec<Key>,
    counters: &mut SmoothingCounters,
) -> usize {
    let mut iterations = 0;
    let mut previous_loss = state.loss();
    while virtual_points.len() < budget {
        let Some(best) = best_candidate_counted(state, &mut counters.gap_refits) else {
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
struct HeapEntry {
    /// `loss(current state) − loss(state ∪ {value})` at evaluation time.
    gain: f64,
    /// The candidate's refitted loss at evaluation time.
    loss: f64,
    /// Loss-minimising candidate value inside `gap` at evaluation time.
    value: Key,
    gap: GapBounds,
    /// Number of virtual points inserted when the entry was evaluated; an
    /// entry is *fresh* while this matches the driver's current epoch and
    /// *stale* afterwards.
    epoch: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.gain == other.gain && self.gap.lo == other.gap.lo
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
        // `first_minimum`, so fresh-top wins stay deterministic and aligned
        // with the Rescan driver.
        self.gain
            .partial_cmp(&other.gain)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.gap.lo.cmp(&self.gap.lo))
    }
}

pub fn run_lazy(
    state: &mut RefState,
    budget: usize,
    config: &SmoothingConfig,
    virtual_points: &mut Vec<Key>,
    counters: &mut SmoothingCounters,
) -> usize {
    let min_relative_gain = config.min_relative_gain;
    // The fp-noise floor plus the user-selected drift tolerance; with the
    // default `drift_tolerance = 0.0` this is exactly the historical
    // constant, so the default pipeline is bit-identical.
    let violation_margin = LAZY_DRIFT_TOLERANCE + config.drift_tolerance.max(0.0);
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
    let mut epoch = 0usize;
    let mut previous_loss = state.loss();
    for gap in enumerate_gaps(state) {
        if let Some(c) = best_candidate_in_gap(state, &gap) {
            counters.gap_refits += 1;
            counters.heap_pushes += 1;
            heap.push(HeapEntry {
                gain: previous_loss - c.loss,
                loss: c.loss,
                value: c.value,
                gap,
                epoch,
            });
        }
    }
    let mut iterations = 0;
    while virtual_points.len() < budget {
        // Pop until the top entry is fresh, re-validating stale entries
        // against the current statistics (CELF). Each gap is re-validated at
        // most once per epoch, so this terminates; in the worst case it does
        // the same work as one Rescan iteration.
        let winner: Option<(Key, f64, GapBounds)> = loop {
            let Some(entry) = heap.pop() else { break None };
            if entry.epoch == epoch {
                break Some((entry.value, entry.loss, entry.gap));
            }
            // The gap may have been shrunk by earlier insertions at its
            // ends; re-derive bounds before re-evaluating.
            let Some(gap) = refresh_gap(state, &entry.gap) else {
                continue;
            };
            let Some(current) = best_candidate_in_gap(state, &gap) else {
                continue;
            };
            counters.gap_refits += 1;
            counters.stale_revalidations += 1;
            let current_gain = previous_loss - current.loss;
            if current_gain > entry.gain + violation_margin * (1.0 + entry.gain.abs()) {
                // This gap's marginal gain *grew* since it was stored: the
                // stored gains are no longer upper bounds, so the lazy
                // selection argument is void. Resolve this iteration with a
                // full rescan — exact by construction — and reseed the heap
                // with the freshly evaluated non-winning gaps in one O(n)
                // heapify (`BinaryHeap::from`) instead of n·log n pushes.
                // They carry the *current* epoch (valid for this
                // pre-insertion state), go stale with the insertion below,
                // and are re-validated on demand as usual.
                counters.fallback_rescans += 1;
                let evaluated = evaluate_all_gaps(state, counters);
                let Some(best_idx) = first_minimum(&evaluated) else {
                    break None;
                };
                let reseeded: Vec<HeapEntry> = evaluated
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != best_idx)
                    .map(|(_, (c, gap))| HeapEntry {
                        gain: previous_loss - c.loss,
                        loss: c.loss,
                        value: c.value,
                        gap: *gap,
                        epoch,
                    })
                    .collect();
                counters.heap_pushes += reseeded.len();
                heap = BinaryHeap::from(reseeded);
                let (winner_candidate, winner_gap) = evaluated[best_idx];
                break Some((winner_candidate.value, winner_candidate.loss, winner_gap));
            }
            counters.heap_pushes += 1;
            heap.push(HeapEntry {
                gain: current_gain,
                loss: current.loss,
                value: current.value,
                gap,
                epoch,
            });
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
        if inserted > gap.lo {
            let left = GapBounds {
                lo: gap.lo,
                hi: inserted - 1,
                rank: gap.rank,
            };
            if let Some(c) = best_candidate_in_gap(state, &left) {
                counters.gap_refits += 1;
                counters.heap_pushes += 1;
                heap.push(HeapEntry {
                    gain: previous_loss - c.loss,
                    loss: c.loss,
                    value: c.value,
                    gap: left,
                    epoch,
                });
            }
        }
        if inserted < gap.hi {
            let right = GapBounds {
                lo: inserted + 1,
                hi: gap.hi,
                rank: gap.rank + 1,
            };
            if let Some(c) = best_candidate_in_gap(state, &right) {
                counters.gap_refits += 1;
                counters.heap_pushes += 1;
                heap.push(HeapEntry {
                    gain: previous_loss - c.loss,
                    loss: c.loss,
                    value: c.value,
                    gap: right,
                    epoch,
                });
            }
        }
    }
    iterations
}

/// Re-derives a gap's bounds and rank against the current state; returns
/// `None` when the gap no longer contains any candidate.
///
/// A stale gap can only have been narrowed by virtual points inserted at
/// its ends, and those occupy *consecutive* ranks in the entry array. One
/// binary search therefore anchors the low end, and both ends are trimmed
/// by linear scans over adjacent entries — the earlier form paid one
/// binary search (`contains`) per trimmed value plus a final `rank_of`,
/// which dominated the lazy driver's re-validation cost on clustered data.
pub fn refresh_gap(state: &RefState, gap: &GapBounds) -> Option<GapBounds> {
    let entries = state.entries();
    let mut lo = gap.lo;
    let mut hi = gap.hi;
    // `rank` tracks rank_of(lo) as lo advances past occupied values.
    let mut rank = state.rank_of(lo);
    while lo <= hi && rank < entries.len() && entries[rank].key() == lo {
        lo += 1;
        rank += 1;
    }
    if lo > hi {
        return None;
    }
    // Fast path — and the expected case, since insertions land either in a
    // gap whose heap entry was just consumed or at a gap's ends: no entry
    // lies in [lo, hi], so the high end needs no trimming and the one
    // binary search above is the whole re-validation cost.
    if rank >= entries.len() || entries[rank].key() > hi {
        return Some(GapBounds { lo, hi, rank });
    }
    // Entries inside [lo, hi]: trim the high end. Occupied values at the
    // high end sit at consecutive ranks just below the first entry past the
    // gap, so after locating rank_of(hi) the walk is over adjacent entries.
    let mut hi_rank = rank + entries[rank..].partition_point(|e| e.key() < hi);
    while hi >= lo && hi_rank < entries.len() && entries[hi_rank].key() == hi {
        if hi == lo {
            return None;
        }
        hi -= 1;
        // rank >= 1 because every gap lies strictly above the segment's
        // first entry, so this cannot underflow.
        hi_rank -= 1;
    }
    Some(GapBounds { lo, hi, rank })
}

pub fn improves(previous: f64, candidate: f64, min_relative_gain: f64) -> bool {
    if candidate >= previous {
        return false;
    }
    if previous <= 0.0 {
        return false;
    }
    (previous - candidate) / previous >= min_relative_gain
}

/// Segments of about `n` keys covering the shapes the per-gap decision
/// branches on: clustered runs with jumps of every magnitude, gaps of width
/// 1–3 only, 2⁴⁰-wide gaps, a dense run with no gap at all, Snowflake-style
/// offsets, and uniformly random keys.
pub fn test_segments(rng: &mut SplitMix64, n: usize) -> Vec<Vec<Key>> {
    let mut grow = |start: Key, step: &mut dyn FnMut(&mut SplitMix64) -> u64| {
        let mut key = start;
        let mut keys = vec![key];
        while keys.len() < n {
            key += step(rng);
            keys.push(key);
        }
        keys
    };
    let snowflake: Key = 665_600_000_000_000;
    vec![
        grow(7, &mut |rng| match rng.next_below(10) {
            0 => {
                let magnitude = rng.next_below(34);
                1 + rng.next_below(1 << magnitude)
            }
            1 => 2 + rng.next_below(3),
            _ => 1,
        }),
        grow(0, &mut |rng| 2 + rng.next_below(3)),
        grow(3, &mut |rng| match rng.next_below(8) {
            0 => 1 << 40,
            1 => (1 << 40) + 1,
            _ => 1 + rng.next_below(5),
        }),
        grow(5, &mut |_| 1),
        grow(snowflake, &mut |rng| match rng.next_below(16) {
            0 => 500_000 + rng.next_below(1 << 22),
            _ => 1_000 + rng.next_below(7),
        }),
        grow(snowflake + 11, &mut |rng| 1 + rng.next_below(4)),
        grow(1 << 20, &mut |rng| 1 + rng.next_below(1 << 30)),
        grow(0, &mut |rng| {
            1 + (rng.next_below(1 << 16) * rng.next_below(1 << 16)) % 9_973
        }),
    ]
}

/// A value strictly between two adjacent keys — an end of a random gap more
/// often than its middle, which is where greedy insertions land — or `None`
/// when the keys leave no gap.
pub fn random_free_value(rng: &mut SplitMix64, keys: &[Key]) -> Option<Key> {
    let gaps: Vec<(Key, Key)> = keys
        .windows(2)
        .filter(|w| w[1] - w[0] > 1)
        .map(|w| (w[0] + 1, w[1] - 1))
        .collect();
    if gaps.is_empty() {
        return None;
    }
    let (lo, hi) = gaps[rng.next_below(gaps.len() as u64) as usize];
    Some(match rng.next_below(4) {
        0 => lo,
        1 => hi,
        2 => lo + (hi - lo) / 2,
        _ => rng.next_in_range(lo, hi),
    })
}

/// 400 000 keys: Σrank² is past 2⁵³ (it stops being an exact integer in
/// `f64` near 3·10⁵ entries), so hoisting it out of the per-gap expression
/// would change bits.
pub fn huge_segment() -> Vec<Key> {
    let mut rng = SplitMix64::new(0xD);
    let mut key = 0;
    (0..400_000)
        .map(|i| {
            key += 1 + rng.next_below(if i % 1_000 == 0 { 1 << 20 } else { 6 });
            key
        })
        .collect()
}

/// 18 Snowflake-offset keys and six insertions found by search: between
/// them the gaps take every exit of the per-gap decision, including the
/// fallback for a derivative numerator too small to trust. The values
/// `first key + 1` and `last key − 1` stay free.
pub fn small_branchy_segment() -> (Vec<Key>, Vec<Key>) {
    let at = |deltas: &[u64]| deltas.iter().map(|d| 665_600_000_000_000 + d).collect();
    (
        at(&[
            11, 13, 17, 19, 23, 27, 31, 33, 37, 39, 43, 44, 47, 51, 54, 57, 60, 62,
        ]),
        at(&[18, 45, 32, 29, 20, 48]),
    )
}
