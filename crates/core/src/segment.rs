//! Incremental loss bookkeeping for one key segment (§4.1 of the paper).
//!
//! The greedy smoothing algorithm repeatedly asks: *if I inserted a virtual
//! point with value `v`, what would the refitted model's loss be?* Answering
//! that naïvely costs a pass over the segment per candidate. Following the
//! paper, [`SegmentState`] separates the terms that only depend on the
//! current key set (sufficient statistics plus prefix key sums) from the
//! terms contributed by the candidate, so each candidate evaluation is O(1)
//! and the derivative of the loss with respect to the candidate value
//! (Eq. 17–21) is available in closed form.
//!
//! With `n1 = m + 1` points after insertion at rank `r`, the centred moments
//! are `A(v) = a2·v² + a1·v + a0` (x-variance), `B(v) = b1·v + b0`
//! (xy-covariance) and a constant `c_yy` (y-variance), and the refitted sum
//! of squared errors is `loss(v) = c_yy − B(v)²/A(v)`.
//!
//! # Layout
//!
//! The state is a workspace of parallel arrays — the entry keys, a
//! virtual-point flag per entry, and the running sums Σx, Σx², Σxy after
//! each entry — that [`SegmentState::reset`] refills in place, so one
//! allocation serves every segment a planner smooths. Ranks are the
//! positions `0..m-1` of the current entries. Inserting at rank `r` leaves
//! the running sums below `r` untouched, so [`SegmentState::insert_virtual`]
//! resumes them at `r` and re-accumulates only the suffix, in the same
//! left-to-right order a rebuild from rank 0 would use: every sum is
//! bit-identical to the rebuild's. The rank sums need no array: Σrank is an
//! exact integer (below), and the terms of Σrank² do not depend on the keys,
//! so an insertion appends one term, `m²`, to the same left-to-right sum.
//!
//! # What is hoisted out of the per-gap work, and why that is exact
//!
//! Of the six coefficients only `b0`, `b1` and `c_yy` depend on the rank.
//! `a0`, `a1`, `a2` are functions of `m`, Σx and Σx² alone. The rank enters
//! the others through the shifted rank sums:
//!
//! * Σy after insertion is `Σrank + (m − r) + r`. Every term and every
//!   partial sum is an integer below 2⁵³ for `m ≤` [`MAX_ENTRIES`] (2²⁶, far
//!   above `max_subtree_keys` = 2²⁰), hence exact in `f64`, so the sum is
//!   `Σrank + m` for every `r` and `Σy/n1`, `Σx·Σy/n1`, `Σy²/n1` are
//!   computed once per insertion. Twice the shifted-rank sum,
//!   `(r + m − 1)·(m − r)`, is an even integer below 2⁵³ for the same
//!   reason, so it is used without the `/2·2` round trip.
//! * Σrank² is *not* exact beyond `m ≈ 3·10⁵` (`m³/3 > 2⁵³`), so
//!   `c_yy`'s `((Σrank² + 2·shifted) + (m − r)) + r²` keeps its per-gap
//!   expression and its order of additions; only the subtrahend `Σy²/n1`
//!   is hoisted.
//!
//! The derivative `−N(v)/A(v)²` with `N = 2·b1·B·A − B²·A′` is only ever
//! asked for its sign. `A² > 0`, so that is the sign of `−N` — unless the
//! quotient underflows to zero, `A²` overflows, or `A ≤ ε` short-circuits
//! the derivative to 0. `GapModel::trusted_numerator` keeps a numerator
//! only when none of that can happen (`ε < A < 10¹⁵⁰`, `1 ≤ |N| < ∞`, so
//! the quotient is a non-zero number of `N`'s sign) and stores 0 otherwise;
//! on a 0 the caller computes the divided-through derivative and applies
//! the original `signum`/`== 0` tests to it. The sign is never guessed.

use crate::layout::{LayoutEntry, SmoothedLayout};
use csv_common::linear::FitStats;
use csv_common::{Key, LinearModel};

/// Largest entry count the kernel supports: up to here Σrank and the
/// shifted-rank products are exact integers in `f64` (see the module docs).
pub const MAX_ENTRIES: usize = 1 << 26;

/// Below this `A`, `A·A` cannot overflow.
const A_SQUARE_FINITE: f64 = 1e150;

/// The terms of the refitted moments that do not depend on a gap's rank,
/// recomputed once per insertion.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct EpochConstants {
    /// Entry count `m`.
    m: f64,
    a0: f64,
    a1: f64,
    a2: f64,
    /// `2·a2`, the slope of `A′`.
    two_a2: f64,
    sum_xy: f64,
    sum_yy: f64,
    /// Σx over all entries (the last prefix key sum).
    total_key_sum: f64,
    /// `Σx·Σy/n1`, `Σy/n1`, `Σy²/n1` with Σy the post-insertion rank sum.
    sxsy_n1: f64,
    sy_n1: f64,
    sysy_n1: f64,
    /// `origin as f64`: candidate values are cast first, then shifted.
    origin: f64,
}

impl EpochConstants {
    fn new(stats: &FitStats, origin: Key) -> Self {
        let m = stats.n;
        let n1 = m + 1.0;
        let sum_y = stats.sum_y + m;
        let a2 = 1.0 - 1.0 / n1;
        Self {
            m,
            a0: stats.sum_xx - stats.sum_x * stats.sum_x / n1,
            a1: -2.0 * stats.sum_x / n1,
            a2,
            two_a2: 2.0 * a2,
            sum_xy: stats.sum_xy,
            sum_yy: stats.sum_yy,
            total_key_sum: stats.sum_x,
            sxsy_n1: stats.sum_x * sum_y / n1,
            sy_n1: sum_y / n1,
            sysy_n1: sum_y * sum_y / n1,
            origin: origin as f64,
        }
    }

    /// The loss model of a candidate inserted at `rank`, given the key sum
    /// of the entries below it.
    #[inline]
    fn model(&self, rank: usize, key_sum_below: f64) -> GapModel {
        let r = rank as f64;
        let shifted = self.m - r;
        GapModel {
            a0: self.a0,
            a1: self.a1,
            a2: self.a2,
            two_a2: self.two_a2,
            origin: self.origin,
            b0: self.sum_xy + (self.total_key_sum - key_sum_below) - self.sxsy_n1,
            b1: r - self.sy_n1,
            c_yy: self.sum_yy + (r + self.m - 1.0) * shifted + shifted + r * r - self.sysy_n1,
        }
    }
}

/// What pass 1 of the gap scan leaves behind for one adjacent key pair: the
/// refitted loss and the trusted derivative numerator (0 = recompute, see
/// [`GapModel::trusted_numerator`]) at `lower key + 1` and `upper key − 1`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct GapLane {
    pub(crate) loss_lo: f64,
    pub(crate) loss_hi: f64,
    pub(crate) num_lo: f64,
    pub(crate) num_hi: f64,
}

/// Closed-form description of how the refitted loss varies with the value
/// `v` of a candidate inserted at a fixed rank (see the module docs). All
/// methods take the *absolute* candidate value.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GapModel {
    a0: f64,
    a1: f64,
    a2: f64,
    two_a2: f64,
    origin: f64,
    b0: f64,
    b1: f64,
    c_yy: f64,
}

impl GapModel {
    /// `(A(v), B(v), v − origin)`.
    #[inline]
    fn moments(&self, v: f64) -> (f64, f64, f64) {
        let v = v - self.origin;
        (
            self.a2 * v * v + self.a1 * v + self.a0,
            self.b1 * v + self.b0,
            v,
        )
    }

    #[inline]
    fn loss_of(&self, a: f64, b: f64) -> f64 {
        let explained = if a <= f64::EPSILON { 0.0 } else { b * b / a };
        (self.c_yy - explained).max(0.0)
    }

    /// `N(v) = 2·b1·B·A − B²·A′`: the loss derivative is `−N/A²`.
    #[inline]
    fn numerator_of(&self, a: f64, b: f64, v: f64) -> f64 {
        2.0 * self.b1 * b * a - b * b * (self.two_a2 * v + self.a1)
    }

    /// `num` if `−num` provably has the sign of the divided-through
    /// derivative, which is then neither zero nor NaN; 0 otherwise.
    #[inline]
    fn trusted_numerator(a: f64, num: f64) -> f64 {
        let trusted = a > f64::EPSILON
            && a < A_SQUARE_FINITE
            && num.abs() >= 1.0
            && num.abs() < f64::INFINITY;
        if trusted {
            num
        } else {
            0.0
        }
    }

    /// Refitted loss `L(K ∪ {v})` (Eq. 5 with the refit of Eq. 15/16).
    #[inline]
    pub(crate) fn loss(&self, v: f64) -> f64 {
        let (a, b, _) = self.moments(v);
        self.loss_of(a, b)
    }

    /// First derivative of the loss with respect to the candidate value
    /// (the quantity plotted in Fig. 4 / Eq. 17).
    pub(crate) fn loss_derivative(&self, v: f64) -> f64 {
        let (a, b, shifted) = self.moments(v);
        if a <= f64::EPSILON {
            return 0.0;
        }
        -self.numerator_of(a, b, shifted) / (a * a)
    }

    /// A number with the sign, zero-ness and NaN-ness of
    /// [`GapModel::loss_derivative`], without the division when the
    /// numerator is trusted.
    pub(crate) fn derivative_sign(&self, v: f64) -> f64 {
        let (a, b, shifted) = self.moments(v);
        let num = Self::trusted_numerator(a, self.numerator_of(a, b, shifted));
        if num == 0.0 {
            self.loss_derivative(v)
        } else {
            -num
        }
    }

    /// Pass 1 for one adjacent key pair with candidate range `lo..=hi`
    /// (which is empty, and the lane unused, when the keys are adjacent
    /// integers). Nothing here branches on the shape of the gap.
    #[inline]
    pub(crate) fn lane(&self, lo: Key, hi: Key) -> GapLane {
        let (a_lo, b_lo, v_lo) = self.moments(lo as f64);
        let (a_hi, b_hi, v_hi) = self.moments(hi as f64);
        GapLane {
            loss_lo: self.loss_of(a_lo, b_lo),
            loss_hi: self.loss_of(a_hi, b_hi),
            num_lo: Self::trusted_numerator(a_lo, self.numerator_of(a_lo, b_lo, v_lo)),
            num_hi: Self::trusted_numerator(a_hi, self.numerator_of(a_hi, b_hi, v_hi)),
        }
    }

    /// The (absolute) candidate value minimising the loss on the real line,
    /// if the closed-form stationary point exists.
    ///
    /// Setting the derivative to zero factors as
    /// `B(v)·[(2·b1·a0 − a1·b0) + (2·b1·a1 − 2·a2·b0 − a1·b1)·v] = 0`;
    /// the root of `B` is a loss *maximum* (the covariance vanishes there),
    /// so the interesting root comes from the linear factor.
    pub(crate) fn interior_minimum(&self) -> Option<f64> {
        let denom = 2.0 * self.b1 * self.a1 - self.two_a2 * self.b0 - self.a1 * self.b1;
        if denom.abs() < 1e-30 || !denom.is_finite() {
            return None;
        }
        let num = 2.0 * self.b1 * self.a0 - self.a1 * self.b0;
        let v = -num / denom;
        v.is_finite().then_some(v + self.origin)
    }
}

/// The evolving state of a key segment during smoothing.
#[derive(Debug, Clone, Default)]
pub struct SegmentState {
    /// Entry keys (real and virtual) in rank order.
    keys: Vec<Key>,
    /// `is_virtual[i]`: entry `i` is an inserted virtual point.
    is_virtual: Vec<bool>,
    /// `sum_*[i]`: the running sum over the first `i` entries of the
    /// origin-shifted key, its square and key·rank.
    sum_x: Vec<f64>,
    sum_xx: Vec<f64>,
    sum_xy: Vec<f64>,
    /// Sufficient statistics over (origin-shifted key, rank).
    stats: FitStats,
    /// Key-space origin (the smallest key); all floating-point arithmetic is
    /// carried out on `key − origin` for numerical stability.
    origin: Key,
    epoch: EpochConstants,
}

impl SegmentState {
    /// Creates the state for a strictly increasing key slice.
    pub fn from_keys(keys: &[Key]) -> Self {
        let mut state = Self::default();
        state.reset(keys);
        state
    }

    /// Refills the state for a new strictly increasing key slice, reusing
    /// its buffers.
    ///
    /// # Panics
    ///
    /// If `keys` holds more than [`MAX_ENTRIES`] keys.
    pub fn reset(&mut self, keys: &[Key]) {
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "keys must be strictly increasing"
        );
        self.keys.clear();
        self.keys.extend_from_slice(keys);
        self.is_virtual.clear();
        self.is_virtual.resize(keys.len(), false);
        self.origin = keys.first().copied().unwrap_or(0);
        // Σrank² does not depend on the keys: summed once here, extended by
        // one term per insertion.
        let sum_yy = (0..keys.len()).fold(0.0, |sum, rank| sum + (rank * rank) as f64);
        self.resume_sums(0, sum_yy);
    }

    /// Re-accumulates the running sums of the entries from `rank` on, on
    /// top of the (unchanged) sums below it, then refreshes the statistics
    /// and the per-epoch constants. `sum_yy` is Σrank² over all entries.
    fn resume_sums(&mut self, rank: usize, sum_yy: f64) {
        let m = self.keys.len();
        assert!(
            m <= MAX_ENTRIES,
            "a segment of {m} entries exceeds the {MAX_ENTRIES} the rank sums stay exact for"
        );
        // Element 0 is the empty sum: written by the first `resize`, never
        // again.
        for sums in [&mut self.sum_x, &mut self.sum_xx, &mut self.sum_xy] {
            sums.resize(m + 1, 0.0);
        }
        let (mut sum_x, mut sum_xx, mut sum_xy) =
            (self.sum_x[rank], self.sum_xx[rank], self.sum_xy[rank]);
        let keys = &self.keys[rank..];
        let (out_x, out_xx, out_xy) = (
            &mut self.sum_x[rank + 1..][..keys.len()],
            &mut self.sum_xx[rank + 1..][..keys.len()],
            &mut self.sum_xy[rank + 1..][..keys.len()],
        );
        for (i, &key) in keys.iter().enumerate() {
            let x = (key - self.origin) as f64;
            sum_x += x;
            sum_xx += x * x;
            sum_xy += x * (rank + i) as f64;
            (out_x[i], out_xx[i], out_xy[i]) = (sum_x, sum_xx, sum_xy);
        }
        self.stats = FitStats {
            n: m as f64,
            sum_x,
            // Σrank: an exact integer, see MAX_ENTRIES.
            sum_y: (m * m.saturating_sub(1) / 2) as f64,
            sum_xx,
            sum_yy,
            sum_xy,
        };
        self.epoch = EpochConstants::new(&self.stats, self.origin);
    }

    /// Number of entries (real + virtual) currently in the segment.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when the segment holds no entries.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Current entry keys (real and virtual) in rank order.
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// Number of virtual points inserted so far.
    pub fn num_virtual(&self) -> usize {
        self.is_virtual.iter().filter(|&&v| v).count()
    }

    /// The OLS model refitted over the current entries (in absolute key
    /// coordinates).
    pub fn model(&self) -> LinearModel {
        self.stats.fit().uncenter(self.origin)
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
        self.keys
            .iter()
            .zip(&self.is_virtual)
            .enumerate()
            .filter(|(_, (_, &is_virtual))| !is_virtual)
            .map(|(rank, (&key, _))| {
                let err = model.predict_f64(key) - rank as f64;
                err * err
            })
            .sum()
    }

    /// Smallest key currently stored.
    pub fn min_key(&self) -> Option<Key> {
        self.keys.first().copied()
    }

    /// Largest key currently stored.
    pub fn max_key(&self) -> Option<Key> {
        self.keys.last().copied()
    }

    /// Insertion rank of a value: the number of entries with a key `< v`.
    pub fn rank_of(&self, v: Key) -> usize {
        self.keys.partition_point(|&k| k < v)
    }

    /// `true` when `v` is already present (as a real key or virtual point).
    pub fn contains(&self, v: Key) -> bool {
        self.keys.binary_search(&v).is_ok()
    }

    /// Closed-form loss model for a candidate inserted at `rank`.
    #[inline]
    pub(crate) fn gap_model(&self, rank: usize) -> GapModel {
        self.epoch.model(rank, self.sum_x[rank])
    }

    /// Pass 1 of the gap scan: one [`GapLane`] per adjacent key pair, in
    /// key order (`lanes[i]` belongs to the pair at ranks `i`, `i + 1`).
    pub(crate) fn scan_endpoints(&self, lanes: &mut Vec<GapLane>) {
        lanes.clear();
        let Some((_, uppers)) = self.keys.split_first() else {
            return;
        };
        let pairs = self.keys.iter().zip(uppers).zip(&self.sum_x[1..]);
        lanes.extend(
            pairs
                .enumerate()
                .map(|(i, ((&lower, &upper), &key_sum_below))| {
                    self.epoch
                        .model(i + 1, key_sum_below)
                        .lane(lower + 1, upper - 1)
                }),
        );
    }

    /// Loss after inserting candidate value `v` (not currently present) and
    /// refitting the model — O(1) thanks to the cached statistics.
    pub fn candidate_loss(&self, v: Key) -> f64 {
        self.gap_model(self.rank_of(v)).loss(v as f64)
    }

    /// Derivative of the loss with respect to the candidate value at `v`.
    pub fn candidate_loss_derivative(&self, v: Key) -> f64 {
        self.gap_model(self.rank_of(v)).loss_derivative(v as f64)
    }

    /// Inserts a virtual point with value `v`.
    ///
    /// Costs two `memmove`s of the entries above `v` plus the running sums
    /// of that suffix — O(m − rank), where a gap scan is O(m).
    ///
    /// # Panics
    ///
    /// If `v` already exists, or the segment already holds [`MAX_ENTRIES`]
    /// entries.
    pub fn insert_virtual(&mut self, v: Key) {
        let rank = self.rank_of(v);
        assert!(
            self.keys.get(rank) != Some(&v),
            "virtual point {v} already present"
        );
        let appended_rank = self.keys.len() as f64;
        self.keys.insert(rank, v);
        self.is_virtual.insert(rank, true);
        self.resume_sums(rank, self.stats.sum_yy + appended_rank * appended_rank);
    }

    /// The segment as a [`SmoothedLayout`].
    pub fn layout(&self) -> SmoothedLayout {
        let entries = self
            .keys
            .iter()
            .zip(&self.is_virtual)
            .map(|(&key, &is_virtual)| {
                if is_virtual {
                    LayoutEntry::Virtual(key)
                } else {
                    LayoutEntry::Real(key)
                }
            })
            .collect();
        SmoothedLayout::new(entries, self.model())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{test_segments, RefState};
    use csv_common::rng::SplitMix64;

    /// Naive loss recomputation, to validate the O(1) path.
    fn naive_candidate_loss(state: &SegmentState, v: Key) -> f64 {
        let mut keys = state.keys().to_vec();
        keys.insert(state.rank_of(v), v);
        LinearModel::fit_cdf(&keys).sse_cdf(&keys)
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6 * (1.0 + a.abs().max(b.abs()))
    }

    fn example_keys() -> Vec<Key> {
        vec![2, 3, 5, 9, 14, 20, 26, 27, 29, 30]
    }

    #[test]
    fn initial_loss_matches_direct_fit() {
        let keys = example_keys();
        let state = SegmentState::from_keys(&keys);
        let model = LinearModel::fit_cdf(&keys);
        assert!(close(state.loss(), model.sse_cdf(&keys)));
        assert!(close(state.loss(), state.loss_real_only()));
        assert_eq!(state.len(), keys.len());
        assert_eq!(state.min_key(), Some(2));
        assert_eq!(state.max_key(), Some(30));
        assert_eq!(state.num_virtual(), 0);
        assert!(!state.is_empty());
    }

    #[test]
    fn candidate_loss_matches_naive_recomputation() {
        let keys = example_keys();
        let state = SegmentState::from_keys(&keys);
        for v in 1..=31u64 {
            if state.contains(v) {
                continue;
            }
            let fast = state.candidate_loss(v);
            let naive = naive_candidate_loss(&state, v);
            assert!(close(fast, naive), "v={v}: fast {fast} naive {naive}");
        }
    }

    #[test]
    fn candidate_loss_matches_naive_after_insertions() {
        let keys = example_keys();
        let mut state = SegmentState::from_keys(&keys);
        state.insert_virtual(23);
        state.insert_virtual(11);
        assert_eq!(state.num_virtual(), 2);
        for v in [4u64, 7, 12, 17, 22, 25, 28] {
            if state.contains(v) {
                continue;
            }
            let fast = state.candidate_loss(v);
            let naive = naive_candidate_loss(&state, v);
            assert!(close(fast, naive), "v={v}: fast {fast} naive {naive}");
        }
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let keys = example_keys();
        let state = SegmentState::from_keys(&keys);
        for v in [11u64, 16, 22, 24] {
            let rank = state.rank_of(v);
            let coeffs = state.gap_model(rank);
            let h = 1e-4;
            let numeric = (coeffs.loss(v as f64 + h) - coeffs.loss(v as f64 - h)) / (2.0 * h);
            let analytic = state.candidate_loss_derivative(v);
            assert!(
                (numeric - analytic).abs() < 1e-3 * (1.0 + analytic.abs()),
                "v={v}: numeric {numeric} analytic {analytic}"
            );
        }
    }

    #[test]
    fn interior_minimum_is_a_stationary_point() {
        let keys = example_keys();
        let state = SegmentState::from_keys(&keys);
        // Gap between 20 and 26 (candidates 21..=25).
        let rank = state.rank_of(21);
        let coeffs = state.gap_model(rank);
        if let Some(v_star) = coeffs.interior_minimum() {
            let d = coeffs.loss_derivative(v_star);
            assert!(d.abs() < 1e-6, "derivative at interior minimum = {d}");
        } else {
            panic!("expected an interior stationary point");
        }
    }

    #[test]
    fn inserting_best_candidate_reduces_loss() {
        let keys = example_keys();
        let mut state = SegmentState::from_keys(&keys);
        let before = state.loss();
        // Find the best integer candidate by brute force.
        let (mut best_v, mut best_loss) = (0u64, f64::INFINITY);
        for v in 3..30u64 {
            if state.contains(v) {
                continue;
            }
            let l = state.candidate_loss(v);
            if l < best_loss {
                best_loss = l;
                best_v = v;
            }
        }
        state.insert_virtual(best_v);
        assert!(close(state.loss(), best_loss));
        assert!(state.loss() < before);
    }

    #[test]
    fn huge_key_offsets_stay_numerically_stable() {
        // Snowflake-ID-like segment: large offset, small spread, one outlier.
        let offset: Key = 665_600_000_000_000;
        let mut keys: Vec<Key> = (0..64u64).map(|i| offset + i * 1000).collect();
        keys.push(offset + 500_000);
        let state = SegmentState::from_keys(&keys);
        for v in [
            offset + 1500,
            offset + 70_000,
            offset + 200_000,
            offset + 400_000,
        ] {
            if state.contains(v) {
                continue;
            }
            let fast = state.candidate_loss(v);
            let naive = naive_candidate_loss(&state, v);
            assert!(
                (fast - naive).abs() < 1e-3 * (1.0 + naive),
                "v={v}: fast {fast} naive {naive}"
            );
        }
        // The initial loss must match the centred direct fit.
        let model = LinearModel::fit_cdf(&keys);
        assert!(close(state.loss(), model.sse_cdf(&keys)));
    }

    #[test]
    fn rank_and_contains() {
        let state = SegmentState::from_keys(&[10, 20, 30]);
        assert_eq!(state.rank_of(5), 0);
        assert_eq!(state.rank_of(10), 0);
        assert_eq!(state.rank_of(11), 1);
        assert_eq!(state.rank_of(35), 3);
        assert!(state.contains(20));
        assert!(!state.contains(21));
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn duplicate_virtual_point_panics() {
        let mut state = SegmentState::from_keys(&[10, 20, 30]);
        state.insert_virtual(20);
    }

    #[test]
    fn layout_preserves_real_and_virtual_keys() {
        let keys = example_keys();
        let mut state = SegmentState::from_keys(&keys);
        state.insert_virtual(23);
        state.insert_virtual(11);
        let loss_all = state.loss();
        let layout = state.layout();
        assert_eq!(layout.num_real(), keys.len());
        assert_eq!(layout.num_virtual(), 2);
        assert_eq!(layout.real_keys(), keys);
        assert_eq!(layout.virtual_keys(), vec![11, 23]);
        assert!(close(layout.loss_all(), loss_all));
    }

    /// Bit patterns of everything `insert_virtual` maintains.
    fn fingerprint(state: &SegmentState) -> Vec<u64> {
        let s = &state.stats;
        let e = &state.epoch;
        let scalars = [s.n, s.sum_x, s.sum_y, s.sum_xx, s.sum_yy, s.sum_xy]
            .into_iter()
            .chain([e.m, e.a0, e.a1, e.a2, e.two_a2, e.sum_xy, e.sum_yy])
            .chain([e.total_key_sum, e.sxsy_n1, e.sy_n1, e.sysy_n1, e.origin]);
        let arrays = [&state.sum_x, &state.sum_xx, &state.sum_xy];
        scalars
            .chain(arrays.into_iter().flatten().copied())
            .map(f64::to_bits)
            .collect()
    }

    /// Differential test (c): after every insertion the suffix-only refresh
    /// leaves exactly what a rebuild from rank 0 computes, and what the
    /// reference kernel's full refresh computed.
    #[test]
    fn suffix_refresh_equals_rebuild_after_every_insertion() {
        let mut rng = SplitMix64::new(0xC5);
        for keys in test_segments(&mut rng, 48) {
            let mut state = SegmentState::from_keys(&keys);
            let mut reference = RefState::from_keys(&keys);
            for _ in 0..24 {
                let Some(v) = crate::reference::random_free_value(&mut rng, state.keys()) else {
                    break;
                };
                state.insert_virtual(v);
                reference.insert_virtual(v);
                let mut rebuilt = SegmentState::from_keys(state.keys());
                // `from_keys` would re-centre on a smaller first key; gaps
                // never reach below it, so neither do the insertions.
                assert_eq!(rebuilt.origin, state.origin);
                rebuilt.is_virtual.clone_from(&state.is_virtual);
                assert_eq!(fingerprint(&state), fingerprint(&rebuilt), "after {v}");
                assert_eq!(state.stats, reference.stats());
                assert_eq!(
                    state.loss().to_bits(),
                    reference.loss().to_bits(),
                    "after {v}"
                );
            }
            assert_eq!(state.layout(), reference.into_layout());
        }
    }

    #[test]
    fn reset_reuses_the_state_for_another_segment() {
        let mut state = SegmentState::from_keys(&example_keys());
        state.insert_virtual(23);
        state.reset(&[100, 200, 400]);
        let fresh = SegmentState::from_keys(&[100, 200, 400]);
        assert_eq!(fingerprint(&state), fingerprint(&fresh));
        assert_eq!(state.layout(), fresh.layout());
        assert_eq!(state.num_virtual(), 0);
        state.reset(&[]);
        assert!(state.is_empty());
        assert_eq!(state.layout().num_slots(), 0);
    }
}
