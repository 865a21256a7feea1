//! Candidate virtual-point filtering (§4.2 of the paper).
//!
//! Candidate virtual points are integer values strictly between adjacent
//! stored keys, bounded to `(min K, max K)`: points before the minimum shift
//! every rank equally and points after the maximum shift nothing, so neither
//! can improve the fit. Every candidate inside one gap shares the same
//! insertion rank, and the refitted loss is convex in the candidate value on
//! the gap, so per gap it suffices to inspect the loss derivative at the two
//! endpoints (same sign → an endpoint is optimal; opposite signs → the
//! closed-form interior stationary point is optimal).
//!
//! The scan over all gaps runs as two passes over the segment's arrays.
//! Pass 1 (`SegmentState::scan_endpoints`) walks every adjacent key pair —
//! gap or not — without a data-dependent branch and leaves both endpoint
//! losses and both derivative numerators behind. Pass 2 (`resolve_gap`)
//! visits the pairs that are real gaps and settles each from its lane:
//! width ≤ 2, same-sign endpoints, closed-form interior point, bisection.
//! A single gap (the lazy driver's revalidation) takes the same two steps
//! on one lane, so there is one implementation of the per-gap decision.

use crate::segment::{GapLane, GapModel, SegmentState};
use csv_common::Key;

/// A gap between two adjacent stored keys that can host virtual points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapBounds {
    /// Smallest candidate value in the gap (`lower stored key + 1`).
    pub lo: Key,
    /// Largest candidate value in the gap (`upper stored key − 1`).
    pub hi: Key,
    /// Insertion rank shared by every candidate in the gap.
    pub rank: usize,
}

impl GapBounds {
    /// Number of integer candidates in the gap.
    pub fn width(&self) -> u64 {
        self.hi - self.lo + 1
    }
}

/// A concrete candidate virtual point together with the loss it would yield.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The candidate key value.
    pub value: Key,
    /// Insertion rank of the candidate.
    pub rank: usize,
    /// Refitted loss `L(K ∪ V ∪ {value})`.
    pub loss: f64,
}

/// Pass 2 for one non-empty gap: the loss-minimising candidate, following
/// the derivative-sign filtering of §4.2, from the gap's pass-1 lane.
fn resolve_gap(state: &SegmentState, gap: &GapBounds, lane: &GapLane) -> Candidate {
    // The better endpoint, the lower one on a tie: what a gap of one or two
    // candidates evaluates to (Algorithm 1, lines 7–8) and what a gap with
    // no interior minimum does (line 17).
    let (value, loss) = if lane.loss_lo <= lane.loss_hi {
        (gap.lo, lane.loss_lo)
    } else {
        (gap.hi, lane.loss_hi)
    };
    let endpoint = Candidate {
        value,
        rank: gap.rank,
        loss,
    };
    // One test — no branch per width, which clustered keys make a coin toss.
    let trusted = (lane.num_lo != 0.0) & (lane.num_hi != 0.0);
    let same_sign = (lane.num_lo > 0.0) == (lane.num_hi > 0.0);
    if (gap.width() <= 2) | (trusted & same_sign) {
        return endpoint;
    }
    if !trusted {
        // A numerator whose sign cannot be trusted: divide through.
        let model = state.gap_model(gap.rank);
        let d_lo = model.loss_derivative(gap.lo as f64);
        let d_hi = model.loss_derivative(gap.hi as f64);
        if d_lo.signum() == d_hi.signum() || d_lo == 0.0 || d_hi == 0.0 {
            return endpoint;
        }
    }
    interior_candidate(state, gap)
}

/// Opposite derivative signs at the ends of `gap`: the convex loss attains
/// its minimum strictly inside; locate the stationary point in closed form
/// and snap it to the neighbouring integers (Algorithm 1, lines 20–22).
fn interior_candidate(state: &SegmentState, gap: &GapBounds) -> Candidate {
    let model = state.gap_model(gap.rank);
    let v_star = model
        .interior_minimum()
        .filter(|v| v.is_finite() && *v > gap.lo as f64 && *v < gap.hi as f64)
        .unwrap_or_else(|| bisect_derivative(&model, gap.lo as f64, gap.hi as f64));
    let eval = |value: Key| {
        let value = value.clamp(gap.lo, gap.hi);
        Candidate {
            value,
            rank: gap.rank,
            loss: model.loss(value as f64),
        }
    };
    let (below, above) = neighbouring_keys(v_star);
    let (floor, ceil) = (eval(below), eval(above));
    if floor.loss <= ceil.loss {
        floor
    } else {
        ceil
    }
}

/// `(v.floor() as Key, v.ceil() as Key)` without the two libm calls: the cast
/// truncates and saturates, which is the floor wherever the floor is a key
/// (and 0 below that, as casting the floor gives), and the ceiling is one
/// more exactly when the cast dropped a positive fraction.
#[inline]
fn neighbouring_keys(v: f64) -> (Key, Key) {
    let below = v as Key;
    (below, below.saturating_add(Key::from(v > below as f64)))
}

/// Robust fallback root finder for the loss derivative on `[lo, hi]` when the
/// closed form is numerically degenerate. The derivative changes sign on the
/// interval by construction, so bisection converges.
fn bisect_derivative(model: &GapModel, mut lo: f64, mut hi: f64) -> f64 {
    let mut d_lo = model.derivative_sign(lo);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        let d_mid = model.derivative_sign(mid);
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

/// The loss-minimising candidate within one non-empty gap whose bounds and
/// rank are current.
pub(crate) fn best_candidate_in_gap(state: &SegmentState, gap: &GapBounds) -> Candidate {
    let lane = state.gap_model(gap.rank).lane(gap.lo, gap.hi);
    resolve_gap(state, gap, &lane)
}

/// Pass 1, then every real gap — its bounds and its lane — in key order.
pub(crate) fn scan_lanes<'a>(
    state: &'a SegmentState,
    lanes: &'a mut Vec<GapLane>,
) -> impl Iterator<Item = (GapBounds, &'a GapLane)> {
    state.scan_endpoints(lanes);
    let pairs = state.keys().windows(2).zip(lanes.iter()).enumerate();
    pairs.filter_map(|(i, (pair, lane))| {
        let gap = GapBounds {
            lo: pair[0] + 1,
            hi: pair[1] - 1,
            rank: i + 1,
        };
        (pair[1] - pair[0] > 1).then_some((gap, lane))
    })
}

/// Scans every gap in key order — both passes — and hands each one's bounds
/// and best candidate to `visit`. One call per real gap: that is the unit
/// [`crate::single::SmoothingCounters::gap_refits`] counts.
pub(crate) fn scan_gaps(
    state: &SegmentState,
    lanes: &mut Vec<GapLane>,
    mut visit: impl FnMut(GapBounds, Candidate),
) {
    for (gap, lane) in scan_lanes(state, lanes) {
        visit(gap, resolve_gap(state, &gap, lane));
    }
}

/// `true` when a scan that holds `best` should move on to `candidate`. Ties
/// keep the first gap in key order — the selection rule of Algorithm 1's
/// scan, which every greedy driver in [`crate::single`] shares.
pub(crate) fn is_new_minimum(best: Option<f64>, candidate: f64) -> bool {
    !matches!(best, Some(best) if best <= candidate)
}

/// Scans every gap and returns the globally best candidate, counting each
/// evaluated gap in `refits`.
pub(crate) fn best_candidate_counted(
    state: &SegmentState,
    lanes: &mut Vec<GapLane>,
    refits: &mut usize,
) -> Option<Candidate> {
    let mut best: Option<Candidate> = None;
    scan_gaps(state, lanes, |_, c| {
        *refits += 1;
        if is_new_minimum(best.map(|b| b.loss), c.loss) {
            best = Some(c);
        }
    });
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, random_free_value, test_segments, RefState};
    use csv_common::rng::SplitMix64;

    fn example_keys() -> Vec<Key> {
        vec![2, 3, 5, 9, 14, 20, 26, 27, 29, 30]
    }

    /// Every gap with its best candidate, as the two-pass scan reports them.
    fn scan(state: &SegmentState) -> Vec<(GapBounds, Candidate)> {
        let mut out = Vec::new();
        scan_gaps(state, &mut Vec::new(), |gap, c| out.push((gap, c)));
        out
    }

    fn best_candidate(state: &SegmentState) -> Option<Candidate> {
        best_candidate_counted(state, &mut Vec::new(), &mut 0)
    }

    #[test]
    fn gap_scan_covers_interior_only() {
        let state = SegmentState::from_keys(&example_keys());
        let gaps: Vec<GapBounds> = scan(&state).into_iter().map(|(gap, _)| gap).collect();
        // Gaps: (3,5)->4, (5,9)->6..8, (9,14)->10..13, (14,20)->15..19, (20,26)->21..25,
        // (27,29)->28.
        assert_eq!(gaps.len(), 6);
        let bounds = |lo, hi, rank| GapBounds { lo, hi, rank };
        assert_eq!(gaps[0], bounds(4, 4, 2));
        assert_eq!(gaps[4], bounds(21, 25, 6));
        assert_eq!(gaps[5], bounds(28, 28, 8));
        // No gap before the minimum or after the maximum key.
        assert!(gaps.iter().all(|g| g.lo > 2 && g.hi < 30));
    }

    #[test]
    fn no_gaps_for_dense_keys() {
        let state = SegmentState::from_keys(&[5, 6, 7, 8]);
        assert!(scan(&state).is_empty());
        assert!(best_candidate(&state).is_none());
        assert!(scan(&SegmentState::from_keys(&[])).is_empty());
        assert!(scan(&SegmentState::from_keys(&[9])).is_empty());
    }

    #[test]
    fn per_gap_best_matches_brute_force() {
        let state = SegmentState::from_keys(&example_keys());
        for (gap, best) in scan(&state) {
            let mut brute_v = gap.lo;
            let mut brute_loss = f64::INFINITY;
            for v in gap.lo..=gap.hi {
                let l = state.candidate_loss(v);
                if l < brute_loss {
                    brute_loss = l;
                    brute_v = v;
                }
            }
            assert!(
                (best.loss - brute_loss).abs() < 1e-6 * (1.0 + brute_loss),
                "gap {gap:?}: filtered {} ({}), brute {brute_v} ({brute_loss})",
                best.value,
                best.loss
            );
        }
    }

    #[test]
    fn global_best_matches_brute_force() {
        let keys = example_keys();
        let state = SegmentState::from_keys(&keys);
        let best = best_candidate(&state).unwrap();
        let mut brute_loss = f64::INFINITY;
        let mut brute_v = 0;
        for v in 3..30u64 {
            if state.contains(v) {
                continue;
            }
            let l = state.candidate_loss(v);
            if l < brute_loss {
                brute_loss = l;
                brute_v = v;
            }
        }
        assert_eq!(best.value, brute_v);
        assert!((best.loss - brute_loss).abs() < 1e-9 * (1.0 + brute_loss));
        // The best candidate must actually reduce the loss.
        assert!(best.loss < state.loss());
    }

    #[test]
    fn gap_width() {
        let bounds = |lo, hi| GapBounds { lo, hi, rank: 1 };
        assert_eq!(bounds(5, 5).width(), 1);
        assert_eq!(bounds(5, 9).width(), 5);
    }

    /// Which of pass 2's exits a gap takes, judged by the reference kernel.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Exit {
        Width1,
        Width2,
        SameSign,
        Interior,
        Bisection,
    }

    fn reference_exit(state: &RefState, gap: &GapBounds) -> Exit {
        let coeffs = state.gap_coefficients(gap.rank);
        let (d_lo, d_hi) = (
            coeffs.loss_derivative(gap.lo as f64),
            coeffs.loss_derivative(gap.hi as f64),
        );
        match gap.width() {
            1 => Exit::Width1,
            2 => Exit::Width2,
            _ if d_lo.signum() == d_hi.signum() || d_lo == 0.0 || d_hi == 0.0 => Exit::SameSign,
            _ => match coeffs.interior_minimum() {
                Some(v) if v > gap.lo as f64 && v < gap.hi as f64 => Exit::Interior,
                _ => Exit::Bisection,
            },
        }
    }

    /// Asserts that the scan and the single-gap path agree with the
    /// reference kernel on every gap of the segment — same gaps, same
    /// candidate, same loss *bits* — and returns the exits taken plus
    /// whether any gap fell back on an untrusted numerator.
    fn assert_gaps_match_reference(
        state: &SegmentState,
        reference: &RefState,
    ) -> (Vec<Exit>, bool) {
        let expected = reference::enumerate_gaps(reference);
        let scanned = scan(state);
        assert_eq!(
            scanned.iter().map(|(gap, _)| *gap).collect::<Vec<_>>(),
            expected
        );
        let mut lanes = Vec::new();
        state.scan_endpoints(&mut lanes);
        let mut untrusted = false;
        let mut exits = Vec::new();
        for (gap, got) in scanned {
            let want = reference::best_candidate_in_gap(reference, &gap).unwrap();
            let single = best_candidate_in_gap(state, &gap);
            for got in [got, single] {
                assert_eq!((got.value, got.rank), (want.value, want.rank), "{gap:?}");
                assert_eq!(got.loss.to_bits(), want.loss.to_bits(), "{gap:?}");
            }
            let lane = lanes[gap.rank - 1];
            untrusted |= gap.width() > 2 && (lane.num_lo == 0.0 || lane.num_hi == 0.0);
            exits.push(reference_exit(reference, &gap));
        }
        (exits, untrusted)
    }

    #[test]
    fn neighbouring_keys_are_the_cast_floor_and_ceiling() {
        let mut rng = SplitMix64::new(9);
        let fixed = [
            0.0,
            -0.0,
            0.25,
            1.0,
            1.5,
            -0.5,
            -7.0,
            4503599627370495.5, // 2⁵² − 0.5, the largest value with a fraction
            9007199254740993.0,
            1.8446744073709552e19, // 2⁶⁴: both casts saturate
            3.0e19,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let random = (0..10_000).map(|_| {
            let whole = (rng.next_u64() >> (rng.next_u64() % 64)) as f64;
            whole + [0.0, 0.5, rng.next_f64()][rng.next_below(3) as usize]
        });
        for v in fixed.into_iter().chain(random) {
            let libm = (v.floor() as Key, v.ceil() as Key);
            assert_eq!(neighbouring_keys(v), libm, "{v:e}");
        }
    }

    /// Differential test (a): per gap, over the segment shapes of
    /// `test_segments`, fresh and after up to 32 random insertions.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn every_gap_matches_the_reference_bit_for_bit() {
        let mut rng = SplitMix64::new(0xA);
        let mut seen = Vec::new();
        for n in [2, 3, 17, 300, 2_000] {
            for keys in test_segments(&mut rng, n) {
                let mut state = SegmentState::from_keys(&keys);
                let mut reference = RefState::from_keys(&keys);
                for _ in 0..=32 {
                    seen.extend(assert_gaps_match_reference(&state, &reference).0);
                    let Some(v) = random_free_value(&mut rng, state.keys()) else {
                        break;
                    };
                    state.insert_virtual(v);
                    reference.insert_virtual(v);
                }
            }
        }
        seen.sort_unstable();
        seen.dedup();
        use Exit::*;
        assert_eq!(seen, [Width1, Width2, SameSign, Interior, Bisection]);
    }

    /// Differential test (d), per gap: with Σrank² past 2⁵³ every gap's
    /// loss still carries the reference's roundings.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn gaps_match_past_exact_rank_square_sums() {
        let keys = reference::huge_segment();
        let mut rng = SplitMix64::new(0xD1);
        let mut state = SegmentState::from_keys(&keys);
        let mut reference = RefState::from_keys(&keys);
        for _ in 0..3 {
            assert_gaps_match_reference(&state, &reference);
            let v = random_free_value(&mut rng, state.keys()).unwrap();
            state.insert_virtual(v);
            reference.insert_virtual(v);
        }
        assert_gaps_match_reference(&state, &reference);
    }

    /// The Miri-sized case: 18 keys whose gaps, over six insertions, take
    /// every exit of pass 2 including the untrusted-numerator fallback, then
    /// an insertion at rank 1 and one at the last rank.
    #[test]
    fn small_segment_takes_every_pass_two_exit() {
        let (keys, insertions) = reference::small_branchy_segment();
        let mut state = SegmentState::from_keys(&keys);
        let mut reference = RefState::from_keys(&keys);
        let (mut seen, mut untrusted) = assert_gaps_match_reference(&state, &reference);
        let ends = [keys[0] + 1, keys[keys.len() - 1] - 1];
        for v in insertions.into_iter().chain(ends) {
            state.insert_virtual(v);
            reference.insert_virtual(v);
            let (exits, fell_back) = assert_gaps_match_reference(&state, &reference);
            seen.extend(exits);
            untrusted |= fell_back;
        }
        assert_eq!(state.rank_of(ends[0]), 1);
        assert_eq!(state.rank_of(ends[1]), state.len() - 2);
        seen.sort_unstable();
        seen.dedup();
        use Exit::*;
        assert_eq!(seen, [Width1, Width2, SameSign, Interior, Bisection]);
        assert!(
            untrusted,
            "no gap fell back on the divided-through derivative"
        );
    }
}
