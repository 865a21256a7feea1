//! Optimal ε-bounded piecewise linear approximation (PLA).
//!
//! Given a sorted key sequence and an error bound ε, the builder produces the
//! minimum number of linear segments such that every key's predicted position
//! is within ε of its true rank. This is the classic streaming construction
//! used by the PGM index (maintaining the cone of feasible slopes) and reused
//! by SALI's hot sub-tree flattening.

use crate::key::Key;
use crate::linear::{round_to_slot, LinearModel};
use serde::{Deserialize, Serialize};

/// A linear segment covering keys in `[first_key, last_key]` whose positions
/// start at `first_pos`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Smallest key covered by the segment.
    pub first_key: Key,
    /// Largest key covered by the segment.
    pub last_key: Key,
    /// Rank (within the full key set) of `first_key`.
    pub first_pos: usize,
    /// Number of keys covered.
    pub len: usize,
    /// The segment's indexing function, mapping a key to an absolute rank.
    pub model: LinearModel,
}

impl Segment {
    /// Predicts the absolute rank of `key`, clamped to the segment's range
    /// `[first_pos, first_pos + len − 1]`.
    ///
    /// Both ends of the range are integers and rounding is monotone, so
    /// clamping before or after rounding gives the same rank: below the
    /// range the answer is `first_pos`, otherwise it is [`round_to_slot`]
    /// with the range's end as the bound (a NaN prediction falls through to
    /// the helper's 0, as rounding a clamped NaN did).
    pub fn predict(&self, key: Key) -> usize {
        let p = self.model.predict_f64(key);
        if p < self.first_pos as f64 {
            return self.first_pos;
        }
        round_to_slot(p, self.first_pos + self.len.max(1))
    }
}

/// Streaming builder for an ε-bounded segmentation.
///
/// The construction keeps the feasible slope cone `[slope_lo, slope_hi]` for
/// the current segment; a key that empties the cone closes the segment and
/// starts a new one. The resulting segmentation is within a factor of two of
/// the optimum and in practice matches the PGM construction's behaviour.
#[derive(Debug, Clone)]
pub struct SegmentationBuilder {
    epsilon: f64,
}

impl SegmentationBuilder {
    /// Creates a builder with error bound `epsilon ≥ 1`.
    pub fn new(epsilon: usize) -> Self {
        Self {
            epsilon: epsilon.max(1) as f64,
        }
    }

    /// The configured error bound.
    pub fn epsilon(&self) -> usize {
        self.epsilon as usize
    }

    /// Builds the segmentation of a strictly increasing key slice.
    pub fn build(&self, keys: &[Key]) -> Vec<Segment> {
        let n = keys.len();
        if n == 0 {
            return Vec::new();
        }
        let mut segments = Vec::new();
        let mut start = 0usize;
        let mut slope_lo = f64::NEG_INFINITY;
        let mut slope_hi = f64::INFINITY;
        let mut i = 1usize;
        while i < n {
            let dx = (keys[i] - keys[start]) as f64;
            let dy = (i - start) as f64;
            // Feasible slopes must keep |model(keys[i]) - i| <= epsilon when
            // anchored at (keys[start], start).
            let lo = (dy - self.epsilon) / dx;
            let hi = (dy + self.epsilon) / dx;
            let new_lo = slope_lo.max(lo);
            let new_hi = slope_hi.min(hi);
            if new_lo > new_hi {
                segments.push(self.close_segment(keys, start, i));
                start = i;
                slope_lo = f64::NEG_INFINITY;
                slope_hi = f64::INFINITY;
            } else {
                slope_lo = new_lo;
                slope_hi = new_hi;
            }
            i += 1;
        }
        segments.push(self.close_segment(keys, start, n));
        segments
    }

    fn close_segment(&self, keys: &[Key], start: usize, end: usize) -> Segment {
        let len = end - start;
        let seg_keys = &keys[start..end];
        let model = if len == 1 {
            LinearModel::new(0.0, start as f64)
        } else {
            // Fit on absolute positions so predictions are absolute ranks.
            let positions: Vec<f64> = (start..end).map(|p| p as f64).collect();
            LinearModel::fit_points(seg_keys, &positions)
        };
        Segment {
            first_key: seg_keys[0],
            last_key: seg_keys[len - 1],
            first_pos: start,
            len,
            model,
        }
    }
}

/// Verifies that a segmentation respects the error bound `epsilon` for every
/// key of the original slice; returns the maximum observed error.
pub fn max_segmentation_error(keys: &[Key], segments: &[Segment]) -> f64 {
    let mut max_err: f64 = 0.0;
    for seg in segments {
        for offset in 0..seg.len {
            let pos = seg.first_pos + offset;
            let key = keys[pos];
            let err = (seg.model.predict_f64(key) - pos as f64).abs();
            max_err = max_err.max(err);
        }
    }
    max_err
}

/// Locates the segment responsible for `key` via binary search on
/// `first_key`; returns the last segment whose `first_key <= key` (or the
/// first segment for keys below the minimum).
pub fn locate_segment(segments: &[Segment], key: Key) -> &Segment {
    debug_assert!(!segments.is_empty());
    let idx = segments.partition_point(|s| s.first_key <= key);
    if idx == 0 {
        &segments[0]
    } else {
        &segments[idx - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_data_needs_one_segment() {
        let keys: Vec<Key> = (0..1000).map(|i| 5 + i * 7).collect();
        let segs = SegmentationBuilder::new(4).build(&keys);
        assert_eq!(segs.len(), 1);
        assert!(max_segmentation_error(&keys, &segs) <= 4.0 + 1e-9);
        assert_eq!(segs[0].len, 1000);
    }

    #[test]
    fn predict_equals_the_rounded_clamped_prediction() {
        // The libm form `Segment::predict` replaced.
        let reference = |seg: &Segment, key: Key| {
            let lo = seg.first_pos as f64;
            let hi = (seg.first_pos + seg.len.saturating_sub(1)) as f64;
            seg.model.predict_f64(key).clamp(lo, hi).round() as usize
        };
        let mut rng = crate::rng::SplitMix64::new(3);
        let odd_models = [
            LinearModel::new(f64::NAN, 0.0),
            LinearModel::new(f64::INFINITY, 0.0),
            LinearModel::new(0.0, f64::NEG_INFINITY),
            LinearModel::new(0.0, 0.49999999999999994),
            LinearModel::new(0.5, 0.0), // every odd key predicts a half
        ];
        for case in 0..2_000usize {
            let (first_pos, len) = (rng.next_below(1000) as usize, rng.next_below(50) as usize);
            let model = match odd_models.get(case % 8) {
                Some(&model) => model,
                None => LinearModel::new(rng.next_f64() * 2.0, first_pos as f64 - 20.0),
            };
            let seg = Segment {
                first_key: 0,
                last_key: 0,
                first_pos,
                len,
                model,
            };
            for key in (0..40).chain([rng.next_u64()]) {
                assert_eq!(seg.predict(key), reference(&seg, key), "{seg:?} at {key}");
            }
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let segs = SegmentationBuilder::new(8).build(&[]);
        assert!(segs.is_empty());
        let segs = SegmentationBuilder::new(8).build(&[42]);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].predict(42), 0);
    }

    #[test]
    fn piecewise_data_splits_and_respects_epsilon() {
        // Two very different densities force at least two segments for a
        // small epsilon.
        let mut keys: Vec<Key> = (0..500).collect();
        keys.extend((0..500).map(|i| 1_000_000 + i * 1000));
        for &eps in &[1usize, 4, 16, 64] {
            let segs = SegmentationBuilder::new(eps).build(&keys);
            assert!(
                max_segmentation_error(&keys, &segs) <= eps as f64 + 1e-9,
                "eps {eps} violated"
            );
            // Coverage must be exact and contiguous.
            let total: usize = segs.iter().map(|s| s.len).sum();
            assert_eq!(total, keys.len());
            let mut pos = 0;
            for s in &segs {
                assert_eq!(s.first_pos, pos);
                pos += s.len;
            }
        }
    }

    #[test]
    fn smaller_epsilon_never_needs_fewer_segments() {
        let keys: Vec<Key> = (0..2000u64)
            .map(|i| i * i % 100_000 + i * 37)
            .map(|k| k as Key)
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let tight = SegmentationBuilder::new(2).build(&sorted).len();
        let loose = SegmentationBuilder::new(128).build(&sorted).len();
        assert!(tight >= loose);
    }

    #[test]
    fn locate_segment_finds_covering_segment() {
        let mut keys: Vec<Key> = (0..100).collect();
        keys.extend((0..100).map(|i| 10_000 + i * 50));
        let segs = SegmentationBuilder::new(2).build(&keys);
        assert!(segs.len() >= 2);
        for (pos, &k) in keys.iter().enumerate() {
            let seg = locate_segment(&segs, k);
            assert!(seg.first_key <= k && k <= seg.last_key);
            let predicted = seg.predict(k);
            assert!((predicted as i64 - pos as i64).abs() <= 2 + 1);
        }
        // Keys outside the covered range clamp to the boundary segments.
        let below = locate_segment(&segs, 0);
        assert_eq!(below.first_pos, 0);
    }
}
