//! Exact order statistics over raw samples.
//!
//! Gated metrics are taken from sorted raw `u64`/`f64` samples, never from
//! `csv_common::latency::LatencyHistogram`: its 1/16-octave buckets step
//! ~6 %, most of a 0.10 regression bound.

/// The sample at quantile `q` of an ascending-sorted slice (nearest rank,
/// rounding the rank down, so `q = 0.5` of an even count is the lower
/// middle sample — an actual observation, never an interpolation).
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let rank = ((sorted.len() - 1) as f64 * q).floor() as usize;
    sorted[rank]
}

/// Sorts `samples` in place and returns its exact median.
pub fn median_u64(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    quantile_sorted(samples, 0.5)
}

/// Sorts `samples` in place and returns its exact median.
pub fn median_f64(samples: &mut [f64]) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    quantile_sorted(samples, 0.5)
}

/// The highest quantile not above `wanted` that still leaves at least ten
/// samples beyond it (choosing-metrics §1). With fewer than eleven samples
/// no tail is supported and the median is all that can be said.
pub fn supported_tail_quantile(count: usize, wanted: f64) -> f64 {
    if count <= 10 {
        return 0.5;
    }
    let highest = 1.0 - 10.0 / count as f64;
    wanted.min(highest).max(0.5)
}

/// Sorts `samples` in place and returns the tail sample at
/// [`supported_tail_quantile`].
pub fn tail_u64(samples: &mut [u64], wanted: f64) -> u64 {
    samples.sort_unstable();
    quantile_sorted(samples, supported_tail_quantile(samples.len(), wanted))
}

/// Reduces the per-block times of one round to a per-operation time: the
/// median block divided by the operations in a block. A block that a
/// neighbour on the shared core slowed down moves the median of many blocks
/// far less than it moves their mean.
pub fn block_median_per_op(block_ns: &mut [u64], ops_per_block: usize) -> f64 {
    assert!(ops_per_block > 0, "empty blocks");
    median_u64(block_ns) as f64 / ops_per_block as f64
}

/// First quartile, median and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// acceptance procedure uses for spreads.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_observed_samples() {
        let sorted = [10u64, 20, 30, 40];
        assert_eq!(quantile_sorted(&sorted, 0.0), 10);
        assert_eq!(quantile_sorted(&sorted, 0.5), 20);
        assert_eq!(quantile_sorted(&sorted, 0.99), 30);
        assert_eq!(quantile_sorted(&sorted, 1.0), 40);
        let mut odd = [5u64, 1, 9];
        assert_eq!(median_u64(&mut odd), 5);
        let mut floats = [2.5, 0.5, 1.5];
        assert_eq!(median_f64(&mut floats), 1.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples: p99 would leave one sample beyond, p90 leaves ten.
        assert!((supported_tail_quantile(100, 0.99) - 0.90).abs() < 1e-12);
        // 1000 samples support p99 exactly; 10 000 support it with room.
        assert!((supported_tail_quantile(1_000, 0.99) - 0.99).abs() < 1e-12);
        assert!((supported_tail_quantile(10_000, 0.99) - 0.99).abs() < 1e-12);
        // Too few samples for any tail.
        assert_eq!(supported_tail_quantile(10, 0.99), 0.5);
        assert_eq!(supported_tail_quantile(0, 0.99), 0.5);

        let mut samples: Vec<u64> = (1..=100).collect();
        let tail = tail_u64(&mut samples, 0.99);
        assert_eq!(samples.iter().filter(|&&s| s > tail).count(), 10);
    }

    #[test]
    fn block_median_ignores_a_disturbed_block() {
        let mut blocks = vec![80_000u64; 9];
        blocks.push(900_000); // one block hit by a neighbour
        assert_eq!(block_median_per_op(&mut blocks, 1_000), 80.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&values);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q2, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q2, q3), (1.0, 2.0, 3.0));
    }
}
