//! Data poisoning of learned-index CDFs (§2.3 of the paper).
//!
//! The CDF-smoothing idea is rooted in *poisoning attacks* on learned indexes
//! (Kornaropoulos et al., SIGMOD 2022): an adversary who can insert keys can
//! pick values that *maximise* the indexing function's loss, degrading query
//! performance. CDF smoothing is the benign dual — it inserts points that
//! *minimise* the loss.
//!
//! This module implements the greedy poisoning attack over a single key
//! segment using the same incremental machinery as Algorithm 1
//! ([`crate::segment::SegmentState`]): per gap the refitted
//! loss is a convex function of the inserted value, so the loss-*maximising*
//! candidate of a gap is always one of its two endpoints, and the greedy
//! attack repeatedly inserts the globally worst endpoint.
//!
//! Having both directions in one crate enables two things the paper only
//! alludes to:
//!
//! 1. quantifying how vulnerable a key segment is to poisoning (the
//!    [`PoisoningResult::degradation_factor`]), and
//! 2. measuring how well CDF smoothing *repairs* a poisoned segment
//!    ([`smoothing_counteracts_poisoning`]), i.e. the defensive reading of
//!    the technique.

use crate::candidates::scan_lanes;
use crate::segment::{GapLane, SegmentState};
use crate::single::{smooth_segment, SmoothingConfig};
use csv_common::{Key, LinearModel};

/// Configuration of a greedy poisoning attack on one key segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoisoningConfig {
    /// Fraction of the segment size the attacker may insert (the poisoning
    /// budget is `⌊alpha · n⌋`, mirroring the smoothing threshold).
    pub alpha: f64,
    /// Optional hard cap on the number of poison points regardless of `alpha`.
    pub max_budget: Option<usize>,
}

impl Default for PoisoningConfig {
    fn default() -> Self {
        Self {
            alpha: 0.1,
            max_budget: None,
        }
    }
}

impl PoisoningConfig {
    /// Creates a configuration with the given budget fraction.
    pub fn with_alpha(alpha: f64) -> Self {
        Self {
            alpha,
            ..Self::default()
        }
    }

    /// The poisoning budget for a segment of `n` keys.
    pub fn budget(&self, n: usize) -> usize {
        let b = (self.alpha * n as f64).floor() as usize;
        match self.max_budget {
            Some(cap) => b.min(cap),
            None => b,
        }
    }
}

/// The outcome of poisoning one segment.
#[derive(Debug, Clone, PartialEq)]
pub struct PoisoningResult {
    /// Loss of the original segment under its own OLS fit.
    pub loss_before: f64,
    /// Loss of the refitted model over the original keys only, after the
    /// poison points are inserted (what legitimate queries experience).
    pub loss_after_real: f64,
    /// Loss of the refitted model over original + poison points.
    pub loss_after_all: f64,
    /// Model fitted to the original segment.
    pub model_before: LinearModel,
    /// Model refitted after the attack.
    pub model_after: LinearModel,
    /// The poison keys, in insertion order.
    pub poison_points: Vec<Key>,
    /// The available budget.
    pub budget: usize,
}

impl PoisoningResult {
    /// Multiplicative loss degradation experienced by the original keys:
    /// `loss_after_real / loss_before` (≥ 1 in practice, 1 when the attack
    /// found nothing to exploit). Returns 1 for perfectly linear segments
    /// whose original loss is 0 but which also cannot be degraded, and +∞
    /// when a zero-loss segment *was* degraded.
    pub fn degradation_factor(&self) -> f64 {
        if self.loss_before <= f64::EPSILON {
            if self.loss_after_real <= f64::EPSILON {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.loss_after_real / self.loss_before
        }
    }
}

/// Runs the greedy poisoning attack on a strictly increasing key slice.
///
/// Every iteration evaluates, for every gap between adjacent stored keys, the
/// refitted loss at the gap's two endpoints (the per-gap loss is convex in
/// the inserted value, so its maximum over the gap is attained at an
/// endpoint) and inserts the candidate with the globally largest loss. The
/// attack stops early when no candidate increases the loss.
pub fn poison_segment(keys: &[Key], config: &PoisoningConfig) -> PoisoningResult {
    let model_before = LinearModel::fit_cdf(keys);
    let loss_before = model_before.sse_cdf(keys);
    let budget = config.budget(keys.len());
    let mut state = SegmentState::from_keys(keys);
    let mut lanes = Vec::new();
    let mut poison_points = Vec::new();

    if keys.len() >= 2 {
        while poison_points.len() < budget {
            let Some((value, loss)) = worst_candidate(&state, &mut lanes) else {
                break;
            };
            if loss <= state.loss() {
                break;
            }
            state.insert_virtual(value);
            poison_points.push(value);
        }
    }

    let loss_after_real = state.loss_real_only();
    let loss_after_all = state.loss();
    let model_after = state.model();
    PoisoningResult {
        loss_before,
        loss_after_real,
        loss_after_all,
        model_before,
        model_after,
        poison_points,
        budget,
    }
}

/// The candidate value with the largest refitted loss across all gaps, if any
/// gap exists: pass 1 of the smoothing kernel's gap scan already evaluates
/// both endpoints of every gap.
fn worst_candidate(state: &SegmentState, lanes: &mut Vec<GapLane>) -> Option<(Key, f64)> {
    let mut worst: Option<(Key, f64)> = None;
    for (gap, lane) in scan_lanes(state, lanes) {
        for (v, loss) in [(gap.lo, lane.loss_lo), (gap.hi, lane.loss_hi)] {
            match worst {
                Some((_, w)) if w >= loss => {}
                _ => worst = Some((v, loss)),
            }
        }
    }
    worst
}

/// The defensive experiment: poison a segment with budget `poison_alpha`,
/// then smooth the poisoned key set (original keys ∪ poison keys, which is
/// what the index actually stores) with budget `smooth_alpha`. Returns
/// `(loss_poisoned, loss_repaired)` measured over the stored keys, so the
/// caller can verify that smoothing claws back most of the damage.
pub fn smoothing_counteracts_poisoning(
    keys: &[Key],
    poison_alpha: f64,
    smooth_alpha: f64,
) -> (f64, f64) {
    let attack = poison_segment(keys, &PoisoningConfig::with_alpha(poison_alpha));
    // The index cannot distinguish poison keys from legitimate ones: the
    // stored key set is the union.
    let mut stored: Vec<Key> = keys.to_vec();
    stored.extend(attack.poison_points.iter().copied());
    stored.sort_unstable();
    stored.dedup();
    let poisoned_loss = LinearModel::fit_cdf(&stored).sse_cdf(&stored);
    let repaired = smooth_segment(&stored, &SmoothingConfig::with_alpha(smooth_alpha));
    (poisoned_loss, repaired.loss_after_all)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_keys() -> Vec<Key> {
        vec![2, 3, 5, 9, 14, 20, 26, 27, 29, 30]
    }

    #[test]
    fn budget_computation() {
        let cfg = PoisoningConfig::with_alpha(0.5);
        assert_eq!(cfg.budget(10), 5);
        assert_eq!(cfg.budget(1), 0);
        let capped = PoisoningConfig {
            max_budget: Some(2),
            ..cfg
        };
        assert_eq!(capped.budget(10), 2);
    }

    #[test]
    fn poisoning_increases_loss_for_real_keys() {
        let keys = example_keys();
        let result = poison_segment(&keys, &PoisoningConfig::with_alpha(0.5));
        assert!(!result.poison_points.is_empty());
        assert!(result.poison_points.len() <= result.budget);
        assert!(
            result.loss_after_real > result.loss_before,
            "poisoning must degrade the fit for the original keys: {} -> {}",
            result.loss_before,
            result.loss_after_real
        );
        assert!(result.degradation_factor() > 1.0);
    }

    #[test]
    fn poison_points_avoid_existing_keys_and_stay_in_range() {
        let keys = example_keys();
        let result = poison_segment(&keys, &PoisoningConfig::with_alpha(0.8));
        let min = *keys.first().unwrap();
        let max = *keys.last().unwrap();
        for &p in &result.poison_points {
            assert!(
                p > min && p < max,
                "poison point {p} escapes ({min}, {max})"
            );
            assert!(!keys.contains(&p), "poison point {p} duplicates a real key");
        }
        // No duplicates among the poison points themselves.
        let mut sorted = result.poison_points.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), result.poison_points.len());
    }

    #[test]
    fn larger_budget_degrades_at_least_as_much() {
        let keys = example_keys();
        let small = poison_segment(&keys, &PoisoningConfig::with_alpha(0.1));
        let large = poison_segment(&keys, &PoisoningConfig::with_alpha(0.8));
        assert!(large.loss_after_real >= small.loss_after_real - 1e-9);
        assert!(large.poison_points.len() >= small.poison_points.len());
    }

    #[test]
    fn greedy_choice_is_the_worst_single_candidate() {
        // The first inserted poison point must match the brute-force worst
        // single insertion.
        let keys = example_keys();
        let state = SegmentState::from_keys(&keys);
        let mut brute_worst = (0u64, f64::MIN);
        for v in 3..30u64 {
            if state.contains(v) {
                continue;
            }
            let l = state.candidate_loss(v);
            if l > brute_worst.1 {
                brute_worst = (v, l);
            }
        }
        let result = poison_segment(
            &keys,
            &PoisoningConfig {
                alpha: 0.1,
                max_budget: Some(1),
            },
        );
        assert_eq!(result.poison_points.len(), 1);
        assert!(
            (result.loss_after_all - brute_worst.1).abs() < 1e-6 * (1.0 + brute_worst.1),
            "greedy {} vs brute force {} ({})",
            result.loss_after_all,
            brute_worst.1,
            brute_worst.0
        );
    }

    #[test]
    fn dense_segments_cannot_be_poisoned() {
        // No gaps between adjacent keys: the attacker has no place to insert.
        let keys: Vec<Key> = (100..200).collect();
        let result = poison_segment(&keys, &PoisoningConfig::with_alpha(0.5));
        assert!(result.poison_points.is_empty());
        assert!((result.degradation_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        let cfg = PoisoningConfig::with_alpha(0.5);
        let r = poison_segment(&[], &cfg);
        assert!(r.poison_points.is_empty());
        let r = poison_segment(&[7], &cfg);
        assert!(r.poison_points.is_empty());
        assert_eq!(r.degradation_factor(), 1.0);
    }

    #[test]
    fn smoothing_repairs_a_poisoned_segment() {
        let keys = example_keys();
        let (poisoned, repaired) = smoothing_counteracts_poisoning(&keys, 0.3, 0.5);
        assert!(poisoned > 0.0);
        assert!(
            repaired < poisoned,
            "smoothing must reduce the poisoned loss: {poisoned} -> {repaired}"
        );
        // The repair recovers a substantial share of the damage.
        assert!(
            repaired <= poisoned * 0.8,
            "only recovered {poisoned} -> {repaired}"
        );
    }

    #[test]
    fn poisoning_then_smoothing_on_a_wide_segment() {
        // A larger, irregular segment (mixture of dense runs and jumps).
        let mut keys = Vec::new();
        let mut base = 1_000u64;
        for block in 0..20u64 {
            for i in 0..30u64 {
                keys.push(base + i * (1 + block % 3));
            }
            base += 30 * (1 + block % 3) + 5_000 + block * 137;
        }
        keys.sort_unstable();
        keys.dedup();
        let attack = poison_segment(&keys, &PoisoningConfig::with_alpha(0.05));
        assert!(attack.loss_after_real >= attack.loss_before);
        let (poisoned, repaired) = smoothing_counteracts_poisoning(&keys, 0.05, 0.2);
        assert!(repaired <= poisoned);
    }
}
