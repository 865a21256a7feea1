//! Exhaustive (optimal) CDF smoothing, used as the quality baseline of
//! Table 2 in the paper.
//!
//! The exact problem is NP-hard (Lemma 3.1), so this module simply enumerates
//! every subset of candidate virtual points with size up to the budget λ and
//! keeps the subset whose refitted loss is smallest. It is only feasible for
//! tiny segments (tens of candidates) and exists purely to measure how close
//! the greedy Algorithm 1 gets to the optimum.

use crate::layout::SmoothedLayout;
use crate::segment::SegmentState;
use csv_common::{Key, LinearModel};

/// The outcome of the exhaustive search.
#[derive(Debug, Clone, PartialEq)]
pub struct ExhaustiveResult {
    /// Loss of the original segment.
    pub loss_before: f64,
    /// Best loss over real + virtual points found by the enumeration.
    pub loss_after_all: f64,
    /// Loss of the best refitted model over the real keys only.
    pub loss_after_real: f64,
    /// The optimal virtual point subset (sorted ascending).
    pub virtual_points: Vec<Key>,
    /// The resulting layout.
    pub layout: SmoothedLayout,
    /// How many subsets were evaluated.
    pub subsets_evaluated: usize,
}

/// Enumerates every candidate subset of size `0..=λ` where `λ = ⌊α·n⌋`.
///
/// Returns `None` when the number of candidate values exceeds
/// `max_candidates` (the enumeration would be intractable).
pub fn exhaustive_smooth(
    keys: &[Key],
    alpha: f64,
    max_candidates: usize,
) -> Option<ExhaustiveResult> {
    if keys.len() < 2 {
        return None;
    }
    let model_before = LinearModel::fit_cdf(keys);
    let loss_before = model_before.sse_cdf(keys);
    let lambda = (alpha * keys.len() as f64).floor() as usize;

    // Candidate values: every integer strictly between min and max that is
    // not an existing key.
    let min = *keys.first().unwrap();
    let max = *keys.last().unwrap();
    let mut candidates = Vec::new();
    for v in (min + 1)..max {
        if keys.binary_search(&v).is_err() {
            candidates.push(v);
        }
    }
    if candidates.len() > max_candidates {
        return None;
    }

    // Depth-first enumeration of subsets of size <= lambda.
    struct Search<'a> {
        candidates: &'a [Key],
        keys: &'a [Key],
        chosen: Vec<Key>,
        best_loss: f64,
        best_subset: Vec<Key>,
        subsets_evaluated: usize,
    }

    impl Search<'_> {
        fn recurse(&mut self, start: usize, remaining: usize) {
            if remaining == 0 {
                return;
            }
            for i in start..self.candidates.len() {
                self.chosen.push(self.candidates[i]);
                let loss = loss_of_subset(self.keys, &self.chosen);
                self.subsets_evaluated += 1;
                if loss < self.best_loss {
                    self.best_loss = loss;
                    self.best_subset = self.chosen.clone();
                }
                self.recurse(i + 1, remaining - 1);
                self.chosen.pop();
            }
        }
    }

    let mut search = Search {
        candidates: &candidates,
        keys,
        chosen: Vec::with_capacity(lambda),
        best_loss: loss_before,
        best_subset: Vec::new(),
        subsets_evaluated: 1, // the empty subset
    };
    search.recurse(0, lambda);
    let Search {
        best_subset,
        subsets_evaluated,
        ..
    } = search;

    // Materialise the winning layout.
    let mut state = SegmentState::from_keys(keys);
    for &v in &best_subset {
        state.insert_virtual(v);
    }
    let loss_after_all = state.loss();
    let loss_after_real = state.loss_real_only();
    Some(ExhaustiveResult {
        loss_before,
        loss_after_all,
        loss_after_real,
        virtual_points: best_subset,
        layout: state.layout(),
        subsets_evaluated,
    })
}

/// Loss of the OLS refit after inserting `subset` (need not be sorted) into
/// `keys`.
fn loss_of_subset(keys: &[Key], subset: &[Key]) -> f64 {
    let mut merged: Vec<Key> = Vec::with_capacity(keys.len() + subset.len());
    merged.extend_from_slice(keys);
    merged.extend_from_slice(subset);
    merged.sort_unstable();
    let model = LinearModel::fit_cdf(&merged);
    model.sse_cdf(&merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::{smooth_segment, SmoothingConfig};

    fn example_keys() -> Vec<Key> {
        vec![4, 5, 6, 8, 9, 10, 15, 20, 26, 30]
    }

    #[test]
    fn exhaustive_never_worse_than_greedy() {
        let keys = example_keys();
        let greedy = smooth_segment(&keys, &SmoothingConfig::with_alpha(0.5));
        let exact = exhaustive_smooth(&keys, 0.5, 64).expect("example is small enough");
        assert!(exact.loss_after_all <= greedy.loss_after_all + 1e-9);
        assert!(exact.loss_after_all <= exact.loss_before);
        assert!(exact.virtual_points.len() <= 5);
        assert!(exact.subsets_evaluated > 1);
    }

    #[test]
    fn greedy_is_close_to_optimal_on_the_example() {
        // Table 2 reports greedy 2.293 vs exhaustive 2.118 (within ~10%).
        let keys = example_keys();
        let greedy = smooth_segment(&keys, &SmoothingConfig::with_alpha(0.5));
        let exact = exhaustive_smooth(&keys, 0.5, 64).unwrap();
        assert!(
            greedy.loss_after_all <= exact.loss_after_all * 1.35 + 1e-9,
            "greedy {} vs exact {}",
            greedy.loss_after_all,
            exact.loss_after_all
        );
    }

    #[test]
    fn rejects_oversized_candidate_sets() {
        let keys: Vec<Key> = (0..50).map(|i| i * 100).collect();
        assert!(exhaustive_smooth(&keys, 0.2, 64).is_none());
        assert!(exhaustive_smooth(&[7], 0.5, 64).is_none());
    }

    #[test]
    fn zero_budget_returns_original() {
        let keys = example_keys();
        let exact = exhaustive_smooth(&keys, 0.05, 64).unwrap();
        assert!(exact.virtual_points.is_empty());
        assert!((exact.loss_after_all - exact.loss_before).abs() < 1e-9);
    }
}
