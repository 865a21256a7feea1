//! Quadratic indexing functions `f(k) = a·k² + b·k + c`.
//!
//! The paper restricts its discussion to linear indexing functions for
//! efficiency but notes (§1) that CDF smoothing "can naturally extend to more
//! complex (e.g., quadratic) functions". This module provides the quadratic
//! model class used by that extension: an ordinary-least-squares parabola fit
//! from explicit points or from running sufficient statistics, mirroring the
//! [`LinearModel`](crate::LinearModel) / [`FitStats`](crate::linear::FitStats)
//! pair used everywhere else.
//!
//! All fits centre the keys on the first key before accumulating moments so
//! that datasets with huge absolute key values (Snowflake IDs, S2 cell IDs)
//! do not lose the signal to floating-point cancellation; fourth powers of
//! raw 64-bit keys would overflow `f64` precision immediately.

use crate::key::Key;
use crate::linear::round_to_slot;
use serde::{Deserialize, Serialize};

/// A quadratic indexing function `f(k) = a·k² + b·k + c`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuadraticModel {
    /// Quadratic coefficient `a`.
    pub a: f64,
    /// Linear coefficient `b`.
    pub b: f64,
    /// Constant coefficient `c`.
    pub c: f64,
    /// Key-space origin the model was fitted on; predictions shift the key by
    /// this amount before evaluating the polynomial.
    pub origin: Key,
}

impl Default for QuadraticModel {
    fn default() -> Self {
        Self {
            a: 0.0,
            b: 0.0,
            c: 0.0,
            origin: 0,
        }
    }
}

impl QuadraticModel {
    /// Creates a model from explicit coefficients over `k − origin`.
    #[inline]
    pub fn new(a: f64, b: f64, c: f64, origin: Key) -> Self {
        Self { a, b, c, origin }
    }

    /// Shifts a key into the model's centred coordinate system.
    #[inline]
    fn shift(&self, key: Key) -> f64 {
        if key >= self.origin {
            (key - self.origin) as f64
        } else {
            -((self.origin - key) as f64)
        }
    }

    /// Predicts the (real-valued) position of `key`.
    #[inline]
    pub fn predict_f64(&self, key: Key) -> f64 {
        let x = self.shift(key);
        (self.a * x + self.b) * x + self.c
    }

    /// Predicts a position clamped to `[0, upper)` and rounded to the nearest
    /// slot ([`round_to_slot`], the rule every model class shares).
    #[inline]
    pub fn predict_clamped(&self, key: Key, upper: usize) -> usize {
        round_to_slot(self.predict_f64(key), upper)
    }

    /// Fits the least-squares parabola through `(keys[i], positions[i])`.
    ///
    /// Falls back to a degenerate (lower-order) fit when the keys carry no
    /// quadratic signal: fewer than three distinct keys produce the best
    /// linear or constant model expressed with `a = 0`.
    pub fn fit_points(keys: &[Key], positions: &[f64]) -> Self {
        debug_assert_eq!(keys.len(), positions.len());
        let origin = keys.first().copied().unwrap_or(0);
        let mut stats = QuadFitStats::with_origin(origin);
        for (&k, &y) in keys.iter().zip(positions.iter()) {
            stats.push_key(k, y);
        }
        stats.fit()
    }

    /// Fits the least-squares parabola through `(keys[i], i)` — the quadratic
    /// model of the empirical CDF of a sorted key slice.
    pub fn fit_cdf(keys: &[Key]) -> Self {
        let origin = keys.first().copied().unwrap_or(0);
        let mut stats = QuadFitStats::with_origin(origin);
        for (i, &k) in keys.iter().enumerate() {
            stats.push_key(k, i as f64);
        }
        stats.fit()
    }

    /// Sum of squared errors over explicit `(key, position)` pairs.
    pub fn sse(&self, keys: &[Key], positions: &[f64]) -> f64 {
        keys.iter()
            .zip(positions.iter())
            .map(|(&k, &y)| {
                let e = self.predict_f64(k) - y;
                e * e
            })
            .sum()
    }

    /// Sum of squared errors against the empirical CDF of a sorted key slice.
    pub fn sse_cdf(&self, keys: &[Key]) -> f64 {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| {
                let e = self.predict_f64(k) - i as f64;
                e * e
            })
            .sum()
    }

    /// Maximum absolute prediction error against the empirical CDF.
    pub fn max_abs_error_cdf(&self, keys: &[Key]) -> f64 {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| (self.predict_f64(k) - i as f64).abs())
            .fold(0.0, f64::max)
    }
}

/// Running sufficient statistics for a quadratic least-squares fit of `y` on
/// centred keys `x = k − origin`.
///
/// The moments `n, Σx, Σx², Σx³, Σx⁴, Σy, Σxy, Σx²y, Σy²` are enough to solve
/// the 3×3 normal equations and to evaluate the SSE of the resulting fit in
/// O(1), which is what the quadratic smoothing extension in `csv-core` relies
/// on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuadFitStats {
    /// Key-space origin; callers must shift keys consistently.
    pub origin: Key,
    /// Number of points.
    pub n: f64,
    /// Σx.
    pub sum_x: f64,
    /// Σx².
    pub sum_x2: f64,
    /// Σx³.
    pub sum_x3: f64,
    /// Σx⁴.
    pub sum_x4: f64,
    /// Σy.
    pub sum_y: f64,
    /// Σx·y.
    pub sum_xy: f64,
    /// Σx²·y.
    pub sum_x2y: f64,
    /// Σy².
    pub sum_yy: f64,
}

impl QuadFitStats {
    /// Creates empty statistics centred on `origin`.
    pub fn with_origin(origin: Key) -> Self {
        Self {
            origin,
            n: 0.0,
            sum_x: 0.0,
            sum_x2: 0.0,
            sum_x3: 0.0,
            sum_x4: 0.0,
            sum_y: 0.0,
            sum_xy: 0.0,
            sum_x2y: 0.0,
            sum_yy: 0.0,
        }
    }

    /// Shifts an absolute key into the centred coordinate system.
    #[inline]
    pub fn shift(&self, key: Key) -> f64 {
        if key >= self.origin {
            (key - self.origin) as f64
        } else {
            -((self.origin - key) as f64)
        }
    }

    /// Adds the point `(key, y)`.
    #[inline]
    pub fn push_key(&mut self, key: Key, y: f64) {
        self.push(self.shift(key), y);
    }

    /// Adds an already-shifted point `(x, y)`.
    #[inline]
    pub fn push(&mut self, x: f64, y: f64) {
        let x2 = x * x;
        self.n += 1.0;
        self.sum_x += x;
        self.sum_x2 += x2;
        self.sum_x3 += x2 * x;
        self.sum_x4 += x2 * x2;
        self.sum_y += y;
        self.sum_xy += x * y;
        self.sum_x2y += x2 * y;
        self.sum_yy += y * y;
    }

    /// Removes a previously added already-shifted point.
    #[inline]
    pub fn remove(&mut self, x: f64, y: f64) {
        let x2 = x * x;
        self.n -= 1.0;
        self.sum_x -= x;
        self.sum_x2 -= x2;
        self.sum_x3 -= x2 * x;
        self.sum_x4 -= x2 * x2;
        self.sum_y -= y;
        self.sum_xy -= x * y;
        self.sum_x2y -= x2 * y;
        self.sum_yy -= y * y;
    }

    /// Solves the normal equations and returns the OLS parabola. Degenerate
    /// inputs (rank-deficient moment matrix) fall back to the best linear or
    /// constant fit with `a = 0`.
    pub fn fit(&self) -> QuadraticModel {
        if self.n < 1.0 {
            return QuadraticModel::new(0.0, 0.0, 0.0, self.origin);
        }
        if self.n < 3.0 {
            return self.linear_fallback();
        }
        // Normal equations for [c, b, a]:
        // | n    Σx   Σx² | |c|   | Σy   |
        // | Σx   Σx²  Σx³ | |b| = | Σxy  |
        // | Σx²  Σx³  Σx⁴ | |a|   | Σx²y |
        let m = [
            [self.n, self.sum_x, self.sum_x2],
            [self.sum_x, self.sum_x2, self.sum_x3],
            [self.sum_x2, self.sum_x3, self.sum_x4],
        ];
        let rhs = [self.sum_y, self.sum_xy, self.sum_x2y];
        match solve_3x3(m, rhs) {
            Some([c, b, a]) if a.is_finite() && b.is_finite() && c.is_finite() => {
                QuadraticModel::new(a, b, c, self.origin)
            }
            _ => self.linear_fallback(),
        }
    }

    /// Best linear (or constant) model expressed as a quadratic with `a = 0`.
    fn linear_fallback(&self) -> QuadraticModel {
        if self.n < 2.0 {
            let c = if self.n > 0.0 {
                self.sum_y / self.n
            } else {
                0.0
            };
            return QuadraticModel::new(0.0, 0.0, c, self.origin);
        }
        let sxx = self.sum_x2 - self.sum_x * self.sum_x / self.n;
        if sxx.abs() < f64::EPSILON || !sxx.is_finite() {
            return QuadraticModel::new(0.0, 0.0, self.sum_y / self.n, self.origin);
        }
        let sxy = self.sum_xy - self.sum_x * self.sum_y / self.n;
        let b = sxy / sxx;
        let c = (self.sum_y - b * self.sum_x) / self.n;
        QuadraticModel::new(0.0, b, c, self.origin)
    }

    /// SSE of an arbitrary quadratic model over the accumulated points, in
    /// O(1):
    /// `Σ(a·x² + b·x + c − y)²` expanded in the stored moments.
    pub fn sse_of_model(&self, model: &QuadraticModel) -> f64 {
        let (a, b, c) = (model.a, model.b, model.c);
        let sse = a * a * self.sum_x4
            + b * b * self.sum_x2
            + c * c * self.n
            + self.sum_yy
            + 2.0 * a * b * self.sum_x3
            + 2.0 * a * c * self.sum_x2
            + 2.0 * b * c * self.sum_x
            - 2.0 * a * self.sum_x2y
            - 2.0 * b * self.sum_xy
            - 2.0 * c * self.sum_y;
        sse.max(0.0)
    }

    /// SSE of the OLS fit itself (fit + evaluate, both in O(1)).
    pub fn sse_of_fit(&self) -> f64 {
        let model = self.fit();
        self.sse_of_model(&model)
    }
}

/// Solves a 3×3 linear system by Gaussian elimination with partial pivoting.
/// Returns `None` when the matrix is (numerically) singular.
fn solve_3x3(m: [[f64; 3]; 3], rhs: [f64; 3]) -> Option<[f64; 3]> {
    let mut a = [
        [m[0][0], m[0][1], m[0][2], rhs[0]],
        [m[1][0], m[1][1], m[1][2], rhs[1]],
        [m[2][0], m[2][1], m[2][2], rhs[2]],
    ];
    for col in 0..3 {
        // Partial pivoting.
        let pivot_row = (col..3)
            .max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).unwrap())
            .unwrap();
        if a[pivot_row][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot_row);
        for row in (col + 1)..3 {
            let factor = a[row][col] / a[col][col];
            let (pivot_rows, rest) = a.split_at_mut(row);
            let pivot = &pivot_rows[col];
            for (k, cell) in rest[0].iter_mut().enumerate().skip(col) {
                *cell -= factor * pivot[k];
            }
        }
    }
    let mut x = [0.0; 3];
    for row in (0..3).rev() {
        let mut acc = a[row][3];
        for k in (row + 1)..3 {
            acc -= a[row][k] * x[k];
        }
        if a[row][row].abs() < 1e-12 {
            return None;
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn fits_exact_parabola() {
        // y = 2x² + 3x + 1 over x = 0..20 (keys offset by 1000).
        let keys: Vec<Key> = (0..20u64).map(|i| 1000 + i).collect();
        let ys: Vec<f64> = (0..20u64)
            .map(|x| 2.0 * (x * x) as f64 + 3.0 * x as f64 + 1.0)
            .collect();
        let model = QuadraticModel::fit_points(&keys, &ys);
        assert!(close(model.a, 2.0), "a = {}", model.a);
        assert!(close(model.b, 3.0), "b = {}", model.b);
        assert!(close(model.c, 1.0), "c = {}", model.c);
        assert!(model.sse(&keys, &ys) < 1e-6);
    }

    #[test]
    fn fits_exact_line_with_zero_quadratic_term() {
        let keys: Vec<Key> = (0..50u64).map(|i| i * 7 + 3).collect();
        let model = QuadraticModel::fit_cdf(&keys);
        assert!(model.a.abs() < 1e-9, "a = {}", model.a);
        assert!(close(model.b, 1.0 / 7.0), "b = {}", model.b);
        assert!(model.sse_cdf(&keys) < 1e-6);
        assert!(model.max_abs_error_cdf(&keys) < 1e-3);
    }

    #[test]
    fn quadratic_fit_never_worse_than_linear_on_curved_cdf() {
        // Quadratically growing keys: rank ~ sqrt(key), which a parabola in
        // key cannot capture exactly but fits strictly better than a line.
        let keys: Vec<Key> = (0..200u64).map(|i| i * i + 10).collect();
        let quad = QuadraticModel::fit_cdf(&keys);
        let linear = crate::LinearModel::fit_cdf(&keys);
        assert!(quad.sse_cdf(&keys) < linear.sse_cdf(&keys));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(QuadraticModel::fit_cdf(&[]).predict_clamped(10, 5), 0);
        let single = QuadraticModel::fit_cdf(&[42]);
        assert!(close(single.predict_f64(42), 0.0));
        let two = QuadraticModel::fit_cdf(&[10, 20]);
        assert!(two.a.abs() < 1e-12, "two points fall back to a line");
        assert!(close(two.predict_f64(10), 0.0));
        assert!(close(two.predict_f64(20), 1.0));
        // All-equal x: flat model through mean of y.
        let flat = QuadraticModel::fit_points(&[5, 5, 5], &[1.0, 2.0, 3.0]);
        assert!(close(flat.predict_f64(5), 2.0));
    }

    #[test]
    fn predict_clamps_to_range() {
        let m = QuadraticModel::new(0.0, 2.0, -5.0, 0);
        assert_eq!(m.predict_clamped(0, 10), 0);
        assert_eq!(m.predict_clamped(100, 10), 9);
        assert_eq!(m.predict_clamped(4, 10), 3);
        assert_eq!(m.predict_clamped(4, 0), 0);
    }

    #[test]
    fn stats_fit_matches_direct_fit() {
        let keys: Vec<Key> = vec![2, 3, 5, 9, 14, 20, 26, 27, 29, 30];
        let direct = QuadraticModel::fit_cdf(&keys);
        let mut stats = QuadFitStats::with_origin(keys[0]);
        for (i, &k) in keys.iter().enumerate() {
            stats.push_key(k, i as f64);
        }
        let from_stats = stats.fit();
        assert!(close(direct.a, from_stats.a));
        assert!(close(direct.b, from_stats.b));
        assert!(close(direct.c, from_stats.c));
        assert!(close(direct.sse_cdf(&keys), stats.sse_of_fit()));
        assert!(close(stats.sse_of_model(&from_stats), stats.sse_of_fit()));
    }

    #[test]
    fn stats_push_remove_roundtrip() {
        let mut stats = QuadFitStats::with_origin(0);
        for i in 0..10 {
            stats.push(i as f64, (i * i) as f64);
        }
        let before = stats;
        stats.push(50.0, 17.0);
        stats.remove(50.0, 17.0);
        assert!(close(before.sum_x4, stats.sum_x4));
        assert!(close(before.sum_x2y, stats.sum_x2y));
        assert!(close(before.sse_of_fit(), stats.sse_of_fit()));
    }

    #[test]
    fn huge_key_offsets_stay_stable() {
        let offset: Key = 665_600_000_000_000;
        let keys: Vec<Key> = (0..5_000u64).map(|i| offset + i * i / 8 + i).collect();
        let model = QuadraticModel::fit_cdf(&keys);
        // The parabola must track the sqrt-like CDF much better than a naive
        // uncentred fit would (which would be pure noise).
        let rmse = (model.sse_cdf(&keys) / keys.len() as f64).sqrt();
        assert!(rmse < keys.len() as f64 * 0.05, "rmse {rmse}");
    }

    #[test]
    fn solve_3x3_rejects_singular_systems() {
        let singular = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]];
        assert!(solve_3x3(singular, [1.0, 2.0, 3.0]).is_none());
        let identity = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]];
        let x = solve_3x3(identity, [4.0, 5.0, 6.0]).unwrap();
        assert_eq!(x, [4.0, 5.0, 6.0]);
    }
}
