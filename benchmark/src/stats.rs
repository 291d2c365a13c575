//! Percentile and window-median arithmetic.
//!
//! Every timing metric E11 reports is the median of its per-window
//! values, so one steal burst moves one window, not the number.

/// Nearest-rank percentile of an ascending slice; `p` in `[0, 1]`.
/// `f64::INFINITY` entries (undelivered alerts) sort last, so a
/// percentile that reaches them reads infinite rather than optimistic.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts ascending, infinities (undelivered alerts) last and NaN (a
/// window with no samples) after them.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of a small set (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A metric taken once per window: the median is the reported value and
/// `(max − min) / median` says how far the windows disagreed.
#[derive(Debug, Clone, PartialEq)]
pub struct Windowed {
    pub values: Vec<f64>,
}

impl Windowed {
    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    pub fn spread(&self) -> f64 {
        let max = self
            .values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let min = self.values.iter().copied().fold(f64::INFINITY, f64::min);
        (max - min) / self.median()
    }
}

/// First and third quartile by the same "exclusive" method as Python's
/// `statistics.quantiles(values, n=4)`, which the acceptance spread is
/// defined with.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn an_undelivered_alert_counts_as_infinitely_late() {
        let mut v = vec![3.0, f64::INFINITY, 1.0, 2.0];
        sort(&mut v);
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.9), f64::INFINITY);
    }

    #[test]
    fn window_median_ignores_one_bad_window() {
        let w = Windowed {
            values: vec![10.0, 11.0, 9.0, 10.5, 80.0],
        };
        assert_eq!(w.median(), 10.5);
        assert!((w.spread() - 71.0 / 10.5).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
