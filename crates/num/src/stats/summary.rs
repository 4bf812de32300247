use serde::{Deserialize, Serialize};

use super::student::two_sided_critical_value;

/// Confidence interval of a mean: `mean ± half_width` at `confidence`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// Sample mean the interval is centred on.
    pub mean: f64,
    /// Half-width of the interval, in the same units as the mean.
    pub half_width: f64,
    /// Confidence level in `(0, 1)`, e.g. `0.95`.
    pub confidence: f64,
}

impl ConfidenceInterval {
    /// Half-width relative to the mean (`half_width / mean`). Returns
    /// infinity for a zero mean so that "not yet reliable" comparisons
    /// behave sensibly.
    pub fn relative_error(&self) -> f64 {
        if self.mean == 0.0 {
            f64::INFINITY
        } else {
            self.half_width / self.mean.abs()
        }
    }
}

/// Streaming mean/variance accumulator (Welford's algorithm), used by
/// the benchmark loop to decide after each repetition whether the
/// measurement is already statistically reliable.
///
/// # Examples
///
/// ```
/// use fupermod_num::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// // The sample variance is 32/7, so the standard error is √(32/7/8).
/// assert!((s.std_error() - (4.0_f64 / 7.0).sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations seen so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (`n - 1` denominator); `0.0` with fewer
    /// than two observations.
    pub(crate) fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Standard error of the mean; `0.0` with fewer than two
    /// observations.
    pub fn std_error(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.sample_variance() / self.count as f64).sqrt()
        }
    }

    /// Student-t confidence interval of the mean at the given
    /// confidence level.
    ///
    /// Returns `None` with fewer than two observations (no degrees of
    /// freedom to estimate spread from).
    ///
    /// # Panics
    ///
    /// Panics if `confidence` is not strictly inside `(0, 1)`.
    pub fn confidence_interval(&self, confidence: f64) -> Option<ConfidenceInterval> {
        if self.count < 2 {
            return None;
        }
        let df = (self.count - 1) as f64;
        let t = two_sided_critical_value(confidence, df);
        Some(ConfidenceInterval {
            mean: self.mean,
            half_width: t * self.std_error(),
            confidence,
        })
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_inert() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert!(s.confidence_interval(0.95).is_none());
    }

    #[test]
    fn single_observation_has_no_interval() {
        let s: OnlineStats = [3.0].into_iter().collect();
        assert_eq!(s.mean(), 3.0);
        assert!(s.confidence_interval(0.95).is_none());
    }

    #[test]
    fn matches_two_pass_computation() {
        let data = [1.2, 0.9, 1.4, 1.1, 1.05, 0.97, 1.33];
        let s: OnlineStats = data.into_iter().collect();
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.sample_variance() - var).abs() < 1e-12);
    }

    #[test]
    fn interval_shrinks_with_more_data() {
        let mut s = OnlineStats::new();
        // Alternate deterministic values with constant spread.
        for i in 0..4 {
            s.push(if i % 2 == 0 { 1.0 } else { 2.0 });
        }
        let wide = s.confidence_interval(0.95).unwrap().half_width;
        for i in 0..400 {
            s.push(if i % 2 == 0 { 1.0 } else { 2.0 });
        }
        let narrow = s.confidence_interval(0.95).unwrap().half_width;
        assert!(narrow < wide / 4.0, "wide={wide} narrow={narrow}");
    }

    #[test]
    fn relative_error_of_zero_mean_is_infinite() {
        let ci = ConfidenceInterval {
            mean: 0.0,
            half_width: 0.1,
            confidence: 0.95,
        };
        assert!(ci.relative_error().is_infinite());
    }

    #[test]
    fn constant_data_has_zero_width_interval() {
        let s: OnlineStats = std::iter::repeat_n(5.0, 10).collect();
        let ci = s.confidence_interval(0.95).unwrap();
        assert_eq!(ci.mean, 5.0);
        assert!(ci.half_width.abs() < 1e-12);
        assert!(ci.relative_error() < 1e-12);
    }
}
