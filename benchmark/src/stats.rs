//! Order statistics over small samples.

/// Sorted copy of `values` (which must hold no NaN).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
    v
}

/// The `q`-quantile by linear interpolation at position `q·(n+1)`
/// (1-based, clamped to the sample) — the rule of Python's
/// `statistics.quantiles`, which the benchmark contract names.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let n = v.len();
    let pos = (q * (n as f64 + 1.0)).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    if lo >= n {
        v[n - 1]
    } else {
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// Median with the quartiles around it and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let v = sorted(values);
        Self {
            q1: quantile_sorted(&v, 0.25),
            median: quantile_sorted(&v, 0.5),
            q3: quantile_sorted(&v, 0.75),
            n: v.len(),
        }
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// The 99th percentile, nearest-rank (needs ≥ 1000 samples to have ten
/// beyond it; callers only use it on the comm/serving op samples).
pub fn p99(values: &[f64]) -> f64 {
    let v = sorted(values);
    let rank = ((v.len() as f64) * 0.99).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_the_python_exclusive_rule() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(Summary::of(&[4.0]).iqr(), 0.0);
    }

    #[test]
    fn p99_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(p99(&v), 990.0);
    }
}
