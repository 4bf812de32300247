//! Incremental sorted-sample statistics for the benchmark hot loop.
//!
//! The benchmark stopping rule needs, after *every* repetition, the
//! median/MAD-filtered mean and confidence interval of all samples so
//! far. Recomputing [`super::reject_outliers`] from scratch each
//! repetition sorts the sample twice and allocates three vectors —
//! O(n log n) work and several heap round-trips per repetition, O(n²
//! log n) over a measurement. [`IncrementalStats`] instead keeps the
//! sample sorted as it grows:
//!
//! * insertion is one binary search plus an in-place shift
//!   (O(log n) comparisons);
//! * the median is read directly off the sorted sample in O(1);
//! * the MAD is the median of the two *implicitly sorted* deviation
//!   sequences (left of the median, reversed; right of the median) and
//!   is found by the classic two-sorted-arrays selection in O(log n)
//!   without materialising the deviations;
//! * the outlier filter is two `partition_point` probes (O(log n)); in
//!   the common no-outlier case the running Welford accumulator is
//!   returned as-is, so a repetition costs O(log n) amortised. Only
//!   repetitions where outliers are actually present pay an O(n)
//!   re-accumulation (no sorting, no allocation).
//!
//! All results are **bit-identical** to the reference pipeline
//! (`reject_outliers` + `OnlineStats::from_iter` over the kept samples
//! in arrival order): the deviation values `m - x` / `x - m` are exact
//! IEEE negations of the reference's `(x - m).abs()`, and the filtered
//! accumulator is rebuilt over the kept samples in arrival order, not
//! sorted order.

use super::OnlineStats;

/// A growing sample with O(log n)-amortised robust statistics.
///
/// # Examples
///
/// ```
/// use fupermod_num::stats::IncrementalStats;
///
/// let mut s = IncrementalStats::new();
/// for x in [1.0, 1.02, 0.98, 50.0] {
///     s.push(x);
/// }
/// assert_eq!(s.median(), Some(1.01));
/// let (kept, rejected) = s.filtered(5.0);
/// assert_eq!(rejected, 1); // the 50.0 spike
/// assert_eq!(kept.count(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IncrementalStats {
    /// Samples in arrival order (the order the reference pipeline
    /// feeds its accumulator in).
    arrived: Vec<f64>,
    /// The same samples, kept ascending.
    sorted: Vec<f64>,
    /// Running Welford accumulator over *all* samples, arrival order.
    all: OnlineStats,
}

impl IncrementalStats {
    /// Creates an empty sample.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation (O(log n) search + in-place shift).
    ///
    /// # Panics
    ///
    /// Debug-asserts that `x` is finite; a NaN would poison the sorted
    /// order invariant.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "samples must be finite, got {x}");
        let at = self.sorted.partition_point(|&v| v < x);
        self.sorted.insert(at, x);
        self.arrived.push(x);
        self.all.push(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.arrived.len() as u64
    }

    /// The samples in arrival order.
    pub fn samples(&self) -> &[f64] {
        &self.arrived
    }

    /// Running statistics over all samples (no outlier filter).
    pub fn all(&self) -> OnlineStats {
        self.all
    }

    /// Median in O(1); `None` when empty. Matches
    /// [`super::median`] bit-for-bit.
    pub fn median(&self) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        Some(if n % 2 == 1 {
            self.sorted[n / 2]
        } else {
            0.5 * (self.sorted[n / 2 - 1] + self.sorted[n / 2])
        })
    }

    /// Median absolute deviation in O(log n); `None` when empty.
    /// Matches [`super::median_absolute_deviation`] bit-for-bit.
    pub fn mad(&self) -> Option<f64> {
        let m = self.median()?;
        let n = self.sorted.len();
        // Deviations |x - m| split at the median into two implicitly
        // sorted ascending sequences:
        //   left  (x <= m): m - sorted[p-1-t]  for t in 0..p
        //   right (x >  m): sorted[p+t] - m    for t in 0..n-p
        // `m - x` equals the reference's `(x - m).abs()` exactly: IEEE
        // subtraction satisfies a - b == -(b - a) bit-for-bit.
        let p = self.sorted.partition_point(|&v| v <= m);
        let left = |t: usize| m - self.sorted[p - 1 - t];
        let right = |t: usize| self.sorted[p + t] - m;
        let kth = |k: usize| kth_of_two_sorted(&left, p, &right, n - p, k);
        Some(if n % 2 == 1 {
            kth(n / 2)
        } else {
            0.5 * (kth(n / 2 - 1) + kth(n / 2))
        })
    }

    /// Statistics after the `k`-MAD outlier filter, plus the number of
    /// rejected samples. Semantics match
    /// [`super::reject_outliers`] followed by accumulating the kept
    /// samples in arrival order, bit-for-bit:
    ///
    /// * empty sample → empty statistics;
    /// * zero MAD (over half the samples identical) → filter disabled,
    ///   running statistics returned in O(1);
    /// * nothing outside `k` MADs → running statistics in O(log n);
    /// * otherwise → one O(n) pass over the kept samples (no sort, no
    ///   allocation).
    ///
    /// # Panics
    ///
    /// Panics if `k` is not positive.
    pub fn filtered(&self, k: f64) -> (OnlineStats, u64) {
        assert!(k > 0.0, "rejection threshold must be positive");
        let (Some(m), Some(mad)) = (self.median(), self.mad()) else {
            return (OnlineStats::new(), 0);
        };
        if mad == 0.0 {
            return (self.all, 0);
        }
        let radius = k * mad;
        // Kept samples form a contiguous run of the sorted sample:
        //   drop the prefix where m - x >  radius  (left outliers)
        //   drop the suffix where x - m >  radius  (right outliers)
        // Both predicates are monotone along the sorted order, so two
        // partition_point probes find the run in O(log n).
        let lo = self.sorted.partition_point(|&x| m - x > radius);
        let hi = self.sorted.partition_point(|&x| x - m <= radius);
        let rejected = (self.sorted.len() - (hi - lo)) as u64;
        if rejected == 0 {
            return (self.all, 0);
        }
        // Outliers present: re-accumulate the kept samples in arrival
        // order so the result is bit-identical to the reference.
        let stats = self
            .arrived
            .iter()
            .copied()
            .filter(|&x| (x - m).abs() <= radius)
            .collect();
        (stats, rejected)
    }

    /// Reference implementations of median/MAD/filter, for parity
    /// tests and documentation. Costs O(n log n) and allocates; the
    /// incremental methods above must agree bit-for-bit.
    #[cfg(test)]
    fn reference_filtered(&self, k: f64) -> (OnlineStats, u64) {
        let kept = super::reject_outliers(&self.arrived, k);
        let rejected = (self.arrived.len() - kept.len()) as u64;
        (kept.into_iter().collect(), rejected)
    }

    /// Per-sample keep/reject flags of the `k`-MAD filter, arrival
    /// order. Degenerate cases (empty, zero MAD) keep everything,
    /// matching [`Self::filtered`].
    fn kept_flags(&self, k: f64) -> Vec<bool> {
        let (Some(m), Some(mad)) = (self.median(), self.mad()) else {
            return vec![true; self.arrived.len()];
        };
        if mad == 0.0 {
            return vec![true; self.arrived.len()];
        }
        let radius = k * mad;
        self.arrived.iter().map(|&x| (x - m).abs() <= radius).collect()
    }

    /// Adds one observation and reports whether it changed the
    /// `k`-MAD outlier classification of any *previously arrived*
    /// sample (the median/MAD shift can pull old samples in or out of
    /// the kept set).
    ///
    /// This flag exists for incremental-maintenance layers
    /// (`fupermod-store`): a push that reclassifies history means a
    /// derived summary point cannot be patched from the new sample
    /// alone and the consumer should fall back to a full re-derive.
    /// [`Self::filtered`] itself is always bit-identical to the
    /// reference regardless of this flag — it only selects the cheap
    /// path, never correctness.
    ///
    /// Costs O(n): two classification passes around the O(log n)
    /// insert.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not positive; debug-asserts `x` finite.
    pub fn push_detecting_reclassification(&mut self, x: f64, k: f64) -> bool {
        assert!(k > 0.0, "rejection threshold must be positive");
        let before = self.kept_flags(k);
        self.push(x);
        let after = self.kept_flags(k);
        before.iter().zip(&after).any(|(b, a)| b != a)
    }
}

/// `k`-th smallest (0-based) element of the merge of two ascending
/// sequences given as index functions, in O(log(p + q)) probes — the
/// classic two-sorted-arrays selection.
fn kth_of_two_sorted<L, R>(left: &L, p: usize, right: &R, q: usize, k: usize) -> f64
where
    L: Fn(usize) -> f64,
    R: Fn(usize) -> f64,
{
    debug_assert!(k < p + q, "selection index out of range");
    let take = k + 1; // how many elements of the merge to take
    // Find the smallest feasible split: `ia` from the left sequence,
    // `take - ia` from the right, such that everything taken is <=
    // everything not taken.
    let mut lo = take.saturating_sub(q);
    let mut hi = take.min(p);
    while lo < hi {
        let ia = (lo + hi) / 2;
        let ib = take - ia;
        let l_next = if ia < p { left(ia) } else { f64::INFINITY };
        let r_last = if ib >= 1 { right(ib - 1) } else { f64::NEG_INFINITY };
        if r_last > l_next {
            // Taking this few from the left forces a right element
            // larger than an untaken left element: take more left.
            lo = ia + 1;
        } else {
            hi = ia;
        }
    }
    let ia = lo;
    let ib = take - ia;
    let l_last = if ia >= 1 { left(ia - 1) } else { f64::NEG_INFINITY };
    let r_last = if ib >= 1 { right(ib - 1) } else { f64::NEG_INFINITY };
    l_last.max(r_last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{median, median_absolute_deviation, reject_outliers};

    /// Deterministic pseudo-random stream (xorshift) for parity tests.
    fn stream(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed.max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                // Mix of magnitudes, occasional huge spikes.
                let base = (s % 1000) as f64 / 100.0;
                if s.is_multiple_of(17) {
                    base + 100.0
                } else {
                    base
                }
            })
            .collect()
    }

    #[test]
    fn median_matches_reference_at_every_prefix() {
        let data = stream(42, 64);
        let mut inc = IncrementalStats::new();
        for (i, &x) in data.iter().enumerate() {
            inc.push(x);
            let want = median(&data[..=i]).unwrap();
            assert_eq!(inc.median(), Some(want), "prefix {}", i + 1);
        }
    }

    #[test]
    fn mad_matches_reference_at_every_prefix() {
        for seed in [1, 7, 99, 12345] {
            let data = stream(seed, 48);
            let mut inc = IncrementalStats::new();
            for (i, &x) in data.iter().enumerate() {
                inc.push(x);
                let want = median_absolute_deviation(&data[..=i]).unwrap();
                assert_eq!(
                    inc.mad(),
                    Some(want),
                    "seed {seed} prefix {}",
                    i + 1
                );
            }
        }
    }

    #[test]
    fn filtered_matches_reference_bitwise_at_every_prefix() {
        for seed in [3, 11, 2024] {
            let data = stream(seed, 48);
            let mut inc = IncrementalStats::new();
            for (i, &x) in data.iter().enumerate() {
                inc.push(x);
                for k in [1.0, 3.0, 5.0] {
                    let (got, got_rej) = inc.filtered(k);
                    let (want, want_rej) = inc.reference_filtered(k);
                    assert_eq!(got_rej, want_rej, "seed {seed} prefix {} k {k}", i + 1);
                    assert_eq!(got.count(), want.count());
                    // Bit-identical, not merely close:
                    assert_eq!(got.mean().to_bits(), want.mean().to_bits());
                    assert_eq!(
                        got.sample_variance().to_bits(),
                        want.sample_variance().to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn zero_mad_returns_running_stats() {
        let mut inc = IncrementalStats::new();
        for x in [2.0, 2.0, 2.0, 2.0, 9.0] {
            inc.push(x);
        }
        // MAD is 0 → filter disabled, everything kept (reference
        // semantics for the degenerate case).
        let (stats, rejected) = inc.filtered(3.0);
        assert_eq!(rejected, 0);
        assert_eq!(stats.count(), 5);
        assert_eq!(reject_outliers(inc.samples(), 3.0).len(), 5);
    }

    #[test]
    fn empty_sample_is_inert() {
        let inc = IncrementalStats::new();
        assert_eq!(inc.median(), None);
        assert_eq!(inc.mad(), None);
        let (stats, rejected) = inc.filtered(5.0);
        assert_eq!(stats.count(), 0);
        assert_eq!(rejected, 0);
    }

    #[test]
    fn kth_selection_agrees_with_full_sort() {
        let data = stream(77, 33);
        let mut sorted = data.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Split arbitrarily into two sorted halves and select every k.
        for split in [0, 1, 10, 16, 32, 33] {
            let (a, b) = sorted.split_at(split);
            for (k, &want) in sorted.iter().enumerate() {
                let got = kth_of_two_sorted(&|i| a[i], a.len(), &|i| b[i], b.len(), k);
                assert_eq!(got, want, "split {split} k {k}");
            }
        }
    }

    #[test]
    fn reclassification_is_detected_and_push_stays_equivalent() {
        // A tight cluster, then a spike that is rejected on arrival
        // (arrival itself is not a *re*classification), then enough
        // far samples that the median migrates and the spike is pulled
        // back into the kept set — that migration must be flagged.
        let k = 3.0;
        let mut inc = IncrementalStats::new();
        let mut plain = IncrementalStats::new();
        let mut flagged = Vec::new();
        for &x in &[1.0, 1.1, 0.9, 1.05, 50.0, 48.0, 52.0, 49.0, 51.0, 50.5] {
            let re = inc.push_detecting_reclassification(x, k);
            plain.push(x);
            flagged.push(re);
            // The detecting push must not perturb the statistics.
            let (a, ar) = inc.filtered(k);
            let (b, br) = plain.filtered(k);
            assert_eq!(ar, br);
            assert_eq!(a.mean().to_bits(), b.mean().to_bits());
        }
        assert!(
            flagged.iter().any(|&f| f),
            "median migration never flagged: {flagged:?}"
        );
        // And the flag agrees with a brute-force before/after check.
        let mut reference = IncrementalStats::new();
        for (&x, &want) in [1.0, 1.1, 0.9, 1.05, 50.0, 48.0, 52.0, 49.0, 51.0, 50.5]
            .iter()
            .zip(&flagged)
        {
            let before = reference.kept_flags(k);
            reference.push(x);
            let after = reference.kept_flags(k);
            let got = before.iter().zip(&after).any(|(b, a)| b != a);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn arrival_order_is_preserved() {
        let mut inc = IncrementalStats::new();
        for x in [3.0, 1.0, 2.0] {
            inc.push(x);
        }
        assert_eq!(inc.samples(), &[3.0, 1.0, 2.0]);
        assert_eq!(inc.count(), 3);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn rejects_nonpositive_threshold() {
        let mut inc = IncrementalStats::new();
        inc.push(1.0);
        let _ = inc.filtered(0.0);
    }
}
