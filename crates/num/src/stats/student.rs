use std::sync::atomic::{AtomicU64, Ordering};

use super::beta::regularized_incomplete_beta;

/// Cumulative distribution function of Student's t distribution with
/// `df` degrees of freedom, evaluated at `t`.
///
/// # Panics
///
/// Panics if `df` is not positive or `t` is NaN.
///
/// # Examples
///
/// ```
/// use fupermod_num::stats::student_t_cdf;
/// assert!((student_t_cdf(0.0, 7.0) - 0.5).abs() < 1e-12);
/// ```
pub fn student_t_cdf(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "degrees of freedom must be positive, got {df}");
    assert!(!t.is_nan(), "t must not be NaN");

    if t == 0.0 {
        return 0.5;
    }
    let x = df / (df + t * t);
    let tail = 0.5 * regularized_incomplete_beta(x, 0.5 * df, 0.5);
    if t > 0.0 {
        1.0 - tail
    } else {
        tail
    }
}

/// Quantile (inverse CDF) of Student's t distribution with `df` degrees
/// of freedom at probability `p`, computed by bisection on the CDF.
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)` or `df` is not
/// positive.
///
/// # Examples
///
/// ```
/// use fupermod_num::stats::student_t_quantile;
/// // 97.5% quantile with 10 dof is the classic 2.228.
/// let q = student_t_quantile(0.975, 10.0);
/// assert!((q - 2.228).abs() < 1e-3);
/// ```
pub fn student_t_quantile(p: f64, df: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "probability must lie strictly in (0,1), got {p}"
    );
    assert!(df > 0.0, "degrees of freedom must be positive, got {df}");

    if (p - 0.5).abs() < 1e-16 {
        return 0.0;
    }

    // The t distribution is symmetric; solve for the upper half only.
    let upper = p >= 0.5;
    let p = if upper { p } else { 1.0 - p };

    // Bracket the quantile: grow the upper end until the CDF exceeds p.
    let mut lo = 0.0;
    let mut hi = 1.0;
    while student_t_cdf(hi, df) < p {
        hi *= 2.0;
        if hi > 1e12 {
            break;
        }
    }

    // 200 bisection steps give far more precision than f64 needs; the
    // loop exits early once the interval stops shrinking.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid == lo || mid == hi {
            break;
        }
        if student_t_cdf(mid, df) < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }

    let q = 0.5 * (lo + hi);
    if upper {
        q
    } else {
        -q
    }
}

/// Two-sided critical value `t*` such that a fraction `confidence` of
/// the Student-t distribution with `df` degrees of freedom lies within
/// `[-t*, t*]`. This is the multiplier used for confidence intervals of
/// a mean estimated from repeated measurements.
///
/// The value depends only on `(confidence, df)`, while a measurement
/// loop asks for it after every repetition, so results for whole
/// `df` up to 512 are remembered in a small process-wide table (the
/// first four confidence levels seen get a row each). What is stored
/// *is* [`student_t_quantile`]'s output, so a remembered answer and a
/// computed one are the same bits; every other argument is computed
/// afresh each time.
///
/// # Panics
///
/// Panics if `confidence` is not strictly inside `(0, 1)`.
pub fn two_sided_critical_value(confidence: f64, df: f64) -> f64 {
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must lie strictly in (0,1), got {confidence}"
    );
    static MEMO: Memo = Memo::new();
    MEMO.get_or_compute(confidence, df, || {
        student_t_quantile(0.5 + 0.5 * confidence, df)
    })
}

/// Confidence levels the memo has a row for.
const MEMO_LEVELS: usize = 4;
/// Largest whole `df` the memo covers.
const MEMO_MAX_DF: usize = 512;
/// Marks an unclaimed row and an unfilled cell: the bits of `+0.0`,
/// which no confidence level in `(0, 1)` has. A critical value is
/// positive except below a confidence of 2e-16, where the quantile
/// rounds to zero; that cell then reads as unfilled for ever and is
/// simply computed on every call.
const EMPTY: u64 = 0;

/// Critical values by (confidence level, whole `df`), lock-free.
struct Memo {
    /// `keys[r]` holds the bits of the confidence level that owns row
    /// `r` of `values`; a row, once claimed, is never given up, so a
    /// filled cell stays valid for the life of the memo.
    keys: [AtomicU64; MEMO_LEVELS],
    values: [[AtomicU64; MEMO_MAX_DF]; MEMO_LEVELS],
}

impl Memo {
    const fn new() -> Self {
        Self {
            keys: [const { AtomicU64::new(EMPTY) }; MEMO_LEVELS],
            values: [const { [const { AtomicU64::new(EMPTY) }; MEMO_MAX_DF] }; MEMO_LEVELS],
        }
    }

    /// The cell for `(confidence, df)`: `None` when `df` is not a
    /// whole number in `1..=MEMO_MAX_DF`, or when other confidence
    /// levels already own every row.
    fn cell(&self, confidence: f64, df: f64) -> Option<&AtomicU64> {
        if !(df >= 1.0 && df <= MEMO_MAX_DF as f64 && df.fract() == 0.0) {
            return None;
        }
        let key = confidence.to_bits();
        for (owner, row) in self.keys.iter().zip(&self.values) {
            let mut seen = owner.load(Ordering::Relaxed);
            if seen == EMPTY {
                seen = match owner.compare_exchange(
                    EMPTY,
                    key,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => key,
                    Err(winner) => winner,
                };
            }
            if seen == key {
                return Some(&row[df as usize - 1]);
            }
        }
        None
    }

    /// The remembered value for `(confidence, df)`, or `compute()`,
    /// remembered from now on if there is a cell for it.
    fn get_or_compute(&self, confidence: f64, df: f64, compute: impl FnOnce() -> f64) -> f64 {
        let Some(cell) = self.cell(confidence, df) else {
            return compute();
        };
        // Relaxed: the cell is one self-contained word that publishes
        // nothing else, and every writer of a cell stores the same bits.
        let bits = cell.load(Ordering::Relaxed);
        if bits != EMPTY {
            return f64::from_bits(bits);
        }
        let value = compute();
        cell.store(value.to_bits(), Ordering::Relaxed);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_symmetry() {
        for &df in &[1.0, 3.0, 10.0, 100.0] {
            for &t in &[0.5, 1.0, 2.5] {
                let up = student_t_cdf(t, df);
                let lo = student_t_cdf(-t, df);
                assert!((up + lo - 1.0).abs() < 1e-12, "df={df} t={t}");
            }
        }
    }

    #[test]
    fn cdf_matches_cauchy_for_one_dof() {
        // t with 1 dof is the standard Cauchy: CDF = 1/2 + atan(t)/pi.
        for &t in &[-3.0f64, -0.5, 0.0, 0.7, 4.2] {
            let expected = 0.5 + t.atan() / std::f64::consts::PI;
            assert!((student_t_cdf(t, 1.0) - expected).abs() < 1e-10, "t={t}");
        }
    }

    #[test]
    fn classic_table_values() {
        // (confidence two-sided, df, critical value) from standard tables.
        let cases = [
            (0.95, 1.0, 12.706),
            (0.95, 2.0, 4.303),
            (0.95, 5.0, 2.571),
            (0.95, 10.0, 2.228),
            (0.95, 30.0, 2.042),
            (0.99, 10.0, 3.169),
            (0.90, 20.0, 1.725),
        ];
        for (cl, df, expected) in cases {
            let got = two_sided_critical_value(cl, df);
            assert!(
                (got - expected).abs() < 2e-3,
                "cl={cl} df={df}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &df in &[2.0, 7.0, 25.0] {
            for &p in &[0.01, 0.2, 0.5, 0.8, 0.975] {
                let q = student_t_quantile(p, df);
                assert!((student_t_cdf(q, df) - p).abs() < 1e-9, "df={df} p={p}");
            }
        }
    }

    #[test]
    fn large_dof_approaches_normal() {
        // 97.5% normal quantile is 1.95996.
        let q = student_t_quantile(0.975, 1e6);
        assert!((q - 1.95996).abs() < 1e-3);
    }

    const LEVELS: [f64; 3] = [0.90, 0.95, 0.99];

    #[test]
    fn remembered_critical_values_are_the_quantile_to_the_bit() {
        // Twice over: the first round fills the cells, the second
        // reads them back.
        for round in 0..2 {
            for cl in LEVELS {
                for df in 1..=MEMO_MAX_DF {
                    let df = df as f64;
                    assert_eq!(
                        two_sided_critical_value(cl, df).to_bits(),
                        student_t_quantile(0.5 + 0.5 * cl, df).to_bits(),
                        "round {round}, cl {cl}, df {df}"
                    );
                }
            }
        }
    }

    #[test]
    fn two_threads_interleaving_levels_fill_one_memo_consistently() {
        let memo = Memo::new();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for offset in 0..2 {
                let (memo, start) = (&memo, &start);
                scope.spawn(move || {
                    start.wait();
                    for df in 1..=MEMO_MAX_DF {
                        for k in 0..LEVELS.len() {
                            // The two threads take the levels in
                            // different orders at every df.
                            let cl = LEVELS[(k * (1 + offset) + offset) % LEVELS.len()];
                            let want = student_t_quantile(0.5 + 0.5 * cl, df as f64);
                            let got = memo.get_or_compute(cl, df as f64, || want);
                            assert_eq!(got.to_bits(), want.to_bits(), "cl {cl}, df {df}");
                        }
                    }
                });
            }
        });
        // Every cell of the three claimed rows is now filled, with
        // its own level's value.
        for cl in LEVELS {
            for df in 1..=MEMO_MAX_DF {
                let cell = memo.cell(cl, df as f64).expect("claimed row");
                assert_eq!(
                    cell.load(Ordering::Relaxed),
                    student_t_quantile(0.5 + 0.5 * cl, df as f64).to_bits()
                );
            }
        }
    }

    #[test]
    fn only_whole_small_df_of_the_first_four_levels_are_remembered() {
        let memo = Memo::new();
        for df in [0.5, 1.5, 2.000001, 512.5, 513.0, 1e6, f64::INFINITY] {
            assert!(memo.cell(0.95, df).is_none(), "df {df}");
        }
        assert!(memo.cell(0.95, 1.0).is_some());
        assert!(memo.cell(0.95, 512.0).is_some());
        for cl in [0.5, 0.6, 0.7] {
            assert!(memo.cell(cl, 3.0).is_some(), "cl {cl}");
        }
        // A fifth level finds every row owned; the first four keep theirs.
        assert!(memo.cell(0.8, 3.0).is_none());
        assert!(memo.cell(0.95, 3.0).is_some());

        // Through the public function, such arguments are computed
        // afresh and still agree with the quantile.
        for df in [2.5, 513.0, 1e6] {
            assert_eq!(
                two_sided_critical_value(0.95, df).to_bits(),
                student_t_quantile(0.975, df).to_bits()
            );
        }
    }
}
