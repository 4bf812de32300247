//! Property-based tests for the compute kernels: the blocked GEMM must
//! give the naive product bit for bit for arbitrary shapes and values.

use fupermod_kernels::gemm::{gemm_blocked, gemm_naive};
use proptest::prelude::*;

/// Random (m, n, k) shapes that straddle the register tiles' edges
/// (`MR` ≤ 8, `NR` ≤ 16).
fn shapes() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..100, 1usize..70, 1usize..70)
}

fn mix(i: u64, seed: u64) -> u64 {
    i.wrapping_mul(6364136223846793005)
        .wrapping_add(seed.wrapping_mul(1442695040888963407))
        >> 33
}

/// Small deterministic pseudo-random entries in [-0.5, 0.5).
fn matrix(rows: usize, cols: usize, seed: u64) -> Vec<f64> {
    (0..rows * cols)
        .map(|i| mix(i as u64, seed) as f64 / (1u64 << 31) as f64 - 0.5)
        .collect()
}

/// Equal bits, or both NaN. When both operands of an add are NaN the
/// language leaves open which one's sign and payload the sum keeps, and
/// the compiler may swap a commutative add's operands, so two kernels
/// can be held to producing a NaN, not to its bits.
fn same(x: f64, y: f64) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `gemm_blocked` is `gemm_naive` bit for bit:
    /// every element takes its terms in ascending `l`, none whose `a` is
    /// ±0.0. The inputs put ±0.0 in `A` (a scattered one, and a whole
    /// zero row) against ±∞ and NaN in `B`, over a `C` of −0.0 or 0.25,
    /// where a kernel that does not skip, or that fuses or reorders a
    /// term, gives other bits.
    #[test]
    fn blocked_is_bitwise_naive(
        (m, n, k) in shapes(),
        seed in 0u64..1000,
        zero_every in 3u64..400,
        negative_zero_c in 0u8..2,
    ) {
        let fill = if negative_zero_c == 1 { -0.0 } else { 0.25 };
        let mut a = matrix(m, k, seed);
        let mut b = matrix(k, n, seed + 1);
        let zero_row = (seed as usize) % m;
        for (i, v) in a.iter_mut().enumerate() {
            if i / k == zero_row || mix(i as u64, seed).is_multiple_of(zero_every) {
                *v = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        for (i, v) in b.iter_mut().enumerate() {
            match mix(i as u64, seed + 7) % 97 {
                0 => *v = f64::INFINITY,
                1 => *v = f64::NEG_INFINITY,
                2 => *v = f64::NAN,
                3 => *v = -0.0,
                _ => {}
            }
        }
        let mut c_naive = vec![fill; m * n];
        let mut c_blocked = c_naive.clone();
        gemm_naive(m, n, k, &a, &b, &mut c_naive);
        gemm_blocked(m, n, k, &a, &b, &mut c_blocked);
        for (i, (x, y)) in c_blocked.iter().zip(&c_naive).enumerate() {
            prop_assert!(same(*x, *y), "blocked c[{}]: {} vs naive {}", i, x, y);
        }
    }
}
