//! Property-based tests for the compute kernels: the blocked and the
//! row-band parallel GEMM must give the naive product bit for bit for
//! arbitrary shapes, worker counts and values, and the parallel result
//! must not depend on the worker count at all.

use fupermod_kernels::gemm::{gemm_blocked, gemm_naive, gemm_parallel};
use proptest::prelude::*;

/// Random (m, n, k) shapes that straddle the register tiles' edges
/// (`MR` ≤ 8, `NR` ≤ 16) and the thread-banding edge cases (fewer rows
/// than workers, uneven bands).
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

    /// `gemm_blocked` and `gemm_parallel` are `gemm_naive` bit for bit:
    /// every element takes its terms in ascending `l`, none whose `a` is
    /// ±0.0. The inputs put ±0.0 in `A` (a scattered one, and a whole
    /// zero row) against ±∞ and NaN in `B`, over a `C` of −0.0 or 0.25,
    /// where a kernel that does not skip, or that fuses or reorders a
    /// term, gives other bits.
    #[test]
    fn blocked_and_parallel_are_bitwise_naive(
        (m, n, k) in shapes(),
        threads in 0usize..9,
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
        let mut c_par = c_naive.clone();
        gemm_naive(m, n, k, &a, &b, &mut c_naive);
        gemm_blocked(m, n, k, &a, &b, &mut c_blocked);
        gemm_parallel(m, n, k, &a, &b, &mut c_par, threads);
        for (i, ((x, y), z)) in c_blocked.iter().zip(&c_naive).zip(&c_par).enumerate() {
            prop_assert!(same(*x, *y), "blocked c[{}]: {} vs naive {}", i, x, y);
            prop_assert!(same(*z, *y), "parallel c[{}]: {} vs naive {}", i, z, y);
        }
    }

    /// The parallel kernel is bit-identical to the blocked kernel it
    /// bands — row grouping must not change any accumulation order.
    #[test]
    fn parallel_is_bitwise_blocked_for_any_thread_count(
        (m, n, k) in shapes(),
        threads in 0usize..9,
        seed in 0u64..1000,
    ) {
        let a = matrix(m, k, seed);
        let b = matrix(k, n, seed + 1);
        // Pre-filled C: the kernels accumulate into it, so agreement
        // must hold for non-zero initial contents too.
        let mut c_blocked = vec![0.25; m * n];
        let mut c_par = c_blocked.clone();
        gemm_blocked(m, n, k, &a, &b, &mut c_blocked);
        gemm_parallel(m, n, k, &a, &b, &mut c_par, threads);
        for (i, (x, y)) in c_par.iter().zip(&c_blocked).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "c[{}]", i);
        }
    }
}
