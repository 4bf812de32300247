//! `solve_diagonal_plus_constant` replays `solve_dense` to the bit: on
//! random diagonal-plus-constant systems it either declines or returns
//! what dense elimination returns — the same error, or a solution equal
//! in every bit. The draws mix the Jacobians the numerical partitioner
//! meets (positive `tᵢ′`, positive `tₚ′`: never declines) with mixed
//! signs (pivoting leaves the diagonal), zero constants (zero factors),
//! rank-deficient and tiny pivots (the singular path) and NaN/±∞
//! entries (always declined).

use fupermod_num::solve::{solve_dense, solve_diagonal_plus_constant};
use fupermod_num::NumError;
use proptest::prelude::*;
use proptest::test_runner::rng_for;

/// One structured system: `diag[i] = d[i] + c` on the diagonal and
/// `0.0 + c` elsewhere, as the Jacobian of the equal-time system forms
/// them, with right-hand side `b`.
#[derive(Debug, Clone)]
struct System {
    d: Vec<f64>,
    c: f64,
    b: Vec<f64>,
}

/// A magnitude in 1e-4 … 1e4, either sign.
fn spread() -> impl Strategy<Value = f64> {
    (-4.0f64..4.0, 0u8..2).prop_map(|(e, neg)| {
        if neg == 1 {
            -(10f64.powf(e))
        } else {
            10f64.powf(e)
        }
    })
}

fn system() -> impl Strategy<Value = System> {
    (1usize..=128, 0u8..7)
        .prop_flat_map(|(n, family)| {
            (
                Just(family),
                collection::vec(spread(), n),
                spread(),
                collection::vec(spread(), n),
                (0usize..n, 0usize..3),
            )
        })
        .prop_map(|(family, mut d, mut c, mut b, (at, pick))| {
            let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][pick];
            match family {
                // A monotone model's Jacobian: tᵢ′ > 0, tₚ′ > 0.
                0 => {
                    d.iter_mut().for_each(|v| *v = v.abs());
                    c = c.abs();
                }
                // Mixed signs: |c| > |aᵢ| somewhere, usually early.
                1 => {}
                // One falling segment in a monotone system.
                2 => {
                    d.iter_mut().for_each(|v| *v = v.abs());
                    c = c.abs();
                    d[at] = -0.5 * c;
                }
                // A zero constant: every factor is zero.
                3 => c = if pick == 0 { -0.0 } else { 0.0 },
                // A tiny pivot under a zero constant.
                4 => {
                    c = 0.0;
                    d[at] = [0.0, 1e-301, -1e-305][pick];
                }
                // Every entry equal: singular at the second pivot.
                5 => d.iter_mut().for_each(|v| *v = 0.0),
                // A non-finite entry somewhere.
                _ => match at % 3 {
                    0 => d[at] = bad,
                    1 => c = bad,
                    _ => b[at] = bad,
                },
            }
            System { d, c, b }
        })
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    Structured,
    Singular,
    Declined,
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs both solvers on `sys` and checks the replay; returns which path
/// the structured solve took.
fn replay(sys: &System) -> Result<Path, TestCaseError> {
    let n = sys.d.len();
    let diag: Vec<f64> = sys.d.iter().map(|d| d + sys.c).collect();
    let off = 0.0 + sys.c;
    let mut dense = vec![off; n * n];
    for (i, a) in diag.iter().enumerate() {
        dense[i * n + i] = *a;
    }
    let mut want = sys.b.clone();
    let dense_result = solve_dense(&mut dense, &mut want);

    let mut got = sys.b.clone();
    let finite = sys.c.is_finite() && sys.d.iter().chain(&sys.b).all(|v| v.is_finite());
    match solve_diagonal_plus_constant(&diag, off, &mut got, &mut Vec::new()) {
        Ok(true) => {
            prop_assert!(finite, "solved a system with a non-finite entry");
            prop_assert_eq!(&dense_result, &Ok(()));
            prop_assert_eq!(bits(&got), bits(&want), "n = {}", n);
            Ok(Path::Structured)
        }
        Err(e) => {
            prop_assert_eq!(&e, &NumError::SingularMatrix);
            prop_assert_eq!(Err(e), dense_result);
            Ok(Path::Singular)
        }
        Ok(false) => {
            prop_assert_eq!(bits(&got), bits(&sys.b), "a decline leaves b untouched");
            Ok(Path::Declined)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn structured_solve_replays_solve_dense_bit_for_bit(sys in system()) {
        replay(&sys)?;
    }
}

/// The property above is only as good as its draws: each of the three
/// outcomes must be reached, and the partitioner's own family must be
/// solved, not declined.
#[test]
fn the_draws_take_every_path() {
    let mut rng = rng_for("structured_solve::the_draws_take_every_path");
    let strategy = system();
    let mut taken = [0usize; 3];
    for _ in 0..512 {
        let sys = strategy.generate(&mut rng);
        let monotone = sys.c > 0.0 && sys.d.iter().all(|&d| d > 0.0);
        let path = replay(&sys).unwrap_or_else(|e| panic!("{e:?} on {sys:?}"));
        assert!(!monotone || path == Path::Structured, "{path:?} on {sys:?}");
        taken[path as usize] += 1;
    }
    assert!(taken.iter().all(|&k| k >= 20), "paths taken: {taken:?}");
}
