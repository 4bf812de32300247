use crate::error::invalid;
use crate::NumError;

/// Solves the dense linear system `A x = b` in place by Gaussian
/// elimination with partial pivoting.
///
/// `a` is the `n × n` matrix in row-major order and is destroyed; on
/// success `b` holds the solution.
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] on shape mismatch and
/// [`NumError::SingularMatrix`] if a pivot underflows working
/// precision.
///
/// # Examples
///
/// ```
/// use fupermod_num::solve::solve_dense;
///
/// # fn main() -> Result<(), fupermod_num::NumError> {
/// let mut a = vec![2.0, 1.0, 1.0, 3.0];
/// let mut b = vec![3.0, 5.0];
/// solve_dense(&mut a, &mut b)?;
/// assert!((b[0] - 0.8).abs() < 1e-12);
/// assert!((b[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn solve_dense(a: &mut [f64], b: &mut [f64]) -> Result<(), NumError> {
    let n = b.len();
    if a.len() != n * n {
        return Err(invalid(format!(
            "matrix has {} entries, expected {} for a {n}-vector",
            a.len(),
            n * n
        )));
    }

    for col in 0..n {
        // Partial pivoting: pick the largest remaining entry in column.
        let mut pivot_row = col;
        let mut pivot_val = a[col * n + col].abs();
        for row in col + 1..n {
            let v = a[row * n + col].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = row;
            }
        }
        if pivot_val < 1e-300 {
            return Err(NumError::SingularMatrix);
        }
        if pivot_row != col {
            for k in 0..n {
                a.swap(col * n + k, pivot_row * n + k);
            }
            b.swap(col, pivot_row);
        }

        let pivot = a[col * n + col];
        for row in col + 1..n {
            let factor = a[row * n + col] / pivot;
            if factor == 0.0 {
                continue;
            }
            a[row * n + col] = 0.0;
            for k in col + 1..n {
                a[row * n + k] -= factor * a[col * n + k];
            }
            b[row] -= factor * b[col];
        }
    }

    // Back substitution.
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in row + 1..n {
            acc -= a[row * n + k] * b[k];
        }
        b[row] = acc / a[row * n + row];
    }
    Ok(())
}

/// Solves `A x = b` for the matrix with `diag` on its diagonal and the
/// one value `off` everywhere else — the shape of the equal-time
/// system's Jacobian, `diag(tᵢ′) + tₚ′·11ᵀ` — in O(n²), performing the
/// floating-point operations [`solve_dense`] performs on that matrix
/// written out densely, in the same order, so the solution is the same
/// to the bit.
///
/// While the pivot stays on the diagonal, every elimination step of
/// the dense solve leaves the trailing block in the same shape: step
/// `s` has one factor `f = off⁽ˢ⁾ / u_s`, every remaining diagonal entry
/// becomes `u_k − f·off⁽ˢ⁾` and every remaining off-diagonal entry the
/// same `off⁽ˢ⁺¹⁾ = off⁽ˢ⁾ − f·off⁽ˢ⁾`. Row `s` of the triangular factor
/// is therefore `u_s` followed by `off⁽ˢ⁾`, and back substitution keeps
/// the dense solve's sequential sums.
///
/// Returns `Ok(true)` with the solution in `b`, or `Ok(false)` — the
/// solve *declines*, leaving `b` untouched — wherever the dense solve
/// would do something else: when partial pivoting would leave the
/// diagonal (`|off⁽ˢ⁾| > |u_s|`) or when an input is not finite. `work`
/// is scratch, grown to `2n` entries on first use and reusable across
/// calls.
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] when `diag` and `b` differ in
/// length, and [`NumError::SingularMatrix`] exactly where
/// [`solve_dense`] returns it.
///
/// # Examples
///
/// ```
/// use fupermod_num::solve::{solve_dense, solve_diagonal_plus_constant};
///
/// # fn main() -> Result<(), fupermod_num::NumError> {
/// let (diag, off) = ([3.0, 5.0, 4.0], 1.0);
/// let mut x = vec![1.0, -2.0, 0.5];
/// let mut dense = vec![3.0, 1.0, 1.0, 1.0, 5.0, 1.0, 1.0, 1.0, 4.0];
/// let mut want = x.clone();
/// assert!(solve_diagonal_plus_constant(&diag, off, &mut x, &mut Vec::new())?);
/// solve_dense(&mut dense, &mut want)?;
/// assert_eq!(x, want);
/// # Ok(())
/// # }
/// ```
pub fn solve_diagonal_plus_constant(
    diag: &[f64],
    off: f64,
    b: &mut [f64],
    work: &mut Vec<f64>,
) -> Result<bool, NumError> {
    let n = b.len();
    if diag.len() != n {
        return Err(invalid(format!(
            "diagonal has {} entries, expected {n}",
            diag.len()
        )));
    }
    if !off.is_finite() || diag.iter().chain(b.iter()).any(|v| !v.is_finite()) {
        return Ok(false);
    }

    // The matrix alone first, so that a decline leaves `b` untouched:
    // `u` becomes the factor's diagonal, `offs[s]` the rest of its row s.
    work.clear();
    work.resize(2 * n, 0.0);
    let (u, offs) = work.split_at_mut(n);
    u.copy_from_slice(diag);
    let mut c = off;
    for s in 0..n {
        // Every row below holds `c` in column s: partial pivoting
        // would swap the first of them in.
        if s + 1 < n && c.abs() > u[s].abs() {
            return Ok(false);
        }
        if u[s].abs() < 1e-300 {
            return Err(NumError::SingularMatrix);
        }
        offs[s] = c;
        let factor = c / u[s];
        if factor == 0.0 {
            continue;
        }
        for uk in &mut u[s + 1..] {
            *uk -= factor * c;
        }
        c -= factor * c;
    }

    // Then `b`, with the same factors, step by step.
    for s in 0..n {
        let factor = offs[s] / u[s];
        if factor == 0.0 {
            continue;
        }
        let bs = b[s];
        for bk in &mut b[s + 1..] {
            *bk -= factor * bs;
        }
    }
    // Back substitution.
    for row in (0..n).rev() {
        let mut acc = b[row];
        for &bk in &b[row + 1..] {
            acc -= offs[row] * bk;
        }
        b[row] = acc / u[row];
    }
    Ok(true)
}

/// Solves a tridiagonal system with the Thomas algorithm.
///
/// `sub` is the sub-diagonal (first entry unused conceptually but must
/// be present for rows ≥ 1; `sub[0]` is ignored), `diag` the main
/// diagonal, `sup` the super-diagonal (`sup[n-1]` ignored), `rhs` the
/// right-hand side. All four slices have the same length `n`.
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] on length mismatch and
/// [`NumError::SingularMatrix`] if a pivot vanishes (the algorithm does
/// not pivot; diagonally dominant systems — like spline systems — are
/// safe).
pub fn solve_tridiagonal(
    sub: &[f64],
    diag: &[f64],
    sup: &[f64],
    rhs: &[f64],
) -> Result<Vec<f64>, NumError> {
    let n = diag.len();
    if sub.len() != n || sup.len() != n || rhs.len() != n {
        return Err(invalid("tridiagonal bands must share one length"));
    }
    if n == 0 {
        return Ok(Vec::new());
    }

    let mut c = vec![0.0; n];
    let mut d = vec![0.0; n];
    if diag[0].abs() < 1e-300 {
        return Err(NumError::SingularMatrix);
    }
    c[0] = sup[0] / diag[0];
    d[0] = rhs[0] / diag[0];
    for i in 1..n {
        let denom = diag[i] - sub[i] * c[i - 1];
        if denom.abs() < 1e-300 {
            return Err(NumError::SingularMatrix);
        }
        c[i] = sup[i] / denom;
        d[i] = (rhs[i] - sub[i] * d[i - 1]) / denom;
    }
    for i in (0..n - 1).rev() {
        d[i] -= c[i] * d[i + 1];
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_noop() {
        let mut a = vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        let mut b = vec![4.0, -2.0, 7.0];
        solve_dense(&mut a, &mut b).unwrap();
        assert_eq!(b, vec![4.0, -2.0, 7.0]);
    }

    #[test]
    fn solves_3x3_requiring_pivoting() {
        // First pivot is zero, forcing a row swap.
        let mut a = vec![0.0, 2.0, 1.0, 1.0, -1.0, 0.0, 3.0, 0.0, -2.0];
        let x_true = [1.5, -0.5, 2.0];
        let mut b = vec![
            0.0 * x_true[0] + 2.0 * x_true[1] + 1.0 * x_true[2],
            1.0 * x_true[0] - 1.0 * x_true[1],
            3.0 * x_true[0] - 2.0 * x_true[2],
        ];
        solve_dense(&mut a, &mut b).unwrap();
        for (got, want) in b.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn detects_singularity() {
        let mut a = vec![1.0, 2.0, 2.0, 4.0];
        let mut b = vec![1.0, 2.0];
        assert_eq!(
            solve_dense(&mut a, &mut b).unwrap_err(),
            NumError::SingularMatrix
        );
    }

    #[test]
    fn rejects_shape_mismatch() {
        let mut a = vec![1.0; 6];
        let mut b = vec![1.0; 2];
        assert!(matches!(
            solve_dense(&mut a, &mut b),
            Err(NumError::InvalidInput(_))
        ));
    }

    /// The property in `tests/structured_solve.rs` draws the general
    /// cases; these are the edges it is unlikely to draw.
    #[test]
    fn structured_solve_keeps_dense_pivoting_decisions() {
        let mut work = Vec::new();
        let mut b = vec![1.0, 2.0, 3.0];
        // |off| > |diag[0]|: the dense solve swaps rows at step 0.
        assert!(!solve_diagonal_plus_constant(&[0.5, 4.0, 4.0], 1.0, &mut b, &mut work).unwrap());
        assert_eq!(b, vec![1.0, 2.0, 3.0], "a decline leaves b untouched");
        // |off| = |diag[0]|: no swap, the comparison is strict.
        let mut dense = vec![1.0, 1.0, 1.0, 1.0, 1.1, 1.0, 1.0, 1.0, 4.0];
        let mut want = b.clone();
        solve_dense(&mut dense, &mut want).unwrap();
        assert!(solve_diagonal_plus_constant(&[1.0, 1.1, 4.0], 1.0, &mut b, &mut work).unwrap());
        assert_eq!(b, want);
        assert!(matches!(
            solve_diagonal_plus_constant(&[1.0], 0.0, &mut [1.0, 2.0], &mut work),
            Err(NumError::InvalidInput(_))
        ));
    }

    #[test]
    fn tridiagonal_solves_known_system() {
        // [2 1 0; 1 2 1; 0 1 2] x = [4, 8, 8] → x = [1, 2, 3].
        let x = solve_tridiagonal(
            &[0.0, 1.0, 1.0],
            &[2.0, 2.0, 2.0],
            &[1.0, 1.0, 0.0],
            &[4.0, 8.0, 8.0],
        )
        .unwrap();
        for (got, want) in x.iter().zip(&[1.0, 2.0, 3.0]) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn tridiagonal_matches_dense_solver() {
        let n = 10;
        let sub: Vec<f64> = (0..n).map(|i| if i == 0 { 0.0 } else { -1.0 + 0.05 * i as f64 }).collect();
        let diag: Vec<f64> = (0..n).map(|i| 4.0 + 0.1 * i as f64).collect();
        let sup: Vec<f64> = (0..n).map(|i| if i == n - 1 { 0.0 } else { -0.7 }).collect();
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 2.0).collect();

        let tri = solve_tridiagonal(&sub, &diag, &sup, &rhs).unwrap();

        let mut dense = vec![0.0; n * n];
        for i in 0..n {
            dense[i * n + i] = diag[i];
            if i > 0 {
                dense[i * n + i - 1] = sub[i];
            }
            if i + 1 < n {
                dense[i * n + i + 1] = sup[i];
            }
        }
        let mut b = rhs.clone();
        solve_dense(&mut dense, &mut b).unwrap();
        for (t, d) in tri.iter().zip(&b) {
            assert!((t - d).abs() < 1e-10);
        }
    }

    #[test]
    fn tridiagonal_rejects_mismatched_lengths() {
        assert!(solve_tridiagonal(&[0.0], &[1.0, 1.0], &[0.0, 0.0], &[1.0, 1.0]).is_err());
    }

    #[test]
    fn tridiagonal_detects_zero_pivot() {
        assert!(matches!(
            solve_tridiagonal(&[0.0], &[0.0], &[0.0], &[1.0]),
            Err(NumError::SingularMatrix)
        ));
    }

    #[test]
    fn random_systems_round_trip() {
        // Deterministic pseudo-random matrix; verify A x = b residual.
        let n = 8;
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let a_orig: Vec<f64> = (0..n * n).map(|_| next() * 10.0).collect();
        let x_true: Vec<f64> = (0..n).map(|_| next() * 5.0).collect();
        let mut b: Vec<f64> = (0..n)
            .map(|i| (0..n).map(|j| a_orig[i * n + j] * x_true[j]).sum())
            .collect();
        let mut a = a_orig.clone();
        solve_dense(&mut a, &mut b).unwrap();
        for (got, want) in b.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-8, "got {got}, want {want}");
        }
    }
}
