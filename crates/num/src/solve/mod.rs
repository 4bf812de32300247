//! Root finding and linear algebra for the partitioning algorithms.
//!
//! * [`bisect`] / [`brent`] — scalar roots, used by the geometrical
//!   partitioning algorithm (bisection of lines through the origin) and
//!   as a robust fallback for the numerical algorithm.
//! * [`newton_system`] — damped multidimensional Newton with
//!   backtracking line search, the solver behind the Akima-FPM
//!   partitioner (the paper's "multidimensional solvers" \[15\]).
//! * [`solve_dense`] — Gaussian elimination with partial pivoting for
//!   the Newton steps.

mod lin;
mod newton;
mod scalar;

pub use lin::{solve_dense, solve_tridiagonal};
pub use newton::{finite_difference_jacobian, newton_system, NewtonOptions, NewtonReport};
pub use scalar::{bisect, brent, RootOptions};
