//! Root finding and linear algebra for the partitioning algorithms.
//!
//! * [`bisect`] / [`brent`] — scalar roots, used by the geometrical
//!   partitioning algorithm (bisection of lines through the origin) and
//!   as a robust fallback for the numerical algorithm.
//! * [`newton_system`] — damped multidimensional Newton with
//!   backtracking line search, the solver behind the Akima-FPM
//!   partitioner (the paper's "multidimensional solvers" \[15\]).
//! * [`solve_diagonal_plus_constant`] — the Newton step of the
//!   equal-time system, whose Jacobian is a diagonal plus one constant
//!   everywhere else: O(n²) elimination that performs exactly the
//!   floating-point operations [`solve_dense`] performs on that matrix,
//!   and declines (for the caller to run [`solve_dense`]) wherever
//!   partial pivoting would leave the diagonal.
//! * [`solve_dense`] — Gaussian elimination with partial pivoting, for
//!   general Jacobians and the declined steps.

mod lin;
mod newton;
mod scalar;

pub use lin::{solve_dense, solve_diagonal_plus_constant, solve_tridiagonal};
pub use newton::{finite_difference_jacobian, newton_system, NewtonOptions, NewtonReport};
pub use scalar::{bisect, brent, RootOptions};
