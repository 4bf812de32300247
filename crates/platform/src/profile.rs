//! Workload profiles: how computation units map to resource demands.
//!
//! The paper's key abstraction is the *computation unit*: a fixed chunk
//! of the application's core computation (one `b×b` block update for
//! matrix multiplication, one matrix row for Jacobi). A device's time to
//! process `d` units depends not only on the flop count but on the
//! memory footprint and, for accelerators, the bytes shipped over the
//! bus. A [`WorkloadProfile`] captures that mapping for one application
//! kernel so device models can answer "how long would *this* kernel
//! take for `d` units".

use serde::{Deserialize, Serialize};

/// Resource demands of `d` computation units of some application kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Demand {
    /// Floating-point operations performed.
    pub flops: f64,
    /// Peak resident working-set size in bytes.
    pub resident_bytes: f64,
    /// Bytes moved to/from an accelerator (or between kernel buffers)
    /// per execution of the kernel.
    pub transfer_bytes: f64,
}

/// Maps a problem size in computation units to resource [`Demand`]s.
///
/// # Examples
///
/// ```
/// use fupermod_platform::WorkloadProfile;
///
/// // The paper's matmul kernel with blocking factor 16: one unit is a
/// // 16x16 block update.
/// let profile = WorkloadProfile::matrix_update(16);
/// let demand = profile.demand(100);
/// assert!(demand.flops > 0.0);
/// assert!(demand.resident_bytes > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    name: String,
    kind: ProfileKind,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum ProfileKind {
    /// The paper's matrix-multiplication kernel (Fig. 1(b)): `d` units
    /// are a near-square `m×n` arrangement of `b×b` blocks of the three
    /// submatrices, updated by one GEMM call with pivot buffers.
    MatrixUpdate { block: usize },
    /// One unit is one row of an `N`-column Jacobi system (matrix row +
    /// vectors).
    JacobiSweep { columns: usize },
    /// Fully parametric linear profile for the unit tests.
    #[cfg(test)]
    Linear {
        flops_per_unit: f64,
        bytes_per_unit: f64,
        transfer_per_unit: f64,
        fixed_bytes: f64,
    },
}

impl WorkloadProfile {
    /// Profile of the paper's matmul computation unit: the update of one
    /// `block×block` block of `C` with parts of the pivot column/row.
    /// Complexity per unit is `2·b³` flops; `d` units keep
    /// `3·d·b²` matrix elements resident plus the two pivot buffers
    /// (`≈ 2·√d·b²` elements), all in `f64`.
    pub fn matrix_update(block: usize) -> Self {
        assert!(block > 0, "blocking factor must be positive");
        Self {
            name: format!("matrix-update(b={block})"),
            kind: ProfileKind::MatrixUpdate { block },
        }
    }

    /// Profile of one Jacobi row sweep unit over a system with the given
    /// number of columns: `2·columns` flops per unit, `(columns + 3)`
    /// resident `f64`s per unit (matrix row plus solution/rhs entries),
    /// and the freshly updated row communicated each iteration.
    pub fn jacobi_sweep(columns: usize) -> Self {
        assert!(columns > 0, "column count must be positive");
        Self {
            name: format!("jacobi-sweep(n={columns})"),
            kind: ProfileKind::JacobiSweep { columns },
        }
    }

    /// Fully parametric linear profile: `flops_per_unit` flops,
    /// `bytes_per_unit` resident bytes (plus `fixed_bytes`), and
    /// `transfer_per_unit` transferred bytes per unit.
    #[cfg(test)]
    pub fn linear(
        flops_per_unit: f64,
        bytes_per_unit: f64,
        transfer_per_unit: f64,
        fixed_bytes: f64,
    ) -> Self {
        assert!(
            flops_per_unit > 0.0 && bytes_per_unit >= 0.0 && transfer_per_unit >= 0.0,
            "profile parameters must be non-negative with positive flops"
        );
        Self {
            name: "linear".to_owned(),
            kind: ProfileKind::Linear {
                flops_per_unit,
                bytes_per_unit,
                transfer_per_unit,
                fixed_bytes,
            },
        }
    }

    /// Human-readable profile name (used in experiment output).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Resource demands for `d` computation units.
    pub fn demand(&self, d: u64) -> Demand {
        let d = d as f64;
        match self.kind {
            ProfileKind::MatrixUpdate { block } => {
                let b = block as f64;
                let elems = 3.0 * d * b * b;
                let pivot = 2.0 * d.sqrt().ceil() * b * b;
                Demand {
                    flops: 2.0 * d * b * b * b,
                    resident_bytes: 8.0 * (elems + pivot),
                    transfer_bytes: 8.0 * (d * b * b + pivot),
                }
            }
            ProfileKind::JacobiSweep { columns } => {
                let n = columns as f64;
                Demand {
                    flops: 2.0 * d * n,
                    resident_bytes: 8.0 * (d * (n + 3.0) + 2.0 * n),
                    transfer_bytes: 8.0 * d,
                }
            }
            #[cfg(test)]
            ProfileKind::Linear {
                flops_per_unit,
                bytes_per_unit,
                transfer_per_unit,
                fixed_bytes,
            } => Demand {
                flops: flops_per_unit * d,
                resident_bytes: bytes_per_unit * d + fixed_bytes,
                transfer_bytes: transfer_per_unit * d,
            },
        }
    }

    /// Flops for `d` units — the kernel "complexity" in the paper's
    /// sense, used to convert time to speed.
    pub fn complexity(&self, d: u64) -> f64 {
        self.demand(d).flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_update_scales_cubically_in_block() {
        let small = WorkloadProfile::matrix_update(8).demand(10);
        let large = WorkloadProfile::matrix_update(16).demand(10);
        assert!((large.flops / small.flops - 8.0).abs() < 1e-12);
    }

    #[test]
    fn matrix_update_flops_formula() {
        // 2 * d * b^3 with d = 4, b = 16.
        let d = WorkloadProfile::matrix_update(16).demand(4);
        assert_eq!(d.flops, 2.0 * 4.0 * 16.0f64.powi(3));
    }

    #[test]
    fn jacobi_demand_is_linear_in_rows() {
        let p = WorkloadProfile::jacobi_sweep(1000);
        let d1 = p.demand(10);
        let d2 = p.demand(20);
        assert!((d2.flops - 2.0 * d1.flops).abs() < 1e-9);
    }

    #[test]
    fn linear_profile_matches_parameters() {
        let p = WorkloadProfile::linear(100.0, 8.0, 2.0, 64.0);
        let d = p.demand(5);
        assert_eq!(d.flops, 500.0);
        assert_eq!(d.resident_bytes, 104.0);
        assert_eq!(d.transfer_bytes, 10.0);
    }

    #[test]
    fn zero_units_demand_only_fixed_memory() {
        let p = WorkloadProfile::linear(1.0, 1.0, 1.0, 32.0);
        let d = p.demand(0);
        assert_eq!(d.flops, 0.0);
        assert_eq!(d.resident_bytes, 32.0);
    }

    #[test]
    fn complexity_equals_demand_flops() {
        let p = WorkloadProfile::matrix_update(16);
        assert_eq!(p.complexity(123), p.demand(123).flops);
    }

    #[test]
    #[should_panic(expected = "blocking factor")]
    fn rejects_zero_block() {
        let _ = WorkloadProfile::matrix_update(0);
    }
}
