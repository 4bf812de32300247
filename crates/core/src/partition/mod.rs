//! Model-based data partitioning (the paper's `fupermod_partition`).
//!
//! A partitioner distributes `D` computation units over `p` processes,
//! guided by their performance models, so that all processes finish at
//! (nearly) the same time. Four algorithms are provided:
//!
//! * [`EvenPartitioner`] — the homogeneous baseline (`D/p` each);
//! * [`ConstantPartitioner`] — proportional to constant speeds (the
//!   paper's "basic algorithm based on CPMs");
//! * [`GeometricPartitioner`] — the geometrical algorithm of
//!   Lastovetsky–Reddy \[10\]: iterative bisection of the speed functions
//!   with lines through the origin, convergent on the restricted
//!   piecewise FPMs;
//! * [`NumericalPartitioner`] — the numerical algorithm of Rychkov et
//!   al. \[15\]: a multidimensional Newton solve of the equal-time system
//!   on smooth (Akima) models, with a robust fixed-point fallback.

mod constant;
mod geometric;
mod numerical;

pub use constant::{ConstantPartitioner, EvenPartitioner};
pub use geometric::GeometricPartitioner;
pub use numerical::NumericalPartitioner;

use serde::{Deserialize, Serialize};

use fupermod_num::apportion::largest_remainder;

use crate::model::Model;
use crate::CoreError;

/// One process's share of the workload: `d` computation units with
/// predicted execution time `t` (the paper's `fupermod_part`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Part {
    /// Assigned computation units.
    pub d: u64,
    /// Predicted execution time for `d` units, in seconds.
    pub t: f64,
}

/// A distribution of `total` computation units over processes (the
/// paper's `fupermod_dist`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Distribution {
    total: u64,
    parts: Vec<Part>,
}

impl Distribution {
    /// The even distribution of `total` units over `size` processes —
    /// the usual starting point of the dynamic algorithms.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn even(total: u64, size: usize) -> Self {
        assert!(size > 0, "distribution needs at least one process");
        let shares =
            largest_remainder(&vec![1.0; size], total).expect("even weights are valid");
        Self {
            total,
            parts: shares.into_iter().map(|d| Part { d, t: 0.0 }).collect(),
        }
    }

    /// Builds a distribution from explicit parts.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the parts don't sum to `total`.
    pub fn from_parts(total: u64, parts: Vec<Part>) -> Self {
        assert!(!parts.is_empty(), "distribution needs at least one part");
        assert_eq!(
            parts.iter().map(|p| p.d).sum::<u64>(),
            total,
            "parts must sum to the total"
        );
        Self { total, parts }
    }

    /// Total problem size in computation units.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of processes.
    pub fn size(&self) -> usize {
        self.parts.len()
    }

    /// Per-process shares.
    pub fn parts(&self) -> &[Part] {
        &self.parts
    }

    /// Sum of assigned units (always equals [`Distribution::total`];
    /// exposed for assertions).
    pub fn total_assigned(&self) -> u64 {
        self.parts.iter().map(|p| p.d).sum()
    }

    /// Assigned sizes only, in process order.
    pub fn sizes(&self) -> Vec<u64> {
        self.parts.iter().map(|p| p.d).collect()
    }

    /// Predicted makespan: the largest per-process predicted time.
    pub fn predicted_makespan(&self) -> f64 {
        self.parts.iter().fold(0.0, |m, p| m.max(p.t))
    }

    /// Relative load imbalance of the given per-process times:
    /// `(t_max - t_min) / t_max`, `0` when all times are zero.
    pub fn imbalance_of(times: &[f64]) -> f64 {
        let max = times.iter().fold(0.0_f64, |m, t| m.max(*t));
        let min = times.iter().fold(f64::INFINITY, |m, t| m.min(*t));
        if max <= 0.0 {
            0.0
        } else {
            (max - min) / max
        }
    }

    /// Relative imbalance of the *predicted* times of this distribution.
    pub fn predicted_imbalance(&self) -> f64 {
        let times: Vec<f64> = self.parts.iter().map(|p| p.t).collect();
        Self::imbalance_of(&times)
    }
}

/// A model-based data-partitioning algorithm.
///
/// Matches the paper's `fupermod_partition` function-pointer interface:
/// the number of processes is implied by the model slice, and the
/// result carries both sizes and predicted times.
pub trait Partitioner {
    /// Distributes `total` units according to `models`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Partition`] if `models` is empty or any
    /// model lacks the data the algorithm needs, and propagates solver
    /// failures.
    fn partition(&self, total: u64, models: &[&dyn Model]) -> Result<Distribution, CoreError>;

    /// Like [`Partitioner::partition`], additionally recording a
    /// one-shot [`crate::trace::TraceEvent::PartitionStep`] (with
    /// `iter = 0` and the distribution's *predicted* imbalance) to
    /// `sink`. Static partitionings thereby show up in the same trace
    /// stream as dynamic refinement steps.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Partitioner::partition`].
    fn partition_traced(
        &self,
        total: u64,
        models: &[&dyn Model],
        sink: &dyn crate::trace::TraceSink,
    ) -> Result<Distribution, CoreError> {
        let dist = self.partition(total, models)?;
        sink.record(&crate::trace::TraceEvent::PartitionStep {
            iter: 0,
            dist: dist.sizes(),
            imbalance: dist.predicted_imbalance(),
            units_moved: 0,
        });
        Ok(dist)
    }
}

/// Rounds a continuous distribution to integers (preserving the total)
/// and attaches each part's predicted time.
pub(crate) fn finalize(
    total: u64,
    continuous: &[f64],
    models: &[&dyn Model],
) -> Result<Distribution, CoreError> {
    crate::telemetry::run_totals().repartitions.inc();
    let weights: Vec<f64> = continuous.iter().map(|d| d.max(0.0)).collect();
    let shares = largest_remainder(&weights, total).map_err(CoreError::from)?;
    let parts = shares
        .iter()
        .zip(models)
        .map(|(&d, m)| Part {
            d,
            t: m.time(d as f64).unwrap_or(0.0),
        })
        .collect();
    Ok(Distribution { total, parts })
}

/// Checks the common preconditions shared by all partitioners.
pub(crate) fn check_inputs(models: &[&dyn Model]) -> Result<(), CoreError> {
    if models.is_empty() {
        return Err(CoreError::Partition(
            "cannot partition over zero processes".to_owned(),
        ));
    }
    for (i, m) in models.iter().enumerate() {
        if !m.is_ready() {
            return Err(CoreError::Partition(format!(
                "model of process {i} has no experimental points"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_distribution_spreads_remainders() {
        let d = Distribution::even(10, 3);
        assert_eq!(d.sizes(), vec![4, 3, 3]);
        assert_eq!(d.total_assigned(), 10);
    }

    #[test]
    fn imbalance_is_relative_spread() {
        assert_eq!(Distribution::imbalance_of(&[1.0, 1.0, 1.0]), 0.0);
        assert!((Distribution::imbalance_of(&[2.0, 1.0]) - 0.5).abs() < 1e-12);
        assert_eq!(Distribution::imbalance_of(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn imbalance_of_degenerate_inputs_is_zero_and_finite() {
        // Regression: `t_max == 0`, empty and single-observation inputs
        // must yield exactly 0.0, never NaN or a negative value.
        assert_eq!(Distribution::imbalance_of(&[]), 0.0);
        assert_eq!(Distribution::imbalance_of(&[5.0]), 0.0);
        assert_eq!(Distribution::imbalance_of(&[0.0]), 0.0);
        assert!(Distribution::imbalance_of(&[0.0, 0.0, 0.0]).is_finite());
    }

    #[test]
    #[should_panic(expected = "sum to the total")]
    fn from_parts_validates_total() {
        let _ = Distribution::from_parts(10, vec![Part { d: 3, t: 0.0 }]);
    }

    #[test]
    fn predicted_makespan_is_max_time() {
        let d = Distribution::from_parts(
            3,
            vec![
                Part { d: 1, t: 0.5 },
                Part { d: 1, t: 2.0 },
                Part { d: 1, t: 1.0 },
            ],
        );
        assert_eq!(d.predicted_makespan(), 2.0);
    }
}
