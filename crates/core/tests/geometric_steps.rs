//! Pins what the geometric partitioner's resume rule and threshold
//! probes were built for, in counts a noisy host cannot blur: on the
//! probe shape of the benchmark's `offline_fpm` workload (64 Akima
//! models of a hybrid node, seeded totals) every call makes exactly the
//! outer comparisons and model evaluations pinned below, no more
//! evaluations than it made before descents resumed at their divergence
//! level, and steps at most two levels one at a time per evaluation — a
//! descent that begins again no longer re-walks its remembered levels.
//!
//! One test per file: it reads the process-wide telemetry registry.

mod common;

use common::{offline_models, Lcg};
use fupermod_core::model::Model;
use fupermod_core::partition::{GeometricPartitioner, Partitioner};
use fupermod_core::telemetry::{self, SampleValue};

/// Model evaluations per call, one per total, since the outer
/// bisection answers most of its comparisons from a few threshold
/// probes (59 146 → 42 358 in all).
const EVALS: [u64; 16] = [
    2607, 2717, 2746, 2608, 2742, 2455, 2511, 2861, 2706, 2373, 2571, 2597, 2746, 2746, 2564, 2808,
];

/// The evaluations commit e80f91d — the last before the resume rule,
/// which stepped ≈ 6.5 levels per evaluation here — made; no call may
/// make more.
const EVALS_BEFORE: [u64; 16] = [
    3939, 3735, 3752, 3532, 3682, 3692, 3390, 3859, 3666, 3600, 3623, 3531, 3778, 3967, 3743, 3657,
];

/// Outer comparisons per call, probes included (41–46 each, 689 in
/// all, before the probes).
const COMPARISONS: [u64; 16] = [
    27, 23, 26, 24, 25, 19, 21, 24, 22, 18, 20, 23, 21, 24, 23, 26,
];

fn counter(name: &str) -> u64 {
    match telemetry::global()
        .snapshot()
        .find(name, &[("algorithm", "geometric")])
    {
        Some(SampleValue::Counter(n)) => *n,
        None => 0,
        other => panic!("{name} is not a counter: {other:?}"),
    }
}

#[test]
fn geometric_steps_stay_within_twice_the_evaluations() {
    telemetry::global().set_enabled(true);
    let built = offline_models();
    let refs: Vec<&dyn Model> = built.iter().map(|m| m as &dyn Model).collect();
    let geometric = GeometricPartitioner::default();
    let mut evals = Vec::new();
    let mut steps = Vec::new();
    let mut comparisons = Vec::new();
    let mut draw = Lcg(1);
    for total in (0..EVALS.len()).map(|_| draw.total()) {
        let (e0, s0, c0) = (
            counter("partition_model_evals_total"),
            counter("partition_steps_total"),
            counter("partition_outer_iterations_total"),
        );
        let dist = geometric.partition(total, &refs).unwrap();
        assert_eq!(dist.total_assigned(), total);
        evals.push(counter("partition_model_evals_total") - e0);
        steps.push(counter("partition_steps_total") - s0);
        comparisons.push(counter("partition_outer_iterations_total") - c0);
    }
    assert_eq!(evals, EVALS, "model evaluations per call moved");
    assert_eq!(comparisons, COMPARISONS, "outer comparisons per call moved");
    for (e, before) in evals.iter().zip(&EVALS_BEFORE) {
        assert!(
            e <= before,
            "{e} evaluations, {before} before the resume rule"
        );
    }
    for (e, s) in evals.iter().zip(&steps) {
        assert!(s <= &(2 * e), "{s} steps for {e} evaluations");
    }
}
