//! The geometric partitioner's verdicts, pinned against the build that
//! still re-walked a restarted descent level by level:
//! `fixtures/geometric_pinned.txt` holds one case a line — family,
//! process count, state, total — and the sizes with the bits of every
//! predicted time, or the error text, that build gave. The families
//! are the two workloads the partitioner carries in the benchmark:
//!
//! * `offline` — the 64 Akima models of `offline_fpm`'s hybrid node
//!   (state: the seed of the totals' LCG, one case per total);
//! * `dynamic` — the 2000 partial piecewise models of `sim_balance`'s
//!   two-speed platform after `state` steps of dynamic partitioning
//!   with this partitioner, at the workload's total.

mod common;

use common::{offline_models, Lcg};
use fupermod_core::dynamic::DynamicContext;
use fupermod_core::model::{Model, PiecewiseModel};
use fupermod_core::partition::{GeometricPartitioner, Partitioner};
use fupermod_core::Point;
use fupermod_platform::{Platform, WorkloadProfile};

/// The balancing loop of `dynamic` after `steps` steps.
fn dynamic(p: usize, steps: u64) -> DynamicContext {
    let platform = Platform::two_speed(p / 2, p / 2, 1);
    let profile = WorkloadProfile::matrix_update(16);
    let models = (0..p)
        .map(|_| Box::new(PiecewiseModel::new()) as Box<dyn Model>)
        .collect();
    let mut ctx = DynamicContext::new(
        Box::new(GeometricPartitioner::default()),
        models,
        100 * p as u64,
        1e-12,
    );
    for _ in 0..steps {
        ctx.partition_iterate(|rank, d| {
            Ok(Point::single(
                d,
                platform.device(rank).measured_time(d, &profile, 0),
            ))
        })
        .unwrap();
    }
    ctx
}

/// `ok d:tbits,…` or `err <message>`.
fn verdict(models: &[&dyn Model], total: u64) -> String {
    match GeometricPartitioner::default().partition(total, models) {
        Ok(dist) => {
            let parts: Vec<String> = dist
                .parts()
                .iter()
                .map(|part| format!("{}:{:016x}", part.d, part.t.to_bits()))
                .collect();
            format!("ok {}", parts.join(","))
        }
        Err(e) => format!("err {e}"),
    }
}

#[test]
fn geometric_partitions_replay_the_parent_verdicts() {
    let offline = offline_models();
    let offline: Vec<&dyn Model> = offline.iter().map(|m| m as &dyn Model).collect();
    let mut draw = Lcg(1);
    let mut cases = std::collections::BTreeMap::new();
    for line in include_str!("fixtures/geometric_pinned.txt").lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let mut fields = line.splitn(5, ' ');
        let mut next = || fields.next().expect("five fields");
        let (name, p, state, total, want) = (next(), next(), next(), next(), next());
        let (p, state, total): (usize, u64, u64) = (
            p.parse().unwrap(),
            state.parse().unwrap(),
            total.parse().unwrap(),
        );
        let got = match name {
            "offline" => {
                assert_eq!((state, total), (1, draw.total()), "not the LCG's next total");
                verdict(&offline[..p], total)
            }
            "dynamic" => {
                let ctx = dynamic(p, state);
                let refs: Vec<&dyn Model> = ctx.models().iter().map(|m| &**m).collect();
                verdict(&refs, total)
            }
            other => panic!("unknown family {other}"),
        };
        assert!(got == want, "{name} p={p} state={state} total={total}");
        *cases.entry(name).or_insert(0) += 1;
    }
    assert!(
        cases.get("offline") >= Some(&40) && cases.get("dynamic") >= Some(&3),
        "fixture truncated: {cases:?}"
    );
}
