//! The numerical partitioner's verdicts, pinned against the build that
//! still solved every Newton step by dense elimination:
//! `fixtures/numerical_pinned.txt` holds one case a line — family,
//! process count, model seed, total — and the sizes with the bits of
//! every predicted time, or the error text, that build gave. The
//! families cover monotone Akima models (every step structured), spike
//! models whose falling segments make steps decline to dense
//! elimination, and a partitioner with `max_iter: 0` that always takes
//! the fixed-point fallback.
//!
//! One test per file: it reads the process-wide telemetry registry.

use fupermod_core::model::{AkimaModel, Model};
use fupermod_core::partition::{NumericalPartitioner, Partitioner};
use fupermod_core::telemetry::{self, SampleValue};
use fupermod_core::Point;
use fupermod_num::solve::NewtonOptions;

/// A 64-bit LCG: the model generator needs nothing better, and a
/// shared definition would tie the fixture to another crate's stream.
struct Lcg(u64);

impl Lcg {
    fn unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `p` Akima models drawn from `seed`: per device a speed of 10…1000
/// units/s that falls off past a knee of 1e3…1e5 units, sampled at
/// 32 · 2^j, j < 13. `spike` multiplies one interior sample of every
/// other device by 1.5…6, so the time function falls after it.
fn models(p: usize, seed: u64, spike: bool) -> Vec<AkimaModel> {
    let mut rng = Lcg(seed);
    (0..p)
        .map(|i| {
            let speed = 10f64.powf(1.0 + 2.0 * rng.unit());
            let knee = 10f64.powf(3.0 + 2.0 * rng.unit());
            let spiked = (spike && i % 2 == 0)
                .then(|| (2 + (rng.unit() * 9.0) as usize, 1.5 + 4.5 * rng.unit()));
            let mut m = AkimaModel::new();
            for j in 0..13 {
                let d = 32u64 << j;
                let mut t = d as f64 / speed * (1.0 + d as f64 / knee);
                if let Some((at, factor)) = spiked {
                    if at == j {
                        t *= factor;
                    }
                }
                m.update(Point::single(d, t)).unwrap();
            }
            m
        })
        .collect()
}

/// The partitioner and models of one fixture family.
fn family(name: &str, p: usize, seed: u64) -> (NumericalPartitioner, Vec<AkimaModel>) {
    let default = NumericalPartitioner::default();
    match name {
        "akima" => (default, models(p, seed, false)),
        "spike" => (default, models(p, seed, true)),
        "fixed" => (
            NumericalPartitioner {
                newton: NewtonOptions {
                    max_iter: 0,
                    ..default.newton
                },
                ..default
            },
            models(p, seed, false),
        ),
        other => panic!("unknown family {other}"),
    }
}

/// `ok d:tbits,…` or `err <message>`.
fn verdict(name: &str, p: usize, seed: u64, total: u64) -> String {
    let (partitioner, models) = family(name, p, seed);
    let refs: Vec<&dyn Model> = models.iter().map(|m| m as &dyn Model).collect();
    match partitioner.partition(total, &refs) {
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

fn counter(name: &str, labels: &[(&str, &str)]) -> u64 {
    match telemetry::global().snapshot().find(name, labels) {
        Some(SampleValue::Counter(n)) => *n,
        None => 0,
        other => panic!("{name} is not a counter: {other:?}"),
    }
}

#[test]
fn numerical_partitions_replay_the_parent_verdicts() {
    telemetry::global().set_enabled(true);
    let mut cases = 0;
    let mut dense_by_family = std::collections::BTreeMap::new();
    for line in include_str!("fixtures/numerical_pinned.txt").lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let mut fields = line.splitn(5, ' ');
        let mut next = || fields.next().expect("five fields");
        let (name, p, seed, total, want) = (next(), next(), next(), next(), next());
        let (p, seed, total) = (
            p.parse().unwrap(),
            seed.parse().unwrap(),
            total.parse().unwrap(),
        );
        let before = counter("fupermod_numerical_dense_steps_total", &[]);
        assert_eq!(
            verdict(name, p, seed, total),
            want,
            "{name} p={p} seed={seed} total={total}"
        );
        *dense_by_family.entry(name).or_insert(0) +=
            counter("fupermod_numerical_dense_steps_total", &[]) - before;
        cases += 1;
    }
    assert!(cases >= 90, "fixture truncated: {cases} cases");
    // The replay is only as good as the paths it takes.
    assert_eq!(dense_by_family["akima"], 0, "a monotone Jacobian declined");
    assert!(
        dense_by_family["spike"] > 0,
        "no spike case declined a step"
    );
    assert!(
        counter(
            "fupermod_numerical_fallbacks_total",
            &[("reason", "no_convergence")]
        ) > 0
    );
}
