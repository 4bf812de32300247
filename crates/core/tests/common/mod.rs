//! Inputs shared by the geometric partitioner's count gate and its
//! pinned partitions.

use fupermod_core::model::{AkimaModel, Model};
use fupermod_core::Point;
use fupermod_platform::{Platform, WorkloadProfile};

/// A 64-bit LCG: the inputs need nothing better, and a shared
/// definition would tie the tests to another crate's stream.
pub struct Lcg(pub u64);

impl Lcg {
    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    /// A total in the benchmark's `offline_fpm` query range.
    pub fn total(&mut self) -> u64 {
        100_000 + self.next() % 1_500_000
    }
}

/// The benchmark's `offline_fpm` devices (a 64-core hybrid node,
/// seed 1) modelled as that workload models them: Akima models of 32
/// sizes from 32 to 2·10⁶ units in a geometric progression, each
/// timed once.
pub fn offline_models() -> Vec<AkimaModel> {
    let ratio = (2_000_000f64 / 32.0).powf(1.0 / 31.0);
    let sizes: Vec<u64> = (0..32)
        .map(|i| (32.0 * ratio.powi(i)).round() as u64)
        .collect();
    let profile = WorkloadProfile::matrix_update(16);
    Platform::hybrid_node(64, 1)
        .devices()
        .iter()
        .map(|device| {
            let mut m = AkimaModel::new();
            for &d in &sizes {
                m.update(Point::single(d, device.measured_time(d, &profile, 0)))
                    .unwrap();
            }
            m
        })
        .collect()
}
