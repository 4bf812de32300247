//! Ready-made heterogeneous testbeds.
//!
//! The paper's experiments ran on Grid'5000: a dedicated mix of fast and
//! slow CPUs, multicore nodes, and GPU-accelerated nodes. These
//! constructors assemble analogous synthetic platforms with fixed seeds
//! so every experiment in the repository is reproducible bit-for-bit.

use serde::{Deserialize, Serialize};

use crate::comm::LinkModel;
use crate::device::{CpuSpec, Device, DeviceSpec, GpuSpec, MemoryLevel, MulticoreCoreSpec};

/// Default relative measurement noise for synthetic devices (2%), about
/// what a well-pinned dedicated node shows in practice.
const DEFAULT_NOISE: f64 = 0.02;

/// A named set of devices connected by a uniform link model.
///
/// # Examples
///
/// ```
/// use fupermod_platform::Platform;
///
/// let platform = Platform::two_speed(2, 2, 42);
/// assert_eq!(platform.size(), 4);
/// assert!(platform.device(0).name().starts_with("fast"));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    name: String,
    devices: Vec<Device>,
    link: LinkModel,
}

impl Platform {
    /// Builds a platform from parts.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty.
    pub fn new(name: impl Into<String>, devices: Vec<Device>, link: LinkModel) -> Self {
        assert!(!devices.is_empty(), "platform needs at least one device");
        Self {
            name: name.into(),
            devices,
            link,
        }
    }

    /// Platform name for experiment output.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of devices (= processes in the paper's sense).
    pub fn size(&self) -> usize {
        self.devices.len()
    }

    /// Device at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn device(&self, index: usize) -> &Device {
        &self.devices[index]
    }

    /// All devices in rank order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// The interconnect model.
    pub fn link(&self) -> LinkModel {
        self.link
    }

    /// Returns the same platform with a different interconnect.
    pub fn with_link(mut self, link: LinkModel) -> Self {
        self.link = link;
        self
    }

    /// `n` identical fast CPU cores — the homogeneous control platform.
    pub fn uniform(n: usize, seed: u64) -> Self {
        let devices = (0..n)
            .map(|i| fast_cpu(format!("cpu{i}"), seed.wrapping_add(i as u64)))
            .collect();
        Self::new(format!("uniform-{n}"), devices, LinkModel::ethernet())
    }

    /// `n_fast` fast cores plus `n_slow` cores at roughly a third of the
    /// speed with smaller caches — the classic heterogeneous network of
    /// uniprocessors.
    pub fn two_speed(n_fast: usize, n_slow: usize, seed: u64) -> Self {
        let mut devices = Vec::with_capacity(n_fast + n_slow);
        for i in 0..n_fast {
            devices.push(fast_cpu(format!("fast{i}"), seed.wrapping_add(i as u64)));
        }
        for i in 0..n_slow {
            devices.push(slow_cpu(
                format!("slow{i}"),
                seed.wrapping_add(1000 + i as u64),
            ));
        }
        Self::new(
            format!("two-speed-{n_fast}f{n_slow}s"),
            devices,
            LinkModel::ethernet(),
        )
    }

    /// A multicore node: `cores` cores sharing one cache, all active —
    /// the paper's measurement configuration for multicores \[18\].
    pub fn multicore_node(cores: usize, seed: u64) -> Self {
        Self::new(
            format!("multicore-{cores}"),
            multicore_cores("core", cores, seed),
            LinkModel::infiniband(),
        )
    }

    /// A hybrid node: `cores` contended CPU cores plus one GPU with its
    /// dedicated host core (the GPU rank *replaces* one CPU rank, as in
    /// the paper's hybrid configuration \[19\]).
    pub fn hybrid_node(cores: usize, seed: u64) -> Self {
        assert!(cores >= 2, "hybrid node needs at least two cores");
        let mut devices = multicore_cores("core", cores - 1, seed);
        devices.push(gpu("gpu0", seed.wrapping_add(7777), true));
        Self::new(format!("hybrid-{cores}"), devices, LinkModel::infiniband())
    }

    /// A 16-device site mixing everything: 4 fast CPUs, 4 slow CPUs, a
    /// 6-core contended node, and 2 GPUs (one without out-of-core
    /// support) — the "highly heterogeneous" target platform.
    pub fn grid_site(seed: u64) -> Self {
        let mut devices = Vec::with_capacity(16);
        for i in 0..4 {
            devices.push(fast_cpu(format!("fast{i}"), seed.wrapping_add(i)));
        }
        for i in 0..4 {
            devices.push(slow_cpu(format!("slow{i}"), seed.wrapping_add(100 + i)));
        }
        devices.extend(multicore_cores("mc", 6, seed.wrapping_add(200)));
        devices.push(gpu("gpu0", seed.wrapping_add(300), true));
        devices.push(gpu("gpu1", seed.wrapping_add(301), false));
        Self::new("grid-site", devices, LinkModel::ethernet())
    }
}

/// A fast CPU core: ~10 Gflop/s in L1 falling to ~3 Gflop/s in RAM.
pub fn fast_cpu(name: impl Into<String>, seed: u64) -> Device {
    Device::new(
        name,
        DeviceSpec::Cpu(CpuSpec {
            levels: vec![
                MemoryLevel {
                    capacity_bytes: 64e3,
                    flops: 10e9,
                },
                MemoryLevel {
                    capacity_bytes: 1e6,
                    flops: 8e9,
                },
                MemoryLevel {
                    capacity_bytes: 8e6,
                    flops: 6e9,
                },
                MemoryLevel {
                    capacity_bytes: 8e9,
                    flops: 3e9,
                },
            ],
            paging_flops: 0.15e9,
        }),
        DEFAULT_NOISE,
        seed,
    )
}

/// A slow CPU core: about a third of the fast core with smaller caches,
/// so its memory cliffs fall at *different* problem sizes — the
/// heterogeneity that defeats constant models.
pub fn slow_cpu(name: impl Into<String>, seed: u64) -> Device {
    Device::new(
        name,
        DeviceSpec::Cpu(CpuSpec {
            levels: vec![
                MemoryLevel {
                    capacity_bytes: 32e3,
                    flops: 3.5e9,
                },
                MemoryLevel {
                    capacity_bytes: 512e3,
                    flops: 2.8e9,
                },
                MemoryLevel {
                    capacity_bytes: 2e6,
                    flops: 2.0e9,
                },
                MemoryLevel {
                    capacity_bytes: 2e9,
                    flops: 1.0e9,
                },
            ],
            paging_flops: 0.05e9,
        }),
        DEFAULT_NOISE,
        seed,
    )
}

/// `cores` identical contended cores of one node, all active.
pub fn multicore_cores(prefix: &str, cores: usize, seed: u64) -> Vec<Device> {
    assert!(cores > 0, "node needs at least one core");
    (0..cores)
        .map(|i| {
            Device::new(
                format!("{prefix}{i}"),
                DeviceSpec::MulticoreCore(MulticoreCoreSpec {
                    core: CpuSpec {
                        levels: vec![
                            MemoryLevel {
                                capacity_bytes: 32e3,
                                flops: 7e9,
                            },
                            MemoryLevel {
                                capacity_bytes: 256e3,
                                flops: 5.5e9,
                            },
                            MemoryLevel {
                                capacity_bytes: 4e9,
                                flops: 2.5e9,
                            },
                        ],
                        paging_flops: 0.1e9,
                    },
                    active_cores: cores,
                    shared_cache_bytes: 12e6,
                    contention_per_core: 0.08,
                }),
                DEFAULT_NOISE,
                seed.wrapping_add(i as u64),
            )
        })
        .collect()
}

/// A GPU with its dedicated host core. ~200 Gflop/s device speed, PCIe
/// gen-2-class bandwidth, 256 MB of device memory so the out-of-core
/// boundary falls inside experiment ranges.
pub fn gpu(name: impl Into<String>, seed: u64, out_of_core: bool) -> Device {
    Device::new(
        name,
        DeviceSpec::Gpu(GpuSpec {
            flops: 200e9,
            pcie_bytes_per_sec: 6e9,
            host_overhead_sec: 80e-6,
            memory_bytes: 256e6,
            out_of_core_factor: if out_of_core { Some(2.5) } else { None },
        }),
        DEFAULT_NOISE,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadProfile;

    #[test]
    fn testbeds_have_expected_sizes() {
        assert_eq!(Platform::uniform(4, 0).size(), 4);
        assert_eq!(Platform::two_speed(3, 5, 0).size(), 8);
        assert_eq!(Platform::multicore_node(8, 0).size(), 8);
        assert_eq!(Platform::hybrid_node(4, 0).size(), 4);
        assert_eq!(Platform::grid_site(0).size(), 16);
    }

    #[test]
    fn fast_cpu_beats_slow_cpu_everywhere() {
        let fast = fast_cpu("f", 0);
        let slow = slow_cpu("s", 0);
        let p = WorkloadProfile::matrix_update(16);
        for d in [1u64, 10, 100, 1000, 10_000] {
            assert!(
                fast.ideal_time(d, &p) < slow.ideal_time(d, &p),
                "fast not faster at d={d}"
            );
        }
    }

    #[test]
    fn gpu_wins_at_large_sizes_loses_at_tiny_sizes() {
        let g = gpu("g", 0, true);
        let c = fast_cpu("c", 0);
        let p = WorkloadProfile::matrix_update(16);
        // Tiny problem: host overhead + transfer dominates.
        assert!(g.ideal_time(1, &p) > c.ideal_time(1, &p));
        // Large in-core problem: raw device speed dominates.
        assert!(g.ideal_time(20_000, &p) < c.ideal_time(20_000, &p));
    }

    #[test]
    fn grid_site_is_genuinely_heterogeneous() {
        let platform = Platform::grid_site(1);
        let p = WorkloadProfile::matrix_update(16);
        let times: Vec<f64> = platform
            .devices()
            .iter()
            .map(|d| d.ideal_time(1000, &p))
            .collect();
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 2.0, "spread {min}..{max} too small");
    }

    #[test]
    fn devices_have_unique_names() {
        let platform = Platform::grid_site(1);
        let mut names: Vec<&str> = platform.devices().iter().map(|d| d.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), platform.size());
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn rejects_empty_platform() {
        let _ = Platform::new("x", Vec::new(), LinkModel::ethernet());
    }
}
