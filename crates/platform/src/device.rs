//! Ground-truth device models.
//!
//! Each device answers one question: *how long does it take to process
//! `d` computation units of a given workload profile?* The framework
//! never sees these models directly — it only observes (noisy) timings,
//! exactly as the real FuPerMod only observes benchmark results. The
//! model shapes follow the phenomena the paper calls out:
//!
//! * **memory hierarchy** — a CPU's effective speed drops in plateaus as
//!   the working set outgrows successive cache levels, and collapses
//!   once it outgrows RAM (paging);
//! * **resource contention** — cores of a multicore node slow down when
//!   their siblings are active and the combined working set spills out
//!   of the shared cache (paper §3, situation (iii));
//! * **hybrid CPU/GPU** — a GPU's *combined* speed (with its dedicated
//!   host core) includes PCIe transfers and a launch overhead, and hits
//!   a wall at device-memory capacity unless an out-of-core
//!   implementation is available (paper §4.1).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::profile::WorkloadProfile;

/// One plateau of a CPU's memory hierarchy: while the working set fits
/// in `capacity_bytes`, the core sustains `flops` operations per second.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryLevel {
    /// Capacity of this level in bytes.
    pub capacity_bytes: f64,
    /// Sustained speed while the working set fits, in flop/s.
    pub flops: f64,
}

/// A single CPU core with a cache/memory hierarchy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuSpec {
    /// Cache/memory plateaus in increasing capacity order. The last
    /// entry is main memory.
    pub levels: Vec<MemoryLevel>,
    /// Sustained speed once the working set exceeds the last level
    /// (paging), in flop/s.
    pub paging_flops: f64,
}

impl CpuSpec {
    /// Effective speed in flop/s for a resident working set of `ws`
    /// bytes. Plateaus are blended smoothly (over one octave of working
    /// set growth past each capacity) so that spline models see a
    /// continuous, differentiable ground truth.
    fn effective_flops(&self, ws: f64) -> f64 {
        assert!(!self.levels.is_empty(), "CPU needs at least one level");
        let mut speed = self.levels[0].flops;
        for i in 0..self.levels.len() {
            let cap = self.levels[i].capacity_bytes;
            let next = if i + 1 < self.levels.len() {
                self.levels[i + 1].flops
            } else {
                self.paging_flops
            };
            speed = blend(speed, next, ws, cap);
        }
        speed
    }
}

/// Smoothstep blend from `from` to `to` as `ws` grows past `cap`
/// (transition completes at `2·cap`).
fn blend(from: f64, to: f64, ws: f64, cap: f64) -> f64 {
    if ws <= cap {
        return from;
    }
    if ws >= 2.0 * cap {
        return to;
    }
    let t = (ws / cap - 1.0).clamp(0.0, 1.0);
    let s = t * t * (3.0 - 2.0 * t);
    from * (1.0 - s) + to * s
}

/// One core of a multicore node with `active_cores` of its siblings
/// running the same kernel simultaneously — the configuration the paper
/// prescribes for measurement on multicore platforms \[18\].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MulticoreCoreSpec {
    /// The core in isolation.
    pub core: CpuSpec,
    /// How many cores of the node execute concurrently (including this
    /// one).
    pub active_cores: usize,
    /// Shared-cache capacity in bytes; contention kicks in once the
    /// *combined* working set outgrows it.
    pub shared_cache_bytes: f64,
    /// Maximum relative slowdown per extra active core at full memory
    /// pressure (e.g. `0.12` → each sibling costs up to 12%).
    pub contention_per_core: f64,
}

impl MulticoreCoreSpec {
    /// Effective speed of this core, in flop/s, for a per-core working
    /// set of `ws` bytes with `active_cores` cores running.
    fn effective_flops(&self, ws: f64) -> f64 {
        let solo = self.core.effective_flops(ws);
        let combined = ws * self.active_cores as f64;
        // Memory pressure ramps from 0 (fits shared cache) to 1.
        let pressure = 1.0 - blend(1.0, 0.0, combined, self.shared_cache_bytes);
        let slowdown =
            1.0 + self.contention_per_core * (self.active_cores as f64 - 1.0) * pressure;
        solo / slowdown
    }
}

/// A GPU together with its dedicated host core, measured synchronously
/// from the host as the paper prescribes \[13,19\].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Sustained device speed in flop/s.
    pub flops: f64,
    /// PCIe bandwidth in bytes/s used for host↔device transfers.
    pub pcie_bytes_per_sec: f64,
    /// Fixed host-side overhead per kernel execution (launches, driver),
    /// in seconds.
    pub host_overhead_sec: f64,
    /// Device memory capacity in bytes.
    pub memory_bytes: f64,
    /// Slowdown factor of an out-of-core implementation relative to the
    /// in-core kernel, if one is available. Without one, sizes beyond
    /// device memory are heavily penalised (`OUT_OF_MEMORY_PENALTY`)
    /// rather than made infeasible, so time functions stay finite.
    pub out_of_core_factor: Option<f64>,
}

/// Penalty applied to GPU kernel time past device memory when no
/// out-of-core implementation exists. Finite (rather than infinite) so
/// interpolated time functions and solvers remain well-defined; large
/// enough that no sane partition lands there.
const OUT_OF_MEMORY_PENALTY: f64 = 64.0;

impl GpuSpec {
    /// Combined host-observed execution time for a demand of `flops`,
    /// `resident` bytes on device and `transfer` bytes over PCIe.
    fn time(&self, flops: f64, resident: f64, transfer: f64) -> f64 {
        let transfer_time = self.host_overhead_sec + transfer / self.pcie_bytes_per_sec;
        let kernel_time = flops / self.flops;
        if resident <= self.memory_bytes {
            return transfer_time + kernel_time;
        }
        match self.out_of_core_factor {
            Some(factor) => {
                // Streaming passes: every byte beyond capacity crosses
                // PCIe again, and the kernel runs at the out-of-core
                // pace.
                let extra = (resident - self.memory_bytes).max(0.0);
                transfer_time + kernel_time * factor + extra / self.pcie_bytes_per_sec
            }
            None => transfer_time + kernel_time * OUT_OF_MEMORY_PENALTY,
        }
    }
}

/// The kind-specific part of a [`Device`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DeviceSpec {
    /// A dedicated single CPU core.
    Cpu(CpuSpec),
    /// One core of a multicore node under contention.
    MulticoreCore(MulticoreCoreSpec),
    /// A GPU bundled with its dedicated host core.
    Gpu(GpuSpec),
}

impl DeviceSpec {
    /// Short kind label for experiment output.
    pub fn kind(&self) -> &'static str {
        match self {
            DeviceSpec::Cpu(_) => "cpu",
            DeviceSpec::MulticoreCore(_) => "multicore-core",
            DeviceSpec::Gpu(_) => "gpu",
        }
    }
}

/// A named device with a ground-truth time function and a seeded noise
/// model.
///
/// # Examples
///
/// ```
/// use fupermod_platform::device::{CpuSpec, Device, DeviceSpec, MemoryLevel};
/// use fupermod_platform::WorkloadProfile;
///
/// let cpu = Device::new(
///     "cpu0",
///     DeviceSpec::Cpu(CpuSpec {
///         levels: vec![
///             MemoryLevel { capacity_bytes: 32e3, flops: 8e9 },
///             MemoryLevel { capacity_bytes: 8e6, flops: 6e9 },
///             MemoryLevel { capacity_bytes: 4e9, flops: 3e9 },
///         ],
///         paging_flops: 0.2e9,
///     }),
///     0.02,
///     42,
/// );
/// let profile = WorkloadProfile::matrix_update(16);
/// let t = cpu.ideal_time(100, &profile);
/// assert!(t > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Device {
    name: String,
    spec: DeviceSpec,
    noise_rel: f64,
    seed: u64,
}

impl Device {
    /// Creates a device.
    ///
    /// `noise_rel` is the relative standard deviation of measurement
    /// noise (e.g. `0.02` for 2%); `seed` makes the noise reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `noise_rel` is negative or not finite.
    pub fn new(name: impl Into<String>, spec: DeviceSpec, noise_rel: f64, seed: u64) -> Self {
        assert!(
            noise_rel.is_finite() && noise_rel >= 0.0,
            "noise_rel must be finite and >= 0"
        );
        Self {
            name: name.into(),
            spec,
            noise_rel,
            seed,
        }
    }

    /// The device's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Noise-free execution time, in seconds, for `d` computation units
    /// of `profile`. Zero units take zero time.
    pub fn ideal_time(&self, d: u64, profile: &WorkloadProfile) -> f64 {
        if d == 0 {
            return 0.0;
        }
        let demand = profile.demand(d);
        match &self.spec {
            DeviceSpec::Cpu(cpu) => demand.flops / cpu.effective_flops(demand.resident_bytes),
            DeviceSpec::MulticoreCore(mc) => {
                demand.flops / mc.effective_flops(demand.resident_bytes)
            }
            DeviceSpec::Gpu(gpu) => {
                gpu.time(demand.flops, demand.resident_bytes, demand.transfer_bytes)
            }
        }
    }

    /// A "measured" execution time: the ideal time with multiplicative
    /// noise. Deterministic in `(seed, d, run_index)`, so repeating a
    /// measurement with the same run index reproduces it while
    /// successive repetitions scatter like real benchmark samples.
    pub fn measured_time(&self, d: u64, profile: &WorkloadProfile, run_index: u64) -> f64 {
        let ideal = self.ideal_time(d, profile);
        if self.noise_rel == 0.0 || ideal == 0.0 {
            return ideal;
        }
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(d)
                .wrapping_mul(0x2545_F491_4F6C_DD1D)
                .wrapping_add(run_index),
        );
        // Two-uniform approximation of a Gaussian is plenty for
        // benchmark-style jitter; clamp keeps times positive.
        let z: f64 = rng.gen_range(-1.0..1.0) + rng.gen_range(-1.0..1.0);
        ideal * (1.0 + self.noise_rel * z).max(0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cpu() -> CpuSpec {
        CpuSpec {
            levels: vec![
                MemoryLevel {
                    capacity_bytes: 32e3,
                    flops: 8e9,
                },
                MemoryLevel {
                    capacity_bytes: 8e6,
                    flops: 6e9,
                },
                MemoryLevel {
                    capacity_bytes: 1e9,
                    flops: 3e9,
                },
            ],
            paging_flops: 0.1e9,
        }
    }

    fn gpu_spec(out_of_core: Option<f64>) -> GpuSpec {
        GpuSpec {
            flops: 200e9,
            pcie_bytes_per_sec: 8e9,
            host_overhead_sec: 50e-6,
            memory_bytes: 1e9,
            out_of_core_factor: out_of_core,
        }
    }

    #[test]
    fn cpu_speed_is_plateaued_and_decreasing() {
        let cpu = test_cpu();
        assert_eq!(cpu.effective_flops(1e3), 8e9);
        assert_eq!(cpu.effective_flops(1e6), 6e9);
        assert_eq!(cpu.effective_flops(100e6), 3e9);
        assert_eq!(cpu.effective_flops(10e9), 0.1e9);
        // Monotone non-increasing across the whole range.
        let mut last = f64::INFINITY;
        for i in 0..200 {
            let ws = 1e3 * 1.1f64.powi(i);
            let s = cpu.effective_flops(ws);
            assert!(s <= last + 1e-6, "speed rose at ws={ws}");
            last = s;
        }
    }

    #[test]
    fn cpu_blend_is_continuous() {
        let cpu = test_cpu();
        for cap in [32e3, 8e6, 1e9] {
            let before = cpu.effective_flops(cap * 0.999);
            let after = cpu.effective_flops(cap * 1.001);
            assert!(
                (before - after).abs() / before < 0.01,
                "jump at capacity {cap}"
            );
        }
    }

    #[test]
    fn contention_slows_cores_only_under_pressure() {
        let mc = MulticoreCoreSpec {
            core: test_cpu(),
            active_cores: 8,
            shared_cache_bytes: 16e6,
            contention_per_core: 0.1,
        };
        let solo = MulticoreCoreSpec {
            active_cores: 1,
            ..mc.clone()
        };
        // Tiny working set: combined footprint fits shared cache.
        assert!((mc.effective_flops(1e3) - solo.effective_flops(1e3)).abs() < 1e-3);
        // Large working set: 8 active cores are much slower per core.
        let contended = mc.effective_flops(50e6);
        let alone = solo.effective_flops(50e6);
        assert!(
            contended < 0.7 * alone,
            "contended {contended} vs alone {alone}"
        );
    }

    #[test]
    fn gpu_time_includes_transfer_and_overhead() {
        let gpu = gpu_spec(None);
        // Pure compute time would be flops/200e9; add transfer+overhead.
        let t = gpu.time(200e9, 1e6, 8e9);
        assert!((t - (1.0 + 1.0 + 50e-6)).abs() < 1e-9);
    }

    #[test]
    fn gpu_without_out_of_core_is_penalised_past_memory() {
        let gpu = gpu_spec(None);
        let in_core = gpu.time(1e9, 0.9e9, 1e6);
        let beyond = gpu.time(1e9, 1.1e9, 1e6);
        assert!(beyond > 10.0 * in_core);
    }

    #[test]
    fn gpu_with_out_of_core_degrades_gracefully() {
        let penalised = gpu_spec(None);
        let streaming = gpu_spec(Some(2.5));
        let hard = penalised.time(1e9, 1.5e9, 1e6);
        let soft = streaming.time(1e9, 1.5e9, 1e6);
        assert!(soft < hard, "out-of-core should beat the penalty path");
        assert!(soft > streaming.time(1e9, 0.5e9, 1e6));
    }

    #[test]
    fn zero_units_take_zero_time() {
        let dev = Device::new("d", DeviceSpec::Cpu(test_cpu()), 0.05, 7);
        let p = WorkloadProfile::matrix_update(16);
        assert_eq!(dev.ideal_time(0, &p), 0.0);
        assert_eq!(dev.measured_time(0, &p, 3), 0.0);
    }

    #[test]
    fn measured_time_is_deterministic_per_run_index() {
        let dev = Device::new("d", DeviceSpec::Cpu(test_cpu()), 0.05, 7);
        let p = WorkloadProfile::matrix_update(16);
        let a = dev.measured_time(100, &p, 0);
        let b = dev.measured_time(100, &p, 0);
        let c = dev.measured_time(100, &p, 1);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn measured_time_scatters_around_ideal() {
        let dev = Device::new("d", DeviceSpec::Cpu(test_cpu()), 0.03, 99);
        let p = WorkloadProfile::matrix_update(16);
        let ideal = dev.ideal_time(500, &p);
        let mean: f64 =
            (0..200).map(|i| dev.measured_time(500, &p, i)).sum::<f64>() / 200.0;
        assert!((mean / ideal - 1.0).abs() < 0.02, "mean {mean} vs {ideal}");
    }

    #[test]
    fn ideal_time_per_unit_reflects_memory_cliff() {
        let dev = Device::new("d", DeviceSpec::Cpu(test_cpu()), 0.0, 0);
        let p = WorkloadProfile::linear(1000.0, 1e4, 0.0, 0.0);
        // 100 units → 1 MB (fast); 1M units → 10 GB (paging).
        let per_unit = |d: u64| dev.ideal_time(d, &p) / d as f64;
        assert!(per_unit(1_000_000) > 10.0 * per_unit(100));
    }
}
