//! The eight workloads. Each generates its inputs from the seed, runs
//! against the crates' public functions only, and checks its outputs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::tracer::{Attribution, Scope};

mod app_thread;
mod comm_program;
mod offline_fpm;
mod serve;
mod sim_balance;
mod sim_collectives;
mod tcp;

/// Operations attempted and failed. An operation fails when it
/// errors, times out, or fails its output check.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the report.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one operation; `note` describes it when it failed.
    pub fn op(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 5 {
                self.notes.push(note());
            }
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 5 {
                self.notes.push(n);
            }
        }
    }
}

/// What one complete execution of a workload produced.
#[derive(Debug, Default, Clone)]
pub struct PassOutput {
    /// Latency of each unit operation, microseconds (host time).
    pub op_us: Vec<f64>,
    pub checks: Checks,
    /// Modelled-platform (simulated) seconds of what the pass
    /// produced: a pure function of seed and code.
    pub virtual_s: f64,
    /// Hash of the pass's outputs; equal across passes of one seed.
    pub fingerprint: u64,
    /// Named exact counts (steps, event counts, refresh outcomes):
    /// pinned by the seed-1 goldens beside the fingerprint.
    pub exact: Vec<(&'static str, u64)>,
    /// Per-layer observations made by the pass itself (stage spans,
    /// achieved rates, exact counts), by metric name.
    pub layer: Vec<(&'static str, f64)>,
}

/// State shared by the probes of a traced run.
#[derive(Debug, Default)]
pub struct ProbeCtx {
    /// Per-layer metric values, by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Self time per layer over the traced passes; probes move
    /// *computed* nested shares between layers here.
    pub attribution: Attribution,
    /// Traced passes `attribution` sums over.
    pub passes: usize,
}

impl ProbeCtx {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

pub trait Workload {
    /// Generates the next pass's inputs where they differ from pass to
    /// pass. Called before every pass, outside its timed region.
    fn prepare(&mut self) {}

    /// One complete execution at the workload's stated size.
    fn pass(&mut self, scope: &mut Scope<'_>) -> PassOutput;

    /// Layer probes: counted loops over a layer's public function on
    /// inputs taken from the workload, and the computed shares they
    /// imply. Runs once, after the traced passes.
    fn probes(&mut self, ctx: &mut ProbeCtx);

    /// Releases sockets, threads and files. Called exactly once.
    fn teardown(self: Box<Self>) {}
}

/// Builds the named workload's inputs from `seed` and boots whatever
/// it serves from (set-up, minus the warm-up pass the caller runs).
pub fn setup(name: &str, seed: u64, scope: &mut Scope<'_>) -> Option<Box<dyn Workload>> {
    Some(match name {
        "offline_fpm" => Box::new(offline_fpm::OfflineFpm::setup(seed)),
        "app_thread" => Box::new(app_thread::AppThread::setup(seed)),
        "tcp_bulk" => Box::new(tcp::TcpWorkload::setup(seed, tcp::Shape::Bulk, scope)),
        "tcp_rounds" => Box::new(tcp::TcpWorkload::setup(seed, tcp::Shape::Rounds, scope)),
        "sim_balance" => Box::new(sim_balance::SimBalance::setup(seed)),
        "sim_collectives" => Box::new(sim_collectives::SimCollectives::setup(seed)),
        "serve_read" => Box::new(serve::Serve::setup(seed, serve::Mix::Read)),
        "serve_ingest" => Box::new(serve::Serve::setup(seed, serve::Mix::Ingest)),
        _ => return None,
    })
}

/// FNV-1a over 64-bit words: the output fingerprint every workload
/// uses for its bit-equality checks and goldens.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &byte in b {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Seconds per call of `f`: the median over five batches, each sized
/// from a calibration call to about a fifth of `budget`. `f` must be
/// repeatable.
pub fn seconds_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let per_batch = ((budget.as_secs_f64() / 5.0 / once) as usize).clamp(1, 1_000_000);
    let mut batches = [0.0f64; 5];
    for b in &mut batches {
        let t0 = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        *b = t0.elapsed().as_secs_f64() / per_batch as f64;
    }
    crate::stats::median(&batches)
}

/// Default probe budget: long enough for a steady median, short enough
/// that a workload's dozen probes stay well inside a run.
pub const PROBE_BUDGET: Duration = Duration::from_millis(60);
