//! `offline_fpm` — the paper's static pipeline: benchmark every device
//! of a hybrid node, build one Akima FPM each, persist and reload the
//! models, then answer partition queries with both FPM algorithms and
//! score the result against the devices' ground truth.

use std::path::PathBuf;
use std::time::Instant;

use fupermod_core::builder::ModelBuilder;
use fupermod_core::kernel::{DeviceKernel, Kernel};
use fupermod_core::model::{io, AkimaModel, Model};
use fupermod_core::partition::{
    Distribution, GeometricPartitioner, NumericalPartitioner, Partitioner,
};
use fupermod_core::Precision;
use fupermod_platform::{Platform, WorkloadProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{Fnv, PassOutput, ProbeCtx, Workload};
use crate::probes;
use crate::tracer::Scope;

const DEVICES: usize = 64;
const GRID_POINTS: usize = 32;
const GRID_LO: u64 = 32;
const GRID_HI: u64 = 2_000_000;
const QUERIES: usize = 96;

pub struct OfflineFpm {
    platform: Platform,
    profile: WorkloadProfile,
    sizes: Vec<u64>,
    precision: Precision,
    totals: Vec<u64>,
    dir: PathBuf,
    /// The reloaded models of the latest pass (probe inputs).
    models: Vec<AkimaModel>,
}

impl OfflineFpm {
    pub fn setup(seed: u64) -> Self {
        let sizes = fupermod_bench::size_grid(GRID_LO, GRID_HI, GRID_POINTS);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x000f_f11e);
        let totals = (0..QUERIES)
            .map(|_| rng.gen_range(100_000u64..1_600_000))
            .collect();
        let dir = crate::out_dir().join(format!("offline_fpm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create model directory under benchmark/out");
        Self {
            platform: Platform::hybrid_node(DEVICES, seed),
            profile: WorkloadProfile::matrix_update(16),
            sizes,
            precision: Precision::default(),
            totals,
            dir,
            models: Vec::new(),
        }
    }

    /// Ground-truth per-device times of `dist` on the real devices.
    fn ground_truth(&self, dist: &Distribution) -> Vec<f64> {
        dist.parts()
            .iter()
            .zip(self.platform.devices())
            .map(|(part, dev)| dev.ideal_time(part.d, &self.profile))
            .collect()
    }
}

impl Workload for OfflineFpm {
    fn pass(&mut self, scope: &mut Scope<'_>) -> PassOutput {
        let mut out = PassOutput::default();
        let mut fp = Fnv::default();

        // Stage 1: build.
        let t0 = Instant::now();
        let built = scope.span("core.builder", |_| {
            let kernels: Vec<Box<dyn Kernel + Send>> = self
                .platform
                .devices()
                .iter()
                .map(|d| {
                    Box::new(DeviceKernel::new(d.clone(), self.profile.clone()))
                        as Box<dyn Kernel + Send>
                })
                .collect();
            ModelBuilder::new(&self.precision)
                .with_parallelism(1)
                .build::<AkimaModel>(kernels, &self.sizes)
        });
        out.layer
            .push(("core.builder.build_s", t0.elapsed().as_secs_f64()));
        let built = match built {
            Ok(b) => b,
            Err(e) => {
                out.checks.op(false, || format!("model build failed: {e}"));
                return out;
            }
        };
        let mut reps = 0u64;
        let mut points = 0u64;
        for b in &built {
            out.checks
                .op(b.model.points().len() == self.sizes.len(), || {
                    "a built model is missing grid points".to_owned()
                });
            for p in b.model.points() {
                reps += u64::from(p.reps);
                points += 1;
                fp.f64(p.t);
            }
        }
        out.layer.push((
            "core.benchmark.reps_per_point",
            reps as f64 / points.max(1) as f64,
        ));

        // Stage 2: persist and reload.
        let t0 = Instant::now();
        let reloaded: Vec<AkimaModel> = scope.span("core.model.io", |_| {
            built
                .iter()
                .enumerate()
                .map(|(rank, b)| {
                    let path = self.dir.join(format!("dev{rank}.points"));
                    let mut back = AkimaModel::new();
                    let ok = io::save_model(&path, &b.model)
                        .and_then(|()| io::load_into_model(&path, &mut back));
                    (ok, back)
                })
                .zip(&built)
                .map(|((ok, back), b)| {
                    let same = ok.is_ok() && back.points() == b.model.points();
                    out.checks.op(same, || {
                        "reloaded model differs from the built one".to_owned()
                    });
                    back
                })
                .collect()
        });
        out.layer.push((
            "core.model.io_roundtrip_ms",
            t0.elapsed().as_secs_f64() * 1e3,
        ));

        // Stage 3: partition queries against the reloaded models.
        let refs: Vec<&dyn Model> = reloaded.iter().map(|m| m as &dyn Model).collect();
        let mut imbalances = Vec::with_capacity(self.totals.len());
        for &total in &self.totals {
            let t0 = Instant::now();
            let (geo, num) = scope.span("core.partition", |_| {
                (
                    GeometricPartitioner::default().partition(total, &refs),
                    NumericalPartitioner::default().partition(total, &refs),
                )
            });
            let scored = scope.span("platform.device", |_| match (&geo, &num) {
                (Ok(g), Ok(n)) if g.total_assigned() == total && n.total_assigned() == total => {
                    Some((self.ground_truth(g), n.sizes()))
                }
                _ => None,
            });
            out.op_us.push(t0.elapsed().as_secs_f64() * 1e6);
            out.checks.op(scored.is_some(), || {
                format!("partition of {total} units failed or lost units")
            });
            if let Some((times, numerical_sizes)) = scored {
                out.virtual_s += times.iter().fold(0.0f64, |m, &t| m.max(t));
                imbalances.push(Distribution::imbalance_of(&times));
                geo.iter()
                    .flat_map(Distribution::sizes)
                    .for_each(|d| fp.word(d));
                numerical_sizes.into_iter().for_each(|d| fp.word(d));
            }
        }
        if !imbalances.is_empty() {
            out.layer.push((
                "core.partition.imbalance_gt",
                crate::stats::median(&imbalances),
            ));
        }
        out.fingerprint = fp.0;
        drop(refs);
        self.models = reloaded;
        out
    }

    fn probes(&mut self, ctx: &mut ProbeCtx) {
        let n_points = (DEVICES * self.sizes.len()) as f64;
        let passes = ctx.passes as f64;
        let device = self.platform.device(0).clone();
        let mid = self.sizes[self.sizes.len() / 2];

        probes::akima_spline(ctx, self.models[0].points());
        probes::incremental_push(ctx);
        probes::measured_time(ctx, &device, &self.profile, mid);
        probes::benchmark_measure(ctx, &device, &self.profile, &self.precision, mid);
        probes::akima_update(ctx, self.models[0].points());
        let evals = probes::partition_p64(ctx, &self.models, self.totals[0]);

        // Computed shares: the build is one public call, so what runs
        // inside it is priced from the probes above.
        let reps = n_points * ctx.get("core.benchmark.reps_per_point") * passes;
        let measure_s = ctx.get("core.benchmark.measure_us") * 1e-6 * n_points * passes;
        let sample_s = ctx.get("platform.device.measured_time_ns") * 1e-9 * reps;
        let stats_s = ctx.get("num.stats.incremental_push_ns") * 1e-9 * reps;
        let update_s = ctx.get("core.model.akima_update_us") * 1e-6 * n_points * passes;
        let a = &mut ctx.attribution;
        a.reassign_computed("core.builder", "core.benchmark", measure_s);
        a.reassign_computed("core.benchmark", "platform.device", sample_s);
        a.reassign_computed("core.benchmark", "num.stats", stats_s);
        a.reassign_computed("core.builder", "core.model", update_s);
        // Both partitioners spend their time evaluating the splines.
        let eval_s = ctx.get("num.interp.akima_eval_ns") * 1e-9 * evals * QUERIES as f64 * passes;
        ctx.attribution
            .reassign_computed("core.partition", "num.interp", eval_s);
    }

    fn teardown(self: Box<Self>) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
