//! `serve_read` and `serve_ingest` — the partitioning daemon
//! (`store::server::serve` on a loopback port, in a harness thread)
//! under a **closed loop of two lockstep clients**: each sends its next
//! request only after the previous response arrived. Client 0 runs on
//! the timed thread.

use std::hint::black_box;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use fupermod_core::model::{AkimaModel, Model};
use fupermod_core::partition::{NumericalPartitioner, Partitioner};
use fupermod_core::trace::fmt_float;
use fupermod_core::Point;
use fupermod_store::protocol::{self, parse_request};
use fupermod_store::server::{serve, Client};
use fupermod_store::{
    EntryConfig, ModelEntry, ModelStore, StoreConfig, StoreKey, StoreMetricsSnapshot,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{seconds_per_call, Checks, Fnv, PassOutput, ProbeCtx, Workload, PROBE_BUDGET};
use crate::probes;
use crate::stats::{median, p99};
use crate::tracer::Scope;

const CLIENTS: usize = 2;
const KERNEL: &str = "gemm";
const CONFIG: &str = "default";
const SIZES: usize = 24;
const POOL: usize = 64;
/// Read mix: members of the one group, requests per client, and how
/// many in a hundred are lookups.
const READ_MEMBERS: usize = 64;
const READ_REQUESTS: usize = 4000;
const LOOKUP_PERCENT: u32 = 5;
/// Ingest mix: members per client group, ingest+partition pairs per
/// client.
const GROUP: usize = 32;
const INGEST_PAIRS: usize = 1500;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Read,
    Ingest,
}

/// Seeded ground truth the observations are drawn from.
struct Truth {
    sizes: Vec<u64>,
    /// Seconds per unit of each member, by global member index.
    base: Vec<f64>,
    totals: Vec<u64>,
}

impl Truth {
    fn generate(seed: u64, members: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e_57e0);
        Self {
            sizes: fupermod_bench::size_grid(64, 200_000, SIZES),
            base: (0..members)
                .map(|_| 1e-6 * rng.gen_range(1.0..4.0))
                .collect(),
            totals: (0..POOL)
                .map(|_| rng.gen_range(50_000u64..2_000_000))
                .collect(),
        }
    }

    /// Time of `d` units on `member`: mildly super-linear, so the
    /// numerical partitioner has curvature to work with.
    fn time(&self, member: usize, d: u64) -> f64 {
        let x = d as f64;
        self.base[member] * x * (1.0 + x / 5e5)
    }
}

fn key(fingerprint: &str) -> StoreKey {
    StoreKey::new(fingerprint, KERNEL, CONFIG)
}

fn partition_line(fingerprints: &[String], total: u64) -> String {
    let quoted: Vec<String> = fingerprints.iter().map(|f| format!("\"{f}\"")).collect();
    format!(
        "{{\"op\":\"partition\",\"fingerprints\":[{}],\"kernel\":\"{KERNEL}\",\"config\":\"{CONFIG}\",\"total\":{total},\"algorithm\":\"numerical\"}}",
        quoted.join(",")
    )
}

fn ingest_line(fingerprint: &str, d: u64, t: f64) -> String {
    format!(
        "{{\"op\":\"ingest\",\"fingerprint\":\"{fingerprint}\",\"kernel\":\"{KERNEL}\",\"config\":\"{CONFIG}\",\"d\":{d},\"t\":{}}}",
        fmt_float(t)
    )
}

/// The deterministic part of a partition response: everything from
/// `"ds":` on (`cached` before it depends on cache state).
fn tail(response: &str) -> &str {
    response.find("\"ds\":").map_or("", |i| &response[i..])
}

/// The `makespan` field of a partition response.
fn makespan_of(response: &str) -> Option<f64> {
    let rest = &response[response.find("\"makespan\":")? + "\"makespan\":".len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// One client's share of the read mix: indices into the shared request
/// pool, and what each must be answered with.
struct ReadPlan {
    /// `POOL` partition lines, then `READ_MEMBERS` lookup lines.
    lines: Vec<String>,
    /// Expected response tail (partition) or whole line (lookup).
    expected: Vec<String>,
    makespans: Vec<f64>,
    schedule: [Vec<usize>; CLIENTS],
}

/// One client's side of the ingest mix. Every pass streams the same
/// seeded observations into a **fresh** group of members (named after
/// the pass), so every pass does the same work and must produce the
/// same answers: streaming on into one group makes pass *k* cheaper
/// than pass *k − 1* as the samples pile up.
struct IngestClient {
    who: usize,
    seed: u64,
    /// Passes prepared so far: names the next group.
    prepared: u32,
    fingerprints: Vec<String>,
    /// Offline shadow of every member: fed the same observations.
    shadow: Vec<ModelEntry>,
    /// The next pass's (ingest, partition) request lines.
    next: Vec<(String, String)>,
}

impl IngestClient {
    fn new(who: usize, seed: u64) -> Self {
        Self {
            who,
            seed,
            prepared: 0,
            fingerprints: Vec::new(),
            shadow: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Creates the next pass's group in the daemon's store (one
    /// observation of every size per member, so all models are ready),
    /// draws the pass's observations, feeds them to the offline shadow,
    /// and writes the request lines — input generation, kept out of
    /// the timed pass.
    fn prepare(&mut self, truth: &Truth, store: &ModelStore) {
        let (who, group) = (self.who, self.prepared);
        self.prepared += 1;
        self.fingerprints = (0..GROUP)
            .map(|m| format!("g{who}p{group:04}m{m:02}"))
            .collect();
        self.shadow = vec![ModelEntry::new(EntryConfig::default()); GROUP];
        for (m, fp) in self.fingerprints.iter().enumerate() {
            for &d in &truth.sizes {
                let t = truth.time(who * GROUP + m, d);
                store
                    .ingest_sample(&key(fp), d, t)
                    .expect("preload observation");
                self.shadow[m]
                    .ingest_sample(d, t)
                    .expect("preload observation");
            }
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ (0x1000 + who as u64));
        self.next = (0..INGEST_PAIRS)
            .map(|i| {
                let m = i % GROUP;
                let d = truth.sizes[rng.gen_range(0..SIZES)];
                let t = truth.time(who * GROUP + m, d) * rng.gen_range(0.99..1.01);
                self.shadow[m]
                    .ingest_sample(d, t)
                    .expect("valid observation");
                let total = truth.totals[rng.gen_range(0..POOL)];
                (
                    ingest_line(&self.fingerprints[m], d, t),
                    partition_line(&self.fingerprints, total),
                )
            })
            .collect();
    }
}

enum Plan {
    Read(ReadPlan),
    Ingest(Box<[IngestClient; CLIENTS]>),
}

pub struct Serve {
    truth: Truth,
    plan: Plan,
    store: Arc<ModelStore>,
    clients: Option<[Client; CLIENTS]>,
    addr: SocketAddr,
    server: Option<JoinHandle<std::io::Result<()>>>,
}

/// What one client did in one pass.
#[derive(Default)]
struct ClientOutcome {
    op_us: Vec<f64>,
    checks: Checks,
    virtual_s: f64,
    fingerprint: Fnv,
}

fn run_read(
    client: &mut Client,
    plan: &ReadPlan,
    who: usize,
    scope: &mut Scope<'_>,
) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    for &i in &plan.schedule[who] {
        let t0 = Instant::now();
        let response = scope.span("store.server", |_| client.request(&plan.lines[i]));
        out.op_us.push(t0.elapsed().as_secs_f64() * 1e6);
        scope.span("bench.check", |_| {
            let ok = response.as_ref().is_ok_and(|r| {
                r.starts_with("{\"ok\":true")
                    && if i < POOL {
                        tail(r) == plan.expected[i]
                    } else {
                        *r == plan.expected[i]
                    }
            });
            out.checks.op(ok, || {
                format!(
                    "client {who}: request {i} answered {response:?}, not the in-process answer"
                )
            });
            if ok && i < POOL {
                out.virtual_s += plan.makespans[i];
            }
            out.fingerprint.word(u64::from(ok));
        });
    }
    out
}

fn run_ingest(
    client: &mut Client,
    me: &mut IngestClient,
    who: usize,
    scope: &mut Scope<'_>,
) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    let lines = std::mem::take(&mut me.next);
    assert!(!lines.is_empty(), "prepare() runs before every ingest pass");
    let mut last_total_line = None;
    for (ingest, partition) in &lines {
        for line in [ingest, partition] {
            let t0 = Instant::now();
            let response = scope.span("store.server", |_| client.request(line));
            out.op_us.push(t0.elapsed().as_secs_f64() * 1e6);
            scope.span("bench.check", |_| {
                let ok = response
                    .as_ref()
                    .is_ok_and(|r| r.starts_with("{\"ok\":true"));
                out.checks
                    .op(ok, || format!("client {who}: {line} answered {response:?}"));
                if let Some(makespan) = response.ok().as_deref().and_then(makespan_of) {
                    out.virtual_s += makespan;
                    out.fingerprint.f64(makespan);
                }
            });
        }
        last_total_line = Some(partition);
    }
    // After the stream: the served partition must be byte-equal to
    // rebuilding every member offline from the same observations.
    let line = last_total_line.expect("a non-empty stream");
    let served = scope.span("store.server", |_| client.request(line));
    scope.span("bench.check", |_| {
        let models: Vec<AkimaModel> = me
            .shadow
            .iter()
            .map(|e| e.cold_rebuild().expect("offline rebuild"))
            .collect();
        let refs: Vec<&dyn Model> = models.iter().map(|m| m as &dyn Model).collect();
        let Ok(protocol::Request::Partition { total, .. }) = parse_request(line) else {
            unreachable!("the harness wrote this partition line");
        };
        let dist = NumericalPartitioner::default()
            .partition(total, &refs)
            .expect("offline partition");
        let ds: Vec<String> = dist.parts().iter().map(|p| p.d.to_string()).collect();
        let ts: Vec<String> = dist.parts().iter().map(|p| fmt_float(p.t)).collect();
        let want = format!(
            "\"ds\":[{}],\"ts\":[{}],\"makespan\":{},\"imbalance\":{}}}",
            ds.join(","),
            ts.join(","),
            fmt_float(dist.predicted_makespan()),
            fmt_float(dist.predicted_imbalance()),
        );
        let ok = served.as_ref().is_ok_and(|r| tail(r) == want);
        out.checks.op(ok, || {
            format!("client {who}: served group partition differs from the offline rebuild")
        });
        out.fingerprint.bytes(want.as_bytes());
    });
    out
}

impl Serve {
    pub fn setup(seed: u64, mix: Mix) -> Self {
        let store = Arc::new(ModelStore::new(StoreConfig::default()));
        let plan = match mix {
            Mix::Read => {
                let truth = Truth::generate(seed, READ_MEMBERS);
                let plan = Plan::Read(Self::read_plan(seed, &truth, &store));
                (truth, plan)
            }
            Mix::Ingest => {
                let truth = Truth::generate(seed, CLIENTS * GROUP);
                let clients = [0, 1].map(|c| IngestClient::new(c, seed));
                (truth, Plan::Ingest(Box::new(clients)))
            }
        };
        let (truth, plan) = plan;

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("listener address");
        let server = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || serve(listener, store, Arc::new(AtomicBool::new(false))))
        };
        let clients = [0, 1].map(|_| Client::connect(addr).expect("connect to the daemon"));
        Self {
            truth,
            plan,
            store,
            clients: Some(clients),
            addr,
            server: Some(server),
        }
    }

    /// Preloads the daemon's store and an identical reference store,
    /// and answers every pool request in-process on the reference.
    fn read_plan(seed: u64, truth: &Truth, store: &ModelStore) -> ReadPlan {
        let reference = ModelStore::new(StoreConfig::default());
        let fingerprints: Vec<String> = (0..READ_MEMBERS).map(|m| format!("dev-{m:04}")).collect();
        for (m, fp) in fingerprints.iter().enumerate() {
            for &d in &truth.sizes {
                let t = truth.time(m, d);
                let point = Point {
                    d,
                    t,
                    reps: 5,
                    ci: t * 0.01,
                };
                store.ingest_point(&key(fp), point).expect("preload point");
                reference
                    .ingest_point(&key(fp), point)
                    .expect("preload point");
            }
        }
        let mut lines: Vec<String> = truth
            .totals
            .iter()
            .map(|&t| partition_line(&fingerprints, t))
            .collect();
        lines.extend(fingerprints.iter().map(|fp| {
            format!("{{\"op\":\"lookup\",\"fingerprint\":\"{fp}\",\"kernel\":\"{KERNEL}\",\"config\":\"{CONFIG}\"}}")
        }));
        let answers: Vec<String> = lines
            .iter()
            .map(|l| protocol::handle(&reference, &parse_request(l).expect("harness-written line")))
            .collect();
        let makespans = answers[..POOL]
            .iter()
            .map(|a| makespan_of(a).expect("makespan"))
            .collect();
        let expected = answers
            .iter()
            .enumerate()
            .map(|(i, a)| {
                if i < POOL {
                    tail(a).to_owned()
                } else {
                    a.clone()
                }
            })
            .collect();
        let schedule = [0u64, 1].map(|c| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0x2000 + c));
            (0..READ_REQUESTS)
                .map(|_| {
                    if rng.gen_range(0u32..100) < LOOKUP_PERCENT {
                        POOL + rng.gen_range(0..READ_MEMBERS)
                    } else {
                        rng.gen_range(0..POOL)
                    }
                })
                .collect()
        });
        ReadPlan {
            lines,
            expected,
            makespans,
            schedule,
        }
    }
}

fn delta(after: StoreMetricsSnapshot, before: StoreMetricsSnapshot) -> StoreMetricsSnapshot {
    StoreMetricsSnapshot {
        model_hits: after.model_hits - before.model_hits,
        model_misses: after.model_misses - before.model_misses,
        refresh_patched: after.refresh_patched - before.refresh_patched,
        refresh_rebuilt: after.refresh_rebuilt - before.refresh_rebuilt,
        refresh_fallbacks: after.refresh_fallbacks - before.refresh_fallbacks,
        plan_hits: after.plan_hits - before.plan_hits,
        plan_misses: after.plan_misses - before.plan_misses,
        plan_evictions: after.plan_evictions - before.plan_evictions,
    }
}

impl Workload for Serve {
    fn pass(&mut self, scope: &mut Scope<'_>) -> PassOutput {
        let mut out = PassOutput::default();
        let before = self.store.metrics().snapshot();
        let [c0, c1] = self.clients.as_mut().expect("clients live until teardown");
        let mut peer_scope = scope.helper(1);
        let t0 = Instant::now();
        let (mine, theirs) = match &mut self.plan {
            Plan::Read(plan) => std::thread::scope(|s| {
                let plan = &*plan;
                let peer = s.spawn(move || run_read(c1, plan, 1, &mut peer_scope));
                let mine = run_read(c0, plan, 0, scope);
                (
                    mine,
                    scope
                        .span("bench.peer_wait", |_| peer.join())
                        .expect("client 1 thread"),
                )
            }),
            Plan::Ingest(clients) => std::thread::scope(|s| {
                let [me0, me1] = clients.as_mut();
                let peer = s.spawn(move || run_ingest(c1, me1, 1, &mut peer_scope));
                let mine = run_ingest(c0, me0, 0, scope);
                (
                    mine,
                    scope
                        .span("bench.peer_wait", |_| peer.join())
                        .expect("client 1 thread"),
                )
            }),
        };
        let wall = t0.elapsed().as_secs_f64();
        let d = delta(self.store.metrics().snapshot(), before);

        let requests = (mine.op_us.len() + theirs.op_us.len()) as f64;
        out.layer.push(("store.server.req_per_s", requests / wall));
        out.layer
            .push(("store.server.req_p99_us", p99(&mine.op_us)));
        let plans = (d.plan_hits + d.plan_misses).max(1) as f64;
        out.layer
            .push(("store.plan.hit_ratio", d.plan_hits as f64 / plans));
        out.layer
            .push(("store.plan.evictions", d.plan_evictions as f64));
        out.layer
            .push(("store.entry.patched", d.refresh_patched as f64));
        out.layer
            .push(("store.entry.rebuilt", d.refresh_rebuilt as f64));
        out.layer
            .push(("store.entry.fallbacks", d.refresh_fallbacks as f64));
        out.exact.push(("patched", d.refresh_patched));
        out.exact.push(("rebuilt", d.refresh_rebuilt));
        out.exact.push(("fallbacks", d.refresh_fallbacks));

        // Client 0 is the timed client: its latencies and its plans.
        out.virtual_s = mine.virtual_s;
        let mut fp = mine.fingerprint;
        fp.word(theirs.fingerprint.0);
        out.fingerprint = fp.0;
        out.op_us = mine.op_us;
        out.checks = mine.checks;
        out.checks.merge(theirs.checks);
        out
    }

    fn prepare(&mut self) {
        if let Plan::Ingest(clients) = &mut self.plan {
            clients
                .iter_mut()
                .for_each(|c| c.prepare(&self.truth, &self.store));
        }
    }

    fn probes(&mut self, ctx: &mut ProbeCtx) {
        let passes = ctx.passes as f64;
        let numerical = NumericalPartitioner::default();
        match &self.plan {
            Plan::Read(plan) => {
                let line = &plan.lines[0];
                let parse = seconds_per_call(PROBE_BUDGET, || {
                    black_box(parse_request(black_box(line))).expect("partition line");
                });
                ctx.set("store.protocol.parse_partition_ns", parse * 1e9);

                // The daemon's own store is warm: every pool plan is cached.
                let request = parse_request(line).expect("partition line");
                let handle = seconds_per_call(PROBE_BUDGET, || {
                    black_box(protocol::handle(&self.store, black_box(&request)));
                });
                ctx.set("store.protocol.handle_hit_us", handle * 1e6);
                ctx.set(
                    "store.protocol.response_bytes",
                    protocol::handle(&self.store, &request).len() as f64,
                );
                let protocol::Request::Partition { keys, total, .. } = &request else {
                    unreachable!("parsed from a partition line");
                };
                let hit = seconds_per_call(PROBE_BUDGET, || {
                    black_box(self.store.partition(keys, *total, &numerical, "numerical"))
                        .expect("cached plan");
                });
                ctx.set("store.store.partition_hit_ns", hit * 1e9);

                // A scratch store for the mutating probes.
                let scratch = ModelStore::new(StoreConfig::default());
                let k = key("probe");
                for &d in &self.truth.sizes {
                    scratch
                        .ingest_point(&k, Point::single(d, self.truth.time(0, d)))
                        .expect("point");
                }
                let (d, t) = (
                    self.truth.sizes[SIZES / 2],
                    self.truth.time(0, self.truth.sizes[SIZES / 2]),
                );
                let ingest_point = seconds_per_call(PROBE_BUDGET, || {
                    black_box(scratch.ingest_point(&k, Point::single(d, t))).expect("known size");
                });
                ctx.set("store.store.ingest_point_ns", ingest_point * 1e9);

                let p50 = ctx.get("bench.op_p50_us");
                ctx.set(
                    "store.server.wire_overhead_us",
                    p50 - (parse + handle) * 1e6,
                );
                // Computed: what the daemon does inside one round trip.
                let n = READ_REQUESTS as f64 * passes;
                let a = &mut ctx.attribution;
                a.reassign_computed("store.server", "store.protocol", (parse + handle - hit) * n);
                a.reassign_computed("store.server", "store.store", hit * n);
            }
            Plan::Ingest(clients) => {
                let me = &clients[0];
                let models: Vec<AkimaModel> = me
                    .shadow
                    .iter()
                    .map(|e| e.cold_rebuild().expect("offline rebuild"))
                    .collect();
                let refs: Vec<&dyn Model> = models.iter().map(|m| m as &dyn Model).collect();
                let total = self.truth.totals[0];
                let solve = seconds_per_call(PROBE_BUDGET, || {
                    black_box(numerical.partition(black_box(total), &refs))
                        .expect("group partition");
                });
                ctx.set("core.partition.numerical_us", solve * 1e6);
                probes::akima_spline(ctx, models[0].points());
                probes::incremental_push(ctx);

                let (d, t) = (
                    self.truth.sizes[SIZES / 2],
                    self.truth.time(0, self.truth.sizes[SIZES / 2]),
                );
                let ingest = ingest_line(&me.fingerprints[0], d, t);
                let partition = partition_line(&me.fingerprints, total);
                let parse_ingest = seconds_per_call(PROBE_BUDGET, || {
                    black_box(parse_request(black_box(&ingest))).expect("ingest line");
                });
                let parse_partition = seconds_per_call(PROBE_BUDGET, || {
                    black_box(parse_request(black_box(&partition))).expect("partition line");
                });
                ctx.set("store.protocol.parse_ingest_ns", parse_ingest * 1e9);
                ctx.set("store.protocol.parse_partition_ns", parse_partition * 1e9);

                // A scratch store holding this group's models, for the
                // mutating probes: known-size ingest (the patch path),
                // then partition after that epoch bump (always a miss).
                let scratch = ModelStore::new(StoreConfig::default());
                let keys: Vec<StoreKey> = me.fingerprints.iter().map(|f| key(f)).collect();
                for (m, k) in keys.iter().enumerate() {
                    for &d in &self.truth.sizes {
                        scratch
                            .ingest_sample(k, d, self.truth.time(m, d))
                            .expect("observation");
                    }
                }
                // One more observation of every known (member, size): the
                // patch path, without piling samples onto one size.
                let t0 = Instant::now();
                for (m, k) in keys.iter().enumerate() {
                    for &d in &self.truth.sizes {
                        black_box(scratch.ingest_sample(k, d, self.truth.time(m, d) * 1.001))
                            .expect("known size");
                    }
                }
                let ingest_sample = t0.elapsed().as_secs_f64() / (keys.len() * SIZES) as f64;
                ctx.set("store.store.ingest_sample_ns", ingest_sample * 1e9);
                let mut miss_us = Vec::new();
                for _ in 0..50 {
                    scratch.ingest_sample(&keys[0], d, t).expect("known size");
                    let t0 = Instant::now();
                    black_box(scratch.partition(&keys, total, &numerical, "numerical"))
                        .expect("re-solve");
                    miss_us.push(t0.elapsed().as_secs_f64() * 1e6);
                }
                ctx.set("store.store.partition_miss_us", median(&miss_us));

                // Computed: inside a round trip the daemon parses,
                // ingests or re-solves; the solve is core.partition's.
                let pairs = INGEST_PAIRS as f64 * passes;
                let miss = median(&miss_us) * 1e-6;
                let a = &mut ctx.attribution;
                a.reassign_computed(
                    "store.server",
                    "store.protocol",
                    (parse_ingest + parse_partition) * pairs,
                );
                a.reassign_computed("store.server", "core.partition", solve * pairs);
                a.reassign_computed(
                    "store.server",
                    "store.store",
                    (ingest_sample + (miss - solve).max(0.0)) * pairs,
                );
            }
        }
    }

    fn teardown(mut self: Box<Self>) {
        // Drop the client sockets first: the daemon joins connection
        // handlers, and those block on idle reads.
        self.clients = None;
        let stopped =
            Client::connect(self.addr).and_then(|mut c| c.request("{\"op\":\"shutdown\"}"));
        if let (Ok(_), Some(server)) = (stopped, self.server.take()) {
            let _ = server.join();
        }
    }
}
