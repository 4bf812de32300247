//! `tcp_bulk` and `tcp_rounds` — two `TcpComm` ranks over loopback in
//! this process (rendezvous in set-up, the mesh reused across passes),
//! running the bandwidth-bound and the latency-bound program of
//! [`comm_program`](super::comm_program). Rank 0 is the timed thread.

use std::hint::black_box;
use std::net::TcpListener;
use std::time::{Duration, Instant};

use fupermod_platform::comm::LinkModel;
use fupermod_runtime::net::frame::{crc32, encode_frame, read_frame, FrameKind};
use fupermod_runtime::net::{connect, connect_with_listener, TcpComm, TcpConfig};
use fupermod_runtime::{run_ranks, Communicator, RuntimeConfig, RuntimeError, ThreadedComm, Wire};

pub use super::comm_program::Shape;
use super::comm_program::{self, ping_pong, threaded_op_us, timed_ops, Inputs, Seen, RANKS};
use super::{seconds_per_call, Fnv, PassOutput, ProbeCtx, Workload, PROBE_BUDGET};
use crate::stats::{median, p99};
use crate::tracer::{Scope, Tracer};

const MIB: f64 = (1u64 << 20) as f64;

pub struct TcpWorkload {
    inputs: Inputs,
    comms: [TcpComm; RANKS],
    /// What each rank must see: the same program on threads.
    reference: [Seen; RANKS],
    /// Makespan of the same program on the simulated ethernet.
    virtual_s: f64,
}

/// Runs the program on every rank of an in-process backend and
/// returns what each rank saw.
fn on_threads(comms: Vec<ThreadedComm>, inputs: &Inputs) -> Result<[Seen; RANKS], RuntimeError> {
    let off = Tracer::new(false);
    let seen = run_ranks(comms, |mut c| {
        let mut scope = off.scope(c.rank() as u32, 0, None);
        comm_program::run(&mut c, inputs, "runtime.comm", &mut scope, &mut Vec::new())
    });
    let [a, b]: [Result<Seen, RuntimeError>; RANKS] = seen.try_into().expect("one result per rank");
    Ok([a?, b?])
}

/// Boots the two-rank loopback mesh.
fn boot() -> Result<[TcpComm; RANKS], RuntimeError> {
    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| RuntimeError::Net(format!("bind loopback: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| RuntimeError::Net(format!("listener address: {e}")))?
        .to_string();
    let cfg =
        |rank| TcpConfig::new(rank, RANKS, addr.clone()).with_boot_timeout(Duration::from_secs(20));
    std::thread::scope(|s| {
        let joiner = s.spawn(|| connect(cfg(1)));
        let root = connect_with_listener(cfg(0), listener);
        let joiner = joiner.join().expect("rank 1 boot thread");
        Ok([root?, joiner?])
    })
}

impl TcpWorkload {
    pub fn setup(seed: u64, shape: Shape, scope: &mut Scope<'_>) -> Self {
        let inputs = Inputs::generate(shape, seed);
        let reference = on_threads(RuntimeConfig::thread().build(RANKS), &inputs)
            .expect("threaded reference run");
        let (sim, handle) =
            RuntimeConfig::sim(RANKS, LinkModel::ethernet()).build_with_handle(RANKS);
        let on_sim = on_threads(sim, &inputs).expect("simulated reference run");
        assert_eq!(on_sim, reference, "sim and threaded backends disagree");
        let virtual_s = handle
            .virtual_time()
            .expect("sim backend keeps virtual clocks");
        let comms = scope
            .span("runtime.net.boot", |_| boot())
            .expect("TCP loopback boot");
        Self {
            inputs,
            comms,
            reference,
            virtual_s,
        }
    }
}

impl Workload for TcpWorkload {
    fn pass(&mut self, scope: &mut Scope<'_>) -> PassOutput {
        let mut out = PassOutput::default();
        let inputs = &self.inputs;
        let [c0, c1] = &mut self.comms;
        let mut peer_scope = scope.helper(1);
        let t0 = Instant::now();
        let (seen0, seen1) = std::thread::scope(|s| {
            let peer = s.spawn(move || {
                comm_program::run(c1, inputs, "runtime.net", &mut peer_scope, &mut Vec::new())
            });
            let mine = comm_program::run(c0, inputs, "runtime.net", scope, &mut out.op_us);
            (
                mine,
                scope
                    .span("bench.peer_wait", |_| peer.join())
                    .expect("rank 1 thread"),
            )
        });
        let wall = t0.elapsed().as_secs_f64();

        let mut fp = Fnv::default();
        for (rank, (seen, want)) in [seen0, seen1].into_iter().zip(self.reference).enumerate() {
            match seen {
                Ok(seen) => {
                    out.checks.attempted += seen.payloads;
                    out.checks.failed += seen.payloads - seen.payloads_ok;
                    out.checks.op(seen == want, || {
                        format!("rank {rank} saw {seen:?} over TCP but {want:?} on threads")
                    });
                    fp.word(seen.payloads_ok);
                    fp.word(seen.reductions);
                }
                Err(e) => out.checks.op(false, || format!("rank {rank} failed: {e}")),
            }
        }
        out.fingerprint = fp.0;
        out.virtual_s = self.virtual_s;

        let (frames, bytes) = comm_program::frames_and_bytes(inputs.shape);
        out.layer
            .push(("runtime.net.frames_per_pass", frames as f64));
        out.layer.push(("runtime.net.bytes_per_pass", bytes as f64));
        match inputs.shape {
            Shape::Bulk => {
                out.layer
                    .push(("runtime.net.bulk_mib_s", bytes as f64 / MIB / wall));
                out.layer
                    .push(("runtime.net.bcast_2mib_ms", median(&out.op_us) * 1e-3));
            }
            Shape::Rounds => {
                out.layer.push(("runtime.net.round_us", median(&out.op_us)));
                out.layer
                    .push(("runtime.net.round_p99_us", p99(&out.op_us)));
            }
        }
        out
    }

    fn probes(&mut self, ctx: &mut ProbeCtx) {
        let passes = ctx.passes as f64;
        match self.inputs.shape {
            Shape::Bulk => {
                let panel = &self.inputs.panels[0];
                let wire = panel.to_bytes();
                let mib = wire.len() as f64 / MIB;
                let encode = seconds_per_call(PROBE_BUDGET, || {
                    black_box(black_box(panel).to_bytes());
                });
                let decode = seconds_per_call(PROBE_BUDGET, || {
                    black_box(Vec::<f64>::decode(black_box(&wire))).expect("decode panel");
                });
                ctx.set("runtime.wire.encode_mib_s", mib / encode);
                ctx.set("runtime.wire.decode_mib_s", mib / decode);

                let crc = seconds_per_call(PROBE_BUDGET, || {
                    black_box(crc32(black_box(&wire)));
                });
                let frame_encode = seconds_per_call(PROBE_BUDGET, || {
                    black_box(encode_frame(
                        FrameKind::Data,
                        0,
                        1,
                        0,
                        0.0,
                        black_box(&wire),
                    ));
                });
                let frame = encode_frame(FrameKind::Data, 0, 1, 0, 0.0, &wire);
                let frame_read = seconds_per_call(PROBE_BUDGET, || {
                    black_box(read_frame(&mut black_box(frame.as_slice()))).expect("read frame");
                });
                ctx.set("runtime.net.frame.crc32_mib_s", mib / crc);
                ctx.set("runtime.net.frame.encode_mib_s", mib / frame_encode);
                ctx.set("runtime.net.frame.read_mib_s", mib / frame_read);

                let threaded = threaded_op_us(|c, _| {
                    let root = 0;
                    c.bcast(root, (c.rank() == root).then_some(panel)).map(drop)
                });
                ctx.set("runtime.comm.bcast_2mib_ms", threaded * 1e-3);

                // Computed: every payload byte is checksummed once on
                // each end, and in a blocking broadcast the two are in
                // series — the sender frames, then the receiver
                // verifies, then the closing barrier releases rank 0.
                let bytes = ctx.get("runtime.net.bytes_per_pass");
                let crc_s = 2.0 * bytes / MIB / (mib / crc);
                ctx.set(
                    "runtime.net.crc_share",
                    crc_s / ctx.get("bench.pass_wall_s"),
                );
                // The in-process data plane (mailboxes, Wire encode and
                // decode) would cost this much without any socket.
                let bcasts = comm_program::BULK_BCASTS as f64;
                let a = &mut ctx.attribution;
                a.reassign_computed("runtime.net", "runtime.net.frame", crc_s * passes);
                a.reassign_computed(
                    "runtime.net",
                    "runtime.comm",
                    bcasts * threaded * 1e-6 * passes,
                );
            }
            Shape::Rounds => {
                let payload = self.inputs.contribs[0].to_bytes();
                let small = seconds_per_call(PROBE_BUDGET, || {
                    let frame = encode_frame(FrameKind::Data, 0, 1, 0, 0.0, black_box(&payload));
                    black_box(read_frame(&mut frame.as_slice())).expect("read frame");
                });
                ctx.set("runtime.net.frame.small_roundtrip_ns", small * 1e9);

                let inputs = &self.inputs;
                let off = Tracer::new(false);
                let round = threaded_op_us(|c, _| {
                    let mut scope = off.scope(c.rank() as u32, 0, None);
                    comm_program::round(c, inputs, "runtime.comm", &mut scope).map(drop)
                });
                ctx.set("runtime.comm.round_us", round);
                ctx.set("runtime.comm.rtt_us", threaded_op_us(ping_pong));
                let [c0, c1] = &mut self.comms;
                let rtt = std::thread::scope(|s| {
                    let peer = s.spawn(|| timed_ops(c1, ping_pong));
                    let mine = timed_ops(c0, ping_pong);
                    peer.join().expect("rank 1 thread").and(mine)
                });
                ctx.set("runtime.net.rtt_us", rtt.expect("TCP ping-pong"));

                let net_round = ctx.get("runtime.net.round_us");
                ctx.set("runtime.net.self_round_us", net_round - round);
                // Computed: the part of a TCP round the in-process data
                // plane would cost anyway, and the framing of its
                // five data frames.
                let rounds = comm_program::ROUNDS as f64 * passes;
                let a = &mut ctx.attribution;
                a.reassign_computed("runtime.net", "runtime.comm", round * 1e-6 * rounds);
                a.reassign_computed("runtime.net", "runtime.net.frame", 5.0 * small * rounds);
            }
        }
    }

    fn teardown(self: Box<Self>) {
        let [c0, c1] = self.comms;
        // Both ends say goodbye at once, or each would wait out the
        // other's reader timeout.
        std::thread::scope(|s| {
            s.spawn(|| c1.shutdown());
            c0.shutdown();
        });
    }
}
