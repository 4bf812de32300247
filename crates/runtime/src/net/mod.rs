//! Multi-process TCP transport behind the [`Communicator`] contract.
//!
//! # Transport model
//!
//! A TCP job runs `world` OS *processes*, one rank each (contrast the
//! in-process backends, where every rank is a thread of one process).
//! Each process owns a [`crate::comm`] data plane of global size with
//! the transport half attached: sends to remote ranks leave as
//! checksummed [`frame`]s, and one **reader thread per peer**
//! re-materialises incoming DATA frames into the same FIFO delivery
//! mailbox the in-process backends use. Everything above the raw
//! send/receive/barrier primitives — every collective schedule, the
//! fault-injection layer, the nonblocking request API, the
//! distributed executor — is the *same code* on both transports,
//! which is what makes fault-free TCP runs bit-identical to threaded
//! runs by construction.
//!
//! # Rendezvous
//!
//! Rank 0 listens on the `--rendezvous` address. Every other rank
//! connects to it with retry/backoff, sends HELLO (its rank, world
//! size, and own listener address), and receives PEERS (the full
//! address table). The rendezvous connection *becomes* the `0↔i` mesh
//! link; the remaining links are built by the higher rank dialing the
//! lower rank's listener and identifying itself with IDENT. Bootstrap
//! is bounded by a connect deadline and fails with
//! [`RuntimeError::Net`] instead of hanging.
//!
//! # Barrier and membership
//!
//! The shared-memory sense-reversing barrier generalises to a hub
//! rendezvous: non-hub ranks send ARRIVE (stamped with their Lamport
//! clock) to the hub — the lowest agreed-live rank, the same rank hub
//! collective schedules route through — and the hub answers RELEASE
//! carrying the joined clock and the new agreed membership bitmap.
//! Peer disconnects (EOF without BYE, a failed write, a corrupt
//! frame) map onto the existing agreed-membership death path: the
//! peer is marked dead, a `disconnect` fault event is traced, and
//! blocked operations observe [`RuntimeError::RankDead`] — exactly
//! what an in-process rank death looks like. Known limitation: the
//! death of the *hub itself* mid-barrier is resolved by deadline
//! fail-stop, not failover (see `docs/RUNTIME.md` §10).

pub mod frame;

use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fupermod_core::telemetry::{self, Counter};
use fupermod_core::trace::{null_sink, TraceSink};

use crate::collective::AlgorithmPolicy;
use crate::comm::{
    build_net_plane, comm_for, handle_for, Communicator, Plane, ReduceOp, RuntimeHandle,
    ThreadedComm,
};
use crate::error::RuntimeError;
use crate::fault::FaultPlan;
use crate::wire::Wire;

use frame::{is_checksum_mismatch, read_frame, write_frame, Frame, FrameKind};

/// Default bound on the whole bootstrap (listen, dial, handshake).
const BOOT_TIMEOUT_SECS: f64 = 30.0;

/// First dial retry backoff; doubles per attempt up to
/// [`MAX_RETRY_BACKOFF`].
const RETRY_BACKOFF: Duration = Duration::from_millis(25);

/// Cap on the dial retry backoff.
const MAX_RETRY_BACKOFF: Duration = Duration::from_millis(500);

/// How long teardown waits for peers to close before abandoning a
/// reader thread.
const SHUTDOWN_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// The hub rank of the current agreement: lowest agreed-live. This is
/// the rank ARRIVE frames rendezvous at, deliberately the same choice
/// the hub collective schedules make.
pub(crate) fn hub_of(agreed: &[bool]) -> usize {
    agreed.iter().position(|&a| a).unwrap_or(0)
}

/// Frame and payload-byte counters for one direction of the mesh
/// (`net_frames_total{dir}`, `net_payload_bytes_total{dir}` in the
/// process-wide telemetry registry). Every post-bootstrap frame
/// counts — DATA and the ARRIVE/RELEASE/BYE control frames alike.
/// Handles are resolved at mesh build (tx) and reader start (rx),
/// never per frame.
struct DirCounters {
    frames: Counter,
    payload_bytes: Counter,
}

impl DirCounters {
    fn new(dir: &str) -> Self {
        let registry = telemetry::global();
        Self {
            frames: registry.counter(
                "net_frames_total",
                "Frames moved over the TCP mesh after bootstrap, by direction.",
                &[("dir", dir)],
            ),
            payload_bytes: registry.counter(
                "net_payload_bytes_total",
                "Frame payload bytes moved over the TCP mesh after bootstrap, by direction.",
                &[("dir", dir)],
            ),
        }
    }

    /// One relaxed load when the registry is disabled.
    fn record(&self, payload_len: usize) {
        if telemetry::global().enabled() {
            self.frames.inc();
            self.payload_bytes.add(payload_len as u64);
        }
    }
}

/// The per-process transport half of a [`crate::comm`] data plane:
/// one locked writer per peer. Reader threads are owned by the
/// [`TcpComm`] guard, not by the plane, so the plane's `Arc` cycle-
/// freely outlives the run.
///
/// Locking rule (deadlock freedom): a writer lock may be taken while
/// holding the plane state lock **only for small control frames**
/// (ARRIVE/RELEASE/BYE); DATA frames of unbounded size are always
/// written with the plane lock released, so a reader blocked on its
/// own plane lock can never transitively stall a remote writer.
pub(crate) struct NetPlane {
    pub(crate) local: usize,
    writers: Vec<Option<Mutex<TcpStream>>>,
    tx: DirCounters,
}

impl NetPlane {
    /// Sends one DATA frame to `dst`. Called without the plane state
    /// lock held (payloads are unbounded).
    pub(crate) fn send_data(
        &self,
        dst: usize,
        lamport: u64,
        gen: u64,
        delay: f64,
        payload: &[u8],
    ) -> io::Result<()> {
        self.write_to(dst, FrameKind::Data, lamport, gen, delay, payload)
    }

    /// Announces a barrier arrival to the hub (small control frame;
    /// may be written under the plane lock). Best-effort: a dead hub
    /// surfaces as a deadline fail-stop, not a send error.
    pub(crate) fn send_arrive(&self, hub: usize, gen: u64, lamport: u64) {
        let _ = self.write_to(hub, FrameKind::Arrive, lamport, gen, 0.0, &[]);
    }

    /// Broadcasts a barrier RELEASE (new generation, joined clock,
    /// agreed membership) to every peer. Best-effort per peer.
    pub(crate) fn broadcast_release(&self, gen: u64, join: u64, agreed: &[bool], dead: &[bool]) {
        let bitmap = agreed.to_vec().to_bytes();
        for (r, writer) in self.writers.iter().enumerate() {
            if writer.is_none() || dead[r] {
                continue;
            }
            let _ = self.write_to(r, FrameKind::Release, join, gen, 0.0, &bitmap);
        }
    }

    /// Best-effort goodbye to every peer (graceful teardown and
    /// fail-stop both take this path).
    pub(crate) fn send_bye_all(&self) {
        for (r, writer) in self.writers.iter().enumerate() {
            if writer.is_some() {
                let _ = self.write_to(r, FrameKind::Bye, 0, 0, 0.0, &[]);
            }
        }
    }

    /// Closes the write half of every link, EOF-ing peers' readers.
    fn shutdown_writes(&self) {
        for writer in self.writers.iter().flatten() {
            if let Ok(stream) = writer.lock() {
                let _ = stream.shutdown(Shutdown::Write);
            }
        }
    }

    fn write_to(
        &self,
        dst: usize,
        kind: FrameKind,
        lamport: u64,
        gen: u64,
        delay: f64,
        payload: &[u8],
    ) -> io::Result<()> {
        let writer = self.writers.get(dst).and_then(Option::as_ref).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotConnected, format!("no link to rank {dst}"))
        })?;
        let mut stream = writer
            .lock()
            .map_err(|_| io::Error::other("writer lock poisoned"))?;
        write_frame(&mut *stream, kind, self.local, lamport, gen, delay, payload)?;
        stream.flush()?;
        self.tx.record(payload.len());
        Ok(())
    }
}

/// Per-peer reader: drains frames into the shared plane until the
/// peer disconnects.
fn reader_loop(plane: Arc<Plane>, src: usize, mut stream: TcpStream) {
    let rx = DirCounters::new("rx");
    let crc_rejects = telemetry::global().counter(
        "net_crc_rejects_total",
        "Frames rejected by a reader for a payload checksum mismatch.",
        &[],
    );
    let mut saw_bye = false;
    loop {
        match read_frame(&mut stream) {
            Ok(Some(f)) => {
                rx.record(f.payload.len());
                if f.src != src || !apply_frame(&plane, src, f, &mut saw_bye) {
                    disconnect(&plane, src, saw_bye);
                    return;
                }
            }
            Ok(None) => {
                // Clean close. After a BYE this is the expected
                // teardown; without one it is a crash-style death.
                disconnect(&plane, src, saw_bye);
                return;
            }
            Err(e)
                if matches!(e.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock) =>
            {
                // Only set during our own teardown: stop reading.
                return;
            }
            Err(e) => {
                if is_checksum_mismatch(&e) {
                    crc_rejects.inc();
                }
                disconnect(&plane, src, saw_bye);
                return;
            }
        }
    }
}

/// Applies one post-bootstrap frame, consuming it: a DATA payload
/// moves into the mailbox. `false` flags a protocol error.
fn apply_frame(plane: &Arc<Plane>, src: usize, f: Frame, saw_bye: &mut bool) -> bool {
    let local = plane.net.as_ref().expect("net plane").local;
    match f.kind {
        FrameKind::Data => {
            let mut st = plane.lock();
            st.ledger.lamport[src] = st.ledger.lamport[src].max(f.lamport);
            st.mail[local].push_back(crate::comm::Envelope {
                src,
                bytes: f.payload,
                delay: f.delay,
                sent_at: Instant::now(),
                lamport: f.lamport,
                vready: None,
            });
            plane.notify(&mut st);
            true
        }
        FrameKind::Arrive => {
            let mut st = plane.lock();
            st.ledger.lamport[src] = st.ledger.lamport[src].max(f.lamport);
            st.arrived += 1;
            plane.maybe_complete(&mut st);
            plane.notify(&mut st);
            true
        }
        FrameKind::Release => {
            let Ok(bitmap) = <Vec<bool>>::decode(&f.payload) else {
                return false;
            };
            let mut st = plane.lock();
            if bitmap.len() != st.ledger.dead.len() {
                return false;
            }
            st.ledger.generation = f.gen;
            st.arrived = 0;
            for (r, &alive) in bitmap.iter().enumerate() {
                if !alive {
                    st.ledger.dead[r] = true;
                } else {
                    // The joined clock, exactly as the in-process
                    // completer writes it for every live rank.
                    st.ledger.lamport[r] = st.ledger.lamport[r].max(f.lamport);
                }
            }
            st.ledger.agreed_alive = bitmap;
            plane.notify(&mut st);
            true
        }
        FrameKind::Bye => {
            *saw_bye = true;
            let mut st = plane.lock();
            plane.mark_dead(&mut st, src);
            true
        }
        FrameKind::Hello | FrameKind::Peers | FrameKind::Ident => false,
    }
}

/// Maps a peer disconnect onto the agreed-membership death path. A
/// disconnect announced by BYE is a graceful exit and traces nothing.
fn disconnect(plane: &Arc<Plane>, src: usize, graceful: bool) {
    let local = plane.net.as_ref().expect("net plane").local;
    let mut st = plane.lock();
    if st.ledger.dead[src] {
        return;
    }
    plane.mark_dead(&mut st, src);
    drop(st);
    if !graceful {
        crate::ledger::fault(&*plane.sink, local, "disconnect", src as i64, 0, 0.0);
    }
}

/// Configuration for joining a multi-process TCP job.
pub struct TcpConfig {
    rank: usize,
    world: usize,
    rendezvous: String,
    plan: FaultPlan,
    sink: Arc<dyn TraceSink>,
    policy: AlgorithmPolicy,
    boot_timeout: Duration,
}

impl std::fmt::Debug for TcpConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpConfig")
            .field("rank", &self.rank)
            .field("world", &self.world)
            .field("rendezvous", &self.rendezvous)
            .finish_non_exhaustive()
    }
}

impl TcpConfig {
    /// A job of `world` ranks; this process is `rank`; rank 0 listens
    /// on `rendezvous` (`host:port`) and everyone else dials it.
    pub fn new(rank: usize, world: usize, rendezvous: impl Into<String>) -> Self {
        Self {
            rank,
            world,
            rendezvous: rendezvous.into(),
            plan: FaultPlan::none(),
            sink: Arc::new(*null_sink()),
            policy: AlgorithmPolicy::default(),
            boot_timeout: Duration::from_secs_f64(BOOT_TIMEOUT_SECS),
        }
    }

    /// Attaches a fault plan (rules are evaluated sender-side, with
    /// per-process rule counters — see `docs/RUNTIME.md` §10).
    #[must_use]
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Routes `comm`/`fault` trace events to `sink`.
    #[must_use]
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Selects the collective schedules (CLI: `--collectives`).
    #[must_use]
    pub fn with_algorithms(mut self, policy: AlgorithmPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the bootstrap deadline (default 30 s).
    #[must_use]
    pub fn with_boot_timeout(mut self, timeout: Duration) -> Self {
        self.boot_timeout = timeout;
        self
    }
}

/// A rank of a multi-process TCP job: the full [`Communicator`]
/// contract (plus the nonblocking request API via `Deref` to
/// [`ThreadedComm`]) over real sockets. Built by [`connect`];
/// [`TcpComm::shutdown`] tears the mesh down gracefully (BYE frames,
/// reader join) — dropping without it does the same best-effort.
pub struct TcpComm {
    comm: ThreadedComm,
    handle: RuntimeHandle,
    guard: Option<NetGuard>,
}

impl std::fmt::Debug for TcpComm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpComm").field("comm", &self.comm).finish()
    }
}

struct NetGuard {
    plane: Arc<Plane>,
    readers: Vec<JoinHandle<()>>,
    reader_streams: Vec<TcpStream>,
}

impl NetGuard {
    fn finish(self) {
        if let Some(net) = &self.plane.net {
            net.send_bye_all();
            net.shutdown_writes();
        }
        // Bound the join: if a peer neither closes nor BYEs within
        // the grace period, its reader wakes on the read timeout and
        // exits.
        for s in &self.reader_streams {
            let _ = s.set_read_timeout(Some(SHUTDOWN_READ_TIMEOUT));
        }
        for h in self.readers {
            let _ = h.join();
        }
    }
}

impl TcpComm {
    /// Inspection handle (liveness; virtual clocks are `None` — the
    /// TCP transport is wall-clock only).
    pub fn handle(&self) -> &RuntimeHandle {
        &self.handle
    }

    /// The underlying rank handle, for APIs that want the concrete
    /// in-process type (nonblocking requests, the executor loops).
    pub fn inner_mut(&mut self) -> &mut ThreadedComm {
        &mut self.comm
    }

    /// Graceful teardown: BYE every peer, close write halves, join
    /// the reader threads. Call after the application's final
    /// collective; peers that are still mid-collective would observe
    /// this rank as dead (exactly like an in-process early exit).
    pub fn shutdown(mut self) {
        if let Some(guard) = self.guard.take() {
            guard.finish();
        }
    }
}

impl Drop for TcpComm {
    fn drop(&mut self) {
        if let Some(guard) = self.guard.take() {
            guard.finish();
        }
    }
}

impl std::ops::Deref for TcpComm {
    type Target = ThreadedComm;
    fn deref(&self) -> &ThreadedComm {
        &self.comm
    }
}

impl std::ops::DerefMut for TcpComm {
    fn deref_mut(&mut self) -> &mut ThreadedComm {
        &mut self.comm
    }
}

impl Communicator for TcpComm {
    fn rank(&self) -> usize {
        self.comm.rank()
    }
    fn size(&self) -> usize {
        self.comm.size()
    }
    fn alive(&self) -> Vec<bool> {
        self.comm.alive()
    }
    fn send<T: Wire>(&mut self, dst: usize, value: &T) -> Result<(), RuntimeError> {
        self.comm.send(dst, value)
    }
    fn recv<T: Wire>(&mut self, src: usize) -> Result<T, RuntimeError> {
        self.comm.recv(src)
    }
    fn barrier(&mut self) -> Result<(), RuntimeError> {
        self.comm.barrier()
    }
    fn bcast<T: Wire>(&mut self, root: usize, value: Option<&T>) -> Result<T, RuntimeError> {
        self.comm.bcast(root, value)
    }
    fn scatterv<T: Wire>(&mut self, root: usize, parts: Option<&[T]>) -> Result<T, RuntimeError> {
        self.comm.scatterv(root, parts)
    }
    fn gatherv<T: Wire>(
        &mut self,
        root: usize,
        value: &T,
    ) -> Result<Option<Vec<T>>, RuntimeError> {
        self.comm.gatherv(root, value)
    }
    fn gather_available<T: Wire>(
        &mut self,
        root: usize,
        value: &T,
    ) -> Result<Option<Vec<Option<T>>>, RuntimeError> {
        self.comm.gather_available(root, value)
    }
    fn allgatherv<T: Wire>(&mut self, value: &T) -> Result<Vec<T>, RuntimeError> {
        self.comm.allgatherv(value)
    }
    fn allgatherv_available<T: Wire>(
        &mut self,
        value: &T,
    ) -> Result<Vec<Option<T>>, RuntimeError> {
        self.comm.allgatherv_available(value)
    }
    fn allreduce(&mut self, value: f64, op: ReduceOp) -> Result<f64, RuntimeError> {
        self.comm.allreduce(value, op)
    }
}

fn net_err(what: &str, e: impl std::fmt::Display) -> RuntimeError {
    RuntimeError::Net(format!("{what}: {e}"))
}

/// Joins the job: rendezvous, mesh build, reader spawn. Blocks until
/// every link is up or the bootstrap deadline expires.
///
/// # Errors
///
/// [`RuntimeError::Net`] on any rendezvous/handshake failure (bind,
/// dial retries exhausted, malformed HELLO/PEERS/IDENT, duplicate or
/// out-of-range rank, bootstrap timeout).
pub fn connect(cfg: TcpConfig) -> Result<TcpComm, RuntimeError> {
    if cfg.rank == 0 {
        let listener = TcpListener::bind(&cfg.rendezvous)
            .map_err(|e| net_err("bind rendezvous listener", e))?;
        connect_root(cfg, listener)
    } else {
        connect_joiner(cfg)
    }
}

/// [`connect`] for rank 0 with a pre-bound rendezvous listener —
/// lets embedders and tests bind port 0 and learn the real address
/// before spawning the other ranks.
pub fn connect_with_listener(
    cfg: TcpConfig,
    listener: TcpListener,
) -> Result<TcpComm, RuntimeError> {
    if cfg.rank != 0 {
        return Err(RuntimeError::Net(
            "connect_with_listener is for rank 0 (the rendezvous side)".to_owned(),
        ));
    }
    connect_root(cfg, listener)
}

fn validate(cfg: &TcpConfig) -> Result<(), RuntimeError> {
    if cfg.world == 0 || cfg.rank >= cfg.world {
        return Err(RuntimeError::Net(format!(
            "rank {} outside world of size {}",
            cfg.rank, cfg.world
        )));
    }
    Ok(())
}

fn connect_root(cfg: TcpConfig, listener: TcpListener) -> Result<TcpComm, RuntimeError> {
    validate(&cfg)?;
    let deadline_at = Instant::now() + cfg.boot_timeout;
    let mut streams: Vec<Option<TcpStream>> = (0..cfg.world).map(|_| None).collect();
    let mut addrs: Vec<String> = vec![String::new(); cfg.world];
    while streams.iter().skip(1).any(Option::is_none) {
        if Instant::now() >= deadline_at {
            return Err(RuntimeError::Net(format!(
                "bootstrap timed out waiting for {} HELLOs",
                streams.iter().skip(1).filter(|s| s.is_none()).count()
            )));
        }
        let (mut stream, _) = listener.accept().map_err(|e| net_err("accept", e))?;
        stream
            .set_read_timeout(Some(cfg.boot_timeout))
            .map_err(|e| net_err("set handshake timeout", e))?;
        let hello = read_frame(&mut stream)
            .map_err(|e| net_err("read HELLO", e))?
            .ok_or_else(|| RuntimeError::Net("peer closed before HELLO".to_owned()))?;
        if hello.kind != FrameKind::Hello {
            return Err(RuntimeError::Net(format!(
                "expected HELLO, got {:?}",
                hello.kind
            )));
        }
        let text = String::from_utf8(hello.payload)
            .map_err(|e| net_err("HELLO payload", e))?;
        let (world_str, addr) = text
            .split_once(' ')
            .ok_or_else(|| RuntimeError::Net(format!("malformed HELLO payload {text:?}")))?;
        let world: usize = world_str
            .parse()
            .map_err(|e| net_err("HELLO world", e))?;
        if world != cfg.world {
            return Err(RuntimeError::Net(format!(
                "world mismatch: joiner says {world}, rank 0 says {}",
                cfg.world
            )));
        }
        let src = hello.src;
        if src == 0 || src >= cfg.world {
            return Err(RuntimeError::Net(format!("HELLO from invalid rank {src}")));
        }
        if streams[src].is_some() {
            return Err(RuntimeError::Net(format!("duplicate HELLO from rank {src}")));
        }
        addrs[src] = addr.to_owned();
        streams[src] = Some(stream);
    }
    // Publish the address table; the rendezvous connections become
    // the 0↔i mesh links.
    let table: Vec<Vec<u8>> = addrs.iter().map(|a| a.clone().into_bytes()).collect();
    let payload = table.to_bytes();
    for stream in streams.iter_mut().flatten() {
        write_frame(stream, FrameKind::Peers, 0, 0, 0, 0.0, &payload)
            .map_err(|e| net_err("send PEERS", e))?;
    }
    finish(cfg, streams)
}

fn connect_joiner(cfg: TcpConfig) -> Result<TcpComm, RuntimeError> {
    validate(&cfg)?;
    let deadline_at = Instant::now() + cfg.boot_timeout;
    let mut root = dial_retry(&cfg.rendezvous, deadline_at)
        .map_err(|e| net_err("dial rendezvous", e))?;
    root.set_read_timeout(Some(cfg.boot_timeout))
        .map_err(|e| net_err("set handshake timeout", e))?;
    // Listen where the rendezvous route says we are reachable.
    let local_ip = root
        .local_addr()
        .map_err(|e| net_err("local addr", e))?
        .ip();
    let listener = TcpListener::bind(SocketAddr::new(local_ip, 0))
        .map_err(|e| net_err("bind mesh listener", e))?;
    let own_addr = listener
        .local_addr()
        .map_err(|e| net_err("listener addr", e))?
        .to_string();
    let hello = format!("{} {own_addr}", cfg.world).into_bytes();
    write_frame(&mut root, FrameKind::Hello, cfg.rank, 0, 0, 0.0, &hello)
        .map_err(|e| net_err("send HELLO", e))?;
    let peers = read_frame(&mut root)
        .map_err(|e| net_err("read PEERS", e))?
        .ok_or_else(|| RuntimeError::Net("rank 0 closed before PEERS".to_owned()))?;
    if peers.kind != FrameKind::Peers {
        return Err(RuntimeError::Net(format!(
            "expected PEERS, got {:?}",
            peers.kind
        )));
    }
    let table: Vec<Vec<u8>> = Wire::decode(&peers.payload)
        .map_err(|e| net_err("decode PEERS", e))?;
    if table.len() != cfg.world {
        return Err(RuntimeError::Net(format!(
            "PEERS table has {} entries for world {}",
            table.len(),
            cfg.world
        )));
    }
    let mut streams: Vec<Option<TcpStream>> = (0..cfg.world).map(|_| None).collect();
    streams[0] = Some(root);
    // Dial every lower-ranked peer; accept every higher-ranked one.
    for (j, addr_bytes) in table.iter().enumerate().take(cfg.rank).skip(1) {
        let addr = std::str::from_utf8(addr_bytes)
            .map_err(|e| net_err("peer addr", e))?;
        let mut stream =
            dial_retry(addr, deadline_at).map_err(|e| net_err("dial peer", e))?;
        write_frame(&mut stream, FrameKind::Ident, cfg.rank, 0, 0, 0.0, &[])
            .map_err(|e| net_err("send IDENT", e))?;
        streams[j] = Some(stream);
    }
    while streams.iter().skip(cfg.rank + 1).any(Option::is_none) {
        if Instant::now() >= deadline_at {
            return Err(RuntimeError::Net(
                "bootstrap timed out waiting for higher-rank IDENTs".to_owned(),
            ));
        }
        let (mut stream, _) = listener.accept().map_err(|e| net_err("accept mesh", e))?;
        stream
            .set_read_timeout(Some(cfg.boot_timeout))
            .map_err(|e| net_err("set handshake timeout", e))?;
        let ident = read_frame(&mut stream)
            .map_err(|e| net_err("read IDENT", e))?
            .ok_or_else(|| RuntimeError::Net("peer closed before IDENT".to_owned()))?;
        if ident.kind != FrameKind::Ident {
            return Err(RuntimeError::Net(format!(
                "expected IDENT, got {:?}",
                ident.kind
            )));
        }
        let src = ident.src;
        if src <= cfg.rank || src >= cfg.world {
            return Err(RuntimeError::Net(format!("IDENT from invalid rank {src}")));
        }
        if streams[src].is_some() {
            return Err(RuntimeError::Net(format!("duplicate IDENT from rank {src}")));
        }
        streams[src] = Some(stream);
    }
    finish(cfg, streams)
}

/// Dials `addr` with exponential backoff until `deadline_at` — the
/// joiner side may simply have started before the listener exists.
fn dial_retry(addr: &str, deadline_at: Instant) -> io::Result<TcpStream> {
    let mut backoff = RETRY_BACKOFF;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if Instant::now() + backoff >= deadline_at {
                    return Err(e);
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(MAX_RETRY_BACKOFF);
            }
        }
    }
}

/// All links up: build the plane, spawn one reader per peer.
fn finish(cfg: TcpConfig, streams: Vec<Option<TcpStream>>) -> Result<TcpComm, RuntimeError> {
    let mut writers: Vec<Option<Mutex<TcpStream>>> = Vec::with_capacity(cfg.world);
    let mut reader_streams = Vec::new();
    let mut peers = Vec::new();
    for (r, slot) in streams.into_iter().enumerate() {
        match slot {
            None => writers.push(None),
            Some(stream) => {
                stream
                    .set_read_timeout(None)
                    .map_err(|e| net_err("clear handshake timeout", e))?;
                stream.set_nodelay(true).ok();
                let reader = stream.try_clone().map_err(|e| net_err("clone stream", e))?;
                reader_streams.push(reader.try_clone().map_err(|e| net_err("clone stream", e))?);
                peers.push((r, reader));
                writers.push(Some(Mutex::new(stream)));
            }
        }
    }
    let net = NetPlane {
        local: cfg.rank,
        writers,
        tx: DirCounters::new("tx"),
    };
    let plane = build_net_plane(cfg.world, cfg.plan, cfg.sink, cfg.policy, net);
    let readers = peers
        .into_iter()
        .map(|(peer, stream)| {
            let plane = Arc::clone(&plane);
            std::thread::Builder::new()
                .name(format!("net-reader-{peer}"))
                .spawn(move || reader_loop(plane, peer, stream))
                .expect("spawn reader thread")
        })
        .collect();
    Ok(TcpComm {
        comm: comm_for(Arc::clone(&plane), cfg.rank),
        handle: handle_for(Arc::clone(&plane)),
        guard: Some(NetGuard {
            plane,
            readers,
            reader_streams,
        }),
    })
}
