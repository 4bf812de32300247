//! The TCP serving loop behind `fupermod_served`.
//!
//! One OS thread per connection (the multi-tenant model of the rest
//! of the runtime layer), line-delimited JSON requests answered in
//! lockstep on the same stream. A `shutdown` request flips a shared
//! flag; the accept loop polls it between (non-blocking) accepts, so
//! the daemon drains and exits without being killed.
//!
//! Every request is wrapped in a telemetry span recorded into the
//! store's registry: `served_requests_total{op,outcome}`,
//! `served_request_duration_seconds{op}` latency histograms and
//! `served_bytes_total{direction}` — the series `GET /metrics`
//! exposes (see [`crate::http`]). Requests slower than the
//! configurable [`ServeOptions::slow_request`] threshold are logged
//! to stderr.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use fupermod_core::telemetry::{Counter, Histogram, Registry};

use crate::protocol::{self, Request};
use crate::store::ModelStore;
use crate::StoreError;

/// How often the accept loop re-checks the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Longest request line the daemon (and HTTP line the metrics listener)
/// buffers; a 64-member `partition` is under 1 KiB. A longer one is
/// answered with an error line (HTTP: none) and the connection closed.
pub(crate) const MAX_LINE: usize = 1 << 20;

/// How much of an over-long line is read and discarded after the
/// error reply, so the peer sees the reply and an orderly close
/// rather than a reset (closing with unread input resets the
/// connection, which can destroy the reply in flight).
const DRAIN_LIMIT: u64 = 16 * MAX_LINE as u64;

/// Request op tags the per-request telemetry is keyed by: the
/// protocol ops plus `invalid` for lines that fail to parse.
const REQUEST_OPS: [&str; 7] = [
    "ingest",
    "ingest_point",
    "lookup",
    "partition",
    "stats",
    "shutdown",
    "invalid",
];

/// Tuning knobs of the serving loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeOptions {
    /// Log requests slower than this to stderr (`None` disables the
    /// slow-request log).
    pub slow_request: Option<Duration>,
}

/// Pre-registered per-request telemetry handles (one registration at
/// startup; the per-request hot path never takes the registry lock).
#[derive(Debug, Clone)]
struct RequestSpans {
    /// `[ok, error]` counters per [`REQUEST_OPS`] entry.
    requests: Vec<[Counter; 2]>,
    /// Latency histogram per [`REQUEST_OPS`] entry.
    durations: Vec<Histogram>,
    bytes_in: Counter,
    bytes_out: Counter,
}

impl RequestSpans {
    fn new(registry: &Registry) -> Self {
        let requests = REQUEST_OPS
            .iter()
            .map(|op| {
                ["ok", "error"].map(|outcome| {
                    registry.counter(
                        "served_requests_total",
                        "Requests handled, by op and outcome.",
                        &[("op", op), ("outcome", outcome)],
                    )
                })
            })
            .collect();
        let durations = REQUEST_OPS
            .iter()
            .map(|op| {
                registry.histogram(
                    "served_request_duration_seconds",
                    "Request handling latency (parse + execute + respond), by op.",
                    &[("op", op)],
                )
            })
            .collect();
        Self {
            requests,
            durations,
            bytes_in: registry.counter(
                "served_bytes_total",
                "Protocol bytes moved, by direction.",
                &[("direction", "in")],
            ),
            bytes_out: registry.counter(
                "served_bytes_total",
                "Protocol bytes moved, by direction.",
                &[("direction", "out")],
            ),
        }
    }

    fn op_index(op: &str) -> usize {
        REQUEST_OPS.iter().position(|&o| o == op).unwrap_or(REQUEST_OPS.len() - 1)
    }
}

/// Runs the serving loop on `listener` until a client sends
/// `shutdown` (or `stop` is flipped externally), with default
/// options. Blocks the calling thread; connection handlers run on
/// their own threads and are joined before returning, so every
/// in-flight response is flushed.
///
/// # Errors
///
/// Propagates listener I/O errors (per-connection errors only end
/// that connection).
pub fn serve(
    listener: TcpListener,
    store: Arc<ModelStore>,
    stop: Arc<AtomicBool>,
) -> std::io::Result<()> {
    serve_with(listener, store, stop, ServeOptions::default())
}

/// [`serve`] with explicit [`ServeOptions`].
///
/// # Errors
///
/// Propagates listener I/O errors (per-connection errors only end
/// that connection).
pub fn serve_with(
    listener: TcpListener,
    store: Arc<ModelStore>,
    stop: Arc<AtomicBool>,
    options: ServeOptions,
) -> std::io::Result<()> {
    let spans = RequestSpans::new(store.registry());
    let flag = Arc::clone(&stop);
    accept_loop(listener, &stop, move |stream| {
        let _ = handle_connection(stream, &store, &flag, &spans, options);
    })
}

/// The accept loop of both listeners (this and [`crate::http`]):
/// non-blocking accepts polling `stop`, one thread per connection
/// running `handle`, finished handlers reaped as it goes and the rest
/// joined before returning, so every in-flight response is flushed.
pub(crate) fn accept_loop<F>(listener: TcpListener, stop: &AtomicBool, handle: F) -> io::Result<()>
where
    F: Fn(TcpStream) + Clone + Send + 'static,
{
    listener.set_nonblocking(true)?;
    let mut handles = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let handle = handle.clone();
                handles.push(thread::spawn(move || handle(stream)));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(e) => return Err(e),
        }
        handles.retain(|h| !h.is_finished());
    }
    for h in handles {
        let _ = h.join();
    }
    Ok(())
}

/// Reads one line, newline included, into `line` (cleared first),
/// buffering at most [`MAX_LINE`] bytes of it. Returns the bytes read
/// (0 at end of stream) and whether the line was cut off at the cap.
pub(crate) fn read_line_capped(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
) -> io::Result<(usize, bool)> {
    line.clear();
    let read = reader.take(MAX_LINE as u64 + 1).read_until(b'\n', line)?;
    Ok((read, read > MAX_LINE && !line.ends_with(b"\n")))
}

fn handle_connection(
    stream: TcpStream,
    store: &ModelStore,
    stop: &AtomicBool,
    spans: &RequestSpans,
    options: ServeOptions,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    // One line buffer and one response buffer per connection; the
    // response goes out, newline included, in one write.
    let mut line = Vec::new();
    let mut response = String::new();
    loop {
        let (read, too_long) = read_line_capped(&mut reader, &mut line)?;
        if read == 0 {
            break;
        }
        let started = Instant::now();
        response.clear();
        let parsed = if too_long {
            Err(StoreError::Protocol(format!("request line longer than {MAX_LINE} bytes")))
        } else {
            let text = std::str::from_utf8(&line)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            // The line as `BufRead::lines` would hand it over.
            let text = text.strip_suffix('\n').unwrap_or(text);
            let text = text.strip_suffix('\r').unwrap_or(text);
            if text.trim().is_empty() {
                continue;
            }
            protocol::parse_request(text)
        };
        let (op, is_shutdown) = match parsed {
            Ok(request) => {
                protocol::handle_into(store, &request, &mut response);
                (request.op(), request == Request::Shutdown)
            }
            Err(e) => {
                response.push_str(&protocol::error_line(&e));
                ("invalid", false)
            }
        };
        spans.bytes_in.add(read as u64);
        let ok = response.starts_with("{\"ok\":true");
        response.push('\n');
        writer.write_all(response.as_bytes())?;
        spans.bytes_out.add(response.len() as u64);
        let elapsed = started.elapsed();
        let i = RequestSpans::op_index(op);
        spans.requests[i][usize::from(!ok)].inc();
        spans.durations[i].record(elapsed.as_secs_f64());
        if let Some(threshold) = options.slow_request {
            if elapsed > threshold {
                eprintln!(
                    "slow request: op={op} took {:.3} ms (threshold {:.3} ms)",
                    elapsed.as_secs_f64() * 1e3,
                    threshold.as_secs_f64() * 1e3,
                );
            }
        }
        if is_shutdown {
            stop.store(true, Ordering::SeqCst);
            break;
        }
        if too_long {
            let _ = writer.shutdown(Shutdown::Write);
            let _ = io::copy(&mut reader.take(DRAIN_LIMIT), &mut io::sink());
            break;
        }
    }
    Ok(())
}

/// A client connection: sends one request line at a time and reads
/// the matching response line (the protocol is strictly lockstep per
/// connection).
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The outgoing line, newline included: one write per request.
    outgoing: Vec<u8>,
}

impl Client {
    /// Connects to a running daemon.
    ///
    /// # Errors
    ///
    /// Propagates connection I/O errors.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            outgoing: Vec::new(),
        })
    }

    /// Sends one request line and returns the response line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; an empty response (peer closed) maps to
    /// [`std::io::ErrorKind::UnexpectedEof`].
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.outgoing.clear();
        self.outgoing.extend_from_slice(line.as_bytes());
        self.outgoing.push(b'\n');
        self.writer.write_all(&self.outgoing)?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        if response.ends_with('\n') {
            response.pop();
        }
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;

    /// End-to-end over a real socket: two concurrent clients stream
    /// into different entries, then one queries a partition and shuts
    /// the daemon down; serve() must return.
    #[test]
    fn serves_concurrent_clients_and_shuts_down() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let store = Arc::new(ModelStore::new(StoreConfig::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let (store, stop) = (Arc::clone(&store), Arc::clone(&stop));
            thread::spawn(move || serve(listener, store, stop))
        };

        let feeders: Vec<_> = (0..2)
            .map(|r| {
                thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    for d in [100u64, 400, 900] {
                        let t = d as f64 * 1e-3 * (r + 1) as f64;
                        let line = format!(
                            "{{\"op\":\"ingest\",\"fingerprint\":\"dev{r}\",\"kernel\":\"gemm\",\"config\":\"c\",\"d\":{d},\"t\":{t}}}"
                        );
                        let resp = client.request(&line).unwrap();
                        assert!(resp.contains("\"ok\":true"), "{resp}");
                    }
                })
            })
            .collect();
        for f in feeders {
            f.join().unwrap();
        }

        let mut client = Client::connect(addr).unwrap();
        let resp = client
            .request(r#"{"op":"partition","fingerprints":["dev0","dev1"],"kernel":"gemm","config":"c","total":1000,"algorithm":"geometric"}"#)
            .unwrap();
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(resp.contains("\"cached\":false"), "{resp}");
        let again = client
            .request(r#"{"op":"partition","fingerprints":["dev0","dev1"],"kernel":"gemm","config":"c","total":1000,"algorithm":"geometric"}"#)
            .unwrap();
        assert!(again.contains("\"cached\":true"), "{again}");
        let resp = client.request(r#"{"op":"shutdown"}"#).unwrap();
        assert!(resp.contains("\"shutting_down\":true"), "{resp}");
        server.join().unwrap().unwrap();
        assert_eq!(store.len(), 2);
    }

    /// A peer that streams 4 MiB without a newline gets one error
    /// line and a closed connection — and costs the daemon at most
    /// `MAX_LINE` of buffer; the next connection is served as usual.
    #[test]
    fn an_overlong_line_is_refused_and_the_daemon_keeps_serving() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let store = Arc::new(ModelStore::new(StoreConfig::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let (store, stop) = (Arc::clone(&store), Arc::clone(&stop));
            thread::spawn(move || serve(listener, store, stop))
        };

        let hostile = TcpStream::connect(addr).unwrap();
        let writer = {
            let mut stream = hostile.try_clone().unwrap();
            // The daemon stops reading; the write may be cut short.
            thread::spawn(move || drop(stream.write_all(&vec![b'x'; 4 * MAX_LINE])))
        };
        let mut replies = String::new();
        BufReader::new(hostile).read_to_string(&mut replies).unwrap();
        writer.join().unwrap();
        assert_eq!(
            replies,
            format!("{{\"ok\":false,\"error\":\"store protocol: request line longer than {MAX_LINE} bytes\"}}\n")
        );

        let mut client = Client::connect(addr).unwrap();
        let stats = client.request(r#"{"op":"stats"}"#).unwrap();
        assert!(stats.starts_with("{\"ok\":true"), "{stats}");
        let snap = store.registry().snapshot();
        let refused = snap.find("served_requests_total", &[("op", "invalid"), ("outcome", "error")]);
        assert!(
            matches!(refused, Some(fupermod_core::telemetry::SampleValue::Counter(1))),
            "{refused:?}"
        );
        client.request(r#"{"op":"shutdown"}"#).unwrap();
        server.join().unwrap().unwrap();
    }
}
