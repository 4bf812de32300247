//! Wire framing for the TCP transport: fixed 44-byte little-endian
//! header, length-prefixed payload, CRC-32 payload checksum.
//!
//! Every byte that crosses a socket is one frame. The header carries
//! the schema-v3 causal stamps (`lamport`, `gen`) *in the framing*,
//! not inside the payload — the network twin of the in-process
//! [`crate::comm`] envelope, so every `Wire`-encoded message of every
//! collective schedule is stamped without touching the codec.
//!
//! Layout (offsets in bytes, all fields little-endian):
//!
//! | off | size | field   | meaning                                  |
//! |-----|------|---------|------------------------------------------|
//! | 0   | 4    | magic   | `b"FPM1"`                                |
//! | 4   | 1    | version | frame protocol version (currently 1)     |
//! | 5   | 1    | kind    | [`FrameKind`] discriminant               |
//! | 6   | 2    | reserved| zero                                     |
//! | 8   | 4    | src     | sending rank                             |
//! | 12  | 8    | lamport | sender's Lamport clock at enqueue        |
//! | 20  | 8    | gen     | barrier generation (kind-dependent)      |
//! | 28  | 8    | delay   | injected delivery delay, seconds (f64)   |
//! | 36  | 4    | len     | payload length                           |
//! | 40  | 4    | crc     | CRC-32 (IEEE) of the payload             |
//!
//! A reader rejects a frame *before allocating* its payload if the
//! magic, version, kind, reserved bytes or length cap
//! (`MAX_FRAME_LEN`) fails, and then allocates only as payload
//! bytes arrive — the socket-facing twin of the [`crate::wire`]
//! decode hardening. Decoding is canonical: a frame that reads back
//! re-encodes to exactly the bytes that were consumed.

use std::io::{self, IoSlice, Read, Write};

/// Frame magic: `b"FPM1"` as a little-endian `u32`.
const MAGIC: u32 = u32::from_le_bytes(*b"FPM1");

/// Frame protocol version this build speaks.
const VERSION: u8 = 1;

/// Header length in bytes.
const HEADER_LEN: usize = 44;

/// Hard cap on a frame payload, matching the decode-side payload cap
/// ([`crate::wire::MAX_WIRE_LEN`]): an oversized length prefix is a
/// protocol error rejected before any allocation.
const MAX_FRAME_LEN: usize = crate::wire::MAX_WIRE_LEN;

/// What a frame means to the transport state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Bootstrap: joiner -> rank 0. Payload: `world listen_addr` as
    /// UTF-8 bytes; `src` is the joiner's claimed rank.
    Hello = 0,
    /// Bootstrap: rank 0 -> joiner. Payload: per-rank listener
    /// addresses (`Vec<Vec<u8>>`, UTF-8 each, rank order).
    Peers = 1,
    /// Bootstrap: higher rank -> lower rank on a fresh mesh link,
    /// identifying the initiator (`src`). No payload.
    Ident = 2,
    /// A point-to-point message envelope: payload is the
    /// `Wire`-encoded application bytes; `lamport` is the causal
    /// stamp merged at delivery; `delay` a fault-injected delivery
    /// hold.
    Data = 3,
    /// Barrier arrival announcement to the hub: `gen` is the joined
    /// generation, `lamport` the arriver's clock. No payload.
    Arrive = 4,
    /// Barrier completion broadcast from the hub: `gen` is the *new*
    /// generation, `lamport` the joined clock, payload the agreed
    /// membership (`Vec<bool>`, rank order).
    Release = 5,
    /// Graceful goodbye: the sender is leaving (teardown or
    /// fail-stop). Peers map it onto the rank-death path. No payload.
    Bye = 6,
}

impl FrameKind {
    fn from_u8(x: u8) -> Option<Self> {
        Some(match x {
            0 => FrameKind::Hello,
            1 => FrameKind::Peers,
            2 => FrameKind::Ident,
            3 => FrameKind::Data,
            4 => FrameKind::Arrive,
            5 => FrameKind::Release,
            6 => FrameKind::Bye,
            _ => return None,
        })
    }
}

/// One decoded frame.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Frame meaning.
    pub kind: FrameKind,
    /// Sending rank.
    pub src: usize,
    /// Sender's Lamport clock at enqueue time.
    pub lamport: u64,
    /// Barrier generation (meaning depends on `kind`).
    pub gen: u64,
    /// Injected delivery delay, seconds.
    pub delay: f64,
    /// Payload bytes (already checksum-verified).
    pub payload: Vec<u8>,
}

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-16 lookup tables: `CRC_TABLES[0]` is the classic
/// byte-at-a-time table, and `CRC_TABLES[k][b]` is the CRC state after
/// byte `b` followed by `k` zero bytes, so sixteen input bytes fold
/// into the state with sixteen table loads — twelve of them
/// independent of the running state — instead of 128 dependent
/// shift/xor steps.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = !0;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let block: &[u8; 16] = block.try_into().expect("chunks_exact(16)");
        // Twelve of the sixteen lookups do not involve the running
        // state; folding them first keeps them off the loop-carried
        // dependency chain (measured 2x over mixing them in).
        let mut next = 0;
        for i in 4..16 {
            next ^= t[15 - i][usize::from(block[i])];
        }
        let state = crc.to_le_bytes();
        for i in 0..4 {
            next ^= t[15 - i][usize::from(block[i] ^ state[i])];
        }
        crc = next;
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][usize::from(crc.to_le_bytes()[0] ^ b)];
    }
    !crc
}

fn corrupt(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

/// The payload did not hash to the header's CRC: the source of the
/// [`io::ErrorKind::InvalidData`] error [`read_frame`] returns for it.
#[derive(Debug)]
struct ChecksumMismatch {
    header: u32,
    computed: u32,
}

impl std::fmt::Display for ChecksumMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "payload checksum mismatch: header {:#010x}, computed {:#010x}",
            self.header, self.computed
        )
    }
}

impl std::error::Error for ChecksumMismatch {}

/// Whether `e` is [`read_frame`]'s checksum failure — line corruption,
/// as opposed to a malformed header or a short read.
pub fn is_checksum_mismatch(e: &io::Error) -> bool {
    e.get_ref()
        .is_some_and(|inner| inner.is::<ChecksumMismatch>())
}

/// The 44-byte header of a frame carrying `payload`.
fn encode_header(
    kind: FrameKind,
    src: usize,
    lamport: u64,
    gen: u64,
    delay: f64,
    payload: &[u8],
) -> [u8; HEADER_LEN] {
    assert!(payload.len() <= MAX_FRAME_LEN, "frame payload exceeds cap");
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    h[4] = VERSION;
    h[5] = kind as u8;
    // 6..8 reserved, zero.
    h[8..12].copy_from_slice(&(src as u32).to_le_bytes());
    h[12..20].copy_from_slice(&lamport.to_le_bytes());
    h[20..28].copy_from_slice(&gen.to_le_bytes());
    h[28..36].copy_from_slice(&delay.to_bits().to_le_bytes());
    h[36..40].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    h[40..44].copy_from_slice(&crc32(payload).to_le_bytes());
    h
}

/// Encodes one frame into a single buffer (header + payload): the
/// byte stream [`write_frame`] puts on the wire.
pub fn encode_frame(
    kind: FrameKind,
    src: usize,
    lamport: u64,
    gen: u64,
    delay: f64,
    payload: &[u8],
) -> Vec<u8> {
    let header = encode_header(kind, src, lamport, gen, delay, payload);
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(&header);
    buf.extend_from_slice(payload);
    buf
}

/// Writes one frame to `w`: the stack-built header and the borrowed
/// payload go out through one vectored write (a single syscall for a
/// small frame, no staging copy for a large one), looping over short
/// writes exactly as `write_all` does.
pub fn write_frame(
    w: &mut impl Write,
    kind: FrameKind,
    src: usize,
    lamport: u64,
    gen: u64,
    delay: f64,
    payload: &[u8],
) -> io::Result<()> {
    let header = encode_header(kind, src, lamport, gen, delay, payload);
    let total = HEADER_LEN + payload.len();
    let mut sent = 0usize;
    while sent < total {
        let wrote = if sent < HEADER_LEN {
            w.write_vectored(&[IoSlice::new(&header[sent..]), IoSlice::new(payload)])
        } else {
            w.write(&payload[sent - HEADER_LEN..])
        };
        match wrote {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    format!("peer accepted {sent} of {total} frame bytes"),
                ))
            }
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one frame from `r`. Returns `Ok(None)` on a clean EOF at a
/// frame boundary (the peer closed its write half); an EOF inside a
/// frame, a bad magic/version/kind, an oversized length prefix, or a
/// checksum mismatch is an [`io::ErrorKind::InvalidData`] /
/// [`io::ErrorKind::UnexpectedEof`] error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut header = [0u8; HEADER_LEN];
    // First byte distinguishes clean close from a truncated frame.
    let mut got = 0usize;
    while got < HEADER_LEN {
        match r.read(&mut header[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("eof after {got} header bytes"),
                ))
            }
            n => got += n,
        }
    }
    let word = |o: usize| u32::from_le_bytes(header[o..o + 4].try_into().expect("4 bytes"));
    let quad = |o: usize| u64::from_le_bytes(header[o..o + 8].try_into().expect("8 bytes"));
    if word(0) != MAGIC {
        return Err(corrupt(format!("bad magic {:#010x}", word(0))));
    }
    if header[4] != VERSION {
        return Err(corrupt(format!("unsupported frame version {}", header[4])));
    }
    let kind = FrameKind::from_u8(header[5])
        .ok_or_else(|| corrupt(format!("unknown frame kind {}", header[5])))?;
    if header[6..8] != [0, 0] {
        return Err(corrupt(format!(
            "nonzero reserved bytes {:#04x} {:#04x}",
            header[6], header[7]
        )));
    }
    let len = word(36) as usize;
    if len > MAX_FRAME_LEN {
        return Err(corrupt(format!(
            "frame payload of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    let mut payload = Vec::new();
    read_payload(r, len, &mut payload)?;
    let (header_crc, computed) = (word(40), crc32(&payload));
    if header_crc != computed {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            ChecksumMismatch {
                header: header_crc,
                computed,
            },
        ));
    }
    Ok(Some(Frame {
        kind,
        src: word(8) as usize,
        lamport: quad(12),
        gen: quad(20),
        delay: f64::from_bits(quad(28)),
        payload,
    }))
}

/// Largest payload buffer reserved on the strength of the header's
/// length field alone; a longer payload grows the buffer only as its
/// bytes actually arrive.
const PAYLOAD_RESERVE: usize = 64 << 10;

/// Reads exactly `len` payload bytes into `payload` (empty on
/// entry). `len` is only what the peer *claimed*: the buffer starts
/// at no more than [`PAYLOAD_RESERVE`] and grows with the bytes
/// received, so a peer that announces the 64 MiB cap and then stalls
/// or hangs up has cost this process one small allocation, not 64 MiB
/// of zeroed memory.
fn read_payload(r: &mut impl Read, len: usize, payload: &mut Vec<u8>) -> io::Result<()> {
    payload.reserve_exact(len.min(PAYLOAD_RESERVE));
    r.take(len as u64).read_to_end(payload)?;
    if payload.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("eof after {} of {len} payload bytes", payload.len()),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let buf = encode_frame(FrameKind::Data, 3, 41, 7, 0.25, b"payload");
        let mut r = &buf[..];
        let f = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(f.kind, FrameKind::Data);
        assert_eq!(f.src, 3);
        assert_eq!(f.lamport, 41);
        assert_eq!(f.gen, 7);
        assert_eq!(f.delay, 0.25);
        assert_eq!(f.payload, b"payload");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean eof");
    }

    #[test]
    fn corrupt_frames_are_rejected_not_trusted() {
        // Flipped payload byte: checksum catches it.
        let mut buf = encode_frame(FrameKind::Data, 0, 0, 0, 0.0, b"abc");
        *buf.last_mut().unwrap() ^= 0xFF;
        assert_eq!(
            read_frame(&mut &buf[..]).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
        // Bad magic.
        let mut buf = encode_frame(FrameKind::Bye, 0, 0, 0, 0.0, b"");
        buf[0] ^= 0xFF;
        assert!(read_frame(&mut &buf[..]).is_err());
        // Hostile length prefix: rejected before allocation.
        let mut buf = encode_frame(FrameKind::Data, 0, 0, 0, 0.0, b"");
        buf[36..40].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("cap"), "{err}");
        // Truncated mid-frame: UnexpectedEof, not a hang or panic.
        let buf = encode_frame(FrameKind::Data, 0, 0, 0, 0.0, b"abcdef");
        let err = read_frame(&mut &buf[..HEADER_LEN + 2]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    /// The bit-at-a-time definition the tables are derived from (and
    /// the implementation format v1 shipped with): the oracle.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    /// Deterministic full-range noise (the parity suites' LCG).
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    /// Every block/remainder split and every alignment of the
    /// sixteen-byte main loop against the bitwise definition.
    #[test]
    fn table_crc_equals_bitwise_at_every_length_and_offset() {
        let buf = noise(0xC0FFEE, 96);
        for offset in 0..16 {
            for len in 0..=80 {
                let s = &buf[offset..offset + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "offset {offset} len {len}");
            }
        }
    }

    /// Format v1 pinned byte for byte: this frame was encoded by the
    /// pre-table, pre-vectored-write implementation.
    #[test]
    fn encoded_frame_matches_the_v1_golden() {
        const GOLDEN: &str = "46504d310103000003000000080706050403020109000000000000000000\
            00000000d03f170000008a55e29e5a7f1035cee38459721728cde6bb5c710a2fc0e5be5374";
        let payload: Vec<u8> = (0u8..23).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        let buf = encode_frame(FrameKind::Data, 3, 0x0102_0304_0506_0708, 9, 0.25, &payload);
        let hex: String = buf.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN);
        let mut written = Vec::new();
        write_frame(
            &mut written,
            FrameKind::Data,
            3,
            0x0102_0304_0506_0708,
            9,
            0.25,
            &payload,
        )
        .unwrap();
        assert_eq!(written, buf, "write_frame and encode_frame disagree");
    }

    /// A `Write` that takes 1..=`max` bytes per call, returns
    /// `Interrupted` every `interrupt_every`-th call, and — when
    /// `vectored` — gathers across the slices it is offered (otherwise
    /// it keeps std's default of writing the first non-empty slice).
    struct Dribble {
        out: Vec<u8>,
        rng: u64,
        max: usize,
        interrupt_every: u64,
        vectored: bool,
        calls: u64,
    }

    impl Dribble {
        fn new(seed: u64, max: usize, interrupt_every: u64, vectored: bool) -> Self {
            Self {
                out: Vec::new(),
                rng: seed,
                max,
                interrupt_every,
                vectored,
                calls: 0,
            }
        }

        /// How many bytes this call accepts, or the injected error.
        fn quota(&mut self) -> io::Result<usize> {
            self.calls += 1;
            if self.interrupt_every > 0 && self.calls.is_multiple_of(self.interrupt_every) {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "signal"));
            }
            self.rng = self
                .rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            Ok(1 + (self.rng >> 33) as usize % self.max)
        }
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = self.quota()?.min(buf.len());
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            if !self.vectored {
                let first = bufs
                    .iter()
                    .find(|b| !b.is_empty())
                    .map_or(&[][..], |b| &**b);
                return self.write(first);
            }
            let mut left = self.quota()?;
            let mut wrote = 0;
            for b in bufs {
                let n = left.min(b.len());
                self.out.extend_from_slice(&b[..n]);
                left -= n;
                wrote += n;
            }
            Ok(wrote)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_and_interrupted_writes_still_produce_the_exact_frame() {
        for (payload_len, max) in [(0, 1), (1, 3), (7, 1), (100, 7), (100, 50), (5000, 97)] {
            let payload = noise(payload_len as u64, payload_len);
            let want = encode_frame(FrameKind::Data, 2, 77, 5, 1.5, &payload);
            for vectored in [false, true] {
                for interrupt_every in [0, 2, 5] {
                    let mut w = Dribble::new(max as u64, max, interrupt_every, vectored);
                    write_frame(&mut w, FrameKind::Data, 2, 77, 5, 1.5, &payload).unwrap();
                    assert_eq!(
                        w.out, want,
                        "len {payload_len} max {max} vectored {vectored} eintr {interrupt_every}"
                    );
                }
            }
        }
    }

    /// A peer that stops accepting bytes is an error, not a spin.
    #[test]
    fn a_writer_that_accepts_nothing_is_write_zero() {
        struct Full(usize);
        impl Write for Full {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = self.0.min(buf.len());
                self.0 -= n;
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        // Stalls at once, mid-header, at the header/payload seam, mid-payload.
        for room in [0, 10, HEADER_LEN, HEADER_LEN + 3] {
            let err = write_frame(&mut Full(room), FrameKind::Data, 0, 0, 0, 0.0, b"payload")
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::WriteZero, "room {room}");
        }
    }

    /// The length field is a claim, not a fact: a peer that announces
    /// the cap and sends ten bytes costs one bounded reservation.
    #[test]
    fn a_claimed_length_is_not_allocated_until_it_arrives() {
        let mut payload = Vec::new();
        let err = read_payload(&mut &[7u8; 10][..], MAX_FRAME_LEN, &mut payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(payload.len(), 10);
        assert!(
            payload.capacity() <= PAYLOAD_RESERVE,
            "{}",
            payload.capacity()
        );
        // The same through the public entry point.
        let mut buf = encode_frame(FrameKind::Data, 0, 0, 0, 0.0, &[7u8; 10]);
        buf[36..40].copy_from_slice(&(MAX_FRAME_LEN as u32).to_le_bytes());
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // A payload longer than the reservation still arrives whole.
        let big = noise(9, 3 * PAYLOAD_RESERVE + 5);
        let buf = encode_frame(FrameKind::Data, 0, 0, 0, 0.0, &big);
        assert_eq!(read_frame(&mut &buf[..]).unwrap().unwrap().payload, big);
    }

    #[test]
    fn a_checksum_failure_is_typed() {
        let mut buf = encode_frame(FrameKind::Data, 0, 0, 0, 0.0, b"abc");
        buf[HEADER_LEN] ^= 1;
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert!(is_checksum_mismatch(&err));
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        // A malformed header is InvalidData too, but not a checksum failure.
        buf[0] ^= 1;
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert!(!is_checksum_mismatch(&err));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn table_crc_equals_bitwise_on_random_slices(
            seed in 0u64..u64::MAX,
            len in 0usize..=(64 << 10),
        ) {
            let buf = noise(seed, len);
            proptest::prop_assert_eq!(crc32(&buf), crc32_bitwise(&buf));
        }

        /// Decoder mutation corpus, frame slice: whatever happens to
        /// a valid frame on the way in — flipped bytes, a cut, junk
        /// appended — `read_frame` errors or returns a frame that
        /// re-encodes to exactly the bytes it consumed. It never
        /// panics, and never holds more memory than a small multiple
        /// of what it was given.
        #[test]
        fn mutated_frames_are_rejected_or_canonical(
            payload in proptest::collection::vec(0u8..=255u8, 0usize..200),
            flips in proptest::collection::vec((0usize..300, 1u8..=255u8), 0usize..4),
            cut in 0usize..300,
            junk in proptest::collection::vec(0u8..=255u8, 0usize..50),
        ) {
            let mut buf = encode_frame(FrameKind::Data, 1, 2, 3, 0.5, &payload);
            for &(at, mask) in &flips {
                let at = at % buf.len();
                buf[at] ^= mask;
            }
            if cut < buf.len() {
                buf.truncate(cut);
            }
            buf.extend_from_slice(&junk);
            let mut r = &buf[..];
            if let Ok(Some(f)) = read_frame(&mut r) {
                let consumed = buf.len() - r.len();
                let again = encode_frame(f.kind, f.src, f.lamport, f.gen, f.delay, &f.payload);
                proptest::prop_assert_eq!(&again[..], &buf[..consumed]);
                proptest::prop_assert!(f.payload.capacity() <= PAYLOAD_RESERVE.min(buf.len()));
            }
        }
    }
}
