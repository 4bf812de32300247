//! Typed message payloads: a tiny fixed-width little-endian codec.
//!
//! The runtime moves raw `Vec<u8>` envelopes; [`Wire`] is the typed
//! boundary on top, mirroring how `rsmpi` maps Rust types onto MPI
//! datatypes. Encodings are self-delimiting (vectors carry a `u64`
//! length prefix) and deterministic, so the same value always
//! produces the same bytes — a property the byte-accounted trace
//! events and the simulated backend's virtual-clock charges rely on.

use crate::error::RuntimeError;
use fupermod_core::Point;

/// Upper bound on the byte length of any single decodable payload.
///
/// [`Wire::decode`] rejects larger buffers before touching them, and
/// the vector decoder bounds both its element count and its
/// pre-allocation by the same cap, so a hostile or corrupted frame
/// can neither over-allocate nor spin: the work done by a failed
/// decode is proportional to the bytes actually received, never to a
/// length a sender merely *claimed*. The network transport enforces
/// the same cap on incoming frames before allocating
/// (`net::MAX_FRAME_LEN`).
pub const MAX_WIRE_LEN: usize = 64 << 20;

/// A value that can cross the runtime as a message payload.
pub trait Wire: Sized {
    /// A lower bound, in bytes, on the encoding of any value of this
    /// type. Used by the vector decoder to reject hostile length
    /// prefixes (`claimed elements × MIN_ENCODED_LEN` can never
    /// exceed the bytes that follow) *before* allocating. Zero is
    /// legal (`()` encodes to nothing) — such elements fall back to
    /// the [`MAX_WIRE_LEN`] count cap instead.
    const MIN_ENCODED_LEN: usize;

    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes a value from the front of `bytes`, returning it and the
    /// number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Decode`] on truncated or malformed
    /// input.
    fn decode_from(bytes: &[u8]) -> Result<(Self, usize), RuntimeError>;

    /// Appends the encodings of `items`, in order, to `out` — the
    /// element run of a vector, without its length prefix. The
    /// fixed-width scalars override it with one bulk conversion, so a
    /// `Vec<f64>` panel encodes at copy speed; the bytes are those of
    /// calling [`Wire::encode`] per element.
    fn encode_many(items: &[Self], out: &mut Vec<u8>) {
        for item in items {
            item.encode(out);
        }
    }

    /// Decodes `len` consecutive values from the front of `bytes`,
    /// returning them and the number of bytes consumed — the element
    /// run of a vector. `len` must already be bounded by the bytes
    /// present (`Vec<T>::decode_from`, the caller, rejects hostile
    /// counts first). The fixed-width scalars override it with one
    /// checked bulk conversion; values and errors are those of calling
    /// [`Wire::decode_from`] `len` times.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Decode`] on truncated or malformed
    /// input.
    fn decode_many_from(bytes: &[u8], len: usize) -> Result<(Vec<Self>, usize), RuntimeError> {
        let mut items = Vec::with_capacity(len);
        let mut used = 0;
        for _ in 0..len {
            let (item, n) = Self::decode_from(&bytes[used..])?;
            used += n;
            items.push(item);
        }
        Ok((items, used))
    }

    /// Encodes `self` into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes a value that must consume the whole buffer.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Decode`] on truncated, malformed or
    /// trailing input, and on buffers longer than [`MAX_WIRE_LEN`].
    fn decode(bytes: &[u8]) -> Result<Self, RuntimeError> {
        if bytes.len() > MAX_WIRE_LEN {
            return Err(RuntimeError::Decode {
                what: "payload",
                detail: format!(
                    "{} bytes exceeds the {MAX_WIRE_LEN}-byte payload cap",
                    bytes.len()
                ),
            });
        }
        let (value, used) = Self::decode_from(bytes)?;
        if used != bytes.len() {
            return Err(RuntimeError::Decode {
                what: "payload",
                detail: format!("{} trailing bytes", bytes.len() - used),
            });
        }
        Ok(value)
    }
}

/// Decodes a received payload as `T`, retagging a decode error with
/// the operation it surfaced in.
pub(crate) fn decode_as<T: Wire>(op: &'static str, bytes: &[u8]) -> Result<T, RuntimeError> {
    T::decode(bytes).map_err(|e| match e {
        RuntimeError::Decode { detail, .. } => RuntimeError::Decode { what: op, detail },
        other => other,
    })
}

fn truncated(what: &'static str) -> RuntimeError {
    RuntimeError::Decode {
        what,
        detail: "truncated".to_owned(),
    }
}

fn take<const N: usize>(bytes: &[u8], what: &'static str) -> Result<[u8; N], RuntimeError> {
    bytes
        .get(..N)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| truncated(what))
}

macro_rules! impl_wire_scalar {
    ($ty:ty, $what:literal) => {
        impl Wire for $ty {
            const MIN_ENCODED_LEN: usize = std::mem::size_of::<$ty>();
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode_from(bytes: &[u8]) -> Result<(Self, usize), RuntimeError> {
                const N: usize = std::mem::size_of::<$ty>();
                let raw = take::<N>(bytes, $what)?;
                Ok((<$ty>::from_le_bytes(raw), N))
            }
            fn encode_many(items: &[Self], out: &mut Vec<u8>) {
                const N: usize = std::mem::size_of::<$ty>();
                let start = out.len();
                out.resize(start + items.len() * N, 0);
                for (raw, item) in out[start..].chunks_exact_mut(N).zip(items) {
                    raw.copy_from_slice(&item.to_le_bytes());
                }
            }
            fn decode_many_from(
                bytes: &[u8],
                len: usize,
            ) -> Result<(Vec<Self>, usize), RuntimeError> {
                const N: usize = std::mem::size_of::<$ty>();
                let raw = len
                    .checked_mul(N)
                    .and_then(|need| bytes.get(..need))
                    .ok_or_else(|| truncated($what))?;
                let items = raw
                    .chunks_exact(N)
                    .map(|c| <$ty>::from_le_bytes(c.try_into().expect("chunks_exact(N)")))
                    .collect();
                Ok((items, raw.len()))
            }
        }
    };
}

impl_wire_scalar!(u8, "u8");
impl_wire_scalar!(u32, "u32");
impl_wire_scalar!(u64, "u64");
impl_wire_scalar!(f64, "f64");

impl Wire for bool {
    const MIN_ENCODED_LEN: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode_from(bytes: &[u8]) -> Result<(Self, usize), RuntimeError> {
        let (raw, used) = u8::decode_from(bytes)?;
        match raw {
            0 => Ok((false, used)),
            1 => Ok((true, used)),
            other => Err(RuntimeError::Decode {
                what: "bool",
                detail: format!("invalid byte {other}"),
            }),
        }
    }
}

impl Wire for () {
    const MIN_ENCODED_LEN: usize = 0;
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode_from(_bytes: &[u8]) -> Result<(Self, usize), RuntimeError> {
        Ok(((), 0))
    }
}

impl<T: Wire> Wire for Vec<T> {
    // The u64 element-count prefix.
    const MIN_ENCODED_LEN: usize = 8;

    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        T::encode_many(self, out);
    }
    fn decode_from(bytes: &[u8]) -> Result<(Self, usize), RuntimeError> {
        let (len, used) = u64::decode_from(bytes)?;
        let len = usize::try_from(len).map_err(|_| RuntimeError::Decode {
            what: "vec length",
            detail: "length exceeds usize".to_owned(),
        })?;
        // Guard against hostile prefixes before allocating: `len`
        // elements need at least `len × MIN_ENCODED_LEN` bytes after
        // the prefix. Zero-width elements (`()` and compositions of
        // it) cannot be bounded by the remaining bytes, so their
        // count falls back to the global payload cap — keeping the
        // decode loop finite either way.
        let remaining = bytes.len() - used;
        let hostile = match T::MIN_ENCODED_LEN {
            0 => len > MAX_WIRE_LEN,
            min => len > remaining / min,
        };
        if hostile {
            return Err(RuntimeError::Decode {
                what: "vec length",
                detail: format!("{len} elements in a {}-byte payload", bytes.len()),
            });
        }
        let (items, n) = T::decode_many_from(&bytes[used..], len)?;
        Ok((items, used + n))
    }
}

/// `Option<T>` encodes as a one-byte presence tag (`0` = `None`,
/// `1` = `Some`) followed by the payload when present.
///
/// The availability-tolerant collectives (`gather_available`,
/// `allgatherv_available`) move per-rank slots of exactly this shape:
/// `None` marks a dead or lost contribution. Keeping the encoding on
/// the [`Wire`] trait means those slot vectors stay deterministic
/// bytes, which the simulated backend's virtual-clock charges and the
/// **pinned reduction order** depend on: every `allreduce` schedule
/// (hub, ring, tree) gathers raw contributions into rank-indexed
/// slots and folds them *locally, left-associated, in ascending rank
/// order, skipping `None` slots* — so the float result is bitwise
/// identical across algorithms (see `comm.rs` for the fold itself).
impl<T: Wire> Wire for Option<T> {
    // The one-byte presence tag.
    const MIN_ENCODED_LEN: usize = 1;

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode_from(bytes: &[u8]) -> Result<(Self, usize), RuntimeError> {
        let (tag, used) = u8::decode_from(bytes)?;
        match tag {
            0 => Ok((None, used)),
            1 => {
                let (v, n) = T::decode_from(&bytes[used..])?;
                Ok((Some(v), used + n))
            }
            other => Err(RuntimeError::Decode {
                what: "option tag",
                detail: format!("invalid byte {other}"),
            }),
        }
    }
}

impl Wire for Point {
    // d: u64 + t: f64 + reps: u32 + ci: f64.
    const MIN_ENCODED_LEN: usize = 28;

    fn encode(&self, out: &mut Vec<u8>) {
        self.d.encode(out);
        self.t.encode(out);
        self.reps.encode(out);
        self.ci.encode(out);
    }
    fn decode_from(bytes: &[u8]) -> Result<(Self, usize), RuntimeError> {
        let (d, a) = u64::decode_from(bytes)?;
        let (t, b) = f64::decode_from(&bytes[a..])?;
        let (reps, c) = u32::decode_from(&bytes[a + b..])?;
        let (ci, e) = f64::decode_from(&bytes[a + b + c..])?;
        Ok((Point { d, t, reps, ci }, a + b + c + e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.to_bytes();
        assert_eq!(T::decode(&bytes).unwrap(), value);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(-1.5f64);
        round_trip(f64::INFINITY);
        round_trip(true);
        round_trip(false);
        round_trip(());
    }

    #[test]
    fn vectors_round_trip() {
        round_trip(Vec::<u64>::new());
        round_trip(vec![1u64, 2, 3]);
        round_trip(vec![0.5f64, -0.25]);
        round_trip(vec![vec![1u32, 2], vec![], vec![3]]);
    }

    #[test]
    fn points_round_trip_bit_exact() {
        let p = Point {
            d: 1234,
            t: 0.1 + 0.2, // not exactly 0.3: must survive bit-exactly
            reps: 7,
            ci: 1e-9,
        };
        let bytes = p.to_bytes();
        let back = Point::decode(&bytes).unwrap();
        assert_eq!(back.t.to_bits(), p.t.to_bits());
        assert_eq!(back, p);
        round_trip(vec![p, Point::single(0, 0.0)]);
    }

    #[test]
    fn truncated_and_trailing_input_is_rejected() {
        assert!(u64::decode(&[1, 2, 3]).is_err());
        assert!(f64::decode(&[0u8; 9]).is_err());
        assert!(bool::decode(&[2]).is_err());
        let bytes = [9u64.to_le_bytes().to_vec(), vec![0u8; 4]].concat();
        assert!(Vec::<u64>::decode(&bytes).is_err(), "hostile length prefix");
    }

    /// A hostile element count must be rejected *before* any
    /// allocation: `len × MIN_ENCODED_LEN` can never exceed the bytes
    /// that actually follow the prefix, so claiming `u64::MAX`
    /// elements of any type fails in O(1) without reserving memory.
    #[test]
    fn hostile_length_prefixes_never_allocate() {
        let huge = u64::MAX.to_le_bytes().to_vec();
        assert!(Vec::<u64>::decode(&huge).is_err());
        assert!(Vec::<u8>::decode(&huge).is_err());
        assert!(Vec::<Vec<u64>>::decode(&huge).is_err());
        assert!(Vec::<Option<u8>>::decode(&huge).is_err());
        assert!(Vec::<Point>::decode(&huge).is_err());
        // Zero-width elements bypass the per-byte bound; the count cap
        // still keeps the decode loop finite.
        assert!(Vec::<()>::decode(&huge).is_err());
        assert!(Vec::<Vec<()>>::decode(&huge).is_err());
        // One-byte elements: claiming one more element than the
        // payload holds is the tightest rejected prefix.
        let bytes = [5u64.to_le_bytes().to_vec(), vec![1u8; 4]].concat();
        assert!(Vec::<u8>::decode(&bytes).is_err());
        let ok = [4u64.to_le_bytes().to_vec(), vec![1u8; 4]].concat();
        assert_eq!(Vec::<u8>::decode(&ok).unwrap(), vec![1u8; 4]);
        // A legal count of zero-width elements still round-trips.
        round_trip(vec![(), (), ()]);
    }

    #[test]
    fn oversized_payloads_are_rejected_by_the_cap() {
        let oversized = vec![0u8; MAX_WIRE_LEN + 1];
        match Vec::<u8>::decode(&oversized) {
            Err(RuntimeError::Decode { what, .. }) => assert_eq!(what, "payload"),
            other => panic!("expected Decode error, got {other:?}"),
        }
        // At the cap itself the decode is still legal.
        let mut at_cap = ((MAX_WIRE_LEN - 8) as u64).to_le_bytes().to_vec();
        at_cap.resize(MAX_WIRE_LEN, 7);
        assert_eq!(Vec::<u8>::decode(&at_cap).unwrap().len(), MAX_WIRE_LEN - 8);
    }

    #[test]
    fn encoding_is_deterministic() {
        let v = vec![Point::single(5, 0.25), Point::single(7, 1.0 / 3.0)];
        assert_eq!(v.to_bytes(), v.to_bytes());
    }

    /// Asserts the fuzz property for one payload type: decoding
    /// arbitrary bytes either fails with a typed error or produces a
    /// value whose canonical re-encoding is exactly the input.
    fn decode_is_total_and_canonical<T: Wire>(bytes: &[u8]) {
        if let Ok(value) = T::decode(bytes) {
            assert_eq!(value.to_bytes(), bytes, "non-canonical decode");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Fuzz-style decoder property: feeding *arbitrary* bytes to
        /// every payload type in use must either fail with a typed
        /// [`RuntimeError::Decode`] or round-trip canonically — never
        /// panic, hang or over-allocate. (Errors surface as
        /// `Result`s, so "no panic" is checked simply by running to
        /// completion.)
        #[test]
        fn decode_survives_arbitrary_bytes(
            bytes in proptest::collection::vec(0u8..=255u8, 0usize..64)
        ) {
            decode_is_total_and_canonical::<u8>(&bytes);
            decode_is_total_and_canonical::<u32>(&bytes);
            decode_is_total_and_canonical::<u64>(&bytes);
            decode_is_total_and_canonical::<f64>(&bytes);
            decode_is_total_and_canonical::<bool>(&bytes);
            decode_is_total_and_canonical::<Point>(&bytes);
            decode_is_total_and_canonical::<Vec<u8>>(&bytes);
            decode_is_total_and_canonical::<Vec<u64>>(&bytes);
            decode_is_total_and_canonical::<Vec<Vec<u32>>>(&bytes);
            decode_is_total_and_canonical::<Vec<Point>>(&bytes);
            decode_is_total_and_canonical::<Option<Vec<u64>>>(&bytes);
            decode_is_total_and_canonical::<Vec<Option<Vec<u8>>>>(&bytes);
        }
    }

    /// The element-at-a-time definition of the two bulk methods (the
    /// trait's provided bodies, written out so the scalar overrides
    /// have something to be compared against).
    fn encode_each<T: Wire>(items: &[T]) -> Vec<u8> {
        let mut out = Vec::new();
        for item in items {
            item.encode(&mut out);
        }
        out
    }

    fn decode_each<T: Wire>(bytes: &[u8], len: usize) -> Result<(Vec<T>, usize), RuntimeError> {
        let mut items = Vec::new();
        let mut used = 0;
        for _ in 0..len {
            let (item, n) = T::decode_from(&bytes[used..])?;
            used += n;
            items.push(item);
        }
        Ok((items, used))
    }

    /// Bulk decode of `len` scalars from arbitrary bytes is the
    /// per-element decode: the same values to the bit and the same
    /// consumed count, or the same error.
    fn bulk_decode_is_per_element<T: Wire + std::fmt::Debug>(bytes: &[u8], len: usize) {
        match (
            T::decode_many_from(bytes, len),
            decode_each::<T>(bytes, len),
        ) {
            (Ok((bulk, used)), Ok((each, used_each))) => {
                assert_eq!(used, used_each);
                assert_eq!(bulk.len(), len);
                assert_eq!(encode_each(&bulk), encode_each(&each), "values differ");
                let mut out = vec![0xAA];
                T::encode_many(&bulk, &mut out);
                assert_eq!(out[0], 0xAA, "bulk encode must append");
                assert_eq!(&out[1..], &bytes[..used], "bulk encode differs");
            }
            (Err(bulk), Err(each)) => assert_eq!(bulk.to_string(), each.to_string()),
            (bulk, each) => panic!("bulk {bulk:?} but per-element {each:?}"),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn scalar_bulk_codec_equals_per_element(
            bytes in proptest::collection::vec(0u8..=255u8, 0usize..200),
            len in 0usize..40,
        ) {
            bulk_decode_is_per_element::<u8>(&bytes, len);
            bulk_decode_is_per_element::<u32>(&bytes, len);
            bulk_decode_is_per_element::<u64>(&bytes, len);
            bulk_decode_is_per_element::<f64>(&bytes, len);
        }
    }

    #[test]
    fn bulk_decode_checks_the_count_it_is_given() {
        // A count whose byte size overflows is truncation, not a panic.
        assert!(u64::decode_many_from(&[0u8; 16], usize::MAX).is_err());
        assert!(f64::decode_many_from(&[0u8; 16], 3).is_err());
        assert_eq!(
            u32::decode_many_from(&[1, 0, 0, 0, 9], 1).unwrap(),
            (vec![1], 4)
        );
        assert_eq!(u8::decode_many_from(&[], 0).unwrap(), (vec![], 0));
    }

    /// Element types without a bulk override go through the provided
    /// per-element bodies: same bytes as before, prefix then elements.
    #[test]
    fn composite_vectors_keep_their_encoding() {
        fn check<T: Wire + PartialEq + std::fmt::Debug>(v: Vec<T>) {
            let want = [(v.len() as u64).to_bytes(), encode_each(&v)].concat();
            assert_eq!(v.to_bytes(), want);
            assert_eq!(Vec::<T>::decode(&want).unwrap(), v);
        }
        check(vec![vec![1u32, 2], vec![], vec![u32::MAX]]);
        check(vec![
            Point::single(5, 0.1 + 0.2),
            Point::single(7, 1.0 / 3.0),
        ]);
        check(vec![Some(vec![1.5f64, -0.0]), None, Some(vec![])]);
        check(vec![true, false, true]);
        check(vec![f64::NAN.to_bits(), 0, u64::MAX]);
        // NaN payloads and signed zero survive the bulk path bit for bit.
        let odd = vec![
            f64::from_bits(0x7FF8_0000_0000_0001),
            -0.0,
            f64::MIN_POSITIVE / 2.0,
        ];
        let back = Vec::<f64>::decode(&odd.to_bytes()).unwrap();
        assert_eq!(
            back.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            odd.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn options_round_trip_and_reject_bad_tags() {
        round_trip(Option::<u64>::None);
        round_trip(Some(42u64));
        round_trip(Some(vec![1.5f64, -0.5]));
        round_trip(vec![Some(1u32), None, Some(3)]);
        // None is exactly one byte; Some adds the payload after the tag.
        assert_eq!(Option::<u64>::None.to_bytes(), vec![0]);
        assert_eq!(Some(7u8).to_bytes(), vec![1, 7]);
        assert!(Option::<u8>::decode(&[2, 0]).is_err(), "invalid tag");
        assert!(Option::<u64>::decode(&[1]).is_err(), "truncated payload");
    }
}
