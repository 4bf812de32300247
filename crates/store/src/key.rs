//! Store keys: which device model an observation belongs to.
//!
//! Models are keyed by `(device-profile fingerprint, kernel id, build
//! config)` rather than by host name, following the cross-machine
//! black-box profile idea (Stevens & Klöckner): two hosts whose
//! devices fingerprint identically share one model, so a model built
//! on one machine warms the cache for the other.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Cache key of one device model.
///
/// All three components are free-form strings owned by the profiling
/// layer; the store only hashes and compares them. They are shared
/// (`Arc<str>`), so cloning a key — into a plan key, or for every
/// member of a `partition` request naming one `kernel`/`config` —
/// copies no string bytes. The conventional contents are:
///
/// * `fingerprint` — a stable digest of the device profile (vendor,
///   model, memory hierarchy, clock).
/// * `kernel` — the computation kernel identifier (e.g. `gemm`).
/// * `config` — the build configuration the kernel was compiled with
///   (flags, block sizes); models are not transferable across builds.
///
/// The key carries its [`StoreKey::hash64`], computed once by
/// [`StoreKey::new`]: `Hash` feeds a map that one word, `Eq` compares
/// it before the strings, and shard selection and the plan cache's
/// digest read it without walking a byte. The components are private
/// so the stored hash cannot go stale; `Ord` orders by the components.
#[derive(Debug, Clone)]
pub struct StoreKey {
    fingerprint: Arc<str>,
    kernel: Arc<str>,
    config: Arc<str>,
    hash: u64,
}

impl StoreKey {
    /// Creates a key from its three components.
    pub fn new(
        fingerprint: impl Into<Arc<str>>,
        kernel: impl Into<Arc<str>>,
        config: impl Into<Arc<str>>,
    ) -> Self {
        let (fingerprint, kernel, config) = (fingerprint.into(), kernel.into(), config.into());
        let mut hash = FNV_OFFSET;
        for part in [&fingerprint, &kernel, &config] {
            hash = fnv1a(hash, part.as_bytes());
            hash = fnv1a(hash, &[0x1f]); // unit separator
        }
        Self {
            fingerprint,
            kernel,
            config,
            hash,
        }
    }

    /// Device-profile fingerprint.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Kernel identifier.
    pub fn kernel(&self) -> &str {
        &self.kernel
    }

    /// Build configuration.
    pub fn config(&self) -> &str {
        &self.config
    }

    /// Stable 64-bit hash of the key (FNV-1a over the components with
    /// a separator, so `("ab", "c")` and `("a", "bc")` differ). Used
    /// for shard selection — stable across processes and runs, unlike
    /// `std`'s randomly-seeded hasher. Stored by [`StoreKey::new`].
    pub fn hash64(&self) -> u64 {
        self.hash
    }

    /// Approximate heap footprint, for the plan cache's byte budget.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.fingerprint.len() + self.kernel.len() + self.config.len() + 3 * 24
    }
}

impl PartialEq for StoreKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash
            && self.fingerprint == other.fingerprint
            && self.kernel == other.kernel
            && self.config == other.config
    }
}

impl Eq for StoreKey {}

impl Hash for StoreKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialOrd for StoreKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for StoreKey {
    fn cmp(&self, other: &Self) -> Ordering {
        (&self.fingerprint, &self.kernel, &self.config).cmp(&(
            &other.fingerprint,
            &other.kernel,
            &other.config,
        ))
    }
}

impl std::fmt::Display for StoreKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/{}", self.fingerprint, self.kernel, self.config)
    }
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues an FNV-1a hash over `bytes` (the store's one stable
/// hash: keys, and the algorithm name in a plan digest).
pub(crate) fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable_and_separator_safe() {
        let a = StoreKey::new("ab", "c", "d").hash64();
        let b = StoreKey::new("a", "bc", "d").hash64();
        assert_ne!(a, b);
        assert_eq!(a, StoreKey::new("ab", "c", "d").hash64());
    }

    /// The values the byte-walking definition has always given: shard
    /// placement (`hash64() % shards`) and the per-shard gauges rest
    /// on them.
    #[test]
    fn hash_is_pinned() {
        for (key, want, shard_of_8) in [
            (("dev-0000", "gemm", "default"), 0x1e28_f4ec_5445_66fd, 5),
            (("dev-0063", "gemm", "default"), 0xfa62_8ae1_47eb_99ce, 6),
            (("fp", "gemm", "default"), 0x2341_2178_4dca_46d5, 5),
            (("ab", "c", "d"), 0x420c_ef03_c00c_3de0, 0),
            (("a", "bc", "d"), 0x1600_5b66_dc78_2f46, 6),
            (("", "", ""), 0x8f3e_7418_d31f_e7b4, 4),
        ] {
            let (fp, kernel, config) = key;
            let k = StoreKey::new(fp, kernel, config);
            assert_eq!(k.hash64(), want, "{k}");
            assert_eq!(k.hash64() % 8, shard_of_8, "{k}");
            let owned = StoreKey::new(fp.to_owned(), kernel.to_owned(), config.to_owned());
            let shared = StoreKey::new(
                Arc::<str>::from(fp),
                Arc::<str>::from(kernel),
                Arc::<str>::from(config),
            );
            for other in [owned, shared] {
                assert_eq!(other.hash64(), want, "{other}");
                assert_eq!(other, k);
            }
        }
    }

    #[test]
    fn equal_hashes_still_compare_the_components() {
        let a = StoreKey::new("a", "gemm", "default");
        let mut b = StoreKey::new("b", "gemm", "default");
        b.hash = a.hash;
        assert_ne!(a, b);
        assert_eq!(a.cmp(&b), Ordering::Less);
    }

    #[test]
    fn display_joins_components() {
        let k = StoreKey::new("fp", "gemm", "default");
        assert_eq!(k.to_string(), "fp/gemm/default");
    }
}
