//! Store keys: which device model an observation belongs to.
//!
//! Models are keyed by `(device-profile fingerprint, kernel id, build
//! config)` rather than by host name, following the cross-machine
//! black-box profile idea (Stevens & Klöckner): two hosts whose
//! devices fingerprint identically share one model, so a model built
//! on one machine warms the cache for the other.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

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
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct StoreKey {
    /// Device-profile fingerprint.
    pub fingerprint: Arc<str>,
    /// Kernel identifier.
    pub kernel: Arc<str>,
    /// Build configuration.
    pub config: Arc<str>,
}

impl StoreKey {
    /// Creates a key from its three components.
    pub fn new(
        fingerprint: impl Into<Arc<str>>,
        kernel: impl Into<Arc<str>>,
        config: impl Into<Arc<str>>,
    ) -> Self {
        Self {
            fingerprint: fingerprint.into(),
            kernel: kernel.into(),
            config: config.into(),
        }
    }

    /// Stable 64-bit hash of the key (FNV-1a over the components with
    /// a separator, so `("ab", "c")` and `("a", "bc")` differ). Used
    /// for shard selection — stable across processes and runs, unlike
    /// `std`'s randomly-seeded hasher.
    pub fn hash64(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for part in [&self.fingerprint, &self.kernel, &self.config] {
            for &b in part.as_bytes() {
                h = fnv1a_step(h, b);
            }
            h = fnv1a_step(h, 0x1f); // unit separator
        }
        h
    }

    /// Approximate heap footprint, for the plan cache's byte budget.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.fingerprint.len() + self.kernel.len() + self.config.len() + 3 * 24
    }
}

impl std::fmt::Display for StoreKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/{}", self.fingerprint, self.kernel, self.config)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv1a_step(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(FNV_PRIME)
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

    #[test]
    fn display_joins_components() {
        let k = StoreKey::new("fp", "gemm", "default");
        assert_eq!(k.to_string(), "fp/gemm/default");
    }
}
