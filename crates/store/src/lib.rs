#![warn(missing_docs)]

//! # fupermod-store — partitioning-as-a-service substrate
//!
//! FuPerMod's cost is dominated by rebuilding functional performance
//! models and re-solving the partition every time new `(size, time)`
//! observations arrive. The paper rebuilds from scratch; a serving
//! system handling many tenants and millions of lookups must refresh
//! *incrementally* and answer from warm cache. This crate applies the
//! incremental-view-maintenance idea from materialized-view systems to
//! device models:
//!
//! * [`StoreKey`] — cache key `(device-profile fingerprint, kernel id,
//!   build config)`, so models transfer between hosts with the same
//!   device fingerprint.
//! * [`ModelEntry`] — one device model plus the per-size
//!   `IncrementalStats` samples it was derived from, maintained
//!   incrementally: a new observation of a known size patches one
//!   Akima spline window (O(1)), **bit-identical** to a from-scratch
//!   rebuild over the same sample stream (pinned by the
//!   `prefix_identity` proptest suite), with a full-rebuild fallback
//!   when the observation reclassifies earlier samples' outlier
//!   status. Every mutation advances the entry's epoch counter.
//! * [`ModelStore`] — N-way sharded (hash-by-key) concurrent map of
//!   entries, plus a [`PlanCache`] memoizing `Partitioner` results
//!   keyed by `(member epochs, total, algorithm)` — an epoch advance
//!   changes the key, so stale plans can never be served — with LRU
//!   eviction under a configurable byte budget.
//! * [`protocol`]/[`server`] — the line-delimited JSON protocol and
//!   the TCP serving loop behind the `fupermod_served` daemon
//!   (`docs/SERVE.md`).
//!
//! Hit/miss/refresh/eviction counters live in a shared
//! [`fupermod_core::telemetry::Registry`] on the store; a traced
//! daemon exports the registry as `metrics` trace events on shutdown,
//! and the [`http`] module serves it live (`GET /metrics` Prometheus exposition plus
//! `/healthz`/`/readyz` probes — `docs/OBSERVABILITY.md` §9).

pub mod entry;
pub mod http;
pub mod key;
pub mod plan;
pub mod protocol;
pub mod server;
pub mod store;

pub use entry::{EntryConfig, IngestOutcome, ModelEntry};
pub use key::StoreKey;
pub use plan::{PlanCache, PlanKey};
pub use store::{ModelStore, StoreConfig, StoreMetrics, StoreMetricsSnapshot};

use std::fmt;

use fupermod_core::json::MemberError;
use fupermod_core::CoreError;

/// Errors of the store and serving layer.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying model/partition operation failed.
    Core(CoreError),
    /// An observation or point was invalid for ingestion.
    Ingest(String),
    /// A lookup or partition referenced a key with no entry.
    UnknownKey(String),
    /// A protocol line could not be parsed or answered.
    Protocol(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Core(e) => write!(f, "store: {e}"),
            StoreError::Ingest(m) => write!(f, "store ingest: {m}"),
            StoreError::UnknownKey(k) => write!(f, "store: no entry for key {k}"),
            StoreError::Protocol(m) => write!(f, "store protocol: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<CoreError> for StoreError {
    fn from(e: CoreError) -> Self {
        StoreError::Core(e)
    }
}

impl From<MemberError> for StoreError {
    fn from(e: MemberError) -> Self {
        StoreError::Protocol(e.to_string())
    }
}
