//! # fupermod-trace — causal trace analysis
//!
//! Post-mortem analysis for traces produced by the reproduction's
//! observability layer (`fupermod_core::trace`, schema v3):
//!
//! * [`merge`] — k-way **causal merge** of per-rank JSONL traces
//!   into one global timeline, ordered by the Lamport stamps the
//!   runtime piggybacks on its message envelopes. Deterministic:
//!   the same run traced twice (any backend, any file interleaving)
//!   merges to the identical sequence.
//! * [`report`] — per-rank compute/comm/wait decomposition,
//!   collective-round **critical path** through the recorded
//!   `(algorithm, rounds)` metadata, the dynamic-loop imbalance
//!   table, fault/retry summaries, and latency-histogram digests.
//!   Rendered as text or as summary JSON matching
//!   `scripts/tracetool_schema.json`.
//! * [`chrome`] — export to the Chrome trace-event format
//!   (`chrome://tracing`, [Perfetto](https://ui.perfetto.dev)): one
//!   track per rank, duration slices for benchmark/communication
//!   spans reconstructed barrier-aligned from the merged order.
//! * [`mod@tail`] — **live** follow of growing JSONL traces: the same
//!   causal order the batch merge produces, printed as the files
//!   grow, with rolling per-op latency quantiles (torn-write-safe;
//!   picks up files that appear late in a `--trace-dir`).
//! * [`csv`] — the fixed wide-column CSV **export** of a merged
//!   trace (one-way: a trace file is JSONL, nothing reads CSV back).
//! * [`schema`] — a small JSON-Schema-subset validator over the
//!   workspace's one JSON parser (`fupermod_core::json`, re-exported
//!   here as [`json`] / [`Json`]), enough to check tracetool output
//!   against committed schemas in an offline build environment.
//!
//! The `fupermod_tracetool` binary (in the facade crate) fronts all
//! of this with `merge`, `report`, `export`, `validate`, and `tail`
//! subcommands.

pub mod chrome;
pub mod csv;
pub mod merge;
pub mod report;
pub mod schema;
pub mod tail;

pub use chrome::export_chrome;
pub use csv::export_csv;
pub use fupermod_core::json::{self, Json};
pub use merge::{event_rank, merge_events, Merge, StampedEvent};
pub use report::Report;
pub use schema::validate;
pub use tail::{tail, TailOptions};
