//! Typed runtime errors: every way a message-passing operation can
//! fail surfaces here instead of hanging or panicking.

use std::error::Error;
use std::fmt;

use fupermod_core::json::MemberError;

/// Error type of the `fupermod-runtime` message-passing layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// A collective received a per-rank vector whose length does not
    /// match the communicator size.
    SizeMismatch {
        /// Operation tag (`scatterv`, `gatherv`, ...).
        op: &'static str,
        /// Expected length (the communicator size).
        expected: usize,
        /// Observed length.
        got: usize,
    },
    /// The operation involves a rank that has died (fail-stop).
    RankDead {
        /// Operation tag.
        op: &'static str,
        /// The dead rank.
        rank: usize,
    },
    /// The per-operation deadline elapsed before the operation could
    /// complete. The violating rank is marked dead (fail-stop) so the
    /// rest of the job observes [`RuntimeError::RankDead`] instead of
    /// hanging.
    Timeout {
        /// Operation tag.
        op: &'static str,
        /// The rank whose deadline elapsed.
        rank: usize,
        /// The configured deadline, seconds.
        deadline: f64,
    },
    /// A message was dropped by fault injection and every bounded
    /// retry (with exponential backoff) was dropped too.
    RetriesExhausted {
        /// Operation tag.
        op: &'static str,
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// Attempts made (initial send plus retries).
        attempts: u32,
    },
    /// A received payload could not be decoded as the requested type.
    Decode {
        /// What was being decoded (type or operation tag).
        what: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// An operation named a rank outside the communicator.
    InvalidRank {
        /// Operation tag.
        op: &'static str,
        /// The out-of-range rank.
        rank: usize,
        /// The communicator size.
        size: usize,
    },
    /// A reduction finished with no contributions to fold — every
    /// slot of the gathered contribution vector was `None`. With the
    /// calling rank alive this indicates a logic error (the caller
    /// always contributes its own value), so it is surfaced as a
    /// typed error rather than a panic.
    NoContributions {
        /// Operation tag (`allreduce`, ...).
        op: &'static str,
    },
    /// A nonblocking collective was posted while another collective
    /// request from the same rank was still outstanding. The closing
    /// barrier generation can carry one collective per rank at a
    /// time; complete (`wait`/`test`-to-ready/drop) the first request
    /// before posting the next.
    RequestBusy {
        /// Operation tag (`ibcast`).
        op: &'static str,
        /// The posting rank.
        rank: usize,
    },
    /// The TCP transport failed outside any single peer's death:
    /// rendezvous/handshake errors, a listener that cannot bind, a
    /// corrupt frame (bad magic, version, length or checksum), or a
    /// bootstrap that timed out. Per-peer socket failures during
    /// normal operation map onto [`RuntimeError::RankDead`] via the
    /// agreed-membership death path instead.
    Net(String),
    /// A fault plan could not be parsed or validated.
    InvalidPlan(String),
    /// An application closure running on a rank failed.
    App(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::SizeMismatch { op, expected, got } => {
                write!(f, "{op}: per-rank vector has {got} entries, communicator size is {expected}")
            }
            RuntimeError::RankDead { op, rank } => {
                write!(f, "{op}: rank {rank} is dead")
            }
            RuntimeError::Timeout { op, rank, deadline } => {
                write!(f, "{op}: rank {rank} exceeded the {deadline} s deadline")
            }
            RuntimeError::RetriesExhausted { op, src, dst, attempts } => {
                write!(f, "{op}: {src} -> {dst} dropped on all {attempts} attempts")
            }
            RuntimeError::Decode { what, detail } => {
                write!(f, "decode {what}: {detail}")
            }
            RuntimeError::InvalidRank { op, rank, size } => {
                write!(f, "{op}: rank {rank} outside communicator of size {size}")
            }
            RuntimeError::NoContributions { op } => {
                write!(f, "{op}: reduction over zero contributions")
            }
            RuntimeError::RequestBusy { op, rank } => {
                write!(
                    f,
                    "{op}: rank {rank} already has an outstanding collective request"
                )
            }
            RuntimeError::Net(msg) => write!(f, "tcp transport: {msg}"),
            RuntimeError::InvalidPlan(msg) => write!(f, "invalid fault plan: {msg}"),
            RuntimeError::App(msg) => write!(f, "application error: {msg}"),
        }
    }
}

impl Error for RuntimeError {}

/// A fault plan's member that did not read: JSON reaches the runtime
/// only as a fault plan.
impl From<MemberError> for RuntimeError {
    fn from(e: MemberError) -> Self {
        RuntimeError::InvalidPlan(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = RuntimeError::Timeout {
            op: "recv",
            rank: 3,
            deadline: 2.5,
        };
        let text = e.to_string();
        assert!(text.contains("recv") && text.contains('3') && text.contains("2.5"));
        assert!(RuntimeError::InvalidPlan("no deadline".into())
            .to_string()
            .contains("fault plan"));
    }
}
