//! Injectable fault plans: message delay, message drop with bounded
//! retry, straggler ranks, and rank death.
//!
//! A [`FaultPlan`] is attached to a communicator at construction time
//! and evaluated deterministically: rules fire on **counts** of
//! matching operations (`every`-th match), not on random draws, so a
//! faulty run replays identically. Plans are written as JSON (schema
//! in `docs/RUNTIME.md`) and read by [`FaultPlan::from_json`] through
//! the workspace's one JSON parser ([`fupermod_core::json`]).
//!
//! ```
//! use fupermod_runtime::FaultPlan;
//! let plan = FaultPlan::from_json(r#"{
//!     "deadline": 5.0,
//!     "stragglers": [{"rank": 1, "compute_factor": 4.0}],
//!     "drops": [{"src": 0, "dst": 2, "every": 3, "max_retries": 4}]
//! }"#).unwrap();
//! assert_eq!(plan.stragglers.len(), 1);
//! assert!((plan.straggler_factor(1) - 4.0).abs() < 1e-12);
//! ```

use std::time::{Duration, Instant};

use fupermod_core::json::{Json, Members};

use crate::error::RuntimeError;

/// Delays every `every`-th matching message by `seconds` before it
/// becomes visible to the receiver.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayRule {
    /// Sending rank the rule matches (`None` = any).
    pub src: Option<usize>,
    /// Receiving rank the rule matches (`None` = any).
    pub dst: Option<usize>,
    /// Fire on every `every`-th matching message (1 = all).
    pub every: u64,
    /// Injected delay, seconds.
    pub seconds: f64,
}

/// Drops every `every`-th matching send attempt; the sender retries
/// with exponential backoff up to `max_retries` times before the
/// operation fails with [`RuntimeError::RetriesExhausted`].
#[derive(Debug, Clone, PartialEq)]
pub struct DropRule {
    /// Sending rank the rule matches (`None` = any).
    pub src: Option<usize>,
    /// Receiving rank the rule matches (`None` = any).
    pub dst: Option<usize>,
    /// Fire on every `every`-th matching attempt (1 = all — retries
    /// are attempts too, so `every = 1` exhausts the retry budget).
    pub every: u64,
    /// Bounded retry budget after the first dropped attempt.
    pub max_retries: u32,
    /// Base backoff before the first retry, seconds; doubles per
    /// retry (exponential backoff).
    pub backoff_seconds: f64,
}

/// Slows one rank down: `comm_seconds` of extra latency per
/// communication operation, and a `compute_factor` multiplier the
/// distributed executor applies to the rank's measured compute times.
#[derive(Debug, Clone, PartialEq)]
pub struct StragglerRule {
    /// The straggling rank.
    pub rank: usize,
    /// Extra seconds added to each of the rank's communication
    /// operations.
    pub comm_seconds: f64,
    /// Multiplier on the rank's measured compute times (>= 1 slows it
    /// down).
    pub compute_factor: f64,
}

/// Kills one rank (fail-stop) after it has performed `after_ops`
/// communication operations.
#[derive(Debug, Clone, PartialEq)]
pub struct DeathRule {
    /// The rank that dies.
    pub rank: usize,
    /// Communication operations the rank completes before dying.
    pub after_ops: u64,
}

/// A deterministic, injectable fault plan for a communicator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Per-operation deadline, seconds. `None` uses the backend
    /// default ([`crate::comm::DEFAULT_DEADLINE_SECS`]).
    pub deadline: Option<f64>,
    /// Message-delay rules.
    pub delays: Vec<DelayRule>,
    /// Message-drop rules.
    pub drops: Vec<DropRule>,
    /// Straggler rules.
    pub stragglers: Vec<StragglerRule>,
    /// Rank-death rules.
    pub deaths: Vec<DeathRule>,
}

impl FaultPlan {
    /// The empty (fault-free) plan.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the plan injects nothing and keeps the default deadline.
    pub fn is_empty(&self) -> bool {
        self.deadline.is_none()
            && self.delays.is_empty()
            && self.drops.is_empty()
            && self.stragglers.is_empty()
            && self.deaths.is_empty()
    }

    /// The compute-slowdown factor for `rank` (1.0 when no straggler
    /// rule matches). Applied by the distributed executor to the
    /// rank's measured times.
    pub fn straggler_factor(&self, rank: usize) -> f64 {
        self.stragglers
            .iter()
            .find(|r| r.rank == rank)
            .map_or(1.0, |r| r.compute_factor)
    }

    /// The extra communication latency for `rank` (0.0 when no
    /// straggler rule matches).
    pub fn straggler_comm_seconds(&self, rank: usize) -> f64 {
        self.stragglers
            .iter()
            .find(|r| r.rank == rank)
            .map_or(0.0, |r| r.comm_seconds)
    }

    /// The op count after which `rank` dies, if a death rule matches.
    pub fn death_after(&self, rank: usize) -> Option<u64> {
        self.deaths
            .iter()
            .find(|r| r.rank == rank)
            .map(|r| r.after_ops)
    }

    /// Evaluates the drop rules for send attempt number `attempt` of a
    /// `src → dst` message: the first matching rule governs and ticks
    /// its slot of `counts` (one counter per rule, owned by the
    /// interpreter). `Some((max_retries, backoff_seconds))` when this
    /// attempt is dropped, the backoff doubling per attempt already
    /// made.
    pub(crate) fn drop_verdict(
        &self,
        counts: &mut [u64],
        src: usize,
        dst: usize,
        attempt: u32,
    ) -> Option<(u32, f64)> {
        let (count, rule) = counts
            .iter_mut()
            .zip(&self.drops)
            .find(|(_, r)| pair_matches(r.src, r.dst, src, dst))?;
        *count += 1;
        count.is_multiple_of(rule.every).then(|| {
            let backoff = rule.backoff_seconds * f64::from(1u32 << attempt.min(16));
            (rule.max_retries, backoff)
        })
    }

    /// Evaluates the delay rules for a `src → dst` message that was
    /// not dropped: the first matching rule governs and ticks its slot
    /// of `counts`. Returns the injected delay, seconds (0 = none).
    pub(crate) fn delay_seconds(&self, counts: &mut [u64], src: usize, dst: usize) -> f64 {
        let Some((count, rule)) = counts
            .iter_mut()
            .zip(&self.delays)
            .find(|(_, r)| pair_matches(r.src, r.dst, src, dst))
        else {
            return 0.0;
        };
        *count += 1;
        if count.is_multiple_of(rule.every) {
            rule.seconds
        } else {
            0.0
        }
    }

    /// Parses a plan from its JSON form (see `docs/RUNTIME.md` for the
    /// schema; unknown and repeated keys are rejected so typos fail
    /// fast, and ranks and counts are integers under the rule of
    /// [`fupermod_core::json::Members`]).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidPlan`] on malformed JSON,
    /// unknown or repeated keys, or out-of-range values.
    pub fn from_json(text: &str) -> Result<Self, RuntimeError> {
        let value = Json::parse(text).map_err(|e| RuntimeError::InvalidPlan(e.to_string()))?;
        let mut plan = Members::new(value).map_err(|_| bad("top level must be an object"))?;
        plan.only(&["deadline", "delays", "drops", "stragglers", "deaths"])?;
        let deadline = plan
            .take_opt("deadline")?
            .map(|d| seconds("deadline", d))
            .transpose()?;
        if let Some(d) = deadline {
            if d <= 0.0 {
                return Err(bad("deadline must be positive"));
            }
            // Every operation is timed against `now + deadline`.
            if Instant::now()
                .checked_add(Duration::from_secs_f64(d))
                .is_none()
            {
                return Err(bad("deadline is past the clock's range"));
            }
        }
        Ok(FaultPlan {
            deadline,
            delays: rules(
                &mut plan,
                "delays",
                &["src", "dst", "every", "seconds"],
                |r| {
                    Ok(DelayRule {
                        seconds: seconds("seconds", r.take("seconds")?)?,
                        src: r.take_opt("src")?,
                        dst: r.take_opt("dst")?,
                        every: every(r)?,
                    })
                },
            )?,
            drops: rules(
                &mut plan,
                "drops",
                &["src", "dst", "every", "max_retries", "backoff_seconds"],
                |r| {
                    Ok(DropRule {
                        max_retries: r.take_opt("max_retries")?.unwrap_or(3),
                        backoff_seconds: r
                            .take_opt("backoff_seconds")?
                            .map_or(Ok(1e-3), |x| seconds("backoff_seconds", x))?,
                        src: r.take_opt("src")?,
                        dst: r.take_opt("dst")?,
                        every: every(r)?,
                    })
                },
            )?,
            stragglers: rules(
                &mut plan,
                "stragglers",
                &["rank", "comm_seconds", "compute_factor"],
                |r| {
                    let comm_seconds = r
                        .take_opt("comm_seconds")?
                        .map_or(Ok(0.0), |x| seconds("comm_seconds", x))?;
                    let compute_factor: f64 = r.take_opt("compute_factor")?.unwrap_or(1.0);
                    if compute_factor.is_nan() || compute_factor <= 0.0 {
                        return Err(bad("straggler needs compute_factor > 0"));
                    }
                    Ok(StragglerRule {
                        rank: r.take("rank")?,
                        comm_seconds,
                        compute_factor,
                    })
                },
            )?,
            deaths: rules(&mut plan, "deaths", &["rank", "after_ops"], |r| {
                Ok(DeathRule {
                    rank: r.take("rank")?,
                    after_ops: r.take("after_ops")?,
                })
            })?,
        })
    }

    /// Reads and parses a plan from a JSON file.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidPlan`] on I/O or parse failure.
    pub fn from_json_file(path: &std::path::Path) -> Result<Self, RuntimeError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| RuntimeError::InvalidPlan(format!("read {}: {e}", path.display())))?;
        Self::from_json(&text)
    }
}

/// Whether a rule's endpoint filters (`None` = any rank) admit the
/// `src → dst` message.
fn pair_matches(rule_src: Option<usize>, rule_dst: Option<usize>, src: usize, dst: usize) -> bool {
    rule_src.is_none_or(|s| s == src) && rule_dst.is_none_or(|d| d == dst)
}

fn bad(msg: &str) -> RuntimeError {
    RuntimeError::InvalidPlan(msg.to_owned())
}

/// A number of seconds the runtime turns into a [`Duration`]: not
/// negative, not NaN and not above `Duration::MAX` (≈ 1.8·10¹⁹ s). The
/// JSON reader reads `1e999` as `+∞`, which would pass a sign check and
/// panic the run at its first conversion.
fn seconds(what: &str, x: f64) -> Result<f64, RuntimeError> {
    match Duration::try_from_secs_f64(x) {
        Ok(_) => Ok(x),
        Err(_) => Err(bad(&format!(
            "'{what}' must be between 0 and {:e} seconds",
            Duration::MAX.as_secs_f64()
        ))),
    }
}

/// A rule's `every` (default 1, and never 0).
fn every(rule: &mut Members) -> Result<u64, RuntimeError> {
    match rule.take_opt("every")?.unwrap_or(1) {
        0 => Err(bad("'every' must be >= 1")),
        every => Ok(every),
    }
}

/// The rules under `key`: an array of objects, each with members from
/// `allowed` only, read by `read`. Errors name the rule kind.
fn rules<T>(
    plan: &mut Members,
    key: &str,
    allowed: &[&str],
    read: impl Fn(&mut Members) -> Result<T, RuntimeError>,
) -> Result<Vec<T>, RuntimeError> {
    let items: Vec<Json> = plan.take_opt(key)?.unwrap_or_default();
    items
        .into_iter()
        .map(|item| {
            let mut rule = Members::new(item)
                .map_err(|_| bad(&format!("each '{key}' rule must be an object")))?;
            rule.only(allowed)
                .map_err(RuntimeError::from)
                .and_then(|()| read(&mut rule))
                .map_err(|e| match e {
                    RuntimeError::InvalidPlan(msg) => bad(&format!("'{key}' rule: {msg}")),
                    other => other,
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_plan_parses() {
        let plan = FaultPlan::from_json(
            r#"{
                "deadline": 2.5,
                "delays": [{"src": 0, "dst": 1, "every": 2, "seconds": 0.01}],
                "drops": [{"dst": 3, "every": 3, "max_retries": 5, "backoff_seconds": 0.002}],
                "stragglers": [{"rank": 1, "comm_seconds": 0.005, "compute_factor": 4.0}],
                "deaths": [{"rank": 2, "after_ops": 10}]
            }"#,
        )
        .unwrap();
        assert_eq!(plan.deadline, Some(2.5));
        assert_eq!(
            plan.delays,
            vec![DelayRule {
                src: Some(0),
                dst: Some(1),
                every: 2,
                seconds: 0.01
            }]
        );
        assert_eq!(plan.drops[0].src, None, "missing src is a wildcard");
        assert_eq!(plan.drops[0].max_retries, 5);
        assert!((plan.straggler_factor(1) - 4.0).abs() < 1e-12);
        assert!((plan.straggler_comm_seconds(1) - 0.005).abs() < 1e-12);
        assert_eq!(plan.straggler_factor(0), 1.0);
        assert_eq!(plan.death_after(2), Some(10));
        assert_eq!(plan.death_after(0), None);
        assert!(!plan.is_empty());
    }

    #[test]
    fn defaults_fill_in() {
        let plan = FaultPlan::from_json(r#"{"drops": [{"src": 1}]}"#).unwrap();
        let rule = &plan.drops[0];
        assert_eq!((rule.every, rule.max_retries), (1, 3));
        assert!(rule.backoff_seconds > 0.0);
        assert!(FaultPlan::from_json("{}").unwrap().is_empty());
    }

    #[test]
    fn bad_plans_are_rejected() {
        for text in [
            "",
            "[1,2]",
            r#"{"unknown": 1}"#,
            r#"{"deadline": 0}"#,
            r#"{"deadline": -1}"#,
            r#"{"delays": [{"seconds": -0.5}]}"#,
            r#"{"delays": [{"every": 0, "seconds": 0.1}]}"#,
            r#"{"delays": [{"seconds": 0.1, "typo": 1}]}"#,
            r#"{"stragglers": [{"rank": -1}]}"#,
            r#"{"stragglers": [{"rank": 0, "compute_factor": 0}]}"#,
            r#"{"deaths": [{"rank": 1}]}"#,
            r#"{"deaths": [{"rank": 1.5, "after_ops": 2}]}"#,
            r#"{"drops": "all"}"#,
            r#"{"deadline": 1.0"#,
        ] {
            assert!(
                matches!(
                    FaultPlan::from_json(text),
                    Err(RuntimeError::InvalidPlan(_))
                ),
                "accepted: {text}"
            );
        }
    }

    /// Counts and ranks the parent read through saturating or
    /// wrapping casts: `max_retries` 2^32 was 0 retries, `1e300` was
    /// `usize::MAX`, and 2^53 + 1 read as 2^53. Each is an error naming
    /// the field.
    #[test]
    fn integers_out_of_range_are_rejected_not_cast() {
        for (text, field) in [
            (r#"{"drops": [{"max_retries": 4294967296}]}"#, "max_retries"),
            (r#"{"drops": [{"max_retries": 4294967297}]}"#, "max_retries"),
            (r#"{"stragglers": [{"rank": 1e300}]}"#, "rank"),
            (r#"{"deaths": [{"rank": 1e300, "after_ops": 1}]}"#, "rank"),
            (
                r#"{"deaths": [{"rank": 1, "after_ops": 1e300}]}"#,
                "after_ops",
            ),
            (r#"{"delays": [{"every": 1e300, "seconds": 0.1}]}"#, "every"),
            (r#"{"drops": [{"src": 1e300}]}"#, "src"),
            (
                r#"{"deaths": [{"rank": 9007199254740993, "after_ops": 1}]}"#,
                "rank",
            ),
            (r#"{"drops": [{"every": 2, "every": 3}]}"#, "every"),
        ] {
            match FaultPlan::from_json(text) {
                Err(RuntimeError::InvalidPlan(msg)) => {
                    assert!(msg.contains(&format!("'{field}'")), "{text}: {msg}")
                }
                other => panic!("{text}: {other:?}"),
            }
        }
        // The largest of each still reads as written.
        let plan = FaultPlan::from_json(
            r#"{"drops": [{"max_retries": 4294967295}], "deaths": [{"rank": 9007199254740991, "after_ops": 9007199254740991}]}"#,
        )
        .unwrap();
        assert_eq!(plan.drops[0].max_retries, u32::MAX);
        assert_eq!(plan.deaths[0].rank, (1 << 53) - 1);
        assert_eq!(plan.deaths[0].after_ops, (1 << 53) - 1);
    }

    /// Rejects `template` with `HUGE` set to `1e999`, which the JSON
    /// reader turns into `+∞`, and to `1e300`, finite but past
    /// `Duration::MAX`. Both used to pass the plan and panic the run at
    /// its first conversion to a `Duration`.
    fn rejects_seconds_past_a_duration(template: &str) {
        for huge in ["1e999", "1e300"] {
            let text = template.replace("HUGE", huge);
            assert!(
                matches!(
                    FaultPlan::from_json(&text),
                    Err(RuntimeError::InvalidPlan(_))
                ),
                "accepted: {text}"
            );
        }
    }

    #[test]
    fn a_deadline_past_a_duration_is_rejected() {
        rejects_seconds_past_a_duration(r#"{"deadline": HUGE}"#);
        // A `Duration`, but `Instant::now()` plus it overflows.
        assert!(FaultPlan::from_json(r#"{"deadline": 1e19}"#).is_err());
    }

    #[test]
    fn delay_seconds_past_a_duration_are_rejected() {
        rejects_seconds_past_a_duration(r#"{"delays": [{"every": 1, "seconds": HUGE}]}"#);
    }

    #[test]
    fn a_backoff_past_a_duration_is_rejected() {
        rejects_seconds_past_a_duration(r#"{"drops": [{"backoff_seconds": HUGE}]}"#);
    }

    #[test]
    fn straggler_seconds_past_a_duration_are_rejected() {
        rejects_seconds_past_a_duration(r#"{"stragglers": [{"rank": 0, "comm_seconds": HUGE}]}"#);
    }

    #[test]
    fn nesting_bombs_and_escapes_follow_the_one_grammar() {
        let bomb = format!(
            "{{\"delays\":{}{}}}",
            "[".repeat(200_000),
            "]".repeat(200_000)
        );
        match FaultPlan::from_json(&bomb) {
            Err(RuntimeError::InvalidPlan(msg)) => {
                assert!(msg.contains("nesting deeper than"), "{msg}")
            }
            other => panic!("bomb not rejected: {other:?}"),
        }
        // Escapes are decoded before keys are matched.
        let plan = FaultPlan::from_json(r#"{"dea\u0064line": 2.0}"#).unwrap();
        assert_eq!(plan.deadline, Some(2.0));
    }
}
