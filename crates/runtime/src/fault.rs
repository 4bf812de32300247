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

use fupermod_core::json::Json;

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
    /// schema; unknown keys are rejected so typos fail fast).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidPlan`] on malformed JSON,
    /// unknown keys, or out-of-range values.
    pub fn from_json(text: &str) -> Result<Self, RuntimeError> {
        let value = Json::parse(text).map_err(|e| RuntimeError::InvalidPlan(e.to_string()))?;
        let obj = value
            .as_object()
            .ok_or_else(|| RuntimeError::InvalidPlan("top level must be an object".to_owned()))?;
        let mut plan = FaultPlan::default();
        for (key, v) in obj {
            match key.as_str() {
                "deadline" => {
                    let d = seconds(v, "deadline")?;
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
                    plan.deadline = Some(d);
                }
                "delays" => {
                    for item in arr(v, "delays")? {
                        plan.delays.push(parse_delay(item)?);
                    }
                }
                "drops" => {
                    for item in arr(v, "drops")? {
                        plan.drops.push(parse_drop(item)?);
                    }
                }
                "stragglers" => {
                    for item in arr(v, "stragglers")? {
                        plan.stragglers.push(parse_straggler(item)?);
                    }
                }
                "deaths" => {
                    for item in arr(v, "deaths")? {
                        plan.deaths.push(parse_death(item)?);
                    }
                }
                other => return Err(bad(&format!("unknown key '{other}'"))),
            }
        }
        Ok(plan)
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

fn num(v: &Json, what: &str) -> Result<f64, RuntimeError> {
    v.as_f64()
        .ok_or_else(|| bad(&format!("'{what}' must be a number")))
}

/// A number of seconds the runtime turns into a [`Duration`]: not
/// negative, not NaN and not above `Duration::MAX` (≈ 1.8·10¹⁹ s). The
/// JSON reader reads `1e999` as `+∞`, which would pass a sign check and
/// panic the run at its first conversion.
fn seconds(v: &Json, what: &str) -> Result<f64, RuntimeError> {
    let x = num(v, what)?;
    match Duration::try_from_secs_f64(x) {
        Ok(_) => Ok(x),
        Err(_) => Err(bad(&format!(
            "'{what}' must be between 0 and {:e} seconds",
            Duration::MAX.as_secs_f64()
        ))),
    }
}

fn arr<'a>(v: &'a Json, what: &str) -> Result<&'a [Json], RuntimeError> {
    v.as_array()
        .ok_or_else(|| bad(&format!("'{what}' must be an array")))
}

fn index(v: &Json, what: &str) -> Result<usize, RuntimeError> {
    let x = num(v, what)?;
    if x < 0.0 || x.fract() != 0.0 {
        return Err(bad(&format!("'{what}' must be a non-negative integer")));
    }
    Ok(x as usize)
}

struct Fields<'a> {
    obj: &'a [(String, Json)],
    what: &'static str,
}

impl<'a> Fields<'a> {
    fn new(v: &'a Json, what: &'static str) -> Result<Self, RuntimeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| bad(&format!("each '{what}' rule must be an object")))?;
        Ok(Self { obj, what })
    }
    fn get(&self, key: &str) -> Option<&'a Json> {
        self.obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
    fn require(&self, key: &str) -> Result<&'a Json, RuntimeError> {
        self.get(key)
            .ok_or_else(|| bad(&format!("'{}' rule missing '{key}'", self.what)))
    }
    fn check_keys(&self, allowed: &[&str]) -> Result<(), RuntimeError> {
        for (k, _) in self.obj {
            if !allowed.contains(&k.as_str()) {
                return Err(bad(&format!("'{}' rule has unknown key '{k}'", self.what)));
            }
        }
        Ok(())
    }
}

fn parse_endpoint(f: &Fields<'_>, key: &'static str) -> Result<Option<usize>, RuntimeError> {
    f.get(key).map(|v| index(v, key)).transpose()
}

fn parse_every(f: &Fields<'_>) -> Result<u64, RuntimeError> {
    let every = f.get("every").map(|v| index(v, "every")).transpose()?;
    let every = every.unwrap_or(1) as u64;
    if every == 0 {
        return Err(bad("'every' must be >= 1"));
    }
    Ok(every)
}

fn parse_delay(v: &Json) -> Result<DelayRule, RuntimeError> {
    let f = Fields::new(v, "delays")?;
    f.check_keys(&["src", "dst", "every", "seconds"])?;
    Ok(DelayRule {
        seconds: seconds(f.require("seconds")?, "seconds")?,
        src: parse_endpoint(&f, "src")?,
        dst: parse_endpoint(&f, "dst")?,
        every: parse_every(&f)?,
    })
}

fn parse_drop(v: &Json) -> Result<DropRule, RuntimeError> {
    let f = Fields::new(v, "drops")?;
    f.check_keys(&["src", "dst", "every", "max_retries", "backoff_seconds"])?;
    let max_retries = f
        .get("max_retries")
        .map(|v| index(v, "max_retries"))
        .transpose()?
        .unwrap_or(3) as u32;
    let backoff_seconds = f
        .get("backoff_seconds")
        .map(|v| seconds(v, "backoff_seconds"))
        .transpose()?
        .unwrap_or(1e-3);
    Ok(DropRule {
        src: parse_endpoint(&f, "src")?,
        dst: parse_endpoint(&f, "dst")?,
        every: parse_every(&f)?,
        max_retries,
        backoff_seconds,
    })
}

fn parse_straggler(v: &Json) -> Result<StragglerRule, RuntimeError> {
    let f = Fields::new(v, "stragglers")?;
    f.check_keys(&["rank", "comm_seconds", "compute_factor"])?;
    let comm_seconds = f
        .get("comm_seconds")
        .map(|v| seconds(v, "comm_seconds"))
        .transpose()?
        .unwrap_or(0.0);
    let compute_factor = f
        .get("compute_factor")
        .map(|v| num(v, "compute_factor"))
        .transpose()?
        .unwrap_or(1.0);
    if compute_factor.is_nan() || compute_factor <= 0.0 {
        return Err(bad("straggler needs compute_factor > 0"));
    }
    Ok(StragglerRule {
        rank: index(f.require("rank")?, "rank")?,
        comm_seconds,
        compute_factor,
    })
}

fn parse_death(v: &Json) -> Result<DeathRule, RuntimeError> {
    let f = Fields::new(v, "deaths")?;
    f.check_keys(&["rank", "after_ops"])?;
    Ok(DeathRule {
        rank: index(f.require("rank")?, "rank")?,
        after_ops: index(f.require("after_ops")?, "after_ops")? as u64,
    })
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
