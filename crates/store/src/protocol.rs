//! The daemon's line-delimited JSON protocol (`docs/SERVE.md`).
//!
//! One request object per line in, one response object per line out,
//! over a plain TCP stream. Lines are read with the workspace's one
//! JSON parser and member reader ([`fupermod_core::json`]: escapes
//! decoded, unescaped control characters and lone surrogates rejected,
//! nesting capped at 64, integers read under one rule); this module
//! keeps only the request shapes. Floats are
//! emitted in [`fupermod_core::trace::fmt_float`]'s encoding, the
//! repo-wide shortest round-trip one, so a value survives
//! serve → parse → re-serve bit-exactly. Every response is written
//! into one buffer, number by number; the deterministic tail of a
//! `partition` response is rendered once per plan and kept with it
//! ([`crate::plan::Plan::wire`]), so a cache hit copies it.
//!
//! | op | request fields | response |
//! |---|---|---|
//! | `ingest` | key fields, `d`, `t` | `refresh`, `epoch` |
//! | `ingest_point` | key fields, `d`, `t`, `reps`, `ci` | `refresh`, `epoch` |
//! | `lookup` | key fields | `epoch`, `ds`, `ts`, `reps`, `cis` |
//! | `partition` | `fingerprints`, `kernel`, `config`, `total`, `algorithm` | `cached`, `ds`, `ts`, `makespan`, `imbalance` |
//! | `stats` | — | counter fields |
//! | `shutdown` | — | `ok` |
//!
//! Key fields are `fingerprint`, `kernel`, `config`. Every response
//! carries `"ok": true|false`; failures carry `"error"` instead of
//! result fields.

use std::fmt::{self, Display, Write};
use std::sync::Arc;

use fupermod_core::json::{quote, Json, Members};
use fupermod_core::model::Refresh;
use fupermod_core::partition::{
    ConstantPartitioner, Distribution, EvenPartitioner, GeometricPartitioner,
    NumericalPartitioner, Partitioner,
};
use fupermod_core::telemetry::SampleValue;
use fupermod_core::trace::fmt_float;
use fupermod_core::Point;

use crate::entry::IngestOutcome;
use crate::store::ModelStore;
use crate::{StoreError, StoreKey};

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Stream one raw observation into a model entry.
    Ingest {
        /// Target model.
        key: StoreKey,
        /// Problem size.
        d: u64,
        /// Observed time, seconds.
        t: f64,
    },
    /// Absorb one aggregated point (bulk load, merge semantics).
    IngestPoint {
        /// Target model.
        key: StoreKey,
        /// The aggregated point.
        point: Point,
    },
    /// Fetch a model's epoch and points.
    Lookup {
        /// Target model.
        key: StoreKey,
    },
    /// Partition `total` units over the named members.
    Partition {
        /// Member models, rank order.
        keys: Vec<StoreKey>,
        /// Total workload.
        total: u64,
        /// Algorithm name (`even`, `constant`, `geometric`,
        /// `numerical`).
        algorithm: String,
    },
    /// Fetch the store counters.
    Stats,
    /// Stop the daemon after responding.
    Shutdown,
}

impl Request {
    /// Stable op tag (the request's `op` field; also the `op` label
    /// on the daemon's per-request telemetry).
    pub fn op(&self) -> &'static str {
        match self {
            Request::Ingest { .. } => "ingest",
            Request::IngestPoint { .. } => "ingest_point",
            Request::Lookup { .. } => "lookup",
            Request::Partition { .. } => "partition",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        }
    }
}

/// Parses one request line.
///
/// # Errors
///
/// [`StoreError::Protocol`] on malformed JSON, unknown `op`, or
/// missing/mistyped fields.
pub fn parse_request(line: &str) -> Result<Request, StoreError> {
    let json = Json::parse(line).map_err(|e| StoreError::Protocol(e.to_string()))?;
    let fields = &mut Members::new(json)
        .map_err(|got| StoreError::Protocol(format!("a request must be an object, got {got}")))?;
    let op: String = fields.take("op")?;
    match op.as_str() {
        "ingest" => Ok(Request::Ingest {
            key: key_of(fields)?,
            d: fields.take("d")?,
            t: fields.take("t")?,
        }),
        "ingest_point" => Ok(Request::IngestPoint {
            key: key_of(fields)?,
            point: Point {
                d: fields.take("d")?,
                t: fields.take("t")?,
                reps: fields.take("reps")?,
                ci: fields.take("ci")?,
            },
        }),
        "lookup" => Ok(Request::Lookup {
            key: key_of(fields)?,
        }),
        "partition" => {
            let mistyped =
                || StoreError::Protocol("field 'fingerprints' must be an array of strings".to_owned());
            let Json::Arr(fingerprints) = fields.take("fingerprints")? else {
                return Err(mistyped());
            };
            // One shared `kernel` and `config` for every member.
            let kernel: Arc<str> = fields.take::<String>("kernel")?.into();
            let config: Arc<str> = fields.take::<String>("config")?.into();
            let mut keys = Vec::with_capacity(fingerprints.len());
            for fp in fingerprints {
                let Json::Str(fp) = fp else {
                    return Err(mistyped());
                };
                keys.push(StoreKey::new(fp, Arc::clone(&kernel), Arc::clone(&config)));
            }
            Ok(Request::Partition {
                keys,
                total: fields.take("total")?,
                algorithm: fields.take("algorithm")?,
            })
        }
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(StoreError::Protocol(format!("unknown op '{other}'"))),
    }
}

fn key_of(fields: &mut Members) -> Result<StoreKey, StoreError> {
    Ok(StoreKey::new(
        fields.take::<String>("fingerprint")?,
        fields.take::<String>("kernel")?,
        fields.take::<String>("config")?,
    ))
}

/// The partitioner for a protocol algorithm name (the same vocabulary
/// as the CLI's `--algorithm` flag).
///
/// # Errors
///
/// [`StoreError::Protocol`] for an unknown name.
pub fn pick_partitioner(name: &str) -> Result<Box<dyn Partitioner>, StoreError> {
    match name {
        "even" => Ok(Box::new(EvenPartitioner)),
        "constant" => Ok(Box::new(ConstantPartitioner)),
        "geometric" => Ok(Box::new(GeometricPartitioner::default())),
        "numerical" => Ok(Box::new(NumericalPartitioner::default())),
        other => Err(StoreError::Protocol(format!("unknown algorithm '{other}'"))),
    }
}

fn refresh_tag(r: Refresh) -> &'static str {
    match r {
        Refresh::Patched => "patched",
        Refresh::Rebuilt => "rebuilt",
    }
}

fn outcome_tag(o: IngestOutcome) -> &'static str {
    match o {
        IngestOutcome::Patched => "patched",
        IngestOutcome::Rebuilt => "rebuilt",
        IngestOutcome::FallbackRebuilt => "fallback_rebuilt",
    }
}

/// The response line of a failed request: `{"ok":false,"error":…}`.
pub(crate) fn error_line(e: &StoreError) -> String {
    format!("{{\"ok\":false,\"error\":{}}}", quote(&e.to_string()))
}

/// A float in [`fmt_float`]'s encoding, written without a temporary.
struct Float(f64);

impl Display for Float {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str(&fmt_float(self.0))
        }
    }
}

fn push_array(out: &mut String, values: impl Iterator<Item = impl Display>) {
    out.push('[');
    for (i, v) in values.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

/// The part of a `partition` response that depends on the plan alone:
/// everything after the `cached` field.
fn plan_tail(dist: &Distribution) -> String {
    let parts = dist.parts();
    let mut out = String::with_capacity(64 + 32 * parts.len());
    out.push_str("\"ds\":");
    push_array(&mut out, parts.iter().map(|p| p.d));
    out.push_str(",\"ts\":");
    push_array(&mut out, parts.iter().map(|p| Float(p.t)));
    let _ = write!(
        out,
        ",\"makespan\":{},\"imbalance\":{}}}",
        Float(dist.predicted_makespan()),
        Float(dist.predicted_imbalance()),
    );
    out
}

/// Executes one request against `store` and renders the response
/// line (without the trailing newline). Infallible: failures render
/// as `{"ok":false,"error":...}` lines.
pub fn handle(store: &ModelStore, request: &Request) -> String {
    let mut line = String::new();
    handle_into(store, request, &mut line);
    line
}

/// [`handle`], appending the response line to `out` (the server's
/// reused write buffer).
pub(crate) fn handle_into(store: &ModelStore, request: &Request, out: &mut String) {
    let start = out.len();
    if let Err(e) = try_handle(store, request, out) {
        out.truncate(start);
        out.push_str(&error_line(&e));
    }
}

fn try_handle(store: &ModelStore, request: &Request, out: &mut String) -> Result<(), StoreError> {
    match request {
        Request::Ingest { key, d, t } => {
            let (outcome, epoch) = store.ingest_sample(key, *d, *t)?;
            let _ = write!(
                out,
                "{{\"ok\":true,\"refresh\":\"{}\",\"epoch\":{epoch}}}",
                outcome_tag(outcome)
            );
        }
        Request::IngestPoint { key, point } => {
            let (refresh, epoch) = store.ingest_point(key, *point)?;
            let _ = write!(
                out,
                "{{\"ok\":true,\"refresh\":\"{}\",\"epoch\":{epoch}}}",
                refresh_tag(refresh)
            );
        }
        Request::Lookup { key } => {
            let (epoch, points) = store
                .lookup(key)
                .ok_or_else(|| StoreError::UnknownKey(key.to_string()))?;
            let _ = write!(out, "{{\"ok\":true,\"epoch\":{epoch},\"ds\":");
            push_array(out, points.iter().map(|p| p.d));
            out.push_str(",\"ts\":");
            push_array(out, points.iter().map(|p| Float(p.t)));
            out.push_str(",\"reps\":");
            push_array(out, points.iter().map(|p| p.reps));
            out.push_str(",\"cis\":");
            push_array(out, points.iter().map(|p| Float(p.ci)));
            out.push('}');
        }
        Request::Partition {
            keys,
            total,
            algorithm,
        } => {
            let partitioner = pick_partitioner(algorithm)?;
            let (plan, cached) = store.plan(keys, *total, partitioner.as_ref(), algorithm)?;
            let _ = write!(out, "{{\"ok\":true,\"cached\":{cached},");
            out.push_str(plan.wire(plan_tail));
        }
        Request::Stats => {
            // One source of truth with the `/metrics` endpoint: both
            // refresh the sampled gauges and read the same registry
            // snapshot (the counters are the handles the store
            // increments — see `StoreMetrics`).
            store.refresh_gauges();
            let snap = store.registry().snapshot();
            let counter = |name: &str, labels: &[(&str, &str)]| -> u64 {
                match snap.find(name, labels) {
                    Some(SampleValue::Counter(v)) => *v,
                    _ => 0,
                }
            };
            let gauge = |name: &str| -> f64 {
                match snap.find(name, &[]) {
                    Some(SampleValue::Gauge(v)) => *v,
                    _ => 0.0,
                }
            };
            let (plans, plan_bytes, plan_budget) = store.plan_cache_stats();
            let _ = write!(
                out,
                "{{\"ok\":true,\"entries\":{},\"model_hits\":{},\"model_misses\":{},\"refresh_patched\":{},\"refresh_rebuilt\":{},\"refresh_fallbacks\":{},\"plan_hits\":{},\"plan_misses\":{},\"plan_evictions\":{},\"plans\":{plans},\"plan_bytes\":{plan_bytes},\"plan_budget\":{plan_budget},\"uptime_seconds\":{}}}",
                gauge("store_entries") as u64,
                counter("store_model_lookups_total", &[("result", "hit")]),
                counter("store_model_lookups_total", &[("result", "miss")]),
                counter("store_refresh_total", &[("outcome", "patched")]),
                counter("store_refresh_total", &[("outcome", "rebuilt")]),
                counter("store_refresh_total", &[("outcome", "fallback")]),
                counter("store_plan_requests_total", &[("result", "hit")]),
                counter("store_plan_requests_total", &[("result", "miss")]),
                counter("store_plan_evictions_total", &[]),
                Float(gauge("uptime_seconds")),
            );
        }
        Request::Shutdown => out.push_str("{\"ok\":true,\"shutting_down\":true}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;

    #[test]
    fn parses_every_op() {
        let r = parse_request(
            r#"{"op":"ingest","fingerprint":"fp","kernel":"gemm","config":"c","d":100,"t":0.5}"#,
        )
        .unwrap();
        assert_eq!(
            r,
            Request::Ingest {
                key: StoreKey::new("fp", "gemm", "c"),
                d: 100,
                t: 0.5
            }
        );
        let r = parse_request(
            r#"{"op":"partition","fingerprints":["a","b"],"kernel":"gemm","config":"c","total":1000,"algorithm":"geometric"}"#,
        )
        .unwrap();
        match r {
            Request::Partition { keys, total, algorithm } => {
                assert_eq!(keys.len(), 2);
                assert_eq!(keys[0].fingerprint(), "a");
                assert_eq!(total, 1000);
                assert_eq!(algorithm, "geometric");
            }
            other => panic!("wrong request: {other:?}"),
        }
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            parse_request(r#"{ "op" : "shutdown" }"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_request("").is_err());
        assert!(parse_request("{").is_err());
        assert!(parse_request(r#"{"op":"nope"}"#).is_err());
        assert!(parse_request(r#"{"op":"ingest","fingerprint":"f"}"#).is_err());
        assert!(parse_request(r#"{"op":"ingest","fingerprint":1,"kernel":"k","config":"c","d":1,"t":1.0}"#).is_err());
        assert!(parse_request(r#"{"op":"stats"} trailing"#).is_err());
    }

    #[test]
    fn integer_fields_are_range_checked_not_rounded_or_truncated() {
        let total = |v: &str| {
            parse_request(&format!(
                r#"{{"op":"partition","fingerprints":["a"],"kernel":"k","config":"c","total":{v},"algorithm":"even"}}"#
            ))
        };
        let reps = |v: &str| {
            parse_request(&format!(
                r#"{{"op":"ingest_point","fingerprint":"a","kernel":"k","config":"c","d":1,"t":1.0,"reps":{v},"ci":0}}"#
            ))
        };
        for (text, want) in [
            ("0", Some(0)),
            ("9007199254740991", Some((1u64 << 53) - 1)),
            // 2^53 + 1 reads as 2^53: neither can be told from the other.
            ("9007199254740992", None),
            ("9007199254740993", None),
            ("18446744073709551615", None),
            ("18446744073709551616", None), // 2^64 used to saturate to u64::MAX
            ("1e300", None),
            ("-1", None),
            ("1.5", None),
        ] {
            match (total(text), want) {
                (Ok(Request::Partition { total, .. }), Some(want)) => assert_eq!(total, want),
                (Err(StoreError::Protocol(msg)), None) => {
                    assert!(msg.contains("field 'total'"), "{text}: {msg}")
                }
                (other, _) => panic!("total {text}: {other:?}"),
            }
        }
        for (text, want) in [
            ("4294967295", Some(u32::MAX)),
            ("4294967296", None),
            ("4294967297", None), // used to truncate to 1
            ("-3", None),
            ("2.5", None),
        ] {
            match (reps(text), want) {
                (Ok(Request::IngestPoint { point, .. }), Some(want)) => assert_eq!(point.reps, want),
                (Err(StoreError::Protocol(msg)), None) => {
                    assert!(msg.contains("field 'reps'"), "{text}: {msg}")
                }
                (other, _) => panic!("reps {text}: {other:?}"),
            }
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let quoted = quote("a\"b\\c\nd\te\u{1}f");
        let line = format!("{{\"op\":\"lookup\",\"fingerprint\":{quoted},\"kernel\":\"k\",\"config\":\"c\"}}");
        match parse_request(&line).unwrap() {
            Request::Lookup { key } => assert_eq!(key.fingerprint(), "a\"b\\c\nd\te\u{1}f"),
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn ingested_float_survives_serve_round_trip() {
        // A value with no short decimal representation must come back
        // from the lookup response bit-exactly.
        let t = 0.1 + 0.2; // 0.30000000000000004
        let store = ModelStore::new(StoreConfig::default());
        let line = format!(
            "{{\"op\":\"ingest\",\"fingerprint\":\"fp\",\"kernel\":\"k\",\"config\":\"c\",\"d\":100,\"t\":{}}}",
            fmt_float(t)
        );
        let req = parse_request(&line).unwrap();
        let resp = handle(&store, &req);
        assert!(resp.contains("\"ok\":true"), "{resp}");
        let lookup = parse_request(
            r#"{"op":"lookup","fingerprint":"fp","kernel":"k","config":"c"}"#,
        )
        .unwrap();
        let resp = handle(&store, &lookup);
        let resp = Json::parse(&resp).unwrap();
        let ts = resp.get("ts").and_then(Json::as_array).expect("ts array");
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].as_f64().map(f64::to_bits), Some(t.to_bits()));
    }

    #[test]
    fn errors_render_as_error_lines() {
        let store = ModelStore::new(StoreConfig::default());
        let req = parse_request(
            r#"{"op":"lookup","fingerprint":"absent","kernel":"k","config":"c"}"#,
        )
        .unwrap();
        let resp = handle(&store, &req);
        assert!(resp.starts_with("{\"ok\":false,\"error\":"), "{resp}");
        assert_eq!(Json::parse(&resp).unwrap().get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn nesting_bombs_and_raw_control_characters_are_rejected() {
        let bomb = format!(
            "{{\"op\":\"partition\",\"fingerprints\":{}{}}}",
            "[".repeat(200_000),
            "]".repeat(200_000)
        );
        match parse_request(&bomb) {
            Err(StoreError::Protocol(msg)) => {
                assert!(msg.contains("nesting deeper than"), "{msg}")
            }
            other => panic!("bomb not rejected: {other:?}"),
        }
        assert!(parse_request("{\"op\":\"sta\u{1}ts\"}").is_err());
        assert!(parse_request(r#"{"op":"lookup","fingerprint":"\ud800","kernel":"k","config":"c"}"#).is_err());
        assert!(parse_request(r#"["op","stats"]"#).is_err());
        assert!(parse_request(
            r#"{"op":"partition","fingerprints":["a",1],"kernel":"k","config":"c","total":1,"algorithm":"even"}"#
        )
        .is_err());
    }
}
