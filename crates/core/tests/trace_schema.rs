//! The trace schema declaration (`TraceEvent` in `trace.rs`), pinned
//! from three sides:
//!
//! * hostile lines: every prefix and every single-bit flip of every
//!   line of the v1–v4 fixtures decodes to `Ok` or a trace error,
//!   never a panic, and an `Ok` re-encodes to a line that decodes to
//!   the same encoding; the same mutations of the four header lines
//!   are `Ok` exactly when they declare an integer schema from 1 to
//!   [`SCHEMA_VERSION`]; random bytes and a million-item list return;
//! * missing fields: deleting one member of a v4 fixture event is an
//!   error naming it, unless the field declares a reader default, in
//!   which case the event decodes with that default;
//! * the docs: the field tables of `docs/OBSERVABILITY.md` §3 list the
//!   declared keys in declaration order.

use fupermod_core::json::Json;
use fupermod_core::trace::{parse_header, TraceEvent, EVENT_FIELDS, SCHEMA_VERSION};
use fupermod_core::CoreError;
use proptest::prelude::*;

const FIXTURES: [&str; 4] = [
    include_str!("fixtures/trace_v1.jsonl"),
    include_str!("fixtures/trace_v2.jsonl"),
    include_str!("fixtures/trace_v3.jsonl"),
    include_str!("fixtures/trace_v4.jsonl"),
];

/// Decodes `line`; on `Ok`, checks that the encoding is a fixed point.
fn decode_checked(line: &str) {
    match TraceEvent::from_jsonl(line) {
        Ok(event) => {
            let canonical = event.to_jsonl();
            let again = TraceEvent::from_jsonl(&canonical)
                .unwrap_or_else(|e| panic!("{line:?} re-encodes to {canonical:?}: {e}"));
            assert_eq!(again.to_jsonl(), canonical, "decoded from {line:?}");
        }
        Err(CoreError::Trace(_)) => {}
        Err(other) => panic!("{line:?}: not a trace error: {other:?}"),
    }
}

#[test]
fn prefixes_and_bit_flips_of_fixture_lines_never_panic() {
    let mut decoded = 0;
    for line in FIXTURES.iter().flat_map(|f| f.lines()) {
        let bytes = line.as_bytes();
        for end in 0..=bytes.len() {
            if let Ok(prefix) = std::str::from_utf8(&bytes[..end]) {
                decode_checked(prefix);
                decoded += 1;
            }
        }
        let mut flipped = bytes.to_vec();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                flipped[at] ^= 1 << bit;
                if let Ok(text) = std::str::from_utf8(&flipped) {
                    decode_checked(text);
                    decoded += 1;
                }
                flipped[at] ^= 1 << bit;
            }
        }
    }
    assert!(decoded > 20_000, "only {decoded} lines decoded");
}

/// The schema `line` declares when it is a header by the independent
/// reading: an object whose first `trace` is `"fupermod"` and whose
/// first `schema` is a number equal to an integer from 1 to
/// [`SCHEMA_VERSION`].
fn declared_schema(line: &str) -> Option<u32> {
    let doc = Json::parse(line).ok()?;
    let members = doc.as_object()?;
    let first = |key: &str| members.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    if first("trace")?.as_str()? != "fupermod" {
        return None;
    }
    let schema = first("schema")?.as_f64()?;
    (1..=SCHEMA_VERSION).find(|&v| f64::from(v) == schema)
}

fn header_checked(line: &str) {
    match (parse_header(line), declared_schema(line)) {
        (Ok(got), Some(want)) => assert_eq!(got, want, "{line:?}"),
        (Err(CoreError::Trace(_)), None) => {}
        (got, want) => panic!("{line:?}: parse_header gave {got:?}, the line declares {want:?}"),
    }
}

#[test]
fn header_prefixes_and_bit_flips_declare_a_schema_or_fail() {
    let mut accepted = 0;
    for header in FIXTURES.iter().map(|f| f.lines().next().unwrap()) {
        let bytes = header.as_bytes();
        for end in 0..=bytes.len() {
            if let Ok(prefix) = std::str::from_utf8(&bytes[..end]) {
                header_checked(prefix);
            }
        }
        let mut flipped = bytes.to_vec();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                flipped[at] ^= 1 << bit;
                if let Ok(text) = std::str::from_utf8(&flipped) {
                    header_checked(text);
                    accepted += usize::from(parse_header(text).is_ok());
                }
                flipped[at] ^= 1 << bit;
            }
        }
    }
    // Flips inside the schema digit move it between 1..=4 and beyond,
    // and whitespace-like flips elsewhere keep a header a header.
    assert!(accepted > 0);
    for schema in ["0", "-3", "2.9", "5", "1e300", "4294967297", "\"4\"", "null"] {
        let line = format!("{{\"trace\":\"fupermod\",\"schema\":{schema}}}");
        assert!(matches!(parse_header(&line), Err(CoreError::Trace(_))), "{line}");
    }
    assert_eq!(parse_header(r#"{"trace":"fupermod","schema":4e0}"#).unwrap(), 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Arbitrary bytes as an event line and as a header: `Ok` or a
    /// trace error, never a panic.
    #[test]
    fn random_byte_lines_return(bytes in proptest::collection::vec(0u8..=255, 0..128)) {
        let line = String::from_utf8_lossy(&bytes);
        decode_checked(&line);
        header_checked(&line);
    }
}

/// A `partition_step` naming a million processes decodes; one item out
/// of range at its end is an error naming the list.
#[test]
fn a_million_item_list_decodes_or_errs() {
    let dist = |last: &str| {
        let items = "1,".repeat(999_999) + last;
        format!(r#"{{"event":"partition_step","iter":1,"dist":[{items}],"imbalance":0,"units_moved":0}}"#)
    };
    match TraceEvent::from_jsonl(&dist("7")).unwrap() {
        TraceEvent::PartitionStep { dist, .. } => {
            assert_eq!(dist.len(), 1_000_000);
            assert_eq!(dist[999_999], 7);
        }
        other => panic!("{other:?}"),
    }
    for last in ["-1", "1e300", "0.5", "\"x\""] {
        let err = TraceEvent::from_jsonl(&dist(last)).unwrap_err().to_string();
        assert!(err.contains("'dist'"), "{last}: {err}");
    }
}

/// A string the writer could not write between quotes is an error,
/// not an event whose encoding would break the line.
#[test]
fn escaped_tags_are_errors() {
    for tag in ["s\\nd", "s\\\"d", "s\\\\d", "s\\u0001d"] {
        let line = format!(
            "{{\"event\":\"fault\",\"rank\":0,\"kind\":\"{tag}\",\"peer\":-1,\"attempt\":0,\"seconds\":0}}"
        );
        let err = TraceEvent::from_jsonl(&line).unwrap_err().to_string();
        assert!(
            err.contains("'kind' is not an escape-free tag"),
            "{tag}: {err}"
        );
    }
}

/// A reader default stands in for a field the line lacks, not for one
/// that is there and does not read (which used to take the default).
#[test]
fn a_defaulted_field_that_does_not_read_is_an_error() {
    let comm = |member: &str| {
        format!(r#"{{"event":"comm","rank":0,"op":"send","peer":1,"bytes":8,"seconds":0.5,{member}}}"#)
    };
    for (member, key) in [
        (r#""algorithm":"a\"b""#, "algorithm"),
        (r#""algorithm":7"#, "algorithm"),
        (r#""rounds":"x""#, "rounds"),
        (r#""rounds":null"#, "rounds"),
        (r#""lamport":-1"#, "lamport"),
        (r#""gen":1.5"#, "gen"),
    ] {
        let err = TraceEvent::from_jsonl(&comm(member)).unwrap_err().to_string();
        assert!(err.contains(&format!("'{key}'")), "{member}: {err}");
    }
}

/// The six fields a reader may find missing, and the JSON spelling of
/// the value each decodes to then.
const DEFAULTS: [(&str, &str, &str); 6] = [
    ("comm", "algorithm", "\"\""),
    ("comm", "rounds", "0"),
    ("comm", "lamport", "0"),
    ("comm", "gen", "0"),
    ("metrics", "kind", "\"\""),
    ("metrics", "labels", "\"\""),
];

/// `line` (a canonical encoding) without its member `key`.
fn without(line: &str, key: &str) -> String {
    let start = line.find(&format!(",\"{key}\":")).expect("member present");
    // No value of a canonical line holds `,"`: the next member starts there.
    let end = line[start + 1..]
        .find(",\"")
        .map_or(line.len() - 1, |at| start + 1 + at);
    format!("{}{}", &line[..start], &line[end..])
}

#[test]
fn a_missing_member_is_an_error_naming_it_or_its_declared_default() {
    let mut defaulted = Vec::new();
    for line in FIXTURES[3].lines().skip(1) {
        let canonical = TraceEvent::from_jsonl(line).unwrap().to_jsonl();
        let original = Json::parse(&canonical).unwrap();
        let members = original.as_object().unwrap();
        let tag = members[0].1.as_str().unwrap();
        for (key, _) in &members[1..] {
            let cut = without(&canonical, key);
            let default = DEFAULTS
                .iter()
                .find(|(t, k, _)| *t == tag && k == key)
                .map(|(.., value)| Json::parse(value).unwrap());
            match (TraceEvent::from_jsonl(&cut), default) {
                (Err(CoreError::Trace(msg)), None) => {
                    assert!(msg.contains(&format!("'{key}'")), "{cut}: {msg}");
                }
                (Ok(event), Some(default)) => {
                    let mut want = members.to_vec();
                    want.iter_mut().find(|(k, _)| k == key).unwrap().1 = default;
                    let got = Json::parse(&event.to_jsonl()).unwrap();
                    assert_eq!(got.as_object().unwrap(), &want[..], "{cut}");
                    defaulted.push((tag.to_owned(), key.clone()));
                }
                (got, default) => panic!("{cut}: got {got:?}, default {default:?}"),
            }
        }
    }
    for (tag, key, _) in DEFAULTS {
        assert!(
            defaulted.iter().any(|(t, k)| t == tag && k == key),
            "the fixture never exercised {tag}.{key}"
        );
    }
}

/// The text between the first pair of backticks on `line`.
fn first_code_span(line: &str) -> Option<&str> {
    let open = line.find('`')? + 1;
    Some(&line[open..open + line[open..].find('`')?])
}

#[test]
fn the_documented_event_tables_are_the_declaration() {
    let doc = include_str!("../../../docs/OBSERVABILITY.md");
    let section = &doc[doc.find("\n## 3. Events").unwrap()..doc.find("\n## 4. ").unwrap()];
    let mut documented: Vec<(&str, Vec<&str>)> = Vec::new();
    for line in section.lines() {
        if line.starts_with("### 3.") {
            documented.push((first_code_span(line).unwrap(), Vec::new()));
        } else if line.starts_with("| `") {
            let (_, keys) = documented
                .last_mut()
                .expect("a table under an event heading");
            keys.push(first_code_span(line).unwrap());
        }
    }
    let declared: Vec<(&str, Vec<&str>)> = EVENT_FIELDS
        .iter()
        .map(|(tag, keys)| (*tag, keys.to_vec()))
        .collect();
    assert_eq!(documented, declared);
}
