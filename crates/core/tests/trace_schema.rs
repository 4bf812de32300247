//! The trace schema declaration (`TraceEvent` in `trace.rs`), pinned
//! from three sides:
//!
//! * hostile lines: every prefix and every single-bit flip of every
//!   line of the v1–v4 fixtures decodes to `Ok` or a trace error,
//!   never a panic, and an `Ok` re-encodes to a line that decodes to
//!   the same encoding;
//! * missing fields: deleting one member of a v4 fixture event is an
//!   error naming it, unless the field declares a reader default, in
//!   which case the event decodes with that default;
//! * the docs: the field tables of `docs/OBSERVABILITY.md` §3 list the
//!   declared keys in declaration order.

use fupermod_core::json::Json;
use fupermod_core::trace::{TraceEvent, EVENT_FIELDS};
use fupermod_core::CoreError;

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
