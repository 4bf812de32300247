//! The one hostile-input suite for the one JSON reader
//! (`fupermod::core::json`) and the three typed entry points built on
//! it: `TraceEvent::from_jsonl`, `FaultPlan::from_json` and
//! `protocol::parse_request`.
//!
//! Property throughout: every call *returns* — `Ok` or `Err`, never a
//! panic, never a stack overflow — whatever a file, a fault plan or a
//! socket hands it; text that is not JSON is an error at all four;
//! nesting past [`MAX_DEPTH`] is an error that says so; and
//! `parse(quote(s))` gives `s` back for every string.
//!
//! An integer member reads as the integer written or not at all:
//! every integer member of every decoder, fed numbers at and past each
//! edge of the one integer rule (`json::Members`), decodes to exactly
//! the integer in the text or is an error naming the member.
//!
//! The last part pins behaviour across the parser consolidation:
//! the accept/reject verdicts the per-module parsers of `e763e9a` gave
//! on their own unit tests' inputs (`fixtures/*_verdicts.tsv`, written
//! by that build) must be the verdicts of this one.

use fupermod::core::json::{escape, quote, Json, MAX_DEPTH};
use fupermod::core::trace::TraceEvent;
use fupermod::runtime::{FaultPlan, RuntimeError};
use fupermod::store::protocol::{parse_request, Request};
use proptest::prelude::*;

/// Valid documents the mutations start from: what each consumer
/// reads, plus one document using every construct of the grammar.
fn corpus() -> Vec<String> {
    vec![
        r#"{"trace":"fupermod","schema":4}"#.to_owned(),
        r#"{"event":"comm","rank":2,"op":"allgatherv","peer":-1,"bytes":4096,"seconds":0.0031,"algorithm":"ring","rounds":3,"lamport":17,"gen":5}"#.to_owned(),
        r#"{"event":"metrics","rank":0,"scope":"served_requests_total","count":42,"sum":null,"kind":"counter","labels":"op=ingest;outcome=ok","buckets":[0,1,2]}"#.to_owned(),
        r#"{"event":"partition_step","iter":2,"dist":[800,200],"imbalance":1e9999,"units_moved":300}"#.to_owned(),
        r#"{"deadline": 2.5, "delays": [{"src": 0, "dst": 1, "every": 2, "seconds": 0.01}], "drops": [{"dst": 3, "max_retries": 5}], "stragglers": [{"rank": 1, "compute_factor": 4.0}], "deaths": [{"rank": 2, "after_ops": 10}]}"#.to_owned(),
        r#"{"op":"partition","fingerprints":["a","b","c"],"kernel":"gemm","config":"c","total":1000,"algorithm":"geometric"}"#.to_owned(),
        r#"{"op":"ingest_point","fingerprint":"fp","kernel":"k","config":"c","d":64,"t":0.001,"reps":3,"ci":0.00001}"#.to_owned(),
        format!(
            r#"{{"a":[1,2.5,-3e2,{{"b":"x\ny {} é","c":[]}}],"d":null,"e":true,"f":false,"g":{{}}}}"#,
            u_escape("d83d") + &u_escape("de00")
        ),
    ]
}

/// `\uXXXX`, spelled out so no tool ever mistakes it for the character.
fn u_escape(hex: &str) -> String {
    format!("{}u{hex}", '\\')
}

/// Feeds `text` to the parser and to the three typed entry points.
/// All four must return; text the parser rejects is rejected by all.
fn feed(text: &str) -> Result<Json, String> {
    let parsed = Json::parse(text).map_err(|e| e.to_string());
    let event = TraceEvent::from_jsonl(text);
    let plan = FaultPlan::from_json(text);
    let request = parse_request(text);
    if let Err(e) = &parsed {
        assert!(event.is_err(), "from_jsonl accepted what the parser rejects ({e}): {text:?}");
        assert!(plan.is_err(), "from_json accepted what the parser rejects ({e}): {text:?}");
        assert!(request.is_err(), "parse_request accepted what the parser rejects ({e}): {text:?}");
    }
    parsed
}

#[test]
fn the_corpus_is_valid() {
    for doc in corpus() {
        feed(&doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
    }
}

#[test]
fn truncation_at_every_byte_is_an_error() {
    for doc in corpus() {
        for cut in 0..doc.len() {
            let text = String::from_utf8_lossy(&doc.as_bytes()[..cut]);
            assert!(feed(&text).is_err(), "accepted a proper prefix: {text:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// One to three byte flips anywhere in a valid document (any byte
    /// value, so invalid UTF-8 arrives through `from_utf8_lossy` as
    /// U+FFFD): parse or reject, never panic.
    #[test]
    fn byte_flips_return(
        pick in 0usize..64,
        flips in proptest::collection::vec((0usize..4096, 0u8..=255), 1..4),
    ) {
        let docs = corpus();
        let mut bytes = docs[pick % docs.len()].clone().into_bytes();
        for (at, byte) in flips {
            let at = at % bytes.len();
            bytes[at] = byte;
        }
        let _ = feed(&String::from_utf8_lossy(&bytes));
    }

    /// Arbitrary bytes, not derived from anything valid.
    #[test]
    fn random_bytes_return(bytes in proptest::collection::vec(0u8..=255, 0..96)) {
        let _ = feed(&String::from_utf8_lossy(&bytes));
    }

    /// `escape`/`quote` and the string grammar are inverses over every
    /// scalar value: controls, quotes, backslashes, non-BMP.
    #[test]
    fn quoted_strings_round_trip(codes in proptest::collection::vec(0u32..0x11_0000, 0..48)) {
        let s: String = codes
            .iter()
            .map(|&c| char::from_u32(c).unwrap_or(char::from_u32(c % 0x80).expect("ASCII")))
            .collect();
        let quoted = quote(&s);
        prop_assert_eq!(&quoted, &format!("\"{}\"", escape(&s)));
        prop_assert!(!quoted.chars().any(|c| (c as u32) < 0x20), "raw control in {:?}", quoted);
        let parsed = feed(&quoted);
        prop_assert_eq!(parsed, Ok(Json::Str(s)));
    }
}

/// `open` repeated `depth` times, `fill`, then the matching closers.
fn nested(open: &str, close: &str, fill: &str, depth: usize) -> String {
    open.repeat(depth) + fill + &close.repeat(depth)
}

#[test]
fn nesting_is_capped_at_max_depth() {
    assert_eq!(MAX_DEPTH, 64);
    for depth in [63, 64, 65, 100_000] {
        for doc in [nested("[", "]", "", depth), nested("{\"k\":", "}", "1", depth)] {
            match feed(&doc) {
                Ok(_) => assert!(depth <= MAX_DEPTH, "accepted {depth} levels"),
                Err(e) => {
                    assert!(depth > MAX_DEPTH, "rejected {depth} levels: {e}");
                    assert!(e.contains("nesting deeper than 64"), "{e}");
                }
            }
        }
    }
    // Arrays and objects count alike: 32 pairs are 64 levels.
    assert!(feed(&nested("[{\"k\":", "}]", "1", 32)).is_ok());
    assert!(feed(&nested("[{\"k\":", "}]", "[]", 32)).is_err());
    // An unclosed bomb never gets as far as noticing it is unclosed.
    let err = feed(&"[".repeat(100_000)).unwrap_err();
    assert!(err.contains("nesting deeper than 64"), "{err}");
}

#[test]
fn nesting_bombs_inside_each_consumers_document_are_errors() {
    for depth in [63, 64, 100_000] {
        let bomb = nested("[", "]", "", depth);
        let too_deep = depth + 1 > MAX_DEPTH;

        let line = format!(r#"{{"event":"partition_step","iter":0,"dist":{bomb},"imbalance":0,"units_moved":0}}"#);
        let err = TraceEvent::from_jsonl(&line).unwrap_err().to_string();
        assert_eq!(err.contains("nesting deeper than"), too_deep, "{err}");

        let err = FaultPlan::from_json(&format!(r#"{{"delays":{bomb}}}"#)).unwrap_err().to_string();
        assert_eq!(err.contains("nesting deeper than"), too_deep, "{err}");

        let line = format!(r#"{{"op":"partition","fingerprints":{bomb},"kernel":"k","config":"c","total":1,"algorithm":"even"}}"#);
        let err = parse_request(&line).unwrap_err().to_string();
        assert_eq!(err.contains("nesting deeper than"), too_deep, "{err}");
    }
}

#[test]
fn megabyte_strings_parse_and_unterminated_ones_do_not() {
    let big = "x".repeat(1 << 20);
    assert_eq!(feed(&quote(&big)), Ok(Json::Str(big.clone())));
    assert!(feed(&format!("\"{big}")).is_err());
    assert!(feed(&format!("{{\"{big}")).is_err());

    let line = format!(r#"{{"op":"lookup","fingerprint":"{big}","kernel":"k","config":"c"}}"#);
    match parse_request(&line) {
        Ok(Request::Lookup { key }) => assert_eq!(key.fingerprint().len(), 1 << 20),
        other => panic!("{other:?}"),
    }
    // A megabyte where a tag belongs is a typed error, not a crash.
    assert!(TraceEvent::from_jsonl(&format!(r#"{{"event":"{big}"}}"#)).is_err());
    assert!(FaultPlan::from_json(&format!(r#"{{"{big}":1}}"#)).is_err());
}

#[test]
fn surrogates_must_come_in_pairs() {
    let (high, low) = (u_escape("d83d"), u_escape("de00"));
    assert_eq!(
        feed(&format!("\"{high}{low}\"")),
        Ok(Json::Str("\u{1f600}".to_owned()))
    );
    for lone in [
        format!("\"{high}\""),
        format!("\"{low}\""),
        format!("\"{low}{high}\""),
        format!("\"{high}x\""),
        format!("\"{high}{}\"", u_escape("0041")),
        format!("\"{high}{}", u_escape("de")),
    ] {
        let err = feed(&lone).unwrap_err();
        assert!(err.contains("surrogate") || err.contains("escape"), "{lone}: {err}");
        let line = format!(r#"{{"op":"lookup","fingerprint":{lone},"kernel":"k","config":"c"}}"#);
        assert!(parse_request(&line).is_err(), "{line}");
    }
}

#[test]
fn raw_control_characters_are_rejected_and_escaped_ones_round_trip() {
    for code in 0..0x20u8 {
        let c = code as char;
        let raw = format!("\"a{c}b\"");
        let err = feed(&raw).unwrap_err();
        assert!(err.contains("control character"), "{code:#x}: {err}");
        assert_eq!(
            feed(&quote(&format!("a{c}b"))),
            Ok(Json::Str(format!("a{c}b"))),
            "{code:#x}"
        );
        // In a key, and in each consumer's document.
        assert!(feed(&format!("{{\"k{c}\":1}}")).is_err());
        assert!(TraceEvent::from_jsonl(&format!(r#"{{"event":"fau{c}lt"}}"#)).is_err());
        assert!(FaultPlan::from_json(&format!(r#"{{"dead{c}line":1}}"#)).is_err());
        assert!(parse_request(&format!(r#"{{"op":"sta{c}ts"}}"#)).is_err());
    }
}

/// `verdict<TAB>input` per line, as the parent build's own parser
/// answered (see the module docs).
fn verdict_table(table: &str) -> Vec<(bool, &str)> {
    table
        .split('\n')
        .map(|line| {
            let (verdict, input) = line.split_once('\t').expect("verdict<TAB>input");
            (verdict == "accept", input)
        })
        .collect()
}

#[test]
fn fault_plan_verdicts_are_the_parent_builds() {
    let table = verdict_table(include_str!("fixtures/fault_plan_verdicts.tsv").trim_end_matches('\n'));
    assert!(table.iter().any(|(ok, _)| *ok) && table.iter().any(|(ok, _)| !*ok));
    for (accept, input) in table {
        assert_eq!(FaultPlan::from_json(input).is_ok(), accept, "fault plan {input:?}");
    }
}

#[test]
fn protocol_verdicts_are_the_parent_builds() {
    let table = verdict_table(include_str!("fixtures/protocol_verdicts.tsv").trim_end_matches('\n'));
    assert!(table.iter().any(|(ok, _)| *ok) && table.iter().any(|(ok, _)| !*ok));
    for (accept, input) in table {
        assert_eq!(parse_request(input).is_ok(), accept, "request {input:?}");
    }
}

/// The numbers put into every integer member: the text, and the integer
/// it writes when an integer member could hold it (`None`: it must be
/// rejected). 2^53 + 1 reads as 2^53 and `1e300` as no integer at all.
const DRAWN: [(&str, Option<i128>); 9] = [
    ("-3", Some(-3)),
    ("-0", Some(0)),
    ("2.5", None),
    ("1e2", Some(100)),
    ("4294967295", Some((1 << 32) - 1)),
    ("4294967296", Some(1 << 32)),
    ("9007199254740991", Some((1 << 53) - 1)),
    ("9007199254740993", Some((1 << 53) + 1)),
    ("1e300", None),
];

/// `template` with its `N` replaced by each drawn number: the decoder
/// either rejects it naming `key`, or `read` finds the integer written.
fn each_drawn<T: std::fmt::Debug, E: ToString>(
    template: &str,
    key: &str,
    decode: impl Fn(&str) -> Result<T, E>,
    read: impl Fn(&T) -> i128,
) {
    assert!(decode(&template.replace('N', "1")).is_ok(), "template {template}");
    for (text, written) in DRAWN {
        let doc = template.replace('N', text);
        match (decode(&doc), written) {
            (Ok(got), Some(want)) => assert_eq!(read(&got), want, "{doc}"),
            (Ok(got), None) => panic!("{doc}: accepted as {got:?}"),
            (Err(e), _) => {
                let e = e.to_string();
                assert!(e.contains(&format!("'{key}'")), "{doc}: {e}");
            }
        }
    }
}

#[test]
fn protocol_integers_read_as_written_or_not_at_all() {
    let ingest = r#"{"op":"ingest","fingerprint":"f","kernel":"k","config":"c","d":N,"t":0.5}"#;
    each_drawn(ingest, "d", parse_request, |r| match r {
        Request::Ingest { d, .. } => i128::from(*d),
        other => panic!("{other:?}"),
    });
    let point = r#"{"op":"ingest_point","fingerprint":"f","kernel":"k","config":"c","d":D,"t":0.5,"reps":R,"ci":0}"#;
    for (key, template) in [("d", point.replace('R', "3")), ("reps", point.replace('D', "3"))] {
        each_drawn(&template.replace(['D', 'R'], "N"), key, parse_request, |r| match r {
            Request::IngestPoint { point, .. } if key == "d" => i128::from(point.d),
            Request::IngestPoint { point, .. } => i128::from(point.reps),
            other => panic!("{other:?}"),
        });
    }
    let partition = r#"{"op":"partition","fingerprints":["a"],"kernel":"k","config":"c","total":N,"algorithm":"even"}"#;
    each_drawn(partition, "total", parse_request, |r| match r {
        Request::Partition { total, .. } => i128::from(*total),
        other => panic!("{other:?}"),
    });
}

#[test]
fn fault_plan_integers_read_as_written_or_not_at_all() {
    type Read = fn(&FaultPlan) -> i128;
    let cases: [(&str, &str, Read); 10] = [
        (r#"{"delays":[{"src":N,"seconds":0.1}]}"#, "src", |p| p.delays[0].src.unwrap() as i128),
        (r#"{"delays":[{"dst":N,"seconds":0.1}]}"#, "dst", |p| p.delays[0].dst.unwrap() as i128),
        (r#"{"delays":[{"every":N,"seconds":0.1}]}"#, "every", |p| i128::from(p.delays[0].every)),
        (r#"{"drops":[{"src":N}]}"#, "src", |p| p.drops[0].src.unwrap() as i128),
        (r#"{"drops":[{"dst":N}]}"#, "dst", |p| p.drops[0].dst.unwrap() as i128),
        (r#"{"drops":[{"every":N}]}"#, "every", |p| i128::from(p.drops[0].every)),
        (r#"{"drops":[{"max_retries":N}]}"#, "max_retries", |p| i128::from(p.drops[0].max_retries)),
        (r#"{"stragglers":[{"rank":N}]}"#, "rank", |p| p.stragglers[0].rank as i128),
        (r#"{"deaths":[{"rank":N,"after_ops":1}]}"#, "rank", |p| p.deaths[0].rank as i128),
        (r#"{"deaths":[{"rank":1,"after_ops":N}]}"#, "after_ops", |p| i128::from(p.deaths[0].after_ops)),
    ];
    for (template, key, read) in cases {
        each_drawn(template, key, |text| FaultPlan::from_json(text).map_err(|e: RuntimeError| e.to_string()), read);
    }
}

#[test]
fn trace_integers_read_as_written_or_not_at_all() {
    // One line per event kind, with its integer members (list items
    // included) and nothing else.
    let lines: [(&str, &[&str]); 8] = [
        (r#"{"event":"benchmark_sample","rank":1,"d":2,"rep":3,"time":0.5,"ci_rel":0.1}"#, &["rank", "d", "rep"]),
        (r#"{"event":"benchmark_done","rank":1,"d":2,"reps":3,"mean":0.5,"stderr":0.1,"elapsed":1.5,"outliers_rejected":4}"#, &["rank", "d", "reps", "outliers_rejected"]),
        (r#"{"event":"model_update","rank":1,"d":2,"t":0.5,"reps":3,"points":4}"#, &["rank", "d", "reps", "points"]),
        (r#"{"event":"partition_step","iter":1,"dist":[2],"imbalance":0.5,"units_moved":3}"#, &["iter", "dist", "units_moved"]),
        (r#"{"event":"dynamic_converged","steps":1,"imbalance":0.5}"#, &["steps"]),
        (r#"{"event":"comm","rank":1,"op":"send","peer":2,"bytes":3,"seconds":0.5,"algorithm":"direct","rounds":4,"lamport":5,"gen":6}"#, &["rank", "peer", "bytes", "rounds", "lamport", "gen"]),
        (r#"{"event":"fault","rank":1,"kind":"drop","peer":2,"attempt":3,"seconds":0.5}"#, &["rank", "peer", "attempt"]),
        (r#"{"event":"metrics","rank":1,"scope":"s","count":2,"sum":0.5,"kind":"counter","labels":"","buckets":[3]}"#, &["rank", "count", "buckets"]),
    ];
    for (line, keys) in lines {
        let doc = Json::parse(line).unwrap();
        for &key in keys {
            // `"key":V` (or `"key":[V]`) becomes `"key":N` (`"key":[N]`).
            let value = match doc.get(key).unwrap() {
                Json::Arr(items) => format!("[{}]", items[0].as_f64().unwrap()),
                other => format!("{}", other.as_f64().unwrap()),
            };
            let template = line.replacen(&format!("\"{key}\":{value}"), &format!("\"{key}\":{}", value.replace(|c: char| c.is_ascii_digit(), "N")), 1);
            assert_ne!(template, line, "{key}");
            each_drawn(&template, key, TraceEvent::from_jsonl, |event| {
                // The encoding writes every integer exactly, so the
                // decoded value is the one re-read from it.
                let encoded = Json::parse(&event.to_jsonl()).unwrap();
                let value = encoded.get(key).unwrap();
                let value = value.as_array().map_or(value, |items| &items[0]);
                value.as_f64().unwrap() as i128
            });
        }
    }
}
