//! The one-definition rules (ROADMAP aim 2). Each concept a refactor
//! made single — one JSON parser, one trace schema, one integer rule,
//! one command-line parser, one collective driver — must stay single,
//! and each rule that says so is one row of [`RULES`]: the literal
//! needles it looks for, the files it reads, the files allowed to
//! match and a bound. A failure names the rule, the commit that set
//! it, and every offending `file:line`.
//!
//! Adding a rule is adding a row that names its commit.
//!
//! One rule reads across files, so it is a test of its own:
//! `every_pub_fn_and_const_has_a_user` holds every public function and
//! constant to a user in another file's non-test code, or to a reason
//! in [`NO_OTHER_USER`].

use std::collections::BTreeSet;
use std::path::Path;

/// What a rule looks for on one line.
#[derive(Clone, Copy, Debug)]
enum Needle {
    /// The text, anywhere on the line.
    Text(&'static str),
    /// The text, followed by a non-identifier character or the end of
    /// the line.
    Word(&'static str),
    /// `as_f64` and, later on the same line, an `as` cast to a
    /// primitive integer: a number narrowed without the integer rule
    /// of `crates/core/src/json.rs`.
    AsIntCast,
    /// The first text, on a line without the second.
    TextWithout(&'static str, &'static str),
    /// A line that opens a top-level item: it starts with an
    /// identifier character.
    Item,
}

/// Which files under a rule's roots it reads.
#[derive(Clone, Copy)]
enum Filter {
    Rs,
    All,
}

/// Which lines of a file a rule reads.
#[derive(Clone, Copy)]
enum Lines {
    Whole,
    /// The file's [`non_test`] text.
    NonTest,
    /// Every line that is not a `//` comment.
    Code,
    /// The lines after the file's [`non_test`] text, less each line
    /// that opens an item a `#[cfg(test)]` attribute gates.
    AfterTests,
}

/// What a rule allows, counted over its matches.
#[derive(Clone, Copy)]
enum Bound {
    /// Any number of matching lines.
    Any,
    /// Exactly this many matching lines, over all needles.
    Lines(usize),
    /// At most this many matching lines for each needle.
    AtMostLinesEach(usize),
    /// Exactly this many matching files.
    Files(usize),
}

struct Rule {
    name: &'static str,
    /// The commit that set the rule.
    commit: &'static str,
    needles: &'static [Needle],
    /// Files or directories, relative to the repository root; a `*`
    /// component stands for every entry of its directory.
    roots: &'static [&'static str],
    filter: Filter,
    lines: Lines,
    /// The files allowed to match; `None` allows any.
    allowed: Option<&'static [&'static str]>,
    bound: Bound,
}

const JSON_RS: &str = "crates/core/src/json.rs";
const CLI_RS: &str = "crates/bench/src/cli.rs";
/// The library and binary sources.
const SOURCES: &[&str] = &["crates/*/src", "src"];
/// The sources with every crate's tests, benches and fixtures.
const EVERYTHING: &[&str] = &["crates", "src"];

const RULES: &[Rule] = &[
    Rule {
        name: "one JSON parser, in json.rs",
        commit: "5201ec1",
        needles: &[
            Needle::Text("fn parse_flat_object"),
            Needle::Word("struct Parser"),
        ],
        roots: EVERYTHING,
        filter: Filter::All,
        lines: Lines::Whole,
        allowed: Some(&[JSON_RS]),
        bound: Bound::Files(1),
    },
    Rule {
        name: "the CSV sink, --trace-format and the second metrics system stay deleted",
        commit: "5201ec1",
        needles: &[
            Needle::Text("CsvSink"),
            Needle::Text("from_csv_row"),
            Needle::Text("trace-format"),
            Needle::Text("set_histograms_enabled"),
        ],
        roots: EVERYTHING,
        filter: Filter::Rs,
        lines: Lines::Whole,
        allowed: Some(&[CLI_RS]),
        bound: Bound::Any,
    },
    Rule {
        name: "each trace field key is spelled on one non-test line",
        commit: "c195cc9",
        needles: &[
            Needle::Text("\"outliers_rejected\""),
            Needle::Text("\"lamport\""),
            Needle::Text("\"ci_rel\""),
            Needle::Text("\"labels\""),
        ],
        roots: SOURCES,
        filter: Filter::Rs,
        lines: Lines::NonTest,
        allowed: None,
        bound: Bound::AtMostLinesEach(1),
    },
    Rule {
        name: "the integer rule is worded once, in json.rs",
        commit: "24d9e7f",
        needles: &[Needle::Text("must be a non-negative integer")],
        roots: SOURCES,
        filter: Filter::Rs,
        lines: Lines::NonTest,
        allowed: Some(&[JSON_RS]),
        bound: Bound::Lines(1),
    },
    Rule {
        name: "no number read with as_f64() is cast with `as` outside json.rs",
        commit: "24d9e7f",
        needles: &[Needle::AsIntCast],
        roots: SOURCES,
        filter: Filter::Rs,
        lines: Lines::NonTest,
        allowed: Some(&[JSON_RS]),
        bound: Bound::Any,
    },
    Rule {
        name: "no second command-line parser",
        commit: "8566ea0",
        needles: &[
            Needle::Text("fn flag_value"),
            Needle::Text("_from_args("),
            Needle::Text("fn split_args"),
            Needle::Text("env::args().any"),
        ],
        roots: EVERYTHING,
        filter: Filter::Rs,
        lines: Lines::Whole,
        allowed: None,
        bound: Bound::Lines(0),
    },
    Rule {
        name: "argv is read by the shared parser and the tracetool only",
        commit: "8566ea0",
        needles: &[Needle::Text("env::args()")],
        roots: SOURCES,
        filter: Filter::Rs,
        lines: Lines::Whole,
        allowed: Some(&[CLI_RS, "src/bin/fupermod_tracetool.rs"]),
        bound: Bound::Files(2),
    },
    Rule {
        name: "one thread-engine cap",
        commit: "8566ea0",
        needles: &[
            Needle::Text("THREAD_RANKS_CAP: usize"),
            Needle::Word("> 512"),
        ],
        roots: EVERYTHING,
        filter: Filter::Rs,
        lines: Lines::Code,
        allowed: None,
        bound: Bound::Lines(1),
    },
    Rule {
        name: "no blocking twin of a split collective in comm.rs",
        commit: "b4947a2",
        needles: &[
            Needle::Text("fn allgather_hub"),
            Needle::Text("fn allgather_ring"),
            Needle::Text("fn allgather_butterfly"),
            Needle::Text("fn allgather_slots"),
            Needle::Text("fn bcast_data"),
            Needle::Text("fn close_op"),
            Needle::Text("fn collect_payloads"),
            Needle::Text("fn recv_tolerant"),
            Needle::Text("fn gather_impl"),
            Needle::Text("fn gather_hub_data"),
            Needle::Text("fn gather_tree_data"),
            Needle::Text("fn scatterv_data"),
            Needle::Text("fn allreduce_hub"),
            Needle::Word("fn raw_recv"),
        ],
        roots: &["crates/runtime/src/comm.rs"],
        filter: Filter::Rs,
        lines: Lines::Whole,
        allowed: None,
        bound: Bound::Lines(0),
    },
    Rule {
        name: "one fault-rule walk, in fault.rs",
        commit: "984b817",
        needles: &[Needle::Text("is_multiple_of(rule.every)")],
        roots: &["crates/runtime/src"],
        filter: Filter::All,
        lines: Lines::Whole,
        allowed: Some(&["crates/runtime/src/fault.rs"]),
        bound: Bound::Files(1),
    },
    Rule {
        name: "one measure_share",
        commit: "984b817",
        needles: &[Needle::Text("fn measure_share")],
        roots: &["crates/runtime/src"],
        filter: Filter::All,
        lines: Lines::Whole,
        allowed: None,
        bound: Bound::Lines(1),
    },
    Rule {
        name: "one deadline outcome on the event engine: a receive nothing will satisfy (blocking_take)",
        commit: "after 9613912",
        needles: &[Needle::Text("RuntimeError::Timeout")],
        roots: &["crates/runtime/src/sim"],
        filter: Filter::Rs,
        lines: Lines::NonTest,
        allowed: Some(&["crates/runtime/src/sim/engine.rs"]),
        bound: Bound::Lines(1),
    },
    Rule {
        name: "one op lifecycle: only the rank ledger applies the fault plan's rules (fault.rs defines them)",
        commit: "after 2b404f9",
        needles: &[
            Needle::Text("death_after("),
            Needle::Text("straggler_comm_seconds("),
            Needle::Text("drop_verdict("),
            Needle::Text("delay_seconds("),
        ],
        roots: &["crates/runtime/src"],
        filter: Filter::Rs,
        lines: Lines::NonTest,
        allowed: Some(&["crates/runtime/src/fault.rs", "crates/runtime/src/ledger.rs"]),
        bound: Bound::Files(2),
    },
    Rule {
        name: "one clock owner: only the rank ledger moves a virtual clock",
        commit: "after 55a5224",
        needles: &[
            Needle::Text(".schedule("),
            Needle::Text(".charge_uniform_ring("),
            Needle::Text(".post_send("),
            Needle::Text(".arrive("),
            // `SimComm::advance` takes a rank and seconds; a split
            // collective's `advance()` takes nothing and moves no clock.
            Needle::TextWithout(".advance(", ".advance()"),
        ],
        roots: &["crates/runtime/src"],
        filter: Filter::Rs,
        lines: Lines::NonTest,
        allowed: Some(&["crates/runtime/src/ledger.rs"]),
        bound: Bound::Files(1),
    },
    Rule {
        name: "a file's tests come last: every item after the first #[cfg(test)] is gated by one",
        commit: "after b5cea3e",
        needles: &[Needle::Item],
        roots: USERS,
        filter: Filter::Rs,
        lines: Lines::AfterTests,
        allowed: None,
        bound: Bound::Lines(0),
    },
    Rule {
        name: "one test runner: nothing under scripts/ runs python3",
        commit: "after b5cea3e",
        needles: &[Needle::Text("python3")],
        roots: &["scripts"],
        filter: Filter::All,
        lines: Lines::Whole,
        allowed: None,
        bound: Bound::Lines(0),
    },
    Rule {
        name: "check.sh runs only what cargo test cannot: each cargo test in release codegen, none serialised",
        commit: "after b5cea3e",
        needles: &[
            Needle::Text("--test-threads"),
            Needle::TextWithout("cargo test", "--release"),
        ],
        roots: &["scripts/check.sh"],
        filter: Filter::All,
        lines: Lines::Whole,
        allowed: None,
        bound: Bound::Lines(0),
    },
];

/// A file's non-test text: everything before its first line that
/// starts with `#[cfg(test)]`, where its unit tests begin.
fn non_test(text: &str) -> &str {
    let mut end = 0;
    for line in text.split_inclusive('\n') {
        if line.starts_with("#[cfg(test)]") {
            break;
        }
        end += line.len();
    }
    &text[..end]
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether a word that ends at `at` ends there: `line[at..]` does not
/// start with an identifier character.
fn word_ends(line: &str, at: usize) -> bool {
    !line[at..].starts_with(is_ident)
}

impl Needle {
    fn matches(self, line: &str) -> bool {
        match self {
            Needle::Text(text) => line.contains(text),
            Needle::Word(word) => line
                .match_indices(word)
                .any(|(at, _)| word_ends(line, at + word.len())),
            Needle::AsIntCast => line
                .match_indices("as_f64")
                .map(|(at, _)| at + "as_f64".len())
                .filter(|&end| word_ends(line, end))
                .any(|end| {
                    line[end..].match_indices("as ").any(|(at, _)| {
                        let at = end + at;
                        !line[..at].ends_with(is_ident) && is_int_type(&line[at + 3..])
                    })
                }),
            Needle::TextWithout(text, without) => line.contains(text) && !line.contains(without),
            Needle::Item => line.starts_with(is_ident),
        }
    }
}

/// Whether `text` starts with a whole primitive integer type name.
fn is_int_type(text: &str) -> bool {
    let Some(width) = text.strip_prefix(['i', 'u']) else {
        return false;
    };
    ["8", "16", "32", "64", "128", "size"]
        .iter()
        .any(|w| width.strip_prefix(w).is_some_and(|rest| word_ends(rest, 0)))
}

/// Every file under `root` that passes `filter`, in path order, as
/// paths relative to the repository root.
fn files_under(repo: &Path, root: &str, filter: Filter) -> Vec<String> {
    if let Some((parent, child)) = root.split_once("/*/") {
        return sorted_entries(&repo.join(parent))
            .into_iter()
            .map(|entry| format!("{parent}/{entry}/{child}"))
            .filter(|path| repo.join(path).exists())
            .flat_map(|path| files_under(repo, &path, filter))
            .collect();
    }
    let path = repo.join(root);
    assert!(
        path.exists(),
        "{root} does not exist: the rule reads nothing"
    );
    if path.is_file() {
        return vec![root.to_owned()];
    }
    let mut files = Vec::new();
    for entry in sorted_entries(&path) {
        let rel = format!("{root}/{entry}");
        let kind = std::fs::symlink_metadata(repo.join(&rel))
            .unwrap_or_else(|e| panic!("{rel}: {e}"))
            .file_type();
        if kind.is_dir() {
            files.extend(files_under(repo, &rel, filter));
        } else if kind.is_file() && (matches!(filter, Filter::All) || rel.ends_with(".rs")) {
            files.push(rel);
        }
    }
    files
}

fn sorted_entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| {
            entry
                .expect("directory entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

/// One line that matched a rule.
struct Hit {
    file: String,
    line: usize,
    text: String,
}

impl std::fmt::Display for Hit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "    {}:{}: {}", self.file, self.line, self.text.trim())
    }
}

/// The lines of `text` that `lines` reads, numbered from 1.
fn read_lines(text: &str, lines: Lines) -> Vec<(usize, &str)> {
    let numbered = text.lines().enumerate().map(|(i, line)| (i + 1, line));
    match lines {
        Lines::Whole => numbered.collect(),
        Lines::NonTest => numbered.take(non_test(text).lines().count()).collect(),
        Lines::Code => numbered
            .filter(|(_, line)| !line.trim_start().starts_with("//"))
            .collect(),
        Lines::AfterTests => {
            // Set by a `#[cfg(test)]` line, spent by the item it gates.
            let mut gated = false;
            numbered
                .skip(non_test(text).lines().count())
                .filter(|&(_, line)| {
                    if line.starts_with("#[cfg(test)]") {
                        gated = true;
                    } else if Needle::Item.matches(line) && std::mem::take(&mut gated) {
                        return false;
                    }
                    true
                })
                .collect()
        }
    }
}

fn scan(repo: &Path, rule: &Rule) -> Vec<Hit> {
    let mut hits = Vec::new();
    for root in rule.roots {
        for file in files_under(repo, root, rule.filter) {
            let bytes = std::fs::read(repo.join(&file)).unwrap_or_else(|e| panic!("{file}: {e}"));
            let text = String::from_utf8_lossy(&bytes);
            for (line, text) in read_lines(&text, rule.lines) {
                if rule.needles.iter().any(|n| n.matches(text)) {
                    hits.push(Hit {
                        file: file.clone(),
                        line,
                        text: text.to_owned(),
                    });
                }
            }
        }
    }
    hits
}

/// The report of `rule`'s failure, or `None` when it holds.
fn check(repo: &Path, rule: &Rule) -> Option<String> {
    let hits = scan(repo, rule);
    let mut problems: Vec<String> = Vec::new();
    let mut list = |what: String, hits: &[&Hit]| {
        problems.push(what);
        problems.extend(hits.iter().map(|h| h.to_string()));
    };
    if let Some(allowed) = rule.allowed {
        let outside: Vec<&Hit> = hits
            .iter()
            .filter(|h| !allowed.contains(&h.file.as_str()))
            .collect();
        if !outside.is_empty() {
            list(
                format!("  matches outside {}:", allowed.join(", ")),
                &outside,
            );
        }
    }
    let all: Vec<&Hit> = hits.iter().collect();
    match rule.bound {
        Bound::Any => {}
        Bound::Lines(n) => {
            if hits.len() != n {
                list(
                    format!("  {} matching lines, exactly {n} allowed:", hits.len()),
                    &all,
                );
            }
        }
        Bound::AtMostLinesEach(n) => {
            for needle in rule.needles {
                let of: Vec<&Hit> = hits.iter().filter(|h| needle.matches(&h.text)).collect();
                if of.len() > n {
                    list(
                        format!("  {needle:?} on {} lines, at most {n} allowed:", of.len()),
                        &of,
                    );
                }
            }
        }
        Bound::Files(n) => {
            let files: BTreeSet<&str> = hits.iter().map(|h| h.file.as_str()).collect();
            if files.len() != n {
                list(
                    format!("  {} matching files, exactly {n} allowed:", files.len()),
                    &all,
                );
            }
        }
    }
    (!problems.is_empty()).then(|| {
        format!(
            "rule \"{}\" (set by commit {}) is broken:\n{}",
            rule.name,
            rule.commit,
            problems.join("\n")
        )
    })
}

#[test]
fn every_rule_holds() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let broken: Vec<String> = RULES.iter().filter_map(|rule| check(repo, rule)).collect();
    assert!(broken.is_empty(), "\n{}", broken.join("\n\n"));
}

#[test]
fn needles_and_non_test_text_read_as_the_rules_mean() {
    assert!(Needle::Word("struct Parser").matches("pub struct Parser<'a> {"));
    assert!(Needle::Word("struct Parser").matches("struct Parser"));
    assert!(!Needle::Word("struct Parser").matches("struct ParserState {"));
    assert!(Needle::Word("> 512").matches("if p > 512 {"));
    assert!(!Needle::Word("> 512").matches("if p > 5120 {"));

    for cast in [
        "let r = v.as_f64().unwrap() as u32;",
        "x.as_f64()? as usize",
        "as_f64 as i128",
    ] {
        assert!(Needle::AsIntCast.matches(cast), "{cast}");
    }
    for fine in [
        "let r = v.as_f64().unwrap() as f32;",
        "x as u32 + y.as_f64()",
        "x.as_f64_bits() as u64",
        "x.as_f64().alias u32",
        "x.as_f64() as u8x",
    ] {
        assert!(!Needle::AsIntCast.matches(fine), "{fine}");
    }

    assert_eq!(
        named("pub const fn lanes(x: T) -> Lanes { fn_lanes(x) }").collect::<Vec<_>>(),
        ["pub", "const", "x", "T", "Lanes", "fn_lanes", "x"]
    );
    assert_eq!(pub_item("    pub fn new() -> Self {"), Some("new"));
    assert_eq!(pub_item("pub const fn lanes<T>()"), Some("lanes"));
    assert_eq!(pub_item("pub unsafe fn raw(p: *const u8)"), Some("raw"));
    assert_eq!(pub_item("pub const MAX_DEPTH: usize = 64;"), Some("MAX_DEPTH"));
    for none in [
        "pub struct Parser<'a> {",
        "pub(crate) fn hidden()",
        "fn private()",
        "pub fn $name(&self)",
        "pub mod json;",
    ] {
        assert_eq!(pub_item(none), None, "{none}");
    }

    let text = "fn a() {}\n    #[cfg(test)]\nfn b() {}\n#[cfg(test)]\nmod tests {}\n";
    assert_eq!(non_test(text), "fn a() {}\n    #[cfg(test)]\nfn b() {}\n");
    assert_eq!(non_test("fn a() {}"), "fn a() {}");

    assert!(Needle::TextWithout("cargo test", "--release").matches("run cargo test -p x"));
    assert!(!Needle::TextWithout("cargo test", "--release").matches("cargo test --release"));
    fn items(text: &str) -> Vec<usize> {
        read_lines(text, Lines::AfterTests)
            .into_iter()
            .filter(|(_, line)| Needle::Item.matches(line))
            .map(|(n, _)| n)
            .collect()
    }
    let tail = "fn a() {}\n#[cfg(test)]\n/// Doc.\n#[allow(dead_code)]\nmod oracle {\n    fn o() {}\n}\n\n";
    assert!(items(tail).is_empty());
    assert!(items(&format!("{tail}#[cfg(test)]\nmod tests {{}}\n")).is_empty());
    assert_eq!(items(&format!("{tail}pub fn unused() {{}}\n")), [9]);
    assert!(items("fn a() {}\n").is_empty());
}

/// The files whose non-test code can be a public item's user.
const USERS: &[&str] = &["crates/*/src", "src", "examples", "benchmark/src"];

/// The `pub fn` and `pub const` items under `crates/*/src` that no
/// other file's non-test code names, as `file::name`, each with the
/// reason it stays public.
const NO_OTHER_USER: &[(&str, &str)] = &[
    (
        "crates/core/src/benchmark.rs::with_outlier_rejection",
        "the MAD outlier-rejection option of Benchmark; tests/trace_integration.rs checks what it records",
    ),
    (
        "crates/core/src/json.rs::MAX_DEPTH",
        "the documented nesting cap, which tests/hostile_json.rs holds the parser to",
    ),
    (
        "crates/core/src/model/io.rs::write_points",
        "the writer half of the points format read_points reads; save_model writes through it",
    ),
    (
        "crates/core/src/trace.rs::EVENT_FIELDS",
        "the schema's field table, which trace_schema.rs and csv_export.rs hold the docs to",
    ),
    (
        "crates/core/src/trace.rs::read_jsonl_trace",
        "the library's one-call trace reader (README); tests/trace_integration.rs reads a binary's trace with it",
    ),
    (
        "crates/core/src/trace.rs::replay_into_models",
        "rebuilds models from a trace (README); tests/trace_integration.rs replays a binary's trace",
    ),
    (
        "crates/core/src/trace.rs::HISTOGRAM_BUCKETS",
        "the histogram bucket layout the exposition and trace round-trip tests check",
    ),
    (
        "crates/kernels/src/gemm.rs::gemm_naive",
        "the bit-identity oracle of gemm_blocked; FIG2 runs it through MatMulKernel::with_naive_gemm",
    ),
    (
        "crates/runtime/src/comm.rs::virtual_times",
        "the thread-backed sim's per-rank clocks, which event_parity.rs and requests.rs compare",
    ),
    (
        "crates/runtime/src/sim/engine.rs::virtual_times",
        "the event engine's per-rank clocks, which event_parity.rs holds to the thread-backed sim's",
    ),
    (
        "crates/store/src/entry.rs::ingest_sample_rebuilding",
        "the cold-rebuild oracle prefix_identity.rs holds the patched ingest path to",
    ),
    (
        "crates/store/src/plan.rs::plan_cost",
        "the plan cache's byte cost, with which plan_cache.rs and eviction.rs model its budget",
    ),
    (
        "crates/store/src/store.rs::epoch_of",
        "eviction.rs and plan_cache.rs read entry epochs with it",
    ),
    (
        "crates/store/src/store.rs::with_entry",
        "eviction.rs reads a re-ingested entry with it",
    ),
    (
        "crates/trace/src/csv.rs::CSV_HEADER",
        "the CSV export's columns, which csv_export.rs and tests/trace_integration.rs compare exports to",
    ),
    (
        "crates/trace/src/csv.rs::csv_row",
        "the CSV export's per-event row, which csv_export.rs holds to golden rows",
    ),
];

/// The name a line declares, when it declares a `pub fn` or a
/// `pub const`.
fn pub_item(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = match rest.strip_prefix("const ") {
        Some(after) => after.strip_prefix("fn ").unwrap_or(after),
        None => rest.strip_prefix("unsafe ").unwrap_or(rest).strip_prefix("fn ")?,
    };
    let name = &rest[..rest.find(|c| !is_ident(c)).unwrap_or(rest.len())];
    (!name.is_empty()).then_some(name)
}

/// The identifiers `line` names, leaving out the one a `fn` or a
/// `const` declares there: a same-named definition is not a use.
fn named(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c| !is_ident(c))
        .filter(|w| !w.is_empty())
        .scan("", |previous, word| {
            let declared = matches!(*previous, "fn" | "const");
            *previous = word;
            Some((!declared).then_some(word))
        })
        .flatten()
}

/// A file's [`non_test`] lines that are not `//` comments, numbered
/// from 1.
fn code_lines(repo: &Path, file: &str) -> Vec<(usize, String)> {
    let text = std::fs::read_to_string(repo.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
    non_test(&text)
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim_start().starts_with("//"))
        .map(|(i, line)| (i + 1, line.to_owned()))
        .collect()
}

/// Every public function and constant has a user: another file's
/// non-test code names it, or [`NO_OTHER_USER`] says why it stays.
/// Code kept only for a unit test moves under `#[cfg(test)]`; code
/// used only in its own file is private.
#[test]
fn every_pub_fn_and_const_has_a_user() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut named_in: std::collections::BTreeMap<String, BTreeSet<String>> = Default::default();
    for root in USERS {
        for file in files_under(repo, root, Filter::Rs) {
            for (_, line) in code_lines(repo, &file) {
                for word in named(&line) {
                    named_in.entry(word.to_owned()).or_default().insert(file.clone());
                }
            }
        }
    }
    let mut unused = Vec::new();
    let mut allowed_unused = BTreeSet::new();
    for file in files_under(repo, "crates/*/src", Filter::Rs) {
        for (line, text) in code_lines(repo, &file) {
            let Some(name) = pub_item(&text) else {
                continue;
            };
            let files = named_in.get(name);
            if files.is_some_and(|files| files.iter().any(|f| *f != file)) {
                continue;
            }
            let item = format!("{file}::{name}");
            if NO_OTHER_USER.iter().any(|&(allowed, _)| allowed == item) {
                allowed_unused.insert(item);
            } else {
                unused.push(format!("    {file}:{line}: {}", text.trim()));
            }
        }
    }
    let mut problems = Vec::new();
    if !unused.is_empty() {
        problems.push(
            "  no other file's non-test code names these; delete each, make it private, \
             move it under #[cfg(test)] or give it a reason in NO_OTHER_USER:"
                .to_owned(),
        );
        problems.extend(unused);
    }
    for &(item, reason) in NO_OTHER_USER {
        if !allowed_unused.contains(item) {
            problems.push(format!("  {item} is in NO_OTHER_USER but has a user, or is gone"));
        }
        if reason.trim().is_empty() {
            problems.push(format!("  {item} is in NO_OTHER_USER without a reason"));
        }
    }
    assert!(problems.is_empty(), "\n{}", problems.join("\n"));
}
