//! The one-definition rules (ROADMAP aim 2). Each concept a refactor
//! made single — one JSON parser, one trace schema, one integer rule,
//! one command-line parser, one collective driver — must stay single,
//! and each rule that says so is one row of [`RULES`]: the literal
//! needles it looks for, the files it reads, the files allowed to
//! match and a bound. A failure names the rule, the commit that set
//! it, and every offending `file:line`.
//!
//! Adding a rule is adding a row that names its commit.

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

fn scan(repo: &Path, rule: &Rule) -> Vec<Hit> {
    let mut hits = Vec::new();
    for root in rule.roots {
        for file in files_under(repo, root, rule.filter) {
            let bytes = std::fs::read(repo.join(&file)).unwrap_or_else(|e| panic!("{file}: {e}"));
            let text = String::from_utf8_lossy(&bytes);
            let text = match rule.lines {
                Lines::NonTest => non_test(&text),
                Lines::Whole | Lines::Code => &text,
            };
            for (i, line) in text.lines().enumerate() {
                if matches!(rule.lines, Lines::Code) && line.trim_start().starts_with("//") {
                    continue;
                }
                if rule.needles.iter().any(|n| n.matches(line)) {
                    hits.push(Hit {
                        file: file.clone(),
                        line: i + 1,
                        text: line.to_owned(),
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

    let text = "fn a() {}\n    #[cfg(test)]\nfn b() {}\n#[cfg(test)]\nmod tests {}\n";
    assert_eq!(non_test(text), "fn a() {}\n    #[cfg(test)]\nfn b() {}\n");
    assert_eq!(non_test("fn a() {}"), "fn a() {}");
}
