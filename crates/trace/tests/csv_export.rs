//! Event → CSV-row goldens for the `export --format csv` view.
//!
//! `fixtures/trace_v4.csv_rows` holds, line for line, the row the
//! retired CSV sink's encoder (`TraceEvent::to_csv_row` at `e763e9a`)
//! produced for each event of `fupermod-core`'s v4 fixture trace — all
//! eight variants, the `null` / `±1e9999` float spellings, empty and
//! full `dist`/`buckets` cells. The export must keep writing exactly
//! those rows under the same two header lines.

use std::io::Cursor;

use fupermod_core::trace::{TraceEvent, TraceReader, EVENT_FIELDS, SCHEMA_VERSION};
use fupermod_trace::csv::{csv_row, CSV_COLUMNS, CSV_HEADER};
use fupermod_trace::{export_csv, merge_events};

const TRACE: &str = include_str!("../../core/tests/fixtures/trace_v4.jsonl");
const ROWS: &str = include_str!("fixtures/trace_v4.csv_rows");

fn events() -> Vec<TraceEvent> {
    TraceReader::new(Cursor::new(TRACE.as_bytes()))
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap()
}

#[test]
fn rows_match_the_retired_sink_for_every_variant() {
    let events = events();
    let rows: Vec<&str> = ROWS.lines().collect();
    assert_eq!(events.len(), rows.len());
    let mut tags = std::collections::BTreeSet::new();
    for (event, want) in events.iter().zip(rows) {
        let row = csv_row(event);
        assert_eq!(row, want, "event {event:?}");
        assert_eq!(row.split(',').count(), CSV_COLUMNS, "ragged row: {row}");
        tags.insert(event.name());
    }
    assert_eq!(tags.len(), 8, "fixture must cover every variant: {tags:?}");
    assert_eq!(CSV_HEADER.split(',').count(), CSV_COLUMNS);
}

#[test]
fn export_writes_the_two_header_lines_then_one_row_per_event() {
    let events = events();
    let mut out = Vec::new();
    export_csv(merge_events(vec![events]), &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let mut lines = text.lines();
    assert_eq!(
        lines.next(),
        Some(format!("# fupermod-trace schema={SCHEMA_VERSION}").as_str())
    );
    assert_eq!(lines.next(), Some(CSV_HEADER));
    // The merge reorders causally; as a multiset the rows are the goldens.
    let mut got: Vec<&str> = lines.collect();
    let mut want: Vec<&str> = ROWS.lines().collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want);
}

/// `docs/OBSERVABILITY.md` §2.2's column table lists the header's
/// columns, and each column's "used by" cell names exactly the events
/// that declare a field of that key.
#[test]
fn the_documented_column_table_is_the_header_and_the_declaration() {
    let doc = include_str!("../../../docs/OBSERVABILITY.md");
    let section = &doc[doc.find("\n### 2.2 ").unwrap()..doc.find("\n## 3. ").unwrap()];
    let rows: Vec<(&str, Vec<&str>)> = section
        .lines()
        .filter(|line| line.starts_with("| `"))
        .map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            (cells[1].trim_matches('`'), cells[2].split(", ").collect())
        })
        .collect();
    let columns: Vec<&str> = rows.iter().map(|(column, _)| *column).collect();
    assert_eq!(columns, CSV_HEADER.split(',').collect::<Vec<_>>());
    assert_eq!(rows[0], ("event", vec!["all"]));
    for (column, used_by) in &rows[1..] {
        let declaring: Vec<&str> = EVENT_FIELDS
            .iter()
            .filter(|(_, keys)| keys.contains(column))
            .map(|(tag, _)| *tag)
            .collect();
        assert_eq!(used_by, &declaring, "column {column}");
    }
}
