//! CSV view of a trace: an **export**, not a sink.
//!
//! A trace file is JSONL (`fupermod_core::trace`); this module derives
//! the fixed wide-column spreadsheet form from decoded events —
//! `fupermod_tracetool export --format csv FILE...` — with the header
//! lines and row layout the retired CSV sink wrote,
//! so existing spreadsheets and `cut`/`awk` recipes keep working.
//! Nothing reads CSV back: the layout is one-way.

use std::io::{self, Write};

use fupermod_core::trace::{fmt_float, FieldValue, TraceEvent, SCHEMA_VERSION};

use crate::merge::StampedEvent;

/// Number of columns in the canonical CSV layout ([`CSV_HEADER`]).
const CSV_COLUMNS: usize = 33;

/// Column header row of the CSV export (preceded by the
/// `# fupermod-trace schema=4` comment line). The six columns
/// starting at `op` (`op..attempt`) are the schema-v2 additions for
/// the `comm`/`fault` events; `algorithm,rounds` are the schema-v2
/// *addendum* columns describing the collective schedule a `comm`
/// event used; `lamport,gen` are the schema-v3 causal stamps on
/// `comm` rows, and `scope,count,sum,buckets` carry the schema-v3
/// `metrics` event (histogram snapshots — `buckets` is
/// `;`-separated like `dist`). Schema v4 adds `labels` (the metric
/// label set, `;`-separated `key=value` pairs) and reuses `kind` for
/// the metric kind tag on `metrics` rows. Absent columns are
/// empty/`0` for older rows and non-applicable events.
pub const CSV_HEADER: &str = "event,iter,rank,d,rep,reps,time,mean,stderr,ci_rel,\
elapsed,outliers_rejected,t,points,imbalance,units_moved,steps,dist,\
op,kind,peer,bytes,seconds,attempt,algorithm,rounds,lamport,gen,\
scope,count,sum,buckets,labels";

/// Encodes one event as a CSV data row matching [`CSV_HEADER`]: the
/// event tag, then each field in the column named by its key (columns
/// such as `rank`, `kind` or `seconds` are shared across events).
///
/// # Panics
///
/// When an event declares a field [`CSV_HEADER`] has no column for.
pub fn csv_row(event: &TraceEvent) -> String {
    let mut c: [String; CSV_COLUMNS] = std::array::from_fn(|_| String::new());
    c[0] = event.name().to_owned();
    event.for_each_field(|key, value| {
        let column = CSV_HEADER
            .split(',')
            .position(|name| name == key)
            .expect("every trace field has a CSV column");
        c[column] = match value {
            FieldValue::Count(v) => v.to_string(),
            FieldValue::Signed(v) => v.to_string(),
            FieldValue::Float(v) => fmt_float(v),
            FieldValue::Tag(v) => v.to_owned(),
            FieldValue::List(items) => items
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(";"),
        };
    });
    c.join(",")
}

/// Writes the `# fupermod-trace schema=N` comment, the [`CSV_HEADER`]
/// row and one [`csv_row`] per event.
///
/// # Errors
///
/// Propagates write errors.
pub fn export_csv<I, W>(events: I, out: &mut W) -> io::Result<()>
where
    I: IntoIterator<Item = StampedEvent>,
    W: Write,
{
    writeln!(out, "# fupermod-trace schema={SCHEMA_VERSION}")?;
    writeln!(out, "{CSV_HEADER}")?;
    for ev in events {
        writeln!(out, "{}", csv_row(&ev.event))?;
    }
    Ok(())
}
