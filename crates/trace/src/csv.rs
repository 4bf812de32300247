//! CSV view of a trace: an **export**, not a sink.
//!
//! A trace file is JSONL (`fupermod_core::trace`); this module derives
//! the fixed wide-column spreadsheet form from decoded events —
//! `fupermod_tracetool export --format csv FILE...` — with the header
//! lines and row layout the retired CSV sink wrote,
//! so existing spreadsheets and `cut`/`awk` recipes keep working.
//! Nothing reads CSV back: the layout is one-way.

use std::io::{self, Write};

use fupermod_core::trace::{fmt_float, TraceEvent, SCHEMA_VERSION};

use crate::merge::StampedEvent;

/// Number of columns in the canonical CSV layout ([`CSV_HEADER`]).
pub const CSV_COLUMNS: usize = 33;

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

/// Encodes one event as a CSV data row matching [`CSV_HEADER`].
pub fn csv_row(event: &TraceEvent) -> String {
    // Columns: event,iter,rank,d,rep,reps,time,mean,stderr,ci_rel,
    //          elapsed,outliers_rejected,t,points,imbalance,
    //          units_moved,steps,dist,op,kind,peer,bytes,seconds,
    //          attempt,algorithm,rounds,lamport,gen,scope,count,
    //          sum,buckets,labels
    // (`kind` — column 19 — is shared by fault and metrics rows,
    // like rank/peer/seconds are shared across variants.)
    let mut c: [String; CSV_COLUMNS] = std::array::from_fn(|_| String::new());
    c[0] = event.name().to_owned();
    match event {
        TraceEvent::BenchmarkSample {
            rank,
            d,
            rep,
            time,
            ci_rel,
        } => {
            c[2] = rank.to_string();
            c[3] = d.to_string();
            c[4] = rep.to_string();
            c[6] = fmt_float(*time);
            c[9] = fmt_float(*ci_rel);
        }
        TraceEvent::BenchmarkDone {
            rank,
            d,
            reps,
            mean,
            stderr,
            elapsed,
            outliers_rejected,
        } => {
            c[2] = rank.to_string();
            c[3] = d.to_string();
            c[5] = reps.to_string();
            c[7] = fmt_float(*mean);
            c[8] = fmt_float(*stderr);
            c[10] = fmt_float(*elapsed);
            c[11] = outliers_rejected.to_string();
        }
        TraceEvent::ModelUpdate {
            rank,
            d,
            t,
            reps,
            points,
        } => {
            c[2] = rank.to_string();
            c[3] = d.to_string();
            c[5] = reps.to_string();
            c[12] = fmt_float(*t);
            c[13] = points.to_string();
        }
        TraceEvent::PartitionStep {
            iter,
            dist,
            imbalance,
            units_moved,
        } => {
            c[1] = iter.to_string();
            c[14] = fmt_float(*imbalance);
            c[15] = units_moved.to_string();
            c[17] = dist
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(";");
        }
        TraceEvent::DynamicConverged { steps, imbalance } => {
            c[14] = fmt_float(*imbalance);
            c[16] = steps.to_string();
        }
        TraceEvent::Comm {
            rank,
            op,
            peer,
            bytes,
            seconds,
            algorithm,
            rounds,
            lamport,
            gen,
        } => {
            c[2] = rank.to_string();
            c[18] = op.clone();
            c[20] = peer.to_string();
            c[21] = bytes.to_string();
            c[22] = fmt_float(*seconds);
            c[24] = algorithm.clone();
            c[25] = rounds.to_string();
            c[26] = lamport.to_string();
            c[27] = gen.to_string();
        }
        TraceEvent::Fault {
            rank,
            kind,
            peer,
            attempt,
            seconds,
        } => {
            c[2] = rank.to_string();
            c[19] = kind.clone();
            c[20] = peer.to_string();
            c[22] = fmt_float(*seconds);
            c[23] = attempt.to_string();
        }
        TraceEvent::Metrics {
            rank,
            scope,
            count,
            sum,
            buckets,
            kind,
            labels,
        } => {
            c[2] = rank.to_string();
            c[19] = kind.clone();
            c[28] = scope.clone();
            c[29] = count.to_string();
            c[30] = fmt_float(*sum);
            c[31] = buckets
                .iter()
                .map(|b| b.to_string())
                .collect::<Vec<_>>()
                .join(";");
            c[32] = labels.clone();
        }
    }
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
