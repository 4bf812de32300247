//! `compare A.json B.json`: one row per end-to-end metric × workload,
//! A as the parent and B as the change, judged by the rule of the
//! choosing-metrics guide (§8): a gain needs ≥ 9⁄10 of the paired sets
//! won and a median gap wider than the parent's own interquartile
//! range; a loss beyond the metric's bound is `worse` unless the
//! parent's own spread is wider than that bound, which makes it
//! `unresolved`.

use crate::results::{RunFile, Series};
use crate::spec::{Better, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Paired sets the change won and lost (ties count for neither).
fn pairs(parent: &Series, change: &Series, better: Better) -> (usize, usize) {
    let mut won = 0;
    let mut lost = 0;
    for (a, b) in parent.sets.iter().zip(&change.sets) {
        let change_better = match better {
            Better::Lower => b < a,
            Better::Higher => b > a,
        };
        if change_better {
            won += 1;
        } else if a != b {
            lost += 1;
        }
    }
    (won, lost)
}

pub fn judge(parent: &Series, change: &Series, better: Better, bound: f64) -> Verdict {
    let (pa, ch) = (parent.runs(), change.runs());
    let (won, lost) = pairs(parent, change, better);
    let n = (won + lost).max(1) as f64;
    // Positive when the change is worse, as a share of the parent.
    let worsening = match better {
        Better::Lower => (ch.median - pa.median) / pa.median,
        Better::Higher => (pa.median - ch.median) / pa.median,
    };
    let gap = (ch.median - pa.median).abs();
    if worsening < 0.0 && won as f64 >= 0.9 * n && gap > pa.iqr() {
        return Verdict::Improved;
    }
    let spread = pa.iqr() / pa.median;
    // Every run of the change better than every run of the parent
    // settles it even on a noisy parent.
    let lowest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let highest = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let all_better = match better {
        Better::Lower => highest(&change.sets) < lowest(&parent.sets),
        Better::Higher => lowest(&change.sets) > highest(&parent.sets),
    };
    if worsening > bound {
        if spread > bound {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    } else if spread > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

pub fn command(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("compare needs two result files: compare A.json B.json".to_owned());
    };
    let load = |p: &String| -> Result<RunFile, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        RunFile::from_json(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (parent, change) = (load(a)?, load(b)?);
    for (label, f) in [("A (parent)", &parent), ("B (change)", &change)] {
        println!(
            "# {label}: sha {}{} nproc {} kernel {} seed {}",
            f.host.sha,
            if f.host.dirty { " (dirty)" } else { "" },
            f.host.nproc,
            f.host.kernel,
            f.seed
        );
    }
    println!(
        "{:<16} {:<14} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>16} {:>7}  verdict",
        "workload",
        "metric",
        "A median",
        "A q1",
        "A q3",
        "B median",
        "B q1",
        "B q3",
        "B/A (base A)",
        "won"
    );
    let mut ok = true;
    for (name, pw) in &parent.workloads {
        let Some(cw) = change.workloads.get(name) else {
            println!("{name:<16} missing from B");
            ok = false;
            continue;
        };
        for m in &END_TO_END {
            let (Some(ps), Some(cs)) = (pw.metrics.get(m.name), cw.metrics.get(m.name)) else {
                continue;
            };
            let (pa, ch) = (ps.runs(), cs.runs());
            let (won, lost) = pairs(ps, cs, m.better);
            let verdict = judge(ps, cs, m.better, m.bound);
            ok &= verdict != Verdict::Worse;
            println!(
                "{name:<16} {:<14} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>9.4} of {:<4.4} {:>3}/{:<3}  {}",
                m.name,
                pa.median,
                pa.q1,
                pa.q3,
                ch.median,
                ch.q1,
                ch.q3,
                ch.median / pa.median,
                pa.median,
                won,
                won + lost,
                verdict.as_str()
            );
        }
        // The two exact results: any change is a regression.
        let shares = (pw.failed_ops_share(), cw.failed_ops_share());
        let failed_ok = shares.1 <= shares.0;
        let same_bits = pw.virtual_s_bits == cw.virtual_s_bits || parent.seed != change.seed;
        ok &= failed_ok && same_bits;
        println!(
            "{name:<16} {:<14} {:>12} {:>38} {:>12}  {}",
            "failed_ops_share",
            shares.0,
            "",
            shares.1,
            if failed_ok { "unchanged" } else { "worse" }
        );
        println!(
            "{name:<16} {:<14} {:>12} {:>38} {:>12}  {} (simulated time, exact)",
            "virtual_s",
            f64::from_bits(pw.virtual_s_bits),
            "",
            f64::from_bits(cw.virtual_s_bits),
            if same_bits { "unchanged" } else { "worse" }
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(sets: &[f64]) -> Series {
        Series {
            samples: sets.to_vec(),
            sets: sets.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_the_pairs_and_spread_rule() {
        let parent = series(&[1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]);
        let faster = series(&[0.80, 0.81, 0.79, 0.80, 0.82, 0.78, 0.80, 0.81, 0.79, 0.80]);
        let slower = series(&[1.20, 1.21, 1.19, 1.20, 1.22, 1.18, 1.20, 1.21, 1.19, 1.20]);
        assert_eq!(
            judge(&parent, &faster, Better::Lower, 0.1),
            Verdict::Improved
        );
        assert_eq!(judge(&parent, &slower, Better::Lower, 0.1), Verdict::Worse);
        assert_eq!(
            judge(&parent, &parent, Better::Lower, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&parent, &slower, Better::Higher, 0.1),
            Verdict::Improved
        );

        // A parent whose own quartiles are wider than the bound cannot
        // referee a loss: unresolved, not worse.
        let noisy = series(&[1.0, 1.4, 0.8, 1.3, 0.9, 1.5, 0.7, 1.2, 1.0, 1.1]);
        assert_eq!(
            judge(&noisy, &slower, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // ... and a small gain inside that noise is unresolved too.
        let slightly = series(&[0.95, 1.35, 0.85, 1.2, 0.95, 1.4, 0.75, 1.1, 1.05, 1.0]);
        assert_eq!(
            judge(&noisy, &slightly, Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }
}
