//! The result file `run` writes and `compare` reads: per workload and
//! end-to-end metric the per-pass samples and per-set medians, with
//! the host the numbers were taken on. Host time and simulated time
//! are labelled apart (`clock`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use fupermod_trace::Json;

use crate::stats::Summary;
use crate::sys::Host;

/// One end-to-end metric on one workload.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Series {
    /// Every sample: one per timed pass for `wall_s`, `cpu_s` and
    /// `op_p50_us`, one per set-up for `setup_s`, one per set otherwise.
    pub samples: Vec<f64>,
    /// What each set's child reported (for timings, its best pass), in
    /// run order — the runs `selfcheck` and `compare` judge, paired by
    /// position between two files.
    pub sets: Vec<f64>,
}

impl Series {
    /// Over the sets: the statistic the bounds apply to.
    pub fn runs(&self) -> Summary {
        Summary::of(&self.sets)
    }

    /// Over every pass, for the reader.
    pub fn passes(&self) -> Summary {
        Summary::of(&self.samples)
    }

    /// Largest relative gap between two set medians.
    pub fn set_spread(&self) -> f64 {
        let lo = self.sets.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = self.sets.iter().copied().fold(0.0, f64::max);
        if lo > 0.0 && lo.is_finite() {
            (hi - lo) / lo
        } else {
            0.0
        }
    }
}

#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadResult {
    pub attempted: u64,
    pub failed: u64,
    /// Simulated seconds, as bits: compared exactly.
    pub virtual_s_bits: u64,
    /// End-to-end metric name → series (host time).
    pub metrics: BTreeMap<String, Series>,
}

impl WorkloadResult {
    pub fn failed_ops_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct RunFile {
    pub host: Host,
    pub seed: u64,
    pub workloads: BTreeMap<String, WorkloadResult>,
}

/// A float as JSON: shortest round-trip digits; a non-finite value
/// (no metric should produce one) reads 0.
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

pub fn json_array(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| json_f64(v)).collect();
    format!("[{}]", items.join(","))
}

/// Parses the `0x…` form bit patterns and fingerprints are written in.
pub fn parse_hex(text: &str) -> Option<u64> {
    u64::from_str_radix(text.trim_start_matches("0x"), 16).ok()
}

impl RunFile {
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\n\"schema\": 1,\n\"host\": {{\"nproc\": {}, \"kernel\": \"{}\", \"sha\": \"{}\", \"dirty\": {}}},\n\"seed\": {},\n\"workloads\": {{",
            self.host.nproc,
            fupermod_trace::json::escape(&self.host.kernel),
            fupermod_trace::json::escape(&self.host.sha),
            self.host.dirty,
            self.seed
        );
        for (i, (name, w)) in self.workloads.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n\"{name}\": {{\"attempted\": {}, \"failed\": {}, \"failed_ops_share\": {},\n  \"virtual_s\": {{\"clock\": \"simulated\", \"unit\": \"sim_s\", \"value\": {}, \"bits\": \"{:#018x}\"}},\n  \"metrics\": {{",
                if i > 0 { "," } else { "" },
                w.attempted,
                w.failed,
                w.failed_ops_share(),
                f64::from_bits(w.virtual_s_bits),
                w.virtual_s_bits
            );
            for (j, (metric, series)) in w.metrics.iter().enumerate() {
                let sum = series.passes();
                let _ = write!(
                    s,
                    "{}\n    \"{metric}\": {{\"clock\": \"host\", \"value\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"sets\": {}, \"samples\": {}}}",
                    if j > 0 { "," } else { "" },
                    series.runs().median,
                    sum.median,
                    sum.q1,
                    sum.q3,
                    sum.n,
                    json_array(&series.sets),
                    json_array(&series.samples)
                );
            }
            s.push_str("\n  }}");
        }
        s.push_str("\n}\n}\n");
        s
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let field = |j: &Json, k: &str| j.get(k).cloned().ok_or_else(|| format!("missing \"{k}\""));
        let num = |j: &Json, k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("\"{k}\" is not a number"))
        };
        let floats = |j: &Json, k: &str| -> Result<Vec<f64>, String> {
            j.get(k)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("\"{k}\" is not an array"))?
                .iter()
                .map(|v| {
                    v.as_f64()
                        .ok_or_else(|| format!("\"{k}\" holds a non-number"))
                })
                .collect()
        };
        let host = field(&doc, "host")?;
        let text_of = |k: &str| {
            host.get(k)
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_owned()
        };
        let mut workloads = BTreeMap::new();
        for (name, w) in field(&doc, "workloads")?
            .as_object()
            .ok_or("\"workloads\" is not an object")?
        {
            let bits = w
                .get("virtual_s")
                .and_then(|v| v.get("bits"))
                .and_then(Json::as_str)
                .and_then(parse_hex)
                .ok_or_else(|| format!("{name}: bad virtual_s bits"))?;
            let mut metrics = BTreeMap::new();
            for (metric, m) in field(w, "metrics")?
                .as_object()
                .ok_or("\"metrics\" is not an object")?
            {
                metrics.insert(
                    metric.clone(),
                    Series {
                        samples: floats(m, "samples")?,
                        sets: floats(m, "sets")?,
                    },
                );
            }
            workloads.insert(
                name.clone(),
                WorkloadResult {
                    attempted: num(w, "attempted")? as u64,
                    failed: num(w, "failed")? as u64,
                    virtual_s_bits: bits,
                    metrics,
                },
            );
        }
        Ok(Self {
            host: Host {
                nproc: num(&host, "nproc")? as usize,
                kernel: text_of("kernel"),
                sha: text_of("sha"),
                dirty: matches!(host.get("dirty"), Some(Json::Bool(true))),
            },
            seed: num(&doc, "seed")? as u64,
            workloads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_file_round_trips() {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "wall_s".to_owned(),
            Series {
                samples: vec![1.0, 1.25, 0.9, 1.1],
                sets: vec![1.125, 1.0],
            },
        );
        let mut workloads = BTreeMap::new();
        workloads.insert(
            "tcp_bulk".to_owned(),
            WorkloadResult {
                attempted: 100,
                failed: 0,
                virtual_s_bits: 0.023669551999999996f64.to_bits(),
                metrics,
            },
        );
        let file = RunFile {
            host: Host {
                nproc: 2,
                kernel: "6.1".into(),
                sha: "abc".into(),
                dirty: true,
            },
            seed: 1,
            workloads,
        };
        assert_eq!(RunFile::from_json(&file.to_json()).unwrap(), file);
        assert!((file.workloads["tcp_bulk"].metrics["wall_s"].set_spread() - 0.125).abs() < 1e-12);
    }
}
