//! Seed-1 goldens: the bit patterns a first pass must reproduce
//! (virtual-time bits, the output fingerprint — which folds in final
//! sizes, product checksums and served answers — and named exact
//! counts such as steps and event counts). Other seeds are held to
//! invariants instead (passes bit-equal, sizes sum to total, served ==
//! in-process). `goldens` regenerates the file after a change that
//! legitimately alters outputs.

use std::fmt::Write as _;

use fupermod_trace::Json;

use crate::workloads::PassOutput;

const GOLDENS: &str = include_str!("../goldens.json");

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Golden {
    pub virtual_s_bits: u64,
    pub fingerprint: u64,
    pub exact: Vec<(String, u64)>,
}

fn hex(j: Option<&Json>) -> Option<u64> {
    crate::results::parse_hex(j?.as_str()?)
}

impl Golden {
    pub fn of(out: &PassOutput) -> Self {
        Self {
            virtual_s_bits: out.virtual_s.to_bits(),
            fingerprint: out.fingerprint,
            exact: out.exact.iter().map(|&(k, v)| (k.to_owned(), v)).collect(),
        }
    }

    /// The committed golden of `workload`, if the file has one.
    pub fn load(workload: &str) -> Option<Self> {
        let doc = Json::parse(GOLDENS).ok()?;
        let entry = doc.get("workloads")?.get(workload)?;
        let exact = entry
            .get("exact")?
            .as_object()?
            .iter()
            .map(|(k, v)| Some((k.clone(), v.as_f64()? as u64)))
            .collect::<Option<Vec<_>>>()?;
        Some(Self {
            virtual_s_bits: hex(entry.get("virtual_s_bits"))?,
            fingerprint: hex(entry.get("fingerprint"))?,
            exact,
        })
    }

    /// One `"workload": {...}` member of the goldens file. The decimal
    /// `virtual_s` is for readers; the bits are what is compared.
    pub fn to_json_member(&self, workload: &str) -> String {
        let mut exact = String::new();
        for (i, (k, v)) in self.exact.iter().enumerate() {
            let _ = write!(exact, "{}\"{k}\": {v}", if i > 0 { ", " } else { "" });
        }
        format!(
            "    \"{workload}\": {{\"virtual_s\": {}, \"virtual_s_bits\": \"{:#018x}\", \"fingerprint\": \"{:#018x}\", \"exact\": {{{exact}}}}}",
            f64::from_bits(self.virtual_s_bits),
            self.virtual_s_bits,
            self.fingerprint,
        )
    }
}
