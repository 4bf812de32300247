//! The virtual cost of one collective round under each schedule: an
//! `allgatherv` of 128 f64 per rank and an `allreduce`, on the Hockney
//! ethernet link (`α = 50 µs`, `β = 125 MB/s`), at p ∈ {4, 16, 64}.
//! The hub's cost grows as `O(p)`, the ring pipelines and the tree
//! grows as `O(log p)`. These are the nine one-round times of
//! `docs/RUNTIME.md` §6, run on the event engine, which gives the
//! thread-backed sim's clocks bit for bit (§9).

use fupermod_platform::comm::LinkModel;
use fupermod_runtime::{AlgorithmPolicy, EventSim, ReduceOp, RuntimeConfig, SimEngine};

/// The makespan of one round on `p` ranks under `policy`, in seconds.
fn one_round(p: usize, policy: AlgorithmPolicy) -> f64 {
    let config = RuntimeConfig::sim(p, LinkModel::ethernet())
        .with_engine(SimEngine::Event)
        .with_algorithms(policy);
    let mut sim = EventSim::from_config(&config, p).expect("event engine builds");
    let own: Vec<Vec<f64>> = (0..p)
        .map(|rank| (0..128).map(|i| (i + rank) as f64).collect())
        .collect();
    for gathered in sim.allgatherv(&own) {
        let gathered = gathered.expect("every rank takes part");
        assert_eq!(gathered.expect("allgatherv").len(), p);
    }
    let firsts: Vec<f64> = own.iter().map(|v| v[0]).collect();
    for sum in sim.allreduce(&firsts, ReduceOp::Sum) {
        sum.expect("every rank takes part").expect("allreduce");
    }
    sim.max_time()
}

/// `x` to `n` significant digits.
fn significant(x: f64, n: i32) -> String {
    let decimals = (n - 1 - x.log10().floor() as i32).max(0) as usize;
    format!("{x:.decimals$}")
}

/// A time as the table writes it: µs below a millisecond, else ms.
fn table_time(seconds: f64) -> String {
    if seconds < 1e-3 {
        format!("{} µs", significant(seconds * 1e6, 3))
    } else {
        format!("{} ms", significant(seconds * 1e3, 3))
    }
}

/// The rows of the one-round table in `docs/RUNTIME.md`, as cells.
fn documented_rows() -> Vec<Vec<String>> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/RUNTIME.md");
    let doc = std::fs::read_to_string(path).expect("docs/RUNTIME.md");
    let header = "| p | hub | ring | tree | ring vs hub | tree vs hub |";
    let table = doc.split_once(header).expect("the one-round table").1;
    table
        .lines()
        .skip(2)
        .take_while(|line| line.starts_with('|'))
        .map(|line| {
            let cells = line.trim_matches('|').split('|');
            cells.map(|cell| cell.trim().to_owned()).collect()
        })
        .collect()
}

#[test]
fn one_round_costs_are_the_documented_ones() {
    let rows = documented_rows();
    assert_eq!(rows.len(), 3, "{rows:?}");
    for row in rows {
        let p: usize = row[0].parse().expect("p");
        let hub = one_round(p, AlgorithmPolicy::hub());
        let ring = one_round(p, AlgorithmPolicy::ring());
        let tree = one_round(p, AlgorithmPolicy::tree());
        let computed = vec![
            p.to_string(),
            table_time(hub),
            table_time(ring),
            table_time(tree),
            format!("{}x", significant(hub / ring, 2)),
            format!("{}x", significant(hub / tree, 2)),
        ];
        assert_eq!(row, computed, "p = {p}: docs/RUNTIME.md against the event engine");
    }
}
