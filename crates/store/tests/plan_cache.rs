//! The plan cache against a model of itself, and the store's plan
//! path under races: random `get`/`insert` sequences must answer as a
//! `Vec`-based reference LRU does, and a `partition` racing with
//! ingests must never return a plan computed from older models than
//! the ones the call saw.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use fupermod_core::model::Model;
use fupermod_core::partition::{Distribution, Part, Partitioner};
use fupermod_core::CoreError;
use fupermod_store::plan::{plan_cost, Plan};
use fupermod_store::{EntryConfig, ModelEntry, ModelStore, PlanCache, PlanKey, StoreConfig, StoreKey};
use proptest::prelude::*;

/// The reference: entries in recency order, least recently used first.
struct NaiveLru {
    budget: usize,
    entries: Vec<(PlanKey, Distribution)>,
}

impl NaiveLru {
    fn bytes(&self) -> usize {
        self.entries.iter().map(|(k, d)| plan_cost(k, d)).sum()
    }

    fn get(&mut self, key: &PlanKey) -> Option<Distribution> {
        let at = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(at);
        self.entries.push(entry);
        self.entries.last().map(|(_, d)| d.clone())
    }

    /// Returns the evicted keys, oldest first.
    fn insert(&mut self, key: PlanKey, dist: Distribution) -> Vec<PlanKey> {
        if plan_cost(&key, &dist) > self.budget {
            return Vec::new();
        }
        self.entries.retain(|(k, _)| *k != key);
        self.entries.push((key, dist));
        let mut victims = Vec::new();
        while self.bytes() > self.budget {
            victims.push(self.entries.remove(0).0);
        }
        victims
    }
}

const ALGORITHMS: [&str; 2] = ["geometric", "numerical"];

/// A small key universe, so sequences revisit keys: member lists of
/// one to three devices (order matters), two epochs, two totals.
fn plan_key(members: usize, epoch: u64, total: u64, algorithm: usize) -> PlanKey {
    let lists: [&[&str]; 4] = [&["a"], &["a", "b"], &["b", "a"], &["a", "b", "c"]];
    PlanKey {
        members: lists[members]
            .iter()
            .map(|fp| (StoreKey::new(*fp, "gemm", "default"), epoch))
            .collect(),
        total,
        algorithm: ALGORITHMS[algorithm].to_owned(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn plan_cache_answers_like_a_naive_lru(
        // In units of a quarter of one three-member plan: from "holds
        // nothing" to "never evicts".
        quarters in 0usize..40,
        ops in proptest::collection::vec(
            (0u32..3, 0usize..4, 0u64..2, 0u64..2, 0usize..2, 1usize..6),
            1..80,
        ),
    ) {
        let unit = plan_cost(&plan_key(3, 0, 0, 0), &Distribution::even(1000, 3));
        let budget = quarters * unit / 4;
        let mut cache = PlanCache::new(budget);
        let mut naive = NaiveLru { budget, entries: Vec::new() };
        for (op, members, epoch, total, algorithm, parts) in ops {
            let key = plan_key(members, epoch, 1000 + total, algorithm);
            if op == 0 {
                let dist = Distribution::even(1000 + total, parts);
                let victims = naive.insert(key.clone(), dist.clone());
                let evicted = cache.insert(key, Arc::new(Plan::new(dist)));
                prop_assert_eq!(evicted, victims.len() as u64);
                // Same count, same length and every reference victim
                // gone: the same victims. (A miss moves no recency.)
                for victim in &victims {
                    prop_assert!(cache.get(victim).is_none(), "kept a victim: {victim:?}");
                }
            } else {
                let got = cache.get(&key).map(|plan| plan.dist().clone());
                prop_assert_eq!(got, naive.get(&key));
            }
            prop_assert_eq!(cache.len(), naive.entries.len());
            prop_assert_eq!(cache.bytes(), naive.bytes());
            prop_assert!(cache.bytes() <= cache.budget());
        }
        for (key, _) in &naive.entries {
            prop_assert!(cache.get(key).is_some(), "lost a survivor: {key:?}");
        }
    }
}

/// Splits evenly and reports, as each part's time, that member's model
/// evaluated at a fixed probe size — so a distribution names the exact
/// model state of every member it was computed from.
struct Revealing;

const PROBE: f64 = 500.0;

impl Partitioner for Revealing {
    fn partition(&self, total: u64, models: &[&dyn Model]) -> Result<Distribution, CoreError> {
        let even = Distribution::even(total, models.len());
        let parts = even
            .parts()
            .iter()
            .zip(models)
            .map(|(p, m)| Part {
                d: p.d,
                t: m.time(PROBE).expect("every member is preloaded"),
            })
            .collect();
        Ok(Distribution::from_parts(total, parts))
    }
}

const MEMBERS: usize = 4;
const SIZES: [u64; 3] = [100, 400, 900];
const STREAM: usize = 1500;

/// Observation `k` of `member`: sizes in rotation, times drifting up so
/// every observation moves the model at the probe.
fn observation(member: usize, k: usize) -> (u64, f64) {
    let d = SIZES[k % SIZES.len()];
    (d, d as f64 * 1e-3 * (member + 1) as f64 * (1.0 + 1e-4 * k as f64))
}

struct Done<'a>(&'a AtomicUsize);

impl Drop for Done<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

#[test]
fn a_racing_partition_never_returns_a_stale_plan() {
    let keys: Vec<StoreKey> = (0..MEMBERS)
        .map(|m| StoreKey::new(format!("dev{m}"), "gemm", "default"))
        .collect();
    // Offline: what each member's model says at the probe, by epoch.
    let mut epoch_of_probe: Vec<HashMap<u64, u64>> = Vec::new();
    for m in 0..MEMBERS {
        let mut shadow = ModelEntry::new(EntryConfig::default());
        let mut table = HashMap::new();
        for k in 0..STREAM {
            let (d, t) = observation(m, k);
            shadow.ingest_sample(d, t).unwrap();
            if let Some(probe) = shadow.model().time(PROBE) {
                let clash = table.insert(probe.to_bits(), shadow.epoch());
                assert_eq!(clash, None, "member {m}: two epochs agree at the probe");
            }
        }
        epoch_of_probe.push(table);
    }

    let store = Arc::new(ModelStore::new(StoreConfig::default()));
    let preload = SIZES.len();
    for (m, key) in keys.iter().enumerate() {
        for k in 0..preload {
            let (d, t) = observation(m, k);
            store.ingest_sample(key, d, t).unwrap();
        }
    }
    let sets: [&[usize]; 5] = [&[0, 1], &[1, 2], &[2, 3, 0], &[3, 1], &[0, 1, 2, 3]];
    let start = Arc::new(Barrier::new(MEMBERS + 2));
    let writing = Arc::new(AtomicUsize::new(MEMBERS));
    let writers: Vec<_> = (0..MEMBERS)
        .map(|m| {
            let (store, start, writing) = (Arc::clone(&store), Arc::clone(&start), Arc::clone(&writing));
            let key = keys[m].clone();
            thread::spawn(move || {
                // Counted down even if this writer panics, so the
                // readers stop and the panic surfaces at `join`.
                let _done = Done(&writing);
                start.wait();
                for k in preload..STREAM {
                    let (d, t) = observation(m, k);
                    store.ingest_sample(&key, d, t).unwrap();
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..2)
        .map(|r| {
            let (store, start, writing) = (Arc::clone(&store), Arc::clone(&start), Arc::clone(&writing));
            let (keys, table) = (keys.clone(), epoch_of_probe.clone());
            thread::spawn(move || {
                start.wait();
                let (mut served, mut hits) = (0u64, 0u64);
                // Race the writers, then one more round over quiet models.
                let mut quiet = false;
                for i in r.. {
                    if i % sets.len() == r {
                        if quiet {
                            break;
                        }
                        quiet = writing.load(Ordering::SeqCst) == 0;
                    }
                    let set = sets[i % sets.len()];
                    let members: Vec<StoreKey> = set.iter().map(|&m| keys[m].clone()).collect();
                    let epochs = |store: &ModelStore| -> Vec<u64> {
                        members.iter().map(|k| store.epoch_of(k).unwrap()).collect()
                    };
                    let before = epochs(&store);
                    let (dist, cached) = store.partition(&members, 1000, &Revealing, "revealing").unwrap();
                    let after = epochs(&store);
                    assert_eq!(
                        dist.parts().iter().map(|p| p.d).collect::<Vec<_>>(),
                        Distribution::even(1000, set.len()).parts().iter().map(|p| p.d).collect::<Vec<_>>(),
                    );
                    for (rank, &m) in set.iter().enumerate() {
                        let epoch = *table[m]
                            .get(&dist.parts()[rank].t.to_bits())
                            .unwrap_or_else(|| panic!("member {m}: no epoch of its model gives this plan"));
                        assert!(
                            before[rank] <= epoch && epoch <= after[rank],
                            "member {m}: plan (cached: {cached}) computed at epoch {epoch}, \
                             but the call ran between epochs {} and {}",
                            before[rank],
                            after[rank],
                        );
                    }
                    served += 1;
                    hits += u64::from(cached);
                }
                (served, hits)
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    let (served, hits) = readers
        .into_iter()
        .map(|r| r.join().unwrap())
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    assert!(served >= 2 * sets.len() as u64);
    // Quiet models: the same query twice is a hit with the same answer.
    let members: Vec<StoreKey> = keys.clone();
    let first = store.partition(&members, 1000, &Revealing, "revealing").unwrap();
    let again = store.partition(&members, 1000, &Revealing, "revealing").unwrap();
    assert!(again.1, "second identical query over quiet models must hit");
    assert_eq!(first.0, again.0);
    let snap = store.metrics().snapshot();
    assert_eq!(snap.plan_hits + snap.plan_misses, served + 2);
    assert_eq!(snap.plan_hits, hits + u64::from(first.1) + 1);
}
