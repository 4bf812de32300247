//! The partition-plan cache: memoized `Partitioner` results.
//!
//! A plan is keyed by the member models' `(StoreKey, epoch)` pairs
//! plus the total workload and the algorithm name. Epochs are *part
//! of the key*: when any member model absorbs an observation its
//! epoch advances, every dependent key changes, and the stale plan
//! can never be served again — invalidation by construction, no
//! notification machinery. Stale entries age out through the LRU
//! eviction that also enforces the configurable byte budget.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

use fupermod_core::partition::Distribution;

use crate::StoreKey;

/// Cache key of one memoized partition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// The member models and the epoch each was at, in rank order.
    pub members: Vec<(StoreKey, u64)>,
    /// Total workload in computation units.
    pub total: u64,
    /// Partitioning algorithm name (`even`, `constant`, `geometric`,
    /// `numerical`).
    pub algorithm: String,
}

impl PlanKey {
    fn approx_bytes(&self) -> usize {
        let members: usize = self
            .members
            .iter()
            .map(|(k, _)| k.approx_bytes() + 8)
            .sum();
        members + self.algorithm.len() + 48
    }
}

/// A memoized partition and, once it has been answered over the
/// wire, the rendered tail of that answer — identical on every hit,
/// so it is produced once and copied from then on.
#[derive(Debug)]
pub struct Plan {
    dist: Distribution,
    wire: OnceLock<String>,
}

impl Plan {
    /// A plan that has not been rendered yet.
    pub fn new(dist: Distribution) -> Self {
        Self {
            dist,
            wire: OnceLock::new(),
        }
    }

    /// The memoized distribution.
    pub fn dist(&self) -> &Distribution {
        &self.dist
    }

    /// The plan's wire form: `render`ed by the first caller, kept for
    /// every later one.
    pub fn wire(&self, render: impl FnOnce(&Distribution) -> String) -> &str {
        self.wire.get_or_init(|| render(&self.dist))
    }
}

#[derive(Debug)]
struct CachedPlan {
    plan: Arc<Plan>,
    bytes: usize,
    last_used: u64,
}

/// An LRU plan cache bounded by an approximate byte budget.
#[derive(Debug)]
pub struct PlanCache {
    budget: usize,
    bytes: usize,
    tick: u64,
    map: HashMap<Arc<PlanKey>, CachedPlan>,
    /// Recency index: `last_used` tick → the map's own key (shared,
    /// not copied). Ticks are unique (one per get/insert), so this is
    /// a faithful LRU order.
    lru: BTreeMap<u64, Arc<PlanKey>>,
}

/// Approximate cached size of one plan: key strings + per-member
/// epoch + one `(d, t)` pair per rank + fixed bookkeeping. The exact
/// constants matter only for the budget arithmetic being stable and
/// testable, not for matching the allocator byte-for-byte: a plan's
/// rendered wire form (a bounded multiple of the 16 B per rank charged
/// here, ≈ 1.7× in practice — `docs/SERVE.md` §5) is not counted.
pub fn plan_cost(key: &PlanKey, dist: &Distribution) -> usize {
    key.approx_bytes() + dist.parts().len() * 16 + 64
}

impl PlanCache {
    /// An empty cache with the given byte budget.
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            budget: budget_bytes,
            bytes: 0,
            tick: 0,
            map: HashMap::new(),
            lru: BTreeMap::new(),
        }
    }

    /// Cached plans currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate bytes currently held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Looks up a plan, refreshing its recency on hit: one hash, one
    /// key comparison and one move of the index entry to a new tick.
    pub fn get(&mut self, key: &PlanKey) -> Option<Arc<Plan>> {
        self.tick += 1;
        let cached = self.map.get_mut(key)?;
        let shared = self.lru.remove(&cached.last_used).expect("index is consistent");
        cached.last_used = self.tick;
        self.lru.insert(self.tick, shared);
        Some(Arc::clone(&cached.plan))
    }

    /// Inserts (or replaces) a plan, then evicts least-recently-used
    /// plans until the budget holds again. Returns how many plans
    /// were evicted. A plan larger than the whole budget is not
    /// cached at all (and evicts nothing). The key is hashed once for
    /// the insert (and each victim once for its removal).
    pub fn insert(&mut self, key: PlanKey, plan: Arc<Plan>) -> u64 {
        let bytes = plan_cost(&key, plan.dist());
        if bytes > self.budget {
            return 0;
        }
        self.tick += 1;
        let tick = self.tick;
        let cached = CachedPlan {
            plan,
            bytes,
            last_used: tick,
        };
        match self.map.entry(Arc::new(key)) {
            Entry::Occupied(mut slot) => {
                // The map keeps its own key; the index entry moves to
                // the new tick, sharing it as before.
                let old = std::mem::replace(slot.get_mut(), cached);
                let shared = self
                    .lru
                    .remove(&old.last_used)
                    .expect("index is consistent");
                self.lru.insert(tick, shared);
                self.bytes -= old.bytes;
            }
            Entry::Vacant(slot) => {
                self.lru.insert(tick, Arc::clone(slot.key()));
                slot.insert(cached);
            }
        }
        self.bytes += bytes;
        let mut evicted = 0;
        while self.bytes > self.budget {
            let (_, victim) = self.lru.pop_first().expect("bytes > 0 implies entries");
            let cached = self.map.remove(&victim).expect("index is consistent");
            self.bytes -= cached.bytes;
            evicted += 1;
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(name: &str, epoch: u64, total: u64) -> PlanKey {
        PlanKey {
            members: vec![(StoreKey::new(name, "gemm", "default"), epoch)],
            total,
            algorithm: "geometric".to_owned(),
        }
    }

    fn dist(p: usize) -> Arc<Plan> {
        Arc::new(Plan::new(Distribution::even(1000, p)))
    }

    #[test]
    fn get_after_insert_hits_and_epoch_change_misses() {
        let mut c = PlanCache::new(1 << 20);
        c.insert(key("a", 1, 1000), dist(4));
        assert!(c.get(&key("a", 1, 1000)).is_some());
        assert!(c.get(&key("a", 2, 1000)).is_none(), "epoch advanced");
        assert!(c.get(&key("a", 1, 2000)).is_none(), "different total");
    }

    #[test]
    fn lru_evicts_oldest_and_respects_budget() {
        let one = plan_cost(&key("a", 1, 1000), dist(4).dist());
        // Room for exactly two plans.
        let mut c = PlanCache::new(2 * one);
        assert_eq!(c.insert(key("a", 1, 1000), dist(4)), 0);
        assert_eq!(c.insert(key("b", 1, 1000), dist(4)), 0);
        // Touch "a" so "b" becomes the LRU victim.
        assert!(c.get(&key("a", 1, 1000)).is_some());
        assert_eq!(c.insert(key("c", 1, 1000), dist(4)), 1);
        assert!(c.bytes() <= c.budget());
        assert!(c.get(&key("b", 1, 1000)).is_none(), "LRU victim evicted");
        assert!(c.get(&key("a", 1, 1000)).is_some());
        assert!(c.get(&key("c", 1, 1000)).is_some());
    }

    #[test]
    fn oversized_plan_is_not_cached() {
        let mut c = PlanCache::new(8);
        assert_eq!(c.insert(key("a", 1, 1000), dist(4)), 0);
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn reinsert_replaces_without_leaking_bytes() {
        let mut c = PlanCache::new(1 << 20);
        c.insert(key("a", 1, 1000), dist(4));
        let b1 = c.bytes();
        c.insert(key("a", 1, 1000), dist(4));
        assert_eq!(c.bytes(), b1);
        assert_eq!(c.len(), 1);
    }
}
