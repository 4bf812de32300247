//! The partition-plan cache: memoized `Partitioner` results.
//!
//! A plan is keyed by the member models' `(StoreKey, epoch)` pairs
//! plus the total workload and the algorithm name. Epochs are *part
//! of the key*: when any member model absorbs an observation its
//! epoch advances, every dependent key changes, and the stale plan
//! can never be served again — invalidation by construction, no
//! notification machinery. Stale entries age out through the LRU
//! eviction that also enforces the configurable byte budget.
//!
//! The cache is indexed by a 64-bit digest of the key, folded from
//! each member's stored [`StoreKey::hash64`] and epoch, the total and
//! the algorithm, so a lookup walks no string and clones no key. The
//! digest only finds the slot: a plan is served only after the slot's
//! full key — every member, every epoch, the total and the algorithm —
//! compares equal to the request. Two keys with one digest share one
//! slot: a lookup of the other is a miss, and its insert replaces the
//! entry there.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

use fupermod_core::partition::Distribution;

use crate::key::{fnv1a, FNV_OFFSET};
use crate::StoreKey;

/// Cache key of one memoized partition.
#[derive(Debug, Clone, PartialEq, Eq)]
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

    fn digest(&self) -> u64 {
        digest(
            self.members.iter().map(|(key, epoch)| (key, *epoch)),
            self.total,
            &self.algorithm,
        )
    }
}

/// A [`PlanKey`] borrowed from a request: the members and their
/// epochs side by side, nothing cloned.
#[derive(Debug)]
pub(crate) struct PlanQuery<'a> {
    pub(crate) members: &'a [StoreKey],
    pub(crate) epochs: &'a [u64],
    pub(crate) total: u64,
    pub(crate) algorithm: &'a str,
}

impl PlanQuery<'_> {
    fn digest(&self) -> u64 {
        digest(
            self.members.iter().zip(self.epochs.iter().copied()),
            self.total,
            self.algorithm,
        )
    }

    /// Whether `key` is this query, compared in full.
    fn is(&self, key: &PlanKey) -> bool {
        key.total == self.total
            && key.algorithm == self.algorithm
            && key.members.len() == self.members.len()
            && key
                .members
                .iter()
                .zip(self.members.iter().zip(self.epochs))
                .all(|((k, e), (key, epoch))| e == epoch && k == key)
    }
}

/// Folds one word into a digest: rotate, xor, multiply by an odd
/// constant, so every input bit reaches the high bits and order
/// matters.
fn fold(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// The slot digest of a plan key: the members' stored hashes and
/// epochs, the total and the algorithm name's FNV-1a, folded.
fn digest<'k>(
    members: impl Iterator<Item = (&'k StoreKey, u64)>,
    total: u64,
    algorithm: &str,
) -> u64 {
    let mut h = fold(fnv1a(FNV_OFFSET, algorithm.as_bytes()), total);
    for (key, epoch) in members {
        h = fold(fold(h, key.hash64()), epoch);
    }
    h
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
    key: PlanKey,
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
    /// Slot digest → the plan cached there, with its full key.
    map: HashMap<u64, CachedPlan>,
    /// Recency index: `last_used` tick → slot digest. Ticks are unique
    /// (one per get/insert), so this is a faithful LRU order.
    lru: BTreeMap<u64, u64>,
    /// Masks every digest; all ones outside tests, which clear it to
    /// send different keys to one slot.
    #[cfg(test)]
    slot_mask: u64,
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
            #[cfg(test)]
            slot_mask: u64::MAX,
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

    fn slot(&self, digest: u64) -> u64 {
        #[cfg(test)]
        let digest = digest & self.slot_mask;
        digest
    }

    /// Looks up a plan, refreshing its recency on hit.
    pub fn get(&mut self, key: &PlanKey) -> Option<Arc<Plan>> {
        self.find(key.digest(), |cached| cached == key)
    }

    /// [`PlanCache::get`] for a borrowed request: one digest over the
    /// stored member hashes, one full comparison with the slot's key,
    /// and one move of the index entry to a new tick.
    pub(crate) fn get_query(&mut self, query: &PlanQuery<'_>) -> Option<Arc<Plan>> {
        self.find(query.digest(), |cached| query.is(cached))
    }

    fn find(&mut self, digest: u64, is_key: impl FnOnce(&PlanKey) -> bool) -> Option<Arc<Plan>> {
        self.tick += 1;
        let slot = self.slot(digest);
        let cached = self
            .map
            .get_mut(&slot)
            .filter(|cached| is_key(&cached.key))?;
        self.lru
            .remove(&cached.last_used)
            .expect("index is consistent");
        cached.last_used = self.tick;
        self.lru.insert(self.tick, slot);
        Some(Arc::clone(&cached.plan))
    }

    /// Inserts (or replaces) a plan, then evicts least-recently-used
    /// plans until the budget holds again. Returns how many plans
    /// were evicted. A plan larger than the whole budget is not
    /// cached at all (and evicts nothing). A plan whose slot holds
    /// another key (a digest collision) replaces it, and that counts
    /// as an eviction.
    pub fn insert(&mut self, key: PlanKey, plan: Arc<Plan>) -> u64 {
        let bytes = plan_cost(&key, plan.dist());
        if bytes > self.budget {
            return 0;
        }
        self.tick += 1;
        let tick = self.tick;
        let slot = self.slot(key.digest());
        let cached = CachedPlan {
            key,
            plan,
            bytes,
            last_used: tick,
        };
        let mut evicted = 0;
        match self.map.entry(slot) {
            Entry::Occupied(mut occupied) => {
                let old = std::mem::replace(occupied.get_mut(), cached);
                self.lru
                    .remove(&old.last_used)
                    .expect("index is consistent");
                self.bytes -= old.bytes;
                // A different key lost its plan: that is an eviction.
                evicted += u64::from(old.key != occupied.get().key);
            }
            Entry::Vacant(vacant) => {
                vacant.insert(cached);
            }
        }
        self.lru.insert(tick, slot);
        self.bytes += bytes;
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

    /// Every key lands in slot 0: a digest match is all the keys share.
    #[test]
    fn colliding_keys_never_get_each_others_plans() {
        let (a, b) = (key("a", 1, 1000), key("b", 1, 1000));
        let (plan_a, plan_b) = (dist(4), dist(3));
        let (cost_a, cost_b) = (plan_cost(&a, plan_a.dist()), plan_cost(&b, plan_b.dist()));
        let mut c = PlanCache::new(1 << 20);
        c.slot_mask = 0;
        let consistent = |c: &PlanCache| {
            assert_eq!(c.lru.len(), c.map.len());
            for (tick, slot) in &c.lru {
                assert_eq!(c.map[slot].last_used, *tick);
            }
            assert_eq!(c.bytes(), c.map.values().map(|p| p.bytes).sum::<usize>());
        };

        assert_eq!(c.insert(a.clone(), Arc::clone(&plan_a)), 0);
        assert!(c.get(&b).is_none(), "b must not get a's plan");
        consistent(&c);
        let got = c.get(&a).expect("a is cached");
        assert!(Arc::ptr_eq(&got, &plan_a));
        // b takes the slot: a's plan is evicted, never served to b.
        assert_eq!(c.insert(b.clone(), Arc::clone(&plan_b)), 1);
        assert_eq!((c.len(), c.bytes()), (1, cost_b));
        consistent(&c);
        assert!(c.get(&a).is_none(), "a must not get b's plan");
        assert!(Arc::ptr_eq(&c.get(&b).expect("b is cached"), &plan_b));
        // Re-inserting b's own key replaces it in place: no eviction.
        assert_eq!(c.insert(b.clone(), Arc::clone(&plan_b)), 0);
        assert_eq!((c.len(), c.bytes()), (1, cost_b));
        consistent(&c);

        // Under a budget one plan wide, eviction and collision agree.
        let mut c = PlanCache::new(cost_a.max(cost_b));
        c.slot_mask = 0;
        assert_eq!(c.insert(a.clone(), Arc::clone(&plan_a)), 0);
        assert_eq!(c.insert(b.clone(), Arc::clone(&plan_b)), 1);
        assert_eq!((c.len(), c.bytes()), (1, cost_b));
        consistent(&c);
        assert!(c.get(&a).is_none());
        assert!(Arc::ptr_eq(&c.get(&b).expect("b is cached"), &plan_b));
        consistent(&c);
    }

    #[test]
    fn a_query_hits_only_its_own_key() {
        let mut c = PlanCache::new(1 << 20);
        c.slot_mask = 0;
        let stored = key("a", 1, 1000);
        let plan = dist(4);
        c.insert(stored.clone(), Arc::clone(&plan));
        let members = [StoreKey::new("a", "gemm", "default")];
        let query = |epochs: &'static [u64], total, algorithm| PlanQuery {
            members: &members,
            epochs,
            total,
            algorithm,
        };
        assert!(Arc::ptr_eq(
            &c.get_query(&query(&[1], 1000, "geometric")).unwrap(),
            &plan
        ));
        assert!(
            c.get_query(&query(&[2], 1000, "geometric")).is_none(),
            "epoch"
        );
        assert!(
            c.get_query(&query(&[1], 2000, "geometric")).is_none(),
            "total"
        );
        assert!(
            c.get_query(&query(&[1], 1000, "numerical")).is_none(),
            "algorithm"
        );
        let other = [StoreKey::new("b", "gemm", "default")];
        let query = PlanQuery {
            members: &other,
            epochs: &[1],
            total: 1000,
            algorithm: "geometric",
        };
        assert!(c.get_query(&query).is_none(), "member");
        // Unmasked, the query and the key it stands for share a digest.
        assert_eq!(
            PlanQuery {
                members: &members,
                epochs: &[1],
                total: 1000,
                algorithm: "geometric"
            }
            .digest(),
            stored.digest()
        );
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
