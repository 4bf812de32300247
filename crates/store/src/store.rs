//! The sharded concurrent model store and its observability counters.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fupermod_core::model::{AkimaModel, Model, Refresh};
use fupermod_core::partition::{Distribution, Partitioner};
use fupermod_core::telemetry::{Counter, Gauge, Registry};
use fupermod_core::Point;

use crate::entry::{EntryConfig, IngestOutcome, ModelEntry};
use crate::plan::{Plan, PlanCache, PlanKey, PlanQuery};
use crate::{StoreError, StoreKey};

/// Configuration of a [`ModelStore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreConfig {
    /// Number of shards the key space is hashed over. More shards
    /// mean less lock contention under concurrent tenants; each shard
    /// is an independently locked hash map.
    pub shards: usize,
    /// Byte budget of the partition-plan cache (LRU-evicted).
    pub plan_budget_bytes: usize,
    /// Statistical configuration applied to new entries.
    pub entry: EntryConfig,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            plan_budget_bytes: 1 << 20,
            entry: EntryConfig::default(),
        }
    }
}

/// Monotonic store counters: model-lookup hits/misses, incremental
/// refresh outcomes, plan-cache hits/misses/evictions. Since PR 10
/// these are handles into the store's live telemetry [`Registry`]
/// (`store_model_lookups_total{result=...}`,
/// `store_refresh_total{outcome=...}`,
/// `store_plan_requests_total{result=...}`,
/// `store_plan_evictions_total`) — the same series `/metrics`
/// exposes, so the `stats` protocol op and the scrape endpoint read
/// one source of truth. Recording stays relaxed-atomic and lock-free.
#[derive(Debug)]
pub struct StoreMetrics {
    model_hits: Counter,
    model_misses: Counter,
    refresh_patched: Counter,
    refresh_rebuilt: Counter,
    refresh_fallbacks: Counter,
    plan_hits: Counter,
    plan_misses: Counter,
    plan_evictions: Counter,
}

/// A point-in-time copy of [`StoreMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreMetricsSnapshot {
    /// Model lookups that found an entry.
    pub model_hits: u64,
    /// Model lookups that found nothing.
    pub model_misses: u64,
    /// Ingests absorbed by patching one spline window.
    pub refresh_patched: u64,
    /// Ingests that rebuilt the model (new size inserted).
    pub refresh_rebuilt: u64,
    /// Ingests that took the outlier-reclassification full-rebuild
    /// fallback.
    pub refresh_fallbacks: u64,
    /// Partition queries answered from the plan cache.
    pub plan_hits: u64,
    /// Partition queries that had to run the partitioner.
    pub plan_misses: u64,
    /// Plans evicted by the LRU byte budget.
    pub plan_evictions: u64,
}

impl StoreMetrics {
    /// Registers the store's counter series in `registry` and returns
    /// the handle bundle. Idempotent per registry.
    fn new(registry: &Registry) -> Self {
        let lookups = "Model lookups by result.";
        let refreshes = "Model refreshes by outcome (incremental patch, rebuild, \
                         outlier-reclassification fallback).";
        let plans = "Partition queries by plan-cache result.";
        Self {
            model_hits: registry.counter("store_model_lookups_total", lookups, &[("result", "hit")]),
            model_misses: registry.counter(
                "store_model_lookups_total",
                lookups,
                &[("result", "miss")],
            ),
            refresh_patched: registry.counter(
                "store_refresh_total",
                refreshes,
                &[("outcome", "patched")],
            ),
            refresh_rebuilt: registry.counter(
                "store_refresh_total",
                refreshes,
                &[("outcome", "rebuilt")],
            ),
            refresh_fallbacks: registry.counter(
                "store_refresh_total",
                refreshes,
                &[("outcome", "fallback")],
            ),
            plan_hits: registry.counter("store_plan_requests_total", plans, &[("result", "hit")]),
            plan_misses: registry.counter("store_plan_requests_total", plans, &[("result", "miss")]),
            plan_evictions: registry.counter(
                "store_plan_evictions_total",
                "Plans evicted by the LRU byte budget.",
                &[],
            ),
        }
    }

    /// Reads all counters at once.
    pub fn snapshot(&self) -> StoreMetricsSnapshot {
        StoreMetricsSnapshot {
            model_hits: self.model_hits.get(),
            model_misses: self.model_misses.get(),
            refresh_patched: self.refresh_patched.get(),
            refresh_rebuilt: self.refresh_rebuilt.get(),
            refresh_fallbacks: self.refresh_fallbacks.get(),
            plan_hits: self.plan_hits.get(),
            plan_misses: self.plan_misses.get(),
            plan_evictions: self.plan_evictions.get(),
        }
    }

    fn count_outcome(&self, outcome: IngestOutcome) {
        let counter = match outcome {
            IngestOutcome::Patched => &self.refresh_patched,
            IngestOutcome::Rebuilt => &self.refresh_rebuilt,
            IngestOutcome::FallbackRebuilt => &self.refresh_fallbacks,
        };
        counter.inc();
    }
}

/// The sharded, concurrently usable model store.
///
/// Keys are hashed (stable FNV-1a) onto `shards` independently locked
/// hash maps, so tenants streaming into different devices do not
/// contend. The partition-plan cache sits beside the shards under its
/// own lock; no operation holds two locks at once.
#[derive(Debug)]
pub struct ModelStore {
    shards: Vec<Mutex<HashMap<StoreKey, ModelEntry>>>,
    plans: Mutex<PlanCache>,
    registry: Arc<Registry>,
    metrics: StoreMetrics,
    config: StoreConfig,
    created: Instant,
    uptime: Gauge,
    entries_gauge: Gauge,
    shard_gauges: Vec<Gauge>,
}

impl Default for ModelStore {
    fn default() -> Self {
        Self::new(StoreConfig::default())
    }
}

impl ModelStore {
    /// Creates a store with the given configuration (`shards` is
    /// clamped to at least 1) and a fresh, always-enabled telemetry
    /// registry of its own.
    pub fn new(config: StoreConfig) -> Self {
        let shards = config.shards.max(1);
        let registry = Arc::new(Registry::new(true));
        let metrics = StoreMetrics::new(&registry);
        let uptime = registry.gauge(
            "uptime_seconds",
            "Seconds since the store (daemon) was created.",
            &[],
        );
        let entries_gauge = registry.gauge("store_entries", "Model entries in the store.", &[]);
        let shard_gauges = (0..shards)
            .map(|i| {
                let shard = i.to_string();
                registry.gauge(
                    "store_shard_entries",
                    "Model entries per shard.",
                    &[("shard", shard.as_str())],
                )
            })
            .collect();
        Self {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            plans: Mutex::new(PlanCache::new(config.plan_budget_bytes)),
            registry,
            metrics,
            config: StoreConfig {
                shards,
                ..config
            },
            created: Instant::now(),
            uptime,
            entries_gauge,
            shard_gauges,
        }
    }

    /// The store's configuration (after clamping).
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// The store's counters.
    pub fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    /// The store's telemetry registry — the single source of truth
    /// behind both the `stats` protocol op and the `/metrics`
    /// exposition endpoint. The serving layer registers its own
    /// request/uptime series here too.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Entry count of every shard, in shard order (feeds the
    /// `store_shard_entries{shard=...}` gauges at scrape time).
    fn shard_sizes(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.lock().expect("store shard poisoned").len())
            .collect()
    }

    /// Refreshes the sampled gauges (`uptime_seconds`,
    /// `store_entries`, `store_shard_entries{shard=...}`) from live
    /// state. Called right before a registry snapshot is taken — by
    /// the `/metrics` endpoint and the `stats` protocol op — so both
    /// read identical, current values.
    pub fn refresh_gauges(&self) {
        self.uptime.set(self.created.elapsed().as_secs_f64());
        let sizes = self.shard_sizes();
        self.entries_gauge.set(sizes.iter().sum::<usize>() as f64);
        for (gauge, size) in self.shard_gauges.iter().zip(sizes) {
            gauge.set(size as f64);
        }
    }

    /// Whether every shard (and the plan cache) can still be locked —
    /// i.e. no mutex has been poisoned by a panicking holder. The
    /// `/readyz` probe.
    pub fn responsive(&self) -> bool {
        !self.shards.iter().any(|s| s.is_poisoned()) && !self.plans.is_poisoned()
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("store shard poisoned").len())
            .sum()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_index(&self, key: &StoreKey) -> usize {
        (key.hash64() % self.shards.len() as u64) as usize
    }

    fn shard(&self, key: &StoreKey) -> &Mutex<HashMap<StoreKey, ModelEntry>> {
        &self.shards[self.shard_index(key)]
    }

    /// Shows `visit` every member's entry (with the member's rank),
    /// shard by shard: each shard lock is taken at most once and never
    /// while another is held. A member's shard is read from its stored
    /// hash, and each member is looked up once.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownKey`] naming the first member, in rank
    /// order, that has no entry.
    fn visit_members(
        &self,
        members: &[StoreKey],
        mut visit: impl FnMut(usize, &ModelEntry),
    ) -> Result<(), StoreError> {
        let mut missing = usize::MAX;
        let mut unvisited = members.len();
        for (home, shard) in self.shards.iter().enumerate() {
            if unvisited == 0 {
                break;
            }
            let mut locked = None;
            for (rank, key) in members.iter().enumerate() {
                if self.shard_index(key) != home {
                    continue;
                }
                let shard =
                    locked.get_or_insert_with(|| shard.lock().expect("store shard poisoned"));
                unvisited -= 1;
                match shard.get(key) {
                    Some(entry) => visit(rank, entry),
                    None => missing = missing.min(rank),
                }
            }
        }
        match members.get(missing) {
            Some(key) => Err(StoreError::UnknownKey(key.to_string())),
            None => Ok(()),
        }
    }

    /// Runs `f` on `key`'s entry, created on first use, under its
    /// shard lock. The key is cloned only when the entry is created.
    fn update_entry<R>(&self, key: &StoreKey, f: impl FnOnce(&mut ModelEntry) -> R) -> R {
        let mut shard = self.shard(key).lock().expect("store shard poisoned");
        let entry = match shard.get_mut(key) {
            Some(entry) => entry,
            None => shard
                .entry(key.clone())
                .or_insert_with(|| ModelEntry::new(self.config.entry)),
        };
        f(entry)
    }

    /// Streams one raw observation into `key`'s entry (created on
    /// first use), refreshing the model incrementally. Returns the
    /// refresh outcome and the entry's new epoch.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError::Ingest`] for invalid observations.
    pub fn ingest_sample(
        &self,
        key: &StoreKey,
        d: u64,
        t: f64,
    ) -> Result<(IngestOutcome, u64), StoreError> {
        let (outcome, epoch) = self.update_entry(key, |entry| {
            entry
                .ingest_sample(d, t)
                .map(|outcome| (outcome, entry.epoch()))
        })?;
        self.metrics.count_outcome(outcome);
        Ok((outcome, epoch))
    }

    /// Absorbs an aggregated point into `key`'s entry (created on
    /// first use) with repetition-weighted merge semantics — the bulk
    /// load path. Returns the refresh kind and the new epoch.
    ///
    /// # Errors
    ///
    /// Propagates entry errors (invalid point, mixed ingestion modes).
    pub fn ingest_point(
        &self,
        key: &StoreKey,
        point: Point,
    ) -> Result<(Refresh, u64), StoreError> {
        let (refresh, epoch) = self.update_entry(key, |entry| {
            entry
                .ingest_point(point)
                .map(|refresh| (refresh, entry.epoch()))
        })?;
        match refresh {
            Refresh::Patched => self.metrics.count_outcome(IngestOutcome::Patched),
            Refresh::Rebuilt => self.metrics.count_outcome(IngestOutcome::Rebuilt),
        }
        Ok((refresh, epoch))
    }

    /// Looks up `key`'s entry, returning its epoch and model points
    /// (`None` when absent). Counts a model hit or miss. The points
    /// are copied after the shard lock is released, from the model
    /// version read under it.
    pub fn lookup(&self, key: &StoreKey) -> Option<(u64, Vec<Point>)> {
        let shard = self.shard(key).lock().expect("store shard poisoned");
        let found = shard
            .get(key)
            .map(|entry| (entry.epoch(), Arc::clone(entry.shared_model())));
        drop(shard);
        match found {
            Some((epoch, model)) => {
                self.metrics.model_hits.inc();
                Some((epoch, model.points().to_vec()))
            }
            None => {
                self.metrics.model_misses.inc();
                None
            }
        }
    }

    /// The epoch of `key`'s entry, if present (no hit/miss counting).
    pub fn epoch_of(&self, key: &StoreKey) -> Option<u64> {
        let shard = self.shard(key).lock().expect("store shard poisoned");
        shard.get(key).map(|e| e.epoch())
    }

    /// Runs `f` against `key`'s entry under the shard lock (tests,
    /// maintenance). `None` when absent.
    pub fn with_entry<R>(&self, key: &StoreKey, f: impl FnOnce(&ModelEntry) -> R) -> Option<R> {
        let shard = self.shard(key).lock().expect("store shard poisoned");
        shard.get(key).map(f)
    }

    /// Partitions `total` units over the member models, answering from
    /// the plan cache when the same query was solved against the same
    /// member epochs. Returns the distribution and whether it came
    /// from cache. A cached answer is bit-identical to recomputation:
    /// the models at those epochs are deterministic, and epochs are
    /// part of the cache key.
    ///
    /// `algorithm` is the cache discriminator for `partitioner` —
    /// callers must pass distinct names for distinct partitioners
    /// (the protocol layer derives both from the same request field).
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownKey`] if any member has no entry;
    /// [`StoreError::Core`] if the partitioner fails.
    pub fn partition(
        &self,
        members: &[StoreKey],
        total: u64,
        partitioner: &dyn Partitioner,
        algorithm: &str,
    ) -> Result<(Distribution, bool), StoreError> {
        let (plan, cached) = self.plan(members, total, partitioner, algorithm)?;
        Ok((plan.dist().clone(), cached))
    }

    /// [`ModelStore::partition`], returning the cached [`Plan`] itself
    /// (distribution plus rendered wire form) instead of a copy of its
    /// distribution.
    pub(crate) fn plan(
        &self,
        members: &[StoreKey],
        total: u64,
        partitioner: &dyn Partitioner,
        algorithm: &str,
    ) -> Result<(Arc<Plan>, bool), StoreError> {
        if members.is_empty() {
            return Err(StoreError::UnknownKey("<empty member list>".to_owned()));
        }
        // Hot path: stamp epochs only — a cache hit never touches a
        // model, and finds its plan without cloning a key.
        let mut epochs = vec![0u64; members.len()];
        self.visit_members(members, |rank, entry| epochs[rank] = entry.epoch())?;
        let query = PlanQuery {
            members,
            epochs: &epochs,
            total,
            algorithm,
        };
        if let Some(plan) = self
            .plans
            .lock()
            .expect("plan cache poisoned")
            .get_query(&query)
        {
            self.metrics.plan_hits.inc();
            return Ok((plan, true));
        }
        self.metrics.plan_misses.inc();
        // Miss: re-read each member, taking one reference to its model
        // and re-stamping its (possibly advanced) epoch under the same
        // lock, so the plan is cached under exactly the epochs of the
        // models it was computed from. The solve reads those versions
        // outside every lock; an ingest meanwhile refreshes a copy
        // (`ModelEntry` is copy-on-write).
        let mut models: Vec<Option<Arc<AkimaModel>>> = vec![None; members.len()];
        self.visit_members(members, |rank, entry| {
            epochs[rank] = entry.epoch();
            models[rank] = Some(Arc::clone(entry.shared_model()));
        })?;
        let refs: Vec<&dyn Model> = models
            .iter()
            .map(|m| m.as_deref().expect("visit_members saw every rank") as &dyn Model)
            .collect();
        let dist = partitioner.partition(total, &refs)?;
        // Let go of the versions before caching the plan: from here on
        // an ingest refreshes its model in place again.
        drop(models);
        let plan = Arc::new(Plan::new(dist));
        let key = PlanKey {
            members: members.iter().cloned().zip(epochs).collect(),
            total,
            algorithm: algorithm.to_owned(),
        };
        let evicted = self
            .plans
            .lock()
            .expect("plan cache poisoned")
            .insert(key, Arc::clone(&plan));
        if evicted > 0 {
            self.metrics.plan_evictions.add(evicted);
        }
        Ok((plan, false))
    }

    /// Plan-cache occupancy `(plans, bytes, budget)` for the `stats`
    /// protocol op.
    pub fn plan_cache_stats(&self) -> (usize, usize, usize) {
        let plans = self.plans.lock().expect("plan cache poisoned");
        (plans.len(), plans.bytes(), plans.budget())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fupermod_core::partition::GeometricPartitioner;

    fn fed_store() -> (ModelStore, Vec<StoreKey>) {
        let store = ModelStore::new(StoreConfig::default());
        let keys = vec![
            StoreKey::new("dev0", "gemm", "default"),
            StoreKey::new("dev1", "gemm", "default"),
        ];
        for (r, key) in keys.iter().enumerate() {
            for d in [100u64, 400, 900] {
                let t = (d as f64) * 1e-3 * (r + 1) as f64;
                store.ingest_sample(key, d, t).unwrap();
            }
        }
        (store, keys)
    }

    #[test]
    fn sharding_routes_consistently() {
        let (store, keys) = fed_store();
        assert_eq!(store.len(), 2);
        assert_eq!(store.epoch_of(&keys[0]), Some(3));
        assert!(store.lookup(&keys[0]).is_some());
        assert!(store.lookup(&StoreKey::new("nope", "gemm", "default")).is_none());
        let snap = store.metrics().snapshot();
        assert_eq!(snap.model_hits, 1);
        assert_eq!(snap.model_misses, 1);
    }

    #[test]
    fn partition_caches_and_epoch_invalidates() {
        let (store, keys) = fed_store();
        let part = GeometricPartitioner::default();
        let (d1, cached1) = store.partition(&keys, 1000, &part, "geometric").unwrap();
        assert!(!cached1);
        let (d2, cached2) = store.partition(&keys, 1000, &part, "geometric").unwrap();
        assert!(cached2);
        assert_eq!(d1, d2);
        // Epoch bump on one member invalidates the dependent plan.
        store.ingest_sample(&keys[0], 100, 0.11).unwrap();
        let (_, cached3) = store.partition(&keys, 1000, &part, "geometric").unwrap();
        assert!(!cached3, "stale plan served after epoch advance");
        let snap = store.metrics().snapshot();
        assert_eq!(snap.plan_hits, 1);
        assert_eq!(snap.plan_misses, 2);
    }
}
