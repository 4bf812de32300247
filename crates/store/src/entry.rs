//! One incrementally-maintained device model.
//!
//! A [`ModelEntry`] owns the raw per-size observation samples
//! ([`IncrementalStats`] per problem size) *and* the Akima model
//! derived from them, and keeps the two consistent under streaming
//! ingestion. The maintained invariant — pinned by the
//! `prefix_identity` proptest suite — is:
//!
//! > After every ingested observation, the entry's model is
//! > **bit-identical** to [`ModelEntry::cold_rebuild`] over the same
//! > sample stream.
//!
//! The cheap path gets there incrementally: a new observation of an
//! already-known size re-derives that one size's summary point from
//! its updated statistics and patches the matching Akima spline node
//! (`AkimaSpline::set_y`, O(1) and itself bit-identical to a rebuild
//! by contract). Two events force the O(n) full rebuild instead: a
//! brand-new size (a node insertion re-indexes the spline), and an
//! observation that *reclassifies* earlier samples' outlier status —
//! the patch-locality assumption ("only this size's point moved
//! because of this sample alone") no longer describes what happened,
//! so the conservative fallback re-derives everything. Both paths
//! land on the same bits; the distinction is work, not meaning.

use std::collections::BTreeMap;
use std::sync::Arc;

use fupermod_core::model::{AkimaModel, Model, Refresh};
use fupermod_core::Point;
use fupermod_num::stats::IncrementalStats;

use crate::StoreError;

/// Statistical configuration of an entry, fixed at creation: the
/// MAD outlier-rejection threshold and the confidence level of the
/// per-point confidence intervals (mirroring
/// `Benchmark::with_outlier_rejection` and `Precision`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntryConfig {
    /// Samples farther than `outlier_k` MADs from the median are
    /// rejected when deriving a size's summary point.
    pub outlier_k: f64,
    /// Confidence level of each point's `ci` half-width.
    pub confidence: f64,
}

impl Default for EntryConfig {
    fn default() -> Self {
        Self {
            outlier_k: 5.0,
            confidence: 0.95,
        }
    }
}

/// How an ingested observation was absorbed (the store's refresh
/// counters aggregate these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// Known size, no reclassification: one spline window patched.
    Patched,
    /// New size: the model was rebuilt (node insertion).
    Rebuilt,
    /// The observation reclassified earlier samples' outlier status:
    /// full-rebuild fallback.
    FallbackRebuilt,
}

/// One device model plus the samples it is derived from.
///
/// The model is shared copy-on-write: a partition solve reads it
/// through a reference taken under the shard lock and keeps that
/// version alive outside the lock. An incremental refresh goes through
/// [`Arc::make_mut`], so it copies the model only while such a solve
/// (or a clone of the entry) still holds the previous version; a
/// rebuild publishes a fresh `Arc`.
#[derive(Debug, Clone, Default)]
pub struct ModelEntry {
    samples: BTreeMap<u64, IncrementalStats>,
    model: Arc<AkimaModel>,
    epoch: u64,
    config: EntryConfig,
}

impl ModelEntry {
    /// An empty entry with the given statistical configuration.
    pub fn new(config: EntryConfig) -> Self {
        Self {
            samples: BTreeMap::new(),
            model: Arc::default(),
            epoch: 0,
            config,
        }
    }

    /// The entry's epoch: advances on every successful mutation.
    /// Plan-cache keys embed it, so an advance invalidates every
    /// dependent cached partition automatically.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The maintained model.
    pub fn model(&self) -> &AkimaModel {
        &self.model
    }

    /// The maintained model as the shared version a solve holds on to.
    pub(crate) fn shared_model(&self) -> &Arc<AkimaModel> {
        &self.model
    }

    /// The entry's statistical configuration.
    pub fn config(&self) -> EntryConfig {
        self.config
    }

    /// Number of distinct problem sizes observed.
    pub fn sizes(&self) -> usize {
        self.samples.len()
    }

    /// Total observations ingested through the sample path.
    #[cfg(test)]
    fn observations(&self) -> u64 {
        self.samples.values().map(|s| s.count()).sum()
    }

    /// Derives the summary [`Point`] for one size from its samples:
    /// outlier-filtered mean, surviving repetition count, and the
    /// configured confidence-interval half-width. Both the
    /// incremental path and [`Self::cold_rebuild`] go through this
    /// function, so they cannot diverge on derivation arithmetic.
    fn derive_point(d: u64, stats: &IncrementalStats, config: EntryConfig) -> Point {
        let (kept, _) = stats.filtered(config.outlier_k);
        let ci = kept
            .confidence_interval(config.confidence)
            .map(|ci| ci.half_width)
            .unwrap_or(0.0);
        Point {
            d,
            t: kept.mean(),
            reps: kept.count() as u32,
            ci,
        }
    }

    fn validate(d: u64, t: f64) -> Result<(), StoreError> {
        if d == 0 {
            return Err(StoreError::Ingest(
                "zero-size observations carry no information (t(0) = 0 by definition)"
                    .to_owned(),
            ));
        }
        if !t.is_finite() || t <= 0.0 {
            return Err(StoreError::Ingest(format!(
                "observation time must be finite and positive, got d={d}, t={t}"
            )));
        }
        Ok(())
    }

    /// Streams one raw `(size, time)` observation into the entry and
    /// refreshes the model — incrementally when it can, with the
    /// full-rebuild fallback when the observation changed the outlier
    /// classification of earlier samples. Advances the epoch.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Ingest`] for `d == 0`, a non-finite /
    /// non-positive `t`, or an entry that was bulk-loaded with
    /// aggregated points (the reclassification fallback rebuilds from
    /// raw samples only, which would silently drop the loaded points
    /// — the mirror of the guard in [`Self::ingest_point`]); the
    /// entry is unchanged on error.
    pub fn ingest_sample(&mut self, d: u64, t: f64) -> Result<IngestOutcome, StoreError> {
        Self::validate(d, t)?;
        if self.samples.is_empty() && !self.model.points().is_empty() {
            return Err(StoreError::Ingest(
                "entry was bulk-loaded with aggregated points; raw samples would be \
                 dropped on the next model rebuild"
                    .to_owned(),
            ));
        }
        let k = self.config.outlier_k;
        let is_new_size = !self.samples.contains_key(&d);
        let stats = self.samples.entry(d).or_default();
        let reclassified = stats.push_detecting_reclassification(t, k);
        let outcome = if reclassified {
            self.model = Arc::new(self.rebuild_model()?);
            IngestOutcome::FallbackRebuilt
        } else {
            let point = Self::derive_point(d, &self.samples[&d], self.config);
            match Arc::make_mut(&mut self.model).set_point(point)? {
                Refresh::Patched => IngestOutcome::Patched,
                Refresh::Rebuilt => IngestOutcome::Rebuilt,
            }
        };
        debug_assert!(
            !is_new_size || outcome != IngestOutcome::Patched,
            "a new size cannot take the patch path"
        );
        self.epoch += 1;
        Ok(outcome)
    }

    /// [`Self::ingest_sample`] with the incremental machinery switched
    /// off: pushes the observation, then always rebuilds the model
    /// from scratch. This *is* the reference the incremental path is
    /// measured and tested against — the `prefix_identity` suite
    /// asserts bitwise equality between the two at every prefix.
    pub fn ingest_sample_rebuilding(&mut self, d: u64, t: f64) -> Result<(), StoreError> {
        Self::validate(d, t)?;
        if self.samples.is_empty() && !self.model.points().is_empty() {
            return Err(StoreError::Ingest(
                "entry was bulk-loaded with aggregated points; raw samples would be \
                 dropped on the next model rebuild"
                    .to_owned(),
            ));
        }
        self.samples.entry(d).or_default().push(t);
        self.model = Arc::new(self.rebuild_model()?);
        self.epoch += 1;
        Ok(())
    }

    /// Absorbs an externally-aggregated [`Point`] (repetition-weighted
    /// merge, exactly like `Model::update` / `io::load_into_model`) and
    /// refreshes incrementally. Advances the epoch.
    ///
    /// This is the daemon's bulk-load path: replaying a `*.points`
    /// file through it yields a model bit-identical to
    /// `load_into_model` on the offline CLI path (the `check.sh` smoke
    /// gate diffs the two). Pre-aggregated points do not enter the
    /// raw sample statistics, so [`Self::cold_rebuild`]'s sample-path
    /// invariant only covers entries fed via [`Self::ingest_sample`];
    /// mixing both paths in one entry is rejected.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Ingest`] when the entry already holds raw
    /// samples, or [`StoreError::Core`] for an invalid point.
    pub fn ingest_point(&mut self, point: Point) -> Result<Refresh, StoreError> {
        if !self.samples.is_empty() {
            return Err(StoreError::Ingest(
                "entry already maintains raw samples; aggregated points would desynchronise them"
                    .to_owned(),
            ));
        }
        let refresh = Arc::make_mut(&mut self.model).absorb(point)?;
        self.epoch += 1;
        Ok(refresh)
    }

    /// Builds a fresh model from the raw samples, from scratch: one
    /// derived point per size, inserted in ascending size order into a
    /// new [`AkimaModel`]. This is the definition the incremental
    /// path is pinned to.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Core`] if a derived point is invalid
    /// (cannot happen for observations accepted by ingestion).
    pub fn cold_rebuild(&self) -> Result<AkimaModel, StoreError> {
        self.rebuild_model()
    }

    fn rebuild_model(&self) -> Result<AkimaModel, StoreError> {
        let mut model = AkimaModel::new();
        for (&d, stats) in &self.samples {
            model.update(Self::derive_point(d, stats, self.config))?;
        }
        Ok(model)
    }

    /// Approximate heap footprint of the entry (samples + model), for
    /// capacity planning and the `stats` protocol op.
    pub fn approx_bytes(&self) -> usize {
        let samples: usize = self
            .samples
            .values()
            // arrival + sorted copies of each f64 sample, plus map node
            .map(|s| 16 * s.count() as usize + 64)
            .sum();
        let model = std::mem::size_of_val::<[Point]>(self.model.points()) * 2;
        samples + model + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_rejects_invalid_observations() {
        let mut e = ModelEntry::new(EntryConfig::default());
        assert!(e.ingest_sample(0, 1.0).is_err());
        assert!(e.ingest_sample(10, 0.0).is_err());
        assert!(e.ingest_sample(10, f64::NAN).is_err());
        assert_eq!(e.epoch(), 0);
        assert_eq!(e.sizes(), 0);
    }

    #[test]
    fn epoch_advances_on_every_ingest() {
        let mut e = ModelEntry::new(EntryConfig::default());
        e.ingest_sample(100, 1.0).unwrap();
        e.ingest_sample(100, 1.1).unwrap();
        e.ingest_sample(200, 2.0).unwrap();
        assert_eq!(e.epoch(), 3);
        assert_eq!(e.sizes(), 2);
        assert_eq!(e.observations(), 3);
    }

    #[test]
    fn outcome_classification_matches_paths() {
        let mut e = ModelEntry::new(EntryConfig::default());
        assert_eq!(e.ingest_sample(100, 1.0).unwrap(), IngestOutcome::Rebuilt);
        assert_eq!(e.ingest_sample(200, 2.0).unwrap(), IngestOutcome::Rebuilt);
        assert_eq!(e.ingest_sample(100, 1.05).unwrap(), IngestOutcome::Patched);
    }

    #[test]
    fn mixing_sample_and_point_paths_is_rejected() {
        let mut e = ModelEntry::new(EntryConfig::default());
        e.ingest_sample(100, 1.0).unwrap();
        assert!(e.ingest_point(Point::single(200, 2.0)).is_err());
        let mut p = ModelEntry::new(EntryConfig::default());
        p.ingest_point(Point::single(200, 2.0)).unwrap();
        assert_eq!(p.epoch(), 1);
        // The mirror direction: raw samples into a bulk-loaded entry
        // would be silently dropped by the next rebuild, so both the
        // incremental and the reference ingest path refuse them.
        assert!(p.ingest_sample(100, 1.0).is_err());
        assert!(p.ingest_sample_rebuilding(100, 1.0).is_err());
        assert_eq!(p.epoch(), 1, "rejected ingests must not advance the epoch");
        assert_eq!(p.model().points().len(), 1);
    }

    fn assert_bits_equal(a: &AkimaModel, b: &AkimaModel, ctx: &str) {
        assert_eq!(a, b, "{ctx}: structural mismatch");
        for (p, q) in a.points().iter().zip(b.points()) {
            assert_eq!(
                (p.d, p.t.to_bits(), p.reps, p.ci.to_bits()),
                (q.d, q.t.to_bits(), q.reps, q.ci.to_bits()),
                "{ctx}: point"
            );
        }
        for i in 0..64 {
            let x = 9.1 * i as f64;
            assert_eq!(
                a.time(x).map(f64::to_bits),
                b.time(x).map(f64::to_bits),
                "{ctx}: time({x})"
            );
        }
    }

    #[test]
    fn a_held_model_is_never_written_through() {
        let mut e = ModelEntry::new(EntryConfig {
            outlier_k: 3.0,
            confidence: 0.95,
        });
        // The `prefix_identity` fallback stream: new sizes, patches
        // and outlier reclassifications.
        let stream = [1.0, 1.1, 0.9, 1.05, 50.0, 48.0, 52.0, 49.0, 51.0, 50.5];
        let ingests = std::iter::once((500, 1.0)).chain(stream.map(|t| (100, t)));
        let mut seen = Vec::new();
        for (i, (d, t)) in ingests.enumerate() {
            let held = Arc::clone(e.shared_model());
            let before = e.cold_rebuild().unwrap();
            let outcome = e.ingest_sample(d, t).unwrap();
            let ctx = format!("ingest {i} ({outcome:?})");
            assert_bits_equal(&held, &before, &ctx);
            assert_bits_equal(e.model(), &e.cold_rebuild().unwrap(), &ctx);
            seen.push(outcome);
        }
        for kind in [
            IngestOutcome::Patched,
            IngestOutcome::Rebuilt,
            IngestOutcome::FallbackRebuilt,
        ] {
            assert!(seen.contains(&kind), "{kind:?} never happened: {seen:?}");
        }

        // Nobody else holds the model: a patch refreshes it in place.
        let mine = Arc::as_ptr(e.shared_model());
        assert_eq!(e.ingest_sample(500, 1.01).unwrap(), IngestOutcome::Patched);
        assert!(
            std::ptr::eq(mine, Arc::as_ptr(e.shared_model())),
            "uncontended patch copied"
        );

        // The bulk-load path absorbs copy-on-write too.
        let mut p = ModelEntry::new(EntryConfig::default());
        p.ingest_point(Point::single(100, 1.0)).unwrap();
        p.ingest_point(Point::single(200, 2.0)).unwrap();
        let held = Arc::clone(p.shared_model());
        let before = AkimaModel::clone(&held);
        assert_eq!(
            p.ingest_point(Point::single(100, 1.2)).unwrap(),
            Refresh::Patched
        );
        assert_bits_equal(&held, &before, "absorb");
        assert_ne!(p.model(), &before, "the absorb changed nothing");
    }
}
