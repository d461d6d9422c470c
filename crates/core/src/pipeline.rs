//! The end-to-end DLInfMA pipeline (Figure 3).
//!
//! Wires the two components together: location candidate generation
//! (stay-point extraction → candidate pool → retrieval) and delivery
//! location discovery (feature extraction → LocMatcher). This is the public
//! API a downstream user drives:
//!
//! ```
//! use dlinfma_core::{DlInfMa, DlInfMaConfig};
//! use dlinfma_synth::{generate, spatial_split, Preset, Scale};
//!
//! let (_, dataset) = generate(Preset::DowBJ, Scale::Tiny, 7);
//! let split = spatial_split(&dataset, 0.6, 0.2);
//!
//! let mut dlinfma = DlInfMa::prepare(&dataset, DlInfMaConfig::fast());
//! dlinfma.label_from_dataset(&dataset);
//! dlinfma.train(&split.train, &split.val);
//! let inferred = dlinfma.infer(split.test[0]);
//! assert!(inferred.is_some());
//! ```

use crate::candidates::CandidatePool;
use crate::engine::Engine;
use crate::features::{AddressSample, FeatureConfig};
use crate::locmatcher::{LocMatcher, LocMatcherConfig, TrainReport};
use crate::staypoints::ExtractionConfig;
use dlinfma_detcol::OrdMap;
use dlinfma_geo::Point;
use dlinfma_obs::{self as obs, stage, PipelineReport};
use dlinfma_params as params;
use dlinfma_pool::Pool;
use dlinfma_synth::{AddressId, Dataset, TripBatch};
use std::sync::Arc;

/// Which clustering backs the candidate pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolMethod {
    /// Centroid-linkage hierarchical clustering (the paper's choice).
    Hierarchical,
    /// Fixed-grid bucketing (the DLInfMA-Grid ablation).
    Grid,
}

/// Pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct DlInfMaConfig {
    /// Noise filtering and stay-point thresholds.
    pub extraction: ExtractionConfig,
    /// Hierarchical clustering distance `D` (paper: 40 m); doubles as the
    /// grid cell size for [`PoolMethod::Grid`].
    pub clustering_distance_m: f64,
    /// Clustering method for the candidate pool.
    pub pool_method: PoolMethod,
    /// Feature switches (ablations).
    pub features: FeatureConfig,
    /// LocMatcher hyperparameters.
    pub model: LocMatcherConfig,
    /// Worker threads for stay-point extraction.
    pub workers: usize,
}

impl DlInfMaConfig {
    /// The paper's configuration. Worker count defaults to the machine's
    /// available parallelism (clamped to 16; the deployed system's
    /// trip-level parallelism saturates well before that), overridable via
    /// the `workers` field or the CLI's `--workers`.
    pub fn paper_defaults() -> Self {
        Self {
            extraction: ExtractionConfig::paper_defaults(),
            clustering_distance_m: params::CLUSTER_DISTANCE_M,
            pool_method: PoolMethod::Hierarchical,
            features: FeatureConfig::default(),
            model: LocMatcherConfig::paper_defaults(),
            workers: std::thread::available_parallelism().map_or(4, |n| n.get().min(16)),
        }
    }

    /// Paper architecture re-tuned for synthetic scale. The clustering
    /// distance is 30 m rather than the paper's 40 m: Figure 10(a)'s
    /// selection procedure (pick `D` at the MAE minimum) lands at 30 m on
    /// the synthetic geometry — see EXPERIMENTS.md.
    pub fn fast() -> Self {
        Self {
            model: LocMatcherConfig::fast(),
            clustering_distance_m: params::TUNED_CLUSTER_DISTANCE_M,
            ..Self::paper_defaults()
        }
    }
}

/// The prepared (and optionally trained) DLInfMA system.
pub struct DlInfMa {
    cfg: DlInfMaConfig,
    pool: CandidatePool,
    samples: OrdMap<AddressId, AddressSample>,
    model: Option<LocMatcher>,
    report: PipelineReport,
    /// The engine's shared work-stealing pool, carried over so training and
    /// batch inference reuse the same worker threads.
    exec: Arc<Pool>,
}

impl DlInfMa {
    /// Runs candidate generation and feature extraction over a dataset.
    ///
    /// Since the staged-engine refactor this is literally *one big ingest*:
    /// the whole dataset is fed to [`Engine::ingest`] as a single
    /// [`TripBatch`] and the engine's materialized artifacts become the
    /// batch pipeline's state. Streaming the same dataset day by day
    /// through an [`Engine`] produces identical artifacts — the refactor's
    /// correctness anchor, pinned by the `batch_streaming_parity` tests.
    ///
    /// Stage timings and funnel counts are recorded in [`DlInfMa::report`]
    /// unconditionally (a handful of clock reads per stage — no longer two
    /// per address); per-stage spans and the candidate-set-size histogram
    /// are additionally emitted when the global `dlinfma_obs` collector is
    /// enabled.
    pub fn prepare(dataset: &Dataset, cfg: DlInfMaConfig) -> Self {
        let mut engine = Engine::new(dataset.addresses.clone(), cfg);
        engine.ingest(&TripBatch::full(dataset));
        Self::from_engine(engine)
    }

    /// Wraps an incrementally-fed [`Engine`] as the batch API, taking over
    /// its materialized pool, samples, report, and model (if any). Labeling
    /// and training work exactly as after [`DlInfMa::prepare`].
    pub fn from_engine(engine: Engine) -> Self {
        let (cfg, pool, samples, model, report, exec) = engine.into_parts();
        Self {
            cfg,
            pool,
            samples,
            model,
            report,
            exec,
        }
    }

    /// The shared thread pool carried over from the engine.
    pub fn executor(&self) -> &Pool {
        &self.exec
    }

    /// Labels every sample with the candidate nearest to the ground-truth
    /// delivery location provided by `gt` ([`AddressSample::label_nearest`],
    /// supervised-learning labelling per Section V-A).
    pub fn label_with(&mut self, gt: &dyn Fn(AddressId) -> Option<Point>) {
        for (addr, sample) in &mut self.samples {
            if let Some(truth) = gt(*addr) {
                sample.label_nearest(&self.pool, &truth);
            }
        }
        self.report.funnel.samples_labelled =
            self.samples.values().filter(|s| s.label.is_some()).count() as u64;
    }

    /// Labels from the synthetic dataset's ground-truth fields.
    pub fn label_from_dataset(&mut self, dataset: &Dataset) {
        let truths: OrdMap<AddressId, Point> = dataset
            .addresses
            .iter()
            .map(|a| (a.id, a.true_delivery_location))
            .collect();
        self.label_with(&|addr| truths.get(&addr).copied());
    }

    /// Trains LocMatcher on the given train/validation address splits.
    /// Requires labels (see [`DlInfMa::label_with`]); records the
    /// `training` stage in [`DlInfMa::report`].
    pub fn train(&mut self, train: &[AddressId], val: &[AddressId]) -> TrainReport {
        let collect = |ids: &[AddressId]| -> Vec<AddressSample> {
            ids.iter()
                .filter_map(|a| self.samples.get(a).cloned())
                .collect()
        };
        let train_samples = collect(train);
        let val_samples = collect(val);
        let t = obs::Stopwatch::start();
        let mut model = LocMatcher::new(self.cfg.model);
        let report = model.train_pooled(&train_samples, &val_samples, &self.exec);
        self.report.push_stage(
            stage::TRAINING,
            t.elapsed_ns().max(1),
            Some(train_samples.len() as u64),
            Some(report.epochs as u64),
        );
        self.model = Some(model);
        report
    }

    /// Installs an externally-trained model (used by variant experiments).
    pub fn set_model(&mut self, model: LocMatcher) {
        self.model = Some(model);
    }

    /// Inferred delivery location of an address, or `None` when the address
    /// was never delivered in the data, has no candidates, or the model is
    /// untrained.
    pub fn infer(&self, addr: AddressId) -> Option<Point> {
        let _span = obs::span(stage::INFERENCE);
        let sample = self.samples.get(&addr)?;
        let model = self.model.as_ref()?;
        let idx = model.predict(sample)?;
        Some(self.pool.candidate(sample.candidates[idx]).pos)
    }

    /// Inference with the deployment fallback chain: inferred location if
    /// available, otherwise the address's geocode.
    pub fn infer_or_geocode(&self, dataset: &Dataset, addr: AddressId) -> Point {
        self.infer(addr)
            .unwrap_or_else(|| dataset.address(addr).geocode)
    }

    /// The candidate pool.
    pub fn pool(&self) -> &CandidatePool {
        &self.pool
    }

    /// The prepared sample of an address.
    pub fn sample(&self, addr: AddressId) -> Option<&AddressSample> {
        self.samples.get(&addr)
    }

    /// All prepared samples, ascending by address id.
    pub fn samples(&self) -> impl Iterator<Item = &AddressSample> {
        self.samples.values()
    }

    /// The trained model, if any.
    pub fn model(&self) -> Option<&LocMatcher> {
        self.model.as_ref()
    }

    /// The configuration in effect.
    pub fn config(&self) -> &DlInfMaConfig {
        &self.cfg
    }

    /// Stage timings and funnel counts accumulated by
    /// [`DlInfMa::prepare`] / [`DlInfMa::label_with`] / [`DlInfMa::train`].
    pub fn report(&self) -> &PipelineReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlinfma_synth::{generate, spatial_split, Preset, Scale};

    #[test]
    fn end_to_end_beats_geocoding_on_tiny_world() {
        let (city, ds) = generate(Preset::DowBJ, Scale::Tiny, 11);
        let split = spatial_split(&ds, 0.6, 0.2);
        let mut cfg = DlInfMaConfig::fast();
        cfg.model.max_epochs = 15;
        let mut dlinfma = DlInfMa::prepare(&ds, cfg);
        dlinfma.label_from_dataset(&ds);
        let report = dlinfma.train(&split.train, &split.val);
        assert!(report.epochs > 0);

        let mut err_model = 0.0;
        let mut err_geo = 0.0;
        let mut n = 0;
        for &addr in &split.test {
            let gt = city.addresses[addr.0 as usize].true_delivery_location;
            let inferred = dlinfma.infer_or_geocode(&ds, addr);
            err_model += inferred.distance(&gt);
            err_geo += ds.address(addr).geocode.distance(&gt);
            n += 1;
        }
        assert!(n > 0);
        let (mae_model, mae_geo) = (err_model / n as f64, err_geo / n as f64);
        assert!(
            mae_model < mae_geo,
            "DLInfMA MAE {mae_model:.1}m must beat Geocoding {mae_geo:.1}m"
        );
    }

    #[test]
    fn untrained_model_infers_none() {
        let (_, ds) = generate(Preset::DowBJ, Scale::Tiny, 12);
        let dlinfma = DlInfMa::prepare(&ds, DlInfMaConfig::fast());
        let addr = ds.waybills[0].address;
        assert!(dlinfma.infer(addr).is_none());
        let fallback = dlinfma.infer_or_geocode(&ds, addr);
        assert_eq!(fallback, ds.address(addr).geocode);
    }

    #[test]
    fn label_with_non_finite_truth_does_not_panic() {
        let (_, ds) = generate(Preset::DowBJ, Scale::Tiny, 14);
        let mut dlinfma = DlInfMa::prepare(&ds, DlInfMaConfig::fast());
        // A NaN ground-truth point makes every candidate distance NaN; the
        // old partial_cmp-then-expect labelling panicked here.
        dlinfma.label_with(&|_| Some(Point::new(f64::NAN, f64::NAN)));
        for s in dlinfma.samples() {
            assert_eq!(s.label, None, "non-finite distances must not label");
        }
        assert_eq!(dlinfma.report().funnel.samples_labelled, 0);

        // Infinite truths behave the same, and a later finite labelling
        // pass recovers.
        dlinfma.label_with(&|_| Some(Point::new(f64::INFINITY, 0.0)));
        assert_eq!(dlinfma.report().funnel.samples_labelled, 0);
        dlinfma.label_from_dataset(&ds);
        assert!(dlinfma.report().funnel.samples_labelled > 0);
    }

    #[test]
    fn prepare_report_covers_all_stages() {
        let (_, ds) = generate(Preset::DowBJ, Scale::Tiny, 15);
        let dlinfma = DlInfMa::prepare(&ds, DlInfMaConfig::fast());
        let report = dlinfma.report();
        for name in [
            obs::stage::NOISE_FILTER,
            obs::stage::STAY_POINTS,
            obs::stage::CLUSTERING,
            obs::stage::RETRIEVAL,
            obs::stage::FEATURES,
        ] {
            let s = report.stage(name).unwrap_or_else(|| panic!("stage {name}"));
            assert!(s.duration_ns > 0, "{name} duration");
        }
        assert!(
            report.check_funnel().is_empty(),
            "{:?}",
            report.check_funnel()
        );
        assert!(report.funnel.raw_points > 0);
        assert_eq!(report.funnel.clusters, dlinfma.pool().len() as u64);
    }

    #[test]
    fn labels_point_to_nearest_candidate() {
        let (city, ds) = generate(Preset::DowBJ, Scale::Tiny, 13);
        let mut dlinfma = DlInfMa::prepare(&ds, DlInfMaConfig::fast());
        dlinfma.label_from_dataset(&ds);
        for s in dlinfma.samples() {
            let Some(label) = s.label else { continue };
            let gt = city.addresses[s.address.0 as usize].true_delivery_location;
            let labelled = dlinfma.pool().candidate(s.candidates[label]).pos;
            for &c in &s.candidates {
                assert!(
                    labelled.distance(&gt) <= dlinfma.pool().candidate(c).pos.distance(&gt) + 1e-9
                );
            }
        }
    }
}
