//! The method registry: every baseline, variant and ablation row of
//! Tables II and III, runnable against an [`ExperimentWorld`].

use crate::metrics::Metrics;
use crate::world::ExperimentWorld;
use dlinfma_baselines::{
    annotation, geocloud, geocoding, max_tc, max_tc_ilc, min_dist, ClassifierKind,
    ClassifierVariant, GeoRank, PnConfig, PnMatcher, RankerKind, RankingVariant, UNetBaseline,
    UNetConfig,
};
use dlinfma_core::{
    AddressSample, DlInfMa, DlInfMaConfig, LocMatcher, LocMatcherConfig, PoolMethod,
};
use dlinfma_geo::Point;
use dlinfma_synth::AddressId;
use std::collections::HashMap;

/// Feature / architecture ablations of DLInfMA (Table II bottom block).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    /// Drop trip coverage (DLInfMA-nTC).
    NoTripCoverage,
    /// Drop the distance feature (DLInfMA-nD).
    NoDistance,
    /// Drop the location profile (DLInfMA-nP).
    NoProfile,
    /// Drop location commonality (DLInfMA-nLC).
    NoCommonality,
    /// Drop the address context term `U c` (DLInfMA-nA).
    NoAddressContext,
    /// Address-level instead of building-level LC (DLInfMA-LC_addr).
    AddressLevelLc,
}

impl Ablation {
    /// Name as printed in Table II.
    pub fn name(&self) -> &'static str {
        match self {
            Ablation::NoTripCoverage => "DLInfMA-nTC",
            Ablation::NoDistance => "DLInfMA-nD",
            Ablation::NoProfile => "DLInfMA-nP",
            Ablation::NoCommonality => "DLInfMA-nLC",
            Ablation::NoAddressContext => "DLInfMA-nA",
            Ablation::AddressLevelLc => "DLInfMA-LC_addr",
        }
    }
}

/// Every method evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Geocoded waybill location.
    Geocoding,
    /// Centroid of annotated locations.
    Annotation,
    /// DBSCAN biggest-cluster centroid over annotations.
    GeoCloud,
    /// Pairwise ranking over annotations.
    GeoRank,
    /// 9×9 raster CNN over annotations.
    UNetBased,
    /// Candidate nearest the geocode.
    MinDist,
    /// Candidate with maximum trip coverage.
    MaxTC,
    /// Candidate with maximum TC × 1/LC.
    MaxTcIlc,
    /// The full DLInfMA with LocMatcher.
    DlInfMa,
    /// Classification variant (GBDT / RF / MLP).
    Classifier(ClassifierKind),
    /// Pairwise-ranking variant (RkDT / RkNet).
    Ranking(RankerKind),
    /// LSTM pointer-network variant.
    Pn,
    /// Grid-merging candidate pool.
    GridPool,
    /// Feature / architecture ablation.
    Ablation(Ablation),
}

impl Method {
    /// Name as printed in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Geocoding => "Geocoding",
            Method::Annotation => "Annotation",
            Method::GeoCloud => "GeoCloud",
            Method::GeoRank => "GeoRank",
            Method::UNetBased => "UNet-based",
            Method::MinDist => "MinDist",
            Method::MaxTC => "MaxTC",
            Method::MaxTcIlc => "MaxTC-ILC",
            Method::DlInfMa => "DLInfMA",
            Method::Classifier(k) => k.name(),
            Method::Ranking(k) => k.name(),
            Method::Pn => "DLInfMA-PN",
            Method::GridPool => "DLInfMA-Grid",
            Method::Ablation(a) => a.name(),
        }
    }

    /// The nine baselines plus DLInfMA (Table II top block).
    pub fn baselines_and_main() -> Vec<Method> {
        vec![
            Method::Geocoding,
            Method::Annotation,
            Method::GeoCloud,
            Method::GeoRank,
            Method::UNetBased,
            Method::MinDist,
            Method::MaxTC,
            Method::MaxTcIlc,
            Method::DlInfMa,
        ]
    }

    /// The model variants (Table II middle block).
    pub fn variants() -> Vec<Method> {
        vec![
            Method::Classifier(ClassifierKind::Gbdt),
            Method::Classifier(ClassifierKind::RandomForest),
            Method::Classifier(ClassifierKind::Mlp),
            Method::Ranking(RankerKind::DecisionTree),
            Method::Ranking(RankerKind::RankNet),
            Method::Pn,
            Method::GridPool,
        ]
    }

    /// The feature/architecture ablations (Table II bottom block).
    pub fn ablations() -> Vec<Method> {
        vec![
            Method::Ablation(Ablation::NoTripCoverage),
            Method::Ablation(Ablation::NoDistance),
            Method::Ablation(Ablation::NoProfile),
            Method::Ablation(Ablation::NoCommonality),
            Method::Ablation(Ablation::NoAddressContext),
            Method::Ablation(Ablation::AddressLevelLc),
        ]
    }

    /// Everything in Table II.
    pub fn all() -> Vec<Method> {
        let mut v = Self::baselines_and_main();
        v.extend(Self::variants());
        v.extend(Self::ablations());
        v
    }
}

/// Result of evaluating one method on one world.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method name.
    pub name: &'static str,
    /// Error metrics over the test split.
    pub metrics: Metrics,
    /// Wall-clock seconds spent fitting and evaluating the method (training
    /// plus inference over the test split; the shared pipeline preparation
    /// in [`ExperimentWorld::build`] is not attributed to any method).
    pub elapsed_s: f64,
}

/// Fits LocMatcher under `model` on `dl`'s labelled train/validation
/// samples and returns its answers over the test split. The paper
/// grid-searches hyperparameters per method; this mirrors that with a small
/// validation-selected grid around `model`. Training and the per-address
/// inference sweep both run data-parallel on `dl`'s pool.
fn locmatcher_predictions(
    world: &ExperimentWorld,
    dl: &DlInfMa,
    model: LocMatcherConfig,
) -> HashMap<AddressId, Point> {
    let samples = |ids: &[AddressId]| -> Vec<AddressSample> {
        ids.iter().filter_map(|a| dl.sample(*a).cloned()).collect()
    };
    let (train, val) = (samples(&world.split.train), samples(&world.split.val));
    let grid = LocMatcher::experiment_grid(model);
    let model = LocMatcher::fit_best_pooled(&grid, &train, &val, dl.executor());
    let _span = dlinfma_obs::span(dlinfma_obs::stage::INFERENCE);
    dl.executor()
        .par_map(&samples(&world.split.test), |s| {
            let idx = model.predict(s)?;
            Some((s.address, dl.pool().candidate(s.candidates[idx]).pos))
        })
        .into_iter()
        .flatten()
        .collect()
}

/// The configuration of a LocMatcher row of Table II: the DLInfMA row's,
/// with the row's feature switch, address-context switch or pool method.
fn row_config(world: &ExperimentWorld, method: Method) -> DlInfMaConfig {
    let mut cfg = *world.dlinfma.config();
    match method {
        Method::GridPool => cfg.pool_method = PoolMethod::Grid,
        Method::Ablation(Ablation::NoTripCoverage) => cfg.features.use_trip_coverage = false,
        Method::Ablation(Ablation::NoDistance) => cfg.features.use_distance = false,
        Method::Ablation(Ablation::NoProfile) => cfg.features.use_profile = false,
        Method::Ablation(Ablation::NoCommonality) => cfg.features.use_location_commonality = false,
        Method::Ablation(Ablation::NoAddressContext) => cfg.model.use_address_context = false,
        Method::Ablation(Ablation::AddressLevelLc) => cfg.features.lc_address_level = true,
        _ => {}
    }
    cfg.model.features = cfg.features;
    cfg
}

/// The labelled engine samples of the two rows that change what the engine
/// builds, DLInfMA-Grid (the pool) and DLInfMA-LC_addr (the LC): a
/// [`DlInfMa::prepare`] under [`row_config`]. `None` for every other row,
/// which fits on the DLInfMA row's samples: they hold everything its model
/// configuration reads.
fn row_samples(world: &ExperimentWorld, method: Method) -> Option<DlInfMa> {
    let own = matches!(
        method,
        Method::GridPool | Method::Ablation(Ablation::AddressLevelLc)
    );
    own.then(|| {
        let mut row = DlInfMa::prepare(&world.dataset, row_config(world, method));
        row.label_from_dataset(&world.dataset);
        row
    })
}

/// Evaluates one method over the world's test split and returns the metrics.
pub fn evaluate(world: &ExperimentWorld, method: Method) -> MethodResult {
    let start = dlinfma_obs::Stopwatch::start();
    let errors = evaluate_errors(world, method);
    MethodResult {
        name: method.name(),
        metrics: Metrics::from_errors(&errors).expect("test split is non-empty"),
        elapsed_s: start.elapsed().as_secs_f64(),
    }
}

/// Per-address test errors of one method, ordered like `world.split.test`
/// (geocode fallback for unanswerable addresses). Exposed so figure drivers
/// can group errors, e.g. by number of deliveries (Figure 10(b)).
pub fn evaluate_errors(world: &ExperimentWorld, method: Method) -> Vec<f64> {
    let pool = world.dlinfma.pool();
    match method {
        Method::Geocoding => {
            let m = geocoding(&world.dataset);
            world.test_errors(|a| m.infer(a))
        }
        Method::Annotation => {
            let m = annotation(&world.ann);
            world.test_errors(|a| m.infer(a))
        }
        Method::GeoCloud => {
            let m = geocloud(&world.ann, dlinfma_params::D_MAX_M);
            world.test_errors(|a| m.infer(a))
        }
        Method::GeoRank => {
            let model = GeoRank::fit(&world.dataset, &world.ann, &world.split.train, &world.gt);
            world.test_errors(|a| model.infer(&world.dataset, &world.ann, a))
        }
        Method::UNetBased => {
            let model = UNetBaseline::fit(
                &world.ann,
                &world.split.train,
                &world.gt,
                &UNetConfig::default(),
            );
            world.test_errors(|a| model.infer(&world.ann, a))
        }
        Method::MinDist | Method::MaxTC | Method::MaxTcIlc => {
            let test = world.test_samples();
            let m = match method {
                Method::MinDist => min_dist(&test, pool),
                Method::MaxTC => max_tc(&test, pool),
                _ => max_tc_ilc(&test, pool),
            };
            world.test_errors(|a| m.infer(a))
        }
        Method::Classifier(kind) => {
            let model = ClassifierVariant::fit(
                &world.train_samples(),
                world.dlinfma.config().features,
                kind,
                0,
            );
            world.test_errors(|a| {
                world
                    .dlinfma
                    .sample(a)
                    .and_then(|s| model.infer_sample(s, pool))
            })
        }
        Method::Ranking(kind) => {
            let model = RankingVariant::fit(
                &world.train_samples(),
                world.dlinfma.config().features,
                kind,
                0,
            );
            world.test_errors(|a| {
                world
                    .dlinfma
                    .sample(a)
                    .and_then(|s| model.infer_sample(s, pool))
            })
        }
        Method::Pn => {
            let mut model = PnMatcher::new(PnConfig::default());
            model.train(&world.train_samples(), &world.val_samples());
            world.test_errors(|a| {
                world
                    .dlinfma
                    .sample(a)
                    .and_then(|s| model.infer_sample(s, pool))
            })
        }
        Method::DlInfMa | Method::GridPool | Method::Ablation(_) => {
            let own = row_samples(world, method);
            let dl = own.as_ref().unwrap_or(&world.dlinfma);
            let preds = locmatcher_predictions(world, dl, row_config(world, method).model);
            world.test_errors(|a| preds.get(&a).copied())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlinfma_synth::{Preset, Scale};

    #[test]
    fn method_names_are_unique() {
        let all = Method::all();
        let mut names: Vec<&str> = all.iter().map(|m| m.name()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert_eq!(total, 9 + 7 + 6);
    }

    #[test]
    fn cheap_methods_evaluate() {
        let world = ExperimentWorld::build(Preset::DowBJ, Scale::Tiny, 0);
        for m in [
            Method::Geocoding,
            Method::Annotation,
            Method::GeoCloud,
            Method::MinDist,
            Method::MaxTC,
            Method::MaxTcIlc,
        ] {
            let r = evaluate(&world, m);
            assert!(r.metrics.mae.is_finite(), "{}", r.name);
            assert!(r.metrics.n > 0);
        }
    }

    /// nTC, nD, nP, nLC and nA may reuse the DLInfMA row's samples: an
    /// engine under the row's configuration builds the same candidates,
    /// address context and labels, zeroes the ablated feature and keeps
    /// every other feature bit for bit, and its model configuration is the
    /// one the row is fitted with. LC_addr's LC is an engine's with
    /// `lc_address_level`, streamed day by day.
    #[test]
    fn ablation_rows_are_fitted_on_engine_samples() {
        use dlinfma_core::Engine;
        let world = ExperimentWorld::build(Preset::DowBJ, Scale::Tiny, 0);
        let base = &world.dlinfma;
        for ab in [
            Ablation::NoTripCoverage,
            Ablation::NoDistance,
            Ablation::NoProfile,
            Ablation::NoCommonality,
            Ablation::NoAddressContext,
        ] {
            let method = Method::Ablation(ab);
            assert!(row_samples(&world, method).is_none(), "{}", ab.name());
            let cfg = row_config(&world, method);
            let mut row = DlInfMa::prepare(&world.dataset, cfg);
            row.label_from_dataset(&world.dataset);
            let model = |c: &DlInfMaConfig| format!("{:?}", c.model);
            assert_eq!(model(row.config()), model(&cfg), "{}", ab.name());
            let kept = cfg.features;
            assert_eq!(row.samples().count(), base.samples().count());
            for (r, b) in row.samples().zip(base.samples()) {
                let context = |s: &AddressSample| (s.address, s.n_deliveries, s.poi_category);
                assert_eq!((context(r), &r.candidates), (context(b), &b.candidates));
                assert_eq!((r.label, &r.truth_distances), (b.label, &b.truth_distances));
                let mut want = b.features.clone();
                for f in &mut want {
                    let keep = |on: bool, x: f64| if on { x } else { 0.0 };
                    f.trip_coverage = keep(kept.use_trip_coverage, f.trip_coverage);
                    f.location_commonality =
                        keep(kept.use_location_commonality, f.location_commonality);
                    f.distance_m = keep(kept.use_distance, f.distance_m);
                }
                assert_eq!(r.features, want, "{} at {:?}", ab.name(), r.address);
            }
        }
        assert!(row_samples(&world, Method::DlInfMa).is_none());

        let row = row_samples(&world, Method::Ablation(Ablation::AddressLevelLc)).expect("own");
        let mut engine = Engine::new(world.dataset.addresses.clone(), *row.config());
        for batch in dlinfma_synth::replay(&world.dataset) {
            engine.ingest(&batch);
        }
        let lc = |s: &AddressSample| -> Vec<u64> {
            let lc = s.features.iter().map(|f| f.location_commonality.to_bits());
            lc.collect()
        };
        assert_eq!(row.samples().count(), engine.samples().count());
        for (r, e) in row.samples().zip(engine.samples()) {
            assert_eq!((&r.candidates, lc(r)), (&e.candidates, lc(e)));
        }
    }

    #[test]
    fn dlinfma_beats_annotation_under_heavy_delays() {
        // Table III's key finding: annotation-based methods collapse as the
        // delay probability rises while DLInfMA stays robust. (At tiny
        // world scale with mild delays the centroid can be competitive; the
        // full Table II comparison runs at Small/Full scale in the benches.)
        let mut cfg = dlinfma_synth::world_config(Preset::DowBJ, Scale::Tiny);
        cfg.delays = dlinfma_synth::DelayConfig::sweep(0.8);
        let world = ExperimentWorld::build_from(&cfg, 1, dlinfma_core::DlInfMaConfig::fast());
        let dl = evaluate(&world, Method::DlInfMa);
        let an = evaluate(&world, Method::Annotation);
        assert!(
            dl.metrics.mae < an.metrics.mae,
            "DLInfMA {:.1} !< Annotation {:.1}",
            dl.metrics.mae,
            an.metrics.mae
        );
        assert!(
            dl.metrics.beta50 > an.metrics.beta50,
            "DLInfMA β50 {:.1} !> Annotation β50 {:.1}",
            dl.metrics.beta50,
            an.metrics.beta50
        );
    }
}
