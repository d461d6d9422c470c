//! Feature extraction (pipeline step IV-A).
//!
//! Three feature families per the paper:
//!
//! * **Matching features** — trip coverage (Equation 1), building-level
//!   location commonality (Equation 2), and the distance to the geocoded
//!   waybill location;
//! * **Profile features** — average stay duration, number of couriers and
//!   the 24-bin visit-time distribution of the candidate;
//! * **Address features** — number of deliveries and the geocoder's POI
//!   category.
//!
//! The [`Engine`](crate::Engine) computes them: raw integer counts per
//! dirty address at ingest, finalized against station-scoped normalizers
//! when samples are materialized. [`FeatureConfig`] switches individual
//! families off for the paper's ablations (DLInfMA-nTC / -nD / -nP / -nLC)
//! and swaps the building-level LC for the address-level variant
//! (DLInfMA-LC_addr).

use crate::candidates::{CandidateId, CandidatePool, TIME_BINS};
use dlinfma_geo::Point;
use dlinfma_synth::{AddressId, StationId};

/// Which features to extract; all on by default.
#[derive(Debug, Clone, Copy)]
pub struct FeatureConfig {
    /// Include trip coverage (Equation 1).
    pub use_trip_coverage: bool,
    /// Include location commonality (Equation 2).
    pub use_location_commonality: bool,
    /// Include the distance to the geocoded location.
    pub use_distance: bool,
    /// Include the location profile (duration, couriers, time distribution).
    pub use_profile: bool,
    /// Compute LC against the *address* instead of its building
    /// (the DLInfMA-LC_addr ablation, shown inferior by the paper).
    pub lc_address_level: bool,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        Self {
            use_trip_coverage: true,
            use_location_commonality: true,
            use_distance: true,
            use_profile: true,
            lc_address_level: false,
        }
    }
}

/// Features of one `(address, candidate)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateFeatures {
    /// Fraction of the address's trips passing through the candidate.
    pub trip_coverage: f64,
    /// Fraction of *other-building* trips passing through the candidate.
    pub location_commonality: f64,
    /// Distance from the candidate to the address's geocode, meters.
    pub distance_m: f64,
    /// Candidate profile: mean dwell seconds.
    pub avg_duration_s: f64,
    /// Candidate profile: distinct couriers.
    pub n_couriers: f64,
    /// Candidate profile: member stay points.
    pub n_stays: f64,
    /// Candidate profile: hour-of-day visit distribution.
    pub time_distribution: [f64; TIME_BINS],
}

impl CandidateFeatures {
    /// Dense feature vector for classical models, honouring `cfg`'s feature
    /// switches. Scalar features are squashed to comparable magnitudes.
    pub fn to_vec(&self, cfg: &FeatureConfig) -> Vec<f32> {
        let mut v = Vec::with_capacity(6 + TIME_BINS);
        if cfg.use_trip_coverage {
            v.push(self.trip_coverage as f32);
        }
        if cfg.use_location_commonality {
            v.push(self.location_commonality as f32);
        }
        if cfg.use_distance {
            // Log scale keeps resolution where it matters (0-50 m) while
            // bounding wrong-parse outliers (hundreds of meters).
            v.push((self.distance_m / 10.0).ln_1p() as f32);
        }
        if cfg.use_profile {
            v.push((self.avg_duration_s / 60.0).ln_1p() as f32);
            v.push((self.n_couriers).ln_1p() as f32);
            v.push((self.n_stays).ln_1p() as f32);
            v.extend(self.time_distribution.iter().map(|&x| x as f32));
        }
        v
    }

    /// Scalar features only (everything except the time distribution), for
    /// models that embed the time distribution separately (LocMatcher's
    /// dense `r`-unit branch).
    pub fn scalars(&self, cfg: &FeatureConfig) -> Vec<f32> {
        let mut v = Vec::with_capacity(6);
        if cfg.use_trip_coverage {
            v.push(self.trip_coverage as f32);
        }
        if cfg.use_location_commonality {
            v.push(self.location_commonality as f32);
        }
        if cfg.use_distance {
            v.push((self.distance_m / 10.0).ln_1p() as f32);
        }
        if cfg.use_profile {
            v.push((self.avg_duration_s / 60.0).ln_1p() as f32);
            v.push((self.n_couriers).ln_1p() as f32);
            v.push((self.n_stays).ln_1p() as f32);
        }
        v
    }

    /// Number of scalar features under `cfg`.
    pub fn scalars_len(cfg: &FeatureConfig) -> usize {
        let mut n = 0;
        if cfg.use_trip_coverage {
            n += 1;
        }
        if cfg.use_location_commonality {
            n += 1;
        }
        if cfg.use_distance {
            n += 1;
        }
        if cfg.use_profile {
            n += 3;
        }
        n
    }

    /// Length of [`CandidateFeatures::to_vec`] under `cfg`.
    pub fn vec_len(cfg: &FeatureConfig) -> usize {
        let mut n = 0;
        if cfg.use_trip_coverage {
            n += 1;
        }
        if cfg.use_location_commonality {
            n += 1;
        }
        if cfg.use_distance {
            n += 1;
        }
        if cfg.use_profile {
            n += 3 + TIME_BINS;
        }
        n
    }
}

/// One address with its retrieved candidates and all features — the unit of
/// training and inference for every model in this reproduction.
#[derive(Debug, Clone)]
pub struct AddressSample {
    /// The address.
    pub address: AddressId,
    /// Primary station of the address's evidence: the station delivering
    /// the most distinct trips (tie-break: smallest id). In fleet mode this
    /// is the shard that owns the sample.
    pub station: StationId,
    /// Retrieved candidate ids (sorted).
    pub candidates: Vec<CandidateId>,
    /// Per-candidate features, parallel to `candidates`.
    pub features: Vec<CandidateFeatures>,
    /// Number of deliveries (trips) involving the address.
    pub n_deliveries: usize,
    /// POI category from the geocoder.
    pub poi_category: u8,
    /// Geocoded location of the address.
    pub geocode: Point,
    /// Index (into `candidates`) of the candidate nearest the ground-truth
    /// delivery location; `None` until labelled by evaluation code.
    pub label: Option<usize>,
    /// Distance (m) from each candidate to the ground-truth delivery
    /// location, parallel to `candidates`; set together with `label`.
    pub truth_distances: Option<Vec<f64>>,
}

impl AddressSample {
    /// Labels the sample with its candidate nearest the ground-truth
    /// delivery location `truth` (supervised labelling, Section V-A) and
    /// records every candidate's distance to it in `truth_distances`.
    ///
    /// Candidates at a non-finite distance (degenerate ground-truth points)
    /// are never selected; a sample whose distances are all non-finite is
    /// left unlabelled.
    pub fn label_nearest(&mut self, pool: &CandidatePool, truth: &Point) {
        let distances: Vec<f64> = self
            .candidates
            .iter()
            .map(|c| pool.candidate(*c).pos.distance(truth))
            .collect();
        self.label = distances
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_finite())
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i);
        self.truth_distances = Some(distances);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DlInfMaConfig, Engine};
    use dlinfma_synth::{generate, Dataset, DeliverySpotKind, Preset, Scale, TripBatch};

    /// One-station Tiny world (seed 0) ingested in one batch under `features`.
    fn engine(ds: &Dataset, features: FeatureConfig) -> Engine {
        let mut cfg = DlInfMaConfig::fast();
        cfg.workers = 2;
        cfg.features = features;
        let mut engine = Engine::new(ds.addresses.clone(), cfg);
        engine.ingest(&TripBatch::full(ds));
        engine
    }

    /// Every feature is bounded and finite, and trip coverage follows the
    /// paper's Figure 5 arithmetic against the pool's visit records: a
    /// candidate visited by all of the address's trips has TC = 1, one
    /// visited by 2 of 3 trips has 2/3.
    #[test]
    fn features_are_bounded_and_trip_coverage_matches_figure5() {
        let (_, ds) = generate(Preset::DowBJ, Scale::Tiny, 0);
        let engine = engine(&ds, FeatureConfig::default());
        let (cfg, pool) = (engine.config().features, engine.pool());
        let mut multi_delivery = 0;
        for s in engine.samples() {
            assert_eq!(s.candidates.len(), s.features.len());
            let ev = engine.evidence(s.address).expect("sampled address");
            assert_eq!(ev.trips.len(), s.n_deliveries, "one station");
            multi_delivery += usize::from(s.n_deliveries >= 2);
            for (c, f) in s.candidates.iter().zip(&s.features) {
                for x in [f.trip_coverage, f.location_commonality] {
                    assert!((0.0..=1.0).contains(&x), "TC/LC {x}");
                }
                assert!(f.distance_m >= 0.0 && f.distance_m.is_finite());
                assert!(f.avg_duration_s > 0.0);
                let v = f.to_vec(&cfg);
                assert_eq!(v.len(), CandidateFeatures::vec_len(&cfg));
                assert!(v.iter().all(|x| x.is_finite()));
                let visited = |&&(t, _): &&(_, f64)| pool.visits(t).iter().any(|v| v.0 == *c);
                let manual = ev.trips.iter().filter(visited).count() as f64 / ev.trips.len() as f64;
                assert!((f.trip_coverage - manual).abs() < 1e-12);
                assert!(f.trip_coverage > 0.0, "retrieved candidates are visited");
            }
        }
        assert!(multi_delivery > 0, "some address has multiple deliveries");
    }

    /// The paper's Figure 6 argument: a common corridor location visited by
    /// everyone has high LC; the address's own doorstep has low LC.
    #[test]
    fn location_commonality_separates_corridors_from_doorsteps() {
        let (city, ds) = generate(Preset::DowBJ, Scale::Tiny, 0);
        let engine = engine(&ds, FeatureConfig::default());
        let pool = engine.pool();
        let (mut doorstep_lc, mut max_lc) = (Vec::new(), Vec::new());
        for s in engine.samples() {
            let truth = &city.addresses[s.address.0 as usize];
            let mut labelled = s.clone();
            labelled.label_nearest(pool, &truth.true_delivery_location);
            // Skip lockers and receptions (legitimately common) and
            // doorsteps no candidate comes within 30 m of.
            let distances = labelled.truth_distances.unwrap_or_default();
            let near = labelled.label.filter(|&i| distances[i] <= 30.0);
            let (Some(i), DeliverySpotKind::Doorstep) = (near, truth.true_spot_kind) else {
                continue;
            };
            doorstep_lc.push(s.features[i].location_commonality);
            let lc = s.features.iter().map(|f| f.location_commonality);
            max_lc.push(lc.fold(0.0, f64::max));
        }
        assert!(!doorstep_lc.is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&doorstep_lc) < mean(&max_lc),
            "doorstep LC {} !< max LC {}",
            mean(&doorstep_lc),
            mean(&max_lc)
        );
    }

    #[test]
    fn ablation_switches_shrink_the_vector() {
        let full = FeatureConfig::default();
        let no_profile = FeatureConfig {
            use_profile: false,
            ..full
        };
        let no_tc = FeatureConfig {
            use_trip_coverage: false,
            ..full
        };
        assert_eq!(CandidateFeatures::vec_len(&full), 6 + TIME_BINS);
        assert_eq!(CandidateFeatures::vec_len(&no_profile), 3);
        assert_eq!(
            CandidateFeatures::vec_len(&no_tc),
            CandidateFeatures::vec_len(&full) - 1
        );
    }

    #[test]
    fn address_level_lc_differs_from_building_level() {
        // Excluding fewer trips (address < building) changes both the
        // numerator and the denominator; the variant must stay bounded and
        // differ somewhere, over the same candidate sets.
        let (_, ds) = generate(Preset::DowBJ, Scale::Tiny, 0);
        let address_level = FeatureConfig {
            lc_address_level: true,
            ..FeatureConfig::default()
        };
        let building = engine(&ds, FeatureConfig::default());
        let address = engine(&ds, address_level);
        let mut any_diff = false;
        for (sb, sa) in building.samples().zip(address.samples()) {
            assert_eq!(sb.candidates, sa.candidates);
            for (fb, fa) in sb.features.iter().zip(&sa.features) {
                assert!((0.0..=1.0).contains(&fa.location_commonality));
                any_diff |= (fb.location_commonality - fa.location_commonality).abs() > 1e-12;
            }
        }
        assert!(any_diff, "LC variants should differ somewhere");
    }
}
