//! Stay-point extraction over a whole dataset (pipeline step III-A).
//!
//! Applies the heuristic noise filter and then the Definition-4 detector to
//! every trip. Mirrors the deployed system's trajectory-level
//! parallelization (Section V-F): trips are processed on the shared
//! [`dlinfma_pool::Pool`] across available cores.

use dlinfma_obs as obs;
use dlinfma_pool::Pool;
use dlinfma_synth::{Dataset, TripId};
use dlinfma_traj::{
    detect_stay_points, filter_noise, NoiseFilterConfig, StayPoint, StayPointConfig,
};

/// Configuration of the extraction step; defaults follow the paper
/// (`D_max = 20 m`, `T_min = 30 s`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExtractionConfig {
    /// GPS noise filter settings.
    pub noise: NoiseFilterConfig,
    /// Stay-point detector thresholds.
    pub stay: StayPointConfig,
}

impl ExtractionConfig {
    /// The paper's parameters.
    pub fn paper_defaults() -> Self {
        Self::default()
    }
}

/// Stay points of one trip, tagged with their trip.
#[derive(Debug, Clone)]
pub struct TripStays {
    /// The trip the stays belong to.
    pub trip: TripId,
    /// Detected stay points in chronological order.
    pub stays: Vec<StayPoint>,
}

/// Funnel counts and accumulated per-phase time for one extraction run.
/// Feeds the `noise-filter` / `stay-point-extraction` stages of the
/// pipeline report; both phases run fused per trip, so their times are
/// accumulated here rather than measured as contiguous regions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractionStats {
    /// GPS fixes before noise filtering.
    pub raw_points: u64,
    /// GPS fixes surviving the filter.
    pub filtered_points: u64,
    /// Stay points detected.
    pub stay_points: u64,
    /// Accumulated noise-filter time, nanoseconds.
    pub noise_filter_ns: u64,
    /// Accumulated stay-point-detection time, nanoseconds.
    pub detect_ns: u64,
}

impl ExtractionStats {
    fn merge(&mut self, other: &ExtractionStats) {
        self.raw_points += other.raw_points;
        self.filtered_points += other.filtered_points;
        self.stay_points += other.stay_points;
        self.noise_filter_ns += other.noise_filter_ns;
        self.detect_ns += other.detect_ns;
    }
}

fn extract_trip(
    t: &dlinfma_synth::DeliveryTrip,
    cfg: &ExtractionConfig,
    stats: &mut ExtractionStats,
) -> TripStays {
    let watch = obs::Stopwatch::start();
    let filtered = filter_noise(&t.trajectory, &cfg.noise);
    let filter_ns = watch.elapsed_ns();
    let watch = obs::Stopwatch::start();
    let stays = detect_stay_points(&filtered, &cfg.stay);
    stats.raw_points += t.trajectory.len() as u64;
    stats.filtered_points += filtered.len() as u64;
    stats.stay_points += stays.len() as u64;
    stats.noise_filter_ns += filter_ns;
    stats.detect_ns += watch.elapsed_ns();
    TripStays { trip: t.id, stays }
}

/// Extracts stay points for every trip sequentially.
pub fn extract_stay_points(dataset: &Dataset, cfg: &ExtractionConfig) -> Vec<TripStays> {
    extract_batch_with_stats(&dataset.trips, cfg, &Pool::sequential()).0
}

/// Extracts stay points for an arbitrary slice of trips (one streamed
/// [`TripBatch`](dlinfma_synth::TripBatch)'s worth) on the shared pool
/// (trip-level parallelism, as deployed). Per-trip extraction is
/// independent, so batching never changes the detected stays — the
/// property the incremental engine's batch/streaming parity rests on.
/// Phase times in [`ExtractionStats`] are summed across workers — they
/// measure CPU work, not wall clock, when the pool has more than one
/// thread; callers that report durations should pair them with their own
/// wall-clock measurement of the whole call (the engine stores both in its
/// stage report).
pub fn extract_batch_with_stats(
    trips: &[dlinfma_synth::DeliveryTrip],
    cfg: &ExtractionConfig,
    pool: &Pool,
) -> (Vec<TripStays>, ExtractionStats) {
    if pool.threads() == 1 || trips.len() < 2 {
        let mut stats = ExtractionStats::default();
        let out = trips
            .iter()
            .map(|t| extract_trip(t, cfg, &mut stats))
            .collect();
        return (out, stats);
    }
    let chunk = trips.len().div_ceil(pool.threads());
    let per_chunk = pool.par_chunks(trips, chunk, |_, trips| {
        let mut stats = ExtractionStats::default();
        let out: Vec<TripStays> = trips
            .iter()
            .map(|t| extract_trip(t, cfg, &mut stats))
            .collect();
        (out, stats)
    });
    let mut stats = ExtractionStats::default();
    let mut out = Vec::with_capacity(trips.len());
    for (chunk_out, chunk_stats) in per_chunk {
        out.extend(chunk_out);
        stats.merge(&chunk_stats);
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlinfma_synth::{generate, Preset, Scale};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// One shared Tiny world: dataset generation dominates a proptest case,
    /// so every case reuses it and varies only the thresholds.
    fn dataset() -> &'static Dataset {
        static DS: OnceLock<Dataset> = OnceLock::new();
        DS.get_or_init(|| generate(Preset::DowBJ, Scale::Tiny, 3).1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn stays_respect_d_max_and_t_min(
            d_max in 5.0..40.0f64,
            t_min in 10.0..120.0f64,
        ) {
            let ds = dataset();
            let cfg = ExtractionConfig {
                stay: dlinfma_traj::StayPointConfig {
                    d_max_m: d_max,
                    t_min_s: t_min,
                },
                ..ExtractionConfig::default()
            };
            let out = extract_stay_points(ds, &cfg);
            prop_assert_eq!(out.len(), ds.trips.len());
            for ts in &out {
                for s in &ts.stays {
                    // Definition 4: a stay spans at least T_min and needs
                    // at least two fixes to span any time at all.
                    prop_assert!(s.duration() >= t_min);
                    prop_assert!(s.n_points >= 2);
                }
                // Chronological and disjoint within a trip.
                for w in ts.stays.windows(2) {
                    prop_assert!(w[0].t_end <= w[1].t_start);
                }
            }
        }
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let (_, ds) = generate(Preset::DowBJ, Scale::Tiny, 0);
        let cfg = ExtractionConfig::paper_defaults();
        let seq = extract_stay_points(&ds, &cfg);
        let (par, _) = extract_batch_with_stats(&ds.trips, &cfg, &Pool::new(4));
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.trip, b.trip);
            assert_eq!(a.stays, b.stays);
        }
    }

    #[test]
    fn every_trip_is_covered_in_order() {
        let (_, ds) = generate(Preset::SubBJ, Scale::Tiny, 1);
        let cfg = ExtractionConfig::paper_defaults();
        let out = extract_stay_points(&ds, &cfg);
        assert_eq!(out.len(), ds.trips.len());
        for (i, ts) in out.iter().enumerate() {
            assert_eq!(ts.trip.0 as usize, i);
        }
    }

    #[test]
    fn trips_have_plausible_stay_counts() {
        let (_, ds) = generate(Preset::DowBJ, Scale::Tiny, 2);
        let out = extract_stay_points(&ds, &ExtractionConfig::paper_defaults());
        let mean = out.iter().map(|t| t.stays.len()).sum::<usize>() as f64 / out.len() as f64;
        // Trips deliver 10..=18 parcels plus occasional extra stops.
        assert!((8.0..30.0).contains(&mean), "mean stays/trip {mean}");
    }
}
