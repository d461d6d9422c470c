//! Candidate pool types (pipeline step III-B).
//!
//! All couriers' stay points are clustered with centroid-linkage
//! hierarchical clustering under a distance threshold `D` (paper default
//! 40 m); each cluster centroid becomes a *location candidate* carrying a
//! profile: average stay duration, number of distinct couriers, and a 24-bin
//! hour-of-day visit distribution.
//!
//! The pool also remembers, per trip, which candidates the trip visited and
//! when — the raw material for candidate retrieval and the TC/LC features.
//!
//! The engine's [`PoolState`](crate::stages::PoolState) builds and updates
//! the pool incrementally as batches arrive (the deployed system's periodic
//! regeneration, Section V-F) and materializes it as a [`CandidatePool`]
//! after every ingest.

use dlinfma_detcol::OrdSet;
use dlinfma_geo::Point;
use dlinfma_synth::{CourierId, TripId};

/// Identifier of a location candidate within a [`CandidatePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CandidateId(pub u32);

/// Number of hour-of-day bins in the visit-time distribution.
pub const TIME_BINS: usize = 24;

/// Aggregated description of a location candidate (Section III-B profiles).
#[derive(Debug, Clone, PartialEq)]
pub struct LocationProfile {
    /// Mean dwell duration of the member stay points, seconds.
    pub avg_duration_s: f64,
    /// Number of distinct couriers who have stayed here.
    pub n_couriers: usize,
    /// Hour-of-day distribution of visits, normalized to sum 1.
    pub time_distribution: [f64; TIME_BINS],
    /// Number of member stay points.
    pub n_stays: usize,
}

/// A location candidate: a cluster centroid plus its profile.
#[derive(Debug, Clone)]
pub struct LocationCandidate {
    /// Identifier (dense index into the pool).
    pub id: CandidateId,
    /// Cluster centroid in the local metric frame.
    pub pos: Point,
    /// Aggregated profile.
    pub profile: LocationProfile,
}

/// The full candidate pool with per-trip visit records.
#[derive(Debug, Clone)]
pub struct CandidatePool {
    candidates: Vec<LocationCandidate>,
    /// Per trip (indexed by `TripId`), chronologically-sorted
    /// `(candidate, stay mid-time)` visits.
    trip_visits: Vec<Vec<(CandidateId, f64)>>,
}

impl CandidatePool {
    /// All candidates, ordered by id.
    pub fn candidates(&self) -> &[LocationCandidate] {
        &self.candidates
    }

    /// Candidate lookup by id.
    pub fn candidate(&self, id: CandidateId) -> &LocationCandidate {
        &self.candidates[id.0 as usize]
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// True when the pool has no candidates.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Chronological `(candidate, time)` visits of a trip.
    pub fn visits(&self, trip: TripId) -> &[(CandidateId, f64)] {
        &self.trip_visits[trip.0 as usize]
    }

    /// Number of trips tracked.
    pub fn n_trips(&self) -> usize {
        self.trip_visits.len()
    }

    /// Assembles a pool from already-materialized parts (the staged engine's
    /// path).
    pub(crate) fn from_parts(
        candidates: Vec<LocationCandidate>,
        trip_visits: Vec<Vec<(CandidateId, f64)>>,
    ) -> Self {
        Self {
            candidates,
            trip_visits,
        }
    }
}

/// Internal aggregate of one growing candidate cluster.
#[derive(Debug, Clone)]
pub(crate) struct Agg {
    pub(crate) pos: Point,
    pub(crate) weight: usize,
    pub(crate) total_duration_s: f64,
    pub(crate) couriers: OrdSet<u32>,
    pub(crate) hist: [u32; TIME_BINS],
}

impl Agg {
    pub(crate) fn from_stay(
        pos: Point,
        duration: f64,
        courier: CourierId,
        hour_bin: usize,
    ) -> Self {
        let mut hist = [0u32; TIME_BINS];
        hist[hour_bin] += 1;
        let mut couriers = OrdSet::new();
        couriers.insert(courier.0);
        Self {
            pos,
            weight: 1,
            total_duration_s: duration,
            couriers,
            hist,
        }
    }

    pub(crate) fn merge_into(&mut self, other: &Agg) {
        // Position is recomputed by the clustering; only stats merge here.
        self.weight += other.weight;
        self.total_duration_s += other.total_duration_s;
        self.couriers.extend(other.couriers.iter().copied());
        for (a, b) in self.hist.iter_mut().zip(&other.hist) {
            *a += b;
        }
    }

    /// Finalizes the aggregate statistics into a candidate profile.
    pub(crate) fn profile(&self) -> LocationProfile {
        let total: u32 = self.hist.iter().sum();
        let mut dist = [0.0; TIME_BINS];
        if total > 0 {
            for (d, &h) in dist.iter_mut().zip(&self.hist) {
                *d = f64::from(h) / f64::from(total);
            }
        }
        LocationProfile {
            avg_duration_s: self.total_duration_s / self.weight.max(1) as f64,
            n_couriers: self.couriers.len(),
            time_distribution: dist,
            n_stays: self.weight,
        }
    }
}

pub(crate) fn hour_bin(t: f64) -> usize {
    let secs_of_day = t.rem_euclid(86_400.0);
    ((secs_of_day / 3_600.0) as usize).min(TIME_BINS - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DlInfMaConfig, ShardedEngine};
    use dlinfma_synth::{generate_with, world_config, Dataset, Preset, Scale, TripBatch};

    /// A three-station Tiny world fed to a fleet with one shard per
    /// station, so each shard's pool is exactly one station's candidates.
    fn station_pools() -> (dlinfma_synth::City, Dataset, ShardedEngine) {
        let mut wc = world_config(Preset::DowBJ, Scale::Tiny);
        wc.sim.n_stations = 3;
        let (city, ds) = generate_with(&wc, 0);
        let mut fleet = ShardedEngine::new(ds.addresses.clone(), DlInfMaConfig::fast(), 3);
        fleet.ingest(&TripBatch::full(&ds));
        (city, ds, fleet)
    }

    #[test]
    fn station_pools_are_valid_separated_and_visited_once_per_stay() {
        let (_, _, fleet) = station_pools();
        let d = fleet.config().clustering_distance_m;
        assert!(fleet.n_candidates() > 0);
        for shard in fleet.shards() {
            let pool = shard.pool();
            for (i, c) in pool.candidates().iter().enumerate() {
                assert_eq!(c.id.0 as usize, i, "dense ids");
                assert!(c.profile.avg_duration_s > 0.0);
                assert!(c.profile.n_couriers >= 1 && c.profile.n_stays >= 1);
                let sum: f64 = c.profile.time_distribution.iter().sum();
                assert!((sum - 1.0).abs() < 1e-9, "time distribution sums to {sum}");
                // Within one station, centroid linkage leaves no two
                // candidates closer than `D`.
                for b in &pool.candidates()[i + 1..] {
                    let dist = c.pos.distance(&b.pos);
                    assert!(dist >= d - 1e-6, "{:?},{:?} only {dist}m apart", c.id, b.id);
                }
            }
            let mut n_visits = 0;
            for t in 0..pool.n_trips() {
                let visits = pool.visits(TripId(t as u32));
                n_visits += visits.len();
                assert!(visits.windows(2).all(|w| w[0].1 <= w[1].1), "chronological");
                assert!(visits.iter().all(|&(c, _)| (c.0 as usize) < pool.len()));
            }
            assert_eq!(n_visits, shard.n_stays(), "one visit per stay");
        }
    }

    #[test]
    fn deliveries_produce_candidates_near_true_locations() {
        let (city, ds, fleet) = station_pools();
        let delivered: OrdSet<u32> = ds.waybills.iter().map(|w| w.address.0).collect();
        let near = delivered
            .iter()
            .filter(|&&a| {
                let gt = city.addresses[a as usize].true_delivery_location;
                let mut candidates = fleet.shards().iter().flat_map(|e| e.pool().candidates());
                candidates.any(|c| c.pos.distance(&gt) < 30.0)
            })
            .count();
        assert!(
            near * 10 >= delivered.len() * 8,
            "{near}/{} addresses have a nearby candidate",
            delivered.len()
        );
    }
}
