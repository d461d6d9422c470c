//! Incremental per-address delivery evidence.
//!
//! Retrieval (pipeline step III-C) needs, per address, the trips that
//! delivered to it and the recorded delivery time in each: the recorded
//! time is a temporal upper bound, and an address's candidates are the
//! locations its trips visited no later than that bound. A delayed
//! confirmation can only push the bound later, so the actual delivery
//! location always stays in the retrieved set — the key robustness
//! property versus annotation-based methods.
//!
//! The engine maintains that evidence incrementally from streamed
//! waybills: per-address temporal upper bounds (the latest recorded
//! delivery time per trip) plus the building-level and address-level trip
//! sets Equation 2's normalization needs.
//!
//! Trip counts and building trip sets are *station-scoped*: the paper
//! deploys DLInfMA per delivery station, so normalizers count only the
//! trips of an address's own station. That makes every derived quantity a
//! function of one station's data alone — the property that lets
//! [`ShardedEngine`](crate::ShardedEngine) split the fleet by station
//! without changing a single feature value.

use dlinfma_detcol::OrdMap;
use dlinfma_snap::{Dec, Enc, SnapError};
use dlinfma_synth::{AddressId, BuildingId, StationId, TripId};
use std::collections::{HashMap, HashSet};

/// The delivery evidence of one address: the trips that served it and the
/// recorded-time bound in each.
#[derive(Debug, Clone)]
pub struct AddressEvidence {
    /// The address.
    pub address: AddressId,
    /// `(trip, recorded delivery time bound)`, ascending by trip — if
    /// several waybills for the address share a trip, the latest recorded
    /// time is the bound.
    pub trips: Vec<(TripId, f64)>,
}

/// Accumulated evidence across every ingested waybill.
#[derive(Debug, Default)]
pub struct RetrievalIndex {
    /// Per address: per trip, the latest recorded delivery time (the
    /// retrieval bound).
    bounds: HashMap<AddressId, HashMap<TripId, f64>>,
    /// Trips that delivered to each building, per departing station.
    building_trips: HashMap<(BuildingId, StationId), HashSet<TripId>>,
    /// Trips that delivered to each address.
    address_trips: HashMap<AddressId, HashSet<TripId>>,
    /// Accepted trips per station (the live `n_trips` of Equation 2,
    /// station-scoped).
    trips_per_station: OrdMap<StationId, usize>,
    /// Accepted trips so far, all stations.
    n_trips: usize,
}

impl RetrievalIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one accepted trip departing from `station`.
    pub fn note_trip(&mut self, station: StationId) {
        self.n_trips += 1;
        *self.trips_per_station.entry(station).or_insert(0) += 1;
    }

    /// Total accepted trips, all stations.
    pub fn n_trips(&self) -> usize {
        self.n_trips
    }

    /// Accepted trips departing from `station`.
    pub fn n_trips_in(&self, station: StationId) -> usize {
        self.trips_per_station.get(&station).copied().unwrap_or(0)
    }

    /// Folds one waybill into the evidence: the bound starts at `-inf` and
    /// takes the maximum recorded time.
    /// `station` is the delivering trip's departure station.
    pub fn add_waybill(
        &mut self,
        address: AddressId,
        building: BuildingId,
        trip: TripId,
        t_recorded: f64,
        station: StationId,
    ) {
        let bound = self
            .bounds
            .entry(address)
            .or_default()
            .entry(trip)
            .or_insert(f64::NEG_INFINITY);
        *bound = bound.max(t_recorded);
        self.building_trips
            .entry((building, station))
            .or_default()
            .insert(trip);
        self.address_trips.entry(address).or_default().insert(trip);
    }

    /// The evidence of one address (trips sorted by id), or `None` when the
    /// address has no ingested waybills.
    pub fn evidence(&self, address: AddressId) -> Option<AddressEvidence> {
        let per_trip = self.bounds.get(&address)?;
        let mut trips: Vec<(TripId, f64)> = per_trip.iter().map(|(&t, &b)| (t, b)).collect();
        trips.sort_by_key(|(t, _)| *t);
        Some(AddressEvidence { address, trips })
    }

    /// Addresses with at least one waybill, sorted.
    pub fn addresses(&self) -> Vec<AddressId> {
        let mut out: Vec<AddressId> = self.bounds.keys().copied().collect();
        out.sort_unstable();
        out
    }

    /// Number of addresses with evidence.
    pub fn n_addresses(&self) -> usize {
        self.bounds.len()
    }

    /// Trips departing `station` that delivered to `building`.
    pub fn building_station_trips(
        &self,
        building: BuildingId,
        station: StationId,
    ) -> Option<&HashSet<TripId>> {
        self.building_trips.get(&(building, station))
    }

    /// Trips that delivered to `address`.
    pub fn address_trips(&self, address: AddressId) -> Option<&HashSet<TripId>> {
        self.address_trips.get(&address)
    }

    /// Encodes the evidence for a snapshot. Every hash container is
    /// flattened and sorted first, so the bytes are a pure function of the
    /// folded waybills — hash-iteration order never reaches the file.
    pub(crate) fn snap_encode(&self, e: &mut Enc) {
        let mut bound_rows: Vec<(u32, Vec<(u32, f64)>)> = self
            .bounds
            .iter()
            .map(|(a, per)| {
                let mut trips: Vec<(u32, f64)> = per.iter().map(|(t, &b)| (t.0, b)).collect();
                trips.sort_unstable_by_key(|&(t, _)| t);
                (a.0, trips)
            })
            .collect();
        bound_rows.sort_unstable_by_key(|&(a, _)| a);
        e.usize(bound_rows.len());
        for (a, trips) in &bound_rows {
            e.u32(*a);
            e.usize(trips.len());
            for &(t, b) in trips {
                e.u32(t);
                e.f64(b);
            }
        }

        let mut building_rows: Vec<((u32, u32), Vec<u32>)> = self
            .building_trips
            .iter()
            .map(|(&(b, s), trips)| {
                let mut ids: Vec<u32> = trips.iter().map(|t| t.0).collect();
                ids.sort_unstable();
                ((b.0, s.0), ids)
            })
            .collect();
        building_rows.sort_unstable_by_key(|&(k, _)| k);
        e.usize(building_rows.len());
        for ((b, s), trip_ids) in &building_rows {
            e.u32(*b);
            e.u32(*s);
            e.usize(trip_ids.len());
            for &t in trip_ids {
                e.u32(t);
            }
        }

        let mut address_rows: Vec<(u32, Vec<u32>)> = self
            .address_trips
            .iter()
            .map(|(a, trips)| {
                let mut ids: Vec<u32> = trips.iter().map(|t| t.0).collect();
                ids.sort_unstable();
                (a.0, ids)
            })
            .collect();
        address_rows.sort_unstable_by_key(|&(a, _)| a);
        e.usize(address_rows.len());
        for (a, trip_ids) in &address_rows {
            e.u32(*a);
            e.usize(trip_ids.len());
            for &t in trip_ids {
                e.u32(t);
            }
        }

        e.usize(self.trips_per_station.len());
        for (s, &n) in &self.trips_per_station {
            e.u32(s.0);
            e.usize(n);
        }
        e.usize(self.n_trips);
    }

    /// Decodes a snapshot produced by [`RetrievalIndex::snap_encode`].
    /// Never panics on hostile bytes.
    pub(crate) fn snap_decode(d: &mut Dec) -> Result<Self, SnapError> {
        let mut bounds: HashMap<AddressId, HashMap<TripId, f64>> = HashMap::new();
        let n_bounds = d.seq_len(12)?;
        for _ in 0..n_bounds {
            let a = AddressId(d.u32()?);
            let n_trips = d.seq_len(12)?;
            let mut per: HashMap<TripId, f64> = HashMap::with_capacity(n_trips);
            for _ in 0..n_trips {
                let t = TripId(d.u32()?);
                per.insert(t, d.f64()?);
            }
            if bounds.insert(a, per).is_some() {
                return Err(SnapError::Malformed {
                    what: "duplicate address in evidence bounds",
                });
            }
        }

        let mut building_trips: HashMap<(BuildingId, StationId), HashSet<TripId>> = HashMap::new();
        let n_buildings = d.seq_len(16)?;
        for _ in 0..n_buildings {
            let b = BuildingId(d.u32()?);
            let s = StationId(d.u32()?);
            let n_ids = d.seq_len(4)?;
            let mut trip_set: HashSet<TripId> = HashSet::with_capacity(n_ids);
            for _ in 0..n_ids {
                trip_set.insert(TripId(d.u32()?));
            }
            if building_trips.insert((b, s), trip_set).is_some() {
                return Err(SnapError::Malformed {
                    what: "duplicate building in trip index",
                });
            }
        }

        let mut address_trips: HashMap<AddressId, HashSet<TripId>> = HashMap::new();
        let n_addresses = d.seq_len(12)?;
        for _ in 0..n_addresses {
            let a = AddressId(d.u32()?);
            let n_ids = d.seq_len(4)?;
            let mut trip_set: HashSet<TripId> = HashSet::with_capacity(n_ids);
            for _ in 0..n_ids {
                trip_set.insert(TripId(d.u32()?));
            }
            if address_trips.insert(a, trip_set).is_some() {
                return Err(SnapError::Malformed {
                    what: "duplicate address in trip index",
                });
            }
        }

        let mut trips_per_station: OrdMap<StationId, usize> = OrdMap::new();
        let n_stations = d.seq_len(12)?;
        for _ in 0..n_stations {
            let s = StationId(d.u32()?);
            trips_per_station.insert(s, d.usize()?);
        }
        let n_trips = d.usize()?;
        Ok(Self {
            bounds,
            building_trips,
            address_trips,
            trips_per_station,
            n_trips,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DlInfMaConfig, Engine};
    use dlinfma_detcol::OrdSet;
    use dlinfma_synth::{generate, inject_delays, DelayConfig, Preset, Scale, TripBatch};

    #[test]
    fn bounds_take_the_latest_recorded_time() {
        let mut idx = RetrievalIndex::new();
        let (a, b, t, s) = (AddressId(1), BuildingId(0), TripId(2), StationId(0));
        idx.add_waybill(a, b, t, 50.0, s);
        idx.add_waybill(a, b, t, 20.0, s);
        idx.add_waybill(a, b, TripId(1), 99.0, s);
        let ev = idx.evidence(a).expect("evidence exists");
        assert_eq!(ev.trips, vec![(TripId(1), 99.0), (TripId(2), 50.0)]);
        assert!(idx.evidence(AddressId(9)).is_none());
        assert_eq!(idx.address_trips(a).map(HashSet::len), Some(2));
        assert_eq!(idx.building_station_trips(b, s).map(HashSet::len), Some(2));
    }

    #[test]
    fn non_finite_recorded_times_keep_the_finite_maximum() {
        let mut idx = RetrievalIndex::new();
        let (a, b, t, s) = (AddressId(0), BuildingId(0), TripId(0), StationId(0));
        idx.add_waybill(a, b, t, f64::NAN, s);
        idx.add_waybill(a, b, t, 10.0, s);
        idx.add_waybill(a, b, t, f64::NAN, s);
        let ev = idx.evidence(a).expect("evidence exists");
        assert_eq!(ev.trips, vec![(t, 10.0)]);
    }

    #[test]
    fn trip_counts_and_building_trips_are_station_scoped() {
        let mut idx = RetrievalIndex::new();
        idx.note_trip(StationId(0));
        idx.note_trip(StationId(0));
        idx.note_trip(StationId(1));
        assert_eq!(idx.n_trips(), 3);
        assert_eq!(idx.n_trips_in(StationId(0)), 2);
        assert_eq!(idx.n_trips_in(StationId(1)), 1);
        assert_eq!(idx.n_trips_in(StationId(7)), 0);

        let b = BuildingId(4);
        idx.add_waybill(AddressId(0), b, TripId(0), 1.0, StationId(0));
        idx.add_waybill(AddressId(1), b, TripId(2), 2.0, StationId(1));
        assert_eq!(
            idx.building_station_trips(b, StationId(0))
                .map(HashSet::len),
            Some(1)
        );
        assert_eq!(
            idx.building_station_trips(b, StationId(1))
                .map(HashSet::len),
            Some(1)
        );
        assert!(idx.building_station_trips(b, StationId(2)).is_none());
    }

    /// Retrieval on the engine: a one-station Tiny world under the given
    /// delay sweep (same trips, so the same stays and candidate pool).
    fn delayed_engine(severity: f64) -> (dlinfma_synth::Dataset, Engine) {
        use rand::SeedableRng;
        let (_, mut ds) = generate(Preset::DowBJ, Scale::Tiny, 4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        inject_delays(&mut ds, &DelayConfig::sweep(severity), &mut rng);
        let mut engine = Engine::new(ds.addresses.clone(), DlInfMaConfig::fast());
        engine.ingest(&TripBatch::full(&ds));
        (ds, engine)
    }

    #[test]
    fn every_delivered_address_is_sampled_once_within_its_bounds() {
        let (ds, engine) = delayed_engine(0.0);
        let delivered: OrdSet<AddressId> = ds.waybills.iter().map(|w| w.address).collect();
        let sampled: OrdSet<AddressId> = engine.samples().map(|s| s.address).collect();
        assert_eq!(engine.samples().count(), sampled.len());
        assert_eq!(sampled, delivered);
        for s in engine.samples() {
            let ev = engine.evidence(s.address).expect("sampled address");
            for &c in &s.candidates {
                // Visited at or before the bound in at least one trip.
                let visits = |&(trip, bound): &(TripId, f64)| {
                    let mut v = engine.pool().visits(trip).iter();
                    v.any(|&(cc, t)| cc == c && t <= bound)
                };
                let in_bound = ev.trips.iter().any(visits);
                assert!(in_bound, "{c:?} visited only after the bound");
            }
        }
    }

    #[test]
    fn heavier_delays_never_shrink_the_candidate_set() {
        // The recorded time only moves later under delays, so the retrieved
        // set can only grow — the property that makes the method robust.
        let (_, light) = delayed_engine(0.0);
        let (_, heavy) = delayed_engine(1.0);
        assert_eq!(light.n_stays(), heavy.n_stays(), "same trips, same pool");
        for (sl, sh) in light.samples().zip(heavy.samples()) {
            assert_eq!(sl.address, sh.address);
            let kept = sl.candidates.iter().all(|c| sh.candidates.contains(c));
            assert!(kept, "delays shrank the candidates of {:?}", sl.address);
        }
    }
}
