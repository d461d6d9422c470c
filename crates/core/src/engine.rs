//! The incremental staged engine.
//!
//! [`Engine`] runs the DLInfMA pipeline the way the deployed system does
//! (Section VI): trips arrive in batches, and each [`Engine::ingest`]
//! updates the staged artifacts in place instead of recomputing the world —
//!
//! * stay points are extracted for the *new* trips only;
//! * the candidate pool re-clusters only the radius-`D` components touched
//!   by new stays ([`stages::PoolState`]);
//! * retrieval and feature counting re-run only for *dirty* addresses:
//!   addresses with new waybills plus addresses referencing a candidate
//!   whose member set changed ([`stages::SampleTable`]);
//! * the classic batch artifacts ([`CandidatePool`], [`AddressSample`]s)
//!   are materialized after every ingest, so a fleet built from engines
//!   serves between ingests and `DlInfMa::prepare` is just one big ingest.
//!
//! Streaming the same trips day by day or ingesting them in one batch
//! yields identical artifacts — see `DESIGN.md` for why each invalidation
//! rule is exact. The engine's API is panic-free on data: malformed input
//! (duplicate trips, waybills for unknown trips or out-of-range addresses)
//! is counted in the [`IngestReport`] rather than panicking.
//!
//! [`stages::PoolState`]: crate::stages::PoolState
//! [`stages::SampleTable`]: crate::stages::SampleTable

use crate::candidates::{hour_bin, CandidateId, CandidatePool, LocationCandidate};
use crate::features::{AddressSample, CandidateFeatures};
use crate::locmatcher::LocMatcher;
use crate::pipeline::DlInfMaConfig;
use crate::stages::{
    AddressEvidence, PoolState, RawSample, RetrievalIndex, SampleTable, StayPointSet, StayRec,
};
use crate::staypoints::extract_batch_with_stats;
use dlinfma_detcol::OrdMap;
use dlinfma_obs::{
    self as obs, names, stage, HealthMonitor, HealthReport, IngestReport, PipelineReport,
};
use dlinfma_pool::Pool;
use dlinfma_synth::{Address, AddressId, DeliveryTrip, StationId, TripBatch, TripId};
use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Cumulative per-stage nanoseconds across every ingest. Extraction keeps
/// both clocks: `noise`/`detect` are CPU sums across pool workers (the two
/// phases run fused per trip, so only their accumulated times are
/// separable), while `extract_wall` is the elapsed time of the whole
/// parallel extraction call.
#[derive(Debug, Default, Clone, Copy)]
struct StageNs {
    noise: u64,
    detect: u64,
    extract_wall: u64,
    cluster: u64,
    cluster_cpu: u64,
    retrieval: u64,
    features: u64,
}

/// Borrowed view of the staged state a snapshot persists; produced by
/// [`Engine::snap_state`], consumed by [`crate::snapshot`].
pub(crate) struct EngineSnapState<'a> {
    pub(crate) stays: &'a StayPointSet,
    pub(crate) pool_state: &'a PoolState,
    pub(crate) retrieval: &'a RetrievalIndex,
    pub(crate) table: &'a SampleTable,
    pub(crate) trip_station: &'a HashMap<u32, StationId>,
    pub(crate) cum_raw_points: u64,
    pub(crate) cum_filtered_points: u64,
    pub(crate) model: Option<&'a LocMatcher>,
}

/// The incremental DLInfMA engine; see the module docs.
pub struct Engine {
    cfg: DlInfMaConfig,
    addresses: Vec<Address>,
    stays: StayPointSet,
    pool_state: PoolState,
    retrieval: RetrievalIndex,
    table: SampleTable,
    /// Departure station of every accepted trip; doubles as the seen-trip
    /// set for duplicate rejection and lets waybills referencing trips from
    /// earlier batches recover their station.
    trip_station: HashMap<u32, StationId>,
    /// Length of the per-trip visit table (max ingested trip id + 1).
    visits_len: usize,
    /// Live `candidate key -> trips visiting it`, rebuilt each ingest.
    trips_by_key: HashMap<usize, HashSet<TripId>>,
    // Materialized artifacts, refreshed at the end of every ingest.
    pool: CandidatePool,
    samples: OrdMap<AddressId, AddressSample>,
    model: Option<LocMatcher>,
    report: PipelineReport,
    ns: StageNs,
    cum_raw_points: u64,
    cum_filtered_points: u64,
    /// The shared work-stealing pool every parallel stage runs on, built
    /// once from `cfg.workers` and reused across ingests (and handed to
    /// `DlInfMa` for training and inference). Named `exec` because `pool`
    /// is the candidate pool throughout this crate.
    exec: Arc<Pool>,
    /// Per-day ingest health monitor (funnel deltas, throughput, anomaly
    /// flags); fed once per [`Engine::ingest`], served by
    /// [`Engine::health_report`].
    health: HealthMonitor,
}

impl Engine {
    /// An empty engine over a known address universe.
    ///
    /// The model's feature switches are forced into lockstep with the
    /// engine's feature switches.
    ///
    /// # Panics
    /// Panics if `cfg.clustering_distance_m` is not strictly positive and
    /// finite (the clustering contract).
    pub fn new(addresses: Vec<Address>, cfg: DlInfMaConfig) -> Self {
        let workers = cfg.workers;
        Self::with_executor(addresses, cfg, Arc::new(Pool::new(workers)))
    }

    /// An empty engine running its parallel stages on an existing pool —
    /// the shard constructor, letting every shard of a
    /// [`ShardedEngine`](crate::ShardedEngine) share one set of workers.
    ///
    /// # Panics
    /// Panics if `cfg.clustering_distance_m` is not strictly positive and
    /// finite (the clustering contract).
    pub fn with_executor(addresses: Vec<Address>, cfg: DlInfMaConfig, exec: Arc<Pool>) -> Self {
        let mut cfg = cfg;
        cfg.model.features = cfg.features;
        Self {
            addresses,
            stays: StayPointSet::new(cfg.clustering_distance_m),
            pool_state: PoolState::new(cfg.pool_method, cfg.clustering_distance_m),
            retrieval: RetrievalIndex::new(),
            table: SampleTable::new(),
            trip_station: HashMap::new(),
            visits_len: 0,
            trips_by_key: HashMap::new(),
            pool: CandidatePool::from_parts(Vec::new(), Vec::new()),
            samples: OrdMap::new(),
            model: None,
            report: PipelineReport::new(),
            ns: StageNs::default(),
            cum_raw_points: 0,
            cum_filtered_points: 0,
            exec,
            health: HealthMonitor::default(),
            cfg,
        }
    }

    /// The shared thread pool the engine's parallel stages run on.
    pub fn executor(&self) -> &Pool {
        &self.exec
    }

    /// Ingests one batch of trips and waybills, updating every staged
    /// artifact and re-materializing the pool and samples.
    pub fn ingest(&mut self, batch: &TripBatch) -> IngestReport {
        let _ingest_span = obs::trace_span(names::ENGINE_INGEST);
        let pool_before = self.exec.telemetry();
        let mut rep = IngestReport {
            day: batch.day,
            total_addresses: self.addresses.len() as u64,
            ..IngestReport::default()
        };

        // --- Stage 1: stay-point extraction, new trips only. -------------
        let accepted: Vec<&DeliveryTrip> = batch
            .trips
            .iter()
            .filter(|t| {
                let fresh = match self.trip_station.entry(t.id.0) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(t.station);
                        true
                    }
                    std::collections::hash_map::Entry::Occupied(_) => false,
                };
                if !fresh {
                    rep.rejected_trips += 1;
                }
                fresh
            })
            .collect();
        let owned_trips: Vec<DeliveryTrip>;
        let trips_slice: &[DeliveryTrip] = if rep.rejected_trips == 0 {
            &batch.trips
        } else {
            owned_trips = accepted.iter().map(|t| (*t).clone()).collect();
            &owned_trips
        };
        let t = obs::Stopwatch::start();
        let extract_span = obs::trace_span(names::ENGINE_EXTRACT);
        let (trip_stays, stats) =
            extract_batch_with_stats(trips_slice, &self.cfg.extraction, &self.exec);
        drop(extract_span);
        let extract_wall = t.elapsed_ns();
        obs::record_duration(stage::NOISE_FILTER, stats.noise_filter_ns);
        obs::record_duration(stage::STAY_POINTS, stats.detect_ns);
        self.ns.noise += stats.noise_filter_ns;
        self.ns.detect += stats.detect_ns;
        self.ns.extract_wall += extract_wall;
        self.cum_raw_points += stats.raw_points;
        self.cum_filtered_points += stats.filtered_points;
        rep.trips = accepted.len() as u64;
        rep.new_stays = stats.stay_points;
        // Wall clock and summed-per-worker CPU diverge at workers > 1; the
        // report carries both so throughput math stays honest.
        rep.extraction_ns = extract_wall;
        rep.extraction_cpu_ns = stats.noise_filter_ns + stats.detect_ns;

        let new_start = self.stays.len();
        for (trip, ts) in accepted.iter().zip(&trip_stays) {
            self.retrieval.note_trip(trip.station);
            self.visits_len = self.visits_len.max(trip.id.0 as usize + 1);
            for sp in &ts.stays {
                self.stays.push(StayRec {
                    trip: trip.id,
                    pos: sp.pos,
                    mid_time: sp.mid_time(),
                    duration_s: sp.duration(),
                    hour_bin: hour_bin(sp.mid_time()),
                    courier: trip.courier,
                    station: trip.station,
                });
            }
        }

        // --- Stage 2: incremental clustering of touched components. ------
        let t = obs::Stopwatch::start();
        let delta = {
            let _span = obs::span(stage::CLUSTERING);
            self.pool_state
                .update(&mut self.stays, new_start, &self.exec)
        };
        rep.clustering_ns = t.elapsed_ns();
        rep.clustering_cpu_ns = delta.cluster_stats.cpu_ns();
        self.ns.cluster += rep.clustering_ns;
        self.ns.cluster_cpu += rep.clustering_cpu_ns;
        rep.clusters_added = delta.added;
        rep.clusters_removed = delta.removed;

        // --- Waybills: evidence + the waybill side of the dirty set. -----
        let mut dirty: BTreeSet<AddressId> = BTreeSet::new();
        for w in &batch.waybills {
            let Some(&station) = self.trip_station.get(&w.trip.0) else {
                rep.rejected_waybills += 1;
                continue;
            };
            let Some(addr) = self.addresses.get(w.address.0 as usize) else {
                rep.rejected_waybills += 1;
                continue;
            };
            self.retrieval.add_waybill(
                w.address,
                addr.building,
                w.trip,
                w.t_recorded_delivery,
                station,
            );
            dirty.insert(w.address);
            rep.waybills += 1;
        }

        // --- Dirty set: waybill addresses ∪ changed-candidate referrers. -
        for a in self.table.addresses_referencing(&delta.changed_keys) {
            dirty.insert(a);
        }
        rep.dirty_addresses = dirty.len() as u64;
        obs::trace_counter(names::ENGINE_DIRTY_ADDRESSES, dirty.len() as f64);

        // --- Stage 3: retrieval, dirty addresses only. --------------------
        // One stopwatch per stage (not per address): the live visit index
        // is rebuilt once, then each dirty address re-retrieves.
        let t = obs::Stopwatch::start();
        self.trips_by_key.clear();
        for (i, rec) in self.stays.recs().iter().enumerate() {
            self.trips_by_key
                .entry(self.pool_state.key_of(i))
                .or_default()
                .insert(rec.trip);
        }
        let cand_hist = obs::enabled().then(|| {
            obs::histogram(
                names::RETRIEVAL_CANDIDATE_SET_SIZE,
                // lint: allow(L3, bucket edge in a 1-2-5 series of counts, not the 20 m stay radius)
                &[1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0],
            )
        });
        // Each dirty address retrieves independently against the read-only
        // stay/assignment state, so the scan fans out across the pool;
        // `par_map` keeps the results in `dirty`'s (sorted) order, and the
        // histogram is fed from the collected results to keep the obs
        // collector single-writer.
        //
        // Retrieval is scoped to one station per address, mirroring the
        // paper's per-station deployment: stations are ranked by distinct
        // evidence trips (descending, tie-break smallest id) and the first
        // station whose trips yield any candidate keys wins; when every
        // station comes up empty the top-ranked ("primary") station is kept
        // with an empty candidate set. Only the chosen station's trips
        // contribute keys, and its trip count becomes the trip-coverage
        // denominator — the invariant that makes the sample identical
        // whether this engine saw the whole fleet or only one station's
        // shard, and the in-engine twin of `ShardedEngine`'s cross-shard
        // fallback.
        let dirty_list: Vec<AddressId> = dirty.iter().copied().collect();
        let (retrieval, stays, pool_state, trip_station) = (
            &self.retrieval,
            &self.stays,
            &self.pool_state,
            &self.trip_station,
        );
        let retrieved: Vec<(AddressId, Vec<usize>, StationId, u32)> = self
            .exec
            .par_map(&dirty_list, |&a| {
                let _span = obs::trace_span(names::ENGINE_RETRIEVE_ADDRESS);
                let ev = retrieval.evidence(a)?;
                let mut per_station: OrdMap<StationId, u32> = OrdMap::new();
                for &(trip, _) in &ev.trips {
                    if let Some(&st) = trip_station.get(&trip.0) {
                        *per_station.entry(st).or_insert(0) += 1;
                    }
                }
                let mut ranked: Vec<(StationId, u32)> = per_station.into_iter().collect();
                ranked.sort_unstable_by_key(|&(s, c)| (Reverse(c), s));
                let mut chosen: Option<(Vec<usize>, StationId, u32)> = None;
                for &(station, count) in &ranked {
                    let mut keys: Vec<usize> = Vec::new();
                    for &(trip, bound) in &ev.trips {
                        if trip_station.get(&trip.0) != Some(&station) {
                            continue;
                        }
                        for &si in stays.stays_of_trip(trip) {
                            if stays.rec(si).mid_time <= bound {
                                keys.push(pool_state.key_of(si));
                            }
                        }
                    }
                    keys.sort_unstable();
                    keys.dedup();
                    if !keys.is_empty() {
                        chosen = Some((keys, station, count));
                        break;
                    }
                    if chosen.is_none() {
                        chosen = Some((keys, station, count));
                    }
                }
                let (keys, station, n_addr_trips) = chosen?;
                Some((a, keys, station, n_addr_trips))
            })
            .into_iter()
            .flatten()
            .collect();
        if let Some(h) = &cand_hist {
            for (_, keys, _, _) in &retrieved {
                h.observe(keys.len() as f64);
            }
        }
        rep.retrieval_ns = t.elapsed_ns();
        self.ns.retrieval += rep.retrieval_ns;
        obs::record_duration(stage::RETRIEVAL, rep.retrieval_ns);

        // --- Stage 4: raw feature counts, dirty addresses only. ----------
        // Counting reads only the retrieval index and the live visit index;
        // the table writes happen serially afterwards, in address order.
        let t = obs::Stopwatch::start();
        let (retrieval, addresses, trips_by_key) =
            (&self.retrieval, &self.addresses, &self.trips_by_key);
        let lc_address_level = self.cfg.features.lc_address_level;
        let counted: Vec<(AddressId, RawSample)> =
            self.exec
                .par_map(&retrieved, |(a, keys, station, n_addr_trips)| {
                    let _span = obs::trace_span(names::ENGINE_FEATURES_ADDRESS);
                    let (a, station, n_addr_trips) = (*a, *station, *n_addr_trips);
                    let empty: HashSet<TripId> = HashSet::new();
                    let addr_trips: HashSet<TripId> =
                        retrieval.address_trips(a).cloned().unwrap_or_default();
                    // Candidate trip sets are single-station (clustering
                    // never crosses stations), so intersecting with the
                    // address's full trip set or its primary-station subset
                    // yields the same counts — the full set is cheaper.
                    let exclude: &HashSet<TripId> = if lc_address_level {
                        retrieval.address_trips(a).unwrap_or(&empty)
                    } else {
                        let building = addresses[a.0 as usize].building;
                        retrieval
                            .building_station_trips(building, station)
                            .unwrap_or(&empty)
                    };
                    let mut tc_hits: Vec<u32> = Vec::with_capacity(keys.len());
                    let mut overlap_excl: Vec<u32> = Vec::with_capacity(keys.len());
                    for k in keys {
                        let cand_set = trips_by_key.get(k).unwrap_or(&empty);
                        tc_hits.push(
                            addr_trips.iter().filter(|t| cand_set.contains(t)).count() as u32
                        );
                        overlap_excl
                            .push(cand_set.iter().filter(|t| exclude.contains(t)).count() as u32);
                    }
                    (
                        a,
                        RawSample {
                            candidate_keys: keys.clone(),
                            tc_hits,
                            overlap_excl,
                            station,
                            n_addr_trips,
                        },
                    )
                });
        for (a, raw) in counted {
            self.table.replace(a, raw);
        }
        rep.features_ns = t.elapsed_ns();
        self.ns.features += rep.features_ns;
        obs::record_duration(stage::FEATURES, rep.features_ns);

        // --- Stage 5: materialize the batch artifacts from live state. ---
        let t = obs::Stopwatch::start();
        {
            let _span = obs::trace_span(names::ENGINE_MATERIALIZE);
            self.materialize();
        }
        rep.materialize_ns = t.elapsed_ns();
        self.ns.features += rep.materialize_ns;
        rep.pool_size = self.pool.len() as u64;
        obs::trace_counter(names::ENGINE_POOL_SIZE, rep.pool_size as f64);

        // Scheduler telemetry: the per-ingest delta rides on the ingest
        // report, the running totals on the pipeline report.
        let pool_after = self.exec.telemetry();
        rep.pool = Some(pool_after.minus(&pool_before));
        self.report.pool = Some(pool_after);

        self.refresh_report();
        self.health.observe(&rep, self.samples.len() as u64);
        rep
    }

    /// The per-day ingest health report (funnel deltas, throughput, anomaly
    /// flags) accumulated across every ingest so far.
    pub fn health_report(&self) -> HealthReport {
        self.health.report()
    }

    /// Rebuilds the materialized [`CandidatePool`] and [`AddressSample`]s
    /// from the staged state. Floating-point feature values are finalized
    /// here from the stored integer counts and live normalizers, which is
    /// what keeps clean addresses exact without recounting them.
    fn materialize(&mut self) {
        let mut snap = self.pool_state.snapshot();
        snap.sort_unstable_by_key(|(k, _, _)| *k);
        let key_to_id: OrdMap<usize, u32> = snap
            .iter()
            .enumerate()
            .map(|(i, (k, _, _))| (*k, i as u32))
            .collect();
        let candidates: Vec<LocationCandidate> = snap
            .into_iter()
            .enumerate()
            .map(|(i, (_, pos, profile))| LocationCandidate {
                id: CandidateId(i as u32),
                pos,
                profile,
            })
            .collect();
        let mut trip_visits: Vec<Vec<(CandidateId, f64)>> = vec![Vec::new(); self.visits_len];
        for (i, rec) in self.stays.recs().iter().enumerate() {
            if let Some(&id) = key_to_id.get(&self.pool_state.key_of(i)) {
                trip_visits[rec.trip.0 as usize].push((CandidateId(id), rec.mid_time));
            }
        }
        for visits in &mut trip_visits {
            visits.sort_by(|a, b| a.1.total_cmp(&b.1));
        }
        self.pool = CandidatePool::from_parts(candidates, trip_visits);

        // Every sample is a pure function of its own raw counts and the
        // shared read-only state, so the per-address finalization fans out
        // across the pool; each address's features are computed in one task,
        // so the floats are bitwise-identical at any worker count. All
        // normalizers are scoped to the sample's primary station, so they
        // are also identical at any *shard* count.
        let f = self.cfg.features;
        let entries: Vec<(AddressId, &RawSample)> =
            self.table.iter().map(|(&a, raw)| (a, raw)).collect();
        let (retrieval, addresses, trips_by_key, pool, key_to_id) = (
            &self.retrieval,
            &self.addresses,
            &self.trips_by_key,
            &self.pool,
            &key_to_id,
        );
        let built: Vec<(AddressId, AddressSample)> = self
            .exec
            .par_map(&entries, |&(a, raw)| {
                let addr = addresses.get(a.0 as usize)?;
                let n_addr_trips = raw.n_addr_trips as usize;
                let n_station_trips = retrieval.n_trips_in(raw.station);
                let exclude_len = if f.lc_address_level {
                    n_addr_trips
                } else {
                    retrieval
                        .building_station_trips(addr.building, raw.station)
                        .map_or(0, HashSet::len)
                };
                let mut ids: Vec<CandidateId> = Vec::with_capacity(raw.candidate_keys.len());
                let mut features: Vec<CandidateFeatures> =
                    Vec::with_capacity(raw.candidate_keys.len());
                for (j, &k) in raw.candidate_keys.iter().enumerate() {
                    let Some(&cid) = key_to_id.get(&k) else {
                        continue;
                    };
                    let cand = pool.candidate(CandidateId(cid));
                    let trips_c_len = trips_by_key.get(&k).map_or(0, HashSet::len);
                    let trip_coverage = if f.use_trip_coverage && n_addr_trips > 0 {
                        raw.tc_hits[j] as f64 / n_addr_trips as f64
                    } else {
                        0.0
                    };
                    let denom = n_station_trips.saturating_sub(exclude_len);
                    let location_commonality = if f.use_location_commonality && denom > 0 {
                        (trips_c_len - raw.overlap_excl[j] as usize) as f64 / denom as f64
                    } else {
                        0.0
                    };
                    let distance_m = if f.use_distance {
                        cand.pos.distance(&addr.geocode)
                    } else {
                        0.0
                    };
                    ids.push(CandidateId(cid));
                    features.push(CandidateFeatures {
                        trip_coverage,
                        location_commonality,
                        distance_m,
                        avg_duration_s: cand.profile.avg_duration_s,
                        n_couriers: cand.profile.n_couriers as f64,
                        n_stays: cand.profile.n_stays as f64,
                        time_distribution: cand.profile.time_distribution,
                    });
                }
                Some((
                    a,
                    AddressSample {
                        address: a,
                        station: raw.station,
                        candidates: ids,
                        features,
                        n_deliveries: n_addr_trips,
                        poi_category: addr.poi_category,
                        geocode: addr.geocode,
                        label: None,
                        truth_distances: None,
                    },
                ))
            })
            .into_iter()
            .flatten()
            .collect();
        self.samples.clear();
        self.samples.extend(built);
    }

    /// Refreshes the cumulative [`PipelineReport`] (stage durations and the
    /// funnel) from live totals, mirroring the batch pipeline's semantics.
    fn refresh_report(&mut self) {
        let candidates_retrieved: u64 = self
            .samples
            .values()
            .map(|s| s.candidates.len() as u64)
            .sum();
        let stays = self.stays.len() as u64;
        // The two extraction phases share one wall clock (they run fused per
        // trip across the pool), so the measured wall time is attributed to
        // each phase in proportion to its summed-CPU share, and the CPU sums
        // ride along so `--verbose` stays honest at workers > 1.
        let cpu_total = self.ns.noise + self.ns.detect;
        let noise_wall = if cpu_total == 0 {
            self.ns.extract_wall / 2
        } else {
            (self.ns.extract_wall as u128 * self.ns.noise as u128 / cpu_total as u128) as u64
        };
        let detect_wall = self.ns.extract_wall - noise_wall;
        self.report.push_stage_cpu(
            stage::NOISE_FILTER,
            noise_wall.max(1),
            Some(self.ns.noise),
            Some(self.cum_raw_points),
            Some(self.cum_filtered_points),
        );
        self.report.push_stage_cpu(
            stage::STAY_POINTS,
            detect_wall.max(1),
            Some(self.ns.detect),
            Some(self.cum_filtered_points),
            Some(stays),
        );
        // Clustering CPU is only measured by the hierarchical back-end's
        // merge instrumentation; grid mode reports wall time alone.
        let cluster_cpu = (self.ns.cluster_cpu > 0).then_some(self.ns.cluster_cpu);
        self.report.push_stage_cpu(
            stage::CLUSTERING,
            self.ns.cluster.max(1),
            cluster_cpu,
            Some(stays),
            Some(self.pool.len() as u64),
        );
        self.report.push_stage(
            stage::RETRIEVAL,
            self.ns.retrieval.max(1),
            Some(self.samples.len() as u64),
            Some(candidates_retrieved),
        );
        self.report.push_stage(
            stage::FEATURES,
            self.ns.features.max(1),
            Some(candidates_retrieved),
            Some(self.samples.len() as u64),
        );
        self.report.funnel.raw_points = self.cum_raw_points;
        self.report.funnel.filtered_points = self.cum_filtered_points;
        self.report.funnel.stay_points = stays;
        self.report.funnel.clusters = self.pool.len() as u64;
        self.report.funnel.candidates_retrieved = candidates_retrieved;
        self.report.funnel.addresses_sampled = self.samples.len() as u64;
    }

    /// The materialized candidate pool.
    pub fn pool(&self) -> &CandidatePool {
        &self.pool
    }

    /// The materialized sample of an address.
    pub fn sample(&self, addr: AddressId) -> Option<&AddressSample> {
        self.samples.get(&addr)
    }

    /// All materialized samples, ascending by address id.
    pub fn samples(&self) -> impl Iterator<Item = &AddressSample> {
        self.samples.values()
    }

    /// The delivery evidence of an address — its trips and the
    /// recorded-time bound in each — or `None` when no waybill for it was
    /// ingested.
    pub fn evidence(&self, addr: AddressId) -> Option<AddressEvidence> {
        self.retrieval.evidence(addr)
    }

    /// The engine's address universe.
    pub fn addresses(&self) -> &[Address] {
        &self.addresses
    }

    /// Total accepted trips across all ingests.
    pub fn n_trips(&self) -> usize {
        self.retrieval.n_trips()
    }

    /// Total extracted stay points across all ingests.
    pub fn n_stays(&self) -> usize {
        self.stays.len()
    }

    /// The configuration in effect.
    pub fn config(&self) -> &DlInfMaConfig {
        &self.cfg
    }

    /// The cumulative pipeline report across all ingests.
    pub fn report(&self) -> &PipelineReport {
        &self.report
    }

    /// Installs an externally-trained model; it travels with the engine's
    /// snapshot and into `DlInfMa::from_engine`.
    pub fn set_model(&mut self, model: LocMatcher) {
        self.model = Some(model);
    }

    /// The installed model, if any.
    pub fn model(&self) -> Option<&LocMatcher> {
        self.model.as_ref()
    }

    /// Removes and returns the installed model (a legacy single-engine
    /// checkpoint's model moving up to its fleet).
    pub(crate) fn take_model(&mut self) -> Option<LocMatcher> {
        self.model.take()
    }

    /// The shared worker pool handle, for fleets adopting this engine as a
    /// shard.
    pub(crate) fn exec_handle(&self) -> Arc<Pool> {
        Arc::clone(&self.exec)
    }

    /// Borrowed view of the staged state a snapshot persists; consumed by
    /// [`crate::snapshot`]. Deliberately excludes everything derived
    /// (materialized pool, samples, visit index) and everything
    /// observational (stage timings, health monitor, scheduler telemetry):
    /// snapshot bytes must be a pure function of the ingested data, and
    /// every excluded piece is either recomputable from what is here or
    /// wall-clock noise.
    pub(crate) fn snap_state(&self) -> EngineSnapState<'_> {
        EngineSnapState {
            stays: &self.stays,
            pool_state: &self.pool_state,
            retrieval: &self.retrieval,
            table: &self.table,
            trip_station: &self.trip_station,
            cum_raw_points: self.cum_raw_points,
            cum_filtered_points: self.cum_filtered_points,
            model: self.model.as_ref(),
        }
    }

    /// Reassembles an engine from decoded staged artifacts — the resume
    /// path of [`crate::snapshot`]. Derived state (the live visit index,
    /// the materialized pool and samples, the pipeline report) is rebuilt
    /// here exactly as an ingest would rebuild it; timing counters restart
    /// at zero because snapshots exclude observability state.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_restored(
        addresses: Vec<Address>,
        cfg: DlInfMaConfig,
        exec: Arc<Pool>,
        stays: StayPointSet,
        pool_state: PoolState,
        retrieval: RetrievalIndex,
        table: SampleTable,
        trip_station: HashMap<u32, StationId>,
        cum_raw_points: u64,
        cum_filtered_points: u64,
        model: Option<LocMatcher>,
    ) -> Self {
        let mut cfg = cfg;
        cfg.model.features = cfg.features;
        let visits_len = trip_station
            .keys()
            .map(|&t| t as usize + 1)
            .max()
            .unwrap_or(0);
        let mut engine = Self {
            addresses,
            stays,
            pool_state,
            retrieval,
            table,
            trip_station,
            visits_len,
            trips_by_key: HashMap::new(),
            pool: CandidatePool::from_parts(Vec::new(), Vec::new()),
            samples: OrdMap::new(),
            model,
            report: PipelineReport::new(),
            ns: StageNs::default(),
            cum_raw_points,
            cum_filtered_points,
            exec,
            health: HealthMonitor::default(),
            cfg,
        };
        for (i, rec) in engine.stays.recs().iter().enumerate() {
            engine
                .trips_by_key
                .entry(engine.pool_state.key_of(i))
                .or_default()
                .insert(rec.trip);
        }
        engine.materialize();
        engine.refresh_report();
        engine
    }

    /// Decomposes the engine into the batch pipeline's parts
    /// (`DlInfMa::from_engine`'s back end).
    pub(crate) fn into_parts(
        self,
    ) -> (
        DlInfMaConfig,
        CandidatePool,
        OrdMap<AddressId, AddressSample>,
        Option<LocMatcher>,
        PipelineReport,
        Arc<Pool>,
    ) {
        (
            self.cfg,
            self.pool,
            self.samples,
            self.model,
            self.report,
            self.exec,
        )
    }
}
