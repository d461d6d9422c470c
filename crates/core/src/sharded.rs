//! Fleet mode: one staged [`Engine`] per station shard, merged serving.
//!
//! The paper deploys DLInfMA *per delivery station* (Section VI): every
//! station runs its own pipeline over its own couriers' trajectories, and
//! the fleet's answers come from whichever station owns an address.
//! [`ShardedEngine`] reproduces that shape. Stations are assigned to
//! shards by `station_id % n_shards`, every day batch is partitioned with
//! [`dlinfma_synth::partition_by_station`] and fed to the shards in shard
//! order, and all shards run their parallel stages on one shared
//! work-stealing pool.
//!
//! # Determinism across shard counts
//!
//! The headline guarantee (pinned by `tests/sharded_parity.rs`): the merged
//! artifacts are **bit-identical at any shard count × any worker count**,
//! and a 1-shard fleet matches a plain [`Engine`] bit for bit. The argument
//! is compositional:
//!
//! * stay-point extraction is per-trip, and a shard's trips are a
//!   subsequence of the fleet's trip order, so each trip's stays are
//!   identical and same-station stays keep their relative order;
//! * clustering components never cross stations ([`crate::stages`]), so a
//!   shard re-clusters exactly the components a whole-fleet engine builds
//!   for its stations — same members in the same order, bitwise-same
//!   centroids and profiles;
//! * every per-address normalizer is scoped to the address's chosen
//!   station (station trip counts, building trip sets), so the sample an
//!   owning shard materializes equals the whole-fleet sample float for
//!   float;
//! * the merge rule below picks the same station's sample the whole-fleet
//!   engine's in-retrieval fallback picks.
//!
//! # Merge semantics (cross-shard fallback)
//!
//! An address's evidence may straddle stations — and therefore shards. Each
//! shard materializes a sample for the address from its *locally best*
//! station (most distinct evidence trips; falls back to its next station
//! when the best yields no candidates). [`ShardedEngine::merged_sample`]
//! then ranks the shards' samples by `(has candidates, evidence trips,
//! smallest station id)` and serves the top one. Because each shard's
//! sample is already the maximum of that key over the shard's own stations,
//! the fleet-level maximum equals the station a single whole-fleet engine
//! would choose — cross-shard fallback and in-engine station fallback are
//! the same rule applied at different granularities.
//!
//! One [`LocMatcher`] serves the whole fleet: the merged sample set is
//! shard-count-invariant, so the model trained on it is too.

use crate::engine::Engine;
use crate::features::AddressSample;
use crate::locmatcher::LocMatcher;
use crate::pipeline::DlInfMaConfig;
use dlinfma_detcol::OrdMap;
use dlinfma_geo::Point;
use dlinfma_obs::FleetIngestReport;
use dlinfma_pool::Pool;
use dlinfma_synth::{partition_by_station, Address, AddressId, Dataset, TripBatch, Waybill};
use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A fleet of station-sharded engines behind one serving surface; see the
/// module docs for the partitioning and merge semantics.
pub struct ShardedEngine {
    shards: Vec<Engine>,
    /// The one work-stealing pool all shards' parallel stages run on.
    exec: Arc<Pool>,
    /// The fleet-level model ([`LocMatcher`] is not `Clone`; predictions
    /// are pure reads, so one instance serves every shard's samples).
    model: Option<LocMatcher>,
    days_ingested: u32,
    /// Day batches ingested per shard — the per-shard snapshot epochs.
    shard_days: Vec<u32>,
    /// Persistent trip → shard routing, so waybills referencing trips from
    /// earlier batches reach the shard that ingested the trip.
    trip_shard: HashMap<u32, usize>,
}

impl ShardedEngine {
    /// A fleet of `n_shards` empty engines over a shared address universe,
    /// all running on one pool of `cfg.workers` workers.
    ///
    /// # Panics
    /// Panics if `n_shards` is zero, or if `cfg.clustering_distance_m`
    /// violates the clustering contract (same as [`Engine::new`]).
    pub fn new(addresses: Vec<Address>, cfg: DlInfMaConfig, n_shards: usize) -> Self {
        assert!(n_shards > 0, "n_shards must be at least 1");
        let exec = Arc::new(Pool::new(cfg.workers));
        let shards = (0..n_shards)
            .map(|_| Engine::with_executor(addresses.clone(), cfg, Arc::clone(&exec)))
            .collect();
        Self {
            shards,
            exec,
            model: None,
            days_ingested: 0,
            shard_days: vec![0; n_shards],
            trip_shard: HashMap::new(),
        }
    }

    /// Reassembles a fleet from restored shards — the resume path of
    /// [`crate::snapshot`]. `shards` must all share `exec` (the snapshot
    /// reader builds them that way) and `shard_days` must be parallel to
    /// them.
    pub(crate) fn from_restored(
        shards: Vec<Engine>,
        exec: Arc<Pool>,
        model: Option<LocMatcher>,
        days_ingested: u32,
        shard_days: Vec<u32>,
        trip_shard: HashMap<u32, usize>,
    ) -> Self {
        Self {
            shards,
            exec,
            model,
            days_ingested,
            shard_days,
            trip_shard,
        }
    }

    /// Snapshot view of the fleet-level routing state: per-shard day
    /// counts and the persistent trip → shard table.
    pub(crate) fn snap_state(&self) -> (&[u32], &HashMap<u32, usize>, Option<&LocMatcher>) {
        (&self.shard_days, &self.trip_shard, self.model.as_ref())
    }

    /// Number of station shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard engines, ascending by shard index.
    pub fn shards(&self) -> &[Engine] {
        &self.shards
    }

    /// One shard's engine.
    pub fn shard(&self, i: usize) -> &Engine {
        &self.shards[i]
    }

    /// The shared worker pool.
    pub fn executor(&self) -> &Pool {
        &self.exec
    }

    /// Day batches ingested by the fleet.
    pub fn days_ingested(&self) -> u32 {
        self.days_ingested
    }

    /// Day batches ingested per shard — the per-shard snapshot epochs.
    pub fn shard_epochs(&self) -> Vec<u64> {
        self.shard_days.iter().map(|&d| u64::from(d)).collect()
    }

    /// The configuration in effect (identical across shards).
    pub fn config(&self) -> &DlInfMaConfig {
        self.shards[0].config()
    }

    /// The shared address universe.
    pub fn addresses(&self) -> &[Address] {
        self.shards[0].addresses()
    }

    /// Total accepted trips across the fleet.
    pub fn n_trips(&self) -> usize {
        self.shards.iter().map(Engine::n_trips).sum()
    }

    /// Total extracted stay points across the fleet.
    pub fn n_stays(&self) -> usize {
        self.shards.iter().map(Engine::n_stays).sum()
    }

    /// Total candidates across the fleet's pools. Station-scoped clustering
    /// partitions the candidate set, so this equals a whole-fleet engine's
    /// pool size at any shard count.
    pub fn n_candidates(&self) -> usize {
        self.shards.iter().map(|e| e.pool().len()).sum()
    }

    /// Partitions one day batch by station, reroutes straggler waybills
    /// (trips ingested in earlier batches) to the shard that owns their
    /// trip, and ingests each shard's slice in shard order on the shared
    /// pool. Returns the per-shard reports.
    pub fn ingest(&mut self, batch: &TripBatch) -> FleetIngestReport {
        let n = self.shards.len();
        let mut parts = partition_by_station(batch, n);
        // The stateless partitioner sends waybills whose trip is not in the
        // batch to shard 0; reroute them from the persistent trip table so
        // cross-batch waybills land where their trip's evidence lives (an
        // unknown trip stays on shard 0 and is rejected there exactly once,
        // like a single engine would).
        if n > 1 {
            let in_batch: BTreeSet<u32> = batch.trips.iter().map(|t| t.id.0).collect();
            let mut strays: Vec<Waybill> = Vec::new();
            parts[0].waybills.retain(|w| {
                let stays_here = in_batch.contains(&w.trip.0);
                if !stays_here {
                    strays.push(w.clone());
                }
                stays_here
            });
            for w in strays {
                let s = self.trip_shard.get(&w.trip.0).copied().unwrap_or(0);
                parts[s].waybills.push(w);
            }
        }
        for t in &batch.trips {
            self.trip_shard.insert(t.id.0, t.station.0 as usize % n);
        }
        let mut rep = FleetIngestReport {
            day: batch.day,
            shards: Vec::with_capacity(n),
        };
        for (s, part) in parts.iter().enumerate() {
            let r = self.shards[s].ingest(part);
            self.shard_days[s] += 1;
            rep.shards.push((s as u32, r));
        }
        self.days_ingested += 1;
        rep
    }

    /// The fleet's answer for one address: `(owning shard, its sample)`.
    ///
    /// Shards' samples are ranked by `(has candidates, evidence trips,
    /// smallest station id)` — samples with candidates beat empty ones,
    /// then more evidence wins, ties go to the smaller station id. Station
    /// ids never repeat across shards, so the winner is unique. This is the
    /// cross-shard fallback: when the shard with the most evidence has no
    /// candidates for the address, a shard that does have candidates
    /// serves it instead.
    pub fn merged_sample(&self, addr: AddressId) -> Option<(usize, &AddressSample)> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.sample(addr).map(|s| (i, s)))
            .max_by_key(|(_, s)| (!s.candidates.is_empty(), s.n_deliveries, Reverse(s.station)))
    }

    /// One owner sample per address across the whole fleet, ascending by
    /// address id. This set is shard-count-invariant (see module docs), so
    /// anything derived from it — notably the trained model — is too.
    pub fn merged_samples(&self) -> Vec<(usize, &AddressSample)> {
        let mut addrs: BTreeSet<AddressId> = BTreeSet::new();
        for e in &self.shards {
            for s in e.samples() {
                addrs.insert(s.address);
            }
        }
        addrs
            .into_iter()
            .filter_map(|a| self.merged_sample(a))
            .collect()
    }

    /// Labels the merged samples against the dataset's ground truth
    /// ([`AddressSample::label_nearest`], the same rule as
    /// `DlInfMa::label_with`), trains a [`LocMatcher`] on the given
    /// train/validation address ids, and installs it as the fleet model.
    /// Returns the number of labelled samples.
    pub fn train_with(
        &mut self,
        dataset: &Dataset,
        train: &[AddressId],
        val: &[AddressId],
    ) -> usize {
        let truths: OrdMap<AddressId, Point> = dataset
            .addresses
            .iter()
            .map(|a| (a.id, a.true_delivery_location))
            .collect();
        let mut samples: OrdMap<AddressId, AddressSample> = OrdMap::new();
        let mut labelled = 0usize;
        for (shard, s) in self.merged_samples() {
            let mut sample = s.clone();
            if let Some(truth) = truths.get(&sample.address) {
                sample.label_nearest(self.shards[shard].pool(), truth);
                labelled += usize::from(sample.label.is_some());
            }
            samples.insert(sample.address, sample);
        }
        let collect = |ids: &[AddressId]| -> Vec<AddressSample> {
            ids.iter()
                .filter_map(|a| samples.get(a))
                .filter(|s| s.label.is_some())
                .cloned()
                .collect()
        };
        let train_samples = collect(train);
        let val_samples = collect(val);
        let mut model = LocMatcher::new(self.config().model);
        model.train_pooled(&train_samples, &val_samples, &self.exec);
        self.model = Some(model);
        labelled
    }

    /// Installs an externally-trained fleet model.
    pub fn set_model(&mut self, model: LocMatcher) {
        self.model = Some(model);
    }

    /// The fleet model, if any.
    pub fn model(&self) -> Option<&LocMatcher> {
        self.model.as_ref()
    }

    /// Inferred delivery location of an address through the merged index:
    /// the owning shard's sample scored by the fleet model, resolved
    /// against the owning shard's candidate pool. `None` when no shard has
    /// a sample with candidates or no model is installed.
    pub fn infer(&self, addr: AddressId) -> Option<Point> {
        let model = self.model.as_ref()?;
        let (shard, sample) = self.merged_sample(addr)?;
        let idx = model.predict(sample)?;
        Some(
            self.shards[shard]
                .pool()
                .candidate(sample.candidates[idx])
                .pos,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlinfma_synth::{generate_with, world_config, Preset, Scale};

    fn fast_cfg() -> DlInfMaConfig {
        let mut cfg = DlInfMaConfig::fast();
        cfg.workers = 2;
        cfg
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_shards_panics() {
        let _ = ShardedEngine::new(Vec::new(), fast_cfg(), 0);
    }

    #[test]
    fn fleet_totals_match_a_single_engine() {
        let mut cfg = world_config(Preset::DowBJ, Scale::Tiny);
        cfg.sim.n_stations = 3;
        let (_, ds) = generate_with(&cfg, 21);

        let mut single = Engine::new(ds.addresses.clone(), fast_cfg());
        let mut fleet = ShardedEngine::new(ds.addresses.clone(), fast_cfg(), 2);
        for batch in dlinfma_synth::replay(&ds) {
            single.ingest(&batch);
            let rep = fleet.ingest(&batch);
            assert_eq!(rep.shards.len(), 2);
        }
        assert_eq!(fleet.n_trips(), single.n_trips());
        assert_eq!(fleet.n_stays(), single.n_stays());
        assert_eq!(fleet.n_candidates(), single.pool().len());
        assert_eq!(
            fleet.shard_epochs(),
            vec![u64::from(fleet.days_ingested()); 2]
        );
    }

    #[test]
    fn straggler_waybills_reach_their_trips_shard() {
        let mut cfg = world_config(Preset::DowBJ, Scale::Tiny);
        cfg.sim.n_stations = 3;
        let (_, ds) = generate_with(&cfg, 22);
        let batches: Vec<TripBatch> = dlinfma_synth::replay(&ds).collect();
        assert!(batches.len() >= 2);

        // Replay with every waybill delayed by one day: each batch carries
        // the previous day's waybills, so every one is a straggler.
        let mut fleet = ShardedEngine::new(ds.addresses.clone(), fast_cfg(), 2);
        let mut single = Engine::new(ds.addresses.clone(), fast_cfg());
        let mut pending: Vec<Waybill> = Vec::new();
        for b in &batches {
            let shifted = TripBatch {
                day: b.day,
                trips: b.trips.clone(),
                waybills: std::mem::replace(&mut pending, b.waybills.clone()),
                stations: b.stations.clone(),
            };
            let rep = fleet.ingest(&shifted);
            let srep = single.ingest(&shifted);
            let agg = rep.aggregate();
            // No waybill is lost or double-rejected relative to one engine.
            assert_eq!(agg.waybills, srep.waybills);
            assert_eq!(agg.rejected_waybills, srep.rejected_waybills);
        }
        assert!(fleet
            .merged_samples()
            .iter()
            .any(|(_, s)| s.n_deliveries > 0));
    }
}
