//! The delivery-location store (Section VI-A, Figure 14): immutable,
//! epoch-tagged snapshots for the serving layer.
//!
//! Inference runs offline; online queries hit a key-value store with the
//! three-level fallback chain deployed at JD Logistics:
//!
//! 1. the address-level inferred location;
//! 2. the *building-level* mostly-used delivery location (so brand-new
//!    addresses in a known building still resolve);
//! 3. the geocoded location.
//!
//! The deployed service answers queries *while* courier data keeps
//! arriving. The serving layer publishes an immutable [`LocationSnapshot`]
//! per materialize boundary and swaps an `Arc` inside a [`SnapshotCell`]:
//!
//! * **readers never block on ingest** — [`SnapshotCell::load`] clones an
//!   `Arc` under a read lock held for nanoseconds; snapshot *construction*
//!   (the expensive part) happens entirely outside the cell;
//! * **every query sees one consistent epoch** — a snapshot is frozen at
//!   build time and tagged with a monotonically increasing epoch when
//!   published, so a reader holding one can answer any number of lookups
//!   against a single coherent state and report which state that was.

use dlinfma_core::ShardedEngine;
use dlinfma_detcol::OrdMap;
use dlinfma_geo::Point;
use dlinfma_synth::{AddressId, BuildingId};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Which fallback level answered a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuerySource {
    /// Address-level inferred location.
    Address,
    /// Building-level mostly-used location.
    Building,
    /// Geocoded location.
    Geocode,
}

/// The three query tables of a snapshot: address-level inferences,
/// building-level votes, and the geocode universe.
type SnapshotTables = (
    HashMap<AddressId, Point>,
    HashMap<BuildingId, Point>,
    HashMap<AddressId, (BuildingId, Point)>,
);

/// One immutable, epoch-tagged view of the delivery-location tables.
///
/// Constructed from a quiescent [`ShardedEngine`] (between ingests) and
/// never mutated afterwards; cheap to share via `Arc`.
#[derive(Debug, Clone, Default)]
pub struct LocationSnapshot {
    epoch: u64,
    days_ingested: u32,
    n_candidates: usize,
    n_stays: usize,
    healthy: bool,
    anomalies: usize,
    /// Day batches ingested per source shard when the snapshot was frozen;
    /// empty for the pre-ingest snapshot. The snapshot itself is still
    /// published atomically — these only report how far each shard's
    /// ingest had progressed.
    shard_epochs: Vec<u64>,
    by_address: HashMap<AddressId, Point>,
    by_building: HashMap<BuildingId, Point>,
    geocodes: HashMap<AddressId, (BuildingId, Point)>,
}

impl LocationSnapshot {
    /// The empty pre-ingest snapshot (epoch 0 by convention). Healthy —
    /// nothing observed means nothing anomalous, matching how the obs
    /// `HealthReport::is_healthy` treats zero observed days.
    pub fn empty() -> Self {
        Self {
            healthy: true,
            ..Self::default()
        }
    }

    /// Freezes a [`ShardedEngine`]'s merged state into one snapshot.
    ///
    /// Address-level entries come from [`ShardedEngine::infer`] (the owning
    /// shard's sample scored by the fleet model, with cross-shard
    /// fallback; empty until a model is installed); building-level entries
    /// are the per-building mostly-used inferred location with ~1 m vote
    /// quantization; geocodes cover the whole address universe so the
    /// chain always bottoms out. Health is the conjunction of the shards'
    /// health reports; `shard_epochs` carries each shard's ingested-day
    /// count. The epoch is stamped later, at [`SnapshotCell::publish`]
    /// time — one atomic swap for the merged snapshot, never per-shard.
    pub fn from_sharded(fleet: &ShardedEngine, days_ingested: u32) -> Self {
        let (by_address, by_building, geocodes) = Self::build_tables(fleet);
        let (healthy, anomalies) = fleet.shards().iter().fold((true, 0), |(h, n), e| {
            let r = e.health_report();
            (h && r.is_healthy(), n + r.anomalies().len())
        });
        Self {
            epoch: 0,
            days_ingested,
            n_candidates: fleet.n_candidates(),
            n_stays: fleet.n_stays(),
            healthy,
            anomalies,
            shard_epochs: fleet.shard_epochs(),
            by_address,
            by_building,
            geocodes,
        }
    }

    /// The freeze rule: address entries from [`ShardedEngine::infer`],
    /// building entries as the per-building mostly-used inferred location
    /// with ~1 m vote quantization (ties go to the largest quantized key),
    /// geocodes over the whole universe.
    fn build_tables(fleet: &ShardedEngine) -> SnapshotTables {
        type Votes = OrdMap<(i64, i64), (usize, Point)>;
        let addresses = fleet.addresses();
        let mut by_address: HashMap<AddressId, Point> = HashMap::new();
        let mut building_votes: OrdMap<BuildingId, Votes> = OrdMap::new();
        for a in addresses {
            if let Some(p) = fleet.infer(a.id) {
                by_address.insert(a.id, p);
                let key = ((p.x * 1.0) as i64, (p.y * 1.0) as i64);
                let slot = building_votes
                    .entry(a.building)
                    .or_default()
                    .entry(key)
                    .or_insert((0, p));
                slot.0 += 1;
            }
        }
        let by_building = building_votes
            .into_iter()
            .filter_map(|(b, votes)| {
                votes
                    .into_iter()
                    .max_by_key(|(_, (n, _))| *n)
                    .map(|(_, (_, p))| (b, p))
            })
            .collect();
        let geocodes = addresses
            .iter()
            .map(|a| (a.id, (a.building, a.geocode)))
            .collect();
        (by_address, by_building, geocodes)
    }

    /// A snapshot over externally-built tables (no engine attached):
    /// health defaults to healthy, funnel counters to zero. Used by tests
    /// and by callers serving tables produced out-of-process.
    pub fn from_tables(
        by_address: HashMap<AddressId, Point>,
        by_building: HashMap<BuildingId, Point>,
        geocodes: HashMap<AddressId, (BuildingId, Point)>,
    ) -> Self {
        Self {
            healthy: true,
            by_address,
            by_building,
            geocodes,
            ..Self::default()
        }
    }

    /// Overrides the per-shard epoch markers — for snapshots built from
    /// externally-produced tables ([`LocationSnapshot::from_tables`]) where
    /// the caller knows how many source shards stood behind them.
    #[must_use]
    pub fn with_shard_epochs(mut self, shard_epochs: Vec<u64>) -> Self {
        self.shard_epochs = shard_epochs;
        self
    }

    /// Answers a query through the deployed fallback chain; `None` only for
    /// addresses entirely unknown to this snapshot's universe.
    pub fn query(&self, addr: AddressId) -> Option<(Point, QuerySource)> {
        if let Some(&p) = self.by_address.get(&addr) {
            return Some((p, QuerySource::Address));
        }
        let &(building, geocode) = self.geocodes.get(&addr)?;
        if let Some(&p) = self.by_building.get(&building) {
            return Some((p, QuerySource::Building));
        }
        Some((geocode, QuerySource::Geocode))
    }

    /// The publish epoch: 0 for the initial empty snapshot, then one more
    /// per [`SnapshotCell::publish`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Days the source engine had ingested when this snapshot was frozen.
    pub fn days_ingested(&self) -> u32 {
        self.days_ingested
    }

    /// Address-level entries (inferred locations).
    pub fn len(&self) -> usize {
        self.by_address.len()
    }

    /// True when no address-level inferences are present.
    pub fn is_empty(&self) -> bool {
        self.by_address.is_empty()
    }

    /// Addresses in the snapshot's universe (geocode table size).
    pub fn n_addresses(&self) -> usize {
        self.geocodes.len()
    }

    /// Candidate-pool size at freeze time.
    pub fn n_candidates(&self) -> usize {
        self.n_candidates
    }

    /// Extracted stay points at freeze time.
    pub fn n_stays(&self) -> usize {
        self.n_stays
    }

    /// Whether the source engine's health report was anomaly-free.
    pub fn healthy(&self) -> bool {
        self.healthy
    }

    /// Anomaly count in the source engine's health report.
    pub fn anomalies(&self) -> usize {
        self.anomalies
    }

    /// Day batches each source shard had ingested at freeze time — one
    /// entry per shard, empty for the pre-ingest snapshot.
    pub fn shard_epochs(&self) -> &[u64] {
        &self.shard_epochs
    }

    /// Number of engine shards behind this snapshot (0 for the pre-ingest
    /// snapshot).
    pub fn n_shards(&self) -> usize {
        self.shard_epochs.len()
    }
}

/// The reader/publisher rendezvous: one `Arc` slot swapped at materialize
/// boundaries.
///
/// The lock is only ever held for an `Arc` clone (read side) or a pointer
/// store (write side); all snapshot construction happens before
/// [`SnapshotCell::publish`] is called. Epochs are assigned here — not by
/// the builder — so they are monotonic no matter how many snapshots were
/// built concurrently or discarded.
#[derive(Debug)]
pub struct SnapshotCell {
    slot: RwLock<Arc<LocationSnapshot>>,
}

impl Default for SnapshotCell {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotCell {
    /// A cell holding the empty epoch-0 snapshot.
    pub fn new() -> Self {
        Self {
            slot: RwLock::new(Arc::new(LocationSnapshot::empty())),
        }
    }

    /// The current snapshot. Wait-free in practice: an `Arc` clone under a
    /// momentary read lock. Callers keep the returned `Arc` for as many
    /// queries as need one consistent view.
    pub fn load(&self) -> Arc<LocationSnapshot> {
        Arc::clone(&self.slot.read())
    }

    /// Atomically replaces the current snapshot, stamping it with the next
    /// epoch (previous epoch + 1). Returns the epoch assigned.
    pub fn publish(&self, mut snap: LocationSnapshot) -> u64 {
        let mut guard = self.slot.write();
        let epoch = guard.epoch + 1;
        snap.epoch = epoch;
        *guard = Arc::new(snap);
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlinfma_core::DlInfMaConfig;
    use dlinfma_synth::{generate, replay, spatial_split, Preset, Scale, TripBatch};

    /// A hand-built snapshot: addresses 0..n map to `(k, k)`, buildings and
    /// geocodes filled so the chain is exercisable.
    fn sentinel_snapshot(n: usize, k: f64) -> LocationSnapshot {
        let mut s = LocationSnapshot::empty();
        for i in 0..n {
            s.by_address.insert(AddressId(i as u32), Point::new(k, k));
            s.geocodes
                .insert(AddressId(i as u32), (BuildingId(0), Point::new(-1.0, -1.0)));
        }
        s
    }

    #[test]
    fn fallback_chain_order() {
        let mut s = LocationSnapshot::empty();
        s.by_address.insert(AddressId(0), Point::new(1.0, 1.0));
        s.by_building.insert(BuildingId(7), Point::new(2.0, 2.0));
        s.geocodes
            .insert(AddressId(0), (BuildingId(9), Point::new(3.0, 3.0)));
        s.geocodes
            .insert(AddressId(1), (BuildingId(7), Point::new(3.0, 3.0)));
        s.geocodes
            .insert(AddressId(2), (BuildingId(9), Point::new(3.0, 3.0)));

        let (p, src) = s.query(AddressId(0)).unwrap();
        assert_eq!((src, p.x), (QuerySource::Address, 1.0));
        let (p, src) = s.query(AddressId(1)).unwrap();
        assert_eq!((src, p.x), (QuerySource::Building, 2.0));
        let (p, src) = s.query(AddressId(2)).unwrap();
        assert_eq!((src, p.x), (QuerySource::Geocode, 3.0));
        assert!(s.query(AddressId(3)).is_none());
    }

    /// A trained 1-shard fleet's freeze answers through every level of the
    /// chain, and freezing the same fleet twice gives the same answers.
    #[test]
    fn trained_fleet_freeze_serves_the_fallback_chain() {
        let (_, ds) = generate(Preset::DowBJ, Scale::Tiny, 21);
        let split = spatial_split(&ds, 0.6, 0.2);
        let mut cfg = DlInfMaConfig::fast();
        cfg.model.max_epochs = 5;
        let mut fleet = ShardedEngine::new(ds.addresses.clone(), cfg, 1);
        fleet.ingest(&TripBatch::full(&ds));
        assert!(fleet.train_with(&ds, &split.train, &split.val) > 0);
        let snap = LocationSnapshot::from_sharded(&fleet, fleet.days_ingested());
        assert!(!snap.is_empty());

        // A delivered address answers at address level.
        let (_, src) = snap.query(ds.waybills[0].address).unwrap();
        assert_eq!(src, QuerySource::Address);

        // Undelivered addresses exist in a Tiny world, so at least one
        // address answers at building or geocode level.
        let lower = ds.addresses.iter().any(|a| {
            matches!(
                snap.query(a.id),
                Some((_, QuerySource::Building | QuerySource::Geocode))
            )
        });
        assert!(lower, "no address fell back below address level");

        let again = LocationSnapshot::from_sharded(&fleet, fleet.days_ingested());
        for a in &ds.addresses {
            assert_eq!(again.query(a.id), snap.query(a.id), "{:?}", a.id);
        }
    }

    #[test]
    fn publish_stamps_monotonic_epochs() {
        let cell = SnapshotCell::new();
        assert_eq!(cell.load().epoch(), 0);
        assert_eq!(cell.publish(sentinel_snapshot(1, 1.0)), 1);
        assert_eq!(cell.publish(sentinel_snapshot(1, 2.0)), 2);
        let snap = cell.load();
        assert_eq!(snap.epoch(), 2);
        let (p, _) = snap.query(AddressId(0)).unwrap();
        assert_eq!(p.x, 2.0);
    }

    #[test]
    fn from_sharded_without_model_serves_geocodes() {
        let (_, ds) = generate(Preset::DowBJ, Scale::Tiny, 3);
        let mut fleet = ShardedEngine::new(ds.addresses.clone(), DlInfMaConfig::fast(), 1);
        for batch in replay(&ds) {
            fleet.ingest(&batch);
        }
        let days = fleet.days_ingested();
        let snap = LocationSnapshot::from_sharded(&fleet, days);
        assert!(snap.is_empty(), "no model => no address-level entries");
        assert_eq!(snap.n_addresses(), ds.addresses.len());
        assert_eq!(snap.days_ingested(), days);
        assert_eq!(snap.shard_epochs(), &[u64::from(days)]);
        assert!(snap.n_candidates() > 0);
        let a = &ds.addresses[0];
        let (p, src) = snap.query(a.id).unwrap();
        assert_eq!(src, QuerySource::Geocode);
        assert_eq!((p.x, p.y), (a.geocode.x, a.geocode.y));
    }

    /// Freezing a 2-shard fleet gives the 1-shard fleet's snapshot: the
    /// same universe, funnel totals and answers, one epoch entry per shard,
    /// published through the cell as a single atomic swap.
    #[test]
    fn from_sharded_merges_shards_into_one_snapshot() {
        use dlinfma_synth::{generate_with, world_config};

        let mut wcfg = world_config(Preset::DowBJ, Scale::Tiny);
        wcfg.sim.n_stations = 3;
        let (_, ds) = generate_with(&wcfg, 17);

        let mut fleet1 = ShardedEngine::new(ds.addresses.clone(), DlInfMaConfig::fast(), 1);
        let mut fleet2 = ShardedEngine::new(ds.addresses.clone(), DlInfMaConfig::fast(), 2);
        for batch in replay(&ds) {
            fleet1.ingest(&batch);
            let rep = fleet2.ingest(&batch);
            assert_eq!(rep.shards.len(), 2, "one report per shard");
        }
        let days = fleet1.days_ingested();
        let one = LocationSnapshot::from_sharded(&fleet1, days);
        let two = LocationSnapshot::from_sharded(&fleet2, days);

        assert_eq!(one.n_shards(), 1);
        assert_eq!(two.n_addresses(), one.n_addresses());
        assert_eq!(two.n_candidates(), one.n_candidates());
        assert_eq!(two.n_stays(), one.n_stays());
        assert_eq!(two.n_shards(), 2);
        assert_eq!(two.shard_epochs(), &[u64::from(days); 2]);
        for a in &ds.addresses {
            assert_eq!(two.query(a.id), one.query(a.id));
        }

        // One atomic publish for the whole merged snapshot.
        let cell = SnapshotCell::new();
        assert_eq!(cell.publish(two), 1);
        assert_eq!(cell.load().n_shards(), 2);
    }

    /// The no-torn-reads proof at the store layer: a publisher swaps
    /// sentinel snapshots (`epoch k` ⇒ every address answers `(k, k)`)
    /// while readers hammer `load()`. Every reader must observe a snapshot
    /// whose *entire* contents agree with its own epoch — a mixed view
    /// would mean a torn publish.
    #[test]
    fn concurrent_loads_see_single_epoch_views() {
        const ADDRS: usize = 64;
        const PUBLISHES: usize = 200;
        let cell = Arc::new(SnapshotCell::new());
        cell.publish(sentinel_snapshot(ADDRS, 1.0));
        let pool = dlinfma_pool::Pool::new(6);
        pool.scope(|scope| {
            for _ in 0..4 {
                let cell = &cell;
                scope.spawn(move || {
                    for _ in 0..2_000 {
                        let snap = cell.load();
                        let epoch = snap.epoch();
                        assert!(epoch >= 1);
                        for i in 0..ADDRS {
                            let (p, src) = snap.query(AddressId(i as u32)).unwrap();
                            assert_eq!(src, QuerySource::Address);
                            assert_eq!(
                                (p.x, p.y),
                                (epoch as f64, epoch as f64),
                                "torn read: entry {i} disagrees with epoch {epoch}"
                            );
                        }
                    }
                });
            }
            scope.spawn(|| {
                for k in 2..=PUBLISHES as u64 {
                    // Build outside the cell (as the serve layer does), then
                    // swap; the epoch stamped must match the sentinel value.
                    let snap = sentinel_snapshot(ADDRS, k as f64);
                    assert_eq!(cell.publish(snap), k);
                }
            });
        });
        assert_eq!(cell.load().epoch(), PUBLISHES as u64);
    }
}
