//! The deployed delivery-location store (Section VI-A, Figure 14).
//!
//! Inference runs offline; online queries hit a key-value store with a
//! three-level fallback chain exactly as deployed at JD Logistics:
//!
//! 1. the address-level inferred location;
//! 2. the *building-level* mostly-used delivery location (so brand-new
//!    addresses in a known building still resolve);
//! 3. the geocoded location.
//!
//! The store is concurrent: queries take a read lock, periodic refreshes a
//! write lock.

use crate::snapshot::LocationSnapshot;
use dlinfma_core::DlInfMa;
use dlinfma_geo::Point;
use dlinfma_synth::{AddressId, Dataset};
use parking_lot::RwLock;

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

/// Concurrent delivery-location store with the deployment fallback chain.
///
/// Its tables and lookups are a [`LocationSnapshot`]'s: one freeze rule
/// (building vote and fallback chain) serves both the store and the
/// serving layer.
#[derive(Debug, Default)]
pub struct DeliveryLocationStore {
    tables: RwLock<LocationSnapshot>,
}

impl DeliveryLocationStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds all tables from a trained pipeline: per-address inferred
    /// locations plus, per building, the location inferred for the most
    /// addresses (the "mostly used" building-level answer).
    pub fn refresh(&self, dataset: &Dataset, dlinfma: &DlInfMa) {
        let (by_address, by_building, geocodes) =
            LocationSnapshot::build_tables(&dataset.addresses, |a| dlinfma.infer(a));
        *self.tables.write() = LocationSnapshot::from_tables(by_address, by_building, geocodes);
    }

    /// Answers a query through the fallback chain; `None` only for addresses
    /// entirely unknown to the system.
    pub fn query(&self, addr: AddressId) -> Option<(Point, QuerySource)> {
        self.tables.read().query(addr)
    }

    /// Number of address-level entries.
    pub fn len(&self) -> usize {
        self.tables.read().len()
    }

    /// True when the store holds no address-level inferences.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlinfma_core::DlInfMaConfig;
    use dlinfma_synth::{generate, spatial_split, Preset, Scale};

    fn trained_world() -> (Dataset, DlInfMa) {
        let (_, ds) = generate(Preset::DowBJ, Scale::Tiny, 21);
        let split = spatial_split(&ds, 0.6, 0.2);
        let mut cfg = DlInfMaConfig::fast();
        cfg.model.max_epochs = 5;
        let mut dl = DlInfMa::prepare(&ds, cfg);
        dl.label_from_dataset(&ds);
        dl.train(&split.train, &split.val);
        (ds, dl)
    }

    #[test]
    fn fallback_chain_order() {
        let (ds, dl) = trained_world();
        let store = DeliveryLocationStore::new();
        store.refresh(&ds, &dl);
        assert!(!store.is_empty());

        // A delivered address answers at address level.
        let delivered = ds.waybills[0].address;
        let (_, src) = store.query(delivered).unwrap();
        assert_eq!(src, QuerySource::Address);

        // An address never delivered but whose building has deliveries
        // answers at building level; one with neither answers with geocode.
        let mut building_hit = false;
        let mut geocode_hit = false;
        for a in &ds.addresses {
            if let Some((_, src)) = store.query(a.id) {
                match src {
                    QuerySource::Building => building_hit = true,
                    QuerySource::Geocode => geocode_hit = true,
                    QuerySource::Address => {}
                }
            }
        }
        // At least one of the lower fallback levels must be reachable in a
        // tiny world (undelivered addresses exist).
        assert!(building_hit || geocode_hit);
    }

    #[test]
    fn unknown_address_is_none() {
        let store = DeliveryLocationStore::new();
        assert!(store.query(AddressId(123)).is_none());
    }

    #[test]
    fn refresh_replaces_tables() {
        let (ds, dl) = trained_world();
        let store = DeliveryLocationStore::new();
        store.refresh(&ds, &dl);
        let n1 = store.len();
        store.refresh(&ds, &dl);
        assert_eq!(store.len(), n1, "refresh must be idempotent");
    }

    #[test]
    fn concurrent_queries_while_refreshing() {
        let (ds, dl) = trained_world();
        let store = std::sync::Arc::new(DeliveryLocationStore::new());
        store.refresh(&ds, &dl);
        let addrs: Vec<AddressId> = ds.waybills.iter().map(|w| w.address).collect();
        let pool = dlinfma_pool::Pool::new(5);
        pool.scope(|scope| {
            for _ in 0..4 {
                let store = &store;
                let addrs = &addrs;
                scope.spawn(move || {
                    for &a in addrs.iter().take(200) {
                        let _ = store.query(a);
                    }
                });
            }
            scope.spawn(|| store.refresh(&ds, &dl));
        });
        assert!(!store.is_empty());
    }
}
