//! End-to-end integration: world generation → DLInfMA pipeline → deployment
//! store → applications.

use dlinfma::core::{DlInfMa, DlInfMaConfig, ShardedEngine};
use dlinfma::store::{plan_route, LocationSnapshot, QuerySource};
use dlinfma::synth::{generate, spatial_split, Preset, Scale, TripBatch};

#[test]
fn full_pipeline_beats_geocoding_and_serves_the_store() {
    let (city, ds) = generate(Preset::DowBJ, Scale::Tiny, 100);
    let split = spatial_split(&ds, 0.6, 0.2);
    let mut cfg = DlInfMaConfig::fast();
    cfg.model.max_epochs = 15;
    let mut fleet = ShardedEngine::new(ds.addresses.clone(), cfg, 1);
    fleet.ingest(&TripBatch::full(&ds));
    assert!(fleet.train_with(&ds, &split.train, &split.val) > 0);

    // Accuracy on the held-out spatial region.
    let mut err_model = 0.0;
    let mut err_geo = 0.0;
    for &a in &split.test {
        let gt = city.addresses[a.0 as usize].true_delivery_location;
        let geocode = ds.address(a).geocode;
        err_model += fleet.infer(a).unwrap_or(geocode).distance(&gt);
        err_geo += geocode.distance(&gt);
    }
    assert!(
        err_model < err_geo,
        "DLInfMA {:.0} !< Geocoding {:.0}",
        err_model,
        err_geo
    );

    // The deployment store answers through the fallback chain.
    let store = LocationSnapshot::from_sharded(&fleet, fleet.days_ingested());
    assert!(!store.is_empty());
    let delivered = ds.waybills[0].address;
    let (_, src) = store.query(delivered).expect("known address");
    assert_eq!(src, QuerySource::Address);
}

#[test]
fn route_planning_over_inferred_locations_tracks_reality_better() {
    // Averaged over seeds: tours planned on inferred locations, then walked
    // over the TRUE stop positions, must be shorter than tours planned on
    // geocodes (which mis-place stops by up to hundreds of meters).
    let mut total_geo = 0.0;
    let mut total_inf = 0.0;
    for seed in [101u64, 102, 103] {
        let (city, ds) = generate(Preset::DowBJ, Scale::Tiny, seed);
        let split = spatial_split(&ds, 0.6, 0.2);
        let mut cfg = DlInfMaConfig::fast();
        cfg.model.max_epochs = 15;
        let mut dlinfma = DlInfMa::prepare(&ds, cfg);
        dlinfma.label_from_dataset(&ds);
        dlinfma.train(&split.train, &split.val);

        for trip in ds.trips.iter().take(12) {
            let addrs: Vec<_> = trip
                .waybills
                .iter()
                .map(|&wi| ds.waybills[wi].address)
                .collect();
            if addrs.len() < 5 {
                continue;
            }
            let depot = ds.stations[trip.station.0 as usize].location;
            let truth: Vec<_> = addrs
                .iter()
                .map(|&a| city.addresses[a.0 as usize].true_delivery_location)
                .collect();
            let geocodes: Vec<_> = addrs.iter().map(|&a| ds.address(a).geocode).collect();
            let inferred: Vec<_> = addrs
                .iter()
                .map(|&a| dlinfma.infer_or_geocode(&ds, a))
                .collect();
            total_geo += plan_route(depot, &geocodes).length(depot, &truth);
            total_inf += plan_route(depot, &inferred).length(depot, &truth);
        }
    }
    assert!(
        total_inf < total_geo,
        "inferred-plan tours {total_inf:.0} !< geocode-plan tours {total_geo:.0}"
    );
}

#[test]
fn incremental_pool_supports_the_same_pipeline() {
    use dlinfma::core::Engine;
    use dlinfma::synth::replay;
    let (_, ds) = generate(Preset::SubBJ, Scale::Tiny, 102);
    // Periodic regeneration: the engine ingests 2-day batches (at tiny
    // scale, to force several batches) and grows its pool incrementally.
    let days: Vec<TripBatch> = replay(&ds).collect();
    let mut engine = Engine::new(ds.addresses.clone(), DlInfMaConfig::fast());
    for pair in days.chunks(2) {
        engine.ingest(&TripBatch {
            trips: pair.iter().flat_map(|d| d.trips.clone()).collect(),
            waybills: pair.iter().flat_map(|d| d.waybills.clone()).collect(),
            ..pair[0].clone()
        });
    }
    assert!(days.len() > 2, "several batches");
    assert!(!engine.pool().is_empty());
    // Every retrieved candidate set remains non-empty for delivered addresses
    // with at least one pre-confirmation stay.
    let sampled = engine.samples().count();
    let nonempty = engine
        .samples()
        .filter(|s| !s.candidates.is_empty())
        .count();
    assert!(sampled > 0);
    assert!(nonempty * 10 >= sampled * 8);
}
