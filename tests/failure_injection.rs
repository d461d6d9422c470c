//! Failure injection: the pipeline must degrade gracefully, never panic,
//! when fed degenerate or hostile data.

use dlinfma::core::{
    extract_stay_points, DlInfMa, DlInfMaConfig, Engine, ExtractionConfig, TripBatch,
};
use dlinfma::geo::Point;
use dlinfma::synth::{
    generate, AddressId, Dataset, DeliveryTrip, Station, StationId, TripId, Waybill,
};
use dlinfma::traj::{TrajPoint, Trajectory};

/// A dataset with one empty trajectory, one single-fix trajectory, and one
/// all-spikes trajectory.
fn degenerate_dataset() -> Dataset {
    let (_, mut ds) = generate(
        dlinfma::synth::Preset::DowBJ,
        dlinfma::synth::Scale::Tiny,
        400,
    );
    // Trip 0: empty trajectory.
    ds.trips[0].trajectory = Trajectory::new();
    // Trip 1: single fix.
    let t1_start = ds.trips[1].t_start;
    ds.trips[1].trajectory =
        Trajectory::from_points(vec![TrajPoint::new(Point::new(0.0, 0.0), t1_start)]);
    // Trip 2: nothing but far-off multipath spikes.
    let t2_start = ds.trips[2].t_start;
    ds.trips[2].trajectory = Trajectory::from_points(
        (0..30)
            .map(|i| {
                TrajPoint::new(
                    Point::new((i as f64) * 1e4, -(i as f64) * 1e4),
                    t2_start + i as f64 * 13.5,
                )
            })
            .collect(),
    );
    ds
}

#[test]
fn pipeline_survives_degenerate_trajectories() {
    let ds = degenerate_dataset();
    let mut cfg = DlInfMaConfig::fast();
    cfg.model.max_epochs = 2;
    let mut dlinfma = DlInfMa::prepare(&ds, cfg);
    dlinfma.label_from_dataset(&ds);
    let split = dlinfma::synth::spatial_split(&ds, 0.6, 0.2);
    dlinfma.train(&split.train, &split.val);
    // Every address still gets an answer through the fallback.
    for &a in split.test.iter().take(10) {
        let p = dlinfma.infer_or_geocode(&ds, a);
        assert!(p.is_finite());
    }
}

#[test]
fn stay_point_extraction_handles_empty_and_spiky_trips() {
    let ds = degenerate_dataset();
    let stays = extract_stay_points(&ds, &ExtractionConfig::paper_defaults());
    assert_eq!(stays.len(), ds.trips.len());
    assert!(
        stays[0].stays.is_empty(),
        "empty trajectory yields no stays"
    );
    assert!(stays[1].stays.is_empty(), "single fix yields no stays");
    assert!(
        stays[2].stays.is_empty(),
        "pure-spike trajectory yields no stays after filtering"
    );
}

#[test]
fn empty_dataset_end_to_end() {
    let ds = Dataset {
        addresses: vec![],
        trips: vec![],
        waybills: vec![],
        stations: vec![],
    };
    assert!(extract_stay_points(&ds, &ExtractionConfig::paper_defaults()).is_empty());
    let mut engine = Engine::new(ds.addresses.clone(), DlInfMaConfig::fast());
    engine.ingest(&TripBatch::full(&ds));
    assert!(engine.pool().is_empty());
    assert!(engine.evidence(AddressId(0)).is_none());
    assert_eq!(engine.samples().count(), 0);
    let dlinfma = DlInfMa::prepare(&ds, DlInfMaConfig::fast());
    assert!(dlinfma.infer(AddressId(0)).is_none());
}

#[test]
fn waybills_with_identical_times_and_duplicated_addresses() {
    // A trip that delivers three parcels to the same address at the same
    // recorded instant (bulk order) must not confuse evidence collection.
    let mut traj = Trajectory::new();
    for i in 0..30 {
        traj.push(TrajPoint::new(
            Point::new((i / 10) as f64 * 100.0, 0.0),
            i as f64 * 13.5,
        ));
    }
    let trips = vec![DeliveryTrip {
        id: TripId(0),
        courier: dlinfma::synth::CourierId(0),
        station: StationId(0),
        t_start: 0.0,
        t_end: 400.0,
        trajectory: traj,
        waybills: vec![0, 1, 2],
    }];
    let waybills = (0..3)
        .map(|_| Waybill {
            address: AddressId(0),
            trip: TripId(0),
            t_received: 0.0,
            t_recorded_delivery: 200.0,
            t_actual_delivery: 200.0,
        })
        .collect();
    let ds = Dataset {
        addresses: vec![dlinfma::synth::Address {
            id: AddressId(0),
            building: dlinfma::synth::BuildingId(0),
            geocode: Point::new(50.0, 0.0),
            poi_category: 0,
            true_delivery_location: Point::new(100.0, 0.0),
            true_spot_kind: dlinfma::synth::DeliverySpotKind::Doorstep,
        }],
        trips,
        waybills,
        stations: vec![Station {
            id: StationId(0),
            location: Point::ZERO,
        }],
    };
    ds.validate();
    let mut engine = Engine::new(ds.addresses.clone(), DlInfMaConfig::fast());
    engine.ingest(&TripBatch::full(&ds));
    let evidence = engine
        .evidence(AddressId(0))
        .expect("the address was delivered");
    assert_eq!(evidence.trips.len(), 1, "one trip despite 3 waybills");
    assert_eq!(evidence.trips[0].1, 200.0);
    assert_eq!(engine.samples().count(), 1);
}

#[test]
fn all_confirmations_maximally_delayed_still_retrievable() {
    use dlinfma::synth::DelayConfig;
    use rand::SeedableRng;
    let (city, mut ds) = generate(
        dlinfma::synth::Preset::DowBJ,
        dlinfma::synth::Scale::Tiny,
        401,
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    dlinfma::synth::inject_delays(
        &mut ds,
        &DelayConfig {
            n_batches: 1, // everything confirmed at trip end
            p_delay: 1.0,
            base_lag_s: (0.0, 1e-6),
        },
        &mut rng,
    );
    let dlinfma = DlInfMa::prepare(&ds, DlInfMaConfig::fast());
    // The temporal bound is the trip end, so the true location's candidate
    // is still retrieved for nearly every address.
    let mut hit = 0;
    let mut total = 0;
    for sample in dlinfma.samples() {
        total += 1;
        let gt = city.addresses[sample.address.0 as usize].true_delivery_location;
        if sample
            .candidates
            .iter()
            .any(|&c| dlinfma.pool().candidate(c).pos.distance(&gt) < 30.0)
        {
            hit += 1;
        }
    }
    assert!(total > 0);
    assert!(
        hit * 10 >= total * 8,
        "{hit}/{total} retrievable at full delay"
    );
}
