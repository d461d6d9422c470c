//! Application 1 (Section VI-B): route planning over inferred delivery
//! locations.
//!
//! Plans a courier's tour twice — once over geocoded stops and once over
//! DLInfMA-inferred stops — and measures both tours against the *actual*
//! delivery locations. The inferred plan tracks reality far better.
//!
//! ```sh
//! cargo run --release --example route_planning
//! ```

use dlinfma::core::ShardedEngine;
use dlinfma::eval::pipeline_config;
use dlinfma::geo::Point;
use dlinfma::store::{plan_route, LocationSnapshot};
use dlinfma::synth::{generate, spatial_split, Preset, Scale, TripBatch};

fn main() {
    let (_, dataset) = generate(Preset::DowBJ, Scale::Tiny, 17);
    let split = spatial_split(&dataset, 0.6, 0.2);
    let mut fleet =
        ShardedEngine::new(dataset.addresses.clone(), pipeline_config(Preset::DowBJ), 1);
    fleet.ingest(&TripBatch::full(&dataset));
    fleet.train_with(&dataset, &split.train, &split.val);

    // Deployment store with the fallback chain serves the planner.
    let store = LocationSnapshot::from_sharded(&fleet, fleet.days_ingested());

    println!("Application 1: route planning for new couriers\n");
    let mut total_geo = 0.0;
    let mut total_inf = 0.0;
    let mut shown = 0;
    for trip in dataset.trips.iter().take(10) {
        // The day's batch of addresses for this courier.
        let addrs: Vec<_> = trip
            .waybills
            .iter()
            .map(|&wi| dataset.waybills[wi].address)
            .collect();
        if addrs.len() < 5 {
            continue;
        }
        let depot = dataset.stations[trip.station.0 as usize].location;
        let truth: Vec<Point> = addrs
            .iter()
            .map(|&a| dataset.address(a).true_delivery_location)
            .collect();
        let geocodes: Vec<Point> = addrs.iter().map(|&a| dataset.address(a).geocode).collect();
        let inferred: Vec<Point> = addrs
            .iter()
            .map(|&a| store.query(a).map(|(p, _)| p).unwrap_or(geocodes[0]))
            .collect();

        // Plan on each location source, then walk the plan over the REAL
        // stop positions — that's the distance the courier actually rides.
        let plan_geo = plan_route(depot, &geocodes);
        let plan_inf = plan_route(depot, &inferred);
        let real_geo = plan_geo.length(depot, &truth);
        let real_inf = plan_inf.length(depot, &truth);
        total_geo += real_geo;
        total_inf += real_inf;
        shown += 1;
        println!(
            "trip {:>3} ({:>2} stops): geocode-planned tour {:>7.0} m, \
             DLInfMA-planned tour {:>7.0} m",
            trip.id.0,
            addrs.len(),
            real_geo,
            real_inf
        );
    }
    println!(
        "\nTotal over {shown} trips: geocode plan {total_geo:.0} m, \
         DLInfMA plan {total_inf:.0} m ({:+.1}%)",
        (total_inf / total_geo - 1.0) * 100.0
    );
}
