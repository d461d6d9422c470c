//! Ablation: candidate-pool clustering choices (Section III-B).
//!
//! The paper argues for threshold-driven hierarchical clustering over
//! k-means (needs `k`), density-based methods (need a density, produce
//! irregular shapes) and grid merging (splits locations at cell
//! boundaries). This bench quantifies the trade-off on the same stay
//! points: number of generated locations, and how well the generated pool
//! *covers* the ground-truth delivery locations (mean / p95 distance from
//! each delivered address's true location to its nearest generated
//! location). A good pool is small AND close.

use criterion::{criterion_group, criterion_main, Criterion};
use dlinfma_cluster::{
    dbscan, grid_clusters, hierarchical_cluster, kmeans, optics_extract, DbscanConfig, OpticsConfig,
};
use dlinfma_core::{extract_stay_points, ExtractionConfig};
use dlinfma_geo::{centroid, GridIndex, Point};
use dlinfma_synth::{generate, Preset, Scale};
use rand::{rngs::StdRng, SeedableRng};
use std::collections::HashMap;

/// Centroids of labelled groups (noise/None dropped).
fn centroids_of(points: &[Point], labels: &[Option<usize>]) -> Vec<Point> {
    let mut groups: HashMap<usize, Vec<Point>> = HashMap::new();
    for (p, l) in points.iter().zip(labels) {
        if let Some(c) = l {
            groups.entry(*c).or_default().push(*p);
        }
    }
    groups.into_values().filter_map(|g| centroid(&g)).collect()
}

fn coverage(pool: &[Point], truths: &[Point]) -> (f64, f64) {
    // Any cell size gives the exact nearest point; one about the pool's
    // spacing keeps the ring search short.
    let cell = dlinfma_core::params::CLUSTER_DISTANCE_M;
    let index = GridIndex::from_items(cell, pool.iter().map(|&p| (p, ())));
    let mut ds: Vec<f64> = truths
        .iter()
        .filter_map(|t| index.nearest(t).map(|(_, _, d)| d))
        .collect();
    ds.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mae = ds.iter().sum::<f64>() / ds.len().max(1) as f64;
    let p95 = ds[(ds.len() as f64 * 0.95) as usize - 1];
    (mae, p95)
}

fn print_ablation() {
    println!("\n===== Ablation: candidate-pool clustering choice =====");
    let (city, ds) = generate(Preset::DowBJ, Scale::Small, 1);
    let stays = extract_stay_points(&ds, &ExtractionConfig::paper_defaults());
    let points: Vec<Point> = stays
        .iter()
        .flat_map(|t| t.stays.iter().map(|s| s.pos))
        .collect();
    let mut delivered: Vec<u32> = ds.waybills.iter().map(|w| w.address.0).collect();
    delivered.sort_unstable();
    delivered.dedup();
    let truths: Vec<Point> = delivered
        .iter()
        .map(|&a| city.addresses[a as usize].true_delivery_location)
        .collect();

    println!(
        "{} stay points, {} delivered addresses\n",
        points.len(),
        truths.len()
    );
    println!(
        "{:<24} {:>10} {:>12} {:>12}",
        "Method", "locations", "cover MAE", "cover P95"
    );

    let report = |name: &str, pool: Vec<Point>| {
        let (mae, p95) = coverage(&pool, &truths);
        println!("{name:<24} {:>10} {:>12.1} {:>12.1}", pool.len(), mae, p95);
    };

    // The paper's choice.
    report(
        "hierarchical D=40",
        hierarchical_cluster(&points, 40.0)
            .iter()
            .map(|c| c.centroid)
            .collect(),
    );
    // Grid merging (DLInfMA-Grid): more locations from boundary splits.
    report(
        "grid 40x40",
        grid_clusters(&points, 40.0)
            .iter()
            .map(|c| c.centroid)
            .collect(),
    );
    // DBSCAN: density threshold produces irregular merged regions.
    for (eps, min_pts) in [(20.0, 3), (40.0, 3)] {
        let labels = dbscan(&points, &DbscanConfig { eps, min_pts });
        report(
            &format!("dbscan eps={eps} min={min_pts}"),
            centroids_of(&points, &labels),
        );
    }
    // OPTICS with a cut.
    let labels = optics_extract(
        &points,
        &OpticsConfig {
            max_eps: 60.0,
            min_pts: 3,
        },
        40.0,
    );
    report("optics cut=40", centroids_of(&points, &labels));
    // k-means needs k; sweep to show the sensitivity the paper criticizes.
    for k_frac in [0.5, 1.0, 2.0] {
        let k_ref = hierarchical_cluster(&points, 40.0).len();
        let k = ((k_ref as f64 * k_frac) as usize).max(1);
        let mut rng = StdRng::seed_from_u64(0);
        let res = kmeans(&points, k, 50, &mut rng).expect("non-empty");
        report(&format!("k-means k={k}"), res.centers);
    }
    println!();
}

fn bench_clustering(c: &mut Criterion) {
    print_ablation();
    let (_, ds) = generate(Preset::DowBJ, Scale::Small, 1);
    let stays = extract_stay_points(&ds, &ExtractionConfig::paper_defaults());
    let points: Vec<Point> = stays
        .iter()
        .flat_map(|t| t.stays.iter().map(|s| s.pos))
        .collect();
    let mut group = c.benchmark_group("ablation/clustering");
    group.sample_size(10);
    group.bench_function("hierarchical", |b| {
        b.iter(|| hierarchical_cluster(&points, 40.0))
    });
    group.bench_function("grid", |b| b.iter(|| grid_clusters(&points, 40.0)));
    group.bench_function("dbscan", |b| {
        b.iter(|| {
            dbscan(
                &points,
                &DbscanConfig {
                    eps: 20.0,
                    min_pts: 3,
                },
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_clustering);
criterion_main!(benches);
