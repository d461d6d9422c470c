//! Section V-F: pipeline throughput and training-time comparison.
//!
//! The paper reports (1) stay-point extraction over 66.1 M points in 7 min
//! with trajectory-level parallelization, (2) periodic (bi-weekly)
//! candidate-pool regeneration in 1 min, and (3) training times ordered
//! GeoRank < DLInfMA < UNet-based. This bench measures the same quantities
//! on the synthetic substrate: absolute numbers differ, the ordering and the
//! parallel speedup are the reproduced shape. Pool regeneration is the
//! engine's incremental ingest: one full-dataset ingest is compared with
//! the same days replayed one at a time.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dlinfma_baselines::{GeoRank, UNetBaseline, UNetConfig};
use dlinfma_core::{
    extract_batch_with_stats, extract_stay_points, DlInfMaConfig, Engine, ExtractionConfig,
    LocMatcher, TripBatch,
};
use dlinfma_eval::ExperimentWorld;
use dlinfma_pool::Pool;
use dlinfma_synth::{generate, replay, Preset, Scale};
use std::time::Instant;

fn print_training_comparison() {
    println!("\n===== Section V-F: training-time comparison =====");
    let world = ExperimentWorld::build(Preset::DowBJ, Scale::Small, 1);

    let t0 = Instant::now();
    let _ = GeoRank::fit(&world.dataset, &world.ann, &world.split.train, &world.gt);
    let georank = t0.elapsed();

    let t0 = Instant::now();
    let mut lm = LocMatcher::new(world.dlinfma.config().model);
    lm.train(&world.train_samples(), &world.val_samples());
    let dlinfma = t0.elapsed();

    let t0 = Instant::now();
    let _ = UNetBaseline::fit(
        &world.ann,
        &world.split.train,
        &world.gt,
        &UNetConfig::default(),
    );
    let unet = t0.elapsed();

    println!("GeoRank    {georank:>10.2?}   (paper: 0.2 min, fastest)");
    println!("DLInfMA    {dlinfma:>10.2?}   (paper: 13.6 min)");
    println!("UNet-based {unet:>10.2?}   (paper: 27.0 min, slowest)");
    println!();
}

fn bench_pipeline(c: &mut Criterion) {
    print_training_comparison();

    let (_, ds) = generate(Preset::DowBJ, Scale::Small, 1);
    let cfg = ExtractionConfig::paper_defaults();
    let n_points = ds.total_gps_points() as u64;

    let mut group = c.benchmark_group("secVF/stay_point_extraction");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n_points));
    group.bench_function("sequential", |b| b.iter(|| extract_stay_points(&ds, &cfg)));
    let pool = Pool::new(4);
    group.bench_function("parallel_4", |b| {
        b.iter(|| extract_batch_with_stats(&ds.trips, &cfg, &pool))
    });
    group.finish();

    let engine_cfg = DlInfMaConfig::fast();
    let mut group = c.benchmark_group("secVF/engine_ingest");
    group.sample_size(10);
    group.bench_function("full_dataset", |b| {
        b.iter(|| {
            let mut engine = Engine::new(ds.addresses.clone(), engine_cfg);
            engine.ingest(&TripBatch::full(&ds))
        })
    });
    group.bench_function("daily_replay", |b| {
        b.iter(|| {
            let mut engine = Engine::new(ds.addresses.clone(), engine_cfg);
            replay(&ds).map(|day| engine.ingest(&day)).count()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
