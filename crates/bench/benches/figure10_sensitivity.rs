//! Figure 10: (a) clustering-distance sensitivity; (b) accuracy versus the
//! number of deliveries per address.
//!
//! 10(a): MAE of DLInfMA as the candidate clustering threshold `D` sweeps
//! {20, 30, 40, 50, 60} m on both datasets — the paper reports a U-shape
//! with the minimum at 40 m.
//!
//! 10(b): MAE of five representative methods over equal-frequency delivery
//! -count groups on DowBJ — annotation-based methods improve with more
//! deliveries; DLInfMA stays best throughout.

use criterion::{criterion_group, criterion_main, Criterion};
use dlinfma_core::DlInfMaConfig;
use dlinfma_eval::{evaluate, evaluate_errors, render_series, ExperimentWorld, Method};
use dlinfma_synth::{world_config, Preset, Scale};

fn figure10a() {
    println!("\n===== Figure 10(a): MAE vs clustering distance D =====");
    for preset in [Preset::DowBJ, Preset::SubBJ] {
        let mut rows = Vec::new();
        for d in [20.0, 30.0, 40.0, 50.0, 60.0] {
            let cfg = world_config(preset, Scale::Small);
            let mut pcfg = DlInfMaConfig::fast();
            pcfg.clustering_distance_m = d;
            let world = ExperimentWorld::build_from(&cfg, 1, pcfg);
            let r = evaluate(&world, Method::DlInfMa);
            rows.push((format!("D = {d:.0} m"), r.metrics.mae));
        }
        println!(
            "{}",
            render_series(preset.name(), "clustering distance", "MAE (m)", &rows)
        );
    }
}

fn figure10b() {
    println!("===== Figure 10(b): MAE vs number of deliveries (SynthDowBJ) =====");
    let world = ExperimentWorld::build(Preset::DowBJ, Scale::Small, 1);
    // Equal-frequency tercile boundaries over the test split.
    let mut counts: Vec<usize> = world
        .split
        .test
        .iter()
        .map(|&a| world.dlinfma.sample(a).map_or(0, |s| s.n_deliveries))
        .collect();
    let mut sorted = counts.clone();
    sorted.sort_unstable();
    let t1 = sorted[sorted.len() / 3];
    let t2 = sorted[2 * sorted.len() / 3];
    println!("tercile boundaries: <= {t1}, <= {t2}, > {t2} deliveries\n");
    println!(
        "{:<12} {:>10} {:>10} {:>10}",
        "Method", "few", "medium", "many"
    );
    for method in [
        Method::GeoCloud,
        Method::MaxTcIlc,
        Method::GeoRank,
        Method::UNetBased,
        Method::DlInfMa,
    ] {
        let errors = evaluate_errors(&world, method);
        let mut groups = [(0.0, 0usize); 3];
        for (err, &cnt) in errors.iter().zip(&counts) {
            let g = if cnt <= t1 {
                0
            } else if cnt <= t2 {
                1
            } else {
                2
            };
            groups[g].0 += err;
            groups[g].1 += 1;
        }
        let mae = |g: (f64, usize)| if g.1 == 0 { f64::NAN } else { g.0 / g.1 as f64 };
        println!(
            "{:<12} {:>10.1} {:>10.1} {:>10.1}",
            method.name(),
            mae(groups[0]),
            mae(groups[1]),
            mae(groups[2])
        );
    }
    let _ = &mut counts;
    println!();
}

fn bench_sweep(c: &mut Criterion) {
    figure10a();
    figure10b();
    // Criterion target: one full-dataset engine ingest across D values.
    let (_, ds) = dlinfma_synth::generate(Preset::DowBJ, Scale::Small, 1);
    let batch = dlinfma_core::TripBatch::full(&ds);
    let mut group = c.benchmark_group("figure10/engine_ingest");
    group.sample_size(10);
    for d in [20.0, 40.0, 60.0] {
        let mut cfg = DlInfMaConfig::fast();
        cfg.clustering_distance_m = d;
        group.bench_function(format!("D={d}"), |b| {
            b.iter(|| dlinfma_core::Engine::new(ds.addresses.clone(), cfg).ingest(&batch))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
