//! Every workload on the Tiny world: it passes all of its output checks,
//! measures every metric `BENCHMARK.json` lists, and — trained on the same
//! days — serves the same table as the other two workloads.

use dlinfma_obs::JsonValue;
use perfbench::{run, Metric, Options, Plan, Report, Workload};
use std::path::PathBuf;

fn tiny(workload: Workload, trace: bool) -> Report {
    let opts = Options {
        workload,
        seed: 7,
        seconds: 0.3,
        trace,
        plan: Plan::tiny(),
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
    };
    let report = run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(report.tally.attempted > 0);
    assert_eq!(
        report.tally.failed,
        0,
        "{}: {:?}",
        workload.name(),
        report.tally.messages
    );
    report
}

/// `(name, unit)` of each metric listed under `key` in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    doc[key]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_string(),
                m["unit"].as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

fn names(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn smoke(workload: Workload) {
    let report = tiny(workload, true);
    assert_eq!(names(&report.end_to_end), listed("end_to_end"));
    assert_eq!(names(&report.per_layer), listed("per_layer"));
    for m in &report.end_to_end {
        assert!(
            m.value.is_finite() && m.value > 0.0,
            "{}: {} = {}",
            workload.name(),
            m.name,
            m.value
        );
    }
    for m in &report.per_layer {
        assert!(
            m.value.is_finite() && m.value >= 0.0,
            "{} = {}",
            m.name,
            m.value
        );
    }
    // Both lookup workloads run the open-loop reader beside publishes.
    let reader_latency = report
        .per_layer
        .iter()
        .find(|m| m.name == "load.latency_p50_us")
        .map(|m| m.value);
    if workload != Workload::IngestHistory {
        assert!(
            reader_latency.is_some_and(|v| v > 0.0),
            "{}: load.latency_p50_us = {reader_latency:?}",
            workload.name()
        );
    }
    assert!(!report.tracer.spans().is_empty());
}

#[test]
fn ingest_history_smoke() {
    smoke(Workload::IngestHistory);
}

#[test]
fn lookup_steady_smoke() {
    smoke(Workload::LookupSteady);
}

#[test]
fn lookup_during_ingest_smoke() {
    smoke(Workload::LookupDuringIngest);
}

/// Batch ingest equals streaming ingest at any worker count, and all three
/// workloads train at the same day, so they must serve one table. A set-up
/// that trained or froze a different model would show up here.
#[test]
fn all_workloads_serve_the_same_table() {
    let reports: Vec<Report> = Workload::ALL.into_iter().map(|w| tiny(w, false)).collect();
    let served = |r: &Report, name: &str| {
        r.end_to_end
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value.to_bits())
    };
    let first = &reports[0];
    assert!(first
        .served
        .iter()
        .any(|(_, s)| s.is_some_and(|(_, _, tier)| tier == "address")));
    for (w, r) in Workload::ALL.into_iter().zip(&reports).skip(1) {
        assert_eq!(r.served, first.served, "{} serves another table", w.name());
        for name in ["served_mae_m", "served_p95_m", "served_beta50_pct"] {
            assert_eq!(served(r, name), served(first, name), "{}: {name}", w.name());
        }
    }
}
