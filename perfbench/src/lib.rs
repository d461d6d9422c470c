//! The repository's benchmark: ingest freshness, warm restart, served
//! accuracy and socket lookups on the Full-scale SynthDowBJ world. See
//! `README.md` for the metrics, the workloads and why each exists.

pub mod check;
pub mod openloop;
pub mod stats;
pub mod trace;
pub mod workloads;
pub mod world;

pub use workloads::{run, Metric, Options, Report, Served, Workload};
pub use world::Plan;

use dlinfma_obs::JsonValue;

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// each metric as `{"value", "unit"}`.
pub fn result_json(report: &Report, metrics: &[Metric]) -> JsonValue {
    let tally = &report.tally;
    JsonValue::Obj(vec![
        ("correct".into(), JsonValue::Bool(tally.failed == 0)),
        ("attempted".into(), JsonValue::Num(tally.attempted as f64)),
        ("failed".into(), JsonValue::Num(tally.failed as f64)),
        (
            "metrics".into(),
            JsonValue::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            JsonValue::Obj(vec![
                                ("value".into(), JsonValue::Num(m.value)),
                                ("unit".into(), JsonValue::Str(m.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}
