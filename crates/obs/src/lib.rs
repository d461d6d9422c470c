#![warn(missing_docs)]
//! In-tree observability for the DLInfMA workspace.
//!
//! The deployed system the paper describes (Section V-F) lives or dies on
//! per-stage telemetry: stage latencies locate hot spots, funnel counts
//! (raw points → filtered points → stay points → clusters → candidates →
//! labelled samples) detect silent data drift before accuracy regresses.
//! This crate provides that layer with **zero external dependencies** —
//! everything is hand-rolled on `std::sync` so it builds against an offline
//! registry and adds nothing to compile times:
//!
//! * [`span`] — structured spans with monotonic wall-clock timing,
//!   hierarchical nesting via a per-thread stack, and a thread-safe global
//!   collector. Disabled by default: a disabled [`span::span`] call is one
//!   relaxed atomic load.
//! * [`metrics`] — named counters, gauges and fixed-bucket histograms with
//!   lock-free handles, plus JSON and human-readable table export.
//! * [`report`] — the typed [`PipelineReport`] that `DlInfMa::prepare` /
//!   `train` emit (per-stage durations and funnel counts, with invariant
//!   checking) and the per-ingest [`IngestReport`] the incremental engine
//!   emits for every streamed batch.
//! * [`trace`] — per-thread event rings exported as Chrome trace-event
//!   JSON (`chrome://tracing` / Perfetto), recording span begin/end,
//!   instants and counter tracks. Also disabled by default; installed by
//!   the CLI's `--trace-out`.
//! * [`health`] — ingest health monitors: per-day funnel deltas with
//!   threshold-based anomaly flags, rendered by `dlinfma health`.
//! * [`names`] — the central registry of span/event/counter names
//!   (lint rule L8 rejects ad-hoc literals at instrumentation sites).
//! * [`json`] — a minimal JSON value, writer and parser (no serde) used by
//!   every exporter and by the CLI's readers.
//!
//! The collector is process-global and opt-in: call [`enable`] (the CLI does
//! this under `--verbose` / `--metrics-out`), run the pipeline, then
//! [`export_json`] or the render helpers.

pub mod health;
pub mod json;
pub mod metrics;
pub mod names;
pub mod report;
pub mod span;
pub mod trace;

pub use health::{DayHealth, HealthFlag, HealthMonitor, HealthReport, HealthThresholds};
pub use json::{JsonParseError, JsonValue};
pub use metrics::{
    counter, gauge, histogram, metrics_snapshot, render_metrics, reset_metrics, try_histogram,
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, NonFiniteBound,
};
pub use report::{
    stage, FleetIngestReport, FunnelCounts, IngestReport, PipelineReport, PoolReport,
    PoolWorkerReport, StageReport,
};
pub use span::{
    disable, enable, enabled, record_duration, render_spans, reset_spans, span, spans_snapshot,
    take_spans, SpanGuard, SpanRecord, Stopwatch,
};
pub use trace::{
    chrome_trace, chrome_trace_json, reset_trace, take_trace, trace_complete, trace_counter,
    trace_disable, trace_enable, trace_enabled, trace_instant, trace_span, validate_chrome_trace,
    TraceCapture, TraceEvent, TracePhase, TraceSpanGuard, TraceSummary, RING_CAPACITY,
};

/// One JSON document with everything the collector knows: recorded spans,
/// the metrics registry, and (when available) a pipeline report.
///
/// This is what the CLI writes under `--metrics-out FILE`.
pub fn export_json(report: Option<&PipelineReport>) -> JsonValue {
    let mut obj = vec![
        ("spans".to_string(), span::spans_to_json(&spans_snapshot())),
        ("metrics".to_string(), metrics_snapshot().to_json()),
    ];
    if let Some(r) = report {
        obj.push(("report".to_string(), r.to_json()));
    }
    JsonValue::Obj(obj)
}

/// Resets every global collector: spans, metrics, the trace rings, and
/// both enabled flags. Intended for tests and long-lived processes between
/// runs — two back-to-back pipeline runs separated by a `reset_all` must
/// not leak events or double-count metrics into each other.
pub fn reset_all() {
    disable();
    trace_disable();
    reset_spans();
    reset_metrics();
    reset_trace();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_json_has_spans_and_metrics_keys() {
        let v = export_json(None);
        let s = v.render();
        assert!(s.contains("\"spans\""));
        assert!(s.contains("\"metrics\""));
        assert!(!s.contains("\"report\""));

        let r = PipelineReport::new();
        let s = export_json(Some(&r)).render();
        assert!(s.contains("\"report\""));
    }
}
