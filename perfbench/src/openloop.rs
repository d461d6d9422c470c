//! Open-loop accounting: requests are due on a fixed schedule whether or
//! not earlier ones have been answered, so a stall delays every request
//! due during it. Latency is measured from the due time, and the
//! generator's own lateness (send time − due time) is reported beside it.

use crate::stats;

/// A fixed-rate schedule: request `i` is due `i / rate` seconds after the
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    interval_ns: u64,
}

impl Schedule {
    /// `rate` requests per second (at least one per hour).
    pub fn per_second(rate: f64) -> Self {
        let interval_ns = (1e9 / rate.max(1.0 / 3600.0)).round() as u64;
        Self {
            interval_ns: interval_ns.max(1),
        }
    }

    /// Due time of request `i`, ns after the start.
    pub fn due_ns(&self, i: u64) -> u64 {
        i * self.interval_ns
    }
}

/// One open-loop request's times, ns after the schedule's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// When the schedule said to send it.
    pub due_ns: u64,
    /// When it was sent.
    pub sent_ns: u64,
    /// When its response was complete.
    pub done_ns: u64,
}

impl Timing {
    /// Latency counted from the due time: includes any wait a stall
    /// imposed before the request could be sent.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator sent it; 0 when it was on time.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// Percentiles of an open-loop run, in microseconds: each is the median
/// over the run's windows of that window's percentile (requests are
/// assigned to windows by due time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSummary {
    /// Median latency from the due time.
    pub latency_p50_us: f64,
    /// 90th-percentile latency from the due time.
    pub latency_p90_us: f64,
    /// Median generator lateness.
    pub late_p50_us: f64,
    /// 99th-percentile generator lateness.
    pub late_p99_us: f64,
}

impl OpenLoopSummary {
    /// Summarizes `timings` over `windows` (`[start, end)` in the timings'
    /// clock); all zeros when no request falls in any window.
    pub fn over(timings: &[Timing], windows: &[(u64, u64)]) -> Self {
        let us = |f: fn(&Timing) -> u64| -> Vec<(u64, f64)> {
            timings
                .iter()
                .map(|t| (t.due_ns, f(t) as f64 / 1e3))
                .collect()
        };
        let latency = us(Timing::latency_ns);
        let late = us(Timing::late_ns);
        Self {
            latency_p50_us: stats::windowed_percentile(&latency, windows, 50.0),
            latency_p90_us: stats::windowed_percentile(&latency, windows, 90.0),
            late_p50_us: stats::windowed_percentile(&late, windows, 50.0),
            late_p99_us: stats::windowed_percentile(&late, windows, 99.0),
        }
    }
}
