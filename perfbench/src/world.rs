//! The benchmark's inputs: a SynthDowBJ world generated from the seed,
//! sliced into per-day batches, and the plan that says which days each
//! workload ingests how.

use dlinfma_core::DlInfMaConfig;
use dlinfma_synth::{generate, replay, Dataset, Preset, Scale, TripBatch};

/// Sizes and day boundaries of a run. [`Plan::full`] is the benchmark;
/// [`Plan::tiny`] runs the same phases on the Tiny world for tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// World size.
    pub scale: Scale,
    /// Seed of the world every run ingests. The run's own seed only draws
    /// the addresses the readers ask for: worlds of different seeds differ
    /// in training length (early stopping) and served accuracy by far more
    /// than any bound a regression check could use.
    pub world_seed: u64,
    /// The model is trained once this many days are ingested.
    pub train_day: usize,
    /// lookup-during-ingest ingests days `1..during_from` up front and
    /// replays the rest while serving.
    pub during_from: usize,
    /// Times ingest-history ingests its 40 days from an empty fleet.
    pub history_repeats: usize,
    /// Times lookup-steady runs its batched set-up from an empty fleet.
    pub steady_repeats: usize,
    /// Warm restarts per run; `snapshot.restart_s` is the fastest.
    pub restarts: usize,
    /// Fresh connections per run; `connect_p50_us` is their median.
    pub fresh_connections: usize,
    /// World generations per run; the world part of `setup_s` is their
    /// median.
    pub setup_repeats: usize,
    /// Request rate of the open-loop reader, per second.
    pub open_rate: f64,
    /// In-process `load` + `query` operations per `store.query_ns` sample.
    pub query_ops: usize,
    /// Windows the closed-loop run is split into; its percentiles and rate
    /// are medians over the windows.
    pub windows: usize,
}

impl Plan {
    /// The benchmark proper: Full scale (40 days), trained at day 7.
    pub fn full() -> Self {
        Self {
            scale: Scale::Full,
            world_seed: 1,
            train_day: 7,
            during_from: 21,
            history_repeats: 2,
            steady_repeats: 4,
            restarts: 7,
            fresh_connections: 200,
            setup_repeats: 21,
            open_rate: 2000.0,
            query_ops: 1_000_000,
            windows: 10,
        }
    }

    /// The same phases on the Tiny world (4 days), sized for tests.
    pub fn tiny() -> Self {
        Self {
            scale: Scale::Tiny,
            world_seed: 7,
            train_day: 1,
            during_from: 3,
            history_repeats: 2,
            steady_repeats: 2,
            restarts: 3,
            fresh_connections: 4,
            setup_repeats: 2,
            open_rate: 2000.0,
            query_ops: 10_000,
            windows: 3,
        }
    }
}

/// The pipeline configuration every workload runs, with the worker count
/// pinned (never taken from the machine).
pub fn pipeline_config(workers: usize) -> DlInfMaConfig {
    let mut cfg = DlInfMaConfig::fast();
    cfg.workers = workers;
    cfg
}

/// A generated world and its chronological day batches.
pub struct World {
    /// The generated dataset (addresses carry the ground truth).
    pub dataset: Dataset,
    /// One batch per simulated day, in order.
    pub days: Vec<TripBatch>,
}

impl World {
    /// Generates the SynthDowBJ world of `scale` for `seed` and slices it
    /// into days.
    pub fn generate(scale: Scale, seed: u64) -> Self {
        let (_, dataset) = generate(Preset::DowBJ, scale, seed);
        let days = replay(&dataset).collect();
        Self { dataset, days }
    }
}

/// Days `days` as one batch: trips and waybills concatenated in day order,
/// stations merged ascending by id. Ingesting it equals ingesting the days
/// one at a time (the engine's batch ≡ streaming guarantee).
pub fn concat(days: &[TripBatch]) -> TripBatch {
    let mut stations: Vec<_> = days
        .iter()
        .flat_map(|d| d.stations.iter().cloned())
        .collect();
    stations.sort_by_key(|s| s.id.0);
    stations.dedup_by_key(|s| s.id.0);
    TripBatch {
        day: days.first().map_or(0, |d| d.day),
        trips: days.iter().flat_map(|d| d.trips.iter().cloned()).collect(),
        waybills: days
            .iter()
            .flat_map(|d| d.waybills.iter().cloned())
            .collect(),
        stations,
    }
}
