//! The background ingest side of the serving layer: replay days through a
//! [`ShardedEngine`] and publish an immutable snapshot at every materialize
//! boundary.

use dlinfma_core::ShardedEngine;
use dlinfma_obs as obs;
use dlinfma_store::{LocationSnapshot, SnapshotCell};
use dlinfma_synth::{spatial_split, Dataset, TripBatch};
use std::time::Duration;

/// Labels the fleet's merged samples against the dataset's ground truth,
/// trains one `LocMatcher` on a spatial split, and installs it as the
/// fleet model, so address-level serving comes online. The merged sample
/// set is shard-count-invariant, and so is the model. Returns the number
/// of labelled samples.
pub fn train_sharded_model(fleet: &mut ShardedEngine, dataset: &Dataset) -> usize {
    let split = spatial_split(dataset, 0.6, 0.2);
    fleet.train_with(dataset, &split.train, &split.val)
}

/// Merges the fleet's shards into one [`LocationSnapshot`] (per-shard
/// epochs included) and publishes it with a single atomic swap. The build
/// happens entirely outside the cell's lock — readers keep answering from
/// the previous epoch until the O(1) swap. Returns the published epoch.
pub fn publish_sharded_snapshot(
    fleet: &ShardedEngine,
    cell: &SnapshotCell,
    days_ingested: u32,
) -> u64 {
    let _span = obs::trace_span(obs::names::SERVE_PUBLISH);
    let snap = LocationSnapshot::from_sharded(fleet, days_ingested);
    let epoch = cell.publish(snap);
    obs::trace_counter(obs::names::SERVE_EPOCH, epoch as f64);
    obs::gauge(obs::names::SERVE_EPOCH).set(epoch as f64);
    epoch
}

/// The background replay loop: for each batch, ingest (partitioned by
/// station inside [`ShardedEngine::ingest`]), run the caller's hook (e.g.
/// train the model once enough days are in), then build and publish one
/// merged snapshot. Day numbers start after `start_day` — 0 for a cold
/// start, `k` when the fleet was restored from a day-`k` checkpoint and
/// `batches` holds only the remaining days — so the hook and the published
/// snapshots see absolute day numbers. Sleeps `day_delay_ms` between days
/// to emulate a live feed. Returns the last epoch published (0 when
/// `batches` was empty).
pub fn replay_and_publish_sharded<I>(
    fleet: &mut ShardedEngine,
    batches: I,
    cell: &SnapshotCell,
    day_delay_ms: u64,
    start_day: u32,
    mut after_ingest: impl FnMut(&mut ShardedEngine, u32),
) -> u64
where
    I: IntoIterator<Item = TripBatch>,
{
    let mut days = start_day;
    let mut epoch = 0u64;
    for batch in batches {
        fleet.ingest(&batch);
        days += 1;
        after_ingest(fleet, days);
        epoch = publish_sharded_snapshot(fleet, cell, days);
        if day_delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(day_delay_ms));
        }
    }
    epoch
}
