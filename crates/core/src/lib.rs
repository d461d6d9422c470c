#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]
//! DLInfMA — Delivery Location Inference under Mis-Annotation.
//!
//! The primary contribution of *"Discovering Actual Delivery Locations from
//! Mis-Annotated Couriers' Trajectories"* (Ruan et al., ICDE 2022),
//! implemented end to end:
//!
//! 1. **Location candidate generation** — [`staypoints`] extracts stay
//!    points from noise-filtered trajectories; [`candidates`] holds the
//!    profiled candidate pool the engine clusters them into; retrieval
//!    filters per-address candidates with the recorded delivery time as a
//!    temporal upper bound ([`stages::RetrievalIndex`]).
//! 2. **Delivery location discovery** — [`features`] defines the matching
//!    (trip coverage, location commonality, distance), profile and address
//!    features; [`locmatcher`] selects the delivery location with a
//!    transformer encoder over all candidates jointly plus an additive
//!    attention conditioned on the address context.
//!
//! The staged [`Engine`] ([`engine`], [`stages`]) is the only code that
//! builds samples: trips stream in as per-day [`TripBatch`]es, each stage's
//! artifact updates in place, and only dirty addresses are re-retrieved and
//! re-featurized. [`DlInfMa`] in [`pipeline`] is the batch API over one
//! engine (`DlInfMa::prepare` is one big ingest, bit-for-bit equal to
//! streaming the same days), and [`ShardedEngine`] runs one engine per
//! station shard behind one serving surface — the shape the store, the
//! serving layer and the CLI drive.

pub mod candidates;
pub mod engine;
pub mod features;
pub mod locmatcher;
pub mod pipeline;
pub mod sharded;
pub mod snapshot;
pub mod stages;
pub mod staypoints;

pub use candidates::{CandidateId, CandidatePool, LocationCandidate, LocationProfile, TIME_BINS};
pub use dlinfma_params as params;
pub use dlinfma_synth::TripBatch;
pub use engine::Engine;
pub use features::{AddressSample, CandidateFeatures, FeatureConfig};
pub use locmatcher::{LocMatcher, LocMatcherConfig, TrainReport};
pub use pipeline::{DlInfMa, DlInfMaConfig, PoolMethod};
pub use sharded::ShardedEngine;
pub use snapshot::{Checkpoint, RestoredEngine, SnapshotError};
pub use staypoints::{extract_batch_with_stats, extract_stay_points, ExtractionConfig, TripStays};
