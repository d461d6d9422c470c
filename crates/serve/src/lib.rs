#![warn(missing_docs)]
//! The always-on serving layer (Section VI deployment shape).
//!
//! The paper deploys DLInfMA on JD's JUST platform as a long-running
//! service: address→delivery-location queries keep being answered while
//! courier data for new days keeps arriving. This crate reproduces that
//! shape with zero external dependencies:
//!
//! * [`Server`] — an HTTP/1.1 server on `std::net` answering lookups from
//!   an immutable [`dlinfma_store::LocationSnapshot`] behind a
//!   [`dlinfma_store::SnapshotCell`]. Connections run on named service
//!   threads ([`dlinfma_pool::spawn_service`]); every response carries the
//!   snapshot epoch it was answered from, and a `/batch` request answers
//!   all of its addresses from **one** snapshot load, so epoch consistency
//!   is externally observable.
//! * [`replay_and_publish_sharded`] — the background ingest loop: one
//!   [`dlinfma_core::ShardedEngine::ingest`] per day (1 shard unless the
//!   caller asks for more), then a fresh merged snapshot built *outside*
//!   any lock and swapped in at the materialize boundary. Readers never
//!   wait on a materialize; they keep answering from the previous epoch
//!   until the swap.
//! * [`train_sharded_model`] — labels the fleet's merged samples against
//!   ground truth and trains/installs one fleet `LocMatcher`, so
//!   address-level answers come online mid-stream.
//! * [`HttpClient`] — the matching keep-alive client used by the
//!   `bench_serve` load generator, the CLI self-check and the tests.
//!
//! Per-request spans/counters flow through `crates/obs`
//! (`serve/request`, `serve/publish`, `serve/epoch`, …).

mod http;
mod ingest;
mod server;

pub use http::{HttpClient, Request};
pub use ingest::{publish_sharded_snapshot, replay_and_publish_sharded, train_sharded_model};
pub use server::{ServeConfig, ServeStats, Server};
