#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]
//! Deployment layer (Section VI): the delivery-location store and the two
//! applications built on it.
//!
//! * [`snapshot`] — the address→location store with the deployed fallback
//!   chain (address → building → geocode): immutable epoch-tagged
//!   snapshots frozen from a trained fleet and published via `Arc` swap
//!   for the always-on serving layer;
//! * [`route`] — Application 1: TSP route planning over inferred locations;
//! * [`availability`] — Application 2: customer availability inference from
//!   corrected delivery times.

pub mod availability;
pub mod route;
pub mod snapshot;

pub use availability::{
    availability_profiles, corrected_delivery_time, weekly_availability, AvailabilityProfile,
    WeeklyAvailability,
};
pub use route::{plan_route, Route};
pub use snapshot::{LocationSnapshot, QuerySource, SnapshotCell};
