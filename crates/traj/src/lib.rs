#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]
//! Trajectory types and preprocessing for the DLInfMA reproduction.
//!
//! A courier's GPS stream enters the pipeline as a [`Trajectory`] of
//! [`TrajPoint`]s. Before stay points can be extracted it is cleaned with the
//! heuristics-based [`noise`] filter (speed outlier removal, following Zheng,
//! "Trajectory Data Mining", 2015), and then segmented into [`StayPoint`]s
//! with the classic detector of Li et al. (2008) exactly as Definition 4 of
//! the paper prescribes (`D_max = 20 m`, `T_min = 30 s` by default).

pub mod noise;
pub mod staypoint;
pub mod types;

pub use noise::{filter_noise, NoiseFilterConfig};
pub use staypoint::{detect_stay_points, StayPoint, StayPointConfig};
pub use types::{TrajPoint, Trajectory};
