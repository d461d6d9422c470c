#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]
//! Geographic primitives for the DLInfMA reproduction.
//!
//! All pipeline geometry operates on [`Point`]s in a *local metric frame*:
//! east/north offsets in meters from a dataset origin. Raw GPS fixes in
//! WGS-84 degrees are represented by [`LatLng`] and converted with a
//! [`Projection`], which is accurate to well under a meter at city scale —
//! far below the 5–15 m GPS noise the pipeline must tolerate.
//!
//! The crate also provides the spatial data structures the pipeline and the
//! baselines rely on:
//!
//! * a uniform [`GridIndex`] for radius and nearest-neighbour queries over
//!   large point sets,
//! * a [`BBox`] axis-aligned bounding box.

pub mod bbox;
pub mod grid;
pub mod latlng;
pub mod point;

pub use bbox::BBox;
pub use grid::GridIndex;
pub use latlng::{LatLng, Projection};
pub use point::{centroid, Point};
