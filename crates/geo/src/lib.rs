//! Geographic primitives for the LEAD hazardous-chemicals-transportation framework.
//!
//! This crate is the spatial substrate shared by every other crate in the
//! workspace: GPS points and trajectories ([`point`]), great-circle and fast
//! approximate distances ([`distance`]), bounding boxes ([`bbox`]), a uniform
//! grid index for radius queries ([`grid`]), a local metric projection
//! ([`local`]), and CSV trajectory interchange ([`csv`]).
//!
//! All distances are in **meters**, all durations in **seconds**, and all
//! coordinates are WGS84 latitude/longitude in **degrees**, matching the
//! conventions of the paper's Nantong dataset.

pub mod bbox;
pub mod csv;
pub mod distance;
pub mod grid;
pub mod local;
pub mod point;

pub use bbox::BoundingBox;
pub use distance::{equirectangular_m, haversine_m, EARTH_RADIUS_M};
pub use grid::GridIndex;
pub use local::LocalProjection;
pub use point::{GpsPoint, Trajectory};
