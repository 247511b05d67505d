//! Versioned, checksummed binary containers for LEAD's two record kinds.
//!
//! LEAD reads raw GPS days and trains on labelled truck-days, so this crate
//! stores exactly those: `(truck_id, Trajectory)` records (what
//! `data-convert` writes from CSV) and labelled training samples (the shards
//! `lead_core::source::BinarySampleShards` feeds to `Lead::fit_streaming`).
//! A container is a magic + version + kind header, records framed with a
//! length and an FNV-1a checksum, and an explicit end marker; see
//! [`container`]. Each kind has a typed writer/reader pair in [`records`].
//!
//! Coordinates and timestamps are delta-encoded; latitude/longitude use a
//! fixed-point 1e-7-degree grid *only when the round-trip is provably exact
//! for every point in the record* (checked bitwise at encode time), falling
//! back to raw IEEE-754 bits otherwise. Decoding therefore always
//! reconstructs the original `f64` bit patterns.
//!
//! All failures surface as the typed [`DataError`]; nothing in this crate
//! panics on malformed input.

pub mod codec;
pub mod container;
pub mod error;
pub mod records;

pub use container::{ContainerReader, ContainerWriter, MAGIC, MAX_RECORD_LEN, VERSION};
pub use error::{DataError, MalformedKind, RecordKind};
pub use records::{
    LabeledSampleReader, LabeledSampleRecord, LabeledSampleWriter, TrajectoryReader,
    TrajectoryWriter,
};
