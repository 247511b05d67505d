//! Versioned, checksummed binary containers and streaming sources for LEAD.
//!
//! CSV ingestion and in-RAM `Vec` datasets cap the scale the pipeline can
//! train on. This crate provides the `datafmt`/`dataload` split: a compact
//! binary container format (magic + version + kind header, per-record FNV-1a
//! checksums, explicit end marker) holding raw trajectories, labelled
//! training samples, POI databases, and feature tensors, plus the
//! [`TrajectorySource`] trait that lets the in-RAM path, the CSV reader, and
//! binary shard files feed consumers through one streaming, shardable API.
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
pub mod source;

pub use container::{ContainerReader, ContainerWriter, MAGIC, MAX_RECORD_LEN, VERSION};
pub use error::{DataError, MalformedKind, RecordKind};
pub use records::{
    LabeledSampleReader, LabeledSampleRecord, LabeledSampleWriter, PoiReader, PoiRecord, PoiWriter,
    TensorReader, TensorRecord, TensorWriter, TrajectoryReader, TrajectoryWriter,
};
pub use source::{BinaryTrajectoryShards, CsvTrajectoryFile, TrajectorySource, VecTrajectories};
