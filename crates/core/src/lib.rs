//! # LEAD — the loaded-trajectory detection framework
//!
//! Rust implementation of *Detecting Loaded Trajectories for Hazardous
//! Chemicals Transportation* (ICDE 2022). Given a one-day raw GPS trajectory
//! of an HCT truck, LEAD detects the **loaded trajectory**: the subtrajectory
//! from the loading stay point to the unloading stay point.
//!
//! The three components of the paper map onto three module trees:
//!
//! 1. [`processing`] — noise filtering, stay-point extraction, candidate
//!    trajectory generation (Section III);
//! 2. [`encoding`] — feature extraction ([`features`]) and the hierarchical
//!    autoencoder producing a compressed vector per candidate (Section IV);
//! 3. [`detection`] — forward/backward group generation, stacked-BiLSTM
//!    detectors, label processing, probability merging (Section V).
//!
//! [`pipeline::Lead`] ties them together: [`pipeline::Lead::fit`] is the
//! offline stage, [`pipeline::Lead::detect`] the online stage.
//! [`pipeline::LeadOptions`] switches the ablation variants of Section VI
//! (`LEAD-NoPoi`, `-NoSel`, `-NoHie`, `-NoGro`, `-NoFor`, `-NoBac`).
//!
//! Supporting modules: [`poi`] (the 29-category POI database backing the
//! 32-dimensional point features), [`label`] (ground-truth handling),
//! [`config`] (every hyper-parameter of Section VI-A, at its paper value),
//! [`persist`] (save/load of trained models), [`error`] (the unified
//! [`LeadError`] surface of the fallible public API), [`source`]
//! (shardable [`SampleSource`] ingestion backing
//! [`pipeline::Lead::fit_streaming`], from in-RAM slices or `lead-data`
//! labelled-sample shards), and [`streaming`]
//! (online detection over live GPS feeds — an extension beyond the paper's
//! batch pipeline). Hot paths accept a `lead_obs` probe
//! ([`pipeline::DetectOptions`], [`pipeline::FitOptions`]) for
//! per-stage spans and counters; metrics are write-only and never change
//! results.

pub mod config;
pub mod detection;
pub mod encoding;
pub mod error;
pub mod features;
pub mod label;
pub mod persist;
pub mod pipeline;
pub mod poi;
pub mod processing;
pub mod source;
pub mod streaming;

pub use config::{ConfigError, LeadConfig};
pub use error::LeadError;
pub use label::TruthLabel;
pub use pipeline::{DetectOptions, DetectionResult, FitOptions, Lead, LeadOptions, TrainingReport};
pub use poi::{Poi, PoiCategory, PoiDatabase, PoiRole, NUM_POI_CATEGORIES};
pub use processing::{Candidate, ProcessedTrajectory, StayPoint};
pub use source::{BinarySampleShards, SampleSource, SliceSamples, SourceError};
