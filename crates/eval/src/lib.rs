//! Experiment harness regenerating the paper's evaluation (Section VI):
//! per-bucket accuracy (Tables III–IV), inference timing (Figure 8), and
//! training-loss curves (Figures 9–10).
//!
//! - [`buckets`] — the paper's stay-point buckets 3–5 / 6–8 / 9–11 / 12–14;
//! - [`metrics`] — the `Acc` metric of Equation (14), bucketed;
//! - [`timing`] — per-bucket median inference time;
//! - [`runner`] — trains any method on a [`lead_synth::Dataset`] once and
//!   sweeps the trained model over any test split;
//! - [`scenarios`] — per-scenario robustness rows (accuracy and IoU under
//!   each named GPS pathology, never averaged away);
//! - [`errors`] — endpoint-level error decomposition of detections;
//! - [`svg`] — SVG map rendering of trajectories and detections;
//! - [`report`] — paper-style text tables and CSV emission.

pub mod buckets;
pub mod errors;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod scenarios;
pub mod svg;
#[expect(clippy::disallowed_types, reason = "R5: sanctioned wall-clock home")]
pub mod timing;

pub use buckets::Bucket;
pub use errors::{DetectionOutcome, ErrorBreakdown};
pub use metrics::{BucketAccuracy, IntervalError};
pub use runner::{EvalOutcome, Method, SweepStats, TrainedModel};
pub use scenarios::{evaluate_scenarios, ScenarioOutcome};
pub use timing::BucketTiming;
