//! Per-layer breakdowns from a `lead_obs::Recorder` attached through the
//! public probe hooks, plus the benchmark-side spans around each public
//! call (`bench.call`, `bench.rescore`, `bench.push`, `bench.fit`).
//!
//! A layer's self time is its span total minus the spans nested in it; the
//! call's wall time minus every layer is reported as `unattributed`, so the
//! layers and the remainder add up to the traced wall time exactly.

use crate::ops::Replay;
use crate::stats::{median, Outcome};
use lead_obs::recorder::MetricsSnapshot;

/// Largest share of the traced wall time the detection breakdown may leave
/// unattributed before the run fails.
pub const MAX_UNATTRIBUTED: f64 = 0.05;

/// A recorder snapshot whose span times read in reference-clock ms: wall
/// times multiplied by `scale`, the run's reference-clock scale.
pub struct Snap(pub MetricsSnapshot, pub f64);

impl Snap {
    /// Total of a span in reference-clock ms (0 when never recorded).
    pub fn ms(&self, name: &str) -> f64 {
        self.0
            .spans
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, s)| s.sum / 1e6 * self.1)
    }

    /// How many times a span was recorded.
    pub fn times(&self, name: &str) -> u64 {
        self.0
            .spans
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, s)| s.count)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.0
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    pub fn observed(&self, name: &str) -> f64 {
        self.0
            .histograms
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, s)| s.sum)
    }
}

/// Work counts of one pass that the untraced run derives on its own; the
/// traced run must reproduce them.
pub struct Work {
    /// Timed calls: detections, or stream rescores and finishes.
    pub ops: u64,
    /// Stay points and candidates of the processed days.
    pub stays: u64,
    pub candidates: u64,
    /// Candidates encoded and subgroups scored across all ops.
    pub encoded: u64,
    pub subgroups: u64,
}

/// The detection breakdown, per op, of `passes` traced passes that each
/// did `work`. `outer` names the benchmark span around each op; `wall_ms`
/// is the traced wall time and `processing_ms` the processing inside it.
pub fn detect_layers(
    out: &mut Outcome,
    s: &Snap,
    outer: &str,
    wall_ms: f64,
    processing_ms: f64,
    passes: u64,
    work: &Work,
) {
    let ops = (work.ops * passes) as f64;
    let features = s.ms("features");
    let encode = s.ms("encode");
    let score = s.ms("detect.score");
    let merge = s.ms("detect.merge");
    let unattributed = wall_ms - processing_ms - features - encode - score;
    out.check(s.times(outer) == work.ops * passes, || {
        format!(
            "traced {outer} spans {} != ops {}",
            s.times(outer),
            work.ops * passes
        )
    });
    out.check(
        (0.0..=MAX_UNATTRIBUTED * wall_ms).contains(&unattributed),
        || format!("unattributed {unattributed:.3} ms of {wall_ms:.3} ms traced wall exceeds {MAX_UNATTRIBUTED}"),
    );
    out.metric("trace.wall_ms", wall_ms / ops, "ms");
    out.metric("processing.ms", processing_ms / ops, "ms");
    out.metric("features.ms", features / ops, "ms");
    out.metric("encode.ms", encode / ops, "ms");
    out.metric("detect.score.ms", (score - merge) / ops, "ms");
    out.metric("detect.merge.ms", merge / ops, "ms");
    out.metric("detect.unattributed_ms", unattributed / ops, "ms");
    out.metric("processing.stay_points", work.stays as f64, "count");
    out.metric("processing.candidates", work.candidates as f64, "count");
    out.metric(
        "features.rows",
        (s.counter("features.rows") / passes.max(1)) as f64,
        "count",
    );
    out.metric("encode.candidates", work.encoded as f64, "count");
    out.metric("detect.subgroups", work.subgroups as f64, "count");
}

/// The stream breakdown: `s` holds `passes` traced replays of the fleet
/// that the untraced `replay` replayed, so each must reproduce its counts;
/// the untraced `plain` replays time the non-rescoring push.
pub fn stream_layers(out: &mut Outcome, s: &Snap, passes: u64, replay: &Replay, plain: &[Replay]) {
    let rescores = replay.op_ns.len() as u64;
    let final_candidates: u64 = replay
        .final_stays
        .iter()
        .map(|&n| crate::ops::pairs(n) as u64)
        .sum();
    out.check(s.counter("stream.rescores") == rescores * passes, || {
        format!(
            "traced stream.rescores {} != untraced {}",
            s.counter("stream.rescores"),
            rescores * passes
        )
    });
    out.check(
        s.counter("stream.points_filtered") == replay.filtered * passes,
        || "traced stream.points_filtered differs from the untraced count".into(),
    );
    let push_us: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.push_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect();
    out.metric("stream.push_us", median(&push_us), "us");
    out.metric("stream.rescores", rescores as f64, "count");
    out.metric(
        "stream.candidates_encoded",
        replay.candidates_encoded as f64,
        "count",
    );
    out.metric(
        "stream.reencode_ratio",
        replay.candidates_encoded as f64 / final_candidates.max(1) as f64,
        "ratio",
    );
}

/// The fit breakdown, per fit, of `fits` traced fits recorded in `s`.
pub fn fit_layers(out: &mut Outcome, s: &Snap, fits: u64, samples_read: u64, steps: &Steps) {
    let f = fits as f64;
    let wall = s.ms("bench.fit");
    let read = s.ms("data.read_shard");
    let processing = s.ms("processing");
    let features = s.ms("fit.features");
    let ae = s.ms("fit.autoencoder");
    let ae_epochs = s.ms("ae.epoch");
    let encode = s.ms("fit.encode");
    let det = s.ms("fit.detectors");
    let fwd = s.ms("det.fwd.epoch");
    let bwd = s.ms("det.bwd.epoch");
    let per_epoch = |total: f64, name: &str| total / s.times(name).max(1) as f64;
    out.metric("data.read_shard_ms", read / f, "ms");
    out.metric("data.samples_read", samples_read as f64, "count");
    out.metric("fit.processing.ms", processing / f, "ms");
    out.metric("fit.features.ms", features / f, "ms");
    out.metric("fit.autoencoder.ms", (ae - ae_epochs) / f, "ms");
    out.metric("ae.epoch.ms", per_epoch(ae_epochs, "ae.epoch"), "ms");
    out.metric("fit.encode.ms", encode / f, "ms");
    out.metric("fit.detectors.ms", (det - fwd - bwd) / f, "ms");
    out.metric("det.fwd.epoch.ms", per_epoch(fwd, "det.fwd.epoch"), "ms");
    out.metric("det.bwd.epoch.ms", per_epoch(bwd, "det.bwd.epoch"), "ms");
    out.metric(
        "fit.unattributed_ms",
        (wall - read - processing - features - ae - encode - det) / f,
        "ms",
    );
    for (name, want) in [
        ("ae.optim_steps", steps.ae),
        ("det.fwd.optim_steps", steps.det),
        ("det.bwd.optim_steps", steps.det),
    ] {
        let got = s.counter(name);
        out.check(got == want * fits, || {
            format!("traced {name} {got} != expected {}", want * fits)
        });
        out.metric(name, (got / fits.max(1)) as f64, "count");
    }
}

/// Optimiser steps one fit must take: every stage runs its whole schedule
/// and steps once per full or final partial accumulation window.
pub struct Steps {
    pub ae: u64,
    pub det: u64,
}
