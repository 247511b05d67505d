//! Online (streaming) loaded-trajectory detection.
//!
//! The paper's deployment motivation is *immediacy*: "Once an HCT truck is
//! found to violate the regulations, further actions can be taken
//! immediately" — but the batch pipeline needs the whole one-day trajectory.
//! [`StreamingDetector`] closes that gap: GPS points are pushed as they
//! arrive, noise filtering and stay-point extraction run incrementally, and
//! every time a stay point *completes* the trained model updates a running
//! hypothesis of the loaded trajectory.
//!
//! The update is incremental too (DESIGN.md §16). The detector keeps the
//! day's scoring state: the compressor's per-start LSTM runs, the c-vec of
//! every candidate, and the detector outputs no later stay point can
//! change. A completed stay point then costs the features and phase-1
//! encoding of its own segments, the encoding of the candidates it
//! completes, its one new backward subgroup and a re-run of the forward
//! side — not a re-encoding of the day.
//!
//! Both halves are **exactly equivalent** to the batch pipeline. Feeding a
//! trajectory point-by-point and then calling [`StreamingDetector::finish`]
//! yields the same cleaned points and the same stay points as
//! [`ProcessedTrajectory::from_raw`] (a property test pins this down), and
//! every hypothesis has the bits of [`Lead::detect_opts`] on the same
//! prefix, because batch detection runs the same scoring state with all
//! stay points appended at once (`crates/core/tests/incremental_parity.rs`).

use crate::pipeline::{DayScorer, DetectOptions, DetectionResult, Lead};
use crate::poi::PoiDatabase;
use crate::processing::{enumerate_candidates, ProcessedTrajectory, StayPoint};
use lead_geo::{GpsPoint, Trajectory};
use lead_obs::probe::{Probe, NOOP};

/// Incremental stay-point extraction over a growing point buffer — the
/// online form of [`crate::processing::extract_stay_points`], maintaining
/// the invariant that every buffered point after the anchor lies within
/// `D_max` of the anchor (an *open run*).
///
/// Feeding a buffer point-by-point emits exactly the stays the batch
/// algorithm finds, in order (the trailing open run is closed by
/// [`Self::finish`]); a property test in `tests/proptest_core.rs` pins the
/// equivalence on random trajectories.
#[derive(Debug, Clone)]
pub struct IncrementalStayExtractor {
    d_max_m: f64,
    t_min_s: i64,
    anchor: usize,
    /// Number of anchor-distance evaluations performed so far. Exposed via
    /// [`Self::distance_evals`] so tests can pin the amortized-O(1) contract.
    distance_evals: u64,
}

impl IncrementalStayExtractor {
    /// Creates an extractor with the given thresholds.
    pub fn new(d_max_m: f64, t_min_s: i64) -> Self {
        assert!(d_max_m > 0.0 && t_min_s > 0, "thresholds must be positive");
        Self {
            d_max_m,
            t_min_s,
            anchor: 0,
            distance_evals: 0,
        }
    }

    /// The current open-run anchor index.
    pub fn anchor(&self) -> usize {
        self.anchor
    }

    /// Total anchor-distance evaluations since construction.
    ///
    /// The per-point cost contract: while a run stays open only the newly
    /// appended point is checked against the anchor (one evaluation), and a
    /// full rescan happens only after re-anchoring — so a stream of `n`
    /// points whose anchor advances `a` times costs `O(n + Σ rescan)` ≤
    /// `O(n·a)` total, not the `O(n²)` of rescanning every open run on every
    /// push. Pinned by a regression test on a single long dwell.
    pub fn distance_evals(&self) -> u64 {
        self.distance_evals
    }

    fn within(&mut self, points: &[GpsPoint], anchor: usize, j: usize) -> bool {
        self.distance_evals += 1;
        points[anchor].distance_m(&points[j]) <= self.d_max_m
    }

    /// Called after one point was appended to `points`; returns the stay
    /// that completed, if any (mirrors the batch algorithm's anchor walk).
    ///
    /// At most one stay completes per point, so the result holds zero or one
    /// stay. The new point is the first break of the open run, so the only
    /// run that can complete is the one ending just before it, and emitting
    /// that run re-anchors at the new point. If that run is too short, every
    /// run the re-anchored walk finds starts later and ends no later, so it
    /// is shorter still.
    ///
    /// Cost: amortized O(1) while the run stays open — the open-run
    /// invariant (every buffered point after the anchor is within `D_max`
    /// of it) already holds for all but the new point, so only the new point
    /// is checked; the full anchor walk reruns only after a run breaks.
    pub fn on_point_appended(&mut self, points: &[GpsPoint]) -> Vec<StayPoint> {
        let end = points.len() - 1;
        if self.anchor >= end {
            return Vec::new();
        }
        // Fast path: the invariant covers points (anchor, end); the newly
        // appended point either keeps the run open (nothing to do) or is the
        // first break — the slow anchor walk below then starts at a state
        // where `end` is known to be the first break of the current anchor.
        if self.within(points, self.anchor, end) {
            return Vec::new();
        }
        let mut emitted = Vec::new();
        let mut first_break = Some(end);
        loop {
            let end = points.len() - 1;
            if self.anchor >= end {
                break;
            }
            // First point after the anchor that breaks the run: known from
            // the fast path on the first iteration, rescanned after every
            // re-anchoring.
            let brk = match first_break.take() {
                Some(j) => Some(j),
                None => {
                    let anchor = self.anchor;
                    ((anchor + 1)..=end).find(|&j| !self.within(points, anchor, j))
                }
            };
            let Some(j) = brk else {
                break; // run still open at buffer end
            };
            let run_end = j - 1;
            if run_end > self.anchor && points[run_end].t - points[self.anchor].t >= self.t_min_s {
                emitted.push(StayPoint {
                    start: self.anchor,
                    end: run_end,
                });
                self.anchor = j;
            } else {
                self.anchor += 1;
            }
        }
        emitted
    }

    /// Closes a qualifying trailing run at end-of-stream.
    pub fn finish(&self, points: &[GpsPoint]) -> Option<StayPoint> {
        let end = points.len().checked_sub(1)?;
        (self.anchor < end && points[end].t - points[self.anchor].t >= self.t_min_s).then_some(
            StayPoint {
                start: self.anchor,
                end,
            },
        )
    }
}

/// What changed after pushing one GPS point.
#[derive(Debug, Clone)]
pub struct StreamUpdate {
    /// The point was rejected by the speed-based noise filter.
    pub filtered_out: bool,
    /// Indexes of stay points that *completed* with this push (usually empty
    /// or one; see [`IncrementalStayExtractor::on_point_appended`]).
    pub completed_stays: Vec<usize>,
    /// The current best hypothesis (recomputed only when a stay completes
    /// and at least two stay points exist).
    pub hypothesis: Option<DetectionResult>,
}

/// Incremental raw-trajectory processing plus rolling detection.
pub struct StreamingDetector<'m, 'p> {
    model: &'m Lead,
    poi_db: &'p PoiDatabase,
    /// Noise-filtered points so far.
    points: Vec<GpsPoint>,
    /// Completed stay points.
    stays: Vec<StayPoint>,
    extractor: IncrementalStayExtractor,
    v_max_mps: f64,
    probe: &'p dyn Probe,
    /// The day's scoring state, extended on every rescore.
    day: DayScorer,
}

impl<'m, 'p> StreamingDetector<'m, 'p> {
    /// Starts a stream against a trained model.
    pub fn new(model: &'m Lead, poi_db: &'p PoiDatabase) -> Self {
        Self::with_probe(model, poi_db, &NOOP)
    }

    /// [`Self::new`] with an observability probe: records
    /// `stream.points_in` / `stream.points_filtered` /
    /// `stream.stays_completed` / `stream.rescores` counters as the stream
    /// advances, `stream.candidates_encoded` (the candidates a rescore
    /// encodes: those its new stay points complete) and
    /// `stream.subgroups_scored` (the detector subgroups it runs), and the
    /// detection spans and counters of [`Lead::detect_opts`] per rescore.
    /// Metrics are write-only — updates and detections are identical for
    /// any probe.
    pub fn with_probe(model: &'m Lead, poi_db: &'p PoiDatabase, probe: &'p dyn Probe) -> Self {
        let v_max_mps = model.config().v_max_kmh / 3.6;
        let extractor =
            IncrementalStayExtractor::new(model.config().d_max_m, model.config().t_min_s);
        Self {
            model,
            poi_db,
            points: Vec::new(),
            stays: Vec::new(),
            extractor,
            v_max_mps,
            probe,
            day: DayScorer::new(model),
        }
    }

    /// Number of accepted (noise-filtered) points so far.
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// Completed stay points so far.
    pub fn stay_points(&self) -> &[StayPoint] {
        &self.stays
    }

    /// Pushes one GPS point.
    ///
    /// # Panics
    /// Panics if `p` is not strictly later than the previous accepted point.
    pub fn push(&mut self, p: GpsPoint) -> StreamUpdate {
        let probing = self.probe.enabled();
        if probing {
            self.probe.count("stream.points_in", 1);
        }
        // Incremental noise filter: judge against the last kept point.
        if let Some(last) = self.points.last() {
            assert!(p.t > last.t, "stream must be chronological");
            if last.speed_to_mps(&p) > self.v_max_mps {
                if probing {
                    self.probe.count("stream.points_filtered", 1);
                }
                return StreamUpdate {
                    filtered_out: true,
                    completed_stays: Vec::new(),
                    hypothesis: None,
                };
            }
        }
        self.points.push(p);
        let mut completed_stays = Vec::new();
        for stay in self.extractor.on_point_appended(&self.points) {
            self.stays.push(stay);
            completed_stays.push(self.stays.len() - 1);
        }
        if probing && !completed_stays.is_empty() {
            self.probe
                .count("stream.stays_completed", completed_stays.len() as u64);
        }
        let hypothesis = if !completed_stays.is_empty() && self.stays.len() >= 2 {
            self.score()
        } else {
            None
        };
        StreamUpdate {
            filtered_out: false,
            completed_stays,
            hypothesis,
        }
    }

    fn current_processed(&self) -> ProcessedTrajectory {
        ProcessedTrajectory {
            cleaned: Trajectory::new(self.points.clone()),
            stay_points: self.stays.clone(),
            candidates: enumerate_candidates(self.stays.len()),
        }
    }

    /// Appends the newly completed stay points to the day's scoring state
    /// and scores it.
    fn score(&mut self) -> Option<DetectionResult> {
        let probing = self.probe.enabled();
        if probing {
            self.probe.count("stream.rescores", 1);
        }
        let opts = DetectOptions::new().with_probe(self.probe);
        let scored = self
            .day
            .score(self.model, &self.points, &self.stays, self.poi_db, &opts)?;
        if probing {
            let count = |n: usize| u64::try_from(n).unwrap_or(u64::MAX);
            self.probe.count(
                "stream.candidates_encoded",
                count(scored.candidates_encoded),
            );
            self.probe
                .count("stream.subgroups_scored", count(scored.subgroups_scored));
        }
        Some(DetectionResult {
            processed: self.current_processed(),
            probabilities: scored.probabilities,
            detected: scored.detected?,
        })
    }

    /// Ends the stream: closes a qualifying trailing run (the batch
    /// algorithm's end-of-trajectory stay) and returns the final detection.
    pub fn finish(mut self) -> Option<DetectionResult> {
        if let Some(stay) = self.extractor.finish(&self.points) {
            self.stays.push(stay);
        }
        self.score()
    }

    /// The processing state as a batch-equivalent [`ProcessedTrajectory`]
    /// (completed stays only; the trailing open run is not closed).
    pub fn snapshot(&self) -> ProcessedTrajectory {
        self.current_processed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LeadConfig;
    use crate::processing::extract_stay_points;
    use lead_geo::distance::meters_to_lng_deg;

    /// Synthetic day: dwell / drive / dwell / drive / dwell.
    fn demo_points() -> Vec<GpsPoint> {
        let per_km = meters_to_lng_deg(1_000.0, 32.0);
        let mut pts = Vec::new();
        let mut t = 0;
        for block in 0..3 {
            let lng = 120.9 + block as f64 * 5.0 * per_km;
            for _ in 0..10 {
                pts.push(GpsPoint::new(32.0, lng, t));
                t += 120;
            }
            for k in 1..=3 {
                pts.push(GpsPoint::new(32.0, lng + k as f64 * 1.25 * per_km, t));
                t += 120;
            }
        }
        pts
    }

    /// An untrained model is fine for testing the *processing* equivalence.
    fn dummy_model() -> (Lead, PoiDatabase) {
        use crate::features::{Normalizer, FEATURE_DIM};
        use crate::pipeline::LeadOptions;
        let cfg = LeadConfig::fast_test();
        let model =
            Lead::new_untrained(&cfg, LeadOptions::full(), Normalizer::identity(FEATURE_DIM))
                .expect("fast_test config is valid");
        let db = PoiDatabase::new(vec![]);
        (model, db)
    }

    #[test]
    fn streaming_extraction_matches_batch() {
        let (model, db) = dummy_model();
        let pts = demo_points();
        let mut stream = StreamingDetector::new(&model, &db);
        for &p in &pts {
            stream.push(p);
        }
        // Completed stays must be a prefix of the batch extraction.
        let batch = extract_stay_points(
            &Trajectory::new(pts.clone()),
            model.config().d_max_m,
            model.config().t_min_s as f64,
        );
        let streamed = stream.stay_points().to_vec();
        assert!(!streamed.is_empty());
        assert_eq!(&batch[..streamed.len()], &streamed[..]);
        // finish() closes the trailing dwell: full equality.
        let mut stream = StreamingDetector::new(&model, &db);
        for &p in &pts {
            stream.push(p);
        }
        let snapshot = {
            let mut s = stream.snapshot().stay_points;
            if let Some(stay) = stream.extractor.finish(&pts) {
                s.push(stay);
            }
            s
        };
        assert_eq!(batch, snapshot);
    }

    #[test]
    fn long_dwell_costs_amortized_constant_distance_evals_per_point() {
        // A single 5,000-point dwell: the pre-fix extractor rescanned the
        // whole open run from the anchor on every append — ~n²/2 ≈ 12.5 M
        // distance evaluations. The amortized extractor checks only the new
        // point while the run stays open, so the total stays linear.
        let n: usize = 5_000;
        let mut ex = IncrementalStayExtractor::new(500.0, 900);
        let mut buffer = Vec::new();
        for i in 0..n {
            buffer.push(GpsPoint::new(32.0, 120.9, i as i64 * 10));
            let emitted = ex.on_point_appended(&buffer);
            assert!(emitted.is_empty(), "dwell must stay open");
        }
        let evals = ex.distance_evals();
        assert!(
            evals <= 2 * n as u64,
            "expected O(n) distance evals for an open run, got {evals} for n={n}"
        );
        // The trailing dwell still closes into one batch-identical stay.
        let stay = ex.finish(&buffer).expect("qualifying trailing dwell");
        assert_eq!((stay.start, stay.end), (0, n - 1));
    }

    #[test]
    fn rescan_after_reanchoring_still_emits_interior_stays() {
        // dwell A (45 min) → 200 m hop → dwell B (45 min) → far jump.
        // Closing A re-anchors inside history; the rescan must then find B
        // intact and emit it when the far jump arrives.
        let per_km = meters_to_lng_deg(1_000.0, 32.0);
        let mut pts = Vec::new();
        let mut t = 0;
        for _ in 0..30 {
            pts.push(GpsPoint::new(32.0, 120.9, t));
            t += 90;
        }
        for _ in 0..30 {
            pts.push(GpsPoint::new(32.0, 120.9 + 0.7 * per_km, t));
            t += 90;
        }
        pts.push(GpsPoint::new(32.0, 120.9 + 6.0 * per_km, t));

        let mut ex = IncrementalStayExtractor::new(500.0, 900);
        let mut buffer = Vec::new();
        let mut streamed = Vec::new();
        for &p in &pts {
            buffer.push(p);
            streamed.extend(ex.on_point_appended(&buffer));
        }
        let batch = extract_stay_points(&Trajectory::new(pts), 500.0, 900.0);
        assert_eq!(batch.len(), 2, "two dwells expected");
        assert_eq!(streamed, batch);
    }

    #[test]
    fn noise_is_filtered_incrementally() {
        let (model, db) = dummy_model();
        let mut stream = StreamingDetector::new(&model, &db);
        assert!(!stream.push(GpsPoint::new(32.0, 120.9, 0)).filtered_out);
        // 8 km jump in 120 s ≈ 240 km/h → filtered.
        let update = stream.push(GpsPoint::new(32.072, 120.9, 120));
        assert!(update.filtered_out);
        assert_eq!(stream.num_points(), 1);
        // The next sane point is accepted (judged against the kept point).
        assert!(!stream.push(GpsPoint::new(32.001, 120.9, 240)).filtered_out);
        assert!(stream
            .push(GpsPoint::new(32.002, 120.9, 360))
            .completed_stays
            .is_empty());
    }

    #[test]
    fn hypothesis_appears_once_two_stays_complete() {
        let (model, db) = dummy_model();
        let mut stream = StreamingDetector::new(&model, &db);
        let mut first_hypothesis_at = None;
        for (i, &p) in demo_points().iter().enumerate() {
            let u = stream.push(p);
            if u.hypothesis.is_some() && first_hypothesis_at.is_none() {
                first_hypothesis_at = Some(i);
                assert!(stream.stay_points().len() >= 2);
            }
        }
        assert!(
            first_hypothesis_at.is_some(),
            "no rolling hypothesis emitted"
        );
    }

    #[test]
    fn finish_detects_with_trailing_stay() {
        let (model, db) = dummy_model();
        let mut stream = StreamingDetector::new(&model, &db);
        for &p in &demo_points() {
            stream.push(p);
        }
        let result = stream.finish().expect("three stays → detectable");
        assert!(result.processed.num_stay_points() >= 2);
        assert!(result.detected.start_sp < result.detected.end_sp);
    }

    #[test]
    fn a_finished_day_encodes_each_candidate_once() {
        let (model, db) = dummy_model();
        let rec = lead_obs::Recorder::new();
        let mut stream = StreamingDetector::with_probe(&model, &db, &rec);
        let mut rescores = 0;
        for &p in &demo_points() {
            rescores += u64::from(stream.push(p).hypothesis.is_some());
        }
        let n = stream
            .finish()
            .expect("three stays")
            .processed
            .num_stay_points() as u64;
        assert_eq!(n, 3);
        assert_eq!(rec.counter("stream.rescores"), Some(rescores + 1));
        assert_eq!(
            rec.counter("stream.candidates_encoded"),
            Some(n * (n - 1) / 2)
        );
        // Every forward subgroup on every rescore (at 2 stays, at 3, and at
        // finish), each backward subgroup once.
        assert_eq!(rescores, 2);
        assert_eq!(rec.counter("stream.subgroups_scored"), Some(1 + 2 + 2 + 2));
    }

    #[test]
    fn fewer_than_two_stays_finish_none_without_panicking() {
        let (model, db) = dummy_model();
        // No points at all.
        let stream = StreamingDetector::new(&model, &db);
        assert!(stream.finish().is_none());
        // A single dwell (one stay point): still no candidate.
        let mut stream = StreamingDetector::new(&model, &db);
        let mut t = 0;
        for _ in 0..20 {
            stream.push(GpsPoint::new(32.0, 120.9, t));
            t += 120;
        }
        assert!(stream.finish().is_none());
    }

    #[test]
    #[should_panic(expected = "chronological")]
    fn non_chronological_push_panics() {
        let (model, db) = dummy_model();
        let mut stream = StreamingDetector::new(&model, &db);
        stream.push(GpsPoint::new(32.0, 120.9, 100));
        stream.push(GpsPoint::new(32.0, 120.9, 50));
    }
}
