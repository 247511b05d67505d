//! The scoring state of one day (DESIGN.md §16): everything a new stay point
//! cannot change, kept so that scoring the day again costs only what the
//! new stay points add.
//!
//! [`Lead::detect_opts`] appends all of a day's stay points in one call;
//! [`crate::streaming::StreamingDetector`] appends them as they complete.
//! Both run the same code, and every cached value is bit-identical to what
//! the one-call case computes, so a streamed hypothesis equals the batch
//! detection of the same prefix.

use super::{reorder_backward_to_canonical, DetectOptions, Detector, Lead};
use crate::detection::{
    argmax_candidate, forward_flat_order, merge_probabilities, softmax, GroupDetector,
};
use crate::encoding::{end_major_index, CandidateEncoder};
use crate::features::FeatureExtractor;
use crate::poi::PoiDatabase;
use crate::processing::{Candidate, StayPoint};
use lead_geo::GpsPoint;
use lead_obs::clock;

/// One scoring of a day.
pub(crate) struct Scored {
    /// Merged probabilities over candidates in the canonical order.
    pub(crate) probabilities: Vec<f32>,
    /// The most probable candidate (`None` when no probability is finite).
    pub(crate) detected: Option<Candidate>,
    /// Candidates encoded by this scoring: those the new stay points
    /// completed.
    pub(crate) candidates_encoded: usize,
    /// Subgroups the detectors ran: every forward subgroup, and the
    /// backward subgroups the new stay points completed.
    pub(crate) subgroups_scored: usize,
}

/// The scoring state of one day's stay points.
///
/// Candidates are kept in end-major order ([`end_major_index`]), the order
/// in which stay points complete them. A backward subgroup `ḡ_e` (all
/// candidates ending at `e`) and the MLP probability of a candidate are
/// fixed once stay point `e` completes, so they are computed once and
/// cached; only the forward side, where every subgroup gains a member with
/// each stay point, runs again on every scoring.
pub(crate) struct DayScorer {
    /// Stay points appended so far.
    stays: usize,
    /// c-vec width.
    width: usize,
    encoder: CandidateEncoder,
    /// The c-vec of every candidate so far, end-major.
    c_vecs: Vec<f32>,
    /// Stay points whose candidates have their settled outputs in
    /// `settled`.
    settled_stays: usize,
    /// The backward detector's logits, in backward flattening order, or the
    /// MLP's probabilities, end-major, of the settled candidates.
    settled: Vec<f32>,
}

impl DayScorer {
    /// An empty day for `model`.
    pub(crate) fn new(model: &Lead) -> Self {
        Self {
            stays: 0,
            width: model.autoencoder.c_vec_dim(),
            encoder: CandidateEncoder::default(),
            c_vecs: Vec::new(),
            settled_stays: 0,
            settled: Vec::new(),
        }
    }

    /// Appends the stay points of `stays` this state has not seen (the
    /// ones before are the stay points appended earlier, over the same
    /// growing `points`) and scores the day. `None` when fewer than two
    /// stay points exist (no candidate). Records the `features`, `encode`,
    /// `detect.score` and `detect.merge` spans and the `detect.*` counters
    /// on `opts.probe`.
    ///
    /// # Panics
    /// Panics if `stays` is shorter than what was appended, or a stay point
    /// lies outside `points`.
    pub(crate) fn score(
        &mut self,
        model: &Lead,
        points: &[GpsPoint],
        stays: &[StayPoint],
        poi_db: &PoiDatabase,
        opts: &DetectOptions<'_>,
    ) -> Option<Scored> {
        let probe = opts.probe;
        let n = stays.len();
        assert!(n >= self.stays, "stay points are only ever appended");
        if n < 2 {
            if probe.enabled() {
                probe.count("detect.no_candidates", 1);
            }
            return None;
        }
        if probe.enabled() {
            probe.count("detect.calls", 1);
            probe.observe("detect.stay_points", n as f64);
        }
        let num_threads = opts.num_threads.unwrap_or(model.config.num_threads);
        let fx = FeatureExtractor::new(poi_db, &model.config, model.use_poi, &model.normalizer);
        let tf = fx.segment_features(points, stays, self.stays, num_threads, probe);
        let c_vecs = {
            let _span = clock::span(probe, "encode");
            self.encoder
                .append(&model.autoencoder, &tf.sp_seqs, &tf.mp_seqs)
        };
        drop(tf);
        self.stays = n;
        let candidates_encoded = c_vecs.len() / self.width;
        self.c_vecs.extend_from_slice(&c_vecs);

        let score_span = clock::span(probe, "detect.score");
        let (probabilities, subgroups_scored) = match &model.detector {
            Detector::Both { forward, backward } => {
                let settled = self.settle_backward(backward);
                let f = self.forward(forward);
                let _merge_span = clock::span(probe, "detect.merge");
                let b = softmax(self.settled.clone());
                (merge_probabilities(n, &f, &b), n - 1 + settled)
            }
            Detector::Forward(det) => (self.forward(det), n - 1),
            Detector::Backward(det) => {
                let settled = self.settle_backward(det);
                let b = softmax(self.settled.clone());
                (reorder_backward_to_canonical(n, &b), settled)
            }
            Detector::Mlp(det) => {
                let start = self.settled.len() * self.width;
                let new = det.row_probabilities(&self.c_vecs[start..]);
                self.settled.extend(new);
                self.settled_stays = n;
                let probabilities = forward_flat_order(n)
                    .into_iter()
                    .map(|c| self.settled[end_major_index(c)])
                    .collect();
                (probabilities, 0)
            }
        };
        drop(score_span);
        let detected = argmax_candidate(n, &probabilities);
        Some(Scored {
            probabilities,
            detected,
            candidates_encoded,
            subgroups_scored,
        })
    }

    /// The c-vec of candidate `c`.
    fn c_vec(&self, c: Candidate) -> &[f32] {
        let (w, row) = (self.width, end_major_index(c));
        &self.c_vecs[row * w..(row + 1) * w]
    }

    /// The forward side over every forward subgroup, in one packed pass.
    fn forward(&self, det: &GroupDetector) -> Vec<f32> {
        let n = self.stays;
        // Subgroup g_s holds the n − 1 − s candidates starting at s.
        let lens: Vec<usize> = (1..n).rev().collect();
        let xs: Vec<f32> = forward_flat_order(n)
            .into_iter()
            .flat_map(|c| self.c_vec(c).iter().copied())
            .collect();
        softmax(det.logits(&lens, &xs))
    }

    /// Runs the backward subgroups the new stay points completed, in one
    /// packed pass, and caches their logits; returns how many ran.
    fn settle_backward(&mut self, det: &GroupDetector) -> usize {
        // Subgroup ḡ_e holds the e candidates ending at e, by descending
        // start.
        let lens: Vec<usize> = (self.settled_stays.max(1)..self.stays).collect();
        let xs: Vec<f32> = lens
            .iter()
            .flat_map(|&e| (0..e).rev().map(move |s| Candidate::new(s, e)))
            .flat_map(|c| self.c_vec(c).iter().copied())
            .collect();
        if !lens.is_empty() {
            self.settled.extend(det.logits(&lens, &xs));
        }
        self.settled_stays = self.stays;
        lens.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LeadConfig;
    use crate::features::{Normalizer, FEATURE_DIM};
    use crate::pipeline::LeadOptions;
    use crate::processing::ProcessedTrajectory;
    use lead_geo::distance::meters_to_lng_deg;
    use lead_geo::Trajectory;

    /// Eight dwells separated by short drives.
    fn day() -> ProcessedTrajectory {
        let per_km = meters_to_lng_deg(1_000.0, 32.0);
        let mut pts = Vec::new();
        let mut t = 0;
        for block in 0..8 {
            let lng = 120.9 + block as f64 * 5.0 * per_km;
            for _ in 0..10 + block % 3 {
                pts.push(GpsPoint::new(32.0, lng, t));
                t += 120;
            }
            for k in 1..=3 {
                pts.push(GpsPoint::new(32.0, lng + k as f64 * 1.25 * per_km, t));
                t += 120;
            }
        }
        ProcessedTrajectory::from_raw(&Trajectory::new(pts), &LeadConfig::fast_test())
    }

    #[test]
    fn scoring_after_uneven_appends_matches_one_append() {
        let proc = day();
        let (points, stays) = (proc.cleaned.points(), &proc.stay_points);
        assert_eq!(stays.len(), 8);
        let db = PoiDatabase::new(vec![]);
        let opts = DetectOptions::new();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for options in [
            LeadOptions::full(),
            LeadOptions::no_hie(),
            LeadOptions::no_gro(),
            LeadOptions::no_for(),
            LeadOptions::no_bac(),
        ] {
            let model = Lead::new_untrained(
                &LeadConfig::fast_test(),
                options,
                Normalizer::identity(FEATURE_DIM),
            )
            .expect("fast_test config is valid");
            // Stay points arrive one, then three, then four at a time.
            let mut day = DayScorer::new(&model);
            let mut encoded = 0;
            for n in [1, 4, 8] {
                let got = day.score(&model, points, &stays[..n], &db, &opts);
                let want = DayScorer::new(&model).score(&model, points, &stays[..n], &db, &opts);
                let (Some(got), Some(want)) = (got, want) else {
                    assert!(n < 2, "{}: no scores for {n} stays", options.name());
                    continue;
                };
                assert_eq!(bits(&got.probabilities), bits(&want.probabilities));
                assert_eq!(got.detected, want.detected);
                encoded += got.candidates_encoded;
                assert_eq!(encoded, n * (n - 1) / 2, "{}", options.name());
            }
        }
    }
}
