//! Feature extraction (Section IV-A): each GPS point becomes the
//! 32-dimensional vector `f = [lat, lng, t, poi]` with `poi` the counts of
//! the 29 POI categories within 100 m, z-score normalised.

use crate::config::LeadConfig;
use crate::poi::{PoiDatabase, NUM_POI_CATEGORIES};
use crate::processing::{Candidate, ProcessedTrajectory, StayPoint};
use lead_geo::GpsPoint;
use lead_nn::Matrix;

/// Width of a point feature vector: `[lat, lng, t]` + 29 POI counts.
pub const FEATURE_DIM: usize = 3 + NUM_POI_CATEGORIES;

/// Z-score normalisation statistics, fit on the training split (Cheadle et
/// al. 2003, cited by the paper for outlier robustness).
#[derive(Debug, Clone)]
pub struct Normalizer {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Normalizer {
    /// Fits per-dimension mean and standard deviation over raw feature rows.
    ///
    /// Dimensions with zero variance get `std = 1` so they normalise to 0
    /// instead of NaN (common for rare POI categories).
    ///
    /// # Panics
    /// Panics if `rows` is empty or rows disagree on width.
    pub fn fit(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "cannot fit a normaliser on no data");
        let dim = rows.first().map_or(0, |r| r.len());
        let n = rows.len() as f64;
        let mut mean = vec![0f64; dim];
        for r in rows {
            assert_eq!(r.len(), dim, "feature width mismatch");
            for (m, &v) in mean.iter_mut().zip(r.iter()) {
                *m += v as f64;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0f64; dim];
        for r in rows {
            for ((v, &x), &m) in var.iter_mut().zip(r.iter()).zip(mean.iter()) {
                let d = x as f64 - m;
                *v += d * d;
            }
        }
        let std: Vec<f32> = var
            .iter()
            .map(|&v| {
                let s = (v / n).sqrt();
                if s < 1e-9 {
                    1.0
                } else {
                    lead_nn::num::narrow_f64(s)
                }
            })
            .collect();
        Self {
            mean: mean.into_iter().map(lead_nn::num::narrow_f64).collect(),
            std,
        }
    }

    /// An identity normaliser of width `dim` (testing and NoPoi padding).
    pub fn identity(dim: usize) -> Self {
        Self {
            mean: vec![0.0; dim],
            std: vec![1.0; dim],
        }
    }

    /// Rebuilds a normaliser from stored statistics (persistence). Returns
    /// `None` unless the vectors agree in length, every mean is finite and
    /// every std is finite and positive.
    pub fn from_parts(mean: Vec<f32>, std: Vec<f32>) -> Option<Self> {
        let valid = mean.len() == std.len()
            && mean.iter().all(|m| m.is_finite())
            && std.iter().all(|&s| s.is_finite() && s > 0.0);
        valid.then_some(Self { mean, std })
    }

    /// The per-dimension means (persistence).
    pub fn mean(&self) -> &[f32] {
        &self.mean
    }

    /// The per-dimension standard deviations (persistence).
    pub fn std(&self) -> &[f32] {
        &self.std
    }

    /// Feature width.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Applies `(x - mean) / std` in place, then squashes into `[-1, 1]` via
    /// `(z / 3).clamp(-1, 1)`.
    ///
    /// The squash makes the feature range match the `tanh` output range of
    /// the decompression operators — the paper states the decompressor's
    /// final `tanh` "map\[s\] to between −1 to 1, *matching the range of
    /// f-seq*", which a raw z-score does not satisfy (|z| > 1 with
    /// probability 0.32). Three standard deviations cover 99.7 % of values;
    /// the clamp absorbs the z-score's residual outliers.
    pub fn normalize(&self, row: &mut [f32]) {
        assert_eq!(row.len(), self.mean.len(), "feature width mismatch");
        for ((x, &m), &s) in row.iter_mut().zip(self.mean.iter()).zip(self.std.iter()) {
            *x = ((*x - m) / s / 3.0).clamp(-1.0, 1.0);
        }
    }
}

/// The raw (unnormalised) feature vector of one GPS point: the rows
/// [`Normalizer::fit`] is fit on. `use_poi = false` reproduces the
/// `LEAD-NoPoi` ablation: the POI block is zero padding, keeping the feature
/// width constant.
pub fn raw_features(
    poi_db: &PoiDatabase,
    poi_radius_m: f64,
    use_poi: bool,
    p: &GpsPoint,
) -> Vec<f32> {
    let mut f = Vec::with_capacity(FEATURE_DIM);
    f.push(lead_nn::num::narrow_f64(p.lat));
    f.push(lead_nn::num::narrow_f64(p.lng));
    // Seconds within the day: absolute epoch offsets would swamp the
    // z-score statistics without adding information for one-day samples.
    f.push(lead_nn::num::exact_i64_f32(p.t.rem_euclid(86_400)));
    if use_poi {
        let counts = poi_db.category_counts_within(p.lat, p.lng, poi_radius_m);
        f.extend(counts.iter().map(|&c| lead_nn::num::exact_u32_f32(c)));
    } else {
        f.extend(std::iter::repeat_n(0.0, NUM_POI_CATEGORIES));
    }
    f
}

/// Extracts normalised point features against a POI database.
#[derive(Debug, Clone)]
pub struct FeatureExtractor<'a> {
    poi_db: &'a PoiDatabase,
    poi_radius_m: f64,
    /// `false` reproduces the `LEAD-NoPoi` ablation (see [`raw_features`]).
    use_poi: bool,
    normalizer: &'a Normalizer,
}

impl<'a> FeatureExtractor<'a> {
    /// Creates an extractor with the configured 100 m radius and the
    /// normaliser fit on the training split's [`raw_features`].
    ///
    /// # Panics
    /// Panics if the normaliser's width is not [`FEATURE_DIM`].
    pub fn new(
        poi_db: &'a PoiDatabase,
        config: &LeadConfig,
        use_poi: bool,
        normalizer: &'a Normalizer,
    ) -> Self {
        assert_eq!(normalizer.dim(), FEATURE_DIM, "normaliser width mismatch");
        Self {
            poi_db,
            poi_radius_m: config.poi_radius_m,
            use_poi,
            normalizer,
        }
    }

    /// The normalised feature vector of one GPS point.
    pub fn features(&self, p: &GpsPoint) -> Vec<f32> {
        let mut f = raw_features(self.poi_db, self.poi_radius_m, self.use_poi, p);
        self.normalizer.normalize(&mut f);
        f
    }

    /// The feature matrix (rows = points) of the inclusive point range
    /// `[a, b]` of `proc.cleaned`.
    pub fn range_features(&self, proc: &ProcessedTrajectory, a: usize, b: usize) -> Matrix {
        let pts = proc.cleaned.points();
        assert!(a <= b && b < pts.len(), "range out of bounds");
        self.points_features(&pts[a..=b])
    }

    /// The feature matrix (rows = points) of `pts`.
    fn points_features(&self, pts: &[GpsPoint]) -> Matrix {
        let mut data = Vec::with_capacity(pts.len() * FEATURE_DIM);
        for p in pts {
            data.extend(self.features(p));
        }
        Matrix::from_vec(pts.len(), FEATURE_DIM, data)
    }

    /// The structured features of one candidate trajectory: one matrix per
    /// stay point and per move point, in interleaved order.
    pub fn candidate_features(
        &self,
        proc: &ProcessedTrajectory,
        cand: Candidate,
    ) -> CandidateFeatures {
        let mut sp_seqs = Vec::with_capacity(cand.end_sp - cand.start_sp + 1);
        let mut mp_seqs = Vec::with_capacity(cand.end_sp - cand.start_sp);
        for k in cand.start_sp..=cand.end_sp {
            let sp = &proc.stay_points[k];
            sp_seqs.push(self.range_features(proc, sp.start, sp.end));
            if k < cand.end_sp {
                let (a, b) = proc.move_point_range(k);
                mp_seqs.push(self.range_features(proc, a, b));
            }
        }
        CandidateFeatures { sp_seqs, mp_seqs }
    }

    /// The flat feature sequence of a candidate (its GPS points in order,
    /// without the boundary duplication of the structured form) — the input
    /// of the `LEAD-NoHie` flat autoencoder.
    pub fn candidate_flat_features(&self, proc: &ProcessedTrajectory, cand: Candidate) -> Matrix {
        let (a, b) = proc.candidate_point_range(cand);
        self.range_features(proc, a, b)
    }
}

/// The structured features of a whole processed trajectory: one matrix per
/// stay point (`n`) and per move point (`n − 1`).
///
/// Extracting these once per trajectory and slicing per candidate avoids
/// re-querying the POI index for every one of the `n(n−1)/2` candidates —
/// each GPS point's features are computed exactly once.
#[derive(Debug, Clone)]
pub struct TrajectoryFeatures {
    /// Per-stay-point feature matrices, indexed like
    /// [`ProcessedTrajectory::stay_points`].
    pub sp_seqs: Vec<Matrix>,
    /// Per-move-point feature matrices (`mp_k` connects stay points `k` and
    /// `k + 1`).
    pub mp_seqs: Vec<Matrix>,
}

impl TrajectoryFeatures {
    /// The candidate-level view: stay/move sequences of `cand`, cloned.
    pub fn candidate(&self, cand: Candidate) -> CandidateFeatures {
        CandidateFeatures {
            sp_seqs: self.sp_seqs[cand.start_sp..=cand.end_sp].to_vec(),
            mp_seqs: self.mp_seqs[cand.start_sp..cand.end_sp].to_vec(),
        }
    }

    /// Number of stay points.
    pub fn num_stay_points(&self) -> usize {
        self.sp_seqs.len()
    }
}

impl<'a> FeatureExtractor<'a> {
    /// Extracts the features of every stay point and move point of `proc`.
    pub fn trajectory_features(&self, proc: &ProcessedTrajectory) -> TrajectoryFeatures {
        self.trajectory_features_par(proc, 1)
    }

    /// [`Self::trajectory_features`] with the per-segment POI queries and
    /// normalisation spread over `num_threads` workers (0 = all cores).
    /// Segments are independent POI-index lookups, so the result is
    /// bit-identical for every thread count.
    pub fn trajectory_features_par(
        &self,
        proc: &ProcessedTrajectory,
        num_threads: usize,
    ) -> TrajectoryFeatures {
        self.trajectory_features_probed(proc, num_threads, &lead_obs::probe::NOOP)
    }

    /// [`Self::trajectory_features_par`] with an observability probe:
    /// records a `features` span and the number of extracted feature rows.
    /// Metrics are write-only — the features are identical for any probe.
    pub fn trajectory_features_probed(
        &self,
        proc: &ProcessedTrajectory,
        num_threads: usize,
        probe: &dyn lead_obs::probe::Probe,
    ) -> TrajectoryFeatures {
        let (points, stays) = (proc.cleaned.points(), &proc.stay_points);
        self.segment_features(points, stays, 0, num_threads, probe)
    }

    /// [`Self::trajectory_features_probed`] for the stay points
    /// `stays[from..]` of a trajectory whose cleaned points are `points`,
    /// and the move points that end at them: `mp_seqs` starts at move point
    /// `from − 1` (at 0 when `from = 0`, the whole trajectory). A segment's
    /// features depend on its own points only, so extracting a trajectory
    /// in several calls as its stay points complete gives the same
    /// matrices.
    ///
    /// # Panics
    /// Panics if a stay point lies outside `points` or `from` exceeds the
    /// stay points.
    pub(crate) fn segment_features(
        &self,
        points: &[GpsPoint],
        stays: &[StayPoint],
        from: usize,
        num_threads: usize,
        probe: &dyn lead_obs::probe::Probe,
    ) -> TrajectoryFeatures {
        let _span = lead_obs::clock::span(probe, "features");
        let sp_seqs = lead_nn::par::par_map(num_threads, &stays[from..], |_, sp| {
            self.points_features(&points[sp.start..=sp.end])
        });
        let mp_ranges: Vec<(usize, usize)> = stays
            .iter()
            .zip(stays.iter().skip(1))
            .skip(from.saturating_sub(1))
            .map(|(a, b)| (a.end, b.start))
            .collect();
        let mp_seqs = lead_nn::par::par_map(num_threads, &mp_ranges, |_, &(a, b)| {
            self.points_features(&points[a..=b])
        });
        if probe.enabled() {
            let rows: usize = sp_seqs.iter().chain(&mp_seqs).map(Matrix::rows).sum();
            probe.count("features.rows", u64::try_from(rows).unwrap_or(u64::MAX));
        }
        TrajectoryFeatures { sp_seqs, mp_seqs }
    }
}

/// The feature sequences of one candidate trajectory, split by hierarchy:
/// `sp_seqs.len() == mp_seqs.len() + 1`, interleaved as
/// `sp₀, mp₀, sp₁, …, mp_{k−1}, sp_k` (Section IV-B, Figure 4).
#[derive(Debug, Clone)]
pub struct CandidateFeatures {
    /// Per-stay-point feature matrices (`sp-f-seq`s).
    pub sp_seqs: Vec<Matrix>,
    /// Per-move-point feature matrices (`mp-f-seq`s).
    pub mp_seqs: Vec<Matrix>,
}

impl CandidateFeatures {
    /// Total number of feature rows across all sequences.
    pub fn total_rows(&self) -> usize {
        self.sp_seqs
            .iter()
            .chain(self.mp_seqs.iter())
            .map(Matrix::rows)
            .sum()
    }

    /// The interleaved flat feature sequence
    /// `sp₀, mp₀, sp₁, …, mp_{k−1}, sp_k` as one matrix (used by the
    /// `LEAD-NoHie` flat autoencoder, which sees no hierarchy).
    pub fn interleaved(&self) -> Matrix {
        let mut parts: Vec<&Matrix> = Vec::with_capacity(self.sp_seqs.len() + self.mp_seqs.len());
        for (k, sp) in self.sp_seqs.iter().enumerate() {
            parts.push(sp);
            if k < self.mp_seqs.len() {
                parts.push(&self.mp_seqs[k]);
            }
        }
        Matrix::concat_rows(&parts)
    }

    /// Structural sanity check.
    ///
    /// # Panics
    /// Panics if the interleaving invariant is broken.
    pub fn validate(&self) {
        assert_eq!(
            self.sp_seqs.len(),
            self.mp_seqs.len() + 1,
            "candidate must interleave k+1 stay points with k move points"
        );
        for m in self.sp_seqs.iter().chain(self.mp_seqs.iter()) {
            assert!(m.rows() > 0, "empty subsequence");
            assert_eq!(m.cols(), FEATURE_DIM, "feature width mismatch");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poi::{Poi, PoiCategory};
    use lead_geo::Trajectory;

    fn db_with_factory_at(lat: f64, lng: f64) -> PoiDatabase {
        PoiDatabase::new(vec![Poi {
            lat,
            lng,
            category: PoiCategory::ChemicalFactory,
        }])
    }

    #[test]
    fn raw_features_have_poi_counts() {
        let db = db_with_factory_at(32.0, 120.9);
        let cfg = LeadConfig::paper();
        let f = raw_features(
            &db,
            cfg.poi_radius_m,
            true,
            &GpsPoint::new(32.0, 120.9, 3_600),
        );
        assert_eq!(f.len(), FEATURE_DIM);
        assert_eq!(f[0], 32.0);
        assert_eq!(f[1], 120.9);
        assert_eq!(f[2], 3_600.0);
        assert_eq!(f[3 + PoiCategory::ChemicalFactory.index()], 1.0);
        assert_eq!(f[3 + PoiCategory::Restaurant.index()], 0.0);
    }

    #[test]
    fn no_poi_mode_zero_pads() {
        let db = db_with_factory_at(32.0, 120.9);
        let cfg = LeadConfig::paper();
        let f = raw_features(&db, cfg.poi_radius_m, false, &GpsPoint::new(32.0, 120.9, 0));
        assert_eq!(f.len(), FEATURE_DIM);
        assert!(f[3..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn time_feature_wraps_at_midnight() {
        let db = db_with_factory_at(32.0, 120.9);
        let cfg = LeadConfig::paper();
        let f = raw_features(
            &db,
            cfg.poi_radius_m,
            true,
            &GpsPoint::new(32.0, 120.9, 86_400 + 60),
        );
        assert_eq!(f[2], 60.0);
    }

    #[test]
    fn normalizer_zero_means_unit_std() {
        let rows = vec![
            vec![1.0, 10.0, 5.0],
            vec![3.0, 10.0, 7.0],
            vec![5.0, 10.0, 9.0],
        ];
        let n = Normalizer::fit(&rows);
        let mut r = rows[1].clone();
        n.normalize(&mut r);
        assert!((r[0] - 0.0).abs() < 1e-6);
        // Constant dimension: std fallback 1, normalises to 0.
        assert_eq!(r[1], 0.0);
        // Check the full set has mean 0 / std 1 per non-constant dim.
        let normed: Vec<Vec<f32>> = rows
            .iter()
            .map(|r| {
                let mut r = r.clone();
                n.normalize(&mut r);
                r
            })
            .collect();
        let mean0: f32 = normed.iter().map(|r| r[0]).sum::<f32>() / 3.0;
        let var0: f32 = normed.iter().map(|r| r[0] * r[0]).sum::<f32>() / 3.0;
        assert!(mean0.abs() < 1e-6);
        // The /3 squash makes unit-variance features variance 1/9.
        assert!((var0 - 1.0 / 9.0).abs() < 1e-5);
        assert!(normed.iter().all(|r| r.iter().all(|v| v.abs() <= 1.0)));
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn fit_on_empty_rejected() {
        let _ = Normalizer::fit(&[]);
    }

    #[test]
    fn candidate_features_interleave_correctly() {
        // Two dwells with a transit; one candidate.
        let mut pts = Vec::new();
        for k in 0..10 {
            pts.push(GpsPoint::new(32.0, 120.9, k * 120));
        }
        for k in 0..4 {
            pts.push(GpsPoint::new(
                32.0,
                120.91 + 0.012 * k as f64,
                1_200 + k * 120,
            ));
        }
        for k in 0..10 {
            pts.push(GpsPoint::new(32.0, 120.96, 1_680 + (k + 1) * 120));
        }
        let cfg = LeadConfig::paper();
        let proc = ProcessedTrajectory::from_raw(&Trajectory::new(pts), &cfg);
        assert_eq!(proc.num_stay_points(), 2);

        let db = db_with_factory_at(32.0, 120.9);
        let normalizer = Normalizer::identity(FEATURE_DIM);
        let fx = FeatureExtractor::new(&db, &cfg, true, &normalizer);
        let cf = fx.candidate_features(&proc, proc.candidates[0]);
        cf.validate();
        assert_eq!(cf.sp_seqs.len(), 2);
        assert_eq!(cf.mp_seqs.len(), 1);
        assert_eq!(cf.sp_seqs[0].rows(), proc.stay_points[0].len());
        // The move point includes both boundary points.
        let (a, b) = proc.move_point_range(0);
        assert_eq!(cf.mp_seqs[0].rows(), b - a + 1);
        // Flat features have no duplicated boundary rows.
        let flat = fx.candidate_flat_features(&proc, proc.candidates[0]);
        assert_eq!(flat.rows(), cf.total_rows() - 2);
    }
}
