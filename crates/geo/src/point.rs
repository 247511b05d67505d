//! GPS points and raw trajectories (Definition 1 of the paper).

use crate::distance::haversine_m;

/// A single GPS fix: a WGS84 location plus a timestamp.
///
/// This is the paper's `p = (lat, lng, t)`. Timestamps are Unix seconds; a raw
/// trajectory covers one calendar day, so consecutive timestamps within a
/// trajectory span at most 86 400 seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpsPoint {
    /// Latitude in degrees, positive north.
    pub lat: f64,
    /// Longitude in degrees, positive east.
    pub lng: f64,
    /// Timestamp in Unix seconds.
    pub t: i64,
}

impl GpsPoint {
    /// Creates a point from latitude/longitude degrees and a Unix timestamp.
    pub fn new(lat: f64, lng: f64, t: i64) -> Self {
        Self { lat, lng, t }
    }

    /// Great-circle distance to `other` in meters.
    pub fn distance_m(&self, other: &GpsPoint) -> f64 {
        haversine_m(self.lat, self.lng, other.lat, other.lng)
    }

    /// Average speed in meters/second travelling from `self` to `other`.
    ///
    /// Returns `f64::INFINITY` when the two points share a timestamp but not a
    /// location, and `0.0` when they coincide entirely; this mirrors how the
    /// paper's heuristic noise filter treats degenerate pairs (an infinite
    /// speed always exceeds `V_max`, so a co-timestamped jump is dropped).
    pub fn speed_to_mps(&self, other: &GpsPoint) -> f64 {
        let d = self.distance_m(other);
        let dt = (other.t - self.t).abs() as f64;
        if dt == 0.0 {
            if d == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            d / dt
        }
    }
}

/// A chronologically ordered sequence of GPS points (Definition 1).
///
/// The paper's raw trajectory `tr^r = <p_1, ..., p_n>` generated by one HCT
/// truck within one day. The type is also used for subtrajectories (stay
/// points, move points, candidate and loaded trajectories) since they are all
/// contiguous slices of a raw trajectory.
///
/// ```
/// use lead_geo::{GpsPoint, Trajectory};
///
/// let tr = Trajectory::new(vec![
///     GpsPoint::new(32.00, 120.90, 0),
///     GpsPoint::new(32.00, 120.91, 120),
///     GpsPoint::new(32.00, 120.92, 240),
/// ]);
/// assert_eq!(tr.len(), 3);
/// assert_eq!(tr.duration_s(), 240);
/// assert!(tr.length_m() > 1_800.0 && tr.length_m() < 1_950.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trajectory {
    points: Vec<GpsPoint>,
}

impl Trajectory {
    /// Creates a trajectory from points, asserting chronological order in
    /// debug builds (the paper requires `p_i.t < p_{i+1}.t`).
    pub fn new(points: Vec<GpsPoint>) -> Self {
        debug_assert!(
            points.windows(2).all(|w| matches!(w, [a, b] if a.t < b.t)),
            "trajectory points must be strictly chronological"
        );
        Self { points }
    }

    /// Creates a trajectory without the chronological debug check.
    ///
    /// Use only for intentionally malformed inputs in tests.
    pub fn new_unchecked(points: Vec<GpsPoint>) -> Self {
        Self { points }
    }

    /// An empty trajectory.
    pub fn empty() -> Self {
        Self { points: Vec::new() }
    }

    /// The underlying points.
    pub fn points(&self) -> &[GpsPoint] {
        &self.points
    }

    /// Consumes the trajectory and returns its points.
    pub fn into_points(self) -> Vec<GpsPoint> {
        self.points
    }

    /// Number of GPS points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the trajectory has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The first point, if any.
    pub fn first(&self) -> Option<&GpsPoint> {
        self.points.first()
    }

    /// The last point, if any.
    pub fn last(&self) -> Option<&GpsPoint> {
        self.points.last()
    }

    /// The contiguous subtrajectory over point indexes `start..=end`.
    ///
    /// # Panics
    /// Panics if `start > end` or `end >= len()`.
    pub fn slice(&self, start: usize, end: usize) -> Trajectory {
        assert!(
            start <= end && end < self.points.len(),
            "slice out of range"
        );
        Trajectory {
            points: self.points[start..=end].to_vec(),
        }
    }

    /// Total duration in seconds (0 for trajectories with < 2 points).
    pub fn duration_s(&self) -> i64 {
        match (self.points.first(), self.points.last()) {
            (Some(a), Some(b)) => b.t - a.t,
            _ => 0,
        }
    }

    /// Total path length in meters, summing consecutive great-circle legs.
    pub fn length_m(&self) -> f64 {
        self.points
            .iter()
            .zip(self.points.iter().skip(1))
            .map(|(a, b)| a.distance_m(b))
            .sum()
    }

    /// Centroid of the member points (arithmetic mean of lat/lng; adequate for
    /// the small spatial extents of stay points). Returns `None` when empty.
    pub fn centroid(&self) -> Option<(f64, f64)> {
        if self.points.is_empty() {
            return None;
        }
        let n = self.points.len() as f64;
        let (slat, slng) = self
            .points
            .iter()
            .fold((0.0, 0.0), |(a, b), p| (a + p.lat, b + p.lng));
        Some((slat / n, slng / n))
    }

    /// Iterates over the points.
    pub fn iter(&self) -> std::slice::Iter<'_, GpsPoint> {
        self.points.iter()
    }
}

impl From<Vec<GpsPoint>> for Trajectory {
    fn from(points: Vec<GpsPoint>) -> Self {
        Trajectory::new(points)
    }
}

impl<'a> IntoIterator for &'a Trajectory {
    type Item = &'a GpsPoint;
    type IntoIter = std::slice::Iter<'a, GpsPoint>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lng: f64, t: i64) -> GpsPoint {
        GpsPoint::new(lat, lng, t)
    }

    #[test]
    fn speed_between_identical_points_is_zero() {
        let a = p(32.0, 120.9, 100);
        assert_eq!(a.speed_to_mps(&a), 0.0);
    }

    #[test]
    fn speed_with_zero_dt_and_positive_distance_is_infinite() {
        let a = p(32.0, 120.9, 100);
        let b = p(32.1, 120.9, 100);
        assert!(a.speed_to_mps(&b).is_infinite());
    }

    #[test]
    fn speed_is_distance_over_time() {
        let a = p(32.0, 120.9, 0);
        let b = p(32.0, 120.91, 100);
        let d = a.distance_m(&b);
        let v = a.speed_to_mps(&b);
        assert!((v - d / 100.0).abs() < 1e-9);
    }

    #[test]
    fn trajectory_duration_and_len() {
        let tr = Trajectory::new(vec![
            p(32.0, 120.9, 0),
            p(32.0, 120.91, 120),
            p(32.0, 120.92, 240),
        ]);
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.duration_s(), 240);
        assert!(!tr.is_empty());
    }

    #[test]
    fn empty_trajectory_duration_is_zero() {
        let tr = Trajectory::empty();
        assert_eq!(tr.duration_s(), 0);
        assert_eq!(tr.length_m(), 0.0);
        assert!(tr.centroid().is_none());
    }

    #[test]
    fn slice_is_inclusive() {
        let tr = Trajectory::new(vec![
            p(32.0, 120.9, 0),
            p(32.0, 120.91, 120),
            p(32.0, 120.92, 240),
        ]);
        let s = tr.slice(1, 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.first().unwrap().t, 120);
        assert_eq!(s.last().unwrap().t, 240);
    }

    #[test]
    #[should_panic(expected = "slice out of range")]
    fn slice_out_of_range_panics() {
        let tr = Trajectory::new(vec![p(32.0, 120.9, 0)]);
        let _ = tr.slice(0, 1);
    }

    #[test]
    fn length_sums_legs() {
        let tr = Trajectory::new(vec![
            p(32.0, 120.9, 0),
            p(32.0, 120.91, 60),
            p(32.0, 120.92, 120),
        ]);
        let leg1 = tr.points()[0].distance_m(&tr.points()[1]);
        let leg2 = tr.points()[1].distance_m(&tr.points()[2]);
        assert!((tr.length_m() - (leg1 + leg2)).abs() < 1e-9);
    }

    #[test]
    fn centroid_is_mean() {
        let tr = Trajectory::new(vec![p(32.0, 120.0, 0), p(34.0, 122.0, 60)]);
        let (lat, lng) = tr.centroid().unwrap();
        assert!((lat - 33.0).abs() < 1e-12);
        assert!((lng - 121.0).abs() < 1e-12);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "chronological")]
    fn non_chronological_points_panic_in_debug() {
        let _ = Trajectory::new(vec![p(32.0, 120.9, 100), p(32.0, 120.91, 50)]);
    }
}
