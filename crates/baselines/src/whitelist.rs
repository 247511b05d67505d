//! The SP-R whitelist: loading and unloading locations harvested from the
//! training set's archived loaded trajectories.

use lead_core::config::LeadConfig;
use lead_core::label::truth_stay_indices;
use lead_core::pipeline::TrainSample;
use lead_core::processing::ProcessedTrajectory;
use lead_geo::{haversine_m, GridIndex};

/// A set of known loading/unloading locations with radius membership queries.
#[derive(Debug, Clone)]
pub struct Whitelist {
    locations: Vec<(f64, f64)>,
    index: GridIndex<()>,
}

impl Whitelist {
    /// Builds the whitelist from the training set: both ends (the loading and
    /// unloading stay-point centroids) of every archived loaded trajectory.
    pub fn from_training(samples: &[TrainSample], config: &LeadConfig) -> Self {
        let mut locations = Vec::new();
        for s in samples {
            let proc = ProcessedTrajectory::from_raw(&s.raw, config);
            if let Some((l, u)) = truth_stay_indices(&proc, &s.truth) {
                for sp_idx in [l, u] {
                    let sp = &proc.stay_points[sp_idx];
                    if let Some(c) = proc.cleaned.slice(sp.start, sp.end).centroid() {
                        locations.push(c);
                    }
                }
            }
        }
        Self::from_locations(locations)
    }

    /// Builds a whitelist from explicit `(lat, lng)` locations.
    pub fn from_locations(locations: Vec<(f64, f64)>) -> Self {
        let items = locations.iter().map(|&(lat, lng)| (lat, lng, ())).collect();
        Self {
            index: GridIndex::build(items, 500.0),
            locations,
        }
    }

    /// Number of stored locations.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// Whether the whitelist is empty.
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// Whether any whitelisted location lies within `radius_m` of
    /// `(lat, lng)`, by scanning every location.
    ///
    /// This is the paper's SP-R behaviour ("it needs to traverse all the
    /// locations of white list when classifying a stay point") and the reason
    /// SP-R is the slowest method in Figure 8.
    pub fn contains_near_scan(&self, lat: f64, lng: f64, radius_m: f64) -> bool {
        self.locations
            .iter()
            .any(|&(plat, plng)| haversine_m(lat, lng, plat, plng) <= radius_m)
    }

    /// Whether any whitelisted location lies within `radius_m`, via the grid
    /// index — the engineering fix the paper's SP-R lacks; `bench_ratchet`'s
    /// `baselines/whitelist_grid_over_scan_256_queries` row measures it.
    pub fn contains_near_indexed(&self, lat: f64, lng: f64, radius_m: f64) -> bool {
        self.index.nearest_within(lat, lng, radius_m).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lead_geo::distance::meters_to_lng_deg;

    fn wl() -> Whitelist {
        Whitelist::from_locations(vec![(32.0, 120.9), (32.1, 121.0), (31.95, 120.85)])
    }

    #[test]
    fn near_location_is_found() {
        let w = wl();
        let dlng = meters_to_lng_deg(300.0, 32.0);
        assert!(w.contains_near_scan(32.0, 120.9 + dlng, 500.0));
        assert!(w.contains_near_indexed(32.0, 120.9 + dlng, 500.0));
    }

    #[test]
    fn far_location_is_not_found() {
        let w = wl();
        assert!(!w.contains_near_scan(32.5, 120.5, 500.0));
        assert!(!w.contains_near_indexed(32.5, 120.5, 500.0));
    }

    #[test]
    fn scan_and_index_agree_on_a_grid_of_queries() {
        let w = wl();
        for i in 0..20 {
            for j in 0..20 {
                let lat = 31.9 + i as f64 * 0.012;
                let lng = 120.8 + j as f64 * 0.012;
                assert_eq!(
                    w.contains_near_scan(lat, lng, 500.0),
                    w.contains_near_indexed(lat, lng, 500.0),
                    "disagreement at ({lat}, {lng})"
                );
            }
        }
    }

    #[test]
    fn empty_whitelist_finds_nothing() {
        let w = Whitelist::from_locations(Vec::new());
        assert!(w.is_empty());
        assert!(!w.contains_near_scan(32.0, 120.9, 500.0));
        assert!(!w.contains_near_indexed(32.0, 120.9, 500.0));
    }
}
