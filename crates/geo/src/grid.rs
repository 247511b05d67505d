//! A uniform grid spatial index for radius queries.
//!
//! LEAD issues two kinds of radius queries in hot paths:
//! - POI feature extraction counts POIs within **100 m** of every GPS point of
//!   every candidate trajectory (Section IV-A);
//! - the SP-R baseline searches the whitelist within **500 m** of every stay
//!   point (Section VI-A).
//!
//! A uniform grid keyed on lat/lng cells turns both from `O(|POIs|)` scans
//! into constant-neighborhood lookups. `bench_ratchet`'s ratio rows
//! `poi/grid_over_scan_counts_256_queries` and
//! `baselines/whitelist_grid_over_scan_256_queries` measure the gain over a
//! linear scan.

use crate::bbox::BoundingBox;
use crate::distance::{haversine_m, meters_to_lat_deg, meters_to_lng_deg};

/// A static point set indexed by a uniform lat/lng grid, supporting
/// `within_radius` queries.
///
/// Items are `(lat, lng, payload)` triples. The grid is built once and is
/// immutable afterwards — both use sites index static databases (the POI
/// database, the SP-R whitelist).
#[derive(Debug, Clone)]
pub struct GridIndex<T> {
    bbox: BoundingBox,
    cell_m: f64,
    cell_lat_deg: f64,
    cell_lng_deg: f64,
    cols: usize,
    rows: usize,
    /// `cells[row * cols + col]` holds indexes into `items`.
    cells: Vec<Vec<u32>>,
    items: Vec<(f64, f64, T)>,
}

impl<T> GridIndex<T> {
    /// Builds an index over `items` with square-ish cells of `cell_m` meters.
    ///
    /// `cell_m` should be on the order of the query radius: queries then touch
    /// at most a 3×3 (or slightly larger) neighborhood of cells.
    ///
    /// # Panics
    /// Panics if `cell_m <= 0` or any item falls outside a sane latitude band
    /// (|lat| ≥ 89.9°).
    pub fn build(items: Vec<(f64, f64, T)>, cell_m: f64) -> Self {
        assert!(cell_m > 0.0, "cell size must be positive");
        let pts: Vec<crate::GpsPoint> = items
            .iter()
            .map(|(lat, lng, _)| crate::GpsPoint::new(*lat, *lng, 0))
            .collect();
        let bbox = BoundingBox::from_points(&pts)
            .unwrap_or_else(|| BoundingBox::new(0.0, 0.0, 0.0, 0.0))
            // A tiny margin keeps max-edge points strictly inside.
            .expanded(1e-9);
        assert!(
            bbox.min_lat.abs() < 89.9 && bbox.max_lat.abs() < 89.9,
            "grid index does not support polar latitudes"
        );
        let cell_lat_deg = meters_to_lat_deg(cell_m);
        let ref_lat = bbox.max_lat.abs().max(bbox.min_lat.abs());
        let cell_lng_deg = meters_to_lng_deg(cell_m, ref_lat.min(89.0));
        let cols = ((bbox.lng_span() / cell_lng_deg).ceil() as usize).max(1);
        let rows = ((bbox.lat_span() / cell_lat_deg).ceil() as usize).max(1);
        let mut cells = vec![Vec::new(); rows * cols];
        for (i, (lat, lng, _)) in items.iter().enumerate() {
            let (r, c) = Self::cell_of(&bbox, cell_lat_deg, cell_lng_deg, rows, cols, *lat, *lng);
            cells[r * cols + c].push(i as u32);
        }
        Self {
            bbox,
            cell_m,
            cell_lat_deg,
            cell_lng_deg,
            cols,
            rows,
            cells,
            items,
        }
    }

    fn cell_of(
        bbox: &BoundingBox,
        cell_lat_deg: f64,
        cell_lng_deg: f64,
        rows: usize,
        cols: usize,
        lat: f64,
        lng: f64,
    ) -> (usize, usize) {
        let r =
            (((lat - bbox.min_lat) / cell_lat_deg).floor() as isize).clamp(0, rows as isize - 1);
        let c =
            (((lng - bbox.min_lng) / cell_lng_deg).floor() as isize).clamp(0, cols as isize - 1);
        (r as usize, c as usize)
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the index holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// All items as `(lat, lng, payload)` triples, in insertion order.
    pub fn items(&self) -> &[(f64, f64, T)] {
        &self.items
    }

    /// Calls `f(lat, lng, payload, distance_m)` for every item within
    /// `radius_m` meters of `(lat, lng)` (boundary inclusive).
    pub fn for_each_within<'a, F: FnMut(f64, f64, &'a T, f64)>(
        &'a self,
        lat: f64,
        lng: f64,
        radius_m: f64,
        mut f: F,
    ) {
        if self.items.is_empty() || radius_m < 0.0 {
            return;
        }
        // Cells are ~cell_m meters on each side, so the radius spans this many
        // whole cells in every direction (+1 absorbs the approximation slack
        // of the degree↔meter conversion across the city extent).
        let span = (radius_m / self.cell_m).ceil() as isize + 1;
        let (dlat_cells, dlng_cells) = (span, span);
        let (r0, c0) = Self::cell_of(
            &self.bbox,
            self.cell_lat_deg,
            self.cell_lng_deg,
            self.rows,
            self.cols,
            lat,
            lng,
        );
        let rlo = (r0 as isize - dlat_cells).max(0) as usize;
        let rhi = ((r0 as isize + dlat_cells) as usize).min(self.rows - 1);
        let clo = (c0 as isize - dlng_cells).max(0) as usize;
        let chi = ((c0 as isize + dlng_cells) as usize).min(self.cols - 1);
        for r in rlo..=rhi {
            for c in clo..=chi {
                for &idx in &self.cells[r * self.cols + c] {
                    let (ilat, ilng, ref payload) = self.items[idx as usize];
                    let d = haversine_m(lat, lng, ilat, ilng);
                    if d <= radius_m {
                        f(ilat, ilng, payload, d);
                    }
                }
            }
        }
    }

    /// Collects the payloads (with distances) of all items within `radius_m`.
    pub fn within_radius(&self, lat: f64, lng: f64, radius_m: f64) -> Vec<(&T, f64)> {
        let mut out = Vec::new();
        self.for_each_within(lat, lng, radius_m, |_, _, t, d| out.push((t, d)));
        out
    }

    /// Counts items within `radius_m` of `(lat, lng)`.
    pub fn count_within(&self, lat: f64, lng: f64, radius_m: f64) -> usize {
        let mut n = 0;
        self.for_each_within(lat, lng, radius_m, |_, _, _, _| n += 1);
        n
    }

    /// The nearest item to `(lat, lng)` within `radius_m`, if any.
    pub fn nearest_within(&self, lat: f64, lng: f64, radius_m: f64) -> Option<(&T, f64)> {
        let mut best: Option<(&T, f64)> = None;
        self.for_each_within(lat, lng, radius_m, |_, _, t, d| match best {
            Some((_, bd)) if bd <= d => {}
            _ => best = Some((t, d)),
        });
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::meters_to_lng_deg;

    fn grid_200m_points() -> Vec<(f64, f64, usize)> {
        // A 10x10 grid of points 200 m apart around Nantong.
        let dlat = meters_to_lat_deg(200.0);
        let dlng = meters_to_lng_deg(200.0, 32.0);
        let mut v = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                v.push((32.0 + dlat * i as f64, 120.9 + dlng * j as f64, i * 10 + j));
            }
        }
        v
    }

    #[test]
    fn within_radius_matches_linear_scan() {
        let items = grid_200m_points();
        let idx = GridIndex::build(items.clone(), 150.0);
        for &(qlat, qlng, radius) in &[
            (32.0005, 120.9005, 250.0),
            (32.001, 120.905, 500.0),
            (32.0, 120.9, 0.0),
            (31.99, 120.89, 100.0),
        ] {
            let mut expect: Vec<usize> = items
                .iter()
                .filter(|(lat, lng, _)| haversine_m(qlat, qlng, *lat, *lng) <= radius)
                .map(|&(_, _, id)| id)
                .collect();
            let mut got: Vec<usize> = idx
                .within_radius(qlat, qlng, radius)
                .into_iter()
                .map(|(id, _)| *id)
                .collect();
            expect.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expect, "q=({qlat},{qlng}) r={radius}");
        }
    }

    #[test]
    fn count_within_counts() {
        let idx = GridIndex::build(grid_200m_points(), 150.0);
        // Radius 250 m around the first grid point covers itself + 2 axis
        // neighbors at 200 m (diagonal is ~283 m away).
        let n = idx.count_within(32.0, 120.9, 250.0);
        assert_eq!(n, 3);
    }

    #[test]
    fn nearest_within_returns_closest() {
        let idx = GridIndex::build(grid_200m_points(), 150.0);
        let (id, d) = idx.nearest_within(32.00001, 120.90001, 1000.0).unwrap();
        assert_eq!(*id, 0);
        assert!(d < 5.0);
    }

    #[test]
    fn nearest_within_none_when_out_of_range() {
        let idx = GridIndex::build(grid_200m_points(), 150.0);
        assert!(idx.nearest_within(40.0, 110.0, 100.0).is_none());
    }

    #[test]
    fn empty_index_is_safe() {
        let idx: GridIndex<u8> = GridIndex::build(Vec::new(), 100.0);
        assert!(idx.is_empty());
        assert_eq!(idx.count_within(32.0, 120.9, 100.0), 0);
        assert!(idx.nearest_within(32.0, 120.9, 100.0).is_none());
    }

    #[test]
    fn single_item_index() {
        let idx = GridIndex::build(vec![(32.0, 120.9, 7u32)], 100.0);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.count_within(32.0, 120.9, 1.0), 1);
        assert_eq!(idx.count_within(33.0, 120.9, 1.0), 0);
    }

    #[test]
    fn duplicate_positions_are_all_returned() {
        let items = vec![(32.0, 120.9, 1u8), (32.0, 120.9, 2), (32.0, 120.9, 3)];
        let idx = GridIndex::build(items, 100.0);
        assert_eq!(idx.count_within(32.0, 120.9, 1.0), 3);
    }

    #[test]
    fn negative_radius_yields_nothing() {
        let idx = GridIndex::build(vec![(32.0, 120.9, ())], 100.0);
        assert_eq!(idx.count_within(32.0, 120.9, -5.0), 0);
    }

    #[test]
    fn boundary_inclusive() {
        let dlat = meters_to_lat_deg(100.0);
        let idx = GridIndex::build(vec![(32.0 + dlat, 120.9, 1u8)], 50.0);
        // The item sits ~100 m north of the query point.
        let n = idx.count_within(32.0, 120.9, 100.5);
        assert_eq!(n, 1);
        let n = idx.count_within(32.0, 120.9, 99.0);
        assert_eq!(n, 0);
    }
}
