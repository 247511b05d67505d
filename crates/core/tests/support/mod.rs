//! Fixtures shared by the parity suites: seeded synthetic days per
//! stay-point bucket, a POI database they pass by, the seven variants, a
//! weight perturbation that gives untrained models distinct outputs, and
//! the one way a test forces a SIMD backend.

#![allow(dead_code)]

use lead_core::pipeline::LeadOptions;
use lead_core::poi::{Poi, PoiCategory, PoiDatabase};
use lead_geo::distance::meters_to_lng_deg;
use lead_geo::{GpsPoint, Trajectory};
use lead_nn::simd::{force_backend, Backend};
use lead_nn::ParamSet;
use std::sync::{Mutex, PoisonError};

/// Held by every forced section of a test binary. `force_backend` is
/// process-global and the harness runs tests on several threads, so without
/// it one test's section could run under another test's backend, or none.
static FORCED: Mutex<()> = Mutex::new(());

/// Runs `f` with every dispatched kernel forced onto `backend`, while no
/// other forced section of this binary runs, then restores runtime
/// selection (also when `f` panics).
pub fn forced<T>(backend: Backend, f: impl FnOnce() -> T) -> T {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            force_backend(None);
        }
    }
    // A panicking section poisons the lock; the next one still runs.
    let _lock = FORCED.lock().unwrap_or_else(PoisonError::into_inner);
    let _restore = Restore;
    force_backend(Some(backend));
    f()
}

/// One synthetic working day of `blocks` dwells separated by short drives;
/// `seed` perturbs the geometry and dwell lengths.
pub fn synthetic_day(blocks: usize, seed: u64) -> Trajectory {
    let per_km = meters_to_lng_deg(1_000.0, 32.0);
    let mut pts = Vec::new();
    let mut t = 6 * 3600i64;
    for block in 0..blocks {
        let mix = seed.wrapping_mul(block as u64 + 3) % 11;
        let lng = 120.9 + (block as f64 * 4.0 + mix as f64 * 0.2) * per_km;
        let lat = 32.0 + (mix as f64 - 5.0) * 0.001;
        for _ in 0..10 + mix % 5 {
            pts.push(GpsPoint::new(lat, lng, t));
            t += 120;
        }
        for k in 1..=2 + mix % 3 {
            pts.push(GpsPoint::new(lat, lng + k as f64 * per_km, t));
            t += 120;
        }
    }
    Trajectory::new(pts)
}

pub fn poi_db() -> PoiDatabase {
    let per_km = meters_to_lng_deg(1_000.0, 32.0);
    let categories = [
        PoiCategory::ChemicalFactory,
        PoiCategory::FuelingStation,
        PoiCategory::Port,
    ];
    PoiDatabase::new(
        (0..12)
            .map(|k| Poi {
                lat: 32.0,
                lng: 120.9 + k as f64 * 4.0 * per_km,
                category: categories[k % categories.len()],
            })
            .collect(),
    )
}

pub const VARIANTS: [fn() -> LeadOptions; 7] = [
    LeadOptions::full,
    LeadOptions::no_poi,
    LeadOptions::no_sel,
    LeadOptions::no_hie,
    LeadOptions::no_gro,
    LeadOptions::no_for,
    LeadOptions::no_bac,
];

/// Stay-point buckets of Figure 8 and the dwell count drawn for each.
pub const BUCKETS: [(usize, usize, usize); 4] = [(3, 5, 4), (6, 8, 7), (9, 11, 10), (12, 14, 13)];

/// Moves every weight off its initial value (biases included), so the
/// comparison runs on dense, non-trivial parameters.
pub fn perturb(ps: &mut ParamSet, salt: usize) {
    let ids: Vec<_> = ps.iter().map(|(id, _)| id).collect();
    for id in ids {
        for (k, v) in ps.value_mut(id).data_mut().iter_mut().enumerate() {
            *v += (((salt * 131 + id.index() * 17 + k) as f32) * 0.61).sin() * 0.05;
        }
    }
}

pub fn bits(m: &[f32]) -> Vec<u32> {
    m.iter().map(|v| v.to_bits()).collect()
}
