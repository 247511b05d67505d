//! Day planning: the three ordered phases of an HCT process plus the
//! confounding breaks that make detection hard.
//!
//! Each plan has one loading stop and one later unloading stop (Figure 1 of
//! the paper) and a controlled number of ordinary breaks before, between, and
//! after them, so the total stay-point count lands in the paper's 3–14 range
//! with the Table III bucket mix. With probability
//! [`SynthConfig::reload_leg_prob`] (0 by default) the day carries a *second*
//! load → unload process after the first — the multi-leg confounder of the
//! scenario suite; the ground truth always labels the first process.

use crate::city::{City, Site};
use crate::config::SynthConfig;
use crate::rand_util::{uniform_i64, weighted_index};
use rand::Rng;

/// A truck's fixed habits: home depot and the l/u sites it serves.
#[derive(Debug, Clone)]
pub struct TruckProfile {
    /// Stable identifier.
    pub id: u32,
    /// Fuel tankers load at fueling stations — the site type everyone also
    /// rests at.
    pub is_fuel_truck: bool,
    /// Home depot where every day starts and ends.
    pub depot: Site,
    /// Loading sites this truck serves.
    pub loading_pool: Vec<Site>,
    /// Unloading sites this truck serves.
    pub unloading_pool: Vec<Site>,
}

impl TruckProfile {
    /// Samples a truck's habits from the city.
    pub fn generate<R: Rng>(city: &City, config: &SynthConfig, rng: &mut R, id: u32) -> Self {
        let is_fuel_truck = rng.gen_bool(config.fuel_truck_fraction);
        let depot = city.depots[rng.gen_range(0..city.depots.len())];
        let load_src: &[Site] = if is_fuel_truck {
            &city.fueling_sites
        } else {
            &city.loading_sites
        };
        let n_load = rng
            .gen_range(config.loading_pool_per_truck.0..=config.loading_pool_per_truck.1)
            .min(load_src.len());
        let n_unload = rng
            .gen_range(config.unloading_pool_per_truck.0..=config.unloading_pool_per_truck.1)
            .min(city.unloading_sites.len());
        // Fuel tankers unload at fueling stations too (delivering fuel).
        let unload_src: &[Site] = if is_fuel_truck {
            &city.fueling_sites
        } else {
            &city.unloading_sites
        };
        TruckProfile {
            id,
            is_fuel_truck,
            depot,
            loading_pool: sample_distinct(rng, load_src, n_load),
            unloading_pool: sample_distinct(rng, unload_src, n_unload),
        }
    }
}

fn sample_distinct<R: Rng>(rng: &mut R, src: &[Site], n: usize) -> Vec<Site> {
    assert!(
        n >= 1 && n <= src.len(),
        "cannot sample {n} from {}",
        src.len()
    );
    let mut idx: Vec<usize> = (0..src.len()).collect();
    // Partial Fisher–Yates.
    for i in 0..n {
        let j = rng.gen_range(i..idx.len());
        idx.swap(i, j);
    }
    idx[..n].iter().map(|&i| src[i]).collect()
}

/// Why the truck stays at a stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StayKind {
    /// Loading hazardous chemicals (origin of the loaded trajectory).
    Loading,
    /// Unloading hazardous chemicals (destination of the loaded trajectory).
    Unloading,
    /// An ordinary break: meal, rest, refuelling the truck itself.
    Break,
}

/// One planned stop of a day.
#[derive(Debug, Clone, Copy)]
pub struct PlannedStop {
    /// Where.
    pub site: Site,
    /// How long, seconds.
    pub dwell_s: i64,
    /// Why.
    pub kind: StayKind,
}

/// A full day plan: departure time, ordered stops, return anchor.
#[derive(Debug, Clone)]
pub struct DayPlan {
    /// Seconds after midnight at departure from the depot.
    pub depart_s: i64,
    /// The ordered stops: one `Loading` then one later `Unloading`, plus an
    /// optional second load/unload pair (the reload leg) after the first.
    pub stops: Vec<PlannedStop>,
    /// Where the day ends (the depot).
    pub end_site: Site,
}

impl DayPlan {
    /// Number of planned stay points (every stop dwells above the threshold).
    pub fn num_stays(&self) -> usize {
        self.stops.len()
    }

    /// Index of the *first* loading stop within `stops`.
    #[expect(
        clippy::expect_used,
        reason = "construction invariant: every generated plan contains at least one loading stop"
    )]
    pub fn loading_index(&self) -> usize {
        self.stops
            .iter()
            .position(|s| s.kind == StayKind::Loading)
            .expect("plan has a loading stop")
    }

    /// Index of the *first* unloading stop within `stops`.
    #[expect(
        clippy::expect_used,
        reason = "construction invariant: every generated plan contains at least one unloading stop"
    )]
    pub fn unloading_index(&self) -> usize {
        self.stops
            .iter()
            .position(|s| s.kind == StayKind::Unloading)
            .expect("plan has an unloading stop")
    }

    /// Whether the truck is loaded while driving *to* stop `i` (or to the end
    /// site when `i == stops.len()`): loading sets the state, unloading
    /// clears it, so a reload leg is loaded again.
    pub fn loaded_on_leg(&self, i: usize) -> bool {
        let upto = i.min(self.stops.len());
        let mut loaded = false;
        for s in &self.stops[..upto] {
            match s.kind {
                StayKind::Loading => loaded = true,
                StayKind::Unloading => loaded = false,
                StayKind::Break => {}
            }
        }
        loaded
    }
}

/// Plans one day for `truck`, targeting the paper's stay-point bucket mix.
pub fn plan_day<R: Rng>(
    city: &City,
    config: &SynthConfig,
    truck: &TruckProfile,
    rng: &mut R,
) -> DayPlan {
    // Stay-point count: sample the bucket, then a count within it.
    let bucket = weighted_index(rng, &config.bucket_weights);
    let (lo, hi) = (3 + 3 * bucket, 5 + 3 * bucket);
    let n_stays = rng.gen_range(lo..=hi);
    let n_breaks = n_stays - 2;

    // Distribute breaks across the three phases.
    let mut pre = 0;
    let mut mid = 0;
    let mut post = 0;
    for _ in 0..n_breaks {
        match weighted_index(rng, &[0.40, 0.25, 0.35]) {
            0 => pre += 1,
            1 => mid += 1,
            _ => post += 1,
        }
    }

    let loading = truck.loading_pool[rng.gen_range(0..truck.loading_pool.len())];
    let unloading = pick_distinct_site(rng, &truck.unloading_pool, loading);

    let mut stops = Vec::with_capacity(n_stays);
    let mut cursor = (truck.depot.x, truck.depot.y);

    for _ in 0..pre {
        let site = pick_break_site(city, config, rng, cursor, (loading.x, loading.y));
        stops.push(PlannedStop {
            site,
            dwell_s: uniform_i64(rng, config.break_dwell_s),
            kind: StayKind::Break,
        });
        cursor = (site.x, site.y);
    }
    stops.push(PlannedStop {
        site: loading,
        dwell_s: uniform_i64(rng, config.loading_dwell_s),
        kind: StayKind::Loading,
    });
    cursor = (loading.x, loading.y);
    for _ in 0..mid {
        let site = pick_break_site(city, config, rng, cursor, (unloading.x, unloading.y));
        stops.push(PlannedStop {
            site,
            dwell_s: uniform_i64(rng, config.break_dwell_s),
            kind: StayKind::Break,
        });
        cursor = (site.x, site.y);
    }
    stops.push(PlannedStop {
        site: unloading,
        dwell_s: uniform_i64(rng, config.unloading_dwell_s),
        kind: StayKind::Unloading,
    });
    cursor = (unloading.x, unloading.y);
    for _ in 0..post {
        let site = pick_break_site(city, config, rng, cursor, (truck.depot.x, truck.depot.y));
        stops.push(PlannedStop {
            site,
            dwell_s: uniform_i64(rng, config.break_dwell_s),
            kind: StayKind::Break,
        });
        cursor = (site.x, site.y);
    }

    // Optional reload leg: a second load → unload process after the first.
    // The motion simulator drives these legs loaded and the detectors see two
    // plausible loaded trajectories — but the ground truth labels the first.
    if config.reload_leg_prob > 0.0 && rng.gen_bool(config.reload_leg_prob) {
        let reload = truck.loading_pool[rng.gen_range(0..truck.loading_pool.len())];
        stops.push(PlannedStop {
            site: reload,
            dwell_s: uniform_i64(rng, config.loading_dwell_s),
            kind: StayKind::Loading,
        });
        let deliver = pick_distinct_site(rng, &truck.unloading_pool, reload);
        stops.push(PlannedStop {
            site: deliver,
            dwell_s: uniform_i64(rng, config.unloading_dwell_s),
            kind: StayKind::Unloading,
        });
        cursor = (deliver.x, deliver.y);
    }
    let _ = cursor;

    DayPlan {
        depart_s: uniform_i64(rng, config.day_start_s),
        stops,
        end_site: truck.depot,
    }
}

/// Picks an unloading site different from the loading site when possible.
fn pick_distinct_site<R: Rng>(rng: &mut R, pool: &[Site], avoid: Site) -> Site {
    for _ in 0..8 {
        let s = pool[rng.gen_range(0..pool.len())];
        if (s.x - avoid.x).abs() > 1.0 || (s.y - avoid.y).abs() > 1.0 {
            return s;
        }
    }
    pool[rng.gen_range(0..pool.len())]
}

/// Picks a break site with low detour relative to the `from → to` leg.
///
/// With probability `fueling_break_prob` the break happens at a fueling
/// station — indistinguishable by staying behaviour from a fuel tanker's
/// loading stop (the paper's complex staying scenario).
#[expect(
    clippy::expect_used,
    reason = "best is set on the first of the six draws; pool non-emptiness asserted above"
)]
fn pick_break_site<R: Rng>(
    city: &City,
    config: &SynthConfig,
    rng: &mut R,
    from: (f64, f64),
    to: (f64, f64),
) -> Site {
    let pool: &[Site] = if rng.gen_bool(config.fueling_break_prob) {
        &city.fueling_sites
    } else {
        &city.break_sites
    };
    assert!(!pool.is_empty(), "city has no break/fueling sites");
    let mut best: Option<(Site, f64)> = None;
    for _ in 0..6 {
        let s = pool[rng.gen_range(0..pool.len())];
        let detour = dist(from, (s.x, s.y)) + dist((s.x, s.y), to) - dist(from, to);
        match best {
            Some((_, d)) if d <= detour => {}
            _ => best = Some((s, detour)),
        }
    }
    best.expect("pool is non-empty").0
}

fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (City, SynthConfig, StdRng) {
        let cfg = SynthConfig::tiny();
        (City::generate(&cfg), cfg, StdRng::seed_from_u64(99))
    }

    #[test]
    fn truck_profile_respects_pools() {
        let (city, cfg, mut rng) = setup();
        for id in 0..40 {
            let t = TruckProfile::generate(&city, &cfg, &mut rng, id);
            assert!(!t.loading_pool.is_empty());
            assert!(!t.unloading_pool.is_empty());
            assert!(t.loading_pool.len() <= cfg.loading_pool_per_truck.1);
            if t.is_fuel_truck {
                for s in &t.loading_pool {
                    assert_eq!(s.category, crate::poi::PoiCategory::FuelingStation);
                }
            }
        }
    }

    #[test]
    fn plan_has_one_loading_then_one_unloading() {
        let (city, cfg, mut rng) = setup();
        let t = TruckProfile::generate(&city, &cfg, &mut rng, 0);
        for _ in 0..50 {
            let plan = plan_day(&city, &cfg, &t, &mut rng);
            let loads = plan
                .stops
                .iter()
                .filter(|s| s.kind == StayKind::Loading)
                .count();
            let unloads = plan
                .stops
                .iter()
                .filter(|s| s.kind == StayKind::Unloading)
                .count();
            assert_eq!((loads, unloads), (1, 1));
            assert!(plan.loading_index() < plan.unloading_index());
        }
    }

    #[test]
    fn stay_counts_land_in_paper_range() {
        let (city, cfg, mut rng) = setup();
        let t = TruckProfile::generate(&city, &cfg, &mut rng, 0);
        for _ in 0..200 {
            let plan = plan_day(&city, &cfg, &t, &mut rng);
            assert!((3..=14).contains(&plan.num_stays()), "{}", plan.num_stays());
        }
    }

    #[test]
    fn bucket_mix_roughly_matches_weights() {
        let (city, cfg, mut rng) = setup();
        let t = TruckProfile::generate(&city, &cfg, &mut rng, 0);
        let mut buckets = [0usize; 4];
        let n = 2_000;
        for _ in 0..n {
            let plan = plan_day(&city, &cfg, &t, &mut rng);
            buckets[(plan.num_stays() - 3) / 3] += 1;
        }
        for (i, &w) in cfg.bucket_weights.iter().enumerate() {
            let frac = buckets[i] as f64 / n as f64;
            assert!((frac - w).abs() < 0.05, "bucket {i}: {frac} vs {w}");
        }
    }

    #[test]
    fn loaded_on_leg_brackets_the_loaded_phase() {
        let (city, cfg, mut rng) = setup();
        let t = TruckProfile::generate(&city, &cfg, &mut rng, 0);
        let plan = plan_day(&city, &cfg, &t, &mut rng);
        let l = plan.loading_index();
        let u = plan.unloading_index();
        assert!(!plan.loaded_on_leg(l)); // driving TO the loading stop: empty
        assert!(plan.loaded_on_leg(u)); // driving TO the unloading stop: loaded
        assert!(!plan.loaded_on_leg(plan.stops.len())); // heading home: empty
    }

    #[test]
    fn reload_leg_appends_a_second_loaded_process() {
        let (city, mut cfg, mut rng) = setup();
        cfg.reload_leg_prob = 1.0;
        let t = TruckProfile::generate(&city, &cfg, &mut rng, 0);
        for _ in 0..30 {
            let plan = plan_day(&city, &cfg, &t, &mut rng);
            let loads = plan
                .stops
                .iter()
                .filter(|s| s.kind == StayKind::Loading)
                .count();
            let unloads = plan
                .stops
                .iter()
                .filter(|s| s.kind == StayKind::Unloading)
                .count();
            assert_eq!((loads, unloads), (2, 2));
            // The last two stops are the reload leg, in load → unload order.
            let n = plan.stops.len();
            assert_eq!(plan.stops[n - 2].kind, StayKind::Loading);
            assert_eq!(plan.stops[n - 1].kind, StayKind::Unloading);
            // The reload's delivery leg drives loaded; heading home does not.
            assert!(plan.loaded_on_leg(n - 1));
            assert!(!plan.loaded_on_leg(n));
            // First-process indexes are unaffected by the reload pair.
            assert!(plan.loading_index() < plan.unloading_index());
            assert!(plan.unloading_index() < n - 2);
        }
    }

    #[test]
    fn all_stop_dwells_exceed_stay_threshold() {
        let (city, cfg, mut rng) = setup();
        let t = TruckProfile::generate(&city, &cfg, &mut rng, 1);
        for _ in 0..50 {
            let plan = plan_day(&city, &cfg, &t, &mut rng);
            for s in &plan.stops {
                assert!(s.dwell_s >= 900, "dwell {}", s.dwell_s);
            }
        }
    }
}
