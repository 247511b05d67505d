//! Configuration of the synthetic world.
//!
//! Every knob is explicit and the whole pipeline is deterministic given
//! `seed`. The defaults are shaped like the paper's Nantong deployment
//! (stay-point counts 3–14 with the paper's bucket mix, ~2-minute GPS
//! sampling, 130 km/h never exceeded) but scaled so that the full experiment
//! suite trains in minutes on a single CPU core.

/// All parameters of the synthetic city, fleet, and recording process.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Master RNG seed; everything downstream is deterministic in it.
    pub seed: u64,

    // ---- fleet / dataset ----------------------------------------------------
    /// Number of distinct HCT trucks (the paper has 2,734).
    pub num_trucks: usize,
    /// One-day raw trajectories per truck (the paper averages ~2.2).
    pub days_per_truck: usize,

    // ---- city ---------------------------------------------------------------
    /// City center `(lat, lng)`; defaults to Nantong.
    pub city_center: (f64, f64),
    /// Half-extent of the square city in meters.
    pub city_half_extent_m: f64,
    /// Radius of the urban core that loaded trucks must detour around
    /// (the paper's "prohibited from entering the main urban areas").
    pub urban_core_radius_m: f64,
    /// Number of industrial clusters hosting loading sites.
    pub num_industrial_zones: usize,
    /// Loading-capable sites (chemical factories, depots, ports, …).
    pub num_loading_sites: usize,
    /// Unloading-capable sites (factories, hospitals, construction sites, …).
    pub num_unloading_sites: usize,
    /// Fueling stations (both loading sites for fuel trucks and break spots).
    pub num_fueling_stations: usize,
    /// Break-friendly sites (restaurants, rest areas, parking lots, hotels).
    pub num_break_sites: usize,
    /// Truck depots (day start/end anchors).
    pub num_depots: usize,
    /// Background POIs with no role in itineraries (urban clutter).
    pub num_background_pois: usize,

    // ---- truck habits ---------------------------------------------------------
    /// Loading sites in each truck's personal pool `(min, max)`.
    pub loading_pool_per_truck: (usize, usize),
    /// Unloading sites in each truck's personal pool `(min, max)`.
    pub unloading_pool_per_truck: (usize, usize),
    /// Fraction of trucks that are fuel tankers loading at fueling stations
    /// (the paper's hardest staying scenario).
    pub fuel_truck_fraction: f64,

    // ---- itinerary -----------------------------------------------------------
    /// Probability weights of the paper's stay-point buckets
    /// 3–5 / 6–8 / 9–11 / 12–14 (Table III header: 22/34/25/19 %).
    pub bucket_weights: [f64; 4],
    /// Seconds after midnight when trucks may depart.
    pub day_start_s: (i64, i64),
    /// Dwell at the loading site `(min, max)` seconds.
    pub loading_dwell_s: (i64, i64),
    /// Dwell at the unloading site `(min, max)` seconds.
    pub unloading_dwell_s: (i64, i64),
    /// Dwell for ordinary breaks `(min, max)` seconds — above the 15-minute
    /// stay-point threshold so breaks *are* stay points (the challenge).
    pub break_dwell_s: (i64, i64),
    /// Probability that an ordinary break happens at a fueling station
    /// (instead of a restaurant/rest area), confusing stay-point classifiers.
    pub fueling_break_prob: f64,
    /// Fraction of break sites placed inside industrial zones, where their
    /// POI context (and possibly their 500 m neighbourhood) looks like a
    /// loading/unloading site — the paper's second confounder. 0 disables.
    pub industrial_break_fraction: f64,
    /// Probability of a sub-threshold micro-stop (traffic light, queue) per
    /// driving leg; these must *not* become stay points.
    pub micro_stop_prob: f64,
    /// Micro-stop dwell `(min, max)` seconds — below the 15-minute threshold.
    pub micro_stop_dwell_s: (i64, i64),
    /// Probability that the day carries a *second* process (reload → deliver)
    /// after the first unloading — the multi-leg confounder of the
    /// [`crate::scenario`] suite. The ground-truth label always describes the
    /// first process; the reload leg exists to distract detectors. 0 (the
    /// default) keeps the paper's one-process day shape.
    pub reload_leg_prob: f64,

    // ---- motion ----------------------------------------------------------------
    /// Empty-truck cruise speed range `(min, max)` in m/s (~50–80 km/h).
    pub base_speed_mps: (f64, f64),
    /// Speed multiplier while loaded with hazardous chemicals (heavier truck,
    /// stricter driving) — the moving-behaviour signal LEAD exploits.
    pub loaded_speed_factor: f64,
    /// Whether loaded trucks detour around the urban core.
    pub detour_when_loaded: bool,
    /// Standard deviation of the perpendicular road wobble in meters.
    pub path_wobble_m: f64,

    // ---- GPS recording ---------------------------------------------------------
    /// Nominal sampling interval in seconds (the paper reports ~2 minutes).
    pub gps_interval_s: i64,
    /// Uniform timestamp jitter `±` seconds (kept < interval/2 so order holds).
    pub gps_interval_jitter_s: i64,
    /// Standard deviation of Gaussian position noise in meters.
    pub gps_noise_std_m: f64,
    /// Per-point probability of an outlier spike.
    pub outlier_prob: f64,
    /// Outlier displacement `(min, max)` meters — large enough that the
    /// 130 km/h heuristic filter catches it at the sampling interval.
    pub outlier_shift_m: (f64, f64),
}

impl SynthConfig {
    /// The default experiment scale: large enough for the accuracy ordering
    /// of Table III to be stable, small enough to train all methods in
    /// minutes on one CPU core.
    pub fn paper_scaled() -> Self {
        Self {
            seed: 20220901, // the dataset's collection start date
            num_trucks: 150,
            days_per_truck: 3,
            city_center: (32.0, 120.9),
            city_half_extent_m: 20_000.0,
            urban_core_radius_m: 5_000.0,
            num_industrial_zones: 6,
            num_loading_sites: 48,
            num_unloading_sites: 140,
            num_fueling_stations: 60,
            num_break_sites: 240,
            num_depots: 30,
            num_background_pois: 2_600,
            loading_pool_per_truck: (1, 3),
            unloading_pool_per_truck: (2, 5),
            fuel_truck_fraction: 0.3,
            bucket_weights: [0.22, 0.34, 0.25, 0.19],
            day_start_s: (5 * 3600, 8 * 3600),
            loading_dwell_s: (1_500, 3_300),
            unloading_dwell_s: (1_500, 3_300),
            break_dwell_s: (1_100, 2_400),
            fueling_break_prob: 0.2,
            industrial_break_fraction: 0.5,
            micro_stop_prob: 0.35,
            micro_stop_dwell_s: (150, 540),
            reload_leg_prob: 0.0,
            base_speed_mps: (14.0, 22.0),
            loaded_speed_factor: 0.58,
            detour_when_loaded: true,
            path_wobble_m: 18.0,
            gps_interval_s: 120,
            gps_interval_jitter_s: 20,
            gps_noise_std_m: 9.0,
            outlier_prob: 0.004,
            outlier_shift_m: (6_000.0, 14_000.0),
        }
    }

    /// A miniature world for unit and integration tests (seconds to generate,
    /// enough structure to exercise every code path).
    pub fn tiny() -> Self {
        Self {
            num_trucks: 12,
            days_per_truck: 2,
            num_loading_sites: 10,
            num_unloading_sites: 24,
            num_fueling_stations: 12,
            num_break_sites: 40,
            num_depots: 6,
            num_background_pois: 300,
            ..Self::paper_scaled()
        }
    }

    /// Total number of one-day samples the generator will emit.
    pub fn total_samples(&self) -> usize {
        self.num_trucks * self.days_per_truck
    }

    /// The fewest trucks the 8:1:1 train/validation/test split accepts.
    pub const MIN_TRUCKS: usize = 10;

    /// Validates internal consistency; called by the generator.
    ///
    /// # Panics
    /// Panics with a description of the first violated constraint.
    pub fn validate(&self) {
        assert!(
            self.num_trucks >= Self::MIN_TRUCKS,
            "need ≥10 trucks for a 8:1:1 split"
        );
        assert!(self.days_per_truck >= 1, "days_per_truck must be ≥1");
        assert!(
            self.city_half_extent_m > 2.0 * self.urban_core_radius_m,
            "city must extend beyond the urban core"
        );
        assert!(
            self.num_loading_sites >= 2 && self.num_unloading_sites >= 2,
            "need at least two sites of each kind"
        );
        let wsum: f64 = self.bucket_weights.iter().sum();
        assert!((wsum - 1.0).abs() < 1e-6, "bucket weights must sum to 1");
        assert!(
            self.loading_dwell_s.0 <= self.loading_dwell_s.1,
            "inverted loading dwell"
        );
        assert!(
            self.break_dwell_s.0 >= 930,
            "breaks must exceed the 15-minute stay threshold (plus slack)"
        );
        assert!(
            self.micro_stop_dwell_s.1 < 800,
            "micro-stops must stay below the 15-minute stay threshold"
        );
        assert!(
            (0.0..=1.0).contains(&self.fueling_break_prob),
            "invalid fueling break prob"
        );
        assert!(
            (0.0..=1.0).contains(&self.industrial_break_fraction),
            "invalid industrial break fraction"
        );
        assert!(
            (0.0..=1.0).contains(&self.reload_leg_prob),
            "invalid reload leg prob"
        );
        assert!(
            self.base_speed_mps.0 > 0.0 && self.base_speed_mps.1 >= self.base_speed_mps.0,
            "invalid speed range"
        );
        assert!(
            self.base_speed_mps.1 * 3.6 < 130.0,
            "cruise speed must stay under the 130 km/h noise-filter threshold"
        );
        assert!(
            (0.0..=1.0).contains(&self.loaded_speed_factor),
            "invalid loaded factor"
        );
        assert!(
            self.gps_interval_s > 0,
            "sampling interval must be positive"
        );
        assert!(
            self.gps_interval_jitter_s * 2 < self.gps_interval_s,
            "timestamp jitter would break chronological order"
        );
        assert!(
            self.outlier_shift_m.0 / self.gps_interval_s as f64 * 3.6 > 140.0,
            "outliers must imply speeds above the 130 km/h filter threshold"
        );
    }
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self::paper_scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        SynthConfig::paper_scaled().validate();
        SynthConfig::tiny().validate();
    }

    #[test]
    fn total_samples_is_product() {
        let c = SynthConfig::tiny();
        assert_eq!(c.total_samples(), c.num_trucks * c.days_per_truck);
    }

    #[test]
    #[should_panic(expected = "bucket weights")]
    fn bad_bucket_weights_rejected() {
        let mut c = SynthConfig::tiny();
        c.bucket_weights = [0.5, 0.5, 0.5, 0.5];
        c.validate();
    }

    #[test]
    #[should_panic(expected = "130 km/h")]
    fn overspeed_rejected() {
        let mut c = SynthConfig::tiny();
        c.base_speed_mps = (14.0, 40.0);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "15-minute")]
    fn long_micro_stops_rejected() {
        let mut c = SynthConfig::tiny();
        c.micro_stop_dwell_s = (150, 1_000);
        c.validate();
    }
}
