//! Labelled samples and the 8:1:1 disjoint-truck dataset split.
//!
//! Mirrors the paper's evaluation protocol (Section VI-A): one-day raw
//! trajectories with ground-truth loaded trajectories, split into
//! train/validation/test at ratio 8:1:1 such that **the trucks of the
//! validation and test sets never appear in the training set** — so methods
//! are evaluated on unseen trucks visiting (partly) unseen sites.

use crate::city::City;
use crate::config::SynthConfig;
use crate::gps::record;
use crate::itinerary::{plan_day, TruckProfile};
use crate::motion::{simulate, TruthLabel as MotionTruth};
use lead_geo::Trajectory;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Ground-truth loading/unloading intervals of a sample (re-exported from the
/// motion simulator; seconds after midnight).
pub type TruthLabel = MotionTruth;

/// One labelled one-day raw trajectory.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The generating truck.
    pub truck_id: u32,
    /// Day index for this truck (0-based).
    pub day: u32,
    /// The noisy raw trajectory, as the GPS sensor recorded it.
    pub raw: Trajectory,
    /// Ground truth: when the truck actually loaded and unloaded.
    pub truth: TruthLabel,
    /// Number of stops the itinerary planned (= expected stay points).
    pub planned_stays: usize,
}

/// A generated dataset: the city plus the three splits.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The world the samples were recorded in (POI database included).
    pub city: City,
    /// Training samples (~80 % of trucks).
    pub train: Vec<Sample>,
    /// Validation samples (~10 % of trucks, disjoint from training).
    pub val: Vec<Sample>,
    /// Test samples (~10 % of trucks, disjoint from both).
    pub test: Vec<Sample>,
}

impl Dataset {
    /// Total number of samples across all splits.
    pub fn len(&self) -> usize {
        self.train.len() + self.val.len() + self.test.len()
    }

    /// Whether the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Generates the full dataset from `config` (deterministic in `config.seed`).
pub fn generate_dataset(config: &SynthConfig) -> Dataset {
    config.validate();
    let city = City::generate(config);
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_mul(0xA24B_AED4).wrapping_add(2));

    // Truck split first (disjoint trucks across splits), then samples.
    let n = config.num_trucks;
    let n_val = (n / 10).max(1);
    let n_test = (n / 10).max(1);
    let n_train = n - n_val - n_test;

    let mut train = Vec::new();
    let mut val = Vec::new();
    let mut test = Vec::new();

    for truck_idx in 0..n {
        let truck = TruckProfile::generate(&city, config, &mut rng, truck_idx as u32);
        for day in 0..config.days_per_truck {
            let plan = plan_day(&city, config, &truck, &mut rng);
            let sim = simulate(&city, config, &plan, &mut rng);
            let raw = record(config, &city.proj, &sim.track, &mut rng);
            let sample = Sample {
                truck_id: truck.id,
                day: day as u32,
                raw,
                truth: sim.truth,
                planned_stays: plan.num_stays(),
            };
            if truck_idx < n_train {
                train.push(sample);
            } else if truck_idx < n_train + n_val {
                val.push(sample);
            } else {
                test.push(sample);
            }
        }
    }

    Dataset {
        city,
        train,
        val,
        test,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn tiny_dataset() -> Dataset {
        generate_dataset(&SynthConfig::tiny())
    }

    #[test]
    fn split_sizes_follow_8_1_1() {
        let cfg = SynthConfig::tiny();
        let ds = tiny_dataset();
        assert_eq!(ds.len(), cfg.total_samples());
        let trucks = |s: &[Sample]| s.iter().map(|x| x.truck_id).collect::<BTreeSet<_>>();
        let n_val = trucks(&ds.val).len();
        let n_test = trucks(&ds.test).len();
        assert_eq!(n_val, (cfg.num_trucks / 10).max(1));
        assert_eq!(n_test, (cfg.num_trucks / 10).max(1));
    }

    #[test]
    fn splits_have_disjoint_trucks() {
        let ds = tiny_dataset();
        let t: BTreeSet<u32> = ds.train.iter().map(|s| s.truck_id).collect();
        let v: BTreeSet<u32> = ds.val.iter().map(|s| s.truck_id).collect();
        let e: BTreeSet<u32> = ds.test.iter().map(|s| s.truck_id).collect();
        assert!(t.is_disjoint(&v));
        assert!(t.is_disjoint(&e));
        assert!(v.is_disjoint(&e));
    }

    #[test]
    fn samples_are_chronological_and_sized() {
        let ds = tiny_dataset();
        for s in ds.train.iter().chain(&ds.val).chain(&ds.test) {
            assert!(s.raw.len() > 30, "trajectory too short: {}", s.raw.len());
            assert!(s.raw.points().windows(2).all(|w| w[0].t < w[1].t));
            assert!((3..=14).contains(&s.planned_stays));
        }
    }

    #[test]
    fn truth_lies_within_the_trajectory_time_span() {
        let ds = tiny_dataset();
        for s in ds.train.iter().chain(&ds.test) {
            let t0 = s.raw.first().unwrap().t;
            let t1 = s.raw.last().unwrap().t;
            assert!(s.truth.load_start_s >= t0 && s.truth.unload_end_s <= t1);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny_dataset();
        let b = tiny_dataset();
        assert_eq!(a.train.len(), b.train.len());
        for (x, y) in a.train.iter().zip(b.train.iter()) {
            assert_eq!(x.raw.points(), y.raw.points());
            assert_eq!(x.truth, y.truth);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = SynthConfig::tiny();
        let a = generate_dataset(&cfg);
        cfg.seed += 1;
        let b = generate_dataset(&cfg);
        assert_ne!(a.train[0].raw.points()[0], b.train[0].raw.points()[0]);
    }
}
