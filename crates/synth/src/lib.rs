//! Synthetic HCT world: the substitute for the paper's proprietary Nantong
//! dataset.
//!
//! The paper evaluates on 5,968 one-day raw trajectories of 2,734 HCT trucks
//! collected in Nantong, China, with government-labelled loaded trajectories
//! and a database of 415,639 POIs in 29 categories. None of that is public, so
//! this crate generates a city and a fleet that reproduce the *difficulty
//! drivers* the paper names:
//!
//! 1. **Complex staying scenarios** — trucks take ordinary breaks at the same
//!    POI types where loading/unloading happens (fueling stations,
//!    restaurants next to industrial parks), so a stay point alone does not
//!    reveal the activity; the *moving behaviour* around it (lower loaded
//!    speeds, urban-core detours) does.
//! 2. **Numerous loading/unloading locations** — l/u sites are drawn from
//!    large pools and the test fleet (disjoint trucks) visits sites absent
//!    from the training data, so whitelist methods cannot cover them.
//!
//! Modules: [`poi`] (29-category POI database), [`city`] (urban layout),
//! [`itinerary`] (three-phase day plans with confounders), [`motion`]
//! (kinematic simulation with loaded-phase signatures), [`gps`] (sampling
//! noise and outlier spikes), [`dataset`] (labelled samples and disjoint-truck
//! splits), [`config`] (all knobs, seeded and deterministic), [`scenario`]
//! (named adversarial recording pathologies behind seeded configs),
//! [`binio`] (binary shard export in the `lead-data` container format).

pub mod binio;
pub mod city;
pub mod config;
pub mod dataset;
pub mod gps;
pub mod itinerary;
pub mod motion;
pub(crate) mod rand_util;
pub mod scenario;
pub mod stats;

/// Re-export of the POI model from `lead-core` (the 29-category taxonomy is
/// part of the paper's method; the synthetic city only populates it).
pub mod poi {
    pub use lead_core::poi::*;
}

pub use binio::write_sample_shards;
pub use city::City;
pub use config::SynthConfig;
pub use dataset::{generate_dataset, Dataset, Sample, TruthLabel};
pub use poi::{Poi, PoiCategory, PoiDatabase, PoiRole, NUM_POI_CATEGORIES};
pub use scenario::{generate_scenario_dataset, ScenarioConfig, ScenarioKind};
