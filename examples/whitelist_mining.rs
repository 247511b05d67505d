//! Illegal-facility discovery — the paper's first motivating application:
//! "Governments can utilize these information to promptly identify illegal
//! loading and unloading locations" (and the cited ICFinder work mines truck
//! trajectories for unregistered hazardous-chemical facilities).
//!
//! This example detects loaded trajectories across the whole fleet, clusters
//! the detected loading/unloading endpoints, and reports clusters that do
//! *not* match any registered facility — candidates for enforcement visits.
//!
//! Run with: `cargo run --release --example whitelist_mining`

use lead::core::config::LeadConfig;
use lead::core::pipeline::{Lead, LeadOptions};
use lead::eval::runner::to_train_samples;
use lead::geo::haversine_m;
use lead::synth::{generate_dataset, SynthConfig};

/// Greedy distance clustering: endpoints within `radius_m` of a cluster
/// center join it, otherwise they seed a new cluster.
fn cluster(points: &[(f64, f64)], radius_m: f64) -> Vec<((f64, f64), usize)> {
    let mut clusters: Vec<((f64, f64), usize)> = Vec::new();
    for &(lat, lng) in points {
        match clusters
            .iter_mut()
            .find(|((clat, clng), _)| haversine_m(lat, lng, *clat, *clng) <= radius_m)
        {
            Some((center, count)) => {
                // Running mean keeps the center representative.
                center.0 = (center.0 * *count as f64 + lat) / (*count as f64 + 1.0);
                center.1 = (center.1 * *count as f64 + lng) / (*count as f64 + 1.0);
                *count += 1;
            }
            None => clusters.push(((lat, lng), 1)),
        }
    }
    clusters
}

fn main() {
    let mut synth = SynthConfig::paper_scaled();
    synth.num_trucks = 40;
    synth.days_per_truck = 3;
    let dataset = generate_dataset(&synth);

    let mut config = LeadConfig::experiment();
    config.ae_max_epochs = 6;
    config.detector_max_epochs = 12;
    println!("training LEAD…");
    let train = to_train_samples(&dataset.train);
    let (lead, _) = Lead::fit(
        &train,
        &[],
        &dataset.city.poi_db,
        &config,
        LeadOptions::full(),
    )
    .expect("training failed");

    // The registry of *known* facilities: the city's official loading and
    // unloading sites. In reality this is the licensed-facility database.
    let registry: Vec<(f64, f64)> = dataset
        .city
        .loading_sites
        .iter()
        .chain(&dataset.city.unloading_sites)
        .chain(&dataset.city.fueling_sites)
        .map(|s| (s.lat, s.lng))
        .collect();

    // Detect loaded trajectories fleet-wide and harvest their endpoints.
    let mut endpoints = Vec::new();
    for sample in dataset.test.iter().chain(&dataset.val) {
        let Some(result) = lead.detect(&sample.raw, &dataset.city.poi_db) else {
            continue;
        };
        for sp_idx in [result.detected.start_sp, result.detected.end_sp] {
            let sp = &result.processed.stay_points[sp_idx];
            if let Some(c) = result.processed.cleaned.slice(sp.start, sp.end).centroid() {
                endpoints.push(c);
            }
        }
    }
    println!("harvested {} loading/unloading endpoints", endpoints.len());

    let clusters = cluster(&endpoints, 400.0);
    println!("{} distinct l/u locations discovered:\n", clusters.len());
    let mut unregistered = 0;
    for ((lat, lng), count) in &clusters {
        let registered = registry
            .iter()
            .any(|&(rlat, rlng)| haversine_m(*lat, *lng, rlat, rlng) <= 500.0);
        if !registered {
            unregistered += 1;
            println!("  UNREGISTERED facility candidate at ({lat:.4}, {lng:.4}) — {count} visits");
        }
    }
    println!(
        "\n{}/{} discovered locations match the facility registry; {} flagged for inspection",
        clusters.len() - unregistered,
        clusters.len(),
        unregistered
    );
}
