//! Automatic waybill generation — the paper's motivating application:
//! drivers fill waybills manually (default times, misspelled addresses), so
//! the government gets low-quality loading/unloading records. With the loaded
//! trajectory detected, a high-quality waybill can be generated automatically
//! (Section I: "high-quality waybill can be automatically generated from the
//! loaded trajectory").
//!
//! Run with: `cargo run --release --example waybill_generation`

use lead::core::config::LeadConfig;
use lead::core::pipeline::{DetectionResult, Lead, LeadOptions};
use lead::core::poi::PoiDatabase;
use lead::eval::runner::to_train_samples;
use lead::synth::{generate_dataset, SynthConfig};

/// The automatically generated waybill for one HCT process.
#[derive(Debug)]
struct Waybill {
    truck_id: u32,
    loading_time: String,
    loading_address: String,
    unloading_time: String,
    unloading_address: String,
    distance_km: f64,
}

fn hhmm(t: i64) -> String {
    format!("{:02}:{:02}", (t / 3600) % 24, (t % 3600) / 60)
}

/// Resolves a detection into a waybill: times from the detected stay points,
/// addresses from the nearest POI.
fn generate_waybill(truck_id: u32, result: &DetectionResult, poi_db: &PoiDatabase) -> Waybill {
    let (start_s, end_s) = result.loaded_interval_s();
    let address_of = |sp_idx: usize| -> String {
        let sp = &result.processed.stay_points[sp_idx];
        let (lat, lng) = result
            .processed
            .cleaned
            .slice(sp.start, sp.end)
            .centroid()
            .expect("stay points are non-empty");
        match poi_db.nearest_within(lat, lng, 300.0) {
            Some((poi, d)) => format!("{:?} @({lat:.4}, {lng:.4}) [{d:.0} m]", poi.category),
            None => format!("unknown site @({lat:.4}, {lng:.4})"),
        }
    };
    Waybill {
        truck_id,
        loading_time: hhmm(start_s),
        loading_address: address_of(result.detected.start_sp),
        unloading_time: hhmm(end_s),
        unloading_address: address_of(result.detected.end_sp),
        distance_km: result.loaded_trajectory().length_m() / 1_000.0,
    }
}

fn main() {
    let mut synth = SynthConfig::paper_scaled();
    synth.num_trucks = 40;
    synth.days_per_truck = 2;
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

    println!("\nauto-generated waybills for the unseen test fleet:\n");
    for sample in dataset.test.iter().take(6) {
        let Some(result) = lead.detect(&sample.raw, &dataset.city.poi_db) else {
            continue;
        };
        let wb = generate_waybill(sample.truck_id, &result, &dataset.city.poi_db);
        println!("Waybill — truck {}", wb.truck_id);
        println!("  loading   {} at {}", wb.loading_time, wb.loading_address);
        println!(
            "  unloading {} at {}",
            wb.unloading_time, wb.unloading_address
        );
        println!("  loaded distance: {:.1} km", wb.distance_km);
        // Compare with what the driver would have filed: the paper's example
        // of low-quality manual waybills (default 8:00/17:00 times).
        println!(
            "  (manual waybill would have said: loading 08:00, unloading 17:00, address \"Nantong\")\n"
        );
    }
}
