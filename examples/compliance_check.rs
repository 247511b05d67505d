//! Regulation compliance checking — the paper's second motivating
//! application: "the HCT truck loaded with hazardous chemical is prohibited
//! from entering the main urban areas or moving on roads from 2:00 am to
//! 5:00 am. Once an HCT truck is found to violate the regulations, further
//! actions can be taken immediately."
//!
//! This example detects loaded trajectories on the test fleet and audits each
//! against both rules.
//!
//! Run with: `cargo run --release --example compliance_check`

use lead::core::config::LeadConfig;
use lead::core::pipeline::{Lead, LeadOptions};
use lead::eval::runner::to_train_samples;
use lead::geo::GpsPoint;
use lead::synth::{generate_dataset, City, SynthConfig};

/// A detected regulation violation.
#[derive(Debug)]
enum Violation {
    /// The loaded truck entered the main urban area.
    UrbanCore { t: i64, distance_to_center_m: f64 },
    /// The loaded truck moved between 2:00 and 5:00 am.
    NightMoving { t: i64, speed_kmh: f64 },
}

/// Audits a loaded trajectory against both regulations.
fn audit(points: &[GpsPoint], city: &City) -> Vec<Violation> {
    let mut violations = Vec::new();
    for w in points.windows(2) {
        let p = &w[1];
        let (x, y) = city.proj.to_xy(p.lat, p.lng);
        let r = (x * x + y * y).sqrt();
        if r < city.core_radius_m {
            violations.push(Violation::UrbanCore {
                t: p.t,
                distance_to_center_m: r,
            });
        }
        let hour = (p.t / 3600) % 24;
        let speed_kmh = w[0].speed_to_mps(p) * 3.6;
        if (2..5).contains(&hour) && speed_kmh > 5.0 {
            violations.push(Violation::NightMoving { t: p.t, speed_kmh });
        }
    }
    violations
}

fn main() {
    let mut synth = SynthConfig::paper_scaled();
    synth.num_trucks = 40;
    synth.days_per_truck = 2;
    // Disable the regulatory urban-core detour in the simulator: every loaded
    // leg through the center now violates the ban, so the audit has
    // something to find.
    synth.detour_when_loaded = false;
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

    println!("\nauditing loaded trajectories of the test fleet:\n");
    let mut flagged = 0;
    for sample in &dataset.test {
        let Some(result) = lead.detect(&sample.raw, &dataset.city.poi_db) else {
            continue;
        };
        let loaded = result.loaded_trajectory();
        let violations = audit(loaded.points(), &dataset.city);
        if violations.is_empty() {
            println!("truck {:>3} day {}: compliant", sample.truck_id, sample.day);
        } else {
            flagged += 1;
            println!(
                "truck {:>3} day {}: {} violations",
                sample.truck_id,
                sample.day,
                violations.len()
            );
            for v in violations.iter().take(3) {
                match v {
                    Violation::UrbanCore {
                        t,
                        distance_to_center_m,
                    } => println!(
                        "    {:02}:{:02} loaded inside urban core ({:.0} m from center)",
                        (t / 3600) % 24,
                        (t % 3600) / 60,
                        distance_to_center_m
                    ),
                    Violation::NightMoving { t, speed_kmh } => println!(
                        "    {:02}:{:02} moving at {:.0} km/h during the 2–5 am ban",
                        (t / 3600) % 24,
                        (t % 3600) / 60,
                        speed_kmh
                    ),
                }
            }
        }
    }
    println!("\n{flagged} trucks flagged for follow-up enforcement");
}
