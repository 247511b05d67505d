//! Renders a detection as an SVG map (the visual counterpart of the paper's
//! Figure 1): raw trajectory in grey, detected loaded trajectory in red,
//! stay points annotated.
//!
//! Run with: `cargo run --release --example render_detection`
//! Output: `detection.svg` in the working directory.

use lead::core::config::LeadConfig;
use lead::core::pipeline::{Lead, LeadOptions};
use lead::eval::runner::{test_case, to_train_samples};
use lead::eval::svg::render_detection;
use lead::synth::{generate_dataset, SynthConfig};

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

    // Pick the first detectable test sample and render it.
    for sample in &dataset.test {
        let Some((_, truth)) = test_case(sample, &config) else {
            continue;
        };
        let Some(result) = lead.detect(&sample.raw, &dataset.city.poi_db) else {
            continue;
        };
        let svg = render_detection(&result.processed, result.detected, 900.0);
        std::fs::write("detection.svg", &svg).expect("write detection.svg");
        println!(
            "truck {} day {}: detected ⟨sp_{} --→ sp_{}⟩ (truth ⟨sp_{} --→ sp_{}⟩, {}) → detection.svg",
            sample.truck_id,
            sample.day,
            result.detected.start_sp,
            result.detected.end_sp,
            truth.start_sp,
            truth.end_sp,
            if result.detected == truth { "HIT" } else { "MISS" },
        );
        return;
    }
    eprintln!("no detectable test sample found");
}
