//! Live monitoring: replay a truck's day point-by-point through the
//! streaming detector and watch the loaded-trajectory hypothesis evolve —
//! the "act immediately" deployment mode the paper motivates (extension
//! beyond the paper's batch pipeline; see `lead_core::streaming`).
//!
//! Run with: `cargo run --release --example streaming_monitor`

use lead::core::config::LeadConfig;
use lead::core::pipeline::{Lead, LeadOptions};
use lead::core::streaming::StreamingDetector;
use lead::eval::runner::{test_case, to_train_samples};
use lead::synth::{generate_dataset, SynthConfig};

fn hhmm(t: i64) -> String {
    format!("{:02}:{:02}", (t / 3600) % 24, (t % 3600) / 60)
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
    let (model, _) = Lead::fit(
        &train,
        &[],
        &dataset.city.poi_db,
        &config,
        LeadOptions::full(),
    )
    .expect("training failed");

    // Replay the first test day with a mappable ground truth.
    let sample = dataset
        .test
        .iter()
        .find(|s| test_case(s, &config).is_some())
        .expect("a scorable test sample");
    let (_, truth) = test_case(sample, &config).expect("checked above");
    println!(
        "\nreplaying truck {} day {} ({} GPS points); true loaded trajectory ⟨sp_{} --→ sp_{}⟩\n",
        sample.truck_id,
        sample.day,
        sample.raw.len(),
        truth.start_sp,
        truth.end_sp
    );

    let mut stream = StreamingDetector::new(&model, &dataset.city.poi_db);
    for &p in sample.raw.points() {
        let update = stream.push(p);
        if update.filtered_out {
            println!("{}  GPS outlier filtered", hhmm(p.t));
            continue;
        }
        for &k in &update.completed_stays {
            println!(
                "{}  stay point sp_{k} completed ({} stays so far)",
                hhmm(p.t),
                stream.stay_points().len()
            );
        }
        if let Some(h) = update.hypothesis {
            println!(
                "{}    → current hypothesis: loaded ⟨sp_{} --→ sp_{}⟩",
                hhmm(p.t),
                h.detected.start_sp,
                h.detected.end_sp
            );
        }
    }

    match stream.finish() {
        Some(result) => {
            let hit = result.detected == truth;
            println!(
                "\nend of day: final detection ⟨sp_{} --→ sp_{}⟩ — {}",
                result.detected.start_sp,
                result.detected.end_sp,
                if hit {
                    "matches ground truth ✓"
                } else {
                    "misses ground truth ✗"
                }
            );
        }
        None => println!("\nend of day: fewer than two stay points, nothing to detect"),
    }
}
