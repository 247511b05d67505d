//! Quickstart: generate a synthetic HCT world, train LEAD, and detect the
//! loaded trajectory of an unseen truck's day.
//!
//! Run with: `cargo run --release --example quickstart`

use lead::core::config::LeadConfig;
use lead::core::pipeline::{Lead, LeadOptions};
use lead::core::processing::ProcessedTrajectory;
use lead::eval::runner::{test_case, to_train_samples};
use lead::synth::{generate_dataset, SynthConfig};

fn main() {
    // 1. A small synthetic city + fleet (substitute for the Nantong data).
    let mut synth = SynthConfig::paper_scaled();
    synth.num_trucks = 40;
    synth.days_per_truck = 2;
    let dataset = generate_dataset(&synth);
    println!(
        "world: {} POIs, {} loading sites; dataset: {} train / {} test days",
        dataset.city.poi_db.len(),
        dataset.city.loading_sites.len(),
        dataset.train.len(),
        dataset.test.len()
    );

    // 2. Inspect the processing component on one raw trajectory (Figure 3).
    let mut config = LeadConfig::experiment();
    config.ae_max_epochs = 6;
    config.detector_max_epochs = 12;
    let sample = &dataset.test[0];
    let proc = ProcessedTrajectory::from_raw(&sample.raw, &config);
    println!(
        "\nraw trajectory: {} GPS points → {} after noise filtering",
        sample.raw.len(),
        proc.cleaned.len()
    );
    println!(
        "stay points: {} → candidate trajectories: {}",
        proc.num_stay_points(),
        proc.candidates.len()
    );

    // 3. Offline stage: train LEAD on the training split.
    println!("\ntraining LEAD (offline stage)…");
    let train = to_train_samples(&dataset.train);
    let (lead, report) = Lead::fit(
        &train,
        &[],
        &dataset.city.poi_db,
        &config,
        LeadOptions::full(),
    )
    .expect("training failed");
    // A curve can legitimately be empty (e.g. an ablation without that
    // stage), so endpoints are printed as "n/a" rather than unwrapped.
    let endpoint = |v: Option<&f32>| v.map_or("n/a".to_string(), |x| format!("{x:.4}"));
    println!(
        "autoencoder MSE: {} → {} over {} epochs",
        endpoint(report.ae_curve.first()),
        endpoint(report.ae_curve.last()),
        report.ae_curve.len()
    );
    println!(
        "forward detector KLD: {} → {}; backward: {} → {}",
        endpoint(report.forward_kld_curve.first()),
        endpoint(report.forward_kld_curve.last()),
        endpoint(report.backward_kld_curve.first()),
        endpoint(report.backward_kld_curve.last()),
    );

    // 4. Online stage: detect loaded trajectories of unseen trucks.
    println!("\ndetecting on the test split (unseen trucks):");
    let mut hits = 0;
    let mut total = 0;
    for sample in &dataset.test {
        let Some((_proc, truth)) = test_case(sample, &config) else {
            continue;
        };
        let result = lead
            .detect(&sample.raw, &dataset.city.poi_db)
            .expect("≥2 stay points because the truth mapped");
        let (start_s, end_s) = result.loaded_interval_s();
        let hit = result.detected == truth;
        hits += hit as usize;
        total += 1;
        println!(
            "truck {:>3} day {}: loaded trajectory ⟨sp_{} --→ sp_{}⟩ ({}:{:02} – {}:{:02}) {}",
            sample.truck_id,
            sample.day,
            result.detected.start_sp,
            result.detected.end_sp,
            start_s / 3600,
            (start_s % 3600) / 60,
            end_s / 3600,
            (end_s % 3600) / 60,
            if hit { "✓" } else { "✗" }
        );
    }
    println!("\naccuracy on unseen trucks: {hits}/{total}");
}
