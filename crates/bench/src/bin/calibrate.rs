//! Calibration probe: measures the wall-clock of every pipeline stage on the
//! current machine so experiment scales can be chosen deliberately.
//!
//! Usage: `cargo run -p lead-bench --release --bin calibrate [n_trucks]`

use lead_core::config::LeadConfig;
use lead_core::pipeline::{Lead, LeadOptions};
use lead_eval::runner::to_train_samples;
use lead_synth::{generate_dataset, SynthConfig};
use std::time::Instant;

fn main() {
    let n_trucks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);

    let mut synth = SynthConfig::paper_scaled();
    synth.num_trucks = n_trucks;
    synth.days_per_truck = 2;

    let t = Instant::now();
    let ds = generate_dataset(&synth);
    println!(
        "dataset: {} samples ({} train / {} val / {} test), {} POIs in {:.2}s",
        ds.len(),
        ds.train.len(),
        ds.val.len(),
        ds.test.len(),
        ds.city.poi_db.len(),
        t.elapsed().as_secs_f64()
    );
    let avg_pts: f64 =
        ds.train.iter().map(|s| s.raw.len() as f64).sum::<f64>() / ds.train.len() as f64;
    println!("avg GPS points per trajectory: {avg_pts:.0}");

    let mut cfg = LeadConfig::paper();
    cfg.ae_max_epochs = 2;
    cfg.detector_max_epochs = 2;
    let train = to_train_samples(&ds.train);

    let t = Instant::now();
    let (lead, report) = Lead::fit(&train, &[], &ds.city.poi_db, &cfg, LeadOptions::full())
        .expect("training failed");
    let fit_s = t.elapsed().as_secs_f64();
    println!(
        "LEAD fit (2+2 epochs): {fit_s:.1}s  used={} skipped={} ae_curve={:?}",
        report.used_samples, report.skipped_samples, report.ae_curve
    );

    let t = Instant::now();
    let mut detections = 0;
    for s in &ds.test {
        if lead.detect(&s.raw, &ds.city.poi_db).is_some() {
            detections += 1;
        }
    }
    println!(
        "inference: {detections} detections in {:.2}s ({:.1} ms each)",
        t.elapsed().as_secs_f64(),
        t.elapsed().as_secs_f64() * 1_000.0 / detections.max(1) as f64
    );
}
