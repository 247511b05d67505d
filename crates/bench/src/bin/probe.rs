//! Diagnostic probe: trains LEAD at a configurable scale and dumps loss
//! curves plus detected-vs-truth pairs for the test split.
//!
//! Usage: `cargo run -p lead-bench --release --bin probe [n_trucks] [ae_epochs] [det_epochs]`

use lead_core::config::LeadConfig;
use lead_core::pipeline::{Lead, LeadOptions};
use lead_eval::runner::{test_case, to_train_samples};
use lead_synth::{generate_dataset, SynthConfig};
use std::time::Instant;

fn main() {
    let arg = |i: usize, d: usize| -> usize {
        std::env::args()
            .nth(i)
            .and_then(|s| s.parse().ok())
            .unwrap_or(d)
    };
    let n_trucks = arg(1, 60);
    let ae_epochs = arg(2, 12);
    let det_epochs = arg(3, 18);

    let mut synth = SynthConfig::paper_scaled();
    synth.num_trucks = n_trucks;
    synth.days_per_truck = 2;
    let mut cfg = LeadConfig::experiment();
    cfg.ae_max_epochs = ae_epochs;
    cfg.detector_max_epochs = det_epochs;

    let ds = generate_dataset(&synth);
    println!("dataset: {} train / {} test", ds.train.len(), ds.test.len());

    let train = to_train_samples(&ds.train);
    let val = to_train_samples(&ds.val);
    let t = Instant::now();
    let (lead, report) = Lead::fit(&train, &val, &ds.city.poi_db, &cfg, LeadOptions::full())
        .expect("training failed");
    println!(
        "fit in {:.1}s; used={} skipped={}",
        t.elapsed().as_secs_f64(),
        report.used_samples,
        report.skipped_samples
    );
    println!("AE curve:  {:?}", report.ae_curve);
    println!("FWD curve: {:?}", report.forward_kld_curve);
    println!("FWD val:   {:?}", report.forward_val_kld_curve);
    println!("BWD curve: {:?}", report.backward_kld_curve);
    println!("BWD val:   {:?}", report.backward_val_kld_curve);

    // Train-split accuracy (fit quality) before test accuracy.
    let mut tr_hits = 0;
    let mut tr_total = 0;
    for s in ds.train.iter().take(40) {
        let Some((_proc, truth)) = test_case(s, &cfg) else {
            continue;
        };
        if let Some(det) = lead.detect(&s.raw, &ds.city.poi_db) {
            tr_hits += (det.detected == truth) as usize;
            tr_total += 1;
        }
    }
    println!("train accuracy (first 40): {tr_hits}/{tr_total}");

    let mut hits = 0;
    let mut total = 0;
    let mut breakdown = lead_eval::ErrorBreakdown::new();
    for s in ds.test.iter().chain(&ds.val) {
        let Some((proc, truth)) = test_case(s, &cfg) else {
            continue;
        };
        let det = lead.detect(&s.raw, &ds.city.poi_db).unwrap();
        let hit = det.detected == truth;
        breakdown.record(det.detected, truth);
        hits += hit as usize;
        total += 1;
        println!(
            "n={:>2} truth=({},{}) detected=({},{}) {} p_max={:.3}",
            proc.num_stay_points(),
            truth.start_sp,
            truth.end_sp,
            det.detected.start_sp,
            det.detected.end_sp,
            if hit { "HIT " } else { "MISS" },
            det.probabilities.iter().cloned().fold(0.0f32, f32::max),
        );
    }
    println!("accuracy: {hits}/{total}");
    println!("{}", breakdown.summary());
}
