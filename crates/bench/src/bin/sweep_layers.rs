//! Reproduces the paper's hyper-parameter tuning claim (Section VI-A): "we
//! tune the number of BiLSTM layers L from 1 to 10 and find the highest
//! detection accuracy when L = 4 on the validation set".
//!
//! Trains full LEAD once per `L` and reports validation accuracy. Expensive
//! (trains `max_layers` models); run at `tiny`/`quick` scale.
//!
//! Usage: `cargo run -p lead-bench --release --bin sweep_layers [tiny|quick|full] [max_layers]`

use lead_bench::{write_result, Scale};
use lead_core::pipeline::{Lead, LeadOptions};
use lead_eval::runner::{test_case, to_train_samples};
use lead_synth::generate_dataset;
use std::time::Instant;

fn main() {
    let scale = Scale::from_args();
    let max_layers: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6);

    println!(
        "BiLSTM layer sweep (L = 1..={max_layers}) — scale `{}`",
        scale.name()
    );
    let ds = generate_dataset(&scale.synth_config());
    let train = to_train_samples(&ds.train);
    let val = to_train_samples(&ds.val);

    let mut csv = String::from("layers,val_accuracy_pct,train_seconds\n");
    for layers in 1..=max_layers {
        let mut cfg = scale.lead_config();
        cfg.detector_layers = layers;
        let t = Instant::now();
        let (model, _) = Lead::fit(&train, &val, &ds.city.poi_db, &cfg, LeadOptions::full())
            .expect("training failed");
        let secs = t.elapsed().as_secs_f64();

        let mut hits = 0;
        let mut total = 0;
        for s in &ds.val {
            let Some((_, truth)) = test_case(s, &cfg) else {
                continue;
            };
            if let Some(r) = model.detect(&s.raw, &ds.city.poi_db) {
                hits += (r.detected == truth) as usize;
            }
            total += 1;
        }
        let acc = hits as f64 / total.max(1) as f64 * 100.0;
        println!("L = {layers}: val accuracy {acc:.1}% ({hits}/{total}) in {secs:.0}s");
        csv.push_str(&format!("{layers},{acc:.2},{secs:.1}\n"));
    }
    write_result(&format!("sweep_layers_{}.csv", scale.name()), &csv);
}
