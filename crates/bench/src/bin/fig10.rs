//! Regenerates **Figure 10**: training KLD curves of the forward and
//! backward detectors of full LEAD.
//!
//! Usage: `cargo run -p lead-bench --release --bin fig10 [tiny|quick|full]`

use lead_bench::{write_result, Scale};
use lead_core::pipeline::{Lead, LeadOptions};
use lead_eval::report::curve_csv;
use lead_eval::runner::to_train_samples;
use lead_synth::generate_dataset;

fn main() {
    let scale = Scale::from_args();
    let synth = scale.synth_config();
    let cfg = scale.lead_config();

    println!("Figure 10 reproduction — scale `{}`", scale.name());
    let ds = generate_dataset(&synth);
    let train = to_train_samples(&ds.train);
    let (_lead, report) = Lead::fit(&train, &[], &ds.city.poi_db, &cfg, LeadOptions::full())
        .expect("training failed");

    let mut csv = String::from("series,epoch,loss\n");
    for (name, curve) in [
        ("Forward Detector", &report.forward_kld_curve),
        ("Backward Detector", &report.backward_kld_curve),
    ] {
        let min = curve.iter().cloned().fold(f32::INFINITY, f32::min);
        let argmin = curve
            .iter()
            .position(|&l| l == min)
            .map(|i| i + 1)
            .unwrap_or(0);
        println!("{name:<18} min KLD {min:.4} at epoch {argmin}; curve: {curve:?}");
        for line in curve_csv(name, curve).lines().skip(1) {
            csv.push_str(line);
            csv.push('\n');
        }
    }
    write_result(&format!("fig10_{}.csv", scale.name()), &csv);
}
