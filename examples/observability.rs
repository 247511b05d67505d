//! Observability: attach a recording probe to training and batch detection,
//! then render the collected metrics as a table and as JSONL.
//!
//! The probe is write-only — the trained model and every detection are
//! bit-identical with or without it (a parity test in `crates/core/tests`
//! pins this down).
//!
//! Run with: `cargo run --release --example observability`

use lead::core::config::LeadConfig;
use lead::core::pipeline::{DetectOptions, FitOptions, Lead, LeadOptions};
use lead::core::source::SliceSamples;
use lead::eval::runner::to_train_samples;
use lead::obs::{emit, Recorder};
use lead::synth::{generate_dataset, SynthConfig};

fn main() {
    // 1. A small synthetic world (substitute for the Nantong data).
    let mut synth = SynthConfig::paper_scaled();
    synth.num_trucks = 20;
    synth.days_per_truck = 1;
    let dataset = generate_dataset(&synth);

    let mut config = LeadConfig::experiment();
    config.ae_max_epochs = 4;
    config.detector_max_epochs = 6;

    // 2. Offline stage with a recorder attached: every pipeline stage emits
    //    spans (fit.features, fit.autoencoder, …), per-epoch losses, gradient
    //    norms, and processing counters into the recorder.
    let recorder = Recorder::new();
    let train = to_train_samples(&dataset.train);
    println!("training LEAD with a recording probe…");
    let (lead, _report) = Lead::fit_streaming(
        &mut SliceSamples::new(&train),
        None,
        &dataset.city.poi_db,
        &config,
        LeadOptions::full(),
        &FitOptions::new().with_probe(&recorder),
    )
    .expect("training failed");

    // 3. Online stage: batch detection through the same probe records
    //    per-stage latency and batch throughput.
    let raws: Vec<_> = dataset.test.iter().map(|s| s.raw.clone()).collect();
    let opts = DetectOptions::new().with_probe(&recorder);
    let results = lead.detect_batch_opts(&raws, &dataset.city.poi_db, &opts);
    let detected = results.iter().flatten().count();
    println!("detected {detected}/{} test trajectories\n", raws.len());

    // 4. Render everything the probe saw.
    let snapshot = recorder.snapshot();
    println!("{}", emit::table(&snapshot));

    println!("machine-readable (JSONL), first lines:");
    for line in emit::jsonl(&snapshot).lines().take(5) {
        println!("  {line}");
    }
}
