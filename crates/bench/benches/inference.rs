//! End-to-end online-stage benchmark (the microbenchmark behind Figure 8):
//! `Lead::detect` on raw trajectories grouped by stay-point bucket, plus the
//! SP-R baseline for the relative comparison.
//!
//! Training in the setup uses the fast-test configuration — inference cost
//! depends on architecture sizes, not trained weights, so the paper-size
//! architecture is kept while epochs are minimal.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use lead_baselines::SpR;
use lead_core::config::LeadConfig;
use lead_core::pipeline::{Lead, LeadOptions};
use lead_core::processing::ProcessedTrajectory;
use lead_eval::runner::to_train_samples;
use lead_eval::Bucket;
use lead_synth::{generate_dataset, SynthConfig};

fn bench_inference(c: &mut Criterion) {
    let mut synth = SynthConfig::tiny();
    synth.num_trucks = 20;
    let ds = generate_dataset(&synth);

    // Paper-size architecture, minimal training (inference cost only).
    let mut cfg = LeadConfig::paper();
    cfg.ae_max_epochs = 1;
    cfg.detector_max_epochs = 1;
    cfg.ae_samples_per_trajectory = 2;
    let train = to_train_samples(&ds.train);
    let (lead, _) = Lead::fit(&train, &[], &ds.city.poi_db, &cfg, LeadOptions::full())
        .expect("training failed");
    let spr = SpR::fit(&train, &cfg);

    // One representative test trajectory per bucket.
    let mut per_bucket: [Option<&lead_synth::Sample>; 4] = [None; 4];
    for s in ds.test.iter().chain(&ds.val).chain(&ds.train) {
        let proc = ProcessedTrajectory::from_raw(&s.raw, &cfg);
        let b = Bucket::of(proc.num_stay_points()).index();
        if per_bucket[b].is_none() {
            per_bucket[b] = Some(s);
        }
    }

    let mut g = c.benchmark_group("detect_one_trajectory");
    g.sample_size(10);
    for (i, sample) in per_bucket.iter().enumerate() {
        let Some(sample) = sample else { continue };
        let label = Bucket::ALL[i].label();
        g.bench_with_input(BenchmarkId::new("lead", label), sample, |b, s| {
            b.iter(|| black_box(lead.detect(&s.raw, &ds.city.poi_db)))
        });
        g.bench_with_input(BenchmarkId::new("sp_r", label), sample, |b, s| {
            b.iter(|| black_box(spr.detect(&s.raw)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
