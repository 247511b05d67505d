//! Benchmarks of the candidate trajectory encoding component (Section IV):
//! hierarchical vs. flat compression, attention vs. last-hidden aggregation,
//! and the shared-phase-1 `encode_all` cache vs. naive per-candidate
//! encoding.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lead_core::config::LeadConfig;
use lead_core::encoding::{Autoencoder, EncoderKind};
use lead_core::features::{CandidateFeatures, TrajectoryFeatures, FEATURE_DIM};
use lead_core::processing::enumerate_candidates;
use lead_nn::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A synthetic trajectory-features bundle: `n` stays of `len_sp` points and
/// `n − 1` moves of `len_mp` points.
fn features(n: usize, len_sp: usize, len_mp: usize) -> TrajectoryFeatures {
    let mk = |rows: usize, salt: usize| {
        Matrix::from_fn(rows, FEATURE_DIM, |r, c| {
            (((salt * 31 + r * 7 + c) as f32) * 0.13).sin() * 0.5
        })
    };
    TrajectoryFeatures {
        sp_seqs: (0..n).map(|k| mk(len_sp, k)).collect(),
        mp_seqs: (0..n - 1).map(|k| mk(len_mp, 100 + k)).collect(),
    }
}

fn bench_encoding(c: &mut Criterion) {
    let cfg = LeadConfig::paper();
    let mut rng = StdRng::seed_from_u64(9);
    let hier = Autoencoder::new(&cfg, EncoderKind::Hierarchical, true, &mut rng);
    let hier_nosel = Autoencoder::new(&cfg, EncoderKind::Hierarchical, false, &mut rng);
    let flat = Autoencoder::new(&cfg, EncoderKind::Flat, true, &mut rng);

    let tf = features(8, 10, 14);
    let cands = enumerate_candidates(8);
    let one: CandidateFeatures = tf.candidate(cands[cands.len() / 2]);

    let mut g = c.benchmark_group("encode_one_candidate");
    g.sample_size(20);
    g.bench_function("hierarchical_attention", |b| {
        b.iter(|| black_box(hier.encode_value(&one)))
    });
    g.bench_function("hierarchical_last_hidden", |b| {
        b.iter(|| black_box(hier_nosel.encode_value(&one)))
    });
    g.bench_function("flat", |b| b.iter(|| black_box(flat.encode_value(&one))));
    g.finish();

    let mut g = c.benchmark_group("encode_all_28_candidates");
    g.sample_size(10);
    g.bench_function("shared_phase1_cache", |b| {
        b.iter(|| black_box(hier.encode_all(&tf, &cands)))
    });
    g.bench_function("per_candidate_naive", |b| {
        b.iter(|| {
            let out: Vec<Matrix> = cands
                .iter()
                .map(|&cand| hier.encode_value(&tf.candidate(cand)))
                .collect();
            black_box(out)
        })
    });
    g.finish();

    let samples = vec![one.clone()];
    let mut g = c.benchmark_group("reconstruction_loss");
    g.sample_size(10);
    g.bench_function("hierarchical", |b| {
        b.iter(|| black_box(hier.evaluate(&samples)))
    });
    g.bench_function("flat", |b| b.iter(|| black_box(flat.evaluate(&samples))));
    g.finish();
}

criterion_group!(benches, bench_encoding);
criterion_main!(benches);
