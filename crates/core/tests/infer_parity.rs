//! The tape-free inference paths against the autodiff tape, bit for bit.
//!
//! Detection runs the autoencoder and the detectors through
//! `lead_nn::infer`: packed batches, phase-2 LSTM prefixes shared across
//! candidates, and no `Graph`. This suite pins that every c-vec
//! `Autoencoder::encode_all` returns, and every probability a
//! `GroupDetector` returns, has exactly the bits the tape computes through
//! the public `Autoencoder::encode` and `GroupDetector::forward_graph` —
//! for all seven variants, on one seeded day from each stay-point bucket of
//! the paper's Figure 8, with features extracted at one worker and at all
//! cores.

mod support;

use lead_core::config::LeadConfig;
use lead_core::detection::{build_groups, GroupDetector, MlpDetector};
use lead_core::encoding::{Autoencoder, EncoderKind};
use lead_core::features::{raw_features, FeatureExtractor, Normalizer};
use lead_core::pipeline::DetectorChoice;
use lead_core::processing::{Candidate, ProcessedTrajectory};
use lead_nn::{Graph, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use support::{bits, perturb, poi_db, synthetic_day, BUCKETS, VARIANTS};

fn assert_group_parity(
    det: &GroupDetector,
    side: &[Vec<Candidate>],
    cvecs: &[Matrix],
    index: impl Fn(Candidate) -> usize,
    what: &str,
) {
    let refs: Vec<Vec<&Matrix>> = side
        .iter()
        .map(|sub| sub.iter().map(|&c| &cvecs[index(c)]).collect())
        .collect();
    let got = det.probabilities(&refs);
    let mut g = Graph::new(det.params());
    let p = det.forward_graph(&mut g, &refs);
    assert_eq!(bits(&got), bits(g.value(p).data()), "{what}");
}

#[test]
fn inference_matches_the_tape_for_every_variant_bucket_and_thread_count() {
    let cfg = LeadConfig::experiment();
    let db = poi_db();
    for (v, variant) in VARIANTS.iter().enumerate() {
        let opts = variant();
        let mut rng = StdRng::seed_from_u64(41 + v as u64);
        let kind = if opts.hierarchical {
            EncoderKind::Hierarchical
        } else {
            EncoderKind::Flat
        };
        let mut ae = Autoencoder::new(&cfg, kind, opts.use_attention, &mut rng);
        perturb(ae.params_mut(), v);
        let dim = ae.c_vec_dim();
        let mut forward = GroupDetector::new(&cfg, dim, &mut rng);
        let mut backward = GroupDetector::new(&cfg, dim, &mut rng);
        perturb(forward.params_mut(), v + 100);
        perturb(backward.params_mut(), v + 200);
        let mlp = MlpDetector::new(dim, &mut rng);
        for (b, &(lo, hi, blocks)) in BUCKETS.iter().enumerate() {
            let raw = synthetic_day(blocks, 7 + b as u64);
            let proc = ProcessedTrajectory::from_raw(&raw, &cfg);
            let n = proc.num_stay_points();
            assert!((lo..=hi).contains(&n), "bucket {lo}-{hi} drew {n} stays");
            let rows: Vec<Vec<f32>> = raw
                .points()
                .iter()
                .map(|p| raw_features(&db, cfg.poi_radius_m, opts.use_poi, p))
                .collect();
            let norm = Normalizer::fit(&rows);
            let fx = FeatureExtractor::new(&db, &cfg, opts.use_poi, &norm);
            let tf = fx.trajectory_features(&proc);
            let what = format!("{} on a {n}-stay day", opts.name());

            // The tape, one candidate at a time.
            let tape: Vec<Matrix> = proc
                .candidates
                .iter()
                .map(|&c| {
                    let mut g = Graph::new(ae.params());
                    let cv = ae.encode(&mut g, &tf.candidate(c));
                    g.value(cv).clone()
                })
                .collect();
            // Detection extracts features on `num_threads` workers and
            // then encodes serially.
            for threads in [1, 0] {
                let tf = fx.trajectory_features_par(&proc, threads);
                let cvecs = ae.encode_all(&tf, &proc.candidates);
                assert_eq!(cvecs.len(), tape.len(), "{what}");
                for (c, (got, want)) in proc.candidates.iter().zip(cvecs.iter().zip(&tape)) {
                    assert_eq!(
                        bits(got.data()),
                        bits(want.data()),
                        "{what}, threads={threads}: c-vec of {c:?}"
                    );
                }
            }
            let first = proc.candidates[0];
            assert_eq!(
                bits(ae.encode_value(&tf.candidate(first)).data()),
                bits(tape[0].data()),
                "{what}: encode_value"
            );

            let index = |c: Candidate| {
                proc.candidates
                    .iter()
                    .position(|&k| k == c)
                    .expect("every grouped candidate is enumerated")
            };
            let groups = build_groups(n);
            match opts.detector {
                DetectorChoice::Both => {
                    assert_group_parity(&forward, &groups.forward, &tape, index, &what);
                    assert_group_parity(&backward, &groups.backward, &tape, index, &what);
                }
                DetectorChoice::ForwardOnly => {
                    assert_group_parity(&forward, &groups.forward, &tape, index, &what)
                }
                DetectorChoice::BackwardOnly => {
                    assert_group_parity(&backward, &groups.backward, &tape, index, &what)
                }
                // The MLP's tape path is private; `mlp.rs` pins it bit for
                // bit. Here: one batched pass equals per-candidate passes.
                DetectorChoice::Mlp => {
                    let batched = mlp.probabilities(&tape);
                    for (cv, p) in tape.iter().zip(&batched) {
                        let single = mlp.probabilities(std::slice::from_ref(cv));
                        assert_eq!(bits(&single), bits(&[*p]), "{what}");
                    }
                }
            }
        }
    }
}
