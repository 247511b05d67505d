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

use lead_core::config::LeadConfig;
use lead_core::detection::{build_groups, GroupDetector, MlpDetector};
use lead_core::encoding::{Autoencoder, EncoderKind};
use lead_core::features::{raw_features, FeatureExtractor, Normalizer};
use lead_core::pipeline::{DetectorChoice, LeadOptions};
use lead_core::poi::{Poi, PoiCategory, PoiDatabase};
use lead_core::processing::{Candidate, ProcessedTrajectory};
use lead_geo::distance::meters_to_lng_deg;
use lead_geo::{GpsPoint, Trajectory};
use lead_nn::{Graph, Matrix, ParamSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One synthetic working day of `blocks` dwells separated by short drives;
/// `seed` perturbs the geometry and dwell lengths.
fn synthetic_day(blocks: usize, seed: u64) -> Trajectory {
    let per_km = meters_to_lng_deg(1_000.0, 32.0);
    let mut pts = Vec::new();
    let mut t = 6 * 3600i64;
    for block in 0..blocks {
        let mix = seed.wrapping_mul(block as u64 + 3) % 11;
        let lng = 120.9 + (block as f64 * 4.0 + mix as f64 * 0.2) * per_km;
        let lat = 32.0 + (mix as f64 - 5.0) * 0.001;
        for _ in 0..10 + mix % 5 {
            pts.push(GpsPoint::new(lat, lng, t));
            t += 120;
        }
        for k in 1..=2 + mix % 3 {
            pts.push(GpsPoint::new(lat, lng + k as f64 * per_km, t));
            t += 120;
        }
    }
    Trajectory::new(pts)
}

fn poi_db() -> PoiDatabase {
    let per_km = meters_to_lng_deg(1_000.0, 32.0);
    let categories = [
        PoiCategory::ChemicalFactory,
        PoiCategory::FuelingStation,
        PoiCategory::Port,
    ];
    PoiDatabase::new(
        (0..12)
            .map(|k| Poi {
                lat: 32.0,
                lng: 120.9 + k as f64 * 4.0 * per_km,
                category: categories[k % categories.len()],
            })
            .collect(),
    )
}

const VARIANTS: [fn() -> LeadOptions; 7] = [
    LeadOptions::full,
    LeadOptions::no_poi,
    LeadOptions::no_sel,
    LeadOptions::no_hie,
    LeadOptions::no_gro,
    LeadOptions::no_for,
    LeadOptions::no_bac,
];

/// Stay-point buckets of Figure 8 and the dwell count drawn for each.
const BUCKETS: [(usize, usize, usize); 4] = [(3, 5, 4), (6, 8, 7), (9, 11, 10), (12, 14, 13)];

/// Moves every weight off its initial value (biases included), so the
/// comparison runs on dense, non-trivial parameters.
fn perturb(ps: &mut ParamSet, salt: usize) {
    let ids: Vec<_> = ps.iter().map(|(id, _)| id).collect();
    for id in ids {
        for (k, v) in ps.value_mut(id).data_mut().iter_mut().enumerate() {
            *v += (((salt * 131 + id.index() * 17 + k) as f32) * 0.61).sin() * 0.05;
        }
    }
}

fn bits(m: &[f32]) -> Vec<u32> {
    m.iter().map(|v| v.to_bits()).collect()
}

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
