//! The observability determinism contract: probes are write-only.
//!
//! Attaching a recording probe to training or detection must not change a
//! single bit of the result — the trained weights (compared through the
//! persisted byte stream), the training curves, and every detection
//! probability must be identical with and without a probe. The same file
//! pins the fallible public API: invalid configurations and empty training
//! sets surface as typed [`LeadError`]s, never panics.

#![expect(
    clippy::expect_used,
    reason = "a test helper fails its test by panicking"
)]

mod support;

use lead_core::config::LeadConfig;
use lead_core::pipeline::{DetectOptions, FitOptions, Lead, LeadOptions, TrainSample};
use lead_core::poi::{Poi, PoiCategory, PoiDatabase};
use lead_core::processing::Candidate;
use lead_core::source::SliceSamples;
use lead_core::LeadError;
use lead_geo::distance::meters_to_lng_deg;
use lead_geo::{GpsPoint, Trajectory};
use lead_nn::simd::{Backend, Kernel};
use lead_obs::Recorder;
use support::forced;

/// A minimal trainable world (mirrors the persistence tests' fixture).
fn tiny_world() -> (Vec<TrainSample>, PoiDatabase) {
    let per_km = meters_to_lng_deg(1_000.0, 32.0);
    let mk_raw = |offset: f64| {
        let mut pts = Vec::new();
        let mut t = 0;
        for block in 0..3 {
            let lng = 120.9 + offset + block as f64 * 5.0 * per_km;
            for _ in 0..10 {
                pts.push(GpsPoint::new(32.0, lng, t));
                t += 120;
            }
            for k in 1..=3 {
                pts.push(GpsPoint::new(32.0, lng + k as f64 * 1.25 * per_km, t));
                t += 120;
            }
        }
        Trajectory::new(pts)
    };
    let truth = lead_core::TruthLabel {
        load_start_s: 0,
        load_end_s: 1_080,
        unload_start_s: 1_560,
        unload_end_s: 2_640,
    };
    let samples = (0..3)
        .map(|i| TrainSample {
            raw: mk_raw(i as f64 * 0.0001),
            truth,
        })
        .collect();
    let pois = vec![
        Poi {
            lat: 32.0,
            lng: 120.9,
            category: PoiCategory::ChemicalFactory,
        },
        Poi {
            lat: 32.0,
            lng: 120.9 + 5.0 * per_km,
            category: PoiCategory::Factory,
        },
        Poi {
            lat: 32.0,
            lng: 120.9 + 10.0 * per_km,
            category: PoiCategory::Restaurant,
        },
    ];
    (samples, PoiDatabase::new(pois))
}

fn model_bytes(lead: &Lead) -> Vec<u8> {
    let mut buf = Vec::new();
    lead.write_to(&mut buf).expect("serialize");
    buf
}

#[test]
fn probed_fit_and_detect_are_bit_identical() {
    let (samples, db) = tiny_world();
    let cfg = LeadConfig::fast_test();

    let (plain, plain_report) =
        Lead::fit(&samples, &[], &db, &cfg, LeadOptions::full()).expect("plain fit");

    let recorder = Recorder::new();
    let (probed, probed_report) = Lead::fit_streaming(
        &mut SliceSamples::new(&samples),
        None,
        &db,
        &cfg,
        LeadOptions::full(),
        &FitOptions::new().with_probe(&recorder),
    )
    .expect("probed fit");

    // Identical weights, bit for bit, through the persisted byte stream.
    assert_eq!(model_bytes(&plain), model_bytes(&probed));
    // Identical training curves.
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&plain_report.ae_curve), bits(&probed_report.ae_curve));
    assert_eq!(
        bits(&plain_report.forward_kld_curve),
        bits(&probed_report.forward_kld_curve)
    );
    assert_eq!(
        bits(&plain_report.backward_kld_curve),
        bits(&probed_report.backward_kld_curve)
    );

    // Identical detections, probe attached or not.
    let det_recorder = Recorder::new();
    let opts = DetectOptions::new().with_probe(&det_recorder);
    for s in &samples {
        let a = plain.detect(&s.raw, &db);
        let b = probed.detect_opts(&s.raw, &db, &opts);
        match (a, b) {
            (Some(a), Some(b)) => {
                assert_eq!(a.detected, b.detected);
                assert_eq!(bits(&a.probabilities), bits(&b.probabilities));
            }
            (None, None) => {}
            _ => panic!("detectability changed under a probe"),
        }
    }

    // The fit-side recorder actually saw the pipeline.
    let snap = recorder.snapshot();
    assert!(recorder.counter("processing.points_in").unwrap_or(0) > 0);
    assert!(snap.spans.iter().any(|(name, _)| name == "fit"));
    assert!(snap.spans.iter().any(|(name, _)| name == "fit.autoencoder"));
    assert!(snap
        .histograms
        .iter()
        .any(|(name, _)| name == "ae.epoch_mse"));
    assert!(snap
        .histograms
        .iter()
        .any(|(name, _)| name == "det.fwd.grad_norm"));
    // The detect-side recorder saw per-stage spans and counters.
    let det_snap = det_recorder.snapshot();
    assert!(det_recorder.counter("detect.calls").unwrap_or(0) > 0);
    assert!(det_snap
        .spans
        .iter()
        .any(|(name, _)| name == "detect.score"));
}

#[test]
fn batch_detection_records_throughput() {
    let (samples, db) = tiny_world();
    let cfg = LeadConfig::fast_test();
    let (model, _) = Lead::fit(&samples, &[], &db, &cfg, LeadOptions::full()).expect("fit");

    let recorder = Recorder::new();
    let raws: Vec<_> = samples.iter().map(|s| s.raw.clone()).collect();
    let plain = model.detect_batch(&raws, &db);
    let probed = model.detect_batch_opts(&raws, &db, &DetectOptions::new().with_probe(&recorder));
    assert_eq!(plain.len(), probed.len());
    for (a, b) in plain.iter().zip(&probed) {
        assert_eq!(
            a.as_ref().map(|r| r.detected),
            b.as_ref().map(|r| r.detected)
        );
    }
    assert_eq!(
        recorder.counter("batch.trajectories"),
        Some(raws.len() as u64)
    );
    assert!(recorder.gauge_value("batch.throughput_per_s").is_some());
}

/// A probed stream replay must match a `NOOP` one update for update, bit
/// for bit, and its counters must describe the incremental work: each
/// candidate of a finished day is encoded exactly once.
#[test]
fn probed_stream_replay_is_bit_identical() {
    use lead_core::streaming::StreamingDetector;
    let (samples, db) = tiny_world();
    let cfg = LeadConfig::fast_test();
    let (model, _) = Lead::fit(&samples, &[], &db, &cfg, LeadOptions::full()).expect("fit");
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let recorder = Recorder::new();
    let mut candidates = 0u64;
    for s in &samples {
        let mut plain = StreamingDetector::new(&model, &db);
        let mut probed = StreamingDetector::with_probe(&model, &db, &recorder);
        for &p in s.raw.points() {
            let (a, b) = (plain.push(p), probed.push(p));
            assert_eq!(a.filtered_out, b.filtered_out);
            assert_eq!(a.completed_stays, b.completed_stays);
            match (a.hypothesis, b.hypothesis) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.detected, b.detected);
                    assert_eq!(bits(&a.probabilities), bits(&b.probabilities));
                }
                (None, None) => {}
                _ => panic!("a hypothesis changed under a probe"),
            }
        }
        let (a, b) = (plain.finish(), probed.finish());
        let (a, b) = (a.expect("detectable"), b.expect("detectable"));
        assert_eq!(a.detected, b.detected);
        assert_eq!(bits(&a.probabilities), bits(&b.probabilities));
        let n = b.processed.num_stay_points() as u64;
        candidates += n * (n - 1) / 2;
    }
    assert_eq!(
        recorder.counter("stream.candidates_encoded"),
        Some(candidates)
    );
    assert!(recorder.counter("stream.subgroups_scored").unwrap_or(0) > 0);
    assert!(recorder.counter("stream.rescores").unwrap_or(0) > 0);
}

/// The two write-only contracts composed: a *probed* fit on the scalar
/// reference backend and a *plain* fit on each available backend must
/// still serialize byte-identically. Neither the recorder nor the SIMD
/// backend choice is allowed to move a single bit of the trained weights.
#[test]
fn cross_backend_probed_fit_is_byte_identical() {
    let (samples, db) = tiny_world();
    let cfg = LeadConfig::fast_test();
    // Every sample's detected candidate and probabilities, `None` where the
    // day is not detectable.
    let detections = |lead: &Lead| -> Vec<Option<(Candidate, Vec<u32>)>> {
        samples
            .iter()
            .map(|s| {
                lead.detect(&s.raw, &db).map(|d| {
                    let probs = d.probabilities.iter().map(|x| x.to_bits()).collect();
                    (d.detected, probs)
                })
            })
            .collect()
    };

    let (scalar_bytes, scalar_detections) = forced(Backend::Scalar, || {
        let recorder = Recorder::new();
        let (scalar_probed, _) = Lead::fit_streaming(
            &mut SliceSamples::new(&samples),
            None,
            &db,
            &cfg,
            LeadOptions::full(),
            &FitOptions::new().with_probe(&recorder),
        )
        .expect("probed scalar fit");
        (model_bytes(&scalar_probed), detections(&scalar_probed))
    });

    for backend in Backend::available() {
        let (bytes, dets) = forced(backend, || {
            let (plain, _) =
                Lead::fit(&samples, &[], &db, &cfg, LeadOptions::full()).expect("plain fit");
            (model_bytes(&plain), detections(&plain))
        });
        let name = backend.name();
        assert_eq!(
            scalar_bytes, bytes,
            "weights diverged on `{name}` (with a probe attached to the scalar fit)"
        );
        // And the detections those weights produce agree bitwise too.
        assert_eq!(scalar_detections, dets, "detections diverged on `{name}`");
    }
}

#[test]
fn invalid_config_is_an_error_not_a_panic() {
    let (samples, db) = tiny_world();
    let mut cfg = LeadConfig::fast_test();
    cfg.d_max_m = -1.0;
    match Lead::fit(&samples, &[], &db, &cfg, LeadOptions::full()) {
        Err(LeadError::Config(e)) => assert_eq!(e.field, "d_max_m"),
        Err(other) => panic!("expected LeadError::Config, got {other}"),
        Ok(_) => panic!("invalid config accepted"),
    }
}

#[test]
fn unusable_training_set_is_an_error_not_a_panic() {
    let (_, db) = tiny_world();
    let cfg = LeadConfig::fast_test();
    // One trajectory with a single dwell: processing yields < 2 stay points,
    // so no sample survives and training must fail with a typed error.
    let mut pts = Vec::new();
    for k in 0..10 {
        pts.push(GpsPoint::new(32.0, 120.9, k * 120));
    }
    let samples = vec![TrainSample {
        raw: Trajectory::new(pts),
        truth: lead_core::TruthLabel {
            load_start_s: 0,
            load_end_s: 600,
            unload_start_s: 700,
            unload_end_s: 1_000,
        },
    }];
    match Lead::fit(&samples, &[], &db, &cfg, LeadOptions::full()) {
        Err(LeadError::NoTrainableSamples { skipped }) => assert_eq!(skipped, 1),
        Err(other) => panic!("expected NoTrainableSamples, got {other}"),
        Ok(_) => panic!("unusable training set accepted"),
    }
}
