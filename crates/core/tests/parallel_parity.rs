//! Serial/parallel equivalence of the data-parallel hot paths.
//!
//! The determinism contract (see `lead_nn::par`) promises bit-identical
//! results for every `num_threads` at a fixed seed: training reduces
//! gradients in item order, encoding/detection map candidates in index
//! order. These tests pin that contract end to end — training curves,
//! detection probabilities, and detected candidates must match the serial
//! path exactly, not approximately.

#![expect(
    clippy::expect_used,
    reason = "a test helper fails its test by panicking"
)]

mod support;

use lead_core::config::LeadConfig;
use lead_core::pipeline::{DetectOptions, DetectionResult, Lead, LeadOptions, TrainSample};
use lead_core::poi::{Poi, PoiCategory, PoiDatabase};
use lead_geo::distance::meters_to_lng_deg;
use lead_geo::{GpsPoint, Trajectory};
use lead_nn::simd::{Backend, Kernel};
use proptest::prelude::*;
use std::sync::OnceLock;
use support::forced;

/// One synthetic working day: `blocks` dwells separated by short drives,
/// geometry perturbed by `variant` so trajectories differ. Returns the raw
/// trajectory plus the dwell time intervals in order.
fn synthetic_day(blocks: usize, variant: u64) -> (Trajectory, Vec<(i64, i64)>) {
    let per_km = meters_to_lng_deg(1_000.0, 32.0);
    let mut pts = Vec::new();
    let mut dwells = Vec::new();
    let mut t = 0i64;
    for block in 0..blocks {
        let wobble = ((variant.wrapping_mul(block as u64 + 1) % 7) as f64 - 3.0) * 0.3;
        let lng = 120.9 + (block as f64 * 5.0 + wobble) * per_km;
        let start = t;
        for _ in 0..10 {
            pts.push(GpsPoint::new(32.0, lng, t));
            t += 120;
        }
        dwells.push((start, t - 120));
        for k in 1..=3 {
            pts.push(GpsPoint::new(32.0, lng + k as f64 * 1.25 * per_km, t));
            t += 120;
        }
    }
    (Trajectory::new(pts), dwells)
}

/// A labelled sample whose truth is the `load`→`unload` dwell pair.
fn labelled_sample(blocks: usize, variant: u64, load: usize, unload: usize) -> TrainSample {
    let (raw, dwells) = synthetic_day(blocks, variant);
    let truth = lead_core::label::TruthLabel {
        load_start_s: dwells[load].0,
        load_end_s: dwells[load].1,
        unload_start_s: dwells[unload].0,
        unload_end_s: dwells[unload].1,
    };
    truth.validate();
    TrainSample { raw, truth }
}

fn poi_db() -> PoiDatabase {
    let per_km = meters_to_lng_deg(1_000.0, 32.0);
    PoiDatabase::new(vec![
        Poi {
            lat: 32.0,
            lng: 120.9,
            category: PoiCategory::ChemicalFactory,
        },
        Poi {
            lat: 32.0,
            lng: 120.9 + 5.0 * per_km,
            category: PoiCategory::FuelingStation,
        },
        Poi {
            lat: 32.0,
            lng: 120.9 + 10.0 * per_km,
            category: PoiCategory::Port,
        },
    ])
}

fn train_val_sets() -> (Vec<TrainSample>, Vec<TrainSample>) {
    let train = vec![
        labelled_sample(4, 1, 0, 2),
        labelled_sample(4, 2, 1, 3),
        labelled_sample(3, 3, 0, 2),
        labelled_sample(4, 4, 0, 3),
    ];
    let val = vec![labelled_sample(4, 5, 1, 2), labelled_sample(3, 6, 0, 1)];
    (train, val)
}

fn fit_with_threads(num_threads: usize) -> (Lead, lead_core::pipeline::TrainingReport) {
    let (train, val) = train_val_sets();
    let mut config = LeadConfig::fast_test();
    config.num_threads = num_threads;
    Lead::fit(&train, &val, &poi_db(), &config, LeadOptions::full()).expect("fit")
}

fn bits(curve: &[f32]) -> Vec<u32> {
    curve.iter().map(|v| v.to_bits()).collect()
}

fn detection_fingerprint(r: &Option<DetectionResult>) -> Option<(Vec<u32>, usize, usize)> {
    r.as_ref().map(|d| {
        (
            bits(&d.probabilities),
            d.detected.start_sp,
            d.detected.end_sp,
        )
    })
}

#[test]
fn fit_and_detect_are_bit_identical_across_thread_counts() {
    let db = poi_db();
    let (held_out, _) = synthetic_day(4, 9);
    let (ref_model, ref_report) = fit_with_threads(1);
    let ref_detection = detection_fingerprint(&ref_model.detect(&held_out, &db));
    assert!(ref_detection.is_some(), "held-out day must be detectable");
    for threads in [2, 4] {
        let (model, report) = fit_with_threads(threads);
        assert_eq!(
            bits(&report.ae_curve),
            bits(&ref_report.ae_curve),
            "threads={threads}"
        );
        assert_eq!(
            bits(&report.ae_val_curve),
            bits(&ref_report.ae_val_curve),
            "threads={threads}"
        );
        assert_eq!(
            bits(&report.forward_kld_curve),
            bits(&ref_report.forward_kld_curve),
            "threads={threads}"
        );
        assert_eq!(
            bits(&report.backward_kld_curve),
            bits(&ref_report.backward_kld_curve),
            "threads={threads}"
        );
        assert_eq!(
            bits(&report.forward_val_kld_curve),
            bits(&ref_report.forward_val_kld_curve),
            "threads={threads}"
        );
        assert_eq!(report.used_samples, ref_report.used_samples);
        assert_eq!(report.skipped_samples, ref_report.skipped_samples);
        let detection = detection_fingerprint(&model.detect(&held_out, &db));
        assert_eq!(detection, ref_detection, "threads={threads}");
    }
}

/// The `LEAD-NoGro` MLP trains its accumulation windows data-parallel: its
/// curve, its weights and its detections must not depend on the thread
/// count.
#[test]
fn no_gro_fit_is_bit_identical_across_thread_counts() {
    let db = poi_db();
    let (held_out, _) = synthetic_day(4, 9);
    let model_bytes = |lead: &Lead| {
        let mut bytes = Vec::new();
        lead.write_to(&mut bytes).expect("in-memory write");
        bytes
    };
    let (train, val) = train_val_sets();
    let fit = |num_threads: usize| {
        let mut config = LeadConfig::fast_test();
        config.num_threads = num_threads;
        // Windows of 3 over 4 samples: a full window and a flushed partial
        // one every epoch.
        config.batch_accumulation = 3;
        Lead::fit(&train, &val, &db, &config, LeadOptions::no_gro()).expect("fit")
    };
    let (ref_model, ref_report) = fit(1);
    assert!(!ref_report.mlp_curve.is_empty(), "the MLP must train");
    let ref_detection = detection_fingerprint(&ref_model.detect(&held_out, &db));
    assert!(ref_detection.is_some(), "held-out day must be detectable");
    let (model, report) = fit(2);
    assert_eq!(bits(&report.mlp_curve), bits(&ref_report.mlp_curve));
    assert!(
        model_bytes(&model) == model_bytes(&ref_model),
        "weights differ"
    );
    assert_eq!(
        detection_fingerprint(&model.detect(&held_out, &db)),
        ref_detection
    );
}

#[test]
fn detect_batch_matches_individual_detects() {
    let db = poi_db();
    let (model, _) = fit_with_threads(2);
    let raws: Vec<Trajectory> = vec![
        synthetic_day(4, 9).0,
        synthetic_day(3, 10).0,
        // Degenerate day: a single dwell, no candidate — must map to None.
        synthetic_day(1, 11).0,
        synthetic_day(4, 12).0,
    ];
    let batch = model.detect_batch(&raws, &db);
    assert_eq!(batch.len(), raws.len());
    assert!(batch[2].is_none(), "one stay point admits no candidate");
    for (raw, got) in raws.iter().zip(&batch) {
        let individual = model.detect(raw, &db);
        assert_eq!(
            detection_fingerprint(got),
            detection_fingerprint(&individual)
        );
    }
}

/// Cross-run determinism: two *fresh* trainings from the same seed must be
/// byte-identical, end to end. This is stronger than thread-count parity —
/// it would catch any nondeterministic iteration order (e.g. a `HashMap`
/// sneaking into a result-affecting path, lint rule R1) or ambient state
/// leaking into training, because both runs rebuild every model from
/// scratch and compare the serialized weights byte for byte.
#[test]
fn fresh_runs_from_the_same_seed_are_byte_identical() {
    let db = poi_db();
    let (held_out, _) = synthetic_day(4, 9);

    let run = || {
        let (model, report) = fit_with_threads(2);
        let mut bytes = Vec::new();
        model
            .write_to(&mut bytes)
            .expect("serializing to memory cannot fail");
        let detection = detection_fingerprint(&model.detect(&held_out, &db));
        (bytes, bits(&report.ae_curve), detection)
    };

    let (bytes_a, curve_a, det_a) = run();
    let (bytes_b, curve_b, det_b) = run();
    assert_eq!(curve_a, curve_b, "training curves diverged across runs");
    assert_eq!(det_a, det_b, "detections diverged across runs");
    assert!(det_a.is_some(), "held-out day must be detectable");
    assert_eq!(
        bytes_a, bytes_b,
        "serialized models diverged across fresh same-seed runs"
    );
}

/// The cross-backend determinism contract: a fit forced onto each available
/// backend (scalar, then AVX2 and AVX-512 where the CPU has them) must
/// produce the scalar fit's serialized model, training curves and
/// detections, byte for byte. This is the end-to-end closure of the
/// per-kernel `to_bits` parity pinned in `lead_nn`'s
/// `simd_parity`/`proptest_simd` suites: if any hot path bypassed the
/// dispatched kernels or a kernel rounded differently, the persisted byte
/// streams would diverge here.
#[test]
fn fit_is_bit_identical_across_simd_backends() {
    let db = poi_db();
    let (held_out, _) = synthetic_day(4, 9);
    let fit_on = |backend: Backend| {
        forced(backend, || {
            let (model, report) = fit_with_threads(2);
            let mut bytes = Vec::new();
            model
                .write_to(&mut bytes)
                .expect("serializing to memory cannot fail");
            let det = detection_fingerprint(&model.detect(&held_out, &db));
            (bytes, report, det)
        })
    };
    // `available` lists scalar first: the reference every other fit meets.
    let backends = Backend::available();
    let (scalar_bytes, scalar_report, scalar_det) = fit_on(backends[0]);
    assert!(scalar_det.is_some(), "held-out day must be detectable");
    for &backend in &backends[1..] {
        let (bytes, report, det) = fit_on(backend);
        let name = backend.name();
        assert_eq!(
            bits(&scalar_report.ae_curve),
            bits(&report.ae_curve),
            "autoencoder curves diverged on `{name}`"
        );
        assert_eq!(
            bits(&scalar_report.forward_kld_curve),
            bits(&report.forward_kld_curve),
            "forward detector curves diverged on `{name}`"
        );
        assert_eq!(scalar_det, det, "detections diverged on `{name}`");
        assert_eq!(
            scalar_bytes, bytes,
            "serialized models diverged on `{name}`"
        );
    }
}

fn shared_model() -> &'static (Lead, PoiDatabase) {
    static MODEL: OnceLock<(Lead, PoiDatabase)> = OnceLock::new();
    MODEL.get_or_init(|| (fit_with_threads(1).0, poi_db()))
}

proptest! {
    #[test]
    fn detection_is_thread_count_invariant(
        blocks in 1usize..5,
        variant in any::<u64>(),
        threads in 2usize..5,
    ) {
        let (model, db) = shared_model();
        let (raw, _) = synthetic_day(blocks, variant);
        let serial = model.detect_opts(&raw, db, &DetectOptions::new().with_threads(1));
        let parallel = model.detect_opts(&raw, db, &DetectOptions::new().with_threads(threads));
        prop_assert_eq!(detection_fingerprint(&serial), detection_fingerprint(&parallel));
        if blocks < 2 {
            prop_assert!(serial.is_none(), "fewer than two stays admit no candidate");
        }
    }
}
