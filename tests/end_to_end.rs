//! End-to-end integration tests: synthetic world → processing → training →
//! detection, across all LEAD variants and baselines.
//!
//! Sizes are deliberately tiny (these run in debug mode); accuracy is not
//! asserted here — the experiment binaries cover that — only correct wiring,
//! determinism, and structural invariants.

use lead::baselines::{RnnKind, SpR, SpRnn, SpRnnConfig};
use lead::core::config::LeadConfig;
use lead::core::label::truth_stay_indices;
use lead::core::pipeline::{Lead, LeadOptions};
use lead::core::processing::ProcessedTrajectory;
use lead::eval::runner::{test_case, to_train_samples};
use lead::synth::{generate_dataset, Dataset, SynthConfig};

fn micro_dataset() -> Dataset {
    let mut cfg = SynthConfig::tiny();
    cfg.num_trucks = 10;
    cfg.days_per_truck = 2;
    generate_dataset(&cfg)
}

#[test]
fn lead_full_trains_and_detects() {
    let ds = micro_dataset();
    let cfg = LeadConfig::fast_test();
    let train = to_train_samples(&ds.train);
    let (lead, report) = Lead::fit(&train, &[], &ds.city.poi_db, &cfg, LeadOptions::full())
        .expect("training failed");

    assert!(report.used_samples > 0);
    assert!(!report.ae_curve.is_empty());
    assert!(!report.forward_kld_curve.is_empty());
    assert!(!report.backward_kld_curve.is_empty());
    assert!(report.ae_curve.iter().all(|l| l.is_finite() && *l >= 0.0));

    let mut detections = 0;
    for s in ds.test.iter().chain(&ds.val) {
        if let Some(result) = lead.detect(&s.raw, &ds.city.poi_db) {
            detections += 1;
            let n = result.processed.num_stay_points();
            assert!(result.detected.end_sp < n);
            assert_eq!(result.probabilities.len(), n * (n - 1) / 2);
            assert!(result.probabilities.iter().all(|p| p.is_finite()));
            // The detected interval is within the trajectory and ordered.
            let (a, b) = result.loaded_interval_s();
            assert!(a < b);
            assert!(!result.loaded_trajectory().is_empty());
        }
    }
    assert!(detections > 0, "no test trajectory was detectable");
}

#[test]
fn every_variant_trains_and_detects() {
    let ds = micro_dataset();
    let cfg = LeadConfig::fast_test();
    let train = to_train_samples(&ds.train);
    let variants = [
        LeadOptions::no_poi(),
        LeadOptions::no_sel(),
        LeadOptions::no_hie(),
        LeadOptions::no_gro(),
        LeadOptions::no_for(),
        LeadOptions::no_bac(),
    ];
    for options in variants {
        let (lead, report) =
            Lead::fit(&train, &[], &ds.city.poi_db, &cfg, options).expect("training failed");
        assert_eq!(lead.options(), options);
        assert!(!report.ae_curve.is_empty(), "{}", options.name());
        // Detector curves appear exactly where expected.
        match options.detector {
            lead::core::pipeline::DetectorChoice::Both => {
                assert!(!report.forward_kld_curve.is_empty());
                assert!(!report.backward_kld_curve.is_empty());
            }
            lead::core::pipeline::DetectorChoice::ForwardOnly => {
                assert!(!report.forward_kld_curve.is_empty());
                assert!(report.backward_kld_curve.is_empty());
            }
            lead::core::pipeline::DetectorChoice::BackwardOnly => {
                assert!(report.forward_kld_curve.is_empty());
                assert!(!report.backward_kld_curve.is_empty());
            }
            lead::core::pipeline::DetectorChoice::Mlp => {
                assert!(!report.mlp_curve.is_empty());
            }
        }
        let sample = &ds.test[0];
        let r = lead.detect(&sample.raw, &ds.city.poi_db);
        if let Some(r) = r {
            assert!(
                r.detected.start_sp < r.detected.end_sp,
                "{}",
                options.name()
            );
        }
    }
}

#[test]
fn training_is_deterministic_under_fixed_seed() {
    let ds = micro_dataset();
    let cfg = LeadConfig::fast_test();
    let train = to_train_samples(&ds.train);
    let (lead_a, report_a) = Lead::fit(&train, &[], &ds.city.poi_db, &cfg, LeadOptions::full())
        .expect("training failed");
    let (lead_b, report_b) = Lead::fit(&train, &[], &ds.city.poi_db, &cfg, LeadOptions::full())
        .expect("training failed");
    assert_eq!(report_a.ae_curve, report_b.ae_curve);
    assert_eq!(report_a.forward_kld_curve, report_b.forward_kld_curve);
    let s = &ds.test[0];
    let ra = lead_a.detect(&s.raw, &ds.city.poi_db);
    let rb = lead_b.detect(&s.raw, &ds.city.poi_db);
    match (ra, rb) {
        (Some(a), Some(b)) => {
            assert_eq!(a.detected, b.detected);
            assert_eq!(a.probabilities, b.probabilities);
        }
        (None, None) => {}
        _ => panic!("detection determinism violated"),
    }
}

#[test]
fn baselines_train_and_detect() {
    let ds = micro_dataset();
    let cfg = LeadConfig::fast_test();
    let train = to_train_samples(&ds.train);

    let spr = SpR::fit(&train, &cfg);
    assert!(!spr.whitelist().is_empty());
    for kind in [RnnKind::Gru, RnnKind::Lstm] {
        let (model, curve) = SpRnn::fit(
            kind,
            &train,
            &ds.city.poi_db,
            &cfg,
            &SpRnnConfig::fast_test(),
        );
        assert!(!curve.is_empty());
        for s in ds.test.iter().take(3) {
            if let Some(d) = model.detect(&s.raw, &ds.city.poi_db) {
                assert!(d.loading < d.unloading);
            }
            if let Some(d) = spr.detect(&s.raw) {
                assert!(d.loading < d.unloading);
            }
        }
    }
}

#[test]
fn ground_truth_maps_for_most_synthetic_samples() {
    let ds = micro_dataset();
    let cfg = LeadConfig::paper();
    let all: Vec<_> = ds.train.iter().chain(&ds.val).chain(&ds.test).collect();
    let mapped = all.iter().filter(|s| test_case(s, &cfg).is_some()).count();
    assert!(
        mapped * 10 >= all.len() * 8,
        "only {mapped}/{} samples mapped their ground truth",
        all.len()
    );
}

#[test]
fn extracted_stays_match_planned_stays_for_most_samples() {
    let ds = micro_dataset();
    let cfg = LeadConfig::paper();
    let mut exact = 0;
    let mut total = 0;
    for s in ds.train.iter().chain(&ds.test) {
        let proc = ProcessedTrajectory::from_raw(&s.raw, &cfg);
        total += 1;
        if proc.num_stay_points() == s.planned_stays {
            exact += 1;
        }
        // Extraction may merge nearby planned stops (breaks chosen close to
        // the next site) but must not invent many: at most one extra, at most
        // five merged away on the busiest 14-stop days.
        let diff = proc.num_stay_points() as i64 - s.planned_stays as i64;
        assert!(
            (-5..=1).contains(&diff),
            "planned {} extracted {}",
            s.planned_stays,
            proc.num_stay_points()
        );
    }
    assert!(exact * 10 >= total * 6, "only {exact}/{total} exact");
}

#[test]
fn truth_projection_picks_loading_before_unloading() {
    let ds = micro_dataset();
    let cfg = LeadConfig::paper();
    for s in &ds.train {
        let proc = ProcessedTrajectory::from_raw(&s.raw, &cfg);
        if let Some((l, u)) = truth_stay_indices(&proc, &s.truth) {
            assert!(l < u);
            // The mapped stay points overlap the truth intervals in time.
            let pts = proc.cleaned.points();
            let sp = &proc.stay_points[l];
            assert!(pts[sp.start].t <= s.truth.load_end_s);
            assert!(pts[sp.end].t >= s.truth.load_start_s);
        }
    }
}

#[test]
fn streaming_matches_batch_detection() {
    use lead::core::streaming::StreamingDetector;
    let ds = micro_dataset();
    let cfg = LeadConfig::fast_test();
    let train = to_train_samples(&ds.train);
    let (model, _) = Lead::fit(&train, &[], &ds.city.poi_db, &cfg, LeadOptions::full())
        .expect("training failed");
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    // Same stay points, same detection, same probability bits.
    let assert_same =
        |what: &str, a: &lead::core::DetectionResult, b: &lead::core::DetectionResult| {
            assert_eq!(
                a.processed.stay_points, b.processed.stay_points,
                "{what}: stay points diverged"
            );
            assert_eq!(a.detected, b.detected, "{what}: streaming/batch diverged");
            assert_eq!(
                bits(&a.probabilities),
                bits(&b.probabilities),
                "{what}: probabilities diverged"
            );
        };

    let (mut compared, mut intermediate) = (0, 0);
    for s in ds.test.iter().chain(&ds.val) {
        let batch = model.detect(&s.raw, &ds.city.poi_db);
        let mut stream = StreamingDetector::new(&model, &ds.city.poi_db);
        for &p in s.raw.points() {
            // Every running hypothesis is the batch detection of the
            // prefix seen so far.
            if let Some(h) = stream.push(p).hypothesis {
                let prefix = model
                    .detect(&stream.snapshot().cleaned, &ds.city.poi_db)
                    .expect("the prefix has the hypothesis' stay points");
                assert_same("hypothesis", &h, &prefix);
                intermediate += 1;
            }
        }
        let streamed = stream.finish();
        match (batch, streamed) {
            (Some(a), Some(b)) => {
                assert_same("final", &b, &a);
                compared += 1;
            }
            (None, None) => {}
            (a, b) => panic!(
                "detectability diverged: batch={:?} streamed={:?}",
                a.map(|r| r.detected),
                b.map(|r| r.detected)
            ),
        }
    }
    assert!(compared > 0, "no comparable trajectory");
    assert!(intermediate > 0, "no intermediate hypothesis");
}

#[test]
fn persisted_model_streams_identically() {
    use lead::core::streaming::StreamingDetector;
    let ds = micro_dataset();
    let cfg = LeadConfig::fast_test();
    let train = to_train_samples(&ds.train);
    let (model, _) = Lead::fit(&train, &[], &ds.city.poi_db, &cfg, LeadOptions::full())
        .expect("training failed");
    let mut buf = Vec::new();
    model.write_to(&mut buf).unwrap();
    let loaded = Lead::read_from(&mut buf.as_slice()).unwrap();

    let sample = &ds.test[0];
    let run = |m: &Lead| {
        let mut stream = StreamingDetector::new(m, &ds.city.poi_db);
        for &p in sample.raw.points() {
            stream.push(p);
        }
        stream.finish().map(|r| r.detected)
    };
    assert_eq!(run(&model), run(&loaded));
}
