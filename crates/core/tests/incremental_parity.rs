//! Incremental streaming against batch detection, bit for bit.
//!
//! `StreamingDetector` keeps a day's scoring state and extends it as stay
//! points complete: phase-1 vectors, per-start LSTM runs, c-vecs, backward
//! subgroup logits and MLP probabilities are computed once and reused.
//! `Lead::detect_opts` runs the same state with every stay point appended
//! in one call. This suite pins that every hypothesis a stream emits has
//! exactly the probabilities and detection of `detect_opts` on the same
//! prefix — for all seven variants, on one seeded day per stay-point bucket
//! of Figure 8, through pushes that complete two stay points at once, and
//! through `finish` with and without a trailing stay — with the batch side
//! extracting features at one worker and at all cores.

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "a test helper fails its test by panicking"
)]

mod support;

use lead_core::config::LeadConfig;
use lead_core::detection::{GroupDetector, MlpDetector};
use lead_core::encoding::{Autoencoder, EncoderKind};
use lead_core::features::{raw_features, Normalizer, FEATURE_DIM};
use lead_core::pipeline::{DetectOptions, DetectionResult, DetectorChoice, Lead, LeadOptions};
use lead_core::poi::PoiDatabase;
use lead_core::processing::ProcessedTrajectory;
use lead_core::streaming::StreamingDetector;
use lead_geo::distance::meters_to_lng_deg;
use lead_geo::{GpsPoint, Trajectory};
use lead_nn::io::write_params;
use lead_obs::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use support::{bits, perturb, poi_db, synthetic_day, BUCKETS, VARIANTS};

fn hex_row(values: &[f32]) -> String {
    values
        .iter()
        .map(|v| format!("{:08x}", v.to_bits()))
        .collect::<Vec<_>>()
        .join(" ")
}

/// An untrained model of variant `v` with perturbed weights, built through
/// the public model format, and a normaliser fit on `days`.
fn model(v: usize, opts: LeadOptions, days: &[Trajectory], db: &PoiDatabase) -> Lead {
    let cfg = LeadConfig::experiment();
    let mut rng = StdRng::seed_from_u64(41 + v as u64);
    let kind = if opts.hierarchical {
        EncoderKind::Hierarchical
    } else {
        EncoderKind::Flat
    };
    let mut ae = Autoencoder::new(&cfg, kind, opts.use_attention, &mut rng);
    perturb(ae.params_mut(), v);
    let dim = ae.c_vec_dim();
    let mut group = |salt| {
        let mut det = GroupDetector::new(&cfg, dim, &mut rng);
        perturb(det.params_mut(), v + salt);
        det
    };
    let (forward, backward) = (group(100), group(200));
    let mut mlp = MlpDetector::new(dim, &mut rng);
    perturb(mlp.params_mut(), v + 300);
    let rows: Vec<Vec<f32>> = days
        .iter()
        .flat_map(|d| d.points().iter())
        .map(|p| raw_features(db, cfg.poi_radius_m, opts.use_poi, p))
        .collect();
    let norm = Normalizer::fit(&rows);

    let tag = match opts.detector {
        DetectorChoice::Both => "both",
        DetectorChoice::ForwardOnly => "forward",
        DetectorChoice::BackwardOnly => "backward",
        DetectorChoice::Mlp => "mlp",
    };
    let mut text = String::from("lead-model v1\n");
    let hex = |x: f64| format!("{:016x}", x.to_bits());
    writeln!(
        text,
        "options {} {} {} {tag}\nconfig {} {} {} {} {} {} {} {}\nnormalizer {FEATURE_DIM}\n{}\n{}",
        opts.use_poi,
        opts.use_attention,
        opts.hierarchical,
        hex(cfg.v_max_kmh),
        hex(cfg.d_max_m),
        cfg.t_min_s,
        hex(cfg.poi_radius_m),
        cfg.ae_hidden,
        cfg.detector_hidden,
        cfg.detector_layers,
        cfg.seed,
        hex_row(norm.mean()),
        hex_row(norm.std()),
    )
    .expect("write to a String");
    let mut sections = vec![("autoencoder", ae.params())];
    match opts.detector {
        DetectorChoice::Both => {
            sections.push(("forward_detector", forward.params()));
            sections.push(("backward_detector", backward.params()));
        }
        DetectorChoice::ForwardOnly => sections.push(("forward_detector", forward.params())),
        DetectorChoice::BackwardOnly => sections.push(("backward_detector", backward.params())),
        DetectorChoice::Mlp => sections.push(("mlp_detector", mlp.params())),
    }
    let mut bytes = text.into_bytes();
    for (name, params) in sections {
        bytes.extend_from_slice(format!("section {name}\n").as_bytes());
        write_params(params, &mut bytes).expect("write to a Vec");
    }
    bytes.extend_from_slice(b"end-model\n");
    Lead::read_from(&mut bytes.as_slice()).expect("a well-formed model")
}

/// `got` must be `detect_opts` on `prefix`, bit for bit, with features
/// extracted on each of `threads` workers.
fn assert_batch_equal(
    what: &str,
    model: &Lead,
    db: &PoiDatabase,
    prefix: &Trajectory,
    got: &DetectionResult,
    threads: &[usize],
) {
    for &threads in threads {
        let opts = DetectOptions::new().with_threads(threads);
        let want = model
            .detect_opts(prefix, db, &opts)
            .unwrap_or_else(|| panic!("{what}: batch found no candidate"));
        let ctx = format!("{what}, threads={threads}");
        assert_eq!(
            got.processed.stay_points, want.processed.stay_points,
            "{ctx}: stay points"
        );
        assert_eq!(got.detected, want.detected, "{ctx}: detection");
        assert_eq!(
            bits(&got.probabilities),
            bits(&want.probabilities),
            "{ctx}: probabilities"
        );
    }
}

/// Streams `day` through a fresh detector, checking every hypothesis and
/// the final detection against batch detection.
fn stream_and_check(what: &str, model: &Lead, db: &PoiDatabase, day: &Trajectory) {
    let mut stream = StreamingDetector::new(model, db);
    let mut updates = 0;
    for (i, &p) in day.points().iter().enumerate() {
        let update = stream.push(p);
        let Some(got) = update.hypothesis else {
            assert!(
                update.completed_stays.is_empty() || stream.stay_points().len() < 2,
                "{what}: no hypothesis after point {i}"
            );
            continue;
        };
        updates += 1;
        // One worker and all cores, alternately: detection is
        // bit-identical for every thread count.
        let prefix = stream.snapshot().cleaned;
        let threads = [updates % 2];
        assert_batch_equal(
            &format!("{what}, point {i}"),
            model,
            db,
            &prefix,
            &got,
            &threads,
        );
    }
    assert!(updates > 0, "{what}: no hypothesis");
    let last = stream.finish().expect("a day with at least two stays");
    assert_batch_equal(&format!("{what}, finish"), model, db, day, &last, &[1, 0]);
}

#[test]
fn every_hypothesis_equals_batch_detection_of_its_prefix() {
    let db = poi_db();
    let days: Vec<Trajectory> = (0..BUCKETS.len())
        .map(|b| synthetic_day(BUCKETS[b].2, 7 + b as u64))
        .collect();
    for (v, variant) in VARIANTS.iter().enumerate() {
        let opts = variant();
        let lead = model(v, opts, &days, &db);
        for (day, &(lo, hi, _)) in days.iter().zip(&BUCKETS) {
            let what = format!("{} on a {lo}-{hi}-stay day", opts.name());
            stream_and_check(&what, &lead, &db, day);
        }
    }
}

/// Appends `count` fixes at `lng`, `step` seconds apart.
fn fixes(pts: &mut Vec<GpsPoint>, t: &mut i64, lng: f64, count: usize, step: i64) {
    for _ in 0..count {
        pts.push(GpsPoint::new(32.0, lng, *t));
        *t += step;
    }
}

/// The stay extractor emits at most one stay point per push (a break at the
/// new point re-anchors there), so two stay points reach the scoring state
/// in one append at the first rescore of every day, and in batch detection.
/// This covers the extractor's rescan-after-re-anchoring geometry and both
/// ends of `finish`.
#[test]
fn rescan_geometry_and_trailing_stays_match_batch_detection() {
    let db = poi_db();
    let per_km = meters_to_lng_deg(1_000.0, 32.0);
    // A working day, a drive, then dwell A → 700 m hop → dwell B → drive
    // (the rescan test of `IncrementalStayExtractor`), one more dwell and a
    // last drive fix.
    let mut pts = synthetic_day(4, 11).points().to_vec();
    let mut t = pts.last().map_or(0, |p| p.t) + 120;
    let mut lng = pts.last().map_or(120.9, |p| p.lng);
    for _ in 0..3 {
        lng += per_km;
        fixes(&mut pts, &mut t, lng, 1, 120);
    }
    fixes(&mut pts, &mut t, lng, 30, 90);
    fixes(&mut pts, &mut t, lng + 0.7 * per_km, 30, 90);
    for k in 1..=3 {
        fixes(
            &mut pts,
            &mut t,
            lng + (0.7 + 2.0 * k as f64) * per_km,
            1,
            120,
        );
    }
    let lng = lng + 6.7 * per_km;
    fixes(&mut pts, &mut t, lng, 12, 120);
    fixes(&mut pts, &mut t, lng + per_km, 1, 120);
    let no_trailing = Trajectory::new(pts.clone());
    // The same day ending in a dwell, which only `finish` closes.
    fixes(&mut pts, &mut t, lng + 2.0 * per_km, 12, 120);
    let trailing = Trajectory::new(pts);

    let stays = |day: &Trajectory| {
        ProcessedTrajectory::from_raw(day, &LeadConfig::experiment()).num_stay_points()
    };
    assert_eq!((stays(&no_trailing), stays(&trailing)), (7, 8), "stays");
    let days = [no_trailing.clone(), trailing.clone()];
    for (v, variant) in VARIANTS.iter().enumerate() {
        let opts = variant();
        let lead = model(v, opts, &days, &db);
        stream_and_check(
            &format!("{} (rescan)", opts.name()),
            &lead,
            &db,
            &no_trailing,
        );
        let mut stream = StreamingDetector::new(&lead, &db);
        for &p in trailing.points() {
            stream.push(p);
        }
        let open = stream.stay_points().len();
        let last = stream.finish().expect("a day with stays");
        assert_eq!(last.processed.num_stay_points(), open + 1, "trailing stay");
        let what = format!("{} (trailing stay)", opts.name());
        assert_batch_equal(&what, &lead, &db, &trailing, &last, &[1, 0]);
    }
}

#[test]
fn a_finished_day_encodes_each_candidate_once() {
    let db = poi_db();
    let day = synthetic_day(BUCKETS[3].2, 10);
    for (v, variant) in VARIANTS.iter().enumerate() {
        let opts = variant();
        let lead = model(v, opts, std::slice::from_ref(&day), &db);
        let rec = Recorder::new();
        let mut probed = StreamingDetector::with_probe(&lead, &db, &rec);
        let mut plain = StreamingDetector::new(&lead, &db);
        // Stay points at each rescore: every rescore runs the forward side
        // in full, while each backward subgroup runs once, when its end
        // stay point completes.
        let mut rescored_at = Vec::new();
        for &p in day.points() {
            let (a, b) = (probed.push(p), plain.push(p));
            assert_eq!(a.hypothesis.is_some(), b.hypothesis.is_some());
            if let (Some(a), Some(b)) = (&a.hypothesis, &b.hypothesis) {
                assert_eq!(bits(&a.probabilities), bits(&b.probabilities));
                rescored_at.push(a.processed.num_stay_points() as u64);
            }
        }
        let (a, b) = (probed.finish(), plain.finish());
        let (a, b) = (a.expect("detectable"), b.expect("detectable"));
        assert_eq!(bits(&a.probabilities), bits(&b.probabilities));
        let n = a.processed.num_stay_points() as u64;
        rescored_at.push(n);
        let name = opts.name();
        assert_eq!(
            rec.counter("stream.candidates_encoded"),
            Some(n * (n - 1) / 2),
            "{name}: each candidate encoded once"
        );
        assert_eq!(
            rec.counter("stream.rescores"),
            Some(rescored_at.len() as u64),
            "{name}"
        );
        let forward: u64 = rescored_at.iter().map(|k| k - 1).sum();
        let subgroups = match opts.detector {
            DetectorChoice::Both => forward + (n - 1),
            DetectorChoice::ForwardOnly => forward,
            DetectorChoice::BackwardOnly => n - 1,
            DetectorChoice::Mlp => 0,
        };
        assert_eq!(
            rec.counter("stream.subgroups_scored").unwrap_or(0),
            subgroups,
            "{name}: subgroups scored"
        );
    }
}
