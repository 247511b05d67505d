//! Streaming/in-RAM fit equivalence.
//!
//! [`Lead::fit_streaming`] generalises only *ingestion*: per-shard
//! `par_map` concatenation equals one whole-dataset `par_map`, so for the
//! same seed every downstream stage — normaliser, autoencoder sampling,
//! detector training, every RNG draw — must be **bit-identical** to
//! [`Lead::fit`] on the whole in-RAM slices, at any shard size, from any source (in-RAM
//! slices or binary shard files). These tests pin that contract on
//! serialized model bytes, training curves, and detections, and pin the
//! constant-memory claim itself on a high-water-mark counting source.

#![expect(
    clippy::expect_used,
    reason = "a test helper fails its test by panicking"
)]

use lead_core::config::LeadConfig;
use lead_core::pipeline::{DetectionResult, FitOptions, Lead, LeadOptions, TrainSample};
use lead_core::poi::{Poi, PoiCategory, PoiDatabase};
use lead_core::source::{BinarySampleShards, SampleSource, SliceSamples, SourceError};
use lead_core::LeadError;
use lead_data::records::{LabeledSampleRecord, LabeledSampleWriter};
use lead_geo::distance::meters_to_lng_deg;
use lead_geo::{GpsPoint, Trajectory};
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

/// One synthetic working day (same generator as `parallel_parity.rs`).
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
        labelled_sample(4, 7, 1, 2),
    ];
    let val = vec![labelled_sample(4, 5, 1, 2), labelled_sample(3, 6, 0, 1)];
    (train, val)
}

fn config() -> LeadConfig {
    let mut config = LeadConfig::fast_test();
    config.num_threads = 2;
    config
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

/// Serialized model bytes + curves + held-out detection: the complete
/// observable footprint of a fit.
fn footprint(model: &Lead, report: &lead_core::pipeline::TrainingReport) -> (Vec<u8>, Vec<u32>) {
    let mut bytes = Vec::new();
    model
        .write_to(&mut bytes)
        .expect("serializing to memory cannot fail");
    let mut curves = Vec::new();
    curves.extend(bits(&report.ae_curve));
    curves.extend(bits(&report.ae_val_curve));
    curves.extend(bits(&report.forward_kld_curve));
    curves.extend(bits(&report.forward_val_kld_curve));
    curves.extend(bits(&report.backward_kld_curve));
    curves.extend(bits(&report.backward_val_kld_curve));
    (bytes, curves)
}

#[test]
fn streaming_fit_is_bit_identical_to_in_ram_fit_at_any_shard_size() {
    let db = poi_db();
    let (train, val) = train_val_sets();
    let cfg = config();
    let (held_out, _) = synthetic_day(4, 9);

    let (ref_model, ref_report) =
        Lead::fit(&train, &val, &db, &cfg, LeadOptions::full()).expect("in-RAM fit");
    let ref_fp = footprint(&ref_model, &ref_report);
    let ref_det = detection_fingerprint(&ref_model.detect(&held_out, &db));
    assert!(ref_det.is_some(), "held-out day must be detectable");

    for shard_size in [1, 2, 3, train.len()] {
        let mut src = SliceSamples::with_shard_size(&train, shard_size);
        let mut val_src = SliceSamples::new(&val);
        let (model, report) = Lead::fit_streaming(
            &mut src,
            Some(&mut val_src),
            &db,
            &cfg,
            LeadOptions::full(),
            &FitOptions::new(),
        )
        .expect("streaming fit");
        let fp = footprint(&model, &report);
        assert_eq!(
            fp, ref_fp,
            "shard_size={shard_size}: streaming fit diverged from in-RAM fit"
        );
        assert_eq!(report.used_samples, ref_report.used_samples);
        assert_eq!(report.skipped_samples, ref_report.skipped_samples);
        let det = detection_fingerprint(&model.detect(&held_out, &db));
        assert_eq!(det, ref_det, "shard_size={shard_size}");
    }
}

/// Writes `samples` as labelled-sample shard files `STEM-NNNNN.leadbin`
/// under `dir`, at most `shard_size` samples each, returning their paths.
fn write_shards(
    samples: &[TrainSample],
    dir: &Path,
    stem: &str,
    shard_size: usize,
) -> Vec<PathBuf> {
    std::fs::create_dir_all(dir).expect("create shard dir");
    let mut paths = Vec::new();
    for (i, chunk) in samples.chunks(shard_size).enumerate() {
        let path = dir.join(format!("{stem}-{i:05}.leadbin"));
        let file = File::create(&path).expect("create shard");
        let mut writer = LabeledSampleWriter::new(BufWriter::new(file)).expect("shard header");
        for s in chunk {
            let t = &s.truth;
            writer
                .write(&LabeledSampleRecord {
                    truck_id: 0,
                    day: 0,
                    planned_stays: 0,
                    truth_s: [
                        t.load_start_s,
                        t.load_end_s,
                        t.unload_start_s,
                        t.unload_end_s,
                    ],
                    trajectory: s.raw.clone(),
                })
                .expect("write sample");
        }
        writer.finish().expect("finish shard");
        paths.push(path);
    }
    paths
}

#[test]
fn binary_shard_fit_is_bit_identical_to_in_ram_fit() {
    let db = poi_db();
    let (train, val) = train_val_sets();
    let cfg = config();

    let (ref_model, ref_report) =
        Lead::fit(&train, &val, &db, &cfg, LeadOptions::full()).expect("in-RAM fit");
    let ref_fp = footprint(&ref_model, &ref_report);

    let dir = std::env::temp_dir().join("lead-core-streaming-parity");
    for shard_size in [1, 2, train.len()] {
        let train_paths = write_shards(&train, &dir, &format!("train-{shard_size}"), shard_size);
        let val_paths = write_shards(&val, &dir, &format!("val-{shard_size}"), val.len());
        let mut src = BinarySampleShards::open(&train_paths).expect("open train shards");
        assert_eq!(src.len_hint(), Some(train.len() as u64));
        assert_eq!(src.num_shards(), train.len().div_ceil(shard_size));
        let mut val_src = BinarySampleShards::open(&val_paths).expect("open val shards");
        let (model, report) = Lead::fit_streaming(
            &mut src,
            Some(&mut val_src),
            &db,
            &cfg,
            LeadOptions::full(),
            &FitOptions::new(),
        )
        .expect("streaming fit over binary shards");
        let fp = footprint(&model, &report);
        assert_eq!(
            fp, ref_fp,
            "shard_size={shard_size}: binary-shard fit diverged from in-RAM fit"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn source_errors_surface_through_fit_streaming() {
    let db = poi_db();
    let cfg = config();

    /// A source whose second shard always fails.
    struct FailingSource {
        good: Vec<TrainSample>,
    }
    impl SampleSource for FailingSource {
        fn len_hint(&self) -> Option<u64> {
            None
        }
        fn num_shards(&self) -> usize {
            2
        }
        fn read_shard(
            &mut self,
            shard: usize,
            sink: &mut dyn FnMut(TrainSample),
        ) -> Result<(), SourceError> {
            if shard == 0 {
                for s in &self.good {
                    sink(s.clone());
                }
                Ok(())
            } else {
                Err(SourceError::Io(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "shard store went away",
                )))
            }
        }
    }

    let mut src = FailingSource {
        good: vec![labelled_sample(4, 1, 0, 2)],
    };
    match Lead::fit_streaming(
        &mut src,
        None,
        &db,
        &cfg,
        LeadOptions::full(),
        &FitOptions::new(),
    ) {
        Err(LeadError::Source(SourceError::Io(_))) => {}
        Err(other) => panic!("wanted Source(Io) error, got {other:?}"),
        Ok(_) => panic!("fit over a failing source unexpectedly succeeded"),
    }
}

/// A source that tracks the high-water mark of samples handed out per
/// shard read, pinning the constant-memory claim: training must never ask
/// for more than one shard's samples at a time.
struct CountingSource<'a> {
    inner: SliceSamples<'a>,
    max_batch: usize,
}

impl SampleSource for CountingSource<'_> {
    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
    fn num_shards(&self) -> usize {
        self.inner.num_shards()
    }
    fn read_shard(
        &mut self,
        shard: usize,
        sink: &mut dyn FnMut(TrainSample),
    ) -> Result<(), SourceError> {
        let mut in_this_shard = 0usize;
        let result = self.inner.read_shard(shard, &mut |s| {
            in_this_shard += 1;
            sink(s);
        });
        self.max_batch = self.max_batch.max(in_this_shard);
        result
    }
}

#[test]
fn streaming_ingestion_is_bounded_by_the_shard_size() {
    let db = poi_db();
    let (train, val) = train_val_sets();
    let cfg = config();

    let shard_size = 2;
    let mut src = CountingSource {
        inner: SliceSamples::with_shard_size(&train, shard_size),
        max_batch: 0,
    };
    let mut val_src = SliceSamples::new(&val);
    Lead::fit_streaming(
        &mut src,
        Some(&mut val_src),
        &db,
        &cfg,
        LeadOptions::full(),
        &FitOptions::new(),
    )
    .expect("streaming fit");
    assert!(src.max_batch > 0, "the source was never read");
    assert!(
        src.max_batch <= shard_size,
        "ingestion pulled {} samples at once (shard size {shard_size})",
        src.max_batch
    );
}
