//! Binary shard export of synthetic datasets.
//!
//! Bridges [`crate::dataset::Sample`] to the `lead-data` labelled-sample
//! container, keeping the generator-side metadata (`truck_id`, `day`,
//! `planned_stays`). [`lead_core::source::BinarySampleShards`] reads the
//! shards written here for constant-memory training.

use crate::dataset::Sample;
use lead_data::records::{LabeledSampleRecord, LabeledSampleWriter};
use lead_data::DataError;
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

/// Converts one synthetic sample to its on-disk record form.
fn sample_to_record(s: &Sample) -> LabeledSampleRecord {
    LabeledSampleRecord {
        truck_id: s.truck_id,
        day: s.day,
        planned_stays: s.planned_stays as u32,
        truth_s: [
            s.truth.load_start_s,
            s.truth.load_end_s,
            s.truth.unload_start_s,
            s.truth.unload_end_s,
        ],
        trajectory: s.raw.clone(),
    }
}

/// Writes `samples` as binary shard files `STEM-00000.leadbin`,
/// `STEM-00001.leadbin`, … under `dir` (created if missing), at most
/// `shard_size` samples per file (clamped to at least 1), returning the
/// shard paths in order. An empty dataset still yields one empty shard so
/// readers have a valid container to open.
///
/// # Errors
///
/// [`DataError::Io`] on directory or file I/O failure; any container-write
/// error from the record layer.
pub fn write_sample_shards(
    samples: &[Sample],
    dir: &Path,
    stem: &str,
    shard_size: usize,
) -> Result<Vec<PathBuf>, DataError> {
    std::fs::create_dir_all(dir)?;
    let shard_size = shard_size.max(1);
    let write_shard = |index: usize, chunk: &[Sample]| -> Result<PathBuf, DataError> {
        let path = dir.join(format!("{stem}-{index:05}.leadbin"));
        let file = File::create(&path)?;
        let mut writer = LabeledSampleWriter::new(BufWriter::new(file))?;
        for s in chunk {
            writer.write(&sample_to_record(s))?;
        }
        writer.finish()?;
        Ok(path)
    };
    let mut paths = Vec::new();
    for (i, chunk) in samples.chunks(shard_size).enumerate() {
        paths.push(write_shard(i, chunk)?);
    }
    if paths.is_empty() {
        paths.push(write_shard(0, &[])?);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynthConfig;
    use crate::dataset::generate_dataset;
    use lead_data::records::LabeledSampleReader;
    use std::io::BufReader;

    /// Decodes every record of `paths`, in shard order.
    fn read_records(paths: &[PathBuf]) -> Vec<LabeledSampleRecord> {
        let mut out = Vec::new();
        for p in paths {
            let file = File::open(p).unwrap();
            let mut reader = LabeledSampleReader::new(BufReader::new(file)).unwrap();
            while let Some(rec) = reader.next_record().unwrap() {
                out.push(rec);
            }
        }
        out
    }

    #[test]
    fn shards_round_trip_samples_bitwise() {
        let cfg = SynthConfig {
            num_trucks: 10,
            ..SynthConfig::default()
        };
        let ds = generate_dataset(&cfg);
        assert!(!ds.train.is_empty());
        let dir = std::env::temp_dir().join("lead-synth-binio-test");
        let paths = write_sample_shards(&ds.train, &dir, "train", 2).unwrap();
        assert_eq!(paths.len(), ds.train.len().div_ceil(2));
        let back = read_records(&paths);
        assert_eq!(back.len(), ds.train.len());
        for (a, b) in ds.train.iter().zip(&back) {
            assert_eq!(a.truck_id, b.truck_id);
            assert_eq!(a.day, b.day);
            assert_eq!(a.planned_stays, b.planned_stays as usize);
            let t = &a.truth;
            assert_eq!(
                [
                    t.load_start_s,
                    t.load_end_s,
                    t.unload_start_s,
                    t.unload_end_s
                ],
                b.truth_s
            );
            assert_eq!(a.raw.points().len(), b.trajectory.points().len());
            for (p, q) in a.raw.points().iter().zip(b.trajectory.points()) {
                assert_eq!(p.lat.to_bits(), q.lat.to_bits());
                assert_eq!(p.lng.to_bits(), q.lng.to_bits());
                assert_eq!(p.t, q.t);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dataset_writes_one_empty_shard() {
        let dir = std::env::temp_dir().join("lead-synth-binio-empty-test");
        let paths = write_sample_shards(&[], &dir, "empty", 4).unwrap();
        assert_eq!(paths.len(), 1);
        assert!(read_records(&paths).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
