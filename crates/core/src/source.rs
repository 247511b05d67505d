//! Streaming training-sample sources.
//!
//! [`SampleSource`] is the ingestion side of the constant-memory training
//! loop ([`crate::pipeline::Lead::fit_streaming`]): a shardable, rewindable
//! stream of [`TrainSample`]s. Two sources implement it here:
//! [`SliceSamples`] over an in-RAM slice, and [`BinarySampleShards`] over
//! `lead-data` labelled-sample container files, one shard per file
//! (`lead_synth::write_sample_shards` writes them).

use crate::label::TruthLabel;
use crate::pipeline::TrainSample;
use lead_data::records::{LabeledSampleReader, LabeledSampleRecord};
use lead_data::DataError;
use std::fmt;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};

/// Errors surfaced by sample sources.
#[derive(Debug)]
#[non_exhaustive]
pub enum SourceError {
    /// A binary container failed to read or validate.
    Data(DataError),
    /// An underlying I/O failure outside the container layer.
    Io(std::io::Error),
    /// A source was asked for a shard index it does not have.
    NoSuchShard {
        /// The requested shard index.
        shard: usize,
        /// How many shards the source has.
        shards: usize,
    },
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Data(e) => write!(f, "data format error: {e}"),
            SourceError::Io(e) => write!(f, "i/o error: {e}"),
            SourceError::NoSuchShard { shard, shards } => {
                write!(f, "no such shard {shard} (source has {shards})")
            }
        }
    }
}

impl std::error::Error for SourceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SourceError::Data(e) => Some(e),
            SourceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DataError> for SourceError {
    fn from(e: DataError) -> Self {
        SourceError::Data(e)
    }
}

impl From<std::io::Error> for SourceError {
    fn from(e: std::io::Error) -> Self {
        SourceError::Io(e)
    }
}

/// A shardable, rewindable stream of labelled training samples.
///
/// Contract: shards partition the dataset; `read_shard(i)` delivers shard
/// `i`'s samples in a fixed order every time it is invoked; concatenating
/// shards `0..num_shards()` yields the whole dataset in its canonical order.
/// Training consumes one shard's samples at a time, so peak raw-sample
/// memory is bounded by the largest shard.
pub trait SampleSource {
    /// Total sample count across all shards, when cheaply known.
    fn len_hint(&self) -> Option<u64>;

    /// Number of shards (at least 1, even for empty sources).
    fn num_shards(&self) -> usize;

    /// Streams shard `shard`'s samples into `sink`, in canonical order.
    ///
    /// # Errors
    ///
    /// [`SourceError::NoSuchShard`] for an out-of-range index; I/O or
    /// format errors from the backing store.
    fn read_shard(
        &mut self,
        shard: usize,
        sink: &mut dyn FnMut(TrainSample),
    ) -> Result<(), SourceError>;
}

/// How many shards a `len`-item in-RAM source with the given shard size has.
fn slice_shards(len: usize, shard_size: usize) -> usize {
    len.div_ceil(shard_size).max(1)
}

/// The in-RAM path: a borrowed slice exposed through the source API,
/// optionally split into fixed-size shards.
#[derive(Debug)]
pub struct SliceSamples<'a> {
    samples: &'a [TrainSample],
    shard_size: usize,
}

impl<'a> SliceSamples<'a> {
    /// Wraps `samples` as a single-shard source.
    pub fn new(samples: &'a [TrainSample]) -> Self {
        Self {
            samples,
            shard_size: samples.len().max(1),
        }
    }

    /// Wraps `samples` split into shards of at most `shard_size` samples
    /// (clamped to at least 1).
    pub fn with_shard_size(samples: &'a [TrainSample], shard_size: usize) -> Self {
        Self {
            samples,
            shard_size: shard_size.max(1),
        }
    }
}

impl SampleSource for SliceSamples<'_> {
    fn len_hint(&self) -> Option<u64> {
        Some(self.samples.len() as u64)
    }

    fn num_shards(&self) -> usize {
        slice_shards(self.samples.len(), self.shard_size)
    }

    fn read_shard(
        &mut self,
        shard: usize,
        sink: &mut dyn FnMut(TrainSample),
    ) -> Result<(), SourceError> {
        let shards = self.num_shards();
        if shard >= shards {
            return Err(SourceError::NoSuchShard { shard, shards });
        }
        let start = shard * self.shard_size;
        let end = (start + self.shard_size).min(self.samples.len());
        for s in self.samples.iter().skip(start).take(end - start) {
            sink(s.clone());
        }
        Ok(())
    }
}

/// Converts a decoded labelled record into the core training-sample form
/// (`day`/`planned_stays` metadata is not needed for training).
fn record_to_sample(rec: LabeledSampleRecord) -> TrainSample {
    let [load_start_s, load_end_s, unload_start_s, unload_end_s] = rec.truth_s;
    TrainSample {
        raw: rec.trajectory,
        truth: TruthLabel {
            load_start_s,
            load_end_s,
            unload_start_s,
            unload_end_s,
        },
    }
}

/// A set of binary labelled-sample container files, one shard per file.
///
/// Construction opens every file once to validate its header and sum the
/// declared counts, so `len_hint` is exact; each `read_shard` re-opens and
/// re-decodes its file, keeping only one shard's samples in RAM at a time.
#[derive(Debug)]
pub struct BinarySampleShards {
    paths: Vec<PathBuf>,
    total: u64,
}

impl BinarySampleShards {
    /// Opens a shard set, validating each file's header.
    ///
    /// # Errors
    ///
    /// Any header-validation or I/O error from the shard files.
    pub fn open<P: AsRef<Path>>(paths: &[P]) -> Result<Self, SourceError> {
        let mut total = 0u64;
        let mut owned = Vec::with_capacity(paths.len());
        for p in paths {
            let file = File::open(p.as_ref()).map_err(SourceError::Io)?;
            let reader = LabeledSampleReader::new(BufReader::new(file))?;
            total += reader.count();
            owned.push(p.as_ref().to_path_buf());
        }
        Ok(Self {
            paths: owned,
            total,
        })
    }
}

impl SampleSource for BinarySampleShards {
    fn len_hint(&self) -> Option<u64> {
        Some(self.total)
    }

    fn num_shards(&self) -> usize {
        self.paths.len().max(1)
    }

    fn read_shard(
        &mut self,
        shard: usize,
        sink: &mut dyn FnMut(TrainSample),
    ) -> Result<(), SourceError> {
        let shards = self.num_shards();
        let Some(path) = self.paths.get(shard) else {
            return Err(SourceError::NoSuchShard { shard, shards });
        };
        let file = File::open(path).map_err(SourceError::Io)?;
        let mut reader = LabeledSampleReader::new(BufReader::new(file))?;
        while let Some(rec) = reader.next_record()? {
            sink(record_to_sample(rec));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lead_data::records::LabeledSampleWriter;
    use lead_geo::{GpsPoint, Trajectory};
    use std::io::BufWriter;

    fn sample(i: i64) -> TrainSample {
        TrainSample {
            raw: Trajectory::new(vec![
                GpsPoint::new(31.0, 121.0, i * 10_000),
                GpsPoint::new(31.1, 121.1, i * 10_000 + 600),
            ]),
            truth: TruthLabel {
                load_start_s: i * 10_000,
                load_end_s: i * 10_000 + 100,
                unload_start_s: i * 10_000 + 300,
                unload_end_s: i * 10_000 + 500,
            },
        }
    }

    /// Writes `samples` as one labelled-sample container at `path`.
    fn write_shard(path: &Path, samples: &[TrainSample]) {
        let file = File::create(path).unwrap();
        let mut writer = LabeledSampleWriter::new(BufWriter::new(file)).unwrap();
        for s in samples {
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
                .unwrap();
        }
        writer.finish().unwrap();
    }

    fn drain(src: &mut dyn SampleSource) -> Vec<TrainSample> {
        let mut out = Vec::new();
        for s in 0..src.num_shards() {
            src.read_shard(s, &mut |item| out.push(item)).unwrap();
        }
        out
    }

    fn same(a: &[TrainSample], b: &[TrainSample]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.raw == y.raw && x.truth == y.truth)
    }

    #[test]
    fn slice_source_partitions_in_order_at_any_shard_size() {
        let data: Vec<TrainSample> = (0..7).map(sample).collect();
        for shard_size in 1..=8 {
            let mut src = SliceSamples::with_shard_size(&data, shard_size);
            assert!(same(&drain(&mut src), &data), "shard_size {shard_size}");
        }
    }

    #[test]
    fn binary_shards_round_trip_samples() {
        let data: Vec<TrainSample> = (0..5).map(sample).collect();
        let dir = std::env::temp_dir().join("lead-core-source-test");
        std::fs::create_dir_all(&dir).unwrap();
        let paths: Vec<PathBuf> = data
            .chunks(2)
            .enumerate()
            .map(|(i, chunk)| {
                let path = dir.join(format!("t-{i:05}.leadbin"));
                write_shard(&path, chunk);
                path
            })
            .collect();
        let mut src = BinarySampleShards::open(&paths).unwrap();
        assert_eq!(src.len_hint(), Some(5));
        assert_eq!(src.num_shards(), 3);
        assert!(same(&drain(&mut src), &data));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_set_surfaces_corruption_from_the_damaged_shard() {
        let data: Vec<TrainSample> = (0..2).map(sample).collect();
        let dir = std::env::temp_dir().join("lead-core-source-corruption-test");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.leadbin");
        let bad = dir.join("bad.leadbin");
        write_shard(&good, &data);
        write_shard(&bad, &data);
        let mut damaged = std::fs::read(&bad).unwrap();
        // Past the 20-byte header and record 0's 12-byte frame: a payload byte.
        damaged[40] ^= 0xFF;
        std::fs::write(&bad, damaged).unwrap();

        let mut shards = BinarySampleShards::open(&[&good, &bad]).unwrap();
        assert_eq!(shards.len_hint(), Some(4));
        let mut count = 0usize;
        shards.read_shard(0, &mut |_| count += 1).unwrap();
        assert_eq!(count, 2);
        match shards.read_shard(1, &mut |_| {}) {
            Err(SourceError::Data(DataError::ChecksumMismatch { .. })) => {}
            other => panic!("wanted ChecksumMismatch from the damaged shard, got {other:?}"),
        }
        match shards.read_shard(2, &mut |_| {}) {
            Err(SourceError::NoSuchShard {
                shard: 2,
                shards: 2,
            }) => {}
            other => panic!("wanted NoSuchShard, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
