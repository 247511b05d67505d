//! Payload codecs and typed reader/writer pairs for each record kind.
//!
//! Every payload is self-contained: decoding validates structure (declared
//! counts vs. bytes present, chronology, coordinate ranges, truth ordering)
//! and rejects trailing bytes, so a checksum-valid but logically corrupt
//! record still surfaces a typed [`DataError::Malformed`].

use crate::codec::{
    dequantize, quantize_exact, read_f64, read_u32, read_varint, read_varint_i64, write_f64,
    write_u32, write_varint, write_varint_i64,
};
use crate::container::{ContainerReader, ContainerWriter};
use crate::error::{DataError, MalformedKind, RecordKind};
use lead_geo::{GpsPoint, Trajectory};
use std::io::{Read, Seek, Write};

/// Point-sequence encoding mode: raw IEEE-754 coordinate bits.
const MODE_RAW: u8 = 0;
/// Point-sequence encoding mode: delta-coded fixed-point 1e-7° grid.
const MODE_FIXED: u8 = 1;

/// Wraps a [`MalformedKind`] with the record index it was found in.
fn malformed(record: u64, kind: MalformedKind) -> DataError {
    DataError::Malformed { record, kind }
}

// ---------------------------------------------------------------------------
// Point sequences (shared by trajectory and labelled-sample payloads)
// ---------------------------------------------------------------------------

/// Appends a point sequence: `n varint | mode u8 | points`.
///
/// Timestamps are always delta-coded zigzag varints (first point absolute).
/// Coordinates use the fixed-point grid when *every* coordinate in the
/// sequence survives a bitwise round-trip through it, raw `f64` bits
/// otherwise — so decoding always reproduces the exact input bit patterns.
fn encode_points(points: &[GpsPoint], out: &mut Vec<u8>) {
    write_varint(out, points.len() as u64);
    let quantized: Option<Vec<(i64, i64)>> = points
        .iter()
        .map(|p| Some((quantize_exact(p.lat)?, quantize_exact(p.lng)?)))
        .collect();
    match quantized {
        Some(grid) => {
            out.push(MODE_FIXED);
            let mut prev_t = 0i64;
            let mut prev_lat = 0i64;
            let mut prev_lng = 0i64;
            for (p, (qlat, qlng)) in points.iter().zip(&grid) {
                write_varint_i64(out, p.t - prev_t);
                write_varint_i64(out, qlat - prev_lat);
                write_varint_i64(out, qlng - prev_lng);
                prev_t = p.t;
                prev_lat = *qlat;
                prev_lng = *qlng;
            }
        }
        None => {
            out.push(MODE_RAW);
            let mut prev_t = 0i64;
            for p in points {
                write_varint_i64(out, p.t - prev_t);
                write_f64(out, p.lat);
                write_f64(out, p.lng);
                prev_t = p.t;
            }
        }
    }
}

/// Decodes a point sequence, validating chronology and coordinate ranges.
fn decode_points(input: &mut &[u8], record: u64) -> Result<Vec<GpsPoint>, DataError> {
    let n = read_varint(input).map_err(|k| malformed(record, k))?;
    // Each point is at least 3 bytes (three 1-byte varints), so a count
    // larger than the remaining payload is corrupt, not just big.
    if n > input.len() as u64 {
        return Err(malformed(record, MalformedKind::LengthOverflow));
    }
    let mode = input
        .split_first()
        .map(|(&m, rest)| {
            *input = rest;
            m
        })
        .ok_or_else(|| malformed(record, MalformedKind::TruncatedPayload))?;
    let mut points = Vec::with_capacity(n as usize);
    let mut prev_t = 0i64;
    let mut prev_lat = 0i64;
    let mut prev_lng = 0i64;
    for i in 0..n {
        let dt = read_varint_i64(input).map_err(|k| malformed(record, k))?;
        let t = prev_t
            .checked_add(dt)
            .ok_or_else(|| malformed(record, MalformedKind::VarintOverflow))?;
        if i > 0 && t <= prev_t {
            return Err(malformed(record, MalformedKind::NonChronological));
        }
        let (lat, lng) = match mode {
            MODE_FIXED => {
                let dlat = read_varint_i64(input).map_err(|k| malformed(record, k))?;
                let dlng = read_varint_i64(input).map_err(|k| malformed(record, k))?;
                let qlat = prev_lat
                    .checked_add(dlat)
                    .ok_or_else(|| malformed(record, MalformedKind::VarintOverflow))?;
                let qlng = prev_lng
                    .checked_add(dlng)
                    .ok_or_else(|| malformed(record, MalformedKind::VarintOverflow))?;
                prev_lat = qlat;
                prev_lng = qlng;
                (dequantize(qlat), dequantize(qlng))
            }
            MODE_RAW => {
                let lat = read_f64(input).map_err(|k| malformed(record, k))?;
                let lng = read_f64(input).map_err(|k| malformed(record, k))?;
                (lat, lng)
            }
            other => return Err(malformed(record, MalformedKind::BadMode(other))),
        };
        if !(-90.0..=90.0).contains(&lat) || !(-180.0..=180.0).contains(&lng) {
            return Err(malformed(record, MalformedKind::CoordinateRange));
        }
        prev_t = t;
        points.push(GpsPoint::new(lat, lng, t));
    }
    Ok(points)
}

// ---------------------------------------------------------------------------
// Trajectory records
// ---------------------------------------------------------------------------

/// Encodes one `(truck_id, trajectory)` record payload.
pub fn encode_trajectory(truck_id: u32, trajectory: &Trajectory) -> Vec<u8> {
    let mut out = Vec::new();
    write_u32(&mut out, truck_id);
    encode_points(trajectory.points(), &mut out);
    out
}

/// Decodes a trajectory record payload.
///
/// # Errors
///
/// [`DataError::Malformed`] when the payload is structurally invalid.
pub fn decode_trajectory(mut payload: &[u8], record: u64) -> Result<(u32, Trajectory), DataError> {
    let truck_id = read_u32(&mut payload).map_err(|k| malformed(record, k))?;
    let points = decode_points(&mut payload, record)?;
    if !payload.is_empty() {
        return Err(malformed(record, MalformedKind::TrailingPayload));
    }
    // Chronology was validated during decoding, so the debug assertion in
    // `Trajectory::new` cannot fire.
    Ok((truck_id, Trajectory::new(points)))
}

/// Writes trajectory containers.
#[derive(Debug)]
pub struct TrajectoryWriter<W: Write + Seek> {
    inner: ContainerWriter<W>,
}

impl<W: Write + Seek> TrajectoryWriter<W> {
    /// Starts a trajectory container.
    ///
    /// # Errors
    ///
    /// [`DataError::Io`] when the header cannot be written.
    pub fn new(w: W) -> Result<Self, DataError> {
        Ok(Self {
            inner: ContainerWriter::new(w, RecordKind::Trajectories)?,
        })
    }

    /// Appends one trajectory record.
    ///
    /// # Errors
    ///
    /// As [`ContainerWriter::write_record`].
    pub fn write(&mut self, truck_id: u32, trajectory: &Trajectory) -> Result<(), DataError> {
        self.inner
            .write_record(&encode_trajectory(truck_id, trajectory))
    }

    /// Records written so far.
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// Finishes the container and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// As [`ContainerWriter::finish`].
    pub fn finish(self) -> Result<W, DataError> {
        self.inner.finish()
    }
}

/// Reads trajectory containers.
#[derive(Debug)]
pub struct TrajectoryReader<R: Read> {
    inner: ContainerReader<R>,
    next: u64,
}

impl<R: Read> TrajectoryReader<R> {
    /// Opens a trajectory container, validating the header.
    ///
    /// # Errors
    ///
    /// As [`ContainerReader::new`].
    pub fn new(r: R) -> Result<Self, DataError> {
        Ok(Self {
            inner: ContainerReader::new(r, RecordKind::Trajectories)?,
            next: 0,
        })
    }

    /// The record count declared in the header.
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// Reads the next record, or `None` after the verified end marker.
    ///
    /// # Errors
    ///
    /// As [`ContainerReader::next_record`], plus [`DataError::Malformed`]
    /// for structurally invalid payloads.
    pub fn next_record(&mut self) -> Result<Option<(u32, Trajectory)>, DataError> {
        let record = self.next;
        match self.inner.next_record()? {
            None => Ok(None),
            Some(payload) => {
                let decoded = decode_trajectory(payload, record)?;
                self.next += 1;
                Ok(Some(decoded))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Labelled-sample records
// ---------------------------------------------------------------------------

/// One decoded labelled training sample.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledSampleRecord {
    /// The truck this sample belongs to.
    pub truck_id: u32,
    /// Day index within the generated dataset (0 for sources without one).
    pub day: u32,
    /// Number of planned (decoy) stays, when the producer knows it.
    pub planned_stays: u32,
    /// Ground-truth boundaries: load start/end, unload start/end (seconds,
    /// strictly increasing).
    pub truth_s: [i64; 4],
    /// The raw GPS trajectory.
    pub trajectory: Trajectory,
}

/// Encodes one labelled-sample record payload.
pub fn encode_labeled_sample(sample: &LabeledSampleRecord) -> Vec<u8> {
    let mut out = Vec::new();
    write_u32(&mut out, sample.truck_id);
    write_u32(&mut out, sample.day);
    write_varint(&mut out, u64::from(sample.planned_stays));
    let mut prev = 0i64;
    for &b in &sample.truth_s {
        write_varint_i64(&mut out, b - prev);
        prev = b;
    }
    encode_points(sample.trajectory.points(), &mut out);
    out
}

/// Decodes a labelled-sample record payload, validating truth ordering.
///
/// # Errors
///
/// [`DataError::Malformed`] when the payload is structurally invalid,
/// including [`MalformedKind::TruthOrder`] when the four ground-truth
/// boundaries are not strictly increasing.
pub fn decode_labeled_sample(
    mut payload: &[u8],
    record: u64,
) -> Result<LabeledSampleRecord, DataError> {
    let truck_id = read_u32(&mut payload).map_err(|k| malformed(record, k))?;
    let day = read_u32(&mut payload).map_err(|k| malformed(record, k))?;
    let planned = read_varint(&mut payload).map_err(|k| malformed(record, k))?;
    let planned_stays =
        u32::try_from(planned).map_err(|_| malformed(record, MalformedKind::LengthOverflow))?;
    let mut truth_s = [0i64; 4];
    let mut prev = 0i64;
    for (i, slot) in truth_s.iter_mut().enumerate() {
        let delta = read_varint_i64(&mut payload).map_err(|k| malformed(record, k))?;
        let b = prev
            .checked_add(delta)
            .ok_or_else(|| malformed(record, MalformedKind::VarintOverflow))?;
        if i > 0 && b <= prev {
            return Err(malformed(record, MalformedKind::TruthOrder));
        }
        *slot = b;
        prev = b;
    }
    let points = decode_points(&mut payload, record)?;
    if !payload.is_empty() {
        return Err(malformed(record, MalformedKind::TrailingPayload));
    }
    Ok(LabeledSampleRecord {
        truck_id,
        day,
        planned_stays,
        truth_s,
        trajectory: Trajectory::new(points),
    })
}

/// Writes labelled-sample containers.
#[derive(Debug)]
pub struct LabeledSampleWriter<W: Write + Seek> {
    inner: ContainerWriter<W>,
}

impl<W: Write + Seek> LabeledSampleWriter<W> {
    /// Starts a labelled-sample container.
    ///
    /// # Errors
    ///
    /// [`DataError::Io`] when the header cannot be written.
    pub fn new(w: W) -> Result<Self, DataError> {
        Ok(Self {
            inner: ContainerWriter::new(w, RecordKind::LabeledSamples)?,
        })
    }

    /// Appends one labelled sample.
    ///
    /// # Errors
    ///
    /// As [`ContainerWriter::write_record`].
    pub fn write(&mut self, sample: &LabeledSampleRecord) -> Result<(), DataError> {
        self.inner.write_record(&encode_labeled_sample(sample))
    }

    /// Records written so far.
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// Finishes the container and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// As [`ContainerWriter::finish`].
    pub fn finish(self) -> Result<W, DataError> {
        self.inner.finish()
    }
}

/// Reads labelled-sample containers.
#[derive(Debug)]
pub struct LabeledSampleReader<R: Read> {
    inner: ContainerReader<R>,
    next: u64,
}

impl<R: Read> LabeledSampleReader<R> {
    /// Opens a labelled-sample container, validating the header.
    ///
    /// # Errors
    ///
    /// As [`ContainerReader::new`].
    pub fn new(r: R) -> Result<Self, DataError> {
        Ok(Self {
            inner: ContainerReader::new(r, RecordKind::LabeledSamples)?,
            next: 0,
        })
    }

    /// The record count declared in the header.
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// Reads the next sample, or `None` after the verified end marker.
    ///
    /// # Errors
    ///
    /// As [`ContainerReader::next_record`], plus [`DataError::Malformed`]
    /// for structurally invalid payloads.
    pub fn next_record(&mut self) -> Result<Option<LabeledSampleRecord>, DataError> {
        let record = self.next;
        match self.inner.next_record()? {
            None => Ok(None),
            Some(payload) => {
                let decoded = decode_labeled_sample(payload, record)?;
                self.next += 1;
                Ok(Some(decoded))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn tr(points: &[(f64, f64, i64)]) -> Trajectory {
        Trajectory::new(
            points
                .iter()
                .map(|&(lat, lng, t)| GpsPoint::new(lat, lng, t))
                .collect(),
        )
    }

    #[test]
    fn trajectory_round_trips_bitwise_fixed_mode() {
        let t = tr(&[
            (31.2304, 121.4737, 1_600_000_000),
            (31.2305, 121.4739, 1_600_000_030),
            (31.2307, 121.4742, 1_600_000_090),
        ]);
        let payload = encode_trajectory(7, &t);
        // Fixed-point mode engages for 7-decimal coordinates... whenever
        // exact; either way the round-trip must be bitwise.
        let (id, back) = decode_trajectory(&payload, 0).unwrap();
        assert_eq!(id, 7);
        assert_eq!(back.len(), t.len());
        for (a, b) in back.points().iter().zip(t.points()) {
            assert_eq!(a.t, b.t);
            assert_eq!(a.lat.to_bits(), b.lat.to_bits());
            assert_eq!(a.lng.to_bits(), b.lng.to_bits());
        }
    }

    #[test]
    fn trajectory_round_trips_bitwise_raw_mode() {
        // A coordinate with full f64 precision cannot live on the 1e-7 grid,
        // forcing RAW mode.
        let t = tr(&[
            (31.2304 + 1e-9, 121.4737 + 3e-9, 100),
            (31.2305 + 7e-9, 121.4738 + 9e-9, 160),
        ]);
        let payload = encode_trajectory(1, &t);
        let (_, back) = decode_trajectory(&payload, 0).unwrap();
        for (a, b) in back.points().iter().zip(t.points()) {
            assert_eq!(a.lat.to_bits(), b.lat.to_bits());
            assert_eq!(a.lng.to_bits(), b.lng.to_bits());
        }
    }

    #[test]
    fn fixed_mode_is_smaller_than_raw() {
        // Build coordinates directly on the 1e-7° grid so FIXED mode is
        // guaranteed to engage.
        let fixed: Vec<GpsPoint> = (0..100)
            .map(|i| {
                GpsPoint::new(
                    crate::codec::dequantize(312_000_000 + i64::from(i) * 1000),
                    crate::codec::dequantize(1_215_000_000),
                    1000 + i64::from(i) * 30,
                )
            })
            .collect();
        let mut raw_pts = fixed.clone();
        for p in &mut raw_pts {
            p.lat += 1e-12;
        }
        let fixed_payload = encode_trajectory(0, &Trajectory::new(fixed));
        let raw_payload = encode_trajectory(0, &Trajectory::new_unchecked(raw_pts));
        assert!(
            fixed_payload.len() * 2 < raw_payload.len(),
            "fixed {} raw {}",
            fixed_payload.len(),
            raw_payload.len()
        );
    }

    #[test]
    fn labeled_sample_round_trips() {
        let sample = LabeledSampleRecord {
            truck_id: 42,
            day: 3,
            planned_stays: 2,
            truth_s: [100, 200, 900, 1000],
            trajectory: tr(&[(31.0, 121.0, 50), (31.1, 121.1, 2000)]),
        };
        let payload = encode_labeled_sample(&sample);
        let back = decode_labeled_sample(&payload, 0).unwrap();
        assert_eq!(back, sample);
    }

    #[test]
    fn truth_order_violation_is_typed() {
        let sample = LabeledSampleRecord {
            truck_id: 0,
            day: 0,
            planned_stays: 0,
            truth_s: [100, 200, 900, 1000],
            trajectory: tr(&[(31.0, 121.0, 50)]),
        };
        // Encode by hand with boundaries 100, 100 (delta 0), violating
        // strict ordering.
        let mut out = Vec::new();
        crate::codec::write_u32(&mut out, 0);
        crate::codec::write_u32(&mut out, 0);
        crate::codec::write_varint(&mut out, 0);
        for d in [100i64, 0, 700, 100] {
            crate::codec::write_varint_i64(&mut out, d);
        }
        encode_points(sample.trajectory.points(), &mut out);
        let payload = out;
        match decode_labeled_sample(&payload, 5) {
            Err(DataError::Malformed {
                record: 5,
                kind: MalformedKind::TruthOrder,
            }) => {}
            other => panic!("expected TruthOrder, got {other:?}"),
        }
    }

    #[test]
    fn typed_writers_and_readers_round_trip_files() {
        let t0 = tr(&[(31.0, 121.0, 10), (31.1, 121.1, 70)]);
        let t1 = tr(&[(30.9, 120.9, 5)]);
        let mut w = TrajectoryWriter::new(Cursor::new(Vec::new())).unwrap();
        w.write(1, &t0).unwrap();
        w.write(2, &t1).unwrap();
        let bytes = w.finish().unwrap().into_inner();
        let mut r = TrajectoryReader::new(Cursor::new(&bytes)).unwrap();
        assert_eq!(r.count(), 2);
        assert_eq!(r.next_record().unwrap(), Some((1, t0)));
        assert_eq!(r.next_record().unwrap(), Some((2, t1)));
        assert_eq!(r.next_record().unwrap(), None);
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let w = LabeledSampleWriter::new(Cursor::new(Vec::new())).unwrap();
        let bytes = w.finish().unwrap().into_inner();
        match TrajectoryReader::new(Cursor::new(&bytes)) {
            Err(DataError::WrongKind {
                expected: RecordKind::Trajectories,
                found: RecordKind::LabeledSamples,
            }) => {}
            other => panic!("expected WrongKind, got {other:?}"),
        }
    }
}
