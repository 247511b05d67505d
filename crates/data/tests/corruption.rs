//! The corruption matrix: every [`DataError`] variant is reachable from a
//! concrete corrupted byte stream, and none of them panics.
//!
//! Containers are built valid, then surgically damaged (header fields,
//! frame fields, payload bytes, end marker) or hand-crafted with
//! checksum-valid but structurally invalid payloads — the case checksums
//! alone cannot catch.

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "a test helper fails its test by panicking"
)]

use lead_data::codec::{write_f64, write_u32, write_varint, write_varint_i64};
use lead_data::records::{LabeledSampleReader, TrajectoryReader, TrajectoryWriter};
use lead_data::{ContainerWriter, DataError, MalformedKind, RecordKind, MAX_RECORD_LEN};
use lead_geo::{GpsPoint, Trajectory};
use std::io::Cursor;

/// A small valid two-record trajectory container.
fn valid_container() -> Vec<u8> {
    let tr = |base: i64| {
        Trajectory::new(
            (0..5)
                .map(|i| {
                    GpsPoint::new(
                        (310_000_000 + base + i * 100) as f64 / 1e7,
                        (1_210_000_000 + base + i * 200) as f64 / 1e7,
                        base + i * 30,
                    )
                })
                .collect(),
        )
    };
    let mut w = TrajectoryWriter::new(Cursor::new(Vec::new())).expect("header");
    w.write(7, &tr(0)).expect("record 0");
    w.write(8, &tr(10_000)).expect("record 1");
    w.finish().expect("finish").into_inner()
}

/// Reads the whole container, returning the first error (or panicking if
/// the stream is unexpectedly clean).
fn read_all(bytes: &[u8]) -> DataError {
    let mut r = match TrajectoryReader::new(Cursor::new(bytes)) {
        Ok(r) => r,
        Err(e) => return e,
    };
    loop {
        match r.next_record() {
            Ok(Some(_)) => {}
            Ok(None) => panic!("corrupted container read cleanly"),
            Err(e) => return e,
        }
    }
}

/// Builds a container whose single record has the given raw payload —
/// checksum-valid by construction, so only structural validation can
/// reject it.
fn container_with_payload(payload: &[u8]) -> Vec<u8> {
    let mut w =
        ContainerWriter::new(Cursor::new(Vec::new()), RecordKind::Trajectories).expect("header");
    w.write_record(payload).expect("record");
    w.finish().expect("finish").into_inner()
}

fn expect_malformed(bytes: &[u8], want: MalformedKind) {
    match read_all(bytes) {
        DataError::Malformed { record: 0, kind } => {
            assert_eq!(
                std::mem::discriminant(&kind),
                std::mem::discriminant(&want),
                "wanted {want:?}, got {kind:?}"
            );
        }
        other => panic!("wanted Malformed({want:?}), got {other:?}"),
    }
}

#[test]
fn bad_magic_is_typed() {
    let mut bytes = valid_container();
    bytes[0] ^= 0xFF;
    match read_all(&bytes) {
        DataError::BadMagic { .. } => {}
        other => panic!("wanted BadMagic, got {other:?}"),
    }
}

#[test]
fn version_skew_is_typed() {
    let mut bytes = valid_container();
    bytes[8] = 99; // version field, little-endian low byte
    match read_all(&bytes) {
        DataError::UnsupportedVersion { found: 99 } => {}
        other => panic!("wanted UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn unknown_kind_is_typed() {
    // 3 and 4 are the retired POI and tensor tags.
    for tag in [3u8, 4, 250] {
        let mut bytes = valid_container();
        bytes[10] = tag; // kind tag, little-endian low byte
        match read_all(&bytes) {
            DataError::UnknownKind { found } if found == u16::from(tag) => {}
            other => panic!("wanted UnknownKind {{ found: {tag} }}, got {other:?}"),
        }
    }
}

#[test]
fn wrong_kind_is_typed() {
    let bytes = valid_container();
    match LabeledSampleReader::new(Cursor::new(&bytes)) {
        Err(DataError::WrongKind { expected, found }) => {
            assert_eq!(expected, RecordKind::LabeledSamples);
            assert_eq!(found, RecordKind::Trajectories);
        }
        Ok(_) => panic!("trajectory container opened as labelled samples"),
        Err(other) => panic!("wanted WrongKind, got {other:?}"),
    }
}

#[test]
fn truncation_is_typed_at_every_boundary() {
    let bytes = valid_container();
    // Mid-header, mid-first-frame, mid-first-payload, mid-second-record:
    // every cut must surface Truncated (or MissingEndMarker at the tail),
    // never a panic.
    for cut in [4, 10, 19, 25, 40, bytes.len() - 5] {
        match read_all(&bytes[..cut]) {
            DataError::Truncated { .. } | DataError::MissingEndMarker => {}
            other => panic!("cut at {cut}: wanted Truncated, got {other:?}"),
        }
    }
}

#[test]
fn missing_end_marker_is_typed() {
    let mut bytes = valid_container();
    let n = bytes.len();
    bytes[n - 2] ^= 0xFF; // damage the "LEND" marker itself
    match read_all(&bytes) {
        DataError::MissingEndMarker => {}
        other => panic!("wanted MissingEndMarker, got {other:?}"),
    }
}

#[test]
fn oversized_record_is_typed() {
    let mut bytes = valid_container();
    // First frame's length field (offset 20), set far past MAX_RECORD_LEN.
    bytes[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
    match read_all(&bytes) {
        DataError::OversizedRecord { record: 0, len } => {
            assert!(len > MAX_RECORD_LEN);
        }
        other => panic!("wanted OversizedRecord, got {other:?}"),
    }
}

#[test]
fn checksum_mismatch_is_typed_and_attributed() {
    // Flip one payload byte in each record in turn; the error must name the
    // record it was found in.
    for (record, offset_in_payload) in [(0u64, 3usize), (1u64, 2usize)] {
        let bytes = valid_container();
        // Walk the frames to find the record's payload offset.
        let mut pos = 20usize;
        for _ in 0..record {
            let len =
                u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("len field")) as usize;
            pos += 12 + len;
        }
        let mut damaged = bytes;
        damaged[pos + 12 + offset_in_payload] ^= 0xFF;
        match read_all(&damaged) {
            DataError::ChecksumMismatch {
                record: r,
                stored,
                computed,
            } => {
                assert_eq!(r, record);
                assert_ne!(stored, computed);
            }
            other => panic!("wanted ChecksumMismatch at record {record}, got {other:?}"),
        }
    }
}

#[test]
fn bad_mode_is_typed() {
    let mut payload = Vec::new();
    write_u32(&mut payload, 1); // truck_id
    write_varint(&mut payload, 1); // one point
    payload.push(7); // invalid mode byte
    write_varint_i64(&mut payload, 100);
    expect_malformed(&container_with_payload(&payload), MalformedKind::BadMode(7));
}

#[test]
fn truncated_payload_is_typed() {
    // Declares one point but ends right after the mode byte.
    let mut payload = Vec::new();
    write_u32(&mut payload, 1);
    write_varint(&mut payload, 1);
    payload.push(0); // MODE_RAW
    expect_malformed(
        &container_with_payload(&payload),
        MalformedKind::TruncatedPayload,
    );
}

#[test]
fn varint_overflow_is_typed() {
    // An 11-byte varint cannot fit in 64 bits.
    let mut payload = Vec::new();
    write_u32(&mut payload, 1);
    payload.extend_from_slice(&[0xFF; 11]);
    expect_malformed(
        &container_with_payload(&payload),
        MalformedKind::VarintOverflow,
    );
}

#[test]
fn non_chronological_points_are_typed() {
    // Two points with dt = 0 for the second: timestamps must strictly
    // increase.
    let mut payload = Vec::new();
    write_u32(&mut payload, 1);
    write_varint(&mut payload, 2);
    payload.push(0); // MODE_RAW
    write_varint_i64(&mut payload, 100); // t0 = 100
    write_f64(&mut payload, 31.0);
    write_f64(&mut payload, 121.0);
    write_varint_i64(&mut payload, 0); // t1 = 100 — not after t0
    write_f64(&mut payload, 31.0);
    write_f64(&mut payload, 121.0);
    expect_malformed(
        &container_with_payload(&payload),
        MalformedKind::NonChronological,
    );
}

#[test]
fn out_of_range_coordinates_are_typed() {
    let mut payload = Vec::new();
    write_u32(&mut payload, 1);
    write_varint(&mut payload, 1);
    payload.push(0); // MODE_RAW
    write_varint_i64(&mut payload, 100);
    write_f64(&mut payload, 91.0); // latitude past the pole
    write_f64(&mut payload, 121.0);
    expect_malformed(
        &container_with_payload(&payload),
        MalformedKind::CoordinateRange,
    );
}

#[test]
fn length_overflow_is_typed() {
    // Declares more points than the payload could possibly hold.
    let mut payload = Vec::new();
    write_u32(&mut payload, 1);
    write_varint(&mut payload, 1_000_000);
    payload.push(0);
    expect_malformed(
        &container_with_payload(&payload),
        MalformedKind::LengthOverflow,
    );
}

#[test]
fn trailing_payload_is_typed() {
    // A valid one-point record with one junk byte appended (the frame
    // checksum covers it, so only structural validation can object).
    let mut payload = Vec::new();
    write_u32(&mut payload, 1);
    write_varint(&mut payload, 1);
    payload.push(0); // MODE_RAW
    write_varint_i64(&mut payload, 100);
    write_f64(&mut payload, 31.0);
    write_f64(&mut payload, 121.0);
    payload.push(0xAB);
    expect_malformed(
        &container_with_payload(&payload),
        MalformedKind::TrailingPayload,
    );
}

#[test]
fn truth_order_violation_is_typed() {
    // load_end == load_start: truth boundaries must strictly increase.
    let mut payload = Vec::new();
    write_u32(&mut payload, 1); // truck_id
    write_u32(&mut payload, 0); // day
    write_varint(&mut payload, 0); // planned_stays
    write_varint_i64(&mut payload, 1_000); // load_start
    write_varint_i64(&mut payload, 0); // delta to load_end: zero
    write_varint_i64(&mut payload, 10);
    write_varint_i64(&mut payload, 10);
    write_varint(&mut payload, 0); // no points
    payload.push(1); // MODE_FIXED
    let mut w =
        ContainerWriter::new(Cursor::new(Vec::new()), RecordKind::LabeledSamples).expect("header");
    w.write_record(&payload).expect("record");
    let bytes = w.finish().expect("finish").into_inner();
    let mut r = LabeledSampleReader::new(Cursor::new(&bytes)).expect("open");
    match r.next_record() {
        Err(DataError::Malformed {
            record: 0,
            kind: MalformedKind::TruthOrder,
        }) => {}
        other => panic!("wanted Malformed(TruthOrder), got {other:?}"),
    }
}
