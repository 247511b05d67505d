//! Property-based round-trip guarantees of the binary container format.
//!
//! The format's core promise is *bitwise* fidelity: whatever coordinate bit
//! patterns go in (grid-aligned or not) come back out identical, and a
//! CSV → binary → CSV conversion of conforming CSV is byte-exact.

#![expect(
    clippy::expect_used,
    reason = "a test helper fails its test by panicking"
)]

use lead_data::records::{
    LabeledSampleReader, LabeledSampleRecord, LabeledSampleWriter, TrajectoryReader,
    TrajectoryWriter,
};
use lead_geo::csv::{write_trajectories, CsvReader};
use lead_geo::{GpsPoint, Trajectory};
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::Cursor;

/// A strictly increasing timestamp sequence from positive deltas.
fn times(deltas: &[i64], start: i64) -> Vec<i64> {
    let mut t = start;
    deltas
        .iter()
        .map(|d| {
            t += d.max(&1);
            t
        })
        .collect()
}

/// Grid-aligned coordinates: exactly representable at 1e-7°, the shape real
/// GPS feeds have. Units are 1e-7 degrees.
fn grid_points(lat_units: &[i64], lng_units: &[i64], deltas: &[i64], start: i64) -> Vec<GpsPoint> {
    let ts = times(deltas, start);
    lat_units
        .iter()
        .zip(lng_units)
        .zip(&ts)
        .map(|((la, ln), t)| GpsPoint::new(*la as f64 / 1e7, *ln as f64 / 1e7, *t))
        .collect()
}

/// Arbitrary in-range coordinates: generally NOT on the grid, forcing the
/// raw-f64 fallback mode.
fn raw_points(lats: &[f64], lngs: &[f64], deltas: &[i64], start: i64) -> Vec<GpsPoint> {
    let ts = times(deltas, start);
    lats.iter()
        .zip(lngs)
        .zip(&ts)
        .map(|((la, ln), t)| GpsPoint::new(*la, *ln, *t))
        .collect()
}

fn assert_bitwise_eq(a: &Trajectory, b: &Trajectory) {
    assert_eq!(a.points().len(), b.points().len());
    for (p, q) in a.points().iter().zip(b.points()) {
        assert_eq!(p.lat.to_bits(), q.lat.to_bits());
        assert_eq!(p.lng.to_bits(), q.lng.to_bits());
        assert_eq!(p.t, q.t);
    }
}

fn binary_round_trip(items: &[(u32, Trajectory)]) -> Vec<(u32, Trajectory)> {
    let mut w = TrajectoryWriter::new(Cursor::new(Vec::new())).expect("header");
    for (id, tr) in items {
        w.write(*id, tr).expect("encode");
    }
    let bytes = w.finish().expect("finish").into_inner();
    let mut r = TrajectoryReader::new(Cursor::new(&bytes)).expect("open");
    assert_eq!(r.count(), items.len() as u64);
    let mut out = Vec::new();
    while let Some(item) = r.next_record().expect("decode") {
        out.push(item);
    }
    out
}

proptest! {
    /// Grid-aligned trajectories (fixed-point mode) survive bitwise.
    #[test]
    fn grid_trajectories_round_trip_bitwise(
        lat_units in vec(-900_000_000i64..900_000_001, 1..40),
        lng_units in vec(-1_800_000_000i64..1_800_000_001, 40),
        deltas in vec(1i64..10_001, 40),
        start in -1_000_000i64..1_000_001,
        id in any::<u32>(),
    ) {
        let n = lat_units.len();
        let tr = Trajectory::new(grid_points(&lat_units, &lng_units[..n], &deltas[..n], start));
        let back = binary_round_trip(&[(id, tr.clone())]);
        prop_assert_eq!(back.len(), 1);
        prop_assert_eq!(back[0].0, id);
        assert_bitwise_eq(&tr, &back[0].1);
    }

    /// Off-grid trajectories (raw-f64 fallback) survive bitwise too.
    #[test]
    fn raw_trajectories_round_trip_bitwise(
        lats in vec(-89.999f64..89.999, 1..40),
        lngs in vec(-179.999f64..179.999, 40),
        deltas in vec(1i64..10_001, 40),
        start in -1_000_000i64..1_000_001,
        id in any::<u32>(),
    ) {
        let n = lats.len();
        let tr = Trajectory::new(raw_points(&lats, &lngs[..n], &deltas[..n], start));
        let back = binary_round_trip(&[(id, tr.clone())]);
        prop_assert_eq!(back.len(), 1);
        assert_bitwise_eq(&tr, &back[0].1);
    }

    /// A mixed multi-record container preserves record order and contents.
    #[test]
    fn mixed_containers_preserve_order(
        seeds in vec((any::<u32>(), 1i64..501, 1usize..20), 1..8),
    ) {
        let items: Vec<(u32, Trajectory)> = seeds
            .iter()
            .enumerate()
            .map(|(k, (id, dt, n))| {
                // Alternate grid-aligned and off-grid records.
                let deltas = vec![*dt; *n];
                let points = if k % 2 == 0 {
                    let lu: Vec<i64> = (0..*n).map(|i| 310_000_000 + (i as i64) * 97).collect();
                    let gu: Vec<i64> = (0..*n).map(|i| 1_210_000_000 + (i as i64) * 53).collect();
                    grid_points(&lu, &gu, &deltas, 0)
                } else {
                    let la: Vec<f64> = (0..*n).map(|i| 31.0 + (i as f64) * 1e-5 + 1e-9).collect();
                    let lg: Vec<f64> = (0..*n).map(|i| 121.0 + (i as f64) * 1e-5 + 1e-9).collect();
                    raw_points(&la, &lg, &deltas, 0)
                };
                (*id, Trajectory::new(points))
            })
            .collect();
        let back = binary_round_trip(&items);
        prop_assert_eq!(back.len(), items.len());
        for ((id_a, tr_a), (id_b, tr_b)) in items.iter().zip(&back) {
            prop_assert_eq!(id_a, id_b);
            assert_bitwise_eq(tr_a, tr_b);
        }
    }

    /// CSV → binary → CSV is byte-exact for grid-aligned data: the CSV's
    /// `%.7f` text, the parsed f64, and the fixed-point encoding are all the
    /// same value.
    #[test]
    fn csv_binary_csv_is_byte_exact(
        trucks in vec((0u32..1000, 1usize..30, 1i64..5_001), 1..6),
    ) {
        let items: Vec<(u32, Trajectory)> = trucks
            .iter()
            .enumerate()
            .map(|(k, (id, n, dt))| {
                let lu: Vec<i64> = (0..*n).map(|i| -300_000_000 + (i as i64) * 1_111).collect();
                let gu: Vec<i64> = (0..*n).map(|i| 700_000_000 + (i as i64) * 2_222).collect();
                let deltas = vec![*dt; *n];
                // Strictly increasing truck ids so the CSV reader keeps
                // the trajectory boundaries distinct.
                ((k as u32) * 1_000 + *id, Trajectory::new(grid_points(&lu, &gu, &deltas, 0)))
            })
            .collect();
        let refs: Vec<(u32, &Trajectory)> = items.iter().map(|(id, t)| (*id, t)).collect();
        let mut csv1 = Vec::new();
        write_trajectories(&refs, &mut csv1).expect("render csv");

        let parsed: Vec<(u32, Trajectory)> = CsvReader::new(csv1.as_slice())
            .expect("open csv")
            .collect::<Result<_, _>>()
            .expect("parse csv");
        let back = binary_round_trip(&parsed);

        let back_refs: Vec<(u32, &Trajectory)> = back.iter().map(|(id, t)| (*id, t)).collect();
        let mut csv2 = Vec::new();
        write_trajectories(&back_refs, &mut csv2).expect("render csv again");
        prop_assert_eq!(csv1, csv2);
    }

    /// Labelled samples round-trip every field, trajectory bits included.
    #[test]
    fn labeled_samples_round_trip(
        truck_id in any::<u32>(),
        day in 0u32..10_000,
        planned in 0u32..64,
        t0 in 0i64..86_401,
        gaps in vec(1i64..3_601, 3),
        n in 1usize..30,
        dt in 1i64..601,
    ) {
        let lu: Vec<i64> = (0..n).map(|i| 318_000_000 + (i as i64) * 701).collect();
        let gu: Vec<i64> = (0..n).map(|i| 1_207_000_000 + (i as i64) * 907).collect();
        let deltas = vec![dt; n];
        let rec = LabeledSampleRecord {
            truck_id,
            day,
            planned_stays: planned,
            truth_s: [t0, t0 + gaps[0], t0 + gaps[0] + gaps[1], t0 + gaps[0] + gaps[1] + gaps[2]],
            trajectory: Trajectory::new(grid_points(&lu, &gu, &deltas, 0)),
        };
        let mut w = LabeledSampleWriter::new(Cursor::new(Vec::new())).expect("header");
        w.write(&rec).expect("encode");
        let bytes = w.finish().expect("finish").into_inner();
        let mut r = LabeledSampleReader::new(Cursor::new(&bytes)).expect("open");
        let back = r.next_record().expect("decode").expect("one record");
        prop_assert!(r.next_record().expect("end").is_none());
        prop_assert_eq!(back.truck_id, rec.truck_id);
        prop_assert_eq!(back.day, rec.day);
        prop_assert_eq!(back.planned_stays, rec.planned_stays);
        prop_assert_eq!(back.truth_s, rec.truth_s);
        assert_bitwise_eq(&rec.trajectory, &back.trajectory);
    }
}
