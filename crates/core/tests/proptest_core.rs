//! Property-based tests of the LEAD core: processing invariants, grouping
//! combinatorics, label distributions, and probability merging.

use lead_core::detection::{
    backward_flat_order, build_groups, forward_flat_order, merge_probabilities, smoothed_label,
};
use lead_core::features::Normalizer;
use lead_core::processing::{enumerate_candidates, extract_stay_points, filter_noise, Candidate};
use lead_geo::{GpsPoint, Trajectory};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Random chronological city-scale trajectories.
fn trajectory() -> impl Strategy<Value = Trajectory> {
    prop::collection::vec((31.8..32.2f64, 120.7..121.1f64, 30i64..300), 2..120).prop_map(|steps| {
        let mut t = 0;
        let pts = steps
            .into_iter()
            .map(|(lat, lng, dt)| {
                t += dt;
                GpsPoint::new(lat, lng, t)
            })
            .collect();
        Trajectory::new(pts)
    })
}

/// Trajectories built from the scenario suite's pathological segments:
/// `0` = a dwell (metre-scale wobble at second-scale intervals, the shape
/// that makes a naive incremental extractor quadratic), `1` = a tunnel-style
/// dropout (multi-minute silence), `2` = a sparse cruise (up to 120 s
/// between fixes, kilometres apart).
fn pathological_trajectory() -> impl Strategy<Value = Trajectory> {
    prop::collection::vec((0u8..3, 2usize..40), 1..8).prop_map(|segments| {
        let mut t = 0i64;
        let (mut lat, mut lng) = (32.0f64, 120.9f64);
        let mut pts = Vec::new();
        for (i, (kind, len)) in segments.into_iter().enumerate() {
            match kind {
                0 => {
                    for k in 0..len * 8 {
                        t += 15;
                        pts.push(GpsPoint::new(lat + (k % 7) as f64 * 2.0e-6, lng, t));
                    }
                }
                1 => {
                    t += 300 + (i as i64 * 97) % 1200;
                    pts.push(GpsPoint::new(lat, lng, t));
                }
                _ => {
                    for k in 0..len {
                        t += 5 + ((i + k) as i64 * 31) % 116;
                        lat += 2.0e-3;
                        lng += 1.5e-3;
                        pts.push(GpsPoint::new(lat, lng, t));
                    }
                }
            }
            lat += 1.0e-3;
        }
        if pts.is_empty() {
            pts.push(GpsPoint::new(lat, lng, 1));
        }
        Trajectory::new(pts)
    })
}

proptest! {
    #[test]
    fn noise_filter_output_is_subsequence_and_speed_bounded(tr in trajectory()) {
        let out = filter_noise(&tr, 130.0);
        prop_assert!(out.len() <= tr.len());
        prop_assert!(!out.is_empty());
        // Chronological subsequence of the input.
        let input_ts: Vec<i64> = tr.points().iter().map(|p| p.t).collect();
        let mut cursor = 0;
        for p in out.points() {
            let pos = input_ts[cursor..].iter().position(|&t| t == p.t);
            prop_assert!(pos.is_some(), "filter invented a point");
            cursor += pos.unwrap() + 1;
        }
        // No residual super-threshold speed.
        for w in out.points().windows(2) {
            prop_assert!(w[0].speed_to_mps(&w[1]) * 3.6 <= 130.0 + 1e-9);
        }
    }

    #[test]
    fn stay_points_satisfy_their_definition(tr in trajectory()) {
        let d_max = 500.0;
        let t_min = 900.0;
        let stays = extract_stay_points(&tr, d_max, t_min);
        let pts = tr.points();
        for sp in &stays {
            prop_assert!(sp.start < sp.end);
            prop_assert!((pts[sp.end].t - pts[sp.start].t) as f64 >= t_min);
            for k in sp.start..=sp.end {
                prop_assert!(pts[sp.start].distance_m(&pts[k]) <= d_max + 1e-9);
            }
            if sp.end + 1 < pts.len() {
                prop_assert!(pts[sp.start].distance_m(&pts[sp.end + 1]) > d_max);
            }
        }
        for w in stays.windows(2) {
            prop_assert!(w[0].end < w[1].start);
        }
    }

    #[test]
    fn candidate_enumeration_counts_and_uniqueness(n in 0usize..25) {
        let c = enumerate_candidates(n);
        prop_assert_eq!(c.len(), n * n.saturating_sub(1) / 2);
        let set: BTreeSet<Candidate> = c.iter().copied().collect();
        prop_assert_eq!(set.len(), c.len());
        for cand in &c {
            prop_assert!(cand.start_sp < cand.end_sp && cand.end_sp < n);
        }
    }

    #[test]
    fn groups_cover_candidates_exactly_once(n in 2usize..15) {
        let g = build_groups(n);
        let all: BTreeSet<Candidate> = enumerate_candidates(n).into_iter().collect();
        let fwd: Vec<Candidate> = g.forward.iter().flatten().copied().collect();
        let bwd: Vec<Candidate> = g.backward.iter().flatten().copied().collect();
        prop_assert_eq!(fwd.len(), all.len());
        prop_assert_eq!(bwd.len(), all.len());
        prop_assert_eq!(fwd.into_iter().collect::<BTreeSet<_>>(), all.clone());
        prop_assert_eq!(bwd.into_iter().collect::<BTreeSet<_>>(), all);
    }

    #[test]
    fn smoothed_labels_are_distributions(n in 2usize..15, seed in 0usize..100) {
        let order = forward_flat_order(n);
        let truth = order[seed % order.len()];
        let label = smoothed_label(&order, truth, 1e-5);
        let sum: f32 = label.data().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(label.data().iter().all(|&p| p > 0.0));
        // The argmax is the truth.
        let (_, col) = label.argmax().unwrap();
        prop_assert_eq!(order[col], truth);
    }

    #[test]
    fn merge_is_argmax_consistent_with_raw_sum(
        n in 2usize..10,
        seed in any::<u64>(),
    ) {
        // Random positive distributions in both orders.
        let m = n * (n - 1) / 2;
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / u32::MAX as f32).max(1e-6)
        };
        let fwd: Vec<f32> = (0..m).map(|_| next()).collect();
        let bwd: Vec<f32> = (0..m).map(|_| next()).collect();
        let merged = merge_probabilities(n, &fwd, &bwd);
        prop_assert_eq!(merged.len(), m);
        prop_assert!(merged.iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));

        // Recompute raw sums by candidate identity and compare argmaxes.
        let forder = forward_flat_order(n);
        let border = backward_flat_order(n);
        let mut raw = vec![0.0f32; m];
        for (i, c) in forder.iter().enumerate() {
            let bpos = border.iter().position(|x| x == c).unwrap();
            raw[i] = fwd[i] + bwd[bpos];
        }
        let am_raw = raw
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let am_merged = merged
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        prop_assert_eq!(am_raw, am_merged);
    }

    /// Like [`incremental_extraction_matches_batch`] but over the GPS
    /// pathology shapes of the scenario suite: long dwells (the extractor's
    /// adversarial case), tunnel-style dropout gaps, and sparse sampling
    /// rates, interleaved at random.
    #[test]
    fn incremental_extraction_matches_batch_on_pathological_shapes(
        tr in pathological_trajectory(),
    ) {
        use lead_core::streaming::IncrementalStayExtractor;
        let d_max = 500.0;
        let t_min = 900i64;
        let batch = extract_stay_points(&tr, d_max, t_min as f64);

        let mut ex = IncrementalStayExtractor::new(d_max, t_min);
        let mut buffer = Vec::new();
        let mut streamed = Vec::new();
        for &p in tr.points() {
            buffer.push(p);
            streamed.extend(ex.on_point_appended(&buffer));
        }
        streamed.extend(ex.finish(&buffer));
        prop_assert_eq!(streamed, batch);
    }

    #[test]
    fn incremental_extraction_matches_batch(tr in trajectory()) {
        use lead_core::streaming::IncrementalStayExtractor;
        let d_max = 500.0;
        let t_min = 900i64;
        let batch = extract_stay_points(&tr, d_max, t_min as f64);

        let mut ex = IncrementalStayExtractor::new(d_max, t_min);
        let mut buffer = Vec::new();
        let mut streamed = Vec::new();
        for &p in tr.points() {
            buffer.push(p);
            streamed.extend(ex.on_point_appended(&buffer));
        }
        streamed.extend(ex.finish(&buffer));
        prop_assert_eq!(streamed, batch);
    }

    #[test]
    fn normalizer_output_is_bounded_and_centered(
        rows in prop::collection::vec(prop::collection::vec(-1e4..1e4f32, 5), 2..40),
    ) {
        let n = Normalizer::fit(&rows);
        let mut sums = vec![0.0f64; 5];
        for r in &rows {
            let mut r = r.clone();
            n.normalize(&mut r);
            for (v, s) in r.iter().zip(sums.iter_mut()) {
                prop_assert!(v.abs() <= 1.0, "unbounded normalised value {}", v);
                *s += *v as f64;
            }
        }
        // Means near zero unless clamping bit hard (clamp only moves values
        // toward zero symmetrically for roughly symmetric data, so allow a
        // loose bound).
        for s in sums {
            prop_assert!((s / rows.len() as f64).abs() < 0.5);
        }
    }
}
