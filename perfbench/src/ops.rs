//! The timed operations and their output checks: one-day detection through
//! `Lead::detect_opts` and fleet replay through `StreamingDetector`.

use crate::clock::RefClock;
use crate::world::detection_digest;
use lead_core::detection::build_groups;
use lead_core::label::truth_stay_indices;
use lead_core::pipeline::{DetectOptions, DetectionResult, Lead};
use lead_core::poi::PoiDatabase;
use lead_core::processing::{Candidate, ProcessedTrajectory};
use lead_core::streaming::StreamingDetector;
use lead_obs::probe::Probe;
use lead_synth::Sample;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What a correct detection of one day must reproduce, fixed by the
/// warm-up pass.
pub struct DayRef {
    /// Detection digest; `None` only when fewer than two stays exist.
    pub digest: Option<u64>,
    pub stays: usize,
    pub candidates: usize,
    /// Forward plus backward subgroups the detectors score.
    pub subgroups: usize,
    /// The ground truth maps onto extracted stay points.
    pub scorable: bool,
    /// Scorable and detected exactly.
    pub hit: bool,
}

impl DayRef {
    /// Stands in for a day whose warm-up detection failed its checks.
    pub fn broken() -> Self {
        DayRef {
            digest: None,
            stays: 0,
            candidates: 0,
            subgroups: 0,
            scorable: false,
            hit: false,
        }
    }
}

pub fn pairs(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

pub fn subgroups(n: usize) -> usize {
    if n < 2 {
        return 0;
    }
    let g = build_groups(n);
    g.forward.len() + g.backward.len()
}

/// Detects `day` once, untimed, and checks the result's structure against
/// an independent run of the processing stage.
pub fn reference(model: &Lead, poi: &PoiDatabase, day: &Sample) -> Result<DayRef, String> {
    let proc = ProcessedTrajectory::from_raw(&day.raw, model.config());
    let n = proc.num_stay_points();
    let truth = truth_stay_indices(&proc, &day.truth).map(|(l, u)| Candidate::new(l, u));
    let opts = DetectOptions::new().with_threads(1);
    let result = catch_unwind(AssertUnwindSafe(|| model.detect_opts(&day.raw, poi, &opts)))
        .map_err(|_| "detect_opts panicked".to_string())?;
    let digest = match (&result, n) {
        (None, n) if n < 2 => None,
        (None, n) => return Err(format!("no detection on a day with {n} stay points")),
        (Some(r), _) => {
            check_structure(r, n)?;
            Some(detection_digest(r))
        }
    };
    let scorable = n >= 2 && truth.is_some();
    Ok(DayRef {
        digest,
        stays: n,
        candidates: pairs(n),
        subgroups: subgroups(n),
        scorable,
        hit: scorable && result.is_some_and(|r| Some(r.detected) == truth),
    })
}

fn check_structure(r: &DetectionResult, n: usize) -> Result<(), String> {
    let got = r.processed.num_stay_points();
    if got != n {
        return Err(format!("detection saw {got} stay points, processing {n}"));
    }
    if r.processed.candidates.len() != pairs(n) || r.probabilities.len() != pairs(n) {
        return Err(format!("{n} stay points need {} candidates", pairs(n)));
    }
    if !r.probabilities.iter().all(|p| (0.0..=1.0).contains(p)) {
        return Err("a probability lies outside [0, 1]".into());
    }
    let at = r.processed.candidates.iter().position(|&c| c == r.detected);
    let best = r
        .probabilities
        .iter()
        .copied()
        .fold(f32::NEG_INFINITY, f32::max);
    match at {
        Some(i) if r.probabilities[i] == best => Ok(()),
        _ => Err("the detected candidate is not the most probable one".into()),
    }
}

/// One timed `Lead::detect_opts` call; returns its wall time and whether
/// the result reproduces the reference. The wall time is also recorded as
/// the benchmark-side span `bench.call`.
pub fn detect_op(
    model: &Lead,
    poi: &PoiDatabase,
    day: &Sample,
    want: &DayRef,
    probe: &dyn Probe,
) -> (u64, bool) {
    let opts = DetectOptions::new().with_threads(1).with_probe(probe);
    let t = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| model.detect_opts(&day.raw, poi, &opts)));
    let ns = nanos(t);
    probe.span_ns("bench.call", ns);
    let ok = matches!(result, Ok(r) if r.as_ref().map(detection_digest) == want.digest);
    (ns, ok)
}

pub fn nanos(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The fixes of a fleet in the order one monitor receives them: by
/// timestamp, ties broken by truck. Entries are `(truck, fix index)`.
pub fn arrival_order(days: &[Sample]) -> Vec<(usize, usize)> {
    let mut order: Vec<(i64, usize, usize)> = days
        .iter()
        .enumerate()
        .flat_map(|(d, s)| {
            s.raw
                .points()
                .iter()
                .enumerate()
                .map(move |(k, p)| (p.t, d, k))
        })
        .collect();
    order.sort_unstable();
    order.into_iter().map(|(_, d, k)| (d, k)).collect()
}

/// One replay of a fleet's day through per-truck `StreamingDetector`s.
#[derive(Default)]
pub struct Replay {
    /// Reference-clock time of each hypothesis update: a push that
    /// completed a stay and rescored, or a `finish`.
    pub op_ns: Vec<u64>,
    /// Reference-clock time of every other push.
    pub push_ns: Vec<u64>,
    pub fixes: u64,
    pub filtered: u64,
    /// Candidates scored across all updates: `k(k−1)/2` for `k` stays.
    pub candidates_encoded: u64,
    pub subgroups: u64,
    /// Digest of every update's hypothesis, in arrival order.
    pub hypotheses: Vec<Option<u64>>,
    /// Digest of each truck's final hypothesis.
    pub finals: Vec<Option<u64>>,
    pub final_stays: Vec<usize>,
    /// Updates that panicked or gave no hypothesis despite two stays.
    pub failed: u64,
}

/// Pushes every fix of `order` into its truck's detector, finishing each
/// truck right after its last fix. Wall times are also recorded as the
/// benchmark-side spans `bench.rescore` and `bench.push`.
pub fn replay(
    model: &Lead,
    poi: &PoiDatabase,
    days: &[Sample],
    order: &[(usize, usize)],
    probe: &dyn Probe,
    clock: &mut RefClock,
) -> Replay {
    let mut out = Replay {
        finals: vec![None; days.len()],
        final_stays: vec![0; days.len()],
        ..Replay::default()
    };
    let mut live: Vec<Option<StreamingDetector>> = days
        .iter()
        .map(|_| Some(StreamingDetector::with_probe(model, poi, probe)))
        .collect();
    for &(d, k) in order {
        let Some(det) = live[d].as_mut() else {
            continue;
        };
        let fix = days[d].raw.points()[k];
        out.fixes += 1;
        let t = Instant::now();
        let update = catch_unwind(AssertUnwindSafe(|| det.push(fix)));
        let ns = nanos(t);
        let ref_ns = clock.to_ref(ns);
        clock.tick();
        let Ok(update) = update else {
            out.failed += 1;
            out.op_ns.push(ref_ns);
            live[d] = None;
            continue;
        };
        let stays = det.stay_points().len();
        if !update.completed_stays.is_empty() && stays >= 2 {
            probe.span_ns("bench.rescore", ns);
            out.op_ns.push(ref_ns);
            out.candidates_encoded += pairs(stays) as u64;
            out.subgroups += subgroups(stays) as u64;
            out.failed += u64::from(update.hypothesis.is_none());
            out.hypotheses
                .push(update.hypothesis.as_ref().map(detection_digest));
        } else {
            probe.span_ns("bench.push", ns);
            out.push_ns.push(ref_ns);
        }
        out.filtered += u64::from(update.filtered_out);
        if k + 1 == days[d].raw.len() {
            let det = live[d].take().expect("live until its last fix");
            let t = Instant::now();
            let last = catch_unwind(AssertUnwindSafe(|| det.finish()));
            let ns = nanos(t);
            probe.span_ns("bench.rescore", ns);
            out.op_ns.push(clock.to_ref(ns));
            clock.tick();
            match last {
                Ok(r) => {
                    let n = r.as_ref().map_or(0, |r| r.processed.num_stay_points());
                    out.candidates_encoded += pairs(n) as u64;
                    out.subgroups += subgroups(n) as u64;
                    out.final_stays[d] = n;
                    out.finals[d] = r.as_ref().map(detection_digest);
                    out.hypotheses.push(out.finals[d]);
                }
                Err(_) => out.failed += 1,
            }
        }
    }
    out
}

impl Replay {
    /// Failed updates of this replay given the first replay of the same
    /// fleet and the batch detections of its days: every hypothesis must
    /// repeat and every final one must equal `Lead::detect_opts` on the day
    /// (the streaming-parity invariant).
    pub fn failures(&self, first: &[Option<u64>], refs: &[DayRef]) -> u64 {
        let drift = if first.is_empty() {
            0
        } else {
            let changed = self
                .hypotheses
                .iter()
                .zip(first)
                .filter(|(a, b)| a != b)
                .count();
            changed + self.hypotheses.len().abs_diff(first.len())
        };
        let parity = self
            .finals
            .iter()
            .zip(refs)
            .filter(|(f, r)| **f != r.digest)
            .count();
        self.failed + drift as u64 + parity as u64
    }
}
