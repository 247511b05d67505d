//! The three workloads. Each is a closed loop: one caller issues its next
//! op only after the previous one returned, on one worker thread, after an
//! untimed warm-up pass that also fixes the reference outputs.

use crate::clock::RefClock;
use crate::ops::{arrival_order, detect_op, pairs, reference, replay, DayRef, Replay};
use crate::stats::{median, min_ops_for_tail, ms, peak_rss_mb, quantile, Outcome};
use crate::trace::{detect_layers, fit_layers, stream_layers, Snap, Steps, Work};
use crate::world::{
    city, derive, fit, held_out, lead_config, model_digest, stratified_fleet, train_fleet,
    write_shards, Fit, Fnv, BUSY_MIX, FIT_EPOCHS, FIT_TRUCKS, PAPER_MIX,
};
use crate::Args;
use lead_core::config::LeadConfig;
use lead_core::label::truth_stay_indices;
use lead_core::pipeline::Lead;
use lead_core::poi::PoiDatabase;
use lead_core::processing::ProcessedTrajectory;
use lead_obs::probe::{Probe, NOOP};
use lead_obs::Recorder;
use lead_synth::{City, Sample};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// An end-to-end run sets up at least `SETUPS` times and for at least
/// `SETUP_SECONDS`; `setup_s` is the median.
const SETUPS: usize = 5;
const SETUP_SECONDS: f64 = 1.0;
/// Samples per shard file of the served model's training set.
const SHARD_SIZE: usize = 4;
/// Days `detect_busy` and `fit_small` replay through `StreamingDetector`
/// after timing, to check streaming parity and report `stream.*`.
const PARITY_DAYS: usize = 6;

/// `detect_busy`: the pool of 12–14-stay days the loop cycles through.
const BUSY_DAYS: usize = 100;
const BUSY_TAIL: f64 = 0.98;

/// `stream_fleet`: trucks whose merged day is replayed once per loop turn.
const FLEET_TRUCKS: usize = 80;
const STREAM_TAIL: f64 = 0.99;

/// `fit_small`: the latency percentile reported as its tail.
const FIT_TAIL: f64 = 0.75;

/// A served model, its deployment and the days it is asked about.
struct Served {
    city: City,
    train: Vec<Sample>,
    held_out: Vec<Sample>,
    fit: Fit,
    days: Vec<Sample>,
}

/// Set-up of `detect_busy` and `stream_fleet`: the deployment, its model
/// fitted from shards, and `days` days of the given mix from the seed.
fn serve(a: &Args, mix: [f64; 4], tag: u64, days: usize, probe: &dyn Probe) -> Served {
    let city = city();
    let train = train_fleet(&city);
    let paths = write_shards(&train, &a.work.join("serve"), SHARD_SIZE);
    let fit = fit(&paths, &city, &lead_config(), probe);
    let held_out = held_out(&city);
    let days = stratified_fleet(&city, mix, derive(a.seed, tag), days);
    Served {
        city,
        train,
        held_out,
        fit,
        days,
    }
}

/// Sets up repeatedly (once, traced, with `--trace 1`), checking that every
/// set-up yields the same digest; returns the last and the median set-up
/// time in reference-clock seconds.
fn set_up<T>(
    out: &mut Outcome,
    a: &Args,
    clock: &mut RefClock,
    mut f: impl FnMut() -> (T, u64),
) -> (T, f64) {
    let mut secs: Vec<f64> = Vec::new();
    let mut digests = Vec::new();
    let mut last = None;
    let more = |secs: &[f64]| {
        !a.trace && (secs.len() < SETUPS || secs.iter().sum::<f64>() < SETUP_SECONDS)
    };
    while secs.is_empty() || more(&secs) {
        clock.tick();
        let t = Instant::now();
        let (v, digest) = f();
        secs.push(t.elapsed().as_secs_f64() * clock.scale());
        digests.push(digest);
        last = Some(v);
    }
    out.check(digests.windows(2).all(|w| w[0] == w[1]), || {
        "repeated set-ups disagree".into()
    });
    (last.expect("at least one set-up"), median(&secs))
}

/// Reference detections of every day (the untimed warm-up pass).
fn references(out: &mut Outcome, model: &Lead, poi: &PoiDatabase, days: &[Sample]) -> Vec<DayRef> {
    days.iter()
        .map(|d| {
            reference(model, poi, d).unwrap_or_else(|e| {
                out.errors.push(format!("truck {}: {e}", d.truck_id));
                DayRef::broken()
            })
        })
        .collect()
}

fn accuracy(refs: &[DayRef]) -> f64 {
    let scorable = refs.iter().filter(|r| r.scorable).count();
    refs.iter().filter(|r| r.hit).count() as f64 / scorable.max(1) as f64
}

/// Prints the shape of a workload's days to standard error: stays per day,
/// the candidate distribution and the stay-point bucket mix.
fn shape(label: &str, refs: &[DayRef]) {
    let stays: Vec<f64> = refs.iter().map(|r| r.stays as f64).collect();
    let cands: Vec<f64> = refs.iter().map(|r| r.candidates as f64).collect();
    let mut buckets = [0usize; 6];
    for r in refs {
        let b = match r.stays {
            0..=2 => 0,
            15.. => 5,
            n => (n - 3) / 3 + 1,
        };
        buckets[b] += 1;
    }
    let share: Vec<String> = buckets
        .iter()
        .map(|&c| format!("{:.2}", c as f64 / refs.len().max(1) as f64))
        .collect();
    eprintln!(
        "shape {label}: days={} stays/day min={} p50={} max={} mean={:.2}; candidates min={} p50={} max={} mean={:.1}; \
         bucket mix <3/3-5/6-8/9-11/12-14/>14 = {}",
        refs.len(),
        quantile(&stays, 0.0),
        median(&stays),
        quantile(&stays, 1.0),
        stays.iter().sum::<f64>() / stays.len().max(1) as f64,
        quantile(&cands, 0.0),
        median(&cands),
        quantile(&cands, 1.0),
        cands.iter().sum::<f64>() / cands.len().max(1) as f64,
        share.join("/"),
    );
}

/// Calls `turn` until `seconds` have passed and at least `min_ops` ops
/// ran; `turn` returns how many ops it ran.
fn closed_loop(seconds: f64, min_ops: usize, mut turn: impl FnMut(usize) -> usize) {
    let t0 = Instant::now();
    let mut ops = 0;
    let mut i = 0;
    while t0.elapsed().as_secs_f64() < seconds || ops < min_ops {
        ops += turn(i);
        i += 1;
    }
}

/// Alternates an untraced and a traced turn until `seconds` have passed
/// (at least twice each); returns the wall times of each kind.
fn alternate(
    seconds: f64,
    rec: &Recorder,
    mut turn: impl FnMut(&dyn Probe) -> u64,
) -> [Vec<u64>; 2] {
    let mut walls = [Vec::new(), Vec::new()];
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds || walls[1].len() < 2 {
        walls[0].push(turn(&NOOP));
        walls[1].push(turn(rec));
    }
    walls
}

/// Metrics of the traced run as a whole: the tracing overhead and the
/// reference-clock scale its times were converted with.
fn run_metrics(out: &mut Outcome, walls: &[Vec<u64>; 2], scale: f64) {
    let med = |w: &[u64]| median(&w.iter().map(|&n| n as f64).collect::<Vec<_>>());
    let overhead = med(&walls[1]) / med(&walls[0]) - 1.0;
    out.metric("trace.overhead_frac", overhead, "frac");
    out.metric("clock.scale", scale, "ratio");
}

/// The end-to-end metrics; `lat_ns` are reference-clock op times.
fn end_to_end(
    out: &mut Outcome,
    clock: &RefClock,
    lat_ns: &[u64],
    tail_q: f64,
    units_per_busy_s: f64,
    setup_s: f64,
    accuracy: f64,
) {
    let lat: Vec<f64> = lat_ns.iter().map(|&n| ms(n)).collect();
    let tail = quantile(&lat, tail_q);
    eprintln!(
        "latency_ms_tail is p{} of {} ops, {} beyond it; reference-clock scale {:.4} \
         (wall latency_ms_p50 {:.4})",
        tail_q * 100.0,
        lat.len(),
        lat.iter().filter(|&&v| v > tail).count(),
        clock.run_scale(),
        median(&lat) / clock.run_scale(),
    );
    out.metric("latency_ms_p50", median(&lat), "ms");
    out.metric("latency_ms_tail", tail, "ms");
    out.metric("throughput_per_s", units_per_busy_s, "1/s");
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("accuracy", accuracy, "frac");
}

/// Optimiser steps and used samples one fit on `train` must produce.
fn expected_steps(train: &[Sample], cfg: &LeadConfig) -> (Steps, usize) {
    let mut used = 0;
    let mut ae_items = 0;
    for s in train {
        let p = ProcessedTrajectory::from_raw(&s.raw, cfg);
        let n = p.num_stay_points();
        if n >= 2 && truth_stay_indices(&p, &s.truth).is_some() {
            used += 1;
            ae_items += pairs(n).min(cfg.ae_samples_per_trajectory);
        }
    }
    let windows = |items: usize| items.div_ceil(cfg.batch_accumulation) as u64;
    let steps = Steps {
        ae: cfg.ae_max_epochs as u64 * windows(ae_items),
        det: cfg.detector_max_epochs as u64 * windows(used),
    };
    (steps, used)
}

/// Checks that a fit ran its whole fixed schedule on the expected samples.
fn check_schedule(out: &mut Outcome, f: &Fit, cfg: &LeadConfig, used: usize) {
    let r = &f.report;
    out.check(r.used_samples == used, || {
        format!("fit used {} samples, expected {used}", r.used_samples)
    });
    out.check(
        r.ae_curve.len() == cfg.ae_max_epochs
            && r.forward_kld_curve.len() == cfg.detector_max_epochs
            && r.backward_kld_curve.len() == cfg.detector_max_epochs,
        || "early stopping shortened the fixed schedule".into(),
    );
}

/// The traced breakdown of one set-up fit.
fn setup_fit_layers(out: &mut Outcome, rec: &Recorder, s: &Served, scale: f64) {
    let cfg = lead_config();
    let (steps, used) = expected_steps(&s.train, &cfg);
    check_schedule(out, &s.fit, &cfg, used);
    fit_layers(
        out,
        &Snap(rec.snapshot(), scale),
        1,
        s.fit.samples_read,
        &steps,
    );
}

/// Replays `days` through `StreamingDetector` and checks streaming parity
/// against their reference detections; with `traced`, also reports the
/// `stream.*` metrics of a traced replay.
fn parity_replay(
    out: &mut Outcome,
    model: &Lead,
    poi: &PoiDatabase,
    days: &[Sample],
    refs: &[DayRef],
    clock: &mut RefClock,
    traced: bool,
) {
    let order = arrival_order(days);
    let first = replay(model, poi, days, &order, &NOOP, clock);
    let bad = first.failures(&[], refs);
    out.check(bad == 0, || {
        format!("streaming parity: {bad} failed updates")
    });
    if traced {
        let plain: Vec<Replay> = (0..3)
            .map(|_| replay(model, poi, days, &order, &NOOP, clock))
            .collect();
        let rec = Recorder::new();
        let r = replay(model, poi, days, &order, &rec, clock);
        let bad = r.failures(&first.hypotheses, refs);
        out.check(bad == 0, || format!("traced replay: {bad} failed updates"));
        let s = Snap(rec.snapshot(), clock.run_scale());
        stream_layers(out, &s, 1, &first, &plain);
    }
}

fn work_of(refs: &[DayRef]) -> Work {
    let sum = |f: fn(&DayRef) -> usize| refs.iter().map(f).sum::<usize>() as u64;
    Work {
        ops: refs.len() as u64,
        stays: sum(|r| r.stays),
        candidates: sum(|r| r.candidates),
        encoded: sum(|r| r.candidates),
        subgroups: sum(|r| r.subgroups),
    }
}

/// The detection breakdown of traced passes over `days` (`walls[1]`).
fn detect_pass_layers(out: &mut Outcome, rec: &Recorder, refs: &[DayRef], passes: u64, scale: f64) {
    let s = Snap(rec.snapshot(), scale);
    let work = work_of(refs);
    for (name, want) in [
        ("processing.stay_points", work.stays),
        ("processing.candidates", work.candidates),
    ] {
        out.check(s.observed(name) == (want * passes) as f64, || {
            format!(
                "traced {name} {} != untraced {}",
                s.observed(name),
                want * passes
            )
        });
    }
    detect_layers(
        out,
        &s,
        "bench.call",
        s.ms("bench.call"),
        s.ms("processing"),
        passes,
        &work,
    );
    let filtered = s.counter("processing.points_filtered") / passes.max(1);
    out.metric("processing.points_filtered", filtered as f64, "count");
}

/// One pass of timed detections over `days`; returns its reference-clock
/// time.
fn detect_pass(
    out: &mut Outcome,
    model: &Lead,
    poi: &PoiDatabase,
    days: &[Sample],
    refs: &[DayRef],
    probe: &dyn Probe,
    clock: &mut RefClock,
) -> u64 {
    let mut wall = 0;
    for (d, r) in days.iter().zip(refs) {
        let (ns, ok) = detect_op(model, poi, d, r, probe);
        wall += clock.to_ref(ns);
        clock.tick();
        out.attempted += 1;
        out.failed += u64::from(!ok);
    }
    wall
}

/// The held-out accuracy of `model`, scored untimed on the deployment's
/// fixed held-out days: it moves only when the numerics do.
fn held_out_accuracy(out: &mut Outcome, model: &Lead, poi: &PoiDatabase, days: &[Sample]) -> f64 {
    accuracy(&references(out, model, poi, days))
}

/// Figure 8's worst case: one caller detects 12–14-stay days back to back.
pub fn detect_busy(a: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut clock = RefClock::new();
    let fit_rec = Recorder::new();
    let probe: &dyn Probe = if a.trace { &fit_rec } else { &NOOP };
    let (w, setup_s) = set_up(&mut out, a, &mut clock, || {
        let w = serve(a, BUSY_MIX, 3, BUSY_DAYS, probe);
        let d = model_digest(&w.fit.model);
        (w, d)
    });
    let (model, poi) = (&w.fit.model, &w.city.poi_db);
    let refs = references(&mut out, model, poi, &w.days);
    shape("detect_busy", &refs);
    if a.trace {
        let rec = Recorder::new();
        let walls = alternate(a.seconds, &rec, |p| {
            detect_pass(&mut out, model, poi, &w.days, &refs, p, &mut clock)
        });
        let scale = clock.run_scale();
        detect_pass_layers(&mut out, &rec, &refs, walls[1].len() as u64, scale);
        run_metrics(&mut out, &walls, scale);
        setup_fit_layers(&mut out, &fit_rec, &w, scale);
    } else {
        let mut lat = Vec::new();
        closed_loop(a.seconds, min_ops_for_tail(BUSY_TAIL), |i| {
            let j = i % w.days.len();
            let (ns, ok) = detect_op(model, poi, &w.days[j], &refs[j], &NOOP);
            lat.push(clock.to_ref(ns));
            clock.tick();
            out.attempted += 1;
            out.failed += u64::from(!ok);
            1
        });
        let busy_s = lat.iter().sum::<u64>() as f64 / 1e9;
        let acc = held_out_accuracy(&mut out, model, poi, &w.held_out);
        end_to_end(
            &mut out,
            &clock,
            &lat,
            BUSY_TAIL,
            lat.len() as f64 / busy_s,
            setup_s,
            acc,
        );
    }
    let n = PARITY_DAYS.min(w.days.len());
    parity_replay(
        &mut out,
        model,
        poi,
        &w.days[..n],
        &refs[..n],
        &mut clock,
        a.trace,
    );
    out
}

/// One monitor process: a fleet's fixes, merged by timestamp, are pushed
/// one at a time into each truck's own `StreamingDetector`.
pub fn stream_fleet(a: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut clock = RefClock::new();
    let fit_rec = Recorder::new();
    let probe: &dyn Probe = if a.trace { &fit_rec } else { &NOOP };
    let ((w, order), setup_s) = set_up(&mut out, a, &mut clock, || {
        let w = serve(a, PAPER_MIX, 4, FLEET_TRUCKS, probe);
        let order = arrival_order(&w.days);
        let d = model_digest(&w.fit.model);
        ((w, order), d)
    });
    let (model, poi) = (&w.fit.model, &w.city.poi_db);
    let refs = references(&mut out, model, poi, &w.days);
    shape("stream_fleet", &refs);
    let first = replay(model, poi, &w.days, &order, &NOOP, &mut clock);
    let bad = first.failures(&[], &refs);
    out.check(bad == 0, || format!("warm-up replay: {bad} failed updates"));
    let count = |out: &mut Outcome, r: &Replay| {
        out.attempted += r.op_ns.len() as u64;
        out.failed += r.failures(&first.hypotheses, &refs);
    };
    if a.trace {
        let rec = Recorder::new();
        let mut plain = Vec::new();
        let walls = alternate(a.seconds, &rec, |p| {
            let r = replay(model, poi, &w.days, &order, p, &mut clock);
            count(&mut out, &r);
            let wall = r.op_ns.iter().chain(&r.push_ns).sum();
            if !p.enabled() {
                plain.push(r);
            }
            wall
        });
        let passes = walls[1].len() as u64;
        let scale = clock.run_scale();
        let s = Snap(rec.snapshot(), scale);
        let work = Work {
            ops: first.op_ns.len() as u64,
            stays: first.final_stays.iter().sum::<usize>() as u64,
            candidates: first.final_stays.iter().map(|&n| pairs(n)).sum::<usize>() as u64,
            encoded: first.candidates_encoded,
            subgroups: first.subgroups,
        };
        let wall = s.ms("bench.rescore") + s.ms("bench.push");
        detect_layers(
            &mut out,
            &s,
            "bench.rescore",
            wall,
            s.ms("bench.push"),
            passes,
            &work,
        );
        out.metric("processing.points_filtered", first.filtered as f64, "count");
        stream_layers(&mut out, &s, passes, &first, &plain);
        run_metrics(&mut out, &walls, scale);
        setup_fit_layers(&mut out, &fit_rec, &w, scale);
    } else {
        let mut lat = Vec::new();
        let (mut fixes, mut busy_ns) = (0u64, 0u64);
        closed_loop(a.seconds, min_ops_for_tail(STREAM_TAIL), |_| {
            let r = replay(model, poi, &w.days, &order, &NOOP, &mut clock);
            count(&mut out, &r);
            fixes += r.fixes;
            busy_ns += r.op_ns.iter().chain(&r.push_ns).sum::<u64>();
            lat.extend_from_slice(&r.op_ns);
            r.op_ns.len()
        });
        let throughput = fixes as f64 / (busy_ns as f64 / 1e9);
        let acc = held_out_accuracy(&mut out, model, poi, &w.held_out);
        end_to_end(
            &mut out,
            &clock,
            &lat,
            STREAM_TAIL,
            throughput,
            setup_s,
            acc,
        );
    }
    out
}

/// The deployment's training shards, in two layouts, and its held-out days.
struct Small {
    city: City,
    train: Vec<Sample>,
    /// One shard holding the whole fleet: the warm-up fit's layout.
    whole: Vec<PathBuf>,
    /// The seeded layout every timed fit reads.
    sharded: Vec<PathBuf>,
    held_out: Vec<Sample>,
}

/// Repeated fixed-schedule fits of the deployment's training fleet read
/// from `.leadbin` shards written at set-up. The seed picks the shard size
/// of the timed fits; every fit must serialize to the same bytes as the
/// warm-up fit over a single shard (the streaming-fit parity contract).
pub fn fit_small(a: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut clock = RefClock::new();
    let shard_size = 1 + (derive(a.seed, 5) % FIT_TRUCKS as u64) as usize;
    let (s, setup_s) = set_up(&mut out, a, &mut clock, || {
        let city = city();
        let train = train_fleet(&city);
        let whole = write_shards(&train, &a.work.join("whole"), FIT_TRUCKS);
        let sharded = write_shards(&train, &a.work.join("sharded"), shard_size);
        let held_out = held_out(&city);
        let mut f = Fnv::new();
        for p in whole.iter().chain(&sharded) {
            f.bytes(&std::fs::read(p).expect("shard written above is readable"));
        }
        let s = Small {
            city,
            train,
            whole,
            sharded,
            held_out,
        };
        (s, f.finish())
    });
    eprintln!(
        "fit_small: {} shard files of up to {shard_size} samples",
        s.sharded.len()
    );
    let cfg = lead_config();
    let (steps, used) = expected_steps(&s.train, &cfg);
    let warm = fit(&s.whole, &s.city, &cfg, &NOOP);
    check_schedule(&mut out, &warm, &cfg, used);
    let want = model_digest(&warm.model);
    // One timed fit, in reference-clock ns; the model must serialize to the
    // warm-up fit's bytes.
    let fit_op = |out: &mut Outcome, clock: &mut RefClock, probe: &dyn Probe| -> u64 {
        let t = Instant::now();
        let f = catch_unwind(AssertUnwindSafe(|| fit(&s.sharded, &s.city, &cfg, probe)));
        let ns = clock.to_ref(crate::ops::nanos(t));
        clock.tick();
        out.attempted += 1;
        out.failed += u64::from(!matches!(f, Ok(f) if model_digest(&f.model) == want));
        ns
    };
    let (model, poi) = (&warm.model, &s.city.poi_db);
    let refs = references(&mut out, model, poi, &s.held_out);
    if a.trace {
        let rec = Recorder::new();
        let walls = alternate(a.seconds, &rec, |p| fit_op(&mut out, &mut clock, p));
        let fits = walls[1].len() as u64;
        let scale = clock.run_scale();
        let snap = Snap(rec.snapshot(), scale);
        fit_layers(&mut out, &snap, fits, warm.samples_read, &steps);
        run_metrics(&mut out, &walls, scale);
        let det_rec = Recorder::new();
        detect_pass(
            &mut out,
            model,
            poi,
            &s.held_out,
            &refs,
            &det_rec,
            &mut clock,
        );
        detect_pass_layers(&mut out, &det_rec, &refs, 1, scale);
    } else {
        let mut lat = Vec::new();
        closed_loop(a.seconds, min_ops_for_tail(FIT_TAIL), |_| {
            lat.push(fit_op(&mut out, &mut clock, &NOOP));
            1
        });
        let busy_s = lat.iter().sum::<u64>() as f64 / 1e9;
        let sample_epochs = (used * FIT_EPOCHS * lat.len()) as f64;
        end_to_end(
            &mut out,
            &clock,
            &lat,
            FIT_TAIL,
            sample_epochs / busy_s,
            setup_s,
            accuracy(&refs),
        );
    }
    parity_replay(
        &mut out,
        model,
        poi,
        &s.held_out[..PARITY_DAYS],
        &refs[..PARITY_DAYS],
        &mut clock,
        a.trace,
    );
    out
}
