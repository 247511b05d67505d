//! Inputs and set-up: seeded synthetic fleets, `.leadbin` shards and the
//! fixed-schedule fits every workload relies on.

use crate::ops::nanos;
use lead_core::config::LeadConfig;
use lead_core::pipeline::{
    DetectionResult, FitOptions, Lead, LeadOptions, TrainSample, TrainingReport,
};
use lead_core::source::{BinarySampleShards, SampleSource, SourceError};
use lead_obs::probe::Probe;
use lead_synth::gps::record;
use lead_synth::itinerary::{plan_day, TruckProfile};
use lead_synth::motion::simulate;
use lead_synth::{City, Sample, SynthConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The paper's stay-point bucket mix, 3–5 / 6–8 / 9–11 / 12–14 stays
/// (Table III header: 22/34/25/19 %).
pub const PAPER_MIX: [f64; 4] = [0.22, 0.34, 0.25, 0.19];
/// Only the 12–14 stay bucket: the Figure 8 worst case.
pub const BUSY_MIX: [f64; 4] = [0.0, 0.0, 0.0, 1.0];

/// The deployment every run serves: one fixed city, the small fleet its
/// model is fitted on and the held-out days its accuracy is scored on.
/// Only the workload's own days and layouts come from `--seed`.
const DEPLOY_SEED: u64 = 20_220_901;
/// Trucks (one day each) in the deployment's training fleet and held-out
/// split, and epochs of every stage of the fixed fit schedule.
pub const FIT_TRUCKS: usize = 8;
pub const HELD_OUT_DAYS: usize = 120;
pub const FIT_EPOCHS: usize = 2;

/// Derives an independent stream seed from a seed and a purpose tag.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut f = Fnv::new();
    f.u64(seed);
    f.u64(tag);
    f.finish()
}

fn synth_config(mix: [f64; 4]) -> SynthConfig {
    SynthConfig {
        seed: DEPLOY_SEED,
        bucket_weights: mix,
        ..SynthConfig::paper_scaled()
    }
}

/// The deployment's city: the paper-scaled world.
pub fn city() -> City {
    City::generate(&synth_config(PAPER_MIX))
}

/// The deployment's training fleet.
pub fn train_fleet(city: &City) -> Vec<Sample> {
    fleet(city, PAPER_MIX, derive(DEPLOY_SEED, 1), FIT_TRUCKS)
}

/// The deployment's held-out days (trucks disjoint from training).
pub fn held_out(city: &City) -> Vec<Sample> {
    fleet(city, PAPER_MIX, derive(DEPLOY_SEED, 2), HELD_OUT_DAYS)
}

/// `trucks` trucks driving one day each in `city`, with the given bucket
/// mix; `stream` seeds truck habits, itineraries, motion and GPS noise.
pub fn fleet(city: &City, mix: [f64; 4], stream: u64, trucks: usize) -> Vec<Sample> {
    let mut rng = StdRng::seed_from_u64(stream);
    (0..trucks)
        .map(|i| truck_day(city, &synth_config(mix), &mut rng, i))
        .collect()
}

/// About `days` days in the proportions of `mix`, stratified: each planned
/// stay count 3..=14 gets an exact share of its bucket's quota, so the
/// work a fleet carries barely changes between seeds. Days are drawn in
/// sequence and kept while their stay count still has room.
pub fn stratified_fleet(city: &City, mix: [f64; 4], stream: u64, days: usize) -> Vec<Sample> {
    let mut quota = [0usize; 12];
    for (b, w) in mix.iter().enumerate() {
        let n = (w * days as f64).round() as usize;
        for k in 0..3 {
            quota[3 * b + k] = n / 3 + usize::from(k < n % 3);
        }
    }
    let cfg = synth_config(mix);
    let mut rng = StdRng::seed_from_u64(stream);
    let mut out = Vec::new();
    while quota.iter().any(|&q| q > 0) {
        let day = truck_day(city, &cfg, &mut rng, out.len());
        let slot = &mut quota[day.planned_stays - 3];
        if *slot > 0 {
            *slot -= 1;
            out.push(day);
        }
    }
    out
}

fn truck_day(city: &City, cfg: &SynthConfig, rng: &mut StdRng, i: usize) -> Sample {
    let id = u32::try_from(i).expect("fleet size fits u32");
    let truck = TruckProfile::generate(city, cfg, rng, id);
    let plan = plan_day(city, cfg, &truck, rng);
    let sim = simulate(city, cfg, &plan, rng);
    let raw = record(cfg, &city.proj, &sim.track, rng);
    Sample {
        truck_id: id,
        day: 0,
        raw,
        truth: sim.truth,
        planned_stays: plan.num_stays(),
    }
}

/// Writes `samples` as `.leadbin` shards of `shard_size` under `dir`.
pub fn write_shards(samples: &[Sample], dir: &Path, shard_size: usize) -> Vec<PathBuf> {
    lead_synth::write_sample_shards(samples, dir, "train", shard_size)
        .expect("writing training shards into the work directory")
}

/// The fit schedule: the repository's experiment configuration on one
/// worker thread, with `FIT_EPOCHS` epochs per stage, a patience no
/// schedule can exhaust (so early stopping never shortens a fit), and three
/// autoencoder samples per day so a fit stays well under a second.
pub fn lead_config() -> LeadConfig {
    LeadConfig {
        num_threads: 1,
        ae_max_epochs: FIT_EPOCHS,
        ae_samples_per_trajectory: 3,
        detector_max_epochs: FIT_EPOCHS,
        early_stopping_patience: FIT_EPOCHS + 1,
        ..LeadConfig::experiment()
    }
}

/// A [`BinarySampleShards`] that also times each shard read into the probe
/// (`data.read_shard`) and counts the samples it delivers.
pub struct TimedShards<'p> {
    inner: BinarySampleShards,
    probe: &'p dyn Probe,
    /// Samples delivered so far.
    pub samples_read: u64,
}

impl<'p> TimedShards<'p> {
    pub fn open(paths: &[PathBuf], probe: &'p dyn Probe) -> Self {
        Self {
            inner: BinarySampleShards::open(paths).expect("shards written at set-up open"),
            probe,
            samples_read: 0,
        }
    }
}

impl SampleSource for TimedShards<'_> {
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
        let _span = lead_obs::clock::span(self.probe, "data.read_shard");
        let mut n = 0u64;
        let out = self.inner.read_shard(shard, &mut |s| {
            n += 1;
            sink(s);
        });
        self.samples_read += n;
        out
    }
}

/// One fit through the public streaming entry point.
pub struct Fit {
    pub model: Lead,
    pub report: TrainingReport,
    pub samples_read: u64,
}

/// Fits the full LEAD model from shard files on one thread; the wall time
/// is also recorded as the benchmark-side span `bench.fit`.
pub fn fit(paths: &[PathBuf], city: &City, cfg: &LeadConfig, probe: &dyn Probe) -> Fit {
    let t = Instant::now();
    let mut source = TimedShards::open(paths, probe);
    let opts = FitOptions::new().with_threads(1).with_probe(probe);
    let (model, report) = Lead::fit_streaming(
        &mut source,
        None,
        &city.poi_db,
        cfg,
        LeadOptions::full(),
        &opts,
    )
    .expect("fit on generated shards succeeds");
    probe.span_ns("bench.fit", nanos(t));
    Fit {
        model,
        report,
        samples_read: source.samples_read,
    }
}

/// FNV-1a, 64 bit: the digest of detections and serialized models.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one detection: the detected candidate and the exact bits of
/// every merged probability.
pub fn detection_digest(r: &DetectionResult) -> u64 {
    let mut f = Fnv::new();
    f.u64(r.detected.start_sp as u64);
    f.u64(r.detected.end_sp as u64);
    f.u64(r.probabilities.len() as u64);
    for p in &r.probabilities {
        f.bytes(&p.to_bits().to_le_bytes());
    }
    f.finish()
}

/// Digest of a model's serialized form.
pub fn model_digest(model: &Lead) -> u64 {
    let mut bytes = Vec::new();
    model
        .write_to(&mut bytes)
        .expect("serializing into memory cannot fail");
    let mut f = Fnv::new();
    f.bytes(&bytes);
    f.finish()
}
