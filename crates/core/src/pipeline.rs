//! The end-to-end LEAD framework: offline training ([`Lead::fit`] on
//! in-RAM slices, [`Lead::fit_streaming`] on sharded sources) and online
//! detection ([`Lead::detect`]), plus the ablation-variant switchboard
//! ([`LeadOptions`]).
//!
//! Both stages are fallible ([`crate::error::LeadError`]) and observable:
//! [`FitOptions::probe`] and [`DetectOptions::probe`] accept a `lead_obs` probe
//! that receives per-stage spans, counters, and training curves. Metrics are
//! write-only — attaching a recording probe never changes a result bit
//! (pinned by `crates/core/tests/obs_parity.rs`).

use crate::config::{ConfigError, LeadConfig};
use crate::detection::{
    backward_flat_order, build_groups, forward_flat_order, smoothed_label, GroupDetector,
    MlpDetector,
};
use crate::encoding::{Autoencoder, EncoderKind};
use crate::error::LeadError;
use crate::features::{raw_features, FeatureExtractor, Normalizer, TrajectoryFeatures};
use crate::label::{truth_stay_indices, TruthLabel};
use crate::poi::PoiDatabase;
use crate::processing::{Candidate, ProcessedTrajectory};
use crate::source::{SampleSource, SliceSamples};
use lead_nn::{Matrix, ParamSet};
use lead_obs::clock;
use lead_obs::probe::{Probe, NOOP};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

mod day;
pub(crate) use day::DayScorer;

/// Which detector(s) score the candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorChoice {
    /// Forward + backward detectors, merged (full LEAD).
    Both,
    /// Forward detector only (`LEAD-NoBac`).
    ForwardOnly,
    /// Backward detector only (`LEAD-NoFor`).
    BackwardOnly,
    /// Per-candidate MLP, no grouping (`LEAD-NoGro`).
    Mlp,
}

/// The variant switchboard of Section VI-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeadOptions {
    /// `false` → `LEAD-NoPoi`: POI features replaced by zero padding.
    pub use_poi: bool,
    /// `false` → `LEAD-NoSel`: last hidden state instead of self-attention.
    pub use_attention: bool,
    /// `false` → `LEAD-NoHie`: one flat operator pair in the autoencoder.
    pub hierarchical: bool,
    /// Detector configuration.
    pub detector: DetectorChoice,
}

impl LeadOptions {
    /// Full LEAD.
    pub fn full() -> Self {
        Self {
            use_poi: true,
            use_attention: true,
            hierarchical: true,
            detector: DetectorChoice::Both,
        }
    }

    /// `LEAD-NoPoi`.
    pub fn no_poi() -> Self {
        Self {
            use_poi: false,
            ..Self::full()
        }
    }

    /// `LEAD-NoSel`.
    pub fn no_sel() -> Self {
        Self {
            use_attention: false,
            ..Self::full()
        }
    }

    /// `LEAD-NoHie`.
    pub fn no_hie() -> Self {
        Self {
            hierarchical: false,
            ..Self::full()
        }
    }

    /// `LEAD-NoGro`.
    pub fn no_gro() -> Self {
        Self {
            detector: DetectorChoice::Mlp,
            ..Self::full()
        }
    }

    /// `LEAD-NoFor`.
    pub fn no_for() -> Self {
        Self {
            detector: DetectorChoice::BackwardOnly,
            ..Self::full()
        }
    }

    /// `LEAD-NoBac`.
    pub fn no_bac() -> Self {
        Self {
            detector: DetectorChoice::ForwardOnly,
            ..Self::full()
        }
    }

    /// The paper's name for this variant.
    pub fn name(&self) -> &'static str {
        if !self.use_poi {
            "LEAD-NoPoi"
        } else if !self.use_attention {
            "LEAD-NoSel"
        } else if !self.hierarchical {
            "LEAD-NoHie"
        } else {
            match self.detector {
                DetectorChoice::Both => "LEAD",
                DetectorChoice::ForwardOnly => "LEAD-NoBac",
                DetectorChoice::BackwardOnly => "LEAD-NoFor",
                DetectorChoice::Mlp => "LEAD-NoGro",
            }
        }
    }
}

impl Default for LeadOptions {
    fn default() -> Self {
        Self::full()
    }
}

/// One labelled training trajectory.
#[derive(Debug, Clone)]
pub struct TrainSample {
    /// The raw GPS trajectory (one truck, one day).
    pub raw: lead_geo::Trajectory,
    /// The archived loaded trajectory's time intervals.
    pub truth: TruthLabel,
}

/// Loss curves and bookkeeping from the offline stage.
#[derive(Debug, Clone, Default)]
pub struct TrainingReport {
    /// Per-epoch mean MSE of the (hierarchical) autoencoder — Figure 9.
    pub ae_curve: Vec<f32>,
    /// Per-epoch mean KLD of the forward detector — Figure 10.
    pub forward_kld_curve: Vec<f32>,
    /// Per-epoch mean KLD of the backward detector — Figure 10.
    pub backward_kld_curve: Vec<f32>,
    /// Per-epoch mean BCE of the `NoGro` MLP (empty otherwise).
    pub mlp_curve: Vec<f32>,
    /// Per-epoch validation MSE of the autoencoder (empty without a
    /// validation split).
    pub ae_val_curve: Vec<f32>,
    /// Per-epoch validation KLD of the forward detector.
    pub forward_val_kld_curve: Vec<f32>,
    /// Per-epoch validation KLD of the backward detector.
    pub backward_val_kld_curve: Vec<f32>,
    /// Trajectories used for detector training.
    pub used_samples: usize,
    /// Trajectories skipped (fewer than 2 stay points, or the ground truth
    /// did not map onto extracted stay points).
    pub skipped_samples: usize,
}

/// The result of detecting the loaded trajectory in one raw trajectory.
#[derive(Debug, Clone)]
pub struct DetectionResult {
    /// The processed trajectory all indexes refer to.
    pub processed: ProcessedTrajectory,
    /// Merged probabilities over candidates in the canonical (forward
    /// flattening) order.
    pub probabilities: Vec<f32>,
    /// The detected loaded trajectory `⟨sp_{i'} --→ sp_{j'}⟩`.
    pub detected: Candidate,
}

impl DetectionResult {
    /// The detected loaded trajectory's time span `(start_s, end_s)`.
    pub fn loaded_interval_s(&self) -> (i64, i64) {
        let pts = self.processed.cleaned.points();
        let sp_l = &self.processed.stay_points[self.detected.start_sp];
        let sp_u = &self.processed.stay_points[self.detected.end_sp];
        (pts[sp_l.start].t, pts[sp_u.end].t)
    }

    /// The detected loaded trajectory as a GPS point sequence.
    pub fn loaded_trajectory(&self) -> lead_geo::Trajectory {
        self.processed.candidate_trajectory(self.detected)
    }
}

/// A trained LEAD model.
///
/// ```no_run
/// use lead_core::config::LeadConfig;
/// use lead_core::error::LeadError;
/// use lead_core::pipeline::{Lead, LeadOptions, TrainSample};
/// use lead_core::poi::PoiDatabase;
///
/// # fn demo(train: Vec<TrainSample>, val: Vec<TrainSample>,
/// #         poi_db: PoiDatabase, raw: lead_geo::Trajectory) -> Result<(), LeadError> {
/// // Offline stage: learn from the historical archive.
/// let (model, report) =
///     Lead::fit(&train, &val, &poi_db, &LeadConfig::paper(), LeadOptions::full())?;
/// println!("autoencoder converged to MSE {:?}", report.ae_curve.last());
///
/// // Persist for the online service.
/// model.save("hct.lead")?;
///
/// // Online stage: detect the loaded trajectory of an unseen raw trajectory.
/// let model = Lead::load("hct.lead")?;
/// if let Some(result) = model.detect(&raw, &poi_db) {
///     let (start_s, end_s) = result.loaded_interval_s();
///     println!("loaded trajectory ⟨sp_{} --→ sp_{}⟩ spans {start_s}–{end_s}",
///              result.detected.start_sp, result.detected.end_sp);
/// }
/// # Ok(()) }
/// ```
pub struct Lead {
    config: LeadConfig,
    use_poi: bool,
    use_attention: bool,
    hierarchical: bool,
    normalizer: Normalizer,
    autoencoder: Autoencoder,
    detector: Detector,
}

/// The trained detector set: exactly one of the four Section VI-A choices,
/// so a model always holds the detectors its variant scores with.
enum Detector {
    Both {
        forward: GroupDetector,
        backward: GroupDetector,
    },
    Forward(GroupDetector),
    Backward(GroupDetector),
    Mlp(MlpDetector),
}

fn new_autoencoder(config: &LeadConfig, options: LeadOptions, rng: &mut StdRng) -> Autoencoder {
    let kind = if options.hierarchical {
        EncoderKind::Hierarchical
    } else {
        EncoderKind::Flat
    };
    Autoencoder::new(config, kind, options.use_attention, rng)
}

impl Lead {
    fn from_parts(
        config: &LeadConfig,
        options: LeadOptions,
        normalizer: Normalizer,
        autoencoder: Autoencoder,
        detector: Detector,
    ) -> Self {
        Lead {
            config: config.clone(),
            use_poi: options.use_poi,
            use_attention: options.use_attention,
            hierarchical: options.hierarchical,
            normalizer,
            autoencoder,
            detector,
        }
    }

    /// Builds an untrained model with freshly initialised weights — the
    /// skeleton [`crate::persist`] fills when loading a saved model. Rejects
    /// invalid configurations (including ones read from a model file).
    pub(crate) fn new_untrained(
        config: &LeadConfig,
        options: LeadOptions,
        normalizer: Normalizer,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let autoencoder = new_autoencoder(config, options, &mut rng);
        let c_dim = autoencoder.c_vec_dim();
        let mut group = || GroupDetector::new(config, c_dim, &mut rng);
        let detector = match options.detector {
            DetectorChoice::Both => Detector::Both {
                forward: group(),
                backward: group(),
            },
            DetectorChoice::ForwardOnly => Detector::Forward(group()),
            DetectorChoice::BackwardOnly => Detector::Backward(group()),
            DetectorChoice::Mlp => Detector::Mlp(MlpDetector::new(c_dim, &mut rng)),
        };
        Ok(Self::from_parts(
            config,
            options,
            normalizer,
            autoencoder,
            detector,
        ))
    }

    pub(crate) fn normalizer_ref(&self) -> &Normalizer {
        &self.normalizer
    }

    /// The trained weights as named sections, in the order
    /// [`Self::write_to`] stores them: the autoencoder, then the variant's
    /// detectors.
    pub(crate) fn weight_sections(&self) -> Vec<(&'static str, &ParamSet)> {
        let mut out = vec![("autoencoder", self.autoencoder.params())];
        match &self.detector {
            Detector::Both { forward, backward } => {
                out.push(("forward_detector", forward.params()));
                out.push(("backward_detector", backward.params()));
            }
            Detector::Forward(det) => out.push(("forward_detector", det.params())),
            Detector::Backward(det) => out.push(("backward_detector", det.params())),
            Detector::Mlp(det) => out.push(("mlp_detector", det.params())),
        }
        out
    }

    /// [`Self::weight_sections`] for loading weights in place.
    pub(crate) fn weight_sections_mut(&mut self) -> Vec<(&'static str, &mut ParamSet)> {
        let mut out = vec![("autoencoder", self.autoencoder.params_mut())];
        match &mut self.detector {
            Detector::Both { forward, backward } => {
                out.push(("forward_detector", forward.params_mut()));
                out.push(("backward_detector", backward.params_mut()));
            }
            Detector::Forward(det) => out.push(("forward_detector", det.params_mut())),
            Detector::Backward(det) => out.push(("backward_detector", det.params_mut())),
            Detector::Mlp(det) => out.push(("mlp_detector", det.params_mut())),
        }
        out
    }

    /// The offline stage on in-RAM samples: trains the hierarchical
    /// autoencoder (self-supervised) and the detector(s) (supervised by
    /// archived loaded trajectories) on `samples`. With a non-empty
    /// `val_samples`, early stopping observes the validation losses and the
    /// best-validation-epoch weights are restored after each training stage
    /// (the paper's Early Stopping protocol); with `&[]` it observes the
    /// training loss. Slice convenience for [`Self::fit_streaming`] with
    /// [`FitOptions::default`].
    ///
    /// # Errors
    /// [`LeadError::Config`] on an invalid configuration;
    /// [`LeadError::NoTrainableSamples`] when no sample survives processing.
    pub fn fit(
        samples: &[TrainSample],
        val_samples: &[TrainSample],
        poi_db: &PoiDatabase,
        config: &LeadConfig,
        options: LeadOptions,
    ) -> Result<(Self, TrainingReport), LeadError> {
        Self::fit_streaming(
            &mut SliceSamples::new(samples),
            Some(&mut SliceSamples::new(val_samples)),
            poi_db,
            config,
            options,
            &FitOptions::new(),
        )
    }

    /// The offline stage over streaming [`SampleSource`]s, and the single
    /// fitting core. Raw samples are ingested one shard at a time, so peak
    /// raw-sample memory is bounded by the largest shard instead of the
    /// whole dataset. For the same seed and dataset the trained model, loss
    /// curves, and report are **bit-identical** at any shard size (pinned by
    /// `crates/core/tests/streaming_parity.rs`). `val = None` trains without
    /// a validation split.
    ///
    /// The [`FitOptions::probe`] receives stage spans (`fit`,
    /// `fit.features`, `fit.autoencoder`, `fit.encode`, `fit.detectors`),
    /// per-trajectory processing counters, per-epoch losses
    /// (`ae.epoch_mse`, `det.fwd.epoch_kld`, …), and gradient norms from the
    /// trainer. Metrics are write-only: the trained model and report are
    /// bit-identical for any probe.
    ///
    /// # Errors
    /// [`LeadError::Config`] on an invalid configuration;
    /// [`LeadError::Source`] when a source fails to read or validate;
    /// [`LeadError::NoTrainableSamples`] when no sample survives processing.
    pub fn fit_streaming(
        train: &mut dyn SampleSource,
        val: Option<&mut dyn SampleSource>,
        poi_db: &PoiDatabase,
        config: &LeadConfig,
        options: LeadOptions,
        fit: &FitOptions<'_>,
    ) -> Result<(Self, TrainingReport), LeadError> {
        let cfg_override;
        let config = if let Some(t) = fit.num_threads {
            let mut cfg = config.clone();
            cfg.num_threads = t;
            cfg_override = cfg;
            &cfg_override
        } else {
            config
        };
        config.validate()?;
        let probe = fit.probe;
        let _fit_span = clock::span(probe, "fit");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut report = TrainingReport::default();

        // ---- processing + truth projection -------------------------------
        // Ingestion is shard-at-a-time: only one shard's raw samples live in
        // RAM at once. `par_map` is order-preserving and per-item
        // independent, so concatenating per-shard results equals one
        // `par_map` over the whole dataset — every downstream stage (and
        // every RNG draw) is bit-identical at any shard size.
        let process_source = |src: &mut dyn SampleSource| -> Result<
            Vec<Option<(ProcessedTrajectory, Candidate)>>,
            LeadError,
        > {
            let mut out = Vec::new();
            let mut batch: Vec<TrainSample> = Vec::new();
            for shard in 0..src.num_shards() {
                batch.clear();
                src.read_shard(shard, &mut |s| batch.push(s))?;
                out.extend(lead_nn::par::par_map(config.num_threads, &batch, |_, s| {
                    let proc = ProcessedTrajectory::from_raw_probed(&s.raw, config, probe);
                    match truth_stay_indices(&proc, &s.truth) {
                        Some((l, u)) if proc.num_stay_points() >= 2 => {
                            Some((proc, Candidate::new(l, u)))
                        }
                        _ => None,
                    }
                }));
            }
            Ok(out)
        };
        let maybe_train = process_source(train)?;
        let maybe_val = match val {
            Some(v) => process_source(v)?,
            None => Vec::new(),
        };
        let skipped = maybe_train
            .iter()
            .chain(&maybe_val)
            .filter(|o| o.is_none())
            .count();
        let processed: Vec<(ProcessedTrajectory, Candidate)> =
            maybe_train.into_iter().flatten().collect();
        let val_processed: Vec<(ProcessedTrajectory, Candidate)> =
            maybe_val.into_iter().flatten().collect();
        report.skipped_samples = skipped;
        if processed.is_empty() {
            return Err(LeadError::NoTrainableSamples { skipped });
        }
        report.used_samples = processed.len();
        if probe.enabled() {
            probe.count("fit.used_samples", processed.len() as u64);
            probe.count("fit.skipped_samples", skipped as u64);
        }

        // ---- feature normalisation ----------------------------------------
        let feature_span = clock::span(probe, "fit.features");
        // Rows are extracted per trajectory in parallel and flattened in
        // trajectory order, so the fitted normaliser is thread-count
        // independent.
        let rows: Vec<Vec<f32>> =
            lead_nn::par::par_map(config.num_threads, &processed, |_, (proc, _)| {
                proc.cleaned
                    .points()
                    .iter()
                    .map(|p| raw_features(poi_db, config.poi_radius_m, options.use_poi, p))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        let normalizer = Normalizer::fit(&rows);
        drop(rows);

        // ---- per-trajectory features ---------------------------------------
        // Outer loop over trajectories is parallel; the inner extraction runs
        // serial (threads = 1) to avoid nested thread spawning.
        let fx = FeatureExtractor::new(poi_db, config, options.use_poi, &normalizer);
        let features: Vec<TrajectoryFeatures> =
            lead_nn::par::par_map(config.num_threads, &processed, |_, (proc, _)| {
                fx.trajectory_features_probed(proc, 1, probe)
            });
        let val_features: Vec<TrajectoryFeatures> =
            lead_nn::par::par_map(config.num_threads, &val_processed, |_, (proc, _)| {
                fx.trajectory_features_probed(proc, 1, probe)
            });
        drop(feature_span);

        // ---- autoencoder (self-supervised) ----------------------------------
        let ae_span = clock::span(probe, "fit.autoencoder");
        let mut autoencoder = new_autoencoder(config, options, &mut rng);
        let sample_candidates = |set: &[(ProcessedTrajectory, Candidate)],
                                 tfs: &[TrajectoryFeatures],
                                 rng: &mut StdRng| {
            let mut out = Vec::new();
            for ((proc, _), tf) in set.iter().zip(tfs) {
                let mut cands = proc.candidates.clone();
                cands.shuffle(rng);
                for c in cands.into_iter().take(config.ae_samples_per_trajectory) {
                    out.push(tf.candidate(c));
                }
            }
            out
        };
        let ae_samples = sample_candidates(&processed, &features, &mut rng);
        let ae_val_samples = sample_candidates(&val_processed, &val_features, &mut rng);
        let val_opt = (!ae_val_samples.is_empty()).then_some(ae_val_samples.as_slice());
        let (ae_curve, ae_val_curve) =
            autoencoder.train(&ae_samples, val_opt, config, &mut rng, probe);
        report.ae_curve = ae_curve;
        report.ae_val_curve = ae_val_curve;
        drop(ae_samples);
        drop(ae_val_samples);
        drop(ae_span);

        // ---- candidate encoding (compressor frozen) --------------------------
        // Parallel across trajectories; each trajectory encodes serially.
        let encode_span = clock::span(probe, "fit.encode");
        let ae_ref = &autoencoder;
        let encoded: Vec<Vec<Matrix>> =
            lead_nn::par::par_map(config.num_threads, &features, |i, tf| {
                ae_ref.encode_all(tf, &processed[i].0.candidates)
            });
        let val_encoded: Vec<Vec<Matrix>> =
            lead_nn::par::par_map(config.num_threads, &val_features, |i, tf| {
                ae_ref.encode_all(tf, &val_processed[i].0.candidates)
            });
        drop(encode_span);

        // ---- detectors ---------------------------------------------------------
        let detector_span = clock::span(probe, "fit.detectors");
        let c_dim = autoencoder.c_vec_dim();
        let detector_items = |set: &[(ProcessedTrajectory, Candidate)],
                              enc: &[Vec<Matrix>],
                              forward: bool|
         -> Vec<(Vec<Vec<Matrix>>, Matrix)> {
            lead_nn::par::par_map(config.num_threads, set, |idx, (proc, truth)| {
                let cvecs = &enc[idx];
                let n = proc.num_stay_points();
                let by_cand = candidate_index_map(n);
                let groups = build_groups(n);
                let side = if forward {
                    &groups.forward
                } else {
                    &groups.backward
                };
                let group: Vec<Vec<Matrix>> = side
                    .iter()
                    .map(|sub| sub.iter().map(|c| cvecs[by_cand(*c)].clone()).collect())
                    .collect();
                let order = if forward {
                    forward_flat_order(n)
                } else {
                    backward_flat_order(n)
                };
                let label = smoothed_label(&order, *truth, config.label_epsilon);
                (group, label)
            })
        };
        let train_group_detector =
            |forward: bool, rng: &mut StdRng, report: &mut TrainingReport| -> GroupDetector {
                let mut det = GroupDetector::new(config, c_dim, rng);
                let items = detector_items(&processed, &encoded, forward);
                let val_items = detector_items(&val_processed, &val_encoded, forward);
                let val_opt = (!val_items.is_empty()).then_some(val_items.as_slice());
                let scope = if forward { "det.fwd" } else { "det.bwd" };
                let curves = det.train(&items, val_opt, config, rng, probe, scope);
                if forward {
                    (report.forward_kld_curve, report.forward_val_kld_curve) = curves;
                } else {
                    (report.backward_kld_curve, report.backward_val_kld_curve) = curves;
                }
                det
            };

        // Field initialisers run in source order: the forward detector is
        // built and trained before the backward one draws from `rng`.
        let detector = match options.detector {
            DetectorChoice::Both => Detector::Both {
                forward: train_group_detector(true, &mut rng, &mut report),
                backward: train_group_detector(false, &mut rng, &mut report),
            },
            DetectorChoice::ForwardOnly => {
                Detector::Forward(train_group_detector(true, &mut rng, &mut report))
            }
            DetectorChoice::BackwardOnly => {
                Detector::Backward(train_group_detector(false, &mut rng, &mut report))
            }
            DetectorChoice::Mlp => {
                let mut det = MlpDetector::new(c_dim, &mut rng);
                let mlp_items = |set: &[(ProcessedTrajectory, Candidate)],
                                 enc: &[Vec<Matrix>]|
                 -> Vec<(Vec<Matrix>, usize)> {
                    set.iter()
                        .zip(enc)
                        .map(|((proc, truth), cvecs)| {
                            let n = proc.num_stay_points();
                            let idx = candidate_index_map(n)(*truth);
                            (cvecs.clone(), idx)
                        })
                        .collect()
                };
                let items = mlp_items(&processed, &encoded);
                let val_items = mlp_items(&val_processed, &val_encoded);
                let val_opt = (!val_items.is_empty()).then_some(val_items.as_slice());
                report.mlp_curve = det.train(&items, val_opt, config, &mut rng, probe).0;
                Detector::Mlp(det)
            }
        };
        drop(detector_span);

        let lead = Self::from_parts(config, options, normalizer, autoencoder, detector);
        Ok((lead, report))
    }

    /// The configured variant.
    pub fn options(&self) -> LeadOptions {
        LeadOptions {
            use_poi: self.use_poi,
            use_attention: self.use_attention,
            hierarchical: self.hierarchical,
            detector: match self.detector {
                Detector::Both { .. } => DetectorChoice::Both,
                Detector::Forward(_) => DetectorChoice::ForwardOnly,
                Detector::Backward(_) => DetectorChoice::BackwardOnly,
                Detector::Mlp(_) => DetectorChoice::Mlp,
            },
        }
    }

    /// The framework configuration.
    pub fn config(&self) -> &LeadConfig {
        &self.config
    }

    /// The online stage: detects the loaded trajectory of an unseen raw
    /// trajectory. Returns `None` when fewer than two stay points are
    /// extracted (no candidate exists). Thin convenience for
    /// [`Self::detect_opts`] with [`DetectOptions::default`].
    pub fn detect(
        &self,
        raw: &lead_geo::Trajectory,
        poi_db: &PoiDatabase,
    ) -> Option<DetectionResult> {
        self.detect_opts(raw, poi_db, &DetectOptions::default())
    }

    /// Detects every raw trajectory of a batch, parallel across
    /// trajectories. Results keep the input order; a trajectory with fewer
    /// than two stay points yields `None`, exactly as [`Self::detect`].
    /// Thin convenience for [`Self::detect_batch_opts`].
    pub fn detect_batch(
        &self,
        raws: &[lead_geo::Trajectory],
        poi_db: &PoiDatabase,
    ) -> Vec<Option<DetectionResult>> {
        self.detect_batch_opts(raws, poi_db, &DetectOptions::default())
    }

    /// [`Self::detect`] with explicit [`DetectOptions`]: a worker-thread
    /// override and an observability probe receiving per-stage spans
    /// (`detect`, `processing`, `features`, `encode`, `detect.score`,
    /// `detect.merge`) and counters. Results are bit-identical for every
    /// thread count and probe.
    ///
    /// Scoring is the all-at-once case of the per-day state that
    /// [`crate::streaming::StreamingDetector`] extends stay by stay
    /// (DESIGN.md §16): every stay point is appended in one call.
    pub fn detect_opts(
        &self,
        raw: &lead_geo::Trajectory,
        poi_db: &PoiDatabase,
        opts: &DetectOptions<'_>,
    ) -> Option<DetectionResult> {
        let _span = clock::span(opts.probe, "detect");
        let processed = ProcessedTrajectory::from_raw_probed(raw, &self.config, opts.probe);
        let scored = DayScorer::new(self).score(
            self,
            processed.cleaned.points(),
            &processed.stay_points,
            poi_db,
            opts,
        )?;
        Some(DetectionResult {
            processed,
            probabilities: scored.probabilities,
            detected: scored.detected?,
        })
    }

    /// [`Self::detect_batch`] with explicit [`DetectOptions`]; additionally
    /// records batch counters (`batch.trajectories`, `batch.detected`) and a
    /// `batch.throughput_per_s` gauge when a recording probe is attached.
    pub fn detect_batch_opts(
        &self,
        raws: &[lead_geo::Trajectory],
        poi_db: &PoiDatabase,
        opts: &DetectOptions<'_>,
    ) -> Vec<Option<DetectionResult>> {
        let probe = opts.probe;
        let stopwatch = probe.enabled().then(clock::Stopwatch::start);
        let outer_threads = opts.num_threads.unwrap_or(self.config.num_threads);
        // Parallel across trajectories; each single detection runs serial
        // (threads = 1) so threads are never nested.
        let single = DetectOptions {
            num_threads: Some(1),
            probe,
        };
        let results = lead_nn::par::par_map(outer_threads, raws, |_, raw| {
            self.detect_opts(raw, poi_db, &single)
        });
        if let Some(sw) = stopwatch {
            probe.count("batch.trajectories", raws.len() as u64);
            probe.count("batch.detected", results.iter().flatten().count() as u64);
            let secs = sw.elapsed().as_secs_f64();
            if secs > 0.0 {
                probe.gauge("batch.throughput_per_s", raws.len() as f64 / secs);
            }
        }
        results
    }
}

/// Options for one detection call ([`Lead::detect_opts`],
/// [`Lead::detect_batch_opts`], [`crate::streaming::StreamingDetector`]).
///
/// The `Default` instance reproduces [`Lead::detect`] exactly: the model's
/// configured thread count and no instrumentation.
#[derive(Clone, Copy)]
pub struct DetectOptions<'p> {
    /// Worker threads for per-segment feature extraction; `None` uses the
    /// model's `config.num_threads`. Callers that already parallelise across
    /// trajectories (an evaluation sweep, [`Lead::detect_batch_opts`])
    /// should pass `Some(1)` so thread pools are never nested. Every value
    /// yields bit-identical results (the `lead_nn::par` contract).
    pub num_threads: Option<usize>,
    /// Observability sink receiving per-stage spans and counters. Metric
    /// values never feed back into computation: detection results are
    /// bit-identical whether or not a recording probe is attached.
    pub probe: &'p dyn Probe,
}

impl Default for DetectOptions<'_> {
    fn default() -> Self {
        DetectOptions {
            num_threads: None,
            probe: &NOOP,
        }
    }
}

impl<'p> DetectOptions<'p> {
    /// Default options: model thread count, no probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the worker-thread count for this call.
    #[must_use]
    pub fn with_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = Some(num_threads);
        self
    }

    /// Attaches an observability probe for this call.
    #[must_use]
    pub fn with_probe<'q>(self, probe: &'q dyn Probe) -> DetectOptions<'q> {
        DetectOptions {
            num_threads: self.num_threads,
            probe,
        }
    }
}

/// Options for one fit ([`Lead::fit_streaming`]).
///
/// The `Default` instance is what [`Lead::fit`] uses: the configuration's
/// thread count and no instrumentation.
#[derive(Clone, Copy)]
pub struct FitOptions<'p> {
    /// Worker threads for the sample-parallel stages; `None` uses
    /// `config.num_threads`. Every value yields bit-identical results (the
    /// `lead_nn::par` contract).
    pub num_threads: Option<usize>,
    /// Observability sink receiving per-stage spans, counters, and training
    /// curves. Metrics are write-only: the trained model is bit-identical
    /// for any probe.
    pub probe: &'p dyn Probe,
}

impl Default for FitOptions<'_> {
    fn default() -> Self {
        FitOptions {
            num_threads: None,
            probe: &NOOP,
        }
    }
}

impl<'p> FitOptions<'p> {
    /// Default options: configured thread count, no probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the worker-thread count for this fit.
    #[must_use]
    pub fn with_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = Some(num_threads);
        self
    }

    /// Attaches an observability probe for this fit.
    #[must_use]
    pub fn with_probe<'q>(self, probe: &'q dyn Probe) -> FitOptions<'q> {
        FitOptions {
            num_threads: self.num_threads,
            probe,
        }
    }
}

/// Maps a candidate to its position in the canonical (forward) flattening of
/// `n` stay points: `(i, j) → i·n − i(i+1)/2 + (j − i − 1)`.
fn candidate_index_map(n: usize) -> impl Fn(Candidate) -> usize {
    move |c: Candidate| {
        debug_assert!(c.end_sp < n);
        c.start_sp * n - c.start_sp * (c.start_sp + 1) / 2 + (c.end_sp - c.start_sp - 1)
    }
}

/// Re-orders a backward-flattened distribution into the canonical order.
fn reorder_backward_to_canonical(n: usize, bwd: &[f32]) -> Vec<f32> {
    let by_cand = candidate_index_map(n);
    let mut out = vec![0.0; bwd.len()];
    for (pos, c) in backward_flat_order(n).into_iter().enumerate() {
        out[by_cand(c)] = bwd[pos];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processing::enumerate_candidates;

    #[test]
    fn candidate_index_map_matches_enumeration() {
        for n in 2..12 {
            let f = candidate_index_map(n);
            for (i, c) in enumerate_candidates(n).into_iter().enumerate() {
                assert_eq!(f(c), i, "n={n} c={c:?}");
            }
        }
    }

    #[test]
    fn reorder_backward_roundtrips() {
        let n = 5;
        let m = n * (n - 1) / 2;
        // Distribution whose value encodes the candidate identity.
        let order = backward_flat_order(n);
        let bwd: Vec<f32> = order
            .iter()
            .map(|c| (c.start_sp * 10 + c.end_sp) as f32)
            .collect();
        let canonical = reorder_backward_to_canonical(n, &bwd);
        for (i, c) in enumerate_candidates(n).into_iter().enumerate() {
            assert_eq!(canonical[i], (c.start_sp * 10 + c.end_sp) as f32);
        }
        assert_eq!(canonical.len(), m);
    }

    #[test]
    fn options_names_match_paper() {
        assert_eq!(LeadOptions::full().name(), "LEAD");
        assert_eq!(LeadOptions::no_poi().name(), "LEAD-NoPoi");
        assert_eq!(LeadOptions::no_sel().name(), "LEAD-NoSel");
        assert_eq!(LeadOptions::no_hie().name(), "LEAD-NoHie");
        assert_eq!(LeadOptions::no_gro().name(), "LEAD-NoGro");
        assert_eq!(LeadOptions::no_for().name(), "LEAD-NoFor");
        assert_eq!(LeadOptions::no_bac().name(), "LEAD-NoBac");
    }
}
