//! SP-GRU and SP-LSTM: recurrent per-stay-point binary classifiers
//! (Section VI-A, Baselines (2)–(3)).
//!
//! Each extracted stay point's feature sequence (the same 32-dimensional
//! point features LEAD uses) is classified as *l/u stay point* or *ordinary
//! stay point* by a 128-hidden-unit GRU or LSTM; the greedy strategy then
//! assembles the loaded trajectory from the flags. Crucially — and this is
//! the paper's point — the classifier never sees the *moving behaviour*
//! around the stay, so staying scenarios that differ only in their movement
//! context (loading fuel vs. resting at the same fueling station) are
//! indistinguishable to it.

use crate::greedy::{greedy_assemble, SpDetection};
use lead_core::config::LeadConfig;
use lead_core::features::{raw_features, FeatureExtractor, Normalizer};
use lead_core::label::truth_stay_indices;
use lead_core::pipeline::TrainSample;
use lead_core::poi::PoiDatabase;
use lead_core::processing::ProcessedTrajectory;
use lead_geo::Trajectory;
use lead_nn::bptt::{GruActs, LstmActs, TrainScratch};
use lead_nn::infer::{LstmState, Packing, Scratch};
use lead_nn::layers::{Gru, Linear, Lstm};
use lead_nn::optim::Adam;
use lead_nn::simd::Kernel;
use lead_nn::train::{AccumTrainer, EarlyStopping, EpochPlan};
use lead_nn::{Gradients, Matrix, ParamSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which recurrent cell classifies the stay points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RnnKind {
    /// SP-GRU.
    Gru,
    /// SP-LSTM.
    Lstm,
}

impl RnnKind {
    /// The paper's method name.
    pub fn name(&self) -> &'static str {
        match self {
            RnnKind::Gru => "SP-GRU",
            RnnKind::Lstm => "SP-LSTM",
        }
    }
}

/// Hyper-parameters of the RNN baselines.
#[derive(Debug, Clone)]
pub struct SpRnnConfig {
    /// Hidden units (paper: 128).
    pub hidden: usize,
    /// Maximum training epochs.
    pub max_epochs: usize,
    /// Classification threshold on the sigmoid output.
    pub threshold: f32,
}

impl SpRnnConfig {
    /// The paper's settings.
    pub fn paper() -> Self {
        Self {
            hidden: 128,
            max_epochs: 15,
            threshold: 0.5,
        }
    }

    /// Small settings for tests.
    pub fn fast_test() -> Self {
        Self {
            hidden: 12,
            max_epochs: 2,
            threshold: 0.5,
        }
    }
}

impl Default for SpRnnConfig {
    fn default() -> Self {
        Self::paper()
    }
}

enum Cell {
    Gru(Gru),
    Lstm(Lstm),
}

/// Reusable buffers of one training item's passes.
#[derive(Default)]
struct ItemScratch {
    hs: Vec<f32>,
    logit: Vec<f32>,
    dy: Vec<f32>,
    dlast: Vec<f32>,
    dh: Vec<f32>,
    gru: GruActs,
    lstm: LstmActs,
    train: TrainScratch,
}

/// One stay point's BCE loss and its gradients, by a packed forward and
/// backward pass over its feature sequence. `to_bits`-equal to recording
/// the cell over the sequence's rows and the output layer over its last
/// hidden state on a tape, with `bce_with_logits_loss` and
/// `Graph::backward`.
fn loss_and_gradients(
    cell: &Cell,
    out: &Linear,
    ps: &ParamSet,
    (seq, y): &(Matrix, f32),
    s: &mut ItemScratch,
) -> (f32, Gradients) {
    assert!(seq.rows() > 0, "stay-point feature sequence is empty");
    let pack = Packing::back_to_back(&[seq.rows()]);
    match cell {
        Cell::Gru(c) => c.train_forward(ps, &pack, seq.data(), &mut s.gru, &mut s.hs),
        Cell::Lstm(c) => {
            c.train_forward(ps, &pack, seq.data(), &mut s.lstm, &mut s.hs, &mut s.train)
        }
    }
    let last = s.hs.len() - out.in_dim();
    out.infer(ps, &s.hs[last..], &mut s.logit);
    let target = [*y];
    let loss = lead_nn::loss::bce_with_logits(&s.logit, &target);
    lead_nn::loss::bce_with_logits_grad(1.0, &s.logit, &target, &mut s.dy);
    let mut grads = ps.zero_gradients();
    out.train_backward(
        ps,
        &s.hs[last..],
        &s.dy,
        Some(&mut s.dlast),
        &mut grads,
        &mut s.train,
    );
    s.dh.clear();
    s.dh.resize(last, 0.0);
    s.dh.extend_from_slice(&s.dlast);
    match cell {
        Cell::Gru(c) => c.train_backward(
            ps,
            &pack,
            seq.data(),
            &s.gru,
            &s.dh,
            &mut grads,
            &mut s.train,
        ),
        Cell::Lstm(c) => c.train_backward(
            ps,
            &pack,
            seq.data(),
            &s.lstm,
            &s.dh,
            None,
            &mut grads,
            &mut s.train,
        ),
    }
    (loss, grads)
}

/// A trained SP-GRU / SP-LSTM baseline.
pub struct SpRnn {
    kind: RnnKind,
    params: ParamSet,
    cell: Cell,
    out: Linear,
    normalizer: Normalizer,
    lead_config: LeadConfig,
    rnn_config: SpRnnConfig,
    use_poi: bool,
}

impl SpRnn {
    /// Trains the classifier on the archive; returns the model and the
    /// per-epoch mean BCE curve.
    ///
    /// Each accumulation window's stay points run data-parallel on
    /// `lead_config.num_threads` workers; their gradients are submitted in
    /// item order, so the weights are bit-identical for every thread count.
    pub fn fit(
        kind: RnnKind,
        samples: &[TrainSample],
        poi_db: &PoiDatabase,
        lead_config: &LeadConfig,
        rnn_config: &SpRnnConfig,
    ) -> (Self, Vec<f32>) {
        let config_check = lead_config.validate();
        assert!(config_check.is_ok(), "invalid LeadConfig: {config_check:?}");
        let mut rng = StdRng::seed_from_u64(lead_config.seed ^ 0x5F0F);

        // Processing + per-stay labels.
        let mut stays: Vec<(ProcessedTrajectory, Vec<bool>)> = Vec::new();
        for s in samples {
            let proc = ProcessedTrajectory::from_raw(&s.raw, lead_config);
            if let Some((l, u)) = truth_stay_indices(&proc, &s.truth) {
                let mut flags = vec![false; proc.num_stay_points()];
                flags[l] = true;
                flags[u] = true;
                stays.push((proc, flags));
            }
        }
        assert!(!stays.is_empty(), "no training sample survived processing");

        // Normalisation over the training stay points' features.
        let mut rows = Vec::new();
        for (proc, _) in &stays {
            for p in proc.cleaned.points() {
                rows.push(raw_features(poi_db, lead_config.poi_radius_m, true, p));
            }
        }
        let normalizer = Normalizer::fit(&rows);
        drop(rows);
        let fx = FeatureExtractor::new(poi_db, lead_config, true, &normalizer);

        // Feature sequences per stay point.
        let mut items: Vec<(Matrix, f32)> = Vec::new();
        for (proc, flags) in &stays {
            for (k, sp) in proc.stay_points.iter().enumerate() {
                let seq = fx.range_features(proc, sp.start, sp.end);
                items.push((seq, if flags[k] { 1.0 } else { 0.0 }));
            }
        }

        // Model.
        let mut ps = ParamSet::new();
        let in_dim = lead_core::features::FEATURE_DIM;
        let cell = match kind {
            RnnKind::Gru => Cell::Gru(Gru::new(
                &mut ps,
                &mut rng,
                "sp.gru",
                in_dim,
                rnn_config.hidden,
            )),
            RnnKind::Lstm => Cell::Lstm(Lstm::new(
                &mut ps,
                &mut rng,
                "sp.lstm",
                in_dim,
                rnn_config.hidden,
            )),
        };
        let out = Linear::new(&mut ps, &mut rng, "sp.out", rnn_config.hidden, 1);
        let mut model = Self {
            kind,
            params: ps,
            cell,
            out,
            normalizer,
            lead_config: lead_config.clone(),
            rnn_config: rnn_config.clone(),
            use_poi: true,
        };

        // Training loop (BCE per stay point, accumulated batches).
        let batch = lead_config.batch_accumulation;
        let mut trainer = AccumTrainer::new(
            Adam::new(&model.params, lead_config.learning_rate.max(1e-4)),
            batch,
        )
        .with_clip_norm(lead_config.grad_clip_norm);
        let mut stopper = EarlyStopping::new(lead_config.early_stopping_patience, 1e-4);
        let mut plan = EpochPlan::new(items.len());
        let mut curve = Vec::new();
        let (cell, out) = (&model.cell, &model.out);
        for _epoch in 0..rnn_config.max_epochs {
            plan.reshuffle(&mut rng);
            let mut total = 0.0f64;
            for window in plan.windows(batch) {
                let window: Vec<&(Matrix, f32)> = window.iter().map(|&i| &items[i]).collect();
                let losses = trainer.submit_window_with(
                    &mut model.params,
                    lead_config.num_threads,
                    &window,
                    ItemScratch::default,
                    |s, _, item, ps| loss_and_gradients(cell, out, ps, item, s),
                );
                for l in losses {
                    total += l as f64;
                }
            }
            trainer.flush(&mut model.params);
            let mean = (total / items.len() as f64) as f32;
            curve.push(mean);
            if stopper.observe(mean) {
                break;
            }
        }
        (model, curve)
    }

    /// The method name ("SP-GRU" / "SP-LSTM").
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// The l/u probability of every stay point of a processed day, in stay
    /// order: one packed pass of the cell over all of the day's stay
    /// points, then the output layer over each one's last hidden state.
    pub fn stay_probabilities(
        &self,
        processed: &ProcessedTrajectory,
        poi_db: &PoiDatabase,
    ) -> Vec<f32> {
        let fx = FeatureExtractor::new(poi_db, &self.lead_config, self.use_poi, &self.normalizer);
        let (mut lens, mut xs) = (Vec::new(), Vec::new());
        for sp in &processed.stay_points {
            let seq = fx.range_features(processed, sp.start, sp.end);
            lens.push(seq.rows());
            xs.extend_from_slice(seq.data());
        }
        if lens.is_empty() {
            return Vec::new();
        }
        let ps = &self.params;
        let pack = Packing::back_to_back(&lens);
        let (mut hs, mut scratch) = (Vec::new(), Scratch::new());
        let h = self.out.in_dim();
        match &self.cell {
            Cell::Gru(c) => c.infer(ps, &pack, &xs, &mut hs, &mut scratch),
            Cell::Lstm(c) => {
                let mut state = LstmState::zeros(lens.len(), h);
                c.infer(ps, &pack, &xs, false, &mut state, &mut hs, &mut scratch);
            }
        }
        let lasts: Vec<f32> = (0..lens.len())
            .flat_map(|s| {
                let row = pack.output_start(s) + lens[s] - 1;
                hs[row * h..(row + 1) * h].iter().copied()
            })
            .collect();
        let mut logits = Vec::new();
        self.out.infer(ps, &lasts, &mut logits);
        let mut p = vec![0.0; logits.len()];
        lead_nn::simd::active().sigmoid(&logits, &mut p);
        p
    }

    /// Detects the loaded trajectory of a raw trajectory; `None` when fewer
    /// than two stay points are extracted.
    pub fn detect(&self, raw: &Trajectory, poi_db: &PoiDatabase) -> Option<SpDetection> {
        let processed = ProcessedTrajectory::from_raw(raw, &self.lead_config);
        let n = processed.num_stay_points();
        if n < 2 {
            return None;
        }
        let flags: Vec<bool> = self
            .stay_probabilities(&processed, poi_db)
            .into_iter()
            .map(|p| p >= self.rnn_config.threshold)
            .collect();
        let (loading, unloading) = greedy_assemble(n, &flags);
        Some(SpDetection {
            processed,
            loading,
            unloading,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lead_core::label::TruthLabel;
    use lead_core::poi::{Poi, PoiCategory};
    use lead_geo::distance::meters_to_lng_deg;
    use lead_geo::GpsPoint;

    /// A minimal world: two trajectories with dwells at factory sites and at
    /// a plain location.
    fn tiny_world() -> (Vec<TrainSample>, PoiDatabase) {
        let per_km = meters_to_lng_deg(1_000.0, 32.0);
        let mk_raw = |offset: f64| {
            let mut pts = Vec::new();
            let mut t = 0;
            for block in 0..3 {
                let lng = 120.9 + offset + block as f64 * 5.0 * per_km;
                for _ in 0..10 {
                    pts.push(GpsPoint::new(32.0, lng, t));
                    t += 120;
                }
                for k in 1..=3 {
                    pts.push(GpsPoint::new(32.0, lng + k as f64 * 1.25 * per_km, t));
                    t += 120;
                }
            }
            Trajectory::new(pts)
        };
        let truth = TruthLabel {
            load_start_s: 0,
            load_end_s: 1_080,
            unload_start_s: 1_560,
            unload_end_s: 2_640,
        };
        let samples: Vec<TrainSample> = (0..3)
            .map(|i| TrainSample {
                raw: mk_raw(i as f64 * 0.0001),
                truth,
            })
            .collect();
        let pois = vec![
            Poi {
                lat: 32.0,
                lng: 120.9,
                category: PoiCategory::ChemicalFactory,
            },
            Poi {
                lat: 32.0,
                lng: 120.9 + 5.0 * per_km,
                category: PoiCategory::Factory,
            },
            Poi {
                lat: 32.0,
                lng: 120.9 + 10.0 * per_km,
                category: PoiCategory::Restaurant,
            },
        ];
        (samples, PoiDatabase::new(pois))
    }

    #[test]
    fn fit_and_detect_run_end_to_end() {
        let (samples, db) = tiny_world();
        let cfg = LeadConfig::fast_test();
        for kind in [RnnKind::Gru, RnnKind::Lstm] {
            let (model, curve) = SpRnn::fit(kind, &samples, &db, &cfg, &SpRnnConfig::fast_test());
            assert!(!curve.is_empty());
            assert!(curve.iter().all(|l| l.is_finite()));
            let det = model.detect(&samples[0].raw, &db).unwrap();
            assert!(det.loading < det.unloading);
            assert_eq!(model.name(), kind.name());
        }
    }

    /// FNV-1a, 64 bit.
    fn fnv1a(hash: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The l/u probability of every stay point of `raw`, in stay order.
    fn stay_probabilities(model: &SpRnn, raw: &Trajectory, db: &PoiDatabase) -> Vec<f32> {
        let processed = ProcessedTrajectory::from_raw(raw, &model.lead_config);
        model.stay_probabilities(&processed, db)
    }

    /// Pins SP-GRU's and SP-LSTM's trained weights, loss curves and stay
    /// probabilities across commits: only a stored digest catches a change
    /// that shifts an RNG draw or a rounding.
    #[test]
    fn golden_digests_of_both_cells() {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        let (samples, db) = tiny_world();
        let mut cfg = LeadConfig::fast_test();
        cfg.batch_accumulation = 4;
        let golden: [(RnnKind, u64, u64); 2] = [
            (RnnKind::Gru, 0x59db_1738_1b77_4c09, 0xadd9_4306_c5e8_d27a),
            (RnnKind::Lstm, 0xd942_153c_a9e1_3276, 0xa8c9_f982_028b_c458),
        ];
        for (kind, model_digest, probs_digest) in golden {
            let (model, curve) = SpRnn::fit(kind, &samples, &db, &cfg, &SpRnnConfig::fast_test());
            let mut weights = FNV_OFFSET;
            for (_, m) in model.params.iter() {
                for v in m.data() {
                    fnv1a(&mut weights, &v.to_bits().to_le_bytes());
                }
            }
            for l in &curve {
                fnv1a(&mut weights, &l.to_bits().to_le_bytes());
            }
            let mut probs = FNV_OFFSET;
            for s in &samples {
                for p in stay_probabilities(&model, &s.raw, &db) {
                    fnv1a(&mut probs, &p.to_bits().to_le_bytes());
                }
            }
            assert_eq!(
                (weights, probs),
                (model_digest, probs_digest),
                "{} digests moved: {weights:#018x}, {probs:#018x}",
                kind.name()
            );
        }
    }

    /// Training runs each accumulation window data-parallel: the weights,
    /// the curve and the stay probabilities must not depend on the thread
    /// count.
    #[test]
    fn fit_is_bit_identical_across_thread_counts() {
        let (samples, db) = tiny_world();
        let fingerprint = |kind: RnnKind, num_threads: usize| {
            let mut cfg = LeadConfig::fast_test();
            cfg.num_threads = num_threads;
            cfg.batch_accumulation = 4;
            let (model, curve) = SpRnn::fit(kind, &samples, &db, &cfg, &SpRnnConfig::fast_test());
            let mut bits: Vec<u32> = curve.iter().map(|l| l.to_bits()).collect();
            for (_, m) in model.params.iter() {
                bits.extend(m.data().iter().map(|v| v.to_bits()));
            }
            for s in &samples {
                bits.extend(
                    stay_probabilities(&model, &s.raw, &db)
                        .iter()
                        .map(|p| p.to_bits()),
                );
            }
            bits
        };
        for kind in [RnnKind::Gru, RnnKind::Lstm] {
            assert_eq!(
                fingerprint(kind, 1),
                fingerprint(kind, 2),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn training_reduces_bce_with_more_epochs() {
        let (samples, db) = tiny_world();
        let mut cfg = LeadConfig::fast_test();
        cfg.learning_rate = 3e-3;
        cfg.batch_accumulation = 4;
        let rc = SpRnnConfig {
            hidden: 12,
            max_epochs: 12,
            threshold: 0.5,
        };
        let (_, curve) = SpRnn::fit(RnnKind::Gru, &samples, &db, &cfg, &rc);
        assert!(
            curve.last().unwrap() < &curve[0],
            "BCE should fall: {curve:?}"
        );
    }
}
