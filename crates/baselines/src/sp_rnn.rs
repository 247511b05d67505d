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
use lead_nn::layers::{Gru, Linear, Lstm};
use lead_nn::optim::Adam;
use lead_nn::train::{AccumTrainer, EarlyStopping};
use lead_nn::{Graph, Matrix, ParamSet, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
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
        let mut trainer = AccumTrainer::new(
            Adam::new(&model.params, lead_config.learning_rate.max(1e-4)),
            lead_config.batch_accumulation,
        )
        .with_clip_norm(lead_config.grad_clip_norm);
        let mut stopper = EarlyStopping::new(lead_config.early_stopping_patience, 1e-4);
        let mut order: Vec<usize> = (0..items.len()).collect();
        let mut curve = Vec::new();
        for _epoch in 0..rnn_config.max_epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0f64;
            for &i in &order {
                let (seq, y) = &items[i];
                let mut g = Graph::new(&model.params);
                let z = model.logit(&mut g, seq);
                let loss = g.bce_with_logits_loss(z, &Matrix::from_vec(1, 1, vec![*y]));
                total += g.scalar(loss) as f64;
                let grads = g.backward(loss);
                trainer.submit(&mut model.params, grads);
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

    fn logit(&self, g: &mut Graph, seq: &Matrix) -> Var {
        assert!(seq.rows() > 0, "stay-point feature sequence is empty");
        let input = g.constant(seq.clone());
        let xs: Vec<Var> = (0..seq.rows()).map(|r| g.row(input, r)).collect();
        let last = match &self.cell {
            #[expect(
                clippy::expect_used,
                reason = "xs non-empty is asserted above, and the RNN preserves length"
            )]
            Cell::Gru(cell) => *cell.forward(g, &xs).last().expect("non-empty"),
            #[expect(
                clippy::expect_used,
                reason = "xs non-empty is asserted above, and the RNN preserves length"
            )]
            Cell::Lstm(cell) => *cell.forward(g, &xs).last().expect("non-empty"),
        };
        self.out.forward(g, last)
    }

    /// The l/u probability of one stay point's feature sequence.
    pub fn stay_probability(&self, seq: &Matrix) -> f32 {
        let mut g = Graph::new(&self.params);
        let z = self.logit(&mut g, seq);
        let p = g.sigmoid(z);
        g.value(p).at(0, 0)
    }

    /// Detects the loaded trajectory of a raw trajectory; `None` when fewer
    /// than two stay points are extracted.
    pub fn detect(&self, raw: &Trajectory, poi_db: &PoiDatabase) -> Option<SpDetection> {
        let processed = ProcessedTrajectory::from_raw(raw, &self.lead_config);
        let n = processed.num_stay_points();
        if n < 2 {
            return None;
        }
        let fx = FeatureExtractor::new(poi_db, &self.lead_config, self.use_poi, &self.normalizer);
        let flags: Vec<bool> = processed
            .stay_points
            .iter()
            .map(|sp| {
                let seq = fx.range_features(&processed, sp.start, sp.end);
                self.stay_probability(&seq) >= self.rnn_config.threshold
            })
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
