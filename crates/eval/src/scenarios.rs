//! Per-scenario robustness evaluation: accuracy and IoU under each named GPS
//! pathology, reported scenario by scenario and never averaged away.
//!
//! Protocol: the model trains **once** on the clean (baseline) world — real
//! deployments train on curated historical data — then sweeps the test split
//! of every [`ScenarioKind`], each generated from the same clean world with
//! one pathology injected (see [`lead_synth::scenario`]). Because the splits
//! are disjoint-truck and every injection is seeded, each scenario row is a
//! bit-reproducible measurement of *how much that pathology costs* the
//! method.

use crate::metrics::{BucketAccuracy, BucketIou};
use crate::runner::{sweep_test_split, TrainedModel};
use lead_core::config::LeadConfig;
use lead_obs::probe::Probe;
use lead_synth::{generate_scenario_dataset, Dataset, ScenarioConfig, ScenarioKind, SynthConfig};

/// One scenario row: the method's measurements on that scenario's test split.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Which pathology this row measures.
    pub scenario: ScenarioKind,
    /// The evaluated method's name.
    pub method: &'static str,
    /// Per-bucket and overall accuracy on the scenario's test split.
    pub accuracy: BucketAccuracy,
    /// Per-bucket mean temporal IoU of detected vs true loaded intervals.
    pub iou: BucketIou,
    /// Test samples whose ground truth did not survive processing under the
    /// pathology (dropped stays, unmappable labels) — itself a robustness
    /// signal, so it is reported, not hidden.
    pub excluded_test_samples: usize,
}

/// Sweeps each of `models`, trained on the clean world `clean` (what
/// `generate_dataset(base)` returns), over the test split of every scenario
/// in [`ScenarioKind::ALL`] (baseline first, as the control row), and
/// returns one row list per model, in `models` order. Each scenario world
/// is generated once and shared by every model. `scenario_seed` seeds every
/// injection stream. Sweeps cannot fail: unmappable samples are counted in
/// [`ScenarioOutcome::excluded_test_samples`].
pub fn evaluate_scenarios(
    models: &[&TrainedModel],
    clean: &Dataset,
    base: &SynthConfig,
    scenario_seed: u64,
    lead_config: &LeadConfig,
    probe: &dyn Probe,
) -> Vec<Vec<ScenarioOutcome>> {
    let mut outcomes: Vec<Vec<ScenarioOutcome>> = models
        .iter()
        .map(|_| Vec::with_capacity(ScenarioKind::ALL.len()))
        .collect();
    for kind in ScenarioKind::ALL {
        let sc = ScenarioConfig::new(kind, scenario_seed);
        // The baseline row reuses the already-generated clean dataset; every
        // other scenario regenerates the same world (identical seeds) with
        // its pathology injected.
        let ds;
        let test = if kind == ScenarioKind::Baseline {
            &clean.test
        } else {
            ds = generate_scenario_dataset(base, &sc);
            &ds.test
        };
        for (model, rows) in models.iter().zip(&mut outcomes) {
            let stats = sweep_test_split(model, test, &clean.city.poi_db, lead_config, probe);
            rows.push(ScenarioOutcome {
                scenario: kind,
                method: model.name,
                accuracy: stats.accuracy,
                iou: stats.iou,
                excluded_test_samples: stats.excluded_test_samples,
            });
        }
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::scenario_csv;
    use crate::runner::{train_method, Method};
    use lead_baselines::SpRnnConfig;
    use lead_obs::probe::NOOP;
    use lead_synth::generate_dataset;

    #[test]
    fn scenario_suite_produces_one_row_per_scenario() {
        let base = SynthConfig::tiny();
        let cfg = LeadConfig::fast_test();
        let clean = generate_dataset(&base);
        let (model, _report) = train_method(
            Method::SpR,
            &clean.train,
            &clean.val,
            &clean.city.poi_db,
            &cfg,
            &SpRnnConfig::fast_test(),
            &NOOP,
        )
        .expect("train");
        // The same model twice: the shared scenario worlds must give both
        // sweeps identical rows.
        let per_model = evaluate_scenarios(&[&model, &model], &clean, &base, 7, &cfg, &NOOP);
        assert_eq!(per_model.len(), 2);
        assert_eq!(scenario_csv(&per_model[0]), scenario_csv(&per_model[1]));
        let rows = &per_model[0];
        assert_eq!(rows.len(), ScenarioKind::ALL.len());
        for (row, kind) in rows.iter().zip(ScenarioKind::ALL) {
            assert_eq!(row.scenario, kind);
            assert_eq!(row.method, "SP-R");
            // Every scenario keeps enough usable samples to be scored: a
            // pathology that silently excluded the whole split would report
            // an empty row instead of failing loudly here.
            assert!(
                row.accuracy.total() + row.excluded_test_samples > 0,
                "{}: empty row",
                kind.label()
            );
        }
        let baseline = &rows[0];
        assert!(baseline.accuracy.total() > 0, "baseline row unscored");
    }
}
