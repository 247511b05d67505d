//! Regenerates the paper's evaluation (Section VI) from one synthetic world.
//!
//! `repro <artefact…> <scale>` generates the world of `<scale>` once, trains
//! each method the artefacts read once (`lead_bench::plan`), sweeps each
//! fit over the test split once, and writes every requested artefact from
//! those fits: Table III, Figure 8 and the IoU table share one sweep, Table
//! IV's LEAD row and Figures 9/10 reuse the fits the tables score, and the
//! scenario suite and the layer sweep reuse the SP-R and LEAD models.
//!
//! Usage: `cargo run -p lead-bench --release --bin repro -- all quick`
//! (artefacts `table3 table4 fig8 fig9 fig10 scenarios sweep_layers all`,
//! scales `tiny quick full`).

use lead_baselines::SpRnnConfig;
use lead_bench::{parse_args, plan, write_result, Artefact, USAGE};
use lead_core::config::LeadConfig;
use lead_core::pipeline::{LeadOptions, TrainingReport};
use lead_eval::report::{
    accuracy_csv, accuracy_table, curves_csv, iou_table, scenario_csv, scenario_table, timing_table,
};
use lead_eval::runner::{sweep_test_split, train_method};
use lead_eval::{evaluate_scenarios, EvalOutcome, Method, TrainedModel};
use lead_obs::probe::NOOP;
use lead_synth::{generate_dataset, Dataset};
use std::time::Instant;

/// Seed of every scenario's injection RNG stream (independent of the world
/// seed; changing it re-rolls the pathologies, not the city or the fleet).
const SCENARIO_SEED: u64 = 6;

/// The layer sweep scores full LEAD with L = 1..=MAX_LAYERS BiLSTM layers.
const MAX_LAYERS: usize = 6;

/// One method trained once and swept once over the test split.
struct Fit {
    method: Method,
    model: TrainedModel,
    outcome: EvalOutcome,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let request = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let scale = request.scale;
    let synth = scale.synth_config();
    let lead_cfg = scale.lead_config();
    let rnn_cfg = SpRnnConfig::paper();
    let start = Instant::now();

    println!("LEAD reproduction — scale `{}`", scale.name());
    let ds = generate_dataset(&synth);
    println!(
        "dataset: {} train / {} val / {} test samples, {} POIs",
        ds.train.len(),
        ds.val.len(),
        ds.test.len(),
        ds.city.poi_db.len()
    );

    let fits: Vec<Fit> = plan(&request.artefacts)
        .into_iter()
        .map(|method| fit(method, &ds, &lead_cfg, &rnn_cfg))
        .collect();
    let fit_of = |method: Method| {
        fits.iter()
            .find(|f| f.method == method)
            .expect("the plan trains every method an artefact reads")
    };
    let outcomes = |methods: &[Method]| -> Vec<EvalOutcome> {
        methods.iter().map(|&m| fit_of(m).outcome.clone()).collect()
    };
    let file = |stem: &str, ext: &str| format!("{stem}_{}.{ext}", scale.name());
    let lead = Method::Lead(LeadOptions::full());

    for artefact in request.artefacts {
        match artefact {
            Artefact::Table3 => {
                let t3 = outcomes(&Method::table3());
                let table = accuracy_table(
                    "Table III: Accuracy of Baselines and Ours (LEAD) on the Test Set",
                    &t3,
                );
                let soft = iou_table(
                    "Soft accuracy: mean temporal IoU of detected vs true loaded intervals",
                    &t3,
                );
                println!("\n{table}\n{soft}");
                write_result(&file("table3", "txt"), &table);
                write_result(&file("table3", "csv"), &accuracy_csv(&t3));
                write_result(&file("iou", "txt"), &soft);
            }
            Artefact::Table4 => {
                let t4 = outcomes(&Method::table4());
                let table = accuracy_table(
                    "Table IV: Accuracy of LEAD and LEAD-Variants on the Test Set",
                    &t4,
                );
                println!("\n{table}");
                write_result(&file("table4", "txt"), &table);
                write_result(&file("table4", "csv"), &accuracy_csv(&t4));
            }
            Artefact::Fig8 => {
                let table = timing_table(
                    "Figure 8: Median Inference Time (ms) of Baselines and Ours (LEAD) on the Test Set",
                    &outcomes(&Method::table3()),
                );
                println!("\n{table}");
                write_result(&file("fig8", "txt"), &table);
            }
            Artefact::Fig9 => {
                let ae = |options| &fit_of(Method::Lead(options)).outcome.report.ae_curve[..];
                let csv = curves_csv(&[
                    ("HA in LEAD", ae(LeadOptions::full())),
                    ("HA in LEAD-NoSel", ae(LeadOptions::no_sel())),
                    ("HA in LEAD-NoHie", ae(LeadOptions::no_hie())),
                ]);
                write_result(&file("fig9", "csv"), &csv);
            }
            Artefact::Fig10 => {
                let report = &fit_of(lead).outcome.report;
                let csv = curves_csv(&[
                    ("Forward Detector", &report.forward_kld_curve),
                    ("Backward Detector", &report.backward_kld_curve),
                ]);
                write_result(&file("fig10", "csv"), &csv);
            }
            Artefact::Scenarios => {
                let methods = [Method::SpR, lead];
                let models: Vec<&TrainedModel> =
                    methods.iter().map(|&m| &fit_of(m).model).collect();
                let per_model =
                    evaluate_scenarios(&models, &ds, &synth, SCENARIO_SEED, &lead_cfg, &NOOP);
                let mut tables = String::new();
                let mut rows = Vec::new();
                for (method, method_rows) in methods.into_iter().zip(per_model) {
                    let table = scenario_table(
                        &format!(
                            "Robustness of {} per recording scenario (accuracy / IoU on the test split)",
                            method.name()
                        ),
                        &method_rows,
                    );
                    println!("\n{table}");
                    tables.push_str(&table);
                    tables.push('\n');
                    rows.extend(method_rows);
                }
                write_result(&file("scenarios", "txt"), &tables);
                write_result(&file("scenarios", "csv"), &scenario_csv(&rows));
            }
            Artefact::SweepLayers => {
                let csv = sweep_layers(fit_of(lead), &ds, &lead_cfg, &rnn_cfg);
                write_result(&file("sweep_layers", "csv"), &csv);
            }
        }
    }
    println!("\nrepro finished in {:.1} s", start.elapsed().as_secs_f64());
}

/// Trains `method` on the world's train/val splits and sweeps it over the
/// test split, logging one line.
fn fit(method: Method, ds: &Dataset, lead_cfg: &LeadConfig, rnn_cfg: &SpRnnConfig) -> Fit {
    let t = Instant::now();
    let (model, report) = train(method, ds, lead_cfg, rnn_cfg);
    let train_seconds = t.elapsed().as_secs_f64();
    let test = sweep_test_split(&model, &ds.test, &ds.city.poi_db, lead_cfg, &NOOP);
    println!(
        "[train] {:<12} trained in {train_seconds:.1}s, scored {} test samples ({} excluded)",
        model.name,
        test.accuracy.total(),
        test.excluded_test_samples
    );
    let outcome = EvalOutcome {
        name: model.name,
        test,
        report,
        train_seconds,
    };
    Fit {
        method,
        model,
        outcome,
    }
}

/// [`train_method`] on the world's train/val splits; exits on failure.
fn train(
    method: Method,
    ds: &Dataset,
    lead_cfg: &LeadConfig,
    rnn_cfg: &SpRnnConfig,
) -> (TrainedModel, TrainingReport) {
    train_method(
        method,
        &ds.train,
        &ds.val,
        &ds.city.poi_db,
        lead_cfg,
        rnn_cfg,
        &NOOP,
    )
    .unwrap_or_else(|e| {
        eprintln!("error: training {} failed: {e}", method.name());
        std::process::exit(1);
    })
}

/// The paper's tuning claim (Section VI-A): "we tune the number of BiLSTM
/// layers L from 1 to 10 and find the highest detection accuracy when
/// L = 4 on the validation set". Scores full LEAD on the validation split
/// for each L; the configured L reuses `lead`, every other L trains once.
fn sweep_layers(lead: &Fit, ds: &Dataset, lead_cfg: &LeadConfig, rnn_cfg: &SpRnnConfig) -> String {
    let mut csv = String::from("layers,val_accuracy_pct,train_seconds\n");
    for layers in 1..=MAX_LAYERS {
        let retrained;
        let (model, secs) = if layers == lead_cfg.detector_layers {
            (&lead.model, lead.outcome.train_seconds)
        } else {
            let mut cfg = lead_cfg.clone();
            cfg.detector_layers = layers;
            let t = Instant::now();
            retrained = train(lead.method, ds, &cfg, rnn_cfg).0;
            (&retrained, t.elapsed().as_secs_f64())
        };
        let val = sweep_test_split(model, &ds.val, &ds.city.poi_db, lead_cfg, &NOOP).accuracy;
        let acc = val.overall().unwrap_or(0.0);
        println!(
            "[sweep_layers] L = {layers}: val accuracy {acc:.1}% of {} in {secs:.0}s",
            val.total()
        );
        csv.push_str(&format!("{layers},{acc:.2},{secs:.1}\n"));
    }
    csv
}
