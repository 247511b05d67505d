//! The CLI subcommands: `synth`, `train`, `detect`, `eval`.

use crate::cli::args::Args;
use crate::cli::data::{read_pois, read_split, write_pois, write_split, LoadedSplit};
use lead::core::config::LeadConfig;
use lead::core::label::truth_stay_indices;
use lead::core::pipeline::{Lead, LeadOptions};
use lead::core::processing::ProcessedTrajectory;
use lead::eval::{Bucket, BucketAccuracy};
use lead::synth::stats::DatasetStats;
use lead::synth::{generate_dataset, SynthConfig};
use std::io::Write;
use std::path::Path;

/// Runs the parsed command line; returns an error message on failure.
pub fn run(args: &Args) -> Result<(), String> {
    match args.subcommand() {
        "synth" => synth(args),
        "train" => train(args),
        "detect" => detect(args),
        "eval" => eval(args),
        "render" => render(args),
        "stats" => stats(args),
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`\n\n{}", usage())),
    }
}

/// The usage text.
pub fn usage() -> String {
    "\
lead — loaded-trajectory detection for hazardous chemicals transportation

USAGE:
  lead synth  --out DIR [--trucks N] [--days N] [--seed S]
      Generate a synthetic HCT dataset (CSV) into DIR.
  lead train  --data DIR --model FILE [--variant NAME] [--ae-epochs N] [--det-epochs N]
      Train LEAD (or a variant: full, no-poi, no-sel, no-hie, no-gro,
      no-for, no-bac) on DIR/train.csv (+ val) and save the model.
  lead detect --model FILE --data DIR --out FILE [--split test]
      Detect loaded trajectories of a split; write detections CSV.
  lead eval   --model FILE --data DIR [--split test]
      Report bucketed detection accuracy against the split's ground truth.
  lead render --model FILE --data DIR --out FILE.svg [--split test] [--seq N]
      Render trajectory N of a split with its detection as an SVG map.
  lead stats  --data DIR [--split test]
      Summarise a split: sample/truck counts, stay-point buckets, scorability.
"
    .to_string()
}

fn parse_variant(name: &str) -> Result<LeadOptions, String> {
    Ok(match name {
        "full" => LeadOptions::full(),
        "no-poi" => LeadOptions::no_poi(),
        "no-sel" => LeadOptions::no_sel(),
        "no-hie" => LeadOptions::no_hie(),
        "no-gro" => LeadOptions::no_gro(),
        "no-for" => LeadOptions::no_for(),
        "no-bac" => LeadOptions::no_bac(),
        other => return Err(format!("unknown variant `{other}`")),
    })
}

fn synth(args: &Args) -> Result<(), String> {
    let out = Path::new(args.required("out")?);
    let mut cfg = SynthConfig::paper_scaled();
    cfg.num_trucks = args.parsed_or("trucks", 60usize)?;
    cfg.days_per_truck = args.parsed_or("days", 2usize)?;
    cfg.seed = args.parsed_or("seed", cfg.seed)?;
    if cfg.num_trucks < SynthConfig::MIN_TRUCKS {
        return Err(format!(
            "--trucks must be at least {} for the 8:1:1 train/val/test split, got {}",
            SynthConfig::MIN_TRUCKS,
            cfg.num_trucks
        ));
    }
    if cfg.days_per_truck == 0 {
        return Err("--days must be at least 1".into());
    }

    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let ds = generate_dataset(&cfg);
    write_pois(&ds.city.poi_db, &out.join("pois.csv")).map_err(|e| e.to_string())?;
    write_split(&ds.train, out, "train").map_err(|e| e.to_string())?;
    write_split(&ds.val, out, "val").map_err(|e| e.to_string())?;
    write_split(&ds.test, out, "test").map_err(|e| e.to_string())?;
    println!(
        "wrote {} train / {} val / {} test trajectories and {} POIs to {}",
        ds.train.len(),
        ds.val.len(),
        ds.test.len(),
        ds.city.poi_db.len(),
        out.display()
    );
    println!("{}", DatasetStats::compute(&ds, &LeadConfig::paper()));
    Ok(())
}

fn train(args: &Args) -> Result<(), String> {
    let dir = Path::new(args.required("data")?);
    let model_path = args.required("model")?;
    let options = parse_variant(args.optional("variant").unwrap_or("full"))?;

    let mut cfg = LeadConfig::experiment();
    cfg.ae_max_epochs = args.parsed_or("ae-epochs", cfg.ae_max_epochs)?;
    cfg.detector_max_epochs = args.parsed_or("det-epochs", cfg.detector_max_epochs)?;

    let poi_db = read_pois(&dir.join("pois.csv"))?;
    let train = read_split(dir, "train")?;
    // The validation split is optional (its absence disables the validation
    // curves), but a *malformed* val file is a hard error.
    let val = if dir.join("val.csv").exists() {
        read_split(dir, "val")?
    } else {
        LoadedSplit {
            truck_ids: Vec::new(),
            samples: Vec::new(),
        }
    };
    println!(
        "training {} on {} trajectories ({} validation)…",
        options.name(),
        train.samples.len(),
        val.samples.len()
    );
    let (model, report) = Lead::fit(&train.samples, &val.samples, &poi_db, &cfg, options)
        .map_err(|e| e.to_string())?;
    println!(
        "autoencoder MSE {:.4} → {:.4} over {} epochs; skipped {} unusable samples",
        report.ae_curve.first().copied().unwrap_or(f32::NAN),
        report.ae_curve.last().copied().unwrap_or(f32::NAN),
        report.ae_curve.len(),
        report.skipped_samples,
    );
    model.save(model_path).map_err(|e| e.to_string())?;
    println!("model saved to {model_path}");
    Ok(())
}

fn detect(args: &Args) -> Result<(), String> {
    let dir = Path::new(args.required("data")?);
    let model_path = args.required("model")?;
    let out_path = args.required("out")?;
    let split = args.optional("split").unwrap_or("test");

    let model = Lead::load(model_path).map_err(|e| e.to_string())?;
    let poi_db = read_pois(&dir.join("pois.csv"))?;
    let data = read_split(dir, split)?;

    let mut w = std::io::BufWriter::new(
        std::fs::File::create(out_path).map_err(|e| format!("{out_path}: {e}"))?,
    );
    writeln!(
        w,
        "seq,truck_id,stay_points,loading_sp,unloading_sp,loaded_start_s,loaded_end_s"
    )
    .map_err(|e| e.to_string())?;
    let mut detected = 0;
    for (seq, (truck_id, sample)) in data.truck_ids.iter().zip(&data.samples).enumerate() {
        match model.detect(&sample.raw, &poi_db) {
            Some(result) => {
                let (a, b) = result.loaded_interval_s();
                writeln!(
                    w,
                    "{seq},{truck_id},{},{},{},{a},{b}",
                    result.processed.num_stay_points(),
                    result.detected.start_sp,
                    result.detected.end_sp,
                )
                .map_err(|e| e.to_string())?;
                detected += 1;
            }
            None => {
                writeln!(w, "{seq},{truck_id},<2,,,,").map_err(|e| e.to_string())?;
            }
        }
    }
    println!(
        "{detected}/{} trajectories detected; written to {out_path}",
        data.samples.len()
    );
    Ok(())
}

fn eval(args: &Args) -> Result<(), String> {
    let dir = Path::new(args.required("data")?);
    let model_path = args.required("model")?;
    let split = args.optional("split").unwrap_or("test");

    let model = Lead::load(model_path).map_err(|e| e.to_string())?;
    let poi_db = read_pois(&dir.join("pois.csv"))?;
    let data = read_split(dir, split)?;

    let mut acc = BucketAccuracy::new();
    let mut excluded = 0;
    for sample in &data.samples {
        let proc = ProcessedTrajectory::from_raw(&sample.raw, model.config());
        let Some((l, u)) = truth_stay_indices(&proc, &sample.truth) else {
            excluded += 1;
            continue;
        };
        let hit = model
            .detect(&sample.raw, &poi_db)
            .map(|r| r.detected.start_sp == l && r.detected.end_sp == u)
            .unwrap_or(false);
        acc.record(proc.num_stay_points(), hit);
    }
    println!(
        "accuracy on `{split}` ({} samples, {excluded} excluded):",
        acc.total()
    );
    for b in Bucket::ALL {
        match acc.acc(b) {
            Some(a) => println!("  {:>6}: {a:5.1}%  ({} samples)", b.label(), acc.count(b)),
            None => println!("  {:>6}:     -  (0 samples)", b.label()),
        }
    }
    match acc.overall() {
        Some(a) => println!("  {:>6}: {a:5.1}%", "3~14"),
        None => println!("  no scorable samples"),
    }
    Ok(())
}

fn stats(args: &Args) -> Result<(), String> {
    use lead::synth::stats::SplitStats;
    let dir = Path::new(args.required("data")?);
    let split = args.optional("split").unwrap_or("test");
    let data = read_split(dir, split)?;
    // SplitStats works on synth samples; adapt the loaded split.
    let samples: Vec<lead::synth::Sample> = data
        .truck_ids
        .iter()
        .zip(&data.samples)
        .map(|(&truck_id, s)| lead::synth::Sample {
            truck_id,
            day: 0,
            raw: s.raw.clone(),
            truth: s.truth,
            planned_stays: 0,
        })
        .collect();
    let stats = SplitStats::compute(&samples, &LeadConfig::paper());
    println!("`{split}`: {stats}");
    Ok(())
}

fn render(args: &Args) -> Result<(), String> {
    let dir = Path::new(args.required("data")?);
    let model_path = args.required("model")?;
    let out_path = args.required("out")?;
    let split = args.optional("split").unwrap_or("test");
    let seq: usize = args.parsed_or("seq", 0)?;

    let model = Lead::load(model_path).map_err(|e| e.to_string())?;
    let poi_db = read_pois(&dir.join("pois.csv"))?;
    let data = read_split(dir, split)?;
    let sample = data.samples.get(seq).ok_or_else(|| {
        format!(
            "--seq {seq} out of range (split has {})",
            data.samples.len()
        )
    })?;
    let result = model
        .detect(&sample.raw, &poi_db)
        .ok_or("trajectory has fewer than two stay points")?;
    let svg = lead::eval::svg::render_detection(&result.processed, result.detected, 900.0);
    std::fs::write(out_path, &svg).map_err(|e| format!("{out_path}: {e}"))?;
    println!(
        "rendered trajectory {seq} of `{split}` (detected ⟨sp_{} --→ sp_{}⟩) to {out_path}",
        result.detected.start_sp, result.detected.end_sp
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn unknown_subcommand_and_variant_are_rejected() {
        assert!(run(&args("frobnicate")).is_err());
        assert!(parse_variant("no-such-variant").is_err());
        assert_eq!(parse_variant("no-gro").unwrap().name(), "LEAD-NoGro");
        assert_eq!(parse_variant("full").unwrap().name(), "LEAD");
    }

    #[test]
    fn synth_writes_the_expected_files() {
        let dir = std::env::temp_dir().join(format!("lead-cli-synth-{}", std::process::id()));
        let cmd = format!("synth --out {} --trucks 10 --days 1", dir.display());
        run(&args(&cmd)).unwrap();
        for f in [
            "pois.csv",
            "train.csv",
            "val.csv",
            "test.csv",
            "truth_train.csv",
            "truth_val.csv",
            "truth_test.csv",
        ] {
            assert!(dir.join(f).exists(), "missing {f}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn default_synth_output_trains() {
        // `synth` writes two days per truck by default, back to back for
        // one truck; `train` must read them as separate trajectories.
        let dir = std::env::temp_dir().join(format!("lead-cli-days-{}", std::process::id()));
        run(&args(&format!("synth --out {} --trucks 10", dir.display()))).unwrap();
        let train = read_split(&dir, "train").unwrap();
        assert_eq!(train.samples.len(), 16, "8 training trucks × 2 days");
        let model = dir.join("m.lead");
        let cmd = format!(
            "train --data {} --model {} --ae-epochs 1 --det-epochs 1",
            dir.display(),
            model.display()
        );
        run(&args(&cmd)).unwrap();
        assert!(model.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn synth_with_too_few_trucks_is_a_named_error() {
        let dir = std::env::temp_dir().join(format!("lead-cli-few-{}", std::process::id()));
        let err = run(&args(&format!("synth --out {} --trucks 6", dir.display()))).unwrap_err();
        assert!(err.contains("--trucks must be at least 10"), "{err}");
        assert!(!dir.exists(), "nothing is written on a bad request");
    }

    #[test]
    fn stats_runs_on_a_synth_directory() {
        let dir = std::env::temp_dir().join(format!("lead-cli-stats-{}", std::process::id()));
        run(&args(&format!(
            "synth --out {} --trucks 10 --days 1",
            dir.display()
        )))
        .unwrap();
        run(&args(&format!(
            "stats --data {} --split train",
            dir.display()
        )))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn help_is_available() {
        assert!(run(&args("help")).is_ok());
        assert!(usage().contains("lead synth"));
    }
}
