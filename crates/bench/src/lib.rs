//! Shared scaffolding for the experiment binary `repro` and the benchmarks.
//!
//! One binary, `repro <artefact…> <scale>`, regenerates every table and
//! figure of the paper (see DESIGN.md §4). It generates the synthetic world
//! once, trains each method of the [`plan`] once, and writes each requested
//! artefact from those fits:
//!
//! | Paper artefact | Artefact |
//! |---|---|
//! | Table III (accuracy vs baselines) + soft accuracy (IoU) | `table3` |
//! | Table IV (ablation accuracy)      | `table4` |
//! | Figure 8 (inference time)         | `fig8`   |
//! | Figure 9 (autoencoder MSE curves) | `fig9`   |
//! | Figure 10 (detector KLD curves)   | `fig10`  |
//! | the L = 1..10 layer tuning claim  | `sweep_layers` |
//! | per-scenario robustness (beyond the paper) | `scenarios` |
//! | every artefact above              | `all`    |
//!
//! `bench_ratchet` runs the calibrated perf suite against `bench.baseline`.
//!
//! The scale is `tiny`, `quick` or `full`; tables and curves land under
//! `results/<artefact>_<scale>.{txt,csv}`.

use lead_core::config::LeadConfig;
use lead_core::pipeline::LeadOptions;
use lead_eval::Method;
use lead_synth::SynthConfig;
use std::fmt;
use std::path::PathBuf;

pub mod ratchet;

/// Experiment scale presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test scale (seconds; numbers are noisy).
    Tiny,
    /// The scale of the committed results: stable orderings, minutes per
    /// method.
    Quick,
    /// Closest to the paper's data volume this hardware affords.
    Full,
}

impl Scale {
    /// Every scale, smallest first.
    pub const ALL: [Scale; 3] = [Scale::Tiny, Scale::Quick, Scale::Full];

    /// The synthetic-world configuration for this scale.
    pub fn synth_config(self) -> SynthConfig {
        let mut c = SynthConfig::paper_scaled();
        match self {
            Scale::Tiny => {
                c.num_trucks = 30;
                c.days_per_truck = 2;
            }
            Scale::Quick => {
                c.num_trucks = 150;
                c.days_per_truck = 2;
            }
            Scale::Full => {
                c.num_trucks = 250;
                c.days_per_truck = 2;
            }
        }
        c
    }

    /// The LEAD configuration for this scale.
    pub fn lead_config(self) -> LeadConfig {
        let mut c = LeadConfig::experiment();
        if self == Scale::Tiny {
            c.ae_max_epochs = 4;
            c.detector_max_epochs = 6;
        }
        c
    }

    /// The scale's name (used in output paths).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

/// Writes `contents` under `results/<name>` (creating the directory) and
/// echoes the path.
pub fn write_result(name: &str, contents: &str) {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("create results/");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write result file");
    println!("[written] {}", path.display());
}

/// One paper artefact `repro` can write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artefact {
    /// Table III and the soft-accuracy (IoU) table.
    Table3,
    /// Table IV.
    Table4,
    /// Figure 8.
    Fig8,
    /// Figure 9.
    Fig9,
    /// Figure 10.
    Fig10,
    /// The per-scenario robustness tables.
    Scenarios,
    /// The BiLSTM layer sweep on the validation split.
    SweepLayers,
}

impl Artefact {
    /// Every artefact, in the order `repro` writes them.
    pub const ALL: [Artefact; 7] = [
        Artefact::Table3,
        Artefact::Table4,
        Artefact::Fig8,
        Artefact::Fig9,
        Artefact::Fig10,
        Artefact::Scenarios,
        Artefact::SweepLayers,
    ];

    /// The artefact's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Artefact::Table3 => "table3",
            Artefact::Table4 => "table4",
            Artefact::Fig8 => "fig8",
            Artefact::Fig9 => "fig9",
            Artefact::Fig10 => "fig10",
            Artefact::Scenarios => "scenarios",
            Artefact::SweepLayers => "sweep_layers",
        }
    }

    /// The methods whose fits this artefact reads.
    pub fn methods(self) -> Vec<Method> {
        let lead = Method::Lead(LeadOptions::full());
        match self {
            Artefact::Table3 | Artefact::Fig8 => Method::table3().to_vec(),
            Artefact::Table4 => Method::table4().to_vec(),
            Artefact::Fig9 => vec![
                lead,
                Method::Lead(LeadOptions::no_sel()),
                Method::Lead(LeadOptions::no_hie()),
            ],
            Artefact::Fig10 | Artefact::SweepLayers => vec![lead],
            Artefact::Scenarios => vec![Method::SpR, lead],
        }
    }
}

/// The methods to train for `artefacts`: each once, in first-use order.
pub fn plan(artefacts: &[Artefact]) -> Vec<Method> {
    let mut methods = Vec::new();
    for method in artefacts.iter().flat_map(|a| a.methods()) {
        if !methods.contains(&method) {
            methods.push(method);
        }
    }
    methods
}

/// The command-line usage of `repro`.
pub const USAGE: &str = "usage: repro <artefact>... <scale>
  artefacts: table3 table4 fig8 fig9 fig10 scenarios sweep_layers all
  scales:    tiny quick full";

/// A parsed `repro` command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The artefacts to write, deduplicated, in [`Artefact::ALL`] order.
    pub artefacts: Vec<Artefact>,
    /// The experiment scale.
    pub scale: Scale,
}

/// Why a `repro` command line was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// Fewer than two arguments: at least one artefact and a scale.
    Missing,
    /// An argument before the scale that names no artefact.
    UnknownArtefact(String),
    /// A last argument that names no scale.
    UnknownScale(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Missing => write!(f, "expected at least one artefact and a scale"),
            ArgError::UnknownArtefact(a) => write!(f, "unknown artefact `{a}`"),
            ArgError::UnknownScale(s) => write!(f, "unknown scale `{s}`"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Parses `repro`'s arguments (program name excluded): one or more
/// artefact names or `all`, then the scale.
///
/// # Errors
/// Returns an [`ArgError`] naming the first argument that does not parse.
pub fn parse_args<S: AsRef<str>>(args: &[S]) -> Result<Request, ArgError> {
    let (scale, names) = match args {
        [names @ .., scale] if !names.is_empty() => (scale.as_ref(), names),
        _ => return Err(ArgError::Missing),
    };
    let scale = Scale::ALL
        .into_iter()
        .find(|s| s.name() == scale)
        .ok_or_else(|| ArgError::UnknownScale(scale.to_string()))?;
    let mut wanted = Vec::new();
    for name in names.iter().map(AsRef::as_ref) {
        if name == "all" {
            wanted.extend(Artefact::ALL);
        } else {
            let a = Artefact::ALL
                .into_iter()
                .find(|a| a.name() == name)
                .ok_or_else(|| ArgError::UnknownArtefact(name.to_string()))?;
            wanted.push(a);
        }
    }
    Ok(Request {
        artefacts: Artefact::ALL
            .into_iter()
            .filter(|a| wanted.contains(a))
            .collect(),
        scale,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_produce_valid_configs() {
        for s in Scale::ALL {
            s.synth_config().validate();
            assert!(s.lead_config().validate().is_ok());
            assert!(!s.name().is_empty());
        }
    }

    #[test]
    fn scales_are_ordered_by_size() {
        assert!(
            Scale::Tiny.synth_config().total_samples()
                < Scale::Quick.synth_config().total_samples()
        );
        assert!(
            Scale::Quick.synth_config().total_samples()
                < Scale::Full.synth_config().total_samples()
        );
    }

    #[test]
    fn parser_accepts_artefacts_then_scale() {
        let req = parse_args(&["fig10", "table3", "fig10", "tiny"]).expect("parses");
        assert_eq!(req.artefacts, [Artefact::Table3, Artefact::Fig10]);
        assert_eq!(req.scale, Scale::Tiny);
        let all = parse_args(&["all", "quick"]).expect("parses");
        assert_eq!(all.artefacts, Artefact::ALL);
        assert_eq!(all.scale, Scale::Quick);
        for a in Artefact::ALL {
            let one = parse_args(&[a.name(), "full"]).expect("parses");
            assert_eq!(one.artefacts, [a]);
        }
    }

    #[test]
    fn parser_rejects_unknown_names_and_missing_arguments() {
        let none: [&str; 0] = [];
        assert_eq!(parse_args(&none), Err(ArgError::Missing));
        assert_eq!(parse_args(&["quick"]), Err(ArgError::Missing));
        assert_eq!(
            parse_args(&["table5", "quick"]),
            Err(ArgError::UnknownArtefact("table5".into()))
        );
        assert_eq!(
            parse_args(&["table3", "huge"]),
            Err(ArgError::UnknownScale("huge".into()))
        );
        // The scale goes last: a scale in artefact position is an error.
        assert_eq!(
            parse_args(&["quick", "table3"]),
            Err(ArgError::UnknownScale("table3".into()))
        );
    }

    #[test]
    fn plan_for_all_trains_each_method_once() {
        let plan = plan(&Artefact::ALL);
        let names: Vec<&str> = plan.iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            [
                "SP-R",
                "SP-GRU",
                "SP-LSTM",
                "LEAD",
                "LEAD-NoPoi",
                "LEAD-NoSel",
                "LEAD-NoHie",
                "LEAD-NoGro",
                "LEAD-NoFor",
                "LEAD-NoBac",
            ]
        );
        // Every method of both tables is in the plan exactly once.
        for m in Method::table3().iter().chain(&Method::table4()) {
            assert_eq!(plan.iter().filter(|p| *p == m).count(), 1, "{}", m.name());
        }
    }
}
