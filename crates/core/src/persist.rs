//! Persistence of trained LEAD models.
//!
//! The offline stage runs once over the historical archive; the online stage
//! serves detections indefinitely. [`Lead::save`]/[`Lead::load`] round-trip a
//! trained model through a line-oriented text file: the architecture switches
//! and processing thresholds (needed to rebuild the exact network and
//! reproduce processing), the feature normaliser, and every trained weight
//! (bit-exact, via [`lead_nn::io`]).

use crate::config::LeadConfig;
use crate::features::{Normalizer, FEATURE_DIM};
use crate::pipeline::{DetectorChoice, Lead, LeadOptions};
use lead_nn::io::{read_params, write_params, ReadError};
use std::io::{BufRead, Write};
use std::path::Path;

/// Errors produced while loading a model.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a valid model file.
    Format(String),
    /// A weight section does not match the rebuilt architecture.
    Params(ReadError),
    /// The file parsed but describes an invalid configuration.
    Config(crate::config::ConfigError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::Format(m) => write!(f, "format error: {m}"),
            LoadError::Params(e) => write!(f, "weight section error: {e}"),
            LoadError::Config(e) => write!(f, "invalid stored configuration: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

impl From<ReadError> for LoadError {
    fn from(e: ReadError) -> Self {
        LoadError::Params(e)
    }
}

impl From<crate::config::ConfigError> for LoadError {
    fn from(e: crate::config::ConfigError) -> Self {
        LoadError::Config(e)
    }
}

fn detector_tag(choice: DetectorChoice) -> &'static str {
    match choice {
        DetectorChoice::Both => "both",
        DetectorChoice::ForwardOnly => "forward",
        DetectorChoice::BackwardOnly => "backward",
        DetectorChoice::Mlp => "mlp",
    }
}

fn parse_detector(tag: &str) -> Result<DetectorChoice, LoadError> {
    Ok(match tag {
        "both" => DetectorChoice::Both,
        "forward" => DetectorChoice::ForwardOnly,
        "backward" => DetectorChoice::BackwardOnly,
        "mlp" => DetectorChoice::Mlp,
        other => return Err(LoadError::Format(format!("unknown detector `{other}`"))),
    })
}

fn hex_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_hex_f64(tok: &str) -> Result<f64, LoadError> {
    u64::from_str_radix(tok, 16)
        .map(f64::from_bits)
        .map_err(|e| LoadError::Format(format!("bad f64 `{tok}`: {e}")))
}

fn hex_row(values: &[f32]) -> String {
    values
        .iter()
        .map(|v| format!("{:08x}", v.to_bits()))
        .collect::<Vec<_>>()
        .join(" ")
}

fn parse_hex_row(line: &str) -> Result<Vec<f32>, LoadError> {
    line.split_whitespace()
        .map(|tok| {
            u32::from_str_radix(tok, 16)
                .map(f32::from_bits)
                .map_err(|e| LoadError::Format(format!("bad f32 `{tok}`: {e}")))
        })
        .collect()
}

impl Lead {
    /// Writes the trained model to `w`.
    ///
    /// # Errors
    /// Propagates any I/O error from the underlying writer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let config = self.config();
        let options = self.options();
        writeln!(w, "lead-model v1")?;
        writeln!(
            w,
            "options {} {} {} {}",
            options.use_poi,
            options.use_attention,
            options.hierarchical,
            detector_tag(options.detector)
        )?;
        writeln!(
            w,
            "config {} {} {} {} {} {} {} {}",
            hex_f64(config.v_max_kmh),
            hex_f64(config.d_max_m),
            config.t_min_s,
            hex_f64(config.poi_radius_m),
            config.ae_hidden,
            config.detector_hidden,
            config.detector_layers,
            config.seed,
        )?;
        let n = self.normalizer_ref();
        writeln!(w, "normalizer {}", n.dim())?;
        writeln!(w, "{}", hex_row(n.mean()))?;
        writeln!(w, "{}", hex_row(n.std()))?;
        for (name, params) in self.weight_sections() {
            writeln!(w, "section {name}")?;
            write_params(params, w)?;
        }
        writeln!(w, "end-model")?;
        Ok(())
    }

    /// Saves the trained model to a file.
    ///
    /// # Errors
    /// Returns [`crate::LeadError::Io`] when the file cannot be created or
    /// written.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), crate::LeadError> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut file)?;
        file.flush()?;
        Ok(())
    }

    /// Reads a model written by [`Self::write_to`].
    ///
    /// # Errors
    /// Returns [`LoadError::Io`] when the reader fails,
    /// [`LoadError::Format`] when the stream is not a valid model dump
    /// (wrong header, malformed lines, an invalid normaliser, or weight
    /// sections other than exactly the variant's, in order),
    /// [`LoadError::Params`] when a weight section does not match the
    /// architecture, and [`LoadError::Config`] on an invalid stored
    /// configuration.
    pub fn read_from<R: BufRead>(r: &mut R) -> Result<Lead, LoadError> {
        let mut line = String::new();
        let mut next_line = |r: &mut R| -> Result<String, LoadError> {
            line.clear();
            if r.read_line(&mut line)? == 0 {
                return Err(LoadError::Format("unexpected end of file".into()));
            }
            Ok(line.trim().to_string())
        };

        if next_line(r)? != "lead-model v1" {
            return Err(LoadError::Format("not a lead-model v1 file".into()));
        }

        // options — slice-pattern destructuring instead of literal indexing:
        // a malformed line fails the pattern and becomes a typed error.
        let opt_line = next_line(r)?;
        let toks: Vec<&str> = opt_line.split_whitespace().collect();
        let ["options", use_poi, use_attention, hierarchical, detector] = toks.as_slice() else {
            return Err(LoadError::Format(format!("bad options line `{opt_line}`")));
        };
        let parse_bool = |t: &str| -> Result<bool, LoadError> {
            t.parse()
                .map_err(|_| LoadError::Format(format!("bad bool `{t}`")))
        };
        let options = LeadOptions {
            use_poi: parse_bool(use_poi)?,
            use_attention: parse_bool(use_attention)?,
            hierarchical: parse_bool(hierarchical)?,
            detector: parse_detector(detector)?,
        };

        // config
        let cfg_line = next_line(r)?;
        let toks: Vec<&str> = cfg_line.split_whitespace().collect();
        let ["config", v_max, d_max, t_min, poi_radius, ae_hidden, det_hidden, det_layers, seed] =
            toks.as_slice()
        else {
            return Err(LoadError::Format(format!("bad config line `{cfg_line}`")));
        };
        let parse_usize = |t: &str| -> Result<usize, LoadError> {
            t.parse()
                .map_err(|_| LoadError::Format(format!("bad integer `{t}`")))
        };
        let mut config = LeadConfig::paper();
        config.v_max_kmh = parse_hex_f64(v_max)?;
        config.d_max_m = parse_hex_f64(d_max)?;
        config.t_min_s = t_min
            .parse()
            .map_err(|_| LoadError::Format(format!("bad t_min `{t_min}`")))?;
        config.poi_radius_m = parse_hex_f64(poi_radius)?;
        config.ae_hidden = parse_usize(ae_hidden)?;
        config.detector_hidden = parse_usize(det_hidden)?;
        config.detector_layers = parse_usize(det_layers)?;
        config.seed = seed
            .parse()
            .map_err(|_| LoadError::Format(format!("bad seed `{seed}`")))?;

        // normaliser
        let n_line = next_line(r)?;
        let toks: Vec<&str> = n_line.split_whitespace().collect();
        let ["normalizer", dim] = toks.as_slice() else {
            return Err(LoadError::Format(format!("bad normalizer line `{n_line}`")));
        };
        let dim = parse_usize(dim)?;
        if dim != FEATURE_DIM {
            return Err(LoadError::Format(format!(
                "normalizer width {dim}, expected {FEATURE_DIM}"
            )));
        }
        let mean = parse_hex_row(&next_line(r)?)?;
        let std = parse_hex_row(&next_line(r)?)?;
        if mean.len() != dim || std.len() != dim {
            return Err(LoadError::Format("normalizer width mismatch".into()));
        }
        let normalizer = Normalizer::from_parts(mean, std).ok_or_else(|| {
            LoadError::Format("normalizer needs finite means and positive finite stds".into())
        })?;

        // Rebuild the architecture, then fill weights section by section. The
        // stored knobs are validated like any other configuration: a tampered
        // or hand-edited file yields a typed error, never a panic. The file
        // must hold exactly the variant's sections in the order `write_to`
        // writes them, so a missing, repeated or foreign section is rejected
        // instead of leaving freshly initialised weights in place.
        let mut lead = Lead::new_untrained(&config, options, normalizer)?;
        for (name, params) in lead.weight_sections_mut() {
            let section = next_line(r)?;
            if section.strip_prefix("section ") != Some(name) {
                return Err(LoadError::Format(format!(
                    "expected `section {name}`, got `{section}`"
                )));
            }
            read_params(params, r)?;
        }
        let end = next_line(r)?;
        if end != "end-model" {
            return Err(LoadError::Format(format!(
                "expected `end-model`, got `{end}`"
            )));
        }
        Ok(lead)
    }

    /// Loads a model saved with [`Self::save`].
    ///
    /// # Errors
    /// Returns [`crate::LeadError::Io`] when the file cannot be opened and
    /// [`crate::LeadError::Load`] when its contents are not a valid model
    /// (malformed lines, mismatched weight sections, or an invalid stored
    /// configuration).
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Lead, crate::LeadError> {
        let file = std::fs::File::open(path)?;
        let mut reader = std::io::BufReader::new(file);
        Ok(Self::read_from(&mut reader)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::TruthLabel;
    use crate::pipeline::TrainSample;
    use crate::poi::{Poi, PoiCategory, PoiDatabase};
    use lead_geo::distance::meters_to_lng_deg;
    use lead_geo::{GpsPoint, Trajectory};

    /// A minimal trainable world (mirrors the baselines' test fixture).
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
        let samples = (0..3)
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
    fn save_load_roundtrip_preserves_detections() {
        let (samples, db) = tiny_world();
        let cfg = LeadConfig::fast_test();
        for options in [
            LeadOptions::full(),
            LeadOptions::no_gro(),
            LeadOptions::no_bac(),
        ] {
            let (lead, _) = Lead::fit(&samples, &[], &db, &cfg, options).expect("fit");
            let mut buf = Vec::new();
            lead.write_to(&mut buf).unwrap();
            let loaded = Lead::read_from(&mut buf.as_slice()).unwrap();
            assert_eq!(loaded.options(), options);
            for s in &samples {
                let a = lead.detect(&s.raw, &db);
                let b = loaded.detect(&s.raw, &db);
                match (a, b) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.detected, b.detected, "{}", options.name());
                        assert_eq!(a.probabilities, b.probabilities);
                    }
                    (None, None) => {}
                    _ => panic!("detectability changed after reload ({})", options.name()),
                }
            }
        }
    }

    #[test]
    fn save_and_load_through_a_file() {
        let (samples, db) = tiny_world();
        let cfg = LeadConfig::fast_test();
        let (lead, _) = Lead::fit(&samples, &[], &db, &cfg, LeadOptions::full()).expect("fit");
        let path = std::env::temp_dir().join(format!("lead-model-{}.lead", std::process::id()));
        lead.save(&path).unwrap();
        let loaded = Lead::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let a = lead.detect(&samples[0].raw, &db).map(|r| r.detected);
        let b = loaded.detect(&samples[0].raw, &db).map(|r| r.detected);
        assert_eq!(a, b);
    }

    /// FNV-1a, 64 bit.
    fn fnv1a(hash: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Pins every variant's trained weights and detections across commits:
    /// the parity suites compare runs within one build, so only a stored
    /// digest catches a change that shifts an RNG draw or a rounding.
    #[test]
    fn golden_digests_of_every_variant() {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        let (samples, db) = tiny_world();
        let cfg = LeadConfig::fast_test();
        let golden: [(LeadOptions, u64, u64); 7] = [
            (
                LeadOptions::full(),
                0x7e8f_637d_6744_1794,
                0x631a_e943_4a83_0516,
            ),
            (
                LeadOptions::no_poi(),
                0x9566_86cb_be76_79d3,
                0xaf4d_0a14_cfec_17e4,
            ),
            (
                LeadOptions::no_sel(),
                0x0a55_68a8_5433_b355,
                0xcc23_7fde_5df4_89c2,
            ),
            (
                LeadOptions::no_hie(),
                0x8fea_8b7a_5984_5cf2,
                0x94a0_a813_6598_ce2e,
            ),
            (
                LeadOptions::no_gro(),
                0x90f4_309b_2df6_cf1e,
                0x0d77_9219_2e3e_e1ba,
            ),
            (
                LeadOptions::no_for(),
                0x774c_b3a6_070c_c978,
                0xdf8f_4878_010f_2312,
            ),
            (
                LeadOptions::no_bac(),
                0x4d01_3149_036c_5b50,
                0x4098_79bf_f3fa_0bc2,
            ),
        ];
        for (options, model_digest, detect_digest) in golden {
            let (lead, _) = Lead::fit(&samples, &[], &db, &cfg, options).expect("fit");
            let mut bytes = Vec::new();
            lead.write_to(&mut bytes).unwrap();
            let mut model = FNV_OFFSET;
            fnv1a(&mut model, &bytes);
            let mut detect = FNV_OFFSET;
            for s in &samples {
                let r = lead
                    .detect(&s.raw, &db)
                    .expect("tiny_world days are detectable");
                fnv1a(&mut detect, &(r.detected.start_sp as u64).to_le_bytes());
                fnv1a(&mut detect, &(r.detected.end_sp as u64).to_le_bytes());
                for p in &r.probabilities {
                    fnv1a(&mut detect, &p.to_bits().to_le_bytes());
                }
            }
            assert_eq!(
                (model, detect),
                (model_digest, detect_digest),
                "{} digests moved",
                options.name()
            );
        }
    }

    #[test]
    fn corrupted_file_is_rejected() {
        match Lead::read_from(&mut "garbage\n".as_bytes()) {
            Err(LoadError::Format(_)) => {}
            Err(other) => panic!("unexpected error kind: {other}"),
            Ok(_) => panic!("garbage accepted"),
        }
    }

    #[test]
    fn truncated_file_is_rejected() {
        let (samples, db) = tiny_world();
        let cfg = LeadConfig::fast_test();
        let (lead, _) = Lead::fit(&samples, &[], &db, &cfg, LeadOptions::full()).expect("fit");
        let mut buf = Vec::new();
        lead.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(Lead::read_from(&mut buf.as_slice()).is_err());
    }

    /// One fitted model's serialized text, shared across the corruption
    /// matrix so each damage pattern doesn't pay for its own training run.
    fn model_text() -> &'static str {
        static TEXT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        TEXT.get_or_init(|| {
            let (samples, db) = tiny_world();
            let cfg = LeadConfig::fast_test();
            let (lead, _) = Lead::fit(&samples, &[], &db, &cfg, LeadOptions::full()).expect("fit");
            let mut buf = Vec::new();
            lead.write_to(&mut buf).unwrap();
            String::from_utf8(buf).unwrap()
        })
    }

    #[test]
    fn truncation_at_every_line_boundary_is_a_typed_error() {
        let text = model_text();
        let lines: Vec<&str> = text.lines().collect();
        // Cut the file after every line in turn: each prefix must be
        // rejected with a typed error (unexpected EOF, a short weight
        // section, or a missing end-model marker) — never accepted, never
        // a panic.
        for cut in 0..lines.len() {
            let prefix = lines[..cut].join("\n");
            match Lead::read_from(&mut prefix.as_bytes()) {
                Err(LoadError::Format(_) | LoadError::Params(_)) => {}
                Err(other) => panic!("cut after line {cut}: unexpected error kind {other}"),
                Ok(_) => panic!("cut after line {cut}: truncated model accepted"),
            }
        }
    }

    #[test]
    fn missing_end_marker_is_a_typed_error() {
        let text = model_text().replace("end-model", "");
        match Lead::read_from(&mut text.as_bytes()) {
            Err(LoadError::Format(_)) => {}
            Err(other) => panic!("unexpected error kind: {other}"),
            Ok(_) => panic!("model without end marker accepted"),
        }
    }

    #[test]
    fn corrupted_weight_hex_is_a_typed_error() {
        // Damage the first weight row after the autoencoder section header:
        // hex parsing must fail with a typed params/format error.
        let text = model_text();
        let mut out = Vec::new();
        let mut damage_next = false;
        for line in text.lines() {
            if damage_next {
                out.push("zzzz not hex".to_string());
                damage_next = false;
            } else {
                if line == "section autoencoder" {
                    damage_next = true;
                }
                out.push(line.to_string());
            }
        }
        let tampered = out.join("\n");
        match Lead::read_from(&mut tampered.as_bytes()) {
            Err(LoadError::Params(_) | LoadError::Format(_)) => {}
            Err(other) => panic!("unexpected error kind: {other}"),
            Ok(_) => panic!("model with corrupted weights accepted"),
        }
    }

    #[test]
    fn unknown_section_is_a_typed_error() {
        let text = model_text().replace("section autoencoder", "section flux_capacitor");
        match Lead::read_from(&mut text.as_bytes()) {
            Err(LoadError::Format(m)) => assert!(m.contains("flux_capacitor"), "{m}"),
            Err(other) => panic!("unexpected error kind: {other}"),
            Ok(_) => panic!("model with unknown section accepted"),
        }
    }

    #[test]
    fn normalizer_width_mismatch_is_a_typed_error() {
        // Overstate the normaliser dimension: the mean/std rows no longer
        // match the declared width.
        let text = model_text();
        let tampered: String = text
            .lines()
            .map(|l| {
                if let Some(dim) = l.strip_prefix("normalizer ") {
                    let n: usize = dim.trim().parse().unwrap();
                    format!("normalizer {}", n + 1)
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        match Lead::read_from(&mut tampered.as_bytes()) {
            Err(LoadError::Format(m)) => assert!(m.contains("normalizer"), "{m}"),
            Err(other) => panic!("unexpected error kind: {other}"),
            Ok(_) => panic!("model with mismatched normalizer accepted"),
        }
    }

    #[test]
    fn section_for_an_absent_detector_is_a_typed_error() {
        // A NoBac model has no backward detector; grafting a backward
        // section onto it must be rejected, not silently mis-assigned.
        let (samples, db) = tiny_world();
        let cfg = LeadConfig::fast_test();
        let (lead, _) = Lead::fit(&samples, &[], &db, &cfg, LeadOptions::no_bac()).expect("fit");
        let mut buf = Vec::new();
        lead.write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let tampered = text.replace("section forward_detector", "section backward_detector");
        match Lead::read_from(&mut tampered.as_bytes()) {
            Err(LoadError::Format(m)) => assert!(m.contains("backward"), "{m}"),
            Err(other) => panic!("unexpected error kind: {other}"),
            Ok(_) => panic!("backward section accepted by a model without one"),
        }
    }

    #[test]
    fn invalid_stored_normalizer_is_a_typed_error() {
        let lines: Vec<String> = model_text().lines().map(str::to_string).collect();
        let at = lines
            .iter()
            .position(|l| l.starts_with("normalizer "))
            .expect("normalizer line");
        let mut cases = Vec::new();
        for (what, std) in [
            ("zero std", 0.0f32),
            ("negative std", -1.0),
            ("NaN std", f32::NAN),
        ] {
            let mut tampered = lines.clone();
            let mut row: Vec<String> = tampered[at + 2]
                .split_whitespace()
                .map(str::to_string)
                .collect();
            row[0] = format!("{:08x}", std.to_bits());
            tampered[at + 2] = row.join(" ");
            cases.push((what, tampered));
        }
        // Consistent with itself, but narrower than a feature row.
        let mut short = lines.clone();
        short[at] = "normalizer 3".to_string();
        for row in &mut short[at + 1..=at + 2] {
            *row = row.split_whitespace().take(3).collect::<Vec<_>>().join(" ");
        }
        cases.push(("short normalizer", short));
        for (what, tampered) in cases {
            match Lead::read_from(&mut tampered.join("\n").as_bytes()) {
                Err(LoadError::Format(m)) => assert!(m.contains("normalizer"), "{what}: {m}"),
                Err(other) => panic!("{what}: unexpected error kind {other}"),
                Ok(_) => panic!("{what}: model accepted"),
            }
        }
    }

    #[test]
    fn missing_or_duplicated_section_is_a_typed_error() {
        let (samples, db) = tiny_world();
        let cfg = LeadConfig::fast_test();
        for options in [LeadOptions::full(), LeadOptions::no_gro()] {
            let (lead, _) = Lead::fit(&samples, &[], &db, &cfg, options).expect("fit");
            let mut buf = Vec::new();
            lead.write_to(&mut buf).unwrap();
            let text = String::from_utf8(buf).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            let end = lines.len() - 1;
            assert_eq!(lines[end], "end-model");
            let starts: Vec<usize> = (0..end)
                .filter(|&i| lines[i].starts_with("section "))
                .collect();
            let name = options.name();
            for (k, &a) in starts.iter().enumerate() {
                let b = starts.get(k + 1).copied().unwrap_or(end);
                let missing = [&lines[..a], &lines[b..]].concat();
                let duplicated = [&lines[..b], &lines[a..]].concat();
                for (what, tampered) in [("missing", missing), ("duplicated", duplicated)] {
                    match Lead::read_from(&mut tampered.join("\n").as_bytes()) {
                        Err(LoadError::Format(m)) => assert!(m.contains("expected"), "{m}"),
                        Err(other) => panic!("{name}, {what} `{}`: {other}", lines[a]),
                        Ok(_) => panic!("{name}: model with {what} `{}` accepted", lines[a]),
                    }
                }
            }
        }
    }

    #[test]
    fn invalid_stored_config_is_a_typed_error() {
        let (samples, db) = tiny_world();
        let cfg = LeadConfig::fast_test();
        let (lead, _) = Lead::fit(&samples, &[], &db, &cfg, LeadOptions::full()).expect("fit");
        let mut buf = Vec::new();
        lead.write_to(&mut buf).unwrap();
        // Tamper with the config line: zero out ae_hidden (5th field after
        // the tag), which must be rejected by validation, not panic.
        let text = String::from_utf8(buf).unwrap();
        let tampered: String = text
            .lines()
            .map(|l| {
                if let Some(rest) = l.strip_prefix("config ") {
                    let mut toks: Vec<String> =
                        rest.split_whitespace().map(str::to_string).collect();
                    toks[4] = "0".to_string();
                    format!("config {}", toks.join(" "))
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        match Lead::read_from(&mut tampered.as_bytes()) {
            Err(LoadError::Config(e)) => assert_eq!(e.field, "ae_hidden"),
            Err(other) => panic!("expected LoadError::Config, got {other}"),
            Ok(_) => panic!("tampered model accepted"),
        }
    }
}
