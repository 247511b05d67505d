//! The perf-ratchet gate: runs the calibrated bench suite over a fixed
//! synthetic fleet and compares medians against the checked-in
//! `bench.baseline` (DESIGN.md §12).
//!
//! Usage:
//!
//! ```text
//! bench_ratchet [--write PATH] [--baseline PATH] [--update-baseline PATH] [--self-test]
//! ```
//!
//! - `--write PATH` — run the suite and write the canonical
//!   `bench-ratchet/v1` JSON (CI writes `target/bench-ratchet/BENCH.json`).
//! - `--baseline PATH` — compare the run against a baseline file; exit 1
//!   when any fingerprint-matched bench exceeds the headroom ratio. Stale
//!   and new entries are reported but do not fail the gate.
//! - `--update-baseline PATH` — run the suite and (re)write the baseline.
//! - `--self-test` — no benches: verify on synthetic records that the
//!   ratchet detects a regression, flags stale fingerprints, and round-trips
//!   its serialisation. Exits non-zero if the ratchet machinery itself is
//!   broken.
//!
//! Environment: `BENCH_RATCHET_SAMPLE_MS` (per-bench budget, default 150),
//! `BENCH_RATCHET_MAX_RATIO` (headroom, default 3.0 — generous because CI
//! machines vary; the ratchet exists to catch order-of-magnitude
//! regressions like an O(n) path going O(n²), not 10 % noise).

use lead_bench::ratchet::{
    compare, fingerprint, measure, parse_json, render_json, BenchRecord, SCHEMA,
};
use lead_core::config::LeadConfig;
use lead_core::detection::{build_groups, GroupDetector};
use lead_core::encoding::{Autoencoder, EncoderKind};
use lead_core::features::{TrajectoryFeatures, FEATURE_DIM};
use lead_core::processing::{enumerate_candidates, ProcessedTrajectory};
use lead_core::streaming::IncrementalStayExtractor;
use lead_data::records::{TrajectoryReader, TrajectoryWriter};
use lead_geo::GpsPoint;
use lead_nn::Matrix;
use lead_synth::{generate_dataset, SynthConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Writes a deterministic synthetic lint corpus (NOT the real tree, whose
/// size changes every PR and would churn the ratchet) under the OS temp
/// directory and returns its root: two classified crates, 24 files, a mix
/// of functions, literals, comments, loops, and seeded violations.
fn lint_corpus() -> std::path::PathBuf {
    let root = std::env::temp_dir().join("lead-bench-lint-corpus-v1");
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("clear stale lint corpus");
    }
    let write = |rel: &str, content: &str| {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("corpus path has a parent"))
            .expect("mkdir corpus");
        std::fs::write(path, content).expect("write corpus file");
    };
    write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
    for (c, name) in [("crates/alpha", "alpha"), ("crates/beta", "beta")] {
        write(
            &format!("{c}/Cargo.toml"),
            &format!("[package]\nname = \"{name}\"\n\n[package.metadata.lead]\nclass = \"lib\"\nkernel = \"hot\"\n"),
        );
        write(
            &format!("{c}/src/lib.rs"),
            "//! Corpus crate.\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n",
        );
        for f in 0..11 {
            let mut src = String::from("//! Synthetic corpus file.\n\n");
            for i in 0..40 {
                let seed = f * 13 + i;
                match (seed * 7) % 5 {
                    0 => src.push_str(&format!(
                        "fn f{f}_{i}(x: u32) -> u32 {{\n    // widen then clamp\n    x + {i}\n}}\n"
                    )),
                    1 => src.push_str(&format!(
                        "fn s{f}_{i}() -> &'static str {{\n    \"literal with // tricks and {{braces}}\"\n}}\n"
                    )),
                    2 => src.push_str(&format!(
                        "fn l{f}_{i}(v: &[u32]) -> u32 {{\n    let mut acc = 0;\n    for &x in v {{\n        acc += x;\n    }}\n    acc\n}}\n"
                    )),
                    3 => src.push_str(&format!(
                        "fn o{f}_{i}(o: Option<u32>) -> u32 {{\n    o.unwrap()\n}}\n"
                    )),
                    _ => src.push_str(&format!(
                        "/* block {f} {i} */\nfn b{f}_{i}() {{}}\n"
                    )),
                }
            }
            write(&format!("{c}/src/mod_{f}.rs"), &src);
        }
    }
    root
}

/// Runs the calibrated suite: processing, encoding, detection, streaming,
/// lint scanning, and SIMD dispatch.
fn run_suite(sample_ms: u64) -> Vec<BenchRecord> {
    let mut records = Vec::new();
    let mut push = |name: &str, fp_desc: String, median_iters: (u64, u64)| {
        println!(
            "[bench] {name:<40} median {:>12} ns over {} iters",
            median_iters.0, median_iters.1
        );
        records.push(BenchRecord {
            name: name.to_string(),
            median_ns: median_iters.0,
            iters: median_iters.1,
            fingerprint: fingerprint(&fp_desc),
        });
    };

    // ---- fixed fleet -------------------------------------------------------
    let mut synth = SynthConfig::tiny();
    synth.num_trucks = 12;
    synth.days_per_truck = 2;
    let cfg = LeadConfig::paper();
    let ds = generate_dataset(&synth);
    let raws: Vec<_> = ds
        .train
        .iter()
        .chain(&ds.val)
        .chain(&ds.test)
        .map(|s| s.raw.clone())
        .collect();

    // ---- processing: noise filter + stay extraction + candidates ----------
    push(
        "processing/pipeline_24_days",
        format!(
            "seed={} trucks={} days={} d_max={} t_min={}",
            synth.seed, synth.num_trucks, synth.days_per_truck, cfg.d_max_m, cfg.t_min_s
        ),
        measure(sample_ms, || {
            for raw in &raws {
                std::hint::black_box(ProcessedTrajectory::from_raw(raw, &cfg));
            }
        }),
    );

    // ---- encoding: shared-phase-1 cache over all 28 candidates of n=8 ------
    let mut rng = StdRng::seed_from_u64(9);
    let hier = Autoencoder::new(&cfg, EncoderKind::Hierarchical, true, &mut rng);
    let mk = |rows: usize, salt: usize| {
        Matrix::from_fn(rows, FEATURE_DIM, |r, c| {
            (((salt * 31 + r * 7 + c) as f32) * 0.13).sin() * 0.5
        })
    };
    let tf = TrajectoryFeatures {
        sp_seqs: (0..8).map(|k| mk(10, k)).collect(),
        mp_seqs: (0..7).map(|k| mk(14, 100 + k)).collect(),
    };
    let cands = enumerate_candidates(8);
    push(
        "encoding/encode_all_28_candidates",
        format!(
            "n=8 len_sp=10 len_mp=14 dim={FEATURE_DIM} cands={} rng=9",
            cands.len()
        ),
        measure(sample_ms, || {
            std::hint::black_box(hier.encode_all(&tf, &cands));
        }),
    );

    // ---- detection: grouped stacked-BiLSTM inference at n=14 ---------------
    let dim = cfg.c_vec_dim();
    let mut rng = StdRng::seed_from_u64(21);
    let det = GroupDetector::new(&cfg, dim, &mut rng);
    let groups = build_groups(14);
    let cvecs: Vec<Vec<Matrix>> = groups
        .forward
        .iter()
        .map(|sub| {
            sub.iter()
                .map(|cand| {
                    Matrix::from_fn(1, dim, |_, k| {
                        ((((cand.start_sp * 31 + cand.end_sp) * 13 + k) as f32) * 0.21).sin() * 0.5
                    })
                })
                .collect()
        })
        .collect();
    push(
        "detection/stacked_bilstm_n14",
        format!("n=14 dim={dim} rng=21"),
        measure(sample_ms, || {
            let refs: Vec<Vec<&Matrix>> = cvecs.iter().map(|s| s.iter().collect()).collect();
            std::hint::black_box(det.probabilities(&refs));
        }),
    );

    // ---- streaming: incremental extraction through a 5,000-point dwell -----
    // The workload that regressed to O(n²) once: a long dwell keeps the
    // anchor fixed while points pile up, so any per-point rescan of the
    // buffered suffix explodes quadratically.
    let dwell: Vec<GpsPoint> = (0..5_000)
        .map(|i| {
            let wobble = f64::from(i % 7) * 2.0e-6;
            GpsPoint::new(32.0 + wobble, 120.9, i64::from(i) * 15)
        })
        .collect();
    push(
        "streaming/long_dwell_5000_points",
        format!(
            "points=5000 interval=15 d_max={} t_min={}",
            cfg.d_max_m, cfg.t_min_s
        ),
        measure(sample_ms, || {
            let mut ex = IncrementalStayExtractor::new(cfg.d_max_m, cfg.t_min_s);
            for i in 0..dwell.len() {
                std::hint::black_box(ex.on_point_appended(&dwell[..=i]));
            }
            std::hint::black_box(ex.finish(&dwell));
        }),
    );

    // ---- data: binary container decode of a 10k-point fleet ----------------
    // Grid-aligned coordinates engage the fixed-point (delta-varint) mode —
    // the production shape for GPS feeds on the 1e-7° grid.
    let fleet: Vec<(u32, lead_geo::Trajectory)> = (0..10u32)
        .map(|truck| {
            let base_lat = 310_000_000 + i64::from(truck) * 300_000;
            let base_lng = 1_210_000_000 + i64::from(truck) * 500_000;
            let points = (0..1_000)
                .map(|i| {
                    GpsPoint::new(
                        (base_lat + i * 900) as f64 / 1e7,
                        (base_lng + i * 1_300) as f64 / 1e7,
                        i64::from(truck) * 100_000 + i * 20,
                    )
                })
                .collect();
            (truck, lead_geo::Trajectory::new(points))
        })
        .collect();
    let bin_bytes = {
        let mut w = TrajectoryWriter::new(std::io::Cursor::new(Vec::new()))
            .expect("in-memory container header");
        for (id, tr) in &fleet {
            w.write(*id, tr).expect("encode bench trajectory");
        }
        w.finish().expect("finish bench container").into_inner()
    };
    push(
        "data/read_binary_10k",
        format!(
            "trucks=10 points_per=1000 mode=fixed bytes={}",
            bin_bytes.len()
        ),
        measure(sample_ms, || {
            let mut r = TrajectoryReader::new(std::io::Cursor::new(&bin_bytes))
                .expect("open bench container");
            while let Some(item) = r.next_record().expect("decode bench record") {
                std::hint::black_box(item);
            }
        }),
    );

    // ---- data: CSV parse + binary encode of the same fleet -----------------
    let csv_text = {
        let refs: Vec<(u32, &lead_geo::Trajectory)> =
            fleet.iter().map(|(id, t)| (*id, t)).collect();
        let mut buf = Vec::new();
        lead_geo::csv::write_trajectories(&refs, &mut buf).expect("render bench CSV");
        String::from_utf8(buf).expect("CSV is UTF-8")
    };
    push(
        "data/convert_csv_10k",
        format!("trucks=10 points_per=1000 csv_bytes={}", csv_text.len()),
        measure(sample_ms, || {
            let reader =
                lead_geo::csv::CsvReader::new(csv_text.as_bytes()).expect("open bench CSV");
            let mut w = TrajectoryWriter::new(std::io::Cursor::new(Vec::new()))
                .expect("in-memory container header");
            for item in reader {
                let (id, tr) = item.expect("parse bench CSV row");
                w.write(id, &tr).expect("encode bench trajectory");
            }
            std::hint::black_box(w.finish().expect("finish bench container").into_inner());
        }),
    );

    // ---- lint: full workspace scan over a fixed synthetic corpus ----------
    // Exercises the whole analyzer stack per file: lossless tokenize, block
    // IR construction, per-line rules, R10/R11, manifests, workspace checks.
    let corpus = lint_corpus();
    push(
        "lint/scan_workspace_24_files",
        "crates=2 files_per=11 lines_per=~160 corpus=v1".to_string(),
        measure(sample_ms, || {
            std::hint::black_box(lead_lint::scan_workspace(&corpus).expect("corpus scan succeeds"));
        }),
    );

    // ---- simd: runtime-dispatched dot product ------------------------------
    // The fingerprint is backend-independent on purpose: results are
    // bit-identical across backends, so only the workload shape pins it.
    let backend = lead_nn::simd::Backend::select();
    let xs: Vec<f32> = (0..16_384).map(|i| (i as f32 * 0.37).sin()).collect();
    let ys: Vec<f32> = (0..16_384).map(|i| (i as f32 * 0.53).cos()).collect();
    push(
        "simd/dot_16384_dispatch",
        "len=16384 lanes=8 blocked-mul-add".to_string(),
        measure(sample_ms, || {
            use lead_nn::simd::Kernel;
            std::hint::black_box(backend.dot(&xs, &ys));
        }),
    );

    // ---- simd: dispatched blocked matmul (the layers' product shape) -------
    let a64: Vec<f32> = (0..64 * 64)
        .map(|i| (i as f32 * 0.29).sin() * 0.5)
        .collect();
    let b64: Vec<f32> = (0..64 * 64)
        .map(|i| (i as f32 * 0.41).cos() * 0.5)
        .collect();
    let mut out64 = vec![0.0f32; 64 * 64];
    push(
        "simd/matmul_64x64x64_dispatch",
        "m=64 k=64 n=64 i-k-j axpy zero-skip".to_string(),
        measure(sample_ms, || {
            use lead_nn::simd::Kernel;
            out64.fill(0.0);
            backend.matmul_acc(&a64, &b64, &mut out64, 64, 64, 64);
            std::hint::black_box(&out64);
        }),
    );

    // ---- simd: dispatched recurrent step (the detector's h·Wh shape) -------
    // Seven active sequences times the 64×256 recurrent weight: one 6-row
    // and one 1-row tile on AVX-512. `a` holds no zero, so every block runs
    // the branch-free `k` loop.
    let h7: Vec<f32> = (0..7 * 64)
        .map(|i| (i as f32 * 0.29).sin() * 0.5 + 0.75)
        .collect();
    let wh: Vec<f32> = (0..64 * 256)
        .map(|i| (i as f32 * 0.41).cos() * 0.5)
        .collect();
    let mut out7 = vec![0.0f32; 7 * 256];
    push(
        "simd/matmul_7x64x256_dispatch",
        "m=7 k=64 n=256 i-k-j axpy dense-a".to_string(),
        measure(sample_ms, || {
            use lead_nn::simd::Kernel;
            out7.fill(0.0);
            backend.matmul_acc(&h7, &wh, &mut out7, 7, 64, 256);
            std::hint::black_box(&out7);
        }),
    );

    // ---- simd: dispatched a·bᵀ (the detector's backward dh/dx shape) -------
    // 78 rows of gate gradients (six 13-step sequences) times the transposed
    // 256×64 recurrent weight: the input-gradient product of every backward
    // pass, each output one `dot` in the 8-lane order.
    let g78: Vec<f32> = (0..78 * 256)
        .map(|i| (i as f32 * 0.31).sin() * 0.5)
        .collect();
    let w64: Vec<f32> = (0..64 * 256)
        .map(|i| (i as f32 * 0.43).cos() * 0.5)
        .collect();
    let mut out78 = vec![0.0f32; 78 * 64];
    push(
        "simd/matmul_a_bt_78x256x64_dispatch",
        "m=78 k=256 n=64 a-bt dot-order lanes=8".to_string(),
        measure(sample_ms, || {
            use lead_nn::simd::Kernel;
            out78.fill(0.0);
            backend.matmul_a_bt_acc(&g78, &w64, &mut out78, 78, 256, 64);
            std::hint::black_box(&out78);
        }),
    );

    // ---- simd: fused gate rows (LSTM/GRU hot loop shape) -------------------
    // Both activations are the libm-free kernels, eight lanes at a time on
    // AVX2; a revert to per-element libm calls is several times slower.
    let pre: Vec<f32> = (0..4_096).map(|i| (i as f32 * 0.23).sin() * 2.0).collect();
    let bias: Vec<f32> = (0..4_096).map(|i| (i as f32 * 0.11).cos() * 0.5).collect();
    let mut gate_out = vec![0.0f32; 4_096];
    push(
        "simd/sigmoid_gate_row_4096_dispatch",
        "len=4096 sigmoid-gate vec-add vec-exp cody-waite".to_string(),
        measure(sample_ms, || {
            use lead_nn::simd::Kernel;
            backend.sigmoid_gate(&pre, &bias, &mut gate_out);
            std::hint::black_box(&gate_out);
        }),
    );
    push(
        "simd/tanh_gate_row_4096_dispatch",
        "len=4096 tanh-gate vec-add vec-odd-poly vec-exp".to_string(),
        measure(sample_ms, || {
            use lead_nn::simd::Kernel;
            backend.tanh_gate(&pre, &bias, &mut gate_out);
            std::hint::black_box(&gate_out);
        }),
    );

    records
}

/// Verifies the ratchet machinery on synthetic records: a regression is
/// caught, a changed fingerprint goes stale instead of regressing, new and
/// removed benches are reported, and the serialisation round-trips.
fn self_test(max_ratio: f64) -> Result<(), String> {
    let rec = |name: &str, median_ns: u64, fp: &str| BenchRecord {
        name: name.to_string(),
        median_ns,
        iters: 20,
        fingerprint: fp.to_string(),
    };
    let baseline = vec![
        rec("a/slow_path", 1_000_000, "fp-a"),
        rec("b/stable", 500_000, "fp-b"),
        rec("c/reworked", 400_000, "fp-c-old"),
        rec("d/removed", 300_000, "fp-d"),
    ];
    // `a` regresses far beyond the ratio, `b` drifts but stays inside it,
    // `c` changed workload (fingerprint), `e` is new, `d` disappeared.
    let current = vec![
        rec(
            "a/slow_path",
            (1_000_000.0 * max_ratio * 4.0) as u64,
            "fp-a",
        ),
        rec("b/stable", (500_000.0 * max_ratio * 0.9) as u64, "fp-b"),
        rec("c/reworked", 40_000_000, "fp-c-new"),
        rec("e/brand_new", 100_000, "fp-e"),
    ];

    let report = compare(&current, &baseline, max_ratio);
    if report.passed() {
        return Err("synthetic regression was NOT detected".into());
    }
    if report.regressions.len() != 1 || report.regressions[0].name != "a/slow_path" {
        return Err(format!(
            "expected exactly the a/slow_path regression, got {:?}",
            report.regressions
        ));
    }
    let mut stale = report.stale.clone();
    stale.sort();
    if stale != ["c/reworked", "d/removed"] {
        return Err(format!("wrong stale set: {stale:?}"));
    }
    if report.missing_baseline != ["e/brand_new"] {
        return Err(format!("wrong new set: {:?}", report.missing_baseline));
    }

    // Round-trip: parse(render(x)) == x, and rendering is order-insensitive.
    let rendered = render_json(&baseline);
    let reparsed = parse_json(&rendered).map_err(|e| format!("round-trip parse failed: {e}"))?;
    let mut sorted_baseline = baseline.clone();
    sorted_baseline.sort_by(|a, b| a.name.cmp(&b.name));
    if reparsed != sorted_baseline {
        return Err("round-trip changed the records".into());
    }
    let mut shuffled = baseline;
    shuffled.reverse();
    if render_json(&shuffled) != rendered {
        return Err("rendering is input-order dependent".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let sample_ms = env_u64("BENCH_RATCHET_SAMPLE_MS", 150);
    let max_ratio = env_f64("BENCH_RATCHET_MAX_RATIO", 3.0);

    if args.iter().any(|a| a == "--self-test") {
        return match self_test(max_ratio) {
            Ok(()) => {
                println!("ratchet self-test passed (synthetic regression detected)");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("ratchet self-test FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let write_path = flag_value("--write");
    let baseline_path = flag_value("--baseline");
    let update_path = flag_value("--update-baseline");
    if write_path.is_none() && baseline_path.is_none() && update_path.is_none() {
        eprintln!(
            "usage: bench_ratchet [--write PATH] [--baseline PATH] [--update-baseline PATH] [--self-test]"
        );
        return ExitCode::FAILURE;
    }

    println!("{SCHEMA}: sample budget {sample_ms} ms/bench, headroom {max_ratio:.2}x");
    let records = run_suite(sample_ms);
    let rendered = render_json(&records);

    for path in [&write_path, &update_path].into_iter().flatten() {
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create output directory");
            }
        }
        std::fs::write(path, &rendered).expect("write bench results");
        println!("[written] {path}");
    }

    if let Some(path) = baseline_path {
        let baseline_raw = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read baseline `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        };
        let baseline = match parse_json(&baseline_raw) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot parse baseline `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        };
        let report = compare(&records, &baseline, max_ratio);
        print!("{}", report.render(max_ratio));
        if !report.passed() {
            eprintln!("bench-ratchet gate FAILED");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
