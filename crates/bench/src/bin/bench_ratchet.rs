//! The perf-ratchet gate: runs the bench suite over fixed synthetic
//! workloads and compares it against the checked-in `bench.baseline`
//! (DESIGN.md §12).
//!
//! Usage:
//!
//! ```text
//! bench_ratchet [--write PATH] [--baseline PATH] [--update-baseline PATH] [--self-test]
//! ```
//!
//! - `--write PATH` — run the suite and write its absolute rows as the
//!   canonical `bench-ratchet/v1` JSON (CI writes
//!   `target/bench-ratchet/BENCH.json`).
//! - `--baseline PATH` — gate the run: exit 1 when a ratio row exceeds its
//!   bound in [`GATES`] or a fingerprint-matched absolute row exceeds
//!   [`MAX_RATIO`] times its baseline. Stale and new absolute rows, and
//!   ratio rows this CPU cannot run, are reported but do not fail the gate.
//! - `--update-baseline PATH` — run the suite and (re)write the baseline.
//! - `--self-test` — plant reverts into the ratio rows and require the gate
//!   to reject each one: the tape detector in place of the packed one, the
//!   AVX2 tiles in place of the AVX-512 ones in each matrix product, AVX2's
//!   8-lane transcendentals in place of the 16-lane ones in the gates and
//!   the LSTM cell, and a 1.5× delay in the optimised arm of
//!   [`DELAYED_ROW`]. Exits non-zero if any plant passes. The first three
//!   are reverts, which read ≈ 1.0 and every bound rejects; only
//!   [`DELAYED_ROW`]'s bound is sized to reject a 1.5× slowdown, and the
//!   other rows would pass one.
//!
//! Every bound and setting is a constant here or in [`lead_bench::ratchet`];
//! nothing is read from the environment.

use lead_baselines::Whitelist;
use lead_bench::ratchet::{
    compare, fingerprint, measure, measure_ratio, parse_json, render_json, BenchRecord,
    RatioRecord, BLOCKS, BLOCK_MS, MAX_RATIO, SAMPLE_MS, SCHEMA,
};
use lead_core::config::LeadConfig;
use lead_core::detection::{build_groups, GroupDetector};
use lead_core::encoding::{Autoencoder, EncoderKind};
use lead_core::features::{TrajectoryFeatures, FEATURE_DIM};
use lead_core::processing::{enumerate_candidates, extract_stay_points, ProcessedTrajectory};
use lead_core::streaming::IncrementalStayExtractor;
use lead_data::records::{TrajectoryReader, TrajectoryWriter};
use lead_geo::{GpsPoint, Trajectory};
use lead_nn::simd::{Backend, Kernel};
use lead_nn::{Graph, Matrix};
use lead_synth::{generate_dataset, SynthConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// A revert planted into the ratio rows by `--self-test`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plant {
    /// `GroupDetector::probabilities` runs `forward_graph` on the tape.
    TapeDetector,
    /// `Backend::Avx512` runs the AVX2 tiles in the three matrix products.
    Avx2Products,
    /// `Backend::Avx512` runs AVX2's 8-lane transcendentals in the gates
    /// and the LSTM cell.
    Avx2Transcendentals,
    /// The optimised arm of [`DELAYED_ROW`] takes 1.5× as long.
    Delay,
}

/// The row whose optimised arm [`Plant::Delay`] slows down.
const DELAYED_ROW: &str = "encoding/encode_all_over_per_candidate_28";

/// The row whose reference is a different algorithm.
const STREAMING_ROW: &str = "streaming/incremental_over_batch_5000_points";

/// Every ratio row's gate, `(row, seen, bound)`, and the only home of the
/// bounds. `seen` is the highest median the row read over 22 or more suite
/// processes on an idle 2-core AVX-512 VM, leaving out the processes in
/// which all three gate rows moved together, every block of each, while
/// the rows on either side held (2 of the 22 that set the two AVX-512 over
/// AVX2 transcendental rows: a load from outside the process that lasted
/// the whole gate group, not a spread within it); `bound`, the largest
/// median that passes, sits halfway between `seen` and 1.0, the ratio a
/// revert reads, to two decimals. Two rows differ:
///
/// - [`DELAYED_ROW`]: both arms run the same kernels, so its ratio is a
///   work ratio and the steadiest across processes (0.079–0.085). Its bound
///   sits between that and 1.5 × 0.079 = 0.119, so the gate rejects
///   [`Plant::Delay`]'s 1.5× slowdown here.
/// - [`STREAMING_ROW`]: no revert reads 1.0. The incremental arm does the
///   batch arm's scan plus a per-point check, and the quadratic rescan it
///   once regressed to reads in the hundreds. Its bound is [`MAX_RATIO`]
///   times `seen`, the absolute rows' guard against complexity blow-ups, on
///   a measure that cancels clock drift.
const GATES: [(&str, f64, f64); 14] = [
    ("simd/matmul_acc_1x64x256_avx512_over_avx2", 0.570, 0.79),
    ("simd/matmul_acc_6x64x256_avx512_over_avx2", 0.649, 0.82),
    ("simd/matmul_acc_78x64x256_avx512_over_avx2", 0.728, 0.86),
    ("simd/matmul_at_b_acc_78x64x256_avx512_over_avx2", 0.79, 0.9),
    (
        "simd/matmul_a_bt_acc_78x256x64_avx512_over_avx2",
        0.665,
        0.83,
    ),
    ("simd/sigmoid_gate_4096_avx2_over_scalar", 0.599, 0.8),
    ("simd/tanh_gate_4096_avx2_over_scalar", 0.628, 0.81),
    ("simd/sigmoid_gate_4096_avx512_over_avx2", 0.643, 0.82),
    ("simd/lstm_cell_78x64_avx512_over_avx2", 0.593, 0.8),
    ("detection/packed_over_tape_n14", 0.375, 0.69),
    (DELAYED_ROW, 0.084, 0.1),
    ("poi/grid_over_scan_counts_256_queries", 0.005, 0.5),
    (
        "baselines/whitelist_grid_over_scan_256_queries",
        0.069,
        0.53,
    ),
    (STREAMING_ROW, 1.364, 4.1),
];

/// The bound of a ratio row.
fn bound(name: &str) -> f64 {
    GATES
        .iter()
        .find(|g| g.0 == name)
        .unwrap_or_else(|| panic!("ratio row `{name}` has no entry in GATES"))
        .2
}

/// Collects the rows of one run. With a plant, only the ratio rows it
/// targets are measured.
struct Suite {
    plant: Option<Plant>,
    absolute: Vec<BenchRecord>,
    ratios: Vec<RatioRecord>,
}

impl Suite {
    fn new(plant: Option<Plant>) -> Self {
        Suite {
            plant,
            absolute: Vec::new(),
            ratios: Vec::new(),
        }
    }

    fn planted(&self, plant: Plant) -> bool {
        self.plant == Some(plant)
    }

    /// An absolute row: a median wall time.
    fn absolute(&mut self, name: &str, desc: &str, f: impl FnMut()) {
        let (median_ns, iters) = measure(SAMPLE_MS, f);
        println!("[bench] {name:<52} median {median_ns:>12} ns over {iters} iters");
        self.absolute.push(BenchRecord {
            name: name.to_string(),
            median_ns,
            iters,
            fingerprint: fingerprint(desc),
        });
    }

    /// A ratio row: `opt` over `reference`, gated at its bound in [`GATES`].
    /// `targets` lists the plants that swap this row's arms; [`Plant::Delay`]
    /// acts on [`DELAYED_ROW`] alone.
    fn ratio(
        &mut self,
        name: &str,
        targets: &[Plant],
        opt: &mut dyn FnMut(),
        reference: &mut dyn FnMut(),
    ) {
        let delay = self.planted(Plant::Delay) && name == DELAYED_ROW;
        if self.plant.is_some_and(|p| !targets.contains(&p)) && !delay {
            return;
        }
        let blocks = if delay {
            measure_ratio(BLOCKS, BLOCK_MS, &mut delayed(opt), reference)
        } else {
            measure_ratio(BLOCKS, BLOCK_MS, opt, reference)
        };
        let (ratio, bound) = (blocks.median(), bound(name));
        println!(
            "[bench] {name:<52} ratio {ratio:.3} (blocks {:.3}–{:.3}), bound {bound:.2}",
            blocks.0[0],
            blocks.0[blocks.0.len() - 1]
        );
        self.ratios.push(RatioRecord {
            name: name.to_string(),
            ratio,
            bound,
        });
    }
}

/// A ratio row this CPU cannot run: reported, never failed.
fn skip(name: &str) {
    println!("[bench] {name:<52} skipped: backend not available");
}

/// `f`, then a spin until the call has taken 1.5× as long.
fn delayed(f: &mut dyn FnMut()) -> impl FnMut() + '_ {
    move || {
        let t = Instant::now();
        f();
        let stop = t.elapsed().mul_f64(1.5);
        while t.elapsed() < stop {
            std::hint::spin_loop();
        }
    }
}

/// The first backend of [`Backend::available`] with this name.
fn backend(name: &str) -> Option<Backend> {
    Backend::available().into_iter().find(|b| b.name() == name)
}

/// `len` deterministic operand values in `[0.25, 1.25]`, starting on a
/// 64-byte boundary (a cache line, one 512-bit register) at the returned
/// offset, so where the allocator puts an operand cannot move a product's
/// ratio. No value is an exact zero, so every block of `matmul_acc` runs
/// its branch-free `k` loop.
fn operand(len: usize, salt: f32) -> (Vec<f32>, usize) {
    let mut buf = vec![0.0f32; len + 16];
    let at = buf.as_ptr().align_offset(64);
    for (i, x) in buf[at..at + len].iter_mut().enumerate() {
        *x = (i as f32 * salt).sin() * 0.5 + 0.75;
    }
    (buf, at)
}

/// The three matrix products, AVX-512 over AVX2, at shapes the detector
/// runs. Its LSTMs (hidden 64 over a 64-wide input: 256 gate columns) call
/// `matmul_acc` as m×64×256 for each recurrent step of `m` active rows and
/// each input projection; a one-row and a six-row step stand for the steps,
/// and a 78-row projection (m = 78 is 17 % of `detect_busy`'s multiply-adds,
/// `results/tiles_pairs.txt` D) for the projections, whose gradients over
/// the same rows are `matmul_at_b_acc` 78×64×256 and `matmul_a_bt_acc`
/// 78×256×64. (The one-row `matmul_a_bt_acc` step has no row: its kernel
/// packs two output rows a register, so at one row it runs AVX2's code and
/// reads 1.0.)
fn product_rows(suite: &mut Suite) {
    type Product = fn(&Backend, &[f32], &[f32], &mut [f32], usize, usize, usize);
    // (name, product, [m, k, n], a, b and out lengths)
    let rows: [(&str, Product, [usize; 3], [usize; 3]); 5] = [
        (
            "simd/matmul_acc_1x64x256_avx512_over_avx2",
            Backend::matmul_acc,
            [1, 64, 256],
            [64, 64 * 256, 256],
        ),
        (
            "simd/matmul_acc_6x64x256_avx512_over_avx2",
            Backend::matmul_acc,
            [6, 64, 256],
            [6 * 64, 64 * 256, 6 * 256],
        ),
        (
            "simd/matmul_acc_78x64x256_avx512_over_avx2",
            Backend::matmul_acc,
            [78, 64, 256],
            [78 * 64, 64 * 256, 78 * 256],
        ),
        (
            "simd/matmul_at_b_acc_78x64x256_avx512_over_avx2",
            Backend::matmul_at_b_acc,
            [78, 64, 256],
            [78 * 64, 78 * 256, 64 * 256],
        ),
        (
            "simd/matmul_a_bt_acc_78x256x64_avx512_over_avx2",
            Backend::matmul_a_bt_acc,
            [78, 256, 64],
            [78 * 256, 64 * 256, 78 * 64],
        ),
    ];
    let backends = (backend("avx512"), backend("avx2"));
    for (name, product, [m, k, n], [a_len, b_len, out_len]) in rows {
        let (Some(wide), Some(narrow)) = backends else {
            skip(name);
            continue;
        };
        let fast = if suite.planted(Plant::Avx2Products) {
            narrow
        } else {
            wide
        };
        let ((a, a_at), (b, b_at)) = (operand(a_len, 0.29), operand(b_len, 0.41));
        let ((mut out_fast, f_at), (mut out_ref, r_at)) =
            (operand(out_len, 0.0), operand(out_len, 0.0));
        let (a, b) = (&a[a_at..][..a_len], &b[b_at..][..b_len]);
        let out_fast = &mut out_fast[f_at..][..out_len];
        let out_ref = &mut out_ref[r_at..][..out_len];
        suite.ratio(
            name,
            &[Plant::Avx2Products],
            &mut || {
                out_fast.fill(0.0);
                product(&fast, a, b, out_fast, m, k, n);
                black_box(&*out_fast);
            },
            &mut || {
                out_ref.fill(0.0);
                product(&narrow, a, b, out_ref, m, k, n);
                black_box(&*out_ref);
            },
        );
    }
}

/// The two fused LSTM gates, AVX2 over the scalar reference, and the
/// sigmoid gate AVX-512 over AVX2. (`dot` has no row: the compiler
/// vectorises the scalar reference's eight-lane blocked order, and AVX2
/// over it read 0.74–1.0 at 1,024–16,384 lanes.)
fn gate_rows(suite: &mut Suite) {
    let pre: Vec<f32> = (0..4_096).map(|i| (i as f32 * 0.23).sin() * 2.0).collect();
    let bias: Vec<f32> = (0..4_096).map(|i| (i as f32 * 0.11).cos() * 0.5).collect();
    let (mut out_fast, mut out_ref) = (vec![0.0f32; 4_096], vec![0.0f32; 4_096]);
    type Gate = fn(&Backend, &[f32], &[f32], &mut [f32]);
    let (wide, narrow) = (backend("avx512"), backend("avx2"));
    let fast = if suite.planted(Plant::Avx2Transcendentals) {
        narrow
    } else {
        wide
    };
    // (name, gate, optimised arm, reference arm, the plants that swap them)
    type Row = (
        &'static str,
        Gate,
        Option<Backend>,
        Option<Backend>,
        &'static [Plant],
    );
    let gates: [Row; 3] = [
        (
            "simd/sigmoid_gate_4096_avx2_over_scalar",
            Backend::sigmoid_gate,
            narrow,
            Some(Backend::Scalar),
            &[],
        ),
        (
            "simd/tanh_gate_4096_avx2_over_scalar",
            Backend::tanh_gate,
            narrow,
            Some(Backend::Scalar),
            &[],
        ),
        (
            "simd/sigmoid_gate_4096_avx512_over_avx2",
            Backend::sigmoid_gate,
            fast,
            narrow,
            &[Plant::Avx2Transcendentals],
        ),
    ];
    for (name, gate, opt, reference, targets) in gates {
        let (Some(opt), Some(reference)) = (opt, reference) else {
            skip(name);
            continue;
        };
        suite.ratio(
            name,
            targets,
            &mut || {
                gate(&opt, &pre, &bias, &mut out_fast);
                black_box(&out_fast);
            },
            &mut || {
                gate(&reference, &pre, &bias, &mut out_ref);
                black_box(&out_ref);
            },
        );
    }
}

/// One recurrent step's cell updates, AVX-512 over AVX2: `lstm_cell` on
/// each of 78 rows of the detector's 64 hidden units, as
/// `Lstm::infer_with` calls it once per running sequence. Each call starts
/// from the same cell state, so the values do not drift between calls.
fn cell_rows(suite: &mut Suite) {
    const ROWS: usize = 78;
    const HIDDEN: usize = 64;
    let name = "simd/lstm_cell_78x64_avx512_over_avx2";
    let (Some(wide), Some(narrow)) = (backend("avx512"), backend("avx2")) else {
        skip(name);
        return;
    };
    let fast = if suite.planted(Plant::Avx2Transcendentals) {
        narrow
    } else {
        wide
    };
    let values = |len: usize, salt: f32| -> Vec<f32> {
        (0..len).map(|i| (i as f32 * salt).sin() * 3.0).collect()
    };
    let (gx, gh) = (
        values(ROWS * 4 * HIDDEN, 0.37),
        values(ROWS * 4 * HIDDEN, 0.11),
    );
    let (bias, c0) = (values(4 * HIDDEN, 0.53), values(ROWS * HIDDEN, 0.29));
    let step = |k: &Backend, c: &mut [f32], h: &mut [f32]| {
        c.copy_from_slice(&c0);
        let rows = gx.chunks_exact(4 * HIDDEN).zip(gh.chunks_exact(4 * HIDDEN));
        let state = c.chunks_exact_mut(HIDDEN).zip(h.chunks_exact_mut(HIDDEN));
        for ((gx, gh), (c, h)) in rows.zip(state) {
            k.lstm_cell(gx, gh, &bias, c, h);
        }
        black_box(&*h);
    };
    let (mut c_fast, mut h_fast) = (vec![0.0f32; ROWS * HIDDEN], vec![0.0f32; ROWS * HIDDEN]);
    let (mut c_ref, mut h_ref) = (c_fast.clone(), h_fast.clone());
    suite.ratio(
        name,
        &[Plant::Avx2Transcendentals],
        &mut || step(&fast, &mut c_fast, &mut h_fast),
        &mut || step(&narrow, &mut c_ref, &mut h_ref),
    );
}

/// The packed detector and the shared-prefix encoder over their tape-era
/// references, the grid indexes over linear scans, and incremental stay
/// extraction over the batch extractor.
fn model_rows(suite: &mut Suite, cfg: &LeadConfig) {
    // ---- detection: packed inference over the tape at n = 14 -------------
    let dim = cfg.c_vec_dim();
    let mut rng = StdRng::seed_from_u64(21);
    let det = GroupDetector::new(cfg, dim, &mut rng);
    let cvecs: Vec<Vec<Matrix>> = build_groups(14)
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
    let refs: Vec<Vec<&Matrix>> = cvecs.iter().map(|s| s.iter().collect()).collect();
    let mut tape = || {
        let mut g = Graph::new(det.params());
        let p = det.forward_graph(&mut g, &refs);
        black_box(g.value(p));
    };
    let mut packed = || {
        black_box(det.probabilities(&refs));
    };
    let mut planted_tape = tape;
    let opt: &mut dyn FnMut() = if suite.planted(Plant::TapeDetector) {
        &mut planted_tape
    } else {
        &mut packed
    };
    suite.ratio(
        "detection/packed_over_tape_n14",
        &[Plant::TapeDetector],
        opt,
        &mut tape,
    );

    // ---- encoding: one shared-prefix pass over per-candidate encodes ------
    let mut rng = StdRng::seed_from_u64(9);
    let hier = Autoencoder::new(cfg, EncoderKind::Hierarchical, true, &mut rng);
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
    suite.ratio(
        DELAYED_ROW,
        &[],
        &mut || {
            black_box(hier.encode_all(&tf, &cands));
        },
        &mut || {
            for &cand in &cands {
                black_box(hier.encode_value(&tf.candidate(cand)));
            }
        },
    );

    // ---- grid indexes over linear scans: POI counts and SP-R whitelist ----
    let mut synth = SynthConfig::tiny();
    synth.num_background_pois = 3_000;
    let city = generate_dataset(&synth).city;
    let queries: Vec<(f64, f64)> = (0..256)
        .map(|i| {
            let f = f64::from(i);
            (
                32.0 + (f * 0.17).sin() * 0.15,
                120.9 + (f * 0.31).cos() * 0.15,
            )
        })
        .collect();
    suite.ratio(
        "poi/grid_over_scan_counts_256_queries",
        &[],
        &mut || {
            for &(lat, lng) in &queries {
                black_box(city.poi_db.category_counts_within(lat, lng, 100.0));
            }
        },
        &mut || {
            for &(lat, lng) in &queries {
                black_box(city.poi_db.category_counts_within_scan(lat, lng, 100.0));
            }
        },
    );
    let wl = Whitelist::from_locations(
        city.loading_sites
            .iter()
            .chain(&city.unloading_sites)
            .map(|s| (s.lat, s.lng))
            .collect(),
    );
    suite.ratio(
        "baselines/whitelist_grid_over_scan_256_queries",
        &[],
        &mut || {
            for &(lat, lng) in &queries {
                black_box(wl.contains_near_indexed(lat, lng, 500.0));
            }
        },
        &mut || {
            for &(lat, lng) in &queries {
                black_box(wl.contains_near_scan(lat, lng, 500.0));
            }
        },
    );

    // ---- streaming: incremental over batch extraction, 5,000-point dwell --
    // The workload that regressed to O(n²) once: a long dwell keeps the
    // anchor fixed while points pile up, so any per-point rescan of the
    // buffered suffix explodes quadratically.
    let dwell: Vec<GpsPoint> = (0..5_000)
        .map(|i| {
            let wobble = f64::from(i % 7) * 2.0e-6;
            GpsPoint::new(32.0 + wobble, 120.9, i64::from(i) * 15)
        })
        .collect();
    let dwell_tr = Trajectory::new(dwell.clone());
    suite.ratio(
        STREAMING_ROW,
        &[],
        &mut || {
            let mut ex = IncrementalStayExtractor::new(cfg.d_max_m, cfg.t_min_s);
            for i in 0..dwell.len() {
                black_box(ex.on_point_appended(&dwell[..=i]));
            }
            black_box(ex.finish(&dwell));
        },
        &mut || {
            black_box(extract_stay_points(
                &dwell_tr,
                cfg.d_max_m,
                cfg.t_min_s as f64,
            ));
        },
    );
}

/// Writes a deterministic synthetic lint corpus (NOT the real tree, whose
/// size changes every PR and would churn the ratchet) under the build's
/// `target/tmp` and returns its root: two classified crates, 24 files, a
/// mix of functions, literals, comments, loops, and seeded violations.
fn lint_corpus() -> std::path::PathBuf {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/tmp/lead-bench-lint-corpus-v1");
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

/// The absolute rows: processing, the binary data container and the lint
/// scanner, none of which has an in-process reference (so no plant targets
/// one).
fn absolute_rows(suite: &mut Suite, cfg: &LeadConfig) {
    if suite.plant.is_some() {
        return;
    }
    // ---- processing: noise filter + stay extraction + candidates ----------
    let mut synth = SynthConfig::tiny();
    synth.num_trucks = 12;
    synth.days_per_truck = 2;
    let ds = generate_dataset(&synth);
    let raws: Vec<_> = ds
        .train
        .iter()
        .chain(&ds.val)
        .chain(&ds.test)
        .map(|s| s.raw.clone())
        .collect();
    suite.absolute(
        "processing/pipeline_24_days",
        &format!(
            "seed={} trucks={} days={} d_max={} t_min={}",
            synth.seed, synth.num_trucks, synth.days_per_truck, cfg.d_max_m, cfg.t_min_s
        ),
        || {
            for raw in &raws {
                black_box(ProcessedTrajectory::from_raw(raw, cfg));
            }
        },
    );

    // ---- data: binary container decode of a 10k-point fleet ----------------
    // Grid-aligned coordinates engage the fixed-point (delta-varint) mode —
    // the production shape for GPS feeds on the 1e-7° grid.
    let fleet: Vec<(u32, Trajectory)> = (0..10u32)
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
            (truck, Trajectory::new(points))
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
    suite.absolute(
        "data/read_binary_10k",
        &format!(
            "trucks=10 points_per=1000 mode=fixed bytes={}",
            bin_bytes.len()
        ),
        || {
            let mut r = TrajectoryReader::new(std::io::Cursor::new(&bin_bytes))
                .expect("open bench container");
            while let Some(item) = r.next_record().expect("decode bench record") {
                black_box(item);
            }
        },
    );

    // ---- data: CSV parse + binary encode of the same fleet -----------------
    let csv_text = {
        let refs: Vec<(u32, &Trajectory)> = fleet.iter().map(|(id, t)| (*id, t)).collect();
        let mut buf = Vec::new();
        lead_geo::csv::write_trajectories(&refs, &mut buf).expect("render bench CSV");
        String::from_utf8(buf).expect("CSV is UTF-8")
    };
    suite.absolute(
        "data/convert_csv_10k",
        &format!("trucks=10 points_per=1000 csv_bytes={}", csv_text.len()),
        || {
            let reader =
                lead_geo::csv::CsvReader::new(csv_text.as_bytes()).expect("open bench CSV");
            let mut w = TrajectoryWriter::new(std::io::Cursor::new(Vec::new()))
                .expect("in-memory container header");
            for item in reader {
                let (id, tr) = item.expect("parse bench CSV row");
                w.write(id, &tr).expect("encode bench trajectory");
            }
            black_box(w.finish().expect("finish bench container").into_inner());
        },
    );

    // ---- lint: full workspace scan over a fixed synthetic corpus ----------
    let corpus = lint_corpus();
    suite.absolute(
        "lint/scan_workspace_24_files",
        "crates=2 files_per=11 lines_per=~160 corpus=v1",
        || {
            black_box(lead_lint::scan_workspace(&corpus).expect("corpus scan succeeds"));
        },
    );
}

/// Runs the suite, or with a plant only the rows it targets.
fn run_suite(plant: Option<Plant>) -> Suite {
    let cfg = LeadConfig::paper();
    let mut suite = Suite::new(plant);
    product_rows(&mut suite);
    gate_rows(&mut suite);
    cell_rows(&mut suite);
    model_rows(&mut suite, &cfg);
    absolute_rows(&mut suite, &cfg);
    suite
}

/// Runs each plant and requires the gate to reject every row it planted.
fn self_test() -> Result<(), String> {
    for plant in [
        Plant::TapeDetector,
        Plant::Avx2Products,
        Plant::Avx2Transcendentals,
        Plant::Delay,
    ] {
        println!("==> planted revert: {plant:?}");
        let suite = run_suite(Some(plant));
        if suite.ratios.is_empty() {
            println!("skipped: this CPU lacks a backend the plant needs");
            continue;
        }
        print!("{}", compare(&[], &suite.ratios, &[]).render());
        if let Some(r) = suite.ratios.iter().find(|r| !r.regressed()) {
            return Err(format!("planted {plant:?} in {} was NOT rejected", r.name));
        }
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
    let write_path = flag_value("--write");
    let baseline_path = flag_value("--baseline");
    let update_path = flag_value("--update-baseline");
    let self_test_run = args.iter().any(|a| a == "--self-test");
    if !self_test_run && write_path.is_none() && baseline_path.is_none() && update_path.is_none() {
        eprintln!(
            "usage: bench_ratchet [--write PATH] [--baseline PATH] [--update-baseline PATH] [--self-test]"
        );
        return ExitCode::FAILURE;
    }
    let baseline = match baseline_path.as_deref().map(|path| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline `{path}`: {e}"))
            .and_then(|raw| {
                parse_json(&raw).map_err(|e| format!("cannot parse baseline `{path}`: {e}"))
            })
    }) {
        Some(Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        Some(Ok(b)) => Some(b),
        None => None,
    };

    if self_test_run {
        return match self_test() {
            Ok(()) => {
                println!("ratchet self-test passed (every planted revert rejected)");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("ratchet self-test FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }

    println!(
        "{SCHEMA}: ratio rows {BLOCKS} blocks x {BLOCK_MS} ms, absolute rows {SAMPLE_MS} ms at {MAX_RATIO:.1}x headroom"
    );
    let suite = run_suite(None);
    let rendered = render_json(&suite.absolute);
    for path in [&write_path, &update_path].into_iter().flatten() {
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create output directory");
            }
        }
        std::fs::write(path, &rendered).expect("write bench results");
        println!("[written] {path}");
    }

    if let Some(baseline) = baseline {
        let report = compare(&suite.absolute, &suite.ratios, &baseline);
        print!("{}", report.render());
        if !report.passed() {
            eprintln!("bench-ratchet gate FAILED");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{DELAYED_ROW, GATES, MAX_RATIO, STREAMING_ROW};

    #[test]
    fn every_bound_sits_between_its_highest_reading_and_a_revert() {
        for (name, seen, bound) in GATES {
            assert!(seen < bound, "{name}: {seen} already fails {bound}");
            match name {
                // 1.5× the lowest reading, 0.079, must fail.
                DELAYED_ROW => assert!(bound < 1.5 * 0.079, "{name}: passes the delay"),
                STREAMING_ROW => assert!((bound - MAX_RATIO * seen).abs() < 0.01),
                _ => assert!(
                    (bound - (seen + 1.0) / 2.0).abs() <= 0.005 + 1e-9,
                    "{name}: {bound} is not halfway from {seen} to a revert's 1.0"
                ),
            }
        }
    }
}
