//! Accuracy and special values of the libm-free transcendentals in
//! `lead_simd`.
//!
//! The exhaustive test walks all 2³² `f32` bit patterns. It checks `exp`,
//! `sigmoid` and `tanh` against an `f64` reference (at most 2 ulp) and every
//! available backend against the scalar reference (same bits). It takes a few
//! minutes in release mode, so it is `#[ignore]`d and `scripts/ci.sh` runs it
//! by name:
//!
//! ```text
//! cargo test --release -q -p lead-simd --test transcendental_ulp -- \
//!     --ignored --exact every_f32_input_is_within_2_ulp_and_identical_across_backends
//! ```
//!
//! The remaining tests pin the special values and run in every build.

use lead_simd::{self as simd, Backend, Kernel};

/// The largest error the kernels may have, in units in the last place.
const MAX_ULP: f64 = 2.0;

/// Inputs per block of the exhaustive walk (2¹⁶ blocks of 2¹⁶).
const BLOCK: u64 = 1 << 16;

/// Error of `got` against the exact value `want`, in ulp of `want`'s binade
/// (the subnormal spacing 2⁻¹⁴⁹ below 2⁻¹²⁶). NaN must meet NaN; an exact
/// value that rounds to ±∞ in `f32` must meet that infinity.
fn ulp_error(got: f32, want: f64) -> f64 {
    if want.is_nan() {
        return if got.is_nan() { 0.0 } else { f64::INFINITY };
    }
    let rounded = want as f32;
    if rounded.is_infinite() || got.is_infinite() {
        return if got == rounded { 0.0 } else { f64::INFINITY };
    }
    let exponent = (((want.abs().to_bits() >> 52) as i32) - 1023).max(-126);
    let ulp = f64::from_bits(((exponent - 23 + 1023) as u64) << 52);
    (f64::from(got) - want).abs() / ulp
}

fn exp_ref(x: f32) -> f64 {
    f64::from(x).exp()
}

fn sigmoid_ref(x: f32) -> f64 {
    1.0 / (1.0 + (-f64::from(x)).exp())
}

fn tanh_ref(x: f32) -> f64 {
    f64::from(x).tanh()
}

/// One kernel under test: its name, its slice kernel and its reference.
type Case = (
    &'static str,
    fn(&Backend, &[f32], &mut [f32]),
    fn(f32) -> f64,
);

const CASES: [Case; 3] = [
    ("exp", |k, a, o| k.exp(a, o), exp_ref),
    ("sigmoid", |k, a, o| k.sigmoid(a, o), sigmoid_ref),
    ("tanh", |k, a, o| k.tanh(a, o), tanh_ref),
];

/// What one block of the walk found, per kernel: the worst error and its
/// input bits, and the first input on which a backend differed from scalar.
#[derive(Clone, Copy, Default)]
struct BlockResult {
    worst: [(f64, u32); 3],
    mismatch: [Option<(u32, &'static str)>; 3],
}

fn check_block(block: u64) -> BlockResult {
    let xs: Vec<f32> = (block * BLOCK..(block + 1) * BLOCK)
        .map(|b| f32::from_bits(b as u32))
        .collect();
    let backends = Backend::available();
    let mut want = vec![0.0f32; xs.len()];
    let mut got = vec![0.0f32; xs.len()];
    let mut result = BlockResult::default();
    for (c, &(_, kernel, reference)) in CASES.iter().enumerate() {
        kernel(&Backend::Scalar, &xs, &mut want);
        for (&x, &y) in xs.iter().zip(&want) {
            let err = ulp_error(y, reference(x));
            if err > result.worst[c].0 {
                result.worst[c] = (err, x.to_bits());
            }
        }
        for backend in &backends {
            kernel(backend, &xs, &mut got);
            let diff = xs
                .iter()
                .zip(got.iter().zip(&want))
                .find(|(_, (g, w))| g.to_bits() != w.to_bits());
            if let Some((x, _)) = diff {
                result.mismatch[c] = Some((x.to_bits(), backend.name()));
                break;
            }
        }
    }
    result
}

/// [`check_block`] over every block of the walk, one thread per core, each
/// taking every `threads`-th block. The order of the results does not
/// matter: the walk keeps maxima and any mismatch.
#[expect(
    clippy::disallowed_methods,
    reason = "this crate has no `lead_nn::par`; the merge is order-free"
)]
fn check_every_block() -> Vec<BlockResult> {
    let blocks = (1u64 << 32) / BLOCK;
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mine = (t as u64..blocks).step_by(threads);
                    mine.map(check_block).collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[test]
#[ignore = "walks all 2^32 inputs; run in release by name (scripts/ci.sh)"]
fn every_f32_input_is_within_2_ulp_and_identical_across_backends() {
    let results = check_every_block();
    let mut failures = Vec::new();
    for (c, &(name, _, _)) in CASES.iter().enumerate() {
        let (err, bits) =
            results
                .iter()
                .map(|r| r.worst[c])
                .fold((0.0, 0), |a, b| if b.0 > a.0 { b } else { a });
        println!(
            "{name}: max {err:.3} ulp at {:e} ({bits:#010x})",
            f32::from_bits(bits)
        );
        if err > MAX_ULP {
            failures.push(format!(
                "{name}: {err:.3} ulp at {:e} ({bits:#010x})",
                f32::from_bits(bits)
            ));
        }
        if let Some((bits, backend)) = results.iter().find_map(|r| r.mismatch[c]) {
            failures.push(format!(
                "{name}: backend `{backend}` differs from scalar at {bits:#010x}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Runs `kernel` on every backend over `xs` and returns the scalar bits,
/// asserting every backend produced the same.
fn on_every_backend(kernel: fn(&Backend, &[f32], &mut [f32]), xs: &[f32]) -> Vec<u32> {
    let mut want = vec![0.0f32; xs.len()];
    kernel(&Backend::Scalar, xs, &mut want);
    for backend in Backend::available() {
        let mut got = vec![0.0f32; xs.len()];
        kernel(&backend, xs, &mut got);
        for (x, (g, w)) in xs.iter().zip(got.iter().zip(&want)) {
            assert_eq!(g.to_bits(), w.to_bits(), "`{}` at {x:e}", backend.name());
        }
    }
    want.iter().map(|v| v.to_bits()).collect()
}

/// Repeats `xs` up to 19 elements so the special values reach both the
/// vector body and the scalar tail of every backend.
fn padded(xs: &[f32]) -> Vec<f32> {
    xs.iter().cycle().take(xs.len().max(19)).copied().collect()
}

#[test]
fn nan_inputs_come_back_unchanged() {
    let nans = padded(&[
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7fc0_1234),
        f32::from_bits(0xffa0_0001),
    ]);
    for (name, kernel, _) in CASES {
        let bits = on_every_backend(kernel, &nans);
        for (x, b) in nans.iter().zip(bits) {
            assert_eq!(b, x.to_bits(), "{name}({x:?})");
        }
    }
}

#[test]
fn exp_special_values_are_pinned() {
    let cases: [(f32, f32); 9] = [
        (0.0, 1.0),
        (-0.0, 1.0),
        (f32::from_bits(1), 1.0),
        (-f32::from_bits(0x007f_ffff), 1.0),
        (f32::INFINITY, f32::INFINITY),
        (f32::NEG_INFINITY, 0.0),
        (1000.0, f32::INFINITY),
        (-1000.0, 0.0),
        // The overflow edge: ln(f32::MAX) = 88.7228391… lies between
        // these two neighbours.
        (f32::from_bits(0x42b1_7218), f32::INFINITY),
    ];
    let xs = padded(&cases.map(|c| c.0));
    let bits = on_every_backend(|k, a, o| k.exp(a, o), &xs);
    for (&(x, want), b) in cases.iter().cycle().zip(bits) {
        assert_eq!(b, want.to_bits(), "exp({x:e})");
    }
    let edge = simd::exp(f32::from_bits(0x42b1_7217));
    assert!(
        edge.is_finite() && edge > 3.4e38,
        "exp(88.72283) = {edge:e}"
    );
    // The underflow edge: e^-103.97… is half the smallest subnormal.
    assert_eq!(simd::exp(-103.0).to_bits(), 1);
    assert_eq!(simd::exp(-104.0).to_bits(), 0);
    assert_eq!(simd::exp(1.0).to_bits(), std::f32::consts::E.to_bits());
}

#[test]
fn tanh_special_values_are_pinned() {
    let tiny = f32::from_bits(1);
    let cases: [(f32, f32); 10] = [
        (0.0, 0.0),
        // The sign of zero survives.
        (-0.0, -0.0),
        (tiny, tiny),
        (-tiny, -tiny),
        (f32::MIN_POSITIVE, f32::MIN_POSITIVE),
        (f32::INFINITY, 1.0),
        (f32::NEG_INFINITY, -1.0),
        (f32::MAX, 1.0),
        // Exact saturation: from |x| = 9.011 on, 1 − tanh(|x|) is below
        // half an ulp of 1.
        (9.02, 1.0),
        (-9.02, -1.0),
    ];
    let xs = padded(&cases.map(|c| c.0));
    let bits = on_every_backend(|k, a, o| k.tanh(a, o), &xs);
    for (&(x, want), b) in cases.iter().cycle().zip(bits) {
        assert_eq!(b, want.to_bits(), "tanh({x:e})");
    }
    assert!(simd::tanh(9.0) < 1.0);
    // Odd on both sides of the polynomial's range.
    for x in [0.1f32, 0.624, 0.625, 0.626, 3.0] {
        assert_eq!(simd::tanh(-x).to_bits(), (-simd::tanh(x)).to_bits());
    }
}

#[test]
fn sigmoid_saturation_points_are_pinned() {
    let tiny = f32::from_bits(1);
    let cases: [(f32, f32); 9] = [
        (0.0, 0.5),
        (-0.0, 0.5),
        (tiny, 0.5),
        (-tiny, 0.5),
        (f32::INFINITY, 1.0),
        (f32::NEG_INFINITY, 0.0),
        // Saturation to 1: the first input whose sigmoid rounds to 1.
        (SIGMOID_FIRST_ONE, 1.0),
        // Saturation to 0: the last input whose sigmoid rounds to 0.
        (SIGMOID_LAST_ZERO, 0.0),
        (-1000.0, 0.0),
    ];
    let xs = padded(&cases.map(|c| c.0));
    let bits = on_every_backend(|k, a, o| k.sigmoid(a, o), &xs);
    for (&(x, want), b) in cases.iter().cycle().zip(bits) {
        assert_eq!(b, want.to_bits(), "sigmoid({x:e})");
    }
    // Their neighbours inward have not saturated yet.
    let below_one = f32::from_bits(SIGMOID_FIRST_ONE.to_bits() - 1);
    assert!(simd::sigmoid(below_one) < 1.0);
    let above_zero = f32::from_bits(SIGMOID_LAST_ZERO.to_bits() - 1);
    assert_eq!(simd::sigmoid(above_zero).to_bits(), 1, "smallest subnormal");
}

/// The smallest `x` with `sigmoid(x) == 1.0`.
const SIGMOID_FIRST_ONE: f32 = 16.288_96;

/// The largest `x` with `sigmoid(x) == 0.0`.
const SIGMOID_LAST_ZERO: f32 = -103.972_084;
