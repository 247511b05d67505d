//! The safe scalar reference backend.
//!
//! These implementations *define* the bit-identity contract for every kernel
//! in the surface:
//!
//! - **Reduction kernels** ([`dot`]) evaluate in exactly the order a
//!   [`LANES`]-wide vector unit does — blocked per-lane accumulation over
//!   full chunks, a fixed-order sequential reduction of the lane
//!   accumulators, then a sequential tail — so SIMD backends can match them
//!   bit-for-bit without emulating scalar order.
//! - **Elementwise kernels** ([`axpy`], [`add`], [`sub`], [`mul`], [`scale`],
//!   the backward kernels, [`adam_update`]) have no cross-element
//!   data flow, so their contract is the exact per-element instruction
//!   sequence written here: separate multiply and add (never a fused
//!   multiply-add), and division and square root (both IEEE correctly
//!   rounded, hence vectorisable bit-identically).
//! - **Transcendental kernels** ([`exp`], [`sigmoid`], [`tanh`] and the two
//!   gates) are elementwise too. They call no libm: [`exp_one`],
//!   [`sigmoid_one`] and [`tanh_one`] build them from the operations above
//!   plus comparisons and bit manipulation, with every constant and the
//!   order of every operation fixed here. Their branches are per element,
//!   so a vector backend evaluates both sides and selects lane by lane.
//! - **Composite kernels** ([`matmul_acc`], [`matmul_at_b_acc`],
//!   [`matmul_a_bt_acc`]) are defined as fixed loop nests over the primitive
//!   kernels above, including the exact-zero sparsity skip, so their bit
//!   pattern follows from the primitives'.
//!
//! Everything here is safe, dependency-free, and allocation-free; this
//! backend is always available as the dispatch fallback and the parity
//! oracle.

use super::{AdamCoeffs, LANES};

/// Dot product over the common prefix of `a` and `b` in the canonical
/// blocked evaluation order.
pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut lanes = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (ka, kb) in ca.by_ref().zip(cb.by_ref()) {
        for ((lane, &x), &y) in lanes.iter_mut().zip(ka).zip(kb) {
            // Separate multiply and add, mirroring the vector backends'
            // mul+add instruction pair (no fused multiply-add anywhere).
            *lane += x * y;
        }
    }
    // Lane reduction in ascending lane order — the order every backend
    // must reproduce when folding its vector accumulator.
    let mut acc = 0.0f32;
    for &lane in &lanes {
        acc += lane;
    }
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        acc += x * y;
    }
    acc
}

/// `y[i] += a * x[i]` over the common prefix of `x` and `y`.
pub(super) fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    let n = x.len().min(y.len());
    for (yi, &xi) in y[..n].iter_mut().zip(&x[..n]) {
        // Separate mul + add; per-element, so no blocking is needed.
        *yi += a * xi;
    }
}

/// `out[i] = a[i] + b[i]` over the common prefix of all three slices.
pub(super) fn add(a: &[f32], b: &[f32], out: &mut [f32]) {
    let n = a.len().min(b.len()).min(out.len());
    for ((o, &x), &y) in out[..n].iter_mut().zip(&a[..n]).zip(&b[..n]) {
        *o = x + y;
    }
}

/// `out[i] = a[i] - b[i]` over the common prefix of all three slices.
pub(super) fn sub(a: &[f32], b: &[f32], out: &mut [f32]) {
    let n = a.len().min(b.len()).min(out.len());
    for ((o, &x), &y) in out[..n].iter_mut().zip(&a[..n]).zip(&b[..n]) {
        *o = x - y;
    }
}

/// `out[i] = a[i] * b[i]` over the common prefix of all three slices.
pub(super) fn mul(a: &[f32], b: &[f32], out: &mut [f32]) {
    let n = a.len().min(b.len()).min(out.len());
    for ((o, &x), &y) in out[..n].iter_mut().zip(&a[..n]).zip(&b[..n]) {
        *o = x * y;
    }
}

/// `x[i] *= s` in place.
pub(super) fn scale(x: &mut [f32], s: f32) {
    for xi in x.iter_mut() {
        *xi *= s;
    }
}

// ---- transcendentals -------------------------------------------------------
//
// `exp`, `sigmoid` and `tanh` use only IEEE `+ − × ÷`, comparisons and bit
// manipulation, each in the fixed order written here, so their bits are the
// same on every IEEE-754 platform and a vector unit can mirror them lane for
// lane. Each stays within 2 ulp of the exact function on every `f32` input
// (`tests/transcendental_ulp.rs` checks all 2³²). A NaN input comes back
// unchanged, bits included.

/// `log2(e)` rounded to `f32`.
pub(super) const LOG2E: f32 = std::f32::consts::LOG2_E;

/// High part of the Cody–Waite split `ln 2 = LN2_HI + LN2_LO`. It has nine
/// significant bits, so `k · LN2_HI` and `x − k · LN2_HI` are exact for
/// every `|k| ≤ 150` the clamps allow.
pub(super) const LN2_HI: f32 = 355.0 / 512.0;

/// Low part of the Cody–Waite split of `ln 2`.
pub(super) const LN2_LO: f32 = -0.000_212_194_44;

/// `1.5 · 2²³`. Adding it to `|v| < 2²²` rounds `v` to an integer (ties to
/// even) and leaves that integer in the low mantissa bits.
pub(super) const ROUND_MAGIC: f32 = 12_582_912.0;

/// Minimax coefficients of `(eʳ − 1 − r) / r²` on `|r| ≤ ln 2 / 2`,
/// highest degree first (the Cephes `expf` polynomial).
pub(super) const EXP_POLY: [f32; 6] = [
    0.000_198_756_91,
    0.001_398_199_9,
    0.008_333_452,
    0.041_665_796,
    0.166_666_66,
    0.5,
];

/// `exp` clamps its input into `[EXP_MIN, EXP_MAX]`. Below `EXP_MIN`, `eˣ`
/// rounds to `0`; above `EXP_MAX`, it overflows to `+∞`. The clamp keeps
/// the reduction's `k` inside what [`scale_pow2`] can build.
pub(super) const EXP_MIN: f32 = -104.0;

/// Upper clamp of `exp`; see [`EXP_MIN`].
pub(super) const EXP_MAX: f32 = 89.0;

/// `sigmoid` clamps `−x` into `[−SIGMOID_ONE, −EXP_MIN]`. Past either end
/// the result is already exactly `1` (from `x ≥ 16.29`) or `0` (from
/// `x ≤ −103.97`); the clamp keeps `k` inside what [`scale_pow2`] and
/// [`pow2`] can build.
pub(super) const SIGMOID_ONE: f32 = 26.0;

/// `sigmoid` adds `2^−k` to `1` exactly first while `k` is below this
/// (`1 + 2^−k` is exact for `|k| ≤ 23`), and otherwise sums the two small
/// terms first.
pub(super) const SIGMOID_EXACT_K: i32 = 24;

/// Floor on the exponent of `sigmoid`'s `2^−k` term: below `2^−30` it
/// cannot change `1 + q` any more, and the floor keeps it buildable.
pub(super) const SIGMOID_MIN_EXP: i32 = -30;

/// Below this `|x|`, `tanh` is the odd polynomial [`TANH_POLY`]; from it
/// on, `1 − 2 / (e²ˣ + 1)`.
pub(super) const TANH_POLY_MAX: f32 = 0.625;

/// Minimax coefficients of `(tanh(x) − x) / x³` in `z = x²` on
/// `|x| < 0.625`, highest degree first (the Cephes `tanhf` polynomial).
pub(super) const TANH_POLY: [f32; 5] = [
    -0.005_704_988_7,
    0.020_639_088,
    -0.053_739_715,
    0.133_314_42,
    -0.333_332_8,
];

/// `2^e` for `−126 ≤ e ≤ 127`, built from the exponent bits.
#[inline]
fn pow2(e: i32) -> f32 {
    f32::from_bits((e + 127).cast_unsigned() << 23)
}

/// `y · 2^k` for `|k| ≤ 150`, as two multiplies by normal powers of two.
/// Callers keep `y · 2^(k >> 1)` normal, so the first is exact and only the
/// second rounds (into the subnormal range, or to `∞`).
#[inline]
fn scale_pow2(y: f32, k: i32) -> f32 {
    let half = k >> 1;
    y * pow2(half) * pow2(k - half)
}

/// Cody–Waite reduction shared by `exp` and `sigmoid`: writes
/// `eˣ = 2^k · (1 + q)` and returns `(k, q)`, for `x` in `[−104, 104]`.
/// `k = round(x · log2 e)`, `r = (x − k·LN2_HI) − k·LN2_LO` and
/// `q = P(r)·r² + r`, with the polynomial in Horner order.
#[inline]
fn exp_parts(x: f32) -> (i32, f32) {
    let t = x * LOG2E + ROUND_MAGIC;
    let kf = t - ROUND_MAGIC;
    let k = t.to_bits().cast_signed() - ROUND_MAGIC.to_bits().cast_signed();
    let r = (x - kf * LN2_HI) - kf * LN2_LO;
    let [mut p, rest @ ..] = EXP_POLY;
    for c in rest {
        p = p * r + c;
    }
    (k, p * (r * r) + r)
}

/// `eˣ` as every backend evaluates it.
#[inline]
pub(super) fn exp_one(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    let (k, q) = exp_parts(x.clamp(EXP_MIN, EXP_MAX));
    scale_pow2(q + 1.0, k)
}

/// The logistic sigmoid `1 / (1 + e⁻ˣ)` as every backend evaluates it.
///
/// With `e⁻ˣ = 2^k · (1 + q)` from [`exp_parts`], `σ(x) = 2^−k / d` where
/// `d = 2^−k + 1 + q`. Scaling by `2^−k` last keeps `e⁻ˣ` from overflowing
/// for very negative `x`, where `σ(x)` is subnormal. `1 + 2^−k` is exact
/// for `|k| ≤ 23`, so `d` is rounded once there; for `k ≥ 24` the two
/// small terms are summed first, and for `k ≤ −24` (`x ≥ 16.6`) `σ(x)` is
/// within `2⁻²³` of `1` either way.
#[inline]
pub(super) fn sigmoid_one(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    let (k, q) = exp_parts((-x).clamp(-SIGMOID_ONE, -EXP_MIN));
    let h = pow2((-k).max(SIGMOID_MIN_EXP));
    let d = if k < SIGMOID_EXACT_K {
        (1.0 + h) + q
    } else {
        1.0 + (h + q)
    };
    scale_pow2(1.0 / d, -k)
}

/// `tanh(x)` as every backend evaluates it. Both branches compute
/// `tanh(|x|)`, and the sign of `x` is copied on last, so `tanh` is exactly
/// odd and `tanh(−0.0) = −0.0`. Below `|x| = 0.625` it is the odd
/// polynomial `a + P(a²)·a²·a`, which maps subnormals to themselves; from
/// there on it is `1 − 2 / (e^{2|x|} + 1)`, exactly `±1` from `|x| ≥ 9.011`.
#[inline]
pub(super) fn tanh_one(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    let a = x.abs();
    let t = if a < TANH_POLY_MAX {
        let z = a * a;
        let [mut p, rest @ ..] = TANH_POLY;
        for c in rest {
            p = p * z + c;
        }
        p * z * a + a
    } else {
        1.0 - 2.0 / (exp_one(a + a) + 1.0)
    };
    t.copysign(x)
}

/// `out[i] = exp(a[i])` over the common prefix.
pub(super) fn exp(a: &[f32], out: &mut [f32]) {
    let n = a.len().min(out.len());
    for (o, &z) in out[..n].iter_mut().zip(&a[..n]) {
        *o = exp_one(z);
    }
}

/// `out[i] = sigmoid(a[i])` over the common prefix.
pub(super) fn sigmoid(a: &[f32], out: &mut [f32]) {
    let n = a.len().min(out.len());
    for (o, &z) in out[..n].iter_mut().zip(&a[..n]) {
        *o = sigmoid_one(z);
    }
}

/// `out[i] = tanh(a[i])` over the common prefix.
pub(super) fn tanh(a: &[f32], out: &mut [f32]) {
    let n = a.len().min(out.len());
    for (o, &z) in out[..n].iter_mut().zip(&a[..n]) {
        *o = tanh_one(z);
    }
}

/// Fused gate: `out[i] = sigmoid(pre[i] + bias[i])` over the common prefix.
pub(super) fn sigmoid_gate(pre: &[f32], bias: &[f32], out: &mut [f32]) {
    let n = pre.len().min(bias.len()).min(out.len());
    for ((o, &p), &b) in out[..n].iter_mut().zip(&pre[..n]).zip(&bias[..n]) {
        *o = sigmoid_one(p + b);
    }
}

/// Fused gate: `out[i] = tanh(pre[i] + bias[i])` over the common prefix.
pub(super) fn tanh_gate(pre: &[f32], bias: &[f32], out: &mut [f32]) {
    let n = pre.len().min(bias.len()).min(out.len());
    for ((o, &p), &b) in out[..n].iter_mut().zip(&pre[..n]).zip(&bias[..n]) {
        *o = tanh_one(p + b);
    }
}

/// Sigmoid backward: `out[i] = g[i] * y[i] * (1 - y[i])` (left-associated,
/// as the tape has always evaluated it) over the common prefix.
pub(super) fn sigmoid_bwd(g: &[f32], y: &[f32], out: &mut [f32]) {
    let n = g.len().min(y.len()).min(out.len());
    for ((o, &gi), &yi) in out[..n].iter_mut().zip(&g[..n]).zip(&y[..n]) {
        *o = gi * yi * (1.0 - yi);
    }
}

/// Tanh backward: `out[i] = g[i] * (1 - y[i] * y[i])` over the common prefix.
pub(super) fn tanh_bwd(g: &[f32], y: &[f32], out: &mut [f32]) {
    let n = g.len().min(y.len()).min(out.len());
    for ((o, &gi), &yi) in out[..n].iter_mut().zip(&g[..n]).zip(&y[..n]) {
        *o = gi * (1.0 - yi * yi);
    }
}

/// Blocked matrix-multiply accumulate: `out[m×n] += a[m×k] × b[k×n]`, all
/// row-major, in the i-k-j loop order with an [`axpy`] inner loop.
///
/// The exact-zero skip on `a`'s entries is part of the contract: gradients
/// are genuinely sparse after slicing/concat backward passes, and skipping
/// an entire axpy whose coefficient is `±0.0` never changes stored bits
/// (`out + 0.0 * b` only differs for `out = -0.0`, which the skip
/// *preserves* rather than rewrites — the historical behaviour this
/// reference inherited and every backend must keep).
pub(super) fn matmul_acc(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (kk, &aik) in a_row.iter().enumerate() {
            // lint: allow(float-eq): exact-zero sparsity skip; a tolerance would change results
            if aik == 0.0 {
                continue;
            }
            axpy(aik, &b[kk * n..(kk + 1) * n], out_row);
        }
    }
}

/// Transpose-free `out[k×n] += aᵀ × b` (`a` is `m×k`, `b` is `m×n`): rows
/// of `a` in ascending order, one [`axpy`] of `b`'s row per entry, with the
/// same exact-zero skip as [`matmul_acc`]. Per output element this is
/// `matmul_acc` of the transposed `a`, which is how the vector backends
/// evaluate it.
pub(super) fn matmul_at_b_acc(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for r in 0..m {
        let b_row = &b[r * n..(r + 1) * n];
        for (p, &arp) in a[r * k..(r + 1) * k].iter().enumerate() {
            // lint: allow(float-eq): exact-zero sparsity skip; a tolerance would change results
            if arp == 0.0 {
                continue;
            }
            axpy(arp, b_row, &mut out[p * n..(p + 1) * n]);
        }
    }
}

/// Transpose-free `out[m×n] += a × bᵀ` (`a` is `m×k`, `b` is `n×k`): every
/// output element adds one blocked [`dot`] of a row of `a` and a row of `b`.
pub(super) fn matmul_a_bt_acc(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for (j, o) in out[i * n..(i + 1) * n].iter_mut().enumerate() {
            *o += dot(a_row, &b[j * k..(j + 1) * k]);
        }
    }
}

/// One Adam/AdamW update over the common prefix of the four buffers:
/// moment updates, bias correction, and the decoupled-weight-decay step, in
/// the exact per-element order `optim::Adam` has always used. Division and
/// `sqrt` are IEEE correctly rounded, so vector backends reproduce this
/// bit-for-bit with `div`/`sqrt` instructions.
pub(super) fn adam_update(p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], c: &AdamCoeffs) {
    let n = p.len().min(g.len()).min(m.len()).min(v.len());
    let om1 = 1.0 - c.beta1;
    let om2 = 1.0 - c.beta2;
    let (p, m, v) = (&mut p[..n], &mut m[..n], &mut v[..n]);
    for (((pi, &gi), mi), vi) in p
        .iter_mut()
        .zip(&g[..n])
        .zip(m.iter_mut())
        .zip(v.iter_mut())
    {
        let mn = c.beta1 * *mi + om1 * gi;
        let vn = c.beta2 * *vi + om2 * gi * gi;
        *mi = mn;
        *vi = vn;
        let mhat = mn / c.bc1;
        let vhat = vn / c.bc2;
        let cur = *pi;
        *pi = cur - c.lr * (mhat / (vhat.sqrt() + c.eps) + c.weight_decay * cur);
    }
}
