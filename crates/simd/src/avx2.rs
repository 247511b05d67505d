//! The 256-bit AVX2 backend (x86-64 only).
//!
//! Bit-identity with [`super::scalar`] holds by construction, kernel by
//! kernel:
//!
//! - [`dot`] performs the same per-lane `mul` + `add` pair on the same
//!   [`LANES`]-wide chunks (separate `_mm256_mul_ps`/`_mm256_add_ps` — never
//!   FMA, whose single rounding would diverge from the reference), folds the
//!   stored accumulator in the same ascending lane order, and runs the same
//!   sequential scalar tail.
//! - The elementwise kernels ([`axpy`], [`add`], [`sub`], [`mul`],
//!   [`scale`], [`sigmoid_bwd`], [`tanh_bwd`], [`adam_update`]) have no
//!   cross-element data flow; each vector instruction applies the scalar
//!   reference's exact operation sequence to eight elements at once, and
//!   every individual operation used (`add`, `sub`, `mul`, `div`, `sqrt`)
//!   is IEEE correctly rounded, so each element's bits are unchanged.
//! - The transcendental kernels ([`map`] of `exp`, `sigmoid` and `tanh`,
//!   the gates [`gate`], and [`lstm_cell`]) are the [`lanes`] definitions
//!   at 256 bits, lane for lane the reference's libm-free ones.
//! - [`matmul_acc`] and [`matmul_at_b_acc`] are the [`tiles`] engine at 256
//!   bits, which reorders only *which* element is updated when, never the
//!   per-element sequence of exactly rounded multiply-then-add steps in
//!   ascending `k` or the exact-zero skip. [`matmul_a_bt_acc`] runs eight
//!   [`dot`]s side by side, each with `dot`'s own lane accumulation, and
//!   folds all eight lane by lane in `dot`'s order.
//! - Every kernel delegates its sub-chunk tail to the scalar reference
//!   itself, so tails are identical by definition rather than by imitation.
//!
//! Every unsafe site is justified where it stands; the safe dispatch in the
//! crate root reaches this file only after feature detection.

use core::arch::x86_64::{
    __m256, __m256i, _mm256_add_epi32, _mm256_add_ps, _mm256_and_ps, _mm256_andnot_ps,
    _mm256_blendv_ps, _mm256_castps_si256, _mm256_castsi256_ps, _mm256_cmp_ps, _mm256_cmpgt_epi32,
    _mm256_div_ps, _mm256_loadu_ps, _mm256_max_epi32, _mm256_max_ps, _mm256_min_ps, _mm256_mul_ps,
    _mm256_or_ps, _mm256_permute2f128_ps, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setzero_ps,
    _mm256_shuffle_ps, _mm256_slli_epi32, _mm256_sqrt_ps, _mm256_srai_epi32, _mm256_storeu_ps,
    _mm256_sub_epi32, _mm256_sub_ps, _mm256_unpackhi_ps, _mm256_unpacklo_ps, _mm256_xor_ps,
    _CMP_LT_OQ, _CMP_UNORD_Q,
};

use crate::lanes::{self, Activation, Gate, Lanes};
use crate::tiles::{self, Columns, Vector};
use crate::{scalar, AdamCoeffs, LANES};

/// Dot product over the common prefix of `a` and `b`, matching the scalar
/// reference bit-for-bit.
///
/// # Safety
///
/// The running CPU must support AVX2. The only caller is the `Backend`
/// dispatcher, which guards this with `is_x86_feature_detected!("avx2")`.
// SAFETY: `target_feature(enable = "avx2")` makes this fn unsafe-to-call;
// executing it on a CPU without AVX2 would be undefined behaviour, so the
// precondition above is the entire soundness argument.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = _mm256_setzero_ps();
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (ka, kb) in ca.by_ref().zip(cb.by_ref()) {
        // SAFETY: in an AVX2 context (this fn's own target_feature), and
        // `ka`/`kb` come from `chunks_exact(LANES)`.
        let (va, vb) = unsafe { (__m256::load(ka), __m256::load(kb)) };
        // Separate mul + add (never FMA) keeps rounding identical to the
        // scalar reference.
        acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
    }
    let mut lanes = [0.0f32; LANES];
    // SAFETY: in an AVX2 context; `lanes` is a LANES = 8 element array.
    unsafe { __m256::store(&mut lanes, acc) };
    // Identical fixed-order reduction and tail to `scalar::dot`.
    let mut out = 0.0f32;
    for &lane in &lanes {
        out += lane;
    }
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        out += x * y;
    }
    out
}

/// `y += a * x` (separate mul + add per lane, tail delegated to scalar).
///
/// # Safety
///
/// The running CPU must support AVX2 (guarded by the `Backend` dispatcher).
// SAFETY: `target_feature(enable = "avx2")` makes this fn unsafe-to-call;
// the feature-detection precondition is the entire soundness argument.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    let n = x.len().min(y.len());
    let (x, y) = (&x[..n], &mut y[..n]);
    let va = _mm256_set1_ps(a);
    let mut cx = x.chunks_exact(LANES);
    let mut cy = y.chunks_exact_mut(LANES);
    for (kx, ky) in cx.by_ref().zip(cy.by_ref()) {
        // SAFETY: in an AVX2 context; chunks are exactly LANES long.
        let (vx, vy) = unsafe { (__m256::load(kx), __m256::load(ky)) };
        let r = _mm256_add_ps(vy, _mm256_mul_ps(va, vx));
        // SAFETY: in an AVX2 context; `ky` is exactly LANES long.
        unsafe { __m256::store(ky, r) };
    }
    scalar::axpy(a, cx.remainder(), cy.into_remainder());
}

/// `out = a + b` elementwise (tail delegated to scalar).
///
/// # Safety
///
/// The running CPU must support AVX2 (guarded by the `Backend` dispatcher).
// SAFETY: `target_feature(enable = "avx2")` makes this fn unsafe-to-call;
// the feature-detection precondition is the entire soundness argument.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn add(a: &[f32], b: &[f32], out: &mut [f32]) {
    let n = a.len().min(b.len()).min(out.len());
    let (a, b, out) = (&a[..n], &b[..n], &mut out[..n]);
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    let mut co = out.chunks_exact_mut(LANES);
    for ((ka, kb), ko) in ca.by_ref().zip(cb.by_ref()).zip(co.by_ref()) {
        // SAFETY: in an AVX2 context; chunks are exactly LANES long.
        let r = unsafe { _mm256_add_ps(__m256::load(ka), __m256::load(kb)) };
        // SAFETY: in an AVX2 context; `ko` is exactly LANES long.
        unsafe { __m256::store(ko, r) };
    }
    scalar::add(ca.remainder(), cb.remainder(), co.into_remainder());
}

/// `out = a - b` elementwise (tail delegated to scalar).
///
/// # Safety
///
/// The running CPU must support AVX2 (guarded by the `Backend` dispatcher).
// SAFETY: `target_feature(enable = "avx2")` makes this fn unsafe-to-call;
// the feature-detection precondition is the entire soundness argument.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn sub(a: &[f32], b: &[f32], out: &mut [f32]) {
    let n = a.len().min(b.len()).min(out.len());
    let (a, b, out) = (&a[..n], &b[..n], &mut out[..n]);
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    let mut co = out.chunks_exact_mut(LANES);
    for ((ka, kb), ko) in ca.by_ref().zip(cb.by_ref()).zip(co.by_ref()) {
        // SAFETY: in an AVX2 context; chunks are exactly LANES long.
        let r = unsafe { _mm256_sub_ps(__m256::load(ka), __m256::load(kb)) };
        // SAFETY: in an AVX2 context; `ko` is exactly LANES long.
        unsafe { __m256::store(ko, r) };
    }
    scalar::sub(ca.remainder(), cb.remainder(), co.into_remainder());
}

/// `out = a * b` elementwise (tail delegated to scalar).
///
/// # Safety
///
/// The running CPU must support AVX2 (guarded by the `Backend` dispatcher).
// SAFETY: `target_feature(enable = "avx2")` makes this fn unsafe-to-call;
// the feature-detection precondition is the entire soundness argument.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn mul(a: &[f32], b: &[f32], out: &mut [f32]) {
    let n = a.len().min(b.len()).min(out.len());
    let (a, b, out) = (&a[..n], &b[..n], &mut out[..n]);
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    let mut co = out.chunks_exact_mut(LANES);
    for ((ka, kb), ko) in ca.by_ref().zip(cb.by_ref()).zip(co.by_ref()) {
        // SAFETY: in an AVX2 context; chunks are exactly LANES long.
        let r = unsafe { _mm256_mul_ps(__m256::load(ka), __m256::load(kb)) };
        // SAFETY: in an AVX2 context; `ko` is exactly LANES long.
        unsafe { __m256::store(ko, r) };
    }
    scalar::mul(ca.remainder(), cb.remainder(), co.into_remainder());
}

/// `x *= s` in place (tail delegated to scalar).
///
/// # Safety
///
/// The running CPU must support AVX2 (guarded by the `Backend` dispatcher).
// SAFETY: `target_feature(enable = "avx2")` makes this fn unsafe-to-call;
// the feature-detection precondition is the entire soundness argument.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn scale(x: &mut [f32], s: f32) {
    let vs = _mm256_set1_ps(s);
    let mut cx = x.chunks_exact_mut(LANES);
    for kx in cx.by_ref() {
        // SAFETY: in an AVX2 context; `kx` is exactly LANES long.
        let r = unsafe { _mm256_mul_ps(__m256::load(kx), vs) };
        // SAFETY: in an AVX2 context; `kx` is exactly LANES long.
        unsafe { __m256::store(kx, r) };
    }
    scalar::scale(cx.into_remainder(), s);
}

// ---- transcendentals -------------------------------------------------------

impl Lanes for __m256 {
    type Int = __m256i;
    type Mask = __m256;

    #[inline(always)]
    unsafe fn sub(a: Self, b: Self) -> Self {
        // SAFETY: in an AVX2 context, per the trait's contract.
        unsafe { _mm256_sub_ps(a, b) }
    }

    #[inline(always)]
    unsafe fn div(a: Self, b: Self) -> Self {
        // SAFETY: in an AVX2 context, per the trait's contract.
        unsafe { _mm256_div_ps(a, b) }
    }

    #[inline(always)]
    unsafe fn min(a: Self, b: Self) -> Self {
        // SAFETY: in an AVX2 context, per the trait's contract.
        unsafe { _mm256_min_ps(a, b) }
    }

    #[inline(always)]
    unsafe fn max(a: Self, b: Self) -> Self {
        // SAFETY: in an AVX2 context, per the trait's contract.
        unsafe { _mm256_max_ps(a, b) }
    }

    #[inline(always)]
    unsafe fn neg(x: Self) -> Self {
        // SAFETY: in an AVX2 context, per the trait's contract.
        unsafe { _mm256_xor_ps(x, _mm256_set1_ps(-0.0)) }
    }

    #[inline(always)]
    unsafe fn abs(x: Self) -> Self {
        // SAFETY: in an AVX2 context, per the trait's contract.
        unsafe { _mm256_andnot_ps(_mm256_set1_ps(-0.0), x) }
    }

    #[inline(always)]
    unsafe fn copysign(mag: Self, sign: Self) -> Self {
        // SAFETY: in an AVX2 context, per the trait's contract.
        unsafe {
            let s = _mm256_set1_ps(-0.0);
            _mm256_or_ps(_mm256_andnot_ps(s, mag), _mm256_and_ps(s, sign))
        }
    }

    #[inline(always)]
    unsafe fn bits(x: Self) -> __m256i {
        // SAFETY: in an AVX2 context, per the trait's contract.
        unsafe { _mm256_castps_si256(x) }
    }

    #[inline(always)]
    unsafe fn exponent(e: __m256i) -> Self {
        // SAFETY: in an AVX2 context, per the trait's contract.
        unsafe { _mm256_castsi256_ps(_mm256_slli_epi32::<23>(e)) }
    }

    #[inline(always)]
    unsafe fn int_splat(i: i32) -> __m256i {
        // SAFETY: in an AVX2 context, per the trait's contract.
        unsafe { _mm256_set1_epi32(i) }
    }

    #[inline(always)]
    unsafe fn int_add(a: __m256i, b: __m256i) -> __m256i {
        // SAFETY: in an AVX2 context, per the trait's contract.
        unsafe { _mm256_add_epi32(a, b) }
    }

    #[inline(always)]
    unsafe fn int_sub(a: __m256i, b: __m256i) -> __m256i {
        // SAFETY: in an AVX2 context, per the trait's contract.
        unsafe { _mm256_sub_epi32(a, b) }
    }

    #[inline(always)]
    unsafe fn int_max(a: __m256i, b: __m256i) -> __m256i {
        // SAFETY: in an AVX2 context, per the trait's contract.
        unsafe { _mm256_max_epi32(a, b) }
    }

    #[inline(always)]
    unsafe fn int_halve(k: __m256i) -> __m256i {
        // SAFETY: in an AVX2 context, per the trait's contract.
        unsafe { _mm256_srai_epi32::<1>(k) }
    }

    #[inline(always)]
    unsafe fn int_lt(a: __m256i, b: __m256i) -> Self {
        // SAFETY: in an AVX2 context, per the trait's contract.
        unsafe { _mm256_castsi256_ps(_mm256_cmpgt_epi32(b, a)) }
    }

    #[inline(always)]
    unsafe fn lt(a: Self, b: Self) -> Self {
        // SAFETY: in an AVX2 context, per the trait's contract.
        unsafe { _mm256_cmp_ps::<_CMP_LT_OQ>(a, b) }
    }

    #[inline(always)]
    unsafe fn is_nan(x: Self) -> Self {
        // SAFETY: in an AVX2 context, per the trait's contract.
        unsafe { _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x) }
    }

    #[inline(always)]
    unsafe fn select(m: Self, a: Self, b: Self) -> Self {
        // SAFETY: in an AVX2 context, per the trait's contract.
        unsafe { _mm256_blendv_ps(b, a, m) }
    }
}

/// `out = A(a)` elementwise: [`lanes::map`] at 256 bits, tail delegated to
/// scalar.
///
/// # Safety
///
/// The running CPU must support AVX2 (guarded by the `Backend` dispatcher).
// SAFETY: `target_feature(enable = "avx2")` makes this fn unsafe-to-call;
// the feature-detection precondition is the entire soundness argument.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn map<A: Activation>(a: &[f32], out: &mut [f32]) {
    // SAFETY: the instance carries no `target_feature` and is inlined
    // here, under AVX2.
    let j = unsafe { lanes::map::<__m256, A>(a, out, 0) };
    A::MAP(&a[j..], &mut out[j..]);
}

/// Fused gate `out = A(pre + bias)`: the exactly rounded add and the
/// activation both run eight lanes at a time (tail delegated to scalar).
///
/// # Safety
///
/// The running CPU must support AVX2 (guarded by the `Backend` dispatcher).
// SAFETY: `target_feature(enable = "avx2")` makes this fn unsafe-to-call;
// the feature-detection precondition is the entire soundness argument.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn gate<A: Gate>(pre: &[f32], bias: &[f32], out: &mut [f32]) {
    // SAFETY: as in `map`.
    let j = unsafe { lanes::gate::<__m256, A>(pre, bias, out, 0) };
    A::GATE(&pre[j..], &bias[j..], &mut out[j..]);
}

/// One LSTM cell step, [`lanes::lstm_cell`] at 256 bits (tail delegated to
/// scalar).
///
/// # Safety
///
/// The running CPU must support AVX2 (guarded by the `Backend` dispatcher).
// SAFETY: `target_feature(enable = "avx2")` makes this fn unsafe-to-call;
// the feature-detection precondition is the entire soundness argument.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn lstm_cell(gx: &[f32], gh: &[f32], bias: &[f32], c: &mut [f32], h: &mut [f32]) {
    // SAFETY: as in `map`.
    let j = unsafe { lanes::lstm_cell::<__m256>(gx, gh, bias, c, h, 0) };
    scalar::lstm_cell_from(gx, gh, bias, c, h, j);
}

/// Sigmoid backward `out = g * y * (1 - y)`, left-associated exactly like
/// the scalar reference (tail delegated to scalar).
///
/// # Safety
///
/// The running CPU must support AVX2 (guarded by the `Backend` dispatcher).
// SAFETY: `target_feature(enable = "avx2")` makes this fn unsafe-to-call;
// the feature-detection precondition is the entire soundness argument.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn sigmoid_bwd(g: &[f32], y: &[f32], out: &mut [f32]) {
    let n = g.len().min(y.len()).min(out.len());
    let (g, y, out) = (&g[..n], &y[..n], &mut out[..n]);
    let one = _mm256_set1_ps(1.0);
    let mut cg = g.chunks_exact(LANES);
    let mut cy = y.chunks_exact(LANES);
    let mut co = out.chunks_exact_mut(LANES);
    for ((kg, ky), ko) in cg.by_ref().zip(cy.by_ref()).zip(co.by_ref()) {
        // SAFETY: in an AVX2 context; chunks are exactly LANES long.
        let (vg, vy) = unsafe { (__m256::load(kg), __m256::load(ky)) };
        // (g * y) * (1 - y): same association as the scalar reference.
        let r = _mm256_mul_ps(_mm256_mul_ps(vg, vy), _mm256_sub_ps(one, vy));
        // SAFETY: in an AVX2 context; `ko` is exactly LANES long.
        unsafe { __m256::store(ko, r) };
    }
    scalar::sigmoid_bwd(cg.remainder(), cy.remainder(), co.into_remainder());
}

/// Tanh backward `out = g * (1 - y * y)` (tail delegated to scalar).
///
/// # Safety
///
/// The running CPU must support AVX2 (guarded by the `Backend` dispatcher).
// SAFETY: `target_feature(enable = "avx2")` makes this fn unsafe-to-call;
// the feature-detection precondition is the entire soundness argument.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn tanh_bwd(g: &[f32], y: &[f32], out: &mut [f32]) {
    let n = g.len().min(y.len()).min(out.len());
    let (g, y, out) = (&g[..n], &y[..n], &mut out[..n]);
    let one = _mm256_set1_ps(1.0);
    let mut cg = g.chunks_exact(LANES);
    let mut cy = y.chunks_exact(LANES);
    let mut co = out.chunks_exact_mut(LANES);
    for ((kg, ky), ko) in cg.by_ref().zip(cy.by_ref()).zip(co.by_ref()) {
        // SAFETY: in an AVX2 context; chunks are exactly LANES long.
        let (vg, vy) = unsafe { (__m256::load(kg), __m256::load(ky)) };
        let r = _mm256_mul_ps(vg, _mm256_sub_ps(one, _mm256_mul_ps(vy, vy)));
        // SAFETY: in an AVX2 context; `ko` is exactly LANES long.
        unsafe { __m256::store(ko, r) };
    }
    scalar::tanh_bwd(cg.remainder(), cy.remainder(), co.into_remainder());
}

impl Vector for __m256 {
    const LANES: usize = LANES;

    #[inline(always)]
    unsafe fn zero() -> Self {
        // SAFETY: in an AVX2 context, per the trait's contract.
        unsafe { _mm256_setzero_ps() }
    }

    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        // SAFETY: in an AVX2 context, per the trait's contract.
        unsafe { _mm256_set1_ps(x) }
    }

    #[inline(always)]
    unsafe fn load(p: &[f32]) -> Self {
        debug_assert_eq!(p.len(), LANES);
        // SAFETY: in an AVX2 context, per the trait's contract; `p` points
        // at exactly LANES = 8 initialised, readable `f32`s, the full
        // 256-bit span `_mm256_loadu_ps` reads, and `loadu` permits
        // unaligned addresses.
        unsafe { _mm256_loadu_ps(p.as_ptr()) }
    }

    #[inline(always)]
    unsafe fn store(p: &mut [f32], v: Self) {
        debug_assert_eq!(p.len(), LANES);
        // SAFETY: in an AVX2 context, per the trait's contract; `p` points
        // at exactly LANES = 8 writable `f32`s, the full 256-bit span
        // `_mm256_storeu_ps` writes, and `storeu` permits unaligned
        // addresses.
        unsafe { _mm256_storeu_ps(p.as_mut_ptr(), v) }
    }

    #[inline(always)]
    unsafe fn add(a: Self, b: Self) -> Self {
        // SAFETY: in an AVX2 context, per the trait's contract.
        unsafe { _mm256_add_ps(a, b) }
    }

    #[inline(always)]
    unsafe fn mul(a: Self, b: Self) -> Self {
        // SAFETY: in an AVX2 context, per the trait's contract.
        unsafe { _mm256_mul_ps(a, b) }
    }
}

/// The 256-bit column order: tiles of two registers (16 columns), then of
/// one, then the scalar axpy tail. `V` is the 512-bit tiles' and unused.
impl Columns for __m256 {
    #[inline(always)]
    unsafe fn columns<const R: usize, const V: usize, const SKIP: bool>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        k: usize,
        n: usize,
        j0: usize,
    ) {
        // SAFETY: in an AVX2 context, per the trait's contract.
        let j = unsafe {
            let j = tiles::row_tile::<Self, R, 2, SKIP>(a, b, out, k, n, j0);
            tiles::row_tile::<Self, R, 1, SKIP>(a, b, out, k, n, j)
        };
        tiles::axpy_tail::<R, SKIP>(a, b, out, k, n, j);
    }
}

/// Register-blocked `out += a × b`, bit-identical to the scalar i-k-j /
/// axpy loop nest: [`tiles::matmul_acc`] at 256 bits.
///
/// # Safety
///
/// The running CPU must support AVX2 (guarded by the `Backend` dispatcher).
// SAFETY: `target_feature(enable = "avx2")` makes this fn unsafe-to-call;
// the feature-detection precondition is the entire soundness argument.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn matmul_acc(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    // SAFETY: the engine carries no `target_feature` and is inlined here,
    // so this instance is compiled under exactly AVX2's features, and it
    // names only `__m256`.
    unsafe { tiles::matmul_acc::<__m256>(a, b, out, 0, m, k, n) };
}

/// Register-blocked `out[k×n] += aᵀ × b`, bit-identical to the scalar
/// row-by-row axpy loop: [`tiles::matmul_at_b_acc`] at 256 bits.
///
/// # Safety
///
/// The running CPU must support AVX2 (guarded by the `Backend` dispatcher).
// SAFETY: `target_feature(enable = "avx2")` makes this fn unsafe-to-call;
// the feature-detection precondition is the entire soundness argument.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn matmul_at_b_acc(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    // SAFETY: as in `matmul_acc`.
    unsafe { tiles::matmul_at_b_acc::<__m256>(a, b, out, m, k, n) };
}

/// `out[m×n] += a × bᵀ`, bit-identical to one scalar `dot` per element.
///
/// Eight dots run side by side, one per output column, each with its own
/// lane accumulator that receives exactly the `mul` + `add` pairs [`dot`]
/// would give it; [`finish_dots`] folds them in `dot`'s order and adds the
/// tails. Columns past the last group of eight call [`dot`] itself.
///
/// # Safety
///
/// The running CPU must support AVX2 (guarded by the `Backend` dispatcher).
// SAFETY: `target_feature(enable = "avx2")` makes this fn unsafe-to-call;
// the feature-detection precondition is the entire soundness argument.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn matmul_a_bt_acc(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let full = k - k % LANES;
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        let mut j = 0;
        while j + LANES <= n {
            let b_rows = tiles::rows::<LANES>(&b[j * k..], k);
            let mut acc = [_mm256_setzero_ps(); LANES];
            let mut c = 0;
            while c < full {
                // SAFETY: in an AVX2 context; the sub-slice is exactly LANES long.
                let va = unsafe { __m256::load(&a_row[c..c + LANES]) };
                for (v, b_row) in acc.iter_mut().zip(b_rows) {
                    // SAFETY: in an AVX2 context; the sub-slice is exactly LANES long.
                    let vb = unsafe { __m256::load(&b_row[c..c + LANES]) };
                    *v = _mm256_add_ps(*v, _mm256_mul_ps(va, vb));
                }
                c += LANES;
            }
            // SAFETY: in an AVX2 context; the sub-slice is exactly LANES long.
            unsafe { finish_dots(acc, a_row, b_rows, &mut out_row[j..j + LANES]) };
            j += LANES;
        }
        for (jj, o) in out_row.iter_mut().enumerate().skip(j) {
            // SAFETY: in an AVX2 context (this fn's own target_feature).
            *o += unsafe { dot(a_row, &b[jj * k..(jj + 1) * k]) };
        }
    }
}

/// Finishes eight dots of `a_row`, one with each of `b_rows`, into `out`:
/// `acc[q]` holds dot `q`'s lane accumulators over the whole chunks. An 8×8
/// transpose puts lane `l` of all eight in one vector, so adding those
/// vectors to zero in lane order is [`dot`]'s fold for all eight at once;
/// the sub-chunk tail follows one element at a time, and each dot is added
/// to its element of `out`.
///
/// # Safety
///
/// The caller must be in an AVX2 `target_feature` context, and `out` must
/// be exactly `LANES` long.
// SAFETY: `target_feature(enable = "avx2")` makes this fn unsafe-to-call;
// callers uphold the AVX2 context and the exact length above.
#[inline]
#[target_feature(enable = "avx2")]
pub(super) unsafe fn finish_dots(
    acc: [__m256; LANES],
    a_row: &[f32],
    b_rows: [&[f32]; LANES],
    out: &mut [f32],
) {
    let mut dots = _mm256_setzero_ps();
    for lane in transpose8(acc) {
        dots = _mm256_add_ps(dots, lane);
    }
    let full = a_row.len() - a_row.len() % LANES;
    for (c, &x) in a_row.iter().enumerate().skip(full) {
        let y: [f32; LANES] = core::array::from_fn(|q| b_rows[q][c]);
        // SAFETY: in an AVX2 context; `y` is a LANES = 8 element array.
        let vy = unsafe { __m256::load(&y) };
        dots = _mm256_add_ps(dots, _mm256_mul_ps(_mm256_set1_ps(x), vy));
    }
    // SAFETY: in an AVX2 context; `out` is exactly LANES long.
    unsafe { __m256::store(out, _mm256_add_ps(__m256::load(out), dots)) };
}

/// The 8×8 transpose of eight vectors: lane `q` of result `l` is lane `l`
/// of input `q`.
#[inline]
#[target_feature(enable = "avx2")]
fn transpose8([r0, r1, r2, r3, r4, r5, r6, r7]: [__m256; LANES]) -> [__m256; LANES] {
    let t0 = _mm256_unpacklo_ps(r0, r1);
    let t1 = _mm256_unpackhi_ps(r0, r1);
    let t2 = _mm256_unpacklo_ps(r2, r3);
    let t3 = _mm256_unpackhi_ps(r2, r3);
    let t4 = _mm256_unpacklo_ps(r4, r5);
    let t5 = _mm256_unpackhi_ps(r4, r5);
    let t6 = _mm256_unpacklo_ps(r6, r7);
    let t7 = _mm256_unpackhi_ps(r6, r7);
    let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
    let u1 = _mm256_shuffle_ps::<0xee>(t0, t2);
    let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
    let u3 = _mm256_shuffle_ps::<0xee>(t1, t3);
    let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
    let u5 = _mm256_shuffle_ps::<0xee>(t4, t6);
    let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
    let u7 = _mm256_shuffle_ps::<0xee>(t5, t7);
    [
        _mm256_permute2f128_ps::<0x20>(u0, u4),
        _mm256_permute2f128_ps::<0x20>(u1, u5),
        _mm256_permute2f128_ps::<0x20>(u2, u6),
        _mm256_permute2f128_ps::<0x20>(u3, u7),
        _mm256_permute2f128_ps::<0x31>(u0, u4),
        _mm256_permute2f128_ps::<0x31>(u1, u5),
        _mm256_permute2f128_ps::<0x31>(u2, u6),
        _mm256_permute2f128_ps::<0x31>(u3, u7),
    ]
}

/// One Adam/AdamW update, vectorised end to end: every operation the scalar
/// reference performs (`mul`, `add`, `sub`, `div`, `sqrt`) is IEEE exactly
/// rounded, so the vector forms produce identical bits per element (tail
/// delegated to scalar).
///
/// # Safety
///
/// The running CPU must support AVX2 (guarded by the `Backend` dispatcher).
// SAFETY: `target_feature(enable = "avx2")` makes this fn unsafe-to-call;
// the feature-detection precondition is the entire soundness argument.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn adam_update(
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    c: &AdamCoeffs,
) {
    let n = p.len().min(g.len()).min(m.len()).min(v.len());
    let (p, g, m, v) = (&mut p[..n], &g[..n], &mut m[..n], &mut v[..n]);
    let b1 = _mm256_set1_ps(c.beta1);
    let b2 = _mm256_set1_ps(c.beta2);
    let om1 = _mm256_set1_ps(1.0 - c.beta1);
    let om2 = _mm256_set1_ps(1.0 - c.beta2);
    let bc1 = _mm256_set1_ps(c.bc1);
    let bc2 = _mm256_set1_ps(c.bc2);
    let lr = _mm256_set1_ps(c.lr);
    let eps = _mm256_set1_ps(c.eps);
    let wd = _mm256_set1_ps(c.weight_decay);
    let mut cp = p.chunks_exact_mut(LANES);
    let mut cg = g.chunks_exact(LANES);
    let mut cm = m.chunks_exact_mut(LANES);
    let mut cv = v.chunks_exact_mut(LANES);
    for (((kp, kg), km), kv) in cp
        .by_ref()
        .zip(cg.by_ref())
        .zip(cm.by_ref())
        .zip(cv.by_ref())
    {
        // SAFETY: in an AVX2 context; chunks are exactly LANES long.
        let (vp, vg, vm, vv) = unsafe {
            (
                __m256::load(kp),
                __m256::load(kg),
                __m256::load(km),
                __m256::load(kv),
            )
        };
        // mn = beta1*m + (1-beta1)*g — two muls and an add, like scalar.
        let mn = _mm256_add_ps(_mm256_mul_ps(b1, vm), _mm256_mul_ps(om1, vg));
        // vn = beta2*v + ((1-beta2)*g)*g — same left association as scalar.
        let vn = _mm256_add_ps(
            _mm256_mul_ps(b2, vv),
            _mm256_mul_ps(_mm256_mul_ps(om2, vg), vg),
        );
        // SAFETY: in an AVX2 context; `km`/`kv` are exactly LANES long.
        unsafe {
            __m256::store(km, mn);
            __m256::store(kv, vn);
        }
        let mhat = _mm256_div_ps(mn, bc1);
        let vhat = _mm256_div_ps(vn, bc2);
        let den = _mm256_add_ps(_mm256_sqrt_ps(vhat), eps);
        let update = _mm256_add_ps(_mm256_div_ps(mhat, den), _mm256_mul_ps(wd, vp));
        let r = _mm256_sub_ps(vp, _mm256_mul_ps(lr, update));
        // SAFETY: in an AVX2 context; `kp` is exactly LANES long.
        unsafe { __m256::store(kp, r) };
    }
    scalar::adam_update(
        cp.into_remainder(),
        cg.remainder(),
        cm.into_remainder(),
        cv.into_remainder(),
        c,
    );
}
