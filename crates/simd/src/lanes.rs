//! The transcendentals and the LSTM cell, written once over the register
//! width (x86-64 only).
//!
//! [`Exp`], [`Sigmoid`] and [`Tanh`] are the scalar reference's `exp_one`,
//! `sigmoid_one` and `tanh_one` lane for lane: the same constants, the same
//! exactly rounded operations in the same order, separate multiply and add
//! in every polynomial step, integer lanes for the exponent bits. Where the
//! reference branches per element (NaN, `tanh`'s polynomial range, the
//! summation order of `sigmoid`'s denominator), both sides are computed and
//! each lane takes the one its element would have taken. [`map`], [`gate`]
//! and [`lstm_cell`] run them over slices, whole registers at a time, and
//! leave the elements past the last whole register to the caller: the next
//! narrower width, then the scalar reference.
//!
//! A backend instantiates them through [`Lanes`], its register's lane-wise
//! operations, and runs them from its own `target_feature` entry point. As
//! in [`crate::tiles`], nothing here carries a `target_feature`: every
//! function is `#[inline(always)]`, so each instance is compiled inside the
//! entry point that calls it, under exactly that backend's features.

use crate::scalar;
use crate::tiles::Vector;

/// The lane-wise operations the transcendentals need beyond [`Vector`]'s,
/// for `__m256` (AVX2) and `__m512` (AVX-512F).
///
/// # Safety
///
/// As for [`Vector`]: every method runs its width's instructions, so it may
/// only be called from code inlined into a `target_feature` function that
/// enables them.
pub(super) trait Lanes: Vector {
    /// The same register read as 32-bit integer lanes.
    type Int: Copy;
    /// One truth value per lane, as [`Lanes::select`] reads it.
    type Mask: Copy;
    /// Lane-wise `a - b`, exactly rounded.
    unsafe fn sub(a: Self, b: Self) -> Self;
    /// Lane-wise `a / b`, exactly rounded.
    unsafe fn div(a: Self, b: Self) -> Self;
    /// Lane-wise `a < b ? a : b`: `b` where either is NaN.
    unsafe fn min(a: Self, b: Self) -> Self;
    /// Lane-wise `a > b ? a : b`: `b` where either is NaN.
    unsafe fn max(a: Self, b: Self) -> Self;
    /// Lane-wise `-x`: the sign bit flipped.
    unsafe fn neg(x: Self) -> Self;
    /// Lane-wise `|x|`: the sign bit cleared.
    unsafe fn abs(x: Self) -> Self;
    /// Lane-wise `mag.copysign(sign)`.
    unsafe fn copysign(mag: Self, sign: Self) -> Self;
    /// The bits of every lane, unchanged.
    unsafe fn bits(x: Self) -> Self::Int;
    /// Every lane an `f32` with bits `e << 23`: `2^(e − 127)` for
    /// `1 ≤ e ≤ 254`.
    unsafe fn exponent(e: Self::Int) -> Self;
    /// `i` in every integer lane.
    unsafe fn int_splat(i: i32) -> Self::Int;
    /// Lane-wise wrapping `a + b`.
    unsafe fn int_add(a: Self::Int, b: Self::Int) -> Self::Int;
    /// Lane-wise wrapping `a - b`.
    unsafe fn int_sub(a: Self::Int, b: Self::Int) -> Self::Int;
    /// Lane-wise signed maximum.
    unsafe fn int_max(a: Self::Int, b: Self::Int) -> Self::Int;
    /// Lane-wise `k >> 1`, arithmetic.
    unsafe fn int_halve(k: Self::Int) -> Self::Int;
    /// Lane-wise signed `a < b`.
    unsafe fn int_lt(a: Self::Int, b: Self::Int) -> Self::Mask;
    /// Lane-wise `a < b`, false where either is NaN.
    unsafe fn lt(a: Self, b: Self) -> Self::Mask;
    /// Lane-wise: is `x` NaN?
    unsafe fn is_nan(x: Self) -> Self::Mask;
    /// Lane-wise `m ? a : b`.
    unsafe fn select(m: Self::Mask, a: Self, b: Self) -> Self;
}

/// An elementwise transcendental: the scalar reference's slice kernels and
/// the lane-for-lane vector form of their one-element definition.
pub(super) trait Activation {
    /// The scalar reference over a slice, `out[i] = A(a[i])`: what a vector
    /// backend runs on the elements past its last whole register.
    const MAP: fn(&[f32], &mut [f32]);
    /// The scalar reference on every lane of `x`, bit for bit.
    ///
    /// # Safety
    ///
    /// As for [`Lanes`].
    unsafe fn lanes<V: Lanes>(x: V) -> V;
}

/// An [`Activation`] the LSTM and GRU gates apply after adding a bias.
pub(super) trait Gate: Activation {
    /// The scalar reference's fused gate, `out[i] = A(pre[i] + bias[i])`.
    const GATE: fn(&[f32], &[f32], &mut [f32]);
}

/// `eˣ`, the reference's `exp_one`.
pub(super) struct Exp;

/// The logistic sigmoid, the reference's `sigmoid_one`.
pub(super) struct Sigmoid;

/// `tanh`, the reference's `tanh_one`.
pub(super) struct Tanh;

/// `2^e` per lane for `−126 ≤ e ≤ 127`, built from the exponent bits.
#[inline(always)]
unsafe fn pow2<V: Lanes>(e: V::Int) -> V {
    // SAFETY: per this fn's contract, as for `Lanes`.
    unsafe { V::exponent(V::int_add(e, V::int_splat(127))) }
}

/// `y · 2^k` per lane as the reference's `scale_pow2`: two multiplies by
/// `2^(k >> 1)` and `2^(k − (k >> 1))`, in that order.
#[inline(always)]
unsafe fn scale_pow2<V: Lanes>(y: V, k: V::Int) -> V {
    // SAFETY: per this fn's contract, as for `Lanes`.
    unsafe {
        let half = V::int_halve(k);
        V::mul(V::mul(y, pow2(half)), pow2(V::int_sub(k, half)))
    }
}

/// `min(hi, max(lo, x))` per lane: the scalar `x.clamp(lo, hi)` for every
/// non-NaN `x` (NaN lanes are replaced by [`nan_passthrough`] later).
#[inline(always)]
unsafe fn clamp<V: Lanes>(x: V, lo: f32, hi: f32) -> V {
    // SAFETY: per this fn's contract, as for `Lanes`.
    unsafe { V::min(V::splat(hi), V::max(V::splat(lo), x)) }
}

/// Puts each NaN lane of `x` back into `y`, unchanged: the reference
/// returns a NaN input as it is.
#[inline(always)]
unsafe fn nan_passthrough<V: Lanes>(x: V, y: V) -> V {
    // SAFETY: per this fn's contract, as for `Lanes`.
    unsafe { V::select(V::is_nan(x), x, y) }
}

/// The reference's `exp_parts` per lane: `eˣ = 2^k · (1 + q)`.
#[inline(always)]
unsafe fn exp_parts<V: Lanes>(x: V) -> (V::Int, V) {
    // SAFETY: per this fn's contract, as for `Lanes`.
    unsafe {
        let magic = V::splat(scalar::ROUND_MAGIC);
        let t = V::add(V::mul(x, V::splat(scalar::LOG2E)), magic);
        let kf = V::sub(t, magic);
        let k = V::int_sub(V::bits(t), V::bits(magic));
        let r = V::sub(
            V::sub(x, V::mul(kf, V::splat(scalar::LN2_HI))),
            V::mul(kf, V::splat(scalar::LN2_LO)),
        );
        let [lead, rest @ ..] = scalar::EXP_POLY;
        let mut p = V::splat(lead);
        for c in rest {
            p = V::add(V::mul(p, r), V::splat(c));
        }
        (k, V::add(V::mul(p, V::mul(r, r)), r))
    }
}

impl Activation for Exp {
    const MAP: fn(&[f32], &mut [f32]) = scalar::exp;

    #[inline(always)]
    unsafe fn lanes<V: Lanes>(x: V) -> V {
        // SAFETY: per this fn's contract, as for `Lanes`.
        unsafe {
            let (k, q) = exp_parts(clamp(x, scalar::EXP_MIN, scalar::EXP_MAX));
            nan_passthrough(x, scale_pow2(V::add(q, V::splat(1.0)), k))
        }
    }
}

impl Gate for Sigmoid {
    const GATE: fn(&[f32], &[f32], &mut [f32]) = scalar::sigmoid_gate;
}

impl Activation for Sigmoid {
    const MAP: fn(&[f32], &mut [f32]) = scalar::sigmoid;

    /// Including the reference's choice of summation order for `d`.
    #[inline(always)]
    unsafe fn lanes<V: Lanes>(x: V) -> V {
        // SAFETY: per this fn's contract, as for `Lanes`.
        unsafe {
            let one = V::splat(1.0);
            let (k, q) = exp_parts(clamp(V::neg(x), -scalar::SIGMOID_ONE, -scalar::EXP_MIN));
            let neg_k = V::int_sub(V::int_splat(0), k);
            let h = pow2::<V>(V::int_max(neg_k, V::int_splat(scalar::SIGMOID_MIN_EXP)));
            let exact_first = V::add(V::add(one, h), q);
            let small_first = V::add(one, V::add(h, q));
            let k_small = V::int_lt(k, V::int_splat(scalar::SIGMOID_EXACT_K));
            let d = V::select(k_small, exact_first, small_first);
            nan_passthrough(x, scale_pow2(V::div(one, d), neg_k))
        }
    }
}

impl Gate for Tanh {
    const GATE: fn(&[f32], &[f32], &mut [f32]) = scalar::tanh_gate;
}

impl Activation for Tanh {
    const MAP: fn(&[f32], &mut [f32]) = scalar::tanh;

    #[inline(always)]
    unsafe fn lanes<V: Lanes>(x: V) -> V {
        // SAFETY: per this fn's contract, as for `Lanes`.
        unsafe {
            let one = V::splat(1.0);
            let a = V::abs(x);
            let z = V::mul(a, a);
            let [lead, rest @ ..] = scalar::TANH_POLY;
            let mut p = V::splat(lead);
            for c in rest {
                p = V::add(V::mul(p, z), V::splat(c));
            }
            let small = V::add(V::mul(V::mul(p, z), a), a);
            let e = Exp::lanes(V::add(a, a));
            let big = V::sub(one, V::div(V::splat(2.0), V::add(e, one)));
            let t = V::select(V::lt(a, V::splat(scalar::TANH_POLY_MAX)), small, big);
            nan_passthrough(x, V::copysign(t, x))
        }
    }
}

/// `out[i] = A(a[i])` over the whole registers of `V` from element `j`
/// of the common prefix on; returns the first element it left.
///
/// # Safety
///
/// As for [`Lanes`].
#[inline(always)]
pub(super) unsafe fn map<V: Lanes, A: Activation>(
    a: &[f32],
    out: &mut [f32],
    mut j: usize,
) -> usize {
    let n = a.len().min(out.len());
    while j + V::LANES <= n {
        let e = j + V::LANES;
        // SAFETY: per this fn's contract; both sub-slices are exactly
        // `LANES` long.
        unsafe { V::store(&mut out[j..e], A::lanes(V::load(&a[j..e]))) };
        j += V::LANES;
    }
    j
}

/// `out[i] = A(pre[i] + bias[i])`, the add exactly rounded, over the whole
/// registers of `V` from element `j` of the common prefix on; returns the
/// first element it left.
///
/// # Safety
///
/// As for [`Lanes`].
#[inline(always)]
pub(super) unsafe fn gate<V: Lanes, A: Gate>(
    pre: &[f32],
    bias: &[f32],
    out: &mut [f32],
    mut j: usize,
) -> usize {
    let n = pre.len().min(bias.len()).min(out.len());
    while j + V::LANES <= n {
        let e = j + V::LANES;
        // SAFETY: per this fn's contract; every sub-slice is exactly
        // `LANES` long.
        unsafe {
            let x = V::add(V::load(&pre[j..e]), V::load(&bias[j..e]));
            V::store(&mut out[j..e], A::lanes(x));
        }
        j += V::LANES;
    }
    j
}

/// One LSTM cell step, the scalar reference's `lstm_cell`, over the whole
/// registers of `V` from hidden unit `j` on; returns the first unit it
/// left. Each register of units runs the reference's per-unit sequence:
/// the four gates of `(gx + gh) + bias`, `c = f·c + i·g` with both products
/// rounded before the add, and `h = o·tanh(c)`.
///
/// # Safety
///
/// As for [`Lanes`].
#[inline(always)]
pub(super) unsafe fn lstm_cell<V: Lanes>(
    gx: &[f32],
    gh: &[f32],
    bias: &[f32],
    c: &mut [f32],
    h: &mut [f32],
    mut j: usize,
) -> usize {
    let n = scalar::cell_width(gx, gh, bias, c, h);
    while j + V::LANES <= n {
        let e = j + V::LANES;
        // SAFETY: per this fn's contract; every sub-slice is exactly
        // `LANES` long.
        unsafe {
            let i = Sigmoid::lanes(pre::<V>(gx, gh, bias, j));
            let f = Sigmoid::lanes(pre::<V>(gx, gh, bias, n + j));
            let g = Tanh::lanes(pre::<V>(gx, gh, bias, 2 * n + j));
            let o = Sigmoid::lanes(pre::<V>(gx, gh, bias, 3 * n + j));
            let c_new = V::add(V::mul(f, V::load(&c[j..e])), V::mul(i, g));
            V::store(&mut c[j..e], c_new);
            V::store(&mut h[j..e], V::mul(o, Tanh::lanes(c_new)));
        }
        j += V::LANES;
    }
    j
}

/// One register of gate pre-activations, `(gx + gh) + bias`, from `at`.
///
/// # Safety
///
/// As for [`Lanes`].
#[inline(always)]
unsafe fn pre<V: Lanes>(gx: &[f32], gh: &[f32], bias: &[f32], at: usize) -> V {
    let e = at + V::LANES;
    // SAFETY: per this fn's contract; every sub-slice is exactly `LANES`
    // long.
    unsafe {
        V::add(
            V::add(V::load(&gx[at..e]), V::load(&gh[at..e])),
            V::load(&bias[at..e]),
        )
    }
}
