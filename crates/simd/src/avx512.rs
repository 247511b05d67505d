//! The 512-bit register tiles of the AVX-512 backend (x86-64 only).
//!
//! [`Backend::Avx512`](crate::Backend::Avx512) runs every kernel through
//! [`crate::avx2`] except the three products. [`matmul_acc`] and
//! [`matmul_at_b_acc`] are the [`tiles`] engine at 512 bits: tiles of `V`
//! registers a row (two for 3–6 rows, four for two, eight for one, so a
//! short block still keeps six or more sums in flight), then of two, then
//! the 256-bit order on the columns left over. [`matmul_a_bt_acc`] holds
//! two dots per register and hands them to AVX2's fold.
//!
//! Bit-identity with [`crate::scalar`] holds for the reasons it holds for
//! the 256-bit kernels: the engine's order is the same at either width. In
//! [`matmul_a_bt_acc`] each 256-bit half of a register is one dot's eight
//! lane accumulators, updated exactly as `dot` updates its own, and folded
//! by the AVX2 code that folds them.

use core::arch::x86_64::{
    __m256, __m512, _mm256_castpd_ps, _mm256_castps_pd, _mm256_loadu_ps, _mm256_setzero_ps,
    _mm512_add_ps, _mm512_broadcast_f64x4, _mm512_castpd256_pd512, _mm512_castpd_ps,
    _mm512_castps_pd, _mm512_extractf64x4_pd, _mm512_insertf64x4, _mm512_loadu_ps, _mm512_mul_ps,
    _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps,
};

use crate::tiles::{self, Columns, Vector};
use crate::{avx2, LANES};

impl Vector for __m512 {
    const LANES: usize = 16;

    #[inline(always)]
    unsafe fn zero() -> Self {
        // SAFETY: in an AVX-512F context, per the trait's contract.
        unsafe { _mm512_setzero_ps() }
    }

    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        // SAFETY: in an AVX-512F context, per the trait's contract.
        unsafe { _mm512_set1_ps(x) }
    }

    #[inline(always)]
    unsafe fn load(p: &[f32]) -> Self {
        debug_assert_eq!(p.len(), Self::LANES);
        // SAFETY: in an AVX-512F context, per the trait's contract; `p`
        // points at exactly 16 readable `f32`s, the full 512-bit span
        // `_mm512_loadu_ps` reads, and `loadu` permits unaligned addresses.
        unsafe { _mm512_loadu_ps(p.as_ptr()) }
    }

    #[inline(always)]
    unsafe fn store(p: &mut [f32], v: Self) {
        debug_assert_eq!(p.len(), Self::LANES);
        // SAFETY: in an AVX-512F context, per the trait's contract; `p`
        // points at exactly 16 writable `f32`s, the full 512-bit span
        // `_mm512_storeu_ps` writes, and `storeu` permits unaligned addresses.
        unsafe { _mm512_storeu_ps(p.as_mut_ptr(), v) }
    }

    #[inline(always)]
    unsafe fn add(a: Self, b: Self) -> Self {
        // SAFETY: in an AVX-512F context, per the trait's contract.
        unsafe { _mm512_add_ps(a, b) }
    }

    #[inline(always)]
    unsafe fn mul(a: Self, b: Self) -> Self {
        // SAFETY: in an AVX-512F context, per the trait's contract.
        unsafe { _mm512_mul_ps(a, b) }
    }
}

/// The 512-bit column order: tiles of `V` registers, then of two, then the
/// 256-bit order on the columns left over.
impl Columns for __m512 {
    #[inline(always)]
    unsafe fn columns<const R: usize, const V: usize, const SKIP: bool>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        k: usize,
        n: usize,
        j0: usize,
    ) {
        // SAFETY: in a context with AVX2 and AVX-512F, per the trait's
        // contract.
        unsafe {
            let j = tiles::row_tile::<Self, R, V, SKIP>(a, b, out, k, n, j0);
            let j = tiles::row_tile::<Self, R, 2, SKIP>(a, b, out, k, n, j);
            __m256::columns::<R, 2, SKIP>(a, b, out, k, n, j);
        }
    }
}

/// Rows per block of [`matmul_acc`]'s first step, ahead of the shared
/// ladder of four, three, two and one. On the products LEAD runs, an
/// eight-row step did not beat six.
const TOP_ROWS: usize = 6;

/// `out[m×n] += a × b`, bit-identical to the scalar i-k-j / axpy loop nest:
/// blocks of [`TOP_ROWS`] rows, then [`tiles::matmul_acc`], at 512 bits.
///
/// # Safety
///
/// The running CPU must support AVX2 and AVX-512F (guarded by the
/// `Backend` dispatcher).
// SAFETY: `target_feature` makes this fn unsafe-to-call; the
// feature-detection precondition is the entire soundness argument.
#[target_feature(enable = "avx2,avx512f")]
pub(super) unsafe fn matmul_acc(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    // SAFETY: the engine carries no `target_feature` and is inlined here,
    // so this instance is compiled under exactly AVX2 and AVX-512F, the
    // features `Backend::Avx512`'s detection proves.
    unsafe {
        let i = tiles::row_blocks::<__m512, TOP_ROWS, 2>(a, b, out, 0, m, k, n);
        tiles::matmul_acc::<__m512>(a, b, out, i, m, k, n);
    }
}

/// `out[k×n] += aᵀ × b`, bit-identical to the scalar row-by-row axpy loop:
/// [`tiles::matmul_at_b_acc`] at 512 bits.
///
/// # Safety
///
/// The running CPU must support AVX2 and AVX-512F (guarded by the
/// `Backend` dispatcher).
// SAFETY: `target_feature` makes this fn unsafe-to-call; the
// feature-detection precondition is the entire soundness argument.
#[target_feature(enable = "avx2,avx512f")]
pub(super) unsafe fn matmul_at_b_acc(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    // SAFETY: as in `matmul_acc`.
    unsafe { tiles::matmul_at_b_acc::<__m512>(a, b, out, m, k, n) };
}

/// Row pairs per tile of [`matmul_a_bt_acc`]: four rows, in 16 registers.
/// On the shapes training calls, four rows ran as fast as six and faster
/// than two or eight (`results/abt_pairs.txt`).
const A_BT_PAIRS: usize = 2;

/// Loads `lo` into lanes 0–7 and `hi` into lanes 8–15.
///
/// # Safety
///
/// The caller must be in an AVX-512F `target_feature` context, and both
/// slices must be exactly `LANES` elements long.
// SAFETY: `target_feature(enable = "avx512f")` makes this fn unsafe-to-call;
// callers uphold the AVX-512F context and the exact lengths above.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn load_pair(lo: &[f32], hi: &[f32]) -> __m512 {
    debug_assert!(lo.len() == LANES && hi.len() == LANES);
    // SAFETY: each slice points at exactly 8 readable `f32`s, the 256-bit
    // span `_mm256_loadu_ps` reads; `loadu` permits unaligned addresses.
    let (lo, hi) = unsafe { (_mm256_loadu_ps(lo.as_ptr()), _mm256_loadu_ps(hi.as_ptr())) };
    let lo = _mm512_castpd256_pd512(_mm256_castps_pd(lo));
    _mm512_castpd_ps(_mm512_insertf64x4::<1>(lo, _mm256_castps_pd(hi)))
}

/// Loads `k` into both halves.
///
/// # Safety
///
/// The caller must be in an AVX-512F `target_feature` context, and `k`
/// must be exactly `LANES` elements long.
// SAFETY: `target_feature(enable = "avx512f")` makes this fn unsafe-to-call;
// callers uphold the AVX-512F context and the exact length above.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn load_both(k: &[f32]) -> __m512 {
    debug_assert_eq!(k.len(), LANES);
    // SAFETY: `k` points at exactly 8 readable `f32`s, the 256-bit span
    // `_mm256_loadu_ps` reads; `loadu` permits unaligned addresses.
    let v = unsafe { _mm256_loadu_ps(k.as_ptr()) };
    _mm512_castpd_ps(_mm512_broadcast_f64x4(_mm256_castps_pd(v)))
}

/// Lanes 0–7 and lanes 8–15 of `v`.
#[inline]
#[target_feature(enable = "avx512f")]
fn halves(v: __m512) -> [__m256; 2] {
    let v = _mm512_castps_pd(v);
    [
        _mm256_castpd_ps(_mm512_extractf64x4_pd::<0>(v)),
        _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(v)),
    ]
}

/// `out[m×n] += a × bᵀ`, bit-identical to one scalar `dot` per element.
///
/// Each register holds two dots of one `b` row: lanes 0–7 are
/// `dot(a_i, b_j)`'s lane accumulators and lanes 8–15 `dot(a_{i+1}, b_j)`'s.
/// Per 8-element chunk it adds `a_i`'s chunk, with `a_{i+1}`'s above it,
/// times `b_j`'s chunk in both halves: a separate multiply then add, so
/// each half receives exactly the `mul` + `add` pairs [`avx2::dot`] gives
/// its accumulator. The halves are split apart and [`avx2::finish_dots`]
/// folds each group of eight in `dot`'s order. A tile is four rows by eight
/// columns; rows past the last one run a two-row tile and an odd last row
/// [`avx2::matmul_a_bt_acc`], and columns past the last group of eight
/// [`avx2::dot`].
///
/// # Safety
///
/// The running CPU must support AVX2 and AVX-512F (guarded by the
/// `Backend` dispatcher).
// SAFETY: `target_feature(enable = "avx512f")` makes this fn unsafe-to-call;
// the feature-detection precondition is the entire soundness argument.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn matmul_a_bt_acc(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let tile = |i: usize, rows: usize| (i * k..(i + rows) * k, i * n..(i + rows) * n);
    let mut i = 0;
    while i + 2 * A_BT_PAIRS <= m {
        let (ra, ro) = tile(i, 2 * A_BT_PAIRS);
        // SAFETY: in an AVX-512F context, per this fn's contract.
        unsafe { a_bt_tile::<A_BT_PAIRS>(&a[ra], b, &mut out[ro], k, n) };
        i += 2 * A_BT_PAIRS;
    }
    if i + 2 <= m {
        let (ra, ro) = tile(i, 2);
        // SAFETY: as for the full tiles above.
        unsafe { a_bt_tile::<1>(&a[ra], b, &mut out[ro], k, n) };
        i += 2;
    }
    if i < m {
        // SAFETY: the CPU supports AVX2, per this fn's contract.
        unsafe { avx2::matmul_a_bt_acc(&a[i * k..], b, &mut out[i * n..], 1, k, n) };
    }
}

/// `out[2P×n] += a[2P×k] × bᵀ` for one tile of `P` row pairs; see
/// [`matmul_a_bt_acc`].
///
/// # Safety
///
/// The caller must be in an AVX-512F `target_feature` context.
// SAFETY: `target_feature(enable = "avx512f")` makes this fn unsafe-to-call;
// callers uphold the AVX-512F context.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn a_bt_tile<const P: usize>(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    let full = k - k % LANES;
    let mut j = 0;
    while j + LANES <= n {
        let b_rows: [&[f32]; LANES] = core::array::from_fn(|q| &b[(j + q) * k..(j + q + 1) * k]);
        let mut acc = [[_mm512_setzero_ps(); LANES]; P];
        let mut c = 0;
        while c < full {
            let mut va = [_mm512_setzero_ps(); P];
            for (p, v) in va.iter_mut().enumerate() {
                let (lo, hi) = (2 * p * k + c, (2 * p + 1) * k + c);
                // SAFETY: in an AVX-512F context; both sub-slices are exactly LANES long.
                *v = unsafe { load_pair(&a[lo..lo + LANES], &a[hi..hi + LANES]) };
            }
            for (q, b_row) in b_rows.iter().enumerate() {
                // SAFETY: in an AVX-512F context; the sub-slice is exactly LANES long.
                let vb = unsafe { load_both(&b_row[c..c + LANES]) };
                for (acc_p, &va_p) in acc.iter_mut().zip(&va) {
                    // Same operand order as `dot`: acc + (a * b), never FMA.
                    acc_p[q] = _mm512_add_ps(acc_p[q], _mm512_mul_ps(va_p, vb));
                }
            }
            c += LANES;
        }
        for (p, acc_p) in acc.iter().enumerate() {
            let (mut lo, mut hi) = ([_mm256_setzero_ps(); LANES], [_mm256_setzero_ps(); LANES]);
            for ((l, h), &v) in lo.iter_mut().zip(hi.iter_mut()).zip(acc_p) {
                [*l, *h] = halves(v);
            }
            for (h, lanes) in [lo, hi].into_iter().enumerate() {
                let r = 2 * p + h;
                let o = &mut out[r * n + j..r * n + j + LANES];
                // SAFETY: the CPU supports AVX2, per this fn's contract, and
                // `o` is exactly LANES long.
                unsafe { avx2::finish_dots(lanes, &a[r * k..(r + 1) * k], b_rows, o) };
            }
        }
        j += LANES;
    }
    for r in 0..2 * P {
        for jj in j..n {
            // SAFETY: the CPU supports AVX2, per this fn's contract.
            out[r * n + jj] +=
                unsafe { avx2::dot(&a[r * k..(r + 1) * k], &b[jj * k..(jj + 1) * k]) };
        }
    }
}
