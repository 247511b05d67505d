//! The 512-bit register tile of the AVX-512 backend (x86-64 only).
//!
//! [`Backend::Avx512`](super::Backend::Avx512) runs every kernel through
//! [`super::avx2`] except the two products that share its `row_tile`:
//! `matmul_acc` and `matmul_at_b_acc`. Their column loop starts here, in
//! 32-column tiles of [`row_tile`], and `avx2::row_tile` finishes the
//! columns past the last one with its 16-wide, 8-wide and scalar tails.
//!
//! Bit-identity with [`super::scalar`] holds for the reason it holds for
//! the 256-bit tile: every output element still receives its
//! `a[i][k] * b[k][j]` products one at a time in ascending `k`, each a
//! separate multiply then add (`_mm512_mul_ps`, `_mm512_add_ps`; never FMA),
//! and every `(i, k)` with an exact-zero `a[i][k]` is skipped. Holding 32
//! columns of a row in registers instead of 16 changes only which elements
//! advance together.

#![deny(unsafe_op_in_unsafe_fn)]

use core::arch::x86_64::{
    __m512, _mm512_add_ps, _mm512_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
    _mm512_storeu_ps,
};

/// f32 lanes in one 512-bit vector.
const WIDE_LANES: usize = 16;

/// Columns per register tile: two vectors.
const TILE_COLS: usize = 2 * WIDE_LANES;

/// Loads `WIDE_LANES` floats.
///
/// # Safety
///
/// The caller must be in an AVX-512F `target_feature` context, and `k`
/// must be exactly `WIDE_LANES` elements long.
// SAFETY: `target_feature(enable = "avx512f")` makes this fn unsafe-to-call;
// callers uphold the AVX-512F context and the exact length above.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn load(k: &[f32]) -> __m512 {
    debug_assert_eq!(k.len(), WIDE_LANES);
    // SAFETY: `k` points at exactly 16 initialised, readable `f32`s, the
    // full 512-bit span `_mm512_loadu_ps` reads; `loadu` permits unaligned
    // addresses, so slice alignment is sufficient.
    unsafe { _mm512_loadu_ps(k.as_ptr()) }
}

/// Stores a 512-bit vector into `WIDE_LANES` floats.
///
/// # Safety
///
/// The caller must be in an AVX-512F `target_feature` context, and `k`
/// must be exactly `WIDE_LANES` elements long.
// SAFETY: `target_feature(enable = "avx512f")` makes this fn unsafe-to-call;
// callers uphold the AVX-512F context and the exact length above.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn store(k: &mut [f32], v: __m512) {
    debug_assert_eq!(k.len(), WIDE_LANES);
    // SAFETY: `k` points at exactly 16 writable `f32`s, the full 512-bit
    // span `_mm512_storeu_ps` writes; `storeu` permits unaligned addresses.
    unsafe { _mm512_storeu_ps(k.as_mut_ptr(), v) }
}

/// `out[R×n] += a[R×k] × b[k×n]` over the leading whole 32-column tiles of
/// one block of `R` rows; returns the first column it left alone.
///
/// Each tile holds an `R`-row × 32-column block of `out` in `2R` vector
/// registers while `k` ascends, in the order the module docs describe.
///
/// # Safety
///
/// The running CPU must support AVX-512F (the `Backend::Avx512`
/// dispatcher's feature detection), and `n > 0`.
// SAFETY: `target_feature(enable = "avx512f")` makes this fn unsafe-to-call;
// the feature-detection precondition is the entire soundness argument.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn row_tile<const R: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
) -> usize {
    let a_rows: [&[f32]; R] = core::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    let mut j = 0;
    while j + TILE_COLS <= n {
        let mut lo = [_mm512_setzero_ps(); R];
        let mut hi = [_mm512_setzero_ps(); R];
        for ((l, h), o) in lo.iter_mut().zip(hi.iter_mut()).zip(out.chunks_exact(n)) {
            let o = &o[j..j + TILE_COLS];
            // SAFETY: in an AVX-512F context; both halves are exactly 16 long.
            unsafe { (*l, *h) = (load(&o[..WIDE_LANES]), load(&o[WIDE_LANES..])) };
        }
        for (kk, b_row) in b.chunks_exact(n).take(k).enumerate() {
            let bt = &b_row[j..j + TILE_COLS];
            // SAFETY: in an AVX-512F context; both halves are exactly 16 long.
            let (b0, b1) = unsafe { (load(&bt[..WIDE_LANES]), load(&bt[WIDE_LANES..])) };
            for ((l, h), a_row) in lo.iter_mut().zip(hi.iter_mut()).zip(a_rows) {
                let aik = a_row[kk];
                // lint: allow(float-eq): exact-zero sparsity skip; a tolerance would change results
                if aik == 0.0 {
                    continue;
                }
                let va = _mm512_set1_ps(aik);
                // Same operand order as `axpy`: acc + (a * b), never FMA.
                *l = _mm512_add_ps(*l, _mm512_mul_ps(va, b0));
                *h = _mm512_add_ps(*h, _mm512_mul_ps(va, b1));
            }
        }
        for ((l, h), o) in lo.iter().zip(hi.iter()).zip(out.chunks_exact_mut(n)) {
            let (o0, o1) = o[j..j + TILE_COLS].split_at_mut(WIDE_LANES);
            // SAFETY: in an AVX-512F context; both halves are exactly 16 long.
            unsafe {
                store(o0, *l);
                store(o1, *h);
            }
        }
        j += TILE_COLS;
    }
    j
}
