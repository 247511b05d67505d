//! The register-tile engine of `matmul_acc` and `matmul_at_b_acc`, written
//! once over the register width (x86-64 only).
//!
//! [`row_tile`] keeps an `R`-row block of `out` in registers while `k`
//! ascends, so every output element still receives its `a[i][k] * b[k][j]`
//! products one at a time in ascending `k`, each a separate multiply then
//! add (never FMA), and every `(i, k)` with an exact-zero `a[i][k]` is
//! skipped for its whole row: the scalar reference's i-k-j / axpy loop
//! nest. Holding more rows or columns in registers, at either width,
//! changes only which elements advance together, never an element's own
//! sequence of exactly rounded steps. A block the caller found free of
//! zeros, where no skip can fire, runs its `k` loop without the test.
//!
//! A backend instantiates the engine through [`Columns`], the order in
//! which its tiles cover one block's columns, and runs it from its own
//! `target_feature` entry point. Nothing here carries a `target_feature`:
//! every function is `#[inline(always)]`, so each instance is compiled
//! inside the entry point that calls it, under exactly that backend's
//! features.

use crate::{avx2, scalar};

/// One register width of the engine: `__m256` (AVX2) or `__m512`
/// (AVX-512F).
///
/// # Safety
///
/// Every method runs its width's instructions, so it may only be called
/// from code inlined into a `target_feature` function that enables them.
/// `load` and `store` take exactly `LANES` floats.
pub(super) trait Vector: Copy {
    /// f32 lanes in one register.
    const LANES: usize;
    /// All lanes `0.0`.
    unsafe fn zero() -> Self;
    /// `x` in every lane.
    unsafe fn splat(x: f32) -> Self;
    /// Loads `p`, which is exactly `LANES` long.
    unsafe fn load(p: &[f32]) -> Self;
    /// Stores `v` into `p`, which is exactly `LANES` long.
    unsafe fn store(p: &mut [f32], v: Self);
    /// Lane-wise `a + b`, exactly rounded.
    unsafe fn add(a: Self, b: Self) -> Self;
    /// Lane-wise `a * b`, exactly rounded.
    unsafe fn mul(a: Self, b: Self) -> Self;
}

/// How a backend's tiles cover the columns of one block of `R` rows.
///
/// # Safety
///
/// As for [`Vector`]: callable only from code inlined into a
/// `target_feature` function that enables the backend's instructions.
pub(super) trait Columns {
    /// `out[R×n] += a[R×k] × b[k×n]` over columns `j0..n`, the widest tile
    /// `V` registers a row; with `SKIP` the exact-zero skip is on, without
    /// it the block holds no zero.
    unsafe fn columns<const R: usize, const V: usize, const SKIP: bool>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        k: usize,
        n: usize,
        j0: usize,
    );
}

/// `out[R×n] += a[R×k] × b[k×n]` over whole tiles of `V` registers of `W`
/// per row, from column `j0`; returns the first column it left.
///
/// # Safety
///
/// The caller must be inlined into a `target_feature` function that
/// enables `W`'s instructions.
#[inline(always)]
pub(super) unsafe fn row_tile<W: Vector, const R: usize, const V: usize, const SKIP: bool>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    j0: usize,
) -> usize {
    let a_rows = rows::<R>(a, k);
    let cols = V * W::LANES;
    let mut j = j0;
    while j + cols <= n {
        // SAFETY: `W`'s instructions are enabled, per this fn's contract,
        // and every `chunks_exact(W::LANES)` chunk is exactly `LANES` long.
        unsafe {
            let mut acc = [[W::zero(); V]; R];
            for (acc_r, o) in acc.iter_mut().zip(out.chunks_exact(n)) {
                for (v, o) in acc_r.iter_mut().zip(o[j..j + cols].chunks_exact(W::LANES)) {
                    *v = W::load(o);
                }
            }
            for kk in 0..k {
                let mut vb = [W::zero(); V];
                let bt = &b[kk * n + j..][..cols];
                for (v, bt) in vb.iter_mut().zip(bt.chunks_exact(W::LANES)) {
                    *v = W::load(bt);
                }
                for (acc_r, a_row) in acc.iter_mut().zip(a_rows) {
                    let aik = a_row[kk];
                    // lint: allow(float-eq): exact-zero sparsity skip; a tolerance would change results
                    if SKIP && aik == 0.0 {
                        continue;
                    }
                    let va = W::splat(aik);
                    for (v, &bv) in acc_r.iter_mut().zip(&vb) {
                        // Same operand order as `axpy`: acc + (a * b), never FMA.
                        *v = W::add(*v, W::mul(va, bv));
                    }
                }
            }
            for (acc_r, o) in acc.iter().zip(out.chunks_exact_mut(n)) {
                for (&v, o) in acc_r.iter().zip(o[j..j + cols].chunks_exact_mut(W::LANES)) {
                    W::store(o, v);
                }
            }
        }
        j += cols;
    }
    j
}

/// The first `R` rows of `a`, each `k` long. A plain loop, not
/// `array::from_fn`: inside a large entry point the compiler may leave
/// `from_fn` a call, and the `k` loop then re-checks every row's bounds.
#[inline(always)]
fn rows<const R: usize>(a: &[f32], k: usize) -> [&[f32]; R] {
    let mut rows = [&a[..0]; R];
    for (r, row) in rows.iter_mut().enumerate() {
        *row = &a[r * k..][..k];
    }
    rows
}

/// Columns `j..n` of one block of `R` rows by the reference's own axpy:
/// the tail no register tile covers.
#[inline(always)]
pub(super) fn axpy_tail<const R: usize, const SKIP: bool>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    j: usize,
) {
    if j >= n {
        return;
    }
    let a_rows = rows::<R>(a, k);
    for (o, a_row) in out.chunks_exact_mut(n).zip(a_rows) {
        for (kk, &aik) in a_row.iter().enumerate() {
            // lint: allow(float-eq): exact-zero sparsity skip; a tolerance would change results
            if SKIP && aik == 0.0 {
                continue;
            }
            scalar::axpy(aik, &b[kk * n + j..(kk + 1) * n], &mut o[j..]);
        }
    }
}

/// Blocks of `R` rows from row `i` while `R` rows remain of `m`; returns
/// the first row left. `V` is the widest tile's registers per row.
///
/// # Safety
///
/// As for [`Columns`].
#[inline(always)]
pub(super) unsafe fn row_blocks<C: Columns, const R: usize, const V: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    mut i: usize,
    m: usize,
    k: usize,
    n: usize,
) -> usize {
    while i + R <= m {
        let rows = i..i + R;
        let (a, out) = (
            &a[rows.start * k..rows.end * k],
            &mut out[rows.start * n..rows.end * n],
        );
        // SAFETY: per this fn's contract.
        unsafe { tile::<C, R, V>(a, b, out, k, n) };
        i += R;
    }
    i
}

/// `out[R×n] += a[R×k] × b[k×n]` for one block of `R` rows.
///
/// The block's `R × k` entries of `a` are scanned once: the exact-zero
/// skip can fire only if one of them is `== 0.0` (either sign; NaN never
/// is), so a block without one runs the `k` loop with no per-entry test.
///
/// # Safety
///
/// As for [`Columns`].
#[inline(always)]
unsafe fn tile<C: Columns, const R: usize, const V: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
) {
    // No early exit, so the scan vectorises.
    // lint: allow(float-eq): exact-zero sparsity skip; a tolerance would change results
    if a[..R * k].iter().fold(false, |zero, &v| zero | (v == 0.0)) {
        // SAFETY: per this fn's contract.
        unsafe { C::columns::<R, V, true>(a, b, out, k, n, 0) }
    } else {
        // SAFETY: per this fn's contract.
        unsafe { C::columns::<R, V, false>(a, b, out, k, n, 0) }
    }
}

/// `out[m×n] += a[m×k] × b[k×n]` over rows `i..m`: blocks of four rows,
/// then at most one block of three, two or one.
///
/// LEAD's recurrent steps multiply 1–14 rows, and a lone one-row block
/// after each multiple of four ran at a third of a full block's speed. A
/// block of fewer rows gets wider tiles (`V` = four registers a row for two
/// rows, eight for one, two otherwise), so it still keeps six or more
/// independent sums in flight.
///
/// # Safety
///
/// As for [`Columns`].
#[inline(always)]
pub(super) unsafe fn matmul_acc<C: Columns>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    // SAFETY: per this fn's contract.
    unsafe {
        let i = row_blocks::<C, 4, 2>(a, b, out, i, m, k, n);
        let i = row_blocks::<C, 3, 2>(a, b, out, i, m, k, n);
        let i = row_blocks::<C, 2, 4>(a, b, out, i, m, k, n);
        row_blocks::<C, 1, 8>(a, b, out, i, m, k, n);
    }
}

/// Output rows per tile of [`matmul_at_b_acc`].
const AT_B_ROWS: usize = 4;

/// Rows of `a` per block that [`matmul_at_b_acc`] transposes onto the stack.
const AT_B_BLOCK: usize = 64;

/// `out[k×n] += aᵀ × b` for row-major `a[m×k]` and `b[m×n]`.
///
/// Per output element the reference adds `a[r][p] * b[r][j]` in ascending
/// `r`, skipping every exact-zero `a[r][p]`: that is [`matmul_acc`] of
/// `aᵀ`. So each tile of up to four output rows transposes its four
/// columns of `a`, 64 rows at a time, into a stack block and runs [`tile`]
/// on the block. Between blocks the output tile is stored and reloaded,
/// which moves bits without rounding them. A single row of `a` is the
/// reference's axpy loop as it stands.
///
/// # Safety
///
/// As for [`Columns`], in a context that enables AVX2 (both backends'
/// entry points do).
#[inline(always)]
pub(super) unsafe fn matmul_at_b_acc<C: Columns>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    if m == 1 {
        for (p, &ap) in a[..k].iter().enumerate() {
            // lint: allow(float-eq): exact-zero sparsity skip; a tolerance would change results
            if ap == 0.0 {
                continue;
            }
            // SAFETY: AVX2 is enabled, per this fn's contract.
            unsafe { avx2::axpy(ap, &b[..n], &mut out[p * n..(p + 1) * n]) };
        }
        return;
    }
    let mut block = [0.0f32; AT_B_ROWS * AT_B_BLOCK];
    let mut p = 0;
    while p + AT_B_ROWS <= k {
        let tile = &mut out[p * n..(p + AT_B_ROWS) * n];
        // SAFETY: per this fn's contract.
        unsafe { at_b_tile::<C, AT_B_ROWS>(a, b, tile, &mut block, p, m, k, n) };
        p += AT_B_ROWS;
    }
    while p < k {
        let tile = &mut out[p * n..(p + 1) * n];
        // SAFETY: per this fn's contract.
        unsafe { at_b_tile::<C, 1>(a, b, tile, &mut block, p, m, k, n) };
        p += 1;
    }
}

/// Output rows `col..col + R` of [`matmul_at_b_acc`]: columns
/// `col..col + R` of `a` (`m×k`), transposed into `block` a block of rows
/// at a time.
///
/// # Safety
///
/// As for [`Columns`].
#[inline(always)]
unsafe fn at_b_tile<C: Columns, const R: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    block: &mut [f32; AT_B_ROWS * AT_B_BLOCK],
    col: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    let mut r0 = 0;
    while r0 < m {
        let rows = (m - r0).min(AT_B_BLOCK);
        for rr in 0..rows {
            let a_row = &a[(r0 + rr) * k + col..(r0 + rr) * k + col + R];
            for (t, &v) in a_row.iter().enumerate() {
                block[t * rows + rr] = v;
            }
        }
        let b = &b[r0 * n..(r0 + rows) * n];
        // SAFETY: per this fn's contract.
        unsafe { tile::<C, R, 2>(&block[..R * rows], b, out, rows, n) };
        r0 += rows;
    }
}
