//! Dense row-major `f32` matrices and the handful of kernels the autodiff
//! tape needs.
//!
//! Everything in the LEAD paper is small (hidden sizes 32–128), so kernels
//! favour low per-call overhead over cache blocking: `matmul` uses the i-k-j
//! loop order, which is the right shape for the tall-times-small products
//! that dominate LSTM steps (the AVX2 backend register-blocks it without
//! changing any element's evaluation order).
//!
//! All floating-point hot paths — the three matmul kernels, elementwise
//! arithmetic, activations/gates and their backwards, and the in-place
//! accumulators — dispatch through [`crate::simd::active`], so every backend
//! produces bit-identical results (the `simd` module's contract) and forcing
//! `Backend::Scalar` never changes a stored model byte.

use crate::simd::{self, Kernel};
use std::fmt;

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows × cols` matrix with every entry `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Self { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// A 1×n row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        let cols = data.len();
        Self {
            rows: 1,
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major data slice.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable row-major data slice.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Entry at `(r, c)`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets the entry at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self × rhs`.
    ///
    /// # Panics
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_acc_into(rhs, &mut out);
        out
    }

    /// `out += self × rhs`, the i-k-j kernel shared by forward and backward
    /// passes (backward accumulates into existing gradients). Dispatches to
    /// the active SIMD backend's blocked `matmul_acc`.
    pub fn matmul_acc_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch");
        assert_eq!(out.rows, self.rows, "output rows mismatch");
        assert_eq!(out.cols, rhs.cols, "output cols mismatch");
        simd::active().matmul_acc(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.cols,
        );
    }

    /// `out += self^T × rhs` without materialising the transpose: the
    /// dispatched `matmul_at_b_acc` kernel, an `axpy` per entry of `self` in
    /// ascending row order with the same exact-zero sparsity skip as
    /// `matmul_acc`.
    pub fn matmul_at_b_acc_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, rhs.rows, "A^T·B shape mismatch");
        assert_eq!(out.rows, self.cols);
        assert_eq!(out.cols, rhs.cols);
        simd::active().matmul_at_b_acc(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.cols,
        );
    }

    /// `out += self × rhs^T` without materialising the transpose: the
    /// dispatched `matmul_a_bt_acc` kernel, one blocked `dot` per output
    /// entry.
    pub fn matmul_a_bt_acc_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.cols, "A·B^T shape mismatch");
        assert_eq!(out.rows, self.rows);
        assert_eq!(out.cols, rhs.rows);
        simd::active().matmul_a_bt_acc(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.rows,
        );
    }

    /// `self × rhs^T` as a new matrix — the attention scoring shape
    /// (`Q × Kᵀ`) without materialising the transpose.
    pub fn matmul_bt(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_bt shape mismatch: {}x{} × ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_a_bt_acc_into(rhs, &mut out);
        out
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise sum; shapes must match.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols);
        simd::active().add(&self.data, &rhs.data, &mut out.data);
        out
    }

    /// Elementwise difference; shapes must match.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols);
        simd::active().sub(&self.data, &rhs.data, &mut out.data);
        out
    }

    /// Elementwise (Hadamard) product; shapes must match.
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "mul shape mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols);
        simd::active().mul(&self.data, &rhs.data, &mut out.data);
        out
    }

    /// Adds the 1×cols row vector `row` to every row.
    pub fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        assert_eq!(row.rows, 1, "broadcast operand must be a row vector");
        assert_eq!(row.cols, self.cols, "broadcast width mismatch");
        let kernel = simd::active();
        let mut out = self.clone();
        for r in 0..out.rows {
            // `1.0 * b` is exact, so axpy(1.0, ..) is bitwise `+= b`.
            kernel.axpy(1.0, &row.data, out.row_mut(r));
        }
        out
    }

    /// Accumulates every row of `src` into this 1×cols row vector — the
    /// backward pass of a row broadcast (and of the fused gate bias), in
    /// ascending row order.
    pub fn accumulate_row_sums(&mut self, src: &Matrix) {
        assert_eq!(self.rows, 1, "row-sum destination must be a row vector");
        assert_eq!(self.cols, src.cols, "row-sum width mismatch");
        let kernel = simd::active();
        for r in 0..src.rows {
            kernel.axpy(1.0, src.row(r), &mut self.data);
        }
    }

    /// `self * scalar`.
    pub fn scale(&self, s: f32) -> Matrix {
        let mut out = self.clone();
        out.scale_assign(s);
        out
    }

    /// `self *= scalar` in place.
    pub fn scale_assign(&mut self, s: f32) {
        simd::active().scale(&mut self.data, s);
    }

    /// Elementwise logistic sigmoid ([`simd::sigmoid`] on every element).
    pub fn sigmoid(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        simd::active().sigmoid(&self.data, &mut out.data);
        out
    }

    /// Elementwise hyperbolic tangent ([`simd::tanh`] on every element).
    pub fn tanh(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        simd::active().tanh(&self.data, &mut out.data);
        out
    }

    /// Fused gate `sigmoid(self + bias)` where `bias` is a 1×cols row
    /// vector broadcast over the rows — one dispatched kernel call per row.
    pub fn sigmoid_gate(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows, 1, "gate bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "gate bias width mismatch");
        let kernel = simd::active();
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let dst = &mut out.data[r * self.cols..(r + 1) * self.cols];
            kernel.sigmoid_gate(self.row(r), &bias.data, dst);
        }
        out
    }

    /// Fused gate `tanh(self + bias)`; see [`Matrix::sigmoid_gate`].
    pub fn tanh_gate(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows, 1, "gate bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "gate bias width mismatch");
        let kernel = simd::active();
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let dst = &mut out.data[r * self.cols..(r + 1) * self.cols];
            kernel.tanh_gate(self.row(r), &bias.data, dst);
        }
        out
    }

    /// Sigmoid backward `self * y * (1 - y)` where `self` is the upstream
    /// gradient and `y` the forward output.
    pub fn sigmoid_bwd(&self, y: &Matrix) -> Matrix {
        assert_eq!(self.shape(), y.shape(), "sigmoid_bwd shape mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols);
        simd::active().sigmoid_bwd(&self.data, &y.data, &mut out.data);
        out
    }

    /// Tanh backward `self * (1 - y * y)`; see [`Matrix::sigmoid_bwd`].
    pub fn tanh_bwd(&self, y: &Matrix) -> Matrix {
        assert_eq!(self.shape(), y.shape(), "tanh_bwd shape mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols);
        simd::active().tanh_bwd(&self.data, &y.data, &mut out.data);
        out
    }

    /// Applies `f` to every entry.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Combines two same-shaped matrices entrywise.
    pub fn zip_map(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "zip_map shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self += rhs` in place; shapes must match.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        // axpy(1.0, ..) is bitwise `+= b` since `1.0 * b` is exact.
        simd::active().axpy(1.0, &rhs.data, &mut self.data);
    }

    /// `self += rhs * s` in place; shapes must match.
    pub fn add_scaled_assign(&mut self, rhs: &Matrix, s: f32) {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "add_scaled_assign shape mismatch"
        );
        simd::active().axpy(s, &rhs.data, &mut self.data);
    }

    /// Zeroes every entry, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all entries (`NaN` for empty matrices).
    pub fn mean(&self) -> f32 {
        self.sum() / self.data.len() as f32
    }

    /// Index of the maximum entry as `(row, col)`; ties resolve to the first.
    ///
    /// Returns `None` for an empty matrix.
    pub fn argmax(&self) -> Option<(usize, usize)> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        Some((best / self.cols, best % self.cols))
    }

    /// Frobenius norm, via the dispatched blocked `dot` of the data with
    /// itself (so the gradient-clipping threshold is backend-independent).
    pub fn frobenius_norm(&self) -> f32 {
        simd::active().dot(&self.data, &self.data).sqrt()
    }

    /// Concatenates matrices left-to-right; all must share the row count.
    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let rows = parts.first().map_or(0, |m| m.rows);
        assert!(
            parts.iter().all(|m| m.rows == rows),
            "concat_cols row mismatch"
        );
        let cols: usize = parts.iter().map(|m| m.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut off = 0;
            for m in parts {
                out.data[r * cols + off..r * cols + off + m.cols].copy_from_slice(m.row(r));
                off += m.cols;
            }
        }
        out
    }

    /// Concatenates matrices top-to-bottom; all must share the column count.
    pub fn concat_rows(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_rows of nothing");
        let cols = parts.first().map_or(0, |m| m.cols);
        assert!(
            parts.iter().all(|m| m.cols == cols),
            "concat_rows col mismatch"
        );
        let rows: usize = parts.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in parts {
            data.extend_from_slice(&m.data);
        }
        Matrix { rows, cols, data }
    }

    /// Columns `c0..c1` as a new matrix.
    ///
    /// # Panics
    /// Panics if `c0 >= c1` or `c1 > cols`.
    pub fn slice_cols(&self, c0: usize, c1: usize) -> Matrix {
        assert!(c0 < c1 && c1 <= self.cols, "slice_cols out of range");
        let mut out = Matrix::zeros(self.rows, c1 - c0);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[c0..c1]);
        }
        out
    }

    /// Rows `r0..r1` as a new matrix.
    pub fn slice_rows(&self, r0: usize, r1: usize) -> Matrix {
        assert!(r0 < r1 && r1 <= self.rows, "slice_rows out of range");
        Matrix {
            rows: r1 - r0,
            cols: self.cols,
            data: self.data[r0 * self.cols..r1 * self.cols].to_vec(),
        }
    }

    /// Row-wise softmax: every row becomes a probability distribution.
    ///
    /// Uses the max-subtraction trick for numerical stability.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows {
            softmax_in_place(out.row_mut(r));
        }
        out
    }

    /// True when every entry is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

/// Softmax of one row in place, with the max-subtraction trick: the single
/// definition behind [`Matrix::softmax_rows`] and the tape-free attention.
pub(crate) fn softmax_in_place(row: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut z = 0.0;
    for v in row.iter_mut() {
        *v = simd::exp(*v - max);
        z += *v;
    }
    for v in row.iter_mut() {
        *v /= z;
    }
    debug_assert!(
        row.iter().all(|v| v.is_finite()),
        "softmax produced a non-finite entry (all-(-inf) or NaN input row?)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_known_product() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i).data(), a.data());
        assert_eq!(i.matmul(&a).data(), a.data());
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_at_b_matches_explicit_transpose() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 4, &(0..12).map(|v| v as f32).collect::<Vec<_>>());
        let mut got = Matrix::zeros(2, 4);
        a.matmul_at_b_acc_into(&b, &mut got);
        let expect = a.transpose().matmul(&b);
        assert_eq!(got.data(), expect.data());
    }

    #[test]
    fn matmul_a_bt_matches_explicit_transpose() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(4, 3, &(0..12).map(|v| v as f32).collect::<Vec<_>>());
        let mut got = Matrix::zeros(2, 4);
        a.matmul_a_bt_acc_into(&b, &mut got);
        let expect = a.matmul(&b.transpose());
        assert_eq!(got.data(), expect.data());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn add_row_broadcast_adds_to_every_row() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(1, 2, &[10.0, 20.0]);
        assert_eq!(a.add_row_broadcast(&b).data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn concat_cols_and_slice_cols_roundtrip() {
        let a = m(2, 2, &[1.0, 2.0, 5.0, 6.0]);
        let b = m(2, 1, &[3.0, 7.0]);
        let c = Matrix::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 5.0, 6.0, 7.0]);
        assert_eq!(c.slice_cols(0, 2), a);
        assert_eq!(c.slice_cols(2, 3), b);
    }

    #[test]
    fn concat_rows_and_slice_rows_roundtrip() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(2, 3, &[4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        let c = Matrix::concat_rows(&[&a, &b]);
        assert_eq!(c.shape(), (3, 3));
        assert_eq!(c.slice_rows(0, 1), a);
        assert_eq!(c.slice_rows(1, 3), b);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(s.row(r).iter().all(|&v| v > 0.0));
        }
        // Monotone: larger logits get larger probabilities.
        assert!(s.at(0, 2) > s.at(0, 1) && s.at(0, 1) > s.at(0, 0));
    }

    #[test]
    fn softmax_rows_stable_for_large_logits() {
        let a = m(1, 2, &[1000.0, 1001.0]);
        let s = a.softmax_rows();
        assert!(s.all_finite());
        assert!((s.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn argmax_finds_max_and_ties_first() {
        let a = m(2, 2, &[1.0, 5.0, 5.0, 0.0]);
        assert_eq!(a.argmax(), Some((0, 1)));
        assert_eq!(Matrix::zeros(0, 0).argmax(), None);
    }

    #[test]
    fn sum_mean_norm() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert!((a.frobenius_norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn add_scaled_assign_accumulates() {
        let mut a = m(1, 2, &[1.0, 2.0]);
        let b = m(1, 2, &[10.0, 10.0]);
        a.add_scaled_assign(&b, 0.5);
        assert_eq!(a.data(), &[6.0, 7.0]);
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(a.data(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(a.at(1, 2), 12.0);
    }

    #[test]
    fn fill_zero_keeps_shape() {
        let mut a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        a.fill_zero();
        assert_eq!(a, Matrix::zeros(2, 2));
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(4, 3, &(0..12).map(|v| v as f32).collect::<Vec<_>>());
        let got = a.matmul_bt(&b);
        let expect = a.matmul(&b.transpose());
        assert_eq!(got.data(), expect.data());
    }

    #[test]
    fn scale_assign_matches_scale() {
        let a = m(2, 2, &[1.0, -2.0, 0.5, 4.0]);
        let mut b = a.clone();
        b.scale_assign(0.25);
        assert_eq!(b.data(), a.scale(0.25).data());
        assert_eq!(b.data(), &[0.25, -0.5, 0.125, 1.0]);
    }

    #[test]
    fn activations_match_pinned_reference_bits() {
        // The bits of `simd::sigmoid`/`simd::tanh`, which call no libm, so
        // they are the same on every IEEE platform. Most equal what the
        // libm formulas gave on glibc; at -4.157294 `1/(1+exp(-x))` gave
        // 2 ulp more, and at -100 it overflowed to 0 where the reference
        // keeps the subnormal.
        let a = m(1, 7, &[-2.0, -0.0, 0.0, 0.5, 3.0, -4.157_294, -100.0]);
        let s = a.sigmoid();
        let t = a.tanh();
        let want_s: [u32; 7] = [
            0x3df4_20a9,
            0x3f00_0000,
            0x3f00_0000,
            0x3f1f_597f,
            0x3f73_dbe6,
            0x3c7c_74ce,
            0x0000_001b,
        ];
        let want_t: [u32; 7] = [
            0xbf76_ca83,
            0x8000_0000,
            0x0000_0000,
            0x3eec_9a9f,
            0x3f7e_bbe9,
            0xbf7f_dfe8,
            0xbf80_0000,
        ];
        for i in 0..a.len() {
            assert_eq!(s.data()[i].to_bits(), want_s[i], "sigmoid({})", a.data()[i]);
            assert_eq!(t.data()[i].to_bits(), want_t[i], "tanh({})", a.data()[i]);
        }
        // tanh preserves the sign of zero — the reason plain activations
        // never route through the gate kernels with a zero bias.
        assert_eq!(t.data()[1].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn gates_match_broadcast_then_activation_bitwise() {
        let x = m(2, 3, &[0.5, -1.0, 2.0, -0.25, 0.0, 1.5]);
        let b = m(1, 3, &[0.25, 1.0, -2.0]);
        let via_broadcast_sig = x.add_row_broadcast(&b).sigmoid();
        let via_broadcast_tanh = x.add_row_broadcast(&b).tanh();
        let gate_sig = x.sigmoid_gate(&b);
        let gate_tanh = x.tanh_gate(&b);
        for i in 0..x.len() {
            assert_eq!(
                gate_sig.data()[i].to_bits(),
                via_broadcast_sig.data()[i].to_bits()
            );
            assert_eq!(
                gate_tanh.data()[i].to_bits(),
                via_broadcast_tanh.data()[i].to_bits()
            );
        }
    }

    #[test]
    fn activation_backwards_match_formulas() {
        let g = m(1, 4, &[1.0, -0.5, 2.0, 0.25]);
        let y = m(1, 4, &[0.5, 0.25, 0.75, -0.5]);
        let sb = g.sigmoid_bwd(&y);
        let tb = g.tanh_bwd(&y);
        for i in 0..4 {
            let (gi, yi) = (g.data()[i], y.data()[i]);
            assert_eq!(sb.data()[i].to_bits(), (gi * yi * (1.0 - yi)).to_bits());
            assert_eq!(tb.data()[i].to_bits(), (gi * (1.0 - yi * yi)).to_bits());
        }
    }

    #[test]
    fn accumulate_row_sums_is_broadcast_backward() {
        let src = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut acc = m(1, 2, &[10.0, 20.0]);
        acc.accumulate_row_sums(&src);
        assert_eq!(acc.data(), &[19.0, 32.0]);
    }
}
