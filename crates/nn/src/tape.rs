//! Eager reverse-mode automatic differentiation on a tape.
//!
//! A [`Graph`] records every operation as it is evaluated (values are computed
//! eagerly), then [`Graph::backward`] walks the tape in reverse, producing a
//! [`Gradients`] buffer aligned with the [`ParamSet`] the graph reads from.
//!
//! The op vocabulary is exactly what the LEAD architectures need: matrix
//! products (including the transpose-free `A·Bᵀ` attention scoring shape),
//! elementwise arithmetic, broadcasts, slicing/concatenation (for LSTM gate
//! splits and bidirectional merges), `tanh`/`sigmoid`/row-softmax, fused
//! bias-then-activation gates, and two fused losses (MSE for the
//! hierarchical autoencoder, KL divergence for the detectors). Forward and
//! backward passes route through the dispatched SIMD kernels via `Matrix`,
//! so autodiff inherits the backend bit-identity contract.

use crate::matrix::Matrix;
use crate::params::{Gradients, ParamId, ParamSet};
use crate::simd::{self, Kernel};

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug)]
enum Op {
    /// A constant input; no gradient flows into it.
    Constant,
    /// A trainable parameter; gradients are exported via its [`ParamId`].
    Param(ParamId),
    MatMul(Var, Var),
    /// `a × b^T` without materialising the transpose (attention scoring).
    MatMulBt(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    /// `a + row` with `row` broadcast over `a`'s rows.
    AddRowBroadcast(Var, Var),
    Scale(Var, f32),
    AddScalar(Var),
    Tanh(Var),
    Sigmoid(Var),
    /// Fused `sigmoid(pre + bias)` with `bias` a 1×cols row broadcast.
    SigmoidGate(Var, Var),
    /// Fused `tanh(pre + bias)` with `bias` a 1×cols row broadcast.
    TanhGate(Var, Var),
    Relu(Var),
    SoftmaxRows(Var),
    ConcatCols(Vec<Var>),
    ConcatRows(Vec<Var>),
    /// Columns `start..start+width` of the input (width = node's own cols).
    SliceCols(Var, usize),
    /// Row `r` of the input as a 1×cols node.
    Row(Var, usize),
    Transpose(Var),
    MeanAll(Var),
    SumAll(Var),
    /// `mean((a - target)^2)`; the paper's Equation (8).
    MseLoss(Var, Matrix),
    /// `Σ p·ln(p/q)` with constant `p`; the paper's Equations (11)–(12).
    KldLoss(Var, Matrix),
    /// Mean binary cross-entropy on logits against constant targets.
    BceWithLogitsLoss(Var, Matrix),
}

struct Node {
    value: Matrix,
    op: Op,
    needs_grad: bool,
}

/// A tape of eagerly evaluated operations over matrices.
///
/// Graphs borrow the [`ParamSet`] immutably; gradients come back in a
/// separate [`Gradients`] buffer so several graphs (the paper accumulates
/// `B = 64` consecutive samples) can be evaluated against one parameter
/// snapshot before an optimiser step.
pub struct Graph<'p> {
    params: &'p ParamSet,
    nodes: Vec<Node>,
    param_cache: Vec<Option<Var>>,
}

impl<'p> Graph<'p> {
    /// Starts an empty tape over `params`.
    pub fn new(params: &'p ParamSet) -> Self {
        Self {
            params,
            nodes: Vec::new(),
            param_cache: vec![None; params.len()],
        }
    }

    fn push(&mut self, value: Matrix, op: Op, needs_grad: bool) -> Var {
        debug_assert!(value.all_finite(), "non-finite value produced by {op:?}");
        self.nodes.push(Node {
            value,
            op,
            needs_grad,
        });
        Var(self.nodes.len() - 1)
    }

    fn needs(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    /// The computed value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// The scalar value of a 1×1 node.
    ///
    /// # Panics
    /// Panics if the node is not 1×1.
    pub fn scalar(&self, v: Var) -> f32 {
        let m = self.value(v);
        assert_eq!(m.shape(), (1, 1), "scalar() on non-scalar node");
        m.at(0, 0)
    }

    /// Number of recorded nodes (diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    // ---- inputs -----------------------------------------------------------

    /// Records a constant (no gradient) input.
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Constant, false)
    }

    /// Records a trainable parameter, caching repeat uses of the same id.
    pub fn param(&mut self, id: ParamId) -> Var {
        if let Some(v) = self.param_cache[id.index()] {
            return v;
        }
        let v = self.push(self.params.value(id).clone(), Op::Param(id), true);
        self.param_cache[id.index()] = Some(v);
        v
    }

    // ---- arithmetic -------------------------------------------------------

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(value, Op::MatMul(a, b), ng)
    }

    /// Matrix product `a × b^T` without materialising the transpose — the
    /// attention scoring shape (`Q × Kᵀ`).
    pub fn matmul_bt(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul_bt(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(value, Op::MatMulBt(a, b), ng)
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(value, Op::Add(a, b), ng)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).sub(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(value, Op::Sub(a, b), ng)
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).mul(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(value, Op::Mul(a, b), ng)
    }

    /// Adds a 1×cols `row` vector to every row of `a` (bias add).
    pub fn add_row_broadcast(&mut self, a: Var, row: Var) -> Var {
        let value = self.value(a).add_row_broadcast(self.value(row));
        let ng = self.needs(a) || self.needs(row);
        self.push(value, Op::AddRowBroadcast(a, row), ng)
    }

    /// Multiplies by a compile-time scalar.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let value = self.value(a).scale(s);
        let ng = self.needs(a);
        self.push(value, Op::Scale(a, s), ng)
    }

    /// Adds a compile-time scalar to every entry.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let value = self.value(a).map(|v| v + s);
        let ng = self.needs(a);
        self.push(value, Op::AddScalar(a), ng)
    }

    /// `1 - a`, used by GRU update gates.
    pub fn one_minus(&mut self, a: Var) -> Var {
        let neg = self.scale(a, -1.0);
        self.add_scalar(neg, 1.0)
    }

    // ---- activations ------------------------------------------------------

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.value(a).tanh();
        let ng = self.needs(a);
        self.push(value, Op::Tanh(a), ng)
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.value(a).sigmoid();
        let ng = self.needs(a);
        self.push(value, Op::Sigmoid(a), ng)
    }

    /// Fused gate `sigmoid(pre + bias)` with `bias` a 1×cols row vector
    /// broadcast over `pre`'s rows — one kernel call per row instead of a
    /// broadcast node plus an activation node.
    pub fn sigmoid_gate(&mut self, pre: Var, bias: Var) -> Var {
        let value = self.value(pre).sigmoid_gate(self.value(bias));
        let ng = self.needs(pre) || self.needs(bias);
        self.push(value, Op::SigmoidGate(pre, bias), ng)
    }

    /// Fused gate `tanh(pre + bias)`; see [`Graph::sigmoid_gate`].
    pub fn tanh_gate(&mut self, pre: Var, bias: Var) -> Var {
        let value = self.value(pre).tanh_gate(self.value(bias));
        let ng = self.needs(pre) || self.needs(bias);
        self.push(value, Op::TanhGate(pre, bias), ng)
    }

    /// Elementwise rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|v| v.max(0.0));
        let ng = self.needs(a);
        self.push(value, Op::Relu(a), ng)
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let value = self.value(a).softmax_rows();
        let ng = self.needs(a);
        self.push(value, Op::SoftmaxRows(a), ng)
    }

    // ---- shape ------------------------------------------------------------

    /// Concatenates nodes left-to-right.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let mats: Vec<&Matrix> = parts.iter().map(|&v| self.value(v)).collect();
        let value = Matrix::concat_cols(&mats);
        let ng = parts.iter().any(|&v| self.needs(v));
        self.push(value, Op::ConcatCols(parts.to_vec()), ng)
    }

    /// Concatenates nodes top-to-bottom (stacking per-step hidden states).
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows of nothing");
        let mats: Vec<&Matrix> = parts.iter().map(|&v| self.value(v)).collect();
        let value = Matrix::concat_rows(&mats);
        let ng = parts.iter().any(|&v| self.needs(v));
        self.push(value, Op::ConcatRows(parts.to_vec()), ng)
    }

    /// Columns `c0..c1` (LSTM gate splits).
    pub fn slice_cols(&mut self, a: Var, c0: usize, c1: usize) -> Var {
        let value = self.value(a).slice_cols(c0, c1);
        let ng = self.needs(a);
        self.push(value, Op::SliceCols(a, c0), ng)
    }

    /// Row `r` as a 1×cols node (per-timestep input extraction).
    pub fn row(&mut self, a: Var, r: usize) -> Var {
        let value = Matrix::row_vector(self.value(a).row(r).to_vec());
        let ng = self.needs(a);
        self.push(value, Op::Row(a, r), ng)
    }

    /// The transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let value = self.value(a).transpose();
        let ng = self.needs(a);
        self.push(value, Op::Transpose(a), ng)
    }

    // ---- reductions and losses ---------------------------------------------

    /// Mean of all entries, as a 1×1 node.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let value = Matrix::from_vec(1, 1, vec![self.value(a).mean()]);
        let ng = self.needs(a);
        self.push(value, Op::MeanAll(a), ng)
    }

    /// Sum of all entries, as a 1×1 node.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = Matrix::from_vec(1, 1, vec![self.value(a).sum()]);
        let ng = self.needs(a);
        self.push(value, Op::SumAll(a), ng)
    }

    /// Fused mean-squared-error loss `mean((a - target)^2)` — Equation (8).
    pub fn mse_loss(&mut self, a: Var, target: &Matrix) -> Var {
        assert_eq!(self.value(a).shape(), target.shape(), "mse target shape");
        let v = crate::loss::mse(self.value(a).data(), target.data());
        let ng = self.needs(a);
        self.push(
            Matrix::from_vec(1, 1, vec![v]),
            Op::MseLoss(a, target.clone()),
            ng,
        )
    }

    /// Fused KL-divergence loss `Σ p·ln(p/q)` against constant distribution
    /// `p` — Equations (11)–(12). `q` (the node) must be strictly positive,
    /// which softmax outputs guarantee.
    pub fn kld_loss(&mut self, q: Var, p: &Matrix) -> Var {
        assert_eq!(self.value(q).shape(), p.shape(), "kld label shape");
        let v = crate::loss::kld(p.data(), self.value(q).data());
        let ng = self.needs(q);
        self.push(
            Matrix::from_vec(1, 1, vec![v]),
            Op::KldLoss(q, p.clone()),
            ng,
        )
    }

    /// Fused numerically-stable binary cross-entropy on logits `z` against
    /// constant targets `y ∈ [0, 1]`:
    /// `mean(max(z, 0) − z·y + ln(1 + e^{−|z|}))`.
    ///
    /// Used by the `LEAD-NoGro` ablation's per-candidate sigmoid classifier.
    pub fn bce_with_logits_loss(&mut self, z: Var, y: &Matrix) -> Var {
        assert_eq!(self.value(z).shape(), y.shape(), "bce target shape");
        let v = crate::loss::bce_with_logits(self.value(z).data(), y.data());
        let ng = self.needs(z);
        self.push(
            Matrix::from_vec(1, 1, vec![v]),
            Op::BceWithLogitsLoss(z, y.clone()),
            ng,
        )
    }

    // ---- backward ----------------------------------------------------------

    /// Reverse-mode pass from the 1×1 `loss` node; returns gradients for every
    /// parameter the tape touched (zeros for untouched parameters).
    ///
    /// # Panics
    /// Panics if `loss` is not 1×1.
    pub fn backward(&self, loss: Var) -> Gradients {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward() must start from a scalar loss"
        );
        let mut grads: Vec<Option<Matrix>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(Matrix::full(1, 1, 1.0));
        let mut out = self.params.zero_gradients();

        for i in (0..=loss.0).rev() {
            if !self.nodes[i].needs_grad {
                continue;
            }
            let Some(g) = grads[i].take() else { continue };
            match &self.nodes[i].op {
                Op::Constant => {}
                Op::Param(pid) => out.get_mut(*pid).add_assign(&g),
                Op::MatMul(a, b) => {
                    if self.needs(*a) {
                        let ga = self.grad_slot(&mut grads, *a);
                        g.matmul_a_bt_acc_into(&self.nodes[b.0].value, ga);
                    }
                    if self.needs(*b) {
                        let gb = self.grad_slot(&mut grads, *b);
                        self.nodes[a.0].value.matmul_at_b_acc_into(&g, gb);
                    }
                }
                Op::MatMulBt(a, b) => {
                    // y = A·Bᵀ, so dA = G·B and dB = Gᵀ·A.
                    if self.needs(*a) {
                        let ga = self.grad_slot(&mut grads, *a);
                        g.matmul_acc_into(&self.nodes[b.0].value, ga);
                    }
                    if self.needs(*b) {
                        let gb = self.grad_slot(&mut grads, *b);
                        g.matmul_at_b_acc_into(&self.nodes[a.0].value, gb);
                    }
                }
                Op::Add(a, b) => {
                    if self.needs(*a) {
                        self.grad_slot(&mut grads, *a).add_assign(&g);
                    }
                    if self.needs(*b) {
                        self.grad_slot(&mut grads, *b).add_assign(&g);
                    }
                }
                Op::Sub(a, b) => {
                    if self.needs(*a) {
                        self.grad_slot(&mut grads, *a).add_assign(&g);
                    }
                    if self.needs(*b) {
                        self.grad_slot(&mut grads, *b).add_scaled_assign(&g, -1.0);
                    }
                }
                Op::Mul(a, b) => {
                    if self.needs(*a) {
                        let gb = g.mul(&self.nodes[b.0].value);
                        self.grad_slot(&mut grads, *a).add_assign(&gb);
                    }
                    if self.needs(*b) {
                        let ga = g.mul(&self.nodes[a.0].value);
                        self.grad_slot(&mut grads, *b).add_assign(&ga);
                    }
                }
                Op::AddRowBroadcast(a, row) => {
                    if self.needs(*a) {
                        self.grad_slot(&mut grads, *a).add_assign(&g);
                    }
                    if self.needs(*row) {
                        self.grad_slot(&mut grads, *row).accumulate_row_sums(&g);
                    }
                }
                Op::Scale(a, s) => {
                    if self.needs(*a) {
                        self.grad_slot(&mut grads, *a).add_scaled_assign(&g, *s);
                    }
                }
                Op::AddScalar(a) => {
                    if self.needs(*a) {
                        self.grad_slot(&mut grads, *a).add_assign(&g);
                    }
                }
                Op::Tanh(a) => {
                    if self.needs(*a) {
                        let dg = g.tanh_bwd(&self.nodes[i].value);
                        self.grad_slot(&mut grads, *a).add_assign(&dg);
                    }
                }
                Op::Sigmoid(a) => {
                    if self.needs(*a) {
                        let dg = g.sigmoid_bwd(&self.nodes[i].value);
                        self.grad_slot(&mut grads, *a).add_assign(&dg);
                    }
                }
                Op::SigmoidGate(pre, bias) => {
                    // d/d(pre+bias) = g·y·(1−y); pre takes it elementwise,
                    // the bias row accumulates it over rows.
                    let dz = g.sigmoid_bwd(&self.nodes[i].value);
                    if self.needs(*pre) {
                        self.grad_slot(&mut grads, *pre).add_assign(&dz);
                    }
                    if self.needs(*bias) {
                        self.grad_slot(&mut grads, *bias).accumulate_row_sums(&dz);
                    }
                }
                Op::TanhGate(pre, bias) => {
                    let dz = g.tanh_bwd(&self.nodes[i].value);
                    if self.needs(*pre) {
                        self.grad_slot(&mut grads, *pre).add_assign(&dz);
                    }
                    if self.needs(*bias) {
                        self.grad_slot(&mut grads, *bias).accumulate_row_sums(&dz);
                    }
                }
                Op::Relu(a) => {
                    if self.needs(*a) {
                        let x = &self.nodes[a.0].value;
                        let dg = g.zip_map(x, |gi, xi| if xi > 0.0 { gi } else { 0.0 });
                        self.grad_slot(&mut grads, *a).add_assign(&dg);
                    }
                }
                Op::SoftmaxRows(a) => {
                    if self.needs(*a) {
                        let y = &self.nodes[i].value;
                        let mut dg = Matrix::zeros(g.rows(), g.cols());
                        for r in 0..g.rows() {
                            crate::loss::softmax_grad(g.row(r), y.row(r), dg.row_mut(r));
                        }
                        self.grad_slot(&mut grads, *a).add_assign(&dg);
                    }
                }
                Op::ConcatCols(parts) => {
                    let mut off = 0;
                    for &p in parts {
                        let w = self.nodes[p.0].value.cols();
                        if self.needs(p) {
                            let gp = g.slice_cols(off, off + w);
                            self.grad_slot(&mut grads, p).add_assign(&gp);
                        }
                        off += w;
                    }
                }
                Op::ConcatRows(parts) => {
                    let mut off = 0;
                    for &p in parts {
                        let h = self.nodes[p.0].value.rows();
                        if self.needs(p) {
                            let gp = g.slice_rows(off, off + h);
                            self.grad_slot(&mut grads, p).add_assign(&gp);
                        }
                        off += h;
                    }
                }
                Op::SliceCols(a, c0) => {
                    if self.needs(*a) {
                        let w = self.nodes[i].value.cols();
                        let kernel = simd::active();
                        let ga = self.grad_slot(&mut grads, *a);
                        for r in 0..g.rows() {
                            kernel.axpy(1.0, g.row(r), &mut ga.row_mut(r)[*c0..c0 + w]);
                        }
                    }
                }
                Op::Row(a, r) => {
                    if self.needs(*a) {
                        let ga = self.grad_slot(&mut grads, *a);
                        simd::active().axpy(1.0, g.row(0), ga.row_mut(*r));
                    }
                }
                Op::Transpose(a) => {
                    if self.needs(*a) {
                        self.grad_slot(&mut grads, *a).add_assign(&g.transpose());
                    }
                }
                Op::MeanAll(a) => {
                    if self.needs(*a) {
                        let n = self.nodes[a.0].value.len() as f32;
                        let gs = g.at(0, 0) / n;
                        let shape = self.nodes[a.0].value.shape();
                        let dg = Matrix::full(shape.0, shape.1, gs);
                        self.grad_slot(&mut grads, *a).add_assign(&dg);
                    }
                }
                Op::SumAll(a) => {
                    if self.needs(*a) {
                        let gs = g.at(0, 0);
                        let shape = self.nodes[a.0].value.shape();
                        let dg = Matrix::full(shape.0, shape.1, gs);
                        self.grad_slot(&mut grads, *a).add_assign(&dg);
                    }
                }
                Op::MseLoss(a, target) => {
                    if self.needs(*a) {
                        let y = &self.nodes[a.0].value;
                        let mut dy = Vec::new();
                        crate::loss::mse_grad(g.at(0, 0), y.data(), target.data(), &mut dy);
                        let dg = Matrix::from_vec(y.rows(), y.cols(), dy);
                        self.grad_slot(&mut grads, *a).add_assign(&dg);
                    }
                }
                Op::KldLoss(q, p) => {
                    if self.needs(*q) {
                        let gs = g.at(0, 0);
                        let qv = &self.nodes[q.0].value;
                        let dg = p.zip_map(qv, |pi, qi| crate::loss::kld_grad(gs, pi, qi));
                        self.grad_slot(&mut grads, *q).add_assign(&dg);
                    }
                }
                Op::BceWithLogitsLoss(z, y) => {
                    if self.needs(*z) {
                        let zv = &self.nodes[z.0].value;
                        let mut dz = Vec::new();
                        crate::loss::bce_with_logits_grad(g.at(0, 0), zv.data(), y.data(), &mut dz);
                        let dg = Matrix::from_vec(zv.rows(), zv.cols(), dz);
                        self.grad_slot(&mut grads, *z).add_assign(&dg);
                    }
                }
            }
        }
        out
    }

    fn grad_slot<'g>(&self, grads: &'g mut [Option<Matrix>], v: Var) -> &'g mut Matrix {
        let (r, c) = self.nodes[v.0].value.shape();
        grads[v.0].get_or_insert_with(|| Matrix::zeros(r, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn forward_values_compose() {
        let ps = ParamSet::new();
        let mut g = Graph::new(&ps);
        let a = g.constant(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let b = g.constant(Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]));
        let c = g.matmul(a, b);
        let d = g.scale(c, 3.0);
        assert_eq!(g.value(d).data(), &[3.0, 6.0]);
    }

    #[test]
    fn param_cache_returns_same_var() {
        let mut ps = ParamSet::new();
        let id = ps.register("w", Matrix::zeros(1, 1));
        let mut g = Graph::new(&ps);
        assert_eq!(g.param(id), g.param(id));
    }

    #[test]
    fn backward_through_matmul_chain() {
        // loss = sum(x W), dL/dW = x^T 1.
        let mut ps = ParamSet::new();
        let w = ps.register("w", Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let mut g = Graph::new(&ps);
        let x = g.constant(Matrix::from_vec(1, 2, vec![5.0, 7.0]));
        let wv = g.param(w);
        let y = g.matmul(x, wv);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(w).data(), &[5.0, 5.0, 7.0, 7.0]);
    }

    #[test]
    fn shared_param_grads_accumulate() {
        // loss = sum(w) + sum(w) => grad = 2.
        let mut ps = ParamSet::new();
        let w = ps.register("w", Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let mut g = Graph::new(&ps);
        let wv = g.param(w);
        let s1 = g.sum_all(wv);
        let s2 = g.sum_all(wv);
        let loss = g.add(s1, s2);
        let grads = g.backward(loss);
        assert_eq!(grads.get(w).data(), &[2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_from_non_scalar_panics() {
        let ps = ParamSet::new();
        let g2 = {
            let mut g = Graph::new(&ps);
            let a = g.constant(Matrix::zeros(2, 2));
            (g, a)
        };
        let (g, a) = g2;
        let _ = g.backward(a);
    }

    // ---- finite-difference gradient checks, one per differentiable op ------

    #[test]
    fn gradcheck_matmul() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", crate::init::xavier_uniform(&mut rng(), 3, 4));
        let x = Matrix::from_fn(2, 3, |r, c| (r + c) as f32 * 0.1 + 0.05);
        gradcheck(&mut ps, w, 1e-2, 2e-2, |g| {
            let xv = g.constant(x.clone());
            let wv = g.param(w);
            let y = g.matmul(xv, wv);
            g.sum_all(y)
        });
    }

    #[test]
    fn gradcheck_tanh_sigmoid_relu() {
        for act in 0..3 {
            let mut ps = ParamSet::new();
            let w = ps.register("w", crate::init::uniform(&mut rng(), 2, 3, 0.8));
            gradcheck(&mut ps, w, 1e-2, 2e-2, move |g| {
                let wv = g.param(w);
                let y = match act {
                    0 => g.tanh(wv),
                    1 => g.sigmoid(wv),
                    _ => {
                        // Shift away from the ReLU kink so finite differences
                        // are valid.
                        let s = g.add_scalar(wv, 2.0);
                        g.relu(s)
                    }
                };
                g.sum_all(y)
            });
        }
    }

    #[test]
    fn gradcheck_softmax() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", crate::init::uniform(&mut rng(), 2, 4, 1.0));
        // Weighted sum to give asymmetric upstream gradients.
        let weights = Matrix::from_fn(2, 4, |r, c| (r * 4 + c) as f32 * 0.3 + 0.1);
        gradcheck(&mut ps, w, 1e-2, 2e-2, move |g| {
            let wv = g.param(w);
            let s = g.softmax_rows(wv);
            let c = g.constant(weights.clone());
            let weighted = g.mul(s, c);
            g.sum_all(weighted)
        });
    }

    #[test]
    fn gradcheck_mul_sub_broadcast_scale() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", crate::init::uniform(&mut rng(), 3, 2, 0.9));
        let b = ps.register("b", crate::init::uniform(&mut rng(), 1, 2, 0.9));
        for target in [w, b] {
            gradcheck(&mut ps.clone(), target, 1e-2, 2e-2, move |g| {
                let wv = g.param(w);
                let bv = g.param(b);
                let y = g.add_row_broadcast(wv, bv);
                let z = g.mul(y, y);
                let s = g.scale(z, 0.5);
                let t = g.constant(Matrix::full(3, 2, 0.3));
                let d = g.sub(s, t);
                g.mean_all(d)
            });
        }
    }

    #[test]
    fn gradcheck_concat_and_slice() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", crate::init::uniform(&mut rng(), 2, 4, 0.8));
        gradcheck(&mut ps, w, 1e-2, 2e-2, |g| {
            let wv = g.param(w);
            let left = g.slice_cols(wv, 0, 2);
            let right = g.slice_cols(wv, 2, 4);
            let prod = g.mul(left, right);
            let stacked = g.concat_rows(&[prod, prod]);
            let wide = g.concat_cols(&[stacked, stacked]);
            let r = g.row(wide, 1);
            let t = g.transpose(r);
            g.sum_all(t)
        });
    }

    #[test]
    fn gradcheck_matmul_bt() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", crate::init::xavier_uniform(&mut rng(), 4, 3));
        let x = Matrix::from_fn(2, 3, |r, c| (r + c) as f32 * 0.1 + 0.05);
        // Check gradients through both operands: once with w as B, once as A.
        gradcheck(&mut ps.clone(), w, 1e-2, 2e-2, {
            let x = x.clone();
            move |g| {
                let xv = g.constant(x.clone());
                let wv = g.param(w);
                let y = g.matmul_bt(xv, wv);
                g.sum_all(y)
            }
        });
        gradcheck(&mut ps, w, 1e-2, 2e-2, move |g| {
            let xv = g.constant(x.clone());
            let wv = g.param(w);
            let y = g.matmul_bt(wv, xv);
            g.sum_all(y)
        });
    }

    #[test]
    fn matmul_bt_matches_transpose_then_matmul() {
        let ps = ParamSet::new();
        let mut g = Graph::new(&ps);
        let a = g.constant(Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32 * 0.5));
        let b = g.constant(Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.25));
        let direct = g.matmul_bt(a, b);
        let bt = g.transpose(b);
        let via_transpose = g.matmul(a, bt);
        assert_eq!(g.value(direct).data(), g.value(via_transpose).data());
    }

    #[test]
    fn gradcheck_fused_gates() {
        for gate in 0..2 {
            let mut ps = ParamSet::new();
            let w = ps.register("w", crate::init::uniform(&mut rng(), 3, 2, 0.8));
            let b = ps.register("b", crate::init::uniform(&mut rng(), 1, 2, 0.8));
            for target in [w, b] {
                gradcheck(&mut ps.clone(), target, 1e-2, 2e-2, move |g| {
                    let wv = g.param(w);
                    let bv = g.param(b);
                    let y = if gate == 0 {
                        g.sigmoid_gate(wv, bv)
                    } else {
                        g.tanh_gate(wv, bv)
                    };
                    // Square to give asymmetric upstream gradients.
                    let z = g.mul(y, y);
                    g.sum_all(z)
                });
            }
        }
    }

    #[test]
    fn fused_gates_match_broadcast_then_activation() {
        let mut ps = ParamSet::new();
        let b = ps.register("b", crate::init::uniform(&mut rng(), 1, 3, 0.5));
        let mut g = Graph::new(&ps);
        let x = g.constant(Matrix::from_fn(2, 3, |r, c| (r as f32 - c as f32) * 0.4));
        let bv = g.param(b);
        let fused_sig = g.sigmoid_gate(x, bv);
        let fused_tanh = g.tanh_gate(x, bv);
        let pre = g.add_row_broadcast(x, bv);
        let unfused_sig = g.sigmoid(pre);
        let unfused_tanh = g.tanh(pre);
        for i in 0..6 {
            assert_eq!(
                g.value(fused_sig).data()[i].to_bits(),
                g.value(unfused_sig).data()[i].to_bits()
            );
            assert_eq!(
                g.value(fused_tanh).data()[i].to_bits(),
                g.value(unfused_tanh).data()[i].to_bits()
            );
        }
    }

    #[test]
    fn gradcheck_mse_loss() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", crate::init::uniform(&mut rng(), 2, 3, 1.0));
        let target = Matrix::from_fn(2, 3, |r, c| (r as f32 - c as f32) * 0.2);
        gradcheck(&mut ps, w, 1e-2, 2e-2, move |g| {
            let wv = g.param(w);
            let y = g.tanh(wv);
            g.mse_loss(y, &target)
        });
    }

    #[test]
    fn gradcheck_kld_loss() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", crate::init::uniform(&mut rng(), 1, 5, 1.0));
        let mut p = Matrix::from_vec(1, 5, vec![1e-5, 1e-5, 1.0 - 4e-5, 1e-5, 1e-5]);
        // Make p a proper distribution (it already is by construction).
        let z: f32 = p.data().iter().sum();
        for v in p.data_mut() {
            *v /= z;
        }
        gradcheck(&mut ps, w, 1e-2, 2e-2, move |g| {
            let wv = g.param(w);
            let q = g.softmax_rows(wv);
            g.kld_loss(q, &p)
        });
    }

    #[test]
    fn gradcheck_one_minus() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", crate::init::uniform(&mut rng(), 1, 4, 0.9));
        gradcheck(&mut ps, w, 1e-2, 2e-2, |g| {
            let wv = g.param(w);
            let z = g.sigmoid(wv);
            let om = g.one_minus(z);
            let p = g.mul(om, om);
            g.sum_all(p)
        });
    }

    #[test]
    fn gradcheck_bce_with_logits() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", crate::init::uniform(&mut rng(), 1, 4, 1.5));
        let y = Matrix::from_vec(1, 4, vec![1.0, 0.0, 1.0, 0.5]);
        gradcheck(&mut ps, w, 1e-2, 2e-2, move |g| {
            let wv = g.param(w);
            g.bce_with_logits_loss(wv, &y)
        });
    }

    #[test]
    fn bce_matches_naive_formula_for_moderate_logits() {
        let ps = ParamSet::new();
        let mut g = Graph::new(&ps);
        let z = g.constant(Matrix::from_vec(1, 2, vec![0.5, -1.2]));
        let y = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        let loss = g.bce_with_logits_loss(z, &y);
        let p = |z: f32| 1.0 / (1.0 + (-z).exp());
        let expect = (-(p(0.5).ln()) + -((1.0 - p(-1.2)).ln())) / 2.0;
        assert!((g.scalar(loss) - expect).abs() < 1e-5);
    }

    #[test]
    fn bce_stable_for_huge_logits() {
        let ps = ParamSet::new();
        let mut g = Graph::new(&ps);
        let z = g.constant(Matrix::from_vec(1, 2, vec![500.0, -500.0]));
        let y = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        let loss = g.bce_with_logits_loss(z, &y);
        assert!(g.scalar(loss).is_finite());
        assert!(g.scalar(loss) < 1e-3);
    }

    #[test]
    fn kld_of_identical_distributions_is_zero() {
        let ps = ParamSet::new();
        let mut g = Graph::new(&ps);
        let logits = g.constant(Matrix::from_vec(1, 3, vec![0.3, -0.2, 1.0]));
        let q = g.softmax_rows(logits);
        let p = g.value(q).clone();
        let loss = g.kld_loss(q, &p);
        assert!(g.scalar(loss).abs() < 1e-6);
    }

    #[test]
    fn mse_of_identical_is_zero() {
        let ps = ParamSet::new();
        let mut g = Graph::new(&ps);
        let a = g.constant(Matrix::full(2, 2, 0.7));
        let loss = g.mse_loss(a, &Matrix::full(2, 2, 0.7));
        assert_eq!(g.scalar(loss), 0.0);
    }
}
