//! The training losses, shared by the tape and the tape-free training path:
//! the autoencoder's MSE and the detectors' KLD.
//!
//! [`crate::Graph::mse_loss`], [`crate::Graph::kld_loss`] and their backward
//! passes compute exactly these formulas, so a loss or gradient computed
//! here is `to_bits`-equal to the tape's.

/// The mean squared error `Σ (y − t)² / n` of `y` against the constant
/// target `t` (the paper's Equation (8)): the squares summed sequentially
/// in index order, then divided by the element count.
pub fn mse(y: &[f32], target: &[f32]) -> f32 {
    assert_eq!(y.len(), target.len(), "mse length mismatch");
    let mut v = 0.0;
    for (&yi, &ti) in y.iter().zip(target) {
        let d = yi - ti;
        v += d * d;
    }
    v / crate::num::exact_usize_f32(y.len())
}

/// The gradient of [`mse`] with respect to `y`, scaled by the upstream
/// gradient `gs`: `(gs · 2 / n) · (y − t)` per element, written to `dy`.
pub fn mse_grad(gs: f32, y: &[f32], target: &[f32], dy: &mut Vec<f32>) {
    assert_eq!(y.len(), target.len(), "mse length mismatch");
    let scale = gs * 2.0 / crate::num::exact_usize_f32(y.len());
    dy.clear();
    dy.extend(y.iter().zip(target).map(|(&yi, &ti)| scale * (yi - ti)));
}

/// The KL divergence `Σ p·ln(p/q)` of `q` from the constant distribution
/// `p` (the paper's Equations (11)–(12)), summed in index order. `q` must be
/// strictly positive, which softmax outputs guarantee.
pub fn kld(p: &[f32], q: &[f32]) -> f32 {
    assert_eq!(p.len(), q.len(), "kld length mismatch");
    let mut v = 0.0;
    for (&pi, &qi) in p.iter().zip(q) {
        debug_assert!(pi > 0.0 && qi > 0.0, "KLD requires positive p and q");
        v += pi * (pi / qi).ln();
    }
    v
}

/// The gradient of [`kld`] with respect to `q`, for one element, scaled by
/// the upstream gradient `gs`.
pub(crate) fn kld_grad(gs: f32, pi: f32, qi: f32) -> f32 {
    -gs * pi / qi
}

/// The backward pass of a softmax over one row: given the row's output `y`
/// and the gradient `g` of the output, writes the gradient of the input to
/// `out`.
pub(crate) fn softmax_grad(g: &[f32], y: &[f32], out: &mut [f32]) {
    let dot: f32 = g.iter().zip(y).map(|(&gi, &yi)| gi * yi).sum();
    for ((o, &gi), &yi) in out.iter_mut().zip(g).zip(y) {
        *o = yi * (gi - dot);
    }
}

/// The gradient of `kld(p, softmax(z))` with respect to the logits `z`,
/// given `q = softmax(z)`: the tape's KLD backward from a unit loss
/// gradient, then its softmax backward, written to `dz`.
pub fn kld_softmax_grad(p: &[f32], q: &[f32], dz: &mut Vec<f32>) {
    assert_eq!(p.len(), q.len(), "kld length mismatch");
    let dq: Vec<f32> = p
        .iter()
        .zip(q)
        .map(|(&pi, &qi)| kld_grad(1.0, pi, qi))
        .collect();
    dz.clear();
    dz.resize(q.len(), 0.0);
    softmax_grad(&dq, q, dz);
}
