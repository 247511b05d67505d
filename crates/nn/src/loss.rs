//! The training losses: the autoencoder's MSE, the detectors' KLD, and the
//! binary cross-entropy of the `LEAD-NoGro` MLP and the SP-RNN baselines.
//!
//! The tape's `mse_loss`, `kld_loss` and `bce_with_logits_loss` and their
//! backward passes call exactly these functions, so a loss or gradient
//! computed here is `to_bits`-equal to the tape's.

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

/// The mean numerically stable binary cross-entropy of logits `z` against
/// targets `y ∈ [0, 1]`: `Σ (max(z, 0) − z·y + ln(1 + e^{−|z|})) / n`,
/// summed in index order. The `ln` is the platform's `f32::ln`.
pub fn bce_with_logits(z: &[f32], y: &[f32]) -> f32 {
    assert_eq!(z.len(), y.len(), "bce length mismatch");
    let mut v = 0.0;
    for (&zi, &yi) in z.iter().zip(y) {
        debug_assert!((0.0..=1.0).contains(&yi), "bce target outside [0,1]");
        v += zi.max(0.0) - zi * yi + (1.0 + crate::simd::exp(-zi.abs())).ln();
    }
    v / crate::num::exact_usize_f32(y.len())
}

/// The gradient of [`bce_with_logits`] with respect to `z`, scaled by the
/// upstream gradient `gs`: `(gs / n) · (sigmoid(z) − y)` per element,
/// written to `dz`.
pub fn bce_with_logits_grad(gs: f32, z: &[f32], y: &[f32], dz: &mut Vec<f32>) {
    assert_eq!(z.len(), y.len(), "bce length mismatch");
    let scale = gs / crate::num::exact_usize_f32(y.len());
    dz.clear();
    dz.extend(
        z.iter()
            .zip(y)
            .map(|(&zi, &yi)| scale * (crate::simd::sigmoid(zi) - yi)),
    );
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
