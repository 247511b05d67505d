//! Packed autoencoder training against the autodiff tape, bit for bit.
//!
//! `Autoencoder` trains on `Autoencoder::loss_and_gradients`: one packed
//! forward pass per operator (all stay segments at once, all move segments
//! at once, the phase-2 runs, and repeated-input decompressors over every
//! segment of a kind) and a hand-written backward pass through attention
//! pooling, the LSTMs, the FC layers and the MSE. This suite pins that the
//! loss and the gradient of every parameter have exactly the bits of
//! `Autoencoder::reconstruction_loss` and `Graph::backward`, for both
//! encoder kinds, with and without attention, at the paper's and the test
//! dimensions, on candidates of n = 2…14 stay points whose segments hold
//! 1…30 rows (one-row segments included: attention over one step and a
//! one-step decompressor), with perturbed weights, on every available SIMD
//! backend. The inputs carry exact zeros and `-0.0`. One scratch serves
//! every candidate, so a buffer left over from a larger candidate would
//! show. The validation loss (`Autoencoder::evaluate`) is pinned against
//! the tape's losses too.

mod support;

use lead_core::config::LeadConfig;
use lead_core::encoding::{AeScratch, Autoencoder, EncoderKind};
use lead_core::features::{CandidateFeatures, FEATURE_DIM};
use lead_nn::simd::{Backend, Kernel};
use lead_nn::{Gradients, Graph, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use support::{bits, forced, perturb};

/// Rows of segment `k` of a candidate with `n` stay points: 1…30, with
/// one-row segments among them.
fn seg_len(n: usize, k: usize) -> usize {
    if (n + k).is_multiple_of(5) {
        1
    } else {
        1 + (n * 7 + k * 13) % 30
    }
}

/// A deterministic candidate of `n` stay points: pseudo-random features
/// with exact `+0.0` and `-0.0` planted in every segment.
fn candidate(n: usize) -> CandidateFeatures {
    let seg = |k: usize| {
        Matrix::from_fn(seg_len(n, k), FEATURE_DIM, |r, c| {
            match (r * FEATURE_DIM + c + k) % 9 {
                0 => 0.0,
                4 => -0.0,
                _ => ((n * 7919 + k * 131 + r * 31 + c) as f32 * 0.37).sin() * 0.9,
            }
        })
    };
    CandidateFeatures {
        sp_seqs: (0..n).map(|k| seg(2 * k)).collect(),
        mp_seqs: (0..n - 1).map(|k| seg(2 * k + 1)).collect(),
    }
}

/// The tape's loss and gradients for one candidate.
fn tape(ae: &Autoencoder, input: &CandidateFeatures) -> (f32, Gradients) {
    let mut g = Graph::new(ae.params());
    let loss = ae.reconstruction_loss(&mut g, input);
    (g.scalar(loss), g.backward(loss))
}

fn assert_same(got: &(f32, Gradients), want: &(f32, Gradients), ae: &Autoencoder, what: &str) {
    assert_eq!(got.0.to_bits(), want.0.to_bits(), "loss, {what}");
    for ((id, g), (_, w)) in got.1.iter().zip(want.1.iter()) {
        assert_eq!(
            bits(g.data()),
            bits(w.data()),
            "gradient of `{}`, {what}",
            ae.params().name(id)
        );
    }
}

fn check_dims(cfg: &LeadConfig, dims: &str) {
    let mut rng = StdRng::seed_from_u64(53);
    let candidates: Vec<CandidateFeatures> = (2..=14).map(candidate).collect();
    let mut scratch = AeScratch::new();
    for (salt, kind) in [EncoderKind::Hierarchical, EncoderKind::Flat]
        .into_iter()
        .enumerate()
    {
        for attention in [true, false] {
            let mut ae = Autoencoder::new(cfg, kind, attention, &mut rng);
            perturb(ae.params_mut(), 2 * salt + usize::from(attention));
            let mut tape_total = 0.0f64;
            for input in &candidates {
                let n = input.sp_seqs.len();
                let want = tape(&ae, input);
                tape_total += f64::from(want.0);
                for backend in Backend::available() {
                    let got = forced(backend, || ae.loss_and_gradients(input, &mut scratch));
                    let what = format!(
                        "{dims} dims, {kind:?}, attention = {attention}, n = {n}, `{}`",
                        backend.name()
                    );
                    assert_same(&got, &want, &ae, &what);
                }
            }
            // The validation loss: the mean of the same per-candidate
            // losses, summed in f64 in candidate order.
            let want = lead_nn::num::narrow_f64(tape_total / candidates.len() as f64);
            for threads in [1, 2] {
                assert_eq!(
                    ae.evaluate_par(&candidates, threads).to_bits(),
                    want.to_bits(),
                    "validation loss, {dims} dims, {kind:?}, attention = {attention}, {threads} threads"
                );
            }
        }
    }
}

#[test]
fn packed_gradients_match_the_tape_at_test_dims() {
    check_dims(&LeadConfig::fast_test(), "fast_test");
}

#[test]
fn packed_gradients_match_the_tape_at_paper_dims() {
    check_dims(&LeadConfig::paper(), "paper");
}
