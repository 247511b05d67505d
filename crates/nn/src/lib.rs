//! From-scratch neural-network substrate for the LEAD framework.
//!
//! The LEAD paper trains three neural systems — a hierarchical LSTM
//! autoencoder with self-attention, two stacked-BiLSTM detectors, and
//! GRU/LSTM baselines. No deep-learning dependency is available (or needed:
//! all models are tiny, hidden sizes 32–128). Training accumulates
//! gradients over `B` samples, each from a tape or, for the stacked-BiLSTM
//! detectors and the autoencoder, from packed passes over all of a
//! sample's sequences; inference packs many variable-length sequences into
//! one batch. This crate implements the full stack:
//!
//! - [`matrix`] — dense row-major `f32` matrices with the kernels the tape needs;
//! - [`tape`] — eager reverse-mode autodiff ([`Graph`], [`Var`]);
//! - [`infer`] — forward-only evaluation over packed batches of sequences,
//!   bit-identical to the tape;
//! - [`bptt`] — the packed passes' backward half: backpropagation through
//!   time with the tape's gradients to the bit;
//! - [`loss`] — the MSE and KLD losses and their gradients, shared by the
//!   tape and [`bptt`];
//! - [`params`] — parameter arena ([`ParamSet`]) and gradient buffers;
//! - [`init`] — Xavier/uniform initialisation;
//! - [`layers`] — `Linear`, `Lstm`, `Gru`, `BiLstm`, `StackedBiLstm`,
//!   `SelfAttention`, mirroring the operators of the paper;
//! - [`optim`] — Adam(W) (the paper's optimiser) and SGD;
//! - [`io`] — lossless text serialisation of trained parameters;
//! - [`par`] — scoped-thread data-parallel map with a determinism contract;
//! - [`simd`] — runtime-dispatched SIMD kernels with a bit-identity
//!   contract against a safe scalar reference (the `lead-simd` crate,
//!   re-exported here);
//! - [`train`] — batch-accumulation loop helpers and early stopping;
//! - [`testing`] — finite-difference gradient checking.
//!
//! ```
//! use lead_nn::{Graph, Matrix, ParamSet};
//! use lead_nn::optim::Adam;
//!
//! // Fit y = x·W to a target with a few Adam steps.
//! let mut params = ParamSet::new();
//! let w = params.register("w", Matrix::zeros(2, 1));
//! let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
//! let target = Matrix::from_vec(1, 1, vec![3.0]);
//! let mut adam = Adam::new(&params, 0.1);
//! for _ in 0..200 {
//!     let mut g = Graph::new(&params);
//!     let xv = g.constant(x.clone());
//!     let wv = g.param(w);
//!     let y = g.matmul(xv, wv);
//!     let loss = g.mse_loss(y, &target);
//!     let grads = g.backward(loss);
//!     adam.step(&mut params, &grads);
//! }
//! let fit = x.matmul(params.value(w));
//! assert!((fit.at(0, 0) - 3.0).abs() < 0.05);
//! ```

pub mod bptt;
pub mod infer;
pub mod init;
pub mod io;
pub mod layers;
pub mod loss;
pub mod matrix;
pub mod num;
pub mod optim;
#[expect(clippy::disallowed_methods, reason = "R3: sanctioned thread home")]
pub mod par;
pub mod params;
pub mod tape;
pub mod testing;
pub mod train;

pub use lead_simd as simd;
pub use matrix::Matrix;
pub use params::{Gradients, ParamId, ParamSet};
pub use tape::{Graph, Var};
