//! From-scratch neural-network substrate for the LEAD framework.
//!
//! The LEAD paper trains three neural systems — a hierarchical LSTM
//! autoencoder with self-attention, two stacked-BiLSTM detectors, and
//! GRU/LSTM baselines (plus the `LEAD-NoGro` MLP ablation). No
//! deep-learning dependency is available (or needed: all models are tiny,
//! hidden sizes 32–128). Every model trains one way: packed forward passes
//! over all of a sample's sequences ([`infer`]) and their hand-written
//! backward halves ([`bptt`]), with gradients accumulated over `B` samples.
//! An eager autodiff tape is the oracle those passes are held to, bit for
//! bit; it compiles only under `cfg(test)` or the `reference` feature, so
//! no production path can build one. This crate implements the full stack:
//!
//! - [`matrix`] — dense row-major `f32` matrices;
//! - [`infer`] — forward-only evaluation over packed batches of sequences;
//! - [`bptt`] — the packed passes' backward half: backpropagation through
//!   time with the tape's gradients to the bit;
//! - [`loss`] — the MSE, KLD and sigmoid BCE losses and their gradients;
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
//! - `tape` (`reference` only) — eager reverse-mode autodiff (`Graph`,
//!   `Var`), the parity oracle;
//! - `testing` (`reference` only) — finite-difference gradient checking
//!   on the tape.
//!
//! ```
//! use lead_nn::bptt::TrainScratch;
//! use lead_nn::layers::Linear;
//! use lead_nn::optim::Adam;
//! use lead_nn::{loss, ParamSet};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // Fit a 2 → 1 layer to a target with a few Adam steps: the packed
//! // forward, the loss gradient, the layer's backward.
//! let mut params = ParamSet::new();
//! let layer = Linear::new(&mut params, &mut StdRng::seed_from_u64(1), "fc", 2, 1);
//! let (x, target) = ([1.0, 2.0], [3.0]);
//! let mut adam = Adam::new(&params, 0.1);
//! let mut scratch = TrainScratch::new();
//! let (mut y, mut dy, mut dx) = (Vec::new(), Vec::new(), Vec::new());
//! for _ in 0..200 {
//!     layer.infer(&params, &x, &mut y);
//!     loss::mse_grad(1.0, &y, &target, &mut dy);
//!     let mut grads = params.zero_gradients();
//!     layer.train_backward(&params, &x, &dy, &mut dx, &mut grads, &mut scratch);
//!     adam.step(&mut params, &grads);
//! }
//! layer.infer(&params, &x, &mut y);
//! assert!(loss::mse(&y, &target) < 1e-3);
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
#[cfg(any(test, feature = "reference"))]
pub mod tape;
#[cfg(any(test, feature = "reference"))]
pub mod testing;
pub mod train;

pub use lead_simd as simd;
pub use matrix::Matrix;
pub use params::{Gradients, ParamId, ParamSet};
#[cfg(any(test, feature = "reference"))]
pub use tape::{Graph, Var};
