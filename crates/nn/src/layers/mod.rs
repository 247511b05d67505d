//! Neural layers used by the LEAD architectures.
//!
//! Layers are plain structs of [`crate::ParamId`] handles; they register their
//! parameters in a [`crate::ParamSet`] at construction and replay their
//! computation onto a `Graph` per forward pass. On the tape, a
//! sequence is a slice of 1×d nodes, one per timestep, and each tape holds
//! one training sample. The `infer` methods evaluate the same layers
//! without a tape over a packed batch of sequences ([`crate::infer`]), and
//! the `train_forward`/`train_backward` pairs of [`StackedBiLstm`],
//! [`Lstm`] and [`SelfAttention`] (and [`Linear::train_backward`] /
//! [`Linear::train_backward_blocks`]) train them that way, with the tape's
//! gradients to the bit ([`crate::bptt`]).

mod attention;
mod bilstm;
mod gru;
mod linear;
mod lstm;

pub use attention::SelfAttention;
pub use bilstm::{BiLstm, StackedBiLstm};
pub use gru::Gru;
pub use linear::Linear;
pub use lstm::Lstm;
