//! Candidate trajectory encoding (Section IV): compression/decompression
//! operators and the hierarchical autoencoder.

mod autoencoder;
mod operator;

pub(crate) use autoencoder::{end_major_index, CandidateEncoder};
pub use autoencoder::{AeScratch, Autoencoder, EncoderKind};
pub use operator::{CompressionOperator, DecompressionOperator};
