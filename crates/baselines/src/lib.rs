//! The stay-point baselines of the LEAD paper (Section VI-A):
//!
//! - [`SpR`] — a rule-based classifier: stay points are matched against a
//!   whitelist of historical loading/unloading locations within 500 m;
//! - [`SpRnn`] — GRU- or LSTM-based binary classifiers (128 hidden units)
//!   over each stay point's feature sequence;
//!
//! all three assemble the loaded trajectory with the same greedy strategy
//! ([`greedy_assemble`]): the earliest flagged stay point becomes the loading
//! stay, the latest the unloading stay; with fewer than two flags the
//! *default* loaded trajectory (first stay → last stay) is returned — the
//! invalid-detection fallback the paper describes.

pub mod greedy;
pub mod sp_r;
pub mod sp_rnn;
pub mod whitelist;

pub use greedy::{greedy_assemble, SpDetection};
pub use sp_r::SpR;
pub use sp_rnn::{RnnKind, SpRnn, SpRnnConfig};
pub use whitelist::Whitelist;
