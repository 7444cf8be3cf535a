//! Neural-network building blocks on top of the autograd engine: parameter
//! management, initializers, linear layers, fused time-major recurrent
//! layers, and an MLP.
//!
//! The recurrent layers ([`Lstm`], [`Gru`]) run on the fused ops
//! in [`crate::ops`] (`rnn_gate_preproject` + one fused cell node per step).
//! Their original step-unrolled implementations are preserved in
//! [`reference`](mod@reference) as the differential-testing oracle, mirroring how
//! `tmn-core`'s `kernels::reference` backs the optimized kernels.

mod gru;
mod init;
mod linear;
mod lstm;
mod mlp;
mod params;
pub mod reference;
mod rnn;

pub use gru::Gru;
pub use init::{orthogonal, uniform_xavier, zeros_init};
pub use linear::Linear;
pub use lstm::Lstm;
pub use mlp::Mlp;
pub use params::{ParamSet, RestoreError};
pub use rnn::{Recurrent, RnnKind};
