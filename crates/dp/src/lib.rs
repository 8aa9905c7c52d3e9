//! # dpbfl-dp
//!
//! Differential-privacy substrate: the accountant the paper delegates to
//! TensorFlow Privacy, rebuilt from scratch.
//!
//! * [`rdp`] — Rényi DP of the Sampled Gaussian Mechanism (Mironov–Talwar–
//!   Zhang), with both the integer-order closed form and the stable
//!   fractional-order series.
//! * [`conversion`] — RDP → `(ε, δ)` via the classic and the tighter
//!   Canonne–Kamath–Steinke bounds.
//! * [`accountant`] — composition over `T` steps, ε reporting, and the
//!   bisection search for the noise multiplier σ given a target ε (the paper's
//!   experimental pipeline: "use TensorFlow Privacy to search for noise
//!   multiplier given ε and δ").
//!
//! Validated against the paper's anchor point: the MNIST configuration
//! (q = 16/3000, T = 1500, δ = |D|⁻¹·¹) yields σ ≈ 0.79 at ε = 2, matching the
//! base noise multiplier the paper reports in Claim 6.

pub mod accountant;
pub mod conversion;
pub mod rdp;

pub use accountant::{
    achieved_epsilon, amplified_epsilon, paper_delta, EpsilonSchedule, RdpAccountant,
    MAX_NOISE_MULTIPLIER,
};
pub use conversion::{rdp_to_approx_dp, ConversionRule};
pub use rdp::{compose_rdp, default_orders, rdp_sampled_gaussian};
