//! # dpbfl-nn
//!
//! Neural-network substrate with **per-example gradients** — the capability
//! DP-SGD requires and the reason the paper's reference implementation needs
//! functorch-style machinery on top of PyTorch. Every layer has one forward
//! (`forward_batch`) and one backward (`backward_batch`) over packed
//! examples — GEMM-backed for dense layers, im2col-backed for convolutions —
//! and a single example is a batch of one. The worker's per-example
//! gradients ([`Sequential::example_gradient`]), the server's auxiliary
//! gradient and batched evaluation all run that one path; each example's
//! outputs are bit-identical whatever the batch size (guarded by
//! `tests/batched_parity.rs`).
//!
//! * [`layer`] — the [`layer::Layer`] trait and the closed
//!   [`layer::AnyLayer`] set (models are plain `Clone` values: every
//!   simulated worker owns a replica, like a real federated deployment).
//! * Concrete layers: [`linear`], [`conv`], [`norm`] (affine-free GroupNorm),
//!   [`activation`] (ELU), [`pool`], [`residual`].
//! * [`sequential`] — the model container with **flat parameter/gradient
//!   vectors**, the interface federated learning actually exchanges.
//! * [`loss`] — softmax cross-entropy.
//! * [`zoo`] — the paper's exact architectures (MNIST CNN `d = 21 802`,
//!   Fashion/USPS MLP `d = 25 450`, Colorectal-like residual CNN).
//! * [`metrics`] — argmax / accuracy.
//!
//! Every layer's backward pass is validated against central finite
//! differences in its unit tests.

pub mod activation;
pub mod conv;
pub mod init;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod metrics;
pub mod norm;
pub mod pool;
pub mod residual;
pub mod sequential;
pub mod zoo;

pub use layer::{AnyLayer, Layer};
pub use loss::CrossEntropyLoss;
pub use metrics::{accuracy, argmax};
pub use sequential::Sequential;
