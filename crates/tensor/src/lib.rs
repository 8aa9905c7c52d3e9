//! # dpbfl-tensor
//!
//! Linear-algebra substrate for the `dpbfl` federated-learning stack. The
//! paper's reference implementation runs on PyTorch; this crate provides the
//! minimal-but-complete numeric kernel set the reproduction needs, built from
//! scratch on flat, row-major `f32` slices (the caller passes the dimensions):
//!
//! * [`vecops`] — flat-slice vector operations (norms, dot products, axpy,
//!   normalization, cosine similarity). These are the hot path of the federated
//!   protocol itself, where every model/gradient crossing the network is a flat
//!   `d`-dimensional vector.
//! * [`matmul`] — the three GEMMs of a dense layer's batched forward and
//!   backward pass, over one interleaved dot kernel ([`matmul::matvec`]).
//! * [`conv`] — 2-D valid convolution: im2col + GEMM forward and both
//!   backward passes.
//! * [`pool`] — adaptive average pooling, forward and backward.
//! * [`quant`] — lossy `i16` linear quantization for retained uploads (the
//!   streaming defense's extreme-tail memory mode).
//!
//! Gradients and activations are `f32` (matching the PyTorch defaults used by
//! the paper); accumulations that are numerically delicate (norms, dot products
//! over ~25 000-element gradient vectors) run in `f64` internally.

pub mod conv;
pub mod matmul;
pub mod pool;
pub mod quant;
pub mod vecops;
