//! The layer abstraction: forward, backward, and flat parameter access.
//!
//! Every layer has one forward and one backward, both over a batch of
//! examples packed back to back. DP-SGD's **per-example** gradients (the
//! whole protocol rests on them) are a batch of one; the server's auxiliary
//! gradient and evaluation are larger batches of the same code. Layers are
//! plain `Clone` values — every simulated worker owns its own model replica,
//! exactly like a real federated deployment.

use crate::activation::Elu;
use crate::conv::Conv2d;
use crate::linear::Linear;
use crate::norm::GroupNorm;
use crate::pool::AdaptiveAvgPool2d;
use crate::residual::Residual;

/// A differentiable layer over batches of packed examples.
pub trait Layer {
    /// Forward over `batch` examples packed back to back in `input`
    /// (`batch · input_len()` values); returns `batch · output_len()` values
    /// and caches what [`Layer::backward_batch`] needs.
    ///
    /// Contract: each example's output is **bit-identical** whatever the
    /// batch size — every output scalar is the same `f32`/`f64` accumulation
    /// in the same order, just over batch-contiguous buffers. This is what
    /// lets a worker's per-example gradient (a batch of one), batched
    /// evaluation and the server's gradient ride the determinism contract.
    fn forward_batch(&mut self, input: &[f32], batch: usize) -> Vec<f32>;

    /// Backward matching the most recent [`Layer::forward_batch`]:
    /// accumulates parameter gradients (each gradient scalar receives its
    /// per-example contributions in ascending example order — bit-identical
    /// to one batch-of-one backward per example) and returns the packed
    /// per-example input gradients.
    fn backward_batch(&mut self, grad_output: &[f32], batch: usize) -> Vec<f32>;

    /// Number of trainable parameters.
    fn param_len(&self) -> usize;

    /// Length of the input this layer expects.
    fn input_len(&self) -> usize;

    /// Length of the output this layer produces.
    fn output_len(&self) -> usize;

    /// Copies parameters into `out` (must be `param_len()` long).
    fn write_params(&self, out: &mut [f32]);

    /// Loads parameters from `src` (must be `param_len()` long).
    fn read_params(&mut self, src: &[f32]);

    /// Copies accumulated gradients into `out` (must be `param_len()` long).
    fn write_grads(&self, out: &mut [f32]);

    /// Zeroes the accumulated parameter gradients.
    fn zero_grads(&mut self);
}

/// Closed set of layer kinds, so models are `Clone` + `Send` without dynamic
/// dispatch. Every variant delegates to the concrete layer's implementation.
#[derive(Debug, Clone)]
pub enum AnyLayer {
    /// Fully-connected layer.
    Linear(Linear),
    /// Valid 2-D convolution.
    Conv2d(Conv2d),
    /// Group normalization without affine parameters.
    GroupNorm(GroupNorm),
    /// Exponential linear unit.
    Elu(Elu),
    /// Adaptive average pooling.
    Pool(AdaptiveAvgPool2d),
    /// Residual block `y = x + body(x)`.
    Residual(Residual),
}

macro_rules! delegate {
    ($self:ident, $m:ident $(, $arg:expr)*) => {
        match $self {
            AnyLayer::Linear(l) => l.$m($($arg),*),
            AnyLayer::Conv2d(l) => l.$m($($arg),*),
            AnyLayer::GroupNorm(l) => l.$m($($arg),*),
            AnyLayer::Elu(l) => l.$m($($arg),*),
            AnyLayer::Pool(l) => l.$m($($arg),*),
            AnyLayer::Residual(l) => l.$m($($arg),*),
        }
    };
}

impl Layer for AnyLayer {
    fn forward_batch(&mut self, input: &[f32], batch: usize) -> Vec<f32> {
        delegate!(self, forward_batch, input, batch)
    }
    fn backward_batch(&mut self, grad_output: &[f32], batch: usize) -> Vec<f32> {
        delegate!(self, backward_batch, grad_output, batch)
    }
    fn param_len(&self) -> usize {
        delegate!(self, param_len)
    }
    fn input_len(&self) -> usize {
        delegate!(self, input_len)
    }
    fn output_len(&self) -> usize {
        delegate!(self, output_len)
    }
    fn write_params(&self, out: &mut [f32]) {
        delegate!(self, write_params, out)
    }
    fn read_params(&mut self, src: &[f32]) {
        delegate!(self, read_params, src)
    }
    fn write_grads(&self, out: &mut [f32]) {
        delegate!(self, write_grads, out)
    }
    fn zero_grads(&mut self) {
        delegate!(self, zero_grads)
    }
}

impl From<Linear> for AnyLayer {
    fn from(l: Linear) -> Self {
        AnyLayer::Linear(l)
    }
}
impl From<Conv2d> for AnyLayer {
    fn from(l: Conv2d) -> Self {
        AnyLayer::Conv2d(l)
    }
}
impl From<GroupNorm> for AnyLayer {
    fn from(l: GroupNorm) -> Self {
        AnyLayer::GroupNorm(l)
    }
}
impl From<Elu> for AnyLayer {
    fn from(l: Elu) -> Self {
        AnyLayer::Elu(l)
    }
}
impl From<AdaptiveAvgPool2d> for AnyLayer {
    fn from(l: AdaptiveAvgPool2d) -> Self {
        AnyLayer::Pool(l)
    }
}
impl From<Residual> for AnyLayer {
    fn from(l: Residual) -> Self {
        AnyLayer::Residual(l)
    }
}
