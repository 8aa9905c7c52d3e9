//! Model zoo: the paper's exact network architectures (supp. A.1).
//!
//! | Dataset            | Architecture                   | `d` (paper) |
//! |--------------------|--------------------------------|-------------|
//! | MNIST              | 3×(Conv5→ELU→GN) + pool + MLP  | 21 802      |
//! | Fashion / USPS     | 784→32→10 MLP                  | 25 450      |
//! | Colorectal         | residual CNN                   | 33 736*     |
//!
//! *Our Colorectal-like network keeps the residual structure but operates on
//! 32×32×3 synthetic inputs (the real dataset's 150×150 histology images are
//! unavailable offline), giving a comparable-but-smaller `d`; the MNIST and
//! MLP parameter counts match the paper exactly and are asserted in tests.

use crate::activation::Elu;
use crate::conv::Conv2d;
use crate::layer::AnyLayer;
use crate::linear::Linear;
use crate::norm::GroupNorm;
use crate::pool::AdaptiveAvgPool2d;
use crate::residual::Residual;
use crate::sequential::Sequential;
use dpbfl_tensor::conv::ConvGeometry;
use rand::Rng;

/// The paper's MNIST CNN (Table 7): three 5×5 conv blocks with ELU and
/// affine-free GroupNorm, adaptive 4×4 pooling, then a 256→32→10 head.
/// Exactly `d = 21 802` parameters.
pub fn mnist_cnn<R: Rng + ?Sized>(rng: &mut R) -> Sequential {
    let g1 =
        ConvGeometry { in_channels: 1, out_channels: 16, in_h: 28, in_w: 28, kernel: 5, stride: 1 };
    let g2 = ConvGeometry {
        in_channels: 16,
        out_channels: 16,
        in_h: 24,
        in_w: 24,
        kernel: 5,
        stride: 1,
    };
    let g3 = ConvGeometry {
        in_channels: 16,
        out_channels: 16,
        in_h: 20,
        in_w: 20,
        kernel: 5,
        stride: 1,
    };
    Sequential::new(vec![
        Conv2d::new(rng, g1).into(),
        Elu::new(16 * 24 * 24).into(),
        GroupNorm::new(4, 16, 24, 24).into(),
        Conv2d::new(rng, g2).into(),
        Elu::new(16 * 20 * 20).into(),
        GroupNorm::new(4, 16, 20, 20).into(),
        Conv2d::new(rng, g3).into(),
        Elu::new(16 * 16 * 16).into(),
        GroupNorm::new(4, 16, 16, 16).into(),
        AdaptiveAvgPool2d::new(16, 16, 16, 4, 4).into(),
        Linear::new(rng, 256, 32).into(),
        Elu::new(32).into(),
        Linear::new(rng, 32, 10).into(),
    ])
}

/// The paper's Fashion / USPS network (Table 8): `flatten → 784→32 → ELU →
/// 32→10`. Exactly `d = 25 450` parameters.
pub fn mlp_784<R: Rng + ?Sized>(rng: &mut R) -> Sequential {
    Sequential::new(vec![
        Linear::new(rng, 784, 32).into(),
        Elu::new(32).into(),
        Linear::new(rng, 32, 10).into(),
    ])
}

/// Generic two-layer MLP classifier (`in → hidden → classes` with ELU),
/// used for reduced-scale experiments and examples.
pub fn mlp<R: Rng + ?Sized>(
    rng: &mut R,
    input: usize,
    hidden: usize,
    classes: usize,
) -> Sequential {
    Sequential::new(vec![
        Linear::new(rng, input, hidden).into(),
        Elu::new(hidden).into(),
        Linear::new(rng, hidden, classes).into(),
    ])
}

/// Colorectal-like residual CNN over 32×32×3 inputs, 8 classes: two 5×5 conv
/// blocks, a residual block of 1×1 convolutions, pooling, and a 256→64→8 head.
pub fn colorectal_cnn<R: Rng + ?Sized>(rng: &mut R) -> Sequential {
    let g1 =
        ConvGeometry { in_channels: 3, out_channels: 16, in_h: 32, in_w: 32, kernel: 5, stride: 1 };
    let g2 = ConvGeometry {
        in_channels: 16,
        out_channels: 16,
        in_h: 28,
        in_w: 28,
        kernel: 5,
        stride: 1,
    };
    let gr = ConvGeometry {
        in_channels: 16,
        out_channels: 16,
        in_h: 24,
        in_w: 24,
        kernel: 1,
        stride: 1,
    };
    let res_body: Vec<AnyLayer> = vec![
        Conv2d::new(rng, gr).into(),
        Elu::new(16 * 24 * 24).into(),
        Conv2d::new(rng, gr).into(),
    ];
    Sequential::new(vec![
        Conv2d::new(rng, g1).into(),
        Elu::new(16 * 28 * 28).into(),
        GroupNorm::new(4, 16, 28, 28).into(),
        Conv2d::new(rng, g2).into(),
        Elu::new(16 * 24 * 24).into(),
        GroupNorm::new(4, 16, 24, 24).into(),
        Residual::new(res_body).into(),
        AdaptiveAvgPool2d::new(16, 24, 24, 4, 4).into(),
        Linear::new(rng, 256, 64).into(),
        Elu::new(64).into(),
        Linear::new(rng, 64, 8).into(),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mnist_cnn_has_papers_parameter_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = mnist_cnn(&mut rng);
        assert_eq!(m.param_len(), 21_802, "paper supp. A.1 reports d = 21 802 for MNIST");
        assert_eq!(m.input_len(), 28 * 28);
        assert_eq!(m.output_len(), 10);
    }

    #[test]
    fn mlp_784_has_papers_parameter_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = mlp_784(&mut rng);
        assert_eq!(m.param_len(), 25_450, "paper supp. A.1 reports d = 25 450 for Fashion/USPS");
    }

    #[test]
    fn colorectal_cnn_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = colorectal_cnn(&mut rng);
        assert_eq!(m.input_len(), 3 * 32 * 32);
        assert_eq!(m.output_len(), 8);
        // 1216 + 6416 + 544 + 16448 + 520 = 25 144
        assert_eq!(m.param_len(), 25_144);
    }

    #[test]
    fn mnist_cnn_forward_backward_runs() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = mnist_cnn(&mut rng);
        let x = vec![0.5f32; 28 * 28];
        let logits = m.forward_batch(&x, 1);
        assert_eq!(logits.len(), 10);
        assert!(logits.iter().all(|v| v.is_finite()));
        let loss_fn = crate::loss::CrossEntropyLoss;
        let mut g = vec![0.0f32; m.param_len()];
        let loss = m.example_gradient(&loss_fn, &x, 3, &mut g);
        assert!(loss.is_finite() && loss > 0.0);
        let gnorm: f64 = g.iter().map(|&v| (v as f64).powi(2)).sum::<f64>().sqrt();
        assert!(gnorm > 0.0 && gnorm.is_finite());
    }

    #[test]
    fn colorectal_cnn_gradient_flows_through_residual() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = colorectal_cnn(&mut rng);
        let x = vec![0.1f32; 3 * 32 * 32];
        let loss_fn = crate::loss::CrossEntropyLoss;
        let mut g = vec![0.0f32; m.param_len()];
        let loss = m.example_gradient(&loss_fn, &x, 0, &mut g);
        assert!(loss.is_finite());
        let nonzero = g.iter().filter(|&&v| v != 0.0).count();
        assert!(nonzero > m.param_len() / 2, "gradient is mostly zero: {nonzero} nonzero");
    }
}
