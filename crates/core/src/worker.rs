//! The honest worker's local step (paper Algorithm 1, lines 4–12).
//!
//! Per iteration, an honest worker:
//! 1. loads the broadcast model `w^{t−1}`;
//! 2. samples a size-`b_c` mini-batch;
//! 3. computes a **per-example** gradient for each batch position and blends
//!    it with that position's momentum, `φ[j] ← (1−β)·g_j + β·φ[j]`;
//! 4. **normalizes** each blended vector to unit ℓ2 norm (the sensitivity
//!    bound that replaces DP-SGD's clipping), sums them, adds `N(0, σ²I)`,
//!    and scales by `1/b_c`;
//! 5. uploads the result and resets the momentum list to the noisy upload
//!    (line 11 as written; see [`MomentumReset`]).
//!
//! Line 11 leaves all `b_c` entries of `φ` equal to the upload, so under the
//! default [`MomentumReset::PaperReset`] the list is stored as that **one**
//! vector: state is O(d), each example costs its gradient plus two passes
//! over `d` (blend-and-norm, accumulate), and the reset is one copy. A
//! `b_c × d` slot matrix exists only under the [`MomentumReset::Keep`]
//! ablation, whose slots really do diverge. Both run the same arithmetic in
//! the same order as the slot-matrix loop this module used to hold (kept in
//! the test module as the oracle).
//!
//! A Byzantine *label-flipping* worker is exactly this worker run on poisoned
//! data — it follows the protocol, so its uploads pass the first-stage tests
//! and must be caught by the second stage.

use crate::config::{DpSgdConfig, MomentumReset};
use dpbfl_data::{sample_batch, Dataset};
use dpbfl_nn::{CrossEntropyLoss, Sequential};
use dpbfl_stats::normal::fill_standard_normal;
use dpbfl_tensor::vecops;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A worker running the paper's DP protocol on its local dataset.
#[derive(Debug, Clone)]
pub struct DpWorker {
    model: Sequential,
    data: Dataset,
    cfg: DpSgdConfig,
    momentum: Momentum,
    rng: StdRng,
    loss_fn: CrossEntropyLoss,
    /// Scratch per-example gradient buffer; under [`Momentum::Shared`] the
    /// blend overwrites it in place.
    grad_buf: Vec<f32>,
    /// Scratch f64 accumulator for the normalized-momentum sum, reused
    /// across iterations so the rayon hot loop allocates only the returned
    /// upload.
    sum_buf: Vec<f64>,
}

/// The momentum list `φ` between two local steps, selected by
/// [`DpSgdConfig::momentum_reset`].
#[derive(Debug, Clone)]
enum Momentum {
    /// [`MomentumReset::PaperReset`]: line 11 made every entry the last
    /// upload (zeros before the first), so one `d`-vector stands for all.
    Shared(Vec<f32>),
    /// [`MomentumReset::Keep`]: one `d`-dimensional slot per batch position.
    Slots(Vec<Vec<f32>>),
}

/// `dst[i] ← blend(dst[i], src[i])`; returns `‖dst‖₂` accumulated in `f64`
/// in index order — the same additions, in the same order, as
/// `vecops::l2_norm` over the result, fused into the pass that produces it.
///
/// The loop runs over fixed-width chunks so the blend and the squares
/// vectorise; only the ordered adds of the norm stay a scalar chain.
fn blend_l2_norm(dst: &mut [f32], src: &[f32], blend: impl Fn(f32, f32) -> f32) -> f64 {
    const LANES: usize = 16;
    debug_assert_eq!(dst.len(), src.len());
    let mut norm_sq = 0.0f64;
    let mut dst_chunks = dst.chunks_exact_mut(LANES);
    let mut src_chunks = src.chunks_exact(LANES);
    for (d, s) in (&mut dst_chunks).zip(&mut src_chunks) {
        let mut sq = [0.0f64; LANES];
        for ((d, &s), sq) in d.iter_mut().zip(s).zip(&mut sq) {
            *d = blend(*d, s);
            *sq = (*d as f64) * (*d as f64);
        }
        for sq in sq {
            norm_sq += sq;
        }
    }
    for (d, &s) in dst_chunks.into_remainder().iter_mut().zip(src_chunks.remainder()) {
        *d = blend(*d, s);
        norm_sq += (*d as f64) * (*d as f64);
    }
    norm_sq.sqrt()
}

/// The simulation fans workers out with rayon, which requires `Send`; this
/// fails to compile if a future field (an `Rc`, a raw pointer) breaks that.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<DpWorker>();
};

impl DpWorker {
    /// Builds a worker over `data` with its own deterministic RNG stream.
    pub fn new(model: Sequential, data: Dataset, cfg: DpSgdConfig, seed: u64) -> Self {
        assert!(
            data.len() >= cfg.batch_size,
            "worker dataset ({} examples) smaller than batch size {}",
            data.len(),
            cfg.batch_size
        );
        let d = model.param_len();
        let momentum = match cfg.momentum_reset {
            MomentumReset::PaperReset => Momentum::Shared(vec![0.0f32; d]),
            MomentumReset::Keep => Momentum::Slots(vec![vec![0.0f32; d]; cfg.batch_size]),
        };
        DpWorker {
            model,
            data,
            momentum,
            rng: StdRng::seed_from_u64(seed),
            cfg,
            loss_fn: CrossEntropyLoss,
            grad_buf: vec![0.0f32; d],
            sum_buf: vec![0.0f64; d],
        }
    }

    /// Model dimension `d`.
    pub fn param_len(&self) -> usize {
        self.model.param_len()
    }

    /// The local dataset (used by omniscient attackers in tests).
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// One local iteration: receives the broadcast parameters, returns the
    /// privatized upload `g_i^t` (Algorithm 1 lines 5–11).
    pub fn local_step(&mut self, params: &[f32]) -> Vec<f32> {
        let d = params.len();
        assert_eq!(d, self.model.param_len(), "broadcast parameter length mismatch");
        self.model.set_params(params);
        let b_c = self.cfg.batch_size;
        let batch = sample_batch(&mut self.rng, self.data.len(), b_c);

        // Lines 6–10, one example at a time: per-example gradient, momentum
        // blend, and the normalized result added to the sum.
        let beta = self.cfg.momentum;
        self.sum_buf.fill(0.0);
        for (j, &idx) in batch.iter().enumerate() {
            let x = self.data.example(idx);
            let y = self.data.label(idx);
            self.model.example_gradient(&self.loss_fn, x, y, &mut self.grad_buf);
            let (blended, norm): (&[f32], f64) = match &mut self.momentum {
                Momentum::Shared(prev) => {
                    let norm =
                        blend_l2_norm(&mut self.grad_buf, prev, |g, m| (1.0 - beta) * g + beta * m);
                    (&self.grad_buf, norm)
                }
                Momentum::Slots(slots) => {
                    let slot = &mut slots[j];
                    let norm =
                        blend_l2_norm(slot, &self.grad_buf, |m, g| (1.0 - beta) * g + beta * m);
                    (slot, norm)
                }
            };
            if norm > 0.0 {
                let inv = 1.0 / norm;
                for (u, &m) in self.sum_buf.iter_mut().zip(blended) {
                    *u += m as f64 * inv;
                }
            }
        }

        // Line 10, continued: Gaussian noise, scaled by 1/b_c.
        let sigma = self.cfg.noise_multiplier;
        let inv_bc = 1.0 / b_c as f64;
        let mut out = vec![0.0f32; d];
        add_noise(&mut self.rng, &self.sum_buf, &mut out, |u, z| ((u + z * sigma) * inv_bc) as f32);

        // Line 11: φ[j] ← g_i^t for every j, i.e. the one shared vector.
        if let Momentum::Shared(prev) = &mut self.momentum {
            prev.copy_from_slice(&out);
        }
        out
    }

    /// A clipping-DP-SGD upload (vanilla DP-SGD, the \[30\]-style baseline):
    /// per-example gradients clipped to `clip_norm`, summed, noised with
    /// `N(0, (σ·C)² I)`, averaged over the batch. No momentum.
    pub fn clipped_dp_step(&mut self, params: &[f32], clip_norm: f64) -> Vec<f32> {
        self.model.set_params(params);
        let d = self.model.param_len();
        let b_c = self.cfg.batch_size;
        let batch = sample_batch(&mut self.rng, self.data.len(), b_c);
        self.sum_buf.fill(0.0);
        for &idx in &batch {
            let x = self.data.example(idx);
            let y = self.data.label(idx);
            self.model.example_gradient(&self.loss_fn, x, y, &mut self.grad_buf);
            vecops::clip(&mut self.grad_buf, clip_norm);
            for (s, &g) in self.sum_buf.iter_mut().zip(&self.grad_buf) {
                *s += g as f64;
            }
        }
        let noise_std = self.cfg.noise_multiplier * clip_norm;
        let inv_bc = 1.0 / b_c as f64;
        let mut out = vec![0.0f32; d];
        add_noise(&mut self.rng, &self.sum_buf, &mut out, |s, z| {
            ((s + z * noise_std) * inv_bc) as f32
        });
        out
    }
}

/// `out[i] ← finish(sum[i], z_i)` with `z_i` the `i`-th standard normal of
/// `rng`'s stream: the draws come a fixed stack block at a time from
/// [`fill_standard_normal`], so no `d`-length noise buffer is kept.
fn add_noise(rng: &mut StdRng, sum: &[f64], out: &mut [f32], finish: impl Fn(f64, f64) -> f32) {
    const NOISE_BLOCK: usize = 256;
    let mut z = [0.0f64; NOISE_BLOCK];
    for (out, sum) in out.chunks_mut(NOISE_BLOCK).zip(sum.chunks(NOISE_BLOCK)) {
        let z = &mut z[..out.len()];
        fill_standard_normal(rng, z);
        for ((o, &s), &z) in out.iter_mut().zip(sum).zip(z.iter()) {
            *o = finish(s, z);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbfl_data::SyntheticSpec;
    use dpbfl_nn::zoo;
    use rand::Rng;

    fn worker(sigma: f64, seed: u64) -> DpWorker {
        let mut rng = StdRng::seed_from_u64(0);
        let model = zoo::mlp(&mut rng, 784, 8, 10);
        let data = SyntheticSpec::mnist_like().generate(64, 5);
        let cfg = DpSgdConfig { noise_multiplier: sigma, ..Default::default() };
        DpWorker::new(model, data, cfg, seed)
    }

    #[test]
    fn upload_norm_is_noise_dominated() {
        // With σ = 0.79 and d ≈ 6 k, ‖upload‖² should sit near σ²d/b_c²
        // (the basis of the first-stage norm test).
        let mut w = worker(0.79, 1);
        let params = vec![0.0f32; w.param_len()];
        let up = w.local_step(&params);
        let d = up.len() as f64;
        let sigma_eff = 0.79 / 16.0;
        let norm_sq = vecops::l2_norm_sq(&up);
        let expected = sigma_eff * sigma_eff * d;
        // Signal contributes at most (b_c/b_c)² = 1 plus cross terms.
        assert!(
            (norm_sq - expected).abs() < 6.0 * sigma_eff * sigma_eff * (2.0 * d).sqrt() + 1.5,
            "norm_sq={norm_sq} expected≈{expected}"
        );
    }

    #[test]
    fn zero_noise_upload_is_bounded_by_one() {
        // Without noise the upload is (Σ_j unit vectors)/b_c: norm ≤ 1.
        let mut w = worker(0.0, 2);
        let params = vec![0.0f32; w.param_len()];
        let up = w.local_step(&params);
        assert!(vecops::l2_norm(&up) <= 1.0 + 1e-5);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = worker(0.5, 7);
        let mut b = worker(0.5, 7);
        let params = vec![0.01f32; a.param_len()];
        assert_eq!(a.local_step(&params), b.local_step(&params));
        // Different seed → different upload.
        let mut c = worker(0.5, 8);
        assert_ne!(a.local_step(&params), c.local_step(&params));
    }

    /// The `b_c × d` slot-matrix local step this module held before
    /// [`Momentum`], verbatim: blend every slot, then norm and sum every
    /// slot, then copy the upload into all of them. The oracle for
    /// [`DpWorker::local_step`].
    struct SlotMatrixWorker {
        model: Sequential,
        data: Dataset,
        cfg: DpSgdConfig,
        momentum: Vec<Vec<f32>>,
        rng: StdRng,
    }

    impl SlotMatrixWorker {
        fn new(model: Sequential, data: Dataset, cfg: DpSgdConfig, seed: u64) -> Self {
            let momentum = vec![vec![0.0f32; model.param_len()]; cfg.batch_size];
            SlotMatrixWorker { model, data, cfg, momentum, rng: StdRng::seed_from_u64(seed) }
        }

        fn local_step(&mut self, params: &[f32]) -> Vec<f32> {
            let d = params.len();
            self.model.set_params(params);
            let b_c = self.cfg.batch_size;
            let batch = sample_batch(&mut self.rng, self.data.len(), b_c);
            let beta = self.cfg.momentum;
            let mut grad_buf = vec![0.0f32; d];
            for (j, &idx) in batch.iter().enumerate() {
                let (x, y) = (self.data.example(idx), self.data.label(idx));
                self.model.example_gradient(&CrossEntropyLoss, x, y, &mut grad_buf);
                for (m, &g) in self.momentum[j].iter_mut().zip(&grad_buf) {
                    *m = (1.0 - beta) * g + beta * *m;
                }
            }
            let mut sum_buf = vec![0.0f64; d];
            for slot in &self.momentum {
                let norm = vecops::l2_norm(slot);
                if norm > 0.0 {
                    let inv = 1.0 / norm;
                    for (u, &m) in sum_buf.iter_mut().zip(slot) {
                        *u += m as f64 * inv;
                    }
                }
            }
            let sigma = self.cfg.noise_multiplier;
            let inv_bc = 1.0 / b_c as f64;
            let mut out = vec![0.0f32; d];
            for (o, &u) in out.iter_mut().zip(&sum_buf) {
                let noise = standard_normal_sample(&mut self.rng) * sigma;
                *o = ((u + noise) * inv_bc) as f32;
            }
            if self.cfg.momentum_reset == MomentumReset::PaperReset {
                for slot in &mut self.momentum {
                    slot.copy_from_slice(&out);
                }
            }
            out
        }
    }

    /// The one-variate polar loop the worker drew its noise with before the
    /// block fill, verbatim (one call per coordinate), so the oracle also
    /// holds the worker's block noise to the old stream.
    fn standard_normal_sample(rng: &mut StdRng) -> f64 {
        loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// A worker and its oracle over the same model, shard, config and seed.
    /// `d = 6 370` is not a multiple of the blend's chunk width.
    fn pair(cfg: DpSgdConfig, seed: u64) -> (DpWorker, SlotMatrixWorker) {
        let mut rng = StdRng::seed_from_u64(0);
        let model = zoo::mlp(&mut rng, 784, 8, 10);
        let data = SyntheticSpec::mnist_like().generate(64, 5);
        (
            DpWorker::new(model.clone(), data.clone(), cfg.clone(), seed),
            SlotMatrixWorker::new(model, data, cfg, seed),
        )
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Steps `worker` and `oracle` `steps` times on parameters that move
    /// with the uploads, asserting bit equality at every step.
    fn assert_matches_oracle(worker: &mut DpWorker, oracle: &mut SlotMatrixWorker, steps: usize) {
        let mut params = vec![0.01f32; worker.param_len()];
        for step in 0..steps {
            let (got, want) = (worker.local_step(&params), oracle.local_step(&params));
            assert_eq!(bits(&got), bits(&want), "step {step}: {:?}", oracle.cfg);
            for (p, g) in params.iter_mut().zip(&got) {
                *p -= 0.5 * g;
            }
        }
    }

    #[test]
    fn paper_reset_matches_slot_matrix_oracle_bitwise() {
        for batch_size in [1usize, 3, 16] {
            for sigma in [0.0f64, 0.8] {
                let cfg = DpSgdConfig { batch_size, noise_multiplier: sigma, ..Default::default() };
                let (mut worker, mut oracle) = pair(cfg, 11);
                assert_matches_oracle(&mut worker, &mut oracle, 4);
            }
        }
    }

    #[test]
    fn keep_matches_slot_matrix_oracle_bitwise() {
        for sigma in [0.0f64, 0.8] {
            let cfg = DpSgdConfig {
                noise_multiplier: sigma,
                momentum_reset: MomentumReset::Keep,
                ..Default::default()
            };
            let (mut worker, mut oracle) = pair(cfg, 12);
            assert_matches_oracle(&mut worker, &mut oracle, 4);
        }
    }

    #[test]
    fn cold_on_demand_first_step_matches_oracle_bitwise() {
        // On-demand provisioning builds a worker per (client, round) and
        // steps it once: momentum is cold, so both reset modes agree too.
        for seed in [21u64, 22, 23] {
            let cfg = DpSgdConfig { noise_multiplier: 0.8, ..Default::default() };
            let keep = DpSgdConfig { momentum_reset: MomentumReset::Keep, ..cfg.clone() };
            let (mut worker, mut oracle) = pair(cfg, seed);
            let (mut keeper, _) = pair(keep, seed);
            let params = vec![0.02f32; worker.param_len()];
            let want = bits(&oracle.local_step(&params));
            assert_eq!(bits(&worker.local_step(&params)), want, "seed {seed}");
            assert_eq!(bits(&keeper.local_step(&params)), want, "seed {seed}, Keep");
        }
    }

    #[test]
    fn momentum_reset_changes_second_round() {
        let mk = |reset: MomentumReset| {
            let cfg =
                DpSgdConfig { noise_multiplier: 0.5, momentum_reset: reset, ..Default::default() };
            pair(cfg, 3).0
        };
        let params = vec![0.0f32; 784 * 8 + 8 + 8 * 10 + 10];
        let mut a = mk(MomentumReset::PaperReset);
        let mut b = mk(MomentumReset::Keep);
        // First rounds agree (momentum starts at zero either way)…
        assert_eq!(a.local_step(&params), b.local_step(&params));
        // …every later round differs.
        for _ in 0..3 {
            assert_ne!(a.local_step(&params), b.local_step(&params));
        }
    }

    #[test]
    fn clipped_step_bounds_signal() {
        let mut a = worker(0.0, 10); // no noise: observe pure clipped signal
        let params = vec![0.0f32; a.param_len()];
        let g = a.clipped_dp_step(&params, 0.1);
        // Mean of b_c clipped-to-0.1 vectors has norm ≤ 0.1.
        assert!(vecops::l2_norm(&g) <= 0.1 + 1e-5);
    }
}
