//! Synthetic image-classification dataset generators.
//!
//! The paper evaluates on MNIST, Fashion-MNIST, USPS and Colorectal, none of
//! which are available offline. Every phenomenon the paper measures — DP-noise
//! domination, KS acceptance of benign uploads, inner-product separation of
//! benign vs. Byzantine gradients, label-flip damage — is a property of the
//! *learning dynamics* over a multi-class task of the right dimension, not of
//! natural images. These generators therefore synthesize matching-shape tasks:
//!
//! * each class `c` gets a smooth random **prototype** image (low-resolution
//!   random field, bilinearly upsampled);
//! * each example is `clip(mix·prototype + (1−mix)·noise + brightness jitter)`;
//! * difficulty is controlled by the prototype/noise mix and resolution,
//!   roughly matching each real dataset's observed hardness ordering
//!   (MNIST easiest, Colorectal hardest with only 5 000 examples).
//!
//! The `kmnist_like` generator draws prototypes from an independent seed
//! family: same data *shape*, different data *space* `X'` — the supp. Table 17
//! out-of-distribution auxiliary-data experiment.
//!
//! Prototypes are a pure function of the spec, so a run that synthesizes
//! many shards builds them once ([`SyntheticSpec::prototypes`]) and passes
//! them to [`SyntheticSpec::synthesize`]. That loop draws every example's
//! class, noise grid and brightness — the stream is the same however many
//! rows are built — but upsamples and mixes pixels only for the rows the
//! caller gives it somewhere to land: an on-demand client materializes just
//! the `b_c` rows its one local step samples, and a serving client just its
//! own workers' shards.
//!
//! Synthesis is two parts: a sequential **draw** of each example's class,
//! noise grid and brightness off the one stream, and a pure per-row
//! **build** from those draws. [`SyntheticSpec::synthesize`] builds each row
//! right after its draw, on the calling thread.
//! [`SyntheticSpec::synthesize_parallel`] draws every example first, keeping
//! the built rows' draws in one flat buffer, then builds the rows across
//! threads; each row is the same pure function of its draws, so the bits do
//! not depend on the thread count. Only the pooled training set takes the
//! parallel route: an on-demand client builds its `b_c` rows inside the
//! round's worker threads, where more threads would only add spawn cost and
//! per-thread heap arenas (the vendored rayon starts OS threads on every
//! call).

use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Configuration of a synthetic image dataset family.
///
/// Serializes to/from JSON so experiment-grid specs (`dpbfl-harness`) can
/// carry a full dataset description — either one of the named families from
/// [`SyntheticSpec::by_name`] or a fully custom parameterization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticSpec {
    /// Dataset name.
    pub name: String,
    /// Image channels (1 for grayscale, 3 for RGB).
    pub channels: usize,
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Number of classes `H`.
    pub num_classes: usize,
    /// Side length of the low-resolution field the prototypes are upsampled
    /// from: smaller = smoother, coarser classes.
    pub proto_grid: usize,
    /// Fraction of prototype signal in each example (rest is noise);
    /// higher = easier.
    pub signal_mix: f32,
    /// Class separation in [0, 1]: prototypes are
    /// `(1−sep)·shared_base + sep·independent_field`, so small values make
    /// the classes nearly indistinguishable (a Bayes-error knob that lets
    /// each family match its real counterpart's accuracy ceiling).
    pub class_sep: f32,
    /// Salt mixed into the prototype seeds — datasets with different salts
    /// live in different data spaces.
    pub proto_salt: u64,
    /// Invert pixel intensities (`x → 1 − x`), used by the
    /// out-of-distribution family: real KMNIST differs from MNIST in both
    /// stroke structure *and* intensity statistics, and inversion is what
    /// makes the data space genuinely alien to an MNIST-trained model.
    pub invert: bool,
}

impl SyntheticSpec {
    /// MNIST-like: 28×28 grayscale, 10 classes, easy.
    pub fn mnist_like() -> Self {
        SyntheticSpec {
            name: "mnist-like".into(),
            channels: 1,
            height: 28,
            width: 28,
            num_classes: 10,
            proto_grid: 7,
            signal_mix: 0.80,
            class_sep: 1.0,
            proto_salt: 0x6d6e6973, // "mnis"
            invert: false,
        }
    }

    /// Fashion-like: 28×28 grayscale, 10 classes, harder (more texture
    /// overlap between classes).
    pub fn fashion_like() -> Self {
        SyntheticSpec {
            name: "fashion-like".into(),
            channels: 1,
            height: 28,
            width: 28,
            num_classes: 10,
            proto_grid: 5,
            signal_mix: 0.62,
            class_sep: 0.55,
            proto_salt: 0x66617368, // "fash"
            invert: false,
        }
    }

    /// USPS-like: coarse 16×16 digits upsampled to 28×28 (the paper feeds
    /// USPS through the same 784-input MLP), medium difficulty.
    pub fn usps_like() -> Self {
        SyntheticSpec {
            name: "usps-like".into(),
            channels: 1,
            height: 28,
            width: 28,
            num_classes: 10,
            proto_grid: 4,
            signal_mix: 0.70,
            class_sep: 0.65,
            proto_salt: 0x75737073, // "usps"
            invert: false,
        }
    }

    /// Colorectal-like: 32×32 RGB histology-style textures, 8 classes,
    /// hardest (the real dataset has only 5 000 examples).
    pub fn colorectal_like() -> Self {
        SyntheticSpec {
            name: "colorectal-like".into(),
            channels: 3,
            height: 32,
            width: 32,
            num_classes: 8,
            proto_grid: 8,
            signal_mix: 0.55,
            class_sep: 0.45,
            proto_salt: 0x636f6c6f, // "colo"
            invert: false,
        }
    }

    /// KMNIST-like: same shape as MNIST-like but prototypes from an
    /// independent seed family — a different data space `X'` for the
    /// out-of-distribution auxiliary-data ablation (supp. Table 17).
    pub fn kmnist_like() -> Self {
        SyntheticSpec {
            name: "kmnist-like".into(),
            proto_salt: 0x6b6d6e69, // "kmni"
            invert: true,
            ..Self::mnist_like()
        }
    }

    /// Looks up a named builtin family (`"mnist-like"`, `"fashion-like"`,
    /// `"usps-like"`, `"colorectal-like"`, `"kmnist-like"`) — the names the
    /// constructors stamp into [`SyntheticSpec::name`].
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "mnist-like" => Some(Self::mnist_like()),
            "fashion-like" => Some(Self::fashion_like()),
            "usps-like" => Some(Self::usps_like()),
            "colorectal-like" => Some(Self::colorectal_like()),
            "kmnist-like" => Some(Self::kmnist_like()),
            _ => None,
        }
    }

    /// The names [`SyntheticSpec::by_name`] accepts.
    pub fn family_names() -> &'static [&'static str] {
        &["mnist-like", "fashion-like", "usps-like", "colorectal-like", "kmnist-like"]
    }

    /// The spec's preconditions: synthesis indexes every dimension, class and
    /// prototype-grid cell, so each must be positive (one message per field).
    pub fn check(&self) -> Vec<String> {
        let sizes = [("channels", self.channels), ("height", self.height), ("width", self.width)];
        let more = [("num_classes", self.num_classes), ("proto_grid", self.proto_grid)];
        let zero = sizes.into_iter().chain(more).filter(|&(_, n)| n == 0);
        zero.map(|(field, _)| format!("{field}: must be positive")).collect()
    }

    /// Floats per example.
    pub fn example_len(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Generates `n` examples with the given seed. The class prototypes
    /// depend only on `proto_salt` (not on `seed`), so different draws of the
    /// same spec share one ground-truth structure — exactly like drawing more
    /// samples from a fixed real-world distribution.
    pub fn generate(&self, n: usize, seed: u64) -> Dataset {
        self.generate_rows(&self.prototypes(), n, seed, |_| true)
    }

    /// [`SyntheticSpec::generate`] with pixels built only for the rows
    /// `build_row` selects: every label is present, a row not built stays
    /// zero. `prototypes` must be [`SyntheticSpec::prototypes`] of this spec.
    pub fn generate_rows(
        &self,
        prototypes: &[Vec<f32>],
        n: usize,
        seed: u64,
        build_row: impl Fn(usize) -> bool,
    ) -> Dataset {
        let example_len = self.example_len();
        let mut features = vec![0.0f32; n * example_len];
        let rows = features.chunks_mut(example_len).enumerate();
        let labels =
            self.synthesize(prototypes, seed, rows.map(|(i, row)| build_row(i).then_some(row)));
        Dataset::new(self.name.clone(), features, labels, example_len, self.num_classes)
    }

    /// The synthesis loop behind every generator: draws one example per item
    /// of `rows`, in order, builds its pixels into the item's row when it
    /// has one, and returns every example's label.
    ///
    /// Every example still draws its class, its noise grid and its
    /// brightness, so the stream never moves: the row built for example `i`
    /// is bit-identical to row `i` of `generate(n, seed)`, wherever it lands
    /// and whatever the other items ask for. `prototypes` must be
    /// [`SyntheticSpec::prototypes`] of this spec — a pure function of the
    /// spec, so a caller synthesizing many shards builds it once.
    pub fn synthesize<'a>(
        &self,
        prototypes: &[Vec<f32>],
        seed: u64,
        rows: impl IntoIterator<Item = Option<&'a mut [f32]>>,
    ) -> Vec<usize> {
        debug_assert_eq!(prototypes.len(), self.num_classes);
        self.draw(seed, rows, |row, class, draws| self.build_row(&prototypes[class], draws, row))
    }

    /// [`SyntheticSpec::synthesize`] with the rows built across threads:
    /// the same labels and bit-identical rows at every thread count. Every
    /// example is drawn first, the built rows' draws kept in one flat buffer
    /// (`grids_len + 1` floats a row), then each row is built from its own.
    pub fn synthesize_parallel<'a>(
        &self,
        prototypes: &[Vec<f32>],
        seed: u64,
        rows: impl IntoIterator<Item = Option<&'a mut [f32]>>,
    ) -> Vec<usize> {
        debug_assert_eq!(prototypes.len(), self.num_classes);
        let mut built = Vec::new();
        let mut buffer = Vec::new();
        let labels = self.draw(seed, rows, |row, class, draws| {
            built.push((row, class));
            buffer.extend_from_slice(draws);
        });
        let mut jobs: Vec<_> =
            built.into_iter().zip(buffer.chunks_exact(self.draws_len())).collect();
        jobs.par_iter_mut().for_each(|((row, class), draws)| {
            self.build_row(&prototypes[*class], draws, row);
        });
        labels
    }

    /// The sequential half of synthesis: draws one example per item of
    /// `rows` off the seed's stream — class, noise grids, brightness — and
    /// hands each item that has a row to `build` with its class and its
    /// draws (the grids, then the brightness). Returns every label.
    fn draw<'a>(
        &self,
        seed: u64,
        rows: impl IntoIterator<Item = Option<&'a mut [f32]>>,
        mut build: impl FnMut(&'a mut [f32], usize, &[f32]),
    ) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
        let rows = rows.into_iter();
        let mut labels = Vec::with_capacity(rows.size_hint().0);
        let grids_len = self.grids_len();
        let mut draws = vec![0.0f32; self.draws_len()];
        for row in rows {
            let class = rng.gen_range(0..self.num_classes);
            labels.push(class);
            self.draw_grids(&mut rng, &mut draws[..grids_len]);
            draws[grids_len] = rng.gen_range(-0.08..0.08);
            if let Some(row) = row {
                build(row, class, &draws);
            }
        }
        labels
    }

    /// The pure half of synthesis: one example's pixels from its class
    /// prototype and its draws (as [`SyntheticSpec::draw`] lays them out).
    fn build_row(&self, prototype: &[f32], draws: &[f32], row: &mut [f32]) {
        let (grids, brightness) = (&draws[..self.grids_len()], draws[self.grids_len()]);
        // The row holds the noise field, then the example mixed over it.
        self.upsample_grids(grids, row);
        for (v, &p) in row.iter_mut().zip(prototype) {
            let mut x = self.signal_mix * p + (1.0 - self.signal_mix) * *v + brightness;
            if self.invert {
                x = 1.0 - x;
            }
            *v = x.clamp(0.0, 1.0);
        }
    }

    /// The class prototype images (deterministic per spec): each class
    /// interpolates between a shared base field and an independent field by
    /// `class_sep`.
    pub fn prototypes(&self) -> Vec<Vec<f32>> {
        let mut base_rng = StdRng::seed_from_u64(
            self.proto_salt.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(0xba5e),
        );
        let mut base = vec![0.0f32; self.example_len()];
        self.smooth_field(&mut base_rng, &mut base);
        (0..self.num_classes)
            .map(|c| {
                let mut rng = StdRng::seed_from_u64(
                    self.proto_salt.wrapping_mul(0x100000001b3).wrapping_add(c as u64),
                );
                let mut out = vec![0.0f32; self.example_len()];
                self.smooth_field(&mut rng, &mut out);
                for (o, &b) in out.iter_mut().zip(&base) {
                    *o = (1.0 - self.class_sep) * b + self.class_sep * *o;
                }
                out
            })
            .collect()
    }

    /// Floats of randomness behind one smooth field: a `proto_grid ×
    /// proto_grid` grid per channel.
    fn grids_len(&self) -> usize {
        self.channels * self.proto_grid * self.proto_grid
    }

    /// Floats drawn per example besides its class: the grids, then the
    /// brightness.
    fn draws_len(&self) -> usize {
        self.grids_len() + 1
    }

    /// Draws one smooth field's grids, channel after channel, uniform in
    /// [0, 1).
    fn draw_grids<R: Rng + ?Sized>(&self, rng: &mut R, grids: &mut [f32]) {
        for v in grids {
            *v = rng.gen_range(0.0..1.0);
        }
    }

    /// Fills `out` with the smooth field `grids` describe: each channel's
    /// grid bilinearly upsampled into its plane.
    fn upsample_grids(&self, grids: &[f32], out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.example_len());
        let (g, hw) = (self.proto_grid, self.height * self.width);
        for c in 0..self.channels {
            let grid = &grids[c * g * g..(c + 1) * g * g];
            bilinear_upsample(grid, g, g, &mut out[c * hw..(c + 1) * hw], self.height, self.width);
        }
    }

    /// Fills `out` with a smooth random field in [0, 1]: a `proto_grid ×
    /// proto_grid` uniform grid per channel, bilinearly upsampled.
    fn smooth_field<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f32]) {
        let mut grids = vec![0.0f32; self.grids_len()];
        self.draw_grids(rng, &mut grids);
        self.upsample_grids(&grids, out);
    }
}

/// Bilinear upsampling of `src` (`sh × sw`) into `dst` (`dh × dw`), with
/// edge-clamped sampling.
pub fn bilinear_upsample(src: &[f32], sh: usize, sw: usize, dst: &mut [f32], dh: usize, dw: usize) {
    debug_assert_eq!(src.len(), sh * sw);
    debug_assert_eq!(dst.len(), dh * dw);
    // Map destination pixel centers onto the source grid. The column terms
    // depend only on x, so they are computed once, not once per row.
    let columns: Vec<(usize, usize, f32)> = (0..dw)
        .map(|x| {
            let fx = if dw == 1 { 0.0 } else { x as f32 * (sw - 1) as f32 / (dw - 1) as f32 };
            let x0 = fx.floor() as usize;
            (x0, (x0 + 1).min(sw - 1), fx - x0 as f32)
        })
        .collect();
    for y in 0..dh {
        let fy = if dh == 1 { 0.0 } else { y as f32 * (sh - 1) as f32 / (dh - 1) as f32 };
        let y0 = fy.floor() as usize;
        let y1 = (y0 + 1).min(sh - 1);
        let ty = fy - y0 as f32;
        let (top, bottom) = (&src[y0 * sw..(y0 + 1) * sw], &src[y1 * sw..(y1 + 1) * sw]);
        let out = &mut dst[y * dw..(y + 1) * dw];
        for (o, &(x0, x1, tx)) in out.iter_mut().zip(&columns) {
            let (a, b, c, d) = (top[x0], top[x1], bottom[x0], bottom[x1]);
            *o = a * (1.0 - ty) * (1.0 - tx)
                + b * (1.0 - ty) * tx
                + c * ty * (1.0 - tx)
                + d * ty * tx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The eager synthesis this module held before
    /// [`SyntheticSpec::generate_rows`], verbatim down to its prototypes,
    /// smooth field and per-pixel bilinear upsample: every row built,
    /// prototypes recomputed per call. The oracle for the lazy loop.
    fn eager_generate(spec: &SyntheticSpec, n: usize, seed: u64) -> Dataset {
        let prototypes = eager_prototypes(spec);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
        let example_len = spec.example_len();
        let mut features = Vec::with_capacity(n * example_len);
        let mut labels = Vec::with_capacity(n);
        let mut noise_field = vec![0.0f32; example_len];
        for _ in 0..n {
            let class = rng.gen_range(0..spec.num_classes);
            labels.push(class);
            eager_smooth_field(spec, &mut rng, &mut noise_field);
            let brightness: f32 = rng.gen_range(-0.08..0.08);
            let proto = &prototypes[class];
            for (&p, &z) in proto.iter().zip(noise_field.iter()) {
                let mut v = spec.signal_mix * p + (1.0 - spec.signal_mix) * z + brightness;
                if spec.invert {
                    v = 1.0 - v;
                }
                features.push(v.clamp(0.0, 1.0));
            }
        }
        Dataset::new(spec.name.clone(), features, labels, example_len, spec.num_classes)
    }

    fn eager_prototypes(spec: &SyntheticSpec) -> Vec<Vec<f32>> {
        let mut base_rng = StdRng::seed_from_u64(
            spec.proto_salt.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(0xba5e),
        );
        let mut base = vec![0.0f32; spec.example_len()];
        eager_smooth_field(spec, &mut base_rng, &mut base);
        (0..spec.num_classes)
            .map(|c| {
                let mut rng = StdRng::seed_from_u64(
                    spec.proto_salt.wrapping_mul(0x100000001b3).wrapping_add(c as u64),
                );
                let mut out = vec![0.0f32; spec.example_len()];
                eager_smooth_field(spec, &mut rng, &mut out);
                for (o, &b) in out.iter_mut().zip(&base) {
                    *o = (1.0 - spec.class_sep) * b + spec.class_sep * *o;
                }
                out
            })
            .collect()
    }

    fn eager_smooth_field<R: Rng + ?Sized>(spec: &SyntheticSpec, rng: &mut R, out: &mut [f32]) {
        let g = spec.proto_grid;
        let mut grid = vec![0.0f32; g * g];
        for c in 0..spec.channels {
            for v in &mut grid {
                *v = rng.gen_range(0.0..1.0);
            }
            let plane = &mut out[c * spec.height * spec.width..(c + 1) * spec.height * spec.width];
            per_pixel_bilinear_upsample(&grid, g, g, plane, spec.height, spec.width);
        }
    }

    /// [`bilinear_upsample`] before its column terms were hoisted out of the
    /// row loop, verbatim.
    fn per_pixel_bilinear_upsample(
        src: &[f32],
        sh: usize,
        sw: usize,
        dst: &mut [f32],
        dh: usize,
        dw: usize,
    ) {
        for y in 0..dh {
            let fy = if dh == 1 { 0.0 } else { y as f32 * (sh - 1) as f32 / (dh - 1) as f32 };
            let y0 = fy.floor() as usize;
            let y1 = (y0 + 1).min(sh - 1);
            let ty = fy - y0 as f32;
            for x in 0..dw {
                let fx = if dw == 1 { 0.0 } else { x as f32 * (sw - 1) as f32 / (dw - 1) as f32 };
                let x0 = fx.floor() as usize;
                let x1 = (x0 + 1).min(sw - 1);
                let tx = fx - x0 as f32;
                let a = src[y0 * sw + x0];
                let b = src[y0 * sw + x1];
                let c = src[y1 * sw + x0];
                let d = src[y1 * sw + x1];
                dst[y * dw + x] = a * (1.0 - ty) * (1.0 - tx)
                    + b * (1.0 - ty) * tx
                    + c * ty * (1.0 - tx)
                    + d * ty * tx;
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn generate_matches_eager_oracle_bitwise() {
        for name in SyntheticSpec::family_names() {
            let spec = SyntheticSpec::by_name(name).expect("known family");
            let (lazy, eager) = (spec.generate(24, 9), eager_generate(&spec, 24, 9));
            assert_eq!(bits(&lazy.features), bits(&eager.features), "{name}");
            assert_eq!(lazy.labels, eager.labels, "{name}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn generate_rows_builds_exactly_the_requested_rows(
            family in 0usize..5,
            seed in 0u64..u64::MAX,
            requested in prop::collection::vec(0u8..2, 0..40),
        ) {
            let spec = SyntheticSpec::by_name(SyntheticSpec::family_names()[family]).unwrap();
            let n = requested.len();
            let lazy = spec.generate_rows(&spec.prototypes(), n, seed, |i| requested[i] == 1);
            let eager = eager_generate(&spec, n, seed);
            prop_assert_eq!(&lazy.labels, &eager.labels);
            for (i, &wanted) in requested.iter().enumerate() {
                let want = if wanted == 1 { bits(eager.example(i)) } else { vec![0; spec.example_len()] };
                prop_assert_eq!(bits(lazy.example(i)), want, "row {}", i);
            }
        }
    }

    #[test]
    fn parallel_synthesis_matches_the_serial_loop_at_every_thread_count() {
        for name in SyntheticSpec::family_names() {
            let spec = SyntheticSpec::by_name(name).expect("known family");
            let (n, len, prototypes) = (29, spec.example_len(), spec.prototypes());
            let want = spec.generate_rows(&prototypes, n, 5, |i| i % 3 != 1);
            for threads in [1, 2, 3, 7] {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                let mut features = vec![0.0f32; n * len];
                let rows =
                    features.chunks_mut(len).enumerate().map(|(i, r)| (i % 3 != 1).then_some(r));
                let labels = pool.install(|| spec.synthesize_parallel(&prototypes, 5, rows));
                assert_eq!(labels, want.labels, "{name}, {threads} threads");
                assert_eq!(bits(&features), bits(&want.features), "{name}, {threads} threads");
            }
        }
    }

    #[test]
    fn bilinear_upsample_matches_per_pixel_oracle_bitwise() {
        let mut rng = StdRng::seed_from_u64(4);
        let sides = [1usize, 2, 3, 4, 5, 7, 8];
        let targets = [1usize, 2, 3, 5, 16, 28, 32];
        for (&sh, &sw) in sides.iter().flat_map(|h| sides.iter().map(move |w| (h, w))) {
            let src: Vec<f32> = (0..sh * sw).map(|_| rng.gen_range(0.0..1.0)).collect();
            for (&dh, &dw) in targets.iter().flat_map(|h| targets.iter().map(move |w| (h, w))) {
                let (mut got, mut want) = (vec![0.0f32; dh * dw], vec![0.0f32; dh * dw]);
                bilinear_upsample(&src, sh, sw, &mut got, dh, dw);
                per_pixel_bilinear_upsample(&src, sh, sw, &mut want, dh, dw);
                assert_eq!(bits(&got), bits(&want), "{sh}×{sw} → {dh}×{dw}");
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = SyntheticSpec::mnist_like();
        let a = spec.generate(50, 1);
        let b = spec.generate(50, 1);
        let c = spec.generate(50, 2);
        assert_eq!(a.features, b.features);
        assert_eq!(a.labels, b.labels);
        assert_ne!(a.features, c.features);
    }

    #[test]
    fn shapes_match_specs() {
        for (spec, len, classes) in [
            (SyntheticSpec::mnist_like(), 784, 10),
            (SyntheticSpec::fashion_like(), 784, 10),
            (SyntheticSpec::usps_like(), 784, 10),
            (SyntheticSpec::colorectal_like(), 3 * 32 * 32, 8),
        ] {
            let d = spec.generate(20, 0);
            assert_eq!(d.example_len, len, "{}", spec.name);
            assert_eq!(d.num_classes, classes, "{}", spec.name);
            assert!(d.features.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn by_name_covers_every_family() {
        for name in SyntheticSpec::family_names() {
            let spec = SyntheticSpec::by_name(name).expect("known family");
            assert_eq!(&spec.name, name);
        }
        assert!(SyntheticSpec::by_name("cifar-like").is_none());
    }

    #[test]
    fn prototypes_differ_between_classes_and_salts() {
        let mnist = SyntheticSpec::mnist_like().prototypes();
        let kmnist = SyntheticSpec::kmnist_like().prototypes();
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f32>() / a.len() as f32
        };
        // Different classes within a dataset are far apart.
        assert!(dist(&mnist[0], &mnist[1]) > 0.05);
        // The OOD family differs from the in-distribution one class-by-class.
        assert!(dist(&mnist[0], &kmnist[0]) > 0.05);
    }

    #[test]
    fn same_class_examples_cluster_around_prototype() {
        let spec = SyntheticSpec::mnist_like();
        let d = spec.generate(300, 3);
        let protos = spec.prototypes();
        let mut own = 0.0f64;
        let mut other = 0.0f64;
        let mut n = 0usize;
        for i in 0..d.len() {
            let x = d.example(i);
            let c = d.label(i);
            let dist = |p: &[f32]| -> f64 {
                x.iter().zip(p).map(|(a, b)| ((a - b) as f64).powi(2)).sum::<f64>()
            };
            own += dist(&protos[c]);
            other += dist(&protos[(c + 1) % 10]);
            n += 1;
        }
        assert!(own / n as f64 <= other / n as f64 * 0.8, "classes are not separable");
    }

    #[test]
    fn bilinear_upsample_preserves_constant_fields() {
        let src = vec![0.7f32; 9];
        let mut dst = vec![0.0f32; 28 * 28];
        bilinear_upsample(&src, 3, 3, &mut dst, 28, 28);
        assert!(dst.iter().all(|&v| (v - 0.7).abs() < 1e-6));
    }

    #[test]
    fn bilinear_upsample_interpolates_corners_exactly() {
        let src = vec![0.0, 1.0, 1.0, 0.0];
        let mut dst = vec![0.0f32; 5 * 5];
        bilinear_upsample(&src, 2, 2, &mut dst, 5, 5);
        assert!((dst[0] - 0.0).abs() < 1e-6);
        assert!((dst[4] - 1.0).abs() < 1e-6);
        assert!((dst[20] - 1.0).abs() < 1e-6);
        assert!((dst[24] - 0.0).abs() < 1e-6);
        assert!((dst[12] - 0.5).abs() < 1e-6); // center
    }
}
