//! End-to-end streaming-round throughput — the fold-over-uploads pipeline
//! on pooled workers, and the on-demand provisioning path behind the
//! `scale/*` scenarios.
//!
//! Before any timing, the bench **asserts** the on-demand path is
//! reproducible run-to-run (criterion's `--test` smoke mode runs this body in
//! CI); the bits themselves are pinned by `tests/golden_summaries.rs`.
//!
//! The wall time of one `run()` here covers a full round over a 64-upload
//! cohort (plus preparation and one evaluation); the printed uploads/sec
//! figure is the honest end-to-end number the README quotes.

use criterion::{criterion_group, criterion_main, Criterion};
use dpbfl::prelude::*;

/// Cohort folded per round: 48 honest + 16 Byzantine uploads.
const COHORT: usize = 64;

fn base_cfg() -> SimulationConfig {
    let mut cfg =
        SimulationConfig::quick(SyntheticSpec::mnist_like(), ModelKind::SmallMlp { hidden: 8 });
    cfg.per_worker = 64;
    cfg.test_count = 64;
    cfg.n_honest = 48;
    cfg.n_byzantine = 16;
    cfg.epochs = 0.25; // one round at b_c = 16
    cfg.epsilon = None;
    cfg.dp.noise_multiplier = 0.5;
    cfg.attack = AttackSpec::Gaussian;
    cfg.defense = DefenseKind::TwoStage;
    cfg.defense_cfg.gamma = 0.5;
    cfg
}

fn summary_json(cfg: &SimulationConfig) -> String {
    serde_json::to_string(&dpbfl::simulation::run(cfg).summary()).expect("summary serializes")
}

fn bench_fl_round_streaming(c: &mut Criterion) {
    let streaming = base_cfg();
    let mut on_demand = base_cfg();
    on_demand.provisioning = Provisioning::OnDemand;

    // Reproducibility guard (run once, before timing).
    assert_eq!(
        summary_json(&on_demand),
        summary_json(&on_demand),
        "on-demand provisioning is not reproducible"
    );

    // The README's headline figure: end-to-end uploads/sec through the
    // streaming pipeline (cohort / wall time of one full run).
    let iters = 5;
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(dpbfl::simulation::run(&streaming));
    }
    let per_run = t0.elapsed().as_secs_f64() / iters as f64;
    println!(
        "fl_round_streaming: ~{:.0} uploads/sec end to end \
         (cohort {COHORT}, 1 round, pooled streaming)",
        COHORT as f64 / per_run
    );

    let mut group = c.benchmark_group("fl_round_streaming");
    group.sample_size(10);
    group.bench_function("streaming", |b| {
        b.iter(|| std::hint::black_box(dpbfl::simulation::run(&streaming)))
    });
    group.bench_function("streaming_on_demand", |b| {
        b.iter(|| std::hint::black_box(dpbfl::simulation::run(&on_demand)))
    });
    group.finish();
}

criterion_group!(benches, bench_fl_round_streaming);
criterion_main!(benches);
