//! Round orchestration: the server-side round loop, decoupled from how
//! uploads travel.
//!
//! The (crate-private) `orchestrate` loop owns everything the server does
//! per round — cohort
//! selection, attack crafting, defense dispatch, the model update, periodic
//! evaluation — and talks to data-holding clients *exclusively* through the
//! [`Transport`] trait: broadcast the model to the round's members, collect
//! their uploads (already folded through the caller-supplied closure), and
//! publish the final summary.
//!
//! Two implementations exist:
//!
//! * [`InProcessTransport`] — the in-memory path every simulation run uses.
//!   It owns the worker pools and folds in contiguous cohort shards (one per
//!   rayon thread), one [`KsScratch`] per shard, sequentially within a
//!   shard, results concatenated in shard order. Bit-identical at any
//!   thread count.
//! * `WireTransport` (in [`crate::serving`]) — the wire path behind
//!   `dpbfl-server`/`dpbfl-client`, speaking the `dpbfl-transport` frame
//!   protocol over TCP or Unix-domain sockets.
//!
//! ## Determinism under dropouts
//!
//! The fold passed to [`Transport::round_trip`] is a *pure function* of the
//! upload bits (plus fixed per-round server state), so a transport may fold
//! uploads in any arrival order as long as it returns the collected slots in
//! member order. A member that misses the round's deadline (or disconnects)
//! yields [`Collected::Dropped`]; the orchestrator maps it to the same state
//! a first-stage rejection produces — a zero contribution, counted in the
//! existing rejection stats — so the accepted set alone determines the run,
//! bit-for-bit, regardless of timing.

use crate::attack::{craft_uploads_stateful, AttackContext, AttackState, ByzantineData};
use crate::config::{DpSgdConfig, StepNormalization, UploadRetention};
use crate::first_stage::{CheckInfo, FirstStage, FirstStageVerdict, KsScratch};
use crate::second_stage::SecondStage;
use crate::simulation::{
    data_members, pooled_shards, round_cohort, worker_seed, DefenseKind, DefenseStats, EvalPoint,
    Provisioning, RunSummary, SimulationConfig, WorkerProtocol,
};
use crate::worker::DpWorker;
use dpbfl_data::{flip_labels, sample_batch, Dataset};
use dpbfl_nn::{accuracy, CrossEntropyLoss, Sequential};
use dpbfl_telemetry::{RoundMetrics, Telemetry};
use dpbfl_tensor::quant::QuantizedVec;
use dpbfl_tensor::vecops;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// What the server keeps of one member's round trip.
#[derive(Debug)]
pub enum Collected {
    /// The raw upload: rounds whose attacker reads the cohort before the
    /// defense folds it, and every round of a defense without a fold.
    Upload(Vec<f32>),
    /// The upload already through the two-stage fold: its second-stage
    /// score, what was retained for the update, and the first stage's
    /// telemetry view (`None` when the stage is ablated off).
    Scored(f64, Retained, Option<CheckInfo>),
    /// The member never delivered: deadline missed, connection lost, upload
    /// of the wrong length, or the client vanished. Treated exactly like a
    /// first-stage rejection.
    Dropped,
}

/// What the two-stage fold keeps of one upload after filtering and scoring.
#[derive(Debug)]
pub enum Retained {
    /// Zeroed by the first stage: contributes literal `+0.0` to every score
    /// and nothing to the update, so no bytes are kept.
    Rejected,
    /// Stage-1 survivor, kept verbatim (bit-identical path).
    Exact(Vec<f32>),
    /// Stage-1 survivor, re-encoded as scale + `i16` codes (lossy memory
    /// mode, [`UploadRetention::Quantized`]).
    Quantized(QuantizedVec),
}

/// The per-upload fold a transport applies as uploads arrive.
///
/// A pure function of the upload bits (plus fixed per-round server state
/// captured by the closure): same upload, same scratch contents in, same
/// [`Collected`] out — which is what lets a transport fold in arrival order
/// and still return a deterministic result, as long as the returned slots
/// are in member order. `Sync` because [`InProcessTransport`] folds shards
/// in parallel.
pub type UploadFold<'a> = dyn Fn(Vec<f32>, &mut KsScratch) -> Collected + Sync + 'a;

/// How the round loop talks to data-holding clients.
///
/// One call per round: broadcast `params` to `members`, collect their
/// uploads, fold each through `fold`, and return the collected slots **in
/// member order** (one per member — late or missing members yield
/// [`Collected::Dropped`], never a shorter vector). `members` are global
/// worker indices, sorted ascending; `round` is the 0-based round index.
pub trait Transport {
    /// Runs one round trip: broadcast → collect → fold.
    fn round_trip(
        &mut self,
        round: usize,
        members: &[usize],
        params: &[f32],
        fold: &UploadFold<'_>,
    ) -> Vec<Collected>;

    /// Publishes the finished run's summary to the clients (no-op by
    /// default; the wire transport sends `RunComplete`).
    fn publish_summary(&mut self, _summary: &RunSummary) {}
}

/// The in-memory transport: owns the worker pool and steps it under rayon,
/// folding each upload as its worker produces it.
///
/// A round's data members are stepped and folded in shards
/// (`fold_in_shards`, the determinism-critical recipe). Verdicts and scores
/// are pure functions of the upload bits, so the merge is independent of
/// thread count.
pub struct InProcessTransport<'a> {
    cfg: &'a SimulationConfig,
    dp: DpSgdConfig,
    /// Long-lived data workers, indexed by global worker (pooled
    /// provisioning; empty on demand).
    pool: Vec<DpWorker>,
    /// Architecture template for on-demand worker construction.
    template: Sequential,
    /// The dataset's class prototypes, built once per run for on-demand
    /// shards (empty when pooled).
    prototypes: Vec<Vec<f32>>,
}

impl<'a> InProcessTransport<'a> {
    /// Builds the worker pool: the model template from the init stream
    /// `seed + 0x4d0de1`, then one long-lived worker per dealt partition of
    /// `prep`, over the shard `simulation::pooled_shards` builds for it;
    /// on-demand runs build no worker, only the dataset's class
    /// prototypes. `dp` must be the σ-resolved worker config (see
    /// [`crate::simulation::resolve_sigma`]).
    pub fn new(
        cfg: &'a SimulationConfig,
        prep: &crate::simulation::PreparedRun,
        dp: &DpSgdConfig,
    ) -> Self {
        let template = init_model(cfg);
        let every = (0..prep.parts.len()).collect();
        let pool = pooled_shards(cfg, &prep.parts, &every)
            .into_iter()
            .map(|(w, shard)| data_worker(cfg, shard, dp, &template, w))
            .collect();
        let prototypes = match cfg.provisioning {
            Provisioning::Pooled => Vec::new(),
            Provisioning::OnDemand => cfg.dataset.prototypes(),
        };
        InProcessTransport { cfg, dp: dp.clone(), pool, template, prototypes }
    }
}

/// The model template every worker clones: built from the init stream
/// `seed + 0x4d0de1`, bit-identical to the server's initial model.
pub(crate) fn init_model(cfg: &SimulationConfig) -> Sequential {
    let mut init_rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0x4d0de1));
    cfg.model.build(&mut init_rng, &cfg.dataset)
}

/// Whether data-holding member `index` trains on label-flipped data: only
/// Byzantine members, and only when the attack's data mode is
/// [`ByzantineData::Flipped`] — sleeper cover workers
/// ([`ByzantineData::Honest`]) train on honest data like everyone else.
/// Shared by every worker construction site (pooled, on-demand, and the
/// remote client) so all sides build bit-identical workers.
pub(crate) fn member_flips(cfg: &SimulationConfig, index: usize) -> bool {
    index >= cfg.n_honest && cfg.attack.byzantine_data() == ByzantineData::Flipped
}

/// Builds the long-lived worker of global index `index` from its pooled
/// training shard (from [`crate::simulation::pooled_shards`]): honest below
/// `n_honest`, label-flipped above (when the attack poisons its members'
/// data — see [`member_flips`]). The single construction site shared by
/// [`InProcessTransport`] and the remote client, so both build
/// bit-identical workers from the same shard builder.
pub(crate) fn data_worker(
    cfg: &SimulationConfig,
    mut data: Dataset,
    dp: &DpSgdConfig,
    template: &Sequential,
    index: usize,
) -> DpWorker {
    if member_flips(cfg, index) {
        flip_labels(&mut data);
    }
    DpWorker::new(template.clone(), data, dp.clone(), worker_seed(cfg.seed, index))
}

impl Transport for InProcessTransport<'_> {
    /// Steps and folds the round's data members in one `fold_in_shards`
    /// call, for the pooled and on-demand cases alike.
    ///
    /// A member the serving fault plan withholds still *steps* (its RNG and
    /// momentum state must evolve exactly as on a remote client that skips
    /// the send) but its upload never reaches `fold` — folding feeds defense
    /// state downstream, so a withheld upload folds as nothing and the
    /// member yields [`Collected::Dropped`], just like a deadline miss over
    /// the wire.
    fn round_trip(
        &mut self,
        round: usize,
        members: &[usize],
        params: &[f32],
        fold: &UploadFold<'_>,
    ) -> Vec<Collected> {
        let InProcessTransport { cfg, dp, pool, template, prototypes } = self;
        let cfg = *cfg;
        let withheld = members.iter().map(|&m| plan_withholds(cfg, m, round));
        if cfg.provisioning == Provisioning::Pooled {
            // The pool and `members` both ascend, so filtering keeps order.
            let cohort = pool
                .iter_mut()
                .enumerate()
                .filter_map(|(k, w)| members.binary_search(&k).is_ok().then_some(w));
            let mut slots: Vec<_> = cohort.zip(withheld).collect();
            assert_eq!(slots.len(), members.len(), "cohort index within worker range");
            fold_in_shards(&mut slots, |(w, withhold), scratch| {
                let upload = protocol_step(w, params, cfg.protocol);
                if *withhold {
                    Collected::Dropped
                } else {
                    fold(upload, scratch)
                }
            })
        } else {
            let mut slots: Vec<_> = members.iter().copied().zip(withheld).collect();
            fold_in_shards(&mut slots, |&mut (i, withhold), scratch| {
                // On-demand workers are rebuilt per round, so a withheld
                // member need not even step.
                if withhold {
                    return Collected::Dropped;
                }
                let flip = member_flips(cfg, i);
                let mut w = on_demand_worker(cfg, template, dp, prototypes, i, round, flip);
                fold(protocol_step(&mut w, params, cfg.protocol), scratch)
            })
        }
    }
}

/// Whether the run's serving fault plan withholds `(member, round)`'s
/// upload. Mirrored bit-exactly by the wire client (which adopts the plan
/// from the server's `Welcome` config), so served and in-process runs build
/// the same accepted set under the same schedule. A `deadline_ms` of
/// `Some(0)` withholds everything: over the wire no upload can beat a zero
/// deadline, because nothing is queued before the round broadcast.
pub(crate) fn plan_withholds(cfg: &SimulationConfig, member: usize, round: usize) -> bool {
    match &cfg.serving {
        Some(s) => s.deadline_ms == Some(0) || s.fault.withholds(member, round),
        None => false,
    }
}

/// The one sharding recipe every fold uses, whenever it runs: `items` split
/// into contiguous shards of `len.div_ceil(threads).max(1)`, one rayon task
/// and one fresh [`KsScratch`] per shard, `each` applied sequentially within
/// a shard, shard results concatenated in order. `each` must be a pure
/// function of its item (and the scratch it fully rewrites), which makes the
/// result independent of sharding and thread count.
fn fold_in_shards<T: Send, R: Send>(
    items: &mut [T],
    each: impl Fn(&mut T, &mut KsScratch) -> R + Sync,
) -> Vec<R> {
    let shard = items.len().div_ceil(rayon::current_num_threads().max(1)).max(1);
    let shards: Vec<&mut [T]> = items.chunks_mut(shard).collect();
    let nested: Vec<Vec<R>> = shards
        .into_par_iter()
        .map(|shard| {
            let mut scratch = KsScratch::new();
            shard.iter_mut().map(|item| each(item, &mut scratch)).collect()
        })
        .collect();
    nested.into_iter().flatten().collect()
}

/// Runs the full round loop against `transport`; returns the accuracy
/// trajectory and the defense bookkeeping.
///
/// `dp` is the σ-resolved worker config and `lr` the tuned learning rate
/// (both produced by [`crate::simulation::run_with_transport_telemetry`]);
/// `defense` / `fltrust_state` hold the server-side defense state matching
/// `cfg.defense`. `eps_schedule` is the precomputed cumulative-ε schedule
/// (`None` for non-private or untelemetered runs) — only telemetry reads
/// it; caching it outside the loop keeps the per-round ε annotation to a
/// cheap RDP→(ε, δ) conversion instead of re-deriving the RDP curve.
///
/// Every round is collect → craft → defend/update → observe → eval. The
/// two-stage defense is one pipeline, [`fold_upload`] per upload then
/// [`TwoStageState::finish`] per round, with two fold *timings*: an attack
/// that reads the cohort ([`crate::attack::AttackSpec::reads_cohort`]) must
/// see the raw uploads first, so its rounds collect, craft, then fold
/// ([`fold_in_shards`], as the transport does); every other round folds each
/// upload as it arrives, inside the transport, and holds only stage-1
/// survivors. The timing is read from the attack spec alone and moves no
/// bit: the fold is a pure function of the upload.
///
/// Telemetry is collected *after* the fold's shard merge, sequentially in
/// cohort order, so the deterministic counters are bit-identical at any
/// thread count; with [`Telemetry::null`] no record is ever constructed and
/// the loop is byte-identical to a telemetry-free build.
#[allow(clippy::too_many_arguments)]
pub(crate) fn orchestrate(
    cfg: &SimulationConfig,
    dp: &DpSgdConfig,
    lr: f64,
    test: &Dataset,
    server_model: &mut Sequential,
    params: &mut [f32],
    defense: &mut Option<TwoStageState>,
    fltrust_state: &mut Option<(Dataset, Sequential, Vec<f32>)>,
    transport: &mut dyn Transport,
    tel: &Telemetry,
    eps_schedule: Option<&dpbfl_dp::EpsilonSchedule>,
) -> (Vec<EvalPoint>, DefenseStats) {
    let d = params.len();
    let n_data = data_members(cfg);
    // An attack that reads the cohort must see the raw uploads before the
    // defense folds them; every other two-stage round folds at arrival.
    let reads_cohort = cfg.attack.reads_cohort();
    let iterations = cfg.iterations();
    let eval_every = if cfg.eval_every > 0 {
        cfg.eval_every
    } else {
        (cfg.per_worker / cfg.dp.batch_size).max(1) // once per epoch
    };
    let mut history = Vec::new();
    let mut stats = DefenseStats::default();
    let mut attack_rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0xa77ac4));
    // Cross-round attacker state: created once per run, fed the defense's
    // observable output (the stage-1 acceptance count) after every round.
    if let Err(e) = cfg.attack.validate() {
        panic!("invalid attack spec: {e}");
    }
    let mut attack_state = AttackState::new(&cfg.attack);

    for t in 0..iterations {
        let round = Some(t as u64);
        // The round's participants: drawn sequentially, before any parallel
        // work. `split` partitions the sorted cohort into honest ([..split])
        // and Byzantine ([split..]) members.
        let cohort = round_cohort(cfg, t);
        let split = cohort.partition_point(|&i| i < cfg.n_honest);

        // Deterministic per-round counters, built only when a sink is
        // attached — the disabled path allocates nothing.
        let mut metrics = tel.enabled().then(|| RoundMetrics::new(t as u64, cohort.len() as u64));

        // Data-holding members the transport must reach this round. Always
        // a prefix of the cohort; the rest is crafted server-side by the
        // adversary.
        let data_members = &cohort[..cohort.partition_point(|&i| i < n_data)];

        // A round folded at arrival opens its fold now and hands it to the
        // transport.
        let at_arrival = match defense.as_mut() {
            Some(state) if !reads_cohort => Some(state.open_round(cfg, params, tel, round)),
            _ => None,
        };

        // ---- collect: one slot per data member, folded already or raw ----
        let timer = tel.start();
        let mut slots = match &at_arrival {
            Some(fold) => transport.round_trip(t, data_members, params, fold),
            None => transport.round_trip(t, data_members, params, &|u, _| Collected::Upload(u)),
        };
        tel.stop(timer, "collect", round);
        debug_assert_eq!(slots.len(), data_members.len());

        // ---- craft: the Byzantine members' uploads ----------------------
        let timer = tel.start();
        // What the attacker sees of a round it reads nothing of: one slot
        // to fill, no uploads.
        let unseen = AttackContext {
            benign_uploads: &[],
            poisoned_uploads: &[],
            n_byzantine: 1,
            d,
            noise_std: dp.effective_noise_std(),
            round: t,
            total_rounds: iterations,
        };
        let mut craft = |view: &AttackContext<'_>| {
            craft_uploads_stateful(&cfg.attack, view, &mut attack_state, &mut attack_rng)
        };
        // Raw rounds: the whole cohort's uploads as the attacker and the
        // baseline aggregators see them — a member that never delivered
        // contributes the zero vector.
        let mut uploads: Vec<Vec<f32>> = Vec::new();
        if let Some(fold) = &at_arrival {
            // The attack reads nothing of the cohort, so each Byzantine
            // member the transport did not cover is crafted alone and folded
            // at once — one upload in flight, like the data members'. Draws
            // come off the single attack stream in cohort order, and the
            // fold consumes no RNG, so interleaving is bit-safe.
            let mut scratch = KsScratch::new();
            for _ in &cohort[data_members.len()..] {
                let upload = craft(&unseen).pop().expect("upload count changed mid-training");
                slots.push(fold(upload, &mut scratch));
            }
        } else {
            uploads.extend(slots.iter_mut().map(|slot| match slot {
                Collected::Upload(u) => std::mem::take(u),
                Collected::Dropped => vec![0.0f32; d],
                Collected::Scored(..) => unreachable!("the raw fold returns uploads"),
            }));
            // The omniscient adversary crafts one upload per Byzantine
            // cohort member, replacing those members' own protocol uploads.
            let (benign, poisoned) = uploads.split_at(split);
            let seen = AttackContext {
                benign_uploads: benign,
                poisoned_uploads: poisoned,
                n_byzantine: cohort.len() - split,
                ..unseen
            };
            let byzantine = craft(&seen);
            uploads.truncate(split);
            uploads.extend(byzantine);
        }
        tel.stop(timer, "attack", round);
        drop(at_arrival); // it borrows the defense state the round now advances

        // ---- defend + update --------------------------------------------
        // Each arm reports the round's stage-1 acceptance count — the
        // defense's public output that the acceptance-rate-adaptive attacker
        // observes (identical to the telemetry record's `accepted` counter).
        let accepted = if let Some(state) = defense.as_mut() {
            if reads_cohort {
                // The crafted cohort goes through the same fold, in the
                // same recipe the transport uses at arrival. A data member
                // that never delivered stays dropped, whatever the attacker
                // crafted in its name.
                let fold = state.open_round(cfg, params, tel, round);
                let timer = tel.start();
                let gone = slots.iter().map(|s| matches!(s, Collected::Dropped));
                let mut raw: Vec<_> =
                    uploads.into_iter().zip(gone.chain(std::iter::repeat(false))).collect();
                slots = fold_in_shards(&mut raw, |(upload, gone), scratch| {
                    if *gone {
                        Collected::Dropped
                    } else {
                        fold(std::mem::take(upload), scratch)
                    }
                });
                tel.stop(timer, "stage1", round);
            }
            debug_assert_eq!(slots.len(), cohort.len());
            state.finish(cfg, &cohort, &slots, params, &mut stats, lr, tel, metrics.as_mut())
        } else {
            // Defenses without a per-upload filter accept (and aggregate)
            // the whole cohort; their telemetry records exactly that, with
            // no stage-1/stage-2 breakdown.
            if let Some(m) = &mut metrics {
                m.accepted = cohort.len() as u64;
                m.selected = cohort.len() as u64;
                m.retained_exact_bytes = (cohort.len() * d * 4) as u64;
            }
            let timer = tel.start();
            baseline_update(cfg, fltrust_state, &uploads, lr, params);
            tel.stop(timer, "aggregate", round);
            cohort.len() as u64
        };

        // ---- observe ----------------------------------------------------
        // Stamp the scale the attacker used this round (before the feedback
        // step advances it), then let the attacker observe the defense's
        // acceptance count — the cross-round feedback loop.
        if let Some(m) = &mut metrics {
            m.attack_scale = attack_state.round_scale();
        }
        attack_state.observe(accepted, cohort.len() as u64);

        // Publish the round's deterministic counters, stamped with the
        // cumulative achieved ε through this round.
        if let Some(mut m) = metrics {
            if let Some(schedule) = eps_schedule {
                m.achieved_epsilon = Some(schedule.epsilon_at((t + 1) as u64));
            }
            tel.round(m);
        }

        // ---- eval -------------------------------------------------------
        if (t + 1) % eval_every == 0 || t + 1 == iterations {
            let timer = tel.start();
            server_model.set_params(params);
            let acc = accuracy(server_model, &test.features, &test.labels);
            tel.stop(timer, "eval", round);
            history.push(EvalPoint {
                iteration: t + 1,
                epoch: (t + 1) as f64 * cfg.dp.batch_size as f64 / cfg.per_worker as f64,
                accuracy: acc,
            });
        }
    }

    (history, stats)
}

/// The server step of the three defenses without a per-upload filter: plain
/// averaging, a classical robust rule, or FLTrust's cosine-trust weighting
/// against the server's auxiliary gradient. `uploads` is the whole cohort
/// (a dropped member contributes the zero vector).
fn baseline_update(
    cfg: &SimulationConfig,
    fltrust_state: &mut Option<(Dataset, Sequential, Vec<f32>)>,
    uploads: &[Vec<f32>],
    lr: f64,
    params: &mut [f32],
) {
    let refs: Vec<&[f32]> = uploads.iter().map(|u| u.as_slice()).collect();
    let g = match &cfg.defense {
        DefenseKind::NoDefense => vecops::mean(&refs).expect("at least one worker"),
        DefenseKind::Robust { rule } => rule.aggregate(uploads),
        DefenseKind::FlTrust => {
            let (aux, model, grad_buf) =
                fltrust_state.as_mut().expect("fltrust state always built");
            model.set_params(params);
            // Trust gradient in one batched forward/backward: the aux
            // dataset's features are already the packed matrix.
            model.batch_gradient_packed(&CrossEntropyLoss, &aux.features, &aux.labels, grad_buf);
            crate::aggregator_ext::fltrust(&refs, grad_buf)
        }
        DefenseKind::TwoStage => unreachable!("two-stage rounds finish through the fold"),
    };
    vecops::axpy(-(lr as f32), &g, params);
}

/// The two-stage defense's mutable state.
pub(crate) struct TwoStageState {
    pub(crate) first: FirstStage,
    pub(crate) second: SecondStage,
    pub(crate) aux: Dataset,
    pub(crate) server_model: Sequential,
    pub(crate) grad_buf: Vec<f32>,
}

impl TwoStageState {
    /// Opens a round: computes the server's clean gradient from the
    /// auxiliary data (Algorithm 3 line 4, one batched forward/backward over
    /// the aux dataset's already packed feature matrix — the first `stage2`
    /// span) and returns the round's per-upload fold, [`fold_upload`]
    /// against that gradient. The gradient comes first so every upload can
    /// be scored the moment it survives the first stage; it is RNG-free and
    /// reads only `params`, which no worker mutates, so *when* a round opens
    /// moves no bit.
    fn open_round<'a>(
        &'a mut self,
        cfg: &'a SimulationConfig,
        params: &[f32],
        tel: &Telemetry,
        round: Option<u64>,
    ) -> impl Fn(Vec<f32>, &mut KsScratch) -> Collected + Sync + 'a {
        let timer = tel.start();
        self.server_model.set_params(params);
        self.server_model.batch_gradient_packed(
            &CrossEntropyLoss,
            &self.aux.features,
            &self.aux.labels,
            &mut self.grad_buf,
        );
        tel.stop(timer, "stage2", round);
        let (first, grad) = (&self.first, self.grad_buf.as_slice());
        move |upload, scratch| fold_upload(first, cfg, upload, scratch, grad)
    }

    /// Completes a round from its folded slots (one per cohort member, in
    /// cohort order): bookkeeping, second-stage selection on the precomputed
    /// scores, and the model update `w ← w − η·(1/n)·Σ_{g∈G} g` (Algorithm 1
    /// line 14) from the retained survivors, applied to `params`. Returns
    /// the stage-1 acceptance count.
    ///
    /// `metrics` (present iff a telemetry sink is attached) receives the
    /// round's stage-1 breakdown, score summary and selection count,
    /// accumulated sequentially in cohort order.
    ///
    /// Why the result does not depend on when, where or in what order the
    /// uploads were folded:
    /// * per-upload verdicts and scores are pure functions of the upload
    ///   bits, so any shard merge that restores cohort order — concatenation
    ///   in shard order — gives the same `slots` at every thread count;
    /// * a rejected upload contributes the literal `+0.0` that scoring the
    ///   zeroed vector of Algorithm 2 gives, and skipping it in the update
    ///   sum skips only exact `+ w·0.0` terms (the `f64` accumulator never
    ///   holds `-0.0`, so those additions are bit-exact no-ops);
    /// * a member that never delivered ([`Collected::Dropped`]) is the same
    ///   rejection, except that the first stage never saw it: no
    ///   [`CheckInfo`], and telemetry counts it as dropped in transit.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &mut self,
        cfg: &SimulationConfig,
        cohort: &[usize],
        slots: &[Collected],
        params: &mut [f32],
        stats: &mut DefenseStats,
        lr: f64,
        tel: &Telemetry,
        mut metrics: Option<&mut RoundMetrics>,
    ) -> u64 {
        let round = metrics.as_ref().map(|m| m.round);
        // Bookkeeping + full-length round scores, in cohort (= global index)
        // order. The telemetry counters accumulate in the same sequential
        // pass — after the shard merge, so they inherit its thread-count
        // independence.
        let mut accepted = 0u64;
        let mut round_scores = vec![0.0f64; self.second.accumulated_scores().len()];
        for (&i, slot) in cohort.iter().zip(slots) {
            let (score, retained, info) = match slot {
                Collected::Scored(score, retained, info) => (*score, retained, *info),
                Collected::Dropped => (0.0, &Retained::Rejected, None),
                Collected::Upload(_) => unreachable!("every slot is folded before the finish"),
            };
            let rejected = matches!(retained, Retained::Rejected);
            if !rejected {
                accepted += 1;
            } else if i < cfg.n_honest {
                stats.first_stage_rejected_honest += 1;
            } else {
                stats.first_stage_rejected_byzantine += 1;
            }
            if let Some(m) = metrics.as_deref_mut() {
                note_stage1(m, info, matches!(slot, Collected::Dropped));
                match retained {
                    Retained::Rejected => {}
                    Retained::Exact(g) => m.retained_exact_bytes += 4 * g.len() as u64,
                    Retained::Quantized(q) => m.retained_quantized_bytes += 4 + 2 * q.len() as u64,
                }
            }
            round_scores[i] = score;
        }

        // Second stage on the precomputed scores.
        let timer = tel.start();
        let selection = self.second.select_scored(cohort, round_scores);
        tel.stop(timer, "stage2", round);
        stats.total_selected += selection.selected.len() as u64;
        stats.byzantine_selected +=
            selection.selected.iter().filter(|&&i| i >= cfg.n_honest).count() as u64;
        if let Some(m) = metrics {
            // Post-suppression round scores, observed in cohort order.
            for &i in cohort {
                m.scores.observe(selection.round_scores[i]);
            }
            m.selected = selection.selected.len() as u64;
        }

        // Model update from the retained survivors. `n` is the round's
        // participant count — at full participation the total worker count,
        // as the paper writes it.
        let timer = tel.start();
        let denom = match cfg.defense_cfg.step_normalization {
            StepNormalization::TotalWorkers => cohort.len() as f64,
            StepNormalization::SelectedCount => selection.selected.len().max(1) as f64,
        };
        let mut update = vec![0.0f64; params.len()];
        for &i in &selection.selected {
            let w = selection.weights[i];
            let k = cohort.binary_search(&i).expect("selected index is in the cohort");
            match &slots[k] {
                Collected::Scored(_, Retained::Exact(g), _) => {
                    for (u, &g) in update.iter_mut().zip(g) {
                        *u += w * g as f64;
                    }
                }
                Collected::Scored(_, Retained::Quantized(q), _) => {
                    for (u, g) in update.iter_mut().zip(q.iter()) {
                        *u += w * g as f64;
                    }
                }
                _ => {} // rejected or dropped: nothing retained
            }
        }
        let coef = -lr / denom;
        for (p, u) in params.iter_mut().zip(update) {
            *p += (u * coef) as f32;
        }
        tel.stop(timer, "aggregate", round);
        accepted
    }
}

/// Folds one upload's first-stage outcome into the round's counters.
///
/// `info == None` means the stage never examined the upload: either the
/// first stage is ablated off (the upload was accepted wholesale) or the
/// upload never arrived (`dropped`). KS path counters only move for checks
/// that reached the KS test — an accept or a KS rejection.
fn note_stage1(m: &mut RoundMetrics, info: Option<CheckInfo>, dropped: bool) {
    let Some(ci) = info else {
        if dropped {
            m.rejected_dropped += 1;
        } else {
            m.accepted += 1;
        }
        return;
    };
    match ci.verdict {
        FirstStageVerdict::Accepted => m.accepted += 1,
        FirstStageVerdict::NonFinite => m.rejected_non_finite += 1,
        FirstStageVerdict::NormOutOfRange => m.rejected_norm += 1,
        FirstStageVerdict::KsRejected => m.rejected_ks += 1,
    }
    if matches!(ci.verdict, FirstStageVerdict::Accepted | FirstStageVerdict::KsRejected) {
        if ci.ks_exact {
            m.ks_exact_fallback += 1;
        } else {
            m.ks_fast_path += 1;
        }
    }
}

/// One upload through the two-stage fold: first-stage filter (Algorithm 2),
/// second-stage score, retention. A pure function of the upload bits (plus
/// the fixed server gradient), which is what makes the shard merge
/// order-insensitive — the returned [`CheckInfo`] included, so per-shard
/// telemetry partials merge exactly like the fold itself.
pub(crate) fn fold_upload(
    first: &FirstStage,
    cfg: &SimulationConfig,
    upload: Vec<f32>,
    scratch: &mut KsScratch,
    server_grad: &[f32],
) -> Collected {
    let info = cfg.defense_cfg.first_stage_enabled.then(|| first.check_with_info(&upload, scratch));
    if !info.is_none_or(|i| i.verdict.is_accepted()) {
        // Algorithm 2 zeroes the upload and the zero vector scores exactly
        // +0.0. Drop the bytes, keep the literal.
        return Collected::Scored(0.0, Retained::Rejected, info);
    }
    let score = cfg.defense_cfg.scoring.score(&upload, server_grad);
    let retained = match cfg.defense_cfg.retention {
        UploadRetention::Exact => Retained::Exact(upload),
        UploadRetention::Quantized => Retained::Quantized(QuantizedVec::encode(&upload)),
    };
    Collected::Scored(score, retained, info)
}

/// One worker's protocol upload.
pub(crate) fn protocol_step(
    w: &mut DpWorker,
    params: &[f32],
    protocol: WorkerProtocol,
) -> Vec<f32> {
    match protocol {
        // Plain is Algorithm 1 with σ = 0: the worker's noise multiplier is
        // already zero for such runs.
        WorkerProtocol::PaperDp | WorkerProtocol::Plain => w.local_step(params),
        WorkerProtocol::ClippedDp { clip } => w.clipped_dp_step(params, clip),
        WorkerProtocol::SignDp { .. } => {
            unreachable!("sign-DP runs its own loop (baseline::run_sign_dp)")
        }
    }
}

/// Builds the ephemeral worker of client `index` for one round (on-demand
/// provisioning). The client's local shard is a pure function of the master
/// seed and its index — stable across rounds — while its per-round DP stream
/// is `worker_seed(worker_seed(seed, index), round)`; momentum starts cold
/// each participation.
///
/// Both call sites (the in-process transport and the serving client) step
/// the worker exactly once and drop it, so the shard holds pixels only for
/// the rows that one step reads: its batch is the first draw of the DP
/// stream (`sample_batch` opens [`DpWorker::local_step`] and
/// [`DpWorker::clipped_dp_step`] alike), drawn here from a copy of the
/// stream before the shard exists. Every other row is zero; every label is
/// present. `prototypes` is `cfg.dataset.prototypes()`, built once per run.
pub(crate) fn on_demand_worker(
    cfg: &SimulationConfig,
    model: &Sequential,
    dp: &DpSgdConfig,
    prototypes: &[Vec<f32>],
    index: usize,
    round: usize,
    flip: bool,
) -> DpWorker {
    let data_seed = worker_seed(cfg.seed.wrapping_add(0xda7a), index);
    let dp_seed = worker_seed(worker_seed(cfg.seed, index), round);
    let batch = sample_batch(&mut StdRng::seed_from_u64(dp_seed), cfg.per_worker, dp.batch_size);
    let mut data =
        cfg.dataset.generate_rows(prototypes, cfg.per_worker, data_seed, |i| batch.contains(&i));
    if flip {
        flip_labels(&mut data);
    }
    DpWorker::new(model.clone(), data, dp.clone(), dp_seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::AttackSpec;
    use crate::simulation::ModelKind;
    use dpbfl_data::SyntheticSpec;

    /// A label-flip on-demand config (6 honest + 2 Byzantine clients, 64
    /// examples each) at batch size `b_c`, and its model template.
    fn on_demand_cfg(b_c: usize) -> (SimulationConfig, Sequential) {
        let mut cfg =
            SimulationConfig::quick(SyntheticSpec::mnist_like(), ModelKind::SmallMlp { hidden: 8 });
        cfg.per_worker = 64;
        cfg.n_honest = 6;
        cfg.n_byzantine = 2;
        cfg.attack = AttackSpec::LabelFlip;
        cfg.provisioning = Provisioning::OnDemand;
        cfg.dp.batch_size = b_c;
        cfg.dp.noise_multiplier = 0.5;
        let template = init_model(&cfg);
        (cfg, template)
    }

    /// The oracle for `on_demand_worker`: the same client and round over
    /// the eager shard, every row synthesized.
    fn eager_worker(cfg: &SimulationConfig, template: &Sequential, i: usize, t: usize) -> DpWorker {
        let mut data =
            cfg.dataset.generate(cfg.per_worker, worker_seed(cfg.seed.wrapping_add(0xda7a), i));
        if member_flips(cfg, i) {
            flip_labels(&mut data);
        }
        let seed = worker_seed(worker_seed(cfg.seed, i), t);
        DpWorker::new(template.clone(), data, cfg.dp.clone(), seed)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn on_demand_first_step_matches_a_worker_over_the_eager_shard() {
        for b_c in [1, 16, 64] {
            let (cfg, template) = on_demand_cfg(b_c);
            let prototypes = cfg.dataset.prototypes();
            let params = template.params();
            // Honest and flipped clients, over several rounds.
            for (i, t) in [(0, 0), (3, 5), (6, 1), (7, 9)] {
                let lazy = || {
                    let flip = member_flips(&cfg, i);
                    on_demand_worker(&cfg, &template, &cfg.dp, &prototypes, i, t, flip)
                };
                let eager = || eager_worker(&cfg, &template, i, t);
                assert_eq!(lazy().data().labels, eager().data().labels, "b_c {b_c}, client {i}");
                let (got, want) = (lazy().local_step(&params), eager().local_step(&params));
                assert_eq!(bits(&got), bits(&want), "local_step, b_c {b_c}, client {i}");
                let (got, want) =
                    (lazy().clipped_dp_step(&params, 0.5), eager().clipped_dp_step(&params, 0.5));
                assert_eq!(bits(&got), bits(&want), "clipped_dp_step, b_c {b_c}, client {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "larger than population")]
    fn on_demand_shard_smaller_than_the_batch_fails_loudly() {
        let (cfg, template) = on_demand_cfg(65);
        on_demand_worker(&cfg, &template, &cfg.dp, &cfg.dataset.prototypes(), 0, 0, false);
    }
}
