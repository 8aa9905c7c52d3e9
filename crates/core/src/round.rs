//! Round orchestration: the server-side round loop, decoupled from how
//! uploads travel.
//!
//! The (crate-private) `orchestrate` loop owns a run's server side. It
//! builds the server state once — the tuned learning rate, one server model
//! with one gradient buffer, one defense value from `cfg.defense` — and then
//! does everything the server does per round: cohort selection, attack
//! crafting, defense dispatch, the model update, periodic evaluation. It
//! talks to data-holding clients *exclusively* through the [`Transport`]
//! trait: broadcast the model to the round's members, collect their uploads
//! (already folded through the server-supplied closure), and publish the
//! final summary.
//!
//! Two implementations exist:
//!
//! * [`InProcessTransport`] — the in-memory path every simulation run uses.
//!   It hosts every data member and folds in contiguous cohort shards (one
//!   per rayon thread), one [`KsScratch`] per shard, sequentially within a
//!   shard, results concatenated in shard order. Bit-identical at any
//!   thread count.
//! * `WireTransport` (in [`crate::serving`]) — the wire path behind
//!   `dpbfl-server`/`dpbfl-client`, speaking the `dpbfl-transport` frame
//!   protocol over TCP or Unix-domain sockets.
//!
//! Either way a member's upload is made by the crate-private `Hosted`, which
//! the in-process transport builds for every data member and a serving
//! client for its claim.
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

use crate::aggregator::AggregatorKind;
use crate::aggregator_ext::fltrust;
use crate::attack::{craft_uploads_stateful, AttackContext, AttackState, ByzantineData};
use crate::baseline::majority_vote;
use crate::config::{DpSgdConfig, StepNormalization, UploadRetention};
use crate::first_stage::{CheckInfo, FirstStage, FirstStageVerdict, KsScratch};
use crate::second_stage::{SecondStage, SelectionResult};
use crate::simulation::{
    data_members, data_worker_count, pooled_shards, round_cohort, worker_seed, DefenseKind,
    DefenseStats, EvalPoint, PreparedRun, Provisioning, RunResult, RunSummary, SimulationConfig,
    WorkerProtocol,
};
use crate::tuning::transfer_lr;
use crate::worker::DpWorker;
use dpbfl_data::{flip_labels, sample_auxiliary, sample_batch, Dataset, SyntheticSpec};
use dpbfl_dp::EpsilonSchedule;
use dpbfl_nn::{accuracy, CrossEntropyLoss, Sequential};
use dpbfl_telemetry::{RoundMetrics, Telemetry};
use dpbfl_tensor::quant::QuantizedVec;
use dpbfl_tensor::vecops;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

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

/// The in-memory transport: hosts every data member of the run, and steps
/// and folds a round's members in shards (`fold_in_shards`, the
/// determinism-critical recipe). Verdicts and scores are pure functions of
/// the upload bits, so the merge is independent of thread count.
pub struct InProcessTransport<'a> {
    cfg: &'a SimulationConfig,
    hosted: Hosted,
}

impl<'a> InProcessTransport<'a> {
    /// Hosts every dealt partition of `prep` (every data member on demand).
    /// `dp` must be the σ-resolved worker config (see
    /// [`crate::simulation::resolve_sigma`]).
    pub fn new(cfg: &'a SimulationConfig, prep: &PreparedRun, dp: &DpSgdConfig) -> Self {
        let every = (0..prep.parts.len()).collect();
        let hosted = Hosted::new(cfg, dp, &prep.parts, &every).expect("every partition is dealt");
        InProcessTransport { cfg, hosted }
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
/// Shared by the pooled and the on-demand worker builders, so every worker
/// of a member is built bit-identically.
pub(crate) fn member_flips(cfg: &SimulationConfig, index: usize) -> bool {
    index >= cfg.n_honest && cfg.attack.byzantine_data() == ByzantineData::Flipped
}

/// Builds the long-lived worker of global index `index` from its pooled
/// training shard (from [`crate::simulation::pooled_shards`]): honest below
/// `n_honest`, label-flipped above (when the attack poisons its members'
/// data — see [`member_flips`]).
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

/// The data members one process hosts — every dealt partition in process, a
/// serving client's claim — and the one place their uploads are made, so
/// both transports send the same bytes by construction.
///
/// Built once per process: the model template, the σ-resolved worker config
/// and, by provisioning, either one long-lived worker per hosted member
/// (pooled: its RNG and momentum evolve across rounds) or the dataset's class
/// prototypes a member's worker is rebuilt from each round (on demand).
pub(crate) struct Hosted {
    recipe: Recipe,
    /// Long-lived workers by global index (pooled; empty on demand).
    pool: BTreeMap<usize, DpWorker>,
}

/// What every hosted member's step reads.
struct Recipe {
    cfg: SimulationConfig,
    dp: DpSgdConfig,
    template: Sequential,
    /// The dataset's class prototypes (on demand; empty when pooled).
    prototypes: Vec<Vec<f32>>,
}

impl Hosted {
    /// Hosts the data members `claim` under the partition `parts` from
    /// [`crate::simulation::deal`]. Pooled, each member's worker is built now
    /// from its shard, and `Err` names the first claimed worker that is no
    /// index of `parts`; on demand `parts` is empty and every member is hosted.
    pub(crate) fn new(
        cfg: &SimulationConfig,
        dp: &DpSgdConfig,
        parts: &[Vec<usize>],
        claim: &BTreeSet<usize>,
    ) -> Result<Hosted, usize> {
        let template = init_model(cfg);
        let (pool, prototypes) = match cfg.provisioning {
            Provisioning::Pooled => {
                if let Some(&w) = claim.iter().find(|&&w| w >= parts.len()) {
                    return Err(w);
                }
                let pool = pooled_shards(cfg, parts, claim)
                    .into_iter()
                    .map(|(w, shard)| (w, data_worker(cfg, shard, dp, &template, w)))
                    .collect();
                (pool, Vec::new())
            }
            Provisioning::OnDemand => (BTreeMap::new(), cfg.dataset.prototypes()),
        };
        let recipe = Recipe { cfg: cfg.clone(), dp: dp.clone(), template, prototypes };
        Ok(Hosted { recipe, pool })
    }

    /// One round's `members` (global indices, ascending), in member order.
    /// `Err` names the first member a pooled process does not host.
    pub(crate) fn round(&mut self, members: &[usize]) -> Result<Vec<Member<'_>>, usize> {
        let (recipe, pool) = (&self.recipe, &mut self.pool);
        let pooled = recipe.cfg.provisioning == Provisioning::Pooled;
        if let Some(&m) = members.iter().find(|m| pooled && !pool.contains_key(m)) {
            return Err(m);
        }
        // The pool and `members` both ascend, so filtering keeps order.
        let mut cohort = pool.iter_mut().filter(|(k, _)| members.binary_search(k).is_ok());
        let member = |index| Member { recipe, index, worker: cohort.next().map(|(_, w)| w) };
        Ok(members.iter().copied().map(member).collect())
    }
}

/// One hosted member in one round.
pub(crate) struct Member<'h> {
    recipe: &'h Recipe,
    pub(crate) index: usize,
    /// The member's long-lived worker (pooled; `None` on demand).
    worker: Option<&'h mut DpWorker>,
}

impl Member<'_> {
    /// The member's upload for round `t` at `params`, or `None` when it is
    /// `withheld` — as every upload of a replayed round is. A pooled member
    /// steps either way: its RNG and momentum must evolve exactly as on a
    /// client that steps and skips the send. A withheld on-demand member is
    /// not even built.
    pub(crate) fn upload(&mut self, t: usize, params: &[f32], withheld: bool) -> Option<Vec<f32>> {
        let Recipe { cfg, dp, template, prototypes } = self.recipe;
        let mut built;
        let w = match self.worker.as_deref_mut() {
            Some(w) => w,
            None if withheld => return None,
            None => {
                built = on_demand_worker(cfg, template, dp, prototypes, self.index, t);
                &mut built
            }
        };
        let upload = match cfg.protocol {
            // Plain is Algorithm 1 with σ = 0: the worker's noise multiplier
            // is already zero for such runs.
            WorkerProtocol::PaperDp | WorkerProtocol::Plain => w.local_step(params),
            WorkerProtocol::ClippedDp { clip } => w.clipped_dp_step(params, clip),
            WorkerProtocol::SignDp { flip_prob, .. } => w.sign_step(params, flip_prob),
        };
        (!withheld).then_some(upload)
    }
}

impl Transport for InProcessTransport<'_> {
    /// Steps and folds the round's data members in one `fold_in_shards`
    /// call. A member the serving fault plan withholds yields
    /// [`Collected::Dropped`], just like a deadline miss over the wire: its
    /// upload never reaches `fold`, which feeds defense state downstream.
    fn round_trip(
        &mut self,
        round: usize,
        members: &[usize],
        params: &[f32],
        fold: &UploadFold<'_>,
    ) -> Vec<Collected> {
        let cfg = self.cfg;
        let mut cohort = self.hosted.round(members).expect("every data member is hosted");
        fold_in_shards(&mut cohort, |member, scratch| {
            match member.upload(round, params, plan_withholds(cfg, member.index, round)) {
                Some(upload) => fold(upload, scratch),
                None => Collected::Dropped,
            }
        })
    }
}

/// Whether the run's serving fault plan withholds `(member, round)`'s
/// upload. Mirrored bit-exactly by the wire client (which adopts the plan
/// from the server's `Welcome` config), so served and in-process runs build
/// the same accepted set under the same schedule. A `deadline_ms` of
/// `Some(0)` withholds everything: over the wire no upload can beat a zero
/// deadline, because nothing is queued before the round broadcast.
fn plan_withholds(cfg: &SimulationConfig, member: usize, round: usize) -> bool {
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

/// Runs one full experiment against `transport` and returns its summary,
/// published to the clients first.
///
/// `dp` is the σ-resolved worker config and `delta` the accountant's δ
/// (both from [`crate::simulation::calibrated_dp`]); `prep` must come from
/// [`crate::simulation::prepare`] on a config with `cfg`'s cache key. The
/// loop owns the run's server side, built once here: the tuned learning
/// rate, one server model with one gradient buffer, one [`Defense`] value
/// for `cfg.defense`, and — for telemetry only — the cumulative-ε schedule,
/// cached outside the loop so the per-round ε annotation is a cheap RDP→(ε,
/// δ) conversion instead of a re-derived RDP curve.
///
/// Every round is collect → craft → defend/update → observe → eval. The
/// two-stage defense is one pipeline, [`fold_upload`] per upload then
/// [`select`] and [`apply_selected`] per round, with two fold *timings*: an
/// attack that reads the cohort ([`crate::attack::AttackSpec::reads_cohort`])
/// must see the raw uploads first, so its rounds collect, craft, then fold
/// ([`fold_in_shards`], as the transport does); every other round folds each
/// upload as it arrives, inside the transport, and holds only stage-1
/// survivors. The timing is read from the attack spec alone and moves no
/// bit: the fold is a pure function of the upload.
///
/// Telemetry is collected *after* the fold's shard merge, sequentially in
/// cohort order, so the deterministic counters are bit-identical at any
/// thread count; with [`Telemetry::null`] no record is ever constructed and
/// the loop is byte-identical to a telemetry-free build.
pub(crate) fn orchestrate(
    cfg: &SimulationConfig,
    prep: &PreparedRun,
    transport: &mut dyn Transport,
    tel: &Telemetry,
    dp: &DpSgdConfig,
    delta: f64,
) -> RunResult {
    cfg.check().unwrap_or_else(|problems| panic!("unrunnable config: {}", problems.join("; ")));
    assert_eq!(data_worker_count(cfg), prep.parts.len(), "prepared data does not match config");
    let sigma = dp.noise_multiplier;
    // Claim 6: the base learning rate, tuned at σ_b, transfers as η_b·σ_b/σ.
    // Sign-DP steps along the vote at its own rate.
    let lr = match cfg.protocol {
        WorkerProtocol::SignDp { lr, .. } => lr,
        _ if sigma > 0.0 => transfer_lr(cfg.base_lr, cfg.base_sigma, sigma),
        _ => cfg.base_lr,
    };
    // One server model serves evaluation, the stage-2 gradient and FLTrust's
    // trust gradient. Sharing it moves no bit: every use sets `params`
    // first, the gradient zeroes its accumulators, and every forward pass
    // rewrites the layer caches.
    let mut model = init_model(cfg);
    let mut params = model.params();
    let d = params.len();
    let mut grad = vec![0.0f32; d];
    let mut defense = Defense::new(cfg, prep, dp, d);
    let eps_schedule = (tel.enabled() && sigma > 0.0 && delta > 0.0).then(|| {
        let q_batch = cfg.dp.batch_size as f64 / cfg.per_worker as f64;
        EpsilonSchedule::new(cfg.sampling, q_batch, sigma, delta)
    });

    let n_data = data_members(cfg);
    // An attack that reads the cohort must see the raw uploads before the
    // defense folds them; every other two-stage round folds at arrival.
    let reads_cohort = cfg.attack.reads_cohort();
    let iterations = cfg.iterations();
    let mut history = Vec::new();
    let mut stats = DefenseStats::default();
    let mut attack_rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0xa77ac4));
    // Cross-round attacker state: created once per run, fed the defense's
    // observable output (the stage-1 acceptance count) after every round.
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
        // transport: the server's clean gradient first (Algorithm 3 line 4,
        // the round's first `stage2` span), so every upload can be scored
        // the moment it survives the first stage. The gradient is RNG-free
        // and reads only `params`, which no worker mutates, so *when* a
        // round opens moves no bit.
        let at_arrival = match &defense {
            Defense::TwoStage { first, aux, .. } if !reads_cohort => {
                let timer = tel.start();
                let server_grad = server_gradient(&mut model, aux, &params, &mut grad);
                tel.stop(timer, "stage2", round);
                Some(move |u, s: &mut KsScratch| fold_upload(first, cfg, u, s, server_grad))
            }
            _ => None,
        };

        // ---- collect: one slot per data member, folded already or raw ----
        let timer = tel.start();
        let mut slots = match &at_arrival {
            Some(fold) => transport.round_trip(t, data_members, &params, fold),
            None => transport.round_trip(t, data_members, &params, &|u, _| Collected::Upload(u)),
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
            // A member the attack crafts nothing for (`AttackSpec::None`)
            // never delivers, like a withheld upload.
            let mut scratch = KsScratch::new();
            for _ in &cohort[data_members.len()..] {
                let upload = craft(&unseen).pop();
                slots.push(upload.map_or(Collected::Dropped, |u| fold(u, &mut scratch)));
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
            // A member the attack crafts nothing for (`AttackSpec::None`)
            // never delivers, so it contributes the zero vector too.
            uploads.resize(cohort.len(), vec![0.0f32; d]);
        }
        tel.stop(timer, "attack", round);

        // ---- defend + update --------------------------------------------
        // Each arm reports the round's stage-1 acceptance count — the
        // defense's public output that the acceptance-rate-adaptive attacker
        // observes (identical to the telemetry record's `accepted` counter).
        let n = cohort.len();
        // A defense without a per-upload filter aggregates the whole cohort's
        // raw uploads (`aggregate` also reads the pre-step params) and steps
        // along the result. It accepts the whole cohort, and its telemetry
        // records exactly that, with no stage-1/stage-2 breakdown.
        let refs: Vec<&[f32]> = uploads.iter().map(Vec::as_slice).collect();
        let mut whole_cohort = |aggregate: &mut dyn FnMut(&[f32]) -> Vec<f32>| {
            if let Some(m) = &mut metrics {
                m.accepted = n as u64;
                m.selected = n as u64;
                m.retained_exact_bytes = (n * d * 4) as u64;
            }
            let timer = tel.start();
            let g = aggregate(&params);
            vecops::axpy(-(lr as f32), &g, &mut params);
            tel.stop(timer, "aggregate", round);
            n as u64
        };
        let accepted = match &mut defense {
            Defense::Mean => {
                whole_cohort(&mut |_| vecops::mean(&refs).expect("at least one worker"))
            }
            Defense::Robust(rule) => whole_cohort(&mut |_| rule.aggregate(&uploads)),
            Defense::Vote => whole_cohort(&mut |_| majority_vote(&refs)),
            Defense::FlTrust { aux } => whole_cohort(&mut |params| {
                fltrust(&refs, server_gradient(&mut model, aux, params, &mut grad))
            }),
            Defense::TwoStage { first, second, aux } => {
                if reads_cohort {
                    // The crafted cohort goes through the same fold, in the
                    // same recipe the transport uses at arrival. A data
                    // member that never delivered stays dropped, whatever
                    // the attacker crafted in its name.
                    let timer = tel.start();
                    let server_grad = server_gradient(&mut model, aux, &params, &mut grad);
                    tel.stop(timer, "stage2", round);
                    let first = &*first;
                    let timer = tel.start();
                    let gone = slots.iter().map(|s| matches!(s, Collected::Dropped));
                    let mut raw: Vec<_> =
                        uploads.into_iter().zip(gone.chain(std::iter::repeat(false))).collect();
                    slots = fold_in_shards(&mut raw, |(upload, gone), scratch| {
                        if *gone {
                            Collected::Dropped
                        } else {
                            fold_upload(first, cfg, std::mem::take(upload), scratch, server_grad)
                        }
                    });
                    tel.stop(timer, "stage1", round);
                }
                debug_assert_eq!(slots.len(), n);
                let (accepted, selection) =
                    select(cfg, second, &cohort, &slots, &mut stats, tel, metrics.as_mut());
                let timer = tel.start();
                apply_selected(cfg, &cohort, &slots, &selection, lr, &mut params);
                tel.stop(timer, "aggregate", round);
                accepted
            }
        };

        // ---- observe ----------------------------------------------------
        // Stamp the scale the attacker used this round (before the feedback
        // step advances it), then let the attacker observe the defense's
        // acceptance count — the cross-round feedback loop.
        if let Some(m) = &mut metrics {
            m.attack_scale = attack_state.round_scale();
        }
        attack_state.observe(accepted, n as u64);

        // Publish the round's deterministic counters, stamped with the
        // cumulative achieved ε through this round.
        if let Some(mut m) = metrics {
            if let Some(schedule) = &eps_schedule {
                m.achieved_epsilon = Some(schedule.epsilon_at((t + 1) as u64));
            }
            tel.round(m);
        }

        // ---- eval -------------------------------------------------------
        history.extend(evaluate(cfg, t, &mut model, &params, &prep.test, tel));
    }

    let final_accuracy = history.last().map(|p| p.accuracy).unwrap_or(0.0);
    let summary =
        RunSummary { final_accuracy, sigma, lr, iterations, delta, defense_stats: stats, history };
    transport.publish_summary(&summary);
    summary
}

/// The evaluation schedule: test accuracy after every `cfg.eval_every`-th
/// round (`0` = once per epoch) and after the last one. Evaluates `model` at
/// `params` on `test` (an `eval` span) when round `t` (0-based) is due;
/// `None` otherwise.
fn evaluate(
    cfg: &SimulationConfig,
    t: usize,
    model: &mut Sequential,
    params: &[f32],
    test: &Dataset,
    tel: &Telemetry,
) -> Option<EvalPoint> {
    let every = if cfg.eval_every > 0 {
        cfg.eval_every
    } else {
        (cfg.per_worker / cfg.dp.batch_size).max(1)
    };
    if !(t + 1).is_multiple_of(every) && t + 1 != cfg.iterations() {
        return None;
    }
    let timer = tel.start();
    model.set_params(params);
    let accuracy = accuracy(model, &test.features, &test.labels);
    tel.stop(timer, "eval", Some(t as u64));
    Some(EvalPoint {
        iteration: t + 1,
        epoch: (t + 1) as f64 * cfg.dp.batch_size as f64 / cfg.per_worker as f64,
        accuracy,
    })
}

/// The server's defense, built once per run from `cfg.defense` (and, for
/// sign-DP, `cfg.protocol`).
enum Defense {
    /// Plain averaging of the whole cohort (Reference Accuracy / undefended).
    Mean,
    /// A classical robust rule over the whole cohort.
    Robust(AggregatorKind),
    /// Sign-DP's server rule: the coordinate-wise majority vote of the whole
    /// cohort's upload signs.
    Vote,
    /// FLTrust: cosine-trust weighting of the whole cohort against the
    /// server's gradient on `aux`.
    FlTrust { aux: Dataset },
    /// The paper's two stages; the second scores each survivor against the
    /// server's gradient on `aux`.
    TwoStage { first: FirstStage, second: SecondStage, aux: Dataset },
}

impl Defense {
    /// The state `cfg.defense` needs for a `d`-parameter model under the
    /// σ-resolved `dp`. An auxiliary set is drawn off the master stream
    /// right where `prepare`'s partition left it, from the validation pool —
    /// or, for the two stages under `ood_auxiliary`, from a pool of another
    /// data space (supp. Table 17).
    fn new(cfg: &SimulationConfig, prep: &PreparedRun, dp: &DpSgdConfig, d: usize) -> Self {
        let mut master = prep.master.clone();
        let defense = &cfg.defense_cfg;
        let mut aux = |pool: &Dataset| sample_auxiliary(&mut master, pool, defense.aux_per_class);
        match cfg.defense {
            DefenseKind::NoDefense if matches!(cfg.protocol, WorkerProtocol::SignDp { .. }) => {
                Defense::Vote
            }
            DefenseKind::NoDefense => Defense::Mean,
            DefenseKind::Robust { rule } => Defense::Robust(rule),
            DefenseKind::FlTrust => Defense::FlTrust { aux: aux(&prep.validation) },
            DefenseKind::TwoStage => {
                let ood;
                let pool = if cfg.ood_auxiliary {
                    let seed = cfg.seed.wrapping_add(0xbad);
                    ood = SyntheticSpec::kmnist_like().generate(prep.validation.len(), seed);
                    &ood
                } else {
                    &prep.validation
                };
                Defense::TwoStage {
                    first: FirstStage::new(
                        dp.effective_noise_std(),
                        d,
                        defense.ks_significance,
                        defense.norm_test_stds,
                    ),
                    second: SecondStage::with_rules(
                        cfg.n_total(),
                        defense.gamma,
                        defense.scoring,
                        defense.weighting,
                    ),
                    aux: aux(pool),
                }
            }
        }
    }
}

/// The server's gradient on its auxiliary set `aux` at `params`, written
/// into `grad`: one batched forward/backward over the set's already packed
/// feature matrix.
fn server_gradient<'g>(
    model: &mut Sequential,
    aux: &Dataset,
    params: &[f32],
    grad: &'g mut [f32],
) -> &'g [f32] {
    model.set_params(params);
    model.batch_gradient_packed(&CrossEntropyLoss, &aux.features, &aux.labels, grad);
    grad
}

/// A two-stage round's bookkeeping and second-stage selection, from its
/// folded slots (one per cohort member, in cohort order). Returns the
/// stage-1 acceptance count and the selection on the precomputed scores.
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
///   zeroed vector of Algorithm 2 gives, and [`apply_selected`] skips it,
///   which skips only exact `+ w·0.0` terms (the `f64` accumulator never
///   holds `-0.0`, so those additions are bit-exact no-ops);
/// * a member that never delivered ([`Collected::Dropped`]) is the same
///   rejection, except that the first stage never saw it: no
///   [`CheckInfo`], and telemetry counts it as dropped in transit.
fn select(
    cfg: &SimulationConfig,
    second: &mut SecondStage,
    cohort: &[usize],
    slots: &[Collected],
    stats: &mut DefenseStats,
    tel: &Telemetry,
    mut metrics: Option<&mut RoundMetrics>,
) -> (u64, SelectionResult) {
    let round = metrics.as_ref().map(|m| m.round);
    // Bookkeeping + full-length round scores, in cohort (= global index)
    // order. The telemetry counters accumulate in the same sequential
    // pass — after the shard merge, so they inherit its thread-count
    // independence.
    let mut accepted = 0u64;
    let mut round_scores = vec![0.0f64; second.accumulated_scores().len()];
    for (&i, slot) in cohort.iter().zip(slots) {
        let (score, retained, info) = match slot {
            Collected::Scored(score, retained, info) => (*score, retained, *info),
            Collected::Dropped => (0.0, &Retained::Rejected, None),
            Collected::Upload(_) => unreachable!("every slot is folded before the selection"),
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
    let selection = second.select_scored(cohort, round_scores);
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
    (accepted, selection)
}

/// The two-stage model update `w ← w − η·(1/n)·Σ_{g∈G} g` (Algorithm 1
/// line 14), weighted per `selection`, from the selected survivors retained
/// in `slots`. `n` is the round's participant count — at full participation
/// the total worker count, as the paper writes it.
fn apply_selected(
    cfg: &SimulationConfig,
    cohort: &[usize],
    slots: &[Collected],
    selection: &SelectionResult,
    lr: f64,
    params: &mut [f32],
) {
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

/// Builds the ephemeral worker of client `index` for one round (on-demand
/// provisioning). The client's local shard is a pure function of the master
/// seed and its index — stable across rounds — while its per-round DP stream
/// is `worker_seed(worker_seed(seed, index), round)`; momentum starts cold
/// each participation.
///
/// Its one caller, [`Member::upload`], steps the worker exactly once and
/// drops it, so the shard holds pixels only for the rows that one step
/// reads: its batch is the first draw of the DP stream (`sample_batch` opens
/// [`DpWorker::local_step`], [`DpWorker::clipped_dp_step`] and
/// [`DpWorker::sign_step`] alike), drawn
/// here from a copy of the stream before the shard exists. Every other row
/// is zero; every label is present. `prototypes` is
/// `cfg.dataset.prototypes()`, built once per [`Hosted`].
pub(crate) fn on_demand_worker(
    cfg: &SimulationConfig,
    model: &Sequential,
    dp: &DpSgdConfig,
    prototypes: &[Vec<f32>],
    index: usize,
    round: usize,
) -> DpWorker {
    let data_seed = worker_seed(cfg.seed.wrapping_add(0xda7a), index);
    let dp_seed = worker_seed(worker_seed(cfg.seed, index), round);
    let batch = sample_batch(&mut StdRng::seed_from_u64(dp_seed), cfg.per_worker, dp.batch_size);
    let mut data =
        cfg.dataset.generate_rows(prototypes, cfg.per_worker, data_seed, |i| batch.contains(&i));
    if member_flips(cfg, index) {
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
                let lazy = || on_demand_worker(&cfg, &template, &cfg.dp, &prototypes, i, t);
                let eager = || eager_worker(&cfg, &template, i, t);
                assert_eq!(lazy().data().labels, eager().data().labels, "b_c {b_c}, client {i}");
                let (got, want) = (lazy().local_step(&params), eager().local_step(&params));
                assert_eq!(bits(&got), bits(&want), "local_step, b_c {b_c}, client {i}");
                let (got, want) =
                    (lazy().clipped_dp_step(&params, 0.5), eager().clipped_dp_step(&params, 0.5));
                assert_eq!(bits(&got), bits(&want), "clipped_dp_step, b_c {b_c}, client {i}");
                let (got, want) =
                    (lazy().sign_step(&params, 0.25), eager().sign_step(&params, 0.25));
                assert_eq!(bits(&got), bits(&want), "sign_step, b_c {b_c}, client {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "larger than population")]
    fn on_demand_shard_smaller_than_the_batch_fails_loudly() {
        let (cfg, template) = on_demand_cfg(65);
        on_demand_worker(&cfg, &template, &cfg.dp, &cfg.dataset.prototypes(), 0, 0);
    }
}
