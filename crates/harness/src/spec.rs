//! The declarative scenario format: a base [`SimulationConfig`] plus sweep
//! axes, expanded into a cartesian grid of runnable cells.
//!
//! A [`ScenarioSpec`] is plain JSON on disk (`dpbfl-exp validate <file>`
//! checks one), so a paper table — attack × defense × Byzantine-fraction ×
//! ε — is a config artifact instead of a hand-coded Rust binary. Every cell
//! carries a content-hashed [`Cell::key`] over its fully resolved config:
//! the JSONL result sink uses it to skip completed cells on `--resume`, and
//! it is stable across spec edits that leave the cell itself unchanged.

use dpbfl::prelude::*;
use dpbfl::simulation::worker_seed;
use serde::{Deserialize, Serialize, Value};

/// How the grid assigns each cell's master RNG seed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeedPolicy {
    /// Every cell runs with this exact seed — the paper-table style: all
    /// cells see the same data, and columns differ only in the swept axes
    /// (this is also what lets cells share one data preparation).
    Fixed {
        /// The seed every cell uses.
        seed: u64,
    },
    /// Cell `i` runs with `worker_seed(master, i)` — the PR-1 derivation
    /// scheme lifted to the grid level, giving statistically independent
    /// cells that stay bit-reproducible at any thread count. Note for
    /// `--resume`: the seed is part of a cell's content key, so spec edits
    /// that shift cell indices reseed (and recompute) the shifted cells.
    PerCell {
        /// The grid's master seed.
        master: u64,
    },
    /// Adds a repeat axis: every cell of repeat `r` runs with
    /// `worker_seed(master, r)`, so repeats are independent draws while the
    /// cells within one repeat still share data (and data preparation).
    Repeats {
        /// The grid's master seed.
        master: u64,
        /// Number of repeats (the extra axis length).
        repeats: usize,
    },
    /// Like [`SeedPolicy::Repeats`], but with the seeds given **verbatim**:
    /// repeat `r` runs every cell with `seeds[r]`. This is the paper's own
    /// policy — its tables average over the literal seeds {1, 2, 3} — and
    /// the only way to reproduce such runs exactly, since derived schemes
    /// cannot hit chosen seed values. Cells carry a `seed` axis labeled
    /// with the seed value.
    List {
        /// The exact master seeds, one repeat per entry.
        seeds: Vec<u64>,
    },
}

/// The sweep axes. Every axis is optional: an omitted (or `null`) axis keeps
/// the base config's value; a present axis multiplies the grid by its length.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GridSpec {
    /// Network architectures to sweep.
    pub models: Option<Vec<ModelKind>>,
    /// Attacks to sweep.
    pub attacks: Option<Vec<AttackSpec>>,
    /// Server defenses to sweep.
    pub defenses: Option<Vec<DefenseKind>>,
    /// Byzantine worker counts to sweep.
    pub n_byzantine: Option<Vec<usize>>,
    /// Server honest-fraction beliefs γ to sweep.
    pub gammas: Option<Vec<f64>>,
    /// Privacy targets ε to sweep (`null` entries mean "no ε target: use the
    /// configured noise multiplier as-is").
    pub epsilons: Option<Vec<Option<f64>>>,
    /// Data distributions to sweep (`true` = i.i.d., `false` = Algorithm 4).
    pub iid: Option<Vec<bool>>,
    /// Worker upload protocols to sweep — the paper's protocol vs the
    /// \[30\]-style clipped DP-SGD vs the non-private ablation vs the
    /// \[77\]-style sign-DP substrate ([`WorkerProtocol::SignDp`] dispatches
    /// to its own majority-vote loop).
    pub protocols: Option<Vec<WorkerProtocol>>,
    /// Dataset families to sweep, by name ([`SyntheticSpec::by_name`]):
    /// `mnist-like`, `fashion-like`, `usps-like`, `colorectal-like`,
    /// `kmnist-like`. Names are validated at parse time.
    pub datasets: Option<Vec<String>>,
    /// Per-round client sampling fractions `q ∈ (0, 1]` to sweep
    /// (`1` = full participation). Values are validated at parse time —
    /// the fraction feeds both the cohort sampler and the amplification
    /// accountant, which refuses to extrapolate beyond `q = 1`.
    pub samplings: Option<Vec<f64>>,
    /// Serving round deadlines (ms) to sweep. Each value lands in
    /// `base.serving.deadline_ms` (creating the [`ServingSpec`] when the
    /// base has none), where it overrides the server operator's
    /// `RoundPolicy`. `0` is a defined policy — "collect only what is
    /// already queued" — not a degenerate one.
    pub deadlines_ms: Option<Vec<u64>>,
    /// Fault-injection flaky percentages to sweep. Each value lands in
    /// `base.serving.fault.flaky_pct`: the per-(worker, round) probability
    /// (in percent) that an upload is withheld, drawn deterministically
    /// from the fault seed so the wire run and its in-process reference
    /// withhold the identical set.
    pub flaky_pcts: Option<Vec<f64>>,
    /// Labeled one-off rows appended after the cartesian cells. Each entry
    /// overrides a handful of base-config fields at once — the shape of the
    /// paper's method-comparison tables (Tables 1 and 3), whose rows vary
    /// protocol, defense and privacy level *jointly* and therefore cannot
    /// be a cartesian product. When `include` is the only thing present
    /// (no swept axis), the grid consists of exactly these rows; when axes
    /// are swept too, the rows ride along after the cartesian block.
    pub include: Option<Vec<IncludeRow>>,
}

/// One labeled row of a method-comparison grid: a named bundle of
/// base-config overrides (see [`GridSpec::include`]). Only the fields set
/// here change; everything else comes from the scenario's base config. The
/// row's cells carry a single `row` axis with this label.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IncludeRow {
    /// Row label (the `row` axis value in reports; must be unique).
    pub label: String,
    /// Override the dataset family, by [`SyntheticSpec::by_name`] name.
    pub dataset: Option<String>,
    /// Override the network architecture.
    pub model: Option<ModelKind>,
    /// Override the attack.
    pub attack: Option<AttackSpec>,
    /// Override the server defense.
    pub defense: Option<DefenseKind>,
    /// Override the worker upload protocol.
    pub protocol: Option<WorkerProtocol>,
    /// Override the honest worker count.
    pub n_honest: Option<usize>,
    /// Override the Byzantine worker count.
    pub n_byzantine: Option<usize>,
    /// Override the server's honest-fraction belief γ.
    pub gamma: Option<f64>,
    /// Override the privacy target to `Some(ε)`.
    pub epsilon: Option<f64>,
    /// Drop the ε target and pin the noise multiplier σ directly (the
    /// non-private robust-baseline rows use `0.0`). Applied after
    /// `epsilon`, so setting both leaves the ε target cleared.
    pub fixed_sigma: Option<f64>,
    /// Override the per-round client sampling fraction `q ∈ (0, 1]`.
    pub sampling: Option<f64>,
    /// Override the data distribution (`true` = i.i.d., `false` = Algorithm 4).
    pub iid: Option<bool>,
    /// Override the base learning rate η_b (the run scales it by σ_b/σ).
    pub base_lr: Option<f64>,
    /// Override whether the server's auxiliary data comes from a different
    /// data space (supp. Table 17).
    pub ood_auxiliary: Option<bool>,
    /// Replace the whole defense configuration. Applied before `gamma`, so
    /// a row may set both.
    pub defense_cfg: Option<DefenseConfig>,
    /// Replace the whole worker DP-SGD configuration. Applied before
    /// `fixed_sigma`, so a row may set both.
    pub dp: Option<DpSgdConfig>,
}

impl IncludeRow {
    /// The row's present overrides, as settings, in application order.
    /// `defense_cfg` comes before `gamma`, so a row may set both; `epsilon`
    /// comes before `fixed_sigma`, which clears the ε target.
    pub(crate) fn settings(&self) -> Vec<AxisSetting> {
        [
            self.defense_cfg.clone().map(AxisSetting::DefenseCfg),
            self.dp.clone().map(AxisSetting::Dp),
            self.dataset.clone().map(AxisSetting::Dataset),
            self.model.map(AxisSetting::Model),
            self.attack.clone().map(AxisSetting::Attack),
            self.defense.clone().map(AxisSetting::Defense),
            self.protocol.map(AxisSetting::Protocol),
            self.n_honest.map(AxisSetting::Honest),
            self.n_byzantine.map(AxisSetting::Byzantine),
            self.gamma.map(AxisSetting::Gamma),
            self.epsilon.map(|eps| AxisSetting::Epsilon(Some(eps))),
            self.fixed_sigma.map(AxisSetting::FixedSigma),
            self.sampling.map(AxisSetting::Sampling),
            self.iid.map(AxisSetting::Partition),
            self.base_lr.map(AxisSetting::BaseLr),
            self.ood_auxiliary.map(AxisSetting::OodAuxiliary),
        ]
        .into_iter()
        .flatten()
        .collect()
    }
}

/// Resolves a dataset family name, panicking with a actionable message on
/// an unknown name (parse-time checks and [`ScenarioSpec::validate`] both
/// reject unknown names before any expansion path can reach this).
fn resolve_dataset(name: &str) -> SyntheticSpec {
    SyntheticSpec::by_name(name).unwrap_or_else(|| {
        panic!(
            "unknown dataset family `{name}` (expected one of: {}); validate the spec first",
            SyntheticSpec::family_names().join(", ")
        )
    })
}

/// A full declarative experiment: metadata + base config + sweep axes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Stable identifier (`paper/attack_showdown` style).
    pub name: String,
    /// One-line human title for reports.
    pub title: String,
    /// Free-form notes (what the grid shows, where it comes from in the
    /// paper).
    pub notes: String,
    /// Seed assignment policy.
    pub seed: SeedPolicy,
    /// The configuration every cell starts from.
    pub base: SimulationConfig,
    /// The sweep axes applied on top of `base`.
    pub grid: GridSpec,
}

/// One expanded grid cell: a fully resolved config plus its provenance.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Position in the expansion order (row-major over the axes).
    pub index: usize,
    /// Content hash of the resolved config (the resume/sink key).
    pub key: String,
    /// The fully resolved configuration this cell runs.
    pub config: SimulationConfig,
    /// `(axis, value label)` pairs for the swept axes, in axis order.
    pub axes: Vec<(String, String)>,
}

impl Cell {
    /// The label this cell carries for a swept axis (`None` when the axis
    /// is not swept).
    pub fn axis(&self, name: &str) -> Option<&str> {
        self.axes.iter().find(|(axis, _)| axis == name).map(|(_, label)| label.as_str())
    }
}

impl ScenarioSpec {
    /// The grid's include rows (empty slice when absent).
    fn include_rows(&self) -> &[IncludeRow] {
        self.grid.include.as_deref().unwrap_or(&[])
    }

    /// The length of the repeat/seed axis (1 when there is none).
    fn repeats(&self) -> usize {
        match &self.seed {
            SeedPolicy::Repeats { repeats, .. } => *repeats,
            SeedPolicy::List { seeds } => seeds.len(),
            _ => 1,
        }
    }

    /// One repeat's cells, as the settings each applies to the base plus
    /// the include row it comes from (`None` for a cartesian cell). The
    /// cartesian combinations come first — later axes vary fastest, the
    /// nested-loop order — and are left out when `include` rows are present
    /// and *no* axis is swept: then the grid is exactly the row list (a pure
    /// method-comparison table) and no bare base cell is emitted.
    fn recipes(&self) -> Vec<(Vec<AxisSetting>, Option<&str>)> {
        let axes = self.swept_axes();
        let rows = self.include_rows();
        let mut combos: Vec<Vec<AxisSetting>> = Vec::new();
        if !axes.is_empty() || rows.is_empty() {
            combos.push(Vec::new());
            for (_, axis) in &axes {
                combos = combos
                    .iter()
                    .flat_map(|combo| {
                        axis.iter().map(move |value| {
                            let mut combo = combo.clone();
                            combo.push(value.clone());
                            combo
                        })
                    })
                    .collect();
            }
        }
        let mut recipes: Vec<_> = combos.into_iter().map(|combo| (combo, None)).collect();
        recipes.extend(rows.iter().map(|row| (row.settings(), Some(row.label.as_str()))));
        recipes
    }

    /// The swept axes in expansion order, each with its [`GridSpec`] field
    /// name: model, attack, defense, `n_byzantine`, γ, ε, partition,
    /// protocol, dataset, sampling, deadline, flaky. Omitted axes contribute
    /// nothing. This is the one place the axes are enumerated — cell
    /// expansion, [`ScenarioSpec::n_cells`], the validator's emptiness check
    /// and the generated catalog all read it.
    pub(crate) fn swept_axes(&self) -> Vec<(&'static str, Vec<AxisSetting>)> {
        fn axis<T: Clone>(
            field: &'static str,
            values: &Option<Vec<T>>,
            wrap: fn(T) -> AxisSetting,
        ) -> Option<(&'static str, Vec<AxisSetting>)> {
            values.as_ref().map(|v| (field, v.iter().cloned().map(wrap).collect()))
        }
        let g = &self.grid;
        [
            axis("models", &g.models, AxisSetting::Model),
            axis("attacks", &g.attacks, AxisSetting::Attack),
            axis("defenses", &g.defenses, AxisSetting::Defense),
            axis("n_byzantine", &g.n_byzantine, AxisSetting::Byzantine),
            axis("gammas", &g.gammas, AxisSetting::Gamma),
            axis("epsilons", &g.epsilons, AxisSetting::Epsilon),
            axis("iid", &g.iid, AxisSetting::Partition),
            axis("protocols", &g.protocols, AxisSetting::Protocol),
            axis("datasets", &g.datasets, AxisSetting::Dataset),
            axis("samplings", &g.samplings, AxisSetting::Sampling),
            axis("deadlines_ms", &g.deadlines_ms, AxisSetting::DeadlineMs),
            axis("flaky_pcts", &g.flaky_pcts, AxisSetting::FlakyPct),
        ]
        .into_iter()
        .flatten()
        .collect()
    }

    /// Expands the grid into runnable cells: the cartesian product of the
    /// axes (repeat/seed axis outermost, then model, attack, defense,
    /// `n_byzantine`, γ, ε, partition, protocol, dataset, sampling —
    /// innermost varies fastest), followed by the `include` rows, per repeat.
    /// A cartesian cell carries one label per swept axis; a row's cell
    /// carries only its `row` label.
    pub fn cells(&self) -> Vec<Cell> {
        let recipes = self.recipes();
        let mut cells = Vec::new();
        for r in 0..self.repeats() {
            for (settings, row) in &recipes {
                let index = cells.len();
                // The repeat/seed axis label (if any) and the cell's master seed.
                let (seed_axis, seed) = match &self.seed {
                    SeedPolicy::Fixed { seed } => (None, *seed),
                    SeedPolicy::PerCell { master } => (None, worker_seed(*master, index)),
                    SeedPolicy::Repeats { master, .. } => {
                        (Some(("repeat".to_string(), r.to_string())), worker_seed(*master, r))
                    }
                    SeedPolicy::List { seeds } => {
                        (Some(("seed".to_string(), seeds[r].to_string())), seeds[r])
                    }
                };
                let mut config = self.base.clone();
                let mut axes: Vec<(String, String)> = seed_axis.into_iter().collect();
                for setting in settings {
                    let label = setting.apply(&mut config);
                    if row.is_none() {
                        axes.push(label);
                    }
                }
                axes.extend(row.map(|label| ("row".to_string(), label.to_string())));
                config.seed = seed;
                cells.push(Cell { index, key: content_key(&config), config, axes });
            }
        }
        cells
    }

    /// The number of cells [`ScenarioSpec::cells`] will produce.
    pub fn n_cells(&self) -> usize {
        self.repeats() * self.recipes().len()
    }

    /// Semantic checks beyond what deserialization enforces: the grid's own
    /// here, each cell's by [`SimulationConfig::check`]. Returns one message
    /// per problem; an empty vector means the spec is runnable.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.name.is_empty() {
            problems.push("scenario name is empty".into());
        }
        match &self.seed {
            SeedPolicy::Repeats { repeats: 0, .. } => {
                problems.push("seed.Repeats.repeats must be at least 1".into());
            }
            SeedPolicy::List { seeds } if seeds.is_empty() => {
                problems.push("seed.List.seeds must name at least one seed".into());
            }
            _ => {}
        }
        let mut lens: Vec<(&str, usize)> =
            self.swept_axes().iter().map(|(field, values)| (*field, values.len())).collect();
        lens.extend(self.grid.include.as_ref().map(|rows| ("include", rows.len())));
        for (field, len) in lens {
            if len == 0 {
                problems.push(format!("grid.{field}: present but empty (grid has zero cells)"));
            }
        }
        // Dataset names and include-row labels, before any expansion (an
        // unknown name would make `cells()` panic).
        for (i, name) in self.grid.datasets.iter().flatten().enumerate() {
            if SyntheticSpec::by_name(name).is_none() {
                problems.push(unknown_dataset(&format!("grid.datasets[{i}]"), name));
            }
        }
        for (i, pct) in self.grid.flaky_pcts.iter().flatten().enumerate() {
            if !(pct.is_finite() && (0.0..=100.0).contains(pct)) {
                problems
                    .push(format!("grid.flaky_pcts[{i}]: flaky percentage {pct} outside [0, 100]"));
            }
        }
        let mut labels: Vec<&str> = Vec::new();
        for (i, row) in self.include_rows().iter().enumerate() {
            if row.label.is_empty() {
                problems.push(format!("grid.include[{i}]: row label is empty"));
            } else if labels.contains(&row.label.as_str()) {
                problems.push(format!("grid.include[{i}]: duplicate row label `{}`", row.label));
            }
            labels.push(&row.label);
            if let Some(name) = &row.dataset {
                if SyntheticSpec::by_name(name).is_none() {
                    problems.push(unknown_dataset(&format!("grid.include[{i}].dataset"), name));
                }
            }
        }
        if !problems.is_empty() {
            return problems;
        }
        let cells = self.cells();
        for cell in &cells {
            let at = |msg: String| format!("cell {} ({}): {msg}", cell.index, axes_label(cell));
            problems.extend(cell.config.check().err().into_iter().flatten().map(at));
        }
        let mut seen: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        for cell in &cells {
            if let Some(&first) = seen.get(cell.key.as_str()) {
                problems.push(format!(
                    "cells {first} and {} resolve to identical configs (key {})",
                    cell.index, cell.key
                ));
            } else {
                seen.insert(&cell.key, cell.index);
            }
        }
        problems
    }

    /// [`ScenarioSpec::validate`] as the one error every command refuses an
    /// invalid spec with.
    pub fn check(&self) -> Result<(), String> {
        let problems = self.validate();
        let (name, n, list) = (&self.name, problems.len(), problems.join("\n  - "));
        problems.is_empty().then_some(()).ok_or(format!("`{name}` has {n} problem(s):\n  - {list}"))
    }

    /// Parses a spec from JSON text.
    ///
    /// Errors carry the failure's location: parse errors report
    /// `line, column`; shape errors, unknown fields and unknown enum variants
    /// report the `Type.field` / `[index]` path down to the offender (e.g.
    /// `ScenarioSpec.base: SimulationConfig: unknown field \`epsilion\``) —
    /// the strict vendored serde derive rejects any key or variant the
    /// structs do not declare, at every nesting level. The checks made here
    /// are the range checks the types cannot express: dataset family names
    /// and sampling fractions.
    pub fn from_json(text: &str) -> Result<ScenarioSpec, String> {
        let value = serde_json::parse_value(text).map_err(|e| e.to_string())?;
        let grid = value.get("grid");
        let entries = |key: &str| match grid.and_then(|g| g.get(key)) {
            Some(Value::Arr(entries)) => entries.as_slice(),
            _ => &[],
        };
        for (i, entry) in entries("datasets").iter().enumerate() {
            check_dataset_name(entry, &format!("ScenarioSpec.grid.datasets[{i}]"))?;
        }
        for (i, entry) in entries("samplings").iter().enumerate() {
            check_sampling_fraction(entry, &format!("ScenarioSpec.grid.samplings[{i}]"))?;
        }
        for (i, row) in entries("include").iter().enumerate() {
            let at = format!("ScenarioSpec.grid.include[{i}]");
            if let Some(dataset) = row.get("dataset").filter(|v| **v != Value::Null) {
                check_dataset_name(dataset, &format!("{at}.dataset"))?;
            }
            if let Some(sampling) = row.get("sampling").filter(|v| **v != Value::Null) {
                check_sampling_fraction(sampling, &format!("{at}.sampling"))?;
            }
        }
        if let Some(sampling) = value.get("base").and_then(|base| base.get("sampling")) {
            check_sampling_fraction(sampling, "ScenarioSpec.base.sampling")?;
        }
        Deserialize::from_value(&value).map_err(|e: serde::Error| e.to_string())
    }

    /// Reads and parses a spec file, prefixing errors with the path.
    pub fn load(path: &std::path::Path) -> Result<ScenarioSpec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The "unknown dataset family" message (shared by parse-time and
/// validate-time checks so the two never drift apart).
fn unknown_dataset(at: &str, name: &str) -> String {
    format!(
        "{at}: unknown dataset family `{name}` (expected one of: {})",
        SyntheticSpec::family_names().join(", ")
    )
}

/// Parse-time check of one client-sampling fraction: must be a number in
/// `(0, 1]`. Caught at parse time so a bad fraction names its exact JSON
/// path — the value feeds both the cohort sampler and the amplification
/// accountant, which refuses to extrapolate beyond full participation.
fn check_sampling_fraction(value: &Value, at: &str) -> Result<(), String> {
    let q = match *value {
        Value::Int(i) => i as f64,
        Value::UInt(u) => u as f64,
        Value::Float(f) => f,
        _ => return Err(format!("{at}: expected a sampling fraction in (0, 1]")),
    };
    if !(q.is_finite() && q > 0.0 && q <= 1.0) {
        return Err(format!("{at}: sampling fraction must be in (0, 1], got {q}"));
    }
    Ok(())
}

/// Parse-time check of one dataset axis value: must be a known family name.
fn check_dataset_name(value: &Value, at: &str) -> Result<(), String> {
    match value {
        Value::Str(s) if SyntheticSpec::by_name(s).is_some() => Ok(()),
        Value::Str(s) => Err(unknown_dataset(at, s)),
        _ => Err(format!("{at}: expected a dataset family name string")),
    }
}

/// One override of a base-config field: a swept-axis value or one field of
/// an include row. Applying it to a config yields the `(axis, label)` pair a
/// cartesian cell records and the catalog prints; [`AxisSetting::apply`] is
/// the one place that says which field a setting writes and how it reads.
#[derive(Debug, Clone)]
pub(crate) enum AxisSetting {
    /// Network architecture.
    Model(ModelKind),
    /// Attack mounted by the Byzantine workers.
    Attack(AttackSpec),
    /// Server defense.
    Defense(DefenseKind),
    /// Byzantine worker count.
    Byzantine(usize),
    /// Server honest-fraction belief γ.
    Gamma(f64),
    /// Privacy target (`None` = use the configured noise multiplier).
    Epsilon(Option<f64>),
    /// Data distribution (`true` = i.i.d.).
    Partition(bool),
    /// Worker upload protocol.
    Protocol(WorkerProtocol),
    /// Dataset family name.
    Dataset(String),
    /// Per-round client sampling fraction `q`.
    Sampling(f64),
    /// Serving round deadline in milliseconds (0 = drain-only).
    DeadlineMs(u64),
    /// Fault-injection flaky upload percentage.
    FlakyPct(f64),
    /// The whole defense configuration.
    DefenseCfg(DefenseConfig),
    /// The whole worker DP-SGD configuration.
    Dp(DpSgdConfig),
    /// Honest worker count.
    Honest(usize),
    /// A pinned noise multiplier σ, clearing the ε target.
    FixedSigma(f64),
    /// Base learning rate η_b.
    BaseLr(f64),
    /// Whether the server's auxiliary data is out-of-distribution.
    OodAuxiliary(bool),
}

impl AxisSetting {
    /// Applies the value to `cfg`, returning the cell's axis label pair.
    pub(crate) fn apply(&self, cfg: &mut SimulationConfig) -> (String, String) {
        match self {
            AxisSetting::Model(m) => {
                cfg.model = *m;
                ("model".into(), model_label(m))
            }
            AxisSetting::Attack(a) => {
                cfg.attack = a.clone();
                ("attack".into(), a.name())
            }
            AxisSetting::Defense(d) => {
                cfg.defense = d.clone();
                ("defense".into(), d.name())
            }
            AxisSetting::Byzantine(n) => {
                cfg.n_byzantine = *n;
                ("n_byzantine".into(), n.to_string())
            }
            AxisSetting::Gamma(g) => {
                cfg.defense_cfg.gamma = *g;
                ("gamma".into(), format!("{g}"))
            }
            AxisSetting::Epsilon(e) => {
                cfg.epsilon = *e;
                let label = match e {
                    Some(v) => format!("{v}"),
                    None => "none".into(),
                };
                ("epsilon".into(), label)
            }
            AxisSetting::Partition(i) => {
                cfg.iid = *i;
                ("partition".into(), if *i { "iid" } else { "non-iid" }.into())
            }
            AxisSetting::Protocol(p) => {
                cfg.protocol = *p;
                ("protocol".into(), p.name())
            }
            AxisSetting::Dataset(name) => {
                cfg.dataset = resolve_dataset(name);
                ("dataset".into(), name.clone())
            }
            AxisSetting::Sampling(q) => {
                cfg.sampling = *q;
                ("sampling".into(), format!("{q}"))
            }
            AxisSetting::DeadlineMs(d) => {
                cfg.serving.get_or_insert_with(ServingSpec::default).deadline_ms = Some(*d);
                ("deadline_ms".into(), d.to_string())
            }
            AxisSetting::FlakyPct(p) => {
                cfg.serving.get_or_insert_with(ServingSpec::default).fault.flaky_pct = *p;
                ("flaky_pct".into(), format!("{p}"))
            }
            AxisSetting::DefenseCfg(d) => {
                let label = changed_fields(&cfg.defense_cfg, d);
                cfg.defense_cfg = d.clone();
                ("defense_cfg".into(), label)
            }
            AxisSetting::Dp(dp) => {
                let label = changed_fields(&cfg.dp, dp);
                cfg.dp = dp.clone();
                ("dp".into(), label)
            }
            AxisSetting::Honest(n) => {
                cfg.n_honest = *n;
                ("n_honest".into(), n.to_string())
            }
            AxisSetting::FixedSigma(sigma) => {
                cfg.epsilon = None;
                cfg.dp.noise_multiplier = *sigma;
                ("sigma".into(), format!("{sigma} (ε target dropped)"))
            }
            AxisSetting::BaseLr(lr) => {
                cfg.base_lr = *lr;
                ("base_lr".into(), format!("{lr}"))
            }
            AxisSetting::OodAuxiliary(ood) => {
                cfg.ood_auxiliary = *ood;
                let label = if *ood { "out-of-distribution" } else { "in-distribution" };
                ("auxiliary".into(), label.into())
            }
        }
    }
}

/// A whole-struct override's label: the JSON object of the fields `new`
/// changes relative to the `old` value it replaces (`base` when none).
fn changed_fields(old: &impl Serialize, new: &impl Serialize) -> String {
    let (Value::Obj(old), Value::Obj(new)) = (old.to_value(), new.to_value()) else {
        unreachable!("config structs serialize as objects");
    };
    let changed: Vec<(String, Value)> =
        new.into_iter().zip(old).filter(|(new, old)| new.1 != old.1).map(|(new, _)| new).collect();
    if changed.is_empty() {
        "base".into()
    } else {
        serde_json::to_string(&Value::Obj(changed)).expect("value prints")
    }
}

/// Short report label for a model kind.
pub fn model_label(model: &ModelKind) -> String {
    match *model {
        ModelKind::Mlp784 => "mlp-784".into(),
        ModelKind::MnistCnn => "mnist-cnn".into(),
        ModelKind::ColorectalCnn => "colorectal-cnn".into(),
        ModelKind::SmallMlp { hidden } => format!("small-mlp({hidden})"),
    }
}

/// `axis=value` pairs joined for human-facing messages.
pub fn axes_label(cell: &Cell) -> String {
    if cell.axes.is_empty() {
        return "base".into();
    }
    cell.axes.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
}

/// Content-hashed key of a resolved cell config: FNV-1a 64 over the
/// canonical JSON serialization. Identical configs — across runs, spec
/// edits, or thread counts — always produce identical keys.
pub fn content_key(cfg: &SimulationConfig) -> String {
    let json = serde_json::to_string(cfg).expect("config serializes");
    let mut hash: u64 = 0xcbf29ce484222325;
    for byte in json.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbfl_data::SyntheticSpec;

    fn tiny_base() -> SimulationConfig {
        let mut cfg =
            SimulationConfig::quick(SyntheticSpec::mnist_like(), ModelKind::SmallMlp { hidden: 8 });
        cfg.per_worker = 64;
        cfg.test_count = 64;
        cfg.n_honest = 3;
        cfg.n_byzantine = 2;
        cfg.epochs = 1.0;
        cfg.epsilon = None;
        cfg.dp.noise_multiplier = 0.5;
        cfg
    }

    fn spec(grid: GridSpec, seed: SeedPolicy) -> ScenarioSpec {
        ScenarioSpec {
            name: "test/spec".into(),
            title: "test".into(),
            notes: String::new(),
            seed,
            base: tiny_base(),
            grid,
        }
    }

    #[test]
    fn empty_grid_is_one_cell_with_base_config() {
        let s = spec(GridSpec::default(), SeedPolicy::Fixed { seed: 9 });
        let cells = s.cells();
        assert_eq!(cells.len(), 1);
        assert_eq!(s.n_cells(), 1);
        assert!(cells[0].axes.is_empty());
        assert_eq!(cells[0].config.seed, 9);
        assert_eq!(axes_label(&cells[0]), "base");
    }

    #[test]
    fn cartesian_expansion_cardinality() {
        let grid = GridSpec {
            attacks: Some(vec![AttackSpec::Gaussian, AttackSpec::LabelFlip, AttackSpec::OptLmp]),
            defenses: Some(vec![DefenseKind::NoDefense, DefenseKind::TwoStage]),
            gammas: Some(vec![0.3, 0.5]),
            epsilons: Some(vec![Some(2.0), None]),
            ..GridSpec::default()
        };
        let s = spec(grid, SeedPolicy::Repeats { master: 1, repeats: 2 });
        assert_eq!(s.n_cells(), 2 * 3 * 2 * 2 * 2);
        let cells = s.cells();
        assert_eq!(cells.len(), s.n_cells());
        // Every cell carries one label per swept axis (+ the repeat axis).
        assert!(cells.iter().all(|c| c.axes.len() == 5));
        // Innermost axis varies fastest.
        assert_eq!(cells[0].config.epsilon, Some(2.0));
        assert_eq!(cells[1].config.epsilon, None);
        assert_eq!(cells[0].config.defense_cfg.gamma, 0.3);
        assert_eq!(cells[2].config.defense_cfg.gamma, 0.5);
    }

    #[test]
    fn seed_policies_assign_documented_seeds() {
        let grid = GridSpec { iid: Some(vec![true, false]), ..GridSpec::default() };
        let fixed = spec(grid.clone(), SeedPolicy::Fixed { seed: 5 });
        assert!(fixed.cells().iter().all(|c| c.config.seed == 5));

        let per_cell = spec(grid.clone(), SeedPolicy::PerCell { master: 5 });
        let seeds: Vec<u64> = per_cell.cells().iter().map(|c| c.config.seed).collect();
        assert_eq!(seeds, vec![worker_seed(5, 0), worker_seed(5, 1)]);

        let repeats = spec(grid, SeedPolicy::Repeats { master: 5, repeats: 2 });
        let seeds: Vec<u64> = repeats.cells().iter().map(|c| c.config.seed).collect();
        assert_eq!(seeds[0], seeds[1], "cells within a repeat share the seed");
        assert_ne!(seeds[0], seeds[2], "repeats are independent");
        assert_eq!(seeds[2], worker_seed(5, 1));
    }

    #[test]
    fn protocol_and_dataset_axes_expand_and_label() {
        let grid = GridSpec {
            protocols: Some(vec![
                WorkerProtocol::PaperDp,
                WorkerProtocol::ClippedDp { clip: 1.0 },
                WorkerProtocol::Plain,
            ]),
            datasets: Some(vec!["mnist-like".into(), "fashion-like".into()]),
            ..GridSpec::default()
        };
        let s = spec(grid, SeedPolicy::Fixed { seed: 3 });
        assert_eq!(s.n_cells(), 6);
        let cells = s.cells();
        assert_eq!(cells.len(), 6);
        // Dataset is the innermost axis (varies fastest).
        assert_eq!(cells[0].config.dataset.name, "mnist-like");
        assert_eq!(cells[1].config.dataset.name, "fashion-like");
        assert_eq!(cells[0].config.protocol, WorkerProtocol::PaperDp);
        assert_eq!(cells[2].config.protocol, WorkerProtocol::ClippedDp { clip: 1.0 });
        assert_eq!(cells[0].axis("protocol"), Some("paper-dp"));
        assert_eq!(cells[2].axis("protocol"), Some("clipped-dp(C=1)"));
        assert_eq!(cells[1].axis("dataset"), Some("fashion-like"));
        assert!(s.validate().is_empty(), "{:?}", s.validate());
    }

    #[test]
    fn include_rows_append_labeled_override_cells() {
        // Axes + include: the row rides along after the cartesian block.
        let grid = GridSpec {
            gammas: Some(vec![0.3, 0.5]),
            include: Some(vec![IncludeRow {
                label: "krum".into(),
                defense: Some(DefenseKind::Robust { rule: AggregatorKind::Krum { f: 2 } }),
                protocol: Some(WorkerProtocol::Plain),
                fixed_sigma: Some(0.0),
                ..IncludeRow::default()
            }]),
            ..GridSpec::default()
        };
        let s = spec(grid, SeedPolicy::Fixed { seed: 3 });
        assert_eq!(s.n_cells(), 3);
        let cells = s.cells();
        let row = &cells[2];
        assert_eq!(row.axis("row"), Some("krum"));
        assert_eq!(row.config.protocol, WorkerProtocol::Plain);
        assert_eq!(row.config.epsilon, None, "fixed_sigma clears the ε target");
        assert_eq!(row.config.dp.noise_multiplier, 0.0);
        assert!(matches!(row.config.defense, DefenseKind::Robust { .. }));

        // Include-only grid: no bare base cell is emitted.
        let only = spec(
            GridSpec {
                include: Some(vec![
                    IncludeRow { label: "a".into(), ..IncludeRow::default() },
                    IncludeRow {
                        label: "b".into(),
                        n_byzantine: Some(0),
                        attack: Some(AttackSpec::None),
                        ..IncludeRow::default()
                    },
                ]),
                ..GridSpec::default()
            },
            SeedPolicy::Fixed { seed: 3 },
        );
        assert_eq!(only.n_cells(), 2);
        let cells = only.cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].axis("row"), Some("a"));
        assert_eq!(cells[1].config.n_byzantine, 0);
    }

    #[test]
    fn sampling_axis_expands_labels_and_overrides() {
        let grid = GridSpec {
            samplings: Some(vec![0.5, 1.0]),
            include: Some(vec![IncludeRow {
                label: "sampled".into(),
                sampling: Some(0.25),
                ..IncludeRow::default()
            }]),
            ..GridSpec::default()
        };
        let s = spec(grid, SeedPolicy::Fixed { seed: 3 });
        assert_eq!(s.n_cells(), 3);
        let cells = s.cells();
        assert_eq!(cells[0].config.sampling, 0.5);
        assert_eq!(cells[0].axis("sampling"), Some("0.5"));
        assert_eq!(cells[1].config.sampling, 1.0);
        assert_eq!(cells[2].axis("row"), Some("sampled"));
        assert_eq!(cells[2].config.sampling, 0.25);
        assert!(s.validate().is_empty(), "{:?}", s.validate());
    }

    #[test]
    fn bad_sampling_fractions_fail_at_parse_time() {
        let mut s = spec(
            GridSpec {
                samplings: Some(vec![0.5]),
                include: Some(vec![IncludeRow {
                    label: "row".into(),
                    sampling: Some(0.75),
                    ..IncludeRow::default()
                }]),
                ..GridSpec::default()
            },
            SeedPolicy::Fixed { seed: 1 },
        );
        s.base.sampling = 0.25;
        let json = serde_json::to_string(&s).unwrap();
        assert!(ScenarioSpec::from_json(&json).is_ok(), "fixture must parse");

        let bad = json.replacen("\"samplings\":[0.5]", "\"samplings\":[1.5]", 1);
        assert_ne!(bad, json);
        let err = ScenarioSpec::from_json(&bad).unwrap_err();
        assert!(err.contains("ScenarioSpec.grid.samplings[0]"), "{err}");
        assert!(err.contains("must be in (0, 1], got 1.5"), "{err}");

        // JSON has no NaN literal; `null` is the closest non-numeric probe.
        let bad = json.replacen("\"samplings\":[0.5]", "\"samplings\":[null]", 1);
        let err = ScenarioSpec::from_json(&bad).unwrap_err();
        assert!(err.contains("ScenarioSpec.grid.samplings[0]"), "{err}");
        assert!(err.contains("expected a sampling fraction"), "{err}");

        let bad = json.replacen("\"sampling\":0.75", "\"sampling\":-0.75", 1);
        assert_ne!(bad, json);
        let err = ScenarioSpec::from_json(&bad).unwrap_err();
        assert!(err.contains("ScenarioSpec.grid.include[0].sampling"), "{err}");
        assert!(err.contains("got -0.75"), "{err}");

        let bad = json.replacen("\"sampling\":0.25", "\"sampling\":0.0", 1);
        assert_ne!(bad, json);
        let err = ScenarioSpec::from_json(&bad).unwrap_err();
        assert!(err.contains("ScenarioSpec.base.sampling"), "{err}");
        assert!(err.contains("got 0"), "{err}");
    }

    #[test]
    fn validate_rejects_unsupported_sampling_and_provisioning_combos() {
        // Bad fraction injected in Rust (bypassing the JSON parse checks).
        let mut s = spec(GridSpec::default(), SeedPolicy::Fixed { seed: 1 });
        s.base.sampling = 2.0;
        assert!(
            s.validate().iter().any(|p| p.contains("sampling fraction 2 outside (0, 1]")),
            "{:?}",
            s.validate()
        );

        // On-demand shards are always i.i.d.; the sorted partition needs the pool.
        let mut s = spec(GridSpec::default(), SeedPolicy::Fixed { seed: 1 });
        s.base.provisioning = Provisioning::OnDemand;
        s.base.iid = false;
        assert!(s.validate().iter().any(|p| p.contains("pooled path")), "{:?}", s.validate());

        // The sign-DP substrate has neither a sampling nor an on-demand path.
        let mut s = spec(GridSpec::default(), SeedPolicy::Fixed { seed: 1 });
        s.base.protocol = WorkerProtocol::SignDp { lr: 0.002, flip_prob: 0.25 };
        s.base.defense = DefenseKind::NoDefense;
        s.base.attack = AttackSpec::None;
        s.base.sampling = 0.5;
        s.base.provisioning = Provisioning::OnDemand;
        let problems = s.validate();
        assert!(problems.iter().any(|p| p.contains("sampling fraction must be 1")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("must be Pooled")), "{problems:?}");
    }

    #[test]
    fn include_row_validation_catches_labels_and_dataset_names() {
        let bad = spec(
            GridSpec {
                include: Some(vec![
                    IncludeRow { label: "x".into(), ..IncludeRow::default() },
                    IncludeRow {
                        label: "x".into(),
                        dataset: Some("cifar-like".into()),
                        ..IncludeRow::default()
                    },
                    IncludeRow { label: String::new(), ..IncludeRow::default() },
                ]),
                ..GridSpec::default()
            },
            SeedPolicy::Fixed { seed: 1 },
        );
        let problems = bad.validate();
        assert!(problems.iter().any(|p| p.contains("duplicate row label `x`")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("unknown dataset family `cifar-like`")));
        assert!(problems.iter().any(|p| p.contains("row label is empty")), "{problems:?}");

        let unknown_axis_name = spec(
            GridSpec { datasets: Some(vec!["imagenet".into()]), ..GridSpec::default() },
            SeedPolicy::Fixed { seed: 1 },
        );
        let problems = unknown_axis_name.validate();
        assert!(
            problems.iter().any(|p| p.contains("grid.datasets[0]")
                && p.contains("unknown dataset family `imagenet`")),
            "{problems:?}"
        );
    }

    #[test]
    fn seed_list_policy_assigns_verbatim_seeds() {
        let grid = GridSpec { iid: Some(vec![true, false]), ..GridSpec::default() };
        let s = spec(grid, SeedPolicy::List { seeds: vec![1, 2, 3] });
        assert_eq!(s.n_cells(), 6);
        let cells = s.cells();
        let seeds: Vec<u64> = cells.iter().map(|c| c.config.seed).collect();
        assert_eq!(seeds, vec![1, 1, 2, 2, 3, 3], "repeat axis outermost, seeds verbatim");
        assert_eq!(cells[0].axis("seed"), Some("1"));
        assert_eq!(cells[4].axis("seed"), Some("3"));
        assert!(s.validate().is_empty(), "{:?}", s.validate());

        let empty = spec(GridSpec::default(), SeedPolicy::List { seeds: vec![] });
        assert!(empty.validate().iter().any(|p| p.contains("seed.List.seeds")));
    }

    #[test]
    fn sign_dp_cells_must_run_undefended_and_unattacked() {
        let mut s = spec(GridSpec::default(), SeedPolicy::Fixed { seed: 1 });
        s.base.protocol = WorkerProtocol::SignDp { lr: 0.002, flip_prob: 0.25 };
        s.base.defense = DefenseKind::TwoStage;
        s.base.attack = AttackSpec::Gaussian;
        let problems = s.validate();
        assert!(problems.iter().any(|p| p.contains("majority-vote")), "{problems:?}");
        // The sign-DP loop ignores cfg.attack (Byzantine behavior is
        // structural sign-inversion); an attack label would misrepresent
        // what ran, so it is rejected rather than silently ignored.
        assert!(problems.iter().any(|p| p.contains("sign-inversion")), "{problems:?}");
        s.base.defense = DefenseKind::NoDefense;
        s.base.attack = AttackSpec::None;
        assert!(s.validate().is_empty(), "{:?}", s.validate());
    }

    #[test]
    fn sign_dp_cells_reject_an_eval_schedule_the_loop_would_ignore() {
        let mut s = spec(GridSpec::default(), SeedPolicy::Fixed { seed: 1 });
        s.base.protocol = WorkerProtocol::SignDp { lr: 0.002, flip_prob: 0.25 };
        s.base.defense = DefenseKind::NoDefense;
        s.base.attack = AttackSpec::None;
        s.base.eval_every = 1;
        let problems = s.validate();
        assert!(problems.iter().any(|p| p.contains("eval_every must be 0, got 1")), "{problems:?}");
        // Every other protocol honours the schedule.
        s.base.protocol = WorkerProtocol::PaperDp;
        assert!(s.validate().is_empty(), "{:?}", s.validate());
    }

    #[test]
    fn unknown_protocol_and_dataset_axis_values_fail_at_parse_time() {
        let s = spec(
            GridSpec {
                // ClippedDp: its serialized name differs from the base
                // config's `"PaperDp"`, so the replacement below cannot hit
                // `base.protocol` first.
                protocols: Some(vec![WorkerProtocol::ClippedDp { clip: 1.5 }]),
                datasets: Some(vec!["mnist-like".into()]),
                ..GridSpec::default()
            },
            SeedPolicy::Fixed { seed: 1 },
        );
        let json = serde_json::to_string(&s).unwrap();
        assert!(ScenarioSpec::from_json(&json).is_ok(), "fixture must parse");

        let bad = json.replacen("\"ClippedDp\"", "\"ClippedDpX\"", 1);
        assert_ne!(bad, json);
        let err = ScenarioSpec::from_json(&bad).unwrap_err();
        assert!(err.contains("ScenarioSpec.grid: GridSpec.protocols: [0]: "), "{err}");
        assert!(err.contains("WorkerProtocol: unknown variant `ClippedDpX`"), "{err}");
        assert!(err.contains("SignDp"), "expected-variant list missing: {err}");

        let bad = json.replacen("\"PaperDp\"", "\"PaperDP\"", 1);
        assert_ne!(bad, json);
        let err = ScenarioSpec::from_json(&bad).unwrap_err();
        assert!(err.contains("ScenarioSpec.base: SimulationConfig.protocol: "), "{err}");
        assert!(err.contains("WorkerProtocol: unknown variant `PaperDP`"), "{err}");

        let bad = json.replacen("[\"mnist-like\"]", "[\"mnist\"]", 1);
        assert_ne!(bad, json);
        let err = ScenarioSpec::from_json(&bad).unwrap_err();
        assert!(err.contains("ScenarioSpec.grid.datasets[0]"), "{err}");
        assert!(err.contains("unknown dataset family `mnist`"), "{err}");
        assert!(err.contains("mnist-like"), "expected-family list missing: {err}");
    }

    #[test]
    fn include_row_fields_are_checked_at_parse_time() {
        let s = spec(
            GridSpec {
                include: Some(vec![IncludeRow {
                    label: "sign".into(),
                    protocol: Some(WorkerProtocol::SignDp { lr: 0.002, flip_prob: 0.25 }),
                    dataset: Some("usps-like".into()),
                    ..IncludeRow::default()
                }]),
                ..GridSpec::default()
            },
            SeedPolicy::Fixed { seed: 1 },
        );
        let json = serde_json::to_string(&s).unwrap();
        assert!(ScenarioSpec::from_json(&json).is_ok(), "fixture must parse");

        let bad = json.replacen("\"SignDp\"", "\"SignDP\"", 1);
        let err = ScenarioSpec::from_json(&bad).unwrap_err();
        assert!(err.contains("GridSpec.include: [0]: IncludeRow.protocol: "), "{err}");
        assert!(err.contains("WorkerProtocol: unknown variant `SignDP`"), "{err}");

        let bad = json.replacen("\"usps-like\"", "\"usps\"", 1);
        let err = ScenarioSpec::from_json(&bad).unwrap_err();
        assert!(err.contains("ScenarioSpec.grid.include[0].dataset"), "{err}");
        assert!(err.contains("unknown dataset family `usps`"), "{err}");

        let bad = json.replacen("\"fixed_sigma\"", "\"fixed_sigm\"", 1);
        let err = ScenarioSpec::from_json(&bad).unwrap_err();
        assert!(
            err.contains("GridSpec.include: [0]: IncludeRow: unknown field `fixed_sigm`"),
            "{err}"
        );
        assert!(err.contains("fixed_sigma"), "accepted-field list missing: {err}");
    }

    #[test]
    fn content_key_tracks_config_identity() {
        let a = tiny_base();
        let mut b = tiny_base();
        assert_eq!(content_key(&a), content_key(&b));
        b.seed += 1;
        assert_ne!(content_key(&a), content_key(&b));
    }

    #[test]
    fn validate_flags_semantic_problems() {
        let mut s = spec(GridSpec::default(), SeedPolicy::Fixed { seed: 1 });
        s.base.defense_cfg.gamma = 1.5;
        s.base.epochs = 0.0;
        let problems = s.validate();
        assert!(problems.iter().any(|p| p.contains("gamma")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("epochs")), "{problems:?}");

        let dup = spec(
            GridSpec { gammas: Some(vec![0.5, 0.5]), ..GridSpec::default() },
            SeedPolicy::Fixed { seed: 1 },
        );
        assert!(dup.validate().iter().any(|p| p.contains("identical configs")));

        let empty_axis = spec(
            GridSpec { attacks: Some(vec![]), ..GridSpec::default() },
            SeedPolicy::Fixed { seed: 1 },
        );
        assert!(empty_axis.validate().iter().any(|p| p.contains("empty")));

        let two_stage_plain = {
            let mut s = spec(GridSpec::default(), SeedPolicy::Fixed { seed: 1 });
            s.base.defense = DefenseKind::TwoStage;
            s.base.protocol = WorkerProtocol::Plain;
            s
        };
        assert!(two_stage_plain.validate().iter().any(|p| p.contains("DP noise")));
    }

    /// The base cell with `edit` applied, validated.
    fn problems_with(edit: impl Fn(&mut SimulationConfig)) -> Vec<String> {
        let mut s = spec(GridSpec::default(), SeedPolicy::Fixed { seed: 1 });
        edit(&mut s.base);
        s.validate()
    }

    #[test]
    fn validate_refuses_a_batch_larger_than_the_shard_under_an_epsilon_target() {
        assert_eq!(problems_with(|c| c.epsilon = Some(2.0)), Vec::<String>::new());
        let problems = problems_with(|c| {
            c.epsilon = Some(2.0);
            c.dp.batch_size = 2 * c.per_worker;
        });
        assert!(
            problems.iter().any(|p| p.contains("exceeds per_worker") && p.contains("at most 1")),
            "{problems:?}"
        );
    }

    #[test]
    fn validate_refuses_a_non_positive_epsilon_target() {
        for eps in [0.0, -1.0] {
            let problems = problems_with(|c| c.epsilon = Some(eps));
            assert!(
                problems
                    .iter()
                    .any(|p| p.contains(&format!("target epsilon {eps} must be positive"))),
                "{problems:?}"
            );
        }
    }

    #[test]
    fn validate_refuses_a_zero_batch_size() {
        let problems = problems_with(|c| c.dp.batch_size = 0);
        assert!(
            problems.iter().any(|p| p.contains("dp.batch_size must be positive")),
            "{problems:?}"
        );
    }

    #[test]
    fn validate_refuses_a_trim_that_leaves_no_upload() {
        let trimmed = |trim, sampling| {
            let mut s = spec(GridSpec::default(), SeedPolicy::Fixed { seed: 1 });
            s.base.defense = DefenseKind::Robust { rule: AggregatorKind::TrimmedMean { trim } };
            s.base.sampling = sampling;
            s.validate()
        };
        let n = spec(GridSpec::default(), SeedPolicy::Fixed { seed: 1 }).base.n_total();
        let half = n.div_ceil(2);
        assert_eq!(trimmed((n - 1) / 2, 1.0), Vec::<String>::new());
        let problems = trimmed(half, 1.0);
        assert!(
            problems.iter().any(|p| p.contains(&format!("a cohort of {n}; it needs 2·trim < {n}"))),
            "{problems:?}"
        );
        // Sampling shrinks the cohort the rule sees, and the check with it.
        let problems = trimmed(1, 1.0 / n as f64);
        assert!(problems.iter().any(|p| p.contains("a cohort of 1;")), "{problems:?}");
    }

    #[test]
    fn unknown_fields_are_rejected_by_name() {
        let s = spec(GridSpec::default(), SeedPolicy::Fixed { seed: 1 });
        let json = serde_json::to_string(&s).unwrap();
        assert!(ScenarioSpec::from_json(&json).is_ok());
        let bad = json.replacen("\"notes\"", "\"nots\"", 1);
        let err = ScenarioSpec::from_json(&bad).unwrap_err();
        assert!(err.contains(": ScenarioSpec: unknown field `nots`"), "{err}");
        assert!(err.contains("notes"), "accepted-field list missing: {err}");
    }

    #[test]
    fn typoed_fields_inside_an_enum_variant_are_rejected_by_name() {
        let mut s = spec(GridSpec::default(), SeedPolicy::Fixed { seed: 1 });
        s.base.attack =
            AttackSpec::Sleeper { turn_round: 3, inner: Box::new(AttackSpec::LabelFlip) };
        let json = serde_json::to_string(&s).unwrap();
        assert!(ScenarioSpec::from_json(&json).is_ok(), "fixture must parse");
        let bad = json.replacen("\"turn_round\"", "\"turn_rond\"", 1);
        assert_ne!(bad, json);
        let err = ScenarioSpec::from_json(&bad).unwrap_err();
        assert!(err.contains("SimulationConfig.attack: AttackSpec::Sleeper: "), "{err}");
        assert!(err.contains("unknown field `turn_rond`"), "{err}");
        assert!(err.contains("turn_round, inner"), "accepted-field list missing: {err}");
    }

    #[test]
    fn typoed_option_fields_inside_base_are_rejected_not_dropped() {
        // `epsilon` is Option-typed: a lenient reader would map the typo'd
        // key's absence to `None` and run at the wrong privacy level.
        let s = spec(GridSpec::default(), SeedPolicy::Fixed { seed: 1 });
        let json = serde_json::to_string(&s).unwrap();
        let bad = json.replacen("\"epsilon\"", "\"epsilion\"", 1);
        assert_ne!(bad, json);
        let err = ScenarioSpec::from_json(&bad).unwrap_err();
        assert!(
            err.contains("ScenarioSpec.base: SimulationConfig: unknown field `epsilion`"),
            "{err}"
        );
    }

    #[test]
    fn serving_axes_expand_label_and_validate() {
        let grid = GridSpec {
            deadlines_ms: Some(vec![0, 1500]),
            flaky_pcts: Some(vec![0.0, 25.0]),
            ..GridSpec::default()
        };
        let s = spec(grid, SeedPolicy::Fixed { seed: 3 });
        assert_eq!(s.n_cells(), 4);
        let cells = s.cells();
        assert_eq!(cells.len(), 4);
        // flaky is the innermost axis (varies fastest).
        let serving0 = cells[0].config.serving.as_ref().unwrap();
        assert_eq!(serving0.deadline_ms, Some(0));
        assert_eq!(serving0.fault.flaky_pct, 0.0);
        let serving3 = cells[3].config.serving.as_ref().unwrap();
        assert_eq!(serving3.deadline_ms, Some(1500));
        assert_eq!(serving3.fault.flaky_pct, 25.0);
        assert_eq!(cells[0].axis("deadline_ms"), Some("0"));
        assert_eq!(cells[1].axis("flaky_pct"), Some("25"));
        assert!(s.validate().is_empty(), "{:?}", s.validate());

        // Out-of-range flaky percentages are named by the validator, both
        // on the axis and after expansion into cells.
        let bad = spec(
            GridSpec { flaky_pcts: Some(vec![120.0]), ..GridSpec::default() },
            SeedPolicy::Fixed { seed: 3 },
        );
        let problems = bad.validate();
        assert!(
            problems.iter().any(|p| p.contains("flaky_pcts[0]")),
            "missing axis-level complaint: {problems:?}"
        );
    }

    #[test]
    fn serving_json_roundtrips_and_unknown_fault_fields_are_rejected() {
        let mut s = spec(GridSpec::default(), SeedPolicy::Fixed { seed: 1 });
        s.base.serving = Some(ServingSpec {
            deadline_ms: Some(1500),
            fault: FaultSpec {
                drop_at_round: Some(1),
                flaky_pct: 10.0,
                seed: 7,
                ..FaultSpec::default()
            },
        });
        let json = serde_json::to_string(&s).unwrap();
        let back = ScenarioSpec::from_json(&json).expect("roundtrip parses");
        assert_eq!(back.base.serving, s.base.serving);
        let bad = json.replace("\"flaky_pct\"", "\"flaky_percent\"");
        let err = ScenarioSpec::from_json(&bad).unwrap_err();
        assert!(err.contains("SimulationConfig.serving: ServingSpec.fault: FaultSpec: "), "{err}");
        assert!(err.contains("unknown field `flaky_percent`"), "{err}");
    }

    #[test]
    fn shape_errors_name_the_json_path() {
        let s = spec(GridSpec::default(), SeedPolicy::Fixed { seed: 1 });
        let json = serde_json::to_string(&s).unwrap();
        let bad = json.replace("\"per_worker\":64", "\"per_worker\":\"lots\"");
        assert_ne!(bad, json, "fixture must actually corrupt the field");
        let err = ScenarioSpec::from_json(&bad).unwrap_err();
        assert!(err.contains("ScenarioSpec.base"), "{err}");
        assert!(err.contains("per_worker"), "{err}");
    }
}
