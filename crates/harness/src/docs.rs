//! The generated scenario catalog (`docs/SCENARIOS.md`).
//!
//! `dpbfl-exp docs` renders the built-in registry — the same
//! [`ScenarioSpec`] structs the runner expands — into one markdown page:
//! base configuration, swept axes, include rows, cell count, seed policy
//! and the paper artifact each scenario reproduces. Because the page is a
//! pure function of the registry, it cannot drift from the code; CI
//! regenerates it and fails on any diff.

use crate::registry;
use crate::spec::{model_label, IncludeRow, ScenarioSpec, SeedPolicy};
use dpbfl::prelude::*;

/// Human description of a seed policy.
fn seed_policy_label(policy: &SeedPolicy) -> String {
    match policy {
        SeedPolicy::Fixed { seed } => format!("`Fixed` — every cell runs seed {seed}"),
        SeedPolicy::PerCell { master } => {
            format!("`PerCell` — cell *i* runs `worker_seed({master}, i)`")
        }
        SeedPolicy::Repeats { master, repeats } => {
            format!("`Repeats` — {repeats} repeats, repeat *r* runs `worker_seed({master}, r)`")
        }
        SeedPolicy::List { seeds } => {
            let seeds: Vec<String> = seeds.iter().map(u64::to_string).collect();
            format!("`List` — verbatim seeds {{{}}}, one repeat each", seeds.join(", "))
        }
    }
}

/// The ε target / σ description of a base config.
fn privacy_label(cfg: &SimulationConfig) -> String {
    match cfg.epsilon {
        Some(eps) => format!("ε = {eps} (σ via RDP accountant)"),
        None => format!("σ = {} (no ε target)", cfg.dp.noise_multiplier),
    }
}

/// One include row rendered as "label: field=value, …": its overrides,
/// labelled by applying them to a scratch copy of the base, as
/// [`axis_bullets`] does for axes.
fn include_row_label(row: &IncludeRow, base: &SimulationConfig) -> String {
    let mut scratch = base.clone();
    let parts: Vec<String> = row
        .settings()
        .iter()
        .map(|setting| {
            let (field, label) = setting.apply(&mut scratch);
            format!("{field}={label}")
        })
        .collect();
    let parts = if parts.is_empty() { "base config unchanged".into() } else { parts.join(", ") };
    format!("`{}` — {parts}", row.label)
}

/// The swept-axes bullets of a grid, in expansion order: each axis's
/// [`GridSpec`](crate::GridSpec) field name and the labels its cells carry.
fn axis_bullets(spec: &ScenarioSpec) -> Vec<String> {
    // Applying a value is what yields its label; the config is scratch.
    let mut scratch = spec.base.clone();
    spec.swept_axes()
        .iter()
        .map(|(field, values)| {
            let labels: Vec<String> = values.iter().map(|v| v.apply(&mut scratch).1).collect();
            format!("`{field}`: {}", labels.join(", "))
        })
        .collect()
}

/// Renders the full catalog page for the built-in registry.
pub fn scenarios_markdown() -> String {
    let mut out = String::new();
    out.push_str(
        "# Scenario catalog\n\n\
         <!-- GENERATED FILE — do not edit. Regenerate with:\n     \
         cargo run --release -p dpbfl-harness --bin dpbfl-exp -- docs\n\
         CI fails when this file is stale. -->\n\n\
         Every built-in experiment grid of `dpbfl-harness`, rendered from the\n\
         same `ScenarioSpec` structs the runner expands (so this page cannot\n\
         drift from the code). Run one with `dpbfl-exp run <scenario>`; export\n\
         one as editable JSON with `dpbfl-exp show <scenario>`.\n\n",
    );

    // Index table.
    out.push_str("| scenario | cells | reproduces | title |\n|---|---|---|---|\n");
    for name in registry::names() {
        let spec = registry::get(name).expect("registered name resolves");
        out.push_str(&format!(
            "| [`{name}`](#{anchor}) | {cells} | {artifact} | {title} |\n",
            anchor = anchor(name),
            cells = spec.n_cells(),
            artifact = registry::paper_artifact(name).unwrap_or("—"),
            title = spec.title,
        ));
    }
    out.push('\n');

    for name in registry::names() {
        let spec = registry::get(name).expect("registered name resolves");
        out.push_str(&scenario_section(&spec));
    }
    out
}

/// GitHub-style anchor for a scenario heading `## \`name\``.
fn anchor(name: &str) -> String {
    name.chars()
        .filter_map(|c| match c {
            'a'..='z' | '0'..='9' => Some(c),
            'A'..='Z' => Some(c.to_ascii_lowercase()),
            '_' | '-' => Some(c),
            _ => None,
        })
        .collect()
}

/// One scenario's section.
fn scenario_section(spec: &ScenarioSpec) -> String {
    let base = &spec.base;
    let mut out = format!("## `{}`\n\n**{}**\n\n", spec.name, spec.title);
    if let Some(artifact) = registry::paper_artifact(&spec.name) {
        out.push_str(&format!("Reproduces: {artifact}.\n\n"));
    }
    if !spec.notes.is_empty() {
        out.push_str(&format!("{}\n\n", spec.notes));
    }
    out.push_str(&format!(
        "Cells: **{}** · Seed policy: {}\n\nBase configuration:\n\n",
        spec.n_cells(),
        seed_policy_label(&spec.seed),
    ));
    out.push_str("| field | value |\n|---|---|\n");
    for (field, value) in [
        ("dataset", base.dataset.name.clone()),
        ("model", model_label(&base.model)),
        ("workers", format!("{} honest + {} Byzantine", base.n_honest, base.n_byzantine)),
        ("examples per worker", base.per_worker.to_string()),
        ("test examples", base.test_count.to_string()),
        ("epochs", format!("{} (T = {})", base.epochs, base.iterations())),
        ("partition", if base.iid { "iid".into() } else { "non-iid (Algorithm 4)".into() }),
        ("privacy", privacy_label(base)),
        ("protocol", base.protocol.name()),
        ("attack", base.attack.name()),
        ("defense", base.defense.name()),
        ("γ (server belief)", base.defense_cfg.gamma.to_string()),
        ("client sampling q", base.sampling.to_string()),
        (
            "provisioning",
            match base.provisioning {
                Provisioning::Pooled => "pooled".into(),
                Provisioning::OnDemand => "on-demand".into(),
            },
        ),
    ] {
        out.push_str(&format!("| {field} | {value} |\n"));
    }
    out.push('\n');

    let axes = axis_bullets(spec);
    if !axes.is_empty() {
        out.push_str("Swept axes (cartesian):\n\n");
        for bullet in &axes {
            out.push_str(&format!("- {bullet}\n"));
        }
        out.push('\n');
    }
    if let Some(rows) = &spec.grid.include {
        out.push_str("Include rows (labeled base-config overrides, one cell each):\n\n");
        for row in rows {
            out.push_str(&format!("- {}\n", include_row_label(row, base)));
        }
        out.push('\n');
    }
    if axes.is_empty() && spec.grid.include.is_none() {
        out.push_str("No swept axes: the grid is the single base cell.\n\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_every_registry_scenario() {
        let md = scenarios_markdown();
        for name in registry::names() {
            let spec = registry::get(name).unwrap();
            assert!(md.contains(&format!("## `{name}`")), "section for {name} missing");
            assert!(md.contains(&spec.title), "title of {name} missing");
            assert!(
                md.contains(&format!("Cells: **{}**", spec.n_cells())),
                "cell count of {name} missing"
            );
        }
        assert!(md.contains("GENERATED FILE"), "regeneration banner missing");
    }

    #[test]
    fn catalog_documents_axes_rows_and_seed_policies() {
        let md = scenarios_markdown();
        // A cartesian-axis scenario lists its values…
        assert!(md.contains("`protocols`: plain, clipped-dp(C=1), paper-dp"), "{md}");
        assert!(md.contains("`datasets`: mnist-like, fashion-like, usps-like"), "{md}");
        // …an include-row scenario lists its labeled rows…
        assert!(md.contains("`dp-sgd+krum`"), "{md}");
        assert!(md.contains("`sign-dp(eps=0.21)`"), "{md}");
        // …and the verbatim-seed policy is spelled out.
        assert!(md.contains("`List` — verbatim seeds {1}"), "{md}");
        assert!(md.contains("Table 1 (privacy / >50 %-resilience matrix)"), "{md}");
    }

    #[test]
    fn catalog_documents_the_scale_scenarios() {
        let md = scenarios_markdown();
        assert!(md.contains("## `scale/million_clients`"), "{md}");
        assert!(md.contains("| workers | 900000 honest + 100000 Byzantine |"), "{md}");
        assert!(md.contains("| provisioning | on-demand |"), "{md}");
        assert!(md.contains("| client sampling q | 0.000512 |"), "{md}");
        assert!(md.contains("`samplings`: 0.001, 0.002"), "{md}");
    }

    #[test]
    fn every_paper_scenario_names_its_artifact() {
        for name in registry::names() {
            if name.starts_with("paper/") {
                assert!(
                    registry::paper_artifact(name).is_some(),
                    "{name} has no paper artifact mapping"
                );
            }
        }
    }
}
