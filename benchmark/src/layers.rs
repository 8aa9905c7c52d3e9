//! The per-layer table of a traced run: observations of the traced units
//! (medians over units), the layer probes, and the serving comparison.

use crate::metrics::PER_LAYER;
use crate::probes::Probes;
use crate::stats::{max, median, percentile};
use crate::unit::{Unit, UnitTrace};
use dpbfl::prelude::{Provisioning, ServingReport, SimulationConfig};
use serde::Serialize;

/// What the in-process reference run of a served workload measured.
pub struct Reference {
    /// Its `RunSummary` as JSON.
    pub summary_json: String,
    /// Wall seconds of its round window.
    pub window_s: f64,
    /// Peak RSS of the process that ran it (and nothing else).
    pub peak_rss_mib: f64,
}

/// One row of `results/layers_<workload>.json`.
#[derive(Serialize)]
pub struct LayerRow {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub value: f64,
    pub moves: &'static str,
}

fn span_seconds(trace: &UnitTrace, name: &str) -> f64 {
    trace.spans.iter().filter(|s| s.name == name).map(|s| s.micros as f64 * 1e-6).sum()
}

fn span_count(trace: &UnitTrace, name: &str) -> usize {
    trace.spans.iter().filter(|s| s.name == name).count()
}

/// Per-unit observations of one traced unit, by metric name.
fn observe(unit: &Unit, trace: &UnitTrace) -> Vec<(&'static str, f64)> {
    let rounds = unit.rounds as f64;
    let per_fold =
        |seconds: f64| if trace.folds > 0 { seconds * 1e6 / trace.folds as f64 } else { 0.0 };
    // In-process, `collect` is the span around `round_trip`; the decorator's
    // own stamps are used so the two never count twice. A served unit has
    // only the span.
    let round_trip_s =
        if trace.folds > 0 { trace.round_trip_s } else { span_seconds(trace, "collect") };
    let stage1 = span_seconds(trace, "stage1");
    let stage2 = span_seconds(trace, "stage2");
    let attack = span_seconds(trace, "attack");
    let aggregate = span_seconds(trace, "aggregate");
    let eval = span_seconds(trace, "eval");
    let evals = span_count(trace, "eval").max(1) as f64;
    let cohort: u64 = trace.rounds.iter().map(|r| r.cohort).sum();
    let accepted: u64 = trace.rounds.iter().map(|r| r.accepted).sum();
    let ks_exact: u64 = trace.rounds.iter().map(|r| r.ks_exact_fallback).sum();
    let ks_checks: u64 = ks_exact + trace.rounds.iter().map(|r| r.ks_fast_path).sum::<u64>();
    let share = |part: u64, whole: u64| if whole > 0 { part as f64 / whole as f64 } else { 0.0 };
    let of_wall = |seconds: f64| seconds / unit.wall_s;
    let attributed = unit.setup_s + round_trip_s + stage1 + stage2 + attack + aggregate + eval;
    vec![
        ("round.client_us_per_upload", trace.client_us),
        ("round.fold_us_per_upload", per_fold(trace.fold_s)),
        ("round.folds", trace.folds as f64),
        ("round.server_rest_ms_per_round", (unit.window_s - round_trip_s).max(0.0) * 1e3 / rounds),
        ("first_stage.accept_share", share(accepted, cohort)),
        ("first_stage.ks_exact_share", share(ks_exact, ks_checks)),
        ("first_stage.batch_ms_per_round", stage1 * 1e3 / rounds),
        ("second_stage.batch_ms_per_round", stage2 * 1e3 / rounds),
        ("attack.craft_ms_per_round", attack * 1e3 / rounds),
        ("aggregator.update_ms_per_round", aggregate * 1e3 / rounds),
        ("simulation.eval_ms_per_eval", eval * 1e3 / evals),
        ("trace.setup_share", of_wall(unit.setup_s)),
        ("trace.round_trip_share", of_wall(round_trip_s)),
        ("trace.defense_share", of_wall(stage1 + stage2)),
        ("trace.other_spans_share", of_wall(attack + aggregate + eval)),
        ("trace.unattributed_share", 1.0 - of_wall(attributed)),
    ]
}

/// Builds the per-layer table. `units` are the measured units of a traced
/// run (traced and untraced alternate); `peak_rss_mib` is the process peak
/// after the first of them.
pub fn table(
    cfg: &SimulationConfig,
    units: &[Unit],
    probes: &Probes,
    reference: Option<&Reference>,
    peak_rss_mib: f64,
) -> Vec<LayerRow> {
    let traced: Vec<(&Unit, &UnitTrace)> =
        units.iter().filter_map(|u| u.trace.as_ref().map(|t| (u, t))).collect();
    let untraced: Vec<&Unit> = units.iter().filter(|u| u.trace.is_none()).collect();
    let mut values: Vec<(&'static str, f64)> = Vec::new();

    // Medians over traced units of the per-unit observations.
    let per_unit: Vec<Vec<(&'static str, f64)>> =
        traced.iter().map(|(u, t)| observe(u, t)).collect();
    for (i, &(name, _)) in per_unit[0].iter().enumerate() {
        let samples: Vec<f64> = per_unit.iter().map(|obs| obs[i].1).collect();
        values.push((name, median(&samples)));
    }
    values.push(("trace.units", traced.len() as f64));

    // Tail of the round time, pooled over the traced units' rounds.
    let round_ms: Vec<f64> = traced.iter().flat_map(|(_, t)| t.round_ms.iter().copied()).collect();
    values.push(("round.ms_p90", percentile(&round_ms, 90.0)));
    values.push(("round.ms_max", max(&round_ms)));

    let median_wall = |units: &[&Unit]| median(&units.iter().map(|u| u.wall_s).collect::<Vec<_>>());
    let traced_units: Vec<&Unit> = traced.iter().map(|(u, _)| *u).collect();
    values.push((
        "telemetry.overhead_share",
        median_wall(&traced_units) / median_wall(&untraced) - 1.0,
    ));

    // Serving: only a served workload has a report and a reference.
    let reports: Vec<&ServingReport> = units.iter().filter_map(|u| u.serving.as_ref()).collect();
    let if_served = |v: f64| if reports.is_empty() { 0.0 } else { v };
    let total =
        |count: fn(&ServingReport) -> u64| -> f64 { reports.iter().map(|r| count(r) as f64).sum() };
    values.push(("serving.round_ms_p50", if_served(percentile(&round_ms, 50.0))));
    values.push(("serving.round_ms_p90", if_served(percentile(&round_ms, 90.0))));
    values.push(("serving.round_ms_p99", if_served(percentile(&round_ms, 99.0))));
    values.push(("serving.dropped_uploads", total(|r| r.dropped_uploads)));
    values.push(("serving.reconnects", total(|r| r.reconnects)));
    values.push(("serving.discarded_stale", total(|r| r.discarded_stale)));
    let served_window = median(&units.iter().map(|u| u.window_s).collect::<Vec<f64>>());
    values.push(("serving.vs_inproc_ratio", reference.map_or(0.0, |r| served_window / r.window_s)));
    values.push((
        "serving.rss_over_inproc_mib",
        reference.map_or(0.0, |r| peak_rss_mib - r.peak_rss_mib),
    ));

    values.extend(probes.values.iter().copied());
    let value_of = |name: &str, values: &[(&'static str, f64)]| {
        values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    };
    // What an on-demand client pays beyond the local step itself: shard
    // synthesis and a cold worker build.
    let own_step =
        if cfg.dp.batch_size == 1 { "worker.local_step_b1_us" } else { "worker.local_step_b16_us" };
    let ondemand = if cfg.provisioning == Provisioning::OnDemand {
        value_of("round.client_us_per_upload", &values).unwrap_or(0.0)
            - value_of(own_step, &values).unwrap_or(0.0)
    } else {
        0.0
    };
    values.push(("data.ondemand_client_us", ondemand));

    PER_LAYER
        .iter()
        .map(|m| LayerRow {
            name: m.name,
            unit: m.unit,
            better: m.better,
            // `+ 0.0` turns the `-0` of an empty sum into `0`.
            value: value_of(m.name, &values)
                .unwrap_or_else(|| panic!("per-layer metric {} was not measured", m.name))
                + 0.0,
            moves: m.moves,
        })
        .collect()
}
