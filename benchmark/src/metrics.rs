//! The metric tables: what the benchmark reports, in which unit, which way
//! is better, and (end to end) how far a median may worsen before it counts
//! as a regression. `BENCHMARK.json` at the repository root repeats them; a
//! test keeps the two in step.

/// An end-to-end metric: something a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Every workload reports all five.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "uploads_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "round_ms_p50", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "cpu_ms_per_upload", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: "lower", bound: 0.10 },
];

/// A per-layer metric, measured in the traced run only. No bound.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer { name, unit, better, moves }
}

const CLIENT: &str =
    "uploads_per_s, cpu_ms_per_upload on headline_inproc; <= 36 % client share on omniscient_inproc";
const ROUND: &str = "uploads_per_s on headline_inproc and scale_ondemand";
const STAGE1: &str = "round_ms_p50 on omniscient_inproc; <= 11 % lever on headline_inproc";
const STAGE2: &str = "round_ms_p50 on omniscient_inproc";
const SMALL: &str = "omniscient_inproc; expected < 5 % of wall everywhere";
const WIRE: &str = "round_ms_p50 on ingest_tcp only";
const SERVING: &str = "round_ms_p50, peak_rss_mib on ingest_tcp; no other workload runs it";
const SETUP: &str = "setup_s everywhere";

/// Layer = module name. A metric that does not apply to a workload reads 0.
pub const PER_LAYER: [Layer; 45] = [
    layer("round.client_us_per_upload", "us", "lower", ROUND),
    layer("round.fold_us_per_upload", "us", "lower", "uploads_per_s on headline_inproc"),
    layer("round.folds", "count", "lower", "none: work count of the fold"),
    layer("round.server_rest_ms_per_round", "ms", "lower", "round_ms_p50 on omniscient_inproc"),
    layer("round.ms_p90", "ms", "lower", "none: tail, too noisy to gate"),
    layer("round.ms_max", "ms", "lower", "none: tail, too noisy to gate"),
    layer("worker.local_step_b16_us", "us", "lower", CLIENT),
    layer("worker.local_step_b1_us", "us", "lower", "uploads_per_s on ingest_tcp"),
    layer("nn.example_grad_us", "us", "lower", CLIENT),
    layer("nn.eval_ms", "ms", "lower", SMALL),
    layer("stats.normal_ns_per_draw", "ns", "lower", CLIENT),
    layer("tensor.dot_d_us", "us", "lower", "uploads_per_s where the fold scores (streaming path)"),
    layer("first_stage.check_accept_us", "us", "lower", STAGE1),
    layer("first_stage.check_reject_us", "us", "lower", STAGE1),
    layer("first_stage.accept_share", "1", "higher", "none: which stage-1 path a workload runs"),
    layer("first_stage.ks_exact_share", "1", "lower", STAGE1),
    layer("first_stage.batch_ms_per_round", "ms", "lower", STAGE1),
    layer("second_stage.score_us_per_upload", "us", "lower", STAGE2),
    layer("second_stage.select_us", "us", "lower", STAGE2),
    layer("second_stage.batch_ms_per_round", "ms", "lower", STAGE2),
    layer("attack.craft_ms_per_round", "ms", "lower", SMALL),
    layer("aggregator.update_ms_per_round", "ms", "lower", SMALL),
    layer("simulation.eval_ms_per_eval", "ms", "lower", SMALL),
    layer("transport.encode_upload_us", "us", "lower", WIRE),
    layer("transport.decode_upload_us", "us", "lower", WIRE),
    layer("transport.encode_round_begin_us", "us", "lower", WIRE),
    layer("transport.bytes_per_round", "B", "lower", WIRE),
    layer("serving.round_ms_p50", "ms", "lower", SERVING),
    layer("serving.round_ms_p90", "ms", "lower", SERVING),
    layer("serving.round_ms_p99", "ms", "lower", SERVING),
    layer("serving.vs_inproc_ratio", "1", "lower", SERVING),
    layer("serving.dropped_uploads", "count", "lower", SERVING),
    layer("serving.reconnects", "count", "lower", SERVING),
    layer("serving.discarded_stale", "count", "lower", SERVING),
    layer("serving.rss_over_inproc_mib", "MiB", "lower", "peak_rss_mib on ingest_tcp"),
    layer("data.ondemand_client_us", "us", "lower", "uploads_per_s on scale_ondemand"),
    layer("simulation.prepare_s", "s", "lower", SETUP),
    layer("dp.resolve_sigma_ms", "ms", "lower", SETUP),
    layer("telemetry.overhead_share", "1", "lower", "none: ROADMAP bound <= 0.05"),
    layer("trace.setup_share", "1", "lower", "share of traced wall before round 0"),
    layer("trace.round_trip_share", "1", "lower", "share of traced wall inside round_trip"),
    layer("trace.defense_share", "1", "lower", "share of traced wall in stage1 + stage2 spans"),
    layer("trace.other_spans_share", "1", "lower", "share in attack + aggregate + eval spans"),
    layer("trace.unattributed_share", "1", "lower", "none: must stay <= 0.10"),
    layer("trace.units", "count", "higher", "none: traced units behind the medians"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get(key).unwrap_or_else(|| panic!("BENCHMARK.json entry lacks `{key}`"))
    }

    fn text(v: &Value, key: &str) -> String {
        match field(v, key) {
            Value::Str(s) => s.clone(),
            other => panic!("`{key}` is not a string: {other:?}"),
        }
    }

    fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        match field(doc, key) {
            Value::Arr(a) => a,
            other => panic!("`{key}` is not an array: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_repeats_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = serde_json::parse_value(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");

        let e2e: Vec<(String, String, String, f64)> = entries(&doc, "end_to_end")
            .iter()
            .map(|m| {
                let bound = field(m, "bound").as_f64().expect("bound is a number");
                (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
            .collect();
        assert_eq!(e2e, expected);

        let layers: Vec<(String, String, String)> = entries(&doc, "per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> =
            PER_LAYER.iter().map(|m| (m.name.into(), m.unit.into(), m.better.into())).collect();
        assert_eq!(layers, expected);

        let workloads: Vec<(String, String)> =
            entries(&doc, "workloads").iter().map(|w| (text(w, "name"), text(w, "why"))).collect();
        let expected: Vec<(String, String)> =
            crate::workloads::ALL.iter().map(|w| (w.name.into(), w.why.into())).collect();
        assert_eq!(workloads, expected);
    }
}
