//! The metric catalogue and the result a run reports.

use crate::json::quote;
use crate::stats::{self, Quantile};
use crate::trace::Span;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs, as (name, unit).
/// They must match `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("nodes_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("est_speedup_geomean", "ratio"),
];

/// Per-layer metrics, printed by traced runs, as (name, unit). They
/// must match `per_layer` in `BENCHMARK.json`. A layer a workload does
/// not exercise reads 0 there (no server in `compile_large`, so no
/// serve overhead and no cache traffic).
pub const PER_LAYER: [(&str, &str); 46] = [
    ("serve.overhead_ms_p50", "ms"),
    ("serve.overhead_ms_p99", "ms"),
    ("serve.compiles_started", "count"),
    ("serve.overloaded", "count"),
    ("serve.service_ewma_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.key_ms", "ms"),
    ("cache.get_ms", "ms"),
    ("cache.put_ms", "ms"),
    ("wire.encode_graph_ms", "ms"),
    ("wire.encode_ruleset_ms", "ms"),
    ("wire.graph_bytes", "bytes"),
    ("wire.decode_graph_ms", "ms"),
    ("models.build_ms", "ms"),
    ("graph.nodes_in", "count"),
    ("dsl.library_load_ms", "ms"),
    ("graph.termview_build_ms", "ms"),
    ("graph.nodes_out", "count"),
    ("engine.view_patches", "count"),
    ("engine.nodes_revisited", "count"),
    ("engine.nodes_reindexed", "count"),
    ("core.trie_build_ms", "ms"),
    ("core.trie_nodes", "count"),
    ("core.trie_collapsed", "count"),
    ("core.terms_walked", "count"),
    ("core.trie_steps", "count"),
    ("core.admit_ratio", "ratio"),
    ("core.machine_steps", "count"),
    ("core.machine_backtracks", "count"),
    ("engine.pass_wall_ms_p50", "ms"),
    ("engine.match_attempts", "count"),
    ("engine.nodes_visited", "count"),
    ("engine.sweeps", "count"),
    ("engine.rewrites_fired", "count"),
    ("engine.fire_ratio", "ratio"),
    ("engine.report_json_ms", "ms"),
    ("engine.parallel.probes_executed", "count"),
    ("engine.parallel.probes_filtered", "count"),
    ("engine.parallel.pool_rounds", "count"),
    ("engine.parallel.warm_wall_ms", "ms"),
    ("perf.est_us_before", "us"),
    ("perf.est_us_after", "us"),
    ("perf.cost_model_ms", "ms"),
    ("trace.overhead_ms_p50", "ms"),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Samples behind it, for percentiles and medians.
    pub samples: Option<usize>,
}

impl Metric {
    /// A plain value (a count, a ratio, a rate).
    pub fn value(value: f64) -> Metric {
        Metric {
            value,
            samples: None,
        }
    }

    /// A percentile with its sample count.
    pub fn quantile(q: Quantile) -> Metric {
        Metric {
            value: q.value,
            samples: Some(q.samples),
        }
    }
}

/// Everything one invocation found.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Metrics by name (end-to-end, per-layer and extras alike).
    pub metrics: BTreeMap<String, Metric>,
    /// Operations measured (requests or compiles) plus output checks.
    pub attempted: u64,
    /// Failed operations and failed checks.
    pub failed: u64,
    /// What failed, for the log.
    pub failures: Vec<String>,
    /// Lines printed before the result (the human-readable report).
    pub notes: Vec<String>,
    /// Exact counts that must repeat run to run for the same seed.
    pub counts: BTreeMap<String, u64>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

impl RunResult {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, metric: Metric) {
        self.metrics.insert(name.to_owned(), metric);
    }

    /// Records a failed check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// p50 of the self times of every span named one of `names`, ms
    /// (0 with no such span); `selfs` is [`crate::trace::self_times`] of
    /// [`RunResult::spans`].
    pub fn span_p50_ms(&self, selfs: &[u64], names: &[&str]) -> Metric {
        let mut ms: Vec<f64> = self
            .spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| names.contains(&s.name))
            .map(|(_, &ns)| ns as f64 / 1e6)
            .collect();
        stats::median(&mut ms).map_or(Metric::value(0.0), Metric::quantile)
    }
}

/// The final stdout line: `correct`, `attempted`, `failed` and the
/// metrics of the given catalogue, each as `{"value", "unit"}`.
pub fn result_line(result: &RunResult, catalogue: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let value = result.metrics.get(*name).map_or(0.0, |m| m.value);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                json_number(value),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

/// A finite JSON number with all its digits (non-finite reads as 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}
