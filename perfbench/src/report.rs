//! Reading `pypm.pipeline.v1` reports: volatile-field masking and the
//! counters the per-layer metrics sum.

use crate::json::{self, Value};

/// Report fields that legitimately differ between two compiles of the
/// same input (wall clock, and warm-pool reuse on a long-lived server).
pub const VOLATILE: [&str; 4] = ["wall_ms", "duration_ms", "warm_wall_ms", "pool_spawn_reuse"];

/// Counters read from a report's `totals`, as (metric name, path).
/// Every one repeats exactly for the same input, whatever the run.
pub const COUNTERS: [(&str, &str); 16] = [
    ("engine.match_attempts", "totals.match_attempts"),
    ("engine.nodes_visited", "totals.nodes_visited"),
    ("engine.sweeps", "totals.sweeps"),
    ("engine.rewrites_fired", "totals.rewrites_fired"),
    ("engine.view_patches", "totals.incremental.view_patches"),
    (
        "engine.nodes_revisited",
        "totals.incremental.nodes_revisited",
    ),
    (
        "engine.nodes_reindexed",
        "totals.incremental.nodes_reindexed",
    ),
    ("core.terms_walked", "totals.matcher.terms_walked"),
    ("core.trie_steps", "totals.matcher.trie_steps"),
    ("core.pairs_admitted", "totals.matcher.pairs_admitted"),
    ("core.pairs_rejected", "totals.matcher.pairs_rejected"),
    ("core.machine_steps", "totals.machine_steps"),
    ("core.machine_backtracks", "totals.machine_backtracks"),
    (
        "engine.parallel.probes_executed",
        "totals.parallel.probes_executed",
    ),
    (
        "engine.parallel.probes_filtered",
        "totals.parallel.probes_filtered",
    ),
    ("engine.parallel.pool_rounds", "totals.parallel.pool_rounds"),
];

/// A parsed report.
#[derive(Debug, Clone)]
pub struct Report {
    doc: Value,
}

impl Report {
    /// Parses a report document.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or a document of another schema.
    pub fn parse(text: &str) -> Result<Report, String> {
        let doc = json::parse(text)?;
        match doc.get("schema") {
            Some(Value::String(s)) if s == "pypm.pipeline.v1" => Ok(Report { doc }),
            _ => Err("not a pypm.pipeline.v1 report".to_owned()),
        }
    }

    /// The number at `path` (0 when the report lacks it).
    pub fn num(&self, path: &str) -> f64 {
        self.doc.num(path).unwrap_or(0.0)
    }

    /// Rewrites fired over the whole pipeline.
    pub fn rewrites_fired(&self) -> u64 {
        self.num("totals.rewrites_fired") as u64
    }

    /// The pipeline's wall time, ms.
    pub fn wall_ms(&self) -> f64 {
        self.num("totals.wall_ms")
    }

    /// The report with every [`VOLATILE`] field zeroed, rendered
    /// canonically: equal for two compiles of the same input.
    pub fn masked(&self) -> String {
        let mut doc = self.doc.clone();
        mask(&mut doc);
        doc.render()
    }
}

fn mask(v: &mut Value) {
    match v {
        Value::Object(map) => {
            for (k, child) in map.iter_mut() {
                if VOLATILE.contains(&k.as_str()) {
                    *child = Value::Number(0.0);
                } else {
                    mask(child);
                }
            }
        }
        Value::Array(items) => items.iter_mut().for_each(mask),
        _ => {}
    }
}
