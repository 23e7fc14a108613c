//! The pass manager: a composable [`Pipeline`] over [`Pass`] objects.
//!
//! A pipeline borrows the [`Session`] for the duration of a compilation,
//! runs its passes in order over one graph, validates the graph after
//! each mutating pass, and returns a [`PipelineReport`] with per-pass
//! wall-clock and counters, diagnostics, and published artifacts.
//!
//! ```
//! use pypm_engine::{Pipeline, RewritePass, Session};
//! use pypm_dsl::LibraryConfig;
//! use pypm_graph::{DType, Graph, TensorMeta};
//!
//! let mut s = Session::new();
//! let mut g = Graph::new();
//! let a = g.input(&mut s.syms, TensorMeta::new(DType::F32, vec![64, 32]));
//! let b = g.input(&mut s.syms, TensorMeta::new(DType::F32, vec![16, 32]));
//! let (trans, matmul) = (s.ops.trans, s.ops.matmul);
//! let bt = g.op(&mut s.syms, &s.registry, trans, vec![b], vec![]).unwrap();
//! let mm = g.op(&mut s.syms, &s.registry, matmul, vec![a, bt], vec![]).unwrap();
//! g.mark_output(mm);
//!
//! let rules = s.load_library(LibraryConfig::all());
//! let report = Pipeline::new(&mut s)
//!     .with(RewritePass::new(rules))
//!     .run(&mut g)
//!     .unwrap();
//! assert_eq!(report.total().rewrites_fired, 1);
//! assert!(report.to_json().contains("\"rewrites_fired\": 1"));
//! ```

use crate::pass::{Diagnostic, Observer, Pass, PassError, PassRecord, PipelineCx};
use crate::rewriter::PassStats;
use crate::session::Session;
use pypm_core::Budget;
use pypm_graph::Graph;
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// A failure in one pass of a pipeline run.
#[derive(Debug)]
pub struct PipelineError {
    /// Name of the failing pass.
    pub pass: String,
    /// What went wrong.
    pub error: PassError,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pass {} failed: {}", self.pass, self.error)
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// An ordered sequence of passes over one [`Session`].
pub struct Pipeline<'s> {
    session: &'s mut Session,
    passes: Vec<Box<dyn Pass>>,
    cx: PipelineCx,
    validate: bool,
}

impl fmt::Debug for Pipeline<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipeline")
            .field(
                "passes",
                &self.passes.iter().map(|p| p.name()).collect::<Vec<_>>(),
            )
            .field("validate", &self.validate)
            .finish()
    }
}

impl<'s> Pipeline<'s> {
    /// Creates an empty pipeline over `session`.
    pub fn new(session: &'s mut Session) -> Self {
        Pipeline {
            session,
            passes: Vec::new(),
            cx: PipelineCx::new(),
            validate: true,
        }
    }

    /// Appends a pass.
    pub fn with(mut self, pass: impl Pass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Appends an already-boxed pass (useful for dynamic pipelines).
    pub fn with_boxed(mut self, pass: Box<dyn Pass>) -> Self {
        self.passes.push(pass);
        self
    }

    /// Registers an [`Observer`] receiving live events from every pass.
    pub fn observe(mut self, observer: impl Observer + 'static) -> Self {
        self.cx.add_observer(Box::new(observer));
        self
    }

    /// Disables (or re-enables) graph validation after each mutating
    /// pass. Validation is on by default.
    pub fn validate_after_each(mut self, validate: bool) -> Self {
        self.validate = validate;
        self
    }

    /// Installs a cooperative resource [`Budget`] (wall deadline and/or
    /// machine-step cap) for this run. Passes check it at their
    /// scheduling points — the commit loop, machine probes and fused
    /// matcher walks — and the run stops at the first pass to observe
    /// exhaustion, failing with [`PassError::BudgetExceeded`]. The
    /// session remains fully reusable afterwards, and a budget that
    /// never trips changes nothing: results stay byte-identical to an
    /// unbudgeted run.
    pub fn with_budget(mut self, budget: Arc<Budget>) -> Self {
        self.cx.set_budget(budget);
        self
    }

    /// Runs every pass in order over `graph`.
    ///
    /// # Errors
    ///
    /// Stops at the first failing pass, naming it in the error.
    pub fn run(mut self, graph: &mut Graph) -> Result<PipelineReport, PipelineError> {
        self.run_one(graph)?;
        let (passes, diagnostics, artifacts) = self.cx.take_parts();
        Ok(PipelineReport {
            passes,
            diagnostics,
            artifacts,
        })
    }

    /// Runs every pass in order over each graph of a batch, one graph
    /// after another, reusing the session stores and the passes. Returns
    /// one [`PipelineReport`] per graph, in input order.
    ///
    /// Each graph's firing sequence, final form and semantic counters
    /// are byte-identical to a standalone [`Pipeline::run`] over the
    /// same session state (`run_batch_is_byte_identical_to_sequential_runs`
    /// in `pipeline_api.rs` proves it).
    ///
    /// # Errors
    ///
    /// Stops at the first failing pass of the first failing graph.
    pub fn run_batch(mut self, graphs: &mut [Graph]) -> Result<Vec<PipelineReport>, PipelineError> {
        let mut reports = Vec::with_capacity(graphs.len());
        for graph in graphs {
            self.run_one(graph)?;
            let (passes, diagnostics, artifacts) = self.cx.take_parts();
            reports.push(PipelineReport {
                passes,
                diagnostics,
                artifacts,
            });
        }
        Ok(reports)
    }

    /// One graph through every pass — the shared core of
    /// [`Pipeline::run`] and [`Pipeline::run_batch`].
    fn run_one(&mut self, graph: &mut Graph) -> Result<(), PipelineError> {
        for pass in &mut self.passes {
            let name = pass.name().to_owned();
            self.cx.begin_pass(&name, graph);
            let started = Instant::now();
            let outcome = pass
                .run(self.session, graph, &mut self.cx)
                .map_err(|error| PipelineError {
                    pass: name.clone(),
                    error,
                })?;
            if self.validate && outcome.changed {
                graph.validate().map_err(|e| PipelineError {
                    pass: name.clone(),
                    error: PassError::InvalidGraph {
                        reason: e.to_string(),
                    },
                })?;
            }
            self.cx.finish_pass(outcome, started.elapsed());
        }
        Ok(())
    }
}

/// Everything a pipeline run produced besides the rewritten graph:
/// per-pass records, diagnostics and published artifacts.
pub struct PipelineReport {
    passes: Vec<PassRecord>,
    diagnostics: Vec<Diagnostic>,
    artifacts: BTreeMap<String, Box<dyn Any>>,
}

impl fmt::Debug for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipelineReport")
            .field("passes", &self.passes)
            .field("diagnostics", &self.diagnostics)
            .field("artifacts", &self.artifacts.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl PipelineReport {
    /// Per-pass records, in run order.
    pub fn passes(&self) -> &[PassRecord] {
        &self.passes
    }

    /// The record of the first pass with the given name.
    pub fn pass(&self, name: &str) -> Option<&PassRecord> {
        self.passes.iter().find(|r| r.name == name)
    }

    /// Diagnostics from all passes, in emission order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// A published artifact, by key (e.g.
    /// [`crate::PartitionPass::ARTIFACT`]).
    pub fn artifact<T: Any>(&self, key: &str) -> Option<&T> {
        self.artifacts.get(key).and_then(|a| a.downcast_ref())
    }

    /// Removes and returns a published artifact, by key.
    pub fn take_artifact<T: Any>(&mut self, key: &str) -> Option<T> {
        let boxed = self.artifacts.remove(key)?;
        match boxed.downcast::<T>() {
            Ok(v) => Some(*v),
            Err(boxed) => {
                // Wrong type requested: put it back untouched.
                self.artifacts.insert(key.to_owned(), boxed);
                None
            }
        }
    }

    /// Aggregate counters across all passes; durations sum.
    pub fn total(&self) -> PassStats {
        let mut total = PassStats::default();
        for r in &self.passes {
            let s = &r.stats;
            total.nodes_visited += s.nodes_visited;
            total.match_attempts += s.match_attempts;
            total.matches_found += s.matches_found;
            total.rewrites_fired += s.rewrites_fired;
            total.machine_steps += s.machine_steps;
            total.machine_backtracks += s.machine_backtracks;
            total.sweeps += s.sweeps;
            total.duration += s.duration;
            total.view_builds += s.view_builds;
            total.view_patches += s.view_patches;
            total.nodes_revisited += s.nodes_revisited;
            total.nodes_reindexed += s.nodes_reindexed;
            total.matcher.absorb(&s.matcher);
        }
        total
    }

    /// Renders the report as JSON with the stable `pypm.pipeline.v1`
    /// schema, so external tooling (perf trackers, the `BENCH_*.json`
    /// trajectory) can consume pipeline runs:
    ///
    /// ```json
    /// {
    ///   "schema": "pypm.pipeline.v1",
    ///   "passes": [
    ///     {
    ///       "name": "rewrite", "changed": true, "wall_ms": 1.5,
    ///       "duration_ms": 1.4, "nodes_visited": 10, "match_attempts": 9,
    ///       "matches_found": 2, "rewrites_fired": 1, "machine_steps": 40,
    ///       "machine_backtracks": 3, "sweeps": 2,
    ///       "incremental": {"view_builds": 2, "view_patches": 0,
    ///                       "nodes_revisited": 4, "nodes_reindexed": 0},
    ///       "matcher": {"backend": "fused", "terms_walked": 5,
    ///                   "trie_steps": 40, "pairs_admitted": 3,
    ///                   "pairs_rejected": 6}
    ///     }
    ///   ],
    ///   "totals": { ...same counter fields, "wall_ms" summed... },
    ///   "diagnostics": [ {"pass": "...", "severity": "note", "message": "..."} ]
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\n  \"schema\": \"pypm.pipeline.v1\",\n  \"passes\": [");
        for (i, r) in self.passes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"name\": {}, ", json_string(&r.name)));
            out.push_str(&format!("\"changed\": {}, ", r.changed));
            out.push_str(&format!("\"wall_ms\": {:.6}, ", r.wall.as_secs_f64() * 1e3));
            out.push_str(&stats_fields(&r.stats));
            out.push('}');
        }
        out.push_str("\n  ],\n  \"totals\": {");
        let total = self.total();
        let wall_ms: f64 = self.passes.iter().map(|r| r.wall.as_secs_f64() * 1e3).sum();
        out.push_str(&format!("\"passes\": {}, ", self.passes.len()));
        out.push_str(&format!("\"wall_ms\": {wall_ms:.6}, "));
        out.push_str(&stats_fields(&total));
        out.push_str("},\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"pass\": {}, \"severity\": {}, \"message\": {}}}",
                json_string(&d.pass),
                json_string(&d.severity.to_string()),
                json_string(&d.message)
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// The shared counter fields of one [`PassStats`], as JSON key/values.
/// The trailing `incremental` and `matcher` objects are the schema's
/// additive blocks: incremental-rewriting view maintenance (all zero
/// for passes that never build a term view) and the candidate-discovery
/// counters of the configured matcher backend (`backend` is empty for
/// passes that never probe).
fn stats_fields(s: &PassStats) -> String {
    format!(
        "\"duration_ms\": {:.6}, \"nodes_visited\": {}, \"match_attempts\": {}, \
         \"matches_found\": {}, \"rewrites_fired\": {}, \"machine_steps\": {}, \
         \"machine_backtracks\": {}, \"sweeps\": {}, \
         \"incremental\": {{\"view_builds\": {}, \"view_patches\": {}, \
         \"nodes_revisited\": {}, \"nodes_reindexed\": {}}}, \
         \"matcher\": {{\"backend\": {}, \"terms_walked\": {}, \
         \"trie_steps\": {}, \"pairs_admitted\": {}, \
         \"pairs_rejected\": {}}}",
        s.duration.as_secs_f64() * 1e3,
        s.nodes_visited,
        s.match_attempts,
        s.matches_found,
        s.rewrites_fired,
        s.machine_steps,
        s.machine_backtracks,
        s.sweeps,
        s.view_builds,
        s.view_patches,
        s.nodes_revisited,
        s.nodes_reindexed,
        json_string(s.matcher.backend),
        s.matcher.terms_walked,
        s.matcher.trie_steps,
        s.matcher.pairs_admitted,
        s.matcher.pairs_rejected,
    )
}

/// Escapes a string as a JSON string literal.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
