//! # pypm-engine — the DLCB rewrite engine
//!
//! The paper's DLCB backend "dynamically loads and parses a user-specified
//! set of pattern binaries … repeatedly traverses the graph, attempting to
//! match any of the patterns … greedily rewriting all of the patterns it
//! can match until no matches remain" (§2.4). This crate is that backend,
//! organised as a pass manager:
//!
//! * [`Session`] — the shared symbol/term/pattern stores of a
//!   compilation, with library/binary/text loading,
//! * [`Pipeline`] — the pass manager: an ordered, instrumented sequence
//!   of [`Pass`] stages over one session and graph, reporting per-pass
//!   counters, diagnostics and artifacts through [`PipelineReport`]
//!   (with a stable JSON rendering),
//! * [`RewritePass`] — the greedy fixpoint pass driving the CorePyPM
//!   abstract machine over graph term-views, with ordered guarded rule
//!   firing and [`PassStats`] (the raw data behind the paper's
//!   compile-time figures 12–13),
//! * [`SweepPolicy`] — the pass's scheduler: restart (paper-faithful),
//!   continue, or the incremental dirty-node worklist (see the table
//!   below),
//! * [`PartitionPass`] — directed graph partitioning (§4.2), published
//!   as a pipeline artifact,
//! * [`ExplainObserver`] / [`explain_at`] — live match/rewrite
//!   narratives and per-node machine-trace diagnostics.
//!
//! ## Sweep policies
//!
//! All three schedulers reach the same fixpoint; restart and
//! incremental are byte-identical down to node ids:
//!
//! | [`SweepPolicy`] | after a rewrite fires | matching cost | term-view cost |
//! |---|---|---|---|
//! | `RestartOnRewrite` (default) | rescan from the first node | O(graph × rewrites) visits | one build, then one O(cone) marking [`pypm_graph::TermView::patch`] per rewrite |
//! | `ContinueSweep` | patch the view, keep sweeping | one full sweep per fixpoint round | one build, then one O(cone) marking patch per rewrite |
//! | `Incremental` | re-enqueue only the rewrite's cone of influence | O(initial graph + Σ cone sizes) | one build, then one O(cone) marking patch per rewrite |
//!
//! All three policies share the same sublinear view maintenance now:
//! one [`pypm_graph::TermView::build`], then **lazy in-place patches**
//! — a patch marks the rewrite's cone stale (a pointer walk over the
//! graph's incrementally maintained reverse adjacency) and drops the
//! marked nodes from the ordered first-producer index; terms recompute
//! on demand when the scheduler next visits a node
//! ([`pypm_graph::TermView::term_of_repaired`]), so nodes dirtied by
//! several consecutive rewrites recompute once. A fully repaired view
//! is contractually indistinguishable from a rebuild, which is why
//! even the paper-faithful restart *scan* no longer pays a per-sweep
//! rebuild. The recomputes are measured by the `nodes_reindexed`
//! counter — ~14× below the old linear-refresh floor on bert-small.
//!
//! The worklist invariants behind `Incremental` (why skipping clean
//! nodes is sound, why the firing order matches restarting exactly) are
//! documented on [`SweepPolicy::Incremental`] and proven empirically by
//! the `incremental_equivalence` and `pass_properties` suites; the
//! per-policy counters land in [`PassStats`] (`view_builds`,
//! `view_patches`, `nodes_revisited`, `nodes_reindexed`) and in the
//! additive `incremental` block of [`PipelineReport::to_json`].
//!
//! ## Threading
//!
//! Each compilation is serial: one greedy fixpoint loop discovers,
//! guards and commits every rewrite on the calling thread. Concurrency
//! lives one level up, in independent sessions (`pypmc serve
//! --workers`).
//!
//! ## Migrating from the legacy entry points
//!
//! The pre-pipeline API still compiles behind thin deprecated shims that
//! drive exactly the same engine code:
//!
//! | legacy | replacement |
//! |---|---|
//! | `Rewriter::new(&mut s, &rules).run(&mut g)` | `Pipeline::new(&mut s).with(RewritePass::new(rules)).run(&mut g)` |
//! | `Rewriter::new(..).with_config(cfg).run(..)` | `RewritePass::new(rules).config(cfg)` (or `.policy(..)` / `.machine_fuel(..)` / `.max_rewrites(..)`) |
//! | `Rewriter::new(..).find_matches(&g, "P")` | the free [`find_matches`]`(&mut s, &rules, &g, "P")` |
//! | `partition(&mut s, &rules, &g, "P")` | `Pipeline::new(&mut s).with(PartitionPass::new("P").with_rules(rules))`, then `report.artifact::<Vec<Partition>>(PartitionPass::ARTIFACT)` |
//! | `explain_match(..)` | [`explain_at`]`(..)` for one node, or an [`ExplainObserver`] attached via `Pipeline::observe` for a whole compilation |
//! | inspecting `PassStats` by hand | `PipelineReport::total()`, per-pass `PipelineReport::passes()`, machine-readable `PipelineReport::to_json()` |
//!
//! A legacy `Rewriter::run` and a `Pipeline` with one `RewritePass`
//! produce byte-identical [`PassStats`] counters — the equivalence suite
//! in `tests/pipeline_equivalence.rs` (crate `pypm`) proves it across
//! the full model zoo and both sweep policies.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod explain;
pub mod matcher;
pub mod partition;
pub mod pass;
pub mod pipeline;
pub mod rewriter;
pub mod session;

pub use explain::{explain_at, ExplainObserver, Explanation};
pub use matcher::{FusedMatcher, Matcher, MatcherBackend, MatcherStats, PerPatternMatcher};
pub use partition::{Partition, PartitionPass};
pub use pass::{
    Diagnostic, MatchRejected, Observer, Pass, PassError, PassOutcome, PassRecord, PipelineCx,
    RejectReason, RewriteFired, Severity,
};
pub use pipeline::{Pipeline, PipelineError, PipelineReport};
pub use rewriter::{
    find_matches, MatchReport, PassConfig, PassStats, RewriteError, RewritePass, SweepPolicy,
};
pub use session::Session;

#[allow(deprecated)]
pub use explain::explain_match;
#[allow(deprecated)]
pub use partition::partition;
#[allow(deprecated)]
pub use rewriter::Rewriter;
