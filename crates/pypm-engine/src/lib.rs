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
//! * [`SweepPolicy`] — which nodes the pass's scheduler visits: every
//!   node (restart, the paper's reference) or only the incremental
//!   dirty-node worklist (the default; see the table below),
//! * [`PartitionPass`] — directed graph partitioning (§4.2), published
//!   as a pipeline artifact,
//! * [`ExplainObserver`] / [`explain_at`] — live match/rewrite
//!   narratives and per-node machine-trace diagnostics.
//!
//! ## Sweep policies
//!
//! One scheduler runs both policies; they differ only in which nodes a
//! round visits, and they are byte-identical down to node ids:
//!
//! | [`SweepPolicy`] | candidates per round | matching cost |
//! |---|---|---|
//! | `Incremental` (default) | the dirty-node worklist: every node at first, then each rewrite's cone of influence | O(initial graph + Σ cone sizes) |
//! | `RestartOnRewrite` (reference) | every node, rescanning from the first after each rewrite | O(graph × rewrites) visits |
//!
//! Both share the same sublinear view maintenance: one
//! [`pypm_graph::TermView::build`], then **lazy in-place patches** — a
//! patch marks the rewrite's cone stale (a pointer walk over the
//! graph's incrementally maintained reverse adjacency) and drops the
//! marked nodes from the ordered first-producer index; terms recompute
//! on demand when the scheduler next visits a node
//! ([`pypm_graph::TermView::term_of_repaired`]), so nodes dirtied by
//! several consecutive rewrites recompute once. A fully repaired view
//! is contractually indistinguishable from a rebuild, which is why
//! even the paper-faithful restart *scan* pays no per-sweep rebuild.
//! The recomputes are measured by the `nodes_reindexed` counter.
//!
//! The worklist invariants behind `Incremental` (why skipping clean
//! nodes is sound, why the firing order matches restarting exactly) are
//! documented on [`SweepPolicy::Incremental`] and proven empirically by
//! the `incremental_equivalence` and `pass_properties` suites; the
//! counters land in [`PassStats`] (`view_builds`, `view_patches`,
//! `nodes_revisited`, `nodes_reindexed`) and in the additive
//! `incremental` block of [`PipelineReport::to_json`].
//!
//! ## Threading
//!
//! Each compilation is serial: one greedy fixpoint loop discovers,
//! guards and commits every rewrite on the calling thread. Concurrency
//! lives one level up, in independent sessions (`pypmc serve
//! --workers`).

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
