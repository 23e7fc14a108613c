//! The DLCB pattern-matching pass (paper §2.4, §4.1).
//!
//! > "When the rewriting compiler pass runs on an operator graph, the
//! > compiler repeatedly traverses the graph, attempting to match any of
//! > the patterns. Each time a node is visited, the compiler attempts to
//! > match the subtree rooted at that node against each of the loaded
//! > patterns, in order of their appearance in the original python file.
//! > When a match is found, the corresponding rule (if any) fires, and
//! > the replacement is built and substituted into the graph in place of
//! > the subgraph the pattern matched."
//!
//! [`RewritePass`] implements exactly that loop: sweep nodes in
//! topological order, drive the CorePyPM abstract machine at each node,
//! fire the first rule whose guard holds, repair the term view, and
//! repeat until a sweep finds nothing ("greedily rewriting all of the
//! patterns it can match until no matches remain").
//!
//! [`SweepPolicy`] picks which nodes a sweep visits. Restarting visits
//! every node and is the paper's reference semantics;
//! [`SweepPolicy::Incremental`] (the default) visits only the nodes a
//! rewrite's cone of influence dirtied, while provably firing the
//! identical rewrite sequence (the invariants are documented on the
//! variant).
//!
//! [`PassStats`] records the counters behind the paper's compile-time
//! figures (Figs. 12–13): wall-clock matching time, match attempts
//! (including the "partial matches that don't end up actually matching"),
//! matches found, and rewrites fired.

use crate::matcher::{build_matcher, Matcher, MatcherBackend, MatcherStats};
use crate::pass::{Pass, PassError, PassOutcome, PipelineCx, RejectReason};
use crate::session::Session;
use pypm_core::{Budget, Machine, Outcome, PatternId, TermId, Witness};
use pypm_dsl::{Rhs, RuleSet};
use pypm_graph::{Graph, NodeId, TermView};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which nodes a sweep of the rewrite pass visits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepPolicy {
    /// Visit every node, restarting from the first after each rewrite:
    /// exactly the paper's "repeatedly traverses the graph" loop (§2.4).
    /// The reference the equivalence suites and the paper-figure
    /// counters (Figs. 12–13) are taken against.
    RestartOnRewrite,
    /// Incremental rewriting via a dirty-node worklist: after a rewrite
    /// fires, only the cone of influence (the rewired users of the
    /// replaced root, the freshly created replacement nodes, and their
    /// transitive users whose terms actually change) is re-enqueued, and
    /// the term view is repaired in place with [`TermView::patch`]
    /// instead of rebuilt.
    ///
    /// Firing order is deterministic and *identical* to
    /// [`SweepPolicy::RestartOnRewrite`]: candidates are visited in the
    /// graph's topological order, patterns in rule-set order, and a node
    /// outside the worklist cannot fire (its term — and therefore its
    /// match and guard outcome — is unchanged since it was last
    /// visited). The final graph is byte-identical to the restart
    /// policy's; only traversal counters (`nodes_visited`,
    /// `match_attempts`, `machine_steps`) shrink.
    ///
    /// Invariants behind that guarantee:
    ///
    /// 1. *Clean nodes cannot fire.* Whether a pattern matches at a node
    ///    — and whether the matched rule's guards hold and its
    ///    replacement is non-identity — depends only on the term rooted
    ///    there plus the term-keyed attribute side tables. A node leaves
    ///    the worklist only after a full pattern scan found nothing to
    ///    fire, and re-enters it only if its term changes; therefore a
    ///    node outside the worklist still has nothing to fire.
    ///
    ///    This additionally assumes the attribute tables are
    ///    *deterministic per term* — true whenever nodes that view as
    ///    the same term carry the same metadata and attributes.
    ///    Attribute-carrying constants get value-specialized term
    ///    symbols, and the library's compound attr-carrying kernels
    ///    (e.g. `GemmEpilog`) derive their attrs from the matched
    ///    subtree, so structurally equal subgraphs agree; a rule set
    ///    violating this (two same-term nodes with different attrs
    ///    whose first topo producer changes mid-pass) could flip a
    ///    guard at a clean node that restarting would re-examine and
    ///    this policy would not. The random-rule-subset byte-identity
    ///    proptest (and its 4096-case nightly run) exists to catch any
    ///    such divergence.
    /// 2. *A rewrite dirties exactly its cone of influence.* Replacing a
    ///    root changes the terms of the freshly created replacement
    ///    nodes, the users rewired onto the replacement, and their
    ///    transitive users — all strictly *after* the root in
    ///    topological order. Nodes visited earlier in the current round
    ///    keep their terms, so cleaning them as we pass is sound.
    ///    [`TermView::patch`] computes the cone with early cut-off and
    ///    the scheduler re-enqueues it.
    /// 3. *Deterministic order.* Each round scans the graph's
    ///    topological order and visits only worklist members, trying
    ///    patterns in rule-set order; after a firing the round restarts.
    ///    By (1) the first firing (node, pattern) pair in that filtered
    ///    scan is the first firing pair of a full restart scan, so the
    ///    rewrite sequence — and the final graph — is identical.
    #[default]
    Incremental,
}

impl SweepPolicy {
    /// Every policy, in ablation order (reference first).
    pub const ALL: [SweepPolicy; 2] = [SweepPolicy::RestartOnRewrite, SweepPolicy::Incremental];

    /// The policy's stable command-line / JSON-series name.
    pub fn name(self) -> &'static str {
        match self {
            SweepPolicy::RestartOnRewrite => "restart",
            SweepPolicy::Incremental => "incremental",
        }
    }

    /// Parses a [`SweepPolicy::name`] back to the policy — the single
    /// vocabulary shared by `pypmc compile --sweep-policy` and the
    /// bench series.
    pub fn parse(name: &str) -> Option<SweepPolicy> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl fmt::Display for SweepPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Tuning knobs for the rewrite pass.
#[derive(Debug, Clone, Copy)]
pub struct PassConfig {
    /// Step budget per machine run (recursive patterns can diverge).
    pub machine_fuel: u64,
    /// Upper bound on total rewrites, a safety net against rule sets
    /// that never reach a fixpoint.
    pub max_rewrites: usize,
    /// Which nodes each sweep visits.
    pub sweep_policy: SweepPolicy,
    /// Candidate-discovery backend run above the abstract machine (see
    /// [`crate::matcher`]). Backends fire byte-identical rewrite
    /// sequences; only machine-work counters differ.
    pub matcher: MatcherBackend,
}

impl Default for PassConfig {
    fn default() -> Self {
        PassConfig {
            machine_fuel: 1_000_000,
            max_rewrites: 100_000,
            sweep_policy: SweepPolicy::default(),
            matcher: MatcherBackend::Fused,
        }
    }
}

/// Counters for one pass (the paper's compile-time cost metrics).
#[derive(Debug, Clone, Default)]
pub struct PassStats {
    /// Node visits across all sweeps.
    pub nodes_visited: u64,
    /// Pattern match attempts (pattern × node pairs tried).
    pub match_attempts: u64,
    /// Attempts that succeeded.
    pub matches_found: u64,
    /// Rules fired (≤ matches: a match with no passing rule fires none).
    pub rewrites_fired: u64,
    /// Abstract-machine transitions across all attempts.
    pub machine_steps: u64,
    /// Machine backtracks across all attempts.
    pub machine_backtracks: u64,
    /// Sweeps over the graph's topological order (the fixpoint loop's
    /// rounds; each firing starts a new one).
    pub sweeps: u64,
    /// Wall-clock time of the pass.
    pub duration: Duration,
    /// Term views built from scratch ([`TermView::build`]).
    pub view_builds: u64,
    /// Term views repaired in place ([`TermView::patch`]).
    pub view_patches: u64,
    /// Visits to nodes already visited earlier in the pass — the
    /// redundant work incremental scheduling exists to avoid.
    pub nodes_revisited: u64,
    /// Terms the view's lazy repair recomputed over the whole pass
    /// ([`TermView::terms_recomputed`]). A patch only *marks* a
    /// rewrite's cone of influence; terms recompute on demand at the
    /// next visit, so nodes dirtied by several consecutive rewrites
    /// recompute once — the pre-sublinear design walked the whole live
    /// graph per patch, the baseline the bench trajectory's ≥5×
    /// reduction is measured against. Identical under restart and
    /// incremental scheduling (same visits, same fires).
    pub nodes_reindexed: u64,
    /// Candidate-discovery counters for the configured matcher backend;
    /// see [`MatcherStats`] and the [`crate::matcher`] module docs.
    pub matcher: MatcherStats,
}

impl fmt::Display for PassStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} visits, {} attempts, {} matches, {} rewrites, {} steps, {:.3} ms",
            self.nodes_visited,
            self.match_attempts,
            self.matches_found,
            self.rewrites_fired,
            self.machine_steps,
            self.duration.as_secs_f64() * 1e3,
        )
    }
}

/// Errors raised while building a replacement subgraph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteError {
    /// The rule's RHS mentions a variable the match did not bind.
    UnboundRhsVar {
        /// Variable name.
        var: String,
    },
    /// The rule's RHS mentions a function variable the match did not
    /// bind.
    UnboundRhsFunVar {
        /// Function variable name.
        fun_var: String,
    },
    /// A matched term has no corresponding graph node (internal error).
    NoNodeForTerm,
    /// Building a replacement node failed (shape inference or arity).
    BuildFailed {
        /// Human-readable reason.
        reason: String,
    },
    /// The run's cooperative [`pypm_core::Budget`] was exhausted. The
    /// session and stores remain reusable; the graph may have been
    /// partially rewritten. Surfaced to pipeline callers as
    /// [`crate::PassError::BudgetExceeded`].
    BudgetExceeded {
        /// The exhausted limits ([`pypm_core::Budget::describe`]).
        limits: String,
    },
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::UnboundRhsVar { var } => {
                write!(f, "rule rhs uses unbound variable {var}")
            }
            RewriteError::UnboundRhsFunVar { fun_var } => {
                write!(f, "rule rhs uses unbound function variable {fun_var}")
            }
            RewriteError::NoNodeForTerm => write!(f, "matched term has no graph node"),
            RewriteError::BuildFailed { reason } => write!(f, "replacement build failed: {reason}"),
            RewriteError::BudgetExceeded { limits } => {
                if limits.is_empty() {
                    write!(f, "compile budget exceeded")
                } else {
                    write!(f, "compile budget exceeded ({limits})")
                }
            }
        }
    }
}

impl std::error::Error for RewriteError {}

/// One successful match, as reported by [`find_matches`].
#[derive(Debug, Clone)]
pub struct MatchReport {
    /// Index of the pattern in the rule set.
    pub pattern_index: usize,
    /// The matched node (root of the matched subgraph).
    pub node: NodeId,
    /// The witness ⟨θ, φ⟩.
    pub witness: Witness,
    /// Terms structurally decomposed by the match — the matched subgraph
    /// (used by directed graph partitioning, §4.2).
    pub coverage: Vec<TermId>,
}

/// How an attempted firing of a matched pattern ended.
enum FireResult {
    /// The rule with this index fired and the graph was rewritten. The
    /// payload is the user nodes rewired from the replaced root to the
    /// replacement — the non-fresh half of the rewrite's dirty seed.
    Fired {
        /// Users whose inputs were redirected by the replacement.
        rewired: Vec<NodeId>,
    },
    /// No rule fired, for this reason.
    Rejected(RejectReason),
}

/// A fired rewrite as seen by a scheduler: the dirty seed
/// [`Driver::repair_view`] feeds to [`TermView::invalidate`].
struct Fired {
    /// Users whose inputs were redirected to the replacement.
    rewired: Vec<NodeId>,
    /// [`Graph::allocated_count`] before the firing — everything at or
    /// past this mark is a freshly created replacement node.
    alloc_mark: usize,
    /// Nodes the post-rewrite [`Graph::gc`] collected — the dead half
    /// of the dirty seed, which incremental view maintenance must drop
    /// from its index maps.
    collected: Vec<NodeId>,
}

/// The internal engine behind [`RewritePass`] and [`find_matches`]:
/// the paper's greedy fixpoint loop.
struct Driver<'a> {
    session: &'a mut Session,
    rules: &'a RuleSet,
    config: PassConfig,
    /// The candidate-discovery index (see [`crate::matcher`]), built
    /// lazily at the start of [`Driver::run`] so match-only entry
    /// points ([`Driver::find_matches`]) never pay the build.
    matcher: Option<Box<dyn Matcher>>,
    /// The run's cooperative resource budget, taken from the
    /// [`PipelineCx`] at the start of [`Driver::run`]; `None` (the
    /// default) means unlimited.
    budget: Option<Arc<Budget>>,
}

impl<'a> Driver<'a> {
    fn new(session: &'a mut Session, rules: &'a RuleSet, config: PassConfig) -> Self {
        Driver {
            session,
            rules,
            config,
            matcher: None,
            budget: None,
        }
    }

    /// Builds the configured discovery index over the rule set's
    /// patterns (in rule-set order). Idempotent.
    fn ensure_matcher(&mut self) {
        if self.matcher.is_some() {
            return;
        }
        let patterns: Vec<PatternId> = self.rules.patterns.iter().map(|d| d.pattern).collect();
        self.matcher = Some(build_matcher(
            self.config.matcher,
            &self.session.pats,
            &patterns,
        ));
    }

    /// Runs the pass to fixpoint, mutating `graph` in place and
    /// streaming match/rewrite events through `cx`.
    fn run(&mut self, graph: &mut Graph, cx: &mut PipelineCx) -> Result<PassStats, RewriteError> {
        let start = Instant::now();
        self.budget = cx.budget().cloned();
        self.ensure_matcher();
        if let Some(b) = &self.budget {
            // The fused matcher charges its trie walks against the
            // budget (and truncates them once it trips).
            self.matcher
                .as_mut()
                .expect("matcher built above")
                .set_budget(Some(Arc::clone(b)));
        }
        let mut stats = PassStats::default();
        stats.matcher.backend = self.config.matcher.name();
        self.run_sweeps(graph, cx, &mut stats)?;
        // Identity-rewrite probes may have left unreferenced nodes.
        graph.gc();
        stats.duration = start.elapsed();
        Ok(stats)
    }

    /// Checks the run's cooperative budget (a no-op without one). The
    /// scheduler calls this once per candidate visit, so a tripped
    /// budget unwinds within one node visit.
    fn check_budget(&self) -> Result<(), RewriteError> {
        match &self.budget {
            Some(b) if !b.check() => Err(RewriteError::BudgetExceeded {
                limits: b.describe(),
            }),
            _ => Ok(()),
        }
    }

    /// Probes one (pattern, term) candidate: consults the discovery
    /// index first (a rejected pair is a guaranteed failure — no
    /// machine run), then runs the abstract machine. Fuel exhaustion
    /// counts as "no match".
    fn probe(
        &mut self,
        pi: usize,
        t: TermId,
        op: pypm_core::Symbol,
        view: &TermView,
        stats: &mut PassStats,
    ) -> Option<Witness> {
        let matcher = self.matcher.as_mut().expect("matcher built in run()");
        if !matcher.admits(pi, t, op, &self.session.terms, &mut stats.matcher) {
            stats.matcher.pairs_rejected += 1;
            return None;
        }
        stats.matcher.pairs_admitted += 1;
        let mut machine = Machine::new(&mut self.session.pats, &self.session.terms, view.attrs());
        let outcome = machine.run(self.rules.patterns[pi].pattern, t, self.config.machine_fuel);
        let mstats = machine.stats();
        if let Some(b) = &self.budget {
            // Machine transitions are the step currency of the budget's
            // `machine_steps` cap.
            b.charge(mstats.steps);
        }
        stats.machine_steps += mstats.steps;
        stats.machine_backtracks += mstats.backtracks;
        match outcome {
            Ok(Outcome::Success(w)) => Some(w),
            Ok(Outcome::Failure) | Err(_) => None,
        }
    }

    /// Visits one node: counts the visit, tries every pattern in
    /// rule-set order, and fires the first applicable rule. Both
    /// policies run this same step; they differ only in which nodes
    /// [`Driver::run_sweeps`] hands it.
    ///
    /// On a firing, the graph is already rewritten and collected; the
    /// returned [`Fired`] carries the dirty seed for
    /// [`Driver::repair_view`].
    fn visit_node(
        &mut self,
        graph: &mut Graph,
        view: &mut TermView,
        node: NodeId,
        visited_once: &mut HashSet<NodeId>,
        stats: &mut PassStats,
        cx: &mut PipelineCx,
    ) -> Result<Option<Fired>, RewriteError> {
        stats.nodes_visited += 1;
        if !visited_once.insert(node) {
            stats.nodes_revisited += 1;
        }
        // Lazy view maintenance: a node dirtied by earlier rewrites is
        // repaired here, at visit time — nodes re-dirtied before their
        // next visit are recomputed once, not once per rewrite.
        let t = match view.term_of_repaired(
            graph,
            &mut self.session.syms,
            &mut self.session.terms,
            &self.session.registry,
            node,
        ) {
            Some(t) => t,
            None => return Ok(None),
        };
        let rules = self.rules;
        let op = self.session.terms.op(t);
        for (pi, def) in rules.patterns.iter().enumerate() {
            if def.rules.is_empty() {
                // Pattern-only definitions (e.g. PwSubgraph) are
                // matched by find_matches/partitioning, not by the
                // rewriting pass.
                continue;
            }
            stats.match_attempts += 1;
            let Some(witness) = self.probe(pi, t, op, view, stats) else {
                continue;
            };
            stats.matches_found += 1;
            // "PyPM runs each of the corresponding rules one by one …
            // The first rule whose assertions pass is fired."
            let alloc_mark = graph.allocated_count();
            match self.fire_first_rule(graph, view, node, pi, &witness, cx)? {
                FireResult::Fired { rewired } => {
                    stats.rewrites_fired += 1;
                    let collected = graph.gc();
                    return Ok(Some(Fired {
                        rewired,
                        alloc_mark,
                        collected,
                    }));
                }
                FireResult::Rejected(reason) => {
                    cx.emit_match_rejected(&def.name, node, reason);
                }
            }
        }
        Ok(None)
    }

    /// Repairs the view's bookkeeping after a fired rewrite: the
    /// rewired users, the freshly allocated replacement nodes, and the
    /// gc-collected dead nodes seed the patch (the dead ids let the
    /// sublinear index maintenance drop entries without scanning for
    /// liveness). The patch only *marks* the cone — terms recompute
    /// lazily at the next visit. Returns the marked cone for worklist
    /// re-enqueueing.
    fn repair_view(
        &mut self,
        graph: &Graph,
        view: &mut TermView,
        fired: Fired,
        stats: &mut PassStats,
    ) -> Vec<NodeId> {
        view.invalidate(
            fired
                .rewired
                .into_iter()
                .chain(graph.allocated_since(fired.alloc_mark))
                .chain(fired.collected),
        );
        let cone = view.patch(graph);
        stats.view_patches += 1;
        cone
    }

    /// The scheduler: the paper's "repeatedly traverses the graph" loop
    /// (§2.4). Each round scans the graph's topological order; the
    /// first firing repairs the view and starts a new round, and a
    /// round that fires nothing is the fixpoint.
    ///
    /// The policies differ in one candidate filter only:
    /// [`SweepPolicy::RestartOnRewrite`] visits every node of the
    /// round, [`SweepPolicy::Incremental`] only the members of a
    /// dirty-node worklist (every node at first, then each rewrite's
    /// cone of influence). The variant docs give the invariants that
    /// make both fire the identical rewrite sequence.
    ///
    /// Under both, the term view is built once and then *repaired in
    /// place* after every firing: a repaired view is contractually
    /// indistinguishable from a rebuild (the equivalence the `termview`
    /// suites prove), and a patch is an O(cone) marking walk with terms
    /// recomputed on demand at visit time.
    fn run_sweeps(
        &mut self,
        graph: &mut Graph,
        cx: &mut PipelineCx,
        stats: &mut PassStats,
    ) -> Result<(), RewriteError> {
        let mut view = TermView::build(
            graph,
            &mut self.session.syms,
            &mut self.session.terms,
            &self.session.registry,
        );
        stats.view_builds += 1;
        let mut worklist: Option<HashSet<NodeId>> = match self.config.sweep_policy {
            SweepPolicy::RestartOnRewrite => None,
            SweepPolicy::Incremental => Some(graph.topo_order().into_iter().collect()),
        };
        let mut visited_once: HashSet<NodeId> = HashSet::new();
        'rounds: loop {
            stats.sweeps += 1;
            cx.set_sweep(stats.sweeps);
            for node in graph.topo_order() {
                // The candidate filter. Visiting removes a node from the
                // worklist (a later rewrite re-enqueues it if its term
                // changes); ids of collected nodes never reach the
                // order, so they stay inert in the set.
                if let Some(dirty) = &mut worklist {
                    if !dirty.remove(&node) {
                        continue;
                    }
                }
                self.check_budget()?;
                let Some(fired) =
                    self.visit_node(graph, &mut view, node, &mut visited_once, stats, cx)?
                else {
                    continue;
                };
                // Repair before the rewrite-cap check, so
                // `view_patches == rewrites_fired` holds even when the
                // cap cuts the pass short.
                let cone = self.repair_view(graph, &mut view, fired, stats);
                if let Some(dirty) = &mut worklist {
                    dirty.extend(cone);
                }
                if stats.rewrites_fired as usize >= self.config.max_rewrites {
                    break 'rounds;
                }
                continue 'rounds;
            }
            // Every firing starts a new round, so completing a scan
            // means nothing fired: fixpoint reached.
            break;
        }
        stats.nodes_reindexed += view.terms_recomputed();
        Ok(())
    }

    /// Attempts the matched pattern's rules in order; builds and splices
    /// the replacement of the first whose guard holds.
    fn fire_first_rule(
        &mut self,
        graph: &mut Graph,
        view: &TermView,
        node: NodeId,
        pattern_index: usize,
        witness: &Witness,
        cx: &mut PipelineCx,
    ) -> Result<FireResult, RewriteError> {
        let def = &self.rules.patterns[pattern_index];
        let mut saw_identity = false;
        for (ri, rule) in def.rules.iter().enumerate() {
            let holds = rule
                .guard
                .eval(&witness.theta, &self.session.terms, view.attrs())
                .holds();
            if !holds {
                continue;
            }
            // Identity rewrites (replacement structurally equal to the
            // matched subgraph, e.g. collapsing a chain of one RELU to
            // one RELU) must not fire, or the pass would never reach a
            // fixpoint. The check folds the RHS template to a *term*
            // before any graph node is built: a rejected rule therefore
            // allocates nothing, which keeps node-id allocation — and so
            // the byte-identity of SweepPolicy::Incremental with
            // RestartOnRewrite — independent of how often a scheduler
            // revisits the rejected candidate.
            if Some(self.term_of_rhs(&rule.rhs, witness)?) == view.term_of(node) {
                saw_identity = true;
                continue;
            }
            let root_meta = graph.node(node).meta.clone();
            let replacement = self.instantiate_root(graph, view, &rule.rhs, witness, root_meta)?;
            let rewired =
                graph
                    .replace_traced(node, replacement)
                    .map_err(|e| RewriteError::BuildFailed {
                        reason: e.to_string(),
                    })?;
            cx.emit_rewrite_fired(&def.name, ri, node);
            return Ok(FireResult::Fired { rewired });
        }
        Ok(FireResult::Rejected(if saw_identity {
            RejectReason::IdentityReplacement
        } else {
            RejectReason::GuardsFailed
        }))
    }

    /// Builds the RHS root. A rewrite replaces a subgraph by an
    /// equivalent one, so the replacement's output metadata is the
    /// matched root's metadata verbatim (shape inference cannot always
    /// recover it — e.g. the fused ConvBiasAct kernel carries its stride
    /// internally).
    fn instantiate_root(
        &mut self,
        graph: &mut Graph,
        view: &TermView,
        rhs: &Rhs,
        witness: &Witness,
        root_meta: pypm_graph::TensorMeta,
    ) -> Result<NodeId, RewriteError> {
        match rhs {
            Rhs::Var(_) => self.instantiate(graph, view, rhs, witness),
            Rhs::App { op, args, attrs } => {
                let mut inputs = Vec::with_capacity(args.len());
                for a in args {
                    inputs.push(self.instantiate(graph, view, a, witness)?);
                }
                graph
                    .op_with_meta(*op, inputs, attrs.clone(), root_meta)
                    .map_err(|e| RewriteError::BuildFailed {
                        reason: e.to_string(),
                    })
            }
            Rhs::FunApp(fv, args) => {
                let op = witness
                    .phi
                    .get(*fv)
                    .ok_or_else(|| RewriteError::UnboundRhsFunVar {
                        fun_var: self.session.syms.fun_var_name(*fv).to_owned(),
                    })?;
                let mut inputs = Vec::with_capacity(args.len());
                for a in args {
                    inputs.push(self.instantiate(graph, view, a, witness)?);
                }
                graph
                    .op_with_meta(op, inputs, Vec::new(), root_meta)
                    .map_err(|e| RewriteError::BuildFailed {
                        reason: e.to_string(),
                    })
            }
        }
    }

    /// The term the instantiated RHS template would denote, folded
    /// structurally through the hash-consed term store *without*
    /// touching the graph — exactly the term [`Driver::instantiate_root`]
    /// would produce nodes for. Used by the identity check so that
    /// rejected rules allocate no graph nodes.
    fn term_of_rhs(&mut self, rhs: &Rhs, witness: &Witness) -> Result<TermId, RewriteError> {
        match rhs {
            Rhs::Var(x) => witness
                .theta
                .get(*x)
                .ok_or_else(|| RewriteError::UnboundRhsVar {
                    var: self.session.syms.var_name(*x).to_owned(),
                }),
            Rhs::App { op, args, .. } => {
                let mut terms = Vec::with_capacity(args.len());
                for a in args {
                    terms.push(self.term_of_rhs(a, witness)?);
                }
                Ok(self.session.terms.app(*op, terms))
            }
            Rhs::FunApp(fv, args) => {
                let op = witness
                    .phi
                    .get(*fv)
                    .ok_or_else(|| RewriteError::UnboundRhsFunVar {
                        fun_var: self.session.syms.fun_var_name(*fv).to_owned(),
                    })?;
                let mut terms = Vec::with_capacity(args.len());
                for a in args {
                    terms.push(self.term_of_rhs(a, witness)?);
                }
                Ok(self.session.terms.app(op, terms))
            }
        }
    }

    /// Builds the RHS template into the graph, reusing matched subgraphs
    /// for variables.
    fn instantiate(
        &mut self,
        graph: &mut Graph,
        view: &TermView,
        rhs: &Rhs,
        witness: &Witness,
    ) -> Result<NodeId, RewriteError> {
        match rhs {
            Rhs::Var(x) => {
                let t = witness
                    .theta
                    .get(*x)
                    .ok_or_else(|| RewriteError::UnboundRhsVar {
                        var: self.session.syms.var_name(*x).to_owned(),
                    })?;
                view.node_of(t).ok_or(RewriteError::NoNodeForTerm)
            }
            Rhs::App { op, args, attrs } => {
                let mut inputs = Vec::with_capacity(args.len());
                for a in args {
                    inputs.push(self.instantiate(graph, view, a, witness)?);
                }
                graph
                    .op(
                        &mut self.session.syms,
                        &self.session.registry,
                        *op,
                        inputs,
                        attrs.clone(),
                    )
                    .map_err(|e| RewriteError::BuildFailed {
                        reason: e.to_string(),
                    })
            }
            Rhs::FunApp(fv, args) => {
                let op = witness
                    .phi
                    .get(*fv)
                    .ok_or_else(|| RewriteError::UnboundRhsFunVar {
                        fun_var: self.session.syms.fun_var_name(*fv).to_owned(),
                    })?;
                let mut inputs = Vec::with_capacity(args.len());
                for a in args {
                    inputs.push(self.instantiate(graph, view, a, witness)?);
                }
                graph
                    .op(
                        &mut self.session.syms,
                        &self.session.registry,
                        op,
                        inputs,
                        Vec::new(),
                    )
                    .map_err(|e| RewriteError::BuildFailed {
                        reason: e.to_string(),
                    })
            }
        }
    }

    /// Finds all matches of one named pattern over the current graph
    /// *without rewriting* — the matching mode used by directed graph
    /// partitioning (§4.2) and by diagnostics.
    fn find_matches(&mut self, graph: &Graph, pattern_name: &str) -> Vec<MatchReport> {
        let Some((pi, def)) = self
            .rules
            .patterns
            .iter()
            .enumerate()
            .find(|(_, d)| d.name == pattern_name)
        else {
            return Vec::new();
        };
        let view = TermView::build(
            graph,
            &mut self.session.syms,
            &mut self.session.terms,
            &self.session.registry,
        );
        let mut out = Vec::new();
        for node in graph.topo_order() {
            let t = match view.term_of(node) {
                Some(t) => t,
                None => continue,
            };
            let mut machine =
                Machine::new(&mut self.session.pats, &self.session.terms, view.attrs());
            if let Ok(Outcome::Success(w)) = machine.run(def.pattern, t, self.config.machine_fuel) {
                let coverage = machine.coverage().to_vec();
                out.push(MatchReport {
                    pattern_index: pi,
                    node,
                    witness: w,
                    coverage,
                });
            }
        }
        out
    }
}

/// The greedy fixpoint rewrite stage (paper §2.4), as a [`Pass`].
///
/// Owns its [`RuleSet`] and configuration; build one with the fluent
/// constructors and hand it to a [`crate::Pipeline`]:
///
/// ```
/// use pypm_engine::{Pipeline, RewritePass, Session, SweepPolicy};
/// use pypm_dsl::LibraryConfig;
/// use pypm_graph::Graph;
///
/// let mut session = Session::new();
/// let rules = session.load_library(LibraryConfig::both());
/// let mut graph = Graph::new();
/// let report = Pipeline::new(&mut session)
///     .with(RewritePass::new(rules).policy(SweepPolicy::RestartOnRewrite))
///     .run(&mut graph)
///     .unwrap();
/// assert_eq!(report.passes().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RewritePass {
    rules: RuleSet,
    config: PassConfig,
}

impl RewritePass {
    /// The pass name, as it appears in records, diagnostics and JSON.
    pub const NAME: &'static str = "rewrite";

    /// Creates the pass over an owned rule set with the default
    /// configuration.
    pub fn new(rules: RuleSet) -> Self {
        RewritePass {
            rules,
            config: PassConfig::default(),
        }
    }

    /// Overrides the whole pass configuration.
    pub fn config(mut self, config: PassConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects which nodes each sweep visits.
    pub fn policy(mut self, policy: SweepPolicy) -> Self {
        self.config.sweep_policy = policy;
        self
    }

    /// Overrides the per-attempt abstract-machine step budget.
    pub fn machine_fuel(mut self, fuel: u64) -> Self {
        self.config.machine_fuel = fuel;
        self
    }

    /// Overrides the total-rewrite safety bound.
    pub fn max_rewrites(mut self, max: usize) -> Self {
        self.config.max_rewrites = max;
        self
    }

    /// Selects the candidate-discovery backend (see [`crate::matcher`]).
    pub fn matcher(mut self, backend: MatcherBackend) -> Self {
        self.config.matcher = backend;
        self
    }

    /// The rule set this pass drives.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }
}

impl Pass for RewritePass {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn run(
        &mut self,
        session: &mut Session,
        graph: &mut Graph,
        cx: &mut PipelineCx,
    ) -> Result<PassOutcome, PassError> {
        let stats = Driver::new(session, &self.rules, self.config).run(graph, cx)?;
        Ok(PassOutcome::from_stats(stats))
    }
}

/// Finds all matches of one named pattern over `graph` *without*
/// rewriting — the matching mode used by directed graph partitioning
/// (§4.2) and by diagnostics. Unknown pattern names yield no matches.
pub fn find_matches(
    session: &mut Session,
    rules: &RuleSet,
    graph: &Graph,
    pattern_name: &str,
) -> Vec<MatchReport> {
    Driver::new(session, rules, PassConfig::default()).find_matches(graph, pattern_name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pipeline;
    use pypm_dsl::LibraryConfig;
    use pypm_graph::{DType, NodeKind, TensorMeta};

    /// Runs one default [`RewritePass`] to fixpoint.
    fn rewrite(s: &mut Session, rs: &RuleSet, g: &mut Graph) -> PassStats {
        Pipeline::new(s)
            .with(RewritePass::new(rs.clone()))
            .run(g)
            .unwrap()
            .total()
    }

    fn mat(s: &mut Session, g: &mut Graph, dims: &[i64]) -> NodeId {
        g.input(&mut s.syms, TensorMeta::new(DType::F32, dims.to_vec()))
    }

    fn scalar_const(s: &mut Session, g: &mut Graph, milli: i64) -> NodeId {
        g.op_with_meta(
            s.ops.const_scalar,
            vec![],
            vec![(s.ops.value_milli_attr, milli)],
            TensorMeta::scalar(DType::F32),
        )
        .unwrap()
    }

    #[test]
    fn cublas_rewrite_fires_on_f32_rank2() {
        let mut s = Session::new();
        let rs = s.load_library(LibraryConfig::all());
        let mut g = Graph::new();
        let a = mat(&mut s, &mut g, &[64, 32]);
        let b = mat(&mut s, &mut g, &[16, 32]);
        let (trans, matmul) = (s.ops.trans, s.ops.matmul);
        let bt = g
            .op(&mut s.syms, &s.registry, trans, vec![b], vec![])
            .unwrap();
        let mm = g
            .op(&mut s.syms, &s.registry, matmul, vec![a, bt], vec![])
            .unwrap();
        g.mark_output(mm);

        let stats = rewrite(&mut s, &rs, &mut g);
        assert_eq!(stats.rewrites_fired, 1);
        let out = g.outputs()[0];
        assert_eq!(g.node(out).op, s.ops.cublas_mm_xyt_f32);
        assert_eq!(g.node(out).meta.shape.dims(), &[64, 16]);
        // The Trans node is garbage now.
        assert_eq!(g.live_count(), 3);
    }

    #[test]
    fn cublas_rule_respects_dtype_guard() {
        // f16 inputs: pattern matches structurally but neither rule
        // guard passes — nothing fires.
        let mut s = Session::new();
        let rs = s.load_library(LibraryConfig::all());
        let mut g = Graph::new();
        let a = g.input(&mut s.syms, TensorMeta::new(DType::F16, vec![8, 8]));
        let b = g.input(&mut s.syms, TensorMeta::new(DType::F16, vec![8, 8]));
        let (trans, matmul) = (s.ops.trans, s.ops.matmul);
        let bt = g
            .op(&mut s.syms, &s.registry, trans, vec![b], vec![])
            .unwrap();
        let mm = g
            .op(&mut s.syms, &s.registry, matmul, vec![a, bt], vec![])
            .unwrap();
        g.mark_output(mm);

        let stats = rewrite(&mut s, &rs, &mut g);
        assert_eq!(stats.rewrites_fired, 0);
        assert!(stats.matches_found > 0);
        assert_eq!(g.node(g.outputs()[0]).op, matmul);
    }

    #[test]
    fn gelu_subgraph_fuses_both_variants() {
        // Div(x,2) and Mul(x,0.5) halves (Fig. 2) both collapse to Gelu.
        for use_div in [true, false] {
            let mut s = Session::new();
            let rs = s.load_library(LibraryConfig::epilog_only());
            let mut g = Graph::new();
            let x = mat(&mut s, &mut g, &[4, 8]);
            let (div, mul, add, erf) = (s.ops.div, s.ops.mul, s.ops.add, s.ops.erf);
            let half = if use_div {
                let two = scalar_const(&mut s, &mut g, 2000);
                g.op(&mut s.syms, &s.registry, div, vec![x, two], vec![])
                    .unwrap()
            } else {
                let h = scalar_const(&mut s, &mut g, 500);
                g.op(&mut s.syms, &s.registry, mul, vec![x, h], vec![])
                    .unwrap()
            };
            let sqrt2 = scalar_const(&mut s, &mut g, 1414);
            let xdiv = g
                .op(&mut s.syms, &s.registry, div, vec![x, sqrt2], vec![])
                .unwrap();
            let erfx = g
                .op(&mut s.syms, &s.registry, erf, vec![xdiv], vec![])
                .unwrap();
            let one = scalar_const(&mut s, &mut g, 1000);
            let onep = g
                .op(&mut s.syms, &s.registry, add, vec![one, erfx], vec![])
                .unwrap();
            let gelu = g
                .op(&mut s.syms, &s.registry, mul, vec![half, onep], vec![])
                .unwrap();
            g.mark_output(gelu);

            let stats = rewrite(&mut s, &rs, &mut g);
            assert_eq!(stats.rewrites_fired, 1, "use_div={use_div}");
            assert_eq!(g.node(g.outputs()[0]).op, s.ops.gelu);
            // Gelu(x) over the original input: two live nodes.
            assert_eq!(g.live_count(), 2);
        }
    }

    #[test]
    fn mha_fuses_to_fmha() {
        let mut s = Session::new();
        let rs = s.load_library(LibraryConfig::fmha_only());
        let mut g = Graph::new();
        let q = mat(&mut s, &mut g, &[8, 128, 64]);
        let k = mat(&mut s, &mut g, &[8, 128, 64]);
        let v = mat(&mut s, &mut g, &[8, 128, 64]);
        let (trans, matmul, mul, softmax) = (s.ops.trans, s.ops.matmul, s.ops.mul, s.ops.softmax);
        let kt = g
            .op(&mut s.syms, &s.registry, trans, vec![k], vec![])
            .unwrap();
        let scores = g
            .op(&mut s.syms, &s.registry, matmul, vec![q, kt], vec![])
            .unwrap();
        let scale = scalar_const(&mut s, &mut g, 125);
        let scaled = g
            .op(&mut s.syms, &s.registry, mul, vec![scores, scale], vec![])
            .unwrap();
        let probs = g
            .op(&mut s.syms, &s.registry, softmax, vec![scaled], vec![])
            .unwrap();
        let out = g
            .op(&mut s.syms, &s.registry, matmul, vec![probs, v], vec![])
            .unwrap();
        g.mark_output(out);

        let stats = rewrite(&mut s, &rs, &mut g);
        assert_eq!(stats.rewrites_fired, 1);
        let root = g.outputs()[0];
        assert_eq!(g.node(root).op, s.ops.fmha);
        assert_eq!(g.node(root).inputs, vec![q, k, v]);
    }

    #[test]
    fn epilog_fuses_relu_after_matmul() {
        let mut s = Session::new();
        let rs = s.load_library(LibraryConfig::epilog_only());
        let mut g = Graph::new();
        let a = mat(&mut s, &mut g, &[32, 64]);
        let b = mat(&mut s, &mut g, &[64, 16]);
        let (matmul, relu) = (s.ops.matmul, s.ops.relu);
        let mm = g
            .op(&mut s.syms, &s.registry, matmul, vec![a, b], vec![])
            .unwrap();
        let act = g
            .op(&mut s.syms, &s.registry, relu, vec![mm], vec![])
            .unwrap();
        g.mark_output(act);

        let stats = rewrite(&mut s, &rs, &mut g);
        assert_eq!(stats.rewrites_fired, 1);
        let root = g.outputs()[0];
        assert_eq!(g.node(root).op, s.ops.gemm_epilog);
        assert_eq!(
            g.node(root).attr(s.ops.epilog_attr),
            Some(pypm_graph::Activation::Relu.code())
        );
    }

    #[test]
    fn gelu_then_epilog_cascade() {
        // MatMul → expanded GELU: first the GELU subgraph fuses to
        // Gelu(mm), then EpilogGelu fuses the rest — two rewrites, one
        // fused node (the cascade §4.1 relies on).
        let mut s = Session::new();
        let rs = s.load_library(LibraryConfig::epilog_only());
        let mut g = Graph::new();
        let a = mat(&mut s, &mut g, &[32, 64]);
        let b = mat(&mut s, &mut g, &[64, 16]);
        let (div, mul, add, erf, matmul) =
            (s.ops.div, s.ops.mul, s.ops.add, s.ops.erf, s.ops.matmul);
        let x = g
            .op(&mut s.syms, &s.registry, matmul, vec![a, b], vec![])
            .unwrap();
        let two = scalar_const(&mut s, &mut g, 2000);
        let half = g
            .op(&mut s.syms, &s.registry, div, vec![x, two], vec![])
            .unwrap();
        let sqrt2 = scalar_const(&mut s, &mut g, 1414);
        let xdiv = g
            .op(&mut s.syms, &s.registry, div, vec![x, sqrt2], vec![])
            .unwrap();
        let erfx = g
            .op(&mut s.syms, &s.registry, erf, vec![xdiv], vec![])
            .unwrap();
        let one = scalar_const(&mut s, &mut g, 1000);
        let onep = g
            .op(&mut s.syms, &s.registry, add, vec![one, erfx], vec![])
            .unwrap();
        let gelu = g
            .op(&mut s.syms, &s.registry, mul, vec![half, onep], vec![])
            .unwrap();
        g.mark_output(gelu);

        let stats = rewrite(&mut s, &rs, &mut g);
        assert_eq!(stats.rewrites_fired, 2);
        let root = g.outputs()[0];
        assert_eq!(g.node(root).op, s.ops.gemm_epilog);
        assert_eq!(
            g.node(root).attr(s.ops.epilog_attr),
            Some(pypm_graph::Activation::Gelu.code())
        );
        assert_eq!(g.live_count(), 3); // a, b, fused node
    }

    #[test]
    fn relu_chain_collapses_to_one() {
        let mut s = Session::new();
        let rs = s.load_library(LibraryConfig::all());
        let mut g = Graph::new();
        let x = mat(&mut s, &mut g, &[4, 4]);
        let relu = s.ops.relu;
        let mut cur = x;
        for _ in 0..6 {
            cur = g
                .op(&mut s.syms, &s.registry, relu, vec![cur], vec![])
                .unwrap();
        }
        g.mark_output(cur);

        rewrite(&mut s, &rs, &mut g);
        // Relu(x) and the input: exactly two live nodes.
        assert_eq!(g.live_count(), 2);
        let root = g.outputs()[0];
        assert_eq!(g.node(root).op, relu);
        assert_eq!(g.node(root).inputs, vec![x]);
    }

    #[test]
    fn trans_trans_cancels_via_var_rhs() {
        let mut s = Session::new();
        let rs = s.load_library(LibraryConfig::all());
        let mut g = Graph::new();
        let x = mat(&mut s, &mut g, &[4, 8]);
        let trans = s.ops.trans;
        let t1 = g
            .op(&mut s.syms, &s.registry, trans, vec![x], vec![])
            .unwrap();
        let t2 = g
            .op(&mut s.syms, &s.registry, trans, vec![t1], vec![])
            .unwrap();
        g.mark_output(t2);

        rewrite(&mut s, &rs, &mut g);
        assert_eq!(g.outputs(), &[x]);
        assert_eq!(g.live_count(), 1);
        assert_eq!(g.node(x).kind, NodeKind::Input);
    }

    #[test]
    fn opaque_nodes_block_matching() {
        // Trans(Opaque(Trans(x))) must NOT cancel: the opaque node hides
        // its operand (§4.1).
        let mut s = Session::new();
        let rs = s.load_library(LibraryConfig::all());
        let mut g = Graph::new();
        let x = mat(&mut s, &mut g, &[4, 4]);
        let trans = s.ops.trans;
        let t1 = g
            .op(&mut s.syms, &s.registry, trans, vec![x], vec![])
            .unwrap();
        let mystery = s.syms.op("Mystery", 1);
        let o = g
            .opaque(
                &mut s.syms,
                mystery,
                vec![t1],
                TensorMeta::new(DType::F32, vec![4, 4]),
            )
            .unwrap();
        let t2 = g
            .op(&mut s.syms, &s.registry, trans, vec![o], vec![])
            .unwrap();
        g.mark_output(t2);

        let stats = rewrite(&mut s, &rs, &mut g);
        assert_eq!(stats.rewrites_fired, 0);
        assert_eq!(g.live_count(), 4);
    }

    #[test]
    fn fixpoint_reached_on_unmatched_graph() {
        let mut s = Session::new();
        let rs = s.load_library(LibraryConfig::both());
        let mut g = Graph::new();
        let a = mat(&mut s, &mut g, &[4, 4]);
        let b = mat(&mut s, &mut g, &[4, 4]);
        let add = s.ops.add;
        let sum = g
            .op(&mut s.syms, &s.registry, add, vec![a, b], vec![])
            .unwrap();
        g.mark_output(sum);
        let stats = rewrite(&mut s, &rs, &mut g);
        assert_eq!(stats.rewrites_fired, 0);
        assert_eq!(stats.sweeps, 1);
    }

    #[test]
    fn find_matches_reports_coverage() {
        let mut s = Session::new();
        let rs = s.load_library(LibraryConfig::all());
        let mut g = Graph::new();
        let a = mat(&mut s, &mut g, &[8, 8]);
        let b = mat(&mut s, &mut g, &[8, 8]);
        let (matmul, relu, gelu) = (s.ops.matmul, s.ops.relu, s.ops.gelu);
        let mm = g
            .op(&mut s.syms, &s.registry, matmul, vec![a, b], vec![])
            .unwrap();
        let r = g
            .op(&mut s.syms, &s.registry, relu, vec![mm], vec![])
            .unwrap();
        let ge = g
            .op(&mut s.syms, &s.registry, gelu, vec![r], vec![])
            .unwrap();
        g.mark_output(ge);

        let matches = find_matches(&mut s, &rs, &g, "MatMulEpilog");
        // The deepest match is rooted at the gelu node and covers
        // gelu → relu → matmul.
        let at_root = matches.iter().find(|m| m.node == ge).expect("root match");
        assert!(at_root.coverage.len() >= 3);
    }
}
