//! The expected-output file and the in-process compile that checks
//! against it.
//!
//! Each line holds one input's `key`, the rewrites the compile fires, a
//! digest of the canonical `PYPMWIRE` bytes of the rewritten graph, and
//! the roofline estimate of the rewritten graph. The byte-identity
//! contracts keep all three invariant across sweep policy, matcher
//! backend and job count, so a change of any default still passes.

use pypm::engine::{Pipeline, RewritePass, Session};
use pypm::graph::Graph;
use pypm::perf::CostModel;
use std::collections::BTreeMap;

/// Relative tolerance on the roofline estimate: the sum is taken in
/// topological order, so only its last bits may move.
const EST_RTOL: f64 = 1e-9;

/// What one compile produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Rewrites fired.
    pub fired: u64,
    /// FNV-1a 64 of the rewritten graph's canonical wire bytes.
    pub digest: u64,
    /// Roofline estimate after the compile, µs.
    pub est_after_us: f64,
}

/// One in-process compile of an input, with its quality figures.
#[derive(Debug, Clone)]
pub struct Quality {
    /// What the expected-output file checks.
    pub outcome: Outcome,
    /// Roofline estimate before the compile, µs.
    pub est_before_us: f64,
    /// Live nodes of the input graph.
    pub nodes_in: u64,
    /// Live nodes of the rewritten graph.
    pub nodes_out: u64,
}

impl Quality {
    /// Estimated speedup of the compile (before / after).
    pub fn speedup(&self) -> f64 {
        self.est_before_us / self.outcome.est_after_us
    }
}

/// FNV-1a, 64-bit.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Compiles `graph` with the library defaults and measures it.
///
/// # Errors
///
/// Fails when the configuration name is unknown or the pass fails.
pub fn compile_quality(s: &mut Session, mut graph: Graph, config: &str) -> Result<Quality, String> {
    let cfg = pypm::cli_args::lib_config(config).ok_or(format!("unknown config {config}"))?;
    let cost = CostModel::new();
    let nodes_in = graph.live_count() as u64;
    let est_before_us = cost.graph_cost(&graph, &s.syms, &s.registry, &s.ops);
    let rules = s.load_library_cached(cfg);
    let report = Pipeline::new(s)
        .with(RewritePass::new(rules))
        .run(&mut graph)
        .map_err(|e| format!("compile failed: {e}"))?;
    Ok(Quality {
        outcome: Outcome {
            fired: report.total().rewrites_fired,
            digest: fnv64(&pypm::wire::encode_graph(&graph, &s.syms)),
            est_after_us: cost.graph_cost(&graph, &s.syms, &s.registry, &s.ops),
        },
        est_before_us,
        nodes_in,
        nodes_out: graph.live_count() as u64,
    })
}

/// The expected outcome of every input, by key.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    by_key: BTreeMap<String, Outcome>,
}

impl Expected {
    /// Parses the file format written by [`Expected::render`].
    ///
    /// # Errors
    ///
    /// Names the first malformed line.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut by_key = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("expected-output line {}: {line:?}", n + 1);
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [key, fired, digest, est] = fields[..] else {
                return Err(bad());
            };
            let field = |f: &'static str, v: &str| v.strip_prefix(f).map(str::to_owned);
            let outcome = Outcome {
                fired: field("fired=", fired)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(bad)?,
                digest: field("digest=", digest)
                    .and_then(|v| u64::from_str_radix(&v, 16).ok())
                    .ok_or_else(bad)?,
                est_after_us: field("est_after_us=", est)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(bad)?,
            };
            by_key.insert(key.to_owned(), outcome);
        }
        Ok(Expected { by_key })
    }

    /// Records one input's outcome.
    pub fn insert(&mut self, key: String, outcome: Outcome) {
        self.by_key.insert(key, outcome);
    }

    /// The file contents.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# perfbench expected outputs: <input> fired=<rewrites> \
             digest=<fnv64 of rewritten graph wire bytes> est_after_us=<roofline estimate>\n",
        );
        for (key, o) in &self.by_key {
            out.push_str(&format!(
                "{key} fired={} digest={:016x} est_after_us={:?}\n",
                o.fired, o.digest, o.est_after_us
            ));
        }
        out
    }

    /// Rewrites the input `key` must fire.
    pub fn fired(&self, key: &str) -> Option<u64> {
        self.by_key.get(key).map(|o| o.fired)
    }

    /// Checks a full outcome; `Err` describes the first mismatch.
    ///
    /// # Errors
    ///
    /// Names the input and the differing field.
    pub fn check(&self, key: &str, got: &Outcome) -> Result<(), String> {
        let want = self
            .by_key
            .get(key)
            .ok_or_else(|| format!("{key}: no expected output"))?;
        if got.fired != want.fired {
            return Err(format!(
                "{key}: fired {} != expected {}",
                got.fired, want.fired
            ));
        }
        if got.digest != want.digest {
            return Err(format!(
                "{key}: rewritten-graph digest {:016x} != expected {:016x}",
                got.digest, want.digest
            ));
        }
        let rel = (got.est_after_us - want.est_after_us).abs() / want.est_after_us.abs().max(1e-12);
        if rel > EST_RTOL {
            return Err(format!(
                "{key}: est_after_us {} != expected {}",
                got.est_after_us, want.est_after_us
            ));
        }
        Ok(())
    }
}
