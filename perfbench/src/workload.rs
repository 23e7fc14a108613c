//! The three workloads: `serve_miss`, `serve_hot` and `compile_large`.

use crate::expected::{compile_quality, Expected, Quality};
use crate::inputs::{self, Input, LargeInput, ServeInput};
use crate::metrics::{Metric, RunResult};
use crate::report::{Report, COUNTERS};
use crate::server::{self, Order, ServerProc};
use crate::stats;
use crate::trace::{self, Tracer};
use pypm::core::FusedSet;
use pypm::dsl::LibraryConfig;
use pypm::engine::{Pipeline, RewritePass, Session};
use pypm::graph::termview::TermView;
use pypm::perf::CostModel;
use pypm::serve::{STATUS_OK, STATUS_OVERLOADED};
use pypm::wire::cache::{CacheKey, ResultCache};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;
/// `peak_rss_mb` of a server is read after this many passes over the
/// workload's inputs: a long-lived session grows with the requests it
/// compiles, and a fixed request count keeps a faster server from
/// reading as a fatter one.
const RSS_MARK_CYCLES: u64 = 8;
/// `peak_rss_mb` of `compile_large` is read after this many passes, for
/// the same reason.
const RSS_MARK_ROUNDS: usize = 2;
/// Window over which served request rates are taken, s.
const WINDOW_S: f64 = 1.0;
/// Concurrent priming rounds of `serve_hot`, so that each of the
/// server's two workers has memoized every input's cache key.
const PRIME_ROUNDS: usize = 3;

/// What every workload needs to know.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The `pypmc` binary under test.
    pub pypmc: &'a Path,
    /// Expected outputs.
    pub expected: &'a Expected,
    /// Shared span epoch.
    pub epoch: Instant,
}

fn lib_config(name: &str) -> LibraryConfig {
    pypm::cli_args::lib_config(name).expect("benchmark configurations are valid")
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Checks one report against the expected output and against the
/// first report of the same input (masked), keeping that first one.
fn check_report(
    res: &mut RunResult,
    key: &str,
    payload: &str,
    expected: &Expected,
    first: &mut Option<(Report, String)>,
) -> Option<Report> {
    let report = match Report::parse(payload) {
        Ok(r) => r,
        Err(e) => {
            res.fail(format!("{key}: unreadable report: {e}"));
            return None;
        }
    };
    if expected.fired(key) != Some(report.rewrites_fired()) {
        res.fail(format!(
            "{key}: fired {} but expected {:?}",
            report.rewrites_fired(),
            expected.fired(key)
        ));
    }
    let masked = report.masked();
    match first {
        Some((_, m)) if *m != masked => {
            res.fail(format!("{key}: counters differ between two compiles"));
        }
        Some(_) => {}
        None => *first = Some((report.clone(), masked)),
    }
    Some(report)
}

/// Compiles every distinct input once more in-process and checks the
/// full expected outcome. Returns the quality figures in input order,
/// or `None` when a compile failed (the failure is recorded).
fn verify(res: &mut RunResult, expected: &Expected, inputs: &[impl Input]) -> Option<Vec<Quality>> {
    let mut s = Session::new();
    let mut out = Vec::new();
    for inp in inputs {
        res.attempted += 1;
        let graph = inp.build(&mut s);
        match compile_quality(&mut s, graph, inp.config()) {
            Ok(q) => {
                if let Err(e) = expected.check(&inp.key(), &q.outcome) {
                    res.fail(e);
                }
                out.push(q);
            }
            Err(e) => {
                res.fail(format!("{}: {e}", inp.key()));
                return None;
            }
        }
    }
    Some(out)
}

/// End-to-end quality, and the exact counts every run must repeat.
fn quality_and_counts(res: &mut RunResult, reports: &[Report], quality: &[Quality]) {
    let speedups: Vec<f64> = quality.iter().map(Quality::speedup).collect();
    match stats::geomean(&speedups) {
        Ok(g) => res.set("est_speedup_geomean", Metric::value(g)),
        Err(e) => res.fail(format!("est_speedup_geomean: {e}")),
    }
    for (name, path) in COUNTERS {
        let sum: f64 = reports.iter().map(|r| r.num(path)).sum();
        res.counts.insert(name.to_owned(), sum as u64);
    }
    let nodes_in: u64 = quality.iter().map(|q| q.nodes_in).sum();
    let nodes_out: u64 = quality.iter().map(|q| q.nodes_out).sum();
    res.counts.insert("graph.nodes_in".to_owned(), nodes_in);
    res.counts.insert("graph.nodes_out".to_owned(), nodes_out);
    let est = |f: fn(&Quality) -> f64| quality.iter().map(f).sum::<f64>();
    res.set(
        "perf.est_us_before",
        Metric::value(est(|q| q.est_before_us)),
    );
    res.set(
        "perf.est_us_after",
        Metric::value(est(|q| q.outcome.est_after_us)),
    );
}

/// Per-layer values derived from the counts and the spans.
fn layer_metrics(res: &mut RunResult, fresh_wall_ms: &mut [f64], warm_wall_ms: &mut [f64]) {
    for (name, value) in res.counts.clone() {
        res.set(&name, Metric::value(value as f64));
    }
    let c = |name: &str| res.counts.get(name).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let admit = ratio(
        c("core.pairs_admitted"),
        c("core.pairs_admitted") + c("core.pairs_rejected"),
    );
    let fire = ratio(c("engine.rewrites_fired"), c("engine.match_attempts"));
    res.set("core.admit_ratio", Metric::value(admit));
    res.set("engine.fire_ratio", Metric::value(fire));
    let p50 = |v: &mut [f64]| stats::median(v).map_or(Metric::value(0.0), Metric::quantile);
    res.set("engine.pass_wall_ms_p50", p50(fresh_wall_ms));
    res.set("engine.parallel.warm_wall_ms", p50(warm_wall_ms));
    let selfs = trace::self_times(&res.spans);
    for (metric, spans) in [
        ("cache.key_ms", &["CacheKey::of"][..]),
        ("cache.get_ms", &["ResultCache::get"]),
        ("cache.put_ms", &["ResultCache::put"]),
        ("wire.encode_graph_ms", &["wire::encode_graph"]),
        ("wire.encode_ruleset_ms", &["wire::encode_ruleset"]),
        ("wire.decode_graph_ms", &["wire::decode_graph"]),
        (
            "models.build_ms",
            &[
                "pypm::build_model",
                "TransformerConfig::build",
                "VisionConfig::build",
            ],
        ),
        ("dsl.library_load_ms", &["Session::load_library"]),
        ("graph.termview_build_ms", &["TermView::build"]),
        ("core.trie_build_ms", &["FusedSet::build"]),
        ("engine.report_json_ms", &["PipelineReport::to_json"]),
        ("perf.cost_model_ms", &["CostModel::graph_cost"]),
    ] {
        let m = res.span_p50_ms(&selfs, spans);
        res.set(metric, m);
    }
}

/// Standalone calls into the deeper layers, one set per distinct input:
/// term-view build, trie build, cost model, wire encode and decode.
/// Also the first library load of each configuration in a fresh session.
fn probe_layers(res: &mut RunResult, tracer: &mut Tracer, inputs: &[impl Input]) {
    let mut s = Session::new();
    let cost = CostModel::new();
    let mut trie_nodes = 0;
    let mut trie_collapsed = 0;
    let mut graph_bytes = 0;
    let mut configs: Vec<&str> = Vec::new();
    for (rid, inp) in (1_000_000..).zip(inputs) {
        let config = inp.config();
        if !configs.contains(&config) {
            configs.push(config);
            let mut fresh = Session::new();
            tracer.time("Session::load_library", rid, || {
                fresh.load_library_cached(lib_config(config))
            });
        }
        let graph = inp.build(&mut s);
        tracer.time("TermView::build", rid, || {
            TermView::build(&graph, &mut s.syms, &mut s.terms, &s.registry)
        });
        let rules = s.load_library_cached(lib_config(config));
        let patterns: Vec<_> = rules.patterns.iter().map(|d| d.pattern).collect();
        let set = tracer.time("FusedSet::build", rid, || {
            FusedSet::build(&s.pats, &patterns)
        });
        trie_nodes += set.node_count() as u64;
        trie_collapsed += set.collapsed_count() as u64;
        tracer.time("CostModel::graph_cost", rid, || {
            cost.graph_cost(&graph, &s.syms, &s.registry, &s.ops)
        });
        let bytes = tracer.time("wire::encode_graph", rid, || {
            pypm::wire::encode_graph(&graph, &s.syms)
        });
        graph_bytes += bytes.len() as u64;
        let decoded = tracer.time("wire::decode_graph", rid, || {
            pypm::wire::decode_graph(&bytes, &mut s.syms)
        });
        if decoded.is_err() {
            res.fail(format!(
                "wire::decode_graph rejected the encoding of a {config} input"
            ));
        }
    }
    res.counts.insert("core.trie_nodes".to_owned(), trie_nodes);
    res.counts
        .insert("core.trie_collapsed".to_owned(), trie_collapsed);
    res.counts
        .insert("wire.graph_bytes".to_owned(), graph_bytes);
}

/// An in-process shadow of what a serve worker does for each distinct
/// input, one span per public call, in the worker's order.
fn replay(res: &mut RunResult, tracer: &mut Tracer, inputs: &[ServeInput]) {
    let mut s = Session::new();
    let cache = ResultCache::in_memory(128);
    for (rid, inp) in (2_000_000..).zip(inputs) {
        let root = tracer.enter("replay", rid);
        let graph = tracer.time("pypm::build_model", rid, || {
            pypm::build_model(&mut s, &inp.model)
        });
        let Some(mut graph) = graph else {
            res.fail(format!("{}: unknown model in replay", inp.key()));
            tracer.exit(root);
            continue;
        };
        let rules = tracer.time("Session::load_library_cached", rid, || {
            s.load_library_cached(lib_config(inp.config))
        });
        let graph_bytes = tracer.time("wire::encode_graph", rid, || {
            pypm::wire::encode_graph(&graph, &s.syms)
        });
        let rule_bytes = tracer.time("wire::encode_ruleset", rid, || {
            pypm::wire::encode_ruleset(&rules, &s.syms, &s.pats)
        });
        let key = tracer.time("CacheKey::of", rid, || {
            CacheKey::of(&[
                b"perfbench.replay",
                &graph_bytes,
                &rule_bytes,
                inp.config.as_bytes(),
            ])
        });
        let hit = tracer.time("ResultCache::get", rid, || cache.get(key));
        if hit.is_none() {
            let report = tracer.time("Pipeline::run", rid, || {
                Pipeline::new(&mut s)
                    .with(RewritePass::new(rules))
                    .run(&mut graph)
            });
            match report {
                Ok(report) => {
                    let json = tracer.time("PipelineReport::to_json", rid, || report.to_json());
                    tracer.time("ResultCache::put", rid, || cache.put(key, &json));
                }
                Err(e) => res.fail(format!("{}: replay compile failed: {e}", inp.key())),
            }
        }
        tracer.exit(root);
    }
}

/// `serve_miss` (`hot == false`) or `serve_hot`.
///
/// # Errors
///
/// Fails when the server cannot be started or driven at all.
pub fn serve(ctx: &Ctx<'_>, hot: bool) -> Result<RunResult, String> {
    let inputs = if hot {
        inputs::serve_hot_inputs(ctx.seed)
    } else {
        inputs::serve_miss_inputs(ctx.seed)
    };
    let keys: Vec<String> = inputs.iter().map(ServeInput::key).collect();
    let lines: Vec<String> = inputs.iter().map(ServeInput::request).collect();
    let order = if hot {
        Order::Uniform { seed: ctx.seed }
    } else {
        Order::Cycle
    };

    let mut setups = Vec::new();
    let mut references: Vec<Option<String>> = vec![None; inputs.len()];
    let mut server: Option<ServerProc> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = server.take() {
            old.shutdown();
        }
        let t = Instant::now();
        let proc = ServerProc::spawn(ctx.pypmc)?;
        if hot {
            references = server::prime(proc.addr, &lines, PRIME_ROUNDS)?
                .into_iter()
                .map(Some)
                .collect();
        }
        setups.push(t.elapsed().as_secs_f64());
        server = Some(proc);
    }
    let server = server.expect("at least one set-up");
    let before = server::stats(server.addr)?;
    let load = server::run_load(
        &server,
        RSS_MARK_CYCLES * lines.len() as u64,
        &lines,
        &references,
        order,
        ctx.seconds,
        ctx.trace,
        ctx.epoch,
    );
    let after = server::stats(server.addr);
    server.shutdown();
    let (load, after) = (load?, after?);

    let mut res = RunResult::default();
    res.set(
        "setup_s",
        Metric::quantile(stats::median(&mut setups).expect("set-ups ran")),
    );
    match load.rss_at_mark_mb {
        Some(mb) => res.set("peak_rss_mb", Metric::value(mb)),
        None => res.fail(format!(
            "fewer than {RSS_MARK_CYCLES}x{} requests completed; peak_rss_mb not measured",
            lines.len()
        )),
    }

    // Output checks: every reference, and every response that did not
    // equal its input's reference byte for byte.
    let mut first: Vec<Option<(Report, String)>> = vec![None; inputs.len()];
    let mut fresh_wall_ms = Vec::new();
    let mut warm_wall_ms = Vec::new();
    for (i, r) in references.iter().enumerate() {
        if let Some(payload) = r {
            if let Some(rep) =
                check_report(&mut res, &keys[i], payload, ctx.expected, &mut first[i])
            {
                fresh_wall_ms.push(rep.wall_ms());
                warm_wall_ms.push(rep.num("totals.parallel.warm_wall_ms"));
            }
        }
    }
    res.attempted += load.samples.len() as u64;
    let mut overloaded = 0;
    let mut by_payload: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut wall_of: Vec<f64> = vec![0.0; load.samples.len()];
    for (n, s) in load.samples.iter().enumerate() {
        if s.status != STATUS_OK {
            overloaded += u64::from(s.status == STATUS_OVERLOADED);
            res.fail(format!(
                "{}: status {}: {}",
                keys[s.input],
                s.status,
                s.payload.as_deref().unwrap_or("")
            ));
            continue;
        }
        if let Some(payload) = &s.payload {
            if let Some(rep) = check_report(
                &mut res,
                &keys[s.input],
                payload,
                ctx.expected,
                &mut first[s.input],
            ) {
                wall_of[n] = rep.wall_ms();
                let group = by_payload.entry(payload.as_str()).or_default();
                if group.is_empty() {
                    fresh_wall_ms.push(rep.wall_ms());
                    warm_wall_ms.push(rep.num("totals.parallel.warm_wall_ms"));
                }
                group.push(n);
            }
        }
    }
    // A payload returned more than once was compiled once (the slowest
    // of its round trips) and then served from the cache.
    let mut overhead_ms: Vec<f64> = load.samples.iter().map(|s| ms(s.rtt_ns)).collect();
    for group in by_payload.values() {
        let fresh = *group
            .iter()
            .max_by_key(|&&n| load.samples[n].rtt_ns)
            .expect("groups are non-empty");
        overhead_ms[fresh] -= wall_of[fresh];
    }
    let ok: Vec<usize> = (0..load.samples.len())
        .filter(|&n| load.samples[n].status == STATUS_OK)
        .collect();

    let quality = verify(&mut res, ctx.expected, &inputs).unwrap_or_default();
    let reports: Vec<Report> = first.iter().flatten().map(|(r, _)| r.clone()).collect();
    if reports.len() != inputs.len() {
        res.fail(format!(
            "only {} of {} inputs were served within the run",
            reports.len(),
            inputs.len()
        ));
    }
    quality_and_counts(&mut res, &reports, &quality);

    // Rates are medians over whole one-second windows, so a stall on a
    // shared host moves them less than it would move a mean.
    let windows = (load.wall.as_secs_f64() / WINDOW_S) as usize;
    let mut requests = vec![0.0; windows];
    let mut nodes = vec![0.0; windows];
    for &n in &ok {
        let s = &load.samples[n];
        let w = (s.done_ns as f64 / 1e9 / WINDOW_S) as usize;
        if w < windows {
            requests[w] += 1.0 / WINDOW_S;
            nodes[w] += quality.get(s.input).map_or(0.0, |q| q.nodes_in as f64) / WINDOW_S;
        }
    }
    for (name, rates) in [
        ("requests_per_s", &mut requests),
        ("nodes_per_s", &mut nodes),
    ] {
        match stats::median(rates) {
            Some(q) => res.set(name, Metric::quantile(q)),
            None => res.fail(format!("{name}: the run had no whole {WINDOW_S} s window")),
        }
    }
    let rtts = |traced: bool| -> Vec<f64> {
        ok.iter()
            .map(|&n| &load.samples[n])
            .filter(|s| s.traced == traced)
            .map(|s| ms(s.rtt_ns))
            .collect()
    };
    let mut untraced = rtts(false);
    res.set(
        "latency_ms_p50",
        stats::median(&mut untraced).map_or(Metric::value(0.0), Metric::quantile),
    );
    match stats::tail(&mut untraced, 0.99) {
        Ok(q) => res.set("latency_ms_p99", Metric::quantile(q)),
        Err(e) => res.notes.push(format!("latency_ms_p99: {e}")),
    }

    let delta = |key: &str| after.num(key).unwrap_or(0.0) - before.num(key).unwrap_or(0.0);
    let (hits, misses) = (delta("cache.hits"), delta("cache.misses"));
    res.set("cache.hits", Metric::value(hits));
    res.set("cache.misses", Metric::value(misses));
    res.set(
        "cache.hit_ratio",
        Metric::value(if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }),
    );
    res.set(
        "serve.compiles_started",
        Metric::value(delta("compiles_started")),
    );
    res.set(
        "serve.service_ewma_us",
        Metric::value(after.num("service_ewma_us").unwrap_or(0.0)),
    );
    res.set("serve.overloaded", Metric::value(overloaded as f64));
    res.notes.push(format!(
        "cache stores during the load = {} (a hit-only load stores nothing)",
        delta("cache.stores")
    ));

    if ctx.trace {
        let mut tracer = Tracer::new(ctx.epoch);
        replay(&mut res, &mut tracer, &inputs);
        probe_layers(&mut res, &mut tracer, &inputs);
        res.spans = load.spans;
        trace::append(&mut res.spans, tracer.into_spans());
        let mut traced = rtts(true);
        let p50_t = stats::median(&mut traced).map_or(0.0, |q| q.value);
        let p50_u = res.metrics["latency_ms_p50"].value;
        res.set("trace.overhead_ms_p50", Metric::value(p50_t - p50_u));
        res.set(
            "serve.overhead_ms_p50",
            stats::median(&mut overhead_ms).map_or(Metric::value(0.0), Metric::quantile),
        );
        match stats::tail(&mut overhead_ms, 0.99) {
            Ok(q) => res.set("serve.overhead_ms_p99", Metric::quantile(q)),
            Err(e) => res.fail(format!("serve.overhead_ms_p99: {e}")),
        }
        layer_metrics(&mut res, &mut fresh_wall_ms, &mut warm_wall_ms);
        let shown = |name: &str| {
            let m = &res.metrics[name];
            format!("{name} = {} ms (n={})", m.value, m.samples.unwrap_or(0))
        };
        let split = format!(
            "served request split: {} | {}",
            shown("serve.overhead_ms_p50"),
            shown("engine.pass_wall_ms_p50")
        );
        res.notes.push(split);
    }
    Ok(res)
}

/// Compile streams of `compile_large`, one thread each. Every compile
/// is serial; two streams keep both cores of a small host busy, so a
/// run samples both and one slow core moves the medians less.
const STREAMS: u64 = 2;

/// One compile a stream made.
#[derive(Debug)]
struct Compile {
    id: u64,
    input: usize,
    traced: bool,
    seconds: f64,
    report: Result<String, String>,
}

/// What one compile stream measured.
#[derive(Debug, Default)]
struct Stream {
    setups: Vec<f64>,
    compiles: Vec<Compile>,
    rss_mb: Option<f64>,
    spans: Vec<trace::Span>,
}

/// Runs whole passes over `inputs`, starting at input `id`, in a session
/// of its own, until the next pass would not fit in the measured time.
/// Whole passes keep every input's weight the same in every run. In a
/// traced run every other pass is traced.
fn stream(ctx: &Ctx<'_>, inputs: &[LargeInput], id: u64) -> Stream {
    let mut out = Stream::default();
    let mut session = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let mut s = Session::new();
        let rules = s.load_library_cached(lib_config(inputs::LARGE_CONFIG));
        out.setups.push(t.elapsed().as_secs_f64());
        session = Some((s, rules));
    }
    let (mut s, rules) = session.expect("at least one set-up");
    let mut tracer = Tracer::new(ctx.epoch);
    let start = Instant::now();
    let mut last_pass = 0.0;
    let mut pass = 0;
    while pass == 0 || start.elapsed().as_secs_f64() + last_pass <= ctx.seconds {
        let traced = ctx.trace && pass % 2 == 1;
        let pass_start = Instant::now();
        for k in 0..inputs.len() {
            let i = (k + id as usize) % inputs.len();
            let inp = &inputs[i];
            let cid = ((pass * inputs.len() + k) as u64) * STREAMS + id;
            let rules = rules.clone();
            let t0 = Instant::now();
            let report = if traced {
                let root = tracer.enter("compile", cid);
                let mut graph = tracer.time(inp.build_span(), cid, || inp.build(&mut s));
                let report = tracer.time("Pipeline::run", cid, || {
                    Pipeline::new(&mut s)
                        .with(RewritePass::new(rules))
                        .run(&mut graph)
                });
                let json =
                    report.map(|r| tracer.time("PipelineReport::to_json", cid, || r.to_json()));
                tracer.exit(root);
                json
            } else {
                let mut graph = inp.build(&mut s);
                Pipeline::new(&mut s)
                    .with(RewritePass::new(rules))
                    .run(&mut graph)
                    .map(|r| r.to_json())
            };
            out.compiles.push(Compile {
                id: cid,
                input: i,
                traced,
                seconds: t0.elapsed().as_secs_f64(),
                report: report.map_err(|e| e.to_string()),
            });
        }
        last_pass = pass_start.elapsed().as_secs_f64();
        pass += 1;
        if pass == RSS_MARK_ROUNDS {
            out.rss_mb = server::peak_rss_mb("/proc/self/status");
        }
    }
    out.spans = tracer.into_spans();
    out
}

/// `compile_large`.
///
/// # Errors
///
/// Never fails as a whole; failed compiles and checks are counted.
pub fn compile_large(ctx: &Ctx<'_>) -> Result<RunResult, String> {
    let inputs: Vec<LargeInput> = inputs::large_inputs(ctx.seed);
    let streams: Vec<Stream> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..STREAMS)
            .map(|id| {
                let inputs = &inputs;
                scope.spawn(move || stream(ctx, inputs, id))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("compile stream panicked"))
            .collect()
    });

    let mut res = RunResult::default();
    let mut setups: Vec<f64> = streams.iter().flat_map(|s| s.setups.clone()).collect();
    res.set(
        "setup_s",
        Metric::quantile(stats::median(&mut setups).expect("set-ups ran")),
    );
    match streams
        .iter()
        .map(|s| s.rss_mb)
        .collect::<Option<Vec<f64>>>()
    {
        Some(mbs) => res.set(
            "peak_rss_mb",
            Metric::value(mbs.into_iter().fold(0.0, f64::max)),
        ),
        None => res.fail(format!(
            "fewer than {RSS_MARK_ROUNDS} passes over the inputs; peak_rss_mb not measured"
        )),
    }

    let mut first: Vec<Option<(Report, String)>> = vec![None; inputs.len()];
    // Each input's fastest compile, untraced and traced, ms.
    let mut best = [
        vec![f64::INFINITY; inputs.len()],
        vec![f64::INFINITY; inputs.len()],
    ];
    let mut untraced_ms = Vec::new();
    let mut fresh_wall_ms = Vec::new();
    for c in streams.iter().flat_map(|s| &s.compiles) {
        res.attempted += 1;
        let name = &inputs[c.input].name;
        match &c.report {
            Ok(json) => {
                let b = &mut best[usize::from(c.traced)][c.input];
                *b = b.min(c.seconds * 1e3);
                if !c.traced {
                    untraced_ms.push(c.seconds * 1e3);
                }
                if let Some(rep) =
                    check_report(&mut res, name, json, ctx.expected, &mut first[c.input])
                {
                    fresh_wall_ms.push(rep.wall_ms());
                }
            }
            Err(e) => res.fail(format!("{name}: compile failed: {e}")),
        }
    }

    let quality = verify(&mut res, ctx.expected, &inputs).unwrap_or_default();
    let reports: Vec<Report> = first.iter().flatten().map(|(r, _)| r.clone()).collect();
    quality_and_counts(&mut res, &reports, &quality);
    // Each input is timed by its fastest compile of the run. The work is
    // deterministic, so a shared host can only add time to it, and
    // bursts of load on the host move the fastest of an input's many
    // compiles less than its median.
    let [mut best_u, best_t] = best;
    let pass_s: f64 = best_u.iter().sum::<f64>() / 1e3;
    let nodes: u64 = quality.iter().map(|q| q.nodes_in).sum();
    if pass_s.is_finite() && quality.len() == inputs.len() {
        res.set(
            "requests_per_s",
            Metric::value(inputs.len() as f64 / pass_s),
        );
        res.set("nodes_per_s", Metric::value(nodes as f64 / pass_s));
        res.set(
            "latency_ms_p50",
            Metric::quantile(stats::median(&mut best_u).expect("inputs are drawn")),
        );
    } else {
        res.fail("compile_large: an input never compiled untraced".to_owned());
    }
    res.notes.push(format!(
        "latency_ms_p50 is the median over the inputs of each one's fastest of {} untraced compiles",
        untraced_ms.len()
    ));
    if let Err(e) = stats::tail(&mut untraced_ms, 0.99) {
        res.notes.push(format!("latency_ms_p99: {e}"));
    }
    for name in [
        "serve.overhead_ms_p50",
        "serve.overhead_ms_p99",
        "serve.compiles_started",
        "serve.overloaded",
        "serve.service_ewma_us",
        "cache.hit_ratio",
        "cache.hits",
        "cache.misses",
    ] {
        res.set(name, Metric::value(0.0));
    }

    if ctx.trace {
        let traced_input: HashMap<u64, usize> = streams
            .iter()
            .flat_map(|s| &s.compiles)
            .filter(|c| c.traced)
            .map(|c| (c.id, c.input))
            .collect();
        for s in streams {
            trace::append(&mut res.spans, s.spans);
        }
        let mut tracer = Tracer::new(ctx.epoch);
        probe_layers(&mut res, &mut tracer, &inputs);
        trace::append(&mut res.spans, tracer.into_spans());
        let p50_u = res.metrics.get("latency_ms_p50").map_or(0.0, |m| m.value);
        let mut best_t: Vec<f64> = best_t.into_iter().filter(|v| v.is_finite()).collect();
        let p50_t = stats::median(&mut best_t).map_or(0.0, |q| q.value);
        res.set("trace.overhead_ms_p50", Metric::value(p50_t - p50_u));
        // Self times of each traced compile's spans add up to its root
        // span; compare that sum, taken like the untraced latency (the
        // median over inputs of each one's fastest compile), with it.
        let selfs = trace::self_times(&res.spans);
        let mut per_compile: HashMap<u64, u64> = HashMap::new();
        for (span, ns) in res.spans.iter().zip(&selfs) {
            if traced_input.contains_key(&span.request) {
                *per_compile.entry(span.request).or_default() += ns;
            }
        }
        let mut sums = vec![f64::INFINITY; inputs.len()];
        for (id, &ns) in &per_compile {
            let s = &mut sums[traced_input[id]];
            *s = s.min(ms(ns));
        }
        sums.retain(|v| v.is_finite());
        if let Some(q) = stats::median(&mut sums) {
            res.notes.push(format!(
                "trace.self_sum_ms_p50 = {:.3} ms (n={}), {:.1}% of untraced latency_ms_p50",
                q.value,
                q.samples,
                100.0 * q.value / p50_u
            ));
        }
        layer_metrics(&mut res, &mut fresh_wall_ms, &mut []);
    }
    Ok(res)
}
