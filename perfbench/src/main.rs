//! `perfbench`: runs one workload of the repository benchmark and
//! prints every metric, then one JSON result line.
//!
//! ```text
//! perfbench --workload <serve_miss|serve_hot|compile_large> --seed N
//!           --seconds S --trace <0|1> --pypmc PATH --expected FILE
//!           --out DIR [--rustc STR] [--commit STR]
//! perfbench --write-expected FILE
//! ```
//!
//! Normally started through `perfbench/run.sh`, which builds both
//! binaries first. Exits 0 only when every operation succeeded and every
//! output check passed.

use perfbench::expected::{compile_quality, Expected};
use perfbench::inputs::{self, Input};
use perfbench::json::quote;
use perfbench::metrics::{json_number, result_line, Metric, RunResult, END_TO_END, PER_LAYER};
use perfbench::trace;
use perfbench::workload::{self, Ctx};
use pypm::engine::Session;
use std::collections::BTreeMap;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const WORKLOADS: [&str; 3] = ["serve_miss", "serve_hot", "compile_large"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pypmc: PathBuf,
    expected: PathBuf,
    out: PathBuf,
    rustc: String,
    commit: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |f: &str| flags.get(f).copied().ok_or(format!("missing {f}"));
    let workload = get("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds: not a number".to_owned())?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_owned());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed: not a non-negative integer".to_owned())?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        pypmc: get("--pypmc")?.into(),
        expected: get("--expected")?.into(),
        out: get("--out")?.into(),
        rustc: flags.get("--rustc").unwrap_or(&"unknown").to_string(),
        commit: flags.get("--commit").unwrap_or(&"unknown").to_string(),
    })
}

/// Compiles every input any seed can draw and writes their outcomes.
fn write_expected(path: &Path) -> Result<(), String> {
    fn record(e: &mut Expected, s: &mut Session, inputs: &[impl Input]) -> Result<(), String> {
        for inp in inputs {
            let graph = inp.build(s);
            e.insert(inp.key(), compile_quality(s, graph, inp.config())?.outcome);
        }
        Ok(())
    }
    let mut expected = Expected::default();
    let mut s = Session::new();
    record(&mut expected, &mut s, &inputs::serve_universe())?;
    record(&mut expected, &mut s, &inputs::large_catalogue())?;
    fs::write(path, expected.render()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Identity of the binaries under test: exact counts are compared only
/// between runs of the same binaries.
fn binaries_id(pypmc: &Path) -> String {
    let stamp = |p: &Path| {
        fs::metadata(p)
            .and_then(|m| Ok((m.len(), m.modified()?)))
            .map(|(len, t)| {
                let secs = t
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(0, |d| d.as_nanos());
                format!("{len}:{secs}")
            })
            .unwrap_or_else(|_| "?".to_owned())
    };
    let me = std::env::current_exe().unwrap_or_default();
    format!("{} {}", stamp(pypmc), stamp(&me))
}

/// Exact-count determinism: compares this run's counts with those a
/// previous run of the same binaries, workload and seed recorded, then
/// records the union.
fn check_counts(args: &Args, res: &mut RunResult) -> Result<(), String> {
    let path = args
        .out
        .join(format!("counts-{}-seed{}.txt", args.workload, args.seed));
    let id = binaries_id(&args.pypmc);
    let mut merged: BTreeMap<String, u64> = BTreeMap::new();
    if let Ok(text) = fs::read_to_string(&path) {
        let mut lines = text.lines();
        if lines.next() == Some(id.as_str()) {
            for line in lines {
                if let Some((k, v)) = line.split_once(' ') {
                    if let Ok(v) = v.parse() {
                        merged.insert(k.to_owned(), v);
                    }
                }
            }
        }
    }
    for (k, v) in res.counts.clone() {
        match merged.insert(k.clone(), v) {
            Some(old) if old != v => res.fail(format!(
                "count {k} = {v}, but a previous run with this seed counted {old}"
            )),
            _ => {}
        }
    }
    let mut text = format!("{id}\n");
    for (k, v) in &merged {
        text.push_str(&format!("{k} {v}\n"));
    }
    fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The result document: run identity plus every metric with its
/// sample count.
fn write_result_doc(args: &Args, res: &RunResult) -> Result<PathBuf, String> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let metrics: Vec<String> = res
        .metrics
        .iter()
        .map(|(name, m)| {
            let samples = m.samples.map_or("null".to_owned(), |n| n.to_string());
            format!(
                "    {}: {{\"value\": {}, \"samples\": {samples}}}",
                quote(name),
                json_number(m.value)
            )
        })
        .collect();
    let failures: Vec<String> = res.failures.iter().map(|f| quote(f)).collect();
    let doc = format!(
        "{{\n  \"schema\": \"perfbench.result.v1\",\n  \"workload\": {},\n  \"seed\": {},\n  \
         \"seconds\": {},\n  \"trace\": {},\n  \"nproc\": {nproc},\n  \"rustc\": {},\n  \
         \"commit\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {{\n{}\n  }},\n  \
         \"failures\": [{}]\n}}\n",
        quote(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        quote(&args.rustc),
        quote(&args.commit),
        res.attempted,
        res.failed,
        metrics.join(",\n"),
        failures.join(", ")
    );
    let path = args.out.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Writes the spans of a traced run, one per line, with self times.
fn write_trace(args: &Args, res: &RunResult) -> Result<PathBuf, String> {
    // One file per workload: a traced served run holds hundreds of
    // thousands of client spans, so older traces are overwritten.
    let path = args.out.join(format!("trace-{}.tsv", args.workload));
    let file = fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    let selfs = trace::self_times(&res.spans);
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    writeln!(w, "# perfbench {} seed={}", args.workload, args.seed).map_err(io)?;
    writeln!(w, "index\trequest\tname\tstart_ns\tend_ns\tparent\tself_ns").map_err(io)?;
    for (i, (s, self_ns)) in res.spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
        writeln!(
            w,
            "{i}\t{}\t{}\t{}\t{}\t{parent}\t{self_ns}",
            s.request, s.name, s.start_ns, s.end_ns
        )
        .map_err(io)?;
    }
    w.flush().map_err(io)?;
    Ok(path)
}

fn line(name: &str, unit: &str, res: &RunResult) -> String {
    match res.metrics.get(name) {
        Some(m) => match m.samples {
            Some(n) => format!("{name} = {} {unit} (n={n})", m.value),
            None => format!("{name} = {} {unit}", m.value),
        },
        None => format!("{name} = - {unit}"),
    }
}

fn run(args: &Args) -> Result<RunResult, String> {
    let text = fs::read_to_string(&args.expected)
        .map_err(|e| format!("{}: {e}", args.expected.display()))?;
    let expected = Expected::parse(&text)?;
    if !args.pypmc.is_file() {
        return Err(format!("{}: no such binary", args.pypmc.display()));
    }
    fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        pypmc: &args.pypmc,
        expected: &expected,
        epoch: Instant::now(),
    };
    let mut res = match args.workload.as_str() {
        "serve_miss" => workload::serve(&ctx, false)?,
        "serve_hot" => workload::serve(&ctx, true)?,
        _ => workload::compile_large(&ctx)?,
    };
    check_counts(args, &mut res)?;
    let share = res.failed as f64 / res.attempted.max(1) as f64;
    res.set("failed_share", Metric::value(share));
    Ok(res)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--write-expected") {
        return match argv.get(1).map(|p| write_expected(Path::new(p))) {
            Some(Ok(())) => ExitCode::SUCCESS,
            Some(Err(e)) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
            None => {
                eprintln!("usage: perfbench --write-expected FILE");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let res = match run(&args) {
        Ok(res) => res,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "perfbench {} seed={} seconds={} trace={} nproc={nproc} rustc={:?} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.rustc,
        args.commit
    );
    for (name, unit) in END_TO_END {
        println!("{}", line(name, unit, &res));
    }
    for (name, unit) in [
        ("latency_ms_p99", "ms"),
        ("failed_share", "ratio"),
        ("cache.hit_ratio", "ratio"),
    ] {
        println!("{}", line(name, unit, &res));
    }
    if args.trace {
        for (name, unit) in PER_LAYER {
            println!("{}", line(name, unit, &res));
        }
    }
    for note in &res.notes {
        println!("{note}");
    }
    for f in res.failures.iter().take(20) {
        eprintln!("FAILED: {f}");
    }
    let mut ok = res.failed == 0;
    match write_result_doc(&args, &res) {
        Ok(p) => println!("result document: {}", p.display()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ok = false;
        }
    }
    if args.trace {
        match write_trace(&args, &res) {
            Ok(p) => println!("trace: {} ({} spans)", p.display(), res.spans.len()),
            Err(e) => {
                eprintln!("perfbench: {e}");
                ok = false;
            }
        }
    }
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", result_line(&res, catalogue));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
