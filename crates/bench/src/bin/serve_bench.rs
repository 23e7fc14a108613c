//! `serve_bench` — the load generator for `pypmc serve`.
//!
//! Boots in-process [`pypm::serve::Server`]s and drives them with
//! concurrent clients, emitting **four** latency series into
//! `crates/bench/BENCH_serve.json` (schema `pypm.bench.serve.v5`, which
//! is v4 without the `jobs` field):
//!
//! * `compile` — the result cache disabled, every request a full
//!   compile (the old `pypm.bench.serve.v1` measurement);
//! * `cache_hit` — the cache primed, every measured request answered
//!   from the content-addressed result cache;
//! * `deadline` — every request carries `step_limit=1`, so every
//!   response is `DEADLINE_EXCEEDED`: the p99 of this series is how
//!   fast the server *sheds* over-budget work once a compile has
//!   already started;
//! * `shed` — the single worker pinned by real compiles while every
//!   measured request carries `timeout_ms=1`, so each one expires *in
//!   the queue* and is discarded before a session is touched: the p99
//!   is the marginal cost of queue-time shedding (round trip minus
//!   the server-reported `queued_ms`).
//!
//! The ratio between the two is the headline number for the cache:
//! a hit skips the whole pipeline, so `cache_hit` req/s should dwarf
//! `compile` req/s. Every successful response is also checked for
//! counter equivalence against the first one: a load bench that
//! silently serves wrong answers measures nothing.
//!
//! ```sh
//! cargo run --release -p bench --bin serve_bench -- \
//!     [--clients N] [--requests N] [--model M] \
//!     [--workers N] [--queue N] [--out FILE]
//! ```
//!
//! Overloaded responses (admission control pushing back) are retried
//! and counted separately; only successful compiles enter the latency
//! series.

use pypm::serve::{
    Client, ServeConfig, Server, STATUS_DEADLINE_EXCEEDED, STATUS_OK, STATUS_OVERLOADED,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    clients: usize,
    requests: usize,
    model: String,
    workers: usize,
    queue: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        clients: 8,
        requests: 12,
        model: "bert-small".to_owned(),
        workers: 2,
        queue: 16,
        out: concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_serve.json").to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            std::process::exit(2);
        });
        let numeric = |v: &str| {
            v.parse::<usize>().unwrap_or_else(|_| {
                eprintln!("invalid {flag} {v}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--clients" => args.clients = numeric(&value).max(1),
            "--requests" => args.requests = numeric(&value).max(1),
            "--model" => args.model = value,
            "--workers" => args.workers = numeric(&value).max(1),
            "--queue" => args.queue = numeric(&value),
            "--out" => args.out = value,
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Masks the volatile fields (wall clocks) of a
/// `pypm.pipeline.v1` document so responses can be compared for
/// counter equivalence.
fn mask_volatile(json: &str) -> String {
    let fields = ["\"wall_ms\": ", "\"duration_ms\": "];
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    loop {
        let next = fields
            .iter()
            .filter_map(|f| rest.find(f).map(|p| (*f, p)))
            .min_by_key(|&(_, p)| p);
        let Some((field, pos)) = next else { break };
        let value_start = pos + field.len();
        out.push_str(&rest[..value_start]);
        out.push('_');
        let tail = &rest[value_start..];
        let value_len = tail.find([',', '}', '\n']).unwrap_or(tail.len());
        rest = &tail[value_len..];
    }
    out.push_str(rest);
    out
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

/// One measured load run against a dedicated server.
struct SeriesResult {
    latencies_ms: Vec<f64>,
    overloaded: u64,
    wall_s: f64,
    cache_hits: u64,
}

fn run_series(args: &Args, cache_capacity: usize) -> SeriesResult {
    let server = Server::bind(ServeConfig {
        workers: args.workers,
        queue_depth: args.queue,
        cache_capacity,
        ..ServeConfig::default()
    })
    .expect("bind on an ephemeral port");
    let addr = server.addr();
    let line = format!("compile {}", args.model);

    // The equivalence reference: one warm-up request, outside the
    // measured window. With the cache enabled this also primes it, so
    // the measured window is pure hits.
    let reference = {
        let mut c = Client::connect(addr).expect("connect");
        let (status, body) = c.request(&line).expect("warm-up request");
        assert_eq!(status, STATUS_OK, "warm-up failed: {body}");
        mask_volatile(&body)
    };

    let clock = Instant::now();
    let handles: Vec<_> = (0..args.clients)
        .map(|_| {
            let line = line.clone();
            let reference = reference.clone();
            let requests = args.requests;
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let mut latencies_ms = Vec::with_capacity(requests);
                let mut overloaded = 0u64;
                for _ in 0..requests {
                    loop {
                        let t = Instant::now();
                        let (status, body) = c.request(&line).expect("request");
                        match status {
                            STATUS_OK => {
                                latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                                assert_eq!(
                                    mask_volatile(&body),
                                    reference,
                                    "served counters diverged under load"
                                );
                                break;
                            }
                            STATUS_OVERLOADED => {
                                overloaded += 1;
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            other => panic!("unexpected status {other}: {body}"),
                        }
                    }
                }
                (latencies_ms, overloaded)
            })
        })
        .collect();

    let mut latencies_ms = Vec::with_capacity(args.clients * args.requests);
    let mut overloaded = 0u64;
    for h in handles {
        let (lat, ov) = h.join().expect("client thread");
        latencies_ms.extend(lat);
        overloaded += ov;
    }
    let wall_s = clock.elapsed().as_secs_f64();

    // The cache's own accounting, straight from the `stats` verb.
    let cache_hits = {
        let mut c = Client::connect(addr).expect("connect");
        let (status, body) = c.request("stats").expect("stats request");
        assert_eq!(status, STATUS_OK, "stats failed: {body}");
        let key = "\"hits\": ";
        let at = body.find(key).expect("hits counter");
        let tail = &body[at + key.len()..];
        tail[..tail.find([',', '}']).unwrap()]
            .trim()
            .parse()
            .unwrap()
    };
    server.shutdown();
    server.join();

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    SeriesResult {
        latencies_ms,
        overloaded,
        wall_s,
        cache_hits,
    }
}

/// The deadline-shedding series: cache disabled, every request capped
/// at `step_limit=1` so no compile can finish — every response must be
/// `DEADLINE_EXCEEDED`, and its latency measures how quickly the
/// cooperative budget unwinds a doomed compile.
fn run_deadline_series(args: &Args) -> SeriesResult {
    let server = Server::bind(ServeConfig {
        workers: args.workers,
        queue_depth: args.queue,
        cache_capacity: 0,
        ..ServeConfig::default()
    })
    .expect("bind on an ephemeral port");
    let addr = server.addr();
    let line = format!("compile {} step_limit=1", args.model);

    let clock = Instant::now();
    let handles: Vec<_> = (0..args.clients)
        .map(|_| {
            let line = line.clone();
            let requests = args.requests;
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let mut latencies_ms = Vec::with_capacity(requests);
                let mut overloaded = 0u64;
                for _ in 0..requests {
                    loop {
                        let t = Instant::now();
                        let (status, body) = c.request(&line).expect("request");
                        match status {
                            STATUS_DEADLINE_EXCEEDED => {
                                latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                                assert!(body.contains("step_limit=1"), "{body}");
                                break;
                            }
                            STATUS_OVERLOADED => {
                                overloaded += 1;
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            other => panic!("unexpected status {other}: {body}"),
                        }
                    }
                }
                (latencies_ms, overloaded)
            })
        })
        .collect();

    let mut latencies_ms = Vec::with_capacity(args.clients * args.requests);
    let mut overloaded = 0u64;
    for h in handles {
        let (lat, ov) = h.join().expect("client thread");
        latencies_ms.extend(lat);
        overloaded += ov;
    }
    let wall_s = clock.elapsed().as_secs_f64();
    server.shutdown();
    server.join();

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    SeriesResult {
        latencies_ms,
        overloaded,
        wall_s,
        cache_hits: 0,
    }
}

/// Pulls `"key": N` out of the stats JSON.
fn stat_u64(stats: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    let rest = &stats[stats
        .find(&pat)
        .unwrap_or_else(|| panic!("{key} in {stats}"))
        + pat.len()..];
    rest.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric stat")
}

/// Pulls the server-reported queue wait out of a shed payload
/// (`... (timeout_ms=1, queued_ms=NN); the compile was shed ...`).
/// `None` means the response was a cooperative deadline instead of a
/// queue shed.
fn parse_queued_ms(body: &str) -> Option<f64> {
    let at = body.find("queued_ms=")?;
    let tail = &body[at + "queued_ms=".len()..];
    let end = tail
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// The queue-shedding series: one worker pinned by a background stream
/// of real compiles while every measured request carries
/// `timeout_ms=1`. Each doomed request expires while queued and is
/// discarded by the worker without a session ever being touched. The
/// recorded latency is the round trip **minus** the server-reported
/// `queued_ms` — the marginal cost of shedding one expired entry
/// (admission, dequeue, reply) rather than the time the entry
/// legitimately spent waiting behind the pinned worker.
fn run_shed_series(args: &Args) -> SeriesResult {
    let server = Server::bind(ServeConfig {
        workers: 1,
        queue_depth: args.queue.max(args.clients + 4),
        cache_capacity: 0,
        ..ServeConfig::default()
    })
    .expect("bind on an ephemeral port");
    let addr = server.addr();
    let pin_line = format!("compile {}", args.model);
    let doomed_line = format!("compile {} timeout_ms=1", args.model);

    // Hold the worker for ≥ 20 ms per compile regardless of how fast
    // the model compiles: without the floor, a small model in release
    // mode finishes inside the 1 ms deadline and nothing is ever
    // queued long enough to shed.
    pypm::faults::arm("serve.compile=delay:20").expect("failpoint spec");

    // Two pinner streams on one worker keep a real compile both in
    // flight and queued for the whole window, so a doomed request can
    // (almost) never find the worker idle before its 1 ms deadline
    // expires.
    let stop = Arc::new(AtomicBool::new(false));
    let pinners: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let line = pin_line.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect pinner");
                while !stop.load(Ordering::Relaxed) {
                    let (status, body) = c.request(&line).expect("pinner request");
                    assert_eq!(status, STATUS_OK, "pinner compile failed: {body}");
                }
            })
        })
        .collect();

    // Measure only once the worker is actually busy.
    let mut stats_client = Client::connect(addr).expect("connect stats");
    loop {
        let (status, body) = stats_client.request("stats").expect("stats request");
        assert_eq!(status, STATUS_OK, "stats failed: {body}");
        if stat_u64(&body, "compiles_started") >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    let clock = Instant::now();
    let handles: Vec<_> = (0..args.clients)
        .map(|_| {
            let line = doomed_line.clone();
            let requests = args.requests;
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let mut shed_cost_ms = Vec::with_capacity(requests);
                let mut overloaded = 0u64;
                for _ in 0..requests {
                    loop {
                        let t = Instant::now();
                        let (status, body) = c.request(&line).expect("request");
                        match status {
                            STATUS_DEADLINE_EXCEEDED => {
                                let elapsed_ms = t.elapsed().as_secs_f64() * 1e3;
                                // A request popped in the sliver before
                                // its 1 ms deadline expires dies
                                // cooperatively instead; only genuine
                                // queue sheds enter the series.
                                if let Some(queued) = parse_queued_ms(&body) {
                                    assert!(body.contains("shed before it started"), "{body}");
                                    shed_cost_ms.push((elapsed_ms - queued).max(0.0));
                                }
                                break;
                            }
                            STATUS_OVERLOADED => {
                                overloaded += 1;
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            other => panic!("unexpected status {other}: {body}"),
                        }
                    }
                }
                (shed_cost_ms, overloaded)
            })
        })
        .collect();

    let mut latencies_ms = Vec::with_capacity(args.clients * args.requests);
    let mut overloaded = 0u64;
    for h in handles {
        let (lat, ov) = h.join().expect("client thread");
        latencies_ms.extend(lat);
        overloaded += ov;
    }
    let wall_s = clock.elapsed().as_secs_f64();

    // The worker counters are the proof this series measured what it
    // claims: every recorded latency is one `shed_in_queue` tick, and
    // no shed request ever started a compile.
    let (status, stats) = stats_client.request("stats").expect("stats request");
    assert_eq!(status, STATUS_OK, "stats failed: {stats}");
    assert_eq!(
        stat_u64(&stats, "shed_in_queue"),
        latencies_ms.len() as u64,
        "shed counter diverged from observed sheds: {stats}"
    );

    stop.store(true, Ordering::Relaxed);
    for p in pinners {
        p.join().expect("pinner thread");
    }
    server.shutdown();
    server.join();
    pypm::faults::disarm();

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    SeriesResult {
        latencies_ms,
        overloaded,
        wall_s,
        cache_hits: 0,
    }
}

/// One series as a JSON object body.
fn series_json(r: &SeriesResult) -> String {
    let ok = r.latencies_ms.len();
    let mean = r.latencies_ms.iter().sum::<f64>() / ok.max(1) as f64;
    format!(
        "{{\"ok\": {}, \"overload_rejections\": {}, \"cache_hits\": {}, \
         \"wall_s\": {:.6}, \"requests_per_sec\": {:.3}, \
         \"latency_ms\": {{\"p50\": {:.6}, \"p99\": {:.6}, \"mean\": {:.6}, \
         \"min\": {:.6}, \"max\": {:.6}}}}}",
        ok,
        r.overloaded,
        r.cache_hits,
        r.wall_s,
        ok as f64 / r.wall_s,
        percentile(&r.latencies_ms, 50.0),
        percentile(&r.latencies_ms, 99.0),
        mean,
        r.latencies_ms.first().copied().unwrap_or(0.0),
        r.latencies_ms.last().copied().unwrap_or(0.0),
    )
}

fn main() {
    let args = parse_args();
    // Series 1: the cache disabled — every request is a full compile.
    let compile = run_series(&args, 0);
    assert_eq!(compile.cache_hits, 0, "disabled cache must not hit");
    // Series 2: the cache enabled and primed by the warm-up request —
    // every measured request is a hit.
    let cache_hit = run_series(&args, ServeConfig::default().cache_capacity);
    let total = (args.clients * args.requests) as u64;
    assert_eq!(
        cache_hit.cache_hits, total,
        "warm-cache series must be all hits"
    );
    // Series 3: every request doomed by `step_limit=1` — measures how
    // fast the budget sheds over-limit work.
    let deadline = run_deadline_series(&args);
    // Series 4: every request expires in the queue behind a pinned
    // worker — measures the marginal cost of queue-time shedding.
    let shed = run_shed_series(&args);
    assert!(
        shed.latencies_ms.len() * 10 >= total as usize * 9,
        "fewer than 90% of doomed requests were shed in queue ({} of {total})",
        shed.latencies_ms.len()
    );

    let compile_rps = compile.latencies_ms.len() as f64 / compile.wall_s;
    let hit_rps = cache_hit.latencies_ms.len() as f64 / cache_hit.wall_s;
    let json = format!(
        "{{\n  \"schema\": \"pypm.bench.serve.v5\",\n  \"model\": \"{}\",\n  \
         \"workers\": {},\n  \"queue_depth\": {},\n  \
         \"clients\": {},\n  \"requests_per_client\": {},\n  \"series\": {{\n    \
         \"compile\": {},\n    \"cache_hit\": {},\n    \"deadline\": {},\n    \
         \"shed\": {}\n  }},\n  \
         \"cache_hit_speedup\": {:.3},\n  \"counters_equivalent\": true\n}}\n",
        args.model,
        args.workers,
        args.queue,
        args.clients,
        args.requests,
        series_json(&compile),
        series_json(&cache_hit),
        series_json(&deadline),
        series_json(&shed),
        hit_rps / compile_rps,
    );
    std::fs::write(&args.out, &json).expect("write BENCH_serve.json");
    println!(
        "{} clients x {} requests of {}: compile {:.1} req/s (p50 {:.2} ms), \
         cache-hit {:.1} req/s (p50 {:.2} ms), {:.1}x, \
         deadline-shed p99 {:.2} ms, queue-shed p99 {:.2} ms -> {}",
        args.clients,
        args.requests,
        args.model,
        compile_rps,
        percentile(&compile.latencies_ms, 50.0),
        hit_rps,
        percentile(&cache_hit.latencies_ms, 50.0),
        hit_rps / compile_rps,
        percentile(&deadline.latencies_ms, 99.0),
        percentile(&shed.latencies_ms, 99.0),
        args.out
    );
}
